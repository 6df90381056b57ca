//! The three served workloads: their topology, their seeded
//! two-connection traces, and the replies each op must draw.
//!
//! Each base is a built-in `cdr-serve` scenario (`sensors`), so the seed
//! drives only the trace.  The sensors of the base are split in two:
//! connection A reads and writes the lower half, connection B reads only
//! the upper half.  B never uses `COUNT` or `APPROX` (their values scale
//! with the total repair count, which A's writes move), and A and B never
//! share a query text, so no reply depends on how the two connections
//! interleave — except B's `gen=`/`cached=` provenance, which is masked.
//! On `read_mix` A's distinct queries overflow the plan cache; B cycles a
//! small hot set round-robin, so its plans are never the LRU victim and A
//! sees the same hits and misses in any fair interleaving.

use std::path::Path;

use cdr_core::replog::field_u64;
use cdr_core::RepairEngine;
use cdr_repairdb::{Database, KeySet};
use cdr_server::{Backend, Oracle, ReplicatedBackend};
use cdr_workloads::sensor_readings;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::rng::{permutation, Zipf};

/// Ticks per sensor in every base.
pub const TICKS: usize = 8;
/// Conflicting duplicates per sensor (the `cdr-serve` default).
pub const DUPS: usize = 2;
/// Distinct blocks connection B cycles through.
const B_HOT_BLOCKS: usize = 32;
/// Inserts A sends at the end of its warm-up.
const WARMUP_WRITES: usize = 8;
/// Skew of connection A's block choice.
const ZIPF_EXPONENT: f64 = 1.0;
/// First value of A's inserted readings: far above any base value, so
/// every insert is fresh.
const FRESH_VALUE: u64 = 1_000_000;
/// First sensor id of A's fresh-key inserts (new blocks).
const FRESH_SENSOR: u64 = 1_000_000;
/// Connection A's op classes are dealt from shuffled decks of this many,
/// each holding every class's exact share, so no run or stretch of the
/// trace sends more or fewer writes or APPROX calls than its mix says.
const DECK: usize = 100;
/// No write is dealt within this many ops after an APPROX: an APPROX
/// holds A's pipeline for tens of milliseconds (about 16 of `read_mix`'s
/// send periods at its 90th percentile), and a write queued behind it
/// would time that wait instead of the write path.
const APPROX_SHADOW: usize = 16;

/// Which traffic a workload sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ReadMix,
    WriteChurn,
    Replicated,
}

/// One workload: the served topology and the offered load.
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// `--sensors` of the `sensors` scenario (`--ticks 8`, `--dups 2`).
    pub sensors: usize,
    /// `--auto-compact` on every node.
    pub auto_compact: Option<u64>,
    /// Offered open-loop rate of connections A and B, in ops/s.
    pub rate: [f64; 2],
    /// A's ops reserved per second of the closed-loop phase: about 1.5
    /// times A's measured closed-loop rate, so the phase runs for time,
    /// not out of trace.  (B repeats its cycle and needs no reserve.)
    pub closed_rate: f64,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "read_mix",
        kind: Kind::ReadMix,
        sensors: 2000,
        auto_compact: None,
        rate: [275.0, 3000.0],
        closed_rate: 700.0,
    },
    Spec {
        name: "write_churn",
        kind: Kind::WriteChurn,
        sensors: 2000,
        auto_compact: Some(48),
        rate: [60.0, 150.0],
        closed_rate: 650.0,
    },
    Spec {
        name: "replicated",
        kind: Kind::Replicated,
        sensors: 200,
        auto_compact: Some(1024),
        rate: [400.0, 1500.0],
        closed_rate: 950.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The `cdr-serve` flags of the primary (or only) node.
    pub fn serve_flags(&self) -> Vec<String> {
        let mut flags: Vec<String> = [
            "--scenario",
            "sensors",
            "--sensors",
            &self.sensors.to_string(),
            "--ticks",
            &TICKS.to_string(),
            "--dups",
            &DUPS.to_string(),
            "--workers",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(t) = self.auto_compact {
            flags.extend(["--auto-compact".to_string(), t.to_string()]);
        }
        flags
    }

    pub fn base(&self) -> (Database, KeySet) {
        sensor_readings(self.sensors, TICKS, DUPS)
    }

    /// A fresh reference session over the base, configured like the
    /// served primary: a replicated primary over `log_dir` on the
    /// `replicated` workload, a bare engine otherwise.
    pub fn oracle(&self, log_dir: &Path) -> Oracle {
        let (db, keys) = self.base();
        let engine = RepairEngine::new(db, keys);
        let oracle = if self.kind == Kind::Replicated {
            let primary = ReplicatedBackend::primary(engine, log_dir)
                .expect("the reference primary opens its log directory");
            Oracle::over(Backend::replicated(primary))
        } else {
            Oracle::new(engine)
        };
        match self.auto_compact {
            Some(t) => oracle.with_auto_compact(t),
            None => oracle,
        }
    }
}

/// What an op measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// COUNT/CERTAIN/DECIDE/FREQ.
    Query,
    Approx,
    /// INSERT/DELETE, or a BULK frame of INSERTs.
    Write,
    /// A follower `STATS` poll (checked for shape; feeds the lag).
    Stats,
}

/// What goes on the wire for one op.
#[derive(Clone, Debug)]
pub enum Payload {
    Line(String),
    /// A `BULK` frame body carrying `ops` mutations.
    Bulk {
        frame: Vec<u8>,
        ops: usize,
    },
}

/// One op of a connection's trace, with the replies it must draw.
#[derive(Clone, Debug)]
pub struct Op {
    pub payload: Payload,
    pub class: Class,
    /// The expected reply lines: one per line op, one per mutation of a
    /// BULK frame, none for a `STATS` poll.
    pub expect: Vec<String>,
    /// Compare with `gen=`/`cached=` masked (connection B).
    pub masked: bool,
    /// The primary's log end once this write is applied (`replicated`).
    pub log_end: Option<u64>,
}

impl Op {
    /// Mutations (or commands) this op carries.
    pub fn weight(&self) -> usize {
        match &self.payload {
            Payload::Bulk { ops, .. } => *ops,
            Payload::Line(_) => 1,
        }
    }

    /// Reply lines this op draws.
    pub fn reply_lines(&self) -> usize {
        self.weight()
    }

    /// Whether `replies` are the right answer.
    pub fn check(&self, replies: &[String]) -> bool {
        if self.class == Class::Stats {
            return replies.len() == 1
                && replies[0].starts_with("OK STATS ")
                && field_u64(&replies[0], "end=").is_some();
        }
        replies.len() == self.expect.len()
            && replies.iter().zip(&self.expect).all(|(got, want)| {
                if self.masked {
                    mask(got) == mask(want)
                } else {
                    got == want
                }
            })
    }
}

/// Blanks the interleaving-dependent provenance (`gen=`, `cached=`).
pub fn mask(reply: &str) -> String {
    reply
        .split(' ')
        .map(|token| {
            if token.starts_with("gen=") {
                "gen=*"
            } else if token.starts_with("cached=") {
                "cached=*"
            } else {
                token
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Which connection an op belongs to.
pub const A: usize = 0;
pub const B: usize = 1;

/// A generated trace with its expected replies.
pub struct Trace {
    /// Read-only warm-up ops per connection, sent during set-up.
    pub warmup: [Vec<Op>; 2],
    /// The measured ops per connection.  A's are the open-loop prefix,
    /// then the closed-loop reserve; B's are one cycle, repeated: op `i`
    /// of B is `conns[B][i % len]`.
    pub conns: [Vec<Op>; 2],
    /// How many ops of each connection the open loop sends.
    pub open_ops: [usize; 2],
    /// The order the reference replay fed ops in: (connection, index).
    /// Warm-up ops come first and are not listed.
    pub order: Vec<(usize, usize)>,
    /// Total time spent in `Oracle::feed`/`feed_bulk` over `order`.
    pub feed_secs: f64,
}

/// The per-connection op generators.
struct Gen<'a> {
    spec: &'a Spec,
    rng: ChaCha8Rng,
    zipf: Zipf,
    /// A's blocks (sensor, tick) in Zipf rank order.
    a_blocks: Vec<(usize, usize)>,
    /// B's hot blocks, cycled round-robin.
    b_blocks: Vec<(usize, usize)>,
    b_next: usize,
    /// The rest of A's current deck of op classes, dealt from the end.
    deck: Vec<Class>,
    /// A's ops dealt since its last APPROX.
    since_approx: usize,
    /// Facts A inserted that are still live, as `Reading(…)` text.
    live: Vec<String>,
    fresh: u64,
}

/// The base value of a reading, as `sensor_readings` generates it.
fn base_value(sensor: usize, tick: usize) -> usize {
    (sensor * 31 + tick * 7) % 100
}

/// Whether the auto-compaction policy compacts before the next mutation.
fn policy_fires(engine: &RepairEngine, threshold: Option<u64>) -> bool {
    let Some(threshold) = threshold else {
        return false;
    };
    let waste = engine.waste();
    let db = engine.database();
    waste > 0 && (waste >= threshold || db.fact_ids_assigned() >= db.fact_id_capacity())
}

impl<'a> Gen<'a> {
    fn new(spec: &'a Spec, seed: u64) -> Gen<'a> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let half = spec.sensors / 2;
        let a_count = half * TICKS;
        let a_blocks = permutation(&mut rng, a_count)
            .into_iter()
            .map(|i| (i / TICKS, i % TICKS))
            .collect();
        let b_count = (spec.sensors - half) * TICKS;
        let b_blocks = permutation(&mut rng, b_count)
            .into_iter()
            .take(B_HOT_BLOCKS)
            .map(|i| (half + i / TICKS, i % TICKS))
            .collect();
        Gen {
            spec,
            zipf: Zipf::new(a_count, ZIPF_EXPONENT),
            rng,
            a_blocks,
            b_blocks,
            b_next: 0,
            deck: Vec::new(),
            since_approx: APPROX_SHADOW,
            live: Vec::new(),
            fresh: 0,
        }
    }

    /// The class of A's next op, dealt from the current deck.
    fn a_class(&mut self) -> Class {
        if self.deck.is_empty() {
            self.deck = self.deal();
        }
        let class = self.deck.pop().expect("a dealt deck is not empty");
        self.since_approx = match class {
            Class::Approx => 0,
            _ => self.since_approx + 1,
        };
        class
    }

    /// A shuffled deck of `DECK` op classes in the workload's exact mix,
    /// redrawn until no write falls in an APPROX's shadow (counting the
    /// previous deck's tail).
    fn deal(&mut self) -> Vec<Class> {
        let (writes, approx) = match self.spec.kind {
            Kind::ReadMix => (2, 3),
            Kind::WriteChurn => (75, 0),
            Kind::Replicated => (DECK, 0),
        };
        loop {
            let deck: Vec<Class> = permutation(&mut self.rng, DECK)
                .into_iter()
                .map(|i| {
                    if i < writes {
                        Class::Write
                    } else if i < writes + approx {
                        Class::Approx
                    } else {
                        Class::Query
                    }
                })
                .collect();
            let mut since = self.since_approx;
            let clear = deck.iter().rev().all(|&class| {
                let clear = class != Class::Write || since >= APPROX_SHADOW;
                since = if class == Class::Approx { 0 } else { since + 1 };
                clear
            });
            if clear {
                return deck;
            }
        }
    }

    fn a_block(&mut self) -> (usize, usize) {
        self.a_blocks[self.zipf.sample(&mut self.rng)]
    }

    /// A's read over a Zipf-chosen block of its own half.
    fn a_query(&mut self) -> String {
        let (s, t) = self.a_block();
        let value = base_value(s, t);
        match self.rng.gen_range(0..4) {
            0 => format!("COUNT auto EXISTS v . Reading({s}, {t}, v)"),
            1 => format!("CERTAIN EXISTS v . Reading({s}, {t}, v)"),
            2 => format!("DECIDE Reading({s}, {t}, {value})"),
            _ => format!("FREQ Reading({s}, {t}, {value})"),
        }
    }

    fn a_approx(&mut self) -> String {
        let (s, t) = self.a_block();
        let seed = self.rng.gen_range(0..1usize << 20);
        format!("APPROX 0.5 0.2 {seed} EXISTS v . Reading({s}, {t}, v)")
    }

    /// A fresh reading: into one of A's existing blocks, or (on the churn
    /// workloads, one time in three) under a fresh key, opening a block.
    fn fresh_fact(&mut self) -> String {
        self.fresh += 1;
        let value = FRESH_VALUE + self.fresh;
        if self.spec.kind != Kind::ReadMix && self.rng.gen_range(0..3) == 0 {
            let sensor = FRESH_SENSOR + self.fresh;
            let tick = self.rng.gen_range(0..TICKS);
            format!("Reading({sensor}, {tick}, {value})")
        } else {
            let (s, t) = self.a_block();
            format!("Reading({s}, {t}, {value})")
        }
    }

    /// A `DELETE` of a live fact A inserted, naming the id the fact has
    /// when a server running the same auto-compaction policy applies the
    /// line; `None` when A has nothing live to delete.
    fn a_delete(&mut self, oracle: &Oracle) -> Option<(String, String)> {
        if self.live.is_empty() {
            return None;
        }
        let victim = self
            .live
            .swap_remove(self.rng.gen_range(0..self.live.len()));
        let threshold = self.spec.auto_compact;
        let id = oracle.with_engine(|engine| {
            let db = engine.database();
            let fact = db.parse_fact(&victim).expect("victims are well-formed");
            let id = db.fact_id(&fact).expect("victims are live").index();
            if policy_fires(engine, threshold) {
                // Compaction slides the survivors onto a dense prefix in
                // id order: the victim's new id is its rank.
                db.iter().filter(|(other, _)| other.index() < id).count()
            } else {
                id
            }
        });
        Some((format!("DELETE {id}"), victim))
    }

    fn b_read(&mut self) -> String {
        let forms = if self.spec.kind == Kind::WriteChurn {
            2
        } else {
            3
        };
        let (s, t) = self.b_blocks[self.b_next % self.b_blocks.len()];
        let form = (self.b_next / self.b_blocks.len()) % forms;
        self.b_next += 1;
        let value = base_value(s, t);
        match form {
            0 => format!("CERTAIN EXISTS v . Reading({s}, {t}, v)"),
            1 => format!("DECIDE Reading({s}, {t}, {value})"),
            _ => format!("FREQ Reading({s}, {t}, {value})"),
        }
    }
}

fn line_op(line: String, class: Class, masked: bool) -> Op {
    Op {
        payload: Payload::Line(line),
        class,
        expect: Vec::new(),
        masked,
        log_end: None,
    }
}

/// Feeds one op to the reference session, filling in its expected
/// replies; returns the seconds spent in the session call.
fn expect(oracle: &mut Oracle, op: &mut Op) -> f64 {
    let start = std::time::Instant::now();
    op.expect = match &op.payload {
        Payload::Line(line) => oracle.feed(line),
        Payload::Bulk { frame, .. } => oracle.feed_bulk(frame),
    };
    start.elapsed().as_secs_f64()
}

/// Builds the seeded trace of `spec` for an open loop of `open_secs` and
/// a closed loop of `closed_secs`, and its expected replies by one
/// reference replay through `Oracle` (over a replicated primary in
/// `log_dir` on the `replicated` workload).
pub fn build(spec: &Spec, seed: u64, open_secs: f64, closed_secs: f64, log_dir: &Path) -> Trace {
    let mut gen = Gen::new(spec, seed);
    let mut oracle = spec.oracle(log_dir);

    // Warm-up: A's hottest blocks, then one pass over B's cycle.  B's ops
    // are read-only and their masked replies independent of A, so B
    // repeats that cycle for the whole run and its first pass fixes the
    // expected replies.
    let mut warmup: [Vec<Op>; 2] = [Vec::new(), Vec::new()];
    for rank in 0..64 {
        let (s, t) = gen.a_blocks[rank];
        warmup[A].push(line_op(
            format!("COUNT auto EXISTS v . Reading({s}, {t}, v)"),
            Class::Query,
            false,
        ));
    }
    // A few inserts grow the node's heap to hold the copy each write
    // makes of the database, so the first measured writes do not fault
    // in fresh pages.
    for _ in 0..WARMUP_WRITES {
        let fact = gen.fresh_fact();
        warmup[A].push(line_op(format!("INSERT {fact}"), Class::Write, false));
        gen.live.push(fact);
    }
    let forms = if spec.kind == Kind::WriteChurn { 2 } else { 3 };
    while warmup[B]
        .iter()
        .filter(|op| op.class != Class::Stats)
        .count()
        < B_HOT_BLOCKS * forms
    {
        let op = next_b(&mut gen, warmup[B].len());
        warmup[B].push(op);
    }
    for conn in [A, B] {
        for op in &mut warmup[conn] {
            if op.class != Class::Stats {
                expect(&mut oracle, op);
            }
        }
    }
    let cycle = warmup[B].clone();

    let open_ops = [
        (spec.rate[A] * open_secs).round() as usize,
        (spec.rate[B] * open_secs).round() as usize,
    ];
    let total_a = open_ops[A] + (spec.closed_rate * closed_secs).ceil() as usize;
    let mut ops_a: Vec<Op> = Vec::with_capacity(total_a);
    let mut order = Vec::with_capacity(total_a + open_ops[B]);
    let mut feed_secs = 0.0;
    let mut sent_b = 0;
    // The open loop merges the two connections by their send times; the
    // closed loop follows each A op with one B op, which keeps B's plans
    // the most recently used, as B's own loop does on the server.
    let period = [1.0 / spec.rate[A], 1.0 / spec.rate[B]];
    let due_b = |n: usize| (n as f64 + 0.5) * period[B];
    while ops_a.len() < total_a {
        let open = ops_a.len() < open_ops[A];
        let b_first = sent_b < open_ops[B] && due_b(sent_b) < ops_a.len() as f64 * period[A];
        if b_first || (!open && order.last().is_some_and(|&(conn, _)| conn == A)) {
            let index = sent_b % cycle.len();
            let op = &cycle[index];
            if op.class != Class::Stats {
                let start = std::time::Instant::now();
                let replies = oracle.feed(match &op.payload {
                    Payload::Line(line) => line,
                    Payload::Bulk { .. } => unreachable!("B sends lines"),
                });
                feed_secs += start.elapsed().as_secs_f64();
                assert!(
                    op.check(&replies),
                    "B's reply to {:?} depends on the interleaving: {replies:?} vs {:?}",
                    op.payload,
                    op.expect
                );
            }
            order.push((B, index));
            sent_b += 1;
            continue;
        }
        let (mut op, victim) = next_a(&mut gen, &oracle);
        feed_secs += expect(&mut oracle, &mut op);
        if let Some(victim) = victim {
            // A stale id would silently delete some other fact.
            let gone = oracle.with_engine(|engine| {
                let db = engine.database();
                db.fact_id(&db.parse_fact(&victim).expect("victims parse"))
                    .is_none()
            });
            assert!(
                gone,
                "`{victim}` survived its DELETE: the id simulation is off"
            );
        }
        if spec.kind == Kind::Replicated && op.class == Class::Write {
            let stats = oracle.feed("STATS");
            op.log_end = field_u64(&stats[0], "end=");
        }
        order.push((A, ops_a.len()));
        ops_a.push(op);
    }
    Trace {
        warmup,
        conns: [ops_a, cycle],
        open_ops,
        order,
        feed_secs,
    }
}

/// Connection A's next op, plus the fact it deletes, if it is a
/// `DELETE`.
fn next_a(gen: &mut Gen, oracle: &Oracle) -> (Op, Option<String>) {
    let class = gen.a_class();
    if class == Class::Write {
        let kind: f64 = gen.rng.gen_range(0.0..1.0);
        if gen.spec.kind != Kind::ReadMix && kind < 0.15 {
            return (bulk_op(gen, oracle), None);
        }
        if kind >= 0.6 {
            if let Some((line, victim)) = gen.a_delete(oracle) {
                return (line_op(line, Class::Write, false), Some(victim));
            }
        }
        let fact = gen.fresh_fact();
        let op = line_op(format!("INSERT {fact}"), Class::Write, false);
        gen.live.push(fact);
        return (op, None);
    }
    if class == Class::Approx {
        return (line_op(gen.a_approx(), Class::Approx, false), None);
    }
    (line_op(gen.a_query(), Class::Query, false), None)
}

/// A burst of 2–6 fresh inserts shipped as one `BULK` frame.
fn bulk_op(gen: &mut Gen, oracle: &Oracle) -> Op {
    let n = gen.rng.gen_range(2..=6);
    let facts: Vec<String> = (0..n).map(|_| gen.fresh_fact()).collect();
    let frame = oracle.with_engine(|engine| {
        let db = engine.database();
        let mutations: Vec<_> = facts
            .iter()
            .map(|f| {
                cdr_repairdb::Mutation::Insert(db.parse_fact(f).expect("generated facts parse"))
            })
            .collect();
        cdr_core::encode_bulk(db, &mutations)
    });
    gen.live.extend(facts);
    Op {
        payload: Payload::Bulk { frame, ops: n },
        class: Class::Write,
        expect: Vec::new(),
        masked: false,
        log_end: None,
    }
}

/// Connection B's next op: reads of its own hot blocks, plus a follower
/// `STATS` poll every fourth op on `replicated`.
fn next_b(gen: &mut Gen, index: usize) -> Op {
    if gen.spec.kind == Kind::Replicated && index % 4 == 3 {
        return line_op("STATS".to_string(), Class::Stats, true);
    }
    let line = gen.b_read();
    line_op(line, Class::Query, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const KINDS: [Kind; 3] = [Kind::ReadMix, Kind::WriteChurn, Kind::Replicated];

    /// A small base with an aggressive compaction threshold, so short
    /// traces cross many compaction points.
    fn small(kind: Kind) -> Spec {
        Spec {
            name: "test",
            kind,
            sensors: 40,
            auto_compact: (kind != Kind::ReadMix).then_some(6),
            rate: [200.0, 400.0],
            closed_rate: 200.0,
        }
    }

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payloads(trace: &Trace) -> Vec<String> {
        trace
            .conns
            .iter()
            .flatten()
            .map(|op| format!("{:?}", op.payload))
            .collect()
    }

    fn feed(oracle: &mut Oracle, op: &Op) -> Vec<String> {
        match &op.payload {
            Payload::Line(line) => oracle.feed(line),
            Payload::Bulk { frame, .. } => oracle.feed_bulk(frame),
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_trace_and_another_seed_another() {
        for kind in KINDS {
            let spec = small(kind);
            let dir = scratch("determinism");
            let first = build(&spec, 7, 1.0, 1.0, &dir.join("first"));
            let again = build(&spec, 7, 1.0, 1.0, &dir.join("again"));
            let other = build(&spec, 8, 1.0, 1.0, &dir.join("other"));
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(payloads(&first), payloads(&again), "{kind:?}");
            assert_eq!(first.order, again.order, "{kind:?}");
            let expected = |t: &Trace| -> Vec<Vec<String>> {
                t.conns
                    .iter()
                    .flatten()
                    .map(|op| op.expect.clone())
                    .collect()
            };
            assert_eq!(expected(&first), expected(&again), "{kind:?}");
            assert_ne!(payloads(&first), payloads(&other), "{kind:?}");
        }
    }

    #[test]
    fn a_deals_its_exact_mix_and_no_write_in_an_approx_shadow() {
        let spec = small(Kind::ReadMix);
        let mut gen = Gen::new(&spec, 5);
        let classes: Vec<Class> = (0..20 * DECK).map(|_| gen.a_class()).collect();
        for deck in classes.chunks(DECK) {
            let count = |class| deck.iter().filter(|&&c| c == class).count();
            assert_eq!((count(Class::Write), count(Class::Approx)), (2, 3));
        }
        let mut since = APPROX_SHADOW;
        for &class in &classes {
            assert!(class != Class::Write || since >= APPROX_SHADOW);
            since = if class == Class::Approx { 0 } else { since + 1 };
        }
    }

    #[test]
    fn every_trace_replays_all_ok_and_its_deletes_survive_compaction() {
        for kind in KINDS {
            let spec = small(kind);
            let dir = scratch("replay");
            let trace = build(&spec, 3, 1.0, 1.0, &dir.join("build"));
            for op in trace.warmup.iter().chain(&trace.conns).flatten() {
                assert!(
                    op.expect.iter().all(|reply| reply.starts_with("OK ")),
                    "{kind:?}: {:?} -> {:?}",
                    op.payload,
                    op.expect
                );
            }
            // An independent replay in the recorded order, under the same
            // auto-compaction policy, draws exactly the expected replies:
            // every DELETE names a live id even across compactions.
            let mut oracle = spec.oracle(&dir.join("replay"));
            for op in trace.warmup.iter().flatten() {
                if op.class != Class::Stats {
                    feed(&mut oracle, op);
                }
            }
            let (mut deletes, mut inserts) = (0, 0);
            for &(conn, index) in &trace.order {
                let op = &trace.conns[conn][index];
                if op.class == Class::Stats {
                    continue;
                }
                assert!(
                    op.check(&feed(&mut oracle, op)),
                    "{kind:?}: {:?}",
                    op.payload
                );
                match &op.payload {
                    Payload::Line(line) if line.starts_with("DELETE ") => deletes += 1,
                    Payload::Line(line) if line.starts_with("INSERT ") => inserts += 1,
                    Payload::Bulk { ops, .. } => inserts += ops,
                    Payload::Line(_) => {}
                }
            }
            let ids = oracle.with_engine(|e| e.database().fact_ids_assigned() as usize);
            let base = spec.base().0.len();
            let _ = std::fs::remove_dir_all(&dir);
            assert!(inserts > 0, "{kind:?} writes");
            if kind != Kind::ReadMix {
                assert!(deletes > 20, "{kind:?}: {deletes} deletes");
                assert!(ids < base + inserts, "{kind:?}: compaction reclaimed ids");
            }
        }
    }
}
