//! The traced run: the same trace replayed in-process, with spans around
//! calls into each layer's public functions.
//!
//! Each op's parent span is `Oracle::feed` (or `feed_bulk`) — the whole
//! session path the server runs for that line, minus sockets and
//! scheduling.  Its child spans come from replaying the op's layer calls
//! on a shadow `RepairEngine` that has seen exactly the same ops, right
//! after the parent: parse (`cdr_core::wire`), decode
//! (`wire::frame::decode_bulk`), plan and count (`RepairEngine::run`),
//! compaction policy (`maybe_compact`), mutation (`apply`) and render
//! (`BigNat` `Display`).  The children therefore sit next to the parent
//! in time rather than inside it; a span's self time is its duration
//! minus its children's.  A third copy, a `ReplicatedBackend` primary
//! over a temporary log directory, takes every write through
//! `ReplicatedBackend::mutate`; its FETCH batches are then decoded,
//! re-encoded and applied to a follower engine with `apply_record`.
//! Nothing inside the server is instrumented.
//!
//! The shadow calls run under the session's conditions: the session
//! parses against an `Arc<Database>` snapshot and holds it until the
//! reply is rendered, so a write's `Arc::make_mut` inside
//! `RepairEngine::apply` (or `compact`) copies the whole database, and
//! the old copy is freed when the snapshot drops.  The shadow engine and
//! the replicated primary hold a snapshot across the same calls, and the
//! drop is its own child span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cdr_core::replog::{apply_record, decode_record_batch, encode_record_batch, field_u64};
use cdr_core::{
    decode_bulk, encode_bulk, parse_engine_command, Answer, CountReport, EngineCommand, LogRecord,
    RepairEngine,
};
use cdr_repairdb::{Database, Mutation};
use cdr_server::ReplicatedBackend;

use crate::stats::median;
use crate::workload::{Class, Kind, Payload, Spec, Trace};

/// Every per-layer metric the traced run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("transport.query_us", "us"),
    ("transport.write_us", "us"),
    ("transport.reply_bytes", "B"),
    ("queue.wait_p50_us", "us"),
    ("queue.wait_p99_us", "us"),
    ("gen.late_p99_us", "us"),
    ("session.query_us", "us"),
    ("session.write_us", "us"),
    ("session.write_self_us", "us"),
    ("wire.parse_query_us", "us"),
    ("wire.parse_mutation_us", "us"),
    ("frame.decode_us_per_op", "us"),
    ("engine.plan_hit_ratio", "ratio"),
    ("engine.invalidations_per_write", "count"),
    ("engine.evictions_per_1k_ops", "count"),
    ("engine.run_hit_us", "us"),
    ("engine.run_miss_us", "us"),
    ("approx.samples_per_op", "count"),
    ("approx.ns_per_sample", "ns"),
    ("engine.apply_insert_us", "us"),
    ("engine.apply_delete_us", "us"),
    ("engine.compact_ms", "ms"),
    ("engine.compactions", "count"),
    ("render.total_us", "us"),
    ("repl.mutate_us", "us"),
    ("repl.append_us", "us"),
    ("replog.batch_encode_us", "us"),
    ("replog.batch_decode_us", "us"),
    ("replog.apply_record_us", "us"),
    ("repl.feed_bytes_per_record", "B"),
    ("repl.records_retained", "count"),
];

/// The accounting check, two-sided: each class's median coverage (its
/// children's total as a share of the parent span) must lie within
/// `1 ± SPAN_TOLERANCE`.  Below, the children miss session work; above,
/// the shadow calls measure work the session did not do.  The check is
/// on the median because a write's copy-on-write clone and free are
/// memory-bound and vary by tens of percent from one call to the next;
/// the share of single ops within the band is reported alongside.
pub const SPAN_TOLERANCE: f64 = 0.25;
/// Records per replication FETCH, as the follower's tailer asks.
const FETCH_RECORDS: u64 = 64;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Position of the op in the replay order.
    pub op: usize,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span store, written out when the run ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            parent,
            op,
        });
        (result, self.spans.len() - 1)
    }

    /// Total child time per span.
    fn child_us(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                sums[parent] += span.us();
            }
        }
        sums
    }

    /// Writes every span as a tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let child = self.child_us();
        let mut out = String::from("op\tname\tstart_ns\tend_ns\tparent\tself_us\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{:.3}",
                span.op,
                span.name,
                span.start_ns,
                span.end_ns,
                parent,
                span.us() - child[i]
            );
        }
        std::fs::write(path, out)
    }
}

/// The parse snapshot a session holds while it executes one line or
/// frame, taken of both engines: the session's own (the replicated
/// primary on `replicated`, the shadow engine otherwise) and the other.
/// An engine's first write under its snapshot copies the database
/// (`Arc::make_mut`).  Each snapshot is released right after that write,
/// so no third copy competes with a timed call: the session engine's as
/// a child span of the session, which frees its pre-write copy too, the
/// other's outside any span.
struct Snapshots {
    shadow: Option<Arc<Database>>,
    repl: Option<Arc<Database>>,
    replicated: bool,
}

impl Snapshots {
    fn take(shadow: &RepairEngine, repl: &ReplicatedBackend, spec: &Spec) -> Snapshots {
        Snapshots {
            shadow: Some(shadow.database_arc()),
            repl: Some(repl.parse_database()),
            replicated: spec.kind == Kind::Replicated,
        }
    }

    /// The shadow engine's database as of the line's arrival, to parse
    /// against.
    fn parse_database(&self) -> &Database {
        self.shadow
            .as_deref()
            .expect("parsing comes before any release")
    }

    fn release_shadow(&mut self, rec: &mut Recorder, parent: usize, op: usize) {
        let timed = !self.replicated;
        release(rec, self.shadow.take(), timed, parent, op);
    }

    fn release_repl(&mut self, rec: &mut Recorder, parent: usize, op: usize) {
        let timed = self.replicated;
        release(rec, self.repl.take(), timed, parent, op);
    }
}

/// Drops a snapshot, as a `session.release_snapshot` child of `parent`
/// when `timed`: after a write it holds the last reference to the
/// pre-write database, which is freed here.
fn release(
    rec: &mut Recorder,
    snapshot: Option<Arc<Database>>,
    timed: bool,
    parent: usize,
    op: usize,
) {
    match snapshot {
        Some(snapshot) if timed => {
            rec.time("session.release_snapshot", Some(parent), op, || {
                drop(snapshot)
            });
        }
        other => drop(other),
    }
}

/// The traced run's results.
pub struct Layers {
    /// Per-layer metrics computed in-process, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Share of parent spans (per class) whose own coverage lies within
    /// `1 ± SPAN_TOLERANCE`.
    pub op_within_share: BTreeMap<&'static str, f64>,
    /// Median share of a parent span its children cover, per class.
    pub coverage: BTreeMap<&'static str, f64>,
    /// Traced minus untraced `Oracle::feed` time over the same ops.
    pub overhead_secs: f64,
    pub recorder: Recorder,
}

impl Layers {
    /// Whether every class's median coverage lies within
    /// `1 ± SPAN_TOLERANCE`.
    pub fn accounted(&self) -> bool {
        self.coverage.values().all(|&cover| within_tolerance(cover))
    }
}

fn within_tolerance(coverage: f64) -> bool {
    (coverage - 1.0).abs() <= SPAN_TOLERANCE
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// Renders an answer the way a query reply carries it.
fn render_answer(report: &CountReport) -> String {
    match &report.answer {
        Answer::Count(count) => count.to_string(),
        Answer::Frequency(ratio) => ratio.to_string(),
        Answer::Estimate(estimate) => estimate.estimate.to_string(),
        Answer::Decision(holds) => holds.to_string(),
    }
}

/// Per class of op: parent durations, self times and coverage shares.
type ClassSpans = (Vec<f64>, Vec<f64>, Vec<f64>);

#[derive(Default)]
struct Tally {
    run_hit: Vec<f64>,
    run_miss: Vec<f64>,
    approx_us: f64,
    approx_samples: u64,
    approx_ops: u64,
    apply_insert: Vec<f64>,
    apply_delete: Vec<f64>,
    compact_ms: Vec<f64>,
    render_total: Vec<f64>,
    parse_query: Vec<f64>,
    parse_mutation: Vec<f64>,
    decode_us: f64,
    decode_ops: usize,
    repl_mutate: Vec<f64>,
    repl_append: Vec<f64>,
    writes: u64,
}

/// The shadow write path for one mutation, through both engines.  On
/// the shadow engine: the compaction policy, the apply and the `total=`
/// render.  On the replicated primary: `repl.mutate`.  The shadow calls
/// are children of `parent`, the session span — except on the
/// `replicated` workload, whose session writes through the replicated
/// primary: there `repl.mutate` is the session's child and runs first,
/// and the shadow calls are its children, so its self time is the log
/// append.  `snapshots` stand for the session's parse snapshot.
fn shadow_write(
    rec: &mut Recorder,
    tally: &mut Tally,
    (shadow, repl): (&mut RepairEngine, &ReplicatedBackend),
    spec: &Spec,
    snapshots: &mut Snapshots,
    mutation: Mutation,
    (parent, op): (usize, usize),
) {
    let threshold = spec.auto_compact;
    let repl_mutate = |rec: &mut Recorder, parent: Option<usize>| {
        let (reply, span) = rec.time("repl.mutate", parent, op, || {
            repl.mutate(mutation.clone(), threshold)
        });
        assert!(
            reply.starts_with("OK "),
            "replicated primary refused: {reply}"
        );
        span
    };
    let (mutate_span, engine_us) = if snapshots.replicated {
        let mutate_span = repl_mutate(rec, Some(parent));
        snapshots.release_repl(rec, parent, op);
        let engine_us = engine_write(rec, tally, shadow, &mutation, threshold, (mutate_span, op));
        snapshots.release_shadow(rec, parent, op);
        (mutate_span, engine_us)
    } else {
        let engine_us = engine_write(rec, tally, shadow, &mutation, threshold, (parent, op));
        snapshots.release_shadow(rec, parent, op);
        let mutate_span = repl_mutate(rec, None);
        snapshots.release_repl(rec, parent, op);
        (mutate_span, engine_us)
    };
    let mutate_us = rec.spans[mutate_span].us();
    tally.repl_mutate.push(mutate_us);
    tally.repl_append.push(mutate_us - engine_us);
    tally.writes += 1;
}

/// The shadow engine's part of a write, as children of `parent`:
/// `maybe_compact`, `apply` and the `total=` render.  Returns their
/// total time in µs.
fn engine_write(
    rec: &mut Recorder,
    tally: &mut Tally,
    shadow: &mut RepairEngine,
    mutation: &Mutation,
    threshold: Option<u64>,
    (parent, op): (usize, usize),
) -> f64 {
    let mut engine_us = 0.0;
    if let Some(t) = threshold {
        let (outcome, span) = rec.time("engine.maybe_compact", Some(parent), op, || {
            shadow.maybe_compact(t)
        });
        engine_us += rec.spans[span].us();
        if let Some(outcome) = outcome {
            tally.compact_ms.push(outcome.duration.as_secs_f64() * 1e3);
        }
    }
    let name = match mutation {
        Mutation::Insert(_) => "engine.apply_insert",
        Mutation::Delete(_) => "engine.apply_delete",
    };
    let (applied, span) = rec.time(name, Some(parent), op, || shadow.apply(mutation.clone()));
    applied.expect("the shadow engine applies every traced write");
    let apply_us = rec.spans[span].us();
    engine_us += apply_us;
    match mutation {
        Mutation::Insert(_) => tally.apply_insert.push(apply_us),
        Mutation::Delete(_) => tally.apply_delete.push(apply_us),
    }
    let (_, span) = rec.time("render.total", Some(parent), op, || {
        shadow.total_repairs().to_string()
    });
    let render_us = rec.spans[span].us();
    tally.render_total.push(render_us);
    engine_us + render_us
}

/// Replays `trace` in-process with spans.  `dir` holds the replicated
/// primaries' log directories.
pub fn replay(spec: &Spec, trace: &Trace, dir: &Path) -> Layers {
    let mut oracle = spec.oracle(&dir.join("traced-oracle-log"));
    let (db, keys) = spec.base();
    let mut shadow = RepairEngine::new(db.clone(), keys.clone());
    let repl = ReplicatedBackend::primary(
        RepairEngine::new(db.clone(), keys.clone()),
        &dir.join("traced-repl-log"),
    )
    .expect("the traced primary opens its log directory");

    for op in trace.warmup.iter().flatten() {
        let Payload::Line(line) = &op.payload else {
            unreachable!("warm-up ops are lines")
        };
        oracle.feed(line);
        match parse_engine_command(line, shadow.database()) {
            Ok(EngineCommand::Query(request)) => {
                shadow.run(&request).expect("warm-up queries succeed");
            }
            Ok(EngineCommand::Mutate(mutation)) => {
                repl.mutate(mutation.clone(), spec.auto_compact);
                if let Some(t) = spec.auto_compact {
                    shadow.maybe_compact(t);
                }
                shadow.apply(mutation).expect("warm-up writes apply");
            }
            _ => {}
        }
    }
    let before = oracle.with_engine(|e| e.cache_stats());

    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    let mut parents: Vec<(&'static str, usize)> = Vec::new();
    let mut inserts: Vec<Mutation> = Vec::new();
    let mut ops_replayed = 0u64;

    for (position, &(conn, index)) in trace.order.iter().enumerate() {
        let op = &trace.conns[conn][index];
        if op.class == Class::Stats {
            continue;
        }
        ops_replayed += 1;
        match &op.payload {
            Payload::Line(line) => {
                let (_, parent) = rec.time("session", None, position, || oracle.feed(line));
                let mut snapshots = Snapshots::take(&shadow, &repl, spec);
                let is_write = op.class == Class::Write;
                let parse_name = if is_write {
                    "wire.parse_mutation"
                } else {
                    "wire.parse_query"
                };
                let (command, span) = rec.time(parse_name, Some(parent), position, || {
                    parse_engine_command(line, snapshots.parse_database())
                });
                let parse_us = rec.spans[span].us();
                match command.expect("traced lines parse") {
                    EngineCommand::Query(request) => {
                        tally.parse_query.push(parse_us);
                        let (report, span) = rec.time("engine.run", Some(parent), position, || {
                            shadow.run(&request)
                        });
                        let run_us = rec.spans[span].us();
                        let report = report.expect("traced queries succeed");
                        rec.time("render.reply", Some(parent), position, || {
                            render_answer(&report)
                        });
                        if op.class == Class::Approx {
                            tally.approx_us += run_us;
                            tally.approx_samples += report.samples_used;
                            tally.approx_ops += 1;
                        } else if report.plan_cached {
                            tally.run_hit.push(run_us);
                        } else {
                            tally.run_miss.push(run_us);
                        }
                        let class = if op.class == Class::Approx {
                            "approx"
                        } else {
                            "query"
                        };
                        parents.push((class, parent));
                    }
                    EngineCommand::Mutate(mutation) => {
                        tally.parse_mutation.push(parse_us);
                        if let Mutation::Insert(_) = &mutation {
                            inserts.push(mutation.clone());
                        }
                        shadow_write(
                            &mut rec,
                            &mut tally,
                            (&mut shadow, &repl),
                            spec,
                            &mut snapshots,
                            mutation,
                            (parent, position),
                        );
                        parents.push(("write", parent));
                    }
                    other => panic!("unexpected traced command {other:?}"),
                }
                snapshots.release_shadow(&mut rec, parent, position);
                snapshots.release_repl(&mut rec, parent, position);
            }
            Payload::Bulk { frame, ops } => {
                let (_, parent) = rec.time("session", None, position, || oracle.feed_bulk(frame));
                let mut snapshots = Snapshots::take(&shadow, &repl, spec);
                let (mutations, span) = rec.time("frame.decode", Some(parent), position, || {
                    decode_bulk(frame, snapshots.parse_database())
                });
                tally.decode_us += rec.spans[span].us();
                tally.decode_ops += ops;
                for mutation in mutations.expect("traced frames decode") {
                    shadow_write(
                        &mut rec,
                        &mut tally,
                        (&mut shadow, &repl),
                        spec,
                        &mut snapshots,
                        mutation,
                        (parent, position),
                    );
                }
                parents.push(("bulk", parent));
            }
        }
    }
    let after = oracle.with_engine(|e| e.cache_stats());

    // Layers the trace did not reach get one measurement on the final
    // state, so every workload reports every layer.
    if tally.approx_ops == 0 {
        for seed in 0..5u64 {
            let line = format!("APPROX 0.5 0.2 {seed} EXISTS v . Reading({seed}, 0, v)");
            let Ok(EngineCommand::Query(request)) = parse_engine_command(&line, shadow.database())
            else {
                unreachable!("the probe parses")
            };
            let (report, span) = rec.time("engine.run.approx_probe", None, usize::MAX, || {
                shadow.run(&request)
            });
            tally.approx_us += rec.spans[span].us();
            tally.approx_samples += report.expect("the probe runs").samples_used;
            tally.approx_ops += 1;
        }
    }
    let compactions = tally.compact_ms.len() as f64;
    if tally.compact_ms.is_empty() {
        let outcome = shadow.compact();
        tally.compact_ms.push(outcome.duration.as_secs_f64() * 1e3);
    }
    if tally.decode_ops == 0 && !inserts.is_empty() {
        let frame = encode_bulk(shadow.database(), &inserts);
        let (decoded, span) = rec.time("frame.decode.probe", None, usize::MAX, || {
            decode_bulk(&frame, shadow.database())
        });
        decoded.expect("the probe frame decodes");
        tally.decode_us += rec.spans[span].us();
        tally.decode_ops += inserts.len();
    }

    // Replication feed: FETCH-sized batches decoded, re-encoded and
    // applied to a follower that starts from the same base.
    let stats = repl.stats();
    let end = field_u64(&stats, "end=").unwrap_or(0);
    let base = field_u64(&stats, "base=").unwrap_or(0);
    let mut follower = RepairEngine::new(db.clone(), keys.clone());
    let schema = db.schema().clone();
    let (mut encode_us, mut decode_us, mut apply_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut feed_bytes = 0usize;
    let mut records = 0usize;
    let mut from = base;
    while from < end {
        let reply = repl.repl(&format!("REPL FETCH {from} {FETCH_RECORDS} BIN"), true);
        assert!(
            reply
                .lines
                .first()
                .is_some_and(|l| l.starts_with("OK REPL BATCH")),
            "FETCH refused: {:?}",
            reply.lines
        );
        let (payloads, span) = rec.time("replog.batch_decode", None, usize::MAX, || {
            decode_record_batch(&reply.raw)
        });
        decode_us.push(rec.spans[span].us());
        let payloads = payloads.expect("FETCH batches decode");
        let (encoded, span) = rec.time("replog.batch_encode", None, usize::MAX, || {
            encode_record_batch(&payloads)
        });
        encode_us.push(rec.spans[span].us());
        assert_eq!(encoded, reply.raw, "re-encoding reproduces the FETCH batch");
        for payload in &payloads {
            let (applied, span) = rec.time("replog.apply_record", None, usize::MAX, || {
                let record = LogRecord::decode(payload, &schema).expect("records decode");
                apply_record(&mut follower, &record)
            });
            applied.expect("the follower applies every record");
            apply_us.push(rec.spans[span].us());
        }
        feed_bytes += reply.raw.len();
        records += payloads.len();
        from += payloads.len() as u64;
    }
    assert_eq!(
        follower.total_repairs(),
        shadow.total_repairs(),
        "the follower converged on the shadow engine"
    );

    // Session self times and the accounting check.
    let child = rec.child_us();
    let mut per_class: BTreeMap<&'static str, ClassSpans> = BTreeMap::new();
    for &(class, parent) in &parents {
        let span = &rec.spans[parent];
        let entry = per_class
            .entry(class)
            .or_insert_with(|| (Vec::new(), Vec::new(), Vec::new()));
        entry.0.push(span.us());
        entry.1.push(span.us() - child[parent]);
        entry.2.push(child[parent] / span.us().max(1e-3));
    }
    let mut op_within_share = BTreeMap::new();
    let mut coverage = BTreeMap::new();
    for (class, (_, _, cover)) in &per_class {
        let within = cover.iter().filter(|&&c| within_tolerance(c)).count();
        op_within_share.insert(*class, within as f64 / cover.len() as f64);
        coverage.insert(*class, med(cover));
    }
    let class_med = |class: &str, pick: usize| {
        per_class.get(class).map_or(0.0, |e| {
            med(match pick {
                0 => &e.0,
                _ => &e.1,
            })
        })
    };
    let traced_feed: f64 = parents.iter().map(|&(_, p)| rec.spans[p].us()).sum::<f64>() / 1e6;

    let lookups = (after.hits + after.misses - before.hits - before.misses) as f64;
    let mut metrics = BTreeMap::new();
    metrics.insert("session.query_us", class_med("query", 0));
    metrics.insert("session.write_us", class_med("write", 0));
    metrics.insert("session.write_self_us", class_med("write", 1));
    metrics.insert("wire.parse_query_us", med(&tally.parse_query));
    metrics.insert("wire.parse_mutation_us", med(&tally.parse_mutation));
    metrics.insert(
        "frame.decode_us_per_op",
        tally.decode_us / tally.decode_ops.max(1) as f64,
    );
    metrics.insert(
        "engine.plan_hit_ratio",
        (after.hits - before.hits) as f64 / lookups.max(1.0),
    );
    metrics.insert(
        "engine.invalidations_per_write",
        (after.invalidations - before.invalidations) as f64 / tally.writes.max(1) as f64,
    );
    metrics.insert(
        "engine.evictions_per_1k_ops",
        (after.evictions - before.evictions) as f64 * 1e3 / ops_replayed.max(1) as f64,
    );
    metrics.insert("engine.run_hit_us", med(&tally.run_hit));
    metrics.insert("engine.run_miss_us", med(&tally.run_miss));
    metrics.insert(
        "approx.samples_per_op",
        tally.approx_samples as f64 / tally.approx_ops.max(1) as f64,
    );
    metrics.insert(
        "approx.ns_per_sample",
        tally.approx_us * 1e3 / tally.approx_samples.max(1) as f64,
    );
    metrics.insert("engine.apply_insert_us", med(&tally.apply_insert));
    metrics.insert("engine.apply_delete_us", med(&tally.apply_delete));
    metrics.insert("engine.compact_ms", med(&tally.compact_ms));
    metrics.insert("engine.compactions", compactions);
    metrics.insert("render.total_us", med(&tally.render_total));
    metrics.insert("repl.mutate_us", med(&tally.repl_mutate));
    metrics.insert("repl.append_us", med(&tally.repl_append));
    metrics.insert("replog.batch_encode_us", med(&encode_us));
    metrics.insert("replog.batch_decode_us", med(&decode_us));
    metrics.insert("replog.apply_record_us", med(&apply_us));
    metrics.insert(
        "repl.feed_bytes_per_record",
        feed_bytes as f64 / records.max(1) as f64,
    );
    metrics.insert("repl.records_retained", (end - base) as f64);

    Layers {
        metrics,
        op_within_share,
        coverage,
        overhead_secs: traced_feed - trace.feed_secs,
        recorder: rec,
    }
}
