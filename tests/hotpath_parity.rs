//! Hot-path parity suite for the counting core.
//!
//! The interned-symbol database representation, the flat pin-set boxes and
//! the allocation-free samplers are pure *representation* changes: every
//! `CountReport` — exact counts, decisions, certain answers, frequencies
//! and **seeded** Karp–Luby / FPRAS estimates — must be bit-for-bit
//! identical to what the pre-refactor structures produced.
//!
//! The `GOLDEN` constant below was recorded by running
//! `regenerate_goldens` on the tree *before* the hot-path refactor
//! (BTreeMap boxes, `Arc<str>` values, per-sample allocation); the suite
//! replays the same deterministic workloads — including a scripted
//! mutation phase through the engine — and requires byte-identical output.
//! To refresh after an *intentional* semantic change:
//!
//! ```text
//! cargo test --test hotpath_parity -- --ignored --nocapture
//! ```
//!
//! and paste the printed block over `GOLDEN`.
//!
//! A property-style pass additionally checks, on random workloads, that
//! the certificate/box counter agrees with repair enumeration and that
//! engine-cached estimators reproduce fresh estimators sample-for-sample.

use proptest::prelude::*;
use repair_count::counting::{
    count_by_enumeration, FprasEstimator, KarpLubyEstimator, Strategy as EngineStrategy,
};
use repair_count::prelude::*;
use repair_count::query::rewrite_to_ucq;

/// A tiny deterministic generator (SplitMix64) so workloads are stable
/// across platforms and independent of any library RNG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const NAMES: [&str; 4] = ["ann", "bob", "cat", "dan"];
const DEPTS: [&str; 3] = ["hr", "it", "ops"];
const TAGS: [&str; 3] = ["x", "y", "z"];

/// Builds a small inconsistent database: keyed `R/3` and `S/2` with
/// conflicting blocks, plus an unkeyed `Log/1`.
fn workload(seed: u64) -> (Database, KeySet) {
    let mut schema = Schema::new();
    schema.add_relation("R", 3).unwrap();
    schema.add_relation("S", 2).unwrap();
    schema.add_relation("Log", 1).unwrap();
    let keys = KeySet::builder(&schema)
        .key("R", 1)
        .unwrap()
        .key("S", 1)
        .unwrap()
        .build();
    let mut db = Database::new(schema);
    let mut lcg = Lcg(seed);
    for k in 0..6i64 {
        let size = 1 + lcg.below(3);
        for _ in 0..size {
            let name = NAMES[lcg.below(4) as usize];
            let dept = DEPTS[lcg.below(3) as usize];
            // Set semantics: duplicate draws collapse, which is fine.
            db.insert_parsed(&format!("R({k}, '{name}', '{dept}')"))
                .unwrap();
        }
    }
    for k in 0..4i64 {
        let size = 1 + lcg.below(2);
        for _ in 0..size {
            let tag = TAGS[lcg.below(3) as usize];
            db.insert_parsed(&format!("S({k}, '{tag}')")).unwrap();
        }
    }
    db.insert_parsed("Log('audit')").unwrap();
    (db, keys)
}

/// The fixed query battery; constants come from the generator pools so
/// hit rates are non-trivial on every workload.
const QUERIES: [&str; 5] = [
    "EXISTS n, d . R(0, n, d)",
    "EXISTS n . R(1, n, 'it')",
    "R(0, 'ann', 'hr') OR R(2, 'bob', 'it') OR (EXISTS t . S(1, t))",
    "EXISTS k, n . R(k, n, 'it') AND S(k, 'x')",
    "(EXISTS n . R(3, n, 'hr')) AND (EXISTS t . S(0, t)) AND Log('audit')",
];

/// Queries whose seeded estimates are part of the golden record.
const ESTIMATE_QUERIES: [usize; 2] = [2, 3];
const ESTIMATE_SEEDS: [u64; 2] = [9, 77];

fn approx_request(q: &Query, seed: u64) -> CountRequest {
    CountRequest::approximate(q.clone(), 0.4, 0.1)
        .with_seed(seed)
        .with_sample_cap(400)
}

/// Renders every tracked answer of one engine state, one line per fact.
fn render_engine(out: &mut String, tag: &str, engine: &RepairEngine, queries: &[Query]) {
    use std::fmt::Write as _;
    writeln!(out, "{tag} total {}", engine.total_repairs()).unwrap();
    for (i, q) in queries.iter().enumerate() {
        let exact = engine.run(&CountRequest::exact(q.clone())).unwrap();
        let freq = engine.run(&CountRequest::frequency(q.clone())).unwrap();
        let some = engine.run(&CountRequest::decision(q.clone())).unwrap();
        let every = engine
            .run(&CountRequest::certain_answer(q.clone()))
            .unwrap();
        writeln!(
            out,
            "{tag} q{i} exact {} freq {} some {} every {}",
            exact.answer.as_count().unwrap(),
            freq.answer.as_frequency().unwrap(),
            some.answer.as_bool().unwrap(),
            every.answer.as_bool().unwrap(),
        )
        .unwrap();
    }
    for &qi in &ESTIMATE_QUERIES {
        for &seed in &ESTIMATE_SEEDS {
            for (label, strategy) in [
                ("fpras", EngineStrategy::Auto),
                ("kl", EngineStrategy::KarpLuby),
            ] {
                let report = engine
                    .run(&approx_request(&queries[qi], seed).with_strategy(strategy))
                    .unwrap();
                let est = report.answer.as_estimate().unwrap();
                writeln!(
                    out,
                    "{tag} q{qi} {label} seed {seed} est {} pos {} used {}",
                    est.estimate, est.positive_samples, est.samples_used,
                )
                .unwrap();
            }
        }
    }
}

/// The scripted mutation phase: two inserts and one delete, applied
/// through the engine so the incremental partition/total paths are the
/// ones being recorded.
fn mutate(engine: &mut RepairEngine) {
    for text in ["R(0, 'eve', 'ops')", "S(0, 'z')"] {
        let fact = engine.database().parse_fact(text).unwrap();
        engine.apply(Mutation::Insert(fact)).unwrap();
    }
    let rel = engine.database().schema().relation_id("R").unwrap();
    let victim = engine.database().facts_of(rel)[0];
    engine.apply(Mutation::Delete(victim)).unwrap();
}

fn render_goldens() -> String {
    let mut out = String::new();
    for seed in [3u64, 11, 29, 54, 90] {
        let (db, keys) = workload(seed);
        let queries: Vec<Query> = QUERIES.iter().map(|t| parse_query(t).unwrap()).collect();
        let mut engine = RepairEngine::new(db, keys);
        render_engine(&mut out, &format!("w{seed}"), &engine, &queries);
        mutate(&mut engine);
        render_engine(&mut out, &format!("w{seed}m"), &engine, &queries);
    }
    out
}

#[test]
fn reports_match_the_pre_refactor_golden_record() {
    let rendered = render_goldens();
    if rendered != GOLDEN {
        let golden_lines: Vec<&str> = GOLDEN.lines().collect();
        for (i, line) in rendered.lines().enumerate() {
            let expected = golden_lines.get(i).copied().unwrap_or("<missing>");
            assert_eq!(
                line, expected,
                "first divergence from the pre-refactor record at line {i}"
            );
        }
        panic!("rendered output is a prefix of the golden record but shorter");
    }
}

/// Compaction is a pure renaming: dropping tombstones, remapping fact
/// ids onto a dense prefix and renumbering block slots in `≺` order must
/// leave every tracked answer — exact counts, decisions, certain
/// answers, frequencies and **seeded** KL/FPRAS estimates — byte-for-byte
/// identical.  Render the full battery on the mutated engine (non-dense
/// ids, a retired slot from the delete), compact, render again with the
/// same tag: the two blocks must be equal strings.
#[test]
fn compaction_preserves_every_report_bit_for_bit() {
    for seed in [3u64, 11, 29, 54, 90] {
        let (db, keys) = workload(seed);
        let queries: Vec<Query> = QUERIES.iter().map(|t| parse_query(t).unwrap()).collect();
        let mut engine = RepairEngine::new(db, keys);
        mutate(&mut engine);
        let mut before = String::new();
        render_engine(&mut before, "c", &engine, &queries);
        let outcome = engine.compact();
        assert!(
            outcome.report.ids_reclaimed() > 0,
            "the delete left a tombstone"
        );
        assert!(outcome.total_cross_checked, "∏ |Bᵢ| cross-check");
        let mut after = String::new();
        render_engine(&mut after, "c", &engine, &queries);
        assert_eq!(before, after, "seed {seed}: compaction changed an answer");
    }
}

/// Sanity for the battery itself: the boxes-strategy counts in the golden
/// record agree with exhaustive repair enumeration, before and after the
/// mutation phase.
#[test]
fn golden_workloads_agree_with_enumeration() {
    for seed in [3u64, 11, 29, 54, 90] {
        let (db, keys) = workload(seed);
        let queries: Vec<Query> = QUERIES.iter().map(|t| parse_query(t).unwrap()).collect();
        let mut engine = RepairEngine::new(db, keys);
        mutate(&mut engine);
        for q in &queries {
            let by_engine = engine
                .run(&CountRequest::exact(q.clone()))
                .unwrap()
                .answer
                .as_count()
                .unwrap()
                .clone();
            let direct =
                count_by_enumeration(engine.database(), engine.keys(), q, u64::MAX).unwrap();
            assert_eq!(by_engine, direct, "seed {seed}, query {q}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random workloads: the certificate/box union counter and exhaustive
    /// enumeration agree, and engine-cached estimators reproduce fresh
    /// estimators sample-for-sample (same blocks, same seeds, same
    /// drawing order).
    #[test]
    fn random_workloads_are_internally_consistent(seed in 0u64..1_000_000) {
        let (db, keys) = workload(seed);
        let queries: Vec<Query> = QUERIES.iter().map(|t| parse_query(t).unwrap()).collect();
        let engine = RepairEngine::new(db.clone(), keys.clone());
        for q in &queries {
            let by_engine = engine
                .run(&CountRequest::exact(q.clone()))
                .unwrap()
                .answer
                .as_count()
                .unwrap()
                .clone();
            let direct = count_by_enumeration(&db, &keys, q, u64::MAX).unwrap();
            prop_assert_eq!(&by_engine, &direct, "boxes vs enumeration for {}", q);
        }
        let q = &queries[ESTIMATE_QUERIES[0]];
        let ucq = rewrite_to_ucq(q).unwrap();
        let config = ApproxConfig {
            epsilon: 0.4,
            delta: 0.1,
            max_samples: 400,
            seed: seed ^ 0xA5A5,
        };
        let fresh_fpras = FprasEstimator::new(&db, &keys, &ucq).unwrap().estimate(&config).unwrap();
        let fresh_kl = KarpLubyEstimator::new(&db, &keys, &ucq).unwrap().estimate(&config).unwrap();
        let via_engine_fpras = engine
            .run(&approx_request(q, config.seed))
            .unwrap();
        let via_engine_kl = engine
            .run(&approx_request(q, config.seed).with_strategy(EngineStrategy::KarpLuby))
            .unwrap();
        let engine_fpras = via_engine_fpras.answer.as_estimate().unwrap();
        let engine_kl = via_engine_kl.answer.as_estimate().unwrap();
        prop_assert_eq!(&fresh_fpras.estimate, &engine_fpras.estimate);
        prop_assert_eq!(fresh_fpras.positive_samples, engine_fpras.positive_samples);
        prop_assert_eq!(&fresh_kl.estimate, &engine_kl.estimate);
        prop_assert_eq!(fresh_kl.positive_samples, engine_kl.positive_samples);
    }

}

/// Prints the golden block; run ignored with `--nocapture` to refresh
/// `GOLDEN` after an intentional semantic change.
#[test]
#[ignore = "regenerates the golden record; run with --nocapture and paste"]
fn regenerate_goldens() {
    println!("=== GOLDEN BEGIN ===");
    print!("{}", render_goldens());
    println!("=== GOLDEN END ===");
}

/// Recorded on the pre-refactor tree (see module docs).
const GOLDEN: &str = "\
w3 total 72\n\
w3 q0 exact 72 freq 1 some true every true\n\
w3 q1 exact 48 freq 2/3 some true every false\n\
w3 q2 exact 72 freq 1 some true every true\n\
w3 q3 exact 36 freq 1/2 some true every false\n\
w3 q4 exact 36 freq 1/2 some true every false\n\
w3 q2 fpras seed 9 est 72 pos 135 used 135\n\
w3 q2 kl seed 9 est 72 pos 45 used 45\n\
w3 q2 fpras seed 77 est 72 pos 135 used 135\n\
w3 q2 kl seed 77 est 72 pos 45 used 45\n\
w3 q3 fpras seed 9 est 36 pos 202 used 400\n\
w3 q3 kl seed 9 est 36 pos 45 used 45\n\
w3 q3 fpras seed 77 est 35 pos 196 used 400\n\
w3 q3 kl seed 77 est 36 pos 45 used 45\n\
w3m total 72\n\
w3m q0 exact 72 freq 1 some true every true\n\
w3m q1 exact 48 freq 2/3 some true every false\n\
w3m q2 exact 72 freq 1 some true every true\n\
w3m q3 exact 36 freq 1/2 some true every false\n\
w3m q4 exact 36 freq 1/2 some true every false\n\
w3m q2 fpras seed 9 est 72 pos 135 used 135\n\
w3m q2 kl seed 9 est 72 pos 45 used 45\n\
w3m q2 fpras seed 77 est 72 pos 135 used 135\n\
w3m q2 kl seed 77 est 72 pos 45 used 45\n\
w3m q3 fpras seed 9 est 36 pos 202 used 400\n\
w3m q3 kl seed 9 est 36 pos 45 used 45\n\
w3m q3 fpras seed 77 est 35 pos 196 used 400\n\
w3m q3 kl seed 77 est 36 pos 45 used 45\n\
w11 total 48\n\
w11 q0 exact 48 freq 1 some true every true\n\
w11 q1 exact 32 freq 2/3 some true every false\n\
w11 q2 exact 48 freq 1 some true every true\n\
w11 q3 exact 32 freq 2/3 some true every false\n\
w11 q4 exact 0 freq 0 some false every false\n\
w11 q2 fpras seed 9 est 48 pos 135 used 135\n\
w11 q2 kl seed 9 est 54 pos 67 used 90\n\
w11 q2 fpras seed 77 est 48 pos 135 used 135\n\
w11 q2 kl seed 77 est 42 pos 53 used 90\n\
w11 q3 fpras seed 9 est 31 pos 262 used 400\n\
w11 q3 kl seed 9 est 32 pos 90 used 90\n\
w11 q3 fpras seed 77 est 34 pos 281 used 400\n\
w11 q3 kl seed 77 est 32 pos 90 used 90\n\
w11m total 48\n\
w11m q0 exact 48 freq 1 some true every true\n\
w11m q1 exact 32 freq 2/3 some true every false\n\
w11m q2 exact 48 freq 1 some true every true\n\
w11m q3 exact 32 freq 2/3 some true every false\n\
w11m q4 exact 0 freq 0 some false every false\n\
w11m q2 fpras seed 9 est 48 pos 135 used 135\n\
w11m q2 kl seed 9 est 54 pos 67 used 90\n\
w11m q2 fpras seed 77 est 48 pos 135 used 135\n\
w11m q2 kl seed 77 est 42 pos 53 used 90\n\
w11m q3 fpras seed 9 est 31 pos 262 used 400\n\
w11m q3 kl seed 9 est 32 pos 90 used 90\n\
w11m q3 fpras seed 77 est 34 pos 281 used 400\n\
w11m q3 kl seed 77 est 32 pos 90 used 90\n\
w29 total 24\n\
w29 q0 exact 24 freq 1 some true every true\n\
w29 q1 exact 0 freq 0 some false every false\n\
w29 q2 exact 24 freq 1 some true every true\n\
w29 q3 exact 0 freq 0 some false every false\n\
w29 q4 exact 24 freq 1 some true every true\n\
w29 q2 fpras seed 9 est 24 pos 135 used 135\n\
w29 q2 kl seed 9 est 22 pos 42 used 90\n\
w29 q2 fpras seed 77 est 24 pos 135 used 135\n\
w29 q2 kl seed 77 est 21 pos 39 used 90\n\
w29 q3 fpras seed 9 est 0 pos 0 used 0\n\
w29 q3 kl seed 9 est 0 pos 0 used 0\n\
w29 q3 fpras seed 77 est 0 pos 0 used 0\n\
w29 q3 kl seed 77 est 0 pos 0 used 0\n\
w29m total 48\n\
w29m q0 exact 48 freq 1 some true every true\n\
w29m q1 exact 0 freq 0 some false every false\n\
w29m q2 exact 48 freq 1 some true every true\n\
w29m q3 exact 0 freq 0 some false every false\n\
w29m q4 exact 48 freq 1 some true every true\n\
w29m q2 fpras seed 9 est 48 pos 135 used 135\n\
w29m q2 kl seed 9 est 45 pos 42 used 90\n\
w29m q2 fpras seed 77 est 48 pos 135 used 135\n\
w29m q2 kl seed 77 est 42 pos 39 used 90\n\
w29m q3 fpras seed 9 est 0 pos 0 used 0\n\
w29m q3 kl seed 9 est 0 pos 0 used 0\n\
w29m q3 fpras seed 77 est 0 pos 0 used 0\n\
w29m q3 kl seed 77 est 0 pos 0 used 0\n\
w54 total 2\n\
w54 q0 exact 2 freq 1 some true every true\n\
w54 q1 exact 2 freq 1 some true every true\n\
w54 q2 exact 2 freq 1 some true every true\n\
w54 q3 exact 1 freq 1/2 some true every false\n\
w54 q4 exact 1 freq 1/2 some true every false\n\
w54 q2 fpras seed 9 est 2 pos 90 used 90\n\
w54 q2 kl seed 9 est 2 pos 45 used 45\n\
w54 q2 fpras seed 77 est 2 pos 90 used 90\n\
w54 q2 kl seed 77 est 2 pos 45 used 45\n\
w54 q3 fpras seed 9 est 1 pos 98 used 180\n\
w54 q3 kl seed 9 est 1 pos 45 used 45\n\
w54 q3 fpras seed 77 est 1 pos 82 used 180\n\
w54 q3 kl seed 77 est 1 pos 45 used 45\n\
w54m total 2\n\
w54m q0 exact 2 freq 1 some true every true\n\
w54m q1 exact 2 freq 1 some true every true\n\
w54m q2 exact 2 freq 1 some true every true\n\
w54m q3 exact 1 freq 1/2 some true every false\n\
w54m q4 exact 1 freq 1/2 some true every false\n\
w54m q2 fpras seed 9 est 2 pos 90 used 90\n\
w54m q2 kl seed 9 est 2 pos 45 used 45\n\
w54m q2 fpras seed 77 est 2 pos 90 used 90\n\
w54m q2 kl seed 77 est 2 pos 45 used 45\n\
w54m q3 fpras seed 9 est 1 pos 98 used 180\n\
w54m q3 kl seed 9 est 1 pos 45 used 45\n\
w54m q3 fpras seed 77 est 1 pos 82 used 180\n\
w54m q3 kl seed 77 est 1 pos 45 used 45\n\
w90 total 16\n\
w90 q0 exact 16 freq 1 some true every true\n\
w90 q1 exact 0 freq 0 some false every false\n\
w90 q2 exact 16 freq 1 some true every true\n\
w90 q3 exact 16 freq 1 some true every true\n\
w90 q4 exact 0 freq 0 some false every false\n\
w90 q2 fpras seed 9 est 16 pos 90 used 90\n\
w90 q2 kl seed 9 est 16 pos 45 used 45\n\
w90 q2 fpras seed 77 est 16 pos 90 used 90\n\
w90 q2 kl seed 77 est 16 pos 45 used 45\n\
w90 q3 fpras seed 9 est 16 pos 180 used 180\n\
w90 q3 kl seed 9 est 16 pos 89 used 135\n\
w90 q3 fpras seed 77 est 16 pos 180 used 180\n\
w90 q3 kl seed 77 est 16 pos 89 used 135\n\
w90m total 16\n\
w90m q0 exact 16 freq 1 some true every true\n\
w90m q1 exact 0 freq 0 some false every false\n\
w90m q2 exact 16 freq 1 some true every true\n\
w90m q3 exact 16 freq 1 some true every true\n\
w90m q4 exact 0 freq 0 some false every false\n\
w90m q2 fpras seed 9 est 16 pos 90 used 90\n\
w90m q2 kl seed 9 est 16 pos 45 used 45\n\
w90m q2 fpras seed 77 est 16 pos 90 used 90\n\
w90m q2 kl seed 77 est 16 pos 45 used 45\n\
w90m q3 fpras seed 9 est 16 pos 180 used 180\n\
w90m q3 kl seed 9 est 17 pos 77 used 90\n\
w90m q3 fpras seed 77 est 16 pos 180 used 180\n\
w90m q3 kl seed 77 est 16 pos 71 used 90\n\
";
