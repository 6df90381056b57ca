//! Parity suite for the [`RepairEngine`]: every report the engine produces
//! must agree with the direct, cache-free algorithm entry points
//! (`count_by_enumeration`, `count_repairs`, `keywidth`,
//! `FprasEstimator`), and every exact strategy, automatic or forced, must
//! give the enumerated count and decision. Checked on the named scenarios
//! and, property-style, on random `db_gen`/`query_gen` instances.

use proptest::prelude::*;
use repair_count::counting::{count_by_enumeration, FprasEstimator, Strategy as EngineStrategy};
use repair_count::db::{count_repairs, BlockPartition};
use repair_count::prelude::*;
use repair_count::query::{keywidth, max_disjunct_keywidth, rewrite_to_ucq};
use repair_count::workloads::{
    employee_example, random_join_query, random_point_query_union, two_source_customers,
    BlockSizeDistribution, InconsistentDbConfig, QueryGenConfig, RelationSpec,
};

/// Asserts that every engine semantics agrees with the direct algorithms
/// on one (database, keys, query) instance.
fn assert_engine_parity(db: &Database, keys: &KeySet, q: &Query) {
    let engine = RepairEngine::new(db.clone(), keys.clone());
    let run = |request: CountRequest| engine.run(&request).unwrap().answer;

    // The precomputed total vs a fresh product over the blocks.
    let total = engine.total_repairs().clone();
    assert_eq!(total, count_repairs(&BlockPartition::new(db, keys)));

    // Exact count and decision, under every exact strategy, vs the direct
    // enumeration machine. The decision leg checks the Theorem 3.2
    // witness search against the Lemma 3.5 certificate test.
    let direct = count_by_enumeration(db, keys, q, u64::MAX).unwrap();
    for strategy in [
        EngineStrategy::Auto,
        EngineStrategy::Enumeration,
        EngineStrategy::CertificateBoxes,
    ] {
        let count = run(CountRequest::exact(q.clone()).with_strategy(strategy));
        assert_eq!(
            count.as_count(),
            Some(&direct),
            "exact {strategy:?} vs enumeration for {q}"
        );
        let some = run(CountRequest::decision(q.clone()).with_strategy(strategy));
        assert_eq!(
            some.as_bool(),
            Some(!direct.is_zero()),
            "decision {strategy:?} vs count for {q}"
        );
    }

    // Frequency and certain answer vs their counting definitions.
    let freq = run(CountRequest::frequency(q.clone()));
    assert_eq!(
        freq.as_frequency(),
        Some(&Ratio::new(direct.clone(), total.clone())),
        "frequency for {q}"
    );
    let every = run(CountRequest::certain_answer(q.clone()));
    assert_eq!(
        every.as_bool(),
        Some(direct == total),
        "certain answer vs count for {q}"
    );

    // Keywidth and disjunct keywidth vs the query crate's.
    let ucq = rewrite_to_ucq(q).unwrap();
    assert_eq!(engine.keywidth(q), keywidth(q, db.schema(), keys));
    assert_eq!(
        engine.disjunct_keywidth(q).unwrap(),
        max_disjunct_keywidth(&ucq, db.schema(), keys)
    );

    // CountRequest::approximate must match a directly-constructed
    // FprasEstimator with the same seed.
    let config = ApproxConfig {
        epsilon: 0.2,
        delta: 0.05,
        seed: 1234,
        ..ApproxConfig::default()
    };
    let direct_estimate = FprasEstimator::new(db, keys, &ucq)
        .unwrap()
        .estimate(&config)
        .unwrap();
    let engine_estimate = run(
        CountRequest::approximate(q.clone(), config.epsilon, config.delta).with_seed(config.seed),
    );
    let engine_estimate = engine_estimate.as_estimate().unwrap();
    assert_eq!(
        engine_estimate.estimate, direct_estimate.estimate,
        "engine vs direct FPRAS for {q}"
    );
    assert_eq!(engine_estimate.samples_used, direct_estimate.samples_used);
}

#[test]
fn employee_scenario_parity() {
    let (db, keys) = employee_example();
    for text in [
        "EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)",
        "EXISTS n . Employee(2, n, 'IT')",
        "Employee(1, 'Bob', 'HR')",
        "Employee(1, 'Bob', 'HR') OR Employee(2, 'Tim', 'IT')",
        "Employee(1, 'Bob', 'HR') AND Employee(2, 'Tim', 'IT')",
        "Employee(1, 'Bob', 'HR') AND Employee(1, 'Bob', 'IT')",
        "EXISTS n, d . Employee(3, n, d)",
        "TRUE",
        "FALSE",
    ] {
        let q = parse_query(text).unwrap();
        assert_engine_parity(&db, &keys, &q);
    }
}

#[test]
fn two_source_customers_scenario_parity() {
    let (db, keys) = two_source_customers(8, 2);
    for text in [
        "Customer(0, c, 'dormant')",
        "EXISTS c, d . Customer(0, c, 'dormant') AND Customer(2, d, 'dormant')",
        "Customer(0, c, 'dormant') OR Customer(4, d, 'active')",
        "EXISTS id, c . Customer(id, c, 'dormant') AND Order(1000, 0, 10)",
    ] {
        let q = parse_query(text).unwrap();
        assert_engine_parity(&db, &keys, &q);
    }
}

#[test]
fn cache_hits_skip_replanning_but_preserve_answers() {
    let (db, keys) = two_source_customers(10, 2);
    let engine = RepairEngine::new(db, keys);
    let q = parse_query("Customer(0, c, 'dormant') OR Customer(2, d, 'dormant')").unwrap();
    let cold = engine.run(&CountRequest::exact(q.clone())).unwrap();
    assert!(!cold.plan_cached);
    for _ in 0..5 {
        let warm = engine.run(&CountRequest::exact(q.clone())).unwrap();
        assert!(warm.plan_cached);
        assert_eq!(
            warm.answer.as_count().unwrap(),
            cold.answer.as_count().unwrap()
        );
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1, "exactly one planning pass");
    assert_eq!(stats.hits, 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: engine reports agree with the direct algorithms on random
    /// databases and point-query unions.
    #[test]
    fn prop_engine_parity_on_point_unions(seed in 0u64..1000, blocks in 2usize..5, size in 1usize..4) {
        let (db, keys) = InconsistentDbConfig {
            relations: vec![RelationSpec::keyed("R", blocks), RelationSpec::keyed("S", blocks)],
            block_sizes: BlockSizeDistribution::Fixed(2),
            payload_domain: 4,
            seed,
        }
        .generate();
        let q = random_point_query_union(&db, &QueryGenConfig { size, seed });
        assert_engine_parity(&db, &keys, &q);
    }

    /// Property: same parity on random join queries over skewed blocks.
    #[test]
    fn prop_engine_parity_on_joins(seed in 0u64..1000, blocks in 2usize..5) {
        let (db, keys) = InconsistentDbConfig {
            relations: vec![RelationSpec::keyed("R", blocks)],
            block_sizes: BlockSizeDistribution::Uniform { min: 1, max: 3 },
            payload_domain: 5,
            seed,
        }
        .generate();
        let q = random_join_query(&db, &keys, &QueryGenConfig { size: 2, seed });
        assert_engine_parity(&db, &keys, &q);
    }
}
