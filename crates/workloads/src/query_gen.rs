//! Random queries grounded in a generated database.

use cdr_query::{parse_query, Query};
use cdr_repairdb::{Database, KeySet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of the random query generators.
#[derive(Clone, Debug)]
pub struct QueryGenConfig {
    /// Number of atoms in a join query / disjuncts in a union query.
    pub size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig { size: 2, seed: 1 }
    }
}

/// Builds a Boolean join query over the keyed relations of `db`: `size`
/// atoms, each fixing a key constant drawn from the database and joining
/// the payload columns through a shared variable.
///
/// The generated query has keywidth `size` (one keyed atom per key
/// constant) and is guaranteed to mention keys that actually occur in the
/// database, so certificates are likely (not guaranteed) to exist.
pub fn random_join_query(db: &Database, keys: &KeySet, config: &QueryGenConfig) -> Query {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let keyed: Vec<_> = db
        .schema()
        .iter()
        .filter(|(id, _)| keys.has_key(*id))
        .map(|(id, info)| (id, info.clone()))
        .collect();
    if keyed.is_empty() || db.is_empty() {
        return parse_query("TRUE").expect("constant query");
    }
    let mut atoms = Vec::new();
    for i in 0..config.size.max(1) {
        let (rel_id, info) = &keyed[rng.gen_range(0..keyed.len())];
        let facts = db.facts_of(*rel_id);
        if facts.is_empty() {
            continue;
        }
        let fact = db.fact(facts[rng.gen_range(0..facts.len())]);
        // Key columns become the fact's constants; payload columns become a
        // shared variable `v` (for joins) or fresh variables.
        let width = keys.key_width(*rel_id).unwrap_or(info.arity());
        let mut terms = Vec::new();
        for (col, value) in fact.args().iter().enumerate() {
            if col < width {
                terms.push(value.to_string());
            } else if col == width && config.size > 1 {
                terms.push("shared".to_string());
            } else {
                terms.push(format!("w{i}_{col}"));
            }
        }
        atoms.push(format!("{}({})", info.name(), terms.join(", ")));
    }
    if atoms.is_empty() {
        return parse_query("TRUE").expect("constant query");
    }
    let text = atoms.join(" AND ");
    parse_query(&text).expect("generated query is syntactically valid")
}

/// Builds a union of `size` point queries, each asking for one concrete
/// fact drawn from the database.  The result is a UCQ whose disjuncts have
/// keywidth 1 (or 0 for unkeyed relations).
pub fn random_point_query_union(db: &Database, config: &QueryGenConfig) -> Query {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    if db.is_empty() {
        return parse_query("FALSE").expect("constant query");
    }
    let all: Vec<_> = db.iter().collect();
    let mut disjuncts = Vec::new();
    for _ in 0..config.size.max(1) {
        let (_, fact) = all[rng.gen_range(0..all.len())];
        let name = db.schema().name(fact.relation());
        let terms: Vec<String> = fact.args().iter().map(|v| v.to_string()).collect();
        disjuncts.push(format!("{name}({})", terms.join(", ")));
    }
    let text = disjuncts.join(" OR ");
    parse_query(&text).expect("generated query is syntactically valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db_gen::{BlockSizeDistribution, InconsistentDbConfig, RelationSpec};
    use cdr_core::{CountRequest, RepairEngine, Strategy};
    use cdr_query::keywidth;

    fn generated() -> (Database, KeySet) {
        InconsistentDbConfig {
            relations: vec![RelationSpec::keyed("R", 6), RelationSpec::keyed("S", 6)],
            block_sizes: BlockSizeDistribution::Fixed(2),
            payload_domain: 4,
            seed: 5,
        }
        .generate()
    }

    #[test]
    fn join_queries_are_positive_and_have_the_requested_keywidth() {
        let (db, keys) = generated();
        for size in 1..=3 {
            let q = random_join_query(&db, &keys, &QueryGenConfig { size, seed: 42 });
            assert!(q.is_positive_existential());
            assert!(keywidth(&q, db.schema(), &keys) <= size);
            assert!(!q.atoms().is_empty());
        }
    }

    #[test]
    fn point_query_unions_are_countable_and_consistent_across_strategies() {
        let (db, keys) = generated();
        let engine = RepairEngine::new(db.clone(), keys);
        for seed in 0..5u64 {
            let q = random_point_query_union(&db, &QueryGenConfig { size: 3, seed });
            let count = |strategy| {
                let request = CountRequest::exact(q.clone()).with_strategy(strategy);
                engine
                    .run(&request)
                    .unwrap()
                    .answer
                    .as_count()
                    .unwrap()
                    .clone()
            };
            assert_eq!(
                count(Strategy::CertificateBoxes),
                count(Strategy::Enumeration),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let (db, keys) = generated();
        let config = QueryGenConfig { size: 2, seed: 9 };
        assert_eq!(
            random_join_query(&db, &keys, &config).to_string(),
            random_join_query(&db, &keys, &config).to_string()
        );
        assert_eq!(
            random_point_query_union(&db, &config).to_string(),
            random_point_query_union(&db, &config).to_string()
        );
    }

    #[test]
    fn empty_databases_yield_constant_queries() {
        let (db, keys) = InconsistentDbConfig {
            relations: vec![RelationSpec::keyed("R", 0)],
            block_sizes: BlockSizeDistribution::Fixed(1),
            payload_domain: 1,
            seed: 1,
        }
        .generate();
        let q = random_join_query(&db, &keys, &QueryGenConfig::default());
        assert_eq!(q.to_string(), "TRUE");
        let q = random_point_query_union(&db, &QueryGenConfig::default());
        assert_eq!(q.to_string(), "FALSE");
    }
}
