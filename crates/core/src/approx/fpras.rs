//! The paper's FPRAS (Theorem 6.2, Corollary 6.4).
//!
//! The estimator samples from the *natural* sample space
//! `U = S₁ × ⋯ × Sₙ`: Algorithm 3 draws a uniform tuple and reports whether
//! some box covers it; `Apx_f` averages
//! `t = ⌈(2+ε)·mᵏ/ε² · ln(2/δ)⌉` such Bernoulli draws and scales by `|U|`.
//! The analysis hinges on `f(x)/|U| ≥ 1/mᵏ`, which holds because any single
//! certificate already witnesses `∏_{i>ℓ} |Sᵢ|` tuples (see the proof of
//! Theorem 6.2); `m` is the maximum domain size and `k` bounds the number
//! of domains a certificate can pin.
//!
//! There is one estimator and two ways to build it.  For `#CQA` (Corollary
//! 6.4) the domains are the blocks `B₁, …, Bₙ`, so `U` is the set of all
//! repairs, the boxes are the certificates' selector boxes and `k` is the
//! disjunct keywidth ([`FprasEstimator::new`]).  For any other function in
//! Λ\[k\] the domains and boxes are a compactor's
//! ([`FprasEstimator::over_domains`]).

use std::sync::Arc;

use cdr_num::BigNat;
use cdr_query::{max_disjunct_keywidth, UcqQuery};
use cdr_repairdb::{count_repairs, BlockPartition, Database, KeySet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::approx::{covers, scale_by_fraction, ApproxConfig, ApproxCount, DomainSampler};
use crate::exact::{domain_product, slot_boxes};
use crate::{distinct_boxes, enumerate_certificates, CountError, GenericBox, SelectorBox};

/// The FPRAS of Theorem 6.2, for `#CQA(Q, Σ)` as in Corollary 6.4 or for
/// any compactor's boxes.
///
/// ```
/// use cdr_core::{ApproxConfig, FprasEstimator};
/// use cdr_query::{parse_query, rewrite_to_ucq};
/// use cdr_repairdb::{Database, KeySet, Schema};
///
/// let mut schema = Schema::new();
/// schema.add_relation("Employee", 3).unwrap();
/// let keys = KeySet::builder(&schema).key("Employee", 1).unwrap().build();
/// let mut db = Database::new(schema);
/// db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
/// db.insert_parsed("Employee(1, 'Bob', 'IT')").unwrap();
/// db.insert_parsed("Employee(2, 'Alice', 'IT')").unwrap();
/// db.insert_parsed("Employee(2, 'Tim', 'IT')").unwrap();
///
/// let q = parse_query("EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap();
/// let ucq = rewrite_to_ucq(&q).unwrap();
/// let estimator = FprasEstimator::new(&db, &keys, &ucq).unwrap();
/// let outcome = estimator.estimate(&ApproxConfig::default()).unwrap();
/// // The exact answer is 2 (out of 4 repairs); ε = 0.1 keeps us within ±0.2.
/// let estimate = outcome.estimate.to_u64().unwrap();
/// assert!(estimate >= 1 && estimate <= 3);
/// ```
pub struct FprasEstimator {
    boxes: Vec<GenericBox>,
    /// The uniform-tuple sampler (for `#CQA`, shared with every estimator
    /// over the same partition generation).
    sampler: Arc<DomainSampler>,
    /// `m`: the maximum domain size.
    max_domain_size: usize,
    /// `k`: the maximum number of domains a box can pin.
    keywidth: usize,
    /// `|U| = ∏ |Sᵢ|`.
    total: BigNat,
}

impl FprasEstimator {
    /// Prepares the estimator: computes the block partition, the
    /// certificates of the query and their selector boxes.
    ///
    /// The preprocessing is polynomial in the size of the database for a
    /// fixed query, as the FPRAS requires.
    pub fn new(db: &Database, keys: &KeySet, ucq: &UcqQuery) -> Result<Self, CountError> {
        let blocks = BlockPartition::new(db, keys);
        let certificates = enumerate_certificates(db, keys, &blocks, ucq)?;
        let boxes = distinct_boxes(&certificates);
        let total_repairs = count_repairs(&blocks);
        let sampler = Arc::new(DomainSampler::over_partition(&blocks));
        Ok(FprasEstimator::from_parts(
            Arc::new(blocks),
            Arc::new(boxes),
            sampler,
            max_disjunct_keywidth(ucq, db.schema(), keys),
            total_repairs,
        ))
    }

    /// Builds the estimator from artifacts an engine has already computed,
    /// skipping the block/certificate recomputation of [`FprasEstimator::new`].
    pub(crate) fn from_parts(
        blocks: Arc<BlockPartition>,
        boxes: Arc<Vec<SelectorBox>>,
        sampler: Arc<DomainSampler>,
        keywidth: usize,
        total_repairs: BigNat,
    ) -> Self {
        FprasEstimator {
            boxes: slot_boxes(&blocks, &boxes),
            sampler,
            max_domain_size: blocks.max_block_size().max(1),
            keywidth,
            total: total_repairs,
        }
    }

    /// Prepares the estimator over `S₁ × ⋯ × Sₙ` with `|Sᵢ| =
    /// domain_sizes[i]`, for boxes that pin at most `k` domains each (the
    /// output boxes of a `k`-compactor).
    pub fn over_domains(domain_sizes: &[usize], boxes: Vec<GenericBox>, k: usize) -> Self {
        FprasEstimator {
            boxes,
            sampler: Arc::new(DomainSampler::over_domains(domain_sizes)),
            max_domain_size: domain_sizes.iter().copied().max().unwrap_or(1).max(1),
            keywidth: k,
            total: domain_product(domain_sizes),
        }
    }

    /// The sample-space size `|U| = ∏ |Sᵢ|` (for `#CQA`, the total number
    /// of repairs).
    pub fn sample_space_size(&self) -> &BigNat {
        &self.total
    }

    /// The number of certificate boxes the membership test uses.
    pub fn box_count(&self) -> usize {
        self.boxes.len()
    }

    /// The theoretical sample size `t = ⌈(2+ε)·mᵏ/ε² · ln(2/δ)⌉`.
    ///
    /// Saturates at `u64::MAX` for extreme parameters.
    pub fn required_samples(&self, config: &ApproxConfig) -> Result<u64, CountError> {
        config.validate()?;
        let m = self.max_domain_size as f64;
        let k = self.keywidth as f64;
        let eps = config.epsilon;
        let delta = config.delta;
        let t = (2.0 + eps) * m.powf(k) / (eps * eps) * (2.0 / delta).ln();
        if !t.is_finite() || t >= u64::MAX as f64 {
            return Ok(u64::MAX);
        }
        Ok(t.ceil().max(1.0) as u64)
    }

    /// Runs the FPRAS and returns the estimate.
    ///
    /// Degenerate cases short-circuit to an exact answer: no boxes (for
    /// `#CQA`, no certificates) or an empty sample space means count 0,
    /// and an unconstrained box (a disjunct with no keyed atoms mapped
    /// into `D`) covers every tuple.
    pub fn estimate(&self, config: &ApproxConfig) -> Result<ApproxCount, CountError> {
        config.validate()?;
        if self.boxes.is_empty() || self.total.is_zero() {
            return Ok(ApproxCount::exact_value(BigNat::zero(), self.total.clone()));
        }
        if self.boxes.iter().any(GenericBox::is_empty) {
            return Ok(ApproxCount::exact_value(
                self.total.clone(),
                self.total.clone(),
            ));
        }
        let requested = self.required_samples(config)?;
        let samples = requested.min(config.max_samples).max(1);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut positives: u64 = 0;
        // One scratch tuple for the whole run: the sampling loop allocates
        // nothing.
        let mut tuple = self.sampler.tuple();
        for _ in 0..samples {
            self.sampler.sample_into(&mut rng, &mut tuple);
            if self.boxes.iter().any(|b| covers(b, &tuple)) {
                positives += 1;
            }
        }
        let (estimate, estimate_log) = scale_by_fraction(&self.total, positives, samples);
        Ok(ApproxCount {
            estimate,
            estimate_log,
            covered_fraction: positives as f64 / samples as f64,
            samples_requested: requested,
            samples_used: samples,
            positive_samples: positives,
            sample_space_size: self.total.clone(),
            exact: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::count_by_enumeration;
    use cdr_query::{parse_query, rewrite_to_ucq};
    use cdr_repairdb::Schema;

    fn employee() -> (Database, KeySet) {
        let mut schema = Schema::new();
        schema.add_relation("Employee", 3).unwrap();
        let keys = KeySet::builder(&schema).key("Employee", 1).unwrap().build();
        let mut db = Database::new(schema);
        db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
        db.insert_parsed("Employee(1, 'Bob', 'IT')").unwrap();
        db.insert_parsed("Employee(2, 'Alice', 'IT')").unwrap();
        db.insert_parsed("Employee(2, 'Tim', 'IT')").unwrap();
        (db, keys)
    }

    /// A moderately sized inconsistent database for accuracy checks: 8 keys,
    /// each with 3 conflicting department assignments.
    fn wide_db() -> (Database, KeySet) {
        let mut schema = Schema::new();
        schema.add_relation("Works", 2).unwrap();
        let keys = KeySet::builder(&schema).key("Works", 1).unwrap().build();
        let mut db = Database::new(schema);
        for k in 0..8i64 {
            for d in ["sales", "eng", "hr"] {
                db.insert_parsed(&format!("Works({k}, '{d}')")).unwrap();
            }
        }
        (db, keys)
    }

    #[test]
    fn sample_size_formula_matches_the_paper() {
        let (db, keys) = employee();
        let q = parse_query("EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let est = FprasEstimator::new(&db, &keys, &ucq).unwrap();
        // m = 2, k = 2.
        let config = ApproxConfig {
            epsilon: 0.5,
            delta: 0.1,
            ..ApproxConfig::default()
        };
        let expected = ((2.0 + 0.5) * 4.0 / 0.25 * (2.0f64 / 0.1).ln()).ceil() as u64;
        assert_eq!(est.required_samples(&config).unwrap(), expected);
        // Smaller epsilon needs more samples.
        let tighter = ApproxConfig {
            epsilon: 0.1,
            delta: 0.1,
            ..ApproxConfig::default()
        };
        assert!(est.required_samples(&tighter).unwrap() > expected);
        // Extreme parameters saturate instead of overflowing.
        let extreme = ApproxConfig {
            epsilon: 1e-9,
            delta: 1e-9,
            ..ApproxConfig::default()
        };
        assert_eq!(est.required_samples(&extreme).unwrap(), u64::MAX);
    }

    #[test]
    fn estimate_is_close_to_exact_on_the_example() {
        let (db, keys) = employee();
        let q = parse_query("EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let est = FprasEstimator::new(&db, &keys, &ucq).unwrap();
        let outcome = est.estimate(&ApproxConfig::default()).unwrap();
        let exact = count_by_enumeration(&db, &keys, &q, 1_000).unwrap();
        assert!(
            outcome.relative_error(&exact) <= 0.1,
            "estimate {} too far from exact {exact}",
            outcome.estimate
        );
        assert!(!outcome.exact);
        assert!(outcome.samples_used > 0);
        assert_eq!(outcome.sample_space_size.to_u64(), Some(4));
    }

    #[test]
    fn estimate_is_close_to_exact_on_a_wider_database() {
        let (db, keys) = wide_db();
        // Repairs where employee 0 is in sales or employee 1 is in eng.
        let q = parse_query("Works(0, 'sales') OR Works(1, 'eng')").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let est = FprasEstimator::new(&db, &keys, &ucq).unwrap();
        let config = ApproxConfig {
            epsilon: 0.1,
            delta: 0.05,
            ..ApproxConfig::default()
        };
        let outcome = est.estimate(&config).unwrap();
        let exact = count_by_enumeration(&db, &keys, &q, 10_000_000).unwrap();
        // 3^8 = 6561 repairs, exact = 6561 * (1 - (2/3)*(2/3)) = 3645.
        assert_eq!(exact.to_u64(), Some(3645));
        assert!(
            outcome.relative_error(&exact) <= config.epsilon,
            "estimate {} vs exact {exact}",
            outcome.estimate
        );
    }

    #[test]
    fn degenerate_queries_short_circuit() {
        let (db, keys) = employee();
        // No certificates at all.
        let ucq = rewrite_to_ucq(&parse_query("EXISTS n, d . Employee(9, n, d)").unwrap()).unwrap();
        let est = FprasEstimator::new(&db, &keys, &ucq).unwrap();
        let outcome = est.estimate(&ApproxConfig::default()).unwrap();
        assert!(outcome.exact);
        assert!(outcome.estimate.is_zero());
        assert_eq!(est.box_count(), 0);
        // Trivially true query: every repair entails it.
        let ucq = rewrite_to_ucq(&parse_query("TRUE").unwrap()).unwrap();
        let est = FprasEstimator::new(&db, &keys, &ucq).unwrap();
        let outcome = est.estimate(&ApproxConfig::default()).unwrap();
        assert!(outcome.exact);
        assert_eq!(outcome.estimate.to_u64(), Some(4));
        assert_eq!(est.sample_space_size().to_u64(), Some(4));
    }

    #[test]
    fn results_are_reproducible_for_a_fixed_seed() {
        let (db, keys) = wide_db();
        let q = parse_query("Works(0, 'sales') OR Works(1, 'eng')").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let est = FprasEstimator::new(&db, &keys, &ucq).unwrap();
        let config = ApproxConfig {
            epsilon: 0.3,
            seed: 42,
            ..ApproxConfig::default()
        };
        let a = est.estimate(&config).unwrap();
        let b = est.estimate(&config).unwrap();
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.positive_samples, b.positive_samples);
        let other_seed = ApproxConfig {
            seed: 43,
            ..config.clone()
        };
        let c = est.estimate(&other_seed).unwrap();
        // Different seed: same guarantees, typically different sample path.
        assert_eq!(a.samples_used, c.samples_used);
    }

    #[test]
    fn max_samples_cap_is_respected() {
        let (db, keys) = wide_db();
        let q = parse_query("Works(0, 'sales')").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let est = FprasEstimator::new(&db, &keys, &ucq).unwrap();
        let config = ApproxConfig {
            epsilon: 0.01,
            max_samples: 500,
            ..ApproxConfig::default()
        };
        let outcome = est.estimate(&config).unwrap();
        assert_eq!(outcome.samples_used, 500);
        assert!(outcome.samples_requested > 500);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let (db, keys) = employee();
        let ucq = rewrite_to_ucq(&parse_query("TRUE").unwrap()).unwrap();
        let est = FprasEstimator::new(&db, &keys, &ucq).unwrap();
        let bad = ApproxConfig {
            epsilon: -1.0,
            ..ApproxConfig::default()
        };
        assert!(est.estimate(&bad).is_err());
        assert!(est.required_samples(&bad).is_err());
    }
}
