//! The Karp–Luby union-of-boxes estimator (the "\[5\]-style" baseline,
//! and the FPRAS of Theorem 7.4 for unbounded compactors).
//!
//! Section 6 of the paper contrasts its own FPRAS with the one inherited
//! from probabilistic databases \[5\]: the latter cannot sample from the
//! natural space of possible worlds (repairs) directly — it must sample
//! *pairs* of a witness (here: a certificate box) and a completion, and
//! correct for over-counting with the classic Karp–Luby "am I the first box
//! that contains this sample?" trick.  This module implements that
//! estimator so the benchmarks can compare the two schemes on accuracy and
//! running time.
//!
//! Estimator: let `W = Σᵢ |boxᵢ|`.  Repeat `t` times: draw a box `i` with
//! probability `|boxᵢ|/W`, draw a uniform completion of `boxᵢ` (a tuple
//! inside the box), and output 1 iff no box with a smaller index contains
//! the drawn tuple.  The mean of the indicator times `W` is an unbiased
//! estimate of `|⋃ᵢ boxᵢ|`, and because the union is at least `W/#boxes`,
//! `t = ⌈(2+ε)·#boxes/ε² · ln(2/δ)⌉` samples give an (ε, δ) guarantee.
//! The bound does not involve how many domains a box pins, so the
//! estimator also covers the unbounded compactors of SpanLL.
//!
//! There is one estimator and two ways to build it: over a database's
//! certificate boxes, whose domains are the blocks
//! ([`KarpLubyEstimator::new`]), or over a compactor's domains and boxes
//! ([`KarpLubyEstimator::over_domains`]).  Both draw completions through
//! the same sampler as the FPRAS.

use std::sync::Arc;

use cdr_num::BigNat;
use cdr_query::UcqQuery;
use cdr_repairdb::{count_repairs, BlockPartition, Database, KeySet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::approx::{covers, scale_by_fraction, ApproxConfig, ApproxCount, DomainSampler};
use crate::exact::{domain_product, slot_boxes, DomainSizes, SlotSizes};
use crate::{distinct_boxes, enumerate_certificates, CountError, GenericBox, SelectorBox};

/// The Karp–Luby estimator over a union of boxes.
pub struct KarpLubyEstimator {
    boxes: Vec<GenericBox>,
    /// `Σᵢ |boxᵢ|` — the size of the (box, completion) sample space.
    total_weight: BigNat,
    /// Per-box relative weights `|boxᵢ| / ∏ⱼ |Sⱼ| = ∏_{pinned j} 1/|Sⱼ|`,
    /// folded over the pins in domain order.  They lie in `[0, 1]`, but a
    /// box pinning many domains underflows `f64` (to a subnormal, losing
    /// bits, or to zero); [`KarpLubyEstimator::estimate`] refuses to
    /// sample then.
    relative_weights: Vec<f64>,
    /// `Σ relative_weights` (left-to-right), the scale of each box draw.
    weight_sum: f64,
    /// Precomputed selection thresholds: `thresholds[j]` is the smallest
    /// `f64` target that the historical sequential-subtraction scan maps
    /// past box `j`, so a binary search (`partition_point`) replaces the
    /// per-sample linear scan *bit-for-bit* (see [`selection_thresholds`]).
    /// Empty when some weight is not normal.
    thresholds: Box<[f64]>,
    /// The uniform-tuple sampler the completions are drawn with (for
    /// `#CQA`, shared with every estimator over the same partition
    /// generation).
    sampler: Arc<DomainSampler>,
    /// `∏ |Sᵢ|`.
    total: BigNat,
}

/// The box index the pre-refactor per-sample scan assigned to `target`:
/// subtract weights left to right and stop at the first box whose weight
/// exceeds what remains.  Kept as the ground truth the precomputed
/// thresholds are verified against.
fn sequential_pick(weights: &[f64], mut target: f64) -> usize {
    let mut chosen = weights.len() - 1;
    for (i, w) in weights.iter().enumerate() {
        if target < *w {
            chosen = i;
            break;
        }
        target -= w;
    }
    chosen
}

/// For every box boundary `j`, the smallest non-negative `f64` whose
/// [`sequential_pick`] lands past box `j` (`f64::INFINITY` if none does).
///
/// `sequential_pick` is monotone in its target — floating-point
/// subtraction of a constant is monotone, so a larger target survives at
/// least as many boxes — and non-negative floats are ordered like their
/// bit patterns, so each threshold is found by a 63-step bisection over
/// the bit space *against `sequential_pick` itself*.  Sampling via
/// `partition_point` over these thresholds therefore selects **the exact
/// box the linear scan would have selected for every representable
/// target**, including targets within rounding distance of a boundary —
/// this is what keeps seeded estimates bit-for-bit stable across the
/// representation change.
fn selection_thresholds(weights: &[f64]) -> Box<[f64]> {
    let boundaries = weights.len().saturating_sub(1);
    let mut thresholds = Vec::with_capacity(boundaries);
    for j in 0..boundaries {
        // Smallest bit pattern (≡ smallest non-negative float, +∞
        // included) whose pick exceeds j; every weight is positive, so
        // 0.0 always picks box 0 and +∞ always survives to the last box.
        let mut lo = 0u64;
        let mut hi = f64::INFINITY.to_bits();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if sequential_pick(weights, f64::from_bits(mid)) > j {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        thresholds.push(f64::from_bits(lo));
    }
    thresholds.into_boxed_slice()
}

impl KarpLubyEstimator {
    /// Prepares the estimator for a UCQ over a database.
    pub fn new(db: &Database, keys: &KeySet, ucq: &UcqQuery) -> Result<Self, CountError> {
        let blocks = BlockPartition::new(db, keys);
        let certificates = enumerate_certificates(db, keys, &blocks, ucq)?;
        let boxes = distinct_boxes(&certificates);
        let total_repairs = count_repairs(&blocks);
        let sampler = Arc::new(DomainSampler::over_partition(&blocks));
        Ok(KarpLubyEstimator::from_parts(
            Arc::new(blocks),
            Arc::new(boxes),
            sampler,
            total_repairs,
        ))
    }

    /// Builds the estimator from artifacts an engine has already computed,
    /// skipping the block/certificate recomputation of
    /// [`KarpLubyEstimator::new`].
    pub(crate) fn from_parts(
        blocks: Arc<BlockPartition>,
        boxes: Arc<Vec<SelectorBox>>,
        sampler: Arc<DomainSampler>,
        total_repairs: BigNat,
    ) -> Self {
        let boxes = slot_boxes(&blocks, &boxes);
        KarpLubyEstimator::build(&SlotSizes(&blocks), boxes, sampler, total_repairs)
    }

    /// Prepares the estimator over `S₁ × ⋯ × Sₙ` with `|Sᵢ| =
    /// domain_sizes[i]`, for boxes that may pin any number of domains (the
    /// output boxes of a compactor, bounded or not).
    pub fn over_domains(domain_sizes: &[usize], boxes: Vec<GenericBox>) -> Self {
        let sampler = Arc::new(DomainSampler::over_domains(domain_sizes));
        KarpLubyEstimator::build(&domain_sizes, boxes, sampler, domain_product(domain_sizes))
    }

    fn build<S: DomainSizes>(
        sizes: &S,
        boxes: Vec<GenericBox>,
        sampler: Arc<DomainSampler>,
        total: BigNat,
    ) -> Self {
        let mut total_weight = BigNat::zero();
        let mut relative_weights = Vec::with_capacity(boxes.len());
        // An empty sample space is answered without sampling; skipping
        // it also keeps a pin of an empty domain (necessarily out of
        // range) from dividing by zero.
        if !total.is_zero() {
            for b in &boxes {
                // |boxᵢ| by dividing the total — O(pins) instead of a
                // product over every unpinned domain.
                let mut size = total.clone();
                let mut w = 1.0f64;
                for (domain, _) in b.pins() {
                    let len = sizes.size(domain);
                    let (quotient, remainder) = size.div_rem_u64(len as u64);
                    debug_assert_eq!(remainder, 0, "domain sizes divide the total exactly");
                    size = quotient;
                    w /= len as f64;
                }
                total_weight += size;
                relative_weights.push(w);
            }
        }
        let weight_sum: f64 = relative_weights.iter().sum();
        let thresholds = if relative_weights.iter().all(|w| w.is_normal()) {
            selection_thresholds(&relative_weights)
        } else {
            Box::default()
        };
        KarpLubyEstimator {
            boxes,
            total_weight,
            relative_weights,
            weight_sum,
            thresholds,
            sampler,
            total,
        }
    }

    /// The summed box weight `W = Σᵢ |boxᵢ|` (the sample-space size of the
    /// pair space).
    pub fn total_weight(&self) -> &BigNat {
        &self.total_weight
    }

    /// Number of boxes the estimator samples from.
    pub fn box_count(&self) -> usize {
        self.boxes.len()
    }

    /// The sample size `t = ⌈(2+ε)·#boxes/ε² · ln(2/δ)⌉`.
    pub fn required_samples(&self, config: &ApproxConfig) -> Result<u64, CountError> {
        config.validate()?;
        let boxes = self.boxes.len().max(1) as f64;
        let eps = config.epsilon;
        let t = (2.0 + eps) * boxes / (eps * eps) * (2.0 / config.delta).ln();
        if !t.is_finite() || t >= u64::MAX as f64 {
            return Ok(u64::MAX);
        }
        Ok(t.ceil().max(1.0) as u64)
    }

    /// Runs the estimator.
    ///
    /// Degenerate cases short-circuit to an exact answer: no boxes or an
    /// empty sample space means count 0, and an unconstrained box means
    /// the union is everything.  A box whose relative weight is not a
    /// normal `f64` cannot be drawn with its probability, so it is refused
    /// with [`CountError::InvalidApproxParameter`].
    pub fn estimate(&self, config: &ApproxConfig) -> Result<ApproxCount, CountError> {
        config.validate()?;
        if self.boxes.is_empty() || self.total.is_zero() {
            return Ok(ApproxCount::exact_value(
                BigNat::zero(),
                self.total_weight.clone(),
            ));
        }
        if self.boxes.iter().any(GenericBox::is_empty) {
            // Some box is the whole sample space: the union is exactly
            // the total.
            return Ok(ApproxCount::exact_value(
                self.total.clone(),
                self.total_weight.clone(),
            ));
        }
        if let Some(i) = self.relative_weights.iter().position(|w| !w.is_normal()) {
            return Err(CountError::InvalidApproxParameter(format!(
                "box {i} pins {} domains and its relative weight {:e} underflows f64; \
                 Karp-Luby cannot draw it with its probability",
                self.boxes[i].len(),
                self.relative_weights[i]
            )));
        }
        let requested = self.required_samples(config)?;
        let samples = requested.min(config.max_samples).max(1);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut positives: u64 = 0;
        // One scratch tuple for the whole run: the sampling loop allocates
        // nothing.
        let mut tuple = self.sampler.tuple();
        for _ in 0..samples {
            // Draw a box proportionally to its size: a binary search over
            // the precomputed thresholds, selecting exactly the box the
            // historical sequential scan would have picked.
            let target = rng.gen_range(0.0..self.weight_sum);
            let chosen_box = self.thresholds.partition_point(|&t| target >= t);
            debug_assert_eq!(
                chosen_box,
                sequential_pick(&self.relative_weights, target),
                "threshold selection must replicate the sequential scan"
            );
            self.sampler
                .sample_completion_into(&self.boxes[chosen_box], &mut rng, &mut tuple);
            // Count the sample only if no earlier box already covers it.
            let first_cover = self
                .boxes
                .iter()
                .position(|b| covers(b, &tuple))
                .expect("the chosen box covers its own completion");
            if first_cover == chosen_box {
                positives += 1;
            }
        }
        let (estimate, estimate_log) = scale_by_fraction(&self.total_weight, positives, samples);
        Ok(ApproxCount {
            estimate,
            estimate_log,
            covered_fraction: positives as f64 / samples as f64,
            samples_requested: requested,
            samples_used: samples,
            positive_samples: positives,
            sample_space_size: self.total_weight.clone(),
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
    fn estimate_is_close_to_exact() {
        let (db, keys) = wide_db();
        let q = parse_query("Works(0, 'sales') OR Works(1, 'eng') OR Works(2, 'hr')").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let est = KarpLubyEstimator::new(&db, &keys, &ucq).unwrap();
        let config = ApproxConfig {
            epsilon: 0.1,
            delta: 0.05,
            ..ApproxConfig::default()
        };
        let outcome = est.estimate(&config).unwrap();
        let exact = count_by_enumeration(&db, &keys, &q, 10_000_000).unwrap();
        assert!(
            outcome.relative_error(&exact) <= config.epsilon,
            "estimate {} vs exact {exact}",
            outcome.estimate
        );
        assert_eq!(est.box_count(), 3);
        // W = 3 * 3^7.
        assert_eq!(est.total_weight().to_u64(), Some(3 * 2187));
    }

    #[test]
    fn sample_size_depends_on_box_count_not_block_size() {
        let (db, keys) = wide_db();
        let q = parse_query("Works(0, 'sales') OR Works(1, 'eng')").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let est = KarpLubyEstimator::new(&db, &keys, &ucq).unwrap();
        let config = ApproxConfig {
            epsilon: 0.5,
            delta: 0.1,
            ..ApproxConfig::default()
        };
        let expected = ((2.0 + 0.5) * 2.0 / 0.25 * (2.0f64 / 0.1).ln()).ceil() as u64;
        assert_eq!(est.required_samples(&config).unwrap(), expected);
        let extreme = ApproxConfig {
            epsilon: 1e-12,
            ..ApproxConfig::default()
        };
        assert_eq!(est.required_samples(&extreme).unwrap(), u64::MAX);
    }

    #[test]
    fn degenerate_cases_short_circuit() {
        let (db, keys) = wide_db();
        let none = rewrite_to_ucq(&parse_query("Works(99, 'sales')").unwrap()).unwrap();
        let est = KarpLubyEstimator::new(&db, &keys, &none).unwrap();
        let outcome = est.estimate(&ApproxConfig::default()).unwrap();
        assert!(outcome.exact);
        assert!(outcome.estimate.is_zero());

        let trivial = rewrite_to_ucq(&parse_query("TRUE").unwrap()).unwrap();
        let est = KarpLubyEstimator::new(&db, &keys, &trivial).unwrap();
        let outcome = est.estimate(&ApproxConfig::default()).unwrap();
        assert!(outcome.exact);
        assert_eq!(outcome.estimate.to_u64(), Some(3u64.pow(8)));
    }

    #[test]
    fn reproducible_and_validates_parameters() {
        let (db, keys) = wide_db();
        let q = parse_query("Works(0, 'sales') OR Works(1, 'eng')").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let est = KarpLubyEstimator::new(&db, &keys, &ucq).unwrap();
        let config = ApproxConfig {
            epsilon: 0.3,
            seed: 7,
            ..ApproxConfig::default()
        };
        let a = est.estimate(&config).unwrap();
        let b = est.estimate(&config).unwrap();
        assert_eq!(a.estimate, b.estimate);
        let bad = ApproxConfig {
            delta: 0.0,
            ..ApproxConfig::default()
        };
        assert!(est.estimate(&bad).is_err());
    }

    /// The precomputed thresholds must replicate the historical
    /// sequential-subtraction scan for *every* probed target, including
    /// bit-neighbours of each boundary — that equivalence is what keeps
    /// seeded estimates identical across the representation change.
    #[test]
    fn threshold_selection_replicates_the_sequential_scan() {
        let weight_sets: Vec<Vec<f64>> = vec![
            vec![1.0],
            vec![0.5, 0.5],
            vec![1.0 / 3.0; 9],
            // Mixed magnitudes: tiny weights are absorbed by the running
            // subtraction, which the thresholds must reproduce.
            vec![1e-300, 1.0, 1e-300, 0.25, 1e-16],
            vec![0.125; 64],
            (1..40).map(|i| 1.0 / (i as f64)).collect(),
        ];
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for weights in &weight_sets {
            let thresholds = selection_thresholds(weights);
            assert_eq!(thresholds.len(), weights.len() - 1);
            let sum: f64 = weights.iter().sum();
            let mut probes: Vec<f64> = vec![0.0, sum, sum * 0.5];
            for &t in thresholds.iter().filter(|t| t.is_finite()) {
                probes.push(t);
                probes.push(f64::from_bits(t.to_bits().saturating_sub(1)));
                probes.push(f64::from_bits(t.to_bits() + 1));
            }
            for _ in 0..300 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                probes.push(sum * ((state >> 11) as f64 / (1u64 << 53) as f64));
            }
            for &target in probes.iter().filter(|p| p.is_finite() && **p >= 0.0) {
                assert_eq!(
                    thresholds.partition_point(|&t| target >= t),
                    sequential_pick(weights, target),
                    "divergence at target {target:e} for weights {weights:?}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_the_fpras_on_the_same_query() {
        let (db, keys) = wide_db();
        let q = parse_query("Works(3, 'hr') OR Works(4, 'sales')").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let config = ApproxConfig {
            epsilon: 0.1,
            delta: 0.05,
            ..ApproxConfig::default()
        };
        let kl = KarpLubyEstimator::new(&db, &keys, &ucq)
            .unwrap()
            .estimate(&config)
            .unwrap();
        let fpras = crate::FprasEstimator::new(&db, &keys, &ucq)
            .unwrap()
            .estimate(&config)
            .unwrap();
        let exact = count_by_enumeration(&db, &keys, &q, 10_000_000).unwrap();
        assert!(kl.relative_error(&exact) <= 0.1);
        assert!(fpras.relative_error(&exact) <= 0.1);
    }
}
