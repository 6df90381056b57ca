//! Approximate counting of repairs.
//!
//! Exact `#CQA` is #P-hard, so Section 6 of the paper turns to fully
//! polynomial-time randomized approximation schemes (FPRAS):
//!
//! * [`FprasEstimator`] — the paper's own scheme (Theorem 6.2 /
//!   Corollary 6.4).  It samples from the *natural* sample space: a uniform
//!   repair is drawn by picking one fact uniformly from every block, the
//!   Bernoulli outcome is "does the repair entail the query", and the
//!   estimate is `|U| · (Σ Xᵢ) / t` with the paper's sample size
//!   `t = ⌈(2+ε)·mᵏ/ε² · ln(2/δ)⌉` where `m` is the maximum block size and
//!   `k` the (disjunct) keywidth.
//! * [`KarpLubyEstimator`] — the baseline inherited from probabilistic
//!   databases \[5\]: a Karp–Luby union-of-sets estimator over the "complex"
//!   sample space of (certificate, completion) pairs.  The paper's point is
//!   that its own scheme is conceptually simpler; implementing both lets
//!   the benchmarks compare them.
//!
//! Both estimators draw through one sampler of uniform tuples over a
//! product of domains, and both count boxes over those domains
//! ([`GenericBox`]).  There are two ways to build each: over a database,
//! where the domains are the blocks and the boxes the certificates'
//! selector boxes (`#CQA`), and over plain domain sizes and boxes
//! (`over_domains`), which is how `cdr-lambda` runs them on the output of
//! any compactor — every function in Λ\[k\], and SpanLL for Karp–Luby.
//!
//! Both estimators are deterministic given a seed ([`ApproxConfig::seed`]),
//! which keeps experiments reproducible.

mod fpras;
mod karp_luby;

pub use fpras::FprasEstimator;
pub use karp_luby::KarpLubyEstimator;

use cdr_num::{BigNat, LogNum};
use cdr_repairdb::BlockPartition;
use rand::distributions::{Distribution, Uniform};
use rand::RngCore;

use crate::{CountError, GenericBox};

/// Parameters of an approximation run.
#[derive(Clone, Debug, PartialEq)]
pub struct ApproxConfig {
    /// Relative error bound `ε > 0`.
    pub epsilon: f64,
    /// Failure probability `δ ∈ (0, 1)`.
    pub delta: f64,
    /// Hard cap on the number of samples actually drawn.  The theoretical
    /// sample size can be astronomically large for tiny `ε`; the cap keeps
    /// experiments finite and is reported back in [`ApproxCount`].
    pub max_samples: u64,
    /// Seed for the pseudo-random generator, so runs are reproducible.
    pub seed: u64,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            epsilon: 0.1,
            delta: 0.05,
            max_samples: 2_000_000,
            seed: 0xC0FFEE,
        }
    }
}

impl ApproxConfig {
    /// Validates `ε` and `δ`.
    pub fn validate(&self) -> Result<(), CountError> {
        if self.epsilon <= 0.0 || !self.epsilon.is_finite() {
            return Err(CountError::InvalidApproxParameter(format!(
                "epsilon must be a positive finite number, got {}",
                self.epsilon
            )));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(CountError::InvalidApproxParameter(format!(
                "delta must lie strictly between 0 and 1, got {}",
                self.delta
            )));
        }
        if self.max_samples == 0 {
            return Err(CountError::InvalidApproxParameter(
                "max_samples must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The outcome of an approximation run.
#[derive(Clone, Debug)]
pub struct ApproxCount {
    /// The estimate rounded to a natural number.
    pub estimate: BigNat,
    /// The estimate in the log domain (useful when it exceeds `f64`).
    pub estimate_log: LogNum,
    /// The estimated fraction of the sample space that is covered
    /// (the empirical mean of the Bernoulli variable).
    pub covered_fraction: f64,
    /// The sample size the theory asks for.
    pub samples_requested: u64,
    /// The sample size actually used (`min(requested, max_samples)`, and 0
    /// when the estimator short-circuits to an exact answer).
    pub samples_used: u64,
    /// Number of positive samples.
    pub positive_samples: u64,
    /// The size of the sample space the estimator scaled by (`|U|` for the
    /// FPRAS, the summed box weight for Karp–Luby).
    pub sample_space_size: BigNat,
    /// Whether the estimator short-circuited to an exact value (e.g. no
    /// certificates at all, or an unconstrained certificate).
    pub exact: bool,
}

impl ApproxCount {
    /// Builds an outcome representing an exactly-known value (used when an
    /// estimator short-circuits, e.g. no certificates at all).
    pub fn exact_value(value: BigNat, space: BigNat) -> ApproxCount {
        let log = LogNum::from_bignat(&value);
        let fraction = if space.is_zero() {
            0.0
        } else {
            (value.ln() - space.ln()).exp()
        };
        ApproxCount {
            estimate: value,
            estimate_log: log,
            covered_fraction: fraction,
            samples_requested: 0,
            samples_used: 0,
            positive_samples: 0,
            sample_space_size: space,
            exact: true,
        }
    }

    /// The relative error of the estimate against a known exact count.
    pub fn relative_error(&self, exact: &BigNat) -> f64 {
        self.estimate_log
            .relative_error(&LogNum::from_bignat(exact))
    }
}

/// Scales a sample-space size by an empirical success fraction
/// `positives / samples`, returning both a rounded [`BigNat`] and the
/// log-domain value.
pub(crate) fn scale_by_fraction(space: &BigNat, positives: u64, samples: u64) -> (BigNat, LogNum) {
    assert!(samples > 0, "cannot scale by an empty sample");
    if positives == 0 {
        return (BigNat::zero(), LogNum::zero());
    }
    let mut numerator = space.clone();
    numerator.mul_assign_u64(positives);
    let (estimate, remainder) = numerator.div_rem_u64(samples);
    // Round half-up on the remainder.
    let rounded = if remainder.saturating_mul(2) >= samples {
        &estimate + &BigNat::one()
    } else {
        estimate
    };
    let log = LogNum::from_ln(space.ln() + (positives as f64 / samples as f64).ln());
    (rounded, log)
}

/// The one sampler behind both estimators: uniform tuples of
/// `S₀ × ⋯ × S_{n-1}`, written as element indices into a domain-indexed
/// tuple, so a box contains a sample iff `tuple[d] == e` for each of its
/// pins `(d, e)` (see [`covers`]).
///
/// It holds, per drawn domain, a [`Uniform`] with its Lemire rejection
/// threshold — an integer division — precomputed, plus the order in which
/// domains are drawn.  There are two ways to build it:
///
/// * [`DomainSampler::over_partition`] for `#CQA`: the domains are block
///   *slots* (what selector pins name, see [`crate::exact::slot_boxes`]),
///   and the live slots are drawn in `≺_{D,Σ}` order, so two engines over
///   the same live facts sample identical repairs for the same seed
///   however their slots are numbered.  Retired slots are never drawn.
/// * [`DomainSampler::over_domains`] for a Λ\[k\] compactor: the domains
///   are the compactor's, drawn in index order.
///
/// Sampled values are draw-for-draw identical to a `gen_range(0..|S_d|)`
/// walk in draw order (the vendored `Uniform` guarantees value equality
/// with `gen_range`).
pub(crate) struct DomainSampler {
    /// The length of every sampled tuple.
    domain_count: usize,
    /// The drawn domains, in draw order.
    order: Box<[u32]>,
    /// Per drawn domain: a `0..|S_d|` sampler with precomputed threshold.
    samplers: Box<[Uniform]>,
}

impl DomainSampler {
    /// The sampler over the live blocks of a partition (domains are slots).
    pub(crate) fn over_partition(blocks: &BlockPartition) -> DomainSampler {
        DomainSampler::new(
            blocks.slot_count(),
            blocks.iter().map(|(id, block)| (id.index(), block.len())),
        )
    }

    /// The sampler over plain domain sizes, drawn in index order.  A
    /// zero-size domain empties the sample space, which both estimators
    /// answer without drawing; it is set up as size 1 so construction
    /// cannot fail.
    pub(crate) fn over_domains(sizes: &[usize]) -> DomainSampler {
        DomainSampler::new(sizes.len(), sizes.iter().map(|&s| s.max(1)).enumerate())
    }

    fn new(domain_count: usize, drawn: impl Iterator<Item = (usize, usize)>) -> DomainSampler {
        let (order, samplers): (Vec<u32>, Vec<Uniform>) = drawn
            .map(|(domain, size)| (domain as u32, Uniform::from(0..size)))
            .unzip();
        DomainSampler {
            domain_count,
            order: order.into_boxed_slice(),
            samplers: samplers.into_boxed_slice(),
        }
    }

    /// A scratch tuple spanning every domain.  Every drawn domain is
    /// overwritten by each sample; undrawn (retired) ones are never pinned,
    /// so one tuple serves a whole sampling loop.
    pub(crate) fn tuple(&self) -> Vec<u32> {
        vec![0; self.domain_count]
    }

    /// Draws a uniform tuple into `tuple`.
    pub(crate) fn sample_into<R: RngCore>(&self, rng: &mut R, tuple: &mut [u32]) {
        for (&domain, sampler) in self.order.iter().zip(self.samplers.iter()) {
            tuple[domain as usize] = sampler.sample(rng) as u32;
        }
    }

    /// Draws a uniform completion of `pinned` into `tuple`: pinned domains
    /// take their pinned element, every other domain draws — consuming
    /// randomness exactly as a walk in draw order that skips pinned
    /// domains.
    pub(crate) fn sample_completion_into<R: RngCore>(
        &self,
        pinned: &GenericBox,
        rng: &mut R,
        tuple: &mut [u32],
    ) {
        for (&domain, sampler) in self.order.iter().zip(self.samplers.iter()) {
            tuple[domain as usize] = match pinned.get(domain as usize) {
                Some(element) => element as u32,
                None => sampler.sample(rng) as u32,
            };
        }
    }
}

/// Returns `true` iff the sampled tuple lies in the box.
pub(crate) fn covers(b: &GenericBox, tuple: &[u32]) -> bool {
    b.as_slice().iter().all(|&(d, e)| tuple[d as usize] == e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(ApproxConfig::default().validate().is_ok());
        let bad_eps = ApproxConfig {
            epsilon: 0.0,
            ..ApproxConfig::default()
        };
        assert!(bad_eps.validate().is_err());
        let bad_delta = ApproxConfig {
            delta: 1.5,
            ..ApproxConfig::default()
        };
        assert!(bad_delta.validate().is_err());
        let bad_samples = ApproxConfig {
            max_samples: 0,
            ..ApproxConfig::default()
        };
        assert!(bad_samples.validate().is_err());
        let nan_eps = ApproxConfig {
            epsilon: f64::NAN,
            ..ApproxConfig::default()
        };
        assert!(nan_eps.validate().is_err());
    }

    #[test]
    fn scale_by_fraction_rounds_sensibly() {
        let space = BigNat::from(100u64);
        let (est, _) = scale_by_fraction(&space, 1, 2);
        assert_eq!(est.to_u64(), Some(50));
        let (est, _) = scale_by_fraction(&space, 1, 3);
        assert_eq!(est.to_u64(), Some(33));
        let (est, _) = scale_by_fraction(&space, 2, 3);
        assert_eq!(est.to_u64(), Some(67));
        let (est, log) = scale_by_fraction(&space, 0, 3);
        assert!(est.is_zero());
        assert!(log.is_zero());
        // Huge spaces survive in the log domain.
        let huge = BigNat::from(2u64).pow(400);
        let (_, log) = scale_by_fraction(&huge, 1, 4);
        assert!((log.ln() - (400.0 * 2f64.ln() - 4f64.ln())).abs() < 1e-6);
    }

    #[test]
    fn exact_value_outcome() {
        let out = ApproxCount::exact_value(BigNat::from(3u64), BigNat::from(12u64));
        assert!(out.exact);
        assert_eq!(out.estimate.to_u64(), Some(3));
        assert!((out.covered_fraction - 0.25).abs() < 1e-12);
        assert_eq!(out.samples_used, 0);
        assert!(out.relative_error(&BigNat::from(3u64)) < 1e-12);
        assert!(out.relative_error(&BigNat::from(6u64)) > 0.4);
        let zero_space = ApproxCount::exact_value(BigNat::zero(), BigNat::zero());
        assert_eq!(zero_space.covered_fraction, 0.0);
    }
}
