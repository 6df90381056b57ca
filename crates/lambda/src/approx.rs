//! Approximation schemes for compactor-definable functions.
//!
//! Theorem 6.2: every function in `Λ[k]` admits an FPRAS that samples from
//! the *natural* sample space `U = S₁ × ⋯ × Sₙ`, because a single valid
//! certificate already witnesses a `1/mᵏ` fraction of `U` (`m` being the
//! largest domain).  [`compactor_fpras`] runs that scheme for any bounded
//! [`Compactor`].
//!
//! Theorem 7.4: functions in SpanLL (unbounded compactors) also admit an
//! FPRAS, but sampling from the natural space no longer works — the
//! covered fraction can be exponentially small.  [`compactor_karp_luby`]
//! runs the estimator over the richer sample space of
//! (certificate, completion) pairs, which covers both the bounded and the
//! unbounded case.
//!
//! Both are the core crate's estimators, built over the compactor's
//! domains and output boxes: there is one sampler and one pair of
//! estimators, and `#CQA` builds the same two over a database's blocks
//! and certificate boxes.

use cdr_core::{ApproxConfig, ApproxCount, CountError, FprasEstimator, KarpLubyEstimator};

use crate::compactor::{collect_boxes, Compactor};

/// The Theorem 6.2 FPRAS for a bounded compactor: sample uniform tuples of
/// `S₁ × ⋯ × Sₙ` and count how many fall into some output box.
///
/// Returns an error when the compactor is unbounded
/// (`pin_bound() == None`) — use [`compactor_karp_luby`] in that case.
pub fn compactor_fpras(
    compactor: &dyn Compactor,
    config: &ApproxConfig,
) -> Result<ApproxCount, CountError> {
    config.validate()?;
    let Some(k) = compactor.pin_bound() else {
        return Err(CountError::InvalidApproxParameter(
            "the natural-sample-space FPRAS requires a k-compactor; \
             use compactor_karp_luby for unbounded compactors"
                .into(),
        ));
    };
    FprasEstimator::over_domains(&compactor.domain_sizes(), collect_boxes(compactor), k)
        .estimate(config)
}

/// The Karp–Luby estimator over (box, completion) pairs: works for bounded
/// and unbounded compactors alike (Theorem 7.4).
///
/// Returns an error when some box's relative weight `∏ 1/|S_d|` over its
/// pinned domains underflows `f64`.
pub fn compactor_karp_luby(
    compactor: &dyn Compactor,
    config: &ApproxConfig,
) -> Result<ApproxCount, CountError> {
    KarpLubyEstimator::over_domains(&compactor.domain_sizes(), collect_boxes(compactor))
        .estimate(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compactor::{unfold_count, CompactOutput, ExplicitCompactor};
    use crate::disj_dnf::DisjPosDnf;

    fn medium_compactor() -> ExplicitCompactor {
        // 8 domains of size 3, boxes pinning at most 2 domains.
        let outputs = vec![
            CompactOutput::pins([(0, 0), (1, 1)]),
            CompactOutput::pins([(2, 2), (3, 0)]),
            CompactOutput::pins([(4, 1)]),
            CompactOutput::Empty,
            CompactOutput::pins([(0, 0), (5, 2)]),
            CompactOutput::pins([(6, 0), (7, 0)]),
        ];
        ExplicitCompactor::new(vec![3; 8], outputs, Some(2))
    }

    #[test]
    fn fpras_matches_exact_within_epsilon() {
        let c = medium_compactor();
        let exact = unfold_count(&c, 10_000_000).unwrap();
        let config = ApproxConfig {
            epsilon: 0.1,
            delta: 0.05,
            ..ApproxConfig::default()
        };
        let approx = compactor_fpras(&c, &config).unwrap();
        assert!(
            approx.relative_error(&exact) <= config.epsilon,
            "estimate {} vs exact {exact}",
            approx.estimate
        );
        assert!(!approx.exact);
    }

    #[test]
    fn karp_luby_matches_exact_within_epsilon() {
        let c = medium_compactor();
        let exact = unfold_count(&c, 10_000_000).unwrap();
        let config = ApproxConfig {
            epsilon: 0.1,
            delta: 0.05,
            ..ApproxConfig::default()
        };
        let approx = compactor_karp_luby(&c, &config).unwrap();
        assert!(
            approx.relative_error(&exact) <= config.epsilon,
            "estimate {} vs exact {exact}",
            approx.estimate
        );
    }

    #[test]
    fn fpras_rejects_unbounded_compactors_but_karp_luby_accepts() {
        // An unbounded compactor whose union is a tiny fraction of U: the
        // Karp–Luby estimator still gets it right; the natural-space FPRAS
        // refuses to run.
        let c = ExplicitCompactor::new(
            vec![2; 12],
            vec![CompactOutput::pins((0..12).map(|d| (d, 0)))],
            None,
        );
        let config = ApproxConfig {
            epsilon: 0.2,
            ..ApproxConfig::default()
        };
        assert!(compactor_fpras(&c, &config).is_err());
        let approx = compactor_karp_luby(&c, &config).unwrap();
        assert_eq!(approx.estimate.to_u64(), Some(1));
        // A box pinning 1,100 domains of size 2 has relative weight
        // 2^-1100, which is 0.0 in f64: Karp–Luby cannot draw it with its
        // probability and must say so instead of sampling.
        let tiny = ExplicitCompactor::new(
            vec![2; 1100],
            vec![CompactOutput::pins((0..1100).map(|d| (d, 0)))],
            None,
        );
        assert!(matches!(
            compactor_karp_luby(&tiny, &config),
            Err(CountError::InvalidApproxParameter(_))
        ));
    }

    #[test]
    fn degenerate_compactors_short_circuit() {
        let nothing = ExplicitCompactor::new(vec![4, 4], vec![CompactOutput::Empty], Some(1));
        let config = ApproxConfig::default();
        assert!(compactor_fpras(&nothing, &config)
            .unwrap()
            .estimate
            .is_zero());
        assert!(compactor_karp_luby(&nothing, &config)
            .unwrap()
            .estimate
            .is_zero());
        let everything = ExplicitCompactor::new(vec![4, 4], vec![CompactOutput::pins([])], Some(0));
        assert_eq!(
            compactor_fpras(&everything, &config)
                .unwrap()
                .estimate
                .to_u64(),
            Some(16)
        );
        assert_eq!(
            compactor_karp_luby(&everything, &config)
                .unwrap()
                .estimate
                .to_u64(),
            Some(16)
        );
    }

    #[test]
    fn dnf_formulas_are_approximable_through_their_compactor() {
        // Theorem 7.1 + Theorem 6.2: #DisjPoskDNF admits the simple FPRAS.
        let f = DisjPosDnf::new(
            9,
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]],
            vec![vec![0, 3], vec![1, 7], vec![4, 8], vec![2]],
            Some(2),
        )
        .unwrap();
        let exact = f.count_satisfying(1_000_000).unwrap();
        let config = ApproxConfig {
            epsilon: 0.1,
            delta: 0.05,
            ..ApproxConfig::default()
        };
        let fpras = compactor_fpras(&f, &config).unwrap();
        let kl = compactor_karp_luby(&f, &config).unwrap();
        assert!(fpras.relative_error(&exact) <= 0.1);
        assert!(kl.relative_error(&exact) <= 0.1);
    }

    /// Seeded runs of both estimators, pinned as literals: however the
    /// sampling code is organised, a seed must reproduce these draw for
    /// draw.  Each line reads `estimate/positive samples/samples used/
    /// samples requested`, for the FPRAS and then for Karp–Luby.
    #[test]
    fn seeded_estimates_are_pinned() {
        use crate::compactor::{CompactOutput, Compactor, ExplicitCompactor};
        use crate::disj_dnf::DisjPosDnf;
        use cdr_core::{ApproxConfig, ApproxCount, CountError};

        let module_dnf = DisjPosDnf::new(
            9,
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]],
            vec![vec![0, 3], vec![1, 7], vec![4, 8], vec![2]],
            Some(2),
        )
        .unwrap();
        // Experiment E11c's formula (the workloads generator's DNF with 6
        // classes of 3 and 5 clauses of width 2, seed 61), written out.
        let e11c_dnf = DisjPosDnf::new(
            18,
            (0..6).map(|c| (3 * c..3 * c + 3).collect()).collect(),
            vec![
                vec![10, 15],
                vec![6, 16],
                vec![0, 17],
                vec![9, 14],
                vec![5, 16],
            ],
            Some(2),
        )
        .unwrap();
        let unbounded = ExplicitCompactor::new(
            vec![2; 12],
            vec![CompactOutput::pins((0..12).map(|d| (d, 0)))],
            None,
        );
        // Mixed domain sizes and multi-pin boxes, so that Karp–Luby's
        // weight fold `∏ 1/|S_d|` meets divisions whose result depends on
        // their order.
        let mixed = ExplicitCompactor::new(
            vec![2, 3, 5, 7, 3, 2],
            vec![
                CompactOutput::pins([(0, 1), (2, 4), (3, 6)]),
                CompactOutput::pins([(1, 2), (3, 0)]),
                CompactOutput::pins([(5, 1), (4, 2), (2, 0)]),
                CompactOutput::pins([(3, 3)]),
                CompactOutput::pins([(0, 0), (1, 1), (4, 0), (5, 0)]),
                CompactOutput::pins([(2, 3), (3, 5)]),
            ],
            Some(4),
        );
        let medium = medium_compactor();
        let cases: [(&str, &dyn Compactor, &[u64], u64); 5] = [
            ("medium", &medium, &[1, 2, 3], 2_000_000),
            ("module dnf", &module_dnf, &[1, 2], 2_000_000),
            ("e11c dnf", &e11c_dnf, &[1, 2], 2_000_000),
            ("unbounded", &unbounded, &[1, 2], 2_000_000),
            ("mixed", &mixed, &[1, 2, 3], 50_000),
        ];
        let show = |outcome: Result<ApproxCount, CountError>| match outcome {
            Ok(o) => format!(
                "{}/{}/{}/{}",
                o.estimate, o.positive_samples, o.samples_used, o.samples_requested
            ),
            Err(_) => "refused".to_string(),
        };
        let mut got = String::new();
        for (name, compactor, seeds, max_samples) in cases {
            for &seed in seeds {
                let config = ApproxConfig {
                    epsilon: 0.2,
                    delta: 0.1,
                    max_samples,
                    seed,
                };
                let fpras = show(compactor_fpras(compactor, &config));
                let kl = show(compactor_karp_luby(compactor, &config));
                got += &format!("{name} {seed}: {fpras} {kl}\n");
            }
        }
        let expected = "\
medium 1: 3645/824/1483/1483 3784/611/824/824
medium 2: 3818/863/1483/1483 3747/605/824/824
medium 3: 3845/869/1483/1483 3908/631/824/824
module dnf 1: 18/973/1483/1483 17/623/660/660
module dnf 2: 17/941/1483/1483 17/622/660/660
e11c dnf 1: 360/733/1483/1483 354/721/824/824
e11c dnf 2: 358/728/1483/1483 359/731/824/824
unbounded 1: refused 1/165/165/165
unbounded 2: refused 1/165/165/165
mixed 1: 361/14339/50000/395602 360/961/989/989
mixed 2: 356/14128/50000/395602 357/951/989/989
mixed 3: 358/14210/50000/395602 357/953/989/989
";
        assert_eq!(got, expected);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let c = medium_compactor();
        let bad = ApproxConfig {
            epsilon: 0.0,
            ..ApproxConfig::default()
        };
        assert!(compactor_fpras(&c, &bad).is_err());
        assert!(compactor_karp_luby(&c, &bad).is_err());
    }
}
