//! The decision problem `#CQA>0`: is there a repair that entails the query?
//!
//! * For existential positive queries, Lemma 3.5 reduces the question to the
//!   existence of a single certificate: some disjunct `Qᵢ` has a
//!   homomorphism `h` with `h(Qᵢ) ⊆ D` and `h(Qᵢ) ⊨ Σ`.  This is the
//!   logspace procedure behind Theorem 3.4 ("`#CQA>0(∃FO⁺)` is in L"); the
//!   [`crate::RepairEngine`] answers it from the certificates its plan
//!   cache already holds.
//! * For arbitrary first-order queries the problem is NP-complete
//!   (Theorem 3.2); [`holds_in_some_repair_fo_bounded`] is the obvious
//!   witness search — enumerate repairs and stop at the first one that
//!   satisfies the query.

use cdr_query::{evaluate, Query};
use cdr_repairdb::{BlockPartition, Database, RepairIter};

use crate::CountError;

/// The NP witness search of Theorem 3.2: guess a repair, verify the query.
///
/// Enumerates the repairs of an already-computed block partition in
/// `≺_{D,Σ}` order with early exit, visiting at most `budget` repairs
/// before failing with [`CountError::ExactBudgetExceeded`]; it is
/// exponential in the worst case, as expected for an NP-complete problem.
/// The engine's decision path calls it for first-order queries and for a
/// forced [`crate::Strategy::Enumeration`].
pub(crate) fn holds_in_some_repair_fo_bounded(
    db: &Database,
    blocks: &BlockPartition,
    query: &Query,
    budget: u64,
) -> Result<bool, CountError> {
    let mut visited: u64 = 0;
    for repair in RepairIter::new(blocks) {
        visited += 1;
        if visited > budget {
            return Err(CountError::ExactBudgetExceeded {
                what: "decision-problem repair enumeration".into(),
                budget,
            });
        }
        let repaired = repair.to_database(db);
        if evaluate(&repaired, query)? {
            return Ok(true);
        }
    }
    Ok(false)
}
