//! Exact counting of repairs that entail a query.
//!
//! `#CQA(Q, Σ)` is #P-hard already for very simple conjunctive queries
//! (Theorem 3.1, citing Maslowski–Wijsen), so every exact algorithm here is
//! worst-case exponential.  Two algorithms are provided:
//!
//! * [`count_by_enumeration`] — enumerate all repairs and evaluate the query
//!   on each; works for arbitrary first-order queries and is the direct
//!   implementation of the nondeterministic machine in the proof of
//!   Theorem 3.3.
//! * [`count_by_boxes`] — the certificate/box algorithm for UCQs: compute
//!   all certificates, group their selector boxes into independent
//!   components, count the covered assignments per component, and combine
//!   by complementation.  This mirrors the paper's "solutions via
//!   certificate expansion" view (Section 4.1) and is usually orders of
//!   magnitude faster than enumeration because only *touched* blocks are
//!   ever enumerated.
//!
//! Both take a budget guarding against accidentally exponential runs and
//! return [`CountError::ExactBudgetExceeded`] when it would be exceeded.

mod boxes;
mod enumeration;

pub use boxes::{
    count_by_boxes, count_union_generic, count_union_of_boxes, count_union_of_boxes_with_total,
    GenericBox,
};
pub(crate) use boxes::{domain_product, slot_boxes, DomainSizes, SlotSizes};
pub use enumeration::count_by_enumeration;

/// Default budget for exact counters: the maximum number of repairs (for
/// enumeration) or per-component assignments (for the box algorithm) that
/// will be enumerated before giving up with
/// [`crate::CountError::ExactBudgetExceeded`].
pub const DEFAULT_EXACT_BUDGET: u64 = 20_000_000;
