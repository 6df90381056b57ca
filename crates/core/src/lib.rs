//! Counting database repairs under primary keys.
//!
//! This crate implements the computational core of the paper: given a
//! database `D`, a set of primary keys `Σ`, and a Boolean query `Q`, compute
//! (exactly or approximately) the number of repairs of `D` w.r.t. `Σ` that
//! entail `Q` — the problem `#CQA(Q, Σ)` of Section 2.1.
//!
//! The main entry point is [`RepairEngine`]: an owned, `Send + Sync`,
//! caching engine that answers [`CountRequest`]s with [`CountReport`]s and
//! unifies every operation the paper studies behind one request/report
//! surface:
//!
//! * the **decision** problem `#CQA>0` (Theorems 3.2 and 3.4) —
//!   [`Semantics::Decision`];
//! * the **exact counters** — brute-force repair enumeration (the
//!   `acceptM` machine of Theorem 3.3 made concrete) and the
//!   certificate/box algorithm that mirrors the paper's "solutions via
//!   certificate expansion" structure (Section 4.1);
//! * the **total repair count** `∏ |Bᵢ|` and the **relative frequency** of
//!   Section 1.1;
//! * the **FPRAS** of Theorem 6.2 ([`FprasEstimator`]) and the
//!   Karp–Luby-style baseline over the "complex" sample space used by the
//!   probabilistic-database FPRAS of Dalvi–Suciu ([`KarpLubyEstimator`]).
//!
//! Lower-level building blocks — certificates, selectors and boxes — are
//! exposed because the Λ-hierarchy machinery in `cdr-lambda` reuses them.
//!
//! The legacy [`RepairCounter`] facade remains as a thin wrapper over the
//! engine for backwards compatibility.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certificates;
mod counter;
mod decision;
mod error;
mod frequency;

/// The owned, cached request/report engine.
pub mod engine;

/// Approximate counting: the Λ\[k\] FPRAS and the Karp–Luby baseline.
pub mod approx;
/// Exact counting algorithms.
pub mod exact;
/// The replicated command log: framed records, snapshot files, replay.
pub mod replog;
/// The text wire format serving front ends parse into [`EngineCommand`]s.
pub mod wire;

pub use approx::{ApproxConfig, ApproxCount, FprasEstimator, KarpLubyEstimator};
pub use certificates::{distinct_boxes, enumerate_certificates, Certificate, SelectorBox};
pub use counter::{CountOutcome, ExactStrategy, RepairCounter};
pub use decision::{
    holds_in_some_repair, holds_in_some_repair_fo, holds_in_some_repair_fo_bounded,
    holds_in_some_repair_ucq,
};
pub use engine::{
    Answer, CacheStats, CompactionOutcome, CountReport, CountRequest, EngineCommand,
    EngineResponse, MutationReport, RepairEngine, Semantics, Strategy, DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use error::CountError;
pub use exact::{
    count_by_boxes, count_by_enumeration, count_union_generic, count_union_of_boxes,
    count_union_of_boxes_with_total, GenericBox,
};
pub use frequency::{relative_frequency, relative_frequency_with};
pub use replog::{LogOp, LogRecord, LogWriter, ReplogError};
pub use wire::frame::{decode_bulk, encode_bulk, FrameError, BULK_VERSION};
pub use wire::{parse_count_request, parse_engine_command, parse_mutation, WireError};
