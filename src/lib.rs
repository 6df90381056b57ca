//! # repair-count
//!
//! A library for **counting database repairs under primary keys**,
//! reproducing the PODS 2019 paper *"Counting Database Repairs under
//! Primary Keys Revisited"* by Calautti, Console and Pieris.
//!
//! The facade crate re-exports the public API of the workspace crates:
//!
//! * [`num`] — arbitrary-precision counts, log-domain numbers, exact ratios.
//! * [`db`] — facts, schemas, primary keys, blocks and repairs.
//! * [`query`] — FO / ∃FO⁺ / UCQ / CQ queries, parsing, evaluation, keywidth.
//! * [`counting`] — the [`RepairEngine`](prelude::RepairEngine), exact
//!   counters, decision procedures, the Λ\[k\] FPRAS and the Karp–Luby
//!   baseline, relative-frequency CQA.
//! * [`lambda`] — the Λ-hierarchy machinery, companion problems and
//!   hardness reductions.
//! * [`workloads`] — seeded workload generators used by the examples,
//!   integration tests and benchmarks.
//! * [`server`] — the serving front end: a line-protocol TCP server over
//!   [`EngineCommand`](prelude::EngineCommand)s (read/write scheduler,
//!   bounded worker pool, batch backpressure), its test client, the
//!   single-threaded [`Oracle`](prelude::Oracle) replay, and the
//!   replicated command log (snapshots, follower reads, failover
//!   recovery) behind
//!   [`ReplicatedBackend`](prelude::ReplicatedBackend).
//!
//! ## Quickstart
//!
//! The paper's Example 1.1 (the `Employee` relation) through a mutable
//! [`RepairEngine`](prelude::RepairEngine) session: build the engine once,
//! then drive it with [`EngineCommand`](prelude::EngineCommand)s — queries
//! are served from the generation-stamped plan cache, and mutations rebuild
//! only the block they touch.
//!
//! ```
//! use repair_count::prelude::*;
//!
//! let mut schema = Schema::new();
//! schema.add_relation("Employee", 3).unwrap();
//! let keys = KeySet::builder(&schema).key("Employee", 1).unwrap().build();
//!
//! let mut db = Database::new(schema.clone());
//! db.insert_parsed("Employee(1, 'Bob',   'HR')").unwrap();
//! db.insert_parsed("Employee(1, 'Bob',   'IT')").unwrap();
//! db.insert_parsed("Employee(2, 'Alice', 'IT')").unwrap();
//! db.insert_parsed("Employee(2, 'Tim',   'IT')").unwrap();
//!
//! let q = parse_query(
//!     "EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap();
//!
//! let mut engine = RepairEngine::new(db, keys);
//! let report = engine.run(&CountRequest::frequency(q.clone())).unwrap();
//! assert_eq!(report.answer.as_frequency().unwrap().to_string(), "1/2");
//!
//! // Insert a conflicting record: the touched block is rebuilt in place
//! // and the total repair count is updated incrementally (4 → 6).
//! let eve = engine.database().parse_fact("Employee(2, 'Eve', 'Finance')").unwrap();
//! engine
//!     .execute(EngineCommand::Mutate(Mutation::Insert(eve)))
//!     .unwrap();
//! assert_eq!(engine.total_repairs().to_u64(), Some(6));
//! let report = engine.run(&CountRequest::frequency(q)).unwrap();
//! assert_eq!(report.answer.as_frequency().unwrap().to_string(), "1/3");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cdr_core as counting;
pub use cdr_lambda as lambda;
pub use cdr_num as num;
pub use cdr_query as query;
pub use cdr_repairdb as db;
pub use cdr_server as server;
pub use cdr_workloads as workloads;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use cdr_core::replog::{apply_record, LogOp, LogRecord, LogWriter, ReplogError};
    pub use cdr_core::wire::{
        parse_count_request, parse_engine_command, parse_mutation, WireError,
    };
    pub use cdr_core::{
        decode_bulk, encode_bulk, Answer, ApproxConfig, CacheStats, CompactionOutcome, CountReport,
        CountRequest, EngineCommand, EngineResponse, FprasEstimator, FrameError, KarpLubyEstimator,
        MutationReport, RepairEngine, Semantics, Strategy,
    };
    pub use cdr_num::{BigNat, LogNum, Ratio};
    pub use cdr_query::{parse_query, Query, UcqQuery};
    pub use cdr_repairdb::{
        BlockDelta, CompactionReport, Database, Fact, KeySet, Mutation, Schema, Snapshot,
        SnapshotError, Symbol, SymbolTable, Value,
    };
    pub use cdr_server::{
        client::Client, client::RetryPolicy, Backend, Oracle, ReplReply, ReplicatedBackend, Role,
        Server, ServerConfig, ServerStats, Supervisor, SupervisorConfig, SupervisorState,
        SupervisorStatus,
    };
}
