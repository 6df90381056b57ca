//! The serving backend: one engine, with an optional replication sidecar.
//!
//! [`Backend`] is the seam the session state machine talks through.  The
//! whole [`RepairEngine`] sits behind one `RwLock` — queries share read
//! guards, mutations take the write barrier.  A replicated backend keeps
//! the same engine and lock, and adds the command log a primary appends
//! to before it applies (or the tail a follower replays), so replies,
//! including `gen=`/`cached=` provenance and seeded estimates, stay
//! byte-identical either way.

use std::sync::{Arc, RwLock};

use cdr_core::{CountError, CountReport, CountRequest, RepairEngine};
use cdr_num::BigNat;
use cdr_repairdb::{Database, Mutation};

use cdr_core::CompactionOutcome;

use crate::replication::{ReplReply, ReplicatedBackend};
use crate::reply;

fn rlock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn wlock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The engine a server (or [`Oracle`](crate::Oracle)) serves from.
pub enum Backend {
    /// The whole engine behind one read/write lock.
    Single(RwLock<RepairEngine>),
    /// One engine plus the replication sidecar (primary or follower).
    Replicated(ReplicatedBackend),
}

impl Backend {
    /// Wraps an engine in the single-lock backend.
    pub fn single(engine: RepairEngine) -> Backend {
        Backend::Single(RwLock::new(engine))
    }

    /// Wraps a replicated backend (primary or follower).
    pub fn replicated(backend: ReplicatedBackend) -> Backend {
        Backend::Replicated(backend)
    }

    /// The replication sidecar, when this backend has one.
    pub(crate) fn replication(&self) -> Option<&ReplicatedBackend> {
        match self {
            Backend::Replicated(backend) => Some(backend),
            _ => None,
        }
    }

    /// Serves one `REPL …` line; replication-free backends refuse it.
    /// `admin_ok` gates the admin-grade side effects (epoch fencing) of
    /// an announcing `REPL HELLO`.
    pub fn repl(&self, line: &str, admin_ok: bool) -> ReplReply {
        match self {
            Backend::Replicated(backend) => backend.repl(line, admin_ok),
            _ => ReplReply::text(vec![
                "ERR REPL replication is not enabled on this server".to_string()
            ]),
        }
    }

    /// The `PROMOTE [FORCE]` verb; replication-free backends refuse it.
    pub fn promote(&self, force: bool) -> String {
        match self {
            Backend::Replicated(backend) => backend.promote(force),
            _ => "ERR REPL replication is not enabled on this server".to_string(),
        }
    }

    /// The `RETARGET <host:port>` verb — points a surviving follower at a
    /// newly promoted primary; replication-free backends refuse it.
    pub fn retarget(&self, line: &str) -> String {
        match self {
            Backend::Replicated(backend) => {
                let mut tokens = line.split_whitespace();
                let _verb = tokens.next();
                match (tokens.next(), tokens.next()) {
                    (Some(upstream), None) => backend.retarget(upstream),
                    _ => "ERR REPL usage: RETARGET <host:port>".to_string(),
                }
            }
            _ => "ERR REPL replication is not enabled on this server".to_string(),
        }
    }

    /// A database over the served schema for lock-free command parsing
    /// (the schema is fixed at engine construction).
    pub fn parse_database(&self) -> Arc<Database> {
        match self {
            Backend::Single(lock) => rlock(lock).database_arc(),
            Backend::Replicated(backend) => backend.parse_database(),
        }
    }

    /// Runs `f` under shared query access.
    pub fn read<R>(&self, f: impl FnOnce(&RepairEngine) -> R) -> R {
        match self {
            Backend::Single(lock) => f(&rlock(lock)),
            Backend::Replicated(backend) => backend.read(f),
        }
    }

    /// Answers one counting request.
    pub fn run(&self, request: &CountRequest) -> Result<CountReport, CountError> {
        self.read(|engine| engine.run(request))
    }

    /// Answers a batch of requests through the engine's thread-scoped
    /// fan-out.
    pub fn run_batch(&self, requests: &[CountRequest]) -> Vec<Result<CountReport, CountError>> {
        self.read(|engine| engine.run_batch(requests))
    }

    /// Applies one mutation after running the auto-compaction policy, and
    /// renders the wire reply.
    pub fn mutate(&self, mutation: Mutation, auto_compact: Option<u64>) -> String {
        match self {
            Backend::Single(lock) => {
                let mut engine = wlock(lock);
                if let Some(threshold) = auto_compact {
                    engine.maybe_compact(threshold);
                }
                apply_single(&mut engine, mutation)
            }
            Backend::Replicated(backend) => backend.mutate(mutation, auto_compact),
        }
    }

    /// Applies a mutation batch atomically after the auto-compaction
    /// policy, and renders the aggregated wire reply.
    pub fn mutate_batch(&self, mutations: Vec<Mutation>, auto_compact: Option<u64>) -> String {
        match self {
            Backend::Single(lock) => {
                let mut engine = wlock(lock);
                if let Some(threshold) = auto_compact {
                    engine.maybe_compact(threshold);
                }
                match engine.apply_batch(mutations) {
                    Ok(report) => reply::render_batch_mutation(&report, engine.total_repairs()),
                    Err(e) => reply::render_count_error(&e),
                }
            }
            Backend::Replicated(backend) => backend.mutate_batch(mutations, auto_compact),
        }
    }

    /// Compacts, returning the outcome plus the post-compaction total the
    /// reply renders — or the refusal line (a replicated follower is
    /// read-only).
    pub fn compact(&self) -> Result<(CompactionOutcome, BigNat), String> {
        match self {
            Backend::Single(lock) => {
                let mut engine = wlock(lock);
                let outcome = engine.compact();
                let total = engine.total_repairs().clone();
                Ok((outcome, total))
            }
            Backend::Replicated(backend) => backend.compact(),
        }
    }

    /// Renders the `STATS` reply.
    pub fn stats(&self) -> String {
        match self {
            Backend::Single(lock) => reply::render_stats(&rlock(lock)),
            Backend::Replicated(backend) => backend.stats(),
        }
    }

    /// The chaos `PANIC` verb: panics while holding the engine's write
    /// lock, poisoning it for the crash-recovery regression tests.
    pub fn chaos_panic(&self) -> ! {
        match self {
            Backend::Single(lock) => {
                let _guard = wlock(lock);
                panic!("chaos: PANIC verb")
            }
            Backend::Replicated(backend) => backend.chaos_panic(),
        }
    }
}

pub(crate) fn apply_single(engine: &mut RepairEngine, mutation: Mutation) -> String {
    match mutation {
        Mutation::Insert(fact) => match engine.apply(Mutation::Insert(fact.clone())) {
            Ok(report) => {
                let id = engine
                    .database()
                    .fact_id(&fact)
                    .expect("an applied or no-op insert leaves the fact present");
                reply::render_insert(id, report.applied == 1, &report, engine.total_repairs())
            }
            Err(e) => reply::render_count_error(&e),
        },
        Mutation::Delete(id) => match engine.apply(Mutation::Delete(id)) {
            Ok(report) => reply::render_delete(id, &report, engine.total_repairs()),
            Err(e) => reply::render_count_error(&e),
        },
    }
}
