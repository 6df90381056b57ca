//! The serving front end: a line-protocol TCP server over the
//! [`RepairEngine`](cdr_core::RepairEngine) command API.
//!
//! PR 2 made [`EngineCommand`](cdr_core::EngineCommand) /
//! [`EngineResponse`](cdr_core::EngineResponse) *be* the protocol; this
//! crate adds the network loop that speaks it.  Clients connect over TCP
//! and send one command per line in the [`cdr_core::wire`] grammar
//! (`INSERT`, `DELETE`, `COUNT`, `CERTAIN`, `DECIDE`, `FREQ`, `APPROX`,
//! `COMPACT`)
//! plus the serving-layer framing this crate defines (`BATCH … END`,
//! `STATS`, `SLEEP`, `QUIT`, `SHUTDOWN`); the server streams single-line
//! replies back (`OK …` on success, `ERR <code> <message>` on failure).
//! A `BULK <len>` header escapes the line protocol into one
//! length-prefixed binary frame of `INSERT`/`DELETE` ops (the
//! [`cdr_core::wire::frame`] codec); the server answers it with exactly
//! the reply lines the equivalent textual commands would have produced.
//!
//! # The scheduler
//!
//! The engine answers queries through `&self` but applies mutations
//! through `&mut self`, so the serving loop's real job is the scheduler
//! around that barrier.  This crate uses an
//! [`RwLock<RepairEngine>`](std::sync::RwLock): queries run concurrently
//! under read guards, and a mutation's write guard *drains* all in-flight
//! queries and applies atomically.  The alternative — an mpsc command
//! actor owning the engine on one thread — was rejected because it
//! serialises queries too: the engine's whole design (generation-stamped
//! shared plan cache, `Send + Sync` reports) exists so concurrent readers
//! scale, and an actor would also add a per-command channel hop on the
//! hot read path.  The costs of the lock — writer starvation under heavy
//! read load and poisoning on a panicking holder — are bounded here by
//! keeping guard scopes to a single command and by recovering poisoned
//! guards (a panicking handler cannot leave the engine mid-mutation
//! unless the engine itself panicked inside `apply`, which the fact-id
//! exhaustion fix removed the last known cause of).
//!
//! `BATCH` fan-outs (which occupy engine worker threads, not just a
//! guard) are admitted through a bounded permit pool: when every permit
//! is in use the server answers `ERR BUSY SERVER BUSY …` immediately
//! instead of buffering without bound.
//!
//! # The event loop
//!
//! Connections are served by a readiness-driven event loop, not
//! thread-per-connection: one reactor thread owns the listener and
//! every connection on nonblocking sockets under a `poll(2)` set (the
//! vendored [`cdr_reactor`] crate), decodes arriving bytes into
//! complete commands, and hands connections with pending commands to
//! the bounded worker pool for execution.  Workers never touch sockets;
//! they buffer reply bytes and nudge the reactor's waker, which flushes
//! on writability.  N mostly-idle connections therefore cost N file
//! descriptors and one polling thread — not N threads — and a peer that
//! dribbles a frame byte-by-byte or stops reading its replies is
//! backpressured individually without stalling anyone else.
//!
//! # In-process use
//!
//! [`Server::start`] boots a server on any listener address (port 0
//! picks an ephemeral port) and returns a handle; [`client::Client`] is
//! a minimal blocking client used by the integration tests and the
//! `cdr-replay` smoke binary.  [`Oracle`] executes the same wire lines
//! against a bare engine with the same parsing and rendering code and no
//! sockets or scheduler — the single-threaded replay that concurrency
//! tests compare server replies against, line for line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
pub mod client;
mod conn;
mod event_loop;
pub mod replication;
mod reply;
mod scheduler;
mod server;
mod session;
pub mod supervisor;

pub use backend::Backend;
pub use replication::{ReplReply, ReplicatedBackend, Role};
pub use reply::{error_code, render_count_error, render_wire_error};
pub use server::{Server, ServerStats};
pub use session::Oracle;
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorState, SupervisorStatus};

use std::time::Duration;

/// Tuning knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Size of the command worker pool: at most this many commands
    /// execute concurrently (connections themselves cost no thread — the
    /// reactor multiplexes them all).
    pub workers: usize,
    /// Per-connection pending-command bound.  The reactor stops reading
    /// from a connection whose decoded-but-unexecuted command queue has
    /// reached this depth, and resumes as workers drain it — per-sender
    /// backpressure instead of unbounded buffering.
    pub backlog: usize,
    /// Number of `BATCH` query fan-outs that may run concurrently; further
    /// batches are refused with `ERR BUSY SERVER BUSY …` until a permit
    /// frees up.
    pub batch_permits: usize,
    /// Longest accepted command line in bytes; longer lines are discarded
    /// up to their newline and answered `ERR LINE …`.
    pub max_line_bytes: usize,
    /// Longest accepted `BULK` frame body in bytes.  A header advertising
    /// more is refused with `ERR FRAME …` *before* any allocation — the
    /// advertised length never reserves memory — and the connection
    /// stays in line mode.
    pub max_frame_bytes: usize,
    /// Most commands a single `BATCH … END` may carry.
    pub max_batch_commands: usize,
    /// Socket read poll interval: how quickly an idle connection notices
    /// a server shutdown.
    pub poll_interval: Duration,
    /// Enables the chaos verbs (`PANIC`) used by the crash-recovery
    /// regression tests.  Never enable in production.
    pub chaos: bool,
    /// Auto-compaction waste threshold (`None` disables the policy).
    /// Before every mutating command the engine compacts — an exclusive
    /// write-guard operation, like any mutation — when its reclaimable
    /// waste (tombstoned fact ids plus retired block slots) has reached
    /// this value, or when the fact-id space is exhausted.  With the
    /// policy on, a delete-bearing session under a `--fact-id-cap`
    /// survives indefinitely instead of dying with `ERR EXHAUSTED`.
    pub auto_compact: Option<u64>,
    /// Admin token gating `SHUTDOWN` and the chaos verbs (`SLEEP`,
    /// `PANIC`).  `None` (the default) leaves them open, preserving the
    /// legacy behaviour; with a token set, a connection must first send
    /// `AUTH <token>` or the gated verbs answer `ERR DENIED …` (the
    /// connection stays alive).
    pub admin_token: Option<String>,
    /// Per-connection command rate limit, in commands per second (`None`
    /// disables throttling).  Each connection owns a token bucket with
    /// this capacity and refill rate; a command arriving to an empty
    /// bucket is answered exactly `ERR BUSY RATE LIMITED` (aborting any
    /// open `BATCH`) and is not executed.
    pub rate_limit: Option<u32>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            backlog: 16,
            batch_permits: 2,
            max_line_bytes: 64 * 1024,
            max_frame_bytes: 8 * 1024 * 1024,
            max_batch_commands: 4096,
            poll_interval: Duration::from_millis(100),
            chaos: false,
            auto_compact: None,
            admin_token: None,
            rate_limit: None,
        }
    }
}

impl ServerConfig {
    /// A config bound to the given address, otherwise default.
    pub fn bind(addr: impl Into<String>) -> Self {
        ServerConfig {
            addr: addr.into(),
            ..ServerConfig::default()
        }
    }
}
