//! The server handle: one reactor thread over every socket, a bounded
//! worker pool executing commands.

use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cdr_core::RepairEngine;
use cdr_reactor::Waker;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::backend::Backend;
use crate::event_loop::{reactor_loop, worker_loop, JobQueue};
use crate::replication::{ReplicatedBackend, TailOutcome};
use crate::scheduler::Shared;
use crate::ServerConfig;

/// Counters a [`Server`] accumulates over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Commands received across all connections (one per line, one per
    /// bulk frame).
    pub commands: u64,
    /// `ERR BUSY` replies sent (batch permits exhausted or rate limit).
    pub busy_rejections: u64,
    /// Worker panics caught and recovered from.
    pub recovered_panics: u64,
}

/// A running line-protocol server over one [`RepairEngine`].
///
/// ```no_run
/// use cdr_core::RepairEngine;
/// use cdr_server::{client::Client, Server, ServerConfig};
/// use cdr_workloads::employee_example;
///
/// let (db, keys) = employee_example();
/// let server = Server::start(RepairEngine::new(db, keys), ServerConfig::default()).unwrap();
/// let mut client = Client::connect(server.addr()).unwrap();
/// let reply = client.send("COUNT auto EXISTS n . Employee(2, n, 'IT')").unwrap();
/// assert!(reply.starts_with("OK COUNT 4 "));
/// server.shutdown();
/// server.join();
/// ```
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` (port 0 picks an ephemeral port), spawns the
    /// worker pool and the reactor thread, and returns the running
    /// server.
    pub fn start(engine: RepairEngine, config: ServerConfig) -> std::io::Result<Server> {
        Server::start_backend(Backend::single(engine), config)
    }

    /// Like [`Server::start`], but serves a replicated backend — a
    /// primary over a `--log-dir`, or a bootstrapped follower.  A
    /// follower additionally runs the tailer thread, which keeps pulling
    /// records from the upstream until promotion or shutdown.
    pub fn start_replicated(
        backend: ReplicatedBackend,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::start_backend(Backend::replicated(backend), config)
    }

    fn start_backend(backend: Backend, config: ServerConfig) -> std::io::Result<Server> {
        if let Some(repl) = backend.replication() {
            // The replication sidecar announces (and checks) the serving
            // auto-compaction threshold in the HELLO handshake.
            repl.set_auto_compact(config.auto_compact);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let waker = Waker::new()?;
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared::new(backend, config, waker));
        let jobs = Arc::new(JobQueue::default());

        let mut workers: Vec<JoinHandle<()>> = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let jobs = Arc::clone(&jobs);
                std::thread::Builder::new()
                    .name(format!("cdr-server-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &jobs))
                    .expect("spawning a worker thread")
            })
            .collect();

        {
            use crate::session::EngineHost;
            let is_follower = shared
                .backend()
                .replication()
                .is_some_and(|repl| repl.role() == crate::replication::Role::Follower);
            if is_follower {
                let shared = Arc::clone(&shared);
                let tailer = std::thread::Builder::new()
                    .name("cdr-server-tailer".to_string())
                    .spawn(move || tailer_loop(&shared))
                    .expect("spawning the tailer thread");
                workers.push(tailer);
            }
        }

        let reactor_thread = {
            let shared = Arc::clone(&shared);
            let jobs = Arc::clone(&jobs);
            std::thread::Builder::new()
                .name("cdr-server-reactor".to_string())
                .spawn(move || reactor_loop(&shared, listener, &jobs))
                .expect("spawning the reactor thread")
        };

        Ok(Server {
            addr,
            shared,
            reactor_thread: Some(reactor_thread),
            workers,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            commands: self.shared.commands.load(Ordering::Relaxed),
            busy_rejections: self.shared.busy_rejections.load(Ordering::Relaxed),
            recovered_panics: self.shared.recovered_panics.load(Ordering::Relaxed),
        }
    }

    /// Initiates shutdown: the reactor stops accepting and reading,
    /// flushes pending replies (bounded by a grace period), and workers
    /// drain their queue.  Clients can trigger the same path with the
    /// `SHUTDOWN` command.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for every server thread to exit and returns the final
    /// counters.  Call [`Server::shutdown`] (or have a client send
    /// `SHUTDOWN`) first, or this blocks until one does.
    pub fn join(mut self) -> ServerStats {
        if let Some(reactor) = self.reactor_thread.take() {
            let _ = reactor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.stats()
    }
}

/// Most doublings of the poll interval a failing tailer backs off to.
const TAILER_BACKOFF_DOUBLINGS: u32 = 5;

/// Hard cap on one tailer backoff sleep, jitter included.
const TAILER_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Seed of the tailer's jitter stream.  A constant: the whole backoff
/// schedule is a deterministic function of the failure count, which is
/// what lets the tests replay it.
const TAILER_JITTER_SEED: u64 = 0x7a11_b0ff;

/// The capped exponential backoff (plus bounded seeded jitter) a failing
/// tailer sleeps before retrying a dead upstream: `poll * 2^n` up to the
/// cap, plus up to a quarter of that in jitter so a fleet of followers
/// does not reconnect in lockstep.
fn tailer_backoff(poll: Duration, failures: u32, rng: &mut ChaCha8Rng) -> Duration {
    let doublings = failures.min(TAILER_BACKOFF_DOUBLINGS);
    let base = poll
        .saturating_mul(1u32 << doublings)
        .min(TAILER_BACKOFF_CAP);
    let jitter_budget = (base.as_millis() as u64 / 4).max(1);
    base + Duration::from_millis(rng.gen_range(0..jitter_budget))
}

/// Sleeps `total` in poll-interval chunks so a backing-off tailer still
/// notices shutdown promptly.
fn backoff_sleep(shared: &Shared, total: Duration) {
    let chunk = shared.config.poll_interval.max(Duration::from_millis(5));
    let deadline = Instant::now() + total;
    loop {
        if shared.shutting_down() {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep(chunk.min(deadline - now));
    }
}

/// The follower's replication pump: pull records from the upstream until
/// the server shuts down or this node is promoted.  A panic inside one
/// iteration is counted and recovered like a command handler panic —
/// the pump never dies while the node is still a follower.  Upstream
/// failures back off exponentially (capped, seeded jitter) instead of
/// hammering a dead primary on the hot poll interval.
fn tailer_loop(shared: &Shared) {
    use crate::session::EngineHost;
    let mut rng = ChaCha8Rng::seed_from_u64(TAILER_JITTER_SEED);
    let mut failures: u32 = 0;
    while !shared.shutting_down() {
        let Some(repl) = shared.backend().replication() else {
            return;
        };
        match catch_unwind(AssertUnwindSafe(|| repl.tail_once())) {
            Ok(TailOutcome::Progress) => {
                failures = 0;
                continue;
            }
            Ok(TailOutcome::Idle) => {
                failures = 0;
                std::thread::sleep(shared.config.poll_interval);
            }
            Ok(TailOutcome::Failed) => {
                let backoff = tailer_backoff(shared.config.poll_interval, failures, &mut rng);
                failures = failures.saturating_add(1);
                backoff_sleep(shared, backoff);
            }
            Ok(TailOutcome::Promoted) => return,
            Err(_) => {
                shared.recovered_panics.fetch_add(1, Ordering::Relaxed);
                eprintln!("cdr-server: tailer recovered from a panic");
                std::thread::sleep(shared.config.poll_interval);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backoff schedule is deterministic given the seed, grows
    /// exponentially from the poll interval and saturates at the cap —
    /// jitter included, two replays agree byte for byte.
    #[test]
    fn tailer_backoff_is_capped_exponential_and_deterministic() {
        let poll = Duration::from_millis(25);
        let mut a = ChaCha8Rng::seed_from_u64(TAILER_JITTER_SEED);
        let mut b = ChaCha8Rng::seed_from_u64(TAILER_JITTER_SEED);
        let schedule: Vec<Duration> = (0..12).map(|n| tailer_backoff(poll, n, &mut a)).collect();
        let replay: Vec<Duration> = (0..12).map(|n| tailer_backoff(poll, n, &mut b)).collect();
        assert_eq!(schedule, replay, "the jitter stream is seeded");
        for (n, delay) in schedule.iter().enumerate() {
            let doublings = (n as u32).min(TAILER_BACKOFF_DOUBLINGS);
            let base = poll.saturating_mul(1 << doublings).min(TAILER_BACKOFF_CAP);
            assert!(*delay >= base, "attempt {n}: {delay:?} under base {base:?}");
            assert!(
                *delay <= base + base / 4 + Duration::from_millis(1),
                "attempt {n}: {delay:?} over the jitter budget"
            );
        }
        assert!(schedule[0] < schedule[5], "the schedule grows");
        assert!(
            schedule[11] <= TAILER_BACKOFF_CAP + TAILER_BACKOFF_CAP / 4,
            "the schedule saturates at the cap"
        );
    }
}
