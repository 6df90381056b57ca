//! The shared serving state: the engine behind its read/write lock, the
//! bounded batch-permit pool, shutdown signalling and counters.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use cdr_reactor::Waker;

use crate::backend::Backend;
use crate::session::EngineHost;
use crate::ServerConfig;

/// Everything worker threads share.
///
/// The engine sits behind a [`Backend`]: one `RwLock` whose read guards
/// run queries concurrently and whose write guard drains every in-flight
/// query and applies atomically (the engine's `&mut self` mutation
/// barrier, realised at the network layer), with the replication sidecar
/// appending to its log under that same write guard.  Every guard helper
/// *recovers* from poisoning — a panicking handler is caught by its
/// worker, counted, and must not wedge the whole server.  Recovery is
/// sound because handlers only panic outside engine mutation paths (the
/// engine's own `apply` returns errors rather than panicking since the
/// fact-id exhaustion fix), so a poisoned lock still guards a consistent
/// engine.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    backend: Backend,
    /// Remaining `BATCH` fan-out permits (see [`ServerConfig::batch_permits`]).
    batch_permits: Mutex<usize>,
    shutdown: AtomicBool,
    /// The reactor's waker — workers nudge it after buffering replies,
    /// and shutdown uses it so the event loop notices without traffic.
    waker: Waker,
    pub(crate) connections: AtomicU64,
    pub(crate) commands: AtomicU64,
    pub(crate) busy_rejections: AtomicU64,
    pub(crate) recovered_panics: AtomicU64,
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Shared {
    pub(crate) fn new(backend: Backend, config: ServerConfig, waker: Waker) -> Self {
        Shared {
            batch_permits: Mutex::new(config.batch_permits),
            config,
            backend,
            shutdown: AtomicBool::new(false),
            waker,
            connections: AtomicU64::new(0),
            commands: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            recovered_panics: AtomicU64::new(0),
        }
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn waker(&self) -> &Waker {
        &self.waker
    }

    /// Flags shutdown and wakes the reactor so it notices without
    /// waiting for outside traffic or the next poll tick.
    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.waker.wake();
    }
}

/// Puts a taken batch permit back even if the batch panics.
struct PermitGuard<'a>(&'a Mutex<usize>);

impl Drop for PermitGuard<'_> {
    fn drop(&mut self) {
        *lock(self.0) += 1;
    }
}

impl EngineHost for Shared {
    fn backend(&self) -> &Backend {
        &self.backend
    }

    fn with_batch_permit<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        {
            let mut permits = lock(&self.batch_permits);
            if *permits == 0 {
                self.busy_rejections.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            *permits -= 1;
        }
        let guard = PermitGuard(&self.batch_permits);
        let result = f();
        drop(guard);
        Some(result)
    }

    fn chaos(&self) -> bool {
        self.config.chaos
    }

    fn max_batch_commands(&self) -> usize {
        self.config.max_batch_commands
    }

    fn auto_compact_threshold(&self) -> Option<u64> {
        self.config.auto_compact
    }

    fn admin_token(&self) -> Option<&str> {
        self.config.admin_token.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdr_core::RepairEngine;
    use cdr_workloads::employee_example;

    fn single_shared(permits: usize) -> Shared {
        let (db, keys) = employee_example();
        let mut config = ServerConfig::bind("127.0.0.1:0");
        config.batch_permits = permits;
        let waker = Waker::new().expect("loopback waker");
        Shared::new(Backend::single(RepairEngine::new(db, keys)), config, waker)
    }

    /// The permit-pool audit: a batch that panics mid-fan-out must put
    /// its permit back on unwind (the [`PermitGuard`] drop), or the pool
    /// would leak down to permanent `ERR BUSY`.
    #[test]
    fn a_panicking_batch_returns_its_permit() {
        let shared = single_shared(1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.with_batch_permit(|| -> () { panic!("fan-out phase blew up") })
        }));
        assert!(unwound.is_err());
        assert_eq!(shared.with_batch_permit(|| 7), Some(7));
        assert_eq!(shared.busy_rejections.load(Ordering::Relaxed), 0);
    }

    /// An exhausted pool refuses immediately (counted as a busy
    /// rejection) and recovers as soon as the holder finishes — error or
    /// not, the permit travels back through the normal return path.
    #[test]
    fn an_exhausted_pool_rejects_then_recovers() {
        let shared = single_shared(1);
        let held = shared.with_batch_permit(|| {
            assert_eq!(shared.with_batch_permit(|| ()), None);
            let failed: Result<(), &str> = Err("every item of the batch failed");
            failed
        });
        assert_eq!(held, Some(Err("every item of the batch failed")));
        assert_eq!(shared.busy_rejections.load(Ordering::Relaxed), 1);
        assert_eq!(shared.with_batch_permit(|| 7), Some(7));
    }
}
