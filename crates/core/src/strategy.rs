//! Maintenance strategies (paper §2, §8.5).
//!
//! * **Eager**: maintain every sketch that may be affected right after an
//!   update, optionally batching — "eager maintenance can be configured to
//!   batch updates"; maintenance triggers once the number of pending delta
//!   rows reaches the batch size.
//! * **Lazy**: updates pass straight to the database; a stale sketch is
//!   maintained only when a query needs it.
//!
//! "More advanced strategies can be designed on top of these two
//! primitives, e.g., triggering eager maintenance during times of low
//! resource usage": [`BackgroundMaintainer`] is that primitive — a thread
//! that periodically ticks maintenance while the system is otherwise
//! idle. It waits for the next tick on its stop channel
//! (`recv_timeout(interval)`), so stopping it is immediate. Without
//! workers a tick maintains every stale sketch on the ticker thread; with
//! a worker pool ([`crate::sched`]) a tick merely raises the workers'
//! wake signal — a worker does the maintenance, and the `Imp` lock is
//! held only for the request.

use crate::middleware::Imp;
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// When sketches are maintained relative to updates. Either way a query
/// that finds its sketch stale maintains it first. With workers
/// (`ImpConfig::sched_workers ≥ 1`) neither applies to updates: each one
/// asks the workers to sweep every stale sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceStrategy {
    /// Maintain affected sketches as soon as `batch_size` delta rows have
    /// accumulated for them (1 = maintain on every update), on the
    /// updating thread.
    Eager {
        /// Pending-row threshold that triggers maintenance.
        batch_size: usize,
    },
    /// Maintain a sketch only when a query needs it.
    #[default]
    Lazy,
}

/// Periodic background maintenance worker.
pub struct BackgroundMaintainer {
    stop: Sender<()>,
    handle: Option<JoinHandle<()>>,
}

impl BackgroundMaintainer {
    /// Spawn a thread that maintains all stale sketches every `interval`.
    pub fn spawn(imp: Arc<Mutex<Imp>>, interval: Duration) -> BackgroundMaintainer {
        let (stop_tx, stop_rx) = bounded::<()>(1);
        let handle = std::thread::spawn(move || {
            // A stop (or a dropped sender) ends the loop; a timeout is a tick.
            while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                // Best effort: a failure here surfaces on the next
                // foreground maintenance of the same sketch. With a worker
                // pool this only asks for a sweep; a worker maintains off
                // this thread.
                let _ = imp.lock().tick_maintenance();
            }
        });
        BackgroundMaintainer {
            stop: stop_tx,
            handle: Some(handle),
        }
    }

    /// Stop the worker and wait for it to exit.
    pub fn stop(mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for BackgroundMaintainer {
    fn drop(&mut self) {
        let _ = self.stop.try_send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
