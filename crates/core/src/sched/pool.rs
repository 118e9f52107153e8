//! Worker-pool lifecycle: spawn, the one wake signal, pause/resume, join.
//!
//! A worker only needs to learn that there is work, that it must park,
//! or that it must exit: one [`Wake`] signal, a small state behind one
//! mutex with one condition variable every worker waits on. A sweep
//! request is a flag, so no request is ever dropped.

use crate::sched::shard::ShardWorker;
use crate::sched::store::SchedShared;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// What the workers wait for (guarded by [`Wake`]'s mutex).
#[derive(Default)]
struct Signal {
    /// A sweep was asked for and no worker has taken the request yet.
    sweep: bool,
    /// Live [`PausedShards`] guards: workers park while there is one.
    pauses: usize,
    /// Workers parked, or gone for good (see [`Wake::gone`]).
    parked: usize,
    /// The pool is dropping: every worker exits, paused or not.
    stop: bool,
}

/// The workers' one wake signal.
#[derive(Default)]
pub(crate) struct Wake {
    signal: Mutex<Signal>,
    changed: Condvar,
}

impl Wake {
    /// Nothing panics holding the signal: a poisoned one is consistent.
    fn signal(&self) -> MutexGuard<'_, Signal> {
        self.signal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, signal: MutexGuard<'a, Signal>) -> MutexGuard<'a, Signal> {
        (self.changed.wait(signal)).unwrap_or_else(PoisonError::into_inner)
    }

    /// Ask for a sweep and wake one idle worker; never blocks.
    pub(crate) fn nudge(&self) {
        self.signal().sweep = true;
        self.changed.notify_one();
    }

    /// Take a pending sweep request without waiting.
    pub(crate) fn take(&self) -> bool {
        std::mem::take(&mut self.signal().sweep)
    }

    /// A worker's wait for its next sweep: parked while a pause lives,
    /// idle until a sweep is asked for, whose request it takes. `false`
    /// once the pool stops.
    pub(crate) fn next_sweep(&self) -> bool {
        let mut signal = self.signal();
        loop {
            if signal.stop {
                return false;
            } else if signal.pauses > 0 {
                signal.parked += 1;
                self.changed.notify_all(); // the pauser counts parked workers
                while signal.pauses > 0 && !signal.stop {
                    signal = self.wait(signal);
                }
                signal.parked -= 1;
            } else if std::mem::take(&mut signal.sweep) {
                return true;
            } else {
                signal = self.wait(signal);
            }
        }
    }

    /// A worker's thread ended (even by a panic): it counts as parked.
    pub(crate) fn gone(&self) {
        self.set(|signal| signal.parked += 1);
    }

    /// Change the signal and wake every waiter: workers and a pauser.
    fn set(&self, change: impl FnOnce(&mut Signal)) {
        change(&mut self.signal());
        self.changed.notify_all();
    }
}

/// `N` worker threads, all sweeping the one sketch store.
pub struct ShardPool {
    shared: Arc<SchedShared>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawn `workers` worker threads over `shared`.
    pub(crate) fn spawn(workers: usize, shared: &Arc<SchedShared>) -> ShardPool {
        let handles = (0..workers)
            .map(|id| {
                let worker = ShardWorker::new(Arc::clone(shared));
                std::thread::Builder::new()
                    .name(format!("imp-worker-{id}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker")
            })
            .collect();
        let shared = Arc::clone(shared);
        ShardPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True iff the pool has no workers (`sched_workers: 0`).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Raise the pause count and wait until every worker is parked.
    pub(crate) fn pause(&self) -> PausedShards {
        let wake = &self.shared.wake;
        wake.set(|signal| signal.pauses += 1);
        let mut signal = wake.signal();
        while signal.parked < self.handles.len() {
            signal = wake.wait(signal);
        }
        let shared = Arc::clone(&self.shared);
        PausedShards { shared }
    }
}

impl Drop for ShardPool {
    /// Stop every worker, paused ones too, and join them.
    fn drop(&mut self) {
        self.shared.wake.set(|signal| signal.stop = true);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Guard returned by [`crate::sched::Scheduler::pause`]: every worker is
/// parked (updates keep being noted — the deterministic way to observe a
/// backlog). Dropping the guard resumes them; a sweep asked for while
/// they were parked is still pending, so one of them takes it.
pub struct PausedShards {
    shared: Arc<SchedShared>,
}

impl PausedShards {
    /// Unpark all workers.
    pub fn resume(self) {
        drop(self);
    }
}

impl Drop for PausedShards {
    fn drop(&mut self) {
        self.shared.wake.set(|signal| signal.pauses -= 1);
    }
}
