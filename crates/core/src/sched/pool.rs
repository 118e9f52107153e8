//! Worker-pool lifecycle: spawn, pause/resume, join.
//!
//! Routed deltas do not travel through the workers' channels — they live
//! in the store's shared inbox (`crate::sched::inbox`) — and neither do
//! controls, which run on the calling thread. The channels carry wake
//! nudges, background sweeps, pause and stop; nudges and sweeps are sent
//! without blocking, so `SHARD_QUEUE_CAP` merely bounds how many messages
//! can be queued ahead of a worker. A pool may have no workers at all
//! (`sched_workers: 0`): then callers do every claim.

use crate::sched::inbox::SchedShared;
use crate::sched::shard::{ShardMsg, ShardWorker};
use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Capacity of each worker's message queue. Wake nudges and sweeps are
/// dropped (not blocked) when the queue is full, so a full queue never
/// stalls ingestion or a maintenance tick.
pub const SHARD_QUEUE_CAP: usize = 256;

struct WorkerHandle {
    tx: Sender<ShardMsg>,
    handle: Option<JoinHandle<()>>,
}

/// `N` worker threads, all claiming from the sketch store's one inbox.
pub struct ShardPool {
    workers: Vec<WorkerHandle>,
    /// Resume senders of outstanding pauses, so dropping the pool while a
    /// [`PausedShards`] guard is still alive unparks the workers instead
    /// of deadlocking the join (sends to already-resumed workers are
    /// harmless no-ops).
    paused: Mutex<Vec<Sender<()>>>,
}

impl ShardPool {
    /// Spawn `workers` worker threads over `shared`.
    pub(crate) fn spawn(workers: usize, shared: &Arc<SchedShared>) -> ShardPool {
        let mut txs = Vec::with_capacity(workers);
        let handles = (0..workers)
            .map(|id| {
                let (tx, rx) = bounded::<ShardMsg>(SHARD_QUEUE_CAP);
                txs.push(tx.clone());
                let worker = ShardWorker::new(id, rx, Arc::clone(shared));
                let handle = std::thread::Builder::new()
                    .name(format!("imp-worker-{id}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker");
                WorkerHandle {
                    tx,
                    handle: Some(handle),
                }
            })
            .collect();
        shared.set_wakers(txs);
        ShardPool {
            workers: handles,
            paused: Mutex::new(Vec::new()),
        }
    }

    /// Number of worker threads.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True iff the pool has no workers (`sched_workers: 0`).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Send a message to one worker (blocking while its queue is full).
    fn send(&self, worker: usize, msg: ShardMsg) {
        let _ = self.workers[worker].tx.send(msg);
    }

    /// Park every worker (acked), returning the resume handles.
    pub(crate) fn pause(&self) -> PausedShards {
        let mut resumes = Vec::with_capacity(self.workers.len());
        let mut acks = Vec::with_capacity(self.workers.len());
        for worker in 0..self.workers.len() {
            let (ack_tx, ack_rx) = bounded::<()>(1);
            let (resume_tx, resume_rx) = bounded::<()>(1);
            self.send(
                worker,
                ShardMsg::Pause {
                    ack: ack_tx,
                    resume: resume_rx,
                },
            );
            acks.push(ack_rx);
            resumes.push(resume_tx);
        }
        for ack in acks {
            let _ = ack.recv();
        }
        self.paused.lock().extend(resumes.iter().cloned());
        PausedShards { resumes }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Unpark workers whose PausedShards guard is still alive — they
        // must drain to their Stop message for the join to return.
        for tx in self.paused.lock().drain(..) {
            let _ = tx.send(());
        }
        for worker in 0..self.workers.len() {
            self.send(worker, ShardMsg::Stop);
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Guard returned by [`crate::sched::Scheduler::pause`]: every worker is
/// parked (the inbox keeps filling — the deterministic way to observe
/// coalescing and queue depth). Dropping the guard resumes them.
pub struct PausedShards {
    resumes: Vec<Sender<()>>,
}

impl PausedShards {
    /// Unpark all workers.
    pub fn resume(self) {
        drop(self); // Drop impl sends the resumes
    }
}

impl Drop for PausedShards {
    fn drop(&mut self) {
        for tx in &self.resumes {
            let _ = tx.send(());
        }
    }
}
