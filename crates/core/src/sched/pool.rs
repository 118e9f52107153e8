//! Worker-pool lifecycle: spawn, pause/resume, join.
//!
//! Routed deltas do not travel through the workers' channels — they live
//! in the shared per-shard inboxes (`crate::sched::steal`) — and neither
//! do controls, which run on the calling thread. The channels carry wake
//! nudges, background sweeps, pause and stop, so they never need to
//! block the update path: `SHARD_QUEUE_CAP` merely bounds how many
//! messages can be queued ahead of a worker. A pool may have no workers
//! at all (`sched_workers: 0`): then callers do every claim.

use crate::sched::shard::{ShardMsg, ShardWorker};
use crate::sched::steal::SchedShared;
use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Capacity of each worker's message queue. Wake nudges are dropped (not
/// blocked) when the queue is full, so a full queue never stalls
/// ingestion.
pub const SHARD_QUEUE_CAP: usize = 256;

struct ShardHandle {
    tx: Sender<ShardMsg>,
    handle: Option<JoinHandle<()>>,
}

/// `N` worker threads, each serving one shard of the sketch store (and,
/// with work stealing on, helping with any other shard's backlog).
pub struct ShardPool {
    shards: Vec<ShardHandle>,
    /// Resume senders of outstanding pauses, so dropping the pool while a
    /// [`PausedShards`] guard is still alive unparks the workers instead
    /// of deadlocking the join (sends to already-resumed workers are
    /// harmless no-ops).
    paused: Mutex<Vec<Sender<()>>>,
}

impl ShardPool {
    /// Spawn `workers` shard threads (worker `i` serves shard `i`) over
    /// `shared`.
    pub(crate) fn spawn(workers: usize, shared: &Arc<SchedShared>) -> ShardPool {
        let mut txs = Vec::with_capacity(workers);
        let shards = (0..workers)
            .map(|id| {
                let (tx, rx) = bounded::<ShardMsg>(SHARD_QUEUE_CAP);
                txs.push(tx.clone());
                let worker = ShardWorker::new(id, rx, Arc::clone(shared));
                let handle = std::thread::Builder::new()
                    .name(format!("imp-shard-{id}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard worker");
                ShardHandle {
                    tx,
                    handle: Some(handle),
                }
            })
            .collect();
        shared.set_wakers(txs);
        ShardPool {
            shards,
            paused: Mutex::new(Vec::new()),
        }
    }

    /// Number of worker threads.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True iff the pool has no workers (`sched_workers: 0`).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Send a message to one worker (blocking while its queue is full).
    pub(crate) fn send(&self, shard: usize, msg: ShardMsg) {
        let _ = self.shards[shard].tx.send(msg);
    }

    /// Park every worker (acked), returning the resume handles.
    pub(crate) fn pause(&self) -> PausedShards {
        let mut resumes = Vec::with_capacity(self.shards.len());
        let mut acks = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            let (ack_tx, ack_rx) = bounded::<()>(1);
            let (resume_tx, resume_rx) = bounded::<()>(1);
            self.send(
                shard,
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
        for shard in 0..self.shards.len() {
            self.send(shard, ShardMsg::Stop);
        }
        for s in &mut self.shards {
            if let Some(handle) = s.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Guard returned by [`crate::sched::Scheduler::pause`]: every shard
/// worker is parked (their inboxes keep filling — the deterministic way
/// to observe coalescing and queue depth). Dropping the guard resumes
/// them.
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
