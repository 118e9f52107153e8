//! Offline shim for `crossbeam`, backed by `std::sync::mpsc`.
//!
//! Provides [`channel::bounded`] and its [`channel::Sender`] /
//! [`channel::Receiver`] halves with their error types — the subset this
//! workspace uses. The one periodic thread
//! (`imp_core::strategy::BackgroundMaintainer`) waits on a dedicated stop
//! channel with [`channel::Receiver::recv_timeout`]: real OS blocking
//! with an exact deadline, so stopping it is immediate. The
//! scheduler's workers use no channel at all; they wait on one condition
//! variable (`imp_core::sched::pool`).
//!
//! Fidelity deltas vs. the real crate: no `unbounded` channels, no
//! `select!` or `tick`, no dynamic `Select`, and a zero-capacity
//! `bounded` degrades to capacity 1 (no rendezvous semantics).

pub mod channel {
    //! Multi-producer channels (mpsc-backed subset).

    use std::sync::mpsc;
    use std::time::Duration;

    /// Error returned by [`Receiver::recv`] when the channel is closed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// Channel is closed and drained.
        Disconnected,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug)]
    pub enum TrySendError<T> {
        /// Channel is at capacity.
        Full(T),
        /// All receivers are gone.
        Disconnected(T),
    }

    /// Sending half of a bounded channel.
    #[derive(Debug)]
    pub struct Sender<T> {
        inner: mpsc::SyncSender<T>,
    }

    // Manual impl: senders clone regardless of `T: Clone` (derive would
    // wrongly bound it), matching the real crossbeam API.
    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Sender<T> {
        /// Block until the message is enqueued (or the channel closes).
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.inner
                .send(msg)
                .map_err(|mpsc::SendError(m)| SendError(m))
        }

        /// Enqueue without blocking.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            self.inner.try_send(msg).map_err(|e| match e {
                mpsc::TrySendError::Full(m) => TrySendError::Full(m),
                mpsc::TrySendError::Disconnected(m) => TrySendError::Disconnected(m),
            })
        }
    }

    /// Receiving half of a bounded channel.
    #[derive(Debug)]
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives (or the channel closes).
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv().map_err(|_| RecvError)
        }

        /// Block until a message arrives, the channel closes, or `timeout`
        /// elapses. Backed by the OS primitive of
        /// [`mpsc::Receiver::recv_timeout`] — no polling.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }
    }

    /// Channel with capacity `cap` (`cap = 0` degrades to capacity 1; the
    /// rendezvous semantics of crossbeam's zero-capacity channel are not
    /// reproduced).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (inner, rx) = mpsc::sync_channel(cap.max(1));
        (Sender { inner }, Receiver { inner: rx })
    }
}

#[cfg(test)]
mod tests {
    use super::channel::bounded;
    use std::time::Duration;

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use super::channel::RecvTimeoutError;
        let (tx, rx) = bounded::<u32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Ok(7));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
