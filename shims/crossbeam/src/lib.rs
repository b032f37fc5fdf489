//! Offline stand-in for the subset of `crossbeam` this workspace
//! uses: MPMC channels (`crossbeam::channel`, backed by a mutex +
//! condvars with crossbeam's disconnect semantics).

pub mod channel {
    //! MPMC channels with the `crossbeam-channel` API shape and
    //! disconnect semantics: a receive on a channel whose senders are
    //! all dropped drains the buffer, then reports disconnection; a
    //! send fails once every receiver is gone.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        /// Waiters blocked in `recv` (signalled on send/disconnect).
        not_empty: Condvar,
        /// Waiters blocked in a bounded `send` (signalled on recv).
        not_full: Condvar,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        capacity: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    /// New channel buffering at most `cap` messages; a `send` past the
    /// bound blocks until a receive frees a slot.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap))
    }

    /// New channel with an unbounded buffer (`send` never blocks).
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                capacity,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// A send failed because every receiver was dropped; the message
    /// comes back to the caller.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Why a `try_send` did not enqueue.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded buffer is at capacity.
        Full(T),
        /// Every receiver was dropped.
        Disconnected(T),
    }

    /// A receive failed: the buffer is empty and every sender was
    /// dropped.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Why a `try_recv` returned no message.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Buffer observed empty (senders still connected).
        Empty,
        /// Buffer empty and every sender dropped.
        Disconnected,
    }

    /// Why a `recv_timeout` returned no message.
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with the buffer still empty.
        Timeout,
        /// Buffer empty and every sender dropped.
        Disconnected,
    }

    /// Producer handle (clonable; the channel disconnects for
    /// receivers when the last clone drops).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Consumer handle (clonable; any clone may receive — each message
    /// goes to exactly one receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.senders -= 1;
            if inner.senders == 0 {
                // Wake receivers so they observe the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                // Wake blocked senders so they observe the disconnect.
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message, blocking while a bounded buffer is
        /// full.
        ///
        /// # Errors
        /// [`SendError`] when every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(msg));
                }
                match inner.capacity {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner = self.shared.not_full.wait(inner).unwrap();
                    }
                    _ => break,
                }
            }
            inner.queue.push_back(msg);
            drop(inner);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Enqueues without blocking.
        ///
        /// # Errors
        /// [`TrySendError::Full`] at capacity,
        /// [`TrySendError::Disconnected`] when every receiver is gone.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if let Some(cap) = inner.capacity {
                if inner.queue.len() >= cap {
                    return Err(TrySendError::Full(msg));
                }
            }
            inner.queue.push_back(msg);
            drop(inner);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues the oldest message, blocking while the buffer is
        /// empty.
        ///
        /// # Errors
        /// [`RecvError`] once the buffer is empty *and* every sender
        /// has been dropped (buffered messages are always delivered
        /// first).
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(msg) = inner.queue.pop_front() {
                    drop(inner);
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.shared.not_empty.wait(inner).unwrap();
            }
        }

        /// Dequeues with a deadline.
        ///
        /// # Errors
        /// [`RecvTimeoutError::Timeout`] when `timeout` elapses first,
        /// [`RecvTimeoutError::Disconnected`] on an empty,
        /// sender-less channel.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(msg) = inner.queue.pop_front() {
                    drop(inner);
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .shared
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
            }
        }

        /// Dequeues without blocking.
        ///
        /// # Errors
        /// [`TryRecvError::Empty`] with live senders,
        /// [`TryRecvError::Disconnected`] without.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            if let Some(msg) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if inner.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Number of buffered messages right now.
        pub fn len(&self) -> usize {
            self.shared.inner.lock().unwrap().queue.len()
        }

        /// `true` when no messages are buffered.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn channel_fifo_and_try_recv() {
        use crate::channel::{unbounded, TryRecvError};
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn bounded_try_send_reports_full() {
        use crate::channel::{bounded, TrySendError};
        let (tx, rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
    }

    #[test]
    fn disconnect_drains_buffer_first() {
        use crate::channel::{unbounded, RecvError};
        let (tx, rx) = unbounded();
        tx.send("a").unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok("a"));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_without_receivers() {
        use crate::channel::{unbounded, SendError};
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use crate::channel::{bounded, RecvTimeoutError};
        use std::time::Duration;
        let (tx, rx) = bounded::<i32>(4);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
    }

    #[test]
    fn channel_crosses_threads_mpmc() {
        use crate::channel::unbounded;
        let (tx, rx) = unbounded::<usize>();
        let rx2 = rx.clone();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..25 {
                        tx.send(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = [rx, rx2]
            .into_iter()
            .map(|rx| {
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..4)
            .flat_map(|p| (0..25).map(move |i| p * 100 + i))
            .collect();
        assert_eq!(all, expected);
    }
}
