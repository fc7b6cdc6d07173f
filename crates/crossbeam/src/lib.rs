//! Std-only, in-workspace implementation of the subset of
//! `crossbeam::channel` this workspace uses.
//!
//! The build environment has no crates.io access, so the external
//! `crossbeam` crate cannot resolve; this crate keeps every
//! `use crossbeam::channel::…` call site compiling unchanged. Unlike
//! `std::sync::mpsc`, both [`channel::Sender`] and [`channel::Receiver`]
//! here are `Sync` and cloneable, which the transport layer relies on.

#![warn(missing_docs)]

pub mod channel {
    //! Multi-producer multi-consumer FIFO channels.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers inside a condvar wait. Only they need a notify —
        /// a futex syscall on Linux even when nobody is parked; any
        /// other receiver takes the lock and sees the queue.
        parked: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        cv: Condvar,
    }

    /// The sending half of a channel. Cloneable and `Sync`.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel. Cloneable and `Sync`.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// The message could not be delivered: every receiver is gone.
    pub struct SendError<T>(pub T);

    /// Every sender is gone and the queue is drained.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Why a timed receive returned no message.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the deadline.
        Timeout,
        /// Every sender is gone and the queue is drained.
        Disconnected,
    }

    /// Why a non-blocking receive returned no message.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The queue is currently empty.
        Empty,
        /// Every sender is gone and the queue is drained.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                parked: 0,
            }),
            cv: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates a channel with a capacity hint. This implementation does
    /// not block producers (the workspace only uses small bounds for
    /// one-shot reply channels, where the distinction is unobservable).
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    fn lock<T>(shared: &Shared<T>) -> std::sync::MutexGuard<'_, Inner<T>> {
        shared
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    impl<T> Sender<T> {
        /// Enqueues `value`.
        ///
        /// # Errors
        ///
        /// Returns the value back when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = lock(&self.shared);
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            let parked = inner.parked > 0;
            drop(inner);
            if parked {
                self.shared.cv.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            lock(&self.shared).senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = lock(&self.shared);
            inner.senders -= 1;
            let last = inner.senders == 0;
            drop(inner);
            if last {
                // Wake receivers so they observe the disconnect.
                self.shared.cv.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives.
        ///
        /// # Errors
        ///
        /// [`RecvError`] when every sender is gone and the queue is empty.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = lock(&self.shared);
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner.parked += 1;
                inner = self
                    .shared
                    .cv
                    .wait(inner)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                inner.parked -= 1;
            }
        }

        /// Blocks up to `timeout` for a message.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] when nothing arrived in time,
        /// [`RecvTimeoutError::Disconnected`] when every sender is gone.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = lock(&self.shared);
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner.parked += 1;
                let (guard, res) = self
                    .shared
                    .cv
                    .wait_timeout(inner, left)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                inner = guard;
                inner.parked -= 1;
                if res.timed_out() && inner.queue.is_empty() {
                    return if inner.senders == 0 {
                        Err(RecvTimeoutError::Disconnected)
                    } else {
                        Err(RecvTimeoutError::Timeout)
                    };
                }
            }
        }

        /// Returns a queued message without blocking.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when the queue is empty,
        /// [`TryRecvError::Disconnected`] when drained and senderless.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = lock(&self.shared);
            match inner.queue.pop_front() {
                Some(v) => Ok(v),
                None if inner.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            lock(&self.shared).queue.len()
        }

        /// `true` when no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            lock(&self.shared).receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            lock(&self.shared).receivers -= 1;
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn fifo_order_and_len() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn drop_receiver_fails_send() {
            let (tx, rx) = bounded(1);
            drop(rx);
            assert!(tx.send(7).is_err());
        }

        #[test]
        fn drop_all_senders_disconnects() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(9).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(9)); // drain first
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(20)),
                Err(RecvTimeoutError::Timeout)
            );
            let h = thread::spawn(move || tx.send(42).unwrap());
            assert_eq!(rx.recv_timeout(Duration::from_secs(2)), Ok(42));
            h.join().unwrap();
        }

        /// Skipping the notify when nobody is parked must lose no
        /// wake-up: a consumer that alternates short timed waits with
        /// polls sees every value once and never sleeps out a full
        /// timeout beside a non-empty queue.
        #[test]
        fn unparked_sends_lose_no_wakeup() {
            const PRODUCERS: u64 = 4;
            const EACH: u64 = 100_000;
            let (tx, rx) = unbounded::<u64>();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    thread::spawn(move || (0..EACH).for_each(|i| tx.send(p * EACH + i).unwrap()))
                })
                .collect();
            drop(tx);
            let mut seen = vec![false; (PRODUCERS * EACH) as usize];
            let mut record = |v: u64| assert!(!std::mem::replace(&mut seen[v as usize], true));
            let mut longest = Duration::ZERO;
            loop {
                let t0 = Instant::now();
                match rx.recv_timeout(Duration::from_micros(50)) {
                    Ok(v) => record(v),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                longest = longest.max(t0.elapsed());
                if let Ok(v) = rx.try_recv() {
                    record(v);
                }
            }
            // The blocking flavour parks too: one last hand-over.
            let (tx, rx) = unbounded();
            let h = thread::spawn(move || rx.recv());
            while lock(&tx.shared).parked == 0 {
                thread::yield_now();
            }
            tx.send(7u8).unwrap();
            assert_eq!(h.join().unwrap(), Ok(7));
            producers.into_iter().for_each(|p| p.join().unwrap());
            assert!(seen.iter().all(|&s| s), "every value received");
            assert!(longest < Duration::from_secs(1), "stalled {longest:?}");
        }

        #[test]
        fn cross_thread_wakeup() {
            let (tx, rx) = unbounded();
            let h = thread::spawn(move || rx.recv().unwrap());
            thread::sleep(Duration::from_millis(10));
            tx.send("hi").unwrap();
            assert_eq!(h.join().unwrap(), "hi");
        }
    }
}
