//! Offline shim for `crossbeam`: an MPMC channel with timeouts and a
//! scoped-thread API over `std::thread::scope`.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: Mutex<Queue<T>>,
        ready: Condvar,
        senders: AtomicUsize,
    }

    /// The channel's items plus the receivers blocked waiting for one, so
    /// a send wakes the condvar only when someone sleeps on it (a futex
    /// wake is a syscall even with no waiter).
    struct Queue<T> {
        items: VecDeque<T>,
        waiting: usize,
    }

    /// The sending half; cloneable.
    pub struct Sender<T>(Arc<Inner<T>>);

    /// The receiving half; cloneable (MPMC — receivers steal from one queue).
    pub struct Receiver<T>(Arc<Inner<T>>);

    /// Error from [`Sender::send`]: every receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Errors from [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived within the timeout.
        Timeout,
        /// Every sender is gone and the queue is drained.
        Disconnected,
    }

    /// Errors from [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Queue currently empty.
        Empty,
        /// Every sender is gone and the queue is drained.
        Disconnected,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                waiting: 0,
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
        });
        (Sender(Arc::clone(&inner)), Receiver(inner))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::Relaxed);
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Wake receivers so they observe the disconnect.
                let _guard = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a value; fails only if all receivers are gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            // senders + receivers share the Arc; receivers present iff the
            // strong count exceeds the sender count.
            if Arc::strong_count(&self.0) <= self.0.senders.load(Ordering::Relaxed) {
                return Err(SendError(value));
            }
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.items.push_back(value);
            if q.waiting > 0 {
                self.0.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks for the next value or until `timeout` elapses.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.items.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                q.waiting += 1;
                let (guard, wait) = self
                    .0
                    .ready
                    .wait_timeout(q, remaining)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
                q.waiting -= 1;
                if wait.timed_out() {
                    return match q.items.pop_front() {
                        Some(v) => Ok(v),
                        None if self.0.senders.load(Ordering::Acquire) == 0 => {
                            Err(RecvTimeoutError::Disconnected)
                        }
                        None => Err(RecvTimeoutError::Timeout),
                    };
                }
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            match q.items.pop_front() {
                Some(v) => Ok(v),
                None if self.0.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }
    }
}

pub mod thread {
    use std::any::Any;

    /// The spawn handle passed to [`scope`] closures.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Join handle for a scoped thread.
    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread and returns its result.
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.0.join()
        }

        /// Whether the thread has finished running (non-blocking).
        pub fn is_finished(&self) -> bool {
            self.0.is_finished()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. The closure receives the scope again (for
        /// nested spawns), matching crossbeam's signature.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle(inner.spawn(move || f(&Scope { inner })))
        }
    }

    /// Runs `f` with a scope in which borrowed-data threads can be spawned;
    /// all threads are joined before returning. Unlike crossbeam, a child
    /// panic propagates out of `scope` (via `std::thread::scope`) instead of
    /// surfacing in the returned `Result`, which only the panic path of
    /// callers can observe.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}
