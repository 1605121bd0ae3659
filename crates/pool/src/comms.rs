//! Channel primitives for request-driven serving: a hand-rolled MPMC
//! queue and a one-shot completion slot.
//!
//! No crates-registry channel library is available to this workspace, so
//! the serving front door (`fixar-serve`) builds on these two std-only
//! primitives:
//!
//! * [`MpmcQueue`] — an unbounded multi-producer/multi-consumer queue
//!   with blocking, deadline-bounded, and non-blocking pops. Producers
//!   are request submitters; consumers are the per-shard batcher
//!   threads. [`MpmcQueue::close`] drains gracefully: queued items stay
//!   poppable, new pushes are rejected, and blocked consumers wake.
//! * [`oneshot`] — a single-value completion slot: the batcher sends
//!   exactly one response, the requesting client blocks on
//!   [`OneShotReceiver::recv`]. Dropping either end unblocks the other
//!   (a dropped sender surfaces as [`ChannelClosed`] instead of a
//!   deadlock).
//!
//! Both are plain `Mutex` + `Condvar` state machines — no spinning, no
//! unsafe code, FIFO per queue (ordering across producers is the lock
//! acquisition order, which serving does not rely on for determinism:
//! the served *values* are batch-composition-independent by the kernel
//! bit-exactness contract).
//!
//! **A hand-off wakes only a sleeper.** On Linux, std's
//! `Condvar::notify_one` is a futex syscall whether or not any thread
//! waits, and a served request crosses three hand-offs (push, send,
//! sender drop). So each state records who is asleep on its condvar —
//! the queue counts the consumers inside `pop` / `pop_deadline`, the
//! slot flags a receiver inside `recv` — and a hand-off notifies only
//! when that record says someone sleeps; a sender that has sent is
//! done, and its drop takes no lock. A wake-up cannot be lost: the
//! record and the items sit under the same mutex, a waiter enters the
//! record before it sleeps and leaves it after it wakes (for any
//! reason), and it re-checks for an item before every sleep.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Error returned when the other side of a [`oneshot`] slot or a closed
/// [`MpmcQueue`] makes the operation impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelClosed;

impl fmt::Display for ChannelClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel closed")
    }
}

impl Error for ChannelClosed {}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers asleep on `ready` in `pop` / `pop_deadline`.
    sleepers: usize,
}

/// Unbounded multi-producer/multi-consumer FIFO queue with blocking and
/// deadline-bounded pops — the request spine of the serving front door.
///
/// # Example
///
/// ```
/// use fixar_pool::MpmcQueue;
///
/// let q = MpmcQueue::new();
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// assert_eq!(q.pop(), Some(1));
/// q.close();
/// assert!(q.push(3).is_err()); // closed: no new items...
/// assert_eq!(q.pop(), Some(2)); // ...but queued ones drain
/// assert_eq!(q.pop(), None); // drained + closed
/// ```
pub struct MpmcQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

impl<T> Default for MpmcQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MpmcQueue<T> {
    /// Creates an empty open queue.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                sleepers: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues `item`, waking one blocked consumer if any is asleep.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        let wake = state.sleepers > 0;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Dequeues without blocking; `None` when the queue is momentarily
    /// empty (closed or not).
    pub fn try_pop(&self) -> Option<T> {
        self.state.lock().expect("queue lock").items.pop_front()
    }

    /// Dequeues, blocking until an item arrives. Returns `None` only
    /// when the queue is closed **and** drained — the consumer's
    /// shutdown signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.sleepers += 1;
            state = self.ready.wait(state).expect("queue wait");
            state.sleepers -= 1;
        }
    }

    /// Dequeues, blocking until an item arrives, `deadline` passes, or
    /// the queue closes empty. `None` means "no item by the deadline" —
    /// the batcher's flush signal.
    pub fn pop_deadline(&self, deadline: Instant) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            let now = Instant::now();
            let remaining = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())?;
            state.sleepers += 1;
            let (guard, timeout) = self
                .ready
                .wait_timeout(state, remaining)
                .expect("queue wait");
            state = guard;
            state.sleepers -= 1;
            if timeout.timed_out() && state.items.is_empty() {
                return None;
            }
        }
    }

    /// Closes the queue: subsequent pushes fail, queued items remain
    /// poppable, and every blocked consumer wakes (returning items while
    /// the queue drains, then `None`).
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// `true` once [`MpmcQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }

    /// Momentary queue depth (diagnostics only — racy by nature).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// `true` when momentarily empty (diagnostics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct SlotState<T> {
    value: Option<T>,
    sender_gone: bool,
    receiver_gone: bool,
    /// The receiver is asleep on `ready` in `recv`.
    receiver_asleep: bool,
}

struct Slot<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

/// Sending half of a [`oneshot`] slot: consumed by the single
/// [`OneShotSender::send`]. Dropping it unsent wakes the receiver with
/// [`ChannelClosed`].
pub struct OneShotSender<T> {
    slot: Arc<Slot<T>>,
    /// `send` ran: the receiver has its value (or is gone), so `Drop`
    /// has nothing to signal.
    sent: bool,
}

/// Receiving half of a [`oneshot`] slot: consumed by
/// [`OneShotReceiver::recv`]. Dropping it lets the sender observe the
/// abandonment via [`OneShotSender::send`]'s error.
pub struct OneShotReceiver<T> {
    slot: Arc<Slot<T>>,
}

/// Creates a one-shot completion slot: one value travels from sender to
/// receiver, each endpoint usable exactly once.
///
/// # Example
///
/// ```
/// use fixar_pool::oneshot;
///
/// let (tx, rx) = oneshot();
/// std::thread::spawn(move || tx.send(42).unwrap());
/// assert_eq!(rx.recv(), Ok(42));
/// ```
pub fn oneshot<T>() -> (OneShotSender<T>, OneShotReceiver<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(SlotState {
            value: None,
            sender_gone: false,
            receiver_gone: false,
            receiver_asleep: false,
        }),
        ready: Condvar::new(),
    });
    (
        OneShotSender {
            slot: Arc::clone(&slot),
            sent: false,
        },
        OneShotReceiver { slot },
    )
}

impl<T> OneShotSender<T> {
    /// Delivers the value, waking the receiver if it is blocked.
    ///
    /// # Errors
    ///
    /// Returns the value back if the receiver was already dropped (the
    /// client gave up — the server counts these instead of panicking).
    pub fn send(mut self, value: T) -> Result<(), T> {
        self.sent = true;
        let mut state = self.slot.state.lock().expect("oneshot lock");
        if state.receiver_gone {
            return Err(value);
        }
        state.value = Some(value);
        let wake = state.receiver_asleep;
        drop(state);
        if wake {
            self.slot.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Drop for OneShotSender<T> {
    fn drop(&mut self) {
        if self.sent {
            return;
        }
        let mut state = self.slot.state.lock().expect("oneshot lock");
        state.sender_gone = true;
        let wake = state.receiver_asleep;
        drop(state);
        if wake {
            self.slot.ready.notify_one();
        }
    }
}

impl<T> OneShotReceiver<T> {
    /// Blocks until the value arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelClosed`] if the sender dropped without sending
    /// (e.g. the server shut down while the request was queued).
    pub fn recv(self) -> Result<T, ChannelClosed> {
        let mut state = self.slot.state.lock().expect("oneshot lock");
        loop {
            if let Some(value) = state.value.take() {
                return Ok(value);
            }
            if state.sender_gone {
                return Err(ChannelClosed);
            }
            state.receiver_asleep = true;
            state = self.slot.ready.wait(state).expect("oneshot wait");
            state.receiver_asleep = false;
        }
    }

    /// Non-blocking probe: `Ok(Some(value))` when delivered,
    /// `Ok(None)` when still pending, and the receiver is handed back
    /// for a later retry.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelClosed`] if the sender dropped without sending.
    pub fn try_recv(self) -> Result<Result<T, Self>, ChannelClosed> {
        {
            let mut state = self.slot.state.lock().expect("oneshot lock");
            if let Some(value) = state.value.take() {
                return Ok(Ok(value));
            }
            if state.sender_gone {
                return Err(ChannelClosed);
            }
        }
        Ok(Err(self))
    }
}

impl<T> Drop for OneShotReceiver<T> {
    fn drop(&mut self) {
        self.slot.state.lock().expect("oneshot lock").receiver_gone = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// A woken waiter returns well within this; a lost wake-up does not.
    const WAKE_LIMIT: Duration = Duration::from_secs(1);

    /// Runs the blocking side `f` on its own thread. The test reads the
    /// result with `recv_timeout`, so a lost wake-up fails it instead of
    /// hanging it (the stuck thread is left behind).
    fn spawn_bounded<R: Send + 'static>(
        f: impl FnOnce() -> R + Send + 'static,
    ) -> mpsc::Receiver<R> {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx
    }

    /// Polls `cond` until it holds; panics after [`WAKE_LIMIT`].
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < WAKE_LIMIT, "never saw: {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn sleepers<T>(q: &MpmcQueue<T>) -> usize {
        q.state.lock().unwrap().sleepers
    }

    fn receiver_asleep<T>(slot: &Slot<T>) -> bool {
        slot.state.lock().unwrap().receiver_asleep
    }

    #[test]
    fn queue_is_fifo_and_survives_threads() {
        let q = Arc::new(MpmcQueue::new());
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..100 {
                    q.push(i).unwrap();
                }
            })
        };
        let got = {
            let q = Arc::clone(&q);
            spawn_bounded(move || (0..100).map(|_| q.pop().unwrap()).collect::<Vec<_>>())
        };
        assert_eq!(got.recv_timeout(WAKE_LIMIT), Ok((0..100).collect()));
        producer.join().unwrap();
    }

    #[test]
    fn close_rejects_pushes_but_drains_queued_items() {
        let q = MpmcQueue::new();
        q.push('a').unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.push('b'), Err('b'));
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), None);
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(MpmcQueue::<u8>::new());
        let popped = {
            let q = Arc::clone(&q);
            spawn_bounded(move || q.pop())
        };
        wait_until("consumer asleep", || sleepers(&q) == 1);
        q.close();
        assert_eq!(popped.recv_timeout(WAKE_LIMIT), Ok(None));
    }

    #[test]
    fn pop_deadline_times_out_and_still_delivers_items() {
        let q = MpmcQueue::new();
        let t = Instant::now();
        assert_eq!(
            q.pop_deadline(Instant::now() + Duration::from_millis(5)),
            None::<u8>
        );
        assert!(t.elapsed() >= Duration::from_millis(5));
        q.push(7).unwrap();
        assert_eq!(q.pop_deadline(Instant::now()), Some(7));
        // A deadline already in the past still drains ready items first.
        q.push(8).unwrap();
        assert_eq!(
            q.pop_deadline(Instant::now() - Duration::from_millis(1)),
            Some(8)
        );
    }

    #[test]
    fn push_wakes_a_consumer_asleep_in_pop() {
        let q = Arc::new(MpmcQueue::new());
        let popped = {
            let q = Arc::clone(&q);
            spawn_bounded(move || q.pop())
        };
        wait_until("consumer asleep", || sleepers(&q) == 1);
        q.push(7).unwrap();
        assert_eq!(popped.recv_timeout(WAKE_LIMIT), Ok(Some(7)));
    }

    /// A push that failed to wake a timed waiter would still hand the
    /// item over when the deadline expired — 5 s later, not at once.
    #[test]
    fn push_wakes_a_consumer_asleep_in_pop_deadline() {
        let q = Arc::new(MpmcQueue::new());
        let popped = {
            let q = Arc::clone(&q);
            spawn_bounded(move || q.pop_deadline(Instant::now() + Duration::from_secs(5)))
        };
        wait_until("consumer asleep", || sleepers(&q) == 1);
        thread::sleep(Duration::from_millis(10));
        let pushed = Instant::now();
        q.push(7).unwrap();
        assert_eq!(popped.recv_timeout(WAKE_LIMIT), Ok(Some(7)));
        assert!(pushed.elapsed() < WAKE_LIMIT);
    }

    #[test]
    fn sleeper_count_returns_to_zero_after_every_kind_of_wait() {
        let q = Arc::new(MpmcQueue::<u8>::new());
        assert_eq!(
            q.pop_deadline(Instant::now() + Duration::from_millis(5)),
            None
        );
        assert_eq!(sleepers(&q), 0, "after a timed-out wait");

        for timed in [false, true] {
            let popped = {
                let q = Arc::clone(&q);
                spawn_bounded(move || {
                    if timed {
                        q.pop_deadline(Instant::now() + Duration::from_secs(5))
                    } else {
                        q.pop()
                    }
                })
            };
            wait_until("consumer asleep", || sleepers(&q) == 1);
            // A wake-up with nothing queued (as a spurious one would be)
            // sends the consumer back to sleep, counted once.
            q.ready.notify_all();
            thread::sleep(Duration::from_millis(10));
            wait_until("consumer asleep again", || sleepers(&q) == 1);
            q.push(timed as u8).unwrap();
            assert_eq!(popped.recv_timeout(WAKE_LIMIT), Ok(Some(timed as u8)));
            assert_eq!(sleepers(&q), 0, "after a woken wait (timed: {timed})");
        }

        let popped = {
            let q = Arc::clone(&q);
            spawn_bounded(move || q.pop())
        };
        wait_until("consumer asleep", || sleepers(&q) == 1);
        q.close();
        assert_eq!(popped.recv_timeout(WAKE_LIMIT), Ok(None));
        assert_eq!(sleepers(&q), 0, "after a wait ended by close");
    }

    #[test]
    fn multiple_consumers_partition_the_items() {
        let q = Arc::new(MpmcQueue::new());
        for i in 0..200 {
            q.push(i).unwrap();
        }
        q.close();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(v) = q.pop() {
                        mine.push(v);
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn oneshot_delivers_once_across_threads() {
        let (tx, rx) = oneshot();
        let received = spawn_bounded(move || rx.recv());
        let t = thread::spawn(move || tx.send(99).unwrap());
        assert_eq!(received.recv_timeout(WAKE_LIMIT), Ok(Ok(99)));
        t.join().unwrap();
    }

    #[test]
    fn send_wakes_a_receiver_asleep_in_recv() {
        let (tx, rx) = oneshot();
        let slot = Arc::clone(&tx.slot);
        let received = spawn_bounded(move || rx.recv());
        wait_until("receiver asleep", || receiver_asleep(&slot));
        thread::sleep(Duration::from_millis(10));
        tx.send(99).unwrap();
        assert_eq!(received.recv_timeout(WAKE_LIMIT), Ok(Ok(99)));
    }

    #[test]
    fn dropped_sender_surfaces_as_closed_not_deadlock() {
        let (tx, rx) = oneshot::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(ChannelClosed));

        // Blocked receiver wakes when the sender drops later, unsent.
        let (tx, rx) = oneshot::<u8>();
        let slot = Arc::clone(&tx.slot);
        let received = spawn_bounded(move || rx.recv());
        wait_until("receiver asleep", || receiver_asleep(&slot));
        thread::sleep(Duration::from_millis(10));
        drop(tx);
        assert_eq!(received.recv_timeout(WAKE_LIMIT), Ok(Err(ChannelClosed)));
    }

    #[test]
    fn dropped_receiver_bounces_the_send() {
        let (tx, rx) = oneshot();
        drop(rx);
        assert_eq!(tx.send(5), Err(5));
    }

    #[test]
    fn try_recv_probes_without_blocking() {
        let (tx, rx) = oneshot();
        let rx = match rx.try_recv() {
            Ok(Err(rx)) => rx, // still pending
            Ok(Ok(v)) => panic!("expected pending, got value {v}"),
            Err(e) => panic!("expected pending, got {e}"),
        };
        tx.send(3).unwrap();
        assert!(matches!(rx.try_recv(), Ok(Ok(3))));
        let (tx, rx) = oneshot::<u8>();
        drop(tx);
        assert!(rx.try_recv().is_err());
    }
}
