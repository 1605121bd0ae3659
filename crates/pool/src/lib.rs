//! Persistent worker pool for FIXAR's kernel-level data parallelism.
//!
//! The batched kernels in `fixar-tensor` are embarrassingly parallel
//! across disjoint output regions (batch rows for the forward/transpose
//! MVMs, weight rows for gradient accumulation). This crate provides the
//! execution substrate they shard over:
//!
//! * [`Parallelism`] — the handle threaded through `fixar-nn` and
//!   `fixar-rl`: a worker count plus a process-wide pool of persistent
//!   threads (spawned once per worker count, reused by every kernel
//!   call), honoring the `FIXAR_WORKERS` environment override.
//!   [`Parallelism::shards`] says how many shards a kernel should cut
//!   its output into, and [`Parallelism::run_shards`] runs them: inline
//!   in order at one worker, or on the pool under one barrier join, so
//!   shards may borrow the operands of the calling kernel;
//! * [`PoolError`] — typed propagation of worker panics: a panicking
//!   shard fails the call instead of aborting the process, and the pool
//!   survives for subsequent calls;
//! * [`MpmcQueue`] / [`oneshot`] — std-only channel primitives (MPMC
//!   request queue with deadline-bounded pops, one-shot completion
//!   slots) that the request-driven serving front door (`fixar-serve`)
//!   builds on instead of an async runtime.
//!
//! # Determinism contract
//!
//! The pool itself never reorders arithmetic: callers shard work into
//! **disjoint output regions** computed with the exact per-element
//! reduction chains of the sequential kernel. Results are therefore
//! bit-identical to the sequential kernel for every backend — including
//! saturating `Fx32` — and independent of thread scheduling.
//!
//! # Nesting
//!
//! A kernel called *from a pool worker thread* would deadlock a fully
//! loaded pool if it queued shards and waited for them, so
//! [`Parallelism::shards`] reports `1` there and
//! [`Parallelism::run_shards`] runs inline: nested kernels
//! transparently take their sequential (bit-identical) form.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod comms;

pub use comms::{oneshot, ChannelClosed, MpmcQueue, OneShotReceiver, OneShotSender};

use std::cell::Cell;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Environment variable overriding the worker count of every
/// [`Parallelism::from_env_or`] handle (CI's determinism matrix sweeps
/// it across 1/2/8).
pub const WORKERS_ENV: &str = "FIXAR_WORKERS";

/// The most worker threads any outside input may ask for — a
/// `DdpgConfig`'s `parallel_workers`, a [`WORKERS_ENV`] value, a serving
/// shard count. Well above any core count this runs on; a larger request
/// is refused (or, from the environment, ignored) before a thread
/// starts, instead of spawning until the OS says no.
pub const MAX_WORKERS: usize = 256;

/// Error returned by [`Parallelism::run_shards`] when one or more
/// pooled shards panicked. The panics are contained on the worker
/// threads (caught per shard), the call still joins every shard, and
/// the pool remains usable afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// `count` shards of the call panicked; `first` is the payload of
    /// the first panic observed (payload order is scheduling-dependent,
    /// the error itself is not).
    TaskPanicked {
        /// Number of panicked shards in the call.
        count: usize,
        /// Stringified payload of the first observed panic.
        first: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::TaskPanicked { count, first } => {
                write!(f, "{count} pool task(s) panicked; first: {first}")
            }
        }
    }
}

impl Error for PoolError {}

type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` when called from one of a [`WorkerPool`]'s worker threads
/// (used to run nested kernels inline).
fn on_pool_thread() -> bool {
    IS_POOL_WORKER.with(Cell::get)
}

/// A fixed set of persistent worker threads fed closures over a channel.
///
/// Workers are spawned once in [`WorkerPool::new`] and live until the
/// pool drops; every [`WorkerPool::run`] reuses them. Several calls
/// (from different calling threads) may run concurrently on one pool —
/// each joins exactly its own shards.
struct WorkerPool {
    sender: Option<Sender<Task>>,
    handles: Vec<thread::JoinHandle<()>>,
}

/// Join state of one [`WorkerPool::run`]: outstanding shard count, a
/// condvar the calling thread parks on, and the collected panic
/// payloads.
#[derive(Default)]
struct Join {
    pending: Mutex<usize>,
    done: Condvar,
    panics: Mutex<Vec<String>>,
}

impl Join {
    fn wait(&self) {
        let mut pending = self.pending.lock().expect("join pending lock");
        while *pending > 0 {
            pending = self.done.wait(pending).expect("join wait");
        }
    }
}

/// Waits for every shard of the [`Join`] it holds when dropped, so a
/// call that unwinds part-way through queueing still joins before any
/// borrow a shard holds expires.
struct JoinGuard(Arc<Join>);

impl Drop for JoinGuard {
    fn drop(&mut self) {
        self.0.wait();
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (at least one).
    fn new(workers: usize) -> Self {
        let (sender, receiver) = channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&receiver);
                thread::Builder::new()
                    .name(format!("fixar-pool-{i}"))
                    .spawn(move || Self::worker_loop(&rx))
                    .expect("spawning pool worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            handles,
        }
    }

    fn worker_loop(rx: &Mutex<Receiver<Task>>) {
        IS_POOL_WORKER.with(|f| f.set(true));
        loop {
            // Hold the lock only while dequeueing, never while running.
            let task = {
                let guard = rx.lock().expect("pool queue lock");
                guard.recv()
            };
            match task {
                Ok(task) => task(),
                Err(_) => break, // all senders dropped: shutdown
            }
        }
    }

    /// Queues every shard onto the workers and returns once **all** of
    /// them have finished (barrier join — what makes lending borrowed
    /// shards to the pool sound). A panicking shard is caught on its
    /// worker; the others still run.
    fn run<'s, F>(&self, shards: impl IntoIterator<Item = F>) -> Result<(), PoolError>
    where
        F: FnOnce() + Send + 's,
    {
        let guard = JoinGuard(Arc::new(Join::default()));
        let sender = self.sender.as_ref().expect("pool alive while it runs");
        for shard in shards {
            *guard.0.pending.lock().expect("join pending lock") += 1;
            let join = Arc::clone(&guard.0);
            let wrapped: Box<dyn FnOnce() + Send + 's> = Box::new(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(shard)) {
                    let msg = payload
                        .downcast_ref::<&'static str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    join.panics.lock().expect("join panic list").push(msg);
                }
                let mut pending = join.pending.lock().expect("join pending lock");
                *pending -= 1;
                if *pending == 0 {
                    join.done.notify_all();
                }
            });
            // SAFETY: the shard is erased to 'static only to traverse the
            // channel; `guard` (dropped at the end of this call, or while
            // unwinding out of it) blocks until every queued shard has
            // run to completion, so every 's borrow a shard captures
            // outlives its execution.
            let wrapped: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 's>, Task>(wrapped) };
            sender
                .send(wrapped)
                .expect("pool workers alive while it runs");
        }
        guard.0.wait();
        let panics = guard.0.panics.lock().expect("join panic list");
        match panics.first() {
            None => Ok(()),
            Some(first) => Err(PoolError::TaskPanicked {
                count: panics.len(),
                first: first.clone(),
            }),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the channel so workers drain and exit, then join.
        self.sender.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Contiguous ascending split of `items` into at most `parts` chunks of
/// `ceil(items / parts)` (the shard decomposition every parallel kernel
/// uses; identical to `slice.chunks(chunk_len)` boundaries, so shard
/// layout depends only on `(items, parts)` — never on scheduling).
pub fn split_ranges(items: usize, parts: usize) -> Vec<Range<usize>> {
    if items == 0 || parts == 0 {
        return Vec::new();
    }
    let chunk = items.div_ceil(parts);
    (0..items.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(items))
        .collect()
}

/// Process-wide pools keyed by worker count, so every agent/kernel
/// requesting `n` workers shares one `n`-thread pool instead of
/// spawning its own.
fn shared_pool(workers: usize) -> Arc<WorkerPool> {
    static REGISTRY: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().expect("pool registry lock");
    Arc::clone(
        map.entry(workers)
            .or_insert_with(|| Arc::new(WorkerPool::new(workers))),
    )
}

/// The parallelism handle threaded through the stack: a worker count
/// plus the pool that backs it. `workers == 1` carries no pool and
/// selects the strictly sequential kernels; cloning shares the pool.
///
/// # Example
///
/// ```
/// use fixar_pool::Parallelism;
///
/// let seq = Parallelism::sequential();
/// assert_eq!(seq.workers(), 1);
/// let par = Parallelism::with_workers(4);
/// assert_eq!(par.workers(), 4);
/// assert_eq!(par.shards(100), 4);
/// assert_eq!(par.shards(3), 3); // never more shards than items
///
/// // A kernel: one shard per disjoint output chunk.
/// let mut out = vec![0usize; 10];
/// let chunk = 10usize.div_ceil(par.shards(10));
/// par.run_shards(out.chunks_mut(chunk).enumerate().map(|(s, part)| {
///     move || part.iter_mut().for_each(|v| *v = s)
/// }))
/// .unwrap();
/// assert_eq!(out, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
/// ```
#[derive(Clone, Default)]
pub struct Parallelism {
    workers: usize,
    pool: Option<Arc<WorkerPool>>,
}

impl fmt::Debug for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Parallelism")
            .field("workers", &self.workers())
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

/// The worker count a [`WORKERS_ENV`] value asks for: a whole number in
/// `1..=`[`MAX_WORKERS`], else `None` (the caller's count stands).
fn parse_workers(value: &str) -> Option<usize> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|n| (1..=MAX_WORKERS).contains(n))
}

impl Parallelism {
    /// The sequential handle: one worker, no pool.
    pub fn sequential() -> Self {
        Self {
            workers: 1,
            pool: None,
        }
    }

    /// A handle over the shared `workers`-thread pool (sequential when
    /// `workers <= 1`). Callers bound counts that come from outside
    /// input by [`MAX_WORKERS`] first.
    pub fn with_workers(workers: usize) -> Self {
        if workers <= 1 {
            Self::sequential()
        } else {
            Self {
                workers,
                pool: Some(shared_pool(workers)),
            }
        }
    }

    /// Reads the [`WORKERS_ENV`] override, falling back to `default`
    /// when unset, unparsable, zero or above [`MAX_WORKERS`]. This is how
    /// agent configs resolve their effective worker count.
    pub fn from_env_or(default: usize) -> Self {
        let workers = std::env::var(WORKERS_ENV)
            .ok()
            .as_deref()
            .and_then(parse_workers)
            .unwrap_or(default);
        Self::with_workers(workers)
    }

    /// Configured worker count (≥ 1).
    pub fn workers(&self) -> usize {
        self.workers.max(1)
    }

    /// Number of shards a kernel should split `items` into: at most one
    /// per worker, never more than `items`, and `1` (sequential) when
    /// there is no pool **or when already running on a pool thread**
    /// (nested pooled calls would deadlock; the sequential kernels are
    /// bit-identical, so degrading is free).
    pub fn shards(&self, items: usize) -> usize {
        if self.pool.is_none() || on_pool_thread() {
            1
        } else {
            self.workers().min(items).max(1)
        }
    }

    /// Runs one kernel's shards and returns once every one has finished.
    ///
    /// On a one-worker handle, or when called from a pool thread (where
    /// queueing and waiting could deadlock a fully loaded pool), the
    /// shards run **inline, in order**, on the calling thread. Otherwise
    /// they run on the pool under **one barrier join**, which is what
    /// lets a shard borrow the kernel's operands and a disjoint slice of
    /// its output.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::TaskPanicked`] if a pooled shard panicked.
    /// The panic is contained per shard: its siblings still run to
    /// completion, the call still joins, and the handle stays usable.
    /// Inline there is no worker to contain a panic, so a panicking
    /// shard unwinds through the caller; only kernel *bugs* panic, so
    /// the two modes differ only in how a bug is reported.
    pub fn run_shards<'s, F>(&self, shards: impl IntoIterator<Item = F>) -> Result<(), PoolError>
    where
        F: FnOnce() + Send + 's,
    {
        match &self.pool {
            Some(pool) if !on_pool_thread() => pool.run(shards),
            _ => {
                shards.into_iter().for_each(|shard| shard());
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_shards_joins_every_shard_before_returning() {
        let par = Parallelism::with_workers(4);
        let counter = AtomicUsize::new(0);
        par.run_shards((0..64).map(|_| {
            || {
                counter.fetch_add(1, Ordering::SeqCst);
            }
        }))
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn shards_may_mutate_disjoint_borrowed_chunks() {
        let par = Parallelism::with_workers(3);
        let mut data = vec![0usize; 10];
        let ranges = split_ranges(data.len(), par.shards(data.len()));
        let mut rest = data.as_mut_slice();
        let mut shards = Vec::new();
        for range in ranges {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            shards.push(move || {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = range.start + i;
                }
            });
        }
        par.run_shards(shards).unwrap();
        assert_eq!(data, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_shard_is_typed_siblings_finish_and_the_handle_survives() {
        let par = Parallelism::with_workers(2);
        let mut sibling = [0u64; 2];
        let (lo, hi) = sibling.split_at_mut(1);
        let shards: [Box<dyn FnOnce() + Send + '_>; 3] = [
            Box::new(|| panic!("injected shard failure")),
            Box::new(move || lo[0] = 7),
            Box::new(move || hi[0] = 9),
        ];
        let err = par.run_shards(shards).unwrap_err();
        match &err {
            PoolError::TaskPanicked { count, first } => {
                assert_eq!(*count, 1);
                assert!(first.contains("injected shard failure"), "payload: {first}");
            }
        }
        assert!(err.to_string().contains("injected shard failure"));
        assert_eq!(sibling, [7, 9], "siblings must run to completion");
        // The same handle runs a clean call afterwards.
        let ran = AtomicUsize::new(0);
        par.run_shards((0..2).map(|_| {
            || {
                ran.fetch_add(1, Ordering::SeqCst);
            }
        }))
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn one_worker_handle_runs_shards_inline_in_order() {
        let seq = Parallelism::sequential();
        assert_eq!(seq.shards(100), 1);
        let caller = thread::current().id();
        let order = Mutex::new(Vec::new());
        seq.run_shards((0..5).map(|i| {
            let order = &order;
            move || {
                assert_eq!(thread::current().id(), caller, "shard {i} left the caller");
                order.lock().unwrap().push(i);
            }
        }))
        .unwrap();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_calls_run_inline_on_the_pool_thread() {
        let par = Parallelism::with_workers(2);
        let inner_shards = AtomicUsize::new(usize::MAX);
        let inline = AtomicUsize::new(0);
        par.run_shards([|| {
            // On a pool thread the same handle reports 1 shard and runs
            // a nested call inline, on this very thread.
            inner_shards.store(par.shards(100), Ordering::SeqCst);
            let worker = thread::current().id();
            par.run_shards([|| {
                if thread::current().id() == worker {
                    inline.fetch_add(1, Ordering::SeqCst);
                }
            }])
            .unwrap();
        }])
        .unwrap();
        assert_eq!(inner_shards.load(Ordering::SeqCst), 1);
        assert_eq!(inline.load(Ordering::SeqCst), 1);
        assert!(!on_pool_thread());
    }

    #[test]
    fn concurrent_calls_on_one_pool_join_independently() {
        let t = thread::spawn(|| {
            let sum = AtomicUsize::new(0);
            let sum_ref = &sum;
            Parallelism::with_workers(2)
                .run_shards((0..32).map(|i| {
                    move || {
                        sum_ref.fetch_add(i, Ordering::SeqCst);
                    }
                }))
                .unwrap();
            sum.load(Ordering::SeqCst)
        });
        let sum = AtomicUsize::new(0);
        Parallelism::with_workers(2)
            .run_shards((0..32).map(|i| {
                let sum = &sum;
                move || {
                    sum.fetch_add(i + 100, Ordering::SeqCst);
                }
            }))
            .unwrap();
        assert_eq!(t.join().unwrap(), (0..32).sum::<usize>());
        assert_eq!(sum.load(Ordering::SeqCst), (0..32).map(|i| i + 100).sum());
    }

    #[test]
    fn split_ranges_covers_everything_contiguously() {
        for items in 0..40 {
            for parts in 1..9 {
                let ranges = split_ranges(items, parts);
                assert!(ranges.len() <= parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, items);
            }
        }
        assert!(split_ranges(5, 0).is_empty());
    }

    #[test]
    fn parallelism_shards_and_clones_share_the_pool() {
        let seq = Parallelism::sequential();
        assert_eq!(seq.shards(100), 1);
        assert!(seq.pool.is_none());

        let par = Parallelism::with_workers(3);
        assert_eq!(par.workers(), 3);
        assert_eq!(par.shards(100), 3);
        assert_eq!(par.shards(2), 2);
        assert_eq!(par.shards(0), 1);

        // Clones share the backing pool.
        let clone = par.clone();
        assert!(Arc::ptr_eq(
            par.pool.as_ref().unwrap(),
            clone.pool.as_ref().unwrap()
        ));

        // with_workers(1) never carries a pool.
        assert!(Parallelism::with_workers(1).pool.is_none());
    }

    #[test]
    fn env_worker_counts_outside_the_bound_fall_back() {
        assert_eq!(parse_workers("2"), Some(2));
        assert_eq!(parse_workers(" 8\n"), Some(8));
        assert_eq!(parse_workers("1"), Some(1));
        assert_eq!(parse_workers(&MAX_WORKERS.to_string()), Some(MAX_WORKERS));
        // Parsed only, never spawned: none of these starts a thread.
        for rejected in [
            "0".to_string(),
            "-1".to_string(),
            "two".to_string(),
            String::new(),
            (MAX_WORKERS + 1).to_string(),
            usize::MAX.to_string(),
            "99999999999999999999999".to_string(),
        ] {
            assert_eq!(parse_workers(&rejected), None, "{rejected:?}");
        }
    }
}
