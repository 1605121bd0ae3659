//! Persistent worker pool for FIXAR's kernel-level data parallelism.
//!
//! The batched kernels in `fixar-tensor` are embarrassingly parallel
//! across disjoint output regions (batch rows for the forward/transpose
//! MVMs, weight rows for gradient accumulation). This crate provides the
//! execution substrate they shard over:
//!
//! * [`WorkerPool`] — a fixed set of worker threads fed closures over a
//!   channel, created **once** and reused for every kernel call (no
//!   per-call thread spawning, unlike `std::thread::scope`);
//! * [`WorkerPool::scope`] — a scoped-task API: borrowing, non-`'static`
//!   tasks run on the pool and are all joined (barrier) before the scope
//!   returns, so shards may borrow the operands of the calling kernel;
//! * [`Parallelism`] — the handle threaded through `fixar-nn`,
//!   `fixar-rl`, and `fixar-accel`: a worker count plus a shared pool,
//!   honoring the `FIXAR_WORKERS` environment override;
//! * [`PoolError`] — typed propagation of worker panics: a panicking
//!   task fails the scope instead of aborting the process, and the pool
//!   survives for subsequent scopes;
//! * [`MpmcQueue`] / [`oneshot`] — std-only channel primitives (MPMC
//!   request queue with deadline-bounded pops, one-shot completion
//!   slots) that the request-driven serving front door (`fixar-serve`)
//!   builds on instead of an async runtime.
//!
//! # Determinism contract
//!
//! The pool itself never reorders arithmetic: callers shard work into
//! **disjoint output regions** computed with the exact per-element
//! reduction chains of the sequential kernel, and merge shard results in
//! **ascending shard order** on the calling thread. Results are
//! therefore bit-identical to the sequential kernel for every backend —
//! including saturating `Fx32` — and independent of thread scheduling.
//!
//! # Nesting
//!
//! Scopes started *from a pool worker thread* would deadlock a fully
//! loaded pool, so [`Parallelism::shards`] reports `1` on pool threads:
//! nested parallel kernels transparently degrade to their sequential
//! (bit-identical) form.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod comms;

pub use comms::{oneshot, ChannelClosed, MpmcQueue, OneShotReceiver, OneShotSender};

use std::cell::Cell;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Environment variable overriding the worker count of every
/// [`Parallelism::from_env_or`] handle (CI's determinism matrix sweeps
/// it across 1/2/8).
pub const WORKERS_ENV: &str = "FIXAR_WORKERS";

/// Error returned by [`WorkerPool::scope`] when one or more queued
/// tasks panicked. The panics are contained on the worker threads
/// (caught per task), the scope still joins every task, and the pool
/// remains usable afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// `count` tasks of the scope panicked; `first` is the payload of
    /// the first panic observed (payload order is scheduling-dependent,
    /// the error itself is not).
    TaskPanicked {
        /// Number of panicked tasks in the scope.
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
/// (used to degrade nested scopes to sequential execution).
pub fn on_pool_thread() -> bool {
    IS_POOL_WORKER.with(Cell::get)
}

/// A fixed set of persistent worker threads fed closures over a channel.
///
/// Workers are spawned once in [`WorkerPool::new`] and live until the
/// pool drops; every [`WorkerPool::scope`] reuses them. Multiple scopes
/// (from different calling threads) may run concurrently on one pool —
/// each joins exactly its own tasks.
///
/// # Example
///
/// ```
/// use fixar_pool::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let mut halves = [0u64, 0u64];
/// let (lo, hi) = halves.split_at_mut(1);
/// pool.scope(|scope| {
///     scope.execute(|| lo[0] = (1..=50).sum());
///     scope.execute(|| hi[0] = (51..=100).sum());
/// })
/// .unwrap();
/// assert_eq!(halves[0] + halves[1], 5050);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<Task>>,
    handles: Vec<thread::JoinHandle<()>>,
    workers: usize,
}

/// Join state of one scope: outstanding task count, a condvar the
/// calling thread parks on, and the collected panic payloads.
#[derive(Default)]
struct ScopeSync {
    pending: Mutex<usize>,
    done: Condvar,
    panics: Mutex<Vec<String>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (sender, receiver) = channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
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
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
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

    /// Runs `f` with a [`Scope`] on which borrowing tasks can be queued;
    /// returns once **every** queued task has finished (barrier join —
    /// this is what makes lending shards of local buffers to the pool
    /// sound).
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::TaskPanicked`] if any task panicked. The
    /// panic is contained: remaining tasks still run, the scope still
    /// joins, and the pool stays usable.
    pub fn scope<'pool, 'scope, F, R>(&'pool self, f: F) -> Result<R, PoolError>
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            sync: Arc::new(ScopeSync::default()),
            _marker: PhantomData,
        };
        // If `f` itself unwinds after queueing tasks, `Scope::drop`
        // still joins them before any borrow they hold expires.
        let result = f(&scope);
        scope.wait();
        let panics = scope.sync.panics.lock().expect("scope panic list");
        if panics.is_empty() {
            Ok(result)
        } else {
            Err(PoolError::TaskPanicked {
                count: panics.len(),
                first: panics[0].clone(),
            })
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

/// Handle for queueing borrowing tasks inside [`WorkerPool::scope`].
pub struct Scope<'pool, 'scope> {
    pool: &'pool WorkerPool,
    sync: Arc<ScopeSync>,
    /// Invariant over `'scope`: prevents the scope lifetime from being
    /// shortened to admit borrows the join cannot protect.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'pool, 'scope> Scope<'pool, 'scope> {
    /// Queues `f` onto the pool. The task may borrow anything that
    /// outlives the `scope` call; panics are caught per task and
    /// surfaced as the scope's [`PoolError`].
    pub fn execute<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        *self.sync.pending.lock().expect("scope pending lock") += 1;
        let sync = Arc::clone(&self.sync);
        let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let msg = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                sync.panics.lock().expect("scope panic list").push(msg);
            }
            let mut pending = sync.pending.lock().expect("scope pending lock");
            *pending -= 1;
            if *pending == 0 {
                sync.done.notify_all();
            }
        });
        // SAFETY: the task is erased to 'static only to traverse the
        // channel; `Scope::wait` (called by `WorkerPool::scope` and by
        // `Drop` on unwind) blocks until the task has run to completion,
        // so every 'scope borrow it captures outlives its execution.
        let wrapped: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(wrapped) };
        self.pool
            .sender
            .as_ref()
            .expect("pool alive while scope runs")
            .send(wrapped)
            .expect("pool workers alive while scope runs");
    }

    fn wait(&self) {
        let mut pending = self.sync.pending.lock().expect("scope pending lock");
        while *pending > 0 {
            pending = self.sync.done.wait(pending).expect("scope join wait");
        }
    }
}

impl Drop for Scope<'_, '_> {
    fn drop(&mut self) {
        self.wait();
    }
}

/// A fused multi-kernel phase: the handle through which one kernel's
/// shards — or several *independent* kernels (disjoint output regions)
/// — enqueue into **one** pool scope and share a **single** barrier
/// join. On the hot path that is one scope per layer of a pass: a
/// forward layer's MVM, or a backward layer's error MVM fused with its
/// gradient outer product.
///
/// Obtained from [`Parallelism::fused`]. Two shapes exist:
///
/// * **pooled** — wraps a live [`Scope`]; [`KernelScope::submit`]
///   enqueues onto the pool and [`KernelScope::shards`] reports the
///   worker count, so the batched kernels shard one span per worker;
/// * **sequential** — no pool (or the caller is already on a pool
///   thread, where opening a scope would deadlock): `shards` reports 1
///   and `submit` runs the task **inline** on the calling thread, so
///   every batched kernel transparently degrades to its sequential,
///   bit-identical form.
///
/// # Determinism
///
/// Fusing kernels into one scope never reorders arithmetic: each kernel
/// still shards into disjoint output regions computed with its
/// sequential per-element chains, and distinct kernels in one scope
/// write disjoint outputs by the caller's contract. Only the *join*
/// count changes — results are bit-identical to running the kernels in
/// separate scopes (or sequentially) at every worker count.
///
/// # Example
///
/// ```
/// use fixar_pool::Parallelism;
///
/// let par = Parallelism::with_workers(2);
/// let mut a = [0u64; 2];
/// let mut b = [0u64; 2];
/// par.fused(|ks| {
///     // Two independent "kernels" share one scope and one join.
///     let (a0, a1) = a.split_at_mut(1);
///     ks.submit(|| a0[0] = 1);
///     ks.submit(|| a1[0] = 2);
///     let (b0, b1) = b.split_at_mut(1);
///     ks.submit(|| b0[0] = 3);
///     ks.submit(|| b1[0] = 4);
/// })
/// .unwrap();
/// assert_eq!((a, b), ([1, 2], [3, 4]));
/// ```
pub struct KernelScope<'a, 'pool, 'scope> {
    scope: Option<&'a Scope<'pool, 'scope>>,
    workers: usize,
}

impl<'a, 'pool, 'scope> KernelScope<'a, 'pool, 'scope> {
    /// A sequential kernel scope: `shards` is 1 and `submit` runs
    /// inline. This is what the batched kernels see when no pool is
    /// available — and what a stand-alone sequential call passes —
    /// letting callers keep a single code path.
    pub fn sequential() -> Self {
        Self {
            scope: None,
            workers: 1,
        }
    }

    /// A kernel scope over a live pool [`Scope`], sharding for
    /// `workers` lanes.
    pub fn pooled(scope: &'a Scope<'pool, 'scope>, workers: usize) -> Self {
        Self {
            scope: Some(scope),
            workers: workers.max(1),
        }
    }

    /// `true` when submissions actually reach a pool (false for the
    /// sequential degradation).
    pub fn is_pooled(&self) -> bool {
        self.scope.is_some()
    }

    /// Number of shards a kernel submitting here should split `items`
    /// into: the worker count capped by `items` when pooled, `1` when
    /// sequential — the same arithmetic as [`Parallelism::shards`].
    pub fn shards(&self, items: usize) -> usize {
        if self.scope.is_some() {
            self.workers.min(items).max(1)
        } else {
            1
        }
    }

    /// Submits one kernel shard. Pooled scopes enqueue it (the shared
    /// join happens when the owning [`Parallelism::fused`] call
    /// returns); the sequential degradation runs it inline, preserving
    /// submission order.
    ///
    /// # Panics
    ///
    /// On the **sequential degradation** a panicking task unwinds
    /// straight through the caller — there is no worker thread to
    /// contain it, so the typed-[`PoolError`] contract applies to
    /// pooled scopes only. In-contract kernels never panic, so this
    /// only changes how a kernel *bug* surfaces at one worker.
    pub fn submit<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        match self.scope {
            Some(scope) => scope.execute(f),
            None => f(),
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

impl Parallelism {
    /// The sequential handle: one worker, no pool.
    pub fn sequential() -> Self {
        Self {
            workers: 1,
            pool: None,
        }
    }

    /// A handle over the shared `workers`-thread pool (sequential when
    /// `workers <= 1`).
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
    /// when unset or unparsable. This is how agent configs resolve
    /// their effective worker count.
    pub fn from_env_or(default: usize) -> Self {
        let workers = std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(default);
        Self::with_workers(workers)
    }

    /// Configured worker count (≥ 1).
    pub fn workers(&self) -> usize {
        self.workers.max(1)
    }

    /// The backing pool, if parallel.
    pub fn pool(&self) -> Option<&WorkerPool> {
        self.pool.as_deref()
    }

    /// Number of shards a kernel should split `items` into: at most one
    /// per worker, never more than `items`, and `1` (sequential) when
    /// there is no pool **or when already running on a pool thread**
    /// (nested scopes would deadlock; the sequential kernels are
    /// bit-identical, so degrading is free).
    pub fn shards(&self, items: usize) -> usize {
        if self.pool.is_none() || on_pool_thread() {
            1
        } else {
            self.workers().min(items).max(1)
        }
    }

    /// Opens **one** fused multi-kernel scope and runs `f` with its
    /// [`KernelScope`]: every independent kernel `f` submits (directly
    /// via [`KernelScope::submit`], or through a batched kernel entry)
    /// shares the scope's single barrier join, which happens before
    /// `fused` returns. With no pool — or when already on a pool thread,
    /// where a nested scope would deadlock — `f` receives the
    /// sequential degradation and every submission runs inline,
    /// bit-identically.
    ///
    /// Anything the caller runs in `f` *after* submitting kernels
    /// executes on the calling thread **concurrently with the queued
    /// shards**.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::TaskPanicked`] if any submitted task
    /// panicked on a **pooled** scope. The panic is contained per
    /// task: sibling kernels in the scope still run to completion, the
    /// scope still joins, and the pool stays usable. On the sequential
    /// degradation there is no worker to contain a panic — an inline
    /// task that panics unwinds through the caller instead (see
    /// [`KernelScope::submit`]); only kernel *bugs* panic, so the two
    /// modes differ only in how a bug is reported.
    pub fn fused<'pool, 'scope, F, R>(&'pool self, f: F) -> Result<R, PoolError>
    where
        F: FnOnce(&KernelScope<'_, 'pool, 'scope>) -> R,
    {
        match self.pool() {
            Some(pool) if !on_pool_thread() => {
                let workers = self.workers();
                pool.scope(move |scope| f(&KernelScope::pooled(scope, workers)))
            }
            _ => Ok(f(&KernelScope::sequential())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_tasks_before_returning() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..64 {
                scope.execute(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn tasks_may_mutate_disjoint_borrowed_shards() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0usize; 10];
        let ranges = split_ranges(data.len(), 3);
        pool.scope(|scope| {
            let mut rest = data.as_mut_slice();
            for range in &ranges {
                let (chunk, tail) = rest.split_at_mut(range.len());
                rest = tail;
                let base = range.start;
                scope.execute(move || {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = base + i;
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(data, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_yields_typed_error_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let err = pool
            .scope(|scope| {
                scope.execute(|| panic!("injected failure"));
                scope.execute(|| {}); // healthy sibling still runs
            })
            .unwrap_err();
        match &err {
            PoolError::TaskPanicked { count, first } => {
                assert_eq!(*count, 1);
                assert!(first.contains("injected failure"), "payload: {first}");
            }
        }
        assert!(err.to_string().contains("injected failure"));
        // The pool is not poisoned: the next scope succeeds.
        let ok = pool.scope(|scope| {
            scope.execute(|| {});
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn concurrent_scopes_on_one_pool_join_independently() {
        let pool = Arc::new(WorkerPool::new(2));
        let a = Arc::clone(&pool);
        let t = thread::spawn(move || {
            let sum = AtomicUsize::new(0);
            a.scope(|scope| {
                let sum = &sum;
                for i in 0..32 {
                    scope.execute(move || {
                        sum.fetch_add(i, Ordering::SeqCst);
                    });
                }
            })
            .unwrap();
            sum.load(Ordering::SeqCst)
        });
        let sum = AtomicUsize::new(0);
        pool.scope(|scope| {
            let sum = &sum;
            for i in 0..32 {
                scope.execute(move || {
                    sum.fetch_add(i + 100, Ordering::SeqCst);
                });
            }
        })
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
    fn parallelism_shards_and_env_fallback() {
        let seq = Parallelism::sequential();
        assert_eq!(seq.shards(100), 1);
        assert!(seq.pool().is_none());

        let par = Parallelism::with_workers(3);
        assert_eq!(par.workers(), 3);
        assert_eq!(par.shards(100), 3);
        assert_eq!(par.shards(2), 2);
        assert_eq!(par.shards(0), 1);
        assert!(par.pool().is_some());

        // Clones share the backing pool.
        let clone = par.clone();
        assert!(std::ptr::eq(par.pool().unwrap(), clone.pool().unwrap()));

        // with_workers(1) never carries a pool.
        assert!(Parallelism::with_workers(1).pool().is_none());
    }

    #[test]
    fn fused_scope_hosts_independent_kernels_with_one_join() {
        let par = Parallelism::with_workers(3);
        let mut left = vec![0usize; 9];
        let mut right = vec![0usize; 5];
        par.fused(|ks| {
            assert!(ks.is_pooled());
            // Kernel 1: shard `left` like a batched kernel would.
            let shards = ks.shards(left.len());
            let mut rest = left.as_mut_slice();
            for range in split_ranges(9, shards) {
                let (chunk, tail) = rest.split_at_mut(range.len());
                rest = tail;
                let base = range.start;
                ks.submit(move || {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = base + i;
                    }
                });
            }
            // Kernel 2: disjoint output, same scope, same join.
            let mut rest = right.as_mut_slice();
            for range in split_ranges(5, ks.shards(5)) {
                let (chunk, tail) = rest.split_at_mut(range.len());
                rest = tail;
                let base = range.start;
                ks.submit(move || {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = 100 + base + i;
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(left, (0..9).collect::<Vec<_>>());
        assert_eq!(right, (100..105).collect::<Vec<_>>());
    }

    #[test]
    fn fused_scope_panic_is_typed_and_does_not_poison_siblings() {
        // The satellite contract: one fused kernel panicking surfaces
        // as PoolError while sibling kernels in the same scope still
        // complete, and the handle stays usable.
        let par = Parallelism::with_workers(2);
        let mut sibling = [0u64; 2];
        let err = par
            .fused(|ks| {
                let (lo, hi) = sibling.split_at_mut(1);
                ks.submit(|| panic!("injected fused-kernel failure"));
                ks.submit(move || lo[0] = 7);
                ks.submit(move || hi[0] = 9);
            })
            .unwrap_err();
        match &err {
            PoolError::TaskPanicked { count, first } => {
                assert_eq!(*count, 1);
                assert!(first.contains("injected fused-kernel failure"));
            }
        }
        assert_eq!(sibling, [7, 9], "siblings must not be poisoned");
        // The same handle opens a clean scope afterwards.
        let ok = par.fused(|ks| ks.submit(|| {}));
        assert!(ok.is_ok());
    }

    #[test]
    fn fused_scope_degrades_inline_without_a_pool_and_when_nested() {
        // Sequential handle: submissions run inline, in order.
        let seq = Parallelism::sequential();
        let order = Mutex::new(Vec::new());
        seq.fused(|ks| {
            assert!(!ks.is_pooled());
            assert_eq!(ks.shards(100), 1);
            ks.submit(|| order.lock().unwrap().push(1));
            order.lock().unwrap().push(2);
            ks.submit(|| order.lock().unwrap().push(3));
        })
        .unwrap();
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3]);

        // Nested: from a pool task the same handle degrades too, so a
        // fused kernel called inside another scope cannot deadlock.
        let par = Parallelism::with_workers(2);
        let nested_inline = AtomicUsize::new(0);
        par.fused(|ks| {
            let par = &par;
            let nested_inline = &nested_inline;
            ks.submit(move || {
                par.fused(|inner| {
                    assert!(!inner.is_pooled());
                    inner.submit(|| {
                        nested_inline.fetch_add(1, Ordering::SeqCst);
                    });
                })
                .unwrap();
            });
        })
        .unwrap();
        assert_eq!(nested_inline.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fused_scope_overlaps_host_work_with_queued_kernels() {
        // The closure body after submission runs on the calling thread
        // while the task runs on a worker — both sides complete by the
        // single join.
        let par = Parallelism::with_workers(2);
        let worker_side = AtomicUsize::new(0);
        let mut host_side = 0usize;
        par.fused(|ks| {
            let worker_side = &worker_side;
            ks.submit(move || {
                worker_side.store(11, Ordering::SeqCst);
            });
            host_side = 22; // host work inside the scope
        })
        .unwrap();
        assert_eq!(worker_side.load(Ordering::SeqCst), 11);
        assert_eq!(host_side, 22);
    }

    #[test]
    fn nested_scopes_degrade_to_sequential() {
        let par = Parallelism::with_workers(2);
        let inner_shards = AtomicUsize::new(usize::MAX);
        par.pool()
            .unwrap()
            .scope(|scope| {
                let par = &par;
                let inner_shards = &inner_shards;
                scope.execute(move || {
                    // On a pool thread the same handle reports 1 shard,
                    // so nested kernels run their sequential form.
                    inner_shards.store(par.shards(100), Ordering::SeqCst);
                });
            })
            .unwrap();
        assert_eq!(inner_shards.load(Ordering::SeqCst), 1);
        assert!(!on_pool_thread());
    }
}
