//! # maybms-par — a vendored threadpool for deterministic parallel execution
//!
//! The build environment has no network access, so rayon cannot be a
//! crates.io dependency; this crate is the workspace's std-only stand-in,
//! sized to what the engine actually needs (a few hundred lines, one
//! `unsafe` block).
//!
//! ## Scheduler design
//!
//! A [`ThreadPool`] owns `threads − 1` background workers plus the calling
//! thread. Tasks go through a **chunked global queue** (a mutex-protected
//! deque with condvar parking) rather than per-worker chase–lev deques:
//! callers split their work into chunks *before* enqueueing, so the queue
//! sees a handful of coarse tasks per operator call and the single lock is
//! never contended enough to matter at engine chunk sizes (thousands of
//! rows per task). Work "stealing" happens at two points:
//!
//! * idle workers pop the next queued chunk (self-scheduling — chunks are
//!   claimed dynamically, so an uneven chunk does not stall the rest);
//! * a thread *waiting* for its scope to finish (see [`ThreadPool::scope`])
//!   runs queued tasks instead of blocking — including tasks of *other*
//!   scopes — which keeps nested fan-out (the d-tree recursion) deadlock
//!   free on a bounded pool.
//!
//! A pool of one thread executes everything inline on the caller; no
//! workers, no queue traffic, no behavioural difference from sequential
//! code.
//!
//! ## Determinism contract
//!
//! Parallel callers in this workspace must produce **bit-identical**
//! results at any thread count. The pool supports that discipline rather
//! than enforcing it:
//!
//! * [`ThreadPool::par_map`] returns results **in input order**, however
//!   the tasks interleaved, so order-sensitive merges (float reductions,
//!   output concatenation) see a fixed order;
//! * chunk *boundaries* are the caller's, so callers whose merge is
//!   boundary-sensitive (Monte Carlo batch sums) fix the chunk size to a
//!   constant independent of the thread count — see [`derive_seed`] and
//!   the seeded estimators in `maybms-conf`, which give every fixed-size
//!   sample batch its own SplitMix64-derived RNG seed;
//! * nothing in the API exposes completion order, a thread id, or any
//!   other source of scheduling nondeterminism.
//!
//! ## Configuration
//!
//! The process-wide pool ([`pool`]) sizes itself from `MAYBMS_THREADS`
//! (unset or `0` → all available cores) and can be resized at runtime with
//! [`set_threads`] (the shell's `\threads N`). Every parallel entry point
//! also accepts an explicit `&ThreadPool` handle, which is what the
//! determinism property tests use to pin 1/2/8-thread pools.

#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A queued task. Tasks are type-erased closures; scope tasks are
/// lifetime-erased too (see the `SAFETY` note in [`Scope::spawn`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
struct Shared {
    inner: Mutex<Inner>,
    /// Signalled when a job is pushed or shutdown begins.
    work: Condvar,
}

struct Inner {
    queue: VecDeque<Job>,
    shutdown: bool,
}

impl Shared {
    fn push(&self, job: Job) {
        let depth = {
            let mut inner = self.inner.lock().expect("pool lock");
            inner.queue.push_back(job);
            inner.queue.len()
        };
        // Observability: tasks enqueued + queue-depth high-water mark,
        // sampled while the push lock is held so the depth is exact.
        let m = maybms_obs::metrics();
        m.par_tasks.inc();
        m.par_queue_depth_hwm.set_max(depth as u64);
        self.work.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.inner.lock().expect("pool lock").queue.pop_front()
    }
}

/// A fixed-size pool of worker threads (see the module docs for the
/// scheduler design). Dropping the pool drains the queue and joins the
/// workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// A pool with `threads` total parallelism — the calling thread plus
    /// `threads − 1` background workers. `threads` is clamped to at
    /// least 1; a one-thread pool runs everything inline.
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("maybms-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// Total parallelism (background workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` with a [`Scope`] on which tasks borrowing the caller's
    /// stack can be spawned. Returns only after every spawned task has
    /// finished; while waiting, the calling thread executes queued tasks
    /// (its own or other scopes') instead of blocking. A panic in `f` or
    /// in any task is propagated after all tasks have completed, so
    /// borrows never dangle.
    pub fn scope<'env, F, T>(&self, f: F) -> T
    where
        F: FnOnce(&Scope<'env>) -> T,
    {
        let scope = Scope {
            state: Arc::new(ScopeState {
                shared: self.shared.clone(),
                pending: Mutex::new(0),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _env: std::marker::PhantomData,
        };
        // Catch a panic from the scope body so already-spawned tasks are
        // still awaited before unwinding past the borrowed environment.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.state.wait_all();
        if let Some(payload) = scope.state.panic.lock().expect("panic slot").take() {
            resume_unwind(payload);
        }
        match result {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Map `f` over `items` with one task per item, collecting results
    /// **in input order** regardless of execution interleaving. With one
    /// thread (or one item) this degenerates to an inline sequential map.
    pub fn par_map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        self.scope(|s| {
            for (slot, item) in slots.iter_mut().zip(items) {
                let f = &f;
                s.spawn(move || *slot = Some(f(item)));
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("par_map task completed"))
            .collect()
    }

    /// [`ThreadPool::par_map`] over the contiguous index chunks of
    /// `0..len` produced by [`chunk_ranges`]. The workhorse of the
    /// chunked operators: each chunk maps to a partial result and the
    /// caller merges partials in chunk order.
    pub fn par_map_chunks<T, F>(&self, len: usize, chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        self.par_map(chunk_ranges(len, chunk), f)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.inner.lock().expect("pool lock").shutdown = true;
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut inner = shared.inner.lock().expect("pool lock");
            loop {
                if let Some(job) = inner.queue.pop_front() {
                    break Some(job);
                }
                if inner.shutdown {
                    break None;
                }
                inner = shared.work.wait(inner).expect("pool lock");
            }
        };
        match job {
            // Task wrappers are panic-isolated by `Scope::spawn`.
            Some(job) => job(),
            None => return,
        }
    }
}

/// Book-keeping for one [`ThreadPool::scope`] invocation.
struct ScopeState {
    shared: Arc<Shared>,
    /// Spawned-but-unfinished task count.
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches zero.
    done: Condvar,
    /// First captured task panic, re-thrown by `scope`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    /// Block until every spawned task finished, running queued tasks
    /// (helping) instead of idling while the queue is non-empty.
    fn wait_all(&self) {
        loop {
            if let Some(job) = self.shared.try_pop() {
                job();
                continue;
            }
            let pending = self.pending.lock().expect("scope lock");
            if *pending == 0 {
                return;
            }
            // Our remaining tasks are running on other threads (the queue
            // was just empty). Park until one completes. The short timeout
            // is defensive: a task we could help with may have been queued
            // between the pop above and this wait.
            let _ = self
                .done
                .wait_timeout(pending, Duration::from_millis(2))
                .expect("scope lock");
        }
    }
}

/// Handle passed to the closure of [`ThreadPool::scope`]; spawns tasks
/// that may borrow from the enclosing environment (`'env`).
pub struct Scope<'env> {
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawn a task onto the pool. The task may borrow from the
    /// environment of the `scope` call; `scope` does not return until the
    /// task has run, so the borrow outlives the task.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        *self.state.pending.lock().expect("scope lock") += 1;
        let state = self.state.clone();
        // Capture the spawning thread's trace context so spans created
        // inside the task (conf calls, nested pipelines) parent to the
        // span that was live at the spawn site, not to whatever happens
        // to be current on the worker. Keeps span-tree *shape*
        // independent of the thread count.
        let trace_ctx = maybms_obs::trace::current_context();
        let task = move || {
            let _trace = maybms_obs::trace::enter_context(trace_ctx);
            let result = catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = result {
                state
                    .panic
                    .lock()
                    .expect("panic slot")
                    .get_or_insert(payload);
            }
            let mut pending = state.pending.lock().expect("scope lock");
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(task);
        // SAFETY: the queue requires 'static jobs, but this job borrows
        // 'env data. `ThreadPool::scope` always calls `wait_all` before
        // returning — including when the scope body panics — so the job
        // has finished (and dropped) before any 'env borrow can end.
        // Trait-object lifetime erasure does not change the layout.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        self.state.shared.push(job);
    }
}

// ---------------------------------------------------------------------
// Chunking and seeding helpers
// ---------------------------------------------------------------------

/// Split `0..len` into contiguous ranges of `chunk` indices (the last may
/// be shorter). `chunk` is clamped to at least 1. An empty `len` yields no
/// ranges.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    (0..len.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(len))
        .collect()
}

/// A chunk size for `len` items on `threads` threads: enough chunks for
/// dynamic load balancing (≈4 per thread), but never below `min_chunk`
/// (so per-chunk overhead stays amortised).
pub fn auto_chunk(len: usize, threads: usize, min_chunk: usize) -> usize {
    let target = len.div_ceil(threads.max(1) * 4);
    target.max(min_chunk).max(1)
}

/// SplitMix64 output for stream position `index` of a stream named by
/// `seed` — the deterministic per-batch seed derivation used by the
/// seeded Monte Carlo estimators. Batch `i`'s RNG depends only on
/// `(seed, i)`, never on the thread count or interleaving, which is what
/// makes the parallel estimates bit-identical to the one-thread run.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    // SplitMix64: state advances by the golden-ratio increment; the mix
    // finalizer decorrelates consecutive states.
    let state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Process-wide pool
// ---------------------------------------------------------------------

static GLOBAL: OnceLock<Mutex<Arc<ThreadPool>>> = OnceLock::new();

fn global() -> &'static Mutex<Arc<ThreadPool>> {
    GLOBAL.get_or_init(|| Mutex::new(Arc::new(ThreadPool::new(default_threads()))))
}

/// The pool size the environment asks for: `MAYBMS_THREADS` if set to a
/// positive integer, otherwise (or when `0`) all available cores.
pub fn default_threads() -> usize {
    match std::env::var("MAYBMS_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// The process-wide pool used by operators when no explicit handle is
/// passed. First use sizes it from [`default_threads`].
pub fn pool() -> Arc<ThreadPool> {
    global().lock().expect("global pool lock").clone()
}

/// Replace the process-wide pool with one of `threads` threads (the
/// shell's `\threads N`). In-flight users keep their `Arc` to the old
/// pool, which shuts down when the last handle drops.
pub fn set_threads(threads: usize) -> Arc<ThreadPool> {
    let fresh = Arc::new(ThreadPool::new(threads.max(1)));
    *global().lock().expect("global pool lock") = fresh.clone();
    fresh
}

/// Convenience: the current process-wide pool size.
pub fn current_threads() -> usize {
    pool().threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static TASKS_RUN: AtomicUsize = AtomicUsize::new(0);

    #[test]
    fn one_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let out = pool.par_map(vec![1, 2, 3], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let pool = ThreadPool::new(4);
        let n = 200;
        let out = pool.par_map((0..n).collect::<Vec<_>>(), |i| {
            // Vary the work so completion order scrambles.
            let mut acc = i as u64;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (i, item) in out.iter().enumerate() {
            assert_eq!(item.0, i);
        }
    }

    #[test]
    fn scope_tasks_borrow_environment() {
        let pool = ThreadPool::new(3);
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut partials = [0u64; 4];
        pool.scope(|s| {
            for (slot, chunk) in partials.iter_mut().zip(data.chunks(2)) {
                s.spawn(move || *slot = chunk.iter().sum());
            }
        });
        assert_eq!(partials.iter().sum::<u64>(), 36);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Recursive fan-out deeper than the worker count: waiting threads
        // must help run queued tasks.
        fn tree_sum(pool: &ThreadPool, depth: usize) -> u64 {
            if depth == 0 {
                return 1;
            }
            let mut b = 0;
            let a = pool.scope(|s| {
                s.spawn(|| b = tree_sum(pool, depth - 1));
                tree_sum(pool, depth - 1)
            });
            a + b
        }
        let pool = ThreadPool::new(2);
        assert_eq!(tree_sum(&pool, 8), 256);
    }

    #[test]
    fn panics_propagate_after_all_tasks_finish() {
        let pool = ThreadPool::new(4);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..8 {
                    let ran = &ran;
                    s.spawn(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                        if i == 3 {
                            panic!("task failure");
                        }
                    });
                }
            });
        }));
        assert!(result.is_err(), "scope must rethrow the task panic");
        assert_eq!(ran.load(Ordering::SeqCst), 8, "all tasks ran to completion");
        // The pool survives a panicked scope.
        assert_eq!(pool.par_map(vec![1, 2], |x| x + 1), vec![2, 3]);
    }

    #[test]
    fn many_small_tasks_stress() {
        let pool = ThreadPool::new(4);
        for round in 0..50 {
            let out = pool.par_map((0..64usize).collect::<Vec<_>>(), |i| {
                TASKS_RUN.fetch_add(1, Ordering::Relaxed);
                i + round
            });
            assert_eq!(out.len(), 64);
            assert_eq!(out[0], round);
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        assert_eq!(chunk_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(3, 0), vec![0..1, 1..2, 2..3]); // chunk clamped to 1
        let ranges = chunk_ranges(1000, 7);
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 1000);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn auto_chunk_respects_minimum() {
        assert_eq!(auto_chunk(100, 4, 1024), 1024);
        assert!(auto_chunk(1_000_000, 4, 1024) >= 1024);
        assert_eq!(auto_chunk(0, 4, 16), 16);
        // 4 threads × ~4 chunks each.
        assert_eq!(auto_chunk(160_000, 4, 1000), 10_000);
    }

    #[test]
    fn derive_seed_is_deterministic_and_spreads() {
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        // Consecutive indices decorrelate (no shared high bits pattern).
        let a = derive_seed(0, 0);
        let b = derive_seed(0, 1);
        assert!((a ^ b).count_ones() > 10);
    }

    #[test]
    fn global_pool_and_set_threads() {
        let before = pool().threads();
        assert!(before >= 1);
        let p = set_threads(3);
        assert_eq!(p.threads(), 3);
        assert_eq!(pool().threads(), 3);
        assert_eq!(pool().par_map(vec![1, 2, 3], |x| x * 2), vec![2, 4, 6]);
        set_threads(before);
    }

    #[test]
    fn queued_tasks_and_depth_hwm_are_counted() {
        let before = maybms_obs::metrics().par_tasks.get();
        let pool = ThreadPool::new(2);
        let out = pool.par_map((0..16usize).collect::<Vec<_>>(), |i| i);
        assert_eq!(out.len(), 16);
        assert!(maybms_obs::metrics().par_tasks.get() >= before + 16);
        assert!(maybms_obs::metrics().par_queue_depth_hwm.get() >= 1);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // The determinism contract at the pool level: order-preserving
        // collection makes the merged result independent of scheduling.
        let work = |r: Range<usize>| -> f64 { r.map(|i| (i as f64).sqrt()).sum() };
        let merge =
            |pool: &ThreadPool| -> f64 { pool.par_map_chunks(10_000, 128, work).iter().sum() };
        let p1 = ThreadPool::new(1);
        let p2 = ThreadPool::new(2);
        let p8 = ThreadPool::new(8);
        let a = merge(&p1);
        let b = merge(&p2);
        let c = merge(&p8);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(a.to_bits(), c.to_bits());
    }
}
