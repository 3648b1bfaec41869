//! Deterministic parallel fan-out for the ReMIX pipeline, on a persistent
//! worker pool.
//!
//! Every helper here preserves input order in its output and partitions work
//! into *contiguous* shards, so callers can guarantee bit-identical results
//! between sequential and parallel execution: the same per-item computation
//! runs in the same per-item order, only on different threads.
//!
//! Workers are spawned **once**, on the first parallel call, and then reused
//! for the life of the process ([`pool_threads_spawned`] exposes the lifetime
//! spawn count so tests can assert reuse). Dispatching a job costs one mutex
//! lock plus a condvar broadcast (~2 µs), versus ~10 µs *per thread* for the
//! `std::thread::scope` spawns this replaced — which matters because the GEMM
//! kernel in `remix-tensor` dispatches here for every large matrix product.
//! The caller always participates in its own job, so a machine reporting one
//! core (or an empty pool) degrades to plain sequential execution.
//!
//! Thread-count resolution is centralized in [`num_threads`] /
//! [`resolve_threads`], honoring the `REMIX_THREADS` environment variable,
//! read once on first use, so benchmarks and CI can pin parallelism without
//! code changes. The pool is sized from the machine's parallelism (or
//! `REMIX_THREADS`, whichever is larger); callers control the *effective*
//! concurrency of each job through how many tasks they split it into.

#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Default worker count: the `REMIX_THREADS` environment variable when set to
/// a positive integer, otherwise the machine's available parallelism.
///
/// Resolved once per process, on first use: the GEMM dispatchers ask for it
/// on every product, and `available_parallelism` reads the affinity mask and
/// cgroup files on every call. A program that pins `REMIX_THREADS` must set
/// it before anything reaches this function; later changes are not seen.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("REMIX_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Resolves a user-facing thread setting: `0` means "auto" ([`num_threads`]),
/// anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        num_threads()
    } else {
        requested
    }
}

/// Splits `0..len` into at most `shards` contiguous, near-equal, non-empty
/// ranges covering every index exactly once.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Splits `0..len` into contiguous batches of at most `batch_size` items.
///
/// Unlike [`shard_ranges`] (which balances a fixed *number* of shards), this
/// fixes the batch *size*: every range has exactly `batch_size` elements
/// except possibly the last, which holds the ragged remainder. This is the
/// unit of work for the batched inference engine — each batch becomes one
/// multi-column matmul sweep.
///
/// A `batch_size` of 0 is treated as 1.
pub fn batch_ranges(len: usize, batch_size: usize) -> Vec<Range<usize>> {
    let batch_size = batch_size.max(1);
    let mut ranges = Vec::with_capacity(len.div_ceil(batch_size));
    let mut start = 0;
    while start < len {
        let end = (start + batch_size).min(len);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// One posted job: a type-erased task closure plus the claim/completion
/// counters. Tasks are claimed by atomic `fetch_add` on `next`, so every
/// index in `0..ntasks` is executed by exactly one thread; `remaining` counts
/// completions and the last finisher signals `done`.
struct Job {
    /// Lifetime-erased pointer to the caller's task closure. Only valid while
    /// the posting call is blocked in [`Pool::execute`]; stale workers that
    /// observe this job after completion see `next >= ntasks` and never
    /// dereference it.
    func: *const (dyn Fn(usize) + Sync),
    ntasks: usize,
    next: AtomicUsize,
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The poster's open trace span at post time; workers adopt it so spans
    /// opened inside tasks nest under the dispatching span (zero when tracing
    /// is disabled or no span is open).
    trace_parent: u64,
}

// SAFETY: `func` is only dereferenced while the posting thread is blocked in
// `Pool::execute`, which outlives every dereference (the job is not `done`
// until all claimed tasks finish, and unclaimed observers never dereference).
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs tasks until none are left. Panics in tasks are caught,
    /// recorded, and re-raised by the posting thread.
    fn work(&self) {
        let _adopt = remix_trace::propagate(self.trace_parent);
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.ntasks {
                return;
            }
            // SAFETY: a claimed index implies the posting call is still
            // blocked waiting for `remaining`, so the closure is alive.
            let f = unsafe { &*self.func };
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                let mut slot = self.panic.lock().unwrap();
                slot.get_or_insert(payload);
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().unwrap() = true;
                self.done_cv.notify_all();
            }
        }
    }
}

/// The pool's mailbox: workers sleep on `available` until `seq` advances,
/// then grab the current job. A job left in the slot after completion is
/// harmless (see [`Job::work`]); it is cleared by the poster to drop the Arc.
struct Inbox {
    seq: u64,
    job: Option<Arc<Job>>,
}

struct PoolShared {
    inbox: Mutex<Inbox>,
    available: Condvar,
}

/// A persistent worker pool. Tests construct private instances; production
/// code uses the lazily-initialized global via [`pool_execute`].
struct Pool {
    shared: Arc<PoolShared>,
    workers: usize,
    /// Worker threads this pool has spawned.
    spawned: AtomicUsize,
}

impl Pool {
    /// Spawns `workers` detached worker threads (zero is valid: every job
    /// then runs entirely on the posting thread).
    fn with_workers(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            inbox: Mutex::new(Inbox { seq: 0, job: None }),
            available: Condvar::new(),
        });
        let spawned = AtomicUsize::new(0);
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("remix-pool-{w}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
            spawned.fetch_add(1, Ordering::Relaxed);
        }
        Self {
            shared,
            workers,
            spawned,
        }
    }

    /// Runs `f(0)`, `f(1)`, …, `f(ntasks - 1)`, each exactly once, fanned out
    /// across the workers with the calling thread participating. Returns when
    /// every task has finished. Panics in tasks are re-raised here.
    fn execute(&self, ntasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if ntasks == 0 {
            return;
        }
        remix_trace::incr(remix_trace::Counter::PoolJobs);
        remix_trace::add(remix_trace::Counter::PoolTasks, ntasks as u64);
        if ntasks == 1 || self.workers == 0 {
            // Degenerate jobs run on the posting thread, where span nesting is
            // already correct — no propagation needed.
            for i in 0..ntasks {
                f(i);
            }
            return;
        }
        /// Erases the closure's borrow lifetime so it can sit in the shared
        /// [`Job`]. Sound because `execute` does not return until `remaining`
        /// hits zero, so the pointer outlives every dereference (see [`Job`]).
        fn erase<'a>(
            f: &'a (dyn Fn(usize) + Sync + 'a),
        ) -> *const (dyn Fn(usize) + Sync + 'static) {
            // SAFETY: both sides are fat pointers to the same allocation; only
            // the (unused-at-runtime) lifetime bound changes.
            unsafe {
                std::mem::transmute::<
                    &'a (dyn Fn(usize) + Sync + 'a),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(f)
            }
        }
        let job = Arc::new(Job {
            func: erase(f),
            ntasks,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(ntasks),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            trace_parent: remix_trace::current_span(),
        });
        let posted_seq = {
            let mut inbox = self.shared.inbox.lock().unwrap();
            inbox.seq += 1;
            inbox.job = Some(Arc::clone(&job));
            self.shared.available.notify_all();
            inbox.seq
        };
        // The poster is also a worker for its own job.
        job.work();
        let mut done = job.done.lock().unwrap();
        while !*done {
            done = job.done_cv.wait(done).unwrap();
        }
        drop(done);
        // Drop the inbox's Arc so the job (and its dangling closure pointer)
        // does not linger; guard on seq in case another poster raced in.
        {
            let mut inbox = self.shared.inbox.lock().unwrap();
            if inbox.seq == posted_seq {
                inbox.job = None;
            }
        }
        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut inbox = shared.inbox.lock().unwrap();
            loop {
                if inbox.seq != seen {
                    seen = inbox.seq;
                    break inbox.job.clone();
                }
                inbox = shared.available.wait(inbox).unwrap();
            }
        };
        if let Some(job) = job {
            job.work();
        }
    }
}

static GLOBAL_POOL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, spawned on first use. Sized to leave one slot for
/// the posting thread; `REMIX_THREADS` can raise it above the core count at
/// first use (useful for exercising the parallel paths on small machines).
fn global_pool() -> &'static Pool {
    GLOBAL_POOL.get_or_init(|| {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        Pool::with_workers(num_threads().max(hw).saturating_sub(1))
    })
}

/// Runs `f(i)` for every `i` in `0..ntasks`, each exactly once, across the
/// persistent global pool with the calling thread participating.
///
/// Task *claim order* follows the atomic counter, but callers must not rely
/// on any cross-task ordering — tasks run concurrently. Determinism comes
/// from each task writing disjoint state, exactly as with scoped threads.
/// Nested calls are safe: a worker posting a sub-job simply participates in
/// it while other idle workers help.
///
/// # Panics
///
/// Re-raises the first panic observed among the tasks.
pub fn pool_execute(ntasks: usize, f: &(dyn Fn(usize) + Sync)) {
    global_pool().execute(ntasks, f);
}

/// Worker threads the process-wide pool has spawned (0 before its first
/// parallel call). Flat across repeated parallel calls — the probe tests use
/// this to assert the pool is actually reused rather than respawned.
pub fn pool_threads_spawned() -> usize {
    GLOBAL_POOL
        .get()
        .map_or(0, |pool| pool.spawned.load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// Order-preserving combinators (pool-backed)
// ---------------------------------------------------------------------------

/// Copyable raw-pointer wrapper so disjoint-index writes can cross the
/// `Fn(usize) + Sync` task boundary. (`Copy`/`Clone` are manual so no `T:
/// Clone` bound is implied, and `get` keeps closures capturing the whole
/// wrapper rather than the raw field.)
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(self) -> *mut T {
        self.0
    }
}

/// Computes `f(i)` for `i` in `0..len` across `threads` contiguous shards and
/// returns the results in index order.
///
/// If a task panics, results produced so far are leaked (not dropped) before
/// the panic is re-raised; all callers treat that as a fatal error.
fn pool_collect<U, F>(len: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let shards = shard_ranges(len, threads);
    if shards.len() <= 1 {
        return (0..len).map(f).collect();
    }
    let mut out: Vec<std::mem::MaybeUninit<U>> = Vec::with_capacity(len);
    out.resize_with(len, std::mem::MaybeUninit::uninit);
    let base = SendPtr(out.as_mut_ptr());
    pool_execute(shards.len(), &|s| {
        for i in shards[s].clone() {
            // SAFETY: shards partition 0..len disjointly and `out` outlives
            // the call, so each slot is written exactly once, without aliasing.
            unsafe { base.get().add(i).write(std::mem::MaybeUninit::new(f(i))) };
        }
    });
    // SAFETY: every slot in 0..len was initialized by exactly one task.
    unsafe {
        let mut out = std::mem::ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr().cast::<U>(), out.len(), out.capacity())
    }
}

/// Order-preserving parallel map over shared items.
///
/// `f` receives `(index, &item)`; the output at position `i` is `f(i,
/// &items[i])`. With `threads <= 1` this degenerates to a plain serial map on
/// the calling thread.
pub fn map_indexed<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    pool_collect(items.len(), threads, |i| f(i, &items[i]))
}

/// Order-preserving parallel map over mutable items (each item is visited by
/// exactly one worker).
///
/// `f` receives `(index, &mut item)`; the output at position `i` is `f(i,
/// &mut items[i])`. With `threads <= 1` this degenerates to a serial map.
pub fn map_mut_indexed<T, U, F>(items: &mut [T], threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut T) -> U + Sync,
{
    let base = SendPtr(items.as_mut_ptr());
    let len = items.len();
    pool_collect(len, threads, move |i| {
        // SAFETY: pool_collect visits every index exactly once, so the &mut
        // borrows are disjoint; `items` outlives the call.
        let item = unsafe { &mut *base.get().add(i) };
        f(i, item)
    })
}

/// Runs `f(span_index, span)` for each consecutive `span`-element chunk of
/// `data` (the final chunk may be shorter), fanned out across the pool.
///
/// Callers pick `span` so the chunk count matches their desired parallelism;
/// contiguous chunks keep writes disjoint without synchronization.
///
/// # Panics
///
/// Panics if `span` is zero.
pub fn for_each_span_mut<T, F>(data: &mut [T], span: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(span > 0, "span must be positive");
    let len = data.len();
    if len <= span {
        if len > 0 {
            f(0, data);
        }
        return;
    }
    let nchunks = len.div_ceil(span);
    let base = SendPtr(data.as_mut_ptr());
    pool_execute(nchunks, &|idx| {
        let start = idx * span;
        let n = span.min(len - start);
        // SAFETY: chunk `idx` covers `start..start + n`; chunks are disjoint
        // and each task index runs exactly once, so no slice aliases another.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), n) };
        f(idx, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_exactly() {
        for len in [0usize, 1, 2, 7, 16, 33] {
            for shards in [1usize, 2, 3, 8, 64] {
                let ranges = shard_ranges(len, shards);
                let mut covered = 0;
                let mut expected_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected_start);
                    assert!(!r.is_empty(), "len={len} shards={shards}");
                    covered += r.len();
                    expected_start = r.end;
                }
                assert_eq!(covered, len);
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    #[test]
    fn map_indexed_preserves_order_for_any_thread_count() {
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|v| v * 3).collect();
        for threads in [1, 2, 3, 7, 100, 200] {
            let got = map_indexed(&items, threads, |i, &v| {
                assert_eq!(i, v);
                v * 3
            });
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn map_mut_indexed_mutates_and_preserves_order() {
        for threads in [1, 4, 9] {
            let mut items: Vec<usize> = (0..37).collect();
            let got = map_mut_indexed(&mut items, threads, |i, v| {
                *v += 1;
                i
            });
            assert_eq!(got, (0..37).collect::<Vec<_>>());
            assert_eq!(items, (1..38).collect::<Vec<_>>());
        }
    }

    #[test]
    fn for_each_span_mut_covers_all_chunks() {
        let mut data = vec![0u32; 25];
        for_each_span_mut(&mut data, 7, |idx, chunk| {
            for v in chunk {
                *v = idx as u32 + 1;
            }
        });
        assert!(data.iter().all(|&v| v > 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[24], 4); // 25 = 7+7+7+4 -> four chunks
    }

    #[test]
    fn resolve_threads_treats_zero_as_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn batch_ranges_fixes_size_with_ragged_tail() {
        assert_eq!(batch_ranges(0, 32), vec![]);
        assert_eq!(batch_ranges(7, 3), vec![0..3, 3..6, 6..7]);
        assert_eq!(batch_ranges(6, 3), vec![0..3, 3..6]);
        assert_eq!(batch_ranges(2, 32), vec![0..2]);
        // zero batch size degrades to one-at-a-time instead of looping forever
        assert_eq!(batch_ranges(3, 0), vec![0..1, 1..2, 2..3]);
        // every index covered exactly once, in order
        let covered: Vec<usize> = batch_ranges(103, 10).into_iter().flatten().collect();
        assert_eq!(covered, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn private_pool_runs_every_task_exactly_once() {
        // Explicit worker counts so the worker code path is exercised even on
        // single-core CI machines (where the global pool spawns no workers).
        for workers in [0usize, 1, 3] {
            let pool = Pool::with_workers(workers);
            for ntasks in [0usize, 1, 2, 5, 64] {
                let hits: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
                pool.execute(ntasks, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} workers {workers}");
                }
            }
        }
    }

    #[test]
    fn pool_is_reused_across_jobs() {
        // Counts this pool's own spawns: the process-wide counter also moves
        // whenever another test builds a pool concurrently.
        let pool = Pool::with_workers(2);
        let before = pool.spawned.load(Ordering::Relaxed);
        assert_eq!(before, 2);
        for _ in 0..50 {
            let sum = AtomicUsize::new(0);
            pool.execute(8, &|i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 28);
        }
        assert_eq!(
            pool.spawned.load(Ordering::Relaxed),
            before,
            "50 jobs must not spawn new threads"
        );
    }

    #[test]
    fn nested_execute_completes() {
        let pool = Pool::with_workers(2);
        let total = AtomicUsize::new(0);
        pool.execute(3, &|_| {
            // Each outer task runs an inner job on the same pool.
            let inner = AtomicUsize::new(0);
            pool.execute(4, &|j| {
                inner.fetch_add(j + 1, Ordering::Relaxed);
            });
            total.fetch_add(inner.load(Ordering::Relaxed), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 30); // 3 × (1+2+3+4)
    }

    #[test]
    fn task_panic_propagates_to_poster() {
        let pool = Pool::with_workers(1);
        let result = std::panic::catch_unwind(|| {
            pool.execute(4, &|i| {
                assert!(i != 2, "boom");
            });
        });
        assert!(
            result.is_err(),
            "panic in task must reach the posting thread"
        );
        // The pool stays usable after a panicked job.
        let ok = AtomicUsize::new(0);
        pool.execute(4, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }
}
