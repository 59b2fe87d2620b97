//! Global parallel runtime for tensor kernels.
//!
//! A lazily-started pool of persistent worker threads executes contiguous
//! index ranges of data-parallel loops. Design constraints, in order:
//!
//! 1. **Bitwise determinism.** Results must be identical no matter how many
//!    threads run — kernels achieve this by making work partitions either
//!    irrelevant to the result (disjoint output rows) or fixed independently
//!    of the thread count (chunked reductions, see [`crate::kernels`]).
//!    The runtime itself only hands out ranges; it never reorders an
//!    individual range's interior.
//! 2. **Zero cost below threshold.** [`parallel_for`] runs the closure
//!    inline on the calling thread when the pool is disabled, the work is
//!    small, or only one worker is configured. Small tensors never pay a
//!    synchronisation fee.
//! 3. **No new dependencies.** Workers are plain `std::thread`s fed from a
//!    shared injector queue; scoped lifetimes are handled with a completion
//!    latch so borrowed closures stay valid until every worker is done.
//!
//! Observability: with `OM_OBS=1` the dispatch path records spans
//! (`runtime.parallel_for`, per-worker `runtime.task`, `runtime.join`),
//! per-thread busy time and grain/task-count metrics through `om-obs`.
//! Collection only reads clocks and bumps atomics — partitioning is
//! computed before any instrumentation, so results remain bitwise
//! identical with observability on or off, and the disabled path costs a
//! single relaxed atomic load.
//!
//! The pool size is decided once, at first use: the `OM_THREADS`
//! environment variable if set (a value of `1` disables the pool), else
//! [`std::thread::available_parallelism`]. Tests that must compare serial
//! and parallel execution in-process can override the *effective* thread
//! count at any time with [`set_threads`]; the pool itself keeps its
//! workers either way.

#![expect(unsafe_code, reason = "the pool erases a borrowed closure's lifetime and shares disjoint row ranges by raw pointer")]

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Cached `om-obs` metric handles for the dispatch path. Touched only when
/// observability is enabled; the disabled path costs one relaxed load.
struct ObsHandles {
    /// `parallel_for` calls that actually dispatched to the pool.
    dispatches: om_obs::metrics::Counter,
    /// `parallel_for` calls that ran inline (below threshold / 1 thread).
    inline_runs: om_obs::metrics::Counter,
    /// Tasks shipped (including the caller's own range).
    tasks: om_obs::metrics::Counter,
    /// Indices per task — the realised work grain.
    grain: om_obs::metrics::Histogram,
}

fn obs() -> &'static ObsHandles {
    static H: OnceLock<ObsHandles> = OnceLock::new();
    H.get_or_init(|| ObsHandles {
        dispatches: om_obs::metrics::counter("runtime.dispatches"),
        inline_runs: om_obs::metrics::counter("runtime.inline_runs"),
        tasks: om_obs::metrics::counter("runtime.tasks"),
        grain: om_obs::metrics::histogram("runtime.task_indices"),
    })
}

/// Count one pooled dispatch. Cold and out of line, like the GEMM
/// counters: the seqlock histogram record stays out of every
/// monomorphised `parallel_for`.
#[cold]
fn obs_dispatch(tasks: usize, chunk: usize) {
    let h = obs();
    h.dispatches.add(1);
    h.tasks.add(tasks as u64);
    h.grain.record(chunk as u64);
}

/// A unit of work shipped to the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    sender: mpsc::Sender<Job>,
}

static POOL: OnceLock<Option<Pool>> = OnceLock::new();
/// Effective thread count override; 0 means "use the configured maximum".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static MAX_THREADS: OnceLock<usize> = OnceLock::new();

/// The maximum parallelism the runtime was configured with: `OM_THREADS` if
/// set (clamped to at least 1), otherwise the machine's available
/// parallelism. Fixed for the lifetime of the process.
pub fn max_threads() -> usize {
    *MAX_THREADS.get_or_init(|| {
        match std::env::var("OM_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) => n.max(1),
            None => thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    })
}

/// The effective thread count kernels will use right now: the value last
/// passed to [`set_threads`], else [`max_threads`].
pub fn threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => max_threads(),
        n => n.min(max_threads()),
    }
}

/// Override the effective thread count (clamped to `1..=max_threads`);
/// pass 0 to restore the default. Returns the previous override (0 if none
/// was active). Intended for tests that assert serial/parallel parity
/// within one process.
pub fn set_threads(n: usize) -> usize {
    THREAD_OVERRIDE.swap(n, Ordering::Relaxed)
}

#[expect(clippy::disallowed_methods, reason = "this is the pool: its workers are the threads every other module runs on")]
fn pool() -> Option<&'static Pool> {
    POOL.get_or_init(|| {
        let workers = max_threads().saturating_sub(1);
        if workers == 0 {
            return None;
        }
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        for i in 0..workers {
            let receiver = Arc::clone(&receiver);
            thread::Builder::new()
                .name(format!("om-worker-{i}"))
                .spawn(move || loop {
                    // Take the lock only long enough to pull one job.
                    let job = match receiver.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => break,
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => break, // channel closed: process exit
                    }
                })
                .expect("spawning om-tensor worker thread");
        }
        Some(Pool { sender })
    })
    .as_ref()
}

/// Counts outstanding jobs of one `parallel_for` call and wakes the caller
/// when the last one finishes.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.done.notify_one();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap();
        while *left > 0 {
            left = self.done.wait(left).unwrap();
        }
    }
}

/// Run `body(lo, hi)` over disjoint contiguous ranges covering `0..n`.
///
/// The range boundaries depend only on `n`, `grain` and the *effective*
/// thread count, but callers must not rely on them: a kernel is only
/// allowed through this entry point if its result is independent of the
/// partition (each index writes its own output, or reduction chunking is
/// fixed elsewhere).
///
/// Runs inline (one call, `body(0, n)`) when any of: the pool is disabled,
/// `threads() == 1`, or `n <= grain`. `grain` is the minimum number of
/// indices worth shipping to another thread — pick it so a grain of work
/// costs at least a few microseconds.
///
/// Panics in `body` are propagated to the caller after all ranges finish.
pub fn parallel_for<F>(n: usize, grain: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let grain = grain.max(1);
    let want = threads();
    if n == 0 {
        return;
    }
    let obs_on = om_obs::enabled();
    if want <= 1 || n <= grain {
        if obs_on {
            obs().inline_runs.add(1);
        }
        body(0, n);
        return;
    }
    let Some(pool) = pool() else {
        body(0, n);
        return;
    };

    // At most one range per thread, but never shorter than the grain.
    let tasks = (n / grain).clamp(1, want);
    if tasks <= 1 {
        if obs_on {
            obs().inline_runs.add(1);
        }
        body(0, n);
        return;
    }
    let chunk = n.div_ceil(tasks);

    // Observability (spans, counters, busy time) reads clocks and bumps
    // atomics only — it never influences `chunk`/`tasks`, so results stay
    // bitwise identical with collection on or off.
    let _dispatch_span = om_obs::trace::span_if(obs_on, "runtime.parallel_for");
    if obs_on {
        obs_dispatch(tasks, chunk);
    }

    let latch = Arc::new(Latch::new(tasks - 1));
    let body_ref: &(dyn Fn(usize, usize) + Sync) = &body;
    // SAFETY: the transmute only erases the lifetime of the borrow ('a →
    // 'static); vtable and layout are unchanged. The 'static claim is never
    // relied on: every job that captures `body_static` counts the latch
    // down when it finishes (even on panic, via catch_unwind below), and
    // this frame blocks on `latch.wait()` before returning on every path,
    // so the borrow of `body` strictly outlives all uses of the erased
    // reference. `F: Sync` makes the shared `&F` safe to call from workers.
    let body_static: &'static (dyn Fn(usize, usize) + Sync) = unsafe {
        std::mem::transmute(body_ref)
    };

    for t in 1..tasks {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        if lo >= hi {
            latch.count_down();
            continue;
        }
        let latch = Arc::clone(&latch);
        let job: Job = Box::new(move || {
            let task_span = om_obs::trace::span_if(obs_on, "runtime.task");
            let t0 = if obs_on { om_obs::clock::now_ns() } else { 0 };
            let result = panic::catch_unwind(AssertUnwindSafe(|| body_static(lo, hi)));
            if obs_on {
                om_obs::trace::busy_add(om_obs::clock::now_ns().saturating_sub(t0));
            }
            drop(task_span);
            if result.is_err() {
                latch.panicked.store(true, Ordering::Relaxed);
            }
            latch.count_down();
        });
        pool.sender.send(job).expect("worker pool channel closed");
    }

    // The caller works on the first range, then waits for the rest so the
    // borrow of `body` cannot escape this frame.
    let t0 = if obs_on { om_obs::clock::now_ns() } else { 0 };
    let own = panic::catch_unwind(AssertUnwindSafe(|| body(0, chunk.min(n))));
    if obs_on {
        om_obs::trace::busy_add(om_obs::clock::now_ns().saturating_sub(t0));
    }
    {
        let _join_span = om_obs::trace::span_if(obs_on, "runtime.join");
        latch.wait();
    }
    if let Err(payload) = own {
        panic::resume_unwind(payload);
    }
    if latch.panicked.load(Ordering::Relaxed) {
        panic!("om-tensor worker panicked inside parallel_for");
    }
}

/// Split `out` into row blocks of `row_len` elements and run
/// `body(first_row, rows_block)` on each block in parallel. Blocks are
/// disjoint `&mut` views, so any per-row computation is race-free and
/// bitwise independent of the partition.
///
/// `grain_rows` is the minimum number of rows per shipped block.
pub fn parallel_rows_mut<T, F>(out: &mut [T], row_len: usize, grain_rows: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "parallel_rows_mut: zero row length");
    assert_eq!(out.len() % row_len, 0, "parallel_rows_mut: ragged output");
    let rows = out.len() / row_len;
    let base = SendPtr(out.as_mut_ptr());
    parallel_for(rows, grain_rows, |lo, hi| {
        // SAFETY: `parallel_for` hands out disjoint `[lo, hi)` ranges that
        // together cover `0..rows` exactly once, so `[lo*row_len,
        // hi*row_len)` are non-overlapping in-bounds subranges of `out`
        // (`out.len() == rows * row_len` is asserted above). Each closure
        // invocation therefore materialises a `&mut` view no other thread
        // can alias, and `out` itself is mutably borrowed for the whole
        // call, so no access from outside the pool can race either.
        let block = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(lo * row_len), (hi - lo) * row_len)
        };
        body(lo, block);
    });
}

/// Raw pointer wrapper asserting cross-thread use is safe because ranges
/// handed to each thread never overlap. Accessed through [`SendPtr::get`]
/// so closures capture the whole (Sync) wrapper, not the bare pointer.
struct SendPtr<T>(*mut T);
// SAFETY: sending the wrapper to another thread moves only the pointer
// value; the pointee is `T: Send`, and every dereference site (see
// `parallel_rows_mut`) restricts itself to a range disjoint from all other
// threads', so the exclusive-access rule `&mut T` normally enforces is
// upheld manually per range.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: `&SendPtr<T>` only exposes the raw pointer via `get`; sharing it
// between threads is sound for the same reason as `Send` above — concurrent
// writes through the pointer are confined to disjoint index ranges by the
// single caller (`parallel_rows_mut`), never overlapping.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let n = 10_007; // prime: exercises ragged tails
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 64, |lo, hi| {
            for h in &hits[lo..hi] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn small_inputs_run_inline() {
        let n = 8;
        let tid = std::thread::current().id();
        let same_thread = AtomicBool::new(true);
        parallel_for(n, 64, |_, _| {
            if std::thread::current().id() != tid {
                same_thread.store(false, Ordering::Relaxed);
            }
        });
        assert!(same_thread.load(Ordering::Relaxed));
    }

    #[test]
    fn set_threads_roundtrip() {
        let prev = set_threads(1);
        assert_eq!(threads(), 1);
        set_threads(prev);
    }

    #[test]
    fn parallel_rows_blocks_are_disjoint_and_ordered() {
        let rows = 137;
        let row_len = 13;
        let mut out = vec![0.0f32; rows * row_len];
        parallel_rows_mut(&mut out, row_len, 4, |first_row, block| {
            for (r, row) in block.chunks_mut(row_len).enumerate() {
                for v in row.iter_mut() {
                    *v = (first_row + r) as f32;
                }
            }
        });
        for r in 0..rows {
            assert!(out[r * row_len..(r + 1) * row_len].iter().all(|&v| v == r as f32));
        }
    }

    #[test]
    fn panics_propagate_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            parallel_for(100_000, 1, |lo, _| {
                if lo == 0 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let total = AtomicUsize::new(0);
        parallel_for(1000, 1, |lo, hi| {
            total.fetch_add(hi - lo, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 1000);
    }
}
