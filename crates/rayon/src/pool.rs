//! The execution engine behind the `par_*` adapters: a lazily-initialized
//! global set of worker threads fed through a shared chunk queue.
//!
//! A parallel call hands `run(total, f)` a closure and a chunk count; chunks
//! are claimed by an atomic counter, the caller participates alongside the
//! workers, and the call returns only once every chunk has executed. Every
//! adapter built on top guarantees the determinism contract documented in
//! the crate root: chunk writes are disjoint and combination shapes depend
//! only on input length, so results are bit-identical to serial execution
//! no matter how many threads participate.
//!
//! Worker count: `RAYON_NUM_THREADS` (a positive integer) pins the default
//! width; otherwise it follows [`std::thread::available_parallelism`].
//! [`crate::ThreadPool::install`] overrides the width per calling thread,
//! and the pool lazily grows its worker set to honor the widest request —
//! idle workers just block on the queue's condvar, so over-provisioning is
//! harmless and determinism never depends on width.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// Per-thread override of the parallel width (see `ThreadPool::install`).
    /// Workers inherit the issuing thread's effective width per batch, so
    /// nested parallel calls stay inside the installed budget.
    static THREAD_CAP: Cell<Option<usize>> = const { Cell::new(None) };

    /// When set, `run` skips adaptive inline degradation and always takes
    /// the queue/dispatch path (see `with_forced_dispatch`). Test-only
    /// escape hatch so the pool machinery stays exercised on hosts where
    /// degradation would otherwise inline everything.
    static FORCE_DISPATCH: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the parallel width for this thread capped at `cap`.
pub(crate) fn with_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_CAP.with(|c| c.replace(Some(cap.max(1))));
    let _restore = Restore(prev);
    f()
}

/// The parallel width `run` will use for calls issued from this thread.
pub(crate) fn current_num_threads() -> usize {
    THREAD_CAP.with(|c| c.get()).unwrap_or_else(default_threads)
}

/// Run `f` with adaptive inline degradation disabled on this thread: every
/// `run` issued inside `f` (with width > 1) goes through the shared queue.
pub(crate) fn with_forced_dispatch<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_DISPATCH.with(|c| c.set(self.0));
        }
    }
    let prev = FORCE_DISPATCH.with(|c| c.replace(true));
    let _restore = Restore(prev);
    f()
}

/// Minimum chunks-per-participant below which a parallel call degrades to
/// inline execution.
pub(crate) const INLINE_GRAIN: usize = 32;

/// Physical cores visible to the process, independent of any
/// `RAYON_NUM_THREADS` override — the quantity that decides whether worker
/// threads can ever run concurrently with the caller.
pub(crate) fn hardware_parallelism() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

thread_local! {
    /// How the parallel calls *issued by this thread* executed (see
    /// [`crate::pool_stats`]). `run` bumps them on its caller, so a
    /// before/after delta describes exactly the region between the two
    /// reads, whatever other threads dispatch meanwhile.
    static INLINE_RUNS: Cell<u64> = const { Cell::new(0) };
    static DISPATCHED_RUNS: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the calling thread's inline-vs-dispatched run counters.
pub(crate) fn stats() -> (u64, u64) {
    (INLINE_RUNS.get(), DISPATCHED_RUNS.get())
}

/// Pool width when no `install` override is active: `RAYON_NUM_THREADS` if
/// set to a positive integer, else the machine's available parallelism.
pub(crate) fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let hw = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        match std::env::var("RAYON_NUM_THREADS") {
            Ok(s) => match s.trim().parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => hw(),
            },
            Err(_) => hw(),
        }
    })
}

type PanicPayload = Box<dyn Any + Send + 'static>;

/// Lifetime-erased handle to the caller's `Fn(usize)` closure. Soundness:
/// `run` does not return (or unwind) until `remaining` hits zero, so the
/// borrow outlives every use from a worker.
#[derive(Clone, Copy)]
struct Task {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointed-to closure is `Sync` (bound enforced by `run`), and
// the `run` protocol keeps the borrow alive for as long as workers can
// reach it.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

/// One parallel call: a chunk counter handed out to every participating
/// thread, a countdown for completion, and a slot for the first panic.
struct Batch {
    task: Task,
    total: usize,
    /// Effective width of the issuing call; workers install it while
    /// executing chunks so nested parallelism inherits the budget.
    width: usize,
    next: AtomicUsize,
    remaining: AtomicUsize,
    done: Mutex<Done>,
    done_cv: Condvar,
}

#[derive(Default)]
struct Done {
    finished: bool,
    panic: Option<PanicPayload>,
}

impl Batch {
    /// Claim and execute chunks until none remain. Panics from `f` are
    /// captured (first wins) so a worker thread survives to serve later
    /// batches; the issuing caller rethrows in `wait`.
    fn work(&self) {
        with_thread_cap(self.width, || loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                break;
            }
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: `i < total`, each index is claimed exactly once,
                // and the closure is alive (see `Task`).
                unsafe { (self.task.call)(self.task.data, i) }
            }));
            if let Err(payload) = result {
                let mut d = self.done.lock().unwrap();
                if d.panic.is_none() {
                    d.panic = Some(payload);
                }
            }
            // AcqRel chains every executor's writes into the final
            // decrement, which publishes them to the waiting caller.
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut d = self.done.lock().unwrap();
                d.finished = true;
                self.done_cv.notify_all();
            }
        });
    }

    /// Block until every chunk has executed, then rethrow the first panic.
    fn wait(&self) {
        let mut d = self.done.lock().unwrap();
        while !d.finished {
            d = self.done_cv.wait(d).unwrap();
        }
        if let Some(p) = d.panic.take() {
            drop(d);
            panic::resume_unwind(p);
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    work_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Workers spawned so far; grown on demand up to the widest request.
    spawned: Mutex<usize>,
}

impl Pool {
    fn ensure_workers(&self, want: usize) {
        let mut n = self.spawned.lock().unwrap();
        while *n < want {
            let shared = Arc::clone(&self.shared);
            let id = *n;
            std::thread::Builder::new()
                .name(format!("rayon-worker-{id}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
            *n += 1;
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(b) = q.pop_front() {
                    break b;
                }
                q = shared.work_cv.wait(q).unwrap();
            }
        };
        // A stale batch (already drained by its caller) just falls through
        // `work` without claiming anything.
        batch.work();
    }
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

/// Execute `f(0)`, `f(1)`, …, `f(total-1)`, each exactly once, using up to
/// the current parallel width. Returns only after every index has run;
/// panics from `f` propagate to the caller (first panic wins; on the
/// dispatched path the rest of the indices still execute so borrowed data
/// is never abandoned early).
///
/// **Adaptive inline degradation**: a call degrades to a plain serial loop
/// (no queue traffic, no condvar wake-ups, no cross-thread handoff) when
/// the effective width is 1, when the host has a single core (worker
/// threads can never actually run concurrently with the caller, so
/// dispatch is pure overhead), or when the work is too small to amortize
/// dispatch (`total < width × grain`; the adapters pass [`INLINE_GRAIN`]).
/// The degraded path is bit-identical by construction: every adapter writes
/// disjoint chunks or combines with a shape that depends only on input
/// length, so executing the same indices on one thread produces the same
/// bytes.
pub(crate) fn run<F>(total: usize, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if total == 0 {
        return;
    }
    let width = current_num_threads().min(total);
    let degrade = width <= 1
        || (!FORCE_DISPATCH.with(|c| c.get())
            && (hardware_parallelism() == 1 || total < width * grain));
    if degrade {
        // Inline: no queue traffic, panics propagate natively.
        INLINE_RUNS.set(INLINE_RUNS.get() + 1);
        for i in 0..total {
            f(i);
        }
        return;
    }
    DISPATCHED_RUNS.set(DISPATCHED_RUNS.get() + 1);

    unsafe fn call_erased<F: Fn(usize) + Sync>(data: *const (), i: usize) {
        // SAFETY: `data` was created from `&f` below and is still borrowed.
        let f = unsafe { &*(data.cast::<F>()) };
        f(i);
    }

    let pool = global();
    pool.ensure_workers(width - 1);
    let batch = Arc::new(Batch {
        task: Task {
            data: std::ptr::from_ref(&f).cast::<()>(),
            call: call_erased::<F>,
        },
        total,
        width,
        next: AtomicUsize::new(0),
        remaining: AtomicUsize::new(total),
        done: Mutex::new(Done::default()),
        done_cv: Condvar::new(),
    });
    {
        let mut q = pool.shared.queue.lock().unwrap();
        for _ in 0..width - 1 {
            q.push_back(Arc::clone(&batch));
        }
    }
    pool.shared.work_cv.notify_all();

    batch.work(); // The caller participates instead of just blocking.
    batch.wait(); // Helpers may still hold chunks; panics rethrow here.
}
