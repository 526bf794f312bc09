//! What serving asks of the heap: a request is a handle into the shared
//! pool, not a copy of its row, and a fresh batch is planned from the pool
//! where its requests point instead of through an assembled CSR.
//!
//! As in `emb-retrieval`'s `steady_allocs` test, this binary installs a
//! counting wrapper around the system allocator and reads per-thread deltas
//! across the measured calls, so nothing another test does is charged to
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use emb_retrieval::backend::{plain_plan, plan_with_planner};
use emb_retrieval::{EmbLayerConfig, SparseBatch};
use emb_serve::{ArrivalProcess, PoolWindow, Request, RequestGenerator};
use gpusim::GpuSpec;
use rayon::ThreadPoolBuilder;

thread_local! {
    // Const-init and `Drop`-free: touching them never allocates.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator is still called during thread teardown.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// [`System`] plus per-thread counters of allocation entry points and the
/// bytes they ask for (a `realloc` counts its whole new size).
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(calls, bytes)` asked of the heap by `f` on this thread.
fn allocated<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = (ALLOC_CALLS.with(Cell::get), ALLOC_BYTES.with(Cell::get));
    let out = f();
    let after = (ALLOC_CALLS.with(Cell::get), ALLOC_BYTES.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), out)
}

#[test]
fn generating_twice_the_requests_allocates_no_more_often() {
    let cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(16);
    let gen = RequestGenerator::new(&cfg, ArrivalProcess::Poisson { rate_qps: 1e6 }, 5);
    let n = 3 * cfg.batch_size;
    let ((calls_n, _), short) = allocated(|| gen.generate(n));
    let ((calls_2n, _), long) = allocated(|| gen.generate(2 * n));
    assert_eq!((short.len(), long.len()), (n, 2 * n));
    assert_eq!(
        calls_2n, calls_n,
        "a request allocated beside the Vec that holds it"
    );
}

#[test]
fn planning_a_misaligned_window_assembles_nothing_per_bag() {
    let cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(16);
    let (n, s) = (cfg.batch_size, cfg.n_features);
    let gpu = GpuSpec::v100();
    let reqs =
        RequestGenerator::new(&cfg, ArrivalProcess::Poisson { rate_qps: 1e6 }, 5).generate(2 * n);
    // Most of one canonical batch and the start of the next.
    let window: &[Request] = &reqs[n / 3..][..n];
    let rows: Vec<Vec<u32>> = window.iter().map(|r| r.bags.to_vec()).collect();
    let assembled = SparseBatch::from_bag_sizes(s, &rows).unwrap();
    // Width 1 pins the inline path, so both plans allocate alike.
    let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let ((_, from_pool), plan) = pool.install(|| {
        allocated(|| plain_plan(&cfg, &PoolWindow::new(window, s, cfg.n_gpus).unwrap(), &gpu))
    });
    let ((_, plan_alone), oracle) =
        pool.install(|| allocated(|| plan_with_planner(&cfg, &assembled, &gpu, None)));
    assert_eq!(plan, oracle);
    let bags = (n * s) as u64;
    assert!(
        from_pool < plan_alone + 8 * bags,
        "planning from the pool asked for {} bytes beyond the plan's own {plan_alone} \
         ({bags} bags)",
        from_pool.saturating_sub(plan_alone)
    );
}
