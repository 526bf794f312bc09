//! What the gateway proxy asks of the heap once warm: nothing. Its staging
//! buffers, share lists and forward horizons are sized once and emptied in
//! place, so after every (origin, destination node) channel has flushed
//! once, staging, size flushes and age flushes make no heap call.
//!
//! As in `emb-serve`'s `allocs` test, this binary installs a counting
//! wrapper around the system allocator and reads per-thread deltas across
//! the measured calls, so nothing another test does is charged to them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use desim::{Dur, SimTime};
use gpusim::{Machine, MachineConfig};
use pgas_rt::{AggregatorConfig, GatewayConfig, GatewayPut, PgasConfig};

thread_local! {
    // Const-init and `Drop`-free: touching it never allocates.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator is still called during thread teardown.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

/// [`System`] plus a per-thread counter of allocation entry points.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap calls made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.with(Cell::get);
    f();
    ALLOC_CALLS.with(Cell::get) - before
}

const NODES: usize = 2;
const PER_NODE: usize = 4;

/// One row of each of two sizes from every GPU to every GPU of the other
/// node, all ready at `t`: every channel stages two shares per destination.
fn stage_round(gw: &mut GatewayPut<'_>, t: SimTime) {
    for src in 0..NODES * PER_NODE {
        for dst in (0..NODES * PER_NODE).filter(|d| d / PER_NODE != src / PER_NODE) {
            for row_bytes in [64, 256] {
                gw.put_rows_nbi(src, dst, 1, row_bytes, t);
            }
        }
    }
}

#[test]
fn a_warm_proxy_stages_and_flushes_without_allocating() {
    // One traffic bucket spans the run, so the machine's per-pair traffic
    // store adds into the entry the warm-up made instead of growing.
    let cfg = MachineConfig::pod_v100(NODES, PER_NODE).with_traffic_bucket(Dur::from_ms(1000));
    let mut m = Machine::new(cfg);
    let flush = AggregatorConfig {
        flush_bytes: 4 << 10,
        max_wait: Dur::from_us(5),
    };
    let mut gw = GatewayPut::new(
        &mut m,
        GatewayConfig {
            pgas: PgasConfig::default(),
            flush,
        },
    );
    // Warm-up: the second round finds every buffer past its age timer, so
    // every channel flushes once.
    let t0 = SimTime::ZERO;
    stage_round(&mut gw, t0);
    stage_round(&mut gw, t0 + Dur::from_us(10));
    let warm = gw.flushes();
    assert_eq!(warm, (NODES * PER_NODE * (NODES - 1)) as u64);

    let calls = allocations(|| {
        for r in 2..20u64 {
            let t = t0 + Dur::from_us(10 * r);
            // Age flushes of the previous round, then fresh staging.
            stage_round(&mut gw, t);
            // A size flush: 32 rows of 256 B reach the 4 KiB threshold.
            gw.put_rows_nbi(0, PER_NODE + 1, 32, 256, t);
        }
    });
    // Each round flushes every channel once (GPU 0's to node 1 by size, the
    // rest by age); the first also ages out GPU 0's warm-up buffer.
    assert_eq!(gw.flushes() - warm, 18 * warm + 1);
    assert_eq!(calls, 0, "a warm proxy allocated");
}
