//! `reproduce pods` reads message counts, which every machine keeps, so it
//! runs its machines unobserved: the largest cell must not hold telemetry
//! timelines.
//!
//! This binary installs a counting wrapper around the system allocator that
//! keeps the process's live heap bytes and their high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use bench_harness::pods_sweep;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn count_bytes(grown: i64) {
    let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// [`System`] plus the live heap bytes and their peak.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_bytes(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_bytes(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_bytes(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn the_full_scale_pod_cell_runs_in_under_16_mb() {
    // The 8x4 pod at 256 B rows and 1 MiB per pair, as `reproduce pods`
    // runs it: 3.67 M flat puts cross the slow tier.
    let r = pods_sweep(&[(8, 4)], &[256], 1 << 20);
    assert_eq!(r.cells[0].flat_inter_messages, 3_670_016);
    let peak = PEAK.load(Ordering::Relaxed);
    assert!(peak < 16 << 20, "the cell peaked at {peak} B of live heap");
}
