//! What the host pays: CPU time, peak memory, heap traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus process-wide counters of allocation entry points and of
/// the bytes they asked for. Frees are not counted: the figures answer
/// "how much new memory does one repetition request".
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(calls, bytes)` requested from the heap by the process so far.
pub fn alloc_totals() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// CPU nanoseconds consumed so far by every thread of the process:
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. This is the clock `host_s`
/// and `setup_s` run on: at pool width 1 it equals wall time on a quiet
/// core, and unlike wall time it does not count the stretches a busy
/// hypervisor takes the core away. (`/proc/self/task/*/schedstat` carries
/// the same counter but only refreshes it at scheduler ticks — 4 ms here,
/// 2 % of a `pod_exchange` repetition.) `None` off 64-bit Linux; callers
/// fall back to wall time.
pub fn process_cpu_ns() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` of 64-bit Linux.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` — two 64-bit
        // fields on the 64-bit Linux targets the cfg admits — and
        // `clock_gettime` writes nothing but that struct.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return Some(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64);
        }
    }
    None
}

/// A stopwatch on the host-cost clock: CPU seconds of the process, or wall
/// seconds where the kernel does not expose CPU time.
pub struct HostClock {
    wall: Instant,
    cpu: Option<u64>,
}

impl HostClock {
    /// Start now.
    pub fn start() -> Self {
        HostClock {
            wall: Instant::now(),
            cpu: process_cpu_ns(),
        }
    }

    /// A stopwatch that started with the process, whose `main` began at
    /// `main_entered`.
    pub fn at_process_start(main_entered: Instant) -> Self {
        HostClock {
            wall: main_entered,
            cpu: process_cpu_ns().map(|_| 0),
        }
    }

    /// `(host seconds, wall seconds)` since the start.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let host = match (self.cpu, process_cpu_ns()) {
            (Some(c0), Some(c1)) => c1.saturating_sub(c0) as f64 / 1e9,
            _ => wall,
        };
        (host, wall)
    }
}

/// Host seconds `f` takes, on [`HostClock`].
pub fn host_secs(f: impl FnOnce()) -> f64 {
    let clock = HostClock::start();
    f();
    clock.stop().0
}

/// Peak resident set (`VmHWM`) of the process, in MiB as `top` reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb().expect("VmHWM readable on Linux") > 0.1);
        let clock = HostClock::start();
        if let Some(a) = process_cpu_ns() {
            let mut x = 0u64;
            for i in 0..5_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
            assert!(process_cpu_ns().expect("still readable") >= a);
        }
        let (host, wall) = clock.stop();
        assert!(host >= 0.0 && wall > 0.0);
        assert!(HostClock::at_process_start(Instant::now()).stop().0 >= host);
    }
}
