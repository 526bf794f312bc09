//! Offline in-tree stand-in for [rayon](https://docs.rs/rayon) backed by a
//! real thread pool. The workspace runs in parallel in one place: the sweep
//! cells of the experiments, through [`par_cells`]. Everything below a cell
//! (pooling, matmul, planning, the simulated machine) is a serial loop.
//!
//! # Determinism contract
//!
//! [`par_cells`] writes cell `i`'s result into slot `i` of its output:
//! ordering is positional, never completion order, and every cell is
//! serial inside, so the output is bit-identical at every width.
//!
//! Threads: `RAYON_NUM_THREADS` pins the default width;
//! [`ThreadPoolBuilder`] + [`ThreadPool::install`] override it per scope.
//! Panics inside a cell propagate to the caller after every cell has run
//! (already-produced results leak rather than drop on that unwind path).

mod pool;

/// The parallel width for calls issued from this thread: the installed
/// [`ThreadPool`] override if one is active, else the global default
/// (`RAYON_NUM_THREADS` or the machine's available parallelism).
pub fn current_num_threads() -> usize {
    pool::current_num_threads()
}

/// Ordered parallel map over `n` sweep cells: element `i` is `f(i)`. A cell
/// is a whole simulation, so cells dispatch through the pool whenever the
/// width is above 1; at width 1 they run as a plain loop on the caller.
pub fn par_cells<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let mut out: Vec<R> = Vec::with_capacity(n);
    let ptr = SendPtr(out.as_mut_ptr());
    pool::run(n, |i| {
        // SAFETY: slot i is written exactly once; indices are disjoint and
        // the buffer holds `n` uninitialized slots.
        unsafe { ptr.get().add(i).write(f(i)) };
    });
    // SAFETY: `run` returned normally, so all `n` slots are initialized.
    // (On panic we unwind before this point and leak written elements.)
    unsafe { out.set_len(n) };
    out
}

/// The output buffer's base pointer, shared with the threads that write its
/// disjoint slots.
struct SendPtr<T>(*mut T);

// Manual impls: the derive would add an unwanted `T: Copy` bound.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: every cell writes its own slot and the owning allocation outlives
// the parallel call (the caller blocks in `pool::run`).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// wrapper, keeping the `Send`/`Sync` impls in effect.
    fn get(self) -> *mut T {
        self.0
    }
}

/// Builder for a [`ThreadPool`] handle.
///
/// Unlike upstream rayon, the handle does not own an isolated worker set:
/// it is a width cap over the shared global pool (which grows its worker
/// set on demand to honor the widest request). That is all the workspace
/// needs — `install` bounds parallelism for benchmark sweeps and
/// determinism tests, and results never depend on width by contract.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `n` threads; `0` means the global default width.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the handle. Infallible in this stand-in, but kept `Result`
    /// for upstream signature compatibility.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: if self.num_threads == 0 {
                pool::default_threads()
            } else {
                self.num_threads
            },
        })
    }
}

/// Error building a [`ThreadPool`] (never produced by this stand-in).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A width-capped view of the global pool; see [`ThreadPoolBuilder`].
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's width installed for the current thread
    /// (inherited by nested parallel calls, including on workers).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        pool::with_thread_cap(self.threads, f)
    }

    /// The width this handle installs.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_width<R>(w: usize, f: impl FnOnce() -> R) -> R {
        ThreadPoolBuilder::new()
            .num_threads(w)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn cells_collect_in_order_at_every_width() {
        let cell = |i: usize| (i as u64).wrapping_mul(0x9E37);
        let reference: Vec<u64> = (0..997).map(cell).collect();
        for w in [1, 2, 4, 8] {
            assert_eq!(at_width(w, || par_cells(997, cell)), reference, "width {w}");
        }
        assert!(par_cells(0, |_| -> u8 { panic!("no cells") }).is_empty());
    }

    #[test]
    fn panic_propagates_from_a_cell() {
        // Width 1 runs inline on the caller; width 4 takes the queue. Both
        // must propagate the payload.
        for w in [1, 4] {
            let res = std::panic::catch_unwind(|| {
                at_width(w, || {
                    par_cells(64, |i| {
                        if i == 33 {
                            panic!("boom at {i}");
                        }
                    })
                })
            });
            let err = res.expect_err("must propagate");
            let msg = err.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains("boom at 33"), "width {w}: {msg}");
        }
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        let _ = std::panic::catch_unwind(|| {
            at_width(4, || par_cells(16, |_| panic!("x")));
        });
        // The pool must still execute subsequent work correctly.
        let s: usize = at_width(4, || par_cells(100, |i| i)).into_iter().sum();
        assert_eq!(s, 4950);
    }

    #[test]
    fn nested_cells_complete() {
        let out: Vec<usize> = at_width(4, || {
            par_cells(8, |i| par_cells(50, move |j| i + j).into_iter().sum())
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..50).map(|j| i + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn cells_take_the_queue_above_width_one_and_match_bitwise() {
        // Two cells at width 2 must reach a worker thread, on any host. Cell
        // 0, if the caller claims it, waits (bounded) until a worker has run
        // a cell, so a batch that ran inline fails here instead of passing.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        let on_worker = || {
            let name = std::thread::current().name().map(str::to_owned);
            name.is_some_and(|n| n.starts_with("rayon-worker-"))
        };
        let worker_ran = AtomicBool::new(false);
        at_width(2, || {
            par_cells(2, |i| {
                if on_worker() {
                    worker_ran.store(true, Ordering::Release);
                } else if i == 0 {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !worker_ran.load(Ordering::Acquire) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                }
            })
        });
        assert!(worker_ran.into_inner(), "width 2 must use the queue");

        // Float chunk sums whose grouping matters, over inputs of several
        // lengths: the dispatched cells equal the serial loop bit for bit.
        let mut x = 0x2545_F491_u32;
        for len in [1, 7, 64, 199, 257] {
            let vals: Vec<f32> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    (x % 2000) as f32 / 16.0 - 62.5
                })
                .collect();
            let n_chunks = vals.len().div_ceil(7);
            let chunk_sum = |i: usize| {
                vals[i * 7..((i + 1) * 7).min(len)]
                    .iter()
                    .sum::<f32>()
                    .to_bits()
            };
            let serial: Vec<u32> = (0..n_chunks).map(chunk_sum).collect();
            for w in 1..=4 {
                let got = at_width(w, || par_cells(n_chunks, chunk_sum));
                assert_eq!(got, serial, "len {len}, width {w}");
            }
        }
    }

    #[test]
    fn install_overrides_width_and_restores() {
        let outside = current_num_threads();
        at_width(3, || {
            assert_eq!(current_num_threads(), 3);
            at_width(2, || assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 3);
        });
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn builder_zero_means_default_width() {
        let p = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert!(p.current_num_threads() >= 1);
    }
}
