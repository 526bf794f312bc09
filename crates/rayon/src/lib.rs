//! Offline in-tree stand-in for [rayon](https://docs.rs/rayon) backed by a
//! real thread pool: the subset of the parallel-iterator API this workspace
//! uses, executed by a lazily-initialized global pool of worker threads
//! (see the `pool` module).
//!
//! # Determinism contract
//!
//! Every adapter is **bit-identical to serial execution** regardless of
//! thread count:
//!
//! - [`par_chunks_mut`](ParallelSliceMut::par_chunks_mut) /
//!   [`par_chunks`](ParallelSlice::par_chunks) hand each closure call a
//!   disjoint chunk, so writes never race and the final buffer equals the
//!   serial result byte for byte.
//! - `map` + [`collect`](MapRange::collect) writes result `i` into slot `i`
//!   of the output — ordering is positional, never completion-order.
//! - [`reduce`](MapRange::reduce) and [`sum`](MapRange::sum) combine leaves
//!   in a fixed-shape pairwise tree whose shape depends only on input
//!   length, never on thread count or scheduling. (The operation must be
//!   associative for the *tree* order; the same tree is used at every
//!   width, including width 1.)
//!
//! Threads: `RAYON_NUM_THREADS` pins the default width;
//! [`ThreadPoolBuilder`] + [`ThreadPool::install`] override it per scope,
//! which is how the benchmarks sweep width in-process. Panics inside
//! parallel closures propagate to the caller after every chunk has
//! executed (already-produced `collect` elements leak rather than drop on
//! that unwind path).

mod pool;

use std::marker::PhantomData;
use std::ops::Add;

/// Everything call sites need: the slice extension traits and
/// [`IntoParallelIterator`].
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// The parallel width for calls issued from this thread: the installed
/// [`ThreadPool`] override if one is active, else the global default
/// (`RAYON_NUM_THREADS` or the machine's available parallelism).
pub fn current_num_threads() -> usize {
    pool::current_num_threads()
}

/// Counters of how the parallel calls issued by *the calling thread*
/// executed: inline (degraded to a serial loop — width 1, single-core host,
/// or fewer than 32 work items per participant) vs dispatched through
/// the shared worker queue. Monotone; sample before/after a region on the
/// thread that runs it and subtract to learn how that region executed —
/// other threads' calls never show up in the difference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel calls executed as a plain serial loop on the caller.
    pub inline_runs: u64,
    /// Parallel calls pushed through the worker queue.
    pub dispatched_runs: u64,
}

/// Snapshot the inline-vs-dispatched run counters (see [`PoolStats`]).
pub fn pool_stats() -> PoolStats {
    let (inline_runs, dispatched_runs) = pool::stats();
    PoolStats {
        inline_runs,
        dispatched_runs,
    }
}

/// Ordered parallel map over `n` sweep cells: element `i` is `f(i)`. A cell
/// is a whole simulation, not a row, so cells dispatch whenever the width
/// and the host allow (a grain of 1), where the adapters run inline below
/// 32 items per participant.
pub fn par_cells<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    collect_vec(n, 1, f)
}

/// Run `f` with adaptive inline degradation disabled on the current thread:
/// every parallel call issued inside `f` with an effective width above 1
/// takes the queue/dispatch path regardless of host core count or work
/// size. Results are bit-identical either way (the determinism contract);
/// this exists so tests and benchmarks can exercise the pool machinery on
/// hosts where degradation would otherwise inline everything.
pub fn with_forced_dispatch<R>(f: impl FnOnce() -> R) -> R {
    pool::with_forced_dispatch(f)
}

// ---------------------------------------------------------------------------
// Pointer wrappers that let disjoint-index writes cross thread boundaries.
// ---------------------------------------------------------------------------

struct SendPtr<T>(*mut T);

// Manual impls: the derive would add an unwanted `T: Copy` bound.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: every use hands disjoint index ranges to distinct threads and the
// owning allocation outlives the parallel call (the caller blocks in
// `pool::run`).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// wrapper, keeping the `Send`/`Sync` impls in effect.
    fn get(self) -> *mut T {
        self.0
    }
}

struct SharedPtr<T>(*const T);

impl<T> Clone for SharedPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedPtr<T> {}
// SAFETY: shared reads only; the borrow is held across the parallel call.
unsafe impl<T: Sync> Send for SharedPtr<T> {}
unsafe impl<T: Sync> Sync for SharedPtr<T> {}

impl<T> SharedPtr<T> {
    /// See [`SendPtr::get`].
    fn get(self) -> *const T {
        self.0
    }
}

/// Ordered parallel collect: slot `i` receives `get(i)`; inline below
/// `grain` items per participant.
fn collect_vec<R, G>(len: usize, grain: usize, get: G) -> Vec<R>
where
    R: Send,
    G: Fn(usize) -> R + Sync,
{
    let mut out: Vec<R> = Vec::with_capacity(len);
    let ptr = SendPtr(out.as_mut_ptr());
    pool::run(len, grain, |i| {
        // SAFETY: slot i is written exactly once; indices are disjoint and
        // the buffer holds `len` uninitialized slots.
        unsafe { ptr.get().add(i).write(get(i)) };
    });
    // SAFETY: `run` returned normally, so all `len` slots are initialized.
    // (On panic we unwind before this point and leak written elements.)
    unsafe { out.set_len(len) };
    out
}

/// Fixed-shape pairwise reduction: combine `(v[0],v[1])`, `(v[2],v[3])`, …
/// level by level. The shape depends only on `v.len()`, so the result is
/// identical at every thread count.
fn tree_reduce<R>(mut v: Vec<R>, op: &impl Fn(R, R) -> R) -> Option<R> {
    while v.len() > 1 {
        let mut next = Vec::with_capacity(v.len().div_ceil(2));
        let mut it = v.into_iter();
        while let Some(a) = it.next() {
            next.push(match it.next() {
                Some(b) => op(a, b),
                None => a,
            });
        }
        v = next;
    }
    v.pop()
}

// ---------------------------------------------------------------------------
// Slice chunking.
// ---------------------------------------------------------------------------

/// Parallel disjoint-chunk access to mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Split into chunks of `chunk_size` (last may be shorter), processed in
    /// parallel. `chunk_size` must be non-zero.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk size must be non-zero");
        ParChunksMut {
            slice: self,
            size: chunk_size,
        }
    }
}

/// Parallel chunk access to shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Split into chunks of `chunk_size` (last may be shorter), processed in
    /// parallel. `chunk_size` must be non-zero.
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size != 0, "chunk size must be non-zero");
        ParChunks {
            slice: self,
            size: chunk_size,
        }
    }
}

/// Pending parallel iteration over disjoint mutable chunks.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    /// True when the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.slice.is_empty()
    }

    /// Pair each chunk with its index.
    pub fn enumerate(self) -> EnumChunksMut<'a, T> {
        EnumChunksMut(self)
    }

    /// Run `f` on every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// [`ParChunksMut`] with chunk indices attached.
pub struct EnumChunksMut<'a, T>(ParChunksMut<'a, T>);

impl<T: Send> EnumChunksMut<'_, T> {
    /// Run `f` on every `(index, chunk)` pair, in parallel. Chunks are
    /// disjoint, so writes are race-free and bit-identical to serial.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let n = self.0.slice.len();
        if n == 0 {
            return;
        }
        let size = self.0.size;
        let ptr = SendPtr(self.0.slice.as_mut_ptr());
        pool::run(n.div_ceil(size), pool::INLINE_GRAIN, |i| {
            let start = i * size;
            let len = size.min(n - start);
            // SAFETY: [start, start+len) is in bounds and disjoint across
            // chunk indices; the borrow is held for the whole call.
            let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), len) };
            f((i, chunk));
        });
    }
}

/// Pending parallel iteration over shared chunks.
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    /// True when the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.slice.is_empty()
    }

    /// Pair each chunk with its index.
    pub fn enumerate(self) -> EnumChunks<'a, T> {
        EnumChunks(self)
    }

    /// Run `f` on every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&[T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// [`ParChunks`] with chunk indices attached.
pub struct EnumChunks<'a, T>(ParChunks<'a, T>);

impl<T: Sync> EnumChunks<'_, T> {
    /// Run `f` on every `(index, chunk)` pair, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &[T])) + Sync,
    {
        let n = self.0.slice.len();
        if n == 0 {
            return;
        }
        let size = self.0.size;
        let ptr = SharedPtr(self.0.slice.as_ptr());
        pool::run(n.div_ceil(size), pool::INLINE_GRAIN, |i| {
            let start = i * size;
            let len = size.min(n - start);
            // SAFETY: in-bounds shared reads; borrow held for the call.
            let chunk = unsafe { std::slice::from_raw_parts(ptr.get().add(start), len) };
            f((i, chunk));
        });
    }
}

// ---------------------------------------------------------------------------
// into_par_iter sources.
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Element type.
    type Item;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;
    type Item = usize;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            end: self.end.max(self.start),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = ParVec<T>;
    type Item = T;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

/// Parallel iterator over `Range<usize>`.
pub struct ParRange {
    start: usize,
    end: usize,
}

impl ParRange {
    /// Number of indices.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Run `f` on every index, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let start = self.start;
        pool::run(self.len(), pool::INLINE_GRAIN, |i| f(start + i));
    }

    /// Lazily map each index through `f`.
    pub fn map<R, F>(self, f: F) -> MapRange<F, R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        MapRange {
            start: self.start,
            end: self.end,
            f,
            _r: PhantomData,
        }
    }

    /// Deterministic parallel sum of the indices (fixed-shape tree).
    pub fn sum(self) -> usize {
        self.map(|i| i).sum()
    }
}

/// A mapped [`ParRange`]: the workhorse for ordered parallel `collect`,
/// `reduce`, and `sum`.
pub struct MapRange<F, R> {
    start: usize,
    end: usize,
    f: F,
    _r: PhantomData<fn() -> R>,
}

impl<R, F> MapRange<F, R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the underlying range is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Run `g` on every mapped element, in parallel.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(R) + Sync,
    {
        let (start, f) = (self.start, self.f);
        pool::run(self.end - start, pool::INLINE_GRAIN, |i| g(f(start + i)));
    }

    /// Ordered parallel collect: element `i` of the output is `f(start+i)`,
    /// regardless of which thread computed it.
    pub fn collect<C>(self) -> C
    where
        C: FromParallelIterator<R>,
    {
        let (start, f) = (self.start, self.f);
        C::from_ordered_index_fn(self.end - start, |i| f(start + i))
    }

    /// Parallel reduction with a fixed-shape pairwise tree: leaves are the
    /// mapped elements in index order; the tree shape depends only on
    /// length, so the result is bit-identical at every thread count. `op`
    /// must be associative with respect to the tree order; `identity` is
    /// returned for an empty range.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R,
        OP: Fn(R, R) -> R,
    {
        let (start, f) = (self.start, self.f);
        let leaves = collect_vec(self.end - start, pool::INLINE_GRAIN, |i| f(start + i));
        tree_reduce(leaves, &op).unwrap_or_else(identity)
    }

    /// Deterministic parallel sum (fixed-shape tree; see [`Self::reduce`]).
    pub fn sum(self) -> R
    where
        R: Default + Add<Output = R>,
    {
        self.reduce(R::default, |a, b| a + b)
    }
}

/// Consuming parallel iterator over a `Vec`.
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Send> ParVec<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Run `f` on every element (moved out of the vector), in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        let len = self.items.len();
        let mut items = std::mem::ManuallyDrop::new(self.items);
        let ptr = SendPtr(items.as_mut_ptr());
        pool::run(len, pool::INLINE_GRAIN, |i| {
            // SAFETY: each element is moved out exactly once; the buffer is
            // not dropped element-wise afterwards.
            f(unsafe { ptr.get().add(i).read() });
        });
        // SAFETY: all elements were moved out above; reclaim the allocation
        // only. (On panic we leak the buffer instead.)
        unsafe { items.set_len(0) };
        drop(std::mem::ManuallyDrop::into_inner(items));
    }
}

/// Collection types an ordered parallel `collect` can target.
pub trait FromParallelIterator<T: Send>: Sized {
    /// Build from `len` elements where element `i` is `get(i)`; `get` may
    /// be invoked from many threads but exactly once per index.
    fn from_ordered_index_fn<G>(len: usize, get: G) -> Self
    where
        G: Fn(usize) -> T + Sync;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_index_fn<G>(len: usize, get: G) -> Self
    where
        G: Fn(usize) -> T + Sync,
    {
        collect_vec(len, pool::INLINE_GRAIN, get)
    }
}

// ---------------------------------------------------------------------------
// Scoped width control.
// ---------------------------------------------------------------------------

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
    use super::prelude::*;
    use super::*;

    fn at_width<R>(w: usize, f: impl FnOnce() -> R) -> R {
        ThreadPoolBuilder::new()
            .num_threads(w)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn par_chunks_mut_covers_all_elements() {
        for w in [1, 2, 4, 8] {
            at_width(w, || {
                let mut data = vec![0u32; 1003];
                data.par_chunks_mut(64).enumerate().for_each(|(i, chunk)| {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = (i * 64 + j) as u32;
                    }
                });
                assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32));
            });
        }
    }

    #[test]
    fn par_chunks_reads_all_chunks() {
        let data: Vec<u64> = (0..517).collect();
        let total = std::sync::atomic::AtomicU64::new(0);
        data.par_chunks(32).for_each(|chunk| {
            let s: u64 = chunk.iter().sum();
            total.fetch_add(s, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 517 * 516 / 2);
    }

    #[test]
    fn into_par_iter_matches_serial() {
        let par: usize = (0..1000usize).into_par_iter().sum();
        assert_eq!(par, (0..1000).sum::<usize>());
    }

    #[test]
    fn map_collect_is_ordered_at_every_width() {
        let reference: Vec<u64> = (0..997).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for w in [1, 2, 4, 8] {
            let got: Vec<u64> = at_width(w, || {
                (0..997)
                    .into_par_iter()
                    .map(|i| (i as u64).wrapping_mul(0x9E37))
                    .collect()
            });
            assert_eq!(got, reference, "width {w}");
        }
    }

    #[test]
    fn float_reduce_is_bit_identical_across_widths() {
        // Sum of floats whose grouping matters: bit-identity across widths
        // proves the reduction tree shape is width-independent.
        let vals: Vec<f32> = (0..1234).map(|i| 1.0 / (1.0 + i as f32)).collect();
        let at = |w: usize| -> u32 {
            at_width(w, || {
                let v = &vals;
                (0..v.len())
                    .into_par_iter()
                    .map(|i| v[i])
                    .reduce(|| 0.0f32, |a, b| a + b)
                    .to_bits()
            })
        };
        let one = at(1);
        for w in [2, 4, 8] {
            assert_eq!(at(w), one, "width {w}");
        }
    }

    #[test]
    fn vec_into_par_iter_consumes_every_element() {
        let items: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let total = std::sync::atomic::AtomicUsize::new(0);
        items.into_par_iter().for_each(|s| {
            total.fetch_add(
                s.parse::<usize>().unwrap(),
                std::sync::atomic::Ordering::Relaxed,
            );
        });
        assert_eq!(total.into_inner(), 99 * 100 / 2);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let mut empty: Vec<f32> = vec![];
        empty.par_chunks_mut(8).for_each(|_| panic!("no chunks"));
        empty.par_chunks(8).for_each(|_| panic!("no chunks"));
        let collected: Vec<f32> = (0..0).into_par_iter().map(|_| 1.0f32).collect();
        assert!(collected.is_empty());
        let r = (7..7)
            .into_par_iter()
            .map(|i| i as f32)
            .reduce(|| -1.0, |a, b| a + b);
        assert_eq!(r, -1.0, "empty reduce yields identity");
        // Chunk size larger than the slice: one short chunk.
        let mut one = [1u8, 2, 3];
        one.par_chunks_mut(100).enumerate().for_each(|(i, c)| {
            assert_eq!(i, 0);
            assert_eq!(c.len(), 3);
        });
        Vec::<u8>::new()
            .into_par_iter()
            .for_each(|_| panic!("empty"));
    }

    #[test]
    fn panic_propagates_from_parallel_closure() {
        // Both execution paths: adaptive (may inline) and forced dispatch
        // (always the queue) must propagate the payload.
        for force in [false, true] {
            for w in [1, 4] {
                let res = std::panic::catch_unwind(|| {
                    let body = || {
                        at_width(w, || {
                            (0..64).into_par_iter().for_each(|i| {
                                if i == 33 {
                                    panic!("boom at {i}");
                                }
                            });
                        });
                    };
                    if force {
                        with_forced_dispatch(body)
                    } else {
                        body()
                    }
                });
                let err = res.expect_err("must propagate");
                let msg = err.downcast_ref::<String>().expect("panic message");
                assert!(msg.contains("boom at 33"), "width {w}: {msg}");
            }
        }
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        // Forced dispatch so the queue machinery is the thing under test
        // even on single-core hosts (where degradation would inline this).
        let _ = std::panic::catch_unwind(|| {
            with_forced_dispatch(|| {
                at_width(4, || (0..16).into_par_iter().for_each(|_| panic!("x")));
            });
        });
        // The pool must still execute subsequent work correctly.
        let s: usize = with_forced_dispatch(|| at_width(4, || (0..100usize).into_par_iter().sum()));
        assert_eq!(s, 4950);
    }

    #[test]
    fn nested_parallel_calls_complete() {
        let out: Vec<usize> = with_forced_dispatch(|| {
            at_width(4, || {
                (0..8)
                    .into_par_iter()
                    .map(|i| (0..50usize).into_par_iter().map(move |j| i + j).sum())
                    .collect()
            })
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..50).map(|j| i + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn small_work_degrades_inline_and_is_counted() {
        // 8 chunks at width 4 is far below the default grain (32/participant),
        // so the adaptive path must inline — no dispatched run recorded.
        let before = pool_stats();
        let s: usize = at_width(4, || (0..8usize).into_par_iter().sum());
        assert_eq!(s, 28);
        let after = pool_stats();
        assert!(after.inline_runs > before.inline_runs);
        assert_eq!(after.dispatched_runs, before.dispatched_runs);
    }

    #[test]
    fn sweep_cells_dispatch_below_the_grain_and_keep_their_order() {
        // Two cells at width 2: the adapters would inline them, cells
        // dispatch wherever the host has a second core.
        let cells = |w| at_width(w, || par_cells(2, |i| (0..=i).sum::<usize>() + 10));
        let before = pool_stats();
        assert_eq!(cells(2), [10, 11]);
        let after = pool_stats();
        let dispatched = pool::hardware_parallelism() > 1;
        assert_eq!(after.dispatched_runs > before.dispatched_runs, dispatched);
        assert_eq!(cells(1), cells(4));
    }

    #[test]
    fn forced_dispatch_takes_the_queue_and_matches_bitwise() {
        let vals: Vec<f32> = (0..257).map(|i| 1.0 / (1.0 + i as f32)).collect();
        let reduce = || {
            let v = &vals;
            at_width(4, || {
                (0..v.len())
                    .into_par_iter()
                    .map(|i| v[i])
                    .reduce(|| 0.0f32, |a, b| a + b)
                    .to_bits()
            })
        };
        let adaptive = reduce();
        let before = pool_stats();
        let dispatched = with_forced_dispatch(reduce);
        let after = pool_stats();
        assert!(
            after.dispatched_runs > before.dispatched_runs,
            "forced dispatch must use the queue"
        );
        assert_eq!(adaptive, dispatched, "degraded path must be bit-identical");
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
