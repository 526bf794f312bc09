//! Flat-arena batch workspaces: reusable buffer slabs for the per-batch
//! hot path.
//!
//! The serving and closed-loop paths execute the same batch shape over and
//! over; before this module every execution re-allocated its scratch
//! (per-device kernel-end instants, store-release schedules, pooled-row
//! buffers). [`BatchArena`] extends the
//! [`crate::IndexDedupMap`] no-allocation discipline to that whole path:
//! each buffer type has a typed free list, `take_*` pops a cleared buffer
//! (retaining its previous capacity) and `put_*` returns it, so
//! steady-state batches perform zero heap allocation once every slab has
//! warmed up.
//!
//! A process-wide arena would serialize takers on a lock, so the arena is
//! **per thread** (a `thread_local!` instance reached through the
//! module-level `take_*`/`put_*` functions). Each sweep cell runs serially
//! on one thread, so every `take_*`/`put_*` pair lands on that thread's
//! slab.
//!
//! Borrows of the thread-local are scoped to each `take`/`put` call, never
//! held across user code, so arena users can nest freely (a kernel that
//! takes a buffer may call helpers that take their own).

use std::cell::RefCell;

use desim::SimTime;

/// A fused-kernel store release: `(wire-entry instant, destination, rows)`.
pub type Release = (SimTime, usize, u64);

/// A gateway-path store event: `(instant, source, destination, rows)`.
pub type GatewayEvent = (SimTime, usize, usize, u64);

/// Reuse counters for one arena (see [`stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// `take_*` calls served from a slab's free list (no allocation).
    pub reused: u64,
    /// `take_*` calls that had to create a fresh (empty) buffer.
    pub fresh: u64,
    /// Buffers handed back via `put_*`.
    pub returned: u64,
}

/// One typed free list of reusable buffers.
#[derive(Debug, Default)]
struct Slab<T> {
    free: Vec<Vec<T>>,
}

impl<T> Slab<T> {
    fn take(&mut self, stats: &mut ArenaStats) -> Vec<T> {
        match self.free.pop() {
            Some(v) => {
                stats.reused += 1;
                v
            }
            None => {
                stats.fresh += 1;
                Vec::new()
            }
        }
    }

    fn put(&mut self, mut v: Vec<T>, stats: &mut ArenaStats) {
        v.clear();
        stats.returned += 1;
        self.free.push(v);
    }
}

macro_rules! arena_slabs {
    ($( $field:ident : $ty:ty => $take:ident / $put:ident ),* $(,)?) => {
        /// Typed free lists for every per-batch scratch buffer the hot
        /// path needs. See the module docs; most users go through the
        /// module-level `take_*`/`put_*` functions (the thread-local
        /// arena) rather than holding an instance.
        #[derive(Debug, Default)]
        pub struct BatchArena {
            $( $field: Slab<$ty>, )*
            stats: ArenaStats,
        }

        impl BatchArena {
            /// An arena with empty slabs.
            pub fn new() -> Self {
                Self::default()
            }

            /// Reuse counters accumulated by this arena.
            pub fn stats(&self) -> ArenaStats {
                self.stats
            }

            $(
                /// Take a cleared buffer from the corresponding slab
                /// (allocation-free once warm).
                pub fn $take(&mut self) -> Vec<$ty> {
                    self.$field.take(&mut self.stats)
                }

                /// Return a buffer to the corresponding slab for reuse.
                pub fn $put(&mut self, v: Vec<$ty>) {
                    self.$field.put(v, &mut self.stats);
                }
            )*
        }

        $(
            /// Take a cleared buffer from the calling thread's arena
            /// (allocation-free once the slab is warm).
            pub fn $take() -> Vec<$ty> {
                ARENA.with(|a| a.borrow_mut().$take())
            }

            /// Return a buffer to the calling thread's arena for reuse.
            pub fn $put(v: Vec<$ty>) {
                ARENA.with(|a| a.borrow_mut().$put(v));
            }
        )*
    };
}

arena_slabs! {
    f32s: f32 => take_f32 / put_f32,
    u64s: u64 => take_u64 / put_u64,
    bools: bool => take_bool / put_bool,
    times: SimTime => take_time / put_time,
    releases: Release => take_release / put_release,
    events: GatewayEvent => take_event / put_event,
}

thread_local! {
    static ARENA: RefCell<BatchArena> = RefCell::new(BatchArena::new());
}

/// Reuse counters of the calling thread's arena.
pub fn stats() -> ArenaStats {
    ARENA.with(|a| a.borrow().stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_recycles_capacity() {
        let mut a = BatchArena::new();
        let mut v = a.take_f32();
        assert_eq!(a.stats().fresh, 1);
        v.extend_from_slice(&[1.0; 100]);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        a.put_f32(v);
        let v2 = a.take_f32();
        assert!(v2.is_empty(), "returned buffers come back cleared");
        assert_eq!(v2.capacity(), cap, "capacity is retained");
        assert_eq!(v2.as_ptr(), ptr, "same allocation comes back");
        assert_eq!(
            a.stats(),
            ArenaStats {
                reused: 1,
                fresh: 1,
                returned: 1
            }
        );
    }

    #[test]
    fn slabs_are_independent_per_type() {
        let mut a = BatchArena::new();
        a.put_u64(vec![1, 2, 3]);
        let f = a.take_f32();
        assert!(f.is_empty());
        // The u64 slab kept its buffer; the f32 take was fresh.
        assert_eq!(a.stats().fresh, 1);
        let u = a.take_u64();
        assert!(u.capacity() >= 3);
        assert_eq!(a.stats().reused, 1);
    }

    #[test]
    fn thread_local_arena_reuses_across_calls() {
        let before = stats();
        let mut v = take_time();
        v.resize(8, SimTime::ZERO);
        put_time(v);
        let v2 = take_time();
        assert!(v2.capacity() >= 8);
        put_time(v2);
        let after = stats();
        assert!(after.reused > before.reused);
        assert_eq!(after.returned - before.returned, 2);
    }
}
