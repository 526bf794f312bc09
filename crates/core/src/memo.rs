//! A small most-recently-used memo for pure, expensive builds: closed
//! loops, the pipeline engine, the backward pass and every serve load point
//! ask for the same prepared state over and over within one process. Only
//! sound when the key determines the value completely, which is why callers
//! key on derived structural equality of their whole input rather than on a
//! hand-picked field list.

use std::sync::{Arc, Mutex};

/// Entries a [`Memo`] retains at most: one experiment's working set (two
/// configs in `dgx_paper`, one per serve sweep) and the previous one's.
pub const MEMO_CAPACITY: usize = 4;

/// Bytes a [`Memo`] retains at most, by its builders' own accounts: a count
/// alone bounds nothing when a plan set is 21 MB for the paper's 4-GPU weak
/// config and 168 MB for a scaled-down 32-GPU pod with two-bag blocks.
/// 64 MiB is twice the paper-scale serve pool, or three 4-GPU plan sets; a
/// bigger value is built per call, as if there were no memo.
pub const MEMO_BUDGET_BYTES: usize = 64 << 20;

/// Process-wide store of built values, most recently used first, bounded by
/// [`MEMO_CAPACITY`] and [`MEMO_BUDGET_BYTES`]; the least recently used
/// entries are dropped on overflow (an `Arc` lives on in whoever holds it).
#[derive(Debug)]
pub struct Memo<K, V> {
    /// `(key, bytes, value)`.
    entries: Mutex<Vec<(K, usize, Arc<V>)>>,
}

impl<K: PartialEq, V> Memo<K, V> {
    /// An empty memo (usable as a `static`).
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        Memo {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The value stored under `key`, or the one `build(&key)` returns (with
    /// the bytes it keeps resident), stored and returned. `build` runs
    /// outside the lock; two threads that miss on one key both build, and
    /// both return whichever value was stored first.
    pub fn get_or_build(&self, key: K, build: impl FnOnce(&K) -> (V, usize)) -> Arc<V> {
        // Builders run outside the lock, so nothing can poison it.
        let lock = || self.entries.lock().expect("memo lock poisoned");
        if let Some(hit) = Self::touch(&mut lock(), &key) {
            return hit;
        }
        let (built, bytes) = build(&key);
        let built = Arc::new(built);
        if bytes > MEMO_BUDGET_BYTES {
            return built;
        }
        let mut entries = lock();
        if let Some(raced) = Self::touch(&mut entries, &key) {
            return raced;
        }
        entries.insert(0, (key, bytes, Arc::clone(&built)));
        let mut total = 0;
        let keep = entries.iter().take(MEMO_CAPACITY).take_while(|e| {
            total += e.1;
            total <= MEMO_BUDGET_BYTES
        });
        let keep = keep.count();
        entries.truncate(keep);
        built
    }

    /// Move `key`'s entry to the front and return its value.
    fn touch(entries: &mut [(K, usize, Arc<V>)], key: &K) -> Option<Arc<V>> {
        let i = entries.iter().position(|(k, ..)| k == key)?;
        entries[..=i].rotate_right(1);
        Some(Arc::clone(&entries[0].2))
    }

    /// Drop every entry (an `Arc` lives on in whoever holds it).
    pub fn clear(&self) {
        self.entries.lock().expect("memo lock poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn keys(m: &Memo<usize, usize>) -> Vec<usize> {
        m.entries.lock().unwrap().iter().map(|&(k, ..)| k).collect()
    }

    /// A value equal to its key that accounts for one byte.
    fn small(k: &usize) -> (usize, usize) {
        (*k, 1)
    }

    #[test]
    fn a_hit_returns_the_stored_arc_without_building() {
        let m = Memo::new();
        let a = m.get_or_build(7usize, |&k| (k * 2, 1));
        let b = m.get_or_build(7, |_| panic!("a hit must not build"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, 14);
        let c = m.get_or_build(8, small);
        assert!(!Arc::ptr_eq(&a, &c));
        // Clearing forgets the keys; a holder's value lives on.
        m.clear();
        assert!(keys(&m).is_empty());
        assert_eq!(*a, 14);
    }

    #[test]
    fn overflow_evicts_the_least_recently_used_and_never_grows() {
        let m = Memo::new();
        let first = m.get_or_build(0usize, small);
        for k in 1..MEMO_CAPACITY {
            m.get_or_build(k, small);
        }
        // Touch 0 so that 1 is now the least recently used…
        assert!(Arc::ptr_eq(&first, &m.get_or_build(0, small)));
        // …and one key past capacity drops exactly it.
        m.get_or_build(MEMO_CAPACITY, small);
        let mut expect: Vec<usize> = vec![MEMO_CAPACITY, 0];
        expect.extend((2..MEMO_CAPACITY).rev());
        assert_eq!(keys(&m), expect);
        for k in 100..100 + 3 * MEMO_CAPACITY {
            m.get_or_build(k, small);
            assert!(keys(&m).len() <= MEMO_CAPACITY);
        }
        // An evicted key is rebuilt, as a different allocation; the old one
        // stayed alive for its holder.
        let again = m.get_or_build(0, small);
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(*first, *again);
    }

    #[test]
    fn the_byte_budget_evicts_too_and_an_oversized_value_is_never_kept() {
        let m = Memo::new();
        let half = |k: &usize| (*k, MEMO_BUDGET_BYTES / 2);
        m.get_or_build(1usize, half);
        m.get_or_build(2, half);
        assert_eq!(keys(&m), [2, 1], "two halves fill the budget exactly");
        m.get_or_build(3, small);
        assert_eq!(keys(&m), [3, 2], "one byte more and the oldest goes");
        // Oversized: handed out, not stored, and nothing is evicted for it.
        let big = m.get_or_build(4, |&k| (k, MEMO_BUDGET_BYTES + 1));
        assert_eq!((*big, keys(&m)), (4, vec![3, 2]));
        let mut builds = 0;
        m.get_or_build(4, |&k| {
            builds += 1;
            (k, MEMO_BUDGET_BYTES + 1)
        });
        assert_eq!(builds, 1, "built per call, as if there were no memo");
    }

    #[test]
    fn two_threads_missing_on_one_key_share_one_value() {
        let m = Memo::new();
        let builds = AtomicUsize::new(0);
        // Both threads are inside `build` (past the first lookup) before
        // either stores: the race the second lookup exists for.
        let both_building = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let ask = || {
                m.get_or_build(1usize, |&k| {
                    builds.fetch_add(1, Ordering::Relaxed);
                    both_building.wait();
                    (k + 41, 1)
                })
            };
            let (ta, tb) = (s.spawn(ask), s.spawn(ask));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        assert!(Arc::ptr_eq(&a, &b), "the loser adopts the stored value");
        assert_eq!((*a, keys(&m)), (42, vec![1]));
    }
}
