//! The deterministic event queue at the heart of the engine.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{Dur, SimTime};

/// A deterministic future-event list.
///
/// Events are delivered in `(time, insertion-sequence)` order: ties at the
/// same timestamp fire in the order they were scheduled, which makes whole
/// simulations reproducible without requiring the event payload to be `Ord`.
///
/// Popping an event advances the simulation clock ([`EventQueue::now`]).
/// Scheduling in the past panics — a DES that rewrites history is a bug, not
/// a feature.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    delivered: u64,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    ev: E,
}

// Min-heap by (time, seq): BinaryHeap is a max-heap, so invert the ordering.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            delivered: 0,
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (or zero before any event fires).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Schedule `ev` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: Dur, ev: E) {
        self.schedule_at(self.now + delay, ev);
    }

    /// Schedule `ev` at an absolute instant. Panics if `time` is in the past.
    pub fn schedule_at(&mut self, time: SimTime, ev: E) {
        assert!(
            time >= self.now,
            "EventQueue::schedule_at: {time:?} is before now ({:?})",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, ev });
    }

    /// Remove and return the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "event queue time went backwards");
        self.now = entry.time;
        self.delivered += 1;
        Some((entry.time, entry.ev))
    }

    /// Run the queue to exhaustion, calling `handler` for every event.
    ///
    /// The handler may schedule further events through the `&mut EventQueue`
    /// it receives. Returns the final simulation time.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, SimTime, E)) -> SimTime {
        while let Some((t, ev)) = self.pop() {
            handler(self, t, ev);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Dur::from_ns(30), "c");
        q.schedule(Dur::from_ns(10), "a");
        q.schedule(Dur::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_ns(30));
        assert_eq!(q.delivered(), 3);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Dur::from_ns(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Dur::from_ns(10), ());
        q.schedule(Dur::from_ns(10), ());
        q.schedule(Dur::from_ns(25), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn handler_can_cascade_events() {
        // A chain: each event at t schedules a follow-up at t+10, five deep.
        let mut q = EventQueue::new();
        q.schedule(Dur::from_ns(10), 0u32);
        let mut seen = Vec::new();
        let end = q.run(|q, _t, depth| {
            seen.push(depth);
            if depth < 4 {
                q.schedule(Dur::from_ns(10), depth + 1);
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(end, SimTime::from_ns(50));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Dur::from_ns(100), ());
        q.pop();
        q.schedule_at(SimTime::from_ns(50), ());
    }
}
