//! Serialized and k-server resources.
//!
//! These model contention analytically rather than with explicit queueing
//! events: a caller asks "I arrive at `t` and need `d` of service — when do I
//! start and finish?" and the resource answers while updating its internal
//! availability. Because callers must present non-decreasing arrival times
//! relative to how the orchestrator discovers work, this matches FIFO service
//! order, which is what links and DMA engines provide.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{Dur, SimTime};

/// A half-open service interval `[start, end)` granted by a resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// When service begins (>= arrival time).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

impl Interval {
    /// Length of the interval.
    pub fn duration(&self) -> Dur {
        self.end - self.start
    }
}

/// A single FIFO server: at most one job in service at a time
/// (e.g. one direction of a point-to-point link).
#[derive(Clone, Debug, Default)]
pub struct Resource {
    free_at: SimTime,
    busy: Dur,
    jobs: u64,
}

impl Resource {
    /// A resource idle from t=0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `service` time starting no earlier than `arrive`.
    #[inline]
    pub fn acquire(&mut self, arrive: SimTime, service: Dur) -> Interval {
        let start = self.free_at.max(arrive);
        let end = start + service;
        self.free_at = end;
        self.busy += service;
        self.jobs += 1;
        Interval { start, end }
    }

    /// Serve in one step the jobs `train` served from idle, each as long
    /// after `origin` as `train` served it after time zero. This resource
    /// must be idle at `origin`: a FIFO server idle when a train of jobs
    /// arrives serves it the same way every time.
    pub fn book_train(&mut self, origin: SimTime, train: &Resource) {
        if train.jobs > 0 {
            debug_assert!(self.free_at <= origin, "train booked on a busy resource");
            self.free_at = origin + (train.free_at - SimTime::ZERO);
            self.busy += train.busy;
            self.jobs += train.jobs;
        }
    }

    /// The jobs served since this resource was `earlier`, as the train
    /// [`Resource::book_train`] takes with its origin at `origin`: idle at
    /// time zero, then as if it served them that long after zero. `earlier`
    /// must be idle at `origin` and every job since must have arrived no
    /// earlier than it, so they were served as from idle.
    pub fn train_since(&self, earlier: &Resource, origin: SimTime) -> Resource {
        let jobs = self.jobs - earlier.jobs;
        if jobs == 0 {
            return Resource::new();
        }
        debug_assert!(
            earlier.free_at <= origin,
            "train recorded on a busy resource"
        );
        Resource {
            free_at: SimTime::ZERO + (self.free_at - origin),
            busy: self.busy - earlier.busy,
            jobs,
        }
    }

    /// When the resource next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> Dur {
        self.busy
    }

    /// Number of jobs served.
    pub fn jobs_served(&self) -> u64 {
        self.jobs
    }
}

/// A station of `k` identical FIFO servers (e.g. a GPU that can execute up to
/// `k` thread blocks concurrently). Jobs are dispatched to the
/// earliest-available server.
#[derive(Clone, Debug)]
pub struct MultiResource {
    // Min-heap of server free times.
    servers: BinaryHeap<Reverse<SimTime>>,
    busy: Dur,
    jobs: u64,
}

impl MultiResource {
    /// A station with `k >= 1` servers, all idle from t=0.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "MultiResource needs at least one server");
        MultiResource {
            servers: (0..k).map(|_| Reverse(SimTime::ZERO)).collect(),
            busy: Dur::ZERO,
            jobs: 0,
        }
    }

    /// Number of servers.
    pub fn capacity(&self) -> usize {
        self.servers.len()
    }

    /// Request `service` time on the earliest-available server, starting no
    /// earlier than `arrive`.
    pub fn acquire(&mut self, arrive: SimTime, service: Dur) -> Interval {
        let Reverse(free) = self.servers.pop().expect("at least one server");
        let start = free.max(arrive);
        let end = start + service;
        self.servers.push(Reverse(end));
        self.busy += service;
        self.jobs += 1;
        Interval { start, end }
    }

    /// The time when *all* servers are free (completion of all work).
    pub fn all_free(&self) -> SimTime {
        self.servers
            .iter()
            .map(|r| r.0)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total busy time accumulated across all servers.
    pub fn busy_time(&self) -> Dur {
        self.busy
    }

    /// Number of jobs served.
    pub fn jobs_served(&self) -> u64 {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_serializes_back_to_back() {
        let mut r = Resource::new();
        let a = r.acquire(SimTime::ZERO, Dur::from_ns(10));
        let b = r.acquire(SimTime::ZERO, Dur::from_ns(10));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end, SimTime::from_ns(10));
        assert_eq!(b.start, SimTime::from_ns(10));
        assert_eq!(b.end, SimTime::from_ns(20));
        assert_eq!(r.busy_time(), Dur::from_ns(20));
        assert_eq!(r.jobs_served(), 2);
    }

    #[test]
    fn a_booked_train_leaves_the_resource_as_its_jobs_would() {
        let jobs = [(5u64, 10u64), (7, 3), (40, 8)];
        let (mut each, mut train) = (Resource::new(), Resource::new());
        each.acquire(SimTime::from_ns(20), Dur::from_ns(30));
        let mut whole = each.clone();
        for (at, d) in jobs {
            each.acquire(SimTime::from_ns(100 + at), Dur::from_ns(d));
            train.acquire(SimTime::from_ns(at), Dur::from_ns(d));
        }
        let since = each.train_since(&whole, SimTime::from_ns(100));
        whole.book_train(SimTime::from_ns(100), &train);
        whole.book_train(SimTime::from_ns(7), &Resource::new());
        assert_eq!(whole.free_at(), each.free_at());
        assert_eq!(whole.busy_time(), each.busy_time());
        assert_eq!(whole.jobs_served(), each.jobs_served());
        // Read off by difference, the train is the one served from idle.
        assert_eq!(since.free_at(), train.free_at());
        assert_eq!(since.busy_time(), train.busy_time());
        assert_eq!(since.jobs_served(), train.jobs_served());
        let idle = each.train_since(&each, SimTime::from_ns(1));
        assert_eq!((idle.free_at(), idle.jobs_served()), (SimTime::ZERO, 0));
    }

    #[test]
    fn resource_idles_until_arrival() {
        let mut r = Resource::new();
        let a = r.acquire(SimTime::from_ns(100), Dur::from_ns(10));
        assert_eq!(a.start, SimTime::from_ns(100));
        assert_eq!(r.busy_time(), Dur::from_ns(10));
    }

    #[test]
    fn interval_duration() {
        let i = Interval {
            start: SimTime::from_ns(5),
            end: SimTime::from_ns(12),
        };
        assert_eq!(i.duration(), Dur::from_ns(7));
    }

    #[test]
    fn multi_resource_runs_k_jobs_concurrently() {
        let mut m = MultiResource::new(3);
        for _ in 0..3 {
            let i = m.acquire(SimTime::ZERO, Dur::from_ns(10));
            assert_eq!(i.start, SimTime::ZERO);
        }
        // Fourth job waits for the first server to free.
        let i = m.acquire(SimTime::ZERO, Dur::from_ns(10));
        assert_eq!(i.start, SimTime::from_ns(10));
        assert_eq!(m.all_free(), SimTime::from_ns(20));
        assert_eq!(m.jobs_served(), 4);
        assert_eq!(m.capacity(), 3);
    }

    #[test]
    fn multi_resource_wave_timing_matches_closed_form() {
        // 10 equal blocks on 4 servers => ceil(10/4)=3 waves.
        let mut m = MultiResource::new(4);
        let d = Dur::from_ns(7);
        for _ in 0..10 {
            m.acquire(SimTime::ZERO, d);
        }
        assert_eq!(m.all_free(), SimTime::ZERO + d * 3);
        assert_eq!(m.busy_time(), d * 10);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_capacity_panics() {
        let _ = MultiResource::new(0);
    }
}
