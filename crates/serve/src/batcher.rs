//! Admission queue + dynamic micro-batcher.
//!
//! Requests are admitted in arrival order into a bounded queue; a batch
//! closes when it reaches [`BatcherConfig::max_batch`] requests or when its
//! oldest request has waited [`BatcherConfig::close_deadline`], whichever
//! comes first. Arrivals that would exceed [`BatcherConfig::queue_bound`]
//! are shed at admission; requests that would exceed
//! [`BatcherConfig::request_timeout`] by the time their batch closes are
//! dropped at close and counted as timed out. Batching is fully
//! deterministic: for a fixed request stream the sequence of closed batches
//! depends only on the machine-free instants the caller feeds in.

use std::collections::VecDeque;

use desim::{Dur, SimTime};

use crate::request::Request;

/// Micro-batcher tunables.
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Close a batch as soon as it holds this many requests.
    pub max_batch: usize,
    /// Close a batch once its oldest request has waited this long (clamped
    /// so a batch never closes before the machine is free).
    pub close_deadline: Dur,
    /// Shed arrivals once the queue holds this many requests.
    pub queue_bound: usize,
    /// Drop (and count) a request whose queueing delay would exceed this at
    /// batch close. Every *served* request is guaranteed to have waited at
    /// most this long.
    pub request_timeout: Dur,
}

/// A batch the batcher has closed: the instant it closed and the requests
/// it carries (at most `max_batch`, in arrival order).
#[derive(Clone, Debug)]
pub struct ClosedBatch {
    /// Close instant — execution can start here (never earlier than the
    /// `t_free` the caller passed).
    pub close_at: SimTime,
    /// The admitted requests, oldest first.
    pub requests: Vec<Request>,
}

/// Deterministic admission queue + micro-batcher over a pre-generated
/// arrival stream (sorted by arrival time).
#[derive(Clone, Debug)]
pub struct MicroBatcher {
    cfg: BatcherConfig,
    n_features: usize,
    /// Arrivals not yet scanned, in arrival order.
    pending: VecDeque<Request>,
    /// Admitted requests awaiting a batch.
    queue: VecDeque<Request>,
    served: u64,
    shed: u64,
    timed_out: u64,
    malformed: u64,
}

impl MicroBatcher {
    /// Wrap a sorted arrival stream. `n_features` is the workload's sparse
    /// feature count; requests with a different bag-size length are counted
    /// malformed and never admitted.
    pub fn new(cfg: BatcherConfig, n_features: usize, requests: Vec<Request>) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.queue_bound >= 1, "queue_bound must be at least 1");
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "request stream must be sorted by arrival"
        );
        MicroBatcher {
            cfg,
            n_features,
            pending: VecDeque::from(requests),
            queue: VecDeque::new(),
            served: 0,
            shed: 0,
            timed_out: 0,
            malformed: 0,
        }
    }

    /// Requests handed out in closed batches so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Arrivals shed because the queue was at `queue_bound`.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Requests dropped at close because they had exceeded
    /// `request_timeout`.
    pub fn timed_out(&self) -> u64 {
        self.timed_out
    }

    /// Arrivals rejected for carrying the wrong number of bag sizes.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Requests not yet disposed of (still pending or queued).
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.queue.len()
    }

    /// Requests admitted and waiting in the queue right now (the queue
    /// depth the controller reads at each batch close).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The current tunables.
    pub fn config(&self) -> BatcherConfig {
        self.cfg
    }

    /// Swap the tunables mid-run (the control plane adjusts the close
    /// deadline and queue bound while the batcher is live). If the new
    /// queue bound is smaller than the current queue depth, the overflow is
    /// shed immediately — newest arrivals first, oldest requests keep their
    /// place — so the admission invariant holds from this instant on.
    pub fn set_config(&mut self, cfg: BatcherConfig) {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.queue_bound >= 1, "queue_bound must be at least 1");
        self.cfg = cfg;
        while self.queue.len() > self.cfg.queue_bound {
            self.queue.pop_back();
            self.shed += 1;
        }
    }

    /// Put a closed batch's requests back at the front of the queue, in
    /// order, and roll back their `served` accounting — used when a backend
    /// failover is decided *after* a batch has closed but before it
    /// executed. Conservation (`served + shed + timed_out + malformed =
    /// disposed`) holds across the switch because the requests re-enter the
    /// in-flight pool; the queue bound is deliberately not enforced here
    /// (these requests were already admitted once).
    pub fn requeue(&mut self, requests: Vec<Request>) {
        self.served -= requests.len() as u64;
        for r in requests.into_iter().rev() {
            self.queue.push_front(r);
        }
    }

    /// Admit one arrival: malformed requests are rejected, arrivals beyond
    /// the queue bound are shed, the rest join the queue.
    fn admit(&mut self, r: Request) {
        if r.bags.len() != self.n_features {
            self.malformed += 1;
        } else if self.queue.len() >= self.cfg.queue_bound {
            self.shed += 1;
        } else {
            self.queue.push_back(r);
        }
    }

    /// Admit every pending arrival at or before `t`, stopping early if the
    /// queue reaches `stop_at` requests (the size trigger — arrivals after
    /// that instant wait for the next batch).
    fn admit_until(&mut self, t: SimTime, stop_at: Option<usize>) {
        while self.pending.front().is_some_and(|r| r.arrival <= t)
            && stop_at.is_none_or(|k| self.queue.len() < k)
        {
            let Some(r) = self.pending.pop_front() else {
                break;
            };
            self.admit(r);
        }
    }

    /// Close the next batch given that the machine becomes free at
    /// `t_free`. Returns `None` once every request has been disposed of
    /// (served, shed, timed out, or malformed).
    pub fn next_batch(&mut self, t_free: SimTime) -> Option<ClosedBatch> {
        loop {
            // Everything that arrived while the machine was busy queued (or
            // was shed) on arrival.
            self.admit_until(t_free, None);
            let Some(oldest) = self.queue.front().map(|r| r.arrival) else {
                // Idle: jump forward to the next arrival.
                let r = self.pending.pop_front()?;
                self.admit(r);
                continue; // may have been malformed
            };
            let open = t_free.max(oldest);
            let close = if self.queue.len() >= self.cfg.max_batch {
                // Backlog already fills a batch the instant the machine
                // frees up.
                open.max(self.queue[self.cfg.max_batch - 1].arrival)
            } else {
                // Wait for the size trigger until the oldest request's
                // deadline (clamped so the batch never closes before open).
                let dl = open.max(oldest + self.cfg.close_deadline);
                self.admit_until(dl, Some(self.cfg.max_batch));
                if self.queue.len() >= self.cfg.max_batch {
                    open.max(self.queue[self.cfg.max_batch - 1].arrival)
                } else {
                    dl
                }
            };

            // Timeout-drop: anything that would have waited longer than the
            // request timeout by close is dropped, not served late.
            let before = self.queue.len();
            let timeout = self.cfg.request_timeout;
            self.queue.retain(|r| close <= r.arrival + timeout);
            self.timed_out += (before - self.queue.len()) as u64;
            if self.queue.is_empty() {
                continue; // the whole candidate batch timed out
            }

            let take = self.queue.len().min(self.cfg.max_batch);
            let requests: Vec<Request> = self.queue.drain(..take).collect();
            self.served += requests.len() as u64;
            return Some(ClosedBatch {
                close_at: close,
                requests,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, at_us: u64) -> Request {
        Request {
            id,
            arrival: SimTime::ZERO + Dur::from_us(at_us),
            bags: vec![1, 2].into(),
        }
    }

    fn cfg() -> BatcherConfig {
        BatcherConfig {
            max_batch: 4,
            close_deadline: Dur::from_us(100),
            queue_bound: 16,
            request_timeout: Dur::from_us(1000),
        }
    }

    #[test]
    fn size_trigger_closes_at_filling_arrival() {
        let reqs = (0..4).map(|i| req(i, 10 * (i + 1))).collect();
        let mut b = MicroBatcher::new(cfg(), 2, reqs);
        let batch = b.next_batch(SimTime::ZERO).unwrap();
        assert_eq!(batch.requests.len(), 4);
        // Fourth arrival at 40 µs fills the batch well before the 110 µs
        // deadline of the first.
        assert_eq!(batch.close_at, SimTime::ZERO + Dur::from_us(40));
        assert!(b.next_batch(batch.close_at).is_none());
        assert_eq!(b.served(), 4);
    }

    #[test]
    fn deadline_closes_partial_batches() {
        let reqs = vec![req(0, 10), req(1, 30)];
        let mut b = MicroBatcher::new(cfg(), 2, reqs);
        let batch = b.next_batch(SimTime::ZERO).unwrap();
        assert_eq!(batch.requests.len(), 2);
        // Oldest arrived at 10 µs; deadline 100 µs later.
        assert_eq!(batch.close_at, SimTime::ZERO + Dur::from_us(110));
    }

    #[test]
    fn close_never_precedes_machine_free() {
        let reqs = vec![req(0, 10)];
        let mut b = MicroBatcher::new(cfg(), 2, reqs);
        let t_free = SimTime::ZERO + Dur::from_us(500);
        let batch = b.next_batch(t_free).unwrap();
        assert_eq!(batch.close_at, t_free);
    }

    #[test]
    fn queue_bound_sheds_and_timeout_drops() {
        // 40 arrivals in one instant: 16 queue, 24 shed.
        let reqs = (0..40).map(|i| req(i, 10)).collect();
        let mut c = cfg();
        c.request_timeout = Dur::from_us(50);
        let mut b = MicroBatcher::new(c, 2, reqs);
        // Machine busy for a long time: everything left in the queue blows
        // its timeout at close.
        assert!(b.next_batch(SimTime::ZERO + Dur::from_ms(10)).is_none());
        assert_eq!(b.shed(), 24);
        assert_eq!(b.timed_out(), 16);
        assert_eq!(b.served(), 0);
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn malformed_requests_are_rejected_not_batched() {
        let mut reqs = vec![req(0, 10), req(1, 20)];
        reqs[1].bags = vec![1, 2, 3].into(); // wrong feature count
        let mut b = MicroBatcher::new(cfg(), 2, reqs);
        let batch = b.next_batch(SimTime::ZERO).unwrap();
        assert_eq!(batch.requests.len(), 1);
        assert_eq!(b.malformed(), 1);
    }

    #[test]
    fn requeue_preserves_order_and_conservation() {
        let reqs: Vec<Request> = (0..6).map(|i| req(i, 10 * (i + 1))).collect();
        let mut b = MicroBatcher::new(cfg(), 2, reqs);
        let batch = b.next_batch(SimTime::ZERO).unwrap();
        assert_eq!(batch.requests.len(), 4);
        assert_eq!(b.served(), 4);
        // A failover lands between close and execute: the batch goes back.
        let ids: Vec<u64> = batch.requests.iter().map(|r| r.id).collect();
        b.requeue(batch.requests);
        assert_eq!(b.served(), 0, "requeued requests are no longer served");
        // The next close hands out the same requests in the same order.
        let again = b.next_batch(batch.close_at).unwrap();
        let again_ids: Vec<u64> = again.requests.iter().map(|r| r.id).collect();
        assert_eq!(again_ids, ids);
        // Drain fully: conservation holds despite the round trip.
        let mut t = again.close_at;
        let mut total = again.requests.len() as u64;
        while let Some(nb) = b.next_batch(t) {
            total += nb.requests.len() as u64;
            t = nb.close_at + Dur::from_us(25);
        }
        let _ = total;
        assert_eq!(b.served() + b.shed() + b.timed_out() + b.malformed(), 6);
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn shrinking_queue_bound_sheds_newest_first() {
        let reqs: Vec<Request> = (0..8).map(|i| req(i, 10)).collect();
        let mut b = MicroBatcher::new(
            BatcherConfig {
                max_batch: 16,
                close_deadline: Dur::from_us(100),
                queue_bound: 8,
                request_timeout: Dur::from_us(1000),
            },
            2,
            reqs,
        );
        // Admit everything by asking for a batch far in the future... no:
        // drive admission without closing by using set_config after a peek.
        // Simplest deterministic route: close one batch of all 8, requeue,
        // then shrink the bound.
        let batch = b.next_batch(SimTime::ZERO).unwrap();
        assert_eq!(batch.requests.len(), 8);
        b.requeue(batch.requests);
        assert_eq!(b.queued(), 8);
        let mut c = b.config();
        c.queue_bound = 3;
        b.set_config(c);
        assert_eq!(b.queued(), 3);
        assert_eq!(b.shed(), 5);
        // The oldest requests survive.
        let next = b.next_batch(SimTime::ZERO).unwrap();
        let ids: Vec<u64> = next.requests.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(b.served() + b.shed() + b.timed_out() + b.malformed(), 8);
    }

    #[test]
    fn conservation_holds_when_drained() {
        let reqs: Vec<Request> = (0..100).map(|i| req(i, 5 * i)).collect();
        let n = reqs.len() as u64;
        let mut b = MicroBatcher::new(cfg(), 2, reqs);
        let mut t = SimTime::ZERO;
        while let Some(batch) = b.next_batch(t) {
            t = batch.close_at + Dur::from_us(25); // pretend service time
        }
        assert_eq!(b.served() + b.shed() + b.timed_out() + b.malformed(), n);
        assert_eq!(b.outstanding(), 0);
    }
}
