//! Timed one-sided operations over the simulated fabric.

use desim::{Dur, Interval, SimTime};
use gpusim::{FabricError, Machine, RetryPolicy};

use crate::{coalesce_rows, CoalescedBatch};

/// Delivery record of a (possibly retried) one-sided put.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Wire interval of the attempt that succeeded.
    pub interval: Interval,
    /// Total send attempts (1 = clean first try).
    pub attempts: u32,
}

/// Aggregate retry accounting across an [`OneSided`] session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Puts that needed at least one retry but were delivered.
    pub retried_puts: u64,
    /// Total extra attempts beyond the first, across all puts.
    pub retries: u64,
    /// Puts that exhausted their retry budget.
    pub exhausted: u64,
}

/// Tunables of the PGAS runtime's timing model.
#[derive(Clone, Copy, Debug)]
pub struct PgasConfig {
    /// Maximum coalesced wire payload per message (NVLink write-combining
    /// granularity). The paper's Fig. 7/10 count volume in 256-byte units.
    pub max_payload: u32,
    /// GPU-side cost for a thread to issue a one-sided write (address
    /// translation + store to the remote aperture). Charged per message on
    /// the issuing kernel's critical path.
    pub issue_overhead: Dur,
    /// Cost of `quiet` (waiting for write visibility) beyond drain time.
    pub quiet_overhead: Dur,
    /// Cost of `barrier_all` beyond the max of participant times.
    pub barrier_overhead: Dur,
    /// Retry schedule for the fallible (`try_*`) operations.
    pub retry: RetryPolicy,
}

impl Default for PgasConfig {
    fn default() -> Self {
        PgasConfig {
            max_payload: 256,
            issue_overhead: Dur::from_ns(20),
            quiet_overhead: Dur::from_us(2),
            barrier_overhead: Dur::from_us(3),
            retry: RetryPolicy::default(),
        }
    }
}

/// Timed one-sided operation layer: wraps a [`Machine`] with NVSHMEM-style
/// semantics. The functional data movement lives separately in
/// [`crate::SymmetricHeap`]; this type accounts for *when* bytes move.
pub struct OneSided<'m> {
    machine: &'m mut Machine,
    cfg: PgasConfig,
    stats: RetryStats,
}

impl<'m> OneSided<'m> {
    /// Wrap a machine with the default PGAS config.
    pub fn new(machine: &'m mut Machine) -> Self {
        Self::with_config(machine, PgasConfig::default())
    }

    /// Wrap a machine with an explicit config.
    pub fn with_config(machine: &'m mut Machine, cfg: PgasConfig) -> Self {
        OneSided {
            machine,
            cfg,
            stats: RetryStats::default(),
        }
    }

    /// Retry accounting accumulated by the `try_*` operations.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// The active config.
    pub fn config(&self) -> &PgasConfig {
        &self.cfg
    }

    /// Borrow the underlying machine.
    pub fn machine(&mut self) -> &mut Machine {
        self.machine
    }

    /// Issue a non-blocking one-sided put of `rows` row-stores of
    /// `row_bytes` each from `src` to `dst`, ready on the wire at `ready`
    /// (typically the issuing thread block's retirement time).
    ///
    /// Returns the wire interval; completion of the *local* kernel does not
    /// wait for it (that is what `quiet` is for).
    pub fn put_rows_nbi(
        &mut self,
        src: usize,
        dst: usize,
        rows: u64,
        row_bytes: u32,
        ready: SimTime,
    ) -> Interval {
        let batch = coalesce_rows(rows, row_bytes, self.cfg.max_payload);
        self.put_batch_nbi(src, dst, batch, ready)
    }

    /// Issue a pre-coalesced batch.
    pub fn put_batch_nbi(
        &mut self,
        src: usize,
        dst: usize,
        batch: CoalescedBatch,
        ready: SimTime,
    ) -> Interval {
        if batch.messages == 0 {
            return Interval {
                start: ready,
                end: ready,
            };
        }
        self.machine
            .metrics_mut()
            .incr("pgas_puts_issued", src as u32, 0);
        // Issue cost rides on the sender's timeline before the wire sees it.
        let on_wire = ready + self.cfg.issue_overhead * batch.messages;
        self.machine
            .send(src, dst, batch.payload, batch.messages, on_wire)
    }

    /// One-sided remote atomic accumulation traffic: gradients in the
    /// backward extension. Same wire footprint as a put; remote HBM applies
    /// the addition in place (no reply needed for relaxed atomics).
    pub fn atomic_add_rows_nbi(
        &mut self,
        src: usize,
        dst: usize,
        rows: u64,
        row_bytes: u32,
        ready: SimTime,
    ) -> Interval {
        self.put_rows_nbi(src, dst, rows, row_bytes, ready)
    }

    /// Fault-aware [`OneSided::put_rows_nbi`]: each wire message is retried
    /// under the config's [`RetryPolicy`] (capped exponential backoff in
    /// simulated time) when the link is down or the message is dropped.
    ///
    /// The retry loop runs inline, so two `try_put_*` calls to the same
    /// destination can never reorder: the first put's messages are fully
    /// delivered (or the call has failed) before the second's are attempted.
    ///
    /// With no fault plan on the machine this is timing-identical to the
    /// infallible path.
    pub fn try_put_rows_nbi(
        &mut self,
        src: usize,
        dst: usize,
        rows: u64,
        row_bytes: u32,
        ready: SimTime,
    ) -> Result<Delivery, FabricError> {
        let batch = coalesce_rows(rows, row_bytes, self.cfg.max_payload);
        self.try_put_batch_nbi(src, dst, batch, ready)
    }

    /// Fault-aware [`OneSided::put_batch_nbi`]; see
    /// [`OneSided::try_put_rows_nbi`].
    pub fn try_put_batch_nbi(
        &mut self,
        src: usize,
        dst: usize,
        batch: CoalescedBatch,
        ready: SimTime,
    ) -> Result<Delivery, FabricError> {
        if batch.messages == 0 {
            return Ok(Delivery {
                interval: Interval {
                    start: ready,
                    end: ready,
                },
                attempts: 1,
            });
        }
        self.machine
            .metrics_mut()
            .incr("pgas_puts_issued", src as u32, 0);
        let on_wire = ready + self.cfg.issue_overhead * batch.messages;
        if !self.machine.faults_active() {
            // Clean fabric: nothing to retry and no error to plumb. The batch
            // executor issues every store through this call, so the common
            // case must cost what the infallible put costs.
            let interval = self
                .machine
                .send(src, dst, batch.payload, batch.messages, on_wire);
            return Ok(Delivery {
                interval,
                attempts: 1,
            });
        }
        let policy = self.cfg.retry;
        match self.machine.try_send_retry(
            src,
            dst,
            batch.payload,
            batch.messages,
            on_wire,
            1.0,
            policy,
        ) {
            Ok((interval, attempts)) => {
                if attempts > 1 {
                    self.stats.retried_puts += 1;
                    self.stats.retries += u64::from(attempts - 1);
                }
                Ok(Delivery { interval, attempts })
            }
            Err(e) => {
                if let FabricError::RetryExhausted { attempts, .. } = &e {
                    self.stats.retries += u64::from(attempts.saturating_sub(1));
                }
                self.stats.exhausted += 1;
                Err(e)
            }
        }
    }

    /// `quiet` on `src`: returns when every message `src` has issued is
    /// delivered, observed no earlier than `at`.
    pub fn quiet(&mut self, src: usize, at: SimTime) -> SimTime {
        self.machine.quiet(src, at) + self.cfg.quiet_overhead
    }

    /// [`OneSided::quiet`] with a completion deadline. Fails with
    /// [`FabricError::Timeout`] if outstanding deliveries push completion
    /// past `deadline`. A `quiet` with nothing outstanding completes at
    /// `at + quiet_overhead` regardless of link state — it only *observes*
    /// deliveries, it does not touch the fabric.
    pub fn try_quiet(
        &mut self,
        src: usize,
        at: SimTime,
        deadline: SimTime,
    ) -> Result<SimTime, FabricError> {
        let t = self.quiet(src, at);
        if t > deadline {
            return Err(FabricError::Timeout {
                deadline,
                completes_at: t,
            });
        }
        Ok(t)
    }

    /// Global barrier: all PEs proceed at the max of their times plus the
    /// barrier cost.
    pub fn barrier_all(&mut self, times: &[SimTime]) -> SimTime {
        self.machine.barrier(times) + self.cfg.barrier_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::MachineConfig;

    fn machine(n: usize) -> Machine {
        Machine::new(MachineConfig::dgx_v100(n))
    }

    #[test]
    fn put_rows_travels_the_wire() {
        let mut m = machine(2);
        let mut os = OneSided::new(&mut m);
        let iv = os.put_rows_nbi(0, 1, 100, 256, SimTime::ZERO);
        assert!(iv.end > iv.start);
        let stats = m.traffic_stats();
        assert_eq!(stats.payload_bytes, 100 * 256);
        assert_eq!(stats.messages, 100);
    }

    #[test]
    fn empty_put_is_free() {
        let mut m = machine(2);
        let mut os = OneSided::new(&mut m);
        let t = SimTime::from_us(3);
        let iv = os.put_rows_nbi(0, 1, 0, 256, t);
        assert_eq!(iv.start, t);
        assert_eq!(iv.end, t);
        assert_eq!(m.traffic_stats().messages, 0);
    }

    #[test]
    fn issue_overhead_delays_wire_entry() {
        let cfg = PgasConfig {
            issue_overhead: Dur::from_ns(100),
            ..PgasConfig::default()
        };
        let mut m = machine(2);
        let link_latency = m.topology().link(0, 1).latency;
        let mut os = OneSided::with_config(&mut m, cfg);
        let iv = os.put_rows_nbi(0, 1, 10, 256, SimTime::ZERO);
        // 10 messages × 100 ns issue + link latency before first byte.
        assert_eq!(iv.start, SimTime::from_ns(1000) + link_latency);
    }

    #[test]
    fn quiet_waits_for_outstanding_puts() {
        let mut m = machine(2);
        let mut os = OneSided::new(&mut m);
        let iv = os.put_rows_nbi(0, 1, 10_000, 256, SimTime::ZERO);
        let q = os.quiet(0, SimTime::ZERO);
        assert_eq!(q, iv.end + PgasConfig::default().quiet_overhead);
        // A PE with nothing outstanding pays only the overhead.
        let q1 = os.quiet(1, SimTime::ZERO);
        assert_eq!(q1, SimTime::ZERO + PgasConfig::default().quiet_overhead);
    }

    #[test]
    fn barrier_is_max_plus_cost() {
        let mut m = machine(2);
        let mut os = OneSided::new(&mut m);
        let t = os.barrier_all(&[SimTime::from_us(1), SimTime::from_us(4)]);
        assert_eq!(
            t,
            SimTime::from_us(4) + PgasConfig::default().barrier_overhead
        );
    }

    #[test]
    fn atomic_add_has_put_wire_footprint() {
        let mut m1 = machine(2);
        let mut os1 = OneSided::new(&mut m1);
        let a = os1.put_rows_nbi(0, 1, 50, 256, SimTime::ZERO);
        let mut m2 = machine(2);
        let mut os2 = OneSided::new(&mut m2);
        let b = os2.atomic_add_rows_nbi(0, 1, 50, 256, SimTime::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn wide_rows_produce_more_messages() {
        let mut m = machine(2);
        let mut os = OneSided::new(&mut m);
        os.put_rows_nbi(0, 1, 10, 1024, SimTime::ZERO);
        assert_eq!(m.traffic_stats().messages, 40); // 1024/256 per row
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: Dur::from_us(5),
            max_backoff: Dur::from_us(30),
        };
        assert_eq!(p.backoff(1), Dur::from_us(5));
        assert_eq!(p.backoff(2), Dur::from_us(10));
        assert_eq!(p.backoff(3), Dur::from_us(20));
        assert_eq!(p.backoff(4), Dur::from_us(30), "capped");
        assert_eq!(p.backoff(10), Dur::from_us(30));
    }

    #[test]
    fn try_put_without_faults_matches_put() {
        let mut m1 = machine(2);
        let a = OneSided::new(&mut m1).put_rows_nbi(0, 1, 100, 256, SimTime::ZERO);
        let mut m2 = machine(2);
        let mut os = OneSided::new(&mut m2);
        let d = os
            .try_put_rows_nbi(0, 1, 100, 256, SimTime::ZERO)
            .expect("clean fabric");
        assert_eq!(d.interval, a);
        assert_eq!(d.attempts, 1);
        assert_eq!(os.retry_stats(), RetryStats::default());
        assert_eq!(m1.traffic_stats(), m2.traffic_stats());
    }

    #[test]
    fn try_put_retries_through_a_drop() {
        use gpusim::{FaultPlan, FaultSpec, MessageFault};
        // Find a seed whose very first 0->1 message is sampled as dropped.
        let mut seed = 0u64;
        let plan = loop {
            let mut p = FaultPlan::generate(seed, 2, FaultSpec::chaos(1.0));
            let first = p.sample_message(0, 1);
            if first == MessageFault::Drop {
                break FaultPlan::generate(seed, 2, FaultSpec::chaos(1.0));
            }
            seed += 1;
            assert!(seed < 100_000, "2% drop rate should fire well before this");
        };
        let mut m = machine(2);
        m.install_faults(plan);
        let mut os = OneSided::new(&mut m);
        // One coalesced message (256 B) so the sampled drop hits this put.
        let d = os
            .try_put_rows_nbi(0, 1, 1, 256, SimTime::ZERO)
            .expect("retry should clear a transient drop");
        assert!(d.attempts >= 2, "first attempt was dropped");
        let stats = os.retry_stats();
        assert_eq!(stats.retried_puts, 1);
        assert!(stats.retries >= 1);
        assert_eq!(stats.exhausted, 0);
    }

    #[test]
    fn try_quiet_honors_deadline() {
        let mut m = machine(2);
        let mut os = OneSided::new(&mut m);
        let iv = os.put_rows_nbi(0, 1, 10_000, 256, SimTime::ZERO);
        let overhead = PgasConfig::default().quiet_overhead;
        // Deadline after completion: ok.
        let t = os
            .try_quiet(0, SimTime::ZERO, iv.end + overhead)
            .expect("deadline met");
        assert_eq!(t, iv.end + overhead);
        // Deadline before completion: timeout carrying the actual finish.
        match os.try_quiet(0, SimTime::ZERO, SimTime::from_ns(1)) {
            Err(gpusim::FabricError::Timeout { completes_at, .. }) => {
                assert_eq!(completes_at, iv.end + overhead);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn quiet_with_nothing_outstanding_ignores_link_state() {
        use gpusim::{FaultPlan, FaultSpec};
        let mut m = machine(2);
        m.install_faults(FaultPlan::generate(5, 2, FaultSpec::chaos(1.0)));
        let mut os = OneSided::new(&mut m);
        // No puts issued: quiet completes at `at + overhead` even though the
        // chaos plan has links flapping — quiet observes, it does not send.
        let at = SimTime::from_us(40);
        let overhead = PgasConfig::default().quiet_overhead;
        let t = os
            .try_quiet(0, at, at + overhead)
            .expect("nothing outstanding");
        assert_eq!(t, at + overhead);
    }
}
