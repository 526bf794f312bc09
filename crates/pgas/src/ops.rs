//! Timed one-sided operations over the simulated fabric.

use desim::{Dur, Interval, SimTime};
use gpusim::{Delivery, FabricError, Faults, Machine, Send};

use crate::CoalescedBatch;

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
}

impl Default for PgasConfig {
    fn default() -> Self {
        PgasConfig {
            max_payload: 256,
            issue_overhead: Dur::from_ns(20),
            quiet_overhead: Dur::from_us(2),
            barrier_overhead: Dur::from_us(3),
        }
    }
}

/// Timed one-sided operation layer: wraps a [`Machine`] with NVSHMEM-style
/// semantics. The functional data movement lives separately in
/// [`crate::SymmetricHeap`]; this type accounts for *when* bytes move.
pub struct OneSided<'m> {
    machine: &'m mut Machine,
    cfg: PgasConfig,
}

impl<'m> OneSided<'m> {
    /// Wrap a machine with the default PGAS config.
    pub fn new(machine: &'m mut Machine) -> Self {
        Self::with_config(machine, PgasConfig::default())
    }

    /// Wrap a machine with an explicit config.
    pub fn with_config(machine: &'m mut Machine, cfg: PgasConfig) -> Self {
        OneSided { machine, cfg }
    }

    /// The active config.
    pub fn config(&self) -> &PgasConfig {
        &self.cfg
    }

    /// Borrow the underlying machine.
    pub fn machine(&mut self) -> &mut Machine {
        self.machine
    }

    /// Non-blocking one-sided put of the coalesced `batch` from `src` to
    /// `dst`, ready at `ready` (say the issuing block's retirement). Each
    /// message pays the issue overhead before the wire, which meets the fault
    /// plan as `faults` says ([`Machine::transmit`]). A remote `atomic_add`
    /// of gradient rows is a put too: same footprint, no reply. The local
    /// kernel does not wait for the delivery (`quiet` does); an empty batch
    /// is delivered at `ready` without touching the wire.
    pub fn put(
        &mut self,
        src: usize,
        dst: usize,
        batch: CoalescedBatch,
        ready: SimTime,
        faults: Faults,
    ) -> Result<Delivery, FabricError> {
        if batch.messages == 0 {
            let interval = Interval {
                start: ready,
                end: ready,
            };
            return Ok(Delivery {
                interval,
                attempts: 1,
            });
        }
        self.machine
            .metrics_mut()
            .incr("pgas_puts_issued", src as u32, 0);
        self.machine.transmit(&Send {
            src,
            dst,
            payload: batch.payload,
            messages: batch.messages,
            ready: ready + self.cfg.issue_overhead * batch.messages,
            efficiency: 1.0,
            faults,
        })
    }

    /// `quiet` on `src`: returns when every message `src` has issued is
    /// delivered, observed no earlier than `at`. It only *observes*
    /// deliveries, so with nothing outstanding it completes at
    /// `at + quiet_overhead` whatever the links' state.
    pub fn quiet(&mut self, src: usize, at: SimTime) -> SimTime {
        self.machine.quiet(src, at) + self.cfg.quiet_overhead
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

    /// `rows` coalesced row-stores of `row_bytes`, put meeting the plan as
    /// `faults` says.
    fn put_rows(
        os: &mut OneSided,
        (src, dst): (usize, usize),
        rows: u64,
        row_bytes: u32,
        at: SimTime,
        faults: Faults,
    ) -> Result<Delivery, FabricError> {
        let batch = crate::coalesce_rows(rows, row_bytes, os.config().max_payload);
        os.put(src, dst, batch, at, faults)
    }

    /// A fault-blind put's wire interval.
    fn put_ignoring(
        os: &mut OneSided,
        src: usize,
        dst: usize,
        rows: u64,
        row_bytes: u32,
        at: SimTime,
    ) -> Interval {
        put_rows(os, (src, dst), rows, row_bytes, at, Faults::Ignore)
            .expect("books")
            .interval
    }

    #[test]
    fn put_rows_travels_the_wire() {
        let mut m = machine(2);
        let mut os = OneSided::new(&mut m);
        let iv = put_ignoring(&mut os, 0, 1, 100, 256, SimTime::ZERO);
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
        let iv = put_ignoring(&mut os, 0, 1, 0, 256, t);
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
        let iv = put_ignoring(&mut os, 0, 1, 10, 256, SimTime::ZERO);
        // 10 messages × 100 ns issue + link latency before first byte.
        assert_eq!(iv.start, SimTime::from_ns(1000) + link_latency);
    }

    #[test]
    fn quiet_waits_for_outstanding_puts() {
        let mut m = machine(2);
        let mut os = OneSided::new(&mut m);
        let iv = put_ignoring(&mut os, 0, 1, 10_000, 256, SimTime::ZERO);
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
    #[allow(deprecated)]
    fn the_forwards_pinned_by_the_benchmark_are_puts() {
        let mut m1 = machine(2);
        let mut os1 = OneSided::new(&mut m1);
        let a = put_ignoring(&mut os1, 0, 1, 50, 256, SimTime::ZERO);
        let b = put_ignoring(&mut os1, 0, 1, 50, 256, SimTime::ZERO);
        let mut m2 = machine(2);
        let mut os2 = OneSided::new(&mut m2);
        assert_eq!(os2.put_rows_nbi(0, 1, 50, 256, SimTime::ZERO), a);
        assert_eq!(os2.atomic_add_rows_nbi(0, 1, 50, 256, SimTime::ZERO), b);
        assert_eq!(m1.traffic_stats(), m2.traffic_stats());
    }

    #[test]
    fn wide_rows_produce_more_messages() {
        let mut m = machine(2);
        let mut os = OneSided::new(&mut m);
        put_ignoring(&mut os, 0, 1, 10, 1024, SimTime::ZERO);
        assert_eq!(m.traffic_stats().messages, 40); // 1024/256 per row
    }

    #[test]
    fn a_retrying_put_on_a_clean_fabric_is_the_fault_blind_put() {
        let mut m1 = machine(2);
        let a = put_ignoring(&mut OneSided::new(&mut m1), 0, 1, 100, 256, SimTime::ZERO);
        let mut m2 = machine(2);
        let mut os = OneSided::new(&mut m2);
        let retry = Faults::Retry;
        let d = put_rows(&mut os, (0, 1), 100, 256, SimTime::ZERO, retry).expect("clean fabric");
        assert_eq!(d.interval, a);
        assert_eq!(d.attempts, 1);
        assert_eq!(m1.traffic_stats(), m2.traffic_stats());
    }

    #[test]
    fn a_retrying_put_retries_through_a_drop() {
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
        m.install_faults(plan.clone());
        let mut os = OneSided::new(&mut m);
        // One coalesced message (256 B) so the sampled drop hits this put.
        let retry = Faults::Retry;
        let d = put_rows(&mut os, (0, 1), 1, 256, SimTime::ZERO, retry)
            .expect("retry should clear a transient drop");
        assert!(d.attempts >= 2, "first attempt was dropped");
        // One attempt reports the drop; a fault-blind put books it.
        let mut m = machine(2);
        m.install_faults(plan.clone());
        let once = put_rows(
            &mut OneSided::new(&mut m),
            (0, 1),
            1,
            256,
            SimTime::ZERO,
            Faults::Once,
        );
        assert!(matches!(once, Err(FabricError::MessageDropped { .. })));
        let mut m = machine(2);
        m.install_faults(plan);
        let blind = put_rows(
            &mut OneSided::new(&mut m),
            (0, 1),
            1,
            256,
            SimTime::ZERO,
            Faults::Ignore,
        );
        assert_eq!(blind.expect("books").attempts, 1);
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
        assert_eq!(os.quiet(0, at), at + overhead);
    }
}
