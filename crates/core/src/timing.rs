//! Timing reports: the paper's three runtime components.

use desim::{Dur, TimeSeries};
use gpusim::{Machine, TrafficStats};

/// The paper's Fig. 6/9 decomposition of one EMB forward pass.
///
/// For the baseline the three phases are disjoint by construction
/// (bulk-synchronous execution). For the PGAS backend communication is
/// hidden inside computation, so `communication` is zero and `sync_unpack`
/// holds only the small quiet/barrier tail after the fused kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Embedding lookup kernel time (launch + execution).
    pub compute: Dur,
    /// Collective communication time (wire, after compute, before sync).
    pub communication: Dur,
    /// Synchronization + unpack/data-rearrangement time.
    pub sync_unpack: Dur,
}

impl TimeBreakdown {
    /// Sum of the components.
    pub fn total(&self) -> Dur {
        self.compute + self.communication + self.sync_unpack
    }

    /// Accumulate another breakdown (per-batch totals over a run).
    pub fn accumulate(&mut self, other: &TimeBreakdown) {
        self.compute += other.compute;
        self.communication += other.communication;
        self.sync_unpack += other.sync_unpack;
    }
}

/// The result of running a backend over a stream of batches.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Number of batches executed.
    pub batches: usize,
    /// Accumulated per-phase breakdown across batches.
    pub breakdown: TimeBreakdown,
    /// Accumulated EMB-stage wall time (equals `breakdown.total()`).
    pub total: Dur,
    /// Wire statistics for the whole run.
    pub traffic: TrafficStats,
    /// Payload bytes on all wires over time (Figures 7/10). Recorded only
    /// on a machine with telemetry on (`Machine::enable_telemetry`); empty
    /// on an unobserved one.
    pub comm_series: TimeSeries,
}

impl RunReport {
    /// Report `batches` batches with accumulated `breakdown`, embedding
    /// `machine`'s whole-run wire statistics and traffic series.
    pub fn new(machine: &Machine, batches: usize, breakdown: TimeBreakdown) -> Self {
        RunReport {
            batches,
            breakdown,
            total: breakdown.total(),
            traffic: machine.traffic_stats(),
            comm_series: machine.total_traffic(),
        }
    }

    /// Mean wall time per batch.
    pub fn per_batch(&self) -> Dur {
        if self.batches == 0 {
            Dur::ZERO
        } else {
            self.total / self.batches as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_accumulate() {
        let mut a = TimeBreakdown {
            compute: Dur::from_us(10),
            communication: Dur::from_us(5),
            sync_unpack: Dur::from_us(2),
        };
        assert_eq!(a.total(), Dur::from_us(17));
        a.accumulate(&a.clone());
        assert_eq!(a.total(), Dur::from_us(34));
        assert_eq!(a.compute, Dur::from_us(20));
    }

    #[test]
    fn per_batch_mean() {
        let r = RunReport {
            batches: 4,
            breakdown: TimeBreakdown::default(),
            total: Dur::from_us(100),
            traffic: TrafficStats::default(),
            comm_series: TimeSeries::new(Dur::from_us(1)),
        };
        assert_eq!(r.per_batch(), Dur::from_us(25));
        let empty = RunReport { batches: 0, ..r };
        assert_eq!(empty.per_batch(), Dur::ZERO);
    }
}
