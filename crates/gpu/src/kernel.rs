//! Kernel cost model.
//!
//! A kernel is a set of thread blocks. The model executes blocks in waves of
//! at most `max_resident_blocks`, with each block's service time set by the
//! slowest of three terms:
//!
//! * **memory time** — the block's global-memory traffic divided by its share
//!   of the occupancy-scaled bandwidth,
//! * **compute time** — its FLOPs divided by its share of peak throughput,
//! * **latency floor** — its chain of dependent memory accesses times the
//!   DRAM round-trip. When a kernel has too few blocks to hide latency, this
//!   floor dominates and adding GPUs stops helping — exactly the paper's
//!   strong-scaling plateau (§IV-B: 38% compute / 57% memory utilization).

use desim::{Dur, Interval, SimTime};

use crate::GpuSpec;

/// The resource footprint of one kernel launch.
#[derive(Clone, Copy, Debug)]
pub struct KernelShape {
    /// Number of thread blocks.
    pub blocks: u64,
    /// Global-memory bytes (read + write) per block.
    pub bytes_per_block: u64,
    /// FP32 operations per block.
    pub flops_per_block: u64,
    /// Length of the longest chain of dependent memory accesses in a block
    /// (each pays a DRAM round-trip when latency-limited).
    pub dependent_accesses: u32,
}

impl KernelShape {
    /// A purely memory-bound kernel (e.g. embedding gather): no FLOPs worth
    /// modeling, a default dependent chain of 8 accesses.
    pub fn memory_bound(blocks: u64, bytes_per_block: u64) -> Self {
        KernelShape {
            blocks,
            bytes_per_block,
            flops_per_block: 0,
            dependent_accesses: 8,
        }
    }

    /// Resident blocks per wave when `blocks` are spread evenly over the
    /// minimum number of waves. Even spreading avoids the unphysical "tail
    /// wave" overcharge of naive `min(blocks, max)` residency: a real GPU
    /// with 1.2 waves' worth of blocks does not take 2 full waves, because
    /// the trailing blocks get a larger bandwidth share.
    pub fn effective_resident(blocks: u64, max_resident: u32) -> u32 {
        if blocks == 0 {
            return 1;
        }
        let waves = blocks.div_ceil(max_resident as u64);
        blocks.div_ceil(waves) as u32
    }

    /// Service time of one block given `resident` blocks in flight on `spec`.
    pub fn block_time(&self, spec: &GpuSpec, resident: u32) -> Dur {
        assert!(resident >= 1);
        let bw_share = spec.effective_bw(resident) / resident as f64;
        let mem = self.bytes_per_block as f64 / bw_share;
        let occ = (resident as f64 / spec.blocks_to_saturate as f64).min(1.0);
        let flops_share = spec.flops * occ / resident as f64;
        let compute = if self.flops_per_block == 0 {
            0.0
        } else {
            self.flops_per_block as f64 / flops_share
        };
        let floor = spec.mem_latency * self.dependent_accesses as u64;
        Dur::from_secs_f64(mem.max(compute)).max(floor)
    }

    /// Execution duration (excluding launch overhead) on `spec`.
    pub fn duration(&self, spec: &GpuSpec) -> Dur {
        if self.blocks == 0 {
            return Dur::ZERO;
        }
        let resident = Self::effective_resident(self.blocks, spec.max_resident_blocks());
        let tau = self.block_time(spec, resident);
        let waves = self.blocks.div_ceil(resident as u64);
        tau * waves
    }
}

/// The outcome of simulating one kernel launch.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Execution span: `start` is after launch overhead, `end` is when the
    /// last block retires.
    pub interval: Interval,
    /// Retirement time of each block, in block-index order. Blocks execute
    /// in waves of `resident`; the PGAS backend uses these instants to emit
    /// each block's one-sided messages the moment its data is ready.
    pub block_ends: Vec<SimTime>,
    /// How many blocks were resident per wave.
    pub resident: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GpuSpec {
        GpuSpec::v100()
    }

    #[test]
    fn saturated_kernel_is_bandwidth_bound() {
        let s = spec();
        // Plenty of blocks, big blocks: duration ≈ total bytes / mem_bw.
        let shape = KernelShape::memory_bound(s.max_resident_blocks() as u64 * 10, 1 << 20);
        let d = shape.duration(&s);
        let ideal = (shape.blocks * shape.bytes_per_block) as f64 / s.mem_bw;
        assert!((d.as_secs_f64() - ideal).abs() / ideal < 0.01);
    }

    #[test]
    fn tiny_kernel_hits_latency_floor() {
        let s = spec();
        // One small block: the dependent-access chain dominates.
        let shape = KernelShape::memory_bound(1, 256);
        let d = shape.duration(&s);
        assert_eq!(d, s.mem_latency * 8);
    }

    #[test]
    fn duration_monotone_in_blocks() {
        let s = spec();
        let mut last = Dur::ZERO;
        for blocks in [1u64, 10, 100, 1000, 10_000, 100_000] {
            let d = KernelShape::memory_bound(blocks, 64 * 1024).duration(&s);
            assert!(d >= last, "duration must not decrease with more blocks");
            last = d;
        }
    }

    #[test]
    fn halving_work_does_not_halve_time_when_latency_limited() {
        // The strong-scaling plateau: with few blocks, halving block count
        // leaves duration nearly unchanged.
        let s = spec();
        let small = KernelShape::memory_bound(64, 4096);
        let smaller = KernelShape::memory_bound(32, 4096);
        let ratio = small.duration(&s).as_secs_f64() / smaller.duration(&s).as_secs_f64();
        assert!(
            ratio < 1.2,
            "latency-limited kernels should not scale, got {ratio}"
        );

        // Whereas in the saturated regime halving work halves time.
        let big = KernelShape::memory_bound(100_000, 64 * 1024);
        let half = KernelShape::memory_bound(50_000, 64 * 1024);
        let ratio = big.duration(&s).as_secs_f64() / half.duration(&s).as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.05);
    }

    #[test]
    fn compute_bound_kernel_uses_flops() {
        let s = spec();
        let shape = KernelShape {
            blocks: s.max_resident_blocks() as u64 * 4,
            bytes_per_block: 64,
            flops_per_block: 100_000_000,
            dependent_accesses: 1,
        };
        let d = shape.duration(&s);
        let ideal = (shape.blocks * shape.flops_per_block) as f64 / s.flops;
        assert!((d.as_secs_f64() - ideal).abs() / ideal < 0.01);
    }

    #[test]
    fn empty_kernel_is_instant() {
        let s = spec();
        let shape = KernelShape::memory_bound(0, 0);
        assert_eq!(shape.duration(&s), Dur::ZERO);
    }
}
