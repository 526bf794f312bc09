//! Per-GPU hardware parameters.

use desim::Dur;

/// Hardware parameters of one simulated GPU.
///
/// The constants in the presets are public datasheet numbers; they calibrate
/// the *shape* of the reproduction (who wins and by what factor), not
/// absolute milliseconds on the authors' testbed.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"V100-SXM2-32GB"`.
    pub name: &'static str,
    /// Peak HBM bandwidth in bytes/second.
    pub mem_bw: f64,
    /// Device memory capacity in bytes (checked by allocation-planning code).
    pub mem_capacity: u64,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Maximum thread blocks resident per SM for our kernel's register/shared
    /// memory footprint.
    pub max_blocks_per_sm: u32,
    /// Number of resident blocks needed to reach peak memory bandwidth.
    /// Below this the kernel is latency-limited.
    pub blocks_to_saturate: u32,
    /// Host-side kernel-launch latency.
    pub kernel_launch: Dur,
    /// `cudaStreamSynchronize` / event-sync overhead.
    pub stream_sync: Dur,
    /// DRAM round-trip latency (the floor for a dependent memory access).
    pub mem_latency: Dur,
    /// Peak FP32 throughput in FLOP/s (used by the MLP cost model).
    pub flops: f64,
    /// Aggregate injection bandwidth of the GPU's NVLink/NIC complex in
    /// bytes/s: the ceiling on this GPU's *total* outbound traffic across
    /// all peers at once (individual links are additionally limited by
    /// their own [`crate::LinkSpec::bandwidth`]).
    pub inj_bw: f64,
    /// Last-level (L2) cache capacity in bytes. Hot embedding rows that fit
    /// here are served without touching HBM — what makes skewed (Zipf)
    /// index streams faster than uniform ones.
    pub l2_bytes: u64,
}

impl GpuSpec {
    /// NVIDIA V100-SXM2-32GB (the paper's GPU).
    ///
    /// 900 GB/s HBM2, 80 SMs, 32 GB, ~15.7 TFLOP/s FP32. The occupancy and
    /// overhead constants are typical measured values for a memory-bound
    /// gather kernel: ~8 µs launch, ~10 µs stream sync, ~450 ns DRAM
    /// round-trip, peak bandwidth reached around 960 resident blocks
    /// (12 blocks/SM × 80 SMs) — below that a gather kernel cannot keep
    /// enough loads in flight to hide DRAM latency.
    pub fn v100() -> Self {
        GpuSpec {
            name: "V100-SXM2-32GB",
            mem_bw: 900e9,
            mem_capacity: 32 << 30,
            sm_count: 80,
            max_blocks_per_sm: 16,
            blocks_to_saturate: 960,
            kernel_launch: Dur::from_us(8),
            stream_sync: Dur::from_us(10),
            mem_latency: Dur::from_ns(450),
            flops: 15.7e12,
            inj_bw: 15e9,
            l2_bytes: 6 << 20,
        }
    }

    /// NVIDIA A100-SXM4-80GB, for what-if runs beyond the paper's testbed.
    pub fn a100() -> Self {
        GpuSpec {
            name: "A100-SXM4-80GB",
            mem_bw: 2.0e12,
            mem_capacity: 80 << 30,
            sm_count: 108,
            max_blocks_per_sm: 16,
            blocks_to_saturate: 864,
            kernel_launch: Dur::from_us(7),
            stream_sync: Dur::from_us(9),
            mem_latency: Dur::from_ns(400),
            flops: 19.5e12,
            inj_bw: 30e9,
            l2_bytes: 40 << 20,
        }
    }

    /// Maximum resident thread blocks across the device.
    pub fn max_resident_blocks(&self) -> u32 {
        self.sm_count * self.max_blocks_per_sm
    }

    /// Occupancy-scaled effective memory bandwidth (bytes/s) when `resident`
    /// blocks are in flight.
    pub fn effective_bw(&self, resident: u32) -> f64 {
        let occ = (resident as f64 / self.blocks_to_saturate as f64).min(1.0);
        self.mem_bw * occ
    }

    /// HBM-capacity accounting for a hot-row replication cache: the maximum
    /// rows *per remote table* that fit in device memory left over after
    /// `resident_bytes` of locally sharded weights, when `n_remote_tables`
    /// tables each replicate the same row count at `row_bytes` per row.
    /// Returns 0 when the shard alone (over)fills the device.
    pub fn replica_rows_capacity(
        &self,
        resident_bytes: u64,
        row_bytes: u64,
        n_remote_tables: u64,
    ) -> u64 {
        if row_bytes == 0 || n_remote_tables == 0 {
            return u64::MAX;
        }
        let free = self.mem_capacity.saturating_sub(resident_bytes);
        free / (row_bytes * n_remote_tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for spec in [GpuSpec::v100(), GpuSpec::a100()] {
            assert!(spec.mem_bw > 1e11);
            assert!(spec.mem_capacity >= 16 << 30);
            assert!(spec.max_resident_blocks() >= spec.blocks_to_saturate);
            assert!(spec.flops > 1e12);
            assert!(!spec.kernel_launch.is_zero());
        }
    }

    #[test]
    fn replica_capacity_accounts_for_resident_weights() {
        let v = GpuSpec::v100();
        // The paper's weak-scaling shard: 64 tables × 1M rows × 256 B =
        // ~16.4 GB resident; 192 remote tables at 256 B/row leave room for
        // well over the experiments' largest 96 k-row replica set.
        let resident = 64 * 1_000_000 * 256u64;
        let cap = v.replica_rows_capacity(resident, 256, 192);
        assert!(cap > 96 * 1024, "capacity {cap} rows per remote table");
        // A replica set that exactly fills the remainder is admitted; one
        // row more per table would not fit.
        assert!(cap * 256 * 192 <= v.mem_capacity - resident);
        assert!((cap + 1) * 256 * 192 > v.mem_capacity - resident);
        // An overfull shard leaves no replica room at all.
        assert_eq!(v.replica_rows_capacity(v.mem_capacity + 1, 256, 192), 0);
        // No remote tables → nothing to bound.
        assert_eq!(v.replica_rows_capacity(resident, 256, 0), u64::MAX);
    }

    #[test]
    fn effective_bw_scales_with_occupancy() {
        let v = GpuSpec::v100();
        assert_eq!(v.effective_bw(v.blocks_to_saturate), v.mem_bw);
        assert_eq!(v.effective_bw(v.blocks_to_saturate * 2), v.mem_bw);
        let half = v.effective_bw(v.blocks_to_saturate / 2);
        assert!((half - v.mem_bw / 2.0).abs() / v.mem_bw < 1e-9);
        assert_eq!(v.effective_bw(0), 0.0);
    }
}
