//! Workload configuration, with the paper's two experimental presets.

use crate::{EmbeddingTableSpec, IndexDistribution, PoolingOp, Sharding, SparseBatchSpec};

/// Everything that defines an EMB-layer workload and its execution layout.
/// Structural equality over *every* field is what keys the plan memo
/// ([`crate::backend::prepare_batches`]): keep it derived.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbLayerConfig {
    /// Number of GPUs.
    pub n_gpus: usize,
    /// Total sparse features (= embedding tables) across all GPUs.
    pub n_features: usize,
    /// Rows per table (hash size `M`).
    pub table_rows: usize,
    /// Embedding dimension `d`.
    pub dim: usize,
    /// Global batch size `N`.
    pub batch_size: usize,
    /// Minimum pooling factor.
    pub pooling_min: u32,
    /// Maximum pooling factor (uniform in `[min, max]`).
    pub pooling_max: u32,
    /// Raw sparse-index space before hashing.
    pub index_space: u64,
    /// Raw index distribution.
    pub distribution: IndexDistribution,
    /// Pooling operation.
    pub pooling: PoolingOp,
    /// Bags per thread block in the lookup kernel.
    pub bags_per_block: usize,
    /// Batches per measured run (the paper uses 100).
    pub n_batches: usize,
    /// How many distinct random batches to cycle through (inputs are i.i.d.,
    /// so a small pool is statistically equivalent and much cheaper).
    pub distinct_batches: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Scale applied to the GPU's effective L2 row capacity when estimating
    /// cache-hit fractions. [`EmbLayerConfig::scaled_down`] divides it by
    /// `k` so the hit fraction — a ratio of cache to table — stays what it
    /// would be at paper scale.
    pub cache_rows_scale: f64,
    /// Rows of each *remote* table replicated into this device's functional
    /// hot-row cache (top-K by warmup-trace frequency). `0` disables the
    /// cache entirely — plans, timings and CSVs are then bit-identical to a
    /// build without the cache subsystem.
    pub hot_cache_rows: u64,
    /// Collapse duplicate `(table, index)` lookups within a batch to one
    /// HBM fetch (and duplicate identical bags per destination to one
    /// remote message). `false` keeps the historical per-lookup accounting.
    pub dedup: bool,
}

impl EmbLayerConfig {
    /// The paper's **weak scaling** configuration (§IV-A): 64 tables *per
    /// GPU*, 1 M rows each, `d = 64`, batch 16 384, pooling uniform up to
    /// 128, 100 batches.
    pub fn paper_weak_scaling(n_gpus: usize) -> Self {
        EmbLayerConfig {
            n_gpus,
            n_features: 64 * n_gpus,
            table_rows: 1_000_000,
            dim: 64,
            batch_size: 16_384,
            pooling_min: 1,
            pooling_max: 128,
            index_space: 1 << 40,
            distribution: IndexDistribution::Uniform,
            pooling: PoolingOp::Sum,
            bags_per_block: 128,
            n_batches: 100,
            distinct_batches: 4,
            seed: 0xD1_5C0,
            cache_rows_scale: 1.0,
            hot_cache_rows: 0,
            dedup: false,
        }
    }

    /// The paper's **strong scaling** configuration (§IV-B): 96 tables
    /// *total* (sized to fill one 32 GB V100), 1 M rows, `d = 64`, batch
    /// 16 384, pooling uniform up to 32, 100 batches.
    ///
    /// The lookup kernel here uses coarse 1024-bag blocks (one block per
    /// table × batch chunk, as the DLRM reference kernel launches). With
    /// few tables per GPU that leaves too few resident blocks to hide DRAM
    /// latency — reproducing the paper's `ncu` observation of 38% compute /
    /// 57% memory utilization and the flat compute time beyond 2 GPUs.
    pub fn paper_strong_scaling(n_gpus: usize) -> Self {
        EmbLayerConfig {
            n_features: 96,
            pooling_max: 32,
            bags_per_block: 1024,
            ..Self::paper_weak_scaling(n_gpus)
        }
    }

    /// Shrink every size axis by `k` (for tests and quick runs) while
    /// preserving the workload's shape: batch, rows and feature count all
    /// divide by `k`. The thread-block granularity shrinks by `k²` so the
    /// kernel's *block count* — and therefore its occupancy regime and its
    /// wave structure (what makes PGAS overlap possible) — stays the same
    /// as at paper scale.
    pub fn scaled_down(mut self, k: usize) -> Self {
        assert!(k >= 1);
        self.batch_size = (self.batch_size / k).max(self.n_gpus);
        self.batch_size -= self.batch_size % self.n_gpus; // keep divisible
        self.table_rows = (self.table_rows / k).max(1);
        self.n_features = (self.n_features / k).max(self.n_gpus);
        if let r @ 1.. = self.n_features % self.n_gpus {
            self.n_features += self.n_gpus - r; // keep divisible
        }
        self.bags_per_block = (self.bags_per_block / (k * k)).max(1);
        self.cache_rows_scale /= k as f64;
        self.index_space = (self.index_space / k as u64).max(1);
        if self.hot_cache_rows > 0 {
            // Keep the cache-to-table ratio (what sets the hit rate).
            self.hot_cache_rows = (self.hot_cache_rows / k as u64).max(1);
        }
        self
    }

    /// The generator spec for one batch.
    pub fn batch_spec(&self) -> SparseBatchSpec {
        SparseBatchSpec {
            batch_size: self.batch_size,
            n_features: self.n_features,
            pooling_min: self.pooling_min,
            pooling_max: self.pooling_max,
            index_space: self.index_space,
            distribution: self.distribution,
        }
    }

    /// The (uniform) table spec.
    pub fn table_spec(&self) -> EmbeddingTableSpec {
        EmbeddingTableSpec {
            rows: self.table_rows,
            dim: self.dim,
        }
    }

    /// The paper's table-wise block sharding.
    pub fn sharding(&self) -> Sharding {
        Sharding::table_wise_block(self.n_features, self.n_gpus)
    }

    /// Mini-batch stride per GPU (`⌈N/G⌉`; the last GPU may hold fewer
    /// samples when the batch does not divide evenly).
    pub fn mb_size(&self) -> usize {
        self.batch_size.div_ceil(self.n_gpus)
    }

    /// Seed for the `i`-th distinct batch.
    pub fn batch_seed(&self, i: usize) -> u64 {
        self.seed
            .wrapping_add(1 + (i % self.distinct_batches.max(1)) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_scaling_preset_matches_paper() {
        let c = EmbLayerConfig::paper_weak_scaling(4);
        assert_eq!(c.n_features, 256);
        assert_eq!(c.table_rows, 1_000_000);
        assert_eq!(c.dim, 64);
        assert_eq!(c.batch_size, 16_384);
        assert_eq!(c.pooling_max, 128);
        assert_eq!(c.n_batches, 100);
        // 64 tables × 1 M × 64 × 4 B = 16.4 GB per GPU: fits a 32 GB V100.
        assert_eq!(c.table_spec().table_bytes(), 1_000_000 * 64 * 4);
    }

    #[test]
    fn strong_scaling_preset_matches_paper() {
        let c = EmbLayerConfig::paper_strong_scaling(2);
        assert_eq!(c.n_features, 96);
        assert_eq!(c.pooling_max, 32);
        assert_eq!(c.batch_size, 16_384);
        // 96 tables × 256 MB ≈ 24.6 GB: fills but fits one 32 GB V100.
        let weights = c.n_features as u64 * c.table_spec().table_bytes();
        assert!(weights < 32 << 30 && weights > 20 << 30);
    }

    #[test]
    fn scaled_down_keeps_divisibility() {
        for g in 1..=4 {
            let c = EmbLayerConfig::paper_weak_scaling(g).scaled_down(100);
            assert_eq!(c.batch_size % g, 0, "batch divisible at g={g}");
            assert_eq!(c.n_features % g, 0, "features divisible at g={g}");
            assert!(c.batch_size >= g);
            let _ = c.sharding(); // must not panic
        }
    }

    #[test]
    fn batch_seed_cycles_through_pool() {
        let c = EmbLayerConfig::paper_weak_scaling(2);
        assert_eq!(c.batch_seed(0), c.batch_seed(c.distinct_batches));
        assert_ne!(c.batch_seed(0), c.batch_seed(1));
    }

    #[test]
    fn derived_specs_are_consistent() {
        let c = EmbLayerConfig::paper_weak_scaling(2).scaled_down(64);
        let bs = c.batch_spec();
        assert_eq!(bs.batch_size, c.batch_size);
        assert_eq!(bs.n_features, c.n_features);
        assert_eq!(c.table_spec().dim, c.dim);
        assert_eq!(c.mb_size() * c.n_gpus, c.batch_size); // this config divides
        let three = EmbLayerConfig::paper_weak_scaling(3);
        assert_eq!(three.mb_size(), 5462); // ceil(16384 / 3)
    }
}
