//! The functional (real-data) halves of the backends.
//!
//! Timing and data movement are deliberately decoupled: these helpers
//! execute the actual hash/lookup/pool math (rayon-parallel over bags) and
//! the actual layout conversions, while the timed halves account for when
//! the same bytes would move on the simulated machine.

use rayon::prelude::*;
use simtensor::Tensor;

use crate::arena;
use crate::kernels::{with_pool_kernel, PoolKernel};
use crate::{DevicePlan, EmbeddingShard, ForwardPlan, HotReplicas, IndexHasher, SparseBatch};

/// Materialize each device's resident tables.
pub fn materialize_shards(
    plan: &ForwardPlan,
    spec: crate::EmbeddingTableSpec,
    seed: u64,
) -> Vec<EmbeddingShard> {
    (0..plan.devices.len())
        .into_par_iter()
        .map(|i| EmbeddingShard::materialize(&plan.devices[i].features, spec, seed))
        .collect()
}

/// Where the pooling loop reads a device's embedding rows.
#[derive(Clone, Copy, Debug)]
pub enum Weights<'a> {
    /// The device's materialized tables.
    Shard(&'a EmbeddingShard),
    /// Each feature's init stream ([`EmbeddingShard::init_row`]): a fresh
    /// shard's rows, bit for bit, drawn per lookup with no table held.
    Init(crate::EmbeddingTableSpec),
}

/// Execute one device's lookup + pooling: returns the pooled rows in local
/// bag order (`[n_bags × dim]` flat). This is the computation both backends
/// share; they differ only in where the rows go next.
///
/// Allocating wrapper around [`compute_pooled_rows_into`].
pub fn compute_pooled_rows(
    dp: &DevicePlan,
    plan: &ForwardPlan,
    batch: &SparseBatch,
    shard: &EmbeddingShard,
    seed: u64,
) -> Vec<f32> {
    let mut out = Vec::new();
    compute_pooled_rows_into(dp, plan, batch, Weights::Shard(shard), seed, &mut out);
    out
}

/// [`compute_pooled_rows`] from `weights` into a caller-provided buffer
/// (cleared first), so arena-backed callers pay no per-batch allocation.
///
/// Structure: one parallel chunk per **local feature** (`batch_size × dim`
/// of the output), so the row source and hasher resolve once per feature —
/// no per-call lookup-table vectors — and the per-bag inner loop is a
/// monomorphized fixed-stride pass (see [`crate::kernels`]) the compiler
/// can autovectorize. Writes are disjoint per feature chunk, and per-bag
/// accumulation order is unchanged, so outputs are bit-identical to the
/// historical per-bag loop at every pool width, from either source.
pub fn compute_pooled_rows_into(
    dp: &DevicePlan,
    plan: &ForwardPlan,
    batch: &SparseBatch,
    weights: Weights<'_>,
    seed: u64,
    out: &mut Vec<f32>,
) {
    out.clear();
    out.resize(dp.n_bags * plan.dim, 0.0);
    out.par_chunks_mut(plan.batch_size * plan.dim)
        .enumerate()
        .for_each(|(lf, fout)| {
            let f = dp.features[lf];
            match weights {
                Weights::Shard(shard) => {
                    let hasher = IndexHasher::new(f, shard.spec().rows, seed);
                    pool_feature(dp, plan, batch, lf, hasher, shard.weights(f).data(), fout);
                }
                Weights::Init(spec) => {
                    let hasher = IndexHasher::new(f, spec.rows, seed);
                    let rows = InitStream(f, spec, seed);
                    pool_feature(dp, plan, batch, lf, hasher, &rows, fout);
                }
            }
        });
}

/// One feature's rows, as the pooling loop reads them: row `r` is
/// `scratch.len()` wide, and a source may put it in `scratch`.
trait FeatureRows {
    fn row<'s>(&'s self, r: usize, scratch: &'s mut [f32]) -> &'s [f32];
}

/// A resident table.
impl FeatureRows for [f32] {
    #[inline]
    fn row<'s>(&'s self, r: usize, scratch: &'s mut [f32]) -> &'s [f32] {
        &self[r * scratch.len()..(r + 1) * scratch.len()]
    }
}

/// A feature's init stream: `(feature, spec, seed)`.
struct InitStream(usize, crate::EmbeddingTableSpec, u64);

impl FeatureRows for InitStream {
    #[inline]
    fn row<'s>(&'s self, r: usize, scratch: &'s mut [f32]) -> &'s [f32] {
        EmbeddingShard::init_row(self.0, r, self.1, self.2, scratch);
        scratch
    }
}

/// The pooling loop over local feature `lf`'s chunk of a device's pooled
/// rows, monomorphized per row source: resolved per feature, not per lookup.
fn pool_feature(
    dp: &DevicePlan,
    plan: &ForwardPlan,
    batch: &SparseBatch,
    lf: usize,
    hasher: IndexHasher,
    rows: &(impl FeatureRows + ?Sized),
    fout: &mut [f32],
) {
    let n = plan.batch_size;
    let f = dp.features[lf];
    // This feature's run of `exported_bags` (sorted): walked linearly
    // alongside the sample loop instead of a binary search per bag.
    // Exported bags keep their zeros — every index hit the hot-row cache,
    // so the sample owner computes them from replicas
    // ([`apply_hot_imports`]) and the zeros here are never read.
    let lo = dp.exported_bags.partition_point(|&b| b < lf * n);
    let hi = dp.exported_bags.partition_point(|&b| b < (lf + 1) * n);
    let mut ex = lo;
    let mut scratch = arena::take_f32();
    scratch.resize(plan.dim, 0.0);
    with_pool_kernel!(plan.pooling, K => {
        for (sample, acc) in fout.chunks_exact_mut(plan.dim).enumerate() {
            let bag = lf * n + sample;
            if ex < hi && dp.exported_bags[ex] == bag {
                ex += 1;
                continue;
            }
            let indices = batch.bag(f, sample);
            for (k, &raw) in indices.iter().enumerate() {
                K::fold(acc, rows.row(hasher.row(raw), &mut scratch), k);
            }
            K::finish(acc, indices.len());
        }
    });
    arena::put_f32(scratch);
}

/// The baseline's pack → exchange → unpack pipeline on real data.
///
/// * **pack**: reorder each device's pooled rows destination-major (the
///   contiguous send buffer `all_to_all_single` requires),
/// * **exchange**: the all-to-all data movement itself,
/// * **unpack**: rearrange each device's received source-major buffer into
///   the `[mb, S, dim]` layout the next layer needs — the step the PGAS
///   backend eliminates.
pub fn exchange_and_unpack(plan: &ForwardPlan, pooled: &[Vec<f32>]) -> Vec<Tensor> {
    let n = plan.n_devices;
    let dim = plan.dim;

    // pack: send_buf[src] ordered by (dst, local feature, local sample);
    // per-destination segment sizes follow the (possibly uneven) ceil split.
    // Pack/exchange scratch comes from the batch arena, so steady-state
    // batches reuse the same buffers instead of reallocating them.
    let send_bufs: Vec<Vec<f32>> = (0..plan.devices.len())
        .into_par_iter()
        .map(|src| {
            let dp = &plan.devices[src];
            let mut buf = arena::take_f32();
            buf.reserve(dp.n_bags * dim);
            for dst in 0..n {
                for lf in 0..dp.features.len() {
                    let start = plan.mb_start(dst);
                    for s in start..start + plan.mb_sizes[dst] {
                        let bag = lf * plan.batch_size + s;
                        buf.extend_from_slice(&pooled[dp.device][bag * dim..(bag + 1) * dim]);
                    }
                }
            }
            buf
        })
        .collect();

    // exchange: chunk `dst` of `send_bufs[src]` lands at slot `src` of
    // device `dst`'s receive buffer.
    let recv_bufs: Vec<Vec<f32>> = (0..n)
        .into_par_iter()
        .map(|dst| {
            let mut buf = arena::take_f32();
            for (src, dp) in plan.devices.iter().enumerate() {
                let chunk = dp.features.len() * plan.mb_sizes[dst] * dim;
                let offset: usize = (0..dst)
                    .map(|d| dp.features.len() * plan.mb_sizes[d] * dim)
                    .sum();
                buf.extend_from_slice(&send_bufs[src][offset..offset + chunk]);
            }
            buf
        })
        .collect();
    for buf in send_bufs {
        arena::put_f32(buf);
    }

    // unpack: source-major → [mb, S, dim].
    let outs: Vec<Tensor> = (0..n)
        .into_par_iter()
        .map(|dev| {
            let mb = plan.mb_sizes[dev];
            let mut out = Tensor::zeros(&[mb, plan.n_features * dim]);
            let mut off = 0usize;
            for src_dp in &plan.devices {
                for &f in &src_dp.features {
                    for s in 0..mb {
                        let row = &recv_bufs[dev][off..off + dim];
                        out.row_mut(s)[f * dim..(f + 1) * dim].copy_from_slice(row);
                        off += dim;
                    }
                }
            }
            out
        })
        .collect();
    for buf in recv_bufs {
        arena::put_f32(buf);
    }
    outs
}

/// The PGAS backend's functional path: each pooled row is written one-sided
/// straight into the owning device's output segment on the symmetric heap —
/// no pack, no unpack.
pub fn scatter_via_symmetric_heap(plan: &ForwardPlan, pooled: &[Vec<f32>]) -> Vec<Tensor> {
    let dim = plan.dim;
    let mut heap = pgas_rt::SymmetricHeap::new(plan.n_devices);
    let out_seg = heap.alloc(plan.output_elems());
    // Parallel over destination PEs: each PE's segment is a disjoint buffer,
    // and `output_index` assigns every (feature, sample) a unique slot on
    // exactly one PE, so each destination can scan all sources and copy its
    // own rows with no cross-PE writes — the values land exactly where the
    // serial one-sided `put` loop would place them.
    heap.for_each_segment_mut(out_seg, |pe, seg| {
        for dp in &plan.devices {
            for bag in 0..dp.n_bags {
                let (f, s) = dp.bag_coords(bag, plan.batch_size);
                let (dst, idx) = plan.output_index(f, s);
                if dst == pe {
                    seg[idx..idx + dim]
                        .copy_from_slice(&pooled[dp.device][bag * dim..(bag + 1) * dim]);
                }
            }
        }
    });
    (0..plan.n_devices)
        .into_par_iter()
        .map(|dev| {
            // Symmetric segments are stride-sized; only the device's actual
            // mini-batch portion is meaningful.
            let used = plan.output_elems_on(dev);
            Tensor::from_vec(
                heap.segment(out_seg, dev)[..used].to_vec(),
                &[plan.mb_sizes[dev], plan.n_features * dim],
            )
        })
        .collect()
}

/// Compute each device's `imported_bags` from its hot-row replicas and
/// overwrite the corresponding output rows — the functional flip side of the
/// bag export in [`crate::HotCachePlanner::annotate`]. Replicas are
/// bit-identical to the home tables and the per-bag accumulation order
/// matches [`compute_pooled_rows`], so cached outputs are bit-identical to
/// uncached ones. No-op on uncached plans (no imported bags).
pub fn apply_hot_imports(
    plan: &ForwardPlan,
    batch: &SparseBatch,
    replicas: &HotReplicas,
    table_rows: usize,
    outputs: &mut [Tensor],
    seed: u64,
) {
    let dim = plan.dim;
    outputs
        .par_chunks_mut(1)
        .enumerate()
        .for_each(|(dev, chunk)| {
            let out = &mut chunk[0];
            let mut acc = arena::take_f32();
            acc.resize(dim, 0.0);
            let mut hasher: Option<(usize, IndexHasher)> = None;
            with_pool_kernel!(plan.pooling, K => {
                for ib in &plan.devices[dev].imported_bags {
                    // Imported bags are (feature, sample)-sorted: reuse the
                    // hasher across each feature's run.
                    let h = match hasher {
                        Some((f, h)) if f == ib.feature => h,
                        _ => {
                            let h = IndexHasher::new(ib.feature, table_rows, seed);
                            hasher = Some((ib.feature, h));
                            h
                        }
                    };
                    acc.fill(0.0);
                    let indices = batch.bag(ib.feature, ib.sample);
                    debug_assert_eq!(indices.len(), ib.lookups as usize);
                    for (k, &raw) in indices.iter().enumerate() {
                        K::fold(&mut acc, replicas.row(ib.feature, h.row(raw)), k);
                    }
                    K::finish(&mut acc, indices.len());
                    let (dst, idx) = plan.output_index(ib.feature, ib.sample);
                    debug_assert_eq!(dst, dev, "imported bag must belong to its owner");
                    let width = plan.n_features * dim;
                    out.row_mut(idx / width)[idx % width..idx % width + dim]
                        .copy_from_slice(&acc);
                }
            });
            arena::put_f32(acc);
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_forward;
    use crate::{
        EmbLayerConfig, EmbeddingTableSpec, ForwardPlan, IndexDistribution, PoolingOp,
        SparseBatchSpec,
    };

    fn setup(
        n_dev: usize,
        pooling: PoolingOp,
    ) -> (ForwardPlan, SparseBatch, Vec<EmbeddingShard>, u64) {
        let seed = 33;
        let spec = SparseBatchSpec {
            batch_size: 12,
            n_features: 6,
            pooling_min: 0,
            pooling_max: 5,
            index_space: 200,
            distribution: IndexDistribution::Uniform,
        };
        let batch = SparseBatch::generate(&spec, seed);
        let sharding = crate::Sharding::table_wise_block(6, n_dev);
        let plan = ForwardPlan::build(&batch, &sharding, 4, pooling, 5);
        let tspec = EmbeddingTableSpec { rows: 30, dim: 4 };
        let shards = materialize_shards(&plan, tspec, seed);
        (plan, batch, shards, seed)
    }

    fn pooled_all(
        plan: &ForwardPlan,
        batch: &SparseBatch,
        shards: &[EmbeddingShard],
        seed: u64,
    ) -> Vec<Vec<f32>> {
        plan.devices
            .iter()
            .map(|dp| compute_pooled_rows(dp, plan, batch, &shards[dp.device], seed))
            .collect()
    }

    #[test]
    fn baseline_pipeline_matches_reference() {
        for n_dev in [1, 2, 3] {
            let (plan, batch, shards, seed) = setup(n_dev, PoolingOp::Sum);
            let pooled = pooled_all(&plan, &batch, &shards, seed);
            let out = exchange_and_unpack(&plan, &pooled);
            let reference = reference_forward(
                &batch,
                EmbeddingTableSpec { rows: 30, dim: 4 },
                PoolingOp::Sum,
                n_dev,
                seed,
            );
            for (a, b) in out.iter().zip(&reference) {
                assert!(a.allclose(b, 1e-5), "n_dev={n_dev}");
            }
        }
    }

    #[test]
    fn pgas_scatter_matches_reference() {
        for n_dev in [1, 2, 3] {
            let (plan, batch, shards, seed) = setup(n_dev, PoolingOp::Sum);
            let pooled = pooled_all(&plan, &batch, &shards, seed);
            let out = scatter_via_symmetric_heap(&plan, &pooled);
            let reference = reference_forward(
                &batch,
                EmbeddingTableSpec { rows: 30, dim: 4 },
                PoolingOp::Sum,
                n_dev,
                seed,
            );
            for (a, b) in out.iter().zip(&reference) {
                assert!(a.allclose(b, 1e-5), "n_dev={n_dev}");
            }
        }
    }

    #[test]
    fn both_paths_agree_for_all_pooling_ops() {
        for op in [PoolingOp::Sum, PoolingOp::Mean, PoolingOp::Max] {
            let (plan, batch, shards, seed) = setup(2, op);
            let pooled = pooled_all(&plan, &batch, &shards, seed);
            let a = exchange_and_unpack(&plan, &pooled);
            let b = scatter_via_symmetric_heap(&plan, &pooled);
            for (x, y) in a.iter().zip(&b) {
                assert!(x.allclose(y, 0.0), "op {op:?} paths must agree exactly");
            }
        }
    }

    #[test]
    fn scaled_config_round_trip() {
        // End-to-end on a scaled-down paper config.
        let cfg = EmbLayerConfig::paper_weak_scaling(2).scaled_down(1024);
        let batch = SparseBatch::generate(&cfg.batch_spec(), 1);
        let plan = ForwardPlan::build(
            &batch,
            &cfg.sharding(),
            cfg.dim,
            cfg.pooling,
            cfg.bags_per_block,
        );
        let shards = materialize_shards(&plan, cfg.table_spec(), 1);
        let pooled = pooled_all(&plan, &batch, &shards, 1);
        let a = exchange_and_unpack(&plan, &pooled);
        let b = scatter_via_symmetric_heap(&plan, &pooled);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.allclose(y, 0.0));
        }
    }
}
