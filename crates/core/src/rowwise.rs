//! Row-wise sharded forward pass (the paper's §V "partitioning by rows"
//! discussion, after RecShard).
//!
//! Under row-wise sharding every table's rows are striped across all
//! devices (`row % G`). The CPU partitioner routes each *index* to the
//! device owning its hashed row, every device computes **partial** pooled
//! sums for *every* bag of the full batch from its local rows, and the
//! partials are then combined at each bag's mini-batch owner:
//!
//! * **baseline**: exchange the partial rows with a collective (a
//!   reduce-scatter over the batch dimension), then a local reduce + unpack
//!   kernel;
//! * **PGAS**: each partial row is pushed with a one-sided **atomic add**
//!   straight into the owner's output buffer as soon as its block retires —
//!   the accumulation happens in remote memory, no reduce kernel at all.
//!
//! Compared to table-wise sharding this moves the same wire volume but
//! (1) pays G× more output-row writes (every bag has up to G partials) and
//! (2) makes the CPU input partitioner per-index instead of per-table —
//! the §V trade-off quantified by `reproduce ablation-sharding`.

use desim::{Dur, SimTime};
use gpusim::{GpuSpec, KernelShape, Machine};
use pgas_rt::{OneSided, PgasConfig, SymmetricHeap};
use simccl::{all_to_all_timed, CollectiveConfig};
use simtensor::Tensor;

use crate::backend::{BackendResult, ExecMode};
use crate::{
    EmbLayerConfig, EmbeddingTableSpec, IndexHasher, PoolingOp, RunReport, SparseBatch,
    TimeBreakdown,
};

/// Which device owns row `row` of any table under a `G`-way stripe.
#[inline]
pub fn row_owner(row: usize, n_devices: usize) -> usize {
    row % n_devices
}

/// Functional row-wise forward: route, partially pool, combine. Returns the
/// same `[mb, S·d]` per-device outputs as the table-wise backends, so the
/// result is directly checkable against [`crate::reference`].
///
/// Supports Sum and Mean pooling (Max also decomposes, but a device that
/// holds no rows of a bag must contribute the identity; handled here too).
pub fn rowwise_functional_forward(
    batch: &SparseBatch,
    spec: EmbeddingTableSpec,
    pooling: PoolingOp,
    n_devices: usize,
    seed: u64,
) -> Vec<Tensor> {
    let n = batch.batch_size();
    let s_total = batch.n_features();
    let mb = n.div_ceil(n_devices);
    let dim = spec.dim;

    // Partial sums and contribution counts per device, full batch.
    // partial[dev] is [n * s_total, dim]; counts[dev][bag] = rows folded.
    let mut partial: Vec<Vec<f32>> = vec![vec![0.0; n * s_total * dim]; n_devices];
    let mut counts: Vec<Vec<u32>> = vec![vec![0; n * s_total]; n_devices];
    for f in 0..s_total {
        let weights = crate::EmbeddingShard::init_table(f, spec, seed);
        let hasher = IndexHasher::new(f, spec.rows, seed);
        for s in 0..n {
            let bag = f * n + s;
            for &raw in batch.bag(f, s) {
                let row = hasher.row(raw);
                let dev = row_owner(row, n_devices);
                let count = counts[dev][bag] + 1;
                counts[dev][bag] = count;
                let acc = &mut partial[dev][bag * dim..(bag + 1) * dim];
                pooling.accumulate(acc, weights.row(row), count as usize);
            }
        }
    }

    // Combine partials at each bag's mini-batch owner through the symmetric
    // heap (the PGAS atomic-add path; the baseline's reduce produces the
    // same sums — Sum/Mean are associative, Max is handled separately).
    let mut heap = SymmetricHeap::new(n_devices);
    let seg = heap.alloc(mb * s_total * dim);
    let mut max_init: Vec<Vec<bool>> = vec![vec![false; mb * s_total]; n_devices];
    for dev in 0..n_devices {
        for f in 0..s_total {
            for s in 0..n {
                let bag = f * n + s;
                if counts[dev][bag] == 0 {
                    continue;
                }
                let owner = s / mb;
                let local_s = s % mb;
                let out_idx = (local_s * s_total + f) * dim;
                let row = &partial[dev][bag * dim..(bag + 1) * dim];
                match pooling {
                    PoolingOp::Sum | PoolingOp::Mean => heap.atomic_add(seg, out_idx, row, owner),
                    PoolingOp::Max => {
                        let slot = local_s * s_total + f;
                        if !max_init[owner][slot] {
                            heap.put(seg, out_idx, row, owner);
                            max_init[owner][slot] = true;
                        } else {
                            let cur = heap.get(seg, out_idx, dim, owner).to_vec();
                            let merged: Vec<f32> =
                                cur.iter().zip(row).map(|(a, b)| a.max(*b)).collect();
                            heap.put(seg, out_idx, &merged, owner);
                        }
                    }
                }
            }
        }
    }

    // Mean pooling: divide by the *global* bag size.
    (0..n_devices)
        .map(|dev| {
            let size = n.saturating_sub(dev * mb).min(mb);
            let mut out = heap.segment(seg, dev)[..size * s_total * dim].to_vec();
            if pooling == PoolingOp::Mean {
                for local_s in 0..size {
                    for f in 0..s_total {
                        let total = batch.pooling_factor(f, dev * mb + local_s);
                        if total > 0 {
                            let base = (local_s * s_total + f) * dim;
                            // accumulate() summed raw rows; rescale once.
                            for x in &mut out[base..base + dim] {
                                *x /= total as f32;
                            }
                        }
                    }
                }
            }
            Tensor::from_vec(out, &[size, s_total * dim])
        })
        .collect()
}

fn rowwise_lookup_durations(cfg: &EmbLayerConfig, spec: &GpuSpec) -> (usize, Vec<Dur>) {
    // Every device processes ALL bags but only ~1/G of the lookups, and
    // writes one partial row per bag.
    let n_bags = cfg.batch_size * cfg.n_features;
    let blocks = n_bags.div_ceil(cfg.bags_per_block).max(1);
    let row_bytes = (cfg.dim * 4) as u64;
    let mean_pool = (cfg.pooling_min + cfg.pooling_max) as f64 / 2.0;
    let lookups_per_block =
        (cfg.bags_per_block as f64 * mean_pool / cfg.n_gpus as f64).ceil() as u64;
    let bytes = lookups_per_block * (row_bytes + 8) + cfg.bags_per_block as u64 * row_bytes;
    let resident = KernelShape::effective_resident(blocks as u64, spec.max_resident_blocks());
    let shape = KernelShape {
        blocks: 1,
        bytes_per_block: (bytes as f64 / crate::backend::GATHER_EFFICIENCY).round() as u64,
        flops_per_block: 0,
        dependent_accesses: 8,
    };
    let tau = shape.block_time(spec, resident);
    (blocks, vec![tau; blocks])
}

/// Timed row-wise baseline: partial-lookup kernel → collective exchange of
/// partial rows → local reduce + unpack → sync.
pub fn rowwise_baseline_forward(
    machine: &mut Machine,
    cfg: &EmbLayerConfig,
    collectives: &CollectiveConfig,
    mode: ExecMode,
) -> BackendResult {
    let n = machine.n_gpus();
    assert_eq!(n, cfg.n_gpus, "machine/config GPU count mismatch");
    let row_bytes = (cfg.dim * 4) as u64;
    let mb = cfg.mb_size();
    let (_, durs) = rowwise_lookup_durations(cfg, &machine.spec(0).clone());

    let mut breakdown = TimeBreakdown::default();
    let mut batch_start = SimTime::ZERO;
    for _ in 0..cfg.n_batches {
        let mut k_end = vec![SimTime::ZERO; n];
        for (d, ke) in k_end.iter_mut().enumerate() {
            *ke = machine
                .run_kernel_varied(d, &durs, batch_start)
                .interval
                .end;
        }
        let k_max = machine.barrier(&k_end);

        // Every device holds partials for the FULL batch; it ships the
        // partial rows of every remote mini-batch.
        let bytes: Vec<Vec<u64>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|g| {
                        let g_mb = cfg.batch_size.saturating_sub(g * mb).min(mb);
                        (g_mb * cfg.n_features) as u64 * row_bytes
                    })
                    .collect()
            })
            .collect();
        let work = all_to_all_timed(machine, collectives, &bytes, &k_end);
        let c_end: Vec<SimTime> = (0..n).map(|d| work.done_at(d)).collect();
        let c_max = machine.barrier(&c_end).max(k_max);

        // Reduce G partials per output row, then unpack — both touch the
        // received G×mb×S rows.
        let mut end = vec![SimTime::ZERO; n];
        for (d, e) in end.iter_mut().enumerate() {
            let waited = work.wait(machine, d, k_end[d]);
            let d_mb = cfg.batch_size.saturating_sub(d * mb).min(mb);
            let reduce_bytes = (n * d_mb * cfg.n_features) as u64 * row_bytes
                + (d_mb * cfg.n_features) as u64 * row_bytes;
            let shape =
                KernelShape::memory_bound(reduce_bytes.div_ceil(128 << 10).max(1), 128 << 10);
            let r = machine.run_kernel(d, shape, waited);
            *e = machine.stream_sync(d, r.interval.end);
        }
        let batch_end = machine.barrier(&end);

        breakdown.accumulate(&TimeBreakdown {
            compute: k_max - batch_start,
            communication: c_max - k_max,
            sync_unpack: batch_end - c_max,
        });
        batch_start = batch_end;
    }

    finish(machine, cfg, mode, breakdown)
}

/// Timed row-wise PGAS: the fused kernel pushes each partial row as a
/// one-sided **atomic add** into the owner's output while executing;
/// completion is quiet + barrier. No reduce kernel, no unpack.
pub fn rowwise_pgas_forward(
    machine: &mut Machine,
    cfg: &EmbLayerConfig,
    pgas: PgasConfig,
    mode: ExecMode,
) -> BackendResult {
    let n = machine.n_gpus();
    assert_eq!(n, cfg.n_gpus, "machine/config GPU count mismatch");
    let row_bytes = (cfg.dim * 4) as u32;
    let mb = cfg.mb_size();
    let (blocks, durs) = rowwise_lookup_durations(cfg, &machine.spec(0).clone());

    let mut breakdown = TimeBreakdown::default();
    let mut batch_start = SimTime::ZERO;
    for _ in 0..cfg.n_batches {
        let mut k_end = vec![SimTime::ZERO; n];
        let mut quiet = vec![SimTime::ZERO; n];
        for d in 0..n {
            let run = machine.run_kernel_varied(d, &durs, batch_start);
            k_end[d] = run.interval.end;
            let waves = (blocks as u64).div_ceil(run.resident.max(1) as u64);
            let subs = (32 / waves.max(1)).clamp(1, 32);
            // Bags are feature-major over the FULL batch: a block's bags
            // belong to sample range [first % N, ...]; its partial rows for
            // remote-owned samples are atomically pushed.
            let mut releases: std::collections::BTreeMap<(SimTime, usize), u64> =
                std::collections::BTreeMap::new();
            let n_bags = cfg.batch_size * cfg.n_features;
            for (b, (&endt, &tau)) in run.block_ends.iter().zip(&durs).enumerate() {
                let first = b * cfg.bags_per_block;
                let count = cfg.bags_per_block.min(n_bags - first);
                let mut per_owner = vec![0u64; n];
                for bag in first..first + count {
                    let s = bag % cfg.batch_size;
                    per_owner[(s / mb).min(n - 1)] += 1;
                }
                for (owner, rows) in per_owner.iter().enumerate() {
                    if owner == d || *rows == 0 {
                        continue;
                    }
                    let k = subs.min(*rows);
                    let (base, rem) = (*rows / k, *rows % k);
                    for sub in 0..k {
                        let part = base + u64::from(sub < rem);
                        if part > 0 {
                            let ready = endt - tau * (k - 1 - sub) * (1.0 / k as f64);
                            *releases.entry((ready, owner)).or_default() += part;
                        }
                    }
                }
            }
            let mut os = OneSided::with_config(machine, pgas);
            for ((ready, dst), rows) in releases {
                os.atomic_add_rows_nbi(d, dst, rows, row_bytes, ready);
            }
            quiet[d] = os.quiet(d, run.interval.end);
        }
        let k_max = machine.barrier(&k_end);
        let mut os = OneSided::with_config(machine, pgas);
        let bar = os.barrier_all(&quiet);
        let end: Vec<SimTime> = (0..n).map(|d| machine.stream_sync(d, bar)).collect();
        let batch_end = machine.barrier(&end);

        breakdown.accumulate(&TimeBreakdown {
            compute: k_max - batch_start,
            communication: Dur::ZERO,
            sync_unpack: batch_end - k_max,
        });
        batch_start = batch_end;
    }

    finish(machine, cfg, mode, breakdown)
}

fn finish(
    machine: &Machine,
    cfg: &EmbLayerConfig,
    mode: ExecMode,
    breakdown: TimeBreakdown,
) -> BackendResult {
    let outputs = match mode {
        ExecMode::Timing => None,
        ExecMode::Functional => {
            let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(cfg.n_batches - 1));
            Some(rowwise_functional_forward(
                &batch,
                cfg.table_spec(),
                cfg.pooling,
                cfg.n_gpus,
                cfg.seed,
            ))
        }
    };
    BackendResult {
        report: RunReport::new(machine, cfg.n_batches, breakdown),
        outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_forward;
    use gpusim::MachineConfig;

    fn tiny(gpus: usize) -> EmbLayerConfig {
        let mut c = EmbLayerConfig::paper_weak_scaling(gpus).scaled_down(512);
        c.n_batches = 2;
        c.distinct_batches = 1;
        c
    }

    #[test]
    fn row_owner_stripes() {
        assert_eq!(row_owner(0, 4), 0);
        assert_eq!(row_owner(5, 4), 1);
        assert_eq!(row_owner(7, 1), 0);
    }

    #[test]
    fn functional_matches_reference_all_poolings() {
        for op in [PoolingOp::Sum, PoolingOp::Mean, PoolingOp::Max] {
            for gpus in [1, 2, 3] {
                let mut cfg = tiny(gpus);
                cfg.pooling = op;
                cfg.pooling_min = 0; // exercise NULL bags too
                let batch = SparseBatch::generate(&cfg.batch_spec(), 7);
                let got = rowwise_functional_forward(&batch, cfg.table_spec(), op, gpus, cfg.seed);
                let expect = reference_forward(&batch, cfg.table_spec(), op, gpus, cfg.seed);
                for (a, b) in got.iter().zip(&expect) {
                    assert!(
                        a.allclose(b, 1e-4),
                        "row-wise mismatch: op {op:?}, gpus {gpus}"
                    );
                }
            }
        }
    }

    #[test]
    fn timed_backends_run_and_pgas_wins() {
        let cfg = tiny(2);
        let mut mb = Machine::new(MachineConfig::dgx_v100(2));
        let b = rowwise_baseline_forward(
            &mut mb,
            &cfg,
            &CollectiveConfig::default(),
            ExecMode::Timing,
        );
        let mut mp = Machine::new(MachineConfig::dgx_v100(2));
        let p = rowwise_pgas_forward(&mut mp, &cfg, PgasConfig::default(), ExecMode::Timing);
        assert!(!b.report.breakdown.compute.is_zero());
        assert!(
            p.report.total < b.report.total,
            "pgas {} vs baseline {}",
            p.report.total,
            b.report.total
        );
    }

    #[test]
    fn rowwise_moves_same_wire_volume_as_tablewise() {
        use crate::backend::{BaselineBackend, RetrievalBackend};
        let cfg = tiny(2);
        let mut mrw = Machine::new(MachineConfig::dgx_v100(2));
        let rw = rowwise_baseline_forward(
            &mut mrw,
            &cfg,
            &CollectiveConfig::default(),
            ExecMode::Timing,
        );
        let mut mtw = Machine::new(MachineConfig::dgx_v100(2));
        let tw = BaselineBackend::new().run(&mut mtw, &cfg, ExecMode::Timing);
        // Partial rows for remote minibatches == pooled rows for remote
        // minibatches when every device holds partials for all features.
        assert_eq!(
            rw.report.traffic.payload_bytes,
            tw.report.traffic.payload_bytes * 2,
            "row-wise ships G× the rows per remote bag (G = 2 here)"
        );
    }

    #[test]
    fn functional_output_through_timed_entry_points() {
        let cfg = tiny(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let res = rowwise_pgas_forward(&mut m, &cfg, PgasConfig::default(), ExecMode::Functional);
        let outs = res.outputs.unwrap();
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(cfg.n_batches - 1));
        let expect = reference_forward(&batch, cfg.table_spec(), cfg.pooling, 2, cfg.seed);
        for (a, b) in outs.iter().zip(&expect) {
            assert!(a.allclose(b, 1e-4));
        }
    }
}
