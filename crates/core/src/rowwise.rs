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
//!   straight into the owner's output buffer while its block runs — the
//!   accumulation happens in remote memory, no reduce kernel at all.
//!
//! Compared to table-wise sharding this moves the same wire volume but
//! (1) pays G× more output-row writes (every bag has up to G partials) and
//! (2) makes the CPU input partitioner per-index instead of per-table —
//! the §V trade-off quantified by `reproduce ablation-sharding`.
//!
//! Both timed entry points are the table-wise forward's executor pointed
//! elsewhere: they build the pass's [`PlannedBatch`] and chain
//! [`crate::backend::execute_batch`] over it, so faults, deadlines, blame,
//! telemetry and the plan's schedule store reach them as they reach the
//! paper's two backends.

use desim::Dur;
use gpusim::{KernelShape, Machine};
use pgas_rt::{PgasConfig, SymmetricHeap};
use simccl::CollectiveConfig;
use simtensor::Tensor;

use crate::backend::{
    execute_batch, run_batches, BackendResult, Emission, Exchange, ExecMode, Pass, PlannedBatch,
    Tail,
};
use crate::{
    EmbLayerConfig, EmbeddingTableSpec, ForwardPlan, IndexHasher, PoolingOp, Sharding, SparseBatch,
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
    let mut drawn = vec![0.0; dim];
    for f in 0..s_total {
        let hasher = IndexHasher::new(f, spec.rows, seed);
        for s in 0..n {
            let bag = f * n + s;
            for &raw in batch.bag(f, s) {
                let row = hasher.row(raw);
                let dev = row_owner(row, n_devices);
                let count = counts[dev][bag] + 1;
                counts[dev][bag] = count;
                let acc = &mut partial[dev][bag * dim..(bag + 1) * dim];
                crate::EmbeddingShard::init_row(f, row, spec, seed, &mut drawn);
                pooling.accumulate(acc, &drawn, count as usize);
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

/// The row-wise pass as a plan: [`ForwardPlan::build`] under
/// [`Sharding::RowWise`] says who sends what (every device, a partial row of
/// each of the `N × S` bags to the sample's owner, streamed while the block
/// runs like the table-wise forward); a block costs the same everywhere —
/// every device processes all bags but reads only about `1/G` of the
/// lookups, and writes one partial row per bag — and a collective's wait is
/// followed by the reduce of the `G` partials per output row plus the
/// unpack, which both touch the received `G × mb × S` rows. The plan is the
/// same for every batch of `cfg`: nothing in it depends on the indices.
pub(crate) fn rowwise_planned(machine: &Machine, cfg: &EmbLayerConfig) -> PlannedBatch {
    let n = cfg.n_gpus;
    let batch = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.batch_seed(0));
    let sharding = Sharding::RowWise { n_devices: n };
    let plan = ForwardPlan::build(&batch, &sharding, cfg.dim, cfg.pooling, cfg.bags_per_block);
    let row_bytes = u64::from(plan.row_bytes());
    let mean_pool = (cfg.pooling_min + cfg.pooling_max) as f64 / 2.0;
    let lookups_per_block = (cfg.bags_per_block as f64 * mean_pool / n as f64).ceil() as u64;
    let bytes = lookups_per_block * (row_bytes + 8) + cfg.bags_per_block as u64 * row_bytes;
    let lookup = |blocks: usize| KernelShape {
        blocks: blocks as u64,
        bytes_per_block: (bytes as f64 / crate::backend::GATHER_EFFICIENCY).round() as u64,
        flops_per_block: 0,
        dependent_accesses: 8,
    };
    let durations = (plan.devices.iter())
        .map(|dp| Tail::of(lookup(dp.blocks.len()), machine.spec(dp.device)).durations())
        .collect();
    let reduce = |d: usize| {
        let rows = ((n + 1) * plan.mb_sizes[d] * plan.n_features) as u64;
        Tail::chunked(rows * row_bytes, machine.spec(d))
    };
    let pass = Pass {
        after_collective: (0..n).map(reduce).collect(),
        after_exchange: Vec::new(),
        emission: Emission::Streamed,
        collective_syncs: Dur::ZERO,
    };
    PlannedBatch::with_pass(plan.into(), durations, |_| pass)
}

/// Timed row-wise baseline: partial-lookup kernel → collective exchange of
/// partial rows → local reduce + unpack → sync.
pub fn rowwise_baseline_forward(
    machine: &mut Machine,
    cfg: &EmbLayerConfig,
    collectives: &CollectiveConfig,
    mode: ExecMode,
) -> BackendResult {
    rowwise_forward(machine, cfg, Exchange::Collective(*collectives), mode)
}

/// Timed row-wise PGAS: the fused kernel pushes each partial row as a
/// one-sided **atomic add** into the owner's output while executing (a put's
/// wire footprint); completion is that of every one-sided batch. No reduce
/// kernel, no unpack.
pub fn rowwise_pgas_forward(
    machine: &mut Machine,
    cfg: &EmbLayerConfig,
    pgas: PgasConfig,
    mode: ExecMode,
) -> BackendResult {
    rowwise_forward(machine, cfg, Exchange::OneSided(pgas), mode)
}

/// `cfg.n_batches` executions of the row-wise plan over `exchange`, and in
/// functional mode the final batch's outputs.
fn rowwise_forward(
    machine: &mut Machine,
    cfg: &EmbLayerConfig,
    exchange: Exchange,
    mode: ExecMode,
) -> BackendResult {
    let n = machine.n_gpus();
    assert_eq!(n, cfg.n_gpus, "machine/config GPU count mismatch");
    let planned = rowwise_planned(machine, cfg);
    let report = run_batches(machine, &[planned], cfg.n_batches, |m, pb, at| {
        execute_batch(m, &exchange, pb, at, None, None)
    });
    let outputs = (mode == ExecMode::Functional).then(|| {
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(cfg.n_batches - 1));
        rowwise_functional_forward(&batch, cfg.table_spec(), cfg.pooling, cfg.n_gpus, cfg.seed)
    });
    BackendResult { report, outputs }
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
        use crate::backend::Backend;
        let cfg = tiny(2);
        let mut mrw = Machine::new(MachineConfig::dgx_v100(2));
        let rw = rowwise_baseline_forward(
            &mut mrw,
            &cfg,
            &CollectiveConfig::default(),
            ExecMode::Timing,
        );
        let mut mtw = Machine::new(MachineConfig::dgx_v100(2));
        let tw = Backend::baseline().run(&mut mtw, &cfg, ExecMode::Timing);
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
