//! The EMB **backward pass** — the paper's §V future-work extension.
//!
//! During backpropagation the gradient of each pooled output row must flow
//! back to the embedding rows its bag touched, on the GPU that owns the
//! table. The communication direction reverses: mini-batch owners hold the
//! upstream gradients, table owners need them.
//!
//! * **Baseline**: the gradients are exchanged with rounds of collective
//!   calls (the paper describes shifting embeddings ring-style with a
//!   synchronization per round), unpacked, then scatter-added into the
//!   tables.
//! * **PGAS**: each device's gradient kernel pushes every bag-gradient row
//!   one-sided into a symmetric staging buffer on the owner **as soon as it
//!   is computed** (remote atomic adds), overlapping the exchange with the
//!   gradient computation and skipping the unpack — once every PE's stores
//!   are fenced, owners scatter-add locally.
//!
//! Both are the forward pass's executor with the direction reversed: the
//! forward plan, transposed, says who sends what, the pass says which
//! kernels surround the exchange, and [`crate::backend::execute_batch`] runs
//! it — with the faults, deadlines, blame, telemetry and schedule store of
//! the paper's two backends.
//!
//! Functionally both produce identical per-table gradients, verified against
//! a serial reference. Only [`PoolingOp::Sum`] and [`PoolingOp::Mean`] have
//! well-defined dense bag gradients (Max would need recorded argmaxes).

use std::sync::Arc;

use gpusim::{KernelShape, Machine};
use pgas_rt::PgasConfig;
use simccl::{Algorithm, CollectiveConfig};
use simtensor::Tensor;

use crate::backend::{
    execute_batch, prepare_batches, run_batches, Emission, Exchange, ExecMode, Pass, PlannedBatch,
    Tail,
};
use crate::{
    DevicePlan, EmbLayerConfig, EmbeddingShard, ForwardPlan, IndexHasher, PoolingOp, RunReport,
    SparseBatch,
};

/// Result of a backward run.
#[derive(Clone, Debug)]
pub struct BackwardResult {
    /// Accumulated timing over all batches.
    pub report: RunReport,
    /// Per device, per local table: the weight gradients
    /// (functional mode only).
    pub grads: Option<Vec<Vec<Tensor>>>,
}

/// Deterministic synthetic upstream gradient for `(feature, sample, k)` —
/// what the interaction layer would hand back.
fn upstream_grad(feature: usize, sample: usize, k: usize) -> f32 {
    // Small, varied, exactly representable values.
    let h = (feature * 31 + sample * 7 + k * 3) % 13;
    (h as f32 - 6.0) * 0.125
}

fn check_pooling(p: PoolingOp) {
    assert!(
        matches!(p, PoolingOp::Sum | PoolingOp::Mean),
        "backward supports Sum/Mean pooling only"
    );
}

/// Serial reference: gradients of every feature's table under Sum/Mean
/// pooling with the synthetic upstream gradient.
pub fn reference_backward(
    batch: &SparseBatch,
    spec: crate::EmbeddingTableSpec,
    pooling: PoolingOp,
    seed: u64,
) -> Vec<Tensor> {
    check_pooling(pooling);
    (0..batch.n_features())
        .map(|f| {
            let hasher = IndexHasher::new(f, spec.rows, seed);
            let mut grad = Tensor::zeros(&[spec.rows, spec.dim]);
            for s in 0..batch.batch_size() {
                let bag = batch.bag(f, s);
                if bag.is_empty() {
                    continue;
                }
                let scale = match pooling {
                    PoolingOp::Mean => 1.0 / bag.len() as f32,
                    _ => 1.0,
                };
                for &raw in bag {
                    let row = grad.row_mut(hasher.row(raw));
                    for (k, g) in row.iter_mut().enumerate() {
                        *g += scale * upstream_grad(f, s, k);
                    }
                }
            }
            grad
        })
        .collect()
}

/// Shared scatter-add kernel cost: every index read-modify-writes one table
/// row, plus streaming the staged gradient rows in.
fn scatter_add_shape(lookups: u64, staged_rows: u64, row_bytes: u64) -> KernelShape {
    let bytes = lookups * 2 * row_bytes + staged_rows * row_bytes;
    KernelShape {
        blocks: bytes.div_ceil(128 << 10).max(1),
        bytes_per_block: (128 << 10).min(bytes.max(1)),
        flops_per_block: 0,
        dependent_accesses: 8,
    }
}

/// Functionally route bag gradients to owners and scatter-add, producing
/// per-device per-local-table gradients. Identical math for both schemes.
fn functional_grads(
    plan: &ForwardPlan,
    batch: &SparseBatch,
    cfg: &EmbLayerConfig,
) -> Vec<Vec<Tensor>> {
    let spec = cfg.table_spec();
    plan.devices
        .iter()
        .map(|dp| {
            dp.features
                .iter()
                .map(|&f| {
                    let hasher = IndexHasher::new(f, spec.rows, cfg.seed);
                    let mut grad = Tensor::zeros(&[spec.rows, spec.dim]);
                    for s in 0..batch.batch_size() {
                        let bag = batch.bag(f, s);
                        if bag.is_empty() {
                            continue;
                        }
                        let scale = match plan.pooling {
                            PoolingOp::Mean => 1.0 / bag.len() as f32,
                            _ => 1.0,
                        };
                        for &raw in bag {
                            let row = grad.row_mut(hasher.row(raw));
                            for (k, g) in row.iter_mut().enumerate() {
                                *g += scale * upstream_grad(f, s, k);
                            }
                        }
                    }
                    grad
                })
                .collect()
        })
        .collect()
}

/// Baseline backward: ring collective rounds → sync → unpack + scatter-add.
pub fn baseline_backward(
    machine: &mut Machine,
    cfg: &EmbLayerConfig,
    collectives: &CollectiveConfig,
    mode: ExecMode,
) -> BackwardResult {
    // The paper's described scheme shifts gradients around the ring with a
    // synchronization per round.
    let ring = collectives.with_algorithm(Algorithm::Ring);
    backward(machine, cfg, Exchange::Collective(ring), mode)
}

/// PGAS backward: fused gradient kernel with one-sided atomic pushes →
/// completion fences → local scatter-add.
pub fn pgas_backward(
    machine: &mut Machine,
    cfg: &EmbLayerConfig,
    pgas: PgasConfig,
    mode: ExecMode,
) -> BackwardResult {
    backward(machine, cfg, Exchange::OneSided(pgas), mode)
}

/// `cfg.n_batches` executions of the backward plans of `cfg`'s batches over
/// `exchange`, and in functional mode the final batch's gradients.
fn backward(
    machine: &mut Machine,
    cfg: &EmbLayerConfig,
    exchange: Exchange,
    mode: ExecMode,
) -> BackwardResult {
    check_pooling(cfg.pooling);
    let n = machine.n_gpus();
    assert_eq!(n, cfg.n_gpus, "machine/config GPU count mismatch");
    let prepared = prepare_batches(cfg, mode, machine.spec(0));
    let fused = matches!(exchange, Exchange::OneSided(_));
    let planned: Vec<PlannedBatch> = prepared
        .plans
        .iter()
        .map(|plan| backward_planned(machine, plan, fused))
        .collect();
    let report = run_batches(machine, &planned, cfg.n_batches, |m, pb, at| {
        execute_batch(m, &exchange, pb, at, None, None)
    });
    let grads = (mode == ExecMode::Functional).then(|| {
        let which = (cfg.n_batches.saturating_sub(1)) % prepared.plans.len();
        functional_grads(&prepared.plans[which], &prepared.batches[which], cfg)
    });
    BackwardResult { report, grads }
}

/// The backward pass of `fwd` as a plan. Who sends what is `fwd` transposed
/// ([`gradient_plan`]); a block pushes its remote rows, one put per owner, the
/// instant it retires; a collective costs one host synchronization per ring
/// round (`G − 1`) on top, and its wait is followed by the unpack of the
/// staged rows; either exchange is followed by the scatter-add into the
/// tables. `fused` (one-sided), the kernel computes the gradient rows bag by
/// bag in the plan's blocks; before a collective it only materializes the
/// `mb × S` rows from the interaction layer's gradient, memory-bound — a
/// block list unrelated to the plan's, which nothing may emit from.
pub(crate) fn backward_planned(machine: &Machine, fwd: &ForwardPlan, fused: bool) -> PlannedBatch {
    let n = fwd.n_devices;
    let plan = gradient_plan(fwd);
    let row_bytes = u64::from(fwd.row_bytes());
    let produce = |dp: &DevicePlan| {
        let spec = machine.spec(dp.device);
        if !fused {
            return Tail::chunked(dp.n_bags as u64 * row_bytes * 2, spec);
        }
        let shape = KernelShape {
            blocks: dp.blocks.len() as u64,
            bytes_per_block: (fwd.bags_per_block as u64 * row_bytes * 2).max(1),
            flops_per_block: 0,
            dependent_accesses: 8,
        };
        Tail::of(shape, spec)
    };
    let durations = (plan.devices.iter())
        .map(|dp| produce(dp).durations())
        .collect();
    // Gradient rows staged on d: the whole batch's, for each of its tables.
    let staged = |d: usize| (fwd.batch_size * fwd.devices[d].features.len()) as u64;
    let unpack = |d: usize| Tail::chunked(2 * staged(d) * row_bytes, machine.spec(d));
    let scatter_add = |d: usize| {
        let shape = scatter_add_shape(fwd.devices[d].total_lookups, staged(d), row_bytes);
        Tail::of(shape, machine.spec(d))
    };
    let pass = Pass {
        after_collective: (0..n).map(unpack).collect(),
        after_exchange: (0..n).map(scatter_add).collect(),
        emission: Emission::AtRetirement,
        collective_syncs: machine.spec(0).stream_sync * n.saturating_sub(1) as u64,
    };
    PlannedBatch::with_pass(Arc::new(plan), durations, |_| pass)
}

/// `fwd` with the direction reversed: device `d` holds the upstream gradient
/// of its mini-batch — `mb_sizes[d] × S` bag-gradient rows, feature-major, in
/// blocks of `bags_per_block` (one empty block where the mini-batch is) —
/// and each row goes to the device owning its feature's table. O(blocks): a
/// block is a run of consecutive bags, i.e. one sample range per feature it
/// touches. Nothing is looked up, so `lookups` are zero.
fn gradient_plan(fwd: &ForwardPlan) -> ForwardPlan {
    let owner_of = feature_owners(fwd);
    let (n, bpb) = (fwd.n_devices, fwd.bags_per_block);
    let devices = (0..n)
        .map(|d| {
            let mb = fwd.mb_sizes[d];
            let n_bags = mb * fwd.n_features;
            let n_blocks = n_bags.div_ceil(bpb).max(1);
            let mut dp = DevicePlan::new(d, (0..fwd.n_features).collect(), n_bags, n_blocks);
            let mut rows_to = vec![0u64; n];
            for b in 0..n_blocks {
                let first = b * bpb;
                let end = n_bags.min(first + bpb);
                // Bag `b` is sample `b % mb` of feature `b / mb`.
                for f in first / mb.max(1)..end.div_ceil(mb.max(1)) {
                    rows_to[owner_of[f]] += (end.min((f + 1) * mb) - first.max(f * mb)) as u64;
                }
                let dests = (0..n)
                    .map(|dst| (dst, std::mem::take(&mut rows_to[dst])))
                    .filter(|&(_, rows)| rows > 0);
                dp.push_block(first, (end - first) as u32, 0, dests);
            }
            dp.shrink_to_fit();
            dp
        })
        .collect();
    ForwardPlan {
        measured_hit: 0.0,
        devices,
        mb_sizes: fwd.mb_sizes.clone(),
        ..*fwd
    }
}

/// `owner[f]` = the (first) device whose shard holds feature `f`'s table.
fn feature_owners(plan: &ForwardPlan) -> Vec<usize> {
    let mut owner = vec![usize::MAX; plan.n_features];
    for dp in plan.devices.iter().rev() {
        for &f in &dp.features {
            owner[f] = dp.device;
        }
    }
    assert!(
        owner.iter().all(|&o| o != usize::MAX),
        "every feature has an owner"
    );
    owner
}

/// Apply SGD to a shard given its per-table gradients: `w -= lr * g`.
pub fn sgd_update(shard: &mut EmbeddingShard, grads: &[Tensor], lr: f32) {
    let features: Vec<usize> = shard.features().collect();
    assert_eq!(features.len(), grads.len(), "one gradient per local table");
    for (f, g) in features.into_iter().zip(grads) {
        let w = shard.weights_mut(f);
        assert_eq!(w.dims(), g.dims(), "gradient/weight shape mismatch");
        for (wi, gi) in w.data_mut().iter_mut().zip(g.data()) {
            *wi -= lr * gi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::MachineConfig;

    fn tiny_cfg(g: usize) -> EmbLayerConfig {
        let mut c = EmbLayerConfig::paper_weak_scaling(g).scaled_down(512);
        c.n_batches = 2;
        c.distinct_batches = 1;
        c
    }

    #[test]
    fn functional_grads_match_reference() {
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let res = baseline_backward(
            &mut m,
            &cfg,
            &CollectiveConfig::default(),
            ExecMode::Functional,
        );
        let grads = res.grads.unwrap();
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(cfg.n_batches - 1));
        let reference = reference_backward(&batch, cfg.table_spec(), cfg.pooling, cfg.seed);
        for dp_grads in grads.iter().zip(
            cfg.sharding()
                .features_on(0, cfg.n_features)
                .iter()
                .map(|_| ()),
        ) {
            let _ = dp_grads;
        }
        // Flatten device grads back to global feature order and compare.
        let sharding = cfg.sharding();
        for (dev, dev_grads) in grads.iter().enumerate() {
            for (i, f) in sharding.features_on(dev, cfg.n_features).iter().enumerate() {
                assert!(
                    dev_grads[i].allclose(&reference[*f], 1e-4),
                    "grad mismatch for feature {f}"
                );
            }
        }
    }

    #[test]
    fn pgas_and_baseline_grads_agree() {
        let cfg = tiny_cfg(2);
        let mut m1 = Machine::new(MachineConfig::dgx_v100(2));
        let b = baseline_backward(
            &mut m1,
            &cfg,
            &CollectiveConfig::default(),
            ExecMode::Functional,
        );
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let p = pgas_backward(&mut m2, &cfg, PgasConfig::default(), ExecMode::Functional);
        for (bg, pg) in b.grads.unwrap().iter().zip(p.grads.unwrap().iter()) {
            for (x, y) in bg.iter().zip(pg) {
                assert!(x.allclose(y, 0.0));
            }
        }
    }

    #[test]
    fn pgas_backward_is_faster() {
        let cfg = tiny_cfg(2);
        let mut m1 = Machine::new(MachineConfig::dgx_v100(2));
        let b = baseline_backward(
            &mut m1,
            &cfg,
            &CollectiveConfig::default(),
            ExecMode::Timing,
        );
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let p = pgas_backward(&mut m2, &cfg, PgasConfig::default(), ExecMode::Timing);
        assert!(
            p.report.total < b.report.total,
            "pgas {} vs baseline {}",
            p.report.total,
            b.report.total
        );
    }

    #[test]
    #[should_panic(expected = "one-sided: device 0's kernel")]
    fn the_collective_form_cannot_be_executed_one_sided() {
        // Its kernel materializes rows in 128 KiB chunks: not the plan's
        // blocks, so no block end says when a row may leave.
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let fwd = prepare_batches(&cfg, ExecMode::Timing, m.spec(0));
        let pb = backward_planned(&m, &fwd.plans[0], false);
        assert_ne!(pb.durations()[0].len(), pb.plan().devices[0].blocks.len());
        let exchange = Exchange::OneSided(PgasConfig::default());
        execute_batch(&mut m, &exchange, &pb, desim::SimTime::ZERO, None, None);
    }

    #[test]
    fn sgd_update_moves_weights_against_gradient() {
        let spec = crate::EmbeddingTableSpec { rows: 4, dim: 2 };
        let mut shard = EmbeddingShard::materialize(&[0], spec, 1);
        let before = shard.weights(0).clone();
        let grad = Tensor::ones(&[4, 2]);
        sgd_update(&mut shard, &[grad], 0.5);
        let after = shard.weights(0);
        for (b, a) in before.data().iter().zip(after.data()) {
            assert!((b - a - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "Sum/Mean")]
    fn max_pooling_backward_rejected() {
        let mut cfg = tiny_cfg(2);
        cfg.pooling = PoolingOp::Max;
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let _ = pgas_backward(&mut m, &cfg, PgasConfig::default(), ExecMode::Timing);
    }
}
