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
//!   gradient computation and skipping the unpack — after a quiet+barrier,
//!   owners scatter-add locally.
//!
//! Functionally both produce identical per-table gradients, verified against
//! a serial reference. Only [`PoolingOp::Sum`] and [`PoolingOp::Mean`] have
//! well-defined dense bag gradients (Max would need recorded argmaxes).

use desim::{Dur, SimTime};
use gpusim::{KernelShape, Machine};
use pgas_rt::{OneSided, PgasConfig};
use simccl::{all_to_all_timed, Algorithm, CollectiveConfig};
use simtensor::Tensor;

use crate::backend::{prepare_batches, ExecMode};
use crate::{
    EmbLayerConfig, EmbeddingShard, ForwardPlan, IndexHasher, PoolingOp, RunReport, SparseBatch,
    TimeBreakdown,
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
    check_pooling(cfg.pooling);
    let n = machine.n_gpus();
    assert_eq!(n, cfg.n_gpus, "machine/config GPU count mismatch");
    // The paper's described scheme shifts gradients around the ring with a
    // synchronization per round.
    let ring = collectives.with_algorithm(Algorithm::Ring);
    let prepared = prepare_batches(cfg, mode, machine.spec(0));
    let row_bytes = (cfg.dim * 4) as u64;

    let mut breakdown = TimeBreakdown::default();
    let mut batch_start = SimTime::ZERO;
    for batch_idx in 0..cfg.n_batches {
        let which = batch_idx % prepared.plans.len();
        let plan = &prepared.plans[which];

        // Gradient "computation" on each device: materializing mb × S grad
        // rows from the interaction layer's gradient (memory-bound).
        let mut k_end = vec![SimTime::ZERO; n];
        for (d, ke) in k_end.iter_mut().enumerate() {
            let bytes = (plan.mb_sizes[d] * plan.n_features) as u64 * row_bytes * 2;
            let shape = KernelShape::memory_bound(bytes.div_ceil(128 << 10).max(1), 128 << 10);
            let run = machine.run_kernel(d, shape, batch_start);
            *ke = run.interval.end;
        }
        let k_max = machine.barrier(&k_end);

        // Ring exchange: device d sends grads for features owned by g.
        let bytes: Vec<Vec<u64>> = (0..n)
            .map(|d| {
                (0..n)
                    .map(|g| (plan.mb_sizes[d] * plan.devices[g].features.len()) as u64 * row_bytes)
                    .collect()
            })
            .collect();
        let work = all_to_all_timed(machine, &ring, &bytes, &k_end);
        // One synchronization per ring round (n-1 rounds), as described.
        let round_syncs = machine.spec(0).stream_sync * (n.saturating_sub(1)) as u64;
        let c_end: Vec<SimTime> = (0..n).map(|d| work.done_at(d) + round_syncs).collect();
        let c_max = machine.barrier(&c_end).max(k_max);

        // Unpack + scatter-add on each owner.
        let mut end = vec![SimTime::ZERO; n];
        for (d, e) in end.iter_mut().enumerate() {
            let waited = work.wait(machine, d, k_end[d]) + round_syncs;
            let staged = (plan.batch_size * plan.devices[d].features.len()) as u64;
            let unpack = KernelShape::memory_bound(
                (2 * staged * row_bytes).div_ceil(128 << 10).max(1),
                128 << 10,
            );
            let u = machine.run_kernel(d, unpack, waited);
            let scat = scatter_add_shape(plan.devices[d].total_lookups, staged, row_bytes);
            let r = machine.run_kernel(d, scat, u.interval.end);
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

    let grads = (mode == ExecMode::Functional).then(|| {
        let which = (cfg.n_batches.saturating_sub(1)) % prepared.plans.len();
        functional_grads(&prepared.plans[which], &prepared.batches[which], cfg)
    });

    BackwardResult {
        report: RunReport::new(machine, cfg.n_batches, breakdown),
        grads,
    }
}

/// PGAS backward: fused gradient kernel with one-sided atomic pushes →
/// quiet + barrier → local scatter-add.
pub fn pgas_backward(
    machine: &mut Machine,
    cfg: &EmbLayerConfig,
    pgas: PgasConfig,
    mode: ExecMode,
) -> BackwardResult {
    check_pooling(cfg.pooling);
    let n = machine.n_gpus();
    assert_eq!(n, cfg.n_gpus, "machine/config GPU count mismatch");
    let prepared = prepare_batches(cfg, mode, machine.spec(0));
    let row_bytes = (cfg.dim * 4) as u32;
    // Feature → owning device, once per plan (a bag's gradient goes to its
    // feature's owner).
    let owners: Vec<Vec<usize>> = prepared.plans.iter().map(|p| feature_owners(p)).collect();

    let mut breakdown = TimeBreakdown::default();
    let mut batch_start = SimTime::ZERO;
    let mut per_owner = vec![0u64; n];
    for batch_idx in 0..cfg.n_batches {
        let which = batch_idx % prepared.plans.len();
        let plan = &prepared.plans[which];
        let owner_of = &owners[which];

        // Fused gradient kernel on each device: mb × S bag-gradient rows in
        // blocks; each block pushes its remote rows at retirement.
        // Blocks are feature-major over the device's mini-batch.
        let bytes_per_block = (plan.bags_per_block as u64 * row_bytes as u64 * 2).max(1);
        let mut k_end = vec![SimTime::ZERO; n];
        let mut quiet = vec![SimTime::ZERO; n];
        for d in 0..n {
            let mb = plan.mb_sizes[d];
            let n_bags = mb * plan.n_features;
            let blocks = n_bags.div_ceil(plan.bags_per_block).max(1);
            let shape = KernelShape {
                blocks: blocks as u64,
                bytes_per_block,
                flops_per_block: 0,
                dependent_accesses: 8,
            };
            let run = machine.run_kernel(d, shape, batch_start);
            k_end[d] = run.interval.end;
            if n_bags == 0 {
                quiet[d] = run.interval.end;
                continue;
            }
            let mut os = OneSided::with_config(machine, pgas);
            // Each block's bags map to features; a bag's gradient goes to
            // the feature's owner. Feature-major blocks touch one or two
            // owners each (features are block-sharded).
            for (b, &ready) in run.block_ends.iter().enumerate() {
                let first = b * plan.bags_per_block;
                let count = plan.bags_per_block.min(n_bags - first);
                per_owner.fill(0);
                for bag in first..first + count {
                    per_owner[owner_of[bag / mb]] += 1;
                }
                for (owner, &rows) in per_owner.iter().enumerate() {
                    if owner != d && rows > 0 {
                        os.atomic_add_rows_nbi(d, owner, rows, row_bytes, ready);
                    }
                }
            }
            quiet[d] = os.quiet(d, run.interval.end);
        }
        let k_max = machine.barrier(&k_end);
        let mut os = OneSided::with_config(machine, pgas);
        let bar = os.barrier_all(&quiet);

        // Local scatter-add into the tables on each owner.
        let mut end = vec![SimTime::ZERO; n];
        for (d, e) in end.iter_mut().enumerate() {
            let staged = (plan.batch_size * plan.devices[d].features.len()) as u64;
            let scat = scatter_add_shape(plan.devices[d].total_lookups, staged, row_bytes as u64);
            let r = machine.run_kernel(d, scat, bar);
            *e = machine.stream_sync(d, r.interval.end);
        }
        let batch_end = machine.barrier(&end);

        breakdown.accumulate(&TimeBreakdown {
            compute: k_max - batch_start,
            communication: Dur::ZERO,
            sync_unpack: batch_end - k_max,
        });
        batch_start = batch_end;
    }

    let grads = (mode == ExecMode::Functional).then(|| {
        let which = (cfg.n_batches.saturating_sub(1)) % prepared.plans.len();
        functional_grads(&prepared.plans[which], &prepared.batches[which], cfg)
    });

    BackwardResult {
        report: RunReport::new(machine, cfg.n_batches, breakdown),
        grads,
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
