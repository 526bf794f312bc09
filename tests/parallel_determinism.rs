//! Parallel-engine determinism contract: every hot path that runs on the
//! in-tree rayon pool must produce bit-identical results at any pool width.
//!
//! Each test evaluates a kernel under explicit `ThreadPoolBuilder` pools of
//! 1, 2, 4, and 8 threads and compares the float outputs *by bit pattern*
//! (`f32::to_bits`), not by tolerance — the engine promises exact equality,
//! not approximate agreement.

use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::pgas::{coalesce_rows, coalesce_rows_many, CoalescedBatch};
use pgas_embedding::retrieval::backend::{
    compute_pooled_rows, exchange_and_unpack, materialize_shards, scatter_via_symmetric_heap,
    Backend, ExecMode,
};
use pgas_embedding::retrieval::{
    EmbLayerConfig, EmbeddingShard, ForwardPlan, IndexDistribution, PoolingOp, SparseBatch,
};
use pgas_embedding::tensor::Tensor;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Run `f` under a dedicated pool of `threads` workers.
fn at_width<T>(threads: usize, f: impl Fn() -> T + Sync) -> T {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool")
        .install(f)
}

/// Assert two float slices are identical bit-for-bit.
fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit divergence at element {i}: {x} vs {y}"
        );
    }
}

/// Evaluate `f` at width 1 and at every wider pool, asserting bit-identity.
fn check_widths(what: &str, f: impl Fn() -> Vec<f32> + Sync) {
    let reference = at_width(1, &f);
    for &w in &WIDTHS[1..] {
        let out = at_width(w, &f);
        assert_bits_eq(&reference, &out, &format!("{what} @ {w} threads"));
    }
}

fn fixture(
    n_dev: usize,
    pooling: PoolingOp,
    seed: u64,
) -> (ForwardPlan, SparseBatch, Vec<EmbeddingShard>, u64) {
    let mut cfg = EmbLayerConfig::paper_weak_scaling(n_dev).scaled_down(1024);
    cfg.pooling = pooling;
    cfg.seed = seed;
    let batch = SparseBatch::generate(&cfg.batch_spec(), seed);
    let plan = ForwardPlan::build(
        &batch,
        &cfg.sharding(),
        cfg.dim,
        cfg.pooling,
        cfg.bags_per_block,
    );
    let shards = materialize_shards(&plan, cfg.table_spec(), seed);
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
fn lookup_and_pool_bit_identical_across_widths() {
    for op in [PoolingOp::Sum, PoolingOp::Mean, PoolingOp::Max] {
        let (plan, batch, shards, seed) = fixture(3, op, 42);
        check_widths(&format!("lookup+pool ({op:?})"), || {
            pooled_all(&plan, &batch, &shards, seed).concat()
        });
    }
}

#[test]
fn matmul_addmm_transpose_bit_identical_across_widths() {
    let a = Tensor::rand_uniform(&[37, 53], -1.0, 1.0, 11);
    let b = Tensor::rand_uniform(&[53, 29], -1.0, 1.0, 12);
    let bias = Tensor::rand_uniform(&[29], -1.0, 1.0, 13);
    check_widths("matmul", || a.matmul(&b).data().to_vec());
    check_widths("addmm", || a.addmm(&b, &bias).data().to_vec());
    // 131 × 97 straddles the transpose tile size in both dimensions.
    let big = Tensor::rand_uniform(&[131, 97], -2.0, 2.0, 14);
    check_widths("transpose", || big.transpose().data().to_vec());
}

#[test]
fn pgas_aggregation_bit_identical_across_widths() {
    let (plan, batch, shards, seed) = fixture(4, PoolingOp::Sum, 7);
    let pooled = pooled_all(&plan, &batch, &shards, seed);
    check_widths("symmetric-heap scatter", || {
        scatter_via_symmetric_heap(&plan, &pooled)
            .iter()
            .flat_map(|t| t.data().iter().copied())
            .collect()
    });
    check_widths("all-to-all exchange+unpack", || {
        exchange_and_unpack(&plan, &pooled)
            .iter()
            .flat_map(|t| t.data().iter().copied())
            .collect()
    });
    // Coalescing aggregation: the parallel tree reduce equals the serial
    // left fold at every width (integer fields, fixed-shape reduction).
    let batches: Vec<(u64, u32)> = (0..97)
        .map(|i| (i * 13 % 29, 64 + (i as u32 % 7) * 64))
        .collect();
    let serial = batches
        .iter()
        .fold(CoalescedBatch::EMPTY, |acc, &(rows, rb)| {
            acc.merge(coalesce_rows(rows, rb, 256))
        });
    for w in WIDTHS {
        let par = at_width(w, || coalesce_rows_many(&batches, 256));
        assert_eq!(par, serial, "coalesce_rows_many @ {w} threads");
    }
}

#[test]
fn end_to_end_batch_bit_identical_across_widths() {
    let cfg = EmbLayerConfig::paper_weak_scaling(2).scaled_down(1024);
    fn run_functional(backend: &Backend, cfg: &EmbLayerConfig) -> Vec<f32> {
        let mut m = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        backend
            .run(&mut m, cfg, ExecMode::Functional)
            .outputs
            .expect("functional mode returns outputs")
            .iter()
            .flat_map(|t| t.data().iter().copied())
            .collect()
    }
    check_widths("end-to-end batch (pgas)", || {
        run_functional(&Backend::pgas(), &cfg)
    });
    check_widths("end-to-end batch (baseline)", || {
        run_functional(&Backend::baseline(), &cfg)
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary shapes stay bit-identical between a 1-thread and an
    /// 8-thread pool, end to end through lookup+pool and both scatters.
    #[test]
    fn random_shapes_are_width_invariant(
        gpus in 1usize..=4,
        fpg in 1usize..=3,
        dim in prop_oneof![Just(4usize), Just(8)],
        mb in 1usize..=3,
        seed in any::<u16>(),
        op in prop_oneof![Just(PoolingOp::Sum), Just(PoolingOp::Mean), Just(PoolingOp::Max)],
    ) {
        let cfg = EmbLayerConfig {
            n_gpus: gpus,
            n_features: fpg * gpus,
            table_rows: 48,
            dim,
            batch_size: mb * gpus,
            pooling_min: 0,
            pooling_max: 5,
            index_space: 500,
            distribution: IndexDistribution::Uniform,
            pooling: op,
            bags_per_block: 3,
            n_batches: 1,
            distinct_batches: 1,
            seed: seed as u64,
            cache_rows_scale: 1.0,
            hot_cache_rows: 0,
            dedup: false,
        };
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.seed);
        let plan = ForwardPlan::build(
            &batch,
            &cfg.sharding(),
            cfg.dim,
            cfg.pooling,
            cfg.bags_per_block,
        );
        let shards = materialize_shards(&plan, cfg.table_spec(), cfg.seed);
        let eval = || {
            let pooled = pooled_all(&plan, &batch, &shards, cfg.seed);
            let mut flat = pooled.concat();
            for t in scatter_via_symmetric_heap(&plan, &pooled) {
                flat.extend_from_slice(t.data());
            }
            for t in exchange_and_unpack(&plan, &pooled) {
                flat.extend_from_slice(t.data());
            }
            flat
        };
        let serial = at_width(1, eval);
        let wide = at_width(8, eval);
        assert_bits_eq(&serial, &wide, "random shape");
    }
}
