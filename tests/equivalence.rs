//! Cross-crate functional equivalence: for a grid of workload shapes, the
//! baseline pipeline (pack → all-to-all → unpack), the PGAS fused path
//! (one-sided scatter through the symmetric heap) and the serial reference
//! all produce identical embedding-layer outputs — exactly, though the
//! backends draw each looked-up row from its init stream and the reference
//! materializes whole tables.

use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::retrieval::backend::{
    BaselineBackend, ExecMode, PgasFusedBackend, RetrievalBackend,
};
use pgas_embedding::retrieval::{
    reference::reference_forward, EmbLayerConfig, PoolingOp, SparseBatch,
};

fn check(cfg: &EmbLayerConfig) {
    let mut mb = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
    let base = BaselineBackend::new()
        .run(&mut mb, cfg, ExecMode::Functional)
        .outputs
        .unwrap();
    let mut mp = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
    let pgas = PgasFusedBackend::new()
        .run(&mut mp, cfg, ExecMode::Functional)
        .outputs
        .unwrap();
    let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(cfg.n_batches - 1));
    let reference = reference_forward(&batch, cfg.table_spec(), cfg.pooling, cfg.n_gpus, cfg.seed);
    for dev in 0..cfg.n_gpus {
        assert!(
            base[dev].allclose(&reference[dev], 0.0),
            "baseline != reference exactly (dev {dev}, {cfg:?})"
        );
        assert!(
            pgas[dev].allclose(&base[dev], 0.0),
            "pgas != baseline exactly (dev {dev}, {cfg:?})"
        );
    }
}

fn tiny(gpus: usize) -> EmbLayerConfig {
    let mut c = EmbLayerConfig::paper_weak_scaling(gpus).scaled_down(512);
    c.n_batches = 2;
    c.distinct_batches = 2;
    c
}

#[test]
fn all_gpu_counts_agree() {
    for gpus in 1..=4 {
        check(&tiny(gpus));
    }
}

#[test]
fn all_pooling_ops_agree() {
    for op in [PoolingOp::Sum, PoolingOp::Mean, PoolingOp::Max] {
        let mut cfg = tiny(2);
        cfg.pooling = op;
        check(&cfg);
    }
}

#[test]
fn empty_bags_and_tiny_pooling() {
    // pooling_min = 0 produces NULL bags (paper Fig. 3's empty input case).
    let mut cfg = tiny(3);
    cfg.pooling_min = 0;
    cfg.pooling_max = 2;
    check(&cfg);
}

#[test]
fn wide_rows_and_odd_dims() {
    for dim in [8, 48, 256] {
        let mut cfg = tiny(2);
        cfg.dim = dim;
        check(&cfg);
    }
}

#[test]
fn block_granularity_does_not_change_outputs() {
    // The thread-block decomposition is a pure performance knob.
    for bpb in [1, 3, 7, 64] {
        let mut cfg = tiny(2);
        cfg.bags_per_block = bpb;
        check(&cfg);
    }
}

#[test]
fn skewed_zipf_inputs_agree() {
    let mut cfg = tiny(2);
    cfg.distribution = pgas_embedding::retrieval::IndexDistribution::Zipf { exponent: 1.2 };
    check(&cfg);
}

#[test]
fn single_row_tables() {
    // Every index collides onto row 0 — the extreme hash-collision case.
    let mut cfg = tiny(2);
    cfg.table_rows = 1;
    check(&cfg);
}

#[test]
fn uneven_minibatches_agree() {
    // The paper's 3-GPU runs: batch size not divisible by the GPU count.
    for (batch, gpus) in [(16, 3), (17, 4), (7, 3)] {
        let mut cfg = tiny(gpus);
        cfg.batch_size = batch;
        check(&cfg);
    }
}

#[test]
fn multiple_distinct_batches_cycle() {
    let mut cfg = tiny(2);
    cfg.n_batches = 5;
    cfg.distinct_batches = 3;
    check(&cfg);
}
