//! Property-based end-to-end tests: random workload shapes through both
//! backends always agree with the serial reference, and timing invariants
//! hold for arbitrary configurations.

use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::retrieval::backend::{Backend, ExecMode};
use pgas_embedding::retrieval::{
    reference::reference_forward, EmbLayerConfig, IndexDistribution, PoolingOp, SparseBatch,
};
use proptest::prelude::*;

fn cfg_strategy() -> impl Strategy<Value = EmbLayerConfig> {
    (
        1usize..=4,                                   // gpus
        1usize..=3,                                   // features per gpu
        1usize..=64,                                  // table rows
        prop_oneof![Just(4usize), Just(8), Just(16)], // dim
        1usize..=4,                                   // minibatch size
        (0u32..=2, 1u32..=6),                         // pooling bounds (min extra, span)
        prop_oneof![
            Just(PoolingOp::Sum),
            Just(PoolingOp::Mean),
            Just(PoolingOp::Max)
        ],
        prop_oneof![
            Just(IndexDistribution::Uniform),
            Just(IndexDistribution::Zipf { exponent: 1.3 })
        ],
        1usize..=4, // bags per block
        any::<u16>(),
    )
        .prop_map(
            |(gpus, fpg, rows, dim, mb, (pmin, pspan), pooling, dist, bpb, seed)| EmbLayerConfig {
                n_gpus: gpus,
                n_features: fpg * gpus,
                table_rows: rows,
                dim,
                batch_size: mb * gpus,
                pooling_min: pmin,
                pooling_max: pmin + pspan,
                index_space: 1000,
                distribution: dist,
                pooling,
                bags_per_block: bpb,
                n_batches: 1,
                distinct_batches: 1,
                seed: seed as u64,
                cache_rows_scale: 1.0,
                hot_cache_rows: 0,
                dedup: false,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both backends equal the serial oracle for arbitrary shapes.
    #[test]
    fn backends_match_reference(cfg in cfg_strategy()) {
        let mut mb = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        let base = Backend::baseline()
            .run(&mut mb, &cfg, ExecMode::Functional)
            .outputs
            .unwrap();
        let mut mp = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        let pgas = Backend::pgas()
            .run(&mut mp, &cfg, ExecMode::Functional)
            .outputs
            .unwrap();
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(0));
        let reference =
            reference_forward(&batch, cfg.table_spec(), cfg.pooling, cfg.n_gpus, cfg.seed);
        for dev in 0..cfg.n_gpus {
            prop_assert!(base[dev].allclose(&reference[dev], 1e-4));
            prop_assert!(pgas[dev].allclose(&base[dev], 0.0));
        }
    }

    /// Timing sanity for arbitrary shapes: totals are positive, reports are
    /// internally consistent, and payloads match between backends.
    #[test]
    fn timing_reports_consistent(cfg in cfg_strategy()) {
        let mut mb = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        let b = Backend::baseline().run(&mut mb, &cfg, ExecMode::Timing).report;
        let mut mp = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        let p = Backend::pgas().run(&mut mp, &cfg, ExecMode::Timing).report;
        prop_assert_eq!(b.total, b.breakdown.total());
        prop_assert_eq!(p.total, p.breakdown.total());
        prop_assert!(!b.breakdown.compute.is_zero());
        prop_assert_eq!(b.traffic.payload_bytes, p.traffic.payload_bytes);
        prop_assert!(p.breakdown.communication.is_zero());
    }

    /// More batches never reduce total time, for either backend.
    #[test]
    fn batches_are_monotone(cfg in cfg_strategy()) {
        let mut more = cfg.clone();
        more.n_batches = cfg.n_batches + 2;
        let mut m1 = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        let t1 = Backend::pgas().run(&mut m1, &cfg, ExecMode::Timing).report.total;
        let mut m2 = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        let t2 = Backend::pgas().run(&mut m2, &more, ExecMode::Timing).report.total;
        prop_assert!(t2 > t1);
    }
}
