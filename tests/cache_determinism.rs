//! Hot-row cache + batch-dedup correctness contract (DESIGN.md §10).
//!
//! The cache and the dedup pass are *accounting* optimizations: they may
//! move lookups between devices (exported bags computed from replicas) and
//! collapse duplicate work, but the pooled functional outputs must stay
//! bit-identical to a plain uncached run — for every pooling op, both
//! backends, any thread-pool width, and arbitrary Zipf-skewed batches.
//! Timing-side, they must never *increase* simulated cost, wire volume or
//! message count, and the warmup-measured hit rate must track the analytic
//! [`IndexDistribution::cache_hit_fraction`] model.

use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::retrieval::backend::{
    plan_with_planner, Backend, ExecMode, HotCachePlanner, ResiliencePolicy,
};
use pgas_embedding::retrieval::{EmbLayerConfig, IndexDistribution, PoolingOp, SparseBatch};
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

/// Zipf-skewed weak-scaling config with the cache and dedup dialed in.
fn cached_cfg(gpus: usize, pooling: PoolingOp, cache_rows: u64, dedup: bool) -> EmbLayerConfig {
    let mut cfg = EmbLayerConfig::paper_weak_scaling(gpus).scaled_down(512);
    cfg.distribution = IndexDistribution::Zipf { exponent: 1.2 };
    cfg.pooling = pooling;
    cfg.n_batches = 3;
    cfg.distinct_batches = 2;
    cfg.hot_cache_rows = cache_rows;
    cfg.dedup = dedup;
    cfg
}

/// Flattened functional outputs of `backend` under `cfg`.
fn functional_outputs(backend: &Backend, cfg: &EmbLayerConfig) -> Vec<f32> {
    let mut m = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
    backend
        .run(&mut m, cfg, ExecMode::Functional)
        .outputs
        .expect("functional mode returns outputs")
        .iter()
        .flat_map(|t| t.data().iter().copied())
        .collect()
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

/// Pooled outputs with the cache + dedup on are bit-identical to a plain
/// uncached run, for every pooling op and both backends (plus the resilient
/// wrapper on a clean fabric), at pool widths 1/2/4/8.
#[test]
fn cached_outputs_bit_identical_to_uncached_at_every_width() {
    let backends: [(&str, &Backend); 3] = [
        ("baseline", &Backend::baseline()),
        ("pgas", &Backend::pgas()),
        (
            "resilient",
            &Backend::pgas().with_policy(ResiliencePolicy::default()),
        ),
    ];
    for pooling in [PoolingOp::Sum, PoolingOp::Mean, PoolingOp::Max] {
        for (name, backend) in backends {
            let plain = cached_cfg(2, pooling, 0, false);
            let cached = cached_cfg(2, pooling, 98_304, true);
            let reference = at_width(1, || functional_outputs(backend, &plain));
            for &w in &WIDTHS {
                let out = at_width(w, || functional_outputs(backend, &cached));
                assert_bits_eq(
                    &reference,
                    &out,
                    &format!("{name}/{pooling:?} cached @ {w} threads"),
                );
            }
        }
    }
}

/// Dedup collapses work; it must never add wire messages, payload bytes or
/// simulated time — on either backend.
#[test]
fn dedup_never_increases_messages_bytes_or_time() {
    for gpus in [2usize, 4] {
        let plain = cached_cfg(gpus, PoolingOp::Sum, 0, false);
        let mut deduped = plain.clone();
        deduped.dedup = true;
        // Measured accounting replaces the analytic L2 derating (DESIGN §10):
        // zero it on both sides so the comparison is apples to apples.
        let (mut plain, mut deduped) = (plain, deduped);
        plain.cache_rows_scale = 0.0;
        deduped.cache_rows_scale = 0.0;
        for backend in [&Backend::baseline(), &Backend::pgas()] {
            let mut m0 = Machine::new(MachineConfig::dgx_v100(gpus));
            let r0 = backend.run(&mut m0, &plain, ExecMode::Timing).report;
            let mut m1 = Machine::new(MachineConfig::dgx_v100(gpus));
            let r1 = backend.run(&mut m1, &deduped, ExecMode::Timing).report;
            assert!(
                r1.traffic.messages <= r0.traffic.messages,
                "{}: dedup messages {} > plain {}",
                backend.name(),
                r1.traffic.messages,
                r0.traffic.messages
            );
            assert!(r1.traffic.payload_bytes <= r0.traffic.payload_bytes);
            assert!(
                r1.total <= r0.total,
                "{}: dedup total {} > plain {}",
                backend.name(),
                r1.total,
                r0.total
            );
        }
    }
}

/// The cache at EXT-9's headline cell (Zipf 1.2, 96 k-row pre-scale cache)
/// delivers the issue's promised >= 1.3x simulated PGAS speedup.
#[test]
fn heavy_skew_headline_speedup_holds() {
    let plain = {
        let mut c = cached_cfg(4, PoolingOp::Sum, 0, false);
        c.cache_rows_scale = 0.0;
        c
    };
    let cached = {
        let mut c = cached_cfg(4, PoolingOp::Sum, 98_304, true);
        c.cache_rows_scale = 0.0;
        c
    };
    let mut m0 = Machine::new(MachineConfig::dgx_v100(4));
    let t0 = Backend::pgas()
        .run(&mut m0, &plain, ExecMode::Timing)
        .report
        .total;
    let mut m1 = Machine::new(MachineConfig::dgx_v100(4));
    let t1 = Backend::pgas()
        .run(&mut m1, &cached, ExecMode::Timing)
        .report
        .total;
    let speedup = t0.as_secs_f64() / t1.as_secs_f64();
    assert!(speedup >= 1.3, "cached PGAS speedup {speedup:.3} < 1.3");
}

/// Measured warmup-trace hit rates track the analytic model within 2
/// percentage points for Zipf exponents 0.8 / 1.0 / 1.2.
///
/// The comparison runs in the dense-count regime (warmup lookups per table
/// row >> 1) where empirical top-K selection is not dominated by Poisson
/// fluctuations of the hashed tail; EXT-9's sparse-count cells show the
/// model as a lower bound instead (see EXPERIMENTS.md).
#[test]
fn measured_hit_rate_tracks_analytic_model() {
    for alpha in [0.8f64, 1.0, 1.2] {
        let mut cfg = EmbLayerConfig::paper_weak_scaling(2).scaled_down(512);
        cfg.distribution = IndexDistribution::Zipf { exponent: alpha };
        cfg.table_rows = 512;
        cfg.batch_size = 1024;
        cfg.pooling_min = 16;
        cfg.pooling_max = 48;
        cfg.distinct_batches = 4;
        cfg.n_batches = 4;
        cfg.hot_cache_rows = 52; // ~10% of the table
        cfg.dedup = false;
        cfg.cache_rows_scale = 0.0;
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let planner = HotCachePlanner::new(&cfg, m.spec(0)).expect("cache enabled");
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(0));
        let plan = plan_with_planner(&cfg, &batch, m.spec(0), Some(&planner));
        let model = cfg.distribution.cache_hit_fraction(
            cfg.index_space,
            cfg.table_rows as u64,
            plan.cache_rows,
        );
        assert!(
            (plan.measured_hit - model).abs() < 0.02,
            "alpha {alpha}: measured {:.4} vs model {model:.4}",
            plan.measured_hit
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary Zipf-skewed shapes: cached + deduped functional outputs
    /// equal the uncached reference bit-for-bit on both backends, and the
    /// annotated PGAS run never sends more messages than the plain one.
    #[test]
    fn random_zipf_batches_stay_bit_identical(
        gpus in 1usize..=3,
        fpg in 1usize..=2,
        rows in 16usize..=96,
        mb in 2usize..=6,
        exponent in 0.8f64..=1.4,
        cache_rows in prop_oneof![Just(0u64), Just(8), Just(64)],
        seed in any::<u16>(),
    ) {
        let cfg = EmbLayerConfig {
            n_gpus: gpus,
            n_features: fpg * gpus,
            table_rows: rows,
            dim: 8,
            batch_size: mb * gpus,
            pooling_min: 1,
            pooling_max: 6,
            index_space: 4096,
            distribution: IndexDistribution::Zipf { exponent },
            pooling: PoolingOp::Sum,
            bags_per_block: 4,
            n_batches: 2,
            distinct_batches: 2,
            seed: seed as u64,
            cache_rows_scale: 0.0,
            hot_cache_rows: cache_rows,
            dedup: true,
        };
        let mut plain = cfg.clone();
        plain.hot_cache_rows = 0;
        plain.dedup = false;
        for backend in [
            &Backend::baseline(),
            &Backend::pgas(),
        ] {
            let reference = functional_outputs(backend, &plain);
            let cached = functional_outputs(backend, &cfg);
            assert_bits_eq(&reference, &cached, backend.name());
        }
        let mut m0 = Machine::new(MachineConfig::dgx_v100(gpus));
        let plain_msgs = Backend::pgas()
            .run(&mut m0, &plain, ExecMode::Timing)
            .report
            .traffic
            .messages;
        let mut m1 = Machine::new(MachineConfig::dgx_v100(gpus));
        let cached_msgs = Backend::pgas()
            .run(&mut m1, &cfg, ExecMode::Timing)
            .report
            .traffic
            .messages;
        prop_assert!(cached_msgs <= plain_msgs, "{cached_msgs} > {plain_msgs}");
    }
}
