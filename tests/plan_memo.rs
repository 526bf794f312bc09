//! The plan memo as callers see it: `prepare_batches` returns one shared
//! prepared set per `(config, mode, GPU)` and a different, correct one for
//! anything else.
//!
//! One test function on purpose. The memo is process-wide and bounded, so
//! an assertion about *which allocation* comes back must not race another
//! test's insertions; this binary has no other test.

use std::sync::Arc;

use emb_retrieval::backend::{plan_for_batch, prepare_batches, ExecMode, PreparedBatches};
use emb_retrieval::memo::MEMO_CAPACITY;
use emb_retrieval::{EmbLayerConfig, IndexDistribution, PoolingOp, SparseBatch};
use gpusim::GpuSpec;

/// Every plan of `got` equals an uncached build of the same batch.
fn assert_plans_match_direct_build(
    what: &str,
    got: &PreparedBatches,
    cfg: &EmbLayerConfig,
    gpu: &GpuSpec,
) {
    let distinct = cfg.distinct_batches.min(cfg.n_batches);
    assert_eq!(got.plans.len(), distinct, "{what}");
    for (i, plan) in got.plans.iter().enumerate() {
        let spec = cfg.batch_spec();
        let batch = if cfg.hot_cache_rows > 0 || cfg.dedup {
            SparseBatch::generate(&spec, cfg.batch_seed(i))
        } else {
            SparseBatch::generate_counts_only(&spec, cfg.batch_seed(i))
        };
        assert_eq!(**plan, plan_for_batch(cfg, &batch, gpu), "{what}: plan {i}");
    }
}

#[test]
fn prepare_batches_is_memoized_on_its_whole_input() {
    let v100 = GpuSpec::v100();
    let mut base = EmbLayerConfig::paper_weak_scaling(2).scaled_down(512);
    base.distinct_batches = 2;
    base.n_batches = 5;
    let ask = |cfg: &EmbLayerConfig| prepare_batches(cfg, ExecMode::Timing, &v100);

    // Same input, same allocation; batches past the distinct count replay
    // the same plans, so they do not make a new key.
    let first = ask(&base);
    assert!(Arc::ptr_eq(&first, &ask(&base.clone())));
    let mut longer = base.clone();
    longer.n_batches = base.distinct_batches + 37;
    assert!(Arc::ptr_eq(&first, &ask(&longer)));
    assert_plans_match_direct_build("base", &first, &base, &v100);

    // Each field of the config in turn. The destructuring has no `..`: a
    // field added to `EmbLayerConfig` fails to compile here until it gets a
    // flip below (it is in the key either way — the key is the struct).
    let EmbLayerConfig {
        n_gpus: _,
        n_features: _,
        table_rows: _,
        dim: _,
        batch_size: _,
        pooling_min: _,
        pooling_max: _,
        index_space: _,
        distribution: _,
        pooling: _,
        bags_per_block: _,
        n_batches: _,
        distinct_batches: _,
        seed: _,
        cache_rows_scale: _,
        hot_cache_rows: _,
        dedup: _,
    } = base;
    type Flip = fn(&mut EmbLayerConfig);
    let flips: [(&str, Flip); 17] = [
        ("n_gpus", |c| c.n_gpus = 1),
        ("n_features", |c| c.n_features *= 2),
        ("table_rows", |c| c.table_rows *= 2),
        ("dim", |c| c.dim /= 2),
        ("batch_size", |c| c.batch_size -= 1),
        ("pooling_min", |c| c.pooling_min = 0),
        ("pooling_max", |c| c.pooling_max += 1),
        ("index_space", |c| c.index_space /= 2),
        ("distribution", |c| {
            c.distribution = IndexDistribution::Zipf { exponent: 1.1 }
        }),
        ("pooling", |c| c.pooling = PoolingOp::Mean),
        ("bags_per_block", |c| c.bags_per_block += 3),
        ("n_batches", |c| c.n_batches = 1),
        ("distinct_batches", |c| c.distinct_batches += 1),
        ("seed", |c| c.seed += 1),
        ("cache_rows_scale", |c| c.cache_rows_scale *= 0.5),
        ("hot_cache_rows", |c| c.hot_cache_rows = 16),
        ("dedup", |c| c.dedup = true),
    ];
    for (field, flip) in flips {
        let mut cfg = base.clone();
        flip(&mut cfg);
        assert_ne!(cfg, base, "{field}: the flip must change the config");
        let got = ask(&cfg);
        assert!(!Arc::ptr_eq(&first, &got), "{field} is not in the key");
        assert_plans_match_direct_build(field, &got, &cfg, &v100);
    }

    // The mode and the GPU are in the key too.
    let functional = prepare_batches(&base, ExecMode::Functional, &v100);
    assert!(!Arc::ptr_eq(&first, &functional));
    assert_eq!(functional.batches.len(), base.distinct_batches);
    assert_eq!(functional.plans, first.plans);
    let mut big_l2 = v100.clone();
    big_l2.l2_bytes *= 2;
    for gpu in [GpuSpec::a100(), big_l2] {
        let got = prepare_batches(&base, ExecMode::Timing, &gpu);
        assert!(!Arc::ptr_eq(&first, &got), "{gpu:?}");
        assert_plans_match_direct_build(gpu.name, &got, &base, &gpu);
    }

    // Far more than `MEMO_CAPACITY` keys have gone by: `base` was evicted,
    // is rebuilt equal, and is then the most recently used entry, which
    // `MEMO_CAPACITY - 1` further keys leave in place and one more evicts.
    let rebuilt = ask(&base);
    assert!(!Arc::ptr_eq(&first, &rebuilt));
    assert_eq!(rebuilt.plans, first.plans);
    let other_seed = |k: usize| {
        let mut cfg = base.clone();
        cfg.seed += 100 + k as u64;
        cfg
    };
    for k in 1..MEMO_CAPACITY {
        ask(&other_seed(k));
    }
    assert!(Arc::ptr_eq(&rebuilt, &ask(&base)));
    for k in 0..MEMO_CAPACITY {
        ask(&other_seed(k));
    }
    assert!(!Arc::ptr_eq(&rebuilt, &ask(&base)));

    // Two threads asking for one key nobody has built yet.
    let fresh = other_seed(1000);
    let (a, b) = std::thread::scope(|s| {
        let (ta, tb) = (s.spawn(|| ask(&fresh)), s.spawn(|| ask(&fresh)));
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert_eq!(a.plans, b.plans);
    assert_plans_match_direct_build("racing threads", &a, &fresh, &v100);

    // Forgetting drops the store's reference, not a holder's.
    let held = ask(&fresh);
    emb_retrieval::backend::forget_prepared();
    let after = ask(&fresh);
    assert!(!Arc::ptr_eq(&held, &after));
    assert_eq!(held.plans, after.plans);

    // The byte budget, by the builder's own account of what a set keeps
    // per block (plans, durations and the per-device schedules): the
    // paper's 4-GPU weak set fits and is shared, a `scaled_down(8)` 32-GPU
    // pod set (a million two-bag blocks) does not and is the caller's alone.
    let paper = ask(&EmbLayerConfig::paper_weak_scaling(4));
    assert!(Arc::ptr_eq(
        &paper,
        &ask(&EmbLayerConfig::paper_weak_scaling(4))
    ));
    drop(paper);
    emb_retrieval::backend::forget_prepared();
    let pod = ask(&EmbLayerConfig::paper_weak_scaling(32).scaled_down(8));
    assert_eq!(Arc::strong_count(&pod), 1, "the memo kept an oversized set");
}
