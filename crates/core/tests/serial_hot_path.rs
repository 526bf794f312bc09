//! Bit-identity properties of the serial hot-path overhaul.
//!
//! The monomorphized pool kernels, the arena-backed
//! `compute_pooled_rows_into`, and the pool's inline degradation all claim
//! the same thing: *exactly* the bytes the historical paths produced. These
//! proptests pin that claim against in-test oracles written the way the old
//! code was (per-bag `PoolingOp::accumulate` loops), across pooling ops,
//! empty bags, and dedup/cache annotation on and off.

use emb_retrieval::backend::{
    compute_pooled_rows, compute_pooled_rows_into, materialize_shards, Weights,
};
use emb_retrieval::{
    kernels, EmbLayerConfig, ForwardPlan, HotCachePlanner, IndexHasher, PoolingOp, SparseBatch,
};
use gpusim::{Machine, MachineConfig};
use proptest::prelude::*;
use rayon::prelude::*;

fn op_strategy() -> impl Strategy<Value = PoolingOp> {
    (0u8..3).prop_map(|k| match k {
        0 => PoolingOp::Sum,
        1 => PoolingOp::Mean,
        _ => PoolingOp::Max,
    })
}

/// Random bags of rows that include negative zeros and repeated values —
/// the inputs where a wrong accumulator initialization shows up bitwise.
fn rows_strategy() -> impl Strategy<Value = Vec<Vec<f32>>> {
    let cell = prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        (-100i32..100).prop_map(|v| v as f32 / 8.0),
    ];
    proptest::collection::vec(proptest::collection::vec(cell, 4), 0..6)
}

proptest! {
    /// The monomorphized kernels are bit-identical to streaming
    /// `PoolingOp::accumulate`/`finish` over a zeroed accumulator — for
    /// every op, including empty bags and `-0.0` inputs.
    #[test]
    fn pool_bag_matches_streaming_bitwise(op in op_strategy(), rows in rows_strategy()) {
        let dim = 4;
        let mut expect = vec![0.0f32; dim];
        for (i, r) in rows.iter().enumerate() {
            op.accumulate(&mut expect, r, i + 1);
        }
        op.finish(&mut expect, rows.len());
        let mut got = vec![f32::NAN; dim];
        kernels::pool_bag(op, &mut got, rows.iter().map(|r| r.as_slice()));
        for (a, b) in expect.iter().zip(&got) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}: {:?} vs {:?}", op, expect, got);
        }
    }
}

/// A config whose generated batches exercise empty bags (`pooling_min: 0`)
/// and split across `gpus` devices; `cached` turns the hot-row cache and
/// dedup annotation on.
fn cfg_for(gpus: usize, op: PoolingOp, cached: bool, seed: u64) -> EmbLayerConfig {
    let mut c = EmbLayerConfig::paper_weak_scaling(gpus).scaled_down(1024);
    c.pooling = op;
    c.pooling_min = 0;
    c.seed = seed;
    if cached {
        c.hot_cache_rows = (c.table_rows as u64 / 4).max(1);
        c.dedup = true;
    }
    c
}

/// The historical per-bag pooled-rows loop: flat iteration over a device's
/// bags, `PoolingOp::accumulate` per row, binary search for exported bags —
/// exactly what `compute_pooled_rows` did before the kernel rewrite.
fn pooled_rows_oracle(
    dp: &emb_retrieval::DevicePlan,
    plan: &ForwardPlan,
    batch: &SparseBatch,
    shard: &emb_retrieval::EmbeddingShard,
    seed: u64,
) -> Vec<f32> {
    let dim = plan.dim;
    let n = plan.batch_size;
    let mut out = vec![0.0f32; dp.n_bags * dim];
    for bag in 0..dp.n_bags {
        if dp.exported_bags.binary_search(&bag).is_ok() {
            continue;
        }
        let f = dp.features[bag / n];
        let sample = bag % n;
        let hasher = IndexHasher::new(f, shard.spec().rows, seed);
        let acc = &mut out[bag * dim..(bag + 1) * dim];
        let indices = batch.bag(f, sample);
        let mut count = 0usize;
        for &raw in indices {
            count += 1;
            let r = hasher.row(raw);
            plan.pooling.accumulate(acc, shard.weights(f).row(r), count);
        }
        plan.pooling.finish(acc, indices.len());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The arena-backed, feature-chunked `compute_pooled_rows` is
    /// bit-identical to the historical per-bag loop over a materialized
    /// shard, whether it reads the shard or draws rows from their init
    /// streams — across pooling ops,
    /// device counts, empty bags, and cache/dedup annotation on and off.
    #[test]
    fn pooled_rows_match_historical_path_bitwise(
        op in op_strategy(),
        gpus in 1usize..4,
        cached in any::<bool>(),
        seed in 0u64..500,
    ) {
        let cfg = cfg_for(gpus, op, cached, seed);
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.seed);
        let mut plan = ForwardPlan::build(
            &batch,
            &cfg.sharding(),
            cfg.dim,
            cfg.pooling,
            cfg.bags_per_block,
        );
        let machine = Machine::new(MachineConfig::dgx_v100(gpus));
        if let Some(planner) = HotCachePlanner::new(&cfg, machine.spec(0)) {
            planner.annotate(&mut plan, &batch);
        }
        let shards = materialize_shards(&plan, cfg.table_spec(), cfg.seed);
        for dp in &plan.devices {
            let from_shard = compute_pooled_rows(dp, &plan, &batch, &shards[dp.device], cfg.seed);
            // The shard-free source: rows drawn from their init streams.
            let mut drawn = Vec::new();
            let weights = Weights::Init(cfg.table_spec());
            compute_pooled_rows_into(dp, &plan, &batch, weights, cfg.seed, &mut drawn);
            let expect = pooled_rows_oracle(dp, &plan, &batch, &shards[dp.device], cfg.seed);
            for (source, got) in [("shard", &from_shard), ("init stream", &drawn)] {
                prop_assert_eq!(got.len(), expect.len());
                for (i, (a, b)) in expect.iter().zip(got).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "{} dev {} elem {}: {} vs {} (op {:?} cached {})",
                        source, dp.device, i, a, b, op, cached
                    );
                }
            }
        }
    }

    /// The pool's inline degradation is bit-identical to dispatched
    /// multi-thread execution: the same parallel reduction forced through
    /// the worker queue matches the (possibly inlined) default run bit for
    /// bit, at every width.
    #[test]
    fn inline_degraded_pool_matches_dispatch_bitwise(
        vals in proptest::collection::vec(-1000i32..1000, 1..200),
        width in 1usize..5,
    ) {
        let xs: Vec<f32> = vals.iter().map(|&v| v as f32 / 16.0).collect();
        let n_chunks = xs.len().div_ceil(7);
        let run = || -> Vec<u32> {
            (0..n_chunks)
                .into_par_iter()
                .map(|i| {
                    let c = &xs[i * 7..((i + 1) * 7).min(xs.len())];
                    c.iter().sum::<f32>().to_bits()
                })
                .collect()
        };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
        // Small totals degrade inline at this width; forcing dispatch takes
        // the chunk-claiming queue instead. Same bits either way.
        let (inline_or_default, dispatched) = pool.install(|| {
            (run(), rayon::with_forced_dispatch(run))
        });
        prop_assert_eq!(inline_or_default, dispatched, "width {}", width);
    }
}
