//! Property-based tests for the embedding-retrieval structures.

use desim::Dur;
use emb_retrieval::backend::{plain_plan, plan_for_batch, Backend, ExecMode, ResiliencePolicy};
use emb_retrieval::{
    hash_to_row, EmbLayerConfig, EmbeddingShard, EmbeddingTableSpec, ForwardPlan,
    IndexDistribution, IndexHasher, PoolingOp, Sharding, SparseBatch, SparseBatchSpec,
};
use gpusim::{FaultPlan, FaultSpec, GpuSpec, Machine, MachineConfig};
use proptest::prelude::*;

fn batch_strategy() -> impl Strategy<Value = (SparseBatch, usize)> {
    (
        1usize..5,
        1usize..4,
        2usize..20,
        0u32..3,
        1u32..6,
        any::<u16>(),
    )
        .prop_map(|(gpus, fpg, batch, pmin, pspan, seed)| {
            let spec = SparseBatchSpec {
                batch_size: batch.max(gpus),
                n_features: fpg * gpus,
                pooling_min: pmin,
                pooling_max: pmin + pspan,
                index_space: 500,
                distribution: IndexDistribution::Uniform,
            };
            (SparseBatch::generate(&spec, seed as u64), gpus)
        })
}

proptest! {
    /// Every plan covers every bag exactly once, lookups match the batch,
    /// and each block's destination rows partition its bags — for arbitrary
    /// workload shapes and block granularities.
    #[test]
    fn plans_are_exact_partitions((batch, gpus) in batch_strategy(), bpb in 1usize..10) {
        let sharding = Sharding::table_wise_round_robin(batch.n_features(), gpus);
        let plan = ForwardPlan::build(&batch, &sharding, 4, PoolingOp::Sum, bpb);
        let mut total_bags = 0usize;
        let mut total_lookups = 0u64;
        for dp in &plan.devices {
            let mut next = 0usize;
            for blk in &dp.blocks {
                prop_assert_eq!(blk.first_bag, next);
                next += blk.n_bags as usize;
                let dest_sum: u64 = dp.dest_rows(blk).iter().map(|&(_, r)| r).sum();
                prop_assert_eq!(dest_sum, blk.n_bags as u64);
                for w in dp.dest_rows(blk).windows(2) {
                    prop_assert!(w[0].0 < w[1].0, "destinations sorted/unique");
                }
            }
            prop_assert_eq!(next, dp.n_bags);
            total_bags += dp.n_bags;
            total_lookups += dp.total_lookups;
        }
        prop_assert_eq!(total_bags, batch.batch_size() * batch.n_features());
        prop_assert_eq!(total_lookups, batch.total_indices() as u64);
        // Mini-batch sizes tile the batch.
        prop_assert_eq!(plan.mb_sizes.iter().sum::<usize>(), batch.batch_size());
    }

    /// Annotating a plan for the hot-row cache, dedup or both leaves every
    /// block's destination slice ascending and zero-free, sends no
    /// destination more rows than the plain plan does, and stamps one
    /// measured record per block — on skewed inputs, across block sizes
    /// that straddle mini-batches and features.
    #[test]
    fn annotated_destinations_stay_ascending_and_zero_free(
        gpus in 2usize..5,
        exponent in 0.6f64..1.4,
        knobs in 1u8..4,
        bpb in 1usize..40,
        seed in any::<u16>(),
    ) {
        let mut cfg = EmbLayerConfig::paper_weak_scaling(gpus).scaled_down(1024);
        cfg.distribution = IndexDistribution::Zipf { exponent };
        (cfg.bags_per_block, cfg.seed) = (bpb, u64::from(seed));
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(0));
        let gpu = GpuSpec::v100();
        let plain = plain_plan(&cfg, &batch, &gpu);
        cfg.hot_cache_rows = if knobs & 1 != 0 { 64 } else { 0 };
        cfg.dedup = knobs & 2 != 0;
        let plan = plan_for_batch(&cfg, &batch, &gpu);
        for (dp, pp) in plan.devices.iter().zip(&plain.devices) {
            prop_assert_eq!(dp.cache_stats.len(), dp.blocks.len());
            for blk in &dp.blocks {
                let dests = dp.dest_rows(blk);
                prop_assert!(
                    dests.windows(2).all(|w| w[0].0 < w[1].0) && dests.iter().all(|d| d.1 > 0),
                    "device {} block at bag {}: {:?}", dp.device, blk.first_bag, dests
                );
            }
            for dst in 0..gpus {
                prop_assert!(dp.rows_to(dst) <= pp.rows_to(dst));
            }
        }
    }

    /// Every (feature, sample) output index lands inside its owner's used
    /// output region, and distinct pairs never collide.
    #[test]
    fn output_indices_are_injective((batch, gpus) in batch_strategy()) {
        let sharding = Sharding::table_wise_round_robin(batch.n_features(), gpus);
        let plan = ForwardPlan::build(&batch, &sharding, 4, PoolingOp::Sum, 3);
        let mut seen = std::collections::HashSet::new();
        for f in 0..batch.n_features() {
            for s in 0..batch.batch_size() {
                let (dst, idx) = plan.output_index(f, s);
                prop_assert!(dst < gpus);
                prop_assert!(idx + plan.dim <= plan.output_elems_on(dst));
                prop_assert!(seen.insert((dst, idx)), "collision at ({dst}, {idx})");
            }
        }
    }

    /// Table-wise shardings assign every feature exactly one owner, and
    /// features_on is consistent with owner_of.
    #[test]
    fn sharding_is_a_partition(n_features in 1usize..40, gpus in 1usize..6) {
        for sharding in [
            Sharding::table_wise_round_robin(n_features, gpus),
            // Block sharding needs divisibility.
            Sharding::table_wise_block(n_features * gpus, gpus),
        ] {
            let nf = match &sharding {
                Sharding::TableWise { assignment } => assignment.len(),
                _ => unreachable!(),
            };
            let mut owners = vec![0usize; nf];
            for d in 0..gpus {
                for f in sharding.features_on(d, nf) {
                    owners[f] += 1;
                    prop_assert_eq!(sharding.owner_of(f), Some(d));
                }
            }
            prop_assert!(owners.iter().all(|&c| c == 1));
        }
    }

    /// Hashing is total, in-range and deterministic over the whole input
    /// space.
    #[test]
    fn hashing_in_range(raw in any::<u64>(), salt in any::<u64>(), rows in 1usize..1_000_000) {
        let r = hash_to_row(raw, salt, rows);
        prop_assert!(r < rows);
        prop_assert_eq!(r, hash_to_row(raw, salt, rows));
        let h = IndexHasher::new(3, rows, salt);
        prop_assert!(h.row(raw) < rows);
    }

    /// Cache-hit fractions are valid probabilities, monotone in cache size,
    /// and Zipf dominates Uniform for small caches over huge spaces.
    #[test]
    fn cache_hit_is_probability(space_log2 in 10u32..40, rows in 1000u64..2_000_000, cache in 1u64..100_000) {
        let space = 1u64 << space_log2;
        for dist in [IndexDistribution::Uniform, IndexDistribution::Zipf { exponent: 1.2 }] {
            let h = dist.cache_hit_fraction(space, rows, cache);
            prop_assert!((0.0..=1.0).contains(&h), "{dist:?}: {h}");
            let h2 = dist.cache_hit_fraction(space, rows, cache * 2);
            prop_assert!(h2 >= h, "monotone in cache size");
        }
        if cache < rows / 2 && space > rows {
            let u = IndexDistribution::Uniform.cache_hit_fraction(space, rows, cache);
            let z = IndexDistribution::Zipf { exponent: 1.2 }.cache_hit_fraction(space, rows, cache);
            prop_assert!(z >= u, "skew concentrates traffic: z={z} u={u}");
        }
    }

    /// The whole resilient retrieval run is a pure function of the chaos
    /// seed: same seed ⇒ bit-identical functional outputs, timings,
    /// resilience books and machine finish time across two independent
    /// runs.
    #[test]
    fn identical_chaos_seed_identical_retrieval(
        seed in 0u64..200,
        intensity in 0.1f64..1.0,
        deadline_us in 50u64..5000,
    ) {
        let mut cfg = EmbLayerConfig::paper_weak_scaling(2).scaled_down(512);
        cfg.n_batches = 2;
        cfg.distinct_batches = 1;
        let run = || {
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            m.install_faults(FaultPlan::generate(seed, 2, FaultSpec::chaos(intensity)));
            let backend = Backend::pgas().with_policy(ResiliencePolicy {
                batch_deadline: Some(Dur::from_us(deadline_us)),
                ..ResiliencePolicy::default()
            });
            let r = backend.run_resilient(&mut m, &cfg, ExecMode::Functional);
            let outs: Vec<Vec<f32>> = r
                .result
                .outputs
                .expect("functional mode returns outputs")
                .iter()
                .map(|t| t.data().to_vec())
                .collect();
            (
                r.result.report.total,
                outs,
                r.resilience.degraded_rows,
                r.resilience.retries,
                r.resilience.batch_latencies,
                r.resilience.exhausted_puts,
                r.resilience.failover_at,
                r.resilience.degraded_by_dst,
                r.resilience.replica_rows,
                m.finish_time(),
            )
        };
        let a = run();
        let b = run();
        // Outputs must be bit-identical, not approximately equal.
        prop_assert_eq!(a, b);
    }

    /// scaled_down always produces a valid, divisible configuration.
    #[test]
    fn scaled_down_is_always_valid(gpus in 1usize..5, k in 1usize..2000) {
        let c = EmbLayerConfig::paper_weak_scaling(gpus).scaled_down(k);
        prop_assert_eq!(c.batch_size % gpus, 0);
        prop_assert_eq!(c.n_features % gpus, 0);
        prop_assert!(c.batch_size >= gpus);
        prop_assert!(c.table_rows >= 1);
        prop_assert!(c.bags_per_block >= 1);
        prop_assert!(c.index_space >= 1);
        let _ = c.sharding(); // must not panic
    }
}

proptest! {
    /// `init_row` is row `row` of `init_table`, bit for bit: the O(1) jump
    /// into the init stream lands where materializing the table does — at
    /// the first, the last and a random row, for the paper's dim, odd and
    /// wider-than-64 dims, and the extreme seeds.
    #[test]
    fn init_row_is_bit_identical_to_init_table(
        feature in 0usize..1000,
        rows in 1usize..2000,
        dim in prop_oneof![prop_oneof![Just(1usize), Just(3), Just(64), Just(130)], 1usize..200],
        seed in prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
        pick in any::<u64>(),
    ) {
        let spec = EmbeddingTableSpec { rows, dim };
        let table = EmbeddingShard::init_table(feature, spec, seed);
        let mut drawn = vec![f32::NAN; dim];
        for row in [0, rows - 1, (pick % rows as u64) as usize] {
            EmbeddingShard::init_row(feature, row, spec, seed, &mut drawn);
            for (c, (a, b)) in table.row(row).iter().zip(&drawn).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "feature {} row {}/{} col {}/{} seed {}", feature, row, rows, c, dim, seed
                );
            }
        }
    }
}
