//! Property-based tests: collectives agree with algebraic references for
//! arbitrary inputs and algorithms.

use desim::SimTime;
use gpusim::{Machine, MachineConfig};
use proptest::prelude::*;
use simccl::{all_to_all_single, all_to_all_varied, Algorithm, CollectiveConfig};

fn cfg_strategy() -> impl Strategy<Value = CollectiveConfig> {
    (
        prop_oneof![Just(Algorithm::Direct), Just(Algorithm::Ring)],
        prop_oneof![Just(256u64), Just(4096), Just(4 << 20)],
    )
        .prop_map(|(a, c)| {
            CollectiveConfig::default()
                .with_algorithm(a)
                .with_chunk_bytes(c)
        })
}

proptest! {
    /// all_to_all twice with the transposed traffic matrix restores every
    /// element to some device; total element count is conserved; the result
    /// matches the direct transpose reference.
    #[test]
    fn all_to_all_is_transpose(n in 1usize..5, per in 1usize..16, cfg in cfg_strategy()) {
        let mut m = Machine::new(MachineConfig::dgx_v100(n));
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..n * per).map(|k| (i * 1000 + k) as f32).collect())
            .collect();
        let (out, work) = all_to_all_single(&mut m, &cfg, &inputs, &vec![SimTime::ZERO; n]);
        // Reference transpose.
        for (dst, o) in out.iter().enumerate() {
            prop_assert_eq!(o.len(), n * per);
            for src in 0..n {
                prop_assert_eq!(
                    &o[src * per..(src + 1) * per],
                    &inputs[src][dst * per..(dst + 1) * per]
                );
            }
        }
        prop_assert!(work.all_done() > SimTime::ZERO);
    }

    /// Varied all_to_all conserves elements and respects the counts matrix.
    #[test]
    fn varied_all_to_all_conserves(n in 1usize..5, counts_seed in prop::collection::vec(0usize..7, 25)) {
        let mut m = Machine::new(MachineConfig::dgx_v100(n));
        let counts: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..n).map(|j| counts_seed[i * 5 + j]).collect())
            .collect();
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let total: usize = counts[i].iter().sum();
                (0..total).map(|k| (i * 10_000 + k) as f32).collect()
            })
            .collect();
        let (out, _) = all_to_all_varied(
            &mut m,
            &CollectiveConfig::default(),
            &inputs,
            &counts,
            &vec![SimTime::ZERO; n],
        );
        let in_total: usize = inputs.iter().map(Vec::len).sum();
        let out_total: usize = out.iter().map(Vec::len).sum();
        prop_assert_eq!(in_total, out_total);
        for (dst, o) in out.iter().enumerate() {
            let expect: usize = (0..n).map(|s| counts[s][dst]).sum();
            prop_assert_eq!(o.len(), expect);
        }
    }

    /// Later ready times can only delay completion (monotonicity).
    #[test]
    fn ready_time_monotonicity(delay_us in 0u64..10_000) {
        let n = 3;
        let inputs: Vec<Vec<f32>> = (0..n).map(|_| vec![1.0f32; 3 * 64]).collect();
        let mut m1 = Machine::new(MachineConfig::dgx_v100(n));
        let (_, w1) = all_to_all_single(&mut m1, &CollectiveConfig::default(), &inputs, &vec![SimTime::ZERO; n]);
        let mut m2 = Machine::new(MachineConfig::dgx_v100(n));
        let late = vec![SimTime::from_us(delay_us); n];
        let (_, w2) = all_to_all_single(&mut m2, &CollectiveConfig::default(), &inputs, &late);
        prop_assert!(w2.all_done() >= w1.all_done());
    }
}
