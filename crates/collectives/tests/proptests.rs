//! Property-based tests: the all-to-all's wire traffic for arbitrary byte
//! matrices and algorithms.

use desim::SimTime;
use gpusim::{Machine, MachineConfig};
use proptest::prelude::*;
use simccl::{all_to_all, Algorithm, CollectiveConfig, Faults, WorkHandle};

/// A collective's pipeline chunk: 4 MiB, NCCL's default buffer.
const CHUNK: u64 = 4 << 20;

fn cfg_strategy() -> impl Strategy<Value = CollectiveConfig> {
    prop_oneof![Just(Algorithm::Direct), Just(Algorithm::Ring)]
        .prop_map(|a| CollectiveConfig::default().with_algorithm(a))
}

/// A fault-blind all-to-all of `bytes` ready at `at` on every device.
fn a2a(m: &mut Machine, cfg: &CollectiveConfig, bytes: &[Vec<u64>], at: SimTime) -> WorkHandle {
    let ready = vec![at; bytes.len()];
    all_to_all(m, cfg, bytes, &ready, Faults::Ignore).expect("an ignored fault plan books")
}

proptest! {
    /// The direct schedule puts exactly the off-diagonal bytes on the wire,
    /// in one message per chunk; self segments are device-local copies.
    /// Segments span zero to four whole chunks plus a remainder of none,
    /// one byte or up to a chunk.
    #[test]
    fn direct_moves_exactly_the_off_diagonal_bytes(
        n in 1usize..5,
        seed in prop::collection::vec(
            (0u64..5, prop_oneof![Just(0u64), Just(1), 0u64..CHUNK]),
            25,
        ),
    ) {
        let mut m = Machine::new(MachineConfig::dgx_v100(n));
        let bytes: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| seed[i * 5 + j].0 * CHUNK + seed[i * 5 + j].1).collect())
            .collect();
        a2a(&mut m, &CollectiveConfig::default(), &bytes, SimTime::ZERO);
        let off = |i: usize, j: usize| if i == j { 0 } else { bytes[i][j] };
        let pairs = || (0..n * n).map(|p| (p / n, p % n));
        let payload: u64 = pairs().map(|(i, j)| off(i, j)).sum();
        let chunks: u64 = pairs().map(|(i, j)| off(i, j).div_ceil(CHUNK)).sum();
        prop_assert_eq!(m.traffic_stats().payload_bytes, payload);
        prop_assert_eq!(m.traffic_stats().messages, chunks);
    }

    /// Later ready times can only delay completion (monotonicity).
    #[test]
    fn ready_time_monotonicity(delay_us in 0u64..10_000, cfg in cfg_strategy()) {
        let n = 3;
        let bytes = vec![vec![256u64; n]; n];
        let mut m1 = Machine::new(MachineConfig::dgx_v100(n));
        let w1 = a2a(&mut m1, &cfg, &bytes, SimTime::ZERO);
        let mut m2 = Machine::new(MachineConfig::dgx_v100(n));
        let w2 = a2a(&mut m2, &cfg, &bytes, SimTime::from_us(delay_us));
        prop_assert!(w2.all_done() >= w1.all_done());
    }
}
