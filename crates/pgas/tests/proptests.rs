//! Property-based tests for the PGAS runtime.

use desim::{Dur, SimTime};
use gpusim::{FaultPlan, FaultSpec, Faults, Machine, MachineConfig};
use pgas_rt::{
    coalesce_rows, AggregatorConfig, Delivery, FabricError, GatewayConfig, GatewayPut, OneSided,
    PgasConfig, SymmetricHeap, QUIET_OVERHEAD,
};
use proptest::prelude::*;

/// `rows` 256 B row-stores from 0 to 1 at `at`, meeting the plan as `faults`
/// says.
fn put_rows(
    os: &mut OneSided,
    rows: u64,
    at: SimTime,
    faults: Faults,
) -> Result<Delivery, FabricError> {
    os.put(0, 1, coalesce_rows(rows, 256, 256), at, faults)
}

proptest! {
    /// Symmetric-heap put/get round-trips for arbitrary segment layouts,
    /// and writes never leak across PEs or segments.
    #[test]
    fn heap_put_get_round_trip(
        n_pes in 1usize..5,
        lens in prop::collection::vec(1usize..20, 1..6),
        writes in prop::collection::vec((0usize..6, 0usize..5, 0usize..19, -100f32..100.0), 0..40),
    ) {
        let mut heap = SymmetricHeap::new(n_pes);
        let segs: Vec<_> = lens.iter().map(|&l| heap.alloc(l)).collect();
        // Shadow model.
        let mut shadow: Vec<Vec<Vec<f32>>> =
            vec![lens.iter().map(|&l| vec![0.0; l]).collect(); n_pes];
        for (si, pe, idx, val) in writes {
            let si = si % segs.len();
            let pe = pe % n_pes;
            let idx = idx % lens[si];
            heap.put(segs[si], idx, &[val], pe);
            shadow[pe][si][idx] = val;
        }
        for (pe, pe_shadow) in shadow.iter().enumerate() {
            for (si, seg) in segs.iter().enumerate() {
                prop_assert_eq!(heap.segment(*seg, pe), &pe_shadow[si][..]);
            }
        }
    }

    /// atomic_add over any sequence equals the sum, regardless of order.
    #[test]
    fn heap_atomic_add_commutes(vals in prop::collection::vec(-10f32..10.0, 1..30)) {
        let mut h1 = SymmetricHeap::new(2);
        let s1 = h1.alloc(1);
        for &v in &vals {
            h1.atomic_add(s1, 0, &[v], 1);
        }
        let mut h2 = SymmetricHeap::new(2);
        let s2 = h2.alloc(1);
        let mut rev = vals.clone();
        rev.reverse();
        for &v in &rev {
            h2.atomic_add(s2, 0, &[v], 1);
        }
        let total: f32 = vals.iter().sum();
        prop_assert!((h1.segment(s1, 1)[0] - total).abs() < 1e-3);
        prop_assert!((h1.segment(s1, 1)[0] - h2.segment(s2, 1)[0]).abs() < 1e-4);
    }

    /// Coalescing conserves payload and message count scales with row
    /// width / max payload.
    #[test]
    fn coalescing_conserves_payload(rows in 0u64..10_000, row_bytes in 1u32..4096, max in 1u32..1024) {
        let b = coalesce_rows(rows, row_bytes, max);
        prop_assert_eq!(b.payload, rows * row_bytes as u64);
        if rows > 0 && row_bytes > 0 {
            prop_assert_eq!(b.messages, rows * row_bytes.div_ceil(max) as u64);
            prop_assert!(b.messages >= rows);
        }
    }

    /// quiet always covers the last issued put, for arbitrary put schedules.
    #[test]
    fn quiet_covers_all_puts(puts in prop::collection::vec((1u64..100, 0u64..10_000), 1..50)) {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let mut os = OneSided::new(&mut m);
        let mut sorted = puts.clone();
        sorted.sort_by_key(|&(_, t)| t);
        let mut last_end = SimTime::ZERO;
        for (rows, t_ns) in sorted {
            let put = put_rows(&mut os, rows, SimTime::from_ns(t_ns), Faults::Ignore);
            last_end = last_end.max(put.expect("books").interval.end);
        }
        let q = os.quiet(0, SimTime::ZERO);
        prop_assert!(q >= last_end);
    }

    /// Retry/backoff never reorders same-destination puts. With jitter
    /// disabled (delay extends *observation*, not wire occupancy, so it is
    /// not a retry effect) successive deliveries to one destination are
    /// non-overlapping in issue order; under full chaos, wire entry is
    /// still monotone because the retry loop runs inline.
    #[test]
    fn retries_never_reorder_same_destination_puts(
        seed in 0u64..500,
        intensity in 0.05f64..1.0,
        puts in prop::collection::vec((1u64..200, 0u64..2000), 1..30),
    ) {
        let spec = gpusim::FaultSpec {
            delay_prob: 0.0,
            ..FaultSpec::chaos(intensity)
        };
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        m.install_faults(FaultPlan::generate(seed, 2, spec));
        let mut os = OneSided::new(&mut m);
        let retry = Faults::Retry;
        let mut last_ok_end = SimTime::ZERO;
        for &(rows, t_us) in &puts {
            if let Ok(d) = put_rows(&mut os, rows, SimTime::from_us(t_us), retry) {
                prop_assert!(
                    d.interval.start >= last_ok_end,
                    "put delivered at {:?} overtook an earlier put ending {:?}",
                    d.interval.start,
                    last_ok_end
                );
                last_ok_end = d.interval.end;
            }
        }

        // Full chaos (jitter included): wire entry stays in issue order.
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        m2.install_faults(FaultPlan::generate(seed, 2, FaultSpec::chaos(intensity)));
        let mut os2 = OneSided::new(&mut m2);
        let mut last_start = SimTime::ZERO;
        for &(rows, t_us) in &puts {
            if let Ok(d) = put_rows(&mut os2, rows, SimTime::from_us(t_us), retry) {
                prop_assert!(d.interval.start >= last_start);
                last_start = d.interval.start;
            }
        }
    }

    /// A `quiet` with nothing outstanding completes at `at + QUIET_OVERHEAD`
    /// immediately, no matter how broken the fabric is: quiet only observes
    /// deliveries, it never touches the links.
    #[test]
    fn idle_quiet_is_immediate_even_with_links_down(
        seed in 0u64..1000,
        intensity in 0.0f64..=1.0,
        at_us in 0u64..10_000,
    ) {
        let mut m = Machine::new(MachineConfig::dgx_v100(4));
        m.install_faults(FaultPlan::generate(seed, 4, FaultSpec::chaos(intensity)));
        let mut os = OneSided::new(&mut m);
        let at = SimTime::from_us(at_us);
        let expect = at + QUIET_OVERHEAD;
        for src in 0..4 {
            prop_assert_eq!(os.quiet(src, at), expect);
        }
    }

    /// The §V aggregator never loses or duplicates a row on a 2 × 2 pod:
    /// wire payload == staged payload plus the same-node rows that bypass
    /// staging, and every flush is exactly one inter-node message, for any
    /// store schedule and thresholds.
    #[test]
    fn aggregator_conserves_rows(
        flush_kib in 1u64..64,
        wait_us in 1u64..200,
        stores in prop::collection::vec((0usize..3, 0u64..500), 1..200),
    ) {
        let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
        let mut gw = GatewayPut::new(&mut m, GatewayConfig {
            pgas: PgasConfig::default(),
            flush: AggregatorConfig {
                flush_bytes: flush_kib << 10,
                max_wait: Dur::from_us(wait_us),
            },
        });
        let mut sorted = stores.clone();
        sorted.sort_by_key(|&(_, t)| t);
        let mut same_node_rows = 0;
        for (dst, t_us) in sorted {
            let dst = 1 + dst % 3; // never self (src = 0); GPU 1 shares node 0
            same_node_rows += u64::from(dst == 1);
            gw.put_rows_nbi(0, dst, 1, 256, SimTime::from_us(t_us));
        }
        gw.drain(SimTime::from_ms(10));
        let (staged, flushes) = (gw.rows_staged(), gw.flushes());
        let wire = m.traffic_stats();
        prop_assert_eq!(wire.payload_bytes, (staged + same_node_rows) * 256);
        prop_assert_eq!(wire.messages, flushes + same_node_rows);
    }
}

proptest! {
    /// Gateway proxy routing on arbitrary pod shapes and put streams:
    /// same-node stores bypass staging entirely, every cross-node row is
    /// staged exactly once, each flush is one inter-node wire message (the
    /// tier-1 message count equals the flush count), at least one flush
    /// covers every (origin, destination-node) channel with traffic, and
    /// `quiet` never reports completion before the drain instant.
    #[test]
    fn gateway_routing_stages_exactly_the_cross_node_rows(
        nodes in 1usize..5,
        per_node in 1usize..5,
        puts in prop::collection::vec(
            (0usize..25, 0usize..25, 1u64..6, 0u64..40),
            1..40,
        ),
    ) {
        let n = nodes * per_node;
        let mut m = Machine::new(MachineConfig::pod_v100(nodes, per_node));
        let topo = m.topology().clone();
        let mut gw = GatewayPut::new(&mut m, GatewayConfig::default());
        let mut t = SimTime::ZERO;
        let mut cross_rows = 0u64;
        let mut channels = std::collections::BTreeSet::new();
        for &(src, dst, rows, dt_us) in &puts {
            let (src, dst) = (src % n, dst % n);
            if src == dst {
                continue; // self-stores are local copies, not fabric ops
            }
            t += Dur::from_us(dt_us);
            gw.put_rows_nbi(src, dst, rows, 256, t);
            if !topo.same_node(src, dst) {
                cross_rows += rows;
                channels.insert((src, topo.node_of(dst)));
            }
        }
        prop_assert_eq!(gw.rows_staged(), cross_rows);
        gw.drain(t);
        let flushes = gw.flushes();
        prop_assert!(flushes >= channels.len() as u64);
        if cross_rows == 0 {
            prop_assert_eq!(flushes, 0);
        }
        for src in 0..n {
            prop_assert!(gw.quiet(src, t) >= t);
        }
        drop(gw);
        prop_assert_eq!(m.traffic_stats().inter_node_messages, flushes);
    }
}
