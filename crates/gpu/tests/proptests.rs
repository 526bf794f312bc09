//! Property-based tests for the GPU machine model.

use desim::{Dur, SimTime, TimeSeries};
use gpusim::{FaultPlan, FaultSpec, KernelShape, Machine, MachineConfig};
use proptest::prelude::*;

proptest! {
    /// Same-link transfers never overlap and respect issue order; traffic
    /// accounting conserves payload bytes.
    #[test]
    fn link_fifo_and_conservation(sends in prop::collection::vec((1u64..1_000_000, 1u64..64, 0u64..1000), 1..50)) {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let mut prev_end = SimTime::ZERO;
        let mut total = 0u64;
        let mut msgs = 0u64;
        for (payload, n_msgs, ready_us) in sends {
            let iv = m.send(0, 1, payload, n_msgs, SimTime::from_us(ready_us));
            prop_assert!(iv.start >= prev_end);
            prev_end = iv.end;
            total += payload;
            msgs += n_msgs;
        }
        let stats = m.traffic_stats();
        prop_assert_eq!(stats.payload_bytes, total);
        prop_assert_eq!(stats.messages, msgs);
        let series_total = m.traffic_between(0, 1).total();
        prop_assert!((series_total - total as f64).abs() < 1e-3 * total as f64 + 1e-6);
    }

    /// The per-pair traffic store is sparse, its read-outs are not: after
    /// any send sequence `traffic_between` and `total_traffic` hold, bit for
    /// bit, what dense per-pair series fed the returned intervals hold.
    /// A slow injection port makes `inj_iv.end` outlast the link's booking;
    /// zero-payload and zero-message sends still touch their buckets.
    #[test]
    fn sparse_traffic_reads_out_as_the_dense_replay(
        pod in any::<bool>(),
        slow_injection in any::<bool>(),
        bucket_ns in prop_oneof![Just(100u64), Just(1_000), Just(50_000)],
        sends in prop::collection::vec(
            (0usize..4, 1usize..4, prop_oneof![Just(0u64), 1u64..4096, 1u64..4_000_000],
             0u64..64, 0u64..300),
            1..60,
        ),
    ) {
        let bucket = Dur::from_ns(bucket_ns);
        let mut cfg = if pod {
            MachineConfig::pod_v100(2, 2)
        } else {
            MachineConfig::dgx_v100(4)
        };
        if slow_injection {
            cfg.specs.iter_mut().for_each(|s| s.inj_bw = 2e9);
        }
        let mut m = Machine::new(cfg.with_traffic_bucket(bucket));
        let mut dense = vec![TimeSeries::new(bucket); 16];
        for (src, off, payload, n_msgs, ready_us) in sends {
            let dst = (src + off) % 4;
            let iv = m.send(src, dst, payload, n_msgs, SimTime::from_us(ready_us));
            dense[src * 4 + dst].add_spread(iv.start, iv.end, payload as f64);
        }
        let bits = |ts: &TimeSeries| -> Vec<u64> {
            ts.buckets().iter().map(|v| v.to_bits()).collect()
        };
        let mut total = TimeSeries::new(bucket);
        for (pair, ts) in dense.iter().enumerate() {
            prop_assert_eq!(bits(&m.traffic_between(pair / 4, pair % 4)), bits(ts));
            for (t, v) in ts.points().filter(|&(_, v)| v != 0.0) {
                total.add(t, v);
            }
        }
        prop_assert_eq!(bits(&m.total_traffic()), bits(&total));
    }

    /// Kernel duration is monotone in both block count and bytes per block.
    #[test]
    fn kernel_duration_monotone(blocks in 1u64..50_000, bytes in 1u64..1_000_000) {
        let spec = gpusim::GpuSpec::v100();
        let base = KernelShape::memory_bound(blocks, bytes).duration(&spec);
        let more_blocks = KernelShape::memory_bound(blocks * 2, bytes).duration(&spec);
        let more_bytes = KernelShape::memory_bound(blocks, bytes * 2).duration(&spec);
        prop_assert!(more_blocks >= base);
        prop_assert!(more_bytes >= base);
    }

    /// Splitting a transfer into more messages never makes it faster, and
    /// the wire time difference is exactly the extra header bytes.
    #[test]
    fn more_messages_never_faster(payload in 1u64..10_000_000, k in 2u64..1000) {
        let mut m1 = Machine::new(MachineConfig::dgx_v100(2));
        let one = m1.send(0, 1, payload, 1, SimTime::ZERO);
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let many = m2.send(0, 1, payload, k, SimTime::ZERO);
        prop_assert!(many.duration() >= one.duration());
    }

    /// The wave model's last block end equals the closed-form duration.
    #[test]
    fn wave_model_agrees_with_duration(blocks in 1u64..10_000, bytes in 256u64..1_000_000) {
        let spec = gpusim::GpuSpec::v100();
        let shape = KernelShape::memory_bound(blocks, bytes);
        let run = gpusim::KernelRun::wave_model(&shape, &spec, SimTime::ZERO);
        let d = shape.duration(&spec);
        prop_assert_eq!(run.interval.end - run.interval.start, d);
        // Block ends are non-decreasing in block index.
        for w in run.block_ends.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    /// The same fault seed yields the same plan, the same event trace and
    /// the same send outcomes — the whole chaos run is a pure function of
    /// `(seed, spec, call sequence)`.
    #[test]
    fn identical_fault_seed_identical_trace(
        seed in 0u64..1000,
        intensity in 0.05f64..1.0,
        sends in prop::collection::vec((1u64..100_000, 1u64..32, 0u64..500), 1..30),
    ) {
        let spec = FaultSpec::chaos(intensity);
        let run = || {
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            m.install_faults(FaultPlan::generate(seed, 2, spec));
            let outcomes: Vec<_> = sends
                .iter()
                .map(|&(payload, n_msgs, ready_us)| {
                    m.try_send(0, 1, payload, n_msgs, SimTime::from_us(ready_us))
                        .map(|iv| (iv.start, iv.end))
                        .map_err(|e| e.to_string())
                })
                .collect();
            let plan = m.faults().expect("plan installed");
            (plan.fingerprint(), plan.events().to_vec(), outcomes, m.finish_time())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(a.3, b.3);
    }

    /// A trivial plan (intensity 0) never changes any send outcome relative
    /// to a machine with no plan at all.
    #[test]
    fn trivial_plan_never_perturbs(
        sends in prop::collection::vec((1u64..100_000, 1u64..32, 0u64..500), 1..20),
    ) {
        let mut clean = Machine::new(MachineConfig::dgx_v100(2));
        let mut faulty = Machine::new(MachineConfig::dgx_v100(2));
        faulty.install_faults(FaultPlan::generate(99, 2, FaultSpec::chaos(0.0)));
        for &(payload, n_msgs, ready_us) in &sends {
            let at = SimTime::from_us(ready_us);
            let a = clean.send(0, 1, payload, n_msgs, at);
            let b = faulty.try_send(0, 1, payload, n_msgs, at).expect("trivial plan");
            prop_assert_eq!(a, b);
        }
    }

    /// finish_time is the max over all recorded activity.
    #[test]
    fn finish_time_is_max(n_kernels in 1usize..10, n_sends in 0usize..10) {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let mut latest = SimTime::ZERO;
        for i in 0..n_kernels {
            let r = m.run_kernel(i % 2, KernelShape::memory_bound(10, 1 << 12), SimTime::ZERO);
            latest = latest.max(r.interval.end);
        }
        for _ in 0..n_sends {
            let iv = m.send(0, 1, 4096, 4, SimTime::ZERO);
            latest = latest.max(iv.end);
        }
        prop_assert_eq!(m.finish_time(), latest);
    }
}

proptest! {
    /// Node arithmetic on arbitrary pod shapes: `node_of` partitions GPUs
    /// into contiguous blocks of `per_node`, `same_node` agrees with it,
    /// every gateway is its node's lowest member, and `node_members` is the
    /// exact preimage of `node_of`.
    #[test]
    fn pod_topology_node_math_is_consistent(nodes in 1usize..12, per_node in 1usize..8) {
        let t = gpusim::Topology::multi_node(
            nodes,
            per_node,
            gpusim::LinkSpec::nvlink_v100(),
            gpusim::LinkSpec::roce(),
        );
        prop_assert_eq!(t.nodes(), nodes);
        prop_assert_eq!(t.n_gpus(), nodes * per_node);
        for g in 0..t.n_gpus() {
            prop_assert_eq!(t.node_of(g), g / per_node);
            let gw = t.gateway_of(g);
            prop_assert!(t.same_node(g, gw));
            prop_assert_eq!(gw, t.node_of(g) * per_node);
        }
        for node in 0..nodes {
            let members: Vec<usize> = t.node_members(node).collect();
            prop_assert_eq!(members.len(), per_node);
            for &m in &members {
                prop_assert_eq!(t.node_of(m), node);
            }
            prop_assert_eq!(members[0], t.gateway_of(members[0]));
        }
        for a in 0..t.n_gpus() {
            for b in 0..t.n_gpus() {
                prop_assert_eq!(t.same_node(a, b), t.node_of(a) == t.node_of(b));
            }
        }
    }

    /// Inter-node pairs ride the slow tier, intra-node pairs the crossbar —
    /// for every pair of a random pod shape.
    #[test]
    fn pod_links_match_tiers(nodes in 1usize..8, per_node in 1usize..6) {
        let intra = gpusim::LinkSpec::nvlink_v100();
        let inter = gpusim::LinkSpec::roce();
        let t = gpusim::Topology::multi_node(nodes, per_node, intra, inter);
        for (a, b) in t.pairs() {
            let l = t.link(a, b);
            let expect = if t.same_node(a, b) { &intra } else { &inter };
            prop_assert_eq!(l.bandwidth, expect.bandwidth);
            prop_assert_eq!(l.latency, expect.latency);
            prop_assert_eq!(l.header_bytes, expect.header_bytes);
        }
    }
}
