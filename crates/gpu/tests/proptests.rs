//! Property-based tests for the GPU machine model.

use desim::{Dur, Interval, SimTime, TimeSeries};
use gpusim::{
    FabricError, FaultPlan, FaultSpec, Faults, KernelShape, Machine, MachineConfig, Send, SendTrain,
};
use proptest::prelude::*;

/// `payload` bytes from `src` to `dst` as `messages` messages at full
/// efficiency, meeting the plan as `faults` says.
fn transmit(
    m: &mut Machine,
    (src, dst): (usize, usize),
    payload: u64,
    messages: u64,
    ready: SimTime,
    faults: Faults,
) -> Result<Interval, FabricError> {
    let efficiency = 1.0;
    let s = Send {
        src,
        dst,
        payload,
        messages,
        ready,
        efficiency,
        faults,
    };
    m.transmit(&s).map(|d| d.interval)
}

/// A fault-blind transfer's wire interval.
fn send(m: &mut Machine, src: usize, dst: usize, payload: u64, msgs: u64, at: SimTime) -> Interval {
    transmit(m, (src, dst), payload, msgs, at, Faults::Ignore).expect("an ignored plan books")
}

/// One attempt's wire interval, or its fault.
fn try_send(
    m: &mut Machine,
    src: usize,
    dst: usize,
    payload: u64,
    msgs: u64,
    at: SimTime,
) -> Result<Interval, FabricError> {
    transmit(m, (src, dst), payload, msgs, at, Faults::Once)
}

/// `(destination offset from the source, payload, messages, ready offset
/// from the origin in ns)`: one send of a train.
type Planned = (usize, u64, u64, u64);

fn planned_sends() -> impl Strategy<Value = Vec<Planned>> {
    prop::collection::vec(
        (
            1usize..4,
            prop_oneof![1u64..4096, 1u64..400_000],
            1u64..64,
            0u64..40_000,
        ),
        0..50,
    )
}

/// Make `sends` from `src` one by one with their ready times counted from
/// `origin`.
fn send_each(m: &mut Machine, src: usize, origin: SimTime, sends: &[Planned]) {
    let n = m.n_gpus();
    for &(off, payload, msgs, ready) in sends {
        let dst = (src + 1 + off % (n - 1)) % n;
        send(m, src, dst, payload, msgs, origin + Dur::from_ns(ready));
    }
}

/// Record `sends` from `src` as a train anchored at `origin` on a machine
/// that is otherwise idle.
fn record(cfg: MachineConfig, src: usize, origin: SimTime, sends: &[Planned]) -> Option<SendTrain> {
    let mut m = Machine::new(cfg);
    assert!(m.record_train(src, origin), "an idle clean machine records");
    send_each(&mut m, src, origin, sends);
    m.finish_train()
}

/// Everything a machine shows of its fabric state: per-pair traffic bits
/// (empty unless observed), totals, statistics, the horizon and each
/// source's `quiet` instant.
fn fabric_state(m: &mut Machine) -> impl PartialEq + std::fmt::Debug {
    let n = m.n_gpus();
    let bits = |ts: TimeSeries| -> Vec<u64> { ts.buckets().iter().map(|v| v.to_bits()).collect() };
    let pairs: Vec<_> = (0..n * n)
        .map(|p| bits(m.traffic_between(p / n, p % n)))
        .collect();
    let quiet: Vec<_> = (0..n).map(|d| m.quiet(d, SimTime::ZERO)).collect();
    (
        pairs,
        bits(m.total_traffic()),
        m.traffic_stats(),
        m.finish_time(),
        quiet,
    )
}

/// One probe send on every link, ready at `at`: where each starts and ends
/// shows when the injection ports and the links were free.
fn probe_links(m: &mut Machine, at: SimTime) -> Vec<Interval> {
    let n = m.n_gpus();
    let pairs = (0..n * n).filter(|p| p / n != p % n);
    pairs.map(|p| send(m, p / n, p % n, 4096, 3, at)).collect()
}

proptest! {
    /// Same-link transfers never overlap and respect issue order; traffic
    /// accounting conserves payload bytes.
    #[test]
    fn link_fifo_and_conservation(sends in prop::collection::vec((1u64..1_000_000, 1u64..64, 0u64..1000), 1..50)) {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        m.enable_telemetry();
        let mut prev_end = SimTime::ZERO;
        let mut total = 0u64;
        let mut msgs = 0u64;
        for (payload, n_msgs, ready_us) in sends {
            let iv = send(&mut m, 0, 1, payload, n_msgs, SimTime::from_us(ready_us));
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
    /// any send sequence an observed machine's `traffic_between` and
    /// `total_traffic` hold, bit for bit, what dense per-pair series fed the
    /// returned intervals hold.
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
        m.enable_telemetry();
        let mut dense = vec![TimeSeries::new(bucket); 16];
        for (src, off, payload, n_msgs, ready_us) in sends {
            let dst = (src + off) % 4;
            let iv = send(&mut m, src, dst, payload, n_msgs, SimTime::from_us(ready_us));
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
        let one = send(&mut m1, 0, 1, payload, 1, SimTime::ZERO);
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let many = send(&mut m2, 0, 1, payload, k, SimTime::ZERO);
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
                    try_send(&mut m, 0, 1, payload, n_msgs, SimTime::from_us(ready_us))
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
            let a = send(&mut clean, 0, 1, payload, n_msgs, at);
            let b = try_send(&mut faulty, 0, 1, payload, n_msgs, at).expect("trivial plan");
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
            let iv = send(&mut m, 0, 1, 4096, 4, SimTime::ZERO);
            latest = latest.max(iv.end);
        }
        prop_assert_eq!(m.finish_time(), latest);
    }
}

proptest! {
    /// A replayed train is its sends: after the same earlier traffic, a
    /// machine that books a train recorded elsewhere, at another origin, and
    /// one that makes the sends one by one show the same fabric state (with
    /// no payload series: neither is observed), answer the same probe on
    /// every link, and agree again after a second round.
    #[test]
    fn a_replayed_train_is_its_sends(
        n in 2usize..6,
        src in 0usize..6,
        slow_injection in any::<bool>(),
        recorded_at in 0u64..1_000_000,
        earlier in prop::collection::vec((0usize..6, planned_sends()), 0..3),
        gaps in (0u64..200_000, 0u64..200_000),
        sends in planned_sends(),
    ) {
        let src = src % n;
        let config = || {
            let mut cfg = MachineConfig::dgx_v100(n);
            if slow_injection {
                cfg.specs.iter_mut().for_each(|s| s.inj_bw = 2e9);
            }
            cfg
        };
        let train = record(config(), src, SimTime::from_ns(recorded_at), &sends);
        let train = train.expect("one source's sends on idle intra-node links");
        prop_assert_eq!(train.sends(), sends.len() as u64);

        let (mut replayed, mut executed) = (Machine::new(config()), Machine::new(config()));
        for (from, sends) in &earlier {
            for m in [&mut replayed, &mut executed] {
                send_each(m, from % n, SimTime::from_ns(recorded_at / 2), sends);
            }
        }
        let mut origin = executed.finish_time() + Dur::from_ns(gaps.0);
        for _ in 0..2 {
            prop_assert!(replayed.replay_train(&train, origin));
            send_each(&mut executed, src, origin, &sends);
            prop_assert_eq!(fabric_state(&mut replayed), fabric_state(&mut executed));
            prop_assert_eq!(probe_links(&mut replayed, origin), probe_links(&mut executed, origin));
            origin = executed.finish_time() + Dur::from_ns(gaps.1);
        }
        prop_assert_eq!(fabric_state(&mut replayed), fabric_state(&mut executed));
        prop_assert!(replayed.total_traffic().buckets().is_empty());
    }

    /// A kernel launched by its known length is the kernel dispatched block
    /// by block: same interval, stream, horizon, telemetry and trace event —
    /// and on a straggling device the known length is refused.
    #[test]
    fn a_known_length_launch_is_the_dispatched_kernel(
        durs in prop::collection::vec(1u64..50_000, 0..300),
        ready in 0u64..100_000,
        seed in 0u64..50,
    ) {
        let durs: Vec<Dur> = durs.into_iter().map(Dur::from_ns).collect();
        let observed = || {
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            m.enable_telemetry();
            m.enable_trace();
            m.enable_blame();
            m
        };
        let (mut dispatched, mut timed) = (observed(), observed());
        let mut at = SimTime::from_ns(ready);
        let length = dispatched.run_kernel_varied(0, &durs, at).interval.duration();
        prop_assert!(timed.run_kernel_timed(0, durs.len(), length, at).is_some());
        for _ in 0..2 {
            let a = dispatched.run_kernel_varied(0, &durs, at).interval;
            let b = timed.run_kernel_timed(0, durs.len(), length, at);
            prop_assert_eq!(Some(a), b);
            at = a.end + Dur::from_ns(ready / 2);
        }
        prop_assert_eq!(dispatched.finish_time(), timed.finish_time());
        prop_assert_eq!(dispatched.stream_sync(0, SimTime::ZERO), timed.stream_sync(0, SimTime::ZERO));
        prop_assert_eq!(dispatched.metrics().snapshot(), timed.metrics().snapshot());
        let json = |m: &Machine| m.trace().expect("tracing").to_chrome_json();
        prop_assert_eq!(json(&dispatched), json(&timed));
        prop_assert_eq!(dispatched.blame().unwrap().spans(), timed.blame().unwrap().spans());

        let stragglers = FaultSpec { straggler_prob: 1.0, straggler_factor: (1.5, 2.0), ..FaultSpec::none() };
        let mut slow = Machine::new(MachineConfig::dgx_v100(2));
        slow.install_faults(FaultPlan::generate(seed, 2, stragglers));
        prop_assert!(slow.run_kernel_timed(0, durs.len(), length, at).is_none());
        prop_assert_eq!(slow.finish_time(), SimTime::ZERO);
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

/// Whatever a machine cannot book as a train it refuses, leaving no trace,
/// and whatever it could not replay it does not record either.
#[test]
fn a_train_is_refused_unless_the_fabric_is_idle_clean_and_the_same() {
    let origin = SimTime::from_us(300);
    // From GPU 1 of 4: to 3, 0, 3 and 2.
    let sends: Vec<Planned> = vec![
        (1, 512, 2, 0),
        (2, 4096, 16, 50),
        (1, 100_000, 40, 700),
        (3, 256, 1, 701),
    ];
    let dgx = || MachineConfig::dgx_v100(4);
    let with_injection = |bw: f64| {
        let mut cfg = dgx();
        cfg.specs[1].inj_bw = bw;
        cfg
    };
    let with_link = |scale: f64| {
        let mut link = gpusim::LinkSpec::nvlink_v100();
        link.bandwidth *= scale;
        MachineConfig {
            topology: gpusim::Topology::crossbar(4, link),
            ..dgx()
        }
    };
    // Booking `recorded_on`'s train on `cfg` after `setup` is refused and
    // changes nothing; `records` is whether recording the same sends there
    // may begin (`None`: no) and whether a train comes of it.
    let refused = |why: &str,
                   recorded_on: MachineConfig,
                   cfg: MachineConfig,
                   setup: &dyn Fn(&mut Machine),
                   records: Option<bool>| {
        let train = record(recorded_on, 1, origin, &sends);
        let train = train.unwrap_or_else(|| panic!("{why}: nothing recorded"));
        let mut m = Machine::new(cfg);
        setup(&mut m);
        let before = format!("{:?}", fabric_state(&mut m));
        assert!(!m.replay_train(&train, origin), "{why}: booked");
        assert_eq!(before, format!("{:?}", fabric_state(&mut m)), "{why}");
        assert_eq!(
            m.record_train(1, origin),
            records.is_some(),
            "{why}: recording"
        );
        if let Some(kept) = records {
            send_each(&mut m, 1, origin, &sends);
            assert_eq!(m.finish_train().is_some(), kept, "{why}: recorded");
        }
    };
    refused(
        "fault plan",
        dgx(),
        dgx(),
        &|m| m.install_faults(FaultPlan::generate(3, 4, FaultSpec::chaos(0.3))),
        None,
    );
    refused("telemetry", dgx(), dgx(), &|m| m.enable_telemetry(), None);
    refused("blame", dgx(), dgx(), &|m| m.enable_blame(), None);
    refused("trace", dgx(), dgx(), &|m| m.enable_trace(), None);
    refused(
        "a recording under way",
        dgx(),
        dgx(),
        &|m| assert!(m.record_train(0, SimTime::ZERO)),
        None,
    );
    let busy =
        |m: &mut Machine, dst: usize, bytes: u64| _ = send(m, 1, dst, bytes, 1, SimTime::ZERO);
    // A port this slow is busy for a millisecond per KiB while the link is
    // not; one this fast is never busy while the link is for 40 ms.
    refused(
        "busy injection port",
        with_injection(1e6),
        with_injection(1e6),
        &|m| busy(m, 2, 1 << 10),
        None,
    );
    refused(
        "busy link",
        with_injection(1e15),
        with_injection(1e15),
        &|m| busy(m, 3, 1 << 30),
        Some(false),
    );
    // The fabric is compared bitwise. These machines record trains of their
    // own, unless a send leaves the node.
    let ulp = 1.0 + f64::EPSILON;
    let idle = |_: &mut Machine| ();
    refused(
        "another injection bandwidth",
        dgx(),
        with_injection(dgx().specs[1].inj_bw * ulp),
        &idle,
        Some(true),
    );
    refused(
        "another link bandwidth",
        dgx(),
        with_link(ulp),
        &idle,
        Some(true),
    );
    refused(
        "peers on another node",
        dgx(),
        MachineConfig::multi_node_v100(2, 2),
        &idle,
        Some(false),
    );

    let train = record(dgx(), 1, origin, &sends).expect("recordable");
    let mut small = Machine::new(MachineConfig::dgx_v100(2));
    assert!(!small.replay_train(&train, origin), "fewer GPUs");
    // A trivial fault plan is no plan, and an earlier origin is as good as
    // any on an idle machine.
    let mut m = Machine::new(dgx());
    m.install_faults(FaultPlan::generate(3, 4, FaultSpec::none()));
    assert!(m.replay_train(&train, SimTime::ZERO));

    // Sends a train cannot hold end the recording without one.
    type Spoil = fn(&mut Machine, SimTime);
    let spoilers: [(&str, Spoil); 2] = [
        ("another source's", |m, at| _ = send(m, 0, 2, 512, 2, at)),
        ("one requested before the origin", |m, at| {
            _ = send(m, 1, 2, 512, 2, at - Dur::from_us(2))
        }),
    ];
    for (why, spoil) in spoilers {
        let mut m = Machine::new(dgx());
        assert!(m.record_train(1, origin));
        send_each(&mut m, 1, origin, &sends);
        spoil(&mut m, origin);
        assert!(m.finish_train().is_none(), "{why}: kept");
        let later = m.finish_time();
        assert!(m.record_train(1, later), "{why}: the recording did not end");
    }
}
