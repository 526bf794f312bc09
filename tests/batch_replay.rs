//! Replay proven equal to execution, and refused where it is not.
//!
//! A `PlannedBatch` keeps, per device, what its first clean execution did
//! (the lookup kernel's length and block ends, the store releases, when each
//! was delivered) and later executions book that record instead of
//! simulating the blocks and the puts again. Nothing in the public surface
//! says which of the two happened, and nothing may: every test here drives
//! one scenario twice — on a machine handed one *warmed* plan for every batch
//! (its deliveries on record before the scenario starts, so it replays
//! wherever the executor and the machine agree to) and on a machine handed a
//! *fresh* plan per batch (which can only execute) — and demands that the two
//! cannot be told apart: by what the batches returned, by the machine's
//! read-outs (down to the bits of the payload series, where telemetry records
//! one), by any observer, or by what the machine does next.
//!
//! The row-wise forward and the backward pass run on the same executor but
//! build their plans themselves and hand none out, so they are held to the
//! same demand from outside: a closed loop over one batch, whose first
//! execution records and whose later ones replay, against the same loop on
//! machines that refuse every replay.

use pgas_embedding::desim::{Dur, Interval, SimTime};
use pgas_embedding::gpusim::{
    FaultPlan, FaultSpec, Faults, Machine, MachineConfig, Send, TrafficStats,
};
use pgas_embedding::pgas::PgasConfig;
use pgas_embedding::retrieval::backend::{
    execute_batch, plan_for_batch, ArrivalLog, BatchRun, Exchange, ExecMode, PlannedBatch,
    ResiliencePolicy, ResilienceReport,
};
use pgas_embedding::retrieval::backward::{baseline_backward, pgas_backward};
use pgas_embedding::retrieval::rowwise::{rowwise_baseline_forward, rowwise_pgas_forward};
use pgas_embedding::retrieval::{EmbLayerConfig, RunReport, SparseBatch};
use pgas_embedding::simccl::CollectiveConfig;
use proptest::prelude::*;

/// One scenario: a machine, traffic that precedes the batches, and three
/// batches of one plan with gaps between them.
struct Scenario {
    cfg: EmbLayerConfig,
    /// The machine under test: its fabric, then its fault plan and observers.
    fabric: MachineConfig,
    setup: Box<dyn Fn(&mut Machine)>,
    /// The (clean) fabric the warmed plan met first.
    recorded_on: MachineConfig,
    pgas: PgasConfig,
    /// `(src, dst, payload, messages, ready ns)` sends made before batch 1.
    prior: Vec<(usize, usize, u64, u64, u64)>,
    start: SimTime,
    gaps: [Dur; 2],
    /// Per-batch deadline from its start, under a degradation policy.
    deadline: Option<Dur>,
}

impl Scenario {
    /// Three batches on a clean `g`-GPU crossbar.
    fn dgx(g: usize) -> Self {
        let mut cfg = EmbLayerConfig::paper_weak_scaling(g).scaled_down(128);
        cfg.bags_per_block = 3;
        Scenario {
            cfg,
            fabric: MachineConfig::dgx_v100(g),
            setup: Box::new(|_| ()),
            recorded_on: MachineConfig::dgx_v100(g),
            pgas: PgasConfig::default(),
            prior: Vec::new(),
            start: SimTime::from_us(40),
            gaps: [Dur::from_us(3), Dur::ZERO],
            deadline: None,
        }
    }

    /// The 4-GPU scenario on a machine `setup` has been applied to.
    fn with(setup: impl Fn(&mut Machine) + 'static) -> Self {
        Scenario {
            setup: Box::new(setup),
            ..Self::dgx(4)
        }
    }

    fn machine(&self) -> Machine {
        let mut m = Machine::new(self.fabric.clone());
        (self.setup)(&mut m);
        m
    }

    fn plan(&self, machine: &Machine) -> PlannedBatch {
        let b = SparseBatch::generate_counts_only(&self.cfg.batch_spec(), self.cfg.batch_seed(0));
        PlannedBatch::new(machine, plan_for_batch(&self.cfg, &b, machine.spec(0)))
    }

    /// A plan whose every device has its kernel, releases and deliveries on
    /// record: executed once, under the default runtime config, on a clean
    /// machine.
    fn warmed_plan(&self) -> PlannedBatch {
        let mut m = Machine::new(self.recorded_on.clone());
        let pb = self.plan(&m);
        let exchange = Exchange::OneSided(PgasConfig::default());
        execute_batch(&mut m, &exchange, &pb, SimTime::ZERO, None, None);
        pb
    }
}

/// Everything a scenario lets anyone see.
#[derive(Debug, PartialEq)]
struct Seen {
    runs: Vec<BatchRun>,
    /// Per logged batch, per destination.
    arrivals: Vec<Vec<Vec<(SimTime, u64)>>>,
    /// [`probe`]s after batch 1.
    probes: Vec<Interval>,
    wire: Wire,
    books: String,
    metrics: String,
    trace: Option<String>,
    blame_spans: Option<usize>,
}

/// What the fabric shows after a scenario, whatever observed it.
#[derive(Debug, PartialEq)]
struct Wire {
    traffic_bits: Vec<Vec<u64>>,
    total_traffic_bits: Vec<u64>,
    stats: TrafficStats,
    finish: SimTime,
}

impl Wire {
    fn of(m: &Machine) -> Wire {
        let n = m.n_gpus();
        let bits = |ts: pgas_embedding::desim::TimeSeries| -> Vec<u64> {
            ts.buckets().iter().map(|v| v.to_bits()).collect()
        };
        Wire {
            traffic_bits: (0..n * n)
                .map(|p| bits(m.traffic_between(p / n, p % n)))
                .collect(),
            total_traffic_bits: bits(m.total_traffic()),
            stats: m.traffic_stats(),
            finish: m.finish_time(),
        }
    }
}

/// A fault-blind transfer of `payload` bytes as `messages` messages.
fn send(
    m: &mut Machine,
    (src, dst): (usize, usize),
    payload: u64,
    messages: u64,
    ready: SimTime,
) -> Interval {
    let (efficiency, faults) = (1.0, Faults::Ignore);
    let s = Send {
        src,
        dst,
        payload,
        messages,
        ready,
        efficiency,
        faults,
    };
    m.transmit(&s)
        .expect("an ignored fault plan books")
        .interval
}

/// A send on every link and a kernel on every device, wanted from `at` on:
/// when they start shows when ports, links and streams were free.
fn probe(m: &mut Machine, at: SimTime) -> Vec<Interval> {
    let n = m.n_gpus();
    let pairs = (0..n * n).map(|p| (p / n, p % n)).filter(|(s, d)| s != d);
    let mut probes: Vec<_> = pairs.map(|pair| send(m, pair, 4096, 2, at)).collect();
    for d in 0..n {
        let run = m.run_kernel_varied(d, &[Dur::from_us(1)], SimTime::ZERO);
        probes.push(run.interval);
    }
    probes
}

/// Run `sc` with one `shared` plan for every batch, or a fresh one each.
fn drive(sc: &Scenario, shared: Option<&PlannedBatch>) -> Seen {
    let mut m = sc.machine();
    let n = m.n_gpus();
    for &(src, dst, payload, msgs, ready) in &sc.prior {
        send(&mut m, (src, dst), payload, msgs, SimTime::from_ns(ready));
    }
    let exchange = Exchange::OneSided(sc.pgas);
    let policy = ResiliencePolicy {
        batch_deadline: sc.deadline,
        ..ResiliencePolicy::default()
    };
    let mut books = ResilienceReport::default();
    let (mut runs, mut arrivals, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut log = ArrivalLog::new();
    let mut at = sc.start;
    for batch in 0..3 {
        let fresh = shared.is_none().then(|| sc.plan(&m));
        let pb = shared.or(fresh.as_ref()).expect("one or the other");
        // The middle batch runs unlogged; a deadline brings its books.
        let logged = batch != 1;
        let degrade = sc.deadline.map(|_| policy.degrade(at, &mut books));
        let run = execute_batch(
            &mut m,
            &exchange,
            pb,
            at,
            logged.then_some(&mut log),
            degrade,
        );
        if logged {
            arrivals.push((0..n).map(|d| log.arrivals(d).to_vec()).collect());
        }
        if batch == 0 {
            probes = probe(&mut m, run.start);
        }
        at = m.finish_time().max(run.end) + sc.gaps[batch.min(1)];
        runs.push(run);
    }
    Seen {
        runs,
        arrivals,
        probes,
        wire: Wire::of(&m),
        books: format!("{books:?}"),
        metrics: format!("{:?}", m.metrics().snapshot()),
        trace: m.trace().map(|t| t.to_chrome_json()),
        blame_spans: m.blame().map(|b| b.spans().len()),
    }
}

/// The scenario on a warmed plan (replaying from the first batch on, where
/// allowed), on a cold shared plan (the closed loops' way: the first batch
/// records what it may, the others replay it) and on a fresh plan per batch
/// (executing): the three must not differ. Returns what they showed.
fn replayed_equals_executed(sc: &Scenario) -> Seen {
    let executed = drive(sc, None);
    assert_eq!(drive(sc, Some(&sc.warmed_plan())), executed, "warmed plan");
    let cold = sc.plan(&sc.machine());
    assert_eq!(drive(sc, Some(&cold)), executed, "cold shared plan");
    executed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small configs, start instants, earlier traffic and gaps,
    /// unobserved or with telemetry recording the payload series at one of
    /// two bucket widths: replay and execution agree on everything.
    #[test]
    fn a_replayed_batch_is_indistinguishable_from_an_executed_one(
        observed in any::<bool>(),
        g in 2usize..5,
        bpb in 1usize..6,
        seed in 0u64..1000,
        start_ns in 0u64..5_000_000,
        gaps in (0u64..300_000, 0u64..300_000),
        bucket_ns in prop_oneof![Just(50_000u64), Just(777)],
        prior in prop::collection::vec((0usize..4, 1usize..4, 1u64..200_000, 1u64..32, 0u64..1_000_000), 0..6),
    ) {
        let mut sc = Scenario::dgx(g);
        sc.fabric = sc.fabric.with_traffic_bucket(Dur::from_ns(bucket_ns));
        if observed {
            sc.setup = Box::new(Machine::enable_telemetry);
        }
        sc.cfg.bags_per_block = bpb;
        sc.cfg.seed = seed;
        sc.prior = prior
            .into_iter()
            .map(|(src, off, payload, msgs, ready)| (src % g, (src % g + 1 + off % (g - 1)) % g, payload, msgs, ready))
            .collect();
        // Earlier traffic is over before the first kernel starts.
        sc.start = SimTime::from_ns(1_100_000 + start_ns);
        sc.gaps = [Dur::from_ns(gaps.0), Dur::from_ns(gaps.1)];
        let seen = replayed_equals_executed(&sc);
        prop_assert!(seen.wire.stats.messages > 0, "the batches sent nothing");
        prop_assert_eq!(seen.wire.total_traffic_bits.is_empty(), !observed);
    }
}

/// The clean 4-GPU scenario every refusal below perturbs.
fn clean() -> Seen {
    replayed_equals_executed(&Scenario::dgx(4))
}

#[test]
fn refused_under_an_active_fault_plan() {
    let sc =
        Scenario::with(|m| m.install_faults(FaultPlan::generate(11, 4, FaultSpec::chaos(0.6))));
    let seen = replayed_equals_executed(&sc);
    assert_ne!(seen.arrivals, clean().arrivals, "the plan never bit");
    // A plan with nothing in it is no plan.
    let trivial =
        Scenario::with(|m| m.install_faults(FaultPlan::generate(11, 4, FaultSpec::none())));
    assert_eq!(replayed_equals_executed(&trivial), clean());
}

#[test]
fn refused_on_a_straggling_device_while_the_healthy_ones_replay() {
    let stragglers = FaultSpec {
        straggler_prob: 0.5,
        straggler_factor: (1.3, 1.9),
        ..FaultSpec::none()
    };
    let mut bit = 0;
    for seed in 0..6 {
        let plan = FaultPlan::generate(seed, 4, stragglers);
        let slow = (0..4).filter(|&d| plan.straggler_factor(d) > 1.0).count();
        let sc =
            Scenario::with(move |m| m.install_faults(FaultPlan::generate(seed, 4, stragglers)));
        let seen = replayed_equals_executed(&sc);
        if (1..4).contains(&slow) {
            bit += 1;
            assert!(seen.runs[0].service() > clean().runs[0].service());
        }
    }
    assert!(bit > 0, "no seed slowed some but not all devices");
}

#[test]
fn refused_with_telemetry_on() {
    let seen = replayed_equals_executed(&Scenario::with(Machine::enable_telemetry));
    assert!(seen.metrics.contains("pgas_puts_issued"));
    assert_eq!(seen.runs, clean().runs);
}

#[test]
fn refused_with_blame_on() {
    let seen = replayed_equals_executed(&Scenario::with(Machine::enable_blame));
    // A wire span per send, not just the kernels and fences: more spans
    // than the trace of the same scenario shows transfers on the links.
    let trace = drive(&Scenario::with(Machine::enable_trace), None).trace;
    let is_send = |e: &&str| e.contains("\"ph\":\"X\"") && e.contains("\"pid\":\"link");
    let sends = trace.expect("traced").split("},{").filter(is_send).count();
    assert!(sends > 0);
    assert!(seen.blame_spans.unwrap() > sends);
}

#[test]
fn refused_with_trace_on_but_the_known_length_kernels_trace_alike() {
    let seen = replayed_equals_executed(&Scenario::with(Machine::enable_trace));
    let json = seen.trace.unwrap();
    assert!(json.contains("kernel(") && json.contains("pooled write"));
}

#[test]
fn refused_under_a_deadline() {
    let mut sc = Scenario::dgx(4);
    let service = clean().runs[0].service();
    // Expires while stores are still in flight: rows are shed, batch by
    // batch, which only the per-put path can account.
    sc.deadline = Some(service / 2);
    let seen = replayed_equals_executed(&sc);
    assert!(
        seen.books.contains("deadline_missed_batches: 3"),
        "{}",
        seen.books
    );
    assert!(!seen.books.contains("degraded_rows: 0,"), "{}", seen.books);
    // A deadline nothing misses changes no timing.
    sc.deadline = Some(service * 2);
    assert_eq!(replayed_equals_executed(&sc).runs, clean().runs);
}

#[test]
fn refused_for_a_device_whose_link_is_still_busy_at_the_origin() {
    let clean = clean();
    let mut sc = Scenario::dgx(4);
    // 64 MiB on 0 -> 1 from t = 0 clear GPU 0's injection port (15 GB/s)
    // after 4.5 ms and the link (10 GB/s) after 6.7: a batch starting at
    // 5 ms finds the port idle and the link busy, so device 0's stores to 1
    // queue behind the transfer while devices 1 to 3 replay.
    sc.prior = vec![(0, 1, 64 << 20, 1, 0)];
    sc.start = SimTime::from_us(5_000);
    let seen = replayed_equals_executed(&sc);
    assert!(seen.runs[0].service() > clean.runs[0].service() * 5);
    assert_eq!(seen.runs[2].service(), clean.runs[2].service());
    // A port alone: where it is slower than the links (100 MB/s here, on
    // the fabric the plan was recorded on too), 64 KiB leaving GPU 2 as its
    // kernel starts free the link in microseconds and the port in 655.
    let mut sc = Scenario::dgx(4);
    sc.fabric.specs[2].inj_bw = 1e8;
    sc.recorded_on = sc.fabric.clone();
    let unloaded = replayed_equals_executed(&sc);
    sc.prior = vec![(2, 3, 64 << 10, 1, 39_900)];
    let seen = replayed_equals_executed(&sc);
    assert!(
        seen.arrivals[0] != unloaded.arrivals[0],
        "the port held nothing up"
    );
    assert_eq!(seen.runs[2].service(), unloaded.runs[2].service());
}

#[test]
fn refused_under_a_second_runtime_config() {
    let mut sc = Scenario::dgx(4);
    sc.pgas = PgasConfig { max_payload: 64 };
    let seen = replayed_equals_executed(&sc);
    assert_ne!(seen.arrivals, clean().arrivals, "the default's deliveries");
}

#[test]
fn refused_on_a_second_fabric_of_equal_gpus() {
    // Recorded on a 4-GPU crossbar, executed on two nodes of two: same
    // GPUs, but half the peers sit behind a RoCE NIC.
    let mut sc = Scenario::dgx(4);
    sc.fabric = MachineConfig::pod_v100(2, 2);
    let seen = replayed_equals_executed(&sc);
    assert_ne!(seen.arrivals, clean().arrivals);
    // And the other way round: a plan that met the two-node fabric first
    // (where nothing can be recorded) still executes right on the crossbar.
    let mut sc = Scenario::dgx(4);
    sc.recorded_on = MachineConfig::pod_v100(2, 2);
    assert_eq!(replayed_equals_executed(&sc), clean());
}

/// The four pass functions that plan for themselves, by index: row-wise
/// baseline, row-wise PGAS, backward baseline, backward PGAS.
fn run_pass(pass: usize, m: &mut Machine, cfg: &EmbLayerConfig) -> RunReport {
    let (cc, pgas) = (CollectiveConfig::default(), PgasConfig::default());
    match pass {
        0 => rowwise_baseline_forward(m, cfg, &cc, ExecMode::Timing).report,
        1 => rowwise_pgas_forward(m, cfg, pgas, ExecMode::Timing).report,
        2 => baseline_backward(m, cfg, &cc, ExecMode::Timing).report,
        _ => pgas_backward(m, cfg, pgas, ExecMode::Timing).report,
    }
}

/// What a closed loop of `pass` over `sc`'s machine and earlier traffic lets
/// anyone see, observers aside, and the payload series it recorded (empty
/// unless telemetry is on; the report's is the machine's).
fn pass_seen(pass: usize, sc: &Scenario) -> ((String, Wire, Vec<Interval>), Vec<u64>) {
    let mut m = sc.machine();
    for &(src, dst, payload, msgs, ready) in &sc.prior {
        send(&mut m, (src, dst), payload, msgs, SimTime::from_ns(ready));
    }
    let r = run_pass(pass, &mut m, &sc.cfg);
    let comm: Vec<u64> = r
        .comm_series
        .buckets()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let report = format!("{} {:?} {:?}", r.total, r.breakdown, r.traffic);
    let mut wire = Wire::of(&m);
    assert_eq!(wire.total_traffic_bits, comm);
    wire.traffic_bits.iter_mut().for_each(Vec::clear);
    wire.total_traffic_bits.clear();
    ((report, wire, probe(&mut m, SimTime::ZERO)), comm)
}

#[test]
fn the_self_planned_passes_replay_what_they_execute_and_no_observer_moves_them() {
    // Five batches of two distinct ones: on a clean machine the backward
    // pass executes two and replays three, the row-wise forward (one plan
    // for every batch) executes one and replays four; a machine with any
    // observer on refuses them all, and must show the same report, wire and
    // free instants. Only telemetry records the payload series, which holds
    // every payload byte and does not move with a second observer. Backward
    // stores leave at block retirement, unmerged.
    type Observer = fn(&mut Machine);
    let observers: [(Observer, bool); 3] = [
        (Machine::enable_telemetry, true),
        (Machine::enable_blame, false),
        (Machine::enable_trace, false),
    ];
    for pass in 0..4 {
        for prior in [vec![], vec![(0, 1, 8 << 20, 1, 0)]] {
            let mut sc = Scenario::dgx(4);
            // Buckets narrow enough to tell one put's nanosecond.
            sc.fabric = sc.fabric.with_traffic_bucket(Dur::from_ns(777));
            (sc.cfg.n_batches, sc.cfg.distinct_batches) = (5, 2);
            sc.prior = prior;
            let (replayed, none) = pass_seen(pass, &sc);
            assert!(replayed.1.stats.messages > 0, "pass {pass} sent nothing");
            assert!(none.is_empty(), "pass {pass}: an unobserved series");
            for (observer, records) in observers {
                sc.setup = Box::new(observer);
                let (seen, series) = pass_seen(pass, &sc);
                assert_eq!(seen, replayed, "pass {pass}");
                assert_eq!(series.is_empty(), !records, "pass {pass}");
            }
            sc.setup = Box::new(|m| {
                m.enable_telemetry();
                m.enable_blame();
            });
            let (seen, series) = pass_seen(pass, &sc);
            let payload: f64 = series.iter().map(|&v| f64::from_bits(v)).sum();
            let sent = replayed.1.stats.payload_bytes as f64;
            assert!((payload - sent).abs() < 1e-9 * sent, "pass {pass}");
            sc.setup = Box::new(Machine::enable_telemetry);
            assert_eq!((seen, series), pass_seen(pass, &sc), "pass {pass}");
        }
    }
    // The earlier transfer is felt: device 0's stores queue behind it.
    let mut sc = Scenario::dgx(4);
    let clean = pass_seen(3, &sc).0;
    sc.prior = vec![(0, 1, 8 << 20, 1, 0)];
    assert_ne!(pass_seen(3, &sc).0 .0, clean.0);
}
