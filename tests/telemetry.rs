//! Telemetry contract tests (EXT-10).
//!
//! Four promises, each load-bearing for the paper artifacts:
//!
//! 1. **Inert by default.** A freshly constructed machine carries a disabled
//!    registry and records no payload series, and enabling telemetry changes
//!    *nothing* the simulation reports — totals, phase breakdowns and traffic
//!    statistics are identical with and without metrics; the comm time
//!    series exists only with them, and a second observer does not move it.
//!    This is what keeps every pre-existing `results/` artifact
//!    byte-identical.
//! 2. **Deterministic snapshots.** With telemetry on, the snapshot is
//!    bit-identical at any rayon pool width.
//! 3. **The smoothing claim holds.** The EXT-10 sweep must show the PGAS
//!    backend's per-link peak-to-mean utilization strictly below the
//!    baseline's — the quantified form of the paper's "smoothed network
//!    usage" observation — and its artifacts must carry the claim, holding.
//! 4. **Only what is read is recorded.** Every layer together records the
//!    eight metrics some artifact, benchmark count or trace reads, and no
//!    other: a new metric comes with its reader.

use std::collections::BTreeSet;

use bench_harness::{netutil_sweep, Params, EXPERIMENTS};
use desim::{Dur, SimTime};
use emb_serve::{Controller, EmbServer, ServeBackendKind, ServeConfig};
use pgas_embedding::dlrm::{Dlrm, DlrmConfig, PipelineEngine};
use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::pgas::{GatewayConfig, PgasConfig};
use pgas_embedding::retrieval::backend::{
    execute_batch, plan_for_batch, Backend, Exchange, ExecMode, PlannedBatch, ResiliencePolicy,
};
use pgas_embedding::retrieval::backward::{baseline_backward, pgas_backward};
use pgas_embedding::retrieval::rowwise::{rowwise_baseline_forward, rowwise_pgas_forward};
use pgas_embedding::retrieval::{EmbLayerConfig, SparseBatch};
use pgas_embedding::simccl::CollectiveConfig;
use pgas_embedding::telemetry::validate_json_doc;
use rayon::ThreadPoolBuilder;

fn workload() -> EmbLayerConfig {
    let mut cfg = EmbLayerConfig::paper_weak_scaling(2).scaled_down(512);
    cfg.n_batches = 2;
    cfg
}

/// Run `f` under a dedicated pool of `threads` workers.
fn at_width<T>(threads: usize, f: impl Fn() -> T + Sync) -> T {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool")
        .install(f)
}

#[test]
fn telemetry_is_off_by_default_and_enabling_it_perturbs_nothing() {
    let cfg = workload();
    let backends: [&Backend; 3] = [
        &Backend::baseline(),
        &Backend::pgas(),
        &Backend::pgas().with_policy(ResiliencePolicy::default()),
    ];
    for b in backends {
        let mut off = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        assert!(!off.metrics().is_enabled(), "telemetry must be opt-in");
        let r_off = b.run(&mut off, &cfg, ExecMode::Timing).report;
        assert_eq!(
            off.metrics().snapshot(),
            pgas_embedding::telemetry::Snapshot::default(),
            "{}: a disabled registry must record nothing",
            b.name()
        );

        let mut on = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        on.enable_telemetry();
        let r_on = b.run(&mut on, &cfg, ExecMode::Timing).report;

        assert_eq!(r_off.total, r_on.total, "{}: total diverged", b.name());
        assert_eq!(r_off.breakdown, r_on.breakdown, "{}: breakdown", b.name());
        assert_eq!(r_off.traffic, r_on.traffic, "{}: traffic", b.name());
        assert!(r_off.comm_series.buckets().is_empty(), "{}", b.name());
        let payload = r_on.traffic.payload_bytes as f64;
        assert!((r_on.comm_series.total() - payload).abs() < 1e-9 * payload);
        let mut both = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        both.enable_telemetry();
        both.enable_blame();
        let r_both = b.run(&mut both, &cfg, ExecMode::Timing).report;
        let bits = |r: &pgas_embedding::retrieval::RunReport| -> Vec<u64> {
            r.comm_series
                .buckets()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&r_on), bits(&r_both), "{}: comm series", b.name());

        for d in 0..cfg.n_gpus as u32 {
            assert!(
                on.metrics().counter("kernels_launched", d, 0) >= cfg.n_batches as u64,
                "{}: device {d} launches a kernel per batch at least",
                b.name()
            );
        }
        assert!(
            !on.metrics().snapshot().timelines.is_empty(),
            "{}: link timelines must be populated",
            b.name()
        );
    }
}

#[test]
fn snapshots_are_bit_identical_across_thread_widths() {
    let cfg = workload();
    let eval = || {
        let mut m = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        m.enable_telemetry();
        Backend::pgas().run(&mut m, &cfg, ExecMode::Timing);
        m.metrics().snapshot()
    };
    let (s1, s4) = (at_width(1, eval), at_width(4, eval));
    assert_eq!(s1, s4, "snapshot must not depend on pool width");
    assert!(!s1.counters.is_empty() && !s1.timelines.is_empty());
}

#[test]
fn netutil_locks_in_the_smoothing_claim() {
    let r = netutil_sweep(4, 512, 2);
    assert!(
        r.smoothing_ok(),
        "aggregate PGAS peak-to-mean must be strictly below baseline: \
         baseline {:.3} vs pgas {:.3}",
        r.baseline_agg.peak_to_mean,
        r.pgas_agg.peak_to_mean
    );
    assert!(
        r.per_link_ok(),
        "every directed link must smooth under PGAS"
    );
    for l in &r.links {
        assert!(
            l.pgas.cv < l.baseline.cv,
            "link {}->{}: PGAS utilization must be less bursty (cv {:.3} vs {:.3})",
            l.src,
            l.dst,
            l.pgas.cv,
            l.baseline.cv
        );
    }

    // The artifacts `reproduce netutil --smoke` writes: claims hold, the
    // JSON is well-formed, the CSV carries both tables and the flag.
    let netutil = EXPERIMENTS.iter().find(|e| e.names == ["netutil"]);
    let params = Params {
        smoke: true,
        ..Params::default()
    };
    let docs = (netutil.expect("registered").run)(&params);
    let [doc] = &docs[..] else {
        panic!("netutil describes one document");
    };
    assert_eq!(doc.failed_claims(), Vec::<String>::new());
    let json = doc.json().expect("netutil has a JSON form");
    validate_json_doc(&json, &[]).expect("netutil json validates");
    assert!(json.contains("\"smoothing_ok\": true"));
    let table = doc.csv();
    assert!(table.contains("link,baseline_peak"));
    assert!(table.contains("time_ms,baseline_util,pgas_util"));
    assert!(table.contains("smoothing_ok=true"));
}

#[test]
fn serving_outcome_is_unmoved_by_telemetry() {
    let mut emb = EmbLayerConfig::paper_weak_scaling(2).scaled_down(512);
    emb.distinct_batches = 1;
    let scfg = ServeConfig::new(
        emb.clone(),
        ServeBackendKind::Baseline,
        50_000.0,
        Dur::from_us(200),
        4 * emb.batch_size,
        7,
    );

    let mut plain = Machine::new(MachineConfig::dgx_v100(emb.n_gpus));
    let r_plain = EmbServer::new(scfg.clone())
        .run(&mut plain)
        .expect("clean machine serves");
    let mut m = Machine::new(MachineConfig::dgx_v100(emb.n_gpus));
    m.enable_telemetry();
    let r = EmbServer::new(scfg).run(&mut m).expect("serves");
    assert_eq!(r.served, r_plain.served);
    assert_eq!(r.shed, r_plain.shed);
    assert_eq!(r.timed_out, r_plain.timed_out);
    assert_eq!(r.latency.p99(), r_plain.latency.p99());
    assert_eq!(r.end, r_plain.end);
    // The machine under the served batches counted their collectives.
    assert!(m.metrics().counter("collective_calls", 0, 0) >= r.batches as u64);
}

/// Every metric name `m`'s registry holds.
fn recorded_names(m: &Machine) -> BTreeSet<&'static str> {
    let snap = m.metrics().snapshot();
    let counters = snap.counters.iter().map(|(k, _)| k.name);
    counters
        .chain(snap.timelines.iter().map(|(k, _)| k.name))
        .collect()
}

#[test]
fn every_recorded_metric_has_a_reader() {
    let observed = |cfg: MachineConfig| {
        let mut m = Machine::new(cfg);
        m.enable_telemetry();
        m
    };
    let mut names = BTreeSet::new();
    let cfg = workload();

    // The three exchanges: collective and flat one-sided on a crossbar, the
    // gateway on a pod where rows cross nodes.
    let closed_loops: [&Backend; 2] = [&Backend::baseline(), &Backend::pgas()];
    for b in closed_loops {
        let mut m = observed(MachineConfig::dgx_v100(cfg.n_gpus));
        b.run(&mut m, &cfg, ExecMode::Timing);
        names.extend(recorded_names(&m));
    }
    let pod_cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(512);
    let mut m = observed(MachineConfig::pod_v100(2, 2));
    let batch = SparseBatch::generate_counts_only(&pod_cfg.batch_spec(), pod_cfg.batch_seed(0));
    let pb = PlannedBatch::new(&m, plan_for_batch(&pod_cfg, &batch, m.spec(0)));
    let gateway = Exchange::Gateway(GatewayConfig::default());
    execute_batch(&mut m, &gateway, &pb, SimTime::ZERO, None, None);
    assert!(m.metrics().counter("gateway_flushes", 0, 1) > 0);
    names.extend(recorded_names(&m));

    // The row-wise forward and the backward pass, both exchanges each.
    let (cc, pgas) = (CollectiveConfig::default(), PgasConfig::default());
    for pass in 0..4 {
        let mut m = observed(MachineConfig::dgx_v100(cfg.n_gpus));
        let report = match pass {
            0 => rowwise_baseline_forward(&mut m, &cfg, &cc, ExecMode::Timing).report,
            1 => rowwise_pgas_forward(&mut m, &cfg, pgas, ExecMode::Timing).report,
            2 => baseline_backward(&mut m, &cfg, &cc, ExecMode::Timing).report,
            _ => pgas_backward(&mut m, &cfg, pgas, ExecMode::Timing).report,
        };
        assert!(report.traffic.messages > 0, "pass {pass} sent nothing");
        names.extend(recorded_names(&m));
    }

    // A resilient served run and a controlled one.
    let mut emb = cfg.clone();
    emb.distinct_batches = 1;
    let mut scfg = ServeConfig::new(
        emb.clone(),
        ServeBackendKind::Resilient,
        50_000.0,
        Dur::from_us(200),
        4 * emb.batch_size,
        7,
    );
    let mut m = observed(MachineConfig::dgx_v100(emb.n_gpus));
    EmbServer::new(scfg.clone()).run(&mut m).expect("serves");
    names.extend(recorded_names(&m));
    scfg.slo = Some(Dur::from_ms(5));
    let mut ctrl = Controller::new(&scfg.batcher, emb.hot_cache_rows);
    let mut m = observed(MachineConfig::dgx_v100(emb.n_gpus));
    EmbServer::new(scfg)
        .run_controlled(&mut m, &mut ctrl)
        .expect("serves");
    names.extend(recorded_names(&m));

    // The executed DLRM pipeline.
    let model = Dlrm::new(DlrmConfig::tiny(2));
    let mut m = observed(MachineConfig::dgx_v100(2));
    PipelineEngine::new(&model).run(&mut m, &Backend::pgas(), ExecMode::Timing);
    names.extend(recorded_names(&m));

    let keepers = BTreeSet::from([
        // The benchmark's `sim.*` counts.
        "fabric_sends",
        "kernels_launched",
        "pgas_puts_issued",
        "gateway_flushes",
        "collective_calls",
        // The inter-node message columns of `pods.csv`.
        "fabric_tier_messages",
        // `netutil.csv` and the trace utilization tracks.
        "link_busy_ns",
        // The trace queue-depth tracks.
        "link_stall_ns",
    ]);
    assert_eq!(names, keepers);
}
