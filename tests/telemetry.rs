//! Telemetry contract tests (EXT-10).
//!
//! Three promises, each load-bearing for the paper artifacts:
//!
//! 1. **Inert by default.** A freshly constructed machine carries a disabled
//!    registry, and enabling telemetry changes *nothing* the simulation
//!    reports — totals, phase breakdowns, traffic statistics and the comm
//!    time series are identical with and without metrics. This is what keeps
//!    every pre-existing `results/` artifact byte-identical.
//! 2. **Deterministic snapshots.** With telemetry on, the snapshot (and both
//!    exposition formats rendered from it) is bit-identical at any rayon
//!    pool width.
//! 3. **The smoothing claim holds.** The EXT-10 sweep must show the PGAS
//!    backend's per-link peak-to-mean utilization strictly below the
//!    baseline's — the quantified form of the paper's "smoothed network
//!    usage" observation — and its artifacts must carry the claim, holding.

use bench_harness::{netutil_sweep, Params, EXPERIMENTS};
use desim::Dur;
use emb_serve::{EmbServer, ServeBackendKind, ServeConfig};
use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::retrieval::backend::{
    BaselineBackend, ExecMode, PgasFusedBackend, ResilientBackend, RetrievalBackend,
};
use pgas_embedding::retrieval::EmbLayerConfig;
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
    let backends: [&dyn RetrievalBackend; 3] = [
        &BaselineBackend::new(),
        &PgasFusedBackend::new(),
        &ResilientBackend::new(),
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
        assert_eq!(
            r_off.comm_series.points().collect::<Vec<_>>(),
            r_on.comm_series.points().collect::<Vec<_>>(),
            "{}: comm series",
            b.name()
        );

        let snap = on.metrics().snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .find(|(k, _)| k.name == "batches_run")
                .map(|(_, v)| *v),
            Some(cfg.n_batches as u64),
            "{}: batches_run must count every batch",
            b.name()
        );
        assert!(
            !snap.timelines.is_empty(),
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
        PgasFusedBackend::new().run(&mut m, &cfg, ExecMode::Timing);
        let snap = m.metrics().snapshot();
        let prom = snap.to_prometheus();
        let json = snap.to_json();
        (snap, prom, json)
    };
    let (s1, p1, j1) = at_width(1, eval);
    let (s4, p4, j4) = at_width(4, eval);
    assert_eq!(s1, s4, "snapshot must not depend on pool width");
    assert_eq!(p1, p4, "prometheus exposition must be width-invariant");
    assert_eq!(j1, j4, "json exposition must be width-invariant");
    validate_json_doc(&j1, &["\"counters\"", "\"histograms\"", "\"timelines\""])
        .expect("snapshot json well-formed");
    assert!(p1.contains("# TYPE batch_service_us histogram"));
    assert!(p1.contains("batch_service_us_count"));
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
fn serving_report_carries_a_metrics_snapshot_when_enabled() {
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
    assert!(
        r_plain.metrics.is_none(),
        "no snapshot without opting into telemetry"
    );

    let mut m = Machine::new(MachineConfig::dgx_v100(emb.n_gpus));
    m.enable_telemetry();
    let r = EmbServer::new(scfg).run(&mut m).expect("serves");
    // Telemetry must not perturb the serving outcome either.
    assert_eq!(r.served, r_plain.served);
    assert_eq!(r.shed, r_plain.shed);
    assert_eq!(r.timed_out, r_plain.timed_out);

    let snap = r.metrics.expect("telemetry-enabled run returns a snapshot");
    let count = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k.name == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(count("serve_requests_generated"), Some(r.generated));
    assert_eq!(count("serve_requests_served"), Some(r.served));
    assert_eq!(count("serve_requests_shed"), Some(r.shed));

    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE serve_latency_us histogram"));
    assert!(prom.contains("serve_latency_us_bucket"));
    assert!(prom.contains("serve_queue_depth_peak"));
    validate_json_doc(&snap.to_json(), &["\"serve_latency_us\""])
        .expect("serve snapshot json well-formed");
}
