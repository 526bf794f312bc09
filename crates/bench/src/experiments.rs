//! The experiment drivers.

use desim::{Dur, SimTime, TimeSeries};
use emb_retrieval::backend::{
    plan_with_planner, Backend, Exchange, ExecMode, HotCachePlanner, ResiliencePolicy,
    ResilientResult,
};
use emb_retrieval::backward::{baseline_backward, pgas_backward};
use emb_retrieval::{EmbLayerConfig, InputPartition, RunReport, Sharding, SparseBatch};
use gpusim::{FaultPlan, FaultSpec, Faults, Machine, MachineConfig};
use pgas_rt::{coalesce_rows, AggregatorConfig, GatewayConfig, GatewayPut, OneSided, PgasConfig};
use rayon::par_cells;
use simccl::{all_to_all, Algorithm, CollectiveConfig};

/// One (baseline, PGAS) pair of runs at a given GPU count.
#[derive(Clone, Debug)]
pub struct RunPair {
    /// Number of GPUs.
    pub gpus: usize,
    /// Baseline backend report.
    pub baseline: RunReport,
    /// PGAS fused backend report.
    pub pgas: RunReport,
}

impl RunPair {
    /// Baseline time / PGAS time.
    pub fn speedup(&self) -> f64 {
        self.baseline.total.as_secs_f64() / self.pgas.total.as_secs_f64()
    }
}

/// A scaling sweep (weak or strong) over 1..=max_gpus.
#[derive(Clone, Debug)]
pub struct ScalingResult {
    /// One entry per GPU count, ascending from 1.
    pub runs: Vec<RunPair>,
}

impl ScalingResult {
    /// The run pair at `gpus`.
    pub fn at(&self, gpus: usize) -> &RunPair {
        &self.runs[gpus - 1]
    }

    /// Geometric-mean speedup over multi-GPU points (2..), as the paper
    /// reports it.
    pub fn geomean_speedup(&self) -> f64 {
        let multi: Vec<f64> = self.runs.iter().skip(1).map(RunPair::speedup).collect();
        if multi.is_empty() {
            return self.runs[0].speedup();
        }
        (multi.iter().map(|s| s.ln()).sum::<f64>() / multi.len() as f64).exp()
    }

    /// Weak-scaling factor of a backend at `gpus`:
    /// `runtime(1 GPU) / runtime(g GPUs)` (ideal = 1.0).
    pub fn weak_factor(&self, gpus: usize, pgas: bool) -> f64 {
        let t1 = self.pick(1, pgas);
        let tg = self.pick(gpus, pgas);
        t1 / tg
    }

    /// Strong-scaling factor (speedup over 1 GPU, ideal = g).
    pub fn strong_factor(&self, gpus: usize, pgas: bool) -> f64 {
        self.weak_factor(gpus, pgas)
    }

    fn pick(&self, gpus: usize, pgas: bool) -> f64 {
        let p = self.at(gpus);
        if pgas {
            p.pgas.total.as_secs_f64()
        } else {
            p.baseline.total.as_secs_f64()
        }
    }
}

/// Run both backends on a fresh machine.
pub fn run_pair(cfg: &EmbLayerConfig) -> RunPair {
    let mut mb = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
    let baseline = Backend::baseline()
        .run(&mut mb, cfg, ExecMode::Timing)
        .report;
    let mut mp = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
    let pgas = Backend::pgas().run(&mut mp, cfg, ExecMode::Timing).report;
    RunPair {
        gpus: cfg.n_gpus,
        baseline,
        pgas,
    }
}

/// Apply a harness-level scale factor: `scale = 1` is the paper's exact
/// configuration; larger values shrink every axis for quick runs.
pub fn scaled(cfg: EmbLayerConfig, scale: usize, batches: usize) -> EmbLayerConfig {
    let mut c = if scale > 1 {
        cfg.scaled_down(scale)
    } else {
        cfg
    };
    c.n_batches = batches;
    c
}

/// **Table I / Fig. 5 / Fig. 6** — weak scaling on 1..=max_gpus. Each GPU
/// count runs on its own fresh machines, so the sweep points run in
/// parallel (ordered collect keeps runs[g-1] = g GPUs).
pub fn weak_scaling(max_gpus: usize, scale: usize, batches: usize) -> ScalingResult {
    ScalingResult {
        runs: par_cells(max_gpus, |i| {
            run_pair(&scaled(
                EmbLayerConfig::paper_weak_scaling(i + 1),
                scale,
                batches,
            ))
        }),
    }
}

/// **Table II / Fig. 8 / Fig. 9** — strong scaling on 1..=max_gpus.
pub fn strong_scaling(max_gpus: usize, scale: usize, batches: usize) -> ScalingResult {
    ScalingResult {
        runs: par_cells(max_gpus, |i| {
            run_pair(&scaled(
                EmbLayerConfig::paper_strong_scaling(i + 1),
                scale,
                batches,
            ))
        }),
    }
}

/// A pair of communication-volume time series (Figures 7 and 10).
#[derive(Clone, Debug)]
pub struct CommVolumeResult {
    /// Payload bytes over time, PGAS fused.
    pub pgas: TimeSeries,
    /// Payload bytes over time, baseline.
    pub baseline: TimeSeries,
    /// PGAS run end (for axis scaling).
    pub pgas_end: Dur,
    /// Baseline run end.
    pub baseline_end: Dur,
    /// Per-bucket fraction of directed links inside an injected fault
    /// window (degraded or down), aligned with the PGAS series' buckets.
    /// All zeros when no fault plan is installed.
    pub fault_frac: Vec<f64>,
}

impl CommVolumeResult {
    /// Burstiness (coefficient of variation) of each series over its run.
    pub fn burstiness(&self) -> (f64, f64) {
        (
            self.pgas.burstiness(SimTime::ZERO + self.pgas_end),
            self.baseline.burstiness(SimTime::ZERO + self.baseline_end),
        )
    }
}

fn comm_volume(cfg: &EmbLayerConfig, bucket: Dur) -> CommVolumeResult {
    // The payload series is recorded on observed machines only.
    let mk = || {
        let mut m = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus).with_traffic_bucket(bucket));
        m.enable_telemetry();
        m
    };
    let mut mp = mk();
    let p = Backend::pgas().run(&mut mp, cfg, ExecMode::Timing).report;
    let mut mb = mk();
    let b = Backend::baseline()
        .run(&mut mb, cfg, ExecMode::Timing)
        .report;

    // Tag each bucket with how much of it the fabric spent inside a fault
    // window, averaged over directed links (the extra fig7/fig10 column).
    let horizon = p.total.max(b.total);
    let nb = (horizon.as_ns().div_ceil(bucket.as_ns())) as usize;
    let pairs: Vec<(usize, usize)> = (0..cfg.n_gpus)
        .flat_map(|s| {
            (0..cfg.n_gpus)
                .filter(move |&d| d != s)
                .map(move |d| (s, d))
        })
        .collect();
    let fault_frac = (0..nb)
        .map(|i| {
            if pairs.is_empty() {
                return 0.0;
            }
            let t0 = SimTime::ZERO + bucket * i as u64;
            let t1 = t0 + bucket;
            pairs
                .iter()
                .map(|&(s, d)| mp.fault_fraction(s, d, t0, t1))
                .sum::<f64>()
                / pairs.len() as f64
        })
        .collect();
    CommVolumeResult {
        pgas: p.comm_series,
        baseline: b.comm_series,
        pgas_end: p.total,
        baseline_end: b.total,
        fault_frac,
    }
}

/// **Fig. 7** — communication volume over time, weak-scaling config, 2 GPUs.
/// Profiles a small number of batches so individual batches are visible.
pub fn comm_volume_weak_2gpu(scale: usize, batches: usize) -> CommVolumeResult {
    let cfg = scaled(EmbLayerConfig::paper_weak_scaling(2), scale, batches);
    comm_volume(&cfg, fig_bucket(&cfg))
}

/// **Fig. 10** — communication volume over time, strong-scaling config,
/// 4 GPUs.
pub fn comm_volume_strong_4gpu(scale: usize, batches: usize) -> CommVolumeResult {
    let cfg = scaled(EmbLayerConfig::paper_strong_scaling(4), scale, batches);
    comm_volume(&cfg, fig_bucket(&cfg))
}

/// Pick a bucket that yields ~200 points over a run of this size.
fn fig_bucket(cfg: &EmbLayerConfig) -> Dur {
    // Rough per-batch compute estimate: bytes / bandwidth.
    let lookups = cfg.batch_size as u64
        * cfg.n_features as u64
        * u64::from(cfg.pooling_min + cfg.pooling_max)
        / 2
        / cfg.n_gpus.max(1) as u64;
    let bytes = lookups * (cfg.dim as u64 * 4) / cfg.n_gpus.max(1) as u64;
    let secs = (cfg.n_batches as f64) * (bytes as f64 * cfg.n_gpus as f64) / 900e9;
    Dur::from_secs_f64((secs / 200.0).max(1e-6))
}

/// Per-bucket utilization statistics of one directed link (or of the
/// across-link aggregate) over one run: the numbers behind the paper's
/// "smoothed network usage" claim.
#[derive(Clone, Copy, Debug)]
pub struct LinkUtilStats {
    /// Highest single-bucket utilization in `[0, 1]`.
    pub peak: f64,
    /// Mean utilization over the run's buckets.
    pub mean: f64,
    /// `peak / mean` (1.0 = perfectly smooth; 0 when the link was idle).
    pub peak_to_mean: f64,
    /// Coefficient of variation (stddev / mean) of per-bucket utilization.
    pub cv: f64,
}

impl LinkUtilStats {
    fn from_series(u: &[f64]) -> Self {
        let n = u.len().max(1) as f64;
        let mean = u.iter().sum::<f64>() / n;
        let peak = u.iter().copied().fold(0.0, f64::max);
        let var = u.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let (peak_to_mean, cv) = if mean > 0.0 {
            (peak / mean, var.sqrt() / mean)
        } else {
            (0.0, 0.0)
        };
        LinkUtilStats {
            peak,
            mean,
            peak_to_mean,
            cv,
        }
    }
}

/// One directed link's utilization statistics under both backends.
#[derive(Clone, Copy, Debug)]
pub struct NetUtilLink {
    /// Source device.
    pub src: usize,
    /// Destination device.
    pub dst: usize,
    /// Baseline collective path.
    pub baseline: LinkUtilStats,
    /// PGAS fused path.
    pub pgas: LinkUtilStats,
}

/// **EXT-10** — per-link utilization timelines, baseline vs PGAS, measured
/// from the telemetry registry's `link_busy_ns` timelines.
#[derive(Clone, Debug)]
pub struct NetUtilResult {
    /// GPU count.
    pub gpus: usize,
    /// Harness scale factor the run used.
    pub scale: usize,
    /// Batches per run.
    pub batches: usize,
    /// Timeline bucket width.
    pub bucket: Dur,
    /// Baseline run end.
    pub baseline_end: Dur,
    /// PGAS run end.
    pub pgas_end: Dur,
    /// Wire messages, baseline.
    pub baseline_messages: u64,
    /// Wire messages, PGAS (more, smaller — the coalesced one-sided stores).
    pub pgas_messages: u64,
    /// Per-directed-link statistics.
    pub links: Vec<NetUtilLink>,
    /// Mean utilization across links per bucket, baseline.
    pub baseline_series: Vec<f64>,
    /// Mean utilization across links per bucket, PGAS.
    pub pgas_series: Vec<f64>,
    /// Statistics of the aggregate baseline series.
    pub baseline_agg: LinkUtilStats,
    /// Statistics of the aggregate PGAS series.
    pub pgas_agg: LinkUtilStats,
}

impl NetUtilResult {
    /// Paper claim (2) on the aggregate: PGAS peak-to-mean strictly below
    /// baseline.
    pub fn smoothing_ok(&self) -> bool {
        self.pgas_agg.peak_to_mean > 0.0
            && self.pgas_agg.peak_to_mean < self.baseline_agg.peak_to_mean
    }

    /// Stricter per-link form: every directed link that carried traffic
    /// has a strictly lower peak-to-mean under PGAS.
    pub fn per_link_ok(&self) -> bool {
        !self.links.is_empty()
            && self
                .links
                .iter()
                .all(|l| l.pgas.peak_to_mean > 0.0 && l.pgas.peak_to_mean < l.baseline.peak_to_mean)
    }
}

/// Run baseline and PGAS on fresh telemetry-enabled machines and reduce the
/// per-link busy timelines to utilization statistics.
pub fn netutil_sweep(gpus: usize, scale: usize, batches: usize) -> NetUtilResult {
    assert!(gpus >= 2, "netutil needs at least one fabric link");
    let cfg = scaled(EmbLayerConfig::paper_weak_scaling(gpus), scale, batches);
    let bucket = fig_bucket(&cfg);
    let run = |pgas: bool| {
        let mut m = Machine::new(MachineConfig::dgx_v100(gpus).with_traffic_bucket(bucket));
        m.enable_telemetry();
        let rep = if pgas {
            Backend::pgas().run(&mut m, &cfg, ExecMode::Timing).report
        } else {
            Backend::baseline()
                .run(&mut m, &cfg, ExecMode::Timing)
                .report
        };
        (m, rep.total)
    };
    let (mb, baseline_end) = run(false);
    let (mp, pgas_end) = run(true);

    let bucket_ns = bucket.as_ns() as f64;
    let n_buckets = |end: Dur| (end.as_ns().div_ceil(bucket.as_ns())).max(1) as usize;
    let (nb_b, nb_p) = (n_buckets(baseline_end), n_buckets(pgas_end));
    // Busy-ns timeline → per-bucket utilization, zero-padded to the run end.
    let util = |m: &Machine, s: usize, d: usize, nb: usize| -> Vec<f64> {
        let mut out = vec![0.0; nb];
        if let Some(ts) = m.metrics().timeline("link_busy_ns", s as u32, d as u32) {
            for (i, v) in ts.buckets().iter().enumerate().take(nb) {
                out[i] = v / bucket_ns;
            }
        }
        out
    };

    let mut links = Vec::new();
    let mut baseline_series = vec![0.0; nb_b];
    let mut pgas_series = vec![0.0; nb_p];
    let mut n_links = 0usize;
    for s in 0..gpus {
        for d in 0..gpus {
            if s == d {
                continue;
            }
            let ub = util(&mb, s, d, nb_b);
            let up = util(&mp, s, d, nb_p);
            for (acc, v) in baseline_series.iter_mut().zip(&ub) {
                *acc += v;
            }
            for (acc, v) in pgas_series.iter_mut().zip(&up) {
                *acc += v;
            }
            n_links += 1;
            links.push(NetUtilLink {
                src: s,
                dst: d,
                baseline: LinkUtilStats::from_series(&ub),
                pgas: LinkUtilStats::from_series(&up),
            });
        }
    }
    let scale_by = 1.0 / n_links.max(1) as f64;
    baseline_series.iter_mut().for_each(|v| *v *= scale_by);
    pgas_series.iter_mut().for_each(|v| *v *= scale_by);

    NetUtilResult {
        gpus,
        scale,
        batches,
        bucket,
        baseline_end,
        pgas_end,
        baseline_messages: mb.traffic_stats().messages,
        pgas_messages: mp.traffic_stats().messages,
        baseline_agg: LinkUtilStats::from_series(&baseline_series),
        pgas_agg: LinkUtilStats::from_series(&pgas_series),
        links,
        baseline_series,
        pgas_series,
    }
}

/// Latency/degradation summary of one resilient run at one fault intensity.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// Accumulated EMB-stage wall time.
    pub total: Dur,
    /// Median batch latency.
    pub p50: Dur,
    /// 99th-percentile batch latency.
    pub p99: Dur,
    /// Retries across puts and collective chunks.
    pub retries: u64,
    /// Fraction of pooled rows served from the degradation fill.
    pub degraded_fraction: f64,
    /// Batch index at which PGAS→baseline failover triggered, if it did.
    pub failover_at: Option<usize>,
    /// Batches whose deadline expired before completion.
    pub deadline_missed: usize,
    /// SLO-violation-minutes per operating hour: sixty times the fraction
    /// of run time spent inside batches slower than the sweep's derived
    /// deadline (8x the clean median batch latency).
    pub slo_viol_min: f64,
}

impl ChaosRun {
    fn from_result(r: &ResilientResult, slo: Dur) -> Self {
        let total: f64 = r
            .resilience
            .batch_latencies
            .iter()
            .map(|l| l.as_secs_f64())
            .sum();
        let viol: f64 = r
            .resilience
            .batch_latencies
            .iter()
            .filter(|l| **l > slo)
            .map(|l| l.as_secs_f64())
            .sum();
        ChaosRun {
            total: r.result.report.total,
            p50: r.resilience.latency_quantile(0.5),
            p99: r.resilience.latency_quantile(0.99),
            retries: r.resilience.retries,
            degraded_fraction: r.resilience.degraded_fraction(),
            failover_at: r.resilience.failover_at,
            deadline_missed: r.resilience.deadline_missed_batches,
            // An empty `filter(..).sum()` is -0.0 (the float identity), which
            // would print as "-0.000"; clamp so a clean run reads 0.000.
            slo_viol_min: if viol > 0.0 && total > 0.0 {
                60.0 * viol / total
            } else {
                0.0
            },
        }
    }
}

/// One intensity point of the chaos sweep: the resilient PGAS path and the
/// baseline collective path over the *same* fault plan.
#[derive(Clone, Debug)]
pub struct ChaosPoint {
    /// Chaos intensity in `[0, 1]` (0 = clean fabric, strict no-op).
    pub intensity: f64,
    /// Resilient PGAS-first run.
    pub pgas: ChaosRun,
    /// Baseline collective run under the same faults.
    pub baseline: ChaosRun,
}

impl ChaosPoint {
    /// Baseline median latency over PGAS median latency (>1 = PGAS wins).
    pub fn speedup_p50(&self) -> f64 {
        self.baseline.p50.as_secs_f64() / self.pgas.p50.as_secs_f64()
    }
}

/// **`reproduce chaos`** — fault-injection sweep. For each intensity, both
/// serving paths run over an identical seeded [`FaultPlan`]; the report
/// gives p50/p99 batch latency, retry counts, the degraded-row fraction and
/// where (if anywhere) the baseline overtakes resilient PGAS.
///
/// Intensity 0 installs no plan at all, so its runs are bit-identical to
/// the plain backends — the speedup column reproduces Table I's entry for
/// this GPU count. The per-batch degradation deadline for the faulty
/// points is derived from the clean run (8× its median batch latency), so
/// the sweep needs intensity 0 first to enable deadline-based degradation.
pub fn chaos_sweep(
    gpus: usize,
    scale: usize,
    batches: usize,
    seed: u64,
    intensities: &[f64],
) -> Vec<ChaosPoint> {
    let cfg = scaled(EmbLayerConfig::paper_weak_scaling(gpus), scale, batches);
    let mut deadline: Option<Dur> = None;
    let mut out = Vec::new();
    for &intensity in intensities {
        let run = |strict: Backend| {
            let mut m = Machine::new(MachineConfig::dgx_v100(gpus));
            if intensity > 0.0 {
                m.install_faults(FaultPlan::generate(seed, gpus, FaultSpec::chaos(intensity)));
            }
            let policy = ResiliencePolicy {
                batch_deadline: if intensity > 0.0 { deadline } else { None },
                ..ResiliencePolicy::default()
            };
            strict
                .with_policy(policy)
                .run_resilient(&mut m, &cfg, ExecMode::Timing)
        };
        let p = run(Backend::pgas());
        let b = run(Backend::baseline());
        if deadline.is_none() && intensity == 0.0 {
            deadline = Some(p.resilience.latency_quantile(0.5) * 8u64);
        }
        let slo = deadline.unwrap_or(p.resilience.latency_quantile(0.5) * 8u64);
        out.push(ChaosPoint {
            intensity,
            pgas: ChaosRun::from_result(&p, slo),
            baseline: ChaosRun::from_result(&b, slo),
        });
    }
    out
}

/// **EXT-1** — backward pass: baseline collective rounds vs PGAS atomics.
pub fn backward_comparison(gpus: usize, scale: usize, batches: usize) -> RunPair {
    let cfg = scaled(EmbLayerConfig::paper_weak_scaling(gpus), scale, batches);
    let mut mb = Machine::new(MachineConfig::dgx_v100(gpus));
    let baseline = baseline_backward(
        &mut mb,
        &cfg,
        &CollectiveConfig::default(),
        ExecMode::Timing,
    )
    .report;
    let mut mp = Machine::new(MachineConfig::dgx_v100(gpus));
    let pgas = pgas_backward(&mut mp, &cfg, PgasConfig::default(), ExecMode::Timing).report;
    RunPair {
        gpus,
        baseline,
        pgas,
    }
}

/// One cell of the EXT-11 pod sweep: one topology shape × one row size,
/// exchanging the same uniform all-to-all byte matrix four ways.
#[derive(Clone, Debug)]
pub struct PodCell {
    /// Nodes in the pod.
    pub nodes: usize,
    /// GPUs per node.
    pub per_node: usize,
    /// Row (message) size of the PGAS paths, bytes.
    pub row_bytes: u32,
    /// Completion of the flat pairwise collective.
    pub alltoall_direct: Dur,
    /// Completion of the hierarchical (gather → inter-node aggregate →
    /// scatter) collective.
    pub alltoall_hier: Dur,
    /// Completion of flat per-row one-sided puts (coalesced at `row_bytes`).
    pub pgas_flat: Dur,
    /// Completion of gateway-aggregated one-sided puts.
    pub pgas_gateway: Dur,
    /// Messages the flat PGAS path put on the inter-node tier.
    pub flat_inter_messages: u64,
    /// Messages the gateway path put on the inter-node tier.
    pub gateway_inter_messages: u64,
}

impl PodCell {
    /// Total GPUs in this cell.
    pub fn gpus(&self) -> usize {
        self.nodes * self.per_node
    }
}

/// EXT-11 sweep output.
#[derive(Clone, Debug)]
pub struct PodsResult {
    /// Payload exchanged per ordered GPU pair, bytes.
    pub pair_bytes: u64,
    /// One cell per (shape, row size), shapes outer.
    pub cells: Vec<PodCell>,
}

impl PodsResult {
    /// Paper-scale claim (a): at 256 B rows there is a multi-node shape
    /// where flat per-row PGAS loses to the hierarchical alltoall — the
    /// header-dominated inter-node tier erases the one-sided win.
    pub fn flat_pgas_loses_cross_node(&self) -> bool {
        self.cells
            .iter()
            .any(|c| c.nodes > 1 && c.row_bytes == 256 && c.pgas_flat > c.alltoall_hier)
    }

    /// Paper-scale claim (b): at one of those same points, gateway
    /// aggregation restores the PGAS win over both the hierarchical
    /// collective and the flat path.
    pub fn gateway_recovers_pgas(&self) -> bool {
        self.cells.iter().any(|c| {
            c.nodes > 1
                && c.row_bytes == 256
                && c.pgas_flat > c.alltoall_hier
                && c.pgas_gateway < c.alltoall_hier
                && c.pgas_gateway < c.pgas_flat
        })
    }
}

/// Run one pod cell: same uniform traffic (`rows × row_bytes` per ordered
/// pair, everything ready at t = 0) through both collective schedules and
/// both PGAS paths.
fn pod_cell(nodes: usize, per_node: usize, row_bytes: u32, pair_bytes: u64) -> PodCell {
    let n = nodes * per_node;
    let rows = (pair_bytes / row_bytes as u64).max(1);
    let bytes: Vec<Vec<u64>> = (0..n)
        .map(|s| {
            (0..n)
                .map(|d| if s == d { 0 } else { rows * row_bytes as u64 })
                .collect()
        })
        .collect();
    let ready = vec![SimTime::ZERO; n];

    let collective = |alg: Algorithm| -> Dur {
        let mut m = Machine::new(MachineConfig::pod_v100(nodes, per_node));
        let cfg = CollectiveConfig::default().with_algorithm(alg);
        let w = all_to_all(&mut m, &cfg, &bytes, &ready, Faults::Ignore)
            .expect("an ignored fault plan books");
        (0..n)
            .map(|d| w.done_at(d))
            .max()
            .expect("at least one device")
            - SimTime::ZERO
    };
    let alltoall_direct = collective(Algorithm::Direct);
    let alltoall_hier = collective(Algorithm::Hierarchical);

    // Both PGAS paths issue the identical store stream: quarter-flush
    // chunks with destinations interleaved — the flat path so its wire
    // entry pipelines with the per-message issue cost, the gateway path so
    // its staging buffers exercise the size-flush discipline rather than
    // one giant end-of-stream drain.
    let pcfg = PgasConfig {
        max_payload: row_bytes,
    };
    let flush = AggregatorConfig::default();
    let chunk = (flush.flush_bytes / (4 * row_bytes as u64)).max(1);
    let rounds = rows.div_ceil(chunk);
    let each = |mut put: Box<dyn FnMut(usize, usize, u64) + '_>| {
        for src in 0..n {
            for r in 0..rounds {
                let take = chunk.min(rows - r * chunk);
                for dst in 0..n {
                    if dst != src {
                        put(src, dst, take);
                    }
                }
            }
        }
    };

    let mut fm = Machine::new(MachineConfig::pod_v100(nodes, per_node));
    let mut pgas_flat = Dur::ZERO;
    {
        let mut os = OneSided::with_config(&mut fm, pcfg);
        each(Box::new(|src, dst, take| {
            let batch = coalesce_rows(take, row_bytes, pcfg.max_payload);
            let put = os.put(src, dst, batch, SimTime::ZERO, Faults::Ignore);
            put.expect("an ignored fault plan books");
        }));
        for src in 0..n {
            pgas_flat = pgas_flat.max(os.quiet(src, SimTime::ZERO) - SimTime::ZERO);
        }
    }
    let flat_inter_messages = fm.traffic_stats().inter_node_messages;

    let mut gm = Machine::new(MachineConfig::pod_v100(nodes, per_node));
    let mut pgas_gateway = Dur::ZERO;
    {
        let mut gw = GatewayPut::new(&mut gm, GatewayConfig { pgas: pcfg, flush });
        each(Box::new(|src, dst, take| {
            gw.put_rows_nbi(src, dst, take, row_bytes, SimTime::ZERO);
        }));
        for src in 0..n {
            gw.drain_src(src, SimTime::ZERO);
        }
        for src in 0..n {
            pgas_gateway = pgas_gateway.max(gw.quiet(src, SimTime::ZERO) - SimTime::ZERO);
        }
    }
    let gateway_inter_messages = gm.traffic_stats().inter_node_messages;

    PodCell {
        nodes,
        per_node,
        row_bytes,
        alltoall_direct,
        alltoall_hier,
        pgas_flat,
        pgas_gateway,
        flat_inter_messages,
        gateway_inter_messages,
    }
}

/// **EXT-11** — the pod-fabric sweep: `shapes` (nodes × GPUs-per-node) ×
/// `row_sizes`, each cell exchanging `pair_bytes` per ordered GPU pair.
pub fn pods_sweep(shapes: &[(usize, usize)], row_sizes: &[u32], pair_bytes: u64) -> PodsResult {
    let cells: Vec<(usize, usize, u32)> = shapes
        .iter()
        .flat_map(|&(nodes, per_node)| row_sizes.iter().map(move |&rb| (nodes, per_node, rb)))
        .collect();
    let cells: Vec<PodCell> = par_cells(cells.len(), |i| {
        let (nodes, per_node, rb) = cells[i];
        pod_cell(nodes, per_node, rb, pair_bytes)
    });

    PodsResult { pair_bytes, cells }
}

/// One point of the message-size ablation.
#[derive(Clone, Debug)]
pub struct MsgSizePoint {
    /// Coalesced payload size used.
    pub max_payload: u32,
    /// Total run time.
    pub total: Dur,
    /// Fraction of wire bytes spent on headers.
    pub header_overhead: f64,
}

/// **EXT-3** — how the coalescing granularity changes PGAS cost.
pub fn message_size_ablation(gpus: usize, scale: usize, batches: usize) -> Vec<MsgSizePoint> {
    let cfg = scaled(EmbLayerConfig::paper_weak_scaling(gpus), scale, batches);
    let payloads = [64u32, 128, 256, 512, 1024];
    par_cells(payloads.len(), |i| {
        let max_payload = payloads[i];
        let backend = Backend {
            exchange: Exchange::OneSided(PgasConfig { max_payload }),
            policy: None,
        };
        let mut m = Machine::new(MachineConfig::dgx_v100(gpus));
        let r = backend.run(&mut m, &cfg, ExecMode::Timing).report;
        MsgSizePoint {
            max_payload,
            total: r.total,
            header_overhead: r.traffic.header_overhead(),
        }
    })
}

/// Result of the sharding ablation: CPU partition cost and end-to-end
/// retrieval time per scheme and backend.
#[derive(Clone, Debug)]
pub struct ShardingAblation {
    /// Table-wise partition CPU time.
    pub table_wise_cpu: Dur,
    /// Row-wise partition CPU time.
    pub row_wise_cpu: Dur,
    /// Host→device copy time (same for both here).
    pub h2d: Dur,
    /// Table-wise retrieval (baseline, PGAS).
    pub table_wise: RunPair,
    /// Row-wise retrieval (baseline, PGAS).
    pub row_wise: RunPair,
}

/// **EXT-4** — table-wise vs row-wise sharding (paper §V): CPU-side
/// input-partitioning cost plus the full retrieval stage under both
/// communication schemes.
pub fn sharding_ablation(gpus: usize, scale: usize, batches: usize) -> ShardingAblation {
    let cfg = scaled(EmbLayerConfig::paper_weak_scaling(gpus), scale, batches);
    let batch = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.seed);
    let tw = InputPartition::compute(&batch, &cfg.sharding());
    let rw = InputPartition::compute(&batch, &Sharding::RowWise { n_devices: gpus });

    let table_wise = run_pair(&cfg);
    let mut mb = Machine::new(MachineConfig::dgx_v100(gpus));
    let rw_base = emb_retrieval::rowwise::rowwise_baseline_forward(
        &mut mb,
        &cfg,
        &CollectiveConfig::default(),
        ExecMode::Timing,
    )
    .report;
    let mut mp = Machine::new(MachineConfig::dgx_v100(gpus));
    let rw_pgas = emb_retrieval::rowwise::rowwise_pgas_forward(
        &mut mp,
        &cfg,
        PgasConfig::default(),
        ExecMode::Timing,
    )
    .report;
    ShardingAblation {
        table_wise_cpu: tw.cpu_time,
        row_wise_cpu: rw.cpu_time,
        h2d: tw.h2d_time,
        table_wise,
        row_wise: RunPair {
            gpus,
            baseline: rw_base,
            pgas: rw_pgas,
        },
    }
}

/// **EXT-5** — uniform vs Zipf-skewed indices, both backends.
pub fn zipf_ablation(gpus: usize, scale: usize, batches: usize) -> (RunPair, RunPair) {
    let uniform = scaled(EmbLayerConfig::paper_weak_scaling(gpus), scale, batches);
    let mut skewed = uniform.clone();
    skewed.distribution = emb_retrieval::IndexDistribution::Zipf { exponent: 1.1 };
    (run_pair(&uniform), run_pair(&skewed))
}

/// Zipf exponents the EXT-9 skew sweep measures (`0.0` = uniform indices).
pub const SKEW_ALPHAS: [f64; 4] = [0.0, 0.8, 1.0, 1.2];

/// Hot-row cache sizes the EXT-9 sweep measures, in *pre-scale* rows per
/// remote table (harness `--scale K` divides them, like every other axis).
/// `0` is the uncached/undeduped reference column.
pub const SKEW_CACHE_ROWS: [u64; 3] = [0, 24_576, 98_304];

/// One cell of the EXT-9 skew × cache-size grid.
#[derive(Clone, Debug)]
pub struct SkewCell {
    /// Zipf exponent of the raw indices (`0.0` = uniform).
    pub alpha: f64,
    /// Configured hot-row cache size in pre-scale rows (0 = cache and
    /// dedup both off — the reference column).
    pub cache_rows: u64,
    /// Replica rows per remote table actually used, after harness scaling
    /// and HBM-capacity clamping (what the hit model is evaluated at).
    pub replica_rows: u64,
    /// Baseline collective run (with cache + dedup when `cache_rows > 0`).
    pub baseline: RunReport,
    /// PGAS fused run (with cache + dedup when `cache_rows > 0`).
    pub pgas: RunReport,
    /// Hot-set hit rate measured over every lookup of a canonical batch
    /// (0 when uncached).
    pub measured_hit: f64,
    /// The analytic [`emb_retrieval::IndexDistribution::cache_hit_fraction`]
    /// model evaluated at `replica_rows` (0 when uncached).
    pub model_hit: f64,
}

impl SkewCell {
    /// Distribution label for tables (`uniform` / `zipf(α)`).
    pub fn label(&self) -> String {
        if self.alpha == 0.0 {
            "uniform".to_string()
        } else {
            format!("zipf({})", self.alpha)
        }
    }
}

/// Result of **`reproduce skew`** (EXT-9).
#[derive(Clone, Debug)]
pub struct SkewSweep {
    /// GPUs in the machine.
    pub gpus: usize,
    /// Harness scale the grid ran at.
    pub scale: usize,
    /// All cells, alpha-major in [`SKEW_ALPHAS`] × [`SKEW_CACHE_ROWS`] order.
    pub cells: Vec<SkewCell>,
}

impl SkewSweep {
    /// The uncached reference cell sharing `cell`'s distribution.
    pub fn uncached(&self, cell: &SkewCell) -> &SkewCell {
        self.cells
            .iter()
            .find(|c| c.alpha == cell.alpha && c.cache_rows == 0)
            .expect("every alpha has a cache_rows = 0 reference cell")
    }

    /// PGAS time of the same-distribution uncached cell over `cell`'s
    /// PGAS time (>1 = the cache helps).
    pub fn pgas_speedup(&self, cell: &SkewCell) -> f64 {
        self.uncached(cell).pgas.total.as_secs_f64() / cell.pgas.total.as_secs_f64()
    }

    /// Baseline time of the uncached cell over `cell`'s baseline time.
    pub fn baseline_speedup(&self, cell: &SkewCell) -> f64 {
        self.uncached(cell).baseline.total.as_secs_f64() / cell.baseline.total.as_secs_f64()
    }

    /// Fraction of the uncached cell's PGAS wire payload that `cell`'s
    /// exported bags and collapsed duplicates removed.
    pub fn remote_bytes_reduction(&self, cell: &SkewCell) -> f64 {
        let r = self.uncached(cell).pgas.traffic.payload_bytes;
        if r == 0 {
            return 0.0;
        }
        1.0 - cell.pgas.traffic.payload_bytes as f64 / r as f64
    }

    /// The headline cell: largest exponent with the largest cache.
    pub fn headline(&self) -> &SkewCell {
        self.cells
            .iter()
            .filter(|c| c.cache_rows == *SKEW_CACHE_ROWS.last().unwrap())
            .max_by(|a, b| a.alpha.total_cmp(&b.alpha))
            .expect("grid includes the largest cache size")
    }
}

/// **`reproduce skew`** — EXT-9: hot-row replication cache × index skew.
/// Sweeps [`SKEW_ALPHAS`] × [`SKEW_CACHE_ROWS`] on the weak-scaling config,
/// running both backends per cell. Cached cells also enable batch-prep
/// dedup; the `cache_rows = 0` column runs completely plain and anchors the
/// per-distribution speedups. Every cell zeroes `cache_rows_scale` so the
/// analytic L2 derating never mixes with measured hot-set accounting
/// (DESIGN.md §10). Cache/dedup profiling is per-index, so this experiment
/// materializes raw indices and is meant to run at `--scale 16` or smaller
/// workloads, not paper scale — it is deliberately *not* part of
/// `reproduce all`.
pub fn skew_sweep(gpus: usize, scale: usize, batches: usize) -> SkewSweep {
    let n_cells = SKEW_ALPHAS.len() * SKEW_CACHE_ROWS.len();
    let cells = par_cells(n_cells, |i| {
        let alpha = SKEW_ALPHAS[i / SKEW_CACHE_ROWS.len()];
        let cache_rows = SKEW_CACHE_ROWS[i % SKEW_CACHE_ROWS.len()];
        let mut cfg = EmbLayerConfig::paper_weak_scaling(gpus);
        if alpha > 0.0 {
            cfg.distribution = emb_retrieval::IndexDistribution::Zipf { exponent: alpha };
        }
        cfg.hot_cache_rows = cache_rows;
        cfg.dedup = cache_rows > 0;
        let mut cfg = scaled(cfg, scale, batches);
        // Measured hot-set stats replace the analytic L2 derating;
        // zero it everywhere (including the reference column) so the
        // two models never mix within the grid.
        cfg.cache_rows_scale = 0.0;

        let pair = run_pair(&cfg);
        let (measured_hit, replica_rows) = if cache_rows > 0 {
            let m = Machine::new(MachineConfig::dgx_v100(gpus));
            let planner =
                HotCachePlanner::new(&cfg, m.spec(0)).expect("cache enabled in this cell");
            let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(0));
            let plan = plan_with_planner(&cfg, &batch, m.spec(0), Some(&planner));
            (plan.measured_hit, plan.cache_rows)
        } else {
            (0.0, 0)
        };
        let model_hit = cfg.distribution.cache_hit_fraction(
            cfg.index_space,
            cfg.table_rows as u64,
            replica_rows,
        );
        SkewCell {
            alpha,
            cache_rows,
            replica_rows,
            baseline: pair.baseline,
            pgas: pair.pgas,
            measured_hit,
            model_hit,
        }
    });
    SkewSweep { gpus, scale, cells }
}

/// **EXT-6** — beyond the paper's testbed: weak scaling projected onto an
/// 8× A100 NVSwitch-class machine (per-pair links scaled to NVLink3-era
/// effective rates) and onto larger GPU counts of the V100 crossbar.
pub fn whatif_projection(max_gpus: usize, scale: usize, batches: usize) -> Vec<(String, RunPair)> {
    let mut out = Vec::new();
    for g in [2usize, 4, 8] {
        if g > max_gpus {
            break;
        }
        let cfg = scaled(EmbLayerConfig::paper_weak_scaling(g), scale, batches);
        // V100 crossbar beyond the paper's 4 GPUs.
        let mut mb = Machine::new(MachineConfig::dgx_v100(g));
        let baseline = Backend::baseline()
            .run(&mut mb, &cfg, ExecMode::Timing)
            .report;
        let mut mp = Machine::new(MachineConfig::dgx_v100(g));
        let pgas = Backend::pgas().run(&mut mp, &cfg, ExecMode::Timing).report;
        out.push((
            format!("v100x{g}"),
            RunPair {
                gpus: g,
                baseline,
                pgas,
            },
        ));

        // A100 with 2× faster links (NVLink3 pairs through NVSwitch).
        let mk = || {
            let mut link = gpusim::LinkSpec::nvlink_v100();
            link.bandwidth *= 2.0;
            MachineConfig {
                specs: vec![gpusim::GpuSpec::a100(); g],
                topology: gpusim::Topology::crossbar(g, link),
                traffic_bucket: desim::Dur::from_us(50),
            }
        };
        let mut mb = Machine::new(mk());
        let baseline = Backend::baseline()
            .run(&mut mb, &cfg, ExecMode::Timing)
            .report;
        let mut mp = Machine::new(mk());
        let pgas = Backend::pgas().run(&mut mp, &cfg, ExecMode::Timing).report;
        out.push((
            format!("a100x{g}"),
            RunPair {
                gpus: g,
                baseline,
                pgas,
            },
        ));
    }
    out
}

/// One load point of the serving sweep (EXT-8).
#[derive(Clone, Debug)]
pub struct ServePoint {
    /// Backend label (`baseline` / `pgas` / `resilient`).
    pub backend: &'static str,
    /// Arrival-process label (`poisson` / `onoff`).
    pub arrival: &'static str,
    /// Offered load as a multiple of the probed baseline capacity.
    pub offered_x: f64,
    /// Offered mean load in requests per second.
    pub offered_qps: f64,
    /// Median end-to-end request latency.
    pub p50: Dur,
    /// 99th-percentile end-to-end request latency (the SLO metric).
    pub p99: Dur,
    /// 99.9th-percentile end-to-end request latency.
    pub p999: Dur,
    /// Median machine service time per closed batch.
    pub batch_p50: Dur,
    /// Requests served / shed / timed out at this load.
    pub served: u64,
    /// Arrivals shed at admission.
    pub shed: u64,
    /// Requests dropped for exceeding the request timeout.
    pub timed_out: u64,
    /// Whether this load met the SLO at p99 with nothing shed or dropped.
    pub sustained: bool,
}

/// Result of **`reproduce serve`** (EXT-8).
#[derive(Clone, Debug)]
pub struct ServeSweep {
    /// GPUs in the machine.
    pub gpus: usize,
    /// Unloaded closed-loop baseline service time of one full batch (the
    /// sweep's yardstick).
    pub baseline_service: Dur,
    /// The p99 SLO every point is judged against (4× the yardstick).
    pub slo: Dur,
    /// Probed baseline serving capacity (`batch_size / baseline_service`)
    /// in requests per second — the sweep's load unit.
    pub capacity_qps: f64,
    /// All measured load points, grouped by backend.
    pub points: Vec<ServePoint>,
}

impl ServeSweep {
    /// Largest Poisson load (requests/second) `backend` sustained under the
    /// p99 SLO with nothing shed or timed out; 0 if none.
    pub fn max_sustained_qps(&self, backend: &str) -> f64 {
        self.points
            .iter()
            .filter(|p| p.backend == backend && p.arrival == "poisson" && p.sustained)
            .map(|p| p.offered_qps)
            .fold(0.0, f64::max)
    }

    /// PGAS max sustained QPS over baseline max sustained QPS — the
    /// serving-capacity ratio the experiment is after.
    pub fn capacity_ratio(&self) -> f64 {
        let b = self.max_sustained_qps("baseline");
        if b == 0.0 {
            0.0
        } else {
            self.max_sustained_qps("pgas") / b
        }
    }
}

/// **`reproduce serve`** — EXT-8: open-loop serving sweep. Probes the
/// unloaded closed-loop baseline batch time, derives a p99 SLO (4× that)
/// and a capacity unit (`batch_size / baseline_service` QPS), then sweeps
/// Poisson offered load across `multipliers` of that unit for each backend
/// (baseline collective, PGAS fused, resilient PGAS on a clean fabric),
/// plus one bursty ON/OFF point per backend at 0.75× mean load. Each point
/// serves `batches_per_point` batches' worth of requests. Deterministic
/// for a fixed `seed`.
pub fn serve_load_sweep(
    gpus: usize,
    scale: usize,
    batches_per_point: usize,
    seed: u64,
    multipliers: &[f64],
) -> ServeSweep {
    use emb_retrieval::backend::{execute_batch, plan_for_batch, Exchange, PlannedBatch};
    use emb_serve::{ArrivalProcess, EmbServer, ServeBackendKind, ServeConfig};

    let cfg = scaled(EmbLayerConfig::paper_weak_scaling(gpus), scale, 1);

    // Unloaded yardstick: one canonical batch on the baseline path.
    let mut m = Machine::new(MachineConfig::dgx_v100(gpus));
    let batch = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.batch_seed(0));
    let pb = PlannedBatch::new(&m, plan_for_batch(&cfg, &batch, m.spec(0)));
    let collective = Exchange::Collective(CollectiveConfig::default());
    let baseline_service =
        execute_batch(&mut m, &collective, &pb, SimTime::ZERO, None, None).service();
    let slo = baseline_service * 4u64;
    let capacity_qps = cfg.batch_size as f64 / baseline_service.as_secs_f64();
    let n_requests = batches_per_point.max(1) * cfg.batch_size;

    let backends = [
        ServeBackendKind::Baseline,
        ServeBackendKind::PgasFused,
        ServeBackendKind::Resilient,
    ];
    // Every load point runs on its own fresh machine and seeded generator,
    // so the whole grid is embarrassingly parallel; the ordered collect
    // keeps the exact (backend-major, multiplier-minor, then one ON/OFF
    // point per backend) row order the serial loop produced.
    let mut work: Vec<(ServeBackendKind, &'static str, f64, ArrivalProcess)> = Vec::new();
    for backend in backends {
        for &mult in multipliers {
            let process = ArrivalProcess::Poisson {
                rate_qps: mult * capacity_qps,
            };
            work.push((backend, "poisson", mult, process));
        }
        // One bursty point: same 0.75× mean load, delivered as 3×-capacity
        // bursts at 25% duty — the tail-latency stressor.
        let burst = ArrivalProcess::OnOff {
            rate_qps: 3.0 * capacity_qps,
            on: baseline_service * 4u64,
            off: baseline_service * 12u64,
        };
        work.push((backend, "onoff", 0.75, burst));
    }
    let points: Vec<ServePoint> = par_cells(work.len(), |i| {
        let (backend, arrival, mult, process) = work[i];
        let mut scfg = ServeConfig::new(
            cfg.clone(),
            backend,
            capacity_qps, // placeholder; process set below
            baseline_service,
            n_requests,
            seed,
        );
        scfg.process = process;
        scfg.batcher.request_timeout = slo * 2u64;
        let mut machine = Machine::new(MachineConfig::dgx_v100(gpus));
        let rep = EmbServer::new(scfg)
            .run(&mut machine)
            .expect("a clean dgx machine must pass serving preflight");
        ServePoint {
            backend: backend.label(),
            arrival,
            offered_x: mult,
            offered_qps: mult * capacity_qps,
            p50: rep.latency.p50(),
            p99: rep.latency.p99(),
            p999: rep.latency.p999(),
            batch_p50: rep.batch_service.p50(),
            served: rep.served,
            shed: rep.shed,
            timed_out: rep.timed_out,
            sustained: rep.sustains(slo),
        }
    });

    ServeSweep {
        gpus,
        baseline_service,
        slo,
        capacity_qps,
        points,
    }
}

/// One cell of the EXT-15 executed-pipeline sweep: one topology × scale ×
/// batch size, running the DLRM forward four ways — both retrieval
/// backends through the analytic serial pipeline and through the executed
/// fused + software-pipelined engine.
#[derive(Clone, Debug)]
pub struct PipelineCell {
    /// Nodes in the machine (1 = a single DGX box).
    pub nodes: usize,
    /// GPUs per node.
    pub per_node: usize,
    /// Harness scale factor (1 = the paper's exact workload).
    pub scale: usize,
    /// Global batch size after scaling.
    pub batch_size: usize,
    /// Batches executed.
    pub batches: usize,
    /// Analytic serial total, baseline backend.
    pub base_serial: Dur,
    /// Executed fused + pipelined total, baseline backend.
    pub base_exec: Dur,
    /// Analytic serial total, PGAS backend.
    pub pgas_serial: Dur,
    /// Executed fused + pipelined total, PGAS backend.
    pub pgas_exec: Dur,
    /// Mean head-stream bubble fraction of the executed baseline run.
    pub base_bubble: f64,
    /// Mean head-stream bubble fraction of the executed PGAS run.
    pub pgas_bubble: f64,
}

impl PipelineCell {
    /// Total GPUs in this cell.
    pub fn gpus(&self) -> usize {
        self.nodes * self.per_node
    }

    /// Executed speedup over analytic-serial, baseline backend.
    pub fn base_gain(&self) -> f64 {
        self.base_serial.as_secs_f64() / self.base_exec.as_secs_f64()
    }

    /// Executed speedup over analytic-serial, PGAS backend.
    pub fn pgas_gain(&self) -> f64 {
        self.pgas_serial.as_secs_f64() / self.pgas_exec.as_secs_f64()
    }

    /// PGAS:baseline end-to-end ratio under the analytic serial schedule.
    pub fn serial_ratio(&self) -> f64 {
        self.base_serial.as_secs_f64() / self.pgas_serial.as_secs_f64()
    }

    /// PGAS:baseline end-to-end ratio under the executed fused schedule.
    pub fn fused_ratio(&self) -> f64 {
        self.base_exec.as_secs_f64() / self.pgas_exec.as_secs_f64()
    }
}

/// EXT-15 sweep output.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// One cell per (shape, batch-size multiplier), shapes outer.
    pub cells: Vec<PipelineCell>,
}

impl PipelineResult {
    /// Claim (a): on every cell, for both backends, the executed fused +
    /// pipelined schedule strictly beats the analytic serial one.
    pub fn fusion_wins(&self) -> bool {
        !self.cells.is_empty()
            && self
                .cells
                .iter()
                .all(|c| c.base_exec < c.base_serial && c.pgas_exec < c.pgas_serial)
    }

    /// Claim (b): there is a single-node (NVLink) cell where PGAS's
    /// end-to-end lead over the baseline is at least as large under the
    /// executed fused schedule as under the analytic serial one —
    /// fine-grained releases gate head chunks early, shrinking the
    /// post-EMB tail the analytic model charged in full. An existence
    /// claim (like EXT-11's) because the amplification needs the EMB
    /// stage to cover the head chain: on cells where the interaction +
    /// bottom-MLP chain itself is the floor, both backends pin to it and
    /// the ratio compresses toward 1 — the sweep deliberately spans both
    /// regimes. Multi-node cells are excluded: EXT-11 already showed flat
    /// per-row PGAS can lose its lead on a header-dominated inter-node
    /// tier, fused or not.
    pub fn pgas_lead_widens(&self) -> bool {
        self.cells
            .iter()
            .any(|c| c.nodes == 1 && c.fused_ratio() >= c.serial_ratio())
    }
}

/// Run one pipeline cell: four runs (2 schedules × 2 backends), each on a
/// fresh machine of the cell's topology.
fn pipeline_cell(
    nodes: usize,
    per_node: usize,
    scale: usize,
    batches: usize,
    bs_mult: usize,
) -> PipelineCell {
    use dlrm_model::{Dlrm, DlrmConfig, InferencePipeline, PipelineEngine};

    let started = std::time::Instant::now();
    let g = nodes * per_node;
    let mut cfg = DlrmConfig::paper_inference(g);
    cfg.emb = scaled(cfg.emb, scale, batches);
    cfg.emb.batch_size *= bs_mult;
    // Scaled-down runs must shrink the MLP stack along with the embedding
    // workload: the paper's regime is EMB-dominated, and leaving the MLPs
    // at full width while dividing the EMB axes by `scale` would invert
    // that (the top MLP would dwarf a 512×-shrunk retrieval and there
    // would be nothing left to overlap).
    if scale > 1 {
        for w in cfg
            .top_hidden
            .iter_mut()
            .chain(cfg.bottom_hidden.iter_mut())
        {
            *w = (*w / scale).max(4);
        }
    }
    let batch_size = cfg.emb.batch_size;
    let model = Dlrm::new(cfg);
    let fresh = || {
        if nodes == 1 {
            Machine::new(MachineConfig::dgx_v100(g))
        } else {
            Machine::new(MachineConfig::pod_v100(nodes, per_node))
        }
    };

    let pipeline = InferencePipeline::new(&model);
    let mut m = fresh();
    let base_serial = pipeline
        .run(&mut m, &Backend::baseline(), ExecMode::Timing)
        .total;
    let mut m = fresh();
    let pgas_serial = pipeline
        .run(&mut m, &Backend::pgas(), ExecMode::Timing)
        .total;

    let engine = PipelineEngine::new(&model);
    let mut m = fresh();
    let be = engine.run(&mut m, &Backend::baseline(), ExecMode::Timing);
    let mut m = fresh();
    let pe = engine.run(&mut m, &Backend::pgas(), ExecMode::Timing);
    // Stderr, beside the experiment's own line: what each cell costs.
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "host-time pipeline cell {nodes}x{per_node} scale {scale} batch x{bs_mult}: {secs:.3}s"
    );

    PipelineCell {
        nodes,
        per_node,
        scale,
        batch_size,
        batches,
        base_serial,
        base_exec: be.total,
        pgas_serial,
        pgas_exec: pe.total,
        base_bubble: be.bubble_fraction,
        pgas_bubble: pe.bubble_fraction,
    }
}

/// **EXT-15** — the executed-pipeline sweep: `shapes` as `(nodes, per_node,
/// scale)` triples × `bs_mults` batch-size multipliers, `batches` batches
/// per run. Every cell runs its four machines independently, so the whole
/// grid fans out (ordered collect keeps shapes-outer row order).
pub fn pipeline_sweep(
    shapes: &[(usize, usize, usize)],
    batches: usize,
    bs_mults: &[usize],
) -> PipelineResult {
    let cells: Vec<(usize, usize, usize, usize)> = shapes
        .iter()
        .flat_map(|&(nodes, per_node, scale)| {
            bs_mults.iter().map(move |&m| (nodes, per_node, scale, m))
        })
        .collect();
    let cells: Vec<PipelineCell> = par_cells(cells.len(), |i| {
        let (nodes, per_node, scale, m) = cells[i];
        pipeline_cell(nodes, per_node, scale, batches, m)
    });
    PipelineResult { cells }
}

/// One cell of the EXT-16 blame decomposition: one topology × backend,
/// running batches with the causal span recorder on and aggregating every
/// batch's critical-path blame vector.
#[derive(Clone, Debug)]
pub struct BlameCell {
    /// Topology label (`dgx` / `pod8x4`).
    pub topology: &'static str,
    /// Backend label (`baseline` / `pgas` / `pgas_gateway`).
    pub backend: &'static str,
    /// GPUs in the machine.
    pub gpus: usize,
    /// Batches executed and decomposed.
    pub batches: usize,
    /// Summed per-batch critical-path blame vector. Its total is exactly
    /// the summed batch wall time (the analyzer's partition invariant).
    pub blame: telemetry::causal::BlameVec,
    /// Folded-stack flamegraph text of this cell's critical paths.
    pub folded: String,
}

impl BlameCell {
    /// Exposed-communication share of the aggregated critical path.
    pub fn exposed_share(&self) -> f64 {
        self.blame.exposed_comm_share()
    }

    /// Summed critical-path (= batch wall) time.
    pub fn total(&self) -> Dur {
        Dur::from_ns(self.blame.total_ns())
    }
}

/// Result of **`reproduce blame`** (EXT-16).
#[derive(Clone, Debug)]
pub struct BlameResult {
    /// Harness scale factor the sweep ran at (1 = paper scale).
    pub scale: usize,
    /// Decomposed cells: DGX claim pair first, then the 8×4 pod pair.
    pub cells: Vec<BlameCell>,
}

impl BlameResult {
    /// Exposed-comm share of one (topology, backend) cell; NaN if absent.
    pub fn share(&self, topology: &str, backend: &str) -> f64 {
        self.cells
            .iter()
            .find(|c| c.topology == topology && c.backend == backend)
            .map(BlameCell::exposed_share)
            .unwrap_or(f64::NAN)
    }

    /// Exposed-comm share under the baseline alltoall on the DGX box.
    pub fn baseline_share(&self) -> f64 {
        self.share("dgx", "baseline")
    }

    /// Exposed-comm share under PGAS fused emission on the DGX box.
    pub fn pgas_share(&self) -> f64 {
        self.share("dgx", "pgas")
    }

    /// The headline claim: exposed communication dominates the baseline
    /// critical path (≥ 30%) and is near-zero (≤ 5%) under PGAS fused
    /// emission on the same machine and workload.
    pub fn exposed_comm_eliminated(&self) -> bool {
        self.baseline_share() >= 0.3 && self.pgas_share() <= 0.05
    }
}

/// Run one blame cell: `cfg.n_batches` batches of one backend on a fresh
/// machine with the causal recorder enabled, then aggregate the per-batch
/// critical-path decompositions.
fn blame_cell(
    topology: &'static str,
    nodes: usize,
    per_node: usize,
    backend: &'static str,
    cfg: &EmbLayerConfig,
) -> BlameCell {
    use emb_retrieval::backend::{execute_batch, plan_for_batch, Exchange, PlannedBatch};
    let g = nodes * per_node;
    let mut m = if nodes == 1 {
        Machine::new(MachineConfig::dgx_v100(g))
    } else {
        Machine::new(MachineConfig::pod_v100(nodes, per_node))
    };
    m.enable_blame();
    let distinct = cfg.distinct_batches.max(1).min(cfg.n_batches.max(1));
    let planned: Vec<PlannedBatch> = (0..distinct)
        .map(|i| {
            let b = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.batch_seed(i));
            PlannedBatch::new(&m, plan_for_batch(cfg, &b, m.spec(0)))
        })
        .collect();
    let cc = CollectiveConfig::default().with_algorithm(if nodes == 1 {
        Algorithm::Direct
    } else {
        Algorithm::Hierarchical
    });
    let exchange = match backend {
        "baseline" => Exchange::Collective(cc),
        "pgas" => Exchange::OneSided(PgasConfig::default()),
        _ => Exchange::Gateway(GatewayConfig::default()),
    };
    let mut at = SimTime::ZERO;
    for i in 0..cfg.n_batches {
        at = execute_batch(&mut m, &exchange, &planned[i % distinct], at, None, None).end;
    }
    let graph = m.blame().expect("blame recorder was enabled");
    BlameCell {
        topology,
        backend,
        gpus: g,
        batches: cfg.n_batches,
        blame: graph.total(),
        folded: graph.folded(),
    }
}

/// **EXT-16** — the causal critical-path blame sweep: baseline vs PGAS on
/// the paper's DGX box, plus baseline (hierarchical alltoall) vs
/// gateway-aggregated PGAS on an 8×4 pod. The DGX pair carries the locked
/// claim ([`BlameResult::exposed_comm_eliminated`]); the pod pair is
/// informational. Cells run on independent machines, so the sweep fans out.
pub fn blame_sweep(scale: usize, batches: usize) -> BlameResult {
    let work: [(&'static str, usize, usize, &'static str); 4] = [
        ("dgx", 1, 4, "baseline"),
        ("dgx", 1, 4, "pgas"),
        ("pod8x4", 8, 4, "baseline"),
        ("pod8x4", 8, 4, "pgas_gateway"),
    ];
    let cells: Vec<BlameCell> = par_cells(work.len(), |i| {
        let (topo, nodes, per_node, backend) = work[i];
        let cfg = scaled(
            EmbLayerConfig::paper_weak_scaling(nodes * per_node),
            scale,
            batches,
        );
        blame_cell(topo, nodes, per_node, backend, &cfg)
    });
    BlameResult { scale, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blame_sweep_locks_the_exposed_comm_claim() {
        // The smoke-scale sweep must already exhibit the structural claim
        // the paper makes at full scale: exposed communication dominates
        // the baseline critical path and vanishes under fused emission.
        let r = blame_sweep(1, 2);
        assert_eq!(r.cells.len(), 4);
        assert!(
            r.baseline_share() >= 0.3,
            "baseline exposed share {}",
            r.baseline_share()
        );
        assert!(
            r.pgas_share() <= 0.05,
            "pgas exposed share {}",
            r.pgas_share()
        );
        assert!(r.exposed_comm_eliminated());
        for c in &r.cells {
            // Partition invariant: categories sum to wall time, so the
            // vector is non-empty and the folded view renders.
            assert!(c.blame.total_ns() > 0);
            assert!(c.folded.contains("critical_path;"));
            assert!(c.exposed_share() >= 0.0 && c.exposed_share() <= 1.0);
        }
    }

    #[test]
    fn pod_cells_count_inter_node_messages_unobserved() {
        // On unobserved machines, flat puts cross the slow tier once per
        // row of every cross-node pair, and the gateway's flushes do not
        // depend on the row size.
        let (nodes, per_node, pair_bytes) = (2, 4, 64 << 10);
        let cross_pairs = (nodes * per_node * (nodes - 1) * per_node) as u64;
        let r = pods_sweep(&[(nodes, per_node)], &[64, 256], pair_bytes);
        for c in &r.cells {
            let rows = pair_bytes / u64::from(c.row_bytes);
            assert_eq!(
                c.flat_inter_messages,
                cross_pairs * rows,
                "{} B",
                c.row_bytes
            );
            assert_eq!(c.gateway_inter_messages, 32, "{} B", c.row_bytes);
        }
    }

    #[test]
    fn run_pair_speedup_is_positive() {
        let cfg = scaled(EmbLayerConfig::paper_weak_scaling(2), 256, 2);
        let p = run_pair(&cfg);
        assert!(p.speedup() > 0.5, "speedup {}", p.speedup());
    }

    #[test]
    fn scaling_result_accessors() {
        let r = weak_scaling(2, 512, 2);
        assert_eq!(r.runs.len(), 2);
        assert_eq!(r.at(1).gpus, 1);
        assert!(r.geomean_speedup() > 0.0);
        assert!(r.weak_factor(2, true) > 0.0);
    }

    #[test]
    fn chaos_intensity_zero_reproduces_table1() {
        // The sweep's clean point must be bit-identical to the plain
        // backends' Table I runs — resilience is a strict timing no-op.
        let pts = chaos_sweep(2, 512, 3, 42, &[0.0]);
        let pair = run_pair(&scaled(EmbLayerConfig::paper_weak_scaling(2), 512, 3));
        assert_eq!(pts[0].pgas.total, pair.pgas.total);
        assert_eq!(pts[0].baseline.total, pair.baseline.total);
        assert_eq!(pts[0].pgas.retries, 0);
        assert_eq!(pts[0].pgas.degraded_fraction, 0.0);
        let table1_speedup = pair.speedup();
        let sweep_speedup = pts[0].pgas.total.as_secs_f64() / pts[0].baseline.total.as_secs_f64();
        assert!((table1_speedup * sweep_speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chaos_sweep_completes_under_heavy_faults() {
        let pts = chaos_sweep(2, 512, 4, 7, &[0.0, 0.5, 1.0]);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(!p.pgas.p50.is_zero());
            assert!(p.pgas.p99 >= p.pgas.p50);
            assert!(!p.baseline.p50.is_zero());
            assert!(p.speedup_p50() > 0.0);
            assert!((0.0..=1.0).contains(&p.pgas.degraded_fraction));
        }
        // The clean point must see no faults at all.
        assert_eq!(pts[0].pgas.retries, 0);
        assert_eq!(pts[0].pgas.deadline_missed, 0);
    }

    #[test]
    fn serve_sweep_is_deterministic_and_pgas_sustains_no_less() {
        let s = serve_load_sweep(2, 256, 2, 42, &[0.5, 1.5]);
        assert!(!s.baseline_service.is_zero());
        assert!(s.capacity_qps > 0.0);
        // The PGAS path must sustain at least the baseline's load.
        assert!(
            s.max_sustained_qps("pgas") >= s.max_sustained_qps("baseline"),
            "pgas {} vs baseline {}",
            s.max_sustained_qps("pgas"),
            s.max_sustained_qps("baseline")
        );
        assert!(s.capacity_ratio() >= 1.0);
        // Clean fabric: the resilient path serves exactly like PGAS.
        for (p, r) in s
            .points
            .iter()
            .filter(|p| p.backend == "pgas")
            .zip(s.points.iter().filter(|p| p.backend == "resilient"))
        {
            assert_eq!(p.p99, r.p99);
            assert_eq!(p.served, r.served);
        }
        // Bit-identical on rerun.
        let s2 = serve_load_sweep(2, 256, 2, 42, &[0.5, 1.5]);
        assert_eq!(s.points.len(), s2.points.len());
        for (a, b) in s.points.iter().zip(&s2.points) {
            assert_eq!(a.p99, b.p99);
            assert_eq!(a.served, b.served);
            assert_eq!(a.sustained, b.sustained);
        }
    }

    #[test]
    fn skew_sweep_cache_wins_under_heavy_skew() {
        let s = skew_sweep(2, 512, 3);
        assert_eq!(s.cells.len(), SKEW_ALPHAS.len() * SKEW_CACHE_ROWS.len());
        for c in &s.cells {
            if c.cache_rows == 0 {
                // The reference column runs completely plain.
                assert_eq!(c.measured_hit, 0.0);
                assert_eq!(c.model_hit, 0.0);
                assert_eq!(c.replica_rows, 0);
                assert!((s.pgas_speedup(c) - 1.0).abs() < 1e-12);
            } else {
                // Cache + dedup never grow the wire volume or message count.
                assert!(s.remote_bytes_reduction(c) >= 0.0, "{c:?}");
                assert!(
                    c.pgas.traffic.messages <= s.uncached(c).pgas.traffic.messages,
                    "{c:?}"
                );
                assert!(c.measured_hit > 0.0 && c.measured_hit <= 1.0);
            }
        }
        let h = s.headline();
        assert_eq!(h.alpha, 1.2);
        assert_eq!(h.cache_rows, *SKEW_CACHE_ROWS.last().unwrap());
        assert!(
            s.pgas_speedup(h) > 1.0,
            "heavy skew + big cache must beat uncached: {}",
            s.pgas_speedup(h)
        );
        // The warmup-derived hit rate under heavy skew is substantial.
        assert!(h.measured_hit > 0.5, "hit {}", h.measured_hit);
    }

    #[test]
    fn sharding_ablation_orders_costs() {
        let a = sharding_ablation(2, 64, 2);
        assert!(a.row_wise_cpu > a.table_wise_cpu);
        assert!(!a.h2d.is_zero());
        // PGAS wins under either sharding.
        assert!(a.table_wise.speedup() > 1.0);
        assert!(a.row_wise.speedup() > 1.0);
    }
}
