//! The seven workloads.
//!
//! Each is a fixed sequence of calls into the crates' *public* functions on
//! freshly built machines (see `README.md`, "Pinned API surface"). One
//! repetition of that sequence is what `host_s` times. A workload also
//! says what its simulated outputs were (folded into `sim.digest32`) and
//! checks, after timing, that those outputs are correct.

use desim::{Dur, SimTime};
use dlrm_model::{DenseBatch, Dlrm, DlrmConfig, EngineBackend, InferencePipeline, PipelineEngine};
use emb_retrieval::backend::{BaselineBackend, ExecMode, PgasFusedBackend, RetrievalBackend};
use emb_retrieval::backward::{baseline_backward, pgas_backward, reference_backward};
use emb_retrieval::reference::reference_forward;
use emb_retrieval::{EmbLayerConfig, RunReport, SparseBatch};
use emb_serve::{EmbServer, ServeBackendKind, ServeConfig, ServeReport};
use gpusim::{Machine, MachineConfig};
use pgas_rt::{AggregatorConfig, GatewayConfig, GatewayPut, OneSided, PgasConfig};
use simccl::{all_to_all_timed, Algorithm, CollectiveConfig};
use simtensor::Tensor;

use crate::spans::Recorder;
use crate::stats::Digest;

/// `EmbLayerConfig`'s own seed: the default `--seed` reproduces the paper
/// presets exactly.
pub const PAPER_SEED: u64 = 0xD1_5C0;

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 7] = [
    "dgx_paper",
    "pod_exchange",
    "pod_observed",
    "serve_open_loop",
    "functional_kernels",
    "backward_atomics",
    "pipeline_engine",
];

/// Published PGAS-over-baseline speedups at 2, 3 and 4 GPUs: Table I
/// (weak scaling) then Table II (strong scaling).
pub const PAPER_SPEEDUPS: [[f64; 3]; 2] = [[2.10, 1.95, 1.87], [2.95, 2.55, 2.44]];

/// Counts read from the repo's opt-in telemetry registry (traced
/// repetition only; all zero otherwise).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `Machine::send*` calls (`fabric_sends`).
    pub sends: u64,
    /// Kernel launches (`kernels_launched`).
    pub kernels: u64,
    /// One-sided puts issued (`pgas_puts_issued`).
    pub puts: u64,
    /// Gateway staging-buffer flushes (`gateway_flushes`).
    pub flushes: u64,
    /// Collective calls (`collective_calls`).
    pub ccl_calls: u64,
}

/// What one repetition produced on the *simulated* clock, plus the
/// operations it attempted. With a fixed seed every field repeats exactly.
#[derive(Clone, Debug, Default)]
pub struct SimOut {
    /// Digest of every simulated output the repetition produced.
    pub digest: Digest,
    /// Sum of the simulated completion times of every call, ns.
    pub total_ns: u64,
    /// Simulated time of the collective (baseline) side, ns.
    pub base_ns: u64,
    /// Simulated time of the PGAS side, ns.
    pub pgas_ns: u64,
    /// Wire messages across every machine the repetition built.
    pub wire_msgs: u64,
    /// Payload bytes across every machine the repetition built.
    pub payload_bytes: u64,
    /// Batches / exchanges / requests attempted.
    pub attempted: u64,
    /// Of those, how many failed (malformed requests, conservation
    /// violations).
    pub failed: u64,
    /// Telemetry counts (traced repetition only).
    pub counts: Counts,
}

/// Per-repetition context: the span recorder, whether the repo's own
/// observers are switched on, and the repetition's simulated outputs.
pub struct Ctx {
    /// The benchmark's span recorder (off in untraced runs).
    pub rec: Recorder,
    /// Switch `enable_telemetry` + `enable_blame` on for every machine, to
    /// read counts (the traced repetition).
    pub observe: bool,
    /// Simulated outputs of the repetition in progress.
    pub sim: SimOut,
}

impl Ctx {
    /// Context of an untraced repetition.
    pub fn plain() -> Self {
        Ctx {
            rec: Recorder::off(),
            observe: false,
            sim: SimOut::default(),
        }
    }

    /// Context of the traced repetition: spans and observers on.
    pub fn traced() -> Self {
        Ctx {
            rec: Recorder::on(),
            observe: true,
            sim: SimOut::default(),
        }
    }

    /// Hand back the finished repetition's outputs and start a new one.
    pub fn take(&mut self) -> SimOut {
        std::mem::take(&mut self.sim)
    }

    /// A fresh machine, observed when this context says so.
    fn machine(&self, cfg: MachineConfig) -> Machine {
        let mut m = Machine::new(cfg);
        if self.observe {
            m.enable_telemetry();
            m.enable_blame();
        }
        m
    }

    /// Fold a finished machine's traffic (always recorded) and, when it was
    /// observed by this context, its telemetry counts into the outputs.
    fn absorb(&mut self, m: &Machine) {
        let t = m.traffic_stats();
        self.sim.wire_msgs += t.messages;
        self.sim.payload_bytes += t.payload_bytes;
        self.sim.digest.push(t.messages);
        self.sim.digest.push(t.payload_bytes);
        if !(self.observe && m.metrics().is_enabled()) {
            return;
        }
        let (reg, n) = (m.metrics(), m.n_gpus() as u32);
        let c = &mut self.sim.counts;
        c.ccl_calls += reg.counter("collective_calls", 0, 0);
        for i in 0..n {
            c.kernels += reg.counter("kernels_launched", i, 0);
            c.puts += reg.counter("pgas_puts_issued", i, 0);
            for j in 0..n {
                c.sends += reg.counter("fabric_sends", i, j);
                // Keyed (origin GPU, destination *node*); node ids < n.
                c.flushes += reg.counter("gateway_flushes", i, j);
            }
        }
    }

    /// Record a simulated duration as an output of the repetition.
    fn out(&mut self, d: Dur) {
        self.sim.digest.push(d.as_ns());
        self.sim.total_ns += d.as_ns();
    }

    /// Record both sides of a baseline-vs-PGAS comparison.
    fn out_pair(&mut self, base: Dur, pgas: Dur) {
        self.out(base);
        self.out(pgas);
        self.sim.base_ns += base.as_ns();
        self.sim.pgas_ns += pgas.as_ns();
    }

    /// Record a [`RunReport`]'s simulated outputs.
    fn out_report(&mut self, r: &RunReport) {
        self.sim.digest.push(r.breakdown.compute.as_ns());
        self.sim.digest.push(r.breakdown.communication.as_ns());
        self.sim.digest.push(r.breakdown.sync_unpack.as_ns());
        self.sim.attempted += r.batches as u64;
    }
}

/// Outcome of one correctness check; each counts as one operation.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The values compared, for the report.
    pub detail: String,
}

impl Check {
    fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }

    fn equal_u64(name: impl Into<String>, values: &[u64]) -> Self {
        let ok = values.windows(2).all(|w| w[0] == w[1]);
        Check::new(name, ok, format!("{values:?}"))
    }
}

/// A workload: see the module docs.
pub trait Workload {
    /// One repetition of the workload's call sequence.
    fn rep(&mut self, ctx: &mut Ctx);
    /// Correctness checks, run after timing against the last repetition.
    fn checks(&mut self) -> Vec<Check>;
    /// Workload-specific simulated outputs, computed in the traced pass
    /// (may run further simulations; not timed).
    fn sim_extras(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Build workload `name` with every generator seeded from `seed`. `smoke`
/// shrinks every config (`scaled_down(16)`) for a seconds-long CI run.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dgx_paper" => Box::new(DgxPaper::new(seed, smoke)),
        "pod_exchange" => Box::new(Pods::new(false, smoke)),
        "pod_observed" => Box::new(Pods::new(true, smoke)),
        "serve_open_loop" => Box::new(Serve::new(seed, smoke)),
        "functional_kernels" => Box::new(Functional::new(seed, smoke)),
        "backward_atomics" => Box::new(Backward::new(seed, smoke)),
        "pipeline_engine" => Box::new(Pipeline::new(seed, smoke)),
        _ => return None,
    })
}

fn dgx(n: usize) -> MachineConfig {
    MachineConfig::dgx_v100(n)
}

/// A paper preset with the benchmark's seed, batch count and (in smoke
/// mode) scale applied.
pub fn preset(mut cfg: EmbLayerConfig, seed: u64, batches: usize, smoke: bool) -> EmbLayerConfig {
    if smoke {
        cfg = cfg.scaled_down(16);
    }
    cfg.seed = seed;
    cfg.n_batches = batches;
    cfg
}

/// Both closed-loop backends on fresh DGX machines: `(baseline, pgas)`.
fn run_pair(ctx: &mut Ctx, cfg: &EmbLayerConfig) -> (RunReport, RunReport) {
    let mut m = ctx.machine(dgx(cfg.n_gpus));
    ctx.rec.enter("BaselineBackend::run");
    let base = BaselineBackend::new()
        .run(&mut m, cfg, ExecMode::Timing)
        .report;
    ctx.rec.exit();
    ctx.absorb(&m);
    let mut m = ctx.machine(dgx(cfg.n_gpus));
    ctx.rec.enter("PgasFusedBackend::run");
    let pgas = PgasFusedBackend::new()
        .run(&mut m, cfg, ExecMode::Timing)
        .report;
    ctx.rec.exit();
    ctx.absorb(&m);
    (base, pgas)
}

/// Mean absolute percentage error of the simulated PGAS-over-baseline
/// speedup against the six published cells ([`PAPER_SPEEDUPS`]). The
/// speedup of a run whose batch count is a multiple of the four distinct
/// batches does not depend on that count, so four batches per cell give
/// the same figure as the paper's hundred at a twenty-fifth of the cost.
pub fn paper_error_pct(seed: u64, smoke: bool) -> f64 {
    let presets: [fn(usize) -> EmbLayerConfig; 2] = [
        EmbLayerConfig::paper_weak_scaling,
        EmbLayerConfig::paper_strong_scaling,
    ];
    let mut ctx = Ctx::plain();
    let mut err = 0.0;
    for (table, make) in PAPER_SPEEDUPS.iter().zip(presets) {
        for (gpus, published) in (2..=4).zip(table) {
            let cfg = preset(make(gpus), seed, 4, smoke);
            let (base, pgas) = run_pair(&mut ctx, &cfg);
            let speedup = base.total.as_secs_f64() / pgas.total.as_secs_f64();
            err += ((speedup - published) / published).abs();
        }
    }
    100.0 * err / 6.0
}

// ---------------------------------------------------------------------------
// 1. dgx_paper
// ---------------------------------------------------------------------------

/// The paper's own workload: both closed-loop backends on `dgx_v100(4)`,
/// weak and strong configs, Timing mode. Planning, both executors and the
/// intra-node fabric do the work.
struct DgxPaper {
    cfgs: [EmbLayerConfig; 2],
    payloads: Vec<[u64; 2]>,
}

impl DgxPaper {
    fn new(seed: u64, smoke: bool) -> Self {
        let batches = if smoke { 8 } else { 40 };
        DgxPaper {
            cfgs: [
                preset(EmbLayerConfig::paper_weak_scaling(4), seed, batches, smoke),
                preset(
                    EmbLayerConfig::paper_strong_scaling(4),
                    seed,
                    batches,
                    smoke,
                ),
            ],
            payloads: Vec::new(),
        }
    }
}

impl Workload for DgxPaper {
    fn rep(&mut self, ctx: &mut Ctx) {
        self.payloads.clear();
        for cfg in &self.cfgs {
            let (base, pgas) = run_pair(ctx, cfg);
            ctx.out_pair(base.total, pgas.total);
            ctx.out_report(&base);
            ctx.out_report(&pgas);
            self.payloads
                .push([base.traffic.payload_bytes, pgas.traffic.payload_bytes]);
        }
    }

    fn checks(&mut self) -> Vec<Check> {
        ["weak", "strong"]
            .iter()
            .zip(&self.payloads)
            .map(|(which, p)| {
                Check::equal_u64(format!("{which}: baseline and PGAS payload bytes equal"), p)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// 2 + 3. pod_exchange / pod_observed
// ---------------------------------------------------------------------------

/// Timeline bucket of `pod_exchange`'s *traced* repetition. At the default
/// 50 µs bucket the observers alone cost tens of seconds on the 16×4 cells
/// (every queued send deposits a stall span over thousands of buckets) —
/// that cost is `pod_observed`'s subject, not this workload's. Bucket width
/// only shapes recordings; the digest check proves simulated time is
/// untouched.
const COARSE_BUCKET: Dur = Dur::from_ms(100);

/// The `pods` traffic — the same bytes per ordered GPU pair, everything
/// ready at t = 0 — exchanged four ways per cell: flat and hierarchical
/// `all_to_all_timed`, flat `OneSided` puts, `GatewayPut`. The gpusim NIC
/// path, pgas-rt staging and simccl do the work.
///
/// `observed` builds every machine with telemetry and blame on at the
/// default bucket, as `reproduce pods/netutil/blame` run: same calls, the
/// observer path.
struct Pods {
    /// `(nodes, GPUs per node, row bytes)`.
    cells: Vec<(usize, usize, u32)>,
    pair_bytes: u64,
    observed: bool,
    /// Per cell: payload bytes through direct all-to-all, flat puts,
    /// gateway puts.
    payloads: Vec<[u64; 3]>,
}

impl Pods {
    fn new(observed: bool, smoke: bool) -> Self {
        let cells = match (observed, smoke) {
            (true, false) => vec![(8, 4, 256)],
            (true, true) => vec![(2, 4, 256)],
            (false, false) => vec![(8, 4, 256), (16, 4, 64), (16, 4, 256)],
            (false, true) => vec![(2, 4, 256), (4, 4, 64), (4, 4, 256)],
        };
        Pods {
            cells,
            pair_bytes: if smoke { 64 << 10 } else { 1 << 20 },
            observed,
            payloads: Vec::new(),
        }
    }

    fn machine(&self, ctx: &Ctx, nodes: usize, per_node: usize) -> Machine {
        let cfg = MachineConfig::pod_v100(nodes, per_node);
        if self.observed {
            let mut m = Machine::new(cfg);
            m.enable_telemetry();
            m.enable_blame();
            m
        } else if ctx.observe {
            ctx.machine(cfg.with_traffic_bucket(COARSE_BUCKET))
        } else {
            Machine::new(cfg)
        }
    }
}

/// Issue the pods store stream: quarter-flush chunks with destinations
/// interleaved, identical for the flat and the gateway path.
pub fn pod_stores(n: usize, rows: u64, chunk: u64, mut put: impl FnMut(usize, usize, u64)) {
    let rounds = rows.div_ceil(chunk);
    for src in 0..n {
        for r in 0..rounds {
            let take = chunk.min(rows - r * chunk);
            for dst in (0..n).filter(|&d| d != src) {
                put(src, dst, take);
            }
        }
    }
}

impl Workload for Pods {
    fn rep(&mut self, ctx: &mut Ctx) {
        self.payloads.clear();
        for &(nodes, per_node, row_bytes) in &self.cells {
            let n = nodes * per_node;
            let rows = (self.pair_bytes / u64::from(row_bytes)).max(1);
            let pair = rows * u64::from(row_bytes);
            let bytes: Vec<Vec<u64>> = (0..n)
                .map(|s| (0..n).map(|d| if s == d { 0 } else { pair }).collect())
                .collect();
            let ready = vec![SimTime::ZERO; n];
            let collective = |ctx: &mut Ctx, alg: Algorithm, span: &str| {
                let mut m = self.machine(ctx, nodes, per_node);
                let cfg = CollectiveConfig::default().with_algorithm(alg);
                ctx.rec.enter(span);
                let done = all_to_all_timed(&mut m, &cfg, &bytes, &ready).all_done();
                ctx.rec.exit();
                ctx.absorb(&m);
                (done - SimTime::ZERO, m.traffic_stats().payload_bytes)
            };
            let (direct, direct_payload) =
                collective(ctx, Algorithm::Direct, "all_to_all_timed(Direct)");
            let (hier, _) = collective(
                ctx,
                Algorithm::Hierarchical,
                "all_to_all_timed(Hierarchical)",
            );

            let pcfg = PgasConfig {
                max_payload: row_bytes,
                ..PgasConfig::default()
            };
            let flush = AggregatorConfig::default();
            let chunk = (flush.flush_bytes / (4 * u64::from(row_bytes))).max(1);

            let mut m = self.machine(ctx, nodes, per_node);
            ctx.rec.enter("OneSided::put_rows_nbi + quiet");
            let mut flat = SimTime::ZERO;
            {
                let mut os = OneSided::with_config(&mut m, pcfg);
                pod_stores(n, rows, chunk, |src, dst, take| {
                    os.put_rows_nbi(src, dst, take, row_bytes, SimTime::ZERO);
                });
                for src in 0..n {
                    flat = flat.max(os.quiet(src, SimTime::ZERO));
                }
            }
            ctx.rec.exit();
            ctx.absorb(&m);
            let flat_payload = m.traffic_stats().payload_bytes;

            let mut m = self.machine(ctx, nodes, per_node);
            ctx.rec
                .enter("GatewayPut::put_rows_nbi + drain_src + quiet");
            let mut gateway = SimTime::ZERO;
            {
                let mut gw = GatewayPut::new(&mut m, GatewayConfig { pgas: pcfg, flush });
                pod_stores(n, rows, chunk, |src, dst, take| {
                    gw.put_rows_nbi(src, dst, take, row_bytes, SimTime::ZERO);
                });
                for src in 0..n {
                    gw.drain_src(src, SimTime::ZERO);
                }
                for src in 0..n {
                    gateway = gateway.max(gw.quiet(src, SimTime::ZERO));
                }
                // The flush count is public without telemetry; the traced
                // repetition reads the same figure from the registry.
                ctx.sim.digest.push(gw.flushes());
            }
            ctx.rec.exit();
            ctx.absorb(&m);
            let gateway_payload = m.traffic_stats().payload_bytes;

            // Best collective against best PGAS path, as `pods` compares.
            ctx.out(direct);
            ctx.out(flat - SimTime::ZERO);
            ctx.out_pair(hier, gateway - SimTime::ZERO);
            ctx.sim.attempted += 4;
            self.payloads
                .push([direct_payload, flat_payload, gateway_payload]);
        }
    }

    fn checks(&mut self) -> Vec<Check> {
        self.cells
            .iter()
            .zip(&self.payloads)
            .map(|(&(nodes, per, rb), p)| {
                Check::equal_u64(
                    format!(
                        "{nodes}x{per}/{rb}B: collective, flat and gateway payload bytes equal"
                    ),
                    p,
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// 4. serve_open_loop
// ---------------------------------------------------------------------------

/// `EmbServer::run`, open loop, Poisson arrivals, paper weak config on
/// `dgx_v100(4)`: PGAS and baseline at the probed baseline capacity, and
/// baseline at 1.5× (overload: the admission queue sheds). emb-serve's
/// generation, batching and latency accounting dominate; the simulated
/// machine is a small share.
struct Serve {
    cfg: EmbLayerConfig,
    seed: u64,
    /// Unloaded simulated service time of one full baseline batch.
    service: Dur,
    /// `batch_size / service`, requests per simulated second.
    capacity_qps: f64,
    last: Vec<ServeReport>,
}

/// `(backend, offered load ÷ capacity, batches' worth of requests)`.
const SERVE_POINTS: [(ServeBackendKind, f64, usize); 3] = [
    (ServeBackendKind::PgasFused, 1.0, 6),
    (ServeBackendKind::Baseline, 1.0, 6),
    (ServeBackendKind::Baseline, 1.5, 12),
];

/// The serving yardstick: the one-batch weak config, the unloaded
/// simulated service time of that batch on the baseline path, and the
/// capacity `batch_size / service` in requests per simulated second.
pub fn serve_probe(seed: u64, smoke: bool) -> (EmbLayerConfig, Dur, f64) {
    let cfg = preset(EmbLayerConfig::paper_weak_scaling(4), seed, 1, smoke);
    let mut m = Machine::new(dgx(cfg.n_gpus));
    let service = BaselineBackend::new()
        .run(&mut m, &cfg, ExecMode::Timing)
        .report
        .total;
    let capacity_qps = cfg.batch_size as f64 / service.as_secs_f64();
    (cfg, service, capacity_qps)
}

impl Serve {
    fn new(seed: u64, smoke: bool) -> Self {
        let (cfg, service, capacity_qps) = serve_probe(seed, smoke);
        Serve {
            cfg,
            seed,
            service,
            capacity_qps,
            last: Vec::new(),
        }
    }

    fn serve(
        &self,
        ctx: &mut Ctx,
        kind: ServeBackendKind,
        load: f64,
        batches: usize,
        tune: impl FnOnce(&mut ServeConfig),
    ) -> ServeReport {
        let mut scfg = ServeConfig::new(
            self.cfg.clone(),
            kind,
            load * self.capacity_qps,
            self.service,
            batches * self.cfg.batch_size,
            self.seed,
        );
        tune(&mut scfg);
        let mut m = ctx.machine(dgx(self.cfg.n_gpus));
        ctx.rec
            .enter(&format!("EmbServer::run({} {load}x)", kind.label()));
        let rep = EmbServer::new(scfg)
            .run(&mut m)
            .expect("a clean dgx machine passes serving preflight");
        ctx.rec.exit();
        ctx.absorb(&m);
        rep
    }
}

impl Workload for Serve {
    fn rep(&mut self, ctx: &mut Ctx) {
        self.last.clear();
        for (kind, load, batches) in SERVE_POINTS {
            let r = self.serve(ctx, kind, load, batches, |_| {});
            for v in [r.generated, r.served, r.shed, r.timed_out, r.malformed] {
                ctx.sim.digest.push(v);
            }
            ctx.sim.digest.push(r.batches as u64);
            ctx.sim.digest.push(r.latency.p50().as_ns());
            ctx.sim.digest.push(r.latency.p99().as_ns());
            ctx.out(r.end - SimTime::ZERO);
            ctx.sim.attempted += r.generated;
            // Shed and timed-out requests are what the simulated admission
            // queue is *meant* to do under the 1.5x point; they are reported
            // as `sim.shed_share_base_1p5x`. A malformed request, or one the
            // accounting lost, is a failure of the program.
            let accounted = r.served + r.shed + r.timed_out + r.malformed;
            ctx.sim.failed += r.malformed + r.generated.abs_diff(accounted);
            self.last.push(r);
        }
        ctx.sim.base_ns += self.last[1].latency.p99().as_ns();
        ctx.sim.pgas_ns += self.last[0].latency.p99().as_ns();
    }

    fn checks(&mut self) -> Vec<Check> {
        SERVE_POINTS
            .iter()
            .zip(&self.last)
            .map(|((kind, load, _), r)| {
                Check::equal_u64(
                    format!(
                        "{} {load}x: served + shed + timed_out + malformed = generated",
                        kind.label()
                    ),
                    &[r.served + r.shed + r.timed_out + r.malformed, r.generated],
                )
            })
            .collect()
    }

    fn sim_extras(&mut self) -> Vec<(&'static str, f64)> {
        let shed = &self.last[2];
        let mut out = vec![
            (
                "sim.p99_ms_pgas_1x",
                self.last[0].latency.p99().as_millis_f64(),
            ),
            (
                "sim.p99_ms_base_1x",
                self.last[1].latency.p99().as_millis_f64(),
            ),
            (
                "sim.shed_share_base_1p5x",
                (shed.shed + shed.timed_out) as f64 / shed.generated as f64,
            ),
        ];
        // Highest of five fixed rates each backend sustains: p99 within
        // 4x the unloaded service time, nothing shed or timed out.
        let slo = self.service * 4u64;
        let mut ctx = Ctx::plain();
        for (name, kind) in [
            ("sim.max_qps_pgas", ServeBackendKind::PgasFused),
            ("sim.max_qps_base", ServeBackendKind::Baseline),
        ] {
            let mut best = 0.0f64;
            for load in [0.5, 0.75, 1.0, 1.25, 1.5] {
                let r = self.serve(&mut ctx, kind, load, 4, |c| {
                    c.batcher.request_timeout = slo * 2u64;
                });
                if r.sustains(slo) {
                    best = best.max(load * self.capacity_qps);
                }
            }
            out.push((name, best));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// 5. functional_kernels
// ---------------------------------------------------------------------------

/// Functional mode at `scaled_down(16)` on four GPUs, both backends, plus
/// the dense DLRM head. Real CPU gather/pool/scatter, simtensor and the
/// rayon pool do the work; the simulator does little.
struct Functional {
    cfg: EmbLayerConfig,
    model: Dlrm,
    dense: DenseBatch,
    outputs: Option<[Vec<Tensor>; 2]>,
    predictions: Vec<Tensor>,
}

/// `functional_kernels`' config: small enough to materialize its tables.
pub fn functional_cfg(seed: u64, smoke: bool) -> EmbLayerConfig {
    let mut cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(if smoke { 64 } else { 16 });
    cfg.seed = seed;
    cfg.n_batches = 2;
    cfg
}

impl Functional {
    fn new(seed: u64, smoke: bool) -> Self {
        let cfg = functional_cfg(seed, smoke);
        let mut dcfg = DlrmConfig::paper_inference(4);
        dcfg.emb = cfg.clone();
        let dense = DenseBatch::generate(cfg.batch_size, dcfg.n_dense, dcfg.seed);
        Functional {
            cfg,
            model: Dlrm::new(dcfg),
            dense,
            outputs: None,
            predictions: Vec::new(),
        }
    }
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Workload for Functional {
    fn rep(&mut self, ctx: &mut Ctx) {
        let mut m = ctx.machine(dgx(4));
        ctx.rec.enter("BaselineBackend::run(Functional)");
        let base = BaselineBackend::new().run(&mut m, &self.cfg, ExecMode::Functional);
        ctx.rec.exit();
        ctx.absorb(&m);
        let mut m = ctx.machine(dgx(4));
        ctx.rec.enter("PgasFusedBackend::run(Functional)");
        let pgas = PgasFusedBackend::new().run(&mut m, &self.cfg, ExecMode::Functional);
        ctx.rec.exit();
        ctx.absorb(&m);
        let pgas_out = pgas.outputs.expect("functional mode returns outputs");
        ctx.rec.enter("Dlrm::forward_all");
        self.predictions = self.model.forward_all(&self.dense, &pgas_out);
        ctx.rec.exit();

        ctx.out_pair(base.report.total, pgas.report.total);
        ctx.out_report(&base.report);
        ctx.out_report(&pgas.report);
        for p in &self.predictions {
            for v in p.data() {
                ctx.sim.digest.push(u64::from(v.to_bits()));
            }
        }
        ctx.sim.attempted += 1;
        self.outputs = Some([
            base.outputs.expect("functional mode returns outputs"),
            pgas_out,
        ]);
    }

    fn checks(&mut self) -> Vec<Check> {
        let cfg = &self.cfg;
        let [base, pgas] = self
            .outputs
            .as_ref()
            .expect("checks run after a repetition");
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(cfg.n_batches - 1));
        let reference =
            reference_forward(&batch, cfg.table_spec(), cfg.pooling, cfg.n_gpus, cfg.seed);
        let per_dev = |a: &[Tensor], b: &[Tensor]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits_equal(x, y))
        };
        let probs_ok = self
            .predictions
            .iter()
            .flat_map(|p| p.data())
            .all(|v| (0.0..=1.0).contains(v));
        vec![
            Check::new(
                "baseline outputs bit-equal to reference_forward",
                per_dev(base, &reference),
                format!("{} devices", reference.len()),
            ),
            Check::new(
                "PGAS outputs bit-equal to baseline outputs",
                per_dev(pgas, base),
                format!("{} devices", base.len()),
            ),
            Check::new(
                "DLRM predictions are probabilities",
                probs_ok && self.predictions.len() == cfg.n_gpus,
                format!("{} devices", self.predictions.len()),
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// 6. backward_atomics
// ---------------------------------------------------------------------------

/// The write path beside the forward's reads: `pgas_backward`
/// (`atomic_add_rows_nbi`) and `baseline_backward` (collective rounds),
/// paper weak config, four GPUs.
struct Backward {
    cfg: EmbLayerConfig,
    /// Scaled config the gradient check runs at.
    check_cfg: EmbLayerConfig,
}

impl Backward {
    fn new(seed: u64, smoke: bool) -> Self {
        let batches = if smoke { 4 } else { 8 };
        let mut check_cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(64);
        check_cfg.seed = seed;
        check_cfg.n_batches = 2;
        Backward {
            cfg: preset(EmbLayerConfig::paper_weak_scaling(4), seed, batches, smoke),
            check_cfg,
        }
    }
}

impl Workload for Backward {
    fn rep(&mut self, ctx: &mut Ctx) {
        let mut m = ctx.machine(dgx(4));
        ctx.rec.enter("pgas_backward");
        let pgas = pgas_backward(&mut m, &self.cfg, PgasConfig::default(), ExecMode::Timing).report;
        ctx.rec.exit();
        ctx.absorb(&m);
        let mut m = ctx.machine(dgx(4));
        ctx.rec.enter("baseline_backward");
        let base = baseline_backward(
            &mut m,
            &self.cfg,
            &CollectiveConfig::default(),
            ExecMode::Timing,
        )
        .report;
        ctx.rec.exit();
        ctx.absorb(&m);
        ctx.out_pair(base.total, pgas.total);
        ctx.out_report(&base);
        ctx.out_report(&pgas);
    }

    fn checks(&mut self) -> Vec<Check> {
        let cfg = &self.check_cfg;
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(cfg.n_batches - 1));
        let reference = reference_backward(&batch, cfg.table_spec(), cfg.pooling, cfg.seed);
        let sharding = cfg.sharding();
        let matches = |grads: &[Vec<Tensor>]| {
            grads.iter().enumerate().all(|(dev, dev_grads)| {
                sharding
                    .features_on(dev, cfg.n_features)
                    .iter()
                    .zip(dev_grads)
                    .all(|(&f, g)| bits_equal(g, &reference[f]))
            })
        };
        let mut m = Machine::new(dgx(4));
        let pgas = pgas_backward(&mut m, cfg, PgasConfig::default(), ExecMode::Functional)
            .grads
            .expect("functional mode returns gradients");
        let mut m = Machine::new(dgx(4));
        let base = baseline_backward(
            &mut m,
            cfg,
            &CollectiveConfig::default(),
            ExecMode::Functional,
        )
        .grads
        .expect("functional mode returns gradients");
        vec![
            Check::new(
                "pgas_backward gradients bit-equal to reference_backward",
                matches(&pgas),
                format!("{} tables", reference.len()),
            ),
            Check::new(
                "baseline_backward gradients bit-equal to reference_backward",
                matches(&base),
                format!("{} tables", reference.len()),
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// 7. pipeline_engine
// ---------------------------------------------------------------------------

/// The executed DLRM pipeline: `PipelineEngine::run` with both engine
/// backends and the analytic `InferencePipeline::run` (PGAS). gpusim
/// streams/chunks and the dlrm engine do the work; the EMB executors are
/// the part shared with `dgx_paper`.
struct Pipeline {
    model: Dlrm,
    /// Executed vs serial-analytic totals (baseline, PGAS), ns.
    totals: Vec<[u64; 2]>,
    payloads: Vec<u64>,
}

impl Pipeline {
    fn new(seed: u64, smoke: bool) -> Self {
        let mut cfg = DlrmConfig::paper_inference(4);
        cfg.emb = preset(cfg.emb, seed, if smoke { 4 } else { 16 }, smoke);
        if smoke {
            // Keep the paper's EMB-dominated regime at the smaller scale.
            for w in cfg
                .top_hidden
                .iter_mut()
                .chain(cfg.bottom_hidden.iter_mut())
            {
                *w = (*w / 16).max(4);
            }
        }
        Pipeline {
            model: Dlrm::new(cfg),
            totals: Vec::new(),
            payloads: Vec::new(),
        }
    }
}

impl Workload for Pipeline {
    fn rep(&mut self, ctx: &mut Ctx) {
        self.totals.clear();
        self.payloads.clear();
        let engine = PipelineEngine::new(&self.model);
        let mut executed = Vec::new();
        for backend in [EngineBackend::baseline(), EngineBackend::pgas()] {
            let mut m = ctx.machine(dgx(4));
            ctx.rec
                .enter(&format!("PipelineEngine::run({})", backend.name()));
            let r = engine.run(&mut m, &backend, ExecMode::Timing);
            ctx.rec.exit();
            ctx.absorb(&m);
            ctx.sim.digest.push_f64(r.bubble_fraction);
            ctx.sim.digest.push(r.serial_total.as_ns());
            ctx.out_report(&r.emb);
            self.totals.push([r.total.as_ns(), r.serial_total.as_ns()]);
            self.payloads.push(r.emb.traffic.payload_bytes);
            executed.push(r.total);
        }
        ctx.out_pair(executed[0], executed[1]);

        let mut m = ctx.machine(dgx(4));
        ctx.rec.enter("InferencePipeline::run(pgas-fused)");
        let serial = InferencePipeline::new(&self.model).run(
            &mut m,
            &PgasFusedBackend::new(),
            ExecMode::Timing,
        );
        ctx.rec.exit();
        ctx.absorb(&m);
        ctx.out(serial.total);
        ctx.out_report(&serial.emb);
        self.payloads.push(serial.emb.traffic.payload_bytes);
    }

    fn checks(&mut self) -> Vec<Check> {
        let mut out = vec![Check::equal_u64(
            "engine (baseline, PGAS) and serial pipeline EMB payload bytes equal",
            &self.payloads,
        )];
        for (name, t) in ["baseline", "pgas-fused"].iter().zip(&self.totals) {
            out.push(Check::new(
                format!("{name}: executed schedule no slower than its serial-analytic total"),
                t[0] <= t[1],
                format!("{t:?} ns"),
            ));
        }
        out
    }
}
