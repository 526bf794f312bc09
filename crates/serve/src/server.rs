//! The serving loop: drive a retrieval backend one closed batch at a time
//! on the simulated clock.

use std::fmt;
use std::sync::Arc;

use desim::{Dur, SimTime};
use emb_retrieval::backend::{
    plain_plan, prepare_batches, Backend, DegradedFill, ExecMode, PlannedBatch, ResiliencePolicy,
    ResilienceReport,
};
use emb_retrieval::{BatchAssemblyError, EmbLayerConfig};
use gpusim::{Machine, NoLink};

use crate::batcher::{BatcherConfig, ClosedBatch, MicroBatcher};
use crate::control::{ControlReport, Controller, TickSignals, Tier};
use crate::request::{ArrivalProcess, PoolWindow, RequestGenerator};
use crate::slo::LatencyStats;

/// The retrieval backends a serving run is built with by name
/// ([`ServeConfig::new`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeBackendKind {
    /// The collective (NCCL-style `all_to_all_single`) path.
    Baseline,
    /// The paper's PGAS fused-kernel path.
    PgasFused,
    /// The PGAS path under a graceful-degradation policy.
    Resilient,
}

impl ServeBackendKind {
    /// Short name for CSV/report columns.
    pub fn label(&self) -> &'static str {
        match self {
            ServeBackendKind::Baseline => "baseline",
            ServeBackendKind::PgasFused => "pgas",
            ServeBackendKind::Resilient => "resilient",
        }
    }
}

/// Everything a serving run needs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The embedding workload (table shapes, key skew, batch seeds).
    pub emb: EmbLayerConfig,
    /// Backend serving the retrieval: its exchange, and the degradation
    /// policy of a static run. A controlled run executes on its tier's
    /// backend instead.
    pub backend: Backend,
    /// Micro-batcher tunables.
    pub batcher: BatcherConfig,
    /// Arrival process driving the open loop.
    pub process: ArrivalProcess,
    /// Requests to generate.
    pub n_requests: usize,
    /// Arrival-time seed (sparse content comes from `emb`'s batch seeds).
    pub seed: u64,
    /// Per-request latency SLO the run is accounted against. `None` (the
    /// default) skips all SLO accounting and leaves the serving loop
    /// bit-identical to its pre-SLO behavior. Required for
    /// [`EmbServer::run_controlled`].
    pub slo: Option<Dur>,
}

impl ServeConfig {
    /// A serving run over `emb` on the `kind` backend with everything else
    /// defaulted: Poisson arrivals at `rate_qps`, full-batch
    /// micro-batching with a deadline of `close_deadline`, a queue bound of
    /// four batches, and a request timeout of eight deadlines. `Resilient`
    /// is the PGAS backend under the default [`ResiliencePolicy`].
    pub fn new(
        emb: EmbLayerConfig,
        kind: ServeBackendKind,
        rate_qps: f64,
        close_deadline: Dur,
        n_requests: usize,
        seed: u64,
    ) -> Self {
        let max_batch = emb.batch_size.max(1);
        ServeConfig {
            emb,
            backend: match kind {
                ServeBackendKind::Baseline => Backend::baseline(),
                ServeBackendKind::PgasFused => Backend::pgas(),
                ServeBackendKind::Resilient => {
                    Backend::pgas().with_policy(ResiliencePolicy::default())
                }
            },
            batcher: BatcherConfig {
                max_batch,
                close_deadline,
                queue_bound: 4 * max_batch,
                request_timeout: close_deadline * 8,
            },
            process: ArrivalProcess::Poisson { rate_qps },
            n_requests,
            seed,
            slo: None,
        }
    }
}

/// Why a serving run could not start.
#[derive(Debug)]
pub enum ServeError {
    /// The machine has a different GPU count than the workload expects.
    GpuCountMismatch {
        /// GPUs the workload was configured for.
        expected: usize,
        /// GPUs the machine has.
        got: usize,
    },
    /// The machine's topology is missing a route the all-to-all exchange
    /// needs.
    NoRoute(NoLink),
    /// A closed batch could not be planned: it held no requests, or one
    /// with the wrong feature count.
    Assembly(BatchAssemblyError),
    /// [`EmbServer::run_controlled`] was called without `cfg.slo`: the
    /// control plane steers against the SLO and has nothing to aim at.
    MissingSlo,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::GpuCountMismatch { expected, got } => {
                write!(f, "workload expects {expected} GPUs, machine has {got}")
            }
            ServeError::NoRoute(e) => write!(f, "serving preflight failed: {e}"),
            ServeError::Assembly(e) => write!(f, "batch assembly failed: {e}"),
            ServeError::MissingSlo => write!(f, "controlled serving needs cfg.slo set"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<NoLink> for ServeError {
    fn from(e: NoLink) -> Self {
        ServeError::NoRoute(e)
    }
}

impl From<BatchAssemblyError> for ServeError {
    fn from(e: BatchAssemblyError) -> Self {
        ServeError::Assembly(e)
    }
}

/// Outcome of a serving run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Requests generated.
    pub generated: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Arrivals shed at admission (queue at bound).
    pub shed: u64,
    /// Requests dropped for exceeding the request timeout.
    pub timed_out: u64,
    /// Arrivals rejected as malformed.
    pub malformed: u64,
    /// Closed batches executed.
    pub batches: usize,
    /// Per-request end-to-end latency (queue + batch + compute + comms).
    pub latency: LatencyStats,
    /// Per-batch machine service time (retrieval only).
    pub batch_service: LatencyStats,
    /// Mean closed-batch occupancy in `[0, 1]` of `max_batch`.
    pub mean_batch_fill: f64,
    /// Instant the last batch completed.
    pub end: SimTime,
    /// Degradation accounting (resilient backend and controlled runs).
    pub resilience: Option<ResilienceReport>,
    /// SLO the run was accounted against (echoed from the config).
    pub slo: Option<Dur>,
    /// Requests served with end-to-end latency within the SLO. Equal to
    /// `served` when no SLO was configured.
    pub served_within_slo: u64,
    /// Total simulated time spent inside batches that served at least one
    /// SLO-breaching request ([`Dur::ZERO`] without an SLO).
    pub slo_viol_time: Dur,
    /// What the adaptive controller did (controlled runs only).
    pub control: Option<ControlReport>,
}

impl ServeReport {
    /// Served fraction of generated requests.
    pub fn goodput(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.served as f64 / self.generated as f64
        }
    }

    /// Whether the run met `slo` at p99 without shedding or timing out
    /// anything — the sweep's "sustained" criterion.
    pub fn sustains(&self, slo: Dur) -> bool {
        self.served > 0 && self.shed == 0 && self.timed_out == 0 && self.latency.p99() <= slo
    }
}

/// Deterministic online server: open-loop arrivals → admission queue →
/// micro-batches → per-batch backend execution, all on the simulated clock.
pub struct EmbServer {
    cfg: ServeConfig,
}

impl EmbServer {
    /// Wrap a serving configuration.
    pub fn new(cfg: ServeConfig) -> Self {
        EmbServer { cfg }
    }

    /// The configuration being served.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Serve `cfg.n_requests` requests on `machine` and account the run.
    ///
    /// Batches whose composition matches a canonical closed-loop batch (a
    /// full, aligned run of consecutive requests) reuse a cached plan, so
    /// they cost exactly the closed-loop per-batch time; partial or
    /// misaligned batches are planned from their actual bag sizes.
    pub fn run(&self, machine: &mut Machine) -> Result<ServeReport, ServeError> {
        self.serve_loop(machine, None)
    }

    /// Serve with the adaptive control plane in the loop: one
    /// [`Controller::tick`] per closed batch, evaluated *before* the batch
    /// executes, driving the execution tier, micro-batch deadline,
    /// admission bound, and hot-cache size. The controller is passed in by
    /// the caller so its state (breaker cooldowns, ladder counters)
    /// persists across the phases of a scenario. Requires `cfg.slo`
    /// ([`ServeError::MissingSlo`] otherwise).
    pub fn run_controlled(
        &self,
        machine: &mut Machine,
        ctrl: &mut Controller,
    ) -> Result<ServeReport, ServeError> {
        let slo = self.cfg.slo.ok_or(ServeError::MissingSlo)?;
        self.serve_loop(machine, Some((ctrl, slo)))
    }

    /// The serving loop. With `ctrl: None` this is exactly the historical
    /// static loop — no extra machine interaction, bit-identical artifacts.
    /// A controller comes with the SLO it steers against.
    fn serve_loop(
        &self,
        machine: &mut Machine,
        ctrl: Option<(&mut Controller, Dur)>,
    ) -> Result<ServeReport, ServeError> {
        let (mut ctrl, ctrl_slo) = ctrl.unzip();
        let cfg = &self.cfg;
        let n = cfg.emb.n_gpus;
        if machine.n_gpus() != n {
            return Err(ServeError::GpuCountMismatch {
                expected: n,
                got: machine.n_gpus(),
            });
        }
        // Preflight every route the all-to-all exchange will use; a typed
        // error beats a panic deep inside a batch.
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    machine.topology().try_link(src, dst)?;
                }
            }
        }

        let generator = RequestGenerator::new(&cfg.emb, cfg.process, cfg.seed);
        let requests = generator.generate(cfg.n_requests);
        let mut batcher = MicroBatcher::new(cfg.batcher, cfg.emb.n_features, requests);

        // Canonical plans, fetched the first time a distinct batch is served
        // in full — from the same process-wide memo the closed loops use,
        // so load points and runs of one workload share one set (hot-row
        // ranking and release schedules included). The controller may
        // resize the hot cache online, which asks again under an adjusted
        // workload copy.
        let mut canonical: Option<Arc<[PlannedBatch]>> = None;
        let mut emb = cfg.emb.clone();

        let mut resilience = ResilienceReport::default();

        let mut latency = LatencyStats::new();
        let mut batch_service = LatencyStats::new();
        let mut batches = 0usize;
        let mut fill_sum = 0.0f64;
        let mut t_free = SimTime::ZERO;
        let mut end = SimTime::ZERO;

        // Controlled-run state: per-tick signal accumulation + SLO books.
        let mut tier = ctrl.as_ref().map_or(Tier::Pgas, |c| c.tier());
        let mut worst_since_tick = Dur::ZERO;
        let mut last_hit: Option<f64> = None;
        let mut last_retries = 0u64;
        let mut last_exhausted = 0u64;
        let mut served_within_slo = 0u64;
        let mut slo_viol_time = Dur::ZERO;

        while let Some(closed) = batcher.next_batch(t_free) {
            if let (Some(c), Some(slo)) = (ctrl.as_deref_mut(), ctrl_slo) {
                // One control tick per closed batch, before execution. The
                // retry/exhausted totals come from the resilience books,
                // whatever observes the machine; the tick sees what they
                // gained since the previous tick.
                let (retries, exhausted) = (resilience.retries, resilience.exhausted_puts);
                let (retries_delta, exhausted_delta) =
                    (retries - last_retries, exhausted - last_exhausted);
                (last_retries, last_exhausted) = (retries, exhausted);
                let sig = TickSignals {
                    queued: batcher.queued(),
                    worst_latency: worst_since_tick,
                    retries_delta,
                    exhausted_delta,
                    measured_hit: last_hit,
                };
                let prev = c.decision();
                let d = c.tick(machine, closed.close_at, slo, &sig);
                worst_since_tick = Dur::ZERO;
                if d.close_deadline != prev.close_deadline || d.queue_bound != prev.queue_bound {
                    let mut bc = batcher.config();
                    bc.close_deadline = d.close_deadline;
                    bc.queue_bound = d.queue_bound;
                    batcher.set_config(bc);
                }
                if d.hot_cache_rows != emb.hot_cache_rows {
                    emb.hot_cache_rows = d.hot_cache_rows;
                    canonical = None;
                }
                if d.tier != tier {
                    // The batch was closed under the old policy: put its
                    // requests back (conservation holds across the switch)
                    // and re-close under the new one.
                    tier = d.tier;
                    batcher.requeue(closed.requests);
                    continue;
                }
            }
            let pb = self.planned_for(machine, &emb, &closed, &generator, &mut canonical)?;
            if pb.plan().cache_rows > 0 {
                last_hit = Some(pb.plan().measured_hit);
            }
            // Controlled runs execute on their tier's backend, static ones on
            // `cfg.backend`; on a clean fabric the Pgas tier is bit-identical
            // to the uncontrolled PGAS path.
            let backend = ctrl_slo.map_or(cfg.backend, |slo| tier_backend(tier, slo));
            let run = backend.run_batch(machine, &pb, closed.close_at, None, &mut resilience);
            t_free = run.end;
            end = end.max(run.end);
            batch_service.record(run.service());
            fill_sum += closed.requests.len() as f64 / cfg.batcher.max_batch as f64;
            batches += 1;
            let mut breached = false;
            for r in &closed.requests {
                let l = run.end - r.arrival;
                latency.record(l);
                worst_since_tick = worst_since_tick.max(l);
                if let Some(slo) = cfg.slo {
                    if l <= slo {
                        served_within_slo += 1;
                    } else {
                        breached = true;
                    }
                }
            }
            if breached {
                // The whole in-flight window of a breaching batch counts
                // as violating time.
                slo_viol_time += run.end - closed.close_at;
            }
        }

        Ok(ServeReport {
            generated: cfg.n_requests as u64,
            served: batcher.served(),
            shed: batcher.shed(),
            timed_out: batcher.timed_out(),
            malformed: batcher.malformed(),
            batches,
            latency,
            batch_service,
            mean_batch_fill: if batches == 0 {
                0.0
            } else {
                fill_sum / batches as f64
            },
            end,
            resilience: (ctrl.is_some() || cfg.backend.policy.is_some()).then_some(resilience),
            slo: cfg.slo,
            served_within_slo: if cfg.slo.is_some() {
                served_within_slo
            } else {
                batcher.served()
            },
            slo_viol_time,
            control: ctrl.map(|c| c.report()),
        })
    }

    /// Plan a closed batch: the canonical fast path when it is a full,
    /// aligned run of consecutive requests (bit-identical to a closed-loop
    /// batch), otherwise planned from the requests' bag sizes where the
    /// pool keeps them ([`PoolWindow`]).
    ///
    /// Aligned batches return a *borrow* of the canonical plan — the steady
    /// state serves every batch without deep-cloning `PlannedBatch` (plan,
    /// duration table, byte matrix) per admission window.
    fn planned_for<'c>(
        &self,
        machine: &Machine,
        emb: &EmbLayerConfig,
        closed: &ClosedBatch,
        generator: &RequestGenerator,
        canonical: &'c mut Option<Arc<[PlannedBatch]>>,
    ) -> Result<Planned<'c>, ServeError> {
        let n = emb.batch_size;
        let reqs = &closed.requests;
        let aligned = reqs.len() == n
            && reqs[0].id % n as u64 == 0
            && reqs.windows(2).all(|w| w[1].id == w[0].id + 1);
        if aligned {
            let (which, _) = generator.deal_of(reqs[0].id);
            let planned = canonical.get_or_insert_with(|| {
                // Every canonical batch, however few a closed loop over
                // this config would replay.
                let mut all = emb.clone();
                all.n_batches = all.distinct_batches.max(1);
                prepare_batches(&all, ExecMode::Timing, machine.spec(0)).planned_for(machine)
            });
            return Ok(Planned::Cached(&planned[which]));
        }

        // Partial/misaligned batch: planned from the pool runs its requests
        // point into, padded with empty samples up to the GPU count (the
        // plan splits samples across devices and needs at least one per
        // device). Requests carry bag *sizes* only, so there are no raw
        // indices to profile: fresh batches always run with plain
        // (uncached, undeduped) accounting.
        let window = PoolWindow::new(reqs, emb.n_features, emb.n_gpus)?;
        let plan = plain_plan(emb, &window, machine.spec(0));
        Ok(Planned::Fresh(PlannedBatch::new(machine, plan)))
    }
}

/// A planned batch that is either a borrow of a canonical (cached) plan or
/// a freshly assembled one — serving's `Cow`: the aligned steady state
/// never clones, partial windows still own their plan. Derefs to
/// [`PlannedBatch`], so batch executors take it as `&pb` directly.
enum Planned<'a> {
    /// A canonical plan, served by reference.
    Cached(&'a PlannedBatch),
    /// A plan assembled for this specific (partial) window.
    Fresh(PlannedBatch),
}

impl std::ops::Deref for Planned<'_> {
    type Target = PlannedBatch;

    fn deref(&self) -> &PlannedBatch {
        match self {
            Planned::Cached(p) => p,
            Planned::Fresh(p) => p,
        }
    }
}

/// The backend a ladder tier executes on: the `Baseline` tier is the
/// collective exchange, the others one-sided. Every tier's policy keeps
/// `device_fill` on (serve lost shards from replicas + fill immediately)
/// and leaves per-batch failover to the controller (`failover_flaps: 0`);
/// on a clean fabric the `Pgas` tier is bit-identical to the plain PGAS
/// fused path.
fn tier_backend(tier: Tier, slo: Dur) -> Backend {
    let strict = match tier {
        Tier::Baseline => Backend::baseline(),
        _ => Backend::pgas(),
    };
    strict.with_policy(ResiliencePolicy {
        failover_flaps: 0,
        // Half the SLO, not the SLO itself: a batch truncated *at* the
        // deadline still has queue/close wait on top, so capping at `slo`
        // would guarantee the cap itself breaches.
        batch_deadline: match tier {
            Tier::Pgas => None,
            _ => Some(slo / 2),
        },
        fill: DegradedFill::Mean,
        device_fill: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::MachineConfig;

    fn serve_cfg(backend: ServeBackendKind, rate: f64) -> ServeConfig {
        let mut emb = EmbLayerConfig::paper_weak_scaling(2).scaled_down(512);
        emb.distinct_batches = 2;
        ServeConfig::new(emb, backend, rate, Dur::from_us(200), 600, 42)
    }

    fn run(cfg: ServeConfig) -> ServeReport {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        EmbServer::new(cfg).run(&mut m).unwrap()
    }

    #[test]
    fn serving_is_deterministic_and_conserves_requests() {
        let a = run(serve_cfg(ServeBackendKind::PgasFused, 2e5));
        let b = run(serve_cfg(ServeBackendKind::PgasFused, 2e5));
        assert_eq!(a.latency.p99(), b.latency.p99());
        assert_eq!(a.served, b.served);
        assert_eq!(a.end, b.end);
        assert_eq!(
            a.served + a.shed + a.timed_out + a.malformed,
            a.generated,
            "every request must be disposed of exactly once"
        );
        assert!(a.batches > 0);
        assert!(a.latency.p50() <= a.latency.p99());
    }

    #[test]
    fn pgas_serves_at_least_as_well_as_baseline() {
        let p = run(serve_cfg(ServeBackendKind::PgasFused, 2e5));
        let b = run(serve_cfg(ServeBackendKind::Baseline, 2e5));
        assert!(
            p.latency.p99() <= b.latency.p99(),
            "pgas p99 {} vs baseline {}",
            p.latency.p99(),
            b.latency.p99()
        );
    }

    #[test]
    fn resilient_on_clean_fabric_matches_pgas() {
        let p = run(serve_cfg(ServeBackendKind::PgasFused, 2e5));
        let r = run(serve_cfg(ServeBackendKind::Resilient, 2e5));
        assert_eq!(r.latency.p99(), p.latency.p99());
        assert_eq!(r.end, p.end);
        let res = r.resilience.unwrap();
        assert_eq!(res.degraded_rows, 0);
        assert_eq!(res.baseline_batches, 0);
    }

    #[test]
    fn gpu_count_mismatch_is_a_typed_error() {
        let cfg = serve_cfg(ServeBackendKind::Baseline, 1e5);
        let mut m = Machine::new(MachineConfig::dgx_v100(4));
        let err = EmbServer::new(cfg).run(&mut m).unwrap_err();
        assert!(matches!(
            err,
            ServeError::GpuCountMismatch {
                expected: 2,
                got: 4
            }
        ));
        assert!(err.to_string().contains("2 GPUs"));
    }

    #[test]
    fn controlled_run_without_slo_is_a_typed_error() {
        let cfg = serve_cfg(ServeBackendKind::Resilient, 1e5);
        assert!(cfg.slo.is_none());
        let mut ctrl = Controller::new(&cfg.batcher, cfg.emb.hot_cache_rows);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let err = EmbServer::new(cfg)
            .run_controlled(&mut m, &mut ctrl)
            .unwrap_err();
        assert!(matches!(err, ServeError::MissingSlo));
        assert!(err.to_string().contains("cfg.slo"));
    }

    #[test]
    fn the_controller_steers_against_the_servers_slo() {
        // One trace, two SLOs: a breached SLO halves the close deadline
        // down to its floor, an ample one doubles it up to its ceiling.
        let controlled = |slo: Dur| {
            let mut cfg = serve_cfg(ServeBackendKind::PgasFused, 1e5);
            cfg.slo = Some(slo);
            let d0 = cfg.batcher.close_deadline;
            let mut ctrl = Controller::new(&cfg.batcher, cfg.emb.hot_cache_rows);
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            let r = EmbServer::new(cfg)
                .run_controlled(&mut m, &mut ctrl)
                .unwrap();
            assert!(r.control.unwrap().deadline_changes > 0, "slo {slo:?}");
            (ctrl.decision().close_deadline, d0, r.batches)
        };
        let (tight, d0, tight_batches) = controlled(Dur::from_us(50));
        let (loose, _, loose_batches) = controlled(Dur::from_ms(100));
        assert_eq!(tight, d0 / 4);
        assert_eq!(loose, d0 * 4);
        assert_ne!(tight_batches, loose_batches);
    }

    #[test]
    fn bursty_arrivals_fatten_the_tail() {
        // Probe the machine's serving capacity, then offer the same mean
        // rate two ways: steady Poisson at half capacity (keeps up) vs
        // ON/OFF bursts at twice capacity during ON windows (falls behind,
        // building queue waits the Poisson run never sees).
        let probe = run(serve_cfg(ServeBackendKind::PgasFused, 2e5));
        let svc = probe.batch_service.p50().as_secs_f64();
        assert!(svc > 0.0);
        let cap_qps = serve_cfg(ServeBackendKind::PgasFused, 1.0)
            .batcher
            .max_batch as f64
            / svc;

        let mut poisson = serve_cfg(ServeBackendKind::PgasFused, 0.5 * cap_qps);
        poisson.n_requests = 2000;
        let mut bursty = poisson.clone();
        bursty.process = ArrivalProcess::OnOff {
            rate_qps: 2.0 * cap_qps,
            on: Dur::from_secs_f64(20.0 * svc),
            off: Dur::from_secs_f64(60.0 * svc),
        };
        let p = run(poisson);
        let b = run(bursty);
        assert!(
            b.latency.p99() > p.latency.p99(),
            "bursty p99 {} vs poisson {}",
            b.latency.p99(),
            p.latency.p99()
        );
    }
}
