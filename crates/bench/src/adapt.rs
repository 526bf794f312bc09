//! **EXT-13 — `reproduce adapt`**: the adaptive resilience control plane
//! against static configurations under a production scenario suite.
//!
//! Four seeded scenarios stress a serving deployment the way a day in
//! production does — a diurnal load curve, a flash crowd, a drifting key
//! skew, and a fault storm with whole-device loss — and each scenario runs
//! under four policies over *identical* arrivals and fault plans:
//!
//! * `adaptive` — [`emb_serve::Controller`] in the loop (failover ladder,
//!   circuit breakers, dynamic deadline, graduated shedding, online cache
//!   resizing), controller state carried across the scenario's phases.
//! * `static_pgas` — pinned to the PGAS path, no deadline, no adaptation.
//! * `static_resilient` — a reasonably tuned fixed resilient config
//!   (degradation deadline at half the SLO, mean fill).
//! * `static_baseline` — pinned to the fault-aware baseline collective.
//!
//! All four execute through the resilient per-batch surface so faults hit
//! every policy honestly; on a clean fabric the pinned PGAS config is
//! bit-identical to the plain PGAS backend. The scoreboard is
//! SLO-violation-minutes per operating hour and goodput *within* the SLO;
//! the headline claim — adaptive strictly dominates every static config
//! under the flash-crowd and fault-storm scenarios — is checked by
//! [`AdaptSweep::adaptive_dominates`] and locked by tests and CI.
//!
//! Fault rates in the storm scenario are expressed per *service time*, not
//! per wall-clock second, so the scenario physics survive `--scale` /
//! `--smoke` shrinking unchanged.

use desim::{Dur, SimTime};
use emb_retrieval::backend::{
    execute_batch, plan_for_batch, DegradedFill, Exchange, PlannedBatch, ResiliencePolicy,
};
use emb_retrieval::{EmbLayerConfig, SparseBatch};
use emb_serve::{
    ControlConfig, ControlReport, Controller, EmbServer, ServeBackendKind, ServeConfig,
};
use gpusim::{FaultPlan, FaultSpec, Machine, MachineConfig};
use pgas_rt::PgasConfig;
use rayon::prelude::*;
use simccl::CollectiveConfig;

use crate::experiments::scaled;

/// Scenario labels, in sweep order.
pub const ADAPT_SCENARIOS: [&str; 4] = ["diurnal", "flash", "skewdrift", "faultstorm"];
/// Policy labels, in sweep order.
pub const ADAPT_POLICIES: [&str; 4] = [
    "adaptive",
    "static_pgas",
    "static_resilient",
    "static_baseline",
];

/// One phase of a scenario: an offered load (as a multiple of the probed
/// baseline capacity), an optional fault-storm intensity and an optional
/// Zipf-exponent override for the request key distribution.
#[derive(Clone, Copy, Debug)]
struct Phase {
    rate_mult: f64,
    storm: f64,
    alpha: f64,
    /// Length of this phase in multiples of the sweep's batches-per-phase
    /// budget (a flash crowd has to last long enough to fill the admission
    /// queue, or no policy is ever stressed).
    len_mult: f64,
}

impl Phase {
    fn clean(rate_mult: f64) -> Self {
        Phase {
            rate_mult,
            storm: 0.0,
            alpha: 0.0,
            len_mult: 1.0,
        }
    }
}

fn scenario_phases(scenario: &str) -> Vec<Phase> {
    match scenario {
        // A compressed day: ramp to near baseline capacity and back down.
        "diurnal" => [0.25, 0.6, 0.95, 0.6, 0.25]
            .iter()
            .map(|&m| Phase::clean(m))
            .collect(),
        // A 10x flash crowd: quiet, then ten times that — 4x the
        // *baseline* capacity, well past the PGAS path's own — held long
        // enough to saturate the admission queue, then quiet again.
        "flash" => vec![
            Phase::clean(0.4),
            Phase {
                rate_mult: 4.0,
                storm: 0.0,
                alpha: 0.0,
                len_mult: 6.0,
            },
            Phase::clean(0.4),
        ],
        // Key skew drifting from near-uniform to heavily peaked at a
        // steady moderate load; the hot cache is enabled for this one.
        "skewdrift" => [0.2, 0.8, 1.4]
            .iter()
            .map(|&a| Phase {
                rate_mult: 0.5,
                storm: 0.0,
                alpha: a,
                len_mult: 1.0,
            })
            .collect(),
        // Clean warm-up, a fault storm with whole-device outages, then a
        // clean recovery window.
        "faultstorm" => vec![
            Phase::clean(0.5),
            Phase {
                rate_mult: 0.5,
                storm: 0.6,
                alpha: 0.0,
                len_mult: 1.0,
            },
            Phase::clean(0.5),
        ],
        other => panic!("unknown adapt scenario {other:?}"),
    }
}

/// A fault storm whose rates are expressed per PGAS service time `svc`
/// (and whose windows span multiples of it), so intensity means the same
/// thing at paper scale and at `--smoke` scale. Device outages last far
/// longer than the SLO: a policy that waits them out cannot meet it.
fn storm_spec(intensity: f64, svc: Dur, horizon: Dur) -> FaultSpec {
    let per_svc = 1.0 / svc.as_secs_f64().max(1e-12);
    FaultSpec {
        degrade_rate: 0.4 * intensity * per_svc,
        degrade_window: (svc / 2, svc * 4u64),
        degrade_factor: (0.25, 0.9),
        flap_rate: 0.25 * intensity * per_svc,
        flap_window: (svc / 2, svc * 4u64),
        drop_prob: 0.02 * intensity,
        delay_prob: 0.05 * intensity,
        delay: (svc / 64, svc / 8),
        straggler_prob: 0.25 * intensity,
        straggler_factor: (1.05, 1.0 + 0.5 * intensity),
        device_loss_rate: 0.03 * intensity * per_svc,
        device_loss_window: (svc * 4u64, svc * 16u64),
        horizon,
    }
}

fn static_policy(policy: &str, slo: Dur) -> ResiliencePolicy {
    match policy {
        "static_pgas" => ResiliencePolicy {
            failover_flaps: 0,
            batch_deadline: None,
            fill: DegradedFill::Mean,
            baseline_only: false,
            device_fill: false,
        },
        "static_resilient" => ResiliencePolicy {
            batch_deadline: Some(slo / 2),
            ..ResiliencePolicy::default()
        },
        "static_baseline" => ResiliencePolicy {
            baseline_only: true,
            ..ResiliencePolicy::default()
        },
        other => panic!("unknown static policy {other:?}"),
    }
}

/// One (scenario, policy) cell of the adaptive-vs-static grid, aggregated
/// over the scenario's phases.
#[derive(Clone, Debug)]
pub struct AdaptCell {
    /// Scenario label (see [`ADAPT_SCENARIOS`]).
    pub scenario: &'static str,
    /// Policy label (see [`ADAPT_POLICIES`]).
    pub policy: &'static str,
    /// Requests generated across all phases.
    pub generated: u64,
    /// Requests served (any latency).
    pub served: u64,
    /// Arrivals shed at admission.
    pub shed: u64,
    /// Requests dropped for exceeding the request timeout.
    pub timed_out: u64,
    /// Requests whose bag sizes failed batch assembly.
    pub malformed: u64,
    /// Served requests whose end-to-end latency met the SLO.
    pub served_within_slo: u64,
    /// `served_within_slo / generated` — the scoreboard's goodput.
    pub goodput_slo: f64,
    /// SLO-violation-minutes per operating hour (60x the fraction of run
    /// time spent inside batches that breached the SLO).
    pub slo_viol_min: f64,
    /// Worst per-phase p99 end-to-end latency.
    pub worst_p99: Dur,
    /// Put/collective retries across phases.
    pub retries: u64,
    /// Rows served from the degradation fill.
    pub degraded_rows: u64,
    /// Rows served from hot-cache replicas of lost devices.
    pub replica_rows: u64,
    /// Batches that saw a whole-device outage.
    pub device_loss_batches: usize,
    /// Batches whose degradation deadline expired.
    pub deadline_missed: usize,
    /// Controller books (adaptive cells only), cumulative across phases.
    pub control: Option<ControlReport>,
}

/// Result of **`reproduce adapt`** (EXT-13).
#[derive(Clone, Debug)]
pub struct AdaptSweep {
    /// GPUs in the machine.
    pub gpus: usize,
    /// Unloaded baseline batch service time (the capacity yardstick).
    pub baseline_service: Dur,
    /// Unloaded PGAS batch service time (the SLO yardstick).
    pub pgas_service: Dur,
    /// The end-to-end latency SLO every policy is judged against.
    pub slo: Dur,
    /// Probed baseline capacity in requests per second (the load unit).
    pub capacity_qps: f64,
    /// All cells, scenario-major in [`ADAPT_SCENARIOS`] x
    /// [`ADAPT_POLICIES`] order.
    pub cells: Vec<AdaptCell>,
}

impl AdaptSweep {
    /// The cell for `scenario` under `policy`.
    pub fn cell(&self, scenario: &str, policy: &str) -> &AdaptCell {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.policy == policy)
            .unwrap_or_else(|| panic!("no adapt cell for {scenario}/{policy}"))
    }

    /// The headline claim: under the flash-crowd and fault-storm
    /// scenarios the adaptive policy has strictly fewer
    /// SLO-violation-minutes *and* at least the goodput of every static
    /// configuration.
    pub fn adaptive_dominates(&self) -> bool {
        ["flash", "faultstorm"].iter().all(|s| {
            let a = self.cell(s, "adaptive");
            ADAPT_POLICIES[1..].iter().all(|p| {
                let st = self.cell(s, p);
                a.slo_viol_min < st.slo_viol_min && a.goodput_slo >= st.goodput_slo
            })
        })
    }
}

struct Yardstick {
    base: EmbLayerConfig,
    pgas_service: Dur,
    close_deadline: Dur,
    slo: Dur,
    capacity_qps: f64,
}

fn run_cell(
    scenario: &'static str,
    policy: &'static str,
    gpus: usize,
    batches_per_phase: usize,
    seed: u64,
    y: &Yardstick,
) -> AdaptCell {
    let mut ctrl: Option<Controller> = None;
    let mut cell = AdaptCell {
        scenario,
        policy,
        generated: 0,
        served: 0,
        shed: 0,
        timed_out: 0,
        malformed: 0,
        served_within_slo: 0,
        goodput_slo: 0.0,
        slo_viol_min: 0.0,
        worst_p99: Dur::ZERO,
        retries: 0,
        degraded_rows: 0,
        replica_rows: 0,
        device_loss_batches: 0,
        deadline_missed: 0,
        control: None,
    };
    let mut viol_secs = 0.0f64;
    let mut run_secs = 0.0f64;

    for (pi, ph) in scenario_phases(scenario).iter().enumerate() {
        let mut emb = y.base.clone();
        if ph.alpha > 0.0 {
            emb.distribution = emb_retrieval::IndexDistribution::Zipf { exponent: ph.alpha };
        }
        if scenario == "skewdrift" {
            // Hot cache on: measured hot-set stats replace the analytic L2
            // derating (never mix the two), dedup piggybacks on the same
            // index materialization.
            emb.hot_cache_rows = (emb.table_rows as u64 / 8).max(1);
            emb.dedup = true;
            emb.cache_rows_scale = 0.0;
        }
        let rate_qps = ph.rate_mult * y.capacity_qps;
        let n_batches = ((batches_per_phase.max(1) as f64) * ph.len_mult).ceil() as usize;
        let n_requests = n_batches.max(1) * emb.batch_size;
        // Arrivals and faults are seeded by (seed, phase) only, never by
        // policy, so every policy faces the identical trace.
        let phase_seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(pi as u64);

        let mut scfg = ServeConfig::new(
            emb,
            ServeBackendKind::Resilient,
            rate_qps,
            y.close_deadline,
            n_requests,
            phase_seed,
        );
        scfg.batcher.queue_bound = 8 * scfg.batcher.max_batch;
        scfg.batcher.request_timeout = y.slo * 2u64;
        scfg.slo = Some(y.slo);
        if policy != "adaptive" {
            scfg.policy = static_policy(policy, y.slo);
        }

        let mut machine = Machine::new(MachineConfig::dgx_v100(gpus));
        if ph.storm > 0.0 {
            let span =
                Dur::from_secs_f64(n_requests as f64 / rate_qps + 32.0 * y.slo.as_secs_f64());
            machine.install_faults(FaultPlan::generate(
                phase_seed ^ 0x5AD1_57F0,
                gpus,
                storm_spec(ph.storm, y.pgas_service, span * 2u64),
            ));
        }
        let server = EmbServer::new(scfg);
        let rep = if policy == "adaptive" {
            let c = ctrl.get_or_insert_with(|| {
                Controller::new(
                    ControlConfig::for_slo(y.slo, &server.config().batcher),
                    &server.config().batcher,
                    server.config().emb.hot_cache_rows,
                )
            });
            server.run_controlled(&mut machine, c)
        } else {
            server.run(&mut machine)
        }
        .expect("adapt scenario phase must pass serving preflight");

        cell.generated += rep.generated;
        cell.served += rep.served;
        cell.shed += rep.shed;
        cell.timed_out += rep.timed_out;
        cell.malformed += rep.malformed;
        cell.served_within_slo += rep.served_within_slo;
        viol_secs += rep.slo_viol_time.as_secs_f64();
        run_secs += (rep.end - SimTime::ZERO).as_secs_f64();
        let p99 = rep.latency.p99();
        if p99 > cell.worst_p99 {
            cell.worst_p99 = p99;
        }
        if let Some(r) = &rep.resilience {
            cell.retries += r.retries;
            cell.degraded_rows += r.degraded_rows;
            cell.replica_rows += r.replica_rows;
            cell.device_loss_batches += r.device_loss_batches;
            cell.deadline_missed += r.deadline_missed_batches;
        }
        // The controller persists across phases, so the last phase's books
        // are the scenario-cumulative ones.
        cell.control = rep.control;
    }
    cell.goodput_slo = if cell.generated > 0 {
        cell.served_within_slo as f64 / cell.generated as f64
    } else {
        0.0
    };
    cell.slo_viol_min = if run_secs > 0.0 {
        60.0 * viol_secs / run_secs
    } else {
        0.0
    };
    cell
}

/// **`reproduce adapt`** — run the full scenario x policy grid. Probes the
/// unloaded baseline and PGAS batch times on the canonical batch, derives
/// the SLO (6x the PGAS service time), the micro-batch close deadline
/// (half the baseline service time) and the capacity unit
/// (`batch_size / baseline_service` QPS), then runs every cell on its own
/// fresh machines. Cells are independent — the grid runs in parallel with
/// an ordered collect — and the whole sweep is deterministic for a fixed
/// `seed` at any worker count.
pub fn adapt_sweep(gpus: usize, scale: usize, batches_per_phase: usize, seed: u64) -> AdaptSweep {
    let base = scaled(EmbLayerConfig::paper_weak_scaling(gpus), scale, 1);

    let mut m = Machine::new(MachineConfig::dgx_v100(gpus));
    let batch = SparseBatch::generate_counts_only(&base.batch_spec(), base.batch_seed(0));
    let pb = PlannedBatch::new(&m, plan_for_batch(&base, &batch, m.spec(0)));
    let collective = Exchange::Collective(CollectiveConfig::default());
    let baseline_service =
        execute_batch(&mut m, &collective, &pb, SimTime::ZERO, None, None).service();
    let mut mp = Machine::new(MachineConfig::dgx_v100(gpus));
    let one_sided = Exchange::OneSided(PgasConfig::default());
    let pgas_service = execute_batch(&mut mp, &one_sided, &pb, SimTime::ZERO, None, None).service();

    let capacity_qps = base.batch_size as f64 / baseline_service.as_secs_f64();
    let y = Yardstick {
        base,
        pgas_service,
        close_deadline: baseline_service / 2,
        slo: pgas_service * 6u64,
        capacity_qps,
    };

    let mut work: Vec<(&'static str, &'static str)> = Vec::new();
    for s in ADAPT_SCENARIOS {
        for p in ADAPT_POLICIES {
            work.push((s, p));
        }
    }
    let cells: Vec<AdaptCell> = (0..work.len())
        .into_par_iter()
        .map(|i| {
            let (s, p) = work[i];
            run_cell(s, p, gpus, batches_per_phase, seed, &y)
        })
        .collect();

    AdaptSweep {
        gpus,
        baseline_service,
        pgas_service,
        slo: y.slo,
        capacity_qps: y.capacity_qps,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_suite_runs_and_adaptive_dominates_at_smoke_scale() {
        let sweep = adapt_sweep(2, 512, 6, 42);
        assert_eq!(
            sweep.cells.len(),
            ADAPT_SCENARIOS.len() * ADAPT_POLICIES.len()
        );
        for c in &sweep.cells {
            assert_eq!(
                c.generated,
                c.served + c.shed + c.timed_out + c.malformed,
                "{}/{} must conserve requests",
                c.scenario,
                c.policy
            );
        }
        let storm = sweep.cell("faultstorm", "adaptive");
        assert!(
            storm.device_loss_batches > 0 || storm.retries > 0,
            "the fault storm must actually bite"
        );
        assert!(
            storm.control.is_some(),
            "adaptive cells carry controller books"
        );
        assert!(sweep.adaptive_dominates(), "cells: {:#?}", sweep.cells);
    }

    #[test]
    fn sweep_is_deterministic_for_a_seed() {
        let a = adapt_sweep(2, 512, 3, 7);
        let b = adapt_sweep(2, 512, 3, 7);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.generated, y.generated);
            assert_eq!(x.served_within_slo, y.served_within_slo);
            assert_eq!(x.worst_p99, y.worst_p99);
            assert_eq!(x.slo_viol_min.to_bits(), y.slo_viol_min.to_bits());
        }
    }
}
