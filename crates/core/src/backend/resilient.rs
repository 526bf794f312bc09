//! Graceful degradation: what a [`Backend`](crate::backend::Backend) with a
//! [`ResiliencePolicy`] does that a strict one does not.
//!
//! Production recommenders cannot return an error to the ranking stage just
//! because a link flapped: they serve *something* for every request, at
//! degraded quality if need be. The batch executor is always fault-aware
//! ([`execute_batch`](crate::backend::execute_batch)); a policy sets how
//! strict it is:
//!
//! * **Failover** — once any directed link has flapped (gone down and come
//!   back) more than a configured number of times, the remaining batches of
//!   a one-sided or gateway backend run on the baseline collective path,
//!   whose bulk transfers amortize the per-message fault exposure of 256 B
//!   one-sided stores.
//! * **Deadlines** — each batch may carry a completion deadline. Rows still
//!   in flight when it expires are *served from the fill* (zeros or the mean
//!   embedding) instead of stalling inference, and are counted in the
//!   served-with-degradation statistics.
//! * **Retry exhaustion** — a put or collective chunk that exhausts its
//!   retry budget degrades only the rows it carried; the batch still
//!   completes.
//!
//! On a clean fabric (no fault plan, or a trivial one) the policy has
//! nothing to act on: runs are bit-identical in both timing and functional
//! output to the strict backend over the same exchange — resilience costs
//! nothing until something breaks.

use desim::{Dur, SimTime};
use gpusim::Machine;
use simtensor::Tensor;

use crate::backend::single::Degrade;
use crate::backend::BackendResult;

/// What to serve in place of a pooled row that missed its deadline or whose
/// transfer exhausted its retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradedFill {
    /// All-zero rows: the interaction layer sees a null embedding.
    Zeros,
    /// The mean of the rows that did arrive — a serving-quality fallback
    /// that keeps downstream activations in distribution.
    Mean,
}

/// Tunables of the graceful-degradation behavior.
#[derive(Clone, Copy, Debug)]
pub struct ResiliencePolicy {
    /// Fail a one-sided or gateway exchange over to the baseline collective
    /// path once any directed link has completed this many down/up flaps.
    /// `0` disables failover.
    pub failover_flaps: usize,
    /// Per-batch completion deadline, measured from the batch's start.
    /// `None` waits indefinitely (strict correctness, no degradation).
    pub batch_deadline: Option<Dur>,
    /// Fill served for degraded rows.
    pub fill: DegradedFill,
    /// When a whole device (and the shard it owns) is lost at batch start
    /// ([`gpusim::FabricError::DeviceLost`]), serve its rows immediately:
    /// the fraction resident in the hot-cache replicas
    /// ([`crate::ForwardPlan::measured_hit`]) is served from the replicas, the
    /// rest from the degradation fill — instead of stalling the batch until
    /// the device recovers. `false` (the default, and what a policy-free
    /// static stack does) waits out the outage: the lost device's kernel
    /// cannot start before `up_at`.
    pub device_fill: bool,
}

impl ResiliencePolicy {
    /// This policy's strictness for one batch starting at `start`, recorded
    /// in `report`: what [`execute_batch`](crate::backend::execute_batch)
    /// takes as its degradation argument.
    pub fn degrade<'a>(&self, start: SimTime, report: &'a mut ResilienceReport) -> Degrade<'a> {
        Degrade {
            deadline: self.batch_deadline.map(|d| start + d),
            device_fill: self.device_fill,
            report,
        }
    }

    /// Whether any directed link of `machine` has completed at least
    /// `failover_flaps` down/up flaps by `at` (never, with `0`). Flap counts
    /// only grow, so a run that trips stays tripped.
    pub(crate) fn tripped(&self, machine: &Machine, at: SimTime) -> bool {
        let (n, flaps) = (machine.n_gpus(), self.failover_flaps);
        flaps > 0
            && machine.faults().is_some_and(|fp| {
                (0..n).any(|s| (0..n).any(|d| s != d && fp.flap_count(s, d, at) >= flaps))
            })
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            failover_flaps: 3,
            batch_deadline: None,
            fill: DegradedFill::Zeros,
            device_fill: false,
        }
    }
}

/// Degradation accounting for a run under a policy.
#[derive(Clone, Debug, Default)]
pub struct ResilienceReport {
    /// Batches served by a one-sided or gateway exchange.
    pub pgas_batches: usize,
    /// Batches served by the baseline collective path (a collective
    /// backend's, or after failover).
    pub baseline_batches: usize,
    /// Batch index at which a one-sided or gateway backend failed over, if
    /// it did.
    pub failover_at: Option<usize>,
    /// One-sided puts that needed at least one retry but were delivered.
    pub retried_puts: u64,
    /// Total retries across puts and collective chunks.
    pub retries: u64,
    /// Puts that exhausted their retry budget.
    pub exhausted_puts: u64,
    /// Pooled rows served from the fill instead of real data.
    pub degraded_rows: u64,
    /// All pooled rows served (degraded or not).
    pub total_rows: u64,
    /// Batches whose deadline expired before completion.
    pub deadline_missed_batches: usize,
    /// Batches that observed at least one lost device at their start.
    pub device_loss_batches: usize,
    /// Rows of lost devices served from hot-cache replicas instead of the
    /// degradation fill (only with [`ResiliencePolicy::device_fill`]).
    pub replica_rows: u64,
    /// Wall time of each batch, in execution order (for p50/p99 latency).
    pub batch_latencies: Vec<Dur>,
    /// Per-destination degraded rows of the most recent batch — the ones
    /// the functional fill applies to.
    pub degraded_by_dst: Vec<u64>,
}

impl ResilienceReport {
    /// Fraction of served rows that carried the fill instead of real data.
    pub fn degraded_fraction(&self) -> f64 {
        if self.total_rows == 0 {
            0.0
        } else {
            self.degraded_rows as f64 / self.total_rows as f64
        }
    }

    /// Batch-latency quantile in `[0, 1]` (nearest-rank on the sorted
    /// latencies). [`Dur::ZERO`] if no batches ran.
    pub fn latency_quantile(&self, q: f64) -> Dur {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
        if self.batch_latencies.is_empty() {
            return Dur::ZERO;
        }
        let mut sorted = self.batch_latencies.clone();
        sorted.sort();
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }
}

/// A closed-loop run plus its degradation accounting (empty for a strict
/// backend).
#[derive(Clone, Debug)]
pub struct ResilientResult {
    /// The ordinary backend result (report + optional outputs).
    pub result: BackendResult,
    /// What the resilience machinery did along the way.
    pub resilience: ResilienceReport,
}

/// Overwrite `degraded` pooled rows of a `[mb, n_features × dim]` output
/// with the policy fill.
///
/// The timing model moves row *counts*, not row identities, so which
/// specific rows were late is not knowable; the fill is applied to the tail
/// rows deterministically — the statistic (how many rows were served
/// degraded) is the modeled quantity.
pub(crate) fn apply_fill(fill: DegradedFill, out: &mut Tensor, degraded: u64, dim: usize) {
    let data = out.data_mut();
    debug_assert_eq!(data.len() % dim, 0);
    let n_rows = data.len() / dim;
    let k = (degraded as usize).min(n_rows);
    if k == 0 {
        return;
    }
    let intact = n_rows - k;
    let fill_row: Vec<f32> = match fill {
        DegradedFill::Zeros => vec![0.0; dim],
        DegradedFill::Mean => {
            let mut acc = vec![0.0f64; dim];
            for r in 0..intact {
                for (j, a) in acc.iter_mut().enumerate() {
                    *a += f64::from(data[r * dim + j]);
                }
            }
            let denom = intact.max(1) as f64;
            acc.iter().map(|&v| (v / denom) as f32).collect()
        }
    };
    for r in intact..n_rows {
        data[r * dim..(r + 1) * dim].copy_from_slice(&fill_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{prepare_batches, Backend, ExecMode, PlannedBatch};
    use crate::EmbLayerConfig;
    use gpusim::{FaultPlan, FaultSpec, MachineConfig};

    fn tiny_cfg(g: usize) -> EmbLayerConfig {
        let mut c = EmbLayerConfig::paper_weak_scaling(g).scaled_down(512);
        c.n_batches = 3;
        c.distinct_batches = 2;
        c
    }

    fn resilient() -> Backend {
        Backend::pgas().with_policy(ResiliencePolicy::default())
    }

    /// `a` and `b` ran the same batches alike: timing, traffic and any
    /// functional outputs, bit for bit.
    fn assert_same_run(a: &BackendResult, b: &BackendResult) {
        assert_eq!(a.report.total, b.report.total);
        assert_eq!(a.report.breakdown, b.report.breakdown);
        assert_eq!(a.report.traffic, b.report.traffic);
        assert_eq!(a.outputs.is_some(), b.outputs.is_some());
        for (x, y) in a.outputs.iter().flatten().zip(b.outputs.iter().flatten()) {
            assert!(
                x.allclose(y, 0.0),
                "a clean policy run must not alter outputs"
            );
        }
    }

    #[test]
    fn a_policy_on_a_clean_fabric_runs_as_pgas() {
        // On a crossbar and on a clean two-tier pod, timed and functional.
        let fabrics = [
            (2, MachineConfig::dgx_v100(2)),
            (4, MachineConfig::pod_v100(2, 2)),
        ];
        for (g, fabric) in fabrics {
            let cfg = tiny_cfg(g);
            for mode in [ExecMode::Timing, ExecMode::Functional] {
                let p = Backend::pgas().run(&mut Machine::new(fabric.clone()), &cfg, mode);
                let r = resilient().run_resilient(&mut Machine::new(fabric.clone()), &cfg, mode);
                assert_same_run(&r.result, &p);
                let res = &r.resilience;
                assert_eq!(res.pgas_batches, cfg.n_batches);
                assert_eq!(res.baseline_batches, 0);
                assert_eq!(res.failover_at, None);
                assert_eq!(res.degraded_rows, 0);
                assert_eq!(res.retries, 0);
                assert!(res.total_rows > 0);
                assert_eq!(res.batch_latencies.len(), cfg.n_batches);
            }
        }
    }

    #[test]
    fn a_collective_with_a_policy_on_a_clean_fabric_runs_as_the_baseline() {
        let cfg = tiny_cfg(2);
        let fabric = MachineConfig::dgx_v100(2);
        let be = Backend::baseline().with_policy(ResiliencePolicy::default());
        for mode in [ExecMode::Timing, ExecMode::Functional] {
            let b = Backend::baseline().run(&mut Machine::new(fabric.clone()), &cfg, mode);
            let r = be.run_resilient(&mut Machine::new(fabric.clone()), &cfg, mode);
            assert_same_run(&r.result, &b);
            assert_eq!(r.resilience.baseline_batches, cfg.n_batches);
            assert_eq!(r.resilience.pgas_batches, 0);
            assert_eq!(r.resilience.failover_at, None);
        }
    }

    #[test]
    fn resilient_backend_survives_tiered_chaos_on_pods() {
        // Chaos concentrated on the inter-node tier (the intra crossbar
        // stays clean): every seed must complete all batches without
        // panicking, and at least one seed must actually exercise the
        // degradation machinery.
        let cfg = tiny_cfg(4);
        let mut perturbed = 0u64;
        for seed in 0..8u64 {
            let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
            let topo = m.topology().clone();
            m.install_faults(FaultPlan::generate_tiered(
                seed,
                &topo,
                FaultSpec::chaos(0.1),
                FaultSpec::chaos(0.9),
            ));
            let r = resilient().run_resilient(&mut m, &cfg, ExecMode::Timing);
            assert_eq!(r.resilience.batch_latencies.len(), cfg.n_batches);
            assert!(r.result.report.total > desim::Dur::ZERO);
            perturbed += r.resilience.retries
                + r.resilience.degraded_rows
                + u64::from(r.resilience.failover_at.is_some());
        }
        assert!(
            perturbed > 0,
            "chaos(0.9) on the inter-node tier must perturb at least one run"
        );
    }

    #[test]
    fn trivial_fault_plan_is_also_identical() {
        let cfg = tiny_cfg(2);
        let mut mp = Machine::new(MachineConfig::dgx_v100(2));
        let p = Backend::pgas().run(&mut mp, &cfg, ExecMode::Timing);
        let mut mr = Machine::new(MachineConfig::dgx_v100(2));
        mr.install_faults(FaultPlan::generate(7, 2, FaultSpec::chaos(0.0)));
        let r = resilient().run_resilient(&mut mr, &cfg, ExecMode::Timing);
        assert_eq!(r.result.report.total, p.report.total);
        assert_eq!(r.resilience.degraded_rows, 0);
    }

    /// Blame stays well-formed under degradation: one exact partition per
    /// batch, and no recorded span runs backwards.
    fn assert_blame_well_formed(m: &Machine, batches: usize) {
        let g = m.blame().expect("recorder was enabled");
        for s in g.spans() {
            assert!(s.ready <= s.start && s.start <= s.end, "backwards: {s:?}");
        }
        assert_eq!(g.batches().len(), batches);
        for b in g.batches() {
            assert_eq!(b.vec.total_ns(), (b.end - b.start).as_ns());
        }
    }

    #[test]
    fn impossible_deadline_degrades_but_always_returns() {
        let cfg = tiny_cfg(2);
        // Over both exchanges: abandoned fences and abandoned waits.
        for strict in [Backend::pgas(), Backend::baseline()] {
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            m.enable_blame();
            let policy = ResiliencePolicy {
                batch_deadline: Some(Dur::from_ns(1)),
                ..ResiliencePolicy::default()
            };
            let r = strict
                .with_policy(policy)
                .run_resilient(&mut m, &cfg, ExecMode::Functional);
            let res = &r.resilience;
            assert_eq!(res.deadline_missed_batches, cfg.n_batches);
            assert!(res.degraded_rows > 0, "late rows must be counted");
            assert!(res.degraded_fraction() > 0.0 && res.degraded_fraction() <= 1.0);
            // Inference still returns outputs, with the tail rows zero-filled.
            let outs = r.result.outputs.expect("outputs always produced");
            let dim = cfg.dim;
            let out0 = &outs[0];
            let rows = out0.data().len() / dim;
            let tail = &out0.data()[(rows - 1) * dim..];
            assert!(
                tail.iter().all(|&v| v == 0.0),
                "degraded tail must be filled"
            );
            assert_blame_well_formed(&m, cfg.n_batches);
        }
    }

    #[test]
    fn failover_trips_on_flapping_links() {
        // A spec that flaps hard and fast so a handful of µs-scale batches
        // observe several completed down/up cycles.
        let spec = FaultSpec {
            flap_rate: 50_000.0,
            flap_window: (Dur::from_us(1), Dur::from_us(5)),
            horizon: Dur::from_ms(50),
            ..FaultSpec::none()
        };
        let cfg = tiny_cfg(2);
        let be = Backend::pgas().with_policy(ResiliencePolicy {
            failover_flaps: 1,
            ..ResiliencePolicy::default()
        });
        let mut found = None;
        for seed in 0..64u64 {
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            m.install_faults(FaultPlan::generate(seed, 2, spec));
            let r = be.run_resilient(&mut m, &cfg, ExecMode::Timing);
            if r.resilience.failover_at.is_some() {
                found = Some(r);
                break;
            }
        }
        let r = found.expect("some seed must flap before the run ends");
        let res = &r.resilience;
        assert!(
            res.baseline_batches > 0,
            "failover must hand batches to baseline"
        );
        assert_eq!(
            res.pgas_batches + res.baseline_batches,
            cfg.n_batches,
            "every batch is served by exactly one path"
        );
        assert_eq!(res.failover_at, Some(res.pgas_batches));
    }

    #[test]
    fn chaos_always_completes_every_batch() {
        let cfg = tiny_cfg(2);
        let be = Backend::pgas().with_policy(ResiliencePolicy {
            batch_deadline: Some(Dur::from_ms(5)),
            ..ResiliencePolicy::default()
        });
        for seed in 0..20u64 {
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            m.install_faults(FaultPlan::generate(seed, 2, FaultSpec::chaos(0.8)));
            let r = be.run_resilient(&mut m, &cfg, ExecMode::Timing);
            let res = &r.resilience;
            assert_eq!(res.batch_latencies.len(), cfg.n_batches);
            assert!(res.total_rows > 0);
            assert!(res.degraded_rows <= res.total_rows);
            assert!(res.latency_quantile(0.99) >= res.latency_quantile(0.5));
        }
    }

    /// A spec whose only fault is device loss, with windows long enough
    /// that a batch started just inside one either completes inside it
    /// (device_fill) or demonstrably waits it out (no device_fill).
    fn loss_only_spec() -> FaultSpec {
        FaultSpec {
            device_loss_rate: 20.0,
            device_loss_window: (Dur::from_ms(50), Dur::from_ms(50)),
            horizon: Dur::from_ms(200),
            ..FaultSpec::none()
        }
    }

    /// Find a seed whose plan schedules an outage on device 1 while device
    /// 0 is healthy just inside it; returns the seed and that window.
    fn find_outage() -> (u64, gpusim::FaultWindow) {
        (0..512u64)
            .find_map(|s| {
                let fp = FaultPlan::generate(s, 2, loss_only_spec());
                let w = *fp.device_windows(1).first()?;
                let probe = w.start + Dur::from_us(1);
                (fp.device_down_until(0, probe).is_none()).then_some((s, w))
            })
            .expect("some seed must schedule a lone device-1 outage")
    }

    #[test]
    fn device_fill_serves_lost_device_without_stalling() {
        let cfg = tiny_cfg(2);
        let (seed, w) = find_outage();
        let start = w.start + Dur::from_us(1);
        let mk = || {
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            m.install_faults(FaultPlan::generate(seed, 2, loss_only_spec()));
            m.enable_blame();
            m
        };
        let mut m = mk();
        let prepared = prepare_batches(&cfg, ExecMode::Timing, &m.spec(0).clone());
        let pb = PlannedBatch::new(&m, prepared.plans[0].clone());
        let lost_rows: u64 = (0..2).map(|g| pb.plan().devices[1].rows_to(g)).sum();

        // With device_fill the batch completes inside the outage window and
        // every lost row is accounted replica-or-fill.
        let fill = Backend::pgas().with_policy(ResiliencePolicy {
            device_fill: true,
            fill: DegradedFill::Mean,
            ..ResiliencePolicy::default()
        });
        let mut rep = ResilienceReport::default();
        let run = fill.run_batch(&mut m, &pb, start, None, &mut rep);
        assert_eq!(rep.device_loss_batches, 1);
        assert_eq!(
            rep.replica_rows + rep.degraded_rows,
            lost_rows,
            "lost device's rows split between replicas and fill"
        );
        assert!(
            run.end < w.end,
            "device_fill must not wait for recovery ({:?} vs window end {:?})",
            run.end,
            w.end
        );
        assert_blame_well_formed(&m, 1);

        // Without device_fill the lost device's kernel cannot start before
        // recovery, so the batch stalls past the window end.
        let mut m2 = mk();
        let mut rep2 = ResilienceReport::default();
        let run2 = resilient().run_batch(&mut m2, &pb, start, None, &mut rep2);
        assert_eq!(rep2.device_loss_batches, 1);
        assert_eq!(rep2.degraded_rows, 0, "strict policy serves real data");
        assert!(
            run2.end >= w.end,
            "strict policy waits out the outage ({:?} vs {:?})",
            run2.end,
            w.end
        );
        assert_blame_well_formed(&m2, 1);
    }

    #[test]
    fn baseline_path_also_device_fills() {
        let cfg = tiny_cfg(2);
        let (seed, w) = find_outage();
        let start = w.start + Dur::from_us(1);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        m.install_faults(FaultPlan::generate(seed, 2, loss_only_spec()));
        m.enable_blame();
        let prepared = prepare_batches(&cfg, ExecMode::Timing, &m.spec(0).clone());
        let pb = PlannedBatch::new(&m, prepared.plans[0].clone());
        let lost_rows: u64 = (0..2).map(|g| pb.plan().devices[1].rows_to(g)).sum();
        let be = Backend::baseline().with_policy(ResiliencePolicy {
            device_fill: true,
            ..ResiliencePolicy::default()
        });
        let mut rep = ResilienceReport::default();
        let run = be.run_batch(&mut m, &pb, start, None, &mut rep);
        assert_eq!(rep.device_loss_batches, 1);
        assert_eq!(rep.baseline_batches, 1);
        assert_eq!(rep.replica_rows + rep.degraded_rows, lost_rows);
        assert!(run.end < w.end, "collective path must not stall either");
        assert_blame_well_formed(&m, 1);
    }

    #[test]
    fn device_fill_is_noop_on_clean_fabric() {
        let cfg = tiny_cfg(2);
        let mut mp = Machine::new(MachineConfig::dgx_v100(2));
        let p = Backend::pgas().run(&mut mp, &cfg, ExecMode::Timing);
        let mut mr = Machine::new(MachineConfig::dgx_v100(2));
        let be = Backend::pgas().with_policy(ResiliencePolicy {
            device_fill: true,
            ..ResiliencePolicy::default()
        });
        let r = be.run_resilient(&mut mr, &cfg, ExecMode::Timing);
        assert_eq!(r.result.report.total, p.report.total);
        assert_eq!(r.resilience.device_loss_batches, 0);
        assert_eq!(r.resilience.replica_rows, 0);
    }

    #[test]
    fn mean_fill_replaces_tail_with_mean_of_intact_rows() {
        let dim = 2;
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 9.0, 9.0], &[3, 2]);
        apply_fill(DegradedFill::Mean, &mut t, 1, dim);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0, 2.0, 3.0]);
        // Zeros fill, everything degraded.
        let mut z = Tensor::from_vec(vec![1.0; 6], &[3, 2]);
        apply_fill(DegradedFill::Zeros, &mut z, 99, dim);
        assert!(z.data().iter().all(|&v| v == 0.0));
    }
}
