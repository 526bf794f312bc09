//! The multi-GPU inference pipeline (paper Fig. 4 and §IV's measurement
//! setup): dense mini-batches flow through the data-parallel top MLP while
//! the model-parallel EMB layer retrieves embeddings; the two meet at the
//! interaction layer, and the bottom MLP produces predictions.
//!
//! Timing model: per batch the top MLP overlaps the EMB stage (they run on
//! independent streams touching disjoint data), so the pre-interaction
//! critical path is `max(emb_stage, top_mlp)`; interaction + bottom MLP
//! follow serially. The EMB stage — the paper's measured quantity — is
//! reported separately and is exactly what `reproduce` regenerates.

use desim::Dur;
use emb_retrieval::backend::{Backend, ExecMode, ResilienceReport, ResilientResult};
use emb_retrieval::RunReport;
use gpusim::{KernelShape, Machine};
use simtensor::Tensor;

use crate::interaction::interact_flops;
use crate::{DenseBatch, Dlrm};

/// End-to-end inference report.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Batches executed.
    pub batches: usize,
    /// The EMB stage's accumulated report (the paper's measurement).
    pub emb: RunReport,
    /// Top-MLP time per batch (overlapped with the EMB stage).
    pub top_mlp_per_batch: Dur,
    /// Interaction + bottom-MLP time per batch.
    pub head_per_batch: Dur,
    /// Accumulated end-to-end time.
    pub total: Dur,
    /// Per-device predictions for the final batch (functional mode only).
    pub predictions: Option<Vec<Tensor>>,
    /// The EMB stage's degradation books, when the backend has a policy.
    pub resilience: Option<ResilienceReport>,
}

impl PipelineReport {
    /// Fraction of end-to-end time spent in the EMB stage (including its
    /// communication) — the paper's motivation for optimizing it.
    /// A zero-total run (e.g. zero batches) reports 0.0, not NaN.
    pub fn emb_fraction(&self) -> f64 {
        ratio(self.emb.total, self.total)
    }
}

/// `num / den` as seconds, with zero-duration denominators mapped to 0.0 so
/// degenerate (empty or zero-batch) runs report a defined fraction instead
/// of NaN. Shared by every report-level ratio helper in this crate.
pub(crate) fn ratio(num: Dur, den: Dur) -> f64 {
    if den.is_zero() {
        0.0
    } else {
        num.as_secs_f64() / den.as_secs_f64()
    }
}

/// Per-batch MLP costs of one closed batch — the batch-from-requests entry
/// point the online serving layer uses to extend a retrieved batch into a
/// full inference pass. The top MLP overlaps the EMB stage; interaction +
/// bottom MLP follow serially.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchCosts {
    /// Top-MLP time for the batch (overlapped with the EMB stage).
    pub top_mlp: Dur,
    /// Interaction + bottom-MLP time for the batch.
    pub head: Dur,
}

impl BatchCosts {
    /// End-to-end time of a batch whose EMB stage took `emb`:
    /// `max(emb, top_mlp) + head`.
    pub fn completion(&self, emb: Dur) -> Dur {
        self.top_mlp.max(emb) + self.head
    }
}

/// Launch-free per-batch stage durations for the executed pipeline engine:
/// the analytic [`BatchCosts`] split at kernel granularity. See
/// [`InferencePipeline::stage_durations`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageDurations {
    /// Top-MLP kernel execution time (launch overhead excluded).
    pub top: Dur,
    /// Interaction share of the head kernel.
    pub interact: Dur,
    /// Bottom-MLP share of the head kernel (`interact + bottom` equals the
    /// head kernel's launch-free duration exactly).
    pub bottom: Dur,
}

/// Drives a [`Dlrm`] over a stream of batches with a chosen retrieval
/// backend.
pub struct InferencePipeline<'a> {
    model: &'a Dlrm,
}

impl<'a> InferencePipeline<'a> {
    /// Wrap a model.
    pub fn new(model: &'a Dlrm) -> Self {
        InferencePipeline { model }
    }

    /// Run `model.cfg.emb.n_batches` inference batches on `machine` with
    /// `backend` serving the embedding layer. With a policy, fabric faults
    /// degrade answers instead of failing them: every batch completes, (in
    /// functional mode) predictions are always produced with degraded
    /// embedding rows served from the policy's fill, and the report carries
    /// the books.
    pub fn run(&self, machine: &mut Machine, backend: &Backend, mode: ExecMode) -> PipelineReport {
        // The EMB stage (timed + optionally functional).
        let ResilientResult { result, resilience } =
            backend.run_resilient(machine, &self.model.cfg.emb, mode);
        let (report, cfg) = (result.report, &self.model.cfg);

        // Per-batch MLP costs (identical every batch: same shapes).
        let costs = self.batch_costs(machine, cfg.emb.batch_size);
        let total = costs.completion(report.per_batch()) * report.batches as u64;
        let predictions = result.outputs.map(|emb_out| {
            let dense = DenseBatch::generate(cfg.emb.batch_size, cfg.n_dense, cfg.seed ^ 0xDE);
            self.model.forward_all(&dense, &emb_out)
        });
        PipelineReport {
            batches: report.batches,
            emb: report,
            top_mlp_per_batch: costs.top_mlp,
            head_per_batch: costs.head,
            total,
            predictions,
            resilience: backend.policy.is_some().then_some(resilience),
        }
    }

    /// Per-batch MLP costs for a closed batch of `batch_size` total
    /// samples, split `⌈batch_size / n_gpus⌉` per device. This is the
    /// serving path's per-batch entry point: the micro-batcher closes a
    /// batch of requests, the EMB backend retrieves it, and these costs
    /// extend the retrieval into a full inference pass.
    pub fn batch_costs(&self, machine: &Machine, batch_size: usize) -> BatchCosts {
        let cfg = &self.model.cfg;
        let mb = batch_size.div_ceil(cfg.emb.n_gpus).max(1);
        let spec = machine.spec(0).clone();

        let top_shape = self.model.top.kernel_shape(mb, &spec);
        let top_mlp = spec.kernel_launch + top_shape.duration(&spec);
        let head_flops =
            interact_flops(mb, cfg.emb.n_features, cfg.emb.dim) + self.model.bottom.flops(mb);
        let head_blocks = (mb as u64).div_ceil(32).max(1);
        let head_shape = KernelShape {
            blocks: head_blocks,
            bytes_per_block: (mb * cfg.emb.n_features * cfg.emb.dim * 4) as u64
                / head_blocks.max(1),
            flops_per_block: head_flops.div_ceil(head_blocks),
            dependent_accesses: 4,
        };
        let head = spec.kernel_launch + head_shape.duration(&spec);
        BatchCosts { top_mlp, head }
    }

    /// The same per-batch shapes as [`InferencePipeline::batch_costs`],
    /// split into launch-free kernel durations for the executed engine
    /// (`crate::engine`): the head kernel's time is divided between its
    /// interaction and bottom-MLP parts in proportion to their FLOP shares,
    /// exactly (`interact + bottom` reassembles the head duration bit for
    /// bit, so an executed schedule issuing these stages does the same
    /// per-stream work as the analytic serial schedule charges).
    pub fn stage_durations(&self, machine: &Machine, batch_size: usize) -> StageDurations {
        let cfg = &self.model.cfg;
        let mb = batch_size.div_ceil(cfg.emb.n_gpus).max(1);
        let spec = machine.spec(0);
        let costs = self.batch_costs(machine, batch_size);
        let top = costs.top_mlp - spec.kernel_launch;
        let head = costs.head - spec.kernel_launch;
        let i_flops = interact_flops(mb, cfg.emb.n_features, cfg.emb.dim) as f64;
        let b_flops = self.model.bottom.flops(mb) as f64;
        let frac = if i_flops + b_flops > 0.0 {
            i_flops / (i_flops + b_flops)
        } else {
            1.0
        };
        let interact = Dur::from_ns((head.as_ns() as f64 * frac).round() as u64);
        StageDurations {
            top,
            interact,
            bottom: head - interact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DlrmConfig;
    use emb_retrieval::backend::{Backend, ResiliencePolicy};
    use gpusim::MachineConfig;

    fn run(pgas: bool, mode: ExecMode) -> PipelineReport {
        let cfg = DlrmConfig::tiny(2);
        let model = Dlrm::new(cfg);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let pipeline = InferencePipeline::new(&model);
        if pgas {
            pipeline.run(&mut m, &Backend::pgas(), mode)
        } else {
            pipeline.run(&mut m, &Backend::baseline(), mode)
        }
    }

    #[test]
    fn report_is_consistent() {
        let r = run(false, ExecMode::Timing);
        assert_eq!(r.batches, 2);
        assert!(r.total >= r.emb.total);
        assert!(!r.top_mlp_per_batch.is_zero());
        assert!(!r.head_per_batch.is_zero());
        assert!(r.emb_fraction() > 0.0 && r.emb_fraction() <= 1.0);
        assert!(r.predictions.is_none());
    }

    #[test]
    fn pgas_pipeline_is_faster_end_to_end() {
        let b = run(false, ExecMode::Timing);
        let p = run(true, ExecMode::Timing);
        assert!(
            p.total < b.total,
            "pgas {} vs baseline {}",
            p.total,
            b.total
        );
    }

    #[test]
    fn both_backends_predict_identically() {
        let b = run(false, ExecMode::Functional);
        let p = run(true, ExecMode::Functional);
        let (bp, pp) = (b.predictions.unwrap(), p.predictions.unwrap());
        for (x, y) in bp.iter().zip(&pp) {
            assert!(
                x.allclose(y, 1e-6),
                "backends must yield the same predictions"
            );
        }
    }

    #[test]
    fn resilient_pipeline_matches_pgas_on_clean_fabric() {
        let cfg = DlrmConfig::tiny(2);
        let model = Dlrm::new(cfg);
        let pipeline = InferencePipeline::new(&model);
        let mut mp = Machine::new(MachineConfig::dgx_v100(2));
        let p = pipeline.run(&mut mp, &Backend::pgas(), ExecMode::Timing);
        let mut mr = Machine::new(MachineConfig::dgx_v100(2));
        let r = pipeline.run(
            &mut mr,
            &Backend::pgas().with_policy(ResiliencePolicy::default()),
            ExecMode::Timing,
        );
        assert_eq!(r.total, p.total);
        assert_eq!(r.emb.total, p.emb.total);
        assert!(p.resilience.is_none());
        assert_eq!(r.resilience.expect("a policy keeps books").degraded_rows, 0);
    }

    #[test]
    fn resilient_pipeline_always_predicts_under_chaos() {
        use gpusim::{FaultPlan, FaultSpec};
        let cfg = DlrmConfig::tiny(2);
        let model = Dlrm::new(cfg);
        let pipeline = InferencePipeline::new(&model);
        for seed in 0..8u64 {
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            m.install_faults(FaultPlan::generate(seed, 2, FaultSpec::chaos(0.9)));
            let backend = Backend::pgas().with_policy(ResiliencePolicy {
                batch_deadline: Some(Dur::from_ms(2)),
                ..Default::default()
            });
            let r = pipeline.run(&mut m, &backend, ExecMode::Functional);
            let preds = r.predictions.expect("inference must always return");
            assert_eq!(preds.len(), 2);
            assert!(
                preds.iter().all(|t| t.data().iter().all(|v| v.is_finite())),
                "degraded serving must stay numerically sane"
            );
            let res = r.resilience.expect("a policy keeps books");
            assert_eq!(res.batch_latencies.len(), r.batches);
        }
    }

    #[test]
    fn batch_costs_scale_with_batch_size_and_match_assemble() {
        let cfg = DlrmConfig::tiny(2);
        let model = Dlrm::new(cfg);
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let pipeline = InferencePipeline::new(&model);
        let full = pipeline.batch_costs(&m, model.cfg.emb.batch_size);
        // The closed-loop report's per-batch MLP costs come from the same
        // entry point.
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let r = pipeline.run(&mut m2, &Backend::baseline(), ExecMode::Timing);
        assert_eq!(r.top_mlp_per_batch, full.top_mlp);
        assert_eq!(r.head_per_batch, full.head);
        // A smaller closed batch costs no more than a full one.
        let small = pipeline.batch_costs(&m, model.cfg.emb.batch_size / 2);
        assert!(small.top_mlp <= full.top_mlp);
        assert!(small.head <= full.head);
        // Completion semantics: overlap with EMB, then the serial head.
        let emb = Dur::from_us(10_000);
        assert_eq!(full.completion(emb), emb.max(full.top_mlp) + full.head);
        assert_eq!(full.completion(Dur::ZERO), full.top_mlp + full.head);
    }

    #[test]
    fn stage_durations_reassemble_batch_costs_exactly() {
        let cfg = DlrmConfig::tiny(2);
        let model = Dlrm::new(cfg);
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let pipeline = InferencePipeline::new(&model);
        let costs = pipeline.batch_costs(&m, model.cfg.emb.batch_size);
        let stages = pipeline.stage_durations(&m, model.cfg.emb.batch_size);
        let launch = m.spec(0).kernel_launch;
        // The split is exact: launch + kernel time reassembles each analytic
        // cost bit for bit, so the executed engine charges the same
        // per-stream work as the serial schedule.
        assert_eq!(launch + stages.top, costs.top_mlp);
        assert_eq!(launch + stages.interact + stages.bottom, costs.head);
        assert!(!stages.interact.is_zero());
        assert!(!stages.bottom.is_zero());
    }

    #[test]
    fn zero_batch_run_reports_zero_emb_fraction_not_nan() {
        let mut cfg = DlrmConfig::tiny(2);
        cfg.emb.n_batches = 0;
        let model = Dlrm::new(cfg);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let r = InferencePipeline::new(&model).run(&mut m, &Backend::baseline(), ExecMode::Timing);
        assert_eq!(r.total, Dur::ZERO);
        assert_eq!(r.emb_fraction(), 0.0);
        assert!(r.emb_fraction().is_finite());
    }

    #[test]
    fn emb_dominates_for_embedding_heavy_configs() {
        // The paper's premise: embedding retrieval + its communication is
        // the bottleneck of DLRM inference.
        let r = run(false, ExecMode::Timing);
        assert!(
            r.emb_fraction() > 0.5,
            "EMB fraction only {}",
            r.emb_fraction()
        );
    }
}
