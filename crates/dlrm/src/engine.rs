//! The executed pipeline engine (EXT-15): an event-driven schedule that
//! *runs* the DLRM forward pass on simulated streams instead of summing the
//! analytic `max(emb, top_mlp) + head` formula per batch.
//!
//! Two overlaps the analytic pipeline cannot express:
//!
//! 1. **Fused comm→interaction.** The interaction + bottom-MLP head is
//!    chunked; chunk `c` is gated on the instant the EMB backend has
//!    actually delivered its span of pooled rows (the [`ArrivalLog`]).
//!    PGAS releases rows per thread-block retirement, so head chunks start
//!    *during* the embedding kernel; the baseline releases everything at
//!    the post-unpack sync, so its chunks all gate on batch end. This is
//!    where PGAS's fine-grained stores first translate into end-to-end
//!    speedup rather than just a shorter EMB stage.
//! 2. **Inter-batch software pipelining.** The head runs on a dedicated
//!    per-device stream, so batch `k`'s EMB stage (default stream + wires)
//!    overlaps batch `k-1`'s interaction/bottom-MLP. The top MLP keeps its
//!    own overlap slot as in the analytic model.
//!
//! The chunked head is modeled as a *persistent kernel*: one launch, chunks
//! draining in-order as their gates fire (gaps are stream idle time — the
//! pipeline bubbles this module measures). Per batch the engine charges
//! exactly the work the analytic schedule charges (`launch + top` and
//! `launch + interact + bottom` — see [`InferencePipeline::stage_durations`]),
//! so the executed total is never optimistic about compute, only about
//! overlap. Functional-mode predictions go through the same
//! `final_batch_outputs` path as the serial backends and are bit-identical
//! by construction.

use desim::{Dur, SimTime};
use emb_retrieval::backend::{prepare_batches, ArrivalLog, Backend, ExecMode, ResilienceReport};
use emb_retrieval::{RunReport, TimeBreakdown};
use gpusim::{Event, Machine, StageChunk, StreamId};
use simtensor::Tensor;
use telemetry::causal::BlameCategory;

use crate::pipeline::ratio;
use crate::{DenseBatch, Dlrm, InferencePipeline};

/// Report of one executed run, with the serial-analytic total of the *same*
/// EMB chain alongside so speedup is measured against an identical baseline.
#[derive(Clone, Debug)]
pub struct ExecutedReport {
    /// Batches executed.
    pub batches: usize,
    /// The EMB stage's accumulated report — bit-identical to what the
    /// serial backend would report (the engine never perturbs the default
    /// streams or wires).
    pub emb: RunReport,
    /// Analytic top-MLP cost per batch (launch + kernel).
    pub top_mlp_per_batch: Dur,
    /// Analytic interaction + bottom-MLP cost per batch (launch + kernel).
    pub head_per_batch: Dur,
    /// Executed end-to-end time: last instant any stream retires work.
    pub total: Dur,
    /// What the analytic serial schedule charges for the same run:
    /// `(max(emb_per_batch, top_mlp) + head) × batches`.
    pub serial_total: Dur,
    /// Per-device busy time on the head stream (top + interaction +
    /// bottom-MLP kernels; excludes launch and bubbles).
    pub head_busy: Vec<Dur>,
    /// Mean over devices of the head stream's idle fraction within its
    /// active span — the pipeline-bubble metric. 0.0 for degenerate runs.
    pub bubble_fraction: f64,
    /// Per-device predictions for the final batch (functional mode only).
    pub predictions: Option<Vec<Tensor>>,
}

impl ExecutedReport {
    /// Fraction of executed end-to-end time spent in the EMB chain.
    /// Zero-total runs report 0.0, not NaN.
    pub fn emb_fraction(&self) -> f64 {
        ratio(self.emb.total, self.total)
    }
}

/// Split `total` into `k` chunks whose durations sum to `total` exactly
/// (integer-nanosecond partition; earlier chunks get the remainder spread).
fn chunk_cuts(total: Dur, k: usize) -> Vec<Dur> {
    let total_ns = total.as_ns();
    let mut cuts = Vec::with_capacity(k);
    let mut prev = 0u64;
    for c in 1..=k as u64 {
        let next = total_ns * c / k as u64;
        cuts.push(Dur::from_ns(next - prev));
        prev = next;
    }
    cuts
}

/// The executed DES pipeline scheduler. See the module docs for the
/// schedule; [`PipelineEngine::run`] is the entry point.
pub struct PipelineEngine<'a> {
    model: &'a Dlrm,
    chunks: usize,
}

impl<'a> PipelineEngine<'a> {
    /// Wrap a model with the default fusion granularity (8 head chunks —
    /// fine enough that PGAS's earliest releases matter, coarse enough
    /// that per-chunk gating stays cheap).
    pub fn new(model: &'a Dlrm) -> Self {
        PipelineEngine { model, chunks: 8 }
    }

    /// Override the fusion granularity (clamped to at least 1 chunk).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks.max(1);
        self
    }

    /// Execute `model.cfg.emb.n_batches` batches on `machine` with
    /// `backend` serving the embedding layer, fusing comm into the head
    /// and software-pipelining across batches.
    pub fn run(&self, machine: &mut Machine, backend: &Backend, mode: ExecMode) -> ExecutedReport {
        let cfg = &self.model.cfg;
        let n = machine.n_gpus();
        assert_eq!(n, cfg.emb.n_gpus, "machine/config GPU count mismatch");
        let prepared = prepare_batches(&cfg.emb, mode, machine.spec(0));
        let planned = prepared.planned_for(machine);

        let pipeline = InferencePipeline::new(self.model);
        let costs = pipeline.batch_costs(machine, cfg.emb.batch_size);
        let stages = pipeline.stage_durations(machine, cfg.emb.batch_size);
        let interact_cuts = chunk_cuts(stages.interact, self.chunks);
        let bottom_cuts = chunk_cuts(stages.bottom, self.chunks);

        // One dedicated head stream per device; the default stream keeps
        // running the EMB chain exactly as the serial backends do.
        let streams: Vec<StreamId> = (0..n).map(|d| machine.add_stream(d)).collect();

        let mut log = ArrivalLog::gated(self.chunks);
        let mut books = ResilienceReport::default();
        let mut breakdown = TimeBreakdown::default();
        let mut batch_start = SimTime::ZERO;
        let mut head_end = vec![SimTime::ZERO; n];
        let mut spec_chunks: Vec<StageChunk> = Vec::with_capacity(2 * self.chunks);
        for batch_idx in 0..cfg.emb.n_batches {
            let which = batch_idx % planned.len();
            // The EMB stage for batch k admits at the previous batch's
            // barrier — the identical chain the serial backends execute —
            // while the head streams may still be draining batch k-1.
            let run = backend.run_batch(
                machine,
                &planned[which],
                batch_start,
                Some(&mut log),
                &mut books,
            );
            breakdown.accumulate(&run.breakdown);

            for d in 0..n {
                // Blame: head work is dense math; interaction chunks are
                // gated by pooled rows landing, so chain them to the last
                // inbound wire span (None for the purely local top MLP).
                if let Some(b) = machine.blame_mut() {
                    b.set_kind(BlameCategory::Gemm);
                    let inbound = b.last_inbound(d as u32);
                    b.set_cause(inbound);
                }
                // Top MLP: independent of the EMB output, eligible the
                // instant the batch admits; the stream serializes it after
                // any still-draining prior head work.
                machine.run_on_stream(streams[d], "top_mlp", stages.top, Event::at(batch_start));
                // Fused head as one persistent kernel: interaction chunk c
                // gates on the arrival of its span of pooled rows, its
                // bottom-MLP slice follows immediately (already on-chip).
                spec_chunks.clear();
                for c in 0..self.chunks {
                    spec_chunks.push(StageChunk {
                        gate: Event::at(log.gate(d, c)),
                        dur: interact_cuts[c],
                        label: "interact",
                    });
                    spec_chunks.push(StageChunk {
                        gate: Event::READY,
                        dur: bottom_cuts[c],
                        label: "bottom_mlp",
                    });
                }
                let iv = machine.run_chunked_on(streams[d], &spec_chunks, Event::at(batch_start));
                head_end[d] = iv.end;
            }
            batch_start = run.end;
        }

        let emb = RunReport::new(machine, cfg.emb.n_batches, breakdown);
        let finish = head_end.iter().copied().fold(batch_start, SimTime::max);
        let total = finish - SimTime::ZERO;
        let serial_total = costs.completion(emb.per_batch()) * cfg.emb.n_batches as u64;

        // Stream occupancy → bubble fraction: idle time inside each head
        // stream's active span, averaged over devices.
        let head_busy: Vec<Dur> = streams
            .iter()
            .map(|&s| machine.stream_busy_time(s))
            .collect();
        let mut bubble_sum = 0.0;
        for d in 0..n {
            let span = head_end[d] - SimTime::ZERO;
            if !span.is_zero() {
                bubble_sum += 1.0 - ratio(head_busy[d], span);
            }
        }
        let bubble_fraction = if n == 0 { 0.0 } else { bubble_sum / n as f64 };

        let predictions = match mode {
            ExecMode::Timing => None,
            ExecMode::Functional => {
                let emb_out = backend.final_outputs(&cfg.emb, &prepared, &books);
                let dense = DenseBatch::generate(cfg.emb.batch_size, cfg.n_dense, cfg.seed ^ 0xDE);
                Some(self.model.forward_all(&dense, &emb_out))
            }
        };

        ExecutedReport {
            batches: cfg.emb.n_batches,
            emb,
            top_mlp_per_batch: costs.top_mlp,
            head_per_batch: costs.head,
            total,
            serial_total,
            head_busy,
            bubble_fraction,
            predictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DlrmConfig;
    use emb_retrieval::backend::{Backend, ResiliencePolicy};
    use gpusim::MachineConfig;

    fn model(g: usize) -> Dlrm {
        let mut cfg = DlrmConfig::tiny(g);
        cfg.emb.n_batches = 4;
        Dlrm::new(cfg)
    }

    fn serial(model: &Dlrm, pgas: bool, mode: ExecMode) -> crate::PipelineReport {
        let mut m = Machine::new(MachineConfig::dgx_v100(model.cfg.emb.n_gpus));
        let p = InferencePipeline::new(model);
        if pgas {
            p.run(&mut m, &Backend::pgas(), mode)
        } else {
            p.run(&mut m, &Backend::baseline(), mode)
        }
    }

    fn executed(model: &Dlrm, pgas: bool, mode: ExecMode) -> ExecutedReport {
        let mut m = Machine::new(MachineConfig::dgx_v100(model.cfg.emb.n_gpus));
        let be = if pgas {
            Backend::pgas()
        } else {
            Backend::baseline()
        };
        PipelineEngine::new(model).run(&mut m, &be, mode)
    }

    #[test]
    fn chunk_cuts_partition_exactly() {
        for ns in [0u64, 1, 7, 1_000_003] {
            for k in [1usize, 3, 8] {
                let cuts = chunk_cuts(Dur::from_ns(ns), k);
                assert_eq!(cuts.len(), k);
                let sum: u64 = cuts.iter().map(|d| d.as_ns()).sum();
                assert_eq!(sum, ns);
            }
        }
    }

    #[test]
    fn executed_beats_serial_and_preserves_the_emb_chain() {
        let m = model(2);
        for pgas in [false, true] {
            let s = serial(&m, pgas, ExecMode::Timing);
            let e = executed(&m, pgas, ExecMode::Timing);
            // The engine replays the identical EMB chain (same batch
            // functions, same admission instants) — bit-identical report.
            assert_eq!(e.emb.total, s.emb.total, "pgas={pgas}");
            assert_eq!(e.emb.breakdown, s.emb.breakdown, "pgas={pgas}");
            assert_eq!(e.serial_total, s.total, "pgas={pgas}");
            // Pipelining strictly wins once there is more than one batch.
            assert!(
                e.total < s.total,
                "pgas={pgas}: executed {} !< serial {}",
                e.total,
                s.total
            );
            // And never beats its own critical paths.
            assert!(e.total >= e.emb.total, "pgas={pgas}");
            for busy in &e.head_busy {
                assert!(e.total >= *busy, "pgas={pgas}");
            }
            assert!(e.bubble_fraction >= 0.0 && e.bubble_fraction <= 1.0);
        }
    }

    #[test]
    fn fusion_widens_the_pgas_lead() {
        let m = model(2);
        let sb = serial(&m, false, ExecMode::Timing);
        let sp = serial(&m, true, ExecMode::Timing);
        let eb = executed(&m, false, ExecMode::Timing);
        let ep = executed(&m, true, ExecMode::Timing);
        assert!(
            ep.total < eb.total,
            "pgas {} vs baseline {}",
            ep.total,
            eb.total
        );
        let serial_ratio = sb.total.as_secs_f64() / sp.total.as_secs_f64();
        let fused_ratio = eb.total.as_secs_f64() / ep.total.as_secs_f64();
        assert!(
            fused_ratio >= serial_ratio,
            "fused {fused_ratio} !>= serial {serial_ratio}"
        );
    }

    #[test]
    fn finer_chunking_never_slows_the_schedule() {
        let m = model(2);
        let mut m1 = Machine::new(MachineConfig::dgx_v100(2));
        let c1 =
            PipelineEngine::new(&m)
                .with_chunks(1)
                .run(&mut m1, &Backend::pgas(), ExecMode::Timing);
        let mut m8 = Machine::new(MachineConfig::dgx_v100(2));
        let c8 =
            PipelineEngine::new(&m)
                .with_chunks(8)
                .run(&mut m8, &Backend::pgas(), ExecMode::Timing);
        assert!(
            c8.total <= c1.total,
            "8 chunks {} vs 1 {}",
            c8.total,
            c1.total
        );
    }

    #[test]
    fn functional_predictions_are_bit_identical_to_the_serial_pipeline() {
        let m = model(2);
        for pgas in [false, true] {
            let s = serial(&m, pgas, ExecMode::Functional);
            let e = executed(&m, pgas, ExecMode::Functional);
            let (sp, ep) = (s.predictions.unwrap(), e.predictions.unwrap());
            assert_eq!(sp.len(), ep.len());
            for (a, b) in sp.iter().zip(&ep) {
                assert!(
                    a.allclose(b, 0.0),
                    "pgas={pgas}: engine must predict bit-identically"
                );
            }
        }
    }

    #[test]
    fn telemetry_is_pure_observation_of_the_engine() {
        let m = model(2);
        let mut mach = Machine::new(MachineConfig::dgx_v100(2));
        mach.enable_telemetry();
        let e = PipelineEngine::new(&m).run(&mut mach, &Backend::pgas(), ExecMode::Timing);
        assert!(mach.metrics().counter("kernels_launched", 0, 0) > 0);
        assert!(e.bubble_fraction > 0.0, "head streams must show bubbles");
        // A fresh silent machine matches.
        let mut quiet = Machine::new(MachineConfig::dgx_v100(2));
        let q = PipelineEngine::new(&m).run(&mut quiet, &Backend::pgas(), ExecMode::Timing);
        assert_eq!(q.total, e.total);
        assert_eq!(q.emb.total, e.emb.total);
    }

    #[test]
    fn gpu_count_mismatch_panics() {
        let m = model(2);
        let mut mach = Machine::new(MachineConfig::dgx_v100(3));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PipelineEngine::new(&m).run(&mut mach, &Backend::baseline(), ExecMode::Timing)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn serial_backend_reports_match_trait_run() {
        // The engine's serial_total must equal what the analytic pipeline
        // reports for the same backend — guaranteed by construction, but
        // pinned here so refactors keep the comparison honest.
        let m = model(4);
        let mut mm = Machine::new(MachineConfig::dgx_v100(4));
        let s = InferencePipeline::new(&m).run(&mut mm, &Backend::baseline(), ExecMode::Timing);
        let e = executed(&m, false, ExecMode::Timing);
        assert_eq!(e.serial_total, s.total);
        assert_eq!(e.top_mlp_per_batch, s.top_mlp_per_batch);
        assert_eq!(e.head_per_batch, s.head_per_batch);
    }

    #[test]
    fn a_resilient_backend_on_a_clean_fabric_executes_as_pgas() {
        let m = model(2);
        let resilient = Backend::pgas().with_policy(ResiliencePolicy::default());
        for mode in [ExecMode::Timing, ExecMode::Functional] {
            let run = |be: &Backend| {
                let mut mach = Machine::new(MachineConfig::dgx_v100(2));
                PipelineEngine::new(&m).run(&mut mach, be, mode)
            };
            let (p, r) = (run(&Backend::pgas()), run(&resilient));
            assert_eq!(r.batches, p.batches);
            assert_eq!(r.emb.total, p.emb.total);
            assert_eq!(r.emb.breakdown, p.emb.breakdown);
            assert_eq!(r.emb.traffic, p.emb.traffic);
            assert_eq!(r.top_mlp_per_batch, p.top_mlp_per_batch);
            assert_eq!(r.head_per_batch, p.head_per_batch);
            assert_eq!(r.total, p.total);
            assert_eq!(r.serial_total, p.serial_total);
            assert_eq!(r.head_busy, p.head_busy);
            assert_eq!(r.bubble_fraction.to_bits(), p.bubble_fraction.to_bits());
            assert_eq!(r.predictions.is_some(), mode == ExecMode::Functional);
            for (a, b) in r
                .predictions
                .iter()
                .flatten()
                .zip(p.predictions.iter().flatten())
            {
                assert!(a.allclose(b, 0.0), "{mode:?}: predictions diverged");
            }
        }
    }
}
