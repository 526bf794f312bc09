//! Integration tests for the executed pipeline engine (EXT-15): the fused +
//! software-pipelined schedule must keep functional predictions bit-identical
//! to the serial pipeline, and its executed total must sit between the
//! per-stream critical-path lower bound and the analytic serial schedule.

use pgas_embedding::dlrm::{Dlrm, DlrmConfig, ExecutedReport, InferencePipeline, PipelineEngine};
use pgas_embedding::gpusim::{FaultPlan, FaultSpec, Machine, MachineConfig};
use pgas_embedding::retrieval::backend::{forget_prepared, Backend, ExecMode};
use pgas_embedding::retrieval::EmbLayerConfig;
use proptest::prelude::*;

fn machines_for(cfg: &DlrmConfig) -> (Machine, Machine) {
    let g = cfg.emb.n_gpus;
    (
        Machine::new(MachineConfig::dgx_v100(g)),
        Machine::new(MachineConfig::dgx_v100(g)),
    )
}

/// The engine and the serial pipeline must produce bit-identical
/// predictions in functional mode, for both backends and on more than one
/// GPU count. (`ci.sh` runs this whole suite under `RAYON_NUM_THREADS=1`
/// and `=4`, so the identity is also pinned across worker-pool widths.)
#[test]
fn executed_predictions_bit_identical_to_serial_pipeline() {
    for gpus in [2usize, 4] {
        let mut cfg = DlrmConfig::tiny(gpus);
        cfg.emb.n_batches = 3;
        let model = Dlrm::new(cfg);
        for pgas in [false, true] {
            let (mut ms, mut me) = machines_for(&model.cfg);
            let serial = if pgas {
                InferencePipeline::new(&model).run(&mut ms, &Backend::pgas(), ExecMode::Functional)
            } else {
                InferencePipeline::new(&model).run(
                    &mut ms,
                    &Backend::baseline(),
                    ExecMode::Functional,
                )
            };
            let be = if pgas {
                Backend::pgas()
            } else {
                Backend::baseline()
            };
            let exec = PipelineEngine::new(&model).run(&mut me, &be, ExecMode::Functional);
            let (sp, ep) = (serial.predictions.unwrap(), exec.predictions.unwrap());
            assert_eq!(sp.len(), ep.len());
            for (a, b) in sp.iter().zip(&ep) {
                assert!(
                    a.allclose(b, 0.0),
                    "gpus={gpus} pgas={pgas}: engine predictions must be bit-identical"
                );
            }
        }
    }
}

/// Multi-batch runs must strictly beat the analytic serial schedule (the
/// whole point of inter-batch pipelining), and PGAS must still beat the
/// baseline end to end under the executed schedule.
#[test]
fn executed_schedule_strictly_beats_serial_on_multi_batch_runs() {
    let mut cfg = DlrmConfig::tiny(2);
    cfg.emb.n_batches = 4;
    let model = Dlrm::new(cfg);
    let mut totals = Vec::new();
    for pgas in [false, true] {
        let be = if pgas {
            Backend::pgas()
        } else {
            Backend::baseline()
        };
        let (mut m, _) = machines_for(&model.cfg);
        let e = PipelineEngine::new(&model).run(&mut m, &be, ExecMode::Timing);
        assert!(
            e.total < e.serial_total,
            "pgas={pgas}: executed {} !< serial {}",
            e.total,
            e.serial_total
        );
        totals.push(e.total);
    }
    assert!(
        totals[1] < totals[0],
        "pgas must win under the executed schedule"
    );
}

/// The two reports agree bit for bit on everything but the payload series,
/// which only an observed machine records.
fn assert_same(a: &ExecutedReport, b: &ExecutedReport, what: &str) {
    assert_eq!(a.total, b.total, "{what}");
    assert_eq!(a.serial_total, b.serial_total, "{what}");
    assert_eq!(a.head_busy, b.head_busy, "{what}");
    let bubbles = [a.bubble_fraction, b.bubble_fraction].map(f64::to_bits);
    assert_eq!(bubbles[0], bubbles[1], "{what}");
    assert_eq!(a.emb.batches, b.emb.batches, "{what}");
    assert_eq!(a.emb.breakdown, b.emb.breakdown, "{what}");
    assert_eq!(a.emb.total, b.emb.total, "{what}");
    assert_eq!(a.emb.traffic, b.emb.traffic, "{what}");
}

/// A batch whose every device replays its plan's recorded deliveries reads
/// its arrival gates off the plan; any other computes them from its log.
/// Nothing in the report may tell the two apart: a cold plan set against a
/// warm one, an observed machine (which refuses every replay) against an
/// unobserved one, chunk counts interleaved on one set (the plan keeps the
/// gates of one count), and straggling devices beside replaying ones.
#[test]
fn executed_reports_do_not_depend_on_where_the_gates_came_from() {
    let mut cfg = DlrmConfig::tiny(4);
    (cfg.emb.n_batches, cfg.emb.distinct_batches) = (6, 2);
    let model = Dlrm::new(cfg);
    let run = |chunks: usize, setup: &dyn Fn(&mut Machine)| {
        let mut m = Machine::new(MachineConfig::dgx_v100(4));
        setup(&mut m);
        let engine = PipelineEngine::new(&model).with_chunks(chunks);
        engine.run(&mut m, &Backend::pgas(), ExecMode::Timing)
    };
    let plain = |_: &mut Machine| {};
    forget_prepared();
    let cold = run(8, &plain);
    assert_same(&cold, &run(8, &plain), "cold vs warm plans");
    assert_same(&cold, &run(8, &Machine::enable_telemetry), "observed");

    let alone = [1, 3, 8, 13].map(|k| {
        forget_prepared();
        (k, run(k, &plain))
    });
    for (k, report) in alone.iter().chain(alone.iter().rev()) {
        assert_same(
            report,
            &run(*k, &plain),
            &format!("{k} chunks, interleaved"),
        );
    }

    let spec = FaultSpec {
        straggler_prob: 0.5,
        straggler_factor: (1.2, 1.6),
        ..FaultSpec::none()
    };
    let mixed = (0..)
        .map(|seed| FaultPlan::generate(seed, 4, spec))
        .find(|p| (1..4).contains(&(0..4).filter(|&d| p.straggler_factor(d) > 1.0).count()))
        .expect("a plan with healthy and straggling devices");
    let stragglers = |m: &mut Machine| m.install_faults(mixed.clone());
    forget_prepared();
    let cold = run(8, &stragglers);
    assert_same(
        &cold,
        &run(8, &stragglers),
        "stragglers, cold vs warm plans",
    );
}

fn dlrm_strategy() -> impl Strategy<Value = DlrmConfig> {
    (
        1usize..=3,                         // gpus
        1usize..=2,                         // features per gpu
        8usize..=64,                        // table rows
        prop_oneof![Just(4usize), Just(8)], // dim
        1usize..=4,                         // per-gpu minibatch
        1usize..=4,                         // batches
        1usize..=2,                         // distinct batches
        prop_oneof![Just(4usize), Just(8)], // mlp width
        1usize..=4,                         // dense features
        any::<u16>(),                       // seed
    )
        .prop_map(
            |(gpus, fpg, rows, dim, mb, batches, distinct, width, n_dense, seed)| {
                let mut emb = EmbLayerConfig::paper_weak_scaling(gpus).scaled_down(512);
                emb.n_features = fpg * gpus;
                emb.table_rows = rows;
                emb.dim = dim;
                emb.batch_size = mb * gpus;
                emb.n_batches = batches;
                emb.distinct_batches = distinct;
                emb.seed = seed as u64;
                DlrmConfig {
                    n_dense,
                    top_hidden: vec![width],
                    bottom_hidden: vec![width],
                    emb,
                    seed: 0x515E ^ seed as u64,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary small workloads and both backends, the executed total
    /// is sandwiched: never worse than the analytic serial schedule
    /// (pipelining only removes charged time, never adds work) and never
    /// better than its own critical paths — the EMB chain and each head
    /// stream's accumulated kernel time.
    #[test]
    fn executed_total_is_bounded_by_serial_and_critical_path(cfg in dlrm_strategy()) {
        let model = Dlrm::new(cfg);
        for pgas in [false, true] {
            let be = if pgas { Backend::pgas() } else { Backend::baseline() };
            let (mut m, _) = machines_for(&model.cfg);
            let e = PipelineEngine::new(&model).run(&mut m, &be, ExecMode::Timing);
            prop_assert!(
                e.total <= e.serial_total,
                "pgas={}: executed {} > serial {}", pgas, e.total, e.serial_total
            );
            prop_assert!(
                e.total >= e.emb.total,
                "pgas={}: executed {} < EMB chain {}", pgas, e.total, e.emb.total
            );
            for (d, busy) in e.head_busy.iter().enumerate() {
                prop_assert!(
                    e.total >= *busy,
                    "pgas={} dev={}: executed {} < head stream busy {}", pgas, d, e.total, busy
                );
            }
            prop_assert!((0.0..=1.0).contains(&e.bubble_fraction));
        }
    }
}
