//! Integration tests for the backward-pass extension and the full DLRM
//! inference pipeline.

use pgas_embedding::dlrm::{Dlrm, DlrmConfig, InferencePipeline};
use pgas_embedding::gpusim::{FaultPlan, FaultSpec, Machine, MachineConfig};
use pgas_embedding::pgas::PgasConfig;
use pgas_embedding::retrieval::backend::{Backend, ExecMode};
use pgas_embedding::retrieval::backward::{
    baseline_backward, pgas_backward, reference_backward, sgd_update,
};
use pgas_embedding::retrieval::rowwise::{rowwise_baseline_forward, rowwise_pgas_forward};
use pgas_embedding::retrieval::RunReport;
use pgas_embedding::retrieval::{EmbLayerConfig, EmbeddingShard, PoolingOp, SparseBatch};
use pgas_embedding::simccl::CollectiveConfig;
use pgas_embedding::telemetry::causal::BlameCategory;

fn tiny(gpus: usize) -> EmbLayerConfig {
    let mut c = EmbLayerConfig::paper_weak_scaling(gpus).scaled_down(512);
    c.n_batches = 2;
    c.distinct_batches = 1;
    c
}

#[test]
fn backward_grads_match_reference_on_all_gpu_counts() {
    for gpus in 1..=4 {
        let cfg = tiny(gpus);
        let mut m = Machine::new(MachineConfig::dgx_v100(gpus));
        let res = pgas_backward(&mut m, &cfg, PgasConfig::default(), ExecMode::Functional);
        let grads = res.grads.unwrap();
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(cfg.n_batches - 1));
        let reference = reference_backward(&batch, cfg.table_spec(), cfg.pooling, cfg.seed);
        let sharding = cfg.sharding();
        for (dev, dev_grads) in grads.iter().enumerate() {
            for (i, f) in sharding.features_on(dev, cfg.n_features).iter().enumerate() {
                assert!(
                    dev_grads[i].allclose(&reference[*f], 1e-4),
                    "gpus={gpus} feature={f}"
                );
            }
        }
    }
}

#[test]
fn backward_mean_pooling_grads() {
    let mut cfg = tiny(2);
    cfg.pooling = PoolingOp::Mean;
    let mut m = Machine::new(MachineConfig::dgx_v100(2));
    let res = baseline_backward(
        &mut m,
        &cfg,
        &CollectiveConfig::default(),
        ExecMode::Functional,
    );
    let grads = res.grads.unwrap();
    let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(cfg.n_batches - 1));
    let reference = reference_backward(&batch, cfg.table_spec(), cfg.pooling, cfg.seed);
    let sharding = cfg.sharding();
    for (dev, dev_grads) in grads.iter().enumerate() {
        for (i, f) in sharding.features_on(dev, cfg.n_features).iter().enumerate() {
            assert!(dev_grads[i].allclose(&reference[*f], 1e-4));
        }
    }
}

#[test]
fn pgas_backward_beats_baseline_across_gpu_counts() {
    for gpus in 2..=4 {
        let cfg = tiny(gpus);
        let mut mb = Machine::new(MachineConfig::dgx_v100(gpus));
        let b = baseline_backward(
            &mut mb,
            &cfg,
            &CollectiveConfig::default(),
            ExecMode::Timing,
        );
        let mut mp = Machine::new(MachineConfig::dgx_v100(gpus));
        let p = pgas_backward(&mut mp, &cfg, PgasConfig::default(), ExecMode::Timing);
        assert!(
            p.report.total < b.report.total,
            "gpus={gpus}: pgas {} vs baseline {}",
            p.report.total,
            b.report.total
        );
    }
}

#[test]
fn sgd_training_step_reduces_a_probe_loss() {
    // One full train-ish step: forward grads → SGD → the updated table
    // moves against the gradient direction.
    let cfg = tiny(2);
    let mut m = Machine::new(MachineConfig::dgx_v100(2));
    let grads = pgas_backward(&mut m, &cfg, PgasConfig::default(), ExecMode::Functional)
        .grads
        .unwrap();
    let sharding = cfg.sharding();
    let features = sharding.features_on(0, cfg.n_features);
    let mut shard = EmbeddingShard::materialize(&features, cfg.table_spec(), cfg.seed);
    let before = shard.weights(features[0]).clone();
    sgd_update(&mut shard, &grads[0], 0.1);
    let after = shard.weights(features[0]);
    // w_new = w - lr*g  =>  (w - w_new) = lr*g elementwise.
    for ((w0, w1), g) in before
        .data()
        .iter()
        .zip(after.data())
        .zip(grads[0][0].data())
    {
        assert!((w0 - w1 - 0.1 * g).abs() < 1e-6);
    }
}

#[test]
fn pipeline_four_gpus_functional_and_timed() {
    let cfg = DlrmConfig::tiny(4);
    let model = Dlrm::new(cfg);
    let pipeline = InferencePipeline::new(&model);
    let mut mb = Machine::new(MachineConfig::dgx_v100(4));
    let b = pipeline.run(&mut mb, &Backend::baseline(), ExecMode::Functional);
    let mut mp = Machine::new(MachineConfig::dgx_v100(4));
    let p = pipeline.run(&mut mp, &Backend::pgas(), ExecMode::Functional);
    assert!(p.total <= b.total);
    let (bp, pp) = (b.predictions.unwrap(), p.predictions.unwrap());
    assert_eq!(bp.len(), 4);
    for (x, y) in bp.iter().zip(&pp) {
        assert!(x.allclose(y, 1e-6));
    }
    // Probabilities.
    for t in &bp {
        assert!(t.min() >= 0.0 && t.max() <= 1.0);
    }
}

/// The four timed passes of the §V extensions, by index: row-wise baseline,
/// row-wise PGAS, backward baseline, backward PGAS.
fn run_pass(pass: usize, m: &mut Machine, cfg: &EmbLayerConfig) -> RunReport {
    let (cc, pgas) = (CollectiveConfig::default(), PgasConfig::default());
    match pass {
        0 => rowwise_baseline_forward(m, cfg, &cc, ExecMode::Timing).report,
        1 => rowwise_pgas_forward(m, cfg, pgas, ExecMode::Timing).report,
        2 => baseline_backward(m, cfg, &cc, ExecMode::Timing).report,
        _ => pgas_backward(m, cfg, pgas, ExecMode::Timing).report,
    }
}

/// The four hand-sized timelines of the §V extensions, pinned at ns: row-wise
/// baseline / row-wise PGAS / backward baseline / backward PGAS totals (and
/// wire messages where listed), `ExecMode::Timing`, default runtime configs,
/// on `dgx_v100(g)`. Read off the code before the four loops became plans over
/// `execute_batch`; the CSVs round to µs, this does not.
#[test]
fn rowwise_and_backward_timelines_are_pinned_at_ns() {
    // (config, GPUs, [(total ns, messages); 4])
    type Case = (EmbLayerConfig, usize, [(u64, Option<u64>); 4]);
    let paper = |g: usize, pins: [(u64, u64); 4]| -> Case {
        let mut cfg = EmbLayerConfig::paper_weak_scaling(g);
        (cfg.n_batches, cfg.distinct_batches) = (6, 4);
        (cfg, g, pins.map(|(ns, msgs)| (ns, Some(msgs))))
    };
    // Partial last blocks, and 3 GPUs not dividing N.
    let scaled = |k, g, bpb, batches, distinct, pins: [u64; 4]| -> Case {
        let mut cfg = EmbLayerConfig::paper_weak_scaling(g).scaled_down(k);
        cfg.bags_per_block = bpb;
        (cfg.n_batches, cfg.distinct_batches) = (batches, distinct);
        (cfg, g, pins.map(|ns| (ns, None)))
    };
    let cases = [
        paper(
            2,
            [
                (552340284, 768),
                (200878608, 12582912),
                (419353359, 384),
                (325657713, 6291456),
            ],
        ),
        paper(
            3,
            [
                (664245846, 2328),
                (260993346, 37748736),
                (598457221, 1170),
                (335265055, 12582912),
            ],
        ),
        paper(
            4,
            [
                (776177724, 4608),
                (377279310, 75497472),
                (777436153, 2304),
                (339779227, 18874368),
            ],
        ),
        scaled(64, 3, 3, 5, 3, [1201990, 298185, 2577750, 899255]),
        scaled(128, 4, 7, 4, 2, [1022672, 312452, 2093100, 712892]),
    ];
    for (cfg, g, pins) in cases {
        let got = [0, 1, 2, 3].map(|pass| {
            let r = run_pass(pass, &mut Machine::new(MachineConfig::dgx_v100(g)), &cfg);
            (r.total.as_ns(), r.traffic.messages)
        });
        for (i, ((ns, msgs), (pin_ns, pin_msgs))) in got.into_iter().zip(pins).enumerate() {
            let at = format!("g={g} N={} function {i}", cfg.batch_size);
            assert_eq!(ns, pin_ns, "{at}: total ns");
            assert_eq!(msgs, pin_msgs.unwrap_or(msgs), "{at}: messages");
        }
    }
}

/// 4 GPUs, six batches of four, small enough for the fault sweeps.
fn faulted_cfg() -> EmbLayerConfig {
    let mut cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(16);
    (cfg.n_batches, cfg.distinct_batches) = (6, 4);
    cfg
}

#[test]
fn link_faults_reach_the_rowwise_and_backward_passes() {
    // Flaps, drops, degradation and jitter, no straggler: before these
    // passes ran on the batch executor only a straggler's kernels reached
    // them, and a link-only plan left every one bit-equal to the clean run.
    let cfg = faulted_cfg();
    let links_only = FaultSpec {
        straggler_prob: 0.0,
        ..FaultSpec::chaos(0.5)
    };
    for pass in 0..4 {
        let total = |spec: Option<FaultSpec>| {
            let mut m = Machine::new(MachineConfig::dgx_v100(4));
            if let Some(spec) = spec {
                m.install_faults(FaultPlan::generate(cfg.seed, 4, spec));
            }
            run_pass(pass, &mut m, &cfg).total
        };
        let clean = total(None);
        assert!(
            total(Some(links_only)) > clean,
            "pass {pass}: link faults cost nothing"
        );
        // Stragglers on top: still completes, still no faster than clean.
        assert!(total(Some(FaultSpec::chaos(0.5))) > clean, "pass {pass}");
    }
}

#[test]
fn blame_partitions_every_batch_of_the_rowwise_and_backward_passes() {
    let cfg = faulted_cfg();
    for pass in 0..4 {
        let mut m = Machine::new(MachineConfig::dgx_v100(4));
        m.enable_blame();
        let total = run_pass(pass, &mut m, &cfg).total;
        let batches = m.blame().expect("blame is on").batches();
        assert_eq!(batches.len(), cfg.n_batches, "pass {pass}");
        let mut sum = 0;
        for b in batches {
            assert_eq!(b.vec.total_ns(), (b.end - b.start).as_ns(), "pass {pass}");
            sum += b.vec.total_ns();
            // A backward batch ends scatter-add → stream sync, and the path
            // reaches the kernel through the sync it caused: nothing but
            // launch overhead lies between that kernel and what gated it
            // (the unpack, or the barrier over the fences).
            let path: Vec<_> = b.segments.iter().map(|s| s.cat).collect();
            let tail = &path[path.len().saturating_sub(4)..];
            if pass >= 2 {
                let gate = [BlameCategory::Unpack, BlameCategory::Sync][pass - 2];
                let want = [
                    gate,
                    BlameCategory::Overhead,
                    BlameCategory::GatherPool,
                    BlameCategory::Sync,
                ];
                assert_eq!(tail, want, "pass {pass}: {path:?}");
            }
        }
        assert_eq!(sum, total.as_ns(), "pass {pass}: batches tile the run");
    }
}
