//! EXT-16 observability guarantees: the causal span recorder is a pure
//! observer (identical execution with it on or off), its decomposition is
//! deterministic across thread widths, and every extracted critical path
//! is an exact integer-nanosecond partition of its batch window.

use bench_harness::scaled;
use desim::{Dur, SimTime};
use emb_retrieval::backend::{
    plan_for_batch, Backend, BatchRun, Exchange, ExecMode, PgasFusedBackend, PlannedBatch,
    ResiliencePolicy, ResilienceReport, ResilientBackend, RetrievalBackend,
};
use emb_retrieval::{EmbLayerConfig, SparseBatch};
use gpusim::{FaultPlan, FaultSpec, Machine, MachineConfig};
use pgas_rt::{GatewayConfig, PgasConfig};
use proptest::prelude::*;
use simccl::{Algorithm, CollectiveConfig};
use telemetry::causal::SpanGraph;

const BACKENDS: [&str; 3] = ["baseline", "pgas", "pgas_gateway"];

/// Run `batches` batches of one backend on a fresh machine, optionally with
/// the blame recorder on; returns the runs and the recorder's final graph.
/// `chaos: Some(seed)` installs a `FaultSpec::chaos(0.8)` plan and serves
/// the batches the way `emb-serve` drives a [`ResilientBackend`] with a
/// 5 ms deadline (`backend` then only picks the topology).
fn run_backend(
    backend: &str,
    nodes: usize,
    per_node: usize,
    scale: usize,
    batches: usize,
    blame: bool,
    chaos: Option<u64>,
) -> (Vec<BatchRun>, Option<SpanGraph>) {
    let g = nodes * per_node;
    let cfg = scaled(EmbLayerConfig::paper_weak_scaling(g), scale, batches);
    let mut m = if nodes == 1 {
        Machine::new(MachineConfig::dgx_v100(g))
    } else {
        Machine::new(MachineConfig::pod_v100(nodes, per_node))
    };
    if blame {
        m.enable_blame();
    }
    let b = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.batch_seed(0));
    let pb = PlannedBatch::new(&m, plan_for_batch(&cfg, &b, m.spec(0)));
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
    let be = match chaos {
        Some(seed) => {
            m.install_faults(FaultPlan::generate(seed, g, FaultSpec::chaos(0.8)));
            ResilientBackend::new().with_policy(ResiliencePolicy {
                batch_deadline: Some(Dur::from_ms(5)),
                ..ResiliencePolicy::default()
            })
        }
        None => Backend {
            exchange,
            policy: None,
        },
    };
    let mut books = ResilienceReport::default();
    let mut at = SimTime::ZERO;
    let mut runs = Vec::new();
    for _ in 0..batches {
        let run = be.run_batch(&mut m, &pb, at, None, &mut books);
        at = run.end;
        runs.push(run);
    }
    (runs, m.blame().cloned())
}

/// The recorder is a pure observer: every backend produces bit-identical
/// batch timings whether the span graph is recording or not.
#[test]
fn blame_recorder_does_not_perturb_execution() {
    for backend in BACKENDS {
        let (nodes, per_node) = if backend == "pgas_gateway" {
            (2, 2)
        } else {
            (1, 4)
        };
        let (off, graph_off) = run_backend(backend, nodes, per_node, 512, 2, false, None);
        let (on, graph_on) = run_backend(backend, nodes, per_node, 512, 2, true, None);
        assert!(graph_off.is_none());
        let graph_on = graph_on.expect("recorder was enabled");
        assert_eq!(off, on, "{backend}: recorder perturbed execution");
        assert_eq!(graph_on.batches().len(), 2, "{backend}");
        assert!(graph_on.total().total_ns() > 0, "{backend}");
    }
}

/// The decomposition is a pure function of the simulated schedule, so the
/// blame vector and folded stacks are identical at every rayon width.
#[test]
fn blame_is_identical_across_thread_widths() {
    for backend in BACKENDS {
        let run_at = |w: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(w)
                .build()
                .unwrap();
            pool.install(|| run_backend(backend, 1, 4, 512, 2, true, None).1.unwrap())
        };
        let (g1, g4) = (run_at(1), run_at(4));
        assert_eq!(g1.total(), g4.total(), "{backend}: blame vector diverged");
        assert_eq!(
            g1.folded(),
            g4.folded(),
            "{backend}: folded stacks diverged"
        );
        assert_eq!(g1.batches(), g4.batches(), "{backend}: segments diverged");
    }
}

/// The resilient backend records blame like every other: one `BatchBlame`
/// per batch, and on a clean fabric exactly the PGAS fused backend's.
#[test]
fn resilient_backend_blame_matches_pgas_on_clean_fabric() {
    let cfg = scaled(EmbLayerConfig::paper_weak_scaling(4), 512, 3);
    let blame_of = |be: &dyn RetrievalBackend| {
        let mut m = Machine::new(MachineConfig::dgx_v100(4));
        m.enable_blame();
        be.run(&mut m, &cfg, ExecMode::Timing);
        m.blame().expect("recorder was enabled").batches().to_vec()
    };
    let resilient = blame_of(&ResilientBackend::new());
    assert_eq!(resilient.len(), cfg.n_batches);
    assert_eq!(resilient, blame_of(&PgasFusedBackend::new()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Partition invariant: every batch's critical-path segments tile
    /// `[start, end]` exactly — contiguous, in order, gap-free — and the
    /// blame vector sums to the batch wall time in integer nanoseconds.
    /// Holds on a clean fabric and under chaos with a deadline (retries,
    /// outages waited out, deadline-abandoned fences), where in addition no
    /// recorded span may end before it starts.
    #[test]
    fn critical_path_partitions_batch_time(
        backend_ix in 0usize..3,
        gpus in 2usize..5,
        scale_ix in 0usize..3,
        fabric in 0u64..128,
    ) {
        // Half the cases run clean, half under a seeded chaos plan.
        let chaos = (fabric % 2 == 1).then_some(fabric / 2);
        let scale = [256usize, 512, 1024][scale_ix];
        let backend = BACKENDS[backend_ix];
        let (nodes, per_node) = if backend == "pgas_gateway" { (2, gpus.max(2) / 2 * 2 / 2) } else { (1, gpus) };
        let per_node = per_node.max(1);
        let (runs, graph) = run_backend(backend, nodes, per_node, scale, 2, true, chaos);
        let graph = graph.unwrap();
        for s in graph.spans() {
            prop_assert!(s.ready <= s.start && s.start <= s.end, "span runs backwards: {:?}", s);
        }
        prop_assert_eq!(graph.batches().len(), runs.len());
        for (b, run) in graph.batches().iter().zip(&runs) {
            prop_assert_eq!(b.start, run.start);
            prop_assert_eq!(b.end, run.end);
            prop_assert_eq!(
                b.vec.total_ns(),
                (b.end - b.start).as_ns(),
                "blame vector must sum exactly to batch wall time"
            );
            prop_assert!(!b.segments.is_empty());
            let mut cursor = b.start;
            for s in &b.segments {
                prop_assert_eq!(s.start, cursor, "gap or overlap in critical path");
                prop_assert!(s.end > s.start, "zero-width segment survived");
                cursor = s.end;
            }
            prop_assert_eq!(cursor, b.end, "path must reach the batch end");
        }
    }
}
