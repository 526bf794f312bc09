//! Per-layer unit costs, timed from outside the crates.
//!
//! Fixed micro-loops around single public functions (ns per operation),
//! and the difference method around whole `run` calls (marginal µs per
//! batch: the same call at two batch counts, so planning and construction
//! cancel). Every figure is host time; none of them is an end-to-end
//! metric, and they do not depend on which workload the traced run is for.

use std::hint::black_box;
use std::time::Instant;

use desim::{Dur, EventQueue, Resource, SimTime, TimeSeries};
use dlrm_model::{DenseBatch, Dlrm, DlrmConfig, EngineBackend, InferencePipeline, PipelineEngine};
use emb_retrieval::backend::{
    compute_pooled_rows, exchange_and_unpack, materialize_shards, prepare_batches,
    scatter_via_symmetric_heap, BaselineBackend, ExecMode, PgasFusedBackend, ResilientBackend,
    RetrievalBackend,
};
use emb_retrieval::backward::{baseline_backward, pgas_backward};
use emb_retrieval::EmbLayerConfig;
use emb_serve::{ArrivalProcess, EmbServer, RequestGenerator, ServeBackendKind, ServeConfig};
use gpusim::{FaultPlan, FaultSpec, GpuSpec, Machine, MachineConfig};
use pgas_rt::{
    coalesce_rows_many, AggregatorConfig, GatewayConfig, GatewayPut, OneSided, PgasConfig,
};
use simccl::{all_to_all_timed, Algorithm, CollectiveConfig};
use simtensor::Tensor;
use telemetry::causal::{BlameCategory, Lane, SpanGraph};
use telemetry::Registry;

use crate::host::host_secs;
use crate::stats::marginal;
use crate::workloads::{functional_cfg, pod_stores, preset, serve_probe};

/// Unit costs by metric name, in measurement order.
pub type Costs = Vec<(&'static str, f64)>;

/// How the micro-loops are sized.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Wall seconds each fixed micro-loop runs for.
    pub loop_s: f64,
    /// `--seed`: reaches `EmbLayerConfig.seed`, the serve arrival seed and
    /// the `FaultPlan` seed.
    pub seed: u64,
    /// Shrink configs (`scaled_down(16)`) for the CI-speed run.
    pub smoke: bool,
}

impl Budget {
    /// Batch counts of the two forward runs the difference method compares.
    fn forward_batches(self) -> (usize, usize) {
        if self.smoke {
            (4, 8)
        } else {
            (4, 20)
        }
    }
}

/// Host ns per operation: run `chunk` (which performs `ops` operations on
/// fresh state and returns the wall seconds spent *inside the timed calls*)
/// until `budget_s` has passed, and keep the fastest chunk. Chunks last
/// milliseconds, so the fastest one ran without the core being taken away;
/// every slower one measured the neighbours too.
fn ns_per_op(budget_s: f64, ops: u64, mut chunk: impl FnMut() -> f64) -> f64 {
    let begun = Instant::now();
    let mut best = f64::INFINITY;
    while best.is_infinite() || begun.elapsed().as_secs_f64() < budget_s {
        best = best.min(chunk());
    }
    best * 1e9 / ops as f64
}

/// Wall seconds of `f`: the micro-loops' clock (see [`ns_per_op`]). Whole
/// `run` calls, which last long enough to be interrupted, are timed on the
/// host-cost clock instead ([`host_secs`]).
fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Sends per chunk of the `Machine::send` loops: one chunk advances the
/// simulated clock ~10 ms, which keeps the always-on traffic series at a
/// few hundred buckets — the regime the workloads run in.
const SENDS: u64 = 50_000;

/// Ready time of the `i`-th send of a chunk: far enough apart that no send
/// queues behind the previous one, so the loop times the send path, not a
/// growing stall span.
fn ready(i: u64) -> SimTime {
    SimTime::from_ns(200 * i)
}

/// The paper weak config on four GPUs, as the workloads build it.
fn weak4(b: Budget, batches: usize) -> EmbLayerConfig {
    preset(
        EmbLayerConfig::paper_weak_scaling(4),
        b.seed,
        batches,
        b.smoke,
    )
}

/// Marginal host µs per batch of `run(n_batches)` by the difference method,
/// from runs at `small` and `big` batches.
fn batch_us((small, big): (usize, usize), mut run: impl FnMut(usize) -> f64) -> f64 {
    let t_small = run(small);
    let t_big = run(big);
    1e6 * marginal((t_small, small as u64), (t_big, big as u64))
}

/// Measure every unit cost — and `sim.degraded_share`, the one simulated
/// output that comes from a micro-run (the resilient backend under
/// `FaultSpec::chaos(0.5)`).
pub fn measure(b: Budget) -> Costs {
    let mut out = Costs::new();
    desim_costs(b, &mut out);
    gpusim_costs(b, &mut out);
    telemetry_costs(b, &mut out);
    pgas_costs(b, &mut out);
    simccl_costs(b, &mut out);
    executor_costs(b, &mut out);
    functional_costs(b, &mut out);
    pipeline_costs(b, &mut out);
    serve_costs(b, &mut out);
    out
}

fn desim_costs(b: Budget, out: &mut Costs) {
    const N: u64 = 1 << 16;
    out.push((
        "desim.acquire_ns",
        ns_per_op(b.loop_s, N, || {
            let mut r = Resource::new();
            secs(|| {
                for i in 0..N {
                    black_box(r.acquire(SimTime::from_ns(8 * i), Dur::from_ns(10)));
                }
            })
        }),
    ));
    out.push((
        "desim.queue_ns",
        ns_per_op(b.loop_s, N, || {
            // A standing population of 1024 events, as a busy fabric holds.
            let mut q = EventQueue::new();
            for i in 0..1024u64 {
                q.schedule(Dur::from_ns(i * 37 % 1024), i);
            }
            secs(|| {
                for i in 0..N {
                    q.schedule(Dur::from_ns(i * 37 % 1024), i);
                    black_box(q.pop());
                }
            })
        }),
    ));
    for (name, buckets) in [
        ("desim.series_add_ns", 1u64),
        ("desim.series_span64_ns", 64),
    ] {
        out.push((
            name,
            ns_per_op(b.loop_s, N, || {
                let bucket = Dur::from_us(50);
                let mut ts = TimeSeries::new(bucket);
                secs(|| {
                    for i in 0..N {
                        let start = SimTime::from_ns((i % 256) * 50_000 + 1_000);
                        let end = start + Dur::from_ns(1_000) + bucket * (buckets - 1);
                        ts.add_spread(start, end, 256.0);
                    }
                    black_box(ts.total());
                })
            }),
        ));
    }
}

fn gpusim_costs(b: Budget, out: &mut Costs) {
    let sends = |cfg: fn() -> MachineConfig, dst: usize, msgs: u64, observed: bool| {
        ns_per_op(b.loop_s, SENDS, || {
            let mut m = Machine::new(cfg());
            if observed {
                m.enable_telemetry();
                m.enable_blame();
            }
            secs(|| {
                for i in 0..SENDS {
                    black_box(m.send(0, dst, 256 * msgs, msgs, ready(i * msgs)));
                }
            })
        })
    };
    let dgx = || MachineConfig::dgx_v100(4);
    let pod = || MachineConfig::pod_v100(2, 4);
    out.push(("gpusim.send_intra_ns", sends(dgx, 1, 1, false)));
    out.push(("gpusim.send_inter_ns", sends(pod, 4, 1, false)));
    out.push(("gpusim.send_msg256_ns", sends(dgx, 1, 256, false)));
    out.push(("gpusim.send_observed_ns", sends(dgx, 1, 1, true)));

    const BLOCKS: usize = 512;
    const LAUNCHES: u64 = 64;
    let durs: Vec<Dur> = (0..BLOCKS)
        .map(|i| Dur::from_ns(2_000 + (i as u64 * 37) % 500))
        .collect();
    out.push((
        "gpusim.kernel_block_ns",
        ns_per_op(b.loop_s, LAUNCHES * BLOCKS as u64, || {
            let mut m = Machine::new(dgx());
            secs(|| {
                for _ in 0..LAUNCHES {
                    black_box(m.run_kernel_varied(0, &durs, SimTime::ZERO));
                }
            })
        }),
    ));
    out.push((
        "gpusim.try_send_fault_ns",
        ns_per_op(b.loop_s, SENDS, || {
            let mut m = Machine::new(dgx());
            m.install_faults(FaultPlan::generate(b.seed, 4, FaultSpec::chaos(0.5)));
            secs(|| {
                for i in 0..SENDS {
                    // Down links and dropped messages are part of the path
                    // being priced.
                    let _ = black_box(m.try_send(0, 1, 256, 1, ready(i)));
                }
            })
        }),
    ));
}

fn telemetry_costs(b: Budget, out: &mut Costs) {
    const N: u64 = 1 << 15;
    for (name, buckets) in [("telemetry.span_ns", 1u64), ("telemetry.span1k_ns", 1000)] {
        out.push((
            name,
            ns_per_op(b.loop_s, N, || {
                let bucket = Dur::from_us(50);
                let mut reg = Registry::enabled(bucket);
                secs(|| {
                    for i in 0..N {
                        let start = SimTime::from_ns((i % 256) * 50_000 + 1_000);
                        let end = start + Dur::from_ns(1_000) + bucket * (buckets - 1);
                        reg.span("link_busy_ns", (i % 4) as u32, 0, start, end);
                    }
                    black_box(reg.is_enabled());
                })
            }),
        ));
    }
    out.push((
        "telemetry.blame_record_ns",
        ns_per_op(b.loop_s, N, || {
            let mut g = SpanGraph::new();
            secs(|| {
                let mut cause = None;
                for i in 0..N {
                    let t = SimTime::from_ns(100 * i);
                    cause = Some(g.record(
                        BlameCategory::WireIntra,
                        Lane::Link(0, 1),
                        t,
                        t,
                        t + Dur::from_ns(80),
                        cause,
                        false,
                    ));
                }
                black_box(g.last_span());
            })
        }),
    ));
}

/// The (8,4,256 B) pods cell's flat put stream — the calls whose observed
/// and clean host times `telemetry.observer_cost_x` divides. Returns host
/// seconds.
fn pod_flat_puts(observed: bool, smoke: bool) -> f64 {
    let (nodes, per_node, row_bytes) = if smoke {
        (2, 4, 256u32)
    } else {
        (8, 4, 256u32)
    };
    let pair_bytes: u64 = if smoke { 64 << 10 } else { 1 << 20 };
    let n = nodes * per_node;
    let rows = pair_bytes / u64::from(row_bytes);
    let chunk = AggregatorConfig::default().flush_bytes / (4 * u64::from(row_bytes));
    let mut m = Machine::new(MachineConfig::pod_v100(nodes, per_node));
    if observed {
        m.enable_telemetry();
        m.enable_blame();
    }
    let pcfg = PgasConfig {
        max_payload: row_bytes,
        ..PgasConfig::default()
    };
    secs(|| {
        let mut os = OneSided::with_config(&mut m, pcfg);
        pod_stores(n, rows, chunk, |src, dst, take| {
            os.put_rows_nbi(src, dst, take, row_bytes, SimTime::ZERO);
        });
        for src in 0..n {
            black_box(os.quiet(src, SimTime::ZERO));
        }
    })
}

fn pgas_costs(b: Budget, out: &mut Costs) {
    let mut clean = f64::INFINITY;
    let begun = Instant::now();
    while clean.is_infinite() || begun.elapsed().as_secs_f64() < b.loop_s {
        clean = clean.min(pod_flat_puts(false, b.smoke));
    }
    out.push((
        "telemetry.observer_cost_x",
        pod_flat_puts(true, b.smoke) / clean,
    ));

    let puts = |rows: u64, atomic: bool| {
        ns_per_op(b.loop_s, SENDS * rows, || {
            let mut m = Machine::new(MachineConfig::dgx_v100(4));
            let mut os = OneSided::new(&mut m);
            secs(|| {
                for i in 0..SENDS {
                    let at = ready(i * rows);
                    black_box(if atomic {
                        os.atomic_add_rows_nbi(0, 1, rows, 256, at)
                    } else {
                        os.put_rows_nbi(0, 1, rows, 256, at)
                    });
                }
            })
        })
    };
    out.push(("pgas-rt.put_ns", puts(1, false)));
    out.push(("pgas-rt.put_row_ns", puts(256, false)));
    out.push(("pgas-rt.atomic_add_ns", puts(1, true)));
    out.push((
        "pgas-rt.gateway_row_ns",
        ns_per_op(b.loop_s, SENDS, || {
            let mut m = Machine::new(MachineConfig::pod_v100(2, 4));
            let mut gw = GatewayPut::new(&mut m, GatewayConfig::default());
            secs(|| {
                for i in 0..SENDS {
                    // Spread over the remote node so the gateway scatters.
                    black_box(gw.put_rows_nbi(0, 4 + (i % 4) as usize, 1, 256, ready(i)));
                }
                black_box(gw.drain(ready(SENDS)));
            })
        }),
    ));
    let batches: Vec<(u64, u32)> = (0..8).map(|i| (100 + 17 * i, 256)).collect();
    out.push((
        "pgas-rt.coalesce_ns",
        ns_per_op(b.loop_s, 1 << 14, || {
            secs(|| {
                for _ in 0..1 << 14 {
                    black_box(coalesce_rows_many(black_box(&batches), 256));
                }
            })
        }),
    ));
}

fn simccl_costs(b: Budget, out: &mut Costs) {
    let a2a = |cfg: fn() -> MachineConfig, alg: Algorithm| {
        let n = cfg().topology.n_gpus();
        let bytes: Vec<Vec<u64>> = (0..n)
            .map(|s| (0..n).map(|d| if s == d { 0 } else { 1 << 20 }).collect())
            .collect();
        let at = vec![SimTime::ZERO; n];
        let ccl = CollectiveConfig::default().with_algorithm(alg);
        // ns per call / 1000 = µs per call; machine construction untimed.
        ns_per_op(b.loop_s, 1, || {
            let mut m = Machine::new(cfg());
            secs(|| {
                black_box(all_to_all_timed(&mut m, &ccl, &bytes, &at));
            })
        }) / 1e3
    };
    let pod = || MachineConfig::pod_v100(16, 4);
    out.push((
        "simccl.a2a_dgx_us",
        a2a(|| MachineConfig::dgx_v100(4), Algorithm::Direct),
    ));
    out.push(("simccl.a2a_direct_us", a2a(pod, Algorithm::Direct)));
    out.push(("simccl.a2a_hier_us", a2a(pod, Algorithm::Hierarchical)));
}

fn executor_costs(b: Budget, out: &mut Costs) {
    let cfg = weak4(b, 4);
    let spec = GpuSpec::v100();
    out.push((
        "emb-retrieval.prepare_s",
        ns_per_op(b.loop_s, 1, || {
            secs(|| {
                black_box(prepare_batches(&cfg, ExecMode::Timing, &spec).plans.len());
            })
        }) / 1e9,
    ));

    let with_batches = |cfg: &EmbLayerConfig, n: usize| {
        let mut c = cfg.clone();
        c.n_batches = n;
        c
    };
    let forward =
        |backend: &dyn RetrievalBackend, cfg: &EmbLayerConfig, mc: fn() -> MachineConfig| {
            batch_us(b.forward_batches(), |n| {
                let c = with_batches(cfg, n);
                let mut m = Machine::new(mc());
                host_secs(|| {
                    black_box(backend.run(&mut m, &c, ExecMode::Timing).report.total);
                })
            })
        };
    let dgx = || MachineConfig::dgx_v100(4);
    out.push((
        "emb-retrieval.batch_baseline_us",
        forward(&BaselineBackend::new(), &cfg, dgx),
    ));
    out.push((
        "emb-retrieval.batch_pgas_us",
        forward(&PgasFusedBackend::new(), &cfg, dgx),
    ));
    // The 32-GPU paper config plans 33 M bags per batch; an eighth-scale
    // copy with one distinct batch keeps the gateway executor's per-batch
    // cost measurable inside a traced run.
    let mut pod_cfg =
        EmbLayerConfig::paper_weak_scaling(32).scaled_down(if b.smoke { 16 } else { 8 });
    pod_cfg.seed = b.seed;
    pod_cfg.distinct_batches = 1;
    out.push((
        "emb-retrieval.batch_gateway_us",
        forward(
            &PgasFusedBackend::with_gateway(AggregatorConfig::default()),
            &pod_cfg,
            || MachineConfig::pod_v100(8, 4),
        ),
    ));
    let mut degraded = 0.0;
    out.push((
        "emb-retrieval.batch_resilient_us",
        batch_us(b.forward_batches(), |n| {
            let c = with_batches(&cfg, n);
            let mut m = Machine::new(dgx());
            m.install_faults(FaultPlan::generate(b.seed, 4, FaultSpec::chaos(0.5)));
            host_secs(|| {
                let r = ResilientBackend::new().run_resilient(&mut m, &c, ExecMode::Timing);
                degraded = r.resilience.degraded_fraction();
            })
        }),
    ));
    out.push(("sim.degraded_share", degraded));

    let backward = |pgas: bool| {
        batch_us(if b.smoke { (2, 4) } else { (2, 6) }, |n| {
            let c = with_batches(&cfg, n);
            let mut m = Machine::new(dgx());
            host_secs(|| {
                black_box(if pgas {
                    pgas_backward(&mut m, &c, PgasConfig::default(), ExecMode::Timing)
                } else {
                    baseline_backward(&mut m, &c, &CollectiveConfig::default(), ExecMode::Timing)
                });
            })
        })
    };
    out.push(("emb-retrieval.backward_baseline_us", backward(false)));
    out.push(("emb-retrieval.backward_pgas_us", backward(true)));
}

fn functional_costs(b: Budget, out: &mut Costs) {
    let cfg = functional_cfg(b.seed, b.smoke);
    let prepared = prepare_batches(&cfg, ExecMode::Functional, &GpuSpec::v100());
    let (plan, batch) = (&prepared.plans[0], &prepared.batches[0]);

    let mut shards = Vec::new();
    out.push((
        "emb-retrieval.materialize_s",
        host_secs(|| shards = materialize_shards(plan, cfg.table_spec(), cfg.seed)),
    ));
    let lookups: u64 = plan.devices.iter().map(|dp| dp.total_lookups).sum();
    let mut pooled: Vec<Vec<f32>> = Vec::new();
    out.push((
        "emb-retrieval.pool_row_ns",
        ns_per_op(b.loop_s, lookups, || {
            secs(|| {
                pooled = plan
                    .devices
                    .iter()
                    .map(|dp| compute_pooled_rows(dp, plan, batch, &shards[dp.device], cfg.seed))
                    .collect();
            })
        }),
    ));
    let mut outs = Vec::new();
    out.push((
        "emb-retrieval.scatter_heap_s",
        ns_per_op(b.loop_s, 1, || {
            secs(|| outs = scatter_via_symmetric_heap(plan, &pooled))
        }) / 1e9,
    ));
    out.push((
        "emb-retrieval.exchange_unpack_s",
        ns_per_op(b.loop_s, 1, || {
            secs(|| {
                black_box(exchange_and_unpack(plan, &pooled).len());
            })
        }) / 1e9,
    ));

    let (m, k, n) = (384, 512, 384);
    let lhs = Tensor::rand_uniform(&[m, k], -1.0, 1.0, 7);
    let rhs = Tensor::rand_uniform(&[k, n], -1.0, 1.0, 8);
    let matmul_ns = ns_per_op(b.loop_s, 1, || {
        secs(|| {
            black_box(lhs.matmul(&rhs).numel());
        })
    });
    out.push((
        "simtensor.matmul_gflops",
        2.0 * (m * k * n) as f64 / matmul_ns,
    ));

    let mut dcfg = DlrmConfig::paper_inference(4);
    dcfg.emb = cfg.clone();
    let dense = DenseBatch::generate(cfg.batch_size, dcfg.n_dense, dcfg.seed);
    let model = Dlrm::new(dcfg);
    out.push((
        "dlrm-model.forward_ms",
        ns_per_op(b.loop_s, 1, || {
            secs(|| {
                black_box(model.forward_all(&dense, &outs).len());
            })
        }) / 1e6,
    ));

    // Width-2 over width-1 on workload 5's functional PGAS run. With one
    // core the ratio would be noise, so it is reported as 0 with a note.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let w2 = if cores < 2 {
        println!("note rayon.w2_speedup not measured: available_parallelism = {cores}");
        0.0
    } else {
        let at_width = |w: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(w)
                .build()
                .expect("the in-tree pool builder is infallible");
            pool.install(|| {
                (0..2)
                    .map(|_| {
                        let mut m = Machine::new(MachineConfig::dgx_v100(4));
                        secs(|| {
                            black_box(
                                PgasFusedBackend::new()
                                    .run(&mut m, &cfg, ExecMode::Functional)
                                    .report
                                    .total,
                            );
                        })
                    })
                    .fold(f64::INFINITY, f64::min)
            })
        };
        at_width(1) / at_width(2)
    };
    out.push(("rayon.w2_speedup", w2));
}

fn pipeline_costs(b: Budget, out: &mut Costs) {
    let model_at = |n: usize| {
        let mut cfg = DlrmConfig::paper_inference(4);
        cfg.emb = weak4(b, n);
        Dlrm::new(cfg)
    };
    out.push((
        "dlrm-model.engine_batch_us",
        batch_us(b.forward_batches(), |n| {
            let model = model_at(n);
            let mut m = Machine::new(MachineConfig::dgx_v100(4));
            host_secs(|| {
                let engine = PipelineEngine::new(&model);
                black_box(
                    engine
                        .run(&mut m, &EngineBackend::pgas(), ExecMode::Timing)
                        .total,
                );
            })
        }),
    ));
    out.push((
        "dlrm-model.serial_batch_us",
        batch_us(b.forward_batches(), |n| {
            let model = model_at(n);
            let mut m = Machine::new(MachineConfig::dgx_v100(4));
            host_secs(|| {
                let pipeline = InferencePipeline::new(&model);
                black_box(
                    pipeline
                        .run(&mut m, &PgasFusedBackend::new(), ExecMode::Timing)
                        .total,
                );
            })
        }),
    ));
}

fn serve_costs(b: Budget, out: &mut Costs) {
    let (cfg, service, rate_qps) = serve_probe(b.seed, b.smoke);
    let requests = 4 * cfg.batch_size;

    let generate_ns = ns_per_op(b.loop_s, requests as u64, || {
        let generator = RequestGenerator::new(&cfg, ArrivalProcess::Poisson { rate_qps }, b.seed);
        secs(|| {
            black_box(generator.generate(requests).len());
        })
    });
    let mut batches = 0;
    let request_ns = ns_per_op(b.loop_s, requests as u64, || {
        let scfg = ServeConfig::new(
            cfg.clone(),
            ServeBackendKind::PgasFused,
            rate_qps,
            service,
            requests,
            b.seed,
        );
        let mut m = Machine::new(MachineConfig::dgx_v100(4));
        secs(|| {
            batches = EmbServer::new(scfg)
                .run(&mut m)
                .expect("a clean dgx machine passes serving preflight")
                .batches;
        })
    });
    let batch_pgas_us = out
        .iter()
        .find(|(name, _)| *name == "emb-retrieval.batch_pgas_us")
        .map_or(0.0, |c| c.1);
    out.push(("emb-serve.generate_ns", generate_ns));
    out.push(("emb-serve.request_ns", request_ns));
    // What the serving loop itself costs per request: the whole run minus
    // request generation and the batches it executed.
    out.push((
        "emb-serve.loop_ns",
        request_ns - generate_ns - batches as f64 * batch_pgas_us * 1e3 / requests as f64,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_divides_timed_seconds_by_operations() {
        // One chunk of 10 ops taking 1 µs of "timed" work → 100 ns/op.
        let mut calls = 0;
        let v = ns_per_op(0.0, 10, || {
            calls += 1;
            1e-6
        });
        assert_eq!(calls, 1);
        assert!((v - 100.0).abs() < 1e-9);
        // The fastest chunk wins: slower ones measured the neighbours.
        let mut chunks = [3e-6, 1e-6, 2e-6].into_iter().cycle();
        let v = ns_per_op(0.01, 10, || chunks.next().expect("cycle never ends"));
        assert!((v - 100.0).abs() < 1e-9);
    }

    #[test]
    fn smoke_costs_cover_the_catalogue() {
        let costs = measure(Budget {
            loop_s: 0.002,
            seed: crate::workloads::PAPER_SEED,
            smoke: true,
        });
        for (name, v) in &costs {
            assert!(v.is_finite(), "{name} = {v}");
            assert!(
                crate::metrics::PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not in the catalogue"
            );
        }
        let mut names: Vec<_> = costs.iter().map(|c| c.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), costs.len(), "a unit cost is measured twice");
    }
}
