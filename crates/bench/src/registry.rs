//! The experiment registry: every artifact `reproduce` can write, described
//! once.
//!
//! [`EXPERIMENTS`] is the single table of experiments. Each row names the
//! artifacts it regenerates and points at a function that runs the sweep for
//! the invocation's [`Params`] and describes each artifact as a [`Doc`]:
//! title (built from the run's parameters), notes, columns with their CSV
//! and JSON precisions, summary fields and claims. Rendering and claim
//! checking live in [`crate::doc`]; nothing here formats a comma or a brace.

use std::fmt::Write as _;

use desim::{Dur, SimTime};
use telemetry::causal::BlameCategory;

use crate::doc::Item::{Fields, Line, Object, Table};
use crate::doc::Layout::{Expanded, Inline};
use crate::doc::{claim, fixed, float, nested, plain, text, Cell, Doc, Item};
use crate::{
    adapt_sweep, backward_comparison, blame_sweep, chaos_sweep, comm_volume_strong_4gpu,
    comm_volume_weak_2gpu, message_size_ablation, netutil_sweep, pipeline_sweep, pods_sweep,
    serve_load_sweep, sharding_ablation, skew_sweep, strong_scaling, weak_scaling,
    whatif_projection, zipf_ablation, BlameResult, CommVolumeResult, LinkUtilStats, RunPair,
    ScalingResult,
};

/// What one `reproduce` invocation asks of an experiment (the CLI flags).
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// `--gpus G`: largest GPU count.
    pub gpus: usize,
    /// `--scale K`: shrink every workload axis by K (1 = paper scale).
    pub scale: usize,
    /// `--batches N`: batches per run.
    pub batches: usize,
    /// `--seed S`: fault-plan / arrival seed.
    pub seed: u64,
    /// `--smoke`: shrink the experiments that have smoke parameters to a
    /// seconds-long CI gate.
    pub smoke: bool,
}

impl Default for Params {
    /// The paper's configuration: 4 GPUs, full scale, 100 batches, seed 42.
    fn default() -> Self {
        Params {
            gpus: 4,
            scale: 1,
            batches: 100,
            seed: 42,
            smoke: false,
        }
    }
}

/// One row of the registry: a sweep and the artifacts it regenerates.
pub struct Experiment {
    /// CLI names, one per document `run` returns (a family sharing one
    /// sweep lists several).
    pub names: &'static [&'static str],
    /// Whether `reproduce all` runs it.
    pub in_all: bool,
    /// Run the sweep and describe its artifacts, in `names` order.
    pub run: fn(&Params) -> Vec<Doc>,
    /// One-line description shown by `reproduce --help`.
    pub about: &'static str,
}

/// Every experiment, in the order `reproduce all` runs them.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        names: &["table1", "fig5", "fig6"],
        in_all: true,
        run: run_weak,
        about: "weak-scaling family (§IV-A)",
    },
    Experiment {
        names: &["table2", "fig8", "fig9"],
        in_all: true,
        run: run_strong,
        about: "strong-scaling family (§IV-B)",
    },
    Experiment {
        names: &["fig7"],
        in_all: true,
        run: run_fig7,
        about: "comm volume over time, 2 GPUs (weak)",
    },
    Experiment {
        names: &["fig10"],
        in_all: true,
        run: run_fig10,
        about: "comm volume over time, 4 GPUs (strong)",
    },
    Experiment {
        names: &["backward"],
        in_all: true,
        run: run_backward,
        about: "EXT-1 backward-pass extension",
    },
    Experiment {
        names: &["ablation-msgsize"],
        in_all: true,
        run: run_msgsize,
        about: "EXT-3 coalescing granularity",
    },
    Experiment {
        names: &["ablation-sharding"],
        in_all: true,
        run: run_sharding,
        about: "EXT-4 input-partition cost",
    },
    Experiment {
        names: &["whatif"],
        in_all: true,
        run: run_whatif,
        about: "EXT-6 weak scaling beyond the testbed (A100, 8 GPUs)",
    },
    Experiment {
        names: &["chaos"],
        in_all: true,
        run: run_chaos,
        about: "EXT-7 fault-injection sweep; intensity 0 is Table I",
    },
    Experiment {
        names: &["serve"],
        in_all: true,
        run: run_serve,
        about: "EXT-8 online-serving load sweep (max QPS under p99 SLO)",
    },
    Experiment {
        names: &["adapt"],
        in_all: true,
        run: run_adapt,
        about: "EXT-13 adaptive control plane vs static configs",
    },
    Experiment {
        names: &["pods"],
        in_all: true,
        run: run_pods,
        about: "EXT-11 pod fabric: alltoall vs flat and gateway PGAS",
    },
    Experiment {
        names: &["pipeline"],
        in_all: true,
        run: run_pipeline,
        about: "EXT-15 executed pipeline (fusion + pipelining)",
    },
    Experiment {
        names: &["blame"],
        in_all: true,
        run: run_blame,
        about: "EXT-16 critical-path blame (+ blame_folded.txt stacks)",
    },
    Experiment {
        names: &["netutil"],
        in_all: true,
        run: run_netutil,
        about: "EXT-10 link-utilization timelines (smoothing claim)",
    },
    Experiment {
        names: &["ablation-zipf"],
        in_all: true,
        run: run_zipf,
        about: "EXT-5 skewed inputs",
    },
    Experiment {
        names: &["skew"],
        in_all: false,
        run: run_skew,
        about: "EXT-9 hot-row cache x index skew; run at --scale >= 16",
    },
];

/// Longest series the time-series artifacts print, in buckets.
const MAX_POINTS: usize = 400;

fn ms(d: Dur) -> f64 {
    d.as_millis_f64()
}

fn us(d: Dur) -> f64 {
    d.as_micros_f64()
}

/// The `baseline_ms,pgas_ms,speedup` columns of a same-plan backend pair,
/// after the row's `label`.
fn pair_cells(label: Cell, p: &RunPair) -> Vec<Cell> {
    vec![
        label,
        fixed("baseline_ms", ms(p.baseline.total), 3),
        fixed("pgas_ms", ms(p.pgas.total), 3),
        fixed("speedup", p.speedup(), 2),
    ]
}

/// CSV-only rows of `time_ms` plus one column per `(name, series, unit,
/// decimals)`: bucket `i` of each series, divided by its unit.
fn timeline(bucket: Dur, n: usize, series: &[(&str, &[f64], f64, usize)]) -> Item {
    let row = |i: usize| {
        let t = (SimTime::ZERO + bucket * i as u64).as_millis_f64();
        let mut cells = vec![fixed("time_ms", t, 4)];
        for &(name, s, unit, prec) in series {
            cells.push(fixed(name, s.get(i).copied().unwrap_or(0.0) / unit, prec));
        }
        cells
    };
    Table(None, Inline, (0..n.min(MAX_POINTS)).map(row).collect())
}

/// A document that is one CSV-only table.
fn csv_doc(name: &'static str, title: impl Into<String>, rows: Vec<Vec<Cell>>) -> Vec<Doc> {
    vec![Doc::new(name, title, vec![Table(None, Inline, rows)])]
}

/// Table I/II, Fig. 5/8 and Fig. 6/9 from one scaling sweep; `names` are the
/// three artifacts in that order (`figN` titles itself "Fig N").
fn scaling_docs(r: &ScalingResult, strong: bool, names: [&'static str; 3]) -> Vec<Doc> {
    let [table, factor, breakdown] = names;
    let (roman, kind, ideal) = if strong {
        ("II", "strong", "ideal = #GPUs")
    } else {
        ("I", "weak", "1 = ideal")
    };
    let mut header = String::from("| Speedup            |");
    let mut speedups = String::from("| PGAS over baseline |");
    for p in r.runs.iter().skip(1) {
        let _ = write!(header, " {} GPUs |", p.gpus);
        let _ = write!(speedups, " {:.2}x  |", p.speedup());
    }
    let runs = r.runs.iter().map(|p| {
        let cells = [
            plain("gpus", p.gpus),
            fixed("baseline_ms", ms(p.baseline.total), 6),
            fixed("pgas_ms", ms(p.pgas.total), 6),
            fixed("speedup", p.speedup(), 4),
        ];
        cells.map(Cell::json_only).to_vec()
    });
    let geomean = r.geomean_speedup();
    let speedup_items = vec![
        Table(Some("runs"), Expanded, runs.collect()),
        Line(header),
        Line(speedups),
        Line(format!("geomean speedup (2+ GPUs): {geomean:.2}x")),
        Fields(vec![fixed("geomean_speedup", geomean, 4).json_only()]),
    ];
    let factors = r.runs.iter().map(|p| {
        let g = p.gpus;
        vec![
            plain("gpus", g),
            fixed("baseline_factor", r.weak_factor(g, false), 4),
            fixed("pgas_factor", r.weak_factor(g, true), 4),
            fixed("ideal", if strong { g as f64 } else { 1.0 }, 1),
        ]
    });
    let breakdowns = r.runs.iter().map(|p| {
        let b = &p.baseline.breakdown;
        vec![
            plain("gpus", p.gpus),
            fixed("baseline_compute_ms", ms(b.compute), 3),
            fixed("baseline_comm_ms", ms(b.communication), 3),
            fixed("baseline_sync_unpack_ms", ms(b.sync_unpack), 3),
            fixed("baseline_total_ms", ms(p.baseline.total), 3),
            fixed("pgas_total_ms", ms(p.pgas.total), 3),
        ]
    });
    let title = format!("Table {roman}: {kind}-scaling speedup (PGAS over baseline)");
    let mut docs = vec![Doc::new(table, title, speedup_items)];
    let title = format!("Fig {}: {kind} scaling factor ({ideal})", &factor[3..]);
    docs.extend(csv_doc(factor, title, factors.collect()));
    let title = format!("Fig {}: {kind}-scaling runtime breakdown", &breakdown[3..]);
    docs.extend(csv_doc(breakdown, title, breakdowns.collect()));
    docs
}

fn run_weak(p: &Params) -> Vec<Doc> {
    let r = weak_scaling(p.gpus, p.scale, p.batches);
    scaling_docs(&r, false, ["table1", "fig5", "fig6"])
}

fn run_strong(p: &Params) -> Vec<Doc> {
    let r = strong_scaling(p.gpus, p.scale, p.batches);
    scaling_docs(&r, true, ["table2", "fig8", "fig9"])
}

/// A communication-volume-over-time series (Fig. 7 / Fig. 10) in the
/// paper's 256-byte units.
fn comm_volume_doc(name: &'static str, title: &str, r: &CommVolumeResult) -> Vec<Doc> {
    let (bp, bb) = r.burstiness();
    let bucket = r.pgas.bucket_width();
    let horizon = r.pgas_end.max(r.baseline_end);
    let n = horizon.as_ns().div_ceil(bucket.as_ns()) as usize;
    let series = [
        ("pgas_units", r.pgas.buckets(), 256.0, 1),
        ("baseline_units", r.baseline.buckets(), 256.0, 1),
        ("fault_frac", &r.fault_frac[..], 1.0, 3),
    ];
    let note = format!("# burstiness (cv): pgas={bp:.2} baseline={bb:.2}; volume unit = 256 B");
    let items = vec![Line(note), timeline(bucket, n, &series)];
    vec![Doc::new(name, title, items)]
}

fn run_fig7(p: &Params) -> Vec<Doc> {
    // Volume plots show a few batches.
    let r = comm_volume_weak_2gpu(p.scale, p.batches.min(4));
    comm_volume_doc("fig7", "Fig 7: comm volume over time (weak, 2 GPUs)", &r)
}

fn run_fig10(p: &Params) -> Vec<Doc> {
    let r = comm_volume_strong_4gpu(p.scale, p.batches.min(4));
    comm_volume_doc(
        "fig10",
        "Fig 10: comm volume over time (strong, 4 GPUs)",
        &r,
    )
}

fn run_backward(p: &Params) -> Vec<Doc> {
    let pair = |g| backward_comparison(g, p.scale, p.batches);
    let rows = (2..=p.gpus).map(|g| pair_cells(plain("gpus", g), &pair(g)));
    let title = "EXT-1: EMB backward pass (gradient exchange)";
    csv_doc("backward", title, rows.collect())
}

fn run_msgsize(p: &Params) -> Vec<Doc> {
    const GPUS: usize = 2;
    let points = message_size_ablation(GPUS, p.scale, p.batches);
    let rows = points.iter().map(|pt| {
        vec![
            plain("max_payload_bytes", pt.max_payload),
            fixed("total_ms", ms(pt.total), 3),
            fixed("header_overhead", pt.header_overhead, 4),
        ]
    });
    let title = format!("EXT-3: coalesced-payload ablation (PGAS, {GPUS} GPUs)");
    csv_doc("ablation-msgsize", title, rows.collect())
}

fn run_sharding(p: &Params) -> Vec<Doc> {
    let a = sharding_ablation(p.gpus.max(2), p.scale, p.batches);
    let row = |scheme: &str, cpu: Dur, pair: &RunPair| {
        let mut cells = pair_cells(text("scheme", scheme), pair);
        let costs = [
            fixed("partition_cpu_ms", ms(cpu), 3),
            fixed("h2d_ms", ms(a.h2d), 3),
        ];
        cells.splice(1..1, costs);
        cells
    };
    let rows = vec![
        row("table_wise", a.table_wise_cpu, &a.table_wise),
        row("row_wise", a.row_wise_cpu, &a.row_wise),
    ];
    let title = "EXT-4: table-wise vs row-wise sharding";
    csv_doc("ablation-sharding", title, rows)
}

fn run_whatif(p: &Params) -> Vec<Doc> {
    let machines = whatif_projection(8, p.scale, p.batches);
    let row = |(machine, pair): &(String, RunPair)| pair_cells(text("machine", machine), pair);
    let title = "EXT-6: beyond the testbed (weak scaling)";
    csv_doc("whatif", title, machines.iter().map(row).collect())
}

fn run_zipf(p: &Params) -> Vec<Doc> {
    let gpus = p.gpus.max(2);
    let (u, z) = zipf_ablation(gpus, p.scale, p.batches);
    let rows = vec![
        pair_cells(text("distribution", "uniform"), &u),
        pair_cells(text("distribution", "zipf(1.1)"), &z),
    ];
    let title = format!("EXT-5: index-skew ablation ({gpus} GPUs)");
    csv_doc("ablation-zipf", title, rows)
}

fn run_chaos(p: &Params) -> Vec<Doc> {
    let (gpus, seed) = (p.gpus.max(2), p.seed);
    let points = if p.smoke {
        let (scale, batches) = (p.scale.max(128), p.batches.min(3));
        chaos_sweep(gpus, scale, batches, seed, &[0.0, 0.5, 1.0])
    } else {
        let intensities = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0];
        chaos_sweep(gpus, p.scale, p.batches, seed, &intensities)
    };
    let rows = points.iter().map(|p| {
        let (pgas, base) = (&p.pgas, &p.baseline);
        let failover = pgas.failover_at.map_or("-".into(), |b| b.to_string());
        vec![
            fixed("intensity", p.intensity, 2),
            fixed("pgas_p50_us", us(pgas.p50), 1),
            fixed("pgas_p99_us", us(pgas.p99), 1),
            plain("pgas_retries", pgas.retries),
            fixed("pgas_degraded_pct", 100.0 * pgas.degraded_fraction, 3),
            plain("pgas_missed", pgas.deadline_missed),
            fixed("pgas_slo_viol_min", pgas.slo_viol_min, 3),
            text("failover_batch", failover),
            fixed("base_p50_us", us(base.p50), 1),
            fixed("base_p99_us", us(base.p99), 1),
            plain("base_retries", base.retries),
            fixed("base_degraded_pct", 100.0 * base.degraded_fraction, 3),
            fixed("base_slo_viol_min", base.slo_viol_min, 3),
            fixed("speedup_p50", p.speedup_p50(), 2),
        ]
    });
    let crossover = match points.iter().find(|p| p.speedup_p50() < 1.0) {
        Some(p) => format!(
            "baseline overtakes resilient PGAS at intensity {:.2}",
            p.intensity
        ),
        None => "none — PGAS holds its advantage at every intensity".to_string(),
    };
    let items = vec![
        Table(None, Inline, rows.collect()),
        Line(format!("crossover: {crossover}")),
    ];
    let title = format!(
        "EXT-7: fault-injection sweep, {gpus} GPUs, seed {seed} (resilient PGAS vs baseline)"
    );
    vec![Doc::new("chaos", title, items)]
}

fn run_serve(p: &Params) -> Vec<Doc> {
    let (gpus, seed) = (p.gpus.max(2), p.seed);
    let sweep = if p.smoke {
        serve_load_sweep(gpus, p.scale.max(128), 2, seed, &[0.5, 1.5])
    } else {
        let loads = [0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5];
        serve_load_sweep(gpus, p.scale, 12, seed, &loads)
    };
    let rows = sweep.points.iter().map(|p| {
        vec![
            text("backend", p.backend),
            text("arrival", p.arrival),
            fixed("offered_x", p.offered_x, 2),
            fixed("offered_qps", p.offered_qps, 0),
            fixed("p50_us", us(p.p50), 1),
            fixed("p99_us", us(p.p99), 1),
            fixed("p999_us", us(p.p999), 1),
            fixed("batch_p50_us", us(p.batch_p50), 1),
            plain("served", p.served),
            plain("shed", p.shed),
            plain("timed_out", p.timed_out),
            plain("sustained", p.sustained),
        ]
    });
    let (slo, yardstick) = (us(sweep.slo), us(sweep.baseline_service));
    let mut items = vec![
        Table(None, Inline, rows.collect()),
        Line(format!(
            "slo_p99_us,{slo:.1} (4x unloaded baseline batch {yardstick:.1} us)"
        )),
    ];
    for b in ["baseline", "pgas", "resilient"] {
        let qps = sweep.max_sustained_qps(b);
        items.push(Line(format!("max_sustained_qps_{b},{qps:.0}")));
    }
    let ratio = sweep.capacity_ratio();
    items.push(Line(format!(
        "serving_capacity_ratio_pgas_over_baseline,{ratio:.2}"
    )));
    let title = format!(
        "EXT-8: online-serving load sweep, {gpus} GPUs, seed {seed} (max QPS under p99 SLO)"
    );
    vec![Doc::new("serve", title, items)]
}

fn run_adapt(p: &Params) -> Vec<Doc> {
    let (gpus, seed) = (p.gpus.max(2), p.seed);
    let sweep = if p.smoke {
        adapt_sweep(gpus, p.scale.max(256), 6, seed)
    } else {
        adapt_sweep(gpus, p.scale.max(16), 12, seed)
    };
    let rows = sweep.cells.iter().map(|c| {
        let actions = |r: emb_serve::ControlReport| (r.failovers, r.failbacks, r.breaker_trips);
        let (failovers, failbacks, breaker_trips) = c.control.map_or((0, 0, 0), actions);
        vec![
            text("scenario", c.scenario),
            text("policy", c.policy),
            plain("generated", c.generated),
            plain("served", c.served),
            plain("shed", c.shed),
            plain("timed_out", c.timed_out),
            float("goodput_slo", c.goodput_slo, 4, 6),
            float("slo_viol_min", c.slo_viol_min, 4, 6),
            float("worst_p99_us", us(c.worst_p99), 1, 3),
            plain("retries", c.retries).csv_only(),
            plain("degraded_rows", c.degraded_rows).csv_only(),
            plain("replica_rows", c.replica_rows).csv_only(),
            plain("device_loss_batches", c.device_loss_batches),
            plain("failovers", failovers),
            plain("failbacks", failbacks),
            plain("breaker_trips", breaker_trips),
        ]
    });
    let items = vec![
        Fields(vec![
            plain("gpus", sweep.gpus).json_only(),
            fixed("slo_us", us(sweep.slo), 3).json_only(),
            fixed("baseline_service_us", us(sweep.baseline_service), 3).json_only(),
            fixed("pgas_service_us", us(sweep.pgas_service), 3).json_only(),
            fixed("capacity_qps", sweep.capacity_qps, 3).json_only(),
        ]),
        Table(Some("cells"), Inline, rows.collect()),
        Fields(vec![
            fixed("slo_us", us(sweep.slo), 1).csv_only(),
            fixed("capacity_qps", sweep.capacity_qps, 0).csv_only(),
            claim(
                "adaptive_dominates",
                sweep.adaptive_dominates(),
                "a static config matched or beat the controller under flash crowd or fault storm",
            ),
        ]),
    ];
    let title = format!(
        "EXT-13: adaptive resilience control plane vs static configs, {gpus} GPUs, seed {seed}"
    );
    vec![Doc::new("adapt", title, items)]
}

fn run_pods(p: &Params) -> Vec<Doc> {
    let r = if p.smoke {
        pods_sweep(&[(2, 2)], &[256], 1 << 20)
    } else {
        let shapes = [(2, 4), (4, 4), (8, 4), (16, 4)];
        pods_sweep(&shapes, &[64, 256, 1024, 4096], 1 << 20)
    };
    let rows = r.cells.iter().map(|c| {
        vec![
            plain("nodes", c.nodes),
            plain("per_node", c.per_node),
            plain("gpus", c.gpus()),
            plain("row_bytes", c.row_bytes),
            fixed("alltoall_direct_us", us(c.alltoall_direct), 3),
            fixed("alltoall_hier_us", us(c.alltoall_hier), 3),
            fixed("pgas_flat_us", us(c.pgas_flat), 3),
            fixed("pgas_gateway_us", us(c.pgas_gateway), 3),
            plain("flat_inter_msgs", c.flat_inter_messages),
            plain("gateway_inter_msgs", c.gateway_inter_messages),
        ]
    });
    let items = vec![
        Line(format!("# pair_bytes={}", r.pair_bytes)),
        Fields(vec![plain("pair_bytes", r.pair_bytes).json_only()]),
        Table(Some("cells"), Inline, rows.collect()),
        Fields(vec![
            claim(
                "flat_pgas_loses_cross_node",
                r.flat_pgas_loses_cross_node(),
                "flat per-row PGAS never lost to the hierarchical alltoall across nodes",
            ),
            claim(
                "gateway_recovers_pgas",
                r.gateway_recovers_pgas(),
                "gateway aggregation did not restore the PGAS win",
            ),
        ]),
    ];
    let title = "EXT-11: pod-fabric sweep (hierarchical alltoall vs flat and gateway PGAS)";
    vec![Doc::new("pods", title, items)]
}

fn run_pipeline(p: &Params) -> Vec<Doc> {
    let r = if p.smoke {
        let scale = p.scale.max(512);
        pipeline_sweep(&[(1, 2, scale), (2, 2, scale)], p.batches.min(3), &[1])
    } else {
        let pod_scale = p.scale.max(8);
        let shapes = [(1, 4, p.scale), (2, 4, pod_scale), (8, 4, pod_scale)];
        pipeline_sweep(&shapes, p.batches.min(8), &[1, 2])
    };
    let rows = r.cells.iter().map(|c| {
        vec![
            plain("nodes", c.nodes),
            plain("per_node", c.per_node),
            plain("gpus", c.gpus()),
            plain("scale", c.scale),
            plain("batch_size", c.batch_size),
            plain("batches", c.batches),
            fixed("base_serial_ms", ms(c.base_serial), 3),
            fixed("base_exec_ms", ms(c.base_exec), 3),
            fixed("pgas_serial_ms", ms(c.pgas_serial), 3),
            fixed("pgas_exec_ms", ms(c.pgas_exec), 3),
            float("base_gain", c.base_gain(), 3, 4),
            float("pgas_gain", c.pgas_gain(), 3, 4),
            float("serial_ratio", c.serial_ratio(), 3, 4),
            float("fused_ratio", c.fused_ratio(), 3, 4),
            fixed("base_bubble", c.base_bubble, 4),
            fixed("pgas_bubble", c.pgas_bubble, 4),
        ]
    });
    let items = vec![
        Table(Some("cells"), Inline, rows.collect()),
        Fields(vec![
            claim(
                "fusion_wins",
                r.fusion_wins(),
                "the executed fused+pipelined schedule did not beat analytic-serial on every cell",
            ),
            claim(
                "pgas_lead_widens",
                r.pgas_lead_widens(),
                "PGAS's end-to-end lead shrank under fusion on every single-node cell",
            ),
        ]),
    ];
    let title = "EXT-15: executed pipeline engine (fused comm-interaction overlap + inter-batch \
                 software pipelining)";
    vec![Doc::new("pipeline", title, items)]
}

fn blame_doc(r: &BlameResult) -> Doc {
    let rows = r.cells.iter().map(|c| {
        let by_category = |suffix: &str| {
            let cell =
                |cat: &BlameCategory| plain(cat.label().to_string() + suffix, c.blame.get(*cat));
            BlameCategory::ALL.iter().map(cell).collect::<Vec<_>>()
        };
        let mut cells = vec![
            text("topology", c.topology),
            text("backend", c.backend),
            plain("gpus", c.gpus),
            plain("batches", c.batches),
            fixed("total_ms", ms(c.total()), 3),
            float("exposed_share", c.exposed_share(), 4, 6),
        ];
        cells.extend(by_category("_ns").into_iter().map(Cell::csv_only));
        cells.push(nested("blame_ns", &by_category("")));
        cells
    });
    let mut folded = String::new();
    for c in &r.cells {
        for line in c.folded.lines() {
            let _ = writeln!(folded, "{};{};{line}", c.topology, c.backend);
        }
    }
    let items = vec![
        Line(format!("# scale={}", r.scale)),
        Fields(vec![plain("scale", r.scale).json_only()]),
        Table(Some("cells"), Inline, rows.collect()),
        Fields(vec![
            float("baseline_exposed_share", r.baseline_share(), 4, 6),
            float("pgas_exposed_share", r.pgas_share(), 4, 6),
            claim(
                "exposed_comm_eliminated",
                r.exposed_comm_eliminated(),
                "exposed communication is not >=30% of the baseline critical path and <=5% of \
                 the PGAS one",
            ),
        ]),
    ];
    let title = "EXT-16: critical-path blame decomposition (causal span graph, baseline vs PGAS)";
    let mut doc = Doc::new("blame", title, items);
    doc.attachments.push(("blame_folded.txt", folded));
    doc
}

fn run_blame(p: &Params) -> Vec<Doc> {
    // Blame always runs at paper scale: the claim is about where paper-
    // scale batch time goes, and shrunk workloads are dominated by fixed
    // per-call overheads instead of wire/queue time. Smoke just trims the
    // batch count — the decomposition is deterministic per batch anyway.
    let batches = if p.smoke { 2 } else { p.batches.min(8) };
    vec![blame_doc(&blame_sweep(1, batches))]
}

fn run_netutil(p: &Params) -> Vec<Doc> {
    let r = if p.smoke {
        netutil_sweep(2, p.scale.max(512), p.batches.min(2))
    } else {
        netutil_sweep(p.gpus.max(2), p.scale, p.batches.min(4))
    };
    let (base, pgas, smooth) = (&r.baseline_agg, &r.pgas_agg, r.smoothing_ok());
    let (bucket_us, base_end, pgas_end) = (us(r.bucket), ms(r.baseline_end), ms(r.pgas_end));
    let side = |name, st: &LinkUtilStats, end: Dur, messages: u64| {
        let cells = vec![
            fixed("end_ms", ms(end), 6),
            plain("messages", messages),
            fixed("peak_util", st.peak, 6),
            fixed("mean_util", st.mean, 6),
            fixed("peak_to_mean", st.peak_to_mean, 4),
            fixed("cv", st.cv, 4),
        ];
        Object(name, cells)
    };
    let links = r.links.iter().map(|l| {
        let mut cells = vec![text("link", format!("{}->{}", l.src, l.dst))];
        for (side, st) in [("baseline", &l.baseline), ("pgas", &l.pgas)] {
            let stats = [
                fixed(format!("{side}_peak"), st.peak, 4),
                fixed(format!("{side}_mean"), st.mean, 4),
                fixed(format!("{side}_peak_to_mean"), st.peak_to_mean, 3),
                fixed(format!("{side}_cv"), st.cv, 3),
            ];
            cells.extend(stats.map(Cell::csv_only));
        }
        let ratios = [
            fixed("baseline_peak_to_mean", l.baseline.peak_to_mean, 4),
            fixed("pgas_peak_to_mean", l.pgas.peak_to_mean, 4),
            fixed("baseline_cv", l.baseline.cv, 4),
            fixed("pgas_cv", l.pgas.cv, 4),
        ];
        cells.extend(ratios.map(Cell::json_only));
        cells
    });
    let series = [
        ("baseline_util", &r.baseline_series[..], 1.0, 4),
        ("pgas_util", &r.pgas_series[..], 1.0, 4),
    ];
    let n = r.baseline_series.len().max(r.pgas_series.len());
    let items = vec![
        Line(format!(
            "# bucket_us={bucket_us:.3} baseline_end_ms={base_end:.4} pgas_end_ms={pgas_end:.4} \
             messages: baseline={} pgas={}",
            r.baseline_messages, r.pgas_messages,
        )),
        Line(format!(
            "# aggregate peak_to_mean: baseline={:.3} pgas={:.3}; cv: baseline={:.3} pgas={:.3}; \
             smoothing_ok={smooth}",
            base.peak_to_mean, pgas.peak_to_mean, base.cv, pgas.cv,
        )),
        Fields(vec![
            plain("gpus", r.gpus).json_only(),
            plain("scale", r.scale).json_only(),
            plain("batches", r.batches).json_only(),
            fixed("bucket_us", bucket_us, 3).json_only(),
        ]),
        side("baseline", base, r.baseline_end, r.baseline_messages),
        side("pgas", pgas, r.pgas_end, r.pgas_messages),
        Table(Some("links"), Inline, links.collect()),
        Fields(vec![
            plain("per_link_ok", r.per_link_ok()).json_only(),
            claim(
                "smoothing_ok",
                smooth,
                "PGAS aggregate peak-to-mean utilization is not below the baseline's",
            )
            .json_only(),
        ]),
        timeline(r.bucket, n, &series),
    ];
    let title = format!(
        "EXT-10: link-utilization timelines, {} GPUs (baseline vs PGAS, weak config)",
        r.gpus
    );
    vec![Doc::new("netutil", title, items)]
}

fn run_skew(p: &Params) -> Vec<Doc> {
    let gpus = p.gpus.max(2);
    let sweep = if p.smoke {
        skew_sweep(gpus, p.scale.max(512), p.batches.min(2))
    } else {
        skew_sweep(gpus, p.scale, p.batches)
    };
    let rows = sweep.cells.iter().map(|c| {
        let traffic = &c.pgas.traffic;
        let remote_mb = traffic.payload_bytes as f64 / (1 << 20) as f64;
        let (pgas_x, base_x) = (sweep.pgas_speedup(c), sweep.baseline_speedup(c));
        let reduction = sweep.remote_bytes_reduction(c);
        vec![
            text("distribution", c.label()),
            plain("cache_rows", c.cache_rows),
            plain("replica_rows", c.replica_rows),
            float("baseline_ms", ms(c.baseline.total), 3, 6),
            float("pgas_ms", ms(c.pgas.total), 3, 6),
            float("pgas_speedup_vs_uncached", pgas_x, 2, 4),
            float("baseline_speedup_vs_uncached", base_x, 2, 4),
            fixed("pgas_remote_mb", remote_mb, 2).csv_only(),
            plain("remote_bytes", traffic.payload_bytes).json_only(),
            plain("remote_messages", traffic.messages).json_only(),
            float("remote_bytes_reduction", reduction, 4, 6),
            plain("pgas_msgs", traffic.messages).csv_only(),
            float("measured_hit", c.measured_hit, 4, 6),
            float("model_hit", c.model_hit, 4, 6),
        ]
    });
    let h = sweep.headline();
    let headline = sweep.pgas_speedup(h);
    let items = vec![
        Fields(vec![
            plain("gpus", sweep.gpus).json_only(),
            plain("scale", sweep.scale).json_only(),
        ]),
        Table(Some("cells"), Expanded, rows.collect()),
        Line(format!(
            "headline: pgas speedup at {} with a {}-row cache: {headline:.2}x (hit measured {:.3} vs model {:.3})",
            h.label(),
            h.cache_rows,
            h.measured_hit,
            h.model_hit,
        )),
        Fields(vec![fixed("headline_pgas_speedup", headline, 4).json_only()]),
    ];
    let title = format!("EXT-9: hot-row cache x index-skew sweep, {gpus} GPUs (weak config)");
    vec![Doc::new("skew", title, items)]
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    use super::*;
    use desim::Dur;
    use telemetry::causal::BlameVec;

    /// Every file of every experiment at `--smoke --scale 512 --batches 2`,
    /// as `(file name, body)`; walked once and shared by the tests below.
    /// The walk itself asserts what holds for every entry alike.
    fn walk() -> &'static Vec<(String, String)> {
        static FILES: OnceLock<Vec<(String, String)>> = OnceLock::new();
        FILES.get_or_init(|| {
            let params = Params {
                smoke: true,
                scale: 512,
                batches: 2,
                ..Params::default()
            };
            let mut files = Vec::new();
            for e in EXPERIMENTS {
                let docs = (e.run)(&params);
                let names: Vec<&str> = docs.iter().map(|d| d.name).collect();
                assert_eq!(names, e.names, "one document per name, in order");
                for doc in docs {
                    let failed = doc.failed_claims();
                    assert!(failed.is_empty(), "{}: {failed:?}", doc.name);
                    if let Some(json) = doc.json() {
                        telemetry::validate_json_doc(&json, &[])
                            .unwrap_or_else(|err| panic!("{}: {err}", doc.name));
                    }
                    files.extend(doc.files());
                }
            }
            files
        })
    }

    fn body(file: &str) -> &'static str {
        let found = walk().iter().find(|(f, _)| f == file);
        &found.unwrap_or_else(|| panic!("no artifact {file}")).1
    }

    #[test]
    fn names_are_unique_and_the_standalone_experiments_come_last() {
        let names: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.names).copied().collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate name in {names:?}");
        assert!(!unique.contains("all"), "`all` is reserved");
        // `reproduce` lists valid names in table order, `all`'s first.
        let first_standalone = EXPERIMENTS.iter().position(|e| !e.in_all).unwrap();
        assert!(EXPERIMENTS[first_standalone..].iter().all(|e| !e.in_all));
    }

    #[test]
    fn the_registry_produces_exactly_the_files_in_results() {
        let produced: BTreeSet<&str> = walk().iter().map(|(f, _)| f.as_str()).collect();
        assert_eq!(
            produced.len(),
            walk().len(),
            "two artifacts share a file name"
        );
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("results/ is committed")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            // The Chrome traces come from `examples/timeline_trace.rs`, the
            // host-cost ledger from `benchmark/run.sh`.
            .filter(|f| !f.starts_with("trace_") && f != "BENCH_host.jsonl")
            .collect();
        let committed: BTreeSet<&str> = committed.iter().map(String::as_str).collect();
        assert_eq!(produced, committed);
    }

    /// What each artifact must say, whatever the numbers: its columns, its
    /// summary lines, its claims holding in both forms.
    #[test]
    fn every_artifact_is_non_empty_and_says_what_it_should() {
        for (file, body) in walk() {
            assert!(body.lines().count() >= 2, "{file} is (nearly) empty");
        }
        let says: &[(&str, &str)] = &[
            ("table1.csv", "== Table I: weak-scaling speedup"),
            ("table1.csv", "| 2 GPUs |"),
            ("table1.csv", "geomean speedup (2+ GPUs): "),
            ("BENCH_table1.json", "\"experiment\": \"table1\""),
            ("BENCH_table1.json", "\"runs\": ["),
            ("BENCH_table1.json", "\"geomean_speedup\": "),
            ("fig5.csv", "== Fig 5: weak scaling factor (1 = ideal) =="),
            (
                "fig5.csv",
                "gpus,baseline_factor,pgas_factor,ideal\n1,1.0000,1.0000,1.0\n",
            ),
            ("fig6.csv", "== Fig 6: weak-scaling runtime breakdown =="),
            ("fig6.csv", "gpus,baseline_compute_ms,"),
            ("table2.csv", "== Table II: strong-scaling speedup"),
            ("BENCH_table2.json", "\"experiment\": \"table2\""),
            (
                "fig8.csv",
                "== Fig 8: strong scaling factor (ideal = #GPUs) ==",
            ),
            ("fig8.csv", "\n4,"),
            ("fig9.csv", "== Fig 9: strong-scaling runtime breakdown =="),
            ("fig7.csv", "# burstiness (cv): pgas="),
            (
                "fig7.csv",
                "time_ms,pgas_units,baseline_units,fault_frac\n0.0000,",
            ),
            ("fig10.csv", "(strong, 4 GPUs)"),
            ("fig10.csv", "time_ms,pgas_units,baseline_units,fault_frac"),
            (
                "ablation-zipf.csv",
                "== EXT-5: index-skew ablation (4 GPUs) ==",
            ),
            ("ablation-zipf.csv", "\nuniform,"),
            ("ablation-zipf.csv", "\nzipf(1.1),"),
            ("chaos.csv", "4 GPUs, seed 42"),
            ("chaos.csv", "intensity,pgas_p50_us"),
            ("chaos.csv", "pgas_slo_viol_min"),
            ("chaos.csv", "base_slo_viol_min"),
            ("chaos.csv", "\n0.00,"),
            ("chaos.csv", "\ncrossover: "),
            ("serve.csv", "backend,arrival,offered_x"),
            ("serve.csv", "max_sustained_qps_pgas,"),
            ("serve.csv", "serving_capacity_ratio_pgas_over_baseline,"),
            ("adapt.csv", "scenario,policy,generated"),
            ("adapt.csv", "adaptive_dominates: true\n"),
            ("BENCH_adapt.json", "\"capacity_qps\": "),
            ("BENCH_adapt.json", "\"adaptive_dominates\": true"),
            ("pods.csv", "# pair_bytes=1048576"),
            ("pods.csv", "nodes,per_node,gpus,row_bytes"),
            (
                "pods.csv",
                "flat_pgas_loses_cross_node: true  gateway_recovers_pgas: true",
            ),
            ("BENCH_pods.json", "\"flat_pgas_loses_cross_node\": true"),
            ("BENCH_pods.json", "\"gateway_recovers_pgas\": true"),
            ("pipeline.csv", "nodes,per_node,gpus,scale,batch_size"),
            ("pipeline.csv", "fusion_wins: true  pgas_lead_widens: true"),
            ("BENCH_pipeline.json", "\"base_exec_ms\": "),
            ("BENCH_pipeline.json", "\"fusion_wins\": true"),
            ("BENCH_pipeline.json", "\"pgas_lead_widens\": true"),
            ("blame.csv", "# scale=1"),
            ("blame.csv", "exposed_share,gather_pool_ns,"),
            ("blame.csv", "queue_comm_ns"),
            ("blame.csv", "exposed_comm_eliminated: true"),
            ("BENCH_blame.json", "\"blame_ns\": {\"gather_pool\": "),
            ("BENCH_blame.json", "\"baseline_exposed_share\": "),
            ("BENCH_blame.json", "\"exposed_comm_eliminated\": true"),
            ("blame_folded.txt", "dgx;baseline;critical_path;"),
            ("netutil.csv", "link,baseline_peak,"),
            ("netutil.csv", "time_ms,baseline_util,pgas_util"),
            ("netutil.csv", "smoothing_ok=true"),
            ("BENCH_netutil.json", "\"baseline\": {\n    \"end_ms\": "),
            ("BENCH_netutil.json", "\"peak_to_mean\": "),
            ("BENCH_netutil.json", "\"per_link_ok\": "),
            ("BENCH_netutil.json", "\"smoothing_ok\": true"),
            ("skew.csv", "distribution,cache_rows,replica_rows"),
            ("skew.csv", "\nheadline: pgas speedup at zipf("),
            (
                "BENCH_skew.json",
                "\"cells\": [\n    {\n      \"distribution\": ",
            ),
            ("BENCH_skew.json", "\"measured_hit\": "),
            ("BENCH_skew.json", "\"headline_pgas_speedup\": "),
        ];
        for (file, needle) in says {
            let body = body(file);
            assert!(body.contains(needle), "{file} lacks {needle:?}:\n{body}");
        }
        // A clean fabric has no fault windows.
        let fig7 = body("fig7.csv");
        assert!(fig7.lines().count() > 5);
        assert!(
            fig7.lines().skip(3).all(|l| l.ends_with(",0.000")),
            "{fig7}"
        );
        // 3 backends x (2 smoke Poisson loads + 1 on/off point).
        let serve = body("serve.csv");
        assert_eq!(serve.lines().filter(|l| l.contains(",poisson,")).count(), 6);
        assert_eq!(serve.lines().filter(|l| l.contains(",onoff,")).count(), 3);
        let skew = body("skew.csv");
        assert!(skew.lines().filter(|l| l.starts_with("zipf(")).count() >= 9);
        assert!(body("chaos.csv").lines().count() >= 5);
    }

    fn synthetic_blame() -> BlameResult {
        let mk = |topology, backend, gpus, comm_ms: u64, compute_ms: u64| {
            let mut blame = BlameVec::default();
            blame.add(BlameCategory::QueueComm, Dur::from_ms(comm_ms));
            blame.add(BlameCategory::GatherPool, Dur::from_ms(compute_ms));
            crate::BlameCell {
                topology,
                backend,
                gpus,
                batches: 2,
                blame,
                folded: format!("critical_path;{backend};gather_pool 1\n"),
            }
        };
        BlameResult {
            scale: 1,
            cells: vec![
                mk("dgx", "baseline", 4, 24, 48),
                mk("dgx", "pgas", 4, 1, 70),
                mk("pod8x4", "baseline", 32, 900, 170),
                mk("pod8x4", "pgas_gateway", 32, 300, 85),
            ],
        }
    }

    #[test]
    fn blame_document_refuses_a_false_claim() {
        let mut r = synthetic_blame();
        let doc = blame_doc(&r);
        assert!(doc.failed_claims().is_empty());
        assert!(doc
            .json()
            .unwrap()
            .contains("\"exposed_comm_eliminated\": true"));
        assert_eq!(doc.attachments[0].1.lines().count(), 4);
        // Make the DGX pgas cell comm-dominated: the claim must now fail.
        r.cells[1]
            .blame
            .add(BlameCategory::WireIntra, Dur::from_ms(500));
        let doc = blame_doc(&r);
        assert!(doc
            .json()
            .unwrap()
            .contains("\"exposed_comm_eliminated\": false"));
        assert!(doc.csv().contains("exposed_comm_eliminated: false"));
        let failed = doc.failed_claims();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with("exposed_comm_eliminated: exposed communication is not"));
        assert!(doc.publish(None).is_err());
    }
}
