//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce <experiment> [--scale K] [--batches N] [--gpus G] [--csv DIR]
//!
//! experiments:
//!   table1 | fig5 | fig6      weak-scaling family   (§IV-A)
//!   table2 | fig8 | fig9      strong-scaling family (§IV-B)
//!   fig7                      comm volume over time, 2 GPUs (weak)
//!   fig10                     comm volume over time, 4 GPUs (strong)
//!   backward                  EXT-1 backward-pass extension
//!   multinode                 EXT-2 aggregator on InfiniBand
//!   ablation-msgsize          EXT-3 coalescing granularity
//!   ablation-sharding         EXT-4 input-partition cost
//!   ablation-zipf             EXT-5 skewed inputs
//!   chaos                     EXT-7 fault-injection sweep (resilient PGAS
//!                             vs baseline; intensity 0 reproduces Table I)
//!   serve                     EXT-8 online-serving load sweep (max QPS per
//!                             backend under a p99 SLO)
//!   netutil                   EXT-10 link-utilization timelines (per-bucket
//!                             busy fraction, peak-to-mean, CV; quantifies
//!                             the paper's "smoothed network usage" claim)
//!   adapt                     EXT-13 adaptive resilience control plane vs
//!                             static configs under a scenario suite (diurnal,
//!                             flash crowd, skew drift, fault storm;
//!                             BENCH_adapt.json asserts adaptive dominance)
//!   pods                      EXT-11 multi-node pod-fabric sweep (flat vs
//!                             hierarchical alltoall vs flat/gateway PGAS
//!                             across nodes × GPUs-per-node × row size;
//!                             BENCH_pods.json asserts the crossover claims)
//!   pipeline                  EXT-15 executed pipeline engine (fused
//!                             comm→interaction + inter-batch software
//!                             pipelining vs the analytic serial schedule,
//!                             backend × batch size × pod shape;
//!                             BENCH_pipeline.json asserts fusion wins and
//!                             PGAS's lead widens)
//!   blame                     EXT-16 critical-path blame decomposition
//!                             (causal span graph walked backward from each
//!                             batch's completion; BENCH_blame.json asserts
//!                             exposed communication is ≥30% of the baseline
//!                             critical path and ≤5% under PGAS; also emits
//!                             blame_folded.txt flamegraph stacks)
//!   skew                      EXT-9 hot-row cache × index-skew grid
//!                             (BENCH_skew.json; materializes raw indices,
//!                             so run it at --scale 16 or smaller workloads
//!                             — not part of `all`)
//!   wallclock                 host-time self-speedup of the real kernels at
//!                             1/2/4 threads (BENCH_wallclock.json; not part
//!                             of `all` — it measures the harness, not the
//!                             paper)
//!   all                       everything above except wallclock
//!
//! --scale K    shrink every workload axis by K (default 1 = paper scale)
//! --batches N  batches per run (default 100, the paper's count)
//! --seed S     fault-plan/arrival seed for `chaos` and `serve` (default 42)
//! --smoke      shrink `chaos`/`serve`/`adapt`/`skew`/`netutil`/`pods`/
//!              `pipeline`/`blame`/`wallclock` to a seconds-long CI gate
//! --out-dir D  write every experiment's CSV into D (alias: --csv)
//! ```

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use bench_harness::*;
use desim::Dur;

/// Prints an experiment's host (wall-clock) time to stderr on drop. Stderr,
/// not stdout: the CSV bodies on stdout must stay byte-identical run to run,
/// and host time is the one thing that never is.
struct HostTimer {
    name: &'static str,
    start: Instant,
}

impl HostTimer {
    fn new(name: &'static str) -> Self {
        HostTimer {
            name,
            start: Instant::now(),
        }
    }
}

impl Drop for HostTimer {
    fn drop(&mut self) {
        eprintln!(
            "host-time {}: {:.3}s",
            self.name,
            self.start.elapsed().as_secs_f64()
        );
    }
}

struct Args {
    experiment: String,
    scale: usize,
    batches: usize,
    gpus: usize,
    seed: u64,
    smoke: bool,
    csv: Option<PathBuf>,
}

/// Every experiment `all` runs, in dispatch order.
const IN_ALL: [&str; 21] = [
    "table1",
    "fig5",
    "fig6",
    "table2",
    "fig8",
    "fig9",
    "fig7",
    "fig10",
    "backward",
    "multinode",
    "ablation-msgsize",
    "ablation-sharding",
    "whatif",
    "chaos",
    "serve",
    "adapt",
    "pods",
    "pipeline",
    "blame",
    "netutil",
    "ablation-zipf",
];

/// Experiments that only run when named.
const STANDALONE: [&str; 2] = ["skew", "wallclock"];

/// Whether this invocation runs (any of) the experiments `names` — the one
/// place dispatch arms and the name check meet, so neither can drift.
fn selected(e: &str, names: &[&str]) -> bool {
    debug_assert!(names
        .iter()
        .all(|n| IN_ALL.contains(n) || STANDALONE.contains(n)));
    names.contains(&e) || (e == "all" && names.iter().all(|n| IN_ALL.contains(n)))
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".to_string(),
        scale: 1,
        batches: 100,
        gpus: 4,
        seed: 42,
        smoke: false,
        csv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = it.next().and_then(|v| v.parse().ok()).expect("--scale K"),
            "--batches" => {
                args.batches = it.next().and_then(|v| v.parse().ok()).expect("--batches N")
            }
            "--gpus" => args.gpus = it.next().and_then(|v| v.parse().ok()).expect("--gpus G"),
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S"),
            "--smoke" => args.smoke = true,
            "--csv" | "--out-dir" => {
                args.csv = Some(PathBuf::from(it.next().expect("--out-dir DIR")))
            }
            "--help" | "-h" => {
                println!("usage: reproduce <experiment> [--scale K] [--batches N] [--gpus G] [--seed S] [--smoke] [--out-dir DIR]");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => args.experiment = other.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }
    let e = args.experiment.as_str();
    if e != "all" && !IN_ALL.contains(&e) && !STANDALONE.contains(&e) {
        eprintln!(
            "unknown experiment {e:?}; valid names: all, {}, {}",
            IN_ALL.join(", "),
            STANDALONE.join(", ")
        );
        std::process::exit(2);
    }
    args
}

fn emit(args: &Args, name: &str, body: &str) {
    println!("{body}");
    if let Some(dir) = &args.csv {
        fs::create_dir_all(dir).expect("create csv dir");
        fs::write(dir.join(format!("{name}.csv")), body).expect("write csv");
    }
}

/// Validate and (when `--out-dir` is set) write a `BENCH_*.json` artifact.
/// The JSON goes only to disk, never stdout — stdout stays the CSV surface.
fn emit_json(args: &Args, file: &str, json: &str, validate: impl Fn(&str) -> Result<(), String>) {
    validate(json).unwrap_or_else(|e| panic!("{file} must be well-formed: {e}"));
    if let Some(dir) = &args.csv {
        fs::create_dir_all(dir).expect("create out dir");
        fs::write(dir.join(file), json).expect("write json artifact");
    }
}

fn main() {
    let args = parse_args();
    let e = args.experiment.as_str();
    let fig_batches = args.batches.min(4); // volume plots show a few batches

    if selected(e, &["table1", "fig5", "fig6"]) {
        let _t = HostTimer::new("weak-scaling-family");
        let r = weak_scaling(args.gpus, args.scale, args.batches);
        if selected(e, &["table1"]) {
            emit(
                &args,
                "table1",
                &speedup_table(&r, "Table I: weak-scaling speedup (PGAS over baseline)"),
            );
            emit_json(
                &args,
                "BENCH_table1.json",
                &scaling_json(&r, "table1"),
                validate_scaling_json,
            );
        }
        if selected(e, &["fig5"]) {
            emit(
                &args,
                "fig5",
                &scaling_factor_series(&r, "Fig 5: weak scaling factor (1 = ideal)", false),
            );
        }
        if selected(e, &["fig6"]) {
            emit(
                &args,
                "fig6",
                &breakdown_table(&r, "Fig 6: weak-scaling runtime breakdown"),
            );
        }
    }
    if selected(e, &["table2", "fig8", "fig9"]) {
        let _t = HostTimer::new("strong-scaling-family");
        let r = strong_scaling(args.gpus, args.scale, args.batches);
        if selected(e, &["table2"]) {
            emit(
                &args,
                "table2",
                &speedup_table(&r, "Table II: strong-scaling speedup (PGAS over baseline)"),
            );
            emit_json(
                &args,
                "BENCH_table2.json",
                &scaling_json(&r, "table2"),
                validate_scaling_json,
            );
        }
        if selected(e, &["fig8"]) {
            emit(
                &args,
                "fig8",
                &scaling_factor_series(&r, "Fig 8: strong scaling factor (ideal = #GPUs)", true),
            );
        }
        if selected(e, &["fig9"]) {
            emit(
                &args,
                "fig9",
                &breakdown_table(&r, "Fig 9: strong-scaling runtime breakdown"),
            );
        }
    }
    if selected(e, &["fig7"]) {
        let _t = HostTimer::new("fig7");
        let r = comm_volume_weak_2gpu(args.scale, fig_batches);
        emit(
            &args,
            "fig7",
            &comm_volume_series(&r, "Fig 7: comm volume over time (weak, 2 GPUs)", 400),
        );
    }
    if selected(e, &["fig10"]) {
        let _t = HostTimer::new("fig10");
        let r = comm_volume_strong_4gpu(args.scale, fig_batches);
        emit(
            &args,
            "fig10",
            &comm_volume_series(&r, "Fig 10: comm volume over time (strong, 4 GPUs)", 400),
        );
    }
    if selected(e, &["backward"]) {
        let _t = HostTimer::new("backward");
        let mut s = String::from("== EXT-1: EMB backward pass (gradient exchange) ==\n");
        s.push_str("gpus,baseline_ms,pgas_ms,speedup\n");
        for g in 2..=args.gpus {
            let p = backward_comparison(g, args.scale, args.batches);
            s.push_str(&format!(
                "{g},{:.3},{:.3},{:.2}\n",
                p.baseline.total.as_millis_f64(),
                p.pgas.total.as_millis_f64(),
                p.speedup()
            ));
        }
        emit(&args, "backward", &s);
    }
    if selected(e, &["multinode"]) {
        let _t = HostTimer::new("multinode");
        let mut s = String::from("== EXT-2: multi-node aggregator (IB link) ==\n");
        s.push_str("rows,span_us,naive_us,aggregated_us,naive_msgs,agg_msgs\n");
        for (rows, span_us) in [(10_000u64, 50u64), (10_000, 500), (100_000, 500)] {
            let r = multinode_aggregator(rows, Dur::from_us(span_us));
            s.push_str(&format!(
                "{rows},{span_us},{:.1},{:.1},{},{}\n",
                r.naive.as_micros_f64(),
                r.aggregated.as_micros_f64(),
                r.naive_messages,
                r.aggregated_messages
            ));
        }
        emit(&args, "multinode", &s);
    }
    if selected(e, &["ablation-msgsize"]) {
        let _t = HostTimer::new("ablation-msgsize");
        let mut s = String::from("== EXT-3: coalesced-payload ablation (PGAS, 2 GPUs) ==\n");
        s.push_str("max_payload_bytes,total_ms,header_overhead\n");
        for p in message_size_ablation(2, args.scale, args.batches) {
            s.push_str(&format!(
                "{},{:.3},{:.4}\n",
                p.max_payload,
                p.total.as_millis_f64(),
                p.header_overhead
            ));
        }
        emit(&args, "ablation-msgsize", &s);
    }
    if selected(e, &["ablation-sharding"]) {
        let _t = HostTimer::new("ablation-sharding");
        let a = sharding_ablation(args.gpus.max(2), args.scale, args.batches);
        let s = format!(
            "== EXT-4: table-wise vs row-wise sharding ==\n\
             scheme,partition_cpu_ms,h2d_ms,baseline_ms,pgas_ms,speedup\n\
             table_wise,{:.3},{:.3},{:.3},{:.3},{:.2}\n\
             row_wise,{:.3},{:.3},{:.3},{:.3},{:.2}\n",
            a.table_wise_cpu.as_millis_f64(),
            a.h2d.as_millis_f64(),
            a.table_wise.baseline.total.as_millis_f64(),
            a.table_wise.pgas.total.as_millis_f64(),
            a.table_wise.speedup(),
            a.row_wise_cpu.as_millis_f64(),
            a.h2d.as_millis_f64(),
            a.row_wise.baseline.total.as_millis_f64(),
            a.row_wise.pgas.total.as_millis_f64(),
            a.row_wise.speedup(),
        );
        emit(&args, "ablation-sharding", &s);
    }
    if selected(e, &["whatif"]) {
        let _t = HostTimer::new("whatif");
        let mut s = String::from("== EXT-6: beyond the testbed (weak scaling) ==\n");
        s.push_str("machine,baseline_ms,pgas_ms,speedup\n");
        for (name, p) in whatif_projection(8, args.scale, args.batches) {
            s.push_str(&format!(
                "{name},{:.3},{:.3},{:.2}\n",
                p.baseline.total.as_millis_f64(),
                p.pgas.total.as_millis_f64(),
                p.speedup()
            ));
        }
        emit(&args, "whatif", &s);
    }
    if selected(e, &["chaos"]) {
        let _t = HostTimer::new("chaos");
        let pts = if args.smoke {
            chaos_sweep(
                args.gpus.max(2),
                args.scale.max(128),
                args.batches.min(3),
                args.seed,
                &[0.0, 0.5, 1.0],
            )
        } else {
            chaos_sweep(
                args.gpus.max(2),
                args.scale,
                args.batches,
                args.seed,
                &[0.0, 0.1, 0.25, 0.5, 0.75, 1.0],
            )
        };
        emit(
            &args,
            "chaos",
            &chaos_table(
                &pts,
                &format!(
                    "EXT-7: fault-injection sweep, {} GPUs, seed {} (resilient PGAS vs baseline)",
                    args.gpus.max(2),
                    args.seed
                ),
            ),
        );
    }
    if selected(e, &["serve"]) {
        let _t = HostTimer::new("serve");
        let gpus = args.gpus.max(2);
        let sweep = if args.smoke {
            serve_load_sweep(gpus, args.scale.max(128), 2, args.seed, &[0.5, 1.5])
        } else {
            serve_load_sweep(
                gpus,
                args.scale,
                12,
                args.seed,
                &[0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5],
            )
        };
        emit(
            &args,
            "serve",
            &serve_table(
                &sweep,
                &format!(
                    "EXT-8: online-serving load sweep, {gpus} GPUs, seed {} (max QPS under p99 SLO)",
                    args.seed
                ),
            ),
        );
    }
    if selected(e, &["adapt"]) {
        let _t = HostTimer::new("adapt");
        let gpus = args.gpus.max(2);
        let sweep = if args.smoke {
            adapt_sweep(gpus, args.scale.max(256), 6, args.seed)
        } else {
            adapt_sweep(gpus, args.scale.max(16), 12, args.seed)
        };
        emit(
            &args,
            "adapt",
            &adapt_table(
                &sweep,
                &format!(
                    "EXT-13: adaptive resilience control plane vs static configs, {gpus} GPUs, seed {}",
                    args.seed
                ),
            ),
        );
        emit_json(&args, "BENCH_adapt.json", &adapt_json(&sweep), |j| {
            validate_adapt_json(j)
        });
    }
    if selected(e, &["pods"]) {
        let _t = HostTimer::new("pods");
        let r = if args.smoke {
            pods_sweep(&[(2, 2)], &[256], 1 << 20)
        } else {
            pods_sweep(
                &[(2, 4), (4, 4), (8, 4), (16, 4)],
                &[64, 256, 1024, 4096],
                1 << 20,
            )
        };
        emit(
            &args,
            "pods",
            &pods_table(
                &r,
                "EXT-11: pod-fabric sweep (hierarchical alltoall vs flat and gateway PGAS)",
            ),
        );
        emit_json(&args, "BENCH_pods.json", &pods_json(&r), |j| {
            validate_pods_json(j)
        });
    }
    if selected(e, &["pipeline"]) {
        let _t = HostTimer::new("pipeline");
        let r = if args.smoke {
            pipeline_sweep(
                &[(1, 2, args.scale.max(512)), (2, 2, args.scale.max(512))],
                args.batches.min(3),
                &[1],
            )
        } else {
            pipeline_sweep(
                &[
                    (1, 4, args.scale),
                    (2, 4, args.scale.max(8)),
                    (8, 4, args.scale.max(8)),
                ],
                args.batches.min(8),
                &[1, 2],
            )
        };
        emit(
            &args,
            "pipeline",
            &pipeline_table(
                &r,
                "EXT-15: executed pipeline engine (fused comm-interaction overlap + inter-batch software pipelining)",
            ),
        );
        emit_json(&args, "BENCH_pipeline.json", &pipeline_json(&r), |j| {
            validate_pipeline_json(j)
        });
    }
    if selected(e, &["blame"]) {
        let _t = HostTimer::new("blame");
        // Blame always runs at paper scale: the claim is about where paper-
        // scale batch time goes, and shrunk workloads are dominated by fixed
        // per-call overheads instead of wire/queue time. Smoke just trims the
        // batch count — the decomposition is deterministic per batch anyway.
        let r = if args.smoke {
            blame_sweep(1, 2)
        } else {
            blame_sweep(1, args.batches.min(8))
        };
        emit(
            &args,
            "blame",
            &blame_table(
                &r,
                "EXT-16: critical-path blame decomposition (causal span graph, baseline vs PGAS)",
            ),
        );
        emit_json(&args, "BENCH_blame.json", &blame_json(&r), |j| {
            validate_blame_json(j)
        });
        if let Some(dir) = &args.csv {
            let mut folded = String::new();
            for c in &r.cells {
                for line in c.folded.lines() {
                    folded.push_str(&format!("{};{};{line}\n", c.topology, c.backend));
                }
            }
            fs::create_dir_all(dir).expect("create out dir");
            fs::write(dir.join("blame_folded.txt"), folded).expect("write folded stacks");
        }
    }
    if selected(e, &["netutil"]) {
        let _t = HostTimer::new("netutil");
        let r = if args.smoke {
            netutil_sweep(2, args.scale.max(512), args.batches.min(2))
        } else {
            netutil_sweep(args.gpus.max(2), args.scale, fig_batches)
        };
        emit(
            &args,
            "netutil",
            &netutil_table(
                &r,
                &format!(
                    "EXT-10: link-utilization timelines, {} GPUs (baseline vs PGAS, weak config)",
                    r.gpus
                ),
                400,
            ),
        );
        emit_json(&args, "BENCH_netutil.json", &netutil_json(&r), |j| {
            validate_netutil_json(j)
        });
    }
    if selected(e, &["ablation-zipf"]) {
        let _t = HostTimer::new("ablation-zipf");
        let (u, z) = zipf_ablation(args.gpus.max(2), args.scale, args.batches);
        let s = format!(
            "== EXT-5: index-skew ablation (2 GPUs) ==\ndistribution,baseline_ms,pgas_ms,speedup\nuniform,{:.3},{:.3},{:.2}\nzipf(1.1),{:.3},{:.3},{:.2}\n",
            u.baseline.total.as_millis_f64(),
            u.pgas.total.as_millis_f64(),
            u.speedup(),
            z.baseline.total.as_millis_f64(),
            z.pgas.total.as_millis_f64(),
            z.speedup()
        );
        emit(&args, "ablation-zipf", &s);
    }
    if selected(e, &["skew"]) {
        let _t = HostTimer::new("skew");
        let gpus = args.gpus.max(2);
        let (scale, batches) = if args.smoke {
            (args.scale.max(512), args.batches.min(2))
        } else {
            (args.scale, args.batches)
        };
        let sweep = skew_sweep(gpus, scale, batches);
        emit(
            &args,
            "skew",
            &skew_table(
                &sweep,
                &format!("EXT-9: hot-row cache x index-skew sweep, {gpus} GPUs (weak config)"),
            ),
        );
        emit_json(&args, "BENCH_skew.json", &skew_json(&sweep), |j| {
            validate_skew_json(j)
        });
    }
    if selected(e, &["wallclock"]) {
        let _t = HostTimer::new("wallclock");
        let r = run_wallclock(args.smoke);
        let json = wallclock_json(&r);
        validate_wallclock_json(&json).expect("wallclock JSON must be well-formed");
        if let Some(ratio) = r.speedup_at_4("lookup_pool") {
            eprintln!("wallclock lookup_pool 4-thread self-speedup: {ratio:.2}x");
        }
        print!("{json}");
        if let Some(dir) = &args.csv {
            fs::create_dir_all(dir).expect("create out dir");
            fs::write(dir.join("BENCH_wallclock.json"), &json).expect("write wallclock json");
        }
    }
}
