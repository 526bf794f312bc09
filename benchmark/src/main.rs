//! The repo's benchmark. See `README.md` beside this package.
//!
//! Two clocks are kept apart throughout: *simulated* numbers (`sim.*`,
//! counts) are the product's output and must repeat exactly for a seed;
//! *host* numbers are what running the simulator costs. End-to-end metrics
//! are host cost plus model error, and come only from untraced runs.

mod host;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::{Measured, MetricDef, RunResult, END_TO_END, PER_LAYER};
use workloads::{Check, Ctx, SimOut, Workload};

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed repetitions of a time-boxed run.
const MIN_REPS: usize = 3;
/// A repetition that got less CPU than this share of its wall time was
/// pre-empted; it is re-run.
const MIN_CPU_SHARE: f64 = 0.9;
/// Most repetitions re-run per workload for pre-emption.
const MAX_DISCARDS: usize = 3;

const USAGE: &str = "\
usage: run.sh [all] [--seed S] [--reps R] [--smoke]      every workload, untraced then traced
       run.sh trace <workload> [--seed S] [--smoke]      one traced run
       run.sh --selfcheck [--seed S] [--reps R] [--smoke] the full set twice, compared
       run.sh --workload W --seed S --seconds T --trace 0|1   one run (the driver's form)
       run.sh manifest                                    print BENCHMARK.json";

#[derive(Clone, Debug)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    /// Time box of the measuring loop (ignored when `reps` is set).
    seconds: f64,
    /// Exact number of timed repetitions instead of a time box.
    reps: Option<usize>,
    trace: bool,
    smoke: bool,
}

enum Cmd {
    One,
    All,
    SelfCheck,
    Manifest,
}

fn parse(args: &[String]) -> Result<(Cmd, Opts), String> {
    let mut o = Opts {
        workload: None,
        seed: workloads::PAPER_SEED,
        seconds: f64::from(metrics::RUN_SECONDS),
        reps: None,
        trace: false,
        smoke: false,
    };
    let mut cmd = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{a} needs {what}"))
                .map(String::as_str)
        };
        match a.as_str() {
            "all" => cmd = Some(Cmd::All),
            "selfcheck" | "--selfcheck" => cmd = Some(Cmd::SelfCheck),
            "manifest" => cmd = Some(Cmd::Manifest),
            "trace" => {
                o.workload = Some(value("a workload")?.to_string());
                o.trace = true;
            }
            "--workload" => o.workload = Some(value("a workload")?.to_string()),
            "--seed" => {
                let v = value("an integer")?;
                o.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            "--reps" => {
                let v = value("a count")?;
                let r: usize = v.parse().map_err(|_| format!("bad --reps {v}"))?;
                o.reps = Some(r.max(1));
            }
            "--trace" => {
                o.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                }
            }
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &o.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; one of {:?}",
                workloads::NAMES
            ));
        }
    }
    if o.smoke {
        o.reps = Some(1);
    }
    let cmd = cmd.unwrap_or(if o.workload.is_some() {
        Cmd::One
    } else {
        Cmd::All
    });
    Ok((cmd, o))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match cmd {
        Cmd::Manifest => {
            print!("{}", metrics::manifest_json());
            true
        }
        Cmd::One => run_one(&opts, started),
        Cmd::All => run_all(&opts).is_some_and(|set| set.ok),
        Cmd::SelfCheck => self_check(&opts),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// One run of one workload (this process is the workload's process).
// ---------------------------------------------------------------------------

/// The timed repetitions of a run.
struct Timed {
    /// Host seconds of each repetition ([`host::HostClock`]).
    host: Vec<f64>,
    /// Wall seconds of each repetition, for the report.
    walls: Vec<f64>,
    outs: Vec<SimOut>,
    discarded: usize,
    /// Heap calls and bytes of the last repetition.
    alloc: (u64, u64),
}

/// Repeat `w`'s call sequence until `enough(reps, seconds so far)`.
fn timed_reps(w: &mut dyn Workload, enough: impl Fn(usize, f64) -> bool) -> Timed {
    let mut t = Timed {
        host: Vec::new(),
        walls: Vec::new(),
        outs: Vec::new(),
        discarded: 0,
        alloc: (0, 0),
    };
    let mut ctx = Ctx::plain();
    let begun = Instant::now();
    loop {
        let heap0 = host::alloc_totals();
        let clock = host::HostClock::start();
        w.rep(&mut ctx);
        let (host_s, wall) = clock.stop();
        let heap1 = host::alloc_totals();
        let out = ctx.take();
        if host_s < MIN_CPU_SHARE * wall && t.discarded < MAX_DISCARDS {
            t.discarded += 1;
            continue;
        }
        t.host.push(host_s);
        t.walls.push(wall);
        t.outs.push(out);
        t.alloc = (heap1.0 - heap0.0, heap1.1 - heap0.1);
        if enough(t.host.len(), begun.elapsed().as_secs_f64()) {
            return t;
        }
    }
}

/// The digest every repetition must share, as a check.
fn digest_check(outs: &[SimOut], traced: Option<&SimOut>) -> Check {
    let all: Vec<u32> = outs
        .iter()
        .chain(traced)
        .map(|o| o.digest.value())
        .collect();
    Check {
        name: match traced {
            Some(_) => "sim.digest32 equal across repetitions and with observers on".to_string(),
            None => "sim.digest32 equal across repetitions".to_string(),
        },
        ok: all.windows(2).all(|w| w[0] == w[1]),
        detail: format!("{} repetitions, digest {}", all.len(), all[0]),
    }
}

fn finish(
    defs: &[MetricDef],
    values: &[(&str, f64)],
    outs: &[&SimOut],
    checks: &[Check],
) -> RunResult {
    let metrics = defs
        .iter()
        .map(|d| {
            let value = values.iter().find(|v| v.0 == d.name).map_or(0.0, |v| v.1);
            println!("metric {} {} {}", d.name, metrics::json_num(value), d.unit);
            Measured {
                name: d.name.to_string(),
                value,
                unit: d.unit.to_string(),
            }
        })
        .collect();
    for c in checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("check {verdict}: {} {}", c.name, c.detail);
    }
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    RunResult {
        correct: failed_checks == 0,
        attempted: outs.iter().map(|o| o.attempted).sum::<u64>() + checks.len() as u64,
        failed: outs.iter().map(|o| o.failed).sum::<u64>() + failed_checks,
        metrics,
    }
}

fn run_one(o: &Opts, started: Instant) -> bool {
    // Load is generated by this one process at pool width 1: the box has two
    // cores, and a second worker would time the scheduler, not the code.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the in-tree pool builder is infallible");
    let result = pool.install(|| {
        if o.trace {
            run_traced(o)
        } else {
            run_untraced(o, started)
        }
    });
    println!("{}", result.to_json_line());
    result.correct
}

fn build(o: &Opts) -> Box<dyn Workload> {
    let name = o.workload.as_deref().expect("run_one needs a workload");
    workloads::build(name, o.seed, o.smoke).expect("workload names are validated at parse time")
}

fn run_untraced(o: &Opts, started: Instant) -> RunResult {
    // Set-up, several times over: configs, machines-to-be, the lazily built
    // pool and arenas, and one warm-up repetition. The first sample starts
    // at process start.
    let mut setups = Vec::new();
    let mut w = None;
    for k in 0..SETUPS {
        drop(w.take());
        let clock = if k == 0 {
            host::HostClock::at_process_start(started)
        } else {
            host::HostClock::start()
        };
        let mut fresh = build(o);
        fresh.rep(&mut Ctx::plain());
        setups.push(clock.stop().0);
        w = Some(fresh);
    }
    let mut w = w.expect("SETUPS >= 1");

    let timed = timed_reps(w.as_mut(), |reps, secs| match o.reps {
        Some(r) => reps >= r,
        None => reps >= MIN_REPS && secs >= o.seconds,
    });
    // Before the checks: reference implementations are not the workload.
    let peak_rss = host::peak_rss_mb().unwrap_or(0.0);

    let mut checks = vec![digest_check(&timed.outs, None)];
    checks.extend(w.checks());
    let paper_err = workloads::paper_error_pct(o.seed, o.smoke);

    let (q1, host_s, q3) = stats::quartiles(&timed.host);
    println!(
        "info host_s is the median of {} repetitions: min {:.4} q1 {q1:.4} q3 {q3:.4} max {:.4} s of host CPU; median wall {:.4} s; {} discarded as pre-empted",
        timed.host.len(),
        timed.host.iter().copied().fold(f64::INFINITY, f64::min),
        timed.host.iter().copied().fold(0.0, f64::max),
        stats::median(&timed.walls),
        timed.discarded,
    );
    println!("info repetitions, host s: {:.4?}", timed.host);
    println!(
        "info setup_s is the median of {SETUPS} set-ups: {setups:.4?} s; sim.digest32 {}",
        timed.outs[0].digest.value()
    );
    let values = [
        ("host_s", host_s),
        ("peak_rss_mb", peak_rss),
        ("setup_s", stats::median(&setups)),
        ("paper_err_pct", paper_err),
    ];
    let outs: Vec<&SimOut> = timed.outs.iter().collect();
    finish(END_TO_END, &values, &outs, &checks)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn run_traced(o: &Opts) -> RunResult {
    let name = o.workload.as_deref().expect("run_one needs a workload");
    let mut w = build(o);
    w.rep(&mut Ctx::plain());

    // A few untraced repetitions in this same process give the traced one
    // its baseline (overhead, digest) and the host.* context figures.
    let timed = timed_reps(w.as_mut(), |reps, secs| match o.reps {
        Some(r) => reps >= r.min(MIN_REPS),
        None => reps >= MIN_REPS && secs >= o.seconds / 4.0,
    });
    let cpu_s = host::HostClock::at_process_start(Instant::now()).stop().0;

    let mut ctx = Ctx::traced();
    ctx.rec.set_rep(timed.host.len() as u32);
    let clock = host::HostClock::start();
    ctx.rec.enter(&format!("{name} repetition"));
    w.rep(&mut ctx);
    ctx.rec.exit();
    let traced_host_s = clock.stop().0;
    let traced = ctx.take();

    let mut checks = vec![digest_check(&timed.outs, Some(&traced))];
    checks.extend(w.checks());
    let extras = w.sim_extras();

    let loop_s = if o.smoke {
        0.01
    } else {
        (o.seconds / 40.0).clamp(0.05, 0.5)
    };
    let costs = layers::measure(layers::Budget {
        loop_s,
        seed: o.seed,
        smoke: o.smoke,
    });

    let doc = spans::to_chrome_json(name, ctx.rec.spans());
    let path = out_dir().join(format!("trace_{name}.json"));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &doc));
    checks.push(Check {
        name: format!("span file {}", path.display()),
        ok: written.is_ok() && telemetry::validate_json_doc(&doc, &["\"traceEvents\""]).is_ok(),
        detail: format!("{} spans", ctx.rec.spans().len()),
    });
    for (call, own_ns) in spans::self_time_by_name(ctx.rec.spans()) {
        println!("info self-time {:>10.3} ms  {call}", own_ns as f64 / 1e6);
    }

    let cost = |name: &str| costs.iter().find(|c| c.0 == name).map_or(0.0, |c| c.1);
    let host_s = stats::median(&timed.host);
    let first = &timed.outs[0];
    // What the wire path would explain of host_s if every send cost its
    // micro-loop figure: sends at the unit cost of this workload's fabric
    // and observer state, plus what a put adds on top of its send.
    let send_unit = match name {
        "pod_observed" => "gpusim.send_observed_ns",
        "pod_exchange" => "gpusim.send_inter_ns",
        _ => "gpusim.send_intra_ns",
    };
    let put_extra = (cost("pgas-rt.put_ns") - cost("gpusim.send_intra_ns")).max(0.0);
    let explained_s = (traced.counts.sends as f64 * cost(send_unit)
        + traced.counts.puts as f64 * put_extra)
        / 1e9;
    let per_msg = |v: f64| {
        if first.wire_msgs == 0 {
            0.0
        } else {
            v / first.wire_msgs as f64
        }
    };

    let mut values: Vec<(&str, f64)> = vec![
        ("host.cpu_s", cpu_s),
        (
            "host.min_s",
            timed.host.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("host.iqr_pct", stats::iqr_pct(&timed.host)),
        ("host.reps", timed.host.len() as f64),
        ("host.reps_discarded", timed.discarded as f64),
        ("host.ns_per_wire_msg", per_msg(host_s * 1e9)),
        (
            "host.unattributed_pct",
            100.0 * (1.0 - explained_s / host_s),
        ),
        ("alloc.calls", timed.alloc.0 as f64),
        ("alloc.bytes", timed.alloc.1 as f64),
        ("trace.overhead_pct", 100.0 * (traced_host_s / host_s - 1.0)),
        ("sim.digest32", f64::from(first.digest.value())),
        ("sim.total_ms", first.total_ns as f64 / 1e6),
        (
            "sim.speedup",
            if first.pgas_ns == 0 {
                0.0
            } else {
                first.base_ns as f64 / first.pgas_ns as f64
            },
        ),
        ("sim.wire_msgs", first.wire_msgs as f64),
        ("sim.payload_mb", first.payload_bytes as f64 / 1e6),
        ("gpusim.sends", traced.counts.sends as f64),
        ("gpusim.kernels", traced.counts.kernels as f64),
        ("pgas-rt.puts", traced.counts.puts as f64),
        ("pgas-rt.flushes", traced.counts.flushes as f64),
        ("simccl.calls", traced.counts.ccl_calls as f64),
    ];
    values.extend(extras);
    values.extend(costs.iter().copied());
    let absent: Vec<&str> = PER_LAYER
        .iter()
        .map(|d| d.name)
        .filter(|n| !values.iter().any(|v| v.0 == *n))
        .collect();
    if !absent.is_empty() {
        println!(
            "note not produced by {name}, reported as 0: {}",
            absent.join(" ")
        );
    }
    finish(PER_LAYER, &values, &[first, &traced], &checks)
}

// ---------------------------------------------------------------------------
// The full set: one child process per workload and mode.
// ---------------------------------------------------------------------------

/// Results of one pass over every workload.
struct ResultSet {
    /// Per workload: untraced and traced result.
    runs: Vec<(&'static str, RunResult, RunResult)>,
    ok: bool,
}

/// Run this binary as a child for one workload, echoing its output.
fn child(o: &Opts, name: &str, trace: bool) -> Option<RunResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &o.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    match o.reps {
        Some(r) => cmd.args(["--reps", &r.to_string()]),
        None => cmd.args(["--seconds", &o.seconds.to_string()]),
    };
    if o.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd.spawn().ok()?;
    let mut last = String::new();
    for line in BufReader::new(proc.stdout.take()?).lines() {
        let line = line.ok()?;
        if !line.starts_with('{') {
            println!("  {line}");
        }
        last = line;
    }
    // A failed check makes the child exit non-zero after printing its
    // result; the result line carries the verdict either way.
    let status = proc.wait().ok()?;
    let result = RunResult::parse(&last);
    if result.is_none() {
        eprintln!("{name}: no result line (exit {status})");
    }
    result
}

fn run_all(o: &Opts) -> Option<ResultSet> {
    let mut o = o.clone();
    if o.reps.is_none() {
        o.reps = Some(7);
    }
    let begun = Instant::now();
    let mut set = ResultSet {
        runs: Vec::new(),
        ok: true,
    };
    for name in workloads::NAMES {
        println!("== {name}: untraced (end-to-end metrics)");
        let untraced = child(&o, name, false)?;
        println!("== {name}: traced (per-layer metrics)");
        let traced = child(&o, name, true)?;
        set.ok &= untraced.correct && traced.correct;
        set.runs.push((name, untraced, traced));
    }

    let mut doc = format!(
        "{{\"seed\": {}, \"smoke\": {}, \"workloads\": [\n",
        o.seed, o.smoke
    );
    for (i, (name, untraced, traced)) in set.runs.iter().enumerate() {
        let sep = if i + 1 < set.runs.len() { "," } else { "" };
        doc.push_str(&format!(
            "{{\"name\": \"{name}\", \"end_to_end\": {}, \"per_layer\": {}}}{sep}\n",
            untraced.to_json_line(),
            traced.to_json_line()
        ));
    }
    doc.push_str("]}\n");
    let path = out_dir().join("benchmark.json");
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &doc));
    set.ok &= written.is_ok() && telemetry::validate_json_doc(&doc, &["\"workloads\""]).is_ok();

    println!(
        "== summary (seed {}, {:.0} s)",
        o.seed,
        begun.elapsed().as_secs_f64()
    );
    for (name, untraced, traced) in &set.runs {
        let v = |r: &RunResult, m: &str| {
            r.metrics
                .iter()
                .find(|x| x.name == m)
                .map_or(0.0, |x| x.value)
        };
        println!(
            "{name:<19} host_s {:>8.4}  setup_s {:>7.4}  peak_rss_mb {:>7.1}  paper_err_pct {:>7.4}  sim.digest32 {:>10}  failed {} of {} operations  {}",
            v(untraced, "host_s"),
            v(untraced, "setup_s"),
            v(untraced, "peak_rss_mb"),
            v(untraced, "paper_err_pct"),
            v(traced, "sim.digest32"),
            untraced.failed + traced.failed,
            untraced.attempted + traced.attempted,
            if untraced.correct && traced.correct { "correct" } else { "INCORRECT" },
        );
    }
    println!("wrote {}", path.display());
    Some(set)
}

/// Run the full set twice and hold the second against the first with the
/// benchmark's own bounds.
fn self_check(o: &Opts) -> bool {
    println!("==== selfcheck: first set");
    let Some(a) = run_all(o) else { return false };
    println!("==== selfcheck: second set");
    let Some(b) = run_all(o) else { return false };
    let mut ok = a.ok && b.ok;
    for ((name, ua, ta), (_, ub, tb)) in a.runs.iter().zip(&b.runs) {
        let pairs = END_TO_END
            .iter()
            .zip(ua.metrics.iter().zip(&ub.metrics))
            .chain(PER_LAYER.iter().zip(ta.metrics.iter().zip(&tb.metrics)));
        for (def, (x, y)) in pairs {
            let verdict = if def.exact {
                (x.value == y.value).then_some("identical")
            } else if let Some(bound) = def.bound {
                let worse = if def.higher_is_better {
                    (x.value - y.value) / x.value
                } else {
                    (y.value - x.value) / x.value
                };
                (worse.abs() <= bound).then_some("within bound")
            } else {
                continue; // per-layer host figures have no bound
            };
            println!(
                "selfcheck {name} {} {} vs {} {}: {}",
                def.name,
                metrics::json_num(x.value),
                metrics::json_num(y.value),
                def.unit,
                verdict.unwrap_or("DIFFERS")
            );
            ok &= verdict.is_some();
        }
    }
    println!("==== selfcheck {}", if ok { "passed" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_form_parses() {
        let (cmd, o) = parse(&args(
            "--workload pod_exchange --seed 7 --seconds 8 --trace 1",
        ))
        .expect("valid");
        assert!(matches!(cmd, Cmd::One));
        assert_eq!(o.workload.as_deref(), Some("pod_exchange"));
        assert_eq!((o.seed, o.seconds, o.trace, o.reps), (7, 8.0, true, None));
    }

    #[test]
    fn defaults_and_rejections() {
        let (cmd, o) = parse(&[]).expect("valid");
        assert!(matches!(cmd, Cmd::All));
        assert_eq!(o.seed, workloads::PAPER_SEED);
        let (_, o) = parse(&args("trace dgx_paper --smoke")).expect("valid");
        assert!(o.trace && o.smoke && o.reps == Some(1));
        assert!(matches!(
            parse(&args("--selfcheck")).expect("valid").0,
            Cmd::SelfCheck
        ));
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--frobnicate",
            "--seconds -1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_workload_passes_its_checks_in_smoke_mode_and_reseeds() {
        for name in workloads::NAMES {
            let digest = |seed: u64| {
                let mut w = workloads::build(name, seed, true).expect("known workload");
                let mut ctx = Ctx::plain();
                w.rep(&mut ctx);
                let plain = ctx.take();
                let mut ctx = Ctx::traced();
                w.rep(&mut ctx);
                let traced = ctx.take();
                assert!(
                    digest_check(std::slice::from_ref(&plain), Some(&traced)).ok,
                    "{name}"
                );
                assert_eq!(plain.failed, 0, "{name}");
                assert!(plain.attempted > 0, "{name}");
                for c in w.checks() {
                    assert!(c.ok, "{name}: {} {}", c.name, c.detail);
                }
                if name != "pod_observed" {
                    assert_eq!(plain.counts, workloads::Counts::default(), "{name}");
                }
                assert!(traced.counts.sends > 0, "{name}");
                plain.digest
            };
            let (a, b) = (digest(workloads::PAPER_SEED), digest(12345));
            // The pods traffic is fixed by shape, not drawn from a generator.
            assert_eq!(a != b, !name.starts_with("pod_"), "{name}");
        }
    }

    #[test]
    fn emitted_documents_validate() {
        let o = Opts {
            workload: Some("pod_exchange".into()),
            seed: 3,
            seconds: 0.0,
            reps: Some(1),
            trace: false,
            smoke: true,
        };
        let untraced = run_untraced(&o, Instant::now());
        assert!(untraced.correct);
        assert_eq!(untraced.metrics.len(), END_TO_END.len());
        assert!(untraced.metrics.iter().all(|m| m.value > 0.0));
        let traced = run_traced(&o);
        assert!(traced.correct);
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        for r in [&untraced, &traced] {
            telemetry::validate_json_doc(&r.to_json_line(), &["\"metrics\""]).expect("valid line");
        }
        let doc = std::fs::read_to_string(out_dir().join("trace_pod_exchange.json"))
            .expect("traced run writes its span file");
        telemetry::validate_json_doc(&doc, &["\"traceEvents\"", "\"self_us\""])
            .expect("valid span file");
    }
}
