//! `reproduce` — regenerate every table and figure of the paper.
//!
//! The experiments are the rows of [`bench_harness::EXPERIMENTS`]:
//! `reproduce --help` prints each name with its description, and
//! [`bench_harness::Params`] documents the flags. Every artifact goes through
//! [`bench_harness::Doc::publish`]: a false claim exits 1 naming the claim
//! and writes nothing; a usage error exits 2.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use bench_harness::{Params, EXPERIMENTS};

const USAGE: &str = "usage: reproduce <experiment> [--scale K] [--batches N] [--gpus G] \
                     [--seed S] [--smoke] [--out-dir DIR]";

/// What the command line asks for: the experiment, its parameters and the
/// output directory; `None` is `--help`.
type Request = Option<(String, Params, Option<PathBuf>)>;

fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} {v}: not a non-negative integer"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Request, String> {
    let (mut experiment, mut params, mut out_dir) = ("all".to_string(), Params::default(), None);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--scale" => params.scale = number(&a, value()?)?,
            "--batches" => params.batches = number(&a, value()?)?,
            "--gpus" => params.gpus = number(&a, value()?)?,
            "--seed" => params.seed = number(&a, value()?)?,
            "--smoke" => params.smoke = true,
            "--csv" | "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Ok(None),
            other if !other.starts_with('-') => experiment = other.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mut names = vec!["all"];
    names.extend(EXPERIMENTS.iter().flat_map(|e| e.names));
    if !names.contains(&experiment.as_str()) {
        let names = names.join(", ");
        return Err(format!(
            "unknown experiment {experiment:?}; valid names: {names}"
        ));
    }
    Ok(Some((experiment, params, out_dir)))
}

fn print_help() {
    println!("{USAGE}\n\nexperiments:");
    for e in EXPERIMENTS {
        let standalone = if e.in_all { "" } else { " [not part of `all`]" };
        println!("  {:<26}{}{standalone}", e.names.join(" | "), e.about);
    }
    println!("  {:<26}every experiment above not marked otherwise", "all");
}

fn main() {
    let (experiment, params, out_dir) = match parse_args(std::env::args().skip(1)) {
        Ok(Some(request)) => request,
        Ok(None) => return print_help(),
        Err(e) => {
            eprintln!("reproduce: {e}\n{USAGE}");
            exit(2);
        }
    };
    for e in EXPERIMENTS {
        let wanted = |name: &str| name == experiment || (e.in_all && experiment == "all");
        if !e.names.iter().any(|n| wanted(n)) {
            continue;
        }
        let start = Instant::now();
        for doc in (e.run)(&params).iter().filter(|d| wanted(d.name)) {
            if let Err(err) = doc.publish(out_dir.as_deref()) {
                eprintln!("reproduce: {err}");
                exit(1);
            }
        }
        // Stderr, not stdout: the CSV bodies on stdout must stay byte-identical
        // run to run, and host time is the one thing that never is.
        let secs = start.elapsed().as_secs_f64();
        eprintln!("host-time {}: {secs:.3}s", e.names.join("+"));
        // An experiment's memoized plans die with it: `pods` and `blame`
        // peak near a gigabyte and should find the heap as empty as ever.
        emb_serve::forget_memoized();
    }
}
