//! The metric catalogue: every name the benchmark emits, with its unit,
//! direction and (end-to-end only) regression bound, and the run-result
//! line the driver reads.
//!
//! `/BENCHMARK.json` is this catalogue rendered by [`manifest_json`]; a unit
//! test keeps the two in step.

use crate::spans::escape;

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as emitted (`<crate>.<metric>` for per-layer metrics).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when larger is better. For `sim.*` values and counts the
    /// direction is nominal: their goodness is fidelity, and a host-speed
    /// change must leave them identical.
    pub higher_is_better: bool,
    /// End-to-end: share of the parent's median the metric may worsen by.
    pub bound: Option<f64>,
    /// Repeats exactly for a fixed seed (`--selfcheck` demands identity).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
        exact,
    }
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
        exact: false,
    }
}

const fn host_up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        higher_is_better: true,
        ..host(name, unit)
    }
}

const fn sim(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: None,
        exact: true,
    }
}

/// What a user of the simulator sees: host cost and model error.
///
/// The bounds are what this shared 2-core box can resolve, not what one
/// would wish for: ten runs of one workload spread (interquartile, as a
/// share of the median) 2-8 % in `host_s` on an ordinary quarter-hour and
/// past 15 % when a neighbour wakes up, so 10 % would reject the benchmark
/// against itself.
pub const END_TO_END: &[MetricDef] = &[
    e2e("host_s", "s", 0.25, false),
    e2e("peak_rss_mb", "MB", 0.15, false),
    e2e("setup_s", "s", 0.25, false),
    // Exact for one seed; across the driver's ten seeds it wanders by about
    // one percent, so the bound cannot be the 0 an exact metric deserves.
    e2e("paper_err_pct", "%", 0.05, true),
];

/// Single-layer unit costs (host clock), then exact simulated outputs and
/// counts. Order is the order of the README's table.
pub const PER_LAYER: &[MetricDef] = &[
    host("desim.acquire_ns", "ns"),
    host("desim.queue_ns", "ns"),
    host("desim.series_add_ns", "ns"),
    host("desim.series_span64_ns", "ns"),
    host("gpusim.send_intra_ns", "ns"),
    host("gpusim.send_inter_ns", "ns"),
    host("gpusim.send_msg256_ns", "ns"),
    host("gpusim.kernel_block_ns", "ns"),
    host("gpusim.try_send_fault_ns", "ns"),
    host("gpusim.send_observed_ns", "ns"),
    host("telemetry.span_ns", "ns"),
    host("telemetry.span1k_ns", "ns"),
    host("telemetry.blame_record_ns", "ns"),
    host("telemetry.observer_cost_x", "x"),
    host("pgas-rt.put_ns", "ns"),
    host("pgas-rt.put_row_ns", "ns"),
    host("pgas-rt.atomic_add_ns", "ns"),
    host("pgas-rt.gateway_row_ns", "ns"),
    host("pgas-rt.coalesce_ns", "ns"),
    host("simccl.a2a_dgx_us", "us"),
    host("simccl.a2a_direct_us", "us"),
    host("simccl.a2a_hier_us", "us"),
    host("emb-retrieval.prepare_s", "s"),
    host("emb-retrieval.batch_baseline_us", "us"),
    host("emb-retrieval.batch_pgas_us", "us"),
    host("emb-retrieval.batch_gateway_us", "us"),
    host("emb-retrieval.batch_resilient_us", "us"),
    host("emb-retrieval.backward_baseline_us", "us"),
    host("emb-retrieval.backward_pgas_us", "us"),
    host("emb-retrieval.materialize_s", "s"),
    host("emb-retrieval.pool_row_ns", "ns"),
    host("emb-retrieval.scatter_heap_s", "s"),
    host("emb-retrieval.exchange_unpack_s", "s"),
    host_up("simtensor.matmul_gflops", "GFLOP/s"),
    host("dlrm-model.forward_ms", "ms"),
    host_up("rayon.w2_speedup", "x"),
    host("dlrm-model.engine_batch_us", "us"),
    host("dlrm-model.serial_batch_us", "us"),
    host("emb-serve.generate_ns", "ns"),
    host("emb-serve.request_ns", "ns"),
    host("emb-serve.loop_ns", "ns"),
    host("host.cpu_s", "s"),
    host("host.min_s", "s"),
    host("host.iqr_pct", "%"),
    host_up("host.reps", "count"),
    host("host.reps_discarded", "count"),
    host("host.ns_per_wire_msg", "ns"),
    host("host.unattributed_pct", "%"),
    host("alloc.calls", "count"),
    host("alloc.bytes", "B"),
    host("trace.overhead_pct", "%"),
    sim("sim.digest32", "id", false),
    sim("sim.total_ms", "ms", false),
    sim("sim.speedup", "x", true),
    sim("sim.wire_msgs", "count", false),
    sim("sim.payload_mb", "MB", false),
    sim("gpusim.sends", "count", false),
    sim("gpusim.kernels", "count", false),
    sim("pgas-rt.puts", "count", false),
    sim("pgas-rt.flushes", "count", false),
    sim("simccl.calls", "count", false),
    sim("sim.p99_ms_pgas_1x", "ms", false),
    sim("sim.p99_ms_base_1x", "ms", false),
    sim("sim.shed_share_base_1p5x", "x", false),
    sim("sim.max_qps_pgas", "1/s", true),
    sim("sim.max_qps_base", "1/s", true),
    sim("sim.degraded_share", "x", false),
];

/// Why each workload exists, for `BENCHMARK.json` and the README.
pub const WORKLOAD_WHY: [(&str, &str); 7] = [
    (
        "dgx_paper",
        "the paper's own runs: planning, both executors and the intra-node fabric on dgx_v100(4), weak and strong configs",
    ),
    (
        "pod_exchange",
        "pods traffic on 8x4 and 16x4 pods with observers off: gpusim NIC path, pgas-rt staging and simccl; executors and serve do nothing",
    ),
    (
        "pod_observed",
        "the 8x4/256B pod cell with telemetry and blame on, as reproduce runs it: same calls, the observer path pod_exchange bypasses",
    ),
    (
        "serve_open_loop",
        "open-loop Poisson serving at 1.0x and 1.5x capacity: emb-serve generation, batching and latency accounting dominate, the DES is small",
    ),
    (
        "functional_kernels",
        "Functional mode plus the DLRM head: real CPU gather/pool/scatter, simtensor and the rayon pool; the simulator does little",
    ),
    (
        "backward_atomics",
        "the write path beside the forward's reads: atomic_add_rows_nbi pushes against collective rounds, where planning weighs most",
    ),
    (
        "pipeline_engine",
        "executed DLRM pipeline: gpusim streams/chunks and the dlrm engine; shares only the EMB executors with dgx_paper",
    ),
];

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u32 = 8;

/// A measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// The last line of a run's standard output.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (batches, exchanges, requests, checks).
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Measured>,
}

/// A float as JSON: shortest round-trip decimal, never NaN or infinite.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl RunResult {
    /// The one-line JSON object the driver's contract specifies.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    json_num(m.value),
                    escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a line written by [`RunResult::to_json_line`] (the format is
    /// the benchmark's own, so a scanner suffices).
    pub fn parse(line: &str) -> Option<RunResult> {
        let field = |key: &str| {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let correct = field("correct")?.parse().ok()?;
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        let body = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        for part in body.split("\"}").filter(|p| p.contains("{\"value\": ")) {
            let name_end = part.find("\": {\"value\": ")?;
            let name = part[..name_end].rsplit('"').next()?;
            let rest = &part[name_end + 13..];
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            metrics.push(Measured {
                name: name.to_string(),
                value: value.parse().ok()?,
                unit: unit.to_string(),
            });
        }
        Some(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// `/BENCHMARK.json`, rendered from the catalogue.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOAD_WHY.iter().enumerate() {
        let sep = if i + 1 < WORKLOAD_WHY.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{}\"}}{sep}\n",
            escape(why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let better = |m: &MetricDef| {
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            better(m),
            json_num(m.bound.expect("end-to-end metrics carry a bound")),
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            better(m),
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_obeys_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOAD_WHY.iter().map(|w| w.0))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "bad name in {names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOAD_WHY
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert_eq!(
            WORKLOAD_WHY.map(|w| w.0),
            crate::workloads::NAMES,
            "catalogue and workloads disagree"
        );
    }

    #[test]
    fn manifest_is_valid_json_and_matches_the_committed_file() {
        let doc = manifest_json();
        telemetry::validate_json_doc(
            &doc,
            &[
                "\"command\"",
                "\"paths\"",
                "\"run_seconds\"",
                "\"workloads\"",
                "\"end_to_end\"",
                "\"per_layer\"",
            ],
        )
        .expect("valid manifest");
        assert!(doc.len() < 64 << 10);
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(committed).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk, doc,
            "BENCHMARK.json is stale: regenerate with `benchmark/run.sh manifest`"
        );
    }

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Measured {
                    name: "host_s".into(),
                    value: 1.203_456_789,
                    unit: "s".into(),
                },
                Measured {
                    name: "pgas-rt.put_ns".into(),
                    value: 87.5,
                    unit: "ns".into(),
                },
                Measured {
                    name: "sim.digest32".into(),
                    value: 4_000_000_123.0,
                    unit: "id".into(),
                },
            ],
        };
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        telemetry::validate_json_doc(
            &line,
            &["\"correct\"", "\"attempted\"", "\"failed\"", "\"metrics\""],
        )
        .expect("valid result line");
        assert_eq!(RunResult::parse(&line), Some(r));
        assert!(json_num(f64::NAN) == "0" && json_num(2.5) == "2.5");
        let empty = RunResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![],
        };
        assert_eq!(RunResult::parse(&empty.to_json_line()), Some(empty));
    }
}
