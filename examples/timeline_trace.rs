//! Export Chrome-trace timelines of one batch under each backend — the
//! visual version of the paper's Figure 7: open the two JSON files in
//! `chrome://tracing` or https://ui.perfetto.dev and compare the link rows.
//!
//! ```sh
//! cargo run --release --example timeline_trace -- [--out-dir DIR]
//! ```
//!
//! Traces land in `DIR` (default `results/`). With telemetry enabled the
//! export also carries counter tracks (per-link utilization and queue depth
//! sampled per traffic bucket) and flow arrows tying each remote PGAS put to
//! the pooled write it lands in. The backend traces add `blame.bN` lanes:
//! each batch's extracted critical path as one span per segment, named by
//! its blame category — read them against the kernel/link rows above to see
//! exactly which resource the batch was waiting on at every instant.

use std::fs;
use std::path::PathBuf;

use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::retrieval::backend::{Backend, ExecMode};
use pgas_embedding::retrieval::EmbLayerConfig;

fn parse_out_dir() -> PathBuf {
    let mut out = PathBuf::from("results");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out-dir" => out = PathBuf::from(it.next().expect("--out-dir DIR")),
            "--help" | "-h" => {
                println!("usage: timeline_trace [--out-dir DIR]   (default: results/)");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    out
}

fn main() {
    let out_dir = parse_out_dir();
    fs::create_dir_all(&out_dir).expect("create out dir");

    let mut cfg = EmbLayerConfig::paper_weak_scaling(2).scaled_down(32);
    cfg.n_batches = 1;

    let mut m = Machine::new(MachineConfig::dgx_v100(2));
    m.enable_trace();
    m.enable_telemetry();
    m.enable_blame();
    Backend::baseline().run(&mut m, &cfg, ExecMode::Timing);
    m.trace_counter_tracks();
    m.blame_trace_lanes();
    let baseline = m.trace().unwrap();
    let baseline_path = out_dir.join("trace_baseline.json");
    let json = baseline.to_chrome_json();
    pgas_embedding::telemetry::validate_json_doc(&json, &["ph", "pid", "blame.b0"])
        .expect("baseline trace must be well-formed with blame lanes");
    fs::write(&baseline_path, json).unwrap();
    println!(
        "{}: {} spans, {} counter samples, horizon {}",
        baseline_path.display(),
        baseline.len(),
        baseline.counters().len(),
        baseline.horizon()
    );

    let mut m = Machine::new(MachineConfig::dgx_v100(2));
    m.enable_trace();
    m.enable_telemetry();
    m.enable_blame();
    Backend::pgas().run(&mut m, &cfg, ExecMode::Timing);
    m.trace_counter_tracks();
    m.blame_trace_lanes();
    let pgas = m.trace().unwrap();
    let pgas_path = out_dir.join("trace_pgas.json");
    let json = pgas.to_chrome_json();
    pgas_embedding::telemetry::validate_json_doc(&json, &["ph", "pid", "blame.b0"])
        .expect("pgas trace must be well-formed with blame lanes");
    fs::write(&pgas_path, json).unwrap();
    println!(
        "{}: {} spans, {} counter samples, {} flow arrows, horizon {}",
        pgas_path.display(),
        pgas.len(),
        pgas.counters().len(),
        pgas.flows().len(),
        pgas.horizon()
    );

    // The executed pipeline engine (EXT-15): same workload through the
    // fused + software-pipelined schedule. The `gpu{d}.s0` lanes carry the
    // per-device head streams — `top_mlp` then the chunked persistent
    // `interact`/`bottom_mlp` kernel, with gaps where chunks wait on
    // arrivals (the pipeline bubbles); the default-stream lanes underneath
    // keep running the next batch's EMB kernels.
    let mut dcfg = pgas_embedding::dlrm::DlrmConfig::tiny(2);
    dcfg.emb = cfg.clone();
    dcfg.emb.n_batches = 2;
    let model = pgas_embedding::dlrm::Dlrm::new(dcfg);
    let mut m = Machine::new(MachineConfig::dgx_v100(2));
    m.enable_trace();
    m.enable_telemetry();
    pgas_embedding::dlrm::PipelineEngine::new(&model).run(
        &mut m,
        &Backend::pgas(),
        ExecMode::Timing,
    );
    m.trace_counter_tracks();
    let pipeline = m.trace().unwrap();
    let pipeline_path = out_dir.join("trace_pipeline.json");
    let json = pipeline.to_chrome_json();
    pgas_embedding::telemetry::validate_json_doc(&json, &["ph", "pid"])
        .expect("pipeline trace must be well-formed");
    fs::write(&pipeline_path, json).unwrap();
    println!(
        "{}: {} spans, {} counter samples, {} flow arrows, horizon {}",
        pipeline_path.display(),
        pipeline.len(),
        pipeline.counters().len(),
        pipeline.flows().len(),
        pipeline.horizon()
    );

    println!("\nOpen them in chrome://tracing — the baseline's link rows are");
    println!("empty until its kernels end; the PGAS link rows run underneath");
    println!("the kernels, which is the whole paper in one picture. The");
    println!("pipeline trace adds the gpuN.s0 head-stream lanes: interaction");
    println!("chunks firing mid-EMB on PGAS arrivals, batches overlapping.");
    println!("The blame.bN lane in the backend traces paints the extracted");
    println!("critical path: baseline's is striped with queue_comm/wire");
    println!("segments after the lookup kernels; PGAS's is gather_pool");
    println!("nearly wall to wall.");
}
