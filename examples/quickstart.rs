//! Quickstart: run the embedding-retrieval forward pass with both
//! communication backends on a simulated 2-GPU NVLink machine, verify they
//! produce identical outputs, and compare their runtimes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::retrieval::backend::{Backend, ExecMode};
use pgas_embedding::retrieval::{reference::reference_forward, EmbLayerConfig, SparseBatch};

fn main() {
    // A scaled-down version of the paper's weak-scaling workload: the scale
    // knob shrinks batch/tables/rows but preserves the kernel's occupancy
    // and wave structure, so the timing shape matches paper scale.
    let mut cfg = EmbLayerConfig::paper_weak_scaling(2).scaled_down(64);
    cfg.n_batches = 10;
    println!(
        "workload: {} tables x {} rows, d={}, batch={}, pooling<= {}, {} batches on {} GPUs",
        cfg.n_features,
        cfg.table_rows,
        cfg.dim,
        cfg.batch_size,
        cfg.pooling_max,
        cfg.n_batches,
        cfg.n_gpus
    );

    // --- Baseline: lookup kernel -> all_to_all_single -> sync + unpack. ---
    let mut m = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
    let baseline = Backend::baseline().run(&mut m, &cfg, ExecMode::Functional);
    let b = &baseline.report;
    println!(
        "baseline:   {:>10} total  (compute {}, comm {}, sync+unpack {})",
        b.total, b.breakdown.compute, b.breakdown.communication, b.breakdown.sync_unpack
    );

    // --- PGAS fused: one-sided 256 B writes from inside the kernel. ---
    let mut m = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
    let pgas = Backend::pgas().run(&mut m, &cfg, ExecMode::Functional);
    let p = &pgas.report;
    println!(
        "pgas-fused: {:>10} total  (communication hidden inside the kernel)",
        p.total
    );
    println!(
        "speedup: {:.2}x    messages: baseline {} vs pgas {}",
        b.total.as_secs_f64() / p.total.as_secs_f64(),
        b.traffic.messages,
        p.traffic.messages
    );

    // --- Verify both backends against the serial reference. ---
    let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(cfg.n_batches - 1));
    let reference = reference_forward(&batch, cfg.table_spec(), cfg.pooling, cfg.n_gpus, cfg.seed);
    let (bo, po) = (baseline.outputs.unwrap(), pgas.outputs.unwrap());
    for dev in 0..cfg.n_gpus {
        assert!(bo[dev].allclose(&reference[dev], 1e-5), "baseline mismatch");
        assert!(po[dev].allclose(&reference[dev], 1e-5), "pgas mismatch");
    }
    println!("functional check: both backends match the serial reference ✓");
}
