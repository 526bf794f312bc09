//! End-to-end DLRM inference (paper Fig. 1 / Fig. 4): dense features through
//! the top MLP, sparse features through the sharded embedding layer,
//! interaction, bottom MLP, sigmoid — with the EMB layer served by either
//! backend.
//!
//! ```sh
//! cargo run --release --example dlrm_inference
//! ```

use pgas_embedding::dlrm::{Dlrm, DlrmConfig, InferencePipeline};
use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::retrieval::backend::{Backend, ExecMode};

fn main() {
    let gpus = 4;
    let mut cfg = DlrmConfig::tiny(gpus);
    cfg.emb = cfg.emb.scaled_down(1); // tiny() already scales; keep explicit
    cfg.emb.n_batches = 10;
    let model = Dlrm::new(cfg.clone());
    let pipeline = InferencePipeline::new(&model);

    println!(
        "DLRM: {} dense features, top MLP {:?}, {} sparse features (d={}), bottom MLP {:?}",
        cfg.n_dense,
        cfg.top_widths(),
        cfg.emb.n_features,
        cfg.emb.dim,
        cfg.bottom_widths()
    );

    let mut m = Machine::new(MachineConfig::dgx_v100(gpus));
    let base = pipeline.run(&mut m, &Backend::baseline(), ExecMode::Functional);
    let mut m = Machine::new(MachineConfig::dgx_v100(gpus));
    let pgas = pipeline.run(&mut m, &Backend::pgas(), ExecMode::Functional);

    println!(
        "baseline pipeline: {} total | EMB stage {} ({:.0}% of total)",
        base.total,
        base.emb.total,
        100.0 * base.emb_fraction()
    );
    println!(
        "pgas pipeline:     {} total | EMB stage {} ({:.0}% of total)",
        pgas.total,
        pgas.emb.total,
        100.0 * pgas.emb_fraction()
    );
    println!(
        "end-to-end speedup: {:.2}x",
        base.total.as_secs_f64() / pgas.total.as_secs_f64()
    );

    // Predictions agree no matter which communication scheme served the
    // embedding layer.
    let (bp, pp) = (base.predictions.unwrap(), pgas.predictions.unwrap());
    let mut shown = 0;
    println!("sample click probabilities (device 0):");
    for (i, (&b, &p)) in bp[0].data().iter().zip(pp[0].data()).enumerate() {
        assert!((b - p).abs() < 1e-6, "prediction mismatch at row {i}");
        if shown < 5 {
            println!("  sample {i}: {b:.4}");
            shown += 1;
        }
    }
    println!("predictions identical across backends ✓");
}
