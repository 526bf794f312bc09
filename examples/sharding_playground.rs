//! Sharding playground: how table placement and the CPU-side input
//! partitioner interact (paper §II-C and the §V row-wise discussion).
//!
//! ```sh
//! cargo run --release --example sharding_playground
//! ```

use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::retrieval::backend::{Backend, ExecMode};
use pgas_embedding::retrieval::{EmbLayerConfig, InputPartition, Sharding, SparseBatch};

fn main() {
    let gpus = 4;
    let mut cfg = EmbLayerConfig::paper_weak_scaling(gpus).scaled_down(64);
    cfg.n_batches = 5;
    let batch = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.seed);

    println!("== placement: block vs round-robin table-wise sharding ==");
    for (name, sharding) in [
        ("block", Sharding::table_wise_block(cfg.n_features, gpus)),
        (
            "round-robin",
            Sharding::table_wise_round_robin(cfg.n_features, gpus),
        ),
    ] {
        let per_dev: Vec<usize> = (0..gpus)
            .map(|d| sharding.features_on(d, cfg.n_features).len())
            .collect();
        println!("  {name:12} tables per GPU: {per_dev:?}");
    }

    println!("\n== CPU input-partitioning cost (paper §V) ==");
    let tw = InputPartition::compute(&batch, &Sharding::table_wise_block(cfg.n_features, gpus));
    let rw = InputPartition::compute(&batch, &Sharding::RowWise { n_devices: gpus });
    println!(
        "  table-wise: cpu {} + h2d {}  ({} indices routed)",
        tw.cpu_time,
        tw.h2d_time,
        tw.indices_per_device.iter().sum::<usize>()
    );
    println!(
        "  row-wise:   cpu {} + h2d {}  (per-index routing: {:.1}x the CPU cost)",
        rw.cpu_time,
        rw.h2d_time,
        rw.cpu_time.as_secs_f64() / tw.cpu_time.as_secs_f64()
    );

    println!("\n== does placement change retrieval time? (uniform inputs: no) ==");
    let mut m = Machine::new(MachineConfig::dgx_v100(gpus));
    let r = Backend::pgas().run(&mut m, &cfg, ExecMode::Timing).report;
    println!(
        "  table-wise block: EMB stage {} over {} batches ({} per batch)",
        r.total,
        r.batches,
        r.per_batch()
    );
    println!("\nUnder uniform synthetic inputs every table sees identical load, so");
    println!("table-wise placement variants tie; skew (see `reproduce ablation-zipf`)");
    println!("and row-wise partitioning costs are where placement starts to matter.");
}
