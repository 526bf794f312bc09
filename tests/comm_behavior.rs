//! Communication-behaviour invariants across backends: message counts,
//! conservation of payload, burstiness (Figures 7/10), and header-overhead
//! ordering.

use bench_harness::{comm_volume_strong_4gpu, comm_volume_weak_2gpu};
use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::retrieval::backend::{Backend, ExecMode};
use pgas_embedding::retrieval::EmbLayerConfig;
use pgas_embedding::simccl::CollectiveConfig;

fn tiny(gpus: usize) -> EmbLayerConfig {
    let mut c = EmbLayerConfig::paper_weak_scaling(gpus).scaled_down(64);
    c.n_batches = 3;
    c
}

#[test]
fn both_backends_move_identical_payload() {
    for gpus in 2..=4 {
        let cfg = tiny(gpus);
        let mut mb = Machine::new(MachineConfig::dgx_v100(gpus));
        let b = Backend::baseline()
            .run(&mut mb, &cfg, ExecMode::Timing)
            .report;
        let mut mp = Machine::new(MachineConfig::dgx_v100(gpus));
        let p = Backend::pgas().run(&mut mp, &cfg, ExecMode::Timing).report;
        assert_eq!(
            b.traffic.payload_bytes, p.traffic.payload_bytes,
            "same layout conversion, same bytes (g={gpus})"
        );
        // Expected volume: remote pooled rows × row bytes × batches.
        let rows_remote =
            cfg.batch_size as u64 * (cfg.n_features / gpus) as u64 * (gpus as u64 - 1);
        let expect = rows_remote * (cfg.dim as u64 * 4) * cfg.n_batches as u64;
        assert_eq!(b.traffic.payload_bytes, expect, "volume formula (g={gpus})");
    }
}

#[test]
fn pgas_messages_are_row_sized() {
    let cfg = tiny(2);
    let mut m = Machine::new(MachineConfig::dgx_v100(2));
    let t = Backend::pgas()
        .run(&mut m, &cfg, ExecMode::Timing)
        .report
        .traffic;
    // Every PGAS message is one coalesced row (d×4 = 256 B).
    assert!(t.messages > 0);
    assert_eq!(t.payload_bytes, 256 * t.messages);
}

#[test]
fn baseline_messages_are_chunk_sized() {
    let cfg = tiny(2);
    let mut m = Machine::new(MachineConfig::dgx_v100(2));
    let t = Backend::baseline()
        .run(&mut m, &cfg, ExecMode::Timing)
        .report
        .traffic;
    // Chunks are up to 4 MiB: every batch sends each of the two ordered
    // pairs its equal share in whole chunks, each one a message well above
    // the PGAS row size.
    let per_pair = t.payload_bytes / (2 * cfg.n_batches as u64);
    let chunks = CollectiveConfig::n_chunks(per_pair);
    assert_eq!(t.messages, 2 * cfg.n_batches as u64 * chunks);
    assert!(t.payload_bytes / t.messages > 1024);
}

#[test]
fn pgas_pays_more_header_overhead_but_less_time() {
    let cfg = tiny(2);
    let mut mb = Machine::new(MachineConfig::dgx_v100(2));
    let b = Backend::baseline()
        .run(&mut mb, &cfg, ExecMode::Timing)
        .report;
    let mut mp = Machine::new(MachineConfig::dgx_v100(2));
    let p = Backend::pgas().run(&mut mp, &cfg, ExecMode::Timing).report;
    assert!(p.traffic.header_overhead() > 5.0 * b.traffic.header_overhead());
    assert!(p.total < b.total);
}

#[test]
fn fig7_weak_2gpu_shape() {
    let r = comm_volume_weak_2gpu(64, 2);
    let (pgas_cv, base_cv) = r.burstiness();
    assert!(
        pgas_cv < base_cv,
        "PGAS must be smoother: cv {pgas_cv} vs baseline {base_cv}"
    );
    // Conservation: both series carry the same payload.
    assert!((r.pgas.total() - r.baseline.total()).abs() < 1e-3 * r.pgas.total());
    // Baseline has a long initial silent period (paper: "communication
    // volume stays flat at 0"); PGAS starts earlier.
    let first = |s: &desim::TimeSeries| s.points().position(|(_, v)| v > 0.0).unwrap();
    assert!(first(&r.pgas) <= first(&r.baseline));
}

#[test]
fn fig10_strong_4gpu_shape() {
    let r = comm_volume_strong_4gpu(64, 2);
    let (pgas_cv, base_cv) = r.burstiness();
    assert!(pgas_cv < base_cv, "cv {pgas_cv} vs {base_cv}");
    assert!(r.pgas_end < r.baseline_end, "PGAS finishes sooner");
}

#[test]
fn single_gpu_is_silent() {
    let cfg = tiny(1);
    for backend in [true, false] {
        let mut m = Machine::new(MachineConfig::dgx_v100(1));
        let r = if backend {
            Backend::pgas().run(&mut m, &cfg, ExecMode::Timing).report
        } else {
            Backend::baseline()
                .run(&mut m, &cfg, ExecMode::Timing)
                .report
        };
        assert_eq!(r.traffic.messages, 0);
        assert_eq!(r.comm_series.total(), 0.0);
    }
}
