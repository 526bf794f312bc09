//! An MLP draws its weights on its first forward pass, so a Timing-mode
//! pipeline never holds them: at `paper_inference(4)` the bottom MLP's first
//! layer alone is 32 960 × 512 floats (67.5 MB).
//!
//! This binary installs a counting wrapper around the system allocator that
//! keeps the thread's live heap bytes and their high-water mark; the measured
//! runs execute on a one-thread pool, so every allocation lands on the
//! measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use desim::Dur;
use dlrm_model::{Dlrm, DlrmConfig, EngineBackend, InferencePipeline, Linear, Mlp, PipelineEngine};
use emb_retrieval::backend::{ExecMode, PgasFusedBackend};
use gpusim::{GpuSpec, Machine, MachineConfig};
use rayon::ThreadPoolBuilder;
use simtensor::Tensor;

thread_local! {
    // Const-init and `Drop`-free: touching them never allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count_bytes(grown: i64) {
    // `try_with`: the allocator is still called during thread teardown.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// [`System`] plus this thread's live bytes and their peak.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_bytes(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_bytes(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_bytes(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most this thread's live heap bytes rose above their level at the
/// call during `f`.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let r = f();
    (r, PEAK.with(Cell::get) - before)
}

/// A Timing-mode executed pipeline and an analytic one, as the benchmark's
/// `pipeline_engine` runs them; returns their totals. One traffic bucket per
/// simulated second: the per-pair traffic store is the one thing a machine
/// legitimately grows per batch, a 50 µs bucket at a time by default.
fn run_timing(model: &Dlrm) -> [u64; 2] {
    let fabric =
        MachineConfig::dgx_v100(model.cfg.emb.n_gpus).with_traffic_bucket(Dur::from_ms(1000));
    let mut m = Machine::new(fabric.clone());
    let executed = PipelineEngine::new(model).run(&mut m, &EngineBackend::pgas(), ExecMode::Timing);
    let mut m = Machine::new(fabric);
    let serial =
        InferencePipeline::new(model).run(&mut m, &PgasFusedBackend::new(), ExecMode::Timing);
    [executed.total.as_ns(), serial.total.as_ns()]
}

#[test]
fn timing_pipelines_hold_no_mlp_weights() {
    let cfg = DlrmConfig::paper_inference(4);
    let pool = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build thread pool");
    pool.install(|| {
        // The first run plans the batches (memoized process-wide) and records
        // their schedules; the second is the claim.
        let warm = run_timing(&Dlrm::new(cfg.clone()));
        let (totals, grown) = peak_growth(|| run_timing(&Dlrm::new(cfg.clone())));
        assert_eq!(totals, warm);
        assert!(
            grown < 8 << 20,
            "a Timing pipeline peaked {grown} B above its start"
        );
    });
}

#[test]
fn shapes_and_costs_come_from_the_widths() {
    let widths = [32_960, 512, 256, 1];
    let m = Mlp::new(&widths, 3);
    let layers: Vec<Linear> = widths
        .windows(2)
        .map(|w| Linear::new(w[0], w[1], 0))
        .collect();
    assert_eq!(
        (m.in_features(), m.out_features(), m.n_layers()),
        (32_960, 1, 3)
    );
    let spec = GpuSpec::v100();
    for rows in [1, 63, 4096] {
        let flops: u64 = layers.iter().map(|l| l.flops(rows)).sum();
        assert_eq!(m.flops(rows), flops);
        let shape = m.kernel_shape(rows, &spec);
        let blocks = (rows as u64 * 3).div_ceil(64).max(1);
        let blocks = blocks.min(spec.max_resident_blocks() as u64 * 8);
        assert_eq!(
            (shape.blocks, shape.flops_per_block),
            (blocks, flops.div_ceil(blocks))
        );
    }
}

#[test]
fn the_first_lazy_forward_equals_eagerly_built_layers() {
    let (widths, seed) = ([13, 64, 32, 8], 0xD12A_u64);
    let x = Tensor::rand_uniform(&[5, 13], -1.0, 1.0, 3);
    // The layers as `Mlp` built them before it drew them lazily.
    let eager: Vec<Linear> = (widths.windows(2).enumerate())
        .map(|(i, w)| Linear::new(w[0], w[1], seed.wrapping_add(i as u64 * 0x9E37)))
        .collect();
    let mut want = x.clone();
    for (i, layer) in eager.iter().enumerate() {
        want = layer.forward(&want);
        if i + 1 < eager.len() {
            want = want.relu();
        }
    }
    let m = Mlp::new(&widths, seed);
    for _ in 0..2 {
        let got = m.forward(&x);
        assert_eq!(got.dims(), want.dims());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }
}
