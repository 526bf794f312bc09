//! The zero-allocation claim of the arena workspaces: once the slabs are
//! warm, a steady-state lookup+pool batch requests no memory from the heap,
//! and neither does a simulated one-sided batch that replays its plan's
//! stored schedule — a forward batch or a backward one.
//!
//! Timings cannot prove a negative, so this binary installs a counting
//! wrapper around the system allocator and reads the allocation-count delta
//! across one warmed repetition of the hot path, exactly as the backends run
//! it per batch. The counters are per-thread and each test runs on its own,
//! so nothing else can be charged to a measured region.
//!
//! Planning allocates per device, not per block: a plain plan of sixteen
//! times the blocks makes the same heap calls.
//!
//! The same wrapper keeps the thread's live heap bytes and their high-water
//! mark, which holds the memory claim of Functional mode: a run draws each
//! looked-up row from its init stream and never holds a whole table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use desim::{Dur, SimTime};
use emb_retrieval::backend::{
    compute_pooled_rows_into, execute_batch, materialize_shards, plan_for_batch, ArrivalLog,
    BaselineBackend, Exchange, ExecMode, PgasFusedBackend, PlannedBatch, RetrievalBackend, Weights,
};
use emb_retrieval::backward::pgas_backward;
use emb_retrieval::{arena, EmbLayerConfig, ForwardPlan, SparseBatch};
use gpusim::{Machine, MachineConfig};
use rayon::ThreadPoolBuilder;

thread_local! {
    // Const-init and `Drop`-free: touching them never allocates or
    // registers a destructor.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed on this thread (negative when it
    // frees memory another thread allocated), and their high-water mark.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Record one allocation entry point that changed this thread's live bytes
/// by `grown` (a `realloc` passes its size change).
fn count_call(grown: i64) {
    // `try_with`: the allocator is still called during thread teardown.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    count_bytes(grown);
}

fn count_bytes(grown: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// [`System`] plus per-thread counters: allocation entry points (frees are
/// not counted: the claim is "no new memory requested per batch") and live
/// bytes with their peak.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// The most this thread's live heap bytes rose above their level at the
/// call during `f`.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let r = f();
    (r, PEAK.with(Cell::get) - before)
}

#[test]
fn warmed_lookup_pool_batch_allocates_nothing() {
    let mut cfg = EmbLayerConfig::paper_weak_scaling(2).scaled_down(256);
    cfg.n_batches = 1;
    let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.seed);
    let plan = ForwardPlan::build(
        &batch,
        &cfg.sharding(),
        cfg.dim,
        cfg.pooling,
        cfg.bags_per_block,
    );
    let shards = materialize_shards(&plan, cfg.table_spec(), cfg.seed);
    // Both row sources: the resident shard and the init stream.
    let run_once = |sink: &mut Vec<f32>| {
        sink.clear();
        for dp in &plan.devices {
            let shard = Weights::Shard(&shards[dp.device]);
            for weights in [shard, Weights::Init(cfg.table_spec())] {
                let mut buf = arena::take_f32();
                compute_pooled_rows_into(dp, &plan, &batch, weights, cfg.seed, &mut buf);
                sink.extend_from_slice(&buf);
                arena::put_f32(buf);
            }
        }
    };
    let mut sink = Vec::new();
    // Width 1 pins the inline path, so the count is host-independent.
    let pool = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build thread pool");
    let delta = pool.install(|| {
        // Warm every slab and `sink`'s capacity, then measure.
        run_once(&mut sink);
        let before = alloc_count();
        run_once(&mut sink);
        alloc_count() - before
    });
    assert!(!sink.is_empty(), "the batch pooled no rows");
    assert_eq!(
        delta, 0,
        "a warmed lookup+pool batch allocated from the heap"
    );
}

#[test]
fn a_plain_plan_allocates_per_device_not_per_block() {
    // 64 samples per mini-batch: blocks of 2 and of 32 bags both tile it, so
    // neither plan has a block that sends to two devices.
    let cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(64);
    let batch = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.seed);
    let pool = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build thread pool");
    let build = |bags_per_block: usize| {
        pool.install(|| {
            let before = alloc_count();
            let plan = ForwardPlan::build(
                &batch,
                &cfg.sharding(),
                cfg.dim,
                cfg.pooling,
                bags_per_block,
            );
            let blocks: usize = plan.devices.iter().map(|dp| dp.blocks.len()).sum();
            (blocks, alloc_count() - before)
        })
    };
    let ((few, calls_few), (many, calls_many)) = (build(32), build(2));
    assert_eq!(many, 16 * few);
    assert_eq!(
        calls_many, calls_few,
        "{many} blocks took more heap calls than {few}"
    );
}

#[test]
fn a_replayed_one_sided_batch_allocates_nothing() {
    let mut cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(64);
    cfg.bags_per_block = 2;
    let batch = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.seed);
    // One traffic bucket for the whole run: the per-pair traffic store is
    // the one thing a batch legitimately grows, a bucket at a time.
    let mut m = Machine::new(MachineConfig::dgx_v100(4).with_traffic_bucket(Dur::from_ms(1000)));
    let pb = PlannedBatch::new(&m, plan_for_batch(&cfg, &batch, m.spec(0)));
    let exchange = Exchange::OneSided(Default::default());
    let mut log = ArrivalLog::new();
    let mut at = SimTime::ZERO;
    let mut allocated = [0; 4];
    // The first batch executes and records, the second replays and warms
    // whatever only a replay touches; the next two are the claim, one
    // without and one with an arrival log (its capacity filled by then).
    for (batch, calls) in allocated.iter_mut().enumerate() {
        let log = (batch != 2).then_some(&mut log);
        let before = alloc_count();
        let run = execute_batch(&mut m, &exchange, &pb, at, log, None);
        *calls = alloc_count() - before;
        at = run.end + Dur::from_us(1);
    }
    assert!(
        m.traffic_stats().messages > 4 * 500,
        "the batches sent little"
    );
    assert!(allocated[0] > 0, "recording a schedule takes memory");
    assert_eq!(
        allocated[2..],
        [0, 0],
        "a replayed batch allocated from the heap"
    );
}

#[test]
fn a_replayed_backward_batch_allocates_nothing() {
    // The backward pass hands out no plan, so the claim is a difference: a
    // run of seven batches of one requests exactly the memory a run of three
    // does — planning, the executed first batch, the report — and the four
    // more batches it replays (scatter-add kernel and all) none.
    let mut cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(64);
    (cfg.bags_per_block, cfg.distinct_batches) = (2, 1);
    let pool = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build thread pool");
    let mut allocated = |n_batches: usize| {
        cfg.n_batches = n_batches;
        // One traffic bucket for the whole run, as above.
        let fabric = MachineConfig::dgx_v100(4).with_traffic_bucket(Dur::from_ms(1000));
        let mut m = Machine::new(fabric);
        let before = alloc_count();
        let run =
            pool.install(|| pgas_backward(&mut m, &cfg, Default::default(), ExecMode::Timing));
        let calls = alloc_count() - before;
        assert_eq!(run.report.batches, n_batches);
        assert!(run.report.traffic.messages > n_batches as u64 * 500);
        calls
    };
    // The first run plans the batch and warms the arena.
    let (_, three, seven) = (allocated(3), allocated(3), allocated(7));
    assert!(three > 0, "recording a schedule takes memory");
    assert_eq!(
        seven, three,
        "a replayed backward batch allocated from the heap"
    );
}

#[test]
fn a_functional_run_holds_no_table() {
    // Four GPUs, one 4 MB table each: materializing the device shards
    // alone would hold 16 MB.
    let mut cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(64);
    cfg.n_batches = 2;
    let table_bytes = cfg.table_spec().table_bytes() as i64;
    // Width 1: every allocation of the run lands on this thread's counters.
    let pool = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build thread pool");
    let backends: [&dyn RetrievalBackend; 2] = [&BaselineBackend::new(), &PgasFusedBackend::new()];
    for backend in backends {
        let (outputs, grown) = peak_growth(|| {
            pool.install(|| {
                let mut m = Machine::new(MachineConfig::dgx_v100(4));
                backend.run(&mut m, &cfg, ExecMode::Functional).outputs
            })
        });
        assert_eq!(outputs.map(|o| o.len()), Some(4), "{}", backend.name());
        assert!(
            grown < table_bytes,
            "a functional {} run peaked {grown} B above its start, one table is {table_bytes} B",
            backend.name()
        );
    }
}
