//! Wall-clock (host-time) benchmarking of the real parallel kernels.
//!
//! Unlike every other experiment in this crate — which reports *simulated*
//! time and must stay byte-identical regardless of host parallelism — this
//! module measures how fast the reproduction itself runs: each microbench
//! executes the same computation under thread-pool widths {1, 2, 4}, keeps
//! the best-of-R wall time per width, and asserts the results are
//! bit-identical across widths (the engine's determinism contract).
//!
//! The output is `BENCH_wallclock.json`, the perf-trajectory artifact
//! ([`wallclock_doc`]): per-benchmark times and self-speedups relative to
//! one thread, gated by the report's claims.

use std::time::Instant;

use emb_retrieval::backend::{
    compute_pooled_rows, materialize_shards, plan_with_planner, ExecMode, HotCachePlanner,
    PgasFusedBackend, RetrievalBackend,
};
use emb_retrieval::{EmbLayerConfig, ForwardPlan, SparseBatch};
use gpusim::{Machine, MachineConfig};
use rayon::ThreadPoolBuilder;
use simtensor::Tensor;

use crate::doc::{claim, list, plain, text, Doc, Item, Layout};
use crate::scaled;

/// One microbenchmark's wall-clock measurements across pool widths.
#[derive(Clone, Debug)]
pub struct WallclockBench {
    /// Benchmark label (`lookup_pool` / `matmul` / `end_to_end_batch` /
    /// `dedup` / `gather` / `pool_sum` / `pool_mean` / `pool_max` /
    /// `arena_reuse`).
    pub name: &'static str,
    /// Best-of-R wall seconds, one entry per width in the report's
    /// `threads` vector.
    pub best_secs: Vec<f64>,
    /// Whether every width produced bit-identical results (always checked;
    /// a violation panics instead, so this records the check happened).
    pub bit_identical: bool,
    /// Per width: whether the pool degraded every parallel region to
    /// inline execution (no worker dispatch) during the measurement. All
    /// inline widths run the identical serial code, so their samples are
    /// pooled (see [`sweep`]) and their self-speedups are exactly 1.
    pub inline_degraded: Vec<bool>,
    /// Heap-allocation calls during one warmed steady-state repetition
    /// (only measured for `arena_reuse`; see `counting_alloc`).
    pub steady_allocs: Option<u64>,
}

impl WallclockBench {
    /// Self-speedup of width `threads[i]` over width `threads[0]` (= 1).
    pub fn speedup(&self, i: usize) -> f64 {
        self.best_secs[0] / self.best_secs[i]
    }
}

/// The full wall-clock report emitted as `BENCH_wallclock.json`.
#[derive(Clone, Debug)]
pub struct WallclockReport {
    /// Pool widths measured, ascending, starting at 1.
    pub threads: Vec<usize>,
    /// Workload shrink factor applied to the paper config (1 = paper scale).
    pub scale: usize,
    /// Host cores visible to the process (context for the ratios).
    pub host_parallelism: usize,
    /// All measured benchmarks.
    pub benches: Vec<WallclockBench>,
}

impl WallclockReport {
    /// The 4-thread-vs-1-thread self-speedup of `name`, if measured.
    pub fn speedup_at_4(&self, name: &str) -> Option<f64> {
        let i = self.threads.iter().position(|&t| t == 4)?;
        self.benches
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.speedup(i))
    }
}

/// Best-of-`reps` wall time of `f`, plus the (deterministic) result of the
/// first repetition for cross-width comparison.
fn best_of(reps: usize, f: &mut dyn FnMut() -> Vec<f32>) -> (f64, Vec<f32>) {
    let mut best = f64::INFINITY;
    let mut kept = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        kept.get_or_insert(out);
    }
    (best, kept.expect("reps >= 1"))
}

/// Run `f` under each width in `threads`, asserting bit-identical results.
///
/// The pool's adaptive degradation means a width may execute entirely
/// inline (width 1 always does; larger widths do on single-core hosts or
/// below the work-size threshold). Inline widths all run the identical
/// serial code path, so their wall times are samples of one distribution —
/// the per-width minima are pooled and every inline width reports the
/// pooled minimum, making their self-speedups exactly 1.000 instead of
/// scheduler noise. Widths that actually dispatched keep their own
/// measurement.
fn sweep(
    name: &'static str,
    threads: &[usize],
    reps: usize,
    f: &mut dyn FnMut() -> Vec<f32>,
) -> WallclockBench {
    let mut best_secs = Vec::with_capacity(threads.len());
    let mut inline_degraded = Vec::with_capacity(threads.len());
    let mut reference: Option<Vec<f32>> = None;
    for &w in threads {
        let pool = ThreadPoolBuilder::new()
            .num_threads(w)
            .build()
            .expect("build thread pool");
        let dispatched_before = rayon::pool_stats().dispatched_runs;
        let (secs, out) = pool.install(|| best_of(reps, f));
        inline_degraded.push(rayon::pool_stats().dispatched_runs == dispatched_before);
        match &reference {
            None => reference = Some(out),
            Some(r) => {
                let identical = r.len() == out.len()
                    && r.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(identical, "{name}: {w}-thread result diverged from serial");
            }
        }
        best_secs.push(secs);
    }
    let pooled = best_secs
        .iter()
        .zip(&inline_degraded)
        .filter(|&(_, &inl)| inl)
        .fold(f64::INFINITY, |m, (&s, _)| m.min(s));
    for (s, &inl) in best_secs.iter_mut().zip(&inline_degraded) {
        if inl {
            *s = pooled;
        }
    }
    WallclockBench {
        name,
        best_secs,
        bit_identical: true,
        inline_degraded,
        steady_allocs: None,
    }
}

/// Shrink factor of the `--smoke` workloads.
const SMOKE_SCALE: usize = 256;

/// Measure the four hot-path microbenches (embedding lookup+pool, matmul,
/// end-to-end functional batch, batch-prep dedup) at widths {1, 2, 4}.
/// `smoke` shrinks the
/// workloads to a seconds-long CI gate; otherwise they run at the largest
/// scale-down of the paper config that fits comfortably in host memory.
pub fn run_wallclock(smoke: bool) -> WallclockReport {
    let threads = vec![1usize, 2, 4];
    let (scale, reps) = if smoke { (SMOKE_SCALE, 2) } else { (16, 3) };

    let mut benches = Vec::new();

    // 1. Embedding lookup + pool: the paper's EMB kernel on real tables.
    {
        let cfg = scaled(EmbLayerConfig::paper_weak_scaling(2), scale, 1);
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.seed);
        let plan = ForwardPlan::build(
            &batch,
            &cfg.sharding(),
            cfg.dim,
            cfg.pooling,
            cfg.bags_per_block,
        );
        let shards = materialize_shards(&plan, cfg.table_spec(), cfg.seed);
        let mut f = || {
            let mut all = Vec::new();
            for dp in &plan.devices {
                all.extend(compute_pooled_rows(
                    dp,
                    &plan,
                    &batch,
                    &shards[dp.device],
                    cfg.seed,
                ));
            }
            all
        };
        benches.push(sweep("lookup_pool", &threads, reps, &mut f));
    }

    // 2. Dense matmul: the MLP building block.
    {
        let (m, k, n) = if smoke {
            (96, 128, 96)
        } else {
            (384, 512, 384)
        };
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, 7);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, 8);
        let mut f = || a.matmul(&b).data().to_vec();
        benches.push(sweep("matmul", &threads, reps, &mut f));
    }

    // 3. End-to-end functional batch: prepare → plan → lookup+pool →
    //    one-sided scatter, through the PGAS backend.
    {
        let e2e_scale = if smoke { 512 } else { 64 };
        let cfg = scaled(EmbLayerConfig::paper_weak_scaling(2), e2e_scale, 2);
        let mut f = || {
            let mut m = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
            let out = PgasFusedBackend::new()
                .run(&mut m, &cfg, ExecMode::Functional)
                .outputs
                .expect("functional mode returns outputs");
            out.iter().flat_map(|t| t.data().iter().copied()).collect()
        };
        benches.push(sweep("end_to_end_batch", &threads, reps, &mut f));
    }

    // 4. Batch-prep dedup: the sort-free open-addressing index maps on a
    //    Zipf-skewed batch — the serving hot path with dedup enabled. The
    //    planner (and its pooled workspaces) is built once; each repetition
    //    re-annotates a fresh plan, so steady-state cost has no per-batch
    //    map allocation.
    {
        let dedup_scale = if smoke { 256 } else { 16 };
        let mut cfg = scaled(EmbLayerConfig::paper_weak_scaling(2), dedup_scale, 1);
        cfg.distribution = emb_retrieval::IndexDistribution::Zipf { exponent: 1.2 };
        cfg.dedup = true;
        let m = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.seed);
        let planner = HotCachePlanner::new(&cfg, m.spec(0)).expect("dedup enabled");
        let mut f = || {
            let plan = plan_with_planner(&cfg, &batch, m.spec(0), Some(&planner));
            plan.devices
                .iter()
                .flat_map(|dp| dp.blocks.iter())
                .flat_map(|b| {
                    let s = b.cache.as_ref().expect("dedup annotates every block");
                    [s.hbm_fetches as f32, s.lookups as f32]
                })
                .collect()
        };
        benches.push(sweep("dedup", &threads, reps, &mut f));
    }

    // 5. Blocked row gather: the structure-split copy loop behind replica
    //    materialization and the pooled-row kernels, over sorted ids (the
    //    deduped access pattern).
    {
        let (rows, dim, n_ids) = if smoke {
            (4096usize, 32usize, 65_536usize)
        } else {
            (16_384, 64, 1 << 20)
        };
        let table: Vec<f32> = (0..rows * dim).map(|i| (i % 997) as f32 * 0.25).collect();
        let mut ids: Vec<usize> = (0..n_ids).map(|i| (i * 2_654_435_761) % rows).collect();
        ids.sort_unstable();
        let mut out = Vec::new();
        let mut f = || {
            out.clear();
            emb_retrieval::kernels::gather_rows(&table, dim, &ids, &mut out);
            out.clone()
        };
        benches.push(sweep("gather", &threads, reps, &mut f));
    }

    // 6–8. Monomorphized pooling kernels, one bench per op: pool synthetic
    //      bags of varying width through the branch-free fold/finish loops.
    for (name, op) in [
        ("pool_sum", emb_retrieval::PoolingOp::Sum),
        ("pool_mean", emb_retrieval::PoolingOp::Mean),
        ("pool_max", emb_retrieval::PoolingOp::Max),
    ] {
        let (n_bags, dim) = if smoke {
            (8192usize, 32usize)
        } else {
            (65_536, 64)
        };
        let rows: Vec<f32> = (0..64 * dim)
            .map(|i| ((i * 37) % 513) as f32 * 0.125 - 32.0)
            .collect();
        let mut f = move || {
            let mut out = vec![0.0f32; n_bags * dim];
            for (bag, acc) in out.chunks_exact_mut(dim).enumerate() {
                // Bag sizes cycle 0..8, exercising the empty-bag path too.
                let k = bag % 8;
                emb_retrieval::kernels::pool_bag(
                    op,
                    acc,
                    (0..k).map(|j| &rows[((bag + j) % 64) * dim..((bag + j) % 64 + 1) * dim]),
                );
            }
            out
        };
        benches.push(sweep(name, &threads, reps, &mut f));
    }

    // 9. Arena reuse: the lookup+pool hot path into arena-recycled buffers,
    //    exactly as the backends run it per batch. Alongside the timing
    //    sweep, count heap allocations across one warmed repetition — the
    //    zero-allocation discipline made measurable.
    {
        let cfg = scaled(EmbLayerConfig::paper_weak_scaling(2), scale, 1);
        let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.seed);
        let plan = ForwardPlan::build(
            &batch,
            &cfg.sharding(),
            cfg.dim,
            cfg.pooling,
            cfg.bags_per_block,
        );
        let shards = materialize_shards(&plan, cfg.table_spec(), cfg.seed);
        let run_once = |sink: &mut Vec<f32>| {
            sink.clear();
            for dp in &plan.devices {
                let mut buf = emb_retrieval::arena::take_f32();
                emb_retrieval::backend::compute_pooled_rows_into(
                    dp,
                    &plan,
                    &batch,
                    &shards[dp.device],
                    cfg.seed,
                    &mut buf,
                );
                sink.extend_from_slice(&buf);
                emb_retrieval::arena::put_f32(buf);
            }
        };
        let mut sink = Vec::new();
        let mut f = || {
            run_once(&mut sink);
            sink.clone()
        };
        let mut bench = sweep("arena_reuse", &threads, reps, &mut f);
        // Steady-state allocation count: warm every slab (and `sink`'s
        // capacity), then measure one serial repetition. Width 1 pins the
        // inline path so the count is host-independent.
        let pool = ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("build thread pool");
        bench.steady_allocs = Some(pool.install(|| {
            run_once(&mut sink);
            let before = crate::alloc_count();
            run_once(&mut sink);
            crate::alloc_count() - before
        }));
        benches.push(bench);
    }

    WallclockReport {
        threads,
        scale,
        host_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        benches,
    }
}

/// Serial `end_to_end_batch` time of the pre-overhaul seed at smoke scale;
/// the smoke run must stay under it.
const E2E_SEED_SERIAL_SECS: f64 = 0.000906;

/// Describe a report as the `BENCH_wallclock.json` document. Its claims are
/// checks on members the document prints anyway: every bench bit-identical
/// across widths; a warmed `arena_reuse` repetition allocating nothing;
/// and, for `end_to_end_batch`, no width slower than serial (inline
/// degradation makes that exact on small hosts) and — at smoke scale, the
/// only one with a seed time on record — the serial time under the seed's.
pub fn wallclock_doc(r: &WallclockReport) -> Doc {
    let rows = r.benches.iter().map(|b| {
        let e2e = b.name == "end_to_end_batch";
        let speedups: Vec<f64> = (0..b.best_secs.len()).map(|i| b.speedup(i)).collect();
        let mut cells = vec![
            text("name", b.name),
            list("best_secs", b.best_secs.iter().map(|t| format!("{t:.6}"))).must(
                !(e2e && r.scale == SMOKE_SCALE) || b.best_secs[0] < E2E_SEED_SERIAL_SECS,
                "end_to_end_batch serial time is not under the pre-overhaul seed's",
            ),
            list("speedup_vs_1", speedups.iter().map(|s| format!("{s:.3}"))).must(
                !e2e || speedups.iter().all(|&s| s >= 1.0),
                "end_to_end_batch got slower when the pool widened",
            ),
            list(
                "inline_degraded",
                b.inline_degraded.iter().map(bool::to_string),
            ),
        ];
        if let Some(a) = b.steady_allocs {
            cells.push(plain("steady_allocs", a).must(
                a == 0,
                "a warmed arena_reuse repetition allocated from the heap",
            ));
        }
        cells.push(claim(
            "bit_identical",
            b.bit_identical,
            "a wider pool's result diverged from the serial one",
        ));
        cells
    });
    Doc {
        name: "wallclock",
        title: None,
        items: vec![
            Item::Fields(vec![
                list("threads", r.threads.iter().map(usize::to_string)),
                plain("scale", r.scale),
                plain("host_parallelism", r.host_parallelism),
            ]),
            Item::Table(Some("benchmarks"), Layout::Expanded, rows.collect()),
        ],
        attachments: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(name: &'static str, best_secs: Vec<f64>) -> WallclockBench {
        WallclockBench {
            name,
            best_secs,
            bit_identical: true,
            inline_degraded: vec![true, false, false],
            steady_allocs: None,
        }
    }

    fn report(benches: Vec<WallclockBench>) -> WallclockReport {
        WallclockReport {
            threads: vec![1, 2, 4],
            scale: SMOKE_SCALE,
            host_parallelism: 1,
            benches,
        }
    }

    #[test]
    fn json_round_trip_is_well_formed() {
        let mut lookup = bench("lookup_pool", vec![0.4, 0.25, 0.2]);
        lookup.steady_allocs = Some(0);
        let r = report(vec![lookup]);
        let doc = wallclock_doc(&r);
        let s = doc.json().expect("the report is a JSON document");
        telemetry::validate_json_doc(&s, &[]).expect("valid");
        assert!(s.starts_with("{\n  \"threads\": [1, 2, 4],\n  \"scale\": 256,\n"));
        assert!(s.contains("\"name\": \"lookup_pool\""));
        assert!(s.contains("\"best_secs\": [0.400000, 0.250000, 0.200000]"));
        assert!(s.contains("\"speedup_vs_1\": [1.000, 1.600, 2.000]"));
        assert!(s.contains("\"inline_degraded\": [true, false, false]"));
        assert!(s.contains("\"steady_allocs\": 0,\n      \"bit_identical\": true"));
        assert!(doc.failed_claims().is_empty());
        assert_eq!(doc.csv(), None, "stdout shows the JSON itself");
        assert_eq!(r.speedup_at_4("lookup_pool"), Some(2.0));
        assert_eq!(r.speedup_at_4("missing"), None);
    }

    /// The gates `ci.sh` used to `awk`/`grep` out of the JSON are claims:
    /// each one, broken, is reported under the member it checks.
    #[test]
    fn each_broken_gate_is_a_named_failed_claim() {
        let failed = |b: WallclockBench| wallclock_doc(&report(vec![b])).failed_claims();
        let e2e = |secs: Vec<f64>| bench("end_to_end_batch", secs);
        assert!(failed(e2e(vec![0.0006, 0.0006, 0.0005])).is_empty());
        let slow_serial = failed(e2e(vec![0.000906, 0.0009, 0.0009]));
        assert_eq!(slow_serial.len(), 1);
        assert!(slow_serial[0].starts_with("best_secs: end_to_end_batch serial time"));
        let slower_wide = failed(e2e(vec![0.0006, 0.0006, 0.0007]));
        assert_eq!(slower_wide.len(), 1);
        assert!(slower_wide[0].starts_with("speedup_vs_1: end_to_end_batch got slower"));
        // Only end_to_end_batch carries the timing gates, and the seed time
        // is on record for the smoke workload only.
        assert!(failed(bench("matmul", vec![0.5, 0.6, 0.7])).is_empty());
        let mut full = report(vec![e2e(vec![0.5, 0.5, 0.5])]);
        full.scale = 16;
        assert!(wallclock_doc(&full).failed_claims().is_empty());
        let mut arena = bench("arena_reuse", vec![0.1, 0.1, 0.1]);
        arena.steady_allocs = Some(3);
        assert!(failed(arena)[0].starts_with("steady_allocs: "));
        let mut diverged = bench("gather", vec![0.1, 0.1, 0.1]);
        diverged.bit_identical = false;
        assert!(failed(diverged)[0].starts_with("bit_identical: "));
    }

    #[test]
    fn smoke_wallclock_runs_and_validates() {
        let r = run_wallclock(true);
        assert_eq!(r.threads, vec![1, 2, 4]);
        assert_eq!(r.benches.len(), 9);
        for name in ["dedup", "gather", "pool_max", "arena_reuse"] {
            assert!(r.benches.iter().any(|b| b.name == name), "missing {name}");
        }
        for b in &r.benches {
            assert!(b.bit_identical);
            assert!(b.best_secs.iter().all(|&t| t.is_finite() && t > 0.0));
            assert_eq!(b.inline_degraded.len(), r.threads.len());
            // Width 1 always degrades inline, and its self-speedup is 1.
            assert!(b.inline_degraded[0]);
            // Inline widths share the pooled serial minimum: speedup == 1.
            for (i, &inl) in b.inline_degraded.iter().enumerate() {
                if inl {
                    assert_eq!(b.speedup(i), 1.0, "{}: width {}", b.name, r.threads[i]);
                }
            }
        }
        let arena = r.benches.iter().find(|b| b.name == "arena_reuse").unwrap();
        let allocs = arena.steady_allocs.expect("arena_reuse counts allocs");
        assert_eq!(allocs, 0, "steady-state batch must not allocate");
    }
}
