//! The two retrieval backends: baseline (collective) and PGAS fused.
//!
//! Both consume the same [`ForwardPlan`], drive the same simulated machine,
//! and (in functional mode) produce bit-comparable outputs — so every
//! difference in the reported timings comes from the communication scheme,
//! which is exactly the paper's experimental design.

mod baseline;
mod functional;
mod pgas;
mod resilient;
mod single;

pub use baseline::BaselineBackend;
pub use functional::{
    apply_hot_imports, compute_pooled_rows, compute_pooled_rows_into, exchange_and_unpack,
    materialize_shards, scatter_via_symmetric_heap, Weights,
};
pub use pgas::PgasFusedBackend;
pub use resilient::{
    DegradedFill, ResiliencePolicy, ResilienceReport, ResilientBackend, ResilientResult,
};
pub use single::{execute_batch, ArrivalLog, BatchRun, Degrade, Exchange, PlannedBatch};
pub(crate) use single::{Emission, Pass, Tail};

pub use crate::cache::{HotCachePlanner, HotReplicas, HotRowCache, IndexDedupMap};

use std::sync::{Arc, OnceLock};

use desim::{Dur, SimTime};
use gpusim::{GpuSpec, KernelShape, Machine};
use rayon::prelude::*;
use simtensor::Tensor;

use crate::memo::Memo;
use crate::{
    DevicePlan, EmbLayerConfig, ForwardPlan, PlanInput, RunReport, SparseBatch, TimeBreakdown,
};

/// Whether a run executes the lookups and produces outputs, or only times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Simulate timing only; no lookup runs on the host. Use for paper-scale
    /// workloads, where functional host work is O(lookups × dim): ≈ 17 G row
    /// elements a run at `paper_weak_scaling(4)`.
    Timing,
    /// Also execute the real lookups and produce `[mb, S, dim]` outputs per
    /// device, verifiable against [`crate::reference::reference_forward`].
    /// No table is stored: each looked-up row is drawn from its init stream.
    Functional,
}

/// What a backend run returns.
#[derive(Clone, Debug)]
pub struct BackendResult {
    /// Accumulated timing over all batches.
    pub report: RunReport,
    /// Final-batch outputs per device (functional mode only).
    pub outputs: Option<Vec<Tensor>>,
}

/// Common per-backend entry point, so harness code can switch on a trait
/// object instead of concrete types.
pub trait RetrievalBackend {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
    /// Execute `cfg.n_batches` forward passes on `machine`.
    ///
    /// The machine should be freshly constructed: the run starts at t = 0
    /// and the report embeds the machine's whole-run traffic statistics.
    fn run(
        &self,
        machine: &mut gpusim::Machine,
        cfg: &EmbLayerConfig,
        mode: ExecMode,
    ) -> BackendResult;
}

/// Fraction of peak HBM bandwidth a random-row gather kernel sustains.
/// Scattered 256 B reads do not stream; 0.65 matches measured V100 gather
/// throughput (and the paper's sub-peak `ncu` numbers).
pub(crate) const GATHER_EFFICIENCY: f64 = 0.65;

/// Per-block service durations of the lookup kernel for one device.
///
/// A block's global-memory traffic is its embedding-row reads
/// (`lookups × row_bytes`), its index reads (8 B each) and its pooled-row
/// writes (`n_bags × row_bytes`); the duration follows the machine's
/// occupancy/latency cost model, derated by [`GATHER_EFFICIENCY`].
///
/// Blocks carrying measured [`crate::BlockCacheStats`] charge only their
/// `hbm_fetches` as row reads — hot-set hits and deduplicated fetches are
/// served on-chip, *replacing* the analytic `cache_hit` derating. When the
/// plan has `imported_bags`, the extra blocks that compute them from local
/// replicas are appended after the regular blocks (index reads + pooled-row
/// writes only; replica reads are hot by construction).
pub(crate) fn lookup_block_durations(
    dp: &DevicePlan,
    plan: &ForwardPlan,
    spec: &GpuSpec,
) -> Vec<Dur> {
    let import_blocks = dp.imported_bags.len().div_ceil(plan.bags_per_block);
    let n_blocks = (dp.blocks.len() + import_blocks) as u64;
    if n_blocks == 0 {
        return Vec::new();
    }
    let resident = KernelShape::effective_resident(n_blocks, spec.max_resident_blocks());
    let row_bytes = plan.row_bytes() as u64;
    let block_time = |bytes: u64| {
        let shape = KernelShape {
            blocks: 1,
            bytes_per_block: (bytes as f64 / GATHER_EFFICIENCY).round() as u64,
            flops_per_block: 0,
            dependent_accesses: 8,
        };
        shape.block_time(spec, resident)
    };
    let mut durs: Vec<Dur> = (dp.blocks.iter().enumerate())
        .map(|(i, b)| {
            let bytes = match dp.cache_stats.get(i) {
                Some(s) => s.hbm_fetches * row_bytes + s.lookups * 8 + s.n_bags as u64 * row_bytes,
                None => {
                    // Row reads that hit in L2 never reach HBM (skewed inputs).
                    let hbm_reads = (b.lookups as f64 * (1.0 - plan.cache_hit)).round() as u64;
                    hbm_reads * row_bytes + b.lookups * 8 + b.n_bags as u64 * row_bytes
                }
            };
            block_time(bytes)
        })
        .collect();
    for chunk in dp.imported_bags.chunks(plan.bags_per_block) {
        let lookups: u64 = chunk.iter().map(|b| b.lookups as u64).sum();
        durs.push(block_time(lookups * 8 + chunk.len() as u64 * row_bytes));
    }
    durs
}

/// The distinct input batches a run cycles through, and their plans.
///
/// Public so executed-schedule frontends (the dlrm pipeline engine) can
/// drive the same per-batch functions the closed-loop backends chain,
/// against the same prepared state — literally the same: [`prepare_batches`]
/// hands every asker of one `(config, mode, GPU)` one shared instance.
pub struct PreparedBatches {
    /// The distinct batches, seed-index order, in [`ExecMode::Functional`].
    /// **Timing mode keeps no batch** (empty): each is dropped once planned,
    /// a paper-scale one being 34 MB of CSR offsets nothing reads again.
    pub batches: Vec<SparseBatch>,
    /// One forward plan per distinct batch.
    pub plans: Vec<Arc<ForwardPlan>>,
    /// The hot-row/dedup planner, when `cfg` enables either — kept so the
    /// functional path can materialize replicas without re-ranking.
    pub planner: Option<HotCachePlanner>,
    /// The GPU the set was prepared for, and the plans as [`PlannedBatch`]es
    /// on a machine of such GPUs (see [`PreparedBatches::planned_for`]).
    gpu: GpuSpec,
    planned: OnceLock<Arc<[PlannedBatch]>>,
}

impl PreparedBatches {
    /// The plans as executable [`PlannedBatch`]es on `machine`. Built once
    /// and shared (per-device schedules included) by every machine made of the
    /// GPU the set was prepared for; a machine with any other spec gets a
    /// build of its own that is not kept.
    pub fn planned_for(&self, machine: &Machine) -> Arc<[PlannedBatch]> {
        let build = || -> Arc<[PlannedBatch]> {
            (0..self.plans.len())
                .into_par_iter()
                .map(|i| PlannedBatch::new(machine, Arc::clone(&self.plans[i])))
                .collect::<Vec<_>>()
                .into()
        };
        if (0..machine.n_gpus()).all(|d| *machine.spec(d) == self.gpu) {
            Arc::clone(self.planned.get_or_init(build))
        } else {
            build()
        }
    }
}

/// Expected fraction of this workload's row reads served from `gpu`'s L2 —
/// what [`ForwardPlan::cache_hit`] gets stamped with. Derived from the
/// config's index distribution and the cache's row capacity (scaled by
/// `cfg.cache_rows_scale` so scaled-down runs keep the paper-scale ratio).
pub fn cache_hit_for(cfg: &EmbLayerConfig, gpu: &GpuSpec) -> f64 {
    let cache_rows = ((gpu.l2_bytes / cfg.table_spec().row_bytes() as u64) as f64
        * cfg.cache_rows_scale)
        .round() as u64;
    cfg.distribution
        .cache_hit_fraction(cfg.index_space, cfg.table_rows as u64, cache_rows)
}

/// Build the forward plan for one assembled `batch` under `cfg`'s layout,
/// stamped with the cache-hit fraction — the per-batch analogue of the
/// closed-loop batch preparation, used by the serving path where batches
/// are composed from queued requests rather than drawn from a seed.
pub fn plan_for_batch(cfg: &EmbLayerConfig, batch: &SparseBatch, gpu: &GpuSpec) -> ForwardPlan {
    plan_with_planner(cfg, batch, gpu, HotCachePlanner::new(cfg, gpu).as_ref())
}

/// [`plan_for_batch`] with a caller-owned [`HotCachePlanner`], so call sites
/// that plan many batches (closed-loop runs, the serving pool) rank the
/// warmup trace once instead of per batch. Pass `None` for plain plans.
pub fn plan_with_planner(
    cfg: &EmbLayerConfig,
    batch: &SparseBatch,
    gpu: &GpuSpec,
    planner: Option<&HotCachePlanner>,
) -> ForwardPlan {
    let mut p = plain_plan(cfg, batch, gpu);
    if let Some(pl) = planner {
        pl.annotate(&mut p, batch);
    }
    p
}

/// The plain (uncached, undeduped) forward plan of `batch` under `cfg`'s
/// layout, stamped with the cache-hit fraction: all a batch known only by
/// its bag sizes can be planned with, and what [`plan_with_planner`]
/// annotates.
pub fn plain_plan(
    cfg: &EmbLayerConfig,
    batch: &(impl PlanInput + Sync),
    gpu: &GpuSpec,
) -> ForwardPlan {
    let mut p = ForwardPlan::build(
        batch,
        &cfg.sharding(),
        cfg.dim,
        cfg.pooling,
        cfg.bags_per_block,
    );
    p.cache_hit = cache_hit_for(cfg, gpu);
    p
}

/// What a prepared set is a pure function of: the config (with `n_batches`
/// normalised to the distinct count, the only way it matters), the mode and
/// the GPU the cache-hit derating is computed for. Whole-struct derived
/// equality, so a field added to either struct is in the key by construction.
type PrepareKey = (EmbLayerConfig, ExecMode, GpuSpec);

static PREPARED: Memo<PrepareKey, PreparedBatches> = Memo::new();

/// Generate the distinct batches of a closed-loop run under `cfg` and plan
/// each one — the state every backend's `run` builds before its batch loop.
/// Memoized process-wide (most recently used, bounded by
/// [`crate::memo::MEMO_CAPACITY`] and [`crate::memo::MEMO_BUDGET_BYTES`]):
/// both backends of a comparison, every repetition and every serve load
/// point of one config share one build.
pub fn prepare_batches(
    cfg: &EmbLayerConfig,
    mode: ExecMode,
    gpu: &GpuSpec,
) -> Arc<PreparedBatches> {
    let mut cfg = cfg.clone();
    cfg.n_batches = cfg.distinct_batches.max(1).min(cfg.n_batches.max(1));
    PREPARED.get_or_build((cfg, mode, gpu.clone()), build_prepared)
}

/// Drop every memoized prepared set (whoever holds one keeps it). Never
/// needed for correctness: `reproduce` calls it between experiments so one
/// experiment's plans do not sit in the heap the next one peaks in.
pub fn forget_prepared() {
    PREPARED.clear();
}

/// Resident bytes per block of an executed set: the `BlockPlan`, one
/// `(dst, rows)` pair of its device's destination array (a block sends to a
/// second device only where it straddles a mini-batch), its duration, its
/// retirement instant in the recorded kernel and about four releases (the
/// paper's weak sets merge to two or three per block), each a stored
/// `(ready, dst, rows)` plus its wire `(start, end)` once delivered. What a
/// schedule keeps per device — a send train of a few words per peer — does
/// not count.
const RETAINED_BYTES_PER_BLOCK: usize = size_of::<crate::BlockPlan>()
    + size_of::<(usize, u64)>()
    + size_of::<Dur>()
    + size_of::<SimTime>()
    + 4 * (size_of::<(u32, u32, u64)>() + size_of::<(u32, u32)>());

/// The uncached build behind [`prepare_batches`], and the bytes the result
/// keeps resident; `n_batches` is already the distinct count.
fn build_prepared((cfg, mode, gpu): &PrepareKey) -> (PreparedBatches, usize) {
    let spec = cfg.batch_spec();
    let planner = HotCachePlanner::new(cfg, gpu);
    // Cache/dedup profiling is per-index, so those runs materialize full
    // batches even in timing mode (they only ever run at bench scales).
    let functional = *mode == ExecMode::Functional;
    let need_indices = functional || planner.is_some();
    // Batches are seeded independently and a plan depends only on its batch:
    // generate-then-plan fans out (ordered collect keeps seed-index order).
    let (batches, plans): (Vec<_>, Vec<_>) = (0..cfg.n_batches)
        .into_par_iter()
        .map(|i| {
            let batch = if need_indices {
                SparseBatch::generate(&spec, cfg.batch_seed(i))
            } else {
                SparseBatch::generate_counts_only(&spec, cfg.batch_seed(i))
            };
            let plan = Arc::new(plan_with_planner(cfg, &batch, gpu, planner.as_ref()));
            (functional.then_some(batch), plan)
        })
        .collect::<Vec<_>>()
        .into_iter()
        .unzip();
    let batches: Vec<SparseBatch> = batches.into_iter().flatten().collect();
    let blocks = plans
        .iter()
        .flat_map(|p| &p.devices)
        .map(|dp| dp.blocks.len());
    let csr = batches
        .iter()
        .map(|b| 8 * (b.batch_size() * b.n_features() + b.total_indices()));
    let bytes = RETAINED_BYTES_PER_BLOCK * blocks.sum::<usize>() + csr.sum::<usize>();
    let prepared = PreparedBatches {
        batches,
        plans,
        planner,
        gpu: gpu.clone(),
        planned: OnceLock::new(),
    };
    (prepared, bytes)
}

/// The closed loop behind every backend's `run`: prepare and plan the
/// distinct batches, chain `cfg.n_batches` [`execute_batch`] calls back to
/// back from t = 0, and report. `exchange_for(machine, batch_idx, start)`
/// picks each batch's exchange. With `policy` the loop is degradable: each
/// batch runs under the policy's deadline/device-fill strictness, the books
/// accumulate, and functional outputs carry the policy's fill on the final
/// batch's degraded rows; `None` is the strict loop of the plain backends.
pub(crate) fn run_closed_loop(
    machine: &mut Machine,
    cfg: &EmbLayerConfig,
    mode: ExecMode,
    mut exchange_for: impl FnMut(&Machine, usize, SimTime) -> Exchange,
    mut policy: Option<(&ResiliencePolicy, &mut ResilienceReport)>,
) -> BackendResult {
    let n = machine.n_gpus();
    assert_eq!(n, cfg.n_gpus, "machine/config GPU count mismatch");
    let prepared = prepare_batches(cfg, mode, machine.spec(0));
    let planned = prepared.planned_for(machine);
    let mut via_pgas = true;
    let report = run_batches(
        machine,
        &planned,
        cfg.n_batches,
        |machine, pb, idx, start| {
            let exchange = exchange_for(machine, idx, start);
            via_pgas = !matches!(exchange, Exchange::Collective(_));
            let degrade = policy.as_mut().map(|(p, report)| p.degrade(start, report));
            execute_batch(machine, &exchange, pb, start, None, degrade)
        },
    );

    // --- Functional outputs (small-scale verification runs), through the
    // data-movement code of the exchange that served the final batch. ---
    let outputs = (mode == ExecMode::Functional).then(|| {
        let mut outs = final_batch_outputs(cfg, &prepared, via_pgas);
        if let Some((p, report)) = &policy {
            for (out, &degraded) in outs.iter_mut().zip(&report.degraded_by_dst) {
                resilient::apply_fill(p.fill, out, degraded, cfg.dim);
            }
        }
        outs
    });
    BackendResult { report, outputs }
}

/// Chain `n_batches` batches back to back from t = 0, cycling through
/// `planned`, and report: `each(machine, plan, batch_idx, start)` executes
/// one. The loop of every pass, whoever built its plans.
pub(crate) fn run_batches(
    machine: &mut Machine,
    planned: &[PlannedBatch],
    n_batches: usize,
    mut each: impl FnMut(&mut Machine, &PlannedBatch, usize, SimTime) -> BatchRun,
) -> RunReport {
    let mut breakdown = TimeBreakdown::default();
    let mut batch_start = SimTime::ZERO;
    for batch_idx in 0..n_batches {
        let pb = &planned[batch_idx % planned.len()];
        let run = each(machine, pb, batch_idx, batch_start);
        breakdown.accumulate(&run.breakdown);
        batch_start = run.end;
    }
    RunReport::new(machine, n_batches, breakdown)
}

/// Final-batch functional outputs of a prepared run — the exact code the
/// closed-loop backends execute in [`ExecMode::Functional`], factored out so
/// executed-schedule frontends (the dlrm pipeline engine) get bit-identical
/// predictions by construction rather than by re-implementation. Rows are
/// drawn from their init streams ([`Weights::Init`]), so no table is
/// materialized and host memory grows with lookups, not table size.
/// `via_pgas` selects the PGAS path (pooled rows scattered through the
/// symmetric heap) over the baseline path (exchange + unpack); the two
/// produce bit-equal tensors — the flag exists so each backend keeps
/// exercising its own data-movement code.
pub fn final_batch_outputs(
    cfg: &EmbLayerConfig,
    prepared: &PreparedBatches,
    via_pgas: bool,
) -> Vec<Tensor> {
    let which = (cfg.n_batches.saturating_sub(1)) % prepared.plans.len();
    let plan = &prepared.plans[which];
    let batch = &prepared.batches[which];
    let weights = Weights::Init(cfg.table_spec());
    let pooled: Vec<Vec<f32>> = (0..plan.devices.len())
        .into_par_iter()
        .map(|i| {
            let mut buf = crate::arena::take_f32();
            compute_pooled_rows_into(&plan.devices[i], plan, batch, weights, cfg.seed, &mut buf);
            buf
        })
        .collect();
    let mut outs = if via_pgas {
        scatter_via_symmetric_heap(plan, &pooled)
    } else {
        exchange_and_unpack(plan, &pooled)
    };
    for buf in pooled {
        crate::arena::put_f32(buf);
    }
    if let Some(cache) = prepared.planner.as_ref().and_then(|p| p.cache()) {
        let replicas = crate::HotReplicas::materialize(cache, cfg.table_spec(), cfg.seed);
        apply_hot_imports(plan, batch, &replicas, cfg.table_rows, &mut outs, cfg.seed);
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexDistribution, PoolingOp, Sharding, SparseBatchSpec};

    fn tiny_plan() -> ForwardPlan {
        let b = SparseBatch::generate(
            &SparseBatchSpec {
                batch_size: 8,
                n_features: 2,
                pooling_min: 1,
                pooling_max: 4,
                index_space: 100,
                distribution: IndexDistribution::Uniform,
            },
            1,
        );
        ForwardPlan::build(&b, &Sharding::table_wise_block(2, 2), 8, PoolingOp::Sum, 4)
    }

    #[test]
    fn durations_cover_every_block_and_are_positive() {
        let plan = tiny_plan();
        let spec = GpuSpec::v100();
        for dp in &plan.devices {
            let durs = lookup_block_durations(dp, &plan, &spec);
            assert_eq!(durs.len(), dp.blocks.len());
            assert!(durs.iter().all(|d| !d.is_zero()));
        }
    }

    #[test]
    fn heavier_blocks_take_longer() {
        let plan = tiny_plan();
        let spec = GpuSpec::v100();
        let dp = &plan.devices[0];
        let durs = lookup_block_durations(dp, &plan, &spec);
        for (blk, d) in dp.blocks.iter().zip(&durs) {
            for (blk2, d2) in dp.blocks.iter().zip(&durs) {
                if blk.lookups > blk2.lookups + 8 {
                    assert!(d >= d2, "more lookups should not be faster");
                }
            }
        }
    }

    #[test]
    fn a_block_retains_what_its_layout_holds() {
        assert_eq!(size_of::<crate::BlockPlan>(), 32);
        assert_eq!(RETAINED_BYTES_PER_BLOCK, 32 + 16 + 8 + 8 + 4 * (16 + 8));
    }

    #[test]
    fn prepare_batches_respects_mode_and_pool_size() {
        let cfg = EmbLayerConfig::paper_weak_scaling(2).scaled_down(512);
        let timing = prepare_batches(&cfg, ExecMode::Timing, &GpuSpec::v100());
        assert_eq!(timing.plans.len(), cfg.distinct_batches);
        assert!(timing.batches.is_empty(), "Timing mode keeps no batch");
        let f = prepare_batches(&cfg, ExecMode::Functional, &GpuSpec::v100());
        assert!(f.batches[0].has_indices());
        assert_eq!(f.plans.len(), f.batches.len());
    }
}
