//! The retrieval backend: one [`Backend`] value, `{ exchange, policy }`.
//! The paper's two systems are two [`Exchange`]s — the baseline's
//! collective and the fused kernel's one-sided stores — and a
//! [`ResiliencePolicy`] makes either degrade instead of stall.
//!
//! Every exchange consumes the same [`ForwardPlan`], drives the same
//! simulated machine, and (in functional mode) produces bit-comparable
//! outputs — so every difference in the reported timings comes from the
//! communication scheme, which is exactly the paper's experimental design.

mod functional;
mod resilient;
mod single;

pub use functional::{
    apply_hot_imports, compute_pooled_rows, compute_pooled_rows_into, exchange_and_unpack,
    materialize_shards, scatter_via_symmetric_heap, Weights,
};
pub use resilient::{DegradedFill, ResiliencePolicy, ResilienceReport, ResilientResult};
pub use single::{execute_batch, ArrivalLog, BatchRun, Degrade, Exchange, PlannedBatch};
pub(crate) use single::{Emission, Pass, Tail};

pub use crate::cache::{HotCachePlanner, HotReplicas, HotRowCache, IndexDedupMap};
#[allow(deprecated)]
pub use crate::compat::{BaselineBackend, PgasFusedBackend, ResilientBackend, RetrievalBackend};

use std::sync::{Arc, OnceLock};

use desim::{Dur, SimTime};
use gpusim::{GpuSpec, KernelShape, Machine};
use pgas_rt::{AggregatorConfig, GatewayConfig, PgasConfig};
use simccl::CollectiveConfig;
use simtensor::Tensor;

use crate::memo::Memo;
use crate::{EmbLayerConfig, ForwardPlan, PlanInput, RunReport, SparseBatch, TimeBreakdown};

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

/// Fraction of peak HBM bandwidth a random-row gather kernel sustains.
/// Scattered 256 B reads do not stream; 0.65 matches measured V100 gather
/// throughput (and the paper's sub-peak `ncu` numbers).
pub(crate) const GATHER_EFFICIENCY: f64 = 0.65;

/// `blocks` gather blocks of `bytes` of global-memory traffic each, derated
/// by [`GATHER_EFFICIENCY`]; a block's 8 dependent accesses are its latency
/// floor. The one shape every lookup kernel is costed by.
pub(crate) fn gather_shape(blocks: u64, bytes: u64) -> KernelShape {
    KernelShape {
        blocks,
        bytes_per_block: round_u64(bytes as f64 / GATHER_EFFICIENCY),
        flops_per_block: 0,
        dependent_accesses: 8,
    }
}

/// `x.round() as u64`, for every `x`, without a call into libm: below 2⁵³
/// the fraction `x - trunc(x)` is exact, and above it `x` is whole.
fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    if x < 9_007_199_254_740_992.0 && x - t as f64 >= 0.5 {
        t + 1
    } else {
        t
    }
}

/// Per-block service durations of the lookup kernel of every device of
/// `plan`, `[device][block]`, on GPUs of `spec(device)`.
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
///
/// On a plain device a full block's duration is a function of its lookups
/// alone for one GPU and resident count, so it is computed once per
/// distinct lookup count, into a table spanning the plain devices' range of
/// full-block lookups when that range is at most [`TABLE_SPAN_PER_BLOCK`]
/// times their block count, and shared by the devices it holds for. A
/// partial block, a wider range, an annotated device and import blocks take
/// the formula.
pub(crate) fn lookup_block_durations<'s>(
    plan: &ForwardPlan,
    spec: impl Fn(usize) -> &'s GpuSpec,
) -> Vec<Vec<Dur>> {
    let row_bytes = plan.row_bytes() as u64;
    let full = u32::try_from(plan.bags_per_block).ok();
    let range = full_block_range(plan);
    // Raw ns from lookups `lo` on, 0 until computed (a duration that is 0 is
    // just computed again), for the GPU and resident count it was filled for.
    let mut table: Vec<u64> = Vec::new();
    let mut filled_for: Option<(&GpuSpec, u32)> = None;
    let mut durations = Vec::with_capacity(plan.devices.len());
    for dp in &plan.devices {
        let import_blocks = dp.imported_bags.len().div_ceil(plan.bags_per_block);
        let n_blocks = dp.blocks.len() + import_blocks;
        let mut durs: Vec<Dur> = Vec::with_capacity(n_blocks);
        if n_blocks == 0 {
            durations.push(durs);
            continue;
        }
        let spec = spec(dp.device);
        let resident = KernelShape::effective_resident(n_blocks as u64, spec.max_resident_blocks());
        let block_time = |bytes: u64| gather_shape(1, bytes).block_time(spec, resident);
        let plain = |lookups: u64, n_bags: u32| {
            // Row reads that hit in L2 never reach HBM (skewed inputs).
            let hbm_reads = round_u64(lookups as f64 * (1.0 - plan.cache_hit));
            block_time(hbm_reads * row_bytes + lookups * 8 + n_bags as u64 * row_bytes)
        };
        if !dp.cache_stats.is_empty() {
            let blocks = dp.blocks.iter().enumerate();
            durs.extend(blocks.map(|(i, b)| match dp.cache_stats.get(i) {
                Some(s) => block_time(
                    s.hbm_fetches * row_bytes + s.lookups * 8 + s.n_bags as u64 * row_bytes,
                ),
                None => plain(b.lookups, b.n_bags),
            }));
        } else if let Some((lo, span)) = range {
            if filled_for != Some((spec, resident)) {
                table.clear();
                table.resize(span, 0);
                filled_for = Some((spec, resident));
            }
            durs.extend(dp.blocks.iter().map(|b| {
                if Some(b.n_bags) != full {
                    return plain(b.lookups, b.n_bags);
                }
                let slot = &mut table[(b.lookups - lo) as usize];
                if *slot == 0 {
                    *slot = plain(b.lookups, b.n_bags).as_ns();
                }
                Dur::from_ns(*slot)
            }));
        } else {
            durs.extend(dp.blocks.iter().map(|b| plain(b.lookups, b.n_bags)));
        }
        for chunk in dp.imported_bags.chunks(plan.bags_per_block) {
            let lookups: u64 = chunk.iter().map(|b| b.lookups as u64).sum();
            durs.push(block_time(lookups * 8 + chunk.len() as u64 * row_bytes));
        }
        durations.push(durs);
    }
    durations
}

/// How wide the range of full-block lookups may be, per block, for
/// [`lookup_block_durations`] to tabulate it: a table a few slots a block
/// wide costs less to fill than the formula once a block.
const TABLE_SPAN_PER_BLOCK: usize = 4;

/// The lowest lookup count of a full block on `plan`'s plain devices and the
/// width of their range, when [`lookup_block_durations`] tabulates it.
fn full_block_range(plan: &ForwardPlan) -> Option<(u64, usize)> {
    let full = u32::try_from(plan.bags_per_block).ok()?;
    let plain = plan.devices.iter().filter(|dp| dp.cache_stats.is_empty());
    let blocks = plain.flat_map(|dp| &dp.blocks).filter(|b| b.n_bags == full);
    let (mut lo, mut hi, mut count) = (u64::MAX, 0, 0);
    for b in blocks {
        (lo, hi, count) = (lo.min(b.lookups), hi.max(b.lookups), count + 1);
    }
    let span = usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?;
    (span <= TABLE_SPAN_PER_BLOCK * count).then_some((lo, span))
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
            self.plans
                .iter()
                .map(|plan| PlannedBatch::new(machine, Arc::clone(plan)))
                .collect()
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
/// `(ready, dst, rows)` plus its wire end once delivered. What a
/// schedule keeps per device — a send train of a few words per peer — does
/// not count.
const RETAINED_BYTES_PER_BLOCK: usize = size_of::<crate::BlockPlan>()
    + size_of::<(usize, u64)>()
    + size_of::<Dur>()
    + size_of::<SimTime>()
    + 4 * (size_of::<(u32, u32, u64)>() + size_of::<u32>());

/// The uncached build behind [`prepare_batches`], and the bytes the result
/// keeps resident; `n_batches` is already the distinct count.
fn build_prepared((cfg, mode, gpu): &PrepareKey) -> (PreparedBatches, usize) {
    let spec = cfg.batch_spec();
    let planner = HotCachePlanner::new(cfg, gpu);
    // Cache/dedup profiling is per-index, so those runs materialize full
    // batches even in timing mode (they only ever run at bench scales).
    let functional = *mode == ExecMode::Functional;
    let need_indices = functional || planner.is_some();
    // Batches are seeded independently and a plan depends only on its batch,
    // generated and planned in seed-index order.
    let (batches, plans): (Vec<_>, Vec<_>) = (0..cfg.n_batches)
        .map(|i| {
            let batch = if need_indices {
                SparseBatch::generate(&spec, cfg.batch_seed(i))
            } else {
                SparseBatch::generate_counts_only(&spec, cfg.batch_seed(i))
            };
            let plan = Arc::new(plan_with_planner(cfg, &batch, gpu, planner.as_ref()));
            (functional.then_some(batch), plan)
        })
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

/// A retrieval backend: where a batch's pooled rows hit the wire, and how
/// much degradation the batch accepts. [`Backend::run_batch`] is the one
/// place a batch's exchange and degradation are chosen — for the closed
/// loop, the dlrm pipeline engine and the serving loop alike.
#[derive(Clone, Copy, Debug)]
pub struct Backend {
    /// The exchange every batch runs over, unless the policy fails over.
    pub exchange: Exchange,
    /// `None` is strict: no deadline, a lost device is waited out, nothing
    /// is accounted. With a policy each batch runs under its deadline and
    /// device fill, the run keeps [`ResilienceReport`] books, functional
    /// outputs carry its fill, and a one-sided or gateway exchange fails
    /// over to the default collective once `failover_flaps` trips. On a
    /// clean fabric the policy has nothing to act on: timing and outputs
    /// are the strict backend's, bit for bit.
    pub policy: Option<ResiliencePolicy>,
}

impl Backend {
    /// The baseline: lookup kernel → `all_to_all_single` → sync + unpack
    /// (paper §IV), with NCCL-like defaults (direct peer-to-peer, 4 MiB
    /// chunks); strict.
    pub fn baseline() -> Self {
        Backend {
            exchange: Exchange::Collective(CollectiveConfig::default()),
            policy: None,
        }
    }

    /// The paper's PGAS fused backend: one-sided 256 B stores issued per
    /// thread block while the lookup kernel runs, placing every pooled row
    /// at its final remote location; NVSHMEM-like defaults; strict.
    pub fn pgas() -> Self {
        Backend {
            exchange: Exchange::OneSided(PgasConfig::default()),
            policy: None,
        }
    }

    /// PGAS fused with cross-node stores routed through the per-node
    /// gateway proxy under the `flush` policy ([`Exchange::Gateway`]). On a
    /// single-node topology it is the flat backend, bit for bit.
    pub fn gateway(flush: AggregatorConfig) -> Self {
        let pgas = PgasConfig::default();
        Backend {
            exchange: Exchange::Gateway(GatewayConfig { pgas, flush }),
            policy: None,
        }
    }

    /// This backend under `policy`.
    pub fn with_policy(self, policy: ResiliencePolicy) -> Self {
        Backend {
            policy: Some(policy),
            ..self
        }
    }

    /// Stable name for tables and CSV rows.
    pub fn name(&self) -> &'static str {
        match (self.exchange, self.policy) {
            (Exchange::Collective(_), _) => "baseline",
            (_, None) => "pgas-fused",
            (_, Some(_)) => "pgas-resilient",
        }
    }

    /// Execute one batch at `start` over `exchange` — or over the default
    /// collective once the policy's `failover_flaps` has tripped on a
    /// one-sided or gateway exchange, recorded in `books.failover_at` —
    /// under the policy's [`Degrade`], recorded in `books`. Without a policy
    /// the batch runs strictly and `books` is untouched.
    pub fn run_batch(
        &self,
        machine: &mut Machine,
        pb: &PlannedBatch,
        start: SimTime,
        log: Option<&mut ArrivalLog>,
        books: &mut ResilienceReport,
    ) -> BatchRun {
        let Some(policy) = self.policy else {
            return execute_batch(machine, &self.exchange, pb, start, log, None);
        };
        let mut exchange = self.exchange;
        if !matches!(exchange, Exchange::Collective(_)) && policy.tripped(machine, start) {
            books.failover_at.get_or_insert(books.batch_latencies.len());
            exchange = Exchange::Collective(CollectiveConfig::default());
        }
        let degrade = policy.degrade(start, books);
        execute_batch(machine, &exchange, pb, start, log, Some(degrade))
    }

    /// Final-batch functional outputs of a run that kept `books`: through
    /// the data-movement code of the exchange that served the final batch
    /// ([`final_batch_outputs`]), with the policy's fill on its degraded
    /// rows.
    pub fn final_outputs(
        &self,
        cfg: &EmbLayerConfig,
        prepared: &PreparedBatches,
        books: &ResilienceReport,
    ) -> Vec<Tensor> {
        let collective = matches!(self.exchange, Exchange::Collective(_));
        let mut outs =
            final_batch_outputs(cfg, prepared, !collective && books.failover_at.is_none());
        if let Some(p) = self.policy {
            for (out, &degraded) in outs.iter_mut().zip(&books.degraded_by_dst) {
                resilient::apply_fill(p.fill, out, degraded, cfg.dim);
            }
        }
        outs
    }

    /// [`Backend::run_resilient`] without the policy's books.
    pub fn run(
        &self,
        machine: &mut Machine,
        cfg: &EmbLayerConfig,
        mode: ExecMode,
    ) -> BackendResult {
        self.run_resilient(machine, cfg, mode).result
    }

    /// Execute `cfg.n_batches` batches on `machine` back to back from t =
    /// 0, cycling through the distinct batches [`prepare_batches`] plans,
    /// and report, with the policy's books (empty without a policy). The
    /// machine should be fresh: the report embeds its whole-run traffic
    /// statistics. With a policy no fabric fault fails the run: every batch
    /// completes and functional outputs are always produced.
    pub fn run_resilient(
        &self,
        machine: &mut Machine,
        cfg: &EmbLayerConfig,
        mode: ExecMode,
    ) -> ResilientResult {
        assert_eq!(
            machine.n_gpus(),
            cfg.n_gpus,
            "machine/config GPU count mismatch"
        );
        let prepared = prepare_batches(cfg, mode, machine.spec(0));
        let planned = prepared.planned_for(machine);
        let mut books = ResilienceReport::default();
        let report = run_batches(machine, &planned, cfg.n_batches, |machine, pb, start| {
            self.run_batch(machine, pb, start, None, &mut books)
        });
        let outputs =
            (mode == ExecMode::Functional).then(|| self.final_outputs(cfg, &prepared, &books));
        ResilientResult {
            result: BackendResult { report, outputs },
            resilience: books,
        }
    }
}

/// Chain `n_batches` batches back to back from t = 0, cycling through
/// `planned`, and report: `each(machine, plan, start)` executes one. The
/// loop of every pass, whoever built its plans.
pub(crate) fn run_batches(
    machine: &mut Machine,
    planned: &[PlannedBatch],
    n_batches: usize,
    mut each: impl FnMut(&mut Machine, &PlannedBatch, SimTime) -> BatchRun,
) -> RunReport {
    let mut breakdown = TimeBreakdown::default();
    let mut batch_start = SimTime::ZERO;
    for batch_idx in 0..n_batches {
        let pb = &planned[batch_idx % planned.len()];
        let run = each(machine, pb, batch_start);
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
    let pooled: Vec<Vec<f32>> = plan
        .devices
        .iter()
        .map(|dp| {
            let mut buf = crate::arena::take_f32();
            compute_pooled_rows_into(dp, plan, batch, weights, cfg.seed, &mut buf);
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
    use gpusim::MachineConfig;

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
        let all = lookup_block_durations(&plan, |_| &spec);
        for (dp, durs) in plan.devices.iter().zip(all) {
            assert_eq!(durs.len(), dp.blocks.len());
            assert!(durs.iter().all(|d| !d.is_zero()));
        }
    }

    #[test]
    fn heavier_blocks_take_longer() {
        let plan = tiny_plan();
        let spec = GpuSpec::v100();
        let dp = &plan.devices[0];
        let durs = &lookup_block_durations(&plan, |_| &spec)[0];
        for (blk, d) in dp.blocks.iter().zip(durs) {
            for (blk2, d2) in dp.blocks.iter().zip(durs) {
                if blk.lookups > blk2.lookups + 8 {
                    assert!(d >= d2, "more lookups should not be faster");
                }
            }
        }
    }

    /// One device's durations as [`lookup_block_durations`] computed them before
    /// the table, the formula once a block with libm's `round`: the oracle the
    /// table and [`round_u64`] are held to.
    fn lookup_block_durations_per_block(
        dp: &crate::DevicePlan,
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
                bytes_per_block: (bytes as f64 / GATHER_EFFICIENCY).round() as u64,
                ..gather_shape(1, 0)
            };
            shape.block_time(spec, resident)
        };
        let mut durs: Vec<Dur> = (dp.blocks.iter().enumerate())
            .map(|(i, b)| {
                let bytes = match dp.cache_stats.get(i) {
                    Some(s) => {
                        s.hbm_fetches * row_bytes + s.lookups * 8 + s.n_bags as u64 * row_bytes
                    }
                    None => {
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

    /// The durations, shared table and all, equal the per-block formula
    /// `Dur` for `Dur`: plain plans with a partial last block at three
    /// cache-hit fractions, a partial block as heavy as a full one, a
    /// device whose GPU differs, a range too wide to tabulate, and an
    /// annotated plan with import blocks.
    #[test]
    fn duration_table_equals_the_per_block_formula() {
        let v100 = GpuSpec::v100();
        let slower = GpuSpec {
            mem_bw: v100.mem_bw / 2.0,
            ..v100
        };
        let check = |plan: &ForwardPlan, specs: [&GpuSpec; 4], label: &str| {
            let got = lookup_block_durations(plan, |d| specs[d]);
            assert_eq!(got.len(), plan.devices.len());
            for (dp, durs) in plan.devices.iter().zip(&got) {
                let want = lookup_block_durations_per_block(dp, plan, specs[dp.device]);
                assert_eq!(*durs, want, "{label}: device {}", dp.device);
            }
        };
        let batch = |n: usize, pooling_max: u32, seed: u64| {
            let spec = SparseBatchSpec {
                batch_size: n,
                n_features: 8,
                pooling_min: 1,
                pooling_max,
                index_space: 1000,
                distribution: IndexDistribution::Uniform,
            };
            SparseBatch::generate_counts_only(&spec, seed)
        };
        let sharding = Sharding::table_wise_block(8, 4);
        // 8 features of 1 000 samples over 4 devices, 128 bags a block: each
        // device's last block holds 80 bags.
        for (cache_hit, seed) in [(0.0, 1), (0.35, 2), (0.9, 3)] {
            let mut plan =
                ForwardPlan::build(&batch(1000, 4, seed), &sharding, 64, PoolingOp::Sum, 128);
            plan.cache_hit = cache_hit;
            assert!(full_block_range(&plan).is_some(), "tabulated");
            assert!(plan
                .devices
                .iter()
                .all(|dp| dp.blocks.last().unwrap().n_bags == 80));
            check(&plan, [&v100; 4], &format!("plain, cache_hit {cache_hit}"));
            check(&plan, [&v100, &v100, &slower, &v100], "device 2 slower");
            // A partial block whose lookups a full block has too, first on
            // device 1 and last on device 3.
            let heavy = plan.devices[1].blocks[3].lookups;
            let dp = &mut plan.devices[1];
            dp.blocks.insert(0, dp.blocks[0]);
            (dp.blocks[0].n_bags, dp.blocks[0].lookups) = (100, heavy);
            let dp = &mut plan.devices[3];
            dp.push_block(0, 127, heavy, []);
            check(&plan, [&v100; 4], "partial blocks as heavy as full ones");
        }
        // Pooling up to 4 000 spreads 16 blocks' lookups past the bound.
        let wide = ForwardPlan::build(&batch(1000, 4000, 4), &sharding, 64, PoolingOp::Sum, 128);
        assert_eq!(full_block_range(&wide), None, "untabulated");
        check(&wide, [&v100; 4], "wide");
        // Measured cache stats and import blocks.
        let mut cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(512);
        cfg.distribution = IndexDistribution::Zipf { exponent: 1.2 };
        cfg.hot_cache_rows = 512;
        cfg.dedup = true;
        let b = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(0));
        let annotated = plan_for_batch(&cfg, &b, &v100);
        assert!(annotated
            .devices
            .iter()
            .all(|dp| !dp.cache_stats.is_empty()));
        assert!(annotated
            .devices
            .iter()
            .any(|dp| !dp.imported_bags.is_empty()));
        assert_eq!(full_block_range(&annotated), None, "no plain device");
        check(&annotated, [&v100; 4], "annotated");
    }

    #[test]
    fn rounding_without_libm_is_rounds() {
        let halves = [0.5, 1.5, 2.5, 0.49999999999999994, 4503599627370495.5];
        let edges = [
            0.0,
            -0.0,
            -0.7,
            -2.5,
            1e300,
            f64::NAN,
            f64::INFINITY,
            9007199254740993.0,
        ];
        for x in halves.into_iter().chain(edges) {
            assert_eq!(round_u64(x), x.round() as u64, "{x}");
        }
        let mut x = 1.0f64;
        while x < 1e19 {
            for y in [x, x * 1.37, x + 0.5, x - 0.5, x * 0.999] {
                assert_eq!(round_u64(y), y.round() as u64, "{y}");
            }
            x *= 1.9;
        }
    }

    #[test]
    fn a_block_retains_what_its_layout_holds() {
        assert_eq!(size_of::<crate::BlockPlan>(), 32);
        assert_eq!(RETAINED_BYTES_PER_BLOCK, 32 + 16 + 8 + 8 + 4 * (16 + 4));
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

    fn closed_cfg(g: usize) -> EmbLayerConfig {
        let mut c = EmbLayerConfig::paper_weak_scaling(g).scaled_down(512);
        c.n_batches = 3;
        c.distinct_batches = 2;
        c
    }

    fn run(
        be: Backend,
        fabric: MachineConfig,
        cfg: &EmbLayerConfig,
        mode: ExecMode,
    ) -> BackendResult {
        be.run(&mut Machine::new(fabric), cfg, mode)
    }

    #[test]
    fn baseline_report_splits_into_three_phases() {
        let cfg = closed_cfg(2);
        let res = run(
            Backend::baseline(),
            MachineConfig::dgx_v100(2),
            &cfg,
            ExecMode::Timing,
        );
        let r = &res.report;
        assert_eq!(r.batches, 3);
        assert_eq!(r.total, r.breakdown.total());
        assert!(!r.breakdown.compute.is_zero());
        assert!(!r.breakdown.communication.is_zero());
        assert!(!r.breakdown.sync_unpack.is_zero());
        assert!(r.traffic.payload_bytes > 0);
        assert!(res.outputs.is_none());
    }

    #[test]
    fn pgas_report_hides_communication() {
        let cfg = closed_cfg(2);
        let r = run(
            Backend::pgas(),
            MachineConfig::dgx_v100(2),
            &cfg,
            ExecMode::Timing,
        )
        .report;
        assert_eq!(r.batches, 3);
        assert!(!r.breakdown.compute.is_zero());
        assert_eq!(r.breakdown.communication, Dur::ZERO);
        assert!(!r.breakdown.sync_unpack.is_zero());
        assert!(r.traffic.payload_bytes > 0);
        assert!(r.traffic.messages > r.traffic.payload_bytes / (1 << 20));
    }

    #[test]
    fn single_gpu_has_no_wire_traffic() {
        let cfg = closed_cfg(1);
        let res = run(
            Backend::baseline(),
            MachineConfig::dgx_v100(1),
            &cfg,
            ExecMode::Timing,
        );
        assert_eq!(res.report.traffic.payload_bytes, 0);
        // But compute and sync+unpack still cost time.
        assert!(!res.report.breakdown.compute.is_zero());
        assert!(!res.report.breakdown.sync_unpack.is_zero());
    }

    #[test]
    fn both_exchanges_produce_equal_functional_outputs() {
        let cfg = closed_cfg(2);
        let outs = |be| {
            let res = run(be, MachineConfig::dgx_v100(2), &cfg, ExecMode::Functional);
            res.outputs.expect("functional outputs")
        };
        let (b, p) = (outs(Backend::baseline()), outs(Backend::pgas()));
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].dims(), &[cfg.mb_size(), cfg.n_features * cfg.dim]);
        for (x, y) in p.iter().zip(&b) {
            assert!(x.allclose(y, 0.0), "backends must agree exactly");
        }
    }

    #[test]
    fn more_batches_cost_proportionally_more() {
        let mut cfg = closed_cfg(2);
        cfg.distinct_batches = 1;
        cfg.n_batches = 2;
        let r2 = run(
            Backend::baseline(),
            MachineConfig::dgx_v100(2),
            &cfg,
            ExecMode::Timing,
        );
        cfg.n_batches = 4;
        let r4 = run(
            Backend::baseline(),
            MachineConfig::dgx_v100(2),
            &cfg,
            ExecMode::Timing,
        );
        let ratio = r4.report.total.as_secs_f64() / r2.report.total.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn gpu_count_mismatch_panics() {
        let cfg = closed_cfg(2);
        run(
            Backend::baseline(),
            MachineConfig::dgx_v100(3),
            &cfg,
            ExecMode::Timing,
        );
    }

    #[test]
    fn gateway_is_identical_on_single_node_and_coalesces_on_pods() {
        let cfg = closed_cfg(4);
        let gateway = Backend::gateway(AggregatorConfig::default());
        // Single node: the proxy has nothing to stage — reports match the
        // flat backend exactly.
        let flat = run(
            Backend::pgas(),
            MachineConfig::dgx_v100(4),
            &cfg,
            ExecMode::Timing,
        );
        let gw = run(gateway, MachineConfig::dgx_v100(4), &cfg, ExecMode::Timing);
        assert_eq!(flat.report.total, gw.report.total);
        assert_eq!(flat.report.traffic, gw.report.traffic);
        // Two-tier pod: the proxy must strictly cut message count (the
        // coalesced inter-node stream replaces per-row puts).
        let flat = run(
            Backend::pgas(),
            MachineConfig::pod_v100(2, 2),
            &cfg,
            ExecMode::Timing,
        );
        let gw = run(
            gateway,
            MachineConfig::pod_v100(2, 2),
            &cfg,
            ExecMode::Timing,
        );
        assert!(
            gw.report.traffic.messages < flat.report.traffic.messages,
            "gateway must coalesce: {} >= {}",
            gw.report.traffic.messages,
            flat.report.traffic.messages
        );
    }

    #[test]
    fn pgas_sends_small_messages_early_and_wins() {
        let cfg = closed_cfg(2);
        // Observed, so the payload series is recorded.
        let observed = |be: Backend| {
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            m.enable_telemetry();
            be.run(&mut m, &cfg, ExecMode::Timing).report
        };
        let (p, b) = (observed(Backend::pgas()), observed(Backend::baseline()));
        // Same payload moved (both convert the same layout)…
        assert_eq!(p.traffic.payload_bytes, b.traffic.payload_bytes);
        // …but PGAS uses vastly more, vastly smaller messages…
        assert!(p.traffic.messages > 10 * b.traffic.messages);
        assert!(p.traffic.header_overhead() > b.traffic.header_overhead());
        // …which enter the wire during the kernel, where the baseline's
        // first traffic appears only after it…
        let first_nonzero = |series: &desim::TimeSeries| {
            series
                .points()
                .find(|&(_, v)| v > 0.0)
                .map(|(t, _)| t)
                .unwrap()
        };
        assert!(first_nonzero(&p.comm_series) <= first_nonzero(&b.comm_series));
        // …and finish first.
        assert!(
            p.total < b.total,
            "pgas {} vs baseline {}",
            p.total,
            b.total
        );
    }

    #[test]
    #[allow(deprecated)]
    fn the_constructors_by_name_are_the_backends() {
        assert_eq!(BaselineBackend::new().name(), "baseline");
        assert_eq!(PgasFusedBackend::new().name(), "pgas-fused");
        assert_eq!(ResilientBackend::new().name(), "pgas-resilient");
        assert!(ResilientBackend::new().policy.is_some());
        assert!(matches!(
            PgasFusedBackend::with_gateway(AggregatorConfig::default()).exchange,
            Exchange::Gateway(_)
        ));
        let cfg = closed_cfg(2);
        let by_trait: &dyn RetrievalBackend = &Backend::pgas();
        assert_eq!(by_trait.name(), "pgas-fused");
        let fabric = || MachineConfig::dgx_v100(2);
        let a = by_trait.run(&mut Machine::new(fabric()), &cfg, ExecMode::Timing);
        let b = run(Backend::pgas(), fabric(), &cfg, ExecMode::Timing);
        assert_eq!(a.report.total, b.report.total);
    }

    /// DESIGN.md §4's calibration table, rendered from the values the model
    /// runs on: a constant and the row that documents it cannot drift apart.
    /// The Basis column is DESIGN.md's own prose.
    #[test]
    fn design_calibration_table_is_the_code() {
        use gpusim::LinkSpec;
        let (gpu, link) = (GpuSpec::v100(), LinkSpec::nvlink_v100());
        let gbs = |bw: f64| format!("{} GB/s", bw / 1e9);
        let dur = |d: Dur| match d.as_ns() {
            ns if ns < 1000 => format!("{ns} ns"),
            ns => format!("{} µs", ns as f64 / 1e3),
        };
        let at = |path: &str| format!("`{path}`");
        let v100 = |field: &str| at(&format!("GpuSpec::v100().{field}"));
        let nvlink = |field: &str| at(&format!("LinkSpec::nvlink_v100().{field}"));
        let gather = format!("{GATHER_EFFICIENCY} × peak");
        let protocol = format!("{} × link", simccl::PROTOCOL_EFFICIENCY);
        let code = [
            ("HBM2 peak bandwidth", gbs(gpu.mem_bw), v100("mem_bw")),
            (
                "Gather-kernel efficiency",
                gather,
                at("emb_retrieval::backend::GATHER_EFFICIENCY"),
            ),
            (
                "Occupancy saturation",
                format!("{} resident blocks", gpu.blocks_to_saturate),
                v100("blocks_to_saturate"),
            ),
            (
                "Per-pair one-sided store bandwidth",
                gbs(link.bandwidth),
                nvlink("bandwidth"),
            ),
            (
                "NCCL protocol efficiency",
                protocol,
                at("simccl::PROTOCOL_EFFICIENCY"),
            ),
            (
                "Unpack throughput",
                gbs(single::UNPACK_BW),
                at("emb_retrieval::backend::single::UNPACK_BW"),
            ),
            ("Per-GPU injection port", gbs(gpu.inj_bw), v100("inj_bw")),
            (
                "Header bytes",
                format!("{} B", link.header_bytes),
                nvlink("header_bytes"),
            ),
            (
                "Kernel launch",
                dur(gpu.kernel_launch),
                v100("kernel_launch"),
            ),
            ("Stream sync", dur(gpu.stream_sync), v100("stream_sync")),
            ("Memory latency", dur(gpu.mem_latency), v100("mem_latency")),
            ("Link latency", dur(link.latency), nvlink("latency")),
            (
                "NCCL call",
                dur(simccl::CALL_OVERHEAD),
                at("simccl::CALL_OVERHEAD"),
            ),
            (
                "Put issue",
                dur(pgas_rt::ISSUE_OVERHEAD),
                at("pgas_rt::ISSUE_OVERHEAD"),
            ),
            (
                "Quiet",
                dur(pgas_rt::QUIET_OVERHEAD),
                at("pgas_rt::QUIET_OVERHEAD"),
            ),
            (
                "Barrier",
                dur(pgas_rt::BARRIER_OVERHEAD),
                at("pgas_rt::BARRIER_OVERHEAD"),
            ),
        ];
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(path).expect("DESIGN.md at the workspace root");
        let section = design
            .split("\n## ")
            .find(|s| s.starts_with("4. "))
            .expect("a §4");
        let documented: Vec<Vec<&str>> = (section.lines())
            .filter_map(|l| l.strip_prefix("| ")?.strip_suffix(" |"))
            .map(|l| l.splitn(4, " | ").collect())
            .filter(|cells: &Vec<&str>| cells.len() == 4 && cells[0] != "Constant")
            .collect();
        let row = |name: &str| documented.iter().find(|cells| cells[0] == name);
        let mut wrong = Vec::new();
        for (name, value, place) in &code {
            match row(name) {
                None => wrong.push(format!("row `{name}` is missing from DESIGN.md")),
                Some(cells) if (cells[1], cells[2]) != (value, place) => wrong.push(format!(
                    "row `{name}`: DESIGN.md has \"{} | {}\", the code \"{value} | {place}\"",
                    cells[1], cells[2]
                )),
                Some(_) => {}
            }
        }
        for cells in documented
            .iter()
            .filter(|c| !code.iter().any(|r| r.0 == c[0]))
        {
            wrong.push(format!(
                "row `{}` of DESIGN.md is no constant in the code",
                cells[0]
            ));
        }
        let table: String = (code.iter())
            .map(|(name, value, place)| {
                let basis = row(name).map_or("?", |cells| cells[3]);
                format!("| {name} | {value} | {place} | {basis} |\n")
            })
            .collect();
        assert!(
            wrong.is_empty(),
            "DESIGN.md §4 differs from the code:\n{}\n\nthe table to paste:\n\
             | Constant | Value | Where | Basis |\n|---|---|---|---|\n{table}",
            wrong.join("\n")
        );
    }
}
