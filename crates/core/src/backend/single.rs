//! Per-batch execution surface: run *one* batch over any exchange at an
//! arbitrary start instant.
//!
//! [`Backend::run_batch`](crate::backend::Backend::run_batch) picks a
//! batch's exchange and degradation and calls [`execute_batch`]: the closed
//! loop chains it back-to-back, the online serving layer (`emb-serve`)
//! invokes it at the instants its micro-batcher closes batches, and the dlrm
//! pipeline engine interleaves it with its own stream work; the row-wise and
//! backward passes call [`execute_batch`] directly. Because every path
//! shares the one function, a batch of identical
//! composition costs identical simulated time whether it was replayed in a
//! closed loop or assembled from queued requests — which is what lets
//! serving latencies be compared against the paper's Table I timings
//! directly — and the only thing that differs between the paper's two
//! systems is the [`Exchange`].

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use desim::{Dur, SimTime};
use gpusim::{GpuSpec, KernelRun, KernelShape, Machine, SendTrain};
use pgas_rt::{
    coalesce_rows, Delivery, FabricError, Faults, GatewayConfig, GatewayPut, OneSided, PgasConfig,
};
use simccl::{all_to_all, CollectiveConfig};
use telemetry::causal::{BlameCategory, Lane, SpanGraph};

use crate::arena;
use crate::backend::lookup_block_durations;
use crate::backend::resilient::ResilienceReport;
use crate::{DevicePlan, ForwardPlan, TimeBreakdown};

/// A batch plus everything precomputed for executing it on a machine:
/// per-device block durations and the all-to-all byte matrix. Build once,
/// execute many times (the closed loop cycles a small pool of these).
#[derive(Clone, Debug)]
pub struct PlannedBatch {
    plan: Arc<ForwardPlan>,
    /// Per-device lookup-kernel block durations, indexed `[device][block]`.
    durations: Vec<Vec<Dur>>,
    /// All-to-all payload bytes, indexed `[src][dst]`.
    byte_matrix: Vec<Vec<u64>>,
    /// What the pass does around the exchange.
    pass: Pass,
    /// Per device, what its first executions left on record.
    schedules: Vec<DeviceSchedule>,
    /// The arrival gates of a batch whose every device replays, from the
    /// first gated log to meet one: GPUs × chunks × 8 bytes.
    gates: OnceLock<PlanGates>,
}

/// What differs between the passes [`execute_batch`] runs — the table-wise
/// forward ([`PlannedBatch::new`]), the row-wise forward ([`crate::rowwise`])
/// and the backward pass ([`crate::backward`]) — beyond who sends what
/// (`DevicePlan::dest_rows`) and how long a block runs (`durations`). Data the
/// plan carries, not control flow: DESIGN §9 says what each field is a
/// function of.
#[derive(Clone, Debug)]
pub(crate) struct Pass {
    /// Per device, the kernel that follows its wait on a collective: the
    /// unpack, or row-wise's reduce of the partial rows.
    pub(crate) after_collective: Vec<Tail>,
    /// Per device, the kernel that follows the exchange of either kind, before
    /// the final stream sync (backward's scatter-add). Empty: none.
    pub(crate) after_exchange: Vec<Tail>,
    /// How a fused kernel's blocks emit their stores.
    pub(crate) emission: Emission,
    /// Host time a collective costs every device on top of its completion,
    /// counted in the exchange and in the wait: backward's one stream sync per
    /// ring round.
    pub(crate) collective_syncs: Dur,
}

/// How a fused kernel puts a block's remote rows on the wire.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Emission {
    /// While the block runs ([`stream_releases_into`]: up to 32 sub-releases
    /// per kernel, sorted by `(ready, destination)`, equal keys merged).
    Streamed,
    /// One put per `(block, destination)` the instant the block retires, in
    /// block order, nothing merged.
    AtRetirement,
}

/// A kernel of `blocks` equal blocks of `tau` each, booked by its length: a
/// tail can have 10⁵ blocks at paper scale, so none keeps a duration list.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tail {
    blocks: u64,
    tau: Dur,
}

impl Tail {
    /// `shape`'s launch on a GPU of `spec`.
    pub(crate) fn of(shape: KernelShape, spec: &GpuSpec) -> Tail {
        let resident = KernelShape::effective_resident(shape.blocks, spec.max_resident_blocks());
        Tail {
            blocks: shape.blocks,
            tau: shape.block_time(spec, resident),
        }
    }

    /// The memory-bound kernel over `bytes` in 128 KiB blocks.
    pub(crate) fn chunked(bytes: u64, spec: &GpuSpec) -> Tail {
        let blocks = bytes.div_ceil(128 << 10).max(1);
        Tail::of(KernelShape::memory_bound(blocks, 128 << 10), spec)
    }

    /// The same kernel as a block list, for a launch whose blocks matter:
    /// they emit stores, or a straggler stretches each.
    pub(crate) fn durations(self) -> Vec<Dur> {
        vec![self.tau; self.blocks as usize]
    }
}

/// One device's part of a plan, each part stored by the first execution
/// able to and replayed by later ones. All of it holds at straggler factor
/// 1.0 only, where `run_kernel_varied` is integer ns from the kernel's start
/// (no float path) and a release instant is a block end minus a
/// duration-derived offset. Stored instants are `u32` ns from that start; one
/// that does not fit means no record, never a truncated one.
#[derive(Clone, Debug, Default)]
struct DeviceSchedule {
    /// The lookup kernel as first launched on a healthy device, by any
    /// exchange: later launches are it, moved to their own start.
    kernel: OnceLock<KernelRun>,
    /// The fused kernel's store releases `(ready, dst, rows)` in wire order,
    /// from the first one-sided or gateway execution: 16 bytes each, and 4
    /// more in `deliveries` once delivered.
    releases: OnceLock<Option<Vec<(u32, u32, u64)>>>,
    /// When each release was delivered, from the first one-sided execution
    /// the machine agreed to record.
    deliveries: OnceLock<Deliveries>,
}

/// When each release was delivered (its wire end), valid under the runtime
/// settings that turn a release into a send (`PgasConfig::{max_payload,
/// issue_overhead}`); which fabric it is valid on is the train's to check.
#[derive(Clone, Debug)]
struct Deliveries {
    key: (u32, Dur),
    ends: Vec<u32>,
    train: SendTrain,
}

fn offset(t: SimTime, origin: SimTime) -> Option<u32> {
    u32::try_from((t - origin).as_ns()).ok()
}

/// A launched lookup kernel: `run`, moved to begin at `start`. A borrowed
/// run is the device's recorded one, to which the schedule's offsets apply.
struct Launched<'p> {
    start: SimTime,
    run: Cow<'p, KernelRun>,
}

impl Launched<'_> {
    fn recorded(&self) -> bool {
        matches!(self.run, Cow::Borrowed(_))
    }

    fn end(&self) -> SimTime {
        self.start + self.run.interval.duration()
    }

    fn block_ends(&self) -> impl Iterator<Item = SimTime> + '_ {
        let (start, ran_at) = (self.start, self.run.interval.start);
        let ends = self.run.block_ends.iter();
        ends.map(move |&t| start + (t - ran_at))
    }
}

/// Effective throughput of the unpack/rearrangement step in bytes/s. The
/// baseline's received buffer is source-major; turning it into `[mb, S,
/// dim]` is a strided permute done through framework tensor ops (split /
/// cat / transpose), which sustains a small fraction of HBM peak. 26 GB/s
/// is calibrated from the paper's measured sync+unpack phase (DESIGN.md §4).
const UNPACK_BW: f64 = 26e9;

/// The fused kernel's one-sided store release schedule for one device,
/// appended to `releases` as `(wire-entry instant, destination, rows)`,
/// sorted by `(instant, destination)` with same-key entries merged — the
/// order a link actually sees (blocks of one wave issue in lockstep).
///
/// Release granularity: enough sub-releases that each kernel has ~32
/// distinct wire-entry instants regardless of its wave structure
/// (single-wave kernels still overlap). Shared by the flat and gateway
/// one-sided exchanges so both put identical traffic on the wire, and the
/// only builder: `PlannedBatch::releases_into` calls it once per device and
/// replays the result, or per batch for a straggling device. `resident` and
/// `block_ends` are the kernel execution's ([`gpusim::KernelRun`]).
/// Takes a caller-provided buffer (cleared first) rather than returning a
/// fresh map: a reused sorted `Vec` keeps the per-batch path
/// allocation-free and the merge pass a flat scan instead of per-entry
/// tree rebalancing.
fn stream_releases_into(
    dp: &DevicePlan,
    durs: &[Dur],
    resident: u32,
    block_ends: impl Iterator<Item = SimTime>,
    releases: &mut Vec<arena::Release>,
) {
    releases.clear();
    let waves = (dp.blocks.len() as u64).div_ceil(resident.max(1) as u64);
    let subs = (32 / waves.max(1)).clamp(1, 32);
    for ((blk, end), &tau) in dp.blocks.iter().zip(block_ends).zip(durs) {
        for &(dst, rows) in dp.dest_rows(blk) {
            if dst == dp.device {
                continue;
            }
            let k = subs.min(rows);
            let base = rows / k;
            let rem = rows % k;
            for s in 0..k {
                let part = base + u64::from(s < rem);
                if part == 0 {
                    continue;
                }
                let ready = end - tau * (k - 1 - s) * (1.0 / k as f64);
                releases.push((ready, dst, part));
            }
        }
    }
    releases.sort_unstable_by_key(|a| (a.0, a.1));
    releases.dedup_by(|b, a| {
        if a.0 == b.0 && a.1 == b.1 {
            a.2 += b.2;
            true
        } else {
            false
        }
    });
}

impl PlannedBatch {
    /// Precompute execution state for the table-wise forward pass of `plan`
    /// on `machine`'s GPUs: per-device block durations and byte rows, in
    /// `[device]` order.
    pub fn new(machine: &Machine, plan: impl Into<Arc<ForwardPlan>>) -> Self {
        let plan = plan.into();
        let n = plan.n_devices;
        let durations = plan
            .devices
            .iter()
            .map(|dp| lookup_block_durations(dp, &plan, machine.spec(dp.device)))
            .collect();
        // Rearrangement touches every *received* byte twice (read
        // source-major, write [mb, S, dim]); the local chunk was already
        // written in place by the lookup kernel. The byte matrix's inbound
        // column is `ForwardPlan::unpack_rows` in bytes without that
        // function's walk over every block: `mb_sizes[d] × remote_features`
        // rows on plain plans, less the cache-exported and dedup-collapsed
        // ones on annotated plans. One block: the kernel is as long as it.
        let unpack = |sent: &[Vec<u64>], d: usize| {
            let inbound: u64 = (0..n).filter(|&s| s != d).map(|s| sent[s][d]).sum();
            debug_assert_eq!(inbound, plan.unpack_rows(d) * plan.row_bytes() as u64);
            Tail {
                blocks: 1,
                tau: Dur::from_secs_f64((2 * inbound) as f64 / UNPACK_BW),
            }
        };
        Self::with_pass(Arc::clone(&plan), durations, |sent| Pass {
            after_collective: (0..n).map(|d| unpack(sent, d)).collect(),
            after_exchange: Vec::new(),
            emission: Emission::Streamed,
            collective_syncs: Dur::ZERO,
        })
    }

    /// `plan` with its kernels' block `durations` and the pass `pass` makes of
    /// the all-to-all byte matrix. A pass whose collective form launches a
    /// kernel that is not the plan's blocks (`durations[d]` of another
    /// length) cannot be executed one-sided.
    pub(crate) fn with_pass(
        plan: Arc<ForwardPlan>,
        durations: Vec<Vec<Dur>>,
        pass: impl FnOnce(&[Vec<u64>]) -> Pass,
    ) -> Self {
        let n = plan.n_devices;
        let row_bytes = plan.row_bytes() as u64;
        let byte_matrix: Vec<Vec<u64>> = plan
            .devices
            .iter()
            .map(|dp| (0..n).map(|g| dp.rows_to(g) * row_bytes).collect())
            .collect();
        PlannedBatch {
            schedules: vec![DeviceSchedule::default(); plan.devices.len()],
            gates: OnceLock::new(),
            pass: pass(&byte_matrix),
            plan,
            durations,
            byte_matrix,
        }
    }

    /// Device `dp.device`'s store releases for the kernel launch `k`, into
    /// `out`, as the pass emits them: built (for a streamed pass, sorted and
    /// merged) once per device instead of once per batch — the first recorded
    /// launch's releases relative to its kernel start are every later one's.
    /// A straggling device's launch takes the builder directly, per batch.
    fn releases_into(&self, dp: &DevicePlan, k: &Launched<'_>, out: &mut Vec<arena::Release>) {
        let durs = &self.durations[dp.device];
        let build = |out: &mut Vec<arena::Release>| match self.pass.emission {
            Emission::Streamed => {
                stream_releases_into(dp, durs, k.run.resident, k.block_ends(), out)
            }
            Emission::AtRetirement => {
                out.clear();
                for (blk, end) in dp.blocks.iter().zip(k.block_ends()) {
                    let remote = dp
                        .dest_rows(blk)
                        .iter()
                        .filter(|&&(dst, _)| dst != dp.device);
                    out.extend(remote.map(|&(dst, rows)| (end, dst, rows)));
                }
            }
        };
        let stored = k.recorded().then(|| {
            self.schedules[dp.device].releases.get_or_init(|| {
                build(out);
                let stored = out.iter();
                stored
                    .map(|&(t, dst, rows)| Some((offset(t, k.start)?, dst as u32, rows)))
                    .collect()
            })
        });
        let Some(stored) = stored.and_then(Option::as_ref) else {
            return build(out);
        };
        out.clear();
        let at = |ready: u32| k.start + Dur::from_ns(ready.into());
        out.extend(
            stored
                .iter()
                .map(|&(ready, dst, rows)| (at(ready), dst as usize, rows)),
        );
    }

    /// A one-sided exchange emits per block, so every device's kernel must be
    /// its plan's blocks (and import blocks) — not the byte-chunked kernel of
    /// a pass's collective form, whose blocks would pair with the wrong
    /// durations and retirement instants.
    fn assert_kernels_are_blocks(&self) {
        for (dp, durs) in self.plan.devices.iter().zip(&self.durations) {
            let imports = dp.imported_bags.len().div_ceil(self.plan.bags_per_block);
            let blocks = dp.blocks.len() + imports;
            assert_eq!(
                durs.len(),
                blocks,
                "one-sided: device {}'s kernel",
                dp.device
            );
        }
    }

    /// Push the arrivals device `src`'s recorded kernel and deliveries make
    /// from a launch at `start`: its own rows at their blocks' retirement,
    /// its remote rows at their delivery.
    fn log_recorded(&self, log: &mut ArrivalLog, src: usize, start: SimTime) {
        let sched = &self.schedules[src];
        let (Some(run), Some(Some(releases)), Some(d)) = (
            sched.kernel.get(),
            sched.releases.get(),
            sched.deliveries.get(),
        ) else {
            unreachable!("device {src} replayed without a full record");
        };
        let k = Launched {
            start,
            run: Cow::Borrowed(run),
        };
        let dp = &self.plan.devices[src];
        log_local_rows(log, dp, self.plan.bags_per_block, k.block_ends());
        for (&(_, dst, rows), &end) in releases.iter().zip(&d.ends) {
            log.push(dst as usize, start + Dur::from_ns(end.into()), rows);
        }
    }

    /// The gates of `chunks` spans for a batch whose every device replays
    /// its recorded deliveries, as offsets from the kernels' common start:
    /// built on first use from the records, which fix them (the deliveries
    /// carry their own runtime key), and kept for one chunk count. `None`
    /// for another count.
    fn gates(&self, chunks: usize) -> Option<&[u64]> {
        let gates = self.gates.get_or_init(|| {
            let n = self.plan.n_devices;
            let mut log = ArrivalLog::gated(chunks);
            log.reset(n);
            for d in 0..n {
                self.log_recorded(&mut log, d, SimTime::ZERO);
            }
            log.settle();
            let offset = |(i, t): (usize, &SimTime)| {
                let d = i / chunks;
                debug_assert_eq!(log.totals[d], self.rows_delivered_to(d));
                if log.totals[d] == 0 {
                    NO_ROWS
                } else {
                    t.as_ns()
                }
            };
            let offsets = log.gates.iter().enumerate().map(offset).collect();
            PlanGates { chunks, offsets }
        });
        (gates.chunks == chunks).then_some(&gates.offsets)
    }

    /// Pooled rows the plan delivers to `d`, its own included.
    fn rows_delivered_to(&self, d: usize) -> u64 {
        let sent: u64 = self.byte_matrix.iter().map(|from| from[d]).sum();
        sent / self.plan.row_bytes() as u64 + self.plan.devices[d].imported_bags.len() as u64
    }

    /// The underlying forward plan.
    pub fn plan(&self) -> &ForwardPlan {
        &self.plan
    }

    /// Per-device lookup-kernel block durations (`[device][block]`).
    pub fn durations(&self) -> &[Vec<Dur>] {
        &self.durations
    }

    /// All-to-all payload byte matrix (`[src][dst]`).
    pub fn byte_matrix(&self) -> &[Vec<u64>] {
        &self.byte_matrix
    }

    /// Pooled output rows this batch serves (over all devices and features).
    pub fn total_rows(&self) -> u64 {
        self.plan
            .mb_sizes
            .iter()
            .map(|&m| (m * self.plan.n_features) as u64)
            .sum()
    }
}

/// Per-destination arrival schedule of one batch's pooled output rows —
/// the release stream the paper's fused emission makes visible to
/// consumers, exposed so an executed pipeline schedule can gate downstream
/// (interaction/MLP) chunks on actual data availability.
///
/// Semantics per [`Exchange`]:
/// - **One-sided**: one entry per one-sided put at its wire-delivery
///   instant, plus local rows at their producing block's retirement and
///   hot-cache import blocks at theirs — rows become consumable *before*
///   the quiet/barrier tail, which is exactly the overlap the fused
///   schedule converts into end-to-end speedup.
/// - **Collective**: a single entry per device at its post-unpack
///   stream-sync — the bulk-synchronous collective releases everything at
///   once.
/// - **Gateway**: local rows at block retirement and same-node puts at
///   their delivery, as one-sided; rows staged for another node at the
///   origin's `quiet` fence, which covers every scatter that carries them
///   — a conservative bound, since the proxy reports no per-row delivery.
///
/// Two kinds of log. [`ArrivalLog::new`] keeps every entry
/// ([`ArrivalLog::arrivals`]). [`ArrivalLog::gated`] serves a consumer that
/// splits the output into `chunks` equal spans: [`ArrivalLog::gate`] is the
/// earliest instant the cumulative rows cross `(c+1)/chunks` of the total.
/// A gated log reads the gates of a batch whose every device replayed its
/// recorded deliveries from kernels launched at one instant `S` off the
/// [`PlannedBatch`] (`S` plus offsets computed once per plan), and keeps no
/// entries for it; any other batch builds, sorts and walks its entries.
///
/// Observation only: passing a log changes neither timing nor traffic.
#[derive(Clone, Debug, Default)]
pub struct ArrivalLog {
    /// `arrivals[dst]` = `(instant, rows)` entries, sorted by instant after
    /// [`ArrivalLog::finish`].
    arrivals: Vec<Vec<(SimTime, u64)>>,
    /// Rows delivered to each destination so far.
    totals: Vec<u64>,
    /// Spans the consumer gates on; 0 for a log that keeps entries only.
    chunks: usize,
    /// `gates[dst · chunks + c]`, set by [`ArrivalLog::finish`].
    gates: Vec<SimTime>,
    /// Devices whose deliveries replayed, with their kernel start: their
    /// entries are pushed at [`ArrivalLog::finish`], and only if the batch's
    /// gates cannot be read off the plan.
    replayed: Vec<(usize, SimTime)>,
}

/// A plan gate of a destination no row reaches: [`SimTime::ZERO`], not an
/// offset from the batch's kernel start.
const NO_ROWS: u64 = u64::MAX;

/// The arrival gates of a [`PlannedBatch`] whose every device replays its
/// recorded deliveries, as ns offsets from the kernels' common start.
#[derive(Clone, Debug)]
struct PlanGates {
    chunks: usize,
    /// `[dst · chunks + c]`, [`NO_ROWS`] for an empty destination.
    offsets: Vec<u64>,
}

impl ArrivalLog {
    /// An empty log that keeps every entry; sized on first use by
    /// [`execute_batch`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log for a consumer of `chunks` (at least 1) equal spans of
    /// each destination's rows.
    pub fn gated(chunks: usize) -> Self {
        ArrivalLog {
            chunks: chunks.max(1),
            ..Self::default()
        }
    }

    /// Clear and size for `n` destination devices.
    fn reset(&mut self, n: usize) {
        self.arrivals.iter_mut().for_each(Vec::clear);
        self.arrivals.resize(n, Vec::new());
        self.totals.clear();
        self.totals.resize(n, 0);
        self.gates.clear();
        self.replayed.clear();
    }

    fn push(&mut self, dst: usize, at: SimTime, rows: u64) {
        if rows > 0 {
            self.arrivals[dst].push((at, rows));
            self.totals[dst] += rows;
        }
    }

    /// Device `src`'s deliveries replayed from a kernel launched at `start`.
    fn defer(&mut self, src: usize, start: SimTime) {
        self.replayed.push((src, start));
    }

    /// Settle the batch `pb`: gates off the plan where every device
    /// replayed from one start; otherwise the deferred entries, sorted, and
    /// gates from one cumulative walk per destination.
    fn finish(&mut self, pb: &PlannedBatch) {
        let n = self.arrivals.len();
        let whole = self.chunks > 0 && self.replayed.len() == n;
        let start = self.replayed.first().map(|&(_, s)| s);
        let one_start = start.filter(|&s| whole && self.replayed.iter().all(|r| r.1 == s));
        if let Some((s, offsets)) = one_start.and_then(|s| Some((s, pb.gates(self.chunks)?))) {
            let at = |off: u64| match off {
                NO_ROWS => SimTime::ZERO,
                off => s + Dur::from_ns(off),
            };
            self.gates.extend(offsets.iter().map(|&off| at(off)));
            for d in 0..n {
                self.totals[d] = pb.rows_delivered_to(d);
            }
            return;
        }
        let replayed = std::mem::take(&mut self.replayed);
        for &(src, start) in &replayed {
            pb.log_recorded(self, src, start);
        }
        self.replayed = replayed;
        self.settle();
    }

    /// Sort every destination's entries and, for a gated log, walk them
    /// once for all its gates.
    fn settle(&mut self) {
        let k = self.chunks;
        for (a, &total) in self.arrivals.iter_mut().zip(&self.totals) {
            a.sort_unstable();
            let (mut cum, mut at, mut entries) = (0, SimTime::ZERO, a.iter());
            for c in 0..k {
                if total > 0 {
                    let frac = (c + 1) as f64 / k as f64;
                    let target = ((frac * total as f64).ceil() as u64).clamp(1, total);
                    while cum < target {
                        let Some(&(t, rows)) = entries.next() else {
                            break;
                        };
                        (cum, at) = (cum + rows, t);
                    }
                }
                self.gates.push(at);
            }
        }
    }

    /// Number of destination devices covered.
    pub fn n_devices(&self) -> usize {
        self.arrivals.len()
    }

    /// The sorted `(instant, rows)` arrivals into `dst`: every entry of the
    /// batch, except on a gated log whose batch read its gates off the
    /// plan, where there are none.
    pub fn arrivals(&self, dst: usize) -> &[(SimTime, u64)] {
        &self.arrivals[dst]
    }

    /// Total pooled rows delivered to `dst`.
    pub fn total_rows(&self, dst: usize) -> u64 {
        self.totals[dst]
    }

    /// Gated log: the earliest instant at which at least `(c+1)/chunks` of
    /// `dst`'s rows have arrived — the gate for the consumer's chunk `c`,
    /// which reads that span of the output. [`SimTime::ZERO`] for a
    /// destination no row reaches.
    pub fn gate(&self, dst: usize, c: usize) -> SimTime {
        self.gates[dst * self.chunks + c]
    }
}

/// Timing of one executed batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchRun {
    /// Instant execution began (the batch's admission to the machine).
    pub start: SimTime,
    /// Instant every device finished (barrier-synchronized).
    pub end: SimTime,
    /// This batch's compute / communication / sync+unpack split.
    pub breakdown: TimeBreakdown,
}

impl BatchRun {
    /// Wall time the batch occupied the machine.
    pub fn service(&self) -> Dur {
        self.end - self.start
    }
}

/// When a batch's pooled rows hit the wire — the one thing the paper's two
/// systems (and the pod extension) do differently. Everything else about a
/// batch (plan, kernels, machine, observers) is shared by [`execute_batch`].
#[derive(Clone, Copy, Debug)]
pub enum Exchange {
    /// After the kernel: `all_to_all_single`, then a per-device wait and
    /// unpack kernel (the baseline).
    Collective(CollectiveConfig),
    /// Per thread block, while it executes: fused one-sided stores, then a
    /// `quiet` per PE and a barrier (the paper's contribution).
    OneSided(PgasConfig),
    /// Per staged flush: the one-sided schedule with cross-node stores
    /// routed through a [`GatewayPut`] proxy that coalesces rows bound for
    /// a remote node into one aggregate message per destination node
    /// (flushed on size/age), scattered intra-node by the destination
    /// gateway. On a single-node topology every put bypasses the proxy, so
    /// this is bit-identical to [`Exchange::OneSided`]. The proxy is
    /// fault-blind: its puts pass [`Faults::Ignore`] and it has no deadline.
    Gateway(GatewayConfig),
}

/// How much degradation a caller accepts for one batch, and the books it is
/// recorded in. Build one per batch from a policy with
/// [`ResiliencePolicy::degrade`](crate::backend::ResiliencePolicy::degrade).
/// Passing `None` to [`execute_batch`] is the strict policy: no deadline,
/// lost devices are waited out, and nothing is accounted.
#[derive(Debug)]
pub struct Degrade<'a> {
    /// Absolute completion deadline. Rows still in flight when it expires
    /// are abandoned (served from the fill) instead of stalling the batch.
    pub deadline: Option<SimTime>,
    /// Serve a device lost at batch start from hot-cache replicas + fill
    /// immediately instead of stalling until it recovers.
    pub device_fill: bool,
    /// Accumulates across batches exactly as a closed-loop run would.
    pub report: &'a mut ResilienceReport,
}

/// Execute one batch at `start` over `exchange` — the single per-batch entry
/// point every closed loop, the serving layer and the pipeline engine drive.
///
/// Fault-aware: collective chunks and one-sided puts meet the fault plan
/// with [`Faults::Retry`] (a clean fabric books them on the first attempt)
/// and the gateway proxy with [`Faults::Ignore`]. Blame spans, trace
/// flows and telemetry are recorded whenever the machine has them on.
/// `log` (reset to this batch) receives the output-availability schedule
/// and `degrade` the degradation policy and books; both are pure
/// observation on a clean fabric.
pub fn execute_batch(
    machine: &mut Machine,
    exchange: &Exchange,
    pb: &PlannedBatch,
    start: SimTime,
    log: Option<&mut ArrivalLog>,
    degrade: Option<Degrade<'_>>,
) -> BatchRun {
    let mut b = Batch::begin(machine, pb, start, log, degrade);
    // `comm_end`: when communication ended. One-sided stores are fused into
    // the kernels, so whatever follows them is the quiet/barrier tail.
    let comm_end = match *exchange {
        Exchange::Collective(cc) => Some(b.collective(&cc)),
        Exchange::OneSided(pgas) => {
            let fences = b.one_sided(pgas);
            b.completion_tail(pgas, fences);
            None
        }
        Exchange::Gateway(gw) => {
            let fences = b.gateway(gw);
            b.completion_tail(gw.pgas, fences);
            None
        }
    };
    b.finish(comm_end)
}

/// Per-PE completion fences of a one-sided exchange: the `quiet` instants
/// and, when blame is on, the span recorded for each.
struct Fences {
    at: Vec<SimTime>,
    spans: Vec<Option<usize>>,
}

/// One batch in flight: the state the shared prologue sets up, the exchange
/// bodies fill in and the shared epilogue turns into a [`BatchRun`].
/// Per-device scratch comes from the batch arena — serving loops execute a
/// batch per micro-batch, and warm slabs make that allocation-free.
struct Batch<'a, 'r> {
    machine: &'a mut Machine,
    pb: &'a PlannedBatch,
    start: SimTime,
    log: Option<&'a mut ArrivalLog>,
    degrade: Option<Degrade<'r>>,
    /// Lookup-kernel retirement per device (`start` for a filled device).
    k_end: Vec<SimTime>,
    /// Blame span of each device's lookup kernel (empty when blame is off).
    kernel_spans: Vec<Option<usize>>,
    /// Devices lost at `start` whose shard was served from replicas + fill:
    /// they launch no kernel and take no part in the exchange.
    filled: Vec<bool>,
    /// Host-visible completion per device, set by the exchange body.
    end: Vec<SimTime>,
    /// Each device's last blame span; the latest finisher's terminates the
    /// batch's critical-path walk (empty when blame is off).
    end_spans: Vec<Option<usize>>,
    any_lost: bool,
    missed_deadline: bool,
}

impl<'a, 'r> Batch<'a, 'r> {
    /// Batch-level prologue: scratch, observer resets, blame cursor.
    fn begin(
        machine: &'a mut Machine,
        pb: &'a PlannedBatch,
        start: SimTime,
        mut log: Option<&'a mut ArrivalLog>,
        mut degrade: Option<Degrade<'r>>,
    ) -> Self {
        let n = pb.plan().n_devices;
        if let Some(l) = log.as_deref_mut() {
            l.reset(n);
        }
        if let Some(g) = &mut degrade {
            g.report.degraded_by_dst.clear();
            g.report.degraded_by_dst.resize(n, 0);
        }
        let (mut kernel_spans, mut end_spans) = (Vec::new(), Vec::new());
        if let Some(b) = machine.blame_mut() {
            b.set_kind(BlameCategory::GatherPool);
            b.set_cause(None);
            kernel_spans.resize(n, None);
            end_spans.resize(n, None);
        }
        let mut k_end = arena::take_time();
        k_end.resize(n, start);
        let mut filled = arena::take_bool();
        filled.resize(n, false);
        let mut end = arena::take_time();
        end.resize(n, start);
        Batch {
            machine,
            pb,
            start,
            log,
            degrade,
            k_end,
            kernel_spans,
            filled,
            end,
            end_spans,
            any_lost: false,
            missed_deadline: false,
        }
    }

    fn deadline(&self) -> Option<SimTime> {
        self.degrade.as_ref().and_then(|g| g.deadline)
    }

    /// Per-device prologue: launch `dp`'s lookup kernel and anchor the
    /// device's wire-span causes on it. A device lost at `start` either has
    /// its shard served right away (`device_fill`: the hot fraction from
    /// the replicas other devices hold, the rest from the fill — no kernel,
    /// no transfers, no stall; returns `None`) or its kernel, and so the
    /// whole batch, waits out the outage. Once a healthy launch is on
    /// record, later ones book its length without dispatching the blocks.
    fn launch(&mut self, dp: &DevicePlan) -> Option<Launched<'a>> {
        let d = dp.device;
        let mut ready = self.start;
        if let Some(up_at) = self.machine.device_down_until(d, self.start) {
            self.any_lost = true;
            if self.degrade.as_ref().is_some_and(|g| g.device_fill) {
                self.filled[d] = true;
                let plan = self.pb.plan();
                for dst in 0..plan.n_devices {
                    let rows = dp.rows_to(dst);
                    let replica = (rows as f64 * plan.measured_hit) as u64;
                    if let Some(g) = &mut self.degrade {
                        g.report.replica_rows += replica;
                    }
                    shed(&mut self.degrade, dst, rows - replica);
                }
                return None;
            }
            ready = up_at;
        }
        let pb = self.pb;
        let (durs, record) = (&pb.durations()[d], &pb.schedules[d].kernel);
        let timed = record.get().and_then(|k| {
            let length = k.interval.duration();
            let at = self
                .machine
                .run_kernel_timed(d, durs.len(), length, ready)?;
            Some((at.start, Cow::Borrowed(k)))
        });
        let (start, run) = timed.unwrap_or_else(|| {
            let run = self.machine.run_kernel_varied(d, durs, ready);
            let start = run.interval.start;
            if self.machine.straggler_factor(d) == 1.0 {
                (start, Cow::Borrowed(record.get_or_init(|| run)))
            } else {
                (start, Cow::Owned(run))
            }
        });
        let launched = Launched { start, run };
        self.k_end[d] = launched.end();
        let span = self.machine.blame_last_span();
        if let Some(b) = self.machine.blame_mut() {
            b.set_device_cause(d as u32, span);
            self.kernel_spans[d] = span;
        }
        Some(launched)
    }

    /// Collective exchange: the pass's kernels → `all_to_all_single` →
    /// per-device wait, the pass's after-collective kernel (unpack, reduce)
    /// and its after-exchange one (scatter-add), if any. Returns the instant
    /// communication ended.
    fn collective(&mut self, cc: &CollectiveConfig) -> SimTime {
        let plan = self.pb.plan();
        let pass = &self.pb.pass;
        let n = plan.n_devices;
        for dp in &plan.devices {
            self.launch(dp);
        }
        let k_max = self.machine.barrier(&self.k_end);
        let deadline = self.deadline();
        // Rows destined to `d` from producers that actually transmitted
        // (filled devices' rows were accounted at launch).
        let remote_rows = |filled: &[bool], d: usize| -> u64 {
            plan.devices
                .iter()
                .filter(|dp| dp.device != d && !filled[dp.device])
                .map(|dp| dp.rows_to(d))
                .sum()
        };
        // A filled device neither sends nor receives: zero its outbound
        // byte row and every producer's column to it, so the collective
        // never models traffic touching the dead device (its completion
        // time would otherwise leak into a barrier no live device waits
        // on).
        let masked: Vec<Vec<u64>>;
        let bytes = if self.filled.contains(&true) {
            masked = (0..n)
                .map(|s| {
                    (0..n)
                        .map(|d| {
                            if self.filled[s] || self.filled[d] {
                                0
                            } else {
                                self.pb.byte_matrix()[s][d]
                            }
                        })
                        .collect()
                })
                .collect();
            &masked[..]
        } else {
            self.pb.byte_matrix()
        };
        let work = match all_to_all(self.machine, cc, bytes, &self.k_end, Faults::Retry) {
            Ok(work) => work,
            Err(e) => {
                // The collective itself exhausted its retries: all of this
                // batch's remote rows are served from the fill, and every
                // device proceeds once it has observed the failure.
                let at = e.observed_at();
                for d in 0..n {
                    shed(&mut self.degrade, d, remote_rows(&self.filled, d));
                    self.end[d] = self.machine.stream_sync(d, self.k_end[d].max(at));
                    self.blame_sync(d, self.k_end[d], false);
                }
                return self.machine.barrier(&self.end);
            }
        };
        if let Some(g) = &mut self.degrade {
            g.report.retries += work.retries();
        }
        let mut c_end = arena::take_time();
        c_end.extend((0..n).map(|d| work.done_at(d) + pass.collective_syncs));
        let c_max = self.machine.barrier(&c_end).max(k_max);
        arena::put_time(c_end);

        for d in 0..n {
            if self.filled[d] {
                // Lost device: no inbound wait, no unpack kernel.
                continue;
            }
            let waited = work.wait(self.machine, d, self.k_end[d]) + pass.collective_syncs;
            if let Some(dl) = deadline.filter(|&dl| waited > dl) {
                // Serve the fill for everything remote; no unpack of data
                // that never arrived.
                self.missed_deadline = true;
                shed(&mut self.degrade, d, remote_rows(&self.filled, d));
                self.end[d] = self.machine.stream_sync(d, dl);
                self.blame_sync(d, self.k_end[d], false);
                continue;
            }
            // The kernel after the wait was gated by the last transfer landing
            // on d (d's own kernel when nothing crossed the wire); one after
            // the exchange, by that kernel.
            let cause = self.machine.blame().and_then(|b| {
                b.last_inbound(d as u32)
                    .or_else(|| b.device_cause(d as u32))
            });
            let tail = pass.after_collective[d];
            let mut done = self.run_tail(d, tail, waited, BlameCategory::Unpack, cause);
            if let Some(&tail) = pass.after_exchange.get(d) {
                let cause = self.machine.blame_last_span();
                done = self.run_tail(d, tail, done, BlameCategory::GatherPool, cause);
            }
            self.end[d] = self.machine.stream_sync(d, done);
            self.blame_sync(d, done, true);
            if let Some(l) = self.log.as_deref_mut() {
                // Bulk-synchronous release: every row the plan delivers to d
                // becomes consumable at once, after wait + kernels + sync.
                l.push(d, self.end[d], self.pb.rows_delivered_to(d));
            }
        }
        c_max
    }

    /// Book `tail` on `d`, not before `ready`: by its length, or block by
    /// block on a straggler. Its blame span bills `kind` — rearranging or
    /// reducing received rows is [`BlameCategory::Unpack`], scatter-add, the
    /// lookup's transpose over the same tables, [`BlameCategory::GatherPool`]
    /// — and was caused by `cause`. Returns its end.
    fn run_tail(
        &mut self,
        d: usize,
        tail: Tail,
        ready: SimTime,
        kind: BlameCategory,
        cause: Option<usize>,
    ) -> SimTime {
        if let Some(b) = self.machine.blame_mut() {
            b.set_kind(kind);
            b.set_cause(cause);
        }
        let Tail { blocks, tau } = tail;
        let max_resident = self.machine.spec(d).max_resident_blocks();
        let resident = KernelShape::effective_resident(blocks, max_resident);
        let length = tau * blocks.div_ceil(u64::from(resident));
        match self
            .machine
            .run_kernel_timed(d, blocks as usize, length, ready)
        {
            Some(interval) => interval.end,
            None => {
                let run = self.machine.run_kernel_varied(d, &tail.durations(), ready);
                run.interval.end
            }
        }
    }

    /// Blame: `d`'s final stream sync, `[from, end[d]]`, caused by the last
    /// kernel after its wait (the span recorded last) — or, when the wait was
    /// abandoned and nothing was `unpacked`, by its lookup kernel.
    fn blame_sync(&mut self, d: usize, from: SimTime, unpacked: bool) {
        let last = self.machine.blame_last_span();
        if let Some(b) = self.machine.blame_mut() {
            let cause = if unpacked { last } else { self.kernel_spans[d] };
            self.end_spans[d] = Some(sync_span(b, Lane::Gpu(d as u32), from, self.end[d], cause));
        }
    }

    /// One-sided exchange: fused kernels whose stores stream onto the wire
    /// *while each block executes* (paper Listing 2), so a block's remote
    /// rows are spread across its execution interval rather than released
    /// in a burst at retirement; then a `quiet` per PE. A device whose
    /// deliveries are on record offers them to the machine first and issues
    /// its stores one by one only where that is refused.
    fn one_sided(&mut self, pgas: PgasConfig) -> Fences {
        self.pb.assert_kernels_are_blocks();
        let plan = self.pb.plan();
        let n = plan.n_devices;
        let row_bytes = plan.row_bytes();
        let deadline = self.deadline();
        let mut fences = self.fences();
        let mut releases = arena::take_release();
        // Rows whose delivery lands past the deadline: degraded only if the
        // quiet actually abandons them (it always observes them).
        let mut late_by_dst = arena::take_u64();
        for dp in &plan.devices {
            let src = dp.device;
            let Some(k) = self.launch(dp) else { continue };
            // A deadline wants every delivery held against it, one by one.
            if deadline.is_none() && self.replay_deliveries(src, &k, &pgas) {
                if let Some(l) = self.log.as_deref_mut() {
                    l.defer(src, k.start);
                }
                // Straight to the fence (no blame span: blame is off here).
                let k_end = k.end();
                fences.at[src] = OneSided::with_config(self.machine, pgas).quiet(src, k_end);
                continue;
            }
            if let Some(l) = self.log.as_deref_mut() {
                log_local_rows(l, dp, plan.bags_per_block, k.block_ends());
            }
            if deadline.is_some() {
                late_by_dst.clear();
                late_by_dst.resize(n, 0);
            }
            self.pb.releases_into(dp, &k, &mut releases);
            // Leave the deliveries on record, if they are not yet and the
            // machine agrees to record the sends as a train.
            let sched = &self.pb.schedules[src];
            let recording = matches!(sched.releases.get(), Some(Some(_)))
                && k.recorded()
                && sched.deliveries.get().is_none()
                && self.machine.record_train(src, k.start);
            let mut ends = Vec::with_capacity(if recording { releases.len() } else { 0 });
            let mut os = OneSided::with_config(self.machine, pgas);
            for &(ready, dst, rows) in releases.iter() {
                let batch = coalesce_rows(rows, row_bytes, pgas.max_payload);
                let put = os.put(src, dst, batch, ready, Faults::Retry);
                count_put(&mut self.degrade, &put);
                let Ok(put) = put else {
                    // Retry budget exhausted: only these rows degrade.
                    shed(&mut self.degrade, dst, rows);
                    continue;
                };
                let iv = put.interval;
                if recording {
                    ends.extend(offset(iv.end, k.start));
                }
                if deadline.is_some_and(|dl| iv.end > dl) {
                    late_by_dst[dst] += rows;
                }
                if let Some(l) = self.log.as_deref_mut() {
                    // The remote rows are consumable once the put delivers.
                    l.push(dst, iv.end, rows);
                }
                // When tracing, tie the remote put's wire span to the pooled
                // write landing on the destination device's track.
                if iv.end > iv.start {
                    if let Some(t) = os.machine().trace_mut() {
                        t.record_flow(
                            "pooled write",
                            format!("link{src}->{dst}"),
                            iv.start,
                            format!("gpu{dst}"),
                            iv.end,
                        );
                    }
                }
            }
            if recording {
                // One send per release and every offset in range, or none.
                let train = os.machine().finish_train();
                let whole = ends.len() == releases.len();
                if let Some(train) = train.filter(|t| whole && t.sends() == ends.len() as u64) {
                    let key = (pgas.max_payload, pgas.issue_overhead);
                    let _ = sched.deliveries.set(Deliveries { key, ends, train });
                }
            }
            // A fence past the deadline is abandoned at the deadline.
            let quiet = os.quiet(src, k.end());
            let abandoned = deadline.filter(|&dl| quiet > dl);
            fences.at[src] = abandoned.unwrap_or(quiet);
            if abandoned.is_some() {
                self.missed_deadline = true;
                for (dst, &late) in late_by_dst.iter().enumerate() {
                    shed(&mut self.degrade, dst, late);
                }
            }
            self.blame_fence(&mut fences, src, abandoned.is_some());
        }
        arena::put_u64(late_by_dst);
        arena::put_release(releases);
        fences
    }

    /// Book `src`'s recorded deliveries for the launch `k` in one step, if
    /// they are on record under this runtime config and the machine takes
    /// them ([`Machine::replay_train`]). The arrivals the puts would have
    /// logged are the record's ([`PlannedBatch::log_recorded`]). False:
    /// nothing happened.
    fn replay_deliveries(&mut self, src: usize, k: &Launched<'_>, pgas: &PgasConfig) -> bool {
        let sched = &self.pb.schedules[src];
        let (Some(Some(_)), Some(d)) = (sched.releases.get(), sched.deliveries.get()) else {
            return false;
        };
        k.recorded()
            && d.key == (pgas.max_payload, pgas.issue_overhead)
            && self.machine.replay_train(&d.train, k.start)
    }

    /// Gateway exchange: the one-sided release schedule of every device fed
    /// through one shared [`GatewayPut`] proxy.
    fn gateway(&mut self, cfg: GatewayConfig) -> Fences {
        self.pb.assert_kernels_are_blocks();
        let plan = self.pb.plan();
        let n = plan.n_devices;
        let row_bytes = plan.row_bytes();
        // --- Fused kernels; collect every device's store releases. ---
        let mut events = arena::take_event();
        let mut releases = arena::take_release();
        for dp in &plan.devices {
            let Some(k) = self.launch(dp) else { continue };
            if let Some(l) = self.log.as_deref_mut() {
                log_local_rows(l, dp, plan.bags_per_block, k.block_ends());
            }
            self.pb.releases_into(dp, &k, &mut releases);
            events.extend(
                releases
                    .iter()
                    .map(|&(ready, dst, rows)| (ready, dp.device, dst, rows)),
            );
        }
        arena::put_release(releases);
        // --- One shared proxy, fed in global simulated-time order. The
        // fabric books wire intervals FIFO in *call* order, and gateway
        // scatters put traffic on links owned by a different GPU than the
        // origin — issuing per-device (as the flat exchange does) would
        // book one origin's whole timeline before the next origin's earlier
        // stores and serialize them artificially. Sorting by (ready, src,
        // dst) keeps call order aligned with simulated time. Each origin
        // drains at its own kernel-retirement instant, merged into the same
        // ordering: a cursor over the origins sorted by retirement drains,
        // in device order, those that retired before the next store. ---
        events.sort_unstable_by_key(|&(t, src, dst, _)| (t, src, dst));
        let mut fences = self.fences();
        let mut retired = arena::take_u64();
        retired.extend(0..n as u64);
        retired.sort_unstable_by_key(|&d| (self.k_end[d as usize], d));
        let mut next = 0;
        // Logged rows bound for another node, `[src · n + dst]`: they land
        // at `src`'s fence, which covers every scatter carrying them.
        let mut staged = arena::take_u64();
        if self.log.is_some() {
            staged.resize(n * n, 0);
        }
        let mut gw = GatewayPut::new(self.machine, cfg);
        for &(ready, src, dst, rows) in events.iter() {
            let from = next;
            while next < n && self.k_end[retired[next] as usize] < ready {
                next += 1;
            }
            retired[from..next].sort_unstable();
            for &d in &retired[from..next] {
                gw.drain_src(d as usize, self.k_end[d as usize]);
            }
            let put = gw.put_rows_nbi(src, dst, rows, row_bytes, ready);
            if let Some(l) = self.log.as_deref_mut() {
                if gw.machine().topology().same_node(src, dst) {
                    l.push(dst, put.end, rows);
                } else {
                    staged[src * n + dst] += rows;
                }
            }
        }
        for (d, &t) in self.k_end.iter().enumerate() {
            gw.drain_src(d, t);
        }
        for d in 0..n {
            if !self.filled[d] {
                fences.at[d] = gw.quiet(d, self.k_end[d]);
            }
        }
        drop(gw);
        if let Some(l) = self.log.as_deref_mut() {
            for (i, &rows) in staged.iter().enumerate() {
                l.push(i % n, fences.at[i / n], rows);
            }
        }
        arena::put_u64(staged);
        arena::put_u64(retired);
        arena::put_event(events);
        for d in 0..n {
            if !self.filled[d] {
                self.blame_fence(&mut fences, d, false);
            }
        }
        fences
    }

    /// Fences at `start` for every PE (what a filled device keeps).
    fn fences(&self) -> Fences {
        let mut at = arena::take_time();
        at.resize(self.k_end.len(), self.start);
        Fences {
            at,
            spans: vec![None; self.kernel_spans.len()],
        }
    }

    /// Blame span for `dev`'s `quiet` fence: from the later of its kernel
    /// end and its last put's delivery, to the fence's completion. The
    /// cause is whichever of the two actually gated it — an outstanding put
    /// tail makes the fence's wait walk into the wire spans (exposed
    /// communication); a compute-bound device chains straight to its
    /// kernel. A fence `abandoned` at the deadline was gated by neither the
    /// tail nor its completion: it spans kernel end → deadline.
    fn blame_fence(&mut self, fences: &mut Fences, dev: usize, abandoned: bool) {
        let (k_end, fence) = (self.k_end[dev], fences.at[dev]);
        let Some(b) = self.machine.blame_mut() else {
            return;
        };
        let (cause, ready) = match b.last_outbound(dev as u32) {
            Some(w) if !abandoned && b.spans()[w].end > k_end => (Some(w), b.spans()[w].end),
            _ => (self.kernel_spans[dev], k_end.min(fence)),
        };
        fences.spans[dev] = Some(sync_span(b, Lane::Gpu(dev as u32), ready, fence, cause));
    }

    /// Completion shared by the flat and gateway one-sided exchanges: a
    /// barrier over the per-PE fences, then per device the pass's
    /// after-exchange kernel, if any, and one host stream synchronization
    /// (`PGAS_EMB_forward`'s final sync). Blame: one host-lane barrier span
    /// caused by the latest-quiescing PE's fence; the kernel is caused by the
    /// barrier, and the stream-sync span starts where the kernel ends and is
    /// caused by it — without one, by the barrier (or by the device's own
    /// lookup kernel when that outran an abandoned fence).
    fn completion_tail(&mut self, pgas: PgasConfig, fences: Fences) {
        let n = self.k_end.len();
        let bar = OneSided::with_config(self.machine, pgas).barrier_all(&fences.at);
        let bar_span = self.machine.blame_mut().map(|b| {
            let last = (0..n).max_by_key(|&d| fences.at[d]).unwrap_or(0);
            sync_span(b, Lane::Host, fences.at[last], bar, fences.spans[last])
        });
        for d in 0..n {
            let tail = self.pb.pass.after_exchange.get(d);
            let ran = tail.filter(|_| !self.filled[d]).map(|&tail| {
                let end = self.run_tail(d, tail, bar, BlameCategory::GatherPool, bar_span);
                (end, self.machine.blame_last_span())
            });
            self.end[d] = self.machine.stream_sync(d, ran.map_or(bar, |(end, _)| end));
            let Some(b) = self.machine.blame_mut() else {
                continue;
            };
            let (from, cause) = match ran {
                Some(ran) => ran,
                None if self.k_end[d] > bar => (self.k_end[d], self.kernel_spans[d]),
                None => (bar, bar_span),
            };
            self.end_spans[d] = Some(sync_span(b, Lane::Gpu(d as u32), from, self.end[d], cause));
        }
        arena::put_time(fences.at);
    }

    /// Shared epilogue: barrier over the devices, blame terminal, the
    /// caller's books and the [`BatchRun`]. `comm_end` is the
    /// instant a separate communication phase ended (`None`: fused).
    fn finish(self, comm_end: Option<SimTime>) -> BatchRun {
        let Batch {
            machine,
            pb,
            start,
            log,
            degrade,
            k_end,
            filled,
            end,
            end_spans,
            any_lost,
            missed_deadline,
            ..
        } = self;
        let k_max = machine.barrier(&k_end);
        let c_max = comm_end.unwrap_or(k_max);
        let collective = comm_end.is_some();
        let batch_end = machine.barrier(&end);
        if let Some(b) = machine.blame_mut() {
            // The latest-finishing device's last span terminates the walk.
            let term = (0..end.len())
                .max_by_key(|&d| end[d])
                .and_then(|d| end_spans[d]);
            b.end_batch(start, batch_end, term);
        }
        arena::put_time(end);
        arena::put_bool(filled);
        arena::put_time(k_end);
        if let Some(l) = log {
            l.finish(pb);
        }
        let run = BatchRun {
            start,
            end: batch_end,
            breakdown: TimeBreakdown {
                compute: k_max - start,
                communication: c_max - k_max,
                // `batch_end` can land before `c_max` when every live device
                // hit its deadline (or was filled) with transfers in flight.
                sync_unpack: if batch_end > c_max {
                    batch_end - c_max
                } else {
                    Dur::ZERO
                },
            },
        };
        if let Some(g) = degrade {
            let rep = g.report;
            rep.total_rows += pb.total_rows();
            if collective {
                rep.baseline_batches += 1;
            } else {
                rep.pgas_batches += 1;
            }
            rep.deadline_missed_batches += usize::from(missed_deadline);
            rep.device_loss_batches += usize::from(any_lost);
            rep.batch_latencies.push(run.service());
        }
        run
    }
}

/// Blame: a fence, barrier or stream sync on `lane` that began the instant it
/// could (`from`) and held until `to`, gated by `cause`.
fn sync_span(
    b: &mut SpanGraph,
    lane: Lane,
    from: SimTime,
    to: SimTime,
    cause: Option<usize>,
) -> usize {
    b.record(BlameCategory::Sync, lane, from, from, to, cause, false)
}

/// Account a retried put's attempts: one delivered after retries, or one
/// that spent its budget (every attempt past the first is a retry).
fn count_put(degrade: &mut Option<Degrade<'_>>, put: &Result<Delivery, FabricError>) {
    let Some(g) = degrade else { return };
    let attempts = match put {
        Ok(d) => d.attempts,
        Err(FabricError::RetryExhausted { attempts, .. }) => *attempts,
        Err(_) => 1,
    };
    g.report.retried_puts += u64::from(put.is_ok() && attempts > 1);
    g.report.exhausted_puts += u64::from(put.is_err());
    g.report.retries += u64::from(attempts - 1);
}

/// Account `rows` pooled rows bound for `dst` as served from the fill.
fn shed(degrade: &mut Option<Degrade<'_>>, dst: usize, rows: u64) {
    if let Some(g) = degrade {
        g.report.degraded_rows += rows;
        g.report.degraded_by_dst[dst] += rows;
    }
}

/// Arrival log: rows pooled for a device's own output are consumable the
/// instant their producing block retires — no wire involved — and hot-cache
/// import blocks (appended after the regular blocks) pool one local row per
/// imported bag.
fn log_local_rows(
    log: &mut ArrivalLog,
    dp: &DevicePlan,
    bags_per_block: usize,
    mut block_ends: impl Iterator<Item = SimTime>,
) {
    for (blk, end) in dp.blocks.iter().zip(&mut block_ends) {
        for &(dst, rows) in dp.dest_rows(blk) {
            if dst == dp.device {
                log.push(dst, end, rows);
            }
        }
    }
    for (chunk, end) in dp.imported_bags.chunks(bags_per_block).zip(block_ends) {
        log.push(dp.device, end, chunk.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{plan_for_batch, ExecMode};
    use crate::{EmbLayerConfig, SparseBatch};
    use gpusim::MachineConfig;

    fn tiny_cfg(g: usize) -> EmbLayerConfig {
        let mut c = EmbLayerConfig::paper_weak_scaling(g).scaled_down(512);
        c.n_batches = 3;
        c.distinct_batches = 2;
        c
    }

    fn pgas() -> Exchange {
        Exchange::OneSided(PgasConfig::default())
    }

    fn baseline() -> Exchange {
        Exchange::Collective(CollectiveConfig::default())
    }

    fn run(m: &mut Machine, exchange: Exchange, pb: &PlannedBatch, at: SimTime) -> BatchRun {
        execute_batch(m, &exchange, pb, at, None, None)
    }

    fn planned(machine: &Machine, cfg: &EmbLayerConfig, seed_idx: usize) -> PlannedBatch {
        let b = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.batch_seed(seed_idx));
        let plan = plan_for_batch(cfg, &b, machine.spec(0));
        PlannedBatch::new(machine, plan)
    }

    #[test]
    fn per_batch_runs_are_time_shift_invariant() {
        // The serving layer relies on this: a batch's service time must not
        // depend on when the machine starts it (clean fabric, drained
        // links), only on its composition.
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let pb = planned(&m, &cfg, 0);
        let a = run(&mut m, pgas(), &pb, SimTime::ZERO);
        let late = a.end + Dur::from_us(37);
        let b = run(&mut m, pgas(), &pb, late);
        assert_eq!(a.service(), b.service());
        assert_eq!(a.breakdown, b.breakdown);

        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let a = run(&mut m2, baseline(), &pb, SimTime::ZERO);
        let late = a.end + Dur::from_us(101);
        let b = run(&mut m2, baseline(), &pb, late);
        assert_eq!(a.service(), b.service());
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn planned_batch_surfaces_consistent_state() {
        let cfg = tiny_cfg(2);
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let pb = planned(&m, &cfg, 0);
        assert_eq!(pb.durations().len(), 2);
        assert_eq!(pb.byte_matrix().len(), 2);
        for (dp, durs) in pb.plan().devices.iter().zip(pb.durations()) {
            assert_eq!(durs.len(), dp.blocks.len());
        }
        assert_eq!(
            pb.total_rows(),
            (cfg.batch_size * cfg.n_features) as u64,
            "every (sample, feature) pair yields one pooled row"
        );
        // Diagonal traffic never crosses the wire but is still accounted
        // (the backends skip dst == src when putting).
        assert!(pb.byte_matrix()[0][1] > 0);
    }

    #[test]
    fn one_sided_batch_is_faster_than_collective_batch() {
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let pb = planned(&m, &cfg, 0);
        let p = run(&mut m, pgas(), &pb, SimTime::ZERO);
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let b = run(&mut m2, baseline(), &pb, SimTime::ZERO);
        assert!(
            p.service() < b.service(),
            "pgas {} vs {}",
            p.service(),
            b.service()
        );
    }

    #[test]
    fn gateway_batch_is_bit_identical_on_single_node() {
        // At every crossbar width: with no cross-node traffic the proxy
        // must be a no-op, bit for bit.
        for n in [1usize, 2, 4, 8] {
            let cfg = tiny_cfg(n);
            let mut m = Machine::new(MachineConfig::dgx_v100(n));
            let pb = planned(&m, &cfg, 0);
            let mut logs = [ArrivalLog::new(), ArrivalLog::new()];
            let [l1, l2] = &mut logs;
            let plain = execute_batch(&mut m, &pgas(), &pb, SimTime::ZERO, Some(l1), None);
            let mut m2 = Machine::new(MachineConfig::dgx_v100(n));
            let gw_exchange = Exchange::Gateway(GatewayConfig::default());
            let gw = execute_batch(&mut m2, &gw_exchange, &pb, SimTime::ZERO, Some(l2), None);
            assert_eq!(plain, gw, "width {n}: proxy must be a no-op");
            assert_eq!(m.traffic_stats(), m2.traffic_stats(), "width {n}");
            assert_eq!(logs[0].arrivals, logs[1].arrivals, "width {n}");
        }
    }

    #[test]
    fn gateway_batch_cuts_inter_node_messages_on_pods() {
        // Less aggressively scaled down than `tiny_cfg`: enough cross-node
        // traffic that the flat path is wire-bound on the RoCE tier (its
        // per-row messages outrun the link's message rate), which is the
        // regime the gateway is built for.
        let mut cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(16);
        cfg.n_batches = 1;
        cfg.distinct_batches = 1;
        let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
        let pb = planned(&m, &cfg, 0);
        let flat = run(&mut m, pgas(), &pb, SimTime::ZERO);
        let flat_msgs = m.traffic_stats().inter_node_messages;

        let mut m2 = Machine::new(MachineConfig::pod_v100(2, 2));
        // Short age bound so late stragglers still overlap the kernel.
        let gw_cfg = GatewayConfig {
            pgas: PgasConfig::default(),
            flush: pgas_rt::AggregatorConfig {
                flush_bytes: 8 << 10,
                max_wait: Dur::from_us(5),
            },
        };
        let gw = run(&mut m2, Exchange::Gateway(gw_cfg), &pb, SimTime::ZERO);
        let gw_msgs = m2.traffic_stats().inter_node_messages;

        assert!(
            gw_msgs < flat_msgs / 10,
            "gateway must collapse cross-node messages: {gw_msgs} vs {flat_msgs}"
        );
        assert!(
            gw.service() < flat.service(),
            "on RoCE-tier links aggregation must win: {} vs {}",
            gw.service(),
            flat.service()
        );
    }

    #[test]
    fn arrival_log_is_pure_observation() {
        let cfg = tiny_cfg(2);
        let mut log = ArrivalLog::new();
        for exchange in [pgas(), baseline()] {
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            let pb = planned(&m, &cfg, 0);
            let plain = run(&mut m, exchange, &pb, SimTime::ZERO);
            let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
            let logged =
                execute_batch(&mut m2, &exchange, &pb, SimTime::ZERO, Some(&mut log), None);
            assert_eq!(plain, logged);
            assert_eq!(m.traffic_stats(), m2.traffic_stats());
        }
    }

    #[test]
    fn arrival_log_covers_every_output_row_and_respects_batch_end() {
        let cfg = tiny_cfg(4);
        let mut m = Machine::new(MachineConfig::dgx_v100(4));
        let pb = planned(&m, &cfg, 0);
        let mut plog = ArrivalLog::new();
        let prun = execute_batch(&mut m, &pgas(), &pb, SimTime::ZERO, Some(&mut plog), None);
        let mut m2 = Machine::new(MachineConfig::dgx_v100(4));
        let mut blog = ArrivalLog::new();
        let brun = execute_batch(
            &mut m2,
            &baseline(),
            &pb,
            SimTime::ZERO,
            Some(&mut blog),
            None,
        );
        let plan = pb.plan();
        for d in 0..4 {
            let rows = (plan.mb_sizes[d] * plan.n_features) as u64;
            // Both logs account every pooled row of every device's output.
            assert_eq!(plog.total_rows(d), rows, "pgas dev {d}");
            assert_eq!(blog.total_rows(d), rows, "baseline dev {d}");
            // No arrival outruns the batch, and PGAS arrivals are sorted.
            assert!(plog.last(d) <= prun.end);
            assert!(blog.last(d) <= brun.end);
            assert!(plog.arrivals(d).windows(2).all(|w| w[0].0 <= w[1].0));
            // Fused emission spreads arrivals: the first half of d's rows
            // lands strictly before the last row (many release instants),
            // whereas the baseline releases everything at one instant.
            assert!(plog.ready_at_fraction(d, 0.5) < plog.last(d), "dev {d}");
            assert_eq!(blog.arrivals(d).len(), 1, "bulk-synchronous release");
            // And the PGAS half-point strictly precedes the baseline's
            // all-at-once release — the overlap the engine exploits.
            assert!(plog.ready_at_fraction(d, 0.5) < blog.last(d));
        }
        // Fraction endpoints behave.
        assert_eq!(plog.ready_at_fraction(0, 1.0), plog.last(0));
        assert!(plog.ready_at_fraction(0, 0.0) <= plog.ready_at_fraction(0, 1.0));
    }

    #[test]
    fn prepare_batches_and_plan_for_batch_agree() {
        let cfg = tiny_cfg(2);
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let prepared = crate::backend::prepare_batches(&cfg, ExecMode::Timing, m.spec(0));
        // Timing mode keeps no batch: regenerate each from its seed.
        assert!(prepared.batches.is_empty());
        assert_eq!(prepared.plans.len(), cfg.distinct_batches);
        for (i, plan) in prepared.plans.iter().enumerate() {
            let b = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.batch_seed(i));
            assert_eq!(plan_for_batch(&cfg, &b, m.spec(0)), **plan, "batch {i}");
        }
        // The planned set is built once per spec vector and shared.
        let planned = prepared.planned_for(&m);
        assert!(Arc::ptr_eq(&planned, &prepared.planned_for(&m)));
        let m2 = Machine::new(MachineConfig::dgx_v100(2));
        assert!(Arc::ptr_eq(&planned, &prepared.planned_for(&m2)));
        assert!(Arc::ptr_eq(&planned[0].plan, &prepared.plans[0]));
        let mut other = MachineConfig::dgx_v100(2);
        other.specs[1] = gpusim::GpuSpec::a100();
        let unshared = prepared.planned_for(&Machine::new(other));
        assert!(!Arc::ptr_eq(&planned, &unshared));
        assert_eq!(unshared[0].durations()[0], planned[0].durations()[0]);
        assert_ne!(unshared[0].durations()[1], planned[0].durations()[1]);
    }

    /// The gates as the executor computed them before plans kept any: every
    /// entry of an entries log, sorted in full, and one scan from the first
    /// entry per fraction.
    impl ArrivalLog {
        fn sorted(&self, dst: usize) -> Vec<(SimTime, u64)> {
            let mut entries = self.arrivals[dst].clone();
            entries.sort_unstable();
            entries
        }

        fn last(&self, dst: usize) -> SimTime {
            self.sorted(dst).last().map_or(SimTime::ZERO, |&(t, _)| t)
        }

        fn ready_at_fraction(&self, dst: usize, frac: f64) -> SimTime {
            let entries = self.sorted(dst);
            let total: u64 = entries.iter().map(|&(_, r)| r).sum();
            if total == 0 {
                return SimTime::ZERO;
            }
            let target = ((frac * total as f64).ceil() as u64).clamp(1, total);
            let mut cum = 0u64;
            for &(t, r) in &entries {
                cum += r;
                if cum >= target {
                    return t;
                }
            }
            self.last(dst)
        }

        fn oracle_gates(&self, chunks: usize) -> Vec<SimTime> {
            let frac = |c: usize| (c + 1) as f64 / chunks as f64;
            let gates = |d| (0..chunks).map(move |c| self.ready_at_fraction(d, frac(c)));
            (0..self.n_devices()).flat_map(gates).collect()
        }
    }

    fn faulty_machine(g: usize, faults: Option<gpusim::FaultSpec>, seed: u64) -> Machine {
        // Four GPUs as a 2×2 pod, so the gateway proxy really stages.
        let mut m = Machine::new(if g == 4 {
            MachineConfig::pod_v100(2, 2)
        } else {
            MachineConfig::dgx_v100(g)
        });
        if let Some(spec) = faults {
            m.install_faults(gpusim::FaultPlan::generate(seed, g, spec));
        }
        m
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(18))]

        /// Replaying the stored release schedule is indistinguishable from
        /// rebuilding it: one shared `PlannedBatch` executed at three
        /// starts equals a freshly built one per execution — `BatchRun`,
        /// `ArrivalLog` entry for entry and traffic statistics (an
        /// unobserved machine keeps no payload series) — on a clean machine,
        /// under chaos, and with stragglers (which bypass the store); for
        /// the table-wise forward, the row-wise forward and the backward
        /// pass, whose stores leave at block retirement, unmerged.
        #[test]
        fn stored_schedule_replays_what_a_fresh_build_computes(
            g in 2usize..5,
            bpb in 1usize..6,
            seed in 0u64..1000,
            gap_ns in 1u64..2_000_000,
            pass in 0usize..3,
        ) {
            use proptest::prelude::*;
            let mut cfg = tiny_cfg(g);
            cfg.bags_per_block = bpb;
            cfg.seed = seed;
            let planned = |m: &Machine, cfg: &EmbLayerConfig, seed_idx: usize| match pass {
                0 => planned(m, cfg, seed_idx),
                1 => crate::rowwise::rowwise_planned(m, cfg),
                _ => crate::backward::backward_planned(m, planned(m, cfg, seed_idx).plan(), true),
            };
            let stragglers = gpusim::FaultSpec {
                straggler_prob: 0.6,
                straggler_factor: (1.2, 1.6),
                ..gpusim::FaultSpec::none()
            };
            for faults in [None, Some(gpusim::FaultSpec::chaos(0.5)), Some(stragglers)] {
                for exchange in [pgas(), Exchange::Gateway(GatewayConfig::default())] {
                    let mut shared_m = faulty_machine(g, faults, seed);
                    let mut fresh_m = faulty_machine(g, faults, seed);
                    let shared = planned(&shared_m, &cfg, 0);
                    let (mut shared_log, mut fresh_log) = (ArrivalLog::new(), ArrivalLog::new());
                    let mut at = SimTime::ZERO;
                    for _ in 0..3 {
                        let fresh = planned(&fresh_m, &cfg, 0);
                        let a = execute_batch(
                            &mut shared_m, &exchange, &shared, at, Some(&mut shared_log), None,
                        );
                        let b = execute_batch(
                            &mut fresh_m, &exchange, &fresh, at, Some(&mut fresh_log), None,
                        );
                        prop_assert_eq!(a, b);
                        prop_assert_eq!(&shared_log.arrivals, &fresh_log.arrivals);
                        at = a.end + Dur::from_ns(gap_ns);
                    }
                    prop_assert_eq!(shared_m.traffic_stats(), fresh_m.traffic_stats());
                    prop_assert!(shared_m.total_traffic().buckets().is_empty());
                    // Exactly the healthy devices went through the store
                    // (deliveries: where every peer shares the node and no
                    // fault plan is active), and what it hands out at yet
                    // another start is the builder's own output for that
                    // kernel run.
                    let one_node = faults.is_none() && g != 4 && matches!(exchange, Exchange::OneSided(_));
                    let (mut replayed, mut built) = (Vec::new(), Vec::new());
                    for (dp, sched) in shared.plan().devices.iter().zip(&shared.schedules) {
                        let d = dp.device;
                        let healthy = shared_m.straggler_factor(d) == 1.0;
                        prop_assert_eq!(sched.kernel.get().is_some(), healthy);
                        prop_assert_eq!(sched.releases.get().is_some(), healthy);
                        prop_assert_eq!(sched.deliveries.get().is_some(), one_node);
                        let durs = &shared.durations()[d];
                        let run = shared_m.run_kernel_varied(d, durs, at);
                        let ends = run.block_ends.iter().copied();
                        if pass < 2 {
                            stream_releases_into(dp, durs, run.resident, ends, &mut built);
                        } else {
                            built.clear();
                            for (blk, end) in dp.blocks.iter().zip(ends) {
                                let to = dp.dest_rows(blk).iter().filter(|r| r.0 != d);
                                built.extend(to.map(|&(dst, rows)| (end, dst, rows)));
                            }
                            prop_assert!(built.windows(2).all(|w| w[0].0 <= w[1].0));
                        }
                        let start = run.interval.start;
                        let run = sched.kernel.get().map_or(Cow::Owned(run), Cow::Borrowed);
                        let k = Launched { start, run };
                        shared.releases_into(dp, &k, &mut replayed);
                        prop_assert_eq!(&replayed, &built);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A gated log's gates are the oracle's over an entries log of the
        /// same batches: from its entries on the batch that records, off
        /// the plan on the replayed ones (which keep no entries), and from
        /// its entries again for a second chunk count on the same plan.
        #[test]
        fn plan_gates_equal_the_oracle(
            g in 2usize..5,
            bpb in 1usize..6,
            seed in 0u64..1000,
            chunks in 1usize..17,
            second_key in proptest::prelude::any::<bool>(),
            gap_ns in 0u64..2_000_000,
        ) {
            use proptest::prelude::*;
            let mut cfg = tiny_cfg(g);
            cfg.bags_per_block = bpb;
            cfg.seed = seed;
            let mut pgas = PgasConfig::default();
            if second_key {
                pgas.max_payload /= 2;
                pgas.issue_overhead += Dur::from_ns(3);
            }
            let exchange = Exchange::OneSided(pgas);
            let (mut gated_m, mut entries_m) = (
                Machine::new(MachineConfig::dgx_v100(g)),
                Machine::new(MachineConfig::dgx_v100(g)),
            );
            let pb = planned(&gated_m, &cfg, 0);
            let other = chunks % 16 + 1;
            let mut logs = [ArrivalLog::gated(chunks), ArrivalLog::gated(other)];
            let mut entries = ArrivalLog::new();
            let mut at = SimTime::ZERO;
            for batch in 0..5 {
                let k = if batch == 4 { other } else { chunks };
                let gated = &mut logs[usize::from(batch == 4)];
                let a = execute_batch(&mut gated_m, &exchange, &pb, at, Some(&mut *gated), None);
                let b = execute_batch(&mut entries_m, &exchange, &pb, at, Some(&mut entries), None);
                prop_assert_eq!(a, b);
                prop_assert_eq!(&gated.gates, &entries.oracle_gates(k), "batch {}", batch);
                for d in 0..g {
                    prop_assert_eq!(gated.total_rows(d), entries.total_rows(d));
                    let from_plan = gated.arrivals(d).is_empty();
                    prop_assert_eq!(from_plan, batch != 0 && batch != 4, "batch {}", batch);
                }
                at = a.end + Dur::from_ns(gap_ns);
            }
            let gates = pb.gates.get().expect("kept by the second batch");
            prop_assert_eq!(gates.offsets.len(), g * chunks);
        }
    }

    #[test]
    fn gateway_logs_every_row_no_earlier_than_the_batch() {
        // A 2×2 pod: same-node puts land at their delivery, cross-node rows
        // at their origin's fence; every row the plan delivers is logged.
        let cfg = tiny_cfg(4);
        let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
        let pb = planned(&m, &cfg, 0);
        let gateway = Exchange::Gateway(GatewayConfig::default());
        let start = SimTime::from_ns(12_345);
        let mut log = ArrivalLog::gated(8);
        let run = execute_batch(&mut m, &gateway, &pb, start, Some(&mut log), None);
        let plan = pb.plan();
        for d in 0..4 {
            let rows = (plan.mb_sizes[d] * plan.n_features) as u64;
            assert!(rows > 0);
            assert_eq!(log.total_rows(d), rows, "dev {d}");
            for c in 0..8 {
                assert!(log.gate(d, c) >= start, "dev {d} chunk {c}");
                assert!(log.gate(d, c) <= run.end, "dev {d} chunk {c}");
            }
            assert!(log.gate(d, 0) < log.gate(d, 7), "dev {d}: one instant");
        }
    }

    #[test]
    fn the_gateway_is_blind_to_link_faults() {
        // A link-only plan (flaps, drops, delays, degradation; no
        // stragglers, no device loss) leaves a gateway batch exactly as on
        // a clean machine: its puts pass `Faults::Ignore`. A flat one-sided
        // batch on the same plan retries, which shows the plan is live.
        let cfg = tiny_cfg(4);
        let spec = gpusim::FaultSpec {
            straggler_prob: 0.0,
            ..gpusim::FaultSpec::chaos(1.0)
        };
        let start = SimTime::from_us(50);
        let batch = |exchange: Exchange, faulty: bool| {
            let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
            if faulty {
                m.install_faults(gpusim::FaultPlan::generate(11, 4, spec));
            }
            let pb = planned(&m, &cfg, 0);
            let mut log = ArrivalLog::gated(8);
            let run = execute_batch(&mut m, &exchange, &pb, start, Some(&mut log), None);
            let gates: Vec<SimTime> = (0..32).map(|i| log.gate(i / 8, i % 8)).collect();
            (run, m.traffic_stats(), gates)
        };
        let gateway = Exchange::Gateway(GatewayConfig::default());
        assert_eq!(batch(gateway, true), batch(gateway, false));
        let flat = Exchange::OneSided(PgasConfig::default());
        assert_ne!(batch(flat, true), batch(flat, false));
    }

    #[test]
    fn gateway_drains_retired_origins_in_device_order() {
        // A 4×2 pod where every GPU straggles by its own factor, so kernels
        // retire staggered and origins drain one by one between stores.
        // Ends pinned at ns, as a scan of every device before each store
        // drains them. At seed 3729 (alone of the first 6000) draining the
        // origins that retired between two stores in retirement order
        // instead of device order moves the end by 563 ns; skipping the
        // drains between stores moves seeds 0 and 1.
        let mut cfg = EmbLayerConfig::paper_weak_scaling(8).scaled_down(512);
        cfg.n_batches = 1;
        cfg.distinct_batches = 1;
        let spec = gpusim::FaultSpec {
            straggler_prob: 1.0,
            straggler_factor: (1.0, 3.0),
            ..gpusim::FaultSpec::none()
        };
        let gateway = Exchange::Gateway(GatewayConfig::default());
        for (seed, end_ns) in [(0, 149_303), (1, 175_618), (3729, 189_423)] {
            let mut m = Machine::new(MachineConfig::pod_v100(4, 2));
            m.install_faults(gpusim::FaultPlan::generate(seed, 8, spec));
            let pb = planned(&m, &cfg, 0);
            let r = run(&mut m, gateway, &pb, SimTime::ZERO);
            assert_eq!(r.end.as_ns(), end_ns, "seed {seed}");
        }
    }

    #[test]
    fn recorded_deliveries_are_offered_under_their_own_runtime_config_only() {
        // `tests/batch_replay.rs` shows that replays cannot be told from
        // executions; this shows they happen, and what the executor's half
        // of the key is.
        let cfg = tiny_cfg(3);
        let mut m = Machine::new(MachineConfig::dgx_v100(3));
        let pb = planned(&m, &cfg, 0);
        let first = run(&mut m, pgas(), &pb, SimTime::ZERO);
        assert!(pb.schedules.iter().all(|s| s.deliveries.get().is_some()));
        let offer = |m: &mut Machine, at: SimTime, pgas: PgasConfig| {
            let mut b = Batch::begin(m, &pb, at, None, None);
            let k = b.launch(&pb.plan().devices[0]).expect("device 0 is up");
            assert!(k.recorded());
            b.replay_deliveries(0, &k, &pgas)
        };
        let recorded = PgasConfig::default();
        let sent = m.traffic_stats().messages;
        assert!(offer(&mut m, first.end, recorded));
        assert!(m.traffic_stats().messages > sent, "booked nothing");
        // Fence and barrier costs come after delivery.
        let later = PgasConfig {
            quiet_overhead: Dur::from_us(7),
            barrier_overhead: Dur::ZERO,
            ..recorded
        };
        let at = m.finish_time();
        assert!(offer(&mut m, at, later));
        let sent = m.traffic_stats();
        for other in [
            PgasConfig {
                issue_overhead: recorded.issue_overhead + Dur::from_ns(1),
                ..recorded
            },
            PgasConfig {
                max_payload: recorded.max_payload / 2,
                ..recorded
            },
        ] {
            let at = m.finish_time();
            assert!(!offer(&mut m, at, other), "{other:?}");
        }
        assert_eq!(m.traffic_stats(), sent);
    }

    #[test]
    fn collective_only_users_never_build_a_schedule() {
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let pb = planned(&m, &cfg, 0);
        run(&mut m, baseline(), &pb, SimTime::ZERO);
        assert!(pb.schedules.iter().all(|s| s.kernel.get().is_some()));
        assert!(pb.schedules.iter().all(|s| s.releases.get().is_none()));
    }
}
