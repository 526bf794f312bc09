//! # causal — span-graph recorder and critical-path blame analyzer
//!
//! The EXT-16 observability layer. Every billed interval in the simulator
//! (kernel run, stream chunk, wire serialization, NIC span, gateway
//! staging/DMA, retry backoff, sync/fence) can be recorded as a [`Span`]
//! with an explicit **causal parent** — the span whose completion gated its
//! start — plus the instant its inputs were ready. Walking the graph
//! backward from a batch's completion then yields the *exact* critical
//! path as a gap-free partition of `[batch_start, batch_end]`, with every
//! nanosecond attributed to one [`BlameCategory`]:
//!
//! - a span's **body** bills its own category (kernel, wire, staging, …);
//! - the wait between a span's `ready` instant and its actual `start`
//!   bills the *queueing* category of its lane (link queue → exposed
//!   communication, stream queue → compute queue / pipeline bubble);
//! - any remaining unmodelled gap bills [`BlameCategory::Overhead`].
//!
//! Because the three cases partition the window exactly, per-batch blame
//! vectors sum to the end-to-end batch time in integer nanoseconds — a
//! property the proptests lock. Like the metrics [`Registry`](crate::Registry),
//! recording is opt-in and recording order is the simulator's own serial
//! event order, so blame vectors are bit-identical at any thread width.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use desim::{Dur, SimTime};

/// Fixed blame taxonomy: every nanosecond of a batch's critical path lands
/// in exactly one of these buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum BlameCategory {
    /// Embedding gather/pool (lookup) kernel execution.
    GatherPool,
    /// Dense GEMM / interaction / MLP kernel execution.
    Gemm,
    /// Baseline sync+unpack rearrangement kernel execution.
    Unpack,
    /// Intra-node wire serialization (NVLink crossbar).
    WireIntra,
    /// Inter-node wire serialization (RoCE/IB tier).
    WireInter,
    /// Waiting on a node's shared egress NIC (serialization or queueing).
    Nic,
    /// Gateway proxy staging wait and scatter DMA.
    GatewayStage,
    /// Queue wait on a communication resource (link or injection port).
    QueueComm,
    /// Queue wait on a compute resource (default stream busy).
    QueueCompute,
    /// Pipeline bubble: an auxiliary stream idle, waiting on a gate.
    StreamBubble,
    /// Retry backoff after a fabric fault.
    Retry,
    /// Admission shedding / deadline timeout in the serving layer.
    Shed,
    /// Synchronization fences: `quiet`, barrier, stream sync.
    Sync,
    /// Unmodelled gaps: kernel launch, call overheads, link latency.
    Overhead,
}

impl BlameCategory {
    /// Every category, in declaration (= export) order.
    pub const ALL: [BlameCategory; 14] = [
        BlameCategory::GatherPool,
        BlameCategory::Gemm,
        BlameCategory::Unpack,
        BlameCategory::WireIntra,
        BlameCategory::WireInter,
        BlameCategory::Nic,
        BlameCategory::GatewayStage,
        BlameCategory::QueueComm,
        BlameCategory::QueueCompute,
        BlameCategory::StreamBubble,
        BlameCategory::Retry,
        BlameCategory::Shed,
        BlameCategory::Sync,
        BlameCategory::Overhead,
    ];

    /// Stable snake_case label used in CSV headers, folded stacks, and
    /// trace lanes.
    pub fn label(self) -> &'static str {
        match self {
            BlameCategory::GatherPool => "gather_pool",
            BlameCategory::Gemm => "gemm",
            BlameCategory::Unpack => "unpack",
            BlameCategory::WireIntra => "wire_intra",
            BlameCategory::WireInter => "wire_inter",
            BlameCategory::Nic => "nic",
            BlameCategory::GatewayStage => "gateway_stage",
            BlameCategory::QueueComm => "queue_comm",
            BlameCategory::QueueCompute => "queue_compute",
            BlameCategory::StreamBubble => "stream_bubble",
            BlameCategory::Retry => "retry",
            BlameCategory::Shed => "shed",
            BlameCategory::Sync => "sync",
            BlameCategory::Overhead => "overhead",
        }
    }

    /// Whether critical-path time in this bucket is **exposed
    /// communication** — time the batch spent blocked on moving bytes
    /// rather than computing on them. This is the share the paper's fused
    /// emission removes; `reproduce blame` locks it dominant under the
    /// baseline and near-zero under PGAS.
    pub fn is_exposed_comm(self) -> bool {
        matches!(
            self,
            BlameCategory::WireIntra
                | BlameCategory::WireInter
                | BlameCategory::Nic
                | BlameCategory::GatewayStage
                | BlameCategory::QueueComm
                | BlameCategory::Retry
        )
    }
}

/// The serialized resource a span occupied. Lane identity picks the
/// queueing category for ready→start waits and names folded-stack frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// A device's default compute stream.
    Gpu(u32),
    /// Auxiliary stream `idx` on a device.
    Stream(u32, u32),
    /// The directed pair link `src -> dst`.
    Link(u32, u32),
    /// A node's shared egress NIC.
    Nic(u32),
    /// A gateway proxy GPU's forwarding engine.
    Gateway(u32),
    /// Host-side control (barriers, serving decisions).
    Host,
}

impl Lane {
    /// The queueing category charged when a span on this lane starts
    /// later than its `ready` instant.
    fn queue_category(self, nic_bound: bool) -> BlameCategory {
        match self {
            Lane::Gpu(_) => BlameCategory::QueueCompute,
            Lane::Stream(_, _) => BlameCategory::StreamBubble,
            Lane::Link(_, _) if nic_bound => BlameCategory::Nic,
            Lane::Link(_, _) | Lane::Gateway(_) => BlameCategory::QueueComm,
            Lane::Nic(_) => BlameCategory::Nic,
            Lane::Host => BlameCategory::Overhead,
        }
    }

    /// Folded-stack frame for this lane, e.g. `gpu0` or `link0->1`.
    fn frame(self) -> String {
        match self {
            Lane::Gpu(d) => format!("gpu{d}"),
            Lane::Stream(d, s) => format!("gpu{d}.s{s}"),
            Lane::Link(s, d) => format!("link{s}->{d}"),
            Lane::Nic(n) => format!("nic{n}"),
            Lane::Gateway(g) => format!("gateway{g}"),
            Lane::Host => "host".to_string(),
        }
    }
}

/// One billed interval with its causal ancestry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What the interval was spent on.
    pub cat: BlameCategory,
    /// The serialized resource it occupied.
    pub lane: Lane,
    /// Instant the span's inputs were available; `start - ready` is queue
    /// wait on the lane.
    pub ready: SimTime,
    /// Instant the span actually began.
    pub start: SimTime,
    /// Instant it completed.
    pub end: SimTime,
    /// The span whose completion produced this span's inputs, if modelled.
    pub cause: Option<usize>,
    /// On an inter-node link span: the wait was bound by the shared NIC
    /// rather than the pair link itself.
    pub nic_bound: bool,
}

/// One segment of an extracted critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// The category this segment bills.
    pub cat: BlameCategory,
}

/// Per-category nanosecond totals; one per batch, or aggregated per run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlameVec {
    ns: [u64; BlameCategory::ALL.len()],
}

impl BlameVec {
    /// Add `d` to `cat`'s bucket.
    pub fn add(&mut self, cat: BlameCategory, d: Dur) {
        self.ns[cat as usize] += d.as_ns();
    }

    /// Nanoseconds billed to `cat`.
    pub fn get(&self, cat: BlameCategory) -> u64 {
        self.ns[cat as usize]
    }

    /// Sum across all categories — exactly the batch duration by the
    /// partition property.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Nanoseconds in exposed-communication categories.
    pub fn exposed_comm_ns(&self) -> u64 {
        BlameCategory::ALL
            .iter()
            .filter(|c| c.is_exposed_comm())
            .map(|&c| self.get(c))
            .sum()
    }

    /// Exposed-communication share of the critical path, in `[0, 1]`.
    pub fn exposed_comm_share(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.exposed_comm_ns() as f64 / total as f64
        }
    }

    /// Entry-wise accumulation.
    pub fn accumulate(&mut self, other: &BlameVec) {
        for (a, b) in self.ns.iter_mut().zip(other.ns.iter()) {
            *a += b;
        }
    }
}

/// The extracted critical path of one batch: its blame vector plus the
/// gap-free segment list it was summed from (newest segments last).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchBlame {
    /// Batch window start.
    pub start: SimTime,
    /// Batch window end.
    pub end: SimTime,
    /// Per-category critical-path nanoseconds; sums to `end - start`.
    pub vec: BlameVec,
    /// The path as a partition of `[start, end]`, in time order.
    pub segments: Vec<Segment>,
}

/// Append-only span graph plus the cursor state the instrumentation hooks
/// use to thread causality without plumbing ids through every call:
/// a *pending kind* (what category the next kernel bills), a *pending
/// cause*, and per-device cause anchors (the span that produced the data a
/// device is currently emitting).
#[derive(Clone, Debug, Default)]
pub struct SpanGraph {
    spans: Vec<Span>,
    /// Latest-ending wire/scatter span delivering *into* each device.
    last_inbound: BTreeMap<u32, usize>,
    /// Latest-ending wire/scatter span emitted *by* each device.
    last_outbound: BTreeMap<u32, usize>,
    /// Cause anchor per emitting device (usually its lookup kernel span).
    device_cause: BTreeMap<u32, usize>,
    pending_cause: Option<usize>,
    kind: Option<BlameCategory>,
    batches: Vec<BatchBlame>,
}

impl SpanGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one span; returns its id. Ids are assigned in recording
    /// order, so a span's `cause` always has a smaller id — the property
    /// that makes the backward walk terminate.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        cat: BlameCategory,
        lane: Lane,
        ready: SimTime,
        start: SimTime,
        end: SimTime,
        cause: Option<usize>,
        nic_bound: bool,
    ) -> usize {
        debug_assert!(cause.is_none_or(|c| c < self.spans.len()));
        let id = self.spans.len();
        self.spans.push(Span {
            cat,
            lane,
            ready,
            start,
            end,
            cause,
            nic_bound,
        });
        id
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The most recently recorded span's id.
    pub fn last_span(&self) -> Option<usize> {
        self.spans.len().checked_sub(1)
    }

    /// Category the next kernel span bills ([`BlameCategory::GatherPool`]
    /// when unset).
    pub fn kind(&self) -> BlameCategory {
        self.kind.unwrap_or(BlameCategory::GatherPool)
    }

    /// Set the category for subsequent kernel spans.
    pub fn set_kind(&mut self, cat: BlameCategory) {
        self.kind = Some(cat);
    }

    /// Pending cause consumed by the next kernel span.
    pub fn cause(&self) -> Option<usize> {
        self.pending_cause
    }

    /// Set (or clear) the pending cause for subsequent kernel spans.
    pub fn set_cause(&mut self, cause: Option<usize>) {
        self.pending_cause = cause;
    }

    /// The span currently anchoring causes for data emitted by `dev`.
    pub fn device_cause(&self, dev: u32) -> Option<usize> {
        self.device_cause.get(&dev).copied()
    }

    /// Anchor (or clear) `dev`'s cause span.
    pub fn set_device_cause(&mut self, dev: u32, cause: Option<usize>) {
        match cause {
            Some(id) => {
                self.device_cause.insert(dev, id);
            }
            None => {
                self.device_cause.remove(&dev);
            }
        }
    }

    /// Note that span `id` delivered bytes into `dst`; keeps the
    /// latest-*ending* such span.
    pub fn note_inbound(&mut self, dst: u32, id: usize) {
        let end = self.spans[id].end;
        match self.last_inbound.get(&dst) {
            Some(&prev) if self.spans[prev].end >= end => {}
            _ => {
                self.last_inbound.insert(dst, id);
            }
        }
    }

    /// Note that span `id` carried bytes emitted by `src`; keeps the
    /// latest-*ending* such span.
    pub fn note_outbound(&mut self, src: u32, id: usize) {
        let end = self.spans[id].end;
        match self.last_outbound.get(&src) {
            Some(&prev) if self.spans[prev].end >= end => {}
            _ => {
                self.last_outbound.insert(src, id);
            }
        }
    }

    /// Latest-ending span delivering into `dst`, if any.
    pub fn last_inbound(&self, dst: u32) -> Option<usize> {
        self.last_inbound.get(&dst).copied()
    }

    /// Latest-ending span emitted by `src`, if any.
    pub fn last_outbound(&self, src: u32) -> Option<usize> {
        self.last_outbound.get(&src).copied()
    }

    /// Walk backward from `terminal` and close the batch window
    /// `[start, end]`: extracts the critical path, stores its
    /// [`BatchBlame`], and resets the per-batch cursor state (pending
    /// kind/cause and device anchors; inbound/outbound lane horizons
    /// persist — a previous batch's transfer can legitimately queue the
    /// next batch's wire).
    pub fn end_batch(&mut self, start: SimTime, end: SimTime, terminal: Option<usize>) {
        let segments = self.walk(start, end, terminal);
        let mut vec = BlameVec::default();
        for s in &segments {
            vec.add(s.cat, s.end.since(s.start));
        }
        self.batches.push(BatchBlame {
            start,
            end,
            vec,
            segments,
        });
        self.pending_cause = None;
        self.kind = None;
        self.device_cause.clear();
    }

    /// Closed batches, in completion order.
    pub fn batches(&self) -> &[BatchBlame] {
        &self.batches
    }

    /// Blame vector summed over all closed batches.
    pub fn total(&self) -> BlameVec {
        let mut out = BlameVec::default();
        for b in &self.batches {
            out.accumulate(&b.vec);
        }
        out
    }

    /// The backward walk. Produces a gap-free partition of
    /// `[lo, hi]` in time order. Invariants: the cursor only ever moves to
    /// strictly smaller span ids (causes precede effects in recording
    /// order), and `t_hi` is strictly decreasing across iterations that
    /// emit segments, so the walk always terminates.
    fn walk(&self, lo: SimTime, hi: SimTime, terminal: Option<usize>) -> Vec<Segment> {
        let mut segs: Vec<Segment> = Vec::new();
        let push = |segs: &mut Vec<Segment>, start: SimTime, end: SimTime, cat| {
            if end > start {
                segs.push(Segment { start, end, cat });
            }
        };
        let mut t_hi = hi;
        let mut cur = terminal;
        while t_hi > lo {
            let Some(id) = cur else {
                push(&mut segs, lo, t_hi, BlameCategory::Overhead);
                break;
            };
            let s = &self.spans[id];
            // Gap between the span's completion and whatever consumed it:
            // unmodelled overhead (launch gaps, fence costs).
            let s_end = s.end.min(t_hi).max(lo);
            push(&mut segs, s_end, t_hi, BlameCategory::Overhead);
            t_hi = s_end;
            if t_hi <= lo {
                break;
            }
            // The span's own body bills its category.
            let s_start = s.start.min(t_hi).max(lo);
            push(&mut segs, s_start, t_hi, s.cat);
            t_hi = s_start;
            if t_hi <= lo {
                break;
            }
            // ready -> start: queue wait on the span's lane.
            let ready = s.ready.min(t_hi).max(lo);
            push(&mut segs, ready, t_hi, s.lane.queue_category(s.nic_bound));
            t_hi = ready;
            cur = s.cause;
        }
        segs.reverse();
        segs
    }

    /// Folded-stack flamegraph text over every closed batch's critical
    /// path: one `critical_path;<lane>;<category> <ns>` line per observed
    /// frame, deterministic order. Feed straight into any FlameGraph
    /// renderer. Lane frames come from the span graph where a segment's
    /// category is lane-specific and `all` otherwise.
    pub fn folded(&self) -> String {
        let mut agg: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
        for b in &self.batches {
            for s in &b.segments {
                let lane = self.segment_lane_frame(s);
                *agg.entry((lane, s.cat.label())).or_insert(0) += s.end.since(s.start).as_ns();
            }
        }
        let mut out = String::new();
        for ((lane, cat), ns) in agg {
            let _ = writeln!(out, "critical_path;{lane};{cat} {ns}");
        }
        out
    }

    /// Best-effort lane frame for a segment: the lane of a recorded span
    /// whose body covers it, else `all`.
    fn segment_lane_frame(&self, seg: &Segment) -> String {
        self.spans
            .iter()
            .find(|s| s.cat == seg.cat && s.start <= seg.start && s.end >= seg.end)
            .map(|s| s.lane.frame())
            .unwrap_or_else(|| "all".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_us(us)
    }

    #[test]
    fn empty_walk_is_all_overhead() {
        let mut g = SpanGraph::new();
        g.end_batch(t(0), t(10), None);
        let b = &g.batches()[0];
        assert_eq!(b.vec.total_ns(), Dur::from_us(10).as_ns());
        assert_eq!(b.vec.get(BlameCategory::Overhead), Dur::from_us(10).as_ns());
    }

    #[test]
    fn chain_partitions_batch_exactly() {
        let mut g = SpanGraph::new();
        // Kernel [1, 40] on gpu0, ready at 1 (no queue).
        let k = g.record(
            BlameCategory::GatherPool,
            Lane::Gpu(0),
            t(1),
            t(1),
            t(40),
            None,
            false,
        );
        // Wire [55, 80], ready at 41 (queued 14 µs on the link).
        let w = g.record(
            BlameCategory::WireIntra,
            Lane::Link(0, 1),
            t(41),
            t(55),
            t(80),
            Some(k),
            false,
        );
        // Sync [80, 83] caused by the wire span.
        let s = g.record(
            BlameCategory::Sync,
            Lane::Gpu(1),
            t(80),
            t(80),
            t(83),
            Some(w),
            false,
        );
        g.end_batch(t(0), t(83), Some(s));
        let b = &g.batches()[0];
        assert_eq!(b.vec.total_ns(), Dur::from_us(83).as_ns());
        let us = |c| b.vec.get(c) / 1_000;
        assert_eq!(us(BlameCategory::Sync), 3);
        assert_eq!(us(BlameCategory::WireIntra), 25);
        assert_eq!(us(BlameCategory::QueueComm), 14);
        assert_eq!(us(BlameCategory::GatherPool), 39);
        // ready->start gap of the kernel is 0; [0,1] before it is overhead,
        // plus the [40, 41] latency gap.
        assert_eq!(us(BlameCategory::Overhead), 2);
        // Segments tile the window in order.
        let mut cursor = b.start;
        for s in &b.segments {
            assert_eq!(s.start, cursor);
            cursor = s.end;
        }
        assert_eq!(cursor, b.end);
    }

    #[test]
    fn nic_bound_link_wait_bills_nic() {
        let mut g = SpanGraph::new();
        let w = g.record(
            BlameCategory::WireInter,
            Lane::Link(0, 4),
            t(0),
            t(10),
            t(20),
            None,
            true,
        );
        g.end_batch(t(0), t(20), Some(w));
        let b = &g.batches()[0];
        assert_eq!(b.vec.get(BlameCategory::Nic), Dur::from_us(10).as_ns());
        assert_eq!(
            b.vec.get(BlameCategory::WireInter),
            Dur::from_us(10).as_ns()
        );
        assert!(b.vec.exposed_comm_share() > 0.99);
    }

    #[test]
    fn spans_outside_window_are_clamped() {
        let mut g = SpanGraph::new();
        // Span straddling the batch start (carried over from a prior batch).
        let w = g.record(
            BlameCategory::WireIntra,
            Lane::Link(0, 1),
            t(0),
            t(0),
            t(30),
            None,
            false,
        );
        g.end_batch(t(10), t(30), Some(w));
        let b = &g.batches()[0];
        assert_eq!(b.vec.total_ns(), Dur::from_us(20).as_ns());
        assert_eq!(
            b.vec.get(BlameCategory::WireIntra),
            Dur::from_us(20).as_ns()
        );
    }

    #[test]
    fn inbound_outbound_keep_latest_ending() {
        let mut g = SpanGraph::new();
        let a = g.record(
            BlameCategory::WireIntra,
            Lane::Link(0, 1),
            t(0),
            t(0),
            t(50),
            None,
            false,
        );
        let b = g.record(
            BlameCategory::WireIntra,
            Lane::Link(2, 1),
            t(0),
            t(0),
            t(20),
            None,
            false,
        );
        g.note_inbound(1, a);
        g.note_inbound(1, b); // ends earlier: must not displace a
        assert_eq!(g.last_inbound(1), Some(a));
        g.note_outbound(2, b);
        assert_eq!(g.last_outbound(2), Some(b));
        assert_eq!(g.last_outbound(0), None);
    }

    #[test]
    fn folded_output_names_lanes_and_categories() {
        let mut g = SpanGraph::new();
        let k = g.record(
            BlameCategory::GatherPool,
            Lane::Gpu(0),
            t(0),
            t(0),
            t(10),
            None,
            false,
        );
        g.end_batch(t(0), t(10), Some(k));
        let folded = g.folded();
        assert_eq!(folded.trim(), "critical_path;gpu0;gather_pool 10000");
    }

    #[test]
    fn end_batch_resets_cursor_state_but_not_lane_horizons() {
        let mut g = SpanGraph::new();
        let k = g.record(
            BlameCategory::GatherPool,
            Lane::Gpu(0),
            t(0),
            t(0),
            t(10),
            None,
            false,
        );
        g.set_kind(BlameCategory::Gemm);
        g.set_cause(Some(k));
        g.set_device_cause(0, Some(k));
        g.note_outbound(0, k);
        g.end_batch(t(0), t(10), Some(k));
        assert_eq!(g.kind(), BlameCategory::GatherPool);
        assert_eq!(g.cause(), None);
        assert_eq!(g.device_cause(0), None);
        assert_eq!(g.last_outbound(0), Some(k));
    }
}
