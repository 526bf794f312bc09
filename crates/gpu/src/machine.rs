//! The machine: devices + fabric + measurement.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use desim::{Dur, Interval, Resource, SimTime, Spread, TimeSeries};
use telemetry::causal::{BlameCategory, Lane, SpanGraph};
use telemetry::Registry;

use crate::fault::{
    next_attempt_at, FabricError, FaultKind, FaultPlan, Faults, LinkState, MessageFault,
    RETRY_ATTEMPTS,
};
use crate::{GpuSpec, KernelRun, KernelShape, LinkSpec, Topology};

/// Everything needed to instantiate a [`Machine`].
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Per-device hardware parameters (one entry per GPU).
    pub specs: Vec<GpuSpec>,
    /// Interconnect between the devices.
    pub topology: Topology,
    /// Bucket width for the per-link traffic time series (Figures 7/10).
    pub traffic_bucket: Dur,
}

impl MachineConfig {
    /// The paper's testbed: `n` V100s on an NVLink crossbar.
    pub fn dgx_v100(n: usize) -> Self {
        MachineConfig {
            specs: vec![GpuSpec::v100(); n],
            topology: Topology::crossbar(n, LinkSpec::nvlink_v100()),
            traffic_bucket: Dur::from_us(50),
        }
    }

    /// A scale-out pod of V100 nodes: NVLink crossbar within a node, a
    /// RoCE/IB NIC tier across nodes ([`LinkSpec::roce`] — lower bandwidth,
    /// higher latency, and a steep per-message cost). The EXT-11 execution
    /// fabric: the tier is message-rate-limited, which is where flat per-row
    /// PGAS stores invert.
    pub fn pod_v100(nodes: usize, per_node: usize) -> Self {
        MachineConfig {
            specs: vec![GpuSpec::v100(); nodes * per_node],
            topology: Topology::multi_node(
                nodes,
                per_node,
                LinkSpec::nvlink_v100(),
                LinkSpec::roce(),
            ),
            traffic_bucket: Dur::from_us(50),
        }
    }

    /// Override the traffic-series bucket width.
    pub fn with_traffic_bucket(mut self, bucket: Dur) -> Self {
        self.traffic_bucket = bucket;
        self
    }
}

/// Aggregate communication statistics for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Payload bytes placed on any wire.
    pub payload_bytes: u64,
    /// Header bytes charged (per-message protocol overhead).
    pub header_bytes: u64,
    /// Number of messages.
    pub messages: u64,
    /// Of those, messages between GPUs on different nodes: on a pod
    /// topology, the slow tier's message count.
    pub inter_node_messages: u64,
}

impl TrafficStats {
    fn add(&mut self, more: TrafficStats) {
        self.payload_bytes += more.payload_bytes;
        self.header_bytes += more.header_bytes;
        self.messages += more.messages;
        self.inter_node_messages += more.inter_node_messages;
    }

    /// What was counted since the counters read `earlier`.
    fn since(self, earlier: TrafficStats) -> TrafficStats {
        TrafficStats {
            payload_bytes: self.payload_bytes - earlier.payload_bytes,
            header_bytes: self.header_bytes - earlier.header_bytes,
            messages: self.messages - earlier.messages,
            inter_node_messages: self.inter_node_messages - earlier.inter_node_messages,
        }
    }

    /// Fraction of wire bytes that were protocol overhead.
    pub fn header_overhead(&self) -> f64 {
        let total = self.payload_bytes + self.header_bytes;
        if total == 0 {
            0.0
        } else {
            self.header_bytes as f64 / total as f64
        }
    }
}

/// Payload bytes over time for one ordered pair: `(bucket, bytes)` entries
/// sorted by bucket, one per bucket a transfer overlapped, so memory follows
/// the wire's busy time rather than the length of the simulated timeline.
/// Deposits add the same [`Spread`] terms in the same order a dense
/// [`TimeSeries`] would, so the dense read-out holds the same bits.
#[derive(Clone, Debug, Default)]
struct PairTraffic {
    entries: Vec<(usize, f64)>,
    /// `[lo, hi)` in ns of the last entry's bucket (empty while there is no
    /// entry): a transfer inside it is one add, with no division.
    tail_ns: (u64, u64),
}

impl PairTraffic {
    /// Add `value` spread over `[start, end)` on `bucket`-wide buckets.
    fn deposit(&mut self, bucket: Dur, start: SimTime, end: SimTime, value: f64) {
        let e = &mut self.entries;
        let (lo, hi) = self.tail_ns;
        let in_tail = lo <= start.as_ns() && start.as_ns() < hi && end.as_ns() <= hi;
        if let (true, Some(tail)) = (in_tail, e.last_mut()) {
            // The common case on a FIFO link. `Spread::over` gives the one
            // bucket a span overlaps all of `value`, as its `head`.
            tail.1 += value;
            return;
        }
        let s = Spread::over(bucket, start, end, value);
        // A link is FIFO, so a transfer's first bucket is the tail's or a
        // later one and this search is one step; it is a search so that the
        // store's contents never rest on that argument.
        let mut at = e.len();
        while at > 0 && e[at - 1].0 >= s.first {
            at -= 1;
        }
        for b in s.first..=s.last {
            if e.get(at).is_none_or(|&(have, _)| have != b) {
                e.insert(at, (b, 0.0));
            }
            e[at].1 += if b == s.first {
                s.head
            } else if b < s.last {
                s.mid
            } else {
                s.tail
            };
            at += 1;
        }
        let tail = e[e.len() - 1].0 as u64 * bucket.as_ns();
        self.tail_ns = (tail, tail + bucket.as_ns());
    }

    /// Add the entries to the dense `out` (same bucket width), in bucket
    /// order; exact zeros only when `keep_zeros` (they extend `out`).
    fn add_to(&self, out: &mut TimeSeries, keep_zeros: bool) {
        let bucket_ns = out.bucket_width().as_ns();
        for &(b, v) in &self.entries {
            if keep_zeros || v != 0.0 {
                out.add(SimTime::from_ns(b as u64 * bucket_ns), v);
            }
        }
    }
}

/// What one source's sends did to the machine, as [`Machine::record_train`]
/// saw the per-message path book them and [`Machine::replay_train`] books
/// them again. Only an unobserved machine records or replays one, so no
/// payload series is owed a deposit. Times count from the
/// train's origin, an instant no send was requested before: a [`Resource`]
/// idle when its first job arrives serves a train the same way every time,
/// so the train holds wherever the source's injection port and the links it
/// used are idle at the origin. The fabric it holds on travels with it.
#[derive(Clone, Debug)]
pub struct SendTrain {
    src: usize,
    inj_bw: f64,
    /// The injection port and, per destination, the link with its spec, as
    /// the sends leave them when idle at time zero.
    injection: Resource,
    links: Vec<(usize, LinkSpec, Resource)>,
    stats: TrafficStats,
}

impl SendTrain {
    /// Sends the train holds.
    pub fn sends(&self) -> u64 {
        self.injection.jobs_served()
    }
}

/// A recording under way ([`Machine::record_train`]): its source and origin,
/// the source's injection port and outbound links and the traffic counters
/// as they stood when it began, and whether every send since is one a train
/// can hold. The train is what those resources have served since.
struct Recording {
    src: usize,
    origin: SimTime,
    injection: Resource,
    links: Vec<Resource>,
    stats: TrafficStats,
    held: bool,
}

/// One transfer for [`Machine::transmit`]: `payload` bytes from `src` to
/// `dst` as `messages` wire messages, ready at `ready`, at wire efficiency
/// `efficiency` in `(0, 1]`, meeting the fault plan as `faults` says.
#[derive(Clone, Copy, Debug)]
pub struct Send {
    /// Sending device.
    pub src: usize,
    /// Receiving device, never `src`.
    pub dst: usize,
    /// Payload bytes.
    pub payload: u64,
    /// Wire messages the payload travels as (each pays the link's header).
    pub messages: u64,
    /// When the bytes are ready to leave.
    pub ready: SimTime,
    /// Divides the link time: 1.0 for stores, less for collective chunks.
    pub efficiency: f64,
    /// How the installed fault plan is met.
    pub faults: Faults,
}

/// Record of a delivered transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Wire interval of the attempt that succeeded.
    pub interval: Interval,
    /// Total attempts (1 = clean first try).
    pub attempts: u32,
}

/// A deterministic simulated multi-GPU machine.
///
/// All operations take explicit "ready" times and return the interval the
/// operation occupied, so higher layers can compose arbitrary dependency
/// DAGs. Per-device default streams serialize kernels; per-ordered-pair
/// links serialize transfers FIFO.
pub struct Machine {
    cfg: MachineConfig,
    /// Next-free time of each device's default stream.
    streams: Vec<SimTime>,
    /// Auxiliary compute streams per device ([`Machine::add_stream`]).
    /// Each serializes its own kernels and runs concurrently with the
    /// default stream; empty unless a scheduler asks for them, so existing
    /// single-stream schedules never touch this path.
    aux_streams: Vec<Vec<Resource>>,
    /// One serialized resource per ordered pair, indexed `src * n + dst`.
    links: Vec<Resource>,
    /// Per-device injection port (the GPU's whole NVLink/NIC complex).
    injection: Vec<Resource>,
    /// Per-node egress NIC (the node's HCA): inter-node transfers from all
    /// GPUs of a node additionally serialize through it, making cross-node
    /// bandwidth a *node* resource rather than a per-pair resource.
    /// Intra-node transfers never touch it, and a node with a single GPU
    /// sees timing identical to the plain per-pair link (the NIC and link
    /// horizons coincide).
    nics: Vec<Resource>,
    /// Payload bytes on the wire over time, per ordered pair; deposited only
    /// while telemetry is on ([`Machine::enable_telemetry`]).
    traffic: Vec<PairTraffic>,
    /// Latest send-completion per source device (for PGAS `quiet`).
    sent_upto: Vec<SimTime>,
    /// The recording under way, if any ([`Machine::record_train`]).
    recording: Option<Recording>,
    stats: TrafficStats,
    horizon: SimTime,
    trace: Option<crate::TraceLog>,
    /// Installed fault schedule, if any. A trivial plan (all-zero spec) is
    /// treated exactly like no plan: every fault code path is bypassed.
    faults: Option<FaultPlan>,
    /// Opt-in metrics registry (disabled by default: recording methods
    /// short-circuit on one branch and never allocate).
    metrics: Registry,
    /// Opt-in causal span graph for critical-path blame attribution
    /// (EXT-16). Like telemetry: `None` by default, every hook is one
    /// branch, and recording never perturbs simulated timing.
    blame: Option<SpanGraph>,
}

impl Machine {
    /// Build a machine from a config. Panics if the spec count does not
    /// match the topology.
    pub fn new(cfg: MachineConfig) -> Self {
        let n = cfg.topology.n_gpus();
        assert_eq!(
            cfg.specs.len(),
            n,
            "got {} GPU specs for a {}-GPU topology",
            cfg.specs.len(),
            n
        );
        Machine {
            streams: vec![SimTime::ZERO; n],
            aux_streams: vec![Vec::new(); n],
            links: vec![Resource::new(); n * n],
            injection: vec![Resource::new(); n],
            nics: vec![Resource::new(); cfg.topology.nodes()],
            traffic: vec![PairTraffic::default(); n * n],
            sent_upto: vec![SimTime::ZERO; n],
            recording: None,
            stats: TrafficStats::default(),
            horizon: SimTime::ZERO,
            trace: None,
            faults: None,
            metrics: Registry::disabled(),
            blame: None,
            cfg,
        }
    }

    /// Start recording telemetry into an opt-in [`Registry`], with timeline
    /// buckets matching the machine's `traffic_bucket`: the machine counts
    /// sends and kernel launches, and keeps per-link busy and stall
    /// timelines and the per-pair payload series
    /// ([`Machine::traffic_between`]). Message counts, per fabric tier too,
    /// are in [`Machine::traffic_stats`], observed or not. Telemetry never
    /// perturbs simulated timing; with it off (the default) the hot paths
    /// do not allocate.
    pub fn enable_telemetry(&mut self) {
        self.metrics = Registry::enabled(self.cfg.traffic_bucket);
    }

    /// The metrics registry (disabled unless
    /// [`Machine::enable_telemetry`] was called).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Mutable registry access for higher layers (PGAS runtime,
    /// collectives) recording their own metrics against this machine's
    /// clock.
    pub fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.metrics
    }

    /// Start recording every billed interval (kernel, wire, NIC, retry
    /// backoff, …) into a causal [`SpanGraph`] for critical-path blame
    /// attribution. Opt-in like telemetry: off by default, and enabling it
    /// never perturbs simulated timing.
    pub fn enable_blame(&mut self) {
        self.blame = Some(SpanGraph::new());
    }

    /// The recorded span graph, if [`Machine::enable_blame`] was called.
    pub fn blame(&self) -> Option<&SpanGraph> {
        self.blame.as_ref()
    }

    /// Mutable span-graph access for the layers that know the causality
    /// the machine cannot see (executors recording sync fences, the PGAS
    /// gateway recording staging spans).
    pub fn blame_mut(&mut self) -> Option<&mut SpanGraph> {
        self.blame.as_mut()
    }

    /// Id of the most recently recorded blame span, if any.
    pub fn blame_last_span(&self) -> Option<usize> {
        self.blame.as_ref().and_then(|b| b.last_span())
    }

    /// Render every closed batch's critical path onto a `blame` trace
    /// track: one span per path segment, named by its category. Requires
    /// both [`Machine::enable_trace`] and [`Machine::enable_blame`];
    /// otherwise a no-op. Call once, after the run, before exporting.
    pub fn blame_trace_lanes(&mut self) {
        let Some(trace) = self.trace.as_mut() else {
            return;
        };
        let Some(blame) = self.blame.as_ref() else {
            return;
        };
        for (idx, b) in blame.batches().iter().enumerate() {
            for s in b.segments.iter().filter(|s| s.end > s.start) {
                trace.record(
                    format!("blame.b{idx}"),
                    s.cat.label().to_string(),
                    Interval {
                        start: s.start,
                        end: s.end,
                    },
                );
            }
        }
    }

    /// Install a fault schedule. Panics if the plan was generated for a
    /// different GPU count. Installing a trivial plan keeps the machine on
    /// the exact fault-free timing path.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        assert_eq!(
            plan.n_gpus(),
            self.n_gpus(),
            "fault plan generated for {} GPUs, machine has {}",
            plan.n_gpus(),
            self.n_gpus()
        );
        if self.trace.is_some() {
            Self::trace_fault_windows(&mut self.trace, &plan);
        }
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// True if a non-trivial fault plan is installed — otherwise
    /// [`Machine::transmit`] books every transfer on its first attempt.
    pub fn faults_active(&self) -> bool {
        self.faults.as_ref().is_some_and(|p| !p.is_trivial())
    }

    /// Straggler slowdown factor for `dev` (1.0 when healthy or no plan).
    pub fn straggler_factor(&self, dev: usize) -> f64 {
        match &self.faults {
            Some(p) if !p.is_trivial() => p.straggler_factor(dev),
            _ => 1.0,
        }
    }

    /// If `dev` is inside a whole-device outage window at `at`, the instant
    /// it recovers; `None` when healthy or no plan is installed. Resilient
    /// callers poll this before a batch and serve the lost shard from
    /// hot-cache replicas or the degradation fill.
    pub fn device_down_until(&self, dev: usize, at: SimTime) -> Option<SimTime> {
        match &self.faults {
            Some(p) if !p.is_trivial() => p.device_down_until(dev, at),
            _ => None,
        }
    }

    /// The [`FabricError::DeviceLost`] a fallible caller observes touching
    /// `dev` at `at`, if the device is inside an outage window.
    pub fn device_error(&self, dev: usize, at: SimTime) -> Option<FabricError> {
        match &self.faults {
            Some(p) if !p.is_trivial() => p.device_error(dev, at),
            _ => None,
        }
    }

    /// Fraction of `[start, end)` during which the directed link sits inside
    /// a scheduled fault window. Zero when no plan is installed. Feeds the
    /// fault column of the fig7/fig10 traffic CSVs.
    pub fn fault_fraction(&self, src: usize, dst: usize, start: SimTime, end: SimTime) -> f64 {
        match &self.faults {
            Some(p) if !p.is_trivial() => p.fault_fraction(src, dst, start, end),
            _ => 0.0,
        }
    }

    fn trace_fault_windows(trace: &mut Option<crate::TraceLog>, plan: &FaultPlan) {
        let Some(t) = trace else { return };
        if plan.is_trivial() {
            return;
        }
        for src in 0..plan.n_gpus() {
            for dst in 0..plan.n_gpus() {
                for w in plan.windows(src, dst) {
                    let name = match w.kind {
                        FaultKind::Down => "link down".to_string(),
                        FaultKind::Degraded(f) => format!("degraded {:.0}%", f * 100.0),
                    };
                    t.record(
                        format!("fault{src}->{dst}"),
                        name,
                        Interval {
                            start: w.start,
                            end: w.end,
                        },
                    );
                }
            }
        }
    }

    /// Start recording every kernel and transfer into a [`crate::TraceLog`]
    /// (export with [`Machine::trace`] → `to_chrome_json`). Intended for
    /// small runs — tracing records one span per message batch.
    pub fn enable_trace(&mut self) {
        self.trace = Some(crate::TraceLog::new());
        if let Some(plan) = self.faults.take() {
            Self::trace_fault_windows(&mut self.trace, &plan);
            self.faults = Some(plan);
        }
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&crate::TraceLog> {
        self.trace.as_ref()
    }

    /// Mutable trace access, for higher layers recording their own spans
    /// or flow arrows (e.g. tying a remote put to its pooled write).
    pub fn trace_mut(&mut self) -> Option<&mut crate::TraceLog> {
        self.trace.as_mut()
    }

    /// Sample the telemetry registry's per-link timelines into `"ph":"C"`
    /// counter tracks on the trace: one `utilization` series and one
    /// `queue depth` series per directed link. Requires both
    /// [`Machine::enable_trace`] and [`Machine::enable_telemetry`];
    /// otherwise a no-op. Call once, after the run, before exporting.
    pub fn trace_counter_tracks(&mut self) {
        let Some(trace) = self.trace.as_mut() else {
            return;
        };
        if !self.metrics.is_enabled() {
            return;
        }
        let bucket_ns = self.metrics.bucket().as_ns() as f64;
        for (key, ts) in self.metrics.timelines_named("link_busy_ns") {
            let track = format!("link{}->{}", key.i, key.j);
            for (t, v) in ts.points() {
                trace.record_counter(&track, "utilization", t, v / bucket_ns);
            }
        }
        for (key, ts) in self.metrics.timelines_named("link_stall_ns") {
            let track = format!("link{}->{}", key.i, key.j);
            for (t, v) in ts.points() {
                trace.record_counter(&track, "queue depth", t, v / bucket_ns);
            }
        }
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.cfg.topology.n_gpus()
    }

    /// Hardware spec of device `dev`.
    pub fn spec(&self, dev: usize) -> &GpuSpec {
        &self.cfg.specs[dev]
    }

    /// The interconnect topology.
    pub fn topology(&self) -> &Topology {
        &self.cfg.topology
    }

    /// Launch a kernel of `block_durations.len()` blocks on `dev`'s default
    /// stream, not before `ready`: pays the launch overhead, then dispatches
    /// the blocks in order onto `resident` wave slots (equal durations are
    /// [`KernelShape`]'s wave model; sampled pooling factors vary them).
    pub fn run_kernel_varied(
        &mut self,
        dev: usize,
        block_durations: &[Dur],
        ready: SimTime,
    ) -> KernelRun {
        let slow = self.straggler_factor(dev);
        let spec = &self.cfg.specs[dev];
        let start = self.streams[dev].max(ready) + spec.kernel_launch;
        let mut run = KernelRun {
            interval: Interval { start, end: start },
            block_ends: Vec::with_capacity(block_durations.len()),
            resident: 1,
        };
        if !block_durations.is_empty() {
            run.resident = KernelShape::effective_resident(
                block_durations.len() as u64,
                spec.max_resident_blocks(),
            );
            // Straggler scaling only when active: factor 1.0 must not take
            // the float path, so healthy runs stay bit-identical.
            let durs = block_durations.iter();
            let durs = durs.map(|&d| if slow != 1.0 { d * slow } else { d });
            run.interval.end = dispatch(start, run.resident as usize, durs, &mut run.block_ends);
        }
        let blocks = block_durations.len() as u64;
        self.note_kernel(dev, (blocks > 0).then_some(blocks), ready, run.interval);
        run
    }

    /// [`Machine::run_kernel_varied`] for a kernel of `blocks` blocks whose
    /// `length` (that call's `interval` on this GPU) is already known: the
    /// same launch without dispatching the blocks. Good at straggler factor
    /// 1.0 only, where block times are integer ns from the kernel's start; a
    /// straggling device refuses (`None`) and nothing changes.
    pub fn run_kernel_timed(
        &mut self,
        dev: usize,
        blocks: usize,
        length: Dur,
        ready: SimTime,
    ) -> Option<Interval> {
        let start = self.streams[dev].max(ready) + self.cfg.specs[dev].kernel_launch;
        let (end, blocks) = (start + length, blocks as u64);
        (self.straggler_factor(dev) == 1.0).then(|| {
            let interval = Interval { start, end };
            self.note_kernel(dev, (blocks > 0).then_some(blocks), ready, interval);
            interval
        })
    }

    /// Bookkeeping of a default-stream kernel that ran over `interval`:
    /// stream, horizon, blame span and, unless the launch was empty (no
    /// `blocks`: it counts as no kernel), telemetry and the trace event.
    fn note_kernel(&mut self, dev: usize, blocks: Option<u64>, ready: SimTime, interval: Interval) {
        let Interval { start, end } = interval;
        let launch = self.cfg.specs[dev].kernel_launch;
        self.streams[dev] = end;
        self.bump(end);
        if let Some(b) = &mut self.blame {
            let (cat, cause) = (b.kind(), b.cause());
            b.record(
                cat,
                Lane::Gpu(dev as u32),
                ready + launch,
                start,
                end,
                cause,
                false,
            );
        }
        let Some(blocks) = blocks else { return };
        self.metrics.incr("kernels_launched", dev as u32, 0);
        if let Some(t) = &mut self.trace {
            t.record(
                format!("gpu{dev}"),
                format!("kernel({blocks} blk)"),
                interval,
            );
        }
    }

    /// Create one auxiliary compute stream on `dev` (the CUDA analogue of
    /// `cudaStreamCreate`). Kernels issued on it via
    /// [`Machine::run_on_stream`] / [`Machine::run_chunked_on`] serialize
    /// among themselves but overlap the default stream and every other
    /// stream. Trace spans land on their own `gpu{dev}.s{idx}` lane.
    pub fn add_stream(&mut self, dev: usize) -> crate::StreamId {
        let idx = self.aux_streams[dev].len();
        self.aux_streams[dev].push(Resource::new());
        crate::StreamId { dev, idx }
    }

    /// Total kernel-execution time issued on stream `s` (gaps excluded) —
    /// the numerator of a stream-occupancy / pipeline-bubble metric.
    pub fn stream_busy_time(&self, s: crate::StreamId) -> Dur {
        self.aux_streams[s.dev][s.idx].busy_time()
    }

    /// Launch one kernel of duration `dur` on auxiliary stream `s`, not
    /// before `gate` fires. Pays the launch overhead like every default-
    /// stream kernel, honours straggler scaling, and serializes behind
    /// whatever the stream is already running.
    pub fn run_on_stream(
        &mut self,
        s: crate::StreamId,
        label: &'static str,
        dur: Dur,
        gate: crate::Event,
    ) -> Interval {
        let slow = self.straggler_factor(s.dev);
        let d = if slow != 1.0 { dur * slow } else { dur };
        let launch = self.cfg.specs[s.dev].kernel_launch;
        let res = &mut self.aux_streams[s.dev][s.idx];
        let begin = res.free_at().max(gate.when()) + launch;
        let iv = res.acquire(begin, d);
        self.note_stream_kernel(s, label, iv, gate.when() + launch);
        iv
    }

    /// Launch one *persistent* kernel on stream `s` whose thread blocks
    /// consume `chunks` in order, each chunk polling until its gate event
    /// has fired (the fused-communication consumer pattern: interaction
    /// blocks spin on the arrival flags of the embedding rows they read).
    /// One launch overhead is paid for the whole kernel; chunk `c` then
    /// executes at `max(end of chunk c-1, gate_c)`. Returns the kernel's
    /// overall interval. Gaps between chunks are *not* billed to
    /// [`Machine::stream_busy_time`] — they are exactly the pipeline
    /// bubbles the occupancy metric exists to expose.
    pub fn run_chunked_on(
        &mut self,
        s: crate::StreamId,
        chunks: &[crate::StageChunk],
        gate: crate::Event,
    ) -> Interval {
        let slow = self.straggler_factor(s.dev);
        let launch = self.cfg.specs[s.dev].kernel_launch;
        let begin = self.aux_streams[s.dev][s.idx].free_at().max(gate.when()) + launch;
        if chunks.is_empty() {
            let iv = self.aux_streams[s.dev][s.idx].acquire(begin, Dur::ZERO);
            self.bump(iv.end);
            return iv;
        }
        let mut first: Option<SimTime> = None;
        let mut cursor = begin;
        for c in chunks {
            let d = if slow != 1.0 { c.dur * slow } else { c.dur };
            let iv = self.aux_streams[s.dev][s.idx].acquire(cursor.max(c.gate.when()), d);
            // `ready = cursor`: the gap a gate opens between the previous
            // chunk's end and this one's start is a pipeline bubble.
            self.note_stream_kernel(s, c.label, iv, cursor);
            first.get_or_insert(iv.start);
            cursor = iv.end;
        }
        Interval {
            start: first.expect("non-empty chunk list"),
            end: cursor,
        }
    }

    /// Shared bookkeeping for auxiliary-stream kernels: horizon, the
    /// `gpu{dev}.s{idx}` trace lane, and (when blame is on) a stream-lane
    /// span whose ready→start gap is the pipeline bubble ahead of it.
    fn note_stream_kernel(
        &mut self,
        s: crate::StreamId,
        label: &str,
        iv: Interval,
        ready: SimTime,
    ) {
        self.bump(iv.end);
        if let Some(b) = &mut self.blame {
            let (cat, cause) = (b.kind(), b.cause());
            b.record(
                cat,
                Lane::Stream(s.dev as u32, s.idx as u32),
                ready,
                iv.start,
                iv.end,
                cause,
                false,
            );
        }
        if let Some(t) = &mut self.trace {
            t.record(format!("gpu{}.s{}", s.dev, s.idx), label.to_string(), iv);
        }
    }

    /// Book a transfer on the fabric, whatever a fault plan says: its wire
    /// interval. Inlined into both of [`Machine::transmit`]'s paths:
    /// outlined, it cost about 10 % of a clean send (≈ 3 of 29 ns on a
    /// shared 2-core x86-64 host).
    #[inline(always)]
    fn book(
        &mut self,
        (src, dst): (usize, usize),
        payload: u64,
        n_messages: u64,
        ready: SimTime,
        efficiency: f64,
    ) -> Interval {
        assert_ne!(src, dst, "send to self does not touch the fabric");
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency {efficiency} out of (0, 1]"
        );
        let link = *self.cfg.topology.link(src, dst);
        let n = self.n_gpus();
        let same_node = self.cfg.topology.same_node(src, dst);
        let requested = ready + link.latency;
        let header_bytes = n_messages * link.header_bytes as u64;
        let mut wire = link.wire_time(payload, n_messages);
        // Full efficiency skips the float round trip (`x * 1.0` is `x`).
        if efficiency != 1.0 {
            wire = wire * (1.0 / efficiency);
        }
        // The injection port admits the bytes at the GPU's aggregate rate;
        // the link then streams them at its own (slower or contended) rate.
        let inj_time =
            Dur::from_secs_f64((payload + header_bytes) as f64 / self.cfg.specs[src].inj_bw);
        let inj_iv = self.injection[src].acquire(requested, inj_time);
        // Cross-node traffic funnels through the source node's shared NIC
        // before its pair link; intra-node traffic rides the crossbar only.
        let nic = (!same_node).then(|| {
            let node = self.cfg.topology.node_of(src);
            self.nics[node].acquire(inj_iv.start, wire)
        });
        let wire_from = nic.map_or(inj_iv.start, |nic_iv| nic_iv.start);
        let link_iv = self.links[src * n + dst].acquire(wire_from, wire);
        let iv = Interval {
            start: link_iv.start,
            end: link_iv.end.max(inj_iv.end),
        };
        let sent = TrafficStats {
            payload_bytes: payload,
            header_bytes,
            messages: n_messages,
            inter_node_messages: if same_node { 0 } else { n_messages },
        };
        if let Some(r) = &mut self.recording {
            r.held &= src == r.src && same_node && requested >= r.origin;
        }
        if let Some(b) = &mut self.blame {
            let cat = if same_node {
                BlameCategory::WireIntra
            } else {
                BlameCategory::WireInter
            };
            let cause = b.device_cause(src as u32);
            let id = b.record(
                cat,
                Lane::Link(src as u32, dst as u32),
                requested,
                iv.start,
                iv.end,
                cause,
                wire_from > inj_iv.start,
            );
            b.note_outbound(src as u32, id);
            b.note_inbound(dst as u32, id);
        }
        self.stats.add(sent);
        self.sent_upto[src] = self.sent_upto[src].max(iv.end);
        self.bump(iv.end);
        if self.metrics.is_enabled() {
            let bucket = self.cfg.traffic_bucket;
            self.traffic[src * n + dst].deposit(bucket, iv.start, iv.end, payload as f64);
            let (si, di) = (src as u32, dst as u32);
            self.metrics.incr("fabric_sends", si, di);
            // Busy-time over the wire interval: bucket_value / bucket_ns is
            // this link's utilization in that bucket.
            self.metrics.span("link_busy_ns", si, di, iv.start, iv.end);
            // Stall: the gap between when the transfer wanted the wire and
            // when it got it — bucket_value / bucket_ns is the average
            // number of transfers queued on this link.
            self.metrics
                .span("link_stall_ns", si, di, requested, iv.start);
        }
        if let Some(t) = &mut self.trace {
            t.record(
                format!("link{src}->{dst}"),
                format!("{payload}B x{n_messages}"),
                iv,
            );
        }
        iv
    }

    /// Whether `src` could start a [`SendTrain`] at `origin`: nothing
    /// observes or perturbs single sends and its injection port is idle.
    fn train_may_start(&self, src: usize, origin: SimTime) -> bool {
        let observed = self.metrics.is_enabled() || self.blame.is_some() || self.trace.is_some();
        let port = self.injection.get(src);
        let idle = port.is_some_and(|p| p.free_at() <= origin) && self.recording.is_none();
        idle && !observed && !self.faults_active()
    }

    /// Start recording `src`'s sends, made through [`Machine::transmit`] as
    /// always, as a [`SendTrain`] with its origin at `origin` (say
    /// the start of the kernel that issues them). Returns whether a recording
    /// began; when it did, [`Machine::finish_train`] must end it.
    pub fn record_train(&mut self, src: usize, origin: SimTime) -> bool {
        let may = self.train_may_start(src, origin);
        if may {
            let n = self.n_gpus();
            self.recording = Some(Recording {
                src,
                origin,
                injection: self.injection[src].clone(),
                links: self.links[src * n..][..n].to_vec(),
                stats: self.stats,
                held: true,
            });
        }
        may
    }

    /// End the recording: the train, read off by how far the source's port,
    /// its links and the traffic counters moved since it began, unless a send
    /// since was not one a train can hold (another source's, one that left
    /// the node or was requested before the origin) or one used a link still
    /// busy at the origin.
    pub fn finish_train(&mut self) -> Option<SendTrain> {
        let r = self.recording.take().filter(|r| r.held)?;
        let (n, src, origin) = (self.n_gpus(), r.src, r.origin);
        let now = &self.links[src * n..][..n];
        let mut links = Vec::new();
        for (dst, (before, after)) in r.links.iter().zip(now).enumerate() {
            if after.jobs_served() == before.jobs_served() {
                continue;
            }
            if before.free_at() > origin {
                return None;
            }
            let spec = *self.cfg.topology.link(src, dst);
            links.push((dst, spec, after.train_since(before, origin)));
        }
        Some(SendTrain {
            src,
            inj_bw: self.cfg.specs[src].inj_bw,
            injection: self.injection[src].train_since(&r.injection, origin),
            links,
            stats: self.stats.since(r.stats),
        })
    }

    /// Book `train` again with its origin at `origin`, once per resource it
    /// used: O(links), whatever its number of sends. Refuses (`false`,
    /// nothing changed) unless a recording could start here (so nothing
    /// observes the sends, and no payload series is owed their deposits), the
    /// fabric is the one recorded on, with every peer on the source's node,
    /// and the links used are idle.
    pub fn replay_train(&mut self, train: &SendTrain, origin: SimTime) -> bool {
        let (n, src) = (self.n_gpus(), train.src);
        let topo = &self.cfg.topology;
        let fits = self.train_may_start(src, origin)
            && self.cfg.specs[src].inj_bw == train.inj_bw
            && train.links.iter().all(|(dst, spec, _)| {
                *dst < n
                    && topo.same_node(src, *dst)
                    && topo.link(src, *dst) == spec
                    && self.links[src * n + dst].free_at() <= origin
            });
        if !fits {
            return false;
        }
        self.injection[src].book_train(origin, &train.injection);
        for (dst, _, link) in &train.links {
            self.links[src * n + dst].book_train(origin, link);
        }
        self.stats.add(train.stats);
        // A send is delivered when its port and its link are through.
        let last = self.links[src * n..][..n].iter().map(Resource::free_at);
        let last = last.fold(self.injection[src].free_at(), SimTime::max);
        self.sent_upto[src] = self.sent_upto[src].max(last);
        self.bump(last);
        true
    }

    /// Put `s` on the wire: the one entry to the fabric. The link serializes
    /// transfers FIFO in call order, the source's injection port caps its
    /// aggregate outbound rate, and the bytes enter a link latency after
    /// `s.ready`. With [`Faults::Ignore`], or no (or a trivial) fault plan,
    /// the transfer is booked on its first attempt. Otherwise an attempt
    /// fails on a down link, or consumes its wire time and fails when its
    /// message is dropped; a degraded link stretches it and a delayed message
    /// adds jitter. [`Faults::Retry`] retries both failures with capped
    /// exponential backoff in simulated time, inline (so transfers to one
    /// destination never reorder), and errs with
    /// [`FabricError::RetryExhausted`] once the budget is spent.
    pub fn transmit(&mut self, s: &Send) -> Result<Delivery, FabricError> {
        if matches!(s.faults, Faults::Ignore) || !self.faults_active() {
            let interval = self.book((s.src, s.dst), s.payload, s.messages, s.ready, s.efficiency);
            return Ok(Delivery {
                interval,
                attempts: 1,
            });
        }
        let (src, dst) = (s.src, s.dst);
        assert_ne!(src, dst, "send to self does not touch the fabric");
        let (mut ready, mut attempts) = (s.ready, 1u32);
        loop {
            // The link's state at the injection instant and the message's
            // sampled fate decide an attempt up front; a degraded link
            // stretches the booking through its efficiency.
            let link_latency = self.cfg.topology.link(src, dst).latency;
            let at = ready + link_latency;
            let Some(plan) = self.faults.as_mut() else {
                unreachable!("only a machine with active faults attempts")
            };
            let e = match plan.link_state(src, dst, at) {
                LinkState::Down { up_at } => FabricError::LinkDown {
                    src,
                    dst,
                    at,
                    up_at,
                },
                LinkState::Up { bw_factor } => {
                    let fate = plan.sample_message(src, dst);
                    let eff = s.efficiency * bw_factor.min(1.0);
                    let interval = self.book((src, dst), s.payload, s.messages, ready, eff);
                    match fate {
                        MessageFault::None => return Ok(Delivery { interval, attempts }),
                        MessageFault::Delay(jitter) => {
                            let end = interval.end + jitter;
                            self.sent_upto[src] = self.sent_upto[src].max(end);
                            self.bump(end);
                            let interval = Interval { end, ..interval };
                            return Ok(Delivery { interval, attempts });
                        }
                        // Transmitted, then lost: the wire time is spent.
                        MessageFault::Drop => {
                            let at = interval.end;
                            FabricError::MessageDropped { src, dst, at }
                        }
                    }
                }
            };
            if !matches!(s.faults, Faults::Retry) {
                return Err(e);
            }
            if !e.is_retryable() || attempts >= RETRY_ATTEMPTS {
                let last = Box::new(e);
                return Err(FabricError::RetryExhausted { attempts, last });
            }
            let next = next_attempt_at(&e, attempts);
            if let Some(b) = &mut self.blame {
                // The backoff window is a span in its own right: the
                // eventual wire span chains through it (the retry re-anchors
                // the device cause below), so fault-induced waits bill
                // `Retry` on the path.
                let failed_at = e.observed_at();
                let cause = b.device_cause(src as u32);
                let rid = b.record(
                    BlameCategory::Retry,
                    Lane::Link(src as u32, dst as u32),
                    failed_at,
                    failed_at,
                    next,
                    cause,
                    false,
                );
                b.set_device_cause(src as u32, Some(rid));
            }
            // A retry's `ready` feeds the link-latency offset again, so back
            // out the latency the next attempt will re-add.
            ready = if next.as_ns() >= link_latency.as_ns() {
                next - link_latency
            } else {
                SimTime::ZERO
            };
            attempts += 1;
        }
    }

    /// Host-visible stream synchronization on `dev`: returns the time the
    /// host observes completion of everything enqueued before `at`.
    pub fn stream_sync(&mut self, dev: usize, at: SimTime) -> SimTime {
        let t = self.streams[dev].max(at) + self.cfg.specs[dev].stream_sync;
        self.bump(t);
        t
    }

    /// PGAS `quiet` on `src`: the instant all messages issued by `src` have
    /// been delivered, observed no earlier than `at`.
    pub fn quiet(&mut self, src: usize, at: SimTime) -> SimTime {
        let t = self.sent_upto[src].max(at);
        self.bump(t);
        t
    }

    /// Barrier across per-device times: everyone proceeds at the max.
    pub fn barrier(&mut self, times: &[SimTime]) -> SimTime {
        let t = times.iter().copied().fold(SimTime::ZERO, SimTime::max);
        self.bump(t);
        t
    }

    /// Latest instant any simulated activity completed.
    pub fn finish_time(&self) -> SimTime {
        self.horizon
    }

    /// Payload-bytes-over-time series for the directed pair `(src, dst)`,
    /// materialised densely from the pair's sparse store. Recorded only
    /// while telemetry is on ([`Machine::enable_telemetry`]): on an
    /// unobserved machine the series is empty.
    pub fn traffic_between(&self, src: usize, dst: usize) -> TimeSeries {
        let mut out = TimeSeries::new(self.cfg.traffic_bucket);
        self.traffic[src * self.n_gpus() + dst].add_to(&mut out, true);
        out
    }

    /// Sum of payload traffic over all links, as one series (empty on an
    /// unobserved machine, like [`Machine::traffic_between`]).
    pub fn total_traffic(&self) -> TimeSeries {
        let mut out = TimeSeries::new(self.cfg.traffic_bucket);
        for pair in &self.traffic {
            pair.add_to(&mut out, false);
        }
        out
    }

    /// Aggregate traffic statistics.
    pub fn traffic_stats(&self) -> TrafficStats {
        self.stats
    }

    fn bump(&mut self, t: SimTime) {
        self.horizon = self.horizon.max(t);
    }
}

/// Greedy earliest-slot dispatch of blocks all ready at `start` onto
/// `resident` identical slots, like the hardware's block scheduler: each
/// block's end pushed onto `ends`, in block order; returns the last end.
/// The first `resident` blocks start at `start` on idle slots; each later
/// one replaces the earliest slot end in place, which is where it starts.
/// Slots are anonymous, so this is `desim::MultiResource::acquire(start, d)`
/// per block on a fresh station, end for end.
fn dispatch(
    start: SimTime,
    resident: usize,
    mut durs: impl Iterator<Item = Dur>,
    ends: &mut Vec<SimTime>,
) -> SimTime {
    let first = ends.len();
    ends.extend(durs.by_ref().take(resident).map(|d| start + d));
    let mut last = ends[first..].iter().copied().max().unwrap_or(start);
    let mut slots: BinaryHeap<Reverse<SimTime>> =
        ends[first..].iter().copied().map(Reverse).collect();
    for d in durs {
        let mut earliest = slots.peek_mut().expect("a block fills every slot first");
        let end = earliest.0 + d;
        *earliest = Reverse(end);
        ends.push(end);
        last = last.max(end);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(n: usize) -> Machine {
        Machine::new(MachineConfig::dgx_v100(n))
    }

    /// A full-efficiency transfer meeting the plan as `faults` says.
    fn wire(
        src: usize,
        dst: usize,
        payload: u64,
        messages: u64,
        ready: SimTime,
        faults: Faults,
    ) -> Send {
        let efficiency = 1.0;
        Send {
            src,
            dst,
            payload,
            messages,
            ready,
            efficiency,
            faults,
        }
    }

    /// A fault-blind transfer's wire interval.
    fn send(
        m: &mut Machine,
        src: usize,
        dst: usize,
        payload: u64,
        messages: u64,
        ready: SimTime,
    ) -> Interval {
        let s = wire(src, dst, payload, messages, ready, Faults::Ignore);
        m.transmit(&s).expect("an ignored plan books").interval
    }

    /// `shape` on `dev`'s default stream from time zero, every block at its
    /// wave-model time.
    fn launch(m: &mut Machine, dev: usize, shape: KernelShape) -> KernelRun {
        let spec = m.spec(dev);
        let resident = KernelShape::effective_resident(shape.blocks, spec.max_resident_blocks());
        let blocks = vec![shape.block_time(spec, resident); shape.blocks as usize];
        m.run_kernel_varied(dev, &blocks, SimTime::ZERO)
    }

    /// One attempt's wire interval, or its fault.
    fn try_send(
        m: &mut Machine,
        src: usize,
        dst: usize,
        payload: u64,
        messages: u64,
        ready: SimTime,
    ) -> Result<Interval, FabricError> {
        m.transmit(&wire(src, dst, payload, messages, ready, Faults::Once))
            .map(|d| d.interval)
    }

    #[test]
    fn kernels_serialize_on_a_stream() {
        let mut m = machine(1);
        let shape = KernelShape::memory_bound(100, 1 << 16);
        let a = launch(&mut m, 0, shape);
        let b = launch(&mut m, 0, shape);
        assert!(b.interval.start >= a.interval.end);
        assert_eq!(m.finish_time(), b.interval.end);
    }

    #[test]
    fn kernels_on_different_devices_overlap() {
        let mut m = machine(2);
        let shape = KernelShape::memory_bound(100, 1 << 16);
        let a = launch(&mut m, 0, shape);
        let b = launch(&mut m, 1, shape);
        assert_eq!(a.interval, b.interval);
    }

    #[test]
    fn launch_overhead_is_charged() {
        let mut m = machine(1);
        let run = launch(&mut m, 0, KernelShape::memory_bound(1, 256));
        assert_eq!(run.interval.start, SimTime::ZERO + m.spec(0).kernel_launch);
    }

    #[test]
    fn send_includes_latency_and_headers() {
        let mut m = machine(2);
        let link = *m.topology().link(0, 1);
        let iv = send(&mut m, 0, 1, 1 << 20, 1, SimTime::ZERO);
        assert_eq!(iv.start, SimTime::ZERO + link.latency);
        assert_eq!(iv.duration(), link.wire_time(1 << 20, 1));
        let stats = m.traffic_stats();
        assert_eq!(stats.payload_bytes, 1 << 20);
        assert_eq!(stats.header_bytes, link.header_bytes as u64);
        assert_eq!(stats.messages, 1);
    }

    #[test]
    fn aux_streams_overlap_the_default_stream_and_serialize_internally() {
        let mut m = machine(1);
        let s = m.add_stream(0);
        let k = launch(&mut m, 0, KernelShape::memory_bound(100, 1 << 20));
        let a = m.run_on_stream(s, "head", Dur::from_us(50), crate::Event::READY);
        let b = m.run_on_stream(s, "head", Dur::from_us(50), crate::Event::READY);
        // Aux kernel a starts at launch overhead, regardless of the busy
        // default stream…
        assert_eq!(a.start, SimTime::ZERO + m.spec(0).kernel_launch);
        assert!(a.start < k.interval.end, "streams overlap");
        // …and b queues behind a on the same stream.
        assert!(b.start >= a.end);
        assert_eq!(m.stream_busy_time(s), Dur::from_us(100));
    }

    #[test]
    fn event_gates_delay_stream_kernels() {
        let mut m = machine(1);
        let s = m.add_stream(0);
        let gate = crate::Event::at(SimTime::ZERO + Dur::from_us(500));
        let iv = m.run_on_stream(s, "gated", Dur::from_us(10), gate);
        assert_eq!(iv.start, gate.when() + m.spec(0).kernel_launch);
    }

    #[test]
    fn chunked_kernel_pays_one_launch_and_honours_gates() {
        let mut m = machine(1);
        let launch = m.spec(0).kernel_launch;
        let s = m.add_stream(0);
        let chunk = |us: u64, gate: crate::Event| crate::StageChunk {
            gate,
            dur: Dur::from_us(us),
            label: "c",
        };
        // Ungated chunks run back to back after a single launch overhead.
        let iv = m.run_chunked_on(
            s,
            &[
                chunk(10, crate::Event::READY),
                chunk(10, crate::Event::READY),
            ],
            crate::Event::READY,
        );
        assert_eq!(iv.start, SimTime::ZERO + launch);
        assert_eq!(iv.end, iv.start + Dur::from_us(20));
        // A gated chunk stalls the persistent kernel (no extra launch),
        // and the stall is a bubble, not busy time.
        let gate = crate::Event::at(iv.end + Dur::from_us(100));
        let iv2 = m.run_chunked_on(
            s,
            &[chunk(10, gate), chunk(10, crate::Event::READY)],
            crate::Event::READY,
        );
        assert_eq!(iv2.start, gate.when());
        assert_eq!(iv2.end, gate.when() + Dur::from_us(20));
        assert_eq!(m.stream_busy_time(s), Dur::from_us(40));
    }

    #[test]
    fn stream_kernels_land_on_their_trace_lane() {
        let mut m = machine(2);
        m.enable_trace();
        let s = m.add_stream(1);
        m.run_on_stream(s, "interact", Dur::from_us(25), crate::Event::READY);
        assert_eq!(m.stream_busy_time(s), Dur::from_us(25));
        let t = m.trace().unwrap();
        assert!(t
            .events()
            .iter()
            .any(|e| e.track == "gpu1.s0" && e.name == "interact"));
    }

    #[test]
    fn links_serialize_but_distinct_sources_are_independent() {
        let mut m = machine(3);
        let a = send(&mut m, 0, 1, 1 << 20, 1, SimTime::ZERO);
        let b = send(&mut m, 0, 1, 1 << 20, 1, SimTime::ZERO);
        let c = send(&mut m, 2, 1, 1 << 20, 1, SimTime::ZERO);
        assert!(b.start >= a.end, "same link serializes");
        assert_eq!(c.start, a.start, "distinct sources run in parallel");
    }

    #[test]
    fn node_nic_serializes_cross_node_traffic_from_distinct_gpus() {
        // GPUs 0 and 1 (node 0) each send one large message to node 1:
        // distinct pair links, but the shared egress NIC serializes them.
        let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
        let a = send(&mut m, 0, 2, 4 << 20, 1, SimTime::ZERO);
        let b = send(&mut m, 1, 3, 4 << 20, 1, SimTime::ZERO);
        assert!(
            b.start >= a.end,
            "shared NIC must serialize cross-node sends"
        );
        // Intra-node traffic from the same two sources is untouched by the
        // NIC and overlaps freely.
        let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
        let a = send(&mut m, 0, 1, 4 << 20, 1, SimTime::ZERO);
        let b = send(&mut m, 1, 0, 4 << 20, 1, SimTime::ZERO);
        assert_eq!(a.start, b.start, "crossbar pairs stay independent");
    }

    #[test]
    fn single_gpu_nodes_see_identical_timing_with_and_without_nic() {
        // On a 2x1 fabric the NIC and the (only) pair link have identical
        // horizons, so a lone cross-node stream is unchanged by the NIC.
        let mut m = Machine::new(MachineConfig::pod_v100(2, 1));
        let link = *m.topology().link(0, 1);
        let a = send(&mut m, 0, 1, 1 << 20, 1, SimTime::ZERO);
        let b = send(&mut m, 0, 1, 1 << 20, 1, SimTime::ZERO);
        assert_eq!(a.start, SimTime::ZERO + link.latency);
        assert_eq!(a.duration(), link.wire_time(1 << 20, 1));
        assert_eq!(b.start, a.end, "back-to-back messages abut exactly");
    }

    #[test]
    fn traffic_stats_split_messages_by_fabric_tier() {
        // One intra-node and one inter-node transfer on an unobserved 2x2
        // pod: both count as messages, the second's as inter-node ones too.
        let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
        send(&mut m, 0, 1, 4096, 2, SimTime::ZERO);
        send(&mut m, 0, 2, 8192, 3, SimTime::ZERO);
        let t = m.traffic_stats();
        assert_eq!((t.messages, t.inter_node_messages), (5, 3));
        assert!(!m.metrics().is_enabled());
    }

    #[test]
    fn telemetry_counts_sends_per_link() {
        // Each send is counted on its link, its wire interval is the link's
        // busy time, and the snapshot is bit-identical across identical runs.
        let run = || {
            let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
            m.enable_telemetry();
            send(&mut m, 0, 1, 4096, 2, SimTime::ZERO);
            let inter = send(&mut m, 0, 2, 8192, 3, SimTime::ZERO);
            (m, inter)
        };
        let (m, inter) = run();
        let reg = m.metrics();
        assert_eq!(reg.counter("fabric_sends", 0, 1), 1);
        assert_eq!(reg.counter("fabric_sends", 0, 2), 1);
        let busy = reg.timeline("link_busy_ns", 0, 2).unwrap().total();
        assert!((busy - inter.duration().as_ns() as f64).abs() < 1.0);
        assert_eq!(reg.snapshot(), run().0.metrics().snapshot());
    }

    #[test]
    fn inter_node_messages_count_every_booked_cross_node_attempt() {
        // On a 2x2 pod, node 1's GPUs send to node 0 while GPU 1 sends to
        // GPU 0. The two streams share no port, NIC or link, and fault
        // fates are drawn per pair, so each meets the plan alike whether
        // the other runs or not.
        let run = |faults: Faults, intra: bool, inter: bool| {
            let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
            m.install_faults(FaultPlan::generate(5, 4, crate::FaultSpec::chaos(0.8)));
            for i in 0..300u64 {
                let at = SimTime::ZERO + Dur::from_us(2 * i);
                let cross = (2 + i as usize % 2, i as usize % 2);
                for (on, (src, dst)) in [(intra, (1, 0)), (inter, cross)] {
                    if on {
                        let _ = m.transmit(&wire(src, dst, 4096, 1, at, faults));
                    }
                }
            }
            m.traffic_stats()
        };
        let blind = run(Faults::Ignore, true, true);
        assert_eq!((blind.messages, blind.inter_node_messages), (600, 300));
        let both = run(Faults::Retry, true, true);
        let inter = run(Faults::Retry, false, true);
        let intra = run(Faults::Retry, true, false);
        assert!(inter.messages > 300, "no dropped attempt was retried");
        assert_eq!(inter.inter_node_messages, inter.messages);
        assert_eq!(intra.inter_node_messages, 0);
        assert_eq!(both.inter_node_messages, inter.messages);
        assert_eq!(both.messages, inter.messages + intra.messages);

        // A replayed train never leaves its node.
        let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
        send(&mut m, 0, 2, 4096, 3, SimTime::ZERO);
        let origin = m.finish_time();
        assert!(m.record_train(1, origin));
        send(&mut m, 1, 0, 4096, 2, origin);
        let train = m.finish_train().expect("an intra-node train");
        let before = m.traffic_stats();
        assert!(m.replay_train(&train, m.finish_time()));
        let after = m.traffic_stats();
        assert_eq!(after.messages, before.messages + 2);
        assert_eq!(after.inter_node_messages, 3);
    }

    #[test]
    fn injection_port_throttles_fanout_from_one_source() {
        // Two transfers from the same source to different peers share the
        // injection port: the second enters its (idle) link late.
        let mut m = machine(3);
        let a = send(&mut m, 0, 1, 1 << 20, 1, SimTime::ZERO);
        let c = send(&mut m, 0, 2, 1 << 20, 1, SimTime::ZERO);
        assert!(c.start > a.start, "fan-out must be injection-limited");
        // But still faster than full serialization on one link.
        assert!(c.start < a.end);
    }

    #[test]
    fn throttled_send_is_slower() {
        let mut m1 = machine(2);
        let full = wire(0, 1, 1 << 20, 1, SimTime::ZERO, Faults::Ignore);
        let half = Send {
            efficiency: 0.5,
            ..full
        };
        let full = m1.transmit(&full).expect("booked").interval;
        let mut m2 = machine(2);
        let half = m2.transmit(&half).expect("booked").interval;
        let r = half.duration().as_secs_f64() / full.duration().as_secs_f64();
        assert!((r - 2.0).abs() < 0.05, "ratio {r}");
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn bad_efficiency_panics() {
        let mut m = machine(2);
        let s = wire(0, 1, 10, 1, SimTime::ZERO, Faults::Ignore);
        let _ = m.transmit(&Send {
            efficiency: 0.0,
            ..s
        });
    }

    #[test]
    fn many_small_messages_cost_more_wire_time() {
        let mut m1 = machine(2);
        let big = send(&mut m1, 0, 1, 1 << 20, 1, SimTime::ZERO);
        let mut m2 = machine(2);
        let small = send(&mut m2, 0, 1, 1 << 20, 4096, SimTime::ZERO);
        assert!(small.duration() > big.duration());
        assert!(m2.traffic_stats().header_overhead() > m1.traffic_stats().header_overhead());
    }

    #[test]
    fn quiet_reflects_outstanding_sends() {
        let mut m = machine(2);
        let iv = send(&mut m, 0, 1, 1 << 24, 1, SimTime::ZERO);
        assert_eq!(m.quiet(0, SimTime::ZERO), iv.end);
        assert_eq!(m.quiet(1, SimTime::ZERO), SimTime::ZERO);
        // Quiet can't go backwards in time.
        let later = iv.end + Dur::from_us(5);
        assert_eq!(m.quiet(0, later), later);
    }

    #[test]
    fn traffic_series_records_payload_only_and_only_when_observed() {
        let mut m = machine(2);
        m.enable_telemetry();
        send(&mut m, 0, 1, 1000, 10, SimTime::ZERO);
        let total: f64 = m.traffic_between(0, 1).total();
        assert!((total - 1000.0).abs() < 1e-6);
        assert_eq!(m.total_traffic().total(), total);
        assert_eq!(m.traffic_between(1, 0).total(), 0.0);
        let mut unobserved = machine(2);
        send(&mut unobserved, 0, 1, 1000, 10, SimTime::ZERO);
        assert!(unobserved.traffic_between(0, 1).buckets().is_empty());
        assert!(unobserved.total_traffic().buckets().is_empty());
        assert_eq!(unobserved.traffic_stats(), m.traffic_stats());
    }

    proptest::proptest! {
        /// The sparse store does not lean on FIFO order: deposits that
        /// overlap, nest or arrive out of time order still read out as the
        /// dense series fed the same spans — and so do the same spans in
        /// FIFO order, where short ones mostly land inside the tail bucket
        /// and take the one-add path.
        #[test]
        fn pair_traffic_matches_a_dense_series_in_any_deposit_order(
            spans in proptest::collection::vec(
                (0u64..400, proptest::prop_oneof![0u64..8, 0u64..300], 0u64..1000),
                1..60,
            ),
        ) {
            let bucket = Dur::from_ns(10);
            let mut fifo = spans.clone();
            fifo.sort_unstable();
            for spans in [spans, fifo] {
                let (mut sparse, mut dense) = (PairTraffic::default(), TimeSeries::new(bucket));
                for (start, len, value) in spans {
                    let (start, end) = (SimTime::from_ns(start), SimTime::from_ns(start + len));
                    sparse.deposit(bucket, start, end, value as f64);
                    dense.add_spread(start, end, value as f64);
                    // The remembered bounds are the tail entry's bucket, so
                    // the one-add path only ever adds where the search would.
                    let tail = sparse.entries[sparse.entries.len() - 1].0 as u64 * 10;
                    proptest::prop_assert_eq!(sparse.tail_ns, (tail, tail + 10));
                }
                proptest::prop_assert!(sparse.entries.windows(2).all(|w| w[0].0 < w[1].0));
                let mut read = TimeSeries::new(bucket);
                sparse.add_to(&mut read, true);
                let bits = |ts: &TimeSeries| -> Vec<u64> {
                    ts.buckets().iter().map(|v| v.to_bits()).collect()
                };
                proptest::prop_assert_eq!(bits(&read), bits(&dense));
            }
        }
    }

    #[test]
    fn a_transfer_inside_the_tail_bucket_is_one_add() {
        // Around the edges of the tail bucket [20, 30): ending on its upper
        // bound stays inside, one ns more spills, a start on the bound is
        // the next bucket's, and an empty span belongs to its start.
        let bucket = Dur::from_ns(10);
        let spans = [
            (21, 25),
            (25, 30),
            (29, 29),
            (29, 20),
            (25, 31),
            (30, 30),
            (40, 40),
        ];
        let (mut sparse, mut dense) = (PairTraffic::default(), TimeSeries::new(bucket));
        for (i, (start, end)) in spans.into_iter().enumerate() {
            let (start, end) = (SimTime::from_ns(start), SimTime::from_ns(end));
            let before = sparse.entries.len();
            sparse.deposit(bucket, start, end, 3.0);
            dense.add_spread(start, end, 3.0);
            assert_eq!(sparse.entries.len() - before, [1, 0, 0, 0, 1, 0, 1][i]);
        }
        let mut read = TimeSeries::new(bucket);
        sparse.add_to(&mut read, true);
        assert_eq!(read.buckets(), dense.buckets());
    }

    #[test]
    fn traffic_store_follows_sends_not_the_timeline() {
        // One send per ordered pair, 1 s into the simulation: the dense
        // layout held 20 000 zero buckets per pair before the first byte.
        let mut m = Machine::new(MachineConfig::pod_v100(16, 4));
        m.enable_telemetry();
        let n = m.n_gpus();
        let mut sent = 0u64;
        for src in 0..n {
            for dst in (0..n).filter(|&d| d != src) {
                send(&mut m, src, dst, 4096, 1, SimTime::from_us(1_000_000));
                sent += 4096;
            }
        }
        assert!(m.traffic.iter().all(|pair| pair.entries.len() <= 2));
        assert!((m.total_traffic().total() - sent as f64).abs() < 1e-6 * sent as f64);
        assert!(m.traffic_between(0, 1).buckets().len() >= 20_000);
    }

    #[test]
    fn stream_sync_adds_overhead() {
        let mut m = machine(1);
        let run = launch(&mut m, 0, KernelShape::memory_bound(10, 1 << 16));
        let t = m.stream_sync(0, SimTime::ZERO);
        assert_eq!(t, run.interval.end + m.spec(0).stream_sync);
    }

    #[test]
    fn barrier_takes_max() {
        let mut m = machine(2);
        let t = m.barrier(&[SimTime::from_us(3), SimTime::from_us(9)]);
        assert_eq!(t, SimTime::from_us(9));
    }

    #[test]
    fn varied_kernel_empty() {
        let mut m = machine(1);
        let run = m.run_kernel_varied(0, &[], SimTime::from_us(1));
        assert_eq!(run.interval.start, run.interval.end);
    }

    #[test]
    fn tracing_records_kernels_and_transfers() {
        let mut m = machine(2);
        assert!(m.trace().is_none());
        m.enable_trace();
        let run = launch(&mut m, 0, KernelShape::memory_bound(10, 1 << 16));
        send(&mut m, 0, 1, 4096, 2, run.interval.end);
        m.run_kernel_varied(1, &[Dur::from_us(1)], SimTime::ZERO);
        let t = m.trace().unwrap();
        assert_eq!(t.len(), 3);
        let json = t.to_chrome_json();
        assert!(json.contains("gpu0"));
        assert!(json.contains("link0->1"));
        assert!(json.contains("4096B x2"));
    }

    #[test]
    #[allow(deprecated)]
    fn the_forwards_pinned_by_the_benchmark_are_transmit() {
        let mut m1 = machine(2);
        let a = m1.send(0, 1, 1 << 20, 4, SimTime::ZERO);
        let mut m2 = machine(2);
        let b = m2
            .try_send(0, 1, 1 << 20, 4, SimTime::ZERO)
            .expect("no faults");
        assert_eq!(a, b);
        assert_eq!(m1.traffic_stats(), m2.traffic_stats());
    }

    #[test]
    fn trivial_plan_is_timing_noop() {
        let mut m1 = machine(4);
        let mut m2 = machine(4);
        m2.install_faults(crate::FaultPlan::generate(42, 4, crate::FaultSpec::none()));
        let shape = KernelShape::memory_bound(200, 1 << 16);
        for dev in 0..4 {
            let a = launch(&mut m1, dev, shape);
            let b = launch(&mut m2, dev, shape);
            assert_eq!(a.interval, b.interval);
            assert_eq!(a.block_ends, b.block_ends);
        }
        let a = try_send(&mut m1, 0, 1, 1 << 20, 8, SimTime::ZERO).expect("clean");
        let b = try_send(&mut m2, 0, 1, 1 << 20, 8, SimTime::ZERO).expect("trivial plan");
        assert_eq!(a, b);
        assert_eq!(m2.straggler_factor(0), 1.0);
        assert_eq!(
            m2.fault_fraction(0, 1, SimTime::ZERO, SimTime::from_ms(1)),
            0.0
        );
    }

    #[test]
    fn down_window_fails_send_with_up_time() {
        let mut m = machine(2);
        // Hand-build a plan with one down window on 0->1 via the chaos spec:
        // probe seeds until a flap covers our attempt time. Deterministic:
        // seed search itself is fixed at build time.
        let mut seed = 0u64;
        let plan = loop {
            let p = crate::FaultPlan::generate(seed, 2, crate::FaultSpec::chaos(1.0));
            if let crate::LinkState::Down { .. } =
                p.link_state(0, 1, SimTime::from_us(50) + m.topology().link(0, 1).latency)
            {
                break p;
            }
            seed += 1;
            assert!(seed < 10_000, "no flap found covering the probe instant");
        };
        m.install_faults(plan);
        match try_send(&mut m, 0, 1, 4096, 1, SimTime::from_us(50)) {
            Err(crate::FabricError::LinkDown {
                src: 0,
                dst: 1,
                at,
                up_at,
            }) => {
                assert!(up_at > at);
            }
            other => panic!("expected LinkDown, got {other:?}"),
        }
        // The failed attempt must not have touched the wire.
        assert_eq!(m.traffic_stats().messages, 0);
    }

    #[test]
    fn degraded_window_stretches_wire_time() {
        // Same construction trick: find a seed whose 0->1 link is degraded
        // (and not down) at the attempt instant.
        let mut seed = 0u64;
        let (plan, factor) = loop {
            let p = crate::FaultPlan::generate(seed, 2, crate::FaultSpec::chaos(0.7));
            let at = SimTime::from_us(50) + Dur::from_ns(1300);
            if let crate::LinkState::Up { bw_factor } = p.link_state(0, 1, at) {
                if bw_factor < 0.999 && p.spec().drop_prob == 0.0 {
                    break (p, bw_factor);
                }
                // drop_prob is nonzero under chaos; accept and handle drops below.
                if bw_factor < 0.999 {
                    break (p, bw_factor);
                }
            }
            seed += 1;
            assert!(
                seed < 10_000,
                "no degradation found covering the probe instant"
            );
        };
        let mut m = machine(2);
        m.install_faults(plan);
        let mut clean = machine(2);
        let base = send(&mut clean, 0, 1, 1 << 20, 1, SimTime::from_us(50));
        match try_send(&mut m, 0, 1, 1 << 20, 1, SimTime::from_us(50)) {
            Ok(iv) => {
                let ratio = iv.duration().as_secs_f64() / base.duration().as_secs_f64();
                // Wire time stretched by at least 1/bw_factor (jitter may add
                // more; ns rounding may shave a hair off).
                assert!(
                    ratio >= (1.0 / factor) * (1.0 - 1e-3),
                    "ratio {ratio}, factor {factor}"
                );
            }
            Err(crate::FabricError::MessageDropped { at, .. }) => {
                // Drop still consumed (stretched) wire time.
                assert!(at > base.end);
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn straggler_slows_kernels_on_that_device_only() {
        // Find a seed where exactly some device straggles.
        let mut seed = 0u64;
        let plan = loop {
            let p = crate::FaultPlan::generate(seed, 2, crate::FaultSpec::chaos(1.0));
            if p.straggler_factor(0) > 1.0 && p.straggler_factor(1) == 1.0 {
                break p;
            }
            seed += 1;
            assert!(seed < 10_000);
        };
        let factor = plan.straggler_factor(0);
        let mut m = machine(2);
        m.install_faults(plan);
        let mut clean = machine(2);
        let shape = KernelShape::memory_bound(100, 1 << 16);
        let slow = launch(&mut m, 0, shape);
        let healthy = launch(&mut m, 1, shape);
        let base = launch(&mut clean, 0, shape);
        assert_eq!(healthy.interval, base.interval, "non-straggler unaffected");
        let ratio = slow.interval.duration().as_secs_f64() / base.interval.duration().as_secs_f64();
        assert!(
            (ratio - factor).abs() / factor < 0.05,
            "ratio {ratio} vs factor {factor}"
        );
    }

    #[test]
    fn fault_windows_show_up_in_trace() {
        let mut m = machine(2);
        m.enable_trace();
        m.install_faults(crate::FaultPlan::generate(
            3,
            2,
            crate::FaultSpec::chaos(1.0),
        ));
        let has_fault_track = m
            .trace()
            .expect("trace enabled")
            .events()
            .iter()
            .any(|e| e.track.starts_with("fault"));
        assert!(
            has_fault_track,
            "chaos(1.0) must schedule at least one window"
        );
    }

    #[test]
    #[should_panic(expected = "fault plan generated for")]
    fn plan_gpu_count_mismatch_panics() {
        let mut m = machine(2);
        m.install_faults(crate::FaultPlan::generate(1, 4, crate::FaultSpec::none()));
    }

    #[test]
    #[should_panic(expected = "send to self")]
    fn self_send_panics() {
        let mut m = machine(2);
        send(&mut m, 1, 1, 10, 1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "GPU specs")]
    fn config_mismatch_panics() {
        let mut cfg = MachineConfig::dgx_v100(2);
        cfg.specs.pop();
        let _ = Machine::new(cfg);
    }
}
