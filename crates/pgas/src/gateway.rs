//! Gateway-aggregated PGAS puts for pod fabrics.
//!
//! On a two-level topology, flat one-sided puts pay the inter-node link's
//! per-message cost once per coalesced message — ruinous for small embedding
//! rows on header-dominated links (RoCE's WQE-rate ceiling). The gateway
//! proxy keeps the PGAS programming model but routes cross-node stores
//! through a per-(origin, destination-node) staging buffer: rows destined
//! for any GPU on a remote node are coalesced locally and cross the slow
//! tier as **one** message to that node's gateway GPU, which then scatters
//! them to their final destinations over the fast intra-node crossbar.
//!
//! Same-node puts bypass the proxy entirely, so on a single-node topology
//! [`GatewayPut`] is bit-identical to a plain [`OneSided`].

use desim::{Dur, Interval, SimTime};
use gpusim::{Faults, Machine};
use telemetry::causal::{BlameCategory, Lane};

use crate::coalesce::{coalesce_rows, CoalescedBatch};
use crate::ops::{OneSided, PgasConfig};

/// Every put the proxy makes: [`Faults::Ignore`], fault-blind by design.
fn fault_blind(
    os: &mut OneSided,
    src: usize,
    dst: usize,
    batch: CoalescedBatch,
    at: SimTime,
) -> Interval {
    let put = os.put(src, dst, batch, at, Faults::Ignore);
    put.expect("an ignored fault plan books").interval
}

/// Flush policy of a staging buffer (the paper's §V aggregator).
#[derive(Clone, Copy, Debug)]
pub struct AggregatorConfig {
    /// Ship the buffer once this much payload is staged.
    pub flush_bytes: u64,
    /// Ship the buffer once the oldest staged row is this old, even if the
    /// size threshold has not been reached (bounds added latency).
    pub max_wait: Dur,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            flush_bytes: 64 << 10,
            max_wait: Dur::from_us(50),
        }
    }
}

/// Tuning for the gateway proxy: the underlying one-sided config plus the
/// staging-buffer flush policy (size/age).
#[derive(Clone, Copy, Debug, Default)]
pub struct GatewayConfig {
    /// One-sided put parameters (coalescing payload, issue overhead, ...).
    pub pgas: PgasConfig,
    /// When a staged cross-node buffer ships: at `flush_bytes` staged
    /// payload, or when its oldest row has waited `max_wait`.
    pub flush: AggregatorConfig,
}

/// One staged cross-node buffer: rows from a single origin GPU bound for
/// GPUs on a single remote node, split by (final destination, row size) so
/// the gateway can scatter exact shares on arrival. Emptied in place
/// (`rows == 0` means empty), so its share list keeps its capacity.
#[derive(Clone, Debug, Default)]
struct Stage {
    payload: u64,
    rows: u64,
    oldest: SimTime,
    newest: SimTime,
    /// `(dst, row_bytes, rows)`, sorted by `(dst, row_bytes)`.
    shares: Vec<(usize, u32, u64)>,
}

/// PGAS one-sided puts with per-node gateway aggregation of cross-node
/// traffic. Wraps [`OneSided`]; stores must arrive in non-decreasing
/// `ready` order per origin GPU (the natural order of block retirements),
/// asserted in debug builds.
///
/// All state is dense, sized once from the topology in [`GatewayPut::new`]
/// and reused in place: staging, flushing and forwarding touch no hash map
/// and, once every channel has flushed once, no allocator.
pub struct GatewayPut<'m> {
    os: OneSided<'m>,
    flush: AggregatorConfig,
    nodes: usize,
    /// One buffer per (origin, destination node), at `src · nodes + node`.
    stages: Vec<Stage>,
    /// Gateway GPU of each node ([`gpusim::Topology::gateway_of`]).
    gateway: Vec<usize>,
    /// Latest scatter completion involving each origin GPU's traffic;
    /// `quiet` must cover these even though the gateway issued them.
    last_delivery: Vec<SimTime>,
    /// Busy-until horizon of the gateway's forwarding channel into each
    /// final destination. A destination's gateway is fixed by its node, so
    /// the destination alone names the channel `(gateway, dst)`. Scatter
    /// forwarding runs on the proxy's own DMA engine, serialized per
    /// channel but deliberately NOT booked on the machine's per-GPU
    /// injection port: the fabric books FIFO in call order, and charging
    /// forwarded traffic (whose ready times sit one inter-node latency in
    /// the future) to the gateway GPU's port would stall that GPU's own
    /// concurrent emission behind it.
    forward: Vec<SimTime>,
    flushes: u64,
    rows_staged: u64,
}

impl<'m> GatewayPut<'m> {
    /// A gateway proxy over `machine` with the given config.
    pub fn new(machine: &'m mut Machine, cfg: GatewayConfig) -> Self {
        let topo = machine.topology();
        let (n, nodes) = (topo.n_gpus(), topo.nodes());
        let mut gateway = vec![0; nodes];
        for g in 0..n {
            gateway[topo.node_of(g)] = topo.gateway_of(g);
        }
        GatewayPut {
            gateway,
            os: OneSided::with_config(machine, cfg.pgas),
            flush: cfg.flush,
            nodes,
            stages: vec![Stage::default(); n * nodes],
            last_delivery: vec![SimTime::ZERO; n],
            forward: vec![SimTime::ZERO; n],
            flushes: 0,
            rows_staged: 0,
        }
    }

    /// Number of cross-node flush messages shipped so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Number of cross-node rows staged so far.
    pub fn rows_staged(&self) -> u64 {
        self.rows_staged
    }

    /// The wrapped machine.
    pub fn machine(&mut self) -> &mut Machine {
        self.os.machine()
    }

    /// Issue `rows` row-stores of `row_bytes` from `src` to `dst`, ready at
    /// `ready`. Same-node destinations go straight through the wrapped
    /// [`OneSided`]; cross-node destinations are staged and ship when the
    /// buffer's size or age threshold fires. Returns the wire interval of
    /// whatever this call put on the wire (the direct put, or a triggered
    /// flush), or a zero-width interval at `ready` if it only staged.
    pub fn put_rows_nbi(
        &mut self,
        src: usize,
        dst: usize,
        rows: u64,
        row_bytes: u32,
        ready: SimTime,
    ) -> Interval {
        let topo = self.os.machine().topology();
        if topo.same_node(src, dst) {
            let batch = coalesce_rows(rows, row_bytes, self.os.config().max_payload);
            return fault_blind(&mut self.os, src, dst, batch, ready);
        }
        let dst_node = topo.node_of(dst);
        let idx = src * self.nodes + dst_node;
        self.rows_staged += rows;
        let stage = &self.stages[idx];
        debug_assert!(
            stage.rows == 0 || ready >= stage.newest,
            "stores must arrive in non-decreasing ready order per origin"
        );
        let mut shipped = None;
        // Age flush: the timer fired before this row arrived — the staged
        // buffer left the node without it.
        if stage.rows > 0 && stage.oldest + self.flush.max_wait <= ready {
            let flush_at = stage.oldest + self.flush.max_wait;
            shipped = Some(self.ship(src, dst_node, flush_at));
        }
        let stage = &mut self.stages[idx];
        if stage.rows == 0 {
            stage.oldest = ready;
        }
        stage.rows += rows;
        stage.payload += rows * row_bytes as u64;
        stage.newest = ready;
        let key = (dst, row_bytes);
        match stage.shares.binary_search_by_key(&key, |&(d, b, _)| (d, b)) {
            Ok(i) => stage.shares[i].2 += rows,
            Err(i) => stage.shares.insert(i, (dst, row_bytes, rows)),
        }
        // Size flush: threshold reached including this batch.
        if stage.payload >= self.flush.flush_bytes {
            shipped = Some(self.ship(src, dst_node, ready));
        } else if stage.rows == 0 {
            stage.shares.clear(); // a zero-row store staged nothing
        }
        shipped.unwrap_or(Interval {
            start: ready,
            end: ready,
        })
    }

    /// Drain every staging buffer (end of kernel, before `quiet`). A buffer
    /// flushes at the later of its newest row and `at`, or at its age timer
    /// (`oldest + max_wait`) if that fired first — the instant
    /// [`GatewayPut::put_rows_nbi`] would have shipped it. Returns the wire
    /// intervals of the final cross-node messages.
    pub fn drain(&mut self, at: SimTime) -> Vec<Interval> {
        self.drain_origins(0..self.last_delivery.len(), at)
    }

    /// Drain only `src`'s staging buffers (its kernel retired; other origins
    /// may still be emitting). Callers interleaving multiple origins through
    /// one proxy should drain each origin at its own retirement instant so
    /// wire bookings stay in simulated-time order.
    pub fn drain_src(&mut self, src: usize, at: SimTime) -> Vec<Interval> {
        self.drain_origins(src..src + 1, at)
    }

    /// Ship the non-empty buffers of `srcs` in `(src, dst_node)` order.
    fn drain_origins(&mut self, srcs: std::ops::Range<usize>, at: SimTime) -> Vec<Interval> {
        let mut out = Vec::new();
        for src in srcs {
            for dst_node in 0..self.nodes {
                let stage = &self.stages[src * self.nodes + dst_node];
                if stage.rows > 0 {
                    let timer = stage.oldest + self.flush.max_wait;
                    out.push(self.ship(src, dst_node, stage.newest.max(at).min(timer)));
                }
            }
        }
        out
    }

    /// Completion fence for `src`: covers its own direct puts **and** every
    /// gateway scatter carrying its staged rows. Callers must [`drain`]
    /// first; quiescing with rows still staged is a bug in the caller.
    ///
    /// [`drain`]: GatewayPut::drain
    pub fn quiet(&mut self, src: usize, at: SimTime) -> SimTime {
        debug_assert!(
            self.stages[src * self.nodes..][..self.nodes]
                .iter()
                .all(|s| s.rows == 0),
            "quiet with rows still staged; call drain first"
        );
        self.os.quiet(src, at.max(self.last_delivery[src]))
    }

    /// Ship one staged buffer: a single aggregate message from the origin to
    /// the destination node's gateway, then per-destination scatter
    /// forwarding from the gateway over the intra-node crossbar (on the
    /// proxy's dedicated channel — see [`GatewayPut::forward`]'s field
    /// docs). Rows addressed to the gateway itself have arrived once the
    /// aggregate lands.
    fn ship(&mut self, src: usize, dst_node: usize, at: SimTime) -> Interval {
        self.flushes += 1;
        let max_payload = self.os.config().max_payload;
        let gw = self.gateway[dst_node];
        // Out of its slot for the call and back, emptied: moving a `Vec`
        // allocates nothing.
        let mut stage = std::mem::take(&mut self.stages[src * self.nodes + dst_node]);
        let batch = CoalescedBatch {
            payload: stage.payload,
            messages: 1,
        };
        // Blame: the staged dwell is its own billed interval on the gateway
        // lane — rows sat in the buffer from the oldest store until the
        // flush fired. The aggregate put below must chain to the staging
        // span (not the kernel directly), so swap the origin's device cause
        // around the put and restore it after.
        let mut prev_cause = None;
        if let Some(b) = self.os.machine().blame_mut() {
            prev_cause = b.device_cause(src as u32);
            let staging = b.record(
                BlameCategory::GatewayStage,
                Lane::Gateway(gw as u32),
                stage.oldest,
                stage.oldest,
                at,
                prev_cause,
                false,
            );
            b.set_device_cause(src as u32, Some(staging));
        }
        let inter = fault_blind(&mut self.os, src, gw, batch, at);
        let agg_span = self.os.machine().blame_last_span(); // None when off
        if let Some(b) = self.os.machine().blame_mut() {
            b.set_device_cause(src as u32, prev_cause);
        }
        let mut last = inter.end;
        for &(dst, row_bytes, rows) in &stage.shares {
            if dst == gw {
                continue; // already resident at the gateway
            }
            let link = *self.os.machine().topology().link(gw, dst);
            let fwd = coalesce_rows(rows, row_bytes, max_payload);
            let wire = link.wire_time(fwd.payload, fwd.messages);
            let slot = &mut self.forward[dst];
            *slot = (inter.end + link.latency).max(*slot) + wire;
            last = last.max(*slot);
        }
        // Blame: one aggregate scatter span on the gateway lane covering the
        // intra-node forwards, caused by the aggregate's wire span. The
        // origin's quiet fence waits on the scatter (its rows land at
        // `last`), and each scatter destination sees it as inbound traffic.
        if last > inter.end {
            if let Some(b) = self.os.machine().blame_mut() {
                let scatter = b.record(
                    BlameCategory::GatewayStage,
                    Lane::Gateway(gw as u32),
                    inter.end,
                    inter.end,
                    last,
                    agg_span,
                    false,
                );
                b.note_outbound(src as u32, scatter);
                for &(dst, _, _) in &stage.shares {
                    if dst != gw {
                        b.note_inbound(dst as u32, scatter);
                    }
                }
            }
        }
        self.os
            .machine()
            .metrics_mut()
            .incr("gateway_flushes", src as u32, dst_node as u32);
        self.last_delivery[src] = self.last_delivery[src].max(last);
        stage.rows = 0;
        stage.payload = 0;
        stage.shares.clear();
        self.stages[src * self.nodes + dst_node] = stage;
        inter
    }
}

#[cfg(test)]
mod oracle {
    //! The map-based proxy, kept as the oracle the dense one is held to bit
    //! for bit (`tests::dense_proxy_equals_the_map_oracle`): staging in a
    //! SipHash map keyed `(origin, destination node)`, shares in a
    //! `BTreeMap`, forward horizons keyed `(gateway, destination)`.

    use std::collections::{BTreeMap, HashMap};

    use desim::{Interval, SimTime};
    use gpusim::Machine;
    use telemetry::causal::{BlameCategory, Lane};

    use super::fault_blind;
    use super::{AggregatorConfig, GatewayConfig};
    use crate::coalesce::{coalesce_rows, CoalescedBatch};
    use crate::ops::OneSided;

    /// One staged cross-node buffer: rows from a single origin GPU bound for
    /// GPUs on a single remote node, keyed by (final destination, row size) so
    /// the gateway can scatter exact shares on arrival.
    #[derive(Clone, Debug, Default)]
    struct Stage {
        payload: u64,
        rows: u64,
        oldest: SimTime,
        newest: SimTime,
        shares: BTreeMap<(usize, u32), u64>,
    }

    /// PGAS one-sided puts with per-node gateway aggregation of cross-node
    /// traffic. Wraps [`OneSided`]; stores must arrive in non-decreasing
    /// `ready` order per origin GPU (the natural order of block retirements),
    /// asserted in debug builds.
    pub struct GatewayPut<'m> {
        os: OneSided<'m>,
        flush: AggregatorConfig,
        staged: HashMap<(usize, usize), Stage>,
        /// Latest scatter completion involving each origin GPU's traffic;
        /// `quiet` must cover these even though the gateway issued them.
        last_delivery: HashMap<usize, SimTime>,
        /// Busy-until horizon of each gateway's forwarding channel, keyed
        /// `(gateway, final destination)`. Scatter forwarding runs on the
        /// proxy's own DMA engine, serialized per channel but deliberately NOT
        /// booked on the machine's per-GPU injection port: the fabric books
        /// FIFO in call order, and charging forwarded traffic (whose ready
        /// times sit one inter-node latency in the future) to the gateway GPU's
        /// port would stall that GPU's own concurrent emission behind it.
        forward: HashMap<(usize, usize), SimTime>,
        flushes: u64,
        rows_staged: u64,
    }

    impl<'m> GatewayPut<'m> {
        /// A gateway proxy over `machine` with the given config.
        pub fn new(machine: &'m mut Machine, cfg: GatewayConfig) -> Self {
            GatewayPut {
                os: OneSided::with_config(machine, cfg.pgas),
                flush: cfg.flush,
                staged: HashMap::new(),
                last_delivery: HashMap::new(),
                forward: HashMap::new(),
                flushes: 0,
                rows_staged: 0,
            }
        }

        /// Number of cross-node flush messages shipped so far.
        pub fn flushes(&self) -> u64 {
            self.flushes
        }

        /// Number of cross-node rows staged so far.
        pub fn rows_staged(&self) -> u64 {
            self.rows_staged
        }

        /// Issue `rows` row-stores of `row_bytes` from `src` to `dst`, ready at
        /// `ready`. Same-node destinations go straight through the wrapped
        /// [`OneSided`]; cross-node destinations are staged and ship when the
        /// buffer's size or age threshold fires. Returns the wire interval of
        /// whatever this call put on the wire (the direct put, or a triggered
        /// flush), or a zero-width interval at `ready` if it only staged.
        pub fn put_rows_nbi(
            &mut self,
            src: usize,
            dst: usize,
            rows: u64,
            row_bytes: u32,
            ready: SimTime,
        ) -> Interval {
            if self.os.machine().topology().same_node(src, dst) {
                let batch = coalesce_rows(rows, row_bytes, self.os.config().max_payload);
                return fault_blind(&mut self.os, src, dst, batch, ready);
            }
            let dst_node = self.os.machine().topology().node_of(dst);
            self.rows_staged += rows;
            let entry = self.staged.entry((src, dst_node)).or_default();
            debug_assert!(
                entry.rows == 0 || ready >= entry.newest,
                "stores must arrive in non-decreasing ready order per origin"
            );
            let mut shipped = None;
            // Age flush: the timer fired before this row arrived — the staged
            // buffer left the node without it.
            if entry.rows > 0 && entry.oldest + self.flush.max_wait <= ready {
                let flush_at = entry.oldest + self.flush.max_wait;
                let mut stage = std::mem::take(entry);
                shipped = Some(self.ship(src, dst_node, &mut stage, flush_at));
            }
            let entry = self.staged.entry((src, dst_node)).or_default();
            if entry.rows == 0 {
                entry.oldest = ready;
            }
            entry.rows += rows;
            entry.payload += rows * row_bytes as u64;
            entry.newest = ready;
            *entry.shares.entry((dst, row_bytes)).or_default() += rows;
            // Size flush: threshold reached including this batch.
            if entry.payload >= self.flush.flush_bytes {
                let mut stage = std::mem::take(entry);
                shipped = Some(self.ship(src, dst_node, &mut stage, ready));
            }
            if self
                .staged
                .get(&(src, dst_node))
                .is_some_and(|s| s.rows == 0)
            {
                self.staged.remove(&(src, dst_node));
            }
            shipped.unwrap_or(Interval {
                start: ready,
                end: ready,
            })
        }

        /// Drain every staging buffer (end of kernel, before `quiet`). Buffers
        /// flush at the later of their newest row and `at`, or at their age
        /// timer if that fired first. Returns the wire intervals of the final
        /// cross-node messages.
        pub fn drain(&mut self, at: SimTime) -> Vec<Interval> {
            self.drain_keys(at, |_| true)
        }

        /// Drain only `src`'s staging buffers (its kernel retired; other origins
        /// may still be emitting). Callers interleaving multiple origins through
        /// one proxy should drain each origin at its own retirement instant so
        /// wire bookings stay in simulated-time order.
        pub fn drain_src(&mut self, src: usize, at: SimTime) -> Vec<Interval> {
            self.drain_keys(at, |s| s == src)
        }

        fn drain_keys(&mut self, at: SimTime, want: impl Fn(usize) -> bool) -> Vec<Interval> {
            let mut keys: Vec<_> = self
                .staged
                .keys()
                .copied()
                .filter(|&(s, _)| want(s))
                .collect();
            keys.sort_unstable(); // deterministic order
            let mut out = Vec::new();
            for (src, dst_node) in keys {
                let Some(mut stage) = self.staged.remove(&(src, dst_node)) else {
                    continue;
                };
                if stage.rows == 0 {
                    continue;
                }
                let flush_at = stage.newest.max(at).min(stage.oldest + self.flush.max_wait);
                out.push(self.ship(src, dst_node, &mut stage, flush_at));
            }
            out
        }

        /// Completion fence for `src`: covers its own direct puts **and** every
        /// gateway scatter carrying its staged rows. Callers must [`drain`]
        /// first; quiescing with rows still staged is a bug in the caller.
        ///
        /// [`drain`]: GatewayPut::drain
        pub fn quiet(&mut self, src: usize, at: SimTime) -> SimTime {
            debug_assert!(
                !self.staged.keys().any(|&(s, _)| s == src),
                "quiet with rows still staged; call drain first"
            );
            let floor = self
                .last_delivery
                .get(&src)
                .copied()
                .unwrap_or(SimTime::ZERO);
            self.os.quiet(src, at.max(floor))
        }

        /// Ship one staged buffer: a single aggregate message from the origin to
        /// the destination node's gateway, then per-destination scatter
        /// forwarding from the gateway over the intra-node crossbar (on the
        /// proxy's dedicated channel — see [`GatewayPut::forward`]'s field
        /// docs). Rows addressed to the gateway itself have arrived once the
        /// aggregate lands.
        fn ship(
            &mut self,
            src: usize,
            dst_node: usize,
            stage: &mut Stage,
            at: SimTime,
        ) -> Interval {
            self.flushes += 1;
            let max_payload = self.os.config().max_payload;
            let gw = {
                let topo = self.os.machine().topology();
                let member = topo
                    .node_members(dst_node)
                    .next()
                    .expect("destination node has members");
                topo.gateway_of(member)
            };
            let batch = CoalescedBatch {
                payload: stage.payload,
                messages: 1,
            };
            // Blame: the staged dwell is its own billed interval on the gateway
            // lane — rows sat in the buffer from the oldest store until the
            // flush fired. The aggregate put below must chain to the staging
            // span (not the kernel directly), so swap the origin's device cause
            // around the put and restore it after.
            let stage_oldest = stage.oldest;
            let mut prev_cause = None;
            if let Some(b) = self.os.machine().blame_mut() {
                prev_cause = b.device_cause(src as u32);
                let staging = b.record(
                    BlameCategory::GatewayStage,
                    Lane::Gateway(gw as u32),
                    stage_oldest,
                    stage_oldest,
                    at,
                    prev_cause,
                    false,
                );
                b.set_device_cause(src as u32, Some(staging));
            }
            let inter = fault_blind(&mut self.os, src, gw, batch, at);
            let agg_span = self.os.machine().blame_last_span(); // None when off
            if let Some(b) = self.os.machine().blame_mut() {
                b.set_device_cause(src as u32, prev_cause);
            }
            let mut last = inter.end;
            for (&(dst, row_bytes), &rows) in &stage.shares {
                if dst == gw {
                    continue; // already resident at the gateway
                }
                let (wire, latency) = {
                    let link = *self.os.machine().topology().link(gw, dst);
                    let fwd = coalesce_rows(rows, row_bytes, max_payload);
                    (link.wire_time(fwd.payload, fwd.messages), link.latency)
                };
                let slot = self.forward.entry((gw, dst)).or_insert(SimTime::ZERO);
                let begin = (inter.end + latency).max(*slot);
                let end = begin + wire;
                *slot = end;
                last = last.max(end);
            }
            // Blame: one aggregate scatter span on the gateway lane covering the
            // intra-node forwards, caused by the aggregate's wire span. The
            // origin's quiet fence waits on the scatter (its rows land at
            // `last`), and each scatter destination sees it as inbound traffic.
            if last > inter.end {
                if let Some(b) = self.os.machine().blame_mut() {
                    let scatter = b.record(
                        BlameCategory::GatewayStage,
                        Lane::Gateway(gw as u32),
                        inter.end,
                        inter.end,
                        last,
                        agg_span,
                        false,
                    );
                    b.note_outbound(src as u32, scatter);
                    for &(dst, _) in stage.shares.keys() {
                        if dst != gw {
                            b.note_inbound(dst as u32, scatter);
                        }
                    }
                }
            }
            self.os
                .machine()
                .metrics_mut()
                .incr("gateway_flushes", src as u32, dst_node as u32);
            let e = self.last_delivery.entry(src).or_insert(SimTime::ZERO);
            *e = (*e).max(last);
            stage.rows = 0;
            stage.payload = 0;
            stage.shares.clear();
            inter
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::MachineConfig;
    use proptest::prelude::*;

    fn pod(nodes: usize, per_node: usize) -> Machine {
        Machine::new(MachineConfig::pod_v100(nodes, per_node))
    }

    #[test]
    fn single_node_is_bit_identical_to_plain_onesided() {
        let cfg = PgasConfig::default();
        let mut direct_m = Machine::new(MachineConfig::dgx_v100(4));
        let mut gw_m = Machine::new(MachineConfig::dgx_v100(4));
        let mut direct = OneSided::with_config(&mut direct_m, cfg);
        let mut gw = GatewayPut::new(
            &mut gw_m,
            GatewayConfig {
                pgas: cfg,
                flush: AggregatorConfig::default(),
            },
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..32u64 {
            let src = (i % 4) as usize;
            let dst = ((i + 1) % 4) as usize;
            let at = SimTime::ZERO + Dur::from_ns(10 * i);
            a.push(super::fault_blind(
                &mut direct,
                src,
                dst,
                coalesce_rows(3, 256, 256),
                at,
            ));
            b.push(gw.put_rows_nbi(src, dst, 3, 256, at));
        }
        assert_eq!(a, b);
        assert!(gw.drain(SimTime::ZERO + Dur::from_ms(1)).is_empty());
        assert_eq!(gw.flushes(), 0);
        for src in 0..4 {
            let at = SimTime::ZERO + Dur::from_us(5);
            assert_eq!(
                direct.quiet(src, at),
                gw.quiet(src, at),
                "quiet must match on single-node"
            );
        }
    }

    #[test]
    fn cross_node_traffic_ships_as_one_message_per_flush() {
        let mut m = pod(2, 2);
        let mut gw = GatewayPut::new(&mut m, GatewayConfig::default());
        // 64 small rows from GPU 0 to GPUs 2 and 3 (node 1): all staged,
        // nothing on the slow wire yet.
        for i in 0..64u64 {
            let at = SimTime::ZERO + Dur::from_ns(20 * i);
            let iv = gw.put_rows_nbi(0, 2 + (i % 2) as usize, 1, 256, at);
            assert_eq!(iv.start, iv.end, "small rows only stage");
        }
        assert_eq!(gw.flushes(), 0);
        let drained = gw.drain(SimTime::ZERO + Dur::from_us(10));
        assert_eq!(drained.len(), 1, "one buffer, one flush");
        assert_eq!(gw.flushes(), 1);
        let quiet = gw.quiet(0, drained[0].end);
        assert!(quiet >= drained[0].end);
        let m = gw.machine();
        // Exactly one message crossed the inter-node tier.
        assert_eq!(m.traffic_stats().inter_node_messages, 1);
    }

    #[test]
    fn size_flush_fires_at_threshold() {
        let mut m = pod(2, 2);
        let cfg = GatewayConfig {
            pgas: PgasConfig::default(),
            flush: AggregatorConfig {
                flush_bytes: 1024,
                max_wait: Dur::from_ms(10),
            },
        };
        let mut gw = GatewayPut::new(&mut m, cfg);
        for i in 0..3u64 {
            let iv = gw.put_rows_nbi(0, 2, 1, 256, SimTime::ZERO + Dur::from_ns(i));
            assert_eq!(iv.start, iv.end);
        }
        // Fourth row reaches 1024 staged bytes: ships now.
        let iv = gw.put_rows_nbi(0, 2, 1, 256, SimTime::ZERO + Dur::from_ns(3));
        assert!(iv.end > iv.start, "size threshold must flush");
        assert_eq!(gw.flushes(), 1);
        assert!(gw.drain(SimTime::ZERO + Dur::from_us(1)).is_empty());
    }

    #[test]
    fn age_flush_ships_stale_buffer_before_staging() {
        let mut m = pod(2, 2);
        let cfg = GatewayConfig {
            pgas: PgasConfig::default(),
            flush: AggregatorConfig {
                flush_bytes: 1 << 20,
                max_wait: Dur::from_us(5),
            },
        };
        let mut gw = GatewayPut::new(&mut m, cfg);
        gw.put_rows_nbi(0, 2, 1, 256, SimTime::ZERO);
        // Arrives after the age timer: the old buffer ships without it.
        let iv = gw.put_rows_nbi(0, 3, 1, 256, SimTime::ZERO + Dur::from_us(8));
        assert!(iv.end > iv.start, "age threshold must flush");
        assert_eq!(gw.flushes(), 1);
        assert_eq!(gw.drain(SimTime::ZERO + Dur::from_us(20)).len(), 1);
        // The buffer left when its timer fired (oldest + max_wait), not when
        // the late row showed up.
        let latency = m.topology().link(0, 2).latency;
        let fired = SimTime::ZERO + Dur::from_us(5) + cfg.pgas.issue_overhead;
        assert_eq!(iv.start, fired + latency);
    }

    #[test]
    fn a_drain_after_the_timer_ships_at_the_timer() {
        let mut m = pod(2, 2);
        let cfg = GatewayConfig {
            pgas: PgasConfig::default(),
            flush: AggregatorConfig {
                flush_bytes: 1 << 20,
                max_wait: Dur::from_us(5),
            },
        };
        let mut gw = GatewayPut::new(&mut m, cfg);
        gw.put_rows_nbi(0, 2, 1, 256, SimTime::ZERO);
        gw.put_rows_nbi(1, 2, 1, 256, SimTime::ZERO);
        // Origin 1 drains before its buffer's timer fires, origin 0 after.
        let early = gw.drain_src(1, SimTime::ZERO + Dur::from_us(2));
        let late = gw.drain_src(0, SimTime::ZERO + Dur::from_us(20));
        let latency = m.topology().link(0, 2).latency;
        let wire = |at: SimTime| at + cfg.pgas.issue_overhead + latency;
        assert_eq!(late[0].start, wire(SimTime::ZERO + Dur::from_us(5)));
        assert_eq!(early[0].start, wire(SimTime::ZERO + Dur::from_us(2)));
    }

    #[test]
    fn drain_ships_every_channel_once() {
        let mut m = pod(2, 2);
        let mut gw = GatewayPut::new(&mut m, GatewayConfig::default());
        // Three (origin, destination-node) channels; the first carries rows
        // for two GPUs of node 1.
        gw.put_rows_nbi(0, 2, 1, 256, SimTime::ZERO);
        gw.put_rows_nbi(0, 3, 1, 256, SimTime::ZERO);
        gw.put_rows_nbi(1, 2, 1, 256, SimTime::ZERO);
        gw.put_rows_nbi(3, 0, 1, 256, SimTime::ZERO);
        assert_eq!(gw.flushes(), 0);
        assert_eq!(gw.drain(SimTime::ZERO + Dur::from_us(1)).len(), 3);
        assert_eq!(gw.rows_staged(), 4);
        assert_eq!(gw.flushes(), 3);
        // A second drain is a no-op.
        assert!(gw.drain(SimTime::ZERO + Dur::from_us(2)).is_empty());
        assert_eq!(m.traffic_stats().payload_bytes, 4 * 256);
        assert_eq!(m.traffic_stats().messages, 3);
    }

    #[test]
    fn quiet_covers_gateway_scatter() {
        let mut m = pod(2, 4);
        let mut gw = GatewayPut::new(&mut m, GatewayConfig::default());
        // Rows for a non-gateway GPU on the remote node: delivery includes
        // the scatter hop from the gateway (GPU 4) to GPU 6.
        gw.put_rows_nbi(0, 6, 16, 256, SimTime::ZERO);
        let drained = gw.drain(SimTime::ZERO);
        assert_eq!(drained.len(), 1);
        let quiet = gw.quiet(0, drained[0].end);
        assert!(
            quiet > drained[0].end,
            "quiet must wait for the intra-node scatter after the aggregate lands"
        );
    }

    #[test]
    fn fewer_inter_node_messages_than_flat_puts() {
        let rows = 256u64;
        let mut flat_m = pod(2, 2);
        let mut flat = OneSided::new(&mut flat_m);
        for i in 0..rows {
            let batch = coalesce_rows(1, 256, 256);
            super::fault_blind(&mut flat, 0, 2, batch, SimTime::ZERO + Dur::from_ns(i));
        }
        let flat_msgs = flat_m.traffic_stats().inter_node_messages;

        let mut gw_m = pod(2, 2);
        let mut gw = GatewayPut::new(&mut gw_m, GatewayConfig::default());
        for i in 0..rows {
            gw.put_rows_nbi(0, 2, 1, 256, SimTime::ZERO + Dur::from_ns(i));
        }
        gw.drain(SimTime::ZERO + Dur::from_us(1));
        let gw_msgs = gw_m.traffic_stats().inter_node_messages;
        assert!(
            gw_msgs * 32 <= flat_msgs,
            "gateway must collapse per-row messages: {gw_msgs} vs {flat_msgs}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The dense proxy is the map-based oracle bit for bit, on pod
        /// shapes 1–4 × 1–4, under put streams that interleave origins, mix
        /// two row sizes on one destination, include zero-row stores, and
        /// drain everything or one origin at random points (some at an
        /// instant before the buffer's newest row). Size thresholds run from 0 (every store ships) to 4 KiB or
        /// never, age thresholds from 1 ns to 20 µs or 1 s. Every returned
        /// interval and drain list, the flush and row counters after each
        /// step, every origin's `quiet`, the machine's traffic stats and,
        /// with blame on, every recorded span must agree.
        #[test]
        fn dense_proxy_equals_the_map_oracle(
            shape in 0usize..16,
            flush_bytes in prop_oneof![0u64..4096, Just(u64::MAX)],
            wait_ns in prop_oneof![1u64..20_000, Just(1_000_000_000)],
            blame in any::<bool>(),
            steps in prop::collection::vec(
                (0u8..12, 0usize..16, 0usize..16, 0u64..6, any::<bool>(), 0u64..4_000),
                1..160,
            ),
        ) {
            let cfg = MachineConfig::pod_v100(1 + shape / 4, 1 + shape % 4);
            let (mut dense_m, mut map_m) = (Machine::new(cfg.clone()), Machine::new(cfg));
            if blame {
                dense_m.enable_blame();
                map_m.enable_blame();
            }
            let n = dense_m.topology().n_gpus();
            let flush = AggregatorConfig { flush_bytes, max_wait: Dur::from_ns(wait_ns) };
            let gcfg = GatewayConfig { pgas: PgasConfig::default(), flush };
            let mut dense = GatewayPut::new(&mut dense_m, gcfg);
            let mut map = oracle::GatewayPut::new(&mut map_m, gcfg);
            let mut t = SimTime::ZERO;
            for &(op, src, dst, rows, wide, dt_ns) in &steps {
                t += Dur::from_ns(dt_ns);
                let (src, dst) = (src % n, dst % n);
                let early = SimTime::from_ns(dt_ns);
                match op {
                    0 => prop_assert_eq!(dense.drain(t), map.drain(t)),
                    1 => prop_assert_eq!(dense.drain_src(src, t), map.drain_src(src, t)),
                    2 => prop_assert_eq!(dense.drain_src(src, early), map.drain_src(src, early)),
                    _ if src != dst => {
                        let rb = if wide { 256 } else { 64 };
                        prop_assert_eq!(
                            dense.put_rows_nbi(src, dst, rows, rb, t),
                            map.put_rows_nbi(src, dst, rows, rb, t)
                        );
                    }
                    _ => {}
                }
                prop_assert_eq!(
                    (dense.flushes(), dense.rows_staged()),
                    (map.flushes(), map.rows_staged())
                );
            }
            prop_assert_eq!(dense.drain(t), map.drain(t));
            for src in 0..n {
                prop_assert_eq!(dense.quiet(src, t), map.quiet(src, t));
            }
            drop((dense, map));
            prop_assert_eq!(dense_m.traffic_stats(), map_m.traffic_stats());
            prop_assert_eq!(dense_m.blame().map(|b| b.spans()), map_m.blame().map(|b| b.spans()));
        }
    }
}
