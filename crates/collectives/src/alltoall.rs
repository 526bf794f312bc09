//! `all_to_all` — the baseline's layout-conversion collective.

use desim::{Interval, SimTime};
use gpusim::{FabricError, Faults, Machine, Send};

use crate::config::CHUNK_BYTES;
use crate::{d2d_copy_time, Algorithm, CollectiveConfig, WorkHandle};

/// PyTorch-style `all_to_all_single` on the wire: `send_bytes[i][j]` bytes
/// from device `i` to device `j` under `cfg.algorithm`'s schedule, each
/// chunk meeting the fault plan as `faults` says ([`Machine::transmit`]).
/// Errs when a chunk does. Timing only: moving the data is the caller's.
pub fn all_to_all(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
    faults: Faults,
) -> Result<WorkHandle, FabricError> {
    let n = machine.n_gpus();
    assert_eq!(send_bytes.len(), n, "one byte row per device");
    assert_eq!(ready.len(), n, "one ready time per device");
    for (i, row) in send_bytes.iter().enumerate() {
        assert_eq!(row.len(), n, "send_bytes[{i}] must have {n} columns");
    }
    let mut wire = Wire {
        efficiency: cfg.protocol_efficiency,
        faults,
        retries: 0,
    };
    let done = match cfg.algorithm {
        Algorithm::Direct => direct_schedule(machine, cfg, send_bytes, ready, &mut wire),
        Algorithm::Ring => ring_schedule(machine, cfg, send_bytes, ready, &mut wire),
        Algorithm::Hierarchical => {
            hierarchical_schedule(machine, cfg, send_bytes, ready, &mut wire)
        }
    }?;
    machine.metrics_mut().incr("collective_calls", 0, 0);
    Ok(WorkHandle::new(done, wire.retries))
}

/// What one call's transfers share: the wire efficiency, how they meet the
/// fault plan, and the retries they have taken.
struct Wire {
    efficiency: f64,
    faults: Faults,
    retries: u64,
}

impl Wire {
    /// Put `payload` bytes from `src` to `dst` on the wire as `messages`
    /// messages, ready at `ready`; the wire interval of the attempt that
    /// got through.
    fn send(
        &mut self,
        machine: &mut Machine,
        (src, dst): (usize, usize),
        payload: u64,
        messages: u64,
        ready: SimTime,
    ) -> Result<Interval, FabricError> {
        let d = machine.transmit(&Send {
            src,
            dst,
            payload,
            messages,
            ready,
            efficiency: self.efficiency,
            faults: self.faults,
        })?;
        self.retries += u64::from(d.attempts - 1);
        Ok(d.interval)
    }
}

/// Pipeline-chunked transfer of `bytes` from `src` to `dst`, every chunk
/// (one wire message each) ready at `at`; returns the last delivery time.
fn chunked(
    machine: &mut Machine,
    wire: &mut Wire,
    pair: (usize, usize),
    bytes: u64,
    at: SimTime,
) -> Result<SimTime, FabricError> {
    let mut remaining = bytes;
    let mut last = at;
    while remaining > 0 {
        let this = remaining.min(CHUNK_BYTES);
        last = last.max(wire.send(machine, pair, this, 1, at)?.end);
        remaining -= this;
    }
    Ok(last)
}

/// The direct schedule restricted to the pairs `pair` admits: each device
/// pushes its per-destination segment straight to the peer, chunked; the
/// self segment is a device-local copy.
fn pairwise(
    machine: &mut Machine,
    send_bytes: &[Vec<u64>],
    t0: &[SimTime],
    done: &mut [SimTime],
    wire: &mut Wire,
    pair: impl Fn(usize, usize) -> bool,
) -> Result<(), FabricError> {
    let n = t0.len();
    for src in 0..n {
        for dst in (0..n).filter(|&dst| pair(src, dst)) {
            let bytes = send_bytes[src][dst];
            let end = if dst == src {
                t0[src] + d2d_copy_time(bytes, machine.spec(src).mem_bw)
            } else {
                chunked(machine, wire, (src, dst), bytes, t0[src])?
            };
            done[dst] = done[dst].max(end);
            done[src] = done[src].max(end);
        }
    }
    Ok(())
}

/// Pairwise schedule over every device pair.
fn direct_schedule(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
    wire: &mut Wire,
) -> Result<Vec<SimTime>, FabricError> {
    let t0: Vec<SimTime> = ready.iter().map(|&r| r + cfg.call_overhead).collect();
    let mut done = vec![SimTime::ZERO; t0.len()];
    pairwise(machine, send_bytes, &t0, &mut done, wire, |_, _| true)?;
    Ok(done)
}

/// Two-level pod schedule. Intra-node pairs follow the direct pairwise
/// schedule over the crossbar. Cross-node traffic is staged in three hops:
/// each source forwards its per-destination-node segment to its own node's
/// gateway (intra link, or a local staging copy when the source *is* the
/// gateway), the gateway ships **one** aggregate chunked transfer per
/// ordered node pair across the slow tier — paying the inter-node
/// per-message cost once per node pair instead of once per GPU pair — and
/// the destination gateway scatters each source-node's bundle to its final
/// devices over the crossbar. On a single-node topology this is exactly
/// [`direct_schedule`], bit for bit.
fn hierarchical_schedule(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
    wire: &mut Wire,
) -> Result<Vec<SimTime>, FabricError> {
    let topo = machine.topology().clone();
    if topo.nodes() == 1 {
        return direct_schedule(machine, cfg, send_bytes, ready, wire);
    }
    let n = machine.n_gpus();
    let t0: Vec<SimTime> = ready.iter().map(|&r| r + cfg.call_overhead).collect();
    let mut done = vec![SimTime::ZERO; n];

    // Intra-node traffic and self-copies: the direct schedule within a node.
    pairwise(machine, send_bytes, &t0, &mut done, wire, |s, d| {
        topo.same_node(s, d)
    })?;

    // Cross-node traffic: gather → one aggregate inter-node transfer per
    // ordered node pair → scatter. The hops are issued as *global phases*
    // (every pair's gather, then every pair's inter-node transfer, then
    // every pair's scatter): the fabric books resources in call order with
    // a moving horizon, so interleaving the phases per node pair would
    // ratchet a gateway's injection horizon with one pair's late scatter
    // before the reverse pair's gather was even issued, serializing
    // traffic that physically overlaps.
    let mut pairs = gather_phase(machine, send_bytes, &t0, &mut done, wire)?;
    // Inter-node transfers, earliest-ready first — the order a real NIC
    // would drain its send queue.
    pairs.sort_by_key(|p| (p.agg_ready, p.gw_s, p.gw_d));
    for p in &mut pairs {
        // Blame: the aggregate transfer is gated by the gather hop landing
        // on the source gateway, not by the gateway's own kernel.
        blame_gate_on_inbound(machine, p.gw_s);
        let arrive = chunked(machine, wire, (p.gw_s, p.gw_d), p.total, p.agg_ready)?;
        done[p.gw_s] = done[p.gw_s].max(arrive);
        p.arrive = arrive;
    }
    // Scatters, earliest-arrival first for the same reason.
    pairs.sort_by_key(|p| (p.arrive, p.gw_s, p.gw_d));
    for p in &pairs {
        // Blame: scatters are gated by the aggregate landing on the
        // destination gateway.
        blame_gate_on_inbound(machine, p.gw_d);
        for &d in &p.dst_members {
            let bytes = p.per_dst[d];
            if bytes == 0 {
                continue;
            }
            let end = if d == p.gw_d {
                p.arrive + d2d_copy_time(bytes, machine.spec(d).mem_bw)
            } else {
                chunked(machine, wire, (p.gw_d, d), bytes, p.arrive)?
            };
            done[p.gw_d] = done[p.gw_d].max(end);
            done[d] = done[d].max(end);
        }
    }
    Ok(done)
}

/// Blame: re-anchor `gw`'s emitted data on the latest transfer that landed
/// on it (when there is one), so the next hop chains through the previous.
fn blame_gate_on_inbound(machine: &mut Machine, gw: usize) {
    if let Some(b) = machine.blame_mut() {
        let inbound = b.last_inbound(gw as u32);
        if inbound.is_some() {
            b.set_device_cause(gw as u32, inbound);
        }
    }
}

/// The staged state of one ordered node pair between the hierarchical
/// schedule's phases.
struct PairPlan {
    gw_s: usize,
    gw_d: usize,
    dst_members: Vec<usize>,
    /// Bytes bound for each final destination (indexed by global GPU id).
    per_dst: Vec<u64>,
    /// Aggregate bytes crossing the inter-node tier for this pair.
    total: u64,
    /// When the source gateway holds the whole bundle.
    agg_ready: SimTime,
    /// When the destination gateway holds it (set by the inter phase).
    arrive: SimTime,
}

/// Phase one of the hierarchical schedule: every source forwards its
/// cross-node segments to its node's gateway. Returns one [`PairPlan`] per
/// ordered node pair with traffic.
fn gather_phase(
    machine: &mut Machine,
    send_bytes: &[Vec<u64>],
    t0: &[SimTime],
    done: &mut [SimTime],
    wire: &mut Wire,
) -> Result<Vec<PairPlan>, FabricError> {
    let topo = machine.topology().clone();
    let n = machine.n_gpus();
    let nodes = topo.nodes();
    let mut pairs = Vec::new();
    for sn in 0..nodes {
        let src_members: Vec<usize> = topo.node_members(sn).collect();
        let gw_s = topo.gateway_of(src_members[0]);
        for dn in 0..nodes {
            if dn == sn {
                continue;
            }
            let dst_members: Vec<usize> = topo.node_members(dn).collect();
            let gw_d = topo.gateway_of(dst_members[0]);
            let mut per_dst = vec![0u64; n];
            let mut total = 0u64;
            let mut agg_ready = SimTime::ZERO;
            for &src in &src_members {
                let bytes: u64 = dst_members.iter().map(|&d| send_bytes[src][d]).sum();
                for &d in &dst_members {
                    per_dst[d] += send_bytes[src][d];
                    // Zero-byte floor, matching the direct schedule.
                    done[d] = done[d].max(t0[src]);
                }
                if bytes == 0 {
                    continue;
                }
                total += bytes;
                let arrive = if src == gw_s {
                    t0[src] + d2d_copy_time(bytes, machine.spec(src).mem_bw)
                } else {
                    chunked(machine, wire, (src, gw_s), bytes, t0[src])?
                };
                done[src] = done[src].max(arrive);
                agg_ready = agg_ready.max(arrive);
            }
            if total == 0 {
                continue;
            }
            pairs.push(PairPlan {
                gw_s,
                gw_d,
                dst_members,
                per_dst,
                total,
                agg_ready,
                arrive: SimTime::ZERO,
            });
        }
    }
    Ok(pairs)
}

/// Ring schedule: `n − 1` neighbor steps; parcels hop until they reach their
/// destination. Total wire volume exceeds the direct schedule (multi-hop),
/// which is why NCCL prefers peer-to-peer on a crossbar.
fn ring_schedule(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
    wire: &mut Wire,
) -> Result<Vec<SimTime>, FabricError> {
    let n = machine.n_gpus();
    if n == 1 {
        return Ok(vec![ready[0] + cfg.call_overhead]);
    }
    // Parcels held at each rank: (dst, bytes).
    let mut held: Vec<Vec<(usize, u64)>> = (0..n)
        .map(|src| {
            (0..n)
                .filter(|&d| d != src)
                .map(|d| (d, send_bytes[src][d]))
                .filter(|&(_, b)| b > 0)
                .collect()
        })
        .collect();
    let mut t: Vec<SimTime> = ready.iter().map(|&r| r + cfg.call_overhead).collect();
    let mut done = t.clone();
    // Local self-copy happens immediately.
    for src in 0..n {
        let bytes = send_bytes[src][src];
        let local = t[src] + d2d_copy_time(bytes, machine.spec(src).mem_bw);
        done[src] = done[src].max(local);
    }
    for _step in 1..n {
        let mut arriving: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        let mut arrive_time = vec![SimTime::ZERO; n];
        for src in 0..n {
            let next = (src + 1) % n;
            let parcels = std::mem::take(&mut held[src]);
            if parcels.is_empty() {
                continue;
            }
            let bytes: u64 = parcels.iter().map(|&(_, b)| b).sum();
            let iv = wire.send(machine, (src, next), bytes, cfg.n_chunks(bytes), t[src])?;
            done[src] = done[src].max(iv.end);
            arrive_time[next] = arrive_time[next].max(iv.end);
            arriving[next].extend(parcels);
        }
        for rank in 0..n {
            let mut keep = Vec::new();
            for (dst, bytes) in arriving[rank].drain(..) {
                if dst == rank {
                    done[rank] = done[rank].max(arrive_time[rank]);
                } else {
                    keep.push((dst, bytes));
                }
            }
            held[rank] = keep;
            t[rank] = t[rank].max(arrive_time[rank]);
        }
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::MachineConfig;

    fn ready(n: usize) -> Vec<SimTime> {
        vec![SimTime::ZERO; n]
    }

    /// A fault-blind all-to-all of `bytes`.
    fn a2a(
        m: &mut Machine,
        cfg: &CollectiveConfig,
        bytes: &[Vec<u64>],
        at: &[SimTime],
    ) -> WorkHandle {
        all_to_all(m, cfg, bytes, at, Faults::Ignore).expect("an ignored fault plan books")
    }

    /// `per` bytes between every ordered pair of `n` devices, self included.
    fn uniform(n: usize, per: u64) -> Vec<Vec<u64>> {
        vec![vec![per; n]; n]
    }

    #[test]
    fn ring_moves_more_bytes_than_direct() {
        let n = 4;
        let bytes = uniform(n, 4096);
        let mut md = Machine::new(MachineConfig::dgx_v100(n));
        a2a(&mut md, &CollectiveConfig::default(), &bytes, &ready(n));
        let mut mr = Machine::new(MachineConfig::dgx_v100(n));
        let ring = CollectiveConfig::default().with_algorithm(Algorithm::Ring);
        a2a(&mut mr, &ring, &bytes, &ready(n));
        assert_eq!(md.traffic_stats().payload_bytes, 12 * 4096);
        assert!(
            mr.traffic_stats().payload_bytes > md.traffic_stats().payload_bytes,
            "ring multi-hop must move more total bytes"
        );
    }

    #[test]
    fn single_device_is_local_copy_only() {
        let mut m = Machine::new(MachineConfig::dgx_v100(1));
        for alg in [Algorithm::Direct, Algorithm::Ring] {
            let cfg = CollectiveConfig::default().with_algorithm(alg);
            let work = a2a(&mut m, &cfg, &uniform(1, 8), &ready(1));
            assert!(work.all_done() >= SimTime::ZERO + cfg.call_overhead);
        }
        assert_eq!(m.traffic_stats().messages, 0, "no wire traffic on 1 GPU");
    }

    #[test]
    fn completion_respects_ready_times() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let late = SimTime::from_ms(5);
        let cfg = CollectiveConfig::default();
        let work = a2a(&mut m, &cfg, &uniform(2, 2048), &[late, SimTime::ZERO]);
        // Device 1 can't have the data destined from device 0 before `late`.
        assert!(work.done_at(1) > late);
    }

    #[test]
    fn chunking_splits_messages() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let cfg = CollectiveConfig::default();
        a2a(&mut m, &cfg, &uniform(2, 4 * CHUNK_BYTES), &ready(2));
        // Each device sends 16 MiB = 4 chunks.
        assert_eq!(m.traffic_stats().messages, 8);
    }

    #[test]
    #[allow(deprecated)]
    fn the_forward_pinned_by_the_benchmark_is_all_to_all() {
        let n = 4;
        let bytes = uniform(n, 1 << 16);
        let cfg = CollectiveConfig::default();
        let mut m1 = Machine::new(MachineConfig::dgx_v100(n));
        let a = a2a(&mut m1, &cfg, &bytes, &ready(n));
        let mut m2 = Machine::new(MachineConfig::dgx_v100(n));
        let b = crate::compat::all_to_all_timed(&mut m2, &cfg, &bytes, &ready(n));
        assert_eq!(a.all_done(), b.all_done());
        assert_eq!(m1.traffic_stats(), m2.traffic_stats());
    }

    #[test]
    fn a_retrying_all_to_all_on_a_clean_fabric_is_the_fault_blind_one() {
        let n = 4;
        let bytes = uniform(n, 1 << 16);
        for alg in [Algorithm::Direct, Algorithm::Ring] {
            let cfg = CollectiveConfig::default().with_algorithm(alg);
            let mut m1 = Machine::new(MachineConfig::dgx_v100(n));
            let a = a2a(&mut m1, &cfg, &bytes, &ready(n));
            let mut m2 = Machine::new(MachineConfig::dgx_v100(n));
            let retry = Faults::Retry;
            let b = all_to_all(&mut m2, &cfg, &bytes, &ready(n), retry).expect("clean");
            for dev in 0..n {
                assert_eq!(a.done_at(dev), b.done_at(dev), "{alg:?} dev {dev}");
            }
            assert_eq!(b.retries(), 0);
            assert_eq!(m1.traffic_stats(), m2.traffic_stats());
        }
    }

    #[test]
    fn a_retrying_all_to_all_survives_chaos() {
        use gpusim::{FaultPlan, FaultSpec};
        let n = 4;
        let bytes = uniform(n, 1 << 18);
        // A moderately hostile fabric: the collective must either complete
        // (possibly with retries) or fail with a typed error — never panic.
        let mut completions = 0;
        let mut total_retries = 0;
        let cfg = CollectiveConfig::default();
        for seed in 0..20u64 {
            let mut m = Machine::new(MachineConfig::dgx_v100(n));
            m.install_faults(FaultPlan::generate(seed, n, FaultSpec::chaos(0.8)));
            match all_to_all(&mut m, &cfg, &bytes, &ready(n), Faults::Retry) {
                Ok(w) => {
                    completions += 1;
                    total_retries += w.retries();
                }
                Err(e) => assert!(matches!(e, FabricError::RetryExhausted { .. })),
            }
        }
        assert!(completions > 0, "some seeds must complete");
        assert!(
            total_retries > 0,
            "chaos(0.8) must force at least one retry"
        );
    }

    #[test]
    fn hierarchical_matches_direct_bit_for_bit_at_every_single_node_width() {
        // The single-node delegation must be exact at every crossbar width,
        // including degenerate 1-GPU machines and non-uniform matrices.
        for n in [1usize, 2, 4, 8] {
            let bytes: Vec<Vec<u64>> = (0..n)
                .map(|s| {
                    (0..n)
                        .map(|d| ((s * 7 + d * 13) % 9) as u64 * 50_000)
                        .collect()
                })
                .collect();
            let mut md = Machine::new(MachineConfig::dgx_v100(n));
            let d = a2a(&mut md, &CollectiveConfig::default(), &bytes, &ready(n));
            let mut mh = Machine::new(MachineConfig::dgx_v100(n));
            let h = a2a(
                &mut mh,
                &CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical),
                &bytes,
                &ready(n),
            );
            for dev in 0..n {
                assert_eq!(d.done_at(dev), h.done_at(dev), "width {n} dev {dev}");
            }
            assert_eq!(md.traffic_stats(), mh.traffic_stats(), "width {n}");
        }
    }

    #[test]
    fn hierarchical_on_single_node_is_exactly_direct() {
        let n = 4;
        let bytes: Vec<Vec<u64>> = (0..n).map(|_| vec![100_000; n]).collect();
        let mut md = Machine::new(MachineConfig::dgx_v100(n));
        let d = a2a(&mut md, &CollectiveConfig::default(), &bytes, &ready(n));
        let mut mh = Machine::new(MachineConfig::dgx_v100(n));
        let h = a2a(
            &mut mh,
            &CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical),
            &bytes,
            &ready(n),
        );
        for dev in 0..n {
            assert_eq!(d.done_at(dev), h.done_at(dev), "dev {dev}");
        }
        assert_eq!(md.traffic_stats(), mh.traffic_stats());
    }

    #[test]
    fn hierarchical_sends_one_inter_node_transfer_per_node_pair() {
        // 2 nodes x 2 GPUs, small per-pair segments: the direct schedule
        // crosses the slow tier once per cross-node GPU pair (8 messages);
        // the hierarchical one crosses once per ordered node pair (2).
        let bytes: Vec<Vec<u64>> = (0..4).map(|_| vec![1024; 4]).collect();
        let count_inter = |m: &Machine| m.traffic_stats().inter_node_messages;
        let mut md = Machine::new(MachineConfig::pod_v100(2, 2));
        md.enable_telemetry();
        let _ = a2a(&mut md, &CollectiveConfig::default(), &bytes, &ready(4));
        let mut mh = Machine::new(MachineConfig::pod_v100(2, 2));
        mh.enable_telemetry();
        let h = a2a(
            &mut mh,
            &CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical),
            &bytes,
            &ready(4),
        );
        assert_eq!(count_inter(&md), 8);
        assert_eq!(count_inter(&mh), 2);
        assert!(h.all_done() > SimTime::ZERO);
        // Same payload crosses the slow tier either way.
        let inter_payload = |m: &Machine| -> f64 {
            let t = m.topology();
            let pairs = (0..16).map(|p| (p / 4, p % 4));
            let cross = pairs.filter(|&(s, d)| !t.same_node(s, d));
            cross.map(|(s, d)| m.traffic_between(s, d).total()).sum()
        };
        assert_eq!(inter_payload(&md), inter_payload(&mh));
        assert_eq!(inter_payload(&md), 8.0 * 1024.0);
    }

    #[test]
    fn a_retrying_hierarchical_on_a_clean_fabric_is_the_fault_blind_one() {
        // Timing, traffic and the recorded cause chain (gather → aggregate
        // → scatter) must not depend on which entry drove the schedule.
        for (nodes, per_node) in [(2usize, 4usize), (2, 2)] {
            let n = nodes * per_node;
            let bytes: Vec<Vec<u64>> = (0..n).map(|_| vec![1 << 14; n]).collect();
            let cfg = CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical);
            let mut m1 = Machine::new(MachineConfig::pod_v100(nodes, per_node));
            m1.enable_blame();
            let a = a2a(&mut m1, &cfg, &bytes, &ready(n));
            let mut m2 = Machine::new(MachineConfig::pod_v100(nodes, per_node));
            m2.enable_blame();
            let b = all_to_all(&mut m2, &cfg, &bytes, &ready(n), Faults::Retry).expect("clean");
            for dev in 0..n {
                assert_eq!(a.done_at(dev), b.done_at(dev), "dev {dev}");
            }
            assert_eq!(b.retries(), 0);
            assert_eq!(m1.traffic_stats(), m2.traffic_stats());
            // Close the window on the last delivery and compare the walks.
            let blame_of = |m: &mut Machine, end: SimTime| {
                let g = m.blame_mut().expect("recorder on");
                let last = (0..n as u32)
                    .filter_map(|d| g.last_inbound(d))
                    .max_by_key(|&s| g.spans()[s].end);
                g.end_batch(SimTime::ZERO, end, last);
                (g.spans().to_vec(), g.total())
            };
            let (spans_a, vec_a) = blame_of(&mut m1, a.all_done());
            let (spans_b, vec_b) = blame_of(&mut m2, b.all_done());
            assert_eq!(vec_a, vec_b, "{nodes}x{per_node}: blame vector diverged");
            assert_eq!(spans_a, spans_b, "{nodes}x{per_node}: cause chain diverged");
            assert!(vec_a.get(telemetry::causal::BlameCategory::WireInter) > 0);
        }
    }

    #[test]
    fn a_retrying_hierarchical_survives_pod_chaos() {
        use gpusim::{FaultPlan, FaultSpec};
        let bytes: Vec<Vec<u64>> = (0..4).map(|_| vec![1 << 18; 4]).collect();
        let cfg = CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical);
        let mut completions = 0;
        for seed in 0..20u64 {
            let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
            m.install_faults(FaultPlan::generate(seed, 4, FaultSpec::chaos(0.8)));
            match all_to_all(&mut m, &cfg, &bytes, &ready(4), Faults::Retry) {
                Ok(_) => completions += 1,
                Err(e) => assert!(matches!(e, FabricError::RetryExhausted { .. })),
            }
        }
        assert!(completions > 0, "some seeds must complete");
    }
}
