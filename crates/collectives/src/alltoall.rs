//! `all_to_all_single` — the baseline's layout-conversion collective.

use std::convert::Infallible;

use desim::{Interval, SimTime};
use gpusim::{FabricError, Machine};

use crate::{d2d_copy_time, Algorithm, CollectiveConfig, WorkHandle, ELEM_BYTES};

/// PyTorch-style `all_to_all_single` with equal splits: every device's input
/// is cut into `n` equal chunks, chunk `j` of device `i` lands at slot `i`
/// of device `j`'s output. Inputs must all have the same length, divisible
/// by the device count.
///
/// Returns the received buffers and a [`WorkHandle`] with per-device
/// completion times.
pub fn all_to_all_single(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    inputs: &[Vec<f32>],
    ready: &[SimTime],
) -> (Vec<Vec<f32>>, WorkHandle) {
    let n = machine.n_gpus();
    assert_eq!(inputs.len(), n, "one input buffer per device");
    let len = inputs[0].len();
    for (i, buf) in inputs.iter().enumerate() {
        assert_eq!(buf.len(), len, "input {i} length mismatch");
    }
    assert_eq!(
        len % n,
        0,
        "input length {len} not divisible by {n} devices"
    );
    let per = len / n;
    let counts: Vec<Vec<usize>> = vec![vec![per; n]; n];
    all_to_all_varied(machine, cfg, inputs, &counts, ready)
}

/// `all_to_all_single` with explicit per-pair element counts:
/// `send_counts[i][j]` elements travel from device `i` to device `j`,
/// taken from `inputs[i]` in destination order. Device `j`'s output is the
/// concatenation over sources `i` of those segments, in source order.
pub fn all_to_all_varied(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    inputs: &[Vec<f32>],
    send_counts: &[Vec<usize>],
    ready: &[SimTime],
) -> (Vec<Vec<f32>>, WorkHandle) {
    let n = machine.n_gpus();
    assert_eq!(inputs.len(), n, "one input buffer per device");
    assert_eq!(send_counts.len(), n, "one send-count row per device");
    assert_eq!(ready.len(), n, "one ready time per device");
    for (i, row) in send_counts.iter().enumerate() {
        assert_eq!(row.len(), n, "send_counts[{i}] must have {n} columns");
        let total: usize = row.iter().sum();
        assert_eq!(
            total,
            inputs[i].len(),
            "send_counts[{i}] must cover the whole input"
        );
    }

    // ---- Functional data movement (algorithm-independent). ----
    let outputs = shuffle_functional(inputs, send_counts);

    // ---- Timed wire traffic. ----
    let bytes: Vec<Vec<u64>> = send_counts
        .iter()
        .map(|row| row.iter().map(|&c| c as u64 * ELEM_BYTES).collect())
        .collect();
    let work = all_to_all_timed(machine, cfg, &bytes, ready);
    (outputs, work)
}

/// Timing-only `all_to_all`: simulate the wire traffic for a byte matrix
/// (`send_bytes[i][j]` bytes from device `i` to device `j`) without moving
/// any functional data. Used by paper-scale runs where materializing the
/// buffers would be wasteful. Fault-blind: every transfer is booked
/// straight on the fabric.
pub fn all_to_all_timed(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
) -> WorkHandle {
    let eff = cfg.protocol_efficiency;
    let mut send = |m: &mut Machine, src, dst, bytes, msgs, at| {
        Ok::<_, Infallible>(m.send_throttled(src, dst, bytes, msgs, at, eff))
    };
    match run_schedule(machine, cfg, send_bytes, ready, &mut send) {
        Ok(done) => WorkHandle::new(done),
        Err(never) => match never {},
    }
}

/// Fault-aware [`all_to_all_timed`]: every chunk is retried under the
/// config's retry policy when its link is down or the chunk is dropped; the
/// collective fails with [`FabricError::RetryExhausted`] only once a chunk's
/// retry budget is spent. Both entries drive the same schedules, so on a
/// clean fabric (or with no fault plan installed) timing, traffic and blame
/// spans are identical to the infallible path.
pub fn try_all_to_all_timed(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
) -> Result<WorkHandle, FabricError> {
    let (eff, retry) = (cfg.protocol_efficiency, cfg.retry);
    let mut retries = 0u64;
    let mut send = |m: &mut Machine, src, dst, bytes, msgs, at| {
        let (iv, attempts) = m.try_send_retry(src, dst, bytes, msgs, at, eff, retry)?;
        retries += u64::from(attempts - 1);
        Ok::<_, FabricError>(iv)
    };
    let done = run_schedule(machine, cfg, send_bytes, ready, &mut send)?;
    Ok(WorkHandle::with_retries(done, retries))
}

/// One wire transfer of a schedule — `(machine, src, dst, bytes, messages,
/// ready) -> wire interval` — the only thing the infallible and the
/// fault-aware entry do differently.
trait ChunkSend<E>:
    FnMut(&mut Machine, usize, usize, u64, u64, SimTime) -> Result<Interval, E>
{
}

impl<E, F> ChunkSend<E> for F where
    F: FnMut(&mut Machine, usize, usize, u64, u64, SimTime) -> Result<Interval, E>
{
}

/// Validate the byte matrix, run `cfg.algorithm`'s schedule over `send` and
/// record the call's telemetry. Returns per-device completion instants.
fn run_schedule<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
    send: &mut impl ChunkSend<E>,
) -> Result<Vec<SimTime>, E> {
    let n = machine.n_gpus();
    assert_eq!(send_bytes.len(), n, "one byte row per device");
    assert_eq!(ready.len(), n, "one ready time per device");
    for (i, row) in send_bytes.iter().enumerate() {
        assert_eq!(row.len(), n, "send_bytes[{i}] must have {n} columns");
    }
    let done = match cfg.algorithm {
        Algorithm::Direct => direct_schedule(machine, cfg, send_bytes, ready, send),
        Algorithm::Ring => ring_schedule(machine, cfg, send_bytes, ready, send),
        Algorithm::Hierarchical => hierarchical_schedule(machine, cfg, send_bytes, ready, send),
    }?;
    record_collective_span(machine, ready, &done);
    Ok(done)
}

/// Telemetry: one collective call plus its phase span (earliest participant
/// ready → last delivery). No-op when the machine's registry is disabled.
fn record_collective_span(machine: &mut Machine, ready: &[SimTime], done: &[SimTime]) {
    let m = machine.metrics_mut();
    if !m.is_enabled() {
        return;
    }
    m.incr("collective_calls", 0, 0);
    let end = done.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let start = ready.iter().copied().fold(end, SimTime::min);
    m.span("collective_span_ns", 0, 0, start, end);
    if end > start {
        m.observe(
            "collective_span_us",
            0,
            0,
            telemetry::US_BOUNDS,
            end.since(start).as_ns() / 1_000,
        );
    }
}

/// The algorithm-independent functional data movement of an all-to-all.
fn shuffle_functional(inputs: &[Vec<f32>], send_counts: &[Vec<usize>]) -> Vec<Vec<f32>> {
    let n = inputs.len();
    let offsets: Vec<Vec<usize>> = send_counts
        .iter()
        .map(|row| {
            let mut off = 0;
            row.iter()
                .map(|&c| {
                    let o = off;
                    off += c;
                    o
                })
                .collect()
        })
        .collect();
    (0..n)
        .map(|dst| {
            let mut out = Vec::with_capacity((0..n).map(|s| send_counts[s][dst]).sum());
            for src in 0..n {
                let o = offsets[src][dst];
                out.extend_from_slice(&inputs[src][o..o + send_counts[src][dst]]);
            }
            out
        })
        .collect()
}

/// Pipeline-chunked transfer of `bytes` from `src` to `dst`, every chunk
/// (one wire message each) ready at `at`; returns the last delivery time.
fn chunked<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send: &mut impl ChunkSend<E>,
    (src, dst): (usize, usize),
    bytes: u64,
    at: SimTime,
) -> Result<SimTime, E> {
    let mut remaining = bytes;
    let mut last = at;
    while remaining > 0 {
        let this = remaining.min(cfg.chunk_bytes);
        last = last.max(send(machine, src, dst, this, 1, at)?.end);
        remaining -= this;
    }
    Ok(last)
}

/// The direct schedule restricted to the pairs `pair` admits: each device
/// pushes its per-destination segment straight to the peer, chunked; the
/// self segment is a device-local copy.
fn pairwise<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    t0: &[SimTime],
    done: &mut [SimTime],
    send: &mut impl ChunkSend<E>,
    pair: impl Fn(usize, usize) -> bool,
) -> Result<(), E> {
    let n = t0.len();
    for src in 0..n {
        for dst in (0..n).filter(|&dst| pair(src, dst)) {
            let bytes = send_bytes[src][dst];
            let end = if dst == src {
                t0[src] + d2d_copy_time(bytes, machine.spec(src).mem_bw)
            } else {
                chunked(machine, cfg, send, (src, dst), bytes, t0[src])?
            };
            done[dst] = done[dst].max(end);
            done[src] = done[src].max(end);
        }
    }
    Ok(())
}

/// Pairwise schedule over every device pair.
fn direct_schedule<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
    send: &mut impl ChunkSend<E>,
) -> Result<Vec<SimTime>, E> {
    let t0: Vec<SimTime> = ready.iter().map(|&r| r + cfg.call_overhead).collect();
    let mut done = vec![SimTime::ZERO; t0.len()];
    pairwise(machine, cfg, send_bytes, &t0, &mut done, send, |_, _| true)?;
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
fn hierarchical_schedule<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
    send: &mut impl ChunkSend<E>,
) -> Result<Vec<SimTime>, E> {
    let topo = machine.topology().clone();
    if topo.nodes() == 1 {
        return direct_schedule(machine, cfg, send_bytes, ready, send);
    }
    let n = machine.n_gpus();
    let t0: Vec<SimTime> = ready.iter().map(|&r| r + cfg.call_overhead).collect();
    let mut done = vec![SimTime::ZERO; n];

    // Intra-node traffic and self-copies: the direct schedule within a node.
    pairwise(machine, cfg, send_bytes, &t0, &mut done, send, |s, d| {
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
    let mut pairs = gather_phase(machine, cfg, send_bytes, &t0, &mut done, send)?;
    // Inter-node transfers, earliest-ready first — the order a real NIC
    // would drain its send queue.
    pairs.sort_by_key(|p| (p.agg_ready, p.gw_s, p.gw_d));
    for p in &mut pairs {
        // Blame: the aggregate transfer is gated by the gather hop landing
        // on the source gateway, not by the gateway's own kernel.
        blame_gate_on_inbound(machine, p.gw_s);
        let arrive = chunked(machine, cfg, send, (p.gw_s, p.gw_d), p.total, p.agg_ready)?;
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
                chunked(machine, cfg, send, (p.gw_d, d), bytes, p.arrive)?
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
fn gather_phase<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    t0: &[SimTime],
    done: &mut [SimTime],
    send: &mut impl ChunkSend<E>,
) -> Result<Vec<PairPlan>, E> {
    let topo = machine.topology().clone();
    let n = machine.n_gpus();
    let nodes = topo.nodes();
    let mut pairs = Vec::new();
    for sn in 0..nodes {
        let src_members: Vec<usize> = topo.node_members(sn).collect();
        let gw_s = src_members[0];
        for dn in 0..nodes {
            if dn == sn {
                continue;
            }
            let dst_members: Vec<usize> = topo.node_members(dn).collect();
            let gw_d = dst_members[0];
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
                    chunked(machine, cfg, send, (src, gw_s), bytes, t0[src])?
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
fn ring_schedule<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
    send: &mut impl ChunkSend<E>,
) -> Result<Vec<SimTime>, E> {
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
            let iv = send(machine, src, next, bytes, cfg.n_chunks(bytes), t[src])?;
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

    /// The reference semantics: output[j] = concat_i input[i].chunk(j).
    fn reference_equal(inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let n = inputs.len();
        let per = inputs[0].len() / n;
        (0..n)
            .map(|dst| {
                let mut out = Vec::new();
                for input in inputs {
                    out.extend_from_slice(&input[dst * per..(dst + 1) * per]);
                }
                out
            })
            .collect()
    }

    #[test]
    fn equal_split_matches_reference() {
        let n = 4;
        let mut m = Machine::new(MachineConfig::dgx_v100(n));
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..8).map(|k| (i * 100 + k) as f32).collect())
            .collect();
        let (out, work) =
            all_to_all_single(&mut m, &CollectiveConfig::default(), &inputs, &ready(n));
        assert_eq!(out, reference_equal(&inputs));
        assert!(work.all_done() > SimTime::ZERO);
    }

    #[test]
    fn two_gpu_swap() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]];
        let (out, _) = all_to_all_single(&mut m, &CollectiveConfig::default(), &inputs, &ready(2));
        assert_eq!(out[0], vec![1.0, 2.0, 5.0, 6.0]);
        assert_eq!(out[1], vec![3.0, 4.0, 7.0, 8.0]);
    }

    #[test]
    fn varied_splits() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        // Device 0 sends 1 element to itself, 3 to device 1.
        // Device 1 sends 2 to device 0, 0 to itself.
        let inputs = vec![vec![10.0, 20.0, 30.0, 40.0], vec![50.0, 60.0]];
        let counts = vec![vec![1, 3], vec![2, 0]];
        let (out, _) = all_to_all_varied(
            &mut m,
            &CollectiveConfig::default(),
            &inputs,
            &counts,
            &ready(2),
        );
        assert_eq!(out[0], vec![10.0, 50.0, 60.0]);
        assert_eq!(out[1], vec![20.0, 30.0, 40.0]);
    }

    #[test]
    fn ring_moves_more_bytes_than_direct() {
        let n = 4;
        let inputs: Vec<Vec<f32>> = (0..n).map(|_| vec![1.0f32; 4096]).collect();
        let mut md = Machine::new(MachineConfig::dgx_v100(n));
        let (out_d, _) =
            all_to_all_single(&mut md, &CollectiveConfig::default(), &inputs, &ready(n));
        let mut mr = Machine::new(MachineConfig::dgx_v100(n));
        let (out_r, _) = all_to_all_single(
            &mut mr,
            &CollectiveConfig::default().with_algorithm(Algorithm::Ring),
            &inputs,
            &ready(n),
        );
        assert_eq!(out_d, out_r, "algorithms must agree functionally");
        assert!(
            mr.traffic_stats().payload_bytes > md.traffic_stats().payload_bytes,
            "ring multi-hop must move more total bytes"
        );
    }

    #[test]
    fn single_device_is_local_copy_only() {
        let mut m = Machine::new(MachineConfig::dgx_v100(1));
        let inputs = vec![vec![1.0, 2.0]];
        for alg in [Algorithm::Direct, Algorithm::Ring] {
            let (out, work) = all_to_all_single(
                &mut m,
                &CollectiveConfig::default().with_algorithm(alg),
                &inputs,
                &ready(1),
            );
            assert_eq!(out[0], inputs[0]);
            assert!(work.all_done() >= SimTime::ZERO + CollectiveConfig::default().call_overhead);
        }
        assert_eq!(m.traffic_stats().messages, 0, "no wire traffic on 1 GPU");
    }

    #[test]
    fn completion_respects_ready_times() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![0.0f32; 1024], vec![0.0f32; 1024]];
        let late = SimTime::from_ms(5);
        let (_, work) = all_to_all_single(
            &mut m,
            &CollectiveConfig::default(),
            &inputs,
            &[late, SimTime::ZERO],
        );
        // Device 1 can't have the data destined from device 0 before `late`.
        assert!(work.done_at(1) > late);
    }

    #[test]
    fn chunking_splits_messages() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![0.0f32; 2048], vec![0.0f32; 2048]];
        let cfg = CollectiveConfig::default().with_chunk_bytes(1024);
        let (_, _) = all_to_all_single(&mut m, &cfg, &inputs, &ready(2));
        // Each device sends 1024 elements = 4096 bytes = 4 chunks.
        assert_eq!(m.traffic_stats().messages, 8);
    }

    #[test]
    fn try_timed_without_faults_matches_timed() {
        let n = 4;
        let bytes: Vec<Vec<u64>> = (0..n).map(|_| vec![1 << 16; n]).collect();
        for alg in [Algorithm::Direct, Algorithm::Ring] {
            let cfg = CollectiveConfig::default().with_algorithm(alg);
            let mut m1 = Machine::new(MachineConfig::dgx_v100(n));
            let a = all_to_all_timed(&mut m1, &cfg, &bytes, &ready(n));
            let mut m2 = Machine::new(MachineConfig::dgx_v100(n));
            let b = try_all_to_all_timed(&mut m2, &cfg, &bytes, &ready(n)).expect("clean");
            for dev in 0..n {
                assert_eq!(a.done_at(dev), b.done_at(dev), "{alg:?} dev {dev}");
            }
            assert_eq!(b.retries(), 0);
            assert_eq!(m1.traffic_stats(), m2.traffic_stats());
        }
    }

    #[test]
    fn try_timed_survives_chaos() {
        use gpusim::{FaultPlan, FaultSpec};
        let n = 4;
        let bytes: Vec<Vec<u64>> = (0..n).map(|_| vec![1 << 18; n]).collect();
        // A moderately hostile fabric: the collective must either complete
        // (possibly with retries) or fail with a typed error — never panic.
        let mut completions = 0;
        let mut total_retries = 0;
        for seed in 0..20u64 {
            let mut m = Machine::new(MachineConfig::dgx_v100(n));
            m.install_faults(FaultPlan::generate(seed, n, FaultSpec::chaos(0.8)));
            match try_all_to_all_timed(&mut m, &CollectiveConfig::default(), &bytes, &ready(n)) {
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
            let d = all_to_all_timed(&mut md, &CollectiveConfig::default(), &bytes, &ready(n));
            let mut mh = Machine::new(MachineConfig::dgx_v100(n));
            let h = all_to_all_timed(
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
        let d = all_to_all_timed(&mut md, &CollectiveConfig::default(), &bytes, &ready(n));
        let mut mh = Machine::new(MachineConfig::dgx_v100(n));
        let h = all_to_all_timed(
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
    fn hierarchical_functionally_matches_direct_on_pods() {
        let mut md = Machine::new(MachineConfig::pod_v100(2, 2));
        let mut mh = Machine::new(MachineConfig::pod_v100(2, 2));
        let inputs: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..8).map(|k| (i * 100 + k) as f32).collect())
            .collect();
        let (out_d, _) =
            all_to_all_single(&mut md, &CollectiveConfig::default(), &inputs, &ready(4));
        let (out_h, _) = all_to_all_single(
            &mut mh,
            &CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical),
            &inputs,
            &ready(4),
        );
        assert_eq!(out_d, out_h, "schedules must agree functionally");
    }

    #[test]
    fn hierarchical_sends_one_inter_node_transfer_per_node_pair() {
        // 2 nodes x 2 GPUs, small per-pair segments: the direct schedule
        // crosses the slow tier once per cross-node GPU pair (8 messages);
        // the hierarchical one crosses once per ordered node pair (2).
        let bytes: Vec<Vec<u64>> = (0..4).map(|_| vec![1024; 4]).collect();
        let count_inter = |m: &Machine| {
            let t = m.metrics().counter("fabric_tier_messages", 1, 0);
            t
        };
        let mut md = Machine::new(MachineConfig::pod_v100(2, 2));
        md.enable_telemetry();
        let _ = all_to_all_timed(&mut md, &CollectiveConfig::default(), &bytes, &ready(4));
        let mut mh = Machine::new(MachineConfig::pod_v100(2, 2));
        mh.enable_telemetry();
        let h = all_to_all_timed(
            &mut mh,
            &CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical),
            &bytes,
            &ready(4),
        );
        assert_eq!(count_inter(&md), 8);
        assert_eq!(count_inter(&mh), 2);
        assert!(h.all_done() > SimTime::ZERO);
        // Same payload crosses the slow tier either way.
        assert_eq!(
            md.metrics().counter("fabric_tier_payload_bytes", 1, 0),
            mh.metrics().counter("fabric_tier_payload_bytes", 1, 0),
        );
    }

    #[test]
    fn try_hierarchical_without_faults_matches_timed() {
        // Timing, traffic and the recorded cause chain (gather → aggregate
        // → scatter) must not depend on which entry drove the schedule.
        for (nodes, per_node) in [(2usize, 4usize), (2, 2)] {
            let n = nodes * per_node;
            let bytes: Vec<Vec<u64>> = (0..n).map(|_| vec![1 << 14; n]).collect();
            let cfg = CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical);
            let mut m1 = Machine::new(MachineConfig::pod_v100(nodes, per_node));
            m1.enable_blame();
            let a = all_to_all_timed(&mut m1, &cfg, &bytes, &ready(n));
            let mut m2 = Machine::new(MachineConfig::pod_v100(nodes, per_node));
            m2.enable_blame();
            let b = try_all_to_all_timed(&mut m2, &cfg, &bytes, &ready(n)).expect("clean");
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
    fn try_hierarchical_survives_tiered_chaos() {
        use gpusim::{FaultPlan, FaultSpec};
        let bytes: Vec<Vec<u64>> = (0..4).map(|_| vec![1 << 18; 4]).collect();
        let cfg = CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical);
        let mut completions = 0;
        for seed in 0..20u64 {
            let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
            let topo = m.topology().clone();
            m.install_faults(FaultPlan::generate_tiered(
                seed,
                &topo,
                FaultSpec::none(),
                FaultSpec::chaos(0.8),
            ));
            match try_all_to_all_timed(&mut m, &cfg, &bytes, &ready(4)) {
                Ok(_) => completions += 1,
                Err(e) => assert!(matches!(e, FabricError::RetryExhausted { .. })),
            }
        }
        assert!(completions > 0, "some seeds must complete");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn unbalanced_equal_split_panics() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![0.0f32; 3], vec![0.0f32; 3]];
        let _ = all_to_all_single(&mut m, &CollectiveConfig::default(), &inputs, &ready(2));
    }

    #[test]
    #[should_panic(expected = "cover the whole input")]
    fn bad_counts_panic() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![0.0f32; 4], vec![0.0f32; 4]];
        let counts = vec![vec![1, 1], vec![2, 2]];
        let _ = all_to_all_varied(
            &mut m,
            &CollectiveConfig::default(),
            &inputs,
            &counts,
            &ready(2),
        );
    }
}
