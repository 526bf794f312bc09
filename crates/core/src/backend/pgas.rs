//! The PGAS fused backend: the paper's contribution.
//!
//! One CUDA-kernel analogue per device performs lookup + pooling and, as
//! each thread block retires, immediately issues one-sided 256 B writes that
//! place every pooled row **directly at its final location in the remote
//! GPU's output buffer** (Listing 2 of the paper). There is no collective
//! call, no receive-side staging and no unpack kernel; completion is a
//! `quiet` (all my writes delivered) plus a barrier.

use desim::Dur;
use gpusim::Machine;
use pgas_rt::{AggregatorConfig, GatewayConfig, PgasConfig};

use crate::backend::{run_closed_loop, BackendResult, Exchange, ExecMode, RetrievalBackend};
use crate::EmbLayerConfig;

/// PGAS fused retrieval.
#[derive(Clone, Debug, Default)]
pub struct PgasFusedBackend {
    /// One-sided runtime tuning (coalescing payload, issue/quiet costs).
    pub pgas: PgasConfig,
    /// When set, cross-node puts route through the per-node gateway proxy
    /// with this flush policy (size/age aggregation before the slow tier).
    /// `None` puts every store directly on the wire — the paper's flat
    /// single-node behavior, unchanged. On single-node topologies the proxy
    /// is a bit-identical no-op either way.
    pub gateway: Option<AggregatorConfig>,
}

impl PgasFusedBackend {
    /// PGAS backend with NVSHMEM-like defaults (256 B coalesced payloads).
    pub fn new() -> Self {
        Self::default()
    }

    /// PGAS backend with gateway aggregation of cross-node stores.
    pub fn with_gateway(flush: AggregatorConfig) -> Self {
        PgasFusedBackend {
            gateway: Some(flush),
            ..Self::default()
        }
    }
}

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
pub(crate) fn stream_releases_into(
    dp: &crate::DevicePlan,
    durs: &[Dur],
    resident: u32,
    block_ends: impl Iterator<Item = desim::SimTime>,
    releases: &mut Vec<crate::arena::Release>,
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

impl RetrievalBackend for PgasFusedBackend {
    fn name(&self) -> &'static str {
        "pgas-fused"
    }

    fn run(&self, machine: &mut Machine, cfg: &EmbLayerConfig, mode: ExecMode) -> BackendResult {
        let exchange = match self.gateway {
            None => Exchange::OneSided(self.pgas),
            Some(flush) => Exchange::Gateway(GatewayConfig {
                pgas: self.pgas,
                flush,
            }),
        };
        run_closed_loop(machine, cfg, mode, |_, _, _| exchange, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BaselineBackend;
    use gpusim::MachineConfig;

    fn tiny_cfg(g: usize) -> EmbLayerConfig {
        let mut c = EmbLayerConfig::paper_weak_scaling(g).scaled_down(512);
        c.n_batches = 3;
        c.distinct_batches = 2;
        c
    }

    #[test]
    fn report_shape() {
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let res = PgasFusedBackend::new().run(&mut m, &cfg, ExecMode::Timing);
        let r = &res.report;
        assert_eq!(r.batches, 3);
        assert!(!r.breakdown.compute.is_zero());
        assert_eq!(r.breakdown.communication, Dur::ZERO);
        assert!(!r.breakdown.sync_unpack.is_zero());
        assert!(r.traffic.payload_bytes > 0);
        assert!(r.traffic.messages > r.traffic.payload_bytes / (1 << 20));
    }

    #[test]
    fn gateway_variant_is_identical_on_single_node_and_faster_on_pods() {
        let cfg = tiny_cfg(4);
        let flush = pgas_rt::AggregatorConfig::default();
        // Single node: the proxy has nothing to stage — reports match the
        // flat backend exactly.
        let mut mf = Machine::new(MachineConfig::dgx_v100(4));
        let flat = PgasFusedBackend::new().run(&mut mf, &cfg, ExecMode::Timing);
        let mut mg = Machine::new(MachineConfig::dgx_v100(4));
        let gw = PgasFusedBackend::with_gateway(flush).run(&mut mg, &cfg, ExecMode::Timing);
        assert_eq!(flat.report.total, gw.report.total);
        assert_eq!(flat.report.traffic, gw.report.traffic);
        // Two-tier pod: the proxy must strictly cut message count (the
        // coalesced inter-node stream replaces per-row puts).
        let mut mf = Machine::new(MachineConfig::pod_v100(2, 2));
        let flat = PgasFusedBackend::new().run(&mut mf, &cfg, ExecMode::Timing);
        let mut mg = Machine::new(MachineConfig::pod_v100(2, 2));
        let gw = PgasFusedBackend::with_gateway(flush).run(&mut mg, &cfg, ExecMode::Timing);
        assert!(
            gw.report.traffic.messages < flat.report.traffic.messages,
            "gateway must coalesce: {} >= {}",
            gw.report.traffic.messages,
            flat.report.traffic.messages
        );
    }

    #[test]
    fn pgas_sends_small_messages_baseline_sends_large() {
        let cfg = tiny_cfg(2);
        let mut mp = Machine::new(MachineConfig::dgx_v100(2));
        let p = PgasFusedBackend::new().run(&mut mp, &cfg, ExecMode::Timing);
        let mut mb = Machine::new(MachineConfig::dgx_v100(2));
        let b = BaselineBackend::new().run(&mut mb, &cfg, ExecMode::Timing);
        // Same payload moved (both convert the same layout)…
        assert_eq!(
            p.report.traffic.payload_bytes,
            b.report.traffic.payload_bytes
        );
        // …but PGAS uses vastly more, vastly smaller messages.
        assert!(p.report.traffic.messages > 10 * b.report.traffic.messages);
        assert!(p.report.traffic.header_overhead() > b.report.traffic.header_overhead());
    }

    #[test]
    fn pgas_beats_baseline_on_two_gpus() {
        let cfg = tiny_cfg(2);
        let mut mp = Machine::new(MachineConfig::dgx_v100(2));
        let p = PgasFusedBackend::new().run(&mut mp, &cfg, ExecMode::Timing);
        let mut mb = Machine::new(MachineConfig::dgx_v100(2));
        let b = BaselineBackend::new().run(&mut mb, &cfg, ExecMode::Timing);
        assert!(
            p.report.total < b.report.total,
            "pgas {} vs baseline {}",
            p.report.total,
            b.report.total
        );
    }

    #[test]
    fn functional_outputs_match_baseline_functional() {
        let cfg = tiny_cfg(2);
        let mut mp = Machine::new(MachineConfig::dgx_v100(2));
        let p = PgasFusedBackend::new().run(&mut mp, &cfg, ExecMode::Functional);
        let mut mb = Machine::new(MachineConfig::dgx_v100(2));
        let b = BaselineBackend::new().run(&mut mb, &cfg, ExecMode::Functional);
        let (po, bo) = (p.outputs.unwrap(), b.outputs.unwrap());
        for (a, b) in po.iter().zip(&bo) {
            assert!(a.allclose(b, 0.0), "backends must agree exactly");
        }
    }

    #[test]
    fn comm_is_spread_during_compute() {
        // The PGAS comm series starts early (during the kernel), whereas the
        // baseline's first traffic appears only after the kernel.
        let cfg = tiny_cfg(2);
        let mut mp = Machine::new(MachineConfig::dgx_v100(2));
        let p = PgasFusedBackend::new().run(&mut mp, &cfg, ExecMode::Timing);
        let mut mb = Machine::new(MachineConfig::dgx_v100(2));
        let b = BaselineBackend::new().run(&mut mb, &cfg, ExecMode::Timing);
        let first_nonzero = |series: &desim::TimeSeries| {
            series
                .points()
                .find(|&(_, v)| v > 0.0)
                .map(|(t, _)| t)
                .unwrap()
        };
        assert!(first_nonzero(&p.report.comm_series) <= first_nonzero(&b.report.comm_series));
    }
}
