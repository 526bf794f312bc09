//! Property-based tests for the serving layer: batching determinism,
//! deadline/shed/timeout accounting, quantile edge cases, and the plan of a
//! fresh batch against the assembled-CSR oracle.

use desim::{Dur, SimTime};
use emb_retrieval::backend::{plain_plan, plan_with_planner, PlannedBatch};
use emb_retrieval::{EmbLayerConfig, SparseBatch};
use emb_serve::{
    ArrivalProcess, BatcherConfig, LatencyStats, MicroBatcher, PoolWindow, Request,
    RequestGenerator,
};
use gpusim::{Machine, MachineConfig};
use proptest::prelude::*;

fn workload() -> EmbLayerConfig {
    let mut c = EmbLayerConfig::paper_weak_scaling(2).scaled_down(512);
    c.distinct_batches = 2;
    c
}

/// Plan `window` as the serving path does (from pool runs) and as it did
/// before (a CSR assembled from copied rows, padded with empty rows up to
/// the GPU count), and require the two to agree block by block, in the byte
/// matrix and in every block duration.
fn assert_window_plans_like_the_oracle(
    cfg: &EmbLayerConfig,
    window: &[Request],
) -> Result<(), TestCaseError> {
    let m = Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
    let gpu = m.spec(0);
    let view = PoolWindow::new(window, cfg.n_features, cfg.n_gpus)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let got = PlannedBatch::new(&m, plain_plan(cfg, &view, gpu));

    let mut rows: Vec<Vec<u32>> = window.iter().map(|r| r.bags.to_vec()).collect();
    rows.resize(rows.len().max(cfg.n_gpus), vec![0; cfg.n_features]);
    let batch = SparseBatch::from_bag_sizes(cfg.n_features, &rows)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let want = PlannedBatch::new(&m, plan_with_planner(cfg, &batch, gpu, None));

    let (gp, wp) = (got.plan(), want.plan());
    prop_assert_eq!(gp.batch_size, wp.batch_size);
    prop_assert_eq!(&gp.mb_sizes, &wp.mb_sizes);
    prop_assert_eq!(gp.devices.len(), wp.devices.len());
    for (gd, wd) in gp.devices.iter().zip(&wp.devices) {
        prop_assert_eq!(gd.blocks.len(), wd.blocks.len());
        for (i, (g, w)) in gd.blocks.iter().zip(&wd.blocks).enumerate() {
            prop_assert_eq!(g, w, "device {} block {}: {:?} != {:?}", gd.device, i, g, w);
        }
        prop_assert_eq!(gd.total_lookups, wd.total_lookups);
    }
    prop_assert_eq!(gp, wp);
    prop_assert_eq!(got.byte_matrix(), want.byte_matrix());
    prop_assert_eq!(got.durations(), want.durations());
    Ok(())
}

/// Closed batches (close instant + request ids) plus the final
/// served/shed/timed-out/malformed counters of a drained batcher.
type DrainResult = (Vec<(SimTime, Vec<u64>)>, u64, u64, u64, u64);

/// Run the batcher to exhaustion with a fixed per-batch service time,
/// returning the closed batches plus final counters.
fn drain(cfg: BatcherConfig, n_features: usize, reqs: Vec<Request>, service: Dur) -> DrainResult {
    let mut b = MicroBatcher::new(cfg, n_features, reqs);
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    while let Some(batch) = b.next_batch(t) {
        t = batch.close_at + service;
        out.push((
            batch.close_at,
            batch.requests.iter().map(|r| r.id).collect(),
        ));
    }
    (out, b.served(), b.shed(), b.timed_out(), b.malformed())
}

fn batcher_strategy() -> impl Strategy<Value = BatcherConfig> {
    (1usize..24, 1u64..500, 1usize..64, 1u64..4000).prop_map(
        |(max_batch, deadline_us, queue_bound, timeout_us)| BatcherConfig {
            max_batch,
            close_deadline: Dur::from_us(deadline_us),
            queue_bound,
            request_timeout: Dur::from_us(timeout_us),
        },
    )
}

proptest! {
    /// A fresh batch planned from pool runs equals the oracle for every kind
    /// of window a batcher closes: misaligned inside one canonical batch,
    /// across a canonical-batch boundary (including the wrap back to batch
    /// 0), with gaps left by shedding or timeouts, and with fewer requests
    /// than GPUs — on 2–4 GPUs (3 does not divide `N`), with a
    /// `bags_per_block` that divides neither `N·S` of the window nor, mostly,
    /// a feature's samples, so blocks straddle features.
    #[test]
    fn fresh_plans_from_pool_runs_equal_the_assembled_oracle(
        g in 2usize..5,
        kind in 0usize..4,
        a in 0usize..10_000,
        b in 0usize..10_000,
        mask in any::<u64>(),
        bpb in 2usize..40,
    ) {
        let mut cfg = EmbLayerConfig::paper_weak_scaling(g).scaled_down(512);
        (cfg.n_features, cfg.distinct_batches) = (2 * g, 2);
        let n = cfg.batch_size;
        let reqs = RequestGenerator::new(&cfg, ArrivalProcess::Poisson { rate_qps: 1e5 }, 1)
            .generate(3 * n);
        let window: Vec<Request> = match kind {
            0 => {
                let start = 1 + a % (n - g);
                reqs[start..][..g + b % (n - start - g + 1)].to_vec()
            }
            1 => {
                let boundary = if a % 2 == 0 { n } else { 2 * n };
                let start = boundary - 1 - (a / 2) % (n / 2);
                reqs[start..][..boundary - start + 1 + b % (n / 2)].to_vec()
            }
            2 => {
                let run = &reqs[a % (2 * n)..][..g + 1 + b % (n - g)];
                let mut kept: Vec<Request> = (0..run.len())
                    .filter(|&i| i == 0 || (mask >> (i % 64)) & 1 == 0)
                    .map(|i| run[i].clone())
                    .collect();
                if kept.len() == run.len() {
                    kept.remove(1);
                }
                kept
            }
            _ => reqs[a % (3 * n - g)..][..1 + b % (g - 1)].to_vec(),
        };
        let bags = cfg.n_features * window.len().max(g);
        cfg.bags_per_block = (bpb..).find(|&k| !bags.is_multiple_of(k)).unwrap_or(bpb);
        assert_window_plans_like_the_oracle(&cfg, &window)?;
    }

    /// For a fixed seed the batcher's output is bit-reproducible no matter
    /// how many OS threads run it concurrently: batching state lives
    /// entirely on the simulated clock, so wall-clock scheduling cannot
    /// leak into batch composition or close instants.
    #[test]
    fn batches_are_bit_reproducible_across_thread_counts(
        seed in any::<u32>(),
        rate_exp in 4u32..7,
        service_us in 1u64..300,
    ) {
        let cfg = workload();
        let rate = 10f64.powi(rate_exp as i32);
        let gen = RequestGenerator::new(
            &cfg, ArrivalProcess::Poisson { rate_qps: rate }, seed as u64);
        let reqs = gen.generate(300);
        let bcfg = BatcherConfig {
            max_batch: cfg.batch_size,
            close_deadline: Dur::from_us(100),
            queue_bound: 4 * cfg.batch_size,
            request_timeout: Dur::from_ms(10),
        };
        let service = Dur::from_us(service_us);
        let reference = drain(bcfg, cfg.n_features, reqs.clone(), service);
        for threads in [1usize, 2, 4] {
            let runs: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let reqs = reqs.clone();
                        s.spawn(move || drain(bcfg, cfg.n_features, reqs, service))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in runs {
                prop_assert_eq!(&r, &reference);
            }
        }
    }

    /// No served request ever waits past the request timeout, close never
    /// precedes the machine-free instant, batches respect `max_batch`, and
    /// every generated request is disposed of exactly once — for arbitrary
    /// batcher tunables, arrival rates, and service times.
    #[test]
    fn served_waits_are_bounded_and_requests_conserved(
        bcfg in batcher_strategy(),
        seed in any::<u32>(),
        rate_exp in 4u32..7,
        service_us in 1u64..300,
        n in 1usize..400,
    ) {
        let cfg = workload();
        let gen = RequestGenerator::new(
            &cfg,
            ArrivalProcess::Poisson { rate_qps: 10f64.powi(rate_exp as i32) },
            seed as u64,
        );
        let reqs = gen.generate(n);
        let arrivals: Vec<SimTime> = reqs.iter().map(|r| r.arrival).collect();
        let mut b = MicroBatcher::new(bcfg, cfg.n_features, reqs);
        let mut t = SimTime::ZERO;
        let mut served = 0u64;
        while let Some(batch) = b.next_batch(t) {
            prop_assert!(batch.close_at >= t, "close precedes machine free");
            prop_assert!(!batch.requests.is_empty());
            prop_assert!(batch.requests.len() <= bcfg.max_batch);
            for r in &batch.requests {
                prop_assert!(
                    batch.close_at <= r.arrival + bcfg.request_timeout,
                    "request {} waited past its timeout without being dropped",
                    r.id
                );
                prop_assert_eq!(arrivals[r.id as usize], r.arrival);
            }
            served += batch.requests.len() as u64;
            t = batch.close_at + Dur::from_us(service_us);
        }
        prop_assert_eq!(served, b.served());
        prop_assert_eq!(
            b.served() + b.shed() + b.timed_out() + b.malformed(),
            n as u64,
            "conservation: served {} shed {} timed_out {} malformed {}",
            b.served(), b.shed(), b.timed_out(), b.malformed()
        );
        prop_assert_eq!(b.outstanding(), 0);
    }

    /// Quantile accounting is total: empty and single-sample streams never
    /// panic, and on arbitrary streams quantiles are monotone in `q` and
    /// bracketed by min/max.
    #[test]
    fn quantiles_are_total_and_monotone(samples in prop::collection::vec(0u64..10_000_000, 0..50)) {
        let mut s = LatencyStats::new();
        for &ns in &samples {
            s.record(Dur::from_ns(ns));
        }
        // Never panics, even empty or single-sample.
        let qs = [0.0, 0.25, 0.5, 0.99, 0.999, 1.0];
        let vals: Vec<Dur> = qs.iter().map(|&q| s.quantile(q)).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone in q");
        }
        if samples.is_empty() {
            prop_assert_eq!(s.mean(), Dur::ZERO);
            prop_assert_eq!(s.p999(), Dur::ZERO);
        } else {
            let min = Dur::from_ns(*samples.iter().min().unwrap());
            let max = Dur::from_ns(*samples.iter().max().unwrap());
            prop_assert_eq!(s.quantile(0.0), min);
            prop_assert_eq!(s.quantile(1.0), max);
            prop_assert_eq!(s.max(), max);
            prop_assert!(s.mean() >= min && s.mean() <= max);
        }
    }
}
