//! The paper's headline *shapes*, asserted as integration tests at reduced
//! scale (the scale knob preserves occupancy and wave structure, so these
//! are the same regimes as the full runs in EXPERIMENTS.md).

use bench_harness::{run_pair, strong_scaling, weak_scaling};
use pgas_embedding::retrieval::EmbLayerConfig;

const SCALE: usize = 16;
const BATCHES: usize = 5;

#[test]
fn weak_scaling_matches_paper_shape() {
    let r = weak_scaling(4, SCALE, BATCHES);

    // Table I: ~2x speedup at every multi-GPU point (paper: 2.10/1.95/1.87).
    for g in 2..=4 {
        let s = r.at(g).speedup();
        assert!((1.6..=2.6).contains(&s), "weak speedup at {g} GPUs: {s}");
    }
    let gm = r.geomean_speedup();
    assert!((1.7..=2.4).contains(&gm), "weak geomean {gm}");

    // Fig 5: baseline collapses to ~0.5 at 2 GPUs then stays flat;
    // PGAS stays near ideal.
    let b2 = r.weak_factor(2, false);
    assert!((0.4..=0.62).contains(&b2), "baseline weak factor@2 {b2}");
    let b4 = r.weak_factor(4, false);
    assert!((b4 - b2).abs() < 0.1, "baseline flattens beyond 2 GPUs");
    for g in 2..=4 {
        let p = r.weak_factor(g, true);
        assert!(p > 0.9, "pgas weak factor at {g} GPUs: {p}");
    }
}

#[test]
fn weak_scaling_breakdown_trends() {
    let r = weak_scaling(4, SCALE, BATCHES);
    // Fig 6: baseline compute constant; comm decreases with GPUs;
    // sync+unpack increases with GPUs.
    let c2 = r.at(2).baseline.breakdown;
    let c3 = r.at(3).baseline.breakdown;
    let c4 = r.at(4).baseline.breakdown;
    let rel =
        |a: desim::Dur, b: desim::Dur| (a.as_secs_f64() - b.as_secs_f64()).abs() / b.as_secs_f64();
    assert!(rel(c4.compute, c2.compute) < 0.1, "compute ~constant");
    assert!(c3.communication < c2.communication, "comm decreasing");
    assert!(c4.communication < c3.communication, "comm decreasing");
    assert!(c3.sync_unpack > c2.sync_unpack, "sync+unpack increasing");
    assert!(c4.sync_unpack > c3.sync_unpack, "sync+unpack increasing");
    // PGAS hides communication: its breakdown reports none.
    assert!(r.at(4).pgas.breakdown.communication.is_zero());
}

#[test]
fn strong_scaling_matches_paper_shape() {
    let r = strong_scaling(4, SCALE, BATCHES);

    // Table II: speedups well above weak scaling's (paper: 2.95/2.55/2.44).
    for g in 2..=4 {
        let s = r.at(g).speedup();
        assert!((2.0..=4.0).contains(&s), "strong speedup at {g} GPUs: {s}");
    }

    // Fig 8: baseline *slower* than one GPU at every multi-GPU point;
    // PGAS faster than one GPU at every point.
    for g in 2..=4 {
        let b = r.strong_factor(g, false);
        assert!(b < 1.0, "baseline strong factor at {g} GPUs: {b}");
        let p = r.strong_factor(g, true);
        assert!(p > 1.0, "pgas strong factor at {g} GPUs: {p}");
    }
    // Paper: "1.6x speedup over a single GPU" for PGAS at 2 GPUs.
    let p2 = r.strong_factor(2, true);
    assert!((1.3..=1.9).contains(&p2), "pgas strong factor@2 {p2}");
    // Paper: baseline 2-GPU runtime ≈ 1.8x the single-GPU runtime.
    let b2 = 1.0 / r.strong_factor(2, false);
    assert!((1.5..=2.1).contains(&b2), "baseline slowdown@2 {b2}");
}

#[test]
fn strong_scaling_compute_plateaus() {
    // Fig 9: compute drops from 1→2 GPUs, then is latency-limited flat.
    let r = strong_scaling(4, SCALE, BATCHES);
    let c1 = r.at(1).baseline.breakdown.compute.as_secs_f64();
    let c2 = r.at(2).baseline.breakdown.compute.as_secs_f64();
    let c3 = r.at(3).baseline.breakdown.compute.as_secs_f64();
    let c4 = r.at(4).baseline.breakdown.compute.as_secs_f64();
    assert!(c2 < 0.75 * c1, "compute must drop substantially at 2 GPUs");
    assert!((c3 - c4).abs() / c3 < 0.1, "compute flat beyond 2 GPUs");
    assert!(c3 > 0.5 * c2, "plateau: 3 GPUs not much faster than 2");
}

#[test]
fn pgas_total_tracks_baseline_compute() {
    // The paper's key observation (Figs 6/9): the PGAS bar is only slightly
    // taller than the baseline's compute component.
    let r = weak_scaling(2, SCALE, BATCHES);
    let pair = r.at(2);
    let pgas = pair.pgas.total.as_secs_f64();
    let compute = pair.baseline.breakdown.compute.as_secs_f64();
    assert!(pgas >= compute, "cannot beat pure compute");
    assert!(
        pgas < 1.25 * compute,
        "pgas ({pgas}) should sit close to baseline compute ({compute})"
    );
}

#[test]
fn four_distinct_batches_give_the_speedups_of_sixteen() {
    // The paper times 100 i.i.d. batches per cell; the runs cycle through
    // `distinct_batches` = 4 of them. Cycling adds variance, not bias: each
    // of the six Table I/II speedups at 4 distinct batches is within 0.5 %
    // of its value at 16 (at half the paper's size, where the worst cell
    // moves 0.15 %; at the paper's own size 0.20 %).
    let speedups = |k: usize| -> Vec<f64> {
        let presets = [
            EmbLayerConfig::paper_weak_scaling,
            EmbLayerConfig::paper_strong_scaling,
        ];
        let cells = presets.into_iter().flat_map(|p| (2..=4).map(p));
        cells
            .map(|c| {
                let mut cfg = c.scaled_down(2);
                (cfg.n_batches, cfg.distinct_batches) = (k, k);
                run_pair(&cfg).speedup()
            })
            .collect()
    };
    let (four, sixteen) = (speedups(4), speedups(16));
    for (cell, (a, b)) in four.iter().zip(&sixteen).enumerate() {
        assert!((a / b - 1.0).abs() < 0.005, "cell {cell}: {a} vs {b}");
    }
}
