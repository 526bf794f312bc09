//! Integration tests of the §V extension experiments: their *shape*
//! assertions at reduced scale.

use bench_harness::{
    backward_comparison, message_size_ablation, sharding_ablation, whatif_projection, zipf_ablation,
};
use desim::{Dur, SimTime};
use pgas_embedding::gpusim::{Faults, Machine, MachineConfig};
use pgas_embedding::pgas::{coalesce_rows, GatewayConfig, GatewayPut, OneSided};

const SCALE: usize = 32;
const BATCHES: usize = 3;

#[test]
fn backward_speedup_grows_with_gpus() {
    // The baseline's ring rounds and per-round syncs scale with G; the
    // PGAS atomic path stays nearly flat.
    let mut last = 1.0;
    for g in 2..=4 {
        let p = backward_comparison(g, SCALE, BATCHES);
        let s = p.speedup();
        assert!(s > 1.0, "pgas backward must win at {g} GPUs (got {s})");
        assert!(
            s > last * 0.95,
            "speedup should grow with G: {s} after {last}"
        );
        last = s;
    }
}

/// `rows` 256 B rows from GPU 0 to GPU 1 of a 2×1 pod, ready evenly over
/// `span`, as flat one-sided puts and through the §V aggregator (the
/// gateway proxy; GPU 1 is its node's gateway, so a flush is the whole
/// delivery): each scheme's last delivery and its message count.
fn flat_and_aggregated(rows: u64, span: Dur) -> [(SimTime, u64); 2] {
    let step = Dur::from_ns(span.as_ns() / rows);
    let ready = |i: u64| SimTime::ZERO + step * i;
    let mut flat_m = Machine::new(MachineConfig::pod_v100(2, 1));
    let mut flat = OneSided::new(&mut flat_m);
    let mut flat_end = SimTime::ZERO;
    for i in 0..rows {
        let put = flat.put(0, 1, coalesce_rows(1, 256, 256), ready(i), Faults::Ignore);
        flat_end = flat_end.max(put.expect("an ignored fault plan books").interval.end);
    }
    let mut agg_m = Machine::new(MachineConfig::pod_v100(2, 1));
    let mut gw = GatewayPut::new(&mut agg_m, GatewayConfig::default());
    let mut agg_end = SimTime::ZERO;
    for i in 0..rows {
        agg_end = agg_end.max(gw.put_rows_nbi(0, 1, 1, 256, ready(i)).end);
    }
    for iv in gw.drain(ready(rows)) {
        agg_end = agg_end.max(iv.end);
    }
    [
        (flat_end, flat_m.traffic_stats().messages),
        (agg_end, agg_m.traffic_stats().messages),
    ]
}

#[test]
fn aggregator_trades_latency_for_bandwidth() {
    // 20 k rows in 100 µs saturate the NIC with per-row messages; 64 KiB
    // aggregates amortize the per-message cost.
    let [(flat, flat_msgs), (agg, agg_msgs)] = flat_and_aggregated(20_000, Dur::from_us(100));
    assert!(agg < flat, "aggregated {agg} vs flat {flat}");
    assert!(agg_msgs * 10 <= flat_msgs, "{agg_msgs} vs {flat_msgs}");
    // 100 rows 100 µs apart leave the link idle: every row ages out alone
    // (the 50 µs timer fires before the next one), so aggregation saves no
    // message and only delays delivery.
    let [(flat, flat_msgs), (agg, agg_msgs)] = flat_and_aggregated(100, Dur::from_ms(10));
    assert!(agg >= flat, "aggregated {agg} vs flat {flat}");
    assert_eq!((agg_msgs, flat_msgs), (100, 100));
}

#[test]
fn smaller_payloads_cost_more_headers() {
    let points = message_size_ablation(2, SCALE, BATCHES);
    assert_eq!(points.len(), 5);
    // Header overhead strictly decreases until the payload reaches the row
    // size (256 B for d = 64), then is flat.
    assert!(points[0].header_overhead > points[1].header_overhead);
    assert!(points[1].header_overhead > points[2].header_overhead);
    assert!((points[2].header_overhead - points[4].header_overhead).abs() < 1e-9);
    // Runtime is never *better* with tiny payloads.
    assert!(points[0].total >= points[2].total);
}

#[test]
fn row_wise_sharding_costs_more_everywhere_but_pgas_still_wins() {
    let a = sharding_ablation(2, SCALE, BATCHES);
    assert!(
        a.row_wise_cpu > a.table_wise_cpu,
        "per-index routing is dearer"
    );
    assert!(
        a.row_wise.baseline.total > a.table_wise.baseline.total,
        "partial-row exchange moves more data"
    );
    assert!(a.table_wise.speedup() > 1.0);
    assert!(a.row_wise.speedup() > 1.0);
}

#[test]
fn zipf_skew_speeds_up_compute_and_widens_the_gap() {
    let (uniform, skewed) = zipf_ablation(2, SCALE, BATCHES);
    // Hot rows hit in L2: both backends get faster.
    assert!(skewed.baseline.total < uniform.baseline.total);
    assert!(skewed.pgas.total < uniform.pgas.total);
    // With less compute to hide behind, the baseline becomes even more
    // communication-bound, so the PGAS advantage grows.
    assert!(skewed.speedup() > uniform.speedup());
}

#[test]
fn whatif_pgas_wins_everywhere() {
    for (name, p) in whatif_projection(8, SCALE, BATCHES) {
        assert!(p.speedup() > 1.5, "{name}: speedup {}", p.speedup());
    }
}
