//! The §V multi-node extension: on an inter-node fabric, per-row one-sided
//! writes drown in per-message headers; the asynchronous aggregator (after
//! SC'22's "Getting CPUs out of the way"; here the gateway proxy) stages rows
//! per destination node and flushes them as single large messages on size or
//! age thresholds.
//!
//! ```sh
//! cargo run --release --example multinode_aggregator
//! ```

use pgas_embedding::desim::{Dur, SimTime};
use pgas_embedding::gpusim::{Machine, MachineConfig};
use pgas_embedding::pgas::{GatewayConfig, GatewayPut};

fn main() {
    // Two nodes, one GPU each: all traffic crosses InfiniBand.
    let rows: u64 = 50_000;
    let span = Dur::from_us(200); // rows become ready over this window

    // --- Naive: one 256 B message per row. ---
    let mut naive = Machine::new(MachineConfig::multi_node_v100(2, 1));
    let step = Dur::from_ns(span.as_ns() / rows);
    let mut naive_end = SimTime::ZERO;
    for i in 0..rows {
        let iv = naive.send(0, 1, 256, 1, SimTime::ZERO + step * i);
        naive_end = naive_end.max(iv.end);
    }

    // --- Aggregated: 64 KiB flushes, 50 µs max wait. ---
    let mut agg_m = Machine::new(MachineConfig::multi_node_v100(2, 1));
    let mut gw = GatewayPut::new(&mut agg_m, GatewayConfig::default());
    let mut agg_end = SimTime::ZERO;
    for i in 0..rows {
        let iv = gw.put_rows_nbi(0, 1, 1, 256, SimTime::ZERO + step * i);
        agg_end = agg_end.max(iv.end);
    }
    for iv in gw.drain(SimTime::ZERO + span) {
        agg_end = agg_end.max(iv.end);
    }

    let ns = naive.traffic_stats();
    let ags = agg_m.traffic_stats();
    println!("{rows} embedding rows (256 B each) over a {span} window, IB link:");
    println!(
        "  naive:      {:>10}  {:>8} messages  header overhead {:>5.1}%",
        naive_end - SimTime::ZERO,
        ns.messages,
        100.0 * ns.header_overhead()
    );
    println!(
        "  aggregated: {:>10}  {:>8} messages  header overhead {:>5.1}%",
        agg_end - SimTime::ZERO,
        ags.messages,
        100.0 * ags.header_overhead()
    );
    println!(
        "  delivery speedup {:.2}x with {:.0}x fewer messages",
        (naive_end - SimTime::ZERO).as_secs_f64() / (agg_end - SimTime::ZERO).as_secs_f64(),
        ns.messages as f64 / ags.messages as f64
    );
    assert_eq!(
        ns.payload_bytes, ags.payload_bytes,
        "same payload delivered"
    );
}
