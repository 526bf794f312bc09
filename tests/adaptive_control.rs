//! EXT-13 acceptance: the adaptive control plane's contract at the
//! workspace level.
//!
//! * The controller is *bit-deterministic* — a controlled serving run
//!   (faults, failover, shedding and all) produces identical reports under
//!   worker pools of 1 and 4 threads, across seeds (property test).
//! * Circuit breakers and the failover ladder never engage on a clean
//!   fabric, and a clean controlled run serves everything within the SLO.
//! * The micro-batcher's conservation invariant survives mid-run backend
//!   failover: every generated request is accounted for even when closed
//!   batches are requeued across a tier change.
//! * Observing a controlled run does not steer it: telemetry on or off, the
//!   controller reads the same signals and decides the same.

use bench_harness::{run_pair, scaled};
use desim::Dur;
use emb_serve::{ControlConfig, Controller, EmbServer, ServeBackendKind, ServeConfig, ServeReport};
use pgas_embedding::gpusim::{FaultPlan, FaultSpec, Machine, MachineConfig};
use pgas_embedding::retrieval::EmbLayerConfig;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

fn at_width<T>(threads: usize, f: impl Fn() -> T + Sync) -> T {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool")
        .install(f)
}

/// The test workload plus its probed per-batch service times
/// (baseline, PGAS) — every rate and fault window is expressed in service
/// times so the test never hard-codes simulated durations.
fn yardstick() -> (EmbLayerConfig, Dur, Dur) {
    let mut emb = scaled(EmbLayerConfig::paper_weak_scaling(2), 512, 1);
    emb.distinct_batches = 2;
    let pair = run_pair(&emb);
    (emb, pair.baseline.per_batch(), pair.pgas.per_batch())
}

/// A fault plan with whole-device outages lasting many service times —
/// long enough to drive the failover ladder — plus link flaps and drops.
fn storm_plan(seed: u64, svc: Dur) -> FaultPlan {
    let per_svc = 1.0 / svc.as_secs_f64();
    FaultPlan::generate(
        seed,
        2,
        FaultSpec {
            device_loss_rate: 0.2 * per_svc,
            device_loss_window: (svc * 6u64, svc * 20u64),
            flap_rate: 1.0 * per_svc,
            flap_window: (svc / 2, svc * 4u64),
            drop_prob: 0.02,
            horizon: svc * 4096u64,
            ..FaultSpec::chaos(0.5)
        },
    )
}

fn run_controlled(seed: u64, stormy: bool) -> ServeReport {
    run_observed(seed, stormy, true)
}

/// [`run_controlled`] with telemetry on or off.
fn run_observed(seed: u64, stormy: bool, telemetry: bool) -> ServeReport {
    let (emb, base_svc, pgas_svc) = yardstick();
    let slo = pgas_svc * 6u64;
    let rate = 0.7 * emb.batch_size as f64 / base_svc.as_secs_f64();
    let mut cfg = ServeConfig::new(
        emb,
        ServeBackendKind::Resilient,
        rate,
        base_svc / 2,
        800,
        seed,
    );
    cfg.batcher.request_timeout = slo * 2u64;
    cfg.slo = Some(slo);

    let mut machine = Machine::new(MachineConfig::dgx_v100(2));
    if stormy {
        machine.install_faults(storm_plan(seed, pgas_svc));
    }
    if telemetry {
        machine.enable_telemetry();
    }
    let server = EmbServer::new(cfg);
    let mut ctrl = Controller::new(
        ControlConfig::for_slo(slo, &server.config().batcher),
        &server.config().batcher,
        server.config().emb.hot_cache_rows,
    );
    server
        .run_controlled(&mut machine, &mut ctrl)
        .expect("controlled run starts")
}

fn fingerprint(r: &ServeReport) -> (u64, u64, u64, u64, u64, u64, Vec<u32>) {
    let c = r.control.expect("controlled run carries controller books");
    (
        r.served,
        r.shed,
        r.timed_out,
        r.served_within_slo,
        r.slo_viol_time.as_ns(),
        r.latency.p99().as_ns(),
        vec![c.failovers, c.failbacks, c.breaker_trips, c.shed_changes],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Controller bit-determinism: identical reports at 1 and 4 workers.
    #[test]
    fn controlled_runs_are_bit_deterministic_across_widths(seed in 0u64..64) {
        let one = at_width(1, || run_controlled(seed, true));
        let four = at_width(4, || run_controlled(seed, true));
        prop_assert_eq!(fingerprint(&one), fingerprint(&four));
        prop_assert_eq!(one.generated, four.generated);
        prop_assert_eq!(one.batches, four.batches);
    }
}

#[test]
fn breakers_and_ladder_never_engage_on_clean_fabric() {
    let rep = run_controlled(42, false);
    let c = rep.control.expect("controller books");
    assert_eq!(c.breaker_trips, 0, "no breaker may trip on a clean fabric");
    assert_eq!(c.failovers, 0, "no failover on a clean fabric");
    assert_eq!(c.probes, 0, "half-open probes imply a trip");
    assert_eq!(rep.served, rep.generated, "clean fabric serves everything");
    assert_eq!(
        rep.served_within_slo, rep.served,
        "clean controlled serving meets the SLO"
    );
}

#[test]
fn conservation_holds_across_mid_run_failover() {
    let mut hit = false;
    for seed in 0..32u64 {
        let rep = run_controlled(seed, true);
        assert_eq!(
            rep.generated,
            rep.served + rep.shed + rep.timed_out + rep.malformed,
            "conservation must hold (seed {seed})"
        );
        let c = rep.control.expect("controller books");
        if c.failovers > 0 {
            hit = true;
            // A failover requeues the closed batch; the books above prove
            // nothing was double-counted or dropped across the switch.
            break;
        }
    }
    assert!(hit, "no seed in 0..32 produced a mid-run failover");
}

#[test]
fn telemetry_does_not_steer_a_stormy_controlled_run() {
    let mut retried = false;
    for seed in 0..4u64 {
        let on = run_observed(seed, true, true);
        let off = run_observed(seed, true, false);
        assert_eq!(fingerprint(&on), fingerprint(&off), "seed {seed}");
        assert_eq!(format!("{:?}", on.control), format!("{:?}", off.control));
        retried |= on.resilience.is_some_and(|r| r.retries > 0);
    }
    assert!(retried, "no storm made the controller see a retry");
}
