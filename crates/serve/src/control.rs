//! Telemetry-driven adaptive control plane for the serving loop (EXT-13).
//!
//! The open-loop experiments so far were *static*: whatever policy a run
//! started with, it kept, no matter what the fabric or the traffic did. A
//! production serving tier closes the loop — it watches the EXT-10 signals
//! (queue depth, batch latency, retry counters, per-link fault state) and
//! adjusts itself every tick. The [`Controller`] here does exactly that,
//! deterministically: one [`Controller::tick`] per closed batch, every
//! decision a pure function of the simulated clock and the signals fed in,
//! so a fixed seed gives a bit-identical control trajectory at any thread
//! width.
//!
//! Knobs the controller drives:
//!
//! * **Failover ladder** — [`Tier::Pgas`] → [`Tier::Resilient`] →
//!   [`Tier::Baseline`], stepping down after a configured number of
//!   consecutive unhealthy ticks and stepping back up after a healthy
//!   window (`FAILOVER_AFTER` / `FAILBACK_AFTER` ticks).
//! * **Per-link circuit breakers** — a directed link that flaps
//!   `BREAKER_FLAPS` times within a tick window (or is observed hard-down)
//!   trips its breaker open; after `BREAKER_COOLDOWN_TICKS` the breaker
//!   goes half-open and a probe tick decides whether to close it or
//!   re-trip.
//! * **Dynamic micro-batch deadline** — halves toward a quarter of the
//!   batcher's starting deadline while observed worst-case batch latency
//!   breaches the SLO, doubles back toward four times it once the fabric
//!   is healthy and latency has headroom. The SLO is the server's
//!   (`ServeConfig::slo`), passed to every [`Controller::tick`].
//! * **Graduated load shedding** — the admission queue bound steps through
//!   4×/2×/1× `max_batch` as severity rises (one level per tick, so a
//!   single noisy tick cannot slam the queue shut).
//! * **Online hot-cache resizing** — when the measured hot-set hit
//!   fraction drifts past grow/shrink thresholds, the replica cache doubles
//!   or halves (healthy fabric only; resizing mid-incident would churn).
//!
//! The tunables are the constants below; the controller has no settable
//! knob beyond its starting point (the batcher config and the hot-cache
//! size) and the SLO.
//!
//! On a clean fabric the controller is a strict no-op: breakers never
//! trip, the tier stays [`Tier::Pgas`], and the serving path is
//! bit-identical to the uncontrolled PGAS server (the never-costs
//! invariant, locked by tests).

use desim::{Dur, SimTime};
use gpusim::{LinkState, Machine};

use crate::batcher::BatcherConfig;

/// Execution tier of the failover ladder, healthiest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Full-speed PGAS fused path (clean-fabric behavior).
    Pgas,
    /// PGAS with per-batch deadline + degradation fill.
    Resilient,
    /// Baseline collective path — bulk transfers amortize per-message
    /// fault exposure.
    Baseline,
}

impl Tier {
    /// One step toward the safer tier.
    fn down(self) -> Tier {
        match self {
            Tier::Pgas => Tier::Resilient,
            _ => Tier::Baseline,
        }
    }

    /// One step toward the faster tier.
    fn up(self) -> Tier {
        match self {
            Tier::Baseline => Tier::Resilient,
            _ => Tier::Pgas,
        }
    }

    /// Short name for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Pgas => "pgas",
            Tier::Resilient => "resilient",
            Tier::Baseline => "baseline",
        }
    }
}

/// Per-directed-link circuit breaker state.
#[derive(Clone, Copy, Debug)]
enum Breaker {
    /// Healthy: remembers the link's flap count when it (re)closed, so a
    /// trip needs *new* flaps, not history.
    Closed { flap_baseline: usize },
    /// Tripped: wait out the cooldown.
    Open { remaining: u32 },
    /// Cooldown elapsed: next tick probes the link.
    HalfOpen,
}

/// New flaps within one tick window that trip a link's breaker.
const BREAKER_FLAPS: usize = 2;
/// Ticks a tripped breaker stays open before going half-open.
const BREAKER_COOLDOWN_TICKS: u32 = 8;
/// Consecutive unhealthy ticks before stepping the ladder down.
const FAILOVER_AFTER: u32 = 2;
/// Consecutive healthy ticks before stepping the ladder back up.
const FAILBACK_AFTER: u32 = 16;
/// Put retries within one tick window that count as a retry storm.
const RETRY_STORM: u64 = 64;
/// Grow the hot cache when the measured hit fraction reaches this.
const CACHE_GROW_HIT: f64 = 0.45;
/// Shrink the hot cache when the measured hit fraction falls to this.
const CACHE_SHRINK_HIT: f64 = 0.15;
/// Hard ceiling on hot-cache rows per remote table.
const MAX_CACHE_ROWS: u64 = 1 << 20;

/// What the controller saw this tick (assembled by the serving loop from
/// the same quantities the EXT-10 metrics export).
#[derive(Clone, Copy, Debug, Default)]
pub struct TickSignals {
    /// Admitted requests waiting in the queue right now.
    pub queued: usize,
    /// Worst end-to-end request latency completed since the last tick
    /// ([`Dur::ZERO`] if nothing completed).
    pub worst_latency: Dur,
    /// One-sided put retries since the last tick.
    pub retries_delta: u64,
    /// Puts that exhausted their retry budget since the last tick.
    pub exhausted_delta: u64,
    /// Measured hot-set hit fraction of the most recent planned batch
    /// (`None` when the workload runs uncached).
    pub measured_hit: Option<f64>,
}

/// The policy the serving loop should apply from this tick on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Which rung of the failover ladder executes batches.
    pub tier: Tier,
    /// Micro-batch close deadline.
    pub close_deadline: Dur,
    /// Admission queue bound.
    pub queue_bound: usize,
    /// Hot-cache rows per remote table (0 = cache off).
    pub hot_cache_rows: u64,
}

/// What the controller did across a run (or several phases of one).
#[derive(Clone, Copy, Debug, Default)]
pub struct ControlReport {
    /// Ticks evaluated.
    pub ticks: u64,
    /// Ladder steps toward safer tiers.
    pub failovers: u32,
    /// Ladder steps back toward faster tiers.
    pub failbacks: u32,
    /// Circuit-breaker trips (including half-open re-trips).
    pub breaker_trips: u32,
    /// Half-open probe ticks evaluated.
    pub probes: u32,
    /// Micro-batch deadline adjustments.
    pub deadline_changes: u32,
    /// Shed-level transitions.
    pub shed_changes: u32,
    /// Hot-cache grow/shrink actions.
    pub cache_resizes: u32,
}

/// The per-tick adaptive controller. Construct once and thread through
/// every phase of a scenario via [`crate::EmbServer::run_controlled`] —
/// breaker cooldowns and ladder counters are tick-based, so state survives
/// phase boundaries without referencing absolute time.
#[derive(Clone, Debug)]
pub struct Controller {
    /// Floor and ceiling of the dynamic micro-batch close deadline.
    min_deadline: Dur,
    max_deadline: Dur,
    /// Admission queue bound at shed level 0 (level 1 halves it, level 2
    /// quarters it).
    base_queue_bound: usize,
    /// Directed-link breakers, `src * n + dst` (diagonal unused).
    breakers: Vec<Breaker>,
    n: usize,
    tier: Tier,
    unhealthy_ticks: u32,
    healthy_ticks: u32,
    deadline: Dur,
    shed_level: u8,
    cache_rows: u64,
    report: ControlReport,
}

impl Controller {
    /// A controller starting from the batcher's configured deadline and
    /// queue bound and the workload's configured hot-cache size. The
    /// deadline moves within a quarter to four times its starting value.
    pub fn new(batcher: &BatcherConfig, hot_cache_rows: u64) -> Self {
        Controller {
            min_deadline: batcher.close_deadline / 4,
            max_deadline: batcher.close_deadline * 4,
            base_queue_bound: batcher.queue_bound,
            breakers: Vec::new(),
            n: 0,
            tier: Tier::Pgas,
            unhealthy_ticks: 0,
            healthy_ticks: 0,
            deadline: batcher.close_deadline,
            shed_level: 0,
            cache_rows: hot_cache_rows,
            report: ControlReport::default(),
        }
    }

    /// Current rung of the failover ladder.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Everything the controller has done so far.
    pub fn report(&self) -> ControlReport {
        self.report
    }

    /// The policy currently in force (without evaluating a tick).
    pub fn decision(&self) -> Decision {
        Decision {
            tier: self.tier,
            close_deadline: self.deadline,
            queue_bound: (self.base_queue_bound >> self.shed_level).max(1),
            hot_cache_rows: self.cache_rows,
        }
    }

    /// Evaluate one control tick at simulated instant `now` against the
    /// per-request latency `slo` and return the policy to apply.
    /// Deterministic: depends only on the fault plan installed on
    /// `machine`, the SLO, the signals, and the controller's own state.
    pub fn tick(
        &mut self,
        machine: &Machine,
        now: SimTime,
        slo: Dur,
        sig: &TickSignals,
    ) -> Decision {
        self.report.ticks += 1;
        let n = machine.n_gpus();
        if self.n != n {
            self.n = n;
            self.breakers = vec![Breaker::Closed { flap_baseline: 0 }; n * n];
        }

        let (device_lost, any_open) = self.probe_fabric(machine, now);
        let storm = sig.retries_delta >= RETRY_STORM || sig.exhausted_delta > 0;
        let healthy = !device_lost && !any_open && !storm;

        // Failover ladder: consecutive-tick counters, reset on every
        // transition so each step is earned independently.
        if healthy {
            self.unhealthy_ticks = 0;
            self.healthy_ticks += 1;
            if self.healthy_ticks >= FAILBACK_AFTER && self.tier != Tier::Pgas {
                self.tier = self.tier.up();
                self.report.failbacks += 1;
                self.healthy_ticks = 0;
            }
        } else {
            self.healthy_ticks = 0;
            self.unhealthy_ticks += 1;
            if self.unhealthy_ticks >= FAILOVER_AFTER && self.tier != Tier::Baseline {
                self.tier = self.tier.down();
                self.report.failovers += 1;
                self.unhealthy_ticks = 0;
            }
        }

        // Dynamic micro-batch deadline: tighten while the worst observed
        // latency breaches the SLO, relax once there is ample headroom.
        if sig.worst_latency > slo {
            let next = (self.deadline / 2).max(self.min_deadline);
            if next != self.deadline {
                self.deadline = next;
                self.report.deadline_changes += 1;
            }
        } else if healthy && sig.worst_latency > Dur::ZERO && sig.worst_latency < slo / 2 {
            let next = (self.deadline * 2).min(self.max_deadline);
            if next != self.deadline {
                self.deadline = next;
                self.report.deadline_changes += 1;
            }
        }

        // Graduated shedding: desired severity from health + backlog,
        // moved one level per tick.
        let backlog = sig.queued;
        let want: u8 = if (!healthy && backlog >= self.base_queue_bound / 2) || device_lost {
            2
        } else if !healthy || backlog >= self.base_queue_bound / 2 {
            1
        } else {
            0
        };
        if want != self.shed_level {
            self.shed_level = if want > self.shed_level {
                self.shed_level + 1
            } else {
                self.shed_level - 1
            };
            self.report.shed_changes += 1;
        }

        // Online hot-cache resizing, healthy fabric only (resizing during
        // an incident would churn the replicas exactly when they are
        // serving lost shards).
        if healthy && self.cache_rows > 0 {
            if let Some(hit) = sig.measured_hit {
                if hit >= CACHE_GROW_HIT && self.cache_rows * 2 <= MAX_CACHE_ROWS {
                    self.cache_rows *= 2;
                    self.report.cache_resizes += 1;
                } else if hit <= CACHE_SHRINK_HIT && self.cache_rows >= 2 {
                    self.cache_rows /= 2;
                    self.report.cache_resizes += 1;
                }
            }
        }

        self.decision()
    }

    /// Update every breaker from the fabric's state at `now`; returns
    /// (any device lost, any breaker not closed).
    fn probe_fabric(&mut self, machine: &Machine, now: SimTime) -> (bool, bool) {
        let n = self.n;
        let mut device_lost = false;
        let mut any_open = false;
        let Some(fp) = machine.faults().filter(|p| !p.is_trivial()) else {
            // Clean fabric: breakers hold their (closed) state and the
            // controller never pays for resilience it does not need.
            return (false, false);
        };
        for d in 0..n {
            if fp.device_down_until(d, now).is_some() {
                device_lost = true;
            }
        }
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let idx = s * n + d;
                let down = matches!(fp.link_state(s, d, now), LinkState::Down { .. });
                let flaps = fp.flap_count(s, d, now);
                self.breakers[idx] = match self.breakers[idx] {
                    Breaker::Closed { flap_baseline } => {
                        if down || flaps.saturating_sub(flap_baseline) >= BREAKER_FLAPS {
                            self.report.breaker_trips += 1;
                            Breaker::Open {
                                remaining: BREAKER_COOLDOWN_TICKS,
                            }
                        } else {
                            Breaker::Closed { flap_baseline }
                        }
                    }
                    Breaker::Open { remaining } => {
                        if remaining > 1 {
                            Breaker::Open {
                                remaining: remaining - 1,
                            }
                        } else {
                            Breaker::HalfOpen
                        }
                    }
                    Breaker::HalfOpen => {
                        self.report.probes += 1;
                        if down {
                            self.report.breaker_trips += 1;
                            Breaker::Open {
                                remaining: BREAKER_COOLDOWN_TICKS,
                            }
                        } else {
                            // Probe succeeded: close with a fresh flap
                            // baseline so only *new* flaps re-trip.
                            Breaker::Closed {
                                flap_baseline: flaps,
                            }
                        }
                    }
                };
                if !matches!(self.breakers[idx], Breaker::Closed { .. }) {
                    any_open = true;
                }
            }
        }
        (device_lost, any_open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{FaultPlan, FaultSpec, MachineConfig};

    fn base_batcher() -> BatcherConfig {
        BatcherConfig {
            max_batch: 64,
            close_deadline: Dur::from_us(200),
            queue_bound: 256,
            request_timeout: Dur::from_ms(2),
        }
    }

    /// The SLO the unit tests steer against.
    const SLO: Dur = Dur::from_ms(1);

    fn ctl() -> Controller {
        Controller::new(&base_batcher(), 0)
    }

    #[test]
    fn clean_fabric_never_trips_or_fails_over() {
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let mut c = ctl();
        let mut t = SimTime::ZERO;
        for _ in 0..200 {
            let d = c.tick(&m, t, SLO, &TickSignals::default());
            assert_eq!(d.tier, Tier::Pgas);
            t += Dur::from_us(100);
        }
        let r = c.report();
        assert_eq!(r.breaker_trips, 0);
        assert_eq!(r.failovers, 0);
        assert_eq!(r.probes, 0);
    }

    #[test]
    fn hard_down_links_trip_failover_then_recover() {
        let spec = FaultSpec {
            flap_rate: 2_000.0,
            flap_window: (Dur::from_ms(5), Dur::from_ms(20)),
            horizon: Dur::from_ms(60),
            ..FaultSpec::none()
        };
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        m.install_faults(FaultPlan::generate(3, 2, spec));
        let mut c = ctl();
        let mut t = SimTime::ZERO;
        for _ in 0..400 {
            c.tick(&m, t, SLO, &TickSignals::default());
            t += Dur::from_us(500);
        }
        let r = c.report();
        assert!(r.breaker_trips > 0, "down windows must trip breakers");
        assert!(r.failovers > 0, "sustained trouble must step the ladder");
        // Well past the 60 ms horizon the fabric is clean again: the
        // ladder must have climbed back to PGAS.
        assert!(r.failbacks > 0, "healthy window must fail back");
        assert_eq!(c.tier(), Tier::Pgas);
    }

    #[test]
    fn retry_storm_alone_is_unhealthy() {
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let mut c = ctl();
        let storm = TickSignals {
            retries_delta: 1_000,
            ..TickSignals::default()
        };
        let mut t = SimTime::ZERO;
        for _ in 0..2 {
            c.tick(&m, t, SLO, &storm);
            t += Dur::from_us(100);
        }
        assert_eq!(c.tier(), Tier::Resilient, "storm steps down one rung");
        assert_eq!(c.report().breaker_trips, 0, "no link state, no trips");
        // Two more storm ticks earn the next rung independently.
        for _ in 0..2 {
            c.tick(&m, t, SLO, &storm);
            t += Dur::from_us(100);
        }
        assert_eq!(c.tier(), Tier::Baseline);
    }

    #[test]
    fn deadline_halves_under_breach_and_recovers() {
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let mut c = ctl();
        let d0 = c.decision().close_deadline;
        let breach = TickSignals {
            worst_latency: SLO * 4,
            ..TickSignals::default()
        };
        let d1 = c.tick(&m, SimTime::ZERO, SLO, &breach).close_deadline;
        assert_eq!(d1, d0 / 2);
        // Floor is respected.
        let mut t = SimTime::ZERO;
        for _ in 0..16 {
            t += Dur::from_us(100);
            c.tick(&m, t, SLO, &breach);
        }
        assert_eq!(c.decision().close_deadline, d0 / 4);
        // Healthy + headroom doubles back up to the ceiling.
        let calm = TickSignals {
            worst_latency: SLO / 8,
            ..TickSignals::default()
        };
        for _ in 0..16 {
            t += Dur::from_us(100);
            c.tick(&m, t, SLO, &calm);
        }
        assert_eq!(c.decision().close_deadline, d0 * 4);
        assert!(c.report().deadline_changes > 0);
    }

    #[test]
    fn shedding_moves_one_level_per_tick() {
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let mut c = ctl();
        let q0 = c.decision().queue_bound;
        // Deep backlog plus a retry storm: worst severity, but the bound
        // steps down gradually.
        let bad = TickSignals {
            queued: q0,
            retries_delta: 1_000_000,
            ..TickSignals::default()
        };
        let d1 = c.tick(&m, SimTime::ZERO, SLO, &bad);
        assert_eq!(d1.queue_bound, q0 / 2);
        let d2 = c.tick(&m, SimTime::ZERO + Dur::from_us(100), SLO, &bad);
        assert_eq!(d2.queue_bound, q0 / 4);
        // Recovery walks back up one level at a time.
        let calm = TickSignals::default();
        let d3 = c.tick(&m, SimTime::ZERO + Dur::from_us(200), SLO, &calm);
        assert_eq!(d3.queue_bound, q0 / 2);
        let d4 = c.tick(&m, SimTime::ZERO + Dur::from_us(300), SLO, &calm);
        assert_eq!(d4.queue_bound, q0);
    }

    #[test]
    fn cache_resizes_track_measured_hit() {
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let mut c = Controller::new(&base_batcher(), 1024);
        let hot = TickSignals {
            measured_hit: Some(0.6),
            ..TickSignals::default()
        };
        assert_eq!(c.tick(&m, SimTime::ZERO, SLO, &hot).hot_cache_rows, 2048);
        let cold = TickSignals {
            measured_hit: Some(0.05),
            ..TickSignals::default()
        };
        let mut t = SimTime::ZERO;
        for _ in 0..2 {
            t += Dur::from_us(100);
            c.tick(&m, t, SLO, &cold);
        }
        assert_eq!(c.decision().hot_cache_rows, 512);
        assert_eq!(c.report().cache_resizes, 3);
    }
}
