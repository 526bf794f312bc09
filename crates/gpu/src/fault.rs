//! Seeded fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] is generated up front from a `u64` seed and a
//! [`FaultSpec`], then installed on a [`crate::Machine`]. It perturbs the
//! simulation in four ways, mirroring the failure modes a real NVLink/IB
//! fabric exhibits under load:
//!
//! * **bandwidth-degradation windows** — per directed link, intervals during
//!   which the link runs at a fraction of its nominal bandwidth (thermal
//!   throttling, congestion from co-tenants);
//! * **link flaps** — intervals during which a directed link is down
//!   entirely; sends attempted inside one fail with
//!   [`FabricError::LinkDown`] and report when the link comes back;
//! * **per-message transient faults** — each message independently may be
//!   dropped (wire time is consumed, then [`FabricError::MessageDropped`] is
//!   returned, as a CRC-failed packet would) or delayed by a sampled jitter;
//! * **stragglers** — per-GPU slowdown factors applied to kernel block
//!   times (clock throttling, ECC scrubbing, noisy neighbours).
//!
//! Everything is derived deterministically from the seed: window placement
//! uses one `rand::rngs::StdRng` stream per directed link, per-message
//! sampling uses one stream per directed link advanced once per message, and
//! straggler factors use a per-GPU stream. Two runs with the same seed and
//! the same call sequence therefore inject bit-identical faults.
//!
//! A plan whose spec is all zeros ([`FaultSpec::none`]) is *trivial*: the
//! machine bypasses every fault code path and timing is bit-identical to a
//! run with no plan installed.

use desim::{Dur, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Errors surfaced by the fabric and the layers above it. This is the shared
/// taxonomy: `pgas-rt` and `simccl` re-export it so retries and failover
/// speak the same language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// The directed link was down when the send was attempted. `up_at` is
    /// when the current down window ends (callers back off until then).
    LinkDown {
        /// Source GPU of the attempted send.
        src: usize,
        /// Destination GPU of the attempted send.
        dst: usize,
        /// When the send was attempted.
        at: SimTime,
        /// When the link comes back up.
        up_at: SimTime,
    },
    /// A message was transmitted but lost in flight (transient; retryable).
    /// `at` is when the loss was detected — wire time was already consumed.
    MessageDropped {
        /// Source GPU.
        src: usize,
        /// Destination GPU.
        dst: usize,
        /// Detection time (end of the wasted wire interval).
        at: SimTime,
    },
    /// A retry loop gave up. Wraps the error from the final attempt.
    RetryExhausted {
        /// How many attempts were made.
        attempts: u32,
        /// The error the last attempt failed with.
        last: Box<FabricError>,
    },
    /// The whole device (and the embedding shard it owns) is unavailable:
    /// ECC double-bit error, Xid reset, host kernel panic. Unlike a link
    /// flap this is not cleared by retrying a message — the shard's rows
    /// are gone until `up_at`, and resilient callers serve them from
    /// hot-cache replicas or the degradation fill in the meantime.
    DeviceLost {
        /// The lost GPU.
        dev: usize,
        /// When the loss was observed.
        at: SimTime,
        /// When the device (and its shard) comes back.
        up_at: SimTime,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::LinkDown {
                src,
                dst,
                at,
                up_at,
            } => {
                write!(f, "link {src}->{dst} down at {at:?} (up at {up_at:?})")
            }
            FabricError::MessageDropped { src, dst, at } => {
                write!(f, "message {src}->{dst} dropped at {at:?}")
            }
            FabricError::RetryExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            FabricError::DeviceLost { dev, at, up_at } => {
                write!(f, "device {dev} lost at {at:?} (recovers at {up_at:?})")
            }
        }
    }
}

impl std::error::Error for FabricError {}

impl FabricError {
    /// The simulation time at which the failure became observable — the
    /// earliest instant a retry could be scheduled.
    pub fn observed_at(&self) -> SimTime {
        match self {
            FabricError::LinkDown { at, .. } => *at,
            FabricError::MessageDropped { at, .. } => *at,
            FabricError::RetryExhausted { last, .. } => last.observed_at(),
            FabricError::DeviceLost { at, .. } => *at,
        }
    }

    /// True for faults a bounded retry can reasonably clear (transient drops
    /// and down windows with a known end); false for device loss (a dead
    /// shard is a failover problem, not a retry one).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            FabricError::LinkDown { .. } | FabricError::MessageDropped { .. }
        )
    }
}

/// How a transfer meets the machine's fault plan: every layer that reaches
/// the wire takes one and passes it down to [`crate::Machine::transmit`].
/// Without an active plan all three book the transfer on its first attempt.
#[derive(Clone, Copy, Debug)]
pub enum Faults {
    /// Book the transfer whatever the plan says: fault-blind by design
    /// (the gateway proxy, the fault-blind collective).
    Ignore,
    /// One attempt, which errs on a down link or a dropped message.
    Once,
    /// Retry down links and dropped messages with capped exponential
    /// backoff (five attempts; 5 µs doubling to at most 80 µs between
    /// them); err with [`FabricError::RetryExhausted`] once they are spent.
    Retry,
}

/// Total attempts of a [`Faults::Retry`] transfer, the first included.
pub(crate) const RETRY_ATTEMPTS: u32 = 5;
/// Backoff before the first retry.
const BASE_BACKOFF: Dur = Dur::from_us(5);
/// Backoff ceiling (the exponential doubling stops here).
const MAX_BACKOFF: Dur = Dur::from_us(80);

/// Backoff before retry number `retry` (1-based): `BASE_BACKOFF *
/// 2^(retry-1)`, capped at `MAX_BACKOFF`. All delays are simulated time, so
/// retry schedules are fully deterministic.
fn backoff(retry: u32) -> Dur {
    let mut b = BASE_BACKOFF;
    for _ in 1..retry {
        if b >= MAX_BACKOFF {
            break;
        }
        b = (b * 2).min(MAX_BACKOFF);
    }
    b.min(MAX_BACKOFF)
}

/// Earliest instant retry number `retry` may be attempted after failing
/// with `err`: past a down window's end when known, plus the capped backoff.
pub(crate) fn next_attempt_at(err: &FabricError, retry: u32) -> SimTime {
    let floor = match err {
        FabricError::LinkDown { up_at, .. } => *up_at,
        other => other.observed_at(),
    };
    floor + backoff(retry)
}

/// Generation parameters for a [`FaultPlan`]. Rates are per link (or per
/// GPU) per *second of simulated time*; windows are placed over
/// `[0, horizon)`.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Expected bandwidth-degradation windows per directed link per second.
    pub degrade_rate: f64,
    /// Degradation window length bounds.
    pub degrade_window: (Dur, Dur),
    /// Bandwidth multiplier sampled per degradation window, in `(0, 1]`.
    pub degrade_factor: (f64, f64),
    /// Expected down windows (flaps) per directed link per second.
    pub flap_rate: f64,
    /// Down-window length bounds.
    pub flap_window: (Dur, Dur),
    /// Probability each message is dropped in flight.
    pub drop_prob: f64,
    /// Probability each message is delayed by sampled jitter.
    pub delay_prob: f64,
    /// Jitter bounds for delayed messages.
    pub delay: (Dur, Dur),
    /// Probability each GPU is a straggler.
    pub straggler_prob: f64,
    /// Slowdown factor bounds for straggler GPUs (`>= 1`).
    pub straggler_factor: (f64, f64),
    /// Expected whole-device outages per GPU per second. During an outage
    /// window the device (and the embedding shard it owns) is unavailable;
    /// queries see it via [`FaultPlan::device_down_until`] and fallible
    /// callers get [`FabricError::DeviceLost`]. Sampled from its own
    /// substream namespace, so enabling device loss never perturbs the
    /// link-window, message or straggler sequences of an otherwise equal
    /// spec.
    pub device_loss_rate: f64,
    /// Outage window length bounds.
    pub device_loss_window: (Dur, Dur),
    /// Span over which windows are placed. Queries past the horizon see a
    /// healthy fabric.
    pub horizon: Dur,
}

impl FaultSpec {
    /// The all-zero spec: a plan generated from it is trivial and the
    /// machine bypasses fault handling entirely.
    pub fn none() -> Self {
        FaultSpec {
            degrade_rate: 0.0,
            degrade_window: (Dur::ZERO, Dur::ZERO),
            degrade_factor: (1.0, 1.0),
            flap_rate: 0.0,
            flap_window: (Dur::ZERO, Dur::ZERO),
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: (Dur::ZERO, Dur::ZERO),
            straggler_prob: 0.0,
            straggler_factor: (1.0, 1.0),
            device_loss_rate: 0.0,
            device_loss_window: (Dur::ZERO, Dur::ZERO),
            horizon: Dur::ZERO,
        }
    }

    /// The canonical chaos profile used by `reproduce chaos`, scaled by an
    /// `intensity` knob in `[0, 1]`. Intensity 0 returns [`FaultSpec::none`]
    /// exactly (strict no-op); intensity 1 is a severely misbehaving fabric.
    pub fn chaos(intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "chaos intensity {intensity} out of [0, 1]"
        );
        if intensity == 0.0 {
            return FaultSpec::none();
        }
        FaultSpec {
            degrade_rate: 400.0 * intensity,
            degrade_window: (Dur::from_us(20), Dur::from_us(200)),
            degrade_factor: (0.25, 0.9),
            flap_rate: 150.0 * intensity,
            flap_window: (Dur::from_us(30), Dur::from_us(300)),
            drop_prob: 0.02 * intensity,
            delay_prob: 0.05 * intensity,
            delay: (Dur::from_us(2), Dur::from_us(20)),
            straggler_prob: 0.25 * intensity,
            straggler_factor: (1.05, 1.0 + 0.5 * intensity),
            device_loss_rate: 0.0,
            device_loss_window: (Dur::ZERO, Dur::ZERO),
            horizon: Dur::from_ms(200),
        }
    }

    /// The fault-storm profile the adaptive-control scenario suite uses:
    /// the [`FaultSpec::chaos`] link/message/straggler mix plus whole-device
    /// outages. Because device-loss windows come from their own substream
    /// namespace, `storm(i)` injects the *same* link faults as `chaos(i)` —
    /// the storm is strictly chaos plus shard loss.
    pub fn storm(intensity: f64) -> Self {
        let mut s = FaultSpec::chaos(intensity);
        if intensity > 0.0 {
            s.device_loss_rate = 30.0 * intensity;
            s.device_loss_window = (Dur::from_ms(2), Dur::from_ms(12));
        }
        s
    }

    /// True if this spec injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.degrade_rate == 0.0
            && self.flap_rate == 0.0
            && self.drop_prob == 0.0
            && self.delay_prob == 0.0
            && self.straggler_prob == 0.0
            && self.device_loss_rate == 0.0
    }
}

/// What a fault window does to its link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Link runs at `factor` × nominal bandwidth.
    Degraded(f64),
    /// Link is down; sends fail.
    Down,
}

/// One scheduled fault window on a directed link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// What the window does.
    pub kind: FaultKind,
}

/// Instantaneous state of a directed link under a plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkState {
    /// Link is up, running at `bw_factor` × nominal bandwidth (1.0 = clean).
    Up {
        /// Effective bandwidth multiplier in `(0, 1]`.
        bw_factor: f64,
    },
    /// Link is down until `up_at`.
    Down {
        /// When the current down window ends.
        up_at: SimTime,
    },
}

/// Per-message sampled fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MessageFault {
    /// Deliver normally.
    None,
    /// Message is lost in flight.
    Drop,
    /// Message is delayed by the given jitter.
    Delay(Dur),
}

/// One PRNG stream of a plan: the workspace's `StdRng`, with the uniform
/// draws fault sampling takes.
#[derive(Clone, Debug)]
struct Stream(StdRng);

impl Stream {
    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        self.0.gen_range(0.0..1.0)
    }

    fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `[lo, hi]`; a zero span returns `lo` without a draw.
    fn uniform_dur(&mut self, lo: Dur, hi: Dur) -> Dur {
        if hi.as_ns() <= lo.as_ns() {
            return lo;
        }
        Dur::from_ns(self.0.gen_range(lo.as_ns()..=hi.as_ns()))
    }
}

/// Mix a seed with a stream label so each link/GPU gets its own independent
/// PRNG stream.
fn substream(seed: u64, label: u64) -> Stream {
    let mut s = StdRng::seed_from_u64(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Burn one draw so adjacent labels decorrelate immediately.
    s.advance(1);
    Stream(s)
}

/// A fully materialized fault schedule for one machine.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    n: usize,
    seed: u64,
    spec: FaultSpec,
    trivial: bool,
    /// Per ordered pair (`src * n + dst`), sorted by start.
    windows: Vec<Vec<FaultWindow>>,
    /// Per-GPU whole-device outage windows (always [`FaultKind::Down`]),
    /// sorted by start.
    dev_windows: Vec<Vec<FaultWindow>>,
    /// Per-GPU kernel slowdown factor, `>= 1.0`.
    straggler: Vec<f64>,
    /// Per ordered pair message-sampling stream.
    msg_streams: Vec<Stream>,
}

impl FaultPlan {
    /// Materialize a plan for an `n_gpus` machine. Window placement,
    /// straggler factors and all per-message sampling derive only from
    /// `seed` and `spec`.
    pub fn generate(seed: u64, n_gpus: usize, spec: FaultSpec) -> Self {
        assert!(n_gpus >= 1, "fault plan needs at least one GPU");
        assert!(
            spec.drop_prob >= 0.0 && spec.drop_prob <= 1.0,
            "drop_prob out of [0, 1]"
        );
        assert!(
            spec.delay_prob >= 0.0 && spec.delay_prob + spec.drop_prob <= 1.0,
            "drop_prob + delay_prob must stay within [0, 1]"
        );
        let n = n_gpus;
        let trivial = spec.is_none();
        let mut windows = vec![Vec::new(); n * n];
        let mut msg_streams = Vec::with_capacity(n * n);
        let horizon_s = spec.horizon.as_secs_f64();
        for src in 0..n {
            for dst in 0..n {
                let pair = (src * n + dst) as u64;
                msg_streams.push(substream(seed, 0x4D53_0000 | pair));
                if src == dst || trivial {
                    continue;
                }
                let mut s = substream(seed, 0x574E_0000 | pair);
                let mut w = Vec::new();
                for _ in 0..sample_count(&mut s, spec.degrade_rate * horizon_s) {
                    let start = s.uniform_dur(Dur::ZERO, spec.horizon);
                    let len = s.uniform_dur(spec.degrade_window.0, spec.degrade_window.1);
                    let factor = s.uniform_f64(spec.degrade_factor.0, spec.degrade_factor.1);
                    w.push(FaultWindow {
                        start: SimTime::ZERO + start,
                        end: SimTime::ZERO + start + len,
                        kind: FaultKind::Degraded(factor),
                    });
                }
                for _ in 0..sample_count(&mut s, spec.flap_rate * horizon_s) {
                    let start = s.uniform_dur(Dur::ZERO, spec.horizon);
                    let len = s.uniform_dur(spec.flap_window.0, spec.flap_window.1);
                    w.push(FaultWindow {
                        start: SimTime::ZERO + start,
                        end: SimTime::ZERO + start + len,
                        kind: FaultKind::Down,
                    });
                }
                w.sort_by_key(|win| (win.start, win.end));
                windows[src * n + dst] = w;
            }
        }
        let mut straggler = Vec::with_capacity(n);
        for dev in 0..n {
            let mut s = substream(seed, 0x5347_0000 | dev as u64);
            let factor = if !trivial && s.next_f64() < spec.straggler_prob {
                s.uniform_f64(spec.straggler_factor.0, spec.straggler_factor.1)
            } else {
                1.0
            };
            straggler.push(factor);
        }
        // Whole-device outages draw from their own substream namespace
        // (`0x4445` = "DE"), so a spec that merely *adds* device loss keeps
        // every link window, message fate and straggler factor of the
        // device-loss-free spec bit-identical.
        let mut dev_windows = vec![Vec::new(); n];
        if !trivial && spec.device_loss_rate > 0.0 {
            for (dev, wins) in dev_windows.iter_mut().enumerate() {
                let mut s = substream(seed, 0x4445_0000 | dev as u64);
                for _ in 0..sample_count(&mut s, spec.device_loss_rate * horizon_s) {
                    let start = s.uniform_dur(Dur::ZERO, spec.horizon);
                    let len = s.uniform_dur(spec.device_loss_window.0, spec.device_loss_window.1);
                    wins.push(FaultWindow {
                        start: SimTime::ZERO + start,
                        end: SimTime::ZERO + start + len,
                        kind: FaultKind::Down,
                    });
                }
                wins.sort_by_key(|win| (win.start, win.end));
            }
        }
        FaultPlan {
            n,
            seed,
            spec,
            trivial,
            windows,
            dev_windows,
            straggler,
            msg_streams,
        }
    }

    /// The seed the plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generation spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// True if the plan injects nothing; the machine bypasses fault paths.
    pub fn is_trivial(&self) -> bool {
        self.trivial
    }

    /// Number of GPUs the plan was generated for.
    pub fn n_gpus(&self) -> usize {
        self.n
    }

    /// Kernel slowdown factor for `dev` (1.0 = healthy).
    pub fn straggler_factor(&self, dev: usize) -> f64 {
        self.straggler[dev]
    }

    /// Scheduled fault windows on the directed link, sorted by start.
    pub fn windows(&self, src: usize, dst: usize) -> &[FaultWindow] {
        &self.windows[src * self.n + dst]
    }

    /// State of the directed link at `at`. Down windows take precedence;
    /// overlapping degradation windows compound multiplicatively.
    pub fn link_state(&self, src: usize, dst: usize, at: SimTime) -> LinkState {
        let mut factor = 1.0;
        for w in &self.windows[src * self.n + dst] {
            if at < w.start {
                break; // sorted by start: nothing later can contain `at`
            }
            if at >= w.end {
                continue;
            }
            match w.kind {
                FaultKind::Down => return LinkState::Down { up_at: w.end },
                FaultKind::Degraded(f) => factor *= f,
            }
        }
        LinkState::Up { bw_factor: factor }
    }

    /// Scheduled whole-device outage windows for `dev`, sorted by start.
    pub fn device_windows(&self, dev: usize) -> &[FaultWindow] {
        &self.dev_windows[dev]
    }

    /// If `dev` is inside an outage window at `at`, the instant it comes
    /// back up (the latest end across overlapping windows); `None` while
    /// the device is healthy.
    pub fn device_down_until(&self, dev: usize, at: SimTime) -> Option<SimTime> {
        let mut up_at: Option<SimTime> = None;
        for w in &self.dev_windows[dev] {
            if at < w.start {
                break; // sorted by start: nothing later can contain `at`
            }
            if at < w.end {
                up_at = Some(up_at.map_or(w.end, |u| u.max(w.end)));
            }
        }
        up_at
    }

    /// The typed error a fallible caller observes when touching `dev` at
    /// `at`, if the device is inside an outage window.
    pub fn device_error(&self, dev: usize, at: SimTime) -> Option<FabricError> {
        self.device_down_until(dev, at)
            .map(|up_at| FabricError::DeviceLost { dev, at, up_at })
    }

    /// Number of down windows (flaps) on the directed link that start at or
    /// before `upto`. The resilience policy uses this to decide failover.
    pub fn flap_count(&self, src: usize, dst: usize, upto: SimTime) -> usize {
        self.windows[src * self.n + dst]
            .iter()
            .filter(|w| w.kind == FaultKind::Down && w.start <= upto)
            .count()
    }

    /// Fraction of `[start, end)` during which the directed link is inside
    /// any fault window (degraded or down). Used to tag the fig7/fig10
    /// traffic CSV with a fault column.
    pub fn fault_fraction(&self, src: usize, dst: usize, start: SimTime, end: SimTime) -> f64 {
        if end <= start {
            return 0.0;
        }
        let mut covered = 0u64;
        let mut cursor = start;
        // Windows may overlap; walk them in start order and count union time.
        for w in &self.windows[src * self.n + dst] {
            if w.end <= cursor || w.start >= end {
                continue;
            }
            let s = w.start.max(cursor);
            let e = w.end.min(end);
            if e > s {
                covered += (e - s).as_ns();
                cursor = e;
            }
            if cursor >= end {
                break;
            }
        }
        covered as f64 / (end - start).as_ns() as f64
    }

    /// Sample the fate of the next message on the directed link. Advances the
    /// pair's private stream, so interleaving across pairs cannot perturb
    /// another pair's decisions.
    pub fn sample_message(&mut self, src: usize, dst: usize) -> MessageFault {
        if self.trivial || (self.spec.drop_prob == 0.0 && self.spec.delay_prob == 0.0) {
            return MessageFault::None;
        }
        let s = &mut self.msg_streams[src * self.n + dst];
        let u = s.next_f64();
        if u < self.spec.drop_prob {
            MessageFault::Drop
        } else if u < self.spec.drop_prob + self.spec.delay_prob {
            MessageFault::Delay(s.uniform_dur(self.spec.delay.0, self.spec.delay.1))
        } else {
            MessageFault::None
        }
    }
}

/// Deterministic "Poisson-ish" count: `floor(expected)` plus a Bernoulli
/// draw on the fractional part.
fn sample_count(s: &mut Stream, expected: f64) -> u64 {
    if expected <= 0.0 {
        return 0;
    }
    let base = expected.floor();
    let frac = expected - base;
    base as u64 + u64::from(s.next_f64() < frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(seed, 4, FaultSpec::chaos(0.5))
    }

    #[test]
    fn same_seed_same_plan() {
        for spec in [FaultSpec::chaos(0.5), FaultSpec::storm(0.5)] {
            assert_eq!(golden_record(7, spec), golden_record(7, spec));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = golden_record(1, FaultSpec::chaos(0.5));
        let b = golden_record(2, FaultSpec::chaos(0.5));
        assert_ne!(a.1, b.1, "link windows");
        assert_ne!(a.6, b.6, "message fates");
    }

    #[test]
    fn trivial_plan_is_clean() {
        let mut p = FaultPlan::generate(9, 4, FaultSpec::none());
        assert!(p.is_trivial());
        for src in 0..4 {
            for dst in 0..4 {
                assert!(p.windows(src, dst).is_empty());
                assert_eq!(
                    p.link_state(src, dst, SimTime::from_us(10)),
                    LinkState::Up { bw_factor: 1.0 }
                );
            }
            assert_eq!(p.straggler_factor(src), 1.0);
        }
        for _ in 0..100 {
            assert_eq!(p.sample_message(0, 1), MessageFault::None);
        }
    }

    /// FNV-1a over 64-bit words: the golden test's compact record.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    fn window_words(ws: &[FaultWindow]) -> impl Iterator<Item = u64> + '_ {
        ws.iter().flat_map(|w| {
            let kind = match w.kind {
                FaultKind::Down => u64::MAX,
                FaultKind::Degraded(f) => f.to_bits(),
            };
            [w.start.as_ns(), w.end.as_ns(), kind]
        })
    }

    /// What the determinism and golden tests compare of
    /// `generate(seed, 4, spec)`: link window count and fold, device window
    /// count and fold, straggler factor bits, and the (drops, delays) count
    /// and fold of the first 64 fates of every directed pair.
    type Golden = (usize, u64, usize, u64, [u64; 4], [usize; 2], u64);

    fn golden_record(seed: u64, spec: FaultSpec) -> Golden {
        let mut p = FaultPlan::generate(seed, 4, spec);
        let pairs: Vec<(usize, usize)> = (0..4)
            .flat_map(|s| (0..4).map(move |d| (s, d)))
            .filter(|(s, d)| s != d)
            .collect();
        let n_windows = pairs.iter().map(|&(s, d)| p.windows(s, d).len()).sum();
        let windows = fnv(pairs
            .iter()
            .flat_map(|&(s, d)| window_words(p.windows(s, d))));
        let n_dev = (0..4).map(|d| p.device_windows(d).len()).sum();
        let dev = fnv((0..4).flat_map(|d| window_words(p.device_windows(d))));
        let straggler = [0, 1, 2, 3].map(|d| p.straggler_factor(d).to_bits());
        let mut counts = [0usize; 2];
        let mut fates = Vec::new();
        for &(s, d) in &pairs {
            for _ in 0..64 {
                fates.push(match p.sample_message(s, d) {
                    MessageFault::None => 0,
                    MessageFault::Drop => {
                        counts[0] += 1;
                        1
                    }
                    MessageFault::Delay(j) => {
                        counts[1] += 1;
                        2 + j.as_ns()
                    }
                });
            }
        }
        (
            n_windows,
            windows,
            n_dev,
            dev,
            straggler,
            counts,
            fnv(fates),
        )
    }

    #[test]
    fn chaos_and_storm_plans_are_pinned() {
        // Captured while the plan streams ran their own SplitMix64, before
        // they drew from `rand::rngs::StdRng`: the chaos and adapt
        // artifacts hold only while no window, factor or fate moves.
        let one = 1.0f64.to_bits();
        let empty = fnv([]);
        let pinned: [(u64, Golden, u64); 2] = [
            (
                3,
                (
                    660,
                    13686671934828929661,
                    0,
                    empty,
                    [one, 4607498368794156295, one, one],
                    [8, 30],
                    12858683018718129911,
                ),
                15602869528589518810,
            ),
            (
                10,
                (
                    660,
                    4929320570940803124,
                    0,
                    empty,
                    [one, 4607940517179371116, one, one],
                    [6, 3],
                    9053542059693499497,
                ),
                5559883324114306654,
            ),
        ];
        for (seed, chaos, storm_dev) in pinned {
            assert_eq!(
                golden_record(seed, FaultSpec::chaos(0.5)),
                chaos,
                "chaos, seed {seed}"
            );
            // The storm is chaos plus 12 device outages.
            let storm = (chaos.0, chaos.1, 12, storm_dev, chaos.4, chaos.5, chaos.6);
            assert_eq!(
                golden_record(seed, FaultSpec::storm(0.5)),
                storm,
                "storm, seed {seed}"
            );
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let us = [5, 10, 20, 40, 80, 80].map(Dur::from_us);
        assert_eq!((1..=6).map(backoff).collect::<Vec<_>>(), us);
        assert_eq!(backoff(100), MAX_BACKOFF);
    }

    #[test]
    fn chaos_zero_is_none() {
        assert!(FaultSpec::chaos(0.0).is_none());
        assert!(!FaultSpec::chaos(0.3).is_none());
    }

    #[test]
    fn link_state_sees_down_window() {
        let p = chaos_plan(3);
        // Find any down window and probe inside it.
        let mut probed = false;
        for src in 0..4 {
            for dst in 0..4 {
                for w in p.windows(src, dst) {
                    if w.kind == FaultKind::Down && w.end > w.start {
                        let mid = w.start + (w.end - w.start) / 2;
                        match p.link_state(src, dst, mid) {
                            LinkState::Down { up_at } => assert!(up_at >= w.end || up_at > mid),
                            LinkState::Up { .. } => panic!("probe inside down window reported up"),
                        }
                        probed = true;
                    }
                }
            }
        }
        assert!(probed, "chaos(0.5) should schedule at least one flap");
    }

    #[test]
    fn degraded_state_reports_reduced_factor() {
        let p = chaos_plan(5);
        let mut saw_degraded = false;
        for (src, dst) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)] {
            for w in p.windows(src, dst) {
                if let FaultKind::Degraded(f) = w.kind {
                    let mid = w.start + (w.end - w.start) / 2;
                    if let LinkState::Up { bw_factor } = p.link_state(src, dst, mid) {
                        assert!(bw_factor <= f + 1e-12, "factor must compound down");
                        saw_degraded = true;
                    }
                }
            }
        }
        assert!(saw_degraded);
    }

    #[test]
    fn message_sampling_is_per_pair_deterministic() {
        let mut a = chaos_plan(11);
        let mut b = chaos_plan(11);
        // Different interleavings across pairs, same per-pair sequence.
        let mut fa = Vec::new();
        for i in 0..50 {
            fa.push(a.sample_message(0, 1));
            if i % 2 == 0 {
                a.sample_message(2, 3);
            }
        }
        let mut fb = Vec::new();
        for _ in 0..25 {
            b.sample_message(2, 3);
        }
        for _ in 0..50 {
            fb.push(b.sample_message(0, 1));
        }
        assert_eq!(fa, fb, "per-pair streams must not interleave");
    }

    #[test]
    fn drops_and_delays_occur() {
        let mut p = FaultPlan::generate(13, 2, FaultSpec::chaos(1.0));
        let mut drops = 0;
        let mut delays = 0;
        for _ in 0..2000 {
            match p.sample_message(0, 1) {
                MessageFault::Drop => drops += 1,
                MessageFault::Delay(j) => {
                    assert!(j >= Dur::from_us(2) && j <= Dur::from_us(20));
                    delays += 1;
                }
                MessageFault::None => {}
            }
        }
        assert!(drops > 0, "2% drop over 2000 messages should fire");
        assert!(delays > drops, "5% delay should outnumber 2% drop");
    }

    #[test]
    fn fault_fraction_bounds() {
        let p = chaos_plan(17);
        for (src, dst) in [(0, 1), (2, 3)] {
            let f = p.fault_fraction(src, dst, SimTime::ZERO, SimTime::from_ms(200));
            assert!((0.0..=1.0).contains(&f), "fraction {f} out of bounds");
        }
        assert_eq!(
            p.fault_fraction(0, 1, SimTime::from_us(5), SimTime::from_us(5)),
            0.0
        );
    }

    #[test]
    fn fault_fraction_exact_on_known_window() {
        let mut p = FaultPlan::generate(1, 2, FaultSpec::none());
        p.trivial = false;
        p.windows[1] = vec![FaultWindow {
            start: SimTime::from_us(10),
            end: SimTime::from_us(20),
            kind: FaultKind::Down,
        }];
        let f = p.fault_fraction(0, 1, SimTime::ZERO, SimTime::from_us(40));
        assert!((f - 0.25).abs() < 1e-9, "10us of 40us = 0.25, got {f}");
    }

    #[test]
    fn flap_count_monotone() {
        let p = chaos_plan(19);
        let early = p.flap_count(0, 1, SimTime::from_us(100));
        let late = p.flap_count(0, 1, SimTime::from_ms(200));
        assert!(late >= early);
    }

    #[test]
    fn straggler_factors_in_range() {
        let p = FaultPlan::generate(23, 8, FaultSpec::chaos(1.0));
        let mut any = false;
        for dev in 0..8 {
            let f = p.straggler_factor(dev);
            assert!(f == 1.0 || (1.05..=1.5).contains(&f), "factor {f}");
            any |= f > 1.0;
        }
        assert!(any, "25% straggler probability over 8 GPUs should fire");
    }

    #[test]
    fn fabric_error_display_and_helpers() {
        let e = FabricError::LinkDown {
            src: 0,
            dst: 1,
            at: SimTime::from_us(5),
            up_at: SimTime::from_us(9),
        };
        assert!(e.is_retryable());
        assert_eq!(e.observed_at(), SimTime::from_us(5));
        assert!(format!("{e}").contains("0->1"));
        let r = FabricError::RetryExhausted {
            attempts: 3,
            last: Box::new(e.clone()),
        };
        assert_eq!(r.observed_at(), SimTime::from_us(5));
        assert!(format!("{r}").contains("3 attempts"));
        let d = FabricError::MessageDropped {
            src: 1,
            dst: 0,
            at: SimTime::from_us(2),
        };
        assert!(d.is_retryable());
    }

    #[test]
    #[should_panic(expected = "intensity")]
    fn chaos_intensity_out_of_range_panics() {
        let _ = FaultSpec::chaos(1.5);
    }

    #[test]
    fn chaos_never_schedules_device_loss() {
        assert_eq!(FaultSpec::chaos(1.0).device_loss_rate, 0.0);
        let p = FaultPlan::generate(7, 4, FaultSpec::chaos(1.0));
        for dev in 0..4 {
            assert!(p.device_windows(dev).is_empty());
            assert_eq!(p.device_down_until(dev, SimTime::from_ms(1)), None);
            assert_eq!(p.device_error(dev, SimTime::from_ms(1)), None);
        }
    }

    #[test]
    fn storm_adds_device_loss_without_perturbing_link_faults() {
        let chaos = FaultPlan::generate(7, 4, FaultSpec::chaos(0.5));
        let storm = FaultPlan::generate(7, 4, FaultSpec::storm(0.5));
        // Same seed: every link window and straggler factor is identical —
        // the storm is strictly chaos plus shard loss.
        for src in 0..4 {
            for dst in 0..4 {
                assert_eq!(chaos.windows(src, dst), storm.windows(src, dst));
            }
            assert_eq!(chaos.straggler_factor(src), storm.straggler_factor(src));
        }
        let outages: usize = (0..4)
            .map(|d| storm.device_windows(d).len())
            .collect::<Vec<_>>()
            .iter()
            .sum();
        assert!(
            outages > 0,
            "30/s over a 200 ms horizon should schedule outages"
        );
        // And the storm itself is deterministic.
        let again = FaultPlan::generate(7, 4, FaultSpec::storm(0.5));
        for dev in 0..4 {
            assert_eq!(storm.device_windows(dev), again.device_windows(dev));
        }
    }

    #[test]
    fn device_down_until_sees_outage_windows() {
        let p = FaultPlan::generate(3, 4, FaultSpec::storm(1.0));
        let mut probed = false;
        for dev in 0..4 {
            for w in p.device_windows(dev) {
                assert!(w.kind == FaultKind::Down);
                let mid = w.start + (w.end - w.start) / 2;
                let up = p.device_down_until(dev, mid).expect("inside an outage");
                assert!(up >= w.end);
                match p.device_error(dev, mid) {
                    Some(FabricError::DeviceLost { dev: d, at, up_at }) => {
                        assert_eq!(d, dev);
                        assert_eq!(at, mid);
                        assert_eq!(up_at, up);
                        assert!(!FabricError::DeviceLost { dev: d, at, up_at }.is_retryable());
                        assert_eq!(
                            FabricError::DeviceLost { dev: d, at, up_at }.observed_at(),
                            mid
                        );
                    }
                    other => panic!("expected DeviceLost, got {other:?}"),
                }
                probed = true;
            }
            // Healthy past the horizon.
            assert_eq!(p.device_down_until(dev, SimTime::from_ms(500)), None);
        }
        assert!(probed, "storm(1.0) should schedule at least one outage");
    }
}
