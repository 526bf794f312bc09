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
//! uses one PRNG stream per directed link, per-message sampling uses one
//! stream per directed link advanced once per message, and straggler factors
//! use a per-GPU stream. Two runs with the same seed and the same call
//! sequence therefore inject bit-identical faults; the running
//! [`FaultPlan::fingerprint`] hash makes that property cheap to assert.
//!
//! A plan whose spec is all zeros ([`FaultSpec::none`]) is *trivial*: the
//! machine bypasses every fault code path and timing is bit-identical to a
//! run with no plan installed.

use desim::{Dur, SimTime};
use std::fmt;

use crate::Topology;

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
    /// Retry down links and dropped messages under the policy; err with
    /// [`FabricError::RetryExhausted`] once its attempts are spent.
    Retry(RetryPolicy),
}

/// Capped exponential backoff for retrying transient fabric faults. All
/// delays are simulated time, so retry schedules are fully deterministic.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts before giving up (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Dur,
    /// Backoff ceiling (the exponential doubling stops here).
    pub max_backoff: Dur,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Dur::from_us(5),
            max_backoff: Dur::from_us(80),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based): `base * 2^(retry-1)`,
    /// capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Dur {
        let mut b = self.base_backoff;
        for _ in 1..retry {
            if b >= self.max_backoff {
                break;
            }
            b = (b * 2).min(self.max_backoff);
        }
        b.min(self.max_backoff)
    }

    /// Earliest instant a retry may be attempted after failing with `err`:
    /// past a down window's end when known, plus the capped backoff.
    pub fn next_attempt_at(&self, err: &FabricError, retry: u32) -> SimTime {
        let floor = match err {
            FabricError::LinkDown { up_at, .. } => *up_at,
            other => other.observed_at(),
        };
        floor + self.backoff(retry)
    }
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

/// One injected fault event, recorded for traces and determinism checks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// A message on `src -> dst` was dropped.
    Dropped {
        /// Source GPU.
        src: usize,
        /// Destination GPU.
        dst: usize,
        /// Per-pair message sequence number at the time of the drop.
        seq: u64,
    },
    /// A message on `src -> dst` was delayed by `jitter`.
    Delayed {
        /// Source GPU.
        src: usize,
        /// Destination GPU.
        dst: usize,
        /// Per-pair message sequence number at the time of the delay.
        seq: u64,
        /// Sampled jitter.
        jitter: Dur,
    },
}

/// SplitMix64: tiny, fast, and good enough for fault sampling. Kept local so
/// `gpusim` stays dependency-free.
#[derive(Clone, Copy, Debug)]
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    fn uniform_dur(&mut self, lo: Dur, hi: Dur) -> Dur {
        let span = hi.as_ns().saturating_sub(lo.as_ns());
        if span == 0 {
            return lo;
        }
        Dur::from_ns(lo.as_ns() + self.next_u64() % (span + 1))
    }
}

/// Mix a seed with a stream label so each link/GPU gets its own independent
/// PRNG stream.
fn substream(seed: u64, label: u64) -> Stream {
    let mut s = Stream::new(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Burn one draw so adjacent labels decorrelate immediately.
    s.next_u64();
    s
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
    /// Per ordered pair message counter (sequence numbers in events).
    msg_seq: Vec<u64>,
    /// Injected per-message events, in injection order.
    events: Vec<FaultEvent>,
    /// Running hash over every sampled decision.
    digest: u64,
}

impl FaultPlan {
    /// Materialize a plan for an `n_gpus` machine. Window placement,
    /// straggler factors and all per-message sampling derive only from
    /// `seed` and `spec`.
    pub fn generate(seed: u64, n_gpus: usize, spec: FaultSpec) -> Self {
        Self::generate_with(seed, n_gpus, spec, |_, _| &spec)
    }

    /// Materialize a plan for a two-tier pod topology: link windows
    /// (degradation + flaps) on intra-node pairs come from `intra`, on
    /// inter-node pairs from `inter` — so the slow scale-out tier can
    /// degrade and flap independently of the in-node crossbar. Device-level
    /// faults (message drops/delays, stragglers, whole-device loss) come
    /// from `intra`, the node-local spec. Window placement stays per-pair
    /// substream-seeded, so with `intra == inter` the plan is bit-identical
    /// to [`FaultPlan::generate`] on the same GPU count.
    pub fn generate_tiered(
        seed: u64,
        topology: &Topology,
        intra: FaultSpec,
        inter: FaultSpec,
    ) -> Self {
        Self::generate_with(seed, topology.n_gpus(), intra, |src, dst| {
            if topology.same_node(src, dst) {
                &intra
            } else {
                &inter
            }
        })
    }

    /// Shared generation core: `spec_for(src, dst)` picks the window spec of
    /// each directed pair; `base` drives everything non-pair-specific. The
    /// plan is trivial only when `base` *and* every pair spec inject nothing.
    fn generate_with<'s>(
        seed: u64,
        n_gpus: usize,
        base: FaultSpec,
        spec_for: impl Fn(usize, usize) -> &'s FaultSpec,
    ) -> Self {
        assert!(n_gpus >= 1, "fault plan needs at least one GPU");
        assert!(
            base.drop_prob >= 0.0 && base.drop_prob <= 1.0,
            "drop_prob out of [0, 1]"
        );
        assert!(
            base.delay_prob >= 0.0 && base.delay_prob + base.drop_prob <= 1.0,
            "drop_prob + delay_prob must stay within [0, 1]"
        );
        let n = n_gpus;
        let spec = base;
        let mut trivial = base.is_none();
        let mut windows = vec![Vec::new(); n * n];
        let mut msg_streams = Vec::with_capacity(n * n);
        for src in 0..n {
            for dst in 0..n {
                let pair = (src * n + dst) as u64;
                msg_streams.push(substream(seed, 0x4D53_0000 | pair));
                if src == dst {
                    continue;
                }
                let pair_spec = spec_for(src, dst);
                trivial &= pair_spec.is_none();
                if pair_spec.is_none() {
                    continue;
                }
                let mut s = substream(seed, 0x574E_0000 | pair);
                let mut w = Vec::new();
                let horizon_s = pair_spec.horizon.as_secs_f64();
                for _ in 0..sample_count(&mut s, pair_spec.degrade_rate * horizon_s) {
                    let start = s.uniform_dur(Dur::ZERO, pair_spec.horizon);
                    let len = s.uniform_dur(pair_spec.degrade_window.0, pair_spec.degrade_window.1);
                    let factor =
                        s.uniform_f64(pair_spec.degrade_factor.0, pair_spec.degrade_factor.1);
                    w.push(FaultWindow {
                        start: SimTime::ZERO + start,
                        end: SimTime::ZERO + start + len,
                        kind: FaultKind::Degraded(factor),
                    });
                }
                for _ in 0..sample_count(&mut s, pair_spec.flap_rate * horizon_s) {
                    let start = s.uniform_dur(Dur::ZERO, pair_spec.horizon);
                    let len = s.uniform_dur(pair_spec.flap_window.0, pair_spec.flap_window.1);
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
            let horizon_s = spec.horizon.as_secs_f64();
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
            msg_seq: vec![0; n * n],
            events: Vec::new(),
            digest: seed ^ 0xC0FF_EE00_D15E_A5ED,
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
        let pair = src * self.n + dst;
        let seq = self.msg_seq[pair];
        self.msg_seq[pair] += 1;
        if self.trivial || (self.spec.drop_prob == 0.0 && self.spec.delay_prob == 0.0) {
            return MessageFault::None;
        }
        let s = &mut self.msg_streams[pair];
        let u = s.next_f64();
        if u < self.spec.drop_prob {
            self.events.push(FaultEvent::Dropped { src, dst, seq });
            self.mix(1, pair as u64, seq);
            MessageFault::Drop
        } else if u < self.spec.drop_prob + self.spec.delay_prob {
            let jitter = s.uniform_dur(self.spec.delay.0, self.spec.delay.1);
            self.events.push(FaultEvent::Delayed {
                src,
                dst,
                seq,
                jitter,
            });
            self.mix(2, pair as u64 ^ jitter.as_ns(), seq);
            MessageFault::Delay(jitter)
        } else {
            MessageFault::None
        }
    }

    /// Every injected per-message event so far, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Running hash over the plan's schedule and every injected event. Two
    /// runs with the same seed, spec and call sequence produce the same
    /// fingerprint — the determinism property tests assert exactly this.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.digest;
        for (i, ws) in self.windows.iter().enumerate() {
            for w in ws {
                h = mix64(h ^ (i as u64) ^ w.start.as_ns().rotate_left(17) ^ w.end.as_ns());
                if let FaultKind::Degraded(f) = w.kind {
                    h = mix64(h ^ f.to_bits());
                }
            }
        }
        for (dev, f) in self.straggler.iter().enumerate() {
            h = mix64(h ^ (dev as u64) ^ f.to_bits());
        }
        for (dev, ws) in self.dev_windows.iter().enumerate() {
            for w in ws {
                h = mix64(
                    h ^ (dev as u64).rotate_left(8)
                        ^ w.start.as_ns().rotate_left(17)
                        ^ w.end.as_ns(),
                );
            }
        }
        h
    }

    fn mix(&mut self, tag: u64, a: u64, b: u64) {
        self.digest = mix64(self.digest ^ tag.rotate_left(48) ^ a.rotate_left(24) ^ b);
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
        let a = chaos_plan(7);
        let b = chaos_plan(7);
        assert_eq!(a.fingerprint(), b.fingerprint());
        for src in 0..4 {
            for dst in 0..4 {
                assert_eq!(a.windows(src, dst), b.windows(src, dst));
            }
            assert_eq!(a.straggler_factor(src), b.straggler_factor(src));
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(chaos_plan(1).fingerprint(), chaos_plan(2).fingerprint());
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
        assert_eq!(p.sample_message(0, 1), MessageFault::None);
        assert!(p.events().is_empty());
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
    fn drops_and_delays_occur_and_are_recorded() {
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
        assert_eq!(p.events().len(), drops + delays);
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
        // Schedules with and without device loss fingerprint differently.
        assert_ne!(chaos.fingerprint(), storm.fingerprint());
        // And the storm itself is deterministic.
        assert_eq!(
            storm.fingerprint(),
            FaultPlan::generate(7, 4, FaultSpec::storm(0.5)).fingerprint()
        );
    }

    #[test]
    fn tiered_with_equal_specs_matches_generate() {
        use crate::LinkSpec;
        // On any topology, identical per-tier specs must reproduce the flat
        // generator bit for bit — the pod fault path is a strict extension.
        for topo in [
            Topology::crossbar(4, LinkSpec::nvlink_v100()),
            Topology::multi_node(2, 2, LinkSpec::nvlink_v100(), LinkSpec::roce()),
        ] {
            let spec = FaultSpec::chaos(0.5);
            let flat = FaultPlan::generate(21, topo.n_gpus(), spec);
            let tiered = FaultPlan::generate_tiered(21, &topo, spec, spec);
            assert_eq!(flat.fingerprint(), tiered.fingerprint());
            for src in 0..topo.n_gpus() {
                for dst in 0..topo.n_gpus() {
                    assert_eq!(flat.windows(src, dst), tiered.windows(src, dst));
                }
                assert_eq!(flat.straggler_factor(src), tiered.straggler_factor(src));
            }
            assert_eq!(flat.is_trivial(), tiered.is_trivial());
        }
    }

    #[test]
    fn tiered_faults_only_hit_the_requested_tier() {
        use crate::LinkSpec;
        let topo = Topology::multi_node(2, 2, LinkSpec::nvlink_v100(), LinkSpec::roce());
        // Clean crossbar, chaotic scale-out tier.
        let p = FaultPlan::generate_tiered(5, &topo, FaultSpec::none(), FaultSpec::chaos(1.0));
        assert!(!p.is_trivial());
        let mut inter_windows = 0;
        for src in 0..4 {
            for dst in 0..4 {
                if src == dst {
                    continue;
                }
                if topo.same_node(src, dst) {
                    assert!(
                        p.windows(src, dst).is_empty(),
                        "intra pair {src}->{dst} must stay clean"
                    );
                } else {
                    inter_windows += p.windows(src, dst).len();
                }
            }
        }
        assert!(inter_windows > 0, "chaos(1.0) must schedule inter windows");
        // The flipped assignment faults only the crossbar.
        let q = FaultPlan::generate_tiered(5, &topo, FaultSpec::chaos(1.0), FaultSpec::none());
        for (src, dst) in [(0usize, 2usize), (1, 3), (2, 0)] {
            assert!(q.windows(src, dst).is_empty());
        }
        assert!(!q.windows(0, 1).is_empty() || !q.windows(2, 3).is_empty());
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
