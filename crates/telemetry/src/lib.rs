//! # telemetry — deterministic, opt-in observability for the simulation stack
//!
//! A metrics registry the fabric, the PGAS runtime and the collectives record
//! into. It holds what some benchmark count or trace reads, and what the
//! network-utilization artifact reads, and nothing else: a count a result
//! table prints is not an observation, so message totals, per fabric tier
//! too, are `gpusim::TrafficStats` fields that every machine keeps. Three
//! properties drive the design:
//!
//! 1. **Opt-in, zero-cost when off.** Every registry starts
//!    [`Registry::disabled`]; each recording method is a single branch on
//!    `enabled` before touching any storage, so hot paths (the per-message
//!    fabric send, kernel launches) never allocate when telemetry is off —
//!    the default everywhere — and every pre-existing artifact stays
//!    byte-identical.
//! 2. **Deterministic snapshots.** Metrics are keyed by a static name plus
//!    two small numeric labels ([`MetricKey`]). Storage interns the name to
//!    a small id and walks `BTreeMap`s of `(i, j, id)` integers, so a
//!    recording compares no strings and the metrics one event records for
//!    one label pair sit in one tree leaf; [`Registry::snapshot`] reads the
//!    names out in text order, so it is sorted by `MetricKey` and
//!    independent of insertion order. All recording happens through
//!    `&mut Machine`, which the simulator already serialises, so snapshots
//!    are bit-identical at any `RAYON_NUM_THREADS` width.
//! 3. **No hot-path string formatting.** Labels stay numeric; readers
//!    format them if they need to.
//!
//! Two metric kinds: monotonic [`Counter`](Registry::add)s and time-bucketed
//! utilization **timelines** ([`Registry::span`]) built on
//! [`desim::TimeSeries`]: each span deposits its overlap in nanoseconds into
//! every bucket it crosses, so `value / bucket_ns` is the fraction of that
//! bucket the resource was busy — the quantity behind the paper's "smoothed
//! network usage" claim.
//!
//! [`validate_json_doc`] is the well-formedness check every `BENCH_*.json`
//! artifact and Chrome-trace export in this repo passes before it is written.

#![warn(missing_docs)]

pub mod causal;

use std::collections::BTreeMap;

use desim::{Dur, SimTime, TimeSeries};

/// Identity of one metric: a static name plus two small numeric labels.
///
/// The labels are metric-specific: per-link metrics use `(src, dst)`,
/// per-device metrics use `(dev, 0)` and global metrics use `(0, 0)`.
/// Keeping labels numeric means recording never formats or allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Static metric name, e.g. `"link_busy_ns"`.
    pub name: &'static str,
    /// First numeric label (source device or device id, or 0 when unused).
    pub i: u32,
    /// Second numeric label (destination device or node, or 0 when unused).
    pub j: u32,
}

/// Deterministic, opt-in metrics registry. See the crate docs for the
/// determinism contract; the short version: snapshots are sorted by key and
/// every mutation happens behind `&mut`, so two runs of the same workload
/// produce identical snapshots regardless of host thread width.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    enabled: bool,
    bucket: Dur,
    /// Interned metric names; a [`Slot`]'s last field indexes this.
    names: Vec<&'static str>,
    counters: BTreeMap<Slot, u64>,
    timelines: BTreeMap<Slot, TimeSeries>,
}

/// Storage key `(i, j, interned name id)`: labels first, so what one send
/// records for its `(src, dst)` is adjacent in the map.
type Slot = (u32, u32, u32);

impl Registry {
    /// Id of `name` if it was ever recorded under. Call sites pass literals,
    /// so the pointer-equal scan nearly always hits; equal text at another
    /// address (the same literal in two crates) falls to a content compare.
    fn id_of(&self, name: &str) -> Option<u32> {
        let names = &self.names;
        let hit = names.iter().position(|n| std::ptr::eq(*n, name));
        hit.or_else(|| names.iter().position(|n| *n == name))
            .map(|id| id as u32)
    }

    /// Storage key of `name{i,j}`, interning `name` on first use.
    fn slot(&mut self, name: &'static str, i: u32, j: u32) -> Slot {
        let id = self.id_of(name).unwrap_or_else(|| {
            self.names.push(name);
            self.names.len() as u32 - 1
        });
        (i, j, id)
    }

    fn get<'a, V>(&self, map: &'a BTreeMap<Slot, V>, name: &str, i: u32, j: u32) -> Option<&'a V> {
        map.get(&(i, j, self.id_of(name)?))
    }

    /// The entries of `map` recorded under name `id`, in label order (a scan:
    /// readers are per run or per tick, recordings are per message).
    fn named<'a, V>(
        map: &'a BTreeMap<Slot, V>,
        name: &'static str,
        id: u32,
    ) -> impl Iterator<Item = (MetricKey, &'a V)> {
        map.iter()
            .filter(move |(k, _)| k.2 == id)
            .map(move |(&(i, j, _), v)| (MetricKey { name, i, j }, v))
    }

    /// All of `map` in [`MetricKey`] order: names by text, then labels.
    fn sorted<'a, V>(
        &self,
        map: &'a BTreeMap<Slot, V>,
    ) -> impl Iterator<Item = (MetricKey, &'a V)> {
        let mut order: Vec<_> = self.names.iter().copied().zip(0u32..).collect();
        order.sort_unstable();
        order
            .into_iter()
            .flat_map(move |(name, id)| Self::named(map, name, id))
    }

    /// A registry that records nothing — the default on every `Machine`.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recording registry whose timelines use `bucket`-wide time buckets.
    ///
    /// # Panics
    /// If `bucket` is zero.
    pub fn enabled(bucket: Dur) -> Self {
        assert!(!bucket.is_zero(), "telemetry bucket must be non-zero");
        Self {
            enabled: true,
            bucket,
            ..Self::default()
        }
    }

    /// Whether this registry records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Timeline bucket width (zero when disabled).
    pub fn bucket(&self) -> Dur {
        self.bucket
    }

    /// Add `v` to the counter `name{i,j}`.
    #[inline]
    pub fn add(&mut self, name: &'static str, i: u32, j: u32, v: u64) {
        if !self.enabled {
            return;
        }
        let slot = self.slot(name, i, j);
        *self.counters.entry(slot).or_insert(0) += v;
    }

    /// Increment the counter `name{i,j}` by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str, i: u32, j: u32) {
        self.add(name, i, j, 1);
    }

    /// Deposit the busy interval `[start, end)` into the timeline
    /// `name{i,j}`: each time bucket the interval crosses receives its
    /// overlap in **nanoseconds**, so `bucket_value / bucket_ns` is the
    /// fraction of that bucket the resource was occupied. Degenerate
    /// intervals (`end <= start`) record nothing.
    #[inline]
    pub fn span(&mut self, name: &'static str, i: u32, j: u32, start: SimTime, end: SimTime) {
        if !self.enabled || end <= start {
            return;
        }
        let (bucket, slot) = (self.bucket, self.slot(name, i, j));
        self.timelines
            .entry(slot)
            .or_insert_with(|| TimeSeries::new(bucket))
            .add_spread(start, end, end.since(start).as_ns() as f64);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &'static str, i: u32, j: u32) -> u64 {
        self.get(&self.counters, name, i, j).copied().unwrap_or(0)
    }

    /// A busy-time timeline by key, if any span was ever recorded.
    pub fn timeline(&self, name: &'static str, i: u32, j: u32) -> Option<&TimeSeries> {
        self.get(&self.timelines, name, i, j)
    }

    /// Iterate all timelines sharing `name`, in label order.
    pub fn timelines_named<'a>(
        &'a self,
        name: &'static str,
    ) -> impl Iterator<Item = (MetricKey, &'a TimeSeries)> {
        let id = self.id_of(name);
        id.into_iter()
            .flat_map(move |id| Self::named(&self.timelines, name, id))
    }

    /// Point-in-time copy of every metric, sorted by key. Comparable with
    /// `==` across runs — the unit the determinism tests assert on.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            bucket_ns: self.bucket.as_ns(),
            counters: self.sorted(&self.counters).map(|(k, v)| (k, *v)).collect(),
            timelines: self
                .sorted(&self.timelines)
                .map(|(k, ts)| (k, ts.buckets().to_vec()))
                .collect(),
        }
    }
}

/// Sorted, comparable copy of a [`Registry`] at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Timeline bucket width in nanoseconds.
    pub bucket_ns: u64,
    /// All counters, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// All timelines (per-bucket busy nanoseconds), sorted by key.
    pub timelines: Vec<(MetricKey, Vec<f64>)>,
}

/// Minimal structural validation shared by every hand-rolled `BENCH_*.json`
/// artifact and the Chrome-trace exports: balanced braces/brackets outside
/// strings, every key in `required_keys` present, and no NaN/infinite
/// numbers. Returns a description of the first problem.
pub fn validate_json_doc(s: &str, required_keys: &[&str]) -> Result<(), String> {
    let mut depth_brace = 0i64;
    let mut depth_bracket = 0i64;
    let mut in_string = false;
    let mut prev_escape = false;
    // Everything outside string literals, so the non-finite-number scan
    // below does not trip on key names that merely contain "inf".
    let mut structural = String::with_capacity(s.len());
    for c in s.chars() {
        if in_string {
            if prev_escape {
                prev_escape = false;
            } else if c == '\\' {
                prev_escape = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth_brace += 1,
            '}' => depth_brace -= 1,
            '[' => depth_bracket += 1,
            ']' => depth_bracket -= 1,
            _ => {}
        }
        structural.push(c);
        if depth_brace < 0 || depth_bracket < 0 {
            return Err("unbalanced close before open".into());
        }
    }
    if in_string {
        return Err("unterminated string".into());
    }
    if depth_brace != 0 || depth_bracket != 0 {
        return Err(format!(
            "unbalanced nesting: braces {depth_brace:+}, brackets {depth_bracket:+}"
        ));
    }
    for key in required_keys {
        if !s.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    for bad in ["NaN", "inf", "Infinity"] {
        if structural.contains(bad) {
            return Err(format!("non-finite number {bad}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_us(us)
    }

    fn key(name: &'static str, i: u32, j: u32) -> MetricKey {
        MetricKey { name, i, j }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = Registry::disabled();
        r.add("c", 0, 0, 5);
        r.span("t", 0, 0, t(0), t(100));
        let s = r.snapshot();
        assert_eq!(s, Snapshot::default());
        assert!(!r.is_enabled());
    }

    #[test]
    fn counters_accumulate_per_label() {
        let mut r = Registry::enabled(Dur::from_us(10));
        r.add("msgs", 0, 1, 3);
        r.incr("msgs", 0, 1);
        assert_eq!(r.counter("msgs", 0, 1), 4);
        assert_eq!(r.counter("msgs", 1, 0), 0);
        assert_eq!(r.counter("never_recorded", 0, 1), 0);
    }

    #[test]
    fn span_deposits_busy_ns_per_bucket() {
        let mut r = Registry::enabled(Dur::from_us(10));
        // 15 µs of busy time: fills bucket 0, half of bucket 1.
        r.span("busy", 2, 3, t(0), t(15));
        let ts = r.timeline("busy", 2, 3).unwrap();
        let b = ts.buckets();
        assert!((b[0] - 10_000.0).abs() < 1e-6);
        assert!((b[1] - 5_000.0).abs() < 1e-6);
        // Degenerate span is a no-op.
        r.span("busy", 2, 3, t(20), t(20));
        assert_eq!(r.timeline("busy", 2, 3).unwrap().buckets().len(), 2);
        let named: Vec<_> = r.timelines_named("busy").map(|(k, _)| k).collect();
        assert_eq!(named, vec![key("busy", 2, 3)]);
    }

    #[test]
    fn snapshot_order_is_insertion_independent() {
        let mut a = Registry::enabled(Dur::from_us(10));
        let mut b = Registry::enabled(Dur::from_us(10));
        a.add("x", 0, 1, 1);
        a.add("x", 1, 0, 2);
        a.add("a", 9, 9, 3);
        b.add("a", 9, 9, 3);
        b.add("x", 1, 0, 2);
        b.add("x", 0, 1, 1);
        assert_eq!(a.snapshot(), b.snapshot());
        let keys: Vec<_> = a.snapshot().counters.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![key("a", 9, 9), key("x", 0, 1), key("x", 1, 0)]);
    }

    #[test]
    fn a_name_is_its_text_not_its_address() {
        // The same literal in two crates is two addresses; interning must
        // still see one metric.
        let elsewhere: &'static str = Box::leak(String::from("msgs").into_boxed_str());
        let mut r = Registry::enabled(Dur::from_us(10));
        r.add("msgs", 0, 1, 3);
        r.add(elsewhere, 0, 1, 4);
        r.add(elsewhere, 2, 0, 5);
        r.add("other", 0, 1, 100);
        assert_eq!(r.counter("msgs", 0, 1), 7);
        assert_eq!(r.counter(elsewhere, 2, 0), 5);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 3);
        assert!(snap.counters.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn validator_rejects_malformed_docs() {
        assert!(validate_json_doc("{\"a\": 1}", &["\"a\""]).is_ok());
        assert!(validate_json_doc("{\"a\": 1", &[]).is_err());
        assert!(validate_json_doc("{\"a\": \"unterminated}", &[]).is_err());
        assert!(validate_json_doc("{\"a\": NaN}", &[]).is_err());
        assert!(validate_json_doc("{}", &["\"missing\""]).is_err());
    }
}
