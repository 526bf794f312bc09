//! # telemetry — deterministic, opt-in observability for the simulation stack
//!
//! A metrics registry wired through every layer of the reproduction (fabric,
//! PGAS runtime, collectives, retrieval backends, online serving). Three
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
//!    recording compares no strings and the several metrics one event
//!    records for one label pair sit in one tree leaf;
//!    [`Registry::snapshot`] reads the names out in text order, so it is
//!    sorted by `MetricKey` and independent of insertion order. All
//!    recording happens through `&mut Machine`, which the simulator already
//!    serialises, so snapshots are bit-identical at any `RAYON_NUM_THREADS`
//!    width.
//! 3. **No hot-path string formatting.** Label rendering (`name{i=..,j=..}`)
//!    happens only at snapshot/exposition time.
//!
//! Four metric kinds: monotonic [`Counter`](Registry::add)s, last/max
//! [`gauge`](Registry::gauge_set)s, fixed-bucket [`FixedHistogram`]s
//! (static bound slices, e.g. [`US_BOUNDS`]), and time-bucketed utilization
//! **timelines** ([`Registry::span`]) built on [`desim::TimeSeries`]: each
//! span deposits its overlap in nanoseconds into every bucket it crosses,
//! so `value / bucket_ns` is the fraction of that bucket the resource was
//! busy — the quantity behind the paper's "smoothed network usage" claim.
//!
//! [`Snapshot`] renders as Prometheus-style text exposition
//! ([`Snapshot::to_prometheus`]) and as a JSON document
//! ([`Snapshot::to_json`]) checked by the same [`validate_json_doc`]
//! validator used for every `BENCH_*.json` artifact in this repo.

#![warn(missing_docs)]

pub mod causal;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use desim::{Dur, SimTime, TimeSeries};

/// Identity of one metric: a static name plus two small numeric labels.
///
/// The labels are metric-specific: per-link metrics use `(src, dst)`,
/// per-device metrics use `(dev, 0)`, global metrics use `(0, 0)`, and the
/// retrieval backends use `(backend_id, 0)`. Keeping labels numeric means
/// recording never formats or allocates; rendering happens at snapshot time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Static metric name, e.g. `"link_busy_ns"`.
    pub name: &'static str,
    /// First numeric label (source device, device id, or backend id).
    pub i: u32,
    /// Second numeric label (destination device, or 0 when unused).
    pub j: u32,
}

impl MetricKey {
    /// `name{i="..",j=".."}` — the Prometheus-style rendering of this key.
    pub fn render(&self) -> String {
        format!("{}{{i=\"{}\",j=\"{}\"}}", self.name, self.i, self.j)
    }
}

/// Fixed-bucket histogram upper bounds for microsecond-scale latencies.
pub const US_BOUNDS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
];

/// Fixed-bucket histogram upper bounds for per-message payload bytes.
pub const BYTES_BOUNDS: &[u64] = &[
    256,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    4 << 20,
];

/// Fixed-bucket histogram upper bounds for percentages (batch fill).
pub const PCT_BOUNDS: &[u64] = &[10, 25, 50, 75, 90, 100];

/// Histogram over a **static** set of upper bounds (`le` in Prometheus
/// terms) plus an implicit overflow bucket. Bounds are shared `&'static`
/// slices so recording never clones them and snapshots can compare cheaply.
#[derive(Clone, Debug, PartialEq)]
pub struct FixedHistogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    /// Exemplar: `(value, trace_id)` of the largest traced observation, so
    /// a p99/p999 report can name the offending request. Only
    /// [`FixedHistogram::record_traced`] sets it; plain records leave it
    /// untouched, keeping historical artifacts byte-identical.
    max_sample: Option<(u64, u64)>,
}

impl FixedHistogram {
    /// Empty histogram over `bounds` (must be strictly increasing).
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Self {
            bounds,
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            max_sample: None,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += u128::from(value);
    }

    /// Record one observation carrying a trace id; retains the largest
    /// such `(value, trace_id)` pair as the histogram's exemplar. Ties
    /// keep the earlier exemplar, so snapshots stay deterministic.
    pub fn record_traced(&mut self, value: u64, trace_id: u64) {
        self.record(value);
        match self.max_sample {
            Some((v, _)) if v >= value => {}
            _ => self.max_sample = Some((value, trace_id)),
        }
    }

    /// The `(value, trace_id)` exemplar of the max traced observation.
    pub fn max_sample(&self) -> Option<(u64, u64)> {
        self.max_sample
    }

    /// Upper bounds (exclusive of the implicit overflow bucket).
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow (`+Inf`) bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean observation, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }
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
    gauges: BTreeMap<Slot, f64>,
    histograms: BTreeMap<Slot, FixedHistogram>,
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

    /// Set the gauge `name{i,j}` to `v` (last-write-wins).
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, i: u32, j: u32, v: f64) {
        if !self.enabled {
            return;
        }
        let slot = self.slot(name, i, j);
        self.gauges.insert(slot, v);
    }

    /// Raise the gauge `name{i,j}` to `v` if `v` exceeds its current value.
    #[inline]
    pub fn gauge_max(&mut self, name: &'static str, i: u32, j: u32, v: f64) {
        if !self.enabled {
            return;
        }
        let slot = self.slot(name, i, j);
        let g = self.gauges.entry(slot).or_insert(v);
        if v > *g {
            *g = v;
        }
    }

    /// Record `value` into the fixed-bucket histogram `name{i,j}` over
    /// `bounds`. The first observation fixes the bound set; later calls
    /// must pass the same slice.
    #[inline]
    pub fn observe(
        &mut self,
        name: &'static str,
        i: u32,
        j: u32,
        bounds: &'static [u64],
        value: u64,
    ) {
        if !self.enabled {
            return;
        }
        let slot = self.slot(name, i, j);
        self.histograms
            .entry(slot)
            .or_insert_with(|| FixedHistogram::new(bounds))
            .record(value);
    }

    /// Like [`Registry::observe`] but carrying a request trace id: the
    /// histogram retains the `(value, trace_id)` exemplar of its largest
    /// traced sample (see [`FixedHistogram::record_traced`]).
    #[inline]
    pub fn observe_traced(
        &mut self,
        name: &'static str,
        i: u32,
        j: u32,
        bounds: &'static [u64],
        value: u64,
        trace_id: u64,
    ) {
        if !self.enabled {
            return;
        }
        let slot = self.slot(name, i, j);
        self.histograms
            .entry(slot)
            .or_insert_with(|| FixedHistogram::new(bounds))
            .record_traced(value, trace_id);
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

    /// Sum of a counter across all labels sharing `name` — the live
    /// registry's [`Snapshot::counter_total`], without the copy.
    pub fn counter_total(&self, name: &'static str) -> u64 {
        let id = self.id_of(name);
        id.map_or(0, |id| {
            Self::named(&self.counters, name, id).map(|(_, v)| v).sum()
        })
    }

    /// Current value of a gauge, if it was ever set.
    pub fn gauge(&self, name: &'static str, i: u32, j: u32) -> Option<f64> {
        self.get(&self.gauges, name, i, j).copied()
    }

    /// A histogram by key, if it was ever observed into.
    pub fn histogram(&self, name: &'static str, i: u32, j: u32) -> Option<&FixedHistogram> {
        self.get(&self.histograms, name, i, j)
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

    /// Windowed view of everything recorded since `prior` was taken from
    /// **this** registry: counters and histogram bucket counts are
    /// subtracted entry-wise (keys absent from `prior` keep their full
    /// value), gauges and timelines carry their current values (gauges are
    /// levels, not accumulations; timelines are already time-indexed).
    ///
    /// This is the one place cumulative metrics get diffed — the serving
    /// control plane and any scrape-style exposition both read rates
    /// through it instead of re-diffing counters ad hoc. Like
    /// [`Registry::snapshot`], the result is sorted by key and comparable
    /// with `==` across runs. `delta_since(&Snapshot::default())` equals
    /// `snapshot()` for a registry with no timelines recorded under a
    /// different bucket width.
    pub fn delta_since(&self, prior: &Snapshot) -> Snapshot {
        let mut d = self.snapshot();
        for (k, v) in &mut d.counters {
            if let Ok(idx) = prior.counters.binary_search_by(|(pk, _)| pk.cmp(k)) {
                *v = v.saturating_sub(prior.counters[idx].1);
            }
        }
        for (k, h) in &mut d.histograms {
            if let Ok(idx) = prior.histograms.binary_search_by(|(pk, _)| pk.cmp(k)) {
                let base = &prior.histograms[idx].1;
                if base.bounds() == h.bounds() {
                    for (c, b) in h.counts.iter_mut().zip(base.counts()) {
                        *c = c.saturating_sub(*b);
                    }
                    h.total = h.total.saturating_sub(base.total());
                    h.sum = h.sum.saturating_sub(base.sum());
                }
            }
        }
        d
    }

    /// Point-in-time copy of every metric, sorted by key. Comparable with
    /// `==` across runs — the unit the determinism tests assert on.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            bucket_ns: self.bucket.as_ns(),
            counters: self.sorted(&self.counters).map(|(k, v)| (k, *v)).collect(),
            gauges: self.sorted(&self.gauges).map(|(k, v)| (k, *v)).collect(),
            histograms: self
                .sorted(&self.histograms)
                .map(|(k, h)| (k, h.clone()))
                .collect(),
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
    /// All gauges, sorted by key.
    pub gauges: Vec<(MetricKey, f64)>,
    /// All fixed-bucket histograms, sorted by key.
    pub histograms: Vec<(MetricKey, FixedHistogram)>,
    /// All timelines (per-bucket busy nanoseconds), sorted by key.
    pub timelines: Vec<(MetricKey, Vec<f64>)>,
}

impl Snapshot {
    /// Value of a counter in this snapshot, 0 if absent — the lookup the
    /// serving control plane uses on [`Registry::delta_since`] windows.
    pub fn counter(&self, name: &str, i: u32, j: u32) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k.name == name && k.i == i && k.j == j)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum of a counter across all labels sharing `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Prometheus-style text exposition: counters and gauges as
    /// `name{i="..",j=".."} value`, histograms as the conventional
    /// `_bucket{le=..}` / `_sum` / `_count` triple, timelines as a
    /// `_total_ns` rollup (the full series lives in [`Snapshot::to_json`]).
    /// Each metric name gets exactly one `# HELP` and one `# TYPE` line,
    /// emitted before its first sample as the exposition format requires —
    /// keys are sorted, so "first sample" is well-defined.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last = "";
        for (k, v) in &self.counters {
            if k.name != last {
                let _ = writeln!(out, "# HELP {} simulation counter", k.name);
                let _ = writeln!(out, "# TYPE {} counter", k.name);
                last = k.name;
            }
            let _ = writeln!(out, "{} {}", k.render(), v);
        }
        last = "";
        for (k, v) in &self.gauges {
            if k.name != last {
                let _ = writeln!(out, "# HELP {} simulation gauge", k.name);
                let _ = writeln!(out, "# TYPE {} gauge", k.name);
                last = k.name;
            }
            let _ = writeln!(out, "{} {}", k.render(), fmt_f64(*v));
        }
        last = "";
        for (k, h) in &self.histograms {
            if k.name != last {
                let _ = writeln!(out, "# HELP {} simulation histogram", k.name);
                let _ = writeln!(out, "# TYPE {} histogram", k.name);
                last = k.name;
            }
            let mut cum = 0u64;
            for (idx, c) in h.counts().iter().enumerate() {
                cum += c;
                let le = h
                    .bounds()
                    .get(idx)
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "+Inf".into());
                let _ = writeln!(
                    out,
                    "{}_bucket{{i=\"{}\",j=\"{}\",le=\"{}\"}} {}",
                    k.name, k.i, k.j, le, cum
                );
            }
            let _ = writeln!(
                out,
                "{}_sum{{i=\"{}\",j=\"{}\"}} {}",
                k.name,
                k.i,
                k.j,
                h.sum()
            );
            let _ = writeln!(
                out,
                "{}_count{{i=\"{}\",j=\"{}\"}} {}",
                k.name,
                k.i,
                k.j,
                h.total()
            );
        }
        last = "";
        for (k, series) in &self.timelines {
            if k.name != last {
                let _ = writeln!(out, "# HELP {}_total_ns simulation timeline rollup", k.name);
                let _ = writeln!(out, "# TYPE {}_total_ns counter", k.name);
                last = k.name;
            }
            let total: f64 = series.iter().sum();
            let _ = writeln!(
                out,
                "{}_total_ns{{i=\"{}\",j=\"{}\"}} {}",
                k.name,
                k.i,
                k.j,
                fmt_f64(total)
            );
        }
        out
    }

    /// The snapshot as a JSON document (hand-rolled, no serde in this
    /// repo); always passes [`validate_json_doc`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bucket_ns\": {},", self.bucket_ns);
        out.push_str("  \"counters\": [\n");
        for (idx, (k, v)) in self.counters.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"i\": {}, \"j\": {}, \"value\": {}}}{}",
                k.name,
                k.i,
                k.j,
                v,
                comma(idx, self.counters.len())
            );
        }
        out.push_str("  ],\n  \"gauges\": [\n");
        for (idx, (k, v)) in self.gauges.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"i\": {}, \"j\": {}, \"value\": {}}}{}",
                k.name,
                k.i,
                k.j,
                fmt_f64(*v),
                comma(idx, self.gauges.len())
            );
        }
        out.push_str("  ],\n  \"histograms\": [\n");
        for (idx, (k, h)) in self.histograms.iter().enumerate() {
            let bounds: Vec<String> = h.bounds().iter().map(|b| b.to_string()).collect();
            let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
            // Exemplar fields appear only when a traced sample exists, so
            // snapshots from untraced runs stay byte-identical to before
            // exemplars existed.
            let exemplar = match h.max_sample() {
                Some((v, id)) => format!(", \"exemplar_value\": {v}, \"exemplar_trace\": {id}"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"i\": {}, \"j\": {}, \"bounds\": [{}], \"counts\": [{}], \"count\": {}, \"sum\": {}{}}}{}",
                k.name,
                k.i,
                k.j,
                bounds.join(", "),
                counts.join(", "),
                h.total(),
                h.sum(),
                exemplar,
                comma(idx, self.histograms.len())
            );
        }
        out.push_str("  ],\n  \"timelines\": [\n");
        for (idx, (k, series)) in self.timelines.iter().enumerate() {
            let vals: Vec<String> = series.iter().map(|v| fmt_f64(*v)).collect();
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"i\": {}, \"j\": {}, \"busy_ns\": [{}]}}{}",
                k.name,
                k.i,
                k.j,
                vals.join(", "),
                comma(idx, self.timelines.len())
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn comma(idx: usize, len: usize) -> &'static str {
    if idx + 1 < len {
        ","
    } else {
        ""
    }
}

/// Format an `f64` for JSON/exposition: finite, decimal, deterministic.
/// Non-finite values (which the registry never produces from valid spans)
/// are clamped to 0 so artifacts always validate.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
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

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = Registry::disabled();
        r.add("c", 0, 0, 5);
        r.gauge_set("g", 0, 0, 1.0);
        r.observe("h", 0, 0, US_BOUNDS, 10);
        r.span("t", 0, 0, t(0), t(100));
        let s = r.snapshot();
        assert_eq!(s, Snapshot::default());
        assert!(!r.is_enabled());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let mut r = Registry::enabled(Dur::from_us(10));
        r.add("msgs", 0, 1, 3);
        r.incr("msgs", 0, 1);
        assert_eq!(r.counter("msgs", 0, 1), 4);
        assert_eq!(r.counter("msgs", 1, 0), 0);

        r.gauge_set("depth", 0, 0, 2.0);
        r.gauge_max("depth", 0, 0, 5.0);
        r.gauge_max("depth", 0, 0, 1.0);
        assert_eq!(r.gauge("depth", 0, 0), Some(5.0));

        r.observe("lat_us", 0, 0, US_BOUNDS, 60);
        r.observe("lat_us", 0, 0, US_BOUNDS, 1_000_000);
        let h = r.histogram("lat_us", 0, 0).unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts()[1], 1); // 60 <= 100
        assert_eq!(*h.counts().last().unwrap(), 1); // overflow
        assert_eq!(h.sum(), 1_000_060);
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
        let names: Vec<_> = a
            .snapshot()
            .counters
            .iter()
            .map(|(k, _)| k.render())
            .collect();
        assert_eq!(
            names,
            vec![
                "a{i=\"9\",j=\"9\"}",
                "x{i=\"0\",j=\"1\"}",
                "x{i=\"1\",j=\"0\"}"
            ]
        );
    }

    #[test]
    fn a_name_is_its_text_not_its_address() {
        // The same literal in two crates is two addresses; interning must
        // still see one metric, and totals read the live registry.
        let elsewhere: &'static str = Box::leak(String::from("msgs").into_boxed_str());
        let mut r = Registry::enabled(Dur::from_us(10));
        r.add("msgs", 0, 1, 3);
        r.add(elsewhere, 0, 1, 4);
        r.add(elsewhere, 2, 0, 5);
        r.add("other", 0, 1, 100);
        assert_eq!(r.counter("msgs", 0, 1), 7);
        assert_eq!(r.counter_total("msgs"), 12);
        assert_eq!(r.counter_total("never_recorded"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 3);
        assert_eq!(snap.counter_total("msgs"), 12);
        assert!(snap.counters.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn delta_since_subtracts_counters_and_histogram_buckets() {
        let mut r = Registry::enabled(Dur::from_us(10));
        r.add("msgs", 0, 1, 10);
        r.observe("lat_us", 0, 0, US_BOUNDS, 60);
        r.gauge_set("depth", 0, 0, 2.0);
        let base = r.snapshot();

        r.add("msgs", 0, 1, 5);
        r.add("new_counter", 2, 2, 7); // absent from the baseline
        r.observe("lat_us", 0, 0, US_BOUNDS, 60);
        r.observe("lat_us", 0, 0, US_BOUNDS, 1_000_000);
        r.gauge_set("depth", 0, 0, 9.0);

        let d = r.delta_since(&base);
        assert_eq!(d.counter("msgs", 0, 1), 5);
        assert_eq!(d.counter("new_counter", 2, 2), 7);
        assert_eq!(d.counter_total("msgs"), 5);
        // Gauges are levels: the delta carries the current value.
        assert_eq!(
            d.gauges,
            vec![(
                MetricKey {
                    name: "depth",
                    i: 0,
                    j: 0
                },
                9.0
            )]
        );
        let (_, h) = &d.histograms[0];
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts()[1], 1); // one new 60 µs observation
        assert_eq!(*h.counts().last().unwrap(), 1); // one new overflow
        assert_eq!(h.sum(), 1_000_060);
    }

    #[test]
    fn delta_since_empty_baseline_equals_snapshot() {
        let mut r = Registry::enabled(Dur::from_us(10));
        r.add("c", 0, 0, 3);
        r.observe("h", 1, 0, US_BOUNDS, 99);
        r.span("t", 0, 1, t(0), t(15));
        assert_eq!(r.delta_since(&Snapshot::default()), r.snapshot());
        // Deltas are deterministic and key-sorted exactly like snapshots.
        assert_eq!(
            r.delta_since(&Snapshot::default()),
            r.delta_since(&Snapshot::default())
        );
    }

    #[test]
    fn delta_since_full_baseline_is_zero_counters() {
        let mut r = Registry::enabled(Dur::from_us(10));
        r.add("c", 0, 0, 3);
        r.observe("h", 1, 0, US_BOUNDS, 99);
        let snap = r.snapshot();
        let d = r.delta_since(&snap);
        assert_eq!(d.counter("c", 0, 0), 0);
        assert_eq!(d.histograms[0].1.total(), 0);
        assert_eq!(d.histograms[0].1.sum(), 0);
    }

    #[test]
    fn prometheus_and_json_expositions_are_well_formed() {
        let mut r = Registry::enabled(Dur::from_us(10));
        r.add("fabric_messages", 0, 1, 7);
        r.add("fabric_messages", 1, 0, 3);
        r.add("fabric_messages", 2, 1, 4);
        r.gauge_set("serve_queue_depth", 0, 0, 3.0);
        r.observe("serve_latency_us", 0, 0, US_BOUNDS, 420);
        r.observe("serve_latency_us", 1, 0, US_BOUNDS, 90);
        r.span("link_busy_ns", 0, 1, t(0), t(25));
        let snap = r.snapshot();

        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE fabric_messages counter"));
        assert!(text.contains("# HELP fabric_messages "));
        assert!(text.contains("fabric_messages{i=\"0\",j=\"1\"} 7"));
        assert!(text.contains("serve_latency_us_bucket{i=\"0\",j=\"0\",le=\"500\"} 1"));
        assert!(text.contains("serve_latency_us_count{i=\"0\",j=\"0\"} 1"));
        assert!(text.contains("link_busy_ns_total_ns{i=\"0\",j=\"1\"} 25000"));
        // Exactly one TYPE and one HELP line per metric name, even with
        // several labelled series under the same name.
        for name in ["fabric_messages", "serve_latency_us"] {
            for kind in ["# TYPE", "# HELP"] {
                let n = text
                    .lines()
                    .filter(|l| l.starts_with(&format!("{kind} {name} ")))
                    .count();
                assert_eq!(n, 1, "{kind} for {name} must appear exactly once");
            }
        }
        // Every HELP line is immediately followed by its TYPE line.
        let lines: Vec<&str> = text.lines().collect();
        for (i, l) in lines.iter().enumerate() {
            if let Some(rest) = l.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(
                    lines[i + 1].starts_with(&format!("# TYPE {name} ")),
                    "HELP for {name} must precede its TYPE"
                );
            }
        }

        let json = snap.to_json();
        validate_json_doc(
            &json,
            &[
                "\"bucket_ns\"",
                "\"counters\"",
                "\"gauges\"",
                "\"histograms\"",
                "\"timelines\"",
                "\"busy_ns\"",
            ],
        )
        .unwrap();
    }

    #[test]
    fn exemplar_tracks_max_traced_sample_only() {
        let mut r = Registry::enabled(Dur::from_us(10));
        r.observe("lat_us", 0, 0, US_BOUNDS, 500);
        assert_eq!(r.histogram("lat_us", 0, 0).unwrap().max_sample(), None);
        r.observe_traced("lat_us", 0, 0, US_BOUNDS, 300, 7);
        r.observe_traced("lat_us", 0, 0, US_BOUNDS, 900, 42);
        r.observe_traced("lat_us", 0, 0, US_BOUNDS, 900, 99); // tie: first wins
        r.observe_traced("lat_us", 0, 0, US_BOUNDS, 100, 13);
        let h = r.histogram("lat_us", 0, 0).unwrap();
        assert_eq!(h.max_sample(), Some((900, 42)));
        assert_eq!(h.total(), 5);
        // The exemplar rides into the snapshot JSON; untraced histograms
        // carry no exemplar fields at all.
        let json = r.snapshot().to_json();
        assert!(json.contains("\"exemplar_value\": 900, \"exemplar_trace\": 42"));
        let mut plain = Registry::enabled(Dur::from_us(10));
        plain.observe("lat_us", 0, 0, US_BOUNDS, 500);
        assert!(!plain.snapshot().to_json().contains("exemplar"));
        validate_json_doc(&json, &["\"exemplar_value\""]).unwrap();
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
