//! Measurement recorders: bucketed time series.
//!
//! [`TimeSeries`] is the workhorse behind the paper's Figures 7 and 10
//! ("communication volume over time"): every byte put on a simulated wire is
//! accumulated into a fixed-width time bucket, and the per-bucket (or
//! cumulative) series is read out at the end of the run.

use crate::{Dur, SimTime};

/// A fixed-bucket-width accumulator over simulation time.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bucket: Dur,
    values: Vec<f64>,
}

impl TimeSeries {
    /// A series with the given bucket width. Panics on a zero width.
    pub fn new(bucket: Dur) -> Self {
        assert!(!bucket.is_zero(), "TimeSeries bucket width must be > 0");
        TimeSeries {
            bucket,
            values: Vec::new(),
        }
    }

    /// Bucket width.
    pub fn bucket_width(&self) -> Dur {
        self.bucket
    }

    /// Add `value` at instant `t`.
    pub fn add(&mut self, t: SimTime, value: f64) {
        let idx = (t.as_ns() / self.bucket.as_ns()) as usize;
        if idx >= self.values.len() {
            self.values.resize(idx + 1, 0.0);
        }
        self.values[idx] += value;
    }

    /// Spread `value` uniformly over `[start, end)` — used to attribute a
    /// transfer's bytes across the interval it occupies the wire. One resize,
    /// then one `+=` per bucket crossed (see [`Spread`]); the interior is a
    /// single slice loop adding one constant.
    pub fn add_spread(&mut self, start: SimTime, end: SimTime, value: f64) {
        let s = Spread::over(self.bucket, start, end, value);
        if s.last >= self.values.len() {
            self.values.resize(s.last + 1, 0.0);
        }
        self.values[s.first] += s.head;
        if s.last > s.first {
            for v in &mut self.values[s.first + 1..s.last] {
                *v += s.mid;
            }
            self.values[s.last] += s.tail;
        }
    }

    /// Per-bucket values.
    pub fn buckets(&self) -> &[f64] {
        &self.values
    }

    /// `(bucket_start_time, value)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (SimTime::from_ns(i as u64 * self.bucket.as_ns()), v))
    }

    /// Running cumulative sum per bucket.
    pub fn cumulative(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.values
            .iter()
            .map(|v| {
                acc += v;
                acc
            })
            .collect()
    }

    /// Sum over all buckets.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Coefficient of variation (stddev / mean) of the per-bucket values over
    /// `[0, horizon)` — a burstiness measure. A perfectly smooth series has
    /// CV 0; a single burst has a large CV. Returns 0 for an empty horizon.
    pub fn burstiness(&self, horizon: SimTime) -> f64 {
        let n = (horizon.as_ns().div_ceil(self.bucket.as_ns())) as usize;
        if n == 0 {
            return 0.0;
        }
        let get = |i: usize| self.values.get(i).copied().unwrap_or(0.0);
        let mean = (0..n).map(get).sum::<f64>() / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = (0..n).map(|i| (get(i) - mean).powi(2)).sum::<f64>() / n as f64;
        var.sqrt() / mean
    }
}

/// How a value spread uniformly over `[start, end)` splits across fixed-width
/// buckets: bucket `first` receives `head`, every bucket strictly between
/// `first` and `last` receives `mid`, and `last` (when it is not `first`)
/// receives `tail`. Each share is `value * (overlap_ns as f64 / span_ns as
/// f64)` — a full bucket's share is one constant — so any accumulator that
/// adds these terms once per bucket, deposits in call order, holds the same
/// bits as [`TimeSeries::add_spread`]. A degenerate span (`end <= start`)
/// puts all of `value` in `start`'s bucket.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Index of the bucket containing `start`.
    pub first: usize,
    /// Index of the last bucket the span overlaps.
    pub last: usize,
    /// Share of bucket `first`.
    pub head: f64,
    /// Share of each bucket in `first + 1..last`.
    pub mid: f64,
    /// Share of bucket `last` when `last > first`.
    pub tail: f64,
}

impl Spread {
    /// Split `value` over `[start, end)` on `bucket`-wide buckets.
    pub fn over(bucket: Dur, start: SimTime, end: SimTime, value: f64) -> Self {
        let (b, s, e) = (bucket.as_ns(), start.as_ns(), end.as_ns());
        let first = (s / b) as usize;
        let last = if e <= s {
            first
        } else {
            ((e - 1) / b) as usize
        };
        if last == first {
            // One bucket takes it all: `value * (span / span)` is `value`.
            return Spread {
                first,
                last,
                head: value,
                mid: 0.0,
                tail: 0.0,
            };
        }
        let total = (e - s) as f64;
        let share = |ns: u64| value * (ns as f64 / total);
        Spread {
            first,
            last,
            head: share((first as u64 + 1) * b - s),
            mid: share(b),
            tail: share(e - last as u64 * b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_series_accumulates_into_buckets() {
        let mut ts = TimeSeries::new(Dur::from_ns(10));
        ts.add(SimTime::from_ns(0), 1.0);
        ts.add(SimTime::from_ns(9), 2.0);
        ts.add(SimTime::from_ns(10), 4.0);
        ts.add(SimTime::from_ns(25), 8.0);
        assert_eq!(ts.buckets(), &[3.0, 4.0, 8.0]);
        assert_eq!(ts.cumulative(), vec![3.0, 7.0, 15.0]);
        assert_eq!(ts.total(), 15.0);
    }

    #[test]
    fn add_spread_conserves_mass() {
        let mut ts = TimeSeries::new(Dur::from_ns(10));
        ts.add_spread(SimTime::from_ns(5), SimTime::from_ns(35), 30.0);
        // 5ns in bucket0, 10 in bucket1, 10 in bucket2, 5 in bucket3.
        assert_eq!(ts.buckets(), &[5.0, 10.0, 10.0, 5.0]);
        assert!((ts.total() - 30.0).abs() < 1e-9);
    }

    /// The per-bucket loop `add_spread` used to be, kept as the oracle: one
    /// division, one `SimTime` round-trip and one `add` per bucket crossed.
    fn add_spread_reference(ts: &mut TimeSeries, start: SimTime, end: SimTime, value: f64) {
        if end <= start {
            ts.add(start, value);
            return;
        }
        let total = (end - start).as_ns() as f64;
        let mut t = start;
        while t < end {
            let bucket_end =
                SimTime::from_ns(((t.as_ns() / ts.bucket.as_ns()) + 1) * ts.bucket.as_ns());
            let seg_end = bucket_end.min(end);
            let frac = (seg_end - t).as_ns() as f64 / total;
            ts.add(t, value * frac);
            t = seg_end;
        }
    }

    fn bits(ts: &TimeSeries) -> Vec<u64> {
        ts.buckets().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        /// The slice form leaves exactly the bits (and the length) the
        /// per-bucket loop left: spans on and off bucket edges, empty and
        /// single-bucket spans, spans of >= 10 000 buckets, and repeated
        /// overlapping deposits into one series.
        #[test]
        fn add_spread_is_bit_identical_to_the_per_bucket_loop(
            bucket in prop_oneof![1u64..8, 10u64..2000, 50_000u64..50_001],
            deposits in prop::collection::vec(
                // (start in buckets, start offset, length in buckets, end offset, value)
                (0u64..40, 0u64..2000, prop_oneof![0u64..3, 0u64..40, 10_000u64..12_000],
                 0u64..2000, 0u64..1_000_000_000),
                1..12,
            ),
            scale in prop_oneof![Just(1.0f64), Just(1.0 / 3.0), Just(1e-9)],
        ) {
            let mut fast = TimeSeries::new(Dur::from_ns(bucket));
            let mut slow = fast.clone();
            for (sb, so, lb, eo, v) in deposits {
                // Offsets of 0 land on bucket edges; lb == 0 with eo <= so
                // gives end <= start.
                let start = sb * bucket + so % bucket;
                let end = (sb + lb) * bucket + eo % bucket;
                let (start, end) = (SimTime::from_ns(start), SimTime::from_ns(end));
                let value = v as f64 * scale;
                fast.add_spread(start, end, value);
                add_spread_reference(&mut slow, start, end, value);
                prop_assert_eq!(fast.buckets().len(), slow.buckets().len());
            }
            prop_assert_eq!(bits(&fast), bits(&slow));
        }
    }

    #[test]
    fn add_spread_degenerate_interval() {
        let mut ts = TimeSeries::new(Dur::from_ns(10));
        ts.add_spread(SimTime::from_ns(7), SimTime::from_ns(7), 3.0);
        assert_eq!(ts.buckets(), &[3.0]);
    }

    #[test]
    fn points_carry_bucket_start_times() {
        let mut ts = TimeSeries::new(Dur::from_us(1));
        ts.add(SimTime::from_us(2), 5.0);
        let pts: Vec<_> = ts.points().collect();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[2], (SimTime::from_us(2), 5.0));
    }

    #[test]
    fn burstiness_flags_bursts() {
        let horizon = SimTime::from_ns(100);
        let mut smooth = TimeSeries::new(Dur::from_ns(10));
        for i in 0..10 {
            smooth.add(SimTime::from_ns(i * 10), 1.0);
        }
        let mut burst = TimeSeries::new(Dur::from_ns(10));
        burst.add(SimTime::from_ns(90), 10.0);
        assert!(smooth.burstiness(horizon) < 1e-9);
        assert!(burst.burstiness(horizon) > 2.0);
        assert_eq!(TimeSeries::new(Dur::from_ns(10)).burstiness(horizon), 0.0);
        assert_eq!(smooth.burstiness(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_panics() {
        let _ = TimeSeries::new(Dur::ZERO);
    }
}
