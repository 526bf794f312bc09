//! SLO accounting: streaming latency statistics with nearest-rank
//! quantiles.

use desim::Dur;

/// A bag of latency samples with quantile accounting.
///
/// Quantiles use the nearest-rank method on the sorted samples, which is
/// exact (no interpolation) and well-defined for any sample count; every
/// accessor returns [`Dur::ZERO`] on an empty stream instead of panicking,
/// so degenerate sweeps (zero served requests at overload) stay total.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    samples: Vec<Dur>,
}

impl LatencyStats {
    /// An empty stream.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Record one latency sample.
    pub fn record(&mut self, d: Dur) {
        self.samples.push(d);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, [`Dur::ZERO`] if empty.
    pub fn mean(&self) -> Dur {
        if self.samples.is_empty() {
            return Dur::ZERO;
        }
        let total: u64 = self.samples.iter().map(|d| d.as_ns()).sum();
        Dur::from_ns(total / self.samples.len() as u64)
    }

    /// Largest sample, [`Dur::ZERO`] if empty.
    pub fn max(&self) -> Dur {
        self.samples.iter().copied().max().unwrap_or(Dur::ZERO)
    }

    /// Nearest-rank quantile for `q` in `[0, 1]`; [`Dur::ZERO`] if empty.
    pub fn quantile(&self, q: f64) -> Dur {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
        if self.samples.is_empty() {
            return Dur::ZERO;
        }
        // The rank-`idx` element of the sorted samples, by selection: O(n)
        // per call where a full sort of every served request's latency was
        // several O(n log n) passes per load point.
        let mut scratch = self.samples.clone();
        let idx = ((scratch.len() - 1) as f64 * q).round() as usize;
        *scratch.select_nth_unstable(idx).1
    }

    /// Median latency.
    pub fn p50(&self) -> Dur {
        self.quantile(0.50)
    }

    /// 99th-percentile latency — the sweep's SLO metric.
    pub fn p99(&self) -> Dur {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency.
    pub fn p999(&self) -> Dur {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_is_all_zero() {
        let s = LatencyStats::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.mean(), Dur::ZERO);
        assert_eq!(s.max(), Dur::ZERO);
        assert_eq!(s.p50(), Dur::ZERO);
        assert_eq!(s.p99(), Dur::ZERO);
        assert_eq!(s.p999(), Dur::ZERO);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut s = LatencyStats::new();
        s.record(Dur::from_us(42));
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile(q), Dur::from_us(42));
        }
        assert_eq!(s.mean(), Dur::from_us(42));
        assert_eq!(s.max(), Dur::from_us(42));
    }

    #[test]
    fn quantiles_are_order_invariant_and_monotone() {
        let mut s = LatencyStats::new();
        for ns in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 10] {
            s.record(Dur::from_ns(ns));
        }
        assert_eq!(s.quantile(0.0), Dur::from_ns(1));
        assert_eq!(s.quantile(1.0), Dur::from_ns(10));
        assert_eq!(s.p50(), Dur::from_ns(6)); // nearest rank: idx round(9*0.5)=5
        assert!(s.p50() <= s.p99());
        assert!(s.p99() <= s.p999());
        assert!(s.p999() <= s.max());
    }

    #[test]
    fn selection_matches_the_sorted_reference_on_10k_samples() {
        // Duplicates included (values mod 4093), in a scrambled order.
        let ns: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 4093)
            .collect();
        let mut s = LatencyStats::new();
        for &v in &ns {
            s.record(Dur::from_ns(v));
        }
        let mut sorted = ns;
        sorted.sort_unstable();
        for q in [0.0, 0.001, 0.25, 0.5, 0.75, 0.99, 0.999, 1.0] {
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            assert_eq!(s.quantile(q), Dur::from_ns(sorted[idx]), "q = {q}");
        }
    }
}
