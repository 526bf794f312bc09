//! Small-sample statistics, the difference method, and the simulated-output
//! digest.

/// First quartile, median and third quartile of `values`, computed exactly
/// as Python's `statistics.quantiles(values, n=4)` (the exclusive method):
/// the driver judges run-to-run spread with that function, so the
/// benchmark's own spread figures use the same arithmetic.
///
/// # Panics
/// If `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n == 1 {
        return (x[0], x[0], x[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // May exceed 4 (or go below 0) at the clamped ends: Python
        // extrapolates there and so does this.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a percentage of the median (0 for one sample).
pub fn iqr_pct(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        100.0 * (q3 - q1) / med
    }
}

/// Difference method: the marginal cost of one unit of work from two runs
/// that differ only in how many units they do, so every fixed cost
/// (planning, machine construction) cancels.
pub fn marginal(small: (f64, u64), big: (f64, u64)) -> f64 {
    assert!(
        big.1 > small.1,
        "difference method needs more work in `big`"
    );
    (big.0 - small.0) / (big.1 - small.1) as f64
}

/// 32-bit FNV-1a over the simulated outputs of a repetition. A fixed seed
/// must reproduce it exactly — across repetitions, across the untraced and
/// the traced run, and across any PR that only makes the simulator faster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u32);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x811c_9dc5)
    }
}

impl Digest {
    /// Fold one 64-bit simulated output (a time in ns, a count) in.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u32::from(b)).wrapping_mul(0x0100_0193);
        }
    }

    /// Fold a float in by its bit pattern (exact-repeat, not approximate).
    pub fn push_f64(&mut self, v: f64) {
        self.push(v.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 4.0, 6.0));
        assert_eq!(quartiles(&[4.5]), (4.5, 4.5, 4.5));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(iqr_pct(&v), 100.0);
        assert_eq!(iqr_pct(&[2.0]), 0.0);
    }

    #[test]
    fn difference_method_cancels_the_fixed_cost() {
        // 0.30 s fixed + 0.01 s per batch, measured at 4 and at 20 batches.
        let per = marginal((0.30 + 4.0 * 0.01, 4), (0.30 + 20.0 * 0.01, 20));
        assert!((per - 0.01).abs() < 1e-12);
    }

    #[test]
    fn digest_is_order_sensitive_and_repeatable() {
        let mut a = Digest::default();
        a.push(1);
        a.push(2);
        let mut b = Digest::default();
        b.push(2);
        b.push(1);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.push(1);
        c.push(2);
        assert_eq!(a.value(), c.value());
        let mut d = Digest::default();
        d.push_f64(0.5);
        assert_ne!(d.value(), Digest::default().value());
    }
}
