//! Simulation time types.
//!
//! [`SimTime`] is an absolute instant (nanoseconds since simulation start);
//! [`Dur`] is a span. Keeping the two distinct prevents the classic bug of
//! adding two absolute timestamps.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute simulation instant, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl SimTime {
    /// Simulation start (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; useful as an "unscheduled" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }
    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    /// Raw nanoseconds since start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }
    /// Seconds since start as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Milliseconds since start as `f64`.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Microseconds since start as `f64`.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
    /// Span since an earlier instant. Panics if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier:?}) is after self ({self:?})"
        );
        Dur(self.0 - earlier.0)
    }
}

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Construct from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Dur(ns)
    }
    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Dur(us * 1_000)
    }
    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }
    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "Dur::from_secs_f64: invalid duration {secs}"
        );
        Dur(round_to_u64(secs * 1e9))
    }
    /// Raw nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }
    /// Seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Milliseconds as `f64`.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Microseconds as `f64`.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// The longer of two spans.
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }
    /// The shorter of two spans.
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }
    /// True if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: SimTime) -> Dur {
        self.since(rhs)
    }
}

impl Sub<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Dur) -> SimTime {
        assert!(
            self.0 >= rhs.0,
            "SimTime - Dur underflow: {self:?} - {rhs:?}"
        );
        SimTime(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("Dur overflow"))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        assert!(self.0 >= rhs.0, "Dur underflow: {self:?} - {rhs:?}");
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.checked_mul(rhs).expect("Dur overflow"))
    }
}

impl Mul<f64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: f64) -> Dur {
        assert!(rhs.is_finite() && rhs >= 0.0, "Dur * {rhs}: invalid factor");
        Dur(round_to_u64(self.0 as f64 * rhs))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

/// `x.round() as u64` for finite `x >= 0` without the libm call. Below 2^53
/// the truncation `t` and the fraction `x - t` are exact, so comparing the
/// fraction with one half rounds half away from zero; from 2^53 up every
/// `f64` is an integer and the (saturating) cast is it.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    debug_assert!(x.is_finite() && x >= 0.0, "round_to_u64({x})");
    let t = x as u64;
    if x < 9_007_199_254_740_992.0 && x - t as f64 >= 0.5 {
        t + 1
    } else {
        t
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(3).as_ns(), 3_000_000);
        assert_eq!(Dur::from_us(7).as_ns(), 7_000);
        assert_eq!(Dur::from_ms(7).as_ns(), 7_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(100) + Dur::from_ns(50);
        assert_eq!(t.as_ns(), 150);
        assert_eq!((t - SimTime::from_ns(100)).as_ns(), 50);
        assert_eq!((Dur::from_ns(10) + Dur::from_ns(5)).as_ns(), 15);
        assert_eq!((Dur::from_ns(10) - Dur::from_ns(5)).as_ns(), 5);
        assert_eq!((Dur::from_ns(10) * 3).as_ns(), 30);
        assert_eq!((Dur::from_ns(10) / 2).as_ns(), 5);
    }

    #[test]
    fn float_conversions() {
        assert!((Dur::from_secs_f64(1.5).as_ns() as i64 - 1_500_000_000).abs() <= 1);
        assert!((SimTime::from_ms(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((Dur::from_us(1500).as_millis_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn scalar_float_mul_rounds() {
        assert_eq!((Dur::from_ns(10) * 0.25).as_ns(), 3); // 2.5 rounds to 3 (round half away)
        assert_eq!((Dur::from_ns(100) * 0.5).as_ns(), 50);
    }

    #[test]
    fn exact_rounding_is_f64_round_on_edge_values() {
        let same = |x: f64| assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        // The largest double below one half (where `floor(x + 0.5)` is
        // wrong), exact halves, and the grid around 2^52 and 2^53 where the
        // spacing of doubles passes 0.5 and then 1.
        for x in [0.0, 0.49999999999999994, 0.5, 0.5000000000000001, 1.0] {
            same(x);
        }
        for k in [0u64, 1, 2, 3, 1_000_000_007, (1 << 51) - 1, (1 << 52) - 1] {
            let h = k as f64 + 0.5;
            for x in [
                f64::from_bits(h.to_bits() - 1),
                h,
                f64::from_bits(h.to_bits() + 1),
            ] {
                same(x);
            }
        }
        for p in [51, 52, 53, 54, 63, 64, 70] {
            let x = (2.0f64).powi(p);
            for bits in x.to_bits() - 3..=x.to_bits() + 3 {
                same(f64::from_bits(bits));
            }
        }
        same(f64::MAX);
    }

    proptest::proptest! {
        /// Random bit patterns over every binade a duration can land in,
        /// and the two constructors that go through the helper.
        #[test]
        fn exact_rounding_is_f64_round_everywhere(bits in 0u64..0x4450_0000_0000_0000, ns in 0u64..1 << 40, f in 0.0f64..8.0) {
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(round_to_u64(x), x.round() as u64);
            proptest::prop_assert_eq!((Dur::from_ns(ns) * f).as_ns(), (ns as f64 * f).round() as u64);
            proptest::prop_assert_eq!(Dur::from_secs_f64(f).as_ns(), (f * 1e9).round() as u64);
        }
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_on_negative_span() {
        let _ = SimTime::from_ns(5).since(SimTime::from_ns(10));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn dur_sub_underflow_panics() {
        let _ = Dur::from_ns(1) - Dur::from_ns(2);
    }

    #[test]
    fn saturating_sub() {
        assert_eq!(Dur::from_ns(1).saturating_sub(Dur::from_ns(2)), Dur::ZERO);
        assert_eq!(
            Dur::from_ns(5).saturating_sub(Dur::from_ns(2)),
            Dur::from_ns(3)
        );
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Dur::from_ns(1).max(Dur::from_ns(2)), Dur::from_ns(2));
        assert_eq!(Dur::from_ns(1).min(Dur::from_ns(2)), Dur::from_ns(1));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Dur::from_ns(12)), "12ns");
        assert_eq!(format!("{}", Dur::from_us(12)), "12.000us");
        assert_eq!(format!("{}", Dur::from_ms(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::from_ms(12_000)), "12.000s");
    }

    #[test]
    fn dur_sum() {
        let total: Dur = [Dur::from_ns(1), Dur::from_ns(2), Dur::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total.as_ns(), 6);
    }
}
