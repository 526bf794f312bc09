//! In-tree stand-in for the `rand` crate (the build environment has no
//! network access to crates.io). Implements exactly the API surface the
//! workspace uses — `StdRng::seed_from_u64`, `Rng::gen_range`,
//! `distributions::{Distribution, Uniform}` — on top of a SplitMix64
//! generator, plus an O(1) jump ahead upstream lacks (`StdRng::advance`).
//! Streams are deterministic per seed but are *not* the upstream `rand`
//! streams; everything in this workspace that consumes them is
//! self-consistent (golden values live in-repo).

/// Core RNG state: SplitMix64, which passes BigCrush and needs one u64 of
/// state — plenty for synthetic workload generation.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

/// SplitMix64's per-draw state increment (the golden-ratio Weyl step).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The workspace's standard RNG.
pub type StdRngInner = SplitMix64;

/// Seedable generators (mirror of `rand::SeedableRng` for the one
/// constructor used here).
pub trait SeedableRng: Sized {
    /// Build from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Ranges (and other shapes) that can produce a uniform sample.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_from(self, rng: &mut rngs::StdRng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let width = (self.end as u128).wrapping_sub(self.start as u128);
                (self.start as u128 + (rng.0.next_u64() as u128 % width)) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let width = (hi as u128) - (lo as u128) + 1;
                (lo as u128 + (rng.0.next_u64() as u128 % width)) as $t
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let width = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.0.next_u64() as u128 % width) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let width = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + (rng.0.next_u64() as u128 % width) as i128) as $t
            }
        }
        #[allow(unused)]
        const _: $u = 0;
    )*};
}
impl_signed_range!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let f = rng.0.next_f64() as $t;
                self.start + f * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let f = rng.0.next_f64() as $t;
                lo + f * (hi - lo)
            }
        }
    )*};
}
impl_float_range!(f32, f64);

/// Mirror of the subset of `rand::Rng` the workspace uses.
pub trait Rng {
    /// Uniform sample from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
}

/// RNG implementations, mirroring `rand::rngs`.
pub mod rngs {
    use super::{SeedableRng, SplitMix64};

    /// Deterministic standard RNG (SplitMix64 under the hood).
    #[derive(Clone, Debug)]
    pub struct StdRng(pub(crate) SplitMix64);

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(SplitMix64 { state: seed })
        }
    }

    impl StdRng {
        /// Skip `n` draws in O(1): the state is a counter stepped by a
        /// constant. Every `gen_range` takes one draw, so the next sample is
        /// the stream's `n`-th (0-based).
        #[inline]
        pub fn advance(&mut self, n: u64) {
            self.0.state = self.0.state.wrapping_add(n.wrapping_mul(super::GAMMA));
        }
    }

    impl super::Rng for StdRng {
        #[inline]
        fn gen_range<T, R: super::SampleRange<T>>(&mut self, range: R) -> T {
            range.sample_from(self)
        }
    }
}

/// Mirror of `rand::distributions` for `Uniform`.
pub mod distributions {
    use super::rngs::StdRng;
    use super::SampleRange;

    /// A distribution sampled with an RNG.
    pub trait Distribution<T> {
        /// Draw one value.
        fn sample(&self, rng: &mut StdRng) -> T;
    }

    /// Uniform distribution over a closed or half-open interval.
    #[derive(Clone, Copy, Debug)]
    pub struct Uniform<T> {
        lo: T,
        hi: T,
        inclusive: bool,
    }

    impl<T: Copy> Uniform<T> {
        /// Uniform over `[lo, hi)`.
        pub fn new(lo: T, hi: T) -> Self {
            Uniform {
                lo,
                hi,
                inclusive: false,
            }
        }

        /// Uniform over `[lo, hi]`.
        pub fn new_inclusive(lo: T, hi: T) -> Self {
            Uniform {
                lo,
                hi,
                inclusive: true,
            }
        }
    }

    impl<T> Distribution<T> for Uniform<T>
    where
        T: Copy,
        std::ops::Range<T>: SampleRange<T>,
        std::ops::RangeInclusive<T>: SampleRange<T>,
    {
        fn sample(&self, rng: &mut StdRng) -> T {
            if self.inclusive {
                (self.lo..=self.hi).sample_from(rng)
            } else {
                (self.lo..self.hi).sample_from(rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::distributions::{Distribution, Uniform};
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1000), b.gen_range(0u64..1000));
        }
        let mut c = StdRng::seed_from_u64(43);
        let same: Vec<u64> = (0..10).map(|_| c.gen_range(0u64..u64::MAX)).collect();
        let mut a = StdRng::seed_from_u64(42);
        let other: Vec<u64> = (0..10).map(|_| a.gen_range(0u64..u64::MAX)).collect();
        assert_ne!(same, other);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10u32..=20);
            assert!((10..=20).contains(&v));
            let f = rng.gen_range(-2.0f32..3.0);
            assert!((-2.0..3.0).contains(&f));
            let d = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(d > 0.0 && d < 1.0);
        }
    }

    #[test]
    fn advance_lands_where_sequential_draws_do() {
        for seed in [0, 1, 42, u64::MAX] {
            for n in [0u64, 1, 2, 63, 64, 1000] {
                let mut walked = StdRng::seed_from_u64(seed);
                for _ in 0..n {
                    walked.gen_range(0u64..=u64::MAX);
                }
                let mut jumped = StdRng::seed_from_u64(seed);
                jumped.advance(n);
                assert_eq!(
                    jumped.gen_range(0u64..=u64::MAX),
                    walked.gen_range(0u64..=u64::MAX),
                    "seed {seed}, n {n}"
                );
                // Floats take one draw each too.
                assert_eq!(
                    jumped.gen_range(-1.0f32..=1.0).to_bits(),
                    walked.gen_range(-1.0f32..=1.0).to_bits()
                );
            }
        }
        // Jumps compose, and wrap with the state like single steps do.
        let mut a = StdRng::seed_from_u64(u64::MAX);
        a.advance(u64::MAX);
        a.advance(3);
        let mut b = StdRng::seed_from_u64(u64::MAX);
        b.advance(2);
        assert_eq!(a.gen_range(0u64..=u64::MAX), b.gen_range(0u64..=u64::MAX));
    }

    #[test]
    fn uniform_distribution_in_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let dist = Uniform::new_inclusive(-1.5f32, 1.5);
        for _ in 0..1000 {
            let v = dist.sample(&mut rng);
            assert!((-1.5..=1.5).contains(&v));
        }
    }
}
