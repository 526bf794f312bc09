//! In-tree stand-in for `proptest` (the build environment has no network
//! access). Each `proptest!` test runs a fixed number of cases with inputs
//! drawn from a generator seeded deterministically from the test's name, so
//! failures reproduce across runs. There is no shrinking: a failing case
//! panics with the case number and message.

/// Deterministic case generator (SplitMix64).
pub mod rng {
    /// The per-test RNG.
    #[derive(Clone, Debug)]
    pub struct Rng {
        state: u64,
    }

    impl Rng {
        /// Seed from a test name (FNV-1a of the bytes) so every test gets a
        /// stable, distinct stream.
        pub fn from_name(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Rng { state: h }
        }

        /// Next raw 64-bit output.
        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        #[inline]
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, n)`.
        #[inline]
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0);
            self.next_u64() % n
        }
    }
}

/// Test-case plumbing: config and error type.
pub mod test_runner {
    /// Failure raised by `prop_assert!` family; aborts the current case.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Build a failure with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Runner configuration (only `cases` is honored).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of cases each test executes.
        pub cases: u32,
    }

    impl Config {
        /// Config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

/// Strategies: how to draw a value of some type.
pub mod strategy {
    use crate::rng::Rng;

    /// A source of values of type `Value`.
    pub trait Strategy {
        /// The produced type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut Rng) -> Self::Value;

        /// Map produced values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Draw a value, then draw from the strategy it induces.
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut Rng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut Rng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn sample(&self, rng: &mut Rng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Uniform choice between two strategies (built by `prop_oneof!`). The
    /// `Value = A::Value` bounds let integer-literal inference flow across
    /// arms, which a `Box<dyn Strategy>` cast would not.
    pub struct Union2<A, B>(pub A, pub B);

    impl<A: Strategy, B: Strategy<Value = A::Value>> Strategy for Union2<A, B> {
        type Value = A::Value;
        fn sample(&self, rng: &mut Rng) -> A::Value {
            match rng.below(2) {
                0 => self.0.sample(rng),
                _ => self.1.sample(rng),
            }
        }
    }

    /// Uniform choice between three strategies.
    pub struct Union3<A, B, C>(pub A, pub B, pub C);

    impl<A: Strategy, B: Strategy<Value = A::Value>, C: Strategy<Value = A::Value>> Strategy
        for Union3<A, B, C>
    {
        type Value = A::Value;
        fn sample(&self, rng: &mut Rng) -> A::Value {
            match rng.below(3) {
                0 => self.0.sample(rng),
                1 => self.1.sample(rng),
                _ => self.2.sample(rng),
            }
        }
    }

    /// Uniform choice between four strategies.
    pub struct Union4<A, B, C, D>(pub A, pub B, pub C, pub D);

    impl<
            A: Strategy,
            B: Strategy<Value = A::Value>,
            C: Strategy<Value = A::Value>,
            D: Strategy<Value = A::Value>,
        > Strategy for Union4<A, B, C, D>
    {
        type Value = A::Value;
        fn sample(&self, rng: &mut Rng) -> A::Value {
            match rng.below(4) {
                0 => self.0.sample(rng),
                1 => self.1.sample(rng),
                2 => self.2.sample(rng),
                _ => self.3.sample(rng),
            }
        }
    }

    macro_rules! impl_uint_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as u128).wrapping_sub(self.start as u128);
                    (self.start as u128 + (rng.next_u64() as u128 % width)) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let width = (hi as u128) - (lo as u128) + 1;
                    (lo as u128 + (rng.next_u64() as u128 % width)) as $t
                }
            }
        )*};
    }
    impl_uint_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % width) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let width = (hi as i128 - lo as i128 + 1) as u128;
                    (lo as i128 + (rng.next_u64() as u128 % width) as i128) as $t
                }
            }
        )*};
    }
    impl_int_strategy!(i8, i16, i32, i64, isize);

    macro_rules! impl_float_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (rng.next_f64() as $t) * (self.end - self.start)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    lo + (rng.next_f64() as $t) * (hi - lo)
                }
            }
        )*};
    }
    impl_float_strategy!(f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut Rng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::rng::Rng;
    use crate::strategy::Strategy;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draw any value of the type.
        fn arbitrary(rng: &mut Rng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut Rng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut Rng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut Rng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::rng::Rng;
    use crate::strategy::Strategy;

    /// Length specification for [`vec()`]: exact, half-open, or inclusive.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut Rng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `Vec` of values drawn from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The macro/trait surface tests import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespace mirror so `prop::collection::vec` works.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `Config::cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::test_runner::Config::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let mut rng = $crate::rng::Rng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    // The immediately-called closure is load-bearing: it is
                    // what `prop_assert*!`'s early `return Err(..)` exits.
                    #[allow(clippy::redundant_closure_call)]
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut rng);)*
                            $body
                            #[allow(unreachable_code)]
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!("proptest {} case {}/{} failed: {}", stringify!($name), case + 1, config.cases, e);
                    }
                }
            }
        )*
    };
}

/// Uniform choice among strategies producing the same type (2–4 arms).
#[macro_export]
macro_rules! prop_oneof {
    ($a:expr, $b:expr $(,)?) => {
        $crate::strategy::Union2($a, $b)
    };
    ($a:expr, $b:expr, $c:expr $(,)?) => {
        $crate::strategy::Union3($a, $b, $c)
    };
    ($a:expr, $b:expr, $c:expr, $d:expr $(,)?) => {
        $crate::strategy::Union4($a, $b, $c, $d)
    };
}

/// Assert inside a proptest body; failure aborts the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} != {:?}", a, b),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

/// Inequality assertion inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {:?} == {:?}",
                a, b
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3u64..10, y in -2i32..=2, f in 0.5f64..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2..=2).contains(&y));
            prop_assert!((0.5..1.0).contains(&f));
        }

        #[test]
        fn vec_and_tuple(v in prop::collection::vec((0u64..5, 0.0f32..1.0), 1..8)) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            for (a, b) in v {
                prop_assert!(a < 5);
                prop_assert!((0.0..1.0).contains(&b));
            }
        }

        #[test]
        fn map_flat_map_oneof(
            n in (1usize..4).prop_flat_map(|n| prop::collection::vec(Just(n), n)),
            choice in prop_oneof![Just(1u8), Just(2), Just(3)],
        ) {
            prop_assert_eq!(n.len(), n[0]);
            prop_assert!((1..=3).contains(&choice));
            prop_assert_ne!(choice, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_is_honored(x in 0u64..1000) {
            let _ = x;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::rng::Rng::from_name("x");
        let mut b = crate::rng::Rng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
