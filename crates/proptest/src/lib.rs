//! Offline stand-in for `proptest`.
//!
//! Implements the slice of the proptest API this workspace uses:
//! [`Strategy`] with `prop_map`/`prop_flat_map`, range and tuple strategies,
//! [`Just`], `collection::vec`, `bool::ANY`, the `proptest!` /
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!` macros, and
//! [`ProptestConfig`]. Generation is deterministic (derived from the test
//! function's name) and there is no shrinking: a failing case reports its
//! assertion message and panics.

/// Deterministic generator state (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    pub fn new(seed: u64) -> TestRng {
        TestRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift reduction is unbiased enough for test generation.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A source of random values of one type.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategies!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! tuple_strategies {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

pub mod bool {
    use super::{Strategy, TestRng};

    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    pub const ANY: Any = Any;
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// Accepted by [`vec()`]: an exact length or a half-open length range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Controls how many passing cases each `proptest!` function must produce.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// The outcome of a single generated case.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case found a genuine failure.
    Fail(String),
    /// The case did not satisfy a `prop_assume!` precondition.
    Reject,
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject() -> TestCaseError {
        TestCaseError::Reject
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(msg) => write!(f, "{msg}"),
            TestCaseError::Reject => write!(f, "case rejected by prop_assume!"),
        }
    }
}

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Seeds each test function deterministically from its own name, so runs are
/// reproducible and distinct tests explore distinct sequences.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with ($cfg) $($rest)*);
    };
    (@with ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::new($crate::seed_from_name(concat!(
                module_path!(), "::", stringify!($name)
            )));
            let strategy = ($($strat,)+);
            let mut passed: u32 = 0;
            let mut rejected: u32 = 0;
            let reject_budget = config.cases.saturating_mul(64).max(1024);
            while passed < config.cases {
                let ($($pat,)+) = $crate::Strategy::generate(&strategy, &mut rng);
                #[allow(clippy::redundant_closure_call)]
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    Ok(())
                })();
                match outcome {
                    Ok(()) => passed += 1,
                    Err($crate::TestCaseError::Reject) => {
                        rejected += 1;
                        if rejected > reject_budget {
                            // Too few inputs satisfy the preconditions to
                            // reach the requested case count; accept what ran.
                            break;
                        }
                    }
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case failed after {} passing case(s): {}",
                            passed, msg
                        );
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@with ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            left,
            right,
            stringify!($left),
            stringify!($right)
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` == `{:?}` ({} == {})",
            left,
            right,
            stringify!($left),
            stringify!($right)
        );
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..1000 {
            let v = crate::Strategy::generate(&(3i32..10), &mut rng);
            assert!((3..10).contains(&v));
            let w = crate::Strategy::generate(&(0usize..=4), &mut rng);
            assert!(w <= 4);
        }
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = crate::TestRng::new(2);
        for _ in 0..200 {
            let v = crate::Strategy::generate(&crate::collection::vec(0i32..5, 0..7), &mut rng);
            assert!(v.len() < 7);
            assert!(v.iter().all(|&x| (0..5).contains(&x)));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = (0i32..100, 0i32..100).prop_map(|(a, b)| a + b);
        let mut r1 = crate::TestRng::new(9);
        let mut r2 = crate::TestRng::new(9);
        for _ in 0..50 {
            assert_eq!(
                crate::Strategy::generate(&strat, &mut r1),
                crate::Strategy::generate(&strat, &mut r2)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_machinery_works((a, b) in (0i32..50, 0i32..50), c in 1i32..10) {
            prop_assume!(a != 13);
            prop_assert!(a + b >= a, "sum shrank: {a} {b}");
            prop_assert_eq!(c.signum(), 1);
        }
    }

    proptest! {
        #[test]
        fn default_config_variant_works(x in 0u8..=255) {
            let _ = x;
        }
    }
}
