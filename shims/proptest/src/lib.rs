//! Minimal re-implementation of the `proptest` API surface used by this
//! workspace's property tests.
//!
//! The build environment has no access to crates.io (see shims/README.md),
//! so this crate supplies the subset the tests rely on: `proptest!` with an
//! optional `proptest_config` attribute, `any::<T>()`, integer ranges and
//! tuples as strategies, `prop_map`, `Just`, weighted `prop_oneof!`,
//! `prop::collection::vec`, and the `prop_assert*` macros.
//!
//! Differences from the real crate, deliberate for simplicity:
//! - Value generation is purely random (deterministic per test name); there
//!   is no shrinking. A failing case panics with the case number so it can
//!   be replayed — the stream for a given test function never changes.
//! - `.proptest-regressions` files are ignored.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::RngExt;

/// The generator threaded through strategies while producing a test case.
pub type TestRng = StdRng;

/// Failure value for property bodies that return `Result`, mirroring
/// `proptest::test_runner::TestCaseError`. The shim's `prop_assert*` macros
/// panic instead of constructing this, but helper functions in tests can
/// still name it and propagate with `?`.
#[derive(Debug)]
pub enum TestCaseError {
    /// The property was falsified.
    Fail(String),
    /// The input was rejected (not a failure).
    Reject(String),
}

impl TestCaseError {
    /// Build a failure from any message.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
        }
    }
}

/// Runner configuration, mirroring the `proptest::prelude::ProptestConfig`
/// fields this workspace sets.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
    /// Accepted for source compatibility with real proptest; this shim
    /// does not shrink failing inputs, so the value is never consulted.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    /// 256 cases, overridable at runtime with the `PROPTEST_CASES`
    /// environment variable — the same knob real proptest honours, so
    /// `PROPTEST_CASES=512 cargo test` deepens every property that uses
    /// the default config without a rebuild.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(256);
        ProptestConfig { cases, max_shrink_iters: 1024 }
    }
}

/// A source of random values of an associated type.
///
/// Object-safe core (`new_value`) plus sized combinators, so strategies can
/// be boxed for heterogeneous `prop_oneof!` arms.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produce one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform produced values with `f`.
    fn prop_map<O, F>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        strategy::Map { source: self, map: f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy, as produced by [`Strategy::boxed`].
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        self.0.new_value(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy, mirroring
/// `proptest::arbitrary::Arbitrary`.
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.random::<u64>() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.random()
    }
}

/// Strategy for any value of `T`, returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing any value of `T`, mirroring `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                if hi == <$t>::MAX {
                    <$t>::arbitrary(rng).max(lo)
                } else {
                    rng.random_range(lo..hi + 1)
                }
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Strategy combinators.
pub mod strategy {
    use super::{Strategy, TestRng};

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) source: S,
        pub(crate) map: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.map)(self.source.new_value(rng))
        }
    }

    /// Weighted choice between boxed strategies; built by `prop_oneof!`.
    pub struct Union<T> {
        arms: Vec<(u32, super::BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Build from `(weight, strategy)` arms. Weights must sum > 0.
        pub fn new_weighted(arms: Vec<(u32, super::BoxedStrategy<T>)>) -> Self {
            let total = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs a positive total weight");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            use rand::RngExt;
            let mut pick = rng.random_range(0..self.total);
            for (weight, arm) in &self.arms {
                if pick < *weight as u64 {
                    return arm.new_value(rng);
                }
                pick -= *weight as u64;
            }
            unreachable!("weights covered the full range")
        }
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for `Vec<S::Value>` with length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// Generate vectors of values from `element`, with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(!len.is_empty(), "collection::vec length range is empty");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            use rand::RngExt;
            let n = rng.random_range(self.len.clone());
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Test-execution support used by the `proptest!` macro expansion.
pub mod test_runner {
    use super::TestRng;
    use rand::SeedableRng;

    /// Per-test deterministic runner state.
    pub struct TestRunner {
        rng: TestRng,
    }

    impl TestRunner {
        /// Seed deterministically from the test function's name, so each
        /// property sees a stable stream across runs.
        pub fn new(test_name: &str) -> Self {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
            TestRunner { rng: TestRng::seed_from_u64(hash) }
        }

        /// Access the case-generation RNG.
        pub fn rng(&mut self) -> &mut TestRng {
            &mut self.rng
        }
    }
}

/// Common imports for property tests, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
    /// Alias so `prop::collection::vec(..)` resolves, as in the real crate.
    pub use crate as prop;
}

/// Property-test entry point. Supports an optional leading
/// `#![proptest_config(..)]` and any number of `#[test] fn name(arg in
/// strategy, ..) { .. }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut runner = $crate::test_runner::TestRunner::new(stringify!($name));
                $(let $arg = $strat;)+
                for case in 0..cfg.cases {
                    let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                        $(let $arg = $crate::Strategy::new_value(&$arg, runner.rng());)+
                        // Closure so property bodies can use `?` with
                        // helpers returning `Result<_, TestCaseError>`.
                        #[allow(clippy::redundant_closure_call)]
                        let outcome = (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                            $body
                            Ok(())
                        })();
                        if let Err(e) = outcome {
                            panic!("{}", e);
                        }
                    }));
                    if let Err(payload) = result {
                        eprintln!(
                            "proptest shim: property `{}` failed on case {}/{} \
                             (deterministic stream; rerun reproduces it)",
                            stringify!($name), case + 1, cfg.cases,
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

/// Weighted one-of strategy choice: `prop_oneof![w1 => s1, w2 => s2, ...]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// Assert inside a property; panics (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert inside a property; panics (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assert inside a property; panics (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Put(u8, u16),
        Del(u8),
        Flush,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Put(k, v)),
            2 => any::<u8>().prop_map(Op::Del),
            1 => Just(Op::Flush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(x in 0u8..8, v in prop::collection::vec(any::<u16>(), 1..20)) {
            prop_assert!(x < 8);
            prop_assert!(!v.is_empty() && v.len() < 20);
        }

        #[test]
        fn oneof_yields_every_arm(ops in prop::collection::vec(op_strategy(), 1..120)) {
            // Not a strict guarantee per case, but the strategy must compile
            // and yield valid values.
            for op in &ops {
                match op {
                    Op::Put(_, _) | Op::Del(_) | Op::Flush => {}
                }
            }
            prop_assert_ne!(ops.len(), 0);
        }
    }

    #[test]
    fn deterministic_stream_per_test_name() {
        use crate::test_runner::TestRunner;
        let mut a = TestRunner::new("alpha");
        let mut b = TestRunner::new("alpha");
        let s = any::<u64>();
        for _ in 0..16 {
            assert_eq!(s.new_value(a.rng()), s.new_value(b.rng()));
        }
    }
}
