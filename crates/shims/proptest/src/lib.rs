//! Offline stand-in for `proptest`: the `proptest!` macro, `Strategy`
//! trait with `prop_map`, range and tuple strategies, `collection::vec`,
//! and the `prop_assert*` macros.
//!
//! Differences from real proptest: generation is deterministic per test
//! (seeded from the test name), there is no shrinking — a failing case
//! reports its case index and message and panics — and strategies are
//! simple uniform samplers.

use std::ops::Range;

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Test-case failure carried out of a proptest body.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Build a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

/// Runner configuration (subset).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
    /// Unused knob kept for struct-update syntax compatibility.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 32,
            max_shrink_iters: 0,
        }
    }
}

/// Deterministic generator (splitmix64 core).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name, so each test draws an independent stream.
    pub fn from_name(name: &str) -> Self {
        let mut h = 0xcbf29ce484222325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform usize in [lo, hi).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
    {
        MapStrategy { inner: self, f }
    }
}

/// `prop_map` adapter.
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for MapStrategy<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_range_strategy_int!(usize, u64, u32, u16, u8);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<i64> {
    type Value = i64;
    fn generate(&self, rng: &mut TestRng) -> i64 {
        assert!(self.start < self.end, "empty range");
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add((rng.next_u64() % span) as i64)
    }
}

impl Strategy for Range<i32> {
    type Value = i32;
    fn generate(&self, rng: &mut TestRng) -> i32 {
        assert!(self.start < self.end, "empty range");
        let span = (self.end as i64 - self.start as i64) as u64;
        (self.start as i64 + (rng.next_u64() % span) as i64) as i32
    }
}

macro_rules! impl_tuple_strategy {
    ($($idx:tt : $t:ident),+) => {
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(0: A);
impl_tuple_strategy!(0: A, 1: B);
impl_tuple_strategy!(0: A, 1: B, 2: C);
impl_tuple_strategy!(0: A, 1: B, 2: C, 3: D);
impl_tuple_strategy!(0: A, 1: B, 2: C, 3: D, 4: E);

/// A strategy producing a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: a range or an exact length,
    /// mirroring proptest's `Into<SizeRange>` argument.
    pub trait IntoSizeRange {
        /// Convert to a half-open range.
        fn into_size_range(self) -> Range<usize>;
    }

    impl IntoSizeRange for Range<usize> {
        fn into_size_range(self) -> Range<usize> {
            self
        }
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> Range<usize> {
            self..self + 1
        }
    }

    /// Generate a `Vec` whose length is drawn from `len` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, len: impl IntoSizeRange) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into_size_range(),
        }
    }

    /// Strategy for `Vec<S::Value>`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.usize_in(self.len.start, self.len.end.max(self.len.start + 1));
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-test driver used by the expanded `proptest!` macro.
pub struct TestRunner {
    config: ProptestConfig,
    rng: TestRng,
    name: &'static str,
    case: u32,
}

impl TestRunner {
    /// Build a runner for `name`.
    pub fn new(config: ProptestConfig, name: &'static str) -> Self {
        TestRunner {
            rng: TestRng::from_name(name),
            config,
            name,
            case: 0,
        }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.config.cases
    }

    /// The RNG for strategy generation.
    pub fn rng(&mut self) -> &mut TestRng {
        &mut self.rng
    }

    /// Check one case's outcome; panics (failing the test) on `Err`.
    pub fn check(&mut self, result: Result<(), TestCaseError>) {
        if let Err(e) = result {
            panic!(
                "proptest {}: case {}/{} failed: {}",
                self.name,
                self.case + 1,
                self.config.cases,
                e.0
            );
        }
        self.case += 1;
    }
}

/// Define property tests. Mirrors proptest's surface for the forms this
/// workspace uses: an optional `#![proptest_config(...)]` header and
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{($cfg); $($rest)*}
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{($crate::ProptestConfig::default()); $($rest)*}
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($p:pat in $s:expr),* $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut runner = $crate::TestRunner::new(config, stringify!($name));
            for _ in 0..runner.cases() {
                let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $(let $p = $crate::Strategy::generate(&($s), runner.rng());)*
                    $body
                    Ok(())
                })();
                runner.check(result);
            }
        }
        $crate::__proptest_items!{($cfg); $($rest)*}
    };
}

/// Assert within a proptest body; returns a failure instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion within a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}",
                a, b
            )));
        }
    }};
}

/// Inequality assertion within a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} == {:?}",
                a, b
            )));
        }
    }};
}
