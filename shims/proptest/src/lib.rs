//! Offline stand-in for the subset of `proptest` 1.x this workspace
//! uses: the `proptest!` macro, `Strategy` with
//! `prop_map`/`prop_flat_map`/`prop_filter`/`prop_filter_map`,
//! `any::<T>()`, range and tuple strategies, regex-subset string
//! strategies, `collection::vec`, `Just`, `prop_oneof!`, and the
//! `prop_assert*`/`prop_assume!` macros.
//!
//! Semantics: random sampling without shrinking. A failing case panics
//! with the generating seed so it can be replayed via
//! `PROPTEST_SEED`. Rejections (`prop_assume!`, filter misses) retry
//! the case up to a bounded budget, like real proptest.

use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

/// Deterministic SplitMix64 stream used to drive all strategies.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------

/// A generator of values of one type. `sample` returns `None` when the
/// draw is rejected (filter miss); the runner retries the whole case.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, then samples the strategy `f`
    /// builds from it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values satisfying `pred`.
    fn prop_filter<F>(self, whence: impl Into<String>, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        let _ = whence.into();
        Filter { inner: self, pred }
    }

    /// Simultaneously filters and maps; `None` rejects the draw.
    fn prop_filter_map<O, F>(self, whence: impl Into<String>, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<O>,
    {
        let _ = whence.into();
        FilterMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> Option<T> {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
        (**self).sample(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.sample(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> Option<S2::Value> {
        (self.f)(self.inner.sample(rng)?).sample(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
        self.inner.sample(rng).filter(|v| (self.pred)(v))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.sample(rng).and_then(&self.f)
    }
}

/// Always generates a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

// ---------------------------------------------------------------------
// Numeric range strategies
// ---------------------------------------------------------------------

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                Some((self.start as i128 + r as i128) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> Option<$t> {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                Some((lo as i128 + r as i128) as $t)
            }
        }
    )*};
}
impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "empty range strategy");
                Some(self.start + (self.end - self.start) * rng.unit_f64() as $t)
            }
        }
    )*};
}
impl_float_range_strategy!(f32, f64);

// ---------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                wide as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Mostly tame finite values; occasional zero. (Real proptest
        // skews similarly; nothing in this workspace asks for NaN.)
        match rng.below(10) {
            0 => 0.0,
            _ => (rng.unit_f64() - 0.5) * 2e6,
        }
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f64::arbitrary(rng) as f32
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> Option<T> {
        Some(T::arbitrary(rng))
    }
}

// ---------------------------------------------------------------------
// Tuple strategies
// ---------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Option<Self::Value> {
                let ($($name,)+) = self;
                Some(($($name.sample(rng)?,)+))
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

// ---------------------------------------------------------------------
// Regex-subset string strategies
// ---------------------------------------------------------------------

/// `&str` literals act as regex strategies. Supported subset: a
/// sequence of atoms, each a literal character or a `[...]` class
/// (with `a-z` ranges; a trailing `-` is literal), optionally
/// quantified by `{n}` or `{m,n}`.
impl Strategy for &'static str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> Option<String> {
        Some(sample_regex_subset(self, rng))
    }
}

fn sample_regex_subset(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // Parse one atom: a char class or a literal.
        let alphabet: Vec<char> = if chars[i] == '[' {
            let end = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unterminated char class in `{pattern}`"));
            let class = &chars[i + 1..end];
            i = end + 1;
            expand_class(class)
        } else {
            let c = if chars[i] == '\\' && i + 1 < chars.len() {
                i += 1;
                chars[i]
            } else {
                chars[i]
            };
            i += 1;
            vec![c]
        };
        // Parse an optional {n} / {m,n} quantifier.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let end = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unterminated quantifier in `{pattern}`"));
            let body: String = chars[i + 1..end].iter().collect();
            i = end + 1;
            match body.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse::<usize>().expect("quantifier lower bound"),
                    n.trim().parse::<usize>().expect("quantifier upper bound"),
                ),
                None => {
                    let n = body.trim().parse::<usize>().expect("quantifier count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        let count = lo + rng.below((hi - lo + 1) as u64) as usize;
        for _ in 0..count {
            out.push(alphabet[rng.below(alphabet.len() as u64) as usize]);
        }
    }
    out
}

fn expand_class(class: &[char]) -> Vec<char> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < class.len() {
        if class[i] == '\\' && i + 1 < class.len() {
            out.push(class[i + 1]);
            i += 2;
        } else if i + 2 < class.len() && class[i + 1] == '-' {
            let (lo, hi) = (class[i] as u32, class[i + 2] as u32);
            assert!(lo <= hi, "inverted class range");
            out.extend((lo..=hi).filter_map(char::from_u32));
            i += 3;
        } else {
            out.push(class[i]);
            i += 1;
        }
    }
    assert!(!out.is_empty(), "empty char class");
    out
}

// ---------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive element-count bounds for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for vectors of `element` values.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------
// Union (prop_oneof!)
// ---------------------------------------------------------------------

/// Weighted choice among boxed strategies of one value type.
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    /// Builds a union from weighted arms.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> Option<T> {
        let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
        let mut r = rng.below(total.max(1));
        for (w, strat) in &self.arms {
            if r < *w as u64 {
                return strat.sample(rng);
            }
            r -= *w as u64;
        }
        unreachable!("weights exhausted")
    }
}

/// Boxes one `prop_oneof!` arm (helper for type inference).
pub fn union_arm<T>(
    weight: u32,
    strat: impl Strategy<Value = T> + 'static,
) -> (u32, BoxedStrategy<T>) {
    (weight, Box::new(strat))
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Per-test configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` successful cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// Case rejected (assumption failed / filter miss); retried.
    Reject(String),
    /// Case failed; the test panics.
    Fail(String),
}

impl TestCaseError {
    /// Builds a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }

    /// Builds a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Result type of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

fn base_seed(name: &str) -> u64 {
    if let Ok(seed) = std::env::var("PROPTEST_SEED") {
        return seed.parse().expect("PROPTEST_SEED must be a u64");
    }
    // FNV-1a over the test name: deterministic across runs.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Drives one property: runs `config.cases` successful cases, retrying
/// rejections up to a budget, panicking on the first failure with the
/// case seed for replay.
pub fn run_proptest(
    config: &ProptestConfig,
    name: &str,
    mut case: impl FnMut(&mut TestRng) -> TestCaseResult,
) {
    let seed0 = base_seed(name);
    let mut successes = 0u32;
    let mut rejects = 0u64;
    let max_rejects = config.cases as u64 * 64 + 1024;
    let mut case_index = 0u64;
    while successes < config.cases {
        let case_seed = seed0 ^ case_index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        case_index += 1;
        let mut rng = TestRng::new(case_seed);
        match case(&mut rng) {
            Ok(()) => successes += 1,
            Err(TestCaseError::Reject(_)) => {
                rejects += 1;
                assert!(
                    rejects <= max_rejects,
                    "proptest `{name}`: too many rejected cases ({rejects})"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "proptest `{name}` failed (replay with PROPTEST_SEED={case_seed}, \
                     case {case_index}): {msg}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Defines property tests. Matches the real `proptest!` surface used
/// in this workspace: an optional `#![proptest_config(...)]` header
/// and `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat_param in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __strategy = ($($strat,)*);
            $crate::run_proptest(&__config, stringify!($name), |__rng| {
                let ($($pat,)*) = match $crate::Strategy::sample(&__strategy, __rng) {
                    ::std::option::Option::Some(v) => v,
                    ::std::option::Option::None => {
                        return ::std::result::Result::Err($crate::TestCaseError::reject(
                            "strategy rejection",
                        ))
                    }
                };
                (move || -> $crate::TestCaseResult {
                    $body
                    ::std::result::Result::Ok(())
                })()
            });
        }
    )*};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Rejects (retries) the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

/// Weighted choice among strategies producing one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::union_arm($weight as u32, $strat)),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::union_arm(1u32, $strat)),+])
    };
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Any,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
        TestRng, Union,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(a in 3usize..10, b in -5i64..=5, x in -1.0f64..1.0) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((-5..=5).contains(&b));
            prop_assert!((-1.0..1.0).contains(&x));
        }

        #[test]
        fn tuples_and_maps(v in (1usize..4, 1usize..4).prop_map(|(r, c)| r * c)) {
            prop_assert!((1..16).contains(&v));
        }

        #[test]
        fn vec_lengths(v in collection::vec(any::<u64>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn regex_subset(s in "[a-c]{2,4}", t in "[xy_]{1,8}") {
            prop_assert!(s.len() >= 2 && s.len() <= 4);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            prop_assert!(!t.is_empty() && t.chars().all(|c| "xy_".contains(c)));
        }

        #[test]
        fn oneof_weights(v in prop_oneof![3 => Just(1u8), 1 => Just(2u8)]) {
            prop_assert!(v == 1 || v == 2);
        }

        #[test]
        fn assume_rejects(v in 0u64..100) {
            prop_assume!(v % 2 == 0);
            prop_assert_eq!(v % 2, 0);
        }
    }

    #[test]
    fn filter_map_retries() {
        let strat = (0u64..100).prop_filter_map("even only", |v| (v % 2 == 0).then_some(v));
        crate::run_proptest(
            &ProptestConfig::with_cases(50),
            "filter_map_retries",
            |rng| match Strategy::sample(&strat, rng) {
                Some(v) => {
                    assert_eq!(v % 2, 0);
                    Ok(())
                }
                None => Err(TestCaseError::reject("odd")),
            },
        );
    }

    #[test]
    #[should_panic(expected = "proptest `always_fails` failed")]
    fn failures_panic_with_seed() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(v in 0u64..10) {
                prop_assert!(v > 100, "v = {v}");
            }
        }
        always_fails();
    }
}
