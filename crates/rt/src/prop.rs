//! Seeded, shrink-free property testing — the subset of `proptest` the
//! workspace's `tests/proptests.rs` files use.
//!
//! The [`proptest!`](crate::proptest) macro expands each property into a
//! `#[test]` that draws `config.cases` inputs from a deterministic
//! per-test RNG (seeded from the test's name, overridable with
//! `FARE_PT_SEED`) and runs the body on each. On failure the offending
//! case number and `Debug`-rendered inputs are printed, then the panic
//! is re-raised — no shrinking, but the report pins down the exact
//! reproducible case.

use crate::rand::rngs::StdRng;
use crate::rand::{Distribution as RandDistribution, SampleRange, SampleUniform, Standard};
use std::ops::{Range, RangeInclusive};

/// Per-property configuration (mirrors `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// The deterministic seed a property named `name` starts from.
///
/// FNV-1a over the name, xor-folded with `FARE_PT_SEED` when set, so a
/// failing property can be re-run under a different exploration seed
/// without recompiling.
pub fn test_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if let Ok(v) = std::env::var("FARE_PT_SEED") {
        if let Ok(extra) = v.parse::<u64>() {
            h ^= extra.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    h
}

/// A recipe for random values (mirrors `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The value type this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Builds a second-stage strategy from each generated value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Rejects values failing `keep`; gives up (panics) after 1000
    /// consecutive rejections.
    fn prop_filter<F>(self, why: &'static str, keep: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            why,
            keep,
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    why: &'static str,
    keep: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.keep)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 consecutive cases: {}", self.why);
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        self.clone().sample_single(rng)
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        self.clone().sample_single(rng)
    }
}

macro_rules! strategy_tuple {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
strategy_tuple!(
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4)
);

/// Strategy for `any::<T>()` (mirrors `proptest::arbitrary::any`).
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// The full-domain strategy of a primitive type.
pub fn any<T>() -> Any<T>
where
    Standard: RandDistribution<T>,
{
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T> Strategy for Any<T>
where
    Standard: RandDistribution<T>,
{
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        Standard.sample(rng)
    }
}

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::Strategy;
    use crate::rand::rngs::StdRng;

    /// Strategy for `Vec`s of `len` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            (0..self.len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Glob-import target for property-test files (mirrors
/// `proptest::prelude`).
pub mod prelude {
    pub use super::{any, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Skips the rest of the current case when `cond` is false (mirrors
/// `proptest::prop_assume!`; the case still counts toward `cases`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Property assertion (maps to `assert!`; failures are reported with the
/// generating case by the [`proptest!`](crate::proptest) runner).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality property assertion (maps to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality property assertion (maps to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Expands properties into seeded `#[test]` functions.
///
/// Supported grammar (the subset this workspace uses):
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]   // optional
///     #[test]
///     fn my_property(x in 0u64..100, v in collection::vec(0.0f32..1.0, 8)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            (<$crate::prop::ProptestConfig as Default>::default()); $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`](crate::proptest) — not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr); $(
        #[test]
        fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::prop::ProptestConfig = $config;
            let mut rng = $crate::rng($crate::prop::test_seed(stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::prop::Strategy::generate(&($strategy), &mut rng);)+
                let case_desc = format!(
                    concat!($(stringify!($arg), " = {:?}, "),+),
                    $(&$arg),+
                );
                let outcome = std::panic::catch_unwind(
                    std::panic::AssertUnwindSafe(move || { $body })
                );
                if let Err(payload) = outcome {
                    eprintln!(
                        "[fare-rt proptest] {} failed on case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        case_desc
                    );
                    std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn strategies_are_deterministic() {
        use super::Strategy;
        let s = (0u64..1000, -1.0f32..1.0).prop_map(|(a, b)| (a, b));
        let mut r1 = crate::rng(5);
        let mut r2 = crate::rng(5);
        for _ in 0..10 {
            assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
        }
    }

    #[test]
    fn filter_respects_predicate() {
        use super::Strategy;
        let s = (0usize..100).prop_filter("even", |v| v % 2 == 0);
        let mut rng = crate::rng(6);
        for _ in 0..100 {
            assert_eq!(s.generate(&mut rng) % 2, 0);
        }
    }

    #[test]
    fn collection_vec_has_requested_len() {
        use super::Strategy;
        let s = super::collection::vec(-1.0f64..1.0, 17);
        let mut rng = crate::rng(7);
        assert_eq!(s.generate(&mut rng).len(), 17);
    }

    proptest! {
        #[test]
        fn macro_generates_passing_test(x in 0u64..100, flag in any::<bool>()) {
            prop_assert!(x < 100);
            prop_assert_eq!(u64::from(flag) / 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        #[test]
        fn macro_respects_config(v in super::collection::vec(0usize..10, 4)) {
            prop_assert_eq!(v.len(), 4);
        }
    }

    proptest! {
        #[test]
        fn flat_map_dependent_sizes(
            m in (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
                super::collection::vec(0i32..100, r * c).prop_map(move |v| (r, c, v))
            }),
        ) {
            let (r, c, v) = m;
            prop_assert_eq!(v.len(), r * c);
        }
    }
}
