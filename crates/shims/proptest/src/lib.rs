//! Offline stand-in for the slice of the `proptest` API this workspace uses.
//!
//! The build environment has no network access, so the property tests link
//! against this shim. It keeps the call-site surface — the [`Strategy`] trait
//! with `prop_map`/`prop_flat_map`, range and tuple strategies, [`any`],
//! [`collection::vec`], [`ProptestConfig`], the [`proptest!`] macro and the
//! `prop_assert*` macros — and runs each property as a deterministic seeded
//! random search (`cases` iterations). Failing cases panic with the usual
//! assertion message; there is **no shrinking**, so a failure reports the raw
//! generated inputs instead: the property name, the case index and the `Debug`
//! form of every binding go to stderr (so, as upstream, each generated value
//! must implement `Debug`).

use rand::rngs::SmallRng;
use std::io::Write;

pub mod test_runner {
    //! Runner configuration and RNG, mirroring `proptest::test_runner`.

    use rand::SeedableRng;

    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases each property is checked against.
        pub cases: u32,
        /// Accepted for compatibility; the shim never shrinks.
        pub max_shrink_iters: u32,
        /// Accepted for compatibility; unused.
        pub max_global_rejects: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_shrink_iters: 0,
                max_global_rejects: 65_536,
            }
        }
    }

    /// The RNG driving value generation.
    pub type TestRng = super::SmallRng;

    /// Builds the deterministic RNG used by the [`crate::proptest!`] macro.
    pub fn deterministic_rng() -> TestRng {
        TestRng::seed_from_u64(0x70_72_6f_70_74_65_73_74) // "proptest"
    }
}

pub use test_runner::Config as ProptestConfig;

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::test_runner::TestRng;

    /// A recipe for generating values of type `Value`.
    ///
    /// The shim's contract is purely generative: [`Strategy::new_value`] draws
    /// one value from the RNG. No shrinking tree is built.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { base: self, f }
        }

        /// Generates a value, then generates from the strategy `f` returns.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { base: self, f }
        }

        /// Boxes the strategy (API compatibility helper).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: std::rc::Rc::new(self),
            }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        pub(crate) base: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.new_value(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone, Debug)]
    pub struct FlatMap<S, F> {
        pub(crate) base: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;

        fn new_value(&self, rng: &mut TestRng) -> T::Value {
            let intermediate = self.base.new_value(rng);
            (self.f)(intermediate).new_value(rng)
        }
    }

    /// A reference-counted type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<T> {
        inner: std::rc::Rc<dyn Strategy<Value = T>>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            self.inner.new_value(rng)
        }
    }

    /// A strategy that always yields a clone of the same value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::gen_range(rng, self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::gen_range(rng, self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.new_value(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F2);

    /// Strategy returned by [`crate::any`] for `bool`.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;

        fn new_value(&self, rng: &mut TestRng) -> bool {
            rand::Rng::gen::<bool>(rng)
        }
    }

    /// Types with a canonical strategy ([`crate::any`]).
    pub trait Arbitrary: Sized {
        /// The canonical strategy for the type.
        type Strategy: Strategy<Value = Self>;

        /// Returns the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    impl Arbitrary for bool {
        type Strategy = AnyBool;

        fn arbitrary() -> AnyBool {
            AnyBool
        }
    }

    macro_rules! impl_arbitrary_full_range {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                type Strategy = std::ops::RangeInclusive<$t>;

                fn arbitrary() -> Self::Strategy {
                    <$t>::MIN..=<$t>::MAX
                }
            }
        )*};
    }

    impl_arbitrary_full_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

pub use strategy::{Arbitrary, Just, Strategy};

/// The canonical strategy for `T` (`any::<bool>()`, …).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// A strategy for `Vec<S::Value>` with a length drawn from `len`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// Generates vectors whose length is uniform in `len` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(!len.is_empty(), "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rand::Rng::gen_range(rng, self.len.clone());
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude`.

    pub use crate::strategy::{Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Property assertion; panics on failure (the shim does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion; panics on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion; panics on failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests, mirroring `proptest::proptest!`.
///
/// Each `fn name(binding in strategy, ...) { body }` item becomes a `#[test]`
/// (the `#[test]` attribute is written at the call site, as with upstream
/// proptest) that evaluates the body for `cases` freshly generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: prints `describe()` if dropped while the
/// thread panics, i.e. when a case's body fails.
#[doc(hidden)]
pub struct FailureReport<F: FnMut() -> String> {
    /// Formats the failing case.
    pub describe: F,
}

impl<F: FnMut() -> String> Drop for FailureReport<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // `eprintln!` panics if stderr fails, and a second panic here would abort.
            let _ = writeln!(std::io::stderr(), "{}", (self.describe)());
        }
    }
}

/// Implementation detail of [`proptest!`]. A failing case's inputs are re-drawn from a
/// copy of the RNG taken before the case, so passing cases format nothing.
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (($config:expr); $($(#[$meta:meta])* fn $name:ident($($binding:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::test_runner::deterministic_rng();
                for case in 0..config.cases {
                    let case_rng = rng.clone();
                    $(
                        let $binding =
                            $crate::strategy::Strategy::new_value(&($strat), &mut rng);
                    )+
                    let _report = $crate::FailureReport {
                        describe: || {
                            let mut rng = case_rng.clone();
                            let mut out = format!(
                                "proptest: {} failed at case {} of {}; inputs:",
                                stringify!($name),
                                case,
                                config.cases
                            );
                            $(
                                let value =
                                    $crate::strategy::Strategy::new_value(&($strat), &mut rng);
                                out.push_str(&format!(
                                    "\n  {} = {:?}",
                                    stringify!($binding),
                                    value
                                ));
                            )+
                            out
                        },
                    };
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = crate::test_runner::deterministic_rng();
        let s = (1..5usize).prop_flat_map(|n| {
            crate::collection::vec((0..n, any::<bool>()), 1..4usize).prop_map(move |v| (n, v))
        });
        for _ in 0..200 {
            let (n, v) = Strategy::new_value(&s, &mut rng);
            assert!((1..5).contains(&n));
            assert!((1..4).contains(&v.len()));
            assert!(v.iter().all(|&(x, _)| x < n));
        }
    }

    #[test]
    fn failure_report_describes_only_a_panicking_case() {
        let described = std::cell::Cell::new(0);
        let describe = || {
            described.set(described.get() + 1);
            "case inputs".to_string()
        };
        drop(crate::FailureReport { describe });
        assert_eq!(described.get(), 0, "a passing case formats nothing");
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _report = crate::FailureReport { describe };
            panic!("the case's assertion failed");
        }));
        assert!(failed.is_err());
        assert_eq!(described.get(), 1, "a failing case is described once");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn macro_runs_and_binds(x in 0..10usize, flag in any::<bool>()) {
            prop_assert!(x < 10);
            let _ = flag;
            prop_assert_eq!(x + 1, 1 + x);
            prop_assert_ne!(x, x + 1);
        }
    }
}
