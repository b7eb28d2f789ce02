//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this shim implements the
//! subset of proptest used by this workspace's property tests: the
//! [`proptest!`] macro over functions whose arguments are drawn from integer
//! range strategies (`lo..hi`) or [`collection::vec`], plus [`prop_assume!`],
//! [`prop_assert!`] and [`prop_assert_eq!`].
//!
//! Cases are generated from a fixed-seed [SplitMix64] generator, so runs are
//! deterministic: a failing case fails on every run and can be debugged
//! directly. There is no shrinking — the first failing case is reported as-is.
//! Swapping in the real proptest later only requires editing the dev-
//! dependencies; the call sites are source-compatible.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Types that can draw a value from a [`TestRng`].
    pub trait Strategy {
        /// The type of generated values.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! impl_strategy_for_int_range {
        ($($ty:ty),+) => {
            $(impl Strategy for Range<$ty> {
                type Value = $ty;
                fn sample(&self, rng: &mut TestRng) -> $ty {
                    assert!(
                        self.start < self.end,
                        "empty strategy range {}..{}",
                        self.start,
                        self.end
                    );
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $ty
                }
            })+
        };
    }

    impl_strategy_for_int_range!(u8, u16, u32, u64, usize);
}

pub mod collection {
    //! Strategies for collections.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A length specification for [`vec()`]: a fixed size or a size range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            SizeRange {
                min: len,
                max_inclusive: len,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            assert!(range.start < range.end, "empty vec length range");
            SizeRange {
                min: range.start,
                max_inclusive: range.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(range: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *range.start(),
                max_inclusive: *range.end(),
            }
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.max_inclusive - self.size.min + 1;
            let len = self.size.min + (rng.next_u64() % span as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! The case-generation loop and its configuration.

    /// How a single generated case ended.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// A `prop_assume!` predicate rejected the inputs; the case does not
        /// count toward the configured number of cases.
        Reject,
    }

    /// Configuration for a [`proptest!`](crate::proptest) block.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted (non-rejected) cases each property must pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` accepted cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic SplitMix64 generator seeding every property run.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator with a fixed seed (runs are reproducible).
        pub fn deterministic() -> Self {
            TestRng {
                state: 0x9e37_79b9_7f4a_7c15,
            }
        }

        /// Draws the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that repeatedly samples the strategies and runs the
/// body until the configured number of accepted cases pass.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = $config:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strategy:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::deterministic();
                let mut accepted = 0u32;
                // Allow a generous number of `prop_assume!` rejections before
                // declaring the strategies unsatisfiable.
                let max_attempts = config.cases.saturating_mul(256);
                let mut attempts = 0u32;
                while accepted < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= max_attempts,
                        "property {}: too many prop_assume! rejections \
                         ({accepted}/{} cases after {max_attempts} attempts)",
                        stringify!($name),
                        config.cases,
                    );
                    $(let $arg = $crate::strategy::Strategy::sample(&($strategy), &mut rng);)*
                    let outcome = (|| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body;
                        ::core::result::Result::Ok(())
                    })();
                    match outcome {
                        ::core::result::Result::Ok(()) => accepted += 1,
                        ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {}
                    }
                }
            }
        )*
    };
}

/// Skips the current case (without counting it) when `condition` is false.
#[macro_export]
macro_rules! prop_assume {
    ($condition:expr) => {
        if !$condition {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Asserts `condition`, failing the whole property on violation.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts two expressions are equal, failing the whole property on violation.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn range_strategy_respects_bounds() {
        let mut rng = TestRng::deterministic();
        for _ in 0..1000 {
            let v = Strategy::sample(&(3u16..17), &mut rng);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn vec_strategy_respects_length_specs() {
        let mut rng = TestRng::deterministic();
        for _ in 0..100 {
            assert_eq!(crate::collection::vec(0u8..4, 5).sample(&mut rng).len(), 5);
            let ranged = crate::collection::vec(0u8..4, 1..=3).sample(&mut rng);
            assert!((1..=3).contains(&ranged.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: sampling, assumption filtering and assertions.
        #[test]
        fn macro_samples_within_range(a in 1usize..10, b in 0u64..5) {
            prop_assume!(a != 9);
            prop_assert!((1..9).contains(&a));
            prop_assert_eq!(b, b);
        }
    }
}
