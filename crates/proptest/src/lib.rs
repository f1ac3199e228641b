//! Offline stand-in for the `proptest` crate.
//!
//! The workspace must build without network access, so this in-tree
//! crate re-implements the subset of proptest the test suites use:
//! the [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_filter`, tuple,
//! range, vector, option and union strategies, a regex-subset string
//! generator, and the `proptest!` / `prop_assert!` / `prop_assert_eq!`
//! / `prop_oneof!` macros. Cases are generated from a seed derived
//! from the test name, so every run is deterministic and a failure
//! message reproduces by re-running the same test.
//!
//! The one deliberate omission is shrinking: a failing case reports
//! the generated inputs via the assertion message instead of a
//! minimised counterexample. For this workspace's suites (differential
//! and invariant checks with small inputs) that trade keeps the shim
//! a few hundred lines while preserving the bug-finding power.

pub mod strategy;
pub mod string;
pub mod test_runner;

/// The subset of `proptest::prelude` the workspace imports.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// `proptest::collection`: sized containers of generated values.
pub mod collection {
    use crate::strategy::{Strategy, VecStrategy};
    use core::ops::Range;

    /// A `Vec` whose length is drawn from `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy::new(element, size)
    }
}

/// `proptest::option`: optional values.
pub mod option {
    use crate::strategy::{OptionStrategy, Strategy};

    /// `Some` three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy::new(inner)
    }
}
