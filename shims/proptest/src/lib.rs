//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build container has no crates.io access, so this workspace ships a
//! small API-compatible subset of proptest sufficient for its own property
//! tests: `proptest!`, `prop_assert!`, `prop_assert_eq!`, `prop_oneof!`,
//! `any::<T>()`, integer range strategies, `Just`, `prop::collection::vec`,
//! and the `prop_filter` / `prop_flat_map` / `prop_map` combinators.
//!
//! Generation is deterministic (a fixed-seed xorshift generator) so test runs
//! are reproducible; there is no shrinking. Each `proptest!` test runs
//! [`test_runner::cases`] generated cases: 128, or `PROPTEST_CASES` when
//! set.

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub use strategy::{any, Arbitrary, Just, Strategy};

/// The `proptest::prelude` equivalent.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __proptest_rng = $crate::test_runner::TestRng::deterministic();
                for __proptest_case in 0..$crate::test_runner::cases() {
                    let _ = __proptest_case;
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __proptest_rng);)*
                    $body
                }
            }
        )*
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Picks uniformly between the given strategies (which must share one value
/// type).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {{
        let __options: ::std::vec::Vec<
            ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>,
        > = vec![$(::std::boxed::Box::new($s)),+];
        $crate::strategy::Union::new(__options)
    }};
}
