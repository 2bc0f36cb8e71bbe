//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no network access, so this workspace ships a
//! minimal property-testing harness covering the API the test suite
//! uses: the [`strategy::Strategy`] trait with `prop_map`/`prop_flat_map`,
//! [`strategy::Just`], [`arbitrary::any`], integer-range and
//! regex-subset string strategies, [`collection::vec`], tuple
//! strategies, [`prop_oneof!`], and the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Differences from real proptest: cases are generated from a fixed
//! deterministic seed sequence (no `PROPTEST_CASES` env, no persisted
//! failures) and there is **no shrinking** — a failing case reports the
//! case index so it can be replayed deterministically.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// Everything a test file needs, one `use` away.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Number of cases each `proptest!` test runs.
pub const DEFAULT_CASES: u32 = 64;

/// Runs `proptest!`-style property bodies over deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                for __case in 0..$crate::DEFAULT_CASES {
                    let mut __rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                    let __run = || -> ::std::result::Result<(), ::std::string::String> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    };
                    if let Err(message) = __run() {
                        panic!("property '{}' failed at case {}: {}",
                               stringify!($name), __case, message);
                    }
                }
            }
        )*
    };
}

/// `assert!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)*));
        }
    };
}

/// `assert_eq!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {} == {} ({:?} vs {:?})",
                               stringify!($left), stringify!($right), l, r));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(::std::format!($($fmt)*));
        }
    }};
}

/// `assert_ne!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

/// One-of strategy choice across branches of equal `Value` type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
