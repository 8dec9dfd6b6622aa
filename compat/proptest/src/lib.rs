//! Offline stand-in for `proptest`: deterministic property testing with the
//! subset of the upstream API this workspace uses.
//!
//! Differences from upstream, by design:
//! - **No shrinking.** A failing case panics with its case number; re-run the
//!   test to reproduce (generation is fully deterministic — the RNG is
//!   seeded from the test's module path and name, never from wall clock).
//! - **No persistence.** `.proptest-regressions` files are ignored.
//! - `ProptestConfig` keeps only `cases`.
//!
//! Supported surface: the [`proptest!`] macro (with optional
//! `#![proptest_config(..)]`), [`prop_assert!`]/[`prop_assert_eq!`],
//! [`prop_oneof!`], `Strategy` with `prop_map`/`prop_recursive`/`boxed`,
//! `BoxedStrategy`, `Just`, `any::<T>()`, integer range strategies, tuple
//! and array composition, `collection::vec`, and `option::of`.

/// Core strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value, deterministically from `rng`.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f: Rc::new(f) }
        }

        /// Type-erases this strategy behind a cheaply-clonable handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }

        /// Builds a recursive strategy: `f` receives a handle that re-enters
        /// the whole strategy, bounded to `depth` nested levels before
        /// falling back to `self` (the leaf). `desired_size` and
        /// `expected_branch` are accepted for upstream signature
        /// compatibility and ignored.
        fn prop_recursive<F, S>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
            S: Strategy<Value = Self::Value> + 'static,
        {
            // Tie the knot: the hook generates from a slot that is filled
            // with the finished strategy after `f` returns.
            let slot: Rc<RefCell<Option<BoxedStrategy<Self::Value>>>> =
                Rc::new(RefCell::new(None));
            let hook = Recurse { slot: Rc::clone(&slot), leaf: self.boxed(), max_depth: depth };
            let full = f(hook.boxed()).boxed();
            *slot.borrow_mut() = Some(full.clone());
            full
        }
    }

    /// Object-safe generation, used by [`BoxedStrategy`].
    trait DynStrategy<T> {
        fn generate_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased strategy; `clone` is O(1).
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] combinator.
    pub struct Map<S, F> {
        inner: S,
        f: Rc<F>,
    }

    impl<S: Clone, F> Clone for Map<S, F> {
        fn clone(&self) -> Self {
            Map { inner: self.inner.clone(), f: Rc::clone(&self.f) }
        }
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between type-erased strategies (`prop_oneof!`).
    pub struct OneOf<T>(pub Vec<BoxedStrategy<T>>);

    impl<T> Clone for OneOf<T> {
        fn clone(&self) -> Self {
            OneOf(self.0.clone())
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = (rng.next() % self.0.len() as u64) as usize;
            self.0[idx].generate(rng)
        }
    }

    /// The re-entry handle inside [`Strategy::prop_recursive`].
    struct Recurse<T> {
        slot: Rc<RefCell<Option<BoxedStrategy<T>>>>,
        leaf: BoxedStrategy<T>,
        max_depth: u32,
    }

    impl<T> Strategy for Recurse<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            // Stop at the depth budget, and take the leaf early about a
            // quarter of the time so generated trees vary in shape.
            let take_leaf = rng.depth >= self.max_depth || rng.next().is_multiple_of(4);
            if take_leaf {
                return self.leaf.generate(rng);
            }
            let full = self.slot.borrow().clone().expect("prop_recursive slot unfilled");
            rng.depth += 1;
            let value = full.generate(rng);
            rng.depth -= 1;
            value
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (self.start as i128, self.end as i128);
                    let span = (hi - lo).max(1) as u128;
                    (lo + (rng.next() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    let span = (hi - lo + 1).max(1) as u128;
                    (lo + (rng.next() as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
        (A.0, B.1, C.2, D.3, E.4, F.5);
    }

    impl<S: Strategy, const N: usize> Strategy for [S; N] {
        type Value = [S::Value; N];
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            std::array::from_fn(|i| self[i].generate(rng))
        }
    }

    /// Types with a canonical "generate anything" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next() as $t
                }
            }
        )*};
    }
    arbitrary_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next() & 1 == 1
        }
    }

    /// Strategy form of [`Arbitrary`], returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(std::marker::PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The strategy generating any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Test configuration, RNG, and error types.
pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic generator state (splitmix64 plus the recursion-depth
    /// budget used by `prop_recursive`).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
        /// Current `prop_recursive` nesting level.
        pub depth: u32,
    }

    impl TestRng {
        /// Builds a generator from a 64-bit seed.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed ^ 0x6A09_E667_F3BC_C908, depth: 0 }
        }

        /// Next raw 64-bit output.
        #[allow(clippy::should_implement_trait)]
        pub fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Why a single test case failed.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion failed with this message.
        Fail(String),
        /// The case asked to be discarded.
        Reject(String),
    }

    impl TestCaseError {
        /// Builds a failure.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Builds a rejection.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive length bounds for generated collections.
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

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange { lo: r.start, hi: r.end.saturating_sub(1).max(r.start) }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: (*r.end()).max(*r.start()) }
        }
    }

    /// Generates `Vec`s of `element` with length in `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + (rng.next() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for vectors of `element` with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Option strategies (`proptest::option::of`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Generates `None` about a quarter of the time, else `Some`.
    #[derive(Clone)]
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next().is_multiple_of(4) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }

    /// Strategy for `Option<T>` given a strategy for `T`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// The usual `use proptest::prelude::*;` imports.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[doc(hidden)]
pub fn __fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Declares property tests. Each `fn name(pat in strategy, ...) { .. }`
/// becomes a `#[test]` (the attribute is written at the call site, as with
/// upstream proptest) running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::ProptestConfig::default(); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;
     $($(#[$attr:meta])*
       fn $name:ident($($pat:pat_param in $strat:expr),* $(,)?) $body:block)*
    ) => {$(
        $(#[$attr])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let seed = $crate::__fnv1a(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::new(
                    seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                #[allow(unreachable_code)]
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    Ok(()) => {}
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name), case, config.cases, msg
                        );
                    }
                }
            }
        }
    )*};
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Asserts inside a proptest body; failures abort the case (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?}` != `{:?}`", left, right),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?}` != `{:?}`: {}", left, right, format!($($fmt)+)),
            ));
        }
    }};
}
