//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing framework.
//!
//! The build environment has no network access, so this workspace vendors
//! the subset of proptest its test suites use: the [`proptest!`] macro,
//! [`strategy::Strategy`] with `prop_map` / `prop_filter` /
//! `prop_recursive`, [`prop_oneof!`], [`strategy::Just`], integer-range and
//! regex-literal strategies, `prop::collection::vec`, `prop::sample`,
//! `prop::option`, [`arbitrary::any`], and `prop_assert!` /
//! [`prop_assert_eq!`].
//!
//! Differences from real proptest, on purpose:
//!
//! * **No shrinking.** A failing case panics with the formatted assertion
//!   message; inputs are deterministic per test name, so failures
//!   reproduce exactly on re-run.
//! * **Regex strategies** support the subset appearing in this repo:
//!   literal characters, `[...]` classes with ranges, `\PC` (printable),
//!   and `{m,n}` counted repetition.
//! * Generation is depth-bounded instead of size-driven; `prop_recursive`
//!   halves the recursion probability per level.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Config, RNG, and failure plumbing used by the [`crate::proptest!`]
    //! macro.

    use std::fmt;

    /// Per-`proptest!` configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl Config {
        /// Config with an explicit case count.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 64 }
        }
    }

    /// A failed property case (carries the assertion message).
    #[derive(Debug)]
    pub enum TestCaseError {
        /// Assertion failure with a rendered message.
        Fail(String),
    }

    impl TestCaseError {
        /// Build a failure from a message.
        pub fn fail(message: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(message.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(m) => f.write_str(m),
            }
        }
    }

    /// Deterministic generator driving all strategies (xorshift*,
    /// seeded from the test name so each property gets its own stream).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test name (stable across runs).
        pub fn for_test(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: h | 1 }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform index in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: usize) -> usize {
            assert!(n > 0, "TestRng::below(0)");
            (self.next_u64() % n as u64) as usize
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use std::marker::PhantomData;
    use std::rc::Rc;

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through a function.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Keep only values passing the predicate (bounded retries).
        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence,
                f,
            }
        }

        /// Recursive strategies: `f` receives the strategy for the inner
        /// level and returns the strategy for one level up; recursion
        /// probability halves per level and stops at `depth`.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut current = self.boxed();
            for _ in 0..depth.max(1) {
                let leaf = current.clone();
                let deeper = f(current).boxed();
                current = Union::new(vec![leaf, deeper]).boxed();
            }
            current
        }

        /// Type-erase (cheap to clone; strategies are shared by `Rc`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    trait DynStrategy<T> {
        fn generate_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased, cheaply clonable strategy.
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

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
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

    /// Output of [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter: gave up after 1000 rejections ({})",
                self.whence
            );
        }
    }

    /// Uniform choice between boxed alternatives ([`crate::prop_oneof!`]).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build from alternatives (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof of zero strategies");
            Union { arms }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let x = rng.next_u64() as u128 % span;
                    (self.start as i128 + x as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let x = rng.next_u64() as u128 % span;
                    (lo as i128 + x as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident / $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
        (A/0, B/1, C/2, D/3, E/4, F/5)
    }

    /// String strategy from a regex-subset pattern (see crate docs).
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            crate::string::generate(self, rng)
        }
    }

    /// Marker so `any::<T>()` can be written generically.
    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` — the default strategy per type.

    use std::marker::PhantomData;

    use crate::strategy::Any;
    use crate::test_runner::TestRng;

    /// Types with a canonical random generator.
    pub trait Arbitrary: Sized {
        /// Generate one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for crate::sample::Index {
        fn arbitrary(rng: &mut TestRng) -> crate::sample::Index {
            crate::sample::Index {
                raw: rng.next_u64() as usize,
            }
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! `prop::collection::vec`.

    use std::ops::{Range, RangeInclusive};

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive-lo / exclusive-hi element-count range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// A vector of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi - self.size.lo;
            let n = self.size.lo + rng.below(span.max(1));
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! `prop::sample` — choosing among known values.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform choice from a fixed list.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from empty list");
        Select { options }
    }

    /// Output of [`select`].
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len())].clone()
        }
    }

    /// A length-agnostic random index (`any::<Index>()` then
    /// `idx.index(len)`).
    #[derive(Debug, Clone, Copy)]
    pub struct Index {
        pub(crate) raw: usize,
    }

    impl Index {
        /// Project onto `[0, len)`; `len` must be nonzero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index(0)");
            self.raw % len
        }
    }
}

pub mod option {
    //! `prop::option` — optional values.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// `None` about a quarter of the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Output of [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod string {
    //! Regex-subset string generation for `&str` strategies.
    //!
    //! Supports exactly the constructs used by this repo's tests:
    //! literals, `[...]` classes (with `a-z` ranges), `\PC` (any printable
    //! character), and `{m,n}` / `{m}` counted repetition.

    use crate::test_runner::TestRng;

    enum Atom {
        Literal(char),
        Class(Vec<(char, char)>),
        Printable,
    }

    struct Piece {
        atom: Atom,
        min: usize,
        max: usize,
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let mut chars = pattern.chars().peekable();
        let mut pieces = Vec::new();
        while let Some(c) = chars.next() {
            let atom = match c {
                '[' => {
                    let mut ranges = Vec::new();
                    let mut prev: Option<char> = None;
                    loop {
                        let c = chars.next().expect("unterminated [class]");
                        match c {
                            ']' => break,
                            '-' if prev.is_some() && chars.peek() != Some(&']') => {
                                let hi = chars.next().unwrap();
                                let lo = prev.take().unwrap();
                                ranges.pop();
                                ranges.push((lo, hi));
                            }
                            _ => {
                                prev = Some(c);
                                ranges.push((c, c));
                            }
                        }
                    }
                    Atom::Class(ranges)
                }
                '\\' => match chars.next().expect("dangling backslash") {
                    'P' => {
                        // `\PC` — any non-control character.
                        let tag = chars.next().expect("\\P needs a category");
                        assert_eq!(tag, 'C', "only \\PC is supported");
                        Atom::Printable
                    }
                    escaped => Atom::Literal(escaped),
                },
                _ => Atom::Literal(c),
            };
            let (min, max) = if chars.peek() == Some(&'{') {
                chars.next();
                let mut spec = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    spec.push(c);
                }
                match spec.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("bad {m,n}"),
                        hi.trim().parse().expect("bad {m,n}"),
                    ),
                    None => {
                        let n = spec.trim().parse().expect("bad {m}");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    const PRINTABLE_EXTRA: &[char] = &['é', 'λ', '中', '↦', '⊤', '∧', '😀', '\u{00A0}', 'Ω', 'ß'];

    fn gen_char(atom: &Atom, rng: &mut TestRng) -> char {
        match atom {
            Atom::Literal(c) => *c,
            Atom::Class(ranges) => {
                let (lo, hi) = ranges[rng.below(ranges.len())];
                let span = hi as u32 - lo as u32 + 1;
                char::from_u32(lo as u32 + (rng.next_u64() % u64::from(span)) as u32)
                    .expect("class range within valid chars")
            }
            Atom::Printable => {
                // Mostly ASCII printable, occasionally wider unicode.
                if rng.below(8) == 0 {
                    PRINTABLE_EXTRA[rng.below(PRINTABLE_EXTRA.len())]
                } else {
                    char::from_u32(0x20 + (rng.next_u64() % 0x5f) as u32).unwrap()
                }
            }
        }
    }

    /// Generate a string matching `pattern`.
    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse(pattern) {
            let span = piece.max - piece.min + 1;
            let n = piece.min + rng.below(span.max(1));
            for _ in 0..n {
                out.push(gen_char(&piece.atom, rng));
            }
        }
        out
    }
}

/// Everything test files import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// The `prop::` namespace (`prop::collection::vec`, `prop::sample`, …).
pub mod prop {
    pub use crate::collection;
    pub use crate::option;
    pub use crate::sample;
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Assert inside a property; failure aborts the case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), l, r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n {}",
                    stringify!($left), stringify!($right), l, r, format!($($fmt)*)
                );
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $(let $pat = $crate::strategy::Strategy::generate(
                            &($strat), &mut rng,
                        );)+
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest `{}` failed at case {}/{}: {}",
                        stringify!($name), case + 1, config.cases, e,
                    );
                }
            }
        }
        $crate::__proptest_tests! { cfg = ($cfg); $($rest)* }
    };
}

/// Define property tests: each `fn name(pat in strategy, …) { body }` runs
/// `cases` times over fresh random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            cfg = (<$crate::test_runner::Config as ::std::default::Default>::default());
            $($rest)*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (i64, i64)> {
        (0i64..10, 0i64..10)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3usize..17, y in -5i64..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
        }

        #[test]
        fn tuple_and_map(p in arb_pair().prop_map(|(a, b)| a + b)) {
            prop_assert!((0..19).contains(&p));
        }

        #[test]
        fn vec_sizes(v in prop::collection::vec(0u16..3, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            for x in v {
                prop_assert!(x < 3);
            }
        }

        #[test]
        fn oneof_and_just(x in prop_oneof![Just(1i64), Just(2i64), 10i64..20]) {
            prop_assert!(x == 1 || x == 2 || (10..20).contains(&x));
        }

        #[test]
        fn filter_works(x in (0i64..100).prop_filter("even", |x| x % 2 == 0)) {
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn regex_class(s in "[a-z][a-z0-9_]{0,6}") {
            prop_assert!(!s.is_empty() && s.len() <= 7);
            prop_assert!(s.chars().next().unwrap().is_ascii_lowercase());
        }

        #[test]
        fn regex_printable(s in "\\PC{0,60}", idx in any::<prop::sample::Index>()) {
            prop_assert!(s.chars().count() <= 60);
            prop_assert!(s.chars().all(|c| !c.is_control()));
            prop_assert!(idx.index(7) < 7);
        }

        #[test]
        fn select_and_option(
            w in prop::sample::select(vec!["a", "b"]),
            o in prop::option::of(0i64..3),
        ) {
            prop_assert!(w == "a" || w == "b");
            if let Some(x) = o {
                prop_assert!((0..3).contains(&x));
            }
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Tree {
        Leaf(i64),
        Node(Box<Tree>, Box<Tree>),
    }

    fn depth(t: &Tree) -> usize {
        match t {
            Tree::Leaf(_) => 1,
            Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
        }
    }

    fn arb_tree() -> impl Strategy<Value = Tree> {
        let leaf = (0i64..10).prop_map(Tree::Leaf);
        leaf.prop_recursive(3, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn recursive_bounded(t in arb_tree()) {
            prop_assert!(depth(&t) <= 4, "depth {}", depth(&t));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        proptest! {
            fn inner(x in 0i64..10) {
                prop_assert!(x < 5, "x was {}", x);
            }
        }
        inner();
    }
}
