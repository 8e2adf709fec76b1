//! A seeded property-test harness on [`StdRng`]. [`check!`](crate::check!)
//! turns `fn name(x in strategy, ...) { body }` into a test that runs the
//! body on [`DEFAULT_CASES`] inputs drawn from a generator seeded by the
//! FNV-1a of the property's name, so every run tests the same cases. When
//! the body panics, the input is shrunk greedily as `bench::fuzz` shrinks a
//! point (shorter vectors first, then each value halved toward its range
//! start) and the test fails naming the property, seed, case and input.

use crate::rng::StdRng;
use aqua_telemetry::{fnv1a, tracer::FNV_OFFSET};
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per property unless the `check!` block opens with `#![cases(n)]`.
pub const DEFAULT_CASES: u32 = 256;

/// How to draw and simplify one input: ranges of `u8`/`u32`/`u64`/`usize`/
/// `f64`, [`AnyBool`], [`vec`](fn@vec) and tuples of up to five strategies.
pub trait Strategy {
    type Value: Clone + Debug;
    fn draw(&self, rng: &mut StdRng) -> Self::Value;
    /// Candidates with shorter vectors, tried before [`Strategy::smaller`].
    fn shorter(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
    /// Candidates with values nearer their range start, nearest first.
    fn smaller(&self, value: &Self::Value) -> Vec<Self::Value>;
}

macro_rules! int_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn draw(&self, rng: &mut StdRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below_u64((self.end - self.start) as u64) as $ty
            }
            fn smaller(&self, &value: &$ty) -> Vec<$ty> {
                let gaps = std::iter::successors(Some(value - self.start), |g| Some(g / 2));
                gaps.take_while(|&g| g > 0).map(|g| value - g).collect()
            }
        }
    )*};
}

int_strategy!(u8, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn draw(&self, rng: &mut StdRng) -> f64 {
        self.start + rng.f64() * (self.end - self.start)
    }
    /// The start, then the start plus half the whole-number gap.
    fn smaller(&self, &value: &f64) -> Vec<f64> {
        let half = self.start + ((value - self.start) / 2.0).trunc();
        let below = |c: &f64| *c < value;
        [self.start, half].into_iter().filter(below).collect()
    }
}

/// Any `bool`; `false` is the simpler value.
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn draw(&self, rng: &mut StdRng) -> bool {
        rng.next_u32() & 1 == 1
    }
    fn smaller(&self, &value: &bool) -> Vec<bool> {
        value.then_some(false).into_iter().collect()
    }
}

/// See [`vec`](fn@vec).
pub struct VecOf<S> {
    element: S,
    len: Range<usize>,
}

/// Vectors of `element` draws with a length in `len`.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecOf<S> {
    VecOf { element, len }
}

/// `value` with one part replaced by each candidate in turn.
fn replacing<T: Clone, C>(value: &T, candidates: Vec<C>, set: impl Fn(&mut T, C)) -> Vec<T> {
    let with = |c| {
        let mut next = value.clone();
        set(&mut next, c);
        next
    };
    candidates.into_iter().map(with).collect()
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;
    fn draw(&self, rng: &mut StdRng) -> Self::Value {
        let n = self.len.draw(rng);
        (0..n).map(|_| self.element.draw(rng)).collect()
    }
    /// The shortest allowed prefix, then each element dropped in turn.
    fn shorter(&self, value: &Self::Value) -> Vec<Self::Value> {
        if value.len() <= self.len.start {
            return Vec::new();
        }
        let drop = |i| [&value[..i], &value[i + 1..]].concat();
        let mut out = vec![value[..self.len.start].to_vec()];
        out.extend((0..value.len()).map(drop));
        out
    }
    fn smaller(&self, value: &Self::Value) -> Vec<Self::Value> {
        let each = value.iter().enumerate();
        let each = each.flat_map(|(i, v)| self.element.smaller(v).into_iter().map(move |c| (i, c)));
        replacing(value, each.collect(), |v, (i, c)| v[i] = c)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn draw(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$i.draw(rng),)+)
            }
            fn shorter(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(out.extend(replacing(value, self.$i.shorter(&value.$i), |t, c| t.$i = c));)+
                out
            }
            fn smaller(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(out.extend(replacing(value, self.$i.smaller(&value.$i), |t, c| t.$i = c));)+
                out
            }
        }
    )*};
}

tuple_strategy! { (A 0) (A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3) (A 0, B 1, C 2, D 3, E 4) }

/// The panic message of `property(value)`, or `None` if it passes.
fn failure<V>(property: &impl Fn(V), value: V) -> Option<String> {
    let err = catch_unwind(AssertUnwindSafe(|| property(value))).err()?;
    let text = err.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| err.downcast_ref::<String>().cloned())
        .or_else(|| Some(String::new()))
}

/// Runs `property` on `cases` seeded draws of `strategy`. On the
/// first failure it shrinks the input and returns a report naming the
/// property, its seed, the case, the panic message and the minimal input.
pub fn find_failure<S: Strategy>(
    name: &str,
    cases: u32,
    strategy: &S,
    property: impl Fn(S::Value),
) -> Option<String> {
    let seed = fnv1a(FNV_OFFSET, name.as_bytes());
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let mut minimal = strategy.draw(&mut rng);
        let Some(mut message) = failure(&property, minimal.clone()) else {
            continue;
        };
        'shrink: loop {
            let mut candidates = strategy.shorter(&minimal);
            candidates.extend(strategy.smaller(&minimal));
            for c in candidates {
                if let Some(m) = failure(&property, c.clone()) {
                    (minimal, message) = (c, m);
                    continue 'shrink;
                }
            }
            return Some(format!(
                "property `{name}` failed (seed {seed:#018x}, case {case} of {cases}): \
                 {message}\nminimal input: {minimal:?}"
            ));
        }
    }
    None
}

/// Declares seeded property tests (see [`check`](mod@crate::check)): items
/// `fn name(pattern in strategy, ...) { body }`, optionally led by
/// `#![cases(n)]`.
#[macro_export]
macro_rules! check {
    (#![cases($cases:expr)] $($props:tt)*) => {
        $crate::check!(@with ($cases) $($props)*);
    };
    (@with ($cases:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let strategy = ($($strategy,)+);
            let name = stringify!($name);
            let report = $crate::check::find_failure(name, $cases, &strategy, |($($arg,)+)| $body);
            if let Some(report) = report {
                panic!("{report}");
            }
        }
    )*};
    ($($props:tt)*) => {
        $crate::check!(@with ($crate::check::DEFAULT_CASES) $($props)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// A planted failure, a vector summing past 100, is caught and shrinks
    /// to one element at the smallest failing value.
    #[test]
    fn planted_failure_shrinks_to_the_minimal_input() {
        let strategy = (vec(0u64..1_000, 1..20),);
        let sums = |(v,): (Vec<u64>,)| assert!(v.iter().sum::<u64>() <= 100, "sum too large");
        let report = find_failure("planted", DEFAULT_CASES, &strategy, sums).expect("caught");
        let seed = fnv1a(FNV_OFFSET, b"planted");
        let head = format!("property `planted` failed (seed {seed:#018x}, case 0 of 256)");
        assert_eq!(report, head + ": sum too large\nminimal input: ([101],)");
    }

    #[test]
    fn a_passing_property_runs_exactly_its_cases() {
        let runs = Cell::new(0);
        let count = |_| runs.set(runs.get() + 1);
        assert_eq!(find_failure("counted", 37, &(AnyBool,), count), None);
        assert_eq!(runs.get(), 37);
    }

    #[test]
    fn the_same_name_draws_the_same_cases() {
        let strategy = (0u32..1_000, vec((0.0f64..1.0, 0u8..3), 0..4), 1usize..9);
        let draws = |name: &str| {
            let seen = RefCell::new(Vec::new());
            find_failure(name, DEFAULT_CASES, &strategy, |v| {
                seen.borrow_mut().push(v)
            });
            seen.into_inner()
        };
        let first = draws("repeatable");
        assert_eq!(first, draws("repeatable"));
        assert_ne!(first, draws("another"));
    }
}
