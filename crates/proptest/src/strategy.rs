//! The [`Strategy`] trait and its combinators.

use core::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Why a strategy declined to produce a value (e.g. a filter that
/// never passed). The runner skips the case and tries again.
#[derive(Clone, Debug)]
pub struct Rejection(pub String);

/// Result of one generation attempt.
pub type NewValue<T> = Result<T, Rejection>;

/// A recipe for generating values of `Self::Value`.
///
/// Object-safe: `prop_oneof!` boxes heterogeneous branches behind
/// `dyn Strategy`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> NewValue<Self::Value>;

    /// Transforms every generated value with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Keeps only values for which `pred` holds; after too many
    /// misses the case is rejected with `reason`.
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// out of it — dependent generation (e.g. draw a burst shape, then
    /// draw a burst of that shape).
    fn prop_flat_map<U, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        U: Strategy,
        F: Fn(Self::Value) -> U,
    {
        FlatMap { inner: self, f }
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> NewValue<T> {
        (**self).generate(rng)
    }
}

/// Boxes a strategy for storage in a heterogeneous union.
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> NewValue<T> {
        Ok(self.0.clone())
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> NewValue<U> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    U: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U::Value;

    fn generate(&self, rng: &mut StdRng) -> NewValue<U::Value> {
        let v = self.inner.generate(rng)?;
        (self.f)(v).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Clone, Debug)]
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> NewValue<S::Value> {
        // Retry locally before pushing the rejection up to the runner.
        for _ in 0..64 {
            let v = self.inner.generate(rng)?;
            if (self.pred)(&v) {
                return Ok(v);
            }
        }
        Err(Rejection(self.reason.to_string()))
    }
}

/// Uniform choice among boxed branches (built by `prop_oneof!`).
pub struct Union<T> {
    branches: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Builds a union; `branches` must be non-empty.
    pub fn new(branches: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(
            !branches.is_empty(),
            "prop_oneof! needs at least one branch"
        );
        Union { branches }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> NewValue<T> {
        let idx = rng.random_range(0..self.branches.len());
        self.branches[idx].generate(rng)
    }
}

/// See [`crate::collection::vec`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> VecStrategy<S> {
    pub(crate) fn new(element: S, size: Range<usize>) -> Self {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> NewValue<Vec<S::Value>> {
        let len = rng.random_range(self.size.clone());
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// See [`crate::option::of`].
#[derive(Clone, Debug)]
pub struct OptionStrategy<S> {
    inner: S,
}

impl<S: Strategy> OptionStrategy<S> {
    pub(crate) fn new(inner: S) -> Self {
        OptionStrategy { inner }
    }
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> NewValue<Option<S::Value>> {
        if rng.random_range(0u32..4) == 0 {
            Ok(None)
        } else {
            self.inner.generate(rng).map(Some)
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies: ranges, `any`, string patterns, tuples.
// ---------------------------------------------------------------------------

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> NewValue<$t> {
                Ok(rng.random_range(self.clone()))
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> NewValue<$t> {
                Ok(rng.random_range(self.clone()))
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// Types with a canonical "anything goes" strategy, via [`any`].
pub trait Arbitrary: Sized {
    /// The strategy type `any` returns.
    type Strategy: Strategy<Value = Self>;

    /// The full-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// The full-domain strategy for `T` (mirrors `proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Full-domain strategy backing [`Arbitrary`] for scalars.
#[derive(Clone, Copy, Debug)]
pub struct AnyScalar<T> {
    _marker: core::marker::PhantomData<T>,
}

macro_rules! arbitrary_scalar {
    ($($t:ty => |$rng:ident| $gen:expr),* $(,)?) => {$(
        impl Strategy for AnyScalar<$t> {
            type Value = $t;

            fn generate(&self, $rng: &mut StdRng) -> NewValue<$t> {
                Ok($gen)
            }
        }

        impl Arbitrary for $t {
            type Strategy = AnyScalar<$t>;

            fn arbitrary() -> Self::Strategy {
                AnyScalar { _marker: core::marker::PhantomData }
            }
        }
    )*};
}

arbitrary_scalar! {
    u8 => |rng| rng.next_u64() as u8,
    u16 => |rng| rng.next_u64() as u16,
    u32 => |rng| rng.next_u64() as u32,
    u64 => |rng| rng.next_u64(),
    usize => |rng| rng.next_u64() as usize,
    i8 => |rng| rng.next_u64() as i8,
    i16 => |rng| rng.next_u64() as i16,
    i32 => |rng| rng.next_u64() as i32,
    i64 => |rng| rng.next_u64() as i64,
    isize => |rng| rng.next_u64() as isize,
    bool => |rng| rng.next_u64() & 1 == 1,
    // Full bit patterns: subnormals, infinities and NaNs included,
    // matching upstream `any::<f64>()`'s adversarial spirit.
    f64 => |rng| f64::from_bits(rng.next_u64()),
    f32 => |rng| f32::from_bits(rng.next_u64() as u32),
}

/// String literals act as regex-subset patterns (e.g.
/// `"[a-z][a-z0-9_]{0,8}"`), matching upstream proptest.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> NewValue<String> {
        crate::string::generate(self, rng)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> NewValue<Self::Value> {
                let ($($name,)+) = self;
                Ok(($($name.generate(rng)?,)+))
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

/// Builds a uniform union of heterogeneous strategies with a common
/// value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($branch:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::boxed($branch)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn map_filter_vec_option_compose() {
        let mut rng = StdRng::seed_from_u64(11);
        let strat = crate::collection::vec(
            crate::option::of(
                (0u32..100)
                    .prop_map(|v| v * 2)
                    .prop_filter("odd", |v| *v % 4 == 0),
            ),
            1..5,
        );
        for _ in 0..200 {
            let v = strat.generate(&mut rng).unwrap();
            assert!((1..5).contains(&v.len()));
            for item in v.into_iter().flatten() {
                assert_eq!(item % 4, 0);
                assert!(item < 200);
            }
        }
    }

    #[test]
    fn union_draws_every_branch() {
        let mut rng = StdRng::seed_from_u64(12);
        let strat = prop_oneof![Just(1u8), Just(2u8), 3u8..=3];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[strat.generate(&mut rng).unwrap() as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    #[test]
    fn flat_map_generates_dependently() {
        let mut rng = StdRng::seed_from_u64(15);
        // Draw a length, then a vector of exactly that length.
        let strat = (1usize..6).prop_flat_map(|n| crate::collection::vec(0u32..10, n..n + 1));
        for _ in 0..200 {
            let v = strat.generate(&mut rng).unwrap();
            assert!((1..6).contains(&v.len()));
        }
    }

    #[test]
    fn impossible_filter_rejects_instead_of_hanging() {
        let mut rng = StdRng::seed_from_u64(13);
        let strat = (0u32..10).prop_filter("never", |_| false);
        assert!(strat.generate(&mut rng).is_err());
    }

    #[test]
    fn tuples_generate_componentwise() {
        let mut rng = StdRng::seed_from_u64(14);
        let strat = (
            0u8..5,
            any::<bool>(),
            Just("x"),
            0i64..=0,
            1usize..2,
            0u32..1,
            9u64..10,
        );
        let (a, _b, c, d, e, f, g) = strat.generate(&mut rng).unwrap();
        assert!(a < 5);
        assert_eq!((c, d, e, f, g), ("x", 0, 1, 0, 9));
    }
}
