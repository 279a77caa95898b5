//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// Length specification accepted by [`vec()`]: an exact `usize`, a half-open
/// `Range<usize>`, or an inclusive `RangeInclusive<usize>`.
#[derive(Clone, Debug)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end() + 1,
        }
    }
}

/// Strategy producing `Vec`s of values from an element strategy.
pub struct VecStrategy<S> {
    elem: S,
    size: SizeRange,
}

/// `Vec` strategy with lengths drawn uniformly from `size`
/// (mirror of `proptest::collection::vec`).
pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        elem,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max - self.size.min) as u64;
        let len = self.size.min
            + if span > 0 {
                rng.below(span) as usize
            } else {
                0
            };
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }
}
