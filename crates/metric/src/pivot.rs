//! Pivot orders: one distance row that prunes every ball query.
//!
//! Fix the first point `c` of a slice as the pivot and let
//! `f(p) = dist(c, p)`.  By the triangle inequality every `q` with
//! `dist(p, q) ≤ r` has `|f(p) − f(q)| ≤ r`, so with the points sorted by
//! `f`, the candidates of the ball of radius `r` around `p` form one
//! contiguous window of the order.  This holds for any metric, and for
//! any `p`, inside the slice or not.
//!
//! The window is widened by `1e-9·(r + max f)`.  The computed keys are
//! rounded, and a radius test can accept a pair whose exact distance
//! exceeds `r` by a few ulps (the deferred-`sqrt` contract of
//! [`MetricSpace`](crate::MetricSpace)); a `q` that passes the test at
//! `r` has `f(q) ≤ max f + r` up to rounding, so every error involved is
//! relative to at most `r + max f`, and far below `10⁻⁹` of it.  When a
//! key or the widened radius is not finite (a NaN or infinite
//! coordinate, an overflowing distance), no bound can be read off the
//! keys and the window spans every point.
//!
//! The greedy partition of Algorithms 1 and 4, the shard absorb of
//! Algorithm 3 and the ball queries of the Charikar solve all prune with
//! one [`PivotOrder`].  Every radius test they run is still the per-pair
//! predicate; the order only skips pairs that cannot pass it.

use std::ops::Range;

/// A slice's positions sorted by each point's distance `f` to the
/// slice's first point (see the module docs), with one item of type `T`
/// stored per sorted position.
///
/// The item is the point itself when the caller scans windows with the
/// batched kernels, so that a window is a contiguous slice of points; or
/// `()`, which costs no memory, when the caller reads its own slice
/// through [`index`](Self::index).
#[derive(Debug, Clone)]
pub struct PivotOrder<T> {
    /// `f` of each sorted position, ascending under `total_cmp`, so any
    /// non-finite key sorts to an end.
    keys: Vec<f64>,
    /// Index into the slice of each sorted position; equal keys keep
    /// index order.
    index: Vec<usize>,
    /// The item of each sorted position.
    items: Vec<T>,
}

impl<T> Default for PivotOrder<T> {
    fn default() -> Self {
        PivotOrder {
            keys: Vec::new(),
            index: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl<T> PivotOrder<T> {
    /// Orders the indices of `f` by key, where `f[i]` is the distance of
    /// point `i` to point 0 (the `dist_many` row of the slice's first
    /// point), storing `item(i)` at the sorted position of `i`.
    pub fn new(f: &[f64], item: impl Fn(usize) -> T) -> Self {
        let mut index: Vec<usize> = (0..f.len()).collect();
        // A stable sort: equal keys keep index order.
        index.sort_by(|&a, &b| f[a].total_cmp(&f[b]));
        PivotOrder {
            keys: index.iter().map(|&i| f[i]).collect(),
            items: index.iter().map(|&i| item(i)).collect(),
            index,
        }
    }

    /// The items in sorted order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The index of each sorted position.
    pub fn index(&self) -> &[usize] {
        &self.index
    }

    /// Adds the point of the next index, one past the last, whose
    /// distance to the pivot is `f`.  Its key goes after every equal key,
    /// so ties stay in index order.
    pub fn push(&mut self, f: f64, item: T) {
        let at = self.keys.partition_point(|k| k.total_cmp(&f).is_le());
        self.keys.insert(at, f);
        self.index.insert(at, self.index.len());
        self.items.insert(at, item);
    }

    /// Sorted positions of every point that can lie within `r` of a point
    /// whose distance to the pivot is `f`: the keys within `r` of `f`,
    /// widened as the module docs describe.  Empty for a negative `r`;
    /// every position when a key or the width is not finite.
    pub fn window(&self, f: f64, r: f64) -> Range<usize> {
        let (Some(&lo), Some(&hi)) = (self.keys.first(), self.keys.last()) else {
            return 0..0;
        };
        let w = r + 1e-9 * (r + hi);
        if !(lo.is_finite() && hi.is_finite() && f.is_finite() && w.is_finite()) {
            return 0..self.keys.len();
        }
        let start = self.keys.partition_point(|&k| k < f - w);
        start..self.keys.partition_point(|&k| k <= f + w).max(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Line, Linf, MetricSpace, L2};

    /// The keys of `pts` under `metric`, pivot `pts[0]`, and their order.
    fn order_of<P: Clone, M: MetricSpace<P>>(metric: &M, pts: &[P]) -> (Vec<f64>, PivotOrder<P>) {
        let mut f = Vec::new();
        metric.dist_many(&pts[0], pts, &mut f);
        let order = PivotOrder::new(&f, |i| pts[i].clone());
        (f, order)
    }

    /// Whether the point of index `q` lies in the window of the point of
    /// index `p` at radius `r`.
    fn in_window<T>((f, order): &(Vec<f64>, PivotOrder<T>), p: usize, q: usize, r: f64) -> bool {
        order.index()[order.window(f[p], r)].contains(&q)
    }

    #[test]
    fn window_edge_pair_is_not_missed() {
        // Seen from the pivot at 0, p and q sit at computed distance
        // exactly r from each other, yet q lies above the computed edge
        // f(p) + r of p's window, and p below the edge f(q) − r of q's:
        // only the widening keeps each in the other's window.
        let (p, q) = (8.867689006035121, 212.70829658103784);
        let r = Line.dist(&p, &q);
        assert!(p + r < q && q - r > p, "precondition: both edges miss");
        let line = [0.0, p, q, 1000.0];
        let order = order_of(&Line, &line);
        assert!(in_window(&order, 1, 2, r) && in_window(&order, 2, 1, r));
        // The same pair on an axis of the plane has the same distances.
        let planar = line.map(|x| [x, 0.0]);
        assert_eq!(L2.dist(&planar[1], &planar[2]), r);
        for order in [order_of(&L2, &planar), order_of(&Linf, &planar)] {
            assert!(in_window(&order, 1, 2, r) && in_window(&order, 2, 1, r));
        }
    }

    /// Asserts that every pair of `pts` passing `metric`'s radius test
    /// lies in the window, at radii from 0 to past the diameter.
    fn assert_windows_hold_balls<M: MetricSpace<[f64; 2]>>(metric: &M, pts: &[[f64; 2]]) {
        let order = order_of(metric, pts);
        for r in [0.0, 0.5, 1.0, 3.7, 12.0, 500.0] {
            for p in 0..pts.len() {
                for q in 0..pts.len() {
                    if metric.within(&pts[p], &pts[q], r) {
                        assert!(in_window(&order, p, q, r), "r = {r}: {p} -> {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn windows_hold_every_ball() {
        // Seeded clusters with a lattice of exact ties, and a ring around
        // the pivot, where every window spans the ring.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut u = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut cloud: Vec<[f64; 2]> = (0..60)
            .map(|i| {
                let c = (i % 3) as f64 * 30.0;
                [c + u() * 5.0, c * 0.5 + u() * 5.0]
            })
            .collect();
        cloud.extend((0..25).map(|i| [(i % 5) as f64, (i / 5) as f64]));
        let ring: Vec<[f64; 2]> = std::iter::once([0.0, 0.0])
            .chain((0..40).map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 40.0;
                [10.0 * a.cos(), 10.0 * a.sin()]
            }))
            .collect();
        for pts in [cloud, ring] {
            assert_windows_hold_balls(&L2, &pts);
            assert_windows_hold_balls(&Linf, &pts);
        }
    }

    #[test]
    fn push_keeps_the_order_sorted_with_ties_by_index() {
        let pts = [0.0, 3.0, -3.0, 1.0];
        let (_, mut order) = order_of(&Line, &pts);
        assert_eq!(order.index(), &[0, 3, 1, 2]);
        order.push(3.0, 3.0);
        order.push(0.5, 0.5);
        assert_eq!(order.index(), &[0, 5, 3, 1, 2, 4]);
        assert_eq!(order.items(), &[0.0, 0.5, 1.0, 3.0, -3.0, 3.0]);
        // The window at 3 ± 0 holds exactly the three points at key 3.
        assert_eq!(order.window(3.0, 0.0), 3..6);
    }

    #[test]
    fn degenerate_windows() {
        assert_eq!(PivotOrder::<f64>::default().window(1.0, 1.0), 0..0);
        let (_, order) = order_of(&Line, &[0.0, 1.0, 2.0, 5.0]);
        // A negative radius matches nothing, a NaN one spans everything
        // and leaves the radius test to reject every point.
        assert!(order.window(1.0, -1.0).is_empty());
        assert_eq!(order.window(1.0, f64::NAN), 0..4);
        assert_eq!(order.window(f64::INFINITY, 1.0), 0..4);
        assert_eq!(order.window(1.0, f64::MAX), 0..4);
        // A NaN or infinite key disables the pruning for every query.
        for bad in [f64::NAN, f64::INFINITY] {
            let (_, order) = order_of(&L2, &[[0.0, 0.0], [1.0, 0.0], [bad, 0.0], [9.0, 0.0]]);
            assert_eq!(order.window(1.0, 0.5), 0..4);
        }
    }
}
