//! Clustering-cost evaluation for weighted point sets with outliers.

use kcz_metric::{MetricSpace, Weighted};

/// Total weight of points farther than `r` from every center.
///
/// This is the outlier weight of the solution `(centers, r)`; the solution
/// is feasible for the k-center problem with `z` outliers iff the result is
/// at most `z`.
///
/// Classification is boundary-exact: callers routinely pass a radius that
/// *is* some point's computed distance (e.g. the output of
/// [`cost_with_outliers`]), so the test compares the batched
/// [`MetricSpace::nearest`] distance — which equals the scalar `dist`
/// exactly — rather than a deferred-`sqrt` ball predicate.
pub fn uncovered_weight<P, M: MetricSpace<P>>(
    metric: &M,
    points: &[Weighted<P>],
    centers: &[P],
    r: f64,
) -> u64 {
    let mut total = 0u64;
    for wp in points {
        let covered = metric
            .nearest(&wp.point, centers)
            .is_some_and(|(_, d)| d <= r);
        if !covered {
            total = total.saturating_add(wp.weight);
        }
    }
    total
}

/// The smallest radius `r` such that balls of radius `r` around `centers`
/// cover all of `points` except for total weight at most `z`.
///
/// Runs in `O(n·k + n + z log z)` for weights of at least 1.  Returns
/// `0.0` when the point set is empty or its entire weight fits in the
/// outlier budget.  Panics if `centers` is empty while some weight must
/// be covered.
pub fn cost_with_outliers<P, M: MetricSpace<P>>(
    metric: &M,
    points: &[Weighted<P>],
    centers: &[P],
    z: u64,
) -> f64 {
    let total: u64 = points.iter().fold(0u64, |a, p| a.saturating_add(p.weight));
    if total <= z {
        return 0.0;
    }
    assert!(
        !centers.is_empty(),
        "no centers given but {} weight must be covered",
        total - z
    );
    outlier_radius(&mut nearest_distances(metric, points, centers), z)
}

/// The distance of every point to its nearest center (batched kernel;
/// the returned distance equals the scalar `dist` exactly), paired with
/// its weight.  Panics if `centers` is empty and `points` is not.
pub(crate) fn nearest_distances<P, M: MetricSpace<P>>(
    metric: &M,
    points: &[Weighted<P>],
    centers: &[P],
) -> Vec<(f64, u64)> {
    points
        .iter()
        .map(|wp| {
            let (_, d) = metric
                .nearest(&wp.point, centers)
                .expect("centers are not empty");
            (d, wp.weight)
        })
        .collect()
}

/// The radius of [`cost_with_outliers`] from each point's distance to
/// its nearest center and its weight, in any order; reorders `far`.
///
/// It walks from the farthest point inward, spending the outlier budget
/// on the farthest points; the radius is the distance of the first point
/// that no longer fits in the budget, `0.0` when every point fits.  The
/// answer does not depend on the order of equal distances: a run of
/// equal distances either fits in the budget left in any order, or some
/// point of it does not fit in any order.  Each point of positive weight
/// spends at least 1, so the walk ends within the `z + 1` farthest
/// points, which a selection finds in `O(n)`; the walk goes on over the
/// rest, sorted, only when zero weights left budget after them.  The
/// whole weight is summed saturating, as [`cost_with_outliers`] checks
/// it, and fits when that sum is at most `z`.
pub(crate) fn outlier_radius(far: &mut [(f64, u64)], z: u64) -> f64 {
    if far.iter().fold(0u64, |a, &(_, w)| a.saturating_add(w)) <= z {
        return 0.0;
    }
    let farther =
        |a: &(f64, u64), b: &(f64, u64)| b.0.partial_cmp(&a.0).expect("non-NaN distances");
    let head = usize::try_from(z)
        .ok()
        .and_then(|z| z.checked_add(1))
        .filter(|&m| m < far.len())
        .unwrap_or(far.len());
    if head < far.len() {
        far.select_nth_unstable_by(head - 1, farther);
    }
    let (near, rest) = far.split_at_mut(head);
    near.sort_unstable_by(farther);
    let mut budget = z;
    for &(d, w) in near.iter() {
        if w > budget {
            return d;
        }
        budget -= w;
    }
    rest.sort_unstable_by(farther);
    for &(d, w) in rest.iter() {
        if w > budget {
            return d;
        }
        budget -= w;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_metric::{unit_weighted, L2};

    fn pts() -> Vec<Weighted<[f64; 2]>> {
        unit_weighted(&[
            [0.0, 0.0],
            [1.0, 0.0],
            [2.0, 0.0],
            [10.0, 0.0],
            [11.0, 0.0],
            [100.0, 0.0],
        ])
    }

    #[test]
    fn cost_no_outliers() {
        let p = pts();
        let centers = vec![[1.0, 0.0], [10.5, 0.0]];
        // Farthest point is [100,0] at distance 89.5 from the second center.
        assert_eq!(cost_with_outliers(&L2, &p, &centers, 0), 89.5);
    }

    #[test]
    fn cost_with_budget() {
        let p = pts();
        let centers = vec![[1.0, 0.0], [10.5, 0.0]];
        // One outlier removes [100,0]; radius shrinks to 1 ([2,0] or [0,0]).
        assert_eq!(cost_with_outliers(&L2, &p, &centers, 1), 1.0);
    }

    #[test]
    fn cost_weighted_budget() {
        let mut p = pts();
        p[5].weight = 3; // the far point now weighs 3
        let centers = vec![[1.0, 0.0], [10.5, 0.0]];
        // z = 2 cannot exclude a weight-3 point.
        assert_eq!(cost_with_outliers(&L2, &p, &centers, 2), 89.5);
        assert_eq!(cost_with_outliers(&L2, &p, &centers, 3), 1.0);
    }

    #[test]
    fn whole_set_can_be_outliers() {
        let p = pts();
        assert_eq!(cost_with_outliers(&L2, &p, &[], 6), 0.0);
        assert_eq!(cost_with_outliers::<[f64; 2], _>(&L2, &[], &[], 0), 0.0);
    }

    #[test]
    fn uncovered_counts_weights() {
        let mut p = pts();
        p[0].weight = 5;
        let centers = vec![[10.5, 0.0]];
        // Within radius 1: [10,0] and [11,0]. Uncovered: 5+1+1+1 = 8.
        assert_eq!(uncovered_weight(&L2, &p, &centers, 1.0), 8);
        assert_eq!(uncovered_weight(&L2, &p, &centers, 1000.0), 0);
    }

    /// The walk [`outlier_radius`] must reproduce: every point, sorted
    /// farthest first.
    fn sorted_walk(far: &[(f64, u64)], z: u64) -> f64 {
        if far.iter().fold(0u64, |a, &(_, w)| a.saturating_add(w)) <= z {
            return 0.0;
        }
        let mut far = far.to_vec();
        far.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("non-NaN distances"));
        let mut budget = z;
        for (d, w) in far {
            if w > budget {
                return d;
            }
            budget -= w;
        }
        0.0
    }

    #[test]
    fn outlier_radius_matches_the_sorted_walk() {
        // Zero weights after the z + 1 farthest points leave budget that
        // only the walk over the rest spends.
        let mut far = vec![(5.0, 0), (4.0, 0), (3.0, 1), (2.0, 1)];
        assert_eq!(outlier_radius(&mut far, 1), 2.0);
        // Seeded sets: distances from six values, so ties everywhere;
        // weights of 0 to 3, three in eight of them 0 and one in eight
        // `u64::MAX`; budgets from 0 past the point count and the total
        // weight.
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |m: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % m
        };
        for n in [1usize, 2, 3, 8, 17, 64] {
            for _ in 0..40 {
                let far: Vec<(f64, u64)> = (0..n)
                    .map(|_| {
                        let w = [0, 0, 1, 2, 3, 0, 1, u64::MAX][next(8) as usize];
                        (next(6) as f64 * 0.5, w)
                    })
                    .collect();
                let budgets = (0..=3 * n as u64 + 2).chain([u64::MAX - 1, u64::MAX]);
                for z in budgets {
                    let mut got = far.clone();
                    assert_eq!(
                        outlier_radius(&mut got, z).to_bits(),
                        sorted_walk(&far, z).to_bits(),
                        "{far:?} z={z}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no centers")]
    fn empty_centers_with_weight_panics() {
        let p = pts();
        let _ = cost_with_outliers(&L2, &p, &[], 0);
    }
}
