//! Point-set statistics: distance extrema and spread.
//!
//! The spread ratio σ (largest over smallest pairwise distance) governs the
//! sliding-window bounds of Section 6.

use crate::{MetricSpace, Weighted};

/// Minimum pairwise distance over all distinct pairs; `None` for sets with
/// fewer than two points.  Pairs at distance exactly `0` (duplicates) are
/// ignored, mirroring the paper's convention that σ is the ratio of the
/// largest and smallest distance *between any two points*.
pub fn min_pairwise_distance<P, M: MetricSpace<P>>(metric: &M, pts: &[P]) -> Option<f64> {
    let mut best: Option<f64> = None;
    let mut row = Vec::new();
    for i in 0..pts.len() {
        metric.dist_many(&pts[i], &pts[i + 1..], &mut row);
        for &d in &row {
            if d > 0.0 && best.is_none_or(|b| d < b) {
                best = Some(d);
            }
        }
    }
    best
}

/// [`min_pairwise_distance`] over a weighted slice, scanning the `point`
/// fields in place via [`MetricSpace::dist_many_weighted`].  Summary
/// structures call this on their own representative array at radius
/// establishment; the borrow-only kernel path means no per-call clone of
/// every representative (one reusable row buffer is the only allocation).
pub fn min_pairwise_distance_weighted<P, M: MetricSpace<P>>(
    metric: &M,
    pts: &[Weighted<P>],
) -> Option<f64> {
    let mut best: Option<f64> = None;
    let mut row = Vec::new();
    for i in 0..pts.len() {
        metric.dist_many_weighted(&pts[i].point, &pts[i + 1..], &mut row);
        for &d in &row {
            if d > 0.0 && best.is_none_or(|b| d < b) {
                best = Some(d);
            }
        }
    }
    best
}

/// Maximum pairwise distance (diameter); `None` for sets with fewer than two
/// points.
pub fn max_pairwise_distance<P, M: MetricSpace<P>>(metric: &M, pts: &[P]) -> Option<f64> {
    let mut best: Option<f64> = None;
    let mut row = Vec::new();
    for i in 0..pts.len() {
        metric.dist_many(&pts[i], &pts[i + 1..], &mut row);
        for &d in &row {
            if best.is_none_or(|b| d > b) {
                best = Some(d);
            }
        }
    }
    best
}

/// Spread σ = max pairwise distance / min positive pairwise distance.
///
/// Returns `None` when the set has fewer than two distinct points.
pub fn spread<P, M: MetricSpace<P>>(metric: &M, pts: &[P]) -> Option<f64> {
    let min = min_pairwise_distance(metric, pts)?;
    let max = max_pairwise_distance(metric, pts)?;
    Some(max / min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::L2;

    #[test]
    fn extremes_and_spread() {
        let pts = vec![[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]];
        assert_eq!(min_pairwise_distance(&L2, &pts), Some(1.0));
        assert_eq!(max_pairwise_distance(&L2, &pts), Some(10.0));
        assert_eq!(spread(&L2, &pts), Some(10.0));
    }

    #[test]
    fn duplicates_ignored_for_min() {
        let pts = vec![[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]];
        assert_eq!(min_pairwise_distance(&L2, &pts), Some(2.0));
    }

    #[test]
    fn weighted_min_matches_unweighted() {
        let pts = vec![[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [7.0, 3.0]];
        let weighted: Vec<Weighted<[f64; 2]>> = pts.iter().map(|p| Weighted::new(*p, 3)).collect();
        assert_eq!(
            min_pairwise_distance_weighted(&L2, &weighted),
            min_pairwise_distance(&L2, &pts)
        );
        assert_eq!(min_pairwise_distance_weighted(&L2, &weighted[..1]), None);
        let dup: Vec<Weighted<[f64; 2]>> = vec![Weighted::new([1.0, 1.0], 2); 3];
        assert_eq!(min_pairwise_distance_weighted(&L2, &dup), None);
    }

    #[test]
    fn degenerate_sets() {
        let empty: Vec<[f64; 2]> = vec![];
        assert_eq!(spread(&L2, &empty), None);
        let single = vec![[1.0, 1.0]];
        assert_eq!(spread(&L2, &single), None);
        let all_same = vec![[1.0, 1.0]; 4];
        assert_eq!(min_pairwise_distance(&L2, &all_same), None);
    }
}
