//! Exhaustive optimal solver for k-center with outliers over a finite
//! candidate-center set.
//!
//! The problem is NP-hard, so exact answers are only practical on small
//! instances; tests and quality experiments use this as ground truth when
//! validating the `(1±ε)` coreset guarantees (Definition 1).  Restricting
//! centers to a candidate set `C` is the standard discrete formulation;
//! with `C = P` the optimum is within a factor 2 of the unrestricted one,
//! and the coreset inequalities hold verbatim for any fixed `C`.

use kcz_metric::{MetricSpace, Weighted};

use crate::cost::cost_with_outliers;

/// An optimal discrete solution.
#[derive(Debug, Clone)]
pub struct ExactSolution<P> {
    /// Optimal centers (subset of the candidates, size ≤ k).
    pub centers: Vec<P>,
    /// Optimal radius.
    pub radius: f64,
}

/// Work bound: refuse instances with more than this many center subsets.
const MAX_SUBSETS: u128 = 3_000_000;

fn n_choose_k(n: usize, k: usize) -> u128 {
    let mut r: u128 = 1;
    for i in 0..k.min(n) {
        r = r.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if r > MAX_SUBSETS {
            return r;
        }
    }
    r
}

/// Exhaustively finds the optimal ≤k centers among `candidates` for the
/// weighted k-center problem with outlier budget `z` on `points`.
///
/// Panics when the search space exceeds an internal work bound
/// (≈ 3·10⁶ subsets) — this solver is for ground truth on small instances.
pub fn exact_discrete<P: Clone, M: MetricSpace<P>>(
    metric: &M,
    points: &[Weighted<P>],
    k: usize,
    z: u64,
    candidates: &[P],
) -> ExactSolution<P> {
    let total: u64 = points.iter().fold(0u64, |a, p| a.saturating_add(p.weight));
    if total <= z || points.is_empty() {
        return ExactSolution {
            centers: Vec::new(),
            radius: 0.0,
        };
    }
    assert!(k > 0, "k must be positive when weight must be covered");
    assert!(!candidates.is_empty(), "need at least one candidate center");
    let k = k.min(candidates.len());
    assert!(
        n_choose_k(candidates.len(), k) <= MAX_SUBSETS,
        "exact solver work bound exceeded: C({}, {}) subsets",
        candidates.len(),
        k
    );

    let mut best_radius = f64::INFINITY;
    let mut best: Vec<usize> = Vec::new();
    let mut subset: Vec<usize> = (0..k).collect();
    loop {
        let centers: Vec<P> = subset.iter().map(|&i| candidates[i].clone()).collect();
        let r = cost_with_outliers(metric, points, &centers, z);
        if r < best_radius {
            best_radius = r;
            best = subset.clone();
        }
        // Next k-combination of 0..candidates.len() in lexicographic order.
        let n = candidates.len();
        let mut i = k;
        loop {
            if i == 0 {
                return ExactSolution {
                    centers: best.iter().map(|&i| candidates[i].clone()).collect(),
                    radius: best_radius,
                };
            }
            i -= 1;
            if subset[i] != i + n - k {
                subset[i] += 1;
                for j in (i + 1)..k {
                    subset[j] = subset[j - 1] + 1;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charikar::greedy;
    use kcz_metric::{unit_weighted, L2};

    #[test]
    fn finds_obvious_optimum() {
        let raw = vec![
            [0.0, 0.0],
            [2.0, 0.0],
            [10.0, 0.0],
            [12.0, 0.0],
            [100.0, 0.0],
        ];
        let pts = unit_weighted(&raw);
        let sol = exact_discrete(&L2, &pts, 2, 1, &raw);
        // Discard [100,0] as the outlier; cover each pair from one endpoint.
        assert_eq!(sol.radius, 2.0);
        assert_eq!(sol.centers.len(), 2);
    }

    #[test]
    fn zero_radius_when_k_covers_everything() {
        let raw = vec![[0.0, 0.0], [5.0, 5.0]];
        let pts = unit_weighted(&raw);
        let sol = exact_discrete(&L2, &pts, 2, 0, &raw);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn whole_weight_in_budget() {
        let raw = vec![[0.0, 0.0], [5.0, 5.0]];
        let pts = unit_weighted(&raw);
        let sol = exact_discrete(&L2, &pts, 1, 2, &raw);
        assert_eq!(sol.radius, 0.0);
        assert!(sol.centers.is_empty());
    }

    #[test]
    fn weighted_budget_respected() {
        let raw = vec![[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]];
        let mut pts = unit_weighted(&raw);
        pts[0].weight = 3;
        pts[1].weight = 3;
        // Budget 2 discards only the weight-1 point at [20,0]; the two
        // weight-3 points must share one center at distance 10.
        let sol = exact_discrete(&L2, &pts, 1, 2, &raw);
        assert_eq!(sol.radius, 10.0);
        // Budget 4 additionally discards one weight-3 point.
        let sol = exact_discrete(&L2, &pts, 1, 4, &raw);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn greedy_is_within_three_of_exact() {
        // Random-ish small instance, cross-validate the 3-approximation.
        let raw: Vec<[f64; 2]> = (0..14)
            .map(|i| {
                let x = (i * 37 % 100) as f64;
                let y = (i * 61 % 100) as f64;
                [x, y]
            })
            .collect();
        let pts = unit_weighted(&raw);
        for (k, z) in [(1usize, 0u64), (2, 1), (3, 2), (2, 3)] {
            let ex = exact_discrete(&L2, &pts, k, z, &raw);
            let gr = greedy(&L2, &pts, k, z);
            assert!(
                gr.radius <= 3.0 * ex.radius + 1e-9,
                "k={k} z={z}: greedy {} vs exact {}",
                gr.radius,
                ex.radius
            );
            assert!(gr.radius >= ex.radius - 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "work bound")]
    fn refuses_huge_search() {
        let raw: Vec<[f64; 2]> = (0..200).map(|i| [i as f64, 0.0]).collect();
        let pts = unit_weighted(&raw);
        let _ = exact_discrete(&L2, &pts, 8, 0, &raw);
    }
}
