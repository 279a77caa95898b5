//! Empirical validation of the (ε,k,z)-coreset conditions (Definition 1).
//!
//! Tests and the quality experiment (`experiments f8_quality`) use these
//! checkers to confirm that each algorithm's output actually behaves like a
//! coreset, with optimal radii computed by the exact discrete solver.

use kcz_kcenter::{cost::uncovered_weight, exact_discrete};
use kcz_metric::{total_weight, MetricSpace, Weighted};

/// Outcome of a Definition-1 validation.
#[derive(Debug, Clone)]
pub struct CoresetReport {
    /// Optimal radius on the original set (discrete candidates).
    pub opt_original: f64,
    /// Optimal radius on the coreset (same candidate set).
    pub opt_coreset: f64,
    /// `opt_coreset / opt_original` (1.0 when both are 0).
    pub ratio: f64,
    /// Whether condition (1) holds within `[1−ε_eff, 1+ε_eff]`.
    pub condition1: bool,
    /// Whether condition (2) held for the coreset's optimal ball set.
    pub condition2: bool,
    /// Whether the total weights agree (Definition 2(1)).
    pub weight_preserved: bool,
}

/// Validates both coreset conditions for `coreset` against `original`.
///
/// `eps_eff` is the *effective* error to test against — callers composing
/// coverings (Lemma 5) pass the composed value, e.g. `3ε` for the MPC
/// pipelines.  Candidate centers are the original points, which keeps both
/// optima in the same discrete formulation.
pub fn validate_coreset<P: Clone + PartialEq, M: MetricSpace<P>>(
    metric: &M,
    original: &[Weighted<P>],
    coreset: &[Weighted<P>],
    k: usize,
    z: u64,
    eps_eff: f64,
) -> CoresetReport {
    let candidates: Vec<P> = original.iter().map(|p| p.point.clone()).collect();
    let opt_original = exact_discrete(metric, original, k, z, &candidates).radius;
    let star = exact_discrete(metric, coreset, k, z, &candidates);
    let opt_coreset = star.radius;

    let ratio = if opt_original == 0.0 {
        if opt_coreset == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        opt_coreset / opt_original
    };
    // Discrete-candidate slack: both directions of Definition 1(1) pick up
    // one ε·opt additive term (Lemma 3's proof), so test against ±ε_eff
    // with a small numerical cushion.
    let tol = 1e-9 + eps_eff * opt_original;
    let condition1 = opt_coreset <= opt_original + tol && opt_coreset >= opt_original - tol;

    // Condition (2): take the coreset's optimal ball set (radius
    // opt_coreset, outlier weight ≤ z on the coreset) and expand by
    // ε_eff·opt_original; the expanded balls must leave ≤ z weight of the
    // original uncovered.
    let condition2 = if star.centers.is_empty() {
        total_weight(original) <= z
    } else {
        let expanded = opt_coreset + eps_eff * opt_original + 1e-9;
        uncovered_weight(metric, original, &star.centers, expanded) <= z
    };

    let weight_preserved = total_weight(original) == total_weight(coreset);

    CoresetReport {
        opt_original,
        opt_coreset,
        ratio,
        condition1,
        condition2,
        weight_preserved,
    }
}

/// Maximum distance from any original point to its nearest coreset point —
/// the covering-property radius (Definition 2(2)).  `None` when the
/// coreset is empty but the original is not.
pub fn covering_radius<P, M: MetricSpace<P>>(
    metric: &M,
    original: &[Weighted<P>],
    coreset: &[Weighted<P>],
) -> Option<f64> {
    if original.is_empty() {
        return Some(0.0);
    }
    if coreset.is_empty() {
        return None;
    }
    let mut worst = 0.0f64;
    for p in original {
        let (_, d) = metric
            .nearest_weighted(&p.point, coreset)
            .expect("coreset checked non-empty above");
        worst = worst.max(d);
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbc::mbc_construction;
    use kcz_metric::{unit_weighted, L2};

    fn instance() -> Vec<Weighted<[f64; 2]>> {
        let mut raw = vec![];
        for i in 0..20 {
            let a = i as f64;
            raw.push([a * 0.05, (a * 0.07).sin() * 0.1]);
            raw.push([30.0 + a * 0.05, 30.0 + (a * 0.11).cos() * 0.1]);
        }
        raw.push([300.0, -300.0]);
        raw.push([-300.0, 300.0]);
        unit_weighted(&raw)
    }

    #[test]
    fn mbc_passes_validation() {
        let pts = instance();
        let mbc = mbc_construction(&L2, &pts, 2, 2, 0.4);
        let report = validate_coreset(&L2, &pts, &mbc.reps, 2, 2, 0.4);
        assert!(report.condition1, "{report:?}");
        assert!(report.condition2, "{report:?}");
        assert!(report.weight_preserved, "{report:?}");
    }

    #[test]
    fn bogus_coreset_fails_validation() {
        let pts = instance();
        // A "coreset" that collapses everything to one far-away point.
        let fake = vec![Weighted::new([1e6, 1e6], total_weight(&pts))];
        let report = validate_coreset(&L2, &pts, &fake, 2, 2, 0.4);
        assert!(!report.condition2 || !report.condition1, "{report:?}");
    }

    #[test]
    fn dropping_weight_detected() {
        let pts = instance();
        let mbc = mbc_construction(&L2, &pts, 2, 2, 0.4);
        let mut reps = mbc.reps.clone();
        reps.pop();
        let report = validate_coreset(&L2, &pts, &reps, 2, 2, 0.4);
        assert!(!report.weight_preserved);
    }

    #[test]
    fn covering_radius_bounds_mbc() {
        let pts = instance();
        let mbc = mbc_construction(&L2, &pts, 2, 2, 0.4);
        let cr = covering_radius(&L2, &pts, &mbc.reps).unwrap();
        assert!(cr <= mbc.mini_radius + 1e-12);
        assert_eq!(covering_radius(&L2, &pts, &[]), None);
        assert_eq!(covering_radius::<[f64; 2], _>(&L2, &[], &[]), Some(0.0));
    }
}
