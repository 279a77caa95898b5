//! `MBCConstruction` — Algorithm 1 of the paper.
//!
//! Given a weighted set `P`, the construction first calls `Greedy(P, k, z)`
//! (Charikar et al.) whose radius `r` satisfies `opt ≤ r ≤ 3·opt`, then
//! repeatedly takes an arbitrary remaining point `q`, makes it the
//! representative of every remaining point within `ε·r/3` of it, and
//! removes the group.  The result is an (ε,k,z)-mini-ball covering of size
//! at most `k(12/ε)^d + z` (Lemma 7).

use kcz_kcenter::charikar::{greedy_with, GreedyParams};
use kcz_metric::{MetricSpace, SpaceUsage, Weighted};

/// A mini-ball covering: the output of Algorithm 1.
#[derive(Debug, Clone)]
pub struct MiniBallCovering<P> {
    /// Representative points with aggregated weights.  Satisfies the weight
    /// and covering properties of Definition 2 with respect to the input.
    pub reps: Vec<Weighted<P>>,
    /// Mini-ball radius `δ = ε·r/3` used by the partition: every input
    /// point lies within `δ` of its representative.
    pub mini_radius: f64,
    /// The `Greedy` covering radius `r` (`opt ≤ r ≤ 3·opt`).
    pub greedy_radius: f64,
}

impl<P> MiniBallCovering<P> {
    /// Number of representatives.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// Whether the covering is empty.
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// Total weight (equals the input's total weight by Definition 2(1)).
    pub fn total_weight(&self) -> u64 {
        kcz_metric::total_weight(&self.reps)
    }
}

impl<P: SpaceUsage> SpaceUsage for MiniBallCovering<P> {
    fn words(&self) -> usize {
        self.reps.words() + 2
    }
}

/// `MBCConstruction(P, k, z, ε)` with default `Greedy` parameters.
pub fn mbc_construction<P: Clone, M: MetricSpace<P>>(
    metric: &M,
    points: &[Weighted<P>],
    k: usize,
    z: u64,
    eps: f64,
) -> MiniBallCovering<P> {
    mbc_construction_with(metric, points, k, z, eps, &GreedyParams::default())
}

/// `MBCConstruction(P, k, z, ε)` with explicit `Greedy` parameters.
///
/// `ε` must lie in `(0, 1]` (the paper's range).  For inputs whose entire
/// weight fits in the outlier budget the greedy radius is `0`; the
/// partition then only merges exact duplicates, which keeps the covering
/// property vacuously (`opt = 0`).
pub fn mbc_construction_with<P: Clone, M: MetricSpace<P>>(
    metric: &M,
    points: &[Weighted<P>],
    k: usize,
    z: u64,
    eps: f64,
    params: &GreedyParams,
) -> MiniBallCovering<P> {
    assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0, 1], got {eps}");
    if points.is_empty() {
        return MiniBallCovering {
            reps: Vec::new(),
            mini_radius: 0.0,
            greedy_radius: 0.0,
        };
    }
    let sol = greedy_with(metric, points, k, z, params);
    let delta = eps * sol.radius / 3.0;
    let reps = greedy_partition(metric, points, delta);
    MiniBallCovering {
        reps,
        mini_radius: delta,
        greedy_radius: sol.radius,
    }
}

/// The greedy partition shared by Algorithms 1 and 4: sweep the points in
/// input order; every point not yet absorbed becomes a representative and
/// absorbs all remaining points within `delta` of it.
///
/// `O(n²)` in the worst case, `O(n·|output|)` in general.  Each round is
/// one batched [`MetricSpace::within_indices`] ball query (deferred
/// `sqrt`) over the still-live points, which are kept compacted so no
/// distance to an already-absorbed point is ever computed.
pub(crate) fn greedy_partition<P: Clone, M: MetricSpace<P>>(
    metric: &M,
    points: &[Weighted<P>],
    delta: f64,
) -> Vec<Weighted<P>> {
    let mut live_pts: Vec<P> = points.iter().map(|wp| wp.point.clone()).collect();
    let mut live_w: Vec<u64> = points.iter().map(|wp| wp.weight).collect();
    let mut reps: Vec<Weighted<P>> = Vec::new();
    let mut near: Vec<usize> = Vec::new();
    while !live_pts.is_empty() {
        let rep = live_pts[0].clone();
        metric.within_indices(&rep, &live_pts, delta, &mut near);
        // `near` is ascending and starts with 0 (the representative itself,
        // at distance 0); guard against metrics that violate identity.
        if near.first() != Some(&0) {
            near.insert(0, 0);
        }
        let mut weight = 0u64;
        for &j in &near {
            weight = weight.saturating_add(live_w[j]);
        }
        // Order-preserving compaction dropping the absorbed positions.
        let mut keep = 0usize;
        let mut ni = 0usize;
        for j in 0..live_pts.len() {
            if ni < near.len() && near[ni] == j {
                ni += 1;
                continue;
            }
            live_pts.swap(keep, j);
            live_w.swap(keep, j);
            keep += 1;
        }
        live_pts.truncate(keep);
        live_w.truncate(keep);
        reps.push(Weighted { point: rep, weight });
    }
    reps
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_kcenter::exact_discrete;
    use kcz_metric::{total_weight, unit_weighted, L2};

    /// k=2 clusters of 25 points each plus z=3 distant outliers.
    fn instance() -> (Vec<[f64; 2]>, usize, u64) {
        let mut raw = vec![];
        for i in 0..25 {
            let a = i as f64 * 0.25;
            raw.push([a.cos(), a.sin()]);
            raw.push([50.0 + a.sin(), 50.0 + a.cos()]);
        }
        raw.push([500.0, 0.0]);
        raw.push([0.0, 500.0]);
        raw.push([-500.0, -500.0]);
        (raw, 2, 3)
    }

    #[test]
    fn weight_property_holds() {
        let (raw, k, z) = instance();
        let pts = unit_weighted(&raw);
        let mbc = mbc_construction(&L2, &pts, k, z, 0.5);
        assert_eq!(mbc.total_weight(), total_weight(&pts));
    }

    #[test]
    fn covering_property_holds() {
        let (raw, k, z) = instance();
        let pts = unit_weighted(&raw);
        let mbc = mbc_construction(&L2, &pts, k, z, 0.5);
        // Every input point has a representative within ε·opt.  With
        // opt ≤ r_greedy the construction guarantees distance ≤ ε·r/3 ≤ ε·opt.
        let opt = exact_discrete(&L2, &pts, k, z, &raw).radius;
        for p in &raw {
            let d = mbc
                .reps
                .iter()
                .map(|q| L2.dist(p, &q.point))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= 0.5 * opt + 1e-12, "point {p:?} at distance {d}");
        }
    }

    #[test]
    fn size_respects_lemma7() {
        let (raw, k, z) = instance();
        let pts = unit_weighted(&raw);
        for eps in [0.25, 0.5, 1.0] {
            let mbc = mbc_construction(&L2, &pts, k, z, eps);
            let bound = crate::bounds::mbc_size_bound(k, z, eps, 2);
            assert!(
                (mbc.len() as u64) <= bound,
                "eps={eps}: {} > {}",
                mbc.len(),
                bound
            );
        }
    }

    #[test]
    fn coreset_preserves_opt_radius() {
        let (raw, k, z) = instance();
        let pts = unit_weighted(&raw);
        let eps = 0.3;
        let mbc = mbc_construction(&L2, &pts, k, z, eps);
        let opt_p = exact_discrete(&L2, &pts, k, z, &raw).radius;
        let cand: Vec<[f64; 2]> = mbc.reps.iter().map(|r| r.point).collect();
        let opt_star = exact_discrete(&L2, &mbc.reps, k, z, &cand).radius;
        // Definition 1(1) over discrete centers, which can cost a factor
        // 2 against free ones: the coreset optimum must be close to the
        // original optimum.
        assert!(
            opt_star <= (1.0 + eps) * opt_p + 1e-9,
            "opt* {opt_star} vs opt {opt_p}"
        );
        assert!(
            opt_star >= (1.0 - eps) * opt_p - eps * opt_p - 1e-9,
            "opt* {opt_star} vs opt {opt_p}"
        );
    }

    #[test]
    fn duplicates_merge_even_at_zero_radius() {
        let raw = vec![[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]];
        let pts = unit_weighted(&raw);
        // k=2 covers both locations exactly: greedy radius 0.
        let mbc = mbc_construction(&L2, &pts, 2, 0, 0.5);
        assert_eq!(mbc.greedy_radius, 0.0);
        assert_eq!(mbc.len(), 2);
        assert_eq!(mbc.total_weight(), 4);
    }

    #[test]
    fn empty_input() {
        let pts: Vec<Weighted<[f64; 2]>> = vec![];
        let mbc = mbc_construction(&L2, &pts, 2, 1, 0.5);
        assert!(mbc.is_empty());
    }

    #[test]
    #[should_panic(expected = "ε must be in")]
    fn rejects_bad_eps() {
        let pts = unit_weighted(&[[0.0, 0.0]]);
        let _ = mbc_construction(&L2, &pts, 1, 0, 0.0);
    }

    #[test]
    fn partition_absorbs_within_delta_only() {
        let pts = unit_weighted(&[[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]]);
        let reps = greedy_partition(&L2, &pts, 1.0);
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].weight, 2);
        assert_eq!(reps[1].weight, 1);
        assert_eq!(reps[1].point, [2.0, 0.0]);
    }
}
