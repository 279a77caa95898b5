//! `MBCConstruction` — Algorithm 1 of the paper.
//!
//! Given a weighted set `P`, the construction first calls `Greedy(P, k, z)`
//! (Charikar et al.) whose radius `r` satisfies `opt ≤ r ≤ 3·opt`, then
//! repeatedly takes an arbitrary remaining point `q`, makes it the
//! representative of every remaining point within `ε·r/3` of it, and
//! removes the group.  The result is an (ε,k,z)-mini-ball covering of size
//! at most `k(12/ε)^d + z` (Lemma 7).

use kcz_kcenter::charikar::{greedy_with, GreedyParams};
use kcz_metric::pivot::PivotOrder;
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
    let reps = greedy_partition(metric, points, delta, &mut Vec::new());
    MiniBallCovering {
        reps,
        mini_radius: delta,
        greedy_radius: sol.radius,
    }
}

/// The greedy partition shared by Algorithms 1 and 4: sweep the points in
/// input order; every point not yet absorbed becomes a representative and
/// absorbs all remaining points within `delta` of it.  The first
/// representative is always `points[0]`.
///
/// `owner` is cleared and records, for each point, the index of the
/// representative that absorbed it.  A representative absorbs only points
/// after it, so each group's first member is its representative, and the
/// groups' first members come in group order.  Each representative's
/// weight is the saturating sum of its group's weights, in any order.
///
/// The points are put in one [`PivotOrder`] by their distance to
/// `points[0]`, and each representative runs one batched
/// [`MetricSpace::within_indices`] ball query (deferred `sqrt`) over its
/// own window of that order only.  `O(n²)` distances in the worst case,
/// a ring around `points[0]`, where every window spans every point.
pub(crate) fn greedy_partition<P: Clone, M: MetricSpace<P>>(
    metric: &M,
    points: &[Weighted<P>],
    delta: f64,
    owner: &mut Vec<usize>,
) -> Vec<Weighted<P>> {
    owner.clear();
    let Some(pivot) = points.first() else {
        return Vec::new();
    };
    let mut f = Vec::new();
    metric.dist_many_weighted(&pivot.point, points, &mut f);
    let order = PivotOrder::new(&f, |i| points[i].point.clone());
    // `usize::MAX` marks a point no representative has absorbed yet.
    owner.resize(points.len(), usize::MAX);
    let mut reps: Vec<Weighted<P>> = Vec::new();
    let mut near: Vec<usize> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if owner[i] != usize::MAX {
            continue;
        }
        // The representative counts itself even under a metric that
        // violates identity.  Weights saturate, so the order of the sum
        // cannot change it.
        let group = reps.len();
        owner[i] = group;
        let mut weight = p.weight;
        let win = order.window(f[i], delta);
        let at = &order.index()[win.clone()];
        metric.within_indices(&p.point, &order.items()[win], delta, &mut near);
        for &j in &near {
            let q = at[j];
            if owner[q] == usize::MAX {
                owner[q] = group;
                weight = weight.saturating_add(points[q].weight);
            }
        }
        reps.push(Weighted {
            point: p.point.clone(),
            weight,
        });
    }
    reps
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_kcenter::exact_discrete;
    use kcz_metric::{total_weight, unit_weighted, GridL2, Line, Linf, L2};

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

    /// The compacting partition the pivot windows replaced: each round
    /// runs one `within_indices` over every still-live point, and the
    /// live points are kept compacted in input order.
    fn reference_partition<P: Clone, M: MetricSpace<P>>(
        metric: &M,
        points: &[Weighted<P>],
        delta: f64,
    ) -> Vec<Weighted<P>> {
        let mut live_pts: Vec<P> = points.iter().map(|wp| wp.point.clone()).collect();
        let mut live_w: Vec<u64> = points.iter().map(|wp| wp.weight).collect();
        let mut reps = Vec::new();
        let mut near = Vec::new();
        while !live_pts.is_empty() {
            let rep = live_pts[0].clone();
            metric.within_indices(&rep, &live_pts, delta, &mut near);
            if near.first() != Some(&0) {
                near.insert(0, 0);
            }
            let mut weight = 0u64;
            for &j in &near {
                weight = weight.saturating_add(live_w[j]);
            }
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

    /// Radii of the partition comparisons: zero, lattice ties, a few
    /// generic values, and past `√f64::MAX`, where `δ²` overflows and the
    /// radius tests fall back to scalar distances.
    const DELTAS: [f64; 7] = [0.0, 0.5, 1.0, 3.7, 40.0, 2e154, 2e200];

    /// Asserts that the pivot partition returns the reference's reps,
    /// with the same point bits, weights and order, at every radius of
    /// `deltas`.
    fn assert_partition_matches<P: Clone, M: MetricSpace<P>>(
        metric: &M,
        points: &[Weighted<P>],
        deltas: &[f64],
        bits: impl Fn(&P) -> Vec<u64>,
        what: &str,
    ) -> Vec<Weighted<P>> {
        let key = |reps: &[Weighted<P>]| -> Vec<(Vec<u64>, u64)> {
            reps.iter().map(|w| (bits(&w.point), w.weight)).collect()
        };
        let mut got = Vec::new();
        let mut owner = Vec::new();
        for &delta in deltas {
            got = greedy_partition(metric, points, delta, &mut owner);
            let want = reference_partition(metric, points, delta);
            assert_eq!(key(&got), key(&want), "{what}, delta = {delta}");
            assert_eq!(
                key(&regroup(points, &owner)),
                key(&got),
                "{what}, delta = {delta}: the owner record"
            );
        }
        got
    }

    /// The representatives a partition's owner record names: each
    /// group's first point, in group order, with the group's weights
    /// summed.
    fn regroup<P: Clone>(points: &[Weighted<P>], owner: &[usize]) -> Vec<Weighted<P>> {
        assert_eq!(owner.len(), points.len());
        let mut reps: Vec<Weighted<P>> = Vec::new();
        for (p, &g) in points.iter().zip(owner) {
            if g == reps.len() {
                reps.push(Weighted {
                    point: p.point.clone(),
                    weight: 0,
                });
            }
            reps[g].weight = reps[g].weight.saturating_add(p.weight);
        }
        reps
    }

    /// Seeded planar instances: a unit lattice (exact ties), duplicates,
    /// clusters, a ring around `points[0]`, and clusters with a NaN or an
    /// infinite coordinate, once at the pivot and once inside.
    fn planar_instances(seed: u64) -> Vec<(&'static str, Vec<Weighted<[f64; 2]>>)> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut u = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let lattice: Vec<_> = (0..100)
            .map(|i| Weighted::new([(i % 10) as f64, (i / 10) as f64], 1 + i % 3))
            .collect();
        let mut duplicates = Vec::new();
        for site in 0..12 {
            let at = [(u() * 30.0).round(), (u() * 30.0).round()];
            for _ in 0..1 + site % 4 {
                duplicates.push(Weighted::new(at, 1 + (u() * 4.0) as u64));
            }
        }
        let clusters: Vec<_> = (0..150)
            .map(|i| {
                let c = (i % 4) as f64 * 25.0;
                Weighted::new([c + u() * 6.0, c * 0.5 - u() * 6.0], 1 + i % 5)
            })
            .collect();
        let ring: Vec<_> = std::iter::once(Weighted::new([0.0, 0.0], 2))
            .chain((0..200).map(|i| {
                let a = std::f64::consts::TAU * (i as f64 + u() * 0.3) / 200.0;
                Weighted::new([30.0 * a.cos(), 30.0 * a.sin()], 1)
            }))
            .collect();
        let mut instances = vec![
            ("lattice", lattice),
            ("duplicates", duplicates),
            ("clusters", clusters.clone()),
            ("ring", ring),
        ];
        for (name, bad) in [("nan", [f64::NAN, 1.0]), ("inf", [f64::INFINITY, 0.0])] {
            for at in [0, 37] {
                let mut pts = clusters.clone();
                pts[at].point = bad;
                instances.push((name, pts));
            }
        }
        instances
    }

    #[test]
    fn pivot_partition_matches_the_compacting_reference() {
        let f64_bits = |p: &[f64; 2]| p.map(f64::to_bits).to_vec();
        for seed in 0..2 {
            for (name, pts) in planar_instances(seed) {
                let what = format!("L2 {name} {seed}");
                assert_partition_matches(&L2, &pts, &DELTAS, f64_bits, &what);
                let what = format!("Linf {name} {seed}");
                assert_partition_matches(&Linf, &pts, &DELTAS, f64_bits, &what);
                let line: Vec<Weighted<f64>> =
                    pts.iter().map(|w| w.map(|p| p[0] + 0.5 * p[1])).collect();
                let what = format!("Line {name} {seed}");
                assert_partition_matches(&Line, &line, &DELTAS, |p| vec![p.to_bits()], &what);
                if pts.iter().all(|w| w.point.iter().all(|x| x.is_finite())) {
                    let grid: Vec<Weighted<[u64; 2]>> = pts
                        .iter()
                        .map(|w| w.map(|p| p.map(|x| (x * 4.0 + 400.0).round() as u64)))
                        .collect();
                    let what = format!("GridL2 {name} {seed}");
                    assert_partition_matches(&GridL2, &grid, &DELTAS, |p| p.to_vec(), &what);
                }
            }
        }
        // Coordinates near 1e200: at the radii past √f64::MAX only the
        // scalar fallback separates the points.
        let huge: Vec<_> = (0..40)
            .map(|i| Weighted::unit([(i % 7) as f64 * 1e200, (i % 3) as f64 * 1e199]))
            .collect();
        let f64_bits = |p: &[f64; 2]| p.map(f64::to_bits).to_vec();
        assert_partition_matches(&L2, &huge, &DELTAS, f64_bits, "L2 huge");
        assert_partition_matches(&Linf, &huge, &DELTAS, f64_bits, "Linf huge");
    }

    #[test]
    fn partition_absorbs_the_window_edge_pair() {
        // p and q pass the radius test at delta = dist(p, q), both lie
        // farther than delta from the pivot at the origin, and the
        // computed keys put each outside the other's unwidened window
        // (see `kcz_metric::pivot`): p must still absorb q.
        let p = [-567.7666875789329, 251.45202560480666];
        let q = [-862.8049480031359, 382.1183183577968];
        let delta = L2.dist(&p, &q);
        let (fp, fq) = (L2.dist(&[0.0, 0.0], &p), L2.dist(&[0.0, 0.0], &q));
        assert!(L2.within(&p, &q, delta) && delta < fp);
        assert!(
            fp + delta < fq && fq - delta > fp,
            "precondition: both edges miss"
        );
        let pts = unit_weighted(&[[0.0, 0.0], p, q, [5000.0, 0.0]]);
        let bits = |x: &[f64; 2]| x.map(f64::to_bits).to_vec();
        let reps = assert_partition_matches(&L2, &pts, &[delta], bits, "edge pair");
        assert_eq!(reps.iter().map(|w| w.weight).collect::<Vec<_>>(), [1, 2, 1]);
    }

    #[test]
    fn partition_absorbs_within_delta_only() {
        let pts = unit_weighted(&[[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]]);
        let reps = greedy_partition(&L2, &pts, 1.0, &mut Vec::new());
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].weight, 2);
        assert_eq!(reps[1].weight, 1);
        assert_eq!(reps[1].point, [2.0, 0.0]);
    }
}
