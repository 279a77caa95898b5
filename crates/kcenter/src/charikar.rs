//! The greedy 3-approximation for k-center with outliers of Charikar,
//! Khuller, Mount and Narasimhan (SODA 2001) — `Greedy(P, k, z)` in the
//! paper — in its weighted form.
//!
//! For a guessed radius `r` the algorithm repeatedly picks the point whose
//! `r`-ball covers the most uncovered weight and discards everything within
//! `3r` of it; the guess is feasible when, after `k` picks, the uncovered
//! weight is at most `z`.  The smallest feasible guess `r̂` over a candidate
//! set satisfies `r̂ ≤ opt`, so the produced solution with radius `3r̂`
//! certifies `opt ≤ radius ≤ 3·opt` — exactly the property Lemmas 7 and 8
//! of the paper consume.
//!
//! Candidate radii: for small inputs we binary-search the exact sorted set
//! of pairwise distances (the classical formulation); for large inputs we
//! binary-search a geometric grid with resolution `1+η`, degrading the
//! guarantee to `3(1+η)·opt`.
//!
//! # Ball queries
//!
//! Every question a feasibility probe asks is a ball query — which points
//! lie within `r` of point `p` — and one solve answers them all from a
//! neighbour cache built once:
//!
//! * **Prune.**  Let `f(p) = dist(pts[0], p)`.  By the triangle
//!   inequality every `q` with `dist(p, q) ≤ R` has `|f(p) − f(q)| ≤ R`,
//!   so with the points sorted by `f`, the candidates of `p` form one
//!   contiguous window.  The window is widened by `1e-9·(R + max f)` to
//!   absorb the rounding of the computed `f` values.  This holds for any
//!   metric.
//! * **Cache.**  The first probe, at radius `R`, runs `dist_many` of every
//!   point against its window and keeps each `(index, distance)` with
//!   `distance ≤ R` in one CSR, each list sorted nearest first.  A probe
//!   at `r ≤ R` reads the prefix of each list with `distance ≤ r`; a
//!   probe above `R` rebuilds the cache at `r`.  On the engine's warm
//!   path the first probe is the hint's candidate, so one build serves
//!   the whole search.
//! * **Budget.**  Before building, the windows' total length — two
//!   `partition_point`s per point, no distances — is compared with a fixed
//!   budget of 1.5 M entries (18 MB, the size of a 1500×1500 `f64`
//!   distance matrix).  Over the budget, each ball query scans its own
//!   window on the fly instead, in `O(n)` memory.
//!
//! Every radius test, in both modes, compares an exact `dist` value
//! (`dist_many` returns the scalar distances bit for bit) against the
//! radius with `<=`: the predicate of a full distance matrix.  A probe's
//! picks and verdict therefore do not depend on the mode or the budget.
//! Gains and uncovered weights are summed in `u128`, which is exact for
//! any `n < 2³²` whatever the weights.

use std::ops::Range;

use kcz_metric::{MetricSpace, Weighted};

use crate::cost::cost_with_outliers;

/// Entry budget of the neighbour cache: 1.5 M entries of a `u32` index
/// and an `f64` distance, 18 MB.
const CACHE_BUDGET: usize = 1_500_000;

/// Tuning knobs for [`greedy_with`].  They choose the candidate radii
/// and where the search starts.  How the probes answer their ball
/// queries (the neighbour cache and its entry budget) is not a knob: it
/// never changes a probe's outcome.
#[derive(Debug, Clone)]
pub struct GreedyParams {
    /// Use the exact pairwise-distance candidate set when `n` is at most
    /// this; otherwise use a geometric grid.
    pub exact_candidates_max_n: usize,
    /// Resolution `1+η` of the geometric candidate grid.
    pub geometric_step: f64,
    /// Warm-start hint: a previous solve's feasible guess `r̂` on nearby
    /// data.  The radius search starts at this value and brackets
    /// outwards instead of bisecting the whole candidate range — under
    /// the same monotone-feasibility assumption the cold bisection makes,
    /// the result is the identical minimal feasible candidate, found in
    /// ~2 feasibility probes when the hint is still (nearly) right.
    /// `None` bisects cold.
    pub warm_guess: Option<f64>,
}

impl Default for GreedyParams {
    fn default() -> Self {
        GreedyParams {
            exact_candidates_max_n: 600,
            geometric_step: 1.01,
            warm_guess: None,
        }
    }
}

impl GreedyParams {
    /// Default parameters with a warm-start hint (see
    /// [`GreedyParams::warm_guess`]).
    pub fn warm(guess: f64) -> Self {
        GreedyParams {
            warm_guess: Some(guess),
            ..Default::default()
        }
    }
}

/// Output of [`greedy`].
#[derive(Debug, Clone)]
pub struct GreedySolution<P> {
    /// At most `k` centers (a subset of the input points).
    pub centers: Vec<P>,
    /// Certified covering radius: all but outlier-weight ≤ `z` of the input
    /// lies within `radius` of a center, and `opt ≤ radius ≤ 3(1+η)·opt`.
    pub radius: f64,
    /// The feasible guess `r̂` the search settled on (`radius ≤ 3·r̂`).
    pub guess: f64,
    /// Uncovered weight of the returned solution (≤ `z`).
    pub uncovered: u64,
    /// Feasibility probes (`disk_greedy` calls) the radius search
    /// spent — the observable a warm start shrinks (the result itself is
    /// hint-independent).
    pub probes: usize,
}

/// `Greedy(P, k, z)` with default parameters.  See [`greedy_with`].
pub fn greedy<P: Clone, M: MetricSpace<P>>(
    metric: &M,
    points: &[Weighted<P>],
    k: usize,
    z: u64,
) -> GreedySolution<P> {
    greedy_with(metric, points, k, z, &GreedyParams::default())
}

/// The weighted Charikar-et-al. greedy.
///
/// Returns an empty solution with radius `0` when the entire weight fits in
/// the outlier budget, and panics if `k == 0` while weight must be covered.
pub fn greedy_with<P: Clone, M: MetricSpace<P>>(
    metric: &M,
    points: &[Weighted<P>],
    k: usize,
    z: u64,
    params: &GreedyParams,
) -> GreedySolution<P> {
    let n = points.len();
    let total: u128 = points.iter().map(|p| u128::from(p.weight)).sum();
    if n == 0 || total <= u128::from(z) {
        return GreedySolution {
            centers: Vec::new(),
            radius: 0.0,
            guess: 0.0,
            // At most `z`, so it fits.
            uncovered: total as u64,
            probes: 0,
        };
    }
    assert!(k > 0, "k must be positive when weight must be covered");

    let weights: Vec<u64> = points.iter().map(|p| p.weight).collect();
    let pts: Vec<P> = points.iter().map(|p| p.point.clone()).collect();
    let mut pivot = Vec::new();
    metric.dist_many(&pts[0], &pts, &mut pivot);
    let candidates = candidate_radii(metric, &pts, &pivot, params);
    debug_assert!(!candidates.is_empty());
    let mut balls = Balls::new(metric, &pts, pivot, CACHE_BUDGET);

    // Feasibility is monotone in r for the guarantee's purposes: the
    // largest candidate (≥ diameter) always succeeds with one center.
    let mut probes = 0usize;
    let mut probe = |i: usize| {
        probes += 1;
        disk_greedy(&mut balls, &weights, k, z, candidates[i]).verdict(z)
    };
    let best = match params.warm_guess {
        Some(g) => warm_search(&candidates, g, &mut probe),
        None => lowest_feasible(0, candidates.len() - 1, &mut probe),
    };
    let (idx, center_idx) = best.unwrap_or_else(|| {
        // The diameter guess must succeed; recompute defensively.
        let last = candidates.len() - 1;
        let c = disk_greedy(&mut balls, &weights, k, z, candidates[last])
            .verdict(z)
            .expect("diameter-radius guess must be feasible");
        (last, c)
    });
    let guess = candidates[idx];
    let centers: Vec<P> = center_idx
        .iter()
        .map(|&i| points[i].point.clone())
        .collect();
    // Tighten the certified 3·r̂ to the measured cost of this center set.
    let measured = cost_with_outliers(metric, points, &centers, z);
    let radius = measured.min(3.0 * guess);
    let uncovered = crate::cost::uncovered_weight(metric, points, &centers, radius);
    GreedySolution {
        centers,
        radius,
        guess,
        uncovered,
        probes,
    }
}

/// Binary search for the lowest feasible candidate index in `[lo, hi]`,
/// assuming feasibility is monotone in the candidate radius.  Returns
/// the index and its centers, or `None` when every probed candidate in
/// the range is infeasible.
fn lowest_feasible(
    lo: usize,
    hi: usize,
    probe: &mut impl FnMut(usize) -> Option<Vec<usize>>,
) -> Option<(usize, Vec<usize>)> {
    let (mut lo, mut hi) = (lo, hi);
    let mut best: Option<(usize, Vec<usize>)> = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        match probe(mid) {
            Some(centers) => {
                best = Some((mid, centers));
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
            None => {
                lo = mid + 1;
            }
        }
    }
    best
}

/// The warm-started radius search: start at the candidate nearest the
/// hint and bracket outwards.  Under the monotone-feasibility assumption
/// this finds the same minimal feasible index as the cold bisection —
/// but when the hint is still right (the common republish-after-small-
/// change case) it costs 2 probes instead of `log₂ |candidates|`.
fn warm_search(
    candidates: &[f64],
    guess: f64,
    probe: &mut impl FnMut(usize) -> Option<Vec<usize>>,
) -> Option<(usize, Vec<usize>)> {
    let last = candidates.len() - 1;
    let start = candidates.partition_point(|&c| c < guess).min(last);
    match probe(start) {
        Some(centers) => {
            // Feasible at the hint: gallop downwards doubling the step
            // until an infeasible candidate brackets the boundary from
            // below, then bisect the (exponentially small) bracket.  An
            // exact hint exits after the first downward probe.
            let mut lowest = (start, centers);
            if start == 0 {
                return Some(lowest);
            }
            let mut step = 1usize;
            loop {
                let j = lowest.0.saturating_sub(step);
                match probe(j) {
                    Some(below) => {
                        lowest = (j, below);
                        if j == 0 {
                            return Some(lowest);
                        }
                        step = step.saturating_mul(2);
                    }
                    None => {
                        if j + 1 == lowest.0 {
                            return Some(lowest);
                        }
                        return Some(lowest_feasible(j + 1, lowest.0 - 1, probe).unwrap_or(lowest));
                    }
                }
            }
        }
        None => {
            // Infeasible at the hint: gallop upwards doubling the step,
            // then bisect the bracket between the highest infeasible and
            // the first feasible probe.
            let mut step = 1usize;
            let mut highest_infeasible = start;
            loop {
                let j = highest_infeasible.saturating_add(step).min(last);
                match probe(j) {
                    Some(centers) => {
                        if j == highest_infeasible + 1 {
                            return Some((j, centers));
                        }
                        return Some(
                            lowest_feasible(highest_infeasible + 1, j - 1, probe)
                                .unwrap_or((j, centers)),
                        );
                    }
                    None if j >= last => return None,
                    None => {
                        highest_infeasible = j;
                        step *= 2;
                    }
                }
            }
        }
    }
}

/// Candidate radii for the binary search, ascending, first element `0`.
/// `pivot` is the `dist_many` row of `pts[0]`.
fn candidate_radii<P, M: MetricSpace<P>>(
    metric: &M,
    pts: &[P],
    pivot: &[f64],
    params: &GreedyParams,
) -> Vec<f64> {
    let n = pts.len();
    let mut row = Vec::new();
    if n <= params.exact_candidates_max_n {
        let mut c = Vec::with_capacity(n * (n - 1) / 2 + 1);
        c.push(0.0);
        for (i, p) in pts.iter().enumerate() {
            metric.dist_many(p, &pts[i + 1..], &mut row);
            c.extend_from_slice(&row);
        }
        c.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN distances"));
        c.dedup();
        c
    } else {
        // Upper bound on the diameter: 2 × the eccentricity of point 0.
        let ecc = pivot.iter().fold(0.0f64, |m, &d| m.max(d));
        let hi = (2.0 * ecc).max(f64::MIN_POSITIVE);
        // Lower bound: smallest positive distance within a sample.
        let sample = 512.min(n);
        let mut lo = f64::INFINITY;
        for i in 0..sample {
            metric.dist_many(&pts[i], &pts[i + 1..sample], &mut row);
            for &d in &row {
                if d > 0.0 && d < lo {
                    lo = d;
                }
            }
        }
        if !lo.is_finite() || lo <= 0.0 {
            lo = hi * 1e-9;
        }
        lo = lo.min(hi);
        let step = params.geometric_step.max(1.0 + 1e-6);
        let mut c = vec![0.0, lo];
        let mut r = lo;
        while r < hi {
            r *= step;
            c.push(r.min(hi));
        }
        c
    }
}

/// The ball queries of one solve (see the module docs): the points sorted
/// by their distance `f` to `pts[0]`, and the neighbour cache while it
/// fits the budget.
struct Balls<'a, P, M> {
    metric: &'a M,
    pts: &'a [P],
    /// `pts` in ascending order of `f`.
    sorted: Vec<P>,
    /// Index into `pts` of each sorted position.
    order: Vec<usize>,
    /// `f` of each sorted position, ascending.
    keys: Vec<f64>,
    /// `f` of each point, by index into `pts`.
    pivot: Vec<f64>,
    /// The largest `f`, or `None` when some `f` is not finite and every
    /// window spans all points.
    max_key: Option<f64>,
    /// Most cache entries a build may allocate.
    budget: usize,
    cache: Option<Cache>,
    /// Whether the current probe reads `cache` rather than scanning.
    cached: bool,
    row: Vec<f64>,
}

/// Neighbour lists at radius `r` in CSR form: the entries of point `p`
/// (an index into `pts`) are `start[p]..start[p + 1]` of `nbr` and `dist`,
/// nearest first.
struct Cache {
    r: f64,
    start: Vec<usize>,
    nbr: Vec<u32>,
    dist: Vec<f64>,
}

impl<'a, P: Clone, M: MetricSpace<P>> Balls<'a, P, M> {
    /// `pivot` is the `dist_many` row of `pts[0]`; `budget` caps the
    /// cache in entries.
    fn new(metric: &'a M, pts: &'a [P], pivot: Vec<f64>, budget: usize) -> Self {
        let mut order: Vec<usize> = (0..pts.len()).collect();
        order.sort_by(|&a, &b| pivot[a].total_cmp(&pivot[b]));
        let keys: Vec<f64> = order.iter().map(|&i| pivot[i]).collect();
        let max_key = keys
            .iter()
            .all(|f| f.is_finite())
            .then(|| keys.last().copied().unwrap_or(0.0));
        Balls {
            metric,
            pts,
            sorted: order.iter().map(|&i| pts[i].clone()).collect(),
            order,
            keys,
            pivot,
            max_key,
            // The cache stores `u32` indices.
            budget: if u32::try_from(pts.len()).is_ok() {
                budget
            } else {
                0
            },
            cache: None,
            cached: false,
            row: Vec::new(),
        }
    }

    /// Sorted positions of every point that can lie within `r` of `p`.
    fn window(&self, p: usize, r: f64) -> Range<usize> {
        let all = 0..self.keys.len();
        let Some(max_key) = self.max_key else {
            return all;
        };
        let w = r + 1e-9 * (r + max_key);
        if !w.is_finite() {
            return all;
        }
        let f = self.pivot[p];
        self.keys.partition_point(|&x| x < f - w)..self.keys.partition_point(|&x| x <= f + w)
    }

    /// Readies the ball queries of one probe at radius `r`: read the cache
    /// if it was built at `r` or above, else rebuild it at `r` if the
    /// windows fit the budget, else scan the windows on the fly.
    fn prepare(&mut self, r: f64) {
        if self.cache.as_ref().is_some_and(|c| r <= c.r) {
            self.cached = true;
            return;
        }
        let mut total = 0usize;
        for p in 0..self.pts.len() {
            total += self.window(p, r).len();
            if total > self.budget {
                self.cached = false;
                return;
            }
        }
        // Free the old cache before allocating its replacement, once.
        self.cache = None;
        let mut start = Vec::with_capacity(self.pts.len() + 1);
        let mut nbr = Vec::with_capacity(total);
        let mut dist = Vec::with_capacity(total);
        start.push(0);
        let mut list = Vec::new();
        for p in 0..self.pts.len() {
            let win = self.window(p, r);
            let lo = win.start;
            self.metric
                .dist_many(&self.pts[p], &self.sorted[win], &mut self.row);
            list.clear();
            for (j, &d) in self.row.iter().enumerate() {
                if d <= r {
                    list.push((d, self.order[lo + j] as u32));
                }
            }
            // Nearest first, so a ball at r ≤ R is a prefix of the list.
            list.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            dist.extend(list.iter().map(|e| e.0));
            nbr.extend(list.iter().map(|e| e.1));
            start.push(nbr.len());
        }
        self.cache = Some(Cache {
            r,
            start,
            nbr,
            dist,
        });
        self.cached = true;
    }

    /// Calls `visit(q)` for every `q` with `dist(p, q) ≤ r`, where `r`
    /// is the radius of the last [`Balls::prepare`].
    fn for_each_within(&mut self, p: usize, r: f64, mut visit: impl FnMut(usize)) {
        match &self.cache {
            Some(c) if self.cached => {
                let span = c.start[p]..c.start[p + 1];
                for (&q, &d) in c.nbr[span.clone()].iter().zip(&c.dist[span]) {
                    if d > r {
                        break;
                    }
                    visit(q as usize);
                }
            }
            _ => {
                let win = self.window(p, r);
                let lo = win.start;
                self.metric
                    .dist_many(&self.pts[p], &self.sorted[win], &mut self.row);
                for (j, &d) in self.row.iter().enumerate() {
                    if d <= r {
                        visit(self.order[lo + j]);
                    }
                }
            }
        }
    }
}

/// Outcome of one [`disk_greedy`] run.
#[derive(Debug, PartialEq)]
struct Probe {
    /// Center indices, in pick order.
    picks: Vec<usize>,
    /// Weight outside every pick's `3r` ball.
    uncovered: u128,
}

impl Probe {
    /// The picks when the guess is feasible for outlier budget `z`.
    fn verdict(self, z: u64) -> Option<Vec<usize>> {
        (self.uncovered <= u128::from(z)).then_some(self.picks)
    }
}

/// One feasibility test of the Charikar greedy at radius guess `r`:
/// greedily pick up to `k` disk centers, stopping early once the
/// uncovered weight is at most `z` or no `r`-ball covers any of it.
///
/// Gains start as ball sums and are maintained incrementally as points
/// get covered: `O(Σ|ball|)` from the neighbour cache, plus one
/// `dist_many` row over all points per pick for its `3r` ball.
fn disk_greedy<P: Clone, M: MetricSpace<P>>(
    balls: &mut Balls<'_, P, M>,
    weights: &[u64],
    k: usize,
    z: u64,
    r: f64,
) -> Probe {
    let n = weights.len();
    balls.prepare(r);
    // gain[p] = uncovered weight within distance r of p.
    let mut gain = vec![0u128; n];
    for (p, g) in gain.iter_mut().enumerate() {
        balls.for_each_within(p, r, |q| *g += u128::from(weights[q]));
    }
    let mut uncovered: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let mut covered = vec![false; n];
    let mut picks = Vec::with_capacity(k);
    let mut ball = Vec::new();
    for _ in 0..k {
        if uncovered <= u128::from(z) {
            break;
        }
        // Ties go to the last maximal index.
        let (best, &g) = gain
            .iter()
            .enumerate()
            .max_by_key(|&(_, g)| *g)
            .expect("non-empty gains");
        if g == 0 {
            // No r-ball covers any uncovered weight; more centers cannot help.
            break;
        }
        picks.push(best);
        balls
            .metric
            .dist_many(&balls.pts[best], balls.pts, &mut ball);
        for (q, &d) in ball.iter().enumerate() {
            if d <= 3.0 * r && !covered[q] {
                covered[q] = true;
                let w = u128::from(weights[q]);
                uncovered -= w;
                // q leaves every gain it contributed to.
                balls.for_each_within(q, r, |p| gain[p] -= w);
            }
        }
    }
    Probe { picks, uncovered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_discrete;
    use kcz_metric::{unit_weighted, Line, Linf, L2};

    /// Two tight clusters plus two far outliers.
    fn instance() -> Vec<Weighted<[f64; 2]>> {
        let mut raw = vec![];
        for i in 0..10 {
            raw.push([i as f64 * 0.1, 0.0]);
            raw.push([100.0 + i as f64 * 0.1, 0.0]);
        }
        raw.push([1000.0, 0.0]);
        raw.push([-1000.0, 0.0]);
        unit_weighted(&raw)
    }

    #[test]
    fn respects_outlier_budget() {
        let pts = instance();
        let sol = greedy(&L2, &pts, 2, 2);
        assert!(sol.uncovered <= 2);
        // With the two outliers excluded, each cluster has diameter 0.9.
        assert!(sol.radius <= 3.0 * 0.9 + 1e-9, "radius {}", sol.radius);
        assert_eq!(sol.centers.len(), 2);
    }

    #[test]
    fn without_budget_must_cover_outliers() {
        let pts = instance();
        let sol = greedy(&L2, &pts, 2, 0);
        // Any 2-center solution covering the ±1000 points has radius ≥ ~500.
        assert!(sol.radius >= 500.0, "radius {}", sol.radius);
        assert_eq!(sol.uncovered, 0);
    }

    #[test]
    fn weighted_outliers() {
        let mut pts = instance();
        // Make one "outlier" too heavy to discard.
        pts[20].weight = 5; // the [1000, 0] point
        let sol = greedy(&L2, &pts, 2, 2);
        // Covering the weight-5 point costs one center, so the two clusters
        // share the other: opt ≈ 101, and uncovered ≤ 2 forces coverage of
        // the heavy point.
        assert!(sol.uncovered <= 2);
        assert!(sol.radius >= 99.0, "radius {}", sol.radius);
        assert!(sol.radius <= 3.03 * 101.0, "radius {}", sol.radius);
    }

    #[test]
    fn all_points_outliers() {
        let pts = unit_weighted(&[[0.0, 0.0], [1.0, 1.0]]);
        let sol = greedy(&L2, &pts, 3, 2);
        assert_eq!(sol.radius, 0.0);
        assert!(sol.centers.is_empty());
    }

    #[test]
    fn duplicates_and_k_ge_distinct() {
        let pts = unit_weighted(&[[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]]);
        let sol = greedy(&L2, &pts, 2, 0);
        assert_eq!(sol.radius, 0.0);
        assert!(sol.uncovered == 0);
    }

    #[test]
    fn three_approx_vs_exact_small() {
        // 3 clusters, k=3, z=1; opt is the in-cluster radius.
        let raw = vec![
            [0.0, 0.0],
            [1.0, 0.0],
            [50.0, 0.0],
            [51.0, 0.0],
            [100.0, 0.0],
            [101.0, 0.0],
            [500.0, 0.0], // outlier
        ];
        let pts = unit_weighted(&raw);
        let sol = greedy(&L2, &pts, 3, 1);
        // opt = 0.5 with centers anywhere, 1.0 with centers in P.
        assert!(sol.radius <= 3.0, "radius {}", sol.radius);
        assert!(sol.uncovered <= 1);
    }

    #[test]
    fn saturated_weights_stay_exact() {
        // Weight sums past u64::MAX: a saturating total lost weight, so
        // the probe called the zero guess feasible on the first input
        // (uncovered u64::MAX > z) and underflowed on the second.
        let at = |x: f64, weight: u64| Weighted {
            point: [x, x],
            weight,
        };
        let cases = [
            (vec![at(1.0, u64::MAX), at(9.0, u64::MAX)], 1, 0),
            (
                vec![at(0.0, 1 << 63), at(100.0, 1 << 63), at(200.0, 5)],
                2,
                0,
            ),
        ];
        for (pts, k, z) in cases {
            let sol = greedy(&L2, &pts, k, z);
            let cands: Vec<[f64; 2]> = pts.iter().map(|p| p.point).collect();
            let opt = exact_discrete(&L2, &pts, k, z, &cands).radius;
            assert!(sol.uncovered <= z, "uncovered {}", sol.uncovered);
            assert!(sol.radius > 0.0, "radius {}", sol.radius);
            assert!(
                opt <= sol.radius && sol.radius <= 3.0 * opt,
                "radius {} vs opt {opt}",
                sol.radius
            );
            assert!(sol.radius <= 3.0 * sol.guess);
        }
    }

    /// The plain `O(n²)` probe the neighbour cache must reproduce: every
    /// ball query scans the scalar `dist` values of all points.
    fn reference_probe<P, M: MetricSpace<P>>(
        metric: &M,
        pts: &[P],
        weights: &[u64],
        k: usize,
        z: u64,
        r: f64,
    ) -> Probe {
        let n = pts.len();
        let ball = |p: usize, r: f64| (0..n).filter(move |&q| metric.dist(&pts[p], &pts[q]) <= r);
        let mut gain: Vec<u128> = (0..n)
            .map(|p| ball(p, r).map(|q| u128::from(weights[q])).sum())
            .collect();
        let mut uncovered: u128 = weights.iter().map(|&w| u128::from(w)).sum();
        let mut covered = vec![false; n];
        let mut picks = Vec::new();
        for _ in 0..k {
            if uncovered <= u128::from(z) {
                break;
            }
            let (best, &g) = gain.iter().enumerate().max_by_key(|&(_, g)| *g).unwrap();
            if g == 0 {
                break;
            }
            picks.push(best);
            for q in ball(best, 3.0 * r) {
                if !covered[q] {
                    covered[q] = true;
                    uncovered -= u128::from(weights[q]);
                    for p in ball(q, r) {
                        gain[p] -= u128::from(weights[q]);
                    }
                }
            }
        }
        Probe { picks, uncovered }
    }

    /// Checks probes of both ladders against [`reference_probe`], with
    /// the cache always fitting, never fitting, and fitting only at some
    /// radii.  Up to 100 evenly spaced candidates per ladder are visited
    /// in a scrambled order, so that the cache both serves lower probes
    /// and gets rebuilt for higher ones.
    fn assert_probes_match<P: Clone, M: MetricSpace<P>>(
        metric: &M,
        points: &[Weighted<P>],
        what: &str,
    ) {
        let n = points.len();
        let weights: Vec<u64> = points.iter().map(|p| p.weight).collect();
        let pts: Vec<P> = points.iter().map(|p| p.point.clone()).collect();
        let mut pivot = Vec::new();
        metric.dist_many(&pts[0], &pts, &mut pivot);
        let exact = candidate_radii(metric, &pts, &pivot, &GreedyParams::default());
        let geometric = GreedyParams {
            exact_candidates_max_n: 0,
            ..Default::default()
        };
        let geometric = candidate_radii(metric, &pts, &pivot, &geometric);
        for ladder in [exact, geometric] {
            let stride = ladder.len().div_ceil(100);
            let candidates: Vec<f64> = ladder.into_iter().step_by(stride).collect();
            let m = candidates.len();
            let order: Vec<usize> = (0..m).map(|i| (i * 7919 + m / 2) % m).collect();
            for (k, z) in [(1usize, 0u64), (3, 2)] {
                let expect: Vec<Probe> = candidates
                    .iter()
                    .map(|&r| reference_probe(metric, &pts, &weights, k, z, r))
                    .collect();
                for budget in [usize::MAX, n * n / 3, 0] {
                    let mut balls = Balls::new(metric, &pts, pivot.clone(), budget);
                    for &i in &order {
                        let got = disk_greedy(&mut balls, &weights, k, z, candidates[i]);
                        assert_eq!(
                            got, expect[i],
                            "{what}: k={k} z={z} budget={budget} r={}",
                            candidates[i]
                        );
                    }
                }
            }
        }
    }

    /// Seeded xorshift uniforms in `[0, 1)`.
    fn uniforms(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The seeded planar instances of the reference comparison.
    fn planar_instances(seed: u64) -> Vec<(&'static str, Vec<Weighted<[f64; 2]>>)> {
        let mut u = uniforms(seed);
        let weight = |u: &mut dyn FnMut() -> f64| 1 + (u() * 4.0) as u64;
        // A unit lattice: exact distance ties everywhere.
        let lattice = (0..36)
            .map(|i| Weighted::new([(i % 6) as f64, (i / 6) as f64], 1 + (i % 2)))
            .collect();
        // Duplicates: a few sites repeated, plus two far points.
        let mut duplicates = Vec::new();
        for s in 0..5 {
            let site = [(u() * 50.0).round(), (u() * 50.0).round()];
            for _ in 0..1 + s {
                duplicates.push(Weighted::new(site, weight(&mut u)));
            }
        }
        duplicates.push(Weighted::new([500.0, 0.0], 1));
        duplicates.push(Weighted::new([0.0, -500.0], 2));
        // Gaussian clusters (Box–Muller) with a few outliers.
        let mut gaussian = Vec::new();
        for c in 0..3 {
            let center = [c as f64 * 40.0, (c % 2) as f64 * 25.0];
            for _ in 0..10 {
                let (a, b) = (1.0 - u(), u());
                let rad = (-2.0 * a.ln()).sqrt() * 2.0;
                let th = std::f64::consts::TAU * b;
                let p = [center[0] + rad * th.cos(), center[1] + rad * th.sin()];
                gaussian.push(Weighted::new(p, weight(&mut u)));
            }
        }
        for _ in 0..3 {
            gaussian.push(Weighted::new([u() * 900.0 - 450.0, 300.0 + u() * 100.0], 1));
        }
        vec![
            ("lattice", lattice),
            ("duplicates", duplicates),
            ("gaussian", gaussian),
        ]
    }

    #[test]
    fn probes_match_the_reference_in_every_mode() {
        for seed in 0..2 {
            for (name, pts) in planar_instances(seed) {
                assert_probes_match(&L2, &pts, &format!("L2 {name} seed {seed}"));
                assert_probes_match(&Linf, &pts, &format!("Linf {name} seed {seed}"));
                let line: Vec<Weighted<f64>> = pts
                    .iter()
                    .map(|p| Weighted::new(p.point[0] + 0.5 * p.point[1], p.weight))
                    .collect();
                assert_probes_match(&Line, &line, &format!("Line {name} seed {seed}"));
            }
        }
    }

    #[test]
    fn window_edge_pair_is_not_missed() {
        // Seen from the pivot at 0, p and q sit at computed distance
        // exactly r from each other, yet q lies above the computed edge
        // f(p) + r of p's window, and p below the edge f(q) − r of q's:
        // only the widening keeps each in the other's ball.
        let (p, q) = (8.867689006035121, 212.70829658103784);
        let r = Line.dist(&p, &q);
        assert!(p + r < q && q - r > p, "precondition: both edges miss");
        let line = vec![
            Weighted::new(0.0, 1),
            Weighted::new(p, 1),
            Weighted::new(q, 5),
            Weighted::new(1000.0, 1),
        ];
        assert_probes_match(&Line, &line, "Line edge pair");
        // The same pair on an axis of the plane has the same distances.
        let planar: Vec<Weighted<[f64; 2]>> = line
            .iter()
            .map(|w| Weighted::new([w.point, 0.0], w.weight))
            .collect();
        assert_eq!(L2.dist(&planar[1].point, &planar[2].point), r);
        assert_probes_match(&L2, &planar, "L2 edge pair");
        assert_probes_match(&Linf, &planar, "Linf edge pair");
    }

    /// Exhaustive feasibility sweep over the exact candidate set: returns
    /// `Some(boundary)` when feasibility is genuinely monotone (a prefix
    /// of infeasible candidates followed by a feasible suffix), `None`
    /// when the instance has feasible "pockets".  Warm and cold searches
    /// are guaranteed to agree exactly on the monotone instances — the
    /// same assumption the cold bisection itself already leans on.
    fn monotone_boundary(pts: &[Weighted<[f64; 2]>], k: usize, z: u64) -> Option<usize> {
        let weights: Vec<u64> = pts.iter().map(|p| p.weight).collect();
        let raw: Vec<[f64; 2]> = pts.iter().map(|p| p.point).collect();
        let mut pivot = Vec::new();
        L2.dist_many(&raw[0], &raw, &mut pivot);
        let candidates = candidate_radii(&L2, &raw, &pivot, &GreedyParams::default());
        let mut balls = Balls::new(&L2, &raw, pivot, CACHE_BUDGET);
        let feas: Vec<bool> = candidates
            .iter()
            .map(|&r| {
                disk_greedy(&mut balls, &weights, k, z, r)
                    .verdict(z)
                    .is_some()
            })
            .collect();
        let boundary = feas.iter().position(|&f| f)?;
        feas[boundary..].iter().all(|&f| f).then_some(boundary)
    }

    #[test]
    fn warm_start_matches_cold_on_monotone_instances_for_any_hint() {
        // On an instance whose feasibility really is monotone in the
        // radius (verified exhaustively, not assumed), the hint only
        // changes the probe order: centers, radius, guess and uncovered
        // weight must be bit-identical to the cold search for hints
        // anywhere in, below or above the candidate range.
        let pts = instance();
        let mut monotone_cases = 0;
        for (k, z) in [(2usize, 2u64), (2, 0), (3, 1), (1, 21)] {
            let Some(_) = monotone_boundary(&pts, k, z) else {
                continue;
            };
            monotone_cases += 1;
            let cold = greedy(&L2, &pts, k, z);
            for hint in [
                0.0,
                1e-9,
                cold.guess * 0.5,
                cold.guess,
                cold.guess * 1.5,
                2000.0,
                1e12,
            ] {
                let warm = greedy_with(&L2, &pts, k, z, &GreedyParams::warm(hint));
                assert_eq!(warm.centers, cold.centers, "k={k} z={z} hint={hint}");
                assert_eq!(warm.radius.to_bits(), cold.radius.to_bits());
                assert_eq!(warm.guess.to_bits(), cold.guess.to_bits());
                assert_eq!(warm.uncovered, cold.uncovered);
            }
        }
        assert!(monotone_cases >= 2, "sweep found too few monotone cases");
    }

    #[test]
    fn warm_start_always_settles_on_a_certified_boundary() {
        // Even on non-monotone instances (feasible pockets at small
        // radii), any warm result is a feasibility *boundary* — feasible
        // at the settled guess with an infeasible predecessor — which is
        // exactly what certifies `guess ≤ opt` and thus the 3-approx
        // (any radius ≥ opt is feasible, so an infeasible predecessor
        // lies below opt, and opt itself is among the candidates).
        let pts = instance();
        for (k, z) in [(2usize, 2u64), (2, 0), (3, 1)] {
            let cold = greedy(&L2, &pts, k, z);
            for hint in [0.0, cold.guess * 0.3, cold.guess, cold.guess * 3.0, 1e9] {
                let warm = greedy_with(&L2, &pts, k, z, &GreedyParams::warm(hint));
                assert!(warm.uncovered <= z, "k={k} z={z} hint={hint}");
                assert!(
                    warm.radius <= 3.0 * warm.guess + 1e-9,
                    "k={k} z={z} hint={hint}: radius {} vs guess {}",
                    warm.radius,
                    warm.guess
                );
                // Same certified upper bound as the cold solution.
                assert!(warm.guess <= cold.guess + 1e-9 || warm.radius <= cold.radius + 1e-9);
            }
        }
    }

    #[test]
    fn exact_hint_costs_two_probes() {
        let pts = instance();
        let cold = greedy(&L2, &pts, 2, 2);
        // The candidate set is quadratic in n, so the cold bisection pays
        // a multi-probe bisection here.
        assert!(cold.probes > 4, "cold probes = {}", cold.probes);
        let warm = greedy_with(&L2, &pts, 2, 2, &GreedyParams::warm(cold.guess));
        assert_eq!(warm.guess.to_bits(), cold.guess.to_bits());
        assert_eq!(warm.probes, 2, "re-probe the hint and its predecessor");
        // A slightly stale hint still brackets in O(log distance) probes,
        // well under the cold bisection over the full candidate set.
        let near = greedy_with(&L2, &pts, 2, 2, &GreedyParams::warm(cold.guess * 1.001));
        assert_eq!(near.guess.to_bits(), cold.guess.to_bits());
        assert!(near.probes <= 6, "near-hint probes = {}", near.probes);
    }

    #[test]
    fn warm_start_on_the_geometric_grid_matches_cold() {
        let pts = instance();
        let geo = GreedyParams {
            exact_candidates_max_n: 0,
            ..Default::default()
        };
        let cold = greedy_with(&L2, &pts, 2, 2, &geo);
        let warm = greedy_with(
            &L2,
            &pts,
            2,
            2,
            &GreedyParams {
                warm_guess: Some(cold.guess),
                ..geo.clone()
            },
        );
        assert_eq!(warm.centers, cold.centers);
        assert_eq!(warm.radius.to_bits(), cold.radius.to_bits());
        assert!(warm.probes <= 2);
    }

    #[test]
    fn geometric_path_matches_exact_path_shape() {
        let pts = instance();
        let exact = greedy_with(
            &L2,
            &pts,
            2,
            2,
            &GreedyParams {
                exact_candidates_max_n: 1000,
                ..Default::default()
            },
        );
        let geo = greedy_with(
            &L2,
            &pts,
            2,
            2,
            &GreedyParams {
                exact_candidates_max_n: 0,
                ..Default::default()
            },
        );
        assert!(geo.uncovered <= 2);
        // Both certify a 3(1+η)-approximation of the same opt.
        assert!(geo.radius <= 3.03 * exact.radius.max(0.45) + 1e-9);
    }
}
