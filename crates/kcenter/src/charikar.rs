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
//! * **Prune.**  The points are put in one [`PivotOrder`] by their
//!   distance to the first point, so the candidates of every ball form
//!   one contiguous window of that order.  The window, its widening for
//!   rounding and why it holds in any metric are documented in
//!   [`kcz_metric::pivot`].
//! * **Positions.**  A probe numbers the points by their position in
//!   that order, not by input index: the weights, gains, covered flags,
//!   cursors and lists are all indexed by position, and the order holds
//!   the only copy of the points, so every window is a contiguous slice
//!   of points.  Only the picks are mapped back to input indices, and
//!   the argmax breaks ties by input index, the last maximal one winning.
//! * **Cache.**  The first probe, at radius `R`, runs `dist_many` of every
//!   point against its window and keeps each `(position, distance)` with
//!   `distance ≤ R` in one CSR, each list sorted nearest first.  A probe
//!   at `r ≤ R` reads the prefix of each list with `distance ≤ r`; a
//!   probe above `R` rebuilds the cache at `r`.  A warm search builds
//!   the lists first at the top of its bracket, the hint's candidate,
//!   so one build serves the whole search unless it gallops above the
//!   hint.  The lists are a pure function of the points and
//!   `R`, so a [`BallCache`] keeps them, with the pivot order and the
//!   candidate ladder, for the next solve on the same points, which then
//!   pays only for its probes.
//! * **Cursors.**  Each position keeps the end of its prefix and the
//!   weight of that prefix.  A probe moves every cursor from the last
//!   probe's radius to its own, adding or subtracting the weights of the
//!   entries it crosses, so it pays only for the entries between the two
//!   radii.  The prefix is also the ball a covered point's weight leaves,
//!   with no distance read.  A pick's `3r` ball lies in its own window,
//!   one run of positions, so the lists of the points it covers lie
//!   close together in the CSR and are read in memory order.  A rebuild
//!   resets the cursors.
//! * **Key sort.**  A build writes every window candidate and advances
//!   the kept count by `distance ≤ R`, with no branch.  Each list is
//!   sorted as `u64` keys: the distance's bits, whose order is the order
//!   of non-negative floats, with the low bits replaced by the entry's
//!   offset in its window.  One insertion pass then orders the runs of
//!   entries whose distances differ only in those low bits, and the
//!   window's first position plus the offset is the neighbour the list
//!   stores.
//! * **Budget.**  A build stops once its kept entries pass a fixed budget
//!   of 1.5 M entries (18 MB, the size of a 1500×1500 `f64` distance
//!   matrix), and the solve remembers that radius.  A probe at or above
//!   it scans, answering each ball query from its own window on the fly
//!   in `O(n)` memory, so a radius gets at most one attempted build.  A
//!   ball sum in that mode scans its window too.
//!
//! Every radius test, in both modes, compares an exact `dist` value
//! (`dist_many` returns the scalar distances bit for bit) against the
//! radius with `<=`: the predicate of a full distance matrix.  A probe's
//! picks and verdict therefore do not depend on the mode or the budget.
//! Gains and uncovered weights are summed in `u128`, which is exact for
//! any `n < 2³²` whatever the weights, so a cursor's running sum equals
//! the sum of its prefix.  A gain holds its weight above 32 low bits
//! that carry its point's input index, the argmax's tie-break, and stays
//! exact, as that weight is below 2⁹⁶.

use kcz_metric::pivot::PivotOrder;
use kcz_metric::{MetricSpace, Weighted};

use crate::cost::{nearest_distances, outlier_radius};

/// Entry budget of the neighbour cache: 1.5 M entries of a `u32`
/// position and an `f64` distance, 18 MB.
const CACHE_BUDGET: usize = 1_500_000;

/// Low bits of a build's sort key that hold an entry's offset in its
/// window.  They cover any window of a point set the cache can hold: a
/// set of more than `CACHE_BUDGET` points cannot hold even its
/// self-entries, so it is never cached.
const POS_BITS: u32 = usize::BITS - CACHE_BUDGET.leading_zeros();
const POS_MASK: u64 = (1 << POS_BITS) - 1;

/// Low bits of a probe's gain that hold its point's input index, the
/// tie-break of the argmax.
const INDEX_BITS: u32 = 32;

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
    /// Warm-start hint: a radius expected within 2× above the settled
    /// guess `r̂`.  The radius search bisects the candidates from `h/2`
    /// to `h` instead of the whole candidate range, and leaves that
    /// bracket only when one of its ends shows the boundary lies
    /// outside, galloping down from a feasible bottom or up from an
    /// infeasible top.  Under the same monotone-feasibility assumption
    /// the cold bisection makes, the result is the identical minimal
    /// feasible candidate.  The engine's hint, the Gonzalez `(k+z)`
    /// radius, sits about 1.46× above the settled guess on its merged
    /// coresets, so a warm engine solve bisects about 70 candidates of
    /// the 1.01 ladder in 6–7 probes, where a cold bisection spends 8–10.
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
    /// spent — the observable a warm start shrinks (on an instance whose
    /// feasibility is monotone the result itself is hint-independent).
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
    solve_from(&mut Kept::new(CACHE_BUDGET), metric, points, k, z, params)
}

/// The part of a [`greedy_with`] solve that depends only on the points,
/// kept for the next solve on the same points.
///
/// From the points alone a solve derives the pivot row and its
/// [`PivotOrder`], the candidate ladder (for the two [`GreedyParams`]
/// fields it reads, `exact_candidates_max_n` and `geometric_step`), the
/// smallest radius whose cache build passed the budget, and the
/// neighbour lists with their radius (see the module docs).  A
/// `BallCache` keeps all of it, keyed by the points themselves, in
/// order.  [`BallCache::load`] compares the next points with the kept
/// ones: on a match, the next [`BallCache::solve`] rewinds the cursors
/// and reads the kept lists, ladder and order, so it pays only for its
/// probes; on a miss, the load drops everything and the solve derives
/// it anew.  A probe above the kept lists' radius rebuilds them, as in
/// any solve.  Weights are not part of the key.
///
/// Every solve equals [`greedy_with`] on the loaded points, bit for bit:
/// the lists at radius `R` are a pure function of the points and `R`,
/// a probe's picks and verdict depend neither on the `R ≥ r` its lists
/// were built at nor on whether it reads them or scans, and the ladder,
/// the order and the overflow radius are pure functions of the points.
/// That makes `==` a sound key under one condition: points that compare
/// equal give distances with the same bits.  The `kcz-metric` metrics
/// meet it, since they compute distances from coordinate differences,
/// where `-0.0` and `0.0` give the same bits.  A point that is not equal
/// to itself, such as one with a NaN coordinate, never matches, so its
/// solves never reuse.
///
/// The state owns its metric, so lists built under one metric are never
/// read under another.  It is solver memory, outside every words count:
/// the lists are capped at 1.5 M entries (18 MB) of 12 bytes each, and
/// a build that passes the cap frees its lists at once.  Everything is
/// dropped on the first load of other points.
pub struct BallCache<P, M> {
    /// The metric every kept list was built under.
    metric: M,
    /// The points of the last load, in order, with its weights: the key
    /// of `kept`.
    points: Vec<Weighted<P>>,
    kept: Kept<P>,
}

impl<P: Clone + PartialEq, M: MetricSpace<P>> BallCache<P, M> {
    /// An empty state over `metric`.
    pub fn new(metric: M) -> Self {
        BallCache {
            metric,
            points: Vec::new(),
            kept: Kept::new(CACHE_BUDGET),
        }
    }

    /// Loads the points the next [`BallCache::solve`] solves.  Returns
    /// whether that solve starts from kept state: the points equal the
    /// kept ones under `==`, in order, and a solve derived state from
    /// them.  On any other points every kept list, the ladder and the
    /// order are dropped first, so the state never holds two sets of
    /// lists.
    pub fn load(&mut self, points: &[Weighted<P>]) -> bool {
        let same = self.points.len() == points.len()
            && self
                .points
                .iter()
                .zip(points)
                .all(|(a, b)| a.point == b.point);
        if !same {
            self.kept = Kept::new(self.kept.balls.budget);
        }
        self.points.clear();
        self.points.extend_from_slice(points);
        same && self.kept.balls.derived()
    }

    /// [`greedy_with`] on the loaded points, from the kept state.
    pub fn solve(&mut self, k: usize, z: u64, params: &GreedyParams) -> GreedySolution<P> {
        solve_from(&mut self.kept, &self.metric, &self.points, k, z, params)
    }
}

/// What one solve derives from its points (see [`BallCache`]): nothing
/// until a solve derives it.
struct Kept<P> {
    /// The candidate ladder, with the `exact_candidates_max_n` and the
    /// bits of the `geometric_step` it was built for.
    ladder: Option<((usize, u64), Vec<f64>)>,
    balls: Balls<P>,
}

impl<P> Kept<P> {
    fn new(budget: usize) -> Self {
        Kept {
            ladder: None,
            balls: Balls::new(budget),
        }
    }
}

/// The one solve path: [`greedy_with`] on a fresh `kept`, or
/// [`BallCache::solve`] on its kept one, which must have been derived
/// from `points` if it is not empty.
fn solve_from<P: Clone, M: MetricSpace<P>>(
    kept: &mut Kept<P>,
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

    let Kept { ladder, balls } = kept;
    let weights = balls.derive(metric, points);
    let key = (
        params.exact_candidates_max_n,
        params.geometric_step.to_bits(),
    );
    if ladder.as_ref().is_none_or(|(held, _)| *held != key) {
        *ladder = None;
        *ladder = Some((key, candidate_radii(metric, points, &balls.pivot, params)));
    }
    let candidates = &ladder.as_ref().expect("the ladder was built above").1;
    debug_assert!(!candidates.is_empty());

    // Feasibility is monotone in r for the guarantee's purposes: the
    // largest candidate (≥ diameter) always succeeds with one center.
    // A warm search builds the lists once, at the top of its bracket, so
    // that no probe inside the bracket rebuilds them.
    let last = candidates.len() - 1;
    let warm = params.warm_guess.map(|hint| {
        let (bottom, top) = bracket(candidates, hint);
        balls.reserve(metric, candidates[top]);
        (bottom, top)
    });
    let mut probes = 0usize;
    let mut probe = |i: usize| {
        probes += 1;
        disk_greedy(balls, metric, &weights, k, z, candidates[i]).verdict(z)
    };
    let best = match warm {
        Some((bottom, top)) => warm_search(bottom, top, last, &mut probe),
        None => lowest_feasible(0, last, &mut probe),
    };
    let (idx, center_idx) = best.unwrap_or_else(|| {
        // The diameter guess must succeed; recompute defensively.
        let c = disk_greedy(balls, metric, &weights, k, z, candidates[last])
            .verdict(z)
            .expect("diameter-radius guess must be feasible");
        (last, c)
    });
    let guess = candidates[idx];
    let centers: Vec<P> = center_idx
        .iter()
        .map(|&i| points[i].point.clone())
        .collect();
    // Tighten the certified 3·r̂ to the measured cost of this center set
    // (`cost_with_outliers`), and count the weight outside that radius
    // (`uncovered_weight`), both from one nearest-center distance per
    // point.
    let mut far = nearest_distances(metric, points, &centers);
    let radius = outlier_radius(&mut far, z).min(3.0 * guess);
    let uncovered = far.iter().fold(0u64, |sum, &(d, w)| {
        if d <= radius {
            sum
        } else {
            sum.saturating_add(w)
        }
    });
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

/// The bracket `[bottom, top]` of a warm search from `hint`: the first
/// candidates at or above `hint / 2` and at or above `hint`, each the
/// last candidate when there is none.
fn bracket(candidates: &[f64], hint: f64) -> (usize, usize) {
    let at_or_above = |x: f64| {
        candidates
            .partition_point(|&c| c < x)
            .min(candidates.len() - 1)
    };
    let top = at_or_above(hint);
    (at_or_above(hint / 2.0).min(top), top)
}

/// The warm-started radius search over the [`bracket`] `[bottom, top]`
/// of a hint expected within 2× above the settled guess: bisect the
/// bracket, and leave it only when one of its ends shows that the
/// boundary lies outside, galloping down from a feasible `bottom` or up
/// from an infeasible `top`.  Under the monotone-feasibility assumption
/// this finds the same minimal feasible index as the cold bisection.
/// When that index lies in the bracket, the search probes only the
/// bracket and the candidate below it, at most
/// `⌊log₂(top − bottom + 2)⌋ + 1` probes.  The engine's hint sits about
/// 1.46× above the settled guess, so its warm solves bisect about 70
/// candidates of the 1.01 ladder in 6–7 probes.
fn warm_search(
    bottom: usize,
    top: usize,
    last: usize,
    probe: &mut impl FnMut(usize) -> Option<Vec<usize>>,
) -> Option<(usize, Vec<usize>)> {
    match lowest_feasible(bottom, top, probe) {
        Some(lowest) if lowest.0 == bottom => Some(gallop_down(lowest, probe)),
        Some(inside) => Some(inside),
        None => gallop_up(top, last, probe),
    }
}

/// From the feasible candidate `lowest`, gallops downwards doubling the
/// step until an infeasible candidate brackets the boundary from below,
/// then bisects that bracket.
fn gallop_down(
    mut lowest: (usize, Vec<usize>),
    probe: &mut impl FnMut(usize) -> Option<Vec<usize>>,
) -> (usize, Vec<usize>) {
    let mut step = 1usize;
    while lowest.0 > 0 {
        let j = lowest.0.saturating_sub(step);
        match probe(j) {
            Some(below) => {
                lowest = (j, below);
                step = step.saturating_mul(2);
            }
            None => return lowest_feasible(j + 1, lowest.0 - 1, probe).unwrap_or(lowest),
        }
    }
    lowest
}

/// From the infeasible candidate `highest`, gallops upwards doubling the
/// step until a feasible candidate brackets the boundary from above,
/// then bisects that bracket.  `None` when no candidate up to `last` is
/// feasible.
fn gallop_up(
    mut highest: usize,
    last: usize,
    probe: &mut impl FnMut(usize) -> Option<Vec<usize>>,
) -> Option<(usize, Vec<usize>)> {
    let mut step = 1usize;
    while highest < last {
        let j = highest.saturating_add(step).min(last);
        if let Some(centers) = probe(j) {
            return Some(lowest_feasible(highest + 1, j - 1, probe).unwrap_or((j, centers)));
        }
        highest = j;
        step = step.saturating_mul(2);
    }
    None
}

/// Candidate radii for the binary search, ascending, first element `0`.
/// `pivot` is the `dist_many` row of the first point.
fn candidate_radii<P: Clone, M: MetricSpace<P>>(
    metric: &M,
    points: &[Weighted<P>],
    pivot: &[f64],
    params: &GreedyParams,
) -> Vec<f64> {
    let n = points.len();
    let mut row = Vec::new();
    if n <= params.exact_candidates_max_n {
        let mut c = Vec::with_capacity(n * (n - 1) / 2 + 1);
        c.push(0.0);
        for (i, p) in points.iter().enumerate() {
            metric.dist_many_weighted(&p.point, &points[i + 1..], &mut row);
            c.extend_from_slice(&row);
        }
        c.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN distances"));
        c.dedup();
        c
    } else {
        // Upper bound on the diameter: 2 × the eccentricity of point 0.
        let ecc = pivot.iter().fold(0.0f64, |m, &d| m.max(d));
        let hi = (2.0 * ecc).max(f64::MIN_POSITIVE);
        // Lower bound: smallest positive distance within a sample.  A
        // pair farther apart than the minimum so far cannot lower it, so
        // each point scans only its window at that minimum in the
        // sample's pivot order (every point while it is infinite).  Of
        // each window it takes the pairs `(i, j)` with `j > i`, the
        // ordered pairs a full scan compares, so the minimum is the same.
        let sample = 512.min(n);
        let order = PivotOrder::new(&pivot[..sample], |i| points[i].point.clone());
        let mut lo = f64::INFINITY;
        for i in 0..sample {
            let win = order.window(pivot[i], lo);
            metric.dist_many(&points[i].point, &order.items()[win.clone()], &mut row);
            for (&d, &j) in row.iter().zip(&order.index()[win]) {
                if j > i && d > 0.0 && d < lo {
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

/// The ball queries of a solve (see the module docs): the pivot order of
/// the points, and the neighbour cache while it fits the budget.  A
/// probe numbers the points by their position in the order, not by
/// input index.  Only the cursors depend on the weights, and
/// [`Balls::derive`] rewinds them.
struct Balls<P> {
    /// `f` of each point, by input index: its distance to the first
    /// point.
    pivot: Vec<f64>,
    /// The points by `f`, each stored once; empty until
    /// [`Balls::derive`].
    order: PivotOrder<P>,
    /// Most cache entries a build may keep.
    budget: usize,
    /// Smallest radius whose build passed the budget: a probe at or
    /// above it scans.
    over: f64,
    cache: Cache,
    /// Whether the current probe reads `cache` rather than scanning.
    cached: bool,
    row: Vec<f64>,
    keys: Vec<u64>,
}

/// Neighbour lists at radius `r` in CSR form: the entries of the point at
/// position `a` are `start[a]..start[a + 1]` of `nbr` (positions) and
/// `dist`, nearest first.  The cursor `end[a]` ends the prefix of `a`'s
/// list that lies within the last probe's radius, and `sum[a]` is the
/// weight of that prefix.  Every array is empty while no build is
/// complete.
struct Cache {
    /// The radius of the lists; `-∞` while no build is complete.
    r: f64,
    start: Vec<usize>,
    nbr: Vec<u32>,
    dist: Vec<f64>,
    end: Vec<usize>,
    sum: Vec<u128>,
}

impl Default for Cache {
    fn default() -> Self {
        Cache {
            r: f64::NEG_INFINITY,
            start: Vec::new(),
            nbr: Vec::new(),
            dist: Vec::new(),
            end: Vec::new(),
            sum: Vec::new(),
        }
    }
}

impl<P> Balls<P> {
    /// Nothing derived yet; `budget` caps the cache in entries.
    fn new(budget: usize) -> Self {
        Balls {
            pivot: Vec::new(),
            order: PivotOrder::default(),
            budget,
            over: f64::INFINITY,
            cache: Cache::default(),
            cached: false,
            row: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Whether a solve derived the order.
    fn derived(&self) -> bool {
        !self.order.items().is_empty()
    }
}

impl<P: Clone> Balls<P> {
    /// Derives the pivot row and order of `points`, which must not be
    /// empty, unless an earlier solve on the same points left them, and
    /// rewinds every cursor: their sums hold that solve's weights.
    /// Returns the weight of each position, which the probes read.
    fn derive<M: MetricSpace<P>>(&mut self, metric: &M, points: &[Weighted<P>]) -> Vec<u64> {
        if !self.derived() {
            metric.dist_many_weighted(&points[0].point, points, &mut self.pivot);
            self.order = PivotOrder::new(&self.pivot, |i| points[i].point.clone());
            // Window offsets fit the sort keys' low bits, and positions a
            // `u32`, only for a point set the budget can cache.
            self.over = if points.len() <= CACHE_BUDGET {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
        }
        debug_assert_eq!(self.order.items().len(), points.len());
        let c = &mut self.cache;
        let n = c.end.len();
        c.end.copy_from_slice(&c.start[..n]);
        c.sum.fill(0);
        self.order
            .index()
            .iter()
            .map(|&i| points[i].weight)
            .collect()
    }

    /// Readies the ball queries of one probe at radius `r`: read the cache
    /// if it was built at `r` or above, else rebuild it at `r` below the
    /// radius of the last overflowing build, else scan the windows on the
    /// fly.  Reading the cache moves every cursor to `r`.
    fn prepare<M: MetricSpace<P>>(&mut self, metric: &M, weights: &[u64], r: f64) {
        self.cached = r <= self.cache.r || (r < self.over && self.build(metric, r));
        if self.cached {
            self.cache.seek(r, weights);
        }
    }

    /// Builds the cache at radius `r` unless it already reaches `r` or a
    /// build there would pass the budget, so that the probes at or below
    /// `r` that follow share one build.
    fn reserve<M: MetricSpace<P>>(&mut self, metric: &M, r: f64) {
        if self.cache.r < r && r < self.over {
            self.build(metric, r);
        }
    }

    /// Builds the cache at radius `r`, with every cursor at the start of
    /// its list.  Once the kept entries pass the budget it stops, frees
    /// the partial lists, remembers `r` and returns `false`.
    fn build<M: MetricSpace<P>>(&mut self, metric: &M, r: f64) -> bool {
        let (f, pts) = (self.order.keys(), self.order.items());
        let n = pts.len();
        let candidates: usize = f.iter().map(|&f| self.order.window(f, r).len()).sum();
        // Free the old lists, then make room for every window candidate,
        // up to the budget and one more list, so that no list is copied
        // as the arrays grow; only the entries written are touched.
        self.cache = Cache::default();
        let c = &mut self.cache;
        c.start.push(0);
        let most = candidates.min(self.budget.saturating_add(n));
        c.nbr.reserve_exact(most);
        c.dist.reserve_exact(most);
        for (p, &fp) in pts.iter().zip(f) {
            let win = self.order.window(fp, r);
            let first = win.start;
            metric.dist_many(p, &pts[win], &mut self.row);
            let row = &self.row;
            if self.keys.len() < row.len() {
                self.keys.resize(row.len(), 0);
            }
            // Key every candidate by its distance's bits (`+ 0.0` turns
            // −0.0 into +0.0) with its offset in the window in the low
            // bits, and count it kept when it lies within `r`.
            let mut kept = 0;
            for (pos, &d) in row.iter().enumerate() {
                self.keys[kept] = (d + 0.0).to_bits() & !POS_MASK | pos as u64;
                kept += usize::from(d <= r);
            }
            let keys = &mut self.keys[..kept];
            keys.sort_unstable();
            // The keys order the distances up to their dropped low bits;
            // order each run of equal truncated keys by distance.
            let at_pos = |key: u64| (key & POS_MASK) as usize;
            for i in 1..keys.len() {
                let key = keys[i];
                let d = row[at_pos(key)];
                let mut j = i;
                while j > 0
                    && keys[j - 1] & !POS_MASK == key & !POS_MASK
                    && row[at_pos(keys[j - 1])] > d
                {
                    keys[j] = keys[j - 1];
                    j -= 1;
                }
                keys[j] = key;
            }
            c.nbr
                .extend(keys.iter().map(|&key| (first + at_pos(key)) as u32));
            c.dist.extend(keys.iter().map(|&key| row[at_pos(key)]));
            c.start.push(c.nbr.len());
            if c.nbr.len() > self.budget {
                self.over = r;
                *c = Cache::default();
                return false;
            }
        }
        c.end.extend_from_slice(&c.start[..n]);
        c.sum.resize(n, 0);
        c.r = r;
        true
    }

    /// The weight of the points within `r` of position `a`, where `r` is
    /// the radius of the last [`Balls::prepare`].
    fn ball_weight<M: MetricSpace<P>>(
        &mut self,
        metric: &M,
        weights: &[u64],
        a: usize,
        r: f64,
    ) -> u128 {
        if self.cached {
            return self.cache.sum[a];
        }
        let mut sum = 0;
        self.for_each_within(metric, a, r, |b| sum += u128::from(weights[b]));
        sum
    }

    /// Calls `visit(b)` for every position `b` whose point lies within
    /// `r` of the point at position `a`, where `r` is the radius of the
    /// last [`Balls::prepare`].
    fn for_each_within<M: MetricSpace<P>>(
        &mut self,
        metric: &M,
        a: usize,
        r: f64,
        mut visit: impl FnMut(usize),
    ) {
        if self.cached {
            let c = &self.cache;
            let ball = c.start[a]..c.end[a];
            debug_assert!(
                c.dist[ball.clone()].last().is_none_or(|&d| d <= r)
                    && c.dist[ball.end..c.start[a + 1]]
                        .first()
                        .is_none_or(|&d| d > r),
                "the cursor of {a} is not at radius {r}"
            );
            for &b in &c.nbr[ball] {
                visit(b as usize);
            }
            return;
        }
        let win = self.order.window(self.order.keys()[a], r);
        let pts = self.order.items();
        metric.dist_many(&pts[a], &pts[win.clone()], &mut self.row);
        for (b, &d) in win.zip(&self.row) {
            if d <= r {
                visit(b);
            }
        }
    }
}

impl Cache {
    /// Moves every cursor to radius `r`, adding or subtracting the weight
    /// of each entry it crosses.
    fn seek(&mut self, r: f64, weights: &[u64]) {
        let cursors = self.end.iter_mut().zip(&mut self.sum);
        for ((end, sum), list) in cursors.zip(self.start.windows(2)) {
            while *end < list[1] && self.dist[*end] <= r {
                *sum += u128::from(weights[self.nbr[*end] as usize]);
                *end += 1;
            }
            while *end > list[0] && self.dist[*end - 1] > r {
                *end -= 1;
                *sum -= u128::from(weights[self.nbr[*end] as usize]);
            }
        }
    }
}

/// Outcome of one [`disk_greedy`] run.
#[derive(Debug, PartialEq)]
struct Probe {
    /// Center indices into the input points, in pick order.
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
/// The points are numbered by their position in the pivot order:
/// `weights`, the gains and the covered flags are indexed by position,
/// and only the picks are mapped back to input indices.  Gains start as
/// ball weights (the cursors' sums when cached) and drop as points get
/// covered: `O(Σ|ball|)` over the covered points from the neighbour
/// cache, plus one `dist_many` row per pick over its `3r` window, a
/// contiguous run of positions whose lists lie next to each other.  Once
/// no pick can follow, the gains are left as they are.
fn disk_greedy<P: Clone, M: MetricSpace<P>>(
    balls: &mut Balls<P>,
    metric: &M,
    weights: &[u64],
    k: usize,
    z: u64,
    r: f64,
) -> Probe {
    let n = weights.len();
    debug_assert!(
        u32::try_from(n).is_ok(),
        "input indices fit the gains' low bits"
    );
    balls.prepare(metric, weights, r);
    // gain[a] = uncovered weight within distance r of position a, shifted
    // above the input index of a, so that the largest gain wins and ties
    // go to the last maximal input index.  A gain is at most the total
    // weight, below 2⁹⁶ for n < 2³², so the shifted sum is exact.
    let mut gain: Vec<u128> = (0..n)
        .map(|a| {
            balls.ball_weight(metric, weights, a, r) << INDEX_BITS | balls.order.index()[a] as u128
        })
        .collect();
    let mut uncovered: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let mut covered = vec![false; n];
    let mut picks = Vec::with_capacity(k);
    let mut ball = Vec::new();
    for _ in 0..k {
        if uncovered <= u128::from(z) {
            break;
        }
        let (best, &g) = gain
            .iter()
            .enumerate()
            .max_by_key(|&(_, g)| *g)
            .expect("non-empty gains");
        if g >> INDEX_BITS == 0 {
            // No r-ball covers any uncovered weight; more centers cannot help.
            break;
        }
        picks.push(balls.order.index()[best]);
        // The window of `best` at 3r holds every point within 3r of it,
        // so its row covers the same points as a row over all of them,
        // in position order.
        let win = balls.order.window(balls.order.keys()[best], 3.0 * r);
        let pts = balls.order.items();
        metric.dist_many(&pts[best], &pts[win.clone()], &mut ball);
        for (b, &d) in win.zip(&ball) {
            if d <= 3.0 * r && !covered[b] {
                covered[b] = true;
                let w = u128::from(weights[b]);
                uncovered -= w;
                // b leaves every gain it contributed to, unless no pick
                // follows to read the gains.
                if picks.len() < k && uncovered > u128::from(z) {
                    balls.for_each_within(metric, b, r, |a| gain[a] -= w << INDEX_BITS);
                }
            }
        }
    }
    Probe { picks, uncovered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{cost_with_outliers, uncovered_weight};
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
        let exact = candidate_radii(metric, points, &pivot, &GreedyParams::default());
        let geometric = GreedyParams {
            exact_candidates_max_n: 0,
            ..Default::default()
        };
        let geometric = candidate_radii(metric, points, &pivot, &geometric);
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
                    let mut balls = Balls::new(budget);
                    let by_position = balls.derive(metric, points);
                    for &i in &order {
                        let got =
                            disk_greedy(&mut balls, metric, &by_position, k, z, candidates[i]);
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
        // A 10×10 lattice with about a third of its sites repeated: lists
        // of up to all its 130-odd points, which the key sort does not
        // take on its small-slice path and the cursors cross far both ways.
        let mut dense = Vec::new();
        for i in 0..100 {
            let site = [(i % 10) as f64, (i / 10) as f64];
            for _ in 0..1 + usize::from(u() < 0.3) {
                dense.push(Weighted::new(site, weight(&mut u)));
            }
        }
        vec![
            ("lattice", lattice),
            ("duplicates", duplicates),
            ("gaussian", gaussian),
            ("dense lattice", dense),
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
    fn distances_equal_in_the_key_bits_stay_nearest_first() {
        // Seen from 10, the point three ulps below 9 lies 24 ulps of 1.0
        // farther than 11: a gap in the sort key's dropped low bits.  It
        // also comes first in the pivot order, so only the insertion pass
        // puts 11 first in the list of 10.
        let x = 9.0f64.next_down().next_down().next_down();
        let (near, far) = (Line.dist(&10.0, &11.0), Line.dist(&10.0, &x));
        assert!(near < far && (near.to_bits() ^ far.to_bits()) <= POS_MASK);
        let pts = unit_weighted(&[0.0, 10.0, x, 11.0, 30.0]);
        assert_probes_match(&Line, &pts, "low-bit ties");
    }

    #[test]
    fn a_ring_around_the_pivot_is_cached_while_its_kept_entries_fit() {
        // Each ring point's window spans the whole ring: 1601 candidates
        // in all, past the budget of 400.  At the ring's side a ring
        // point's ball holds it and its two neighbours (121 entries in
        // all), at twice the side four neighbours (201), and at 10 at
        // least 12 (over 520).
        let tau = std::f64::consts::TAU;
        let points: Vec<Weighted<[f64; 2]>> = std::iter::once(Weighted::new([0.0, 0.0], 3))
            .chain((0..40).map(|i| {
                let a = i as f64 * tau / 40.0;
                Weighted::new([10.0 * a.cos(), 10.0 * a.sin()], 1 + i % 3)
            }))
            .collect();
        let weights: Vec<u64> = points.iter().map(|p| p.weight).collect();
        let pts: Vec<[f64; 2]> = points.iter().map(|p| p.point).collect();
        let side = L2.dist(&pts[1], &pts[2]);
        let mut balls = Balls::new(400);
        let by_position = balls.derive(&L2, &points);
        // After the build at 10 overflows, 12 scans with no build; a
        // radius below 10 builds again.
        for (r, cached) in [
            (side, true),
            (2.0 * side, true),
            (side, true),
            (10.0, false),
            (12.0, false),
            (side, true),
        ] {
            for (k, z) in [(1usize, 0u64), (3, 2), (8, 5)] {
                let got = disk_greedy(&mut balls, &L2, &by_position, k, z, r);
                assert_eq!(balls.cached, cached, "r={r} k={k} z={z}");
                // An overflowing build frees its partial lists at once.
                assert_eq!(balls.cache.nbr.capacity() == 0, !cached);
                assert_eq!(got, reference_probe(&L2, &pts, &weights, k, z, r));
            }
        }
        assert_eq!(balls.over, 10.0);
    }

    #[test]
    fn the_solve_tail_reads_the_cost_functions() {
        // The radius is `cost_with_outliers` capped at 3·guess, and the
        // uncovered weight is `uncovered_weight` at that radius, both
        // read from one nearest-center distance per point.
        for (name, pts) in planar_instances(0) {
            for (k, z) in [(1usize, 0u64), (2, 3), (3, 1), (4, 40)] {
                let sol = greedy(&L2, &pts, k, z);
                let measured = cost_with_outliers(&L2, &pts, &sol.centers, z);
                assert_eq!(
                    sol.radius.to_bits(),
                    measured.min(3.0 * sol.guess).to_bits(),
                    "{name} k={k} z={z}"
                );
                assert_eq!(
                    sol.uncovered,
                    uncovered_weight(&L2, &pts, &sol.centers, sol.radius),
                    "{name} k={k} z={z}"
                );
            }
        }
    }

    /// The bits a solve publishes: centers, radius, guess, uncovered
    /// weight and probes.
    fn solution_bits(sol: &GreedySolution<[f64; 2]>) -> (Vec<[u64; 2]>, u64, u64, u64, usize) {
        let centers = sol.centers.iter().map(|c| c.map(f64::to_bits)).collect();
        (
            centers,
            sol.radius.to_bits(),
            sol.guess.to_bits(),
            sol.uncovered,
            sol.probes,
        )
    }

    /// One solve of [`assert_kept_solves_match`]: what changed, the
    /// points, the params and whether the solve should reuse.
    type Step<'a> = (&'a str, &'a [Weighted<[f64; 2]>], &'a GreedyParams, bool);

    /// Drives one [`BallCache`] through `steps`, checking each solve
    /// against a fresh [`greedy_with`] bit for bit.
    fn assert_kept_solves_match<M: MetricSpace<[f64; 2]> + Clone>(
        cache: &mut BallCache<[f64; 2], M>,
        steps: &[Step<'_>],
        what: &str,
    ) {
        for &(step, points, params, reused) in steps {
            assert_eq!(cache.load(points), reused, "{what}: {step} reuse");
            for (k, z) in [(2usize, 2u64), (3, 1)] {
                let kept = cache.solve(k, z, params);
                let fresh = greedy_with(&cache.metric, points, k, z, params);
                assert_eq!(
                    solution_bits(&kept),
                    solution_bits(&fresh),
                    "{what}: {step} k={k} z={z}"
                );
            }
        }
    }

    /// The sequence of [`assert_kept_solves_match`] on [`instance`], warm
    /// and cold, under `metric`.
    fn kept_state_sequence<M: MetricSpace<[f64; 2]> + Clone>(metric: M, what: &str) {
        let base = instance();
        let mut reweighted = base.clone();
        for (i, p) in reweighted.iter_mut().enumerate() {
            p.weight = 1 + (i % 4) as u64;
        }
        let mut moved = reweighted.clone();
        moved[3].point[0] += 0.05;
        let mut appended = moved.clone();
        appended.push(Weighted::new([50.0, 1.0], 3));
        let mut removed = reweighted.clone();
        removed.remove(7);
        let mut swapped = reweighted.clone();
        swapped.swap(2, 11);
        // Every coordinate 0.0 becomes −0.0: equal under `==`, so the
        // solve reuses, and its centers must carry the new bits.
        let mut signed = swapped.clone();
        for p in &mut signed {
            p.point = p.point.map(|x| if x == 0.0 { -0.0 } else { x });
        }
        let mut unit = swapped.clone();
        for p in &mut unit {
            p.weight = 1;
        }
        for exact in [GreedyParams::default(), GreedyParams::warm(2.0)] {
            let geometric = GreedyParams {
                exact_candidates_max_n: 0,
                ..exact.clone()
            };
            let what = format!("{what} warm={:?}", exact.warm_guess);
            let mut cache = BallCache::new(metric.clone());
            assert_kept_solves_match(
                &mut cache,
                &[
                    ("base", &base, &exact, false),
                    ("weights change", &reweighted, &exact, true),
                    ("a point moves", &moved, &exact, false),
                    ("a point is appended", &appended, &exact, false),
                    ("a point is removed", &removed, &exact, false),
                    ("two points swap", &swapped, &exact, false),
                    ("the ladder params change", &swapped, &geometric, true),
                    ("0.0 becomes -0.0", &signed, &geometric, true),
                    ("the ladder params change back", &signed, &exact, true),
                ],
                &what,
            );
            // A budget below the clusters' balls: builds overflow, free
            // their lists and leave the overflow radius to the next solve.
            let mut small = BallCache::new(metric.clone());
            small.kept.balls.budget = 40;
            assert_kept_solves_match(
                &mut small,
                &[
                    ("base", &base, &exact, false),
                    ("weights change", &reweighted, &exact, true),
                    ("two points swap", &swapped, &geometric, false),
                    ("weights change again", &unit, &geometric, true),
                ],
                &format!("{what} budget 40"),
            );
            assert!(
                small.kept.balls.over.is_finite(),
                "{what}: no build overflowed"
            );
        }
    }

    #[test]
    fn a_kept_state_solves_bit_identically_to_a_fresh_one() {
        kept_state_sequence(L2, "L2");
        kept_state_sequence(Linf, "Linf");
    }

    #[test]
    fn a_nan_point_never_reuses() {
        // `Linf` takes the larger coordinate gap with `f64::max`, which
        // drops a NaN gap, so the solve runs; the key still never matches.
        let mut pts = instance();
        pts[4].point[1] = f64::NAN;
        let mut cache = BallCache::new(Linf);
        assert!(!cache.load(&pts));
        let sol = cache.solve(2, 3, &GreedyParams::default());
        assert!(sol.uncovered <= 3 && cache.kept.balls.derived());
        assert!(!cache.load(&pts), "NaN != NaN, so the key never matches");
    }

    /// The candidate ladder of `params` on `pts` and whether each
    /// candidate is feasible.
    fn feasibility(
        pts: &[Weighted<[f64; 2]>],
        k: usize,
        z: u64,
        params: &GreedyParams,
    ) -> (Vec<f64>, Vec<bool>) {
        let mut balls = Balls::new(CACHE_BUDGET);
        let by_position = balls.derive(&L2, pts);
        let candidates = candidate_radii(&L2, pts, &balls.pivot, params);
        let feas = candidates
            .iter()
            .map(|&r| {
                disk_greedy(&mut balls, &L2, &by_position, k, z, r)
                    .verdict(z)
                    .is_some()
            })
            .collect();
        (candidates, feas)
    }

    /// The first feasible index of a sweep when feasibility is monotone
    /// (a prefix of infeasible candidates followed by a feasible suffix),
    /// `None` when the instance has feasible "pockets".
    fn boundary(feas: &[bool]) -> Option<usize> {
        let boundary = feas.iter().position(|&f| f)?;
        feas[boundary..].iter().all(|&f| f).then_some(boundary)
    }

    /// Exhaustive feasibility sweep over the exact candidate set: returns
    /// `Some(boundary)` when feasibility is genuinely monotone, `None`
    /// when it is not.  Warm and cold searches are guaranteed to agree
    /// exactly on the monotone instances — the same assumption the cold
    /// bisection itself already leans on.
    fn monotone_boundary(pts: &[Weighted<[f64; 2]>], k: usize, z: u64) -> Option<usize> {
        boundary(&feasibility(pts, k, z, &GreedyParams::default()).1)
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
    fn a_hint_up_to_twice_the_guess_settles_within_its_bracket() {
        // On a monotone instance, a hint in [guess, 2·guess) puts the
        // guess in the hint's bracket, so the warm search settles on the
        // cold bits and probes only the bracket and the candidate below
        // it: at most ⌊log₂(their number)⌋ + 1 probes, on either ladder.
        let pts = instance();
        let mut checked = 0;
        for exact_candidates_max_n in [600, 0] {
            let ladder = GreedyParams {
                exact_candidates_max_n,
                ..Default::default()
            };
            for (k, z) in [(2usize, 2u64), (2, 0), (3, 1)] {
                let (candidates, feas) = feasibility(&pts, k, z, &ladder);
                let Some(g) = boundary(&feas) else {
                    continue;
                };
                let cold = greedy_with(&L2, &pts, k, z, &ladder);
                assert_eq!(cold.guess.to_bits(), candidates[g].to_bits());
                let guess = cold.guess;
                for hint in [
                    guess,
                    guess * 1.001,
                    guess * 1.46,
                    (2.0 * guess).next_down(),
                ] {
                    let what = format!("n_max={exact_candidates_max_n} k={k} z={z} hint={hint}");
                    let params = GreedyParams {
                        warm_guess: Some(hint),
                        ..ladder.clone()
                    };
                    let warm = greedy_with(&L2, &pts, k, z, &params);
                    assert_eq!(warm.centers, cold.centers, "{what}");
                    assert_eq!(warm.radius.to_bits(), cold.radius.to_bits(), "{what}");
                    assert_eq!(warm.guess.to_bits(), cold.guess.to_bits(), "{what}");
                    assert_eq!(warm.uncovered, cold.uncovered, "{what}");
                    let (bottom, top) = bracket(&candidates, hint);
                    assert!(
                        bottom <= g && g <= top,
                        "{what}: guess outside [{bottom}, {top}]"
                    );
                    let size = top - bottom + 1 + usize::from(bottom > 0);
                    assert!(
                        warm.probes <= size.ilog2() as usize + 1,
                        "{what}: {} probes over {size} candidates",
                        warm.probes
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 16, "sweep found too few monotone cases");
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
