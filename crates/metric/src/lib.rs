//! Metric-space foundations for the k-center-with-outliers suite.
//!
//! The paper ("k-Center Clustering with Outliers in the MPC and Streaming
//! Model", de Berg, Biabani, Monemizadeh, IPDPS 2023) works in an abstract
//! metric space `(X, dist)` of doubling dimension `d`.  This crate provides:
//!
//! * point types: fixed-dimension Euclidean points (`[f64; D]`), discrete
//!   grid points from `[Δ]^d` (`[u64; D]`), and a generic [`MetricSpace`]
//!   trait so every algorithm upstream is metric-agnostic;
//! * metrics: [`L2`], [`Linf`], and their discrete-grid counterparts;
//! * **batched distance kernels**: every [`MetricSpace`] ships one-to-many
//!   methods ([`MetricSpace::dist_many`], [`MetricSpace::nearest`],
//!   [`MetricSpace::within_indices`], …) over the slice the caller
//!   already owns, with auto-vectorizable overrides for the Euclidean
//!   metrics that defer or skip the `sqrt` — the single kernel surface
//!   behind every hot loop in the suite (mini-ball partitions, streaming
//!   absorption, query serving, MPC local rounds);
//! * [`pivot::PivotOrder`], the points sorted by their distance to one
//!   pivot, whose windows prune the ball queries of the mini-ball
//!   partitions, the streaming absorb and the Charikar solve;
//! * [`Weighted`] points with positive integer weights (the paper's weighted
//!   k-center formulation, Section 1);
//! * utilities used throughout: pairwise-distance extrema and spread
//!   (the ratio σ of Section 6);
//! * [`SpaceUsage`], the word-accounting trait backing every storage
//!   measurement reported by the MPC simulator and the streaming
//!   algorithms.

#![warn(missing_docs)]

pub mod pivot;
pub mod space;
pub mod stats;
pub mod weighted;

pub use space::SpaceUsage;
pub use weighted::{total_weight, unit_weighted, Weighted};

/// A metric over points of type `P`, with batched one-to-many kernels.
///
/// Implementations must satisfy the metric axioms (identity, symmetry,
/// triangle inequality); the property tests in this crate check them on the
/// provided implementations.  `doubling_dim` reports the doubling dimension
/// `d` of the space, which the paper's algorithms use solely to compute
/// capacity thresholds such as `k(16/ε)^d + z` (Algorithm 3) — it never
/// affects correctness of the constructions, only their size bounds.
///
/// # Batched kernels and the deferred-`sqrt` contract
///
/// Beyond the scalar [`dist`](Self::dist), the trait provides one-to-many
/// kernels (`dist_many`, `nearest`, `within_indices`, and the `*_weighted`
/// variants).  The provided defaults are plain scalar loops; the
/// Euclidean metrics ([`L2`], [`GridL2`]) override them to compute
/// *squared* distances in the inner loop and defer the `sqrt`:
///
/// * kernels that return distances (`dist_many`, `nearest`) apply the
///   `sqrt` once per output value, after the scan, and return exactly the
///   same values as the scalar `dist` (IEEE `sqrt` is correctly rounded,
///   so `√(min sᵢ) = min √sᵢ`);
/// * kernels that only *test* a radius (`within`, `within_indices`) skip
///   the `sqrt` entirely and evaluate
///   `dist²(a,b) ≤ r²`.  This agrees with the scalar
///   `dist(a,b) ≤ r` at `r = 0`, at exactly representable ties
///   (duplicate points, integer 3-4-5 configurations, …), and everywhere
///   except when the two sides are within one floating-point ulp of
///   equality.  Callers that test a
///   radius *derived from a computed distance* and need boundary-exact
///   classification (e.g. the cost validators, whose radius is itself some
///   point's distance) should compare via `nearest`/`dist_many` instead.
///
/// All radius-testing kernels treat a negative or NaN `r` as matching
/// nothing, like the scalar comparison does.  Radii above `√f64::MAX`
/// (≈ 1.34·10¹⁵⁴, where `r²` overflows) fall back to scalar distances, and
/// the `nearest` kernels skip NaN distances (from non-finite coordinates)
/// whenever any comparable distance exists.
pub trait MetricSpace<P>: Send + Sync {
    /// Distance between `a` and `b`.
    fn dist(&self, a: &P, b: &P) -> f64;

    /// Doubling dimension of the space (a constant per the paper).
    fn doubling_dim(&self) -> usize;

    /// Whether `dist(a, b) ≤ r`, up to the deferred-`sqrt` contract (see
    /// the trait docs).  The Euclidean overrides compare squared
    /// distances; [`Linf`] exits early on the first coordinate exceeding
    /// `r`.
    #[inline]
    fn within(&self, a: &P, b: &P, r: f64) -> bool {
        self.dist(a, b) <= r
    }

    /// Writes `dist(q, p)` for every `p` in `pts` into `out` (cleared
    /// first).  Returns exactly the scalar distances; the Euclidean
    /// overrides batch the accumulation and apply the `sqrt` in a single
    /// pass at the end.
    fn dist_many(&self, q: &P, pts: &[P], out: &mut Vec<f64>) {
        // `extend` over an exact-size iterator reserves once by itself;
        // an explicit `reserve` here would re-check (and on some
        // allocators re-touch) the header on every call of a steady
        // state that reuses `out` at constant capacity.
        out.clear();
        out.extend(pts.iter().map(|p| self.dist(q, p)));
    }

    /// Index and distance of the point of `pts` nearest to `q`; `None` on
    /// an empty slice.  The returned distance equals the scalar `dist`
    /// exactly (the `sqrt` is deferred, not skipped).  Ties resolve to the
    /// smallest index — for the Euclidean overrides, ties on the *squared*
    /// distances, which can pick a different index than post-`sqrt` ties
    /// only when two distinct squares round to the same square root (the
    /// returned distance is the same either way).
    fn nearest(&self, q: &P, pts: &[P]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in pts.iter().enumerate() {
            let d = self.dist(q, p);
            if nearer(d, best) {
                best = Some((i, d));
            }
        }
        best
    }

    /// Writes the ascending indices of all points of `pts` within distance
    /// `r` of `q` into `out` (cleared first).  Deferred-`sqrt` contract
    /// applies.
    fn within_indices(&self, q: &P, pts: &[P], r: f64, out: &mut Vec<usize>) {
        out.clear();
        for (i, p) in pts.iter().enumerate() {
            if self.within(q, p, r) {
                out.push(i);
            }
        }
    }

    /// [`dist_many`](Self::dist_many) over a weighted slice, scanning the
    /// `point` fields without materializing a bare point array.  Returns
    /// exactly the scalar distances; the Euclidean overrides defer the
    /// `sqrt` like `dist_many` does.  This is the borrow-only path
    /// summary structures use to scan their own representatives (e.g.
    /// radius establishment in the streaming coreset) without cloning
    /// every point per call.
    fn dist_many_weighted(&self, q: &P, pts: &[Weighted<P>], out: &mut Vec<f64>) {
        // No explicit `reserve`: see `dist_many`.
        out.clear();
        out.extend(pts.iter().map(|p| self.dist(q, &p.point)));
    }

    /// [`nearest`](Self::nearest) over a weighted slice, scanning the
    /// `point` fields.  The returned distance equals the scalar `dist`.
    fn nearest_weighted(&self, q: &P, pts: &[Weighted<P>]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in pts.iter().enumerate() {
            let d = self.dist(q, &p.point);
            if nearer(d, best) {
                best = Some((i, d));
            }
        }
        best
    }
}

/// Squared Euclidean distance over `[f64; D]`; the accumulation order
/// matches [`L2::dist`] so the deferred `sqrt` reproduces it bit-for-bit.
#[inline(always)]
fn sq_l2<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut s = 0.0;
    for i in 0..D {
        let d = a[i] - b[i];
        s += d * d;
    }
    s
}

/// Squared Euclidean distance over grid points `[u64; D]`.
#[inline(always)]
fn sq_grid<const D: usize>(a: &[u64; D], b: &[u64; D]) -> f64 {
    let mut s = 0.0;
    for i in 0..D {
        let d = a[i] as f64 - b[i] as f64;
        s += d * d;
    }
    s
}

/// Squared-radius threshold for the deferred-`sqrt` comparisons: negative
/// and NaN radii match nothing (`s ≤ NEG_INFINITY` is false for every
/// non-negative `s`), mirroring the scalar `dist ≤ r`.
#[inline(always)]
fn sq_threshold(r: f64) -> f64 {
    if r >= 0.0 {
        r * r
    } else {
        f64::NEG_INFINITY
    }
}

/// True when `r` is finite but `r²` overflows to infinity (`r > √MAX ≈
/// 1.34e154`): squared-space comparison can no longer separate radii, so
/// the radius-testing kernels fall back to the scalar `dist`.
#[inline(always)]
fn sq_overflows(r: f64) -> bool {
    r.is_finite() && (r * r).is_infinite()
}

/// Update rule shared by the `nearest` kernels: a NaN distance never beats
/// a comparable one, and any comparable distance evicts a NaN best —
/// matching the `fold(INFINITY, f64::min)` scans these kernels replaced,
/// which ignored NaN.  Applies equally to squared distances (`d²` is NaN
/// iff `d` is).
#[inline(always)]
fn nearer(d: f64, best: Option<(usize, f64)>) -> bool {
    match best {
        None => true,
        Some((_, b)) => d < b || (b.is_nan() && !d.is_nan()),
    }
}

/// Points per block of the blocked Euclidean `nearest` (the view's
/// assign): each block's squared distances are computed into an array
/// before any of them is compared, so no branch sits between the sums.
/// Every point's sum keeps its coordinate order and the comparisons run
/// in index order, so the blocked kernel returns exactly what the
/// unblocked loop does.
const BLOCK: usize = 8;

/// Batched-kernel overrides shared by the Euclidean metrics: squared
/// distances in the inner loops, `sqrt` deferred (distance-returning
/// kernels) or skipped (radius-testing kernels).
macro_rules! euclidean_batch_kernels {
    ($pt:ty, $sq:path) => {
        #[inline]
        fn within(&self, a: &$pt, b: &$pt, r: f64) -> bool {
            if sq_overflows(r) {
                return self.dist(a, b) <= r;
            }
            $sq(a, b) <= sq_threshold(r)
        }

        fn dist_many(&self, q: &$pt, pts: &[$pt], out: &mut Vec<f64>) {
            // resize + indexed writes (not `push`): the capacity check per
            // element would block autovectorization of both passes.
            out.clear();
            out.resize(pts.len(), 0.0);
            for (o, p) in out.iter_mut().zip(pts) {
                *o = $sq(q, p);
            }
            for v in out.iter_mut() {
                *v = v.sqrt();
            }
        }

        fn nearest(&self, q: &$pt, pts: &[$pt]) -> Option<(usize, f64)> {
            let mut best: Option<(usize, f64)> = None;
            let mut blocks = pts.chunks_exact(BLOCK);
            for (b, block) in blocks.by_ref().enumerate() {
                let mut s = [0.0; BLOCK];
                for (v, p) in s.iter_mut().zip(block) {
                    *v = $sq(q, p);
                }
                for (j, &v) in s.iter().enumerate() {
                    if nearer(v, best) {
                        best = Some((b * BLOCK + j, v));
                    }
                }
            }
            let base = pts.len() - blocks.remainder().len();
            for (i, p) in blocks.remainder().iter().enumerate() {
                let s = $sq(q, p);
                if nearer(s, best) {
                    best = Some((base + i, s));
                }
            }
            best.map(|(i, s)| (i, s.sqrt()))
        }

        fn within_indices(&self, q: &$pt, pts: &[$pt], r: f64, out: &mut Vec<usize>) {
            out.clear();
            if sq_overflows(r) {
                for (i, p) in pts.iter().enumerate() {
                    if self.dist(q, p) <= r {
                        out.push(i);
                    }
                }
                return;
            }
            let r2 = sq_threshold(r);
            for (i, p) in pts.iter().enumerate() {
                if $sq(q, p) <= r2 {
                    out.push(i);
                }
            }
        }

        fn nearest_weighted(&self, q: &$pt, pts: &[Weighted<$pt>]) -> Option<(usize, f64)> {
            let mut best: Option<(usize, f64)> = None;
            for (i, p) in pts.iter().enumerate() {
                let s = $sq(q, &p.point);
                if nearer(s, best) {
                    best = Some((i, s));
                }
            }
            best.map(|(i, s)| (i, s.sqrt()))
        }

        fn dist_many_weighted(&self, q: &$pt, pts: &[Weighted<$pt>], out: &mut Vec<f64>) {
            out.clear();
            out.resize(pts.len(), 0.0);
            for (o, p) in out.iter_mut().zip(pts) {
                *o = $sq(q, &p.point);
            }
            for v in out.iter_mut() {
                *v = v.sqrt();
            }
        }
    };
}

/// Euclidean (`L2`) metric over fixed-dimension points `[f64; D]`.
///
/// The doubling dimension of `R^D` under `L2` is `Θ(D)`; we report `D`.
/// The batched kernels compute squared distances and defer the `sqrt`
/// (see the [`MetricSpace`] trait docs for the exact contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2;

impl<const D: usize> MetricSpace<[f64; D]> for L2 {
    #[inline]
    fn dist(&self, a: &[f64; D], b: &[f64; D]) -> f64 {
        sq_l2(a, b).sqrt()
    }

    #[inline]
    fn doubling_dim(&self) -> usize {
        D
    }

    euclidean_batch_kernels!([f64; D], sq_l2);
}

/// Chebyshev (`L∞`) metric over fixed-dimension points `[f64; D]`.
///
/// Section 6 of the paper proves the sliding-window lower bound under `L∞`;
/// the doubling dimension of `R^D` under `L∞` is exactly `D`.  The `L∞`
/// distance involves no `sqrt`, so the batched kernels return exactly the
/// scalar values; the radius-testing kernels prune by exiting on the first
/// coordinate whose difference exceeds `r`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Linf;

/// `L∞` distance over `[f64; D]`.
#[inline(always)]
fn d_linf<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut m = 0.0f64;
    for i in 0..D {
        let d = (a[i] - b[i]).abs();
        if d > m {
            m = d;
        }
    }
    m
}

/// `L∞` distance over grid points `[u64; D]`.
#[inline(always)]
fn d_gridlinf<const D: usize>(a: &[u64; D], b: &[u64; D]) -> f64 {
    let mut m = 0.0f64;
    for i in 0..D {
        let d = (a[i] as f64 - b[i] as f64).abs();
        if d > m {
            m = d;
        }
    }
    m
}

/// Early-exit `L∞` radius test over `[f64; D]`: false as soon as one
/// coordinate difference exceeds `r`.  Exactly `dist ≤ r`: negative and
/// NaN radii match nothing (`dist` is never negative), and NaN coordinate
/// differences are skipped just as `dist`'s running max skips them.
// `!(r >= 0.0)` is deliberate: it must reject NaN radii like `dist ≤ r` does.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
fn linf_within<const D: usize>(a: &[f64; D], b: &[f64; D], r: f64) -> bool {
    if !(r >= 0.0) {
        return false;
    }
    for i in 0..D {
        if (a[i] - b[i]).abs() > r {
            return false;
        }
    }
    true
}

/// Early-exit `L∞` radius test over grid points `[u64; D]` (see
/// [`linf_within`] for the exact-equivalence contract).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
fn gridlinf_within<const D: usize>(a: &[u64; D], b: &[u64; D], r: f64) -> bool {
    if !(r >= 0.0) {
        return false;
    }
    for i in 0..D {
        if (a[i] as f64 - b[i] as f64).abs() > r {
            return false;
        }
    }
    true
}

/// Batched-kernel overrides for the Chebyshev metrics: the `within` test
/// exits early on the first coordinate exceeding `r` (exactly equivalent
/// to `dist ≤ r`), and the remaining kernels build on it.
macro_rules! chebyshev_batch_kernels {
    ($pt:ty, $dist:path, $within:path) => {
        #[inline]
        fn within(&self, a: &$pt, b: &$pt, r: f64) -> bool {
            $within(a, b, r)
        }

        fn dist_many(&self, q: &$pt, pts: &[$pt], out: &mut Vec<f64>) {
            // resize + indexed writes (not `reserve` + `push`): one
            // allocation check up front instead of one per element.
            out.clear();
            out.resize(pts.len(), 0.0);
            for (o, p) in out.iter_mut().zip(pts) {
                *o = $dist(q, p);
            }
        }

        // within_indices needs no override: the trait default already
        // delegates to the early-exit `within`.
    };
}

impl<const D: usize> MetricSpace<[f64; D]> for Linf {
    #[inline]
    fn dist(&self, a: &[f64; D], b: &[f64; D]) -> f64 {
        d_linf(a, b)
    }

    #[inline]
    fn doubling_dim(&self) -> usize {
        D
    }

    chebyshev_batch_kernels!([f64; D], d_linf, linf_within);
}

/// Euclidean metric over discrete grid points `[u64; D]` from `[Δ]^D`
/// (the universe of the fully dynamic streaming algorithm, Section 5).
/// Shares the deferred-`sqrt` batched kernels with [`L2`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridL2;

impl<const D: usize> MetricSpace<[u64; D]> for GridL2 {
    #[inline]
    fn dist(&self, a: &[u64; D], b: &[u64; D]) -> f64 {
        sq_grid(a, b).sqrt()
    }

    #[inline]
    fn doubling_dim(&self) -> usize {
        D
    }

    euclidean_batch_kernels!([u64; D], sq_grid);
}

/// `L∞` metric over discrete grid points `[u64; D]`.  Shares the
/// early-exit batched kernels with [`Linf`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridLinf;

impl<const D: usize> MetricSpace<[u64; D]> for GridLinf {
    #[inline]
    fn dist(&self, a: &[u64; D], b: &[u64; D]) -> f64 {
        d_gridlinf(a, b)
    }

    #[inline]
    fn doubling_dim(&self) -> usize {
        D
    }

    chebyshev_batch_kernels!([u64; D], d_gridlinf, gridlinf_within);
}

/// One-dimensional Euclidean metric over bare `f64` values.
///
/// The `Ω(k + z)` lower bound of Lemma 15 lives on the real line; this
/// metric lets those instances avoid the `[f64; 1]` wrapper.  It involves
/// no `sqrt`, so the provided (scalar-loop) batched kernels are already
/// exact and reasonably fast.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Line;

impl MetricSpace<f64> for Line {
    #[inline]
    fn dist(&self, a: &f64, b: &f64) -> f64 {
        (a - b).abs()
    }

    #[inline]
    fn doubling_dim(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_basic() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(L2.dist(&a, &b), 5.0);
        assert_eq!(L2.dist(&a, &a), 0.0);
        assert_eq!(<L2 as MetricSpace<[f64; 2]>>::doubling_dim(&L2), 2);
    }

    #[test]
    fn linf_basic() {
        let a = [0.0, 0.0, 0.0];
        let b = [1.0, -7.0, 3.0];
        assert_eq!(Linf.dist(&a, &b), 7.0);
        assert!(Linf.dist(&a, &b) <= L2.dist(&a, &b));
    }

    #[test]
    fn grid_metrics_agree_with_continuous() {
        let a = [1u64, 2];
        let b = [4u64, 6];
        assert_eq!(GridL2.dist(&a, &b), 5.0);
        assert_eq!(GridLinf.dist(&a, &b), 4.0);
        assert_eq!(GridL2.dist(&a, &b), L2.dist(&[1.0, 2.0], &[4.0, 6.0]));
    }

    #[test]
    fn line_metric() {
        assert_eq!(Line.dist(&3.0, &-2.0), 5.0);
        assert_eq!(Line.doubling_dim(), 1);
    }

    #[test]
    fn dist_many_matches_scalar_exactly() {
        let q = [1.5, -2.25];
        let pts = [[0.0, 0.0], [3.0, 4.0], [1.5, -2.25], [-7.125, 9.5]];
        let mut out = Vec::new();
        L2.dist_many(&q, &pts, &mut out);
        for (p, &d) in pts.iter().zip(&out) {
            assert_eq!(d, L2.dist(&q, p));
        }
        Linf.dist_many(&q, &pts, &mut out);
        for (p, &d) in pts.iter().zip(&out) {
            assert_eq!(d, Linf.dist(&q, p));
        }
    }

    #[test]
    fn within_family_at_exact_ties() {
        // 3-4-5 triangle: the tie is exactly representable, so the squared
        // comparison agrees with the scalar one.
        let q = [0.0, 0.0];
        let pts = [[3.0, 4.0], [3.0, 4.000001], [0.0, 0.0]];
        assert!(L2.within(&q, &pts[0], 5.0));
        assert!(!L2.within(&q, &pts[1], 5.0));
        let mut idx = Vec::new();
        L2.within_indices(&q, &pts, 0.0, &mut idx);
        assert_eq!(idx, vec![2]);
        L2.within_indices(&q, &pts, 5.0, &mut idx);
        assert_eq!(idx, vec![0, 2]);
    }

    #[test]
    fn negative_and_nan_radii_match_nothing() {
        let q = [0.0, 0.0];
        let pts = [[0.0, 0.0], [1.0, 0.0]];
        let mut idx = vec![7];
        L2.within_indices(&q, &pts, -1.0, &mut idx);
        assert!(idx.is_empty());
        L2.within_indices(&q, &pts, f64::NAN, &mut idx);
        assert!(idx.is_empty());
        Linf.within_indices(&q, &pts, -0.5, &mut idx);
        assert!(idx.is_empty());
        GridL2.within_indices(&[0u64, 0], &[[0u64, 0]], -1.0, &mut idx);
        assert!(idx.is_empty());
    }

    #[test]
    fn huge_radius_falls_back_to_scalar() {
        // r² overflows; the squared path would call everything "within".
        // (`far` has an overflowing distance, which the scalar path also
        // reports as +inf > r; `near`'s distance is finite and within.)
        let q = [0.0, 0.0];
        let near = [1e150, 0.0];
        let far = [3e200, 0.0];
        let r = 2e200;
        assert!(L2.within(&q, &near, r));
        assert!(!L2.within(&q, &far, r));
        let mut idx = Vec::new();
        L2.within_indices(&q, &[near, far], r, &mut idx);
        assert_eq!(idx, vec![0]);
        L2.within_indices(&q, &[far, near], r, &mut idx);
        assert_eq!(idx, vec![1]);
    }

    #[test]
    fn nearest_skips_nan_distances() {
        // inf − inf produces a NaN distance at index 0; the kernel must
        // fall through to the comparable one, like fold(INFINITY, min) did.
        let q = [f64::INFINITY, 4.0];
        let centers = [[f64::INFINITY, 0.0], [5.0, 5.0]];
        let (i, d) = L2.nearest(&q, &centers).unwrap();
        assert_eq!(i, 1);
        assert!(d.is_infinite());
        let weighted = vec![
            Weighted::new([f64::INFINITY, 0.0], 1),
            Weighted::new([5.0, 5.0], 1),
        ];
        let (i, _) = L2.nearest_weighted(&q, &weighted).unwrap();
        assert_eq!(i, 1);
    }

    #[test]
    fn nearest_picks_the_closest() {
        let pts = [[10.0, 0.0], [1.0, 1.0], [0.5, 0.5], [9.0, 9.0]];
        let (i, d) = L2.nearest(&[0.0, 0.0], &pts).unwrap();
        assert_eq!(i, 2);
        assert_eq!(d, L2.dist(&[0.0, 0.0], &pts[2]));
        assert_eq!(L2.nearest(&[0.0, 0.0], &[] as &[[f64; 2]]), None);
    }

    #[test]
    fn weighted_kernels() {
        let pts = vec![
            Weighted::new([5.0, 5.0], 2),
            Weighted::new([1.0, 1.0], 3),
            Weighted::new([0.0, 0.0], 1),
        ];
        let (i, d) = L2.nearest_weighted(&[4.0, 4.0], &pts).unwrap();
        assert_eq!(i, 0);
        assert_eq!(d, L2.dist(&[4.0, 4.0], &[5.0, 5.0]));
    }

    #[test]
    fn dist_many_weighted_matches_scalar_exactly() {
        let q = [1.5, -2.25];
        let pts = vec![
            Weighted::new([0.0, 0.0], 1),
            Weighted::new([3.0, 4.0], 7),
            Weighted::new([1.5, -2.25], 2),
        ];
        let mut out = Vec::new();
        L2.dist_many_weighted(&q, &pts, &mut out);
        for (p, &d) in pts.iter().zip(&out) {
            assert_eq!(d, L2.dist(&q, &p.point));
        }
        Linf.dist_many_weighted(&q, &pts, &mut out);
        for (p, &d) in pts.iter().zip(&out) {
            assert_eq!(d, Linf.dist(&q, &p.point));
        }
    }
}
