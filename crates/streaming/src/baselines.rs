//! Streaming baselines the paper compares against (Table 1).
//!
//! Both reuse the radius-doubling engine of [`crate::insertion`]; they
//! differ from Algorithm 3 exactly where the literature differs:
//!
//! * [`ceccarello_stream`] — Ceccarello, Pietracaprina, Pucci (VLDB 2019)
//!   maintain every mini-ball at granularity `ε`, including the outlier
//!   region, so their structure grows to `Θ((k+z)/ε^d)` representatives
//!   before re-clustering, versus the paper's `k(16/ε)^d + z`.  On
//!   outlier-heavy streams this is the `z/ε^d`-vs-`z` separation in
//!   Table 1's storage column.
//! * [`mk_doubling`] — a McCutchen–Khuller-style (APPROX 2008) doubling
//!   algorithm: constant absorb radius `2r` and capacity `k+z+2`.  It
//!   stores only `O(k+z)` representatives but its drift is `4r`, so
//!   solving on its summary yields an `O(1)`-approximation instead of
//!   `1+ε` — the quality/space trade-off the quality experiment (F8)
//!   measures.  (The original stores `O(kz/ε)` points; the weighted
//!   summary here is the natural coreset-style rendition.)

use kcz_coreset::bounds::packing_bound;
use kcz_metric::{MetricSpace, SpaceUsage};

use crate::insertion::DoublingCoreset;

/// Ceccarello-et-al.-style streaming coreset: absorb factor `ε/2`,
/// capacity `(k+z)·(16/ε)^d` — the outlier term pays the `1/ε^d` factor.
pub fn ceccarello_stream<P: Clone + SpaceUsage, M: MetricSpace<P>>(
    metric: M,
    k: usize,
    z: u64,
    eps: f64,
) -> DoublingCoreset<P, M> {
    assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0, 1]");
    let d = metric.doubling_dim();
    // (k + z) mini-ball groups, each refined at ε-granularity.
    let least = (k as u64).saturating_add(z).saturating_add(2);
    let capacity = packing_bound(k.saturating_add(z as usize), 0, 16.0 / eps, d).max(least);
    DoublingCoreset::new(metric, k, z, eps / 2.0, capacity)
}

/// McCutchen–Khuller-style doubling summary: absorb factor 2, capacity
/// `k+z+2`, hence `O(k+z)` space and `O(1)` approximation.
pub fn mk_doubling<P: Clone + SpaceUsage, M: MetricSpace<P>>(
    metric: M,
    k: usize,
    z: u64,
) -> DoublingCoreset<P, M> {
    DoublingCoreset::new(
        metric,
        k,
        z,
        2.0,
        (k as u64).saturating_add(z).saturating_add(2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_metric::{total_weight, Weighted, L2};

    fn stream(n: usize) -> Vec<[f64; 2]> {
        let mut out = Vec::with_capacity(n);
        let mut s = 0xDEADBEEFu64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            if i % 10 == 9 {
                // many scattered outliers
                out.push([next() * 1e5, next() * 1e5]);
            } else {
                out.push([next(), next()]);
            }
        }
        out
    }

    #[test]
    fn mk_uses_less_space_than_coreset_algorithms() {
        let pts = stream(1000);
        let (k, z) = (2usize, 40u64);
        let mut ours = crate::insertion::InsertionOnlyCoreset::new(L2, k, z, 0.5);
        let mut mk = mk_doubling(L2, k, z);
        for p in &pts {
            ours.insert(*p);
            mk.insert(*p);
        }
        assert!(mk.coreset().len() as u64 <= k as u64 + z + 2);
        assert!(mk.peak_words() <= ours.peak_words());
        assert_eq!(total_weight(mk.coreset()), 1000);
    }

    #[test]
    fn mk_drift_is_constant_factor() {
        let pts = stream(500);
        let mut mk = mk_doubling(L2, 2, 20);
        for p in &pts {
            mk.insert(*p);
        }
        let bound = mk.drift_bound();
        assert!(bound >= 4.0 * mk.radius_bound() - 1e-9);
        for q in &pts {
            let d = mk
                .coreset()
                .iter()
                .map(|r| L2.dist(q, &r.point))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= bound + 1e-9, "point {q:?} at {d} > {bound}");
        }
    }

    #[test]
    fn ceccarello_capacity_dominates_ours() {
        // The baseline's re-cluster threshold carries the z/ε^d factor.
        let d = 2;
        let (k, z, eps) = (3usize, 50u64, 0.5f64);
        let ours = kcz_coreset::streaming_capacity(k, z, eps, d);
        let theirs = packing_bound(k + z as usize, 0, 16.0 / eps, d);
        assert!(theirs > 10 * ours, "theirs {theirs} vs ours {ours}");
    }

    #[test]
    fn ceccarello_still_valid_covering() {
        let pts = stream(300);
        let mut alg = ceccarello_stream(L2, 2, 10, 0.5);
        for p in &pts {
            alg.insert(*p);
        }
        let bound = alg.drift_bound() + 1e-12;
        for q in &pts {
            let d = alg
                .coreset()
                .iter()
                .map(|r: &Weighted<[f64; 2]>| L2.dist(q, &r.point))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= bound);
        }
    }
}
