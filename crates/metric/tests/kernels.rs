//! Property tests for the batched distance kernels: on all four metrics
//! the batched paths must agree with the scalar `dist`, including the
//! deferred-`sqrt` paths at `r = 0` and at exactly representable ties,
//! and the 8-point blocks of the Euclidean `nearest` on every block/tail
//! split, at squared ties, at overflowing radii and on NaN coordinates.

use kcz_metric::{GridL2, GridLinf, Linf, MetricSpace, Weighted, L2};
use proptest::prelude::*;

/// The scalar reference for `nearest`: the first index with the smallest
/// distance, where a NaN distance never beats a comparable one.
fn scalar_nearest(scalar: &[f64]) -> Option<(usize, u64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &d) in scalar.iter().enumerate() {
        if best.is_none_or(|(_, b)| d < b || (b.is_nan() && !d.is_nan())) {
            best = Some((i, d));
        }
    }
    best.map(|(i, d)| (i, d.to_bits()))
}

/// Checks every batched kernel of `metric` against the scalar `dist` on
/// one (query, point-set, radius) instance.
fn check_kernels<P: Clone + std::fmt::Debug, M: MetricSpace<P>>(
    metric: &M,
    q: &P,
    pts: &[P],
    r: f64,
) -> Result<(), TestCaseError> {
    let scalar: Vec<f64> = pts.iter().map(|p| metric.dist(q, p)).collect();
    let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();

    // dist_many returns exactly the scalar distances (sqrt deferred, not
    // skipped).
    let mut batched = Vec::new();
    metric.dist_many(q, pts, &mut batched);
    prop_assert_eq!(bits(&batched), bits(&scalar));

    // nearest: the scalar minimum, exactly, at the smallest index.
    let expect_nearest = scalar_nearest(&scalar);
    prop_assert_eq!(
        metric.nearest(q, pts).map(|(i, d)| (i, d.to_bits())),
        expect_nearest
    );

    // within-family kernels agree with the scalar predicate.  (Random
    // coordinates never land within one ulp of the radius; the exact-tie
    // cases are covered by the deterministic tests below.)
    let expect: Vec<bool> = scalar.iter().map(|&d| d <= r).collect();
    for (i, p) in pts.iter().enumerate() {
        prop_assert_eq!(metric.within(q, p, r), expect[i], "point {}", i);
    }
    let mut idx = Vec::new();
    metric.within_indices(q, pts, r, &mut idx);
    let expect_idx: Vec<usize> = (0..pts.len()).filter(|&i| expect[i]).collect();
    prop_assert_eq!(&idx, &expect_idx);

    // Weighted variants.
    let weighted: Vec<Weighted<P>> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| Weighted::new(p.clone(), 1 + (i as u64 % 5)))
        .collect();
    prop_assert_eq!(
        metric
            .nearest_weighted(q, &weighted)
            .map(|(i, d)| (i, d.to_bits())),
        expect_nearest
    );
    metric.dist_many_weighted(q, &weighted, &mut batched);
    prop_assert_eq!(bits(&batched), bits(&scalar));
    Ok(())
}

/// Number of points of `pts` within `r` of `q`, via `within_indices`.
fn n_within<P, M: MetricSpace<P>>(metric: &M, q: &P, pts: &[P], r: f64) -> usize {
    let mut idx = Vec::new();
    metric.within_indices(q, pts, r, &mut idx);
    idx.len()
}

/// `n·D` coordinates chunked into `[f64; D]` points: lengths land on
/// every residue mod the block width, exercising the tails.
fn euclid_pts<const D: usize>(max_n: usize) -> impl Strategy<Value = Vec<[f64; D]>> {
    prop::collection::vec(-100.0f64..100.0, 0..max_n * D).prop_map(|v| {
        v.chunks_exact(D)
            .map(|c| {
                let mut p = [0.0; D];
                p.copy_from_slice(c);
                p
            })
            .collect()
    })
}

/// One query point: exactly `D` coordinates in every case.
fn euclid_pt<const D: usize>() -> impl Strategy<Value = [f64; D]> {
    prop::collection::vec(-100.0f64..100.0, D).prop_map(|v| v.try_into().unwrap())
}

fn grid_pt<const D: usize>() -> impl Strategy<Value = [u64; D]> {
    prop::collection::vec(0u64..1000, D).prop_map(|v| v.try_into().unwrap())
}

fn grid_pts<const D: usize>(max_n: usize) -> impl Strategy<Value = Vec<[u64; D]>> {
    prop::collection::vec(0u64..1000, 0..max_n * D).prop_map(|v| {
        v.chunks_exact(D)
            .map(|c| {
                let mut p = [0u64; D];
                p.copy_from_slice(c);
                p
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        rng_seed: 0xBA7C_4ED1,
        ..ProptestConfig::default()
    })]

    #[test]
    fn linf_kernels_agree(pts in euclid_pts::<2>(40), qx in -100.0f64..100.0,
                          qy in -100.0f64..100.0, r in 0.0f64..150.0) {
        check_kernels(&Linf, &[qx, qy], &pts, r)?;
    }

    #[test]
    fn grid_linf_kernels_agree(pts in grid_pts::<2>(40), qx in 0u64..1000,
                               qy in 0u64..1000, r in 0.0f64..800.0) {
        check_kernels(&GridLinf, &[qx, qy], &pts, r)?;
    }

    #[test]
    fn zero_radius_with_duplicates(pts in euclid_pts::<2>(20), dup in 0usize..20) {
        // r = 0 must match exactly the duplicates of q, on every metric.
        if pts.is_empty() { return Ok(()); }
        let q = pts[dup % pts.len()];
        let n_dup = pts.iter().filter(|p| **p == q).count();
        prop_assert_eq!(n_within(&L2, &q, &pts, 0.0), n_dup);
        prop_assert_eq!(n_within(&Linf, &q, &pts, 0.0), n_dup);
        check_kernels(&L2, &q, &pts, 0.0)?;
        check_kernels(&Linf, &q, &pts, 0.0)?;
    }
}

/// The Euclidean metrics, whose `nearest` runs in 8-point blocks, at
/// d ∈ {2, 3, 4, 8}.
macro_rules! euclid_kernels_agree_at_dim {
    ($l2:ident, $gl2:ident, $d:literal) => {
        proptest! {
            #![proptest_config(ProptestConfig {
                cases: 24,
                rng_seed: 0xB10C_0000 + $d,
                ..ProptestConfig::default()
            })]

            #[test]
            fn $l2(pts in euclid_pts::<$d>(40), q in euclid_pt::<$d>(),
                   r in 0.0f64..250.0) {
                check_kernels(&L2, &q, &pts, r)?;
            }

            #[test]
            fn $gl2(pts in grid_pts::<$d>(40), q in grid_pt::<$d>(),
                    r in 0.0f64..1500.0) {
                check_kernels(&GridL2, &q, &pts, r)?;
            }
        }
    };
}

euclid_kernels_agree_at_dim!(l2_kernels_agree_d2, grid_l2_kernels_agree_d2, 2);
euclid_kernels_agree_at_dim!(l2_kernels_agree_d3, grid_l2_kernels_agree_d3, 3);
euclid_kernels_agree_at_dim!(l2_kernels_agree_d4, grid_l2_kernels_agree_d4, 4);
euclid_kernels_agree_at_dim!(l2_kernels_agree_d8, grid_l2_kernels_agree_d8, 8);

/// Every length from 0 to 3·8 + 1, with the only hit (and the only
/// nearest point) at each position in turn: in a block, at a block's
/// edges and in the tail.  `far(i)` must move away from `q` as `i` grows
/// and stay beyond `r`; `near` must lie within `r`.
fn check_single_hit_at_every_position<P: Copy + std::fmt::Debug, M: MetricSpace<P>>(
    metric: &M,
    q: &P,
    far: impl Fn(usize) -> P,
    near: P,
    r: f64,
) {
    for n in 0..=25usize {
        let mut pts: Vec<P> = (0..n).map(&far).collect();
        check_kernels(metric, q, &pts, r).unwrap();
        for hit in 0..n {
            pts[hit] = near;
            check_kernels(metric, q, &pts, r).unwrap();
            let mut idx = Vec::new();
            metric.within_indices(q, &pts, r, &mut idx);
            assert_eq!(idx, vec![hit], "n = {n}");
            assert_eq!(
                metric.nearest(q, &pts).map(|(i, _)| i),
                Some(hit),
                "n = {n}"
            );
            pts[hit] = far(hit);
        }
    }
}

#[test]
fn a_single_hit_is_found_at_every_position_of_every_length() {
    check_single_hit_at_every_position(
        &L2,
        &[0.5, -0.25, 2.0],
        |i| [100.0 + i as f64, -50.0, 3.0 * i as f64],
        [0.75, 0.0, 2.0],
        1.0,
    );
    check_single_hit_at_every_position(&GridL2, &[5u64, 5], |i| [100 + i as u64, 3], [6, 4], 2.0);
}

#[test]
fn squared_ties_pick_the_smallest_index() {
    // [4,3] and [3,4] are equidistant from the origin with *exactly*
    // representable squared distances: the tie must resolve to the
    // smallest index within one block, across two blocks, and between a
    // block and the tail.
    let q = [0.0, 0.0];
    for (a, b) in [(2, 5), (11, 17), (20, 24)] {
        let mut pts = vec![[9.0, 9.0]; 25];
        pts[a] = [4.0, 3.0];
        pts[b] = [3.0, 4.0];
        for r in [5.0, 4.999999999999999, 0.0, -1.0, f64::NAN] {
            check_kernels(&L2, &q, &pts, r).unwrap();
        }
        assert_eq!(L2.nearest(&q, &pts), Some((a, 5.0)));
        let mut idx = Vec::new();
        L2.within_indices(&q, &pts, 5.0, &mut idx);
        assert_eq!(idx, vec![a, b]);
    }
    let gq = [0u64, 0];
    let mut gpts = vec![[9u64, 9]; 9];
    gpts[3] = [4, 3];
    gpts[8] = [3, 4];
    check_kernels(&GridL2, &gq, &gpts, 5.0).unwrap();
    assert_eq!(GridL2.nearest(&gq, &gpts), Some((3, 5.0)));
}

#[test]
fn overflowing_radius_falls_back_to_scalar() {
    // r² overflows: a squared compare would accept every point.  Ten
    // points put the only finite-distance one past the first block.
    let q = [0.0, 0.0];
    let mut pts = vec![[3e200, 0.0]; 10];
    pts[9] = [1e150, 0.0];
    let r = 2e200;
    check_kernels(&L2, &q, &pts, r).unwrap();
    let mut idx = Vec::new();
    L2.within_indices(&q, &pts, r, &mut idx);
    assert_eq!(idx, vec![9]);
}

#[test]
fn nan_coordinates_are_skipped_like_scalar() {
    // inf − inf yields a NaN distance: `nearest` must fall through to the
    // comparable entry, radius tests must not match it — in a block and
    // in the tail.
    let q = [f64::INFINITY, 4.0];
    for n in [2usize, 9, 17] {
        let mut pts = vec![[f64::INFINITY, 0.0]; n];
        pts[n - 1] = [5.0, 5.0];
        check_kernels(&L2, &q, &pts, 100.0).unwrap();
        check_kernels(&Linf, &q, &pts, 100.0).unwrap();
        assert_eq!(L2.nearest(&q, &pts).unwrap().0, n - 1);
        assert_eq!(n_within(&L2, &q, &pts, 1e300), 0);
    }
}

/// Exactly representable ties: a 3-4-5 configuration where `dist² ≤ r²`
/// and `dist ≤ r` are both exact, on all four metrics.
#[test]
fn deferred_sqrt_exact_ties() {
    let q = [0.0f64, 0.0];
    let pts = [[3.0, 4.0], [4.0, 3.0], [5.0, 0.0], [3.0, 4.0000001]];
    let mut idx = Vec::new();
    L2.within_indices(&q, &pts, 5.0, &mut idx);
    assert_eq!(idx, vec![0, 1, 2]);
    assert_eq!(n_within(&Linf, &q, &pts, 4.0), 2);

    let gq = [0u64, 0];
    let gpts = [[3u64, 4], [5, 0], [4, 4]];
    assert_eq!(n_within(&GridL2, &gq, &gpts, 5.0), 2);
    assert_eq!(n_within(&GridLinf, &gq, &gpts, 4.0), 2);
    // r = 0 with exact duplicates.
    assert_eq!(n_within(&GridL2, &gq, &[[0u64, 0], [1, 0]], 0.0), 1);
    assert_eq!(n_within(&L2, &q, &[[0.0, 0.0], [0.0, 1.0]], 0.0), 1);
}
