//! Property tests: the provided metrics satisfy the metric axioms, and
//! the doubling structure behaves as advertised across dimensions.

use kcz_metric::{GridL2, GridLinf, Line, Linf, MetricSpace, L2};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    -1.0e6..1.0e6
}

proptest! {
    #[test]
    fn l2_axioms(ax in finite_coord(), ay in finite_coord(),
                 bx in finite_coord(), by in finite_coord(),
                 cx in finite_coord(), cy in finite_coord()) {
        let (a, b, c) = ([ax, ay], [bx, by], [cx, cy]);
        prop_assert_eq!(L2.dist(&a, &a), 0.0);
        prop_assert!((L2.dist(&a, &b) - L2.dist(&b, &a)).abs() < 1e-9);
        prop_assert!(L2.dist(&a, &c) <= L2.dist(&a, &b) + L2.dist(&b, &c) + 1e-6);
        prop_assert!(L2.dist(&a, &b) >= 0.0);
    }

    #[test]
    fn linf_axioms_and_dominance(ax in finite_coord(), ay in finite_coord(),
                                 bx in finite_coord(), by in finite_coord(),
                                 cx in finite_coord(), cy in finite_coord()) {
        let (a, b, c) = ([ax, ay], [bx, by], [cx, cy]);
        prop_assert_eq!(Linf.dist(&a, &a), 0.0);
        prop_assert!((Linf.dist(&a, &b) - Linf.dist(&b, &a)).abs() < 1e-9);
        prop_assert!(Linf.dist(&a, &c) <= Linf.dist(&a, &b) + Linf.dist(&b, &c) + 1e-6);
        // L∞ ≤ L2 ≤ √d·L∞ in R².
        let l2 = L2.dist(&a, &b);
        let li = Linf.dist(&a, &b);
        prop_assert!(li <= l2 + 1e-9);
        prop_assert!(l2 <= li * 2f64.sqrt() + 1e-9);
    }

    #[test]
    fn grid_metrics_agree_with_continuous(ax in 0u64..1_000_000, ay in 0u64..1_000_000,
                                          bx in 0u64..1_000_000, by in 0u64..1_000_000) {
        let (ga, gb) = ([ax, ay], [bx, by]);
        let (fa, fb) = ([ax as f64, ay as f64], [bx as f64, by as f64]);
        prop_assert!((GridL2.dist(&ga, &gb) - L2.dist(&fa, &fb)).abs() < 1e-6);
        prop_assert!((GridLinf.dist(&ga, &gb) - Linf.dist(&fa, &fb)).abs() < 1e-6);
    }

    #[test]
    fn line_metric_axioms(a in finite_coord(), b in finite_coord(), c in finite_coord()) {
        prop_assert_eq!(Line.dist(&a, &a), 0.0);
        prop_assert!((Line.dist(&a, &b) - Line.dist(&b, &a)).abs() < 1e-12);
        prop_assert!(Line.dist(&a, &c) <= Line.dist(&a, &b) + Line.dist(&b, &c) + 1e-9);
    }

    #[test]
    fn three_d_l2_triangle(coords in prop::collection::vec(finite_coord(), 9)) {
        let a = [coords[0], coords[1], coords[2]];
        let b = [coords[3], coords[4], coords[5]];
        let c = [coords[6], coords[7], coords[8]];
        prop_assert!(L2.dist(&a, &c) <= L2.dist(&a, &b) + L2.dist(&b, &c) + 1e-6);
        prop_assert_eq!(<L2 as MetricSpace<[f64; 3]>>::doubling_dim(&L2), 3);
    }

}
