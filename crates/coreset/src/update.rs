//! `UpdateCoreset` — Algorithm 4 of the paper.
//!
//! Re-clusters an existing weighted set at granularity `δ`: sweep the
//! points, let each unabsorbed point absorb everything within `δ`.  The
//! streaming algorithm (Algorithm 3) calls this every time it doubles its
//! radius estimate; Lemma 16 shows the accumulated representative error
//! stays at most `ε·r` because `r` doubles between calls.

use kcz_metric::{MetricSpace, Weighted};

use crate::mbc::greedy_partition;

/// `UpdateCoreset(Q, δ)`: returns a weighted subset of `Q` in which any two
/// points are more than `δ` apart, with weights aggregated group-wise
/// (weight property of Definition 2 preserved).
pub fn update_coreset<P: Clone, M: MetricSpace<P>>(
    metric: &M,
    q: &[Weighted<P>],
    delta: f64,
) -> Vec<Weighted<P>> {
    update_coreset_with_owners(metric, q, delta, &mut Vec::new())
}

/// [`update_coreset`] that also records, in `owner` (cleared first), for
/// each point of `q` the index of the output representative that absorbed
/// it.  A representative absorbs only points after it, so the first point
/// of `q` in each group is its representative, and the groups' first
/// points come in output order: the output is a function of `q` and the
/// record alone, with each weight the saturating sum of its group's.
pub fn update_coreset_with_owners<P: Clone, M: MetricSpace<P>>(
    metric: &M,
    q: &[Weighted<P>],
    delta: f64,
    owner: &mut Vec<usize>,
) -> Vec<Weighted<P>> {
    assert!(delta >= 0.0, "δ must be non-negative");
    greedy_partition(metric, q, delta, owner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_metric::{total_weight, unit_weighted, L2};

    #[test]
    fn output_points_are_pairwise_far() {
        let raw: Vec<[f64; 2]> = (0..50).map(|i| [i as f64 * 0.3, 0.0]).collect();
        let pts = unit_weighted(&raw);
        let out = update_coreset(&L2, &pts, 1.0);
        for i in 0..out.len() {
            for j in (i + 1)..out.len() {
                assert!(L2.dist(&out[i].point, &out[j].point) > 1.0);
            }
        }
        assert_eq!(total_weight(&out), 50);
    }

    #[test]
    fn every_input_has_close_representative() {
        let raw: Vec<[f64; 2]> = (0..50)
            .map(|i| [(i * 17 % 23) as f64, (i * 13 % 19) as f64])
            .collect();
        let pts = unit_weighted(&raw);
        let delta = 4.0;
        let out = update_coreset(&L2, &pts, delta);
        for p in &raw {
            let d = out
                .iter()
                .map(|q| L2.dist(p, &q.point))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= delta, "point {p:?} has nearest rep at {d}");
        }
    }

    #[test]
    fn zero_delta_merges_only_duplicates() {
        let pts = unit_weighted(&[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]);
        let out = update_coreset(&L2, &pts, 0.0);
        assert_eq!(out.len(), 2);
        assert_eq!(total_weight(&out), 3);
    }

    #[test]
    fn owners_name_each_input_point_s_representative() {
        let pts = vec![
            Weighted::new([0.0, 0.0], 5),
            Weighted::new([9.0, 0.0], 11),
            Weighted::new([0.1, 0.0], 7),
            Weighted::new([9.2, 0.0], u64::MAX),
        ];
        let mut owner = vec![42];
        let out = update_coreset_with_owners(&L2, &pts, 0.5, &mut owner);
        assert_eq!(owner, [0, 1, 0, 1]);
        assert_eq!(out[0].weight, 12);
        assert_eq!(out[1].weight, u64::MAX);
        update_coreset_with_owners(&L2, &pts[..0], 0.5, &mut owner);
        assert!(owner.is_empty());
    }

    #[test]
    fn weights_aggregate() {
        let pts = vec![
            Weighted::new([0.0, 0.0], 5),
            Weighted::new([0.1, 0.0], 7),
            Weighted::new([9.0, 0.0], 11),
        ];
        let out = update_coreset(&L2, &pts, 0.5);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].weight, 12);
        assert_eq!(out[1].weight, 11);
    }
}
