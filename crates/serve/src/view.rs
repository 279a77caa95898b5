//! [`SnapshotView`]: one immutable, epoch-numbered view of a published
//! snapshot, answering point queries against its solved centers.
//!
//! A view is built once from an [`Arc<Snapshot<P>>`] and never mutated:
//! every answer it produces is exact with respect to that frozen epoch,
//! and carries the epoch number plus the certified `3 + 8ε′` bound
//! factor so callers can quote the guarantee the answer was served
//! under.  Every query is one batched [`MetricSpace`] kernel scan over
//! the snapshot's at most `k` centers.

use kcz_engine::{Backend, Snapshot};
use kcz_metric::{MetricSpace, Weighted};
use std::sync::Arc;

/// The answer to an [`assign`](SnapshotView::assign) query: which center
/// serves the point, at what distance, under which epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// Index into the view's center array.
    pub center: usize,
    /// Exact distance to that center (equals the scalar metric distance;
    /// the kernels defer the `sqrt`, they never skip it here).
    pub dist: f64,
    /// The epoch the answer was served from.
    pub epoch: u64,
}

/// The verdict of a [`classify`](SnapshotView::classify) query: covered
/// or outlier at the tested radius, with the epoch's certified bound
/// attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// The epoch the verdict was served from.
    pub epoch: u64,
    /// Nearest center, if the view has any centers.
    pub center: Option<usize>,
    /// Distance to the nearest center (`∞` when the view has none).
    pub dist: f64,
    /// The radius the point was tested against.
    pub radius: f64,
    /// `dist ≤ radius`: the point is served by some center at this
    /// radius.  Always `false` on a center-less view.
    pub covered: bool,
    /// The epoch's certified end-to-end ratio factor, `3 + 8ε′`: the
    /// epoch's solve radius, re-measured on everything ingested, is at
    /// most `bound_factor · opt`.
    pub bound_factor: f64,
    /// The epoch's solver-independent lower bound `r ≤ opt`.
    pub radius_bound: f64,
}

/// An immutable query view over one published engine snapshot.
///
/// Cheap to clone (the snapshot's `Arc` and the metric), never blocks or
/// is blocked by ingest, and answers are mutually consistent by
/// construction — they all read the same frozen center set.
#[derive(Debug, Clone)]
pub struct SnapshotView<P, M: MetricSpace<P>> {
    metric: M,
    snap: Arc<Snapshot<P>>,
}

impl<P: Clone, M: MetricSpace<P> + Clone> SnapshotView<P, M> {
    /// Builds a view over a published snapshot.
    pub fn new(metric: M, snap: Arc<Snapshot<P>>) -> Self {
        SnapshotView { metric, snap }
    }

    /// The epoch this view serves.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// The underlying published snapshot.
    pub fn snapshot(&self) -> &Arc<Snapshot<P>> {
        &self.snap
    }

    /// The solved centers (the view's whole query surface).
    pub fn centers(&self) -> &[P] {
        &self.snap.centers
    }

    /// The epoch's merged coreset (for re-solves and diagnostics).
    pub fn coreset(&self) -> &[Weighted<P>] {
        &self.snap.coreset
    }

    /// The epoch's greedy solve radius on the merged coreset.
    pub fn radius(&self) -> f64 {
        self.snap.radius
    }

    /// The epoch's lower bound `r ≤ opt`.
    pub fn radius_bound(&self) -> f64 {
        self.snap.radius_bound
    }

    /// The feasible guess `r̂` the epoch's solve settled on
    /// (`radius ≤ 3·r̂`).
    pub fn guess(&self) -> f64 {
        self.snap.guess
    }

    /// Feasibility probes (`disk_greedy` runs) the epoch's solve spent.
    pub fn solve_probes(&self) -> usize {
        self.snap.stats.solve_probes
    }

    /// The ε′ the epoch's summary certifies.
    pub fn effective_eps(&self) -> f64 {
        self.snap.effective_eps
    }

    /// The global arrival clock at publish: how many points had entered
    /// ingest when this epoch was cut (each arrival occupies one stamp;
    /// a weighted point occupies one stamp carrying its mass).
    pub fn clock(&self) -> u64 {
        self.snap.clock
    }

    /// The backend mode the epoch was produced under.
    pub fn backend(&self) -> Backend {
        self.snap.backend
    }

    /// The time-windowed query contract: the span `(oldest, newest)` of
    /// live arrival stamps this epoch summarizes.  `Some` only for the
    /// window backend after the first arrival — every answer the view
    /// serves then clusters exactly the last `W` arrivals; `None` means
    /// the epoch summarizes the whole stream (insertion).
    pub fn window_span(&self) -> Option<(u64, u64)> {
        self.snap.window_span()
    }

    /// The epoch's certified end-to-end ratio factor, `3 + 8ε′`.
    pub fn bound_factor(&self) -> f64 {
        self.snap.bound_factor
    }

    /// Which center serves `p`: the nearest center by the batched
    /// `nearest` kernel (exact distances, smallest index on ties).
    /// `None` when the view has no centers (nothing ingested yet, or the
    /// whole weight fit the outlier budget).
    pub fn assign(&self, p: &P) -> Option<Assignment> {
        self.metric
            .nearest(p, &self.snap.centers)
            .map(|(center, dist)| Assignment {
                center,
                dist,
                epoch: self.snap.epoch,
            })
    }

    /// Covered/outlier verdict for `p` at radius `r`, with the epoch's
    /// certified bound attached.  The verdict compares the *exact*
    /// nearest-center distance against `r` (scalar semantics, so callers
    /// re-checking with `dist` reproduce it bit-for-bit).
    pub fn classify(&self, p: &P, r: f64) -> Classification {
        let (center, dist) = match self.metric.nearest(p, &self.snap.centers) {
            Some((c, d)) => (Some(c), d),
            None => (None, f64::INFINITY),
        };
        Classification {
            epoch: self.snap.epoch,
            center,
            dist,
            radius: r,
            covered: center.is_some() && dist <= r,
            bound_factor: self.snap.bound_factor,
            radius_bound: self.snap.radius_bound,
        }
    }

    /// The `j` nearest centers, ascending by distance (ties by index).
    /// Fewer than `j` come back when the view has fewer centers.
    pub fn nearest_centers(&self, p: &P, j: usize) -> Vec<Assignment> {
        let mut dists = Vec::new();
        self.metric.dist_many(p, &self.snap.centers, &mut dists);
        let mut order: Vec<usize> = (0..dists.len()).collect();
        order.sort_by(|&a, &b| dists[a].total_cmp(&dists[b]).then(a.cmp(&b)));
        order
            .into_iter()
            .take(j)
            .map(|center| Assignment {
                center,
                dist: dists[center],
                epoch: self.snap.epoch,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_engine::{Engine, EngineConfig};
    use kcz_metric::L2;

    fn view_over(pts: &[[f64; 2]]) -> SnapshotView<[f64; 2], L2> {
        let engine = Engine::new(L2, EngineConfig::new(2, 2, 1, 0.5));
        engine.ingest(pts);
        SnapshotView::new(L2, engine.publish())
    }

    fn two_clusters() -> Vec<[f64; 2]> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push([i as f64 * 0.1, 0.0]);
            pts.push([100.0 + i as f64 * 0.1, 50.0]);
        }
        pts.push([5000.0, 5000.0]); // the one outlier
        pts
    }

    #[test]
    fn assign_matches_scalar_nearest() {
        let view = view_over(&two_clusters());
        assert_eq!(view.centers().len(), 2);
        for q in [[0.3, 0.2], [99.0, 49.0], [5000.0, 5000.0], [50.0, 25.0]] {
            let a = view.assign(&q).expect("centers exist");
            let brute = view
                .centers()
                .iter()
                .map(|c| L2.dist(&q, c))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(a.dist, brute, "query {q:?}");
            assert_eq!(a.dist, L2.dist(&q, &view.centers()[a.center]));
            assert_eq!(a.epoch, view.epoch());
        }
    }

    #[test]
    fn classify_is_scalar_exact_and_carries_the_bound() {
        let view = view_over(&two_clusters());
        let q = [0.35, 0.0];
        let a = view.assign(&q).unwrap();
        let covered = view.classify(&q, a.dist);
        assert!(covered.covered, "its own distance must cover it");
        assert_eq!(covered.dist, a.dist);
        assert_eq!(covered.bound_factor, view.bound_factor());
        assert!(covered.bound_factor >= 3.0);
        let strict = view.classify(&q, a.dist * 0.5);
        assert!(!strict.covered);
        assert_eq!(strict.center, Some(a.center));
        // The far outlier is an outlier at any in-cluster radius.
        assert!(!view.classify(&[5000.0, 5000.0], 10.0).covered);
    }

    #[test]
    fn nearest_centers_is_sorted_and_prefix_consistent() {
        let view = view_over(&two_clusters());
        let q = [10.0, 5.0];
        let near = view.nearest_centers(&q, 5);
        assert_eq!(near.len(), view.centers().len().min(5));
        for w in near.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        assert_eq!(near[0].center, view.assign(&q).unwrap().center);
        assert!(view.nearest_centers(&q, 0).is_empty());
    }

    #[test]
    fn solver_accounting_is_visible() {
        let engine = Engine::new(L2, EngineConfig::new(2, 2, 1, 0.5));
        let pts = two_clusters();
        engine.ingest(&pts);
        engine.publish();
        engine.ingest(&[pts[0]]);
        let view = SnapshotView::new(L2, engine.publish());
        assert!(
            view.solve_probes() > 0,
            "a republish must account its radius probes"
        );
        assert!(view.radius() <= 3.0 * view.guess() + 1e-9);
    }

    #[test]
    fn empty_view_answers_none_everywhere() {
        let engine = Engine::<[f64; 2], _>::new(L2, EngineConfig::new(2, 2, 3, 0.5));
        let view = SnapshotView::new(L2, engine.publish());
        assert!(view.centers().is_empty());
        assert_eq!(view.assign(&[1.0, 2.0]), None);
        let c = view.classify(&[1.0, 2.0], f64::INFINITY);
        assert!(!c.covered, "a center-less view covers nothing");
        assert_eq!(c.center, None);
        assert!(c.dist.is_infinite());
        assert!(view.nearest_centers(&[0.0, 0.0], 3).is_empty());
    }
}
