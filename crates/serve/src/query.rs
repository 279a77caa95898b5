//! [`QueryEngine`]: the serving front over a shared [`Engine`].
//!
//! A thin read side over the engine's newest published epoch.
//! [`view`](QueryEngine::view) wraps [`Engine::latest`]: one brief read
//! lock and an `Arc` clone, so readers are never blocked by ingest
//! (which takes no publish lock) and block each other not at all.
//! [`refresh`](QueryEngine::refresh) asks the engine to publish, which
//! returns the cached epoch without a merge or a solve when the data
//! version has not moved.  Each query acquires the current view; a
//! caller that wants many answers under one epoch holds a view and
//! queries it.

use kcz_engine::Engine;
use kcz_metric::{MetricSpace, SpaceUsage};
use kcz_obs::{Counter, MetricsHandle};
use kcz_workloads::ShardKey;
use std::sync::Arc;

use crate::view::{Assignment, Classification, SnapshotView};

/// Instrument set of one query front.  Recording is atomics only, so the
/// steady-state query path stays allocation-free (pinned by the
/// counting-allocator test `tests/query_alloc.rs`).
struct QueryInstruments {
    scalar_queries: Counter,
    refreshes: Counter,
}

impl QueryInstruments {
    fn new(metrics: &MetricsHandle) -> Self {
        QueryInstruments {
            scalar_queries: metrics.counter("query.scalar.queries"),
            refreshes: metrics.counter("query.refreshes"),
        }
    }
}

/// The read-side front of one engine: serves queries from its newest
/// published epoch.
pub struct QueryEngine<P, M: MetricSpace<P>> {
    engine: Arc<Engine<P, M>>,
    obs: QueryInstruments,
}

impl<P, M> QueryEngine<P, M>
where
    P: Clone + PartialEq + SpaceUsage + ShardKey + Send + Sync,
    M: MetricSpace<P> + Clone,
{
    /// Wraps an engine and publishes its current epoch, so there is
    /// always a view to serve (an empty engine yields a center-less
    /// epoch-1 view; every query then answers `None`/outlier until data
    /// arrives and an epoch is published).
    pub fn new(engine: Arc<Engine<P, M>>) -> Self {
        Self::with_metrics(engine, &MetricsHandle::disabled())
    }

    /// Like [`new`](Self::new), with the served-query and refresh
    /// counters recorded through `metrics`.
    pub fn with_metrics(engine: Arc<Engine<P, M>>, metrics: &MetricsHandle) -> Self {
        engine.publish();
        QueryEngine {
            engine,
            obs: QueryInstruments::new(metrics),
        }
    }

    /// The engine being served.
    pub fn engine(&self) -> &Arc<Engine<P, M>> {
        &self.engine
    }

    /// The current view: the engine's newest published epoch, whoever
    /// published it.  One brief read lock, one `Arc` clone and a clone
    /// of the metric (free for the built-in metrics).  Hold the returned
    /// view to answer any number of mutually consistent queries under
    /// its frozen epoch.
    pub fn view(&self) -> SnapshotView<P, M> {
        let snap = self
            .engine
            .latest()
            .expect("the query engine published at construction");
        SnapshotView::new(self.engine.metric().clone(), snap)
    }

    /// Asks the engine to publish and returns the view of the result.
    /// An unchanged data version returns the cached epoch without a
    /// merge or a solve; `query.refreshes` counts only the refreshes
    /// whose epoch moved.
    pub fn refresh(&self) -> SnapshotView<P, M> {
        let before = self.engine.epoch();
        let snap = self.engine.publish();
        if snap.epoch != before {
            self.obs.refreshes.incr();
        }
        SnapshotView::new(self.engine.metric().clone(), snap)
    }

    /// [`SnapshotView::assign`] against the current view.
    pub fn assign(&self, p: &P) -> Option<Assignment> {
        self.obs.scalar_queries.incr();
        self.view().assign(p)
    }

    /// [`SnapshotView::classify`] against the current view.
    pub fn classify(&self, p: &P, r: f64) -> Classification {
        self.obs.scalar_queries.incr();
        self.view().classify(p, r)
    }

    /// [`SnapshotView::nearest_centers`] against the current view.
    pub fn nearest_centers(&self, p: &P, j: usize) -> Vec<Assignment> {
        self.obs.scalar_queries.incr();
        self.view().nearest_centers(p, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_engine::EngineConfig;
    use kcz_metric::L2;

    fn stream(n: usize) -> Vec<[f64; 2]> {
        let mut out = Vec::with_capacity(n);
        let mut s = 0xFEED_F00Du64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            if i % 30 == 29 {
                out.push([4000.0 + next() * 500.0, -2500.0]);
            } else if i % 2 == 0 {
                out.push([next() * 4.0, next() * 4.0]);
            } else {
                out.push([70.0 + next() * 4.0, 70.0 + next() * 4.0]);
            }
        }
        out
    }

    #[test]
    fn refresh_tracks_ingest_and_reuses_unchanged_epochs() {
        let engine = Arc::new(Engine::new(L2, EngineConfig::new(4, 2, 8, 0.5)));
        let query = QueryEngine::new(Arc::clone(&engine));
        let empty = query.view();
        assert!(empty.centers().is_empty());
        engine.ingest(&stream(120));
        // Ingest alone publishes nothing: readers keep the last epoch.
        assert!(Arc::ptr_eq(query.view().snapshot(), empty.snapshot()));
        let fresh = query.refresh();
        assert_eq!(fresh.epoch(), empty.epoch() + 1);
        assert!(!fresh.centers().is_empty());
        // No new data: refresh is the memoized no-op, same snapshot back.
        let again = query.refresh();
        assert!(Arc::ptr_eq(fresh.snapshot(), again.snapshot()));
        assert_eq!(engine.solves(), 2, "empty + one data epoch");
    }

    #[test]
    fn instrumented_queries_record_counts() {
        use kcz_obs::{MetricsHandle, Registry};
        let engine = Arc::new(Engine::new(L2, EngineConfig::new(4, 2, 8, 0.5)));
        let registry = Registry::new();
        let query = QueryEngine::with_metrics(Arc::clone(&engine), &MetricsHandle::new(&registry));
        engine.ingest(&stream(200));
        query.refresh();
        query.refresh();
        let probes = stream(3);
        query.assign(&probes[0]);
        query.classify(&probes[1], 5.0);
        query.nearest_centers(&probes[2], 2);
        assert_eq!(registry.counter_value("query.scalar.queries"), Some(3));
        assert_eq!(registry.counter_value("query.refreshes"), Some(1));
    }

    #[test]
    fn a_held_view_stays_consistent_across_refreshes() {
        let engine = Arc::new(Engine::new(L2, EngineConfig::new(2, 2, 4, 0.5)));
        engine.ingest(&stream(100));
        let query = QueryEngine::new(Arc::clone(&engine));
        let held = query.refresh();
        let before: Vec<_> = stream(50).iter().map(|p| held.assign(p)).collect();
        engine.ingest(&stream(400));
        query.refresh();
        // The held view still answers from its frozen epoch.
        let after: Vec<_> = stream(50).iter().map(|p| held.assign(p)).collect();
        assert_eq!(before, after);
        // The current view moved on.
        assert!(query.view().epoch() > held.epoch());
    }
}
