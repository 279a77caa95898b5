//! [`QueryEngine`]: the serving front over a shared [`Engine`].
//!
//! Holds the engine plus the newest published [`SnapshotView`] behind a
//! read-write lock.  Readers acquire the current view with one brief
//! read-lock and an `Arc` clone — they are never blocked by ingest
//! (which takes neither lock) and block each other not at all; only the
//! instant of a [`refresh`](QueryEngine::refresh) swap takes the write
//! lock.  Batched query variants acquire the view **once** and fan the
//! per-chunk kernel scans over the shared [`kcz_engine::runtime::Pool`],
//! which is both the throughput path (one view acquisition amortized
//! over the whole batch, worker-parallel chunks) and the consistency
//! path (a batch is answered entirely under one epoch).

use kcz_engine::runtime::{global, Pool};
use kcz_engine::Engine;
use kcz_metric::{MetricSpace, SpaceUsage};
use kcz_obs::{Counter, MetricsHandle, Stage};
use kcz_workloads::ShardKey;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::view::{Assignment, Classification, SnapshotView};

/// Acquire a read guard, shrugging off poison: the view lock only ever
/// stores a whole `Arc`, and the swap that installs one is infallible,
/// so a panic under the lock (a view construction that blew up inside
/// [`QueryEngine::refresh`]) cannot leave torn state behind.  The last
/// successfully installed view is still good; serve it.
fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-side twin of [`read_recover`], for refreshers that follow a
/// panicked refresher.
fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Queries per pool task in the batched paths: large enough that the
/// per-task overhead vanishes, small enough to spread across workers.
const QUERY_CHUNK: usize = 1024;

/// Instrument set of one query front.  Batched paths split into
/// view-acquisition vs kernel time; recording is atomics only, so the
/// steady-state query path stays allocation-free (pinned by the
/// counting-allocator test `tests/query_alloc.rs`).
struct QueryInstruments {
    view_acquire: Stage,
    kernel: Stage,
    batches: Counter,
    batch_queries: Counter,
    scalar_queries: Counter,
    refreshes: Counter,
}

impl QueryInstruments {
    fn new(metrics: &MetricsHandle) -> Self {
        QueryInstruments {
            view_acquire: metrics.stage("query.batch.view_ns"),
            kernel: metrics.stage("query.batch.kernel_ns"),
            batches: metrics.counter("query.batches"),
            batch_queries: metrics.counter("query.batch.queries"),
            scalar_queries: metrics.counter("query.scalar.queries"),
            refreshes: metrics.counter("query.refreshes"),
        }
    }
}

/// The read-side front of one engine: publishes views, serves queries.
pub struct QueryEngine<P, M: MetricSpace<P>> {
    engine: Arc<Engine<P, M>>,
    pool: &'static Pool,
    view: RwLock<Arc<SnapshotView<P, M>>>,
    obs: QueryInstruments,
}

impl<P, M> QueryEngine<P, M>
where
    P: Clone + PartialEq + SpaceUsage + ShardKey + Send + Sync,
    M: MetricSpace<P> + Clone,
{
    /// Wraps an engine and publishes its current epoch as the initial
    /// view (an empty engine yields a center-less epoch-1 view; every
    /// query then answers `None`/outlier until data arrives and
    /// [`refresh`](Self::refresh) republishes).
    pub fn new(engine: Arc<Engine<P, M>>) -> Self {
        Self::with_metrics(engine, &MetricsHandle::disabled())
    }

    /// Like [`new`](Self::new), with batched queries timed
    /// (view-acquisition vs kernel spans) and served-query counters
    /// recorded through `metrics`.
    pub fn with_metrics(engine: Arc<Engine<P, M>>, metrics: &MetricsHandle) -> Self {
        let view = Arc::new(SnapshotView::new(engine.metric().clone(), engine.publish()));
        QueryEngine {
            engine,
            pool: global(),
            view: RwLock::new(view),
            obs: QueryInstruments::new(metrics),
        }
    }

    /// The engine being served.
    pub fn engine(&self) -> &Arc<Engine<P, M>> {
        &self.engine
    }

    /// The current view: one brief read-lock, one `Arc` clone.  Hold the
    /// returned view to answer any number of mutually consistent queries
    /// under its frozen epoch.
    ///
    /// A writer that panicked mid-refresh poisons the lock but cannot
    /// tear the stored `Arc` (the swap itself is infallible), so the
    /// poison flag is noise: readers recover the guard and keep serving
    /// the last installed view rather than propagating the panic to
    /// every subsequent request.
    pub fn view(&self) -> Arc<SnapshotView<P, M>> {
        Arc::clone(&read_recover(&self.view))
    }

    /// Republishes if the engine's data version advanced: asks the
    /// engine to publish (the memoized fast path returns the cached
    /// epoch without re-merging when nothing changed), and only when the
    /// epoch actually moved builds a fresh view and swaps it in.
    /// Returns the view that is current afterwards.
    ///
    /// View construction happens inside the write critical section after
    /// an epoch double-check, so concurrent refreshers build the view at
    /// most once per epoch; like [`view`](Self::view), the lock is
    /// recovered if a previous refresher panicked while holding it.
    pub fn refresh(&self) -> Arc<SnapshotView<P, M>> {
        let snap = self.engine.publish();
        let current = self.view();
        if current.epoch() == snap.epoch {
            return current;
        }
        let mut guard = write_recover(&self.view);
        // A racing refresher may have installed this epoch (or newer)
        // while we waited for the lock.
        if guard.epoch() >= snap.epoch {
            return Arc::clone(&guard);
        }
        let fresh = Arc::new(SnapshotView::new(self.engine.metric().clone(), snap));
        *guard = Arc::clone(&fresh);
        self.obs.refreshes.incr();
        fresh
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

    /// [`SnapshotView::window_span`] of the current view: the live
    /// arrival-stamp span a windowed engine's answers cover, `None`
    /// outside window mode.
    pub fn window_span(&self) -> Option<(u64, u64)> {
        self.view().window_span()
    }

    /// Batched assign: acquires the view once, answers every query under
    /// that single epoch, fanning `QUERY_CHUNK`-sized slices over the
    /// worker pool.  Results come back in input order.
    ///
    /// The batch writes into one preallocated output through disjoint
    /// `&mut` slices — no per-chunk allocation, no flatten copy — so the
    /// per-query cost is the kernel scan alone, with the view
    /// acquisition amortized over the whole batch (the scalar path pays
    /// it per request).
    pub fn assign_batch(&self, pts: &[P]) -> Vec<Option<Assignment>> {
        let t_view = self.obs.view_acquire.start();
        let view = self.view();
        t_view.finish();
        let mut out: Vec<Option<Assignment>> = vec![None; pts.len()];
        let tasks: Vec<(&[P], &mut [Option<Assignment>])> = pts
            .chunks(QUERY_CHUNK)
            .zip(out.chunks_mut(QUERY_CHUNK))
            .collect();
        let t_kernel = self.obs.kernel.start();
        self.pool.scoped_map(tasks, |_, (chunk, slots)| {
            for (p, slot) in chunk.iter().zip(slots.iter_mut()) {
                *slot = view.assign(p);
            }
        });
        t_kernel.finish();
        self.obs.batches.incr();
        self.obs.batch_queries.add(pts.len() as u64);
        out
    }

    /// Batched classify at one radius, single-epoch and
    /// allocation-shaped like [`assign_batch`](Self::assign_batch).
    pub fn classify_batch(&self, pts: &[P], r: f64) -> Vec<Classification> {
        let t_view = self.obs.view_acquire.start();
        let view = self.view();
        t_view.finish();
        let mut out: Vec<Option<Classification>> = vec![None; pts.len()];
        let tasks: Vec<(&[P], &mut [Option<Classification>])> = pts
            .chunks(QUERY_CHUNK)
            .zip(out.chunks_mut(QUERY_CHUNK))
            .collect();
        let t_kernel = self.obs.kernel.start();
        self.pool.scoped_map(tasks, |_, (chunk, slots)| {
            for (p, slot) in chunk.iter().zip(slots.iter_mut()) {
                *slot = Some(view.classify(p, r));
            }
        });
        t_kernel.finish();
        self.obs.batches.incr();
        self.obs.batch_queries.add(pts.len() as u64);
        out.into_iter()
            .map(|c| c.expect("every slot classified"))
            .collect()
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
        // The cached view is stale until a refresh republishes.
        assert!(std::sync::Arc::ptr_eq(&query.view(), &empty));
        let fresh = query.refresh();
        assert_eq!(fresh.epoch(), empty.epoch() + 1);
        assert!(!fresh.centers().is_empty());
        // No new data: refresh is the memoized no-op, same view back.
        let again = query.refresh();
        assert!(std::sync::Arc::ptr_eq(&fresh, &again));
        assert_eq!(engine.solves(), 2, "empty + one data epoch");
    }

    #[test]
    fn batched_answers_equal_scalar_answers() {
        let engine = Arc::new(Engine::new(L2, EngineConfig::new(4, 2, 8, 0.5)));
        engine.ingest(&stream(200));
        let query = QueryEngine::new(Arc::clone(&engine));
        let probes = stream(300);
        let batched = query.assign_batch(&probes);
        assert_eq!(batched.len(), probes.len());
        for (p, b) in probes.iter().zip(&batched) {
            assert_eq!(*b, query.assign(p), "probe {p:?}");
        }
        let r = 5.0;
        let cls = query.classify_batch(&probes, r);
        for (p, c) in probes.iter().zip(&cls) {
            assert_eq!(*c, query.classify(p, r), "probe {p:?}");
        }
    }

    #[test]
    fn instrumented_batches_record_spans_and_counts() {
        use kcz_obs::{MetricsHandle, Registry, TickClock};
        let engine = Arc::new(Engine::new(L2, EngineConfig::new(4, 2, 8, 0.5)));
        let registry = Registry::new();
        let handle = MetricsHandle::with_clock(&registry, Arc::new(TickClock::new(5)));
        let query = QueryEngine::with_metrics(Arc::clone(&engine), &handle);
        engine.ingest(&stream(200));
        query.refresh();
        let probes = stream(300);
        query.assign_batch(&probes);
        query.classify_batch(&probes, 5.0);
        query.assign(&probes[0]);
        assert_eq!(registry.counter_value("query.batches"), Some(2));
        assert_eq!(registry.counter_value("query.batch.queries"), Some(600));
        assert_eq!(registry.counter_value("query.scalar.queries"), Some(1));
        assert_eq!(registry.counter_value("query.refreshes"), Some(1));
        let v = registry.histogram_snapshot("query.batch.view_ns").unwrap();
        let k = registry
            .histogram_snapshot("query.batch.kernel_ns")
            .unwrap();
        assert_eq!(v.count(), 2);
        assert_eq!(k.count(), 2);
        // The tick clock makes span durations deterministic: each span
        // consumes exactly two readings, one tick (5 "ns") apart.
        assert_eq!(v.total_ns(), 10);
        assert_eq!(k.total_ns(), 10);
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
