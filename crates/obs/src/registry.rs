//! Lock-free metrics registry and the cheap handles hot paths record
//! through.
//!
//! Registration (naming an instrument) takes a mutex and may allocate;
//! recording (bumping a counter, filing a histogram observation,
//! finishing a span) is pure relaxed atomics — no locks, no
//! allocation, safe from any thread.  A disabled [`MetricsHandle`]
//! hands out detached instruments whose recording is a handful of
//! atomic ops on private cells (counters and gauges stay readable, so
//! accessors like `Engine::solves()` remain correct with metrics off)
//! and spans that never read the clock at all.

use crate::clock::{Clock, MonotonicClock};
use crate::hist::{bucket_of, LatencyHistogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Recovers a poisoned registration lock: registration only inserts
/// into a map, so a panicked registrant leaves it consistent.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotone named counter.  Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not registered anywhere: recording still works (reads
    /// through [`Counter::get`] stay exact) but nothing exports it.
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n`, pinning at `u64::MAX` instead of wrapping (totals of
    /// caller-supplied weights).
    #[inline]
    pub fn add_saturating(&self, n: u64) {
        let _ = self
            .cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A named gauge: last-written value wins.  Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A gauge not registered anywhere.
    pub fn detached() -> Self {
        Gauge::default()
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if larger (a high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Lock-free multi-writer power-of-two histogram.  The mergeable
/// value-type counterpart ([`LatencyHistogram`]) owns all quantile
/// logic; this type only accumulates and snapshots.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Records one observation in nanoseconds.  Lock- and
    /// allocation-free; concurrent records never lose updates.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Folds a single-writer histogram in (the shard-merge path: record
    /// locally without atomics, merge once at the end).
    pub fn merge_from(&self, h: &LatencyHistogram) {
        for (cell, &b) in self.buckets.iter().zip(h.buckets().iter()) {
            if b > 0 {
                cell.fetch_add(b, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(h.count(), Ordering::Relaxed);
        self.total_ns
            .fetch_add(h.total_ns().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        self.max_ns.fetch_max(h.max_ns(), Ordering::Relaxed);
    }

    /// A value snapshot.  Exact once writers have quiesced; a snapshot
    /// taken mid-write may straddle an observation (count without
    /// bucket or vice versa) but never tears a single field.
    pub fn snapshot(&self) -> LatencyHistogram {
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        LatencyHistogram::from_parts(
            buckets,
            self.count.load(Ordering::Relaxed),
            self.total_ns.load(Ordering::Relaxed) as u128,
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

/// A cheap handle onto a registered (or detached) histogram.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle {
    hist: Option<Arc<AtomicHistogram>>,
}

impl HistogramHandle {
    /// A handle that drops every observation.
    pub fn disabled() -> Self {
        HistogramHandle::default()
    }

    /// Whether observations are being kept.
    pub fn enabled(&self) -> bool {
        self.hist.is_some()
    }

    /// Records one observation in nanoseconds (no-op when disabled).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if let Some(h) = &self.hist {
            h.record_ns(ns);
        }
    }

    /// Records one observation as a [`Duration`].
    #[inline]
    pub fn record(&self, d: Duration) {
        if let Some(h) = &self.hist {
            h.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Folds a locally-accumulated histogram in (no-op when disabled).
    pub fn merge_from(&self, h: &LatencyHistogram) {
        if let Some(dst) = &self.hist {
            dst.merge_from(h);
        }
    }
}

/// A named span site: `start()` stamps the clock, `finish()` records
/// the elapsed nanoseconds into the site's histogram.  Disabled stages
/// skip the clock reads entirely.
#[derive(Clone)]
pub struct Stage {
    inner: Option<StageInner>,
}

#[derive(Clone)]
struct StageInner {
    hist: Arc<AtomicHistogram>,
    clock: Arc<dyn Clock>,
}

impl Stage {
    /// A stage that times nothing and never touches the clock.
    pub fn disabled() -> Self {
        Stage { inner: None }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span.  Allocation-free.
    #[inline]
    pub fn start(&self) -> StageTimer<'_> {
        StageTimer {
            stage: self,
            t0: self.inner.as_ref().map(|i| i.clock.now_ns()),
        }
    }
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stage")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// An open span; consume with [`StageTimer::finish`] to record it.
/// Dropping without finishing records nothing (abandoned spans from a
/// panicking stage must not skew the histogram).
#[must_use = "an unfinished span records nothing"]
pub struct StageTimer<'a> {
    stage: &'a Stage,
    t0: Option<u64>,
}

impl StageTimer<'_> {
    /// Closes the span, records it, and returns the elapsed
    /// nanoseconds (0 when the stage is disabled).
    #[inline]
    pub fn finish(self) -> u64 {
        match (&self.stage.inner, self.t0) {
            (Some(i), Some(t0)) => {
                let dt = i.clock.now_ns().saturating_sub(t0);
                i.hist.record_ns(dt);
                dt
            }
            _ => 0,
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Arc<AtomicHistogram>>>,
}

/// The named-instrument store.  Cloning shares the store; instruments
/// registered under the same name share one cell (registration is
/// idempotent).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        lock_recover(&self.inner.counters)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, registering it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        lock_recover(&self.inner.gauges)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, registering it empty on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let hist = lock_recover(&self.inner.histograms)
            .entry(name.to_string())
            .or_default()
            .clone();
        HistogramHandle { hist: Some(hist) }
    }

    /// Current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        lock_recover(&self.inner.counters)
            .get(name)
            .map(|c| c.get())
    }

    /// Current value of a gauge, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        lock_recover(&self.inner.gauges).get(name).map(|g| g.get())
    }

    /// Value snapshot of a histogram, if registered.
    pub fn histogram_snapshot(&self, name: &str) -> Option<LatencyHistogram> {
        lock_recover(&self.inner.histograms)
            .get(name)
            .map(|h| h.snapshot())
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> Vec<(String, u64)> {
        lock_recover(&self.inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All gauges, name-sorted.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        lock_recover(&self.inner.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Value snapshots of all histograms, name-sorted.
    pub fn histograms(&self) -> Vec<(String, LatencyHistogram)> {
        lock_recover(&self.inner.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters().len())
            .field("gauges", &self.gauges().len())
            .field("histograms", &self.histograms().len())
            .finish()
    }
}

#[derive(Clone)]
struct HandleInner {
    registry: Registry,
    clock: Arc<dyn Clock>,
}

/// The instrumentation entry point consumers hold: either live
/// (backed by a [`Registry`] and a [`Clock`]) or disabled (every
/// instrument it hands out is a detached cell or a no-op).
#[derive(Clone, Default)]
pub struct MetricsHandle {
    inner: Option<HandleInner>,
}

impl MetricsHandle {
    /// The no-op handle: counters and gauges it hands out still count
    /// (privately), histograms and stages drop everything.
    pub fn disabled() -> Self {
        MetricsHandle::default()
    }

    /// A live handle over `registry`, timed by the monotonic wall
    /// clock.
    pub fn new(registry: &Registry) -> Self {
        Self::with_clock(registry, Arc::new(MonotonicClock::new()))
    }

    /// A live handle over `registry` with an explicit clock — pass a
    /// [`crate::TickClock`] for seed-stable recorded output.
    pub fn with_clock(registry: &Registry, clock: Arc<dyn Clock>) -> Self {
        MetricsHandle {
            inner: Some(HandleInner {
                registry: registry.clone(),
                clock,
            }),
        }
    }

    /// Whether this handle records anywhere visible.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The backing registry, when live.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_ref().map(|i| &i.registry)
    }

    /// A counter: registered under `name` when live, detached (still
    /// readable through [`Counter::get`]) when disabled.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(i) => i.registry.counter(name),
            None => Counter::detached(),
        }
    }

    /// A gauge: registered when live, detached when disabled.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(i) => i.registry.gauge(name),
            None => Gauge::detached(),
        }
    }

    /// A histogram handle: live when enabled, a no-op otherwise.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        match &self.inner {
            Some(i) => i.registry.histogram(name),
            None => HistogramHandle::disabled(),
        }
    }

    /// A span site recording into the histogram named `name`; disabled
    /// stages never read the clock.
    pub fn stage(&self, name: &str) -> Stage {
        match &self.inner {
            Some(i) => {
                let hist = lock_recover(&i.registry.inner.histograms)
                    .entry(name.to_string())
                    .or_default()
                    .clone();
                Stage {
                    inner: Some(StageInner {
                        hist,
                        clock: i.clock.clone(),
                    }),
                }
            }
            None => Stage::disabled(),
        }
    }
}

impl std::fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHandle")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TickClock;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.incr();
        assert_eq!(r.counter_value("x"), Some(3));
        assert_eq!(a.get(), 3);
        assert_eq!(r.counters(), vec![("x".to_string(), 3)]);
    }

    #[test]
    fn detached_instruments_count_but_do_not_export() {
        let h = MetricsHandle::disabled();
        let c = h.counter("hidden");
        c.add(7);
        assert_eq!(c.get(), 7);
        let g = h.gauge("hidden");
        g.set(3);
        g.set_max(9);
        g.set_max(2);
        assert_eq!(g.get(), 9);
        let hist = h.histogram("hidden");
        hist.record_ns(5);
        assert!(!hist.enabled());
        let stage = h.stage("hidden");
        assert_eq!(stage.start().finish(), 0);
    }

    #[test]
    fn stage_records_tick_deltas() {
        let r = Registry::new();
        let h = MetricsHandle::with_clock(&r, Arc::new(TickClock::new(8)));
        let stage = h.stage("work_ns");
        assert_eq!(stage.start().finish(), 8);
        assert_eq!(stage.start().finish(), 8);
        let snap = r.histogram_snapshot("work_ns").unwrap();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.total_ns(), 16);
        // An abandoned span records nothing.
        let t = stage.start();
        drop(t);
        assert_eq!(r.histogram_snapshot("work_ns").unwrap().count(), 2);
    }

    #[test]
    fn atomic_histogram_snapshot_matches_value_recording() {
        let a = AtomicHistogram::default();
        let mut v = LatencyHistogram::default();
        // Stay far from u64::MAX: the atomic total is a u64 (584 years
        // of nanoseconds), the value type's is a u128.
        for ns in [0u64, 1, 3, 900, 70_000, 1 << 52] {
            a.record_ns(ns);
            v.record_ns(ns);
        }
        assert_eq!(a.snapshot(), v);
        // merge_from folds a local histogram in.
        let b = AtomicHistogram::default();
        b.merge_from(&v);
        assert_eq!(b.snapshot().count(), v.count());
        assert_eq!(b.snapshot().max_ns(), v.max_ns());
    }
}
