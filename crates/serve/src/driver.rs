//! [`LoadDriver`]: deterministic replay of mixed read/write traces
//! against an engine + query front, with throughput and latency
//! accounting.
//!
//! The driver consumes a [`TraceOp`] sequence (see
//! [`kcz_workloads::mixed_trace`]): writes accumulate into
//! `ingest_batch`-sized flushes, reads are served from the current
//! published view, and every `refresh_every` ops the view is
//! republished.  All scheduling knobs are part of [`DriverConfig`], so a
//! replay is **deterministic end to end**: the same trace and config
//! produce bit-identical answers — pinned by
//! [`DriverReport::answer_digest`], a seed-stable FNV fold over every
//! served `(epoch, center, dist)`.  Wall-clock numbers (throughput, the
//! latency histograms) are measured, not pinned.

use kcz_engine::Engine;
use kcz_metric::{MetricSpace, SpaceUsage};
use kcz_obs::MetricsHandle;
use kcz_workloads::{ShardKey, TraceOp};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::query::QueryEngine;

/// Replay knobs of one [`LoadDriver`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// Writes accumulate into batches of this size before being flushed
    /// into the engine (the tail is flushed at end of trace).
    pub ingest_batch: usize,
    /// Republish cadence in trace ops; `0` refreshes only at the end of
    /// the trace, so every query is served from the initial view.
    pub refresh_every: u64,
    /// `Some(r)`: queries are `classify(p, r)` verdicts; `None`: queries
    /// are `assign(p)` lookups.
    pub classify_radius: Option<f64>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            ingest_batch: 256,
            refresh_every: 1024,
            classify_radius: None,
        }
    }
}

// The power-of-two latency histogram was born here and moved to the
// observability crate once it grew shard-merging; this re-export keeps
// every `kcz_serve::driver::LatencyHistogram` (and `kcz_serve::…`)
// caller compiling against the single shared implementation.
pub use kcz_obs::LatencyHistogram;

/// What one replay did and how fast it went.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Total trace ops replayed.
    pub ops: u64,
    /// Points written into the engine.
    pub ingested: u64,
    /// Queries served.
    pub queries: u64,
    /// Ingest flushes performed.
    pub flushes: u64,
    /// View refreshes performed (including the final one).
    pub refreshes: u64,
    /// The epoch current when the replay finished.
    pub final_epoch: u64,
    /// Seed-stable FNV digest over every served answer
    /// `(epoch, center, dist-bits)` — the determinism pin: same trace +
    /// same config ⇒ same digest, on any host.
    pub answer_digest: u64,
    /// Wall-clock for the whole replay.
    pub elapsed: Duration,
    /// Per-query serve latency.
    pub query_latency: LatencyHistogram,
    /// Per-flush ingest latency.
    pub ingest_latency: LatencyHistogram,
}

/// FNV-1a fold of one answer into the digest.
fn fold(digest: &mut u64, words: [u64; 3]) {
    for w in words {
        for b in w.to_le_bytes() {
            *digest ^= b as u64;
            *digest = digest.wrapping_mul(0x100000001b3);
        }
    }
}

/// Replays mixed read/write traces against one engine + query front.
pub struct LoadDriver<P, M: MetricSpace<P>> {
    query: QueryEngine<P, M>,
    cfg: DriverConfig,
    metrics: MetricsHandle,
}

impl<P, M> LoadDriver<P, M>
where
    P: Clone + PartialEq + SpaceUsage + ShardKey + Send + Sync,
    M: MetricSpace<P> + Clone,
{
    /// A driver over the given engine, with its own query front.
    pub fn new(engine: Arc<Engine<P, M>>, cfg: DriverConfig) -> Self {
        Self::with_metrics(engine, cfg, &MetricsHandle::disabled())
    }

    /// A driver whose replays publish their accounting through the
    /// registry behind `metrics`: the local latency histograms merge
    /// into `driver.query_ns` / `driver.ingest_ns` at the end of each
    /// run (recording stays single-writer and allocation-free in the
    /// loop), counters accumulate across runs, and the query front is
    /// instrumented too.
    pub fn with_metrics(
        engine: Arc<Engine<P, M>>,
        cfg: DriverConfig,
        metrics: &MetricsHandle,
    ) -> Self {
        assert!(cfg.ingest_batch >= 1, "ingest batch must be at least 1");
        LoadDriver {
            query: QueryEngine::with_metrics(engine, metrics),
            cfg,
            metrics: metrics.clone(),
        }
    }

    /// The query front the driver serves reads through (shareable with
    /// concurrent readers while a replay runs).
    pub fn query_engine(&self) -> &QueryEngine<P, M> {
        &self.query
    }

    /// Replays the trace: writes batch up and flush at `ingest_batch`,
    /// reads serve from the current view, the view republishes every
    /// `refresh_every` ops and once more at the end.  Returns the full
    /// accounting.
    pub fn run(&self, trace: &[TraceOp<P>]) -> DriverReport {
        let cfg = self.cfg;
        let t0 = Instant::now();
        let mut pending: Vec<P> = Vec::with_capacity(cfg.ingest_batch);
        let mut report = DriverReport {
            ops: 0,
            ingested: 0,
            queries: 0,
            flushes: 0,
            refreshes: 0,
            final_epoch: 0,
            answer_digest: 0xcbf29ce484222325,
            elapsed: Duration::ZERO,
            query_latency: LatencyHistogram::default(),
            ingest_latency: LatencyHistogram::default(),
        };
        for op in trace {
            report.ops += 1;
            match op {
                TraceOp::Ingest(p) => {
                    pending.push(p.clone());
                    if pending.len() >= cfg.ingest_batch {
                        self.flush(&mut pending, &mut report);
                    }
                }
                TraceOp::Query(p) => {
                    let q0 = Instant::now();
                    match cfg.classify_radius {
                        Some(r) => {
                            let c = self.query.classify(p, r);
                            fold(
                                &mut report.answer_digest,
                                [
                                    c.epoch,
                                    c.center.map_or(u64::MAX, |i| i as u64),
                                    (c.covered as u64) << 63 | c.dist.to_bits() >> 1,
                                ],
                            );
                        }
                        None => {
                            let a = self.query.assign(p);
                            match a {
                                Some(a) => fold(
                                    &mut report.answer_digest,
                                    [a.epoch, a.center as u64, a.dist.to_bits()],
                                ),
                                None => fold(&mut report.answer_digest, [0, u64::MAX, 0]),
                            }
                        }
                    }
                    report.query_latency.record(q0.elapsed());
                    report.queries += 1;
                }
            }
            if cfg.refresh_every > 0 && report.ops.is_multiple_of(cfg.refresh_every) {
                self.query.refresh();
                report.refreshes += 1;
            }
        }
        self.flush(&mut pending, &mut report);
        let last = self.query.refresh();
        report.refreshes += 1;
        report.final_epoch = last.epoch();
        report.elapsed = t0.elapsed();
        self.publish_metrics(&report);
        report
    }

    /// Folds one finished replay into the registry (no-op when the
    /// driver was built without metrics).
    fn publish_metrics(&self, report: &DriverReport) {
        if !self.metrics.enabled() {
            return;
        }
        self.metrics
            .histogram("driver.query_ns")
            .merge_from(&report.query_latency);
        self.metrics
            .histogram("driver.ingest_ns")
            .merge_from(&report.ingest_latency);
        self.metrics.counter("driver.ops").add(report.ops);
        self.metrics.counter("driver.ingested").add(report.ingested);
        self.metrics.counter("driver.queries").add(report.queries);
        self.metrics.counter("driver.flushes").add(report.flushes);
        self.metrics
            .counter("driver.refreshes")
            .add(report.refreshes);
        self.metrics
            .gauge("driver.final_epoch")
            .set(report.final_epoch);
    }

    fn flush(&self, pending: &mut Vec<P>, report: &mut DriverReport) {
        if pending.is_empty() {
            return;
        }
        let f0 = Instant::now();
        self.query.engine().ingest(pending);
        report.ingest_latency.record(f0.elapsed());
        report.ingested += pending.len() as u64;
        report.flushes += 1;
        pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_engine::EngineConfig;
    use kcz_metric::{total_weight, L2};
    use kcz_workloads::{mixed_trace, query_trace};

    fn sites() -> Vec<[f64; 2]> {
        vec![[0.0, 0.0], [300.0, 0.0], [0.0, 300.0], [300.0, 300.0]]
    }

    fn trace(n_writes: usize, n_reads: usize, seed: u64) -> Vec<TraceOp<[f64; 2]>> {
        let writes = query_trace(n_writes, &sites(), 0.8, 2.0, 0.02, seed);
        let reads = query_trace(n_reads, &sites(), 1.1, 3.0, 0.1, seed ^ 0xFF);
        mixed_trace(&writes, &reads, seed ^ 0xABCD)
    }

    fn engine() -> Arc<Engine<[f64; 2], L2>> {
        Arc::new(Engine::new(L2, EngineConfig::new(4, 4, 16, 0.5)))
    }

    #[test]
    fn replay_accounts_every_op_and_conserves_weight() {
        let t = trace(400, 300, 3);
        let driver = LoadDriver::new(
            engine(),
            DriverConfig {
                ingest_batch: 64,
                refresh_every: 100,
                classify_radius: None,
            },
        );
        let report = driver.run(&t);
        assert_eq!(report.ops, 700);
        assert_eq!(report.ingested, 400);
        assert_eq!(report.queries, 300);
        assert_eq!(report.query_latency.count(), 300);
        assert!(report.flushes >= 400 / 64);
        assert!(report.refreshes >= 7);
        assert!(report.final_epoch >= 1);
        // Weight conservation through the whole replay.
        let snap = driver.query_engine().engine().publish();
        assert_eq!(total_weight(&snap.coreset), 400);
        assert_eq!(snap.epoch, report.final_epoch);
    }

    #[test]
    fn same_trace_same_config_same_digest() {
        let t = trace(300, 200, 9);
        let cfg = DriverConfig {
            ingest_batch: 32,
            refresh_every: 64,
            classify_radius: None,
        };
        let a = LoadDriver::new(engine(), cfg).run(&t);
        let b = LoadDriver::new(engine(), cfg).run(&t);
        assert_eq!(a.answer_digest, b.answer_digest);
        assert_eq!(a.final_epoch, b.final_epoch);
        assert_eq!((a.flushes, a.refreshes), (b.flushes, b.refreshes));
        // A different refresh cadence serves from different epochs — the
        // digest is allowed to move, the accounting must not.
        let c = LoadDriver::new(
            engine(),
            DriverConfig {
                refresh_every: 16,
                ..cfg
            },
        )
        .run(&t);
        assert_eq!(c.ingested, a.ingested);
        assert_eq!(c.queries, a.queries);
    }

    #[test]
    fn classify_mode_replays_deterministically() {
        let t = trace(200, 200, 17);
        let cfg = DriverConfig {
            ingest_batch: 50,
            refresh_every: 40,
            classify_radius: Some(25.0),
        };
        let a = LoadDriver::new(engine(), cfg).run(&t);
        let b = LoadDriver::new(engine(), cfg).run(&t);
        assert_eq!(a.answer_digest, b.answer_digest);
        assert_eq!(a.queries, 200);
    }

    #[test]
    fn windowed_engine_replay_forgets_old_phases_and_stays_deterministic() {
        // A phase-shift trace against a sliding-window engine: by the
        // final refresh the window holds only last-regime arrivals, so
        // every served center must be a last-regime location — the
        // staleness an insertion-only engine would keep serving forever.
        use kcz_workloads::phase_shift_stream;
        let writes = phase_shift_stream(3, 200, 1.0, 5000.0, 21);
        let last_phase = &writes[400..];
        let reads: Vec<[f64; 2]> = last_phase.iter().step_by(10).copied().collect();
        let t = mixed_trace(&writes, &reads, 0x51D);
        let window = 200u64;
        let mk = || {
            Arc::new(Engine::new(
                L2,
                EngineConfig::new(4, 1, 2, 0.5).windowed(window),
            ))
        };
        let cfg = DriverConfig {
            ingest_batch: 64,
            refresh_every: 128,
            classify_radius: None,
        };
        let a = LoadDriver::new(mk(), cfg).run(&t);
        assert_eq!(a.ingested, 600);
        assert_eq!(a.queries, reads.len() as u64);
        // Same trace, same config, same windowed engine ⇒ same digest.
        let b = LoadDriver::new(mk(), cfg).run(&t);
        assert_eq!(a.answer_digest, b.answer_digest);
        assert_eq!(a.final_epoch, b.final_epoch);
        // The final view window spans exactly the last `window` stamps,
        // and its centers live in the last regime (x ≈ 5000, y ≈ 5000).
        let driver = LoadDriver::new(mk(), cfg);
        driver.run(&t);
        let view = driver.query_engine().view();
        assert_eq!(view.window_span(), Some((600 - window + 1, 600)));
        for c in view.centers() {
            assert!(
                c[0] > 4000.0 && c[1] > 4000.0,
                "stale center {c:?} served from an expired phase"
            );
        }
    }

    // The LatencyHistogram unit tests moved to `kcz-obs` with the type;
    // what stays here is the driver's use of it through the registry.
    #[test]
    fn instrumented_replay_publishes_exact_accounting() {
        use kcz_obs::Registry;
        let t = trace(400, 300, 3);
        let registry = Registry::new();
        let handle = MetricsHandle::new(&registry);
        let driver = LoadDriver::with_metrics(
            engine(),
            DriverConfig {
                ingest_batch: 64,
                refresh_every: 100,
                classify_radius: None,
            },
            &handle,
        );
        let report = driver.run(&t);
        // Registry accounting mirrors the report exactly.
        assert_eq!(registry.counter_value("driver.ops"), Some(report.ops));
        assert_eq!(
            registry.counter_value("driver.queries"),
            Some(report.queries)
        );
        assert_eq!(
            registry.counter_value("driver.ingested"),
            Some(report.ingested)
        );
        assert_eq!(
            registry.counter_value("driver.flushes"),
            Some(report.flushes)
        );
        assert_eq!(
            registry.gauge_value("driver.final_epoch"),
            Some(report.final_epoch)
        );
        let q = registry.histogram_snapshot("driver.query_ns").unwrap();
        assert_eq!(q.count(), report.query_latency.count());
        assert_eq!(q.total_ns(), report.query_latency.total_ns());
        // A second run merges on top rather than resetting.
        let report2 = driver.run(&t);
        assert_eq!(
            registry.counter_value("driver.ops"),
            Some(report.ops + report2.ops)
        );
        assert_eq!(
            registry
                .histogram_snapshot("driver.query_ns")
                .unwrap()
                .count(),
            report.query_latency.count() + report2.query_latency.count()
        );
    }
}
