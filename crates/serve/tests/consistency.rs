//! Deterministic barrier-scheduled read/write test: writers ingest
//! through snapshot refreshes while readers query — every served answer
//! must be consistent with *some* published epoch (no torn snapshot),
//! and the write side's weight-conservation invariant must survive the
//! whole run.
//!
//! The schedule is fixed: `ROUNDS` barrier-separated rounds; in each
//! round every writer ingests its preassigned batch, a refresher
//! republishes the view, and every reader answers its preassigned probe
//! set from whatever view it acquires.  Which thread runs first within a
//! round is up to the scheduler — exactly the nondeterminism the serving
//! contract must tolerate.  Consistency is checked per answer: the
//! reader re-derives the answer by brute force *on the view it used*
//! (same frozen epoch), so any torn or cross-epoch state shows up as a
//! mismatch; epochs observed across the run must never regress below an
//! epoch the reader already saw.
//!
//! Beside it: a windowed engine replayed through the serving front, an
//! epoch published on the engine reaching readers without a refresh,
//! and a panicking refresher that must not wedge anyone.

use kcz_engine::{Engine, EngineConfig};
use kcz_metric::{total_weight, MetricSpace, L2};
use kcz_serve::{QueryEngine, SnapshotView};
use kcz_workloads::{mixed_trace, phase_shift_stream, TraceOp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const WRITERS: usize = 3;
const READERS: usize = 2;
const ROUNDS: usize = 6;
const BATCH: usize = 12;
const PROBES: usize = 15;
const K: usize = 2;
const Z: u64 = 6;

/// Seeded xorshift point source: two integer-grid clusters + far
/// outliers (the same family the engine's own tests use).
fn points(n: usize, mut s: u64) -> Vec<[f64; 2]> {
    s |= 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let (x, y) = ((s >> 8) % 7, (s >> 24) % 7);
            match s % 35 {
                34 => [4000.0 + (s % 5) as f64 * 90.0, -2800.0],
                n if n % 2 == 0 => [x as f64, y as f64],
                _ => [250.0 + x as f64, 250.0 + y as f64],
            }
        })
        .collect()
}

/// An L2 delegate whose `Clone` can be armed to panic.  `refresh`
/// clones the metric to build the view of the epoch it published, so
/// arming this mid-run simulates a refresher dying after its publish.
#[derive(Debug)]
struct PanickyL2(Arc<AtomicBool>);

impl Clone for PanickyL2 {
    fn clone(&self) -> Self {
        assert!(
            !self.0.load(Ordering::SeqCst),
            "armed: metric clone blew up mid-refresh"
        );
        PanickyL2(Arc::clone(&self.0))
    }
}

impl MetricSpace<[f64; 2]> for PanickyL2 {
    fn dist(&self, a: &[f64; 2], b: &[f64; 2]) -> f64 {
        L2.dist(a, b)
    }
    fn doubling_dim(&self) -> usize {
        <L2 as MetricSpace<[f64; 2]>>::doubling_dim(&L2)
    }
}

#[test]
fn a_panicking_refresher_does_not_wedge_readers_or_later_refreshers() {
    let armed = Arc::new(AtomicBool::new(false));
    let engine = Arc::new(Engine::new(
        PanickyL2(Arc::clone(&armed)),
        EngineConfig::new(4, K, Z, 0.5),
    ));
    engine.ingest(&points(60, 0xABCD));
    let query = Arc::new(QueryEngine::new(Arc::clone(&engine)));
    let good = query.refresh();
    assert!(!good.centers().is_empty());

    // New data arrives and the engine publishes the new epoch up front
    // (disarmed), so the refresher below takes the memoized publish fast
    // path — its only metric clone is the one `refresh` performs while
    // building the view of that epoch.
    engine.ingest(&points(60, 0x1234));
    engine.publish();
    armed.store(true, Ordering::SeqCst);
    let crashed = std::thread::spawn({
        let query = Arc::clone(&query);
        move || {
            query.refresh();
        }
    })
    .join();
    assert!(crashed.is_err(), "the armed clone must panic the refresher");
    armed.store(false, Ordering::SeqCst);

    // Readers keep serving the engine's newest published epoch instead
    // of propagating the panic.
    let latest = engine.latest().expect("published");
    let view = query.view();
    assert!(latest.epoch > good.epoch());
    assert_eq!(view.epoch(), latest.epoch, "readers serve engine.latest()");
    let expected = SnapshotView::new(engine.metric().clone(), latest);
    for p in &points(10, 0xEE) {
        assert_eq!(view.assign(p), expected.assign(p));
    }

    // The next refresher is not wedged either, and serves both batches.
    let fresh = query.refresh();
    assert!(
        fresh.epoch() > good.epoch(),
        "recovered refresh republishes"
    );
    assert_eq!(
        total_weight(&fresh.snapshot().coreset),
        120,
        "both batches are in the recovered epoch"
    );
    assert_eq!(query.view().epoch(), fresh.epoch());
}

#[test]
fn a_view_serves_an_epoch_published_on_the_engine_without_a_refresh() {
    let engine = Arc::new(Engine::new(L2, EngineConfig::new(4, K, Z, 0.5)));
    let query = QueryEngine::new(Arc::clone(&engine));
    assert!(query.view().centers().is_empty());
    engine.ingest(&points(60, 0xABCD));
    let published = engine.publish();
    let view = query.view();
    assert_eq!(
        view.epoch(),
        published.epoch,
        "the next view is the new epoch"
    );
    assert!(Arc::ptr_eq(view.snapshot(), &published));
    assert!(!view.centers().is_empty());
    for p in &points(10, 0xEE) {
        assert_eq!(query.assign(p), view.assign(p));
    }
}

/// One served answer, bit for bit: `(epoch, center, dist bits)`.
type Served = Option<(u64, usize, u64)>;

/// Replays a three-phase shift (200 arrivals per phase, 5000 apart)
/// against a W = 200 sliding-window engine through the serving front:
/// writes flush every 64, the view refreshes every 128 trace ops, and
/// once more after the final flush.  Returns every served answer and
/// the final view.
fn windowed_replay() -> (Vec<Served>, SnapshotView<[f64; 2], L2>) {
    const FLUSH: usize = 64;
    const REFRESH: usize = 128;
    let writes = phase_shift_stream(3, 200, 1.0, 5000.0, 21);
    let reads: Vec<[f64; 2]> = writes[400..].iter().step_by(10).copied().collect();
    let trace = mixed_trace(&writes, &reads, 0x51D);
    let engine = Arc::new(Engine::new(
        L2,
        EngineConfig::new(4, 1, 2, 0.5).windowed(200),
    ));
    let query = QueryEngine::new(Arc::clone(&engine));
    let (mut pending, mut served) = (Vec::with_capacity(FLUSH), Vec::new());
    for (i, op) in trace.iter().enumerate() {
        match op {
            TraceOp::Ingest(p) => {
                pending.push(*p);
                if pending.len() >= FLUSH {
                    engine.ingest(&pending);
                    pending.clear();
                }
            }
            TraceOp::Query(p) => served.push(
                query
                    .assign(p)
                    .map(|a| (a.epoch, a.center, a.dist.to_bits())),
            ),
        }
        if (i + 1) % REFRESH == 0 {
            query.refresh();
        }
    }
    engine.ingest(&pending);
    assert_eq!(served.len(), reads.len());
    assert_eq!(engine.points_ingested(), 600);
    (served, query.refresh())
}

#[test]
fn windowed_engine_replay_forgets_old_phases_and_stays_deterministic() {
    // By the final refresh the window holds only last-regime arrivals,
    // so every served center is a last-regime location: the staleness
    // an insertion-only engine would keep serving forever.
    let (served, view) = windowed_replay();
    assert_eq!(view.window_span(), Some((401, 600)));
    assert!(!view.centers().is_empty());
    for c in view.centers() {
        assert!(
            c[0] > 4000.0 && c[1] > 4000.0,
            "stale center {c:?} served from an expired phase"
        );
    }
    // Same trace, same schedule, fresh windowed engine: same answers.
    let (again, again_view) = windowed_replay();
    assert_eq!(served, again);
    assert_eq!(view.epoch(), again_view.epoch());
}

#[test]
fn concurrent_reads_are_consistent_with_a_published_epoch() {
    // Fixed schedule: per-round writer batches and reader probe sets.
    let batches: Vec<Vec<Vec<[f64; 2]>>> = (0..ROUNDS)
        .map(|r| {
            (0..WRITERS)
                .map(|w| points(BATCH, (r * WRITERS + w) as u64 + 0xC0FFEE))
                .collect()
        })
        .collect();
    let probes: Vec<Vec<[f64; 2]>> = (0..READERS)
        .map(|rd| points(PROBES, rd as u64 + 0xBEEF))
        .collect();
    let total = (WRITERS * ROUNDS * BATCH) as u64;

    for trial in 0..3 {
        let engine = Arc::new(Engine::new(L2, EngineConfig::new(4, K, Z, 0.5)));
        let query = QueryEngine::new(Arc::clone(&engine));
        let barrier = Barrier::new(WRITERS + READERS + 1);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (engine, batches, barrier) = (&engine, &batches, &barrier);
                scope.spawn(move || {
                    for round in batches.iter() {
                        barrier.wait();
                        engine.ingest(&round[w]);
                    }
                });
            }
            // The refresher republishes mid-burst, every round.
            {
                let (query, barrier) = (&query, &barrier);
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        query.refresh();
                    }
                });
            }
            for rd in 0..READERS {
                let (query, probes, barrier) = (&query, &probes, &barrier);
                scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        // Acquire once, answer the whole probe set under
                        // that single frozen epoch.
                        let view = query.view();
                        assert!(
                            view.epoch() >= last_epoch,
                            "reader {rd}: view regressed from epoch {last_epoch} to {}",
                            view.epoch()
                        );
                        last_epoch = view.epoch();
                        for p in &probes[rd] {
                            let answer = view.assign(p);
                            // Brute-force re-derivation on the same view:
                            // scalar distances over its frozen centers.
                            let brute = view
                                .centers()
                                .iter()
                                .map(|c| L2.dist(p, c))
                                .fold(f64::INFINITY, f64::min);
                            match answer {
                                Some(a) => {
                                    assert_eq!(a.dist, brute, "reader {rd}: torn answer for {p:?}");
                                    assert_eq!(
                                        a.dist,
                                        L2.dist(p, &view.centers()[a.center]),
                                        "reader {rd}: assignment does not point at its center"
                                    );
                                    assert_eq!(a.epoch, view.epoch());
                                    // The classify verdict agrees with the
                                    // assignment on the same view.
                                    let c = view.classify(p, a.dist);
                                    assert!(c.covered);
                                    assert_eq!(c.epoch, view.epoch());
                                    assert_eq!(c.bound_factor, view.bound_factor());
                                }
                                None => {
                                    assert!(
                                        view.centers().is_empty(),
                                        "reader {rd}: no answer despite centers"
                                    );
                                    assert!(brute.is_infinite());
                                }
                            }
                        }
                    }
                });
            }
        });

        // Weight conservation after the storm: every write of every
        // round is in the final published summary.
        let last = query.refresh();
        assert_eq!(
            total_weight(&last.snapshot().coreset),
            total,
            "trial {trial}"
        );
        assert_eq!(engine.points_ingested(), total, "trial {trial}");
    }
}
