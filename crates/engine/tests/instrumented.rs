//! Engine instrumentation contracts: exact counters under
//! barrier-scheduled multi-writer ingest with a concurrent
//! snapshotter, uniform solve and merge accounting across `Engine`
//! accessors / `Snapshot.stats` / the registry, a merge-partition and a
//! solve-state reuse counted per publish whose points stayed, carried
//! across a metrics rebind, publish-stage spans that sum to within the
//! measured publish total, and byte-identical metric exports under the
//! deterministic tick clock.

use kcz_engine::{Engine, EngineConfig};
use kcz_metric::L2;
use kcz_obs::{MetricsHandle, Registry, TickClock};
use std::sync::{Arc, Barrier};
use std::thread;

const WRITERS: usize = 6;
const BATCHES: usize = 40;
const BATCH: usize = 25;

fn site(w: usize, b: usize, i: usize) -> [f64; 2] {
    [
        ((w * 31 + i) % 47) as f64 * 100.0,
        ((b * 17 + i) % 53) as f64 * 100.0,
    ]
}

#[test]
fn multi_writer_ingest_with_snapshotter_loses_no_updates() {
    let registry = Registry::new();
    let handle = MetricsHandle::new(&registry);
    let engine = Arc::new(Engine::new(L2, EngineConfig::new(4, 4, 16, 0.5)).with_metrics(&handle));
    let barrier = Arc::new(Barrier::new(WRITERS + 1));

    let snapshotter = {
        let engine = Arc::clone(&engine);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            barrier.wait();
            let mut published = 0u64;
            for _ in 0..50 {
                let snap = engine.publish();
                assert!(snap.epoch >= published, "epochs must not regress");
                published = snap.epoch;
            }
        })
    };

    let mut joins = Vec::new();
    for w in 0..WRITERS {
        let engine = Arc::clone(&engine);
        let barrier = Arc::clone(&barrier);
        joins.push(thread::spawn(move || {
            barrier.wait();
            for b in 0..BATCHES {
                let batch: Vec<[f64; 2]> = (0..BATCH).map(|i| site(w, b, i)).collect();
                engine.ingest(&batch);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    snapshotter.join().unwrap();

    // Exact totals: no lost updates under contention, and the registry
    // agrees with the engine's own accessors bit for bit.
    let expected_points = (WRITERS * BATCHES * BATCH) as u64;
    let expected_batches = (WRITERS * BATCHES) as u64;
    assert_eq!(engine.points_ingested(), expected_points);
    assert_eq!(
        registry.counter_value("engine.ingest.points"),
        Some(expected_points)
    );
    assert_eq!(
        registry.counter_value("engine.ingest.batches"),
        Some(expected_batches)
    );
    assert_eq!(
        registry
            .histogram_snapshot("engine.ingest.batch_ns")
            .unwrap()
            .count(),
        expected_batches
    );

    // One final publish settles everything, then the solve and merge
    // accounting must agree across all three surfaces.
    let snap = engine.publish();
    assert_eq!(snap.stats.points, expected_points);
    assert_eq!(snap.stats.solves, engine.solves());
    assert_eq!(snap.stats.merges, engine.merges());
    assert_eq!(
        registry.counter_value("engine.publish.solves"),
        Some(engine.solves())
    );
    assert_eq!(
        registry.counter_value("engine.publish.pair_merges"),
        Some(engine.merges())
    );
    assert_eq!(
        registry.gauge_value("engine.publish.epoch"),
        Some(snap.epoch)
    );
    assert_eq!(
        registry.gauge_value("engine.snapshot.coreset_size"),
        Some(snap.coreset.len() as u64)
    );

    // An exact repeat of an ingested site moves only a weight, so the
    // next merge re-sums the partition the last one kept, and the next
    // solve starts from the state the last one kept.  Both still count
    // as a recompression and a solve.
    let reuses = registry
        .counter_value("engine.solve.cache_reuses")
        .expect("registered");
    assert!(reuses < engine.solves(), "the first solve cannot reuse");
    let merge_reuses = registry
        .counter_value("engine.merge.reuses")
        .expect("registered");
    assert!(
        merge_reuses < engine.merges(),
        "the first merge cannot reuse"
    );
    let (solves, merges) = (engine.solves(), engine.merges());
    engine.ingest(&[site(0, 0, 0)]);
    engine.publish();
    assert_eq!(
        registry.counter_value("engine.solve.cache_reuses"),
        Some(reuses + 1)
    );
    assert_eq!(
        registry.counter_value("engine.merge.reuses"),
        Some(merge_reuses + 1)
    );
    assert_eq!((engine.solves(), engine.merges()), (solves + 1, merges + 1));
}

#[test]
fn reuse_counts_carry_across_a_metrics_rebind() {
    // Work done before `with_metrics` must show up in the new registry.
    let engine = Engine::new(L2, EngineConfig::new(4, 3, 8, 0.5));
    let batch: Vec<[f64; 2]> = (0..60).map(|i| site(3, 0, i)).collect();
    engine.ingest(&batch);
    engine.publish();
    engine.ingest(&batch[..5]);
    engine.publish();
    let registry = Registry::new();
    let engine = engine.with_metrics(&MetricsHandle::new(&registry));
    for name in [
        "engine.merge.reuses",
        "engine.solve.cache_reuses",
        "engine.publish.pair_merges",
    ] {
        let expected = if name == "engine.publish.pair_merges" {
            2
        } else {
            1
        };
        assert_eq!(registry.counter_value(name), Some(expected), "{name}");
    }
    assert_eq!(engine.merges(), 2);
}

#[test]
fn publish_stage_spans_sum_to_within_the_publish_total() {
    let registry = Registry::new();
    let handle = MetricsHandle::new(&registry);
    let engine = Engine::new(L2, EngineConfig::new(4, 3, 8, 0.5)).with_metrics(&handle);
    for b in 0..20 {
        let batch: Vec<[f64; 2]> = (0..50).map(|i| site(1, b, i)).collect();
        engine.ingest(&batch);
        engine.publish();
    }
    let total = registry
        .histogram_snapshot("engine.publish.total_ns")
        .unwrap();
    assert!(total.count() >= 1);
    let stage_sum: u128 = [
        "engine.publish.stage.clone_ns",
        "engine.publish.stage.merge_ns",
        "engine.publish.stage.solve_ns",
        "engine.publish.stage.build_ns",
    ]
    .iter()
    .filter_map(|name| registry.histogram_snapshot(name))
    .map(|h| h.total_ns())
    .sum();
    // The stages are disjoint sub-intervals of each publish, so their
    // cumulative time can never exceed the measured publish total.
    assert!(
        stage_sum <= total.total_ns(),
        "stages {stage_sum} ns > publish total {} ns",
        total.total_ns()
    );
    // And they are where publishes actually spend their time: the
    // instrumented stages must account for a nontrivial share.
    assert!(stage_sum > 0, "stage spans recorded nothing");
}

#[test]
fn tick_clock_exports_are_byte_identical_across_runs() {
    let run = || {
        let registry = Registry::new();
        let handle = MetricsHandle::with_clock(&registry, Arc::new(TickClock::new(100)));
        let engine = Engine::new(L2, EngineConfig::new(2, 2, 4, 0.5)).with_metrics(&handle);
        // Fixed single-threaded sequence: same ops, same tick stamps.
        for b in 0..10 {
            let batch: Vec<[f64; 2]> = (0..30).map(|i| site(2, b, i)).collect();
            engine.ingest(&batch);
            if b % 3 == 0 {
                engine.publish();
            }
        }
        engine.publish();
        registry.to_json()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "tick-clock exports must be seed-stable");
    assert!(a.contains("\"schema\": \"kcz-metrics/v1\""));
    assert!(a.contains("engine.publish.total_ns"));
}
