//! `engine_throughput` — batched sharded ingest ([`kcz_engine::Engine`])
//! vs the single-stream insertion-only coreset at n = 10⁶, shards ∈
//! {1, 4, 8}.  Measured medians are recorded in `BENCH_engine.json` at
//! the repo root.
//!
//! Where the sharded win comes from: on a multi-core host the engine
//! additionally parallelizes the per-shard insert loops over the worker
//! pool, but the effect measured here is *algorithmic* and survives a
//! single core — the value-hash router partitions the representative set
//! across shards, so an absorb query scans only the owning shard's
//! representatives (≈ 1/s of the single-stream scan).  The workload
//! makes that scan the dominant cost, the regime the resident engine
//! exists for: heavy arrival traffic over a large site population
//! (duplicate-rich sensor streams, the catalog's hot-shard theme).
//!
//! [`instrumentation_overhead_guardrail`] pins the metrics layer's
//! ingest cost to < 3% of the uninstrumented median.  The absorb
//! path's allocation guards are integration tests of `kcz-engine`
//! (`tests/absorb_alloc.rs`), so `cargo test` enforces them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kcz_engine::{Engine, EngineConfig};
use kcz_metric::L2;
use kcz_obs::{MetricsHandle, Registry};
use kcz_streaming::InsertionOnlyCoreset;
use std::hint::black_box;

const N: usize = 1_000_000;
/// Distinct sites.  Below the streaming capacity for (k, z, ε) below, so
/// the summary holds one representative per site and never re-clusters —
/// the absorb scan over ~`SITES` representatives is the steady state.
const SITES: usize = 1_500;
const K: usize = 8;
const Z: u64 = 32;
const EPS: f64 = 1.0;

/// Site `i` of the 50 × 30 grid (spacing ≫ the absorb threshold, so
/// distinct sites never merge into one representative).
fn site_point(i: usize) -> [f64; 2] {
    [(i % 50) as f64 * 1e4, (i / 50) as f64 * 1e4]
}

/// `n` arrivals over the `SITES` grid sites in seeded pseudo-random order.
fn arrivals(n: usize) -> Vec<[f64; 2]> {
    let mut s = 0x0E16_5EED_u64;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            site_point((s >> 16) as usize % SITES)
        })
        .collect()
}

/// Overhead guardrail for the metrics layer: a fully instrumented
/// engine (live registry, monotonic clock, per-batch spans) must ingest
/// the stream within 3% of the uninstrumented engine's median.  Runs
/// are interleaved so ambient drift hits both sides equally.
fn instrumentation_overhead_guardrail(stream: &[[f64; 2]]) {
    let run = |metrics: &MetricsHandle| {
        let t0 = std::time::Instant::now();
        let engine = Engine::new(L2, EngineConfig::new(8, K, Z, EPS)).with_metrics(metrics);
        for batch in stream.chunks(4096) {
            engine.ingest(batch);
        }
        black_box(engine.snapshot().coreset.len());
        t0.elapsed().as_secs_f64()
    };
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    const REPEATS: usize = 7;
    let registry = Registry::new();
    let live = MetricsHandle::new(&registry);
    let off = MetricsHandle::disabled();
    let (mut base, mut inst) = (Vec::new(), Vec::new());
    run(&off); // one unmeasured warm-up for the allocator and the pool
    for _ in 0..REPEATS {
        base.push(run(&off));
        inst.push(run(&live));
    }
    let (b, i) = (median(base), median(inst));
    println!(
        "engine_throughput/instrumentation_overhead: uninstrumented median \
         {:.1} ms, instrumented {:.1} ms ({:+.2}%)",
        b * 1e3,
        i * 1e3,
        (i / b - 1.0) * 100.0
    );
    assert!(
        i <= b * 1.03,
        "instrumented ingest median {:.3} ms exceeds 3% over the \
         uninstrumented {:.3} ms",
        i * 1e3,
        b * 1e3
    );
}

fn bench_engine(c: &mut Criterion) {
    let stream = arrivals(N);
    instrumentation_overhead_guardrail(&stream);

    let mut g = c.benchmark_group("engine_ingest");
    g.sample_size(5);
    g.throughput(Throughput::Elements(N as u64));

    g.bench_with_input(BenchmarkId::new("single_stream", N), &stream, |b, s| {
        b.iter(|| {
            let mut alg = InsertionOnlyCoreset::new(L2, K, Z, EPS);
            for p in s {
                alg.insert(*p);
            }
            black_box(alg.coreset().len())
        });
    });

    for shards in [1usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("sharded", shards), &stream, |b, s| {
            b.iter(|| {
                let engine = Engine::new(L2, EngineConfig::new(shards, K, Z, EPS));
                for batch in s.chunks(4096) {
                    engine.ingest(batch);
                }
                black_box(engine.snapshot().coreset.len())
            });
        });
    }
    // The instrumented engine at the reference shard count: same
    // ingest, plus per-batch spans and counters through a live
    // registry — its median rides next to `sharded/8` in
    // BENCH_engine.json as the recorded overhead evidence.
    g.bench_with_input(
        BenchmarkId::new("sharded_instrumented", 8),
        &stream,
        |b, s| {
            let registry = Registry::new();
            let metrics = MetricsHandle::new(&registry);
            b.iter(|| {
                let engine =
                    Engine::new(L2, EngineConfig::new(8, K, Z, EPS)).with_metrics(&metrics);
                for batch in s.chunks(4096) {
                    engine.ingest(batch);
                }
                black_box(engine.snapshot().coreset.len())
            });
        },
    );
    g.finish();

    // Republish cadence: one shard touched between publishes — the
    // resident serving steady state.  A publish clones only the dirty
    // shard, merges all eight leaves at once and solves.
    let mut g = c.benchmark_group("engine_republish");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("incremental", 8), |b| {
        let engine = Engine::new(L2, EngineConfig::new(8, K, Z, EPS));
        for batch in stream[..200_000].chunks(4096) {
            engine.ingest(batch);
        }
        engine.publish();
        let mut i = 0usize;
        b.iter(|| {
            engine.ingest(&[site_point(i % SITES)]);
            i += 1;
            black_box(engine.publish().epoch)
        });
    });
    // Delta-size sweep: D points ingested between publishes.  At D = 1
    // the merged summary moves by a single weight bump; as D grows the
    // delta adds fresh representatives.  D ≥ 64 also dirties several of
    // the 8 value-hash shards per publish (the multi-dirty-shard case),
    // so the sweep covers leaf re-cloning as well.
    for d in [1usize, 64, 4096] {
        g.bench_function(BenchmarkId::new("delta_sweep", d), |b| {
            let engine = Engine::new(L2, EngineConfig::new(8, K, Z, EPS));
            for batch in stream[..200_000].chunks(4096) {
                engine.ingest(batch);
            }
            engine.publish();
            let mut i = 0usize;
            b.iter(|| {
                let batch: Vec<[f64; 2]> = (0..d).map(|j| site_point((i + j) % SITES)).collect();
                engine.ingest(&batch);
                i += d;
                black_box(engine.publish().epoch)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
