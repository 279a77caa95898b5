//! Guards for the metrics layer on the read path: a recorded scalar
//! query must not allocate at steady state, and instrumented scalar
//! assigns must answer within 3% of uninstrumented ones, by the median
//! of paired runs.
//!
//! The counting allocator below counts per thread, so allocations by
//! the test harness's other threads cannot fail a test.  The overhead
//! check times optimized code, so it is ignored in a plain `cargo test`;
//! run it in release, one test at a time:
//!
//! ```text
//! cargo test --release -p kcz-serve --test query_alloc -- --ignored --test-threads=1 --nocapture
//! ```

use kcz_engine::{Engine, EngineConfig};
use kcz_metric::L2;
use kcz_obs::{MetricsHandle, Registry};
use kcz_serve::QueryEngine;
use kcz_workloads::query_trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The system allocator, counting allocations and reallocations made
/// by the calling thread.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and never fails during thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const K: usize = 8;
const Z: u64 = 64;
const EPS: f64 = 1.0;
const SHARDS: usize = 4;
/// Points ingested before the one published epoch the queries read.
const N_INGEST: usize = 50_000;
/// Scalar assigns the overhead check times per run.
const N_QUERIES: usize = 1_000_000;
/// Scalar queries before the counted ones, to fault in lazy state.
const WARM_UP: usize = 64;
/// Scalar queries counted by the allocation guard.
const COUNTED: usize = 8192;

/// The cluster cores the ingest stream and the query keys both draw
/// from, hottest-first (the Zipf ranking of `query_trace`).
fn sites() -> Vec<[f64; 2]> {
    (0..K)
        .map(|i| [(i % 4) as f64 * 5e3, (i / 4) as f64 * 5e3])
        .collect()
}

/// `n` Zipf-skewed probes: 90% near the rank-weighted cluster cores,
/// 10% far probes.
fn probes(n: usize) -> Vec<[f64; 2]> {
    query_trace(n, &sites(), 1.1, 60.0, 0.1, 0x9E4B)
}

/// An engine with `N_INGEST` points ingested and one epoch published.
fn serving_engine() -> Arc<Engine<[f64; 2], L2>> {
    let engine = Arc::new(Engine::new(L2, EngineConfig::new(SHARDS, K, Z, EPS)));
    let stream = query_trace(N_INGEST, &sites(), 0.0, 40.0, 0.001, 0x1A57);
    for batch in stream.chunks(4096) {
        engine.ingest(batch);
    }
    let snap = engine.publish();
    assert_eq!(snap.centers.len(), K, "all planted clusters solved");
    engine
}

/// A recorded scalar query — counter bump, view acquisition (read lock
/// plus `Arc` clone), deferred-`sqrt` kernel scan over `k` centers —
/// must not allocate: the instruments are pre-registered atomics and
/// the answer is returned by value.
#[test]
fn recorded_query_is_allocation_free() {
    let probes = probes(WARM_UP + COUNTED);
    let registry = Registry::new();
    let metrics = MetricsHandle::new(&registry);
    let query = QueryEngine::with_metrics(serving_engine(), &metrics);
    query.refresh();
    let mut covered = 0usize;
    for p in &probes[..WARM_UP] {
        covered += query.assign(p).is_some() as usize;
    }
    let before = allocations();
    for p in &probes[WARM_UP..] {
        covered += query.assign(p).is_some() as usize;
    }
    let allocated = allocations() - before;
    black_box(covered);
    assert_eq!(
        allocated, 0,
        "recorded scalar queries allocated {allocated} times \
         (the instrumented serve path must touch only pre-registered atomics)"
    );
    assert_eq!(
        registry.counter_value("query.scalar.queries"),
        Some((WARM_UP + COUNTED) as u64),
        "every served query must be counted"
    );
}

/// Overhead guard for the read side: 1M scalar [`QueryEngine::assign`]
/// calls, the path `kcz query` and the benchmark's `serve` workload
/// serve, must answer within 3% with the served-query counter recording
/// into a live registry as with a disabled handle.
/// One unmeasured warm-up of each side, then 15 pairs that alternate
/// which side runs first, so drift of the host hits both sides alike;
/// the verdict is the median of the per-pair instrumented/uninstrumented
/// ratios.
#[test]
#[ignore = "times optimized code: run in release with --ignored"]
fn instrumented_assign_is_within_3_percent_of_uninstrumented() {
    let probes = probes(N_QUERIES);
    let run = |metrics: &MetricsHandle| {
        let query = QueryEngine::with_metrics(serving_engine(), metrics);
        query.refresh();
        let t0 = Instant::now();
        let mut covered = 0usize;
        for p in &probes {
            covered += query.assign(p).is_some() as usize;
        }
        black_box(covered);
        t0.elapsed().as_secs_f64()
    };
    const PAIRS: usize = 15;
    let registry = Registry::new();
    let live = MetricsHandle::new(&registry);
    let off = MetricsHandle::disabled();
    // One warm-up per side, so that neither side's first timed run pays
    // the process's first-run costs.
    run(&off);
    run(&live);
    let ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let b = run(&off);
                run(&live) / b
            } else {
                let i = run(&live);
                i / run(&off)
            }
        })
        .collect();
    let mut sorted = ratios.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[PAIRS / 2];
    println!(
        "scalar assign: instrumented/uninstrumented per pair {ratios:.3?}, median {:+.2}%",
        (median - 1.0) * 100.0
    );
    assert!(
        median <= 1.03,
        "instrumented scalar assign is {:+.2}% over uninstrumented by the \
         median of {PAIRS} paired ratios, past the 3% bound",
        (median - 1.0) * 100.0
    );
}
