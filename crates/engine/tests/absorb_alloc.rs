//! Guards for the metrics layer on the ingest path.  A steady-state
//! insert that lands on an existing representative must not allocate,
//! with or without instrumentation; the guard covers the fix that
//! removed the per-call clone of every representative from the
//! summary's pairwise-distance scan.  And an instrumented engine must
//! ingest within 3% of an uninstrumented one, by the median of paired
//! runs.
//!
//! The counting allocator below counts per thread, so allocations by
//! the test harness's other threads cannot fail a test.  The overhead
//! check times optimized code, so it is ignored in a plain `cargo test`;
//! run it in release, one test at a time:
//!
//! ```text
//! cargo test --release -p kcz-engine --test absorb_alloc -- --ignored --test-threads=1 --nocapture
//! ```

use kcz_engine::{Engine, EngineConfig};
use kcz_metric::L2;
use kcz_obs::{MetricsHandle, Registry};
use kcz_streaming::InsertionOnlyCoreset;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
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

/// Distinct sites.  Below the streaming capacity for (k, z, ε) below, so
/// the summary holds one representative per site and never re-clusters —
/// the absorb scan over ~`SITES` representatives is the steady state.
const SITES: usize = 1_500;
const K: usize = 8;
const Z: u64 = 32;
const EPS: f64 = 1.0;
/// Arrivals counted per check.
const ABSORBS: usize = 4 * SITES;

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

/// A summary holding one representative per site, so every arrival of
/// [`arrivals`] lands on the absorb path.
fn warmed_up() -> InsertionOnlyCoreset<[f64; 2], L2> {
    let mut alg = InsertionOnlyCoreset::new(L2, K, Z, EPS);
    for site in 0..SITES {
        alg.insert(site_point(site));
    }
    alg
}

/// Once a representative exists for a site, inserting that site again
/// (one find-within scan over the representatives, a saturating weight
/// bump and the words recount) must not allocate.
#[test]
fn absorb_path_is_allocation_free() {
    let stream = arrivals(ABSORBS);
    let mut alg = warmed_up();
    let reps_before = alg.coreset().len();
    let before = allocations();
    for p in &stream {
        alg.insert(*p);
    }
    let allocated = allocations() - before;
    assert_eq!(
        alg.coreset().len(),
        reps_before,
        "warm-up must have established every representative"
    );
    assert_eq!(
        allocated, 0,
        "absorb-path inserts allocated {allocated} times \
         (the scan must borrow the representatives, not clone them)"
    );
}

/// The instrumented absorb path must be just as allocation-free: one
/// span (two monotonic clock reads + one atomic histogram record) and
/// one counter bump per insert touch only pre-registered atomics.
/// Registration happens once up front — steady-state recording never
/// takes the registry lock or names a metric.
#[test]
fn instrumented_absorb_is_allocation_free() {
    let stream = arrivals(ABSORBS);
    let registry = Registry::new();
    let metrics = MetricsHandle::new(&registry);
    // Pre-registered instruments: the only allocating step.
    let span = metrics.stage("bench.absorb.span_ns");
    let absorbs = metrics.counter("bench.absorb.inserts");
    let mut alg = warmed_up();
    let before = allocations();
    for p in &stream {
        let t = span.start();
        alg.insert(*p);
        t.finish();
        absorbs.incr();
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "instrumented absorb-path inserts allocated {allocated} times \
         (recording must touch only pre-registered atomics)"
    );
    let hist = registry
        .histogram_snapshot("bench.absorb.span_ns")
        .expect("span registered");
    assert_eq!(hist.count(), ABSORBS as u64);
    assert_eq!(
        registry.counter_value("bench.absorb.inserts"),
        Some(ABSORBS as u64)
    );
}

/// Overhead guard for the metrics layer: a fully instrumented engine
/// (live registry, monotonic clock, per-batch spans) must ingest 1M
/// arrivals into 8 shards within 3% of an uninstrumented one.  One
/// unmeasured warm-up, then 15 pairs that alternate which side runs
/// first, so drift of the host hits both sides alike; the verdict is
/// the median of the per-pair instrumented/uninstrumented ratios.
#[test]
#[ignore = "times optimized code: run in release with --ignored"]
fn instrumented_ingest_is_within_3_percent_of_uninstrumented() {
    let stream = arrivals(1_000_000);
    let run = |metrics: &MetricsHandle| {
        let t0 = Instant::now();
        let engine = Engine::new(L2, EngineConfig::new(8, K, Z, EPS)).with_metrics(metrics);
        for batch in stream.chunks(4096) {
            engine.ingest(batch);
        }
        black_box(engine.snapshot().coreset.len());
        t0.elapsed().as_secs_f64()
    };
    const PAIRS: usize = 15;
    let registry = Registry::new();
    let live = MetricsHandle::new(&registry);
    let off = MetricsHandle::disabled();
    run(&off);
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
        "ingest: instrumented/uninstrumented per pair {ratios:.3?}, median {:+.2}%",
        (median - 1.0) * 100.0
    );
    assert!(
        median <= 1.03,
        "instrumented ingest is {:+.2}% over uninstrumented by the median \
         of {PAIRS} paired ratios, past the 3% bound",
        (median - 1.0) * 100.0
    );
}
