//! Seeded input generation.  The program under test receives only what
//! these functions return; the same seed gives the same inputs.

use kcz_workloads::{mixed_trace, query_trace, TraceOp};

pub type Pt = [f64; 2];

/// Distinct sites of the grid workloads: a 50 × 30 grid spaced far above
/// the absorb threshold, so every arrival is an exact repeat of a site.
const GRID_SITES: usize = 1500;
/// Arrivals per `ingest` pass (one publish at the end of each pass).
pub const INGEST_PASS: usize = 1_000_000;
/// Arrivals of the grid stream: preloaded during set-up, then cycled
/// through by the loop.
pub const GRID_STREAM: usize = 200_000;
/// Points preloaded into the `serve` engine during set-up (enough that
/// the trace's writes barely grow the summary).
const SERVE_PRELOAD: usize = 200_000;
/// Writes in one cycle of the `serve` trace; reads are four times as many.
const SERVE_WRITES: usize = 50_000;
/// Query keys the grid workloads cycle through to sample the read path.
const READ_PROBES: usize = 100_000;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An independent sub-seed per input stream of one run.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// The seed of one segment of a run.
pub fn segment_seed(seed: u64, segment: u64) -> u64 {
    sub_seed(seed, 1000 + segment)
}

fn grid_site(i: usize) -> Pt {
    [(i % 50) as f64 * 1e4, (i / 50) as f64 * 1e4]
}

/// `n` seeded uniform arrivals over the grid sites.
pub fn grid_stream(n: usize, seed: u64) -> Vec<Pt> {
    let mut s = sub_seed(seed, 1) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            grid_site((s >> 16) as usize % GRID_SITES)
        })
        .collect()
}

/// Scalar query keys over the grid: Zipf-skewed sites, 10 % far probes.
pub fn grid_probes(seed: u64) -> Vec<Pt> {
    let sites: Vec<Pt> = (0..GRID_SITES).map(grid_site).collect();
    query_trace(READ_PROBES, &sites, 1.1, 2e3, 0.1, sub_seed(seed, 2))
}

/// The 8 Gaussian cluster cores of `serve`, hottest first.
fn serve_sites() -> Vec<Pt> {
    (0..8)
        .map(|i| [(i % 4) as f64 * 5e3, (i / 4) as f64 * 5e3])
        .collect()
}

/// Distinct noisy points around the serve sites (σ = 40).
pub fn serve_preload(seed: u64) -> Vec<Pt> {
    query_trace(
        SERVE_PRELOAD,
        &serve_sites(),
        0.0,
        40.0,
        0.0,
        sub_seed(seed, 3),
    )
}

/// Reads (Zipf 1.1, 10 % far probes) mixed 4:1 with distinct noisy writes.
pub fn serve_trace(seed: u64) -> Vec<TraceOp<Pt>> {
    let sites = serve_sites();
    let writes = query_trace(SERVE_WRITES, &sites, 0.0, 40.0, 0.0, sub_seed(seed, 4));
    let reads = query_trace(4 * SERVE_WRITES, &sites, 1.1, 60.0, 0.1, sub_seed(seed, 5));
    mixed_trace(&writes, &reads, sub_seed(seed, 6))
}
