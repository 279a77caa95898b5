//! The host gauge.  On a shared host the CPU under the benchmark can run
//! a quarter slower for a whole run while neighbours load the same
//! physical cores, and such a slowdown moves the program and any other
//! code alike.  The gauge times a fixed piece of the benchmark's own work
//! shaped like the program's hot loops: branch-free distance scans over
//! a few hundred 2-D points, throughput-bound like the program's
//! vectorised kernels (a neighbour on the same physical core slows such
//! loops far more than latency-bound ones), and a chain of dependent
//! loads through a buffer larger than a core's own caches, which a
//! neighbour that fills the shared cache slows the way it slows the
//! program's summaries and distance matrices.
//!
//! Each segment of a run reads the gauge about every 50 ms, and every
//! end-to-end timing is reported at the gauge's nominal pace: measured
//! time × [`NOMINAL_NS`] / the segment's mean reading.  The mean, not the
//! median or the fastest reading, because a neighbour that loads the host
//! a third of the time slows a third of the program's calls.  The gauge
//! runs none of the program's code, so a change to the program moves the
//! figures while a change of host speed leaves them in place.

use std::cell::{Cell, OnceCell};
use std::hint::black_box;
use std::time::Instant;

/// Points scanned per query.
const POINTS: usize = 256;
/// Queries of one pass.
const QUERIES: usize = 256;
/// Independent minima per query, so the scan is not one dependent chain.
const LANES: usize = 8;
/// Passes per reading.
const PASSES: u64 = 3;
/// Entries of the load chain: 2 MB of `u32`.
const CHAIN: usize = 1 << 19;
/// Dependent loads per pass.
const LOADS: usize = 128;
/// A reading at which the figures are reported as measured: about one
/// pass on an uncontended core of the 2.1 GHz Xeon host the benchmark was
/// tuned on.
pub const NOMINAL_NS: f64 = 42_000.0;

thread_local! {
    /// One cycle through all of [`CHAIN`] entries in a fixed scrambled
    /// order, built on first use, and where the last reading stopped.
    static LOADS_CHAIN: OnceCell<Vec<u32>> = const { OnceCell::new() };
    static AT: Cell<u32> = const { Cell::new(0) };
}

/// One reading: the mean time of a pass, in ns.
pub fn read() -> u64 {
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        [(s >> 40) as f64, (s & 0xFF_FFFF) as f64]
    };
    let (mut xs, mut ys) = ([0.0; POINTS], [0.0; POINTS]);
    for i in 0..POINTS {
        [xs[i], ys[i]] = next();
    }
    let queries: Vec<[f64; 2]> = (0..QUERIES).map(|_| next()).collect();
    LOADS_CHAIN.with(|chain| {
        let chain = chain.get_or_init(build_chain);
        let mut at = AT.get();
        let t0 = Instant::now();
        for _ in 0..PASSES {
            black_box(pass(black_box(&xs), black_box(&ys), black_box(&queries)));
            for _ in 0..LOADS {
                at = chain[at as usize];
            }
        }
        let ns = t0.elapsed().as_nanos() as u64 / PASSES;
        AT.set(black_box(at));
        ns
    })
}

/// A single cycle through every entry (Sattolo's shuffle), so the loads
/// never settle into a short loop that stays cached.
fn build_chain() -> Vec<u32> {
    let mut order: Vec<u32> = (0..CHAIN as u32).collect();
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..CHAIN).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s % i as u64) as usize);
    }
    let mut chain = vec![0u32; CHAIN];
    for w in 0..CHAIN {
        chain[order[w] as usize] = order[(w + 1) % CHAIN];
    }
    chain
}

/// For each query, the least squared distance to any point, summed.
fn pass(xs: &[f64; POINTS], ys: &[f64; POINTS], queries: &[[f64; 2]]) -> f64 {
    let mut acc = 0.0;
    for q in queries {
        let mut best = [f64::INFINITY; LANES];
        for (x, y) in xs.chunks_exact(LANES).zip(ys.chunks_exact(LANES)) {
            for j in 0..LANES {
                let (dx, dy) = (x[j] - q[0], y[j] - q[1]);
                let d = dx * dx + dy * dy;
                best[j] = if d < best[j] { d } else { best[j] };
            }
        }
        acc += best.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    }
    acc
}

/// The pace of a set of readings: their mean over [`NOMINAL_NS`], each
/// reading capped at twice the median so that one descheduled pass
/// cannot outweigh the rest.  Above 1 the host ran slower than nominal.
pub fn pace(readings: &[u64]) -> f64 {
    let mut v = readings.to_vec();
    v.sort_unstable();
    let cap = 2 * v[v.len() / 2];
    let mean = v.iter().map(|&r| r.min(cap)).sum::<u64>() as f64 / v.len() as f64;
    mean / NOMINAL_NS
}
