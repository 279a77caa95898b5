//! Stream schedules: shuffles for insertion-only streams, insert/delete
//! churn for the fully dynamic model, and drifting distributions for the
//! sliding-window model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single fully-dynamic stream operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicOp<const D: usize> {
    /// The point being inserted or deleted.
    pub point: [u64; D],
    /// `true` = insertion, `false` = deletion.
    pub insert: bool,
}

/// One operation of a mixed read/write trace: either a write into the
/// resident engine or a point query against its published snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceOp<P> {
    /// Ingest this point (a write).
    Ingest(P),
    /// Query this point against the current published view (a read).
    Query(P),
}

/// Interleaves an ingest stream and a query stream into one mixed trace,
/// deterministically per seed.  Both streams are consumed completely and
/// keep their internal order; at each step the next op is drawn from one
/// of them with probability proportional to how many of its ops remain,
/// so the realized query:ingest ratio matches the input lengths and the
/// mix stays statistically uniform along the whole trace (no burst of
/// leftover queries at the tail).
pub fn mixed_trace<P: Clone>(ingest: &[P], queries: &[P], seed: u64) -> Vec<TraceOp<P>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(ingest.len() + queries.len());
    let (mut i, mut q) = (0usize, 0usize);
    while i < ingest.len() || q < queries.len() {
        let remaining_q = (queries.len() - q) as f64;
        let remaining = remaining_q + (ingest.len() - i) as f64;
        if rng.random_bool(remaining_q / remaining) {
            out.push(TraceOp::Query(queries[q].clone()));
            q += 1;
        } else {
            out.push(TraceOp::Ingest(ingest[i].clone()));
            i += 1;
        }
    }
    out
}

/// Returns the points in a deterministic random order (Fisher–Yates).
pub fn shuffled<P: Clone>(points: &[P], seed: u64) -> Vec<P> {
    let mut out: Vec<P> = points.to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..out.len()).rev() {
        let j = rng.random_range(0..=i);
        out.swap(i, j);
    }
    out
}

/// A strict-turnstile schedule: insert all of `base`, then perform
/// `churn` delete/insert pairs that keep the live set inside `base`
/// (delete a live point, re-insert a currently absent one).  Never deletes
/// an absent point, so the stream is valid for Algorithm 5.
pub fn churn_schedule<const D: usize>(
    base: &[[u64; D]],
    churn: usize,
    seed: u64,
) -> Vec<DynamicOp<D>> {
    assert!(base.len() >= 2, "churn needs at least two points");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(base.len() + 2 * churn);
    let mut live: Vec<usize> = (0..base.len()).collect();
    let mut dead: Vec<usize> = Vec::new();
    for &p in base {
        ops.push(DynamicOp {
            point: p,
            insert: true,
        });
    }
    for _ in 0..churn {
        // Delete a live point...
        let li = rng.random_range(0..live.len());
        let victim = live.swap_remove(li);
        ops.push(DynamicOp {
            point: base[victim],
            insert: false,
        });
        dead.push(victim);
        // ...and resurrect a dead one (possibly the same) to keep the live
        // count roughly constant.
        let di = rng.random_range(0..dead.len());
        let reborn = dead.swap_remove(di);
        ops.push(DynamicOp {
            point: base[reborn],
            insert: true,
        });
        live.push(reborn);
    }
    ops
}

/// A sliding-window stream whose cluster centers drift: `n` arrivals from
/// `k` clusters whose centers advance by `drift` per arrival, with an
/// outlier (uniform far point) every `1/outlier_rate` arrivals on average.
pub fn drifting_stream(
    n: usize,
    k: usize,
    sigma: f64,
    drift: f64,
    outlier_rate: f64,
    seed: u64,
) -> Vec<[f64; 2]> {
    assert!(k >= 1 && sigma > 0.0 && (0.0..1.0).contains(&outlier_rate));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centers: Vec<[f64; 2]> = (0..k).map(|i| [i as f64 * 40.0 * sigma, 0.0]).collect();
    let mut out = Vec::with_capacity(n);
    for t in 0..n {
        for c in centers.iter_mut() {
            c[0] += drift;
            c[1] += drift * 0.3;
        }
        if rng.random_bool(outlier_rate) {
            out.push([
                rng.random_range(-1e4 * sigma..1e4 * sigma),
                1e4 * sigma + rng.random_range(0.0..1e4 * sigma),
            ]);
        } else {
            let c = centers[t % k];
            let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let g0 = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let g1 = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).sin();
            out.push([c[0] + sigma * g0, c[1] + sigma * g1]);
        }
    }
    out
}

/// A phase-shift stream for the engine's window backend: `phases`
/// successive regimes of `per_phase` arrivals each, every regime a
/// Gaussian cluster whose center jumps `gap` away from the previous one
/// (alternating axis directions so consecutive phases never overlap).
/// Once the arrival clock moves a window past a phase boundary, a
/// sliding-window backend must forget the old regime entirely — an
/// insertion-only summary keeps paying for it forever.  Returns the
/// arrivals in phase order.
pub fn phase_shift_stream(
    phases: usize,
    per_phase: usize,
    sigma: f64,
    gap: f64,
    seed: u64,
) -> Vec<[f64; 2]> {
    assert!(phases >= 1 && per_phase >= 1 && sigma > 0.0 && gap > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut center = [0.0f64, 0.0];
    let mut out = Vec::with_capacity(phases * per_phase);
    for phase in 0..phases {
        if phase > 0 {
            // Alternate the jump axis so the path never doubles back
            // onto a previous regime.
            if phase % 2 == 1 {
                center[0] += gap;
            } else {
                center[1] += gap;
            }
        }
        for _ in 0..per_phase {
            let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let g0 = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let g1 = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).sin();
            out.push([center[0] + sigma * g0, center[1] + sigma * g1]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn shuffle_is_permutation() {
        let pts: Vec<u32> = (0..100).collect();
        let s = shuffled(&pts, 3);
        assert_ne!(s, pts);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, pts);
        assert_eq!(s, shuffled(&pts, 3));
    }

    #[test]
    fn churn_is_strict_turnstile() {
        let base: Vec<[u64; 1]> = (0..50u64).map(|i| [i]).collect();
        let ops = churn_schedule(&base, 200, 9);
        let mut live: HashSet<[u64; 1]> = HashSet::new();
        for op in &ops {
            if op.insert {
                assert!(live.insert(op.point), "double insert of {:?}", op.point);
            } else {
                assert!(live.remove(&op.point), "deleting absent {:?}", op.point);
            }
        }
        assert_eq!(live.len(), 50, "churn preserves live count");
    }

    #[test]
    fn mixed_trace_is_an_order_preserving_interleave() {
        let ingest: Vec<u32> = (0..70).collect();
        let queries: Vec<u32> = (1000..1030).collect();
        let trace = mixed_trace(&ingest, &queries, 5);
        assert_eq!(trace.len(), 100);
        assert_eq!(trace, mixed_trace(&ingest, &queries, 5));
        let (mut got_i, mut got_q) = (Vec::new(), Vec::new());
        for op in &trace {
            match op {
                TraceOp::Ingest(p) => got_i.push(*p),
                TraceOp::Query(p) => got_q.push(*p),
            }
        }
        assert_eq!(got_i, ingest, "writes keep their order");
        assert_eq!(got_q, queries, "reads keep their order");
        // The mix is spread along the trace, not dumped at the tail: the
        // first half must already contain reads.
        assert!(trace[..50].iter().any(|op| matches!(op, TraceOp::Query(_))));
    }

    #[test]
    fn mixed_trace_handles_empty_sides() {
        let pts: Vec<u8> = vec![1, 2, 3];
        let t = mixed_trace(&pts, &[], 1);
        assert!(t.iter().all(|op| matches!(op, TraceOp::Ingest(_))));
        let t = mixed_trace(&[], &pts, 1);
        assert!(t.iter().all(|op| matches!(op, TraceOp::Query(_))));
        assert!(mixed_trace::<u8>(&[], &[], 1).is_empty());
    }

    #[test]
    fn drifting_stream_moves() {
        let s = drifting_stream(500, 2, 1.0, 0.5, 0.0, 4);
        assert_eq!(s.len(), 500);
        // Late cluster points are far from early ones.
        let early = s[0];
        let late = s[498];
        let d = ((early[0] - late[0]).powi(2) + (early[1] - late[1]).powi(2)).sqrt();
        assert!(d > 50.0, "drift too small: {d}");
    }

    #[test]
    fn phase_shift_stream_separates_regimes() {
        let s = phase_shift_stream(3, 100, 1.0, 500.0, 7);
        assert_eq!(s.len(), 300);
        assert_eq!(s, phase_shift_stream(3, 100, 1.0, 500.0, 7));
        // Any two points of the same phase are close; any two points of
        // different phases are far (gap ≫ sigma).
        let dist =
            |a: [f64; 2], b: [f64; 2]| ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt();
        for w in [&s[..100], &s[100..200], &s[200..]] {
            for p in w {
                assert!(dist(*p, w[0]) < 100.0, "intra-phase spread too wide");
            }
        }
        assert!(dist(s[0], s[150]) > 250.0, "phases 0 and 1 overlap");
        assert!(dist(s[150], s[250]) > 250.0, "phases 1 and 2 overlap");
        assert!(dist(s[0], s[250]) > 250.0, "the path doubled back");
    }

    #[test]
    fn outliers_appear_at_requested_rate() {
        let s = drifting_stream(2000, 2, 1.0, 0.0, 0.1, 11);
        let outliers = s.iter().filter(|p| p[1] > 1e3).count();
        assert!((100..400).contains(&outliers), "outliers {outliers}");
    }
}
