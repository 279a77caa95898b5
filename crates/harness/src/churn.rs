//! Churn conformance: the engine's sliding-window backend, judged by
//! from-scratch oracles.
//!
//! Every scenario is replayed through a windowed engine with mid-stream
//! publishes; each checked epoch must be bit-identical to a brand-new
//! windowed engine fed *only the unexpired suffix* of the arrival stream
//! (no cache, no warm state, no expired point ever seen), every
//! published representative and center must be a live-suffix location,
//! and the final epoch's certified `(3 + 8ε′)` bound is re-measured
//! against the exact discrete optimum *of the suffix* (oracle
//! scenarios).
//!
//! Violations are strings ready for the conformance judge; they carry
//! the `churn/` tag and ride the `replay_violations` array in the JSON
//! report.

use std::collections::HashSet;

use kcz_engine::{Engine, EngineConfig, Snapshot, WINDOW_RHO_MIN};
use kcz_kcenter::{cost_with_outliers, exact_discrete};
use kcz_metric::{Weighted, L2};

use crate::pipeline::ENGINE_BATCH;
use crate::scenario::{catalog, Scenario, Tier};

/// Float tolerance for the oracle-bound re-check (matches the pipeline
/// verdicts' slack).
const TOL: f64 = 1e-6;

/// At most this many epochs are certified per scenario.
const MAX_EPOCHS: usize = 8;

/// Runs the churn checks over the tier's catalog.  Scenarios are mapped
/// over the shared worker pool; the returned violations are in catalog
/// order.  Empty means every churn epoch is certified.
pub fn churn_violations(tier: Tier) -> Vec<String> {
    kcz_engine::runtime::global()
        .scoped_map(catalog(tier), |_, sc| window_violations(&sc))
        .into_iter()
        .flatten()
        .collect()
}

/// The bit-identity surface two published epochs are compared on.
fn bits(snap: &Snapshot<[f64; 2]>) -> impl PartialEq + std::fmt::Debug {
    (
        snap.radius.to_bits(),
        snap.uncovered,
        snap.bound_factor.to_bits(),
        snap.effective_eps.to_bits(),
        snap.stats.summary_words,
        snap.centers
            .iter()
            .map(|c| [c[0].to_bits(), c[1].to_bits()])
            .collect::<Vec<_>>(),
        snap.coreset
            .iter()
            .map(|w| (w.point[0].to_bits(), w.point[1].to_bits(), w.weight))
            .collect::<Vec<_>>(),
    )
}

/// Window checks for one scenario: suffix-replay bit-identity per
/// checked epoch, live-suffix membership, and the final-epoch bound
/// against the exact optimum of the suffix.
fn window_violations(sc: &Scenario) -> Vec<String> {
    let mut out = Vec::new();
    if sc.is_empty() {
        return out;
    }
    let tag = |what: &str| format!("{} / churn/window/{what}", sc.name);
    // Half the stream (floored to whole batches' worth of slack): most
    // scenarios see genuine expiry, tiny ones degrade to no-expiry runs
    // that still certify the machinery.
    let window = (sc.points.len() as u64 / 2).max(16);
    let cfg = EngineConfig::new(sc.machines, sc.k, sc.z, sc.eps).windowed(window);
    let engine = Engine::new(L2, cfg);
    let batches: Vec<&[[f64; 2]]> = sc.points.chunks(ENGINE_BATCH).collect();
    let stride = batches.len().div_ceil(MAX_EPOCHS).max(1);
    let mut fed = 0usize;
    let mut last: Option<(Snapshot<[f64; 2]>, usize)> = None;
    for (i, batch) in batches.iter().enumerate() {
        engine.ingest(batch);
        fed += batch.len();
        if (i + 1) % stride != 0 && i + 1 != batches.len() {
            continue;
        }
        let snap = engine.publish();
        if snap.clock != fed as u64 {
            out.push(format!(
                "{}: clock {} after {fed} arrivals",
                tag("clock"),
                snap.clock
            ));
        }
        let live = fed.min(window as usize);
        let suffix = &sc.points[fed - live..fed];
        // Oracle: a brand-new windowed engine that has only ever seen
        // the unexpired suffix, publishing once.
        let scratch = Engine::new(L2, cfg);
        scratch.ingest(suffix);
        let oracle = scratch.snapshot();
        if bits(&snap) != bits(&oracle) {
            out.push(format!(
                "{}: suffix of {live} arrivals at clock {}: radius {:.9} vs {:.9}, \
                 excluded {} vs {} — windowed publish diverged from suffix replay",
                tag("replay"),
                snap.clock,
                snap.radius,
                oracle.radius,
                snap.uncovered,
                oracle.uncovered
            ));
        }
        // Membership: everything the epoch publishes must be a live
        // location — an expired point in the summary is the staleness
        // bug the backend state versions exist to close.
        let live_set: HashSet<[u64; 2]> = suffix
            .iter()
            .map(|p| [p[0].to_bits(), p[1].to_bits()])
            .collect();
        for p in snap
            .coreset
            .iter()
            .map(|w| &w.point)
            .chain(snap.centers.iter())
        {
            if !live_set.contains(&[p[0].to_bits(), p[1].to_bits()]) {
                out.push(format!(
                    "{}: published location {p:?} is not in the live window",
                    tag("membership")
                ));
                break;
            }
        }
        last = Some(((*snap).clone(), live));
    }
    // The final epoch's certified bound, judged against the exact
    // discrete optimum of the window it summarizes.
    if let (Some((snap, live)), true) = (last, sc.oracle) {
        let suffix: Vec<Weighted<[f64; 2]>> = sc.points[sc.points.len() - live..]
            .iter()
            .map(|&p| Weighted::new(p, 1))
            .collect();
        let mut distinct: Vec<[f64; 2]> = Vec::new();
        let mut seen: HashSet<[u64; 2]> = HashSet::new();
        for w in &suffix {
            if seen.insert([w.point[0].to_bits(), w.point[1].to_bits()]) {
                distinct.push(w.point);
            }
        }
        if !snap.centers.is_empty() && !distinct.is_empty() {
            let opt = exact_discrete(&L2, &suffix, sc.k, sc.z, &distinct).radius;
            let achieved = cost_with_outliers(&L2, &suffix, &snap.centers, sc.z);
            // The window pass's guess granularity contributes the same
            // `ε·ρ_min` additive slack the sliding pipeline certifies.
            let slack = sc.eps * WINDOW_RHO_MIN + TOL;
            if achieved > (snap.bound_factor + TOL) * opt + slack {
                out.push(format!(
                    "{}: achieved radius {:.6} on the live window > {:.2}·opt \
                     (opt = {:.6})",
                    tag("bound"),
                    achieved,
                    snap.bound_factor,
                    opt
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tier_churn_epochs_are_certified() {
        let violations = churn_violations(Tier::Smoke);
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
