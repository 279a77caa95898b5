//! Delta-solver conformance: every epoch the delta-aware Charikar
//! solver publishes is certified **bit-for-bit** against a persistent
//! cold-solver engine walking the identical publish schedule.
//!
//! The delta solver's contract is bit-identity *by construction*: each
//! feasibility probe is answered either by a certified cached verdict
//! (provably equal to what a fresh disk-greedy run would return) or by
//! actually running disk-greedy, so the binary search takes the exact
//! same path as a cold solve.  This module replays each scenario in
//! ingest batches on two engines that differ only in
//! [`kcz_engine::SolverMode`], publishing both on the same stride, and
//! compares radius, guess, centers, and uncovered weight at the bit
//! level.  The probe accounting is checked against the same invariant
//! the unit tests assert: `probes + reused_verdicts` on the delta side
//! must equal the cold side's probe count, because reuse may only
//! *answer* probes, never add or remove them.
//!
//! Violations carry the `solver/` tag and ride the conformance report's
//! `replay_violations` array.

use kcz_engine::{Engine, EngineConfig, SolverMode};
use kcz_metric::L2;

use crate::pipeline::ENGINE_BATCH;
use crate::scenario::{catalog, Scenario, Tier};

/// At most this many epochs are certified per scenario: batches are
/// published on a stride, always including the final prefix.
const MAX_EPOCHS: usize = 12;

/// Runs the delta-vs-cold solver check over the tier's catalog.
/// Scenarios are mapped over the shared worker pool; the returned
/// violations are in catalog order.  Empty means every delta-solved
/// epoch is bit-identical to the persistent cold solve.
pub fn solver_violations(tier: Tier) -> Vec<String> {
    kcz_engine::runtime::global()
        .scoped_map(catalog(tier), |_, sc| scenario_violations(&sc))
        .into_iter()
        .flatten()
        .collect()
}

/// The per-scenario body of [`solver_violations`].
fn scenario_violations(sc: &Scenario) -> Vec<String> {
    let mut out = Vec::new();
    if sc.is_empty() {
        return out;
    }
    let tag = |what: &str| format!("{} / solver/{what}", sc.name);
    let cfg = EngineConfig::new(sc.machines, sc.k, sc.z, sc.eps);
    let delta = Engine::new(L2, cfg.with_solver(SolverMode::Delta));
    // The oracle is *persistent*, not from-scratch: it walks the same
    // incremental publish schedule so both solvers see the identical
    // sequence of merged summaries, isolating the solver as the only
    // difference between the two engines.
    let cold = Engine::new(L2, cfg.with_solver(SolverMode::Cold));
    let batches: Vec<&[[f64; 2]]> = sc.points.chunks(ENGINE_BATCH).collect();
    let stride = batches.len().div_ceil(MAX_EPOCHS).max(1);
    for (i, batch) in batches.iter().enumerate() {
        delta.ingest(batch);
        cold.ingest(batch);
        if (i + 1) % stride != 0 && i + 1 != batches.len() {
            continue;
        }
        let ds = delta.publish();
        let cs = cold.publish();
        if ds.epoch != cs.epoch {
            out.push(format!(
                "{}: delta epoch {} vs cold epoch {}",
                tag("epoch"),
                ds.epoch,
                cs.epoch
            ));
            break;
        }
        let same_centers = ds.centers.len() == cs.centers.len()
            && ds
                .centers
                .iter()
                .zip(&cs.centers)
                .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        if ds.radius.to_bits() != cs.radius.to_bits()
            || ds.guess.to_bits() != cs.guess.to_bits()
            || ds.uncovered != cs.uncovered
            || !same_centers
        {
            out.push(format!(
                "{}: epoch {}: radius {:.9} vs {:.9}, guess {:.9} vs {:.9}, \
                 excluded {} vs {}, {} vs {} centers — delta solve diverged from cold",
                tag("publish"),
                ds.epoch,
                ds.radius,
                cs.radius,
                ds.guess,
                cs.guess,
                ds.uncovered,
                cs.uncovered,
                ds.centers.len(),
                cs.centers.len()
            ));
        }
        // Verdict reuse may only *answer* probes the cold search would
        // have made, never change which probes the search makes.
        if ds.stats.solve_probes + ds.stats.reused_verdicts != cs.stats.solve_probes {
            out.push(format!(
                "{}: epoch {}: delta ran {} probes + reused {} verdicts, cold ran {} probes",
                tag("probes"),
                ds.epoch,
                ds.stats.solve_probes,
                ds.stats.reused_verdicts,
                cs.stats.solve_probes
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tier_delta_solves_match_cold() {
        let violations = solver_violations(Tier::Smoke);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn steady_state_epochs_reuse_verdicts() {
        // Streams each smoke scenario, then forces a steady-state
        // epoch: one already-seen point re-ingested is a pure weight
        // bump to the merged summary, the cheapest delta the solver
        // certifies.  Not every scenario reuses (a recompressed merge
        // or tied pick gains conservatively falls back to cold — still
        // bit-identical, just uncached), but across the catalog the
        // verdict cache must answer at least some probes.
        let mut reused = 0usize;
        for sc in catalog(Tier::Smoke) {
            if sc.is_empty() {
                continue;
            }
            let cfg = EngineConfig::new(sc.machines, sc.k, sc.z, sc.eps);
            let engine = Engine::new(L2, cfg);
            for batch in sc.points.chunks(ENGINE_BATCH) {
                engine.ingest(batch);
                reused += engine.publish().stats.reused_verdicts;
            }
            engine.ingest(&sc.points[..1]);
            reused += engine.publish().stats.reused_verdicts;
        }
        assert!(reused > 0, "no epoch reused any cached verdict");
    }
}
