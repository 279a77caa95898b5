//! Observability conformance: the MPC communication accounting the
//! metrics layer exports is certified against the algorithms' own
//! `MpcRunStats`.
//!
//! The paper's Table 1 states *per-round* communication bounds, so the
//! registry exports one counter per round
//! (`mpc.<alg>.round<i>.comm_words`) next to the total.  This module
//! re-runs the four MPC algorithms on each catalog scenario (the same
//! round-robin partition the pipeline adapter uses) and checks, per run:
//!
//! 1. the per-round split is complete — `round_comm_words.len()` equals
//!    the algorithm's round count and the entries sum to `comm_words`;
//! 2. the registry is faithful — recording the run into a fresh
//!    [`kcz_obs::Registry`] reproduces every per-round word count and the
//!    total exactly (no lost or double-counted words on the way out).
//!
//! Each checked run is also recorded into the caller's session
//! [`MetricsHandle`], so a `kcz conformance --metrics` export carries the
//! accumulated `mpc.*` accounting that this pass just certified.
//!
//! Violations carry the `obs/` tag and ride the conformance report's
//! `replay_violations` array.

use kcz_kcenter::charikar::GreedyParams;
use kcz_metric::L2;
use kcz_mpc::{ceccarello_one_round, one_round_randomized, r_round, two_round, MpcRunStats};
use kcz_obs::{MetricsHandle, Registry};
use kcz_workloads::round_robin;

use crate::scenario::{catalog, Scenario, Tier};

/// Runs the observability check over the tier's catalog.  Scenarios are
/// mapped over the shared worker pool; the returned violations are in
/// catalog order.  Empty means every MPC run's per-round communication
/// split is complete and the registry reproduces it exactly.  Recording
/// into `metrics` is cumulative across the whole pass (pass
/// [`MetricsHandle::disabled`] to check without exporting).
pub fn obs_violations(tier: Tier, metrics: &MetricsHandle) -> Vec<String> {
    kcz_engine::runtime::global()
        .scoped_map(catalog(tier), |_, sc| scenario_violations(&sc, metrics))
        .into_iter()
        .flatten()
        .collect()
}

/// The per-scenario body of [`obs_violations`].
fn scenario_violations(sc: &Scenario, metrics: &MetricsHandle) -> Vec<String> {
    let mut out = Vec::new();
    if sc.is_empty() {
        return out;
    }
    let parts = round_robin(&sc.points, sc.machines);
    let params = GreedyParams::default();
    let runs: [(&'static str, MpcRunStats); 4] = [
        (
            "two_round",
            two_round(&L2, &parts, sc.k, sc.z, sc.eps, &params)
                .output
                .stats,
        ),
        (
            "one_round",
            one_round_randomized(&L2, &parts, sc.k, sc.z, sc.eps, &params)
                .output
                .stats,
        ),
        (
            "r_round",
            r_round(&L2, &parts, sc.k, sc.z, sc.eps, sc.rounds, &params).stats,
        ),
        (
            "baseline",
            ceccarello_one_round(&L2, &parts, sc.k, sc.z, sc.eps, &params).stats,
        ),
    ];
    for (alg, stats) in runs {
        let tag = |what: &str| format!("{} / obs/mpc/{alg}/{what}", sc.name);
        if stats.round_comm_words.len() != stats.rounds {
            out.push(format!(
                "{}: {} per-round entries for {} rounds",
                tag("rounds"),
                stats.round_comm_words.len(),
                stats.rounds
            ));
        }
        let sum: u64 = stats.round_comm_words.iter().sum();
        if sum != stats.comm_words {
            out.push(format!(
                "{}: per-round words {:?} sum to {} but the run sent {}",
                tag("sum"),
                stats.round_comm_words,
                sum,
                stats.comm_words
            ));
        }
        // Registry faithfulness: one recorded run into a fresh registry
        // must reproduce the stats bit for bit.
        let local = Registry::new();
        stats.record_comm(&MetricsHandle::new(&local), alg);
        let total_name = format!("mpc.{alg}.comm_words");
        if local.counter_value(&total_name) != Some(stats.comm_words) {
            out.push(format!(
                "{}: registry {total_name} = {:?}, run sent {}",
                tag("registry"),
                local.counter_value(&total_name),
                stats.comm_words
            ));
        }
        for (i, &w) in stats.round_comm_words.iter().enumerate() {
            let name = format!("mpc.{alg}.round{}.comm_words", i + 1);
            if local.counter_value(&name) != Some(w) {
                out.push(format!(
                    "{}: registry {name} = {:?}, round sent {w}",
                    tag("registry"),
                    local.counter_value(&name)
                ));
            }
        }
        // The certified run also feeds the session export.
        stats.record_comm(metrics, alg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tier_accounting_is_certified() {
        let violations = obs_violations(Tier::Smoke, &MetricsHandle::disabled());
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn session_registry_accumulates_certified_totals() {
        let registry = Registry::new();
        let handle = MetricsHandle::new(&registry);
        let violations = obs_violations(Tier::Smoke, &handle);
        assert!(violations.is_empty(), "{violations:#?}");
        // Every algorithm's totals landed in the session registry, and
        // the exported per-round counters sum back to the exported total.
        for alg in ["two_round", "one_round", "r_round", "baseline"] {
            let total = registry
                .counter_value(&format!("mpc.{alg}.comm_words"))
                .unwrap_or_else(|| panic!("missing mpc.{alg}.comm_words"));
            assert!(total > 0, "mpc.{alg} recorded no communication");
            let per_round: u64 = registry
                .counters()
                .into_iter()
                .filter(|(name, _)| {
                    name.starts_with(&format!("mpc.{alg}.round")) && name.ends_with(".comm_words")
                })
                .map(|(_, v)| v)
                .sum();
            assert_eq!(per_round, total, "mpc.{alg} round split disagrees");
        }
    }
}
