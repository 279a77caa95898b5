//! Query conformance: every answer served from a published snapshot is
//! re-checked against brute force **on that same snapshot**, and the
//! epoch's certified ratio bound is re-checked against the exact oracle.
//!
//! The read side (`kcz-serve`) promises three things per epoch, and this
//! module makes each one a checkable verdict:
//!
//! 1. **Exactness** — `assign(p)` returns the true nearest center of the
//!    served epoch, at the exact scalar distance (the deferred-`sqrt`
//!    kernels must be invisible);
//! 2. **Verdict coherence** — `classify(p, r)` says covered iff the
//!    assigned distance is `≤ r`, and at the radius that the epoch's
//!    centers actually achieve on the full input, the uncovered weight
//!    fits the outlier budget `z`;
//! 3. **The paper bound** — that achieved radius is within the epoch's
//!    certified `(3+8ε′)·opt` against [`kcz_kcenter::exact_discrete`]
//!    (oracle scenarios), the same bound the write-side pipeline
//!    certifies.
//!
//! Violations are strings ready for the conformance judge; `kcz
//! conformance` merges them with the pipeline violations and exits 3 if
//! any survive.

use kcz_kcenter::cost_with_outliers;
use kcz_metric::{total_weight, MetricSpace, L2};
use kcz_serve::QueryEngine;
use std::sync::Arc;

use crate::pipeline::scenario_engine;
use crate::report::exact_radius;
use crate::scenario::{catalog, Scenario, Tier};

/// Float tolerance for the oracle-bound re-check (matches the pipeline
/// verdicts' slack).
const TOL: f64 = 1e-6;

/// Runs the query-conformance check over the tier's catalog: builds the
/// resident engine per scenario, publishes a snapshot, and re-checks
/// every served answer.  Scenarios are mapped over the shared worker
/// pool; the returned violations are in catalog order.  Empty means the
/// read side conforms.
pub fn query_violations(tier: Tier) -> Vec<String> {
    kcz_engine::runtime::global()
        .scoped_map(catalog(tier), |_, sc| scenario_violations(&sc))
        .into_iter()
        .flatten()
        .collect()
}

/// The per-scenario body of [`query_violations`].
fn scenario_violations(sc: &Scenario) -> Vec<String> {
    let mut out = Vec::new();
    if sc.is_empty() {
        return out;
    }
    // The one shared construction path (`scenario_engine`): this check
    // judges bit-for-bit the snapshot the engine pipeline's verdict
    // certified.
    let query = QueryEngine::new(Arc::new(scenario_engine(sc)));
    let view = query.refresh();
    let tag = |what: &str| format!("{} / query/{what}", sc.name);

    let weighted = sc.weighted();
    let total = total_weight(&weighted);
    let centers = view.centers();
    if centers.is_empty() {
        // Legitimate only when the whole weight fits the budget.
        if total > sc.z {
            out.push(format!(
                "{}: no centers served although weight {total} exceeds z = {}",
                tag("assign"),
                sc.z
            ));
        }
        return out;
    }

    // 1. Exactness: served assignment == brute-force nearest on the
    //    same frozen snapshot, at the exact scalar distance.
    for p in &sc.points {
        let Some(a) = query.assign(p) else {
            out.push(format!("{}: no answer for {p:?}", tag("assign")));
            continue;
        };
        let brute = centers
            .iter()
            .map(|c| L2.dist(p, c))
            .fold(f64::INFINITY, f64::min);
        let direct = L2.dist(p, &centers[a.center]);
        if a.dist != direct || a.dist != brute {
            out.push(format!(
                "{}: {p:?} served center {} at {:.9}, scalar {:.9}, brute-force {:.9}",
                tag("assign"),
                a.center,
                a.dist,
                direct,
                brute
            ));
        }
        if a.epoch != view.epoch() {
            out.push(format!(
                "{}: answer epoch {} != served epoch {}",
                tag("assign"),
                a.epoch,
                view.epoch()
            ));
        }
    }

    // 2. Verdict coherence at the radius the epoch's centers actually
    //    achieve on the full input: uncovered weight must fit z, and
    //    every verdict must agree with its own assignment distance.
    let achieved = cost_with_outliers(&L2, &weighted, centers, sc.z);
    let mut uncovered = 0u64;
    for wp in &weighted {
        let verdict = query.classify(&wp.point, achieved);
        let expect = verdict.dist <= achieved;
        if verdict.covered != expect {
            out.push(format!(
                "{}: {:?} covered = {} but dist {:.9} vs r {:.9}",
                tag("classify"),
                wp.point,
                verdict.covered,
                verdict.dist,
                achieved
            ));
        }
        if !verdict.covered {
            uncovered += wp.weight;
        }
        if verdict.bound_factor != view.bound_factor() {
            out.push(format!(
                "{}: verdict quotes factor {} instead of the epoch's {}",
                tag("classify"),
                verdict.bound_factor,
                view.bound_factor()
            ));
        }
    }
    if uncovered > sc.z {
        out.push(format!(
            "{}: {uncovered} weight uncovered at the achieved radius exceeds z = {}",
            tag("classify"),
            sc.z
        ));
    }

    // 3. The epoch's certified bound against the exact oracle.
    if let Some(opt) = exact_radius(sc) {
        if achieved > (view.bound_factor() + TOL) * opt + TOL {
            out.push(format!(
                "{}: achieved radius {:.6} > {:.2}·opt (opt = {:.6})",
                tag("bound"),
                achieved,
                view.bound_factor(),
                opt
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tier_serves_conformant_answers() {
        let violations = query_violations(Tier::Smoke);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn single_scenario_check_is_clean_and_cheap() {
        let sc = catalog(Tier::Smoke)
            .into_iter()
            .find(|s| s.name == "duplicate_mass")
            .unwrap();
        assert!(scenario_violations(&sc).is_empty());
        // The z ≥ n scenario must serve an empty (yet conformant) view.
        let sc = catalog(Tier::Smoke)
            .into_iter()
            .find(|s| s.name == "budget_swallows_all")
            .unwrap();
        assert!(scenario_violations(&sc).is_empty());
    }
}
