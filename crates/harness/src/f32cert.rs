//! f32 storage-mode conformance: the engine's opt-in columnar f32 mode
//! is certified **empirically**, in f64, against the same judgments the
//! default mode gets.
//!
//! `--precision f32` stores shard representatives in f32 coordinate
//! lanes, so absorb decisions are made through f32 distance tests.  The
//! mode's contract is that the rounding error is paid for up front: the
//! published ε′ folds in [`kcz_metric::F32_EPS_BUDGET`], widening the
//! certified `3 + 8ε′` factor, and every published radius must still
//! honor that widened bound when **re-measured in f64** against the
//! exact oracle.  This module replays each scenario through a
//! persistent f32 engine with mid-stream publishes, certifies every
//! checked epoch bit-for-bit against a from-scratch f32 engine fed the
//! same prefix (the leaf cache must be precision-agnostic), and
//! re-measures the final epoch's coverage radius with the f64 kernels
//! against `(3 + 8ε′)·opt`.
//!
//! Violations are strings ready for the conformance judge; `kcz
//! conformance` merges them with the pipeline, query, and other replay
//! violations and exits 3 if any survive.

use kcz_engine::{Engine, EngineConfig};
use kcz_kcenter::cost_with_outliers;
use kcz_metric::{total_weight, Precision, L2};

use crate::pipeline::ENGINE_BATCH;
use crate::report::exact_radius;
use crate::scenario::{catalog, Scenario, Tier};

/// Float tolerance for the oracle-bound re-check (matches the pipeline
/// verdicts' slack).
const TOL: f64 = 1e-6;

/// At most this many epochs are certified per scenario: batches are
/// published on a stride, always including the final prefix.
const MAX_EPOCHS: usize = 12;

/// Runs the f32 storage-mode check over the tier's catalog.  Scenarios
/// are mapped over the shared worker pool; the returned violations are
/// in catalog order.  Empty means the f32 mode is certified: every
/// checked f32 epoch matches a from-scratch f32 replay bit-for-bit,
/// and every final radius honors the budget-widened bound in f64.
pub fn f32_violations(tier: Tier) -> Vec<String> {
    kcz_engine::runtime::global()
        .scoped_map(catalog(tier), |_, sc| scenario_violations(&sc))
        .into_iter()
        .flatten()
        .collect()
}

/// The per-scenario body of [`f32_violations`].
fn scenario_violations(sc: &Scenario) -> Vec<String> {
    let mut out = Vec::new();
    if sc.is_empty() {
        return out;
    }
    let tag = |what: &str| format!("{} / f32/{what}", sc.name);
    let cfg = EngineConfig::new(sc.machines, sc.k, sc.z, sc.eps).with_precision(Precision::F32);
    let engine = Engine::new(L2, cfg);
    let batches: Vec<&[[f64; 2]]> = sc.points.chunks(ENGINE_BATCH).collect();
    let stride = batches.len().div_ceil(MAX_EPOCHS).max(1);
    let mut fed = 0usize;
    let mut last = None;
    for (i, batch) in batches.iter().enumerate() {
        engine.ingest(batch);
        fed += batch.len();
        if (i + 1) % stride != 0 && i + 1 != batches.len() {
            continue;
        }
        let snap = engine.publish();
        // The from-scratch oracle: a fresh f32 engine fed the identical
        // prefix.  Leaf reuse must stay a pure optimization regardless
        // of the storage precision.
        let scratch = Engine::new(L2, cfg);
        for b in &batches[..=i] {
            scratch.ingest(b);
        }
        let oracle = scratch.snapshot();
        if snap.radius.to_bits() != oracle.radius.to_bits()
            || snap.uncovered != oracle.uncovered
            || snap.bound_factor.to_bits() != oracle.bound_factor.to_bits()
            || snap.effective_eps.to_bits() != oracle.effective_eps.to_bits()
            || snap.stats.summary_words != oracle.stats.summary_words
        {
            out.push(format!(
                "{}: prefix of {fed} points: radius {:.9} vs {:.9}, excluded {} vs {}, \
                 factor {:.6} vs {:.6} — f32 publish diverged from scratch",
                tag("publish"),
                snap.radius,
                oracle.radius,
                snap.uncovered,
                oracle.uncovered,
                snap.bound_factor,
                oracle.bound_factor
            ));
        }
        last = Some(snap);
    }
    // ε′ must carry the folded budget — an f32 engine publishing the
    // narrow f64 factor would certify a bound its absorb sweeps never
    // honored.  The relation is exact: the widened ε′ is computed as
    // `ε′_f64 · (1 + F32_EPS_BUDGET)` and the merge structure (hence
    // the drift composition) is identical across precisions, so the
    // comparison holds bit-for-bit.
    if let Some(snap) = &last {
        let f64_engine = Engine::new(L2, EngineConfig::new(sc.machines, sc.k, sc.z, sc.eps));
        for b in &batches {
            f64_engine.ingest(b);
        }
        let widened = f64_engine.snapshot().effective_eps * (1.0 + kcz_metric::F32_EPS_BUDGET);
        if snap.effective_eps.to_bits() != widened.to_bits() {
            out.push(format!(
                "{}: published ε′ {:.9} ≠ budget-widened f64 ε′ {:.9}",
                tag("eps"),
                snap.effective_eps,
                widened
            ));
        }
    }
    // The empirical certification: re-measure the final f32 epoch's
    // coverage radius with the f64 kernels over the original stream and
    // judge it against the budget-widened `(3 + 8ε′)·opt`.
    if let Some(snap) = &last {
        let total = total_weight(&sc.weighted());
        if snap.uncovered > sc.z && total > sc.z {
            out.push(format!(
                "{}: excluded weight {} exceeds z = {}",
                tag("uncovered"),
                snap.uncovered,
                sc.z
            ));
        }
    }
    if let (Some(snap), Some(opt)) = (last, exact_radius(sc)) {
        if !snap.centers.is_empty() {
            let achieved = cost_with_outliers(&L2, &sc.weighted(), &snap.centers, sc.z);
            if achieved > (snap.bound_factor + TOL) * opt + TOL {
                out.push(format!(
                    "{}: f64-remeasured radius {:.6} > {:.2}·opt (opt = {:.6})",
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
    fn smoke_tier_f32_mode_is_certified() {
        let violations = f32_violations(Tier::Smoke);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn single_scenario_replays_multiple_f32_epochs() {
        // The churn scenario spans many ENGINE_BATCH chunks, so the
        // strided replay certifies several genuine f32 epochs, each
        // against its own from-scratch f32 engine.
        let sc = catalog(Tier::Smoke)
            .into_iter()
            .find(|s| s.name == "churn_under_snapshot")
            .unwrap_or_else(|| catalog(Tier::Smoke).into_iter().next().unwrap());
        assert!(scenario_violations(&sc).is_empty());
    }
}
