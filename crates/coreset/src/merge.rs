//! Merge bookkeeping shared by every pipeline that composes mini-ball
//! coverings.
//!
//! The paper's coresets are explicitly composable: the union of
//! (ε,k,z)-mini-ball coverings of disjoint parts is a covering of the
//! union (Lemma 4), and recompressing a covering degrades ε only
//! additively (Lemma 5: ε + γ + εγ).  Each summary type tracks the ε′ it
//! certifies itself — the MPC coordinators via
//! [`crate::compose::composed_eps`], the sharded engine through
//! `kcz_streaming::DoublingCoreset::merge`, which unions every shard
//! summary at once and recompresses once, so its ε′ widens by a single
//! `ε/2` however many shards there are.  This module holds what they
//! share: the end-to-end ratio factor an ε′-summary certifies, and the
//! metric-compatibility check merges assert.

use kcz_metric::MetricSpace;

/// The end-to-end ratio factor certified by solving on an ε′-summary with
/// the Charikar-et-al. greedy: `3 + 8ε′`.
///
/// Derivation (shared by the conformance harness, the resident engine and
/// the MPC verdicts): greedy on the summary 3-approximates the summary's
/// discrete optimum, shifting the true optimal centers onto their
/// representatives costs `2δ`, and reading the radius back on the input
/// costs another `δ`, where `δ ≤ ε′·opt` is the covering drift —
/// `3(opt + 2δ) + δ ≤ (3 + 7ε′)·opt`, with one more ε′ of margin for
/// second-order effects (weight clamping, pre-radius merges).
pub fn end_to_end_factor(effective_eps: f64) -> f64 {
    3.0 + 8.0 * effective_eps
}

/// Validates that two summaries built over a metric agree on it enough to
/// merge (metrics cannot be compared directly: doubling dimension is the
/// only observable parameter).
pub fn compatible_metrics<P, M: MetricSpace<P>>(a: &M, b: &M) -> bool {
    a.doubling_dim() == b.doubling_dim()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::composed_eps;
    use kcz_metric::L2;

    #[test]
    fn end_to_end_factor_tracks_lemma5_composition() {
        assert_eq!(end_to_end_factor(0.0), 3.0);
        assert_eq!(end_to_end_factor(0.5), 7.0);
        // Recompressing a merged union pays Lemma 5: the factor for the
        // composed ε matches the harness's MPC bound chain.
        let eps = 0.4;
        assert!((end_to_end_factor(composed_eps(eps, eps)) - (3.0 + 8.0 * 0.96)).abs() < 1e-12);
    }

    #[test]
    fn metric_compatibility_is_doubling_dim() {
        assert!(compatible_metrics::<[f64; 2], _>(&L2, &L2));
    }
}
