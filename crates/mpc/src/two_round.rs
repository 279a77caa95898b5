//! Algorithm 2: the deterministic 2-round MPC coreset (Theorem 10).
//!
//! The difficulty with adversarially distributed data is that a machine
//! cannot know how many of the global `z` outliers it holds, and sending
//! `z` candidates per machine would blow up the coordinator.  The paper's
//! mechanism:
//!
//! * **Round 1** — every machine `M_i` computes `V_i[j] = radius of
//!   Greedy(P_i, k, 2^j−1)` for `j = 0..⌈log(z+1)⌉` and broadcasts the
//!   vector (`O(log z)` words) to all machines.
//! * **Round 2** — from the shared vectors every machine derives the same
//!   threshold `r̂ = min{r : Σ_ℓ (2^{min{j : V_ℓ[j] ≤ r}} − 1) ≤ 2z}`,
//!   which satisfies `r̂ ≤ 3·opt` (Lemma 8).  Machine `M_i` then runs
//!   `MBCConstruction(P_i, k, 2^ĵᵢ−1, ε)` with `ĵᵢ = min{j : V_i[j] ≤ r̂}`
//!   and ships the covering to the coordinator.  The budgets `2^ĵᵢ−1` sum
//!   to at most `2z` by choice of `r̂`, so the coordinator receives
//!   `O(m·k/ε^d + z)` points (Lemma 9), recompresses once more, and holds
//!   a `3ε`-coreset.

use kcz_coreset::compose::{composed_eps, union_coverings};
use kcz_coreset::mbc::mbc_construction_with;
use kcz_kcenter::charikar::{greedy_with, GreedyParams};
use kcz_metric::{unit_weighted, MetricSpace, SpaceUsage};

use crate::exec::{parallel_map, words_of_points, words_of_weighted, MpcCoreset, MpcRunStats};

/// Output of [`two_round`], with the algorithm's internal diagnostics.
#[derive(Debug, Clone)]
pub struct TwoRoundResult<P> {
    /// The coreset and resource accounting.
    pub output: MpcCoreset<P>,
    /// The global radius threshold `r̂` (Lemma 8: `r̂ ≤ 3·opt`).
    pub rhat: f64,
    /// Per-machine outlier budgets `2^ĵᵢ − 1`; their sum is ≤ 2z.
    pub budgets: Vec<u64>,
}

/// `⌈log₂(x)⌉` for `x ≥ 1`.
fn ceil_log2(x: u64) -> u32 {
    debug_assert!(x >= 1);
    64 - (x - 1).leading_zeros().min(64)
}

/// Number of vector entries: `⌈log(z+1)⌉ + 1` (Algorithm 2, line 1).
/// `z + 1` saturates: `⌈log₂ 2⁶⁴⌉ = ⌈log₂(2⁶⁴ − 1)⌉ = 64`.
pub(crate) fn vector_len(z: u64) -> usize {
    if z == 0 {
        1
    } else {
        ceil_log2(z.saturating_add(1)) as usize + 1
    }
}

/// The outlier budget of vector entry `j`, `2^j − 1`: `u64::MAX` at
/// `j = 64`, the last entry when `z` is `u64::MAX`.
fn entry_budget(j: usize) -> u64 {
    1u64.checked_shl(j as u32).map_or(u64::MAX, |b| b - 1)
}

/// Runs Algorithm 2 on `partition[i] = P_i` (arbitrary, possibly
/// adversarial distribution).  Machine 0 doubles as the coordinator.
pub fn two_round<P, M>(
    metric: &M,
    partition: &[Vec<P>],
    k: usize,
    z: u64,
    eps: f64,
    params: &GreedyParams,
) -> TwoRoundResult<P>
where
    P: Clone + SpaceUsage + Send + Sync,
    M: MetricSpace<P>,
{
    assert!(!partition.is_empty(), "need at least one machine");
    assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0, 1]");
    let m = partition.len();
    let len = vector_len(z);

    // ---- Round 1: per-machine Greedy radii for outlier budgets 2^j − 1.
    let vectors: Vec<Vec<f64>> = parallel_map(partition.iter().collect(), |_, pts: &Vec<P>| {
        let weighted = unit_weighted(pts);
        (0..len)
            .map(|j| greedy_with(metric, &weighted, k, entry_budget(j), params).radius)
            .collect()
    });
    // Broadcast: every machine sends its vector to the other m−1 machines.
    let round1_words = (m as u64) * (m as u64 - 1) * len as u64;
    let mut comm_words = round1_words;

    // ---- Round 2 (computed once; every machine derives the same r̂).
    let mut candidates: Vec<f64> = vectors.iter().flatten().copied().collect();
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN radii"));
    candidates.dedup();
    let excess = |r: f64| -> Option<u64> {
        let mut sum = 0u64;
        for v in &vectors {
            let j = v.iter().position(|&x| x <= r)?;
            sum = sum.saturating_add(entry_budget(j));
        }
        Some(sum)
    };
    let rhat = candidates
        .iter()
        .copied()
        .find(|&r| excess(r).is_some_and(|s| s <= z.saturating_mul(2)))
        .expect("the maximum Greedy radius always satisfies the budget sum");

    let budgets: Vec<u64> = vectors
        .iter()
        .map(|v| {
            let j = v
                .iter()
                .position(|&x| x <= rhat)
                .expect("r̂ dominates some entry of every vector");
            entry_budget(j)
        })
        .collect();

    // Local mini-ball coverings with the derived budgets.
    let inputs: Vec<(usize, &Vec<P>)> = partition.iter().enumerate().collect();
    let coverings = parallel_map(inputs, |_, (i, pts): (usize, &Vec<P>)| {
        let weighted = unit_weighted(pts);
        mbc_construction_with(metric, &weighted, k, budgets[i], eps, params).reps
    });

    // Storage accounting.  A worker's peak: its raw input, the m vectors
    // received after round 1, and its outgoing covering.
    let mut worker_peak = 0usize;
    for (i, pts) in partition.iter().enumerate() {
        let held = words_of_points(pts) + m * len + words_of_weighted(&coverings[i]);
        if i != 0 {
            worker_peak = worker_peak.max(held);
        }
    }
    for (i, c) in coverings.iter().enumerate() {
        if i != 0 {
            comm_words += words_of_weighted(c) as u64;
        }
    }

    // ---- Coordinator: union (Lemma 9) + recompression (Lemma 5).
    let received: usize = coverings.iter().map(|c| words_of_weighted(c)).sum();
    let union = union_coverings(coverings);
    let final_mbc = mbc_construction_with(metric, &union, k, z, eps, params);
    let coordinator_peak =
        words_of_points(&partition[0]) + m * len + received + words_of_weighted(&final_mbc.reps);

    let stats = MpcRunStats {
        rounds: 2,
        machines: m,
        worker_peak_words: worker_peak,
        coordinator_peak_words: coordinator_peak,
        comm_words,
        round_comm_words: vec![round1_words, comm_words - round1_words],
        coreset_size: final_mbc.reps.len(),
    };
    TwoRoundResult {
        output: MpcCoreset {
            coreset: final_mbc.reps,
            effective_eps: composed_eps(eps, eps),
            stats,
        },
        rhat,
        budgets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_coreset::validate::validate_coreset;
    use kcz_kcenter::exact_discrete;
    use kcz_metric::{total_weight, Weighted, L2};

    /// Three clusters + z outliers, all outliers packed onto machine 0
    /// (the adversarial distribution the algorithm is designed for).
    fn adversarial_instance(z: u64) -> (Vec<[f64; 2]>, Vec<Vec<[f64; 2]>>) {
        let mut all = vec![];
        let mut machines: Vec<Vec<[f64; 2]>> = vec![vec![]; 4];
        for i in 0..z {
            let p = [1e5 + (i as f64) * 1e4, -1e5];
            all.push(p);
            machines[0].push(p);
        }
        for i in 0..36u64 {
            let c = (i % 3) as f64 * 100.0;
            let p = [c + (i as f64 * 0.017).sin(), c + (i as f64 * 0.013).cos()];
            all.push(p);
            machines[(1 + i % 3) as usize].push(p);
        }
        (all, machines)
    }

    #[test]
    fn vector_len_matches_paper() {
        assert_eq!(vector_len(0), 1);
        assert_eq!(vector_len(1), 2);
        assert_eq!(vector_len(3), 3);
        assert_eq!(vector_len(4), 4);
        assert_eq!(vector_len(7), 4);
        assert_eq!(vector_len(8), 5);
        assert_eq!(vector_len(u64::MAX), 65);
        assert_eq!(entry_budget(0), 0);
        assert_eq!(entry_budget(3), 7);
        assert_eq!(entry_budget(64), u64::MAX);
    }

    #[test]
    fn budgets_sum_within_twice_z() {
        let z = 6;
        let (_, machines) = adversarial_instance(z);
        let res = two_round(&L2, &machines, 3, z, 0.5, &GreedyParams::default());
        let total: u64 = res.budgets.iter().sum();
        assert!(total <= 2 * z, "budget sum {total} > 2z = {}", 2 * z);
    }

    #[test]
    fn rhat_at_most_three_opt() {
        let z = 6;
        let (all, machines) = adversarial_instance(z);
        let res = two_round(&L2, &machines, 3, z, 0.5, &GreedyParams::default());
        let weighted: Vec<Weighted<[f64; 2]>> = all.iter().map(|p| Weighted::unit(*p)).collect();
        let opt = exact_discrete(&L2, &weighted, 3, z, &all).radius;
        assert!(
            res.rhat <= 3.0 * opt + 1e-9,
            "r̂ = {} > 3·opt = {}",
            res.rhat,
            3.0 * opt
        );
    }

    #[test]
    fn output_is_valid_coreset() {
        let z = 6;
        let (all, machines) = adversarial_instance(z);
        let eps = 0.4;
        let res = two_round(&L2, &machines, 3, z, eps, &GreedyParams::default());
        let weighted: Vec<Weighted<[f64; 2]>> = all.iter().map(|p| Weighted::unit(*p)).collect();
        assert_eq!(total_weight(&res.output.coreset), all.len() as u64);
        let report = validate_coreset(
            &L2,
            &weighted,
            &res.output.coreset,
            3,
            z,
            res.output.effective_eps,
        );
        assert!(report.condition1 && report.condition2, "{report:?}");
    }

    #[test]
    fn stats_are_populated() {
        let (_, machines) = adversarial_instance(4);
        let res = two_round(&L2, &machines, 3, 4, 0.5, &GreedyParams::default());
        let s = &res.output.stats;
        assert_eq!(s.rounds, 2);
        assert_eq!(s.machines, 4);
        assert!(s.worker_peak_words > 0);
        assert!(s.coordinator_peak_words >= s.coreset_size * 3);
        assert!(s.comm_words > 0);
        assert_eq!(s.coreset_size, res.output.coreset.len());
        // Per-round split: round 1 is the O(m² log z) broadcast, round 2
        // the coverings, and together they account for every word sent.
        assert_eq!(s.round_comm_words.len(), s.rounds);
        assert_eq!(s.round_comm_words.iter().sum::<u64>(), s.comm_words);
        assert_eq!(
            s.round_comm_words[0],
            4 * 3 * vector_len(4) as u64,
            "round 1 is exactly the m(m−1) vector broadcast"
        );
    }

    #[test]
    fn zero_outliers_degenerates_cleanly() {
        let machines = vec![vec![[0.0, 0.0], [0.1, 0.0]], vec![[50.0, 0.0], [50.1, 0.0]]];
        let res = two_round(&L2, &machines, 2, 0, 0.5, &GreedyParams::default());
        assert_eq!(res.budgets, vec![0, 0]);
        assert_eq!(total_weight(&res.output.coreset), 4);
    }

    #[test]
    fn single_machine_works() {
        let machines = vec![vec![[0.0, 0.0], [1.0, 0.0], [100.0, 0.0]]];
        let res = two_round(&L2, &machines, 1, 1, 1.0, &GreedyParams::default());
        assert_eq!(res.output.stats.machines, 1);
        assert_eq!(total_weight(&res.output.coreset), 3);
    }

    #[test]
    fn empty_machines_tolerated() {
        let machines = vec![vec![], vec![[0.0, 0.0], [1.0, 1.0]], vec![]];
        let res = two_round(&L2, &machines, 1, 0, 0.5, &GreedyParams::default());
        assert_eq!(total_weight(&res.output.coreset), 2);
    }
}
