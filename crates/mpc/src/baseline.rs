//! The Ceccarello–Pietracaprina–Pucci-style deterministic 1-round baseline
//! (VLDB 2019, reference \[11\] of the paper).
//!
//! Each machine summarises its share *without* knowing how many outliers
//! it holds, by being conservative: it selects `τ = k + z` farthest-first
//! centers (any optimal solution's k balls plus z outliers can be hit by
//! k+z centers, so the τ-center radius `r_i ≤ 2·opt_{k,z}(P_i)`), then
//! re-clusters its points at granularity `ε·r_i/2`, producing a local
//! (ε,k,z)-mini-ball covering of size `Θ((k+z)·(1/ε)^d)` — the `z/ε^d`
//! term in Table 1's baseline storage that the paper's 2-round algorithm
//! removes.  One communication round ships everything to the coordinator,
//! which recompresses.

use kcz_coreset::compose::{composed_eps, union_coverings};
use kcz_coreset::mbc::mbc_construction_with;
use kcz_coreset::update_coreset;
use kcz_kcenter::charikar::GreedyParams;
use kcz_kcenter::gonzalez::farthest_first;
use kcz_metric::{unit_weighted, MetricSpace, SpaceUsage};

use crate::exec::{parallel_map, words_of_points, words_of_weighted, MpcCoreset, MpcRunStats};

/// Runs the baseline on `partition[i] = P_i` (any distribution).
/// Machine 0 doubles as the coordinator.
pub fn ceccarello_one_round<P, M>(
    metric: &M,
    partition: &[Vec<P>],
    k: usize,
    z: u64,
    eps: f64,
    params: &GreedyParams,
) -> MpcCoreset<P>
where
    P: Clone + SpaceUsage + Send + Sync,
    M: MetricSpace<P>,
{
    assert!(!partition.is_empty(), "need at least one machine");
    assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0, 1]");
    let m = partition.len();
    let tau = k.saturating_add(z as usize);

    let coverings = parallel_map(partition.iter().collect(), |_, pts: &Vec<P>| {
        let weighted = unit_weighted(pts);
        // τ-center radius bounds opt_{k,z}(P_i) within factor 2 ...
        let ff = farthest_first(metric, &weighted, tau, 0);
        // ... so mini-balls of radius ε·r_i/2 satisfy the ε·opt covering
        // property regardless of how many outliers this machine holds.
        update_coreset(metric, &weighted, eps * ff.radius / 2.0)
    });

    let mut worker_peak = 0usize;
    let mut comm_words = 0u64;
    for (i, pts) in partition.iter().enumerate() {
        let held = words_of_points(pts) + words_of_weighted(&coverings[i]);
        if i != 0 {
            worker_peak = worker_peak.max(held);
            comm_words += words_of_weighted(&coverings[i]) as u64;
        }
    }

    let received: usize = coverings.iter().map(|c| words_of_weighted(c)).sum();
    let union = union_coverings(coverings);
    let final_mbc = mbc_construction_with(metric, &union, k, z, eps, params);
    let coordinator_peak =
        words_of_points(&partition[0]) + received + words_of_weighted(&final_mbc.reps);

    MpcCoreset {
        coreset: final_mbc.reps,
        effective_eps: composed_eps(eps, eps),
        stats: MpcRunStats {
            rounds: 1,
            machines: m,
            worker_peak_words: worker_peak,
            coordinator_peak_words: coordinator_peak,
            comm_words,
            round_comm_words: vec![comm_words],
            coreset_size: 0,
        },
    }
    .with_sized_stats()
}

impl<P> MpcCoreset<P> {
    fn with_sized_stats(mut self) -> Self {
        self.stats.coreset_size = self.coreset.len();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_round::two_round;
    use kcz_coreset::validate::validate_coreset;
    use kcz_metric::{total_weight, Weighted, L2};

    fn adversarial_instance(z: u64, m: usize) -> (Vec<[f64; 2]>, Vec<Vec<[f64; 2]>>) {
        let mut all = vec![];
        let mut machines: Vec<Vec<[f64; 2]>> = vec![vec![]; m];
        for i in 0..z {
            let p = [1e6 + (i as f64) * 3e4, 1e6 - (i as f64) * 2e4];
            all.push(p);
            machines[0].push(p);
        }
        for i in 0..60u64 {
            let c = (i % 2) as f64 * 500.0;
            let p = [
                c + (i as f64 * 0.7).sin() * 2.0,
                c + (i as f64 * 1.3).cos() * 2.0,
            ];
            all.push(p);
            machines[(i % (m as u64 - 1) + 1) as usize].push(p);
        }
        (all, machines)
    }

    #[test]
    fn baseline_output_is_valid_coreset() {
        let (all, machines) = adversarial_instance(5, 4);
        let eps = 0.4;
        let res = ceccarello_one_round(&L2, &machines, 2, 5, eps, &GreedyParams::default());
        let weighted: Vec<Weighted<[f64; 2]>> = all.iter().map(|p| Weighted::unit(*p)).collect();
        assert_eq!(total_weight(&res.coreset), all.len() as u64);
        let report = validate_coreset(&L2, &weighted, &res.coreset, 2, 5, res.effective_eps);
        assert!(report.condition1 && report.condition2, "{report:?}");
    }

    #[test]
    fn paper_beats_baseline_on_outlier_heavy_comm() {
        // The separation mechanism of Table 1: the baseline refines every
        // worker's data at granularity ε·r_i/2 where r_i comes from
        // τ = k+z farthest-first centers — a radius that *shrinks* as z
        // grows, producing Θ((k+z)/ε^d) mini-balls.  The 2-round algorithm
        // refines at ε·r̂/3 with r̂ ≈ 3·opt, independent of z.  Dense
        // workers + outliers parked on the coordinator expose the gap.
        let z = 30u64;
        let mut machines: Vec<Vec<[f64; 2]>> = vec![vec![]];
        for i in 0..z {
            machines[0].push([1e6 + (i as f64) * 3e4, -1e6]);
        }
        let mut s = 0xC0FFEEu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..3 {
            let mut w = Vec::with_capacity(400);
            for _ in 0..400 {
                w.push([next() * 100.0, next() * 100.0]);
            }
            machines.push(w);
        }
        let eps = 1.0;
        let base = ceccarello_one_round(&L2, &machines, 1, z, eps, &GreedyParams::default());
        let ours = two_round(&L2, &machines, 1, z, eps, &GreedyParams::default());
        assert!(
            2 * ours.output.stats.comm_words < base.stats.comm_words,
            "ours {} vs baseline {}",
            ours.output.stats.comm_words,
            base.stats.comm_words
        );
    }

    #[test]
    fn one_communication_round() {
        let (_, machines) = adversarial_instance(3, 4);
        let res = ceccarello_one_round(&L2, &machines, 2, 3, 0.5, &GreedyParams::default());
        assert_eq!(res.stats.rounds, 1);
        assert_eq!(res.stats.coreset_size, res.coreset.len());
        assert_eq!(res.stats.round_comm_words, vec![res.stats.comm_words]);
    }
}
