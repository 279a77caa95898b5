//! A fully dynamic `(3+ε)`-approximate k-center-with-outliers *solver* —
//! the paper's Section 1 remark made concrete:
//!
//! > "our dynamic streaming algorithm immediately gives a fully dynamic
//! > algorithm for the k-center problem with outliers that has a fast
//! > update time […] after each update we can simply run a greedy
//! > algorithm on our coreset."
//!
//! [`DynamicKCenter`] wraps [`crate::DynamicCoreset`] and answers
//! clustering queries by running the Charikar-et-al. greedy on the
//! recovered relaxed coreset: a `3(1+O(ε))`-approximation whose update
//! time is polylogarithmic in `Δ` and whose query time depends only on
//! the coreset size `O(k/ε^d + z)` — never on the number of live points.

use kcz_kcenter::greedy;
use kcz_metric::{Weighted, L2};

use crate::dynamic::{DynamicCoreset, DynamicCoresetError};

/// A clustering answer from the dynamic solver.
#[derive(Debug, Clone)]
pub struct DynamicSolution<const D: usize> {
    /// The `≤ k` centers (coreset points, i.e. grid-cell centers).
    pub centers: Vec<[f64; D]>,
    /// Covering radius on the coreset; within `3(1+O(ε))` of the optimal
    /// radius of the live point set.
    pub radius: f64,
    /// Size of the coreset the answer was computed from.
    pub coreset_size: usize,
    /// Grid level the coreset was recovered from.
    pub level: u32,
}

/// Fully dynamic k-center with outliers over `[0, 2^side_bits)^D`.
#[derive(Debug, Clone)]
pub struct DynamicKCenter<const D: usize> {
    sketch: DynamicCoreset<D>,
    k: usize,
    z: u64,
}

impl<const D: usize> DynamicKCenter<D> {
    /// Creates the solver (see [`DynamicCoreset::for_params`] for the
    /// parameter semantics).
    pub fn new(side_bits: u32, k: usize, z: u64, eps: f64, fail_delta: f64, seed: u64) -> Self {
        DynamicKCenter {
            sketch: DynamicCoreset::for_params(side_bits, k, z, eps, fail_delta, seed),
            k,
            z,
        }
    }

    /// Inserts a point.
    pub fn insert(&mut self, p: &[u64; D]) {
        self.sketch.insert(p);
    }

    /// Deletes a (present) point.
    pub fn delete(&mut self, p: &[u64; D]) {
        self.sketch.delete(p);
    }

    /// Solves k-center with `z` outliers on the current live set, via the
    /// coreset.  Runs in time polynomial in the coreset size only.
    pub fn solve(&self) -> Result<DynamicSolution<D>, DynamicCoresetError> {
        let (coreset, level) = self.sketch.coreset()?;
        let sol = greedy(&L2, &coreset, self.k, self.z);
        Ok(DynamicSolution {
            centers: sol.centers,
            radius: sol.radius,
            coreset_size: coreset.len(),
            level,
        })
    }

    /// The current relaxed coreset (weighted grid-cell centers).
    pub fn coreset(&self) -> Result<Vec<Weighted<[f64; D]>>, DynamicCoresetError> {
        self.sketch.coreset().map(|(c, _)| c)
    }

    /// Sketch storage in machine words.
    pub fn space_words(&self) -> usize {
        self.sketch.space_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_kcenter::greedy;
    use kcz_metric::unit_weighted;

    #[test]
    fn tracks_live_set_through_churn() {
        let (k, z) = (2usize, 3u64);
        let mut solver = DynamicKCenter::<2>::new(10, k, z, 1.0, 0.01, 5);
        let mut live: Vec<[u64; 2]> = Vec::new();
        // Two clusters plus outliers.
        for i in 0..30u64 {
            let p = if i % 2 == 0 {
                [10 + i % 5, 10 + (i / 2) % 5]
            } else {
                [900 + i % 5, 900 + (i / 3) % 5]
            };
            if !live.contains(&p) {
                solver.insert(&p);
                live.push(p);
            }
        }
        for o in [[500u64, 0], [0, 500], [1000, 20]] {
            solver.insert(&o);
            live.push(o);
        }
        let sol = solver.solve().expect("solve");
        let live_pts: Vec<[f64; 2]> = live.iter().map(|p| [p[0] as f64, p[1] as f64]).collect();
        let direct = greedy(&L2, &unit_weighted(&live_pts), k, z);
        // 3(1+O(ε)) bands both ways, plus the grid-cell additive error.
        assert!(sol.radius <= 3.5 * direct.radius.max(1.0) + 10.0);
        // Deleting one cluster collapses the radius.
        for p in live.iter().filter(|p| p[0] >= 900) {
            solver.delete(p);
        }
        let sol2 = solver.solve().expect("solve after deletes");
        assert!(
            sol2.radius <= sol.radius + 1e-9,
            "radius should not grow after removing a whole cluster"
        );
    }

    #[test]
    fn empty_solver_answers_zero() {
        let solver = DynamicKCenter::<2>::new(8, 2, 1, 1.0, 0.01, 1);
        let sol = solver.solve().expect("empty recovery");
        assert_eq!(sol.radius, 0.0);
        assert_eq!(sol.coreset_size, 0);
    }
}
