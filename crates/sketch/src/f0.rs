//! F₀ (distinct-count) estimation under insertions and deletions
//! (stand-in for the Kane–Nelson–Woodruff estimator \[32\]).
//!
//! Geometric sampling levels: level `ℓ` sees an id iff its level hash has
//! at least `ℓ` leading zero bits (probability `2⁻ℓ`).  Every level hashes
//! its sampled ids into `B` 1-sparse cells; because cell contents are
//! linear, a bucket returns to *exactly* zero when its ids are deleted, so
//! occupancy counting survives deletions.  The estimate at a level is the
//! linear-counting inversion `−B·ln((B−occ)/B) · 2^ℓ`, read from the first
//! level whose occupancy is below a saturation threshold.  Algorithm 5 only
//! needs a constant-factor test "F₀ ≤ s?", which `B = Θ(1/ε²)` buckets
//! comfortably provide.

use crate::hash::{HashFn, SeedSequence};
use crate::onesparse::OneSparseCell;

/// Occupancy fraction above which a level is considered saturated.
const SATURATION: f64 = 0.7;

/// An F₀ estimator for strict turnstile streams over `u64` ids.
#[derive(Debug, Clone)]
pub struct F0Sketch {
    levels: usize,
    buckets: usize,
    cells: Vec<OneSparseCell>, // levels × buckets
    level_hash: HashFn,
    bucket_hash: Vec<HashFn>,
    fp_hash: HashFn,
}

impl F0Sketch {
    /// Creates an estimator with `levels` geometric levels (enough to cover
    /// a universe of `2^levels` ids) and `buckets` cells per level.
    /// `buckets = Θ(1/ε²)`; 256 gives ≈ ±7 % standard error.
    pub fn new(levels: usize, buckets: usize, seed: u64) -> Self {
        assert!((1..=64).contains(&levels), "levels ∈ [1, 64]");
        assert!(buckets >= 8, "need at least 8 buckets");
        let mut seq = SeedSequence::new(seed);
        let level_hash = HashFn::new(seq.next_seed());
        let bucket_hash = (0..levels).map(|_| HashFn::new(seq.next_seed())).collect();
        let fp_hash = HashFn::new(seq.next_seed());
        F0Sketch {
            levels,
            buckets,
            cells: vec![OneSparseCell::new(); levels * buckets],
            level_hash,
            bucket_hash,
            fp_hash,
        }
    }

    /// Estimator sized for a universe of `universe` ids with relative error
    /// about `eps`.
    pub fn for_universe(universe: u64, eps: f64, seed: u64) -> Self {
        let levels = (64 - universe.leading_zeros() as usize).clamp(1, 64);
        let buckets = ((1.0 / (eps * eps)).ceil() as usize).clamp(64, 1 << 16);
        Self::new(levels, buckets, seed)
    }

    /// Applies update `(id, delta)`.
    pub fn update(&mut self, id: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        let depth = self.level_hash.hash(id).leading_zeros() as usize;
        let max_level = depth.min(self.levels - 1);
        for l in 0..=max_level {
            let b = self.bucket_hash[l].bucket(id, self.buckets);
            self.cells[l * self.buckets + b].update(id, delta, &self.fp_hash);
        }
    }

    fn occupancy(&self, level: usize) -> usize {
        self.cells[level * self.buckets..(level + 1) * self.buckets]
            .iter()
            .filter(|c| !c.is_zero())
            .count()
    }

    /// Estimates the number of ids with non-zero net frequency.
    pub fn estimate(&self) -> f64 {
        let b = self.buckets as f64;
        for l in 0..self.levels {
            let occ = self.occupancy(l);
            if occ == 0 {
                // Nothing sampled at this level: if level 0, F0 = 0;
                // otherwise fall through (an unlucky sparse level higher up
                // cannot happen before a non-saturated one).
                return 0.0;
            }
            if (occ as f64) <= SATURATION * b {
                let est = -b * ((b - occ as f64) / b).ln();
                return est * (1u64 << l) as f64;
            }
        }
        // Every level saturated: lower-bound the estimate from the last.
        let l = self.levels - 1;
        let occ = self.occupancy(l).min(self.buckets - 1);
        let est = -b * ((b - occ as f64) / b).ln();
        est * (1u64 << l) as f64
    }

    /// Storage footprint in machine words.
    pub fn words(&self) -> usize {
        self.cells.len() * OneSparseCell::WORDS + self.levels + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimates_zero() {
        let sk = F0Sketch::new(32, 64, 0);
        assert_eq!(sk.estimate(), 0.0);
    }

    #[test]
    fn small_counts_are_near_exact() {
        let mut sk = F0Sketch::new(32, 256, 5);
        for id in 0..20u64 {
            sk.update(id * 31 + 7, 1);
        }
        let est = sk.estimate();
        assert!((15.0..=25.0).contains(&est), "est {est} for F0=20");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut sk = F0Sketch::new(32, 256, 5);
        for _ in 0..50 {
            for id in 0..10u64 {
                sk.update(id, 1);
            }
        }
        let est = sk.estimate();
        assert!((6.0..=15.0).contains(&est), "est {est} for F0=10");
    }

    #[test]
    fn deletions_reduce_estimate_to_zero() {
        let mut sk = F0Sketch::new(32, 128, 9);
        for id in 0..500u64 {
            sk.update(id, 1);
        }
        assert!(sk.estimate() > 100.0);
        for id in 0..500u64 {
            sk.update(id, -1);
        }
        assert_eq!(sk.estimate(), 0.0);
    }

    #[test]
    fn large_counts_within_relative_error() {
        let mut sk = F0Sketch::for_universe(1 << 40, 0.1, 77);
        let n = 50_000u64;
        for id in 0..n {
            sk.update(id.wrapping_mul(0x9E37_79B9).wrapping_add(13), 1);
        }
        let est = sk.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.25, "relative error {rel} (est {est}, true {n})");
    }

    #[test]
    fn partial_deletion_tracks() {
        let mut sk = F0Sketch::for_universe(1 << 30, 0.1, 3);
        for id in 0..10_000u64 {
            sk.update(id, 1);
        }
        for id in 0..9_000u64 {
            sk.update(id, -1);
        }
        let est = sk.estimate();
        let rel = (est - 1000.0).abs() / 1000.0;
        assert!(rel < 0.3, "est {est} for F0=1000");
    }

    #[test]
    fn words_scale_with_buckets() {
        let a = F0Sketch::new(16, 64, 0).words();
        let b = F0Sketch::new(16, 256, 0).words();
        assert!(b > 3 * a);
    }
}
