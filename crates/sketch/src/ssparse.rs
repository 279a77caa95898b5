//! s-sparse recovery: recover *all* non-zero ids with exact counts when at
//! most `s` are non-zero (stand-in for Barkay–Porat–Shalem \[4\]).
//!
//! Layout: `rows ≈ log₂(s/δ)` independent hash rows, each with `2s`
//! 1-sparse cells.  Decoding *peels*: any cell holding a single id reveals
//! it; subtracting that id from every row exposes further singletons.  With
//! at most `s` non-zero ids, peeling completes with probability `≥ 1−δ`;
//! failure is detected (non-zero residue), never silent.

use crate::hash::{HashFn, SeedSequence};
use crate::onesparse::{Decode, OneSparseCell};

/// An s-sparse recovery sketch over ids `u64` (strict turnstile).
#[derive(Debug, Clone)]
pub struct SparseRecovery {
    s: usize,
    rows: usize,
    cols: usize,
    cells: Vec<OneSparseCell>,
    row_hash: Vec<HashFn>,
    fp_hash: HashFn,
}

/// Result of a recovery query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery {
    /// All non-zero ids with their exact net counts, sorted by id.
    Exact(Vec<(u64, i64)>),
    /// More than `s` ids were live (or an unlucky hash draw): peeling got
    /// stuck.  Contains whatever was peeled before getting stuck.
    Saturated(Vec<(u64, i64)>),
}

impl SparseRecovery {
    /// Creates a sketch that recovers up to `s` non-zero ids with failure
    /// probability about `delta` per query.
    pub fn new(s: usize, delta: f64, seed: u64) -> Self {
        assert!(s >= 1, "s must be at least 1");
        assert!((0.0..1.0).contains(&delta) && delta > 0.0, "δ ∈ (0,1)");
        let cols = (2 * s).max(4);
        let rows = ((s as f64 / delta).log2().ceil() as usize).clamp(4, 48);
        let mut seq = SeedSequence::new(seed);
        let row_hash = (0..rows).map(|_| HashFn::new(seq.next_seed())).collect();
        let fp_hash = HashFn::new(seq.next_seed());
        SparseRecovery {
            s,
            rows,
            cols,
            cells: vec![OneSparseCell::new(); rows * cols],
            row_hash,
            fp_hash,
        }
    }

    /// Sparsity budget `s`.
    pub fn sparsity(&self) -> usize {
        self.s
    }

    /// Applies update `(id, delta)`.
    pub fn update(&mut self, id: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        for r in 0..self.rows {
            let c = self.row_hash[r].bucket(id, self.cols);
            self.cells[r * self.cols + c].update(id, delta, &self.fp_hash);
        }
    }

    /// Recovers the live ids by peeling a scratch copy of the cells.
    pub fn recover(&self) -> Recovery {
        let mut cells = self.cells.clone();
        let mut out: Vec<(u64, i64)> = Vec::new();
        // Worklist of cell indices that might decode to a singleton.
        let mut work: Vec<usize> = (0..cells.len()).collect();
        while let Some(idx) = work.pop() {
            let Decode::One { id, count } = cells[idx].decode(&self.fp_hash) else {
                continue;
            };
            out.push((id, count));
            // Subtract the recovered id from every row; affected cells may
            // now decode, so requeue them.
            for r in 0..self.rows {
                let c = self.row_hash[r].bucket(id, self.cols);
                let cell_idx = r * self.cols + c;
                cells[cell_idx].update(id, -count, &self.fp_hash);
                work.push(cell_idx);
            }
        }
        if cells.iter().all(OneSparseCell::is_zero) {
            out.sort_unstable_by_key(|&(id, _)| id);
            out.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 += a.1;
                    true
                } else {
                    false
                }
            });
            out.retain(|&(_, c)| c != 0);
            Recovery::Exact(out)
        } else {
            Recovery::Saturated(out)
        }
    }

    /// Storage footprint in machine words.
    pub fn words(&self) -> usize {
        self.cells.len() * OneSparseCell::WORDS + self.rows + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn exact_of(r: &Recovery) -> &Vec<(u64, i64)> {
        match r {
            Recovery::Exact(v) => v,
            Recovery::Saturated(_) => panic!("expected exact recovery, got saturated"),
        }
    }

    #[test]
    fn recovers_small_sets_exactly() {
        let mut sk = SparseRecovery::new(16, 0.01, 7);
        let items: Vec<(u64, i64)> = (0..10).map(|i| (i * 1000 + 3, (i + 1) as i64)).collect();
        for &(id, c) in &items {
            sk.update(id, c);
        }
        let got = sk.recover();
        assert_eq!(exact_of(&got), &items);
    }

    #[test]
    fn insert_delete_cancels() {
        let mut sk = SparseRecovery::new(8, 0.01, 1);
        for id in 0..100u64 {
            sk.update(id, 1);
        }
        for id in 0..95u64 {
            sk.update(id, -1);
        }
        let got = sk.recover();
        let want: Vec<(u64, i64)> = (95..100).map(|id| (id, 1)).collect();
        assert_eq!(exact_of(&got), &want);
    }

    #[test]
    fn saturation_detected_not_silent() {
        let mut sk = SparseRecovery::new(4, 0.01, 3);
        for id in 0..1000u64 {
            sk.update(id, 1);
        }
        match sk.recover() {
            Recovery::Saturated(_) => {}
            Recovery::Exact(v) => panic!("claimed exact recovery of {} items", v.len()),
        }
    }

    #[test]
    fn recovery_after_drain_below_sparsity() {
        // Overfill, then delete back down below s: must recover exactly.
        let mut sk = SparseRecovery::new(8, 0.001, 11);
        for id in 0..500u64 {
            sk.update(id, 2);
        }
        for id in 0..497u64 {
            sk.update(id, -2);
        }
        let got = sk.recover();
        assert_eq!(exact_of(&got), &vec![(497u64, 2i64), (498, 2), (499, 2)]);
    }

    #[test]
    fn randomized_stress_against_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut reference: HashMap<u64, i64> = HashMap::new();
        let mut sk = SparseRecovery::new(32, 0.001, 99);
        for step in 0..5000u64 {
            let id = rng.random_range(0..64u64) * 97;
            let have = reference.get(&id).copied().unwrap_or(0);
            let delta = if have > 0 && rng.random_bool(0.5) {
                -1
            } else {
                1
            };
            *reference.entry(id).or_insert(0) += delta;
            if reference[&id] == 0 {
                reference.remove(&id);
            }
            sk.update(id, delta);
            if step % 1000 == 0 && reference.len() <= 32 {
                let mut want: Vec<(u64, i64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
                want.sort_unstable();
                assert_eq!(exact_of(&sk.recover()), &want);
            }
        }
    }

    #[test]
    fn words_scale_with_s() {
        let small = SparseRecovery::new(8, 0.01, 0).words();
        let large = SparseRecovery::new(64, 0.01, 0).words();
        assert!(large > 4 * small);
    }
}
