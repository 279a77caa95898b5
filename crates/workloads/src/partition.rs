//! Distributing a point set over `m` MPC machines — and over the resident
//! engine's shards.
//!
//! Algorithm 6 assumes a *random* distribution; Algorithm 2 tolerates any
//! distribution.  [`concentrated_partition`] builds the adversarial case
//! the 2-round algorithm is designed for: all outliers dumped on a single
//! machine.  [`HashPartitioner`] is the *online* counterpart: a
//! splittable, stateless point→shard router (splitmix64 over the point's
//! bit pattern) that the sharded ingest engine uses to route batches —
//! deterministic given its seed, duplicate points always co-located,
//! and independent sub-partitioners derivable via [`HashPartitioner::split`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Types routable by [`HashPartitioner`]: a stable 64-bit key derived
/// from the value's bit pattern (equal points — including `-0.0` vs
/// `0.0` being *distinct* — map to equal keys, so duplicates always land
/// on the same shard).
pub trait ShardKey {
    /// The routing key.  Must be a pure function of the value.
    fn shard_key(&self) -> u64;

    /// Whether every coordinate is finite.  A NaN or infinite coordinate
    /// still has a routing key but no usable distance, so the sharded
    /// engine drops such points before routing them.
    fn all_finite(&self) -> bool;
}

impl ShardKey for f64 {
    fn shard_key(&self) -> u64 {
        self.to_bits()
    }

    fn all_finite(&self) -> bool {
        f64::is_finite(*self)
    }
}

impl ShardKey for u64 {
    fn shard_key(&self) -> u64 {
        *self
    }

    fn all_finite(&self) -> bool {
        true
    }
}

impl<const D: usize> ShardKey for [f64; D] {
    fn shard_key(&self) -> u64 {
        let mut acc = 0xA076_1D64_78BD_642Fu64;
        for c in self {
            acc = splitmix64(acc ^ c.to_bits());
        }
        acc
    }

    fn all_finite(&self) -> bool {
        self.iter().all(|c| c.is_finite())
    }
}

impl<const D: usize> ShardKey for [u64; D] {
    fn shard_key(&self) -> u64 {
        let mut acc = 0xA076_1D64_78BD_642Fu64;
        for c in self {
            acc = splitmix64(acc ^ c);
        }
        acc
    }

    fn all_finite(&self) -> bool {
        true
    }
}

/// Weighted points route by their *point* only: a weight-`w` arrival is
/// `w` co-located unit arrivals, so it must land on the same shard the
/// unit arrivals would.
impl<P: ShardKey> ShardKey for kcz_metric::Weighted<P> {
    fn shard_key(&self) -> u64 {
        self.point.shard_key()
    }

    fn all_finite(&self) -> bool {
        self.point.all_finite()
    }
}

/// The splitmix64 finalizer: a full-avalanche 64-bit mix, the standard
/// seed-splitting primitive (Steele–Lea–Flood).
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A stateless, splittable point→shard router.
///
/// Routing is `splitmix64(seed ⊕ key) mod shards`: deterministic given
/// `(seed, shards)`, independent of arrival order, and value-based — the
/// property the engine's merge path relies on (a point multiset splits
/// the same way no matter how it is batched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPartitioner {
    shards: usize,
    seed: u64,
}

impl HashPartitioner {
    /// A router over `shards ≥ 1` shards.
    pub fn new(shards: usize, seed: u64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        HashPartitioner { shards, seed }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard index of one point.
    pub fn shard_of<K: ShardKey>(&self, p: &K) -> usize {
        (splitmix64(self.seed ^ p.shard_key()) % self.shards as u64) as usize
    }

    /// Splits a batch into per-shard sub-batches, preserving the batch's
    /// arrival order within each shard.
    pub fn split_batch<K: ShardKey + Clone>(&self, batch: &[K]) -> Vec<Vec<K>> {
        let mut out: Vec<Vec<K>> = vec![Vec::new(); self.shards];
        for p in batch {
            out[self.shard_of(p)].push(p.clone());
        }
        out
    }

    /// Derives an independent partitioner (the splittable-seed idiom):
    /// routing decisions of the child are uncorrelated with the parent's.
    pub fn split(&self, salt: u64) -> HashPartitioner {
        HashPartitioner {
            shards: self.shards,
            seed: splitmix64(self.seed.wrapping_add(splitmix64(salt))),
        }
    }
}

/// Deals points round-robin over `m` machines.
pub fn round_robin<P: Clone>(points: &[P], m: usize) -> Vec<Vec<P>> {
    assert!(m >= 1, "need at least one machine");
    let mut out: Vec<Vec<P>> = vec![Vec::with_capacity(points.len() / m + 1); m];
    for (i, p) in points.iter().enumerate() {
        out[i % m].push(p.clone());
    }
    out
}

/// Assigns every point to a uniformly random machine (the distribution
/// assumption of Theorem 33).
pub fn random_partition<P: Clone>(points: &[P], m: usize, seed: u64) -> Vec<Vec<P>> {
    assert!(m >= 1, "need at least one machine");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Vec<P>> = vec![Vec::new(); m];
    for p in points {
        out[rng.random_range(0..m)].push(p.clone());
    }
    out
}

/// Adversarial distribution: every flagged point (outlier) goes to machine
/// 0; the rest are dealt round-robin over machines `1..m` (or all of them
/// if `m == 1`).
pub fn concentrated_partition<P: Clone>(points: &[P], flags: &[bool], m: usize) -> Vec<Vec<P>> {
    assert!(m >= 1, "need at least one machine");
    assert_eq!(points.len(), flags.len(), "one flag per point");
    let mut out: Vec<Vec<P>> = vec![Vec::new(); m];
    let spread = m.max(2) - 1;
    let mut i = 0usize;
    for (p, &f) in points.iter().zip(flags) {
        if f || m == 1 {
            out[0].push(p.clone());
        } else {
            out[1 + i % spread].push(p.clone());
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_balances() {
        let pts: Vec<u32> = (0..100).collect();
        let parts = round_robin(&pts, 7);
        assert_eq!(parts.len(), 7);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        for p in &parts {
            assert!(p.len() == 14 || p.len() == 15);
        }
    }

    #[test]
    fn random_partition_covers_all() {
        let pts: Vec<u32> = (0..1000).collect();
        let parts = random_partition(&pts, 8, 5);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 1000);
        // Sanity: no machine starved (w.h.p. for n=1000, m=8).
        for p in &parts {
            assert!(p.len() > 50, "suspiciously unbalanced: {}", p.len());
        }
        // Determinism.
        assert_eq!(parts, random_partition(&pts, 8, 5));
    }

    #[test]
    fn concentrated_puts_flagged_on_machine_zero() {
        let pts: Vec<u32> = (0..20).collect();
        let flags: Vec<bool> = (0..20).map(|i| i % 4 == 0).collect();
        let parts = concentrated_partition(&pts, &flags, 4);
        assert_eq!(parts[0].len(), 5);
        for &p in &parts[0] {
            assert_eq!(p % 4, 0);
        }
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn single_machine_degenerates() {
        let pts: Vec<u32> = (0..5).collect();
        let parts = concentrated_partition(&pts, &[false; 5], 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 5);
    }

    #[test]
    fn hash_partitioner_is_deterministic_and_value_based() {
        let router = HashPartitioner::new(8, 42);
        let pts: Vec<[f64; 2]> = (0..500).map(|i| [i as f64, (i * 7) as f64]).collect();
        let a = router.split_batch(&pts);
        let b = router.split_batch(&pts);
        assert_eq!(a, b);
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, 500);
        // Duplicates co-locate: the same value always routes identically,
        // and batching does not change the routing.
        for p in &pts {
            assert_eq!(router.shard_of(p), router.shard_of(&p.clone()));
        }
        let (front, back) = pts.split_at(200);
        let mut rebatched = router.split_batch(front);
        for (shard, mut extra) in rebatched.iter_mut().zip(router.split_batch(back)) {
            shard.append(&mut extra);
        }
        assert_eq!(rebatched, a, "batch boundaries must not affect routing");
    }

    #[test]
    fn hash_partitioner_spreads_distinct_points() {
        let router = HashPartitioner::new(8, 7);
        let pts: Vec<[f64; 2]> = (0..4000).map(|i| [i as f64 * 0.5, -(i as f64)]).collect();
        let parts = router.split_batch(&pts);
        for (s, part) in parts.iter().enumerate() {
            assert!(
                part.len() > 250,
                "shard {s} starved: {} of 4000 (bad avalanche?)",
                part.len()
            );
        }
    }

    #[test]
    fn split_derives_an_independent_router() {
        let a = HashPartitioner::new(4, 1);
        let b = a.split(0xFEED);
        assert_eq!(b.shards(), 4);
        assert_ne!(a, b);
        let pts: Vec<[f64; 2]> = (0..256).map(|i| [i as f64, 0.0]).collect();
        let same = pts
            .iter()
            .filter(|p| a.shard_of(*p) == b.shard_of(*p))
            .count();
        // Uncorrelated routing agrees on ~1/shards of the points, not all.
        assert!(same < 128, "child router correlated: {same}/256 agree");
    }

    #[test]
    fn shard_keys_distinguish_values() {
        assert_ne!([0.0f64, 1.0].shard_key(), [1.0f64, 0.0].shard_key());
        assert_eq!([2.0f64, 3.0].shard_key(), [2.0f64, 3.0].shard_key());
        assert_ne!(5u64.shard_key(), 6u64.shard_key());
        assert_eq!(1.25f64.shard_key(), 1.25f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = HashPartitioner::new(0, 1);
    }
}
