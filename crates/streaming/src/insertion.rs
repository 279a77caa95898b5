//! Algorithm 3: the space-optimal insertion-only streaming coreset.
//!
//! The structure keeps a lower bound `r ≤ opt_{k,z}(P(t))` and a weighted
//! representative set `P*`.  An arriving point is absorbed by a
//! representative within `a·r` of it (the paper uses `a = ε/2`); otherwise
//! it becomes a new representative.  Once `|P*|` reaches the capacity
//! `k(16/ε)^d + z`, the packing bound (Lemma 6) certifies `2r ≤ opt`, so
//! `r` doubles and `UpdateCoreset` (Algorithm 4) re-clusters at the new
//! granularity.  Lemma 16 bounds the accumulated drift of any input point
//! to its representative by `2a·r = ε·r ≤ ε·opt`, making `P*` an
//! (ε,k,z)-mini-ball covering at all times (Lemma 17, Theorem 18).
//!
//! [`DoublingCoreset`] exposes the absorb factor and the capacity as
//! parameters; the baselines in [`crate::baselines`] are the same engine
//! with different settings, which is exactly how they differ in the
//! literature.

use kcz_coreset::{streaming_capacity, update_coreset, update_coreset_with_owners};
use kcz_metric::pivot::PivotOrder;
use kcz_metric::{MetricSpace, SpaceUsage, Weighted};

/// Radius-doubling streaming engine (Algorithm 3 generalized over the
/// absorb factor `a` and the capacity threshold).
///
/// A clone leaves the absorb's pivot order empty: the shard leaves and
/// the merged root a publish clones are never inserted into, and the
/// next arrival into a clone rebuilds the order.
#[derive(Debug)]
pub struct DoublingCoreset<P, M> {
    metric: M,
    k: usize,
    z: u64,
    absorb: f64,
    capacity: u64,
    r: f64,
    reps: Vec<Weighted<P>>,
    /// The indices of `reps` by distance to `reps[0]`, whose windows
    /// prune the absorb test.  A new representative is pushed into it; a
    /// re-cluster, a merge or a clone empties it, and the next arrival
    /// rebuilds it.  Between rebuilds the pivot never moves: an absorb
    /// only bumps a weight and a new representative is appended.
    order: PivotOrder<()>,
    n_seen: u64,
    rebuilds: u64,
    peak_words: usize,
    /// Drift guarantee in units of `a·r`: 2 for a pure stream (Lemma 16),
    /// +1 per recompressing merge (Lemma 5 composition; see
    /// [`Self::merge`]).
    drift_factor: f64,
}

impl<P: Clone, M: Clone> Clone for DoublingCoreset<P, M> {
    fn clone(&self) -> Self {
        DoublingCoreset {
            metric: self.metric.clone(),
            k: self.k,
            z: self.z,
            absorb: self.absorb,
            capacity: self.capacity,
            r: self.r,
            reps: self.reps.clone(),
            order: PivotOrder::default(),
            n_seen: self.n_seen,
            rebuilds: self.rebuilds,
            peak_words: self.peak_words,
            drift_factor: self.drift_factor,
        }
    }
}

/// The partition of a [`DoublingCoreset::merge_kept`], kept for the next
/// merge of the same union at the same radius.
///
/// It holds the union the merge recompressed (its points, in order, are
/// the key, and its weights are not), the bits of the merge radius it was
/// partitioned at, the index of each union point's merged representative
/// (composed through the capacity loop's re-partitions), the merged
/// radius after that loop, and the loop's doublings.  That is one index
/// per union point plus the union itself: solver-like memory held by the
/// caller, outside every words count.  An empty record matches nothing.
#[derive(Debug)]
pub struct MergeRecord<P> {
    union: Vec<Weighted<P>>,
    radius_bits: u64,
    owner: Vec<usize>,
    merged_radius: f64,
    doublings: u64,
}

impl<P> Default for MergeRecord<P> {
    fn default() -> Self {
        MergeRecord {
            union: Vec::new(),
            radius_bits: 0,
            owner: Vec::new(),
            merged_radius: 0.0,
            doublings: 0,
        }
    }
}

impl<P: Clone + PartialEq> MergeRecord<P> {
    /// Whether `union`, to be partitioned at `radius`, is the kept one.
    fn matches(&self, union: &[Weighted<P>], radius: f64) -> bool {
        !union.is_empty()
            && self.radius_bits == radius.to_bits()
            && self.union.len() == union.len()
            && self
                .union
                .iter()
                .zip(union)
                .all(|(a, b)| a.point == b.point)
    }

    /// The merged representatives of `union` through the kept owners:
    /// each group's first point, whose first members come in group order,
    /// with its group's weights summed.  The sums saturate, so their
    /// order cannot change them.
    fn regroup(&self, union: &[Weighted<P>]) -> Vec<Weighted<P>> {
        let mut reps: Vec<Weighted<P>> = Vec::new();
        for (p, &g) in union.iter().zip(&self.owner) {
            if g == reps.len() {
                reps.push(Weighted {
                    point: p.point.clone(),
                    weight: 0,
                });
            }
            reps[g].weight = reps[g].weight.saturating_add(p.weight);
        }
        reps
    }
}

impl<P: Clone + SpaceUsage, M: MetricSpace<P>> DoublingCoreset<P, M> {
    /// Creates the engine.  `absorb` is the factor `a` multiplying `r` in
    /// the absorption test; `capacity` is the re-cluster threshold and must
    /// exceed `k + z + 1` so the initial radius can be established.
    pub fn new(metric: M, k: usize, z: u64, absorb: f64, capacity: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(absorb > 0.0, "absorb factor must be positive");
        // Saturating, so a budget near `u64::MAX` fails this check
        // instead of overflowing it.
        let least = (k as u64).saturating_add(z).saturating_add(1);
        assert!(
            capacity > least,
            "capacity {capacity} must exceed k + z + 1 = {least}"
        );
        DoublingCoreset {
            metric,
            k,
            z,
            absorb,
            capacity,
            r: 0.0,
            reps: Vec::new(),
            order: PivotOrder::default(),
            n_seen: 0,
            rebuilds: 0,
            peak_words: 0,
            drift_factor: 2.0,
        }
    }

    /// Merges every summary of `others` (each built with the same
    /// parameters) into this one at once — the coordinator step of
    /// sharded stream ingestion: one union of all sides (Lemma 4), then
    /// one recompression (Lemma 5) at the largest side radius.
    ///
    /// Each side covers its own share within its drift bound, and every
    /// share's optimum is at most the whole input's
    /// (`opt_{k,z}(P_i) ≤ opt_{k,z}(P)`), so the union drifts by at most
    /// the largest side factor times `a·r`; the recompression adds one
    /// more `a·r` term however many sides there are, which
    /// [`Self::drift_bound`] tracks.  Empty sides are skipped, and when
    /// only one side (`self` included) holds data it is adopted as it is
    /// — content and drift unchanged — so sharded engines with idle
    /// shards pay no spurious ε′ widening.  Every call partitions the
    /// union afresh; [`Self::merge_kept`] keeps the partition for the
    /// next merge of the same union.
    pub fn merge<'a>(&mut self, others: impl IntoIterator<Item = &'a DoublingCoreset<P, M>>)
    where
        P: 'a + PartialEq,
        M: Clone + 'a,
    {
        self.merge_kept(others, &mut MergeRecord::default());
    }

    /// [`Self::merge`], reading and keeping the partition of the last
    /// merge that recompressed: returns whether it was reused.
    ///
    /// The recompression is a function of the union's points and the
    /// merge radius alone: weights only add up within groups.  So a merge
    /// of two or more non-empty sides whose union has the kept union's
    /// points (under `==`, in order) and whose radius has the kept bits
    /// re-sums the union's weights through the kept record, with no
    /// partition at all.  Any other such merge partitions and records
    /// anew; an adoption or an empty merge leaves `record` as it is.  The
    /// result equals [`Self::merge`]'s bit for bit, as long as points
    /// that compare equal give distances with the same bits (see
    /// `kcz_kcenter::BallCache`, which keys on the same condition).  A
    /// point not equal to itself, such as one with a NaN coordinate,
    /// never matches.  Pass one record only to merges of summaries with
    /// one metric and one `(k, z, absorb, capacity)`.
    pub fn merge_kept<'a>(
        &mut self,
        others: impl IntoIterator<Item = &'a DoublingCoreset<P, M>>,
        record: &mut MergeRecord<P>,
    ) -> bool
    where
        P: 'a + PartialEq,
        M: Clone + 'a,
    {
        let mut sides = Vec::new();
        for other in others {
            assert!(
                self.k == other.k
                    && self.z == other.z
                    && self.absorb == other.absorb
                    && self.capacity == other.capacity,
                "merge requires identical (k, z, absorb, capacity) parameters"
            );
            // Metrics of the same type can still disagree on the one
            // observable parameter (doubling dimension, e.g. differently
            // configured grid metrics); the capacity arithmetic assumes
            // it matches.
            assert!(
                kcz_coreset::merge::compatible_metrics(&self.metric, &other.metric),
                "merge requires metrics of the same doubling dimension"
            );
            if other.n_seen > 0 {
                sides.push(other);
            }
        }
        if sides.is_empty() {
            return false;
        }
        if self.n_seen == 0 && sides.len() == 1 {
            let peak = self.peak_words.max(sides[0].peak_words);
            *self = sides[0].clone();
            self.peak_words = peak.max(self.space_words());
            return false;
        }
        let mut union = std::mem::take(&mut self.reps);
        union.reserve_exact(sides.iter().map(|side| side.reps.len()).sum());
        for side in sides {
            self.n_seen = self.n_seen.saturating_add(side.n_seen);
            self.r = self.r.max(side.r);
            self.drift_factor = self.drift_factor.max(side.drift_factor);
            union.extend_from_slice(&side.reps);
        }
        self.drift_factor += 1.0;
        let reused = record.matches(&union, self.r);
        if reused {
            self.reps = record.regroup(&union);
            self.r = record.merged_radius;
            self.rebuilds += record.doublings;
        } else {
            self.recompress(union, record);
        }
        self.order = PivotOrder::default();
        self.peak_words = self.peak_words.max(self.space_words());
        reused
    }

    /// The merge's recompression of `union` at the merge radius `self.r`
    /// and its capacity loop, kept in `record` with the owner of each
    /// point of `union` composed through every re-partition.
    fn recompress(&mut self, union: Vec<Weighted<P>>, record: &mut MergeRecord<P>) {
        // Drop the old key first: a partition that panics leaves a record
        // that matches nothing.
        record.union.clear();
        let radius = self.r;
        // Re-establish the mini-ball granularity at the merged radius, or,
        // with every side pre-radius, merge exact duplicates only.
        let delta = if radius > 0.0 {
            self.absorb * radius
        } else {
            0.0
        };
        self.reps = update_coreset_with_owners(&self.metric, &union, delta, &mut record.owner);
        if radius == 0.0 && self.reps.len() as u64 > self.k as u64 + self.z {
            if let Some(min) = self.min_pairwise() {
                self.r = min / 2.0;
            }
        }
        let mut doublings = 0;
        let mut step = Vec::new();
        while self.r > 0.0 && self.reps.len() as u64 >= self.capacity {
            self.r *= 2.0;
            self.reps = update_coreset_with_owners(
                &self.metric,
                &self.reps,
                self.absorb * self.r,
                &mut step,
            );
            for g in &mut record.owner {
                *g = step[*g];
            }
            doublings += 1;
        }
        self.rebuilds += doublings;
        record.union = union;
        record.radius_bits = radius.to_bits();
        record.merged_radius = self.r;
        record.doublings = doublings;
    }

    /// Handles the arrival of one point (`HandleArrival` in Algorithm 3).
    pub fn insert(&mut self, p: P) {
        self.insert_weighted(p, 1);
    }

    /// Handles the arrival of a point of weight `w` (the paper's weighted
    /// formulation; equivalent to `w` co-located unit arrivals).
    pub fn insert_weighted(&mut self, p: P, w: u64) {
        assert!(w > 0, "weights must be positive integers");
        // Saturating like the representative weights: a stream that
        // exhausts u64 weight pins the counter instead of overflowing.
        self.n_seen = self.n_seen.saturating_add(w);
        if self.order.index().len() < self.reps.len() {
            self.order = pivot_order(&self.metric, &self.reps);
        }
        // Line 1–2: absorb into the first representative, in index
        // order, within a·r (see `first_within`).
        let f = self
            .metric
            .dist(self.reps.first().map_or(&p, |c| &c.point), &p);
        if let Some(i) = self.first_within(&p, f, self.absorb * self.r) {
            self.reps[i].weight = self.reps[i].weight.saturating_add(w);
        } else {
            // Line 4: new representative.
            self.order.push(f, ());
            self.reps.push(Weighted::new(p, w));
            // Line 5–7: establish the initial radius from the minimum
            // pairwise distance once k+z+1 distinct points are present.
            if self.r == 0.0 && self.reps.len() as u64 > self.k as u64 + self.z {
                if let Some(min) = self.min_pairwise() {
                    self.r = min / 2.0;
                }
            }
            // Line 8–10: double r and re-cluster until under capacity.
            while self.r > 0.0 && self.reps.len() as u64 >= self.capacity {
                self.r *= 2.0;
                self.reps = update_coreset(&self.metric, &self.reps, self.absorb * self.r);
                self.order = PivotOrder::default();
                self.rebuilds += 1;
            }
        }
        self.peak_words = self.peak_words.max(self.space_words());
    }

    /// The smallest index of a representative within `r` of `p`, where
    /// `f` is `p`'s distance to `reps[0]`: the first hit of a scan in
    /// index order.  Only `p`'s window of the pivot order can hold a hit,
    /// and its reps are tested in place, with no buffer, so an absorb
    /// never allocates.  The window is tested whole, skipping the reps
    /// past the smallest hit so far; on a ring around `reps[0]`, where
    /// the window holds every rep, that costs about 3× the index scan's
    /// early exit.
    fn first_within(&self, p: &P, f: f64, r: f64) -> Option<usize> {
        let mut first = usize::MAX;
        for &i in &self.order.index()[self.order.window(f, r)] {
            if i < first && self.metric.within(p, &self.reps[i].point, r) {
                first = i;
            }
        }
        (first < usize::MAX).then_some(first)
    }

    /// Smallest positive pairwise distance among the representatives,
    /// computed with one batched row kernel per point directly over the
    /// weighted array (no per-call clone of every representative).
    /// Called only at radius establishment (line 5–7) and on pre-radius
    /// merges.
    fn min_pairwise(&self) -> Option<f64> {
        kcz_metric::stats::min_pairwise_distance_weighted(&self.metric, &self.reps)
    }

    /// The current coreset `P*`.
    pub fn coreset(&self) -> &[Weighted<P>] {
        &self.reps
    }

    /// Current lower bound `r ≤ opt_{k,z}(P(t))`.
    pub fn radius_bound(&self) -> f64 {
        self.r
    }

    /// Points consumed so far.
    pub fn points_seen(&self) -> u64 {
        self.n_seen
    }

    /// Number of doubling re-clusters performed.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Drift guarantee: every stream point has a representative within
    /// `drift_factor·a·r` of it — `2a·r` for a pure stream (Lemma 16;
    /// with `a = ε/2` that is `ε·r`), plus `a·r` per recompressing merge.
    pub fn drift_bound(&self) -> f64 {
        self.drift_factor * self.absorb * self.r
    }

    /// The ε′ this summary currently guarantees: with `r ≤ opt` the
    /// covering drift is ≤ `drift_factor·a·r ≤ (drift_factor·a)·opt`.
    /// For a pure stream with `a = ε/2` this is exactly `ε`; each
    /// recompressing merge widens it by `a`.
    pub fn effective_eps(&self) -> f64 {
        self.drift_factor * self.absorb
    }

    /// Current storage in machine words: the representatives plus the
    /// scalars.  The absorb's pivot order, a key and an index per
    /// representative, is left out: it is derived from the
    /// representatives, and a merge drops it.
    pub fn space_words(&self) -> usize {
        self.reps.words() + 6
    }

    /// Maximum storage observed over the stream so far.
    pub fn peak_words(&self) -> usize {
        self.peak_words
    }
}

/// The pivot order of the indices of `reps`, which must not be empty, by
/// distance to `reps[0]`.
fn pivot_order<P, M: MetricSpace<P>>(metric: &M, reps: &[Weighted<P>]) -> PivotOrder<()> {
    let mut f = Vec::new();
    metric.dist_many_weighted(&reps[0].point, reps, &mut f);
    PivotOrder::new(&f, |_| ())
}

/// The paper's insertion-only streaming coreset (Theorem 18):
/// [`DoublingCoreset`] with absorb factor `ε/2` and capacity
/// `k(16/ε)^d + z`.
#[derive(Debug, Clone)]
pub struct InsertionOnlyCoreset<P, M> {
    inner: DoublingCoreset<P, M>,
    eps: f64,
}

impl<P: Clone + SpaceUsage, M: MetricSpace<P>> InsertionOnlyCoreset<P, M> {
    /// Creates the structure for a space of doubling dimension
    /// `metric.doubling_dim()`.
    pub fn new(metric: M, k: usize, z: u64, eps: f64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0, 1]");
        let d = metric.doubling_dim();
        let capacity = streaming_capacity(k, z, eps, d);
        InsertionOnlyCoreset {
            inner: DoublingCoreset::new(metric, k, z, eps / 2.0, capacity),
            eps,
        }
    }

    /// Handles an arrival.
    pub fn insert(&mut self, p: P) {
        self.inner.insert(p);
    }

    /// Handles a weighted arrival (equivalent to `w` unit arrivals at the
    /// same location).
    pub fn insert_weighted(&mut self, p: P, w: u64) {
        self.inner.insert_weighted(p, w);
    }

    /// The maintained (ε,k,z)-coreset.
    pub fn coreset(&self) -> &[Weighted<P>] {
        self.inner.coreset()
    }

    /// The ε this structure was built for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The ε′ the summary currently guarantees — `ε` for a pure stream,
    /// widened by `ε/2` per recompressing merge (see
    /// [`DoublingCoreset::effective_eps`]).
    pub fn effective_eps(&self) -> f64 {
        self.inner.effective_eps()
    }

    /// Merges every summary of `others`, each built with identical
    /// `(k, z, ε)` and the same doubling dimension — the sharded-ingest
    /// path: one Lemma 4 union plus at most one recompression, tracked by
    /// `effective_eps` (see [`DoublingCoreset::merge`]).  The engine calls
    /// [`Self::merge_kept`], which reuses the last partition while the
    /// union's points stay.
    pub fn merge<'a>(&mut self, others: impl IntoIterator<Item = &'a Self>)
    where
        P: 'a + PartialEq,
        M: Clone + 'a,
    {
        self.merge_kept(others, &mut MergeRecord::default());
    }

    /// [`Self::merge`], reusing `record`'s partition when the union and
    /// the merge radius are the kept ones; returns whether it did (see
    /// [`DoublingCoreset::merge_kept`]).  The output is [`Self::merge`]'s,
    /// bit for bit.
    pub fn merge_kept<'a>(
        &mut self,
        others: impl IntoIterator<Item = &'a Self>,
        record: &mut MergeRecord<P>,
    ) -> bool
    where
        P: 'a + PartialEq,
        M: Clone + 'a,
    {
        let eps = self.eps;
        self.inner.merge_kept(
            others.into_iter().map(|other| {
                assert!(eps == other.eps, "merge requires identical ε parameters");
                &other.inner
            }),
            record,
        )
    }

    /// Lower bound `r ≤ opt`.
    pub fn radius_bound(&self) -> f64 {
        self.inner.radius_bound()
    }

    /// Covering-property bound: reps are within `ε·r ≤ ε·opt` of the
    /// points they represent (Lemma 16).
    pub fn drift_bound(&self) -> f64 {
        self.inner.drift_bound()
    }

    /// Current storage in words.
    pub fn space_words(&self) -> usize {
        self.inner.space_words()
    }

    /// Peak storage in words.
    pub fn peak_words(&self) -> usize {
        self.inner.peak_words()
    }

    /// Number of re-cluster events.
    pub fn rebuilds(&self) -> u64 {
        self.inner.rebuilds()
    }

    /// Points consumed.
    pub fn points_seen(&self) -> u64 {
        self.inner.points_seen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_coreset::streaming_capacity;
    use kcz_kcenter::exact_discrete;
    use kcz_metric::{total_weight, Linf, L2};

    /// Deterministic pseudo-random stream: two clusters + outliers.
    fn stream(n: usize) -> Vec<[f64; 2]> {
        let mut out = Vec::with_capacity(n);
        let mut s = 0x12345678u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            if i % 50 == 49 {
                out.push([1000.0 + next() * 5000.0, -2000.0 - next() * 3000.0]);
            } else if i % 2 == 0 {
                out.push([next() * 2.0, next() * 2.0]);
            } else {
                out.push([80.0 + next() * 2.0, 80.0 + next() * 2.0]);
            }
        }
        out
    }

    #[test]
    fn weight_preserved_over_stream() {
        let mut alg = InsertionOnlyCoreset::new(L2, 2, 12, 0.5);
        let pts = stream(400);
        for p in &pts {
            alg.insert(*p);
        }
        assert_eq!(total_weight(alg.coreset()), 400);
        assert_eq!(alg.points_seen(), 400);
    }

    #[test]
    fn radius_is_lower_bound_on_opt() {
        let pts = stream(300);
        let mut alg = InsertionOnlyCoreset::new(L2, 2, 12, 0.5);
        for p in &pts {
            alg.insert(*p);
        }
        let weighted: Vec<Weighted<[f64; 2]>> = pts.iter().map(|p| Weighted::unit(*p)).collect();
        let opt = exact_discrete(&L2, &weighted, 2, 12, &pts).radius;
        assert!(
            alg.radius_bound() <= opt + 1e-9,
            "r = {} > opt = {opt}",
            alg.radius_bound()
        );
    }

    #[test]
    fn covering_property_at_every_prefix() {
        let pts = stream(250);
        let mut alg = InsertionOnlyCoreset::new(L2, 2, 6, 0.8);
        for (t, p) in pts.iter().enumerate() {
            alg.insert(*p);
            if t % 40 == 39 {
                let bound = alg.drift_bound() + 1e-12;
                for q in &pts[..=t] {
                    let d = alg
                        .coreset()
                        .iter()
                        .map(|r| L2.dist(q, &r.point))
                        .fold(f64::INFINITY, f64::min);
                    assert!(d <= bound, "prefix {t}: point {q:?} at {d} > {bound}");
                }
            }
        }
    }

    #[test]
    fn size_stays_below_capacity() {
        let pts = stream(2000);
        let k = 2;
        let z = 12;
        let eps = 1.0;
        let mut alg = InsertionOnlyCoreset::new(L2, k, z, eps);
        let cap = streaming_capacity(k, z, eps, 2);
        for p in &pts {
            alg.insert(*p);
            assert!((alg.coreset().len() as u64) < cap.max(1) + 1);
        }
        assert!((alg.coreset().len() as u64) < cap);
    }

    #[test]
    fn duplicate_heavy_stream() {
        let mut alg = InsertionOnlyCoreset::new(L2, 1, 2, 0.5);
        for i in 0..100 {
            alg.insert([(i % 3) as f64, 0.0]);
        }
        // Only 3 distinct locations, k+z+1 = 4 never reached: r stays 0.
        assert_eq!(alg.radius_bound(), 0.0);
        assert_eq!(alg.coreset().len(), 3);
        assert_eq!(total_weight(alg.coreset()), 100);
    }

    #[test]
    fn rebuilds_happen_when_capacity_hit() {
        // Capacity for (k=1, z=0, ε=1, d=2) is 16² = 256; a line of 300
        // unit-spaced points must overflow it and trigger doubling.
        let mut alg = InsertionOnlyCoreset::new(L2, 1, 0, 1.0);
        for i in 0..300 {
            alg.insert([i as f64, 0.0]);
        }
        assert!(alg.rebuilds() > 0, "expected at least one doubling");
        assert!((alg.coreset().len() as u64) < streaming_capacity(1, 0, 1.0, 2));
        assert_eq!(total_weight(alg.coreset()), 300);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn tiny_capacity_rejected() {
        let _ = DoublingCoreset::<[f64; 2], _>::new(L2, 2, 5, 0.5, 8);
    }

    /// Splits one stream over the first `non_empty` of `sides` summaries,
    /// merges all of them at once into an empty one, and verifies weight
    /// preservation plus the covering bound for every input point.
    fn check_merged_covering(sides: usize, non_empty: usize) {
        let pts = stream(600);
        let mk = || DoublingCoreset::<[f64; 2], _>::new(L2, 2, 8, 0.25, 200);
        let mut parts: Vec<_> = (0..sides).map(|_| mk()).collect();
        for (part, chunk) in parts
            .iter_mut()
            .zip(pts.chunks(pts.len().div_ceil(non_empty)))
        {
            for p in chunk {
                part.insert(*p);
            }
        }
        let mut merged = mk();
        merged.merge(&parts);
        assert_eq!(total_weight(merged.coreset()), 600);
        assert!(merged.radius_bound() > 0.0);
        let bound = merged.drift_bound() + 1e-12;
        for p in &pts {
            let d = merged
                .coreset()
                .iter()
                .map(|r| L2.dist(p, &r.point))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= bound, "{sides} sides: point {p:?} at {d} > {bound}");
        }
        // One recompression however many sides: factor 3 instead of 2,
        // and a lone non-empty side is adopted with its factor 2 intact.
        let factor = if non_empty == 1 { 2.0 } else { 3.0 };
        assert!(
            (merged.drift_bound() - factor * 0.25 * merged.radius_bound()).abs() < 1e-12,
            "{sides} sides, {non_empty} non-empty"
        );
    }

    #[test]
    fn merged_shards_form_valid_covering() {
        for sides in [2, 3, 8] {
            check_merged_covering(sides, sides);
            check_merged_covering(sides, 1);
        }
    }

    #[test]
    fn weight_only_bumps_preserve_merged_representative_order() {
        // If no shard gained or lost a representative, the merged
        // summary must list the same representatives at the same
        // positions, with only weights moved.  The flat merge
        // concatenates the leaves and its recompression partitions by
        // position alone, so this must hold for any leaf's weights
        // bumped by any amount.
        let pts = stream(400);
        let mk = || InsertionOnlyCoreset::new(L2, 2, 8, 0.5);
        let mut leaves: Vec<_> = (0..5).map(|_| mk()).collect();
        for (i, p) in pts.iter().enumerate() {
            leaves[i % 5].insert(*p);
        }
        let merge = |leaves: &[InsertionOnlyCoreset<[f64; 2], L2>]| {
            let mut merged = mk();
            merged.merge(leaves);
            merged
        };
        let before = merge(&leaves);
        // Re-arrivals at existing representatives are absorbed: weight
        // bumps only, no leaf gains a representative.
        let sizes: Vec<usize> = leaves.iter().map(|l| l.coreset().len()).collect();
        let p = leaves[1].coreset()[3].point;
        leaves[1].insert_weighted(p, 7);
        let p = leaves[4].coreset()[0].point;
        leaves[4].insert(p);
        assert_eq!(
            leaves.iter().map(|l| l.coreset().len()).collect::<Vec<_>>(),
            sizes
        );
        let after = merge(&leaves);
        assert_eq!(before.coreset().len(), after.coreset().len());
        for (i, (b, a)) in before.coreset().iter().zip(after.coreset()).enumerate() {
            assert_eq!(
                b.point.map(f64::to_bits),
                a.point.map(f64::to_bits),
                "rep {i} moved position under a weight-only bump"
            );
            assert!(a.weight >= b.weight, "rep {i} lost weight");
        }
        assert_eq!(
            total_weight(after.coreset()),
            total_weight(before.coreset()) + 8,
            "exactly the bumped mass arrives"
        );
    }

    #[test]
    fn merge_with_empty_is_identity_on_content() {
        let pts = stream(100);
        let mk = || DoublingCoreset::<[f64; 2], _>::new(L2, 2, 4, 0.25, 120);
        let mut a = mk();
        for p in &pts {
            a.insert(*p);
        }
        let before: Vec<_> = a.coreset().to_vec();
        a.merge([&mk()]);
        assert_eq!(total_weight(a.coreset()), 100);
        // Content may be re-clustered but weight and covering stay intact;
        // with an empty other side and unchanged r, reps are preserved.
        assert_eq!(a.coreset().len(), before.len());
    }

    #[test]
    fn empty_merge_does_not_widen_drift() {
        let pts = stream(120);
        let mk = || DoublingCoreset::<[f64; 2], _>::new(L2, 2, 4, 0.25, 120);
        let mut a = mk();
        for p in &pts {
            a.insert(*p);
        }
        let eps_before = a.effective_eps();
        a.merge([&mk(), &mk()]); // union with ∅
        assert_eq!(a.effective_eps(), eps_before);
        let mut empty = mk();
        empty.merge([&mk(), &a]); // ∅ absorbing one summary adopts it as-is
        assert_eq!(empty.effective_eps(), eps_before);
        assert_eq!(total_weight(empty.coreset()), 120);
    }

    #[test]
    fn effective_eps_widens_by_half_eps_per_merge() {
        let pts = stream(300);
        let eps = 0.5;
        let mk = || InsertionOnlyCoreset::new(L2, 2, 8, eps);
        let mut a = mk();
        let mut b = mk();
        for p in &pts[..150] {
            a.insert(*p);
        }
        for p in &pts[150..] {
            b.insert(*p);
        }
        // Pure streams certify exactly ε.
        assert!((a.effective_eps() - eps).abs() < 1e-12);
        a.merge([&b]);
        // One recompressing merge widens by a = ε/2.
        assert!((a.effective_eps() - 1.5 * eps).abs() < 1e-12);
        assert_eq!(total_weight(a.coreset()), 300);
        // Merging the merged summary again pays another recompression.
        a.merge([&b]);
        assert!((a.effective_eps() - 2.0 * eps).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn merge_rejects_mismatched_parameters() {
        let mut a = DoublingCoreset::<[f64; 2], _>::new(L2, 2, 4, 0.25, 120);
        let b = DoublingCoreset::<[f64; 2], _>::new(L2, 3, 4, 0.25, 120);
        a.merge([&b]);
    }

    #[test]
    fn weighted_inserts_equal_repeated_unit_inserts() {
        let pts = stream(60);
        let mut unit_alg = InsertionOnlyCoreset::new(L2, 2, 4, 0.5);
        let mut weighted_alg = InsertionOnlyCoreset::new(L2, 2, 4, 0.5);
        for p in &pts {
            for _ in 0..3 {
                unit_alg.insert(*p);
            }
            weighted_alg.insert_weighted(*p, 3);
        }
        assert_eq!(total_weight(unit_alg.coreset()), 180);
        assert_eq!(total_weight(weighted_alg.coreset()), 180);
        assert_eq!(unit_alg.coreset().len(), weighted_alg.coreset().len());
        for (a, b) in unit_alg.coreset().iter().zip(weighted_alg.coreset()) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.weight, b.weight);
        }
    }

    /// The absorb loop before the pivot order, kept as the reference the
    /// windowed absorb must reproduce bit for bit: a linear first-hit
    /// scan over the representatives, then `update_coreset` on every
    /// doubling.
    struct Reference<P> {
        k: usize,
        z: u64,
        absorb: f64,
        capacity: u64,
        r: f64,
        reps: Vec<Weighted<P>>,
    }

    impl<P: Clone> Reference<P> {
        /// A reference that continues from `alg`'s current state.
        fn of<M>(alg: &DoublingCoreset<P, M>) -> Self {
            Reference {
                k: alg.k,
                z: alg.z,
                absorb: alg.absorb,
                capacity: alg.capacity,
                r: alg.r,
                reps: alg.reps.clone(),
            }
        }

        fn insert<M: MetricSpace<P>>(&mut self, metric: &M, p: P, w: u64) {
            let r = self.absorb * self.r;
            if let Some(i) = self
                .reps
                .iter()
                .position(|c| metric.within(&p, &c.point, r))
            {
                self.reps[i].weight = self.reps[i].weight.saturating_add(w);
                return;
            }
            self.reps.push(Weighted::new(p, w));
            if self.r == 0.0 && self.reps.len() as u64 > self.k as u64 + self.z {
                if let Some(min) =
                    kcz_metric::stats::min_pairwise_distance_weighted(metric, &self.reps)
                {
                    self.r = min / 2.0;
                }
            }
            while self.r > 0.0 && self.reps.len() as u64 >= self.capacity {
                self.r *= 2.0;
                self.reps = update_coreset(metric, &self.reps, self.absorb * self.r);
            }
        }
    }

    /// What a replay exercised: arrivals right after a doubling
    /// re-cluster, and arrivals whose window left out a rep.
    #[derive(Debug, Default)]
    struct Replay {
        after_rebuild: usize,
        pruned: usize,
    }

    /// Replays `arrivals` through `alg` and through a [`Reference`] that
    /// starts from `alg`'s state, asserting bit-identical coresets and
    /// radii after every insert, and a pivot order that is either empty
    /// or the one a rebuild would make.
    fn assert_replay_matches<M: MetricSpace<[f64; 2]>>(
        alg: &mut DoublingCoreset<[f64; 2], M>,
        arrivals: &[([f64; 2], u64)],
        what: &str,
    ) -> Replay {
        let key = |reps: &[Weighted<[f64; 2]>]| -> Vec<([u64; 2], u64)> {
            reps.iter()
                .map(|c| (c.point.map(f64::to_bits), c.weight))
                .collect()
        };
        let mut reference = Reference::of(alg);
        let mut seen = Replay::default();
        let mut rebuilds = alg.rebuilds();
        for (t, &(p, w)) in arrivals.iter().enumerate() {
            seen.after_rebuild += usize::from(alg.rebuilds() > rebuilds);
            rebuilds = alg.rebuilds();
            if let Some(c) = alg.reps.first() {
                let f = alg.metric.dist(&c.point, &p);
                let order = pivot_order(&alg.metric, &alg.reps);
                seen.pruned +=
                    usize::from(order.window(f, alg.absorb * alg.r).len() < alg.reps.len());
            }
            alg.insert_weighted(p, w);
            reference.insert(&alg.metric, p, w);
            assert_eq!(
                key(alg.coreset()),
                key(&reference.reps),
                "{what}: arrival {t}"
            );
            assert_eq!(
                alg.r.to_bits(),
                reference.r.to_bits(),
                "{what}: arrival {t}"
            );
            if !alg.order.index().is_empty() {
                let rebuilt = pivot_order(&alg.metric, &alg.reps);
                assert_eq!(
                    alg.order.index(),
                    rebuilt.index(),
                    "{what}: order after {t}"
                );
            }
        }
        seen
    }

    /// [`stream`] with weights, repeats of earlier arrivals, and one NaN
    /// and one infinite coordinate.
    fn weighted_stream(n: usize) -> Vec<([f64; 2], u64)> {
        let pts = stream(n);
        let mut out: Vec<([f64; 2], u64)> = Vec::with_capacity(n + n / 7);
        for (i, &p) in pts.iter().enumerate() {
            out.push((p, 1 + (i % 3) as u64));
            if i % 7 == 6 {
                out.push((pts[i / 2], 2));
            }
        }
        out[n / 3].0 = [f64::NAN, 1.0];
        out[n / 2].0 = [f64::INFINITY, 0.0];
        out
    }

    #[test]
    fn windowed_absorb_matches_the_first_hit_scan() {
        let arrivals = weighted_stream(1500);
        let mut l2 = DoublingCoreset::new(L2, 2, 8, 0.25, 40);
        let seen = assert_replay_matches(&mut l2, &arrivals, "L2");
        assert!(seen.after_rebuild >= 3 && seen.pruned > 400, "{seen:?}");
        let mut linf = DoublingCoreset::new(Linf, 2, 8, 0.25, 40);
        let seen = assert_replay_matches(&mut linf, &arrivals, "Linf");
        assert!(seen.after_rebuild >= 3 && seen.pruned > 400, "{seen:?}");
    }

    #[test]
    fn a_clone_mid_stream_stays_bit_identical_to_its_original() {
        let arrivals = weighted_stream(1500);
        let (head, tail) = arrivals.split_at(700);
        let mut alg = DoublingCoreset::new(L2, 2, 8, 0.25, 40);
        for &(p, w) in head {
            alg.insert_weighted(p, w);
        }
        assert!(!alg.order.index().is_empty(), "the original holds an order");
        let mut copy = alg.clone();
        assert!(copy.order.index().is_empty(), "a clone starts without one");
        let key = |a: &DoublingCoreset<[f64; 2], L2>| {
            let reps: Vec<([u64; 2], u64)> = a
                .coreset()
                .iter()
                .map(|c| (c.point.map(f64::to_bits), c.weight))
                .collect();
            (reps, a.r.to_bits(), a.n_seen, a.rebuilds, a.peak_words)
        };
        for (t, &(p, w)) in tail.iter().enumerate() {
            alg.insert_weighted(p, w);
            copy.insert_weighted(p, w);
            assert_eq!(key(&copy), key(&alg), "arrival {t} after the clone");
        }
        // The clone rebuilt its order at its first arrival and kept it.
        assert!(!copy.order.index().is_empty());
        assert_eq!(copy.order.index(), alg.order.index());
    }

    #[test]
    fn windowed_absorb_matches_on_a_ring_around_the_pivot() {
        // Every rep but the first sits at one distance from reps[0], so
        // every window spans the ring, in no order of index; each arrival
        // hits exactly one rep.
        let ring = |i: usize, jitter: f64| {
            let a = std::f64::consts::TAU * i as f64 / 200.0;
            [(1000.0 + jitter) * a.cos(), (1000.0 + jitter) * a.sin()]
        };
        let mut alg = DoublingCoreset::new(L2, 2, 8, 0.25, 1000);
        let mut arrivals = vec![([0.0, 0.0], 1)];
        arrivals.extend((0..200).map(|i| (ring(i, 0.0), 1)));
        arrivals.extend((0..600).map(|i| (ring(i * 67 % 200, (i % 5) as f64 * 0.5), 1)));
        assert_replay_matches(&mut alg, &arrivals, "ring");
        assert_eq!(alg.coreset().len(), 201);
    }

    #[test]
    fn windowed_absorb_matches_after_a_merge() {
        let arrivals = weighted_stream(900);
        let mk = || DoublingCoreset::<[f64; 2], _>::new(L2, 2, 8, 0.25, 60);
        let (mut a, mut b) = (mk(), mk());
        for &(p, w) in &arrivals[..300] {
            a.insert_weighted(p, w);
        }
        for &(p, w) in &arrivals[300..600] {
            b.insert_weighted(p, w);
        }
        a.merge([&b]);
        assert_replay_matches(&mut a, &arrivals[600..], "after a merge");
        // A merge before any radius is set only merges duplicates.
        let (mut c, mut d) = (mk(), mk());
        c.insert([1.0, 1.0]);
        d.insert([5.0, 5.0]);
        d.insert([1.0, 1.0]);
        c.merge([&d]);
        assert_replay_matches(&mut c, &arrivals[..200], "after a pre-radius merge");
    }

    #[test]
    fn an_arrival_at_exactly_a_r_from_two_reps_joins_the_lower_index() {
        // k + z + 1 = 2 distinct points set r = 20 / 2, so a·r = 5.  Reps
        // 2 and 3 lie at exactly 5 from [100, 0] (3-4-5 triangles, exact
        // in squared arithmetic), and rep 3 comes first in the pivot
        // order: the absorb must still pick rep 2, like the index scan.
        let mut alg = DoublingCoreset::<[f64; 2], _>::new(L2, 1, 0, 0.5, 100);
        let reps = [[0.0, 0.0], [20.0, 0.0], [103.0, 4.0], [97.0, -4.0]];
        let arrivals: Vec<_> = reps
            .iter()
            .chain(&[[100.0, 0.0], [100.0, 0.0]])
            .map(|&p| (p, 1))
            .collect();
        let seen = assert_replay_matches(&mut alg, &arrivals, "ties");
        assert_eq!(seen.pruned, 5, "{seen:?}");
        assert_eq!(alg.radius_bound() * 0.5, 5.0);
        let weights: Vec<u64> = alg.coreset().iter().map(|c| c.weight).collect();
        assert_eq!(weights, [1, 1, 3, 1]);
        let f = |i: usize| L2.dist(&reps[0], &reps[i]);
        assert!(f(3) < f(2), "rep 3 comes first in the pivot order");
    }

    /// Everything a merge sets, bit for bit: the representatives'
    /// points and weights, `radius_bound`, `drift_bound`,
    /// `effective_eps`, `points_seen`, `space_words`, `peak_words` and
    /// `rebuilds`.
    type MergedBits = (Vec<([u64; 2], u64)>, [u64; 3], u64, [usize; 2], u64);

    fn merged_bits<M: MetricSpace<[f64; 2]>>(m: &DoublingCoreset<[f64; 2], M>) -> MergedBits {
        (
            m.coreset()
                .iter()
                .map(|c| (c.point.map(f64::to_bits), c.weight))
                .collect(),
            [m.radius_bound(), m.drift_bound(), m.effective_eps()].map(f64::to_bits),
            m.points_seen(),
            [m.space_words(), m.peak_words()],
            m.rebuilds(),
        )
    }

    /// One merge of a schedule: its sides, and whether the kept merge
    /// must reuse the record.
    type MergeStep<'a, M> = (&'a [DoublingCoreset<[f64; 2], M>], bool);

    /// Merges each step's sides into an empty summary twice, through one
    /// record kept across all steps and with a plain `merge`, asserting
    /// that both agree bit for bit and that the kept merge reused exactly
    /// where the step says.  Returns the plain merges.
    fn assert_kept_merges<M: MetricSpace<[f64; 2]> + Clone>(
        mk: impl Fn() -> DoublingCoreset<[f64; 2], M>,
        steps: &[MergeStep<'_, M>],
        what: &str,
    ) -> Vec<DoublingCoreset<[f64; 2], M>> {
        let mut record = MergeRecord::default();
        let mut fresh_merges = Vec::new();
        for (t, &(sides, reuse)) in steps.iter().enumerate() {
            let mut kept = mk();
            let reused = kept.merge_kept(sides, &mut record);
            let mut fresh = mk();
            fresh.merge(sides);
            assert_eq!(reused, reuse, "{what}: step {t} reuse");
            assert_eq!(merged_bits(&kept), merged_bits(&fresh), "{what}: step {t}");
            fresh_merges.push(fresh);
        }
        fresh_merges
    }

    /// A summary fed `arrivals`, with unit weights.
    fn fed<M: MetricSpace<[f64; 2]>>(
        mut s: DoublingCoreset<[f64; 2], M>,
        arrivals: &[[f64; 2]],
    ) -> DoublingCoreset<[f64; 2], M> {
        for &p in arrivals {
            s.insert(p);
        }
        s
    }

    /// `sides` with one representative of each re-inserted at weight
    /// `w`: every side keeps its points and only a weight moves.
    fn bumped<M: MetricSpace<[f64; 2]> + Clone>(
        sides: &[DoublingCoreset<[f64; 2], M>],
        w: u64,
    ) -> Vec<DoublingCoreset<[f64; 2], M>> {
        let mut out = sides.to_vec();
        for (i, s) in out.iter_mut().enumerate() {
            if s.points_seen() == 0 {
                continue;
            }
            let before: Vec<[u64; 2]> = s.reps.iter().map(|c| c.point.map(f64::to_bits)).collect();
            let p = s.coreset()[i % s.coreset().len()].point;
            s.insert_weighted(p, w);
            let after: Vec<[u64; 2]> = s.reps.iter().map(|c| c.point.map(f64::to_bits)).collect();
            assert_eq!(before, after, "a bump moved a point");
        }
        out
    }

    /// The kept merge against a fresh one, over every case that decides
    /// whether the record may be reused.
    fn kept_merge_equals_a_fresh_merge<M: MetricSpace<[f64; 2]> + Clone>(metric: M) {
        let pts = stream(900);
        // Weight-only bumps reuse; a representative appended to one side
        // and a side re-clustered to a doubled radius each miss once.
        let mk = || DoublingCoreset::new(metric.clone(), 2, 8, 0.25, 60);
        let base: Vec<_> = pts[..600].chunks(150).map(|c| fed(mk(), c)).collect();
        let bumps = bumped(&base, 3);
        let mut appended = bumps.clone();
        appended[2].insert([9999.0, -9999.0]);
        assert_eq!(appended[2].reps.len(), bumps[2].reps.len() + 1);
        let appended_bumps = bumped(&appended, 1);
        let mut doubled = appended_bumps.clone();
        let rebuilds = doubled[0].rebuilds();
        for i in 0..200 {
            doubled[0].insert([2e4 + i as f64 * 1e3, 5e3]);
            if doubled[0].rebuilds() > rebuilds {
                break;
            }
        }
        assert!(
            doubled[0].rebuilds() > rebuilds,
            "side 0 never re-clustered"
        );
        let doubled_bumps = bumped(&doubled, 2);
        assert_kept_merges(
            mk,
            &[
                (&base, false),
                (&bumps, true),
                (&appended, false),
                (&appended_bumps, true),
                (&doubled, false),
                (&doubled_bumps, true),
            ],
            "bumps, append, re-cluster",
        );

        // Pre-radius sides (r = 0): two sides of a few distinct points
        // merge duplicates only; one side with all of their points is
        // adopted, which neither reads nor drops the record.
        let few = [[0.0, 0.0], [1.0, 0.0], [2.0, 3.0], [7.0, 7.0], [9.0, 1.0]];
        let two = [fed(mk(), &few[..3]), fed(mk(), &few[3..])];
        let one = [fed(mk(), &few), mk()];
        assert_eq!(one[0].radius_bound(), 0.0);
        let merges = assert_kept_merges(
            mk,
            &[
                (&two, false),
                (&bumped(&two, 5), true),
                (&one, false),
                (&bumped(&two, 1), true),
            ],
            "pre-radius and adoption",
        );
        assert_eq!(merges[0].radius_bound(), 0.0);
        assert!(merges[2].effective_eps() < merges[1].effective_eps());
        // Pre-radius sides whose union passes k + z distinct points: the
        // merge itself sets the radius, and the record keeps it.
        let twelve: Vec<[f64; 2]> = (0..12).map(|i| [i as f64 * 3.0, (i % 4) as f64]).collect();
        let halves = [fed(mk(), &twelve[..6]), fed(mk(), &twelve[6..])];
        let merges = assert_kept_merges(
            mk,
            &[(&halves, false), (&bumped(&halves, 2), true)],
            "radius set by the merge",
        );
        assert!(halves.iter().all(|h| h.radius_bound() == 0.0));
        assert!(merges[1].radius_bound() > 0.0);

        // The same union at another radius misses: only the sides'
        // radii differ.
        let mk1 = || DoublingCoreset::new(metric.clone(), 1, 0, 0.25, 50);
        let (x, y, u) = ([0.0, 0.0], [10.0, 0.0], [13.0, 0.0]);
        let wide = [fed(mk1(), &[x, y]), fed(mk1(), &[u])];
        let narrow = [fed(mk1(), &[x]), fed(mk1(), &[y, u])];
        let merges = assert_kept_merges(
            mk1,
            &[
                (&wide, false),
                (&narrow, false),
                (&bumped(&narrow, 1), true),
            ],
            "another radius",
        );
        assert_ne!(merges[0].radius_bound(), merges[1].radius_bound());

        // A union past the capacity runs the merge's doubling loop; the
        // record composes the loop's re-partitions.
        let mk_small = || DoublingCoreset::new(metric.clone(), 2, 4, 0.25, 20);
        let many: Vec<_> = pts.chunks(150).map(|c| fed(mk_small(), c)).collect();
        let merges = assert_kept_merges(
            mk_small,
            &[(&many, false), (&bumped(&many, 7), true)],
            "capacity loop",
        );
        assert!(merges[0].rebuilds() > 0, "the merge never doubled");

        // Saturated weights: the re-sums saturate as the partition's do.
        let heavy: Vec<_> = pts[..300]
            .chunks(100)
            .map(|c| {
                let mut s = mk();
                for (i, &p) in c.iter().enumerate() {
                    s.insert_weighted(p, if i % 3 == 0 { u64::MAX } else { 1 });
                }
                s
            })
            .collect();
        let merges = assert_kept_merges(
            mk,
            &[(&heavy, false), (&bumped(&heavy, u64::MAX), true)],
            "u64::MAX weights",
        );
        assert!(merges[1].coreset().iter().any(|c| c.weight == u64::MAX));

        // 0.0 and -0.0 compare equal and give the same distances: the
        // record is reused, and the merged points carry this union's
        // sign bits.
        let signed = |z: f64| {
            let a = [[z, 5.0], [3.0, z], [40.0, 40.0]];
            let b = [[z, z], [80.0, 1.0]];
            [fed(mk(), &a), fed(mk(), &b)]
        };
        let merges = assert_kept_merges(
            mk,
            &[(&signed(0.0), false), (&signed(-0.0), true)],
            "signed zero",
        );
        assert!(merges[1].coreset()[0].point[0].is_sign_negative());

        // A NaN coordinate never equals itself, so its union never
        // matches.  It leads its side: under Linf a later NaN arrival
        // passes every coordinate test and is absorbed.
        let mut nan = base.clone();
        nan[1] = fed(fed(mk(), &[[f64::NAN, 1.0]]), &pts[150..300]);
        assert!(nan[1].coreset()[0].point[0].is_nan());
        assert_kept_merges(mk, &[(&nan, false), (&bumped(&nan, 1), false)], "NaN");
    }

    #[test]
    fn kept_merge_equals_a_fresh_merge_under_l2_and_linf() {
        kept_merge_equals_a_fresh_merge(L2);
        kept_merge_equals_a_fresh_merge(Linf);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_insert_rejected() {
        let mut alg = InsertionOnlyCoreset::new(L2, 1, 0, 0.5);
        alg.insert_weighted([0.0, 0.0], 0);
    }
}
