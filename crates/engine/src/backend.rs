//! Pluggable per-shard backends: how a shard turns arrivals into the
//! [`InsertionOnlyCoreset`] leaf the engine's flat merge consumes.
//!
//! The engine's publish path is mode-agnostic: every backend produces an
//! insertion-only summary as its *leaf*, and the same clean-leaf reuse,
//! flat merge and Charikar solve run on top.  What a
//! backend changes is **which multiset the leaf summarizes**:
//!
//! * [`InsertionShard`] — everything ever ingested (the original engine
//!   behavior, bit-for-bit: its leaf *is* the resident insertion-only
//!   coreset, cloned).
//! * [`WindowShard`] — only the points whose global arrival stamp lies
//!   in the last `W` arrivals.  The shard keeps the exact unexpired
//!   suffix in a stamp-sorted buffer and, at publish time, re-streams it
//!   through a fresh [`SlidingWindowCoreset`] (the de Berg–Monemizadeh–
//!   Zhong mini-ball machinery): the chosen guess's stored points, in
//!   arrival order, feed the leaf.  Because the leaf is a pure function
//!   of the unexpired suffix — and every stamp comparison is
//!   shift-invariant — a from-scratch engine replaying only that suffix
//!   publishes bit-identical verdicts (the property the conformance
//!   churn oracles pin).
//! * [`DecayShard`] — everything, but with exponentially decayed
//!   weights: each representative's weight halves every `half_life`
//!   arrivals since it was last touched (the DenStream-style
//!   micro-cluster rule), and representatives whose decayed weight falls
//!   below ½ are dropped.
//!
//! # Time is the arrival clock
//!
//! The engine stamps every ingested point with its position in the
//! global arrival order and hands backends that clock: `insert_weighted`
//! carries the point's stamp, and [`ShardBackend::advance_to`] delivers
//! pure time passage (arrivals that landed on *sibling* shards).  Time
//! therefore advances only when data arrives — an unchanged engine
//! version still implies an unchanged publish, so the cached-snapshot
//! fast path stays exact in every mode.
//!
//! # The dirty-shard contract
//!
//! [`ShardBackend::state_version`] must advance whenever the summary the
//! backend *would* publish could have changed — on every insert, but
//! also on time-driven mutation: a window expiry or a decay tick with
//! live representatives.  This is what fixes the staleness bug the
//! insertion-only engine could not exhibit: a shard no batch touched is
//! only "clean" if time did not mutate it either.
//!
//! # ε′ composition
//!
//! The merged root's `effective_eps` accounts the leaf ε and the one
//! recompression's `ε/2` (once two or more leaves hold data).  The
//! window and decay stages sit *in front of* the leaf and contribute
//! their own ε of summarization error, reported via
//! [`Backend::extra_eps`] and folded into the published `effective_eps`
//! (and thus `bound_factor = 3 + 8ε′`).  Insertion mode contributes
//! zero — its snapshots are bit-identical to the pre-backend engine.

use std::collections::VecDeque;

use kcz_coreset::streaming_capacity;
use kcz_metric::{MetricSpace, SpaceUsage};
use kcz_streaming::{InsertionOnlyCoreset, SlidingWindowCoreset};

/// Which per-shard backend an engine runs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Insertion-only: shards summarize everything ever ingested.
    Insertion,
    /// Sliding window: shards summarize the last `W` global arrivals.
    Window(u64),
    /// Exponential decay: representative weights halve every
    /// `half_life` arrivals since last touch; weights below ½ expire.
    Decay(f64),
}

impl Backend {
    /// The summarization error the backend stage adds in front of the
    /// shard leaf, in units of the configured ε: zero for insertion-only
    /// (the leaf ingests the exact arrivals), one ε for the window and
    /// decay stages (mini-ball clamping / decayed-weight rounding move
    /// summarized mass by at most ε·opt before the leaf ever sees it).
    pub fn extra_eps(&self, eps: f64) -> f64 {
        match self {
            Backend::Insertion => 0.0,
            Backend::Window(_) | Backend::Decay(_) => eps,
        }
    }

    /// The window span `(oldest, newest)` of live arrival stamps at
    /// clock `clock` — `None` for non-window backends or before the
    /// first arrival.
    pub fn window_span(&self, clock: u64) -> Option<(u64, u64)> {
        match self {
            Backend::Window(w) if clock > 0 => Some((clock.saturating_sub(w - 1).max(1), clock)),
            _ => None,
        }
    }

    /// Short mode name (CLI reporting).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Insertion => "insertion",
            Backend::Window(_) => "window",
            Backend::Decay(_) => "decay",
        }
    }
}

/// One shard's ingest-and-summarize state machine.
///
/// The engine drives it under the shard lock: `insert_weighted` for
/// arrivals routed here, `advance_to` at publish time so pure time
/// passage (arrivals on sibling shards) mutates the window / decay
/// state, then `state_version` to decide dirtiness and `summary` to
/// clone the shard's leaf when dirty.
pub trait ShardBackend<P, M: MetricSpace<P>> {
    /// Ingests one arrival: point `p` with weight `w` at global arrival
    /// stamp `arrival` (stamps are non-decreasing per shard under
    /// single-writer ingest; concurrent batches may interleave, which
    /// implementations must tolerate).
    fn insert_weighted(&mut self, p: P, w: u64, arrival: u64);

    /// Delivers pure time passage: the global clock reached `now`
    /// without an arrival landing here.  Implementations expire / decay
    /// whatever `now` invalidates and bump their state version iff the
    /// published summary could have changed.
    fn advance_to(&mut self, now: u64);

    /// Monotone stamp that advances on *every* mutation that could
    /// change [`summary`](Self::summary) — inserts and time-driven
    /// mutation alike.  Equal stamps across two publishes certify the
    /// cached leaf is still exact.
    fn state_version(&self) -> u64;

    /// Builds (or clones) the leaf summarizing this shard's
    /// live content.  Deterministic given the shard state.
    fn summary(&mut self) -> InsertionOnlyCoreset<P, M>;

    /// Peak storage this shard has held, in words.
    fn peak_words(&self) -> usize;

    /// Representatives currently resident (diagnostics).
    fn rep_len(&self) -> usize;
}

/// Insertion-only backend: a thin wrapper around the resident
/// [`InsertionOnlyCoreset`] — `summary` is a clone, time is ignored.
/// Bit-identical to the engine before backends existed.
pub struct InsertionShard<P, M: MetricSpace<P>> {
    inner: InsertionOnlyCoreset<P, M>,
    version: u64,
}

impl<P: Clone + SpaceUsage, M: MetricSpace<P>> InsertionShard<P, M> {
    /// An empty shard with the given coreset parameters.
    pub fn new(metric: M, k: usize, z: u64, eps: f64) -> Self {
        InsertionShard {
            inner: InsertionOnlyCoreset::new(metric, k, z, eps),
            version: 0,
        }
    }
}

impl<P, M> ShardBackend<P, M> for InsertionShard<P, M>
where
    P: Clone + SpaceUsage,
    M: MetricSpace<P> + Clone,
{
    fn insert_weighted(&mut self, p: P, w: u64, _arrival: u64) {
        self.inner.insert_weighted(p, w);
        self.version += 1;
    }

    fn advance_to(&mut self, _now: u64) {
        // Insertion-only state is time-free: nothing expires, nothing
        // decays, and the state version deliberately does not move.
    }

    fn state_version(&self) -> u64 {
        self.version
    }

    fn summary(&mut self) -> InsertionOnlyCoreset<P, M> {
        self.inner.clone()
    }

    fn peak_words(&self) -> usize {
        self.inner.peak_words()
    }

    fn rep_len(&self) -> usize {
        self.inner.coreset().len()
    }
}

/// Finest radius guess of the publish-time sliding-window pass.  With
/// [`WINDOW_RHO_MAX`] this brackets the optimal radius of any window the
/// engine will be asked to summarize (the σ-spread assumption of the
/// sliding-window analysis); `log₂(max/min) + 1 ≈ 34` guesses.
pub const WINDOW_RHO_MIN: f64 = 1e-3;
/// Coarsest radius guess of the publish-time sliding-window pass.
pub const WINDOW_RHO_MAX: f64 = 1e7;

/// Sliding-window backend: the exact unexpired suffix in a stamp-sorted
/// buffer, compressed through the mini-ball machinery at publish time.
///
/// The buffer is the ground truth (`O(live window)` words per shard);
/// [`SlidingWindowCoreset`] is the *compressor*: the fresh re-stream
/// clamps each mini-ball to its newest `z+1` points and selects the
/// finest reliable guess, so the leaf holds `O(cap·(z+1))` points no
/// matter how wide the window is.  Re-streaming fresh (rather than
/// keeping the mini-ball structure resident) is what makes the summary
/// a pure, shift-invariant function of the suffix — the property the
/// suffix-replay oracles certify.
pub struct WindowShard<P, M: MetricSpace<P>> {
    metric: M,
    k: usize,
    z: u64,
    eps: f64,
    window: u64,
    now: u64,
    /// `(arrival stamp, point, weight)`, stamp-sorted, only unexpired.
    buf: VecDeque<(u64, P, u64)>,
    version: u64,
    peak_words: usize,
}

impl<P: Clone + SpaceUsage, M: MetricSpace<P>> WindowShard<P, M> {
    /// An empty shard summarizing the last `window` global arrivals.
    pub fn new(metric: M, k: usize, z: u64, eps: f64, window: u64) -> Self {
        assert!(window >= 1, "window must be at least 1");
        WindowShard {
            metric,
            k,
            z,
            eps,
            window,
            now: 0,
            buf: VecDeque::new(),
            version: 0,
            peak_words: 0,
        }
    }

    fn buf_words(&self) -> usize {
        self.buf
            .iter()
            .map(|(_, p, _)| p.words() + 2)
            .sum::<usize>()
            + 8
    }

    /// Pops expired entries; returns whether anything left.
    fn expire(&mut self) -> bool {
        let mut popped = false;
        while let Some(&(t, _, _)) = self.buf.front() {
            if t.saturating_add(self.window) <= self.now {
                self.buf.pop_front();
                popped = true;
            } else {
                break;
            }
        }
        popped
    }
}

impl<P, M> ShardBackend<P, M> for WindowShard<P, M>
where
    P: Clone + SpaceUsage,
    M: MetricSpace<P> + Clone,
{
    fn insert_weighted(&mut self, p: P, w: u64, arrival: u64) {
        // Concurrent batches can deliver stamps out of order; keep the
        // buffer stamp-sorted (the common case appends at the back).
        let pos = self
            .buf
            .iter()
            .rposition(|&(t, _, _)| t <= arrival)
            .map_or(0, |i| i + 1);
        if pos == self.buf.len() {
            self.buf.push_back((arrival, p, w));
        } else {
            self.buf.insert(pos, (arrival, p, w));
        }
        self.now = self.now.max(arrival);
        self.expire();
        self.version += 1;
        self.peak_words = self.peak_words.max(self.buf_words());
    }

    fn advance_to(&mut self, now: u64) {
        if now <= self.now {
            return;
        }
        self.now = now;
        if self.expire() {
            // Content left the window without an arrival landing here —
            // the exact staleness the dirty-shard check must see.
            self.version += 1;
        }
    }

    fn state_version(&self) -> u64 {
        self.version
    }

    fn summary(&mut self) -> InsertionOnlyCoreset<P, M> {
        let mut leaf = InsertionOnlyCoreset::new(self.metric.clone(), self.k, self.z, self.eps);
        if self.buf.is_empty() {
            return leaf;
        }
        // Re-stream the exact suffix through a fresh mini-ball pass.  A
        // weight-w arrival enters as min(w, z+1) co-located copies at
        // its stamp — lossless for the k-center-with-z-outliers
        // objective (a location carrying ≥ z+1 weight can never be all
        // outliers), and what keeps the pass within its space bound.
        let mut sw = SlidingWindowCoreset::new(
            self.metric.clone(),
            self.k,
            self.z,
            self.eps,
            self.window,
            WINDOW_RHO_MIN,
            WINDOW_RHO_MAX,
        );
        for &(t, ref p, w) in &self.buf {
            for _ in 0..w.min(self.z + 1) {
                sw.insert_at(p.clone(), t);
            }
        }
        if let Some(q) = sw.stamped_query() {
            let mut pts = q.points;
            // Arrival order (stable: co-located same-stamp copies keep
            // their mini-ball order), so the leaf's radius doubling is
            // independent of the mini-ball cluster layout.
            pts.sort_by_key(|&(t, _)| t);
            for (_, p) in pts {
                leaf.insert(p);
            }
        }
        self.peak_words = self
            .peak_words
            .max(self.buf_words() + sw.peak_words() + leaf.space_words());
        leaf
    }

    fn peak_words(&self) -> usize {
        self.peak_words
    }

    fn rep_len(&self) -> usize {
        self.buf.len()
    }
}

/// One decayed representative: a location, its (un-decayed) weight at
/// `last`, and that last-touch stamp.  The live weight at clock `t` is
/// `weight · λ^(t − last)`.
struct DecayRep<P> {
    point: P,
    weight: f64,
    last: u64,
}

/// `λ^n` by square-and-multiply — a fixed sequence of IEEE
/// multiplications, so two engines replaying the same stream decay
/// bit-identically (no `powf`).
fn decay_pow(lambda: f64, mut n: u64) -> f64 {
    let mut base = lambda;
    let mut acc = 1.0f64;
    while n > 0 {
        if n & 1 == 1 {
            acc *= base;
        }
        base *= base;
        n >>= 1;
    }
    acc
}

/// Decayed/weighted backend: micro-cluster representatives whose
/// weights halve every `half_life` arrivals since last touch, pruned
/// when they decay below ½ (the DenStream rule).  Summaries round the
/// decayed weights to integers for the leaf.
pub struct DecayShard<P, M: MetricSpace<P>> {
    metric: M,
    k: usize,
    z: u64,
    eps: f64,
    /// Per-arrival decay factor `2^(−1/half_life)`.
    lambda: f64,
    now: u64,
    reps: Vec<DecayRep<P>>,
    /// Current absorb radius scale (0 until established; doubles under
    /// capacity pressure, mirroring the insertion coreset).
    radius: f64,
    cap: u64,
    version: u64,
    peak_words: usize,
}

impl<P: Clone + SpaceUsage, M: MetricSpace<P>> DecayShard<P, M> {
    /// An empty shard whose representative weights halve every
    /// `half_life` arrivals.
    pub fn new(metric: M, k: usize, z: u64, eps: f64, half_life: f64) -> Self {
        assert!(
            half_life.is_finite() && half_life > 0.0,
            "half-life must be positive and finite"
        );
        let d = metric.doubling_dim();
        DecayShard {
            lambda: (-1.0 / half_life).exp2(),
            cap: streaming_capacity(k, z, eps, d),
            metric,
            k,
            z,
            eps,
            now: 0,
            reps: Vec::new(),
            radius: 0.0,
            version: 0,
            peak_words: 0,
        }
    }

    fn words(&self) -> usize {
        self.reps.iter().map(|r| r.point.words() + 2).sum::<usize>() + 10
    }

    /// Decayed weight of `r` at the current clock.
    fn live_weight(&self, r: &DecayRep<P>) -> f64 {
        r.weight * decay_pow(self.lambda, self.now - r.last)
    }

    /// Drops representatives that decayed below ½; returns whether any
    /// were dropped.
    fn prune(&mut self) -> bool {
        let before = self.reps.len();
        let (lambda, now) = (self.lambda, self.now);
        self.reps
            .retain(|r| r.weight * decay_pow(lambda, now - r.last) >= 0.5);
        self.reps.len() != before
    }

    /// Re-absorbs representatives under a doubled radius until the list
    /// fits the capacity again (the decayed analogue of the insertion
    /// coreset's `update_coreset`).
    fn compress(&mut self) {
        while self.reps.len() as u64 > self.cap {
            if self.radius == 0.0 {
                // Establish the scale: half the minimum pairwise
                // distance, as the radius-doubling invariant does.
                let mut min = f64::INFINITY;
                for i in 0..self.reps.len() {
                    for j in (i + 1)..self.reps.len() {
                        let d = self.metric.dist(&self.reps[i].point, &self.reps[j].point);
                        if d > 0.0 && d < min {
                            min = d;
                        }
                    }
                }
                if !min.is_finite() {
                    // All co-located: fold everything into one rep.
                    min = 0.0;
                }
                self.radius = min / 2.0;
            } else {
                self.radius *= 2.0;
            }
            let absorb = self.eps * self.radius / 2.0;
            let mut kept: Vec<DecayRep<P>> = Vec::with_capacity(self.reps.len());
            for r in self.reps.drain(..) {
                match kept
                    .iter()
                    .position(|s| self.metric.within(&s.point, &r.point, absorb))
                {
                    Some(i) => {
                        // Decay both to `now`, then fold the mass.
                        let s = &mut kept[i];
                        let sw = s.weight * decay_pow(self.lambda, self.now - s.last);
                        let rw = r.weight * decay_pow(self.lambda, self.now - r.last);
                        s.weight = sw + rw;
                        s.last = self.now;
                    }
                    None => kept.push(r),
                }
            }
            self.reps = kept;
            if self.radius == 0.0 {
                // Fully co-located fold: one representative remains.
                break;
            }
        }
    }
}

impl<P, M> ShardBackend<P, M> for DecayShard<P, M>
where
    P: Clone + SpaceUsage,
    M: MetricSpace<P> + Clone,
{
    fn insert_weighted(&mut self, p: P, w: u64, arrival: u64) {
        assert!(w > 0, "weights must be positive");
        self.now = self.now.max(arrival);
        let absorb = self.eps * self.radius / 2.0;
        let hit = if self.radius > 0.0 {
            self.reps
                .iter()
                .position(|r| self.metric.within(&r.point, &p, absorb))
        } else {
            self.reps
                .iter()
                .position(|r| self.metric.dist(&r.point, &p) == 0.0)
        };
        match hit {
            Some(i) => {
                let r = &mut self.reps[i];
                let live = r.weight * decay_pow(self.lambda, self.now - r.last);
                r.weight = live + w as f64;
                r.last = self.now;
            }
            None => {
                self.reps.push(DecayRep {
                    point: p,
                    weight: w as f64,
                    last: self.now,
                });
                if self.reps.len() as u64 > self.cap {
                    self.prune();
                    self.compress();
                }
            }
        }
        self.version += 1;
        self.peak_words = self.peak_words.max(self.words());
    }

    fn advance_to(&mut self, now: u64) {
        if now <= self.now {
            return;
        }
        self.now = now;
        let dropped = self.prune();
        if dropped || !self.reps.is_empty() {
            // Even without a drop, the published (rounded, decayed)
            // weights are a function of `now`: time passage over live
            // representatives invalidates the cached leaf.
            self.version += 1;
        }
    }

    fn state_version(&self) -> u64 {
        self.version
    }

    fn summary(&mut self) -> InsertionOnlyCoreset<P, M> {
        // The shard holding the globally newest arrival sees
        // `advance_to` as a no-op (its own clock is already `now`), so
        // the publish-time prune must also happen here — otherwise a
        // long-dead representative rides the ≥1 weight rounding back
        // into the published epoch.
        self.prune();
        let mut leaf = InsertionOnlyCoreset::new(self.metric.clone(), self.k, self.z, self.eps);
        for i in 0..self.reps.len() {
            let w = self.live_weight(&self.reps[i]).round().max(1.0) as u64;
            leaf.insert_weighted(self.reps[i].point.clone(), w);
        }
        leaf
    }

    fn peak_words(&self) -> usize {
        self.peak_words
    }

    fn rep_len(&self) -> usize {
        self.reps.len()
    }
}

/// The engine's shard slot: one of the three backends, chosen per
/// [`Backend`] at construction and dispatched without generics so the
/// engine type stays mode-independent.
pub enum AnyShard<P, M: MetricSpace<P>> {
    /// Insertion-only (see [`InsertionShard`]).
    Insertion(InsertionShard<P, M>),
    /// Sliding window (see [`WindowShard`]).
    Window(WindowShard<P, M>),
    /// Exponential decay (see [`DecayShard`]).
    Decay(DecayShard<P, M>),
}

impl<P: Clone + SpaceUsage, M: MetricSpace<P> + Clone> AnyShard<P, M> {
    /// Builds the shard the backend choice calls for.
    pub fn new(backend: Backend, metric: M, k: usize, z: u64, eps: f64) -> Self {
        match backend {
            Backend::Insertion => AnyShard::Insertion(InsertionShard::new(metric, k, z, eps)),
            Backend::Window(w) => AnyShard::Window(WindowShard::new(metric, k, z, eps, w)),
            Backend::Decay(h) => AnyShard::Decay(DecayShard::new(metric, k, z, eps, h)),
        }
    }
}

impl<P, M> ShardBackend<P, M> for AnyShard<P, M>
where
    P: Clone + SpaceUsage,
    M: MetricSpace<P> + Clone,
{
    fn insert_weighted(&mut self, p: P, w: u64, arrival: u64) {
        match self {
            AnyShard::Insertion(s) => s.insert_weighted(p, w, arrival),
            AnyShard::Window(s) => s.insert_weighted(p, w, arrival),
            AnyShard::Decay(s) => s.insert_weighted(p, w, arrival),
        }
    }

    fn advance_to(&mut self, now: u64) {
        match self {
            AnyShard::Insertion(s) => ShardBackend::<P, M>::advance_to(s, now),
            AnyShard::Window(s) => ShardBackend::<P, M>::advance_to(s, now),
            AnyShard::Decay(s) => ShardBackend::<P, M>::advance_to(s, now),
        }
    }

    fn state_version(&self) -> u64 {
        match self {
            AnyShard::Insertion(s) => s.state_version(),
            AnyShard::Window(s) => s.state_version(),
            AnyShard::Decay(s) => s.state_version(),
        }
    }

    fn summary(&mut self) -> InsertionOnlyCoreset<P, M> {
        match self {
            AnyShard::Insertion(s) => s.summary(),
            AnyShard::Window(s) => s.summary(),
            AnyShard::Decay(s) => s.summary(),
        }
    }

    fn peak_words(&self) -> usize {
        match self {
            AnyShard::Insertion(s) => ShardBackend::<P, M>::peak_words(s),
            AnyShard::Window(s) => ShardBackend::<P, M>::peak_words(s),
            AnyShard::Decay(s) => ShardBackend::<P, M>::peak_words(s),
        }
    }

    fn rep_len(&self) -> usize {
        match self {
            AnyShard::Insertion(s) => s.rep_len(),
            AnyShard::Window(s) => s.rep_len(),
            AnyShard::Decay(s) => s.rep_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_metric::L2;

    #[test]
    fn insertion_shard_summary_is_a_clone_and_time_is_inert() {
        let mut s: InsertionShard<[f64; 2], L2> = InsertionShard::new(L2, 2, 1, 0.5);
        s.insert_weighted([0.0, 0.0], 3, 1);
        s.insert_weighted([10.0, 0.0], 1, 2);
        let v = s.state_version();
        ShardBackend::<[f64; 2], L2>::advance_to(&mut s, 1_000_000);
        assert_eq!(
            s.state_version(),
            v,
            "time must not dirty an insertion shard"
        );
        let leaf = s.summary();
        assert_eq!(leaf.coreset().iter().map(|w| w.weight).sum::<u64>(), 4);
    }

    #[test]
    fn window_shard_version_advances_on_expiry_without_an_arrival() {
        let mut s: WindowShard<[f64; 2], L2> = WindowShard::new(L2, 1, 0, 0.5, 10);
        s.insert_weighted([1.0, 1.0], 1, 1);
        let v = s.state_version();
        // Time passes but nothing expires yet: still clean.
        ShardBackend::<[f64; 2], L2>::advance_to(&mut s, 5);
        assert_eq!(s.state_version(), v);
        // The stamp-1 point leaves the window at clock 11: dirty.
        ShardBackend::<[f64; 2], L2>::advance_to(&mut s, 11);
        assert!(s.state_version() > v, "expiry must dirty the shard");
        assert_eq!(s.rep_len(), 0);
        assert!(s.summary().coreset().is_empty());
    }

    #[test]
    fn window_summary_is_a_pure_shift_invariant_function_of_the_suffix() {
        let pts: Vec<(u64, [f64; 2])> = (0..40u64)
            .map(|i| (i + 1, [(i % 7) as f64 * 3.0, (i % 5) as f64]))
            .collect();
        let build = |shift: u64| {
            let mut s: WindowShard<[f64; 2], L2> = WindowShard::new(L2, 2, 2, 0.5, 25);
            for &(t, p) in &pts {
                s.insert_weighted(p, 1, t + shift);
            }
            let leaf = s.summary();
            leaf.coreset()
                .iter()
                .map(|w| (w.point[0].to_bits(), w.point[1].to_bits(), w.weight))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            build(0),
            build(1_000),
            "window summary must be shift-invariant"
        );
    }

    #[test]
    fn window_summary_clamps_weighted_arrivals_losslessly() {
        let (z, w) = (2u64, 1_000_000u64);
        let mut heavy: WindowShard<[f64; 2], L2> = WindowShard::new(L2, 1, z, 0.5, 100);
        heavy.insert_weighted([5.0, 5.0], w, 1);
        let mut clamped: WindowShard<[f64; 2], L2> = WindowShard::new(L2, 1, z, 0.5, 100);
        clamped.insert_weighted([5.0, 5.0], z + 1, 1);
        let (a, b) = (heavy.summary(), clamped.summary());
        assert_eq!(a.coreset().len(), b.coreset().len());
        for (x, y) in a.coreset().iter().zip(b.coreset()) {
            assert_eq!(x.point, y.point);
            assert_eq!(x.weight, y.weight);
        }
    }

    #[test]
    fn decay_shard_halves_weight_per_half_life_and_prunes_dead_reps() {
        let mut s: DecayShard<[f64; 2], L2> = DecayShard::new(L2, 1, 0, 0.5, 8.0);
        s.insert_weighted([0.0, 0.0], 8, 1);
        // One half-life later the 8 has decayed to ~4.
        ShardBackend::<[f64; 2], L2>::advance_to(&mut s, 9);
        let leaf = s.summary();
        assert_eq!(leaf.coreset().len(), 1);
        assert_eq!(leaf.coreset()[0].weight, 4);
        // Five more half-lives: 8·2^{-6} = 0.125 < ½ — pruned.
        let v = s.state_version();
        ShardBackend::<[f64; 2], L2>::advance_to(&mut s, 49);
        assert!(s.state_version() > v, "decay tick must dirty the shard");
        assert_eq!(s.rep_len(), 0);
        assert!(s.summary().coreset().is_empty());
    }

    #[test]
    fn decay_shard_refreshes_touched_reps_and_respects_capacity() {
        let mut s: DecayShard<[f64; 2], L2> = DecayShard::new(L2, 1, 0, 1.0, 50.0);
        // Keep touching one location while time passes: it must survive
        // indefinitely (weight refreshed on every touch).
        for t in 1..=400u64 {
            s.insert_weighted([1.0, 1.0], 1, t);
        }
        assert_eq!(s.rep_len(), 1);
        let leaf = s.summary();
        assert!(leaf.coreset()[0].weight >= 1);
        // Capacity pressure compresses instead of growing unboundedly.
        let mut wide: DecayShard<[f64; 2], L2> = DecayShard::new(L2, 1, 0, 1.0, 1e9);
        let cap = wide.cap;
        for i in 0..(cap * 2) {
            wide.insert_weighted([i as f64 * 50.0, 0.0], 1, i + 1);
        }
        assert!(
            (wide.rep_len() as u64) <= cap,
            "reps {} exceed cap {cap}",
            wide.rep_len()
        );
    }
}
