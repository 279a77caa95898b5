//! Per-shard backends: how a shard turns arrivals into the
//! [`InsertionOnlyCoreset`] leaf the engine's flat merge consumes.
//!
//! The engine's publish path is mode-agnostic: every backend produces an
//! insertion-only summary as its *leaf*, and the same clean-leaf reuse,
//! flat merge and Charikar solve run on top.  What a
//! [`Backend`] changes is **which multiset the leaf summarizes**:
//!
//! * `Backend::Insertion` — everything ever ingested (the original
//!   engine behavior, bit-for-bit: its leaf *is* the resident
//!   insertion-only coreset, cloned).
//! * `Backend::Window(W)` — only the points whose global arrival stamp
//!   lies in the last `W` arrivals.  The shard keeps the exact unexpired
//!   suffix in a stamp-sorted buffer and, at publish time, re-streams it
//!   through a fresh [`SlidingWindowCoreset`] (the de Berg–Monemizadeh–
//!   Zhong mini-ball machinery): the chosen guess's stored points, in
//!   arrival order, feed the leaf.  Because the leaf is a pure function
//!   of the unexpired suffix — and every stamp comparison is
//!   shift-invariant — a from-scratch engine replaying only that suffix
//!   publishes bit-identical verdicts (the property the conformance
//!   churn oracles pin).
//!
//! # Time is the arrival clock
//!
//! The engine stamps every ingested point with its position in the
//! global arrival order and hands shards that clock: an insert carries
//! the point's stamp, and the publish-time `advance_to` delivers pure
//! time passage (arrivals that landed on *sibling* shards).  Time
//! therefore advances only when data arrives — an unchanged engine
//! version still implies an unchanged publish, so the cached-snapshot
//! fast path stays exact in every mode.
//!
//! # The dirty-shard contract
//!
//! A shard's state version must advance whenever the summary it *would*
//! publish could have changed — on every insert, but also on
//! time-driven mutation: a window expiry.  This is what fixes the
//! staleness bug the insertion-only engine could not exhibit: a shard no
//! batch touched is only "clean" if time did not mutate it either.
//!
//! # ε′ composition
//!
//! The merged root's `effective_eps` accounts the leaf ε and the one
//! recompression's `ε/2` (once two or more leaves hold data).  The
//! window stage sits *in front of* the leaf and contributes its own ε of
//! summarization error, reported via [`Backend::extra_eps`] and folded
//! into the published `effective_eps` (and thus `bound_factor = 3 +
//! 8ε′`).  Insertion mode contributes zero — its snapshots are
//! bit-identical to the pre-backend engine.

use std::collections::VecDeque;

use kcz_metric::{MetricSpace, SpaceUsage};
use kcz_streaming::{InsertionOnlyCoreset, SlidingWindowCoreset};

/// Which per-shard backend an engine runs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Insertion-only: shards summarize everything ever ingested.
    Insertion,
    /// Sliding window: shards summarize the last `W` global arrivals.
    Window(u64),
}

impl Backend {
    /// The summarization error the backend stage adds in front of the
    /// shard leaf, in units of the configured ε: zero for insertion-only
    /// (the leaf ingests the exact arrivals), one ε for the window stage
    /// (mini-ball clamping moves summarized mass by at most ε·opt before
    /// the leaf ever sees it).
    pub fn extra_eps(&self, eps: f64) -> f64 {
        match self {
            Backend::Insertion => 0.0,
            Backend::Window(_) => eps,
        }
    }

    /// The window span `(oldest, newest)` of live arrival stamps at
    /// clock `clock` — `None` for the insertion backend or before the
    /// first arrival.
    pub fn window_span(&self, clock: u64) -> Option<(u64, u64)> {
        match self {
            Backend::Window(w) if clock > 0 => Some((clock.saturating_sub(w - 1).max(1), clock)),
            _ => None,
        }
    }
}

/// One shard's ingest-and-summarize state machine, built per
/// [`Backend`] and dispatched without generics so the engine type stays
/// mode-independent.
///
/// The engine drives it under the shard lock: `insert_weighted` for
/// arrivals routed here, `advance_to` at publish time so pure time
/// passage (arrivals on sibling shards) can expire window content, then
/// `state_version` to decide dirtiness and `summary` to build the
/// shard's leaf when dirty.
pub(crate) enum Shard<P, M: MetricSpace<P>> {
    /// Insertion-only: the resident coreset is the leaf, cloned, and
    /// `version` counts inserts; time is ignored.  Bit-identical to the
    /// engine before backends existed.
    Insertion {
        inner: InsertionOnlyCoreset<P, M>,
        version: u64,
    },
    /// Sliding window (see [`WindowShard`]).
    Window(WindowShard<P, M>),
}

impl<P: Clone + SpaceUsage, M: MetricSpace<P> + Clone> Shard<P, M> {
    /// An empty shard of the given backend and coreset parameters.
    pub(crate) fn new(backend: Backend, metric: M, k: usize, z: u64, eps: f64) -> Self {
        match backend {
            Backend::Insertion => Shard::Insertion {
                inner: InsertionOnlyCoreset::new(metric, k, z, eps),
                version: 0,
            },
            Backend::Window(w) => Shard::Window(WindowShard::new(metric, k, z, eps, w)),
        }
    }

    /// Ingests one arrival: point `p` with weight `w` at global arrival
    /// stamp `arrival` (stamps are non-decreasing per shard under
    /// single-writer ingest; concurrent batches may interleave, which
    /// the window buffer tolerates).
    pub(crate) fn insert_weighted(&mut self, p: P, w: u64, arrival: u64) {
        match self {
            Shard::Insertion { inner, version } => {
                // Bumped first, so an insert that panics part-way never
                // leaves a cached leaf looking clean.
                *version += 1;
                inner.insert_weighted(p, w);
            }
            Shard::Window(s) => s.insert_weighted(p, w, arrival),
        }
    }

    /// Delivers pure time passage: the global clock reached `now`
    /// without an arrival landing here.  A window shard expires whatever
    /// `now` invalidates and bumps its state version iff anything left.
    /// Insertion-only state is time-free: nothing expires, and the state
    /// version deliberately does not move.
    pub(crate) fn advance_to(&mut self, now: u64) {
        if let Shard::Window(s) = self {
            s.advance_to(now);
        }
    }

    /// Monotone stamp that advances on *every* mutation that could
    /// change [`summary`](Self::summary) — inserts and expiry alike.
    /// Equal stamps across two publishes certify the cached leaf is
    /// still exact.
    pub(crate) fn state_version(&self) -> u64 {
        match self {
            Shard::Insertion { version, .. } => *version,
            Shard::Window(s) => s.version,
        }
    }

    /// Builds (or clones) the leaf summarizing this shard's live
    /// content.  Deterministic given the shard state.
    pub(crate) fn summary(&mut self) -> InsertionOnlyCoreset<P, M> {
        match self {
            Shard::Insertion { inner, .. } => inner.clone(),
            Shard::Window(s) => s.summary(),
        }
    }

    /// Peak storage this shard has held, in words.
    pub(crate) fn peak_words(&self) -> usize {
        match self {
            Shard::Insertion { inner, .. } => inner.peak_words(),
            Shard::Window(s) => s.peak_words,
        }
    }

    /// Representatives currently resident (diagnostics).
    pub(crate) fn rep_len(&self) -> usize {
        match self {
            Shard::Insertion { inner, .. } => inner.coreset().len(),
            Shard::Window(s) => s.buf.len(),
        }
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
pub(crate) struct WindowShard<P, M: MetricSpace<P>> {
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

impl<P: Clone + SpaceUsage, M: MetricSpace<P> + Clone> WindowShard<P, M> {
    /// An empty shard summarizing the last `window` global arrivals.
    fn new(metric: M, k: usize, z: u64, eps: f64, window: u64) -> Self {
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
            for _ in 0..w.min(self.z.saturating_add(1)) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_metric::L2;

    #[test]
    fn insertion_shard_summary_is_a_clone_and_time_is_inert() {
        let mut s: Shard<[f64; 2], L2> = Shard::new(Backend::Insertion, L2, 2, 1, 0.5);
        s.insert_weighted([0.0, 0.0], 3, 1);
        s.insert_weighted([10.0, 0.0], 1, 2);
        let v = s.state_version();
        s.advance_to(1_000_000);
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
        let mut s: Shard<[f64; 2], L2> = Shard::new(Backend::Window(10), L2, 1, 0, 0.5);
        s.insert_weighted([1.0, 1.0], 1, 1);
        let v = s.state_version();
        // Time passes but nothing expires yet: still clean.
        s.advance_to(5);
        assert_eq!(s.state_version(), v);
        // The stamp-1 point leaves the window at clock 11: dirty.
        s.advance_to(11);
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
            let mut s: Shard<[f64; 2], L2> = Shard::new(Backend::Window(25), L2, 2, 2, 0.5);
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
        let shard = || Shard::<[f64; 2], L2>::new(Backend::Window(100), L2, 1, z, 0.5);
        let mut heavy = shard();
        heavy.insert_weighted([5.0, 5.0], w, 1);
        let mut clamped = shard();
        clamped.insert_weighted([5.0, 5.0], z + 1, 1);
        let (a, b) = (heavy.summary(), clamped.summary());
        assert_eq!(a.coreset().len(), b.coreset().len());
        for (x, y) in a.coreset().iter().zip(b.coreset()) {
            assert_eq!(x.point, y.point);
            assert_eq!(x.weight, y.weight);
        }
    }
}
