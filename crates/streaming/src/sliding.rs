//! Sliding-window coreset: a reconstruction of the de Berg–Monemizadeh–
//! Zhong algorithm (ESA 2021, reference \[18\] of the paper), whose
//! `O((kz/ε^d)·log σ)` space Section 6 proves optimal.
//!
//! For every radius guess `ρ ∈ {ρ_min·2^i}` the structure maintains
//! *mini-ball clusters*: an anchor location plus the `z+1` newest window
//! points within `ε·ρ/4` of the anchor.  Keeping only the newest `z+1`
//! points per cluster is lossless for the k-center-with-z-outliers
//! objective: a mini-ball holding more than `z+1` unexpired points can
//! never be entirely outliers, so weights may be clamped at `z+1`; and if
//! any stored point of a cluster has expired, every unstored (older) point
//! of that cluster has expired too, so the stored survivors are exactly
//! the unexpired content.
//!
//! A query returns, for the smallest *reliable* guess with at most
//! `k(16/ε)^d + z` clusters (Lemma 6 packing: more clusters certify
//! `opt > ρ`), all stored unexpired points at unit weight.  If a guess
//! ever exceeds the cluster cap, the cluster expiring soonest is evicted
//! and the guess is marked unreliable until the evicted points would have
//! left the window anyway — their newest stamp plus `W`, after which the
//! guess's content is provably complete again.  (The newest evicted stamp
//! is at most the eviction time, so this recovers no later than the
//! conservative `eviction time + W` and can recover a full window
//! earlier.)

use std::collections::VecDeque;

use kcz_coreset::streaming_capacity;
use kcz_metric::{MetricSpace, SpaceUsage, Weighted};

/// One mini-ball cluster of a radius guess.
#[derive(Debug, Clone)]
struct SwCluster<P> {
    anchor: P,
    /// `(arrival time, point)`, oldest first, at most `z+1` entries.
    pts: VecDeque<(u64, P)>,
}

/// One radius guess with its clusters.
#[derive(Debug, Clone)]
struct Guess<P> {
    rho: f64,
    clusters: Vec<SwCluster<P>>,
    /// Queries before this time must not trust the guess (an eviction
    /// removed points that may still be in the window).
    tainted_until: u64,
}

/// Result of a sliding-window query.
#[derive(Debug, Clone)]
pub struct SwQuery<P> {
    /// Unit-weight coreset points (window points, weights clamped at `z+1`
    /// per mini-ball by construction).
    pub coreset: Vec<Weighted<P>>,
    /// The radius guess the coreset was read from.
    pub rho: f64,
    /// Number of clusters at that guess.
    pub clusters: usize,
    /// How many finer guesses were skipped because they were tainted.
    pub tainted_skipped: usize,
}

/// Result of a [`SlidingWindowCoreset::stamped_query`]: the chosen
/// guess's stored window content with arrival stamps retained.
#[derive(Debug, Clone)]
pub struct SwStampedQuery<P> {
    /// `(arrival time, point)` pairs, oldest-first within each mini-ball,
    /// mini-balls in cluster order.  Weights are unit (clamped at `z+1`
    /// per mini-ball by construction, exactly as in [`SwQuery`]).
    pub points: Vec<(u64, P)>,
    /// The radius guess the content was read from.
    pub rho: f64,
    /// Number of clusters at that guess.
    pub clusters: usize,
    /// How many finer guesses were skipped because they were tainted.
    pub tainted_skipped: usize,
}

/// Sliding-window (ε,k,z)-coreset over the last `window` arrivals.
#[derive(Debug, Clone)]
pub struct SlidingWindowCoreset<P, M> {
    metric: M,
    z: u64,
    eps: f64,
    window: u64,
    time: u64,
    cap: u64,
    guesses: Vec<Guess<P>>,
    evictions: u64,
    peak_words: usize,
}

impl<P: Clone + SpaceUsage, M: MetricSpace<P>> SlidingWindowCoreset<P, M> {
    /// Creates the structure.  `rho_min..=rho_max` must bracket the
    /// optimal radius of every window that will be queried (they play the
    /// role of the spread bounds σ in the paper's analysis; the number of
    /// guesses is `log₂(rho_max/rho_min) + 1`).
    pub fn new(
        metric: M,
        k: usize,
        z: u64,
        eps: f64,
        window: u64,
        rho_min: f64,
        rho_max: f64,
    ) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0, 1]");
        assert!(window >= 1, "window must be at least 1");
        assert!(
            rho_min > 0.0 && rho_min <= rho_max,
            "need 0 < rho_min ≤ rho_max"
        );
        let d = metric.doubling_dim();
        let cap = streaming_capacity(k, z, eps, d);
        let mut guesses = Vec::new();
        let mut rho = rho_min;
        while rho < 2.0 * rho_max {
            guesses.push(Guess {
                rho,
                clusters: Vec::new(),
                tainted_until: 0,
            });
            rho *= 2.0;
        }
        SlidingWindowCoreset {
            metric,
            z,
            eps,
            window,
            time: 0,
            cap,
            guesses,
            evictions: 0,
            peak_words: 0,
        }
    }

    /// Number of radius guesses maintained (`Θ(log σ)`).
    pub fn num_guesses(&self) -> usize {
        self.guesses.len()
    }

    /// Arrival count so far (the clock).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Cap-overflow evictions performed (diagnostic; each taints one guess
    /// for one window length).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops expired points, and every cluster left empty.
    fn expire(cluster_list: &mut Vec<SwCluster<P>>, now: u64, window: u64) {
        for c in cluster_list.iter_mut() {
            while let Some(&(t, _)) = c.pts.front() {
                if t.saturating_add(window) <= now {
                    c.pts.pop_front();
                } else {
                    break;
                }
            }
        }
        cluster_list.retain(|c| !c.pts.is_empty());
    }

    /// Handles one arrival.
    pub fn insert(&mut self, p: P) {
        self.insert_at(p, self.time + 1);
    }

    /// Handles one arrival carrying an explicit clock reading: the point
    /// is stamped `now` and the structure's clock jumps there (expiring
    /// whatever the jump leaves behind).  Stamps must be non-decreasing;
    /// equal stamps are legal — co-located copies of one weighted
    /// arrival share a slot.  This is the replay entry for callers that
    /// own the clock (the engine's window backend re-streams per-shard
    /// suffixes of a *global* arrival order, so a shard's stamps have
    /// gaps).  [`insert`](Self::insert) is `insert_at` at `time + 1`.
    pub fn insert_at(&mut self, p: P, now: u64) {
        assert!(now >= self.time, "arrival stamps must be non-decreasing");
        self.time = now;
        let keep = self.z as usize + 1;
        for g in &mut self.guesses {
            Self::expire(&mut g.clusters, now, self.window);
            let absorb = self.eps * g.rho / 4.0;
            // First anchor within ε·ρ/4.
            let hit = g
                .clusters
                .iter()
                .position(|c| self.metric.within(&c.anchor, &p, absorb));
            if let Some(i) = hit {
                let c = &mut g.clusters[i];
                c.pts.push_back((now, p.clone()));
                if c.pts.len() > keep {
                    c.pts.pop_front();
                }
            } else {
                let mut pts = VecDeque::with_capacity(1);
                pts.push_back((now, p.clone()));
                g.clusters.push(SwCluster {
                    anchor: p.clone(),
                    pts,
                });
                if g.clusters.len() as u64 > self.cap {
                    // Packing bound violated ⇒ opt(window) > ρ right now.
                    // Evict the cluster that expires soonest and taint the
                    // guess until its points would have expired anyway.
                    let (victim, victim_back) = g
                        .clusters
                        .iter()
                        .enumerate()
                        .map(|(i, c)| (i, c.pts.back().map(|&(t, _)| t).unwrap_or(0)))
                        .min_by_key(|&(_, t)| t)
                        .expect("non-empty cluster list");
                    g.clusters.swap_remove(victim);
                    // The evicted points all carry stamps ≤ `victim_back`,
                    // so they leave the window at `victim_back + W` — the
                    // guess is provably complete again then.  `now + W`
                    // would over-taint by up to `now − victim_back`
                    // arrivals and shunt queries to needlessly coarse
                    // guesses in the meantime.
                    g.tainted_until = g.tainted_until.max(victim_back.saturating_add(self.window));
                    self.evictions += 1;
                }
            }
        }
        self.peak_words = self.peak_words.max(self.space_words());
    }

    /// Advances the clock to `now` without an arrival (time-driven churn:
    /// the window slides because time passed elsewhere, e.g. arrivals
    /// landing on sibling shards of a sharded engine).  Expires every
    /// guess immediately, so a mini-ball whose stored points have all
    /// left the window is dropped rather than retained or rescanned.
    ///
    /// `now` earlier than the current clock is a no-op (the clock never
    /// moves backwards).
    pub fn advance_to(&mut self, now: u64) {
        if now <= self.time {
            return;
        }
        self.time = now;
        for g in &mut self.guesses {
            Self::expire(&mut g.clusters, now, self.window);
        }
    }

    /// Expires every guess at the current clock and picks the finest
    /// reliable one: the smallest-`ρ` non-empty guess within the cluster
    /// cap and past its taint horizon, falling back to the finest tainted
    /// in-cap guess when none is reliable.  Returns the guess index and
    /// how many tainted guesses were passed over.
    ///
    /// Every guess is brought current here — including ones coarser than
    /// the selected answer — so a fully-expired mini-ball can never
    /// outlive its window in storage (`stored_points`/`space_words` count
    /// live content only).
    fn choose_guess(&mut self) -> Option<(usize, usize)> {
        let now = self.time;
        let window = self.window;
        let mut tainted_skipped = 0usize;
        let mut fallback: Option<usize> = None;
        let mut chosen: Option<usize> = None;
        for (i, g) in self.guesses.iter_mut().enumerate() {
            Self::expire(&mut g.clusters, now, window);
            if g.clusters.is_empty() || chosen.is_some() {
                continue;
            }
            if (g.clusters.len() as u64) <= self.cap {
                if now >= g.tainted_until {
                    chosen = Some(i);
                } else {
                    tainted_skipped += 1;
                    fallback = fallback.or(Some(i));
                }
            }
        }
        chosen.or(fallback).map(|i| (i, tainted_skipped))
    }

    /// Queries the coreset for the current window.
    ///
    /// Returns `None` only when the window is empty.
    pub fn query(&mut self) -> Option<SwQuery<P>> {
        let (idx, tainted_skipped) = self.choose_guess()?;
        let g = &self.guesses[idx];
        let mut coreset = Vec::new();
        for c in &g.clusters {
            for (_, p) in &c.pts {
                coreset.push(Weighted::unit(p.clone()));
            }
        }
        Some(SwQuery {
            coreset,
            rho: g.rho,
            clusters: g.clusters.len(),
            tainted_skipped,
        })
    }

    /// [`query`](Self::query) keeping each point's arrival stamp: the
    /// same guess selection, but the coreset is returned as
    /// `(arrival, point)` pairs (oldest-first within each mini-ball,
    /// mini-balls in cluster order).  This is the read path for callers
    /// that need to re-stream the window content in arrival order — the
    /// engine's window backend sorts these stamps to rebuild a
    /// deterministic summary of the unexpired suffix.
    pub fn stamped_query(&mut self) -> Option<SwStampedQuery<P>> {
        let (idx, tainted_skipped) = self.choose_guess()?;
        let g = &self.guesses[idx];
        let mut points = Vec::new();
        for c in &g.clusters {
            for (t, p) in &c.pts {
                points.push((*t, p.clone()));
            }
        }
        Some(SwStampedQuery {
            points,
            rho: g.rho,
            clusters: g.clusters.len(),
            tainted_skipped,
        })
    }

    /// The points of the current window still stored anywhere (dedup not
    /// applied; diagnostic).
    pub fn stored_points(&self) -> usize {
        self.guesses
            .iter()
            .map(|g| g.clusters.iter().map(|c| c.pts.len()).sum::<usize>())
            .sum()
    }

    /// Current storage in machine words.
    pub fn space_words(&self) -> usize {
        let mut words = 6;
        for g in &self.guesses {
            words += 2;
            for c in &g.clusters {
                words += c.anchor.words() + 1;
                words += c.pts.iter().map(|(_, p)| p.words() + 1).sum::<usize>();
            }
        }
        words
    }

    /// Peak storage observed.
    pub fn peak_words(&self) -> usize {
        self.peak_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_metric::L2;

    fn drive(alg: &mut SlidingWindowCoreset<[f64; 2], L2>, pts: &[[f64; 2]]) {
        for p in pts {
            alg.insert(*p);
        }
    }

    #[test]
    fn window_contents_only() {
        let mut alg = SlidingWindowCoreset::new(L2, 1, 0, 1.0, 5, 0.1, 100.0);
        // 10 arrivals at distinct locations; window keeps the last 5.
        let pts: Vec<[f64; 2]> = (0..10).map(|i| [i as f64 * 10.0, 0.0]).collect();
        drive(&mut alg, &pts);
        let q = alg.query().expect("non-empty window");
        for w in &q.coreset {
            assert!(w.point[0] >= 50.0, "expired point {:?} leaked", w.point);
        }
    }

    #[test]
    fn keeps_newest_z_plus_one_per_ball() {
        let mut alg = SlidingWindowCoreset::new(L2, 1, 2, 1.0, 100, 0.1, 100.0);
        // 50 arrivals at the same location: each cluster stores ≤ z+1 = 3.
        for _ in 0..50 {
            alg.insert([1.0, 1.0]);
        }
        let q = alg.query().unwrap();
        assert!(q.coreset.len() <= 3, "stored {}", q.coreset.len());
    }

    #[test]
    fn outlier_clamping_preserves_decisions() {
        // A heavy cluster plus z distant stragglers: the coreset must
        // retain enough weight in the cluster to forbid discarding it.
        let z = 3u64;
        let mut alg = SlidingWindowCoreset::new(L2, 1, z, 1.0, 1000, 0.1, 10_000.0);
        for i in 0..40 {
            alg.insert([(i % 7) as f64 * 0.01, 0.0]);
        }
        for i in 0..3 {
            alg.insert([5000.0 + i as f64, 5000.0]);
        }
        let q = alg.query().unwrap();
        let near = q.coreset.iter().filter(|w| w.point[0] < 1.0).count() as u64;
        assert!(near > z, "cluster weight clamped too low: {near}");
    }

    #[test]
    fn space_bounded_by_guesses_times_cap() {
        let (k, z, eps) = (2usize, 4u64, 1.0f64);
        let mut alg = SlidingWindowCoreset::new(L2, k, z, eps, 200, 0.5, 512.0);
        let mut s = 1u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..2000 {
            alg.insert([next() * 300.0, next() * 300.0]);
        }
        let cap = kcz_coreset::streaming_capacity(k, z, eps, 2);
        let per_point_words = 3; // 2 coords + timestamp
        let bound =
            alg.num_guesses() * (cap as usize) * ((z as usize + 1) * per_point_words + 3) + 64;
        assert!(
            alg.peak_words() <= bound,
            "peak {} exceeds bound {bound}",
            alg.peak_words()
        );
    }

    #[test]
    fn query_prefers_finest_reliable_guess() {
        let mut alg = SlidingWindowCoreset::new(L2, 2, 0, 1.0, 50, 0.125, 1024.0);
        // Two tight clusters 100 apart: opt(k=2) ≈ 0.2, so a small guess
        // should win.
        for i in 0..30 {
            let x = (i % 5) as f64 * 0.05;
            alg.insert(if i % 2 == 0 {
                [x, 0.0]
            } else {
                [100.0 + x, 0.0]
            });
        }
        let q = alg.query().unwrap();
        assert!(q.rho <= 2.0, "chose needlessly coarse guess {}", q.rho);
    }

    #[test]
    fn empty_window_query_is_none() {
        let mut alg: SlidingWindowCoreset<[f64; 2], L2> =
            SlidingWindowCoreset::new(L2, 1, 0, 0.5, 3, 1.0, 10.0);
        assert!(alg.query().is_none());
        alg.insert([0.0, 0.0]);
        alg.insert([1.0, 0.0]);
        alg.insert([2.0, 0.0]);
        assert!(alg.query().is_some());
        // Push the window past all content with far-away arrivals, then
        // confirm old points are gone.
        for i in 0..3 {
            alg.insert([1000.0 + i as f64, 0.0]);
        }
        let q = alg.query().unwrap();
        assert!(q.coreset.iter().all(|w| w.point[0] >= 1000.0));
    }

    #[test]
    fn eviction_taints_then_recovers() {
        // k=1, eps=1, d=2 → cap = 16 + z. Flood with far-apart points at a
        // tiny guess to force evictions, then verify queries still answer.
        // cap = 16² = 256 clusters; 400 pairwise-far points within one
        // window overflow the smallest guesses.  A window of `u64::MAX`
        // never expires, so its taint bound must saturate, not overflow.
        for window in [10_000, u64::MAX] {
            let mut alg = SlidingWindowCoreset::new(L2, 1, 0, 1.0, window, 0.01, 10_000.0);
            for i in 0..400u64 {
                let a = i as f64;
                alg.insert([a * 97.0, (a * 13.0) % 701.0]);
            }
            assert!(alg.evictions() > 0, "expected cap overflow at tiny guesses");
            let q = alg.query().expect("window non-empty");
            assert!(!q.coreset.is_empty());
        }
    }

    #[test]
    fn taint_clears_when_the_evicted_points_expire_not_a_window_after_eviction() {
        // One guess bracket so every insert hits the same fine guesses.
        // cap far-apart points fill the guess; point cap+1 triggers an
        // eviction whose victim holds only the stamp-1 point.  The guess
        // is complete again at `1 + W` — asserting a query between
        // `victim_back + W` and `eviction_time + W` trusts it pins the
        // corrected taint bound (the old `now + W` taint would skip it).
        let (k, z, eps, w) = (1usize, 0u64, 1.0f64, 10_000u64);
        let cap = kcz_coreset::streaming_capacity(k, z, eps, 2) as usize;
        let mut alg = SlidingWindowCoreset::new(L2, k, z, eps, w, 0.01, 0.02);
        for i in 0..=cap {
            alg.insert([i as f64 * 1e6, 0.0]);
        }
        assert_eq!(alg.evictions(), alg.num_guesses() as u64);
        // Jump to just before the eviction-time taint would clear: every
        // point with stamp ≤ cap has expired, so the guess holds exactly
        // the last arrival and its content is provably complete.
        alg.advance_to(w + cap as u64);
        let q = alg.query().expect("last arrival still in window");
        assert_eq!(
            q.tainted_skipped, 0,
            "guess still tainted past victim_back + W"
        );
        assert_eq!(q.coreset.len(), 1);
        assert_eq!(q.clusters, 1);
    }

    #[test]
    fn fully_expired_clusters_are_dropped_in_every_guess_not_just_the_chosen_one() {
        // One location, z = 2 ⇒ each guess stores the newest 3 stamps.
        // Advance past the oldest stored stamp's expiry without an
        // arrival: a query must expire *all* guesses, not stop at the
        // finest (which used to leave expired mini-ball content resident
        // in every coarser guess).
        let mut alg = SlidingWindowCoreset::new(L2, 1, 2, 1.0, 5, 0.1, 100.0);
        for _ in 0..5 {
            alg.insert([1.0, 1.0]);
        }
        let guesses = alg.num_guesses();
        assert_eq!(alg.stored_points(), 3 * guesses);
        alg.advance_to(8); // stamp 3 expires (3 + 5 ≤ 8); stamps 4, 5 live
        let q = alg.query().expect("stamps 4 and 5 still in window");
        assert_eq!(q.coreset.len(), 2);
        assert_eq!(
            alg.stored_points(),
            2 * guesses,
            "a coarser guess retained a point past its window"
        );
    }

    #[test]
    fn long_adversarial_stream_stays_within_the_space_bound_with_churn_and_queries() {
        // Bursts of pairwise-far points (forcing cap evictions at fine
        // guesses) interleaved with arrival-free clock jumps and queries.
        // Pins the documented space bound and that no stored point ever
        // outlives its window, on every guess, at every step.
        let (k, z, eps, w) = (1usize, 3u64, 1.0f64, 2048u64);
        let mut alg = SlidingWindowCoreset::new(L2, k, z, eps, w, 0.25, 4096.0);
        let mut s = 0x5EEDu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for round in 0..300u64 {
            let burst = 1 + next() % 64;
            for _ in 0..burst {
                let r = next();
                // Far-apart adversarial placements plus occasional repeats.
                let p = if r % 5 == 0 {
                    [0.0, 0.0]
                } else {
                    [(r % 4096) as f64 * 31.0, ((r >> 12) % 4096) as f64 * 17.0]
                };
                alg.insert(p);
            }
            if round % 7 == 0 {
                alg.advance_to(alg.time() + next() % (w / 2));
            }
            if round % 3 == 0 {
                alg.query();
            }
            let now = alg.time();
            for g in &alg.guesses {
                for c in &g.clusters {
                    for &(t, _) in &c.pts {
                        assert!(t + w > now, "stored stamp {t} expired at clock {now}");
                    }
                }
            }
        }
        assert!(
            alg.evictions() > 0,
            "adversarial stream never overflowed a guess"
        );
        let cap = kcz_coreset::streaming_capacity(k, z, eps, 2);
        let per_point_words = 3; // 2 coords + timestamp
        let bound =
            alg.num_guesses() * (cap as usize) * ((z as usize + 1) * per_point_words + 3) + 64;
        assert!(
            alg.peak_words() <= bound,
            "peak {} exceeds bound {bound}",
            alg.peak_words()
        );
    }

    #[test]
    fn stamped_query_matches_query_and_keeps_live_stamps_only() {
        let mut alg = SlidingWindowCoreset::new(L2, 2, 1, 1.0, 20, 0.5, 512.0);
        for i in 0..50u64 {
            let x = (i % 9) as f64 * 2.0;
            alg.insert(if i % 2 == 0 {
                [x, 0.0]
            } else {
                [200.0 + x, 3.0]
            });
        }
        let stamped = alg.stamped_query().expect("window non-empty");
        let plain = alg.query().expect("window non-empty");
        assert_eq!(stamped.rho.to_bits(), plain.rho.to_bits());
        assert_eq!(stamped.clusters, plain.clusters);
        assert_eq!(stamped.points.len(), plain.coreset.len());
        let now = alg.time();
        for (i, (t, p)) in stamped.points.iter().enumerate() {
            assert!(t + 20 > now, "stamp {t} expired");
            assert_eq!(*p, plain.coreset[i].point);
        }
    }
}
