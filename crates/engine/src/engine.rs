//! The resident sharded ingest engine.
//!
//! [`Engine`] turns the paper's composability lemmas into a long-lived
//! system: `N` shards, each owning an insertion-only streaming coreset
//! ([`kcz_streaming::InsertionOnlyCoreset`], Theorem 18) behind its own
//! lock.  Batched [`Engine::ingest`] routes points to shards with a
//! splittable hash partitioner ([`kcz_workloads::HashPartitioner`]) and
//! runs the per-shard inserts concurrently on the shared worker pool;
//! [`Engine::publish`] clones the dirty shard summaries under brief
//! per-shard locks (ingest on other shards never stalls, and ingest on
//! the same shard stalls only for the clone, not the merge), merges all
//! shard leaves at once, and caches the solved epoch behind an `Arc` —
//! publishing an *unchanged* data version returns the cached handle
//! without re-merging or re-solving, and [`Engine::latest`] hands readers
//! the newest published epoch without ever paying a solve.  This is the
//! write side of the serving contract: the read side (`kcz-serve`) builds
//! query views on these frozen epochs.
//!
//! Correctness is the coordinator step of the paper's two-round MPC
//! algorithm: each shard's summary is an (ε,k,z)-mini-ball covering of
//! its share (budget `z` is valid per shard because
//! `opt_{k,z}(P_i) ≤ opt_{k,z}(P)` for `P_i ⊆ P`), so their union covers
//! everything ingested (Lemma 4), and one recompression of that union
//! (Lemma 5, [`InsertionOnlyCoreset::merge`]) widens the certified ε′ by
//! `ε/2` once, whatever the shard count — ε′ = 1.5ε once two or more
//! shards hold data, ε while at most one does.  That is the ε′
//! [`Snapshot::effective_eps`] reports and [`Snapshot::bound_factor`]
//! turns into the end-to-end `3 + 8ε′` ratio bound the conformance
//! harness checks.

use kcz_coreset::end_to_end_factor;
use kcz_kcenter::{farthest_first, BallCache, GreedyParams};
use kcz_metric::{MetricSpace, SpaceUsage, Weighted};
use kcz_obs::{Counter, Gauge, MetricsHandle, Stage};
use kcz_streaming::{InsertionOnlyCoreset, MergeRecord};
use kcz_workloads::{HashPartitioner, ShardKey};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::backend::{Backend, Shard};
use crate::runtime::{global, Pool};

/// Construction parameters of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Number of shards (independent insertion-only summaries).
    pub shards: usize,
    /// Number of centers.
    pub k: usize,
    /// Outlier budget (weight).
    pub z: u64,
    /// Coreset accuracy parameter handed to every shard.
    pub eps: f64,
    /// Seed of the hash partitioner (routing is deterministic given it).
    pub seed: u64,
    /// Which per-shard backend the engine runs (see
    /// [`crate::backend`]): insertion-only (the default — summaries
    /// cover everything ever ingested) or a sliding window over the
    /// last `W` global arrivals.  The window stage widens the published
    /// ε′ by one extra ε ([`Backend::extra_eps`]).
    pub backend: Backend,
}

impl EngineConfig {
    /// A config with the given shard count and the catalog's default
    /// routing seed.
    pub fn new(shards: usize, k: usize, z: u64, eps: f64) -> Self {
        EngineConfig {
            shards,
            k,
            z,
            eps,
            seed: 0x5EED_0E16,
            backend: Backend::Insertion,
        }
    }

    /// Sets the per-shard backend (see [`EngineConfig::backend`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sliding-window backend over the last `window` global arrivals.
    pub fn windowed(self, window: u64) -> Self {
        self.with_backend(Backend::Window(window))
    }
}

/// Resource accounting of one engine, reported with every snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of shards.
    pub shards: usize,
    /// Total weight ingested so far.
    pub points: u64,
    /// Batches accepted so far.
    pub batches: u64,
    /// Largest peak storage of any single shard, in words (the paper's
    /// per-machine measure: shards are machines).  It counts the
    /// summary only: the absorb's pivot order, two more words per
    /// representative, is left out (see `DoublingCoreset::space_words`).
    pub shard_peak_words: usize,
    /// Extra words held by this snapshot's merge: the cached shard
    /// leaves (resident between publishes) plus the merged root.  The
    /// root is counted on top of its leaves because the union exists
    /// before its recompression shrinks it.  The leaves' pivot orders
    /// are left out, as in `shard_peak_words`.
    pub merge_transient_words: usize,
    /// Words of the merged summary the snapshot solved on.
    pub summary_words: usize,
    /// Feasibility probes (`disk_greedy` runs) the epoch's solve spent.
    pub solve_probes: usize,
    /// Merge + Charikar solves performed over the engine's
    /// lifetime up to this snapshot (the same count
    /// [`Engine::solves`] reads) — snapshots and the engine expose the
    /// solve/elision accounting uniformly.
    pub solves: u64,
    /// Root recompressions performed over the engine's lifetime up to
    /// this snapshot (see [`Engine::merges`]).
    pub merges: u64,
    /// Charikar solves elided on an unchanged merged fingerprint over
    /// the engine's lifetime up to this snapshot (see
    /// [`Engine::elisions`]).
    pub elisions: u64,
}

/// One epoch-numbered, fully merged view of everything ingested.
#[derive(Debug, Clone)]
pub struct Snapshot<P> {
    /// Monotonic snapshot counter (1 for the first snapshot).
    pub epoch: u64,
    /// Centers solved on the merged summary (Charikar-et-al. greedy).
    pub centers: Vec<P>,
    /// Greedy covering radius on the merged summary.
    pub radius: f64,
    /// The merged summary's lower bound `r ≤ opt` (radius-doubling
    /// invariant, maintained through merges).
    pub radius_bound: f64,
    /// Summary weight left uncovered by the solve (≤ `z`).
    pub uncovered: u64,
    /// The feasible guess `r̂` the radius search settled on
    /// (`radius ≤ 3·r̂`).
    pub guess: f64,
    /// The ε′ the merged summary certifies: `ε` while at most one shard
    /// holds data, `1.5ε` once two or more do (one recompression of
    /// their union), plus the window backend's extra ε.
    pub effective_eps: f64,
    /// The end-to-end certified ratio factor, `3 + 8ε′` (one shared
    /// derivation: [`kcz_coreset::end_to_end_factor`]).
    pub bound_factor: f64,
    /// The merged (ε′,k,z)-coreset itself.
    pub coreset: Vec<Weighted<P>>,
    /// The global arrival clock at publish time: how many points had
    /// arrived (in ingest order) when this epoch was solved.  For the
    /// window backend the epoch summarizes arrivals
    /// `(clock − W, clock]`; insertion-only epochs summarize
    /// everything.
    pub clock: u64,
    /// The backend the engine ran under (time-windowed readers derive
    /// the covered span from this plus [`Snapshot::clock`]).
    pub backend: Backend,
    /// Resource accounting at snapshot time.
    pub stats: EngineStats,
}

impl<P> Snapshot<P> {
    /// The span of live arrival stamps `(oldest, newest)` this epoch
    /// summarizes — `Some` only for the window backend after the first
    /// arrival ("cluster the last `W` arrivals", the time-windowed
    /// query contract).
    pub fn window_span(&self) -> Option<(u64, u64)> {
        self.backend.window_span(self.clock)
    }
}

impl<P: SpaceUsage> SpaceUsage for Snapshot<P> {
    fn words(&self) -> usize {
        self.centers.iter().map(SpaceUsage::words).sum::<usize>() + self.coreset.words() + 7
    }
}

/// Recovers a poisoned mutex guard.  Publish-path state (the snapshot
/// cache, the herd guard, the leaf cache, the kept merge and solve
/// state) is kept internally consistent at every step — a publisher that
/// panicked mid-merge or mid-solve has taken the leaf cache, the merge
/// record and the solve state out (leaving them empty, which just means
/// the next publish rebuilds every leaf, partitions and solves afresh)
/// and never half-writes the snapshot cache — so later publishers must
/// not be wedged by the poison marker.
///
/// Shard locks deliberately keep their `.expect`: a panic mid-insert
/// leaves a shard summary mid-mutation with unknown invariants, and
/// nothing can be republished from it.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Canonical 64-bit fingerprint of a merged summary: a splitmix-style
/// mix over every representative's routing key and weight, the length,
/// the radius bound and the certified ε′ — every merged bit the
/// Charikar solve (and the snapshot's certified fields) consumes.  A
/// pure function of those bits, so a persistent engine and a fresh one
/// fed the same data fingerprint identically.  Never returns the `0`
/// sentinel.
fn fingerprint_summary<P, M>(s: &InsertionOnlyCoreset<P, M>) -> u64
where
    P: Clone + SpaceUsage + ShardKey,
    M: MetricSpace<P>,
{
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    };
    for w in s.coreset() {
        mix(w.point.shard_key());
        mix(w.weight);
    }
    mix(s.coreset().len() as u64);
    mix(s.radius_bound().to_bits());
    mix(s.effective_eps().to_bits());
    h | 1
}

fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// One shard's leaf of the last publish, keyed by the backend state
/// version it was built at: a shard whose version has not moved since
/// is clean, and its leaf is reused without re-cloning (or, for window
/// shards, re-streaming the live suffix).
type Leaf<P, M> = (u64, InsertionOnlyCoreset<P, M>);

/// The last solve's point-only state and the canonical search params of
/// its points: both are pure functions of the merged coreset's points,
/// so one [`BallCache::load`] decides whether both still hold.
type KeptSolve<P, M> = (BallCache<P, M>, GreedyParams);

/// The engine's instrument set.  Counters double as the engine's own
/// accounting (they are the single source of truth behind
/// [`Engine::solves`] & co., live whether or not metrics are enabled —
/// a disabled handle hands out detached cells); stages and gauges are
/// no-ops unless the engine was built [`Engine::with_metrics`].
/// Recording is relaxed atomics only: the instrumented ingest and
/// publish paths stay allocation-free in steady state.
struct EngineInstruments {
    /// `engine.ingest.points` — total weight ingested.
    points: Counter,
    /// `engine.ingest.batches` — batches accepted.
    batches: Counter,
    /// `engine.ingest.rejected` — arrivals dropped at the boundary
    /// (non-finite coordinates or zero weight).
    rejected: Counter,
    /// `engine.publish.solves` — merge + Charikar solve passes.
    solves: Counter,
    /// `engine.publish.pair_merges` — root recompressions: one per
    /// publish whose merge had two or more non-empty leaves.
    merges: Counter,
    /// `engine.merge.reuses` — root recompressions that re-summed the
    /// weights through the kept partition instead of partitioning.
    merge_reuses: Counter,
    /// `engine.publish.elisions` — solves skipped on an unchanged
    /// merged fingerprint.
    elisions: Counter,
    /// `engine.solve.probes` — cumulative feasibility probes spent.
    probes: Counter,
    /// `engine.solve.cache_reuses` — solves that started from the kept
    /// state of the previous solve on the same merged points.
    cache_reuses: Counter,
    /// `engine.ingest.batch_ns` — per-batch ingest latency.
    ingest_batch: Stage,
    /// `engine.publish.total_ns` — whole slow-path publish.
    publish_total: Stage,
    /// `engine.publish.stage.clone_ns` — phase 1, dirty-shard clones.
    stage_clone: Stage,
    /// `engine.publish.stage.merge_ns` — phase 2, the flat merge.
    stage_merge: Stage,
    /// `engine.publish.stage.solve_ns` — phase 3, the Charikar solve.
    stage_solve: Stage,
    /// `engine.publish.stage.replay_ns` — certificate replay on an
    /// elided solve (re-keying the cached solution).
    stage_replay: Stage,
    /// `engine.publish.stage.build_ns` — snapshot construction.
    stage_build: Stage,
    /// `engine.snapshot.coreset_size` — merged coreset size at the last
    /// solved epoch.
    coreset_size: Gauge,
    /// `engine.snapshot.summary_words` — merged summary words at the
    /// last solved epoch.
    summary_words: Gauge,
    /// `engine.publish.epoch` — newest published epoch number.
    epoch_gauge: Gauge,
    /// `engine.merge.peak_transient_words` — high-water leaf-cache plus
    /// merged-root residency.
    peak_transient: Gauge,
}

impl EngineInstruments {
    fn new(metrics: &MetricsHandle) -> Self {
        EngineInstruments {
            points: metrics.counter("engine.ingest.points"),
            batches: metrics.counter("engine.ingest.batches"),
            rejected: metrics.counter("engine.ingest.rejected"),
            solves: metrics.counter("engine.publish.solves"),
            merges: metrics.counter("engine.publish.pair_merges"),
            merge_reuses: metrics.counter("engine.merge.reuses"),
            elisions: metrics.counter("engine.publish.elisions"),
            probes: metrics.counter("engine.solve.probes"),
            cache_reuses: metrics.counter("engine.solve.cache_reuses"),
            ingest_batch: metrics.stage("engine.ingest.batch_ns"),
            publish_total: metrics.stage("engine.publish.total_ns"),
            stage_clone: metrics.stage("engine.publish.stage.clone_ns"),
            stage_merge: metrics.stage("engine.publish.stage.merge_ns"),
            stage_solve: metrics.stage("engine.publish.stage.solve_ns"),
            stage_replay: metrics.stage("engine.publish.stage.replay_ns"),
            stage_build: metrics.stage("engine.publish.stage.build_ns"),
            coreset_size: metrics.gauge("engine.snapshot.coreset_size"),
            summary_words: metrics.gauge("engine.snapshot.summary_words"),
            epoch_gauge: metrics.gauge("engine.publish.epoch"),
            peak_transient: metrics.gauge("engine.merge.peak_transient_words"),
        }
    }

    /// Carries accumulated counts into a fresh instrument set (the
    /// [`Engine::with_metrics`] rebind: an engine instrumented after
    /// doing work must not lose its accounting).
    fn carry_from(&self, old: &EngineInstruments) {
        self.points.add(old.points.get());
        self.batches.add(old.batches.get());
        self.rejected.add(old.rejected.get());
        self.solves.add(old.solves.get());
        self.merges.add(old.merges.get());
        self.merge_reuses.add(old.merge_reuses.get());
        self.elisions.add(old.elisions.get());
        self.probes.add(old.probes.get());
        self.cache_reuses.add(old.cache_reuses.get());
        self.coreset_size.set(old.coreset_size.get());
        self.summary_words.set(old.summary_words.get());
        self.epoch_gauge.set(old.epoch_gauge.get());
        self.peak_transient.set_max(old.peak_transient.get());
    }
}

/// A long-lived, sharded clustering engine over one metric space.
///
/// `ingest` and `snapshot` take `&self`: the engine is shared across
/// writer threads as-is (no external lock), and a snapshot can be taken
/// while other threads keep ingesting.
///
/// Between publishes the engine keeps two records, each keyed by points
/// and reused while only weights move:
/// - the root merge's partition (a [`MergeRecord`]: the union of the
///   shard leaves as its key, with the merge radius, and the index of
///   each union point's merged representative).  A publish whose union
///   has the same points, in order, at the same radius, re-sums the
///   union's weights through it and runs no partition
///   (`engine.merge.reuses`);
/// - the last solve's point-only state (a [`BallCache`]: the merged
///   points as its key, their pivot order, candidate ladder and
///   neighbour lists) and the canonical warm hint of those points.  A
///   publish whose merged coreset has the same points, in order, reuses
///   both and pays only for its probes (`engine.solve.cache_reuses`).
///
/// Both are solver memory outside every words count: the merge record
/// holds one index and one weighted point per shard representative, and
/// the cache is bounded by its 1.5 M-entry budget (18 MB).  Each is
/// replaced on the first publish whose points differ, and dropped by a
/// publish that panics.
pub struct Engine<P, M: MetricSpace<P>> {
    cfg: EngineConfig,
    metric: M,
    router: HashPartitioner,
    shards: Vec<Mutex<Shard<P, M>>>,
    obs: EngineInstruments,
    epoch: AtomicU64,
    /// Data version: bumped once per accepted batch, *after* the batch
    /// has fully landed in the shards.  `publish` stamps each solved
    /// snapshot with the version it observed before cloning, so an
    /// unchanged version proves the cached snapshot is still current.
    /// Time is arrival-driven (the clock advances only when points
    /// land), so an unchanged version also certifies that no window
    /// expiry happened — the fast path is exact in every backend mode.
    version: AtomicU64,
    /// Global arrival clock: the number of points that have *started*
    /// ingest (stamps are drawn from it before routing).  Backends see
    /// it as each point's arrival stamp and at publish time via
    /// `advance_to`.
    clock: AtomicU64,
    /// The last published snapshot, keyed by the data version it was
    /// solved at.  Readers (`latest`) clone the `Arc` under a brief read
    /// lock; only a publish of a *newer* epoch takes the write lock.
    published: RwLock<Option<(u64, Arc<Snapshot<P>>)>>,
    /// Canonical fingerprint of the merged summary the cached snapshot
    /// solved on (0 = none yet).  Written only with `publish_order`
    /// held.  A publish whose freshly merged summary hashes to the same
    /// fingerprint skips the Charikar solve: the solve is a
    /// deterministic function of the merged bits, so its output is
    /// already sitting in the cache.
    published_fp: AtomicU64,
    /// Collapses a publish herd: when several threads race `publish` on
    /// the same new data version, one solves while the rest wait here
    /// and then take the refreshed cache — N concurrent refreshers cost
    /// one merge + solve, not N.  Publishers are fully serialized by
    /// this lock, which also orders epoch assignment with the clone
    /// phase (no separate snapshot lock needed).
    publish_order: Mutex<()>,
    /// The previous publish's shard leaves, one per shard in shard
    /// order.  Taken out for the duration of a publish, so a panicking
    /// merge or solve leaves it empty and the next publish rebuilds
    /// every leaf.
    leaves: Mutex<Vec<Leaf<P, M>>>,
    /// The root merge's kept partition (see the type docs).  Taken out
    /// with `leaves` and put back only when the publish succeeds, so a
    /// panicking publish leaves it empty.
    merge_record: Mutex<MergeRecord<P>>,
    /// The last solve's kept state (see the type docs).  Taken out for
    /// the duration of a publish's solve and put back only when the
    /// solve succeeds, so a panicking solve leaves it empty, as it does
    /// `leaves`.
    solver: Mutex<Option<KeptSolve<P, M>>>,
    pool: &'static Pool,
}

impl<P, M> Engine<P, M>
where
    P: Clone + PartialEq + SpaceUsage + ShardKey + Send + Sync,
    M: MetricSpace<P> + Clone,
{
    /// Builds the engine: `cfg.shards` empty insertion-only summaries,
    /// all with identical `(k, z, ε)` so their merges are legal.
    pub fn new(metric: M, cfg: EngineConfig) -> Self {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.eps > 0.0 && cfg.eps <= 1.0, "ε must be in (0, 1]");
        assert!(cfg.k >= 1, "k must be at least 1");
        let shards = (0..cfg.shards)
            .map(|_| {
                Mutex::new(Shard::new(
                    cfg.backend,
                    metric.clone(),
                    cfg.k,
                    cfg.z,
                    cfg.eps,
                ))
            })
            .collect();
        Engine {
            router: HashPartitioner::new(cfg.shards, cfg.seed),
            metric,
            shards,
            obs: EngineInstruments::new(&MetricsHandle::disabled()),
            epoch: AtomicU64::new(0),
            version: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            published: RwLock::new(None),
            published_fp: AtomicU64::new(0),
            publish_order: Mutex::new(()),
            leaves: Mutex::new(Vec::new()),
            merge_record: Mutex::new(MergeRecord::default()),
            solver: Mutex::new(None),
            pool: global(),
            cfg,
        }
    }

    /// Rebinds the engine's instruments onto `metrics`: every counter,
    /// stage span (the publish phases: dirty-shard clone, re-merge,
    /// solve vs certificate replay, snapshot build; per-batch ingest)
    /// and gauge records into its registry from here on.  Counts
    /// accumulated before the rebind carry over, so accessors like
    /// [`Engine::solves`] never regress.  Builder-style because
    /// [`EngineConfig`] is `Copy` and cannot own a handle.
    pub fn with_metrics(mut self, metrics: &MetricsHandle) -> Self {
        let fresh = EngineInstruments::new(metrics);
        fresh.carry_from(&self.obs);
        self.obs = fresh;
        self
    }

    /// The construction parameters.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The metric the engine clusters under (the read side builds its
    /// query views over the same metric).
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Total weight ingested so far.
    pub fn points_ingested(&self) -> u64 {
        self.obs.points.get()
    }

    /// Epochs published so far (the epoch number of the newest snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Data version: the number of batches that have fully landed.  Two
    /// equal readings with no ingest in between certify that a snapshot
    /// published at that version is still current.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Merge + Charikar solves performed so far.  Publishing an
    /// unchanged version returns the cached snapshot and does not bump
    /// this — the regression surface for the snapshot fast path.
    pub fn solves(&self) -> u64 {
        self.obs.solves.get()
    }

    /// Root recompressions performed so far: one per publish whose merge
    /// found two or more non-empty shard leaves (a lone non-empty leaf
    /// is adopted as it is), whether it partitioned or re-summed the
    /// weights through the kept partition (`engine.merge.reuses`).
    /// Exported as `engine.publish.pair_merges`.
    pub fn merges(&self) -> u64 {
        self.obs.merges.get()
    }

    /// Arrivals dropped at the ingest boundary so far: points with a
    /// non-finite coordinate and zero-weight points (see
    /// [`Engine::ingest`]).
    pub fn rejected(&self) -> u64 {
        self.obs.rejected.get()
    }

    /// Charikar solves elided because a publish's freshly merged summary
    /// fingerprinted identically to the cached snapshot's (the data
    /// version advanced but every arrival was absorbed without changing
    /// the merged bits — e.g. weight-saturated representatives).  Each
    /// elision still pays the merge phase, but not the solve, and burns
    /// no epoch number.
    pub fn elisions(&self) -> u64 {
        self.obs.elisions.get()
    }

    /// Ingests one batch of unit-weight points: routes every point to its
    /// shard by value hash, then runs the per-shard insert loops
    /// concurrently on the pool (each sub-batch takes its shard lock
    /// once).
    ///
    /// Points with a non-finite coordinate are dropped before routing
    /// and counted in [`Engine::rejected`] (`engine.ingest.rejected`):
    /// a NaN representative would poison every later solve.  Dropped
    /// points take no arrival stamp and add nothing to
    /// [`Engine::points_ingested`].
    pub fn ingest(&self, batch: &[P]) {
        self.ingest_stamped(batch.iter().map(|p| (p.clone(), 1)));
    }

    /// Ingests a batch of weighted points (a weight-`w` point is `w`
    /// co-located unit arrivals, per the paper's weighted formulation;
    /// on the arrival clock it occupies *one* slot — a weighted point
    /// is one arrival carrying mass).  Routing keys on the point only,
    /// so weighted and unit arrivals of the same location always
    /// co-locate.  Zero-weight points (the fields are public, so
    /// `Weighted::new`'s check can be bypassed) are dropped and counted
    /// like non-finite ones (see [`Engine::ingest`]); the weight total
    /// saturates at `u64::MAX`.
    pub fn ingest_weighted(&self, batch: &[Weighted<P>]) {
        self.ingest_stamped(batch.iter().map(|wp| (wp.point.clone(), wp.weight)));
    }

    /// The one ingest tail both entry points share: drop what the
    /// coreset cannot hold, route each accepted point to its shard,
    /// draw one contiguous range of arrival stamps off the global clock
    /// for the accepted points, run the per-shard insert loops on the
    /// pool (one shard-lock acquisition per sub-batch), and bump the
    /// counters only once the whole batch has landed (the mid-burst
    /// snapshot semantics the concurrency test documents).  Stamps
    /// depend only on the global arrival order, so batching never
    /// changes them.
    fn ingest_stamped(&self, items: impl Iterator<Item = (P, u64)>) {
        // A routed arrival: (offset within the batch, point, weight).
        type Routed<P> = (u64, P, u64);
        let t_batch = self.obs.ingest_batch.start();
        let mut routed: Vec<Vec<Routed<P>>> = (0..self.cfg.shards).map(|_| Vec::new()).collect();
        let (mut accepted, mut rejected, mut total) = (0u64, 0u64, 0u64);
        for (p, w) in items {
            if w == 0 || !p.all_finite() {
                rejected += 1;
                continue;
            }
            accepted += 1;
            total = total.saturating_add(w);
            routed[self.router.shard_of(&p)].push((accepted, p, w));
        }
        if rejected > 0 {
            self.obs.rejected.add(rejected);
        }
        if accepted == 0 {
            // An empty (or wholly rejected) flush is a no-op, not an
            // accepted batch.
            return;
        }
        let base = self.clock.fetch_add(accepted, Ordering::AcqRel);
        let jobs: Vec<(usize, Vec<Routed<P>>)> = routed
            .into_iter()
            .enumerate()
            .filter(|(_, sub)| !sub.is_empty())
            .collect();
        self.pool.scoped_map(jobs, |_, (shard, sub)| {
            let mut guard = self.shards[shard].lock().expect("shard lock");
            for (offset, p, w) in sub {
                guard.insert_weighted(p, w, base + offset);
            }
        });
        self.obs.points.add_saturating(total);
        self.obs.batches.incr();
        // Version bumps strictly *after* the batch has landed: a publish
        // that reads the new version is guaranteed to observe shards
        // that already contain the batch (the converse — a shard state
        // newer than the version stamp — is merely conservative and
        // costs one redundant re-solve).  Per-shard dirtiness lives in
        // each backend's state version, read under the shard lock at
        // publish time, so it can never lag the content it stamps.
        self.version.fetch_add(1, Ordering::Release);
        t_batch.finish();
    }

    /// The global arrival clock: how many points have entered ingest so
    /// far (each point occupies one arrival slot, weighted or not).
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Takes an epoch-numbered snapshot of the current contents.
    ///
    /// This is the owning-value face of [`Engine::publish`]: the fast
    /// path applies (an unchanged version returns a clone of the cached
    /// snapshot, same epoch, no re-solve), so repeated snapshots of an
    /// idle engine are cheap and epoch numbers advance only when the
    /// data did.
    pub fn snapshot(&self) -> Snapshot<P> {
        (*self.publish()).clone()
    }

    /// Publishes the current epoch as a shared handle: if nothing was
    /// ingested since the last publish, the cached `Arc` comes back
    /// (wait-free for the data path — no clone phase, no merge, no
    /// solve); otherwise a fresh epoch is solved and cached.
    ///
    /// Readers that only want whatever is already published (and must
    /// never pay a solve) use [`Engine::latest`] instead.
    pub fn publish(&self) -> Arc<Snapshot<P>> {
        if let Some(snap) = self.cached_if_current() {
            return snap;
        }
        // Herd guard: one publisher solves, the rest wait and take the
        // refreshed cache (double-checked after acquiring the lock).  A
        // previous publisher that panicked poisons nothing observable:
        // the guard is recovered, the cache it left behind is either the
        // old complete snapshot or none at all.
        let _publishing = lock_recover(&self.publish_order);
        if let Some(snap) = self.cached_if_current() {
            return snap;
        }
        let (version, snap) = self.solve_snapshot();
        let snap = Arc::new(snap);
        // Publishers are serialized by `publish_order`, so cache epochs
        // strictly increase: an unconditional store never regresses.
        *write_recover(&self.published) = Some((version, Arc::clone(&snap)));
        snap
    }

    /// The cached snapshot iff it is still current (its version stamp
    /// equals the engine's data version).
    fn cached_if_current(&self) -> Option<Arc<Snapshot<P>>> {
        let current = self.version.load(Ordering::Acquire);
        match &*read_recover(&self.published) {
            Some((version, snap)) if *version == current => Some(Arc::clone(snap)),
            _ => None,
        }
    }

    /// The newest published snapshot, without ever solving: `None` until
    /// the first [`Engine::publish`] / [`Engine::snapshot`].  Possibly
    /// stale (ingest may have advanced the version since) — the epoch and
    /// its certified bounds are frozen per snapshot, which is exactly the
    /// consistency contract the read side serves under.
    pub fn latest(&self) -> Option<Arc<Snapshot<P>>> {
        read_recover(&self.published)
            .as_ref()
            .map(|(_, snap)| Arc::clone(snap))
    }

    /// The slow path behind [`Engine::publish`], called only with
    /// `publish_order` held (publishers are fully serialized, which
    /// also orders epoch assignment with the clone phase).  Clones the
    /// *dirty* shard summaries under brief per-shard locks (clean
    /// shards reuse the previous publish's leaf without copying it),
    /// merges every leaf at once into one root — a single union and
    /// recompression, [`InsertionOnlyCoreset::merge_kept`], which re-sums
    /// the kept partition when the union's points and radius are the
    /// last one's — and solves the merged coreset with the
    /// Charikar-et-al. greedy, warm-started from the canonical
    /// merged-summary hint (the Gonzalez (k+z) radius).  Returns the data
    /// version the snapshot is valid for.
    ///
    /// Deterministic given the shard contents: the root is the union of
    /// the leaves in shard order, recompressed sequentially, and a
    /// reused clean leaf or merge partition is bit-identical to
    /// rebuilding it.
    fn solve_snapshot(&self) -> (u64, Snapshot<P>) {
        let t_total = self.obs.publish_total.start();
        // Take the cached leaves and the merge record out for the
        // duration: a panic below leaves both empty, and the next publish
        // rebuilds every leaf and partitions afresh.
        let mut cached = std::mem::take(&mut *lock_recover(&self.leaves)).into_iter();
        let mut record = std::mem::take(&mut *lock_recover(&self.merge_record));

        // Read the global version *before* the arrival clock and both
        // before the per-shard pass: a batch landing mid-publish may or
        // may not be in the summaries, but each shard's state version
        // is read under its lock *together with* the content it stamps,
        // so a cached leaf keyed by that stamp can never be stale — at
        // worst a later publish re-clones redundantly.
        let version = self.version.load(Ordering::Acquire);
        let now = self.clock.load(Ordering::Acquire);

        // Phase 1: leaves.  Every shard is visited under its brief lock:
        // first `advance_to` delivers the publish-time clock (window
        // expiry — *time-driven* mutation that bumps the shard's state
        // version exactly when the summary could have changed), then
        // the stamp decides dirtiness.  Dirty shards build a fresh leaf
        // under the same lock; clean shards keep the cached one.
        // Insertion-only shards ignore time and their leaves are plain
        // clones.
        let t_clone = self.obs.stage_clone.start();
        let mut leaves: Vec<Leaf<P, M>> = Vec::with_capacity(self.shards.len());
        let mut shard_peak_words = 0usize;
        for shard in &self.shards {
            let mut guard = shard.lock().expect("shard lock");
            guard.advance_to(now);
            let stamp = guard.state_version();
            shard_peak_words = shard_peak_words.max(guard.peak_words());
            leaves.push(match cached.next() {
                Some(leaf) if leaf.0 == stamp => leaf,
                _ => (stamp, guard.summary()),
            });
        }
        t_clone.finish();

        // Phase 2: one flat merge of every leaf, read by reference.
        // Empty leaves are skipped and a lone non-empty leaf is adopted
        // as it is, so only a merge of two or more non-empty leaves
        // pays (and counts) the recompression.  A recompression of the
        // kept union at the kept radius re-sums the weights through the
        // kept partition instead.
        let t_merge = self.obs.stage_merge.start();
        let mut merged =
            InsertionOnlyCoreset::new(self.metric.clone(), self.cfg.k, self.cfg.z, self.cfg.eps);
        if leaves
            .iter()
            .filter(|(_, leaf)| leaf.points_seen() > 0)
            .count()
            >= 2
        {
            self.obs.merges.incr();
        }
        if merged.merge_kept(leaves.iter().map(|(_, leaf)| leaf), &mut record) {
            self.obs.merge_reuses.incr();
        }
        let merge_transient_words = leaves
            .iter()
            .map(|(_, leaf)| leaf.space_words())
            .sum::<usize>()
            + merged.space_words();
        self.obs
            .peak_transient
            .set_max(merge_transient_words as u64);
        t_merge.finish();

        // Solve elision: the solve below is a deterministic function of
        // the merged bits (canonical warm hint), so when the freshly
        // merged summary fingerprints identically to the one the cached
        // snapshot solved on, that solution *is* this version's
        // solution.  Re-key the cached snapshot to the new data version
        // with fresh resource accounting — no Charikar solve, no epoch
        // burned.  This fires when the version advanced but no arrival
        // changed the merged bits (weight-saturated representatives).
        let fp = fingerprint_summary(&merged);
        if self.published_fp.load(Ordering::Relaxed) == fp {
            if let Some((_, prior)) = &*read_recover(&self.published) {
                let t_replay = self.obs.stage_replay.start();
                self.obs.elisions.incr();
                let mut snap = (**prior).clone();
                snap.clock = now;
                snap.stats.points = self.obs.points.get();
                snap.stats.batches = self.obs.batches.get();
                snap.stats.shard_peak_words = shard_peak_words;
                snap.stats.merge_transient_words = merge_transient_words;
                snap.stats.solves = self.obs.solves.get();
                snap.stats.merges = self.obs.merges.get();
                snap.stats.elisions = self.obs.elisions.get();
                *lock_recover(&self.leaves) = leaves;
                *lock_recover(&self.merge_record) = record;
                t_replay.finish();
                t_total.finish();
                return (version, snap);
            }
        }

        // Phase 3: solve on the merged summary, warm-started from a
        // *canonical* hint — the Gonzalez (k+z)-center radius of the
        // merged coreset.  The hint is a pure function of the merged
        // points (no publish history), so a persistent engine and a
        // from-scratch oracle compute the same hint on the same data and
        // settle on bit-identical answers.  R_gonz(k+z) ≤ 2·opt_{k,z},
        // and on the engine's merged coresets it sits about 1.46× above
        // the settled guess, so the search bisects the candidates from
        // half the hint to the hint (about 70 of the 1.01 ladder) in 6–7
        // probes, where a cold bisection spends 8–10.  A solve that
        // reuses the kept state skips the build, and those probes are
        // then most of its cost.  The kept state and the hint share one
        // key: a publish whose merged points equal the last solve's
        // reuses both.
        self.obs.solves.incr();
        let t_solve = self.obs.stage_solve.start();
        let radius_bound = merged.radius_bound();
        let (mut balls, mut params) = lock_recover(&self.solver)
            .take()
            .unwrap_or_else(|| (BallCache::new(self.metric.clone()), GreedyParams::default()));
        if balls.load(merged.coreset()) {
            self.obs.cache_reuses.incr();
        } else {
            params = self.canonical_params(merged.coreset());
        }
        let sol = balls.solve(self.cfg.k, self.cfg.z, &params);
        *lock_recover(&self.solver) = Some((balls, params));
        t_solve.finish();
        self.obs.probes.add(sol.probes as u64);
        // ε′ composition: the merged root accounts the leaf ε and the
        // one recompression's widening; the window stage sits in front
        // of the leaves and adds its own ε (zero for insertion —
        // `x + 0.0` is exact).
        let effective_eps = merged.effective_eps() + self.cfg.backend.extra_eps(self.cfg.eps);
        // The epoch number is drawn only now, on success: a panicking
        // merge or solve burns no epoch, keeping the "epochs advance
        // only when data did" contract across failed publishes.
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let t_build = self.obs.stage_build.start();
        let summary_words = merged.space_words();
        let snap = Snapshot {
            epoch,
            centers: sol.centers,
            radius: sol.radius,
            radius_bound,
            uncovered: sol.uncovered,
            guess: sol.guess,
            effective_eps,
            bound_factor: end_to_end_factor(effective_eps),
            clock: now,
            backend: self.cfg.backend,
            stats: EngineStats {
                shards: self.cfg.shards,
                points: self.obs.points.get(),
                batches: self.obs.batches.get(),
                shard_peak_words,
                merge_transient_words,
                summary_words,
                solve_probes: sol.probes,
                solves: self.obs.solves.get(),
                merges: self.obs.merges.get(),
                elisions: self.obs.elisions.get(),
            },
            coreset: merged.coreset().to_vec(),
        };
        *lock_recover(&self.leaves) = leaves;
        *lock_recover(&self.merge_record) = record;
        self.published_fp.store(fp, Ordering::Relaxed);
        t_build.finish();
        self.obs.coreset_size.set(snap.coreset.len() as u64);
        self.obs.summary_words.set(summary_words as u64);
        self.obs.epoch_gauge.set(epoch);
        t_total.finish();
        (version, snap)
    }

    /// The canonical search params of a solve on `coreset`: warm from
    /// the Gonzalez `(k+z)`-center radius, a pure function of the points
    /// within 2× of `opt_{k+z}`, whose bracket from half the hint to the
    /// hint usually holds the settled guess; or cold when `k + z` covers
    /// half the coreset or more (the hint then lies near 0, far below
    /// the guess, and galloping up from it would cost more than
    /// bisecting) or the hint is 0.
    fn canonical_params(&self, coreset: &[Weighted<P>]) -> GreedyParams {
        let budget = self.cfg.k.saturating_add(self.cfg.z as usize);
        if budget < coreset.len() / 2 {
            let hint = farthest_first(&self.metric, coreset, budget, 0).radius;
            if hint > 0.0 {
                return GreedyParams::warm(hint);
            }
        }
        GreedyParams::default()
    }

    /// Per-shard resident representative counts right now (diagnostics;
    /// takes each lock briefly).  Insertion shards report their coreset
    /// size, window shards their live buffer length.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").rep_len())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcz_kcenter::exact_discrete;
    use kcz_metric::{total_weight, L2};

    /// Two clusters + far outliers, deterministic.
    fn stream(n: usize) -> Vec<[f64; 2]> {
        let mut out = Vec::with_capacity(n);
        let mut s = 0xDEADBEEFu64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            if i % 60 == 59 {
                out.push([5000.0 + next() * 1000.0, -3000.0]);
            } else if i % 2 == 0 {
                out.push([next() * 3.0, next() * 3.0]);
            } else {
                out.push([90.0 + next() * 3.0, 90.0 + next() * 3.0]);
            }
        }
        out
    }

    #[test]
    fn weight_preserved_across_shards_and_batches() {
        let engine = Engine::new(L2, EngineConfig::new(4, 2, 10, 0.5));
        let pts = stream(500);
        for batch in pts.chunks(64) {
            engine.ingest(batch);
        }
        assert_eq!(engine.points_ingested(), 500);
        let snap = engine.snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(total_weight(&snap.coreset), 500);
        assert_eq!(snap.stats.points, 500);
        assert_eq!(snap.stats.shards, 4);
        assert!(snap.stats.shard_peak_words > 0);
        assert!(snap.stats.merge_transient_words >= snap.stats.shard_peak_words);
    }

    #[test]
    fn snapshot_is_deterministic_in_batching() {
        let pts = stream(400);
        let run = |batch_size: usize| {
            let engine = Engine::new(L2, EngineConfig::new(4, 2, 8, 0.5));
            for batch in pts.chunks(batch_size) {
                engine.ingest(batch);
            }
            engine.snapshot()
        };
        let (a, b) = (run(32), run(127));
        assert_eq!(a.radius, b.radius);
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.coreset.len(), b.coreset.len());
        for (x, y) in a.coreset.iter().zip(&b.coreset) {
            assert_eq!(x.point, y.point);
            assert_eq!(x.weight, y.weight);
        }
    }

    #[test]
    fn snapshot_radius_meets_certified_bound() {
        let pts = stream(220);
        let weighted: Vec<Weighted<[f64; 2]>> = pts.iter().map(|p| Weighted::unit(*p)).collect();
        let opt = exact_discrete(&L2, &weighted, 2, 6, &pts).radius;
        for shards in 1usize..=8 {
            let engine = Engine::new(L2, EngineConfig::new(shards, 2, 6, 0.5));
            for batch in pts.chunks(50) {
                engine.ingest(batch);
            }
            let snap = engine.snapshot();
            // Re-measure the snapshot's centers on the *full input*.
            let measured = kcz_kcenter::cost_with_outliers(&L2, &weighted, &snap.centers, 6);
            assert!(
                measured <= snap.bound_factor * opt + 1e-9,
                "shards={shards}: {measured} > {}·{opt}",
                snap.bound_factor
            );
            assert!(snap.radius_bound <= opt + 1e-9, "r must lower-bound opt");
            // One recompression whatever the shard count: ε′ = 1.5ε as
            // soon as two shards hold data.
            let holding = engine.shard_sizes().iter().filter(|&&n| n > 0).count();
            assert_eq!(holding, shards, "every shard holds data");
            let expected = if shards >= 2 { 0.75 } else { 0.5 };
            assert_eq!(snap.effective_eps, expected, "shards={shards}");
            assert_eq!(snap.bound_factor, 3.0 + 8.0 * expected);
        }
        // All mass on one location lands on one shard: nothing is
        // recompressed and ε′ stays ε.
        let engine = Engine::new(L2, EngineConfig::new(8, 2, 6, 0.5));
        engine.ingest(&[[1.0, 1.0]; 10]);
        assert_eq!(engine.snapshot().effective_eps, 0.5);
        assert_eq!(engine.merges(), 0);
    }

    #[test]
    fn snapshots_interleave_with_ingest() {
        let engine = Engine::new(L2, EngineConfig::new(3, 2, 10, 0.5));
        let pts = stream(600);
        let mut epochs = Vec::new();
        for (i, batch) in pts.chunks(100).enumerate() {
            engine.ingest(batch);
            if i % 2 == 1 {
                epochs.push(engine.snapshot().epoch);
            }
        }
        // Nothing landed since the last snapshot: the cached epoch comes
        // back, not a fresh one.
        let last = engine.snapshot();
        assert_eq!(last.epoch, epochs.len() as u64);
        assert_eq!(total_weight(&last.coreset), 600);
        assert!(last.stats.merge_transient_words > 0);
        // One more arrival advances the version and thus the epoch.
        engine.ingest(&[[1.0, 1.0]]);
        let fresh = engine.snapshot();
        assert_eq!(fresh.epoch, epochs.len() as u64 + 1);
        assert_eq!(total_weight(&fresh.coreset), 601);
    }

    #[test]
    fn unchanged_version_publishes_cached_snapshot_without_resolving() {
        let engine = Engine::new(L2, EngineConfig::new(4, 2, 10, 0.5));
        assert!(engine.latest().is_none(), "nothing published yet");
        engine.ingest(&stream(200));
        let a = engine.publish();
        assert_eq!(engine.solves(), 1);
        // Same version: same Arc back, no merge, no Charikar solve.
        let b = engine.publish();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "cached Arc must be reused");
        assert_eq!(engine.solves(), 1, "unchanged version must not re-solve");
        assert_eq!(engine.snapshot().epoch, a.epoch);
        assert_eq!(engine.solves(), 1);
        // `latest` never solves; it reads whatever is published.
        let l = engine.latest().expect("published");
        assert!(std::sync::Arc::ptr_eq(&a, &l));
        // New data invalidates the cache exactly once.
        engine.ingest(&[[7.0, 7.0]]);
        let c = engine.publish();
        assert_eq!(c.epoch, a.epoch + 1);
        assert_eq!(engine.solves(), 2);
        assert_eq!(total_weight(&c.coreset), 201);
    }

    #[test]
    fn publish_herd_collapses_to_one_solve() {
        // N refreshers racing onto the same new data version must cost
        // one merge + solve total, not N (the double-checked herd guard).
        let engine = Engine::new(L2, EngineConfig::new(4, 2, 10, 0.5));
        engine.ingest(&stream(150));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let snap = engine.publish();
                    assert_eq!(snap.epoch, 1);
                });
            }
        });
        assert_eq!(engine.solves(), 1, "herd must share a single solve");
        assert_eq!(engine.epoch(), 1, "no epoch numbers burned on discards");
    }

    #[test]
    fn weighted_ingest_equals_unit_ingest() {
        let pts = stream(120);
        let a = Engine::new(L2, EngineConfig::new(4, 2, 6, 0.5));
        let b = Engine::new(L2, EngineConfig::new(4, 2, 6, 0.5));
        for batch in pts.chunks(30) {
            a.ingest(batch);
            let weighted: Vec<Weighted<[f64; 2]>> =
                batch.iter().map(|p| Weighted::unit(*p)).collect();
            b.ingest_weighted(&weighted);
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.radius, sb.radius);
        assert_eq!(total_weight(&sa.coreset), total_weight(&sb.coreset));
    }

    #[test]
    fn empty_engine_snapshot_is_sane() {
        let engine = Engine::<[f64; 2], _>::new(L2, EngineConfig::new(4, 2, 3, 0.5));
        let snap = engine.snapshot();
        assert_eq!(snap.coreset.len(), 0);
        assert_eq!(snap.radius, 0.0);
        assert_eq!(snap.stats.points, 0);
    }

    #[test]
    fn duplicate_heavy_mass_lands_on_one_shard() {
        // 90% of the mass is one duplicated site: hashing co-locates it,
        // the skewed shard absorbs it into one representative.
        let engine = Engine::new(L2, EngineConfig::new(4, 2, 5, 0.5));
        let mut pts = vec![[100.0, 100.0]; 90];
        for i in 0..10 {
            pts.push([i as f64 * 37.0, 900.0]);
        }
        engine.ingest(&pts);
        let sizes = engine.shard_sizes();
        assert_eq!(sizes.len(), 4);
        let snap = engine.snapshot();
        assert_eq!(total_weight(&snap.coreset), 100);
        let hot = snap
            .coreset
            .iter()
            .find(|w| w.point == [100.0, 100.0])
            .expect("hot site survives");
        assert_eq!(hot.weight, 90);
    }

    #[test]
    fn saturated_absorbs_elide_the_solve_and_burn_no_epoch() {
        // A weight-saturated representative absorbs further co-located
        // arrivals without changing any merged bit: the data version
        // advances (the cached-Arc fast path misses) but the merged
        // summary fingerprints identically, so publish re-keys the
        // cached solution instead of re-running Charikar.
        let engine = Engine::new(L2, EngineConfig::new(2, 1, 0, 0.5));
        engine.ingest_weighted(&[Weighted::new([1.0, 1.0], u64::MAX)]);
        let a = engine.publish();
        assert_eq!((engine.solves(), engine.elisions()), (1, 0));
        engine.ingest(&[[1.0, 1.0]]);
        assert!(engine.version() > 1, "version must advance");
        let b = engine.publish();
        assert_eq!(
            engine.solves(),
            1,
            "unchanged merged bits must not re-solve"
        );
        assert_eq!(engine.elisions(), 1);
        assert_eq!(b.epoch, a.epoch, "no epoch burned on an elided solve");
        assert_eq!(b.centers, a.centers);
        assert_eq!(b.radius.to_bits(), a.radius.to_bits());
        assert_eq!(b.stats.batches, a.stats.batches + 1, "fresh accounting");
        // The re-keyed snapshot is now current: the next publish takes
        // the wait-free cached-Arc path, and changed bits still solve.
        let c = engine.publish();
        assert_eq!((engine.solves(), engine.elisions()), (1, 1));
        assert_eq!(c.epoch, a.epoch);
        engine.ingest(&[[500.0, -3.0]]);
        let d = engine.publish();
        assert_eq!(d.epoch, a.epoch + 1);
        assert_eq!((engine.solves(), engine.elisions()), (2, 1));
    }

    /// Non-finite points and zero weights are dropped before routing
    /// and counted; the engine keeps ingesting and publishing after
    /// each.  Checked under both CLI metrics: `Linf` cannot see a NaN
    /// through `dist(p, p)`.
    fn bad_arrivals_are_dropped_and_counted<M: MetricSpace<[f64; 2]> + Clone>(metric: M) {
        let registry = kcz_obs::Registry::new();
        let engine = Engine::new(metric, EngineConfig::new(4, 2, 3, 0.5))
            .with_metrics(&MetricsHandle::new(&registry));
        engine.ingest(&stream(100));
        let bad = [
            Weighted::unit([f64::NAN, 1.0]),
            Weighted::unit([1.0, f64::INFINITY]),
            Weighted::unit([f64::NEG_INFINITY, 0.0]),
            Weighted {
                point: [3.0, 3.0],
                weight: 0,
            },
        ];
        for (i, wp) in bad.into_iter().enumerate() {
            engine.ingest_weighted(&[wp]);
            let dropped = i as u64 + 1;
            assert_eq!(engine.rejected(), dropped);
            assert_eq!(
                registry.counter_value("engine.ingest.rejected"),
                Some(dropped)
            );
            engine.ingest(&[[2.0 + i as f64, 2.0]]);
            let snap = engine.publish();
            assert!(snap.radius.is_finite());
            assert_eq!(snap.stats.points, 101 + i as u64);
        }
        // Dropped arrivals take no stamp and no weight.
        assert_eq!(engine.clock(), 104);
        assert_eq!(engine.points_ingested(), 104);
        assert_eq!(total_weight(&engine.snapshot().coreset), 104);
        // A batch mixing good and bad points keeps the good ones.
        engine.ingest(&[[f64::NAN, f64::NAN], [7.0, 7.0]]);
        assert_eq!(engine.rejected(), 5);
        assert_eq!(engine.points_ingested(), 105);
        assert_eq!(engine.publish().stats.batches, 6);
    }

    #[test]
    fn bad_arrivals_are_dropped_and_counted_under_l2_and_linf() {
        bad_arrivals_are_dropped_and_counted(L2);
        bad_arrivals_are_dropped_and_counted(kcz_metric::Linf);
    }

    #[test]
    fn weight_totals_saturate() {
        let engine = Engine::new(L2, EngineConfig::new(2, 1, 0, 0.5));
        let heavy = |x: f64| Weighted::new([x, x], u64::MAX);
        engine.ingest_weighted(&[heavy(1.0), heavy(9.0)]);
        assert_eq!(engine.points_ingested(), u64::MAX);
        engine.ingest_weighted(&[heavy(1.0)]);
        assert_eq!(engine.points_ingested(), u64::MAX);
        let snap = engine.publish();
        assert_eq!(snap.stats.points, u64::MAX);
        // One center must cover both sites: the solve's weight sums
        // stay exact past u64::MAX.
        assert_eq!(snap.uncovered, 0);
        assert!(snap.radius > 0.0, "radius {}", snap.radius);
    }

    #[test]
    fn publish_survives_weights_summing_past_u64_max() {
        let engine = Engine::new(L2, EngineConfig::new(2, 2, 0, 0.5));
        let at = |x: f64, w: u64| Weighted::new([x, 0.0], w);
        engine.ingest_weighted(&[at(0.0, 1 << 63), at(100.0, 1 << 63), at(200.0, 5)]);
        for _ in 0..2 {
            let snap = engine.publish();
            assert_eq!(snap.uncovered, 0);
            assert!(snap.radius > 0.0, "radius {}", snap.radius);
            assert!(snap.radius <= 3.0 * snap.guess);
        }
        // More ingest re-solves on the same heavy summary.
        engine.ingest_weighted(&[at(1.0, 1)]);
        let snap = engine.publish();
        assert_eq!(snap.uncovered, 0);
        assert!(snap.radius > 0.0, "radius {}", snap.radius);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Engine::<[f64; 2], _>::new(L2, EngineConfig::new(0, 2, 3, 0.5));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        // A timer-driven caller that sometimes flushes empty must not
        // inflate the "batches accepted" count.
        let engine = Engine::<[f64; 2], _>::new(L2, EngineConfig::new(3, 2, 3, 0.5));
        engine.ingest(&[]);
        engine.ingest_weighted(&[]);
        let snap = engine.snapshot();
        assert_eq!(snap.stats.batches, 0);
        assert_eq!(snap.stats.points, 0);
        engine.ingest(&[[1.0, 2.0]]);
        assert_eq!(engine.snapshot().stats.batches, 1);
    }
}
