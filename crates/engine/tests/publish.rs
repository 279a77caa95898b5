//! The publish contract, pinned two ways:
//!
//! 1. **History independence** (the dirty-tracking property test): under
//!    seeded random schedules of ingest batches, publishes, and idle
//!    republishes, every published snapshot is bit-identical to what a
//!    from-scratch engine fed the same prefix publishes — the clean-leaf
//!    cache and the warm-started solve never leak publish history into
//!    the answer.
//!    The same holds when the shard representatives or the merged points
//!    stay put and publishes reuse the kept merge partition and the kept
//!    solve state.
//! 2. **Failure atomicity**: a publish that panics mid-merge or mid-solve
//!    burns no epoch number and poisons nothing a later publish needs —
//!    the next publish rebuilds every leaf, the merge partition and the
//!    solve state and succeeds.  An ingest that panics mid-insert lands
//!    none of its arrivals, and the next ingest and publish take the
//!    poisoned shard lock back.
//!
//! A third test pins the cost of the warm-started solve: on the grid
//! and serve shapes, no publish spends more probes than a cold
//! bisection of its merged coreset.

use kcz_engine::{Engine, EngineConfig, Snapshot};
use kcz_kcenter::greedy;
use kcz_metric::{MetricSpace, L2};
use kcz_obs::{MetricsHandle, Registry};
use kcz_workloads::{query_trace, HashPartitioner};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Seeded xorshift stream: two clusters plus sparse far outliers.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn point(&mut self) -> [f64; 2] {
        let r = self.next_u64();
        let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
        match r % 50 {
            49 => [4000.0 + unit * 500.0, -2500.0],
            n if n % 2 == 0 => [unit * 4.0, unit * 3.0],
            _ => [120.0 + unit * 4.0, 120.0 + unit * 4.0],
        }
    }

    fn batch(&mut self, max_len: usize) -> Vec<[f64; 2]> {
        let len = 1 + (self.next_u64() as usize) % max_len;
        (0..len).map(|_| self.point()).collect()
    }
}

/// Everything the bit-identity contract covers: solved answer, certified
/// bounds, the merged coreset itself, and its space accounting.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    centers: Vec<[u64; 2]>,
    radius: u64,
    radius_bound: u64,
    uncovered: u64,
    effective_eps: u64,
    coreset: Vec<(u64, u64, u64)>,
    summary_words: usize,
    solve_probes: usize,
}

fn fingerprint(snap: &Snapshot<[f64; 2]>) -> Fingerprint {
    Fingerprint {
        centers: snap
            .centers
            .iter()
            .map(|c| [c[0].to_bits(), c[1].to_bits()])
            .collect(),
        radius: snap.radius.to_bits(),
        radius_bound: snap.radius_bound.to_bits(),
        uncovered: snap.uncovered,
        effective_eps: snap.effective_eps.to_bits(),
        coreset: snap
            .coreset
            .iter()
            .map(|w| (w.point[0].to_bits(), w.point[1].to_bits(), w.weight))
            .collect(),
        summary_words: snap.stats.summary_words,
        solve_probes: snap.stats.solve_probes,
    }
}

/// A from-scratch engine fed `prefix`, publishing once.
fn scratch_fingerprint(cfg: EngineConfig, prefix: &[Vec<[f64; 2]>]) -> Fingerprint {
    let scratch = Engine::new(L2, cfg);
    for b in prefix {
        scratch.ingest(b);
    }
    fingerprint(&scratch.snapshot())
}

#[test]
fn random_schedules_are_bit_identical_to_from_scratch_publishes() {
    for (seed, shards) in [
        (0xA11CE_u64, 1usize),
        (0xB0B_u64, 3),
        (0xC0FFEE_u64, 4),
        (0xD00D_u64, 8),
        (0x5EED_u64, 8),
    ] {
        let cfg = EngineConfig::new(shards, 2, 8, 0.5);
        let engine = Engine::new(L2, cfg);
        let mut gen = Gen(seed);
        let mut prefix: Vec<Vec<[f64; 2]>> = Vec::new();
        let mut publishes = 0u64;
        let mut epochs = 0u64;
        let mut dirty = false;
        for _ in 0..40 {
            let op = gen.next_u64() % 4;
            if op != 0 {
                let batch = gen.batch(48);
                engine.ingest(&batch);
                prefix.push(batch);
                dirty = true;
                if op == 1 {
                    continue;
                }
                publishes += 1;
            }
            // Republish with no intervening ingest comes back cached
            // (same epoch); with unpublished ingests it is a real
            // publish and burns an epoch.  The first publish ever always
            // solves (nothing is cached yet), even on an empty engine.
            if dirty || epochs == 0 {
                epochs += 1;
                dirty = false;
            }
            let snap = engine.publish();
            if prefix.is_empty() {
                continue;
            }
            assert_eq!(snap.epoch, epochs, "seed {seed:#x}");
            // The oracle: a brand-new engine fed the same prefix,
            // publishing exactly once — no cached leaves, no solver
            // state, no publish history at all.
            assert_eq!(
                fingerprint(&snap),
                scratch_fingerprint(cfg, &prefix),
                "seed {seed:#x} shards {shards} epoch {epochs}: publish diverged \
                 from a from-scratch engine"
            );
        }
        assert!(publishes >= 10, "schedule exercised too few publishes");
    }
}

#[test]
fn repeated_sites_reuse_the_solve_state_and_publish_from_scratch_bits() {
    // The grid workloads' shape: a few dozen sites, every arrival an
    // exact repeat of one, so once each site has arrived the merged
    // points stay put and only their weights grow.
    let mut gen = Gen(0x517E5);
    let sites: Vec<[f64; 2]> = (0..36)
        .map(|i| {
            let [x, y] = gen.point();
            [x + (i % 6) as f64 * 40.0, y + (i / 6) as f64 * 40.0]
        })
        .collect();
    for shards in [1usize, 4] {
        let cfg = EngineConfig::new(shards, 3, 6, 0.5);
        let registry = Registry::new();
        let engine = Engine::new(L2, cfg).with_metrics(&MetricsHandle::new(&registry));
        let mut prefix = vec![sites.clone()];
        engine.ingest(&sites);
        for publish in 0..12u64 {
            if publish > 0 {
                let batch: Vec<[f64; 2]> = (0..40)
                    .map(|_| sites[gen.next_u64() as usize % sites.len()])
                    .collect();
                engine.ingest(&batch);
                prefix.push(batch);
            }
            let snap = engine.publish();
            assert_eq!(
                fingerprint(&snap),
                scratch_fingerprint(cfg, &prefix),
                "shards {shards} publish {publish}: diverged from a from-scratch engine"
            );
            assert_eq!(
                registry.counter_value("engine.solve.cache_reuses"),
                Some(publish),
                "shards {shards}: every publish after the first reuses"
            );
            // A lone shard's leaf is adopted and never partitioned; over
            // four shards every publish after the first re-sums the kept
            // partition.
            assert_eq!(
                registry.counter_value("engine.merge.reuses"),
                Some(if shards == 1 { 0 } else { publish }),
                "shards {shards}: merge reuses"
            );
        }
        assert_eq!(engine.solves(), 12);
        assert_eq!(engine.merges(), if shards == 1 { 0 } else { 12 });
    }
}

#[test]
fn serve_schedule_reuses_the_merge_partition_only_when_the_writes_repeat() {
    // The serve workload's shape at a small size: a preload, then
    // distinct noisy writes over 8 shards, a publish per 1024-point
    // flush, and the same write list sent twice.  The first pass adds
    // shard representatives at every flush; in the second every write
    // repeats one, so only weights move.
    let mut gen = Gen(0x5E7E);
    let preload: Vec<[f64; 2]> = (0..625)
        .map(|i| [(i % 25) as f64 * 100.0, (i / 25) as f64 * 100.0])
        .collect();
    let sites = [
        [300.0, 300.0],
        [1800.0, 600.0],
        [900.0, 2100.0],
        [2200.0, 2200.0],
    ];
    let writes: Vec<[f64; 2]> = (0..3 * 1024)
        .map(|i| {
            let r = gen.next_u64();
            let (dx, dy) = ((r >> 40) as f64 / 2e5, (r & 0xFF_FFFF) as f64 / 2e5);
            let [x, y] = sites[i % sites.len()];
            [x + dx - 42.0, y + dy - 42.0]
        })
        .collect();
    let cfg = EngineConfig::new(8, 4, 16, 1.0);
    let registry = Registry::new();
    let engine = Engine::new(L2, cfg).with_metrics(&MetricsHandle::new(&registry));
    engine.ingest(&preload);
    engine.publish();
    let mut prefix = vec![preload];
    let reuses = || registry.counter_value("engine.merge.reuses");
    for pass in 0..2u64 {
        for (flush, batch) in writes.chunks(1024).enumerate() {
            engine.ingest(batch);
            prefix.push(batch.to_vec());
            let snap = engine.publish();
            assert_eq!(
                fingerprint(&snap),
                scratch_fingerprint(cfg, &prefix),
                "pass {pass} flush {flush}: diverged from a from-scratch engine"
            );
            let expected = if pass == 0 { 0 } else { flush as u64 + 1 };
            assert_eq!(reuses(), Some(expected), "pass {pass} flush {flush}");
        }
    }
    assert_eq!(engine.merges(), 7, "every publish recompressed");
}

/// Publishes after the preload and after each `batch` points of
/// `stream`, and checks that every publish spends at most the probes of
/// a cold [`greedy`] on its snapshot's coreset.
fn assert_warm_probes_within_cold(
    what: &str,
    cfg: EngineConfig,
    preload: &[[f64; 2]],
    stream: &[[f64; 2]],
    batch: usize,
) {
    let engine = Engine::new(L2, cfg);
    for (publish, points) in std::iter::once(preload)
        .chain(stream.chunks(batch))
        .enumerate()
    {
        engine.ingest(points);
        let snap = engine.publish();
        let cold = greedy(&L2, &snap.coreset, cfg.k, cfg.z);
        assert!(
            snap.stats.solve_probes <= cold.probes,
            "{what} publish {publish}: the warm solve spent {} probes, a cold one {} on {} points",
            snap.stats.solve_probes,
            cold.probes,
            snap.coreset.len()
        );
    }
}

#[test]
fn warm_solves_spend_no_more_probes_than_a_cold_bisection() {
    // The grid workloads' shape: 1500 sites 10⁴ apart, every arrival an
    // exact repeat of one, in 4096-point batches.
    let mut gen = Gen(0x6121D);
    let sites: Vec<[f64; 2]> = (0..1500)
        .map(|i| [(i % 50) as f64 * 1e4, (i / 50) as f64 * 1e4])
        .collect();
    let grid: Vec<[f64; 2]> = (0..4 * 4096)
        .map(|_| sites[gen.next_u64() as usize % sites.len()])
        .collect();
    let cfg = EngineConfig::new(8, 8, 32, 1.0);
    assert_warm_probes_within_cold("grid", cfg, &sites, &grid, 4096);
    // The serve workload's shape: distinct noisy points (σ = 40) around
    // 8 cluster cores 5000 apart, then 1024-point flushes of writes.
    let cores: Vec<[f64; 2]> = (0..8)
        .map(|i| [(i % 4) as f64 * 5e3, (i / 4) as f64 * 5e3])
        .collect();
    let preload = query_trace(20_000, &cores, 0.0, 40.0, 0.0, 3);
    let writes = query_trace(4 * 1024, &cores, 0.0, 40.0, 0.0, 4);
    let cfg = EngineConfig::new(8, 8, 64, 1.0);
    assert_warm_probes_within_cold("serve", cfg, &preload, &writes, 1024);
}

/// An L2 wrapper that can be armed to panic on the next distance
/// evaluation — inside a publish's merge or solve, or inside an
/// ingest's insert — then disarmed to let the retry succeed.
#[derive(Clone)]
struct FlakyL2 {
    armed: Arc<AtomicBool>,
}

impl MetricSpace<[f64; 2]> for FlakyL2 {
    fn dist(&self, a: &[f64; 2], b: &[f64; 2]) -> f64 {
        assert!(
            !self.armed.load(Ordering::Relaxed),
            "injected metric failure"
        );
        L2.dist(a, b)
    }

    fn doubling_dim(&self) -> usize {
        <L2 as MetricSpace<[f64; 2]>>::doubling_dim(&L2)
    }
}

#[test]
fn panicking_publish_burns_no_epoch_and_recovers() {
    let armed = Arc::new(AtomicBool::new(false));
    let metric = FlakyL2 {
        armed: Arc::clone(&armed),
    };
    let cfg = EngineConfig::new(4, 2, 6, 0.5);
    let registry = Registry::new();
    let engine = Engine::new(metric.clone(), cfg).with_metrics(&MetricsHandle::new(&registry));
    let merge_reuses = || registry.counter_value("engine.merge.reuses");
    let mut gen = Gen(0xBAD5EED);
    let first: Vec<[f64; 2]> = (0..200).map(|_| gen.point()).collect();
    engine.ingest(&first);

    // Arm *after* ingest: shard locks are healthy, and the publish dies
    // inside its merge or solve.
    armed.store(true, Ordering::Relaxed);
    let died = catch_unwind(AssertUnwindSafe(|| engine.publish()));
    assert!(died.is_err(), "armed publish must propagate the panic");
    assert_eq!(engine.epoch(), 0, "failed publish must not burn an epoch");
    assert!(engine.latest().is_none(), "nothing was published");

    // Disarm: the next publish must recover the poisoned publish locks,
    // rebuild every leaf, and succeed with the first epoch number.
    armed.store(false, Ordering::Relaxed);
    let snap = engine.publish();
    assert_eq!(snap.epoch, 1, "recovered publish takes epoch 1");
    assert_eq!(engine.epoch(), 1);
    let again = engine.publish();
    assert_eq!(again.epoch, 1, "cached republish after recovery");
    assert!(engine.latest().is_some());
    // The dead merge kept nothing, so the recovered one partitioned, and
    // its record serves the next publish of repeats.
    assert_eq!(merge_reuses(), Some(0));
    let repeats = first[..50].to_vec();
    engine.ingest(&repeats);
    let snap = engine.publish();
    assert_eq!(merge_reuses(), Some(1));
    assert_eq!(
        fingerprint(&snap),
        scratch_fingerprint(cfg, &[first.clone(), repeats.clone()])
    );

    // A publish that dies inside a solve reading the kept state.  The
    // repeats leave every shard's points as they are, so the merge
    // re-sums the kept partition with no distance, the solve starts from
    // its kept state, and the publish dies in the solve's first pick.
    let solve_reuses = || registry.counter_value("engine.solve.cache_reuses");
    let before = (merge_reuses(), solve_reuses());
    engine.ingest(&repeats);
    armed.store(true, Ordering::Relaxed);
    let died = catch_unwind(AssertUnwindSafe(|| engine.publish()));
    armed.store(false, Ordering::Relaxed);
    assert!(died.is_err(), "armed publish must propagate the panic");
    assert_eq!(engine.epoch(), 2, "failed publish must not burn an epoch");
    let reuses = (merge_reuses(), solve_reuses());
    assert_eq!(
        reuses,
        (before.0.map(|n| n + 1), before.1.map(|n| n + 1)),
        "the armed publish started from both kept records"
    );
    // The panic left no record: the recovered publish partitions and
    // solves afresh and equals a from-scratch engine's.
    let snap = engine.publish();
    assert_eq!(snap.epoch, 3);
    assert_eq!((merge_reuses(), solve_reuses()), reuses);
    assert_eq!(
        fingerprint(&snap),
        scratch_fingerprint(cfg, &[first, repeats.clone(), repeats])
    );
}

#[test]
fn panicking_ingest_lands_nothing_and_recovers() {
    let armed = Arc::new(AtomicBool::new(false));
    let metric = FlakyL2 {
        armed: Arc::clone(&armed),
    };
    let cfg = EngineConfig::new(4, 2, 6, 0.5);
    let engine = Engine::new(metric, cfg);
    // Every arrival that returns routes to shard 0, so the published ε′
    // stays ε unless a dead insert left weight counted on another shard.
    let router = HashPartitioner::new(cfg.shards, cfg.seed);
    let mut gen = Gen(0xF1A5C0);
    let mut routed_to = |shard: usize, n: usize| -> Vec<[f64; 2]> {
        std::iter::repeat_with(|| gen.point())
            .filter(|p| router.shard_of(p) == shard)
            .take(n)
            .collect()
    };
    let first = routed_to(0, 150);
    let stray = routed_to(1, 1);
    let second = routed_to(0, 50);
    engine.ingest(&first);

    // The stray's insert dies at its first distance, holding shard 1's
    // lock.
    armed.store(true, Ordering::Relaxed);
    let died = catch_unwind(AssertUnwindSafe(|| engine.ingest(&stray)));
    armed.store(false, Ordering::Relaxed);
    assert!(died.is_err(), "armed ingest must propagate the panic");
    assert_eq!(
        engine.shard_sizes()[1..],
        [0, 0, 0],
        "the dead insert placed nothing"
    );

    // The next ingest and publish take the poisoned lock back, and the
    // publish equals a from-scratch engine fed the batches that returned.
    engine.ingest(&second);
    let snap = engine.publish();
    assert_eq!(snap.epoch, 1);
    assert_eq!(snap.effective_eps, cfg.eps, "only shard 0 holds data");
    assert_eq!(
        fingerprint(&snap),
        scratch_fingerprint(cfg, &[first, second])
    );
}
