//! The churn-capable engine's publish contract, pinned two ways:
//!
//! 1. **Time-driven dirtiness** (the staleness regression): a shard no
//!    batch touched since the last publish must still be re-merged when
//!    expiry mutated it — the bug class the shard state versions exist
//!    to close.
//! 2. **Suffix purity** (the windowed property test): every published
//!    verdict of a windowed engine is bit-identical to a from-scratch
//!    engine replaying only the unexpired suffix of the arrival stream,
//!    across seeded schedules — the window analogue of
//!    `tests/publish.rs`' history independence.

use kcz_engine::{Engine, EngineConfig, Snapshot};
use kcz_metric::{total_weight, L2};
use kcz_workloads::HashPartitioner;
use std::sync::Arc;

/// Seeded xorshift stream: two clusters plus sparse far outliers (the
/// same family `tests/publish.rs` uses).
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
    bound_factor: u64,
    coreset: Vec<(u64, u64, u64)>,
    summary_words: usize,
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
        bound_factor: snap.bound_factor.to_bits(),
        coreset: snap
            .coreset
            .iter()
            .map(|w| (w.point[0].to_bits(), w.point[1].to_bits(), w.weight))
            .collect(),
        summary_words: snap.stats.summary_words,
    }
}

/// The satellite regression for the staleness bug: shard 0 receives one
/// point, then every subsequent arrival routes to shard 1 until the
/// window slides past shard 0's point.  Shard 0 saw no batch between the
/// two publishes — under the old "dirty iff a batch landed" rule its
/// cached leaf (still holding the expired point) would be reused, and
/// the second publish would serve a stale center.
#[test]
fn expiry_without_new_batches_redirties_the_shard_and_republishes() {
    let window = 8u64;
    let cfg = EngineConfig::new(2, 1, 0, 0.5).windowed(window);
    let engine = Engine::new(L2, cfg);
    // Route with the engine's own partitioner to pin one point per shard.
    let router = HashPartitioner::new(cfg.shards, cfg.seed);
    let pa = (0..64)
        .map(|i| [i as f64, 0.0])
        .find(|p| router.shard_of(p) == 0)
        .expect("some small point routes to shard 0");
    let pb = (0..64)
        .map(|i| [500.0 + i as f64, 500.0])
        .find(|p| router.shard_of(p) == 1)
        .expect("some far point routes to shard 1");

    engine.ingest(&[pa]);
    let first = engine.publish();
    assert_eq!(first.epoch, 1);
    assert_eq!(total_weight(&first.coreset), 1);
    assert_eq!(first.centers, vec![pa]);
    // Idle republish: time is arrival-driven, so an unchanged version
    // still means an unchanged window — the cached Arc comes back.
    assert!(Arc::ptr_eq(&engine.publish(), &first));

    // `window` arrivals, all on shard 1: shard 0 never sees a batch, but
    // its point's stamp (1) leaves the window at clock 1 + window.
    for _ in 0..window {
        engine.ingest(&[pb]);
    }
    let second = engine.publish();
    assert_eq!(second.epoch, 2);
    assert_eq!(second.clock, 1 + window);
    assert_eq!(second.window_span(), Some((2, 1 + window)));
    // The expired point is gone from the published epoch entirely: all
    // mass (and the solved center) sits at the live location.
    assert!(
        second.coreset.iter().all(|c| c.point == pb),
        "expired shard-0 point leaked into the published coreset: {:?}",
        second.coreset
    );
    // The mini-ball pass keeps only the newest z+1 points per ball, so
    // window-mode epochs do not conserve weight — but the live location
    // must be represented and solved.
    assert!(total_weight(&second.coreset) >= 1);
    assert_eq!(second.centers, vec![pb]);
}

/// Property test (6 seeds): a windowed engine's published
/// verdict is bit-identical to a brand-new engine replaying *only the
/// unexpired suffix* of the arrival stream — no cache, no warm state,
/// and no expired point ever seen.
#[test]
fn windowed_publishes_are_bit_identical_to_unexpired_suffix_replay() {
    for (seed, shards, window) in [
        (0xA11CE_u64, 1usize, 64u64),
        (0xB0B_u64, 3, 97),
        (0xC0FFEE_u64, 4, 160),
        (0xD00D_u64, 8, 33),
        (0x5EED_u64, 8, 256),
        // A window that never expires: the expiry test must saturate.
        (0xFEED_u64, 8, u64::MAX),
    ] {
        let cfg = EngineConfig::new(shards, 2, 8, 0.5).windowed(window);
        let engine = Engine::new(L2, cfg);
        let mut gen = Gen(seed);
        let mut arrivals: Vec<[f64; 2]> = Vec::new();
        let mut publishes = 0u32;
        for step in 0..30 {
            let batch = gen.batch(48);
            engine.ingest(&batch);
            arrivals.extend_from_slice(&batch);
            if step % 3 != 2 {
                continue;
            }
            publishes += 1;
            let snap = engine.publish();
            assert_eq!(snap.clock, arrivals.len() as u64, "seed {seed:#x}");
            // The oracle: from-scratch suffix replay.  Only the last
            // min(clock, W) arrivals exist from its point of view; the
            // window machinery is shift-invariant, so its very first
            // publish must match bit for bit.
            let live = arrivals.len().min(window as usize);
            let suffix = &arrivals[arrivals.len() - live..];
            let scratch = Engine::new(L2, cfg);
            scratch.ingest(suffix);
            assert_eq!(
                fingerprint(&snap),
                fingerprint(&scratch.snapshot()),
                "seed {seed:#x} shards {shards} step {step}: windowed \
                 publish diverged from a from-scratch suffix replay"
            );
            let span = snap.window_span().expect("window mode has a span");
            assert_eq!(span, (snap.clock - live as u64 + 1, snap.clock));
        }
        assert!(publishes >= 10, "schedule exercised too few publishes");
    }
}
