//! Property test for the delta-aware solve cache: under a random mix
//! of small ingests, bursts, publishes, idle publishes and
//! window-advancing churn, the delta solver's published fingerprint
//! (radius / guess / centers / uncovered / coreset) is bit-identical to
//!
//! * a **persistent cold-solver engine** walking the exact same ingest
//!   and publish schedule (isolates the solver: same merged summaries,
//!   different solve path), and
//! * a **fresh scratch replay** — a new engine fed the same prefix,
//!   publishing once (no cached leaves, no solve state, no history at
//!   all).
//!
//! The cache must also *do* something: across the seeds, at least one
//! steady-state epoch (a forced tiny-delta republish after the random
//! ops) has to answer probes from the verdict cache rather than
//! re-running disk-greedy.

use kcz_engine::{Backend, Engine, EngineConfig, SolverMode};
use kcz_metric::L2;

const SEEDS: u64 = 5;
const OPS: usize = 40;

/// Splitmix-style xorshift; deterministic per seed, no `rand` dep.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(0x9E37_79B9_7F4A_7C15 ^ seed.wrapping_mul(0xD134_2543_DE82_EF95))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A fixed lattice of sites; ingesting exact site points produces pure
/// weight bumps in the merged summary — the cheapest delta the solver
/// certifies — while jittered points open fresh mini-balls.
fn site(i: u64) -> [f64; 2] {
    let i = i % 24;
    [(i % 6) as f64 * 50.0, (i / 6) as f64 * 50.0]
}

/// The published fingerprint two solves must agree on, at the bit level.
fn fingerprint(snap: &kcz_engine::Snapshot<[f64; 2]>) -> (u64, u64, u64, Vec<u64>, Vec<u64>) {
    (
        snap.radius.to_bits(),
        snap.guess.to_bits(),
        snap.uncovered,
        snap.centers
            .iter()
            .flat_map(|c| c.iter().map(|x| x.to_bits()))
            .collect(),
        snap.coreset
            .iter()
            .flat_map(|w| {
                w.point
                    .iter()
                    .map(|x| x.to_bits())
                    .chain(std::iter::once(w.weight))
            })
            .collect(),
    )
}

fn assert_same(
    what: &str,
    seed: u64,
    op: usize,
    a: &kcz_engine::Snapshot<[f64; 2]>,
    b: &kcz_engine::Snapshot<[f64; 2]>,
) {
    assert_eq!(
        fingerprint(a),
        fingerprint(b),
        "seed {seed} op {op}: delta solve diverged from {what} \
         (radius {} vs {}, guess {} vs {}, uncovered {} vs {})",
        a.radius,
        b.radius,
        a.guess,
        b.guess,
        a.uncovered,
        b.uncovered
    );
}

#[test]
fn delta_solver_is_bit_identical_under_random_ops() {
    let mut total_reused = 0usize;
    for seed in 0..SEEDS {
        let mut rng = Rng::new(seed);
        // Seed parity alternates the backend so the op mix also drives
        // window expiry (`backend-advance`): every ingest moves the
        // arrival clock and retires old mass before the merge.
        let backend = if seed % 2 == 0 {
            Backend::Insertion
        } else {
            Backend::Window(600)
        };
        let cfg = EngineConfig::new(4, 3, 5, 0.5).with_backend(backend);
        let delta = Engine::new(L2, cfg.with_solver(SolverMode::Delta));
        let cold = Engine::new(L2, cfg.with_solver(SolverMode::Cold));
        let mut fed: Vec<[f64; 2]> = Vec::new();
        let mut published = false;

        let feed = |delta: &Engine<[f64; 2], L2>,
                    cold: &Engine<[f64; 2], L2>,
                    fed: &mut Vec<[f64; 2]>,
                    batch: &[[f64; 2]]| {
            delta.ingest(batch);
            cold.ingest(batch);
            fed.extend_from_slice(batch);
        };
        let check = |delta: &Engine<[f64; 2], L2>,
                     cold: &Engine<[f64; 2], L2>,
                     fed: &[[f64; 2]],
                     op: usize|
         -> usize {
            let ds = delta.publish();
            let cs = cold.publish();
            assert_eq!(ds.epoch, cs.epoch, "seed {seed} op {op}: epoch skew");
            assert_same("persistent cold engine", seed, op, &ds, &cs);
            // Verdict reuse may only answer probes, never change which
            // probes the search makes.
            assert_eq!(
                ds.stats.solve_probes + ds.stats.reused_verdicts,
                cs.stats.solve_probes,
                "seed {seed} op {op}: probe accounting broke"
            );
            // Scratch replay: no caches of any kind, fed the same
            // prefix, solved cold exactly once.
            let scratch = Engine::new(L2, cfg.with_solver(SolverMode::Cold));
            scratch.ingest(fed);
            let ss = scratch.snapshot();
            assert_same("fresh scratch replay", seed, op, &ds, &ss);
            ds.stats.reused_verdicts
        };

        for op in 0..OPS {
            match rng.next() % 8 {
                // Small ingest: 1–4 points, mostly exact site
                // duplicates (weight bumps), sometimes jittered
                // (fresh representatives).
                0..=2 => {
                    let n = (rng.next() % 4 + 1) as usize;
                    let batch: Vec<[f64; 2]> = (0..n)
                        .map(|_| {
                            let s = site(rng.next());
                            if rng.next().is_multiple_of(4) {
                                [s[0] + (rng.next() % 7) as f64 * 0.3, s[1]]
                            } else {
                                s
                            }
                        })
                        .collect();
                    feed(&delta, &cold, &mut fed, &batch);
                }
                // Burst ingest: 32 points across all sites.
                3 => {
                    let batch: Vec<[f64; 2]> = (0..32).map(|j| site(rng.next() + j)).collect();
                    feed(&delta, &cold, &mut fed, &batch);
                }
                // Publish (first data-bearing one flips `published`).
                4 | 5 => {
                    if fed.is_empty() {
                        continue;
                    }
                    total_reused += check(&delta, &cold, &fed, op);
                    published = true;
                }
                // Idle publish: no new data.  Elided epochs must leave
                // the solve state untouched and re-serve the producing
                // solve's bits.
                6 => {
                    if !published {
                        continue;
                    }
                    total_reused += check(&delta, &cold, &fed, op);
                }
                // Bump: re-ingest one already-fed point, then publish —
                // the steady-state republish the delta solver exists
                // for.
                _ => {
                    if fed.is_empty() {
                        continue;
                    }
                    let p = fed[(rng.next() % fed.len() as u64) as usize];
                    feed(&delta, &cold, &mut fed, &[p]);
                    total_reused += check(&delta, &cold, &fed, op);
                    published = true;
                }
            }
        }
        // Deterministic steady-state tail: publish whatever is pending,
        // then a single-duplicate republish.
        if !fed.is_empty() {
            total_reused += check(&delta, &cold, &fed, OPS);
            let p = fed[0];
            feed(&delta, &cold, &mut fed, &[p]);
            total_reused += check(&delta, &cold, &fed, OPS + 1);
        }
    }
    assert!(
        total_reused > 0,
        "no steady-state epoch reused any cached verdict across {SEEDS} seeds"
    );
}
