//! The `Pipeline` trait: one `run(scenario) → Verdict` surface over every
//! solver in the suite, each annotated with the paper guarantee it
//! asserts.
//!
//! Every adapter reports its radius **the same way**: the returned center
//! set is re-measured on the *full original* point multiset with outlier
//! budget `z` ([`kcz_kcenter::cost_with_outliers`]), so verdicts are
//! directly comparable across models regardless of what summary the
//! pipeline solved on.  Alongside the radius each adapter emits the
//! [`RadiusBound`] it certifies (`radius ≤ factor·opt + additive` against
//! the discrete optimum of [`kcz_kcenter::exact_discrete`]); the bounds
//! are per-run because some (the dynamic pipeline's grid term, the
//! sliding window's `ρ_min` floor) depend on what the run observed.
//!
//! Which paper guarantee each adapter asserts:
//!
//! | pipeline | guarantee | bound |
//! |----------|-----------|-------|
//! | `offline/charikar` | Charikar et al. 3-approx (Lemma 8's substrate) | `3·opt` |
//! | `offline/gonzalez` | Gonzalez 2-approx — only for `z = 0` | `2·opt`, `z=0` only |
//! | `stream/insertion` | Theorem 18 (ε,k,z)-coreset, Lemma 16 drift `ε·opt` | `(3+8ε)·opt` |
//! | `stream/sliding`   | de Berg–Monemizadeh–Zhong window coreset (§6 bound) | `(3+8ε)·opt + ε·ρ_min` |
//! | `stream/dynamic`   | Theorem 21 relaxed coreset (cell-center reps) | `3·opt + 5·2^level` |
//! | `mpc/two-round`    | Theorem 10 (`3ε`-coreset, budgets ≤ 2z) | `(3+8ε')·opt`, `ε' = 2ε+ε²` |
//! | `mpc/one-round`    | Theorem 33 (random distribution w.h.p.) | `(3+8ε')·opt` |
//! | `mpc/r-round`      | Theorem 35 (`(1+ε)^R−1` composition) | `(3+8ε')·opt`, `ε' = (1+ε)^R−1` |
//! | `mpc/baseline`     | Ceccarello et al. 1-round (`(k+z)/ε^d` space) | `(3+8ε')·opt` |
//! | `engine/sharded`   | Lemma 4 union of the shard coverings + one Lemma 5 recompression | `(3+8ε')·opt`, `ε' = 1.5ε` (`ε` with one non-empty shard) |
//!
//! The coreset factor `3 + 8ε'` is one shared derivation,
//! [`kcz_coreset::end_to_end_factor`] (see its docs for the
//! `(3 + 7ε')·opt` chain plus the one-ε' margin); every adapter feeds it
//! the ε' its summary *actually certifies* — the summary's own
//! `effective_eps` bookkeeping, not a per-pipeline formula re-derived
//! here.

use kcz_coreset::end_to_end_factor;
use kcz_engine::{Engine, EngineConfig};
use kcz_kcenter::charikar::GreedyParams;
use kcz_kcenter::{cost_with_outliers, farthest_first, greedy, uncovered_weight};
use kcz_metric::{stats, total_weight, SpaceUsage, Weighted, L2};
use kcz_mpc::{ceccarello_one_round, one_round_randomized, r_round, two_round, MpcCoreset};
use kcz_streaming::{DynamicKCenter, InsertionOnlyCoreset, SlidingWindowCoreset};
use kcz_workloads::round_robin;

use crate::scenario::Scenario;

/// Which computational model a pipeline lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Sequential, whole input in memory.
    Offline,
    /// One-pass (insertion-only / sliding-window / fully dynamic).
    Streaming,
    /// Massively parallel (simulated rounds).
    Mpc,
    /// Resident sharded ingest engine (concurrent batched streams).
    Engine,
}

impl Model {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Model::Offline => "offline",
            Model::Streaming => "streaming",
            Model::Mpc => "mpc",
            Model::Engine => "engine",
        }
    }
}

/// A certified upper bound `radius ≤ factor·opt + additive`, where `opt`
/// is the discrete optimum over the scenario's distinct points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiusBound {
    /// Multiplicative factor against the discrete optimum.
    pub factor: f64,
    /// Additive slack (grid quantization, ρ floors, float tolerance).
    pub additive: f64,
}

/// What one pipeline reports for one scenario.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Name of the pipeline that produced this verdict.
    pub pipeline: &'static str,
    /// Radius of the returned centers measured on the full input with
    /// outlier budget `z` (infinite when the pipeline failed to produce a
    /// feasible solution).
    pub radius: f64,
    /// Weight left uncovered at `radius` (the excluded outliers; ≤ `z`
    /// for a conforming pipeline).
    pub uncovered: u64,
    /// Number of centers returned (≤ `k`).
    pub centers: usize,
    /// Size of the summary the final solve ran on (`n` for offline).
    pub coreset_size: usize,
    /// Peak storage of the summary structure in machine words
    /// (0 = not tracked; offline pipelines hold the raw input).
    pub space_words: usize,
    /// Communication rounds (MPC pipelines; 0 otherwise).
    pub rounds: usize,
    /// The paper ratio bound this run certifies, when one applies.
    pub bound: Option<RadiusBound>,
}

/// One solver adapted to the conformance surface.
pub trait Pipeline: Send + Sync {
    /// Stable identifier, `model/algorithm`.
    fn name(&self) -> &'static str;
    /// The computational model the pipeline lives in.
    fn model(&self) -> Model;
    /// Runs the pipeline on a scenario and reports a [`Verdict`].
    fn run(&self, sc: &Scenario) -> Verdict;
}

/// Every pipeline in the suite, in report order.
pub fn all_pipelines() -> Vec<Box<dyn Pipeline>> {
    vec![
        Box::new(OfflineCharikar),
        Box::new(OfflineGonzalez),
        Box::new(InsertionPipeline),
        Box::new(SlidingPipeline),
        Box::new(DynamicPipeline),
        Box::new(MpcPipeline::TwoRound),
        Box::new(MpcPipeline::OneRound),
        Box::new(MpcPipeline::RRound),
        Box::new(MpcPipeline::Baseline),
        Box::new(EnginePipeline),
    ]
}

/// Float tolerance folded into every additive bound term.
const TOL: f64 = 1e-6;

/// Measures a center set on the full scenario input: the smallest radius
/// leaving ≤ `z` weight uncovered, plus the weight actually excluded.
///
/// An empty center set is feasible only when the whole weight fits the
/// budget; otherwise the verdict is `(∞, total)` — surfaced as a
/// violation rather than a panic, since a non-conforming pipeline is
/// exactly what the harness exists to catch.
fn measure(points: &[Weighted<[f64; 2]>], centers: &[[f64; 2]], z: u64) -> (f64, u64) {
    let total = total_weight(points);
    if total <= z {
        // Radius 0 is optimal; still report what the returned centers
        // leave uncovered at that radius (the whole weight only when the
        // pipeline returned no centers at all).
        let u = if centers.is_empty() {
            total
        } else {
            uncovered_weight(&L2, points, centers, 0.0)
        };
        return (0.0, u);
    }
    if centers.is_empty() {
        return (f64::INFINITY, total);
    }
    let r = cost_with_outliers(&L2, points, centers, z);
    let u = uncovered_weight(&L2, points, centers, r);
    (r, u)
}

fn verdict(
    name: &'static str,
    sc: &Scenario,
    centers: &[[f64; 2]],
    coreset_size: usize,
    space_words: usize,
    rounds: usize,
    bound: Option<RadiusBound>,
) -> Verdict {
    let (radius, uncovered) = measure(&sc.weighted(), centers, sc.z);
    Verdict {
        pipeline: name,
        radius,
        uncovered,
        centers: centers.len(),
        coreset_size,
        space_words,
        rounds,
        bound,
    }
}

/// The end-to-end coreset bound `3 + 8ε'`, with the factor supplied by
/// the one shared derivation in [`kcz_coreset::end_to_end_factor`] — the
/// same arithmetic the MPC coordinators and the resident engine report.
fn coreset_bound(effective_eps: f64, additive: f64) -> Option<RadiusBound> {
    Some(RadiusBound {
        factor: end_to_end_factor(effective_eps) + TOL,
        additive: additive + TOL,
    })
}

// ---------------------------------------------------------------- offline

/// Charikar–Khuller–Mount–Narasimhan greedy on the raw input: the
/// 3-approximation every coreset pipeline's bound is anchored to.
struct OfflineCharikar;

impl Pipeline for OfflineCharikar {
    fn name(&self) -> &'static str {
        "offline/charikar"
    }
    fn model(&self) -> Model {
        Model::Offline
    }
    fn run(&self, sc: &Scenario) -> Verdict {
        let pts = sc.weighted();
        let sol = greedy(&L2, &pts, sc.k, sc.z);
        verdict(
            self.name(),
            sc,
            &sol.centers,
            sc.len(),
            pts.words(),
            0,
            Some(RadiusBound {
                factor: 3.0 + TOL,
                additive: TOL,
            }),
        )
    }
}

/// Gonzalez farthest-first traversal with `k` centers.  A 2-approximation
/// for plain k-center only: with `z > 0` the traversal chases outliers
/// and certifies nothing, so the bound is attached only when `z = 0` —
/// running it against outlier scenarios anyway documents the failure mode
/// the paper's algorithms exist to avoid.
struct OfflineGonzalez;

impl Pipeline for OfflineGonzalez {
    fn name(&self) -> &'static str {
        "offline/gonzalez"
    }
    fn model(&self) -> Model {
        Model::Offline
    }
    fn run(&self, sc: &Scenario) -> Verdict {
        let pts = sc.weighted();
        let ff = farthest_first(&L2, &pts, sc.k, 0);
        let bound = (sc.z == 0).then_some(RadiusBound {
            factor: 2.0 + TOL,
            additive: TOL,
        });
        verdict(
            self.name(),
            sc,
            &ff.centers,
            sc.len(),
            pts.words(),
            0,
            bound,
        )
    }
}

// -------------------------------------------------------------- streaming

/// Algorithm 3 (insertion-only coreset, Theorem 18) + Charikar greedy on
/// the maintained coreset.  Drift ≤ `ε·r ≤ ε·opt` (Lemma 16).
struct InsertionPipeline;

impl Pipeline for InsertionPipeline {
    fn name(&self) -> &'static str {
        "stream/insertion"
    }
    fn model(&self) -> Model {
        Model::Streaming
    }
    fn run(&self, sc: &Scenario) -> Verdict {
        let mut alg = InsertionOnlyCoreset::new(L2, sc.k, sc.z, sc.eps);
        for p in &sc.points {
            alg.insert(*p);
        }
        let sol = greedy(&L2, alg.coreset(), sc.k, sc.z);
        // ε' from the summary's own bookkeeping (= ε for a pure stream).
        let bound = coreset_bound(alg.effective_eps(), 0.0);
        verdict(
            self.name(),
            sc,
            &sol.centers,
            alg.coreset().len(),
            alg.peak_words(),
            0,
            bound,
        )
    }
}

/// Sliding-window coreset queried with the window spanning the whole
/// stream, + Charikar greedy on the returned points.  The smallest
/// reliable guess satisfies `ρ ≤ 2·opt` (one doubling past the packing
/// bound), so drift `ε·ρ/2 ≤ ε·opt`; when `opt < ρ_min` the drift floor
/// `ε·ρ_min` moves into the additive term.
struct SlidingPipeline;

impl Pipeline for SlidingPipeline {
    fn name(&self) -> &'static str {
        "stream/sliding"
    }
    fn model(&self) -> Model {
        Model::Streaming
    }
    fn run(&self, sc: &Scenario) -> Verdict {
        if sc.is_empty() {
            return verdict(self.name(), sc, &[], 0, 0, 0, None);
        }
        let diam = stats::max_pairwise_distance(&L2, &sc.points).unwrap_or(0.0);
        let (rho_min, rho_max) = if diam > 0.0 {
            let min_pos = stats::min_pairwise_distance(&L2, &sc.points).unwrap_or(diam);
            ((min_pos / 2.0).max(diam / (1u64 << 24) as f64), diam)
        } else {
            (1.0, 1.0) // all points identical: any guess yields one cluster
        };
        let mut alg =
            SlidingWindowCoreset::new(L2, sc.k, sc.z, sc.eps, sc.len() as u64, rho_min, rho_max);
        for p in &sc.points {
            alg.insert(*p);
        }
        let (centers, size) = match alg.query() {
            Some(q) => (greedy(&L2, &q.coreset, sc.k, sc.z).centers, q.coreset.len()),
            None => (Vec::new(), 0),
        };
        verdict(
            self.name(),
            sc,
            &centers,
            size,
            alg.peak_words(),
            0,
            coreset_bound(sc.eps, sc.eps * rho_min),
        )
    }
}

/// Algorithm 5 (fully dynamic sketch over `[Δ]²`) + Charikar greedy on
/// the recovered relaxed coreset (Theorem 21).  Representatives are cell
/// centers of the recovered grid level, so the bound's additive term is
/// the grid quantization: at level ℓ every point is within
/// `δ = 2^ℓ·√2/2` of its representative, and the solve chain pays ≤ 7δ
/// (≤ `5·2^ℓ`).
struct DynamicPipeline;

impl Pipeline for DynamicPipeline {
    fn name(&self) -> &'static str {
        "stream/dynamic"
    }
    fn model(&self) -> Model {
        Model::Streaming
    }
    fn run(&self, sc: &Scenario) -> Verdict {
        let mut alg = DynamicKCenter::<2>::new(
            sc.side_bits,
            sc.k,
            sc.z,
            sc.eps,
            0.01,
            sc.seed ^ 0xD15C_0000,
        );
        let side = (1u64 << sc.side_bits) as f64;
        for p in &sc.points {
            debug_assert!(
                p[0] == p[0].round() && p[1] == p[1].round() && p[0] < side && p[1] < side,
                "dynamic pipeline requires integer coordinates in [0, 2^side_bits)"
            );
            alg.insert(&[p[0] as u64, p[1] as u64]);
        }
        match alg.solve() {
            Ok(sol) => verdict(
                self.name(),
                sc,
                &sol.centers,
                sol.coreset_size,
                alg.space_words(),
                0,
                Some(RadiusBound {
                    factor: 3.0 + TOL,
                    additive: 5.0 * (1u64 << sol.level) as f64 + TOL,
                }),
            ),
            // A failed sketch recovery (probability ≤ δ per query) is an
            // infeasible verdict, not a crash.
            Err(_) => verdict(self.name(), sc, &[], 0, alg.space_words(), 0, None),
        }
    }
}

// ------------------------------------------------------------------- MPC

/// The four MPC pipelines share one adapter body: partition the stream
/// round-robin over `machines`, run the algorithm, Charikar-solve the
/// coordinator's coreset.  Each variant's `effective_eps` (as reported by
/// the algorithm itself) parameterizes the bound.
enum MpcPipeline {
    /// Algorithm 2 (Theorem 10): deterministic, any distribution.
    TwoRound,
    /// Algorithm 6 (Theorem 33): randomized-distribution assumption —
    /// round-robin spreads the outliers evenly, satisfying it.
    OneRound,
    /// Algorithm 7 (Theorem 35): R-round tree reduction.
    RRound,
    /// Ceccarello–Pietracaprina–Pucci-style 1-round baseline.
    Baseline,
}

impl Pipeline for MpcPipeline {
    fn name(&self) -> &'static str {
        match self {
            MpcPipeline::TwoRound => "mpc/two-round",
            MpcPipeline::OneRound => "mpc/one-round",
            MpcPipeline::RRound => "mpc/r-round",
            MpcPipeline::Baseline => "mpc/baseline",
        }
    }
    fn model(&self) -> Model {
        Model::Mpc
    }
    fn run(&self, sc: &Scenario) -> Verdict {
        let parts = round_robin(&sc.points, sc.machines);
        let params = GreedyParams::default();
        let out: MpcCoreset<[f64; 2]> = match self {
            MpcPipeline::TwoRound => two_round(&L2, &parts, sc.k, sc.z, sc.eps, &params).output,
            MpcPipeline::OneRound => {
                one_round_randomized(&L2, &parts, sc.k, sc.z, sc.eps, &params).output
            }
            MpcPipeline::RRound => r_round(&L2, &parts, sc.k, sc.z, sc.eps, sc.rounds, &params),
            MpcPipeline::Baseline => ceccarello_one_round(&L2, &parts, sc.k, sc.z, sc.eps, &params),
        };
        let sol = greedy(&L2, &out.coreset, sc.k, sc.z);
        verdict(
            self.name(),
            sc,
            &sol.centers,
            out.stats.coreset_size,
            out.stats
                .worker_peak_words
                .max(out.stats.coordinator_peak_words),
            out.stats.rounds,
            coreset_bound(out.effective_eps, 0.0),
        )
    }
}

// ---------------------------------------------------------------- engine

/// The resident sharded ingest engine: `machines` shards of the
/// insertion-only coreset behind the value-hash router, batched ingest on
/// the shared worker pool, one merged snapshot at end of stream.  For
/// scenarios flagged `mid_snapshots` (churn-under-snapshot) a snapshot is
/// additionally taken after every batch, so the final verdict comes from
/// an engine that kept answering queries mid-burst.
///
/// The certified ε′ is the merged summary's own bookkeeping (ε widened by
/// ε/2 per merge generation, ⌈log₂ shards⌉ of them) — sharding shows up
/// in the bound's factor, and conformance checks it against the same
/// oracle as the single-stream pipeline.
struct EnginePipeline;

/// Batch size the adapter feeds the engine with (small enough that every
/// catalog scenario spans several batches).
pub(crate) const ENGINE_BATCH: usize = 16;

/// Builds and feeds the resident engine for one scenario — the **single
/// construction path** shared by the engine pipeline's verdict and the
/// query-conformance check ([`crate::query_violations`]), so both sides
/// judge the identical snapshot by construction rather than by two code
/// paths staying config-identical.
pub(crate) fn scenario_engine(sc: &Scenario) -> Engine<[f64; 2], L2> {
    let engine = Engine::new(L2, EngineConfig::new(sc.machines, sc.k, sc.z, sc.eps));
    for batch in sc.points.chunks(ENGINE_BATCH) {
        engine.ingest(batch);
        if sc.mid_snapshots {
            // Churn-under-snapshot: the query path must not disturb
            // ingest; only the last snapshot feeds the verdict.
            let _ = engine.snapshot();
        }
    }
    engine
}

impl Pipeline for EnginePipeline {
    fn name(&self) -> &'static str {
        "engine/sharded"
    }
    fn model(&self) -> Model {
        Model::Engine
    }
    fn run(&self, sc: &Scenario) -> Verdict {
        let snap = scenario_engine(sc).snapshot();
        verdict(
            self.name(),
            sc,
            &snap.centers,
            snap.coreset.len(),
            // Per-machine measure: worst shard, or the coordinator-side
            // merge transient, whichever peaked higher (the MPC
            // convention applied to the resident engine).
            snap.stats
                .shard_peak_words
                .max(snap.stats.merge_transient_words),
            0,
            coreset_bound(snap.effective_eps, 0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{catalog, Tier};

    #[test]
    fn pipeline_names_are_unique_and_cover_models() {
        let ps = all_pipelines();
        assert!(ps.len() >= 7, "the catalog promises ≥ 7 pipelines");
        let mut names: Vec<_> = ps.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ps.len(), "duplicate pipeline name");
        for m in [Model::Offline, Model::Streaming, Model::Mpc, Model::Engine] {
            assert!(ps.iter().any(|p| p.model() == m), "no pipeline for {m:?}");
        }
    }

    #[test]
    fn identical_points_yield_zero_everywhere() {
        let sc = catalog(Tier::Smoke)
            .into_iter()
            .find(|s| s.name == "identical_points")
            .unwrap();
        for p in all_pipelines() {
            let v = p.run(&sc);
            assert_eq!(v.radius, 0.0, "{}: radius {}", v.pipeline, v.radius);
            assert!(v.uncovered <= sc.z, "{}", v.pipeline);
        }
    }

    #[test]
    fn budget_swallowing_scenario_is_zero_radius() {
        let sc = catalog(Tier::Smoke)
            .into_iter()
            .find(|s| s.name == "budget_swallows_all")
            .unwrap();
        for p in all_pipelines() {
            let v = p.run(&sc);
            assert_eq!(v.radius, 0.0, "{}: radius {}", v.pipeline, v.radius);
        }
    }

    #[test]
    fn measure_flags_missing_centers() {
        let pts = kcz_metric::unit_weighted(&[[0.0f64, 0.0], [1.0, 0.0]]);
        let (r, u) = measure(&pts, &[], 0);
        assert!(r.is_infinite());
        assert_eq!(u, 2);
        let (r, u) = measure(&pts, &[], 5);
        assert_eq!(r, 0.0);
        assert_eq!(u, 2);
    }
}
