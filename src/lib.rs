//! # kcenter-outliers
//!
//! A Rust reproduction of **"k-Center Clustering with Outliers in the MPC
//! and Streaming Model"** (Mark de Berg, Leyla Biabani, Morteza
//! Monemizadeh; IPDPS 2023, arXiv:2302.12811).
//!
//! Given `n` points in a metric space of doubling dimension `d`, the
//! k-center problem with `z` outliers asks for `k` congruent balls of
//! minimum radius covering all but (weight) `z` of the points.  The paper
//! shows how to maintain **(ε,k,z)-coresets** of size `O(k/ε^d + z)` — via
//! *mini-ball coverings* — in the MPC model and in three streaming models,
//! with matching lower bounds.
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`obs`] | zero-overhead observability: lock-free counters/gauges/latency histograms behind a [`obs::MetricsHandle`] that no-ops when disabled, span/stage tracing on a pluggable [`obs::Clock`] (deterministic [`obs::TickClock`] for tests), and the versioned `kcz-metrics/v1` JSON export (`--metrics` on `kcz engine` / `query` / `conformance`) |
//! | [`metric`] | points, metrics ([`metric::L2`], [`metric::Linf`], grids), **batched distance kernels** (`dist_many`, `nearest`, `within_indices`, … with deferred-`sqrt` overrides and 8-point blocks for the Euclidean nearest scan), the pivot order whose windows prune every ball query ([`metric::pivot::PivotOrder`]), weighted sets, storage accounting |
//! | [`kcenter`] | offline solvers: Charikar-et-al. greedy 3-approximation, Gonzalez, exact ground truth — hot loops on the batched kernels |
//! | [`coreset`] | mini-ball coverings: `MBCConstruction` (Alg. 1), `UpdateCoreset` (Alg. 4), composition lemmas, validators |
//! | [`mpc`] | MPC simulator + the 2-round (Alg. 2), randomized 1-round (Alg. 6), R-round (Alg. 7) algorithms and the CPP19 baseline |
//! | [`streaming`] | insertion-only (Alg. 3), fully dynamic (Alg. 5), sliding-window structures and streaming baselines |
//! | [`engine`] | shared execution runtime (persistent worker pool) + the resident sharded ingest engine (`kcz engine`): one flat union and recompression of the shard coverings per publish, memoized epoch publication (`publish`/`latest`) and two per-shard backends ([`engine::Backend`]: insertion-only, sliding-window) |
//! | [`serve`] | the read side: immutable published [`serve::SnapshotView`]s (centers + bound + the epoch's arrival clock and live window span), and the [`serve::QueryEngine`] that serves the engine's newest published epoch (`assign`/`classify`/`nearest_centers` + pool-batched variants, `kcz query`) |
//! | [`sketch`] | turnstile substrates: s-sparse recovery, F₀ estimation with deletions |
//! | [`lowerbounds`] | the paper's lower-bound constructions as adversarial generators |
//! | [`workloads`] | reproducible synthetic data, partitions, stream schedules, adversarial generators |
//! | [`harness`] | cross-model conformance: scenario catalog, `Pipeline` adapters for all ten pipelines, oracle-checked ratio bounds, served-answer query conformance, window-backend certification (`kcz conformance`) |
//!
//! ## Quickstart
//!
//! ```
//! use kcenter_outliers::prelude::*;
//!
//! // Clustered data with planted outliers.
//! let inst = gaussian_clusters::<2>(3, 200, 1.0, 10, 42);
//! let weighted = unit_weighted(&inst.points);
//!
//! // A coreset several times smaller than the input...
//! let mbc = mbc_construction(&L2, &weighted, 3, 10, 1.0);
//! assert!(mbc.len() < inst.points.len() / 4);
//!
//! // ...on which any offline solver approximates the original optimum.
//! let on_coreset = greedy(&L2, &mbc.reps, 3, 10);
//! let on_input = greedy(&L2, &weighted, 3, 10);
//! assert!(on_coreset.radius <= 3.0 * (1.0 + 1.0) * on_input.radius + 1e-9);
//! ```

pub use kcz_coreset as coreset;
pub use kcz_engine as engine;
pub use kcz_harness as harness;
pub use kcz_kcenter as kcenter;
pub use kcz_lowerbounds as lowerbounds;
pub use kcz_metric as metric;
pub use kcz_mpc as mpc;
pub use kcz_obs as obs;
pub use kcz_serve as serve;
pub use kcz_sketch as sketch;
pub use kcz_streaming as streaming;
pub use kcz_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use kcz_coreset::validate::{covering_radius, validate_coreset};
    pub use kcz_coreset::{
        end_to_end_factor, mbc_construction, streaming_capacity, update_coreset, MiniBallCovering,
    };
    pub use kcz_engine::{Backend, Engine, EngineConfig, EngineStats, Snapshot};
    pub use kcz_harness::{
        all_pipelines, catalog, churn_violations, obs_violations, query_violations,
        run_conformance, ConformanceReport, Pipeline, Scenario, Tier, Verdict,
    };
    pub use kcz_kcenter::{
        cost_with_outliers, exact_discrete, farthest_first, greedy, uncovered_weight,
    };
    pub use kcz_metric::{
        total_weight, unit_weighted, GridL2, GridLinf, Line, Linf, MetricSpace, SpaceUsage,
        Weighted, L2,
    };
    pub use kcz_mpc::{
        ceccarello_one_round, one_round_randomized, r_round, two_round, MpcCoreset, MpcRunStats,
    };
    pub use kcz_obs::{MetricsHandle, MonotonicClock, Registry, TickClock};
    pub use kcz_serve::{Assignment, Classification, QueryEngine, SnapshotView};
    pub use kcz_streaming::{
        baselines::{ceccarello_stream, mk_doubling},
        DoublingCoreset, DynamicCoreset, InsertionOnlyCoreset, SlidingWindowCoreset,
        SwStampedQuery,
    };
    pub use kcz_workloads::{
        annulus, churn_schedule, colinear, concentrated_partition, drifting_stream,
        duplicate_heavy, gaussian_clusters, grid_clusters, mixed_trace, outlier_burst,
        phase_shift_stream, query_trace, random_partition, round_robin, shuffled,
        two_scale_clusters, uniform_box, TraceOp,
    };
}
