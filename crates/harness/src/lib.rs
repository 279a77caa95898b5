//! Cross-model conformance harness for the k-center-with-outliers suite.
//!
//! The paper's central claim is that its streaming and MPC algorithms
//! match the offline `(3+ε)`-approximation.  This crate makes that claim
//! *executable*: one [`Scenario`] catalog (benign blobs plus adversarial
//! annuli, two-scale clusters, duplicate mass, colinear sets, outlier
//! bursts, drift-with-churn), one [`Pipeline`] trait adapting every
//! solver — offline Charikar/Gonzalez, insertion-only, sliding-window,
//! fully dynamic, the four MPC algorithms, and the resident sharded
//! engine — to a single
//! `run(scenario) → Verdict` surface, and a judge
//! ([`run_conformance`] / [`ConformanceReport::violations`]) that checks
//! every verdict's radius against the exact discrete optimum and the
//! per-algorithm ratio bound from the paper.
//!
//! The read side is judged too: [`query_violations`] rebuilds the
//! resident engine per scenario, publishes a snapshot, and re-checks
//! every answer the query layer serves (exact nearest-center agreement,
//! classify coherence, the epoch's certified bound) — see [`query`].
//! The window backend is judged by from-scratch oracles:
//! [`churn_violations`] certifies windowed epochs bit-for-bit against
//! unexpired-suffix replays (plus live-membership and a suffix-optimum
//! bound check) — see [`churn`].
//! The metrics layer's MPC communication accounting is certified too:
//! [`obs_violations`] re-runs the four MPC algorithms per scenario and
//! checks that each run's per-round word counts are complete (they sum
//! to the total) and that recording them through a [`kcz_obs::Registry`]
//! reproduces them exactly — see [`obscheck`].
//!
//! The facade exposes this as `kcz conformance [--tier smoke|full]
//! [--json <path>]`; CI runs the smoke tier on every push and fails on
//! any ratio-bound or query-conformance violation.

#![warn(missing_docs)]

pub mod churn;
pub mod obscheck;
pub mod pipeline;
pub mod query;
pub mod report;
pub mod scenario;

pub use churn::churn_violations;
pub use obscheck::obs_violations;
pub use pipeline::{all_pipelines, Model, Pipeline, RadiusBound, Verdict};
pub use query::query_violations;
pub use report::{exact_radius, run_conformance, within_bound, ConformanceReport, ScenarioReport};
pub use scenario::{catalog, snap_to_grid, Scenario, Tier, SIDE_BITS};
