//! Shared execution runtime and the resident sharded ingest engine.
//!
//! Two layers, both extracted from patterns the rest of the workspace
//! already relied on implicitly:
//!
//! * [`runtime`] — a persistent worker pool ([`runtime::Pool`]) with an
//!   order-preserving `scoped_map`, replacing the thread-per-round
//!   spawning the MPC simulator used to do.  The MPC algorithms, the
//!   conformance harness's full-tier runs, the experiments driver and
//!   the engine itself all share one process-wide instance
//!   ([`runtime::global`]).
//! * [`engine`] — [`engine::Engine`]: `N` shards of one per-shard
//!   backend (insertion-only or sliding-window — see
//!   [`backend::Backend`]) behind per-shard locks, batched hash-routed
//!   ingest stamped by a global arrival clock, and epoch-numbered
//!   snapshots that merge all shard summaries at once (one Lemma 4
//!   union + one Lemma 5 recompression) without stalling ingest.
//!
//! The composed-ε arithmetic lives in `kcz-coreset`
//! ([`kcz_coreset::end_to_end_factor`]); the engine only *reports* the
//! ε′ its merges produced, so its snapshots are checkable by the same
//! oracle bounds as every other pipeline.

#![warn(missing_docs)]

pub mod backend;
pub mod engine;
pub mod runtime;

pub use backend::{Backend, WINDOW_RHO_MAX, WINDOW_RHO_MIN};
pub use engine::{Engine, EngineConfig, EngineStats, Snapshot};
pub use runtime::{global, Pool};
