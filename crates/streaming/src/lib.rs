//! Streaming coresets for k-center with outliers.
//!
//! Three models from the paper:
//!
//! * **insertion-only** (Section 4.3, Algorithm 3) — a deterministic 1-pass
//!   structure maintaining an (ε,k,z)-coreset in the optimal
//!   `O(k/ε^d + z)` space ([`insertion::InsertionOnlyCoreset`]); the
//!   underlying radius-doubling engine is [`insertion::DoublingCoreset`],
//!   which also powers the baselines of [`baselines`];
//! * **fully dynamic** (Section 5, Algorithm 5) — inserts *and* deletes of
//!   points from the discrete universe `[Δ]^d`, via `⌈log Δ⌉` nested grids
//!   carrying s-sparse-recovery and F₀ sketches
//!   ([`dynamic::DynamicCoreset`]);
//! * **sliding window** — a reconstruction of the de Berg–Monemizadeh–Zhong
//!   (ESA 2021) algorithm whose `O((kz/ε^d)·log σ)` space Section 6 proves
//!   optimal ([`sliding::SlidingWindowCoreset`]).

#![warn(missing_docs)]

pub mod baselines;
pub mod dynamic;
pub mod dynamic_det;
pub mod dynamic_solver;
pub mod insertion;
pub mod sliding;

pub use dynamic::{DynamicCoreset, DynamicCoresetError};
pub use dynamic_det::DeterministicDynamicCoreset;
pub use dynamic_solver::{DynamicKCenter, DynamicSolution};
pub use insertion::{DoublingCoreset, InsertionOnlyCoreset, MergeRecord};
pub use sliding::{SlidingWindowCoreset, SwQuery, SwStampedQuery};
