//! (ε,k,z)-coresets via **mini-ball coverings** — the paper's central
//! primitive (Section 2).
//!
//! A weighted subset `P* ⊆ P` is an *(ε,k,z)-mini-ball covering* of `P`
//! (Definition 2) when `P` can be partitioned into groups `Q_i`, one per
//! representative `q_i ∈ P*`, such that
//!
//! 1. **weight property** — `w(q_i) = Σ_{p∈Q_i} w(p)`, and
//! 2. **covering property** — `dist(p, q_i) ≤ ε·opt_{k,z}(P)` for `p ∈ Q_i`.
//!
//! Lemma 3 shows every mini-ball covering is an (ε,k,z)-coreset
//! (Definition 1).  This crate provides:
//!
//! * [`mbc::mbc_construction`] — Algorithm 1: `Greedy` radius, then greedy
//!   mini-ball partition at granularity `ε·r/3`; size ≤ `k(12/ε)^d + z`
//!   (Lemma 7);
//! * [`update::update_coreset`] — Algorithm 4: re-clustering of an existing
//!   covering at a coarser granularity (used by the streaming algorithm),
//!   and [`update::update_coreset_with_owners`], which also records each
//!   point's representative (the engine's root merge keeps it);
//! * [`compose`] — the union (Lemma 4) and transitive (Lemma 5) operations
//!   that let MPC machines and streaming passes combine coverings;
//! * [`merge`] — what every composing pipeline shares: the end-to-end
//!   `3 + 8ε′` factor an ε′-summary certifies ([`end_to_end_factor`]) and
//!   the metric-compatibility check merges assert;
//! * [`bounds`] — the size/capacity formulas of Lemmas 6–7 and Algorithm 3;
//! * [`validate`] — empirical checkers for both Definition-1 conditions,
//!   used by tests and the quality experiments.

#![warn(missing_docs)]

pub mod bounds;
pub mod compose;
pub mod mbc;
pub mod merge;
pub mod update;
pub mod validate;

pub use bounds::{mbc_size_bound, streaming_capacity};
pub use compose::union_coverings;
pub use mbc::{mbc_construction, mbc_construction_with, MiniBallCovering};
pub use merge::end_to_end_factor;
pub use update::{update_coreset, update_coreset_with_owners};
