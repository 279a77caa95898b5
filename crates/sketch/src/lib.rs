//! Linear sketches for strict turnstile streams.
//!
//! The fully dynamic streaming algorithm (Section 5, Algorithm 5) maintains,
//! for each of `⌈log Δ⌉` grids, two sketches over the grid's cells:
//!
//! * an **s-sparse recovery sketch** — returns *all* non-empty cells with
//!   their exact counts whenever at most `s` cells are non-empty (the
//!   paper cites Barkay–Porat–Shalem \[4\]); implemented here as a bucketed
//!   array of 1-sparse cells with peeling decode
//!   ([`ssparse::SparseRecovery`]);
//! * an **F₀ estimator** — a `(1±ε)` approximation of the number of
//!   non-empty cells under insertions *and deletions* (the paper cites
//!   Kane–Nelson–Woodruff \[32\]); implemented here as geometric sampling
//!   levels over linear-counting bucket arrays ([`f0::F0Sketch`]).
//!
//! Both structures are *linear* in the frequency vector: every bucket's
//! content is a sum of per-update contributions, so deletions cancel
//! insertions exactly.

#![warn(missing_docs)]

pub mod detsparse;
pub mod f0;
pub mod field;
pub mod hash;
pub mod onesparse;
pub mod ssparse;

pub use detsparse::DeterministicSparseRecovery;
pub use f0::F0Sketch;
pub use hash::HashFn;
pub use onesparse::{Decode, OneSparseCell};
pub use ssparse::SparseRecovery;
