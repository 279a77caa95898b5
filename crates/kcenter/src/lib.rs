//! Offline algorithms for the (weighted) k-center problem with outliers.
//!
//! These are the sequential substrates the paper builds on:
//!
//! * [`charikar::greedy`] — the 3-approximation of Charikar, Khuller, Mount
//!   and Narasimhan (SODA 2001) for k-center with outliers, in its weighted
//!   form.  Every mini-ball covering construction (Algorithm 1 of the
//!   paper) starts by calling it, and Lemma 8 relies on `opt ≤ r ≤ 3·opt`
//!   for the radius `r` it reports.  [`charikar::BallCache`] keeps what a
//!   solve derives from the points alone for the next solve on the same
//!   points.
//! * [`gonzalez::farthest_first`] — the classic 2-approximation for plain
//!   k-center, used by the Ceccarello-et-al.-style baseline.
//! * [`exact::exact_discrete`] — exhaustive optimal solver over a candidate
//!   center set, for ground truth in tests and quality experiments.
//! * [`cost`] — clustering-cost evaluation: the smallest radius covering
//!   all but outlier-weight ≤ `z` with the given centers.

#![warn(missing_docs)]

pub mod charikar;
pub mod cost;
pub mod exact;
pub mod gonzalez;

pub use charikar::{greedy, greedy_with, BallCache, GreedyParams, GreedySolution};
pub use cost::{cost_with_outliers, uncovered_weight};
pub use exact::exact_discrete;
pub use gonzalez::farthest_first;
