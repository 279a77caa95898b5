//! MPC (Massively Parallel Computing) simulation of the paper's
//! coreset algorithms (Sections 3 and 7).
//!
//! The MPC model: `m` machines, synchronous rounds, per-machine storage
//! that must stay sublinear in `n`.  One machine is the *coordinator* and
//! must end up holding the answer; the rest are *workers*.  The paper's
//! performance measures are (i) the number of rounds, (ii) the worker and
//! coordinator storage, and (iii) the size of the final coreset — all of
//! which the simulator in [`exec`] accounts exactly, while actually
//! executing each round's machine-local computation on the workspace's
//! shared persistent worker pool (`kcz_engine::runtime`): the threads of
//! one process stand in for the model's machines.
//!
//! Algorithms:
//!
//! * [`two_round::two_round`] — Algorithm 2 (deterministic, adversarial
//!   partition): the outlier-guessing vectors `V_i[j] = Greedy(P_i, k,
//!   2^j−1)`, the global threshold `r̂`, local mini-ball coverings with
//!   budgets `2^ĵᵢ−1` summing to ≤ 2z, and a coordinator recompression
//!   (Theorem 10);
//! * [`one_round::one_round_randomized`] — Algorithm 6 (random partition):
//!   per-machine budget `z' = min(6z/m + 3 log n, z)` (Theorem 33);
//! * [`r_round::r_round`] — Algorithm 7: tree reduction with fan-in
//!   `β = ⌈m^{1/R}⌉` and error `(1+ε)^R − 1` (Theorem 35);
//! * [`baseline::ceccarello_one_round`] — the Ceccarello–Pietracaprina–
//!   Pucci-style deterministic 1-round baseline whose worker storage
//!   carries the `(k+z)/ε^d` factor the paper improves on.

#![warn(missing_docs)]

pub mod baseline;
pub mod exec;
pub mod one_round;
pub mod r_round;
pub mod two_round;

pub use baseline::ceccarello_one_round;
pub use exec::{parallel_map, pool, MpcCoreset, MpcRunStats};
pub use one_round::one_round_randomized;
pub use r_round::r_round;
pub use two_round::two_round;
