//! The query-serving layer: the *read side* of the resident engine.
//!
//! The paper's pitch is that an ε-coreset is a summary **small enough to
//! query**: once `(3+ε)`-certified centers exist, point-level questions
//! — which center serves `p`?  is `p` an outlier at radius `r`?  which
//! centers are closest? — cost a scan over `k` centers, not over the
//! ingested multiset.  The rest of the workspace builds and certifies
//! those summaries (streaming, MPC, the sharded engine); this crate
//! finally *answers questions* against them, while ingest keeps running.
//!
//! Two layers:
//!
//! * [`SnapshotView`] — one immutable, epoch-numbered view: the solved
//!   centers and the certified `(3+8ε′)` bound data.  Every query method
//!   is one batched [`kcz_metric::MetricSpace`] kernel scan over the
//!   centers.
//! * [`QueryEngine`] — the serving front: a thin read side over the
//!   engine's newest published epoch ([`kcz_engine::Engine::latest`]).
//!   Readers acquire a view (one brief read lock and an `Arc` clone)
//!   and query it without ever blocking ingest;
//!   [`QueryEngine::refresh`] asks the engine to publish, which costs
//!   neither a merge nor a solve when the data version has not moved.
//!
//! # The epoch / consistency contract
//!
//! Readers never see a torn summary: a view wraps one published
//! [`kcz_engine::Snapshot`] and is immutable thereafter, so every answer
//! it produces is exact with respect to *that* epoch — the epoch number
//! and its certified `bound_factor = 3 + 8ε′` travel with each answer.
//! [`QueryEngine::view`] is the engine's newest published epoch, so an
//! epoch published through [`QueryEngine::refresh`] or directly through
//! [`kcz_engine::Engine::publish`] reaches the next reader at once.
//! Ingest concurrent with a read affects only *later* epochs; a reader
//! holding a view keeps getting internally consistent answers until it
//! re-acquires.  The conformance harness (`kcz conformance`) re-checks
//! served answers against brute-force nearest-center on the same
//! snapshot and the epoch's ratio bound against the exact oracle.

#![warn(missing_docs)]

pub mod query;
pub mod view;

pub use query::QueryEngine;
pub use view::{Assignment, Classification, SnapshotView};
