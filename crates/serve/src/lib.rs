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
//! Three layers:
//!
//! * [`SnapshotView`] — one immutable, epoch-numbered view: the solved
//!   centers and the certified `(3+8ε′)` bound data.  Every query method
//!   is one batched [`kcz_metric::MetricSpace`] kernel scan over the
//!   centers.
//! * [`QueryEngine`] — the serving front: holds the engine plus the
//!   newest published view behind a brief read-lock.  Readers acquire a
//!   view (`Arc` clone) and query it without ever blocking ingest;
//!   [`QueryEngine::refresh`] republishes when the engine's data version
//!   advanced (reusing the engine's memoized snapshot path — an
//!   unchanged version costs neither a merge nor a solve).  Batched
//!   variants fan the queries over the shared [`kcz_engine::runtime`]
//!   pool.
//! * [`LoadDriver`] — a deterministic replayer for mixed read/write
//!   traces ([`kcz_workloads::TraceOp`]): configurable ingest batching
//!   and snapshot-refresh cadence, recording throughput, power-of-two
//!   latency histograms, and a seed-stable digest of every answer.
//!
//! # The epoch / consistency contract
//!
//! Readers never see a torn summary: a view is built from one published
//! [`kcz_engine::Snapshot`] and is immutable thereafter, so every answer
//! it produces is exact with respect to *that* epoch — the epoch number
//! and its certified `bound_factor = 3 + 8ε′` travel with each answer.
//! Ingest concurrent with a read affects only *later* epochs; a reader
//! holding a view keeps getting internally consistent answers until it
//! re-acquires.  The conformance harness (`kcz conformance`) re-checks
//! served answers against brute-force nearest-center on the same
//! snapshot and the epoch's ratio bound against the exact oracle.

#![warn(missing_docs)]

pub mod driver;
pub mod query;
pub mod view;

pub use driver::{DriverConfig, DriverReport, LatencyHistogram, LoadDriver};
pub use query::QueryEngine;
pub use view::{Assignment, Classification, SnapshotView};
