//! `kcz-obs`: the observability substrate of the k-center suite —
//! a lock-free metrics registry (counters, gauges, power-of-two
//! latency histograms), a span/stage tracer over a pluggable clock,
//! and a versioned JSON export surface (`kcz-metrics/v1`).
//!
//! Design contract, relied on by every instrumented hot path:
//!
//! - **Zero overhead when disabled.** [`MetricsHandle::disabled`]
//!   hands out detached counters/gauges (a relaxed atomic each — still
//!   readable, so accessors like `Engine::solves()` stay exact with
//!   metrics off) and stages/histograms that are plain `None` checks —
//!   a disabled stage never reads the clock.
//! - **Allocation-free recording.** Registration (naming an
//!   instrument) may lock and allocate; recording never does.  The
//!   counting-allocator tests of `kcz-engine` (`absorb_alloc.rs`) and
//!   `kcz-serve` (`query_alloc.rs`) pin this for the instrumented
//!   absorb and query paths.
//! - **Deterministic exports on demand.** With a [`TickClock`], a
//!   fixed single-threaded operation sequence produces a
//!   byte-identical [`Registry::to_json`] export on every run — the
//!   seed-stability contract tests lean on.
//! - **One quantile implementation.** [`LatencyHistogram`] is the
//!   single-writer value type, and every [`AtomicHistogram`] snapshots
//!   into it, so all quantile logic lives in one place.

#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod hist;
pub mod registry;

pub use clock::{Clock, MonotonicClock, TickClock};
pub use export::SCHEMA;
pub use hist::LatencyHistogram;
pub use registry::{
    AtomicHistogram, Counter, Gauge, HistogramHandle, MetricsHandle, Registry, Stage, StageTimer,
};
