//! Op accounting and output checks.  Every ingest, publish/refresh and
//! query is one op; it fails if it panics or if its output fails a check.

use kcz_engine::Snapshot;
use kcz_metric::{MetricSpace, L2};
use kcz_serve::{Assignment, SnapshotView};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::inputs::Pt;

#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Runs one program call: times it and catches a panic, which fails
    /// the op.  Returns the output (`None` after a panic) and the
    /// call's wall time in ns.
    pub fn call<T>(&mut self, f: impl FnOnce() -> T) -> (Option<T>, u64) {
        self.attempted += 1;
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        let ns = t0.elapsed().as_nanos() as u64;
        if out.is_err() {
            self.failed += 1;
        }
        (out.ok(), ns)
    }

    /// Records the verdict of a check on a call that returned.
    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }
}

/// What the next published snapshot must agree with.
pub struct Expect {
    k: usize,
    z: u64,
    /// Points handed to `ingest` so far.
    pub points: u64,
    /// The last published epoch and the engine's elision count at it.
    epoch: u64,
    elisions: u64,
}

impl Expect {
    /// Expectations for an engine holding `points` points and no epoch.
    pub fn new(k: usize, z: u64, points: u64) -> Self {
        Expect {
            k,
            z,
            points,
            epoch: 0,
            elisions: 0,
        }
    }

    /// Checks a snapshot returned by `publish`/`refresh`; `data_changed`
    /// says whether anything was ingested since the previous one.  An
    /// epoch advances exactly when the data changed and the solve was
    /// not elided.
    pub fn snapshot(&mut self, snap: &Snapshot<Pt>, data_changed: bool) -> bool {
        let weight: u64 = snap.coreset.iter().map(|w| w.weight).sum();
        let elided = snap.stats.elisions > self.elisions;
        let epoch_ok = if data_changed && !elided {
            snap.epoch > self.epoch
        } else {
            snap.epoch == self.epoch
        };
        let ok = snap.uncovered <= self.z
            && snap.centers.len() <= self.k
            && weight == self.points
            && epoch_ok
            && snap.bound_factor == 3.0 + 8.0 * snap.effective_eps;
        self.epoch = snap.epoch;
        self.elisions = snap.stats.elisions;
        ok
    }
}

/// A query answer must equal the brute-force argmin of `dist` over the
/// view's centers (ties to the smallest index), in the view's epoch.
pub fn answer(view: &SnapshotView<Pt, L2>, p: &Pt, got: Option<Assignment>) -> bool {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in view.centers().iter().enumerate() {
        let d = L2.dist(p, c);
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    match (best, got) {
        (None, None) => true,
        (Some((i, d)), Some(a)) => a.center == i && a.dist == d && a.epoch == view.epoch(),
        _ => false,
    }
}
