//! The four workloads.  Each is a closed loop from one client thread
//! that drives the engine and its serving front through their public
//! calls only, timing every call from the outside.
//!
//! A run is [`SEGMENTS`] segments, each with its own inputs drawn from
//! the run's seed and its own set-up, so one run averages over several
//! input draws.  Each segment's loop is cut into windows of about
//! [`WINDOW_S`].  Between two windows the client reads the host gauge
//! ([`crate::gauge`]) and, on the grid workloads, samples the read path;
//! neither is part of a window's time.  The gauge's readings over a
//! segment give that segment's pace ([`gauge::pace`]), by which its
//! timings are scaled.

use kcz_engine::{Engine, EngineConfig, Snapshot};
use kcz_kcenter::farthest_first;
use kcz_metric::L2;
use kcz_obs::{MetricsHandle, Registry};
use kcz_serve::{QueryEngine, SnapshotView};
use kcz_workloads::{HashPartitioner, TraceOp};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::checks::{self, Expect, Ops};
use crate::gauge;
use crate::hist::Hist;
use crate::inputs::{self, Pt};

const SHARDS: usize = 8;
const K: usize = 8;
const Z_GRID: u64 = 32;
const Z_SERVE: u64 = 64;
const EPS: f64 = 1.0;
const BATCH: usize = 4096;
/// `serve`: writes wait in the client until this many are pending.
const SERVE_FLUSH: usize = 1024;
/// `serve`: `QueryEngine::refresh` every this many trace ops.
const SERVE_REFRESH: u64 = 4096;
/// Every this many-th query is re-checked against brute force.
const CHECK_EVERY: u64 = 16;
/// Segments of one run.
pub const SEGMENTS: u64 = 32;
/// Target length of one measurement window.
const WINDOW_S: f64 = 0.05;
/// Grid workloads: read-path queries between two windows.
const PROBES_PER_WINDOW: usize = 1000;

type Eng = Engine<Pt, L2>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Ingest,
    PublishBatch,
    PublishTrickle,
    Serve,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "ingest" => Workload::Ingest,
            "publish_batch" => Workload::PublishBatch,
            "publish_trickle" => Workload::PublishTrickle,
            "serve" => Workload::Serve,
            _ => return None,
        })
    }
}

/// What the client saw in one window, or in several merged.
#[derive(Default)]
pub struct Tally {
    pub ingest_points: u64,
    pub ingest_calls: u64,
    pub ingest_ns: u64,
    /// Time per point of every `Engine::ingest` call, in ps.
    pub ingest_ps_per_point: Hist,
    pub publish_ns: u64,
    pub refresh_calls: u64,
    pub refresh_ns: u64,
    /// Time in the loop's own queries (`serve`).
    pub loop_query_ns: u64,
    /// Client ops: program calls, or trace ops for `serve`.
    pub loop_ops: u64,
    pub loop_ns: u64,
    /// Arrival-to-result latency, one sample per arrival.
    pub result: Hist,
    /// Wall time of every scalar `QueryEngine::assign`.
    pub query: Hist,
    /// Queries answered `Some`.
    pub covered: u64,
}

impl Tally {
    fn merge(&mut self, o: &Tally) {
        self.ingest_points += o.ingest_points;
        self.ingest_calls += o.ingest_calls;
        self.ingest_ns += o.ingest_ns;
        self.ingest_ps_per_point.merge(&o.ingest_ps_per_point);
        self.publish_ns += o.publish_ns;
        self.refresh_calls += o.refresh_calls;
        self.refresh_ns += o.refresh_ns;
        self.loop_query_ns += o.loop_query_ns;
        self.loop_ops += o.loop_ops;
        self.loop_ns += o.loop_ns;
        self.result.merge(&o.result);
        self.query.merge(&o.query);
        self.covered += o.covered;
    }

    /// Mean time inside program calls per loop op: the figure the
    /// traced and untraced runs are compared on.
    pub fn call_ns_per_op(&self) -> f64 {
        let ns = self.ingest_ns + self.publish_ns + self.refresh_ns + self.loop_query_ns;
        ns as f64 / self.loop_ops.max(1) as f64
    }
}

/// What a run saw, from outside the program.
#[derive(Default)]
pub struct Run {
    /// Wall time of each segment's set-up (`Engine::new`, preload,
    /// first publish), at the gauge's nominal pace.
    pub setup_s: Vec<f64>,
    /// Per segment, what its loop saw and its pace ([`gauge::pace`]).
    pub segments: Vec<(Tally, f64)>,
    /// Per segment, the most resident memory seen between windows, in MB.
    pub rss_mb: Vec<f64>,
    /// The last segment's final snapshot and shard sizes.
    pub last: Option<Arc<Snapshot<Pt>>>,
    pub shard_sizes: Vec<usize>,
    pub layers: Option<Layers>,
}

impl Run {
    fn absorb(&mut self, segment: Run) {
        self.setup_s.extend(segment.setup_s);
        self.rss_mb.extend(segment.rss_mb);
        self.segments.extend(segment.segments);
        self.last = segment.last;
        self.shard_sizes = segment.shard_sizes;
        match (&mut self.layers, segment.layers) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine, theirs) => *mine = mine.take().or(theirs),
        }
    }

    /// Every segment merged, as measured.
    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for (s, _) in &self.segments {
            t.merge(s);
        }
        t
    }
}

/// The traced run's extra record: what each segment's live registry
/// grew by during its loop, and the benchmark's own timers around
/// public calls.
#[derive(Default)]
pub struct Layers {
    registry: Registry,
    counters0: BTreeMap<String, u64>,
    hists0: BTreeMap<String, (u64, u128)>,
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, (u64, u128)>,
    gauges: BTreeMap<String, u64>,
    /// `HashPartitioner::shard_of` over each ingested batch.
    pub route_ns: u64,
    /// `farthest_first(k+z)` re-run on each solved epoch's coreset.
    pub hint_ns: u64,
    /// `QueryEngine::view()` and `SnapshotView::assign` on a held view.
    pub view_ns: u64,
    pub assign_ns: u64,
    pub view_probes: u64,
    /// `SnapshotView::new` on each newly published snapshot.
    pub build_ns: u64,
    pub builds: u64,
    /// Side timers that ran inside windows.
    pub side_ns: u64,
}

impl Layers {
    /// Snapshots the registry at the start of the loop, so set-up work
    /// is subtracted from every registry-derived figure.
    fn mark(&mut self) {
        self.counters0 = self.registry.counters().into_iter().collect();
        self.hists0 = self.hists();
    }

    /// At the end of the loop: adds the registry's growth since
    /// [`Layers::mark`] to the totals.
    fn close(&mut self) {
        for (name, v) in self.registry.counters() {
            let v0 = self.counters0.get(&name).copied().unwrap_or(0);
            *self.counters.entry(name).or_default() += v - v0;
        }
        for (name, (c, t)) in self.hists() {
            let (c0, t0) = self.hists0.get(&name).copied().unwrap_or((0, 0));
            let total = self.spans.entry(name).or_default();
            total.0 += c - c0;
            total.1 += t - t0;
        }
        for (name, v) in self.registry.gauges() {
            let g = self.gauges.entry(name).or_default();
            *g = (*g).max(v);
        }
    }

    fn merge(&mut self, o: Layers) {
        for (name, v) in o.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, (c, t)) in o.spans {
            let total = self.spans.entry(name).or_default();
            total.0 += c;
            total.1 += t;
        }
        for (name, v) in o.gauges {
            let g = self.gauges.entry(name).or_default();
            *g = (*g).max(v);
        }
        self.route_ns += o.route_ns;
        self.hint_ns += o.hint_ns;
        self.view_ns += o.view_ns;
        self.assign_ns += o.assign_ns;
        self.view_probes += o.view_probes;
        self.build_ns += o.build_ns;
        self.builds += o.builds;
        self.side_ns += o.side_ns;
    }

    fn hists(&self) -> BTreeMap<String, (u64, u128)> {
        self.registry
            .histograms()
            .into_iter()
            .map(|(name, h)| (name, (h.count(), h.total_ns())))
            .collect()
    }

    /// Growth of a registry counter over the loops.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Growth of a registry span's `(count, total_ns)` over the loops.
    /// Only these two are read: the registry's percentiles are
    /// power-of-two bucket bounds.
    pub fn span(&self, name: &str) -> (u64, u128) {
        self.spans.get(name).copied().unwrap_or((0, 0))
    }

    /// The largest final reading of a registry gauge over the segments.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

/// Resident memory of this process right now, in kB.
fn resident_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS in /proc/self/status")
}

extern "C" {
    /// glibc: returns freed heap memory to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands memory the previous segment freed back to the system, so that
/// whether the allocator happened to keep it (the solver's 18 MB
/// distance matrix, say) does not show in the next segment's resident
/// memory.
fn release_freed_memory() {
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointers and is safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Times one set-up.
fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = setup();
    (out, t0.elapsed().as_secs_f64())
}

/// The client: one thread, one call at a time.
struct Client<'a> {
    engine: Arc<Eng>,
    query: QueryEngine<Pt, L2>,
    router: HashPartitioner,
    z: u64,
    ops: &'a mut Ops,
    expect: Expect,
    /// Arrivals inside the engine that no publish has returned yet:
    /// (when handed in, how many).
    landed: Vec<(Instant, u64)>,
    /// Grid workloads: query keys for the read path between windows.
    probes: Vec<Pt>,
    next_probe: usize,
    started: Instant,
    window_start: Instant,
    /// Gauge readings of this segment, set-up and loop.
    readings: Vec<u64>,
    rss_kb: u64,
    cur: Tally,
    last: Arc<Snapshot<Pt>>,
    layers: Option<Layers>,
}

impl<'a> Client<'a> {
    /// A client over a set-up engine whose first publish is `first`,
    /// after `preloaded` points.
    fn new(
        query: QueryEngine<Pt, L2>,
        first: Arc<Snapshot<Pt>>,
        preloaded: usize,
        z: u64,
        ops: &'a mut Ops,
        layers: Option<Layers>,
        readings: Vec<u64>,
    ) -> Self {
        let mut expect = Expect::new(K, z, preloaded as u64);
        assert!(
            expect.snapshot(&first, true),
            "the set-up snapshot fails its checks"
        );
        let engine = Arc::clone(query.engine());
        Client {
            router: HashPartitioner::new(SHARDS, engine.config().seed),
            engine,
            query,
            z,
            ops,
            expect,
            landed: Vec::new(),
            probes: Vec::new(),
            next_probe: 0,
            started: Instant::now(),
            window_start: Instant::now(),
            readings,
            rss_kb: 0,
            cur: Tally::default(),
            last: first,
            layers,
        }
    }

    /// Starts the measured loop.
    fn start(&mut self) {
        if let Some(l) = &mut self.layers {
            l.mark();
        }
        self.started = Instant::now();
        self.window_start = self.started;
    }

    fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Between two ops: closes the window once it is long enough.
    fn tick(&mut self) {
        if self.window_start.elapsed().as_secs_f64() >= WINDOW_S {
            self.roll();
        }
    }

    /// Closes the current window, reads the gauge, samples the read
    /// path (grid workloads) and opens the next window.
    fn roll(&mut self) {
        self.cur.loop_ns += self.window_start.elapsed().as_nanos() as u64;
        self.readings.push(gauge::read());
        self.rss_kb = self.rss_kb.max(resident_kb());
        if !self.probes.is_empty() {
            for _ in 0..PROBES_PER_WINDOW {
                let p = self.probes[self.next_probe];
                self.next_probe = (self.next_probe + 1) % self.probes.len();
                self.assign(&p, false);
            }
        }
        self.window_start = Instant::now();
    }

    /// `Engine::ingest` of one batch; returns when it was handed in.
    fn ingest(&mut self, batch: &[Pt]) -> Instant {
        let handed = Instant::now();
        let engine = &self.engine;
        let (out, ns) = self.ops.call(|| engine.ingest(batch));
        self.cur.ingest_calls += 1;
        self.cur.ingest_ns += ns;
        self.cur
            .ingest_ps_per_point
            .record(ns * 1000 / batch.len() as u64);
        self.cur.ingest_points += batch.len() as u64;
        if out.is_some() {
            self.expect.points += batch.len() as u64;
            self.ops
                .check(self.engine.points_ingested() == self.expect.points);
        }
        if let Some(l) = &mut self.layers {
            let t0 = Instant::now();
            let mut acc = 0usize;
            for p in batch {
                acc = acc.wrapping_add(self.router.shard_of(p));
            }
            black_box(acc);
            let ns = t0.elapsed().as_nanos() as u64;
            l.route_ns += ns;
            l.side_ns += ns;
        }
        handed
    }

    /// `Engine::publish` after ingest.
    fn publish(&mut self) {
        let solves0 = self.engine.solves();
        let engine = &self.engine;
        let (snap, ns) = self.ops.call(|| engine.publish());
        self.cur.publish_ns += ns;
        if let Some(snap) = snap {
            self.published(snap, true, solves0);
            // The read-path sample follows the newest epoch.  Nothing
            // was ingested since the publish, so `refresh` takes the
            // engine's cached snapshot and only rebuilds the view.
            if !self.probes.is_empty() {
                self.query.refresh();
            }
        }
    }

    /// `QueryEngine::refresh`; `changed` says whether a flush landed
    /// since the previous refresh.
    fn refresh(&mut self, changed: bool) {
        let solves0 = self.engine.solves();
        let query = &self.query;
        let epoch0 = query.view().epoch();
        let (view, ns) = self.ops.call(|| query.refresh());
        self.cur.refresh_calls += 1;
        self.cur.refresh_ns += ns;
        if let Some(view) = view {
            let snap = Arc::clone(view.snapshot());
            if let (Some(l), true) = (&mut self.layers, view.epoch() != epoch0) {
                let t0 = Instant::now();
                black_box(SnapshotView::new(L2, Arc::clone(&snap)));
                let ns = t0.elapsed().as_nanos() as u64;
                l.build_ns += ns;
                l.builds += 1;
                l.side_ns += ns;
            }
            self.published(snap, changed, solves0);
        }
    }

    /// Checks a published snapshot, closes the result latency of every
    /// arrival it contains, and (traced) re-times the solve's hint.
    fn published(&mut self, snap: Arc<Snapshot<Pt>>, changed: bool, solves0: u64) {
        let done = Instant::now();
        let ok = self.expect.snapshot(&snap, changed);
        self.ops.check(ok);
        for (handed, n) in self.landed.drain(..) {
            self.cur
                .result
                .record_n((done - handed).as_nanos() as u64, n);
        }
        if let (Some(l), true) = (&mut self.layers, self.engine.solves() > solves0) {
            // The engine warm-starts its solve from this same call when
            // the budget is below half the coreset.
            let budget = K + self.z as usize;
            if budget < snap.coreset.len() / 2 {
                let t0 = Instant::now();
                black_box(farthest_first(&L2, &snap.coreset, budget, 0).radius);
                let ns = t0.elapsed().as_nanos() as u64;
                l.hint_ns += ns;
                l.side_ns += ns;
            }
        }
        self.last = snap;
    }

    /// One scalar `QueryEngine::assign`; `in_loop` marks the queries of
    /// the workload itself rather than of the read-path sample.
    fn assign(&mut self, p: &Pt, in_loop: bool) {
        let query = &self.query;
        let (answer, ns) = self.ops.call(|| query.assign(p));
        self.cur.query.record(ns);
        if in_loop {
            self.cur.loop_query_ns += ns;
        }
        if let Some(answer) = answer {
            self.cur.covered += answer.is_some() as u64;
            if self.cur.query.count().is_multiple_of(CHECK_EVERY) {
                let ok = checks::answer(&query.view(), p, answer);
                self.ops.check(ok);
            }
        }
        if let Some(l) = &mut self.layers {
            let t0 = Instant::now();
            let view = query.view();
            let t1 = Instant::now();
            black_box(view.assign(p));
            let t2 = Instant::now();
            l.view_ns += (t1 - t0).as_nanos() as u64;
            l.assign_ns += (t2 - t1).as_nanos() as u64;
            l.view_probes += 1;
            if in_loop {
                l.side_ns += (t2 - t0).as_nanos() as u64;
            }
        }
    }

    /// Ends the measured loop.
    fn finish(mut self, setup_s: f64) -> Run {
        // No read-path sample after the last window.
        let probed = !std::mem::take(&mut self.probes).is_empty();
        self.roll();
        if let Some(l) = &mut self.layers {
            l.close();
            if probed {
                let t0 = Instant::now();
                black_box(SnapshotView::new(L2, Arc::clone(&self.last)));
                l.build_ns += t0.elapsed().as_nanos() as u64;
                l.builds += 1;
            }
        }
        let pace = gauge::pace(&self.readings);
        Run {
            setup_s: vec![setup_s / pace],
            rss_mb: vec![self.rss_kb as f64 / 1024.0],
            segments: vec![(self.cur, pace)],
            shard_sizes: self.engine.shard_sizes(),
            last: Some(self.last),
            layers: self.layers,
        }
    }
}

/// Measures `segments` segments of `workload`, `seconds` in all.
/// `traced` binds each segment's engine and serving front to a live
/// registry and adds the benchmark's side timers; otherwise metrics
/// stay disabled.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    segments: u64,
    traced: bool,
    ops: &mut Ops,
) -> Run {
    let mut run = Run::default();
    for segment in 0..segments {
        release_freed_memory();
        let seed = inputs::segment_seed(seed, segment);
        let seconds = seconds / segments as f64;
        let registry = Registry::new();
        let metrics = if traced {
            MetricsHandle::new(&registry)
        } else {
            MetricsHandle::disabled()
        };
        let layers = traced.then(|| Layers {
            registry,
            ..Layers::default()
        });
        run.absorb(match workload {
            Workload::Serve => serve(seed, seconds, &metrics, layers, ops),
            _ => grid(workload, seed, seconds, &metrics, layers, ops),
        });
    }
    run
}

fn grid(
    workload: Workload,
    seed: u64,
    seconds: f64,
    metrics: &MetricsHandle,
    layers: Option<Layers>,
    ops: &mut Ops,
) -> Run {
    let chunk = match workload {
        Workload::PublishTrickle => 1,
        _ => BATCH,
    };
    // `ingest` publishes once per pass of `INGEST_PASS` arrivals, the
    // others after every chunk.
    let per_publish = match workload {
        Workload::Ingest => inputs::INGEST_PASS.div_ceil(chunk),
        _ => 1,
    };
    let preload = inputs::grid_stream(inputs::GRID_STREAM, seed);
    let mut readings = vec![gauge::read()];
    let ((engine, first), setup_s) = timed(|| {
        let engine =
            Engine::new(L2, EngineConfig::new(SHARDS, K, Z_GRID, EPS)).with_metrics(metrics);
        for batch in preload.chunks(BATCH) {
            engine.ingest(batch);
        }
        let first = engine.publish();
        (engine, first)
    });
    readings.push(gauge::read());
    let query = QueryEngine::new(Arc::new(engine));
    let mut c = Client::new(query, first, preload.len(), Z_GRID, ops, layers, readings);
    c.probes = inputs::grid_probes(seed);
    c.start();
    let mut chunks = preload.chunks(chunk).cycle();
    loop {
        for _ in 0..per_publish {
            let batch = chunks.next().expect("the stream cycles");
            let handed = c.ingest(batch);
            c.landed.push((handed, batch.len() as u64));
            c.cur.loop_ops += 1;
            c.tick();
        }
        c.publish();
        c.cur.loop_ops += 1;
        if c.elapsed_s() >= seconds {
            break;
        }
        c.tick();
    }
    c.finish(setup_s)
}

fn serve(
    seed: u64,
    seconds: f64,
    metrics: &MetricsHandle,
    layers: Option<Layers>,
    ops: &mut Ops,
) -> Run {
    let preload = inputs::serve_preload(seed);
    let trace = inputs::serve_trace(seed);
    let mut readings = vec![gauge::read()];
    let (query, setup_s) = timed(|| {
        let engine =
            Engine::new(L2, EngineConfig::new(SHARDS, K, Z_SERVE, EPS)).with_metrics(metrics);
        for batch in preload.chunks(BATCH) {
            engine.ingest(batch);
        }
        engine.publish();
        QueryEngine::with_metrics(Arc::new(engine), metrics)
    });
    readings.push(gauge::read());
    let first = Arc::clone(query.view().snapshot());
    let mut c = Client::new(query, first, preload.len(), Z_SERVE, ops, layers, readings);
    let mut writes: Vec<Pt> = Vec::with_capacity(SERVE_FLUSH);
    let mut handed: Vec<Instant> = Vec::with_capacity(SERVE_FLUSH);
    let mut changed = false;
    let mut replayed = 0u64;
    c.start();
    for op in trace.iter().cycle() {
        match op {
            TraceOp::Ingest(p) => {
                writes.push(*p);
                handed.push(Instant::now());
                if writes.len() == SERVE_FLUSH {
                    c.ingest(&writes);
                    c.landed.extend(handed.drain(..).map(|t| (t, 1)));
                    writes.clear();
                    changed = true;
                }
            }
            TraceOp::Query(p) => c.assign(p, true),
        }
        c.cur.loop_ops += 1;
        replayed += 1;
        if replayed.is_multiple_of(SERVE_REFRESH) {
            c.refresh(changed);
            changed = false;
        }
        if replayed.is_multiple_of(256) {
            if c.elapsed_s() >= seconds {
                break;
            }
            c.tick();
        }
    }
    c.finish(setup_s)
}
