//! Turns measured segments into named metrics and prints them: one
//! human-readable line per metric with its sample count, then the JSON
//! result as the last line of standard output.

use crate::checks::Ops;
use crate::run::{Run, Tally};

pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: u64,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `ingest_mpts_s` leaves out the slowest tenth of a segment's calls: on
/// `publish_trickle` a call carries one point, and a page fault or an
/// interrupt in one call would outweigh dozens of others.
const INGEST_KEEP: f64 = 0.9;

/// The share of the segments whose figure is better than the one a
/// timing reports.  Neighbours on the shared host slow the program for
/// seconds at a time, more than they slow the gauge, so a run's worst
/// segments say more about the host than about the program; the figure a
/// quarter of the segments beat is steady while at least a quarter of
/// the run is quiet.
const BETTER_SHARE: f64 = 0.25;

/// Which way a figure improves.
#[derive(Clone, Copy)]
enum Better {
    Lower,
    Higher,
}

/// The `q`-quantile of `xs`, interpolated between neighbours; 0 when
/// nothing was measured.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The end-to-end metrics of an untraced run.  Each segment's timing is
/// taken at the segment's pace (times divided by it, rates multiplied);
/// the run reports the figure that [`BETTER_SHARE`] of the segments beat.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let last = run.last.as_ref().expect("a measured segment");
    let timed = |name,
                 unit,
                 better: Better,
                 value: &dyn Fn(&Tally) -> f64,
                 samples: &dyn Fn(&Tally) -> u64| {
        let figures: Vec<f64> = run
            .segments
            .iter()
            .filter(|(t, _)| samples(t) > 0)
            .map(|(t, pace)| match better {
                Better::Lower => value(t) / pace,
                Better::Higher => value(t) * pace,
            })
            .collect();
        let q = match better {
            Better::Lower => BETTER_SHARE,
            Better::Higher => 1.0 - BETTER_SHARE,
        };
        metric(
            name,
            unit,
            quantile(&figures, q),
            run.segments.iter().map(|(t, _)| samples(t)).sum(),
        )
    };
    let setup = quantile(&run.setup_s, BETTER_SHARE);
    vec![
        metric("setup_s", "s", setup, run.setup_s.len() as u64),
        timed(
            "ingest_mpts_s",
            "Mpts/s",
            Better::Higher,
            &|t| ratio(1e6, t.ingest_ps_per_point.trimmed_mean(INGEST_KEEP)),
            &|t| t.ingest_calls,
        ),
        timed(
            "result_p50_ms",
            "ms",
            Better::Lower,
            &|t| t.result.quantile(0.5) / 1e6,
            &|t| t.result.count(),
        ),
        timed(
            "result_p90_ms",
            "ms",
            Better::Lower,
            &|t| t.result.quantile(0.9) / 1e6,
            &|t| t.result.count(),
        ),
        timed(
            "query_p50_ns",
            "ns",
            Better::Lower,
            &|t| t.query.quantile(0.5),
            &|t| t.query.count(),
        ),
        timed(
            "query_p99_ns",
            "ns",
            Better::Lower,
            &|t| t.query.quantile(0.99),
            &|t| t.query.count(),
        ),
        timed(
            "ops_kops_s",
            "kops/s",
            Better::Higher,
            &|t| ratio(t.loop_ops as f64 * 1e6, t.loop_ns as f64),
            &|t| t.loop_ops,
        ),
        metric("bound_factor", "ratio", last.bound_factor, 1),
        metric(
            "peak_rss_mb",
            "MB",
            median(&run.rss_mb),
            run.rss_mb.len() as u64,
        ),
    ]
}

/// The per-layer metrics of a traced run, with the untraced run it is
/// compared against for the tracing overhead.
pub fn per_layer(plain_run: &Run, traced_run: &Run) -> Vec<Metric> {
    let l = traced_run.layers.as_ref().expect("a traced run");
    let snap = traced_run.last.as_ref().expect("a measured segment");
    let sizes = &traced_run.shard_sizes;
    let traced = traced_run.total();

    // Publish stages, each per slow-path publish so they sum to the total.
    let (publishes, total_ns) = l.span("engine.publish.total_ns");
    let per_publish_ms = |ns: u128| ratio(ns as f64 / 1e6, publishes as f64);
    let stage_ms = |s: &str| per_publish_ms(l.span(&format!("engine.publish.stage.{s}_ns")).1);
    let total_ms = per_publish_ms(total_ns);
    let [clone, merge, solve, replay, build] =
        ["clone", "merge", "solve", "replay", "build"].map(stage_ms);
    let hint_ms = per_publish_ms(l.hint_ns as u128);
    let merges = l.counter("engine.publish.pair_merges") as f64;
    let solves = l.counter("engine.publish.solves") as f64;
    let elisions = l.counter("engine.publish.elisions") as f64;
    let probes = l.counter("engine.solve.probes") as f64;
    let reused = l.counter("engine.solve.reused_verdicts") as f64;
    let merge_ns = l.span("engine.publish.stage.merge_ns").1 as f64;

    let calls = traced.ingest_calls as f64;
    let call_us = ratio(traced.ingest_ns as f64 / 1e3, calls);
    let route_us = ratio(l.route_ns as f64 / 1e3, calls);
    let reps: usize = sizes.iter().sum();
    let max_shard = sizes.iter().copied().max().unwrap_or(0);
    let mean_shard = ratio(reps as f64, sizes.len() as f64);

    let views = l.view_probes as f64;
    let queries = traced.query.count();
    // Window time less the benchmark's own side timers.
    let wall = traced.loop_ns.saturating_sub(l.side_ns) as f64;
    let share = |ns: u64| ratio(ns as f64, wall);
    // Compared like the end-to-end metrics: median over segments of the
    // segment's figure at the nominal pace.
    let per_op = |r: &Run| {
        median(
            &r.segments
                .iter()
                .map(|(t, pace)| t.call_ns_per_op() / pace)
                .collect::<Vec<_>>(),
        )
    };
    let overhead = (ratio(per_op(traced_run), per_op(plain_run)) - 1.0) * 100.0;

    let p = publishes;
    let n = traced.ingest_calls;
    vec![
        metric("engine.ingest.call_us", "us", call_us, n),
        metric("engine.ingest.route_us", "us", route_us, n),
        metric("engine.ingest.absorb_us", "us", call_us - route_us, n),
        metric(
            "engine.shard_skew",
            "ratio",
            ratio(max_shard as f64, mean_shard),
            1,
        ),
        metric("streaming.reps", "count", reps as f64, 1),
        metric("engine.publish.total_ms", "ms", total_ms, p),
        metric("engine.publish.clone_ms", "ms", clone, p),
        metric("engine.publish.merge_ms", "ms", merge, p),
        metric("engine.publish.solve_ms", "ms", solve, p),
        metric("engine.publish.replay_ms", "ms", replay, p),
        metric("engine.publish.build_ms", "ms", build, p),
        metric(
            "engine.publish.unattributed_ms",
            "ms",
            total_ms - (clone + merge + solve + replay + build),
            p,
        ),
        metric(
            "engine.publish.pair_merges",
            "count",
            ratio(merges, p as f64),
            p,
        ),
        metric(
            "engine.publish.elision_ratio",
            "ratio",
            ratio(elisions, p as f64),
            p,
        ),
        metric(
            "coreset.merge_ms_per_pair",
            "ms",
            ratio(merge_ns / 1e6, merges),
            merges as u64,
        ),
        metric(
            "coreset.size",
            "count",
            l.gauge("engine.snapshot.coreset_size") as f64,
            1,
        ),
        metric("coreset.effective_eps", "ratio", snap.effective_eps, 1),
        metric("kcenter.hint_ms", "ms", hint_ms, p),
        metric("kcenter.probes_ms", "ms", solve - hint_ms, p),
        metric(
            "kcenter.probes_per_solve",
            "count",
            ratio(probes, solves),
            solves as u64,
        ),
        metric(
            "kcenter.reuse_ratio",
            "ratio",
            ratio(reused, probes + reused),
            solves as u64,
        ),
        metric("kcenter.radius", "dist", snap.radius, 1),
        metric("kcenter.guess", "dist", snap.guess, 1),
        metric(
            "engine.merge_transient_words",
            "words",
            l.gauge("engine.merge.peak_transient_words") as f64,
            1,
        ),
        metric(
            "engine.shard_peak_words",
            "words",
            snap.stats.shard_peak_words as f64,
            1,
        ),
        metric(
            "serve.view_ns",
            "ns",
            ratio(l.view_ns as f64, views),
            l.view_probes,
        ),
        metric(
            "serve.assign_ns",
            "ns",
            ratio(l.assign_ns as f64, views),
            l.view_probes,
        ),
        metric(
            "serve.refresh_ms",
            "ms",
            ratio(traced.refresh_ns as f64 / 1e6, traced.refresh_calls as f64),
            traced.refresh_calls,
        ),
        metric(
            "serve.view_build_ms",
            "ms",
            ratio(l.build_ns as f64 / 1e6, l.builds as f64),
            l.builds,
        ),
        metric(
            "serve.covered_ratio",
            "ratio",
            ratio(traced.covered as f64, queries as f64),
            queries,
        ),
        metric("share.ingest", "share", share(traced.ingest_ns), 1),
        metric("share.publish", "share", share(traced.publish_ns), 1),
        metric("share.query", "share", share(traced.loop_query_ns), 1),
        metric("share.refresh", "share", share(traced.refresh_ns), 1),
        metric("obs.trace_overhead_pct", "%", overhead, traced.loop_ops),
    ]
}

/// Prints every metric, the failure ratio, and the JSON result line.
pub fn print(metrics: &[Metric], ops: &Ops) {
    let line = |name: &str, value: f64, unit: &str, samples: u64| {
        println!("{name:<32} {value:>22} {unit:<7} samples={samples}");
    };
    for m in metrics {
        line(m.name, m.value, m.unit, m.samples);
    }
    let fail_ratio = ratio(ops.failed as f64, ops.attempted as f64);
    line("fail_ratio", fail_ratio, "share", ops.attempted);
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted > 0 && ops.failed == 0,
        ops.attempted,
        ops.failed,
        fields.join(", ")
    );
}
