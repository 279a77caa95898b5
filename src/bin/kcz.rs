//! `kcz` — command-line front end for the k-center-with-outliers suite.
//!
//! Operates on 2-D points in CSV form (`x,y` or `x,y,weight` per line;
//! lines starting with `#` are skipped).
//!
//! ```text
//! kcz coreset --input pts.csv --k 3 --z 10 --eps 0.5 [--output core.csv]
//! kcz solve   --input pts.csv --k 3 --z 10 [--eps 0.5]
//! kcz stream  --input pts.csv --k 3 --z 10 --eps 0.5
//! kcz mpc     --input pts.csv --k 3 --z 10 --eps 0.5 --machines 8 \
//!             [--algorithm two_round|one_round|rround|baseline] [--rounds 3]
//! kcz engine  --shards 4 --batch 256 --k 3 --z 10 --eps 0.5 \
//!             [--incremental] \
//!             [--backend insertion|window] [--window W] \
//!             [--metrics m.json] [< pts.csv]
//! kcz query   --input pts.csv --requests req.csv --shards 4 --batch 256 \
//!             --k 3 --z 10 --eps 0.5 [--metrics m.json]
//! kcz conformance [--tier smoke|full] [--json <path>] [--metrics <path>]
//! ```
//!
//! `solve` runs the Charikar-et-al. greedy on an (ε,k,z)-coreset (or on
//! the raw input when `--eps` is omitted) and prints centers + radius.
//! `engine` feeds the stream (stdin when `--input` is omitted) through
//! the resident sharded engine in `--batch`-sized batches and prints the
//! final snapshot — merged coreset size, per-shard peak words, the
//! merge-composed ε′ and its certified `3 + 8ε′` bound factor.  With
//! `--incremental` it publishes after every batch (a resident serving
//! engine's cadence) instead of once at end.  The solve's probe count
//! goes to stderr.
//! `query` ingests the stream the same way, publishes a snapshot, and
//! answers the request file against it (`assign,x,y` / `classify,x,y,r`
//! / `nearest,x,y,j` per line) — the read side of the same engine.
//! `conformance` runs every pipeline over the shared scenario catalog,
//! checks each radius against its paper ratio bound, re-checks served
//! query answers against brute force on the published snapshot, and
//! certifies mid-stream window-backend publishes bit-for-bit against
//! from-scratch replays (exit 3 on any violation).
//!
//! `--help` or `-h`, alone or after any subcommand, prints the usage
//! text and exits 0.
//!
//! `--metrics <path>` (on `engine`, `query`, `conformance`) exports the
//! run's `kcz-metrics/v1` JSON — counters, gauges, latency histograms —
//! to `path` (`-` streams it to stderr).  The export never touches
//! stdout, so every byte-pinned golden stays byte-identical with
//! instrumentation enabled.

use kcenter_outliers::kcenter::charikar::GreedyParams;
use kcenter_outliers::prelude::*;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("kcz: error: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  kcz coreset --input <csv> --k <K> --z <Z> --eps <EPS> [--output <csv>]
  kcz solve   --input <csv> --k <K> --z <Z> [--eps <EPS>]
  kcz stream  --input <csv> --k <K> --z <Z> --eps <EPS>
  kcz mpc     --input <csv> --k <K> --z <Z> --eps <EPS> --machines <M>
              [--algorithm two_round|one_round|rround|baseline] [--rounds <R>]
  kcz engine  --shards <N> --batch <B> --k <K> --z <Z> --eps <EPS>
              [--incremental]
              [--backend insertion|window] [--window <W>]
              [--input <csv>] [--metrics <json>]
              (reads stdin when --input is omitted; --incremental
               publishes after every batch instead of once at end;
               --backend window requires --window)
  kcz query   --input <csv> --requests <file> --shards <N> --batch <B>
              --k <K> --z <Z> --eps <EPS> [--metrics <json>]
  kcz conformance [--tier smoke|full] [--json <path>] [--metrics <path>]
  kcz [<subcommand>] --help
  (point subcommands accept --metric l2|linf; the default is l2;
   --metrics writes the kcz-metrics/v1 export to <json>, or stderr
   for `-` — never stdout, keeping piped output byte-stable)";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let is_help = |a: &String| a == "--help" || a == "-h";
    // Reject unknown subcommands before demanding their flags, so the
    // diagnostic names the actual mistake (`kcz frobnicate` must not
    // fail with `missing --input`).  Every handler in `run_with_metric`
    // (plus `conformance`) must be listed here — a handler missing from
    // this gate is unreachable.
    const COMMANDS: &[&str] = &[
        "coreset",
        "solve",
        "stream",
        "mpc",
        "engine",
        "query",
        "conformance",
    ];
    if is_help(cmd) || (COMMANDS.contains(&cmd.as_str()) && args[1..].iter().any(is_help)) {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    if !COMMANDS.contains(&cmd.as_str()) {
        return Err(format!("unknown subcommand `{cmd}`"));
    }
    let flags = parse_flags(&args[1..])?;
    if cmd == "conformance" {
        return run_conformance_cmd(&flags);
    }
    if cmd == "engine" {
        check_flags(cmd, &flags, ENGINE_FLAGS)?;
    }
    // `engine` is the one subcommand meant to sit at the end of a pipe
    // (`kcz engine … < stream.csv`); everything else requires --input.
    let (input, points) = match flags.get("input") {
        Some(path) => (path.clone(), read_csv(path)?),
        None if cmd == "engine" => {
            let mut body = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut body)
                .map_err(|e| format!("reading stdin: {e}"))?;
            ("<stdin>".to_string(), parse_csv("<stdin>", &body)?)
        }
        None => return Err("missing --input".into()),
    };
    if points.is_empty() {
        return Err(format!("no points in {input}"));
    }
    let k: usize = parse(&flags, "k")?;
    let z: u64 = parse(&flags, "z")?;
    if k == 0 {
        return Err("--k must be at least 1".into());
    }

    // Every algorithm is generic over the metric; dispatch once here.
    match flags.get("metric").map(String::as_str) {
        None | Some("l2") => run_with_metric(L2, cmd, &flags, &points, k, z),
        Some("linf") => run_with_metric(Linf, cmd, &flags, &points, k, z),
        Some(other) => Err(format!("--metric must be l2 or linf, got `{other}`")),
    }
}

/// The conformance subcommand: run every pipeline over the scenario
/// catalog, print the verdict table, optionally write the JSON report,
/// and exit 3 if any paper ratio bound is violated.
fn run_conformance_cmd(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    // Conformance has no required flags, so a misspelled optional one
    // would otherwise be silently ignored (e.g. `--teir full` running the
    // smoke tier with exit 0).
    check_flags("conformance", flags, &["tier", "json", "metrics"])?;
    let tier = match flags.get("tier").map(String::as_str) {
        None | Some("smoke") => Tier::Smoke,
        Some("full") => Tier::Full,
        Some(other) => return Err(format!("--tier must be smoke or full, got `{other}`")),
    };
    let t0 = std::time::Instant::now();
    let report = run_conformance(tier);
    // `--json -` promises a machine-readable stdout: suppress the table
    // so the stream stays parseable.
    let json_to_stdout = flags.get("json").map(String::as_str) == Some("-");
    if !json_to_stdout {
        print!("{}", report.render_table());
    }
    let n_verdicts: usize = report.scenarios.iter().map(|s| s.verdicts.len()).sum();
    eprintln!(
        "conformance: {} pipelines x {} scenarios ({} verdicts) in {:.1?}",
        report.pipelines.len(),
        report.scenarios.len(),
        n_verdicts,
        t0.elapsed()
    );
    // The read side is judged too: every answer served from a published
    // snapshot is re-checked against brute force on that snapshot, and
    // the epoch's certified bound against the exact oracle.  Computed
    // before the JSON write so the machine-readable report records the
    // read-side verdicts instead of looking clean while exiting 3.
    let tq = std::time::Instant::now();
    let query_viols = query_violations(tier);
    eprintln!(
        "query conformance: {} scenarios re-checked in {:.1?}",
        report.scenarios.len(),
        tq.elapsed()
    );
    // The replay passes are judged too, each tagging its entries into
    // one `replay_violations` array.  Windowed epochs are certified
    // bit-for-bit against unexpired-suffix replays, plus live-membership
    // and a suffix-optimum bound check (`churn/`).
    let tc = std::time::Instant::now();
    let mut replay_viols = churn_violations(tier);
    eprintln!(
        "churn conformance: {} scenarios replayed in {:.1?}",
        report.scenarios.len(),
        tc.elapsed()
    );
    // The metrics layer's MPC communication accounting: every
    // algorithm is re-run per scenario and its per-round word counts
    // certified complete and registry-faithful (`obs/`).  The pass
    // always records into a live registry — `--metrics` only decides
    // whether the accumulated accounting is exported.
    let registry = Registry::new();
    let metrics = MetricsHandle::new(&registry);
    let to = std::time::Instant::now();
    replay_viols.extend(obs_violations(tier, &metrics));
    eprintln!(
        "obs conformance: {} scenarios re-run in {:.1?}",
        report.scenarios.len(),
        to.elapsed()
    );
    if let Some(path) = flags.get("metrics") {
        write_metrics(path, &registry)?;
    }
    if let Some(path) = flags.get("json") {
        let body = report.to_json_with_violations(&query_viols, &replay_viols);
        if path == "-" {
            print!("{body}");
        } else {
            std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    let mut violations = report.violations();
    violations.extend(query_viols);
    violations.extend(replay_viols);
    if violations.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &violations {
            eprintln!("conformance violation: {v}");
        }
        Ok(ExitCode::from(3))
    }
}

/// Runs one subcommand under the chosen metric (the whole pipeline —
/// coreset constructions, solvers, streaming, MPC — routes through the
/// batched `MetricSpace` kernels of the chosen metric).
fn run_with_metric<M: MetricSpace<[f64; 2]> + Copy + Send + Sync>(
    metric: M,
    cmd: &str,
    flags: &HashMap<String, String>,
    points: &[Weighted<[f64; 2]>],
    k: usize,
    z: u64,
) -> Result<ExitCode, String> {
    match cmd {
        "coreset" => {
            let eps = parse_eps(flags)?;
            let t0 = std::time::Instant::now();
            let mbc = mbc_construction(&metric, points, k, z, eps);
            eprintln!(
                "coreset: {} -> {} representatives in {:.1?} (greedy radius {:.4})",
                points.len(),
                mbc.len(),
                t0.elapsed(),
                mbc.greedy_radius
            );
            let body = render_csv(&mbc.reps);
            match flags.get("output") {
                Some(path) => {
                    std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?
                }
                None => print!("{body}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "solve" => {
            let summary: Vec<Weighted<[f64; 2]>> = match flags.get("eps") {
                Some(_) => {
                    let eps = parse_eps(flags)?;
                    mbc_construction(&metric, points, k, z, eps).reps
                }
                None => points.to_vec(),
            };
            let t0 = std::time::Instant::now();
            let sol = greedy(&metric, &summary, k, z);
            println!("radius: {:.6}", sol.radius);
            println!("uncovered_weight: {}", sol.uncovered);
            for c in &sol.centers {
                println!("center: {},{}", c[0], c[1]);
            }
            eprintln!(
                "(solved on {} points in {:.1?})",
                summary.len(),
                t0.elapsed()
            );
            Ok(ExitCode::SUCCESS)
        }
        "stream" => {
            let eps = streaming_eps(flags, &metric, k, z)?;
            let mut alg = InsertionOnlyCoreset::new(metric, k, z, eps);
            for p in points {
                alg.insert_weighted(p.point, p.weight);
            }
            let sol = greedy(&metric, alg.coreset(), k, z);
            println!(
                "points: {}  coreset: {}  peak_words: {}  rebuilds: {}  radius: {:.6}",
                alg.points_seen(),
                alg.coreset().len(),
                alg.peak_words(),
                alg.rebuilds(),
                sol.radius
            );
            Ok(ExitCode::SUCCESS)
        }
        "mpc" => {
            let eps = parse_eps(flags)?;
            let m: usize = parse(flags, "machines")?;
            if m == 0 {
                return Err("--machines must be at least 1".into());
            }
            let raw: Vec<[f64; 2]> = points.iter().map(|p| p.point).collect();
            let parts = round_robin(&raw, m);
            let params = GreedyParams::default();
            let default_alg = "two_round".to_string();
            let alg = flags.get("algorithm").unwrap_or(&default_alg);
            let out = match alg.as_str() {
                "two_round" => two_round(&metric, &parts, k, z, eps, &params).output,
                "one_round" => one_round_randomized(&metric, &parts, k, z, eps, &params).output,
                "rround" => {
                    let rounds: usize = match flags.get("rounds") {
                        Some(_) => parse(flags, "rounds")?,
                        None => 2,
                    };
                    if rounds == 0 {
                        return Err("--rounds must be at least 1".into());
                    }
                    r_round(&metric, &parts, k, z, eps, rounds, &params)
                }
                "baseline" => ceccarello_one_round(&metric, &parts, k, z, eps, &params),
                other => return Err(format!("unknown --algorithm {other}")),
            };
            let s = &out.stats;
            println!(
                "algorithm: {alg}  rounds: {}  machines: {}  worker_words: {}  \
                 coordinator_words: {}  comm_words: {}  coreset: {}",
                s.rounds,
                s.machines,
                s.worker_peak_words,
                s.coordinator_peak_words,
                s.comm_words,
                s.coreset_size
            );
            let sol = greedy(&metric, &out.coreset, k, z);
            println!(
                "radius: {:.6}  effective_eps: {:.3}",
                sol.radius, out.effective_eps
            );
            Ok(ExitCode::SUCCESS)
        }
        "engine" => {
            let eps = streaming_eps(flags, &metric, k, z)?;
            let shards: usize = parse(flags, "shards")?;
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            let batch: usize = parse(flags, "batch")?;
            if batch == 0 {
                return Err("--batch must be at least 1".into());
            }
            // `--incremental` publishes after every batch (a resident
            // serving engine's cadence); without it the engine
            // snapshots once at end of stream.
            let incremental = flags.contains_key("incremental");
            // `--backend window --window W` summarizes only the last W
            // arrivals.  The default insertion backend prints
            // byte-identical output to before backends existed.
            let backend = parse_backend(flags)?;
            // `--metrics` attaches a live registry; without it the
            // handle is disabled and every recording site is a no-op.
            let (registry, metrics, metrics_path) = metrics_setup(flags);
            let t0 = std::time::Instant::now();
            let cfg = EngineConfig::new(shards, k, z, eps).with_backend(backend);
            let engine = Engine::new(metric, cfg).with_metrics(&metrics);
            for chunk in points.chunks(batch) {
                engine.ingest_weighted(chunk);
                if incremental {
                    let _ = engine.publish();
                }
            }
            let snap = engine.snapshot();
            println!(
                "engine: shards={shards}  batch={batch}  points={}  batches={}  epoch={}",
                snap.stats.points, snap.stats.batches, snap.epoch
            );
            // The window backend reports its time state; the default
            // insertion mode prints nothing extra (byte-stable output).
            if let Backend::Window(w) = backend {
                let span = snap
                    .window_span()
                    .map_or_else(|| "empty".to_string(), |(lo, hi)| format!("{lo}..{hi}"));
                println!(
                    "backend: window  window={w}  clock={}  live_span={span}",
                    snap.clock
                );
            }
            println!(
                "coreset: {}  shard_peak_words: {}  merge_words: {}  effective_eps: {:.6}",
                snap.coreset.len(),
                snap.stats.shard_peak_words,
                snap.stats.merge_transient_words,
                snap.effective_eps
            );
            println!(
                "radius: {:.6}  bound_factor: {:.6}",
                snap.radius, snap.bound_factor
            );
            println!("uncovered_weight: {}", snap.uncovered);
            for c in &snap.centers {
                println!("center: {},{}", c[0], c[1]);
            }
            eprintln!(
                "(ingested {} points in {:.1?}; snapshot merged {} shards)",
                snap.stats.points,
                t0.elapsed(),
                shards
            );
            // Solve accounting stays on stderr, off the byte-pinned
            // clustering output above.
            eprintln!(
                "(solve: {} probes at epoch {})",
                snap.stats.solve_probes, snap.epoch
            );
            if let Some(path) = metrics_path {
                write_metrics(&path, &registry)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "query" => {
            let eps = streaming_eps(flags, &metric, k, z)?;
            let shards: usize = parse(flags, "shards")?;
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            let batch: usize = parse(flags, "batch")?;
            if batch == 0 {
                return Err("--batch must be at least 1".into());
            }
            let req_path = flags.get("requests").ok_or("missing --requests")?;
            let body = std::fs::read_to_string(req_path)
                .map_err(|e| format!("reading {req_path}: {e}"))?;
            let requests = parse_requests(req_path, &body)?;
            let (registry, metrics, metrics_path) = metrics_setup(flags);
            let t0 = std::time::Instant::now();
            let engine = std::sync::Arc::new(
                Engine::new(metric, EngineConfig::new(shards, k, z, eps)).with_metrics(&metrics),
            );
            for chunk in points.chunks(batch) {
                engine.ingest_weighted(chunk);
            }
            let query = QueryEngine::with_metrics(std::sync::Arc::clone(&engine), &metrics);
            let view = query.refresh();
            println!(
                "query: epoch={}  centers={}  coreset={}  effective_eps={:.6}  \
                 bound_factor={:.6}  radius={:.6}",
                view.epoch(),
                view.centers().len(),
                view.coreset().len(),
                view.effective_eps(),
                view.bound_factor(),
                view.radius()
            );
            // Requests route through the QueryEngine's instrumented
            // scalar methods; with no concurrent refresher they answer
            // from the same frozen view printed above.
            for req in &requests {
                match *req {
                    Request::Assign(p) => match query.assign(&p) {
                        Some(a) => println!(
                            "assign {},{}: center={} at={},{} dist={:.6}",
                            p[0],
                            p[1],
                            a.center,
                            view.centers()[a.center][0],
                            view.centers()[a.center][1],
                            a.dist
                        ),
                        None => println!("assign {},{}: none (no centers)", p[0], p[1]),
                    },
                    Request::Classify(p, r) => {
                        let c = query.classify(&p, r);
                        println!(
                            "classify {},{} r={}: {} dist={:.6} bound_factor={:.6}",
                            p[0],
                            p[1],
                            r,
                            if c.covered { "covered" } else { "outlier" },
                            c.dist,
                            c.bound_factor
                        );
                    }
                    Request::Nearest(p, j) => {
                        let near = query.nearest_centers(&p, j);
                        let mut line = format!("nearest {},{} j={j}:", p[0], p[1]);
                        for a in &near {
                            let _ = write!(
                                line,
                                " {}:{},{}:{:.6}",
                                a.center,
                                view.centers()[a.center][0],
                                view.centers()[a.center][1],
                                a.dist
                            );
                        }
                        println!("{line}");
                    }
                }
            }
            eprintln!(
                "(served {} requests from epoch {} in {:.1?})",
                requests.len(),
                view.epoch(),
                t0.elapsed()
            );
            if let Some(path) = metrics_path {
                write_metrics(&path, &registry)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        // Unreachable through `run` (the COMMANDS gate rejects unknown
        // names first); kept as a defensive error, not a panic.
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// One line of a `kcz query` request file.
enum Request {
    /// `assign,x,y` — which center serves the point?
    Assign([f64; 2]),
    /// `classify,x,y,r` — covered or outlier at radius `r`?
    Classify([f64; 2], f64),
    /// `nearest,x,y,j` — the `j` nearest centers, ascending.
    Nearest([f64; 2], usize),
}

/// Parses a request file: `assign,x,y` / `classify,x,y,r` /
/// `nearest,x,y,j` per line, `#` comments and blank lines skipped.
fn parse_requests(path: &str, body: &str) -> Result<Vec<Request>, String> {
    let mut out = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let err = |what: &str| format!("{path}:{}: {what}: `{line}`", lineno + 1);
        let coord = |s: &str, what: &str| -> Result<f64, String> {
            let v: f64 = s.parse().map_err(|_| err(what))?;
            if !v.is_finite() {
                return Err(err("non-finite coordinate"));
            }
            Ok(v)
        };
        let point = |f: &[&str]| -> Result<[f64; 2], String> {
            Ok([coord(f[0], "bad x")?, coord(f[1], "bad y")?])
        };
        match (fields[0], fields.len()) {
            ("assign", 3) => out.push(Request::Assign(point(&fields[1..])?)),
            ("classify", 4) => {
                let p = point(&fields[1..3])?;
                let r: f64 = fields[3].parse().map_err(|_| err("bad radius"))?;
                if r.is_nan() || r < 0.0 {
                    return Err(err("radius must be non-negative"));
                }
                out.push(Request::Classify(p, r));
            }
            ("nearest", 4) => {
                let p = point(&fields[1..3])?;
                let j: usize = fields[3].parse().map_err(|_| err("bad j"))?;
                out.push(Request::Nearest(p, j));
            }
            ("assign" | "classify" | "nearest", _) => {
                return Err(err("wrong field count for request"))
            }
            _ => return Err(err("expected assign/classify/nearest request")),
        }
    }
    Ok(out)
}

/// Parses the `kcz engine` backend choice and validates its flag
/// combinations: `--window` belongs to `--backend window` (which
/// requires it); anything else is a usage error (exit 2).
fn parse_backend(flags: &HashMap<String, String>) -> Result<Backend, String> {
    let name = flags
        .get("backend")
        .map(String::as_str)
        .unwrap_or("insertion");
    match name {
        "insertion" => {
            if flags.contains_key("window") {
                return Err("--window requires --backend window".into());
            }
            Ok(Backend::Insertion)
        }
        "window" => {
            let w: u64 = parse(flags, "window")?;
            if w == 0 {
                return Err("--window must be at least 1".into());
            }
            Ok(Backend::Window(w))
        }
        other => Err(format!(
            "--backend must be insertion or window, got `{other}`"
        )),
    }
}

/// `--metrics` instrumentation for a subcommand: an enabled handle
/// backed by the returned registry when the flag is present, a disabled
/// (zero-overhead) handle otherwise.
fn metrics_setup(flags: &HashMap<String, String>) -> (Registry, MetricsHandle, Option<String>) {
    let registry = Registry::new();
    match flags.get("metrics") {
        Some(path) => (
            registry.clone(),
            MetricsHandle::new(&registry),
            Some(path.clone()),
        ),
        None => (registry, MetricsHandle::disabled(), None),
    }
}

/// Writes the registry's `kcz-metrics/v1` export to `path`, or to
/// stderr for `-`.  Stdout is reserved for the subcommand's byte-pinned
/// output, so goldens stay stable with instrumentation enabled.
fn write_metrics(path: &str, registry: &Registry) -> Result<(), String> {
    let body = registry.to_json();
    if path == "-" {
        eprint!("{body}");
        Ok(())
    } else {
        std::fs::write(path, body).map_err(|e| format!("writing metrics {path}: {e}"))
    }
}

/// Flags that take no value: presence is the value.
const BOOL_FLAGS: &[&str] = &["incremental"];

/// Every flag `engine` reads.
const ENGINE_FLAGS: &[&str] = &[
    "input",
    "metric",
    "shards",
    "batch",
    "k",
    "z",
    "eps",
    "incremental",
    "backend",
    "window",
    "metrics",
];

/// Rejects any flag `cmd` does not read: a misspelled or retired
/// optional flag would otherwise be silently ignored.
fn check_flags(cmd: &str, flags: &HashMap<String, String>, known: &[&str]) -> Result<(), String> {
    match flags.keys().find(|k| !known.contains(&k.as_str())) {
        Some(unknown) => Err(format!("unknown flag --{unknown} for {cmd}")),
        None => Ok(()),
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{a}`"));
        };
        if BOOL_FLAGS.contains(&name) {
            out.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for --{name}"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    let raw = flags.get(name).ok_or(format!("missing --{name}"))?;
    raw.parse()
        .map_err(|_| format!("invalid value `{raw}` for --{name}"))
}

/// Every algorithm in the suite requires ε ∈ (0, 1].
fn parse_eps(flags: &HashMap<String, String>) -> Result<f64, String> {
    let eps: f64 = parse(flags, "eps")?;
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(format!("--eps must be in (0, 1], got {eps}"));
    }
    Ok(eps)
}

/// `--eps` for the subcommands built on the insertion-only streaming
/// structure (`stream`, `engine`, `query`), whose capacity
/// `k(16/ε)^d + z` must fit in a `u64`: a budget that saturates it
/// (`--z 18446744073709551615` among them) is a usage error, not a run.
fn streaming_eps<M: MetricSpace<[f64; 2]>>(
    flags: &HashMap<String, String>,
    metric: &M,
    k: usize,
    z: u64,
) -> Result<f64, String> {
    let eps = parse_eps(flags)?;
    if streaming_capacity(k, z, eps, metric.doubling_dim()) == u64::MAX {
        return Err(format!(
            "--k {k} and --z {z} saturate the streaming capacity k(16/ε)^d + z"
        ));
    }
    Ok(eps)
}

fn read_csv(path: &str) -> Result<Vec<Weighted<[f64; 2]>>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_csv(path, &body)
}

fn parse_csv(path: &str, body: &str) -> Result<Vec<Weighted<[f64; 2]>>, String> {
    let mut out = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let err = |what: &str| format!("{path}:{}: {what}: `{line}`", lineno + 1);
        if fields.len() < 2 || fields.len() > 3 {
            return Err(err("expected `x,y` or `x,y,weight`"));
        }
        let x: f64 = fields[0].parse().map_err(|_| err("bad x"))?;
        let y: f64 = fields[1].parse().map_err(|_| err("bad y"))?;
        if !x.is_finite() || !y.is_finite() {
            return Err(err("non-finite coordinate"));
        }
        let w: u64 = if fields.len() == 3 {
            fields[2].parse().map_err(|_| err("bad weight"))?
        } else {
            1
        };
        if w == 0 {
            return Err(err("zero weight"));
        }
        out.push(Weighted::new([x, y], w));
    }
    Ok(out)
}

fn render_csv(points: &[Weighted<[f64; 2]>]) -> String {
    let mut s = String::with_capacity(points.len() * 24);
    s.push_str("# x,y,weight\n");
    for p in points {
        let _ = writeln!(s, "{},{},{}", p.point[0], p.point[1], p.weight);
    }
    s
}
