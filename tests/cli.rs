//! End-to-end tests of the `kcz` command-line tool.

use std::process::Command;

fn kcz() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kcz"))
}

fn write_points(dir: &std::path::Path) -> std::path::PathBuf {
    let mut body = String::from("# two clusters + one outlier\n");
    for i in 0..20 {
        body.push_str(&format!("{}.5,0.25\n", i % 4));
        body.push_str(&format!("{}.5,100.0\n", i % 4));
    }
    body.push_str("5000,5000\n");
    let path = dir.join("pts.csv");
    std::fs::write(&path, body).unwrap();
    path
}

#[test]
fn solve_reports_radius_and_centers() {
    let dir = std::env::temp_dir().join("kcz_cli_solve");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_points(&dir);
    let out = kcz()
        .args([
            "solve",
            "--input",
            input.to_str().unwrap(),
            "--k",
            "2",
            "--z",
            "1",
        ])
        .output()
        .expect("run kcz");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("radius:"), "{stdout}");
    assert_eq!(stdout.matches("center:").count(), 2, "{stdout}");
    // The outlier must be discardable: radius covers only the clusters.
    let radius: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("radius: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(radius < 10.0, "radius {radius} should exclude the outlier");
}

#[test]
fn coreset_roundtrips_through_csv() {
    let dir = std::env::temp_dir().join("kcz_cli_coreset");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_points(&dir);
    let output = dir.join("core.csv");
    let st = kcz()
        .args([
            "coreset",
            "--input",
            input.to_str().unwrap(),
            "--k",
            "2",
            "--z",
            "1",
            "--eps",
            "1.0",
            "--output",
            output.to_str().unwrap(),
        ])
        .status()
        .expect("run kcz");
    assert!(st.success());
    // The produced file is valid input again; total weight is preserved.
    let out = kcz()
        .args([
            "solve",
            "--input",
            output.to_str().unwrap(),
            "--k",
            "2",
            "--z",
            "1",
        ])
        .output()
        .expect("run kcz on coreset");
    assert!(out.status.success());
    let body = std::fs::read_to_string(&output).unwrap();
    let total: u64 = body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.rsplit(',').next().unwrap().trim().parse::<u64>().unwrap())
        .sum();
    assert_eq!(total, 41, "weight preservation through the CLI");
}

#[test]
fn stream_and_mpc_subcommands_run() {
    let dir = std::env::temp_dir().join("kcz_cli_misc");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_points(&dir);
    let out = kcz()
        .args([
            "stream",
            "--input",
            input.to_str().unwrap(),
            "--k",
            "2",
            "--z",
            "1",
            "--eps",
            "0.5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("peak_words"));

    for alg in ["two_round", "one_round", "rround", "baseline"] {
        let out = kcz()
            .args([
                "mpc",
                "--input",
                input.to_str().unwrap(),
                "--k",
                "2",
                "--z",
                "1",
                "--eps",
                "0.5",
                "--machines",
                "3",
                "--algorithm",
                alg,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{alg}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("coreset:"),
            "{alg}"
        );
    }
}

#[test]
fn stream_inserts_a_weighted_line_once() {
    // A line of weight w stands for w co-located arrivals and is inserted
    // once: weight 3 prints what three unit lines print, and weight 10¹²
    // finishes at once.
    let dir = std::env::temp_dir().join("kcz_cli_stream_weight");
    std::fs::create_dir_all(&dir).unwrap();
    let stream = |name: &str, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        let out = kcz()
            .args(["stream", "--input", path.to_str().unwrap()])
            .args(["--k", "2", "--z", "1", "--eps", "0.5"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{name}");
        String::from_utf8(out.stdout).unwrap()
    };
    let (head, tail) = ("0,1\n7,7\n", "40,2\n3,5\n");
    let weighted = stream("weighted.csv", &format!("{head}3,4,3\n{tail}"));
    let unit = stream("unit.csv", &format!("{head}3,4\n3,4\n3,4\n{tail}"));
    assert_eq!(weighted, unit);
    assert!(weighted.starts_with("points: 7 "), "{weighted}");
    let heavy = stream("heavy.csv", "0,0,1000000000000\n5,5\n");
    assert!(heavy.starts_with("points: 1000000000001 "), "{heavy}");
}

#[test]
fn solve_golden_output_on_committed_fixture() {
    // `greedy` is deterministic, so the full stdout for the committed
    // fixture is pinned byte-for-byte.  The two centers are the weighted
    // centroids of the planted unit squares (covering radius √2/2) and the
    // far outlier is the one uncovered unit of weight.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let out = kcz()
        .args(["solve", "--input", fixture, "--k", "2", "--z", "1"])
        .output()
        .expect("run kcz");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout,
        "radius: 0.707107\n\
         uncovered_weight: 1\n\
         center: 100.5,100.5\n\
         center: 0.5,0.5\n"
    );
    // Beyond byte equality: the lines parse back into numbers.
    let radius: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("radius: "))
        .unwrap()
        .parse()
        .unwrap();
    assert!((radius - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
    for line in stdout.lines().filter(|l| l.starts_with("center: ")) {
        let (x, y) = line["center: ".len()..].split_once(',').unwrap();
        x.parse::<f64>().unwrap();
        y.parse::<f64>().unwrap();
    }
}

#[test]
fn solve_golden_output_linf_metric() {
    // Same committed fixture under --metric linf: the unit squares have
    // corner-to-centroid distance exactly 0.5 under L∞ (vs √2/2 under
    // L2), so the pinned radius certifies the metric actually switched.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let out = kcz()
        .args([
            "solve", "--input", fixture, "--k", "2", "--z", "1", "--metric", "linf",
        ])
        .output()
        .expect("run kcz");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout,
        "radius: 0.500000\n\
         uncovered_weight: 1\n\
         center: 100.5,100.5\n\
         center: 0.5,0.5\n"
    );
    // --metric l2 must reproduce the default golden output byte-for-byte.
    let explicit = kcz()
        .args([
            "solve", "--input", fixture, "--k", "2", "--z", "1", "--metric", "l2",
        ])
        .output()
        .expect("run kcz");
    assert!(explicit.status.success());
    assert!(String::from_utf8_lossy(&explicit.stdout).starts_with("radius: 0.707107\n"));
}

#[test]
fn conformance_smoke_matches_committed_golden() {
    // The conformance run is deterministic end to end (fixed generator
    // seeds, order-preserving parallel map, 6-decimal formatting), so the
    // full JSON report for the smoke tier is pinned byte-for-byte.  Any
    // drift — a scenario change, an adapter's bound, a solver regression
    // that shifts a radius — must show up as a conscious golden update.
    let dir = std::env::temp_dir().join("kcz_cli_conformance");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("conformance.json");
    let out = kcz()
        .args([
            "conformance",
            "--tier",
            "smoke",
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("run kcz conformance");
    assert!(
        out.status.success(),
        "conformance violations?\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scenario gaussian_blobs"), "{stdout}");
    assert!(!stdout.contains("VIOLATION"), "{stdout}");
    let got = std::fs::read_to_string(&json_path).unwrap();
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/conformance_golden.json"
    ))
    .unwrap();
    assert_eq!(
        got, golden,
        "conformance report drifted from the committed golden \
         (tests/fixtures/conformance_golden.json); regenerate it with \
         `kcz conformance --json tests/fixtures/conformance_golden.json` \
         if the change is intentional"
    );
}

#[test]
fn conformance_rejects_bad_flags() {
    let out = kcz()
        .args(["conformance", "--tier", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tier must be smoke or full"));
    // Misspelled optional flags must not be silently ignored (conformance
    // has no required flags to surface them indirectly).
    let out = kcz()
        .args(["conformance", "--teir", "full"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --teir"));
}

#[test]
fn bad_inputs_fail_cleanly() {
    let dir = std::env::temp_dir().join("kcz_cli_bad");
    std::fs::create_dir_all(&dir).unwrap();
    // Unknown subcommand.
    let out = kcz().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    // Malformed CSV.
    let bad = dir.join("bad.csv");
    std::fs::write(&bad, "1.0,nope\n").unwrap();
    let out = kcz()
        .args([
            "solve",
            "--input",
            bad.to_str().unwrap(),
            "--k",
            "1",
            "--z",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad y"));
    // Missing flag.
    let out = kcz().args(["solve", "--k", "1"]).output().unwrap();
    assert!(!out.status.success());
    // Degenerate parameters fail with a clean error, not a panic.
    let good = dir.join("good.csv");
    std::fs::write(&good, "0,0\n1,1\n").unwrap();
    let out = kcz()
        .args([
            "solve",
            "--input",
            good.to_str().unwrap(),
            "--k",
            "0",
            "--z",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--k must be at least 1"));
    let out = kcz()
        .args([
            "mpc",
            "--input",
            good.to_str().unwrap(),
            "--k",
            "1",
            "--z",
            "0",
            "--eps",
            "0.5",
            "--machines",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--machines must be at least 1"));
    // ε outside (0, 1] and degenerate/malformed --rounds: clean exit 2.
    for (args, needle) in [
        (
            vec!["stream", "--k", "1", "--z", "0", "--eps", "0"],
            "--eps must be in (0, 1]",
        ),
        (
            vec!["coreset", "--k", "1", "--z", "0", "--eps", "1.5"],
            "--eps must be in (0, 1]",
        ),
        (
            vec![
                "mpc",
                "--k",
                "1",
                "--z",
                "0",
                "--eps",
                "0.5",
                "--machines",
                "2",
                "--algorithm",
                "rround",
                "--rounds",
                "oops",
            ],
            "invalid value `oops` for --rounds",
        ),
        (
            vec![
                "mpc",
                "--k",
                "1",
                "--z",
                "0",
                "--eps",
                "0.5",
                "--machines",
                "2",
                "--algorithm",
                "rround",
                "--rounds",
                "0",
            ],
            "--rounds must be at least 1",
        ),
        (
            vec!["solve", "--k", "1", "--z", "0", "--metric", "manhattan"],
            "--metric must be l2 or linf",
        ),
        (
            vec![
                "stream", "--k", "1", "--z", "0", "--eps", "0.5", "--metric", "",
            ],
            "--metric must be l2 or linf",
        ),
    ] {
        let mut cmd = kcz();
        cmd.arg(args[0]).args(["--input", good.to_str().unwrap()]);
        cmd.args(&args[1..]);
        let out = cmd.output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(needle),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn engine_golden_output_on_committed_fixture() {
    // The resident engine is deterministic end to end (value-hash
    // routing with a fixed seed, order-preserving pool map, one flat
    // merge in shard order), so the full stdout for the committed fixture is
    // pinned byte-for-byte — the same stream the CI `engine-smoke` step
    // pipes through `kcz engine --shards 4 --batch 256`.
    use std::process::Stdio;
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_golden.txt"
    );
    let child = kcz()
        .args([
            "engine", "--shards", "4", "--batch", "256", "--k", "2", "--z", "1", "--eps", "0.5",
        ])
        .stdin(Stdio::from(std::fs::File::open(fixture).unwrap()))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run kcz engine");
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let expected = std::fs::read_to_string(golden).unwrap();
    assert_eq!(
        stdout, expected,
        "engine snapshot drifted from the committed golden \
         (tests/fixtures/engine_golden.txt); regenerate it with \
         `kcz engine --shards 4 --batch 256 --k 2 --z 1 --eps 0.5 \
         < tests/fixtures/golden.csv` if the change is intentional"
    );
    // --input <file> must produce the identical snapshot (same stream,
    // same routing) — stdin vs file is a transport detail.
    let via_file = kcz()
        .args([
            "engine", "--input", fixture, "--shards", "4", "--batch", "256", "--k", "2", "--z",
            "1", "--eps", "0.5",
        ])
        .output()
        .unwrap();
    assert!(via_file.status.success());
    assert_eq!(String::from_utf8_lossy(&via_file.stdout), expected);
}

#[test]
fn engine_incremental_golden_and_mode_equality() {
    // `--incremental` publishes after every batch, reusing clean shard
    // leaves between epochs — pinned
    // against a committed golden (the same file the CI `engine-smoke`
    // step diffs).  Publishing per batch is a cadence, not a different
    // answer: apart from the epoch count, the output equals a single
    // publish at end of stream.
    use std::process::Stdio;
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_incremental_golden.txt"
    );
    let run = |extra: &[&str]| {
        let child = kcz()
            .args([
                "engine", "--shards", "8", "--batch", "4", "--k", "2", "--z", "1", "--eps", "0.5",
            ])
            .args(extra)
            .stdin(Stdio::from(std::fs::File::open(fixture).unwrap()))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run kcz engine");
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let incremental = run(&["--incremental"]);
    let expected = std::fs::read_to_string(golden).unwrap();
    assert_eq!(
        incremental, expected,
        "incremental snapshot drifted from the committed golden \
         (tests/fixtures/engine_incremental_golden.txt); regenerate it \
         with `kcz engine --shards 8 --batch 4 --k 2 --z 1 --eps 0.5 \
         --incremental < tests/fixtures/golden.csv` if the change is \
         intentional"
    );
    // A publish per batch: the final epoch counts the batches.
    assert!(incremental.contains("epoch=3"), "{incremental}");
    let once = run(&[]);
    assert!(once.contains("epoch=1"), "{once}");
    assert_eq!(
        incremental.lines().skip(1).collect::<Vec<_>>(),
        once.lines().skip(1).collect::<Vec<_>>(),
        "per-batch publishing must end on the same snapshot as one publish"
    );
}

#[test]
fn engine_reports_probes_on_stderr_and_rejects_unknown_flags() {
    // The solve's probe count goes to stderr only, so stdout stays on
    // the incremental golden.  A flag `engine` does not read, such as
    // the retired `--solver`, is a clean usage error: exit 2 with a
    // one-line diagnostic naming it, never silently ignored.
    use std::process::Stdio;
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_incremental_golden.txt"
    );
    let args = [
        "engine",
        "--shards",
        "8",
        "--batch",
        "4",
        "--k",
        "2",
        "--z",
        "1",
        "--eps",
        "0.5",
        "--incremental",
    ];
    let child = kcz()
        .args(args)
        .stdin(Stdio::from(std::fs::File::open(fixture).unwrap()))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run kcz engine");
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        std::fs::read_to_string(golden).unwrap()
    );
    let probes = err
        .lines()
        .find_map(|l| l.strip_prefix("(solve: "))
        .and_then(|l| l.strip_suffix(" probes at epoch 3)"))
        .unwrap_or_else(|| panic!("no solve line on stderr: {err}"));
    assert!(probes.parse::<usize>().unwrap() > 0, "{err}");
    for extra in [
        ["--solver", "cold"],
        ["--solver", "delta"],
        ["--shard", "2"],
    ] {
        let out = kcz()
            .args(args)
            .args(["--input", fixture])
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        let first = err.lines().next().unwrap_or_default();
        assert_eq!(
            first,
            format!("kcz: error: unknown flag {} for engine", extra[0]),
            "{err}"
        );
    }
}

#[test]
fn engine_sharding_reports_wider_eps_but_same_fixture_radius() {
    // One shard is exactly the single-stream insertion-only pipeline:
    // ε′ = ε, bound factor 3 + 8ε.  Eight shards pay one recompression
    // of the union of their leaves, whatever the shard count:
    // ε′ = 1.5ε, bound factor 3 + 12ε.  The certified factor widens, the
    // measured radius on this easy fixture must not.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let run = |shards: &str| {
        let out = kcz()
            .args([
                "engine", "--input", fixture, "--shards", shards, "--batch", "4", "--k", "2",
                "--z", "1", "--eps", "0.5",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "shards={shards}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let one = run("1");
    assert!(one.contains("effective_eps: 0.500000"), "{one}");
    assert!(one.contains("bound_factor: 7.000000"), "{one}");
    let eight = run("8");
    assert!(eight.contains("effective_eps: 0.750000"), "{eight}");
    assert!(eight.contains("bound_factor: 9.000000"), "{eight}");
    for s in [&one, &eight] {
        assert!(s.contains("radius: 0.707107"), "{s}");
        assert!(s.contains("uncovered_weight: 1"), "{s}");
    }
}

#[test]
fn query_golden_output_on_committed_fixture() {
    // The whole serving path is deterministic: fixed routing seed,
    // memoized publish, exact kernel distances, 6-decimal formatting —
    // so the full stdout for the committed request file is pinned
    // byte-for-byte (the same pair the CI `query-smoke` step diffs).
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let requests = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/queries.csv");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/query_golden.txt"
    );
    let out = kcz()
        .args([
            "query",
            "--input",
            fixture,
            "--requests",
            requests,
            "--shards",
            "4",
            "--batch",
            "256",
            "--k",
            "2",
            "--z",
            "1",
            "--eps",
            "0.5",
        ])
        .output()
        .expect("run kcz query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let expected = std::fs::read_to_string(golden).unwrap();
    assert_eq!(
        stdout, expected,
        "served answers drifted from the committed golden \
         (tests/fixtures/query_golden.txt); regenerate it with \
         `kcz query --input tests/fixtures/golden.csv --requests \
         tests/fixtures/queries.csv --shards 4 --batch 256 --k 2 --z 1 \
         --eps 0.5` if the change is intentional"
    );
    // The served epoch matches the engine golden for the same stream:
    // one publish of the same shards/batch ingest.
    assert!(stdout.starts_with("query: epoch=1  centers=2"), "{stdout}");
}

#[test]
fn query_rejects_bad_requests_with_exit_2() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let dir = std::env::temp_dir().join("kcz_cli_query_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let write_req = |name: &str, body: &str| {
        let p = dir.join(name);
        std::fs::write(&p, body).unwrap();
        p.to_str().unwrap().to_string()
    };
    for (req_body, needle) in [
        (
            "frobnicate,1,2\n",
            "expected assign/classify/nearest request",
        ),
        ("assign,1\n", "wrong field count for request"),
        ("assign,1,nope\n", "bad y"),
        ("classify,1,2,-3\n", "radius must be non-negative"),
        ("classify,1,2,oops\n", "bad radius"),
        ("nearest,1,2,-1\n", "bad j"),
        ("assign,inf,2\n", "non-finite coordinate"),
    ] {
        let req = write_req("req.csv", req_body);
        let out = kcz()
            .args([
                "query",
                "--input",
                fixture,
                "--requests",
                &req,
                "--shards",
                "2",
                "--batch",
                "16",
                "--k",
                "2",
                "--z",
                "1",
                "--eps",
                "0.5",
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "request `{req_body}`");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "request `{req_body}`: {stderr}");
        // The one-line message convention: first stderr line carries the
        // diagnostic, usage follows.
        assert!(
            stderr.lines().next().unwrap().contains(needle),
            "diagnostic must be on the first line: {stderr}"
        );
    }
    // Missing / unreadable request file and missing flags: same contract.
    for (args, needle) in [
        (
            vec![
                "query", "--shards", "2", "--batch", "16", "--k", "2", "--z", "1", "--eps", "0.5",
            ],
            "missing --requests",
        ),
        (
            vec![
                "query",
                "--requests",
                "/nonexistent/req.csv",
                "--shards",
                "2",
                "--batch",
                "16",
                "--k",
                "2",
                "--z",
                "1",
                "--eps",
                "0.5",
            ],
            "reading /nonexistent/req.csv",
        ),
        (
            vec![
                "query",
                "--requests",
                "also-irrelevant",
                "--shards",
                "0",
                "--batch",
                "16",
                "--k",
                "2",
                "--z",
                "1",
                "--eps",
                "0.5",
            ],
            "--shards must be at least 1",
        ),
        (
            vec![
                "query",
                "--requests",
                "also-irrelevant",
                "--shards",
                "2",
                "--batch",
                "0",
                "--k",
                "2",
                "--z",
                "1",
                "--eps",
                "0.5",
            ],
            "--batch must be at least 1",
        ),
    ] {
        let mut cmd = kcz();
        cmd.args(&args).args(["--input", fixture]);
        let out = cmd.output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(needle),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_subcommand_exits_2_with_one_line_message() {
    let out = kcz().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap();
    assert!(
        first.contains("unknown subcommand `frobnicate`"),
        "{stderr}"
    );
    // No subcommand at all follows the same convention.
    let out = kcz().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .next()
            .unwrap()
            .contains("missing subcommand"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn help_prints_usage_and_exits_0_on_every_subcommand() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["engine", "--help"],
        &["engine", "--shards", "4", "-h"],
        &["query", "--help"],
        &["conformance", "-h"],
        &["solve", "--help"],
    ] {
        let out = kcz().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage:"), "{args:?}: {stdout}");
        assert!(stdout.contains("kcz engine"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
    // An unknown subcommand stays an error even with --help.
    let out = kcz().args(["frobnicate", "--help"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn engine_rejects_the_retired_precision_flag() {
    // The engine has one storage mode, so `--precision` is a flag it
    // does not read: a clean usage error naming it, for any value.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    for value in ["f32", "f64"] {
        let out = kcz()
            .args([
                "engine",
                "--input",
                fixture,
                "--shards",
                "4",
                "--batch",
                "256",
                "--k",
                "2",
                "--z",
                "1",
                "--eps",
                "0.5",
                "--precision",
                value,
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--precision {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err.lines().next().unwrap_or_default(),
            "kcz: error: unknown flag --precision for engine",
            "{err}"
        );
        assert!(out.stdout.is_empty(), "--precision {value}");
    }
}

#[test]
fn engine_window_golden_output_on_committed_fixture() {
    // `--backend window --window 8` expires the three oldest arrivals of
    // the committed fixture (weighted rows occupy one stamp each, so the
    // clock reads 11 while `points` counts weight 14): the origin
    // cluster loses its corners and the nearest live location `1,1`
    // becomes a center.  The whole path is deterministic, so the full
    // stdout is pinned byte-for-byte — the same stream the CI
    // `churn-smoke` step diffs.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_window_golden.txt"
    );
    let out = kcz()
        .args([
            "engine",
            "--input",
            fixture,
            "--shards",
            "4",
            "--batch",
            "4",
            "--k",
            "2",
            "--z",
            "1",
            "--eps",
            "0.5",
            "--backend",
            "window",
            "--window",
            "8",
        ])
        .output()
        .expect("run kcz engine");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let expected = std::fs::read_to_string(golden).unwrap();
    assert_eq!(
        stdout, expected,
        "windowed snapshot drifted from the committed golden \
         (tests/fixtures/engine_window_golden.txt); regenerate it with \
         `kcz engine --input tests/fixtures/golden.csv --shards 4 \
         --batch 4 --k 2 --z 1 --eps 0.5 --backend window --window 8` \
         if the change is intentional"
    );
    // The windowed epoch reports its live stamp span and the widened ε′
    // (one extra ε on top of the recompression's 1.5ε).
    assert!(stdout.contains("live_span=4..11"), "{stdout}");
    assert!(stdout.contains("effective_eps: 1.250000"), "{stdout}");
    // `--backend insertion` is the default spelled out: byte-identical
    // to the pre-backend engine golden.
    let explicit = kcz()
        .args([
            "engine",
            "--input",
            fixture,
            "--shards",
            "4",
            "--batch",
            "256",
            "--k",
            "2",
            "--z",
            "1",
            "--eps",
            "0.5",
            "--backend",
            "insertion",
        ])
        .output()
        .unwrap();
    assert!(explicit.status.success());
    let insertion_golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_golden.txt"
    ))
    .unwrap();
    assert_eq!(
        String::from_utf8_lossy(&explicit.stdout),
        insertion_golden,
        "explicit --backend insertion must match the default-mode golden"
    );
}

#[test]
fn engine_window_of_u64_max_matches_a_window_longer_than_the_stream() {
    // A window past the clock expires nothing, however wide it is: the
    // expiry test `stamp + W <= clock` must saturate at `u64::MAX`, not
    // wrap and expire every arrival (or panic in a debug build).
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let run = |window: &str| {
        let out = kcz()
            .args([
                "engine",
                "--input",
                fixture,
                "--shards",
                "4",
                "--batch",
                "4",
                "--k",
                "2",
                "--z",
                "1",
                "--eps",
                "0.5",
                "--backend",
                "window",
                "--window",
                window,
            ])
            .output()
            .expect("run kcz engine");
        assert!(
            out.status.success(),
            "--window {window}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout)
            .expect("utf-8 stdout")
            .replace(&format!("window={window} "), "window=W ")
    };
    let widest = run(&u64::MAX.to_string());
    assert!(widest.contains("coreset: 11 "), "{widest}");
    assert_eq!(widest, run("1000000"));
}

#[test]
fn a_saturated_outlier_budget_is_rejected_or_run_never_a_panic() {
    // At `--z 18446744073709551615` the streaming capacity k(16/ε)^d + z
    // saturates: the subcommands built on the streaming structure exit 2
    // with a one-line diagnostic, and every other subcommand runs.  No
    // run may panic (exit 101) on an overflowing sum, and none may
    // report an empty coreset for the non-empty fixture.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let requests = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/queries.csv");
    let z = u64::MAX.to_string();
    let run = |args: &[&str], z: &str| {
        let out = kcz()
            .args(args)
            .args(["--input", fixture, "--k", "2", "--z", z])
            .output()
            .expect("run kcz");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!stdout.contains("coreset: 0"), "{args:?} --z {z}: {stdout}");
        (out.status.code(), stdout, stderr)
    };
    let engine = ["engine", "--shards", "4", "--batch", "4", "--eps", "0.5"];
    let window = [&engine[..], &["--backend", "window", "--window", "8"]].concat();
    let query = [
        "query",
        "--requests",
        requests,
        "--shards",
        "4",
        "--batch",
        "256",
        "--eps",
        "0.5",
    ];
    for args in [&["stream", "--eps", "0.5"][..], &engine, &window, &query] {
        let (code, stdout, stderr) = run(args, &z);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.contains("saturate the streaming capacity"),
            "{args:?}: {stderr}"
        );
    }
    let mpc = ["mpc", "--eps", "0.5", "--machines", "3", "--algorithm"];
    for args in [
        &["solve"][..],
        &["solve", "--eps", "0.5"],
        &["coreset", "--eps", "1.0"],
        &[&mpc[..], &["two_round"]].concat(),
        &[&mpc[..], &["one_round"]].concat(),
        &[&mpc[..], &["rround"]].concat(),
        &[&mpc[..], &["baseline"]].concat(),
    ] {
        let (code, _, stderr) = run(args, &z);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
    // A budget far past the stream but short of saturating still runs
    // the window engine, which keeps min(w, z + 1) copies per arrival:
    // all 8 live arrivals.
    let (code, stdout, stderr) = run(&window, "4294967296");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("coreset: 8 "), "{stdout}");
}

#[test]
fn engine_rejects_bad_backend_flags() {
    // Unknown backends (a deleted one among them), a retired backend
    // flag and an orphaned `--window`: clean exit 2 with the diagnostic
    // on the first stderr line, never a silent insertion-mode run.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let base = [
        "engine", "--shards", "2", "--batch", "4", "--k", "1", "--z", "0", "--eps", "0.5",
    ];
    for (extra, needle) in [
        (
            vec!["--backend", "bogus"],
            "--backend must be insertion or window",
        ),
        (
            vec!["--backend", "decay"],
            "--backend must be insertion or window",
        ),
        (
            vec!["--half-life", "32"],
            "unknown flag --half-life for engine",
        ),
        (vec!["--backend", "window"], "missing --window"),
        (vec!["--window", "8"], "--window requires --backend window"),
        (
            vec!["--backend", "insertion", "--window", "8"],
            "--window requires --backend window",
        ),
        (
            vec!["--backend", "window", "--window", "0"],
            "--window must be at least 1",
        ),
        (
            vec!["--backend", "window", "--window", "oops"],
            "invalid value `oops` for --window",
        ),
    ] {
        let mut cmd = kcz();
        cmd.args(base).args(["--input", fixture]).args(&extra);
        let out = cmd.output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{extra:?}: {stderr}");
        assert!(
            stderr.lines().next().unwrap().contains(needle),
            "diagnostic must be on the first line: {stderr}"
        );
    }
}

#[test]
fn engine_rejects_bad_flags() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    for (args, needle) in [
        (
            vec![
                "engine", "--batch", "4", "--k", "1", "--z", "0", "--eps", "0.5",
            ],
            "missing --shards",
        ),
        (
            vec![
                "engine", "--shards", "0", "--batch", "4", "--k", "1", "--z", "0", "--eps", "0.5",
            ],
            "--shards must be at least 1",
        ),
        (
            vec![
                "engine", "--shards", "2", "--batch", "0", "--k", "1", "--z", "0", "--eps", "0.5",
            ],
            "--batch must be at least 1",
        ),
        (
            vec![
                "engine", "--shards", "2", "--batch", "4", "--k", "1", "--z", "0", "--eps", "2.0",
            ],
            "--eps must be in (0, 1]",
        ),
    ] {
        let mut cmd = kcz();
        cmd.args(&args).args(["--input", fixture]);
        let out = cmd.output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(needle),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn engine_metrics_export_keeps_stdout_golden() {
    // `--metrics` must be a pure side channel: the instrumented run's
    // stdout stays byte-identical to the committed golden, and the
    // export lands in the file as schema-tagged kcz-metrics/v1 JSON
    // whose counters match the fixture's known stream shape.
    use std::process::Stdio;
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_golden.txt"
    );
    let dir = std::env::temp_dir().join("kcz_cli_metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("engine_metrics.json");
    let child = kcz()
        .args([
            "engine",
            "--shards",
            "4",
            "--batch",
            "256",
            "--k",
            "2",
            "--z",
            "1",
            "--eps",
            "0.5",
            "--metrics",
        ])
        .arg(&metrics)
        .stdin(Stdio::from(std::fs::File::open(fixture).unwrap()))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run kcz engine --metrics");
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::fs::read_to_string(golden).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "--metrics must not perturb the byte-pinned stdout"
    );
    let body = std::fs::read_to_string(&metrics).unwrap();
    assert!(body.contains("\"schema\": \"kcz-metrics/v1\""), "{body}");
    // The fixture holds 14 points in one 256-point batch, one publish.
    assert!(body.contains("\"engine.ingest.points\": 14"), "{body}");
    assert!(body.contains("\"engine.ingest.batches\": 1"), "{body}");
    assert!(body.contains("\"engine.publish.solves\": 1"), "{body}");
    assert!(body.contains("engine.publish.total_ns"), "{body}");
}

#[test]
fn query_metrics_export_records_the_served_batchless_requests() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    let requests = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/queries.csv");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/query_golden.txt"
    );
    let dir = std::env::temp_dir().join("kcz_cli_metrics_query");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("query_metrics.json");
    let mut cmd = kcz();
    cmd.args([
        "query",
        "--input",
        fixture,
        "--requests",
        requests,
        "--shards",
        "4",
        "--batch",
        "256",
        "--k",
        "2",
        "--z",
        "1",
        "--eps",
        "0.5",
        "--metrics",
    ]);
    let out = cmd.arg(&metrics).output().expect("run kcz query --metrics");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        std::fs::read_to_string(golden).unwrap(),
        "--metrics must not perturb the byte-pinned stdout"
    );
    let body = std::fs::read_to_string(&metrics).unwrap();
    assert!(body.contains("\"schema\": \"kcz-metrics/v1\""), "{body}");
    // Every request line in the committed fixture is served through the
    // QueryEngine's instrumented scalar path (the initial view already
    // carries the data, so the explicit refresh is the memoized no-op).
    let served = std::fs::read_to_string(requests)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .count();
    assert!(
        body.contains(&format!("\"query.scalar.queries\": {served}")),
        "expected {served} served scalar queries in {body}"
    );
    assert!(body.contains("\"query.refreshes\": 0"), "{body}");
}

#[test]
fn metrics_to_unwritable_path_exits_2_and_dash_streams_to_stderr() {
    use std::process::Stdio;
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.csv");
    // A path in a missing directory is a usage error: exit 2, stdout
    // already printed (the metrics write is the last act), usage on
    // stderr.
    let child = kcz()
        .args([
            "engine",
            "--shards",
            "4",
            "--batch",
            "256",
            "--k",
            "2",
            "--z",
            "1",
            "--eps",
            "0.5",
            "--metrics",
            "/nonexistent-kcz-dir/m.json",
        ])
        .stdin(Stdio::from(std::fs::File::open(fixture).unwrap()))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("writing metrics"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    // `--metrics -` streams the export to stderr, keeping stdout golden.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_golden.txt"
    );
    let child = kcz()
        .args([
            "engine",
            "--shards",
            "4",
            "--batch",
            "256",
            "--k",
            "2",
            "--z",
            "1",
            "--eps",
            "0.5",
            "--metrics",
            "-",
        ])
        .stdin(Stdio::from(std::fs::File::open(fixture).unwrap()))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        std::fs::read_to_string(golden).unwrap()
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("\"schema\": \"kcz-metrics/v1\""),
        "dash export missing from stderr"
    );
}
