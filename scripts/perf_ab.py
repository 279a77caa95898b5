#!/usr/bin/env python3
"""Paired A/B runs of two built kcz-perfbench binaries.

Runs every workload that BENCHMARK.json lists, at its `run_seconds`, once
per seed on each side.  Pairs alternate which side runs first, so drift
of the host hits both sides alike.  Each run's last standard-output line
is its JSON result.  For every workload and end-to-end metric the script
reports each side's median and quartiles, the median change/parent ratio
over the pairs with its min and max, how many pairs the change won, and
a verdict against the metric's `bound` and `better`; and for every
workload each side's share of failed ops.  It writes all of that, with
every run's raw values, to the output JSON file, prints the same table,
and exits 1 when any metric regresses or the change fails a larger share
of ops than the parent.

Verdicts, per metric (medians m, parent quartiles q1..q3):
  regression  the change's median is worse than the parent's by more
              than `bound` (as a share of the parent's median);
  gain        the change won at least 9 of every 10 pairs and the
              medians differ by more than the parent's q3 - q1;
  unresolved  neither of the above, and the parent's q3 - q1 exceeds
              `bound` times its median, unless every change run reads
              better than every parent run;
  flat        otherwise.

Usage:
  scripts/perf_ab.py --parent PARENT_BIN --change CHANGE_BIN \\
      --seeds 1,2,3 --out ab.json

Both binaries must be built with the same settings, e.g.
  cargo build --release --offline --manifest-path perfbench/Cargo.toml
in a checkout of each commit, each with its own CARGO_TARGET_DIR.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    """(q1, median, q3) of `values`, by linear interpolation."""
    v = sorted(values)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], statistics.median(v), q[2]


def run_once(binary, workload, seed, seconds):
    """One perfbench run; returns its parsed JSON result line."""
    cmd = [
        str(binary),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better); None when `parent` is zero."""
    if parent == 0:
        return None if change != parent else 0.0
    rel = (change - parent) / abs(parent)
    return rel if better == "lower" else -rel


def judge(metric, parent_vals, change_vals):
    better, bound = metric["better"], metric["bound"]
    p1, pm, p3 = quartiles(parent_vals)
    c1, cm, c3 = quartiles(change_vals)
    ratios = [c / p for p, c in zip(parent_vals, change_vals) if p != 0]
    wins = sum(
        1
        for p, c in zip(parent_vals, change_vals)
        if (c < p if better == "lower" else c > p)
    )
    pairs = len(parent_vals)
    worse = worse_by(pm, cm, better)
    if better == "lower":
        all_better = max(change_vals) < min(parent_vals)
    else:
        all_better = min(change_vals) > max(parent_vals)
    iqr = p3 - p1
    if worse is not None and worse > bound:
        verdict = "regression"
    elif wins * 10 >= 9 * pairs and abs(cm - pm) > iqr and cm != pm:
        verdict = "gain"
    elif iqr > bound * abs(pm) and not all_better:
        verdict = "unresolved"
    else:
        verdict = "flat"
    return {
        "unit": metric["unit"],
        "better": better,
        "bound": bound,
        "parent": {"q1": p1, "median": pm, "q3": p3, "runs": parent_vals},
        "change": {"q1": c1, "median": cm, "q3": c3, "runs": change_vals},
        "median_ratio": statistics.median(ratios) if ratios else None,
        "min_ratio": min(ratios) if ratios else None,
        "max_ratio": max(ratios) if ratios else None,
        "wins": wins,
        "pairs": pairs,
        "verdict": verdict,
    }


def fail_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 0.0


def fmt(x):
    if x is None:
        return "-"
    if x == 0 or 1e-3 <= abs(x) < 1e5:
        return f"{x:.4g}"
    return f"{x:.3e}"


def table(report):
    rows = [
        ("workload", "metric", "parent med [q1, q3]", "change med [q1, q3]",
         "ratio med (min..max)", "wins", "verdict")
    ]
    for wl in report["workloads"]:
        for name, m in wl["metrics"].items():
            p, c = m["parent"], m["change"]
            rows.append((
                wl["name"],
                name,
                f"{fmt(p['median'])} [{fmt(p['q1'])}, {fmt(p['q3'])}]",
                f"{fmt(c['median'])} [{fmt(c['q1'])}, {fmt(c['q3'])}]",
                f"{fmt(m['median_ratio'])} ({fmt(m['min_ratio'])}..{fmt(m['max_ratio'])})",
                f"{m['wins']}/{m['pairs']}",
                m["verdict"],
            ))
        rows.append((
            wl["name"],
            "failed-op share",
            fmt(wl["parent_fail_share"]),
            fmt(wl["change_fail_share"]),
            "", "", "regression" if wl["fail_regression"] else "ok",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--seeds", required=True,
                    help="comma-separated seeds, one pair per seed")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    bench = json.loads(BENCHMARK.read_text())
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        ap.error("--seeds needs at least one seed")
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    for binary in (args.parent, args.change):
        if not binary.is_file():
            ap.error(f"{binary} is not a file")
    # Absolute paths: `Path("./bin")` prints as `bin`, which `subprocess`
    # would look up on PATH.  The report keeps the paths as given.
    binaries = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {
        "parent": str(args.parent),
        "change": str(args.change),
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": [],
    }
    regressed = False
    for name in names:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                t0 = time.monotonic()
                runs[side].append(run_once(binaries[side], name, seed, seconds))
                print(f"# {name} seed {seed} {side}: {time.monotonic() - t0:.1f} s",
                      file=sys.stderr, flush=True)
        metrics = {}
        for metric in bench["end_to_end"]:
            key = metric["name"]
            if not all(key in r["metrics"] for side in runs.values() for r in side):
                continue
            metrics[key] = judge(
                metric,
                [r["metrics"][key]["value"] for r in runs["parent"]],
                [r["metrics"][key]["value"] for r in runs["change"]],
            )
        pf, cf = fail_share(runs["parent"]), fail_share(runs["change"])
        fail_regression = cf > pf
        regressed |= fail_regression or any(
            m["verdict"] == "regression" for m in metrics.values()
        )
        report["workloads"].append({
            "name": name,
            "metrics": metrics,
            "parent_fail_share": pf,
            "change_fail_share": cf,
            "fail_regression": fail_regression,
        })
        # Written after every workload, so an interrupted session keeps
        # what finished.
        args.out.write_text(json.dumps(report, indent=2) + "\n")

    report["regression"] = regressed
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(table(report))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
