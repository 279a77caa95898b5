//! Running the catalog and judging the verdicts.
//!
//! For oracle scenarios the judge is [`kcz_kcenter::exact_discrete`] over
//! the scenario's distinct points; a verdict *violates* conformance when
//!
//! * its excluded-outlier weight exceeds `z`,
//! * its radius is not finite,
//! * it carries a [`RadiusBound`](crate::pipeline::RadiusBound) and
//!   `radius > factor·opt + additive`, or
//! * its radius is *impossibly good* — below `opt/2`, which no genuine
//!   k-center solution can reach (the discrete optimum is at most twice
//!   the continuous one), signalling an objective mismatch rather than a
//!   clever algorithm.

use kcz_kcenter::exact_discrete;
use kcz_metric::total_weight;

use crate::pipeline::{all_pipelines, Verdict};
use crate::scenario::{catalog, Scenario, Tier};

/// All verdicts for one scenario, plus the oracle radius when available.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// `exact_discrete` optimum over the distinct points (oracle
    /// scenarios only).
    pub exact: Option<f64>,
    /// One verdict per pipeline, in pipeline order.
    pub verdicts: Vec<Verdict>,
}

/// The whole conformance run.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Which tier was run.
    pub tier: Tier,
    /// Pipeline names, in the order verdicts are listed.
    pub pipelines: Vec<&'static str>,
    /// Per-scenario results.
    pub scenarios: Vec<ScenarioReport>,
}

/// Ground truth for an oracle scenario: the optimal radius with centers
/// restricted to the distinct input points.  `None` for non-oracle
/// scenarios.
pub fn exact_radius(sc: &Scenario) -> Option<f64> {
    if !sc.oracle {
        return None;
    }
    let candidates = sc.distinct_points();
    if candidates.is_empty() {
        return Some(0.0);
    }
    Some(exact_discrete(&kcz_metric::L2, &sc.weighted(), sc.k, sc.z, &candidates).radius)
}

/// Runs every pipeline over the tier's catalog.
///
/// Scenarios are mapped over the workspace's shared worker pool
/// ([`kcz_engine::runtime::global`]) — the full tier's large instances
/// run concurrently, and `scoped_map`'s order preservation keeps the
/// report (and thus the golden JSON) deterministic.  Pipelines that fan
/// out internally (MPC rounds, engine shards) nest on the same pool.
pub fn run_conformance(tier: Tier) -> ConformanceReport {
    let pipelines = all_pipelines();
    let names: Vec<&'static str> = pipelines.iter().map(|p| p.name()).collect();
    let scenarios = kcz_engine::runtime::global().scoped_map(catalog(tier), |_, sc| {
        let exact = exact_radius(&sc);
        let verdicts = pipelines.iter().map(|p| p.run(&sc)).collect();
        ScenarioReport {
            scenario: sc,
            exact,
            verdicts,
        }
    });
    ConformanceReport {
        tier,
        pipelines: names,
        scenarios,
    }
}

/// Whether a verdict satisfies its bound against the oracle radius.
/// `None` when either the bound or the oracle is absent.
pub fn within_bound(v: &Verdict, exact: Option<f64>) -> Option<bool> {
    let (b, e) = (v.bound?, exact?);
    Some(v.radius <= b.factor * e + b.additive)
}

impl ConformanceReport {
    /// Every conformance violation in the run, as human-readable lines.
    /// Empty means the run conforms.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for sr in &self.scenarios {
            let sc = &sr.scenario;
            let total = total_weight(&sc.weighted());
            for v in &sr.verdicts {
                let tag = format!("{} / {}", sc.name, v.pipeline);
                if !v.radius.is_finite() {
                    out.push(format!("{tag}: non-finite radius {}", v.radius));
                    continue;
                }
                if v.uncovered > sc.z && total > sc.z {
                    out.push(format!(
                        "{tag}: excluded weight {} exceeds z = {}",
                        v.uncovered, sc.z
                    ));
                }
                if let Some(false) = within_bound(v, sr.exact) {
                    let b = v.bound.expect("within_bound requires a bound");
                    out.push(format!(
                        "{tag}: radius {:.6} > {:.2}·opt + {:.3} (opt = {:.6})",
                        v.radius,
                        b.factor,
                        b.additive,
                        sr.exact.expect("within_bound requires the oracle"),
                    ));
                }
                if let Some(e) = sr.exact {
                    if v.radius < e / 2.0 - 1e-9 {
                        out.push(format!(
                            "{tag}: radius {:.6} below opt/2 = {:.6} — objective mismatch",
                            v.radius,
                            e / 2.0
                        ));
                    }
                }
            }
        }
        out
    }

    /// Machine-readable JSON (hand-rolled: the workspace is offline and
    /// carries no serde).  Key order and float formatting (6 decimals)
    /// are fixed, so the output is golden-testable.  Equivalent to
    /// [`to_json_with_violations`](Self::to_json_with_violations) with
    /// no read-side or incremental verdicts.
    pub fn to_json(&self) -> String {
        self.to_json_with_violations(&[], &[])
    }

    /// [`to_json`](Self::to_json) with the read side's verdicts folded
    /// in; see [`to_json_with_violations`](Self::to_json_with_violations).
    pub fn to_json_with_query_violations(&self, query_violations: &[String]) -> String {
        self.to_json_with_violations(query_violations, &[])
    }

    /// [`to_json`](Self::to_json) with the out-of-band verdicts folded
    /// in: the query-conformance check ([`crate::query_violations`]) and
    /// the replay passes — churn backends and MPC accounting, tagged
    /// `churn/` and `obs/` — are judged out of band of the pipeline
    /// verdicts, but a machine-read report must not look clean while the
    /// run exits 3: the trailing `query_violations` and
    /// `replay_violations` arrays record what failed.
    pub fn to_json_with_violations(
        &self,
        query_violations: &[String],
        replay_violations: &[String],
    ) -> String {
        let mut s = String::with_capacity(1 << 14);
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"tier\": \"{}\",\n",
            match self.tier {
                Tier::Smoke => "smoke",
                Tier::Full => "full",
            }
        ));
        s.push_str("  \"pipelines\": [");
        for (i, p) in self.pipelines.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{p}\""));
        }
        s.push_str("],\n  \"scenarios\": [\n");
        for (si, sr) in self.scenarios.iter().enumerate() {
            let sc = &sr.scenario;
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", sc.name));
            s.push_str(&format!(
                "      \"n\": {}, \"k\": {}, \"z\": {}, \"eps\": {},\n",
                sc.len(),
                sc.k,
                sc.z,
                fmt_f64(sc.eps)
            ));
            s.push_str(&format!("      \"exact\": {},\n", fmt_opt(sr.exact)));
            s.push_str("      \"verdicts\": [\n");
            for (vi, v) in sr.verdicts.iter().enumerate() {
                let ratio = match sr.exact {
                    Some(e) if e > 0.0 && v.radius.is_finite() => fmt_f64(v.radius / e),
                    _ => "null".to_string(),
                };
                let (bf, ba) = match v.bound {
                    Some(b) => (fmt_f64(b.factor), fmt_f64(b.additive)),
                    None => ("null".to_string(), "null".to_string()),
                };
                let wb = match within_bound(v, sr.exact) {
                    Some(b) => b.to_string(),
                    None => "null".to_string(),
                };
                s.push_str(&format!(
                    "        {{\"pipeline\": \"{}\", \"radius\": {}, \"ratio\": {}, \
                     \"uncovered\": {}, \"centers\": {}, \"coreset_size\": {}, \
                     \"space_words\": {}, \"rounds\": {}, \"bound_factor\": {}, \
                     \"bound_additive\": {}, \"within_bound\": {}}}{}\n",
                    v.pipeline,
                    fmt_opt(v.radius.is_finite().then_some(v.radius)),
                    ratio,
                    v.uncovered,
                    v.centers,
                    v.coreset_size,
                    v.space_words,
                    v.rounds,
                    bf,
                    ba,
                    wb,
                    if vi + 1 < sr.verdicts.len() { "," } else { "" }
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if si + 1 < self.scenarios.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n  \"query_violations\": [");
        push_string_array(&mut s, query_violations);
        s.push_str("],\n  \"replay_violations\": [");
        push_string_array(&mut s, replay_violations);
        s.push_str("]\n}\n");
        s
    }

    /// A fixed-width text table for terminal consumption.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        for sr in &self.scenarios {
            let sc = &sr.scenario;
            s.push_str(&format!(
                "scenario {:<22} n={:<5} k={} z={:<3} {}\n",
                sc.name,
                sc.len(),
                sc.k,
                sc.z,
                match sr.exact {
                    Some(e) => format!("opt={e:.4}"),
                    None => "opt=n/a".to_string(),
                }
            ));
            for v in &sr.verdicts {
                let ratio = match sr.exact {
                    Some(e) if e > 0.0 && v.radius.is_finite() => format!("{:>6.3}", v.radius / e),
                    _ => "     -".to_string(),
                };
                let ok = match within_bound(v, sr.exact) {
                    Some(true) => "ok",
                    Some(false) => "VIOLATION",
                    None => "--",
                };
                s.push_str(&format!(
                    "  {:<18} radius={:<12.6} ratio={ratio} excl={:<3} summary={:<5} \
                     words={:<7} rounds={} {}\n",
                    v.pipeline, v.radius, v.uncovered, v.coreset_size, v.space_words, v.rounds, ok
                ));
            }
        }
        s
    }
}

/// Appends the comma-separated, escaped body of a JSON string array.
fn push_string_array(s: &mut String, items: &[String]) {
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        ));
    }
}

fn fmt_f64(x: f64) -> String {
    format!("{x:.6}")
}

fn fmt_opt(x: Option<f64>) -> String {
    match x {
        Some(v) => fmt_f64(v),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_agrees_with_planted_zero() {
        let sc = catalog(Tier::Smoke)
            .into_iter()
            .find(|s| s.name == "identical_points")
            .unwrap();
        assert_eq!(exact_radius(&sc), Some(0.0));
        let sc = catalog(Tier::Smoke)
            .into_iter()
            .find(|s| s.name == "budget_swallows_all")
            .unwrap();
        assert_eq!(exact_radius(&sc), Some(0.0));
    }

    #[test]
    fn json_shape_is_parseable_enough() {
        // One tiny synthetic report; full runs are exercised by the
        // facade's integration tests.
        let sc = catalog(Tier::Smoke)
            .into_iter()
            .find(|s| s.name == "duplicate_mass")
            .unwrap();
        let pipelines = all_pipelines();
        let report = ConformanceReport {
            tier: Tier::Smoke,
            pipelines: pipelines.iter().map(|p| p.name()).collect(),
            scenarios: vec![ScenarioReport {
                exact: exact_radius(&sc),
                verdicts: pipelines.iter().map(|p| p.run(&sc)).collect(),
                scenario: sc,
            }],
        };
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"tier\": \"smoke\""));
        assert!(json.contains("\"pipeline\": \"offline/charikar\""));
        assert!(json.contains("\"within_bound\": "));
        assert!(json.contains("\"query_violations\": []"));
        assert!(json.contains("\"replay_violations\": []"));
        // Out-of-band verdicts fold into the machine-readable report (so
        // a failing run never writes a clean-looking JSON), escaped
        // safely.  Replay-pass entries ride one array under their tags.
        let with_viols = report.to_json_with_violations(
            &[r#"x / query/assign: "bad" answer"#.to_string()],
            &[
                "y / churn/window/replay: diverged".to_string(),
                "z / obs/mpc/two_round/rounds: words do not sum".to_string(),
            ],
        );
        assert!(with_viols.contains(r#""query_violations": ["x / query/assign: \"bad\" answer"]"#));
        assert!(with_viols.contains(
            r#""replay_violations": ["y / churn/window/replay: diverged", "z / obs/mpc/two_round/rounds: words do not sum"]"#
        ));
        assert_eq!(json.matches("\"name\": ").count(), 1);
        // Balanced braces/brackets (a cheap structural check without a
        // JSON parser in the dependency set).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        assert!(report.render_table().contains("duplicate_mass"));
    }
}
