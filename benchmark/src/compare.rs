//! `compare A B`: applies the end-to-end bounds to two sets of result
//! documents. Each workload gets its own row per metric, every ratio is
//! printed with its base, and a metric whose baseline spread exceeds
//! its bound is reported as *unresolved*, not as unchanged.

use crate::report::{Better, END_TO_END};
use crate::stats::{median, quartile_spread};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Per workload, per end-to-end metric: the value of every run.
#[derive(Default, Debug)]
pub struct RunSet {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Failed ops over attempted ops, per workload.
    pub failed_fraction: BTreeMap<String, f64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Unchanged,
    Improved,
    Regressed,
    /// The baseline's own runs spread wider than the bound and the two
    /// sides' runs overlap: nothing can be said.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: f64,
    pub new: f64,
    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative = better), whatever the metric's direction.
    pub worse_by: f64,
    pub bound: f64,
    pub base_spread: Option<f64>,
    pub verdict: Verdict,
}

/// Adds the untraced runs of one result document to `set`. Documents
/// from `--quick` runs are refused: they are not a second set of numbers.
pub fn add_document(set: &mut RunSet, text: &str, origin: &str) -> Result<(), String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("{origin}: {e}"))?;
    if doc.get("comparable") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{origin}: marked non-comparable (a --quick run); refusing to compare it"
        ));
    }
    let runs = doc
        .get("runs")
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("{origin}: no runs"))?;
    let mut attempts: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for run in runs
        .iter()
        .filter(|r| r.get("trace") == Some(&Value::Bool(false)))
    {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{origin}: run without a workload"))?;
        let number = |key: &str| {
            run.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{origin}: {workload} has no {key}"))
        };
        let a = attempts.entry(workload.to_string()).or_default();
        a.0 += number("failed")?;
        a.1 += number("attempted")?;
        for m in &END_TO_END {
            let v = run
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|e| e.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{origin}: {workload} has no {}", m.name))?;
            set.values
                .entry(workload.to_string())
                .or_default()
                .entry(m.name.to_string())
                .or_default()
                .push(v);
        }
    }
    for (w, (failed, attempted)) in attempts {
        let e = set.failed_fraction.entry(w).or_default();
        *e = e.max(failed / attempted.max(1.0));
    }
    Ok(())
}

/// Reads a result file, or every `*.json` result file of a directory.
pub fn load(path: &Path) -> Result<RunSet, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for e in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = e.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut set = RunSet::default();
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        add_document(&mut set, &text, &f.display().to_string())?;
    }
    if set.values.is_empty() {
        return Err(format!("{}: no untraced runs found", path.display()));
    }
    Ok(set)
}

fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (f64, Option<f64>, Verdict) {
    let (base, new) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    let spread = (a.len() >= 2).then(|| quartile_spread(a));
    let is_worse = |x: f64, y: f64| {
        if better == Better::Lower {
            x > y
        } else {
            x < y
        }
    };
    let verdict = if spread.is_some_and(|s| s > bound) {
        // Too noisy to resolve, unless one side's runs all beat the other's.
        if b.iter().all(|&x| a.iter().all(|&y| is_worse(y, x))) {
            Verdict::Improved
        } else if b.iter().all(|&x| a.iter().all(|&y| is_worse(x, y))) && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, spread, verdict)
}

/// Every (workload, end-to-end metric) pairing present on both sides.
pub fn compare(a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, metrics_a) in &a.values {
        let Some(metrics_b) = b.values.get(workload) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(m.name), metrics_b.get(m.name)) else {
                continue;
            };
            let (worse_by, base_spread, verdict) = judge(m.better, m.bound, va, vb);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                unit: m.unit,
                base: median(va),
                new: median(vb),
                worse_by,
                bound: m.bound,
                base_spread,
                verdict,
            });
        }
    }
    rows
}

/// Workloads on which `b` fails a larger share of its ops than `a`.
pub fn failure_regressions(a: &RunSet, b: &RunSet) -> Vec<String> {
    b.failed_fraction
        .iter()
        .filter(|(w, &fb)| fb > a.failed_fraction.get(*w).copied().unwrap_or(0.0))
        .map(|(w, fb)| {
            format!(
                "{w}: failed_fraction {fb} (base {})",
                a.failed_fraction.get(w).copied().unwrap_or(0.0)
            )
        })
        .collect()
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<26} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict\n",
        "workload", "metric", "base (A)", "new (B)", "worse by", "bound", "A spread"
    );
    for r in rows {
        out += &format!(
            "{:<22} {:<26} {:>14} {:>14} {:>8.2}% {:>6.1}% {:>8}  {}\n",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            format!("{:.6}", r.base),
            format!("{:.6}", r.new),
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.base_spread
                .map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
            match r.verdict {
                Verdict::Unchanged => "unchanged",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Outcome;
    use crate::report::{document, run_value, Meta};

    fn doc(workload: &str, scale: impl Fn(&str) -> f64, quick: bool) -> String {
        let mut o = Outcome {
            attempted: 100,
            ..Outcome::default()
        };
        for m in &END_TO_END {
            o.put(m.name, 100.0 * scale(m.name), m.unit);
        }
        document(
            &Meta {
                seed: 1,
                seconds: 15.0,
                t: 2,
                quick,
            },
            vec![run_value(workload, false, &o)],
        )
    }

    fn set(docs: &[String]) -> RunSet {
        let mut s = RunSet::default();
        for d in docs {
            add_document(&mut s, d, "test").unwrap();
        }
        s
    }

    #[test]
    fn identical_pair_passes() {
        let a = set(&[doc("dump_write", |_| 1.0, false)]);
        let b = set(&[doc("dump_write", |_| 1.0, false)]);
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows
            .iter()
            .all(|r| r.verdict == Verdict::Unchanged && r.worse_by == 0.0));
        assert!(failure_regressions(&a, &b).is_empty());
    }

    #[test]
    fn twice_the_bound_is_flagged_in_the_metrics_own_direction() {
        for m in &END_TO_END {
            let worse = match m.better {
                Better::Lower => 1.0 + 2.0 * m.bound,
                Better::Higher => 1.0 - 2.0 * m.bound,
            };
            let a = set(&[doc("warm_serve", |_| 1.0, false)]);
            let b = set(&[doc(
                "warm_serve",
                |n| if n == m.name { worse } else { 1.0 },
                false,
            )]);
            for r in compare(&a, &b) {
                let want = if r.metric == m.name {
                    Verdict::Regressed
                } else {
                    Verdict::Unchanged
                };
                assert_eq!(r.verdict, want, "{} while moving {}", r.metric, m.name);
            }
            // The same move the other way is an improvement, not a regression.
            let rows = compare(&b, &a);
            assert!(rows.iter().all(|r| r.verdict != Verdict::Regressed));
        }
    }

    #[test]
    fn noisy_baseline_is_unresolved_not_unchanged() {
        // throughput runs of A: 80, 100, 120 (spread 40% > 10% bound).
        let a = set(&[0.8, 1.0, 1.2].map(|k| {
            doc(
                "dump_write",
                move |n| if n == "throughput_mbps" { k } else { 1.0 },
                false,
            )
        }));
        let b = set(&[doc("dump_write", |_| 1.0, false)]);
        let row = compare(&a, &b)
            .into_iter()
            .find(|r| r.metric == "throughput_mbps")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let b = set(&[doc(
            "dump_write",
            |n| if n == "throughput_mbps" { 2.0 } else { 1.0 },
            false,
        )]);
        let row = compare(&a, &b)
            .into_iter()
            .find(|r| r.metric == "throughput_mbps")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Improved);
    }

    #[test]
    fn quick_documents_are_refused() {
        let mut s = RunSet::default();
        let err =
            add_document(&mut s, &doc("dump_write", |_| 1.0, true), "quick.json").unwrap_err();
        assert!(err.contains("non-comparable"), "{err}");
    }

    #[test]
    fn a_higher_failed_fraction_is_a_regression() {
        let a = set(&[doc("dump_write", |_| 1.0, false)]);
        let mut o = Outcome {
            attempted: 100,
            failed: 1,
            ..Outcome::default()
        };
        for m in &END_TO_END {
            o.put(m.name, 100.0, m.unit);
        }
        let b = set(&[document(
            &Meta {
                seed: 1,
                seconds: 15.0,
                t: 2,
                quick: false,
            },
            vec![run_value("dump_write", false, &o)],
        )]);
        assert_eq!(failure_regressions(&a, &b).len(), 1);
    }
}
