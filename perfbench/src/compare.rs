//! `perfbench compare A B [--across-commits]`: the run-agreement report.
//!
//! A and B are files holding the stdout of any number of benchmark runs
//! (one set of runs each). For every (workload, metric) pair the report
//! prints each set's median and quartiles, the change of B's median
//! against A's, and the two-sided Mann–Whitney U p-value from
//! `spec_stats`. For end-to-end metrics it also applies the manifest's
//! bound: B's median may be worse than A's by at most the bound.
//!
//! Runs are pooled only when their host fingerprints match: CPU count,
//! block size, SIMD state and compiler must be equal everywhere, and
//! the commit too unless `--across-commits` is given.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;
use spec_stats::nonparametric::mann_whitney_u;

use crate::spans::{median, quartiles};
use crate::{Manifest, Result, MANIFEST};

struct Record {
    workload: String,
    host: Value,
    metrics: Vec<(String, f64)>,
}

fn read_records(path: &str) -> Result<Vec<Record>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"perfbench_record\"")) {
        let value: Value = serde_json::from_str(line)?;
        let rec = value
            .get("perfbench_record")
            .ok_or("malformed record line")?;
        let Some(Value::Object(metrics)) = rec.get("metrics") else {
            return Err(format!("{path}: record without metrics").into());
        };
        out.push(Record {
            workload: rec
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("record without workload")?
                .to_owned(),
            host: rec.get("host").cloned().unwrap_or(Value::Null),
            metrics: metrics
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
        });
    }
    if out.is_empty() {
        return Err(format!("{path} holds no perfbench_record lines").into());
    }
    Ok(out)
}

/// The fingerprint with or without the commit.
fn fingerprint(host: &Value, with_commit: bool) -> Value {
    match host {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| with_commit || k != "commit")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

pub fn main(args: &[String]) -> Result<i32> {
    let across_commits = args.iter().any(|a| a == "--across-commits");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: perfbench compare <runs-a> <runs-b> [--across-commits]".into());
    };
    let manifest = Manifest::load(Path::new(MANIFEST))?;
    let a = read_records(a_path)?;
    let b = read_records(b_path)?;

    let first = fingerprint(&a[0].host, !across_commits);
    if let Some(r) = a
        .iter()
        .chain(&b)
        .find(|r| fingerprint(&r.host, !across_commits) != first)
    {
        eprintln!(
            "perfbench compare: refusing to compare runs from different hosts or builds:\n  {}\n  {}",
            serde_json::to_string(&first)?,
            serde_json::to_string(&fingerprint(&r.host, !across_commits))?
        );
        return Ok(2);
    }

    type Samples = (Vec<f64>, Vec<f64>);
    let mut pairs: BTreeMap<(String, String), Samples> = BTreeMap::new();
    for (set, records) in [(0, &a), (1, &b)] {
        for r in records.iter() {
            for (name, v) in &r.metrics {
                let entry = pairs.entry((r.workload.clone(), name.clone())).or_default();
                if set == 0 { &mut entry.0 } else { &mut entry.1 }.push(*v);
            }
        }
    }

    println!("host {}", serde_json::to_string(&first)?);
    println!(
        "{:<14} {:<32} {:>3} {:>3} {:>12} {:>25} {:>12} {:>25} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "nA",
        "nB",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "change",
        "p(MWU)"
    );
    let mut worse = 0;
    for ((workload, name), (xa, xb)) in &pairs {
        if xa.is_empty() || xb.is_empty() {
            continue;
        }
        let (ma, mb) = (median(xa), median(xb));
        let (qa, qb) = (quartiles(xa), quartiles(xb));
        let change = (mb - ma) / ma.abs();
        let p = mann_whitney_u(xa, xb)
            .map_or_else(|_| "n/a".to_owned(), |r| format!("{:.3}", r.p_value));
        let verdict = match manifest.end_to_end.iter().find(|m| &m.name == name) {
            Some(decl) => {
                let bound = decl.bound.unwrap_or(0.0);
                let worse_by = if decl.higher_is_better {
                    -change
                } else {
                    change
                };
                let spread = ((qa.1 - qa.0) / ma.abs()).max((qb.1 - qb.0) / mb.abs());
                if worse_by > bound {
                    worse += 1;
                    format!(
                        "WORSE by {:.1}% (bound {:.0}%)",
                        worse_by * 100.0,
                        bound * 100.0
                    )
                } else if spread > bound {
                    format!("unresolved: spread {:.1}% exceeds bound", spread * 100.0)
                } else {
                    format!("within bound {:.0}%", bound * 100.0)
                }
            }
            None => String::new(),
        };
        println!(
            "{workload:<14} {name:<32} {:>3} {:>3} {ma:>12.5} {:>25} {mb:>12.5} {:>25} {:>7.1}% {p:>7}  {verdict}",
            xa.len(),
            xb.len(),
            format!("[{:.5}, {:.5}]", qa.0, qa.1),
            format!("[{:.5}, {:.5}]", qb.0, qb.1),
            change * 100.0,
        );
    }
    Ok(if worse > 0 { 1 } else { 0 })
}
