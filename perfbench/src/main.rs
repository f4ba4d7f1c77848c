//! The repository's benchmark: one command, four workloads, every
//! end-to-end metric by name and unit, and a correctness verdict.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     compare <runs-a.txt> <runs-b.txt> [--across-commits]
//! ```
//!
//! Run from the repository root. Metric names, units and bounds are
//! read from `BENCHMARK.json`, so the printed metrics and the manifest
//! cannot drift apart. With `--trace 0` the run prints every end-to-end
//! metric; with `--trace 1` it runs the same workload with the
//! benchmark's own spans around the calls into each crate and prints
//! every per-layer metric (0 for a layer the workload never enters).
//!
//! The second-to-last stdout line is a `perfbench_record` object (host
//! fingerprint, settings, metrics and details); the last line is the
//! result object. `compare` reads files of such stdout and reports, per
//! (workload, metric), the medians, quartiles and Mann–Whitney p-value.
//!
//! Scratch files (artifact stores, containers) live under
//! `perfbench/.run/<pid>` and are removed before exit; nothing is
//! written to `results/`.

mod compare;
mod matrix;
mod serve_predict;
mod spans;
mod stream_ingest;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::{json, Value};

pub type Error = Box<dyn std::error::Error>;
pub type Result<T> = std::result::Result<T, Error>;

/// The benchmark manifest, relative to the repository root.
const MANIFEST: &str = "BENCHMARK.json";

/// Largest |unattributed_share| the layer-sum check accepts: the
/// traced time minus the layer times (remainders included) may be at
/// most this share of the traced time.
pub const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// What one workload run measured.
#[derive(Default)]
pub struct Measured {
    /// Operations attempted (requests, matrix cells, ingest passes and
    /// window refits).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong output.
    pub failed: u64,
    /// Descriptions of the correctness checks that failed.
    pub mismatches: Vec<String>,
    /// Metric values by manifest name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra context for the record line (sample counts, settings).
    pub detail: Vec<(&'static str, Value)>,
}

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: Value) {
        self.detail.push((key, value));
    }

    /// Records a correctness check; a failed one counts as one failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("perfbench: check failed: {what}");
            self.mismatches.push(what);
        }
    }

    /// Sets the layer-sum metrics from per-pass budgets and applies the
    /// check. `traced` holds, per traced pass, its time and the sum of
    /// its top-level layer times (remainders included); `untraced` holds
    /// the times of the same work with the spans off.
    pub fn layer_budget(&mut self, traced: &[(f64, f64)], untraced: &[f64]) {
        let shares: Vec<f64> = traced.iter().map(|&(t, sum)| (t - sum) / t).collect();
        let totals: Vec<f64> = traced.iter().map(|&(t, _)| t).collect();
        let unattributed = spans::median(&shares);
        let traced_s = spans::median(&totals);
        self.set("unattributed_share", unattributed);
        self.set("traced_s", traced_s);
        self.set(
            "trace_overhead_share",
            traced_s / spans::median(untraced) - 1.0,
        );
        self.note("traced_passes", json!(traced.len()));
        self.note("untraced_passes", json!(untraced.len()));
        self.check(unattributed.abs() <= LAYER_SUM_TOLERANCE, || {
            format!(
                "layers leave {:.1}% of the traced time unattributed (tolerance {:.0}%)",
                unattributed * 100.0,
                LAYER_SUM_TOLERANCE * 100.0
            )
        });
    }
}

/// Command-line settings of one run.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse()?),
                "--seconds" => seconds = Some(value.parse::<f64>()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}").into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}").into()),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, not {seconds}").into());
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One metric declared in the manifest.
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `Some(bound)` for end-to-end metrics.
    pub bound: Option<f64>,
    pub higher_is_better: bool,
}

/// The parts of `BENCHMARK.json` the benchmark itself uses.
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Manifest {
    pub fn load(path: &Path) -> Result<Manifest> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let root: Value = serde_json::from_str(&text)?;
        let list = |key: &str| -> Result<Vec<Value>> {
            match root.get(key) {
                Some(Value::Array(items)) => Ok(items.clone()),
                _ => Err(format!("{MANIFEST} has no {key:?} list").into()),
            }
        };
        let field = |item: &Value, key: &str| -> Result<String> {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{MANIFEST} entry without {key:?}").into())
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        bound: m.get("bound").and_then(Value::as_f64),
                        higher_is_better: field(m, "better")? == "higher",
                    })
                })
                .collect()
        };
        Ok(Manifest {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The host fingerprint stored with every result. `compare` refuses to
/// pool runs whose fingerprints differ.
pub fn host_fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    json!({
        "nproc": nproc,
        "block_rows": modeltree::simd::block_rows(perfcounters::events::N_EVENTS * 8 + 24),
        "simd_enabled": modeltree::simd::simd_enabled(),
        "rustc": env!("PERFBENCH_RUSTC_VERSION"),
        "commit": git_commit(),
    })
}

/// `HEAD` of the repository in the working directory, or `"unknown"`
/// outside a git checkout.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn run(opts: &Options, manifest: &Manifest, dir: &Path) -> Result<Measured> {
    if !manifest.workloads.contains(&opts.workload) {
        return Err(format!(
            "unknown workload {:?}; {MANIFEST} lists {:?}",
            opts.workload, manifest.workloads
        )
        .into());
    }
    if opts.trace {
        // The counters the program already publishes; they are read as
        // deltas around untraced passes of the traced run.
        obskit::set_enabled(true, false);
    }
    let mut measured = match opts.workload.as_str() {
        "serve-predict" => serve_predict::run(opts)?,
        "matrix-cold" => matrix::run(opts, dir, false)?,
        "matrix-warm" => matrix::run(opts, dir, true)?,
        "stream-ingest" => stream_ingest::run(opts, dir)?,
        other => return Err(format!("workload {other:?} has no implementation").into()),
    };
    measured.set("peak_rss_mb", peak_rss_mb()?);
    Ok(measured)
}

/// Prints the record line and the result line.
fn emit(opts: &Options, manifest: &Manifest, m: &Measured) -> Result<()> {
    for name in m.metrics.keys() {
        if manifest.metric(name).is_none() {
            return Err(format!("metric {name:?} is not declared in {MANIFEST}").into());
        }
    }
    let declared = if opts.trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let mut metrics = Vec::new();
    for decl in declared {
        let value = match m.metrics.get(decl.name.as_str()) {
            Some(&v) => v,
            // A layer the workload never enters did no work.
            None if opts.trace => 0.0,
            None => return Err(format!("workload did not measure {:?}", decl.name).into()),
        };
        metrics.push((
            decl.name.clone(),
            json!({ "value": value, "unit": decl.unit.as_str() }),
        ));
    }
    let all: Vec<(String, Value)> = m
        .metrics
        .iter()
        .map(|(k, v)| ((*k).to_owned(), json!(*v)))
        .collect();
    let detail: Vec<(String, Value)> = m
        .detail
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.clone()))
        .collect();
    let record = json!({
        "perfbench_record": {
            "workload": opts.workload.as_str(),
            "seed": opts.seed,
            "seconds": opts.seconds,
            "trace": opts.trace,
            "host": host_fingerprint(),
            "attempted": m.attempted,
            "failed": m.failed,
            "mismatches": m.mismatches.clone(),
            "metrics": Value::Object(all),
            "detail": Value::Object(detail),
        }
    });
    let result = json!({
        "correct": m.mismatches.is_empty(),
        "attempted": m.attempted.max(1),
        "failed": m.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&record)?);
    println!("{}", serde_json::to_string(&result)?);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(match compare::main(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                2
            }
        });
    }
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from("perfbench/.run").join(std::process::id().to_string());
    let outcome = Manifest::load(Path::new(MANIFEST)).and_then(|manifest| {
        std::fs::create_dir_all(&dir)?;
        let measured = run(&opts, &manifest, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        emit(&opts, &manifest, &measured?)
    });
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
