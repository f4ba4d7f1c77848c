//! Command implementations for the `specrepro` CLI.
//!
//! Each subcommand is a plain function from parsed arguments to a
//! rendered `String`, so the whole surface is unit-testable without
//! spawning processes. [`run`] dispatches a raw argument vector.
//!
//! ```text
//! specrepro generate --suite cpu2006 --samples 60000 --seed 1 --out data.csv
//! specrepro fit      --data data.csv --min-leaf 300 --out model.json --print summary
//! specrepro predict  --model model.json --data other.csv
//! specrepro classify --model model.json --data data.csv
//! specrepro transfer --model model.json --train data.csv --test other.csv
//! specrepro subset   --model model.json --data data.csv --k 6
//! specrepro crossval --data data.csv --folds 5
//! specrepro serve    --model model.json --addr 127.0.0.1:8080
//! specrepro stream   --out fleet.spdc --hosts 1000 --fault-seed 7
//! specrepro cache    stats
//! specrepro trace    --out trace.json fit --data data.csv
//! specrepro metrics  --json fit --data data.csv
//! ```
//!
//! Dataset files are read and written by extension: `.csv`
//! ([`perfcounters::dataset`]), `.arff` ([`perfcounters::arff`]), or
//! `.json` (serde). Models are JSON.
//!
//! `generate` and `fit` resolve through the pipeline's
//! content-addressed artifact store ([`pipeline::ArtifactStore`]), so
//! repeating a command with identical inputs replays cached bytes
//! instead of recomputing; `specrepro cache stats|clear` inspects or
//! deletes the store.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use characterize::{greedy_subset, kmeans_subset, ProfileTable, SimilarityMatrix};
use modeltree::{display, k_fold, M5Config, ModelTree};
use perfcounters::{Dataset, Sample};
use pipeline::{ArtifactStore, DatasetSpec, PipelineContext, SuiteKind};
use serde::{Deserialize, Serialize};
use spec_stats::PredictionMetrics;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use transfer::{TransferConfig, TransferabilityReport};

/// A CLI failure: a message suitable for printing to stderr.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

/// Convenience alias for CLI results.
pub type Result<T> = std::result::Result<T, CliError>;

/// Parsed `--flag value` arguments.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs from an argument list, accepting only
    /// the flags named in `accepted` (without the leading `--`).
    ///
    /// # Errors
    ///
    /// Fails on a token that is not a flag, a flag not in `accepted`, a
    /// dangling flag, or a flag given more than once.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<Flags> {
        let mut values = HashMap::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| CliError(format!("expected --flag, got {arg:?}")))?;
            if !accepted.contains(&key) {
                let listed: Vec<String> = accepted.iter().map(|k| format!("--{k}")).collect();
                return Err(CliError(format!(
                    "unknown flag --{key} (accepted: {})",
                    listed.join(" ")
                )));
            }
            let value = iter
                .next()
                .ok_or_else(|| CliError(format!("flag --{key} is missing a value")))?;
            if values.insert(key.to_owned(), value.clone()).is_some() {
                return Err(CliError(format!("flag --{key} is given more than once")));
            }
        }
        Ok(Flags { values })
    }

    /// A required flag value.
    ///
    /// # Errors
    ///
    /// Fails when the flag is absent.
    pub fn required(&self, key: &str) -> Result<&str> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError(format!("missing required flag --{key}")))
    }

    /// An optional flag value.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// An optional flag parsed into `T`, with a default.
    ///
    /// # Errors
    ///
    /// Fails when present but unparsable.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError(format!("cannot parse --{key} value {raw:?}"))),
        }
    }
}

/// Reads a dataset by file extension (`.csv`, `.arff`, `.json`).
///
/// # Errors
///
/// Fails on unknown extensions, missing files, or parse errors.
pub fn read_dataset(path: &str) -> Result<Dataset> {
    let file =
        std::fs::File::open(path).map_err(|e| CliError(format!("cannot open {path}: {e}")))?;
    let reader = BufReader::new(file);
    match extension(path)? {
        "csv" => Dataset::from_csv(reader).map_err(|e| CliError(format!("{path}: {e}"))),
        "arff" => {
            perfcounters::arff::from_arff(reader).map_err(|e| CliError(format!("{path}: {e}")))
        }
        "json" => serde_json::from_reader(reader)
            .map_err(|e| CliError(format!("{path}: {e}")))
            .and_then(|rows: DatasetJson| {
                Dataset::from_parts(rows.samples, rows.labels, rows.benchmarks)
                    .map_err(|e| CliError(format!("{path}: {e}")))
            }),
        other => Err(CliError(format!("unsupported dataset extension .{other}"))),
    }
}

/// A `.json` dataset file: the rows, their labels and the benchmark
/// name table. Reads go through [`Dataset::from_parts`], so a file with
/// mismatched lengths, a duplicate name or a label past the name table
/// is an error rather than a dataset.
#[derive(Serialize, Deserialize)]
struct DatasetJson {
    samples: Vec<Sample>,
    labels: Vec<u32>,
    benchmarks: Vec<String>,
}

/// Writes a dataset by file extension (`.csv`, `.arff`, `.json`).
///
/// # Errors
///
/// Fails on unknown extensions or I/O errors.
pub fn write_dataset(data: &Dataset, path: &str) -> Result<()> {
    let file =
        std::fs::File::create(path).map_err(|e| CliError(format!("cannot create {path}: {e}")))?;
    let mut writer = BufWriter::new(file);
    match extension(path)? {
        "csv" => data
            .to_csv(&mut writer)
            .map_err(|e| CliError(format!("{path}: {e}"))),
        "arff" => perfcounters::arff::to_arff(data, "spec_dataset", &mut writer)
            .map_err(|e| CliError(format!("{path}: {e}"))),
        "json" => {
            let (samples, labels) = data.iter().unzip();
            let rows = DatasetJson {
                samples,
                labels,
                benchmarks: data.benchmark_names().to_vec(),
            };
            serde_json::to_writer(&mut writer, &rows).map_err(|e| CliError(format!("{path}: {e}")))
        }
        other => Err(CliError(format!("unsupported dataset extension .{other}"))),
    }
}

fn extension(path: &str) -> Result<&str> {
    Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .ok_or_else(|| CliError(format!("{path} has no file extension")))
}

fn read_model(path: &str) -> Result<ModelTree> {
    let file =
        std::fs::File::open(path).map_err(|e| CliError(format!("cannot open {path}: {e}")))?;
    serde_json::from_reader(BufReader::new(file))
        .map_err(|e| CliError(format!("{path}: not a model tree: {e}")))
}

/// Parses the common `--threads N` flag (default 1; training results are
/// identical for every value, only wall clock changes).
fn parse_threads(flags: &Flags) -> Result<usize> {
    let threads: usize = flags.parsed_or("threads", 1)?;
    if threads == 0 {
        return Err(CliError("--threads must be at least 1".into()));
    }
    Ok(threads)
}

fn suite_by_name(name: &str) -> Result<SuiteKind> {
    SuiteKind::by_tag(name).ok_or_else(|| {
        let registered = SuiteKind::all()
            .iter()
            .map(|k| k.tag())
            .collect::<Vec<_>>()
            .join(", ");
        CliError(format!(
            "unknown suite {name:?} (expected one of: {registered})"
        ))
    })
}

/// `suite list`: render the registered suites as a table.
fn cmd_suite(args: &[String]) -> Result<String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            let mut out = format!(
                "{:<10} {:<14} {:>10} {:>16} {:>10}\n",
                "tag", "name", "generation", "environment", "benchmarks"
            );
            for kind in SuiteKind::all() {
                let suite = kind.materialize();
                out.push_str(&format!(
                    "{:<10} {:<14} {:>10} {:>16} {:>10}\n",
                    kind.tag(),
                    kind.display_name(),
                    kind.generation(),
                    match suite.environment() {
                        workloads::Environment::SingleThreaded => "single-threaded",
                        workloads::Environment::MultiThreaded => "multi-threaded",
                    },
                    suite.benchmarks().len()
                ));
            }
            Ok(out)
        }
        Some(other) => Err(CliError(format!(
            "unknown suite action {other:?} (expected: list)"
        ))),
        None => Err(CliError("usage: specrepro suite list".into())),
    }
}

/// `generate`: synthesize a suite dataset to a file.
///
/// The dataset resolves through the artifact store: a repeated
/// invocation with the same suite, sample count and seed loads the
/// cached bytes instead of regenerating. `--threads` only spreads the
/// benchmark blocks over workers: the file is byte-identical for every
/// thread count.
///
/// # Errors
///
/// Fails on bad flags or file errors.
pub fn cmd_generate(flags: &Flags) -> Result<String> {
    let kind = suite_by_name(flags.required("suite")?)?;
    let samples: usize = flags.parsed_or("samples", 60_000)?;
    let seed: u64 = flags.parsed_or("seed", 1)?;
    let threads = parse_threads(flags)?;
    let out = flags.required("out")?;
    let spec = DatasetSpec::new(kind, samples, seed);
    let ctx = PipelineContext::from_env().with_gen_threads(threads);
    let data = ctx.dataset(&spec).map_err(|e| CliError(e.to_string()))?;
    write_dataset(&data, out)?;
    Ok(format!(
        "wrote {} samples from {} ({} benchmarks) to {out}",
        data.len(),
        kind.materialize().name(),
        data.benchmark_count()
    ))
}

/// `fit`: train an M5' model tree on a dataset file.
///
/// Training is keyed by the dataset's **content** fingerprint plus the
/// M5' configuration, so refitting an unchanged file (under any name or
/// format) loads the cached tree bit-identically instead of training
/// again. `--threads` is an execution hint outside the key: fitted
/// trees are identical for every thread count.
///
/// # Errors
///
/// Fails on bad flags, file errors, or degenerate training data.
pub fn cmd_fit(flags: &Flags) -> Result<String> {
    let data = read_dataset(flags.required("data")?)?;
    let min_leaf: usize = flags.parsed_or("min-leaf", (data.len() / 200).max(4))?;
    let sd_fraction: f64 = flags.parsed_or("sd-fraction", 0.05)?;
    let config = M5Config::default()
        .with_min_leaf(min_leaf)
        .with_sd_fraction(sd_fraction)
        .with_n_threads(parse_threads(flags)?);
    let ctx = PipelineContext::from_env();
    let tree = ctx
        .tree_for(&data, &config)
        .map_err(|e| CliError(e.to_string()))?;
    if let Some(out) = flags.optional("out") {
        let file = std::fs::File::create(out)
            .map_err(|e| CliError(format!("cannot create {out}: {e}")))?;
        serde_json::to_writer(BufWriter::new(file), &*tree)
            .map_err(|e| CliError(format!("{out}: {e}")))?;
    }
    let mut report = String::new();
    match flags.optional("print").unwrap_or("summary") {
        "summary" => report.push_str(&display::render_summary(&tree)),
        "tree" => report.push_str(&display::render_tree(&tree)),
        "models" => report.push_str(&display::render_models(&tree)),
        "importance" => report.push_str(&display::render_importance(&tree)),
        "dot" => return Ok(display::render_dot(&tree)),
        other => return Err(CliError(format!("unknown --print mode {other:?}"))),
    }
    let _ = write!(report, "training MAE: {:.4}", tree.mean_abs_error(&data));
    Ok(report)
}

/// `predict`: apply a model to a dataset, report accuracy metrics.
///
/// The tree is compiled into the batch-inference engine (smoothing
/// folded into the leaf models) and predicts over the dataset's columns
/// on `--threads` workers. Predictions are bit-identical for every
/// thread count and to `serve`'s responses for the same rows.
///
/// # Errors
///
/// Fails on bad flags or file errors.
pub fn cmd_predict(flags: &Flags) -> Result<String> {
    let tree = read_model(flags.required("model")?)?;
    let data = read_dataset(flags.required("data")?)?;
    let predictions = tree
        .compile()
        .with_n_threads(parse_threads(flags)?)
        .predict_batch(&data);
    if let Some(out) = flags.optional("out") {
        let mut text = String::from("predicted,actual\n");
        for (p, a) in predictions.iter().zip(data.cpis()) {
            let _ = writeln!(text, "{p},{a}");
        }
        std::fs::write(out, text).map_err(|e| CliError(format!("{out}: {e}")))?;
    }
    let metrics = PredictionMetrics::from_predictions(&predictions, &data.cpis())
        .map_err(|e| CliError(e.to_string()))?;
    Ok(metrics.to_string())
}

/// `classify`: profile a dataset through a model (Table II/IV style).
///
/// # Errors
///
/// Fails on bad flags or file errors.
pub fn cmd_classify(flags: &Flags) -> Result<String> {
    let tree = read_model(flags.required("model")?)?;
    let data = read_dataset(flags.required("data")?)?;
    let table = ProfileTable::build(&tree, &data);
    Ok(table.render())
}

/// `transfer`: assess transferability of a model from train to test.
///
/// # Errors
///
/// Fails on bad flags, file errors, or datasets too small to test.
pub fn cmd_transfer(flags: &Flags) -> Result<String> {
    let tree = read_model(flags.required("model")?)?;
    let train = read_dataset(flags.required("train")?)?;
    let test = read_dataset(flags.required("test")?)?;
    let report = TransferabilityReport::assess(
        &tree,
        &train,
        &test,
        flags.required("train")?,
        flags.required("test")?,
        &TransferConfig::default(),
    )
    .map_err(|e| CliError(e.to_string()))?;
    Ok(report.render())
}

/// `subset`: select representative benchmarks from a profiled dataset.
///
/// # Errors
///
/// Fails on bad flags, file errors, or `k` out of range.
pub fn cmd_subset(flags: &Flags) -> Result<String> {
    let tree = read_model(flags.required("model")?)?;
    let data = read_dataset(flags.required("data")?)?;
    let table = ProfileTable::build(&tree, &data);
    let k: usize = flags.parsed_or("k", 6)?;
    if k == 0 || k > table.names().len() {
        return Err(CliError(format!(
            "--k {k} out of range (1..={})",
            table.names().len()
        )));
    }
    let method = flags.optional("method").unwrap_or("greedy");
    let result = match method {
        "greedy" => greedy_subset(&table, k),
        "kmeans" => kmeans_subset(&table, k, flags.parsed_or("seed", 1u64)?),
        other => return Err(CliError(format!("unknown --method {other:?}"))),
    };
    let mut out = format!("{method} subset of {k}:\n");
    for name in &result.selected {
        let _ = writeln!(out, "  {name}");
    }
    let _ = write!(
        out,
        "coverage: max {:.1}%, mean {:.1}%",
        100.0 * result.max_distance,
        100.0 * result.mean_distance
    );
    Ok(out)
}

/// `similar`: print the most and least similar benchmark pairs.
///
/// # Errors
///
/// Fails on bad flags or file errors.
pub fn cmd_similar(flags: &Flags) -> Result<String> {
    let tree = read_model(flags.required("model")?)?;
    let data = read_dataset(flags.required("data")?)?;
    let k: usize = flags.parsed_or("pairs", 5)?;
    let matrix = SimilarityMatrix::from_table(&ProfileTable::build(&tree, &data));
    let mut out = String::from("most similar pairs:\n");
    for (a, b, d) in matrix.most_similar_pairs(k) {
        let _ = writeln!(out, "  {a:<18} {b:<18} {:.1}%", 100.0 * d);
    }
    out.push_str("most dissimilar pairs:\n");
    for (a, b, d) in matrix.most_dissimilar_pairs(k) {
        let _ = writeln!(out, "  {a:<18} {b:<18} {:.1}%", 100.0 * d);
    }
    Ok(out.trim_end().to_owned())
}

/// `explain`: explain the prediction for one sample (by row index) of a
/// dataset.
///
/// # Errors
///
/// Fails on bad flags, file errors, or an out-of-range row index.
pub fn cmd_explain(flags: &Flags) -> Result<String> {
    let tree = read_model(flags.required("model")?)?;
    let data = read_dataset(flags.required("data")?)?;
    let row: usize = flags.parsed_or("row", 0)?;
    if row >= data.len() {
        return Err(CliError(format!(
            "--row {row} out of range (dataset has {} samples)",
            data.len()
        )));
    }
    let sample = data.sample(row);
    let mut out = format!(
        "sample {row} (benchmark {}, actual CPI {:.4}):\n",
        data.benchmark_name(data.label(row)).unwrap_or("?"),
        sample.cpi()
    );
    let explanation = tree.explain(&sample);
    out.push_str(&explanation.to_string());
    // The compiled engine's effective equation for this leaf: the whole
    // smoothing chain collapsed into one linear model.
    if let Some(folded) = tree.compile().folded_model(explanation.lm_index) {
        let _ = write!(
            out,
            "\n=> folded LM{} (smoothing collapsed): {folded}",
            explanation.lm_index
        );
    }
    Ok(out)
}

/// `stats`: per-event summary statistics of a dataset.
///
/// # Errors
///
/// Fails on bad flags, file errors, or an empty dataset.
pub fn cmd_stats(flags: &Flags) -> Result<String> {
    let data = read_dataset(flags.required("data")?)?;
    let cpi = data.cpi_summary().map_err(|e| CliError(e.to_string()))?;
    let mut out = format!(
        "{} samples, {} benchmarks\n{:<12} {:>12} {:>12} {:>12} {:>12}\n",
        data.len(),
        data.benchmark_count(),
        "metric",
        "mean",
        "sd",
        "min",
        "max"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>12.5} {:>12.5} {:>12.5} {:>12.5}",
        "CPI",
        cpi.mean(),
        cpi.std_dev(),
        cpi.min(),
        cpi.max()
    );
    for e in perfcounters::EventId::ALL {
        let s = data.summary(e).map_err(|err| CliError(err.to_string()))?;
        let _ = writeln!(
            out,
            "{:<12} {:>12.5e} {:>12.5e} {:>12.5e} {:>12.5e}",
            e.short_name(),
            s.mean(),
            s.std_dev(),
            s.min(),
            s.max()
        );
    }
    Ok(out.trim_end().to_owned())
}

/// `crossval`: k-fold cross-validation of the default configuration.
///
/// # Errors
///
/// Fails on bad flags, file errors, or invalid fold counts.
pub fn cmd_crossval(flags: &Flags) -> Result<String> {
    let data = read_dataset(flags.required("data")?)?;
    let folds: usize = flags.parsed_or("folds", 5)?;
    let min_leaf: usize = flags.parsed_or("min-leaf", (data.len() / 200).max(4))?;
    let seed: u64 = flags.parsed_or("seed", 1)?;
    let config = M5Config::default()
        .with_min_leaf(min_leaf)
        .with_n_threads(parse_threads(flags)?);
    let cv = k_fold(&data, &config, folds, seed).map_err(|e| CliError(e.to_string()))?;
    Ok(format!(
        "{folds}-fold CV: MAE {:.4}, RMSE {:.4}, C {:.4}, mean leaves {:.1}",
        cv.mean_mae(),
        cv.mean_rmse(),
        cv.mean_correlation(),
        cv.mean_leaves()
    ))
}

/// Where `serve` gets its initial model from.
enum ServeModel<'a> {
    /// A fitted tree serialized to a JSON file.
    File(&'a str),
    /// The canonical headline tree of a registered suite, resolved
    /// through the pipeline (cached after the first fit).
    Suite(SuiteKind),
}

/// `serve`: host a fitted model behind the HTTP prediction service.
///
/// Loads `--model FILE` into the hot-swappable registry (named by its
/// file stem unless `--name` overrides) — or, with `--suite NAME`,
/// resolves the suite's canonical headline tree through the pipeline
/// (warm runs replay the cached tree) — binds `--addr`, and blocks
/// until a client POSTs `/shutdown`. The environment-selected artifact
/// store is attached so `POST /swap {"model":NAME,"key":HEX}` can
/// promote any cached tree by fingerprint with zero downtime. Metrics
/// stay enabled for the server's lifetime; the returned report is the
/// final `serve.*` counter snapshot.
///
/// `--window-us 0` disables batching (every request runs alone), which
/// is the honest baseline the serve benchmark compares against.
///
/// # Errors
///
/// Fails on an unreadable model file, invalid flags, or when the
/// address cannot be bound.
pub fn cmd_serve(flags: &Flags) -> Result<String> {
    let source = match (flags.optional("model"), flags.optional("suite")) {
        (Some(path), None) => ServeModel::File(path),
        (None, Some(suite)) => ServeModel::Suite(suite_by_name(suite)?),
        (Some(_), Some(_)) => {
            return Err(CliError(
                "--model and --suite are mutually exclusive".into(),
            ))
        }
        (None, None) => return Err(CliError("serve needs --model FILE or --suite NAME".into())),
    };
    let window_us: u64 = flags.parsed_or("window-us", 200)?;
    let max_batch_rows: usize = flags.parsed_or("batch-rows", 4096)?;
    let queue_rows: usize = flags.parsed_or("queue-rows", 16_384)?;
    let max_connections: usize = flags.parsed_or("max-conns", 64)?;
    if max_batch_rows == 0 || queue_rows == 0 || max_connections == 0 {
        return Err(CliError(
            "--batch-rows, --queue-rows, and --max-conns must be at least 1".into(),
        ));
    }
    let addr = flags.optional("addr").unwrap_or("127.0.0.1:8080");
    let (tree, default_name) = match &source {
        ServeModel::File(path) => (
            read_model(path)?,
            Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("model")
                .to_owned(),
        ),
        ServeModel::Suite(kind) => {
            let ctx = PipelineContext::from_env();
            let spec = pipeline::TreeSpec::suite_tree(DatasetSpec::canonical(*kind));
            let tree = ctx
                .tree(&spec)
                .map_err(|e| CliError(format!("cannot fit {} suite tree: {e}", kind.tag())))?;
            ((*tree).clone(), kind.tag().to_owned())
        }
    };
    let name = match flags.optional("name") {
        Some(name) => name.to_owned(),
        None => default_name,
    };
    let p99_ms: u64 = flags.parsed_or("p99-ms", 250)?;
    let trace_sample: Option<u64> = match flags.optional("trace-sample") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| CliError(format!("--trace-sample {raw:?} is not a number")))?,
        ),
        None => None,
    };
    // Metrics always; request tracing only when sampling is asked for
    // (via the flag or SPECREPRO_TRACE_OUT); the flight recorder is
    // always armed — it is the post-incident story of load sheds and
    // failed swaps, and its disabled-path cost is one relaxed load per
    // record site.
    obskit::set_enabled(true, trace_sample.is_some() || obskit::tracing_enabled());
    obskit::set_ring_enabled(true);
    if let Some(every) = trace_sample {
        serve::set_trace_sample(every);
    }
    let registry = std::sync::Arc::new(serve::ModelRegistry::new());
    let version = registry.register_tree(&name, &tree);
    let server = serve::Server::start(
        registry,
        serve::ServerConfig {
            addr: addr.to_owned(),
            coalescer: serve::CoalescerConfig {
                window: std::time::Duration::from_micros(window_us),
                max_batch_rows,
                queue_rows,
            },
            max_connections,
            store: Some(ArtifactStore::from_env()),
            default_model: Some(name.clone()),
            monitors: obskit::monitor::MonitorSet::standard_serve(p99_ms),
        },
    )
    .map_err(|e| CliError(format!("cannot bind {addr}: {e}")))?;
    eprintln!(
        "serving {name} (version {}) on http://{} — POST /predict|/classify|/swap|/debug/flight|/shutdown, GET /healthz|/metrics",
        version.version,
        server.addr()
    );
    server.join();
    let snap = obskit::metrics::snapshot();
    let metric = |n: &str| snap.get(n).unwrap_or(0);
    Ok(format!(
        "served {} requests ({} batches; {} rows predicted, {} classified); \
         {} shed busy, {} bad requests, {} model swaps",
        metric("serve.requests"),
        metric("serve.batches"),
        metric("serve.rows_predicted"),
        metric("serve.rows_classified"),
        metric("serve.rejected_busy"),
        metric("serve.bad_requests"),
        metric("serve.model_swaps"),
    ))
}

/// `stream`: ingest a simulated fleet into a chunked `SPDC` container,
/// then refit the model over sliding windows of the sealed rows.
///
/// The container layout is a pure function of the fleet and chunking
/// configuration — `--threads` only changes wall clock, never bytes —
/// and `--fault-seed` arms the deterministic fault injector (drops,
/// duplicates, reorders, host deaths, torn chunk writes) whose
/// recovery machinery keeps the sealed bytes identical to a clean run
/// modulo host deaths. Windowed refits warm-start from the artifact
/// store by window-content fingerprint, so a re-run over unchanged
/// data replays cached trees.
///
/// # Errors
///
/// Fails on bad flags, I/O errors, or degenerate training windows.
pub fn cmd_stream(flags: &Flags) -> Result<String> {
    let kind = suite_by_name(flags.optional("suite").unwrap_or("cpu2006"))?;
    let hosts: u64 = flags.parsed_or("hosts", 1000)?;
    let intervals: u32 = flags.parsed_or("intervals", 40)?;
    let seed: u64 = flags.parsed_or("seed", 1)?;
    let out = flags.required("out")?;
    let mut fleet = stream::FleetConfig::cpu2006(hosts, intervals, seed);
    fleet.suite = kind;
    let mut cfg = stream::StreamConfig::new(fleet)
        .with_shards(flags.parsed_or("shards", 4)?)
        .with_threads(parse_threads(flags)?)
        .with_chunk_rows(flags.parsed_or("chunk-rows", 1024)?);
    if let Some(raw) = flags.optional("fault-seed") {
        let fault_seed: u64 = raw
            .parse()
            .map_err(|_| CliError(format!("cannot parse --fault-seed value {raw:?}")))?;
        cfg = cfg.with_faults(stream::FaultConfig::standard(fault_seed));
    }
    let summary = stream::run_stream(&cfg, Path::new(out))
        .map_err(|e| CliError(format!("stream to {out}: {e}")))?;
    let mut report = format!(
        "sealed {} rows in {} chunks to {out}\n  duplicates dropped {}, retransmits {}, faults injected {}, torn writes repaired {}",
        summary.rows,
        summary.chunks,
        summary.duplicates_dropped,
        summary.retransmits,
        summary.faults_injected,
        summary.torn_writes_repaired,
    );
    let window_rows: u64 = flags.parsed_or("window-rows", 8192)?;
    if window_rows == 0 || summary.rows == 0 {
        return Ok(report);
    }
    let min_leaf: usize = flags.parsed_or("min-leaf", 300)?;
    let mut refit_cfg =
        stream::RefitConfig::new(window_rows, M5Config::default().with_min_leaf(min_leaf));
    if let Some(raw) = flags.optional("stride") {
        let stride: u64 = raw
            .parse()
            .map_err(|_| CliError(format!("cannot parse --stride value {raw:?}")))?;
        refit_cfg = refit_cfg.with_stride(stride);
    }
    let file =
        std::fs::File::open(out).map_err(|e| CliError(format!("cannot reopen {out}: {e}")))?;
    let mut reader = pipeline::ChunkedReader::open(BufReader::new(file))
        .map_err(|e| CliError(format!("{out}: {e}")))?;
    let store = ArtifactStore::from_env();
    let fits = stream::windowed_refit(&mut reader, &store, &refit_cfg)
        .map_err(|e| CliError(format!("refit over {out}: {e}")))?;
    let _ = write!(
        report,
        "\nrefit {} windows of {window_rows} rows:",
        fits.len()
    );
    for fit in &fits {
        let _ = write!(
            report,
            "\n  rows {:>8}..{:<8} {} {:>8.2} ms  ({} leaves)",
            fit.window.start,
            fit.window.end,
            if fit.cached { "cached" } else { "fitted" },
            fit.refit_ns as f64 / 1e6,
            fit.tree.n_leaves(),
        );
    }
    Ok(report)
}

/// `cache`: inspect or clear the environment-selected artifact store.
///
/// Unlike every other subcommand this takes one positional action
/// (`stats [--json]` or `clear`), not `--flag value` pairs, so [`run`]
/// dispatches it before flag parsing.
///
/// # Errors
///
/// Fails on a missing, unknown, or over-specified action, or on
/// filesystem errors while clearing.
pub fn cmd_cache(args: &[String]) -> Result<String> {
    let store = ArtifactStore::from_env();
    match args {
        [action] if action == "stats" => Ok(cache_stats(&store, false)),
        [action, flag] if action == "stats" && flag == "--json" => Ok(cache_stats(&store, true)),
        [action] if action == "clear" => cache_clear(&store),
        [other] => Err(CliError(format!(
            "unknown cache action {other:?} (expected stats or clear)"
        ))),
        _ => Err(CliError(
            "usage: specrepro cache stats|clear (stats accepts --json)".into(),
        )),
    }
}

/// On-disk store counts plus this process's pipeline telemetry (hit
/// ratio, bytes moved, corrupt evictions) and engine row accounting
/// (vector-lane vs scalar-tail rows) — the telemetry is all zeros
/// unless metrics were enabled and the work ran in-process, e.g.
/// under `specrepro metrics`.
fn cache_stats(store: &ArtifactStore, json: bool) -> String {
    let stats = store.stats();
    let snap = obskit::metrics::snapshot();
    let metric = |name: &str| snap.get(name).unwrap_or(0);
    let hits = metric("pipeline.dataset_hits") + metric("pipeline.tree_hits");
    let misses = metric("pipeline.dataset_misses") + metric("pipeline.tree_misses");
    let lookups = hits + misses;
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    let bytes_read = metric("pipeline.bytes_read");
    let bytes_written = metric("pipeline.bytes_written");
    let evictions = metric("pipeline.corrupt_evictions");
    let simd_rows = metric("engine.simd_rows");
    let tail_rows = metric("engine.scalar_tail_rows");
    let serve_requests = metric("serve.requests");
    let serve_batches = metric("serve.batches");
    let serve_rows = metric("serve.rows_predicted") + metric("serve.rows_classified");
    let serve_shed = metric("serve.rejected_busy");
    if json {
        return format!(
            concat!(
                "{{\"root\":{},",
                "\"datasets\":{{\"files\":{},\"bytes\":{}}},",
                "\"trees\":{{\"files\":{},\"bytes\":{}}},",
                "\"total\":{{\"files\":{},\"bytes\":{}}},",
                "\"pipeline\":{{\"hits\":{},\"misses\":{},\"hit_ratio\":{:.4},",
                "\"bytes_read\":{},\"bytes_written\":{},\"corrupt_evictions\":{}}},",
                "\"engine\":{{\"simd_rows\":{},\"scalar_tail_rows\":{}}},",
                "\"serve\":{{\"requests\":{},\"batches\":{},\"rows\":{},\"rejected_busy\":{}}}}}"
            ),
            obskit::export::json_string(&store.root().display().to_string()),
            stats.datasets,
            stats.dataset_bytes,
            stats.trees,
            stats.tree_bytes,
            stats.files(),
            stats.bytes(),
            hits,
            misses,
            hit_ratio,
            bytes_read,
            bytes_written,
            evictions,
            simd_rows,
            tail_rows,
            serve_requests,
            serve_batches,
            serve_rows,
            serve_shed,
        );
    }
    format!(
        "artifact store {}\n  datasets  {:>5}  {:>10}\n  trees     {:>5}  {:>10}\n  total     {:>5}  {:>10}\n\
         pipeline telemetry (this process)\n  lookups   {:>5}  hit ratio {:.1}%\n  read      {:>10}  written {:>10}\n  corrupt evictions {}\n\
         engine rows (this process)\n  simd      {:>10}  scalar tail {:>10}\n\
         serve (this process)\n  requests  {:>10}  batches {:>10}\n  rows      {:>10}  shed busy {:>8}",
        store.root().display(),
        stats.datasets,
        human_bytes(stats.dataset_bytes),
        stats.trees,
        human_bytes(stats.tree_bytes),
        stats.files(),
        human_bytes(stats.bytes()),
        lookups,
        100.0 * hit_ratio,
        human_bytes(bytes_read),
        human_bytes(bytes_written),
        evictions,
        simd_rows,
        tail_rows,
        serve_requests,
        serve_batches,
        serve_rows,
        serve_shed,
    )
}

fn cache_clear(store: &ArtifactStore) -> Result<String> {
    let stats = store.stats();
    store.clear()?;
    Ok(format!(
        "cleared {} artifacts ({}) from {}",
        stats.files(),
        human_bytes(stats.bytes()),
        store.root().display()
    ))
}

/// `trace`: run a wrapped subcommand with tracing and metrics enabled,
/// then write a Chrome-trace (`chrome://tracing`, Perfetto) JSON file.
///
/// Takes positional arguments — `--out FILE` followed by a full
/// `specrepro` command line — so [`run`] dispatches it before flag
/// parsing. Telemetry counters are reset first, so the trace covers
/// exactly the wrapped command. The trace is written even when the
/// wrapped command fails, which makes failed runs inspectable.
///
/// # Errors
///
/// Fails on a malformed invocation, on the wrapped command's own
/// error, or when the trace file cannot be written.
pub fn cmd_trace(args: &[String]) -> Result<String> {
    const TRACE_USAGE: &str = "usage: specrepro trace --out FILE <command ...>";
    let (out, rest) = match args.split_first() {
        Some((flag, rest)) if flag == "--out" => rest
            .split_first()
            .ok_or_else(|| CliError(format!("--out is missing a value\n{TRACE_USAGE}")))?,
        _ => return Err(CliError(TRACE_USAGE.into())),
    };
    if rest.is_empty() {
        return Err(CliError(format!("no command to trace\n{TRACE_USAGE}")));
    }
    obskit::metrics::reset();
    obskit::span::reset();
    obskit::set_enabled(true, true);
    let result = run(rest);
    obskit::set_enabled(false, false);
    let events = obskit::span::event_count();
    obskit::export::write_trace(out).map_err(|e| CliError(format!("cannot write {out}: {e}")))?;
    let report = result?;
    Ok(format!(
        "{report}\n\nwrote {events} trace events to {out} (open in chrome://tracing or ui.perfetto.dev)"
    ))
}

/// `metrics`: run a wrapped subcommand with metrics enabled, then
/// report the counter/gauge/histogram registry — human-readable by
/// default, a single JSON document with `--json`, or the
/// Prometheus/OpenMetrics text exposition with `--prom` (the wrapped
/// command's own report is suppressed so stdout stays parseable and
/// can be dropped straight into a Prometheus textfile collector).
///
/// Positional like [`cmd_trace`], dispatched before flag parsing.
///
/// # Errors
///
/// Fails on a malformed invocation or on the wrapped command's error.
pub fn cmd_metrics(args: &[String]) -> Result<String> {
    const METRICS_USAGE: &str = "usage: specrepro metrics [--json | --prom] <command ...>";
    enum Format {
        Human,
        Json,
        Prom,
    }
    let (format, rest) = match args.split_first() {
        Some((flag, rest)) if flag == "--json" => (Format::Json, rest),
        Some((flag, rest)) if flag == "--prom" => (Format::Prom, rest),
        _ => (Format::Human, args),
    };
    if rest.is_empty() {
        return Err(CliError(format!("no command to measure\n{METRICS_USAGE}")));
    }
    obskit::metrics::reset();
    obskit::set_enabled(true, false);
    let result = run(rest);
    obskit::set_enabled(false, false);
    let report = result?;
    Ok(match format {
        Format::Json => obskit::export::metrics_json(),
        Format::Prom => obskit::prom::prom_text(),
        Format::Human => format!(
            "{report}\n\nmetrics:\n{}",
            obskit::export::metrics_human().trim_end()
        ),
    })
}

/// `flight`: run a wrapped subcommand with the flight recorder (and
/// metrics) enabled, then write the ring's JSON dump — the most recent
/// operational events (request submissions, batch flushes, load sheds,
/// swaps, monitor fires) in record order.
///
/// Positional like [`cmd_trace`], dispatched before flag parsing. The
/// dump is written even when the wrapped command fails — that is the
/// whole point of a flight recorder.
///
/// # Errors
///
/// Fails on a malformed invocation, on the wrapped command's own
/// error, or when the dump file cannot be written.
pub fn cmd_flight(args: &[String]) -> Result<String> {
    const FLIGHT_USAGE: &str = "usage: specrepro flight --out FILE <command ...>";
    let (out, rest) = match args.split_first() {
        Some((flag, rest)) if flag == "--out" => rest
            .split_first()
            .ok_or_else(|| CliError(format!("--out is missing a value\n{FLIGHT_USAGE}")))?,
        _ => return Err(CliError(FLIGHT_USAGE.into())),
    };
    if rest.is_empty() {
        return Err(CliError(format!("no command to record\n{FLIGHT_USAGE}")));
    }
    obskit::metrics::reset();
    obskit::ring::reset();
    obskit::set_enabled(true, false);
    obskit::set_ring_enabled(true);
    let result = run(rest);
    obskit::set_ring_enabled(false);
    obskit::set_enabled(false, false);
    let (events, dropped) = obskit::ring::snapshot_events();
    let n_events = events.len();
    obskit::ring::write_dump(std::path::Path::new(out))
        .map_err(|e| CliError(format!("cannot write {out}: {e}")))?;
    let report = result?;
    Ok(format!(
        "{report}\n\nwrote {n_events} flight events ({dropped} dropped) to {out}"
    ))
}

fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = n as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Usage text.
pub const USAGE: &str = "\
specrepro — SPEC suite characterization toolkit (cpu2006, omp2001,
cpu2017, cpu2026; `specrepro suite list` enumerates the registry)

USAGE:
  specrepro suite    list
  specrepro generate --suite NAME --out FILE [--samples N] [--seed S]
                     [--threads T]
  specrepro fit      --data FILE [--out MODEL.json] [--min-leaf N] [--sd-fraction F]
                     [--print summary|tree|models|importance|dot] [--threads T]
  specrepro predict  --model MODEL.json --data FILE [--out PRED.csv] [--threads T]
  specrepro classify --model MODEL.json --data FILE
  specrepro transfer --model MODEL.json --train FILE --test FILE
  specrepro subset   --model MODEL.json --data FILE [--k N] [--method greedy|kmeans]
                     [--seed S]
  specrepro similar  --model MODEL.json --data FILE [--pairs N]
  specrepro explain  --model MODEL.json --data FILE [--row N]
  specrepro stats    --data FILE
  specrepro crossval --data FILE [--folds K] [--min-leaf N] [--seed S] [--threads T]
  specrepro serve    --model MODEL.json | --suite NAME [--name NAME]
                     [--addr HOST:PORT] [--window-us U] [--batch-rows N]
                     [--queue-rows N] [--max-conns N] [--p99-ms MS]
                     [--trace-sample N]
  specrepro stream   --out FILE.spdc [--suite NAME] [--hosts N]
                     [--intervals N] [--seed S] [--shards N] [--threads T]
                     [--chunk-rows N] [--fault-seed S] [--window-rows N]
                     [--stride N] [--min-leaf N]
  specrepro cache    stats [--json] | clear
  specrepro trace    --out FILE <command ...>
  specrepro metrics  [--json | --prom] <command ...>
  specrepro flight   --out FILE <command ...>

--suite NAME resolves through the generation-parameterized suite
registry; `specrepro suite list` prints every registered suite with its
generation, environment, and benchmark count.

Dataset files: .csv, .arff (WEKA), or .json by extension.
--threads parallelizes fitting, generation, and prediction. Fitted
trees, generated datasets, and predictions are bit-identical for any
thread count. A flag a command does not list above, or a flag given
twice, is an error.

generate and fit resolve through a content-addressed artifact store
(SPECREPRO_CACHE_DIR when set, else <system temp>/specrepro-cache):
repeating a command with identical inputs replays the cached artifact
bit-for-bit instead of recomputing. `specrepro cache stats` reports its
contents, `specrepro cache clear` deletes it, and setting
SPECREPRO_OBS_LOG=0 silences the per-stage cache log on stderr.

serve hosts the model as an HTTP prediction service (POST /predict,
/classify; GET /healthz, /metrics; POST /swap promotes a cached tree by
fingerprint with zero downtime; POST /debug/flight dumps the flight
recorder; POST /shutdown drains and exits). /metrics serves JSON by
default and the Prometheus/OpenMetrics text exposition with
?format=prom (or Accept: application/openmetrics-text). /healthz
reports name@version model fingerprints and evaluates the SLO monitors
(p99 latency under --p99-ms, 429 rate). Requests are coalesced into
columnar batches — flushed at --batch-rows rows, as soon as no
connection is mid-drain, or at the latest after --window-us
microseconds; --window-us 0 disables batching. --queue-rows bounds the work queue (overload answers 429 +
Retry-After and the flight recorder auto-dumps on shed bursts).
--trace-sample N (or SPECREPRO_TRACE_SAMPLE with tracing enabled)
traces one request in N end to end: the X-Request-Id echoed on the
response links the request's parse, queue-wait, batch, engine, and
respond spans in the Chrome-trace export.

stream simulates a fleet of --hosts PMU-sampling hosts feeding a
sharded aggregator and seals the rows into a chunked .spdc container
(out-of-core readable), then refits the model over sliding windows of
--window-rows rows (advance --stride, default half a window;
--window-rows 0 skips refitting). Refits warm-start from the artifact
store by window-content fingerprint. Container bytes depend only on
the fleet, shard, and chunk configuration — never on --threads.
--fault-seed S arms the deterministic fault injector (drops,
duplicates, reorders, host deaths, torn chunk writes); recovery keeps
sealed bytes identical to a clean run of the surviving rows.

trace, metrics, and flight wrap any other command with telemetry
enabled: trace writes a Chrome-trace JSON (chrome://tracing,
ui.perfetto.dev) of the trainer/engine/pipeline spans, metrics dumps
the counter registry (--prom renders the OpenMetrics exposition), and
flight writes the flight-recorder ring — the most recent operational
events — even when the wrapped command fails. Every command also honors
SPECREPRO_TRACE_OUT=FILE, SPECREPRO_METRICS_OUT=FILE, and
SPECREPRO_FLIGHT_OUT=FILE to capture the same telemetry to files.";

/// A `--flag value` subcommand: its name, the flags it accepts (as
/// listed in [`USAGE`], space-separated, without the leading `--`), and
/// its body.
type Command = (&'static str, &'static str, fn(&Flags) -> Result<String>);

/// Every `--flag value` subcommand [`run`] dispatches.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("generate", "suite out samples seed threads", cmd_generate),
    ("fit", "data out min-leaf sd-fraction print threads", cmd_fit),
    ("predict", "model data out threads", cmd_predict),
    ("classify", "model data", cmd_classify),
    ("transfer", "model train test", cmd_transfer),
    ("subset", "model data k method seed", cmd_subset),
    ("similar", "model data pairs", cmd_similar),
    ("explain", "model data row", cmd_explain),
    ("stats", "data", cmd_stats),
    ("crossval", "data folds min-leaf seed threads", cmd_crossval),
    ("serve", "model suite name addr window-us batch-rows queue-rows max-conns p99-ms \
               trace-sample", cmd_serve),
    ("stream", "out suite hosts intervals seed shards threads chunk-rows fault-seed \
                window-rows stride min-leaf", cmd_stream),
];

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a printable error for unknown commands, flags a command does
/// not accept, or any command failure.
pub fn run(args: &[String]) -> Result<String> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| CliError(format!("no command given\n\n{USAGE}")))?;
    // `suite`, `cache`, `trace`, `metrics`, and `flight` take
    // positional arguments, which `Flags::parse` rejects, so they
    // dispatch before flag parsing.
    match command.as_str() {
        "suite" => return cmd_suite(rest),
        "cache" => return cmd_cache(rest),
        "trace" => return cmd_trace(rest),
        "metrics" => return cmd_metrics(rest),
        "flight" => return cmd_flight(rest),
        "help" | "--help" | "-h" => return Ok(USAGE.to_owned()),
        _ => {}
    }
    let (_, accepted, body) = COMMANDS
        .iter()
        .find(|(name, ..)| name == command)
        .ok_or_else(|| CliError(format!("unknown command {command:?}\n\n{USAGE}")))?;
    let accepted: Vec<&str> = accepted.split_whitespace().collect();
    body(&Flags::parse(rest, &accepted)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs() {
        let args = argv(&["--suite", "cpu2006", "--samples", "100"]);
        let f = Flags::parse(&args, &["suite", "samples"]).unwrap();
        assert_eq!(f.required("suite").unwrap(), "cpu2006");
        assert_eq!(f.parsed_or::<usize>("samples", 0).unwrap(), 100);
        assert_eq!(f.parsed_or::<usize>("missing", 7).unwrap(), 7);
        assert!(f.required("missing").is_err());
    }

    #[test]
    fn flags_reject_malformed() {
        assert!(Flags::parse(&argv(&["positional"]), &[]).is_err());
        assert!(Flags::parse(&argv(&["--dangling"]), &["dangling"]).is_err());
        let f = Flags::parse(&argv(&["--samples", "notanumber"]), &["samples"]).unwrap();
        assert!(f.parsed_or::<usize>("samples", 0).is_err());
    }

    #[test]
    fn flags_reject_unknown_and_repeated_flags() {
        let err = Flags::parse(&argv(&["--thread", "4"]), &["threads"]).unwrap_err();
        assert!(err.0.contains("unknown flag --thread "), "{err}");
        assert!(err.0.contains("accepted: --threads"), "{err}");
        let err = Flags::parse(&argv(&["--k", "3", "--k", "3"]), &["k"]).unwrap_err();
        assert!(err.0.contains("--k is given more than once"), "{err}");
        // Through the dispatcher, before any file is read.
        let err = run(&argv(&[
            "predict", "--model", "m.json", "--data", "d.csv", "--thread", "4",
        ]))
        .unwrap_err();
        assert!(err.0.contains("unknown flag --thread "), "{err}");
        let err = run(&argv(&["fit", "--data", "a.csv", "--data", "b.csv"])).unwrap_err();
        assert!(err.0.contains("--data is given more than once"), "{err}");
    }

    #[test]
    fn predict_rejects_the_engine_flag() {
        let err = run(&argv(&[
            "predict",
            "--model",
            "/nonexistent/model.json",
            "--data",
            "/nonexistent/data.csv",
            "--engine",
            "interpreted",
        ]))
        .unwrap_err();
        assert!(err.0.contains("unknown flag --engine"), "{err}");
    }

    /// The synopsis block of [`USAGE`] as `(command, flags)` pairs: each
    /// `specrepro <command>` line with its continuation lines.
    fn usage_synopses() -> Vec<(String, Vec<String>)> {
        let block = USAGE.split("USAGE:\n").nth(1).unwrap();
        let block = block.split("\n\n").next().unwrap();
        let mut synopses: Vec<(String, Vec<String>)> = Vec::new();
        for line in block.lines().map(str::trim) {
            if let Some(rest) = line.strip_prefix("specrepro ") {
                let name = rest.split_whitespace().next().unwrap();
                synopses.push((name.to_owned(), Vec::new()));
            }
            let flags = &mut synopses.last_mut().unwrap().1;
            for token in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if let Some(flag) = token.strip_prefix("--") {
                    flags.push(flag.to_owned());
                }
            }
        }
        synopses
    }

    #[test]
    fn every_usage_flag_is_accepted_and_every_accepted_flag_is_listed() {
        let synopses = usage_synopses();
        for (name, accepted, _) in COMMANDS {
            let (_, listed) = synopses
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} is missing from USAGE"));
            let accepted: Vec<&str> = accepted.split_whitespace().collect();
            for flag in listed {
                let args = argv(&[&format!("--{flag}"), "1"]);
                assert!(
                    Flags::parse(&args, &accepted).is_ok(),
                    "{name}: USAGE lists --{flag}, which is rejected"
                );
            }
            for flag in &accepted {
                assert!(
                    listed.iter().any(|f| f == flag),
                    "{name}: --{flag} is accepted but not in USAGE"
                );
            }
        }
        assert!(synopses
            .iter()
            .any(|(n, f)| n == "predict" && !f.is_empty()));
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&argv(&["help"])).unwrap().contains("USAGE"));
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(err.0.contains("unknown command"));
        assert!(run(&[]).is_err());
    }

    #[test]
    fn unknown_suite_rejected() {
        let f = Flags::parse(
            &argv(&["--suite", "spec95", "--out", "/tmp/x.csv"]),
            &["suite", "out"],
        )
        .unwrap();
        let err = cmd_generate(&f).unwrap_err();
        // The error enumerates the live registry, not a hardcoded pair.
        for kind in SuiteKind::all() {
            assert!(err.0.contains(kind.tag()), "{err}");
        }
    }

    #[test]
    fn suite_list_enumerates_the_registry() {
        let out = run(&argv(&["suite", "list"])).unwrap();
        for kind in SuiteKind::all() {
            assert!(out.contains(kind.tag()), "missing {}: {out}", kind.tag());
            assert!(out.contains(&kind.generation().to_string()), "{out}");
        }
        assert!(out.contains("single-threaded") && out.contains("multi-threaded"));
        let err = run(&argv(&["suite", "frobnicate"])).unwrap_err();
        assert!(err.0.contains("unknown suite action"), "{err}");
        assert!(run(&argv(&["suite"])).is_err());
    }

    #[test]
    fn serve_rejects_conflicting_model_sources() {
        let f = Flags::parse(
            &argv(&["--model", "/nonexistent/model.json", "--suite", "cpu2006"]),
            &["model", "suite"],
        )
        .unwrap();
        let err = cmd_serve(&f).unwrap_err();
        assert!(err.0.contains("mutually exclusive"), "{err}");
        let f = Flags::parse(&argv(&["--suite", "spec95"]), &["suite"]).unwrap();
        assert!(cmd_serve(&f).is_err());
    }

    #[test]
    fn zero_threads_rejected() {
        let f = Flags::parse(&argv(&["--threads", "0"]), &["threads"]).unwrap();
        assert!(parse_threads(&f).is_err());
        let f = Flags::parse(&argv(&["--threads", "4"]), &["threads"]).unwrap();
        assert_eq!(parse_threads(&f).unwrap(), 4);
        assert_eq!(parse_threads(&Flags::default()).unwrap(), 1);
    }

    #[test]
    fn extension_detection() {
        assert!(read_dataset("/nonexistent/file.csv").is_err());
        assert!(read_dataset("/nonexistent/file.xyz").is_err());
        assert!(extension("noext").is_err());
    }

    #[test]
    fn json_datasets_round_trip_and_are_validated() {
        let dir = std::env::temp_dir().join(format!("specrepro-cli-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let mut data = Dataset::new();
        let label = data.add_benchmark("429.mcf");
        data.push(Sample::zeros(-0.0), label);
        data.push(Sample::zeros(2.5), label);
        write_dataset(&data, &path("d.json")).unwrap();
        assert_eq!(read_dataset(&path("d.json")).unwrap(), data);

        // A label past the name table, or more labels than samples, is
        // an error rather than a dataset.
        let zeros = vec!["0"; perfcounters::events::N_EVENTS].join(",");
        let row = format!(r#"{{"cpi":1.0,"densities":[{zeros}]}}"#);
        for (name, labels) in [("range.json", "[1]"), ("count.json", "[0,0]")] {
            let text = format!(r#"{{"samples":[{row}],"labels":{labels},"benchmarks":["a"]}}"#);
            std::fs::write(path(name), text).unwrap();
            let err = read_dataset(&path(name)).unwrap_err();
            assert!(err.0.contains("parse error"), "{name}: {}", err.0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_requires_a_known_action() {
        let err = run(&argv(&["cache"])).unwrap_err();
        assert!(err.0.contains("cache stats|clear"));
        let err = run(&argv(&["cache", "frobnicate"])).unwrap_err();
        assert!(err.0.contains("unknown cache action"));
        let err = run(&argv(&["cache", "stats", "extra"])).unwrap_err();
        assert!(err.0.contains("cache stats|clear"));
    }

    #[test]
    fn cache_stats_and_clear_render_over_an_explicit_store() {
        let dir = std::env::temp_dir().join(format!("specrepro-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir);
        let stats = cache_stats(&store, false);
        assert!(stats.contains("datasets"));
        assert!(stats.contains("0 B"));
        assert!(stats.contains("pipeline telemetry"));
        assert!(stats.contains("engine rows"));
        assert!(stats.contains("serve (this process)"));
        let as_json = cache_stats(&store, true);
        let parsed: serde_json::Value = serde_json::from_str(&as_json).unwrap();
        assert!(parsed.get("pipeline").is_some(), "{as_json}");
        let engine = parsed.get("engine").expect("engine section");
        assert!(engine.get("simd_rows").is_some(), "{as_json}");
        assert!(engine.get("scalar_tail_rows").is_some(), "{as_json}");
        let serve_section = parsed.get("serve").expect("serve section");
        for key in ["requests", "batches", "rows", "rejected_busy"] {
            assert!(serve_section.get(key).is_some(), "{as_json}");
        }
        let cleared = cache_clear(&store).unwrap();
        assert!(cleared.contains("cleared 0 artifacts"));
    }

    #[test]
    fn serve_requires_a_model_and_sane_bounds() {
        let err = run(&argv(&["serve"])).unwrap_err();
        assert!(err.0.contains("--model"), "{err}");
        let err = run(&argv(&[
            "serve",
            "--model",
            "/nonexistent/model.json",
            "--batch-rows",
            "0",
        ]))
        .unwrap_err();
        assert!(err.0.contains("at least 1"), "{err}");
    }

    #[test]
    fn human_bytes_picks_sensible_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(5 * 1024 * 1024), "5.0 MiB");
    }

    /// Serializes the tests that flip the global telemetry switch so
    /// they do not reset each other's counters mid-flight.
    static TELEMETRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A generation seed no earlier run has used, so the wrapped `fit`
    /// below is a genuine cache miss: warm artifact-store hits skip
    /// training entirely, which would leave the trainer counters and
    /// spans these tests assert on at zero.
    fn unique_seed() -> String {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos()
            .to_string()
    }

    #[test]
    fn trace_and_metrics_reject_malformed_invocations() {
        assert!(run(&argv(&["trace"])).unwrap_err().0.contains("usage"));
        assert!(run(&argv(&["trace", "--out"]))
            .unwrap_err()
            .0
            .contains("--out"));
        let err = run(&argv(&["trace", "--out", "/tmp/t.json"])).unwrap_err();
        assert!(err.0.contains("no command to trace"));
        let err = run(&argv(&["metrics"])).unwrap_err();
        assert!(err.0.contains("no command to measure"));
        assert!(run(&argv(&["metrics", "--json"]))
            .unwrap_err()
            .0
            .contains("no command"));
        assert!(run(&argv(&["metrics", "--prom"]))
            .unwrap_err()
            .0
            .contains("no command"));
        assert!(run(&argv(&["flight"])).unwrap_err().0.contains("usage"));
        let err = run(&argv(&["flight", "--out", "/tmp/f.json"])).unwrap_err();
        assert!(err.0.contains("no command to record"));
    }

    #[test]
    fn metrics_wraps_a_fit_and_reports_trainer_counters() {
        let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("specrepro-cli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("obs.csv");
        run(&argv(&[
            "generate",
            "--suite",
            "cpu2006",
            "--samples",
            "400",
            "--seed",
            &unique_seed(),
            "--out",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        let human = run(&argv(&[
            "metrics",
            "fit",
            "--data",
            csv.to_str().unwrap(),
            "--min-leaf",
            "40",
        ]))
        .unwrap();
        assert!(human.contains("training MAE"), "{human}");
        assert!(human.contains("trainer.fits"), "{human}");
        assert!(human.contains("pipeline."), "{human}");
        let json = run(&argv(&[
            "metrics",
            "--json",
            "fit",
            "--data",
            csv.to_str().unwrap(),
            "--min-leaf",
            "40",
        ]))
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed.get("counters").is_some(), "{json}");
        assert!(
            parsed
                .get("obs")
                .and_then(|o| o.get("schema_version"))
                .is_some(),
            "{json}"
        );
        let prom = run(&argv(&[
            "metrics",
            "--prom",
            "fit",
            "--data",
            csv.to_str().unwrap(),
            "--min-leaf",
            "40",
        ]))
        .unwrap();
        assert!(prom.contains("# TYPE trainer_fits counter"), "{prom}");
        assert!(prom.contains("trainer_fits_total "), "{prom}");
        assert!(prom.trim_end().ends_with("# EOF"), "{prom}");
        assert!(!obskit::metrics_enabled(), "metrics left enabled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_writes_a_ring_dump_of_the_wrapped_command() {
        let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("specrepro-cli-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("flight.csv");
        run(&argv(&[
            "generate",
            "--suite",
            "cpu2006",
            "--samples",
            "400",
            "--seed",
            &unique_seed(),
            "--out",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        let out = dir.join("flight.json");
        let report = run(&argv(&[
            "flight",
            "--out",
            out.to_str().unwrap(),
            "fit",
            "--data",
            csv.to_str().unwrap(),
            "--min-leaf",
            "40",
        ]))
        .unwrap();
        assert!(report.contains("flight events"), "{report}");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let schema = doc
            .get("obs")
            .and_then(|o| o.get("schema_version"))
            .and_then(serde_json::Value::as_u64);
        assert_eq!(schema, Some(1), "{doc:?}");
        assert!(
            matches!(doc.get("events"), Some(serde_json::Value::Array(_))),
            "{doc:?}"
        );
        assert!(!obskit::ring_enabled(), "ring left enabled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_writes_a_chrome_trace_of_the_wrapped_command() {
        let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("specrepro-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("trace.csv");
        run(&argv(&[
            "generate",
            "--suite",
            "cpu2006",
            "--samples",
            "400",
            "--seed",
            &unique_seed(),
            "--out",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        let out = dir.join("trace.json");
        let report = run(&argv(&[
            "trace",
            "--out",
            out.to_str().unwrap(),
            "fit",
            "--data",
            csv.to_str().unwrap(),
            "--min-leaf",
            "40",
        ]))
        .unwrap();
        assert!(report.contains("trace events"), "{report}");
        let text = std::fs::read_to_string(&out).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert!(parsed.get("traceEvents").is_some());
        assert!(text.contains("m5.fit"), "trace lacks the fit span");
        assert!(!obskit::tracing_enabled(), "tracing left enabled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_seals_a_container_and_refits_windows() {
        let dir = std::env::temp_dir().join(format!("specrepro-cli-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spdc = dir.join("fleet.spdc");
        let report = run(&argv(&[
            "stream",
            "--hosts",
            "40",
            "--intervals",
            "20",
            "--chunk-rows",
            "128",
            "--window-rows",
            "400",
            "--min-leaf",
            "30",
            "--fault-seed",
            "7",
            "--out",
            spdc.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(report.contains("sealed"), "{report}");
        assert!(report.contains("refit"), "{report}");
        assert!(spdc.exists());
        // --window-rows 0 skips refitting entirely.
        let no_refit = run(&argv(&[
            "stream",
            "--hosts",
            "10",
            "--intervals",
            "4",
            "--window-rows",
            "0",
            "--out",
            spdc.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(!no_refit.contains("refit"), "{no_refit}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generate_then_fit_roundtrip() {
        let dir = std::env::temp_dir().join(format!("specrepro-cli-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("tiny.csv");
        let wrote = run(&argv(&[
            "generate",
            "--suite",
            "cpu2006",
            "--samples",
            "400",
            "--seed",
            "5",
            "--out",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(wrote.contains("wrote 400 samples"), "{wrote}");
        let fitted = run(&argv(&[
            "fit",
            "--data",
            csv.to_str().unwrap(),
            "--min-leaf",
            "40",
        ]))
        .unwrap();
        assert!(fitted.contains("training MAE"), "{fitted}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
