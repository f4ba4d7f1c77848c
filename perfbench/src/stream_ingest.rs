//! `stream-ingest`: fleet ingest into an SPDC container with
//! `stream::run_stream` under `FaultConfig::standard`, then a cold
//! sliding-window refit of the sealed container.
//!
//! The refit runs the loop body of `stream::windowed_refit` per window
//! (`refit_window`, then `holdout_eval`) so each window's latency is
//! timed on its own; the set-up checks that it returns exactly what
//! `windowed_refit` returns, and that the out-of-core window fits equal
//! in-memory fits of the same rows.

use std::fs::{File, OpenOptions};
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

use modeltree::{M5Config, ModelTree};
use perfcounters::Sample;
use pipeline::{ArtifactStore, ChunkedReader, ChunkedWriter};
use serde_json::json;
use stream::{
    holdout_eval, refit::window_key, source::encode_rows, windowed_refit, FaultConfig, FleetConfig,
    RefitConfig, StreamConfig, StreamPlan, StreamSummary, WindowFit,
};

use crate::spans::{self, Spans};
use crate::{Measured, Options, Result};

/// Fleet shape: hosts × intervals rows, before faults.
const HOSTS: u64 = 1000;
const INTERVALS: u32 = 60;
const SHARDS: usize = 4;
const THREADS: usize = 2;
const CHUNK_ROWS: usize = 1024;
/// Refit window (the in-memory row budget) and trainer leaf size.
const WINDOW_ROWS: u64 = 8192;
const MIN_LEAF: usize = 150;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn config(seed: u64) -> StreamConfig {
    StreamConfig::new(FleetConfig::cpu2006(HOSTS, INTERVALS, seed))
        .with_shards(SHARDS)
        .with_threads(THREADS)
        .with_chunk_rows(CHUNK_ROWS)
        .with_faults(FaultConfig::standard(seed))
}

fn refit_config() -> RefitConfig {
    RefitConfig::new(WINDOW_ROWS, M5Config::default().with_min_leaf(MIN_LEAF))
}

fn open(path: &Path) -> Result<ChunkedReader<BufReader<File>>> {
    Ok(ChunkedReader::open(BufReader::new(File::open(path)?))?)
}

/// One pass: ingest, then refit every window against an empty store.
struct Pass {
    summary: StreamSummary,
    /// Ingest plus the whole refit, seconds.
    total_s: f64,
    ingest_s: f64,
    fits: Vec<WindowFit>,
    /// Per-window refit latency (read, fit, store, holdout), seconds.
    refit_s: Vec<f64>,
}

fn pass(cfg: &StreamConfig, dir: &Path) -> Result<Pass> {
    let container = dir.join("fleet.spdc");
    let store = ArtifactStore::open(dir.join("refit-store"));
    store.clear()?;
    let (summary, ingest_s) = spans::cpu_timed(|| stream::run_stream(cfg, &container));
    let summary = summary?;
    let refit_started = spans::cpu_now();
    let mut reader = open(&container)?;
    let refit = refit_config();
    let total = reader.n_rows();
    let mut fits = Vec::new();
    let mut refit_s = Vec::new();
    for window in refit.windows(total) {
        let t = spans::cpu_now();
        let mut fit = stream::refit::refit_window(&mut reader, &store, &refit, window)?;
        fit.holdout = holdout_eval(&mut reader, &fit, refit.stride, total)?;
        refit_s.push(spans::cpu_now() - t);
        fits.push(fit);
    }
    Ok(Pass {
        summary,
        total_s: ingest_s + spans::cpu_now() - refit_started,
        ingest_s,
        fits,
        refit_s,
    })
}

fn same_fits(a: &[WindowFit], b: &[WindowFit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.window == y.window
                && x.fingerprint == y.fingerprint
                && x.tree == y.tree
                && x.holdout == y.holdout
        })
}

/// Counts that must repeat for every pass of one seed.
fn summary_counts(s: &StreamSummary) -> [u64; 6] {
    [
        s.rows,
        s.chunks,
        s.duplicates_dropped,
        s.retransmits,
        s.faults_injected,
        s.torn_writes_repaired,
    ]
}

pub fn run(opts: &Options, dir: &Path) -> Result<Measured> {
    let cfg = config(opts.seed);
    let mut m = Measured::default();
    let mut setups = Vec::new();
    let mut reference = None;
    for _ in 0..SETUPS {
        // Set-up: build the fleet plan and run the warm-up pass, which
        // stays out of the timed numbers.
        let t = spans::cpu_now();
        let plan = StreamPlan::new(&cfg);
        let warm_up = pass(&cfg, dir)?;
        setups.push(spans::cpu_now() - t);
        reference = Some((plan, warm_up));
    }
    m.set("setup_s", spans::median(&setups));
    let (plan, reference) = reference.expect("at least one set-up");
    check_reference(&mut m, &cfg, &plan, &reference, dir)?;

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    if opts.trace {
        traced(&mut m, &cfg, &plan, &reference, dir, deadline)?;
        return Ok(m);
    }
    // Per pass: its ingest time and its window times. The ingest and the
    // refit of one pass can meet different host modes, so each keeps its
    // own cheapest quarter.
    let mut ingests = Vec::new();
    let mut refits: Vec<Vec<f64>> = Vec::new();
    while ingests.is_empty() || Instant::now() < deadline {
        let p = pass(&cfg, dir)?;
        check_pass(&mut m, &reference, &p);
        ingests.push(p.ingest_s);
        refits.push(p.refit_s.iter().map(|s| s * 1e3).collect());
    }
    m.note("passes", json!(ingests.len()));
    let rows = reference.summary.rows as f64;
    let rates: Vec<f64> = spans::cheapest_quarter(ingests, |&s| s)
        .iter()
        .map(|s| rows / s)
        .collect();
    let kept = spans::cheapest_quarter(refits, |w| w.iter().sum());
    let latencies_ms: Vec<f64> = kept.iter().flatten().copied().collect();
    m.set("throughput_per_s", spans::median(&rates));
    m.set("latency_p50_ms", spans::percentile(&latencies_ms, 0.5));
    let (tail, p) = spans::tail(&latencies_ms);
    m.set("latency_tail_ms", tail);
    m.note("tail_percentile", json!(p));
    m.note("passes_kept", json!(kept.len()));
    m.note("latency_samples", json!(latencies_ms.len()));
    m.note("rows_per_pass", json!(reference.summary.rows));
    m.note("windows_per_pass", json!(reference.fits.len()));
    Ok(m)
}

/// A timed pass must seal the same stream and refit the same windows as
/// the warm-up pass.
fn check_pass(m: &mut Measured, reference: &Pass, p: &Pass) {
    m.attempted += 1 + p.fits.len() as u64;
    m.check(
        summary_counts(&p.summary) == summary_counts(&reference.summary),
        || {
            format!(
                "ingest pass sealed {:?}, warm-up sealed {:?}",
                p.summary, reference.summary
            )
        },
    );
    m.check(same_fits(&p.fits, &reference.fits), || {
        "window refits differ from the warm-up pass".into()
    });
}

/// Checks on the warm-up pass: the container holds the planned rows and
/// every chunk verifies; the fault schedule really fired; the per-window
/// loop equals `windowed_refit`; out-of-core fits equal in-memory fits.
fn check_reference(
    m: &mut Measured,
    cfg: &StreamConfig,
    plan: &StreamPlan,
    reference: &Pass,
    dir: &Path,
) -> Result<()> {
    let s = &reference.summary;
    m.check(
        s.rows == plan.total_rows() && s.chunks == plan.total_chunks(),
        || {
            format!(
                "sealed {} rows in {} chunks, planned {} in {}",
                s.rows,
                s.chunks,
                plan.total_rows(),
                plan.total_chunks()
            )
        },
    );
    m.check(s.retransmits > 0 && s.faults_injected > 0, || {
        "the standard fault schedule injected nothing".into()
    });
    let mut reader = open(&s.container)?;
    let bad_chunks = (0..reader.n_chunks())
        .filter(|&i| reader.read_chunk(i).is_err())
        .count();
    m.check(bad_chunks == 0, || {
        format!("{bad_chunks} sealed chunks fail verification")
    });

    let store = ArtifactStore::open(dir.join("oracle-store"));
    store.clear()?;
    let fits = windowed_refit(&mut reader, &store, &refit_config())?;
    m.check(same_fits(&fits, &reference.fits), || {
        "per-window refit loop differs from windowed_refit".into()
    });
    let full = plan.naive_dataset();
    let refit = refit_config();
    for fit in &reference.fits {
        let rows: Vec<u32> = (fit.window.start as u32..fit.window.end as u32).collect();
        let in_memory = ModelTree::fit_indices(&full, &rows, &refit.config)?;
        m.check(in_memory == fit.tree, || {
            format!(
                "out-of-core fit of rows {:?} differs from the in-memory fit",
                fit.window
            )
        });
    }
    m.note("fault_seed", json!(cfg.faults.seed));
    Ok(())
}

/// Alternates untraced passes (obskit counters read around the first)
/// with traced passes until the deadline.
fn traced(
    m: &mut Measured,
    cfg: &StreamConfig,
    plan: &StreamPlan,
    reference: &Pass,
    dir: &Path,
    deadline: Instant,
) -> Result<()> {
    const COUNTERS: [&str; 4] = [
        "stream.retransmits",
        "stream.duplicates_dropped",
        "stream.faults_injected",
        "stream.chunk_recoveries",
    ];
    let mut untraced = Vec::new();
    let mut budgets = Vec::new();
    let mut layers = Vec::new();
    while budgets.is_empty() || Instant::now() < deadline {
        let before = obskit::metrics::snapshot();
        let p = pass(cfg, dir)?;
        let after = obskit::metrics::snapshot();
        check_pass(m, reference, &p);
        untraced.push(p.total_s);
        if untraced.len() == 1 {
            for name in COUNTERS {
                m.set(
                    name,
                    (after.get(name).unwrap_or(0) - before.get(name).unwrap_or(0)) as f64,
                );
            }
            let (bodies, source_s) = source(plan);
            m.set("stream.source_s", source_s);
            m.set(
                "pipeline.seal_s",
                seal(plan, &bodies, &dir.join("sealed.spdc"))?,
            );
        }

        let mut sp = Spans::start();
        let fits = traced_pass(cfg, dir, &mut sp)?;
        m.attempted += 1 + fits.len() as u64;
        m.check(same_fits(&fits, &reference.fits), || {
            "traced refits differ from the warm-up pass".into()
        });
        let total = sp.total();
        let mut pass = std::collections::BTreeMap::new();
        for name in [
            "pipeline.load_s",
            "pipeline.window_read_s",
            "modeltree.fit_s",
            "pipeline.encode_s",
            "stream.holdout_s",
        ] {
            pass.insert(name, sp.secs(name));
        }
        pass.insert(
            "pipeline.write_s",
            sp.secs("pipeline.store_s") - sp.secs("pipeline.encode_s"),
        );
        let ingest_s = sp.secs("stream.ingest_s");
        pass.insert("stream.ingest_s", ingest_s);
        let sum: f64 = pass.values().sum();
        budgets.push((total, sum));
        layers.push(pass);
    }
    let medians = spans::median_layers(&layers);
    for (&name, &value) in &medians {
        if name != "stream.ingest_s" {
            m.set(name, value);
        }
    }
    // The ingest span splits into the source and seal layers, probed on
    // their own, and the remainder, labelled as such: channel hand-off,
    // sharded reassembly, spill I/O and fault handling.
    let source_s = m.metrics["stream.source_s"];
    let seal_s = m.metrics["pipeline.seal_s"];
    m.set(
        "stream.aggregate_s",
        medians["stream.ingest_s"] - source_s - seal_s,
    );
    m.layer_budget(&budgets, &untraced);
    Ok(())
}

/// A pass with a span around the ingest and around each call inside
/// one window's refit (the steps of `refit_window` and `holdout_eval`).
fn traced_pass(cfg: &StreamConfig, dir: &Path, sp: &mut Spans) -> Result<Vec<WindowFit>> {
    let container = dir.join("fleet.spdc");
    let store = sp.aside(|| -> Result<ArtifactStore> {
        let store = ArtifactStore::open(dir.join("refit-store"));
        store.clear()?;
        Ok(store)
    })?;
    sp.time("stream.ingest_s", || stream::run_stream(cfg, &container))?;
    let mut reader = sp.time("pipeline.window_read_s", || open(&container))?;
    let refit = refit_config();
    let total = reader.n_rows();
    let mut fits = Vec::new();
    for window in refit.windows(total) {
        let key = window_key(&reader, &window, &refit.config);
        let cached = sp.time("pipeline.load_s", || store.load_tree(key));
        if cached.is_ok() {
            return Err("a cold refit found its window in the store".into());
        }
        let data = sp.time("pipeline.window_read_s", || {
            reader.window_dataset(window.clone())
        })?;
        let tree = sp.time("modeltree.fit_s", || ModelTree::fit(&data, &refit.config))?;
        crate::matrix::store_tree(&store, key, &tree, sp);
        let mut fit = WindowFit {
            window,
            fingerprint: key,
            cached: false,
            refit_ns: 0,
            holdout: None,
            tree,
        };
        fit.holdout = sp.time("stream.holdout_s", || {
            holdout_eval(&mut reader, &fit, refit.stride, total)
        })?;
        fits.push(fit);
    }
    Ok(fits)
}

/// The source layer: every record of the plan (`StreamPlan::record`)
/// encoded into chunk bodies (`encode_rows`), in container order.
/// Returns the bodies and the seconds it took.
fn source(plan: &StreamPlan) -> (Vec<Vec<u8>>, f64) {
    spans::cpu_timed(|| {
        let mut bodies = Vec::new();
        for shard in 0..plan.n_shards() {
            let order = plan.shard_row_order(shard);
            for rows in order.chunks(plan.chunk_rows()) {
                let samples: Vec<Sample> = rows.iter().map(|&(h, s)| plan.record(h, s)).collect();
                let labels: Vec<u32> = rows.iter().map(|&(h, _)| plan.host_label(h)).collect();
                bodies.push(encode_rows(&samples, &labels));
            }
        }
        bodies
    })
}

/// The seal layer: `ChunkedWriter::append_chunk` + `finish` over the
/// plan's chunk bodies, seconds.
fn seal(plan: &StreamPlan, bodies: &[Vec<u8>], path: &Path) -> Result<f64> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    let mut writer = ChunkedWriter::new(file, plan.benchmarks())?;
    let (sealed, secs) = spans::cpu_timed(|| -> std::io::Result<()> {
        for body in bodies {
            writer.append_chunk(body, None)?;
        }
        writer.finish().map(drop)
    });
    sealed?;
    Ok(secs)
}
