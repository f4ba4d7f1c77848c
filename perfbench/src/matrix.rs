//! `matrix-cold` and `matrix-warm`: the E8 cross-generation transfer
//! matrix (4 suites × 20k samples, 16 cells) through
//! `TransferMatrix::assess_all`.
//!
//! matrix-cold runs every timed pass against an empty private
//! `ArtifactStore`, so generation, splitting, M5' fitting and store
//! writes do most of the work. matrix-warm replays every pass from a
//! populated store with a fresh `PipelineContext` (empty memo), so store
//! reads, decode and cell assessment take the whole pass.
//!
//! The traced run mirrors `assess_all` step by step through the same
//! public calls the pipeline makes (store loads and writes, generation,
//! split, fit, assessment), one thread, with a span around each; its
//! rendered matrix must equal the untraced one.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use modeltree::ModelTree;
use perfcounters::Dataset;
use pipeline::{
    codec, suite_tree_config, ArtifactStore, DatasetInput, DatasetSpec, Fingerprint,
    PipelineContext, SplitPart, TreeSpec,
};
use serde_json::json;
use spec_bench::artifacts::generation_matrix;
use spec_stats::{nonparametric::mann_whitney_u, ttest::welch_t_test};
use transfer::matrix::member_rows;
use transfer::{MatrixCell, MatrixSpec, SuiteArtifacts, TransferMatrix, TransferabilityReport};

use crate::spans::{self, Spans};
use crate::{Measured, Options, Result};

/// Worker threads of the timed passes.
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The checked-in rendering of the canonical matrix (seed 0).
const GOLDEN: &str = "results/generation_matrix.txt";

/// The matrix for a benchmark seed: seed 0 is the canonical E8 matrix,
/// any other seed shifts every suite's dataset, split and member seeds.
fn spec_for(seed: u64) -> MatrixSpec {
    let mut spec = MatrixSpec::canonical();
    spec.seed = spec.seed.wrapping_add(seed);
    spec
}

/// One `assess_all` pass with a fresh context (empty memo) over
/// `store`: the matrix, its CPU seconds, and whether the pass did the
/// work its store calls for — every tree fitted on an empty store, no
/// generation, split or fit on a populated one.
fn assess(
    store: &ArtifactStore,
    spec: &MatrixSpec,
    threads: usize,
    warm: bool,
) -> Result<(TransferMatrix, f64, bool)> {
    let ctx = PipelineContext::with_store(store.clone()).with_logging(false);
    let (matrix, secs) = spans::cpu_timed(|| TransferMatrix::assess_all(&ctx, spec, threads));
    let matrix = matrix?;
    let c = ctx.counters();
    let as_expected = if warm {
        c.datasets_generated == 0 && c.splits_computed == 0 && c.trees_fitted == 0
    } else {
        c.trees_fitted == spec.suites.len() && c.datasets_loaded == 0
    };
    Ok((matrix, secs, as_expected))
}

pub fn run(opts: &Options, dir: &Path, warm: bool) -> Result<Measured> {
    let spec = spec_for(opts.seed);
    let cells = (spec.suites.len() * spec.suites.len()) as u64;
    let mut m = Measured::default();

    // Set-up: an empty private store; matrix-warm populates it with a
    // cold pass. The first pass of the workload's own kind is the
    // warm-up and stays out of the timed numbers.
    let populated = ArtifactStore::open(dir.join("store"));
    let mut setups = Vec::new();
    let mut reference = String::new();
    for _ in 0..SETUPS {
        populated.clear()?;
        let t = spans::cpu_now();
        let (cold, _, cold_ok) = assess(&populated, &spec, THREADS, false)?;
        if warm {
            assess(&populated, &spec, THREADS, true)?;
        }
        setups.push(spans::cpu_now() - t);
        m.check(cold_ok, || "cold set-up pass did not fit every tree".into());
        reference = generation_matrix(&cold);
    }
    m.set("setup_s", spans::median(&setups));

    // Correctness: warm equals cold, one thread equals two, and the
    // canonical seed reproduces the checked-in golden byte for byte.
    let (again, _, warm_ok) = assess(&populated, &spec, THREADS, true)?;
    m.check(warm_ok, || "warm pass generated, split or fitted".into());
    m.check(generation_matrix(&again) == reference, || {
        "warm matrix differs from the cold one".into()
    });
    let (serial, _, _) = assess(&populated, &spec, 1, true)?;
    m.check(generation_matrix(&serial) == reference, || {
        "1-thread matrix differs from the 2-thread one".into()
    });
    if opts.seed == 0 {
        let golden =
            std::fs::read_to_string(GOLDEN).map_err(|e| format!("cannot read {GOLDEN}: {e}"))?;
        m.check(golden == reference, || {
            format!("canonical matrix differs from {GOLDEN}")
        });
    }

    // Each matrix-cold pass starts from an empty store.
    let pass_store = || -> Result<ArtifactStore> {
        if warm {
            return Ok(populated.clone());
        }
        let store = ArtifactStore::open(dir.join("pass"));
        store.clear()?;
        Ok(store)
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
    if opts.trace {
        traced(&mut m, &spec, &reference, deadline, warm, pass_store)?;
    } else {
        let mut times = Vec::new();
        while times.is_empty() || Instant::now() < deadline {
            let store = pass_store()?;
            let (matrix, secs, as_expected) = assess(&store, &spec, THREADS, warm)?;
            times.push(secs);
            m.attempted += cells;
            m.check(as_expected, || {
                format!(
                    "pass {} did not do the work its store calls for",
                    times.len()
                )
            });
            m.check(generation_matrix(&matrix) == reference, || {
                format!("pass {} rendered a different matrix", times.len())
            });
        }
        let passes = times.len();
        let times = spans::cheapest_quarter(times, |&s| s);
        let rates: Vec<f64> = times.iter().map(|s| cells as f64 / s).collect();
        let ms: Vec<f64> = times.iter().map(|s| s * 1e3).collect();
        m.set("throughput_per_s", spans::median(&rates));
        m.set("latency_p50_ms", spans::percentile(&ms, 0.5));
        let (tail, p) = spans::tail(&ms);
        m.set("latency_tail_ms", tail);
        m.note("tail_percentile", json!(p));
        m.note("passes", json!(passes));
        m.note("passes_kept", json!(times.len()));
        m.note("threads", json!(THREADS));
    }
    m.note("cells_per_pass", json!(cells));
    m.note("matrix_seed", json!(spec.seed));
    Ok(m)
}

/// Alternates untraced passes (one thread, counters read around them)
/// with traced mirror passes until the deadline.
fn traced(
    m: &mut Measured,
    spec: &MatrixSpec,
    reference: &str,
    deadline: Instant,
    warm: bool,
    pass_store: impl Fn() -> Result<ArtifactStore>,
) -> Result<()> {
    let cells = (spec.suites.len() * spec.suites.len()) as u64;
    let mut untraced = Vec::new();
    let mut budgets = Vec::new();
    let mut layers = Vec::new();
    while budgets.is_empty() || Instant::now() < deadline {
        let store = pass_store()?;
        let before = obskit::metrics::snapshot();
        let (matrix, secs, as_expected) = assess(&store, spec, 1, warm)?;
        let after = obskit::metrics::snapshot();
        untraced.push(secs);
        m.check(
            as_expected && generation_matrix(&matrix) == reference,
            || "untraced 1-thread pass did other work or rendered a different matrix".into(),
        );
        if untraced.len() == 1 {
            for name in COUNTERS {
                let delta = after.get(name).unwrap_or(0) - before.get(name).unwrap_or(0);
                m.set(name, delta as f64);
            }
        }

        let store = pass_store()?;
        let mut sp = Spans::start();
        let matrix = mirror(&store, spec, &mut sp)?;
        let total = sp.total();
        m.check(generation_matrix(&matrix) == reference, || {
            "traced mirror pass rendered a different matrix".into()
        });
        m.attempted += 2 * cells;
        let pass = pass_layers(&sp);
        let sum: f64 = TOP_LEVEL.iter().map(|l| pass[l]).sum();
        budgets.push((total, sum));
        layers.push(pass);
    }
    for (name, value) in spans::median_layers(&layers) {
        m.set(name, value);
    }
    m.layer_budget(&budgets, &untraced);
    Ok(())
}

/// obskit counters reported per pass.
const COUNTERS: [&str; 8] = [
    "pipeline.bytes_read",
    "pipeline.bytes_written",
    "pipeline.dataset_hits",
    "pipeline.dataset_misses",
    "pipeline.tree_hits",
    "pipeline.tree_misses",
    "trainer.nodes_expanded",
    "trainer.split_evaluations",
];

/// The layers that partition a mirror pass; the rest of its time
/// is unattributed (fingerprinting, suite materialization, glue).
const TOP_LEVEL: [&str; 9] = [
    "workloads.generate_s",
    "pipeline.split_s",
    "modeltree.fit_s",
    "pipeline.encode_s",
    "pipeline.write_s",
    "pipeline.read_s",
    "pipeline.decode_s",
    "transfer.assess_s",
    "transfer.member_rows_s",
];

fn pass_layers(sp: &Spans) -> std::collections::BTreeMap<&'static str, f64> {
    let mut out = std::collections::BTreeMap::new();
    for name in [
        "workloads.generate_s",
        "pipeline.split_s",
        "modeltree.fit_s",
        "pipeline.encode_s",
        "pipeline.load_s",
        "pipeline.decode_s",
        "transfer.assess_s",
        "transfer.member_rows_s",
        "modeltree.predict_all_s",
        "stats.tests_s",
    ] {
        out.insert(name, sp.secs(name));
    }
    out.insert(
        "pipeline.write_s",
        sp.secs("pipeline.store_s") - sp.secs("pipeline.encode_s"),
    );
    out.insert(
        "pipeline.read_s",
        sp.secs("pipeline.load_s") - sp.secs("pipeline.decode_s"),
    );
    out
}

/// `ArtifactStore::load_dataset` under a span, plus a probe timing the
/// decode of the same bytes.
fn load_dataset(store: &ArtifactStore, key: Fingerprint, sp: &mut Spans) -> Option<Dataset> {
    let data = sp
        .time("pipeline.load_s", || store.load_dataset(key))
        .ok()?;
    let bytes = sp.aside(|| codec::encode_dataset(&data));
    let _ = sp.probe("pipeline.decode_s", || codec::decode_dataset(&bytes));
    Some(data)
}

fn load_tree(store: &ArtifactStore, key: Fingerprint, sp: &mut Spans) -> Option<ModelTree> {
    let tree = sp.time("pipeline.load_s", || store.load_tree(key)).ok()?;
    let bytes = sp.aside(|| codec::encode_tree(&tree));
    let _ = sp.probe("pipeline.decode_s", || codec::decode_tree(&bytes));
    Some(tree)
}

/// `ArtifactStore::store_dataset` under a span, plus a probe timing the
/// encode it contains.
fn store_dataset(store: &ArtifactStore, key: Fingerprint, data: &Dataset, sp: &mut Spans) {
    // Best effort, as in the pipeline: the store is a cache.
    let _ = sp.time("pipeline.store_s", || store.store_dataset(key, data));
    sp.probe("pipeline.encode_s", || codec::encode_dataset(data));
}

pub(crate) fn store_tree(
    store: &ArtifactStore,
    key: Fingerprint,
    tree: &ModelTree,
    sp: &mut Spans,
) {
    let _ = sp.time("pipeline.store_s", || store.store_tree(key, tree));
    sp.probe("pipeline.encode_s", || codec::encode_tree(tree));
}

/// Store hit, or generate and store — `PipelineContext::dataset` with
/// an empty memo.
fn resolve_dataset(store: &ArtifactStore, spec: &DatasetSpec, sp: &mut Spans) -> Result<Dataset> {
    let key = spec.fingerprint();
    if let Some(data) = load_dataset(store, key, sp) {
        return Ok(data);
    }
    let data = sp.time("workloads.generate_s", || spec.compute(1))?;
    store_dataset(store, key, &data, sp);
    Ok(data)
}

/// One pass of `TransferMatrix::assess_all` on one thread, rebuilt from
/// the public calls it makes, with a span around each.
fn mirror(store: &ArtifactStore, spec: &MatrixSpec, sp: &mut Spans) -> Result<TransferMatrix> {
    let mut suites = Vec::with_capacity(spec.suites.len());
    for &kind in &spec.suites {
        let split = spec.split(kind);
        let keys = [
            split.part_fingerprint(SplitPart::First),
            split.part_fingerprint(SplitPart::Second),
        ];
        let (train, rest) = match (
            load_dataset(store, keys[0], sp),
            load_dataset(store, keys[1], sp),
        ) {
            (Some(train), Some(rest)) => (train, rest),
            _ => {
                let base = resolve_dataset(store, &split.base, sp)?;
                let (train, rest) = sp.time("pipeline.split_s", || split.compute(&base));
                store_dataset(store, keys[0], &train, sp);
                store_dataset(store, keys[1], &rest, sp);
                (train, rest)
            }
        };
        let tree_spec = TreeSpec {
            config: suite_tree_config(split.first_len()),
            input: DatasetInput::SplitPart(split, SplitPart::First),
        };
        let key = tree_spec.fingerprint();
        let tree = match load_tree(store, key, sp) {
            Some(tree) => tree,
            None => {
                let tree = sp.time("modeltree.fit_s", || {
                    ModelTree::fit(&train, &tree_spec.config)
                })?;
                store_tree(store, key, &tree, sp);
                tree
            }
        };
        let mut members = Vec::new();
        for bench in kind.materialize().benchmarks() {
            let member = DatasetSpec::new(kind, spec.member_samples, spec.member_seed(kind))
                .with_benchmark(bench.name());
            let data = resolve_dataset(store, &member, sp)?;
            members.push((bench.name().to_owned(), Arc::new(data)));
        }
        suites.push(SuiteArtifacts {
            kind,
            train: Arc::new(train),
            rest: Arc::new(rest),
            tree: Arc::new(tree),
            members,
        });
    }

    let pct = (spec.train_fraction * 100.0).round();
    let mut cells = Vec::with_capacity(suites.len() * suites.len());
    for train in &suites {
        for test in &suites {
            let train_name = format!("{} ({pct:.0}%)", train.kind.display_name());
            let test_name = format!("{} (rest)", test.kind.display_name());
            let report = sp.time("transfer.assess_s", || {
                TransferabilityReport::assess(
                    &train.tree,
                    &train.train,
                    &test.rest,
                    &train_name,
                    &test_name,
                    &spec.config,
                )
            })?;
            let members = sp.time("transfer.member_rows_s", || {
                member_rows(&train.tree, &test.members, &spec.config.thresholds)
            })?;
            probe_inner_layers(train, test, spec, sp)?;
            cells.push(MatrixCell {
                train: train.kind,
                test: test.kind,
                report,
                members,
            });
        }
    }
    Ok(TransferMatrix {
        spec: spec.clone(),
        cells,
    })
}

/// Probes the engine and the hypothesis tests that one cell's
/// assessment and member rows run inside them.
fn probe_inner_layers(
    train: &SuiteArtifacts,
    test: &SuiteArtifacts,
    spec: &MatrixSpec,
    sp: &mut Spans,
) -> Result<()> {
    let predicted = sp.probe("modeltree.predict_all_s", || {
        for (_, member) in &test.members {
            std::hint::black_box(train.tree.predict_all(member));
        }
        train.tree.predict_all(&test.rest)
    });
    let (train_cpi, test_cpi) = sp.aside(|| (train.train.cpis(), test.rest.cpis()));
    let columns = sp.aside(|| {
        spec.config
            .tested_events
            .iter()
            .map(|&e| (train.train.column(e), test.rest.column(e)))
            .collect::<Vec<_>>()
    });
    sp.probe("stats.tests_s", || -> Result<()> {
        std::hint::black_box(welch_t_test(&train_cpi, &test_cpi)?);
        std::hint::black_box(welch_t_test(&predicted, &test_cpi)?);
        for (a, b) in &columns {
            std::hint::black_box(welch_t_test(a, b)?);
        }
        std::hint::black_box(mann_whitney_u(&train_cpi, &test_cpi)?);
        Ok(())
    })
}
