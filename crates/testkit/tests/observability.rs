//! Telemetry-determinism verification: obskit is write-only.
//!
//! The observability layer's core contract is that enabling metrics and
//! span tracing changes **nothing** about what the system computes:
//! generated datasets, fitted trees, codec bytes, and artifact
//! fingerprints must be bit-identical whether telemetry is off (the
//! default) or fully on. These tests run the instrumented paths both
//! ways and compare at the bytes level — the same standard the
//! pipeline's cache-identity suite enforces.

use modeltree::{M5Config, ModelTree};
use pipeline::{codec, DatasetSpec, SuiteKind};
use std::sync::Mutex;

/// Serializes tests that flip the process-global telemetry switch.
static TELEMETRY: Mutex<()> = Mutex::new(());

struct Guard;

impl Guard {
    fn acquire() -> (std::sync::MutexGuard<'static, ()>, Guard) {
        let lock = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        obskit::set_enabled(false, false);
        obskit::metrics::reset();
        obskit::span::reset();
        (lock, Guard)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        obskit::set_enabled(false, false);
        obskit::metrics::reset();
        obskit::span::reset();
    }
}

#[test]
fn datasets_and_fingerprints_are_bit_identical_with_telemetry_on() {
    let _guard = Guard::acquire();
    let spec = DatasetSpec::new(SuiteKind::cpu2006(), 2_000, 7);

    let fingerprint_off = spec.fingerprint();
    let data_off = spec.compute(1).expect("generation succeeds");
    let bytes_off = codec::encode_dataset(&data_off);

    obskit::set_enabled(true, true);
    let fingerprint_on = spec.fingerprint();
    let data_on = spec.compute(1).expect("generation succeeds");
    let bytes_on = codec::encode_dataset(&data_on);
    obskit::set_enabled(false, false);

    assert_eq!(
        fingerprint_off, fingerprint_on,
        "telemetry leaked into the dataset fingerprint"
    );
    assert_eq!(
        bytes_off, bytes_on,
        "telemetry changed the encoded dataset bytes"
    );
    // The telemetry pass actually recorded something — this is not a
    // vacuous comparison between two disabled runs.
    assert!(
        obskit::metrics::value(obskit::metrics::Metric::PmuIntervals) > 0,
        "telemetry-on pass recorded no PMU intervals"
    );
}

#[test]
fn trees_and_their_codec_bytes_are_bit_identical_with_telemetry_on() {
    let _guard = Guard::acquire();
    let spec = DatasetSpec::new(SuiteKind::omp2001(), 2_000, 11);
    let data = spec.compute(1).expect("generation succeeds");
    let config = M5Config::default().with_min_leaf(20);

    let tree_off = ModelTree::fit(&data, &config).expect("fit succeeds");
    let bytes_off = codec::encode_tree(&tree_off);

    obskit::set_enabled(true, true);
    let tree_on = ModelTree::fit(&data, &config).expect("fit succeeds");
    let bytes_on = codec::encode_tree(&tree_on);
    // Everything on, the flight recorder included.
    obskit::set_ring_enabled(true);
    let bytes_ring = codec::encode_tree(&ModelTree::fit(&data, &config).expect("fit succeeds"));
    obskit::set_ring_enabled(false);
    obskit::ring::reset();
    obskit::set_enabled(false, false);

    assert_eq!(
        serde_json::to_string(&tree_off).unwrap(),
        serde_json::to_string(&tree_on).unwrap(),
        "telemetry changed the fitted tree"
    );
    assert_eq!(
        bytes_off, bytes_on,
        "telemetry changed the tree codec bytes"
    );
    assert_eq!(
        bytes_off, bytes_ring,
        "the armed flight recorder changed the tree codec bytes"
    );
    assert!(
        obskit::metrics::value(obskit::metrics::Metric::TrainerNodesExpanded) > 0,
        "telemetry-on fit recorded no expanded nodes"
    );

    // Predictions through the compiled engine are bit-identical too.
    let engine_off = tree_off.compile();
    let pred_off = engine_off.predict_batch(&data);
    obskit::set_enabled(true, true);
    let pred_on = tree_on.compile().predict_batch(&data);
    obskit::set_enabled(false, false);
    assert!(
        pred_off
            .iter()
            .zip(&pred_on)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "telemetry changed compiled predictions"
    );
}

/// The PR-10 extension of the contract: the flight recorder, request
/// sampling, and holdout publication are write-only too. Container
/// bytes, refit trees, and their holdout MAEs are bit-identical with
/// the whole observability stack armed.
#[test]
fn container_bytes_and_refits_bit_identical_with_flight_ring_armed() {
    use pipeline::ArtifactStore;
    use std::io::Cursor;
    use stream::{run_stream, windowed_refit, FleetConfig, RefitConfig, StreamConfig};

    let _guard = Guard::acquire();
    let scfg = StreamConfig::new(FleetConfig::cpu2006(30, 8, 9))
        .with_shards(2)
        .with_chunk_rows(32);
    let dir = std::env::temp_dir().join(format!("specrepro-obs-ring-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let seal = |tag: &str| -> Vec<u8> {
        let path = dir.join(format!("{tag}.spdc"));
        run_stream(&scfg, &path).expect("stream seals");
        std::fs::read(&path).expect("container readable")
    };
    let refit_cfg = RefitConfig::new(120, M5Config::default().with_min_leaf(10));

    let bytes_off = seal("off");
    let store_off = ArtifactStore::open(dir.join("store-off"));
    let mut reader = pipeline::chunked::ChunkedReader::open(Cursor::new(&bytes_off)).unwrap();
    let fits_off = windowed_refit(&mut reader, &store_off, &refit_cfg).expect("refit");

    obskit::set_enabled(true, true);
    obskit::set_ring_enabled(true);
    serve::set_trace_sample(1);
    let bytes_on = seal("on");
    let store_on = ArtifactStore::open(dir.join("store-on"));
    let mut reader = pipeline::chunked::ChunkedReader::open(Cursor::new(&bytes_on)).unwrap();
    let fits_on = windowed_refit(&mut reader, &store_on, &refit_cfg).expect("refit");
    obskit::set_ring_enabled(false);
    obskit::set_enabled(false, false);

    assert_eq!(
        bytes_off, bytes_on,
        "the armed flight recorder changed sealed container bytes"
    );
    assert_eq!(fits_off.len(), fits_on.len());
    for (off, on) in fits_off.iter().zip(&fits_on) {
        assert_eq!(off.fingerprint, on.fingerprint, "window keys diverged");
        assert_eq!(
            codec::encode_tree(&off.tree),
            codec::encode_tree(&on.tree),
            "refit tree bytes diverged with the recorder armed"
        );
        match (&off.holdout, &on.holdout) {
            (Some(a), Some(b)) => {
                assert_eq!(a.rows, b.rows);
                assert_eq!(a.mae.to_bits(), b.mae.to_bits(), "holdout MAE diverged");
            }
            (None, None) => {}
            other => panic!("holdout presence diverged: {other:?}"),
        }
    }

    // Non-vacuous: the armed pass actually recorded refit breadcrumbs.
    let (events, _) = obskit::ring::snapshot_events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == obskit::ring::FlightKind::RefitWindow),
        "armed refit recorded no RefitWindow flight events"
    );
    obskit::ring::reset();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm E8 matrix pass replays every artifact: it generates, splits
/// and fits nothing, as seen both by the context's stage counters and
/// by the process-global `pipeline.*` obskit counters, and it assembles
/// the same matrix the cold pass did.
#[test]
fn warm_matrix_pass_does_no_work_on_either_counter_surface() {
    use obskit::metrics::{value, Metric};
    use pipeline::{ArtifactStore, PipelineContext};
    use spec_bench::artifacts::generation_matrix;
    use transfer::{MatrixSpec, TransferMatrix};

    let _guard = Guard::acquire();
    let spec = MatrixSpec::smoke();
    let dir = std::env::temp_dir().join(format!("specrepro-obs-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir);
    obskit::set_enabled(true, false);

    let cold_ctx = PipelineContext::with_store(store.clone()).with_logging(false);
    let cold = TransferMatrix::assess_all(&cold_ctx, &spec, 2).expect("cold matrix");
    let c = cold_ctx.counters();
    assert!(c.datasets_generated > 0, "cold pass must generate");
    assert_eq!(c.trees_fitted, spec.suites.len(), "one fit per suite");
    assert!(
        value(Metric::PipelineTreeMisses) > 0,
        "cold pass saw no tree misses"
    );

    let tree_misses = value(Metric::PipelineTreeMisses);
    let dataset_misses = value(Metric::PipelineDatasetMisses);
    let warm_ctx = PipelineContext::with_store(store.clone()).with_logging(false);
    let warm = TransferMatrix::assess_all(&warm_ctx, &spec, 2).expect("warm matrix");
    let w = warm_ctx.counters();
    assert_eq!(w.datasets_generated, 0, "warm pass regenerated");
    assert_eq!(w.splits_computed, 0, "warm pass resplit");
    assert_eq!(w.trees_fitted, 0, "warm pass refit");
    assert_eq!(
        value(Metric::PipelineTreeMisses) - tree_misses,
        0,
        "obskit saw tree misses on the warm pass"
    );
    assert_eq!(
        value(Metric::PipelineDatasetMisses) - dataset_misses,
        0,
        "obskit saw dataset misses on the warm pass"
    );
    assert_eq!(
        generation_matrix(&warm),
        generation_matrix(&cold),
        "warm matrix is not bit-identical to the cold run"
    );
    let _ = store.clear();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-suite work in a warm canonical E8 pass happens once per suite:
/// each of the 4 trees is compiled once, not once per cell and member
/// set, while the engine still predicts every row a cell needs — 16
/// rest sets of 18k plus the 78 member sets of 2k for each of the 4
/// trained models.
#[test]
fn warm_canonical_matrix_compiles_each_tree_once() {
    use obskit::metrics::{value, Metric};
    use pipeline::PipelineContext;
    use transfer::{MatrixSpec, TransferMatrix};

    let _guard = Guard::acquire();
    let spec = MatrixSpec::canonical();
    let ctx = PipelineContext::ephemeral().with_logging(false);
    TransferMatrix::assess_all(&ctx, &spec, 2).expect("cold matrix");

    obskit::set_enabled(true, false);
    let compilations = value(Metric::EngineCompilations);
    let rows = value(Metric::EngineRowsPredicted);
    let warm = TransferMatrix::assess_all(&ctx, &spec, 2).expect("warm matrix");
    let compilations = value(Metric::EngineCompilations) - compilations;
    let rows = value(Metric::EngineRowsPredicted) - rows;
    obskit::set_enabled(false, false);

    assert_eq!(
        ctx.counters().trees_fitted,
        spec.suites.len(),
        "warm pass refit"
    );
    assert_eq!(warm.cells.len(), 16);
    assert_eq!(
        compilations,
        spec.suites.len() as u64,
        "one compile per tree"
    );
    assert_eq!(rows, 912_000, "the warm pass predicted different rows");
}
