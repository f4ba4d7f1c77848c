//! SIMD-axis verification: the vectorized batch kernel against its
//! scalar oracle, the per-row `CompiledTree::predict` / `classify`.
//!
//! The contract of the vectorized kernel is *bit-identity*: every batch
//! entry point — at any block size, including degenerate ones that
//! force scalar lane tails on every block, and at any thread count —
//! returns exactly the per-row path's bits for every row. These tests
//! sweep that axis across the differential corner lattice, re-run the
//! canonical E2 (CPU2006) experiment predictions against the per-row
//! path byte for byte, and check the engine's row and block accounting
//! telemetry.

use std::sync::Mutex;

use modeltree::{CompiledTree, ModelTree};
use perfcounters::Dataset;
use testkit::corner_lattice;
use testkit::generators::differential_dataset;

/// Serializes tests that flip the process-global telemetry switch
/// (same pattern as the observability suite; integration-test files
/// are separate processes, so cross-file interference is impossible).
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

fn assert_bitwise_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {i}: {x} vs {y}");
    }
}

/// The per-row oracle's predictions for the rows `rows` of `data`, in
/// that order.
fn per_row_predict(
    engine: &CompiledTree,
    data: &Dataset,
    rows: impl IntoIterator<Item = usize>,
) -> Vec<f64> {
    rows.into_iter()
        .map(|i| engine.predict(&data.sample(i)))
        .collect()
}

/// The per-row oracle's classification of every row of `data`.
fn per_row_classify(engine: &CompiledTree, data: &Dataset) -> Vec<u32> {
    (0..data.len())
        .map(|i| engine.classify(&data.sample(i)) as u32)
        .collect()
}

/// Batch kernel vs per-row oracle across the differential corner
/// lattice: predictions, classifications, and subset predictions must
/// agree bit for bit, including at block sizes that leave lane tails on
/// every block.
#[test]
fn simd_engine_is_bit_identical_across_corner_lattice() {
    let corners = corner_lattice();
    for d in 0..12 {
        let data = differential_dataset(d);
        for corner in corners.iter().step_by(5) {
            let tree = ModelTree::fit(&data, &corner.config).unwrap();
            let engine = CompiledTree::new(&tree).with_n_threads(1);
            let oracle = per_row_predict(&engine, &data, 0..data.len());
            assert_bitwise_equal(
                &oracle,
                &engine.predict_batch(&data),
                &format!("dataset {d} [{}]", corner.name),
            );
            assert_eq!(
                per_row_classify(&engine, &data),
                engine.classify_batch(&data),
                "dataset {d} [{}]: classify diverged",
                corner.name
            );
            // Stride-3 subset exercises the gathered (index-list) path.
            let subset: Vec<u32> = (0..data.len() as u32).step_by(3).collect();
            assert_bitwise_equal(
                &per_row_predict(&engine, &data, subset.iter().map(|&i| i as usize)),
                &engine.predict_indices(&data, &subset),
                &format!("dataset {d} [{}] indices", corner.name),
            );
            // Tiny blocks force lane tails and multi-block descent on
            // every batch; results must not move.
            for rows in [8usize, 64] {
                let small = CompiledTree::new(&tree)
                    .with_n_threads(1)
                    .with_block_rows(rows);
                assert_bitwise_equal(
                    &oracle,
                    &small.predict_batch(&data),
                    &format!("dataset {d} [{}] block_rows={rows}", corner.name),
                );
                assert_eq!(
                    per_row_classify(&engine, &data),
                    small.classify_batch(&data),
                    "dataset {d} [{}] block_rows={rows}: classify diverged",
                    corner.name
                );
            }
        }
    }
}

/// Lane-tail edge shapes: batch sizes around every lane boundary, the
/// single row, and sizes that leave each possible tail length.
#[test]
fn lane_tails_and_tiny_batches_are_bit_identical() {
    let data = differential_dataset(3);
    let config = corner_lattice()[0].config;
    let tree = ModelTree::fit(&data, &config).unwrap();
    let engine = CompiledTree::new(&tree).with_n_threads(1);
    for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65] {
        if n > data.len() {
            break;
        }
        let subset: Vec<u32> = (0..n as u32).collect();
        assert_bitwise_equal(
            &per_row_predict(&engine, &data, 0..n),
            &engine.predict_indices(&data, &subset),
            &format!("n={n}"),
        );
    }
}

/// The canonical E2 (CPU2006 60k-sample) experiment predictions: the
/// engine that produced the checked-in `results/` artifacts must emit
/// byte-for-byte identical predictions from the vectorized batch kernel
/// (SIMD on) and the scalar per-row path (SIMD off), serial and on four
/// threads.
#[test]
fn e2_batch_predictions_are_byte_identical_to_per_row() {
    let data = spec_bench::cpu2006_dataset();
    let tree = spec_bench::fit_suite_tree(&data);
    let engine = tree.compile().with_n_threads(1);
    let p_scalar = per_row_predict(&engine, &data, 0..data.len());
    let p_simd = engine.predict_batch(&data);
    // Byte-for-byte: compare the raw little-endian rendering, the same
    // bytes any serialized artifact of these predictions would contain.
    let bytes = |p: &[f64]| -> Vec<u8> { p.iter().flat_map(|v| v.to_le_bytes()).collect() };
    assert_eq!(
        bytes(&p_scalar),
        bytes(&p_simd),
        "E2 batch predictions differ from the per-row path"
    );
    // And the parallel engine agrees too, regardless of chunking.
    let parallel = tree.compile().with_n_threads(4);
    assert_eq!(
        bytes(&p_simd),
        bytes(&parallel.predict_batch(&data)),
        "parallel E2"
    );
}

/// Engine row accounting: over a full batch every row is evaluated at
/// exactly one leaf, so `engine.simd_rows + engine.scalar_tail_rows`
/// must equal the batch size, and `engine.blocks` counts the cache
/// blocks the kernel actually ran.
#[test]
fn simd_counters_account_for_every_row() {
    use obskit::metrics::{value, Metric};
    let (_lock, _guard) = Guard::acquire();
    let base = differential_dataset(1);
    let config = corner_lattice()[0].config;
    let tree = ModelTree::fit(&base, &config).unwrap();
    // Tile the rows so every leaf sees full vector lanes (the base
    // differential datasets are deliberately tiny).
    let mut data = Dataset::new();
    let label = data.add_benchmark("tiled");
    for _ in 0..32 {
        for (sample, _) in base.iter() {
            data.push(sample.clone(), label);
        }
    }

    let n = data.len();
    for (name, engine, blocks) in [
        (
            "predict",
            CompiledTree::new(&tree)
                .with_n_threads(1)
                .with_block_rows(64),
            n.div_ceil(64),
        ),
        (
            "predict, block_rows 1000",
            CompiledTree::new(&tree)
                .with_n_threads(1)
                .with_block_rows(1000),
            n.div_ceil(1000),
        ),
    ] {
        obskit::metrics::reset();
        obskit::set_enabled(true, false);
        let out = engine.predict_batch(&data);
        obskit::set_enabled(false, false);
        assert_eq!(out.len(), n);
        let simd_rows = value(Metric::EngineSimdRows);
        let tail_rows = value(Metric::EngineScalarTailRows);
        assert_eq!(
            simd_rows + tail_rows,
            n as u64,
            "{name}: simd {simd_rows} + tail {tail_rows} != batch {n}"
        );
        assert!(simd_rows > 0, "{name}: no rows took the vector path");
        assert_eq!(
            value(Metric::EngineBlocks),
            blocks as u64,
            "{name}: block count"
        );
    }

    // Classify runs the same blocks, and every row lands in one leaf.
    obskit::metrics::reset();
    obskit::set_enabled(true, false);
    let engine = CompiledTree::new(&tree)
        .with_n_threads(1)
        .with_block_rows(64);
    let _ = engine.classify_batch(&data);
    obskit::set_enabled(false, false);
    assert_eq!(
        value(Metric::EngineSimdRows) + value(Metric::EngineScalarTailRows),
        n as u64
    );
    assert_eq!(value(Metric::EngineBlocks), n.div_ceil(64) as u64);
}
