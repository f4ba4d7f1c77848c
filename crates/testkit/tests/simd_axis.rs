//! SIMD-axis verification: the vectorized engine kernels against the
//! scalar oracles, and the quantized `f32` fast path against its
//! published error bound.
//!
//! The tentpole contract of the vectorized kernels is *bit-identity*:
//! with `f64` precision, turning SIMD on or off — at any block size,
//! including degenerate ones that force scalar lane tails on every
//! block — must not change a single output bit. These tests sweep that
//! axis across the differential corner lattice, re-run the canonical
//! E2 (CPU2006) experiment predictions both ways byte for byte, and
//! check the engine's row-accounting telemetry.

use std::sync::Mutex;

use modeltree::{CompiledTree, ModelTree, Precision};
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

/// SIMD on vs off across the differential corner lattice: predictions,
/// classifications, and subset predictions must agree bit for bit,
/// including at block sizes that leave lane tails on every block.
#[test]
fn simd_engine_is_bit_identical_across_corner_lattice() {
    let corners = corner_lattice();
    for d in 0..12 {
        let data = differential_dataset(d);
        for corner in corners.iter().step_by(5) {
            let tree = ModelTree::fit(&data, &corner.config).unwrap();
            let scalar = CompiledTree::new(&tree).with_n_threads(1).with_simd(false);
            let simd = CompiledTree::new(&tree).with_n_threads(1).with_simd(true);
            let p_scalar = scalar.predict_batch(&data);
            let p_simd = simd.predict_batch(&data);
            assert_bitwise_equal(
                &p_scalar,
                &p_simd,
                &format!("dataset {d} [{}]", corner.name),
            );
            assert_eq!(
                scalar.classify_batch(&data),
                simd.classify_batch(&data),
                "dataset {d} [{}]: classify diverged",
                corner.name
            );
            // Stride-3 subset exercises the gathered (index-list) path.
            let subset: Vec<u32> = (0..data.len() as u32).step_by(3).collect();
            assert_bitwise_equal(
                &scalar.predict_indices(&data, &subset),
                &simd.predict_indices(&data, &subset),
                &format!("dataset {d} [{}] indices", corner.name),
            );
            // Tiny blocks force lane tails and multi-block descent on
            // every batch; results must not move.
            for rows in [8usize, 64] {
                let small = CompiledTree::new(&tree)
                    .with_n_threads(1)
                    .with_simd(true)
                    .with_block_rows(rows);
                assert_bitwise_equal(
                    &p_scalar,
                    &small.predict_batch(&data),
                    &format!("dataset {d} [{}] block_rows={rows}", corner.name),
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
    let scalar = CompiledTree::new(&tree).with_n_threads(1).with_simd(false);
    let simd = CompiledTree::new(&tree).with_n_threads(1).with_simd(true);
    for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65] {
        if n > data.len() {
            break;
        }
        let subset: Vec<u32> = (0..n as u32).collect();
        assert_bitwise_equal(
            &scalar.predict_indices(&data, &subset),
            &simd.predict_indices(&data, &subset),
            &format!("n={n}"),
        );
    }
}

/// The canonical E2 (CPU2006 60k-sample) experiment predictions: the
/// engine that produced the checked-in `results/` artifacts must emit
/// byte-for-byte identical predictions with the vectorized kernels on
/// and off. This is the end-to-end guard behind the CI matrix's
/// `SPECREPRO_NO_SIMD` legs.
#[test]
fn e2_predictions_are_byte_identical_with_simd_on_and_off() {
    let data = spec_bench::cpu2006_dataset();
    let tree = spec_bench::fit_suite_tree(&data);
    let scalar = tree.compile().with_n_threads(1).with_simd(false);
    let simd = tree.compile().with_n_threads(1).with_simd(true);
    let p_scalar = scalar.predict_batch(&data);
    let p_simd = simd.predict_batch(&data);
    // Byte-for-byte: compare the raw little-endian rendering, the same
    // bytes any serialized artifact of these predictions would contain.
    let bytes = |p: &[f64]| -> Vec<u8> { p.iter().flat_map(|v| v.to_le_bytes()).collect() };
    assert_eq!(
        bytes(&p_scalar),
        bytes(&p_simd),
        "E2 predictions changed bytes under SIMD"
    );
    // And the parallel engine agrees too, regardless of chunking.
    let parallel = tree.compile().with_n_threads(4).with_simd(true);
    assert_bitwise_equal(&p_scalar, &parallel.predict_batch(&data), "parallel E2");
}

/// The quantized `f32` fast path must stay within its analytic
/// per-leaf error bound wherever both precisions agree on the leaf,
/// and the overwhelming majority of rows must be comparable.
#[test]
fn f32_fast_path_respects_published_bound() {
    for d in [0usize, 5, 9] {
        let data = differential_dataset(d);
        let config = corner_lattice()[0].config;
        let tree = ModelTree::fit(&data, &config).unwrap();
        let exact = CompiledTree::new(&tree).with_n_threads(1).with_simd(false);
        let fast = CompiledTree::new(&tree)
            .with_n_threads(1)
            .with_precision(Precision::F32Fast);
        let p_exact = exact.predict_batch(&data);
        let p_fast = fast.predict_batch(&data);
        let mut comparable = 0usize;
        for (i, (sample, _)) in data.iter().enumerate() {
            if fast.classify(&sample) == exact.classify(&sample) {
                let bound = fast
                    .f32_error_bound(&sample)
                    .expect("quantized engines publish bounds");
                let err = (p_exact[i] - p_fast[i]).abs();
                assert!(
                    err <= bound,
                    "dataset {d} row {i}: f32 error {err:e} above bound {bound:e}"
                );
                comparable += 1;
            }
        }
        assert!(
            comparable * 10 >= data.len() * 9,
            "dataset {d}: only {comparable}/{} rows comparable",
            data.len()
        );
    }
}

/// Engine row accounting: over a full batch every row is evaluated at
/// exactly one leaf, so `engine.simd_rows + engine.scalar_tail_rows`
/// must equal the batch size — for the f64 kernel and the f32 fast
/// path alike.
#[test]
fn simd_counters_account_for_every_row() {
    use obskit::metrics::{value, Metric};
    let (_lock, _guard) = Guard::acquire();
    let base = differential_dataset(1);
    let config = corner_lattice()[0].config;
    let tree = ModelTree::fit(&base, &config).unwrap();
    // Tile the rows so every leaf sees full vector lanes (the base
    // differential datasets are deliberately tiny).
    let mut data = perfcounters::Dataset::new();
    let label = data.add_benchmark("tiled");
    for _ in 0..32 {
        for (sample, _) in base.iter() {
            data.push(sample.clone(), label);
        }
    }

    for (name, engine) in [
        (
            "f64",
            CompiledTree::new(&tree).with_n_threads(1).with_simd(true),
        ),
        (
            "f32",
            CompiledTree::new(&tree)
                .with_n_threads(1)
                .with_precision(Precision::F32Fast),
        ),
    ] {
        obskit::metrics::reset();
        obskit::set_enabled(true, false);
        let out = engine.predict_batch(&data);
        obskit::set_enabled(false, false);
        assert_eq!(out.len(), data.len());
        let simd_rows = value(Metric::EngineSimdRows);
        let tail_rows = value(Metric::EngineScalarTailRows);
        assert_eq!(
            simd_rows + tail_rows,
            data.len() as u64,
            "{name}: simd {simd_rows} + tail {tail_rows} != batch {}",
            data.len()
        );
        assert!(simd_rows > 0, "{name}: no rows took the vector path");
    }

    // The scalar oracle engine records no vector-lane rows.
    obskit::metrics::reset();
    obskit::set_enabled(true, false);
    let scalar = CompiledTree::new(&tree).with_n_threads(1).with_simd(false);
    let _ = scalar.predict_batch(&data);
    obskit::set_enabled(false, false);
    assert_eq!(value(Metric::EngineSimdRows), 0);
    assert_eq!(value(Metric::EngineScalarTailRows), 0);
}
