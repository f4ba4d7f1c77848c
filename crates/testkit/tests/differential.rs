//! Differential verification: the optimized M5' trainer against the
//! naive reference oracle, across the full configuration lattice and a
//! pool of generated datasets (including adversarial shapes).
//!
//! The contract is strict:
//!
//! * trained trees are **bit-identical** to the reference — structure,
//!   split events, thresholds, node statistics, and model coefficients
//!   compared via `to_bits` (smoothing and thread count must not affect
//!   training at all);
//! * the compiled engine — the only predictor, which algebraically
//!   folds the smoothing chain into flat per-leaf models — agrees with
//!   the reference's textbook leaf-to-root walk bit-for-bit with
//!   smoothing off and to `<= 1e-10` relative error with smoothing on.
//!
//! Smoke mode covers 100 datasets x 24 corners on every push;
//! `TESTKIT_FULL=1` deepens the pool to 300.

use std::collections::BTreeMap;

use modeltree::{CompiledTree, ModelTree};
use testkit::generators::differential_dataset;
use testkit::reference::RefTree;
use testkit::{close_to, corner_lattice, n_differential_datasets, training_key};

#[test]
fn optimized_trainer_is_bit_identical_to_reference_oracle() {
    let corners = corner_lattice();
    assert!(corners.len() >= 16);
    let n_datasets = n_differential_datasets();
    let mut n_tree_comparisons = 0usize;
    let mut n_prediction_checks = 0usize;

    for d in 0..n_datasets {
        let data = differential_dataset(d);
        // Smoothing and thread count do not affect training, so one
        // reference fit serves every corner sharing a training key.
        let mut references: BTreeMap<_, RefTree> = BTreeMap::new();

        for corner in &corners {
            let reference = references
                .entry(training_key(&corner.config))
                .or_insert_with(|| {
                    RefTree::fit(&data, &corner.config).unwrap_or_else(|e| {
                        panic!("reference fit failed on dataset {d} [{}]: {e}", corner.name)
                    })
                });
            let tree = ModelTree::fit(&data, &corner.config).unwrap_or_else(|e| {
                panic!("optimized fit failed on dataset {d} [{}]: {e}", corner.name)
            });
            if let Err(mismatch) = reference.assert_matches(&tree) {
                panic!(
                    "dataset {d} (n={}) [{}]: optimized tree diverged from reference\n  {mismatch}",
                    data.len(),
                    corner.name
                );
            }
            n_tree_comparisons += 1;

            // Compiled engine against the textbook walk: exact without
            // smoothing; the folded smoothing chain reassociates, so
            // within 1e-10 with it.
            let engine = CompiledTree::new(&tree);
            for (i, (sample, _)) in data.iter().enumerate() {
                let want = reference.predict_with_smoothing(&sample, corner.config.smoothing);
                let compiled = engine.predict(&sample);
                if corner.config.smoothing {
                    if let Err(msg) = close_to(compiled, want, 1e-10) {
                        panic!(
                            "dataset {d} row {i} [{}]: compiled engine diverged: {msg}",
                            corner.name
                        );
                    }
                } else {
                    assert_eq!(
                        compiled.to_bits(),
                        want.to_bits(),
                        "dataset {d} row {i} [{}]: compiled {compiled} vs reference {want}",
                        corner.name
                    );
                }
                n_prediction_checks += 1;
            }
        }
    }

    assert!(
        n_tree_comparisons >= 16 * 100,
        "sweep too shallow: {n_tree_comparisons} tree comparisons"
    );
    assert!(n_prediction_checks > 0);
}

/// `fit_indices` over the identity permutation must match a plain `fit`
/// — and therefore the reference — bit for bit.
#[test]
fn fit_indices_identity_matches_reference() {
    let corners = corner_lattice();
    for d in 0..10 {
        let data = differential_dataset(d);
        let indices: Vec<u32> = (0..data.len() as u32).collect();
        for corner in corners.iter().step_by(5) {
            let reference = RefTree::fit(&data, &corner.config).unwrap();
            let tree = ModelTree::fit_indices(&data, &indices, &corner.config).unwrap();
            if let Err(mismatch) = reference.assert_matches(&tree) {
                panic!(
                    "dataset {d} [{}]: fit_indices diverged: {mismatch}",
                    corner.name
                );
            }
        }
    }
}

/// The reference must also agree with the optimized trainer's own
/// training-error accounting.
#[test]
fn training_error_agrees_with_reference_predictions() {
    for d in 0..20 {
        let data = differential_dataset(d);
        let config = corner_lattice()[0].config;
        let reference = RefTree::fit(&data, &config).unwrap();
        let tree = ModelTree::fit(&data, &config).unwrap();
        let mae_ref: f64 = data
            .iter()
            .map(|(s, _)| (reference.predict(&s) - s.cpi()).abs())
            .sum::<f64>()
            / data.len() as f64;
        let mae_opt = tree.mean_abs_error(&data);
        if let Err(msg) = close_to(mae_ref, mae_opt, 1e-12) {
            panic!("dataset {d}: training MAE diverged: {msg}");
        }
    }
}
