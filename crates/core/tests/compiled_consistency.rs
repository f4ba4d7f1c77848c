//! Exactness contract of the compiled inference engine, the only
//! predictor of a fitted tree.
//!
//! [`ModelTree::compile`] folds the Quinlan smoothing chain into one
//! effective linear model per leaf. Across arbitrary datasets and
//! configurations:
//!
//! * with smoothing off, every compiled prediction is bit-identical to
//!   the reached leaf's own linear model,
//! * compiled classification matches [`ModelTree::classify`] exactly,
//! * [`modeltree::CompiledTree::predict_batch`] is **bit-identical** for every
//!   thread budget.
//!
//! The smoothed fold is checked against testkit's textbook
//! leaf-to-root walk (`testkit/tests/differential.rs`, within `1e-10`).

use modeltree::{M5Config, ModelTree};
use perfcounters::{Dataset, EventId, Sample};
use proptest::prelude::*;

/// Builds a dataset from proptest-provided raw rows: each row is
/// `(dtlb, load, l2, cpi)`.
fn dataset_from_rows(rows: &[(f64, f64, f64, f64)]) -> Dataset {
    let mut ds = Dataset::new();
    let b = ds.add_benchmark("prop");
    for &(dtlb, load, l2, cpi) in rows {
        let mut s = Sample::zeros(cpi);
        s.set(EventId::DtlbMiss, dtlb);
        s.set(EventId::Load, load);
        s.set(EventId::L2Miss, l2);
        ds.push(s, b);
    }
    ds
}

fn row_strategy() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (
        0.0f64..1e-3, // dtlb
        0.0f64..0.5,  // load
        0.0f64..2e-3, // l2
        0.1f64..5.0,  // cpi
    )
}

/// The four configuration corners the engine must cover: smoothing
/// on/off crossed with pruning on/off.
fn config_corners() -> [M5Config; 4] {
    [
        M5Config::default(),
        M5Config::default().with_smoothing(false),
        M5Config::default().with_prune(false),
        M5Config::default().with_smoothing(false).with_prune(false),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn compiled_matches_leaf_models_and_classify(
        rows in proptest::collection::vec(row_strategy(), 30..300),
    ) {
        let ds = dataset_from_rows(&rows);
        for config in config_corners() {
            let tree = ModelTree::fit(&ds, &config).unwrap();
            let engine = tree.compile();
            prop_assert_eq!(engine.n_leaves(), tree.n_leaves());
            for i in 0..ds.len() {
                let s = ds.sample(i);
                if !config.smoothing {
                    // No smoothing: the folded model IS the leaf model.
                    let leaf = tree.node(tree.leaf_of(&s)).model().predict(&s);
                    prop_assert_eq!(leaf.to_bits(), engine.predict(&s).to_bits());
                }
                prop_assert_eq!(engine.classify(&s), tree.classify(&s));
            }
        }
    }

    #[test]
    fn predict_batch_bit_identical_across_thread_counts(
        rows in proptest::collection::vec(row_strategy(), 30..300),
        smooth_flag in 0usize..2,
    ) {
        let ds = dataset_from_rows(&rows);
        let config = M5Config::default().with_smoothing(smooth_flag == 1);
        let tree = ModelTree::fit(&ds, &config).unwrap();
        let engine = tree.compile();
        let serial = engine.clone().with_n_threads(1).predict_batch(&ds);
        // The batch path must also agree bit-exactly with the engine's
        // own per-sample prediction.
        for (i, &p) in serial.iter().enumerate() {
            prop_assert_eq!(p.to_bits(), engine.predict(&ds.sample(i)).to_bits());
        }
        for threads in [2usize, 8] {
            let parallel = engine.clone().with_n_threads(threads).predict_batch(&ds);
            prop_assert_eq!(serial.len(), parallel.len());
            for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "row {} differs at n_threads={}: {} vs {}",
                    i, threads, a, b
                );
            }
        }
    }

    #[test]
    fn classify_batch_matches_interpreted_classify(
        rows in proptest::collection::vec(row_strategy(), 30..200),
    ) {
        let ds = dataset_from_rows(&rows);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile();
        for threads in [1usize, 2, 8] {
            let classes = engine.clone().with_n_threads(threads).classify_batch(&ds);
            prop_assert_eq!(classes.len(), ds.len());
            for (i, &lm) in classes.iter().enumerate() {
                prop_assert_eq!(lm as usize, tree.classify(&ds.sample(i)));
            }
        }
    }

    #[test]
    fn predict_indices_matches_batch_rows(
        rows in proptest::collection::vec(row_strategy(), 30..200),
        stride in 1usize..7,
    ) {
        let ds = dataset_from_rows(&rows);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let engine = tree.compile();
        let full = engine.predict_batch(&ds);
        let indices: Vec<u32> = (0..ds.len() as u32).step_by(stride).collect();
        for threads in [1usize, 8] {
            let subset = engine
                .clone()
                .with_n_threads(threads)
                .predict_indices(&ds, &indices);
            prop_assert_eq!(subset.len(), indices.len());
            for (j, &i) in indices.iter().enumerate() {
                prop_assert_eq!(subset[j].to_bits(), full[i as usize].to_bits());
            }
        }
    }
}
