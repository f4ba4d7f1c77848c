//! Property-based tests of model-tree invariants over randomly generated
//! datasets.

use modeltree::{M5Config, ModelTree, NodeKind};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fit_never_panics_and_invariants_hold(
        rows in proptest::collection::vec(row_strategy(), 10..300)
    ) {
        let ds = dataset_from_rows(&rows);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();

        // Structural invariants.
        prop_assert!(tree.n_leaves() >= 1);
        prop_assert!(tree.n_nodes() >= tree.n_leaves());
        prop_assert_eq!(tree.n_training(), ds.len());

        // Leaf sample counts partition the training set.
        let leaf_total: usize = tree.leaves().iter().map(|l| l.n_samples).sum();
        prop_assert_eq!(leaf_total, ds.len());

        // Predictions are finite everywhere on the training set.
        let engine = tree.compile();
        for i in 0..ds.len() {
            let p = engine.predict(&ds.sample(i));
            prop_assert!(p.is_finite());
        }
    }

    #[test]
    fn classification_agrees_with_manual_descent(
        rows in proptest::collection::vec(row_strategy(), 30..200)
    ) {
        let ds = dataset_from_rows(&rows);
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        for i in (0..ds.len()).step_by(7) {
            let s = ds.sample(i);
            // Manual descent must land on the leaf `classify` reports.
            let mut id = tree.root();
            loop {
                match *tree.node(id).kind() {
                    NodeKind::Leaf { lm_index } => {
                        prop_assert_eq!(lm_index, tree.classify(&s));
                        break;
                    }
                    NodeKind::Split { event, threshold, left, right } => {
                        id = if s.get(event) <= threshold { left } else { right };
                    }
                }
            }
        }
    }

    #[test]
    fn interior_nodes_conserve_sample_counts(
        rows in proptest::collection::vec(row_strategy(), 50..250)
    ) {
        let ds = dataset_from_rows(&rows);
        let tree = ModelTree::fit(
            &ds,
            &M5Config::default().with_prune(false),
        ).unwrap();
        // Every split node's count equals the sum of its children's.
        for id in tree.node_ids() {
            let node = tree.node(id);
            if let NodeKind::Split { left, right, .. } = *node.kind() {
                let sum = tree.node(left).n_samples() + tree.node(right).n_samples();
                prop_assert_eq!(node.n_samples(), sum);
            }
        }
    }

    #[test]
    fn smoothing_prediction_bounded_by_path_extremes(
        rows in proptest::collection::vec(row_strategy(), 30..200)
    ) {
        // Smoothing is a convex combination of node-model predictions, so
        // a smoothed prediction cannot exceed the most extreme node-model
        // prediction along the path by construction. We verify the looser
        // practical bound: finiteness and proximity to the unsmoothed
        // value within the spread of training CPI.
        let ds = dataset_from_rows(&rows);
        let smoothed = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let raw = ModelTree::fit(&ds, &M5Config::default().with_smoothing(false)).unwrap();
        let spread = ds.cpis().iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - ds.cpis().iter().cloned().fold(f64::INFINITY, f64::min);
        let (smoothed, raw) = (smoothed.compile(), raw.compile());
        for i in (0..ds.len()).step_by(11) {
            let s = ds.sample(i);
            let d = (smoothed.predict(&s) - raw.predict(&s)).abs();
            prop_assert!(d <= spread + 1.0, "smoothing moved {d} vs spread {spread}");
        }
    }
}

#[test]
fn node_id_is_public_for_traversal() {
    // Compile-time check that the traversal API (NodeId construction via
    // root()) is usable downstream.
    let mut ds = Dataset::new();
    let b = ds.add_benchmark("x");
    for i in 0..10 {
        ds.push(Sample::zeros(i as f64), b);
    }
    let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
    let root = tree.root();
    let _ = tree.node(root);
}
