//! Cross-crate invariants, including property-based tests over randomly
//! generated workload data.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spec_suite_repro::prelude::*;

fn generate(suite: &Suite, n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    suite.generate(&mut rng, n, &GeneratorConfig::default(), 1)
}

#[test]
fn every_generated_sample_is_physical() {
    for (suite, seed) in [(Suite::cpu2006(), 1u64), (Suite::omp2001(), 2u64)] {
        let data = generate(&suite, 5_000, seed);
        for (s, _) in data.iter() {
            assert!(s.is_physical());
            assert!(
                s.cpi() > 0.05 && s.cpi() < 10.0,
                "implausible CPI {}",
                s.cpi()
            );
            // Densities are per-instruction values.
            for e in EventId::ALL {
                assert!(
                    s.get(e) <= 1.0,
                    "{} density {} > 1",
                    e.short_name(),
                    s.get(e)
                );
            }
        }
    }
}

#[test]
fn smoothed_predictions_stay_within_sane_cpi_range() {
    let data = generate(&Suite::cpu2006(), 8_000, 3);
    let tree = ModelTree::fit(&data, &M5Config::default().with_min_leaf(50)).expect("fit");
    let probe_data = generate(&Suite::cpu2006(), 2_000, 4);
    for p in tree.predict_all(&probe_data) {
        assert!(p.is_finite());
        assert!(p > -1.0 && p < 12.0, "prediction {p} out of range");
    }
}

#[test]
fn unpruned_tree_has_no_fewer_leaves_and_no_worse_train_error() {
    let data = generate(&Suite::omp2001(), 6_000, 5);
    let pruned = ModelTree::fit(&data, &M5Config::default().with_min_leaf(60)).expect("fit");
    let unpruned = ModelTree::fit(
        &data,
        &M5Config::default().with_min_leaf(60).with_prune(false),
    )
    .expect("fit");
    assert!(unpruned.n_leaves() >= pruned.n_leaves());
    // On training data the bigger tree can't be meaningfully worse.
    assert!(unpruned.mean_abs_error(&data) <= pruned.mean_abs_error(&data) + 0.02);
}

#[test]
fn smoothing_off_matches_leaf_models_exactly() {
    let data = generate(&Suite::cpu2006(), 6_000, 6);
    let tree = ModelTree::fit(
        &data,
        &M5Config::default().with_min_leaf(60).with_smoothing(false),
    )
    .expect("fit");
    let leaves = tree.leaves();
    let engine = tree.compile();
    for i in (0..data.len()).step_by(101) {
        let s = data.sample(i);
        let lm = tree.classify(&s);
        let leaf_model = &leaves[lm - 1].model;
        assert!(
            (engine.predict(&s) - leaf_model.predict(&s)).abs() < 1e-12,
            "unsmoothed prediction differs from leaf model"
        );
    }
}

#[test]
fn profile_of_training_data_matches_leaf_shares() {
    let data = generate(&Suite::cpu2006(), 6_000, 7);
    let tree = ModelTree::fit(&data, &M5Config::default().with_min_leaf(60)).expect("fit");
    let profile = characterize::LeafProfile::of(&tree, &data);
    for leaf in tree.leaves() {
        assert!(
            (profile.share(leaf.lm_index) - leaf.share).abs() < 1e-9,
            "LM{}: profile {} vs leaf {}",
            leaf.lm_index,
            profile.share(leaf.lm_index),
            leaf.share
        );
    }
}

#[test]
fn knn_and_tree_agree_on_dense_regions() {
    let data = generate(&Suite::cpu2006(), 6_000, 8);
    let mut rng = StdRng::seed_from_u64(9);
    let (train, test) = data.split_random(&mut rng, 0.7);
    let tree = ModelTree::fit(&train, &M5Config::default().with_min_leaf(40)).expect("fit");
    let knn = KnnRegressor::fit(&train, 15).expect("knn fit");
    // Both should be decent; their predictions should broadly agree.
    let tree_preds = tree.predict_all(&test);
    let knn_preds = knn.predict_all(&test);
    let m = PredictionMetrics::from_predictions(&tree_preds, &knn_preds).expect("metrics");
    assert!(m.correlation > 0.8, "tree/knn agreement too low: {m}");
}

#[test]
fn platform_drift_decays_monotonically_around_training_contention() {
    // An OMP model trained at contention 1.0 must fit its own platform
    // best, with accuracy degrading in both directions.
    let mut rng = StdRng::seed_from_u64(77);
    let base = Suite::omp2001().generate(&mut rng, 8_000, &GeneratorConfig::default(), 1);
    let tree = ModelTree::fit(&base, &M5Config::default().with_min_leaf(60)).expect("fit");
    let mae_at = |contention: f64| {
        let mut cfg = GeneratorConfig::default();
        cfg.cost = cfg.cost.with_contention(contention);
        let mut rng = StdRng::seed_from_u64(78);
        let shifted = Suite::omp2001().generate(&mut rng, 4_000, &cfg, 1);
        tree.mean_abs_error(&shifted)
    };
    let at_half = mae_at(0.5);
    let at_one = mae_at(1.0);
    let at_two = mae_at(2.0);
    assert!(at_one < at_half, "on-platform {at_one} vs 0.5x {at_half}");
    assert!(at_one < at_two, "on-platform {at_one} vs 2x {at_two}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_pipeline_invariants_hold_for_any_seed(seed in 0u64..10_000) {
        let data = generate(&Suite::cpu2006(), 1_500, seed);
        prop_assert_eq!(data.len(), 1_500);
        let tree = ModelTree::fit(&data, &M5Config::default().with_min_leaf(30)).unwrap();
        // Leaf shares always partition the training set.
        let total: f64 = tree.leaves().iter().map(|l| l.share).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Every classification lands in [1, n_leaves].
        for i in (0..data.len()).step_by(173) {
            let lm = tree.classify(&data.sample(i));
            prop_assert!(lm >= 1 && lm <= tree.n_leaves());
        }
        // Training MAE is bounded (regimes are learnable).
        prop_assert!(tree.mean_abs_error(&data) < 0.25);
    }

    #[test]
    fn prop_split_fractions_partition(seed in 0u64..10_000, fraction in 0.05f64..0.95) {
        let data = generate(&Suite::omp2001(), 400, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let (a, b) = data.split_random(&mut rng, fraction);
        prop_assert_eq!(a.len() + b.len(), data.len());
        let expected = (fraction * 400.0).ceil() as usize;
        prop_assert_eq!(a.len(), expected);
    }

    #[test]
    fn prop_metrics_detect_self_prediction(seed in 0u64..10_000) {
        let data = generate(&Suite::cpu2006(), 300, seed);
        let cpis = data.cpis();
        let m = PredictionMetrics::from_predictions(&cpis, &cpis).unwrap();
        prop_assert!((m.correlation - 1.0).abs() < 1e-9);
        prop_assert_eq!(m.mae, 0.0);
    }
}
