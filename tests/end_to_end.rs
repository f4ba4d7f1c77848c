//! End-to-end integration: data generation → model tree → profiling →
//! similarity → transferability, exercising every crate boundary.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spec_suite_repro::prelude::*;

fn generate(suite: &Suite, n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    suite.generate(&mut rng, n, &GeneratorConfig::default(), 1)
}

#[test]
fn full_pipeline_cpu2006() {
    let data = generate(&Suite::cpu2006(), 12_000, 101);
    assert_eq!(data.benchmark_count(), 29);

    let config = M5Config::default().with_min_leaf(100);
    let tree = ModelTree::fit(&data, &config).expect("fit");
    assert!(tree.n_leaves() >= 4, "tree too small: {}", tree.n_leaves());
    assert!(tree.mean_abs_error(&data) < 0.12);

    // Classification must route every sample to a real leaf.
    let table = ProfileTable::build(&tree, &data);
    for p in table.profiles() {
        let total: f64 = p.shares().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
    let suite_total: f64 = table.suite().shares().iter().sum();
    assert!((suite_total - 1.0).abs() < 1e-9);

    // Similarity matrix agrees with direct profile distances.
    let matrix = SimilarityMatrix::from_table(&table);
    let a = &table.names()[0];
    let b = &table.names()[1];
    let direct = table
        .profile(a)
        .unwrap()
        .l1_distance(table.profile(b).unwrap());
    assert!((matrix.distance_by_name(a, b).unwrap() - direct).abs() < 1e-12);
}

#[test]
fn dataset_roundtrips_preserve_classification() {
    let data = generate(&Suite::omp2001(), 4_000, 102);
    let tree = ModelTree::fit(&data, &M5Config::default().with_min_leaf(50)).expect("fit");

    // CSV round trip.
    let mut csv = Vec::new();
    data.to_csv(&mut csv).expect("write csv");
    let back = Dataset::from_csv(csv.as_slice()).expect("parse csv");
    assert_eq!(back.len(), data.len());
    for i in (0..data.len()).step_by(97) {
        assert_eq!(
            tree.classify(&back.sample(i)),
            tree.classify(&data.sample(i)),
            "classification changed across CSV round trip at {i}"
        );
    }

    // Tree JSON round trip preserves predictions exactly enough.
    let json = serde_json::to_string(&tree).expect("serialize tree");
    let tree2: ModelTree = serde_json::from_str(&json).expect("deserialize tree");
    let (engine, engine2) = (tree.compile(), tree2.compile());
    for i in (0..data.len()).step_by(131) {
        let s = data.sample(i);
        assert!((engine.predict(&s) - engine2.predict(&s)).abs() < 1e-9);
    }
}

#[test]
fn transferability_pipeline_runs_both_directions() {
    let cpu = generate(&Suite::cpu2006(), 10_000, 103);
    let omp = generate(&Suite::omp2001(), 10_000, 104);
    let mut rng = StdRng::seed_from_u64(105);
    let (cpu_train, cpu_rest) = cpu.split_random(&mut rng, 0.1);
    let (omp_train, omp_rest) = omp.split_random(&mut rng, 0.1);

    let m5 = M5Config::default().with_min_leaf(20);
    let cpu_tree = ModelTree::fit(&cpu_train, &m5).expect("cpu fit");
    let omp_tree = ModelTree::fit(&omp_train, &m5).expect("omp fit");
    let config = TransferConfig::default();

    let within_cpu =
        TransferabilityReport::assess(&cpu_tree, &cpu_train, &cpu_rest, "c", "c", &config)
            .expect("assess");
    let within_omp =
        TransferabilityReport::assess(&omp_tree, &omp_train, &omp_rest, "o", "o", &config)
            .expect("assess");
    let cross_co =
        TransferabilityReport::assess(&cpu_tree, &cpu_train, &omp_rest, "c", "o", &config)
            .expect("assess");
    let cross_oc =
        TransferabilityReport::assess(&omp_tree, &omp_train, &cpu_rest, "o", "c", &config)
            .expect("assess");

    assert!(
        within_cpu.accuracy_transferable(),
        "{}",
        within_cpu.render()
    );
    assert!(
        within_omp.accuracy_transferable(),
        "{}",
        within_omp.render()
    );
    assert!(!cross_co.accuracy_transferable(), "{}", cross_co.render());
    assert!(!cross_oc.accuracy_transferable(), "{}", cross_oc.render());
}

#[test]
fn baselines_rank_behind_model_tree() {
    let data = generate(&Suite::cpu2006(), 10_000, 106);
    let mut rng = StdRng::seed_from_u64(107);
    let (train, test) = data.split_random(&mut rng, 0.5);

    let tree = ModelTree::fit(&train, &M5Config::default().with_min_leaf(50)).expect("fit");
    let ols = OlsRegressor::fit(&train).expect("ols fit");
    let cart = RegressionTree::fit(&train, Default::default()).expect("cart fit");

    let tree_mae = tree.mean_abs_error(&test);
    let ols_mae = ols.mean_abs_error(&test);
    let cart_mae = cart.mean_abs_error(&test);

    // The paper's premise: a single linear model cannot capture the
    // piecewise cost structure; the model tree must clearly beat it.
    assert!(tree_mae < 0.7 * ols_mae, "tree {tree_mae} vs ols {ols_mae}");
    // CART captures the regimes but pays for constant leaves.
    assert!(
        tree_mae <= cart_mae * 1.05,
        "tree {tree_mae} vs cart {cart_mae}"
    );
}

#[test]
fn merged_suites_still_classify() {
    // Merge CPU and OMP data (40 benchmarks) and fit one combined tree;
    // everything downstream must still hold its invariants.
    let mut data = generate(&Suite::cpu2006(), 4_000, 108);
    let omp = generate(&Suite::omp2001(), 4_000, 109);
    data.merge(&omp);
    assert_eq!(data.benchmark_count(), 40);

    let tree = ModelTree::fit(&data, &M5Config::default().with_min_leaf(80)).expect("fit");
    let table = ProfileTable::build(&tree, &data);
    assert_eq!(table.names().len(), 40);
    let matrix = SimilarityMatrix::from_table(&table);
    // Spot check: a CPU-only and an OMP-only benchmark should be far
    // apart even in the combined tree's space.
    let d = matrix
        .distance_by_name("444.namd", "328.fma3d_m")
        .expect("both present");
    assert!(d > 0.5, "namd vs fma3d distance {d}");
}
