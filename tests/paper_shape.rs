//! The paper's headline findings, asserted as integration tests.
//!
//! These are the "shape" checks of the reproduction: who wins, what
//! splits where, and which way each transferability verdict falls — not
//! absolute numbers, which depend on the synthetic substrate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spec_suite_repro::prelude::*;

const N: usize = 24_000;

fn generate(suite: &Suite, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    suite.generate(&mut rng, N, &GeneratorConfig::default(), 1)
}

fn fit(data: &Dataset) -> ModelTree {
    let config = M5Config::default()
        .with_min_leaf((data.len() / 120).max(4))
        .with_sd_fraction(0.08);
    ModelTree::fit(data, &config).expect("fit")
}

#[test]
fn cpu2006_tree_roots_on_dtlb_misses() {
    // Paper, Section IV-A1: "Its root position identifies DTLB misses as
    // the most discriminating performance factor."
    let data = generate(&Suite::cpu2006(), 1);
    let tree = fit(&data);
    assert_eq!(
        tree.root_split_event(),
        Some(EventId::DtlbMiss),
        "\n{}",
        modeltree::display::render_tree(&tree)
    );
    // Memory-hierarchy events dominate the tree, as in Figure 1.
    let used = tree.used_events();
    assert!(used.contains(&EventId::L2Miss) || used.contains(&EventId::L1DMiss));
}

#[test]
fn omp2001_tree_roots_on_load_block_overlap() {
    // Paper, Section V: "Load block overlapping a store ... shows at the
    // root of the tree."
    let data = generate(&Suite::omp2001(), 2);
    let tree = fit(&data);
    assert_eq!(
        tree.root_split_event(),
        Some(EventId::LdBlkOlp),
        "\n{}",
        modeltree::display::render_tree(&tree)
    );
}

#[test]
fn parallel_fit_preserves_paper_root_splits() {
    // Regression guard for the presorted split search and parallel
    // training: the E2 (CPU2006) and E5 (OMP2001) experiments must root
    // on the same events the paper reports, and a 4-thread fit must be
    // bit-identical to the serial fit on both.
    for (suite, seed, root) in [
        (Suite::cpu2006(), 1u64, EventId::DtlbMiss),
        (Suite::omp2001(), 2u64, EventId::LdBlkOlp),
    ] {
        let data = generate(&suite, seed);
        let serial = fit(&data);
        let par_config = M5Config::default()
            .with_min_leaf((data.len() / 120).max(4))
            .with_sd_fraction(0.08)
            .with_n_threads(4);
        let par = ModelTree::fit(&data, &par_config).expect("parallel fit");
        assert_eq!(serial.root_split_event(), Some(root), "{}", suite.name());
        assert_eq!(par.root_split_event(), Some(root), "{}", suite.name());
        assert!(
            serial.structural_eq(&par),
            "{}: 4-thread fit diverged from serial",
            suite.name()
        );
    }
}

#[test]
fn suite_cpi_levels_match_paper_bands() {
    // Paper, Section VI-A2: CPU2006 mean CPI 0.96 (sd 0.53); OMP2001
    // mean 1.21 (sd 0.60).
    let cpu = generate(&Suite::cpu2006(), 3).cpi_summary().unwrap();
    let omp = generate(&Suite::omp2001(), 4).cpi_summary().unwrap();
    assert!(
        (0.75..1.20).contains(&cpu.mean()),
        "cpu mean {}",
        cpu.mean()
    );
    assert!(
        (1.00..1.50).contains(&omp.mean()),
        "omp mean {}",
        omp.mean()
    );
    assert!(omp.mean() > cpu.mean());
    assert!(cpu.std_dev() > 0.3 && cpu.std_dev() < 0.8);
}

#[test]
fn hpc_five_are_similar_and_mcf_namd_are_not() {
    // Paper, Table III: hmmer/namd/gromacs/calculix/dealII differences
    // are a few percent; mcf vs namd is 97.7%.
    let data = generate(&Suite::cpu2006(), 5);
    let tree = fit(&data);
    let table = ProfileTable::build(&tree, &data);
    let matrix = SimilarityMatrix::from_table(&table);

    let similar_pairs = [
        ("456.hmmer", "444.namd"),
        ("435.gromacs", "444.namd"),
        ("454.calculix", "447.dealII"),
    ];
    for (a, b) in similar_pairs {
        let d = matrix.distance_by_name(a, b).expect("both present");
        assert!(d < 0.15, "{a} vs {b}: {d}");
    }
    let d = matrix.distance_by_name("429.mcf", "444.namd").unwrap();
    assert!(d > 0.85, "mcf vs namd: {d}");
    let d = matrix.distance_by_name("444.namd", "459.GemsFDTD").unwrap();
    assert!(d > 0.7, "namd vs GemsFDTD: {d}");
}

#[test]
fn salient_benchmarks_dominate_their_signature_leaves() {
    let data = generate(&Suite::cpu2006(), 6);
    let tree = fit(&data);
    let table = ProfileTable::build(&tree, &data);

    // sphinx3's dominant leaf is not shared as dominant by hmmer (split
    // loads are its private signature, Table II's LM18 observation).
    let sphinx = table.profile("482.sphinx3").unwrap();
    let hmmer = table.profile("456.hmmer").unwrap();
    assert_ne!(sphinx.dominant_lm(), hmmer.dominant_lm());
    assert!(sphinx.l1_distance(hmmer) > 0.5);

    // omnetpp has high CPI concentrated in its own class (the paper's
    // LM24, CPI 2.1).
    let mut rng = StdRng::seed_from_u64(60);
    let omnetpp_data = Suite::cpu2006()
        .generate_benchmark(&mut rng, "471.omnetpp", 3_000, &GeneratorConfig::default())
        .expect("omnetpp exists");
    let mean = omnetpp_data.cpi_summary().unwrap().mean();
    assert!((1.5..2.5).contains(&mean), "omnetpp mean CPI {mean}");
}

#[test]
fn omp_overlap_classes_cover_half_the_suite() {
    // Paper: "Linear models 17 and 18 cover more than half of the
    // training set" — i.e. the load-block-overlap regimes dominate.
    let data = generate(&Suite::omp2001(), 7);
    let n_overlapped = (0..data.len())
        .filter(|&i| data.sample(i).get(EventId::LdBlkOlp) > 7.4e-3)
        .count();
    let share = n_overlapped as f64 / data.len() as f64;
    assert!((0.35..0.65).contains(&share), "overlap share {share}");
}

#[test]
fn transferability_verdicts_match_paper() {
    // Paper, Section VI: a model trained on 10% of a suite transfers to
    // the rest of that suite, and does not transfer across suites, in
    // either direction, under both methodologies.
    let cpu = generate(&Suite::cpu2006(), 8);
    let omp = generate(&Suite::omp2001(), 9);
    let mut rng = StdRng::seed_from_u64(10);
    let (cpu_train, cpu_rest) = cpu.split_random(&mut rng, 0.1);
    let (omp_train, omp_rest) = omp.split_random(&mut rng, 0.1);
    let m5 = M5Config::default().with_min_leaf((cpu_train.len() / 100).max(4));
    let cpu_tree = ModelTree::fit(&cpu_train, &m5).unwrap();
    let omp_tree = ModelTree::fit(&omp_train, &m5).unwrap();
    let config = TransferConfig::default();

    let within_cpu =
        TransferabilityReport::assess(&cpu_tree, &cpu_train, &cpu_rest, "cpu", "cpu", &config)
            .unwrap();
    assert!(within_cpu.transferable(), "{}", within_cpu.render());
    // Paper shape: C = 0.9214, MAE = 0.0988.
    assert!(within_cpu.metrics.correlation > 0.85);
    assert!(within_cpu.metrics.mae < 0.15);

    let within_omp =
        TransferabilityReport::assess(&omp_tree, &omp_train, &omp_rest, "omp", "omp", &config)
            .unwrap();
    assert!(within_omp.transferable(), "{}", within_omp.render());

    let cross_co =
        TransferabilityReport::assess(&cpu_tree, &cpu_train, &omp_rest, "cpu", "omp", &config)
            .unwrap();
    assert!(!cross_co.transferable(), "{}", cross_co.render());
    // Paper shape: C = 0.4337, MAE = 0.3721 — far outside thresholds.
    assert!(cross_co.metrics.correlation < 0.85);
    assert!(cross_co.metrics.mae > 0.15);
    // And the t-test rejects loudly, as the paper's t = 125.384 does.
    assert!(cross_co.hypothesis.cpi_datasets.statistic.abs() > 10.0);

    let cross_oc =
        TransferabilityReport::assess(&omp_tree, &omp_train, &cpu_rest, "omp", "cpu", &config)
            .unwrap();
    assert!(!cross_oc.transferable(), "{}", cross_oc.render());
}

#[test]
fn suites_use_different_key_events() {
    // Paper: "many of the key events that appear in one tree model do
    // not appear in the other" — the structural basis of
    // non-transferability.
    let cpu_tree = fit(&generate(&Suite::cpu2006(), 11));
    let omp_tree = fit(&generate(&Suite::omp2001(), 12));
    let cpu_events = cpu_tree.used_events();
    let omp_events = omp_tree.used_events();
    let symmetric_difference = cpu_events.symmetric_difference(&omp_events).count();
    assert!(
        symmetric_difference >= 2,
        "trees use nearly identical event sets: cpu {cpu_events:?} vs omp {omp_events:?}"
    );
}
