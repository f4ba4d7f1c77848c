//! Transferability study: the paper's Section VI, all four directions.
//!
//! Trains a model on a 10% random subset of each suite's data and
//! assesses transferability (a) to the remainder of the same suite and
//! (b) to the other suite — expecting the paper's conclusion: models
//! transfer within a suite but not across suites, in either direction.
//!
//! Run with `cargo run --release -p spec-suite-repro --example
//! transferability_study [n_samples] [seed]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spec_suite_repro::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_samples: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(60_000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(21);

    let gen = GeneratorConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let cpu = Suite::cpu2006().generate(&mut rng, n_samples, &gen, 1);
    let omp = Suite::omp2001().generate(&mut rng, n_samples, &gen, 1);

    // The paper trains on 10% and holds out the rest.
    let (cpu_train, cpu_rest) = cpu.split_random(&mut rng, 0.10);
    let (omp_train, omp_rest) = omp.split_random(&mut rng, 0.10);

    let m5 = M5Config::default().with_min_leaf((cpu_train.len() / 100).max(4));
    let cpu_tree = ModelTree::fit(&cpu_train, &m5).expect("cpu fit");
    let omp_tree = ModelTree::fit(&omp_train, &m5).expect("omp fit");

    let config = TransferConfig::default();
    let cases = [
        (
            &cpu_tree,
            &cpu_train,
            &cpu_rest,
            "CPU2006 (10%)",
            "CPU2006 (rest)",
        ),
        (&cpu_tree, &cpu_train, &omp_rest, "CPU2006 (10%)", "OMP2001"),
        (
            &omp_tree,
            &omp_train,
            &omp_rest,
            "OMP2001 (10%)",
            "OMP2001 (rest)",
        ),
        (&omp_tree, &omp_train, &cpu_rest, "OMP2001 (10%)", "CPU2006"),
    ];
    for (tree, train, test, train_name, test_name) in cases {
        let report =
            TransferabilityReport::assess(tree, train, test, train_name, test_name, &config)
                .expect("datasets large enough");
        println!("{}", report.render());
    }

    println!("paper shape to compare against: within-suite C ~ 0.92 / MAE ~ 0.10 (transferable);");
    println!("cross-suite C ~ 0.43 / MAE ~ 0.37 (not transferable), in both directions.");
}
