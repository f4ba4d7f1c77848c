//! Benchmark subsetting: the application motivated by the paper's
//! related-work survey.
//!
//! Uses the leaf-profile vectors of the characterization pipeline as the
//! feature space and selects a representative subset of SPEC CPU2006
//! with both k-means and greedy k-center selection, reporting coverage.
//!
//! Run with `cargo run --release -p spec-suite-repro --example
//! benchmark_subsetting [k] [n_samples] [seed]`.

use characterize::{greedy_subset, kmeans_subset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spec_suite_repro::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(6);
    let n_samples: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(40_000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(31);

    let mut rng = StdRng::seed_from_u64(seed);
    let data = Suite::cpu2006().generate(&mut rng, n_samples, &GeneratorConfig::default(), 1);
    let config = M5Config::default()
        .with_min_leaf((data.len() / 120).max(4))
        .with_sd_fraction(0.08);
    let tree = ModelTree::fit(&data, &config).expect("non-empty dataset");
    let table = ProfileTable::build(&tree, &data);

    println!(
        "selecting {k} representatives of {} benchmarks over {} behavior classes\n",
        table.names().len(),
        table.n_leaves()
    );

    let greedy = greedy_subset(&table, k);
    println!("greedy k-center subset:");
    for name in &greedy.selected {
        println!("  {name}");
    }
    println!(
        "  coverage: max distance {:.1}%, mean distance {:.1}%\n",
        100.0 * greedy.max_distance,
        100.0 * greedy.mean_distance
    );

    let kmeans = kmeans_subset(&table, k, seed);
    println!("k-means subset:");
    for name in &kmeans.selected {
        println!("  {name}");
    }
    println!(
        "  coverage: max distance {:.1}%, mean distance {:.1}%",
        100.0 * kmeans.max_distance,
        100.0 * kmeans.mean_distance
    );

    // Sweep k to show the coverage/size trade-off.
    println!("\ncoverage vs subset size (greedy):");
    for k in 1..=12.min(table.names().len()) {
        let r = greedy_subset(&table, k);
        println!(
            "  k = {k:>2}: max {:.1}%  mean {:.1}%",
            100.0 * r.max_distance,
            100.0 * r.mean_distance
        );
    }
}
