//! Suite characterization: the paper's Section IV/V workflow.
//!
//! Fits a model tree per suite, classifies each benchmark's samples
//! through it (Tables II and IV), and reports the most/least similar
//! benchmark pairs (Table III's headline observations).
//!
//! Run with `cargo run --release -p spec-suite-repro --example
//! suite_characterization [n_samples] [seed]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spec_suite_repro::prelude::*;

fn characterize_suite(suite: &Suite, n_samples: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = suite.generate(&mut rng, n_samples, &GeneratorConfig::default(), 1);
    let config = M5Config::default()
        .with_min_leaf((data.len() / 120).max(4))
        .with_sd_fraction(0.08);
    let tree = ModelTree::fit(&data, &config).expect("non-empty dataset");

    println!("==================================================================");
    println!("{} — {} samples", suite.name(), data.len());
    println!("==================================================================");
    println!("{}", modeltree::display::render_summary(&tree));

    let table = ProfileTable::build(&tree, &data);
    println!("sample distribution across linear models by benchmark (percent):");
    println!("{}", table.render());

    let matrix = SimilarityMatrix::from_table(&table);
    println!("most similar benchmark pairs (L1 profile distance):");
    for (a, b, d) in matrix.most_similar_pairs(4) {
        println!("  {a:<16} vs {b:<16} {:.1}%", 100.0 * d);
    }
    println!("most dissimilar benchmark pairs:");
    for (a, b, d) in matrix.most_dissimilar_pairs(4) {
        println!("  {a:<16} vs {b:<16} {:.1}%", 100.0 * d);
    }
    let mut by_suite_distance: Vec<(&String, f64)> = matrix
        .names()
        .iter()
        .map(|n| (n, matrix.distance_to_suite(n).expect("name from matrix")))
        .collect();
    by_suite_distance.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!("benchmarks most representative of the whole suite:");
    for (name, d) in by_suite_distance.iter().take(3) {
        println!("  {name:<16} {:.1}% from suite profile", 100.0 * d);
    }
    println!();
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_samples: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(40_000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(11);

    characterize_suite(&Suite::cpu2006(), n_samples, seed);
    characterize_suite(&Suite::omp2001(), n_samples, seed + 1);
}
