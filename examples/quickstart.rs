//! Quickstart: generate PMU data for the synthetic SPEC CPU2006 suite,
//! fit an M5' model tree, inspect it, and predict.
//!
//! Run with `cargo run --release -p spec-suite-repro --example quickstart
//! [n_samples] [seed]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spec_suite_repro::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_samples: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);

    // 1. Generate interval samples: each is a 2M-instruction window
    //    measured by a 5-counter PMU with 2 multiplexed programmable
    //    counters.
    let suite = Suite::cpu2006();
    let mut rng = StdRng::seed_from_u64(seed);
    let data = suite.generate(&mut rng, n_samples, &GeneratorConfig::default(), 1);
    println!(
        "generated {} samples across {} benchmarks; suite CPI = {:.3}",
        data.len(),
        data.benchmark_count(),
        data.cpi_summary().expect("non-empty").mean()
    );

    // 2. Fit the M5' model tree (the paper's Figure 1 analogue).
    let config = M5Config::default().with_min_leaf((data.len() / 100).max(4));
    let tree = ModelTree::fit(&data, &config).expect("fit succeeds on non-empty data");
    println!("\n{}", display::render_summary(&tree));
    println!("{}", display::render_tree(&tree));

    // 3. Inspect the leaf linear models, paper-equation style.
    println!("{}", display::render_models(&tree));

    // 4. Predict the CPI of a hypothetical workload interval.
    let mut probe = Sample::zeros(0.0);
    probe.set(EventId::Load, 0.3);
    probe.set(EventId::DtlbMiss, 5e-4);
    probe.set(EventId::LdBlkStA, 9e-4);
    probe.set(EventId::L2Miss, 3e-4);
    println!(
        "probe interval classifies into LM{} with predicted CPI {:.3}",
        tree.classify(&probe),
        tree.compile().predict(&probe)
    );

    // 5. Explain the prediction: the decision path and the leaf equation.
    println!("\nexplanation:\n{}", tree.explain(&probe));
}
