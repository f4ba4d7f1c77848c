//! Phase timeline: classify a time-ordered execution trace through the
//! suite model tree and show how behavior classes track program phases.
//!
//! This is the temporal view behind the paper's interval samples: phases
//! appear as runs of consecutive intervals landing in the same linear
//! model.
//!
//! Run with `cargo run --release -p spec-suite-repro --example
//! phase_timeline [benchmark] [n_intervals] [seed]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spec_suite_repro::prelude::*;
use workloads::trace::{generate_trace, TraceConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let benchmark = args.next().unwrap_or_else(|| "429.mcf".to_owned());
    let n_intervals: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(41);

    let suite = Suite::cpu2006();
    let gen = GeneratorConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);

    // Fit the suite tree on i.i.d. suite data, as the paper does.
    let train = suite.generate(&mut rng, 30_000, &gen, 1);
    let tree = ModelTree::fit(&train, &M5Config::default().with_min_leaf(150))
        .expect("fit on non-empty data");

    // Generate the temporal trace and classify each interval.
    let trace = generate_trace(
        &suite,
        &mut rng,
        &benchmark,
        n_intervals,
        &gen,
        &TraceConfig::default(),
    )
    .unwrap_or_else(|| {
        eprintln!("unknown benchmark {benchmark}; valid names come from Suite::cpu2006()");
        std::process::exit(1);
    });

    println!(
        "{benchmark}: {} intervals, {} ground-truth phases, tree with {} behavior classes\n",
        trace.len(),
        trace.phase_names().len(),
        tree.n_leaves()
    );

    // Compress the classified timeline into runs.
    let timeline = characterize::ClassTimeline::classify(&tree, trace.samples());
    let runs = timeline.runs();
    println!(
        "behavior-class runs: {} (mean length {:.1} intervals)",
        runs.len(),
        timeline.mean_run_length()
    );
    println!("first 20 runs (LM x length):");
    for (lm, len) in runs.iter().take(20) {
        println!("  LM{lm:<3} x {len}");
    }
    let lm_sequence = timeline.classes().to_vec();

    // How well do behavior classes recover ground-truth phases? For each
    // phase, find its dominant LM and measure agreement.
    let n_phases = trace.phase_names().len();
    let n_lms = tree.n_leaves();
    let mut counts = vec![vec![0usize; n_lms + 1]; n_phases];
    for (&phase, &lm) in trace.phase_indices().iter().zip(&lm_sequence) {
        counts[phase][lm] += 1;
    }
    println!("\nground-truth phase -> dominant behavior class:");
    let mut agree = 0usize;
    for (p, row) in counts.iter().enumerate() {
        let total: usize = row.iter().sum();
        if total == 0 {
            continue;
        }
        let (best_lm, best) = row
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .expect("non-empty row");
        agree += best;
        println!(
            "  {:<18} -> LM{:<3} ({:.0}% of its {} intervals)",
            trace.phase_names()[p],
            best_lm,
            100.0 * *best as f64 / total as f64,
            total
        );
    }
    println!(
        "\noverall phase/class agreement: {:.1}%",
        100.0 * agree as f64 / trace.len() as f64
    );
    println!(
        "timeline purity against ground-truth phases: {:.1}%",
        100.0 * timeline.purity_against(trace.phase_indices())
    );

    // A coarse CPI timeline (median per bucket of intervals).
    let series = trace.cpi_series();
    let buckets = 20.min(series.len());
    let per = series.len() / buckets.max(1);
    println!("\nCPI timeline ({} buckets of {} intervals):", buckets, per);
    for b in 0..buckets {
        let slice = &series[b * per..((b + 1) * per).min(series.len())];
        let mean = slice.iter().sum::<f64>() / slice.len() as f64;
        let bar = "#".repeat((mean * 20.0) as usize);
        println!("  t{:>2}: {mean:>5.2} {bar}", b);
    }
}
