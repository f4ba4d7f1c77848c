//! Golden-snapshot enforcement for every file in `results/`.
//!
//! Each test renders one `spec_bench::artifacts::REGISTRY` entry through
//! the same function the `reproduce` binary writes `results/` with, and
//! compares every file the entry owns **byte for byte** against the
//! checked-in golden, so the shape claims in EXPERIMENTS.md (leaf
//! counts, headline equations, table percentages, transferability
//! verdicts) are enforced in CI rather than merely documented. Two
//! registry tests keep the tests, the registry and `results/` in step.
//!
//! `Release`-cost entries are ignored in debug builds and checked by
//! `cargo test --release -p testkit`. After a reviewed behavior change,
//! regenerate an entry with:
//!
//! ```text
//! SPECREPRO_CACHE_DIR=$(mktemp -d) cargo run --release -p spec-bench --bin reproduce NAME
//! ```
//!
//! The entries resolve through one shared `PipelineContext` over the
//! environment-selected artifact store — exactly the path `reproduce`
//! uses — so a warm store makes this suite fast while the byte-for-byte
//! comparison simultaneously proves cached artifacts replay the cold
//! results exactly.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use pipeline::PipelineContext;
use spec_bench::artifacts::{self, Cost, REGISTRY};
use testkit::golden;

fn ctx() -> &'static PipelineContext {
    static CTX: OnceLock<PipelineContext> = OnceLock::new();
    CTX.get_or_init(PipelineContext::from_env)
}

fn enforce(name: &str) {
    let entry = artifacts::entry(name).expect("registered entry");
    for (file, rendered) in entry.render(ctx()) {
        if let Err(report) = golden::check(name, file, &rendered) {
            panic!("{report}");
        }
    }
}

macro_rules! golden_test {
    (Tier1 $test:ident $body:block) => {
        #[test]
        fn $test() $body
    };
    (Release $test:ident $body:block) => {
        #[test]
        #[cfg_attr(debug_assertions, ignore)]
        fn $test() $body
    };
}

/// One test per registry entry, ignored in debug builds when the
/// entry's cost is `Release`; `CHECKED` lists what the tests cover.
macro_rules! goldens {
    ($($cost:ident $test:ident => $entry:literal $(then $extra:ident)?;)*) => {
        $(golden_test!($cost $test { enforce($entry); $($extra();)? });)*
        const CHECKED: &[(&str, Cost)] = &[$(($entry, Cost::$cost)),*];
    };
}

goldens! {
    Tier1 table1_matches_golden => "table1";
    Tier1 figure1_text_and_dot_match_goldens => "figure1";
    Tier1 table2_matches_golden => "table2";
    Tier1 table3_matches_golden => "table3";
    Tier1 figure2_text_and_dot_match_goldens => "figure2";
    Tier1 table4_matches_golden => "table4";
    Tier1 transferability_matches_golden => "transferability";
    Tier1 generation_matrix_matches_golden_for_every_thread_count => "generation_matrix"
        then matrix_is_identical_on_1_2_and_8_threads;
    Release baselines_cmp_matches_golden => "baselines_cmp";
    Tier1 subsetting_matches_golden => "subsetting";
    Release ablations_matches_golden => "ablations";
    Tier1 member_transfer_matches_golden => "member_transfer";
    Tier1 input_sets_matches_golden => "input_sets";
    Release paper_scale_matches_golden => "paper_scale";
    Tier1 report_matches_golden => "report";
}

/// E8 — every assessed cell is a pure function of pipeline artifacts
/// striped deterministically across workers, so the rendered matrix
/// matches the golden for 1, 2, and 8 worker threads alike.
fn matrix_is_identical_on_1_2_and_8_threads() {
    for threads in [1, 2, 8] {
        let rendered = artifacts::generation_matrix(&spec_bench::matrix_artifacts(ctx(), threads));
        if let Err(report) = golden::check("generation_matrix", "generation_matrix.txt", &rendered)
        {
            panic!("{threads} threads: {report}");
        }
    }
}

#[test]
fn every_registry_entry_has_a_golden_test_of_its_cost() {
    let registry: Vec<(&str, Cost)> = REGISTRY.iter().map(|e| (e.name, e.cost)).collect();
    assert_eq!(CHECKED, registry.as_slice());
}

#[test]
fn results_files_and_registry_entries_match_one_to_one() {
    let mut owned = BTreeSet::new();
    for entry in REGISTRY {
        for file in entry.files {
            assert!(owned.insert(*file), "{file} is owned by two entries");
        }
    }
    let present: BTreeSet<String> = std::fs::read_dir(golden::results_dir())
        .expect("results/ is readable")
        .map(|e| {
            e.expect("results/ entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let unowned: Vec<&String> = present
        .iter()
        .filter(|f| !owned.contains(f.as_str()))
        .collect();
    let missing: Vec<&&str> = owned.iter().filter(|f| !present.contains(**f)).collect();
    assert!(
        unowned.is_empty() && missing.is_empty(),
        "results/ files without a registry entry: {unowned:?}; registry files missing from results/: {missing:?}"
    );
}
