//! Regenerates the checked-in `results/` files.
//!
//! `cargo run --release -p spec-bench --bin reproduce [NAME…]`
//!
//! Renders the named entries of `spec_bench::artifacts::REGISTRY` — all
//! of them when no name is given — through one `PipelineContext` and
//! writes each entry's files into the repository's `results/`
//! directory. An unknown name is rejected, with the valid names listed,
//! before anything is rendered or written. Datasets and trees resolve
//! through the artifact store under `SPECREPRO_CACHE_DIR`, so a warm
//! rerun skips generation and fitting; `SPECREPRO_TRACE_OUT` /
//! `SPECREPRO_METRICS_OUT` capture the run's telemetry.

use std::process::ExitCode;

use pipeline::PipelineContext;
use spec_bench::artifacts::{self, REGISTRY};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let (mut entries, mut unknown) = (Vec::new(), Vec::new());
    for name in &names {
        match artifacts::entry(name) {
            Some(entry) => entries.push(entry),
            None => unknown.push(name.as_str()),
        }
    }
    if !unknown.is_empty() {
        let valid: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        eprintln!(
            "reproduce: unknown entry {unknown:?}; valid names: {}",
            valid.join(" ")
        );
        return ExitCode::FAILURE;
    }
    if names.is_empty() {
        entries = REGISTRY.iter().collect();
    }

    let _obs = obskit::ObsSession::from_env();
    let ctx = PipelineContext::from_env();
    let dir = artifacts::results_dir();
    for entry in entries {
        for (file, text) in entry.render(&ctx) {
            let path = dir.join(file);
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("reproduce: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("{}: wrote results/{file}", entry.name);
        }
    }
    ExitCode::SUCCESS
}
