//! Byte-for-byte golden checks for the `results/` files.
//!
//! Every file under `results/` is owned by one entry of
//! `spec_bench::artifacts::REGISTRY`, and the checked-in copy is its
//! golden. [`check`] compares a freshly rendered file against its
//! golden, so any drift in the experiment pipeline — numeric,
//! formatting, or structural — fails CI with a readable
//! first-difference report.
//!
//! Nothing here writes `results/`: after a reviewed behavior change,
//! regenerate an entry's files with the one writer,
//!
//! ```text
//! SPECREPRO_CACHE_DIR=$(mktemp -d) cargo run --release -p spec-bench --bin reproduce NAME
//! ```
//!
//! and the diff shows up in review like any other change.

pub use spec_bench::artifacts::results_dir;

/// Compares `rendered` byte for byte against `results/<file>`, which
/// registry entry `entry` owns.
///
/// # Errors
///
/// Returns a human-readable description, naming the command that
/// regenerates the entry, when the golden file is missing, unreadable,
/// or differs from `rendered`.
pub fn check(entry: &str, file: &str, rendered: &str) -> Result<(), String> {
    let path = results_dir().join(file);
    let regenerate = format!(
        "if the change is intended, regenerate with \
         `SPECREPRO_CACHE_DIR=$(mktemp -d) cargo run --release -p spec-bench --bin reproduce {entry}`"
    );
    let golden = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read golden {}: {e} ({regenerate})", path.display()))?;
    if golden == rendered {
        return Ok(());
    }
    Err(format!(
        "{}\n({regenerate})",
        first_difference(file, &golden, rendered)
    ))
}

/// Builds a readable report of the first differing line between the
/// golden and rendered artifact.
fn first_difference(name: &str, golden: &str, rendered: &str) -> String {
    let g_lines: Vec<&str> = golden.lines().collect();
    let r_lines: Vec<&str> = rendered.lines().collect();
    for (i, (g, r)) in g_lines.iter().zip(&r_lines).enumerate() {
        if g != r {
            return format!(
                "{name}: line {} differs\n  golden:   {g:?}\n  rendered: {r:?}",
                i + 1
            );
        }
    }
    if g_lines.len() != r_lines.len() {
        return format!(
            "{name}: line counts differ (golden {} vs rendered {}); common prefix matches",
            g_lines.len(),
            r_lines.len()
        );
    }
    format!("{name}: every line matches but the bytes differ (line endings or a final newline)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_in_repo() {
        assert!(results_dir().is_dir(), "{:?} missing", results_dir());
    }

    #[test]
    fn first_difference_pinpoints_line() {
        let report = first_difference("x.txt", "a\nb\nc\n", "a\nB\nc\n");
        assert!(report.contains("line 2"), "{report}");
        let report = first_difference("x.txt", "a\n", "a\nb\n");
        assert!(report.contains("line counts differ"), "{report}");
        let report = first_difference("x.json", "{}", "{}\n");
        assert!(report.contains("final newline"), "{report}");
    }
}
