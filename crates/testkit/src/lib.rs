//! Verification harness for the SPEC characterization reproduction.
//!
//! Four layers of defense against silent regressions in the optimized
//! training and analysis pipeline:
//!
//! * [`reference`](mod@reference) — a naive, obviously-correct M5' implementation used
//!   as a **differential oracle**: the optimized trainer must produce
//!   bit-identical trees across the full configuration lattice. It also
//!   holds [`reference::RowDataset`], the row-major oracle for the
//!   column-major `Dataset`.
//! * [`generators`] — seeded dataset generators, including adversarial
//!   shapes (NaN/inf cells, near-tied thresholds, all-equal targets,
//!   single-row leaves), powering the differential and **metamorphic**
//!   suites.
//! * [`statref`] — high-precision closed-form and exact-enumeration
//!   references for the `spec-stats` t-tests, Mann–Whitney U, and
//!   bootstrap confidence intervals.
//! * [`golden`] — a byte-for-byte golden-snapshot framework for the
//!   E2–E8 `results/` artifacts, with a `TESTKIT_BLESS=1` regeneration
//!   path.
//!
//! # Depth control
//!
//! The suites run in **smoke mode** by default (sized for CI on every
//! push). Setting `TESTKIT_FULL=1` deepens the differential and
//! metamorphic sweeps for scheduled or manually-dispatched runs.

pub mod generators;
pub mod golden;
pub mod reference;
pub mod statref;

use modeltree::{M5Config, ModelTree, NodeKind};
use perfcounters::events::EventId;

/// True when `TESTKIT_FULL=1` requests full-depth verification.
pub fn full_depth() -> bool {
    std::env::var("TESTKIT_FULL").is_ok_and(|v| v == "1")
}

/// Number of generated datasets the differential sweep covers.
pub fn n_differential_datasets() -> usize {
    if full_depth() {
        300
    } else {
        100
    }
}

/// One corner of the configuration lattice.
pub struct Corner {
    /// Human-readable corner tag for failure messages.
    pub name: String,
    /// The trainer configuration at this corner.
    pub config: M5Config,
}

/// The differential sweep's configuration lattice: smoothing on/off ×
/// pruning {off, 1.0, 2.5} × min-leaf {1, 4, 9}, plus a band with
/// attribute elimination disabled — 24 corners. Thread counts cycle
/// through {1, 2, 8} so every corner also exercises a parallel
/// schedule against the serial reference.
pub fn corner_lattice() -> Vec<Corner> {
    let mut corners = Vec::new();
    let prunes = [(false, 1.0), (true, 1.0), (true, 2.5)];
    for smoothing in [false, true] {
        for &(prune, multiplier) in &prunes {
            for min_leaf in [1usize, 4, 9] {
                corners.push((smoothing, prune, multiplier, min_leaf, true));
            }
        }
    }
    // Elimination-off band at the default leaf size.
    for smoothing in [false, true] {
        for &(prune, multiplier) in &prunes {
            corners.push((smoothing, prune, multiplier, 4, false));
        }
    }
    let threads = [1usize, 2, 8];
    corners
        .into_iter()
        .enumerate()
        .map(|(i, (smoothing, prune, multiplier, min_leaf, elim))| {
            let n_threads = threads[i % threads.len()];
            let config = M5Config::default()
                .with_min_leaf(min_leaf)
                .with_smoothing(smoothing)
                .with_prune(prune)
                .with_pruning_multiplier(multiplier)
                .with_attribute_elimination(elim)
                .with_n_threads(n_threads);
            Corner {
                name: format!(
                    "smooth={} prune={}x{} min_leaf={} elim={} threads={}",
                    smoothing, prune, multiplier, min_leaf, elim, n_threads
                ),
                config,
            }
        })
        .collect()
}

/// Key identifying which corners share a *trained* tree: smoothing and
/// thread count do not affect training, so corners differing only in
/// those reuse one reference fit.
pub fn training_key(config: &M5Config) -> (bool, u64, usize, bool) {
    (
        config.prune,
        config.pruning_multiplier.to_bits(),
        config.min_leaf,
        config.attribute_elimination,
    )
}

/// A structure-only signature of a tree: pre-order list of split
/// `(event, threshold bits)` entries and leaf markers. Two trees with
/// equal signatures test the same attributes against bit-equal
/// thresholds in the same shape, regardless of node statistics or leaf
/// models.
pub fn split_signature(tree: &ModelTree) -> Vec<Option<(EventId, u64)>> {
    fn walk(tree: &ModelTree, id: modeltree::NodeId, out: &mut Vec<Option<(EventId, u64)>>) {
        match *tree.node(id).kind() {
            NodeKind::Leaf { .. } => out.push(None),
            NodeKind::Split {
                event,
                threshold,
                left,
                right,
            } => {
                out.push(Some((event, threshold.to_bits())));
                walk(tree, left, out);
                walk(tree, right, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(tree, tree.root(), &mut out);
    out
}

/// Asserts `|a - b| <= tol * max(1, |a|, |b|)` — relative tolerance
/// with an absolute floor — returning a description on failure.
pub fn close_to(a: f64, b: f64, tol: f64) -> Result<(), String> {
    let scale = 1.0f64.max(a.abs()).max(b.abs());
    if (a - b).abs() <= tol * scale {
        Ok(())
    } else {
        Err(format!("{a} vs {b} (tol {tol}, scale {scale})"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_has_at_least_sixteen_distinct_corners() {
        let corners = corner_lattice();
        assert!(corners.len() >= 16, "only {} corners", corners.len());
        let mut seen = std::collections::BTreeSet::new();
        for c in &corners {
            assert!(c.config.validate().is_ok(), "invalid corner {}", c.name);
            seen.insert(c.name.clone());
        }
        assert_eq!(seen.len(), corners.len(), "duplicate corner names");
        // All three thread counts appear.
        for t in [1, 2, 8] {
            assert!(corners.iter().any(|c| c.config.n_threads == t));
        }
    }

    #[test]
    fn training_key_ignores_smoothing_and_threads() {
        let a = M5Config::default().with_smoothing(true).with_n_threads(8);
        let b = M5Config::default().with_smoothing(false).with_n_threads(1);
        assert_eq!(training_key(&a), training_key(&b));
    }
}
