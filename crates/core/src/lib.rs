//! From-scratch M5' model trees — the paper's primary contribution.
//!
//! A *model tree* recursively partitions the input space with univariate
//! threshold tests and places a multivariate **linear model** at each
//! leaf, so that each leaf represents one class of performance behavior.
//! This crate implements the M5' algorithm (Wang & Witten's
//! re-implementation of Quinlan's M5, the algorithm the paper runs inside
//! WEKA) over [`perfcounters`] datasets:
//!
//! * **Growing** ([`split`]): standard-deviation-reduction (SDR) splitting
//!   with per-attribute threshold scans.
//! * **Node models** ([`linreg`]): least-squares linear models over the
//!   attributes referenced in each node's subtree, simplified by greedy
//!   attribute elimination under the M5 adjusted-error factor
//!   `(n + v) / (n - v)`.
//! * **Pruning** ([`tree`]): bottom-up subtree replacement whenever a
//!   node's own linear model has no worse adjusted error than its
//!   subtree.
//! * **Smoothing and prediction** ([`compiled`]): Quinlan's leaf-to-root
//!   prediction blending `p' = (n p + k q) / (n + k)`, folded at compile
//!   time into one linear model per leaf.
//! * **Rendering** ([`display`]): WEKA-style tree dumps and the
//!   paper-style leaf equations (e.g. `LM1: CPI = 0.53 + 4.73*L1DMiss +
//!   ...`).
//!
//! # Examples
//!
//! ```
//! use modeltree::{M5Config, ModelTree};
//! use perfcounters::{Dataset, EventId, Sample};
//!
//! // A tiny synthetic dataset: CPI jumps when DtlbMiss crosses 2e-4.
//! let mut ds = Dataset::new();
//! let b = ds.add_benchmark("toy");
//! for i in 0..200 {
//!     let dtlb = if i % 2 == 0 { 1e-4 } else { 3e-4 };
//!     let cpi = if i % 2 == 0 { 0.6 } else { 1.4 };
//!     let mut s = Sample::zeros(cpi);
//!     s.set(EventId::DtlbMiss, dtlb);
//!     ds.push(s, b);
//! }
//! let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
//! let mut probe = Sample::zeros(0.0);
//! probe.set(EventId::DtlbMiss, 3e-4);
//! assert!(tree.compile().predict(&probe) > 1.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod compiled;
pub mod config;
pub mod crossval;
pub mod display;
pub mod linreg;
pub mod simd;
pub mod split;
pub mod tree;

pub use compiled::CompiledTree;
pub use config::M5Config;
pub use crossval::{k_fold, CrossValidation};
pub use linreg::LinearModel;
pub use tree::{ExplainStep, Explanation, ModelTree, NodeId, NodeKind};

/// Errors from model-tree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeError {
    /// The training set was empty or smaller than the configured minimum.
    InsufficientData(String),
    /// Configuration parameters were invalid (e.g. a zero minimum leaf
    /// size).
    InvalidConfig(String),
    /// The target column was degenerate in a way that prevents fitting
    /// (e.g. non-finite CPI values).
    DegenerateTarget(String),
    /// An attribute column contained a NaN or infinite cell. Non-finite
    /// attribute values poison threshold midpoints (`0.5 * (v + NaN)`)
    /// and would let the split search produce empty partitions, so they
    /// are rejected up front.
    NonFiniteAttribute(String),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::InsufficientData(msg) => write!(f, "insufficient data: {msg}"),
            TreeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TreeError::DegenerateTarget(msg) => write!(f, "degenerate target: {msg}"),
            TreeError::NonFiniteAttribute(msg) => write!(f, "non-finite attribute: {msg}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, TreeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(TreeError::InsufficientData("empty".into())
            .to_string()
            .contains("empty"));
        assert!(!TreeError::InvalidConfig("x".into()).to_string().is_empty());
    }

    #[test]
    fn error_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<TreeError>();
    }
}
