//! Statistical machinery for model-transferability assessment.
//!
//! The paper's Section VI assesses whether a performance model trained on
//! workload suite P can be used to study suite Q, using two families of
//! techniques that this crate implements:
//!
//! * [`ttest`] — two-sample Student-t tests (pooled and Welch), including
//!   the exact estimator chain of the paper's Equations 8–11, applied
//!   both to dataset-vs-dataset comparisons (`H0: P1 = P2`) and to
//!   predicted-vs-actual comparisons (`H0: P_pred = P2`). A
//!   [`SampleMoments`] summary lets one sample enter many comparisons
//!   without re-reading it.
//! * [`nonparametric`] — the Mann-Whitney U test, the non-parametric
//!   cross-check the paper names. It also takes presorted samples,
//!   ranking a pair by one linear merge.
//! * [`metrics`] — prediction-accuracy metrics: the correlation
//!   coefficient `C` (Equation 12) and the mean absolute error
//!   (Equation 13), plus RMSE and relative errors, with the paper's
//!   acceptance thresholds (`C > 0.85`, `MAE <= 0.15`).
//! * [`bootstrap`] — percentile-bootstrap confidence intervals for those
//!   metrics.
//!
//! # Examples
//!
//! ```
//! use spec_stats::ttest::two_sample_t_test;
//!
//! let a: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
//! let b: Vec<f64> = (0..100).map(|i| (i % 7) as f64 + 0.01).collect();
//! let result = two_sample_t_test(&a, &b).unwrap();
//! // Nearly identical distributions: the difference is insignificant.
//! assert!(!result.significant_at(0.05));
//! ```

pub mod bootstrap;
pub mod metrics;
pub mod nonparametric;
pub mod ttest;

pub use bootstrap::{bootstrap_ci, correlation_ci, mae_ci, BootstrapCi};
pub use metrics::{AcceptanceThresholds, PredictionMetrics};
pub use ttest::{
    cohens_d, cohens_d_from_moments, two_sample_t_test, welch_from_moments, welch_t_test,
    SampleMoments, TTestResult,
};

/// Errors from statistical routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StatsError {
    /// A sample was empty or too small for the requested test.
    InsufficientData(String),
    /// Paired inputs had mismatched lengths.
    LengthMismatch(String),
    /// A parameter was outside its domain (e.g. `alpha` not in (0, 1)).
    Domain(String),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::InsufficientData(msg) => write!(f, "insufficient data: {msg}"),
            StatsError::LengthMismatch(msg) => write!(f, "length mismatch: {msg}"),
            StatsError::Domain(msg) => write!(f, "domain error: {msg}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, StatsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(!StatsError::InsufficientData("n=1".into())
            .to_string()
            .is_empty());
        assert!(StatsError::Domain("alpha".into())
            .to_string()
            .contains("alpha"));
    }
}
