//! Baseline regressors for comparison against M5' model trees.
//!
//! The paper's related work (\[15\] in its bibliography) compares model
//! trees against other regression algorithms and finds model trees
//! perform as well as ANNs and SVMs while staying interpretable. This
//! crate provides the comparison points that are implementable without an
//! ML framework, used by the benchmark harness to demonstrate the same
//! ranking on the synthetic suites:
//!
//! * [`OlsRegressor`] — a single global linear model (what a model tree
//!   degenerates to with no splits);
//! * [`KnnRegressor`] — k-nearest-neighbor regression (accurate,
//!   uninterpretable, expensive at query time);
//! * [`RegressionTree`] — a CART-style piecewise-*constant* tree (what a
//!   model tree degenerates to with constant leaves).
//!
//! All three implement [`Regressor`].
//!
//! # Examples
//!
//! ```
//! use baselines::{OlsRegressor, Regressor};
//! use perfcounters::{Dataset, EventId, Sample};
//!
//! let mut ds = Dataset::new();
//! let b = ds.add_benchmark("toy");
//! for i in 0..50 {
//!     let x = i as f64 / 50.0;
//!     let mut s = Sample::zeros(1.0 + 2.0 * x);
//!     s.set(EventId::Load, x);
//!     ds.push(s, b);
//! }
//! let ols = OlsRegressor::fit(&ds).unwrap();
//! let mut probe = Sample::zeros(0.0);
//! probe.set(EventId::Load, 0.5);
//! assert!((ols.predict(&probe) - 2.0).abs() < 1e-6);
//! ```

pub mod cart;
pub mod knn;
pub mod ols;

pub use cart::{CartConfig, RegressionTree};
pub use knn::KnnRegressor;
pub use ols::OlsRegressor;

use perfcounters::{Dataset, Sample};

/// A fitted regressor predicting CPI from a sample's event densities.
pub trait Regressor {
    /// Predicted CPI for one sample.
    fn predict(&self, sample: &Sample) -> f64;

    /// Predictions for every sample of a dataset.
    fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len())
            .map(|i| self.predict(&data.sample(i)))
            .collect()
    }

    /// Mean absolute error over a dataset (0 if empty).
    fn mean_abs_error(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..data.len())
            .map(|i| {
                let s = data.sample(i);
                (self.predict(&s) - s.cpi()).abs()
            })
            .sum();
        sum / data.len() as f64
    }
}

/// Errors from baseline fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BaselineError {
    /// The training set was empty or too small.
    InsufficientData(String),
    /// A hyper-parameter was invalid (e.g. `k = 0`).
    InvalidConfig(String),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::InsufficientData(msg) => write!(f, "insufficient data: {msg}"),
            BaselineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, BaselineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(BaselineError::InsufficientData("x".into())
            .to_string()
            .contains("x"));
        assert!(!BaselineError::InvalidConfig("k".into())
            .to_string()
            .is_empty());
    }
}
