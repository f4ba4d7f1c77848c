//! Prediction-accuracy metrics (the paper's Section VI-B).

use crate::{Result, StatsError};
use mathkit::describe::{correlation, mean};

/// Acceptance thresholds for declaring a model transferable on accuracy
/// grounds. The paper "consider\[s\] for illustration that a correlation
/// coefficient of more than 0.85 and a mean absolute error of no more
/// than 0.15 \[are\] acceptable".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptanceThresholds {
    /// Minimum acceptable correlation coefficient `C`.
    pub min_correlation: f64,
    /// Maximum acceptable mean absolute error (in CPI units).
    pub max_mae: f64,
}

impl Default for AcceptanceThresholds {
    fn default() -> Self {
        AcceptanceThresholds {
            min_correlation: 0.85,
            max_mae: 0.15,
        }
    }
}

/// Accuracy of a set of predictions against actual values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionMetrics {
    /// Correlation coefficient `C` (Equation 12), in `[-1, 1]`.
    pub correlation: f64,
    /// Mean absolute error (Equation 13), same units as the target.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Relative absolute error: MAE normalized by the MAE of always
    /// predicting the actual mean (1.0 = no better than the mean).
    pub relative_absolute_error: f64,
    /// Mean of the predictions (the paper's `mu_12`).
    pub mean_predicted: f64,
    /// Mean of the actual values (the paper's `mu_2`).
    pub mean_actual: f64,
    /// Number of evaluated pairs.
    pub n: usize,
}

impl PredictionMetrics {
    /// Computes all metrics from parallel prediction/actual slices.
    ///
    /// # Errors
    ///
    /// * [`StatsError::LengthMismatch`] if lengths differ.
    /// * [`StatsError::InsufficientData`] if fewer than 2 pairs.
    pub fn from_predictions(predicted: &[f64], actual: &[f64]) -> Result<Self> {
        if predicted.len() != actual.len() {
            return Err(StatsError::LengthMismatch(format!(
                "{} predictions vs {} actuals",
                predicted.len(),
                actual.len()
            )));
        }
        if predicted.len() < 2 {
            return Err(StatsError::InsufficientData(format!(
                "need >= 2 pairs, got {}",
                predicted.len()
            )));
        }
        let n = predicted.len();
        let c = correlation(predicted, actual).expect("lengths checked");
        let mae = predicted
            .iter()
            .zip(actual)
            .map(|(p, a)| (p - a).abs())
            .sum::<f64>()
            / n as f64;
        let rmse = (predicted
            .iter()
            .zip(actual)
            .map(|(p, a)| (p - a) * (p - a))
            .sum::<f64>()
            / n as f64)
            .sqrt();
        let mean_actual = mean(actual).expect("non-empty");
        let mean_baseline_mae =
            actual.iter().map(|a| (a - mean_actual).abs()).sum::<f64>() / n as f64;
        let relative_absolute_error = if mean_baseline_mae > 0.0 {
            mae / mean_baseline_mae
        } else if mae == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
        Ok(PredictionMetrics {
            correlation: c,
            mae,
            rmse,
            relative_absolute_error,
            mean_predicted: mean(predicted).expect("non-empty"),
            mean_actual,
            n,
        })
    }

    /// True if both metrics pass the thresholds — the paper's
    /// accuracy-based transferability verdict.
    pub fn acceptable(&self, thresholds: &AcceptanceThresholds) -> bool {
        self.correlation > thresholds.min_correlation && self.mae <= thresholds.max_mae
    }
}

impl std::fmt::Display for PredictionMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "C = {:.4}, MAE = {:.4}, RMSE = {:.4}, RAE = {:.4} (n = {})",
            self.correlation, self.mae, self.rmse, self.relative_absolute_error, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_predictions() {
        let actual = [1.0, 2.0, 3.0, 4.0];
        let m = PredictionMetrics::from_predictions(&actual, &actual).unwrap();
        assert!((m.correlation - 1.0).abs() < 1e-12);
        assert_eq!(m.mae, 0.0);
        assert_eq!(m.rmse, 0.0);
        assert_eq!(m.relative_absolute_error, 0.0);
        assert!(m.acceptable(&AcceptanceThresholds::default()));
    }

    #[test]
    fn constant_offset_hurts_mae_not_correlation() {
        let actual = [1.0, 2.0, 3.0, 4.0];
        let predicted: Vec<f64> = actual.iter().map(|a| a + 0.5).collect();
        let m = PredictionMetrics::from_predictions(&predicted, &actual).unwrap();
        assert!((m.correlation - 1.0).abs() < 1e-12);
        assert!((m.mae - 0.5).abs() < 1e-12);
        assert!(!m.acceptable(&AcceptanceThresholds::default()));
    }

    #[test]
    fn anti_correlated_predictions() {
        let actual = [1.0, 2.0, 3.0, 4.0];
        let predicted = [4.0, 3.0, 2.0, 1.0];
        let m = PredictionMetrics::from_predictions(&predicted, &actual).unwrap();
        assert!((m.correlation + 1.0).abs() < 1e-12);
        assert!(!m.acceptable(&AcceptanceThresholds::default()));
    }

    #[test]
    fn rae_relative_to_mean_baseline() {
        let actual = [0.0, 2.0];
        // Mean baseline MAE = 1.0; predictions off by 0.5 -> RAE 0.5.
        let predicted = [0.5, 1.5];
        let m = PredictionMetrics::from_predictions(&predicted, &actual).unwrap();
        assert!((m.relative_absolute_error - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_actual_edge_cases() {
        let actual = [2.0, 2.0, 2.0];
        let perfect = PredictionMetrics::from_predictions(&actual, &actual).unwrap();
        assert_eq!(perfect.relative_absolute_error, 0.0);
        let off = PredictionMetrics::from_predictions(&[3.0, 3.0, 3.0], &actual).unwrap();
        assert_eq!(off.relative_absolute_error, f64::INFINITY);
        // Correlation degenerates to 0 for constant inputs.
        assert_eq!(off.correlation, 0.0);
    }

    #[test]
    fn input_validation() {
        assert!(PredictionMetrics::from_predictions(&[1.0], &[1.0, 2.0]).is_err());
        assert!(PredictionMetrics::from_predictions(&[1.0], &[1.0]).is_err());
    }

    #[test]
    fn display_contains_metrics() {
        let m = PredictionMetrics::from_predictions(&[1.0, 2.0], &[1.0, 2.0]).unwrap();
        let text = m.to_string();
        assert!(text.contains("C = "));
        assert!(text.contains("MAE = "));
    }

    #[test]
    fn thresholds_default_matches_paper() {
        let t = AcceptanceThresholds::default();
        assert_eq!(t.min_correlation, 0.85);
        assert_eq!(t.max_mae, 0.15);
    }

    proptest! {
        #[test]
        fn prop_mae_le_rmse_times_sqrt1(
            pairs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 2..100)
        ) {
            let predicted: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let actual: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let m = PredictionMetrics::from_predictions(&predicted, &actual).unwrap();
            // Jensen: MAE <= RMSE always.
            prop_assert!(m.mae <= m.rmse + 1e-9);
            prop_assert!((-1.0..=1.0).contains(&m.correlation));
            prop_assert!(m.mae >= 0.0);
        }
    }
}
