//! Bootstrap confidence intervals for prediction-accuracy metrics.
//!
//! The paper reports point estimates of `C` and MAE; this module adds
//! percentile-bootstrap confidence intervals so the transferability
//! verdicts can be stated with uncertainty — the "statistically rigorous"
//! treatment its related work (reference 18) advocates.

use crate::{Result, StatsError};
use mathkit::describe::correlation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A percentile-bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// The statistic on the full sample.
    pub point: f64,
    /// Lower percentile bound.
    pub lower: f64,
    /// Upper percentile bound.
    pub upper: f64,
    /// Confidence level (e.g. 0.95).
    pub confidence: f64,
    /// Number of bootstrap resamples drawn.
    pub n_resamples: usize,
}

impl BootstrapCi {
    /// True if the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        (self.lower..=self.upper).contains(&value)
    }

    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Percentile bootstrap of an arbitrary paired statistic
/// `f(predicted, actual)`.
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] if the slices differ in length.
/// * [`StatsError::InsufficientData`] if fewer than 2 pairs.
/// * [`StatsError::Domain`] if `confidence` is not in `(0, 1)` or
///   `n_resamples == 0`.
pub fn bootstrap_ci<F>(
    predicted: &[f64],
    actual: &[f64],
    statistic: F,
    n_resamples: usize,
    confidence: f64,
    seed: u64,
) -> Result<BootstrapCi>
where
    F: Fn(&[f64], &[f64]) -> f64,
{
    if predicted.len() != actual.len() {
        return Err(StatsError::LengthMismatch(format!(
            "{} vs {}",
            predicted.len(),
            actual.len()
        )));
    }
    let n = predicted.len();
    if n < 2 {
        return Err(StatsError::InsufficientData(format!(
            "need >= 2 pairs, got {n}"
        )));
    }
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(StatsError::Domain(format!(
            "confidence {confidence} outside (0, 1)"
        )));
    }
    if n_resamples == 0 {
        return Err(StatsError::Domain("n_resamples must be positive".into()));
    }

    let point = statistic(predicted, actual);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = Vec::with_capacity(n_resamples);
    let mut p_buf = vec![0.0; n];
    let mut a_buf = vec![0.0; n];
    for _ in 0..n_resamples {
        for slot in 0..n {
            let pick = rng.gen_range(0..n);
            p_buf[slot] = predicted[pick];
            a_buf[slot] = actual[pick];
        }
        stats.push(statistic(&p_buf, &a_buf));
    }
    stats.sort_by(f64::total_cmp);
    let alpha = 1.0 - confidence;
    let lo_idx = ((alpha / 2.0) * n_resamples as f64) as usize;
    let hi_idx = (((1.0 - alpha / 2.0) * n_resamples as f64) as usize).min(n_resamples - 1);
    Ok(BootstrapCi {
        point,
        lower: stats[lo_idx],
        upper: stats[hi_idx],
        confidence,
        n_resamples,
    })
}

/// Bootstrap CI of the mean absolute error.
///
/// # Errors
///
/// See [`bootstrap_ci`].
pub fn mae_ci(
    predicted: &[f64],
    actual: &[f64],
    n_resamples: usize,
    confidence: f64,
    seed: u64,
) -> Result<BootstrapCi> {
    bootstrap_ci(
        predicted,
        actual,
        |p, a| p.iter().zip(a).map(|(x, y)| (x - y).abs()).sum::<f64>() / p.len() as f64,
        n_resamples,
        confidence,
        seed,
    )
}

/// Bootstrap CI of the correlation coefficient `C`.
///
/// # Errors
///
/// See [`bootstrap_ci`].
pub fn correlation_ci(
    predicted: &[f64],
    actual: &[f64],
    n_resamples: usize,
    confidence: f64,
    seed: u64,
) -> Result<BootstrapCi> {
    bootstrap_ci(
        predicted,
        actual,
        |p, a| correlation(p, a).unwrap_or(0.0),
        n_resamples,
        confidence,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::sampling::normal;

    fn noisy_pairs(n: usize, noise: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let actual: Vec<f64> = (0..n).map(|i| 1.0 + (i % 10) as f64 * 0.1).collect();
        let predicted: Vec<f64> = actual
            .iter()
            .map(|a| a + normal(&mut rng, 0.0, noise))
            .collect();
        (predicted, actual)
    }

    #[test]
    fn ci_brackets_point_estimate() {
        let (p, a) = noisy_pairs(500, 0.05, 1);
        let ci = mae_ci(&p, &a, 500, 0.95, 2).unwrap();
        assert!(ci.lower <= ci.point && ci.point <= ci.upper);
        assert!(ci.width() > 0.0);
        // MAE of N(0, 0.05) noise is 0.05 * sqrt(2/pi) ~ 0.0399.
        assert!(ci.contains(0.0399), "{ci:?}");
    }

    #[test]
    fn more_data_tightens_interval() {
        let (p1, a1) = noisy_pairs(100, 0.05, 3);
        let (p2, a2) = noisy_pairs(10_000, 0.05, 4);
        let ci1 = mae_ci(&p1, &a1, 300, 0.95, 5).unwrap();
        let ci2 = mae_ci(&p2, &a2, 300, 0.95, 6).unwrap();
        assert!(
            ci2.width() < 0.5 * ci1.width(),
            "{} vs {}",
            ci2.width(),
            ci1.width()
        );
    }

    #[test]
    fn correlation_ci_near_one_for_good_predictions() {
        let (p, a) = noisy_pairs(1000, 0.01, 7);
        let ci = correlation_ci(&p, &a, 300, 0.95, 8).unwrap();
        assert!(ci.lower > 0.99, "{ci:?}");
        assert!(ci.upper <= 1.0 + 1e-12);
    }

    #[test]
    fn perfect_predictions_have_degenerate_mae_ci() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let ci = mae_ci(&a, &a, 100, 0.9, 9).unwrap();
        assert_eq!(ci.point, 0.0);
        assert_eq!(ci.lower, 0.0);
        assert_eq!(ci.upper, 0.0);
    }

    #[test]
    fn input_validation() {
        let a = vec![1.0, 2.0, 3.0];
        assert!(mae_ci(&a, &a[..2], 100, 0.95, 0).is_err());
        assert!(mae_ci(&a[..1], &a[..1], 100, 0.95, 0).is_err());
        assert!(mae_ci(&a, &a, 0, 0.95, 0).is_err());
        assert!(mae_ci(&a, &a, 100, 1.5, 0).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (p, a) = noisy_pairs(200, 0.1, 10);
        let c1 = mae_ci(&p, &a, 200, 0.95, 11).unwrap();
        let c2 = mae_ci(&p, &a, 200, 0.95, 11).unwrap();
        assert_eq!(c1, c2);
    }
}
