//! Descriptive statistics matching the estimators in the paper's
//! Equations 8–11: sample means, unbiased variances, standard deviations,
//! covariance, correlation, and quantiles.

use crate::{MathError, Result};

/// Sample mean. Returns an error for an empty slice.
///
/// # Errors
///
/// [`MathError::InsufficientData`] if `xs` is empty.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(MathError::InsufficientData);
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (`n - 1` denominator), Equation 9 in the paper.
///
/// # Errors
///
/// [`MathError::InsufficientData`] if fewer than 2 samples.
pub fn variance(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(MathError::InsufficientData);
    }
    let m = mean(xs)?;
    let ss = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
    Ok(ss / (xs.len() - 1) as f64)
}

/// Unbiased sample standard deviation.
///
/// # Errors
///
/// [`MathError::InsufficientData`] if fewer than 2 samples.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    variance(xs).map(f64::sqrt)
}

/// Sample covariance (unbiased, `n - 1` denominator).
///
/// # Errors
///
/// * [`MathError::ShapeMismatch`] if the slices differ in length.
/// * [`MathError::InsufficientData`] if fewer than 2 pairs.
pub fn covariance(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(MathError::ShapeMismatch(format!(
            "covariance inputs of length {} and {}",
            xs.len(),
            ys.len()
        )));
    }
    if xs.len() < 2 {
        return Err(MathError::InsufficientData);
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let s = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>();
    Ok(s / (xs.len() - 1) as f64)
}

/// Pearson correlation coefficient, the metric `C` of the paper's
/// Equation 12.
///
/// Returns 0 when either input is (numerically) constant, which is the
/// conventional degenerate-case value for prediction-accuracy reporting.
///
/// # Errors
///
/// Propagates errors from [`covariance`].
pub fn correlation(xs: &[f64], ys: &[f64]) -> Result<f64> {
    let cov = covariance(xs, ys)?;
    let sx = std_dev(xs)?;
    let sy = std_dev(ys)?;
    if sx <= 0.0 || sy <= 0.0 {
        return Ok(0.0);
    }
    Ok((cov / (sx * sy)).clamp(-1.0, 1.0))
}

/// Linearly interpolated quantile of an unsorted slice (`q` in `[0, 1]`).
///
/// # Errors
///
/// * [`MathError::InsufficientData`] if `xs` is empty.
/// * [`MathError::Domain`] if `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(MathError::InsufficientData);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(MathError::Domain(format!("q = {q} outside [0, 1]")));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (the 0.5 quantile).
///
/// # Errors
///
/// [`MathError::InsufficientData`] if `xs` is empty.
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// A one-pass summary of a sample: count, mean, unbiased variance,
/// standard deviation, min, max.
///
/// # Examples
///
/// ```
/// use mathkit::describe::Summary;
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0]).unwrap();
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// assert!((s.variance() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    variance: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Builds a summary from a slice using Welford's one-pass algorithm.
    ///
    /// # Errors
    ///
    /// [`MathError::InsufficientData`] if `xs` is empty.
    pub fn from_slice(xs: &[f64]) -> Result<Self> {
        if xs.is_empty() {
            return Err(MathError::InsufficientData);
        }
        let mut mean = 0.0;
        let mut m2 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (i, &x) in xs.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
            min = min.min(x);
            max = max.max(x);
        }
        let variance = if xs.len() > 1 {
            m2 / (xs.len() - 1) as f64
        } else {
            0.0
        };
        Ok(Summary {
            count: xs.len(),
            mean,
            variance,
            min,
            max,
        })
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Minimum value.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum value.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Standard error of the mean, `sd / sqrt(n)`.
    pub fn std_err(&self) -> f64 {
        self.std_dev() / (self.count as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_variance_hand_checked() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < 1e-12);
        // Sum of squared deviations = 32, n-1 = 7.
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_errors() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[1.0]).is_err());
        assert!(median(&[]).is_err());
        assert!(Summary::from_slice(&[]).is_err());
    }

    #[test]
    fn covariance_and_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((correlation(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let ys_neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((correlation(&xs, &ys_neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_of_constant_is_zero() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [2.0, 3.0, 4.0];
        assert_eq!(correlation(&xs, &ys).unwrap(), 0.0);
    }

    #[test]
    fn covariance_shape_mismatch() {
        assert!(covariance(&[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn quantiles() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert!((median(&xs).unwrap() - 2.5).abs() < 1e-12);
        assert!(quantile(&xs, 1.5).is_err());
    }

    #[test]
    fn summary_matches_two_pass() {
        let xs = [0.5, 1.5, 2.5, 3.5, 10.0];
        let s = Summary::from_slice(&xs).unwrap();
        assert!((s.mean() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((s.variance() - variance(&xs).unwrap()).abs() < 1e-10);
        assert_eq!(s.min(), 0.5);
        assert_eq!(s.max(), 10.0);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_slice(&[42.0]).unwrap();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 2..100)) {
            prop_assert!(variance(&xs).unwrap() >= 0.0);
        }

        #[test]
        fn prop_mean_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let m = mean(&xs).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }

        #[test]
        fn prop_correlation_in_range(
            xs in proptest::collection::vec(-1e3f64..1e3, 2..50),
            ys in proptest::collection::vec(-1e3f64..1e3, 2..50),
        ) {
            let n = xs.len().min(ys.len());
            let c = correlation(&xs[..n], &ys[..n]).unwrap();
            prop_assert!((-1.0..=1.0).contains(&c));
        }

        #[test]
        fn prop_summary_consistent(xs in proptest::collection::vec(-1e4f64..1e4, 1..200)) {
            let s = Summary::from_slice(&xs).unwrap();
            prop_assert!(s.min() <= s.mean() + 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
            prop_assert!(s.variance() >= 0.0);
        }

        #[test]
        fn prop_quantile_monotone(xs in proptest::collection::vec(-1e4f64..1e4, 1..100)) {
            let q1 = quantile(&xs, 0.25).unwrap();
            let q2 = quantile(&xs, 0.5).unwrap();
            let q3 = quantile(&xs, 0.75).unwrap();
            prop_assert!(q1 <= q2 + 1e-9 && q2 <= q3 + 1e-9);
        }
    }
}
