//! Global ordinary-least-squares baseline.

use crate::{BaselineError, Regressor, Result};
use mathkit::matrix::Matrix;
use mathkit::qr::least_squares;
use mathkit::solve::solve_ridge;
use perfcounters::events::{EventId, N_EVENTS};
use perfcounters::{Dataset, Sample};

/// A single linear model over all 19 events plus an intercept — the
/// degenerate "zero splits" model tree. The gap between its accuracy and
/// a model tree's quantifies how piecewise the workload's true cost
/// structure is.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsRegressor {
    intercept: f64,
    coefficients: [f64; N_EVENTS],
}

impl OlsRegressor {
    /// Fits by QR least squares, falling back to ridge-regularized
    /// normal equations for rank-deficient designs.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InsufficientData`] if the dataset has
    /// fewer than `N_EVENTS + 2` samples.
    pub fn fit(data: &Dataset) -> Result<Self> {
        let n = data.len();
        if n < N_EVENTS + 2 {
            return Err(BaselineError::InsufficientData(format!(
                "need at least {} samples, got {n}",
                N_EVENTS + 2
            )));
        }
        // Constant columns (e.g. events a workload never triggers) make
        // the design rank deficient; drop them up front and give them a
        // zero coefficient.
        let varying: Vec<EventId> = EventId::ALL
            .into_iter()
            .filter(|&e| {
                let col = data.event_column(e);
                col[1..].iter().any(|&v| v != col[0])
            })
            .collect();

        let mut design = Matrix::zeros(n, varying.len() + 1);
        for r in 0..n {
            design[(r, 0)] = 1.0;
        }
        for (j, &e) in varying.iter().enumerate() {
            for (r, &v) in data.event_column(e).iter().enumerate() {
                design[(r, j + 1)] = v;
            }
        }
        let y = data.cpis();
        let beta = match least_squares(&design, &y) {
            Ok(beta) => beta,
            Err(_) => {
                let gram = design.gram();
                let xty = design.transpose_matvec(&y).expect("length checked");
                solve_ridge(&gram, &xty, 1e-8).map_err(|_| {
                    BaselineError::InsufficientData("degenerate design matrix".into())
                })?
            }
        };
        let mut coefficients = [0.0; N_EVENTS];
        for (j, &e) in varying.iter().enumerate() {
            coefficients[e.index()] = beta[j + 1];
        }
        Ok(OlsRegressor {
            intercept: beta[0],
            coefficients,
        })
    }

    /// The fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted coefficient for one event.
    pub fn coefficient(&self, event: EventId) -> f64 {
        self.coefficients[event.index()]
    }
}

impl Regressor for OlsRegressor {
    fn predict(&self, sample: &Sample) -> f64 {
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(sample.densities())
                .map(|(c, d)| c * d)
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn linear_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("lin");
        for _ in 0..n {
            let load: f64 = rng.gen();
            let l2: f64 = rng.gen::<f64>() * 1e-3;
            let mut s = Sample::zeros(0.5 + 1.5 * load + 400.0 * l2);
            s.set(EventId::Load, load);
            s.set(EventId::L2Miss, l2);
            ds.push(s, b);
        }
        ds
    }

    #[test]
    fn recovers_linear_truth() {
        let ds = linear_dataset(300, 1);
        let ols = OlsRegressor::fit(&ds).unwrap();
        assert!((ols.intercept() - 0.5).abs() < 1e-6);
        assert!((ols.coefficient(EventId::Load) - 1.5).abs() < 1e-6);
        assert!((ols.coefficient(EventId::L2Miss) - 400.0).abs() < 1e-2);
        assert!(ols.mean_abs_error(&ds) < 1e-8);
    }

    #[test]
    fn rejects_tiny_dataset() {
        let ds = linear_dataset(5, 2);
        assert!(matches!(
            OlsRegressor::fit(&ds),
            Err(BaselineError::InsufficientData(_))
        ));
    }

    #[test]
    fn handles_constant_columns_via_ridge() {
        // All densities zero except CPI variation: QR fails (constant
        // columns), ridge must still return something finite.
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("const");
        for i in 0..40 {
            ds.push(Sample::zeros(1.0 + (i % 3) as f64 * 0.1), b);
        }
        let ols = OlsRegressor::fit(&ds).unwrap();
        let pred = ols.predict(&Sample::zeros(0.0));
        assert!(pred.is_finite());
        assert!((pred - 1.1).abs() < 0.1);
    }

    #[test]
    fn predict_all_and_mae() {
        let ds = linear_dataset(100, 3);
        let ols = OlsRegressor::fit(&ds).unwrap();
        let preds = ols.predict_all(&ds);
        assert_eq!(preds.len(), 100);
        assert!(ols.mean_abs_error(&ds) < 1e-8);
        assert_eq!(ols.mean_abs_error(&Dataset::new()), 0.0);
    }
}
