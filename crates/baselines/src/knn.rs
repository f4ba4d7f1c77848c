//! k-nearest-neighbor regression baseline.

use crate::{BaselineError, Regressor, Result};
use perfcounters::events::{EventId, N_EVENTS};
use perfcounters::{Dataset, Sample};
use serde::{Deserialize, Serialize};

/// k-NN regression over per-column standardized Euclidean distance.
///
/// Each feature is scaled by the training column's standard deviation so
/// that rare-event densities (1e-4-scale) and instruction-mix densities
/// (0.3-scale) contribute comparably — without this, distance would be
/// dominated by the mix events and the regressor would ignore the miss
/// events that actually drive CPI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnnRegressor {
    k: usize,
    scales: [f64; N_EVENTS],
    features: Vec<[f64; N_EVENTS]>,
    targets: Vec<f64>,
}

impl KnnRegressor {
    /// Fits (memorizes) the training set.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::InvalidConfig`] if `k == 0`.
    /// * [`BaselineError::InsufficientData`] if the dataset has fewer
    ///   than `k` samples.
    pub fn fit(data: &Dataset, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(BaselineError::InvalidConfig("k must be at least 1".into()));
        }
        if data.len() < k {
            return Err(BaselineError::InsufficientData(format!(
                "need at least k = {k} samples, got {}",
                data.len()
            )));
        }
        let mut scales = [1.0; N_EVENTS];
        for (e, scale) in EventId::ALL.into_iter().zip(scales.iter_mut()) {
            let sd = mathkit::describe::std_dev(data.event_column(e)).unwrap_or(0.0);
            *scale = if sd > 0.0 { 1.0 / sd } else { 0.0 };
        }
        let features: Vec<[f64; N_EVENTS]> = (0..data.len())
            .map(|r| {
                let mut f = *data.sample(r).densities();
                for (v, s) in f.iter_mut().zip(&scales) {
                    *v *= s;
                }
                f
            })
            .collect();
        Ok(KnnRegressor {
            k,
            scales,
            features,
            targets: data.cpis(),
        })
    }

    /// The number of neighbors.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of memorized training samples.
    pub fn n_training(&self) -> usize {
        self.targets.len()
    }
}

impl Regressor for KnnRegressor {
    fn predict(&self, sample: &Sample) -> f64 {
        let mut q = *sample.densities();
        for (v, s) in q.iter_mut().zip(&self.scales) {
            *v *= s;
        }
        // Track the k smallest distances with a simple bounded insertion —
        // k is small, so this beats sorting the whole distance vector.
        let mut best: Vec<(f64, f64)> = Vec::with_capacity(self.k + 1);
        for (f, &y) in self.features.iter().zip(&self.targets) {
            let dist: f64 = f.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
            if best.len() < self.k || dist < best.last().expect("non-empty").0 {
                let pos = best.partition_point(|&(d, _)| d < dist);
                best.insert(pos, (dist, y));
                if best.len() > self.k {
                    best.pop();
                }
            }
        }
        let n = best.len().max(1);
        best.iter().map(|&(_, y)| y).sum::<f64>() / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcounters::EventId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn step_dataset(n: usize, seed: u64) -> Dataset {
        // CPI = 0.5 for DtlbMiss below 2e-4, 2.0 above: k-NN should nail
        // this after scaling.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("step");
        for _ in 0..n {
            let dtlb = rng.gen::<f64>() * 4e-4;
            let cpi = if dtlb <= 2e-4 { 0.5 } else { 2.0 };
            let mut s = Sample::zeros(cpi);
            s.set(EventId::DtlbMiss, dtlb);
            s.set(EventId::Load, rng.gen());
            ds.push(s, b);
        }
        ds
    }

    #[test]
    fn rejects_bad_parameters() {
        let ds = step_dataset(10, 0);
        assert!(matches!(
            KnnRegressor::fit(&ds, 0),
            Err(BaselineError::InvalidConfig(_))
        ));
        assert!(matches!(
            KnnRegressor::fit(&ds, 11),
            Err(BaselineError::InsufficientData(_))
        ));
    }

    #[test]
    fn exact_on_training_points_with_k1() {
        let ds = step_dataset(200, 1);
        let knn = KnnRegressor::fit(&ds, 1).unwrap();
        for i in 0..20 {
            let s = ds.sample(i);
            assert_eq!(knn.predict(&s), s.cpi());
        }
    }

    #[test]
    fn captures_step_function() {
        let train = step_dataset(2000, 2);
        let test = step_dataset(300, 3);
        let knn = KnnRegressor::fit(&train, 5).unwrap();
        let mae = knn.mean_abs_error(&test);
        assert!(mae < 0.1, "mae {mae}");
    }

    #[test]
    fn constant_feature_ignored() {
        // The Load column dominates raw distance but is uninformative; a
        // constant column must not produce NaN scales.
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("x");
        for i in 0..20 {
            let mut s = Sample::zeros(i as f64);
            s.set(EventId::Br, 0.5); // constant column
            s.set(EventId::Div, i as f64 * 1e-3);
            ds.push(s, b);
        }
        let knn = KnnRegressor::fit(&ds, 3).unwrap();
        let mut probe = Sample::zeros(0.0);
        probe.set(EventId::Br, 0.5);
        probe.set(EventId::Div, 0.0);
        let p = knn.predict(&probe);
        assert!(p.is_finite());
        assert!(p <= 3.0, "nearest targets should be small, got {p}");
    }

    #[test]
    fn k_larger_smooths() {
        let ds = step_dataset(500, 4);
        let k1 = KnnRegressor::fit(&ds, 1).unwrap();
        let k50 = KnnRegressor::fit(&ds, 50).unwrap();
        // Probe right at the step: k=50 averages across it, k=1 does not.
        let mut probe = Sample::zeros(0.0);
        probe.set(EventId::DtlbMiss, 2.0e-4);
        probe.set(EventId::Load, 0.5);
        let p1 = k1.predict(&probe);
        let p50 = k50.predict(&probe);
        assert!(p1 == 0.5 || p1 == 2.0);
        assert!(p50 > 0.5 && p50 < 2.0);
    }

    #[test]
    fn accessors() {
        let ds = step_dataset(50, 5);
        let knn = KnnRegressor::fit(&ds, 7).unwrap();
        assert_eq!(knn.k(), 7);
        assert_eq!(knn.n_training(), 50);
    }
}
