//! Principal component analysis over PMU event densities.
//!
//! The paper's related work (its references \[12\]–\[14\]) subsets benchmark
//! suites by running PCA over performance-counter data and clustering the
//! benchmarks in the reduced space. This module provides that comparator
//! so the LM-profile subsetting of [`crate::subset`] can be evaluated
//! against the standard approach: fit PCA on the standardized event
//! columns, place each benchmark at its mean projection, and cluster.

use mathkit::eigen::symmetric_eigen;
use mathkit::matrix::Matrix;
use perfcounters::events::{EventId, N_EVENTS};
use perfcounters::{Dataset, Sample};
use serde::{Deserialize, Serialize};

/// A fitted PCA model over the 19 Table I event densities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcaModel {
    mean: [f64; N_EVENTS],
    scale: [f64; N_EVENTS],
    /// Row `c` is principal component `c` (unit length), `n_components x
    /// N_EVENTS`.
    components: Vec<Vec<f64>>,
    explained: Vec<f64>,
}

impl PcaModel {
    /// Fits PCA on a dataset: columns are standardized (zero mean, unit
    /// variance; constant columns are left centered only), the
    /// correlation matrix is eigendecomposed, and the top
    /// `n_components` eigenvectors retained.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has fewer than 2 samples or `n_components`
    /// is 0 or exceeds the event count.
    pub fn fit(data: &Dataset, n_components: usize) -> PcaModel {
        assert!(data.len() >= 2, "PCA needs at least 2 samples");
        assert!(
            (1..=N_EVENTS).contains(&n_components),
            "n_components {n_components} out of range"
        );
        let n = data.len() as f64;
        let mut mean = [0.0; N_EVENTS];
        for (m, e) in mean.iter_mut().zip(EventId::ALL) {
            for d in data.event_column(e) {
                *m += d;
            }
            *m /= n;
        }
        let mut var = [0.0; N_EVENTS];
        for ((v, m), e) in var.iter_mut().zip(&mean).zip(EventId::ALL) {
            for d in data.event_column(e) {
                *v += (d - m) * (d - m);
            }
        }
        let mut scale = [1.0; N_EVENTS];
        for (s, v) in scale.iter_mut().zip(&var) {
            let sd = (v / (n - 1.0)).sqrt();
            *s = if sd > 0.0 { 1.0 / sd } else { 0.0 };
        }

        // Correlation matrix of the standardized columns.
        let mut corr = Matrix::zeros(N_EVENTS, N_EVENTS);
        for (sample, _) in data.iter() {
            let d = sample.densities();
            let z: Vec<f64> = (0..N_EVENTS).map(|c| (d[c] - mean[c]) * scale[c]).collect();
            for a in 0..N_EVENTS {
                if z[a] == 0.0 {
                    continue;
                }
                for b in a..N_EVENTS {
                    corr[(a, b)] += z[a] * z[b];
                }
            }
        }
        for a in 0..N_EVENTS {
            for b in 0..a {
                corr[(a, b)] = corr[(b, a)];
            }
            for b in a..N_EVENTS {
                corr[(a, b)] /= n - 1.0;
            }
        }
        for a in 0..N_EVENTS {
            for b in 0..a {
                corr[(a, b)] = corr[(b, a)];
            }
        }

        let eigen = symmetric_eigen(&corr).expect("correlation matrix is symmetric");
        let total: f64 = eigen.values().iter().map(|v| v.max(0.0)).sum();
        let components: Vec<Vec<f64>> = (0..n_components).map(|c| eigen.vector(c)).collect();
        let explained: Vec<f64> = (0..n_components)
            .map(|c| eigen.values()[c].max(0.0) / total.max(1e-300))
            .collect();
        PcaModel {
            mean,
            scale,
            components,
            explained,
        }
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.len()
    }

    /// Fraction of total variance explained by each retained component.
    pub fn explained_variance_ratio(&self) -> &[f64] {
        &self.explained
    }

    /// The loading of one event on one component.
    pub fn loading(&self, component: usize, event: EventId) -> f64 {
        self.components[component][event.index()]
    }

    /// Projects one sample into the component space.
    pub fn project(&self, sample: &Sample) -> Vec<f64> {
        let d = sample.densities();
        self.components
            .iter()
            .map(|comp| {
                (0..N_EVENTS)
                    .map(|c| comp[c] * (d[c] - self.mean[c]) * self.scale[c])
                    .sum()
            })
            .collect()
    }

    /// Mean projection of each benchmark in a labeled dataset; returns
    /// `(names, coordinates)` in label order. Benchmarks without samples
    /// sit at the origin.
    pub fn benchmark_coordinates(&self, data: &Dataset) -> (Vec<String>, Vec<Vec<f64>>) {
        let k = self.n_components();
        let nb = data.benchmark_count();
        let mut sums = vec![vec![0.0; k]; nb];
        let mut counts = vec![0usize; nb];
        for (sample, label) in data.iter() {
            let p = self.project(&sample);
            for (s, v) in sums[label as usize].iter_mut().zip(&p) {
                *s += v;
            }
            counts[label as usize] += 1;
        }
        for (s, &c) in sums.iter_mut().zip(&counts) {
            if c > 0 {
                for v in s.iter_mut() {
                    *v /= c as f64;
                }
            }
        }
        (data.benchmark_names().to_vec(), sums)
    }
}

/// A PCA-space benchmark subset (the related-work comparator to
/// [`crate::subset`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcaSubset {
    /// Names of the selected representative benchmarks.
    pub selected: Vec<String>,
    /// For every benchmark, the index into `selected` of its
    /// representative.
    pub assignment: Vec<usize>,
    /// Maximum Euclidean distance (in PCA space) to a representative.
    pub max_distance: f64,
}

/// Greedy k-center selection over benchmark PCA coordinates.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the benchmark count.
pub fn pca_subset(model: &PcaModel, data: &Dataset, k: usize) -> PcaSubset {
    let (names, coords) = model.benchmark_coordinates(data);
    let n = names.len();
    assert!(k >= 1 && k <= n, "k = {k} out of range (n = {n})");
    let dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };
    // Seed with the benchmark closest to the overall centroid.
    let centroid: Vec<f64> = (0..model.n_components())
        .map(|c| coords.iter().map(|p| p[c]).sum::<f64>() / n as f64)
        .collect();
    let seed = (0..n)
        .min_by(|&a, &b| dist(&coords[a], &centroid).total_cmp(&dist(&coords[b], &centroid)))
        .expect("non-empty");
    let mut selected = vec![seed];
    while selected.len() < k {
        let next = (0..n)
            .filter(|i| !selected.contains(i))
            .max_by(|&a, &b| {
                let da = selected
                    .iter()
                    .map(|&s| dist(&coords[a], &coords[s]))
                    .fold(f64::INFINITY, f64::min);
                let db = selected
                    .iter()
                    .map(|&s| dist(&coords[b], &coords[s]))
                    .fold(f64::INFINITY, f64::min);
                da.total_cmp(&db)
            })
            .expect("candidates remain");
        selected.push(next);
    }
    let mut assignment = Vec::with_capacity(n);
    let mut max_distance: f64 = 0.0;
    for p in &coords {
        let (best, d) = selected
            .iter()
            .enumerate()
            .map(|(idx, &s)| (idx, dist(p, &coords[s])))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("k >= 1");
        assignment.push(best);
        max_distance = max_distance.max(d);
    }
    PcaSubset {
        selected: selected.iter().map(|&i| names[i].clone()).collect(),
        assignment,
        max_distance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two benchmark groups separated along two different events.
    fn grouped_dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ds = Dataset::new();
        for g in 0..2 {
            for b in 0..3 {
                let label = ds.add_benchmark(&format!("g{g}b{b}"));
                for _ in 0..200 {
                    let mut s = Sample::zeros(1.0);
                    // Shared noise dimension.
                    s.set(EventId::Load, 0.3 + 0.02 * rng.gen::<f64>());
                    // Group signature dimensions.
                    if g == 0 {
                        s.set(EventId::DtlbMiss, 1e-3 + 1e-4 * rng.gen::<f64>());
                    } else {
                        s.set(EventId::LdBlkOlp, 1e-2 + 1e-3 * rng.gen::<f64>());
                    }
                    ds.push(s, label);
                }
            }
        }
        ds
    }

    #[test]
    fn explained_variance_sums_below_one_and_sorted() {
        let ds = grouped_dataset();
        let pca = PcaModel::fit(&ds, 5);
        let ratios = pca.explained_variance_ratio();
        assert_eq!(ratios.len(), 5);
        let total: f64 = ratios.iter().sum();
        assert!(total <= 1.0 + 1e-9);
        for w in ratios.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "ratios not sorted: {ratios:?}");
        }
        // The two signature dimensions dominate.
        assert!(ratios[0] > 0.1);
    }

    #[test]
    fn first_component_separates_groups() {
        let ds = grouped_dataset();
        let pca = PcaModel::fit(&ds, 2);
        let (names, coords) = pca.benchmark_coordinates(&ds);
        // Groups must be separable in the retained space: within-group
        // spread should be far below between-group distance.
        let g0: Vec<&Vec<f64>> = names
            .iter()
            .zip(&coords)
            .filter(|(n, _)| n.starts_with("g0"))
            .map(|(_, c)| c)
            .collect();
        let g1: Vec<&Vec<f64>> = names
            .iter()
            .zip(&coords)
            .filter(|(n, _)| n.starts_with("g1"))
            .map(|(_, c)| c)
            .collect();
        let dist = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        let within = dist(g0[0], g0[1]).max(dist(g1[0], g1[1]));
        let between = dist(g0[0], g1[0]);
        assert!(between > 5.0 * within, "between {between}, within {within}");
    }

    #[test]
    fn projection_of_mean_sample_is_origin() {
        let ds = grouped_dataset();
        let pca = PcaModel::fit(&ds, 3);
        // Build the mean sample explicitly.
        let mut mean = Sample::zeros(0.0);
        for e in EventId::ALL {
            let col = ds.column(e);
            mean.set(e, col.iter().sum::<f64>() / col.len() as f64);
        }
        let p = pca.project(&mean);
        assert!(p.iter().all(|v| v.abs() < 1e-9), "{p:?}");
    }

    #[test]
    fn pca_subset_covers_groups() {
        let ds = grouped_dataset();
        let pca = PcaModel::fit(&ds, 3);
        let subset = pca_subset(&pca, &ds, 2);
        let has0 = subset.selected.iter().any(|n| n.starts_with("g0"));
        let has1 = subset.selected.iter().any(|n| n.starts_with("g1"));
        assert!(has0 && has1, "{:?}", subset.selected);
        assert_eq!(subset.assignment.len(), 6);
    }

    #[test]
    fn loadings_identify_signature_events() {
        let ds = grouped_dataset();
        let pca = PcaModel::fit(&ds, 1);
        // The first component should load on the two group-signature
        // events much more than on an unused event.
        let sig = pca
            .loading(0, EventId::DtlbMiss)
            .abs()
            .max(pca.loading(0, EventId::LdBlkOlp).abs());
        let unused = pca.loading(0, EventId::FpAsst).abs();
        assert!(sig > 5.0 * unused, "sig {sig}, unused {unused}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_components_panics() {
        let ds = grouped_dataset();
        let _ = PcaModel::fit(&ds, 0);
    }
}
