//! Pairwise benchmark similarity (the paper's Table III).

use crate::profile::ProfileTable;
use std::fmt::Write as _;

/// A symmetric matrix of L1 profile distances between benchmarks, plus
/// each benchmark's distance to the whole-suite profile (the last row of
/// Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityMatrix {
    names: Vec<String>,
    /// Row-major `n x n` distances in `[0, 1]`.
    distances: Vec<f64>,
    /// Distance of each benchmark to the suite profile.
    to_suite: Vec<f64>,
}

impl SimilarityMatrix {
    /// Builds the matrix from a profile table.
    pub fn from_table(table: &ProfileTable) -> SimilarityMatrix {
        let n = table.names().len();
        let mut distances = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = table.profiles()[i].l1_distance(&table.profiles()[j]);
                distances[i * n + j] = d;
                distances[j * n + i] = d;
            }
        }
        let to_suite = table
            .profiles()
            .iter()
            .map(|p| p.l1_distance(table.suite()))
            .collect();
        SimilarityMatrix {
            names: table.names().to_vec(),
            distances,
            to_suite,
        }
    }

    /// Benchmark names, in matrix order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Distance between two benchmarks by index.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        let n = self.names.len();
        assert!(i < n && j < n, "index out of bounds");
        self.distances[i * n + j]
    }

    /// Distance between two benchmarks by name.
    pub fn distance_by_name(&self, a: &str, b: &str) -> Option<f64> {
        let i = self.names.iter().position(|n| n == a)?;
        let j = self.names.iter().position(|n| n == b)?;
        Some(self.distance(i, j))
    }

    /// Distance of one benchmark to the whole-suite profile.
    pub fn distance_to_suite(&self, name: &str) -> Option<f64> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(self.to_suite[i])
    }

    /// The `k` most similar benchmark pairs (smallest distances),
    /// ascending.
    pub fn most_similar_pairs(&self, k: usize) -> Vec<(String, String, f64)> {
        self.sorted_pairs(k, false)
    }

    /// The `k` most dissimilar benchmark pairs (largest distances),
    /// descending.
    pub fn most_dissimilar_pairs(&self, k: usize) -> Vec<(String, String, f64)> {
        self.sorted_pairs(k, true)
    }

    fn sorted_pairs(&self, k: usize, descending: bool) -> Vec<(String, String, f64)> {
        let n = self.names.len();
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((i, j, self.distance(i, j)));
            }
        }
        pairs.sort_by(|a, b| {
            if descending {
                b.2.total_cmp(&a.2)
            } else {
                a.2.total_cmp(&b.2)
            }
        });
        pairs
            .into_iter()
            .take(k)
            .map(|(i, j, d)| (self.names[i].clone(), self.names[j].clone(), d))
            .collect()
    }

    /// Renders a Table III-style matrix (percent distances) for a subset
    /// of benchmarks, with a final row of distances to the suite.
    /// Unknown names are skipped.
    pub fn render_subset(&self, subset: &[&str]) -> String {
        let indices: Vec<usize> = subset
            .iter()
            .filter_map(|name| self.names.iter().position(|n| n == name))
            .collect();
        let mut out = String::new();
        let _ = write!(out, "{:<16}", "");
        for &j in &indices {
            let _ = write!(out, " {:>14}", self.names[j]);
        }
        out.push('\n');
        for &i in &indices {
            let _ = write!(out, "{:<16}", self.names[i]);
            for &j in &indices {
                let _ = write!(out, " {:>13.1}%", 100.0 * self.distance(i, j));
            }
            out.push('\n');
        }
        let _ = write!(out, "{:<16}", "Suite");
        for &j in &indices {
            let _ = write!(out, " {:>13.1}%", 100.0 * self.to_suite[j]);
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileTable;
    use modeltree::{M5Config, ModelTree};
    use perfcounters::{Dataset, EventId, Sample};

    fn three_benchmark_matrix() -> SimilarityMatrix {
        let mut ds = Dataset::new();
        let a = ds.add_benchmark("a");
        let b = ds.add_benchmark("b");
        let c = ds.add_benchmark("c");
        // a: all low; b: all high; c: half and half.
        for i in 0..600 {
            let label = match i % 3 {
                0 => a,
                1 => b,
                _ => c,
            };
            let high = match label {
                x if x == a => false,
                x if x == b => true,
                _ => i % 6 < 3,
            };
            let (v, cpi) = if high { (0.9, 2.0) } else { (0.1, 0.5) };
            let mut s = Sample::zeros(cpi);
            s.set(EventId::Store, v);
            ds.push(s, label);
        }
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        SimilarityMatrix::from_table(&ProfileTable::build(&tree, &ds))
    }

    #[test]
    fn diagonal_is_zero_and_symmetric() {
        let m = three_benchmark_matrix();
        for i in 0..3 {
            assert_eq!(m.distance(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(m.distance(i, j), m.distance(j, i));
            }
        }
    }

    #[test]
    fn extremes_are_far_mixture_in_between() {
        let m = three_benchmark_matrix();
        let ab = m.distance_by_name("a", "b").unwrap();
        let ac = m.distance_by_name("a", "c").unwrap();
        let bc = m.distance_by_name("b", "c").unwrap();
        assert!(ab > 0.9, "ab {ab}");
        assert!(ac < ab && bc < ab);
        assert!((ac - 0.5).abs() < 0.15, "ac {ac}");
    }

    #[test]
    fn mixture_is_closest_to_suite() {
        let m = three_benchmark_matrix();
        let da = m.distance_to_suite("a").unwrap();
        let dc = m.distance_to_suite("c").unwrap();
        assert!(dc < da, "c should resemble the suite: {dc} vs {da}");
        assert!(m.distance_to_suite("nope").is_none());
    }

    #[test]
    fn pair_rankings() {
        let m = three_benchmark_matrix();
        let similar = m.most_similar_pairs(1);
        let dissimilar = m.most_dissimilar_pairs(1);
        assert_eq!(dissimilar[0].2, m.distance_by_name("a", "b").unwrap());
        assert!(similar[0].2 <= dissimilar[0].2);
        assert_eq!(m.most_similar_pairs(100).len(), 3); // all pairs
    }

    #[test]
    fn render_subset_layout() {
        let m = three_benchmark_matrix();
        let text = m.render_subset(&["a", "b", "unknown"]);
        assert!(text.contains("Suite"));
        assert!(text.contains('%'));
        assert!(!text.contains("unknown"));
        // Header + 2 benchmark rows + suite row.
        assert_eq!(text.lines().count(), 4);
    }
}
