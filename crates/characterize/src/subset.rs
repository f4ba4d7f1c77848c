//! Benchmark subsetting over leaf-profile vectors.
//!
//! The paper's related-work section surveys subsetting studies that pick
//! a representative subset of a benchmark suite to cut simulation cost
//! (PCA + clustering, P&B, ICA). The leaf profiles of Section IV-B give
//! a natural feature space for the same application: benchmarks whose
//! profiles are close excite the same behavior classes, so one per
//! cluster suffices. Two selectors are provided: k-means (cluster, then
//! take the benchmark nearest each centroid) and a greedy k-center
//! selector (repeatedly add the benchmark farthest from the current
//! subset).

use crate::profile::ProfileTable;
use mathkit::sampling::permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The outcome of a subsetting run.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetResult {
    /// Names of the selected representative benchmarks.
    pub selected: Vec<String>,
    /// For every benchmark, the index (into `selected`) of its
    /// representative.
    pub assignment: Vec<usize>,
    /// Maximum L1 distance from any benchmark to its representative —
    /// the coverage radius of the subset.
    pub max_distance: f64,
    /// Mean L1 distance from benchmarks to their representatives.
    pub mean_distance: f64,
}

fn l1(a: &[f64], b: &[f64]) -> f64 {
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

fn finalize(table: &ProfileTable, selected_idx: &[usize]) -> SubsetResult {
    let profiles = table.profiles();
    let mut assignment = Vec::with_capacity(profiles.len());
    let mut max_distance: f64 = 0.0;
    let mut total = 0.0;
    for p in profiles {
        let (best, d) = selected_idx
            .iter()
            .enumerate()
            .map(|(k, &s)| (k, l1(p.shares(), profiles[s].shares())))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one representative");
        assignment.push(best);
        max_distance = max_distance.max(d);
        total += d;
    }
    SubsetResult {
        selected: selected_idx
            .iter()
            .map(|&i| table.names()[i].clone())
            .collect(),
        assignment,
        max_distance,
        mean_distance: total / profiles.len().max(1) as f64,
    }
}

/// k-means clustering over profile vectors (L2 in the clustering step,
/// L1 for reporting), selecting the benchmark closest to each centroid.
///
/// # Panics
///
/// Panics if `k` is zero or larger than the number of benchmarks.
pub fn kmeans_subset(table: &ProfileTable, k: usize, seed: u64) -> SubsetResult {
    let n = table.names().len();
    assert!(k >= 1 && k <= n, "k = {k} out of range (n = {n})");
    let profiles = table.profiles();
    let dim = table.n_leaves();
    let mut rng = StdRng::seed_from_u64(seed);

    // Initialize with k distinct random benchmarks.
    let order = permutation(&mut rng, n);
    let mut centroids: Vec<Vec<f64>> = order[..k]
        .iter()
        .map(|&i| profiles[i].shares().to_vec())
        .collect();

    let mut assignment = vec![0usize; n];
    for _ in 0..100 {
        // Assign.
        let mut changed = false;
        for (i, p) in profiles.iter().enumerate() {
            let best = (0..k)
                .map(|c| {
                    let d: f64 = p
                        .shares()
                        .iter()
                        .zip(&centroids[c])
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    (c, d)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("k >= 1")
                .0;
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Update.
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue; // keep the old centroid
            }
            for (d, slot) in centroid.iter_mut().enumerate().take(dim) {
                *slot = members
                    .iter()
                    .map(|&i| profiles[i].shares()[d])
                    .sum::<f64>()
                    / members.len() as f64;
            }
        }
        if !changed {
            break;
        }
    }

    // Pick each cluster's medoid (nearest member to the centroid);
    // empty clusters fall back to the farthest-from-selected benchmark.
    let mut selected: Vec<usize> = Vec::with_capacity(k);
    for (c, centroid) in centroids.iter().enumerate().take(k) {
        let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
        let pick = members.iter().copied().min_by(|&a, &b| {
            let da: f64 = profiles[a]
                .shares()
                .iter()
                .zip(centroid)
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            let db: f64 = profiles[b]
                .shares()
                .iter()
                .zip(centroid)
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            da.total_cmp(&db)
        });
        if let Some(p) = pick {
            if !selected.contains(&p) {
                selected.push(p);
            }
        }
    }
    // Guarantee k representatives even after collisions/empty clusters.
    let mut cursor = 0;
    while selected.len() < k {
        if !selected.contains(&order[cursor]) {
            selected.push(order[cursor]);
        }
        cursor += 1;
    }
    finalize(table, &selected)
}

/// Greedy k-center subsetting: start from the benchmark closest to the
/// suite profile, then repeatedly add the benchmark farthest (L1) from
/// the current subset. Deterministic.
///
/// # Panics
///
/// Panics if `k` is zero or larger than the number of benchmarks.
pub fn greedy_subset(table: &ProfileTable, k: usize) -> SubsetResult {
    let n = table.names().len();
    assert!(k >= 1 && k <= n, "k = {k} out of range (n = {n})");
    let profiles = table.profiles();

    // Seed: most suite-representative benchmark.
    let seed_idx = (0..n)
        .min_by(|&a, &b| {
            let da = profiles[a].l1_distance(table.suite());
            let db = profiles[b].l1_distance(table.suite());
            da.total_cmp(&db)
        })
        .expect("non-empty table");
    let mut selected = vec![seed_idx];
    while selected.len() < k {
        let next = (0..n)
            .filter(|i| !selected.contains(i))
            .max_by(|&a, &b| {
                let da = selected
                    .iter()
                    .map(|&s| profiles[a].l1_distance(&profiles[s]))
                    .fold(f64::INFINITY, f64::min);
                let db = selected
                    .iter()
                    .map(|&s| profiles[b].l1_distance(&profiles[s]))
                    .fold(f64::INFINITY, f64::min);
                da.total_cmp(&db)
            })
            .expect("candidates remain");
        selected.push(next);
    }
    finalize(table, &selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use modeltree::{M5Config, ModelTree};
    use perfcounters::{Dataset, EventId, Sample};

    /// Six benchmarks in two sharply distinct behavior groups.
    fn grouped_table() -> ProfileTable {
        let mut ds = Dataset::new();
        let names = ["a1", "a2", "a3", "b1", "b2", "b3"];
        let labels: Vec<u32> = names.iter().map(|n| ds.add_benchmark(n)).collect();
        for (g, &label) in labels.iter().enumerate() {
            let high = g >= 3;
            for _ in 0..100 {
                let (v, cpi) = if high { (0.9, 2.0) } else { (0.1, 0.5) };
                let mut s = Sample::zeros(cpi);
                s.set(EventId::Store, v);
                ds.push(s, label);
            }
        }
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        ProfileTable::build(&tree, &ds)
    }

    #[test]
    fn greedy_covers_both_groups() {
        let table = grouped_table();
        let result = greedy_subset(&table, 2);
        assert_eq!(result.selected.len(), 2);
        let has_a = result.selected.iter().any(|n| n.starts_with('a'));
        let has_b = result.selected.iter().any(|n| n.starts_with('b'));
        assert!(has_a && has_b, "selected {:?}", result.selected);
        // Within-group distance is ~0, so coverage should be ~perfect.
        assert!(result.max_distance < 0.05, "{}", result.max_distance);
    }

    #[test]
    fn kmeans_covers_both_groups() {
        let table = grouped_table();
        let result = kmeans_subset(&table, 2, 42);
        let has_a = result.selected.iter().any(|n| n.starts_with('a'));
        let has_b = result.selected.iter().any(|n| n.starts_with('b'));
        assert!(has_a && has_b, "selected {:?}", result.selected);
        assert!(result.max_distance < 0.05);
    }

    #[test]
    fn k_equals_n_is_exact() {
        let table = grouped_table();
        let result = greedy_subset(&table, 6);
        assert_eq!(result.selected.len(), 6);
        assert_eq!(result.max_distance, 0.0);
        assert_eq!(result.mean_distance, 0.0);
    }

    #[test]
    fn k1_coverage_is_worst() {
        let table = grouped_table();
        let k1 = greedy_subset(&table, 1);
        let k2 = greedy_subset(&table, 2);
        assert!(k1.max_distance >= k2.max_distance);
        // With one representative, the other group is ~distance 1 away.
        assert!(k1.max_distance > 0.8);
    }

    #[test]
    fn assignment_indices_valid() {
        let table = grouped_table();
        for result in [greedy_subset(&table, 3), kmeans_subset(&table, 3, 7)] {
            assert_eq!(result.assignment.len(), 6);
            assert!(result.assignment.iter().all(|&a| a < result.selected.len()));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_k_panics() {
        let table = grouped_table();
        let _ = greedy_subset(&table, 0);
    }

    #[test]
    fn kmeans_deterministic_given_seed() {
        let table = grouped_table();
        let a = kmeans_subset(&table, 2, 9);
        let b = kmeans_subset(&table, 2, 9);
        assert_eq!(a, b);
    }
}
