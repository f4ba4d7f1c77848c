//! Leaf-profile distributions (the paper's Tables II and IV).

use modeltree::ModelTree;
use perfcounters::Dataset;
use std::fmt::Write as _;

/// The distribution of a sample set over a tree's linear models.
///
/// `shares[k]` is the fraction of samples classified into `LM(k+1)`;
/// shares sum to 1 for a non-empty sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafProfile {
    shares: Vec<f64>,
}

impl LeafProfile {
    /// Classifies every sample of `data` through `tree` (compiled once
    /// into the flat batch engine).
    pub fn of(tree: &ModelTree, data: &Dataset) -> LeafProfile {
        let mut counts = vec![0usize; tree.n_leaves()];
        for lm in tree.compile().classify_batch(data) {
            counts[lm as usize - 1] += 1;
        }
        let n = data.len().max(1) as f64;
        LeafProfile {
            shares: counts.iter().map(|&c| c as f64 / n).collect(),
        }
    }

    /// Builds a profile directly from shares (normalizing them).
    ///
    /// # Panics
    ///
    /// Panics if `shares` is empty or sums to zero with any non-zero
    /// entry requested.
    pub fn from_shares(shares: Vec<f64>) -> LeafProfile {
        assert!(!shares.is_empty(), "profile must have at least one leaf");
        let total: f64 = shares.iter().sum();
        if total > 0.0 {
            LeafProfile {
                shares: shares.iter().map(|s| s / total).collect(),
            }
        } else {
            LeafProfile { shares }
        }
    }

    /// Share of samples in linear model `lm_index` (1-based).
    ///
    /// Returns 0 for out-of-range indices.
    pub fn share(&self, lm_index: usize) -> f64 {
        if lm_index == 0 {
            return 0.0;
        }
        self.shares.get(lm_index - 1).copied().unwrap_or(0.0)
    }

    /// All shares, indexed by `lm_index - 1`.
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// The 1-based index of the dominant linear model.
    pub fn dominant_lm(&self) -> usize {
        self.shares
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i + 1)
            .unwrap_or(1)
    }

    /// The L1 (Manhattan) distance of the paper's Equation 4:
    /// `D = (1/2) Σ_i |s_i - t_i|`, in `[0, 1]`.
    pub fn l1_distance(&self, other: &LeafProfile) -> f64 {
        let len = self.shares.len().max(other.shares.len());
        let mut total = 0.0;
        for i in 0..len {
            let a = self.shares.get(i).copied().unwrap_or(0.0);
            let b = other.shares.get(i).copied().unwrap_or(0.0);
            total += (a - b).abs();
        }
        0.5 * total
    }
}

/// Per-benchmark leaf profiles plus the two aggregate rows of Tables II
/// and IV: the sample-weighted "Suite" row and the equally-weighted
/// "Average" row.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileTable {
    names: Vec<String>,
    profiles: Vec<LeafProfile>,
    suite: LeafProfile,
    average: LeafProfile,
    n_leaves: usize,
}

impl ProfileTable {
    /// Classifies a labeled dataset through a tree, producing one profile
    /// per benchmark. Benchmarks without samples get an all-zero profile.
    pub fn build(tree: &ModelTree, data: &Dataset) -> ProfileTable {
        let n_leaves = tree.n_leaves();
        let n_benchmarks = data.benchmark_count();
        let mut counts = vec![vec![0usize; n_leaves]; n_benchmarks];
        let mut totals = vec![0usize; n_benchmarks];
        let mut suite_counts = vec![0usize; n_leaves];
        let classes = tree.compile().classify_batch(data);
        for (&label, lm) in data.columns().labels().iter().zip(classes) {
            let lm = lm as usize - 1;
            counts[label as usize][lm] += 1;
            totals[label as usize] += 1;
            suite_counts[lm] += 1;
        }
        let profiles: Vec<LeafProfile> = counts
            .iter()
            .zip(&totals)
            .map(|(c, &t)| LeafProfile {
                shares: c
                    .iter()
                    .map(|&x| if t > 0 { x as f64 / t as f64 } else { 0.0 })
                    .collect(),
            })
            .collect();
        let n = data.len().max(1) as f64;
        let suite = LeafProfile {
            shares: suite_counts.iter().map(|&c| c as f64 / n).collect(),
        };
        let populated: Vec<&LeafProfile> = profiles
            .iter()
            .zip(&totals)
            .filter(|(_, &t)| t > 0)
            .map(|(p, _)| p)
            .collect();
        let average = LeafProfile {
            shares: (0..n_leaves)
                .map(|i| {
                    if populated.is_empty() {
                        0.0
                    } else {
                        populated.iter().map(|p| p.shares[i]).sum::<f64>() / populated.len() as f64
                    }
                })
                .collect(),
        };
        ProfileTable {
            names: data.benchmark_names().to_vec(),
            profiles,
            suite,
            average,
            n_leaves,
        }
    }

    /// Benchmark names, in label order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of linear models (columns).
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// The profile of one benchmark, by name.
    pub fn profile(&self, name: &str) -> Option<&LeafProfile> {
        let idx = self.names.iter().position(|n| n == name)?;
        Some(&self.profiles[idx])
    }

    /// All per-benchmark profiles, in label order.
    pub fn profiles(&self) -> &[LeafProfile] {
        &self.profiles
    }

    /// The sample-weighted suite profile (the "Suite" row): weights are
    /// proportional to each benchmark's sample (instruction) count.
    pub fn suite(&self) -> &LeafProfile {
        &self.suite
    }

    /// The equally-weighted benchmark average (the "Average" row).
    pub fn average(&self) -> &LeafProfile {
        &self.average
    }

    /// Renders the table in the paper's Table II/IV layout: one row per
    /// benchmark plus Suite and Average rows, entries in percent, and
    /// entries of 20% or more flagged with `*` (the paper sets them in
    /// bold).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:<16}", "benchmark");
        for lm in 1..=self.n_leaves {
            let _ = write!(out, " {:>6}", format!("LM{lm}"));
        }
        out.push('\n');
        let mut row = |name: &str, p: &LeafProfile| {
            let _ = write!(out, "{name:<16}");
            for lm in 1..=self.n_leaves {
                let pct = 100.0 * p.share(lm);
                if pct >= 20.0 {
                    let _ = write!(out, " {:>5.1}*", pct);
                } else {
                    let _ = write!(out, " {:>6.1}", pct);
                }
            }
            out.push('\n');
        };
        for (name, p) in self.names.iter().zip(&self.profiles) {
            row(name, p);
        }
        row("Suite", &self.suite);
        row("Average", &self.average);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modeltree::M5Config;
    use perfcounters::{EventId, Sample};

    /// Two benchmarks, two clearly separated regimes.
    fn two_benchmark_setup() -> (ModelTree, Dataset) {
        let mut ds = Dataset::new();
        let a = ds.add_benchmark("alpha");
        let b = ds.add_benchmark("beta");
        for i in 0..400 {
            // alpha: 90% low regime; beta: 90% high regime.
            let is_alpha = i % 2 == 0;
            let label = if is_alpha { a } else { b };
            let high = if is_alpha { i % 20 == 0 } else { i % 20 != 1 };
            let (v, cpi) = if high { (0.9, 2.0) } else { (0.1, 0.5) };
            let mut s = Sample::zeros(cpi);
            s.set(EventId::Store, v);
            ds.push(s, label);
        }
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        (tree, ds)
    }

    #[test]
    fn profile_shares_sum_to_one() {
        let (tree, ds) = two_benchmark_setup();
        let p = LeafProfile::of(&tree, &ds);
        assert!((p.shares().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distance_properties() {
        let (tree, ds) = two_benchmark_setup();
        let table = ProfileTable::build(&tree, &ds);
        let pa = table.profile("alpha").unwrap();
        let pb = table.profile("beta").unwrap();
        // Identity and symmetry.
        assert_eq!(pa.l1_distance(pa), 0.0);
        assert!((pa.l1_distance(pb) - pb.l1_distance(pa)).abs() < 1e-12);
        // Bounded in [0, 1].
        let d = pa.l1_distance(pb);
        assert!((0.0..=1.0).contains(&d));
        // The regimes are 90/10 vs 10/90 -> distance ~0.8.
        assert!(d > 0.6, "distance {d}");
    }

    #[test]
    fn from_shares_normalizes() {
        let p = LeafProfile::from_shares(vec![2.0, 2.0]);
        assert_eq!(p.share(1), 0.5);
        assert_eq!(p.share(2), 0.5);
        assert_eq!(p.share(3), 0.0);
        assert_eq!(p.share(0), 0.0);
    }

    #[test]
    fn dominant_lm() {
        let p = LeafProfile::from_shares(vec![0.2, 0.5, 0.3]);
        assert_eq!(p.dominant_lm(), 2);
    }

    #[test]
    fn suite_row_is_weighted_average_row_is_not() {
        // alpha has 300 samples, beta has 100: Suite row leans alpha,
        // Average row does not.
        let mut ds = Dataset::new();
        let a = ds.add_benchmark("alpha");
        let b = ds.add_benchmark("beta");
        for i in 0..300 {
            let mut s = Sample::zeros(0.5);
            s.set(EventId::Store, 0.1);
            let _ = i;
            ds.push(s, a);
        }
        for _ in 0..100 {
            let mut s = Sample::zeros(2.0);
            s.set(EventId::Store, 0.9);
            ds.push(s, b);
        }
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let table = ProfileTable::build(&tree, &ds);
        assert!(tree.n_leaves() >= 2);
        let alpha_lm = table.profile("alpha").unwrap().dominant_lm();
        // Suite: 75% weight on alpha's leaf; Average: 50%.
        assert!((table.suite().share(alpha_lm) - 0.75).abs() < 0.01);
        assert!((table.average().share(alpha_lm) - 0.50).abs() < 0.01);
    }

    #[test]
    fn empty_benchmark_gets_zero_profile() {
        let mut ds = Dataset::new();
        let a = ds.add_benchmark("used");
        let _empty = ds.add_benchmark("empty");
        for _ in 0..50 {
            ds.push(Sample::zeros(1.0), a);
        }
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let table = ProfileTable::build(&tree, &ds);
        let p = table.profile("empty").unwrap();
        assert!(p.shares().iter().all(|&s| s == 0.0));
        // The Average row must not be dragged down by the empty profile.
        assert!((table.average().share(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_contains_all_rows() {
        let (tree, ds) = two_benchmark_setup();
        let table = ProfileTable::build(&tree, &ds);
        let text = table.render();
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.contains("Suite"));
        assert!(text.contains("Average"));
        assert!(text.contains("LM1"));
        // Dominant entries are starred (>= 20%).
        assert!(text.contains('*'));
    }

    #[test]
    fn mismatched_profile_lengths_compare() {
        let a = LeafProfile::from_shares(vec![1.0]);
        let b = LeafProfile::from_shares(vec![0.0, 1.0]);
        assert!((a.l1_distance(&b) - 1.0).abs() < 1e-12);
    }
}
