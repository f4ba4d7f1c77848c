//! Behavior-class timelines over time-ordered interval streams.
//!
//! Classifying each interval of an execution trace through a model tree
//! yields a sequence of behavior classes (linear-model indices). This
//! module analyzes such sequences: run-length structure, class
//! transition statistics, and agreement with ground-truth phase labels —
//! the temporal complement to the aggregate profiles of
//! [`crate::profile`].

use modeltree::ModelTree;
use perfcounters::Sample;
use serde::{Deserialize, Serialize};

/// A time-ordered sequence of behavior classes (1-based LM indices).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassTimeline {
    classes: Vec<usize>,
    n_classes: usize,
}

impl ClassTimeline {
    /// Classifies a time-ordered slice of samples through a tree
    /// (compiled once into the flat batch engine).
    pub fn classify(tree: &ModelTree, samples: &[Sample]) -> ClassTimeline {
        let engine = tree.compile();
        ClassTimeline {
            classes: samples.iter().map(|s| engine.classify(s)).collect(),
            n_classes: tree.n_leaves(),
        }
    }

    /// Builds a timeline from a raw class sequence.
    ///
    /// # Panics
    ///
    /// Panics if any class index is 0 (classes are 1-based).
    pub fn from_classes(classes: Vec<usize>) -> ClassTimeline {
        assert!(
            classes.iter().all(|&c| c >= 1),
            "classes are 1-based LM indices"
        );
        let n_classes = classes.iter().copied().max().unwrap_or(0);
        ClassTimeline { classes, n_classes }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The class sequence.
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }

    /// Run-length encoding: `(class, length)` in time order.
    pub fn runs(&self) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for &c in &self.classes {
            match runs.last_mut() {
                Some((class, len)) if *class == c => *len += 1,
                _ => runs.push((c, 1)),
            }
        }
        runs
    }

    /// Mean run length (0 for an empty timeline).
    pub fn mean_run_length(&self) -> f64 {
        let runs = self.runs();
        if runs.is_empty() {
            0.0
        } else {
            self.len() as f64 / runs.len() as f64
        }
    }

    /// Class transition counts: `matrix[a-1][b-1]` counts transitions
    /// from class `a` to class `b` between *different* consecutive
    /// classes (self-transitions excluded).
    pub fn transition_matrix(&self) -> Vec<Vec<usize>> {
        let n = self.n_classes;
        let mut m = vec![vec![0usize; n]; n];
        for w in self.classes.windows(2) {
            if w[0] != w[1] {
                m[w[0] - 1][w[1] - 1] += 1;
            }
        }
        m
    }

    /// Purity of the timeline against ground-truth labels: for each
    /// distinct label, take its most common class; the returned fraction
    /// is the share of intervals whose class matches their label's
    /// dominant class. 1.0 means classes recover the labels perfectly.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != self.len()`.
    pub fn purity_against(&self, labels: &[usize]) -> f64 {
        assert_eq!(labels.len(), self.len(), "label/timeline length mismatch");
        if self.is_empty() {
            return 1.0;
        }
        let n_labels = labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut counts = vec![std::collections::HashMap::<usize, usize>::new(); n_labels];
        for (&label, &class) in labels.iter().zip(&self.classes) {
            *counts[label].entry(class).or_insert(0) += 1;
        }
        let matched: usize = counts
            .iter()
            .map(|by_class| by_class.values().copied().max().unwrap_or(0))
            .sum();
        matched as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modeltree::M5Config;
    use perfcounters::{Dataset, EventId};

    #[test]
    fn runs_and_mean_length() {
        let t = ClassTimeline::from_classes(vec![1, 1, 2, 2, 2, 1]);
        assert_eq!(t.runs(), vec![(1, 2), (2, 3), (1, 1)]);
        assert!((t.mean_run_length() - 2.0).abs() < 1e-12);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn empty_timeline() {
        let t = ClassTimeline::from_classes(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.mean_run_length(), 0.0);
        assert!(t.runs().is_empty());
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_class_rejected() {
        let _ = ClassTimeline::from_classes(vec![0, 1]);
    }

    #[test]
    fn transition_matrix_excludes_self_loops() {
        let t = ClassTimeline::from_classes(vec![1, 1, 2, 1, 2, 2]);
        let m = t.transition_matrix();
        assert_eq!(m[0][1], 2); // 1 -> 2 twice
        assert_eq!(m[1][0], 1); // 2 -> 1 once
        assert_eq!(m[0][0], 0);
        assert_eq!(m[1][1], 0);
    }

    #[test]
    fn purity_perfect_and_mixed() {
        let t = ClassTimeline::from_classes(vec![1, 1, 2, 2]);
        assert_eq!(t.purity_against(&[0, 0, 1, 1]), 1.0);
        // Label 0 maps to class 1 (dominant 2 of 3), label 1 to class 2.
        let t = ClassTimeline::from_classes(vec![1, 1, 2, 2]);
        assert!((t.purity_against(&[0, 0, 0, 1]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn classify_through_tree() {
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("toy");
        for i in 0..200 {
            let (v, cpi) = if i % 2 == 0 { (0.1, 0.5) } else { (0.9, 2.0) };
            let mut s = Sample::zeros(cpi);
            s.set(EventId::Store, v);
            ds.push(s, b);
        }
        let tree = ModelTree::fit(&ds, &M5Config::default()).unwrap();
        let samples: Vec<Sample> = (0..20).map(|i| ds.sample(i)).collect();
        let t = ClassTimeline::classify(&tree, &samples);
        assert_eq!(t.len(), 20);
        // Alternating samples -> alternating classes -> run length 1.
        assert!((t.mean_run_length() - 1.0).abs() < 1e-12);
        let truth: Vec<usize> = (0..20).map(|i| i % 2).collect();
        assert_eq!(t.purity_against(&truth), 1.0);
    }
}
