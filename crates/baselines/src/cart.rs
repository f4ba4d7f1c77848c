//! CART-style regression tree with constant leaves.
//!
//! Structurally identical to an M5' tree (variance-reduction splits) but
//! with leaf *means* instead of leaf linear models — the classic ablation
//! showing what the linear leaves buy.

use crate::{BaselineError, Regressor, Result};
use perfcounters::events::EventId;
use perfcounters::{Dataset, Sample};

/// CART hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CartConfig {
    /// Minimum samples per leaf.
    pub min_leaf: usize,
    /// Maximum depth (root = 0).
    pub max_depth: usize,
}

impl Default for CartConfig {
    fn default() -> Self {
        CartConfig {
            min_leaf: 8,
            max_depth: 12,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum CartNode {
    Leaf {
        value: f64,
    },
    Split {
        event: EventId,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<CartNode>,
    config: CartConfig,
}

impl RegressionTree {
    /// Fits a piecewise-constant regression tree.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::InvalidConfig`] if `min_leaf == 0`.
    /// * [`BaselineError::InsufficientData`] for an empty dataset.
    pub fn fit(data: &Dataset, config: CartConfig) -> Result<Self> {
        if config.min_leaf == 0 {
            return Err(BaselineError::InvalidConfig(
                "min_leaf must be at least 1".into(),
            ));
        }
        if data.is_empty() {
            return Err(BaselineError::InsufficientData("empty training set".into()));
        }
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            config,
        };
        let indices: Vec<usize> = (0..data.len()).collect();
        tree.grow(data, indices, 0);
        Ok(tree)
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, CartNode::Leaf { .. }))
            .count()
    }

    /// Total number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn grow(&mut self, data: &Dataset, indices: Vec<usize>, depth: usize) -> usize {
        let cpi = data.cpi_column();
        let mean = indices.iter().map(|&i| cpi[i]).sum::<f64>() / indices.len() as f64;
        let stop = depth >= self.config.max_depth || indices.len() < 2 * self.config.min_leaf;
        let split = if stop {
            None
        } else {
            best_variance_split(data, &indices, self.config.min_leaf)
        };
        match split {
            None => {
                self.nodes.push(CartNode::Leaf { value: mean });
                self.nodes.len() - 1
            }
            Some((event, threshold)) => {
                let column = data.event_column(event);
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| column[i] <= threshold);
                let slot = self.nodes.len();
                self.nodes.push(CartNode::Leaf { value: mean }); // placeholder
                let left = self.grow(data, left_idx, depth + 1);
                let right = self.grow(data, right_idx, depth + 1);
                self.nodes[slot] = CartNode::Split {
                    event,
                    threshold,
                    left,
                    right,
                };
                slot
            }
        }
    }
}

/// Finds the variance-minimizing `(event, threshold)` split, or `None`
/// when nothing admissible improves.
fn best_variance_split(
    data: &Dataset,
    indices: &[usize],
    min_leaf: usize,
) -> Option<(EventId, f64)> {
    let n = indices.len();
    let cpi = data.cpi_column();
    let total_sum: f64 = indices.iter().map(|&i| cpi[i]).sum();
    let total_sum_sq: f64 = indices
        .iter()
        .map(|&i| {
            let y = cpi[i];
            y * y
        })
        .sum();
    let base_sse = total_sum_sq - total_sum * total_sum / n as f64;
    if base_sse <= 1e-12 {
        return None;
    }

    let mut best: Option<(EventId, f64, f64)> = None;
    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
    for event in EventId::ALL {
        pairs.clear();
        let column = data.event_column(event);
        pairs.extend(indices.iter().map(|&i| (column[i], cpi[i])));
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        if pairs[0].0 == pairs[n - 1].0 {
            continue;
        }
        let mut left_sum = 0.0;
        let mut left_sum_sq = 0.0;
        for i in 0..n - 1 {
            let (value, y) = pairs[i];
            left_sum += y;
            left_sum_sq += y * y;
            if value == pairs[i + 1].0 {
                continue;
            }
            let n_left = (i + 1) as f64;
            let n_right = (n - i - 1) as f64;
            if (i + 1) < min_leaf || (n - i - 1) < min_leaf {
                continue;
            }
            let sse_left = left_sum_sq - left_sum * left_sum / n_left;
            let right_sum = total_sum - left_sum;
            let sse_right = (total_sum_sq - left_sum_sq) - right_sum * right_sum / n_right;
            let sse = sse_left + sse_right;
            if best.as_ref().is_none_or(|&(_, _, b)| sse < b) && sse < base_sse - 1e-12 {
                best = Some((event, 0.5 * (value + pairs[i + 1].0), sse));
            }
        }
    }
    best.map(|(e, t, _)| (e, t))
}

impl Regressor for RegressionTree {
    fn predict(&self, sample: &Sample) -> f64 {
        let mut at = 0;
        loop {
            match self.nodes[at] {
                CartNode::Leaf { value } => return value,
                CartNode::Split {
                    event,
                    threshold,
                    left,
                    right,
                } => {
                    at = if sample.get(event) <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn step_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("step");
        for _ in 0..n {
            let dtlb = rng.gen::<f64>() * 4e-4;
            let cpi = if dtlb <= 2e-4 { 0.5 } else { 2.0 };
            let mut s = Sample::zeros(cpi);
            s.set(EventId::DtlbMiss, dtlb);
            ds.push(s, b);
        }
        ds
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            RegressionTree::fit(&Dataset::new(), CartConfig::default()),
            Err(BaselineError::InsufficientData(_))
        ));
        let ds = step_dataset(10, 0);
        assert!(matches!(
            RegressionTree::fit(
                &ds,
                CartConfig {
                    min_leaf: 0,
                    max_depth: 3
                }
            ),
            Err(BaselineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn fits_step_function_exactly() {
        let ds = step_dataset(500, 1);
        let tree = RegressionTree::fit(&ds, CartConfig::default()).unwrap();
        let mae = tree.mean_abs_error(&ds);
        assert!(mae < 0.01, "mae {mae}");
    }

    #[test]
    fn respects_max_depth() {
        let ds = step_dataset(500, 2);
        let tree = RegressionTree::fit(
            &ds,
            CartConfig {
                min_leaf: 2,
                max_depth: 1,
            },
        )
        .unwrap();
        assert!(tree.n_leaves() <= 2);
    }

    #[test]
    fn constant_target_is_single_leaf() {
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("flat");
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let mut s = Sample::zeros(1.0);
            s.set(EventId::Load, rng.gen());
            ds.push(s, b);
        }
        let tree = RegressionTree::fit(&ds, CartConfig::default()).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&Sample::zeros(0.0)), 1.0);
    }

    #[test]
    fn piecewise_linear_needs_more_leaves_than_model_tree_would() {
        // A sloped target forces CART to stair-step: leaf count should
        // clearly exceed the 2 regimes.
        let mut rng = StdRng::seed_from_u64(4);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("slope");
        for _ in 0..2000 {
            let load: f64 = rng.gen();
            let mut s = Sample::zeros(0.5 + 2.0 * load);
            s.set(EventId::Load, load);
            ds.push(s, b);
        }
        let tree = RegressionTree::fit(&ds, CartConfig::default()).unwrap();
        assert!(tree.n_leaves() > 4, "leaves {}", tree.n_leaves());
        assert!(tree.mean_abs_error(&ds) < 0.1);
    }
}
