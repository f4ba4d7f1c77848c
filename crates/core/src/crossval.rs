//! k-fold cross-validation for model selection.
//!
//! The paper tunes M5' parameters "to achieve a balance between tractable
//! model size and good prediction accuracy"; cross-validation is the
//! standard way to measure the accuracy side of that trade without
//! touching a held-out set. Used by the ablation experiments.

use crate::config::M5Config;
use crate::tree::ModelTree;
use crate::{Result, TreeError};
use mathkit::describe::{correlation, std_dev};
use mathkit::sampling::permutation;
use perfcounters::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Aggregate results of a k-fold cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidation {
    /// Per-fold mean absolute error.
    pub fold_mae: Vec<f64>,
    /// Per-fold root mean squared error.
    pub fold_rmse: Vec<f64>,
    /// Per-fold correlation between predictions and actuals. Degenerate
    /// folds (listed in [`CrossValidation::degenerate_folds`]) store 0.
    pub fold_correlation: Vec<f64>,
    /// Per-fold leaf counts of the fitted trees.
    pub fold_leaves: Vec<usize>,
    /// Folds whose correlation is undefined — a constant prediction or
    /// actual vector, or a test fold too small to correlate. Recorded
    /// explicitly (and excluded from [`CrossValidation::mean_correlation`])
    /// instead of silently reporting a fake "0.0 correlation".
    pub degenerate_folds: Vec<usize>,
}

impl CrossValidation {
    /// Mean of the per-fold MAEs.
    pub fn mean_mae(&self) -> f64 {
        mean(&self.fold_mae)
    }

    /// Mean of the per-fold RMSEs.
    pub fn mean_rmse(&self) -> f64 {
        mean(&self.fold_rmse)
    }

    /// Mean of the per-fold correlations, excluding degenerate folds
    /// (0 if every fold was degenerate).
    pub fn mean_correlation(&self) -> f64 {
        let valid: Vec<f64> = self
            .fold_correlation
            .iter()
            .enumerate()
            .filter(|(fold, _)| !self.degenerate_folds.contains(fold))
            .map(|(_, &c)| c)
            .collect();
        mean(&valid)
    }

    /// Mean leaf count across folds.
    pub fn mean_leaves(&self) -> f64 {
        self.fold_leaves.iter().map(|&l| l as f64).sum::<f64>()
            / self.fold_leaves.len().max(1) as f64
    }
}

/// Metrics of one completed fold.
struct FoldOutcome {
    mae: f64,
    rmse: f64,
    correlation: f64,
    degenerate: bool,
    leaves: usize,
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs k-fold cross-validation of an [`M5Config`] on a dataset.
///
/// The dataset is shuffled once with the given seed and partitioned into
/// `k` near-equal folds; each fold in turn serves as the test set for a
/// tree trained on the others. Folds are **index views** over the
/// dataset's columns — no samples are copied: training
/// uses [`ModelTree::fit_indices`] and evaluation runs the compiled
/// engine's indexed batch prediction.
///
/// With [`M5Config::n_threads`] above 1 the fold loop itself runs on
/// scoped worker threads, dividing the thread budget between concurrent
/// folds and each fold's fit. Every fold's computation is
/// thread-count-invariant, and results are always assembled in fold
/// order, so the outcome is identical for any budget.
///
/// # Errors
///
/// * [`TreeError::InvalidConfig`] if `k < 2` or `k > data.len()`, or if
///   the model configuration is invalid.
/// * Propagates fit errors from [`ModelTree::fit_indices`] (first
///   failing fold in fold order).
pub fn k_fold(data: &Dataset, config: &M5Config, k: usize, seed: u64) -> Result<CrossValidation> {
    if k < 2 || k > data.len() {
        return Err(TreeError::InvalidConfig(format!(
            "k = {k} out of range for {} samples",
            data.len()
        )));
    }
    config.validate()?;

    let mut rng = StdRng::seed_from_u64(seed);
    let order = permutation(&mut rng, data.len());

    // Index views in shuffle order: fold f tests on every k-th rank and
    // trains on the rest, exactly the historical sample-copy layout.
    let mut train_sets: Vec<Vec<u32>> = vec![Vec::with_capacity(data.len()); k];
    let mut test_sets: Vec<Vec<u32>> = vec![Vec::with_capacity(data.len() / k + 1); k];
    for (rank, &idx) in order.iter().enumerate() {
        let test_fold = rank % k;
        test_sets[test_fold].push(idx as u32);
        for (fold, train) in train_sets.iter_mut().enumerate() {
            if fold != test_fold {
                train.push(idx as u32);
            }
        }
    }

    // Split the thread budget between concurrent folds and each fold's
    // fit; leftover threads go to the fits.
    let budget = config.n_threads.max(1);
    let workers = budget.min(k);
    let fold_config = M5Config {
        n_threads: (budget / workers).max(1),
        ..*config
    };
    let run_fold = |fold: usize| -> Result<FoldOutcome> {
        let tree = ModelTree::fit_indices(data, &train_sets[fold], &fold_config)?;
        let engine = tree.compile();
        let predictions = engine.predict_indices(data, &test_sets[fold]);
        let cpi = data.cpi_column();
        let actuals: Vec<f64> = test_sets[fold].iter().map(|&i| cpi[i as usize]).collect();
        let n = actuals.len() as f64;
        let mae = predictions
            .iter()
            .zip(&actuals)
            .map(|(p, a)| (p - a).abs())
            .sum::<f64>()
            / n;
        let rmse = (predictions
            .iter()
            .zip(&actuals)
            .map(|(p, a)| (p - a) * (p - a))
            .sum::<f64>()
            / n)
            .sqrt();
        // A fold is degenerate when Pearson's C is undefined on it:
        // either vector constant, or too few samples to correlate.
        let (correlation, degenerate) = match correlation(&predictions, &actuals) {
            Ok(c) => {
                let undefined = |xs: &[f64]| std_dev(xs).is_ok_and(|s| s <= 0.0);
                let degenerate = undefined(&predictions) || undefined(&actuals);
                (if degenerate { 0.0 } else { c }, degenerate)
            }
            Err(_) => (0.0, true),
        };
        Ok(FoldOutcome {
            mae,
            rmse,
            correlation,
            degenerate,
            leaves: tree.n_leaves(),
        })
    };

    let mut outcomes: Vec<Option<Result<FoldOutcome>>> = (0..k).map(|_| None).collect();
    if workers <= 1 {
        for (fold, slot) in outcomes.iter_mut().enumerate() {
            *slot = Some(run_fold(fold));
        }
    } else {
        // Deal folds round-robin to scoped workers; each fold is
        // self-contained and lands in its own slot, so placement never
        // affects the result.
        std::thread::scope(|scope| {
            let run_fold = &run_fold;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        (w..k)
                            .step_by(workers)
                            .map(|fold| (fold, run_fold(fold)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                let folds = handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                for (fold, outcome) in folds {
                    outcomes[fold] = Some(outcome);
                }
            }
        });
    }

    let mut result = CrossValidation {
        fold_mae: Vec::with_capacity(k),
        fold_rmse: Vec::with_capacity(k),
        fold_correlation: Vec::with_capacity(k),
        fold_leaves: Vec::with_capacity(k),
        degenerate_folds: Vec::new(),
    };
    // Assemble (and propagate the first error) in fold order, keeping
    // the outcome independent of worker scheduling.
    for (fold, outcome) in outcomes.into_iter().enumerate() {
        // Invariant: the serial loop or one worker ran every fold.
        #[allow(clippy::expect_used)]
        let outcome = outcome.expect("every fold ran")?;
        result.fold_mae.push(outcome.mae);
        result.fold_rmse.push(outcome.rmse);
        result.fold_correlation.push(outcome.correlation);
        result.fold_leaves.push(outcome.leaves);
        if outcome.degenerate {
            result.degenerate_folds.push(fold);
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcounters::{EventId, Sample};
    use rand::Rng;

    fn regime_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("synth");
        for _ in 0..n {
            let dtlb = rng.gen::<f64>() * 4e-4;
            let load = rng.gen::<f64>() * 0.4;
            let cpi = if dtlb <= 2e-4 {
                0.6 + 2.0 * load
            } else {
                1.4 + 500.0 * dtlb
            };
            let mut s = Sample::zeros(cpi + 0.01 * rng.gen::<f64>());
            s.set(EventId::DtlbMiss, dtlb);
            s.set(EventId::Load, load);
            ds.push(s, b);
        }
        ds
    }

    #[test]
    fn five_fold_on_learnable_data() {
        let ds = regime_dataset(1000, 1);
        let cv = k_fold(&ds, &M5Config::default(), 5, 42).unwrap();
        assert_eq!(cv.fold_mae.len(), 5);
        assert!(cv.mean_mae() < 0.05, "mae {}", cv.mean_mae());
        assert!(cv.mean_correlation() > 0.95);
        assert!(cv.mean_rmse() >= cv.mean_mae());
        assert!(cv.mean_leaves() >= 1.0);
    }

    #[test]
    fn folds_partition_data() {
        // With k = 4 and 103 samples, folds are 26/26/26/25.
        let ds = regime_dataset(103, 2);
        let cv = k_fold(&ds, &M5Config::default(), 4, 7).unwrap();
        assert_eq!(cv.fold_mae.len(), 4);
    }

    #[test]
    fn invalid_k_rejected() {
        let ds = regime_dataset(50, 3);
        assert!(matches!(
            k_fold(&ds, &M5Config::default(), 1, 0),
            Err(TreeError::InvalidConfig(_))
        ));
        assert!(matches!(
            k_fold(&ds, &M5Config::default(), 51, 0),
            Err(TreeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = regime_dataset(400, 4);
        let a = k_fold(&ds, &M5Config::default(), 3, 9).unwrap();
        let b = k_fold(&ds, &M5Config::default(), 3, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_budget_does_not_change_results() {
        let ds = regime_dataset(600, 6);
        let serial = k_fold(&ds, &M5Config::default(), 5, 3).unwrap();
        for threads in [2, 4, 8] {
            let parallel = k_fold(&ds, &M5Config::default().with_n_threads(threads), 5, 3).unwrap();
            assert_eq!(serial, parallel, "n_threads = {threads}");
        }
    }

    #[test]
    fn degenerate_folds_recorded_not_faked() {
        // A constant target yields constant predictions in every fold:
        // Pearson's C is undefined there, and the folds must say so
        // rather than reporting a fake 0.0 into the mean.
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("flat");
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..90 {
            let mut s = Sample::zeros(1.25);
            s.set(EventId::Load, rng.gen());
            ds.push(s, b);
        }
        let cv = k_fold(&ds, &M5Config::default(), 3, 1).unwrap();
        assert_eq!(cv.degenerate_folds, vec![0, 1, 2]);
        assert!(cv.fold_correlation.iter().all(|&c| c == 0.0));
        assert_eq!(cv.mean_correlation(), 0.0);
        // MAE/RMSE are still well-defined and near zero.
        assert!(cv.mean_mae() < 1e-9);
    }

    #[test]
    fn leave_one_out_single_sample_folds_are_degenerate() {
        // k = n: every test fold holds one sample, too few to correlate.
        // Each fold must be recorded as degenerate, while MAE/RMSE stay
        // well-defined.
        let ds = regime_dataset(12, 9);
        let cv = k_fold(&ds, &M5Config::default(), 12, 5).unwrap();
        assert_eq!(cv.degenerate_folds, (0..12).collect::<Vec<_>>());
        assert!(cv.fold_correlation.iter().all(|&c| c == 0.0));
        assert_eq!(cv.mean_correlation(), 0.0);
        assert!(cv.fold_mae.iter().all(|m| m.is_finite()));
        assert!(cv.fold_rmse.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn train_folds_below_min_split_yield_degenerate_constant_leaves() {
        // With 10 samples and k = 2, each training fold has 5 samples —
        // below the default min_split of 8 (and only just above
        // min_leaf). The tree cannot split, the single leaf predicts a
        // constant, and the fold's correlation is undefined: it must be
        // recorded as degenerate, not reported as 0.0-correlation truth.
        let ds = regime_dataset(10, 10);
        let config = M5Config::default();
        assert!(10 / 2 < config.min_split);
        let cv = k_fold(&ds, &config, 2, 3).unwrap();
        assert_eq!(cv.fold_leaves, vec![1, 1]);
        assert_eq!(cv.degenerate_folds, vec![0, 1]);
        assert!(cv.mean_mae().is_finite());
    }

    #[test]
    fn learnable_data_has_no_degenerate_folds() {
        let ds = regime_dataset(500, 8);
        let cv = k_fold(&ds, &M5Config::default(), 5, 2).unwrap();
        assert!(cv.degenerate_folds.is_empty());
    }

    #[test]
    fn pruned_config_generalizes_no_worse_than_unpruned_overfit() {
        // On noisy data, disabling pruning with tiny leaves should not
        // beat the default by any meaningful margin (and usually loses).
        let mut rng = StdRng::seed_from_u64(5);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("noisy");
        for _ in 0..600 {
            let x = rng.gen::<f64>();
            let mut s = Sample::zeros(1.0 + 0.2 * x + 0.3 * rng.gen::<f64>());
            s.set(EventId::Load, x);
            ds.push(s, b);
        }
        let pruned = k_fold(&ds, &M5Config::default(), 5, 11).unwrap();
        let overfit = k_fold(
            &ds,
            &M5Config::default().with_prune(false).with_sd_fraction(0.0),
            5,
            11,
        )
        .unwrap();
        assert!(pruned.mean_mae() <= overfit.mean_mae() + 0.01);
        assert!(pruned.mean_leaves() <= overfit.mean_leaves());
    }
}
