//! Linear models at tree nodes, with M5-style greedy attribute
//! elimination.
//!
//! Models are fit by least squares over a precomputed Gram system so the
//! elimination search (which refits many attribute subsets) never
//! re-touches the sample data. Subset selection minimizes the M5 adjusted
//! error `rmse * (n + v) / (n - v)`, which penalizes parameter count `v`
//! on small nodes.

use crate::config::M5Config;
use crate::split::Columns;
use mathkit::matrix::Matrix;
use mathkit::solve::solve_ridge;
use perfcounters::events::EventId;
use perfcounters::Dataset;
use serde::{Deserialize, Serialize};

/// A linear model `CPI = intercept + Σ coefficient · event`.
///
/// Terms are kept sorted by event index. An empty term list is a constant
/// model, which is how M5' represents leaves whose subtree carried no
/// usable attribute (the paper: "the remainder of the models are
/// constants").
///
/// # Examples
///
/// ```
/// use modeltree::LinearModel;
/// use perfcounters::{EventId, Sample};
///
/// let lm = LinearModel::new(0.5, vec![(EventId::L2Miss, 1000.0)]);
/// let mut s = Sample::zeros(0.0);
/// s.set(EventId::L2Miss, 2e-4);
/// assert!((lm.predict(&s) - 0.7).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    intercept: f64,
    terms: Vec<(EventId, f64)>,
}

impl LinearModel {
    /// Creates a model from an intercept and `(event, coefficient)`
    /// terms. Terms are sorted by event index; duplicate events are
    /// summed.
    pub fn new(intercept: f64, mut terms: Vec<(EventId, f64)>) -> Self {
        terms.sort_by_key(|(e, _)| e.index());
        terms.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 += later.1;
                true
            } else {
                false
            }
        });
        LinearModel { intercept, terms }
    }

    /// A constant model.
    pub fn constant(value: f64) -> Self {
        LinearModel {
            intercept: value,
            terms: Vec::new(),
        }
    }

    /// The intercept (constant term).
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The `(event, coefficient)` terms, sorted by event index.
    pub fn terms(&self) -> &[(EventId, f64)] {
        &self.terms
    }

    /// The coefficient for one event, or 0 if the event is absent.
    pub fn coefficient(&self, event: EventId) -> f64 {
        self.terms
            .iter()
            .find(|(e, _)| *e == event)
            .map_or(0.0, |(_, c)| *c)
    }

    /// Number of fitted parameters (intercept plus term count), the `v`
    /// of the adjusted-error factor.
    pub fn n_params(&self) -> usize {
        1 + self.terms.len()
    }

    /// True if the model is a pure constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Predicted CPI for a sample.
    pub fn predict(&self, sample: &perfcounters::Sample) -> f64 {
        self.intercept
            + self
                .terms
                .iter()
                .map(|(e, c)| c * sample.get(*e))
                .sum::<f64>()
    }

    /// Mean absolute error of this model over selected samples of a
    /// dataset (the error measure M5 pruning compares).
    ///
    /// Returns 0 for an empty index set.
    pub fn mean_abs_error(&self, data: &Dataset, indices: &[usize]) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        let sum: f64 = indices
            .iter()
            .map(|&i| {
                let s = data.sample(i);
                (self.predict(&s) - s.cpi()).abs()
            })
            .sum();
        sum / indices.len() as f64
    }

    /// Columnar counterpart of [`LinearModel::mean_abs_error`], used by
    /// pruning so the hot path never touches row accessors. Same
    /// accumulation order, hence bit-identical results.
    pub(crate) fn mean_abs_error_cols(&self, cols: &Columns<'_>, indices: &[u32]) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        let sum: f64 = indices
            .iter()
            .map(|&i| {
                let i = i as usize;
                let predicted = self.intercept
                    + self
                        .terms
                        .iter()
                        .map(|(e, c)| c * cols.event(*e)[i])
                        .sum::<f64>();
                (predicted - cols.cpi[i]).abs()
            })
            .sum();
        sum / indices.len() as f64
    }
}

impl std::fmt::Display for LinearModel {
    /// Renders the model in the paper's equation style:
    /// `CPI = 0.53 + 4.73*L1DMiss - 0.198*Store`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CPI = {:.4}", self.intercept)?;
        for (e, c) in &self.terms {
            if *c >= 0.0 {
                write!(f, " + {:.4}*{}", c, e.short_name())?;
            } else {
                write!(f, " - {:.4}*{}", -c, e.short_name())?;
            }
        }
        Ok(())
    }
}

/// The M5 adjusted-error factor `(n + v) / (n - v)`; returns infinity when
/// `n <= v` so over-parameterized models always lose.
pub(crate) fn adjusted_error_factor(n: usize, v: usize) -> f64 {
    if n <= v {
        f64::INFINITY
    } else {
        (n + v) as f64 / (n - v) as f64
    }
}

/// Precomputed normal-equation system for one node's samples over a fixed
/// candidate attribute list, supporting cheap subset refits.
pub(crate) struct GramSystem {
    /// Candidate attributes, in the order of Gram rows 1..=k.
    candidates: Vec<EventId>,
    /// `(k+1) x (k+1)` Gram matrix of `[1, x_1, ..., x_k]`.
    gram: Matrix,
    /// `Xᵀ y` for the same augmented design.
    xty: Vec<f64>,
    /// `yᵀ y`.
    yty: f64,
    /// Sample count.
    n: usize,
}

impl GramSystem {
    /// Builds the system from the selected rows of a columnar view.
    pub(crate) fn new(cols: &Columns<'_>, indices: &[u32], candidates: &[EventId]) -> Self {
        let k = candidates.len();
        let mut gram = Matrix::zeros(k + 1, k + 1);
        let mut xty = vec![0.0; k + 1];
        let mut yty = 0.0;
        let mut row = vec![0.0; k + 1];
        let columns: Vec<&[f64]> = candidates.iter().map(|&e| cols.event(e)).collect();
        for &i in indices {
            let i = i as usize;
            row[0] = 1.0;
            for (j, col) in columns.iter().enumerate() {
                row[j + 1] = col[i];
            }
            let y = cols.cpi[i];
            yty += y * y;
            for a in 0..=k {
                xty[a] += row[a] * y;
                for b in a..=k {
                    gram[(a, b)] += row[a] * row[b];
                }
            }
        }
        for a in 0..=k {
            for b in 0..a {
                gram[(a, b)] = gram[(b, a)];
            }
        }
        GramSystem {
            candidates: candidates.to_vec(),
            gram,
            xty,
            yty,
            n: indices.len(),
        }
    }

    /// Solves the least-squares subproblem restricted to the candidate
    /// subset given by `active` (indices into the candidate list), and
    /// returns `(model, sse)`.
    pub(crate) fn solve_subset(&self, active: &[usize]) -> (LinearModel, f64) {
        // Column 0 (intercept) is always included.
        let dims: Vec<usize> = std::iter::once(0)
            .chain(active.iter().map(|&a| a + 1))
            .collect();
        let m = dims.len();
        let mut g = Matrix::zeros(m, m);
        let mut c = vec![0.0; m];
        for (ri, &di) in dims.iter().enumerate() {
            c[ri] = self.xty[di];
            for (ci, &dj) in dims.iter().enumerate() {
                g[(ri, ci)] = self.gram[(di, dj)];
            }
        }
        // Exact solve first; ridge regularization only for degenerate
        // (collinear / near-constant) designs so well-conditioned fits
        // stay unperturbed.
        let solution = mathkit::solve::solve_spd(&g, &c)
            .ok()
            .filter(|beta| beta.iter().all(|v| v.is_finite()))
            .map_or_else(|| solve_ridge(&g, &c, 1e-10), Ok);
        match solution {
            Ok(beta) => {
                let sse =
                    (self.yty - beta.iter().zip(&c).map(|(b, ci)| b * ci).sum::<f64>()).max(0.0);
                let terms: Vec<(EventId, f64)> = active
                    .iter()
                    .zip(beta.iter().skip(1))
                    .map(|(&a, &coef)| (self.candidates[a], coef))
                    .collect();
                (LinearModel::new(beta[0], terms), sse)
            }
            Err(_) => {
                // Fully degenerate: fall back to the mean-only model.
                let mean = if self.n > 0 {
                    self.xty[0] / self.n as f64
                } else {
                    0.0
                };
                let sse = (self.yty - mean * self.xty[0]).max(0.0);
                (LinearModel::constant(mean), sse)
            }
        }
    }

    /// Adjusted RMSE for a subset solution.
    fn adjusted_rmse(&self, sse: f64, v: usize) -> f64 {
        if self.n == 0 {
            return f64::INFINITY;
        }
        let rmse = (sse / self.n as f64).sqrt();
        rmse * adjusted_error_factor(self.n, v)
    }
}

/// Fits a linear model for one node: least squares over `candidates`,
/// followed (optionally) by greedy backward attribute elimination under
/// the adjusted-error criterion.
///
/// With an empty candidate list (a pre-pruning leaf whose subtree tests
/// nothing) the result is the constant mean model.
pub(crate) fn fit_node_model(
    cols: &Columns<'_>,
    indices: &[u32],
    candidates: &[EventId],
    config: &M5Config,
) -> LinearModel {
    if indices.is_empty() {
        return LinearModel::constant(0.0);
    }
    let system = GramSystem::new(cols, indices, candidates);
    if candidates.is_empty() {
        return system.solve_subset(&[]).0;
    }

    let mut active: Vec<usize> = (0..candidates.len()).collect();
    // If the node is too small for the full model, pre-trim to keep
    // n > v + 1 (drop from the end — the elimination loop below will
    // reorder by merit anyway).
    while !active.is_empty() && indices.len() <= active.len() + 2 {
        active.pop();
    }

    let (mut model, mut sse) = system.solve_subset(&active);
    if !config.attribute_elimination {
        return model;
    }
    let mut best_adjusted = system.adjusted_rmse(sse, active.len() + 1);

    loop {
        if active.is_empty() {
            break;
        }
        let mut best_drop: Option<(usize, LinearModel, f64, f64)> = None;
        for pos in 0..active.len() {
            let mut trial: Vec<usize> = active.clone();
            trial.remove(pos);
            let (m, s) = system.solve_subset(&trial);
            let adj = system.adjusted_rmse(s, trial.len() + 1);
            if adj <= best_adjusted && best_drop.as_ref().is_none_or(|(_, _, _, prev)| adj < *prev)
            {
                best_drop = Some((pos, m, s, adj));
            }
        }
        match best_drop {
            Some((pos, m, s, adj)) => {
                obskit::metrics::incr(obskit::metrics::Metric::TrainerAttributeEliminations);
                active.remove(pos);
                model = m;
                sse = s;
                best_adjusted = adj;
            }
            None => break,
        }
    }
    let _ = sse;
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcounters::Sample;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synth_dataset<F: Fn(&Sample) -> f64>(
        n: usize,
        seed: u64,
        events: &[EventId],
        truth: F,
    ) -> (Dataset, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("synth");
        for _ in 0..n {
            let mut s = Sample::zeros(0.0);
            for e in events {
                s.set(*e, rng.gen::<f64>());
            }
            let cpi = truth(&s);
            s.set_cpi(cpi);
            ds.push(s, b);
        }
        let idx: Vec<u32> = (0..n as u32).collect();
        (ds, idx)
    }

    #[test]
    fn constant_model() {
        let lm = LinearModel::constant(1.44);
        assert!(lm.is_constant());
        assert_eq!(lm.n_params(), 1);
        assert_eq!(lm.predict(&Sample::zeros(0.0)), 1.44);
    }

    #[test]
    fn new_dedupes_and_sorts_terms() {
        let lm = LinearModel::new(
            0.0,
            vec![
                (EventId::Simd, 1.0),
                (EventId::Load, 2.0),
                (EventId::Simd, 3.0),
            ],
        );
        assert_eq!(lm.terms().len(), 2);
        assert_eq!(lm.terms()[0].0, EventId::Load);
        assert_eq!(lm.coefficient(EventId::Simd), 4.0);
        assert_eq!(lm.coefficient(EventId::Div), 0.0);
    }

    #[test]
    fn display_uses_paper_style() {
        let lm = LinearModel::new(
            0.53,
            vec![(EventId::L1DMiss, 4.73), (EventId::Store, -0.198)],
        );
        let text = format!("{lm}");
        assert!(text.starts_with("CPI = 0.5300"));
        assert!(text.contains("+ 4.7300*L1DMiss"));
        assert!(text.contains("- 0.1980*Store"));
    }

    #[test]
    fn fit_recovers_exact_linear_relationship() {
        let events = [EventId::Load, EventId::L2Miss];
        let (ds, idx) = synth_dataset(500, 1, &events, |s| {
            0.4 + 2.0 * s.get(EventId::Load) + 30.0 * s.get(EventId::L2Miss)
        });
        let lm = fit_node_model(&Columns::new(&ds), &idx, &events, &M5Config::default());
        assert!((lm.intercept() - 0.4).abs() < 1e-8, "{lm}");
        assert!((lm.coefficient(EventId::Load) - 2.0).abs() < 1e-8);
        assert!((lm.coefficient(EventId::L2Miss) - 30.0).abs() < 1e-8);
    }

    #[test]
    fn elimination_drops_irrelevant_attributes() {
        // CPI depends only on Load; Div is noise-free-irrelevant.
        let events = [EventId::Load, EventId::Div, EventId::Mul];
        let (ds, idx) = synth_dataset(400, 2, &events, |s| 1.0 + 3.0 * s.get(EventId::Load));
        let lm = fit_node_model(&Columns::new(&ds), &idx, &events, &M5Config::default());
        assert!(lm.coefficient(EventId::Div).abs() < 1e-8);
        assert!((lm.coefficient(EventId::Load) - 3.0).abs() < 1e-8);
    }

    #[test]
    fn elimination_can_be_disabled() {
        let events = [EventId::Load, EventId::Div];
        let (ds, idx) = synth_dataset(50, 3, &events, |s| 1.0 + 3.0 * s.get(EventId::Load));
        let config = M5Config::default().with_attribute_elimination(false);
        let lm = fit_node_model(&Columns::new(&ds), &idx, &events, &config);
        // Without elimination both attributes stay in the model.
        assert_eq!(lm.terms().len(), 2);
    }

    #[test]
    fn empty_candidates_yield_mean() {
        let (ds, idx) = synth_dataset(100, 4, &[], |_| 1.25);
        let lm = fit_node_model(&Columns::new(&ds), &idx, &[], &M5Config::default());
        assert!(lm.is_constant());
        assert!((lm.intercept() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_indices_yield_zero_constant() {
        let (ds, _) = synth_dataset(10, 5, &[], |_| 1.0);
        let lm = fit_node_model(
            &Columns::new(&ds),
            &[],
            &[EventId::Load],
            &M5Config::default(),
        );
        assert!(lm.is_constant());
    }

    #[test]
    fn tiny_node_does_not_overparameterize() {
        let events = EventId::ALL;
        let (ds, _) = synth_dataset(6, 6, &events, |s| 1.0 + s.get(EventId::Load));
        let idx: Vec<u32> = (0..6).collect();
        let lm = fit_node_model(&Columns::new(&ds), &idx, &events, &M5Config::default());
        assert!(lm.n_params() < 6, "params {} for 6 samples", lm.n_params());
    }

    #[test]
    fn collinear_attributes_handled() {
        // Two identical columns: ridge fallback must keep it finite.
        let mut rng = StdRng::seed_from_u64(7);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("x");
        for _ in 0..200 {
            let v: f64 = rng.gen();
            let mut s = Sample::zeros(1.0 + 5.0 * v);
            s.set(EventId::Load, v);
            s.set(EventId::Br, v);
            ds.push(s, b);
        }
        let idx: Vec<u32> = (0..200).collect();
        let lm = fit_node_model(
            &Columns::new(&ds),
            &idx,
            &[EventId::Load, EventId::Br],
            &M5Config::default(),
        );
        let mut probe = Sample::zeros(0.0);
        probe.set(EventId::Load, 0.5);
        probe.set(EventId::Br, 0.5);
        assert!((lm.predict(&probe) - 3.5).abs() < 1e-3, "{lm}");
    }

    #[test]
    fn mean_abs_error_computation() {
        let lm = LinearModel::constant(1.0);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("x");
        ds.push(Sample::zeros(0.5), b);
        ds.push(Sample::zeros(2.0), b);
        let mae = lm.mean_abs_error(&ds, &[0, 1]);
        assert!((mae - 0.75).abs() < 1e-12);
        assert_eq!(lm.mean_abs_error(&ds, &[]), 0.0);
    }

    #[test]
    fn adjusted_factor_behavior() {
        assert_eq!(adjusted_error_factor(10, 10), f64::INFINITY);
        assert!((adjusted_error_factor(100, 2) - 102.0 / 98.0).abs() < 1e-12);
        assert!(adjusted_error_factor(10, 5) > adjusted_error_factor(100, 5));
    }

    #[test]
    fn serde_roundtrip() {
        let lm = LinearModel::new(0.1, vec![(EventId::PageWalk, 15.7)]);
        let json = serde_json::to_string(&lm).unwrap();
        let back: LinearModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, lm);
    }
}
