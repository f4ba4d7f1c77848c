//! Model-transferability assessment (the paper's Section VI).
//!
//! A performance model built using data from workload suite P is
//! *transferable* to suite Q if it can be used to accurately study the
//! performance of Q. This crate packages the paper's two assessment
//! methodologies behind one entry point,
//! [`TransferabilityReport::assess`]:
//!
//! 1. **Two-sample hypothesis testing** (Section VI-A): a t-test of
//!    `H0: P1 = P2` comparing the training and test CPI distributions,
//!    and a t-test of `H0: P_pred = P2` comparing predicted-vs-actual
//!    CPI on the test set — plus the same tests on selected independent
//!    variables, and a Mann-Whitney U test as the non-parametric check.
//! 2. **Prediction-accuracy metrics** (Section VI-B): the correlation
//!    coefficient `C` and mean absolute error with the paper's
//!    acceptance thresholds (`C > 0.85`, `MAE <= 0.15`).
//!
//! An assessment reads three things: a compiled engine for the model,
//! a per-dataset summary of each side (CPI and tested-event moments, a
//! `total_cmp`-sorted CPI copy for Mann-Whitney, which event columns
//! were collected), and the predictions for the test side. The one-shot
//! [`TransferabilityReport::assess`] builds all three for one pair. The
//! N×N [`matrix`] builds the engine and the summaries once per suite
//! and reuses them in every cell that suite takes part in, through the
//! same code, so both paths give bit-identical reports.
//!
//! # Examples
//!
//! ```no_run
//! use modeltree::{M5Config, ModelTree};
//! use rand::SeedableRng;
//! use transfer::{TransferConfig, TransferabilityReport};
//! use workloads::generator::{GeneratorConfig, Suite};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let gen = GeneratorConfig::default();
//! let cpu = Suite::cpu2006().generate(&mut rng, 20_000, &gen, 1);
//! let (train, test) = cpu.split_random(&mut rng, 0.1);
//! let tree = ModelTree::fit(&train, &M5Config::default()).unwrap();
//! let report = TransferabilityReport::assess(
//!     &tree, &train, &test, "CPU2006 (10%)", "CPU2006 (rest)",
//!     &TransferConfig::default(),
//! ).unwrap();
//! assert!(report.accuracy_transferable());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod matrix;

pub use matrix::{MatrixCell, MatrixSpec, MemberRow, SuiteArtifacts, TransferMatrix};

use modeltree::{CompiledTree, ModelTree};
use perfcounters::events::N_EVENTS;
use perfcounters::{Dataset, EventId};
use spec_stats::metrics::{AcceptanceThresholds, PredictionMetrics};
use spec_stats::nonparametric::{mann_whitney_u_sorted, sorted_copy, NonParametricResult};
use spec_stats::ttest::{
    cohens_d_from_moments, welch_from_moments, welch_t_test, SampleMoments, TTestResult,
};
use spec_stats::StatsError;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Configuration of a transferability assessment.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferConfig {
    /// Significance level for the hypothesis tests (two-sided).
    pub alpha: f64,
    /// Accuracy acceptance thresholds.
    pub thresholds: AcceptanceThresholds,
    /// Independent variables to compare between the datasets (the paper
    /// notes "similar conclusions can be reached if the above procedure
    /// were repeated for several independent variables such as
    /// LdBlkOlp").
    pub tested_events: Vec<EventId>,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            alpha: 0.05,
            thresholds: AcceptanceThresholds::default(),
            tested_events: vec![EventId::LdBlkOlp, EventId::DtlbMiss, EventId::Simd],
        }
    }
}

/// Errors from transferability assessment.
#[derive(Debug)]
#[non_exhaustive]
pub enum TransferError {
    /// A statistical routine failed (usually: a dataset too small).
    Stats(StatsError),
    /// The two datasets disagree on which event columns were actually
    /// collected: an event the assessment depends on (used by the model
    /// or listed in [`TransferConfig::tested_events`]) has measurements
    /// in one dataset but is identically zero in the other. Comparing a
    /// collected column against an uncollected one would produce a
    /// meaningless verdict, so the mismatch is reported instead.
    SchemaMismatch {
        /// Events collected in the test dataset but absent from train.
        missing_in_train: Vec<EventId>,
        /// Events collected in the train dataset but absent from test.
        missing_in_test: Vec<EventId>,
    },
    /// A pipeline stage failed while materializing matrix artifacts
    /// (generation, splitting, fitting, or store I/O).
    Pipeline(String),
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::Stats(e) => write!(f, "statistics error: {e}"),
            TransferError::SchemaMismatch {
                missing_in_train,
                missing_in_test,
            } => {
                let list = |events: &[EventId]| {
                    events
                        .iter()
                        .map(|e| e.short_name())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                write!(f, "event schema mismatch between datasets:")?;
                if !missing_in_train.is_empty() {
                    write!(
                        f,
                        " [{}] collected only in the test dataset",
                        list(missing_in_train)
                    )?;
                }
                if !missing_in_test.is_empty() {
                    write!(
                        f,
                        " [{}] collected only in the train dataset",
                        list(missing_in_test)
                    )?;
                }
                Ok(())
            }
            TransferError::Pipeline(msg) => write!(f, "pipeline error: {msg}"),
        }
    }
}

impl std::error::Error for TransferError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransferError::Stats(e) => Some(e),
            TransferError::SchemaMismatch { .. } | TransferError::Pipeline(_) => None,
        }
    }
}

impl From<StatsError> for TransferError {
    fn from(e: StatsError) -> Self {
        TransferError::Stats(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, TransferError>;

/// A model ready for assessment: its batch-inference engine and the
/// events it reads, built once and reused for every dataset it meets.
pub(crate) struct PreparedModel {
    engine: CompiledTree,
    used_events: BTreeSet<EventId>,
}

impl PreparedModel {
    pub(crate) fn new(model: &ModelTree) -> Self {
        PreparedModel {
            engine: model.compile(),
            used_events: model.used_events(),
        }
    }

    /// Predicted CPI for every sample of `data`.
    pub(crate) fn predict(&self, data: &Dataset) -> Vec<f64> {
        self.engine.predict_batch(data)
    }
}

/// What an assessment reads from one dataset, independent of the
/// dataset it is compared with: CPI moments and a sorted CPI copy,
/// the moments of each [`TransferConfig::tested_events`] column, and
/// which event columns were collected.
pub(crate) struct DatasetSummary<'a> {
    data: &'a Dataset,
    cpi: SampleMoments,
    sorted_cpi: Vec<f64>,
    /// One entry per [`TransferConfig::tested_events`], in order.
    events: Vec<SampleMoments>,
    /// Per [`EventId::index`]: whether the column is collected.
    collected: [bool; N_EVENTS],
}

impl<'a> DatasetSummary<'a> {
    /// Summarizes `data` for assessments under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`TransferError::Stats`] if `data` has fewer than 2
    /// samples.
    pub(crate) fn new(data: &'a Dataset, config: &TransferConfig) -> Result<Self> {
        let events = config
            .tested_events
            .iter()
            .map(|&e| SampleMoments::new(data.event_column(e)))
            .collect::<std::result::Result<_, _>>()?;
        Ok(DatasetSummary {
            data,
            cpi: SampleMoments::new(data.cpi_column())?,
            sorted_cpi: sorted_copy(data.cpi_column()),
            events,
            collected: EventId::ALL.map(|e| event_collected(data, e)),
        })
    }
}

/// An event counts as *collected* in a dataset if any sample carries a
/// nonzero value for it: the generators emit continuous positive
/// densities for every architected counter, while an uncollected column
/// is identically zero (as after schema-lossy ingestion).
fn event_collected(data: &Dataset, event: EventId) -> bool {
    data.event_column(event).iter().any(|&v| v != 0.0)
}

/// Verifies that every event the assessment reads — the model's split
/// and regression attributes plus [`TransferConfig::tested_events`] —
/// is collected in both datasets or in neither.
fn check_event_schema(
    model: &PreparedModel,
    train: &DatasetSummary,
    test: &DatasetSummary,
    config: &TransferConfig,
) -> Result<()> {
    let mut relevant = model.used_events.clone();
    relevant.extend(config.tested_events.iter().copied());
    let mut missing_in_train = Vec::new();
    let mut missing_in_test = Vec::new();
    for e in relevant {
        match (train.collected[e.index()], test.collected[e.index()]) {
            (false, true) => missing_in_train.push(e),
            (true, false) => missing_in_test.push(e),
            _ => {}
        }
    }
    if missing_in_train.is_empty() && missing_in_test.is_empty() {
        Ok(())
    } else {
        Err(TransferError::SchemaMismatch {
            missing_in_train,
            missing_in_test,
        })
    }
}

/// The hypothesis-testing half of an assessment.
#[derive(Debug, Clone, PartialEq)]
pub struct HypothesisReport {
    /// `H0: P1 = P2` on the dependent variable (train CPI vs test CPI).
    pub cpi_datasets: TTestResult,
    /// Cohen's d effect size of the CPI difference — the scale-free
    /// complement to the t statistic (at the paper's sample counts even
    /// negligible differences are "significant").
    pub cpi_effect_size: f64,
    /// `H0: P_pred = P2` (predicted CPI vs actual CPI on the test set).
    pub cpi_predicted: TTestResult,
    /// The dataset-vs-dataset test repeated on independent variables.
    pub event_tests: Vec<(EventId, TTestResult)>,
    /// Non-parametric cross-check on the CPI distributions.
    pub mann_whitney_cpi: NonParametricResult,
}

/// A complete transferability assessment of one (train suite, test
/// suite) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferabilityReport {
    /// Label of the training dataset (e.g. `"SPEC CPU2006 (10%)"`).
    pub train_name: String,
    /// Label of the test dataset.
    pub test_name: String,
    /// Hypothesis-testing results.
    pub hypothesis: HypothesisReport,
    /// Prediction-accuracy results.
    pub metrics: PredictionMetrics,
    /// The significance level used.
    pub alpha: f64,
    /// The accuracy thresholds used.
    pub thresholds: AcceptanceThresholds,
}

impl TransferabilityReport {
    /// Runs the full assessment: predicts the test set with `model`
    /// (compiled once into a batch-inference engine), then applies both
    /// methodologies.
    ///
    /// # Errors
    ///
    /// * [`TransferError::Stats`] if either dataset is too small for the
    ///   tests (fewer than 2 samples, or 8 combined).
    /// * [`TransferError::SchemaMismatch`] if an event the assessment
    ///   depends on is collected (has any nonzero measurement) in one
    ///   dataset but not the other.
    pub fn assess(
        model: &ModelTree,
        train: &Dataset,
        test: &Dataset,
        train_name: &str,
        test_name: &str,
        config: &TransferConfig,
    ) -> Result<TransferabilityReport> {
        if train.len() < 2 || test.len() < 2 {
            // Too small to summarize: report the CPI t-test's own error.
            welch_t_test(train.cpi_column(), test.cpi_column())?;
        }
        Self::assess_prepared(
            &PreparedModel::new(model),
            &DatasetSummary::new(train, config)?,
            &DatasetSummary::new(test, config)?,
            train_name,
            test_name,
            config,
        )
    }

    /// [`TransferabilityReport::assess`] from a prepared model and
    /// dataset summaries; the only per-pair work is one batch predict
    /// of the test set and the statistics on its predictions.
    pub(crate) fn assess_prepared(
        model: &PreparedModel,
        train: &DatasetSummary,
        test: &DatasetSummary,
        train_name: &str,
        test_name: &str,
        config: &TransferConfig,
    ) -> Result<TransferabilityReport> {
        check_event_schema(model, train, test, config)?;
        let test_cpi = test.data.cpi_column();
        let predicted = model.predict(test.data);

        let cpi_datasets = welch_from_moments(&train.cpi, &test.cpi);
        let cpi_effect_size = cohens_d_from_moments(&train.cpi, &test.cpi);
        let cpi_predicted = welch_from_moments(&SampleMoments::new(&predicted)?, &test.cpi);
        let event_tests = config
            .tested_events
            .iter()
            .zip(train.events.iter().zip(&test.events))
            .map(|(&e, (a, b))| (e, welch_from_moments(a, b)))
            .collect();
        let mann_whitney_cpi = mann_whitney_u_sorted(&train.sorted_cpi, &test.sorted_cpi)?;
        let metrics = PredictionMetrics::from_predictions(&predicted, test_cpi)?;

        Ok(TransferabilityReport {
            train_name: train_name.to_owned(),
            test_name: test_name.to_owned(),
            hypothesis: HypothesisReport {
                cpi_datasets,
                cpi_effect_size,
                cpi_predicted,
                event_tests,
                mann_whitney_cpi,
            },
            metrics,
            alpha: config.alpha,
            thresholds: config.thresholds,
        })
    }

    /// Transferable by the hypothesis-testing methodology: both CPI
    /// tests fail to reject their null hypotheses.
    pub fn hypothesis_transferable(&self) -> bool {
        !self.hypothesis.cpi_datasets.significant_at(self.alpha)
            && !self.hypothesis.cpi_predicted.significant_at(self.alpha)
    }

    /// Transferable by the accuracy-metric methodology: `C` and MAE
    /// within thresholds.
    pub fn accuracy_transferable(&self) -> bool {
        self.metrics.acceptable(&self.thresholds)
    }

    /// Overall verdict: both methodologies agree the model transfers.
    pub fn transferable(&self) -> bool {
        self.hypothesis_transferable() && self.accuracy_transferable()
    }

    /// Renders the report in the style of the paper's Section VI
    /// narrative.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "transferability: {} -> {}",
            self.train_name, self.test_name
        );
        let h = &self.hypothesis;
        let _ = writeln!(
            out,
            "  H0 P1=P2 (CPI):        t = {:>9.3}, p = {:.3e}  [{}]",
            h.cpi_datasets.statistic,
            h.cpi_datasets.p_value,
            if h.cpi_datasets.significant_at(self.alpha) {
                "REJECTED"
            } else {
                "accepted"
            }
        );
        let _ = writeln!(
            out,
            "  H0 Ppred=P2 (CPI):     t = {:>9.3}, p = {:.3e}  [{}]",
            h.cpi_predicted.statistic,
            h.cpi_predicted.p_value,
            if h.cpi_predicted.significant_at(self.alpha) {
                "REJECTED"
            } else {
                "accepted"
            }
        );
        for (e, r) in &h.event_tests {
            let _ = writeln!(
                out,
                "  H0 P1=P2 ({}):{}t = {:>9.3}, p = {:.3e}  [{}]",
                e.short_name(),
                " ".repeat(10usize.saturating_sub(e.short_name().len())),
                r.statistic,
                r.p_value,
                if r.significant_at(self.alpha) {
                    "REJECTED"
                } else {
                    "accepted"
                }
            );
        }
        let _ = writeln!(
            out,
            "  Mann-Whitney (CPI):    z = {:>9.3}, p = {:.3e}",
            h.mann_whitney_cpi.statistic, h.mann_whitney_cpi.p_value
        );
        let _ = writeln!(
            out,
            "  effect size (CPI):     d = {:>9.3}",
            h.cpi_effect_size
        );
        let _ = writeln!(out, "  accuracy: {}", self.metrics);
        let _ = writeln!(
            out,
            "  verdict: hypothesis {}, accuracy {} => {}",
            if self.hypothesis_transferable() {
                "transferable"
            } else {
                "NOT transferable"
            },
            if self.accuracy_transferable() {
                "transferable"
            } else {
                "NOT transferable"
            },
            if self.transferable() {
                "TRANSFERABLE"
            } else {
                "NOT TRANSFERABLE"
            }
        );
        out
    }
}

/// Bootstrap confidence intervals for the accuracy metrics of a model on
/// a test set: returns `(correlation CI, MAE CI)`.
///
/// This extends the paper's point-estimate verdicts with uncertainty: a
/// transferability decision is robust when the whole interval clears (or
/// misses) the thresholds.
///
/// # Errors
///
/// Returns [`TransferError::Stats`] if the test set has fewer than 2
/// samples or the bootstrap parameters are out of range.
pub fn metric_confidence(
    model: &ModelTree,
    test: &Dataset,
    n_resamples: usize,
    confidence: f64,
    seed: u64,
) -> Result<(spec_stats::BootstrapCi, spec_stats::BootstrapCi)> {
    let predicted = model.compile().predict_batch(test);
    let actual = test.cpis();
    let c = spec_stats::correlation_ci(&predicted, &actual, n_resamples, confidence, seed)?;
    let mae = spec_stats::mae_ci(&predicted, &actual, n_resamples, confidence, seed ^ 0x9e37)?;
    Ok((c, mae))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modeltree::M5Config;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use workloads::generator::{GeneratorConfig, Suite};

    fn cpu_split(seed: u64, n: usize) -> (Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = Suite::cpu2006().generate(&mut rng, n, &GeneratorConfig::default(), 1);
        data.split_random(&mut rng, 0.1)
    }

    #[test]
    fn within_suite_is_transferable() {
        let (train, test) = cpu_split(1, 12_000);
        let tree = ModelTree::fit(&train, &M5Config::default()).unwrap();
        let report = TransferabilityReport::assess(
            &tree,
            &train,
            &test,
            "CPU2006 (10%)",
            "CPU2006 (rest)",
            &TransferConfig::default(),
        )
        .unwrap();
        assert!(report.accuracy_transferable(), "{}", report.render());
        assert!(report.hypothesis_transferable(), "{}", report.render());
        assert!(report.transferable());
        assert!(report.metrics.correlation > 0.85);
        assert!(report.metrics.mae < 0.15);
    }

    #[test]
    fn cross_suite_is_not_transferable() {
        let mut rng = StdRng::seed_from_u64(2);
        let gen = GeneratorConfig::default();
        let cpu = Suite::cpu2006().generate(&mut rng, 8_000, &gen, 1);
        let omp = Suite::omp2001().generate(&mut rng, 8_000, &gen, 1);
        let (train, _) = cpu.split_random(&mut rng, 0.5);
        let tree = ModelTree::fit(&train, &M5Config::default()).unwrap();
        let report = TransferabilityReport::assess(
            &tree,
            &train,
            &omp,
            "CPU2006",
            "OMP2001",
            &TransferConfig::default(),
        )
        .unwrap();
        assert!(!report.transferable(), "{}", report.render());
        // The paper's shape: cross-suite correlation collapses and MAE
        // blows past the threshold.
        assert!(report.metrics.mae > 0.15, "{}", report.metrics);
        assert!(
            report.hypothesis.cpi_datasets.significant_at(0.05)
                || report.hypothesis.cpi_predicted.significant_at(0.05)
        );
    }

    #[test]
    fn event_tests_reported_for_configured_events() {
        let (train, test) = cpu_split(3, 4_000);
        let tree = ModelTree::fit(&train, &M5Config::default()).unwrap();
        let config = TransferConfig {
            tested_events: vec![EventId::L2Miss],
            ..Default::default()
        };
        let report =
            TransferabilityReport::assess(&tree, &train, &test, "a", "b", &config).unwrap();
        assert_eq!(report.hypothesis.event_tests.len(), 1);
        assert_eq!(report.hypothesis.event_tests[0].0, EventId::L2Miss);
    }

    #[test]
    fn tiny_datasets_error() {
        let (train, _) = cpu_split(4, 4_000);
        let tree = ModelTree::fit(&train, &M5Config::default()).unwrap();
        let mut tiny = Dataset::new();
        let l = tiny.add_benchmark("x");
        tiny.push(perfcounters::Sample::zeros(1.0), l);
        let err = TransferabilityReport::assess(
            &tree,
            &train,
            &tiny,
            "a",
            "tiny",
            &TransferConfig::default(),
        );
        assert!(matches!(err, Err(TransferError::Stats(_))));
    }

    #[test]
    fn effect_size_small_within_large_across() {
        let mut rng = StdRng::seed_from_u64(21);
        let gen = GeneratorConfig::default();
        let cpu = Suite::cpu2006().generate(&mut rng, 6_000, &gen, 1);
        let omp = Suite::omp2001().generate(&mut rng, 6_000, &gen, 1);
        let (train, rest) = cpu.split_random(&mut rng, 0.1);
        let tree = ModelTree::fit(&train, &M5Config::default()).unwrap();
        let config = TransferConfig::default();
        let within =
            TransferabilityReport::assess(&tree, &train, &rest, "c", "c", &config).unwrap();
        let across = TransferabilityReport::assess(&tree, &train, &omp, "c", "o", &config).unwrap();
        assert!(within.hypothesis.cpi_effect_size.abs() < 0.1);
        assert!(across.hypothesis.cpi_effect_size.abs() > 0.3);
        assert!(within.render().contains("effect size"));
    }

    #[test]
    fn render_mentions_verdict_and_tests() {
        let (train, test) = cpu_split(5, 4_000);
        let tree = ModelTree::fit(&train, &M5Config::default()).unwrap();
        let report = TransferabilityReport::assess(
            &tree,
            &train,
            &test,
            "train",
            "test",
            &TransferConfig::default(),
        )
        .unwrap();
        let text = report.render();
        assert!(text.contains("H0 P1=P2"));
        assert!(text.contains("Mann-Whitney"));
        assert!(text.contains("verdict"));
        assert!(text.contains("LdBlkOlp"));
    }

    #[test]
    fn metric_confidence_brackets_report_metrics() {
        let (train, test) = cpu_split(7, 6_000);
        let tree = ModelTree::fit(&train, &M5Config::default()).unwrap();
        let report = TransferabilityReport::assess(
            &tree,
            &train,
            &test,
            "a",
            "b",
            &TransferConfig::default(),
        )
        .unwrap();
        let (c_ci, mae_ci) = metric_confidence(&tree, &test, 200, 0.95, 9).unwrap();
        assert!((c_ci.point - report.metrics.correlation).abs() < 1e-12);
        assert!((mae_ci.point - report.metrics.mae).abs() < 1e-12);
        assert!(c_ci.lower <= c_ci.point && c_ci.point <= c_ci.upper);
        // Within-suite: the whole C interval clears the 0.85 threshold.
        assert!(c_ci.lower > 0.85, "{c_ci:?}");
        assert!(mae_ci.upper < 0.15, "{mae_ci:?}");
    }

    /// A hand-built 30-sample dataset: `dtlb` and `simd` supply those
    /// two columns, `Load` always carries signal, and CPI tracks it.
    fn synthetic(dtlb: impl Fn(usize) -> f64, simd: impl Fn(usize) -> f64) -> Dataset {
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("synth");
        for i in 0..30 {
            let x = i as f64 / 30.0;
            let mut s = perfcounters::Sample::zeros(0.5 + 2.0 * x + 0.01 * (i % 3) as f64);
            s.set(EventId::Load, 0.1 + 0.4 * x);
            s.set(EventId::DtlbMiss, dtlb(i));
            s.set(EventId::Simd, simd(i));
            ds.push(s, b);
        }
        ds
    }

    #[test]
    fn schema_mismatch_event_missing_in_test() {
        let train = synthetic(|i| 1e-4 * (1 + i % 5) as f64, |_| 0.0);
        let test = synthetic(|_| 0.0, |_| 0.0); // DtlbMiss uncollected
        let tree = ModelTree::fit(&train, &M5Config::default()).unwrap();
        let err = TransferabilityReport::assess(
            &tree,
            &train,
            &test,
            "a",
            "b",
            &TransferConfig::default(),
        )
        .unwrap_err();
        match err {
            TransferError::SchemaMismatch {
                missing_in_train,
                missing_in_test,
            } => {
                assert!(missing_in_train.is_empty());
                assert_eq!(missing_in_test, vec![EventId::DtlbMiss]);
            }
            other => panic!("expected SchemaMismatch, got {other}"),
        }
    }

    #[test]
    fn schema_mismatch_extra_event_in_test() {
        let train = synthetic(|i| 1e-4 * (1 + i % 5) as f64, |_| 0.0);
        let test = synthetic(|i| 1e-4 * (1 + i % 5) as f64, |i| 1e-3 * (1 + i % 4) as f64);
        let tree = ModelTree::fit(&train, &M5Config::default()).unwrap();
        let err = TransferabilityReport::assess(
            &tree,
            &train,
            &test,
            "a",
            "b",
            &TransferConfig::default(),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("schema mismatch"), "{msg}");
        assert!(msg.contains("SIMD"), "{msg}");
        assert!(msg.contains("only in the test dataset"), "{msg}");
        match err {
            TransferError::SchemaMismatch {
                missing_in_train, ..
            } => assert_eq!(missing_in_train, vec![EventId::Simd]),
            other => panic!("expected SchemaMismatch, got {other}"),
        }
    }

    #[test]
    fn irrelevant_schema_differences_are_ignored() {
        // `Simd` presence differs, but the model never touches it and it
        // is not a tested event — the assessment must still run.
        let train = synthetic(|i| 1e-4 * (1 + i % 5) as f64, |_| 0.0);
        let test = synthetic(|i| 1e-4 * (1 + i % 5) as f64, |i| 1e-3 * (1 + i % 4) as f64);
        let tree = ModelTree::fit(&train, &M5Config::default()).unwrap();
        let config = TransferConfig {
            tested_events: vec![EventId::Load],
            ..Default::default()
        };
        let report =
            TransferabilityReport::assess(&tree, &train, &test, "a", "b", &config).unwrap();
        assert_eq!(report.hypothesis.event_tests.len(), 1);
    }
}
