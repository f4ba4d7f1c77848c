//! N×N cross-generation transfer matrix.
//!
//! The paper assesses one ordered suite pair (CPU2006 → OMP2001). With
//! the generation-parameterized suite registry the same protocol
//! generalizes to *every* ordered pair: train the headline model on a
//! fraction of each registered suite, then assess it against the
//! held-out remainder of every suite — its own (the within-suite
//! control) and every other generation's. The diagonal reproduces the
//! paper's Section VI-A acceptance; the off-diagonal rows trace how
//! transferability decays as the training and test generations drift
//! apart (CPU2006 → CPU2017 → CPU2026).
//!
//! Everything resolves through the pipeline: suite datasets, splits,
//! and trees are content-addressed artifacts, so a warm rerun of the
//! full matrix performs zero generation and zero fitting.
//!
//! Most of a cell's work depends on one suite only, so it is done once
//! per suite before any cell runs: each tree is compiled once, and each
//! suite's train and rest sets are summarized once (CPI and
//! tested-event moments, a sorted CPI copy, collected-event flags).
//! A cell then predicts the test suite's rest set and member sets with
//! the train suite's engine and runs the tests on the prepared
//! summaries: Welch from moments, Mann-Whitney as a linear merge of
//! two sorted arrays. [`TransferabilityReport::assess`] and
//! [`member_rows`] run the same code for one pair, so every cell equals
//! their result bit for bit.
//!
//! Cell assessment is a pure function of the prepared suites and runs
//! under deterministic chunked parallelism — worker `w` takes cells
//! `w, w + n, w + 2n, …` and results are assembled in cell-index
//! order, so the matrix is bit-identical for every thread count.

use crate::{
    DatasetSummary, PreparedModel, Result, TransferConfig, TransferError, TransferabilityReport,
};
use modeltree::ModelTree;
use perfcounters::Dataset;
use pipeline::{
    suite_tree_config, DatasetInput, DatasetSpec, PipelineContext, SplitPart, SplitSpec, SuiteKind,
    TreeSpec, SEED_MATRIX,
};
use spec_stats::metrics::{AcceptanceThresholds, PredictionMetrics};
use std::sync::Arc;

/// Recipe for one full cross-suite transfer matrix.
///
/// Everything that affects the produced numbers lives here; thread
/// count deliberately does not (it is an argument to
/// [`TransferMatrix::assess_all`] and never enters a fingerprint).
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// The suites spanning the matrix, in row/column order.
    pub suites: Vec<SuiteKind>,
    /// Samples generated per suite.
    pub n_samples: usize,
    /// Fraction of each suite used for training (the paper's 10%).
    pub train_fraction: f64,
    /// Fresh samples generated per member benchmark for the
    /// member-transfer sub-matrix.
    pub member_samples: usize,
    /// Base seed; per-suite seeds derive from it and the suite's
    /// canonical seed, so adding a suite never reshuffles the others.
    pub seed: u64,
    /// The assessment configuration applied to every cell.
    pub config: TransferConfig,
}

impl MatrixSpec {
    /// The canonical experiment-scale matrix over every registered
    /// suite: 20k samples per suite, 10% training, 2k-sample member
    /// sets.
    pub fn canonical() -> Self {
        MatrixSpec {
            suites: SuiteKind::all(),
            n_samples: 20_000,
            train_fraction: 0.10,
            member_samples: 2_000,
            seed: SEED_MATRIX,
            config: TransferConfig::default(),
        }
    }

    /// A CI-scale matrix: same protocol, ~10× fewer samples.
    pub fn smoke() -> Self {
        MatrixSpec {
            n_samples: 2_000,
            member_samples: 400,
            ..MatrixSpec::canonical()
        }
    }

    /// The dataset seed for one suite: stable under registry growth and
    /// reordering because it depends only on the base seed and the
    /// suite itself.
    pub fn dataset_seed(&self, suite: SuiteKind) -> u64 {
        self.seed ^ suite.canonical_seed()
    }

    /// The dataset recipe for one suite of the matrix.
    pub fn dataset(&self, suite: SuiteKind) -> DatasetSpec {
        DatasetSpec::new(suite, self.n_samples, self.dataset_seed(suite))
    }

    /// The train/rest split recipe for one suite of the matrix.
    pub fn split(&self, suite: SuiteKind) -> SplitSpec {
        SplitSpec::new(
            self.dataset(suite),
            self.dataset_seed(suite) ^ 0x51ed,
            self.train_fraction,
        )
    }

    /// The seed of one suite's per-member evaluation sets (same
    /// derivation idiom as the per-member experiment: `seed ^ 0xbe9c`).
    pub fn member_seed(&self, suite: SuiteKind) -> u64 {
        self.dataset_seed(suite) ^ 0xbe9c
    }
}

/// The resolved pipeline artifacts of one suite: its training fraction,
/// the held-out remainder, and the headline tree fitted on the
/// training fraction.
#[derive(Debug, Clone)]
pub struct SuiteArtifacts {
    /// The suite.
    pub kind: SuiteKind,
    /// The training fraction of the suite dataset.
    pub train: Arc<Dataset>,
    /// The held-out remainder every model is assessed against.
    pub rest: Arc<Dataset>,
    /// The headline suite tree fitted on `train`.
    pub tree: Arc<ModelTree>,
    /// Fresh per-member evaluation sets, in suite benchmark order.
    pub members: Vec<(String, Arc<Dataset>)>,
}

/// One per-member evaluation row: a train-suite model applied to fresh
/// samples of one member benchmark of a test suite.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberRow {
    /// The member benchmark's name.
    pub benchmark: String,
    /// Accuracy of the model on the member's fresh samples.
    pub metrics: PredictionMetrics,
    /// Whether the metrics clear the acceptance thresholds.
    pub transferable: bool,
}

/// One cell of the matrix: the full pairwise assessment plus the
/// member-transfer sub-rows for the same (train, test) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// The suite the model was trained on.
    pub train: SuiteKind,
    /// The suite the model is assessed against.
    pub test: SuiteKind,
    /// The Section VI assessment of the pair.
    pub report: TransferabilityReport,
    /// Per-member rows over the test suite's benchmarks.
    pub members: Vec<MemberRow>,
}

/// A complete N×N assessment over the registered suites.
#[derive(Debug, Clone)]
pub struct TransferMatrix {
    /// The spec the matrix was produced from.
    pub spec: MatrixSpec,
    /// All N² cells in row-major (train-major) order.
    pub cells: Vec<MatrixCell>,
}

/// Resolves one suite's matrix artifacts through the pipeline.
fn suite_artifacts(
    ctx: &PipelineContext,
    spec: &MatrixSpec,
    kind: SuiteKind,
) -> Result<SuiteArtifacts> {
    let pipe = |e: pipeline::PipelineError| TransferError::Pipeline(e.to_string());
    let split = spec.split(kind);
    let (train, rest) = ctx.split(&split).map_err(pipe)?;
    let tree = ctx
        .tree(&TreeSpec {
            config: suite_tree_config(split.first_len()),
            input: DatasetInput::SplitPart(split, SplitPart::First),
        })
        .map_err(pipe)?;
    let members =
        member_datasets(ctx, kind, spec.member_samples, spec.member_seed(kind)).map_err(pipe)?;
    Ok(SuiteArtifacts {
        kind,
        train,
        rest,
        tree,
        members,
    })
}

/// Resolves one fresh evaluation dataset per member benchmark of
/// `suite` through the pipeline, in suite benchmark order.
///
/// # Errors
///
/// Propagates pipeline failures (store I/O, degenerate generation).
pub fn member_datasets(
    ctx: &PipelineContext,
    suite: SuiteKind,
    samples: usize,
    seed: u64,
) -> pipeline::spec::Result<Vec<(String, Arc<Dataset>)>> {
    let materialized = suite.materialize();
    let mut out = Vec::with_capacity(materialized.benchmarks().len());
    for bench in materialized.benchmarks() {
        let spec = DatasetSpec::new(suite, samples, seed).with_benchmark(bench.name());
        out.push((bench.name().to_owned(), ctx.dataset(&spec)?));
    }
    Ok(out)
}

/// Applies a fitted tree to each member's fresh samples and scores it
/// against the acceptance thresholds — the member-level assessment
/// shared by the matrix and the per-member experiment.
///
/// # Errors
///
/// Returns [`TransferError::Stats`] if a member set has fewer than 2
/// samples.
pub fn member_rows(
    tree: &ModelTree,
    members: &[(String, Arc<Dataset>)],
    thresholds: &AcceptanceThresholds,
) -> Result<Vec<MemberRow>> {
    score_members(&PreparedModel::new(tree), members, thresholds)
}

/// [`member_rows`] with an already-compiled model.
fn score_members(
    model: &PreparedModel,
    members: &[(String, Arc<Dataset>)],
    thresholds: &AcceptanceThresholds,
) -> Result<Vec<MemberRow>> {
    let mut rows = Vec::with_capacity(members.len());
    for (name, data) in members {
        let metrics = PredictionMetrics::from_predictions(&model.predict(data), data.cpi_column())?;
        rows.push(MemberRow {
            benchmark: name.clone(),
            transferable: metrics.acceptable(thresholds),
            metrics,
        });
    }
    Ok(rows)
}

/// The member row with the largest MAE, if any (the model's weakest
/// coverage of the test suite). MAE is ordered by [`f64::total_cmp`],
/// so the pick never depends on row order except among exact ties,
/// which go to the last tied row. An MAE is a mean of absolute values,
/// so a NaN one is a positive NaN and ranks above every number.
pub fn hardest_member(rows: &[MemberRow]) -> Option<&MemberRow> {
    rows.iter()
        .max_by(|a, b| a.metrics.mae.total_cmp(&b.metrics.mae))
}

/// One suite made ready for its cells: the train tree compiled once
/// and the train and rest sets summarized once.
struct PreparedSuite<'a> {
    artifacts: &'a SuiteArtifacts,
    model: PreparedModel,
    train: DatasetSummary<'a>,
    rest: DatasetSummary<'a>,
}

impl<'a> PreparedSuite<'a> {
    fn new(artifacts: &'a SuiteArtifacts, config: &TransferConfig) -> Result<Self> {
        Ok(PreparedSuite {
            artifacts,
            model: PreparedModel::new(&artifacts.tree),
            train: DatasetSummary::new(&artifacts.train, config)?,
            rest: DatasetSummary::new(&artifacts.rest, config)?,
        })
    }
}

/// Assesses one (train, test) cell from prepared suites — a pure
/// function, safe to run on any worker.
fn assess_cell(
    train: &PreparedSuite,
    test: &PreparedSuite,
    spec: &MatrixSpec,
) -> Result<MatrixCell> {
    let pct = (spec.train_fraction * 100.0).round();
    let (train_kind, test_kind) = (train.artifacts.kind, test.artifacts.kind);
    let report = TransferabilityReport::assess_prepared(
        &train.model,
        &train.train,
        &test.rest,
        &format!("{} ({pct:.0}%)", train_kind.display_name()),
        &format!("{} (rest)", test_kind.display_name()),
        &spec.config,
    )?;
    let members = score_members(
        &train.model,
        &test.artifacts.members,
        &spec.config.thresholds,
    )?;
    Ok(MatrixCell {
        train: train_kind,
        test: test_kind,
        report,
        members,
    })
}

impl TransferMatrix {
    /// Runs the full N×N assessment.
    ///
    /// Stage 1 resolves every suite's artifacts through `ctx` serially
    /// (generation and fitting are already internally parallel and
    /// cache-backed), then prepares each suite once: its tree compiled
    /// and its train and rest sets summarized. Stage 2 assesses the N²
    /// cells from the prepared suites under deterministic chunked
    /// parallelism across `n_threads` workers: worker `w` stripes over
    /// cell indices `w, w + n, …`, and the results are assembled in
    /// index order, so the output is bit-identical for every thread
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures as [`TransferError::Pipeline`] and
    /// statistical failures (datasets too small for the tests) as
    /// [`TransferError::Stats`].
    pub fn assess_all(
        ctx: &PipelineContext,
        spec: &MatrixSpec,
        n_threads: usize,
    ) -> Result<TransferMatrix> {
        let artifacts = spec
            .suites
            .iter()
            .map(|&kind| suite_artifacts(ctx, spec, kind))
            .collect::<Result<Vec<_>>>()?;
        let prepared = artifacts
            .iter()
            .map(|a| PreparedSuite::new(a, &spec.config))
            .collect::<Result<Vec<_>>>()?;
        let n = prepared.len();
        let n_cells = n * n;
        let workers = n_threads.max(1).min(n_cells.max(1));
        let cell = |idx: usize| {
            (
                idx,
                assess_cell(&prepared[idx / n], &prepared[idx % n], spec),
            )
        };
        let mut assessed: Vec<(usize, Result<MatrixCell>)> = if workers <= 1 {
            (0..n_cells).map(cell).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let cell = &cell;
                        scope.spawn(move || {
                            (w..n_cells).step_by(workers).map(cell).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                // A worker's panic resumes here, as `scope` would raise it.
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        assessed.sort_unstable_by_key(|&(idx, _)| idx);
        let cells = assessed
            .into_iter()
            .map(|(_, cell)| cell)
            .collect::<Result<Vec<_>>>()?;
        Ok(TransferMatrix {
            spec: spec.clone(),
            cells,
        })
    }

    /// The matrix dimension N.
    pub fn n(&self) -> usize {
        self.spec.suites.len()
    }

    /// The cell for a (train, test) suite pair.
    pub fn cell(&self, train: SuiteKind, test: SuiteKind) -> Option<&MatrixCell> {
        self.cells
            .iter()
            .find(|c| c.train == train && c.test == test)
    }

    /// All cells trained on one suite, in column order.
    pub fn row(&self, train: SuiteKind) -> Vec<&MatrixCell> {
        self.cells.iter().filter(|c| c.train == train).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> MatrixSpec {
        MatrixSpec {
            suites: vec![SuiteKind::cpu2006(), SuiteKind::cpu2026()],
            n_samples: 1_200,
            train_fraction: 0.25,
            member_samples: 120,
            seed: 77,
            config: TransferConfig::default(),
        }
    }

    #[test]
    fn seeds_are_content_stable_per_suite() {
        let spec = MatrixSpec::canonical();
        let seeds: Vec<u64> = spec.suites.iter().map(|&s| spec.dataset_seed(s)).collect();
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len(), "per-suite seeds collide");
        // Reordering the suite list must not change any suite's seed.
        let mut reordered = spec.clone();
        reordered.suites.reverse();
        for &s in &spec.suites {
            assert_eq!(spec.dataset_seed(s), reordered.dataset_seed(s));
        }
    }

    #[test]
    fn assess_all_covers_every_pair_and_diagonal_transfers() {
        let ctx = PipelineContext::ephemeral();
        let spec = tiny_spec();
        let matrix = TransferMatrix::assess_all(&ctx, &spec, 2).unwrap();
        assert_eq!(matrix.cells.len(), 4);
        for &train in &spec.suites {
            for &test in &spec.suites {
                let cell = matrix.cell(train, test).expect("cell exists");
                assert_eq!(cell.members.len(), test.materialize().benchmarks().len());
            }
        }
        // Within-suite control passes; the two-generation jump fails.
        let same = matrix
            .cell(SuiteKind::cpu2006(), SuiteKind::cpu2006())
            .unwrap();
        assert!(
            same.report.accuracy_transferable(),
            "{}",
            same.report.render()
        );
        let far = matrix
            .cell(SuiteKind::cpu2006(), SuiteKind::cpu2026())
            .unwrap();
        assert!(!far.report.transferable(), "{}", far.report.render());
        assert!(far.report.metrics.mae > same.report.metrics.mae);
    }

    /// The matrix as the one-shot API computes it: for every pair,
    /// `TransferabilityReport::assess` plus `member_rows`, recompiling
    /// and re-summarizing per call.
    fn one_shot_cells(spec: &MatrixSpec) -> Vec<MatrixCell> {
        let ctx = PipelineContext::ephemeral();
        let artifacts: Vec<SuiteArtifacts> = spec
            .suites
            .iter()
            .map(|&kind| suite_artifacts(&ctx, spec, kind).unwrap())
            .collect();
        let pct = (spec.train_fraction * 100.0).round();
        let mut cells = Vec::new();
        for train in &artifacts {
            for test in &artifacts {
                let report = TransferabilityReport::assess(
                    &train.tree,
                    &train.train,
                    &test.rest,
                    &format!("{} ({pct:.0}%)", train.kind.display_name()),
                    &format!("{} (rest)", test.kind.display_name()),
                    &spec.config,
                )
                .unwrap();
                let members =
                    member_rows(&train.tree, &test.members, &spec.config.thresholds).unwrap();
                cells.push(MatrixCell {
                    train: train.kind,
                    test: test.kind,
                    report,
                    members,
                });
            }
        }
        cells
    }

    #[test]
    fn matrix_is_bit_identical_across_thread_counts() {
        // Every cell of the prepared-suite path equals the one-shot API
        // for the same pair, on every thread count.
        let spec = tiny_spec();
        let expected = one_shot_cells(&spec);
        for threads in [1, 2, 8] {
            let matrix =
                TransferMatrix::assess_all(&PipelineContext::ephemeral(), &spec, threads).unwrap();
            assert_eq!(matrix.cells, expected, "{threads} threads diverged");
        }
    }

    fn member(name: &str, mae: f64) -> MemberRow {
        MemberRow {
            benchmark: name.to_owned(),
            metrics: PredictionMetrics {
                correlation: 0.9,
                mae,
                rmse: mae,
                relative_absolute_error: 0.5,
                mean_predicted: 1.0,
                mean_actual: 1.0,
                n: 10,
            },
            transferable: mae <= 0.15,
        }
    }

    #[test]
    fn hardest_member_is_order_independent_with_nan_and_ties() {
        // A NaN MAE ranks above every number wherever it sits.
        let rows = [member("a", 0.2), member("nan", f64::NAN), member("b", 0.4)];
        for rotation in 0..rows.len() {
            let mut rotated = rows.to_vec();
            rotated.rotate_left(rotation);
            assert_eq!(hardest_member(&rotated).unwrap().benchmark, "nan");
        }
        // Exact ties go to the last tied row.
        let tied = [member("x", 0.3), member("low", 0.1), member("y", 0.3)];
        assert_eq!(hardest_member(&tied).unwrap().benchmark, "y");
        assert!(hardest_member(&[]).is_none());
    }

    #[test]
    fn hardest_member_picks_the_largest_mae() {
        let ctx = PipelineContext::ephemeral();
        let spec = tiny_spec();
        let matrix = TransferMatrix::assess_all(&ctx, &spec, 1).unwrap();
        let cell = matrix
            .cell(SuiteKind::cpu2006(), SuiteKind::cpu2006())
            .unwrap();
        let hardest = hardest_member(&cell.members).unwrap();
        for row in &cell.members {
            assert!(row.metrics.mae <= hardest.metrics.mae);
        }
    }
}
