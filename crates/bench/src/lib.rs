//! Shared experiment configuration for the table/figure regeneration
//! binaries.
//!
//! The canonical seeds, sizes, and tree configuration live in the
//! [`pipeline`] crate's experiment registry and are re-exported here,
//! so `cargo run -p spec-bench --bin <exp>` regenerates each artifact
//! byte-identically whether the artifact store is cold or warm. The
//! helpers below resolve the canonical datasets and headline trees
//! through a [`PipelineContext`], which is what makes warm reruns of
//! every experiment skip generation and fitting entirely.

use modeltree::ModelTree;
use perfcounters::Dataset;
use pipeline::{DatasetSpec, PipelineContext, TransferSplit, TransferSplitSpec, TreeSpec};
use std::sync::Arc;
use transfer::{MatrixSpec, TransferMatrix};

pub mod artifacts;

pub use pipeline::{suite_tree_config, N_SAMPLES, SEED_CPU2006, SEED_OMP2001, SEED_SPLIT};

/// The canonical SPEC CPU2006 experiment dataset, generated directly
/// (no cache). Prefer [`cpu2006_artifacts`] in experiment binaries.
pub fn cpu2006_dataset() -> Dataset {
    DatasetSpec::cpu2006()
        .compute(1)
        .expect("canonical suite generation cannot fail")
}

/// Fits the headline tree for a suite dataset (no cache). Prefer the
/// `*_artifacts` helpers in experiment binaries.
pub fn fit_suite_tree(data: &Dataset) -> ModelTree {
    ModelTree::fit(data, &suite_tree_config(data.len())).expect("suite dataset is non-empty")
}

/// Resolves the canonical CPU2006 dataset and its headline tree
/// through `ctx` (cache hits on warm stores).
pub fn cpu2006_artifacts(ctx: &PipelineContext) -> (Arc<Dataset>, Arc<ModelTree>) {
    suite_artifacts(ctx, DatasetSpec::cpu2006())
}

/// Resolves the canonical OMP2001 dataset and its headline tree
/// through `ctx` (cache hits on warm stores).
pub fn omp2001_artifacts(ctx: &PipelineContext) -> (Arc<Dataset>, Arc<ModelTree>) {
    suite_artifacts(ctx, DatasetSpec::omp2001())
}

/// Resolves any suite dataset spec and its headline tree through `ctx`.
pub fn suite_artifacts(ctx: &PipelineContext, spec: DatasetSpec) -> (Arc<Dataset>, Arc<ModelTree>) {
    let data = ctx
        .dataset(&spec)
        .expect("suite generation cannot fail for registry specs");
    let tree = ctx
        .tree(&TreeSpec::suite_tree(spec))
        .expect("suite dataset is non-empty");
    (data, tree)
}

/// Resolves the Section VI transfer protocol — the four split parts and
/// the two 10% trees — through `ctx`. Both trees use the configuration
/// derived from the CPU training-set size, matching the checked-in
/// `results/transferability.txt` artifact.
pub fn transfer_artifacts(
    ctx: &PipelineContext,
) -> (TransferSplit, Arc<ModelTree>, Arc<ModelTree>) {
    let spec = TransferSplitSpec::canonical();
    let m5 = suite_tree_config(spec.cpu_train_len());
    let cpu_tree = ctx
        .tree(&TreeSpec {
            input: pipeline::DatasetInput::TransferPart(
                spec.clone(),
                pipeline::TransferPart::CpuTrain,
            ),
            config: m5,
        })
        .expect("cpu training split is non-empty");
    let omp_tree = ctx
        .tree(&TreeSpec {
            input: pipeline::DatasetInput::TransferPart(
                spec.clone(),
                pipeline::TransferPart::OmpTrain,
            ),
            config: m5,
        })
        .expect("omp training split is non-empty");
    let split = ctx
        .transfer_split(&spec)
        .expect("canonical suites generate");
    (split, cpu_tree, omp_tree)
}

/// Resolves the canonical E8 cross-generation transfer matrix through
/// `ctx`. The thread count only affects wall clock — the matrix is
/// bit-identical for every value.
pub fn matrix_artifacts(ctx: &PipelineContext, n_threads: usize) -> TransferMatrix {
    TransferMatrix::assess_all(ctx, &MatrixSpec::canonical(), n_threads)
        .expect("canonical suites assess")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_datasets_are_deterministic() {
        let a = cpu2006_dataset();
        let b = cpu2006_dataset();
        assert_eq!(a.len(), N_SAMPLES);
        assert_eq!(a.sample(0), b.sample(0));
        assert_eq!(a.sample(N_SAMPLES - 1), b.sample(N_SAMPLES - 1));
    }

    #[test]
    fn suite_config_scales_with_n() {
        assert_eq!(suite_tree_config(60_000).min_leaf, 300);
        assert_eq!(suite_tree_config(100).min_leaf, 4);
    }
}
