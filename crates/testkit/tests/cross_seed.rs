//! Cross-seed findings: the paper's headline claims, as this repository
//! reproduces them, must hold across seeds — not only at the one seed
//! each golden in `results/` pins.
//!
//! A golden checks bytes at one seed. A finding that flips at the next
//! seed is a property of that seed, not of the model, so this suite
//! re-runs each experiment over `K` seeds and asserts, per finding, the
//! fraction of seeds for which it holds:
//!
//! | finding | experiment |
//! |---|---|
//! | the CPU2006 tree's root splits on DtlbMiss | E2 (Figure 1) |
//! | the OMP2001 tree's root splits on LdBlkOlp | E5 (Figure 2) |
//! | transfer between OMP2001 and CPU2006 is rejected both ways | E7 |
//! | every diagonal cell of the generation matrix transfers | E8 |
//! | the 2006 model's MAE rises 2006 → 2017 → 2026 | E8 |
//!
//! Seed `k` adds `k` to every canonical seed (dataset, split and matrix
//! seeds alike), so `k = 0` is the canonical experiment at the scale in
//! use. Tier-1 runs `K = 4` at smoke scale (6k samples per suite, the
//! smoke-scale matrix); `TESTKIT_FULL=1` runs `K = 32` at experiment
//! scale (60k samples per suite, the canonical 20k-sample matrix).
//!
//! The thresholds are pass counts, registered before the generator
//! they judge was changed. Each was measured on the Box–Muller
//! generator over 32 seeds at its scale and set by one rule: the
//! largest count that a generator with the same (Laplace-smoothed)
//! pass rate would miss with probability at most 2.5% (binomial). So a
//! threshold sits below 1.0 where the finding itself is a coin that
//! sometimes lands the other way: every E8 diagonal transfers in only
//! about 70% of seeds, because each diagonal cell runs five t-tests at
//! α = 0.05 and one chance rejection fails it. A generator change must
//! keep every finding at or above its threshold; lowering a threshold
//! to admit a change defeats the check.

use std::sync::Arc;

use modeltree::ModelTree;
use perfcounters::{Dataset, EventId};
use pipeline::{
    suite_tree_config, DatasetInput, DatasetSpec, PipelineContext, SuiteKind, TransferPart,
    TransferSplitSpec, TreeSpec, SEED_CPU2006, SEED_OMP2001, SEED_SPLIT,
};
use transfer::{MatrixSpec, TransferConfig, TransferMatrix, TransferabilityReport};

/// One scale of the sweep: seeds, samples per suite, and the matrix.
struct Scale {
    name: &'static str,
    seeds: u64,
    n_samples: usize,
    matrix: MatrixSpec,
    /// Pre-registered minimum number of passing seeds per finding, in
    /// [`FINDINGS`] order.
    min_passes: [u64; 5],
}

const FINDINGS: [&str; 5] = [
    "E2 root splits on DtlbMiss",
    "E5 root splits on LdBlkOlp",
    "E7 rejects OMP2001 <-> CPU2006",
    "E8 every diagonal transfers",
    "E8 2006 MAE decays 2006 -> 2017 -> 2026",
];

fn scale() -> Scale {
    if testkit::full_depth() {
        Scale {
            name: "experiment",
            seeds: 32,
            n_samples: pipeline::N_SAMPLES,
            matrix: MatrixSpec::canonical(),
            // Version-1 (Box–Muller) passes over 32 seeds: 32, 32, 32, 24, 32.
            min_passes: [29, 29, 29, 18, 29],
        }
    } else {
        Scale {
            name: "smoke",
            seeds: 4,
            n_samples: 6_000,
            matrix: MatrixSpec {
                // Member sets do not enter any finding here.
                member_samples: 40,
                ..MatrixSpec::smoke()
            },
            // Version-1 (Box–Muller) passes over 32 seeds at this scale:
            // 32, 32, 32, 22, 30 (and 4, 4, 4, 3, 4 over the first 4).
            min_passes: [3, 3, 3, 1, 2],
        }
    }
}

fn root_is(ctx: &PipelineContext, kind: SuiteKind, n: usize, seed: u64, root: EventId) -> bool {
    let spec = DatasetSpec::new(kind, n, seed);
    let tree = ctx.tree(&TreeSpec::suite_tree(spec)).expect("suite tree");
    tree.root_split_event() == Some(root)
}

/// E7 at seed offset `k`: both cross-suite directions must be rejected.
fn e7_rejects_cross_suite(ctx: &PipelineContext, n: usize, k: u64) -> bool {
    let spec = TransferSplitSpec {
        cpu: DatasetSpec::new(SuiteKind::cpu2006(), n, SEED_CPU2006.wrapping_add(k)),
        omp: DatasetSpec::new(SuiteKind::omp2001(), n, SEED_OMP2001.wrapping_add(k)),
        seed: SEED_SPLIT.wrapping_add(k),
        fraction: 0.10,
    };
    let m5 = suite_tree_config(spec.cpu_train_len());
    let tree = |part| -> Arc<ModelTree> {
        ctx.tree(&TreeSpec {
            input: DatasetInput::TransferPart(spec.clone(), part),
            config: m5,
        })
        .expect("transfer tree")
    };
    let split = ctx.transfer_split(&spec).expect("transfer split");
    let config = TransferConfig::default();
    let assess = |tree: &ModelTree, train: &Dataset, test: &Dataset| {
        TransferabilityReport::assess(tree, train, test, "train", "test", &config)
            .expect("assess")
            .transferable()
    };
    let cpu_to_omp = assess(
        &tree(TransferPart::CpuTrain),
        &split.cpu_train,
        &split.omp_rest,
    );
    let omp_to_cpu = assess(
        &tree(TransferPart::OmpTrain),
        &split.omp_train,
        &split.cpu_rest,
    );
    !cpu_to_omp && !omp_to_cpu
}

/// E8 at seed offset `k`: (every diagonal transfers, 2006 MAE decays).
fn e8_findings(ctx: &PipelineContext, base: &MatrixSpec, k: u64) -> (bool, bool) {
    let mut spec = base.clone();
    spec.seed = spec.seed.wrapping_add(k);
    let matrix = TransferMatrix::assess_all(ctx, &spec, 2).expect("matrix");
    let diagonal = spec.suites.iter().all(|&s| {
        matrix
            .cell(s, s)
            .expect("diagonal cell")
            .report
            .transferable()
    });
    let mae = |test| {
        matrix
            .cell(SuiteKind::cpu2006(), test)
            .expect("2006 row")
            .report
            .metrics
            .mae
    };
    let decays = mae(SuiteKind::cpu2006()) < mae(SuiteKind::cpu2017())
        && mae(SuiteKind::cpu2017()) < mae(SuiteKind::cpu2026());
    (diagonal, decays)
}

#[test]
fn paper_findings_hold_across_seeds() {
    let scale = scale();
    let mut passes = [0u64; 5];
    for k in 0..scale.seeds {
        // A fresh in-memory context per seed: no store, nothing shared
        // between seeds but the code.
        let ctx = PipelineContext::ephemeral();
        let n = scale.n_samples;
        let held = [
            root_is(
                &ctx,
                SuiteKind::cpu2006(),
                n,
                SEED_CPU2006.wrapping_add(k),
                EventId::DtlbMiss,
            ),
            root_is(
                &ctx,
                SuiteKind::omp2001(),
                n,
                SEED_OMP2001.wrapping_add(k),
                EventId::LdBlkOlp,
            ),
            e7_rejects_cross_suite(&ctx, n, k),
        ];
        let (diagonal, decays) = e8_findings(&ctx, &scale.matrix, k);
        for (count, ok) in passes
            .iter_mut()
            .zip(held.into_iter().chain([diagonal, decays]))
        {
            *count += u64::from(ok);
        }
    }
    let mut failures = Vec::new();
    println!(
        "cross-seed findings at {} scale, K = {}:",
        scale.name, scale.seeds
    );
    for ((finding, &count), &min) in FINDINGS.iter().zip(&passes).zip(&scale.min_passes) {
        let k = scale.seeds;
        let fraction = count as f64 / k as f64;
        println!("  {finding:<42} {count:>2}/{k} = {fraction:.3} (threshold {min}/{k})");
        if count < min {
            failures.push(format!("{finding}: {count}/{k} < {min}/{k}"));
        }
    }
    assert!(
        failures.is_empty(),
        "findings below threshold: {failures:?}"
    );
}
