//! Cache-identity verification for the pipeline's artifact store.
//!
//! The store's contract is **bit-identity**: resolving a spec against a
//! warm store must return exactly the bytes the cold computation
//! produced — every float compared via `to_bits`, across the same M5'
//! configuration lattice the differential suite sweeps — while the
//! stage counters prove the warm path did zero dataset generation and
//! zero tree fitting. Every test uses its own explicit temp-dir store
//! (never the environment-selected one), so cold runs are really cold.

use modeltree::ModelTree;
use perfcounters::{Dataset, EventId};
use pipeline::{
    codec, suite_tree_config, ArtifactStore, DatasetSpec, PipelineContext, StageCounters,
    SuiteKind, TransferSplitSpec, TreeSpec,
};
use std::sync::{Arc, Barrier};
use testkit::corner_lattice;
use testkit::generators::differential_dataset;

fn temp_store(tag: &str) -> ArtifactStore {
    let dir =
        std::env::temp_dir().join(format!("specrepro-cache-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ArtifactStore::open(dir)
}

/// Bit-exact dataset comparison: column floats via `to_bits`, labels
/// and the name table verbatim. Stricter than `PartialEq` (which treats
/// `-0.0 == 0.0` and can't see NaN payloads).
fn assert_bit_identical_datasets(a: &Dataset, b: &Dataset, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    assert_eq!(
        a.benchmark_names(),
        b.benchmark_names(),
        "{what}: name table"
    );
    let (ca, cb) = (a.columns(), b.columns());
    for (i, (x, y)) in ca.cpi().iter().zip(cb.cpi()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: cpi[{i}]");
    }
    for e in EventId::ALL {
        for (i, (x, y)) in ca.event(e).iter().zip(cb.event(e)).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {}[{i}]", e.short_name());
        }
    }
    for i in 0..a.len() {
        assert_eq!(a.label(i), b.label(i), "{what}: label[{i}]");
    }
}

/// Bit-exact tree comparison via the canonical serde rendering (floats
/// round-trip exactly through it — that is the codec's own invariant,
/// enforced in the pipeline unit tests).
fn assert_bit_identical_trees(a: &ModelTree, b: &ModelTree, what: &str) {
    let ja = serde_json::to_string(a).expect("tree serializes");
    let jb = serde_json::to_string(b).expect("tree serializes");
    assert_eq!(ja, jb, "{what}: serialized trees differ");
}

#[test]
fn warm_dataset_is_bit_identical_and_generates_nothing() {
    let store = temp_store("dataset-bits");
    for spec in [
        DatasetSpec::new(SuiteKind::cpu2006(), 900, 7),
        DatasetSpec::new(SuiteKind::omp2001(), 700, 8).with_memory_pressure(0.6),
        DatasetSpec::new(SuiteKind::cpu2006(), 500, 9).with_benchmark("429.mcf"),
    ] {
        let cold = PipelineContext::with_store(store.clone());
        let first = cold.dataset(&spec).expect("generates");
        assert_eq!(cold.counters().datasets_generated, 1);

        let warm = PipelineContext::with_store(store.clone());
        let second = warm.dataset(&spec).expect("loads");
        let c = warm.counters();
        assert_eq!(c.datasets_generated, 0, "warm run generated a dataset");
        assert_eq!(c.datasets_loaded, 1);
        assert_bit_identical_datasets(&first, &second, &spec.describe());
    }
    store.clear().unwrap();
}

#[test]
fn warm_trees_are_bit_identical_across_the_corner_lattice() {
    let store = temp_store("tree-lattice");
    let spec = DatasetSpec::new(SuiteKind::cpu2006(), 600, 11);

    let cold = PipelineContext::with_store(store.clone());
    let warm = PipelineContext::with_store(store.clone());
    for corner in corner_lattice() {
        let tree_spec = TreeSpec::new(spec.clone(), corner.config);
        let first = cold.tree(&tree_spec).expect("fits");
        let second = warm.tree(&tree_spec).expect("loads");
        assert_bit_identical_trees(&first, &second, &corner.name);
    }
    let c = warm.counters();
    assert_eq!(c.trees_fitted, 0, "warm lattice refit a tree");
    assert_eq!(c.datasets_generated, 0, "warm lattice regenerated data");
    // Corners differing only in smoothing-independent execution hints
    // (n_threads) share artifacts, so strictly fewer loads than corners.
    assert!(c.trees_loaded > 0);
    store.clear().unwrap();
}

/// `n_threads` is outside every key, so it must stay out of the stored
/// bytes too: otherwise the bytes a store holds (and `fit --out` writes,
/// and serve hashes into its model version) depend on which run filled
/// the store first.
#[test]
fn tree_bytes_do_not_depend_on_the_thread_count_that_filled_the_store() {
    let store = temp_store("thread-hint");
    let spec = DatasetSpec::new(SuiteKind::cpu2006(), 900, 31);
    let config = suite_tree_config(900);
    let eight = TreeSpec::new(spec.clone(), config.with_n_threads(8));
    PipelineContext::with_store(store.clone())
        .tree(&eight)
        .expect("fits");
    let warm = PipelineContext::with_store(store.clone());
    let loaded = warm.tree(&eight).expect("loads");
    assert_eq!(warm.counters().trees_fitted, 0, "the tree was not loaded");
    let serial = PipelineContext::ephemeral()
        .tree(&TreeSpec::new(spec, config.with_n_threads(1)))
        .expect("fits");
    assert!(
        codec::encode_tree(&loaded) == codec::encode_tree(&serial),
        "stored tree bytes carry the thread count of the fit that stored them"
    );
    store.clear().unwrap();
}

#[test]
fn external_datasets_cache_through_content_fingerprints() {
    let store = temp_store("external");
    // The differential generator covers adversarial shapes (constant
    // columns, duplicates, near-degenerate targets) — exactly the data
    // most likely to expose codec or fingerprint instability.
    for d in 0..4 {
        let data = differential_dataset(d);
        for corner in corner_lattice().into_iter().step_by(7) {
            let cold = PipelineContext::with_store(store.clone());
            let first = cold.tree_for(&data, &corner.config).expect("fits");
            let warm = PipelineContext::with_store(store.clone());
            let second = warm.tree_for(&data, &corner.config).expect("loads");
            assert_eq!(
                warm.counters().trees_fitted,
                0,
                "dataset {d} [{}]: warm run refit",
                corner.name
            );
            assert_bit_identical_trees(&first, &second, &corner.name);
        }
    }
    store.clear().unwrap();
}

#[test]
fn transfer_protocol_replays_bit_identically() {
    let store = temp_store("transfer-bits");
    let spec = TransferSplitSpec {
        cpu: DatasetSpec::new(SuiteKind::cpu2006(), 800, 21),
        omp: DatasetSpec::new(SuiteKind::omp2001(), 600, 22),
        seed: 23,
        fraction: 0.10,
    };
    let cold = PipelineContext::with_store(store.clone());
    let first = cold.transfer_split(&spec).expect("generates");

    let warm = PipelineContext::with_store(store.clone());
    let second = warm.transfer_split(&spec).expect("loads");
    let c = warm.counters();
    assert_eq!(c.datasets_generated, 0);
    assert_eq!(c.splits_computed, 0);
    assert_eq!(c.datasets_loaded, 4);
    for (a, b, what) in [
        (&first.cpu_train, &second.cpu_train, "cpu_train"),
        (&first.cpu_rest, &second.cpu_rest, "cpu_rest"),
        (&first.omp_train, &second.omp_train, "omp_train"),
        (&first.omp_rest, &second.omp_rest, "omp_rest"),
    ] {
        assert_bit_identical_datasets(a, b, what);
    }
    store.clear().unwrap();
}

#[test]
fn corrupted_and_truncated_artifacts_fall_back_to_recompute() {
    let store = temp_store("corruption");
    let spec = DatasetSpec::new(SuiteKind::cpu2006(), 400, 31);
    let cold = PipelineContext::with_store(store.clone());
    let original = cold.dataset(&spec).expect("generates");

    let dir = store
        .root()
        .join(format!("v{}", pipeline::SCHEMA_VERSION))
        .join("datasets");
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();

    // Corruption: flip one payload byte.
    let pristine = std::fs::read(&path).unwrap();
    let mut corrupt = pristine.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    std::fs::write(&path, &corrupt).unwrap();
    let healed = PipelineContext::with_store(store.clone());
    let recomputed = healed.dataset(&spec).expect("recomputes");
    assert_eq!(healed.counters().corrupt_evicted, 1);
    assert_eq!(healed.counters().datasets_generated, 1);
    assert_bit_identical_datasets(&original, &recomputed, "after corruption");

    // Truncation: drop the integrity-hash tail.
    std::fs::write(&path, &pristine[..pristine.len() - 5]).unwrap();
    let healed = PipelineContext::with_store(store.clone());
    let recomputed = healed.dataset(&spec).expect("recomputes");
    assert_eq!(healed.counters().corrupt_evicted, 1);
    assert_eq!(healed.counters().datasets_generated, 1);
    assert_bit_identical_datasets(&original, &recomputed, "after truncation");
    store.clear().unwrap();
}

#[test]
fn fingerprints_separate_every_closure_field() {
    // Spec-level key sensitivity is unit-tested in the pipeline crate;
    // this is the end-to-end version: contexts over one shared store
    // must not leak artifacts between adjacent specs.
    let store = temp_store("isolation");
    let a = DatasetSpec::new(SuiteKind::cpu2006(), 300, 41);
    let b = a.clone().with_seed(42);
    let ctx = PipelineContext::with_store(store.clone());
    let da = ctx.dataset(&a).expect("generates");
    let db = ctx.dataset(&b).expect("generates");
    assert_eq!(ctx.counters().datasets_generated, 2, "specs shared a key");
    assert_ne!(
        da.sample(0).cpi().to_bits(),
        db.sample(0).cpi().to_bits(),
        "different seeds produced identical first samples"
    );
    store.clear().unwrap();
}

/// Runs `resolve` on `n` threads that a barrier releases together.
fn resolve_together<T: Send>(n: usize, resolve: impl Fn() -> T + Sync) -> Vec<T> {
    let start = Barrier::new(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    resolve()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("resolver thread panicked"))
            .collect()
    })
}

#[test]
fn concurrent_askers_share_one_computation() {
    let ctx = PipelineContext::ephemeral();
    let spec = TreeSpec::new(
        DatasetSpec::new(SuiteKind::cpu2006(), 2000, 41),
        suite_tree_config(2000),
    );
    let trees: Vec<_> = resolve_together(8, || ctx.tree(&spec))
        .into_iter()
        .map(|tree| tree.expect("fits"))
        .collect();
    let c = ctx.counters();
    assert_eq!((c.datasets_generated, c.trees_fitted), (1, 1), "{c:?}");
    assert!(trees.iter().all(|tree| Arc::ptr_eq(tree, &trees[0])));
}

#[test]
fn concurrent_askers_all_receive_the_error() {
    let ctx = PipelineContext::ephemeral();
    let spec = TreeSpec::new(
        DatasetSpec::new(SuiteKind::cpu2006(), 2000, 41).with_benchmark("999.nonesuch"),
        suite_tree_config(2000),
    );
    for result in resolve_together(8, || ctx.tree(&spec)) {
        let err = result.expect_err("an unknown benchmark cannot resolve");
        assert!(err.to_string().contains("999.nonesuch"), "{err}");
    }
    assert_eq!(ctx.counters(), StageCounters::default());
}
