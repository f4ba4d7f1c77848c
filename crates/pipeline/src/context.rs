//! The pipeline orchestrator: stage execution with two cache layers.
//!
//! [`PipelineContext`] resolves specs to artifacts through
//!
//! 1. an in-process memo table (`Arc`-shared, so the golden-snapshot
//!    tests and multi-artifact bins reuse one materialized dataset), and
//! 2. the content-addressed [`ArtifactStore`] on disk (shared across
//!    processes and, in CI, across workflow runs).
//!
//! Every resolution is counted in [`StageCounters`], which is how the
//! warm-path guarantees are *tested* rather than assumed: a warm rerun
//! of an experiment must show `datasets_generated == 0` and
//! `trees_fitted == 0` while producing bit-identical artifacts.

use crate::fingerprint::{dataset_content_fingerprint, Fingerprint, FingerprintHasher};
use crate::spec::{
    DatasetInput, DatasetSpec, PipelineError, Result, SplitPart, SplitSpec, TransferPart,
    TransferSplitSpec, TreeSpec,
};
use crate::store::ArtifactStore;
use modeltree::{M5Config, ModelTree};
use perfcounters::Dataset;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counts of how each artifact this context resolved was obtained.
///
/// `*_generated` / `*_fitted` / `*_computed` mean real work happened;
/// `*_loaded` means the disk store supplied the artifact; memo hits are
/// not counted at all (the artifact was already in memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Datasets produced by running the workload generator.
    pub datasets_generated: usize,
    /// Datasets decoded from the disk store.
    pub datasets_loaded: usize,
    /// Split stages executed (shuffling an in-memory base dataset).
    pub splits_computed: usize,
    /// Trees produced by running the M5' trainer.
    pub trees_fitted: usize,
    /// Trees decoded from the disk store.
    pub trees_loaded: usize,
    /// Artifacts whose on-disk bytes failed format, integrity or
    /// version checks and were evicted (each one degrades to a
    /// recompute).
    pub corrupt_evicted: usize,
}

/// The four parts of a materialized Section VI transfer protocol, in
/// the order the protocol produces them.
#[derive(Debug, Clone)]
pub struct TransferSplit {
    /// CPU2006 10% training subset.
    pub cpu_train: Arc<Dataset>,
    /// CPU2006 remainder (evaluation set).
    pub cpu_rest: Arc<Dataset>,
    /// OMP2001 10% training subset.
    pub omp_train: Arc<Dataset>,
    /// OMP2001 remainder (evaluation set).
    pub omp_rest: Arc<Dataset>,
}

/// Lazy `{:.1?}` rendering of a duration for structured event fields —
/// nothing is formatted unless a log/trace sink is active.
struct Elapsed(std::time::Duration);

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1?}", self.0)
    }
}

#[derive(Default)]
struct Inner {
    datasets: HashMap<u128, Arc<Dataset>>,
    trees: HashMap<u128, Arc<ModelTree>>,
    counters: StageCounters,
}

/// Orchestrates stage execution over a memo table and an optional disk
/// store. Cheap to share behind an `Arc`; all methods take `&self`.
pub struct PipelineContext {
    store: Option<ArtifactStore>,
    logging: bool,
    gen_threads: usize,
    inner: Mutex<Inner>,
}

impl PipelineContext {
    /// A context over the environment-selected disk store (see
    /// [`ArtifactStore::from_env`]). Stage logging is enabled unless
    /// `SPECREPRO_OBS_LOG` is `0`/`off`.
    pub fn from_env() -> Self {
        PipelineContext::with_store(ArtifactStore::from_env())
            .with_logging(obskit::log_env_enabled())
    }

    /// A context with no disk store: memoizes in memory only. Used by
    /// tests that must observe true cold-path behavior.
    pub fn ephemeral() -> Self {
        PipelineContext {
            store: None,
            logging: false,
            gen_threads: 1,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A context over an explicit store (logging off).
    pub fn with_store(store: ArtifactStore) -> Self {
        PipelineContext {
            store: Some(store),
            ..PipelineContext::ephemeral()
        }
    }

    /// Enables or disables stage logging to stderr.
    #[must_use]
    pub fn with_logging(mut self, logging: bool) -> Self {
        self.logging = logging;
        self
    }

    /// Sets the thread-count execution hint for per-benchmark-stream
    /// generation (never affects artifact bytes).
    #[must_use]
    pub fn with_gen_threads(mut self, gen_threads: usize) -> Self {
        self.gen_threads = gen_threads.max(1);
        self
    }

    /// The disk store backing this context, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// A snapshot of the stage counters.
    pub fn counters(&self) -> StageCounters {
        self.inner.lock().expect("pipeline lock").counters
    }

    /// Emits one structured pipeline event: an instant event into the
    /// obskit trace buffer whenever tracing is enabled, plus a
    /// `[pipeline] name k=v` stderr line when this context's logging is
    /// on (the `SPECREPRO_OBS_LOG` surface). Field values are only
    /// rendered when a sink is active.
    fn event(&self, name: &'static str, fields: &[(&str, &dyn std::fmt::Display)]) {
        obskit::emit("pipeline", name, fields, self.logging);
    }

    fn memo_dataset(&self, key: Fingerprint) -> Option<Arc<Dataset>> {
        self.inner
            .lock()
            .expect("pipeline lock")
            .datasets
            .get(&key.0)
            .cloned()
    }

    fn memo_tree(&self, key: Fingerprint) -> Option<Arc<ModelTree>> {
        self.inner
            .lock()
            .expect("pipeline lock")
            .trees
            .get(&key.0)
            .cloned()
    }

    /// Tries the disk store, counting loads and corrupt evictions.
    fn load_dataset(&self, key: Fingerprint, what: &str) -> Option<Dataset> {
        use obskit::metrics::{incr, Metric};
        let store = self.store.as_ref()?;
        let start = Instant::now();
        match store.load_dataset(key) {
            Ok(data) => {
                let mut inner = self.inner.lock().expect("pipeline lock");
                inner.counters.datasets_loaded += 1;
                drop(inner);
                incr(Metric::PipelineDatasetHits);
                self.event(
                    "dataset.hit",
                    &[
                        ("key", &key),
                        ("what", &what),
                        ("elapsed", &Elapsed(start.elapsed())),
                    ],
                );
                Some(data)
            }
            Err(None) => None,
            Err(Some(reason)) => {
                let mut inner = self.inner.lock().expect("pipeline lock");
                inner.counters.corrupt_evicted += 1;
                drop(inner);
                incr(Metric::PipelineCorruptEvictions);
                self.event(
                    "dataset.evict",
                    &[("key", &key), ("what", &what), ("reason", &reason)],
                );
                None
            }
        }
    }

    fn load_tree(&self, key: Fingerprint, what: &str) -> Option<ModelTree> {
        use obskit::metrics::{incr, Metric};
        let store = self.store.as_ref()?;
        let start = Instant::now();
        match store.load_tree(key) {
            Ok(tree) => {
                let mut inner = self.inner.lock().expect("pipeline lock");
                inner.counters.trees_loaded += 1;
                drop(inner);
                incr(Metric::PipelineTreeHits);
                self.event(
                    "tree.hit",
                    &[
                        ("key", &key),
                        ("what", &what),
                        ("elapsed", &Elapsed(start.elapsed())),
                    ],
                );
                Some(tree)
            }
            Err(None) => None,
            Err(Some(reason)) => {
                let mut inner = self.inner.lock().expect("pipeline lock");
                inner.counters.corrupt_evicted += 1;
                drop(inner);
                incr(Metric::PipelineCorruptEvictions);
                self.event(
                    "tree.evict",
                    &[("key", &key), ("what", &what), ("reason", &reason)],
                );
                None
            }
        }
    }

    /// Best-effort disk write (an unwritable cache degrades to
    /// recompute-always, never to failure).
    fn persist_dataset(&self, key: Fingerprint, data: &Dataset, what: &str) {
        if let Some(store) = &self.store {
            if let Err(e) = store.store_dataset(key, data) {
                self.event(
                    "dataset.store_failed",
                    &[("key", &key), ("what", &what), ("error", &e)],
                );
            }
        }
    }

    fn persist_tree(&self, key: Fingerprint, tree: &ModelTree, what: &str) {
        if let Some(store) = &self.store {
            if let Err(e) = store.store_tree(key, tree) {
                self.event(
                    "tree.store_failed",
                    &[("key", &key), ("what", &what), ("error", &e)],
                );
            }
        }
    }

    fn insert_dataset(&self, key: Fingerprint, data: Dataset) -> Arc<Dataset> {
        let data = Arc::new(data);
        let mut inner = self.inner.lock().expect("pipeline lock");
        inner.datasets.entry(key.0).or_insert_with(|| data).clone()
    }

    fn insert_tree(&self, key: Fingerprint, tree: ModelTree) -> Arc<ModelTree> {
        let tree = Arc::new(tree);
        let mut inner = self.inner.lock().expect("pipeline lock");
        inner.trees.entry(key.0).or_insert_with(|| tree).clone()
    }

    /// Resolves a generated dataset: memo, then store, then the
    /// workload generator.
    ///
    /// # Errors
    ///
    /// Fails when the spec names a benchmark its suite doesn't contain.
    pub fn dataset(&self, spec: &DatasetSpec) -> Result<Arc<Dataset>> {
        let key = spec.fingerprint();
        let what = spec.describe();
        if let Some(data) = self.memo_dataset(key) {
            return Ok(data);
        }
        if let Some(data) = self.load_dataset(key, &what) {
            return Ok(self.insert_dataset(key, data));
        }
        let start = Instant::now();
        let data = {
            let _span = obskit::span("pipeline", "pipeline.generate");
            spec.compute(self.gen_threads)?
        };
        {
            let mut inner = self.inner.lock().expect("pipeline lock");
            inner.counters.datasets_generated += 1;
        }
        obskit::metrics::incr(obskit::metrics::Metric::PipelineDatasetMisses);
        self.event(
            "dataset.miss",
            &[
                ("key", &key),
                ("what", &what),
                ("elapsed", &Elapsed(start.elapsed())),
            ],
        );
        self.persist_dataset(key, &data, &what);
        Ok(self.insert_dataset(key, data))
    }

    /// Resolves both halves of a random split. When both parts are
    /// cached the base dataset is not materialized at all.
    ///
    /// # Errors
    ///
    /// Propagates base-dataset resolution failures.
    pub fn split(&self, spec: &SplitSpec) -> Result<(Arc<Dataset>, Arc<Dataset>)> {
        let keys = [
            spec.part_fingerprint(SplitPart::First),
            spec.part_fingerprint(SplitPart::Second),
        ];
        let what = spec.describe();
        if let (Some(first), Some(second)) = (
            self.resolve_cached_dataset(keys[0], &what),
            self.resolve_cached_dataset(keys[1], &what),
        ) {
            return Ok((first, second));
        }
        let base = self.dataset(&spec.base)?;
        let start = Instant::now();
        let (first, second) = {
            let _span = obskit::span("pipeline", "pipeline.split");
            spec.compute(&base)
        };
        {
            let mut inner = self.inner.lock().expect("pipeline lock");
            inner.counters.splits_computed += 1;
        }
        obskit::metrics::incr(obskit::metrics::Metric::PipelineSplitsComputed);
        self.event(
            "split.miss",
            &[("what", &what), ("elapsed", &Elapsed(start.elapsed()))],
        );
        self.persist_dataset(keys[0], &first, &what);
        self.persist_dataset(keys[1], &second, &what);
        Ok((
            self.insert_dataset(keys[0], first),
            self.insert_dataset(keys[1], second),
        ))
    }

    /// Resolves all four parts of the Section VI transfer protocol.
    /// When every part is cached, neither suite dataset is materialized.
    ///
    /// # Errors
    ///
    /// Propagates suite-dataset resolution failures.
    pub fn transfer_split(&self, spec: &TransferSplitSpec) -> Result<TransferSplit> {
        let keys = TransferPart::ALL.map(|p| spec.part_fingerprint(p));
        let what = spec.describe();
        let cached: Vec<Option<Arc<Dataset>>> = keys
            .iter()
            .map(|&k| self.resolve_cached_dataset(k, &what))
            .collect();
        if cached.iter().all(Option::is_some) {
            let mut parts = cached.into_iter().map(|p| p.expect("checked above"));
            return Ok(TransferSplit {
                cpu_train: parts.next().expect("four parts"),
                cpu_rest: parts.next().expect("four parts"),
                omp_train: parts.next().expect("four parts"),
                omp_rest: parts.next().expect("four parts"),
            });
        }
        let cpu = self.dataset(&spec.cpu)?;
        let omp = self.dataset(&spec.omp)?;
        let start = Instant::now();
        let parts = {
            let _span = obskit::span("pipeline", "pipeline.split");
            spec.compute(&cpu, &omp)
        };
        {
            let mut inner = self.inner.lock().expect("pipeline lock");
            inner.counters.splits_computed += 1;
        }
        obskit::metrics::incr(obskit::metrics::Metric::PipelineSplitsComputed);
        self.event(
            "split.miss",
            &[("what", &what), ("elapsed", &Elapsed(start.elapsed()))],
        );
        let [cpu_train, cpu_rest, omp_train, omp_rest] = parts;
        for (key, part) in keys
            .iter()
            .zip([&cpu_train, &cpu_rest, &omp_train, &omp_rest])
        {
            self.persist_dataset(*key, part, &what);
        }
        Ok(TransferSplit {
            cpu_train: self.insert_dataset(keys[0], cpu_train),
            cpu_rest: self.insert_dataset(keys[1], cpu_rest),
            omp_train: self.insert_dataset(keys[2], omp_train),
            omp_rest: self.insert_dataset(keys[3], omp_rest),
        })
    }

    /// Memo-or-store lookup that never computes (used by split stages
    /// to short-circuit when every part is already cached).
    fn resolve_cached_dataset(&self, key: Fingerprint, what: &str) -> Option<Arc<Dataset>> {
        if let Some(data) = self.memo_dataset(key) {
            return Some(data);
        }
        let data = self.load_dataset(key, what)?;
        Some(self.insert_dataset(key, data))
    }

    /// Resolves the input dataset of a tree spec.
    ///
    /// # Errors
    ///
    /// Propagates dataset resolution failures.
    pub fn input_dataset(&self, input: &DatasetInput) -> Result<Arc<Dataset>> {
        match input {
            DatasetInput::Suite(spec) => self.dataset(spec),
            DatasetInput::SplitPart(split, part) => {
                let (first, second) = self.split(split)?;
                Ok(match part {
                    SplitPart::First => first,
                    SplitPart::Second => second,
                })
            }
            DatasetInput::TransferPart(split, part) => {
                let parts = self.transfer_split(split)?;
                Ok(match part {
                    TransferPart::CpuTrain => parts.cpu_train,
                    TransferPart::CpuRest => parts.cpu_rest,
                    TransferPart::OmpTrain => parts.omp_train,
                    TransferPart::OmpRest => parts.omp_rest,
                })
            }
        }
    }

    /// Resolves a fitted model tree: memo, then store, then the M5'
    /// trainer on the resolved input dataset. On a full hit the
    /// training data is never materialized.
    ///
    /// # Errors
    ///
    /// Propagates input resolution failures and trainer errors
    /// (degenerate training data, invalid configuration).
    pub fn tree(&self, spec: &TreeSpec) -> Result<Arc<ModelTree>> {
        let key = spec.fingerprint();
        let what = spec.describe();
        if let Some(tree) = self.memo_tree(key) {
            return Ok(tree);
        }
        if let Some(tree) = self.load_tree(key, &what) {
            return Ok(self.insert_tree(key, tree));
        }
        let data = self.input_dataset(&spec.input)?;
        self.fit_and_cache(key, &data, &spec.config, &what)
    }

    /// Resolves a tree over an *externally supplied* dataset (e.g. a
    /// CSV the CLI read from disk), keyed by the dataset's content
    /// fingerprint plus the trainer configuration.
    ///
    /// # Errors
    ///
    /// Propagates trainer errors.
    pub fn tree_for(&self, data: &Dataset, config: &M5Config) -> Result<Arc<ModelTree>> {
        let mut h = FingerprintHasher::new("tree");
        let content = dataset_content_fingerprint(data);
        h.write_u64(content.0 as u64);
        h.write_u64((content.0 >> 64) as u64);
        crate::fingerprint::Fingerprintable::fingerprint_into(config, &mut h);
        let key = h.finish();
        let what = format!("m5(min_leaf={}) on external data", config.min_leaf);
        if let Some(tree) = self.memo_tree(key) {
            return Ok(tree);
        }
        if let Some(tree) = self.load_tree(key, &what) {
            return Ok(self.insert_tree(key, tree));
        }
        self.fit_and_cache(key, data, config, &what)
    }

    fn fit_and_cache(
        &self,
        key: Fingerprint,
        data: &Dataset,
        config: &M5Config,
        what: &str,
    ) -> Result<Arc<ModelTree>> {
        let start = Instant::now();
        let tree = {
            let _span = obskit::span("pipeline", "pipeline.fit");
            ModelTree::fit(data, config).map_err(PipelineError::from)?
        };
        {
            let mut inner = self.inner.lock().expect("pipeline lock");
            inner.counters.trees_fitted += 1;
        }
        obskit::metrics::incr(obskit::metrics::Metric::PipelineTreeMisses);
        self.event(
            "tree.miss",
            &[
                ("key", &key),
                ("what", &what),
                ("elapsed", &Elapsed(start.elapsed())),
            ],
        );
        self.persist_tree(key, &tree, what);
        Ok(self.insert_tree(key, tree))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{suite_tree_config, SuiteKind};

    fn small_spec() -> DatasetSpec {
        DatasetSpec::new(SuiteKind::cpu2006(), 600, 11)
    }

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("specrepro-ctx-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir)
    }

    #[test]
    fn memoizes_within_a_context() {
        let ctx = PipelineContext::ephemeral();
        let a = ctx.dataset(&small_spec()).unwrap();
        let b = ctx.dataset(&small_spec()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.counters().datasets_generated, 1);
    }

    #[test]
    fn warm_context_does_no_work() {
        let store = temp_store("warm");
        let spec = TreeSpec::new(small_spec(), suite_tree_config(600));
        let cold = PipelineContext::with_store(store.clone());
        let cold_tree = cold.tree(&spec).unwrap();
        assert_eq!(cold.counters().datasets_generated, 1);
        assert_eq!(cold.counters().trees_fitted, 1);

        let warm = PipelineContext::with_store(store.clone());
        let warm_tree = warm.tree(&spec).unwrap();
        let c = warm.counters();
        assert_eq!(c.datasets_generated, 0);
        assert_eq!(c.trees_fitted, 0);
        assert_eq!(c.trees_loaded, 1);
        // The training dataset is never even touched on a tree hit.
        assert_eq!(c.datasets_loaded, 0);
        assert_eq!(*warm_tree, *cold_tree);
        store.clear().unwrap();
    }

    #[test]
    fn warm_split_skips_base_generation() {
        let store = temp_store("split");
        let spec = SplitSpec::new(small_spec(), 5, 0.5);
        let cold = PipelineContext::with_store(store.clone());
        let (a1, b1) = cold.split(&spec).unwrap();
        assert_eq!(cold.counters().datasets_generated, 1);
        assert_eq!(cold.counters().splits_computed, 1);

        let warm = PipelineContext::with_store(store.clone());
        let (a2, b2) = warm.split(&spec).unwrap();
        let c = warm.counters();
        assert_eq!(c.datasets_generated, 0);
        assert_eq!(c.splits_computed, 0);
        assert_eq!(c.datasets_loaded, 2);
        assert_eq!(*a1, *a2);
        assert_eq!(*b1, *b2);
        store.clear().unwrap();
    }

    #[test]
    fn transfer_split_fully_cached_on_rerun() {
        let store = temp_store("transfer");
        let spec = TransferSplitSpec {
            cpu: DatasetSpec::new(SuiteKind::cpu2006(), 500, 1),
            omp: DatasetSpec::new(SuiteKind::omp2001(), 400, 2),
            seed: 3,
            fraction: 0.10,
        };
        let cold = PipelineContext::with_store(store.clone());
        let cold_parts = cold.transfer_split(&spec).unwrap();
        assert_eq!(cold.counters().datasets_generated, 2);

        let warm = PipelineContext::with_store(store.clone());
        let warm_parts = warm.transfer_split(&spec).unwrap();
        let c = warm.counters();
        assert_eq!(c.datasets_generated, 0);
        assert_eq!(c.splits_computed, 0);
        assert_eq!(c.datasets_loaded, 4);
        assert_eq!(*cold_parts.cpu_train, *warm_parts.cpu_train);
        assert_eq!(*cold_parts.omp_rest, *warm_parts.omp_rest);
        store.clear().unwrap();
    }

    #[test]
    fn corrupt_artifact_recomputes_identically() {
        let store = temp_store("heal");
        let spec = small_spec();
        let key = spec.fingerprint();
        let cold = PipelineContext::with_store(store.clone());
        let original = cold.dataset(&spec).unwrap();

        // Flip one byte in the stored artifact.
        let dir = store.root().join("v1").join("datasets");
        let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
        let mut bytes = std::fs::read(entry.path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(entry.path(), &bytes).unwrap();

        let warm = PipelineContext::with_store(store.clone());
        let healed = warm.dataset(&spec).unwrap();
        let c = warm.counters();
        assert_eq!(c.corrupt_evicted, 1);
        assert_eq!(c.datasets_generated, 1);
        assert_eq!(*healed, *original);
        // The recompute re-populated the store.
        assert!(store.load_dataset(key).is_ok());
        store.clear().unwrap();
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let ctx = PipelineContext::ephemeral();
        let spec = small_spec().with_benchmark("999.nonesuch");
        let err = ctx.dataset(&spec).unwrap_err();
        assert!(err.to_string().contains("999.nonesuch"));
    }
}
