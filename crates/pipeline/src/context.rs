//! The pipeline orchestrator: stage execution with two cache layers.
//!
//! [`PipelineContext`] resolves specs to artifacts through
//!
//! 1. an in-process memo table (`Arc`-shared, so the golden-snapshot
//!    tests and multi-artifact bins reuse one materialized dataset), and
//! 2. the content-addressed [`ArtifactStore`] on disk (shared across
//!    processes and, in CI, across workflow runs).
//!
//! Every stage goes through one resolver. A stage names a *group* of
//! part keys — one for a dataset or tree, two for a [`SplitSpec`], four
//! for a [`TransferSplitSpec`] — and the resolver tries the memo, then
//! the store (a group loads whole or not at all), then computes every
//! part, counting, logging, persisting and memoizing in one place.
//!
//! **Single flight.** A group is computed at most once per context. Its
//! memo entry, keyed by its first key, is a [`OnceLock`]: the first
//! thread to miss the group takes the entry under the context lock and
//! fills it outside the lock. Threads that ask meanwhile block on the
//! entry (`pipeline.inflight_waits`), then share its `Arc`s or get a
//! clone of its error. A filler that panics leaves the entry empty, and
//! the next caller, blocked or new, fills it itself. An error leaves the
//! memo once returned, so a later ask retries.
//!
//! Every resolution is counted in [`StageCounters`], which is how the
//! warm-path guarantees are *tested* rather than assumed: a warm rerun
//! of an experiment must show `datasets_generated == 0` and
//! `trees_fitted == 0` while producing bit-identical artifacts.

use crate::fingerprint::{
    dataset_content_fingerprint, Fingerprint, FingerprintHasher, Fingerprintable,
};
use crate::spec::{
    DatasetInput, DatasetSpec, PipelineError, Result, SplitPart, SplitSpec, TransferPart,
    TransferSplitSpec, TreeSpec,
};
use crate::store::{ArtifactStore, StoredArtifact};
use modeltree::{M5Config, ModelTree};
use obskit::metrics::{incr, Metric};
use perfcounters::Dataset;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Display;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
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

impl Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1?}", self.0)
    }
}

/// Locks a mutex whether or not a panicking thread poisoned it: every
/// critical section here leaves its state consistent at unlock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the resolver needs of one artifact kind beyond its codec: its
/// memo table, its load counter, and the metric and events of a load.
trait Artifact: StoredArtifact {
    const HIT: &'static str;
    const EVICT: &'static str;
    const STORE_FAILED: &'static str;
    const HIT_METRIC: Metric;
    fn tables(inner: &mut Inner) -> (&mut HashMap<u128, Group<Self>>, &mut usize);
}

impl Artifact for Dataset {
    const HIT: &'static str = "dataset.hit";
    const EVICT: &'static str = "dataset.evict";
    const STORE_FAILED: &'static str = "dataset.store_failed";
    const HIT_METRIC: Metric = Metric::PipelineDatasetHits;
    fn tables(inner: &mut Inner) -> (&mut HashMap<u128, Group<Self>>, &mut usize) {
        (&mut inner.datasets, &mut inner.counters.datasets_loaded)
    }
}

impl Artifact for ModelTree {
    const HIT: &'static str = "tree.hit";
    const EVICT: &'static str = "tree.evict";
    const STORE_FAILED: &'static str = "tree.store_failed";
    const HIT_METRIC: Metric = Metric::PipelineTreeHits;
    fn tables(inner: &mut Inner) -> (&mut HashMap<u128, Group<Self>>, &mut usize) {
        (&mut inner.trees, &mut inner.counters.trees_loaded)
    }
}

/// The compute side of one stage: its trace span, its miss event, and
/// the counter and metric one computation bumps.
struct Stage {
    span: &'static str,
    miss: &'static str,
    metric: Metric,
    computed: fn(&mut StageCounters) -> &mut usize,
}

const GENERATE: Stage = Stage {
    span: "pipeline.generate",
    miss: "dataset.miss",
    metric: Metric::PipelineDatasetMisses,
    computed: |c| &mut c.datasets_generated,
};

const SPLIT: Stage = Stage {
    span: "pipeline.split",
    miss: "split.miss",
    metric: Metric::PipelineSplitsComputed,
    computed: |c| &mut c.splits_computed,
};

const FIT: Stage = Stage {
    span: "pipeline.fit",
    miss: "tree.miss",
    metric: Metric::PipelineTreeMisses,
    computed: |c| &mut c.trees_fitted,
};

/// One group's memo entry: its parts in key order, or the error of its
/// one computation. Filled at most once; a filler that panics leaves it
/// empty for the next caller.
type Group<T> = Arc<OnceLock<Result<Box<[Arc<T>]>>>>;

#[derive(Default)]
struct Inner {
    /// Dataset groups, by their first key.
    datasets: HashMap<u128, Group<Dataset>>,
    /// Tree groups, by their key.
    trees: HashMap<u128, Group<ModelTree>>,
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

    /// Sets the thread-count execution hint for generation (never
    /// affects artifact bytes).
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
        lock(&self.inner).counters
    }

    /// Emits one structured pipeline event about `key`: an instant
    /// event into the obskit trace buffer whenever tracing is enabled,
    /// plus a `[pipeline] name key=… what=… field=value` stderr line when
    /// this context's logging is on (the `SPECREPRO_OBS_LOG` surface).
    /// Field values are only rendered when a sink is active.
    fn event(
        &self,
        name: &'static str,
        key: Fingerprint,
        what: &str,
        field: &str,
        value: impl Display,
    ) {
        let fields: [(&str, &dyn Display); 3] = [("key", &key), ("what", &what), (field, &value)];
        obskit::emit("pipeline", name, &fields, self.logging);
    }

    /// Resolves one group of parts: memo, then store, then `inputs` and
    /// `compute`, with at most one thread working on a group.
    ///
    /// The filler of a group resolves `inputs`, which fills other groups
    /// while it holds this one. A stage's inputs are always artifacts of
    /// earlier stages, so these nested fills form a DAG and no two
    /// fillers ever wait on each other.
    fn resolve<T: Artifact, I, const N: usize>(
        &self,
        keys: [Fingerprint; N],
        what: &str,
        stage: &Stage,
        inputs: impl FnOnce() -> Result<I>,
        compute: impl FnOnce(I) -> Result<[T; N]>,
    ) -> Result<[Arc<T>; N]> {
        let group = match T::tables(&mut lock(&self.inner)).0.entry(keys[0].0) {
            Entry::Occupied(entry) => {
                if entry.get().get().is_none() {
                    incr(Metric::PipelineInflightWaits);
                }
                Arc::clone(entry.get())
            }
            Entry::Vacant(entry) => Arc::clone(entry.insert(Group::default())),
        };
        let parts = group.get_or_init(|| {
            let parts = self.load_or_compute(&keys, what, stage, inputs, compute)?;
            Ok(parts.map(Arc::new).into())
        });
        match parts {
            Ok(parts) => <&[Arc<T>; N]>::try_from(&parts[..])
                .cloned()
                .map_err(|_| PipelineError(format!("group {} has another part count", keys[0]))),
            Err(error) => {
                if let Entry::Occupied(entry) = T::tables(&mut lock(&self.inner)).0.entry(keys[0].0)
                {
                    if Arc::ptr_eq(entry.get(), &group) {
                        entry.remove();
                    }
                }
                Err(error.clone())
            }
        }
    }

    /// The filler's half of [`PipelineContext::resolve`]: every part from
    /// the store, or one computation, counted, logged and persisted.
    fn load_or_compute<T: Artifact, I, const N: usize>(
        &self,
        keys: &[Fingerprint; N],
        what: &str,
        stage: &Stage,
        inputs: impl FnOnce() -> Result<I>,
        compute: impl FnOnce(I) -> Result<[T; N]>,
    ) -> Result<[T; N]> {
        if let Some(parts) = collect_parts(keys.iter().map(|&k| self.load(k, what))) {
            return Ok(parts);
        }
        let input = inputs()?;
        let start = Instant::now();
        let parts = {
            let _span = obskit::span("pipeline", stage.span);
            compute(input)?
        };
        *(stage.computed)(&mut lock(&self.inner).counters) += 1;
        incr(stage.metric);
        let elapsed = Elapsed(start.elapsed());
        self.event(stage.miss, keys[0], what, "elapsed", elapsed);
        if let Some(store) = &self.store {
            for (&key, part) in keys.iter().zip(&parts) {
                // Best effort: an unwritable cache degrades to
                // recompute-always, never to failure.
                if let Err(e) = store.put(key, part) {
                    self.event(T::STORE_FAILED, key, what, "error", e);
                }
            }
        }
        Ok(parts)
    }

    /// Tries the disk store, counting loads and corrupt evictions.
    fn load<T: Artifact>(&self, key: Fingerprint, what: &str) -> Option<T> {
        let start = Instant::now();
        match self.store.as_ref()?.get::<T>(key) {
            Ok(part) => {
                *T::tables(&mut lock(&self.inner)).1 += 1;
                incr(T::HIT_METRIC);
                self.event(T::HIT, key, what, "elapsed", Elapsed(start.elapsed()));
                Some(part)
            }
            Err(None) => None,
            Err(Some(reason)) => {
                lock(&self.inner).counters.corrupt_evicted += 1;
                incr(Metric::PipelineCorruptEvictions);
                self.event(T::EVICT, key, what, "reason", reason);
                None
            }
        }
    }

    /// Resolves a generated dataset: memo, then store, then the
    /// workload generator.
    ///
    /// # Errors
    ///
    /// Fails when the spec names a benchmark its suite doesn't contain.
    pub fn dataset(&self, spec: &DatasetSpec) -> Result<Arc<Dataset>> {
        let [data] = self.resolve(
            [spec.fingerprint()],
            &spec.describe(),
            &GENERATE,
            || Ok(()),
            |()| Ok([spec.compute(self.gen_threads)?]),
        )?;
        Ok(data)
    }

    /// Resolves both halves of a random split. When both parts are
    /// cached the base dataset is not materialized at all.
    ///
    /// # Errors
    ///
    /// Propagates base-dataset resolution failures.
    pub fn split(&self, spec: &SplitSpec) -> Result<(Arc<Dataset>, Arc<Dataset>)> {
        let [first, second] = self.resolve(
            [SplitPart::First, SplitPart::Second].map(|p| spec.part_fingerprint(p)),
            &spec.describe(),
            &SPLIT,
            || self.dataset(&spec.base),
            |base| Ok(spec.compute(&base).into()),
        )?;
        Ok((first, second))
    }

    /// Resolves all four parts of the Section VI transfer protocol.
    /// When every part is cached, neither suite dataset is materialized.
    ///
    /// # Errors
    ///
    /// Propagates suite-dataset resolution failures.
    pub fn transfer_split(&self, spec: &TransferSplitSpec) -> Result<TransferSplit> {
        let [cpu_train, cpu_rest, omp_train, omp_rest] = self.resolve(
            TransferPart::ALL.map(|p| spec.part_fingerprint(p)),
            &spec.describe(),
            &SPLIT,
            || Ok((self.dataset(&spec.cpu)?, self.dataset(&spec.omp)?)),
            |(cpu, omp)| Ok(spec.compute(&cpu, &omp)),
        )?;
        Ok(TransferSplit {
            cpu_train,
            cpu_rest,
            omp_train,
            omp_rest,
        })
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
        let [tree] = self.resolve(
            [spec.fingerprint()],
            &spec.describe(),
            &FIT,
            || self.input_dataset(&spec.input),
            |data| fit(&data, &spec.config),
        )?;
        Ok(tree)
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
        config.fingerprint_into(&mut h);
        let what = format!("m5(min_leaf={}) on external data", config.min_leaf);
        let [tree] = self.resolve(
            [h.finish()],
            &what,
            &FIT,
            || Ok(data),
            |data| fit(data, config),
        )?;
        Ok(tree)
    }
}

/// The M5' stage: one tree.
fn fit(data: &Dataset, config: &M5Config) -> Result<[ModelTree; 1]> {
    Ok([ModelTree::fit(data, config).map_err(PipelineError::from)?])
}

/// All `N` parts, or `None` at the first missing one (the parts after
/// it are never produced).
fn collect_parts<T, const N: usize>(parts: impl Iterator<Item = Option<T>>) -> Option<[T; N]> {
    let parts: Vec<T> = parts.collect::<Option<_>>()?;
    parts.try_into().ok()
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

    type Joined = std::thread::Result<Result<[Arc<Dataset>; 1]>>;

    /// Resolves `key` on two threads. The first takes its memo entry and
    /// runs `owner` only once the second, which would run `waiter` if it
    /// filled the entry, holds it too.
    fn owner_and_waiter(
        ctx: &PipelineContext,
        key: Fingerprint,
        owner: impl FnOnce() -> Result<Dataset> + Send,
        waiter: impl FnOnce() -> Result<Dataset> + Send,
    ) -> (Joined, Joined) {
        // Holders of the entry: the memo, the owner and, once it has
        // found the entry, the second thread.
        let holders = || {
            lock(&ctx.inner)
                .datasets
                .get(&key.0)
                .map_or(0, Arc::strong_count)
        };
        std::thread::scope(|scope| {
            let owner = scope.spawn(|| {
                ctx.resolve(
                    [key],
                    "owner",
                    &GENERATE,
                    || Ok(()),
                    |()| {
                        while holders() < 3 {
                            std::thread::yield_now();
                        }
                        Ok([owner()?])
                    },
                )
            });
            while holders() < 2 {
                std::thread::yield_now();
            }
            let waiter = scope
                .spawn(|| ctx.resolve([key], "waiter", &GENERATE, || Ok(()), |()| Ok([waiter()?])));
            (owner.join(), waiter.join())
        })
    }

    #[test]
    fn a_waiter_takes_over_when_the_owner_panics() {
        let ctx = PipelineContext::ephemeral();
        let spec = small_spec();
        let (owner, waiter) = owner_and_waiter(
            &ctx,
            spec.fingerprint(),
            || panic!("the owner fails mid-computation"),
            || spec.compute(1),
        );
        assert!(owner.is_err(), "the owner's panic reaches its joiner");
        let [data] = waiter.expect("the waiter does not panic").unwrap();
        assert_eq!(*data, spec.compute(1).unwrap());
        assert!(Arc::ptr_eq(&data, &ctx.dataset(&spec).unwrap()));
        assert_eq!(ctx.counters().datasets_generated, 1);
    }

    #[test]
    fn an_entry_left_empty_by_a_panic_is_filled_by_the_next_asker() {
        let ctx = PipelineContext::ephemeral();
        let spec = small_spec();
        let key = spec.fingerprint();
        let owner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.resolve(
                [key],
                "owner",
                &GENERATE,
                || Ok(()),
                |()| -> Result<[Dataset; 1]> { panic!("the owner fails mid-computation") },
            )
        }));
        assert!(owner.is_err(), "the owner's panic reaches its caller");
        let entry = lock(&ctx.inner).datasets.get(&key.0).map(Arc::clone);
        assert!(entry.is_some_and(|group| group.get().is_none()));
        // The empty entry does not block: this call fills it.
        let data = ctx.dataset(&spec).unwrap();
        assert_eq!(*data, spec.compute(1).unwrap());
        assert_eq!(ctx.counters().datasets_generated, 1);
    }

    #[test]
    fn a_waiter_receives_the_owners_error_without_computing() {
        let ctx = PipelineContext::ephemeral();
        let (owner, waiter) = owner_and_waiter(
            &ctx,
            small_spec().fingerprint(),
            || Err(PipelineError("the owner's error".into())),
            || panic!("the waiter must not compute"),
        );
        for joined in [owner, waiter] {
            let err = joined.expect("no thread panics").unwrap_err();
            assert_eq!(err.to_string(), "the owner's error");
        }
        assert!(
            lock(&ctx.inner).datasets.is_empty(),
            "errors are not memoized"
        );
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let ctx = PipelineContext::ephemeral();
        let spec = small_spec().with_benchmark("999.nonesuch");
        let err = ctx.dataset(&spec).unwrap_err();
        assert!(err.to_string().contains("999.nonesuch"));
    }
}
