//! Typed stage specifications and the canonical experiment registry.
//!
//! A spec is a *complete, self-describing recipe* for one pipeline
//! artifact: everything that can affect the output is a field, and the
//! [`Fingerprintable`] impl folds every field (plus the schema version
//! and a stage domain tag) into the content-addressed cache key. The
//! stage graph:
//!
//! ```text
//! DatasetSpec ──────────────► Dataset            (suite generation)
//!   ├─ SplitSpec ───────────► (first, second)    (one random split)
//!   └─ TransferSplitSpec ───► TransferSplit      (paper §VI protocol)
//! DatasetInput + M5Config ──► TreeSpec ─► ModelTree
//! ```
//!
//! The registry constants at the bottom are the single source of truth
//! for the experiment seeds and sizes every entry point shares (they
//! were previously duplicated in `spec-bench`, which now re-exports
//! them from here).

use crate::fingerprint::{Fingerprint, FingerprintHasher, Fingerprintable};
use modeltree::M5Config;
use perfcounters::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::generator::{GeneratorConfig, Suite, GENERATOR_VERSION};
use workloads::registry::{SuiteDef, SuiteRegistry};

/// A pipeline failure: unknown benchmark, degenerate training data, …
/// `Clone`, so one failed resolution can reach every thread waiting on it.
#[derive(Debug, Clone)]
pub struct PipelineError(pub String);

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PipelineError {}

impl From<modeltree::TreeError> for PipelineError {
    fn from(e: modeltree::TreeError) -> Self {
        PipelineError(e.to_string())
    }
}

/// Convenience alias for pipeline results.
pub type Result<T> = std::result::Result<T, PipelineError>;

/// Which registered suite a dataset comes from: a handle onto one
/// [`SuiteDef`] in the generation-parameterized suite registry.
///
/// Identity is the definition's *tag* (two handles onto equally-tagged
/// defs are equal), and the fingerprint identity is
/// [`SuiteKind::fingerprint_token`]: the frozen pre-registry literal
/// for the two legacy suites, a content fingerprint of the full
/// definition for everything newer.
#[derive(Clone, Copy)]
pub struct SuiteKind {
    def: &'static SuiteDef,
}

impl std::fmt::Debug for SuiteKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SuiteKind({})", self.def.tag)
    }
}

impl PartialEq for SuiteKind {
    fn eq(&self, other: &Self) -> bool {
        self.def.tag == other.def.tag
    }
}

impl Eq for SuiteKind {}

impl SuiteKind {
    /// Wraps one registered (or ad-hoc static) suite definition.
    pub fn from_def(def: &'static SuiteDef) -> Self {
        SuiteKind { def }
    }

    /// SPEC CPU2006 (29 single-threaded benchmarks, generation 2006).
    pub fn cpu2006() -> Self {
        SuiteKind::from_def(&workloads::registry::CPU2006)
    }

    /// SPEC OMP2001 medium (11 multi-threaded benchmarks, generation
    /// 2001).
    pub fn omp2001() -> Self {
        SuiteKind::from_def(&workloads::registry::OMP2001)
    }

    /// SPEC CPU2017 rate (23 single-threaded benchmarks, generation
    /// 2017).
    pub fn cpu2017() -> Self {
        SuiteKind::from_def(&workloads::registry::CPU2017)
    }

    /// The CPU2026-style suite (15 single-threaded benchmarks,
    /// generation 2026).
    pub fn cpu2026() -> Self {
        SuiteKind::from_def(&workloads::registry::CPU2026)
    }

    /// Looks a suite up in the global registry by its tag.
    pub fn by_tag(tag: &str) -> Option<Self> {
        SuiteRegistry::global().by_tag(tag).map(SuiteKind::from_def)
    }

    /// Every suite in the global registry, in registry order.
    pub fn all() -> Vec<SuiteKind> {
        SuiteRegistry::global()
            .defs()
            .iter()
            .map(|&def| SuiteKind::from_def(def))
            .collect()
    }

    /// Stable registry tag, used in logs and the CLI.
    pub fn tag(self) -> &'static str {
        self.def.tag
    }

    /// Human-readable suite name.
    pub fn display_name(self) -> &'static str {
        self.def.display_name
    }

    /// Benchmark-suite generation year.
    pub fn generation(self) -> u16 {
        self.def.generation
    }

    /// The underlying registry definition.
    pub fn def(self) -> &'static SuiteDef {
        self.def
    }

    /// The canonical whole-suite generation seed of this suite (the
    /// registry constants for the suites that have one; a stable
    /// tag-derived seed otherwise).
    pub fn canonical_seed(self) -> u64 {
        match self.def.tag {
            "cpu2006" => SEED_CPU2006,
            "omp2001" => SEED_OMP2001,
            "cpu2017" => SEED_CPU2017,
            "cpu2026" => SEED_CPU2026,
            other => {
                // FNV-1a over the tag: stable, content-derived.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in other.bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
                h
            }
        }
    }

    /// The token identifying this suite inside dataset fingerprints:
    /// the frozen literal (`"cpu2006"` / `"omp2001"`) for the legacy
    /// suites — keeping every pre-registry artifact key bit-stable —
    /// and `"sdef-<32 hex digits>"` of the definition's content
    /// fingerprint for every other suite. Computed once per definition
    /// and cached for the life of the process.
    pub fn fingerprint_token(self) -> &'static str {
        if let Some(token) = self.def.legacy_token {
            return token;
        }
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static TOKENS: OnceLock<Mutex<HashMap<usize, &'static str>>> = OnceLock::new();
        let tokens = TOKENS.get_or_init(|| Mutex::new(HashMap::new()));
        let key = self.def as *const SuiteDef as usize;
        let mut map = tokens.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(key).or_insert_with(|| {
            let fp = crate::fingerprint::suite_def_fingerprint(self.def);
            Box::leak(format!("sdef-{}", fp.to_hex()).into_boxed_str())
        })
    }

    /// Builds the suite model.
    pub fn materialize(self) -> Suite {
        self.def.materialize()
    }
}

/// Recipe for one generated dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which suite generates the samples.
    pub suite: SuiteKind,
    /// Optional memory-pressure rescale of the suite
    /// ([`Suite::with_memory_pressure`]), modeling other input sets.
    pub memory_pressure: Option<f64>,
    /// Restrict generation to one benchmark (by full name), as in the
    /// per-member transfer experiments. `None` = whole suite.
    pub benchmark: Option<String>,
    /// Number of interval samples.
    pub n_samples: usize,
    /// Seed of the generator's RNG stream.
    pub seed: u64,
    /// Counter-architecture and cost-model configuration.
    pub config: GeneratorConfig,
}

impl DatasetSpec {
    /// A whole-suite dataset with the default generator configuration.
    pub fn new(suite: SuiteKind, n_samples: usize, seed: u64) -> Self {
        DatasetSpec {
            suite,
            memory_pressure: None,
            benchmark: None,
            n_samples,
            seed,
            config: GeneratorConfig::default(),
        }
    }

    /// The canonical 60k-sample dataset of any registered suite
    /// ([`N_SAMPLES`] samples at the suite's canonical seed).
    pub fn canonical(suite: SuiteKind) -> Self {
        DatasetSpec::new(suite, N_SAMPLES, suite.canonical_seed())
    }

    /// The canonical 60k-sample SPEC CPU2006 experiment dataset.
    pub fn cpu2006() -> Self {
        DatasetSpec::canonical(SuiteKind::cpu2006())
    }

    /// The canonical 60k-sample SPEC OMP2001 experiment dataset.
    pub fn omp2001() -> Self {
        DatasetSpec::canonical(SuiteKind::omp2001())
    }

    /// Overrides the sample count.
    #[must_use]
    pub fn with_samples(mut self, n_samples: usize) -> Self {
        self.n_samples = n_samples;
        self
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the generator configuration.
    #[must_use]
    pub fn with_config(mut self, config: GeneratorConfig) -> Self {
        self.config = config;
        self
    }

    /// Applies a memory-pressure factor (models other input sets).
    #[must_use]
    pub fn with_memory_pressure(mut self, factor: f64) -> Self {
        self.memory_pressure = Some(factor);
        self
    }

    /// Restricts generation to one benchmark.
    #[must_use]
    pub fn with_benchmark(mut self, name: &str) -> Self {
        self.benchmark = Some(name.to_owned());
        self
    }

    /// The stage cache key.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new("dataset");
        self.fingerprint_into(&mut h);
        h.finish()
    }

    /// Human-readable one-line description for stage logs.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "{} n={} seed={}",
            self.suite.tag(),
            self.n_samples,
            self.seed
        );
        if let Some(f) = self.memory_pressure {
            out.push_str(&format!(" mem×{f}"));
        }
        if let Some(b) = &self.benchmark {
            out.push_str(&format!(" bench={b}"));
        }
        if self.config != GeneratorConfig::default() {
            out.push_str(" cfg=custom");
        }
        out
    }

    /// Runs the generation stage (no caching — the context handles
    /// that). `gen_threads` only affects wall clock, never the output
    /// (see [`Suite::generate`]).
    ///
    /// # Errors
    ///
    /// Fails when [`DatasetSpec::benchmark`] names a benchmark the
    /// suite does not contain.
    pub fn compute(&self, gen_threads: usize) -> Result<Dataset> {
        let mut suite = self.suite.materialize();
        if let Some(factor) = self.memory_pressure {
            suite = suite.with_memory_pressure(factor);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        match &self.benchmark {
            Some(name) => suite
                .generate_benchmark(&mut rng, name, self.n_samples, &self.config)
                .ok_or_else(|| {
                    PipelineError(format!("benchmark {name:?} not in {}", suite.name()))
                }),
            None => Ok(suite.generate(&mut rng, self.n_samples, &self.config, gen_threads)),
        }
    }
}

impl Fingerprintable for DatasetSpec {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_str(self.suite.fingerprint_token());
        h.write_opt_f64(self.memory_pressure);
        h.write_opt_str(self.benchmark.as_deref());
        h.write_usize(self.n_samples);
        h.write_u64(self.seed);
        self.config.fingerprint_into(h);
        // The generator's output changes with its version, so the key
        // must too: a persisted store must not serve another version's
        // datasets under this spec.
        h.write_str("generator");
        h.write_u32(GENERATOR_VERSION);
    }
}

/// Which half of a [`SplitSpec`] an artifact is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPart {
    /// The `ceil(fraction * len)`-sample subset.
    First,
    /// The remainder.
    Second,
}

/// Recipe for one random train/test split of a generated dataset
/// (`Dataset::split_random` with a dedicated seed).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitSpec {
    /// The dataset being split.
    pub base: DatasetSpec,
    /// Seed of the split permutation's RNG.
    pub seed: u64,
    /// Fraction landing in the first part.
    pub fraction: f64,
}

impl SplitSpec {
    /// Creates a split recipe.
    pub fn new(base: DatasetSpec, seed: u64, fraction: f64) -> Self {
        SplitSpec {
            base,
            seed,
            fraction,
        }
    }

    /// The cache key of one part.
    pub fn part_fingerprint(&self, part: SplitPart) -> Fingerprint {
        let mut h = FingerprintHasher::new("split-part");
        self.base.fingerprint_into(&mut h);
        h.write_u64(self.seed);
        h.write_f64(self.fraction);
        h.write_str(match part {
            SplitPart::First => "first",
            SplitPart::Second => "second",
        });
        h.finish()
    }

    /// Human-readable description for stage logs.
    pub fn describe(&self) -> String {
        format!(
            "split {:.2}/{:.2} seed={} of [{}]",
            self.fraction,
            1.0 - self.fraction,
            self.seed,
            self.base.describe()
        )
    }

    /// The first part's length, computable without materializing the
    /// base dataset (`split_random` takes `ceil(fraction * len)`, and a
    /// generated dataset's length is exactly its spec's `n_samples`).
    pub fn first_len(&self) -> usize {
        (self.fraction * self.base.n_samples as f64).ceil() as usize
    }

    /// Runs the split stage on a materialized base dataset.
    pub fn compute(&self, base: &Dataset) -> (Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        base.split_random(&mut rng, self.fraction)
    }
}

/// The four parts of the paper's Section VI split protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferPart {
    /// CPU2006 10% training subset.
    CpuTrain,
    /// CPU2006 remainder.
    CpuRest,
    /// OMP2001 10% training subset.
    OmpTrain,
    /// OMP2001 remainder.
    OmpRest,
}

impl TransferPart {
    /// All four parts, in protocol order.
    pub const ALL: [TransferPart; 4] = [
        TransferPart::CpuTrain,
        TransferPart::CpuRest,
        TransferPart::OmpTrain,
        TransferPart::OmpRest,
    ];

    fn tag(self) -> &'static str {
        match self {
            TransferPart::CpuTrain => "cpu-train",
            TransferPart::CpuRest => "cpu-rest",
            TransferPart::OmpTrain => "omp-train",
            TransferPart::OmpRest => "omp-rest",
        }
    }
}

/// Recipe for the paper's Section VI transfer protocol: **one** RNG
/// stream splits the CPU2006 dataset first, then (with the advanced
/// stream state) the OMP2001 dataset — the split order is part of the
/// artifact, so the whole protocol is a single stage with four outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferSplitSpec {
    /// The CPU2006 dataset recipe.
    pub cpu: DatasetSpec,
    /// The OMP2001 dataset recipe.
    pub omp: DatasetSpec,
    /// Seed of the shared split stream.
    pub seed: u64,
    /// Training fraction (the paper uses 0.10).
    pub fraction: f64,
}

impl TransferSplitSpec {
    /// The canonical Section VI protocol over the canonical datasets.
    pub fn canonical() -> Self {
        TransferSplitSpec {
            cpu: DatasetSpec::cpu2006(),
            omp: DatasetSpec::omp2001(),
            seed: SEED_SPLIT,
            fraction: 0.10,
        }
    }

    /// The cache key of one part.
    pub fn part_fingerprint(&self, part: TransferPart) -> Fingerprint {
        let mut h = FingerprintHasher::new("transfer-part");
        self.cpu.fingerprint_into(&mut h);
        self.omp.fingerprint_into(&mut h);
        h.write_u64(self.seed);
        h.write_f64(self.fraction);
        h.write_str(part.tag());
        h.finish()
    }

    /// Human-readable description for stage logs.
    pub fn describe(&self) -> String {
        format!(
            "transfer-split {:.0}% seed={} of [{}] + [{}]",
            100.0 * self.fraction,
            self.seed,
            self.cpu.describe(),
            self.omp.describe()
        )
    }

    /// The CPU training part's length without materializing anything
    /// (`split_random` takes `ceil(fraction * len)`).
    pub fn cpu_train_len(&self) -> usize {
        (self.fraction * self.cpu.n_samples as f64).ceil() as usize
    }

    /// The OMP training part's length without materializing anything.
    pub fn omp_train_len(&self) -> usize {
        (self.fraction * self.omp.n_samples as f64).ceil() as usize
    }

    /// Runs the protocol on materialized suite datasets, returning the
    /// parts in [`TransferPart::ALL`] order.
    pub fn compute(&self, cpu: &Dataset, omp: &Dataset) -> [Dataset; 4] {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (cpu_train, cpu_rest) = cpu.split_random(&mut rng, self.fraction);
        let (omp_train, omp_rest) = omp.split_random(&mut rng, self.fraction);
        [cpu_train, cpu_rest, omp_train, omp_rest]
    }
}

/// Where a tree's training data comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetInput {
    /// A whole generated dataset.
    Suite(DatasetSpec),
    /// One half of a random split.
    SplitPart(SplitSpec, SplitPart),
    /// One part of the Section VI transfer protocol.
    TransferPart(TransferSplitSpec, TransferPart),
}

impl DatasetInput {
    /// The cache key of the input dataset itself.
    pub fn fingerprint(&self) -> Fingerprint {
        match self {
            DatasetInput::Suite(spec) => spec.fingerprint(),
            DatasetInput::SplitPart(split, part) => split.part_fingerprint(*part),
            DatasetInput::TransferPart(split, part) => split.part_fingerprint(*part),
        }
    }

    /// Human-readable description for stage logs.
    pub fn describe(&self) -> String {
        match self {
            DatasetInput::Suite(spec) => spec.describe(),
            DatasetInput::SplitPart(split, part) => {
                format!("{:?} of {}", part, split.describe())
            }
            DatasetInput::TransferPart(split, part) => {
                format!("{:?} of {}", part, split.describe())
            }
        }
    }
}

/// Recipe for one fitted M5' model tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSpec {
    /// The training data recipe.
    pub input: DatasetInput,
    /// The trainer configuration (`n_threads` is excluded from the
    /// fingerprint — training is bit-identical for every value).
    pub config: M5Config,
}

impl TreeSpec {
    /// Creates a tree recipe over a whole generated dataset.
    pub fn new(dataset: DatasetSpec, config: M5Config) -> Self {
        TreeSpec {
            input: DatasetInput::Suite(dataset),
            config,
        }
    }

    /// The headline suite tree of a dataset spec: the paper's
    /// tens-of-leaves configuration via [`suite_tree_config`].
    pub fn suite_tree(dataset: DatasetSpec) -> Self {
        let config = suite_tree_config(dataset.n_samples);
        TreeSpec::new(dataset, config)
    }

    /// The stage cache key: the input's key plus the trainer
    /// configuration.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new("tree");
        let input = self.input.fingerprint();
        h.write_u64(input.0 as u64);
        h.write_u64((input.0 >> 64) as u64);
        self.config.fingerprint_into(&mut h);
        h.finish()
    }

    /// Human-readable description for stage logs.
    pub fn describe(&self) -> String {
        format!(
            "m5(min_leaf={}, sd={}) on [{}]",
            self.config.min_leaf,
            self.config.sd_fraction,
            self.input.describe()
        )
    }
}

// --- Canonical experiment registry -------------------------------------

/// Seed for the SPEC CPU2006 dataset used by all experiments.
pub const SEED_CPU2006: u64 = 20_080_401;
/// Seed for the SPEC OMP2001 dataset used by all experiments.
pub const SEED_OMP2001: u64 = 20_080_402;
/// Seed for train/test splitting in the transferability experiments.
pub const SEED_SPLIT: u64 = 20_080_403;
/// Seed for the SPEC CPU2017 dataset used by the transfer matrix.
pub const SEED_CPU2017: u64 = 20_080_404;
/// Seed for the CPU2026-style dataset used by the transfer matrix.
pub const SEED_CPU2026: u64 = 20_080_405;
/// Seed of the cross-generation transfer-matrix split protocol.
pub const SEED_MATRIX: u64 = 20_080_406;
/// Number of interval samples generated per suite.
pub const N_SAMPLES: usize = 60_000;

/// The M5' configuration used for the headline suite trees. The paper
/// "varied M5' algorithm parameters to achieve a balance between
/// tractable model size and good prediction accuracy"; these settings
/// land in the same tens-of-leaves band as Figures 1 and 2.
pub fn suite_tree_config(n_samples: usize) -> M5Config {
    M5Config::default()
        .with_min_leaf((n_samples / 200).max(4))
        .with_sd_fraction(0.05)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_suites_fingerprint_by_frozen_token() {
        // The artifact-store compatibility contract: the two
        // pre-registry suites keep their literal tokens forever.
        assert_eq!(SuiteKind::cpu2006().fingerprint_token(), "cpu2006");
        assert_eq!(SuiteKind::omp2001().fingerprint_token(), "omp2001");
    }

    #[test]
    fn new_suites_fingerprint_by_content() {
        for kind in [SuiteKind::cpu2017(), SuiteKind::cpu2026()] {
            let token = kind.fingerprint_token();
            assert!(token.starts_with("sdef-"), "{token}");
            assert_eq!(token.len(), "sdef-".len() + 32, "{token}");
            // Stable across calls (cached) and equal to the direct
            // content fingerprint.
            assert_eq!(token, kind.fingerprint_token());
            let direct = crate::fingerprint::suite_def_fingerprint(kind.def());
            assert_eq!(token, format!("sdef-{}", direct.to_hex()));
        }
        assert_ne!(
            SuiteKind::cpu2017().fingerprint_token(),
            SuiteKind::cpu2026().fingerprint_token()
        );
    }

    #[test]
    fn registry_lookup_round_trips_every_suite() {
        let all = SuiteKind::all();
        assert_eq!(all.len(), 4);
        for kind in all {
            assert_eq!(SuiteKind::by_tag(kind.tag()), Some(kind));
        }
        assert_eq!(SuiteKind::by_tag("spec95"), None);
    }

    #[test]
    fn canonical_seeds_are_distinct_per_suite() {
        let seeds: std::collections::BTreeSet<u64> = SuiteKind::all()
            .into_iter()
            .map(SuiteKind::canonical_seed)
            .collect();
        assert_eq!(seeds.len(), 4);
        assert_eq!(SuiteKind::cpu2017().canonical_seed(), SEED_CPU2017);
        assert_eq!(SuiteKind::cpu2026().canonical_seed(), SEED_CPU2026);
    }

    #[test]
    fn canonical_dataset_specs_cover_new_generations() {
        let spec = DatasetSpec::canonical(SuiteKind::cpu2017());
        assert_eq!(spec.n_samples, N_SAMPLES);
        assert_eq!(spec.seed, SEED_CPU2017);
        // And the canonical legacy constructors route through the same
        // path without changing their keys.
        assert_eq!(
            DatasetSpec::canonical(SuiteKind::cpu2006()).fingerprint(),
            DatasetSpec::cpu2006().fingerprint()
        );
    }

    #[test]
    fn canonical_specs_match_legacy_constants() {
        let cpu = DatasetSpec::cpu2006();
        assert_eq!(cpu.seed, SEED_CPU2006);
        assert_eq!(cpu.n_samples, N_SAMPLES);
        assert_eq!(suite_tree_config(60_000).min_leaf, 300);
        assert_eq!(suite_tree_config(100).min_leaf, 4);
    }

    #[test]
    fn dataset_compute_matches_direct_generation() {
        let spec = DatasetSpec::new(SuiteKind::cpu2006(), 300, 7);
        let via_spec = spec.compute(1).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let direct = Suite::cpu2006().generate(&mut rng, 300, &GeneratorConfig::default(), 1);
        assert_eq!(via_spec, direct);
    }

    #[test]
    fn every_spec_field_changes_the_fingerprint() {
        let base = DatasetSpec::new(SuiteKind::cpu2006(), 1000, 1);
        let mut custom = GeneratorConfig::default();
        custom.cost.noise_sigma = 0.01;
        let variants = [
            DatasetSpec::new(SuiteKind::omp2001(), 1000, 1),
            base.clone().with_samples(1001),
            base.clone().with_seed(2),
            base.clone().with_memory_pressure(1.0),
            base.clone().with_benchmark("429.mcf"),
            base.clone().with_config(custom),
        ];
        let k0 = base.fingerprint();
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(k0);
        for (i, v) in variants.iter().enumerate() {
            assert!(seen.insert(v.fingerprint()), "variant {i} collided");
        }
    }

    #[test]
    fn split_parts_have_distinct_keys() {
        let split = SplitSpec::new(DatasetSpec::cpu2006(), SEED_SPLIT, 0.5);
        assert_ne!(
            split.part_fingerprint(SplitPart::First),
            split.part_fingerprint(SplitPart::Second)
        );
        let other = SplitSpec::new(DatasetSpec::cpu2006(), SEED_SPLIT, 0.25);
        assert_ne!(
            split.part_fingerprint(SplitPart::First),
            other.part_fingerprint(SplitPart::First)
        );
    }

    #[test]
    fn transfer_parts_have_distinct_keys() {
        let spec = TransferSplitSpec::canonical();
        let keys: std::collections::BTreeSet<_> = TransferPart::ALL
            .iter()
            .map(|&p| spec.part_fingerprint(p))
            .collect();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn tree_key_tracks_input_and_config() {
        let a = TreeSpec::suite_tree(DatasetSpec::cpu2006());
        let b = TreeSpec::suite_tree(DatasetSpec::omp2001());
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = TreeSpec::new(
            DatasetSpec::cpu2006(),
            suite_tree_config(N_SAMPLES).with_smoothing(false),
        );
        assert_ne!(a.fingerprint(), c.fingerprint());
        // The dataset artifact and the tree artifact never share a key.
        assert_ne!(a.fingerprint(), DatasetSpec::cpu2006().fingerprint());
        // n_threads is an execution hint, not an input.
        let d = TreeSpec::new(
            DatasetSpec::cpu2006(),
            suite_tree_config(N_SAMPLES).with_n_threads(8),
        );
        assert_eq!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn transfer_split_protocol_order() {
        // The one-stream protocol: cpu split consumes rng state before
        // the omp split, so the omp parts depend on the cpu dataset
        // length — exactly the legacy artifact's behavior.
        let spec = TransferSplitSpec {
            cpu: DatasetSpec::new(SuiteKind::cpu2006(), 400, 1),
            omp: DatasetSpec::new(SuiteKind::omp2001(), 300, 2),
            seed: 9,
            fraction: 0.10,
        };
        let cpu = spec.cpu.compute(1).unwrap();
        let omp = spec.omp.compute(1).unwrap();
        let [cpu_train, cpu_rest, omp_train, omp_rest] = spec.compute(&cpu, &omp);
        assert_eq!(cpu_train.len(), 40);
        assert_eq!(cpu_rest.len(), 360);
        assert_eq!(omp_train.len() + omp_rest.len(), 300);
        let mut rng = StdRng::seed_from_u64(9);
        let (legacy_cpu_train, _) = cpu.split_random(&mut rng, 0.10);
        let (legacy_omp_train, _) = omp.split_random(&mut rng, 0.10);
        assert_eq!(cpu_train, legacy_cpu_train);
        assert_eq!(omp_train, legacy_omp_train);
    }
}
