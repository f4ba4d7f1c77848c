//! Content-addressed on-disk artifact store.
//!
//! Artifacts live under one root directory, namespaced by schema
//! version and kind:
//!
//! ```text
//! <root>/v<SCHEMA_VERSION>/datasets/<fingerprint>.spds
//! <root>/v<SCHEMA_VERSION>/trees/<fingerprint>.spmt
//! ```
//!
//! The root comes from `SPECREPRO_CACHE_DIR` when set, else
//! `<system temp>/specrepro-cache` — stable across working directories
//! so every entry point (`reproduce`, the CLI, testkit) shares one
//! store. Writes are atomic (temp file + rename), so concurrent
//! processes never observe torn artifacts; loads check the codec's
//! container-format marker and integrity hash and evict any file that
//! fails, turning corruption or a stale layout into a recompute instead
//! of an error.

use crate::codec::{self, CodecError};
use crate::fingerprint::{Fingerprint, SCHEMA_VERSION};
use modeltree::ModelTree;
use perfcounters::Dataset;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable overriding the store root.
pub const CACHE_DIR_ENV: &str = "SPECREPRO_CACHE_DIR";

/// The artifact kinds the store distinguishes (separate directories
/// and file extensions; the fingerprint domain already separates keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Columnar binary datasets (`.spds`).
    Dataset,
    /// Model-tree envelopes (`.spmt`).
    Tree,
}

impl ArtifactKind {
    fn dir(self) -> &'static str {
        match self {
            ArtifactKind::Dataset => "datasets",
            ArtifactKind::Tree => "trees",
        }
    }

    fn extension(self) -> &'static str {
        match self {
            ArtifactKind::Dataset => "spds",
            ArtifactKind::Tree => "spmt",
        }
    }
}

/// Aggregate statistics over the store (for `specrepro cache stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of dataset artifacts.
    pub datasets: usize,
    /// Total bytes of dataset artifacts.
    pub dataset_bytes: u64,
    /// Number of tree artifacts.
    pub trees: usize,
    /// Total bytes of tree artifacts.
    pub tree_bytes: u64,
}

impl StoreStats {
    /// Total artifact count.
    pub fn files(&self) -> usize {
        self.datasets + self.trees
    }

    /// Total bytes across all artifacts.
    pub fn bytes(&self) -> u64 {
        self.dataset_bytes + self.tree_bytes
    }
}

/// A content-addressed artifact store rooted at one directory.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Opens (lazily — nothing is created until the first write) a
    /// store at an explicit root.
    pub fn open(root: impl Into<PathBuf>) -> Self {
        ArtifactStore { root: root.into() }
    }

    /// Opens the environment-selected store: `SPECREPRO_CACHE_DIR` when
    /// set and non-empty, else `<system temp>/specrepro-cache`.
    pub fn from_env() -> Self {
        ArtifactStore::open(default_root())
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, kind: ArtifactKind, key: Fingerprint) -> PathBuf {
        self.root
            .join(format!("v{SCHEMA_VERSION}"))
            .join(kind.dir())
            .join(format!("{}.{}", key.to_hex(), kind.extension()))
    }

    /// Writes `bytes` under `key`, atomically (temp file + rename).
    /// Every call writes its own temp file — the name carries the
    /// process id and a process-wide sequence number — so two writers
    /// of one key, threads or processes, never truncate each other's
    /// file and each rename publishes a complete artifact.
    /// Best-effort: an unwritable cache degrades to recompute-always,
    /// so I/O failures surface as `Err` for logging but are safe to
    /// ignore.
    fn put(&self, kind: ArtifactKind, key: Fingerprint, bytes: &[u8]) -> std::io::Result<()> {
        // Only uniqueness matters: `fetch_add` hands every call its own
        // value under any ordering, and the counter publishes no data.
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.path_for(kind, key);
        let dir = path.parent().expect("artifact path has a parent");
        std::fs::create_dir_all(dir)?;
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(
            ".{}.tmp.{}.{seq}",
            key.to_hex(),
            std::process::id()
        ));
        std::fs::write(&tmp, bytes)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => {
                obskit::metrics::add(
                    obskit::metrics::Metric::PipelineBytesWritten,
                    bytes.len() as u64,
                );
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Reads the raw bytes under `key`, or `None` when absent.
    fn get(&self, kind: ArtifactKind, key: Fingerprint) -> Option<Vec<u8>> {
        let bytes = std::fs::read(self.path_for(kind, key)).ok()?;
        obskit::metrics::add(
            obskit::metrics::Metric::PipelineBytesRead,
            bytes.len() as u64,
        );
        Some(bytes)
    }

    /// Removes the artifact under `key` (used to evict corrupt files).
    fn evict(&self, kind: ArtifactKind, key: Fingerprint) {
        let _ = std::fs::remove_file(self.path_for(kind, key));
    }

    /// Stores a dataset under `key`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (safe to ignore; the store is a cache).
    pub fn store_dataset(&self, key: Fingerprint, data: &Dataset) -> std::io::Result<()> {
        let bytes = obskit::metrics::time(obskit::metrics::Hist::PipelineCodecEncodeNs, || {
            codec::encode_dataset(data)
        });
        self.put(ArtifactKind::Dataset, key, &bytes)
    }

    /// Loads the dataset under `key`. Corrupt, stale-format or
    /// cross-version files are evicted and reported as
    /// `Err(Some(reason))`; a plain miss is `Err(None)`.
    #[allow(clippy::result_large_err)]
    pub fn load_dataset(&self, key: Fingerprint) -> Result<Dataset, Option<CodecError>> {
        let bytes = self.get(ArtifactKind::Dataset, key).ok_or(None)?;
        obskit::metrics::time(obskit::metrics::Hist::PipelineCodecDecodeNs, || {
            codec::decode_dataset(&bytes)
        })
        .map_err(|e| {
            self.evict(ArtifactKind::Dataset, key);
            Some(e)
        })
    }

    /// Stores a model tree under `key`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (safe to ignore; the store is a cache).
    pub fn store_tree(&self, key: Fingerprint, tree: &ModelTree) -> std::io::Result<()> {
        let bytes = obskit::metrics::time(obskit::metrics::Hist::PipelineCodecEncodeNs, || {
            codec::encode_tree(tree)
        });
        self.put(ArtifactKind::Tree, key, &bytes)
    }

    /// Loads the model tree under `key`. Corrupt, stale-format or
    /// cross-version files are evicted and reported as
    /// `Err(Some(reason))`; a plain miss is `Err(None)`.
    #[allow(clippy::result_large_err)]
    pub fn load_tree(&self, key: Fingerprint) -> Result<ModelTree, Option<CodecError>> {
        let bytes = self.get(ArtifactKind::Tree, key).ok_or(None)?;
        obskit::metrics::time(obskit::metrics::Hist::PipelineCodecDecodeNs, || {
            codec::decode_tree(&bytes)
        })
        .map_err(|e| {
            self.evict(ArtifactKind::Tree, key);
            Some(e)
        })
    }

    /// Counts artifacts and bytes across every schema-version
    /// subdirectory of the root.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        let Ok(versions) = std::fs::read_dir(&self.root) else {
            return stats;
        };
        for version in versions.flatten() {
            for kind in [ArtifactKind::Dataset, ArtifactKind::Tree] {
                let Ok(entries) = std::fs::read_dir(version.path().join(kind.dir())) else {
                    continue;
                };
                for entry in entries.flatten() {
                    let Ok(meta) = entry.metadata() else { continue };
                    if !meta.is_file() {
                        continue;
                    }
                    match kind {
                        ArtifactKind::Dataset => {
                            stats.datasets += 1;
                            stats.dataset_bytes += meta.len();
                        }
                        ArtifactKind::Tree => {
                            stats.trees += 1;
                            stats.tree_bytes += meta.len();
                        }
                    }
                }
            }
        }
        stats
    }

    /// Deletes the entire store root.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the root not existing.
    pub fn clear(&self) -> std::io::Result<()> {
        match std::fs::remove_dir_all(&self.root) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// The environment-selected store root (see [`ArtifactStore::from_env`]).
fn default_root() -> PathBuf {
    match std::env::var(CACHE_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => std::env::temp_dir().join("specrepro-cache"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintHasher;
    use perfcounters::Sample;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("specrepro-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir)
    }

    fn key(tag: &str) -> Fingerprint {
        FingerprintHasher::new(tag).finish()
    }

    fn tiny_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let l = ds.add_benchmark("bench");
        for i in 0..8 {
            ds.push(Sample::zeros(1.0 + i as f64), l);
        }
        ds
    }

    #[test]
    fn store_and_load_dataset() {
        let store = temp_store("ds");
        let ds = tiny_dataset();
        let k = key("a");
        assert!(store.load_dataset(k).is_err());
        store.store_dataset(k, &ds).unwrap();
        let back = store.load_dataset(k).unwrap();
        assert_eq!(back, ds);
        // A different key is a miss, not a collision.
        assert!(matches!(store.load_dataset(key("b")), Err(None)));
        store.clear().unwrap();
        assert!(store.load_dataset(k).is_err());
    }

    #[test]
    fn concurrent_puts_of_one_key_publish_a_whole_artifact() {
        let store = temp_store("race");
        let k = key("race");
        let mut data = Dataset::new();
        let l = data.add_benchmark("bench");
        for i in 0..20_000 {
            data.push(Sample::zeros(i as f64), l);
        }
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        store.store_dataset(k, &data)
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap().unwrap();
            }
        });
        assert_eq!(store.load_dataset(k).unwrap(), data);
        let dir = store.path_for(ArtifactKind::Dataset, k);
        let leftovers: Vec<_> = std::fs::read_dir(dir.parent().unwrap())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = store.clear();
    }

    #[test]
    fn corrupt_artifact_evicted_on_load() {
        let store = temp_store("corrupt");
        let k = key("c");
        store.store_dataset(k, &tiny_dataset()).unwrap();
        let path = store.path_for(ArtifactKind::Dataset, k);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match store.load_dataset(k) {
            Err(Some(_reason)) => {}
            other => panic!("expected corruption report, got {other:?}"),
        }
        // Evicted: the second load is a plain miss.
        assert!(matches!(store.load_dataset(k), Err(None)));
        assert!(!path.exists());
        store.clear().unwrap();
    }

    #[test]
    fn truncated_artifact_is_a_miss() {
        let store = temp_store("trunc");
        let k = key("t");
        store.store_dataset(k, &tiny_dataset()).unwrap();
        let path = store.path_for(ArtifactKind::Dataset, k);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(matches!(store.load_dataset(k), Err(Some(_))));
        store.clear().unwrap();
    }

    #[test]
    fn stats_count_files_and_bytes() {
        let store = temp_store("stats");
        assert_eq!(store.stats(), StoreStats::default());
        store.store_dataset(key("x"), &tiny_dataset()).unwrap();
        store.store_dataset(key("y"), &tiny_dataset()).unwrap();
        let stats = store.stats();
        assert_eq!(stats.datasets, 2);
        assert_eq!(stats.trees, 0);
        assert!(stats.bytes() > 0);
        assert_eq!(stats.files(), 2);
        store.clear().unwrap();
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn clear_missing_root_is_ok() {
        let store = temp_store("missing");
        store.clear().unwrap();
        store.clear().unwrap();
    }
}
