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
use obskit::metrics::{add, time, Hist, Metric};
use perfcounters::Dataset;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable overriding the store root.
pub const CACHE_DIR_ENV: &str = "SPECREPRO_CACHE_DIR";

/// One artifact kind the store holds: its directory, its file
/// extension and its codec. The fingerprint domain already separates
/// keys; the directories keep `cache stats` per kind.
pub(crate) trait StoredArtifact: Sized {
    /// Subdirectory under `v<SCHEMA_VERSION>/`.
    const DIR: &'static str;
    /// File extension of one artifact.
    const EXTENSION: &'static str;
    /// Encodes one artifact.
    fn encode(&self) -> Vec<u8>;
    /// Decodes and verifies one artifact.
    fn decode(bytes: &[u8]) -> Result<Self, CodecError>;
}

impl StoredArtifact for Dataset {
    const DIR: &'static str = "datasets";
    const EXTENSION: &'static str = "spds";
    fn encode(&self) -> Vec<u8> {
        codec::encode_dataset(self)
    }
    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        codec::decode_dataset(bytes)
    }
}

impl StoredArtifact for ModelTree {
    const DIR: &'static str = "trees";
    const EXTENSION: &'static str = "spmt";
    fn encode(&self) -> Vec<u8> {
        codec::encode_tree(self)
    }
    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        codec::decode_tree(bytes)
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

    /// The directory of kind `T` and the path of `key`'s file in it.
    fn path_for<T: StoredArtifact>(&self, key: Fingerprint) -> (PathBuf, PathBuf) {
        let dir = self.root.join(format!("v{SCHEMA_VERSION}")).join(T::DIR);
        let path = dir.join(format!("{}.{}", key.to_hex(), T::EXTENSION));
        (dir, path)
    }

    /// Encodes `value` and writes it under `key`, atomically: a temp
    /// file, then a rename. Every call writes its own temp file — the
    /// name carries the process id and a process-wide sequence number —
    /// so two writers of one key, threads or processes, never truncate
    /// each other's file and each rename publishes a complete artifact.
    /// Best-effort: an unwritable cache degrades to recompute-always, so
    /// I/O failures surface as `Err` for logging but are safe to ignore.
    pub(crate) fn put<T: StoredArtifact>(&self, key: Fingerprint, value: &T) -> io::Result<()> {
        // Only uniqueness matters: `fetch_add` hands every call its own
        // value under any ordering, and the counter publishes no data.
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let bytes = time(Hist::PipelineCodecEncodeNs, || value.encode());
        let (dir, path) = self.path_for::<T>(key);
        std::fs::create_dir_all(&dir)?;
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(
            ".{}.tmp.{}.{seq}",
            key.to_hex(),
            std::process::id()
        ));
        std::fs::write(&tmp, &bytes)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => {
                add(Metric::PipelineBytesWritten, bytes.len() as u64);
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Reads and decodes the artifact under `key`. Corrupt,
    /// stale-format or cross-version files are evicted and reported as
    /// `Err(Some(reason))`; a plain miss is `Err(None)`.
    #[allow(clippy::result_large_err)]
    pub(crate) fn get<T: StoredArtifact>(&self, key: Fingerprint) -> Result<T, Option<CodecError>> {
        let (_, path) = self.path_for::<T>(key);
        let bytes = std::fs::read(&path).map_err(|_| None)?;
        add(Metric::PipelineBytesRead, bytes.len() as u64);
        time(Hist::PipelineCodecDecodeNs, || T::decode(&bytes)).map_err(|e| {
            let _ = std::fs::remove_file(&path);
            Some(e)
        })
    }

    /// Stores a dataset under `key`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (safe to ignore; the store is a cache).
    pub fn store_dataset(&self, key: Fingerprint, data: &Dataset) -> io::Result<()> {
        self.put(key, data)
    }

    /// Loads the dataset under `key` (see [`ArtifactStore::load_tree`]
    /// for the error contract).
    #[allow(clippy::result_large_err)]
    pub fn load_dataset(&self, key: Fingerprint) -> Result<Dataset, Option<CodecError>> {
        self.get(key)
    }

    /// Stores a model tree under `key`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (safe to ignore; the store is a cache).
    pub fn store_tree(&self, key: Fingerprint, tree: &ModelTree) -> io::Result<()> {
        self.put(key, tree)
    }

    /// Loads the model tree under `key`. Corrupt, stale-format or
    /// cross-version files are evicted and reported as
    /// `Err(Some(reason))`; a plain miss is `Err(None)`.
    #[allow(clippy::result_large_err)]
    pub fn load_tree(&self, key: Fingerprint) -> Result<ModelTree, Option<CodecError>> {
        self.get(key)
    }

    /// Counts artifacts and bytes across every schema-version
    /// subdirectory of the root.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        let Ok(versions) = std::fs::read_dir(&self.root) else {
            return stats;
        };
        for version in versions.flatten() {
            for (dir, files, bytes) in [
                (Dataset::DIR, &mut stats.datasets, &mut stats.dataset_bytes),
                (ModelTree::DIR, &mut stats.trees, &mut stats.tree_bytes),
            ] {
                let Ok(entries) = std::fs::read_dir(version.path().join(dir)) else {
                    continue;
                };
                for entry in entries.flatten() {
                    let Ok(meta) = entry.metadata() else { continue };
                    if meta.is_file() {
                        *files += 1;
                        *bytes += meta.len();
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
    pub fn clear(&self) -> io::Result<()> {
        match std::fs::remove_dir_all(&self.root) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
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
        let (dir, _) = store.path_for::<Dataset>(k);
        let leftovers: Vec<_> = std::fs::read_dir(dir)
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
        let (_, path) = store.path_for::<Dataset>(k);
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
        let (_, path) = store.path_for::<Dataset>(k);
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
