//! Fault-injection determinism: the streaming layer's recovery
//! machinery must leave no trace in the sealed artifacts.
//!
//! With the fault injector armed — seeded drops, duplicates, reorders,
//! mid-stream host deaths, torn chunk writes — the same fault seed
//! must produce **byte-identical** sealed containers and refit
//! artifacts on 1 and 8 aggregator threads, small fleets that end
//! mid-batch must seal the same bytes and counts on 1, 2, 3 and 8
//! threads, and exactly-once chunk semantics must hold (no duplicated
//! or lost surviving rows). The
//! seed comes from `SPECREPRO_STREAM_FAULT_SEED` when set (the CI
//! matrix pins one), so the suite doubles as a replayable fuzz target:
//! any seed that fails is a one-line reproduction.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use modeltree::M5Config;
use pipeline::{ArtifactStore, ChunkedReader};
use stream::{
    windowed_refit, FaultConfig, FleetConfig, RefitConfig, StreamConfig, StreamPlan, StreamSummary,
};

fn fault_seed() -> u64 {
    std::env::var("SPECREPRO_STREAM_FAULT_SEED")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(7)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "testkit-stream-faults-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn faulted_config(threads: usize, fault_seed: u64) -> StreamConfig {
    StreamConfig::new(FleetConfig::cpu2006(64, 30, 3))
        .with_shards(8)
        .with_threads(threads)
        .with_chunk_rows(96)
        .with_faults(FaultConfig::standard(fault_seed))
}

/// Every file under `root`, keyed by relative path — artifact stores
/// compare equal iff they hold identical keys with identical bytes.
fn dir_contents(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

#[test]
fn same_fault_seed_is_byte_identical_on_1_and_8_threads() {
    let dir = scratch("threads");
    let seed = fault_seed();
    let mut containers = Vec::new();
    let mut stores = Vec::new();
    for threads in [1usize, 8] {
        let cfg = faulted_config(threads, seed);
        let path = dir.join(format!("t{threads}.spdc"));
        let summary = stream::run_stream(&cfg, &path).unwrap();
        assert!(
            summary.faults_injected > 0,
            "seed {seed}: fault schedule injected nothing"
        );
        containers.push(std::fs::read(&path).unwrap());

        // Refit artifacts land in a per-thread-count store.
        let store_root = dir.join(format!("store-t{threads}"));
        let store = ArtifactStore::open(&store_root);
        let mut reader =
            ChunkedReader::open(BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
        let refit = RefitConfig::new(512, M5Config::default().with_min_leaf(50));
        let fits = windowed_refit(&mut reader, &store, &refit).unwrap();
        assert!(!fits.is_empty());
        stores.push((
            dir_contents(&store_root),
            fits.iter()
                .map(|f| (f.window.clone(), f.fingerprint))
                .collect::<Vec<_>>(),
        ));
    }
    assert_eq!(
        containers[0], containers[1],
        "seed {seed}: sealed container bytes differ between 1 and 8 threads"
    );
    assert_eq!(
        stores[0].1, stores[1].1,
        "seed {seed}: window fingerprints differ between 1 and 8 threads"
    );
    assert_eq!(
        stores[0].0, stores[1].0,
        "seed {seed}: refit artifact bytes differ between 1 and 8 threads"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faults_preserve_exactly_once_semantics() {
    let dir = scratch("exactly-once");
    let seed = fault_seed();
    let cfg = faulted_config(4, seed);
    let path = dir.join("faulted.spdc");
    let summary = stream::run_stream(&cfg, &path).unwrap();
    let plan = StreamPlan::new(&cfg);

    // The plan accounts for host deaths, so its row total is the exact
    // survivor count: more means a duplicate slipped the frontier,
    // fewer means a dropped record was never retransmitted.
    assert_eq!(summary.rows, plan.total_rows(), "seed {seed}");
    assert!(summary.duplicates_dropped > 0, "seed {seed}: no dup faults");
    assert!(summary.retransmits > 0, "seed {seed}: no drop faults");

    // Every sealed chunk verifies and matches the pure-source recompute
    // byte for byte — the recovery path for a corrupt on-disk chunk.
    let mut reader =
        ChunkedReader::open(BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
    assert_eq!(reader.n_chunks() as u64, summary.chunks);
    let bytes = std::fs::read(&path).unwrap();
    for i in 0..reader.n_chunks() {
        reader
            .read_chunk(i)
            .unwrap_or_else(|e| panic!("seed {seed}: sealed chunk {i} failed verification: {e}"));
        let meta = reader.meta(i);
        let body = &bytes[meta.offset as usize..(meta.offset + meta.len) as usize];
        assert_eq!(
            body,
            plan.chunk_body(i as u64).as_slice(),
            "seed {seed}: chunk {i} differs from pure recompute"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_on_disk_chunk_is_evicted_and_recomputed() {
    let dir = scratch("evict");
    let cfg = faulted_config(2, fault_seed());
    let path = dir.join("fleet.spdc");
    stream::run_stream(&cfg, &path).unwrap();
    let plan = StreamPlan::new(&cfg);

    // Flip a byte in the middle of chunk 1's body on disk.
    let mut bytes = std::fs::read(&path).unwrap();
    let reader = ChunkedReader::open(BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
    let meta = reader.meta(1);
    bytes[meta.offset as usize + meta.len as usize / 2] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    // Detection: the hash refuses the chunk. Recovery: recompute the
    // body from the pure source plan and rewrite it in place.
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let mut rw = ChunkedReader::open(file).unwrap();
    assert!(rw.read_chunk(1).is_err(), "corruption went undetected");
    rw.rewrite_chunk(1, &plan.chunk_body(1)).unwrap();
    assert!(rw.read_chunk(1).is_ok(), "recomputed chunk must verify");

    // After recovery the container is byte-identical to a clean seal.
    let clean = dir.join("clean.spdc");
    stream::run_stream(&cfg, &clean).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&clean).unwrap(),
        "recovered container differs from a clean seal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn different_fault_seeds_still_seal_verifiable_containers() {
    // A small seed sweep: whatever the schedule does, sealed chunks
    // always verify and row accounting always matches the plan.
    let dir = scratch("sweep");
    for seed in [1u64, 2, 3] {
        let cfg = faulted_config(3, seed);
        let path = dir.join(format!("s{seed}.spdc"));
        let summary = stream::run_stream(&cfg, &path).unwrap();
        let plan = StreamPlan::new(&cfg);
        assert_eq!(summary.rows, plan.total_rows(), "seed {seed}");
        let mut reader =
            ChunkedReader::open(BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
        for i in 0..reader.n_chunks() {
            reader.read_chunk(i).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_boundaries_never_reach_the_container() {
    // Producers hand envelopes to each worker in batches of 128 and
    // flush a partial batch on exit. These fleets give per-worker
    // envelope counts that are not a multiple of the batch — down to
    // one host with fewer envelopes than one batch — and every thread
    // count cuts them differently.
    let dir = scratch("batches");
    let seed = fault_seed();
    // (hosts, intervals per host, shards, chunk rows)
    let shapes = [
        (1u64, 5u32, 1usize, 4usize),
        (1, 200, 2, 64),
        (7, 19, 3, 10),
        (45, 13, 4, 32),
        (130, 3, 8, 50),
    ];
    let mut faults = 0;
    for (hosts, intervals, shards, chunk_rows) in shapes {
        let cfg = StreamConfig::new(FleetConfig::cpu2006(hosts, intervals, 11))
            .with_shards(shards)
            .with_chunk_rows(chunk_rows)
            .with_faults(FaultConfig::standard(seed));
        let plan = StreamPlan::new(&cfg);
        let mut runs: Vec<(usize, StreamSummary, Vec<u8>)> = Vec::new();
        for threads in [1usize, 2, 3, 8] {
            let path = dir.join(format!("h{hosts}-i{intervals}-t{threads}.spdc"));
            let summary = stream::run_stream(&cfg.clone().with_threads(threads), &path).unwrap();
            assert_eq!(
                summary.rows,
                plan.total_rows(),
                "seed {seed}, {hosts} hosts"
            );
            let summary = StreamSummary {
                container: PathBuf::new(),
                ..summary
            };
            runs.push((threads, summary, std::fs::read(&path).unwrap()));
        }
        let (_, base_summary, base_bytes) = &runs[0];
        faults += base_summary.faults_injected;
        for (threads, summary, bytes) in &runs[1..] {
            assert_eq!(
                summary, base_summary,
                "seed {seed}, {hosts} hosts x {intervals}: summary differs on {threads} threads"
            );
            assert!(
                bytes == base_bytes,
                "seed {seed}, {hosts} hosts x {intervals}: container differs on {threads} threads"
            );
        }
    }
    assert!(faults > 0, "seed {seed}: fault schedule injected nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
