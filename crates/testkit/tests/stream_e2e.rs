//! Streaming end-to-end differential oracle.
//!
//! The out-of-core path must be invisible to the model: a windowed fit
//! that streams its rows through `ChunkedReader::window_dataset` (one
//! window resident at a time) is **bit-identical** — trees compared by
//! serialization, predictions compared via `to_bits` — to the same fit
//! over a fully materialized in-memory dataset. That must hold for
//! every chunk size, including 1-row chunks (every row pays full chunk
//! framing) and lane-tail sizes that leave SIMD remainders, and for
//! every aggregator thread count, because the sealed container bytes
//! themselves are thread-count-invariant.

use std::io::BufReader;
use std::path::PathBuf;

use modeltree::{M5Config, ModelTree};
use pipeline::ChunkedReader;
use stream::{FleetConfig, RefitConfig, StreamConfig, StreamPlan};

const HOSTS: u64 = 48;
const INTERVALS: u32 = 25;
const SEED: u64 = 11;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("testkit-stream-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stream_config(chunk_rows: usize, threads: usize) -> StreamConfig {
    StreamConfig::new(FleetConfig::cpu2006(HOSTS, INTERVALS, SEED))
        .with_shards(4)
        .with_threads(threads)
        .with_chunk_rows(chunk_rows)
}

fn sealed_bytes(dir: &std::path::Path, cfg: &StreamConfig, tag: &str) -> Vec<u8> {
    let path = dir.join(format!("{tag}.spdc"));
    stream::run_stream(cfg, &path).unwrap();
    std::fs::read(&path).unwrap()
}

fn open_reader(dir: &std::path::Path, tag: &str) -> ChunkedReader<BufReader<std::fs::File>> {
    let path = dir.join(format!("{tag}.spdc"));
    ChunkedReader::open(BufReader::new(std::fs::File::open(path).unwrap())).unwrap()
}

fn assert_trees_bit_identical(ooc: &ModelTree, mem: &ModelTree, context: &str) {
    assert_eq!(
        serde_json::to_string(ooc).unwrap(),
        serde_json::to_string(mem).unwrap(),
        "{context}: serialized trees differ"
    );
}

#[test]
fn ooc_window_fits_bit_identical_to_in_memory_across_chunk_sizes() {
    let dir = scratch("chunks");
    // 1-row chunks maximize framing overhead; 7 leaves a lane tail in
    // every chunk; 300 does not divide the 1200-row total.
    for chunk_rows in [1usize, 7, 300] {
        let cfg = stream_config(chunk_rows, 1);
        let tag = format!("c{chunk_rows}");
        sealed_bytes(&dir, &cfg, &tag);
        let mut reader = open_reader(&dir, &tag);
        let plan = StreamPlan::new(&cfg);
        let full = plan.naive_dataset();
        assert_eq!(reader.n_rows(), full.len() as u64);

        let m5 = M5Config::default().with_min_leaf(40);
        let refit = RefitConfig::new(384, m5);
        let windows = refit.windows(reader.n_rows());
        assert!(windows.len() > 1, "refit must slide, not fit once");
        for w in windows {
            let data = reader.window_dataset(w.clone()).unwrap();
            let ooc = ModelTree::fit(&data, &m5).unwrap();
            let rows: Vec<u32> = (w.start as u32..w.end as u32).collect();
            let mem = ModelTree::fit_indices(&full, &rows, &m5).unwrap();
            let context = format!("chunk_rows {chunk_rows}, window {w:?}");
            assert_trees_bit_identical(&ooc, &mem, &context);
            let ooc_predictions = ooc.compile().predict_batch(&data);
            let mem_predictions = mem.compile().predict_indices(&full, &rows);
            for (i, (a, b)) in ooc_predictions.iter().zip(&mem_predictions).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{context}: prediction for row {i} diverged"
                );
            }
            assert_eq!(ooc_predictions.len(), data.len());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sealed_container_is_thread_count_invariant() {
    let dir = scratch("threads");
    for chunk_rows in [1usize, 128] {
        let baseline = sealed_bytes(&dir, &stream_config(chunk_rows, 1), "t1");
        for threads in [2usize, 8] {
            let other = sealed_bytes(
                &dir,
                &stream_config(chunk_rows, threads),
                &format!("t{threads}"),
            );
            assert_eq!(
                baseline, other,
                "chunk_rows {chunk_rows}: {threads}-thread container bytes diverged from 1-thread"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn window_datasets_match_the_oracle_on_odd_boundaries() {
    let dir = scratch("windows");
    let cfg = stream_config(7, 2);
    sealed_bytes(&dir, &cfg, "odd");
    let mut reader = open_reader(&dir, "odd");
    let full = StreamPlan::new(&cfg).naive_dataset();
    let n = reader.n_rows();
    // Mid-chunk starts and ends, a single row, a whole chunk, the tail.
    let windows = [0..1, 5..13, 7..14, 3..n, n - 1..n, 0..n];
    for w in windows {
        let data = reader.window_dataset(w.clone()).unwrap();
        assert_eq!(data.len() as u64, w.end - w.start, "window {w:?}");
        for i in 0..data.len() {
            let j = w.start as usize + i;
            assert_eq!(data.label(i), full.label(j), "window {w:?} row {i}");
            assert_eq!(
                data.sample(i).cpi().to_bits(),
                full.sample(j).cpi().to_bits(),
                "window {w:?} row {i}"
            );
            for e in perfcounters::EventId::ALL {
                assert_eq!(
                    data.sample(i).get(e).to_bits(),
                    full.sample(j).get(e).to_bits(),
                    "window {w:?} row {i} event {e:?}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
