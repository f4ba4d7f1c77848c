//! Integrity checks of every container the pipeline writes: `SPDS`
//! dataset images, `SPMT` tree envelopes, and `SPDC` chunk bodies and
//! containers.
//!
//! * Detection: on small images, every single-bit flip and every
//!   truncation to a shorter prefix is a typed error.
//! * Round-trip: bit-exact through `to_bits` for any values (special
//!   floats and NaN payloads included), for 0 and 1 rows, and for body
//!   lengths that leave every possible tail after the hash's 32-byte
//!   blocks.
//! * Format marker: files in the layout from before the marker
//!   (format 1: magic, schema version, byte-serial FNV-1a) are refused
//!   as stale before any hash is checked; the store evicts them and the
//!   recomputed artifacts equal the originals bit for bit.

use std::io::Cursor;

use modeltree::{M5Config, ModelTree};
use perfcounters::{Dataset, EventId, Sample};
use pipeline::codec::{self, CodecError};
use pipeline::{
    decode_chunk, encode_chunk, ArtifactStore, ChunkedReader, ChunkedWriter, DatasetSpec,
    Fingerprint, PipelineContext, SuiteKind, TreeSpec, SCHEMA_VERSION,
};
use proptest::prelude::*;

const N_EVENTS: usize = EventId::ALL.len();

/// Writers for the format-1 layouts, as fixtures for the stale-format
/// checks.
mod legacy {
    use super::*;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn seal(mut bytes: Vec<u8>) -> Vec<u8> {
        let hash = fnv1a(&bytes);
        bytes.extend_from_slice(&hash.to_le_bytes());
        bytes
    }

    fn names(out: &mut Vec<u8>, ds: &Dataset) {
        out.extend_from_slice(&(ds.benchmark_count() as u32).to_le_bytes());
        for name in ds.benchmark_names() {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
    }

    fn columns(out: &mut Vec<u8>, ds: &Dataset) {
        for i in 0..ds.len() {
            out.extend_from_slice(&ds.label(i).to_le_bytes());
        }
        for &v in ds.columns().cpi() {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for e in EventId::ALL {
            for &v in ds.columns().event(e) {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }

    pub fn spds(ds: &Dataset) -> Vec<u8> {
        let mut out = b"SPDS".to_vec();
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&(N_EVENTS as u32).to_le_bytes());
        out.extend_from_slice(&(ds.len() as u64).to_le_bytes());
        names(&mut out, ds);
        columns(&mut out, ds);
        seal(out)
    }

    pub fn spmt(tree: &ModelTree) -> Vec<u8> {
        let payload = serde_json::to_vec(tree).unwrap();
        let mut out = b"SPMT".to_vec();
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        seal(out)
    }

    /// A whole-dataset, single-chunk container.
    pub fn spdc(ds: &Dataset) -> Vec<u8> {
        let mut header = b"SPDC".to_vec();
        header.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        header.extend_from_slice(&(N_EVENTS as u32).to_le_bytes());
        names(&mut header, ds);
        let mut out = seal(header);
        let mut body = (ds.len() as u32).to_le_bytes().to_vec();
        columns(&mut body, ds);
        let body = seal(body);
        let offset = out.len() as u64;
        out.extend_from_slice(&body);
        let mut dir = 1u64.to_le_bytes().to_vec();
        for v in [
            offset,
            body.len() as u64,
            ds.len() as u64,
            fnv1a(&body[..body.len() - 8]),
        ] {
            dir.extend_from_slice(&v.to_le_bytes());
        }
        let dir_offset = out.len() as u64;
        out.extend_from_slice(&seal(dir));
        out.extend_from_slice(&dir_offset.to_le_bytes());
        out.extend_from_slice(&(ds.len() as u64).to_le_bytes());
        out.extend_from_slice(b"CDPS");
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        out
    }
}

fn temp_store(tag: &str) -> ArtifactStore {
    let dir = std::env::temp_dir().join(format!(
        "specrepro-container-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ArtifactStore::open(dir)
}

/// A small dataset: `n` rows over two benchmarks, values from `value`.
fn small_dataset(n: usize, name_len: usize, value: impl Fn(usize) -> f64) -> Dataset {
    let mut ds = Dataset::new();
    let a = ds.add_benchmark(&"a".repeat(name_len));
    let b = ds.add_benchmark("433.milc");
    for i in 0..n {
        let mut s = Sample::zeros(value(i * (N_EVENTS + 1)));
        for (k, e) in EventId::ALL.iter().enumerate() {
            s.set(*e, value(i * (N_EVENTS + 1) + k + 1));
        }
        ds.push(s, if i % 2 == 0 { a } else { b });
    }
    ds
}

fn assert_bit_identical(a: &Dataset, b: &Dataset) {
    assert_eq!(a.benchmark_names(), b.benchmark_names());
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        assert_eq!(a.label(i), b.label(i), "label {i}");
        assert_eq!(a.sample(i).cpi().to_bits(), b.sample(i).cpi().to_bits());
        for e in EventId::ALL {
            assert_eq!(
                a.sample(i).get(e).to_bits(),
                b.sample(i).get(e).to_bits(),
                "row {i} {e:?}"
            );
        }
    }
}

/// The event columns of `ds`, event-major, as `encode_chunk` takes them.
fn chunk_body(ds: &Dataset) -> Vec<u8> {
    let labels: Vec<u32> = (0..ds.len()).map(|i| ds.label(i)).collect();
    let mut events = Vec::with_capacity(N_EVENTS * ds.len());
    for e in EventId::ALL {
        events.extend_from_slice(ds.columns().event(e));
    }
    encode_chunk(&labels, ds.columns().cpi(), &events)
}

fn container(ds: &Dataset, chunk_rows: usize) -> Vec<u8> {
    let mut cursor = Cursor::new(Vec::new());
    let mut w = ChunkedWriter::new(&mut cursor, ds.benchmark_names()).unwrap();
    let mut at = 0;
    while at < ds.len() {
        let end = (at + chunk_rows).min(ds.len());
        let part = Dataset::from_parts(
            (at..end).map(|i| ds.sample(i).clone()).collect(),
            (at..end).map(|i| ds.label(i)).collect(),
            ds.benchmark_names().to_vec(),
        )
        .unwrap();
        w.append_chunk(&chunk_body(&part), None).unwrap();
        at = end;
    }
    w.finish().unwrap();
    cursor.into_inner()
}

/// Opens a container and reads every row: the whole read path.
fn read_container(bytes: &[u8]) -> Result<Dataset, CodecError> {
    let mut r = ChunkedReader::open(Cursor::new(bytes))?;
    let n = r.n_rows();
    r.window_dataset(0..n)
}

/// Asserts that every single-bit flip of `good` and every shorter
/// prefix of it fails `decode`.
fn assert_every_flip_and_prefix_detected<T>(
    what: &str,
    good: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, CodecError>,
) {
    assert!(decode(good).is_ok(), "{what}: pristine image must decode");
    let mut bad = good.to_vec();
    for pos in 0..good.len() {
        for bit in 0..8 {
            bad[pos] ^= 1 << bit;
            assert!(
                decode(&bad).is_err(),
                "{what}: flip of bit {bit} at byte {pos} undetected"
            );
            bad[pos] ^= 1 << bit;
        }
    }
    for keep in 0..good.len() {
        assert!(
            decode(&good[..keep]).is_err(),
            "{what}: truncation to {keep} bytes undetected"
        );
    }
}

#[test]
fn every_flip_and_truncation_of_a_dataset_image_is_detected() {
    let ds = small_dataset(3, 5, |k| k as f64 * 0.25);
    assert_every_flip_and_prefix_detected(
        "SPDS",
        &codec::encode_dataset(&ds),
        codec::decode_dataset,
    );
}

#[test]
fn every_flip_and_truncation_of_a_tree_envelope_is_detected() {
    let ds = small_dataset(24, 3, |k| ((k * 37) % 101) as f64 / 50.0);
    let tree = ModelTree::fit(&ds, &M5Config::default().with_min_leaf(8)).unwrap();
    assert_every_flip_and_prefix_detected("SPMT", &codec::encode_tree(&tree), codec::decode_tree);
}

#[test]
fn every_flip_and_truncation_of_a_chunk_is_detected() {
    let ds = small_dataset(2, 1, |k| 1.0 / (k + 1) as f64);
    assert_every_flip_and_prefix_detected("SPDC chunk", &chunk_body(&ds), decode_chunk);
    // The same over a whole two-chunk container: header, bodies,
    // directory and footer.
    let bytes = container(&small_dataset(3, 2, |k| k as f64), 2);
    assert_every_flip_and_prefix_detected("SPDC container", &bytes, read_container);
}

#[test]
fn every_tail_length_and_row_count_round_trips() {
    // Name lengths 0..32 shift the image across every residue modulo
    // the hash's 32-byte block; row counts cover 0 and 1.
    for n in [0usize, 1, 2, 5] {
        for name_len in 0..32 {
            let ds = small_dataset(n, name_len, |k| (k as f64).sqrt() - 1.5);
            let image = codec::encode_dataset(&ds);
            assert_bit_identical(&ds, &codec::decode_dataset(&image).unwrap());
            let chunk = decode_chunk(&chunk_body(&ds)).unwrap();
            assert_eq!(chunk.rows(), n);
            assert_bit_identical(&ds, &chunk.to_dataset(ds.benchmark_names()).unwrap());
            assert_bit_identical(&ds, &read_container(&container(&ds, 2)).unwrap());
        }
    }
}

const SPECIAL: [f64; 9] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
    5e-324,
    f64::MAX,
    -1e-300,
];

/// Special floats a third of the time, otherwise any bit pattern (NaN
/// payloads and subnormals included).
fn any_f64() -> impl Strategy<Value = f64> {
    (0usize..3 * SPECIAL.len(), 0u64..u64::MAX).prop_map(|(k, bits)| {
        SPECIAL
            .get(k)
            .copied()
            .unwrap_or_else(|| f64::from_bits(bits))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_values_round_trip_bit_exact(
        rows in proptest::collection::vec(
            proptest::collection::vec(any_f64(), N_EVENTS + 1),
            0..40,
        ),
        name_len in 0usize..40,
        chunk_rows in 1usize..9,
    ) {
        let ds = small_dataset(rows.len(), name_len, |k| rows[k / (N_EVENTS + 1)][k % (N_EVENTS + 1)]);
        let back = codec::decode_dataset(&codec::encode_dataset(&ds)).unwrap();
        assert_bit_identical(&ds, &back);
        let back = read_container(&container(&ds, chunk_rows)).unwrap();
        assert_bit_identical(&ds, &back);
    }
}

#[test]
fn old_containers_are_stale_not_corrupt() {
    let ds = small_dataset(4, 6, |k| k as f64 / 3.0);
    let tree = ModelTree::fit(
        &small_dataset(24, 3, |k| (k % 7) as f64),
        &M5Config::default().with_min_leaf(8),
    )
    .unwrap();
    let stale = Err(CodecError::StaleFormat(1));
    assert_eq!(codec::decode_dataset(&legacy::spds(&ds)).map(|_| ()), stale);
    assert_eq!(codec::decode_tree(&legacy::spmt(&tree)).map(|_| ()), stale);
    assert_eq!(read_container(&legacy::spdc(&ds)).map(|_| ()), stale);
}

fn artifact_path(
    store: &ArtifactStore,
    kind: &str,
    ext: &str,
    key: Fingerprint,
) -> std::path::PathBuf {
    store
        .root()
        .join(format!("v{SCHEMA_VERSION}"))
        .join(kind)
        .join(format!("{}.{ext}", key.to_hex()))
}

#[test]
fn old_format_artifacts_under_live_keys_are_evicted_and_recomputed() {
    let store = temp_store("legacy");
    let spec = DatasetSpec::new(SuiteKind::cpu2006(), 400, 17);
    let tree_spec = TreeSpec::new(spec.clone(), M5Config::default().with_min_leaf(40));
    let cold = PipelineContext::with_store(store.clone());
    let data = cold.dataset(&spec).unwrap();
    let tree = cold.tree(&tree_spec).unwrap();

    // The pre-marker layout, written under the live keys.
    let data_path = artifact_path(&store, "datasets", "spds", spec.fingerprint());
    let tree_path = artifact_path(&store, "trees", "spmt", tree_spec.fingerprint());
    assert!(data_path.exists() && tree_path.exists());
    std::fs::write(&data_path, legacy::spds(&data)).unwrap();
    std::fs::write(&tree_path, legacy::spmt(&tree)).unwrap();

    // Loads report the files as stale and evict them.
    assert_eq!(
        store.load_dataset(spec.fingerprint()).map(|_| ()),
        Err(Some(CodecError::StaleFormat(1)))
    );
    assert_eq!(
        store.load_tree(tree_spec.fingerprint()).map(|_| ()),
        Err(Some(CodecError::StaleFormat(1)))
    );
    assert!(!data_path.exists() && !tree_path.exists());

    // Through the pipeline: the stale files are evicted, the artifacts
    // recomputed and rewritten, and a warm pass replays them exactly.
    std::fs::write(&data_path, legacy::spds(&data)).unwrap();
    std::fs::write(&tree_path, legacy::spmt(&tree)).unwrap();
    let healed = PipelineContext::with_store(store.clone());
    let data_again = healed.dataset(&spec).unwrap();
    let tree_again = healed.tree(&tree_spec).unwrap();
    let c = healed.counters();
    assert_eq!(
        (c.corrupt_evicted, c.datasets_generated, c.trees_fitted),
        (2, 1, 1)
    );

    let warm = PipelineContext::with_store(store.clone());
    let data_warm = warm.dataset(&spec).unwrap();
    let tree_warm = warm.tree(&tree_spec).unwrap();
    let c = warm.counters();
    assert_eq!((c.datasets_loaded, c.trees_loaded), (1, 1));
    assert_eq!(
        (c.datasets_generated, c.trees_fitted, c.corrupt_evicted),
        (0, 0, 0)
    );
    for d in [&data_again, &data_warm] {
        assert_bit_identical(&data, d);
    }
    let json = serde_json::to_string(&*tree).unwrap();
    for t in [&tree_again, &tree_warm] {
        assert_eq!(json, serde_json::to_string(&**t).unwrap());
    }
    store.clear().unwrap();
}
