//! Compact binary (de)serialization for cached artifacts, and the one
//! integrity hash every container in this crate ends its regions with.
//!
//! Two container formats live here; the chunked `SPDC` container
//! ([`crate::chunked`]) shares their header and hash:
//!
//! * **`SPDS`** — a columnar [`Dataset`] image: name table, labels,
//!   then the CPI column and each event column as raw IEEE-754 bit
//!   patterns. Round-trips are bit-exact (enforced by tests and by the
//!   testkit cache-identity suite).
//! * **`SPMT`** — a [`ModelTree`] envelope: the tree's canonical JSON
//!   (the same serde representation `specrepro fit --out` writes)
//!   wrapped with version and integrity framing.
//!
//! ```text
//! SPDS  "SPDS" | format | schema | n_events | n | names | labels | cpi | events | hash
//! SPMT  "SPMT" | format | schema | len u64 | JSON payload                      | hash
//! ```
//!
//! Every container opens with the same 12-byte header — magic, the
//! container format [`CONTAINER_FORMAT`], the fingerprint
//! [`SCHEMA_VERSION`] — and decoders check it in that order, the magic
//! and the format *before* the hash. Files from before the format
//! marker (format 1: magic, schema version 1, byte-serial FNV-1a) carry
//! a 1 where the marker now sits, so they are refused as
//! [`CodecError::StaleFormat`] — stale, not corrupt. The store evicts
//! both kinds and recomputes; the fingerprint schema, and with it every
//! cache key, is untouched by a container format change.
//!
//! `integrity_hash` is a word-at-a-time, four-lane FNV-style hash:
//! each step xors a little-endian `u64` word into a lane, multiplies by
//! an odd constant and rotates — a bijection of the lane — so a flip of
//! any single bit anywhere in the hashed bytes always changes the hash.
//! Lanes fold in order, then the tail bytes and the total length.
//!
//! Decoding is one pass: the hash runs over the image once, then each
//! column's byte region is copied into its own `Vec<f64>` (labels into
//! a `Vec<u32>`), and [`Dataset::from_columns`] validates and adopts
//! the vectors as the dataset's storage. No rows are built: the image
//! and the [`Dataset`] have the same column-major layout.
//!
//! Numbers are little-endian. The formats are cache-internal: nothing
//! outside the artifact store reads them.

use crate::fingerprint::SCHEMA_VERSION;
use modeltree::ModelTree;
use perfcounters::events::N_EVENTS;
use perfcounters::{Dataset, EventId};

const DATASET_MAGIC: &[u8; 4] = b"SPDS";
const TREE_MAGIC: &[u8; 4] = b"SPMT";

/// Layout generation of every container this crate writes (`SPDS`,
/// `SPMT`, `SPDC`). Format 1 had no marker and hashed with byte-serial
/// FNV-1a; format 2 added the marker and `integrity_hash`. Bump it
/// whenever the bytes of a container change for the same content,
/// unless the current decoder reads the old bytes to the same artifact
/// as the new ones: a tree's `n_threads`, no longer written and ignored
/// when read, kept format 2 and every stored dataset valid.
pub const CONTAINER_FORMAT: u32 = 2;

/// Bytes of the header every container opens with: magic, container
/// format, schema version.
pub(crate) const HEADER_LEN: usize = 12;

/// Bytes one dataset row occupies in a columnar region: label, CPI,
/// event densities.
pub(crate) const ROW_BYTES: usize = 4 + 8 * (1 + N_EVENTS);

/// Why a cache file failed to decode (all variants are treated as a
/// cache miss by the store; the reason feeds the stage log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// File too short for the region being read.
    Truncated,
    /// Wrong magic bytes (not an artifact of this kind).
    BadMagic,
    /// Artifact written in another container format (an older layout
    /// or hash), checked before the integrity hash.
    StaleFormat(u32),
    /// Artifact written by a different schema version.
    WrongVersion(u32),
    /// Trailing integrity hash does not match the content.
    IntegrityMismatch,
    /// Structurally invalid content (bad label, bad UTF-8, bad JSON…).
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated artifact"),
            CodecError::BadMagic => write!(f, "bad magic bytes"),
            CodecError::StaleFormat(v) => {
                write!(f, "stale container format {v} (current {CONTAINER_FORMAT})")
            }
            CodecError::WrongVersion(v) => {
                write!(f, "schema version {v} (current {SCHEMA_VERSION})")
            }
            CodecError::IntegrityMismatch => write!(f, "integrity hash mismatch"),
            CodecError::Malformed(m) => write!(f, "malformed artifact: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Odd multiplier of [`integrity_hash`] (the 64-bit golden ratio).
const HASH_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;
/// Per-lane starting states; the first is the FNV-1a offset basis.
const HASH_SEEDS: [u64; 4] = [
    0xcbf2_9ce4_8422_2325,
    0x8422_2325_cbf2_9ce4,
    0x2325_cbf2_9ce4_8422,
    0x9ce4_8422_2325_cbf2,
];

/// One hash step: a bijection of `state` for every `word`, and of
/// `word` for every `state`.
#[inline(always)]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(HASH_PRIME).rotate_left(31)
}

/// The integrity hash that ends every hashed region of every container
/// (`SPDS`, `SPMT`, and each `SPDC` header, chunk body and directory).
///
/// Four independent lanes take consecutive little-endian `u64` words of
/// each 32-byte block; the lanes then fold into one state in order,
/// followed by the remaining whole words, the tail bytes, and the total
/// length. Every step is a bijection of the state it updates, so a
/// single flipped bit always changes the result. It is an error check,
/// not a cryptographic hash.
pub(crate) fn integrity_hash(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<32>();
    let mut lanes = HASH_SEEDS;
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut h = HASH_SEEDS[0];
    for lane in lanes {
        h = mix(h, lane);
    }
    let (words, tail) = tail.as_chunks::<8>();
    for word in words {
        h = mix(h, u64::from_le_bytes(*word));
    }
    for &b in tail {
        h = mix(h, u64::from(b));
    }
    mix(h, bytes.len() as u64)
}

/// Appends `bytes` and its [`integrity_hash`].
pub(crate) fn seal(mut bytes: Vec<u8>) -> Vec<u8> {
    let hash = integrity_hash(&bytes);
    bytes.extend_from_slice(&hash.to_le_bytes());
    bytes
}

/// Splits a hashed region into its body and verifies the trailing
/// [`integrity_hash`], returning the body and the stored hash.
pub(crate) fn verify_sealed(bytes: &[u8]) -> Result<(&[u8], u64), CodecError> {
    let (body, stored) = bytes.split_last_chunk::<8>().ok_or(CodecError::Truncated)?;
    let stored = u64::from_le_bytes(*stored);
    if integrity_hash(body) != stored {
        return Err(CodecError::IntegrityMismatch);
    }
    Ok((body, stored))
}

/// Appends the common container header for `magic`.
pub(crate) fn put_header(out: &mut Vec<u8>, magic: &[u8; 4]) {
    out.extend_from_slice(magic);
    out.extend_from_slice(&CONTAINER_FORMAT.to_le_bytes());
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
}

/// Checks a container header's magic and format marker, returning the
/// schema version it records. Runs before any hash, so a file in an
/// older layout reports [`CodecError::StaleFormat`], not corruption.
pub(crate) fn check_header(header: &[u8; HEADER_LEN], magic: &[u8; 4]) -> Result<u32, CodecError> {
    let [m0, m1, m2, m3, f0, f1, f2, f3, s0, s1, s2, s3] = *header;
    if [m0, m1, m2, m3] != *magic {
        return Err(CodecError::BadMagic);
    }
    let format = u32::from_le_bytes([f0, f1, f2, f3]);
    if format != CONTAINER_FORMAT {
        return Err(CodecError::StaleFormat(format));
    }
    Ok(u32::from_le_bytes([s0, s1, s2, s3]))
}

/// Appends fixed-width words in one bulk write.
pub(crate) fn put_words<const N: usize>(
    out: &mut Vec<u8>,
    words: impl ExactSizeIterator<Item = [u8; N]>,
) {
    let start = out.len();
    out.resize(start + N * words.len(), 0);
    for (dst, word) in out[start..].as_chunks_mut::<N>().0.iter_mut().zip(words) {
        *dst = word;
    }
}

/// Cursor over the bytes of a verified region.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet read.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.buf
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (out, rest) = self.buf.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.buf = rest;
        Ok(out)
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (out, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.buf = rest;
        Ok(*out)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }
}

/// The columns of `n` rows, as one columnar region stores them.
pub(crate) type ColumnRegion = (Vec<u32>, Vec<f64>, [Vec<f64>; N_EVENTS]);

/// Reads the columnar region of `n` rows that `SPDS` images and `SPDC`
/// chunk bodies share — labels, the CPI column, then each event column
/// — copying each column's bytes into its own vector in one pass.
pub(crate) fn read_columns(r: &mut Reader<'_>, n: usize) -> Result<ColumnRegion, CodecError> {
    fn f64s(bytes: &[u8]) -> Vec<f64> {
        let words = bytes.as_chunks::<8>().0;
        words.iter().map(|w| f64::from_le_bytes(*w)).collect()
    }
    let labels = r
        .take(4 * n)?
        .as_chunks::<4>()
        .0
        .iter()
        .map(|w| u32::from_le_bytes(*w))
        .collect();
    let cpi = f64s(r.take(8 * n)?);
    let mut events: [Vec<f64>; N_EVENTS] = Default::default();
    for column in &mut events {
        *column = f64s(r.take(8 * n)?);
    }
    Ok((labels, cpi, events))
}

/// Checks the header (magic and format before anything else), the
/// trailing integrity hash, then the schema version, returning the
/// payload between header and hash.
fn open_envelope<'a>(bytes: &'a [u8], magic: &[u8; 4]) -> Result<Reader<'a>, CodecError> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(CodecError::Truncated);
    }
    let (header, _) = bytes
        .split_first_chunk::<HEADER_LEN>()
        .ok_or(CodecError::Truncated)?;
    let version = check_header(header, magic)?;
    let (body, _) = verify_sealed(bytes)?;
    if version != SCHEMA_VERSION {
        return Err(CodecError::WrongVersion(version));
    }
    let mut r = Reader { buf: body };
    r.take(HEADER_LEN)?;
    Ok(r)
}

/// Encodes a dataset into the columnar `SPDS` image.
pub fn encode_dataset(data: &Dataset) -> Vec<u8> {
    let n = data.len();
    let names: usize = data.benchmark_names().iter().map(|s| 4 + s.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + 16 + names + n * ROW_BYTES + 8);
    put_header(&mut out, DATASET_MAGIC);
    out.extend_from_slice(&(N_EVENTS as u32).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(data.benchmark_count() as u32).to_le_bytes());
    for name in data.benchmark_names() {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    let cols = data.columns();
    put_words(&mut out, cols.labels().iter().map(|l| l.to_le_bytes()));
    put_words(&mut out, cols.cpi().iter().map(|v| v.to_le_bytes()));
    for e in EventId::ALL {
        put_words(&mut out, cols.event(e).iter().map(|v| v.to_le_bytes()));
    }
    seal(out)
}

/// Decodes an `SPDS` image back into a bit-identical dataset.
///
/// # Errors
///
/// Any framing, integrity, or structural defect returns a
/// [`CodecError`]; the store treats all of them as a miss.
pub fn decode_dataset(bytes: &[u8]) -> Result<Dataset, CodecError> {
    let mut r = open_envelope(bytes, DATASET_MAGIC)?;
    let n_events = r.u32()? as usize;
    if n_events != N_EVENTS {
        return Err(CodecError::Malformed(format!(
            "{n_events} event columns (expected {N_EVENTS})"
        )));
    }
    let n = usize::try_from(r.u64()?).map_err(|_| CodecError::Truncated)?;
    let n_benchmarks = r.u32()? as usize;
    let mut benchmarks = Vec::with_capacity(n_benchmarks.min(1024));
    for _ in 0..n_benchmarks {
        let len = r.u32()? as usize;
        let raw = r.take(len)?;
        let name = std::str::from_utf8(raw)
            .map_err(|e| CodecError::Malformed(format!("benchmark name: {e}")))?;
        benchmarks.push(name.to_owned());
    }
    // Guard against absurd sample counts before allocating.
    let remaining = r.buf.len();
    if n.checked_mul(ROW_BYTES) != Some(remaining) {
        return Err(CodecError::Malformed(format!(
            "{remaining} payload bytes for {n} samples (expected {ROW_BYTES} per sample)"
        )));
    }
    let (labels, cpi, events) = read_columns(&mut r, n)?;
    Dataset::from_columns(cpi, events, labels, benchmarks)
        .map_err(|e| CodecError::Malformed(e.to_string()))
}

/// Encodes a model tree into the `SPMT` envelope (canonical serde JSON
/// plus framing).
pub fn encode_tree(tree: &ModelTree) -> Vec<u8> {
    // Serializing a tree cannot fail; should it ever, the empty payload
    // is refused by `decode_tree` as malformed and the store recomputes.
    let payload = serde_json::to_vec(tree).unwrap_or_default();
    let mut out = Vec::with_capacity(HEADER_LEN + 8 + payload.len() + 8);
    put_header(&mut out, TREE_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    seal(out)
}

/// Decodes an `SPMT` envelope back into a model tree.
///
/// # Errors
///
/// Any framing, integrity, or JSON defect returns a [`CodecError`].
pub fn decode_tree(bytes: &[u8]) -> Result<ModelTree, CodecError> {
    let mut r = open_envelope(bytes, TREE_MAGIC)?;
    let len = usize::try_from(r.u64()?).map_err(|_| CodecError::Truncated)?;
    let payload = r.take(len)?;
    serde_json::from_slice(payload).map_err(|e| CodecError::Malformed(format!("tree json: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modeltree::M5Config;
    use perfcounters::Sample;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use workloads::generator::{GeneratorConfig, Suite};

    fn sample_dataset(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(99);
        Suite::cpu2006().generate(&mut rng, n, &GeneratorConfig::default(), 1)
    }

    fn assert_bit_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.benchmark_names(), b.benchmark_names());
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.label(i), b.label(i));
            assert_eq!(a.sample(i).cpi().to_bits(), b.sample(i).cpi().to_bits());
            for e in EventId::ALL {
                assert_eq!(a.sample(i).get(e).to_bits(), b.sample(i).get(e).to_bits());
            }
        }
    }

    #[test]
    fn dataset_roundtrip_bit_exact() {
        let ds = sample_dataset(300);
        let back = decode_dataset(&encode_dataset(&ds)).unwrap();
        assert_bit_identical(&ds, &back);
        assert_eq!(back, ds);
    }

    #[test]
    fn empty_dataset_roundtrip() {
        let ds = Dataset::new();
        let back = decode_dataset(&encode_dataset(&ds)).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.benchmark_count(), 0);
    }

    #[test]
    fn special_floats_roundtrip() {
        let mut ds = Dataset::new();
        let l = ds.add_benchmark("weird");
        let mut s = Sample::zeros(-0.0);
        s.set(EventId::Load, f64::MIN_POSITIVE);
        s.set(EventId::L2Miss, 1e-300);
        ds.push(s, l);
        let back = decode_dataset(&encode_dataset(&ds)).unwrap();
        assert_bit_identical(&ds, &back);
    }

    #[test]
    fn corruption_detected() {
        let ds = sample_dataset(50);
        let good = encode_dataset(&ds);
        // A flipped bit anywhere (header, payload, or hash) is caught.
        for pos in [0usize, 5, 40, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            assert!(decode_dataset(&bad).is_err(), "flip at {pos} undetected");
        }
    }

    #[test]
    fn truncation_detected() {
        let ds = sample_dataset(50);
        let good = encode_dataset(&ds);
        for keep in [0usize, 3, 12, good.len() / 2, good.len() - 1] {
            assert!(
                decode_dataset(&good[..keep]).is_err(),
                "truncation to {keep} undetected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version() {
        let ds = sample_dataset(10);
        let good = encode_dataset(&ds);
        assert!(matches!(
            decode_dataset(&encode_tree(&tree())),
            Err(CodecError::BadMagic)
        ));
        // Patch the schema version field and re-seal.
        let mut bad = good[..good.len() - 8].to_vec();
        bad[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        let bad = seal(bad);
        assert_eq!(
            decode_dataset(&bad).unwrap_err(),
            CodecError::WrongVersion(SCHEMA_VERSION + 1)
        );
    }

    #[test]
    fn other_container_format_is_stale_before_the_hash() {
        let good = encode_dataset(&sample_dataset(10));
        // A different marker without re-sealing: the hash no longer
        // matches, but the format check runs first.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&(CONTAINER_FORMAT + 1).to_le_bytes());
        assert_eq!(
            decode_dataset(&bad).unwrap_err(),
            CodecError::StaleFormat(CONTAINER_FORMAT + 1)
        );
    }

    #[test]
    fn hash_sees_every_lane_tail_and_length() {
        let base: Vec<u8> = (0..=200u8).collect();
        for len in 0..base.len() {
            let h = integrity_hash(&base[..len]);
            // Length is folded in: a prefix never collides with itself
            // extended by a zero byte.
            let mut longer = base[..len].to_vec();
            longer.push(0);
            assert_ne!(h, integrity_hash(&longer), "len {len}");
        }
        // Flipping the top bit of two words of the same lane does not
        // cancel (the rotation carries high bits into low ones).
        let mut a = vec![0u8; 64];
        a[7] ^= 0x80;
        a[39] ^= 0x80;
        assert_ne!(integrity_hash(&a), integrity_hash(&[0u8; 64]));
    }

    fn tree() -> ModelTree {
        let ds = sample_dataset(200);
        ModelTree::fit(&ds, &M5Config::default().with_min_leaf(20)).unwrap()
    }

    #[test]
    fn tree_roundtrip_is_canonical_json() {
        let t = tree();
        let back = decode_tree(&encode_tree(&t)).unwrap();
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
    }

    #[test]
    fn tree_corruption_detected() {
        let good = encode_tree(&tree());
        for pos in [0usize, 6, good.len() / 2, good.len() - 2] {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            assert!(decode_tree(&bad).is_err(), "flip at {pos} undetected");
        }
        assert!(decode_tree(&good[..good.len() - 9]).is_err());
    }
}
