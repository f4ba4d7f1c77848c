//! Chunked columnar dataset containers (`SPDC`) for out-of-core work.
//!
//! The flat `SPDS` image ([`crate::codec`]) materializes a whole
//! dataset in one buffer — fine for cache artifacts, unusable for
//! fleet-scale streams that exceed RAM. The `SPDC` container splits
//! the same columnar layout into independently decodable, individually
//! hashed chunks behind a directory, so readers can address any row
//! range through `Read`/`Seek` without touching the rest of the file:
//!
//! ```text
//! header     "SPDC" | format | schema version | n_events | benchmark names | hash
//! bodies     chunk 0 | chunk 1 | ...          (each ends in its own hash)
//! directory  n_chunks | (offset, len, rows, hash)* | hash
//! footer     dir_offset | total_rows | "CDPS" | schema version
//! ```
//!
//! The header opens like every container in this crate: magic,
//! container format ([`crate::codec::CONTAINER_FORMAT`]), schema
//! version. [`ChunkedReader::open`] checks the magic and the format
//! first, so a container written in an older layout is refused as
//! [`CodecError::StaleFormat`] before any hash is computed.
//!
//! Each chunk body is a self-contained columnar block (`rows`, labels,
//! CPI bits, event columns, integrity hash). The directory duplicates
//! each body's hash so a reader can verify a chunk without trusting the
//! body bytes, and the fixed-size footer lets `open` find the directory
//! with two seeks. Every region — header, each body, directory — ends
//! in the crate's one integrity hash (the word-wise hash documented in
//! [`crate::codec`]): a bit flip anywhere is a typed [`CodecError`],
//! never a silent bad read, and so is a truncation.
//!
//! Writers append chunks as they are sealed (constant memory), then
//! write the directory last. [`ChunkedWriter::append_chunk`] verifies
//! every body by reading it back, so a short write (injected by the
//! fault harness, or a real torn write) is detected and rewritten in
//! place before the directory ever references it.
//!
//! Readers never build rows. A chunk body has the same column region
//! as an `SPDS` image, and decodes into a [`DecodedChunk`] of one
//! vector per column. [`ChunkedReader::window_dataset`] appends each
//! covering chunk's column slices to the window's columns, and
//! [`Dataset::from_columns`] adopts them as the window's storage.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::codec::{
    check_header, integrity_hash, put_header, put_words, read_columns, seal, verify_sealed,
    CodecError, Reader, HEADER_LEN, ROW_BYTES,
};
use crate::fingerprint::{Fingerprint, FingerprintHasher, SCHEMA_VERSION};
use modeltree::CompiledTree;
use perfcounters::events::N_EVENTS;
use perfcounters::Dataset;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;

const CHUNKED_MAGIC: &[u8; 4] = b"SPDC";
const FOOTER_MAGIC: &[u8; 4] = b"CDPS";
/// `dir_offset u64 | total_rows u64 | magic | version u32`.
const FOOTER_LEN: u64 = 8 + 8 + 4 + 4;

fn io_err(e: std::io::Error) -> CodecError {
    CodecError::Malformed(format!("container io: {e}"))
}

/// Reads exactly `N` bytes from the current position.
fn read_array<const N: usize>(src: &mut impl Read) -> Result<[u8; N], CodecError> {
    let mut out = [0u8; N];
    src.read_exact(&mut out).map_err(io_err)?;
    Ok(out)
}

/// Directory entry for one sealed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Absolute byte offset of the chunk body in the container.
    pub offset: u64,
    /// Body length in bytes (including the trailing hash).
    pub len: u64,
    /// Rows in the chunk.
    pub rows: u64,
    /// The body's trailing integrity hash, duplicated for verification.
    pub hash: u64,
}

/// One decoded chunk: a columnar block of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedChunk {
    /// Benchmark label per row.
    pub labels: Vec<u32>,
    /// CPI column.
    pub cpi: Vec<f64>,
    /// Event columns, indexed by [`perfcounters::EventId::index`].
    pub events: [Vec<f64>; N_EVENTS],
}

impl DecodedChunk {
    fn with_capacity(rows: usize) -> DecodedChunk {
        DecodedChunk {
            labels: Vec::with_capacity(rows),
            cpi: Vec::with_capacity(rows),
            events: std::array::from_fn(|_| Vec::with_capacity(rows)),
        }
    }

    /// Rows in the chunk.
    pub fn rows(&self) -> usize {
        self.labels.len()
    }

    /// Appends rows `range` of every column of this chunk to `out`.
    fn append_to(&self, range: Range<usize>, out: &mut DecodedChunk) -> Result<(), CodecError> {
        let outside = || {
            CodecError::Malformed(format!(
                "row range {range:?} outside chunk of {}",
                self.rows()
            ))
        };
        let labels = self.labels.get(range.clone()).ok_or_else(outside)?;
        let cpi = self.cpi.get(range.clone()).ok_or_else(outside)?;
        out.labels.extend_from_slice(labels);
        out.cpi.extend_from_slice(cpi);
        for (dst, src) in out.events.iter_mut().zip(&self.events) {
            dst.extend_from_slice(src.get(range.clone()).ok_or_else(outside)?);
        }
        Ok(())
    }

    /// Materializes the chunk as a standalone [`Dataset`] sharing the
    /// container's benchmark name table: the columns are copied as they
    /// are, no rows are built.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] when a label points outside
    /// the name table.
    pub fn to_dataset(&self, benchmarks: &[String]) -> Result<Dataset, CodecError> {
        self.clone().into_dataset(benchmarks.to_vec())
    }

    /// [`DecodedChunk::to_dataset`], adopting the columns instead of
    /// copying them.
    fn into_dataset(self, benchmarks: Vec<String>) -> Result<Dataset, CodecError> {
        Dataset::from_columns(self.cpi, self.events, self.labels, benchmarks)
            .map_err(|e| CodecError::Malformed(e.to_string()))
    }
}

/// Encodes one columnar chunk body (labels, CPI, event columns) with a
/// trailing integrity hash.
///
/// # Panics
///
/// Panics if the column lengths disagree (`events` must hold
/// `N_EVENTS * labels.len()` values, event-major).
pub fn encode_chunk(labels: &[u32], cpi: &[f64], events: &[f64]) -> Vec<u8> {
    let rows = labels.len();
    assert_eq!(cpi.len(), rows, "cpi column length");
    assert_eq!(events.len(), N_EVENTS * rows, "event column length");
    let mut out = Vec::with_capacity(4 + rows * ROW_BYTES + 8);
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    put_words(&mut out, labels.iter().map(|l| l.to_le_bytes()));
    put_words(&mut out, cpi.iter().map(|v| v.to_le_bytes()));
    put_words(&mut out, events.iter().map(|v| v.to_le_bytes()));
    seal(out)
}

/// Verifies one chunk body's hash and length, returning its row count,
/// its column region (labels, CPI, events) and its hash.
fn verify_chunk(bytes: &[u8]) -> Result<(usize, &[u8], u64), CodecError> {
    if bytes.len() < 4 + 8 {
        return Err(CodecError::Truncated);
    }
    let (body, hash) = verify_sealed(bytes)?;
    let mut r = Reader::new(body);
    let rows = r.u32()? as usize;
    let columns = r.rest();
    if rows.checked_mul(ROW_BYTES) != Some(columns.len()) {
        return Err(CodecError::Malformed(format!(
            "{} body bytes for {rows} rows (expected {ROW_BYTES} per row)",
            body.len()
        )));
    }
    Ok((rows, columns, hash))
}

/// Decodes and verifies one chunk body.
///
/// # Errors
///
/// Returns a typed [`CodecError`] on truncation, length mismatch, or
/// integrity-hash mismatch.
pub fn decode_chunk(bytes: &[u8]) -> Result<DecodedChunk, CodecError> {
    let (rows, columns, _) = verify_chunk(bytes)?;
    let (labels, cpi, events) = read_columns(&mut Reader::new(columns), rows)?;
    Ok(DecodedChunk {
        labels,
        cpi,
        events,
    })
}

fn encode_header(benchmarks: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, CHUNKED_MAGIC);
    out.extend_from_slice(&(N_EVENTS as u32).to_le_bytes());
    out.extend_from_slice(&(benchmarks.len() as u32).to_le_bytes());
    for name in benchmarks {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    seal(out)
}

/// Incremental `SPDC` writer: header up front, chunk bodies as they
/// seal, directory and footer on [`ChunkedWriter::finish`].
///
/// The underlying stream must support reads and seeks because every
/// appended body is read back and verified before the directory is
/// allowed to reference it (see [`ChunkedWriter::append_chunk`]).
#[derive(Debug)]
pub struct ChunkedWriter<W: Read + Write + Seek> {
    dst: W,
    chunks: Vec<ChunkMeta>,
    cursor: u64,
    total_rows: u64,
    recoveries: u64,
}

impl<W: Read + Write + Seek> ChunkedWriter<W> {
    /// Starts a container: writes the header for the given benchmark
    /// name table.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn new(mut dst: W, benchmarks: &[String]) -> std::io::Result<Self> {
        let header = encode_header(benchmarks);
        dst.seek(SeekFrom::Start(0))?;
        dst.write_all(&header)?;
        Ok(ChunkedWriter {
            dst,
            chunks: Vec::new(),
            cursor: header.len() as u64,
            total_rows: 0,
            recoveries: 0,
        })
    }

    /// Appends one encoded chunk body (from [`encode_chunk`]), then
    /// reads it back and verifies the trailing hash. A torn or
    /// truncated write — real, or injected by the fault harness via
    /// `truncate_to` — is detected here and the body is rewritten in
    /// place, so the directory never references corrupt bytes.
    ///
    /// `truncate_to` caps the first write attempt at that many bytes
    /// (fault injection); `None` writes normally.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; fails if the body still verifies wrong
    /// after one rewrite (a genuinely broken device).
    pub fn append_chunk(
        &mut self,
        body: &[u8],
        truncate_to: Option<usize>,
    ) -> std::io::Result<ChunkMeta> {
        let offset = self.cursor;
        let first = truncate_to.map_or(body, |n| &body[..n.min(body.len())]);
        self.dst.seek(SeekFrom::Start(offset))?;
        self.dst.write_all(first)?;
        self.dst.flush()?;
        if !self.verify_region(offset, body)? {
            obskit::metrics::incr(obskit::metrics::Metric::StreamChunkRecoveries);
            self.recoveries += 1;
            self.dst.seek(SeekFrom::Start(offset))?;
            self.dst.write_all(body)?;
            self.dst.flush()?;
            if !self.verify_region(offset, body)? {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "chunk body failed read-back verification after rewrite",
                ));
            }
        }
        let (rows, _, hash) = verify_chunk(body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let meta = ChunkMeta {
            offset,
            len: body.len() as u64,
            rows: rows as u64,
            hash,
        };
        self.cursor = offset + body.len() as u64;
        self.total_rows += meta.rows;
        self.chunks.push(meta);
        Ok(meta)
    }

    /// Reads `expected.len()` bytes at `offset` and compares them to
    /// `expected`. Short reads count as mismatch, not error.
    fn verify_region(&mut self, offset: u64, expected: &[u8]) -> std::io::Result<bool> {
        self.dst.seek(SeekFrom::Start(offset))?;
        let mut got = vec![0u8; expected.len()];
        let mut filled = 0;
        while filled < got.len() {
            match self.dst.read(&mut got[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(filled == expected.len() && got == expected)
    }

    /// Number of torn writes detected and repaired so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Writes the directory and footer, consuming the writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(mut self) -> std::io::Result<(u64, Vec<ChunkMeta>)> {
        let dir_offset = self.cursor;
        let mut dir = Vec::with_capacity(8 + self.chunks.len() * 32 + 8);
        dir.extend_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        for c in &self.chunks {
            dir.extend_from_slice(&c.offset.to_le_bytes());
            dir.extend_from_slice(&c.len.to_le_bytes());
            dir.extend_from_slice(&c.rows.to_le_bytes());
            dir.extend_from_slice(&c.hash.to_le_bytes());
        }
        let dir = seal(dir);
        self.dst.seek(SeekFrom::Start(dir_offset))?;
        self.dst.write_all(&dir)?;
        self.dst.write_all(&dir_offset.to_le_bytes())?;
        self.dst.write_all(&self.total_rows.to_le_bytes())?;
        self.dst.write_all(FOOTER_MAGIC)?;
        self.dst.write_all(&SCHEMA_VERSION.to_le_bytes())?;
        self.dst.flush()?;
        Ok((self.total_rows, self.chunks))
    }
}

/// An open `SPDC` container: the parsed directory plus a seekable
/// source, addressing any chunk or row range without materializing the
/// rest — the [`Dataset`] out-of-core view.
#[derive(Debug)]
pub struct ChunkedReader<R: Read + Seek> {
    src: R,
    benchmarks: Vec<String>,
    chunks: Vec<ChunkMeta>,
    /// Global row index at which each chunk starts (prefix sums), plus
    /// one trailing entry equal to the total row count.
    row_starts: Vec<u64>,
}

impl<R: Read + Seek> ChunkedReader<R> {
    /// Opens a container: validates the header's magic and format
    /// marker, then the footer, directory, and the rest of the header
    /// (schema version, integrity hashes, offset sanity).
    ///
    /// # Errors
    ///
    /// Returns a typed [`CodecError`] for any framing defect — stale
    /// container format or schema version, truncated directory, hash
    /// mismatch.
    pub fn open(mut src: R) -> Result<Self, CodecError> {
        let file_len = src.seek(SeekFrom::End(0)).map_err(io_err)?;
        if file_len < HEADER_LEN as u64 + FOOTER_LEN {
            return Err(CodecError::Truncated);
        }
        // The format marker comes first: a container in an older
        // layout is stale, whatever its hashes say.
        src.seek(SeekFrom::Start(0)).map_err(io_err)?;
        let prefix: [u8; HEADER_LEN] = read_array(&mut src)?;
        let version = check_header(&prefix, CHUNKED_MAGIC)?;
        if version != SCHEMA_VERSION {
            return Err(CodecError::WrongVersion(version));
        }

        src.seek(SeekFrom::Start(file_len - FOOTER_LEN))
            .map_err(io_err)?;
        let footer: [u8; FOOTER_LEN as usize] = read_array(&mut src)?;
        let mut f = Reader::new(&footer);
        let dir_offset = f.u64()?;
        let total_rows = f.u64()?;
        if &f.array::<4>()? != FOOTER_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = f.u32()?;
        if version != SCHEMA_VERSION {
            return Err(CodecError::WrongVersion(version));
        }
        if dir_offset > file_len - FOOTER_LEN {
            return Err(CodecError::Truncated);
        }
        // Directory: everything between dir_offset and the footer.
        let dir_len = (file_len - FOOTER_LEN - dir_offset) as usize;
        if dir_len < 8 + 8 {
            return Err(CodecError::Truncated);
        }
        src.seek(SeekFrom::Start(dir_offset)).map_err(io_err)?;
        let mut dir = vec![0u8; dir_len];
        src.read_exact(&mut dir).map_err(io_err)?;
        let (body, _) = verify_sealed(&dir)?;
        let mut d = Reader::new(body);
        let n_chunks = d.u64()? as usize;
        if n_chunks.checked_mul(32) != Some(d.rest().len()) {
            return Err(CodecError::Malformed(format!(
                "directory holds {} bytes for {n_chunks} chunks",
                body.len()
            )));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut row_starts = Vec::with_capacity(n_chunks + 1);
        let mut rows_so_far = 0u64;
        for i in 0..n_chunks {
            let meta = ChunkMeta {
                offset: d.u64()?,
                len: d.u64()?,
                rows: d.u64()?,
                hash: d.u64()?,
            };
            let end = meta.offset.saturating_add(meta.len);
            if end > dir_offset {
                return Err(CodecError::Malformed(format!(
                    "chunk {i} region [{}, {end}) overlaps the directory",
                    meta.offset
                )));
            }
            row_starts.push(rows_so_far);
            rows_so_far = rows_so_far
                .checked_add(meta.rows)
                .ok_or_else(|| CodecError::Malformed("directory row count overflows".into()))?;
            chunks.push(meta);
        }
        row_starts.push(rows_so_far);
        if rows_so_far != total_rows {
            return Err(CodecError::Malformed(format!(
                "directory rows {rows_so_far} != footer rows {total_rows}"
            )));
        }
        // The rest of the header, re-assembled for its hash.
        src.seek(SeekFrom::Start(HEADER_LEN as u64))
            .map_err(io_err)?;
        let mut header = prefix.to_vec();
        let read_u32 = |src: &mut R, header: &mut Vec<u8>| -> Result<u32, CodecError> {
            let word: [u8; 4] = read_array(src)?;
            header.extend_from_slice(&word);
            Ok(u32::from_le_bytes(word))
        };
        let n_events = read_u32(&mut src, &mut header)? as usize;
        if n_events != N_EVENTS {
            return Err(CodecError::Malformed(format!(
                "{n_events} event columns (expected {N_EVENTS})"
            )));
        }
        let n_benchmarks = read_u32(&mut src, &mut header)? as usize;
        let mut benchmarks = Vec::with_capacity(n_benchmarks.min(1024));
        for _ in 0..n_benchmarks {
            let len = read_u32(&mut src, &mut header)? as usize;
            if len > dir_offset as usize {
                return Err(CodecError::Truncated);
            }
            let mut raw = vec![0u8; len];
            src.read_exact(&mut raw).map_err(io_err)?;
            header.extend_from_slice(&raw);
            let name = String::from_utf8(raw)
                .map_err(|e| CodecError::Malformed(format!("benchmark name: {e}")))?;
            benchmarks.push(name);
        }
        let stored: [u8; 8] = read_array(&mut src)?;
        if integrity_hash(&header) != u64::from_le_bytes(stored) {
            return Err(CodecError::IntegrityMismatch);
        }
        Ok(ChunkedReader {
            src,
            benchmarks,
            chunks,
            row_starts,
        })
    }

    /// Total rows across all chunks.
    pub fn n_rows(&self) -> u64 {
        *self.row_starts.last().unwrap_or(&0)
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Directory entry of one chunk.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn meta(&self, i: usize) -> ChunkMeta {
        self.chunks[i]
    }

    /// Global row index at which chunk `i` starts.
    ///
    /// # Panics
    ///
    /// Panics if `i > n_chunks()`.
    pub fn row_start(&self, i: usize) -> u64 {
        self.row_starts[i]
    }

    /// The container's benchmark name table.
    pub fn benchmarks(&self) -> &[String] {
        &self.benchmarks
    }

    /// Reads and verifies one chunk.
    ///
    /// # Errors
    ///
    /// [`CodecError::IntegrityMismatch`] when the body hash disagrees
    /// with the body or the directory; other variants for framing
    /// defects.
    pub fn read_chunk(&mut self, i: usize) -> Result<DecodedChunk, CodecError> {
        let meta = *self
            .chunks
            .get(i)
            .ok_or_else(|| CodecError::Malformed(format!("chunk {i} out of range")))?;
        let bytes = self.read_chunk_bytes(meta)?;
        if bytes.last_chunk::<8>().map(|h| u64::from_le_bytes(*h)) != Some(meta.hash) {
            return Err(CodecError::IntegrityMismatch);
        }
        let chunk = decode_chunk(&bytes)?;
        if chunk.rows() as u64 != meta.rows {
            return Err(CodecError::Malformed(format!(
                "chunk {i} decodes {} rows, directory says {}",
                chunk.rows(),
                meta.rows
            )));
        }
        Ok(chunk)
    }

    fn read_chunk_bytes(&mut self, meta: ChunkMeta) -> Result<Vec<u8>, CodecError> {
        if meta.len < 12 {
            return Err(CodecError::Truncated);
        }
        self.src
            .seek(SeekFrom::Start(meta.offset))
            .map_err(io_err)?;
        let mut bytes = vec![0u8; meta.len as usize];
        self.src.read_exact(&mut bytes).map_err(io_err)?;
        obskit::metrics::add(obskit::metrics::Metric::PipelineBytesRead, meta.len);
        Ok(bytes)
    }

    /// Materializes one chunk as a [`Dataset`] carrying the container's
    /// name table.
    ///
    /// # Errors
    ///
    /// Propagates [`ChunkedReader::read_chunk`] errors plus label
    /// range defects.
    pub fn chunk_dataset(&mut self, i: usize) -> Result<Dataset, CodecError> {
        let benchmarks = self.benchmarks.clone();
        self.read_chunk(i)?.into_dataset(benchmarks)
    }

    /// The chunk indices whose rows intersect the global row range.
    pub fn chunks_covering(&self, rows: &Range<u64>) -> Range<usize> {
        if rows.start >= rows.end {
            return 0..0;
        }
        let first = self.row_starts.partition_point(|&s| s <= rows.start) - 1;
        let last = self.row_starts.partition_point(|&s| s < rows.end) - 1;
        first..(last + 1).min(self.chunks.len())
    }

    /// Materializes global rows `[rows.start, rows.end)` as a
    /// [`Dataset`], decoding only the chunks that intersect the range
    /// and appending each one's column slices to the window's columns —
    /// the out-of-core window view: peak memory is the window plus one
    /// chunk, independent of container size.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range windows and on any chunk defect.
    pub fn window_dataset(&mut self, rows: Range<u64>) -> Result<Dataset, CodecError> {
        if rows.end > self.n_rows() || rows.start > rows.end {
            return Err(CodecError::Malformed(format!(
                "window {rows:?} outside container of {} rows",
                self.n_rows()
            )));
        }
        let mut window = DecodedChunk::with_capacity((rows.end - rows.start) as usize);
        for i in self.chunks_covering(&rows) {
            let start = self.row_starts[i];
            let chunk = self.read_chunk(i)?;
            let lo = rows.start.saturating_sub(start) as usize;
            let hi = ((rows.end - start) as usize).min(chunk.rows());
            chunk.append_to(lo..hi, &mut window)?;
        }
        window.into_dataset(self.benchmarks.clone())
    }

    /// Streams every chunk through the compiled engine's block kernels,
    /// returning predictions in container row order. Peak memory is one
    /// chunk, never the whole table.
    ///
    /// # Errors
    ///
    /// Propagates chunk read errors.
    pub fn predict_all(&mut self, tree: &CompiledTree) -> Result<Vec<f64>, CodecError> {
        let mut out = Vec::with_capacity(self.n_rows() as usize);
        for i in 0..self.n_chunks() {
            let ds = self.chunk_dataset(i)?;
            out.extend(tree.predict_batch(&ds));
        }
        Ok(out)
    }

    /// Content fingerprint of a row window: the chunk hashes covering
    /// it plus the in-chunk offsets. Two windows share a fingerprint
    /// exactly when they cover identical bytes of identical chunks —
    /// the key the windowed-refit cache uses.
    pub fn window_fingerprint(&self, rows: &Range<u64>, domain: &str) -> Fingerprint {
        let mut h = FingerprintHasher::new(domain);
        h.write_usize(self.benchmarks.len());
        for name in &self.benchmarks {
            h.write_str(name);
        }
        h.write_u64(rows.start);
        h.write_u64(rows.end);
        let covering = self.chunks_covering(rows);
        h.write_usize(covering.len());
        for i in covering {
            h.write_u64(self.chunks[i].hash);
            h.write_u64(self.chunks[i].rows);
        }
        h.finish()
    }

    /// Consumes the reader, returning the underlying source.
    pub fn into_inner(self) -> R {
        self.src
    }
}

impl<R: Read + Write + Seek> ChunkedReader<R> {
    /// Rewrites chunk `i`'s body in place — the recovery path after a
    /// corrupt chunk is detected and its content recomputed. The new
    /// body must match the directory entry exactly (same length, same
    /// hash): recomputation is deterministic, so a mismatch means the
    /// caller recomputed the wrong chunk.
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] when the body disagrees with the
    /// directory entry; I/O failures as [`CodecError::Malformed`].
    pub fn rewrite_chunk(&mut self, i: usize, body: &[u8]) -> Result<(), CodecError> {
        let meta = *self
            .chunks
            .get(i)
            .ok_or_else(|| CodecError::Malformed(format!("chunk {i} out of range")))?;
        let matches_entry = matches!(verify_chunk(body), Ok((_, _, hash)) if hash == meta.hash);
        if body.len() as u64 != meta.len || !matches_entry {
            return Err(CodecError::Malformed(format!(
                "recomputed chunk {i} does not match its directory entry"
            )));
        }
        self.src
            .seek(SeekFrom::Start(meta.offset))
            .map_err(io_err)?;
        self.src.write_all(body).map_err(io_err)?;
        self.src.flush().map_err(io_err)?;
        obskit::metrics::incr(obskit::metrics::Metric::StreamChunkRecoveries);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcounters::EventId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::Cursor;
    use workloads::generator::{GeneratorConfig, Suite};

    fn sample_dataset(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(7);
        Suite::cpu2006().generate(&mut rng, n, &GeneratorConfig::default(), 1)
    }

    fn chunk_of(ds: &Dataset, rows: Range<usize>) -> Vec<u8> {
        let labels: Vec<u32> = rows.clone().map(|i| ds.label(i)).collect();
        let cpi: Vec<f64> = rows.clone().map(|i| ds.sample(i).cpi()).collect();
        let n = rows.len();
        let mut events = vec![0.0; N_EVENTS * n];
        for (k, i) in rows.enumerate() {
            for e in EventId::ALL {
                events[e.index() * n + k] = ds.sample(i).get(e);
            }
        }
        encode_chunk(&labels, &cpi, &events)
    }

    fn container_bytes(ds: &Dataset, chunk_rows: usize) -> Vec<u8> {
        let mut cursor = Cursor::new(Vec::new());
        {
            let mut w = ChunkedWriter::new(&mut cursor, ds.benchmark_names()).unwrap();
            let mut at = 0;
            while at < ds.len() {
                let end = (at + chunk_rows).min(ds.len());
                w.append_chunk(&chunk_of(ds, at..end), None).unwrap();
                at = end;
            }
            w.finish().unwrap();
        }
        cursor.into_inner()
    }

    #[test]
    fn roundtrip_windows_bit_exact() {
        let ds = sample_dataset(257);
        for chunk_rows in [1usize, 7, 64, 300] {
            let bytes = container_bytes(&ds, chunk_rows);
            let mut r = ChunkedReader::open(Cursor::new(&bytes)).unwrap();
            assert_eq!(r.n_rows(), 257);
            let back = r.window_dataset(0..257).unwrap();
            assert_eq!(back.len(), ds.len());
            for i in 0..ds.len() {
                assert_eq!(back.label(i), ds.label(i));
                assert_eq!(back.sample(i).cpi().to_bits(), ds.sample(i).cpi().to_bits());
                for e in EventId::ALL {
                    assert_eq!(
                        back.sample(i).get(e).to_bits(),
                        ds.sample(i).get(e).to_bits()
                    );
                }
            }
            // A strict interior window decodes only covering chunks.
            let win = r.window_dataset(40..100).unwrap();
            assert_eq!(win.len(), 60);
            assert_eq!(win.sample(0).cpi().to_bits(), ds.sample(40).cpi().to_bits());
        }
    }

    #[test]
    fn empty_container_roundtrip() {
        let ds = Dataset::new();
        let bytes = container_bytes(&ds, 16);
        let mut r = ChunkedReader::open(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.n_rows(), 0);
        assert_eq!(r.n_chunks(), 0);
        assert!(r.window_dataset(0..0).unwrap().is_empty());
    }

    #[test]
    fn chunk_corruption_detected() {
        let ds = sample_dataset(64);
        let bytes = container_bytes(&ds, 16);
        let r = ChunkedReader::open(Cursor::new(bytes.clone())).unwrap();
        let meta = r.meta(2);
        let mut bad = bytes.clone();
        bad[(meta.offset + meta.len / 2) as usize] ^= 0x01;
        let mut r = ChunkedReader::open(Cursor::new(bad)).unwrap();
        // Other chunks still read fine; the poisoned one reports.
        assert!(r.read_chunk(0).is_ok());
        assert_eq!(r.read_chunk(2).unwrap_err(), CodecError::IntegrityMismatch);
    }

    #[test]
    fn directory_truncation_detected() {
        let ds = sample_dataset(32);
        let bytes = container_bytes(&ds, 8);
        for cut in [1usize, 10, 24, 40] {
            let trimmed = &bytes[..bytes.len() - cut];
            assert!(
                ChunkedReader::open(Cursor::new(trimmed.to_vec())).is_err(),
                "cut {cut} undetected"
            );
        }
    }

    #[test]
    fn stale_schema_version_detected() {
        let ds = sample_dataset(8);
        let mut bytes = container_bytes(&ds, 4);
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&(SCHEMA_VERSION + 3).to_le_bytes());
        assert_eq!(
            ChunkedReader::open(Cursor::new(bytes)).unwrap_err(),
            CodecError::WrongVersion(SCHEMA_VERSION + 3)
        );
    }

    #[test]
    fn torn_write_detected_and_rewritten() {
        let ds = sample_dataset(40);
        let mut cursor = Cursor::new(Vec::new());
        {
            let mut w = ChunkedWriter::new(&mut cursor, ds.benchmark_names()).unwrap();
            let body = chunk_of(&ds, 0..20);
            w.append_chunk(&body, Some(body.len() / 3)).unwrap();
            assert_eq!(w.recoveries(), 1);
            let body = chunk_of(&ds, 20..40);
            w.append_chunk(&body, None).unwrap();
            assert_eq!(w.recoveries(), 1);
            w.finish().unwrap();
        }
        let clean = container_bytes(&ds, 20);
        assert_eq!(
            cursor.into_inner(),
            clean,
            "torn write left different bytes"
        );
    }

    #[test]
    fn rewrite_chunk_recovers_corruption() {
        let ds = sample_dataset(48);
        let bytes = container_bytes(&ds, 12);
        let good_body = chunk_of(&ds, 12..24);
        let mut bad = bytes.clone();
        let meta = ChunkedReader::open(Cursor::new(bytes.clone()))
            .unwrap()
            .meta(1);
        bad[(meta.offset + 5) as usize] ^= 0xff;
        let mut r = ChunkedReader::open(Cursor::new(bad)).unwrap();
        assert!(r.read_chunk(1).is_err());
        r.rewrite_chunk(1, &good_body).unwrap();
        assert!(r.read_chunk(1).is_ok());
        assert_eq!(r.into_inner().into_inner(), bytes);
        // A wrong recompute is rejected.
        let mut r = ChunkedReader::open(Cursor::new(container_bytes(&ds, 12))).unwrap();
        let wrong = chunk_of(&ds, 0..12);
        assert!(r.rewrite_chunk(1, &wrong).is_err());
    }

    #[test]
    fn window_fingerprint_tracks_content_and_range() {
        let ds = sample_dataset(60);
        let bytes = container_bytes(&ds, 10);
        let r = ChunkedReader::open(Cursor::new(bytes)).unwrap();
        let a = r.window_fingerprint(&(0..30), "w");
        assert_eq!(a, r.window_fingerprint(&(0..30), "w"));
        assert_ne!(a, r.window_fingerprint(&(0..40), "w"));
        assert_ne!(a, r.window_fingerprint(&(10..40), "w"));
        assert_ne!(a, r.window_fingerprint(&(0..30), "other-domain"));
    }

    #[test]
    fn predict_all_streams_chunks() {
        let ds = sample_dataset(200);
        let tree =
            modeltree::ModelTree::fit(&ds, &modeltree::M5Config::default().with_min_leaf(20))
                .unwrap()
                .compile();
        let bytes = container_bytes(&ds, 33);
        let mut r = ChunkedReader::open(Cursor::new(bytes)).unwrap();
        let streamed = r.predict_all(&tree).unwrap();
        let direct = tree.predict_batch(&ds);
        assert_eq!(streamed.len(), direct.len());
        for (a, b) in streamed.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn chunks_covering_boundaries() {
        let ds = sample_dataset(40);
        let bytes = container_bytes(&ds, 10);
        let r = ChunkedReader::open(Cursor::new(bytes)).unwrap();
        assert_eq!(r.chunks_covering(&(0..10)), 0..1);
        assert_eq!(r.chunks_covering(&(9..11)), 0..2);
        assert_eq!(r.chunks_covering(&(10..20)), 1..2);
        assert_eq!(r.chunks_covering(&(0..40)), 0..4);
        assert_eq!(r.chunks_covering(&(5..5)), 0..0);
        assert_eq!(r.chunks_covering(&(39..40)), 3..4);
    }
}
