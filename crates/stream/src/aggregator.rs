//! Sharded, batched-channel ingestion with deterministic chunk sealing.
//!
//! Producers walk their hosts and push `Envelope`s — interval records
//! tagged `(host, seq)` plus a reliable per-host `End` control record —
//! through the fault injector toward the aggregator worker that owns
//! each host's shard. The injector keeps one open batch per destination
//! worker and hands a batch to that worker's bounded channel whenever
//! it fills (`BATCH` envelopes; the channel holds `CHANNEL_BATCHES`
//! batches); a producer flushes its partial batches before it exits.
//! Aggregator workers drain whole batches into disjoint logical shards
//! and reconstruct each shard's canonical row order
//! ([`crate::StreamPlan::shard_row_order`]) from whatever interleaving
//! arrives:
//!
//! * a record below the host's emitted frontier, or already pending, is
//!   a duplicate and is dropped (`stream.duplicates_dropped`);
//! * a gap (dropped delivery) stalls the shard's cursor; rows behind
//!   the gap wait in per-host reorder buffers indexed by seq until the
//!   retransmit lands (`stream.backlog_rows` gauge, published once per
//!   received batch);
//! * a host's `End` record carries its final sequence count, so
//!   mid-stream death just shortens that host's column of the
//!   round-robin.
//!
//! Every `chunk_rows` emitted rows the shard seals a chunk
//! ([`crate::source::encode_rows`]) and spills it to its own temp file.
//!
//! # Memory
//!
//! Bounded: each shard's building chunk (at most `chunk_rows` rows), the
//! spill's write buffer, and the transport (per worker, the channel's
//! batches plus one open batch per producer). Not bounded: the reorder
//! buffers. Producers walk their hosts host-major while a shard emits
//! seq-major, so a row waits until the shard's round-robin cursor
//! reaches it, and the cursor cannot pass seq 0 before the shard's last
//! host has delivered. The buffers can therefore hold most of a shard's
//! rows at once.
//!
//! After the fleet drains, the spill sequences are streamed — one body
//! at a time — into a `SPDC` container through
//! [`pipeline::chunked::ChunkedWriter`], whose read-back verification
//! catches the injector's torn writes (`stream.chunk_recoveries`).
//!
//! The emitted container is byte-identical for any `n_threads` and any
//! fault schedule: exactly-once semantics by construction, proven by
//! the fault suite. Batching moves only arrival order, which never
//! reaches the output.

use crate::source::encode_rows;
use crate::{StreamConfig, StreamPlan};
use obskit::metrics::{self, Hist, Metric};
use perfcounters::Sample;
use pipeline::chunked::ChunkedWriter;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::thread::ScopedJoinHandle;

/// Envelopes per channel message.
const BATCH: usize = 128;
/// Bound of each worker's ingest channel, in batches.
const CHANNEL_BATCHES: usize = 4;

/// One message on the ingest plane.
#[derive(Debug, Clone)]
struct Envelope {
    host: u64,
    seq: u32,
    payload: Payload,
}

#[derive(Debug, Clone)]
enum Payload {
    /// A measured interval.
    Interval(Sample),
    /// Reliable end-of-host control record: the host emitted exactly
    /// `final_seq` intervals (less than planned when it died).
    End { final_seq: u32 },
}

/// Counters shared across workers, mirrored into obskit at the end.
#[derive(Default)]
struct SharedCounters {
    duplicates: AtomicU64,
    retransmits: AtomicU64,
    faults: AtomicU64,
    backlog: AtomicU64,
}

/// What one streaming run produced and observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// Rows sealed into the container.
    pub rows: u64,
    /// Chunks sealed.
    pub chunks: u64,
    /// Duplicate deliveries suppressed by the frontier check.
    pub duplicates_dropped: u64,
    /// Dropped deliveries replayed from the pure source.
    pub retransmits: u64,
    /// Total injected transport faults (drops + dups + reorders).
    pub faults_injected: u64,
    /// Torn container writes detected by read-back and repaired.
    pub torn_writes_repaired: u64,
    /// Path of the sealed `SPDC` container.
    pub container: PathBuf,
}

/// Why an aggregator stopped before sealing its shards.
enum AggregateError {
    /// Something failed here: a spill write, or an envelope the plan
    /// does not allow (a routing bug). This is what `run_stream`
    /// reports.
    Failed(io::Error),
    /// The channel closed with a shard incomplete. Producers stop when
    /// any aggregator hangs up, so this is usually the echo of a
    /// sibling's `Failed`.
    Starved(io::Error),
}

impl From<io::Error> for AggregateError {
    fn from(e: io::Error) -> Self {
        AggregateError::Failed(e)
    }
}

/// An envelope the plan does not allow: a routing or protocol bug,
/// reported as an error rather than a panic.
fn protocol_error(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Per-host reassembly state inside one shard.
struct HostSlot {
    host: u64,
    /// Out-of-order arrivals waiting for the cursor, indexed by seq
    /// (every seq is below `StreamPlan::produced(host)`).
    pending: Vec<Option<Sample>>,
    /// Next sequence this host's column of the round-robin will emit.
    emitted_next: u32,
    /// Final sequence count, known once `End` arrives.
    final_seq: Option<u32>,
}

/// One logical shard's assembler: canonical-order cursor plus the
/// building chunk and its spill file.
struct ShardState {
    hosts: Vec<HostSlot>,
    /// Round-robin cursor: current sequence and position in `hosts`.
    cursor_seq: u32,
    cursor_host: usize,
    /// Rows expected (sum of final seqs), accumulating as Ends arrive.
    rows_expected: u64,
    ends_seen: usize,
    rows_emitted: u64,
    /// Rows waiting in the reorder buffers.
    held: u64,
    /// Building chunk.
    row_samples: Vec<Sample>,
    row_labels: Vec<u32>,
    chunks_sealed: u64,
    spill: BufWriter<File>,
}

impl ShardState {
    fn new(plan: &StreamPlan, shard: usize, spill: File) -> Self {
        ShardState {
            hosts: plan
                .shard_hosts(shard)
                .iter()
                .map(|&host| HostSlot {
                    host,
                    pending: vec![None; plan.produced(host) as usize],
                    emitted_next: 0,
                    final_seq: None,
                })
                .collect(),
            cursor_seq: 0,
            cursor_host: 0,
            rows_expected: 0,
            ends_seen: 0,
            rows_emitted: 0,
            held: 0,
            row_samples: Vec::with_capacity(plan.chunk_rows()),
            row_labels: Vec::with_capacity(plan.chunk_rows()),
            chunks_sealed: 0,
            spill: BufWriter::new(spill),
        }
    }

    /// Position of `host` in the shard's ascending host list.
    fn slot_of(&self, host: u64) -> io::Result<usize> {
        self.hosts
            .binary_search_by_key(&host, |s| s.host)
            .map_err(|_| {
                protocol_error(format!(
                    "host {host} routed to a shard that does not own it"
                ))
            })
    }

    fn done(&self) -> bool {
        self.ends_seen == self.hosts.len() && self.rows_emitted == self.rows_expected
    }

    /// Emits every row the canonical order allows so far, sealing full
    /// chunks into the spill file.
    fn advance(&mut self, plan: &StreamPlan) -> io::Result<()> {
        while !self.done() && !self.hosts.is_empty() {
            let slot = &mut self.hosts[self.cursor_host];
            let exhausted = slot.final_seq.is_some_and(|f| self.cursor_seq >= f);
            if exhausted {
                self.step_cursor();
                continue;
            }
            let Some(sample) = slot
                .pending
                .get_mut(self.cursor_seq as usize)
                .and_then(Option::take)
            else {
                // Gap: either the record is still in flight (dropped,
                // reordered) or End has not told us the host is done.
                // Exactly-once means we stall rather than guess.
                break;
            };
            slot.emitted_next = self.cursor_seq + 1;
            let label = plan.host_label(slot.host);
            self.held -= 1;
            self.row_samples.push(sample);
            self.row_labels.push(label);
            self.rows_emitted += 1;
            if self.row_samples.len() == plan.chunk_rows() {
                self.seal()?;
            }
            self.step_cursor();
        }
        Ok(())
    }

    fn step_cursor(&mut self) {
        self.cursor_host += 1;
        if self.cursor_host == self.hosts.len() {
            self.cursor_host = 0;
            self.cursor_seq += 1;
        }
    }

    /// Seals the building rows as one chunk: encode, spill, count.
    fn seal(&mut self) -> io::Result<()> {
        if self.row_samples.is_empty() {
            return Ok(());
        }
        let body = encode_rows(&self.row_samples, &self.row_labels);
        self.spill.write_all(&(body.len() as u64).to_le_bytes())?;
        self.spill.write_all(&body)?;
        metrics::incr(Metric::StreamChunksSealed);
        metrics::add(Metric::StreamRowsIngested, self.row_samples.len() as u64);
        metrics::observe(Hist::StreamChunkRows, self.row_samples.len() as u64);
        self.chunks_sealed += 1;
        self.row_samples.clear();
        self.row_labels.clear();
        Ok(())
    }

    /// Handles one envelope; returns the spill I/O error, or a protocol
    /// error for an envelope the plan does not allow.
    fn receive(
        &mut self,
        env: Envelope,
        plan: &StreamPlan,
        counters: &SharedCounters,
    ) -> io::Result<()> {
        let slot_idx = self.slot_of(env.host)?;
        let slot = &mut self.hosts[slot_idx];
        match env.payload {
            Payload::Interval(sample) => {
                let Some(entry) = slot.pending.get_mut(env.seq as usize) else {
                    return Err(protocol_error(format!(
                        "host {} sent seq {} past its planned {} intervals",
                        env.host,
                        env.seq,
                        slot.pending.len()
                    )));
                };
                if env.seq < slot.emitted_next || entry.is_some() {
                    // A copy of a row already emitted or still pending.
                    // Records are pure, so the copies are identical and
                    // only the count matters; nothing new can emit.
                    counters.duplicates.fetch_add(1, Ordering::Relaxed);
                    metrics::incr(Metric::StreamDuplicatesDropped);
                    return Ok(());
                }
                *entry = Some(sample);
                self.held += 1;
            }
            Payload::End { final_seq } => {
                if slot.final_seq.is_some() {
                    return Err(protocol_error(format!("host {} sent End twice", env.host)));
                }
                slot.final_seq = Some(final_seq);
                self.ends_seen += 1;
                self.rows_expected += u64::from(final_seq);
            }
        }
        self.advance(plan)
    }
}

/// The destination aggregator hung up because it failed; the producer
/// stops, and `run_stream` reports the aggregator's error.
struct HungUp;

/// A producer's fault-injecting delivery stage: duplicates and reorders
/// happen here; drops are deferred into the retransmit queue. Each
/// delivery lands in its destination worker's open batch.
struct Injector<'a> {
    plan: &'a StreamPlan,
    cfg: &'a StreamConfig,
    txs: &'a [SyncSender<Vec<Envelope>>],
    /// The open batch per destination worker.
    batches: Vec<Vec<Envelope>>,
    /// Envelopes held back by reorder faults, with remaining delay.
    delayed: Vec<(Envelope, usize)>,
    counters: &'a SharedCounters,
}

impl Injector<'_> {
    /// Adds `env` to its worker's batch, sending the batch once full.
    fn push(&mut self, env: Envelope) -> Result<(), HungUp> {
        let worker = self.plan.shard_of(env.host) % self.txs.len();
        let batch = &mut self.batches[worker];
        if batch.is_empty() {
            batch.reserve_exact(BATCH);
        }
        batch.push(env);
        if batch.len() == BATCH {
            self.send(worker)?;
        }
        Ok(())
    }

    fn send(&mut self, worker: usize) -> Result<(), HungUp> {
        let batch = std::mem::take(&mut self.batches[worker]);
        self.txs[worker].send(batch).map_err(|_| HungUp)
    }

    /// Delivers now, counting one delivery tick against held envelopes.
    fn send_now(&mut self, env: Envelope) -> Result<(), HungUp> {
        self.push(env)?;
        self.tick()
    }

    fn tick(&mut self) -> Result<(), HungUp> {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].1 <= 1 {
                let (env, _) = self.delayed.swap_remove(i);
                self.push(env)?;
            } else {
                self.delayed[i].1 -= 1;
                i += 1;
            }
        }
        Ok(())
    }

    fn count_fault(&self) {
        self.counters.faults.fetch_add(1, Ordering::Relaxed);
        metrics::incr(Metric::StreamFaultsInjected);
    }

    /// First-attempt delivery of an interval, through the fault roll.
    /// Returns `true` when the delivery was dropped (caller queues a
    /// retransmit).
    fn offer(&mut self, host: u64, seq: u32, sample: Sample) -> Result<bool, HungUp> {
        let faults = &self.cfg.faults;
        if faults.drops(host, seq) {
            self.count_fault();
            self.tick()?;
            return Ok(true);
        }
        let env = Envelope {
            host,
            seq,
            payload: Payload::Interval(sample),
        };
        let copy = faults.duplicates(host, seq).then(|| env.clone());
        let delay = faults.delay(host, seq);
        if delay > 0 {
            self.count_fault();
            self.delayed.push((env, delay));
            self.tick()?;
        } else {
            self.send_now(env)?;
        }
        if let Some(copy) = copy {
            self.count_fault();
            self.send_now(copy)?;
        }
        Ok(false)
    }

    /// Releases every held envelope, then sends every open batch.
    fn flush(&mut self) -> Result<(), HungUp> {
        while !self.delayed.is_empty() {
            self.tick()?;
        }
        for worker in 0..self.batches.len() {
            if !self.batches[worker].is_empty() {
                self.send(worker)?;
            }
        }
        Ok(())
    }
}

/// Walks one producer's hosts, generating records from the pure source
/// and delivering them through the injector.
fn produce(
    worker: usize,
    plan: &StreamPlan,
    cfg: &StreamConfig,
    txs: &[SyncSender<Vec<Envelope>>],
    counters: &SharedCounters,
) -> Result<(), HungUp> {
    let mut injector = Injector {
        plan,
        cfg,
        txs,
        batches: txs.iter().map(|_| Vec::new()).collect(),
        delayed: Vec::new(),
        counters,
    };
    let mut host = worker as u64;
    while host < cfg.fleet.n_hosts {
        let produced = plan.produced(host);
        let mut retransmit = Vec::new();
        for seq in 0..produced {
            let sample = plan.record(host, seq);
            if injector.offer(host, seq, sample)? {
                retransmit.push(seq);
            }
        }
        // Replay dropped deliveries from the pure source. Second
        // attempts bypass the fault roll: loss delays rows, it never
        // erases them.
        for seq in retransmit {
            counters.retransmits.fetch_add(1, Ordering::Relaxed);
            metrics::incr(Metric::StreamRetransmits);
            injector.send_now(Envelope {
                host,
                seq,
                payload: Payload::Interval(plan.record(host, seq)),
            })?;
        }
        injector.send_now(Envelope {
            host,
            seq: produced,
            payload: Payload::End {
                final_seq: produced,
            },
        })?;
        host += txs.len() as u64;
    }
    injector.flush()
}

/// Drains one worker's channel, a batch at a time, into its owned
/// shards, then completes and seals every shard.
fn aggregate(
    worker: usize,
    n_workers: usize,
    plan: &StreamPlan,
    rx: Receiver<Vec<Envelope>>,
    spills: Vec<(usize, File)>,
    counters: &SharedCounters,
) -> Result<Vec<(usize, u64)>, AggregateError> {
    // `spills` lists this worker's shards ascending — `worker`,
    // `worker + n_workers`, … — so shard `s` sits at `s / n_workers`.
    let mut shards: Vec<(usize, ShardState)> = spills
        .into_iter()
        .map(|(shard, file)| (shard, ShardState::new(plan, shard, file)))
        .collect();
    let mut published = 0u64;
    for batch in &rx {
        for env in batch {
            let shard = plan.shard_of(env.host);
            let state = match shards.get_mut(shard / n_workers) {
                Some((owned, state)) if *owned == shard => state,
                _ => {
                    return Err(protocol_error(format!(
                        "host {} routed to worker {worker}, which does not own shard {shard}",
                        env.host
                    ))
                    .into())
                }
            };
            state.receive(env, plan, counters)?;
        }
        let held = shards.iter().map(|(_, state)| state.held).sum();
        publish_backlog(counters, &mut published, held);
    }
    let mut sealed = Vec::with_capacity(shards.len());
    for (shard, mut state) in shards {
        if !state.done() {
            return Err(AggregateError::Starved(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "shard {shard} starved: {} of {} rows emitted with all producers gone",
                    state.rows_emitted, state.rows_expected
                ),
            )));
        }
        state.seal()?; // final partial chunk
        state.spill.flush()?;
        sealed.push((shard, state.chunks_sealed));
    }
    Ok(sealed)
}

/// Moves this worker's share of the global backlog from `published` to
/// `held` and publishes the total: one atomic update and one gauge
/// write per received batch.
fn publish_backlog(counters: &SharedCounters, published: &mut u64, held: u64) {
    let total = if held >= *published {
        let up = held - *published;
        counters.backlog.fetch_add(up, Ordering::Relaxed) + up
    } else {
        let down = *published - held;
        counters.backlog.fetch_sub(down, Ordering::Relaxed) - down
    };
    *published = held;
    metrics::gauge_set(Metric::StreamBacklogRows, total);
}

/// Joins a worker thread, re-raising its panic on this thread.
fn join<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Runs the producers and aggregators over pre-opened spill files
/// (`worker_spills[w]` lists worker `w`'s shards, ascending) and
/// returns the chunks sealed per shard.
///
/// When an aggregator fails it hangs up, the producers stop, and any
/// sibling is left with incomplete shards; the first failure, not the
/// starvation it causes, is the error returned.
fn ingest(
    plan: &StreamPlan,
    cfg: &StreamConfig,
    worker_spills: Vec<Vec<(usize, File)>>,
    counters: &SharedCounters,
) -> io::Result<Vec<u64>> {
    let n_workers = worker_spills.len();
    let results: Vec<_> = std::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(n_workers);
        let mut consumers = Vec::with_capacity(n_workers);
        for (worker, spills) in worker_spills.into_iter().enumerate() {
            let (tx, rx) = std::sync::mpsc::sync_channel(CHANNEL_BATCHES);
            txs.push(tx);
            consumers.push(
                scope.spawn(move || aggregate(worker, n_workers, plan, rx, spills, counters)),
            );
        }
        let producers: Vec<_> = (0..n_workers)
            .map(|worker| {
                let txs = txs.clone();
                // A hang-up ends the producer; the aggregator's error
                // is the one reported.
                scope.spawn(move || {
                    let _ = produce(worker, plan, cfg, &txs, counters);
                })
            })
            .collect();
        drop(txs);
        producers.into_iter().for_each(join);
        consumers.into_iter().map(join).collect()
    });
    let mut chunk_counts = vec![0u64; plan.n_shards()];
    let mut starved = None;
    for result in results {
        match result {
            Ok(sealed) => {
                for (shard, chunks) in sealed {
                    chunk_counts[shard] = chunks;
                }
            }
            Err(AggregateError::Failed(e)) => return Err(e),
            Err(AggregateError::Starved(e)) => {
                starved.get_or_insert(e);
            }
        }
    }
    match starved {
        Some(e) => Err(e),
        None => Ok(chunk_counts),
    }
}

/// Runs the full streaming pipeline: fleet → fault injector → sharded
/// aggregation → spilled chunks → sealed `SPDC` container at `out`.
///
/// The container bytes depend only on `cfg`'s layout fields (fleet,
/// shards, chunk rows, fault seed) — never on `n_threads`. See the
/// crate docs for the contract.
///
/// # Errors
///
/// Returns the first I/O failure from spill files and container
/// assembly. An envelope the plan does not allow (a routing bug, not an
/// injected fault — injected faults are always recovered) is an
/// [`io::ErrorKind::InvalidData`] error, and a shard left incomplete
/// with no failure behind it is [`io::ErrorKind::UnexpectedEof`].
/// Spill files are removed either way.
///
/// # Panics
///
/// Re-raises the panic of a worker thread.
pub fn run_stream(cfg: &StreamConfig, out: &Path) -> io::Result<StreamSummary> {
    let plan = StreamPlan::new(cfg);
    run_planned(&plan, cfg, out)
}

/// [`run_stream`] against a pre-resolved plan (callers that also need
/// the plan for oracles or recompute avoid resolving it twice).
///
/// # Errors
///
/// See [`run_stream`].
pub fn run_planned(plan: &StreamPlan, cfg: &StreamConfig, out: &Path) -> io::Result<StreamSummary> {
    let n_workers = cfg.n_threads.max(1).min(plan.n_shards());
    let counters = SharedCounters::default();
    let spill_paths: Vec<PathBuf> = (0..plan.n_shards())
        .map(|shard| spill_path(out, shard))
        .collect();
    let summary = open_spills(&spill_paths, n_workers)
        .and_then(|spills| ingest(plan, cfg, spills, &counters))
        .and_then(|chunk_counts| assemble(plan, cfg, &spill_paths, &chunk_counts, &counters, out));
    for spill in &spill_paths {
        let _ = std::fs::remove_file(spill);
    }
    metrics::gauge_set(Metric::StreamBacklogRows, 0);
    summary
}

/// Creates one spill file per shard, grouped by the worker that owns
/// the shard (`shard % n_workers`).
fn open_spills(paths: &[PathBuf], n_workers: usize) -> io::Result<Vec<Vec<(usize, File)>>> {
    let mut worker_spills: Vec<Vec<(usize, File)>> = (0..n_workers).map(|_| Vec::new()).collect();
    for (shard, path) in paths.iter().enumerate() {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        worker_spills[shard % n_workers].push((shard, file));
    }
    Ok(worker_spills)
}

/// Streams the spilled bodies — one chunk in memory at a time — into
/// the container, letting the writer's read-back verification catch
/// the injector's torn writes.
fn assemble(
    plan: &StreamPlan,
    cfg: &StreamConfig,
    spill_paths: &[PathBuf],
    chunk_counts: &[u64],
    counters: &SharedCounters,
    out: &Path,
) -> io::Result<StreamSummary> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(out)?;
    let mut writer = ChunkedWriter::new(file, plan.benchmarks())?;
    let mut global_chunk = 0u64;
    let mut rows = 0u64;
    for (spill, &count) in spill_paths.iter().zip(chunk_counts) {
        let mut src = BufReader::new(File::open(spill)?);
        src.rewind()?;
        for _ in 0..count {
            let mut len = [0u8; 8];
            src.read_exact(&mut len)?;
            let mut body = vec![0u8; u64::from_le_bytes(len) as usize];
            src.read_exact(&mut body)?;
            let truncate = cfg.faults.truncates(global_chunk, body.len());
            if truncate.is_some() {
                counters.faults.fetch_add(1, Ordering::Relaxed);
                metrics::incr(Metric::StreamFaultsInjected);
            }
            rows += writer.append_chunk(&body, truncate)?.rows;
            global_chunk += 1;
        }
    }
    let torn_writes_repaired = writer.recoveries();
    let (total_rows, chunks) = writer.finish()?;
    debug_assert_eq!(rows, total_rows);
    Ok(StreamSummary {
        rows: total_rows,
        chunks: chunks.len() as u64,
        duplicates_dropped: counters.duplicates.load(Ordering::Relaxed),
        retransmits: counters.retransmits.load(Ordering::Relaxed),
        faults_injected: counters.faults.load(Ordering::Relaxed),
        torn_writes_repaired,
        container: out.to_path_buf(),
    })
}

fn spill_path(out: &Path, shard: usize) -> PathBuf {
    let mut name = out.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".spill{shard}"));
    out.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultConfig, FleetConfig};
    use pipeline::chunked::ChunkedReader;
    use std::io::Cursor;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "specrepro-stream-test-{tag}-{}.spdc",
            std::process::id()
        ))
    }

    fn run(cfg: &StreamConfig, tag: &str) -> (StreamSummary, Vec<u8>) {
        let path = tmp(tag);
        let summary = run_stream(cfg, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        (summary, bytes)
    }

    #[test]
    fn clean_stream_matches_naive_oracle() {
        let cfg = StreamConfig::new(FleetConfig::cpu2006(50, 6, 9))
            .with_shards(4)
            .with_chunk_rows(17);
        let plan = StreamPlan::new(&cfg);
        let (summary, bytes) = run(&cfg, "clean");
        assert_eq!(summary.rows, 300);
        assert_eq!(summary.duplicates_dropped, 0);
        assert_eq!(summary.faults_injected, 0);
        let mut reader = ChunkedReader::open(Cursor::new(bytes)).unwrap();
        let got = reader.window_dataset(0..300).unwrap();
        let want = plan.naive_dataset();
        assert_eq!(got, want);
    }

    #[test]
    fn faulted_stream_is_byte_identical_to_clean_layout() {
        let fleet = FleetConfig::cpu2006(40, 5, 3);
        let base = StreamConfig::new(fleet).with_shards(3).with_chunk_rows(11);
        // Death changes the layout, so compare two fault schedules that
        // share the death decisions: same seed, transport faults on/off.
        let mut quiet = FaultConfig::standard(77);
        quiet.drop_per_mille = 0;
        quiet.dup_per_mille = 0;
        quiet.reorder_per_mille = 0;
        quiet.truncate_per_mille = 0;
        let noisy = FaultConfig::standard(77);
        let (qs, qbytes) = run(&base.clone().with_faults(quiet), "quiet");
        let (ns, nbytes) = run(&base.clone().with_faults(noisy), "noisy");
        assert_eq!(qs.rows, ns.rows);
        assert_eq!(qbytes, nbytes, "transport faults leaked into bytes");
        assert!(ns.faults_injected > 0, "standard schedule injected nothing");
        assert!(ns.duplicates_dropped > 0 || ns.retransmits > 0);
    }

    #[test]
    fn thread_count_is_invisible() {
        let cfg = StreamConfig::new(FleetConfig::cpu2006(60, 4, 21))
            .with_shards(5)
            .with_chunk_rows(13)
            .with_faults(FaultConfig::standard(4));
        let (_, one) = run(&cfg.clone().with_threads(1), "t1");
        for threads in [2, 8] {
            let (_, many) = run(&cfg.clone().with_threads(threads), &format!("t{threads}"));
            assert_eq!(one, many, "n_threads={threads} changed container bytes");
        }
    }

    #[test]
    fn empty_fleet_seals_empty_container() {
        let cfg = StreamConfig::new(FleetConfig::cpu2006(0, 8, 2));
        let (summary, bytes) = run(&cfg, "empty");
        assert_eq!(summary.rows, 0);
        assert_eq!(summary.chunks, 0);
        let reader = ChunkedReader::open(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.n_rows(), 0);
        assert_eq!(reader.benchmarks().len(), 29);
    }

    #[test]
    fn torn_writes_are_repaired_in_container() {
        let mut faults = FaultConfig::none();
        faults.seed = 31;
        faults.truncate_per_mille = 1000; // tear every chunk write
        let cfg = StreamConfig::new(FleetConfig::cpu2006(30, 4, 13))
            .with_shards(2)
            .with_chunk_rows(10)
            .with_faults(faults);
        let clean = cfg.clone().with_faults(FaultConfig::none());
        let (ts, tbytes) = run(&cfg, "torn");
        let (_, cbytes) = run(&clean, "untorn");
        assert!(ts.torn_writes_repaired > 0);
        assert_eq!(tbytes, cbytes, "torn writes survived into the container");
    }

    #[test]
    fn duplicates_are_counted_once_whether_emitted_or_pending() {
        let cfg = StreamConfig::new(FleetConfig::cpu2006(2, 3, 11)).with_shards(1);
        let plan = StreamPlan::new(&cfg);
        let path = tmp("dups");
        let counters = SharedCounters::default();
        let mut state = ShardState::new(&plan, 0, File::create(&path).unwrap());
        let mut deliver = |host: u64, seq: u32| {
            let payload = Payload::Interval(plan.record(host, seq));
            let env = Envelope { host, seq, payload };
            state.receive(env, &plan, &counters).unwrap();
            (
                state.rows_emitted,
                state.held,
                counters.duplicates.load(Ordering::Relaxed),
            )
        };
        // (0, 0) is at the cursor, so it is emitted on arrival; its copy
        // arrives after the row left the reorder buffer.
        assert_eq!(deliver(0, 0), (1, 0, 0));
        assert_eq!(deliver(0, 0), (1, 0, 1));
        // (1, 1) waits behind the missing (1, 0); its copy arrives while
        // the row is still pending.
        assert_eq!(deliver(1, 1), (1, 1, 1));
        assert_eq!(deliver(1, 1), (1, 1, 2));
        for (host, seq) in [(1, 0), (0, 1), (0, 2), (1, 2)] {
            deliver(host, seq);
        }
        for host in [0, 1] {
            let payload = Payload::End { final_seq: 3 };
            let env = Envelope {
                host,
                seq: 3,
                payload,
            };
            state.receive(env, &plan, &counters).unwrap();
        }
        assert!(state.done());
        assert_eq!((state.rows_emitted, state.held), (6, 0));
        assert_eq!(counters.duplicates.load(Ordering::Relaxed), 2);
        drop(state);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spill_write_failure_is_returned_not_a_panic() {
        // Three shards on two workers, so both producers route hosts to
        // both workers and a failed worker starves its sibling.
        let cfg = StreamConfig::new(FleetConfig::cpu2006(300, 20, 5))
            .with_shards(3)
            .with_threads(2)
            .with_chunk_rows(64)
            .with_faults(FaultConfig::standard(9));
        let plan = StreamPlan::new(&cfg);
        let paths: Vec<PathBuf> = (0..3).map(|s| tmp(&format!("spill-fail{s}"))).collect();
        for path in &paths {
            File::create(path).unwrap();
        }
        // Shard 1's spill is opened read-only: its first seal fails, and
        // worker 1's failure must win over worker 0's starvation.
        let read_only = || File::open(&paths[1]).unwrap();
        let want = read_only().write_all(&[0]).unwrap_err();
        let spills = vec![
            vec![
                (0, File::create(&paths[0]).unwrap()),
                (2, File::create(&paths[2]).unwrap()),
            ],
            vec![(1, read_only())],
        ];
        let err = ingest(&plan, &cfg, spills, &SharedCounters::default()).unwrap_err();
        assert!(want.raw_os_error().is_some());
        assert_eq!(err.raw_os_error(), want.raw_os_error(), "got {err}");
        for path in &paths {
            std::fs::remove_file(path).unwrap();
        }
    }
}
