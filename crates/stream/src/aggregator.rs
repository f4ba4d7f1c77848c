//! Sharded, bounded-channel ingestion with deterministic chunk sealing.
//!
//! Producers walk their hosts and push `Envelope`s — interval records
//! tagged `(host, seq)` plus a reliable per-host `End` control record —
//! through the fault injector into bounded channels. Aggregator workers
//! own disjoint logical shards and reconstruct each shard's canonical
//! row order ([`crate::StreamPlan::shard_row_order`]) from whatever
//! interleaving arrives:
//!
//! * a record below the host's emitted frontier, or already pending, is
//!   a duplicate and is dropped (`stream.duplicates_dropped`);
//! * a gap (dropped delivery) stalls the shard's cursor; rows behind
//!   the gap wait in per-host reorder buffers (`stream.backlog_rows`
//!   gauge) until the retransmit lands;
//! * a host's `End` record carries its final sequence count, so
//!   mid-stream death just shortens that host's column of the
//!   round-robin.
//!
//! Every `chunk_rows` emitted rows the shard seals a chunk
//! ([`crate::source::encode_rows`]) and spills it to its own temp file,
//! so peak memory per shard is one building chunk regardless of stream
//! length. After the fleet drains, the spill sequences are streamed —
//! one body at a time — into a `SPDC` container through
//! [`pipeline::chunked::ChunkedWriter`], whose read-back verification
//! catches the injector's torn writes (`stream.chunk_recoveries`).
//!
//! The emitted container is byte-identical for any `n_threads` and any
//! fault schedule: exactly-once semantics by construction, proven by
//! the fault suite.

use crate::source::encode_rows;
use crate::{StreamConfig, StreamPlan};
use obskit::metrics::{self, Hist, Metric};
use perfcounters::Sample;
use pipeline::chunked::ChunkedWriter;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};

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

/// Per-host reassembly state inside one shard.
struct HostSlot {
    host: u64,
    /// Out-of-order arrivals waiting for the cursor, keyed by seq.
    pending: BTreeMap<u32, Sample>,
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
                    pending: BTreeMap::new(),
                    emitted_next: 0,
                    final_seq: None,
                })
                .collect(),
            cursor_seq: 0,
            cursor_host: 0,
            rows_expected: 0,
            ends_seen: 0,
            rows_emitted: 0,
            row_samples: Vec::with_capacity(plan.chunk_rows()),
            row_labels: Vec::with_capacity(plan.chunk_rows()),
            chunks_sealed: 0,
            spill: BufWriter::new(spill),
        }
    }

    /// Position of `host` in the shard's ascending host list.
    fn slot_of(&self, host: u64) -> usize {
        self.hosts
            .binary_search_by_key(&host, |s| s.host)
            .expect("envelope routed to a shard that does not own its host")
    }

    fn done(&self) -> bool {
        self.ends_seen == self.hosts.len() && self.rows_emitted == self.rows_expected
    }

    /// Emits every row the canonical order allows so far, sealing full
    /// chunks into the spill file.
    fn advance(&mut self, plan: &StreamPlan, counters: &SharedCounters) -> std::io::Result<()> {
        while !self.done() && !self.hosts.is_empty() {
            let slot = &mut self.hosts[self.cursor_host];
            let exhausted = slot.final_seq.is_some_and(|f| self.cursor_seq >= f);
            if exhausted {
                self.step_cursor();
                continue;
            }
            let Some(sample) = slot.pending.remove(&self.cursor_seq) else {
                // Gap: either the record is still in flight (dropped,
                // reordered) or End has not told us the host is done.
                // Exactly-once means we stall rather than guess.
                break;
            };
            slot.emitted_next = self.cursor_seq + 1;
            let label = plan.host_label(slot.host);
            counters.backlog.fetch_sub(1, Ordering::Relaxed);
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
    fn seal(&mut self) -> std::io::Result<()> {
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

    /// Handles one envelope; returns `Ok(())` or the spill I/O error.
    fn receive(
        &mut self,
        env: Envelope,
        plan: &StreamPlan,
        counters: &SharedCounters,
    ) -> std::io::Result<()> {
        let slot_idx = self.slot_of(env.host);
        match env.payload {
            Payload::Interval(sample) => {
                let slot = &mut self.hosts[slot_idx];
                let duplicate =
                    env.seq < slot.emitted_next || slot.pending.insert(env.seq, sample).is_some();
                if duplicate {
                    // Re-inserted over an existing pending copy: the
                    // bytes are identical (records are pure), so the
                    // overwrite is harmless; only the count matters.
                    counters.duplicates.fetch_add(1, Ordering::Relaxed);
                    metrics::incr(Metric::StreamDuplicatesDropped);
                } else {
                    counters.backlog.fetch_add(1, Ordering::Relaxed);
                }
                metrics::gauge_set(
                    Metric::StreamBacklogRows,
                    counters.backlog.load(Ordering::Relaxed),
                );
            }
            Payload::End { final_seq } => {
                let slot = &mut self.hosts[slot_idx];
                assert!(slot.final_seq.is_none(), "host {} sent End twice", env.host);
                slot.final_seq = Some(final_seq);
                self.ends_seen += 1;
                self.rows_expected += u64::from(final_seq);
            }
        }
        self.advance(plan, counters)
    }
}

/// A producer's fault-injecting delivery stage: duplicates and reorders
/// happen here; drops are deferred into the retransmit queue.
struct Injector<'a> {
    cfg: &'a StreamConfig,
    txs: &'a [SyncSender<Envelope>],
    n_workers: usize,
    /// Envelopes held back by reorder faults, with remaining delay.
    delayed: Vec<(Envelope, usize)>,
    counters: &'a SharedCounters,
}

impl Injector<'_> {
    fn route(&self, host: u64) -> &SyncSender<Envelope> {
        let shard = (host % self.cfg.n_shards.max(1) as u64) as usize;
        &self.txs[shard % self.n_workers]
    }

    /// Sends now, counting one delivery tick against held envelopes.
    fn send_now(&mut self, env: Envelope) {
        self.route(env.host).send(env).expect("aggregator hung up");
        self.tick();
    }

    fn tick(&mut self) {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].1 <= 1 {
                let (env, _) = self.delayed.swap_remove(i);
                self.route(env.host).send(env).expect("aggregator hung up");
            } else {
                self.delayed[i].1 -= 1;
                i += 1;
            }
        }
    }

    /// First-attempt delivery of an interval, through the fault roll.
    /// Returns `true` when the delivery was dropped (caller queues a
    /// retransmit).
    fn offer(&mut self, host: u64, seq: u32, sample: Sample) -> bool {
        let faults = &self.cfg.faults;
        if faults.drops(host, seq) {
            self.counters.faults.fetch_add(1, Ordering::Relaxed);
            metrics::incr(Metric::StreamFaultsInjected);
            self.tick();
            return true;
        }
        let env = Envelope {
            host,
            seq,
            payload: Payload::Interval(sample),
        };
        let delay = faults.delay(host, seq);
        if delay > 0 {
            self.counters.faults.fetch_add(1, Ordering::Relaxed);
            metrics::incr(Metric::StreamFaultsInjected);
            self.delayed.push((env.clone(), delay));
            self.tick();
        } else {
            self.send_now(env.clone());
        }
        if faults.duplicates(host, seq) {
            self.counters.faults.fetch_add(1, Ordering::Relaxed);
            metrics::incr(Metric::StreamFaultsInjected);
            self.send_now(env);
        }
        false
    }

    fn flush(&mut self) {
        while !self.delayed.is_empty() {
            self.tick();
        }
    }
}

/// Walks one producer's hosts, generating records from the pure source
/// and delivering them through the injector.
fn produce(
    worker: usize,
    n_workers: usize,
    plan: &StreamPlan,
    cfg: &StreamConfig,
    txs: &[SyncSender<Envelope>],
    counters: &SharedCounters,
) {
    let mut injector = Injector {
        cfg,
        txs,
        n_workers,
        delayed: Vec::new(),
        counters,
    };
    let mut host = worker as u64;
    while host < cfg.fleet.n_hosts {
        let produced = plan.produced(host);
        let mut retransmit = Vec::new();
        for seq in 0..produced {
            let sample = plan.record(host, seq);
            if injector.offer(host, seq, sample) {
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
            });
        }
        injector.send_now(Envelope {
            host,
            seq: produced,
            payload: Payload::End {
                final_seq: produced,
            },
        });
        host += n_workers as u64;
    }
    injector.flush();
}

/// Drains one worker's channel into its owned shards, then completes
/// and seals every shard.
fn aggregate(
    worker: usize,
    n_workers: usize,
    plan: &StreamPlan,
    rx: &Receiver<Envelope>,
    spills: Vec<(usize, File)>,
    counters: &SharedCounters,
) -> std::io::Result<Vec<(usize, u64)>> {
    let mut shards: Vec<(usize, ShardState)> = spills
        .into_iter()
        .map(|(shard, file)| (shard, ShardState::new(plan, shard, file)))
        .collect();
    debug_assert!(shards.iter().all(|(s, _)| s % n_workers == worker));
    for env in rx {
        let shard = plan.shard_of(env.host);
        let state = shards
            .iter_mut()
            .find(|(s, _)| *s == shard)
            .map(|(_, st)| st)
            .expect("envelope routed to a worker that does not own its shard");
        state.receive(env, plan, counters)?;
    }
    let mut sealed = Vec::with_capacity(shards.len());
    for (shard, mut state) in shards {
        assert!(
            state.done(),
            "shard {shard} starved: {} of {} rows emitted with all producers gone",
            state.rows_emitted,
            state.rows_expected
        );
        state.seal()?; // final partial chunk
        state.spill.flush()?;
        sealed.push((shard, state.chunks_sealed));
    }
    Ok(sealed)
}

/// Runs the full streaming pipeline: fleet → fault injector → sharded
/// aggregation → spilled chunks → sealed `SPDC` container at `out`.
///
/// The container bytes depend only on `cfg`'s layout fields (fleet,
/// shards, chunk rows, fault seed) — never on `n_threads` or channel
/// capacity. See the crate docs for the contract.
///
/// # Errors
///
/// Propagates I/O failures from spill files and container assembly.
///
/// # Panics
///
/// Panics if a worker thread panics, or if the drained stream is
/// incomplete (a routing bug, not an injected fault — injected faults
/// are always recovered).
pub fn run_stream(cfg: &StreamConfig, out: &Path) -> std::io::Result<StreamSummary> {
    let plan = StreamPlan::new(cfg);
    run_planned(&plan, cfg, out)
}

/// [`run_stream`] against a pre-resolved plan (callers that also need
/// the plan for oracles or recompute avoid resolving it twice).
///
/// # Errors
///
/// See [`run_stream`].
pub fn run_planned(
    plan: &StreamPlan,
    cfg: &StreamConfig,
    out: &Path,
) -> std::io::Result<StreamSummary> {
    let n_workers = cfg.n_threads.max(1).min(cfg.n_shards.max(1));
    let counters = SharedCounters::default();
    // One spill file per shard, owned by the worker that owns the shard.
    let mut spill_paths = Vec::with_capacity(cfg.n_shards);
    let mut worker_spills: Vec<Vec<(usize, File)>> = (0..n_workers).map(|_| Vec::new()).collect();
    for shard in 0..cfg.n_shards.max(1) {
        let path = spill_path(out, shard);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        spill_paths.push(path);
        worker_spills[shard % n_workers].push((shard, file));
    }

    let mut chunk_counts = vec![0u64; cfg.n_shards.max(1)];
    let agg_results: Vec<std::io::Result<Vec<(usize, u64)>>> = std::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(n_workers);
        let mut consumers = Vec::with_capacity(n_workers);
        for (worker, worker_spill) in worker_spills.iter_mut().enumerate() {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Envelope>(cfg.channel_capacity.max(1));
            txs.push(tx);
            let spills = std::mem::take(worker_spill);
            let counters = &counters;
            consumers.push(
                scope.spawn(move || aggregate(worker, n_workers, plan, &rx, spills, counters)),
            );
        }
        let mut producers = Vec::with_capacity(n_workers);
        for worker in 0..n_workers {
            let txs = txs.clone();
            let counters = &counters;
            producers
                .push(scope.spawn(move || produce(worker, n_workers, plan, cfg, &txs, counters)));
        }
        drop(txs);
        for p in producers {
            p.join().expect("producer panicked");
        }
        consumers
            .into_iter()
            .map(|c| c.join().expect("aggregator panicked"))
            .collect()
    });
    for result in agg_results {
        for (shard, chunks) in result? {
            chunk_counts[shard] = chunks;
        }
    }

    // Stream the spilled bodies — one chunk in memory at a time — into
    // the container, letting the writer's read-back verification catch
    // the injector's torn writes.
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(out)?;
    let mut writer = ChunkedWriter::new(file, plan.benchmarks())?;
    let mut global_chunk = 0u64;
    let mut rows = 0u64;
    for (shard, spill) in spill_paths.iter().enumerate() {
        let mut src = BufReader::new(File::open(spill)?);
        src.rewind()?;
        for _ in 0..chunk_counts[shard] {
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
    for spill in &spill_paths {
        let _ = std::fs::remove_file(spill);
    }
    metrics::gauge_set(Metric::StreamBacklogRows, 0);

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
}
