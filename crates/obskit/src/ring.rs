//! The flight recorder: a fixed-size lock-free ring of recent
//! structured events, cheap enough to leave on in a serving process
//! and dumped only when something goes wrong.
//!
//! # Layout
//!
//! The ring is [`SEGMENTS`] independent segments of
//! [`SLOTS_PER_SEGMENT`] slots each, all statically allocated — there
//! is **no allocation after init** and no lock anywhere on the write
//! path. A writing thread picks its segment by thread ordinal, so
//! under steady load each server thread mostly owns a segment and the
//! only cross-thread traffic is the global ordering counter.
//!
//! # Write protocol (per-slot seqlock)
//!
//! Every slot carries a sequence word: even = stable, odd = a writer
//! is mid-record. A writer claims the next slot in its segment with a
//! single CAS (even → odd), stores the payload words, and releases
//! with an even store. If the CAS loses (another thread racing the
//! same segment) the writer advances to the next slot; after a few
//! failed claims the record is counted as dropped rather than spun
//! for — the recorder sheds, it never blocks.
//!
//! Readers ([`snapshot_events`]) load the sequence, copy the payload,
//! and re-check the sequence: any record whose sequence changed or is
//! odd is skipped, so a dump taken mid-flight can miss an in-progress
//! record but can never observe a torn one. Records carry a global
//! ordering ticket, so a dump is sorted into one coherent timeline
//! even though segments wrap independently.
//!
//! Everything here is safe Rust over `AtomicU64` cells — torn-record
//! protection comes from the seqlock discipline, not from `unsafe`.

use crate::metrics::{self, Metric};
use crate::span;
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Number of independent ring segments (writer threads hash onto
/// these by thread ordinal).
pub const SEGMENTS: usize = 8;

/// Slots per segment; each slot holds one fixed-width record.
pub const SLOTS_PER_SEGMENT: usize = 256;

/// Total record capacity of the recorder.
pub const CAPACITY: usize = SEGMENTS * SLOTS_PER_SEGMENT;

/// How many claim attempts a writer makes before counting the record
/// as dropped.
const CLAIM_ATTEMPTS: usize = 8;

/// The JSON dump schema version (bumped on layout changes).
pub const SCHEMA_VERSION: u64 = 1;

/// What one flight record describes. Discriminants start at 1 so a
/// zeroed slot is recognizably empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum FlightKind {
    /// A request entered the coalescer: `a`=request id, `b`=rows,
    /// `c`=request kind.
    RequestSubmitted = 1,
    /// A request's reply was resolved: `a`=request id, `b`=rows,
    /// `c`=wait µs.
    RequestResolved = 2,
    /// The coalescer flushed a batch: `a`=jobs, `b`=total rows,
    /// `c`=engine calls.
    BatchFlushed = 3,
    /// A request was shed with 429: `a`=request id, `b`=rows.
    LoadShed = 4,
    /// A model swap was applied: `a`=version fingerprint prefix.
    SwapApplied = 5,
    /// A model swap failed: `a`=HTTP status.
    SwapFailed = 6,
    /// An SLO/drift monitor rule fired: `a`=rule index,
    /// `b`=observed value bits, `c`=threshold bits.
    MonitorFired = 7,
    /// A stream refit window completed: `a`=window start row,
    /// `b`=window end row, `c`=holdout MAE bits.
    RefitWindow = 8,
    /// The recorder itself was dumped: `a`=dropped count at dump.
    Dump = 9,
    /// Synthetic record used by tests and benches.
    Probe = 10,
}

impl FlightKind {
    /// Stable dump name.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::RequestSubmitted => "request_submitted",
            FlightKind::RequestResolved => "request_resolved",
            FlightKind::BatchFlushed => "batch_flushed",
            FlightKind::LoadShed => "load_shed",
            FlightKind::SwapApplied => "swap_applied",
            FlightKind::SwapFailed => "swap_failed",
            FlightKind::MonitorFired => "monitor_fired",
            FlightKind::RefitWindow => "refit_window",
            FlightKind::Dump => "dump",
            FlightKind::Probe => "probe",
        }
    }

    fn from_code(code: u64) -> Option<FlightKind> {
        Some(match code {
            1 => FlightKind::RequestSubmitted,
            2 => FlightKind::RequestResolved,
            3 => FlightKind::BatchFlushed,
            4 => FlightKind::LoadShed,
            5 => FlightKind::SwapApplied,
            6 => FlightKind::SwapFailed,
            7 => FlightKind::MonitorFired,
            8 => FlightKind::RefitWindow,
            9 => FlightKind::Dump,
            10 => FlightKind::Probe,
            _ => return None,
        })
    }
}

struct Slot {
    /// Seqlock word: 0 = never written, odd = write in flight, other
    /// even = stable record.
    seq: AtomicU64,
    /// Global ordering ticket (1-based).
    ord: AtomicU64,
    kind: AtomicU64,
    ts_us: AtomicU64,
    tid: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

struct Segment {
    cursor: AtomicU64,
    dropped: AtomicU64,
    slots: [Slot; SLOTS_PER_SEGMENT],
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    seq: AtomicU64::new(0),
    ord: AtomicU64::new(0),
    kind: AtomicU64::new(0),
    ts_us: AtomicU64::new(0),
    tid: AtomicU64::new(0),
    a: AtomicU64::new(0),
    b: AtomicU64::new(0),
    c: AtomicU64::new(0),
};

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SEGMENT: Segment = Segment {
    cursor: AtomicU64::new(0),
    dropped: AtomicU64::new(0),
    slots: [EMPTY_SLOT; SLOTS_PER_SEGMENT],
};

static RING: [Segment; SEGMENTS] = [EMPTY_SEGMENT; SEGMENTS];

/// Global ordering tickets (1-based so `ord == 0` marks empty slots).
static NEXT_ORD: AtomicU64 = AtomicU64::new(1);

/// Records one event into the ring. One relaxed load and out when the
/// recorder is disabled; never blocks, never allocates.
#[inline]
pub fn record(kind: FlightKind, a: u64, b: u64, c: u64) {
    if crate::ring_enabled() {
        record_slow(kind, a, b, c);
    }
}

#[inline(never)]
fn record_slow(kind: FlightKind, a: u64, b: u64, c: u64) {
    let tid = span::thread_ordinal();
    let segment = &RING[(tid as usize) % SEGMENTS];
    let ord = NEXT_ORD.fetch_add(1, Ordering::Relaxed);
    let ts_us = span::now_us();
    for _ in 0..CLAIM_ATTEMPTS {
        let n = segment.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &segment.slots[(n as usize) % SLOTS_PER_SEGMENT];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1 {
            continue; // another writer mid-record; take the next slot
        }
        if slot
            .seq
            .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        slot.ord.store(ord, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.ts_us.store(ts_us, Ordering::Relaxed);
        slot.tid.store(tid, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);
        return;
    }
    segment.dropped.fetch_add(1, Ordering::Relaxed);
}

/// One stable record read out of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global ordering ticket (ascending = chronological claim order).
    pub ord: u64,
    pub kind: FlightKind,
    /// Microseconds since the trace epoch.
    pub ts_us: u64,
    /// Recording thread's trace ordinal.
    pub tid: u64,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

/// Copies every stable record out of the ring, sorted by ordering
/// ticket, along with the total dropped-record count. Records being
/// written while the snapshot runs are skipped, never torn.
pub fn snapshot_events() -> (Vec<FlightEvent>, u64) {
    let mut events = Vec::with_capacity(CAPACITY);
    let mut dropped = 0;
    for segment in &RING {
        dropped += segment.dropped.load(Ordering::Relaxed);
        for slot in &segment.slots {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue;
            }
            let record = (
                slot.ord.load(Ordering::Relaxed),
                slot.kind.load(Ordering::Relaxed),
                slot.ts_us.load(Ordering::Relaxed),
                slot.tid.load(Ordering::Relaxed),
                slot.a.load(Ordering::Relaxed),
                slot.b.load(Ordering::Relaxed),
                slot.c.load(Ordering::Relaxed),
            );
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten mid-copy
            }
            let (ord, kind, ts_us, tid, a, b, c) = record;
            let Some(kind) = FlightKind::from_code(kind) else {
                continue;
            };
            events.push(FlightEvent {
                ord,
                kind,
                ts_us,
                tid,
                a,
                b,
                c,
            });
        }
    }
    events.sort_unstable_by_key(|e| e.ord);
    (events, dropped)
}

/// The ring contents as a JSON document:
/// `{"obs": {...}, "capacity": N, "dropped": D, "events": [...]}`.
pub fn dump_json() -> String {
    use std::fmt::Write as _;
    let (events, dropped) = snapshot_events();
    let mut out = String::from("{\"obs\":");
    out.push_str(&crate::export::export_meta(SCHEMA_VERSION));
    let _ = write!(
        out,
        ",\"capacity\":{CAPACITY},\"segments\":{SEGMENTS},\"dropped\":{dropped},\"events\":["
    );
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ord\":{},\"kind\":{},\"ts_us\":{},\"tid\":{},\"a\":{},\"b\":{},\"c\":{}}}",
            e.ord,
            crate::export::json_string(e.kind.name()),
            e.ts_us,
            e.tid,
            e.a,
            e.b,
            e.c
        );
    }
    out.push_str("]}");
    out
}

/// Writes [`dump_json`] to a file.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_dump(path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, dump_json() + "\n")
}

/// Where automatic dumps land: `SPECREPRO_FLIGHT_OUT` if set, else
/// `specrepro-flight.json` in the system temp directory.
fn autodump_path() -> PathBuf {
    match std::env::var("SPECREPRO_FLIGHT_OUT") {
        Ok(path) if !path.is_empty() => PathBuf::from(path),
        _ => std::env::temp_dir().join("specrepro-flight.json"),
    }
}

/// Minimum spacing between automatic dumps.
const AUTODUMP_MIN_INTERVAL_US: u64 = 5_000_000;

/// Dumps the ring to `SPECREPRO_FLIGHT_OUT` (else
/// `specrepro-flight.json` in the system temp directory) in response
/// to a fault (load-shed burst, swap failure), rate-limited to one dump
/// per five seconds so a sustained storm produces one post-mortem file,
/// not disk churn. Returns the path when a dump was written.
pub fn autodump(reason: &str) -> Option<PathBuf> {
    if !crate::ring_enabled() {
        return None;
    }
    static LAST_DUMP_US: AtomicU64 = AtomicU64::new(0);
    // now_us() is 0 only in the first microsecond of the epoch; +1
    // keeps "never dumped" (0) distinguishable.
    let now = span::now_us() + 1;
    let last = LAST_DUMP_US.load(Ordering::Relaxed);
    if last != 0 && now.saturating_sub(last) < AUTODUMP_MIN_INTERVAL_US {
        return None;
    }
    if LAST_DUMP_US
        .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
        .is_err()
    {
        return None; // another thread claimed this dump window
    }
    let (_, dropped) = snapshot_events();
    record(FlightKind::Dump, dropped, 0, 0);
    let path = autodump_path();
    match write_dump(&path) {
        Ok(()) => {
            metrics::incr(Metric::ObsFlightDumps);
            span::emit(
                "obs",
                "flight.autodump",
                &[("reason", &reason), ("path", &path.display())],
                crate::log_env_enabled(),
            );
            Some(path)
        }
        Err(_) => None, // best-effort: telemetry must not take the server down
    }
}

/// Clears every slot and counter (tests and per-command CLI dumps).
pub fn reset() {
    for segment in &RING {
        segment.cursor.store(0, Ordering::Relaxed);
        segment.dropped.store(0, Ordering::Relaxed);
        for slot in &segment.slots {
            slot.seq.store(0, Ordering::Relaxed);
            slot.ord.store(0, Ordering::Relaxed);
        }
    }
    NEXT_ORD.store(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global ring state.
    static RING_TEST: std::sync::Mutex<()> = std::sync::Mutex::new(());

    struct Enabled {
        _guard: std::sync::MutexGuard<'static, ()>,
    }

    impl Enabled {
        fn lock() -> Enabled {
            let guard = RING_TEST.lock().unwrap_or_else(|e| e.into_inner());
            reset();
            crate::set_ring_enabled(true);
            Enabled { _guard: guard }
        }
    }

    impl Drop for Enabled {
        fn drop(&mut self) {
            crate::set_ring_enabled(false);
            reset();
        }
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let _guard = RING_TEST.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        crate::set_ring_enabled(false);
        record(FlightKind::Probe, 1, 2, 3);
        let (events, dropped) = snapshot_events();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn records_round_trip_with_payload() {
        let _guard = Enabled::lock();
        record(FlightKind::LoadShed, 42, 4096, 7);
        let (events, _) = snapshot_events();
        let e = events
            .iter()
            .find(|e| e.kind == FlightKind::LoadShed)
            .expect("recorded event present");
        assert_eq!((e.a, e.b, e.c), (42, 4096, 7));
        assert!(e.ord > 0);
    }

    #[test]
    fn single_thread_wraparound_keeps_most_recent_in_order() {
        let _guard = Enabled::lock();
        let total = SLOTS_PER_SEGMENT * 3;
        for i in 0..total {
            record(FlightKind::Probe, i as u64, 0, 0);
        }
        let (events, dropped) = snapshot_events();
        assert_eq!(dropped, 0);
        // One thread fills exactly one segment: the dump is that
        // segment's worth of most-recent records, in order.
        assert_eq!(events.len(), SLOTS_PER_SEGMENT);
        let first = (total - SLOTS_PER_SEGMENT) as u64;
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.a, first + i as u64);
        }
    }

    #[test]
    fn dump_json_is_well_formed() {
        let _guard = Enabled::lock();
        record(FlightKind::SwapFailed, 409, 0, 0);
        let dump = dump_json();
        assert!(dump.starts_with("{\"obs\":{"));
        assert!(dump.contains("\"schema_version\""));
        assert!(dump.contains("\"kind\":\"swap_failed\""));
        assert!(dump.contains(&format!("\"capacity\":{CAPACITY}")));
    }
}
