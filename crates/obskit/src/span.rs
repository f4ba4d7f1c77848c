//! Scoped span timers, structured instant events, and the global trace
//! buffer behind the Chrome-trace exporter.
//!
//! A [`Span`] is an RAII timer: created by [`crate::span()`], it records
//! a `trace_event` *complete* event (`"ph":"X"`) when dropped. When
//! tracing is disabled the constructor returns an inert span — no
//! clock read, no allocation, nothing on drop — so instrumentation
//! left in hot paths costs one relaxed atomic load.
//!
//! Events carry a per-thread ordinal as their `tid`, assigned in
//! first-use order, so nested spans on one thread render as a proper
//! flame graph in `chrome://tracing` / Perfetto while scoped workers
//! (the parallel trainer spawns fresh threads per fit) each get their
//! own row.
//!
//! The buffer is bounded: past [`MAX_EVENTS`] events new records are
//! counted but dropped, turning a forgotten long-running trace into a
//! truncated file instead of unbounded memory growth.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Hard cap on buffered trace events.
pub const MAX_EVENTS: usize = 1 << 20;

/// One buffered `trace_event` record.
#[derive(Debug, Clone)]
pub(crate) struct TraceEvent {
    pub name: &'static str,
    pub cat: &'static str,
    /// `trace_event` phase: `'X'` complete, `'i'` instant.
    pub phase: char,
    /// Microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds (complete events only).
    pub dur_us: u64,
    pub tid: u64,
    /// Pre-rendered JSON object for the `args` field, or empty.
    pub args: String,
}

pub(crate) struct TraceBuffer {
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
}

static BUFFER: Mutex<TraceBuffer> = Mutex::new(TraceBuffer {
    events: Vec::new(),
    dropped: 0,
});

/// The instant all trace timestamps are measured from: first use of
/// the tracing layer in this process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch (first use of the
/// tracing/flight layer). Public for subsystems that timestamp their
/// own records — request tracing in `serve`, the flight recorder.
pub fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// This thread's stable small-integer trace id, assigned on first use.
pub(crate) fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// Locks the trace buffer. A panic while the lock was held cannot leave
/// the buffer inconsistent — every critical section is one push, one
/// clear or one read — so a poisoned lock is taken over, not propagated.
fn buffer() -> MutexGuard<'static, TraceBuffer> {
    BUFFER.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn push(event: TraceEvent) {
    let mut buffer = buffer();
    if buffer.events.len() >= MAX_EVENTS {
        buffer.dropped += 1;
    } else {
        buffer.events.push(event);
    }
}

pub(crate) fn with_buffer<T>(f: impl FnOnce(&TraceBuffer) -> T) -> T {
    f(&buffer())
}

/// Number of buffered trace events.
pub fn event_count() -> usize {
    with_buffer(|b| b.events.len())
}

/// Clears the trace buffer (tests and per-command CLI traces).
pub fn reset() {
    let mut buffer = buffer();
    buffer.events.clear();
    buffer.dropped = 0;
}

/// An RAII span timer; see the [module docs](self). Obtain via
/// [`crate::span()`].
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing"]
pub struct Span {
    /// `None` when tracing was disabled at construction.
    active: Option<(&'static str, &'static str, Instant)>,
}

impl Span {
    #[inline]
    pub(crate) fn start(cat: &'static str, name: &'static str) -> Span {
        Span {
            active: crate::tracing_enabled().then(|| {
                epoch(); // pin the epoch before the span's own start
                (cat, name, Instant::now())
            }),
        }
    }

    /// True if this span is recording (tracing was enabled when it was
    /// created).
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((cat, name, start)) = self.active.take() {
            let dur_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            let end_us = now_us();
            push(TraceEvent {
                name,
                cat,
                phase: 'X',
                ts_us: end_us.saturating_sub(dur_us),
                dur_us,
                tid: thread_ordinal(),
                args: String::new(),
            });
        }
    }
}

/// Records a complete event (`"ph":"X"`) with explicit timing and
/// structured args. For retroactive spans whose start is only known
/// after the fact (request tracing reconstructs parse/queue/batch
/// phases from recorded instants). `ts_us` is microseconds since the
/// trace epoch ([`now_us`]); fields render only when tracing is on.
pub fn complete(
    cat: &'static str,
    name: &'static str,
    ts_us: u64,
    dur_us: u64,
    fields: &[(&str, &dyn std::fmt::Display)],
) {
    if crate::tracing_enabled() {
        let args = if fields.is_empty() {
            String::new()
        } else {
            crate::export::render_args(fields)
        };
        push(TraceEvent {
            name,
            cat,
            phase: 'X',
            ts_us,
            dur_us,
            tid: thread_ordinal(),
            args,
        });
    }
}

/// Records a complete event spanning `started ..= now`, with args.
/// Convenience over [`complete`] for callers holding an `Instant`.
pub fn complete_since(
    cat: &'static str,
    name: &'static str,
    started: Instant,
    fields: &[(&str, &dyn std::fmt::Display)],
) {
    if crate::tracing_enabled() {
        let dur_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let end_us = now_us();
        complete(cat, name, end_us.saturating_sub(dur_us), dur_us, fields);
    }
}

/// Records a structured instant event (`"ph":"i"`) with the given
/// fields, and/or prints it as one structured stderr line. The two
/// sinks are independent: tracing captures the event into the trace
/// buffer whenever enabled, `log_to_stderr` mirrors it to stderr for
/// the human watching a run (the `SPECREPRO_OBS_LOG` surface).
///
/// Fields are rendered only when a sink is active, so an inert call
/// does not format or allocate.
pub fn emit(
    cat: &'static str,
    name: &'static str,
    fields: &[(&str, &dyn std::fmt::Display)],
    log_to_stderr: bool,
) {
    if crate::tracing_enabled() {
        push(TraceEvent {
            name,
            cat,
            phase: 'i',
            ts_us: now_us(),
            dur_us: 0,
            tid: thread_ordinal(),
            args: crate::export::render_args(fields),
        });
    }
    if log_to_stderr {
        use std::fmt::Write as _;
        let mut line = format!("[{cat}] {name}");
        for (key, value) in fields {
            let _ = write!(line, " {key}={value}");
        }
        eprintln!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_survives_a_poisoned_lock() {
        let poisoned = std::panic::catch_unwind(|| with_buffer(|_| panic!("poison the buffer")));
        assert!(poisoned.is_err());
        assert!(BUFFER.is_poisoned());
        reset();
        push(TraceEvent {
            name: "probe",
            cat: "test",
            phase: 'i',
            ts_us: 0,
            dur_us: 0,
            tid: thread_ordinal(),
            args: String::new(),
        });
        assert_eq!(event_count(), 1);
        reset();
        assert_eq!(event_count(), 0);
    }
}
