//! `obskit` — zero-overhead tracing, metrics, and profiling hooks for
//! the SPEC characterization workspace.
//!
//! The source paper's whole method is measurement; this crate makes the
//! *modeling stack itself* measurable. Three layers, all gated on one
//! relaxed atomic load so that disabled telemetry compiles to (nearly)
//! nothing:
//!
//! * **Metrics** ([`metrics`]): a closed, fixed-slot registry of
//!   lock-free counters, gauges, and log₂-bucketed histograms — nodes
//!   expanded, SDR split evaluations, cache hits, bytes read, PMU
//!   rotations, and so on.
//! * **Spans** ([`span`](mod@span), [`crate::span()`]): RAII scope timers that
//!   record Chrome `trace_event` complete events — per-phase trainer
//!   timing (grow/prune/smooth-fold), batch-kernel timing, pipeline
//!   stage timing.
//! * **Exporters** ([`export`]): a JSON metrics dump and a Chrome-trace
//!   document loadable by `chrome://tracing` / Perfetto, plus the
//!   structured stderr event stream that replaced the pipeline's ad-hoc
//!   `eprintln!` logging.
//!
//! # Enabling telemetry
//!
//! Everything is **off by default**. Entry points opt in either
//! programmatically ([`set_enabled`]) or through the environment via
//! [`ObsSession::from_env`], which `reproduce` and the `specrepro`
//! CLI call at startup:
//!
//! ```text
//! SPECREPRO_TRACE_OUT=trace.json    # enable tracing+metrics, write a Chrome trace on exit
//! SPECREPRO_METRICS_OUT=metrics.json# enable metrics, write the JSON dump on exit
//! SPECREPRO_FLIGHT_OUT=flight.json  # enable the flight recorder, write its dump on exit
//! SPECREPRO_OBS=1                   # enable every layer without writing files
//! ```
//!
//! # The zero-overhead contract
//!
//! Instrumented hot paths pay exactly one `Ordering::Relaxed` load of
//! `STATE` when telemetry is disabled — no clock reads, no
//! allocation, no locks, no formatting. Instrumentation sits at
//! phase/batch/artifact granularity (never per row or per threshold),
//! so even fully enabled telemetry adds no per-row cost.
//!
//! # Determinism
//!
//! Telemetry is strictly write-only with respect to the computation:
//! no metric, span, or clock value feeds back into trained trees,
//! predictions, or artifact fingerprints. `testkit`'s bit-identity
//! suite fits and fingerprints with telemetry on and off and asserts
//! byte equality.
//!
//! # Examples
//!
//! ```
//! obskit::set_enabled(true, true);
//! {
//!     let _span = obskit::span("demo", "outer");
//!     obskit::metrics::incr(obskit::metrics::Metric::TrainerFits);
//! }
//! let trace = obskit::export::trace_json();
//! assert!(trace.contains("\"outer\""));
//! obskit::set_enabled(false, false);
//! obskit::metrics::reset();
//! obskit::span::reset();
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod export;
pub mod metrics;
pub mod monitor;
pub mod prom;
pub mod ring;
pub mod span;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};

/// Bit in [`STATE`]: the metric registry accumulates.
const METRICS: u8 = 1 << 0;
/// Bit in [`STATE`]: spans and instant events are buffered.
const TRACING: u8 = 1 << 1;
/// Bit in [`STATE`]: the flight-recorder ring captures events.
const RING: u8 = 1 << 2;

/// The single global enabled word. Every instrumentation macro/function
/// begins with one relaxed load of this — the entirety of the disabled
/// cost.
static STATE: AtomicU8 = AtomicU8::new(0);

/// True if the metric registry is accumulating.
#[inline]
pub fn metrics_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & METRICS != 0
}

/// True if spans and events are being buffered for trace export.
#[inline]
pub fn tracing_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & TRACING != 0
}

/// True if the flight-recorder ring is capturing events.
#[inline]
pub fn ring_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & RING != 0
}

/// Turns the metrics and tracing layers on or off, globally. The
/// flight-recorder bit is left untouched; see [`set_ring_enabled`].
pub fn set_enabled(metrics: bool, tracing: bool) {
    let mut state = STATE.load(Ordering::Relaxed) & RING;
    if metrics {
        state |= METRICS;
    }
    if tracing {
        state |= TRACING;
    }
    STATE.store(state, Ordering::Relaxed);
}

/// Turns the flight-recorder ring on or off, independently of the
/// metrics/tracing layers (it is cheap enough to leave on in serving
/// processes while the trace buffer stays off).
pub fn set_ring_enabled(enabled: bool) {
    if enabled {
        STATE.fetch_or(RING, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!RING, Ordering::Relaxed);
    }
}

/// Starts a scope timer recording a Chrome-trace complete event when
/// dropped; inert (one relaxed load, nothing else) while tracing is
/// disabled. `cat` groups related spans in trace viewers
/// (`"trainer"`, `"engine"`, `"pipeline"`); `name` is the span label.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> span::Span {
    span::Span::start(cat, name)
}

/// Records a structured instant event; see [`span::emit`].
#[inline]
pub fn emit(
    cat: &'static str,
    name: &'static str,
    fields: &[(&str, &dyn std::fmt::Display)],
    log_to_stderr: bool,
) {
    span::emit(cat, name, fields, log_to_stderr);
}

/// Whether structured events should be mirrored to stderr, from the
/// environment: logging defaults **on** and `SPECREPRO_OBS_LOG` set to
/// `0` / `off` silences it.
pub fn log_env_enabled() -> bool {
    let value = std::env::var("SPECREPRO_OBS_LOG");
    !matches!(value.as_deref(), Ok("0") | Ok("off"))
}

fn env_path(key: &str) -> Option<PathBuf> {
    match std::env::var(key) {
        Ok(path) if !path.is_empty() => Some(PathBuf::from(path)),
        _ => None,
    }
}

/// An environment-driven observability session: enables telemetry
/// according to `SPECREPRO_TRACE_OUT` / `SPECREPRO_METRICS_OUT` /
/// `SPECREPRO_OBS` at construction and writes the requested export
/// files when finished (or dropped). With none of the variables set it
/// is fully inert, so every bin can hold one unconditionally:
///
/// ```no_run
/// let _obs = obskit::ObsSession::from_env(); // first line of main
/// // ... the program; exports written when `_obs` drops ...
/// ```
#[must_use = "the session writes its export files when dropped"]
pub struct ObsSession {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    flight_out: Option<PathBuf>,
}

impl ObsSession {
    /// Reads the environment and enables the requested layers:
    /// `SPECREPRO_TRACE_OUT=<path>` enables tracing and metrics and
    /// writes the Chrome trace there on completion;
    /// `SPECREPRO_METRICS_OUT=<path>` enables metrics and writes the
    /// JSON dump; `SPECREPRO_FLIGHT_OUT=<path>` enables the flight
    /// recorder and writes its dump; `SPECREPRO_OBS=1` enables every
    /// layer without writing files.
    pub fn from_env() -> ObsSession {
        let trace_out = env_path("SPECREPRO_TRACE_OUT");
        let metrics_out = env_path("SPECREPRO_METRICS_OUT");
        let flight_out = env_path("SPECREPRO_FLIGHT_OUT");
        let force = matches!(
            std::env::var("SPECREPRO_OBS").as_deref(),
            Ok("1") | Ok("on")
        );
        let tracing = trace_out.is_some() || force;
        let metrics = metrics_out.is_some() || tracing;
        if metrics || tracing {
            set_enabled(metrics, tracing);
        }
        if flight_out.is_some() || force {
            set_ring_enabled(true);
        }
        ObsSession {
            trace_out,
            metrics_out,
            flight_out,
        }
    }

    /// Writes the requested export files now and consumes the session.
    /// Returns the paths written.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O failure (remaining files are still
    /// attempted on drop-free paths only; callers treating telemetry as
    /// best-effort can ignore the error).
    pub fn finish(mut self) -> std::io::Result<Vec<PathBuf>> {
        self.write_outputs()
    }

    fn write_outputs(&mut self) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        if let Some(path) = self.trace_out.take() {
            export::write_trace(&path)?;
            eprintln!(
                "[obskit] wrote trace ({} events) to {}",
                span::event_count(),
                path.display()
            );
            written.push(path);
        }
        if let Some(path) = self.metrics_out.take() {
            export::write_metrics(&path)?;
            eprintln!("[obskit] wrote metrics to {}", path.display());
            written.push(path);
        }
        if let Some(path) = self.flight_out.take() {
            ring::write_dump(&path)?;
            eprintln!("[obskit] wrote flight dump to {}", path.display());
            written.push(path);
        }
        Ok(written)
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        // Best-effort: a failing telemetry write must never take the
        // program down with it.
        let _ = self.write_outputs();
    }
}
