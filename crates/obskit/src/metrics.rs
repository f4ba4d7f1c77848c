//! The global metric registry: fixed-slot lock-free counters, gauges,
//! and log-scaled histograms.
//!
//! The registry is a closed schema, mirroring how the workspace treats
//! PMU events (`perfcounters::EventId` style): every metric the
//! instrumented crates emit is a variant of [`Metric`] or [`Hist`], and
//! the backing storage is a static array of `AtomicU64` indexed by the
//! variant. That buys three things over a name-keyed map:
//!
//! * **No registration, no hashing, no locking.** A counter increment
//!   compiles to one relaxed load (the enabled check) plus one relaxed
//!   `fetch_add` — and to *only* the load when telemetry is disabled.
//! * **A complete export for free.** Dumping all metrics is a scan of
//!   two fixed arrays; there is no "forgot to register" failure mode.
//! * **No allocation anywhere on the hot path**, so instrumented code
//!   inside scoped-thread training loops stays allocation-free.
//!
//! All updates use `Ordering::Relaxed`: metrics are monotone telemetry,
//! not synchronization, and a snapshot taken while workers run is
//! allowed to be mid-flight. Snapshots taken after threads join (the
//! only place exports happen) see every update because thread join
//! itself synchronizes.

use std::sync::atomic::{AtomicU64, Ordering};

/// What a [`Metric`] slot holds, which decides how exporters render it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing count.
    Counter,
    /// Last-written (or maximum) value.
    Gauge,
    /// Last-written `f64`, stored as its IEEE-754 bit pattern so the
    /// backing cell stays a plain `AtomicU64`. Written via
    /// [`gauge_set_f64`], read through [`snapshot`].
    FloatGauge,
}

macro_rules! define_metrics {
    ($($variant:ident, $name:literal, $kind:ident;)+) => {
        /// Every scalar metric the workspace emits. Names are dotted
        /// `layer.metric` strings, stable across releases — exporters,
        /// the CLI, and CI smoke checks key on them.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Metric {
            $(#[doc = $name] $variant,)+
        }

        /// Number of scalar metric slots.
        pub const N_METRICS: usize = [$(Metric::$variant),+].len();

        impl Metric {
            /// All metrics, in declaration (= export) order.
            pub const ALL: [Metric; N_METRICS] = [$(Metric::$variant),+];

            /// The stable dotted export name.
            pub fn name(self) -> &'static str {
                match self { $(Metric::$variant => $name,)+ }
            }

            /// Counter or gauge.
            pub fn kind(self) -> Kind {
                match self { $(Metric::$variant => Kind::$kind,)+ }
            }
        }
    };
}

define_metrics! {
    // M5' trainer.
    TrainerFits, "trainer.fits", Counter;
    TrainerNodesExpanded, "trainer.nodes_expanded", Counter;
    TrainerSplitEvaluations, "trainer.split_evaluations", Counter;
    TrainerAttributeEliminations, "trainer.attribute_eliminations", Counter;
    TrainerPrunedSubtrees, "trainer.pruned_subtrees", Counter;
    TrainerLeaves, "trainer.leaves", Counter;
    // Compiled batch inference engine.
    EngineCompilations, "engine.compilations", Counter;
    EngineBatches, "engine.batches", Counter;
    EngineBlocks, "engine.blocks", Counter;
    EngineRowsPredicted, "engine.rows_predicted", Counter;
    EngineRowsClassified, "engine.rows_classified", Counter;
    EngineSimdRows, "engine.simd_rows", Counter;
    EngineScalarTailRows, "engine.scalar_tail_rows", Counter;
    EngineMaxDescentDepth, "engine.max_descent_depth", Gauge;
    // Experiment pipeline and artifact store.
    PipelineDatasetHits, "pipeline.dataset_hits", Counter;
    PipelineDatasetMisses, "pipeline.dataset_misses", Counter;
    PipelineTreeHits, "pipeline.tree_hits", Counter;
    PipelineTreeMisses, "pipeline.tree_misses", Counter;
    PipelineSplitsComputed, "pipeline.splits_computed", Counter;
    PipelineCorruptEvictions, "pipeline.corrupt_evictions", Counter;
    PipelineBytesRead, "pipeline.bytes_read", Counter;
    PipelineBytesWritten, "pipeline.bytes_written", Counter;
    // Counter-multiplexing PMU simulator.
    PmuIntervals, "pmu.intervals", Counter;
    PmuRotations, "pmu.rotations", Counter;
    // Prediction server (crates/serve).
    ServeConnections, "serve.connections", Counter;
    ServeRequests, "serve.requests", Counter;
    ServeRowsPredicted, "serve.rows_predicted", Counter;
    ServeRowsClassified, "serve.rows_classified", Counter;
    ServeBatches, "serve.batches", Counter;
    ServeRejectedBusy, "serve.rejected_busy", Counter;
    ServeBadRequests, "serve.bad_requests", Counter;
    ServeModelSwaps, "serve.model_swaps", Counter;
    ServeRequestsTraced, "serve.requests_traced", Counter;
    ServeUptimeSeconds, "serve.uptime_seconds", Gauge;
    // Streaming ingestion and out-of-core training (crates/stream).
    StreamRowsIngested, "stream.rows_ingested", Counter;
    StreamChunksSealed, "stream.chunks_sealed", Counter;
    StreamDuplicatesDropped, "stream.duplicates_dropped", Counter;
    StreamRetransmits, "stream.retransmits", Counter;
    StreamFaultsInjected, "stream.faults_injected", Counter;
    StreamChunkRecoveries, "stream.chunk_recoveries", Counter;
    StreamRefits, "stream.refits", Counter;
    StreamRefitCacheHits, "stream.refit_cache_hits", Counter;
    StreamBacklogRows, "stream.backlog_rows", Gauge;
    StreamRefitHoldoutMae, "stream.refit_holdout_mae", FloatGauge;
    // The observability subsystem itself (crates/obskit).
    ObsMonitorFires, "obs.monitor_fires", Counter;
    ObsFlightDumps, "obs.flight_dumps", Counter;
}

macro_rules! define_hists {
    ($($variant:ident, $name:literal;)+) => {
        /// Every histogram metric. Values are `u64` observations on a
        /// log₂ bucket scale (see [`N_BUCKETS`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Hist {
            $(#[doc = $name] $variant,)+
        }

        /// Number of histogram slots.
        pub const N_HISTS: usize = [$(Hist::$variant),+].len();

        impl Hist {
            /// All histograms, in declaration (= export) order.
            pub const ALL: [Hist; N_HISTS] = [$(Hist::$variant),+];

            /// The stable dotted export name.
            pub fn name(self) -> &'static str {
                match self { $(Hist::$variant => $name,)+ }
            }
        }
    };
}

define_hists! {
    TrainerNodeRows, "trainer.node_rows";
    EngineBatchRows, "engine.batch_rows";
    PipelineCodecEncodeNs, "pipeline.codec_encode_ns";
    PipelineCodecDecodeNs, "pipeline.codec_decode_ns";
    ServeBatchRows, "serve.batch_rows";
    ServeRequestNs, "serve.request_ns";
    StreamRefitNs, "stream.refit_ns";
    StreamChunkRows, "stream.chunk_rows";
    StreamRefitHoldoutMaeMicro, "stream.refit_holdout_mae_micro";
}

/// Log₂ bucket count: bucket `b` holds observations in
/// `[2^(b-1), 2^b)`, bucket 0 holds exactly 0, and the last bucket
/// holds everything from `2^63` up.
pub const N_BUCKETS: usize = 65;

/// The log₂ bucket index of one observation.
#[inline]
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper bound of a bucket (`u64::MAX` for the last).
fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

static VALUES: [AtomicU64; N_METRICS] = [ZERO; N_METRICS];

struct HistCells {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_HIST: HistCells = HistCells {
    buckets: [ZERO; N_BUCKETS],
    sum: AtomicU64::new(0),
};

static HISTS: [HistCells; N_HISTS] = [EMPTY_HIST; N_HISTS];

/// Adds `n` to a counter. A no-op unless metrics are enabled.
#[inline]
pub fn add(metric: Metric, n: u64) {
    if crate::metrics_enabled() {
        VALUES[metric as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Increments a counter by one. A no-op unless metrics are enabled.
#[inline]
pub fn incr(metric: Metric) {
    add(metric, 1);
}

/// Sets a gauge. A no-op unless metrics are enabled.
#[inline]
pub fn gauge_set(metric: Metric, value: u64) {
    if crate::metrics_enabled() {
        VALUES[metric as usize].store(value, Ordering::Relaxed);
    }
}

/// Raises a gauge to at least `value` (running maximum). A no-op unless
/// metrics are enabled.
#[inline]
pub fn gauge_max(metric: Metric, value: u64) {
    if crate::metrics_enabled() {
        VALUES[metric as usize].fetch_max(value, Ordering::Relaxed);
    }
}

/// Sets a [`Kind::FloatGauge`] slot, storing the `f64` bit pattern. A
/// no-op unless metrics are enabled.
#[inline]
pub fn gauge_set_f64(metric: Metric, value: f64) {
    if crate::metrics_enabled() {
        VALUES[metric as usize].store(value.to_bits(), Ordering::Relaxed);
    }
}

/// The current value of a [`Kind::FloatGauge`] slot (0.0 when never
/// written — the zero bit pattern is positive zero).
fn value_f64(metric: Metric) -> f64 {
    f64::from_bits(VALUES[metric as usize].load(Ordering::Relaxed))
}

/// Records one observation into a log₂-bucketed histogram. A no-op
/// unless metrics are enabled.
#[inline]
pub fn observe(hist: Hist, value: u64) {
    if crate::metrics_enabled() {
        let cells = &HISTS[hist as usize];
        cells.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
    }
}

/// Runs `f`, recording its wall-clock nanoseconds into `hist` when
/// metrics are enabled. Disabled cost is the gate load only — no clock
/// is read.
#[inline]
pub fn time<T>(hist: Hist, f: impl FnOnce() -> T) -> T {
    if crate::metrics_enabled() {
        let start = std::time::Instant::now();
        let out = f();
        observe(
            hist,
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        out
    } else {
        f()
    }
}

/// The current value of one scalar metric (readable regardless of the
/// enabled state; disabled periods simply don't accumulate).
pub fn value(metric: Metric) -> u64 {
    VALUES[metric as usize].load(Ordering::Relaxed)
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// The stable dotted export name.
    pub name: &'static str,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// `(inclusive upper bound, count)` for every non-empty bucket, in
    /// ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, in declaration order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge, in declaration order.
    pub gauges: Vec<(&'static str, u64)>,
    /// `(name, value)` for every float gauge, in declaration order.
    pub float_gauges: Vec<(&'static str, f64)>,
    /// Every histogram, in declaration order.
    pub hists: Vec<HistSnapshot>,
}

impl Snapshot {
    /// The value of a counter or gauge by its export name, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .chain(&self.gauges)
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The value of a float gauge by its export name, if present.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.float_gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Copies the whole registry. Cheap (a few hundred relaxed loads) and
/// safe to call while workers are still updating — each cell is read
/// atomically, so values are current-or-slightly-stale, never torn.
pub fn snapshot() -> Snapshot {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut float_gauges = Vec::new();
    for m in Metric::ALL {
        match m.kind() {
            Kind::Counter => counters.push((m.name(), value(m))),
            Kind::Gauge => gauges.push((m.name(), value(m))),
            Kind::FloatGauge => float_gauges.push((m.name(), value_f64(m))),
        }
    }
    let hists = Hist::ALL
        .iter()
        .map(|&h| {
            let cells = &HISTS[h as usize];
            let mut count = 0;
            let mut buckets = Vec::new();
            for (b, cell) in cells.buckets.iter().enumerate() {
                let c = cell.load(Ordering::Relaxed);
                if c > 0 {
                    count += c;
                    buckets.push((bucket_upper_bound(b), c));
                }
            }
            HistSnapshot {
                name: h.name(),
                count,
                sum: cells.sum.load(Ordering::Relaxed),
                buckets,
            }
        })
        .collect();
    Snapshot {
        counters,
        gauges,
        float_gauges,
        hists,
    }
}

/// Zeroes every metric slot. For tests and the CLI's per-command
/// metric dumps; instrumented code never calls this.
pub fn reset() {
    for cell in &VALUES {
        cell.store(0, Ordering::Relaxed);
    }
    for hist in &HISTS {
        for cell in &hist.buckets {
            cell.store(0, Ordering::Relaxed);
        }
        hist.sum.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(11), 2047);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value falls in a bucket whose bound contains it.
        for v in [0u64, 1, 7, 100, 4096, 1 << 40, u64::MAX] {
            assert!(v <= bucket_upper_bound(bucket_of(v)));
        }
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        for name in &names {
            assert!(name.contains('.'), "{name} is not layer.metric");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric name");
    }
}
