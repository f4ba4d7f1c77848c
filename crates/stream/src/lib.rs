//! Fleet-scale streaming ingestion and out-of-core training.
//!
//! The batch pipeline ([`pipeline`]) materializes a whole dataset, fits
//! once, and caches the artifact. This crate is the continuous version
//! of that story: thousands of simulated hosts emit interval records,
//! in batches over bounded channels, into a sharded aggregator that
//! seals columnar chunks into a `SPDC` container ([`pipeline::chunked`]),
//! and a sliding-window refit tracks workload drift against that
//! container without ever holding the full table in memory.
//!
//! # Determinism contract
//!
//! The sealed container is a pure function of [`StreamConfig`] — never
//! of arrival interleaving, thread scheduling, or injected faults:
//!
//! * Every interval record is a pure function of `(fleet seed, host,
//!   seq)` ([`StreamPlan::record`]), so a record can be retransmitted,
//!   deduplicated, or recomputed byte-identically at any time.
//! * Hosts are routed to `n_shards` **logical** shards (`host %
//!   n_shards`); shard count is part of the layout and participates in
//!   the output. `n_threads` is an execution hint only: shards are
//!   multiplexed over workers, and the testkit proves byte-identical
//!   containers on 1 and 8 threads.
//! * Within a shard, rows follow the canonical seq-major round-robin
//!   order over the shard's hosts (ascending id), skipping hosts past
//!   their final sequence. The aggregator reconstructs exactly this
//!   order from out-of-order arrivals using per-host sequence numbers —
//!   duplicates are dropped by frontier check, gaps stall the cursor
//!   until the retransmit lands (exactly-once chunk semantics).
//!
//! # Fault injection
//!
//! [`FaultConfig`] seeds a deterministic adversary: decisions (drop,
//! duplicate, reorder, mid-stream host death, torn chunk write) are
//! keyed by *content* — `(fault seed, host, seq)` or `(fault seed,
//! chunk index)` — never by arrival order, so the same seed produces
//! the same fault schedule on any thread count and the suite can
//! assert byte-identical output under fire.
//!
//! Everything is observable through `stream.*` obskit metrics (rows
//! ingested, chunks sealed, duplicates dropped, retransmits, backlog
//! gauge, refit latency).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregator;
pub mod fault;
pub mod refit;
pub mod source;

pub use aggregator::{run_stream, StreamSummary};
pub use fault::FaultConfig;
pub use refit::{holdout_eval, windowed_refit, Holdout, RefitConfig, StreamError, WindowFit};
pub use source::{FleetConfig, StreamPlan};

/// Full configuration of one streaming run: the fleet, the logical
/// layout, the execution hints, and the fault schedule.
///
/// The transport is not configurable: each producer hands envelopes to
/// an aggregator worker in fixed-size batches, over a channel bounded
/// by a fixed number of batches. Neither size reaches the output.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The simulated fleet (suite, host count, intervals, seed).
    pub fleet: FleetConfig,
    /// Logical shard count. Part of the container layout: different
    /// shard counts produce different (each internally deterministic)
    /// row orders.
    pub n_shards: usize,
    /// Worker threads for producers and aggregators. Execution hint:
    /// never affects output bytes.
    pub n_threads: usize,
    /// Rows per sealed chunk: the building chunk each shard holds
    /// before it spills. Rows still waiting for the shard's cursor sit
    /// in reorder buffers outside this budget (see [`aggregator`]).
    pub chunk_rows: usize,
    /// Deterministic fault schedule ([`FaultConfig::none`] to disable).
    pub faults: FaultConfig,
}

impl StreamConfig {
    /// A config with sane defaults around the given fleet.
    pub fn new(fleet: FleetConfig) -> Self {
        StreamConfig {
            fleet,
            n_shards: 4,
            n_threads: 1,
            chunk_rows: 1024,
            faults: FaultConfig::none(),
        }
    }

    /// Sets the logical shard count.
    #[must_use]
    pub fn with_shards(mut self, n: usize) -> Self {
        self.n_shards = n.max(1);
        self
    }

    /// Sets the worker thread count (execution hint).
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> Self {
        self.n_threads = n.max(1);
        self
    }

    /// Sets the chunk row budget.
    #[must_use]
    pub fn with_chunk_rows(mut self, n: usize) -> Self {
        self.chunk_rows = n.max(1);
        self
    }

    /// Sets the fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }
}
