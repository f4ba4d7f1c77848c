//! Prediction-as-a-service over compiled model trees.
//!
//! The paper's regression models only pay off at fleet scale if a CPI
//! or speedup prediction is as cheap to *query* as it is to compute:
//! ROADMAP item 1 calls for an async prediction service as the direct
//! path to the heavy-traffic north star. This crate is that service,
//! built like everything else in the workspace — dependency-free over
//! `std`, with the vendored-stub philosophy extended to the network
//! edge: a hand-rolled HTTP/1.1 subset ([`http`]) instead of a web
//! framework, `std::net` blocking sockets instead of an async runtime.
//!
//! # Architecture
//!
//! ```text
//! clients ──► acceptor ──► per-connection handlers ──► coalescer ──► CompiledTree
//!                │                │   (parse, validate)    │  (one columnar batch
//!                │                │                        │   per size/idle/time)
//!                │                ◄── tickets (oneshot) ───┘
//!                └─ registry: name → Arc<ModelVersion> (atomic hot swap)
//! ```
//!
//! * [`registry`] — models keyed by name, each an immutable
//!   [`registry::ModelVersion`] (compiled engine + pipeline fingerprint
//!   version). Swapping a model is one `Arc` store; in-flight batches
//!   keep the `Arc` they captured at submit time, so a swap can never
//!   mix versions within a request.
//! * [`coalesce`] — concurrent single-row requests accumulate into one
//!   columnar [`modeltree::CompiledTree::predict_batch`] invocation,
//!   flushed when the batch reaches `max_batch_rows`, when no
//!   connection is mid-drain, or at the latest once the oldest request
//!   has waited `window` (size, idle or time trigger). A bounded
//!   pending-row queue sheds overload with HTTP 429 + `Retry-After`
//!   instead of collapsing.
//! * [`server`] — the protocol edge: request parsing and hardening,
//!   endpoint dispatch, pipelining (every complete request buffered on
//!   a connection is submitted before the first response is awaited, so
//!   one keep-alive connection can fill a batch by itself), and the
//!   `serve.*` obskit metrics.
//! * [`loadgen`] — an open-loop (fixed arrival schedule, latency
//!   measured against the *schedule*, so queueing delay is charged to
//!   the server — no coordinated omission) and saturating load
//!   generator used by the serve end-to-end tests and `perfbench`.
//!
//! # Determinism contract
//!
//! A served prediction is **byte-identical** to the offline
//! `predict_all`/`predict_batch` result for the same model and row:
//! engine outputs are pure per-row functions (bit-identical for every
//! batch composition and thread count, see `modeltree::compiled`), and
//! both the vendored JSON writer and this crate's text rendering print
//! `f64` via Rust's shortest-round-trip `{}` formatting, which
//! parses back to the identical bits. The testkit `serve_e2e` suite
//! enforces this end to end, including under concurrent hot swap.

pub mod coalesce;
pub mod http;
pub mod loadgen;
pub mod registry;
pub mod server;

pub use coalesce::{Coalescer, CoalescerConfig, Outcome, RequestKind, SubmitError};
pub use loadgen::{LoadgenConfig, LoadgenReport, Mode};
pub use registry::{ModelRegistry, ModelVersion};
pub use server::{set_trace_sample, Server, ServerConfig};
