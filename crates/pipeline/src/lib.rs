//! Typed, staged experiment pipeline with a content-addressed artifact
//! store.
//!
//! Every experiment in this repository is a composition of four stages:
//!
//! ```text
//! workload generation ─► dataset ─► (split) ─► M5' fit ─► rendered artifact
//! ```
//!
//! This crate turns that flow into *data*: a [`spec::DatasetSpec`],
//! [`spec::SplitSpec`], [`spec::TransferSplitSpec`], or
//! [`spec::TreeSpec`] is a complete, hashable recipe for one artifact,
//! and a [`context::PipelineContext`] resolves recipes through an
//! in-memory memo table and an on-disk [`store::ArtifactStore`] keyed
//! by [`fingerprint::Fingerprint`]s of the full input closure (schema
//! version + stage domain + every output-affecting field).
//!
//! The cache contract is **bit-identity**: a warm resolution returns a
//! `Dataset` / `ModelTree` equal to the cold recompute down to every
//! float bit. That is enforced three ways — floats are keyed and
//! serialized by IEEE-754 bit pattern ([`codec`]), every artifact
//! carries an integrity hash that turns corruption into recompute
//! ([`store`]), and the testkit's differential suite compares warm
//! against cold across the M5' configuration lattice.
//!
//! The [`spec`] module also hosts the canonical experiment registry
//! (seeds, sample counts, the headline tree configuration) that all
//! entry points — `reproduce`, the CLI, golden-snapshot tests — share.

#![warn(missing_docs)]

pub mod chunked;
pub mod codec;
pub mod context;
pub mod fingerprint;
pub mod spec;
pub mod store;

pub use chunked::{
    decode_chunk, encode_chunk, ChunkMeta, ChunkedReader, ChunkedWriter, DecodedChunk,
};
pub use context::{PipelineContext, StageCounters, TransferSplit};
pub use fingerprint::{
    dataset_content_fingerprint, suite_def_fingerprint, Fingerprint, FingerprintHasher,
    Fingerprintable, SCHEMA_VERSION,
};
pub use spec::{
    suite_tree_config, DatasetInput, DatasetSpec, PipelineError, SplitPart, SplitSpec, SuiteKind,
    TransferPart, TransferSplitSpec, TreeSpec, N_SAMPLES, SEED_CPU2006, SEED_CPU2017, SEED_CPU2026,
    SEED_MATRIX, SEED_OMP2001, SEED_SPLIT,
};
pub use store::{ArtifactStore, StoreStats, CACHE_DIR_ENV};
