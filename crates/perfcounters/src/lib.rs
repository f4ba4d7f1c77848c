//! PMU event schema, sample datasets, and a counter-multiplexing simulator.
//!
//! This crate models the measurement infrastructure of the paper's
//! Section III: an Intel Core 2-class performance monitoring unit with
//! five counters — three fixed (`CPU_CLK_UNHALTED.CORE`,
//! `INST_RETIRED.ANY`, `CPU_CLK_UNHALTED.REF`) and two programmable
//! counters that are round-robin multiplexed over the remaining events of
//! Table I in 2-million-instruction intervals.
//!
//! * [`events`] — the Table I metric schema: [`events::EventId`]
//!   enumerates the 19 per-instruction predictor events; CPI is the
//!   dependent variable.
//! * [`sample`] — a single observation interval
//!   ([`sample::Sample`]) with its per-instruction event densities
//!   and measured CPI.
//! * [`dataset`] — a column-major [`dataset::Dataset`] of samples with
//!   benchmark labels, random splits, per-column summaries, and CSV
//!   round-trips.
//! * [`counters`] — the [`counters::CounterBank`] multiplexing
//!   simulator that turns *true* event densities into *measured* densities
//!   with realistic extrapolation noise.
//! * [`arff`] — WEKA ARFF import/export, for cross-checking datasets
//!   against the toolchain the paper used.
//!
//! # Examples
//!
//! ```
//! use perfcounters::events::EventId;
//! use perfcounters::sample::Sample;
//!
//! let mut sample = Sample::zeros(1.0);
//! sample.set(EventId::DtlbMiss, 3e-4);
//! assert_eq!(sample.get(EventId::DtlbMiss), 3e-4);
//! assert_eq!(sample.cpi(), 1.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arff;
pub mod counters;
pub mod dataset;
pub mod events;
pub mod sample;

pub use counters::CounterBank;
pub use dataset::{BlockMut, ColumnStore, Dataset};
pub use events::EventId;
pub use sample::Sample;

/// Errors from dataset manipulation and I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum DataError {
    /// A CSV or JSON payload could not be parsed. The payload describes
    /// the offending line or field.
    Parse(String),
    /// Indices or label references were out of range.
    OutOfRange(String),
    /// An operation needed more samples than the dataset holds.
    InsufficientData(String),
    /// A value cannot be represented in the requested text format
    /// (e.g. a benchmark name containing the format's delimiter).
    /// Raised at write time so the defect never reaches disk.
    Unencodable(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Parse(msg) => write!(f, "parse error: {msg}"),
            DataError::OutOfRange(msg) => write!(f, "out of range: {msg}"),
            DataError::InsufficientData(msg) => write!(f, "insufficient data: {msg}"),
            DataError::Unencodable(msg) => write!(f, "unencodable: {msg}"),
            DataError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, DataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let e = DataError::Parse("bad row".into());
        assert!(e.to_string().contains("bad row"));
        let e = DataError::Io(std::io::Error::other("x"));
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn error_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<DataError>();
    }
}
