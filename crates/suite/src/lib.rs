//! Facade over the full SPEC CPU2006 / SPEC OMP2001 characterization
//! reproduction.
//!
//! This crate re-exports every workspace crate so applications can
//! depend on one name, and hosts the workspace-level examples and
//! integration tests. The pipeline, end to end:
//!
//! 1. [`workloads`] generates PMU interval datasets for the synthetic
//!    SPEC CPU2006 / SPEC OMP2001 suites through [`perfcounters`]'s
//!    multiplexed counter simulator.
//! 2. [`modeltree`] fits an M5' model tree linking CPI to the Table I
//!    events.
//! 3. [`characterize`] classifies samples through the tree into
//!    per-benchmark leaf profiles, similarity matrices, and subsets.
//! 4. [`transfer`] (with [`spec_stats`]) assesses whether a model built
//!    on one suite transfers to another.
//! 5. [`baselines`] provides the comparison regressors.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use spec_suite_repro::prelude::*;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let data = Suite::cpu2006().generate(&mut rng, 2_000, &GeneratorConfig::default(), 1);
//! let tree = ModelTree::fit(&data, &M5Config::default()).unwrap();
//! assert!(tree.n_leaves() >= 1);
//! ```

pub use baselines;
pub use characterize;
pub use mathkit;
pub use modeltree;
pub use perfcounters;
pub use spec_stats;
pub use transfer;
pub use workloads;

/// One-stop imports for the common pipeline.
pub mod prelude {
    pub use baselines::{KnnRegressor, OlsRegressor, RegressionTree, Regressor};
    pub use characterize::{LeafProfile, ProfileTable, SimilarityMatrix};
    pub use modeltree::{display, M5Config, ModelTree};
    pub use perfcounters::{Dataset, EventId, Sample};
    pub use spec_stats::{AcceptanceThresholds, PredictionMetrics};
    pub use transfer::{TransferConfig, TransferabilityReport};
    pub use workloads::generator::{GeneratorConfig, Suite};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // Touch one item from each re-exported crate.
        let _ = crate::prelude::M5Config::default();
        let _ = crate::prelude::GeneratorConfig::default();
        let _ = crate::prelude::AcceptanceThresholds::default();
        let _ = perfcounters::events::N_EVENTS;
    }
}
