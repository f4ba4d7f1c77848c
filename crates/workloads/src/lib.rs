//! Synthetic SPEC CPU2006 and SPEC OMP2001 workload models.
//!
//! The original study measured licensed SPEC binaries on an Intel Core 2
//! Duo. Neither the benchmarks nor the hardware are available here, so
//! this crate substitutes a *workload simulator* with three layers:
//!
//! 1. [`phases`] — each benchmark is a weighted mixture of execution
//!    phases; a phase is a joint distribution over the 19 Table I event
//!    densities (truncated normals). The 29 CPU2006 benchmarks
//!    ([`cpu2006`]) and 11 OMP2001-medium benchmarks ([`omp2001`]) are
//!    parameterized to land in the qualitative regimes the paper reports
//!    for them (e.g. 482.sphinx3 split-load heavy, 471.omnetpp DTLB/L2
//!    heavy, 328.fma3d_m store + load-block-overlap heavy).
//! 2. [`costmodel`] — a latent, regime-dependent cost model produces the
//!    ground-truth CPI from the *true* event densities. The piecewise
//!    structure (different event costs in different microarchitectural
//!    regimes) is what makes M5' trees the right model class, exactly as
//!    on real hardware. The [`costmodel::Environment`]
//!    distinguishes single-threaded (CPU2006) from multi-threaded
//!    (OMP2001) execution: the multi-threaded regime set reflects
//!    coherence and store-forwarding pressure that no counter observes
//!    directly — mirroring the paper's explanation for why the two
//!    suites' models do not transfer to each other.
//! 3. [`generator`] — drives the phases through the cost model and the
//!    [`perfcounters`] multiplexing simulator to emit labeled
//!    [`Dataset`](perfcounters::Dataset)s.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use workloads::generator::{GeneratorConfig, Suite};
//!
//! let suite = Suite::cpu2006();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let data = suite.generate(&mut rng, 1000, &GeneratorConfig::default(), 1);
//! assert_eq!(data.len(), 1000);
//! assert_eq!(data.benchmark_count(), 29);
//! ```

pub mod costmodel;
pub mod cpu2006;
pub mod cpu2017;
pub mod cpu2026;
pub mod generator;
pub mod omp2001;
pub mod phases;
pub mod registry;
pub mod trace;

pub use costmodel::{CostModel, Environment};
pub use generator::{GeneratorConfig, Suite, GENERATOR_VERSION};
pub use phases::{BenchmarkModel, Phase};
pub use registry::{SuiteDef, SuiteRegistry};
pub use trace::{generate_trace, Trace, TraceConfig};
