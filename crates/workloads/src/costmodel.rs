//! The latent, regime-dependent cost model producing ground-truth CPI.
//!
//! Real processors charge different effective costs for the same event in
//! different microarchitectural regimes (e.g. a DTLB miss that triggers a
//! serialized page walk vs. one overlapped with outstanding L2 misses).
//! That piecewise structure is exactly what the paper's M5' trees recover
//! from hardware data, so the simulator's ground truth is itself a
//! piecewise-linear function of the event densities. The leaf
//! coefficients for the dominant regimes are taken verbatim from the
//! paper's published equations (LM1/LM7/LM8 of Section IV for the
//! single-threaded regimes; LM17/LM18, LM2/LM6/LM15/LM16 of Section V for
//! the multi-threaded regimes), so a well-fit tree should reproduce both
//! the split structure and the coefficient magnitudes of Figures 1 and 2.
//!
//! The [`Environment`] selects between the two regime sets. The
//! environment is *latent*: it is not visible in any counter, which is
//! why a model trained on one suite cannot predict the other — the
//! paper's central non-transferability finding.

use perfcounters::events::{EventId, N_EVENTS};
use rand::Rng;

/// Execution environment of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// One thread per core, no cross-thread interference (SPEC CPU2006).
    SingleThreaded,
    /// OpenMP-style parallel execution: shared L2, coherence traffic, and
    /// store-forwarding pressure amplify store-related costs
    /// (SPEC OMP2001).
    MultiThreaded,
}

/// The microarchitectural regime a sample's true densities place it in.
///
/// Regime names reference the paper's linear-model numbers: `CpuLm1` is
/// the regime whose cost vector equals the paper's Equation 1, etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Regime {
    /// Low DTLB pressure; Equation 1 costs (the bulk of CPU2006).
    CpuLm1,
    /// DTLB pressure + split-load heavy (482.sphinx3's regime).
    CpuLm18,
    /// DTLB + L2 pressure with very high SIMD density (436.cactusADM).
    CpuLm11,
    /// DTLB + L2 pressure with high SIMD density and store overlap
    /// (470.lbm).
    CpuLm5,
    /// Heavy DTLB and L2 pressure (471.omnetpp; high CPI).
    CpuLm24,
    /// L2-miss-bound streaming with moderate DTLB pressure (constant
    /// CPI plateau).
    CpuStreaming,
    /// DTLB pressure + store-address blocks, well-predicted branches
    /// (Equation for LM7).
    CpuLm7,
    /// DTLB pressure + store-address blocks, branchy (Equation for LM8).
    CpuLm8,
    /// DTLB pressure, SIMD-rich compute (LM10-like).
    CpuLm10,
    /// DTLB pressure with overlapped-store load blocks (LM14-like).
    CpuLm14,
    /// Remaining DTLB-pressure samples (constant plateau).
    CpuPlateau,
    /// Store-overlap blocked, moderate stores (Equation 5 / LM17).
    OmpLm17,
    /// Store-overlap blocked, store-rich (Equation 6 / LM18).
    OmpLm18,
    /// Scalar, L2-bound, branchy (equake-style; LM14 of Figure 2).
    OmpLm14,
    /// Scalar, L2-bound, well-predicted (misalignment-sensitive LM6).
    OmpLm6,
    /// Scalar, L2-light, branchy, store-sensitive (LM2).
    OmpLm2,
    /// Scalar, L2-light, quiet (LM3 constant; art-style low CPI).
    OmpLm3,
    /// SIMD-rich with multiply pressure (applu-style LM16; high CPI).
    OmpLm16,
    /// SIMD-rich with misaligned operands (LM11 constant; high CPI).
    OmpLm11,
    /// SIMD-rich with store-address blocks (LM15).
    OmpLm15,
    /// Remaining SIMD-rich samples (swim/mgrid-style LM13).
    OmpLm13,
}

impl Regime {
    /// True if this regime belongs to the multi-threaded (OMP) regime
    /// set.
    pub fn is_multithreaded(self) -> bool {
        matches!(
            self,
            Regime::OmpLm17
                | Regime::OmpLm18
                | Regime::OmpLm14
                | Regime::OmpLm6
                | Regime::OmpLm2
                | Regime::OmpLm3
                | Regime::OmpLm16
                | Regime::OmpLm11
                | Regime::OmpLm15
                | Regime::OmpLm13
        )
    }
}

/// Regime thresholds, aligned with the split points the paper reports.
pub mod thresholds {
    /// DTLB misses/instruction at the CPU2006 root split (Figure 1).
    pub const DTLB: f64 = 1.9e-4;
    /// L2 misses/instruction at the second CPU2006 split.
    pub const L2: f64 = 4.8e-4;
    /// Load-blocks-by-store-address/instruction (third CPU2006 split).
    pub const LD_BLK_STA: f64 = 4.5e-4;
    /// Mispredicted branches/instruction separating LM7 from LM8.
    pub const MISPR: f64 = 1.9e-4;
    /// Load-blocks-by-overlapping-store at the OMP2001 root split
    /// ("0.74% or more per instruction", Figure 2).
    pub const LD_BLK_OLP: f64 = 7.4e-3;
    /// Stores/instruction separating LM17 from LM18 ("7.7%").
    pub const STORE: f64 = 7.7e-2;
    /// SIMD density separating the scalar and vector OMP subtrees.
    pub const SIMD_LOW: f64 = 0.3;
    /// SIMD density above which CPU2006 samples hit the cactusADM
    /// plateau ("at least 91%").
    pub const SIMD_CACTUS: f64 = 0.91;
    /// SIMD density above which CPU2006 samples hit the lbm regime
    /// ("at least 77%").
    pub const SIMD_LBM: f64 = 0.77;
    /// SIMD density for the CPU2006 LM10 regime.
    pub const SIMD_MID: f64 = 0.5;
    /// DTLB density above which L2-bound CPU2006 samples behave like
    /// 471.omnetpp.
    pub const DTLB_HEAVY: f64 = 8.0e-4;
    /// Split loads/instruction marking the sphinx3 regime.
    pub const SPLIT_LOAD: f64 = 2.0e-3;
    /// Overlap blocks marking the CPU2006 LM14 regime.
    pub const OLP_CPU: f64 = 2.0e-3;
    /// L2 misses/instruction splitting the scalar OMP subtree.
    pub const L2_OMP: f64 = 6.0e-4;
    /// Branch mispredicts splitting the scalar L2-bound OMP subtree.
    pub const MISPR_OMP_HIGH: f64 = 3.0e-3;
    /// Branch mispredicts splitting the scalar L2-light OMP subtree.
    pub const MISPR_OMP_LOW: f64 = 1.0e-3;
    /// Multiplies/instruction splitting the vector OMP subtree.
    pub const MUL_OMP: f64 = 5.0e-2;
    /// Misaligned references marking the OMP LM11 plateau.
    pub const MISALIGN_OMP: f64 = 3.0e-3;
    /// Store-address blocks marking the OMP LM15 regime.
    pub const STA_OMP: f64 = 1.0e-3;
}

/// The ground-truth cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Multiplicative lognormal CPI noise (sigma of the underlying
    /// normal). Default 0.04.
    pub noise_sigma: f64,
    /// Multi-threaded contention scale. 1.0 reproduces the paper's
    /// platform; values above 1.0 model heavier coherence /
    /// store-forwarding pressure (more threads, smaller shared L2),
    /// below 1.0 lighter pressure. Scales only the *store-coupled* cost
    /// terms of the multi-threaded regimes, so single-threaded behavior
    /// is unaffected. Used by the platform-drift ablation.
    pub contention: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            noise_sigma: 0.04,
            contention: 1.0,
        }
    }
}

#[inline]
fn d(densities: &[f64; N_EVENTS], e: EventId) -> f64 {
    densities[e.index()]
}

impl CostModel {
    /// Creates a cost model with the given CPI noise level and the
    /// paper's default contention (1.0).
    pub fn new(noise_sigma: f64) -> Self {
        CostModel {
            noise_sigma,
            contention: 1.0,
        }
    }

    /// Sets the multi-threaded contention scale (builder style).
    #[must_use]
    pub fn with_contention(mut self, contention: f64) -> Self {
        self.contention = contention.max(0.0);
        self
    }

    /// Classifies true densities into their cost regime.
    pub fn regime(&self, x: &[f64; N_EVENTS], env: Environment) -> Regime {
        use thresholds as t;
        match env {
            Environment::SingleThreaded => {
                if d(x, EventId::DtlbMiss) <= t::DTLB {
                    Regime::CpuLm1
                } else if d(x, EventId::SplitLoad) > t::SPLIT_LOAD {
                    Regime::CpuLm18
                } else if d(x, EventId::L2Miss) > t::L2 {
                    if d(x, EventId::Simd) > t::SIMD_CACTUS {
                        Regime::CpuLm11
                    } else if d(x, EventId::Simd) > t::SIMD_LBM {
                        Regime::CpuLm5
                    } else if d(x, EventId::DtlbMiss) > t::DTLB_HEAVY {
                        Regime::CpuLm24
                    } else {
                        Regime::CpuStreaming
                    }
                } else if d(x, EventId::LdBlkStA) > t::LD_BLK_STA {
                    if d(x, EventId::MisprBr) <= t::MISPR {
                        Regime::CpuLm7
                    } else {
                        Regime::CpuLm8
                    }
                } else if d(x, EventId::Simd) > t::SIMD_MID {
                    Regime::CpuLm10
                } else if d(x, EventId::LdBlkOlp) > t::OLP_CPU {
                    Regime::CpuLm14
                } else {
                    Regime::CpuPlateau
                }
            }
            Environment::MultiThreaded => {
                if d(x, EventId::LdBlkOlp) > t::LD_BLK_OLP {
                    if d(x, EventId::Store) <= t::STORE {
                        Regime::OmpLm17
                    } else {
                        Regime::OmpLm18
                    }
                } else if d(x, EventId::Simd) <= t::SIMD_LOW {
                    if d(x, EventId::L2Miss) > t::L2_OMP {
                        if d(x, EventId::MisprBr) > t::MISPR_OMP_HIGH {
                            Regime::OmpLm14
                        } else {
                            Regime::OmpLm6
                        }
                    } else if d(x, EventId::MisprBr) > t::MISPR_OMP_LOW {
                        Regime::OmpLm2
                    } else {
                        Regime::OmpLm3
                    }
                } else if d(x, EventId::Mul) > t::MUL_OMP {
                    Regime::OmpLm16
                } else if d(x, EventId::Misalign) > t::MISALIGN_OMP {
                    Regime::OmpLm11
                } else if d(x, EventId::LdBlkStA) > t::STA_OMP {
                    Regime::OmpLm15
                } else {
                    Regime::OmpLm13
                }
            }
        }
    }

    /// The deterministic ground-truth CPI for true densities `x` in the
    /// given environment.
    pub fn true_cpi(&self, x: &[f64; N_EVENTS], env: Environment) -> f64 {
        use EventId::*;
        let cpi = match self.regime(x, env) {
            // Paper Equation 1 (LM1), verbatim.
            Regime::CpuLm1 => {
                0.53 + 4.73 * d(x, L1DMiss)
                    + 7.71 * d(x, Div)
                    + 63.0 * d(x, L2Miss)
                    + 0.254 * d(x, Mul)
                    + 7.88 * d(x, Misalign)
                    + 17.5 * d(x, MisprBr)
                    + 4.37 * d(x, LdBlkStd)
                    + 15.7 * d(x, PageWalk)
                    + 0.046 * d(x, Simd)
                    + 503.0 * d(x, DtlbMiss)
                    + 6.42 * d(x, L1IMiss)
                    + 3.22 * d(x, LdBlkStA)
                    + 2.98 * d(x, LdBlkOlp)
                    + 0.128 * d(x, Load)
                    - 0.198 * d(x, Store)
                    - 0.251 * d(x, Br)
            }
            // Paper LM18 of Figure 1 (split-load regime), verbatim.
            Regime::CpuLm18 => {
                0.98 + 16.47 * d(x, L1DMiss) + 56.15 * d(x, DtlbMiss) + 6.80 * d(x, LdBlkStA)
            }
            // cactusADM plateau: "at least 91% SIMD ... CPI of 1.2".
            Regime::CpuLm11 => 1.2,
            // lbm regime: SIMD-heavy with overlapped-store blocks,
            // avg CPI 1.6.
            Regime::CpuLm5 => {
                1.05 + 0.30 * d(x, Simd) + 20.0 * d(x, LdBlkOlp) + 250.0 * d(x, L2Miss)
            }
            // omnetpp regime: DTLB + L2 + overlap + branches, CPI ~2.1.
            Regime::CpuLm24 => {
                0.90 + 650.0 * d(x, L2Miss)
                    + 300.0 * d(x, DtlbMiss)
                    + 8.0 * d(x, LdBlkOlp)
                    + 1.5 * d(x, Br)
            }
            // Streaming plateau ("the model for LM2 is simply CPI=1.44").
            Regime::CpuStreaming => 1.44,
            // Paper LM7, verbatim.
            Regime::CpuLm7 => {
                0.24 + 1172.0 * d(x, L2Miss)
                    + 2.72 * d(x, Store)
                    + 17.82 * d(x, DtlbMiss)
                    + 24.18 * d(x, L1IMiss)
                    + 2.37 * d(x, LdBlkOlp)
                    + 101.67 * d(x, SplitStore)
                    + 0.26 * d(x, Simd)
            }
            // Paper LM8, verbatim.
            Regime::CpuLm8 => {
                0.61 - 7.99 * d(x, Div) - 0.23 * d(x, Mul)
                    + 13.85 * d(x, MisprBr)
                    + 17.44 * d(x, DtlbMiss)
                    + 15.20 * d(x, L1IMiss)
                    + 1.44 * d(x, LdBlkStd)
                    + 11.35 * d(x, PageWalk)
                    + 0.16 * d(x, Simd)
            }
            // Paper LM10, verbatim.
            Regime::CpuLm10 => 1.74 - 0.56 * d(x, Simd),
            // Paper LM14, verbatim.
            Regime::CpuLm14 => 1.21 - 1.15 * d(x, Load) + 24.11 * d(x, LdBlkOlp),
            Regime::CpuPlateau => 1.18,
            // Paper Equation 5 (LM17); verbatim at contention = 1.0.
            // The store-coupled terms (load blocks, page walks while
            // stores stall) scale with cross-thread contention.
            Regime::OmpLm17 => {
                let k = self.contention;
                0.80 + 39.1 * d(x, L1DMiss) - 0.281 * d(x, Mul) - 0.941 * d(x, Br)
                    + 9.1 * k * d(x, LdBlkStA)
                    + 5.6 * k * d(x, LdBlkOlp)
                    + 34.6 * k * d(x, PageWalk)
                    + 0.129 * d(x, Simd)
            }
            // Paper Equation 6 (LM18); verbatim at contention = 1.0.
            Regime::OmpLm18 => {
                let k = self.contention;
                0.95 - 4.7 * d(x, Div)
                    + 2.08 * k * d(x, Store)
                    + 53.0 * k * d(x, PageWalk)
                    + 0.427 * d(x, Simd)
            }
            // equake-style branchy L2-bound scalar regime (CPI ~1.37).
            Regime::OmpLm14 => 1.15 + 25.0 * d(x, L1DMiss) + 14.0 * d(x, MisprBr),
            // Paper LM6, verbatim.
            Regime::OmpLm6 => 0.75 + 16.28 * d(x, L1DMiss) + 123.60 * d(x, Misalign),
            // Paper LM2, verbatim.
            Regime::OmpLm2 => 0.39 + 3.95 * d(x, Store),
            // Paper LM3 ("the model is simply CPI = 0.53").
            Regime::OmpLm3 => 0.53,
            // Paper LM16, verbatim (avg CPI 2.50 at high SIMD density).
            Regime::OmpLm16 => 0.65 + 9.51 * d(x, L1DMiss) - 1.11 * d(x, Br) + 1.98 * d(x, Simd),
            // Paper LM11 plateau (avg CPI 2.79; misaligned SIMD).
            Regime::OmpLm11 => 2.79,
            // Paper LM15, verbatim.
            Regime::OmpLm15 => 0.79 + 23.17 * d(x, LdBlkStA) + 7.28 * d(x, PageWalk),
            // Remaining vector code (swim/mgrid-style).
            Regime::OmpLm13 => 0.90 + 0.50 * d(x, Simd),
        };
        cpi.max(0.15)
    }

    /// The ground-truth CPI with multiplicative measurement/modeling
    /// noise applied.
    pub fn noisy_cpi<R: Rng + ?Sized>(
        &self,
        x: &[f64; N_EVENTS],
        env: Environment,
        rng: &mut R,
    ) -> f64 {
        let base = self.true_cpi(x, env);
        let factor = (self.noise_sigma * mathkit::sampling::standard_normal(rng)).exp();
        (base * factor).max(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base_densities() -> [f64; N_EVENTS] {
        let mut x = [0.0; N_EVENTS];
        x[EventId::Load.index()] = 0.28;
        x[EventId::Store.index()] = 0.10;
        x[EventId::Br.index()] = 0.18;
        x[EventId::MisprBr.index()] = 8e-4;
        x[EventId::L1DMiss.index()] = 8e-3;
        x[EventId::L2Miss.index()] = 1.5e-4;
        x[EventId::DtlbMiss.index()] = 6e-5;
        x
    }

    #[test]
    fn low_dtlb_is_lm1() {
        let cm = CostModel::default();
        let x = base_densities();
        assert_eq!(cm.regime(&x, Environment::SingleThreaded), Regime::CpuLm1);
        let cpi = cm.true_cpi(&x, Environment::SingleThreaded);
        // Paper: LM1 average CPI is 0.6.
        assert!((0.4..0.8).contains(&cpi), "cpi {cpi}");
    }

    #[test]
    fn lm1_uses_equation_one_coefficients() {
        let cm = CostModel::default();
        let mut x = base_densities();
        let before = cm.true_cpi(&x, Environment::SingleThreaded);
        x[EventId::L2Miss.index()] += 1e-4;
        let after = cm.true_cpi(&x, Environment::SingleThreaded);
        // Slope of 63 cycles per L2 miss in LM1.
        assert!(((after - before) / 1e-4 - 63.0).abs() < 1e-6);
    }

    #[test]
    fn dtlb_pressure_with_sta_blocks_selects_lm7_or_lm8() {
        let cm = CostModel::default();
        let mut x = base_densities();
        x[EventId::DtlbMiss.index()] = 5e-4;
        x[EventId::LdBlkStA.index()] = 9e-4;
        x[EventId::MisprBr.index()] = 1e-4;
        assert_eq!(cm.regime(&x, Environment::SingleThreaded), Regime::CpuLm7);
        x[EventId::MisprBr.index()] = 3e-3;
        assert_eq!(cm.regime(&x, Environment::SingleThreaded), Regime::CpuLm8);
    }

    #[test]
    fn split_loads_select_sphinx_regime() {
        let cm = CostModel::default();
        let mut x = base_densities();
        x[EventId::DtlbMiss.index()] = 4e-4;
        x[EventId::SplitLoad.index()] = 6e-3;
        assert_eq!(cm.regime(&x, Environment::SingleThreaded), Regime::CpuLm18);
        // Paper: LM18 has "a CPI of 1.2, 20% above the suite average".
        let cpi = cm.true_cpi(&x, Environment::SingleThreaded);
        assert!((1.0..1.5).contains(&cpi), "cpi {cpi}");
    }

    #[test]
    fn simd_plateaus_for_cactus_and_lbm() {
        let cm = CostModel::default();
        let mut x = base_densities();
        x[EventId::DtlbMiss.index()] = 3e-4;
        x[EventId::L2Miss.index()] = 7e-4;
        x[EventId::Simd.index()] = 0.93;
        assert_eq!(cm.regime(&x, Environment::SingleThreaded), Regime::CpuLm11);
        assert_eq!(cm.true_cpi(&x, Environment::SingleThreaded), 1.2);
        x[EventId::Simd.index()] = 0.82;
        x[EventId::LdBlkOlp.index()] = 6e-3;
        assert_eq!(cm.regime(&x, Environment::SingleThreaded), Regime::CpuLm5);
        let cpi = cm.true_cpi(&x, Environment::SingleThreaded);
        assert!((1.3..1.9).contains(&cpi), "lbm cpi {cpi}");
    }

    #[test]
    fn omnetpp_regime_has_high_cpi() {
        let cm = CostModel::default();
        let mut x = base_densities();
        x[EventId::DtlbMiss.index()] = 1.3e-3;
        x[EventId::L2Miss.index()] = 1.2e-3;
        x[EventId::LdBlkOlp.index()] = 2e-3;
        x[EventId::Br.index()] = 0.22;
        assert_eq!(cm.regime(&x, Environment::SingleThreaded), Regime::CpuLm24);
        let cpi = cm.true_cpi(&x, Environment::SingleThreaded);
        assert!((1.8..2.6).contains(&cpi), "omnetpp cpi {cpi}");
    }

    #[test]
    fn omp_root_regimes_follow_overlap_and_stores() {
        let cm = CostModel::default();
        let mut x = base_densities();
        x[EventId::LdBlkOlp.index()] = 1.2e-2;
        x[EventId::Store.index()] = 0.05;
        assert_eq!(cm.regime(&x, Environment::MultiThreaded), Regime::OmpLm17);
        x[EventId::Store.index()] = 0.12;
        assert_eq!(cm.regime(&x, Environment::MultiThreaded), Regime::OmpLm18);
    }

    #[test]
    fn omp_lm18_cpi_matches_paper_band() {
        let cm = CostModel::default();
        let mut x = base_densities();
        x[EventId::LdBlkOlp.index()] = 1.5e-2;
        x[EventId::Store.index()] = 0.11;
        x[EventId::PageWalk.index()] = 5e-3;
        // Paper: "The average CPI for this class is a moderately high
        // 1.49".
        let cpi = cm.true_cpi(&x, Environment::MultiThreaded);
        assert!((1.3..1.7).contains(&cpi), "lm18 cpi {cpi}");
    }

    #[test]
    fn omp_lm16_reaches_high_cpi() {
        let cm = CostModel::default();
        let mut x = base_densities();
        x[EventId::Simd.index()] = 0.88;
        x[EventId::Mul.index()] = 0.12;
        x[EventId::L1DMiss.index()] = 0.035;
        assert_eq!(cm.regime(&x, Environment::MultiThreaded), Regime::OmpLm16);
        // Paper: "The average CPI for LM16 is 2.50".
        let cpi = cm.true_cpi(&x, Environment::MultiThreaded);
        assert!((2.1..2.9).contains(&cpi), "lm16 cpi {cpi}");
    }

    #[test]
    fn environment_changes_cpi_for_same_densities() {
        // The same counter-visible densities yield different CPIs in the
        // two environments: the latent contention term the paper's
        // transferability analysis hinges on.
        let cm = CostModel::default();
        let mut x = base_densities();
        x[EventId::LdBlkOlp.index()] = 1.2e-2;
        x[EventId::Store.index()] = 0.12;
        x[EventId::PageWalk.index()] = 5e-3;
        x[EventId::DtlbMiss.index()] = 1e-4; // low: CPU regime = LM1
        let cpu = cm.true_cpi(&x, Environment::SingleThreaded);
        let omp = cm.true_cpi(&x, Environment::MultiThreaded);
        assert!(
            (cpu - omp).abs() > 0.3,
            "environments indistinguishable: {cpu} vs {omp}"
        );
    }

    #[test]
    fn every_regime_is_reachable() {
        use std::collections::HashSet;
        let cm = CostModel::default();
        let mut seen = HashSet::new();
        // Scan a coarse grid over the discriminating events.
        let dtlbs = [5e-5, 5e-4, 1.5e-3];
        let l2s = [1e-4, 8e-4];
        let stas = [1e-4, 2e-3];
        let misprs = [5e-5, 2e-3, 5e-3];
        let simds = [0.02, 0.4, 0.6, 0.85, 0.95];
        let olps = [1e-4, 3e-3, 1.5e-2];
        let stores = [0.05, 0.12];
        let muls = [0.01, 0.1];
        let misaligns = [1e-4, 5e-3];
        let splits = [1e-4, 6e-3];
        for &dtlb in &dtlbs {
            for &l2 in &l2s {
                for &sta in &stas {
                    for &mispr in &misprs {
                        for &simd in &simds {
                            for &olp in &olps {
                                for &store in &stores {
                                    for &mul in &muls {
                                        for &mis in &misaligns {
                                            for &spl in &splits {
                                                let mut x = base_densities();
                                                x[EventId::DtlbMiss.index()] = dtlb;
                                                x[EventId::L2Miss.index()] = l2;
                                                x[EventId::LdBlkStA.index()] = sta;
                                                x[EventId::MisprBr.index()] = mispr;
                                                x[EventId::Simd.index()] = simd;
                                                x[EventId::LdBlkOlp.index()] = olp;
                                                x[EventId::Store.index()] = store;
                                                x[EventId::Mul.index()] = mul;
                                                x[EventId::Misalign.index()] = mis;
                                                x[EventId::SplitLoad.index()] = spl;
                                                for env in [
                                                    Environment::SingleThreaded,
                                                    Environment::MultiThreaded,
                                                ] {
                                                    seen.insert(cm.regime(&x, env));
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), 21, "unreached regimes: {:?}", seen);
    }

    #[test]
    fn cpi_always_positive() {
        let cm = CostModel::default();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..2000 {
            let mut x = [0.0; N_EVENTS];
            for v in x.iter_mut() {
                *v = rand::Rng::gen::<f64>(&mut rng) * 0.5;
            }
            for env in [Environment::SingleThreaded, Environment::MultiThreaded] {
                assert!(cm.true_cpi(&x, env) > 0.0);
                assert!(cm.noisy_cpi(&x, env, &mut rng) > 0.0);
            }
        }
    }

    #[test]
    fn noise_is_multiplicative_and_centered() {
        let cm = CostModel::new(0.05);
        let x = base_densities();
        let truth = cm.true_cpi(&x, Environment::SingleThreaded);
        let mut rng = StdRng::seed_from_u64(10);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| cm.noisy_cpi(&x, Environment::SingleThreaded, &mut rng))
            .sum::<f64>()
            / n as f64;
        // Lognormal mean = truth * exp(sigma^2/2) ~ truth * 1.00125.
        assert!(
            (mean / truth - 1.0).abs() < 0.01,
            "mean ratio {}",
            mean / truth
        );
    }

    #[test]
    fn contention_scales_only_multithreaded_store_costs() {
        let base = CostModel::default();
        let heavy = CostModel::default().with_contention(2.0);
        let mut x = base_densities();
        x[EventId::LdBlkOlp.index()] = 1.5e-2;
        x[EventId::Store.index()] = 0.11;
        x[EventId::PageWalk.index()] = 5e-3;
        // Multi-threaded CPI rises with contention.
        let c1 = base.true_cpi(&x, Environment::MultiThreaded);
        let c2 = heavy.true_cpi(&x, Environment::MultiThreaded);
        assert!(c2 > c1 + 0.2, "contention had no effect: {c1} vs {c2}");
        // Single-threaded CPI is untouched.
        x[EventId::DtlbMiss.index()] = 1e-4;
        assert_eq!(
            base.true_cpi(&x, Environment::SingleThreaded),
            heavy.true_cpi(&x, Environment::SingleThreaded)
        );
    }

    #[test]
    fn contention_one_is_identity() {
        let a = CostModel::default();
        let b = CostModel::default().with_contention(1.0);
        let x = base_densities();
        for env in [Environment::SingleThreaded, Environment::MultiThreaded] {
            assert_eq!(a.true_cpi(&x, env), b.true_cpi(&x, env));
        }
    }

    #[test]
    fn regime_is_multithreaded_flag() {
        assert!(Regime::OmpLm17.is_multithreaded());
        assert!(!Regime::CpuLm1.is_multithreaded());
    }
}
