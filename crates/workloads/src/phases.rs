//! Phase-based benchmark models.
//!
//! A benchmark is a weighted mixture of execution *phases*; each phase is
//! a joint distribution over the 19 Table I event densities (independent
//! truncated normals around phase-specific means). This mirrors how real
//! SPEC workloads traverse distinct program phases with characteristic
//! counter signatures — the phenomenon that makes interval sampling and
//! per-leaf behavior classes meaningful in the first place.

use mathkit::sampling::{truncated_normal, weighted_index};
use perfcounters::events::{EventId, N_EVENTS};
use rand::Rng;

/// Distribution of one event's per-instruction density within a phase:
/// a truncated normal with the given mean and coefficient of variation,
/// clamped to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensitySpec {
    /// Mean per-instruction density.
    pub mean: f64,
    /// Coefficient of variation (sd / mean).
    pub cv: f64,
}

impl DensitySpec {
    /// Creates a spec; negative means are clamped to zero.
    pub fn new(mean: f64, cv: f64) -> Self {
        DensitySpec {
            mean: mean.max(0.0),
            cv: cv.max(0.0),
        }
    }

    /// Draws one density.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.mean == 0.0 {
            return 0.0;
        }
        truncated_normal(rng, self.mean, self.cv * self.mean, 0.0, 1.0)
    }
}

/// One execution phase: a name, a weight (share of the benchmark's
/// intervals), and a density spec per event.
///
/// # Examples
///
/// ```
/// use perfcounters::EventId;
/// use workloads::Phase;
///
/// let phase = Phase::new("tlb-walk", 0.4)
///     .with(EventId::DtlbMiss, 5e-4, 0.3)
///     .with(EventId::LdBlkStA, 9e-4, 0.3);
/// assert_eq!(phase.weight(), 0.4);
/// ```
/// How one event's density is drawn within a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventSpec {
    /// Independent truncated normal.
    Independent(DensitySpec),
    /// Proportional to another (independent) event's drawn value:
    /// `density = ratio * source_density * noise`, with a truncated-normal
    /// noise factor of mean 1 and the given coefficient of variation.
    /// Used for physically coupled events — e.g. page walks occur while
    /// resolving DTLB misses, so `PageWalk ≈ ratio · DtlbMiss`.
    Linked {
        /// The independent event this one follows.
        source: EventId,
        /// Mean ratio of this event's density to the source's.
        ratio: f64,
        /// Coefficient of variation of the multiplicative noise.
        cv: f64,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    name: String,
    weight: f64,
    specs: Vec<EventSpec>,
}

impl Phase {
    /// Creates a phase with "quiet workload" default densities: a
    /// realistic scalar instruction mix, warm caches, and negligible rare
    /// events. Defaults place single-threaded samples in the paper's LM1
    /// regime and multi-threaded samples in the low-CPI scalar regime.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not positive and finite.
    pub fn new(name: &str, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "phase weight must be positive, got {weight}"
        );
        let mut specs = vec![EventSpec::Independent(DensitySpec::new(0.0, 0.0)); N_EVENTS];
        let defaults: [(EventId, f64, f64); 18] = [
            (EventId::Load, 0.28, 0.12),
            (EventId::Store, 0.10, 0.18),
            (EventId::MisprBr, 8e-4, 0.45),
            (EventId::Br, 0.18, 0.15),
            (EventId::L1DMiss, 8e-3, 0.35),
            (EventId::L1IMiss, 5e-4, 0.5),
            (EventId::L2Miss, 1.5e-4, 0.5),
            (EventId::DtlbMiss, 6e-5, 0.5),
            (EventId::LdBlkStA, 1.5e-4, 0.5),
            (EventId::LdBlkStd, 1.0e-4, 0.5),
            (EventId::LdBlkOlp, 3.0e-4, 0.6),
            (EventId::SplitLoad, 2.0e-4, 0.7),
            (EventId::SplitStore, 1.0e-4, 0.7),
            (EventId::Misalign, 2.0e-4, 0.7),
            (EventId::Div, 1.0e-3, 0.5),
            (EventId::Mul, 1.0e-2, 0.5),
            (EventId::FpAsst, 1.0e-6, 1.0),
            (EventId::Simd, 2.0e-2, 0.7),
        ];
        for (e, mean, cv) in defaults {
            specs[e.index()] = EventSpec::Independent(DensitySpec::new(mean, cv));
        }
        // Page walks occur while resolving DTLB misses: by default they
        // track the DTLB miss density.
        specs[EventId::PageWalk.index()] = EventSpec::Linked {
            source: EventId::DtlbMiss,
            ratio: 0.95,
            cv: 0.15,
        };
        Phase {
            name: name.to_owned(),
            weight,
            specs,
        }
    }

    /// Overrides one event's density distribution (builder style).
    #[must_use]
    pub fn with(mut self, event: EventId, mean: f64, cv: f64) -> Self {
        self.specs[event.index()] = EventSpec::Independent(DensitySpec::new(mean, cv));
        self
    }

    /// Scales the mean densities of the given (independent) events by
    /// `factor`, leaving their coefficients of variation unchanged.
    /// Linked events follow their sources automatically. Used to model
    /// smaller input sets (lower memory pressure) without redefining
    /// phases.
    #[must_use]
    pub fn with_scaled(mut self, events: &[EventId], factor: f64) -> Self {
        let factor = factor.max(0.0);
        for e in events {
            if let EventSpec::Independent(spec) = self.specs[e.index()] {
                self.specs[e.index()] =
                    EventSpec::Independent(DensitySpec::new(spec.mean * factor, spec.cv));
            }
        }
        self
    }

    /// Makes `event` proportional to `source`'s drawn value:
    /// `density = ratio * source * noise(1, cv)` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `source` is itself linked (chains are not supported) or
    /// if `event == source`.
    #[must_use]
    pub fn with_linked(mut self, event: EventId, source: EventId, ratio: f64, cv: f64) -> Self {
        assert_ne!(event, source, "an event cannot be linked to itself");
        assert!(
            matches!(self.specs[source.index()], EventSpec::Independent(_)),
            "link source {} must be an independent event",
            source.short_name()
        );
        self.specs[event.index()] = EventSpec::Linked {
            source,
            ratio: ratio.max(0.0),
            cv: cv.max(0.0),
        };
        self
    }

    /// Phase name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mixture weight (share of the benchmark's intervals).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The spec for one event.
    pub fn spec(&self, event: EventId) -> EventSpec {
        self.specs[event.index()]
    }

    /// The *effective* mean density of one event (for linked events, the
    /// ratio times the source's mean).
    pub fn mean_density(&self, event: EventId) -> f64 {
        match self.specs[event.index()] {
            EventSpec::Independent(spec) => spec.mean,
            EventSpec::Linked { source, ratio, .. } => match self.specs[source.index()] {
                EventSpec::Independent(spec) => ratio * spec.mean,
                EventSpec::Linked { .. } => 0.0, // unreachable by construction
            },
        }
    }

    /// Draws a full true-density vector for one interval: independent
    /// events first, then linked events from their sources' drawn values.
    pub fn sample_densities<R: Rng + ?Sized>(&self, rng: &mut R) -> [f64; N_EVENTS] {
        let mut out = [0.0; N_EVENTS];
        for (slot, spec) in out.iter_mut().zip(&self.specs) {
            if let EventSpec::Independent(d) = spec {
                *slot = d.sample(rng);
            }
        }
        for i in 0..N_EVENTS {
            if let EventSpec::Linked { source, ratio, cv } = self.specs[i] {
                let factor = truncated_normal(rng, 1.0, cv, 0.0, 3.0);
                out[i] = (ratio * out[source.index()] * factor).clamp(0.0, 1.0);
            }
        }
        out
    }
}

/// A benchmark: a name, an instruction-count weight (its share of the
/// suite's total instructions, hence of the suite's samples), and its
/// phase mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkModel {
    name: String,
    weight: f64,
    phases: Vec<Phase>,
}

impl BenchmarkModel {
    /// Creates an empty benchmark model.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not positive and finite.
    pub fn new(name: &str, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "benchmark weight must be positive, got {weight}"
        );
        BenchmarkModel {
            name: name.to_owned(),
            weight,
            phases: Vec::new(),
        }
    }

    /// Adds a phase (builder style).
    #[must_use]
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Benchmark name (e.g. `"429.mcf"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instruction-count weight within its suite.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The phase list.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Picks a phase according to the mixture weights.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark has no phases.
    pub fn pick_phase<R: Rng + ?Sized>(&self, rng: &mut R) -> &Phase {
        assert!(
            !self.phases.is_empty(),
            "benchmark {} has no phases",
            self.name
        );
        &self.phases[weighted_index(rng, self.phases.iter().map(Phase::weight))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn defaults_are_quiet() {
        let p = Phase::new("base", 1.0);
        assert!(p.mean_density(EventId::DtlbMiss) < 1e-4);
        assert!(p.mean_density(EventId::Load) > 0.1);
    }

    #[test]
    fn with_overrides_single_event() {
        let p = Phase::new("x", 1.0).with(EventId::Simd, 0.8, 0.1);
        assert_eq!(p.mean_density(EventId::Simd), 0.8);
        assert!(p.mean_density(EventId::Load) > 0.1); // untouched default
    }

    #[test]
    fn sampled_densities_in_unit_interval() {
        let p = Phase::new("x", 1.0).with(EventId::Simd, 0.95, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let d = p.sample_densities(&mut rng);
            assert!(d.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn sampled_mean_tracks_spec() {
        let p = Phase::new("x", 1.0).with(EventId::L2Miss, 5e-4, 0.2);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 5000;
        let mean: f64 = (0..n)
            .map(|_| p.sample_densities(&mut rng)[EventId::L2Miss.index()])
            .sum::<f64>()
            / n as f64;
        assert!((mean - 5e-4).abs() / 5e-4 < 0.05, "mean {mean}");
    }

    #[test]
    fn zero_mean_samples_exactly_zero() {
        let p = Phase::new("x", 1.0).with(EventId::FpAsst, 0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(p.sample_densities(&mut rng)[EventId::FpAsst.index()], 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn phase_rejects_bad_weight() {
        let _ = Phase::new("x", 0.0);
    }

    #[test]
    fn pick_phase_follows_weights() {
        let b = BenchmarkModel::new("b", 1.0)
            .phase(Phase::new("a", 0.9))
            .phase(Phase::new("b", 0.1));
        let mut rng = StdRng::seed_from_u64(4);
        let mut a_count = 0;
        for _ in 0..5000 {
            if b.pick_phase(&mut rng).name() == "a" {
                a_count += 1;
            }
        }
        let share = a_count as f64 / 5000.0;
        assert!((share - 0.9).abs() < 0.03, "share {share}");
    }

    #[test]
    #[should_panic(expected = "no phases")]
    fn pick_phase_requires_phases() {
        let b = BenchmarkModel::new("empty", 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = b.pick_phase(&mut rng);
    }

    #[test]
    fn density_spec_clamps_negative_mean() {
        let s = DensitySpec::new(-1.0, 0.5);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn linked_event_tracks_source() {
        let p = Phase::new("x", 1.0)
            .with(EventId::DtlbMiss, 5e-4, 0.3)
            .with_linked(EventId::PageWalk, EventId::DtlbMiss, 0.9, 0.1);
        assert!((p.mean_density(EventId::PageWalk) - 4.5e-4).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(6);
        // Correlation between the pair should be very high.
        let n = 3000;
        let mut dtlb = Vec::with_capacity(n);
        let mut pw = Vec::with_capacity(n);
        for _ in 0..n {
            let d = p.sample_densities(&mut rng);
            dtlb.push(d[EventId::DtlbMiss.index()]);
            pw.push(d[EventId::PageWalk.index()]);
        }
        let c = mathkit::describe::correlation(&dtlb, &pw).unwrap();
        assert!(c > 0.9, "correlation {c}");
        let mean_pw: f64 = pw.iter().sum::<f64>() / n as f64;
        assert!((mean_pw / 4.5e-4 - 1.0).abs() < 0.05, "mean {mean_pw}");
    }

    #[test]
    #[should_panic(expected = "independent")]
    fn chained_links_rejected() {
        let _ = Phase::new("x", 1.0)
            .with(EventId::DtlbMiss, 5e-4, 0.3)
            .with_linked(EventId::PageWalk, EventId::DtlbMiss, 0.9, 0.1)
            .with_linked(EventId::FpAsst, EventId::PageWalk, 0.5, 0.1);
    }

    #[test]
    #[should_panic(expected = "linked to itself")]
    fn self_link_rejected() {
        let _ = Phase::new("x", 1.0).with_linked(EventId::Div, EventId::Div, 1.0, 0.1);
    }
}
