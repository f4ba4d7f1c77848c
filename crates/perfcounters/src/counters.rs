//! The counter-multiplexing simulator.
//!
//! The measured machine has five hardware counters: three fixed ones
//! dedicated to `CPU_CLK_UNHALTED.CORE`, `INST_RETIRED.ANY` and
//! `CPU_CLK_UNHALTED.REF`, and two programmable counters that are
//! round-robin multiplexed over the 19 Table I events within each
//! 2-million-instruction interval. Each event is therefore *observed* for
//! only `2 / 19` of the interval and its count extrapolated to the full
//! interval — which is exactly the sampling noise this module simulates.
//!
//! CPI itself comes from the fixed counters, so it is measured over the
//! full interval without multiplexing error.

use crate::events::{INTERVAL_INSTRUCTIONS, N_EVENTS, N_PROGRAMMABLE_COUNTERS};
use crate::sample::Sample;
use mathkit::sampling::standard_normal;
use rand::Rng;

/// Configuration of the simulated counter bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterConfig {
    /// Instructions per observation interval (sample width). The paper
    /// uses 2 million.
    pub interval_instructions: u64,
    /// Number of programmable counters shared by the multiplexed events.
    pub programmable_counters: usize,
    /// If false, the bank reports true densities exactly (an "oracle" PMU
    /// useful for testing and ablation).
    pub multiplexing_noise: bool,
}

impl Default for CounterConfig {
    fn default() -> Self {
        CounterConfig {
            interval_instructions: INTERVAL_INSTRUCTIONS,
            programmable_counters: N_PROGRAMMABLE_COUNTERS,
            multiplexing_noise: true,
        }
    }
}

/// A simulated five-counter PMU.
///
/// # Examples
///
/// ```
/// use perfcounters::{CounterBank, EventId, Sample};
/// use rand::SeedableRng;
///
/// let bank = CounterBank::new(Default::default());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let mut truth = Sample::zeros(1.0);
/// truth.set(EventId::Load, 0.3);
/// let measured = bank.measure(&truth, &mut rng);
/// // The measured density is near, but generally not equal to, the truth.
/// assert!((measured.get(EventId::Load) - 0.3).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CounterBank {
    config: CounterConfig,
}

impl CounterBank {
    /// Creates a counter bank with the given configuration.
    pub fn new(config: CounterConfig) -> Self {
        CounterBank { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CounterConfig {
        &self.config
    }

    /// Instructions over which each multiplexed event is actually
    /// observed within one interval.
    pub fn observation_window(&self) -> u64 {
        let slots = self.rotation_slots();
        (self.config.interval_instructions / slots as u64).max(1)
    }

    /// Number of round-robin rotation slots needed to cover all events
    /// with the available programmable counters.
    pub fn rotation_slots(&self) -> usize {
        N_EVENTS.div_ceil(self.config.programmable_counters.max(1))
    }

    /// Measures one interval: given the *true* per-instruction densities,
    /// produces the densities the multiplexed PMU would report, and
    /// counts the interval in the PMU metrics. CPI passes through
    /// unchanged (fixed counters).
    pub fn measure<R: Rng + ?Sized>(&self, truth: &Sample, rng: &mut R) -> Sample {
        self.count_intervals(1);
        let mut measured = truth.clone();
        self.measure_densities(measured.densities_mut(), rng);
        measured
    }

    /// Measures one interval in place: `densities` holds the true
    /// per-instruction densities on entry and the measured ones on
    /// return.
    ///
    /// Each event's observed count over its sub-window is modeled as a
    /// binomial draw (normal approximation), then extrapolated to the
    /// full interval. Records no metrics, so a generator can count a
    /// whole block of intervals with one
    /// [`count_intervals`](CounterBank::count_intervals).
    pub fn measure_densities<R: Rng + ?Sized>(&self, densities: &mut [f64; N_EVENTS], rng: &mut R) {
        if !self.config.multiplexing_noise {
            return;
        }
        let window = self.observation_window() as f64;
        for d in densities.iter_mut() {
            let p = d.max(0.0);
            // Normal approximation to Binomial(window, p); for the rare
            // events here p is tiny so the variance is ~window * p.
            let expectation = window * p;
            let sd = (window * p * (1.0 - p.min(1.0))).max(0.0).sqrt();
            let count = (expectation + sd * standard_normal(rng)).max(0.0);
            *d = count / window;
        }
    }

    /// Counts `n` measured intervals in the PMU metrics: `pmu.intervals`,
    /// and `pmu.rotations` (one per rotation slot) when multiplexing.
    pub fn count_intervals(&self, n: u64) {
        obskit::metrics::add(obskit::metrics::Metric::PmuIntervals, n);
        if self.config.multiplexing_noise {
            obskit::metrics::add(
                obskit::metrics::Metric::PmuRotations,
                n * self.rotation_slots() as u64,
            );
        }
    }

    /// Measures a batch of true samples, returning the measured samples in
    /// the same order.
    pub fn measure_all<R: Rng + ?Sized>(&self, truths: &[Sample], rng: &mut R) -> Vec<Sample> {
        truths.iter().map(|t| self.measure(t, rng)).collect()
    }

    /// The relative standard error of a measured density for an event with
    /// true per-instruction density `p` — useful for sizing expected
    /// multiplexing noise in tests and documentation.
    pub fn relative_std_err(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        let window = self.observation_window() as f64;
        ((1.0 - p.min(1.0)) / (window * p)).sqrt()
    }
}

impl Default for CounterBank {
    fn default() -> Self {
        CounterBank::new(CounterConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rotation_slots_cover_all_events() {
        let bank = CounterBank::default();
        assert_eq!(bank.rotation_slots(), 10); // ceil(19 / 2)
        assert!(bank.observation_window() >= 1);
        assert_eq!(bank.observation_window(), 2_000_000 / 10);
    }

    #[test]
    fn oracle_mode_is_exact() {
        let bank = CounterBank::new(CounterConfig {
            multiplexing_noise: false,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let mut truth = Sample::zeros(1.3);
        truth.set(EventId::L2Miss, 4.2e-4);
        let m = bank.measure(&truth, &mut rng);
        assert_eq!(m, truth);
    }

    #[test]
    fn cpi_passes_through_unchanged() {
        let bank = CounterBank::default();
        let mut rng = StdRng::seed_from_u64(1);
        let truth = Sample::zeros(1.7);
        assert_eq!(bank.measure(&truth, &mut rng).cpi(), 1.7);
    }

    #[test]
    fn measurement_is_unbiased() {
        let bank = CounterBank::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut truth = Sample::zeros(1.0);
        truth.set(EventId::DtlbMiss, 2e-4);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| bank.measure(&truth, &mut rng).get(EventId::DtlbMiss))
            .sum::<f64>()
            / n as f64;
        let rel_err = (mean - 2e-4).abs() / 2e-4;
        assert!(rel_err < 0.01, "relative bias {rel_err}");
    }

    #[test]
    fn noise_scale_matches_prediction() {
        let bank = CounterBank::default();
        let mut rng = StdRng::seed_from_u64(3);
        let p = 1e-4;
        let mut truth = Sample::zeros(1.0);
        truth.set(EventId::L2Miss, p);
        let n = 10_000;
        let xs: Vec<f64> = (0..n)
            .map(|_| bank.measure(&truth, &mut rng).get(EventId::L2Miss))
            .collect();
        let sd = mathkit::describe::std_dev(&xs).unwrap();
        let predicted = bank.relative_std_err(p) * p;
        assert!(
            (sd - predicted).abs() / predicted < 0.1,
            "sd {sd} vs predicted {predicted}"
        );
    }

    #[test]
    fn measured_densities_nonnegative() {
        let bank = CounterBank::default();
        let mut rng = StdRng::seed_from_u64(4);
        // Density so small the normal approximation would often dip
        // negative without clamping.
        let mut truth = Sample::zeros(1.0);
        truth.set(EventId::FpAsst, 1e-9);
        for _ in 0..1000 {
            let m = bank.measure(&truth, &mut rng);
            assert!(m.get(EventId::FpAsst) >= 0.0);
        }
    }

    #[test]
    fn measure_all_preserves_order_and_len() {
        let bank = CounterBank::default();
        let mut rng = StdRng::seed_from_u64(5);
        let truths: Vec<Sample> = (0..7).map(|i| Sample::zeros(i as f64)).collect();
        let measured = bank.measure_all(&truths, &mut rng);
        assert_eq!(measured.len(), 7);
        for (i, m) in measured.iter().enumerate() {
            assert_eq!(m.cpi(), i as f64);
        }
    }

    #[test]
    fn degenerate_configs_never_panic() {
        // Zero-interval and zero-counter configurations come straight
        // out of fuzzing the streaming generator's config surface; the
        // bank must clamp, not divide by zero.
        let mut rng = StdRng::seed_from_u64(6);
        let mut truth = Sample::zeros(1.1);
        truth.set(EventId::Load, 0.3);
        for (interval, counters) in [(0u64, 0usize), (0, 2), (2_000_000, 0), (1, 1)] {
            let bank = CounterBank::new(CounterConfig {
                interval_instructions: interval,
                programmable_counters: counters,
                multiplexing_noise: true,
            });
            assert!(bank.observation_window() >= 1);
            assert!(bank.rotation_slots() >= 1);
            let m = bank.measure(&truth, &mut rng);
            assert_eq!(m.cpi(), 1.1);
            assert!(m.get(EventId::Load) >= 0.0);
            assert!(bank.relative_std_err(0.3).is_finite());
        }
    }

    #[test]
    fn relative_std_err_monotone_in_density() {
        let bank = CounterBank::default();
        assert!(bank.relative_std_err(1e-6) > bank.relative_std_err(1e-3));
        assert_eq!(bank.relative_std_err(0.0), 0.0);
    }
}
