//! Time-ordered execution traces.
//!
//! The paper's samples are *consecutive* 2M-instruction intervals of a
//! benchmark's execution: phases appear as temporal runs, not as i.i.d.
//! draws. This module generates such traces with a Markov phase process —
//! each interval either stays in the current phase or re-draws a phase
//! from the mixture — whose stationary distribution equals the
//! benchmark's phase weights, so aggregate statistics match
//! [`Suite::generate`](crate::generator::Suite::generate) while the
//! temporal structure (phase runs, CPI time series) becomes available for
//! phase-oriented analyses.

use crate::generator::{GeneratorConfig, Suite};
use crate::phases::BenchmarkModel;
use mathkit::sampling::weighted_index;
use perfcounters::counters::CounterBank;
use perfcounters::events::N_EVENTS;
use perfcounters::{Dataset, Sample};
use rand::Rng;

/// Configuration of the Markov phase process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Expected number of consecutive intervals spent in a phase before
    /// re-drawing (geometric run lengths). The paper's workloads dwell in
    /// phases for long stretches; 50 intervals (100M instructions) is a
    /// realistic default.
    pub mean_run_length: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            mean_run_length: 50.0,
        }
    }
}

/// A time-ordered trace of measured intervals from one benchmark, with
/// ground-truth phase labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    benchmark: String,
    samples: Vec<Sample>,
    phase_indices: Vec<usize>,
    phase_names: Vec<String>,
}

impl Trace {
    /// The benchmark this trace came from.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the trace holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The measured samples, in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Ground-truth phase index of each interval (indexes into
    /// [`Trace::phase_names`]).
    pub fn phase_indices(&self) -> &[usize] {
        &self.phase_indices
    }

    /// Phase names, in the benchmark model's phase order.
    pub fn phase_names(&self) -> &[String] {
        &self.phase_names
    }

    /// The CPI time series.
    pub fn cpi_series(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::cpi).collect()
    }

    /// Run-length encoding of the phase sequence: `(phase index, run
    /// length)` in time order.
    pub fn phase_runs(&self) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        for &p in &self.phase_indices {
            match runs.last_mut() {
                Some((phase, len)) if *phase == p => *len += 1,
                _ => runs.push((p, 1)),
            }
        }
        runs
    }

    /// Converts the trace into a labeled [`Dataset`] (one benchmark,
    /// time order preserved).
    pub fn to_dataset(&self) -> Dataset {
        let mut ds = Dataset::with_capacity(self.len());
        let label = ds.add_benchmark(&self.benchmark);
        for s in &self.samples {
            ds.push(s.clone(), label);
        }
        ds
    }
}

/// Generates a time-ordered trace for one benchmark of a suite.
///
/// Returns `None` if the benchmark is not part of the suite.
pub fn generate_trace<R: Rng + ?Sized>(
    suite: &Suite,
    rng: &mut R,
    benchmark_name: &str,
    n_intervals: usize,
    generator: &GeneratorConfig,
    trace_config: &TraceConfig,
) -> Option<Trace> {
    let bench: &BenchmarkModel = suite
        .benchmarks()
        .iter()
        .find(|b| b.name() == benchmark_name)?;
    let bank = CounterBank::new(generator.counters);
    let weights = || bench.phases().iter().map(|p| p.weight());
    let stay_probability = 1.0 - 1.0 / trace_config.mean_run_length.max(1.0);

    let mut samples = Vec::with_capacity(n_intervals);
    let mut phase_indices = Vec::with_capacity(n_intervals);
    let mut current = weighted_index(rng, weights());
    let mut measured = [0.0; N_EVENTS];
    for _ in 0..n_intervals {
        if rng.gen::<f64>() >= stay_probability {
            current = weighted_index(rng, weights());
        }
        let phase = &bench.phases()[current];
        let cpi = suite.measure_phase(phase, generator, &bank, rng, &mut measured);
        samples.push(Sample::from_densities(cpi, &measured));
        phase_indices.push(current);
    }
    bank.count_intervals(n_intervals as u64);
    Some(Trace {
        benchmark: bench.name().to_owned(),
        samples,
        phase_indices,
        phase_names: bench.phases().iter().map(|p| p.name().to_owned()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace(name: &str, n: usize, run: f64, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_trace(
            &Suite::cpu2006(),
            &mut rng,
            name,
            n,
            &GeneratorConfig::default(),
            &TraceConfig {
                mean_run_length: run,
            },
        )
        .expect("benchmark exists")
    }

    #[test]
    fn unknown_benchmark_is_none() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(generate_trace(
            &Suite::cpu2006(),
            &mut rng,
            "999.nope",
            10,
            &GeneratorConfig::default(),
            &TraceConfig::default(),
        )
        .is_none());
    }

    #[test]
    fn trace_has_requested_length_and_valid_phases() {
        let t = trace("403.gcc", 500, 50.0, 1);
        assert_eq!(t.len(), 500);
        assert_eq!(t.benchmark(), "403.gcc");
        let n_phases = t.phase_names().len();
        assert!(t.phase_indices().iter().all(|&p| p < n_phases));
        assert!(t.samples().iter().all(Sample::is_physical));
    }

    #[test]
    fn run_lengths_scale_with_config() {
        let short = trace("403.gcc", 4000, 5.0, 2);
        let long = trace("403.gcc", 4000, 100.0, 3);
        let mean_run = |t: &Trace| {
            let runs = t.phase_runs();
            t.len() as f64 / runs.len() as f64
        };
        let ms = mean_run(&short);
        let ml = mean_run(&long);
        assert!(
            ml > 3.0 * ms,
            "long-run trace should have much longer runs: {ml} vs {ms}"
        );
    }

    #[test]
    fn phase_runs_reconstruct_sequence() {
        let t = trace("456.hmmer", 300, 10.0, 4);
        let total: usize = t.phase_runs().iter().map(|&(_, l)| l).sum();
        assert_eq!(total, t.len());
        // Adjacent runs always differ in phase... not guaranteed by RLE
        // construction? It is: equal adjacent phases merge into one run.
        for w in t.phase_runs().windows(2) {
            assert_ne!(w[0].0, w[1].0);
        }
    }

    #[test]
    fn stationary_distribution_matches_weights() {
        // gcc: lm1 0.50 / lm8 0.30 / lm24 0.20.
        let t = trace("403.gcc", 60_000, 10.0, 5);
        let n_phases = t.phase_names().len();
        let mut counts = vec![0usize; n_phases];
        for &p in t.phase_indices() {
            counts[p] += 1;
        }
        let shares: Vec<f64> = counts.iter().map(|&c| c as f64 / t.len() as f64).collect();
        let expected = [0.50, 0.30, 0.20];
        for (s, e) in shares.iter().zip(expected) {
            assert!((s - e).abs() < 0.05, "share {s} vs expected {e}");
        }
    }

    #[test]
    fn to_dataset_preserves_order() {
        let t = trace("429.mcf", 100, 20.0, 6);
        let ds = t.to_dataset();
        assert_eq!(ds.len(), 100);
        for i in 0..100 {
            assert_eq!(ds.sample(i), t.samples()[i]);
        }
        assert_eq!(ds.benchmark_name(0), Some("429.mcf"));
    }

    #[test]
    fn cpi_series_tracks_phase_changes() {
        // mcf's lm24 phase (CPI ~2.2) vs lm8 (CPI ~0.8): CPI within a run
        // should be much less variable than across the whole trace.
        let t = trace("429.mcf", 5000, 100.0, 7);
        let series = t.cpi_series();
        let overall_sd = mathkit::describe::std_dev(&series).unwrap();
        // Mean per-run sd.
        let mut run_sds = Vec::new();
        let mut start = 0;
        for (_, len) in t.phase_runs() {
            if len >= 10 {
                run_sds.push(mathkit::describe::std_dev(&series[start..start + len]).unwrap());
            }
            start += len;
        }
        let mean_run_sd = run_sds.iter().sum::<f64>() / run_sds.len() as f64;
        assert!(
            mean_run_sd < 0.5 * overall_sd,
            "within-run sd {mean_run_sd} vs overall {overall_sd}"
        );
    }
}
