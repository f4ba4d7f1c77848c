//! Suite-level dataset generation.
//!
//! A [`Suite`] owns its benchmark models and execution environment; the
//! generator draws intervals benchmark-by-benchmark (allocating samples
//! in proportion to instruction-count weights, matching the paper's
//! "number of samples selected for each benchmark is proportional to the
//! number of instructions required to execute that benchmark"), runs
//! each interval through the latent cost model, and measures it through
//! the multiplexed counter bank. Each benchmark's block has its own
//! random stream and is written straight into the dataset's columns, so
//! blocks generate in parallel and the output never depends on the
//! thread count.

use crate::costmodel::{CostModel, Environment};
use crate::phases::{BenchmarkModel, Phase};
use perfcounters::counters::{CounterBank, CounterConfig};
use perfcounters::events::{EventId, N_EVENTS};
use perfcounters::{BlockMut, Dataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Version of the generator's output: the samples a seed produces.
/// Bump it with any change that alters them (sampler, stream layout or
/// sample model). The pipeline folds it into every dataset fingerprint,
/// so a persisted store never serves another version's datasets, and
/// testkit's generator canary pins a digest of the output next to it.
///
/// Version 1 was the Box–Muller sampler with a serial single-stream
/// layout; version 2 is the ziggurat sampler with one stream per
/// benchmark block.
pub const GENERATOR_VERSION: u32 = 2;

/// Configuration of dataset generation: the counter architecture plus
/// the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeneratorConfig {
    /// Simulated PMU configuration (multiplexing noise etc.).
    pub counters: CounterConfig,
    /// Ground-truth cost model (CPI noise etc.).
    pub cost: CostModel,
}

/// A benchmark suite: a named set of [`BenchmarkModel`]s sharing one
/// execution [`Environment`].
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    name: String,
    environment: Environment,
    benchmarks: Vec<BenchmarkModel>,
}

impl Suite {
    /// Creates a suite from parts.
    ///
    /// # Panics
    ///
    /// Panics if `benchmarks` is empty.
    pub fn new(name: &str, environment: Environment, benchmarks: Vec<BenchmarkModel>) -> Self {
        assert!(!benchmarks.is_empty(), "suite must have benchmarks");
        Suite {
            name: name.to_owned(),
            environment,
            benchmarks,
        }
    }

    /// The synthetic SPEC CPU2006 suite (29 benchmarks, single-threaded).
    pub fn cpu2006() -> Self {
        crate::registry::CPU2006.materialize()
    }

    /// The synthetic SPEC OMP2001 medium suite (11 benchmarks,
    /// multi-threaded).
    pub fn omp2001() -> Self {
        crate::registry::OMP2001.materialize()
    }

    /// Suite name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execution environment (latent: not visible in any counter).
    pub fn environment(&self) -> Environment {
        self.environment
    }

    /// The benchmark models.
    pub fn benchmarks(&self) -> &[BenchmarkModel] {
        &self.benchmarks
    }

    /// The memory-hierarchy events scaled by
    /// [`Suite::with_memory_pressure`].
    pub const MEMORY_EVENTS: [EventId; 10] = [
        EventId::L1DMiss,
        EventId::L1IMiss,
        EventId::L2Miss,
        EventId::DtlbMiss,
        EventId::LdBlkStA,
        EventId::LdBlkStd,
        EventId::LdBlkOlp,
        EventId::SplitLoad,
        EventId::SplitStore,
        EventId::Misalign,
    ];

    /// Returns a copy of this suite with every phase's memory-hierarchy
    /// event densities scaled by `factor` — a model of running smaller
    /// input sets (`factor < 1`: working sets fit better, fewer misses)
    /// or larger ones (`factor > 1`). The instruction mix is untouched.
    #[must_use]
    pub fn with_memory_pressure(mut self, factor: f64) -> Self {
        self.name = format!("{} (memory x{factor})", self.name);
        self.benchmarks = self
            .benchmarks
            .into_iter()
            .map(|b| {
                let name = b.name().to_owned();
                let weight = b.weight();
                let mut out = BenchmarkModel::new(&name, weight);
                for phase in b.phases() {
                    out = out.phase(phase.clone().with_scaled(&Self::MEMORY_EVENTS, factor));
                }
                out
            })
            .collect();
        self
    }

    /// Number of samples each benchmark receives out of `total`,
    /// proportional to instruction-count weight. The counts sum exactly
    /// to `total` (largest-remainder rounding).
    pub fn sample_allocation(&self, total: usize) -> Vec<usize> {
        let weight_sum: f64 = self.benchmarks.iter().map(BenchmarkModel::weight).sum();
        let exact: Vec<f64> = self
            .benchmarks
            .iter()
            .map(|b| total as f64 * b.weight() / weight_sum)
            .collect();
        let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
        let mut assigned: usize = counts.iter().sum();
        // Distribute the remainder to the largest fractional parts.
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = exact[a] - exact[a].floor();
            let fb = exact[b] - exact[b].floor();
            fb.total_cmp(&fa)
        });
        let n_benchmarks = counts.len();
        let mut cursor = 0;
        while assigned < total {
            counts[order[cursor % n_benchmarks]] += 1;
            assigned += 1;
            cursor += 1;
        }
        counts
    }

    /// One measured interval of `phase`: draws the phase's true event
    /// densities, the cost model's noisy CPI, and the counter bank's
    /// multiplexed measurement of the densities, which it writes into
    /// `measured`. Returns the CPI.
    ///
    /// This is the crate's one sample model: dataset blocks, traces and
    /// the streaming fleet's records all draw through it. It records no
    /// PMU metrics; callers count their intervals with
    /// [`CounterBank::count_intervals`].
    pub fn measure_phase<R: Rng + ?Sized>(
        &self,
        phase: &Phase,
        config: &GeneratorConfig,
        bank: &CounterBank,
        rng: &mut R,
        measured: &mut [f64; N_EVENTS],
    ) -> f64 {
        *measured = phase.sample_densities(rng);
        let cpi = config.cost.noisy_cpi(measured, self.environment, rng);
        bank.measure_densities(measured, rng);
        cpi
    }

    /// Writes `block.len()` measured intervals of `bench` into `block`.
    fn fill_block<R: Rng + ?Sized>(
        &self,
        bench: &BenchmarkModel,
        config: &GeneratorConfig,
        bank: &CounterBank,
        rng: &mut R,
        block: &mut BlockMut<'_>,
    ) {
        let mut row = [0.0; N_EVENTS];
        for i in 0..block.len() {
            let cpi = self.measure_phase(bench.pick_phase(rng), config, bank, rng, &mut row);
            block.set_row(i, cpi, &row);
        }
        bank.count_intervals(block.len() as u64);
    }

    /// Generates a labeled dataset with `total` samples allocated across
    /// benchmarks by weight. All benchmark names are registered even if a
    /// tiny `total` leaves some with zero samples.
    ///
    /// Each benchmark's block draws from its own stream, seeded from
    /// `rng` in benchmark order, and is written straight into the
    /// dataset's columns; the blocks are spread over up to `n_threads`
    /// scoped workers. The output depends only on the rng state and
    /// `total`, never on `n_threads`.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        total: usize,
        config: &GeneratorConfig,
        n_threads: usize,
    ) -> Dataset {
        let seeds: Vec<u64> = self.benchmarks.iter().map(|_| rng.next_u64()).collect();
        let bank = CounterBank::new(config.counters);
        let mut ds = Dataset::new();
        let blocks: Vec<(u32, usize)> = self
            .benchmarks
            .iter()
            .zip(self.sample_allocation(total))
            .map(|(b, n)| (ds.add_benchmark(b.name()), n))
            .collect();
        let workers = n_threads.clamp(1, self.benchmarks.len());
        ds.append_blocks(&blocks, |blocks| {
            let mut lanes: Vec<Vec<(usize, BlockMut<'_>)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (i, block) in blocks.into_iter().enumerate() {
                lanes[i % workers].push((i, block));
            }
            let fill = |lane: Vec<(usize, BlockMut<'_>)>| {
                for (i, mut block) in lane {
                    let mut stream = StdRng::seed_from_u64(seeds[i]);
                    self.fill_block(&self.benchmarks[i], config, &bank, &mut stream, &mut block);
                }
            };
            // The caller fills the first lane itself; a worker's panic
            // resumes when the scope ends.
            std::thread::scope(|scope| {
                let mut lanes = lanes.into_iter();
                let own = lanes.next();
                for lane in lanes {
                    let fill = &fill;
                    scope.spawn(move || fill(lane));
                }
                own.into_iter().for_each(&fill);
            });
        });
        ds
    }

    /// Generates `n` samples for a single benchmark (by name), drawn
    /// straight from `rng`.
    ///
    /// Returns `None` if the benchmark is not part of this suite.
    pub fn generate_benchmark<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        name: &str,
        n: usize,
        config: &GeneratorConfig,
    ) -> Option<Dataset> {
        let bench = self.benchmarks.iter().find(|b| b.name() == name)?;
        let bank = CounterBank::new(config.counters);
        let mut ds = Dataset::new();
        let label = ds.add_benchmark(bench.name());
        ds.append_blocks(&[(label, n)], |blocks| {
            for mut block in blocks {
                self.fill_block(bench, config, &bank, rng, &mut block);
            }
        });
        Some(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn cpu2006_suite_shape() {
        let s = Suite::cpu2006();
        assert_eq!(s.benchmarks().len(), 29);
        assert_eq!(s.environment(), Environment::SingleThreaded);
    }

    #[test]
    fn omp2001_suite_shape() {
        let s = Suite::omp2001();
        assert_eq!(s.benchmarks().len(), 11);
        assert_eq!(s.environment(), Environment::MultiThreaded);
    }

    #[test]
    fn allocation_sums_to_total() {
        let s = Suite::cpu2006();
        for total in [0, 1, 29, 100, 12345] {
            let counts = s.sample_allocation(total);
            assert_eq!(counts.iter().sum::<usize>(), total);
            assert_eq!(counts.len(), 29);
        }
    }

    #[test]
    fn allocation_roughly_proportional() {
        let s = Suite::cpu2006();
        let counts = s.sample_allocation(29_000);
        let weight_sum: f64 = s.benchmarks().iter().map(|b| b.weight()).sum();
        for (b, &c) in s.benchmarks().iter().zip(&counts) {
            let expected = 29_000.0 * b.weight() / weight_sum;
            assert!(
                (c as f64 - expected).abs() <= 1.0,
                "{}: {c} vs {expected}",
                b.name()
            );
        }
    }

    #[test]
    fn generate_produces_labeled_physical_samples() {
        let s = Suite::cpu2006();
        let mut rng = StdRng::seed_from_u64(1);
        let ds = s.generate(&mut rng, 500, &GeneratorConfig::default(), 1);
        assert_eq!(ds.len(), 500);
        assert_eq!(ds.benchmark_count(), 29);
        for (sample, label) in ds.iter() {
            assert!(sample.is_physical());
            assert!(ds.benchmark_name(label).is_some());
        }
    }

    #[test]
    fn generate_benchmark_filters_by_name() {
        let s = Suite::omp2001();
        let mut rng = StdRng::seed_from_u64(2);
        let ds = s
            .generate_benchmark(&mut rng, "330.art_m", 100, &GeneratorConfig::default())
            .unwrap();
        assert_eq!(ds.len(), 100);
        assert!(s
            .generate_benchmark(&mut rng, "999.nope", 10, &GeneratorConfig::default())
            .is_none());
    }

    #[test]
    fn suite_mean_cpis_match_paper_bands() {
        // Paper Section VI: CPU2006 mean CPI ~0.96, OMP2001 mean ~1.21,
        // and OMP2001 is clearly higher.
        let mut rng = StdRng::seed_from_u64(3);
        let config = GeneratorConfig::default();
        let cpu = Suite::cpu2006().generate(&mut rng, 8000, &config, 1);
        let omp = Suite::omp2001().generate(&mut rng, 8000, &config, 1);
        let cpu_mean = cpu.cpi_summary().unwrap().mean();
        let omp_mean = omp.cpi_summary().unwrap().mean();
        assert!((0.75..1.2).contains(&cpu_mean), "cpu mean {cpu_mean}");
        assert!((1.0..1.55).contains(&omp_mean), "omp mean {omp_mean}");
        assert!(omp_mean > cpu_mean + 0.1);
    }

    #[test]
    fn memory_pressure_scaling_shifts_miss_densities_and_cpi() {
        let config = GeneratorConfig::default();
        let light = Suite::cpu2006().with_memory_pressure(0.5);
        let heavy = Suite::cpu2006();
        assert!(light.name().contains("memory"));
        let mut rng = StdRng::seed_from_u64(42);
        let small = light.generate(&mut rng, 5_000, &config, 1);
        let mut rng = StdRng::seed_from_u64(42);
        let full = heavy.generate(&mut rng, 5_000, &config, 1);
        let small_dtlb = small
            .summary(perfcounters::EventId::DtlbMiss)
            .unwrap()
            .mean();
        let full_dtlb = full
            .summary(perfcounters::EventId::DtlbMiss)
            .unwrap()
            .mean();
        assert!(
            (small_dtlb / full_dtlb - 0.5).abs() < 0.1,
            "dtlb ratio {}",
            small_dtlb / full_dtlb
        );
        // Lighter memory pressure -> lower CPI.
        assert!(small.cpi_summary().unwrap().mean() < full.cpi_summary().unwrap().mean() - 0.05);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = Suite::cpu2006();
        let config = GeneratorConfig::default();
        let a = s.generate(&mut StdRng::seed_from_u64(7), 200, &config, 1);
        let b = s.generate(&mut StdRng::seed_from_u64(7), 200, &config, 1);
        assert_eq!(a, b);
        let c = s.generate(&mut StdRng::seed_from_u64(8), 200, &config, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn generate_par_deterministic_given_seed() {
        let s = Suite::cpu2006();
        let config = GeneratorConfig::default();
        let a = s.generate(&mut StdRng::seed_from_u64(23), 300, &config, 4);
        let b = s.generate(&mut StdRng::seed_from_u64(23), 300, &config, 4);
        assert_eq!(a, b);
        let c = s.generate(&mut StdRng::seed_from_u64(24), 300, &config, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn generate_is_thread_count_invariant() {
        let s = Suite::cpu2006();
        let config = GeneratorConfig::default();
        let serial = s.generate(&mut StdRng::seed_from_u64(21), 600, &config, 1);
        for threads in [2, 3, 8, 64] {
            let par = s.generate(&mut StdRng::seed_from_u64(21), 600, &config, threads);
            assert_eq!(serial, par, "n_threads={threads} changed the dataset");
        }
    }

    #[test]
    fn generate_block_sizes_follow_allocation() {
        let s = Suite::omp2001();
        let config = GeneratorConfig::default();
        let ds = s.generate(&mut StdRng::seed_from_u64(22), 500, &config, 4);
        assert_eq!(ds.len(), 500);
        assert_eq!(ds.benchmark_count(), 11);
        assert!(ds.iter().all(|(sample, _)| sample.is_physical()));
        // Blocks are contiguous, in benchmark order, sized by the
        // allocation.
        let mut expected = Vec::new();
        for (label, &n) in s.sample_allocation(500).iter().enumerate() {
            expected.extend(std::iter::repeat_n(label as u32, n));
        }
        assert_eq!(ds.columns().labels(), expected.as_slice());
    }

    #[test]
    fn blocks_hold_the_per_row_model_of_their_own_stream() {
        // The column path writes exactly what the one sample model draws
        // from the block's stream, row after row.
        let s = Suite::cpu2006();
        let config = GeneratorConfig::default();
        let mut rng = StdRng::seed_from_u64(25);
        let ds = s.generate(&mut rng, 300, &config, 2);
        let mut rng = StdRng::seed_from_u64(25);
        let seeds: Vec<u64> = s.benchmarks().iter().map(|_| rng.next_u64()).collect();
        let bank = CounterBank::new(config.counters);
        let mut row = 0;
        for ((bench, &n), &seed) in s
            .benchmarks()
            .iter()
            .zip(&s.sample_allocation(300))
            .zip(&seeds)
        {
            let mut stream = StdRng::seed_from_u64(seed);
            for _ in 0..n {
                let mut measured = [0.0; N_EVENTS];
                let phase = bench.pick_phase(&mut stream);
                let cpi = s.measure_phase(phase, &config, &bank, &mut stream, &mut measured);
                let sample = ds.sample(row);
                assert_eq!(sample.cpi().to_bits(), cpi.to_bits(), "row {row}");
                assert_eq!(sample.densities(), &measured, "row {row}");
                row += 1;
            }
        }
        assert_eq!(row, ds.len());
    }

    #[test]
    fn oracle_counters_disable_noise() {
        let mut config = GeneratorConfig::default();
        config.counters.multiplexing_noise = false;
        let s = Suite::cpu2006();
        let mut rng = StdRng::seed_from_u64(8);
        let ds = s.generate(&mut rng, 100, &config, 1);
        assert_eq!(ds.len(), 100);
    }
}
