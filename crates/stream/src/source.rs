//! The simulated fleet: pure per-record generation and the canonical
//! stream layout.
//!
//! A [`StreamPlan`] is the fully resolved, deterministic description of
//! one streaming run: which benchmark each host executes, how many
//! intervals each host emits (after mid-stream deaths), which shard
//! owns each host, the canonical row order within each shard, and the
//! chunk boundaries of the sealed container. Everything downstream —
//! producers, aggregators, the corrupt-chunk recompute path, and the
//! differential oracles in the test suite — derives from this one
//! object, which is itself a pure function of [`crate::StreamConfig`].
//!
//! The load-bearing property is [`StreamPlan::record`]: an interval is
//! a pure function of `(fleet seed, host, seq)`, independent of every
//! other record and of the fault schedule. That is what makes
//! retransmission, duplicate suppression, and byte-identical
//! recomputation of a corrupt chunk possible at all.

use crate::fault::mix3;
use crate::StreamConfig;
use perfcounters::counters::CounterBank;
use perfcounters::events::N_EVENTS;
use perfcounters::{Dataset, EventId, Sample};
use pipeline::chunked::encode_chunk;
use pipeline::SuiteKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::generator::{GeneratorConfig, Suite};

/// Domain separator decorrelating record rng streams from fault rolls.
const DOM_RECORD: u64 = 0x5ec0_4d5d_0bad_cafe;

/// The simulated fleet: which suite runs, how many hosts, how many
/// intervals each host plans to emit, and the seed every record derives
/// from.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Suite whose benchmarks the hosts execute.
    pub suite: SuiteKind,
    /// Number of simulated hosts.
    pub n_hosts: u64,
    /// Intervals each host plans to emit (host death may cut this
    /// short).
    pub intervals_per_host: u32,
    /// Seed of all record content.
    pub seed: u64,
    /// PMU and cost-model configuration shared by the fleet.
    pub generator: GeneratorConfig,
}

impl FleetConfig {
    /// A CPU2006 fleet of `n_hosts` hosts emitting `intervals_per_host`
    /// intervals each.
    pub fn cpu2006(n_hosts: u64, intervals_per_host: u32, seed: u64) -> Self {
        FleetConfig {
            suite: SuiteKind::cpu2006(),
            n_hosts,
            intervals_per_host,
            seed,
            generator: GeneratorConfig::default(),
        }
    }
}

/// The fully resolved layout of one streaming run. See the module docs.
#[derive(Debug)]
pub struct StreamPlan {
    fleet: FleetConfig,
    suite: Suite,
    benchmarks: Vec<String>,
    bank: CounterBank,
    /// Benchmark index each host executes (fixed for the host's life).
    host_labels: Vec<u32>,
    /// Intervals each host actually emits, after death faults.
    produced: Vec<u32>,
    n_shards: usize,
    chunk_rows: usize,
    /// Hosts owned by each shard, ascending.
    shard_hosts: Vec<Vec<u64>>,
    /// Rows each shard contributes.
    shard_rows: Vec<u64>,
    /// Chunks each shard seals (`ceil(rows / chunk_rows)`).
    shard_chunks: Vec<u64>,
}

impl StreamPlan {
    /// Resolves the full layout from a config. Pure: equal configs give
    /// equal plans.
    pub fn new(cfg: &StreamConfig) -> Self {
        let suite = cfg.fleet.suite.materialize();
        let benchmarks: Vec<String> = suite
            .benchmarks()
            .iter()
            .map(|b| b.name().to_owned())
            .collect();
        let n_hosts = cfg.fleet.n_hosts as usize;
        // Hosts run benchmarks in proportion to instruction-count
        // weight, mirroring the paper's per-benchmark sample
        // allocation at fleet scale.
        let counts = suite.sample_allocation(n_hosts);
        let mut host_labels = Vec::with_capacity(n_hosts);
        for (label, &c) in counts.iter().enumerate() {
            host_labels.extend(std::iter::repeat_n(label as u32, c));
        }
        let produced: Vec<u32> = (0..cfg.fleet.n_hosts)
            .map(|h| cfg.faults.produced(h, cfg.fleet.intervals_per_host))
            .collect();
        let n_shards = cfg.n_shards.max(1);
        let chunk_rows = cfg.chunk_rows.max(1);
        let mut shard_hosts = vec![Vec::new(); n_shards];
        for h in 0..cfg.fleet.n_hosts {
            shard_hosts[(h % n_shards as u64) as usize].push(h);
        }
        let shard_rows: Vec<u64> = shard_hosts
            .iter()
            .map(|hosts| hosts.iter().map(|&h| u64::from(produced[h as usize])).sum())
            .collect();
        let shard_chunks: Vec<u64> = shard_rows
            .iter()
            .map(|&rows| rows.div_ceil(chunk_rows as u64))
            .collect();
        StreamPlan {
            bank: CounterBank::new(cfg.fleet.generator.counters),
            fleet: cfg.fleet,
            suite,
            benchmarks,
            host_labels,
            produced,
            n_shards,
            chunk_rows,
            shard_hosts,
            shard_rows,
            shard_chunks,
        }
    }

    /// The fleet this plan resolves.
    pub fn fleet(&self) -> &FleetConfig {
        &self.fleet
    }

    /// Benchmark name table of the sealed container.
    pub fn benchmarks(&self) -> &[String] {
        &self.benchmarks
    }

    /// Logical shard count.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Rows per sealed chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Benchmark index `host` executes.
    pub fn host_label(&self, host: u64) -> u32 {
        self.host_labels[host as usize]
    }

    /// Intervals `host` actually emits (after death faults).
    pub fn produced(&self, host: u64) -> u32 {
        self.produced[host as usize]
    }

    /// The shard owning `host`.
    pub fn shard_of(&self, host: u64) -> usize {
        (host % self.n_shards as u64) as usize
    }

    /// Hosts owned by `shard`, ascending.
    pub fn shard_hosts(&self, shard: usize) -> &[u64] {
        &self.shard_hosts[shard]
    }

    /// Rows `shard` contributes to the container.
    pub fn shard_rows(&self, shard: usize) -> u64 {
        self.shard_rows[shard]
    }

    /// Total rows across all shards.
    pub fn total_rows(&self) -> u64 {
        self.shard_rows.iter().sum()
    }

    /// Total chunks the container seals.
    pub fn total_chunks(&self) -> u64 {
        self.shard_chunks.iter().sum()
    }

    /// One measured interval — a pure function of `(fleet seed, host,
    /// seq)`. Retransmissions and corrupt-chunk recomputes call this
    /// exactly like first delivery does, and get identical bits.
    pub fn record(&self, host: u64, seq: u32) -> Sample {
        let mut rng =
            StdRng::seed_from_u64(mix3(self.fleet.seed ^ DOM_RECORD, host, u64::from(seq)));
        let bench = &self.suite.benchmarks()[self.host_labels[host as usize] as usize];
        let mut measured = [0.0; N_EVENTS];
        let cpi = self.suite.measure_phase(
            bench.pick_phase(&mut rng),
            &self.fleet.generator,
            &self.bank,
            &mut rng,
            &mut measured,
        );
        self.bank.count_intervals(1);
        Sample::from_densities(cpi, &measured)
    }

    /// The canonical row order of `shard`: seq-major round-robin over
    /// the shard's hosts (ascending id), skipping hosts past their
    /// final sequence. This is the order the aggregator must — and the
    /// fault suite proves it does — reconstruct from any arrival
    /// interleaving.
    pub fn shard_row_order(&self, shard: usize) -> Vec<(u64, u32)> {
        let hosts = &self.shard_hosts[shard];
        let max_seq = hosts
            .iter()
            .map(|&h| self.produced[h as usize])
            .max()
            .unwrap_or(0);
        let mut order = Vec::with_capacity(self.shard_rows[shard] as usize);
        for seq in 0..max_seq {
            for &h in hosts {
                if seq < self.produced[h as usize] {
                    order.push((h, seq));
                }
            }
        }
        order
    }

    /// Recomputes the encoded body of global chunk `index` from pure
    /// sources — the corrupt-chunk recovery path. The bytes equal the
    /// originally sealed chunk exactly.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn chunk_body(&self, index: u64) -> Vec<u8> {
        let mut remaining = index;
        let mut shard = 0;
        while remaining >= self.shard_chunks[shard] {
            remaining -= self.shard_chunks[shard];
            shard += 1;
        }
        let order = self.shard_row_order(shard);
        let lo = (remaining * self.chunk_rows as u64) as usize;
        let hi = (lo + self.chunk_rows).min(order.len());
        let rows = &order[lo..hi];
        let samples: Vec<Sample> = rows.iter().map(|&(h, s)| self.record(h, s)).collect();
        let labels: Vec<u32> = rows.iter().map(|&(h, _)| self.host_label(h)).collect();
        encode_rows(&samples, &labels)
    }

    /// The whole stream as one in-memory dataset, assembled naively
    /// shard by shard — the differential oracle the test suite compares
    /// the real aggregator against. Rows go straight into the columns,
    /// so the oracle holds no row-major copy of the stream.
    ///
    /// # Panics
    ///
    /// Panics if the plan's labels exceed its own name table (a plan
    /// construction bug).
    pub fn naive_dataset(&self) -> Dataset {
        let n = self.total_rows() as usize;
        let mut cpi = Vec::with_capacity(n);
        let mut events: [Vec<f64>; N_EVENTS] = std::array::from_fn(|_| Vec::with_capacity(n));
        let mut labels = Vec::with_capacity(n);
        for shard in 0..self.n_shards {
            for (h, s) in self.shard_row_order(shard) {
                let sample = self.record(h, s);
                cpi.push(sample.cpi());
                for (column, &v) in events.iter_mut().zip(sample.densities()) {
                    column.push(v);
                }
                labels.push(self.host_label(h));
            }
        }
        // Invariant: `new` draws every host label from the allocation
        // over `benchmarks`, so each label indexes the name table.
        #[allow(clippy::expect_used)]
        Dataset::from_columns(cpi, events, labels, self.benchmarks.clone())
            .expect("plan labels index the plan's own name table")
    }
}

/// Encodes a row batch as one chunk body: the column transpose plus
/// [`encode_chunk`]'s framing and hash.
///
/// # Panics
///
/// Panics if `samples` and `labels` differ in length.
pub fn encode_rows(samples: &[Sample], labels: &[u32]) -> Vec<u8> {
    assert_eq!(samples.len(), labels.len(), "row batch shape");
    let n = samples.len();
    let cpi: Vec<f64> = samples.iter().map(Sample::cpi).collect();
    let mut events = vec![0.0f64; perfcounters::events::N_EVENTS * n];
    for e in EventId::ALL {
        for (i, s) in samples.iter().enumerate() {
            events[e.index() * n + i] = s.get(e);
        }
    }
    encode_chunk(labels, &cpi, &events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultConfig;
    use pipeline::chunked::decode_chunk;

    fn small_cfg() -> StreamConfig {
        StreamConfig::new(FleetConfig::cpu2006(60, 5, 42))
            .with_shards(4)
            .with_chunk_rows(16)
    }

    #[test]
    fn records_are_pure() {
        let plan = StreamPlan::new(&small_cfg());
        for host in [0u64, 7, 59] {
            for seq in [0u32, 3] {
                let a = plan.record(host, seq);
                let b = plan.record(host, seq);
                assert_eq!(a.cpi().to_bits(), b.cpi().to_bits());
                for e in EventId::ALL {
                    assert_eq!(a.get(e).to_bits(), b.get(e).to_bits());
                }
                assert!(a.is_physical());
            }
        }
        // Distinct (host, seq) pairs draw from distinct streams.
        assert_ne!(
            plan.record(0, 0).cpi().to_bits(),
            plan.record(0, 1).cpi().to_bits()
        );
    }

    #[test]
    fn layout_accounts_every_row_once() {
        let cfg = small_cfg().with_faults(FaultConfig::standard(3));
        let plan = StreamPlan::new(&cfg);
        let mut rows = 0u64;
        for shard in 0..plan.n_shards() {
            let order = plan.shard_row_order(shard);
            assert_eq!(order.len() as u64, plan.shard_rows(shard));
            for &(h, s) in &order {
                assert_eq!(plan.shard_of(h), shard);
                assert!(s < plan.produced(h));
            }
            rows += order.len() as u64;
        }
        assert_eq!(rows, plan.total_rows());
        // Deaths actually shortened somebody.
        assert!(plan.total_rows() < 60 * 5);
    }

    #[test]
    fn chunk_bodies_tile_the_shard_order() {
        let plan = StreamPlan::new(&small_cfg());
        let naive = plan.naive_dataset();
        let mut at = 0usize;
        for c in 0..plan.total_chunks() {
            let chunk = decode_chunk(&plan.chunk_body(c)).unwrap();
            for i in 0..chunk.rows() {
                assert_eq!(chunk.labels[i], naive.label(at));
                assert_eq!(
                    chunk.cpi[i].to_bits(),
                    naive.sample(at).cpi().to_bits(),
                    "row {at}"
                );
                at += 1;
            }
        }
        assert_eq!(at as u64, plan.total_rows());
    }

    #[test]
    fn naive_dataset_equals_the_row_wise_construction() {
        let plan = StreamPlan::new(&small_cfg().with_faults(FaultConfig::standard(3)));
        let (mut samples, mut labels) = (Vec::new(), Vec::new());
        for shard in 0..plan.n_shards() {
            for (h, s) in plan.shard_row_order(shard) {
                samples.push(plan.record(h, s));
                labels.push(plan.host_label(h));
            }
        }
        let row_wise = Dataset::from_parts(samples, labels, plan.benchmarks().to_vec()).unwrap();
        assert!(!row_wise.is_empty());
        assert_eq!(plan.naive_dataset(), row_wise);
    }

    #[test]
    fn labels_follow_weight_allocation() {
        let plan = StreamPlan::new(&small_cfg());
        assert_eq!(plan.benchmarks().len(), 29);
        let mut seen = vec![0usize; 29];
        for h in 0..60 {
            seen[plan.host_label(h) as usize] += 1;
        }
        assert_eq!(seen.iter().sum::<usize>(), 60);
    }

    #[test]
    fn zero_host_fleet_is_empty_not_panicking() {
        let cfg = StreamConfig::new(FleetConfig::cpu2006(0, 5, 1));
        let plan = StreamPlan::new(&cfg);
        assert_eq!(plan.total_rows(), 0);
        assert_eq!(plan.total_chunks(), 0);
        assert!(plan.naive_dataset().is_empty());
    }

    #[test]
    fn zero_interval_fleet_is_empty_not_panicking() {
        let cfg = StreamConfig::new(FleetConfig::cpu2006(40, 0, 1));
        let plan = StreamPlan::new(&cfg);
        assert_eq!(plan.total_rows(), 0);
        assert!(plan.naive_dataset().is_empty());
    }
}
