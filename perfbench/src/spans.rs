//! The benchmark's clock and its own spans, kept in memory, and the
//! order statistics every workload reports.
//!
//! Timings are CPU time of the whole process (all threads, live and
//! exited), not wall time: on a shared host the hypervisor steals CPU
//! from the VM in bursts, which swung the wall time of a fixed CPU loop
//! by ±50% within a minute while its CPU time stayed within a few
//! percent. Only serve's throughput and latencies, which measure
//! waiting, use the wall clock.
//!
//! A traced pass times each call into a crate under a layer name. A
//! *probe* re-runs part of the work to time a layer the program does
//! not expose on its own (a decode inside a load, a predict inside an
//! assessment); probes are timed under their layer but kept out of the
//! pass's total, so the total is the work the untraced pass does plus
//! only the spans' own cost.

use std::collections::BTreeMap;

/// CPU seconds this process has used so far, all threads included.
pub fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    // Linux's CLOCK_PROCESS_CPUTIME_ID.
    const PROCESS_CPUTIME: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the layout of the
    // 64-bit Linux ABI (two 64-bit fields), and clock_gettime writes
    // nothing else.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f` and returns its result with the CPU seconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = cpu_now();
    let out = f();
    (out, cpu_now() - t)
}

pub struct Spans {
    started: f64,
    excluded: f64,
    totals: BTreeMap<&'static str, f64>,
}

impl Spans {
    pub fn start() -> Spans {
        Spans {
            started: cpu_now(),
            excluded: 0.0,
            totals: BTreeMap::new(),
        }
    }

    /// Runs `f` as part of the pass, timed under `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, spent) = cpu_timed(f);
        *self.totals.entry(layer).or_default() += spent;
        out
    }

    /// Runs a probe: timed under `layer`, kept out of the pass total.
    pub fn probe<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, spent) = cpu_timed(f);
        *self.totals.entry(layer).or_default() += spent;
        self.excluded += spent;
        out
    }

    /// Runs preparation for a probe, kept out of the pass total and of
    /// every layer.
    pub fn aside<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, spent) = cpu_timed(f);
        self.excluded += spent;
        out
    }

    /// Seconds spent under `layer` (0 if never entered).
    pub fn secs(&self, layer: &str) -> f64 {
        self.totals.get(layer).copied().unwrap_or(0.0)
    }

    /// The pass's seconds so far, probes excluded.
    pub fn total(&self) -> f64 {
        cpu_now() - self.started - self.excluded
    }
}

/// Median of the per-pass values of each layer.
pub fn median_layers(passes: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut names: Vec<&'static str> = passes.iter().flat_map(|p| p.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = passes
                .iter()
                .map(|p| p.get(name).copied().unwrap_or(0.0))
                .collect();
            (name, median(&values))
        })
        .collect()
}

/// The cheapest quarter of `items` by `cost` (at least one item).
///
/// This host alternates, for seconds at a time, between a fast mode and
/// a slow one in which the same window refit costs about 45% more CPU
/// time, as other tenants contend for the cores. A run's median mixes
/// the two modes in whatever proportion the run happened to meet;
/// statistics over its cheapest quarter of passes measure the code in
/// the fast mode, which every run reaches.
pub fn cheapest_quarter<T>(mut items: Vec<T>, cost: impl Fn(&T) -> f64) -> Vec<T> {
    items.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
    items.truncate(items.len().div_ceil(4).max(1));
    items
}

/// Median (mean of the middle two for an even count; NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `values`, `p` in (0, 1].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail of a latency sample: the highest percentile that leaves at
/// least ten samples beyond it, between the median and p99. Returns the
/// value and the percentile used.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = (1.0 - 10.0 / values.len() as f64).clamp(0.5, 0.99);
    (percentile(values, p), p)
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads `compare` prints match the ones the acceptance rule uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(median(&v), 50.5);
    }
}
