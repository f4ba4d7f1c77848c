//! Seeded dataset generators for the differential and metamorphic
//! suites.
//!
//! Every generator is a pure function of its seed, so failures
//! reproduce exactly. The family deliberately spans both "nice"
//! learnable data and adversarial shapes the optimized trainer's
//! bookkeeping could plausibly mishandle: exact ties and near-tied
//! thresholds (sort-order and boundary bugs), all-equal targets
//! (zero-variance stops), datasets small enough to force single-row
//! leaves, duplicated rows, constant columns, and non-finite cells.

use perfcounters::events::EventId;
use perfcounters::{Dataset, Sample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Attributes the generators use as predictive signal.
const SIGNAL_POOL: [EventId; 6] = [
    EventId::DtlbMiss,
    EventId::L2Miss,
    EventId::Load,
    EventId::MisprBr,
    EventId::L1DMiss,
    EventId::Store,
];

fn background_noise(rng: &mut StdRng, sample: &mut Sample) {
    for event in EventId::ALL {
        if sample.get(event) == 0.0 {
            sample.set(event, rng.gen::<f64>() * 1e-3);
        }
    }
}

/// A general mixed-signal dataset: 2–4 signal attributes drive CPI
/// through a two-regime piecewise-linear response plus noise, the rest
/// carry background noise. Some seeds quantize a signal column (exact
/// ties) or append duplicated rows.
pub fn random_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 24 + rng.gen_range(0usize..117);
    let n_signals = 2 + rng.gen_range(0usize..3);
    let offset = rng.gen_range(0usize..SIGNAL_POOL.len());
    let signals: Vec<EventId> = (0..n_signals)
        .map(|i| SIGNAL_POOL[(offset + i) % SIGNAL_POOL.len()])
        .collect();
    let coefs: Vec<f64> = signals.iter().map(|_| rng.gen_range(5.0..60.0)).collect();
    let regime_cut = rng.gen_range(0.3..0.7);
    let noise_amp = rng.gen_range(0.0..0.15);
    let quantize = rng.gen_bool(0.3);
    let duplicate_tail = rng.gen_bool(0.2);

    let mut ds = Dataset::new();
    let label = ds.add_benchmark(&format!("gen_{seed}"));
    let mut rows: Vec<Sample> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut s = Sample::zeros(0.0);
        let mut cpi = 0.4;
        for (k, (&event, &coef)) in signals.iter().zip(&coefs).enumerate() {
            let mut x = rng.gen::<f64>() * 0.02;
            if quantize && k == 0 {
                // Snap to a coarse grid: exact ties across rows.
                x = (x * 400.0).round() / 400.0;
            }
            s.set(event, x);
            // Two-regime response on the first signal, linear on the
            // rest — gives the tree a real split to find.
            if k == 0 && x > regime_cut * 0.02 {
                cpi += coef * x * 2.5 + 0.3;
            } else {
                cpi += coef * x;
            }
        }
        background_noise(&mut rng, &mut s);
        cpi += noise_amp * (rng.gen::<f64>() - 0.5);
        s.set_cpi(cpi);
        rows.push(s);
    }
    if duplicate_tail {
        let dup: Vec<Sample> = rows.iter().take(rows.len() / 4).cloned().collect();
        rows.extend(dup);
    }
    for s in rows {
        ds.push(s, label);
    }
    ds
}

/// Heavily quantized attributes and targets: almost every adjacent pair
/// in sorted order is an exact tie or separated by one quantum, so
/// threshold admissibility and tie-skipping logic is on the critical
/// path everywhere.
pub fn near_tied_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 30 + rng.gen_range(0usize..50);
    let quantum = 1e-4;
    let mut ds = Dataset::new();
    let label = ds.add_benchmark(&format!("tied_{seed}"));
    for _ in 0..n {
        let mut s = Sample::zeros(0.0);
        for event in EventId::ALL {
            let steps = rng.gen_range(0u64..6);
            s.set(event, steps as f64 * quantum);
        }
        // CPI quantized too: many equal-target runs.
        let cpi = 1.0
            + (s.get(EventId::Load) * 40.0 * 1e4).round() / 1e4
            + rng.gen_range(0u64..3) as f64 * 0.05;
        s.set_cpi(cpi);
        ds.push(s, label);
    }
    ds
}

/// Every sample has the same CPI: the root has zero target variance and
/// the tree must collapse to a single constant leaf.
///
/// The constant is a dyadic rational (`k/4`) so that the running sums
/// of `cpi` and `cpi^2` are exact and the computed root variance is
/// exactly zero — not merely tiny accumulation noise.
pub fn all_equal_target_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 20 + rng.gen_range(0usize..40);
    let cpi = 0.5 + 0.25 * rng.gen_range(0u64..10) as f64;
    let mut ds = Dataset::new();
    let label = ds.add_benchmark(&format!("flat_{seed}"));
    for _ in 0..n {
        let mut s = Sample::zeros(cpi);
        background_noise(&mut rng, &mut s);
        ds.push(s, label);
    }
    ds
}

/// A dataset small enough that `min_leaf = 1` configurations force
/// single-row leaves.
pub fn tiny_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + rng.gen_range(0usize..5);
    let mut ds = Dataset::new();
    let label = ds.add_benchmark(&format!("tiny_{seed}"));
    for i in 0..n {
        let mut s = Sample::zeros(0.8 + 0.4 * i as f64 + rng.gen::<f64>() * 0.01);
        s.set(EventId::Load, 0.1 * (i + 1) as f64);
        background_noise(&mut rng, &mut s);
        ds.push(s, label);
    }
    ds
}

/// The mixed pool the differential sweep iterates over: mostly general
/// datasets, with every tenth seed drawing one of the adversarial
/// shapes.
pub fn differential_dataset(index: usize) -> Dataset {
    let seed = 0xD1FF_0000 + index as u64;
    match index % 10 {
        7 => near_tied_dataset(seed),
        8 => all_equal_target_dataset(seed),
        9 => tiny_dataset(seed),
        _ => random_dataset(seed),
    }
}

/// Rebuilds a dataset sample-by-sample through `f`, preserving
/// benchmark names and label assignments.
pub fn map_samples<F>(data: &Dataset, mut f: F) -> Dataset
where
    F: FnMut(usize, &Sample) -> Sample,
{
    let mut out = Dataset::new();
    let mut label_map = std::collections::BTreeMap::new();
    for (i, (sample, label)) in data.iter().enumerate() {
        let new_label = *label_map.entry(label).or_insert_with(|| {
            out.add_benchmark(data.benchmark_name(label).expect("label has a name"))
        });
        out.push(f(i, &sample), new_label);
    }
    out
}

/// Reorders rows by the permutation drawn from `seed` (Fisher–Yates).
pub fn permute_rows(data: &Dataset, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    let mut out = Dataset::new();
    let mut label_map = std::collections::BTreeMap::new();
    for &i in &order {
        let label = data.label(i);
        let new_label = *label_map.entry(label).or_insert_with(|| {
            out.add_benchmark(data.benchmark_name(label).expect("label has a name"))
        });
        out.push(data.sample(i), new_label);
    }
    out
}

/// Swaps two attribute columns in every sample (a relabeling of the
/// event schema).
pub fn swap_columns(data: &Dataset, a: EventId, b: EventId) -> Dataset {
    map_samples(data, |_, s| {
        let mut t = s.clone();
        t.set(a, s.get(b));
        t.set(b, s.get(a));
        t
    })
}

/// Applies the affine map `cpi -> scale * cpi + shift` to every target.
pub fn rescale_target(data: &Dataset, scale: f64, shift: f64) -> Dataset {
    map_samples(data, |_, s| {
        let mut t = s.clone();
        t.set_cpi(scale * s.cpi() + shift);
        t
    })
}

/// Repeats every row `k` times, adjacently (row i's copies stay
/// together, preserving relative order).
pub fn duplicate_rows(data: &Dataset, k: usize) -> Dataset {
    let mut out = Dataset::new();
    let mut label_map = std::collections::BTreeMap::new();
    for (sample, label) in data.iter() {
        let new_label = *label_map.entry(label).or_insert_with(|| {
            out.add_benchmark(data.benchmark_name(label).expect("label has a name"))
        });
        for _ in 0..k {
            out.push(sample.clone(), new_label);
        }
    }
    out
}

/// Snaps every CPI to the dyadic grid `2^-16` (exactly representable,
/// and small-magnitude enough that sums over thousands of rows stay
/// exact in `f64`). Used by relations whose bit-exactness argument
/// needs exact target sums — e.g. duplicated-row reweighting, where
/// the doubled dataset's running sums must be exactly twice the
/// original's regardless of accumulation interleaving.
pub fn quantize_target(data: &Dataset) -> Dataset {
    let grid = 65536.0; // 2^16
    map_samples(data, |_, s| {
        let mut t = s.clone();
        t.set_cpi((s.cpi() * grid).round() / grid);
        t
    })
}

/// Overwrites one attribute with the same value in every row.
pub fn with_constant_column(data: &Dataset, event: EventId, value: f64) -> Dataset {
    map_samples(data, |_, s| {
        let mut t = s.clone();
        t.set(event, value);
        t
    })
}

/// Injects a single non-finite cell (`value` = NaN or ±inf) at a
/// seed-chosen row and attribute.
pub fn with_poisoned_cell(data: &Dataset, value: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let row = rng.gen_range(0..data.len());
    let event = EventId::ALL[rng.gen_range(0..EventId::ALL.len())];
    map_samples(data, |i, s| {
        let mut t = s.clone();
        if i == row {
            t.set(event, value);
        }
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        for f in [random_dataset, near_tied_dataset, tiny_dataset] {
            let a = f(42);
            let b = f(42);
            assert_eq!(a.len(), b.len());
            for i in 0..a.len() {
                assert_eq!(a.sample(i).cpi().to_bits(), b.sample(i).cpi().to_bits());
            }
        }
    }

    #[test]
    fn transforms_preserve_row_count_and_multiply() {
        let ds = random_dataset(7);
        assert_eq!(permute_rows(&ds, 3).len(), ds.len());
        assert_eq!(duplicate_rows(&ds, 3).len(), 3 * ds.len());
        let swapped = swap_columns(&ds, EventId::Load, EventId::L2Miss);
        assert_eq!(
            swapped.sample(0).get(EventId::Load).to_bits(),
            ds.sample(0).get(EventId::L2Miss).to_bits()
        );
        let scaled = rescale_target(&ds, 2.0, 1.0);
        assert_eq!(
            scaled.sample(0).cpi().to_bits(),
            (2.0 * ds.sample(0).cpi() + 1.0).to_bits()
        );
    }

    #[test]
    fn poisoned_cell_lands_somewhere() {
        let ds = random_dataset(11);
        let bad = with_poisoned_cell(&ds, f64::NAN, 5);
        let nan_cells: usize = (0..bad.len())
            .map(|i| {
                EventId::ALL
                    .iter()
                    .filter(|&&e| bad.sample(i).get(e).is_nan())
                    .count()
            })
            .sum();
        assert_eq!(nan_cells, 1);
    }
}
