//! The column-major `Dataset` against the row-major oracle
//! (`testkit::reference::RowDataset`): rows read back through
//! `sample(i)` and `iter()`, `split_random` under the same RNG seed,
//! `filter_benchmark`, `merge`, `feature_matrix` and the `to_csv`
//! bytes all agree bit for bit. Values include NaN payloads, `-0.0`,
//! infinities and subnormals; row counts include 0 and 1.

use perfcounters::events::N_EVENTS;
use perfcounters::{Dataset, EventId, Sample};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use testkit::reference::RowDataset;

const SPECIAL: [f64; 8] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    5e-324,
    f64::MAX,
    -1e-300,
];

/// Special floats a third of the time, otherwise any bit pattern (NaN
/// payloads and subnormals included).
fn any_f64() -> impl Strategy<Value = f64> {
    (0usize..3 * SPECIAL.len(), 0u64..u64::MAX).prop_map(|(k, bits)| {
        SPECIAL
            .get(k)
            .copied()
            .unwrap_or_else(|| f64::from_bits(bits))
    })
}

/// Rows as `(label pick, CPI then densities)`.
fn any_rows(max: usize) -> impl Strategy<Value = Vec<(usize, Vec<f64>)>> {
    proptest::collection::vec(
        (
            0usize..64,
            proptest::collection::vec(any_f64(), N_EVENTS + 1),
        ),
        0..max,
    )
}

/// The oracle and the dataset under test built from the same rows over
/// `names`; the dataset through `add_benchmark` and `push`.
fn build(names: &[&str], rows: &[(usize, Vec<f64>)]) -> (RowDataset, Dataset) {
    let mut ds = Dataset::new();
    for name in names {
        ds.add_benchmark(name);
    }
    let mut oracle = RowDataset::new(
        Vec::new(),
        Vec::new(),
        names.iter().map(|n| n.to_string()).collect(),
    );
    for (pick, values) in rows {
        let label = (pick % names.len()) as u32;
        let sample = Sample::from_densities(values[0], &values[1..]);
        ds.push(sample.clone(), label);
        oracle.samples.push(sample);
        oracle.labels.push(label);
    }
    (oracle, ds)
}

fn check(oracle: &RowDataset, ds: &Dataset) {
    if let Err(e) = oracle.check(ds) {
        panic!("{e}");
    }
}

/// Every operation the oracle knows, compared.
fn assert_agrees(
    (oracle, ds): &(RowDataset, Dataset),
    (other_oracle, other): &(RowDataset, Dataset),
    seed: u64,
    fraction: f64,
) {
    check(oracle, ds);

    // The other two constructors reproduce the dataset.
    let rebuilt = Dataset::from_parts(
        oracle.samples.clone(),
        oracle.labels.clone(),
        oracle.benchmarks.clone(),
    )
    .unwrap();
    check(oracle, &rebuilt);
    let columns = Dataset::from_columns(
        oracle.samples.iter().map(Sample::cpi).collect(),
        std::array::from_fn(|e| oracle.samples.iter().map(|s| s.densities()[e]).collect()),
        oracle.labels.clone(),
        oracle.benchmarks.clone(),
    )
    .unwrap();
    check(oracle, &columns);

    let (want_a, want_b) = oracle.split_random(&mut StdRng::seed_from_u64(seed), fraction);
    let (got_a, got_b) = ds.split_random(&mut StdRng::seed_from_u64(seed), fraction);
    check(&want_a, &got_a);
    check(&want_b, &got_b);

    for label in 0..oracle.benchmarks.len() as u32 {
        check(&oracle.filter_benchmark(label), &ds.filter_benchmark(label));
    }

    let mut want = oracle.clone();
    want.merge(other_oracle);
    let mut got = ds.clone();
    got.merge(other);
    check(&want, &got);

    let (want, got) = (oracle.feature_matrix(), ds.feature_matrix());
    assert_eq!(want.shape(), got.shape());
    for r in 0..ds.len() {
        for c in 0..N_EVENTS {
            assert_eq!(
                want[(r, c)].to_bits(),
                got[(r, c)].to_bits(),
                "matrix ({r}, {c})"
            );
        }
    }

    let mut csv = Vec::new();
    ds.to_csv(&mut csv).unwrap();
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        String::from_utf8(oracle.to_csv()).unwrap()
    );
}

#[test]
fn zero_and_one_row_datasets_agree() {
    let other = build(&["b", "c"], &[(1, vec![-0.0; N_EVENTS + 1])]);
    for rows in [
        vec![],
        vec![(0, vec![f64::from_bits(0x7ff8_dead_beef_0001); N_EVENTS + 1])],
    ] {
        let data = build(&["a", "b"], &rows);
        for fraction in [0.0, 0.5, 1.0] {
            assert_agrees(&data, &other, 9, fraction);
        }
    }
}

#[test]
fn nan_payloads_and_negative_zero_survive_every_operation() {
    let mut values = vec![-0.0; N_EVENTS + 1];
    values[0] = f64::from_bits(0xfff0_0000_0000_0002);
    values[1 + EventId::L2Miss.index()] = f64::from_bits(0x7ff0_0000_dead_0000);
    let rows: Vec<(usize, Vec<f64>)> = (0..7).map(|i| (i, values.clone())).collect();
    let data = build(&["x", "y", "z"], &rows);
    assert_agrees(&data, &build(&["z", "w"], &rows[..3]), 3, 0.3);
    let got = data.1.sample(4);
    assert_eq!(got.cpi().to_bits(), 0xfff0_0000_0000_0002);
    assert_eq!(got.get(EventId::L2Miss).to_bits(), 0x7ff0_0000_dead_0000);
    assert_eq!(got.get(EventId::Load).to_bits(), (-0.0f64).to_bits());
}

const NAMES: [&str; 5] = ["400.perlbench", "429.mcf", "433.milc", "x", "y"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn columnar_dataset_matches_row_oracle(
        rows in any_rows(40),
        other_rows in any_rows(6),
        n_names in 1usize..4,
        other_first in 0usize..3,
        seed in 0u64..u64::MAX,
        fraction in 0.0f64..1.0,
    ) {
        let data = build(&NAMES[..n_names], &rows);
        // The other dataset's names overlap ours, so merge remaps.
        let other = build(&NAMES[other_first..other_first + 2], &other_rows);
        assert_agrees(&data, &other, seed, fraction);
    }
}
