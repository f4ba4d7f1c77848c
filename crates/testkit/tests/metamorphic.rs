//! Metamorphic verification: invariances the M5' trainer must satisfy
//! under semantics-preserving transformations of its input, plus
//! behavior on adversarial datasets.
//!
//! Relations covered (each over multiple seeded datasets):
//!
//! * **constant-column inertness** — an all-constant attribute can never
//!   split or enter a model, so changing its constant value leaves the
//!   fitted tree bit-identical (`structural_eq`);
//! * **row-permutation equivariance** — reordering training rows leaves
//!   the tree shape and predictions unchanged up to floating-point
//!   accumulation order (checked on tie-free datasets);
//! * **attribute-permutation equivariance** — swapping two event
//!   columns relabels the fitted splits without changing shape,
//!   thresholds, or (with constant leaf models) predictions, all
//!   bit-exactly;
//! * **affine target rescaling** — `cpi -> a*cpi + b` preserves the
//!   tree shape; with a power-of-two `a` and `b = 0` every quantity
//!   scales bit-exactly;
//! * **duplicated-row weighting** — repeating every row `k=2` times
//!   while doubling `min_leaf`/`min_split` is a pure reweighting: the
//!   unsmoothed, unpruned tree and its predictions are bit-identical;
//! * **adversarial inputs** — NaN/inf cells are rejected with
//!   `TreeError::NonFiniteAttribute`, all-equal targets collapse to a
//!   single constant leaf, and `min_leaf = 1` configurations genuinely
//!   produce (and survive) single-row leaves.

use modeltree::{M5Config, ModelTree, NodeKind, TreeError};
use perfcounters::events::EventId;
use perfcounters::Dataset;
use testkit::generators::{
    all_equal_target_dataset, differential_dataset, duplicate_rows, near_tied_dataset,
    permute_rows, quantize_target, random_dataset, rescale_target, swap_columns,
    with_constant_column, with_poisoned_cell,
};
use testkit::{close_to, full_depth, split_signature};

fn seeds() -> std::ops::Range<u64> {
    if full_depth() {
        0..40
    } else {
        0..15
    }
}

/// A plain config: pruning on, smoothing off, no razor-edge knobs.
fn base_config() -> M5Config {
    M5Config::default().with_smoothing(false)
}

/// The config family for the bit-exact relations: no pruning and no
/// smoothing, so predictions are pure leaf means and tree shape depends
/// only on the split search.
fn exact_config() -> M5Config {
    M5Config::default().with_smoothing(false).with_prune(false)
}

/// True if every event column is duplicate-free (no exact ties), so the
/// fitted tree cannot depend on row order even in the last bit's
/// tie-breaking.
fn tie_free(data: &Dataset) -> bool {
    EventId::ALL.iter().all(|&e| {
        let mut col = data.column(e);
        col.sort_by(f64::total_cmp);
        col.windows(2).all(|w| w[0] != w[1])
    })
}

#[test]
fn constant_columns_are_inert() {
    let mut checked = 0;
    for seed in seeds() {
        // Pin one attribute to zero, then to an arbitrary constant: the
        // two trees must be bit-identical.
        let base = with_constant_column(&random_dataset(seed), EventId::FpAsst, 0.0);
        let moved = with_constant_column(&base, EventId::FpAsst, 7.5);
        for config in [base_config(), exact_config()] {
            let t0 = ModelTree::fit(&base, &config).unwrap();
            let t1 = ModelTree::fit(&moved, &config).unwrap();
            assert!(
                t0.structural_eq(&t1),
                "seed {seed}: moving a constant column changed the tree"
            );
            let (e0, e1) = (t0.compile(), t1.compile());
            for (sample, _) in base.iter() {
                assert_eq!(e0.predict(&sample).to_bits(), e1.predict(&sample).to_bits());
            }
            checked += 1;
        }
    }
    assert!(checked > 0);
}

#[test]
fn row_permutation_leaves_tree_equivalent() {
    let mut checked = 0;
    for seed in seeds() {
        let data = random_dataset(seed);
        if !tie_free(&data) {
            continue; // exact ties make shape legitimately order-sensitive
        }
        let shuffled = permute_rows(&data, seed ^ 0xBEEF);
        let config = base_config();
        let t0 = ModelTree::fit(&data, &config).unwrap();
        let t1 = ModelTree::fit(&shuffled, &config).unwrap();
        assert_eq!(
            t0.n_leaves(),
            t1.n_leaves(),
            "seed {seed}: row order changed the tree shape"
        );
        let (e0, e1) = (t0.compile(), t1.compile());
        for (i, (sample, _)) in data.iter().enumerate() {
            if let Err(msg) = close_to(e0.predict(&sample), e1.predict(&sample), 1e-6) {
                panic!("seed {seed} row {i}: permutation moved a prediction: {msg}");
            }
        }
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} tie-free datasets in the pool");
}

#[test]
fn attribute_permutation_relabels_without_reshaping() {
    let (a, b) = (EventId::Load, EventId::Simd);
    let swap = |e: EventId| {
        if e == a {
            b
        } else if e == b {
            a
        } else {
            e
        }
    };
    // Swapping columns reorders the attribute scan, so an *exact*
    // cross-attribute SDR tie (two columns inducing the same best
    // y-partition) legitimately resolves to the other attribute. Such
    // ties are rare but real in the pool; the relation is asserted on a
    // matched-majority basis, and matched seeds are held to bit
    // exactness.
    let mut matched = 0usize;
    let mut total = 0usize;
    for seed in seeds() {
        let data = random_dataset(seed);
        let swapped = swap_columns(&data, a, b);
        let config = exact_config();
        let t0 = ModelTree::fit(&data, &config).unwrap();
        let t1 = ModelTree::fit(&swapped, &config).unwrap();
        total += 1;
        // Same shape and bit-equal thresholds, with the split events
        // mapped through the swap.
        let sig0: Vec<_> = split_signature(&t0)
            .into_iter()
            .map(|s| s.map(|(e, bits)| (swap(e), bits)))
            .collect();
        if sig0 != split_signature(&t1) {
            continue;
        }
        matched += 1;
        // Unsmoothed, unpruned predictions are leaf means: bit-exact
        // under the relabeling.
        let (e0, e1) = (t0.compile(), t1.compile());
        for (i, (sample, _)) in data.iter().enumerate() {
            let mut relabeled = sample.clone();
            relabeled.set(a, sample.get(b));
            relabeled.set(b, sample.get(a));
            assert_eq!(
                e0.predict(&sample).to_bits(),
                e1.predict(&relabeled).to_bits(),
                "seed {seed} row {i}: prediction moved under column swap"
            );
        }
    }
    assert!(
        matched * 5 >= total * 4,
        "column swap reshaped {}/{} trees — beyond what SDR ties explain",
        total - matched,
        total
    );
}

#[test]
fn affine_target_rescaling_preserves_shape() {
    for seed in seeds() {
        let data = random_dataset(seed);
        let config = base_config();
        let t0 = ModelTree::fit(&data, &config).unwrap();

        // Power-of-two scale, zero shift: every intermediate quantity
        // scales exactly, so shape and predictions are bit-exact.
        let scaled = rescale_target(&data, 4.0, 0.0);
        let t4 = ModelTree::fit(&scaled, &config).unwrap();
        assert_eq!(
            split_signature(&t0),
            split_signature(&t4),
            "seed {seed}: 4x target rescale reshaped the tree"
        );
        let (e0, e4) = (t0.compile(), t4.compile());
        for (i, (sample, _)) in data.iter().enumerate() {
            assert_eq!(
                (4.0 * e0.predict(&sample)).to_bits(),
                e4.predict(&sample).to_bits(),
                "seed {seed} row {i}: 4x rescale is not exact"
            );
        }
    }

    // General affine map. Small noise-only nodes rank attributes by
    // SDR margins as tight as the cancellation error of the variance
    // formula (~1e-12 relative after the +b shift), which rounding can
    // legitimately reorder — so the shape claim is depth-limited to
    // mostly signal-driven splits AND matched-majority across seeds.
    // Matched seeds must track the map to tight tolerance.
    let (a, b) = (1.7, 0.35);
    let mut matched = 0usize;
    let mut total = 0usize;
    for seed in seeds() {
        let data = random_dataset(seed);
        let config = exact_config().with_max_depth(4);
        let t0 = ModelTree::fit(&data, &config).unwrap();
        let affine = rescale_target(&data, a, b);
        let ta = ModelTree::fit(&affine, &config).unwrap();
        total += 1;
        // The root split is decisively signal-driven: it must never
        // move, whatever the rescale does to low-order bits.
        assert_eq!(
            split_signature(&t0).first(),
            split_signature(&ta).first(),
            "seed {seed}: affine rescale moved the root split"
        );
        if split_signature(&t0) != split_signature(&ta) {
            continue;
        }
        matched += 1;
        let (e0, ea) = (t0.compile(), ta.compile());
        for (i, (sample, _)) in data.iter().enumerate() {
            if let Err(msg) = close_to(a * e0.predict(&sample) + b, ea.predict(&sample), 1e-9) {
                panic!("seed {seed} row {i}: affine rescale broke prediction: {msg}");
            }
        }
    }
    assert!(
        matched * 3 >= total * 2,
        "affine rescale reshaped {}/{} depth-limited trees — beyond near-tie flips",
        total - matched,
        total
    );
}

#[test]
fn duplicated_rows_are_pure_reweighting() {
    for seed in seeds() {
        // Quantized targets make every CPI running sum exact, so the
        // doubled dataset's sums are exactly twice the original's and
        // the whole fit scales bit-exactly (see `quantize_target`).
        let data = quantize_target(&random_dataset(seed));
        let doubled = duplicate_rows(&data, 2);
        let config = exact_config();
        let mut config2 = exact_config().with_min_leaf(2 * config.min_leaf);
        config2.min_split = 2 * config.min_split;
        let t0 = ModelTree::fit(&data, &config).unwrap();
        let t1 = ModelTree::fit(&doubled, &config2).unwrap();
        assert_eq!(
            split_signature(&t0),
            split_signature(&t1),
            "seed {seed}: duplicating rows changed the tree shape"
        );
        let (e0, e1) = (t0.compile(), t1.compile());
        for (i, (sample, _)) in data.iter().enumerate() {
            assert_eq!(
                e0.predict(&sample).to_bits(),
                e1.predict(&sample).to_bits(),
                "seed {seed} row {i}: duplication reweighting moved a prediction"
            );
        }
    }
}

#[test]
fn non_finite_cells_are_rejected_not_mangled() {
    for seed in seeds() {
        let data = random_dataset(seed);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let poisoned = with_poisoned_cell(&data, bad, seed.wrapping_mul(31) + 1);
            match ModelTree::fit(&poisoned, &M5Config::default()) {
                Err(TreeError::NonFiniteAttribute(_)) => {}
                other => panic!(
                    "seed {seed}: poisoned cell ({bad}) gave {other:?} instead of \
                     NonFiniteAttribute"
                ),
            }
        }
    }
}

#[test]
fn all_equal_targets_collapse_to_one_constant_leaf() {
    for seed in seeds() {
        let data = all_equal_target_dataset(seed);
        let cpi = data.sample(0).cpi();
        for config in [M5Config::default(), exact_config()] {
            let tree = ModelTree::fit(&data, &config).unwrap();
            assert_eq!(tree.n_leaves(), 1, "seed {seed}: flat target still split");
            let engine = tree.compile();
            for (sample, _) in data.iter() {
                assert_eq!(engine.predict(&sample).to_bits(), cpi.to_bits());
            }
        }
    }
}

#[test]
fn min_leaf_one_produces_and_survives_single_row_leaves() {
    let config = M5Config::default()
        .with_min_leaf(1)
        .with_smoothing(false)
        .with_prune(false);
    let mut single_row_leaves = 0usize;
    for seed in seeds() {
        let data = random_dataset(seed);
        let tree = ModelTree::fit(&data, &config).unwrap();
        single_row_leaves += tree
            .node_ids()
            .filter(|&id| {
                let n = tree.node(id);
                matches!(n.kind(), NodeKind::Leaf { .. }) && n.n_samples() == 1
            })
            .count();
        // Every training sample still predicts finitely.
        assert!(tree.predict_all(&data).iter().all(|p| p.is_finite()));
    }
    assert!(
        single_row_leaves > 0,
        "the pool never exercised a single-row leaf"
    );
}

#[test]
fn near_tied_datasets_train_identically_to_reference() {
    // Belt-and-braces on top of the differential sweep: the dedicated
    // tie-heavy generator against the oracle at the tie-sensitive
    // corner (min_leaf = 1).
    let config = M5Config::default().with_min_leaf(1).with_smoothing(false);
    for seed in seeds() {
        let data = near_tied_dataset(seed);
        let reference = testkit::reference::RefTree::fit(&data, &config).unwrap();
        let tree = ModelTree::fit(&data, &config).unwrap();
        if let Err(mismatch) = reference.assert_matches(&tree) {
            panic!("seed {seed}: tie-heavy dataset diverged from reference: {mismatch}");
        }
    }
}

#[test]
fn adversarial_pool_is_actually_represented() {
    // The differential pool must keep drawing the adversarial flavors;
    // guard against a refactor quietly dropping them.
    let mut tiny = 0;
    let mut flat = 0;
    for d in 0..40 {
        let ds = differential_dataset(d);
        if ds.len() < 8 {
            tiny += 1;
        }
        let first = ds.sample(0).cpi();
        if (0..ds.len()).all(|i| ds.sample(i).cpi() == first) {
            flat += 1;
        }
    }
    assert!(tiny >= 3, "tiny datasets missing from the pool");
    assert!(flat >= 3, "flat-target datasets missing from the pool");
}
