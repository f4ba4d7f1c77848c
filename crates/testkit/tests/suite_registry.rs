//! Suite-registry fingerprint stability.
//!
//! The generation-parameterized registry refactor replaced the closed
//! two-variant `SuiteKind` enum with registry-backed suite handles. The
//! compatibility contract is that every **legacy** cache key is
//! byte-identical to its pre-refactor value — otherwise a warm artifact
//! store silently goes cold and every golden regenerates from different
//! artifacts. The hex constants below were captured from the
//! pre-refactor fingerprint code and change only when the content under
//! the keys does: a dataset key folds in
//! `workloads::GENERATOR_VERSION`, so a generator whose output differs
//! moves every dataset key (and every key derived from one) and must
//! re-pin these constants in the same change. Generator version 2 (the
//! ziggurat sampler with one stream per benchmark block) re-pinned all
//! eight; `SCHEMA_VERSION` did not move.
//!
//! New (post-refactor) suites are keyed by a content fingerprint over
//! their `SuiteDef` instead of a frozen token, so their keys must be a
//! pure function of the definition — invariant to registry insertion
//! order and to everything else about the process.

use pipeline::{
    suite_def_fingerprint, DatasetSpec, SplitPart, SplitSpec, SuiteKind, TransferPart,
    TransferSplitSpec, TreeSpec, SEED_CPU2006, SEED_SPLIT,
};

fn hex(fp: pipeline::Fingerprint) -> String {
    format!("{:032x}", fp.0)
}

/// Every legacy cache key, byte-identical to the pre-refactor enum
/// implementation at generator version 2. A failure here means warm
/// stores and all E2–E7 goldens are invalidated.
#[test]
fn legacy_fingerprints_are_bit_stable() {
    let cpu = DatasetSpec::cpu2006();
    let omp = DatasetSpec::omp2001();
    assert_eq!(hex(cpu.fingerprint()), "5fab27869b58ed028dd625faf4f64953");
    assert_eq!(hex(omp.fingerprint()), "90f068f6e2c9707eed5363a9e4888aeb");

    let member = DatasetSpec::new(SuiteKind::cpu2006(), 4_000, SEED_CPU2006 ^ 0xbe9c)
        .with_benchmark("429.mcf");
    assert_eq!(
        hex(member.fingerprint()),
        "8b4949399bda07ec37f0440b9d0b7c0b"
    );

    let mem = DatasetSpec::omp2001().with_memory_pressure(1.5);
    assert_eq!(hex(mem.fingerprint()), "9eec0ff76fcf60201eac6b71fd722efd");

    let split = SplitSpec::new(DatasetSpec::cpu2006(), SEED_SPLIT, 0.5);
    assert_eq!(
        hex(split.part_fingerprint(SplitPart::First)),
        "56119e6421a7a82206d0fa326af2be3f"
    );

    let transfer = TransferSplitSpec::canonical();
    assert_eq!(
        hex(transfer.part_fingerprint(TransferPart::CpuTrain)),
        "dfe98eee06a99e39d18b3b7693dd716c"
    );

    assert_eq!(
        hex(TreeSpec::suite_tree(DatasetSpec::cpu2006()).fingerprint()),
        "bf09dee37722ea78bb2e2247aff40be3"
    );
    assert_eq!(
        hex(TreeSpec::suite_tree(DatasetSpec::omp2001()).fingerprint()),
        "400791e2c6a026fb08505d0f4abcf6ec"
    );
}

/// Legacy suites keep their frozen string tokens; new suites are keyed
/// by content (`sdef-<hex>`), never by a frozen name.
#[test]
fn legacy_tokens_frozen_new_tokens_content_derived() {
    assert_eq!(SuiteKind::cpu2006().fingerprint_token(), "cpu2006");
    assert_eq!(SuiteKind::omp2001().fingerprint_token(), "omp2001");
    for kind in [SuiteKind::cpu2017(), SuiteKind::cpu2026()] {
        let token = kind.fingerprint_token();
        let expected = format!("sdef-{}", hex(suite_def_fingerprint(kind.def())));
        assert_eq!(
            token,
            expected,
            "{} token is not content-derived",
            kind.tag()
        );
    }
}

/// A new suite's fingerprint is a pure function of its definition:
/// independent of where the suite sits in the registry (probed through
/// both registry-ordered iteration and direct tag lookup) and stable
/// across repeated computation.
#[test]
fn new_suite_fingerprints_are_insertion_order_invariant() {
    // Direct content fingerprints, straight off the statics.
    let direct: Vec<(String, String)> = [SuiteKind::cpu2017(), SuiteKind::cpu2026()]
        .iter()
        .map(|k| (k.tag().to_owned(), hex(suite_def_fingerprint(k.def()))))
        .collect();
    // The same suites reached through registry iteration order...
    for kind in SuiteKind::all() {
        if let Some((_, expected)) = direct.iter().find(|(tag, _)| tag == kind.tag()) {
            assert_eq!(&hex(suite_def_fingerprint(kind.def())), expected);
        }
    }
    // ...and through reversed-order lookup by tag.
    for (tag, expected) in direct.iter().rev() {
        let kind = SuiteKind::by_tag(tag).expect("registered suite");
        assert_eq!(&hex(suite_def_fingerprint(kind.def())), expected);
        // Recomputation is stable.
        assert_eq!(&hex(suite_def_fingerprint(kind.def())), expected);
    }
}

/// The content fingerprint covers the definition, not the pointer: two
/// structurally identical defs hash identically, and any content
/// difference (here: generation year) changes the key.
#[test]
fn suite_def_fingerprint_is_content_only() {
    fn one_bench() -> Vec<workloads::phases::BenchmarkModel> {
        vec![workloads::phases::BenchmarkModel::new("x.bench", 1.0)
            .phase(workloads::phases::Phase::new("only", 1.0))]
    }
    static A: workloads::SuiteDef = workloads::SuiteDef {
        tag: "synthetic",
        display_name: "Synthetic",
        generation: 2030,
        environment: workloads::Environment::SingleThreaded,
        benchmarks: one_bench,
        legacy_token: None,
    };
    static B: workloads::SuiteDef = workloads::SuiteDef {
        tag: "synthetic",
        display_name: "Synthetic",
        generation: 2030,
        environment: workloads::Environment::SingleThreaded,
        benchmarks: one_bench,
        legacy_token: None,
    };
    static C: workloads::SuiteDef = workloads::SuiteDef {
        tag: "synthetic",
        display_name: "Synthetic",
        generation: 2031,
        environment: workloads::Environment::SingleThreaded,
        benchmarks: one_bench,
        legacy_token: None,
    };
    assert_eq!(suite_def_fingerprint(&A), suite_def_fingerprint(&B));
    assert_ne!(suite_def_fingerprint(&A), suite_def_fingerprint(&C));
}

/// The four registered suites resolve distinct dataset cache keys at
/// canonical parameters — no accidental key collisions across
/// generations.
#[test]
fn canonical_dataset_keys_are_distinct_across_suites() {
    let keys: Vec<String> = SuiteKind::all()
        .into_iter()
        .map(|k| hex(DatasetSpec::canonical(k).fingerprint()))
        .collect();
    let unique: std::collections::HashSet<&String> = keys.iter().collect();
    assert_eq!(unique.len(), keys.len(), "duplicate keys: {keys:?}");
}
