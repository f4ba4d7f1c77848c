//! End-to-end CLI workflow through temporary files: generate -> fit ->
//! predict/classify/transfer/subset/crossval, across all three dataset
//! formats.

use spec_cli::{run, Flags};

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("spec_cli_tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn full_workflow_csv() {
    let data = tmp("wf.csv");
    let other = tmp("wf_other.csv");
    let model = tmp("wf_model.json");

    let out = run(&argv(&[
        "generate",
        "--suite",
        "cpu2006",
        "--samples",
        "3000",
        "--seed",
        "5",
        "--out",
        &data,
    ]))
    .expect("generate");
    assert!(out.contains("3000 samples"));

    let out = run(&argv(&[
        "generate",
        "--suite",
        "cpu2006",
        "--samples",
        "1500",
        "--seed",
        "6",
        "--out",
        &other,
    ]))
    .expect("generate other");
    assert!(out.contains("1500 samples"));

    let out = run(&argv(&[
        "fit",
        "--data",
        &data,
        "--min-leaf",
        "60",
        "--out",
        &model,
        "--print",
        "summary",
    ]))
    .expect("fit");
    assert!(out.contains("model tree:"), "{out}");
    assert!(out.contains("training MAE"));

    let out = run(&argv(&["predict", "--model", &model, "--data", &other])).expect("predict");
    assert!(out.contains("MAE = "), "{out}");

    let out = run(&argv(&["classify", "--model", &model, "--data", &other])).expect("classify");
    assert!(out.contains("Suite"));
    assert!(out.contains("LM1"));

    let out = run(&argv(&[
        "transfer", "--model", &model, "--train", &data, "--test", &other,
    ]))
    .expect("transfer");
    assert!(out.contains("verdict"), "{out}");
    assert!(out.contains("TRANSFERABLE"));

    let out = run(&argv(&[
        "subset", "--model", &model, "--data", &data, "--k", "4", "--method", "greedy",
    ]))
    .expect("subset");
    assert!(out.contains("coverage"), "{out}");

    let out = run(&argv(&["similar", "--model", &model, "--data", &data])).expect("similar");
    assert!(out.contains("most similar"));

    let out = run(&argv(&[
        "crossval",
        "--data",
        &data,
        "--folds",
        "3",
        "--min-leaf",
        "60",
    ]))
    .expect("crossval");
    assert!(out.contains("3-fold CV"), "{out}");

    let out = run(&argv(&[
        "explain", "--model", &model, "--data", &other, "--row", "7",
    ]))
    .expect("explain");
    assert!(out.contains("predicted CPI"), "{out}");
    assert!(out.contains("sample 7"));
    let err = run(&argv(&[
        "explain", "--model", &model, "--data", &other, "--row", "99999",
    ]))
    .unwrap_err();
    assert!(err.0.contains("out of range"));

    let out = run(&argv(&["stats", "--data", &data])).expect("stats");
    assert!(out.contains("CPI"), "{out}");
    assert!(out.contains("DtlbMiss"));
}

#[test]
fn arff_and_json_formats_roundtrip_through_cli() {
    let csv = tmp("fmt.csv");
    let arff = tmp("fmt.arff");
    let json = tmp("fmt.json");
    run(&argv(&[
        "generate",
        "--suite",
        "omp2001",
        "--samples",
        "500",
        "--seed",
        "7",
        "--out",
        &csv,
    ]))
    .expect("generate");

    // Convert by reading + writing through the library helpers.
    let ds = spec_cli::read_dataset(&csv).expect("read csv");
    spec_cli::write_dataset(&ds, &arff).expect("write arff");
    spec_cli::write_dataset(&ds, &json).expect("write json");

    let from_arff = spec_cli::read_dataset(&arff).expect("read arff");
    let from_json = spec_cli::read_dataset(&json).expect("read json");
    assert_eq!(from_arff.len(), ds.len());
    assert_eq!(from_json.len(), ds.len());

    // A model fit on one format predicts identically on another.
    let model = tmp("fmt_model.json");
    run(&argv(&[
        "fit",
        "--data",
        &arff,
        "--min-leaf",
        "30",
        "--out",
        &model,
    ]))
    .expect("fit on arff");
    let a = run(&argv(&["predict", "--model", &model, "--data", &json])).expect("predict json");
    let b = run(&argv(&["predict", "--model", &model, "--data", &csv])).expect("predict csv");
    assert_eq!(a, b);
}

#[test]
fn fit_print_modes() {
    let data = tmp("modes.csv");
    run(&argv(&[
        "generate",
        "--suite",
        "cpu2006",
        "--samples",
        "1000",
        "--seed",
        "8",
        "--out",
        &data,
    ]))
    .expect("generate");
    for (mode, marker) in [
        ("tree", "?"),
        ("models", "CPI ="),
        ("importance", "%"),
        ("summary", "model tree:"),
        ("dot", "digraph"),
    ] {
        let out = run(&argv(&[
            "fit",
            "--data",
            &data,
            "--min-leaf",
            "50",
            "--print",
            mode,
        ]))
        .expect(mode);
        assert!(out.contains(marker), "mode {mode}: {out}");
    }
    let err = run(&argv(&["fit", "--data", &data, "--print", "nonsense"])).unwrap_err();
    assert!(err.0.contains("unknown --print"));
}

#[test]
fn subset_k_bounds_checked() {
    let data = tmp("bounds.csv");
    let model = tmp("bounds_model.json");
    run(&argv(&[
        "generate",
        "--suite",
        "omp2001",
        "--samples",
        "800",
        "--seed",
        "9",
        "--out",
        &data,
    ]))
    .expect("generate");
    run(&argv(&[
        "fit",
        "--data",
        &data,
        "--min-leaf",
        "40",
        "--out",
        &model,
    ]))
    .expect("fit");
    let err = run(&argv(&[
        "subset", "--model", &model, "--data", &data, "--k", "0",
    ]))
    .unwrap_err();
    assert!(err.0.contains("out of range"));
    let err = run(&argv(&[
        "subset", "--model", &model, "--data", &data, "--k", "99",
    ]))
    .unwrap_err();
    assert!(err.0.contains("out of range"));
}

#[test]
fn flags_reachable_from_integration() {
    let f = Flags::parse(&argv(&["--k", "3"]), &["k"]).unwrap();
    assert_eq!(f.parsed_or::<usize>("k", 0).unwrap(), 3);
}

#[test]
fn generate_writes_identical_files_on_any_thread_count() {
    // Each run gets its own empty artifact store, so both generate
    // cold: with a shared store the second run would replay the first
    // run's cached bytes and prove nothing.
    let dir = std::env::temp_dir().join(format!("spec_cli_threads_{}", std::process::id()));
    let mut files = Vec::new();
    for threads in ["1", "4"] {
        let out = dir.join(format!("t{threads}.csv"));
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_specrepro"))
            .args(["generate", "--suite", "omp2001", "--samples", "1200"])
            .args(["--seed", "11", "--threads", threads, "--out"])
            .arg(&out)
            .env("SPECREPRO_CACHE_DIR", dir.join(format!("store{threads}")))
            .env("SPECREPRO_OBS_LOG", "0")
            .status()
            .expect("run specrepro");
        assert!(status.success(), "--threads {threads}: {status}");
        files.push(std::fs::read(&out).expect("generated file"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(files[0].len() > 1200, "the file holds the samples");
    assert!(
        files[0] == files[1],
        "--threads 1 and --threads 4 wrote different files"
    );
}
