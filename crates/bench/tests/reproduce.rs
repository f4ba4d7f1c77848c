//! The `reproduce` entry point's command-line contract.

use std::process::Command;

use spec_bench::artifacts::REGISTRY;

#[test]
fn unknown_entry_is_rejected_before_anything_is_written() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["table1", "no_such_entry"])
        .output()
        .expect("reproduce starts");
    assert!(!out.status.success(), "an unknown name must fail");
    // Every written file is reported on stdout, so an empty stdout
    // means `table1` was not written either.
    assert!(
        out.stdout.is_empty(),
        "wrote before rejecting: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_entry"), "{stderr}");
    for entry in REGISTRY {
        assert!(
            stderr.contains(entry.name),
            "{} not listed: {stderr}",
            entry.name
        );
    }
}
