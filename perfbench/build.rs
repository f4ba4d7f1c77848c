//! Records the version of the compiler that builds the benchmark, for
//! the host fingerprint stored with every result.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_owned());
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
