//! Knob catalogue: the README's "Environment knobs" table must name
//! exactly the `SPECREPRO_*` environment variables that code under
//! `crates/` reads, so a new knob cannot ship undocumented and a
//! removed one cannot linger in the docs.
//!
//! "Reads" means: the name appears as a whole string literal in some
//! `.rs` file under `crates/` (`std::env::var("…")` and friends always
//! take one).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The prefix every knob shares, assembled at run time so this file
/// holds no literal that its own scan would count.
fn prefix() -> String {
    ["SPECREPRO", "_"].concat()
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Adds every string literal of `src` that is a whole knob name — a
/// double quote, `prefix`, then uppercase letters, digits and
/// underscores up to the closing quote — to `out`.
fn knob_literals(src: &str, prefix: &str, out: &mut BTreeSet<String>) {
    let needle = format!("\"{prefix}");
    let mut rest = src;
    while let Some(at) = rest.find(&needle) {
        let tail = &rest[at + 1..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        if tail[len..].starts_with('"') {
            out.insert(tail[..len].to_string());
        }
        rest = &tail[len..];
    }
}

/// The knob names in the first column of the README's "Environment
/// knobs" table.
fn readme_table(readme: &str, prefix: &str) -> BTreeSet<String> {
    let section = readme
        .split("\n## Environment knobs\n")
        .nth(1)
        .expect("README.md has an \"Environment knobs\" section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|cell| cell.split('`').next())
        .filter(|name| name.starts_with(prefix))
        .map(str::to_string)
        .collect()
}

#[test]
fn scanner_counts_only_whole_knob_literals() {
    let p = prefix();
    let src = format!(
        r#"env::var("{p}ONE"); env::var("{p}TWO_2"); let doc = "{p}lower";
        // {p}BARE in a comment, "{p}THREE" again, "see {p}FOUR""#
    );
    let mut found = BTreeSet::new();
    knob_literals(&src, &p, &mut found);
    let expect: BTreeSet<String> = ["ONE", "TWO_2", "THREE"]
        .iter()
        .map(|n| format!("{p}{n}"))
        .collect();
    assert_eq!(found, expect);
}

#[test]
fn readme_knob_table_matches_the_code() {
    let prefix = prefix();
    let root = repo_root();
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    let mut read = BTreeSet::new();
    for file in &files {
        knob_literals(&std::fs::read_to_string(file).unwrap(), &prefix, &mut read);
    }
    assert!(!read.is_empty(), "no knob literals found under crates/");
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let documented = readme_table(&readme, &prefix);
    let missing: Vec<_> = read.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&read).collect();
    assert!(
        missing.is_empty(),
        "knobs the code reads but the README table omits: {missing:?}"
    );
    assert!(
        stale.is_empty(),
        "knobs the README table names but no code reads: {stale:?}"
    );
}
