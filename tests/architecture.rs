//! The workspace's architecture gate, as a tier-1 test.
//!
//! Four of the five rules are clippy lints whose lists live in the
//! root `clippy.toml`: storage boundary (`disallowed_methods` and
//! `disallowed_types` over `std::fs`), lock discipline
//! (`disallowed_types` over `std::sync::{Mutex, RwLock, Condvar}`) and
//! panic freedom (`unwrap_used`, `expect_used`, `panic`, `unreachable`,
//! `todo`, `unimplemented`). Every library and binary root denies them
//! outside `cfg(test)` and forbids `unsafe_code` (the fifth rule).
//! Error hygiene has no clippy lint, so this file scans for it.
//!
//! The tests here run clippy over the workspace, check that every root
//! carries its deny line, that every exemption names a reason, and that
//! no code erases an error type. `tests/fixture_suite.rs` checks that the
//! same lints and scan catch every seeded violation in
//! `tests/lint_probe/`.

mod lint_gate;

use lint_gate::{cargo_clippy, erased_errors, relative, rust_files, squashed_code, ROOT};
use std::path::{Path, PathBuf};

/// The lints every library root denies outside `cfg(test)`.
const ROOT_LINTS: [&str; 8] = [
    "disallowed_methods",
    "disallowed_types",
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Binaries exempt from a rule deny only the lints listed here. A
/// binary not listed denies all of [`ROOT_LINTS`].
const BIN_LINTS: [(&str, &[&str]); 2] = [
    // One-shot operator tools: a panic aborts one run on a terminal,
    // not a serve daemon under many clients.
    ("crates/bench/src/bin/", &["disallowed_methods", "disallowed_types"]),
    // The CLI reads and writes raw sample files and the flight-recorder
    // dump (every store file goes through `named_backend`); a bad
    // argument aborts one invocation.
    ("src/bin/eblcio.rs", &["disallowed_types"]),
];

#[test]
fn workspace_passes_the_architecture_lints() {
    let out = cargo_clippy(&["--workspace", "--lib", "--bins"]);
    assert!(
        out.status.success(),
        "architecture lints failed (fix the code, or exempt the item with \
         #[allow(clippy::<lint>, reason = \"…\")]):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Every `src/` tree the rules govern: the root package's and each
/// workspace crate's (not `vendor/`, which stands in for external
/// crates).
fn source_trees() -> Vec<PathBuf> {
    let mut trees = vec![Path::new(ROOT).join("src")];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(Path::new(ROOT).join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    trees.extend(crates);
    trees
}

fn deny_line(lints: &[&str]) -> String {
    let lints: Vec<String> = lints.iter().map(|l| format!("clippy::{l}")).collect();
    format!("#![cfg_attr(not(test),deny({}))]", lints.join(","))
}

#[test]
fn every_root_denies_the_architecture_lints() {
    let mut roots: Vec<PathBuf> = vec![Path::new(ROOT).join("tests/lint_probe/src/lib.rs")];
    for tree in source_trees() {
        let files = ["lib.rs", "main.rs"].map(|f| tree.join(f));
        roots.extend(files.into_iter().filter(|p| p.exists()));
        roots.extend(rust_files(&tree.join("bin")));
    }
    let mut bad = Vec::new();
    for root in &roots {
        let rel = relative(Path::new(ROOT), root);
        let lints = BIN_LINTS
            .iter()
            .find(|(prefix, _)| rel.starts_with(prefix))
            .map_or(&ROOT_LINTS[..], |(_, lints)| lints);
        let code = squashed_code(&std::fs::read_to_string(root).unwrap());
        for required in ["#![forbid(unsafe_code)]".to_string(), deny_line(lints)] {
            if !code.contains(&required) {
                bad.push(format!("{rel}: missing {required}"));
            }
        }
    }
    assert!(roots.len() >= 16, "found only {} roots: {roots:?}", roots.len());
    assert!(bad.is_empty(), "crate roots without their architecture lines:\n{}", bad.join("\n"));
}

#[test]
fn every_exemption_names_a_reason() {
    let mut bad = Vec::new();
    for file in source_trees().iter().flat_map(|t| rust_files(t)) {
        let code = squashed_code(&std::fs::read_to_string(&file).unwrap());
        for opener in ["#[allow(", "#![allow(", "#[expect(", "#![expect("] {
            for (at, _) in code.match_indices(opener) {
                let attr = &code[at..];
                let mut depth = 0;
                let end = attr
                    .char_indices()
                    .find(|&(_, c)| {
                        depth += i32::from(c == '(') - i32::from(c == ')');
                        c == ')' && depth == 0
                    })
                    .map_or(attr.len(), |(i, _)| i + 1);
                let attr = &attr[..end];
                let rule = ROOT_LINTS.iter().any(|l| attr.contains(&format!("clippy::{l}")));
                if rule && !attr.contains("reason=") {
                    bad.push(format!("{}: {attr}", relative(Path::new(ROOT), &file)));
                }
            }
        }
    }
    assert!(bad.is_empty(), "architecture exemptions without a reason:\n{}", bad.join("\n"));
}

#[test]
fn no_code_erases_its_error_type() {
    let mut bad = Vec::new();
    for file in source_trees().iter().flat_map(|t| rust_files(t)) {
        let src = std::fs::read_to_string(&file).unwrap();
        let rel = relative(Path::new(ROOT), &file);
        bad.extend(erased_errors(&src).into_iter().map(|n| format!("{rel}:{n}")));
    }
    assert!(
        bad.is_empty(),
        "Box<dyn Error> erases the typed error (return CodecError or the crate's own error \
         enum):\n{}",
        bad.join("\n")
    );
}
