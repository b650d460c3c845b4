//! The architecture gate's self-test: `tests/lint_probe/` is a crate of
//! seeded violations, one file per rule, each line marked with the lint
//! that must fire on it (`//~ disallowed_types`, `//~ error_hygiene`).
//! Clippy lints the probe once with the workspace's `clippy.toml`, the
//! error-hygiene scan reads its sources, and each test compares one
//! file's (line, lint) findings with its markers — so a `clippy.toml`
//! edit or a scan change that over- or under-reports a rule fails with
//! that rule's name.

mod lint_gate;

use lint_gate::{cargo_clippy, erased_errors, relative, rust_files, ROOT};
use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// One finding: (file relative to the probe, 1-based line, lint name
/// without its `clippy::` prefix).
type Finding = (String, usize, String);

/// One lint of the probe: what its markers expect and what was found.
struct ProbeRun {
    expected: BTreeSet<Finding>,
    found: BTreeSet<Finding>,
    stderr: String,
}

fn probe_dir() -> PathBuf {
    Path::new(ROOT).join("tests/lint_probe")
}

/// The `//~ lint` markers of every probe source file.
fn probe_markers(probe: &Path) -> BTreeSet<Finding> {
    let mut out = BTreeSet::new();
    for file in rust_files(&probe.join("src")) {
        let rel = relative(probe, &file);
        for (i, line) in std::fs::read_to_string(&file).unwrap().lines().enumerate() {
            for marker in line.split("//~ ").skip(1) {
                let lint = marker.split_whitespace().next().unwrap_or("");
                assert!(!lint.is_empty(), "{rel}:{}: bare //~ marker", i + 1);
                out.insert((rel.clone(), i + 1, lint.to_string()));
            }
        }
    }
    out
}

/// The error-level diagnostics of one `--message-format=json` run.
fn json_errors(stdout: &[u8]) -> BTreeSet<Finding> {
    let mut out = BTreeSet::new();
    for line in String::from_utf8_lossy(stdout).lines() {
        let Ok(msg) = serde_json::from_str::<Value>(line) else { continue };
        let Some(msg) = msg.get("message") else { continue };
        let code = msg.get("code").and_then(|c| c.get("code")).and_then(Value::as_str);
        let (Some(code), Some("error")) = (code, msg.get("level").and_then(Value::as_str)) else {
            continue;
        };
        let spans = msg.get("spans").and_then(Value::as_seq).unwrap_or(&[]);
        let primary = |s: &&Value| matches!(s.get("is_primary"), Some(Value::Bool(true)));
        for span in spans.iter().filter(primary) {
            let file = span.get("file_name").and_then(Value::as_str).unwrap_or("?");
            let line = span.get("line_start").and_then(Value::as_f64).unwrap_or(0.0) as usize;
            let lint = code.strip_prefix("clippy::").unwrap_or(code);
            out.insert((file.to_string(), line, lint.to_string()));
        }
    }
    out
}

/// Lints the probe once per test binary; every test reads the result.
fn probe_run() -> &'static ProbeRun {
    static RUN: OnceLock<ProbeRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let probe = probe_dir();
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_probe");
        let manifest = probe.join("Cargo.toml");
        // `--all-targets` also builds the probe's `cfg(test)` code, where
        // only `unsafe_code` may fire; `--keep-going` builds it although
        // the library fails.
        let out = cargo_clippy(&[
            "--manifest-path",
            manifest.to_str().unwrap(),
            "--target-dir",
            target.to_str().unwrap(),
            "--all-targets",
            "--keep-going",
            "--message-format=json",
        ]);
        let mut found = json_errors(&out.stdout);
        for file in rust_files(&probe.join("src")) {
            let (rel, src) = (relative(&probe, &file), std::fs::read_to_string(&file).unwrap());
            let hygiene = erased_errors(&src).into_iter();
            found.extend(hygiene.map(|n| (rel.clone(), n, "error_hygiene".to_string())));
        }
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        ProbeRun { expected: probe_markers(&probe), found, stderr }
    })
}

/// Asserts that the findings in the probe's `src/<name>` equal its
/// markers, and returns how many markers it has.
fn assert_fixture_matches(name: &str) -> usize {
    let file = probe_dir().join("src").join(name);
    assert!(file.is_file(), "the probe lost its fixture {}", file.display());
    let run = probe_run();
    let rel = format!("src/{name}");
    let in_file = |set: &BTreeSet<Finding>| -> Vec<(usize, String)> {
        set.iter().filter(|f| f.0 == rel).map(|f| (f.1, f.2.clone())).collect()
    };
    let (found, expected) = (in_file(&run.found), in_file(&run.expected));
    assert_eq!(
        found, expected,
        "\nfixture {rel}: reported (left) != //~ markers (right)\n--- cargo stderr ---\n{}",
        run.stderr
    );
    expected.len()
}

#[test]
fn storage_boundary_fixture() {
    assert!(assert_fixture_matches("storage_boundary.rs") > 0);
}

#[test]
fn nested_imports_fixture() {
    assert!(assert_fixture_matches("nested_use.rs") > 0);
}

#[test]
fn panic_freedom_fixture() {
    assert!(assert_fixture_matches("panic_freedom.rs") > 0);
}

#[test]
fn lock_discipline_fixture() {
    assert!(assert_fixture_matches("lock_discipline.rs") > 0);
}

#[test]
fn unsafe_freedom_fixture() {
    assert!(assert_fixture_matches("unsafe_freedom.rs") > 0);
}

#[test]
fn error_hygiene_fixture() {
    assert!(assert_fixture_matches("error_hygiene.rs") > 0);
}

#[test]
fn lexer_edge_cases_produce_no_findings() {
    // Violations hidden in strings, chars, comments and doc comments.
    assert_eq!(assert_fixture_matches("inert.rs"), 0);
}

#[test]
fn waiver_fixture() {
    assert!(assert_fixture_matches("waivers.rs") > 0);
}

#[test]
fn lint_probe_findings_match_its_markers() {
    // The whole probe, so a finding in a file no test above names
    // (the crate root, a new fixture) fails too.
    let run = probe_run();
    assert!(run.expected.len() > 20, "the probe lost its markers: {:?}", run.expected);
    let missed: Vec<_> = run.expected.difference(&run.found).collect();
    let extra: Vec<_> = run.found.difference(&run.expected).collect();
    assert!(
        missed.is_empty() && extra.is_empty(),
        "lint probe: marked but not reported {missed:#?}\nreported but not marked {extra:#?}\n\
         --- cargo stderr ---\n{}",
        run.stderr
    );
}
