//! Helpers shared by `tests/architecture.rs` (the gate over the
//! workspace) and `tests/fixture_suite.rs` (the gate over the seeded
//! `tests/lint_probe/` crate): running clippy with the waiver-hygiene
//! flags, walking source trees, and the error-hygiene scan, which no
//! clippy lint covers.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

pub const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Waiver hygiene: an `#[expect]` nothing fulfils, or a misspelled lint
/// name, is an error rather than a warning.
const WAIVER_FLAGS: [&str; 4] = ["-D", "unfulfilled_lint_expectations", "-D", "unknown_lints"];

pub fn cargo_clippy(args: &[&str]) -> Output {
    Command::new(env!("CARGO"))
        .args(["clippy", "--offline"])
        .args(args)
        .arg("--")
        .args(WAIVER_FLAGS)
        .current_dir(ROOT)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo clippy: {e}"))
}

/// Every `.rs` file below `dir`, sorted.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return out };
    for entry in entries.map(|e| e.unwrap().path()) {
        if entry.is_dir() {
            out.extend(rust_files(&entry));
        } else if entry.extension().is_some_and(|x| x == "rs") {
            out.push(entry);
        }
    }
    out.sort();
    out
}

/// `path` below `base`, `/`-separated.
pub fn relative(base: &Path, path: &Path) -> String {
    path.strip_prefix(base).unwrap().to_string_lossy().replace('\\', "/")
}

/// The file with `//` comments cut and all whitespace removed, so that
/// attributes compare the same however rustfmt wraps them.
pub fn squashed_code(src: &str) -> String {
    src.lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .flat_map(str::chars)
        .filter(|c| !c.is_whitespace())
        .collect()
}

/// Error hygiene: the lines of `src` whose code (comments cut) boxes a
/// `dyn …Error…` trait object, which erases the typed error a caller
/// matches on. Items under `#[cfg(test)]` are skipped, as the lints
/// skip them: from the attribute to the line that closes the item's
/// braces or ends it with `;`.
pub fn erased_errors(src: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut test_item: Option<usize> = None;
    for (i, line) in src.lines().enumerate() {
        let code = squashed_code(line);
        if test_item.is_none() && code.starts_with("#[cfg(test)]") {
            test_item = Some(0);
        }
        if let Some(depth) = test_item {
            let opened = depth + code.matches('{').count();
            let depth = opened.saturating_sub(code.matches('}').count());
            let ended = depth == 0 && (code.contains('}') || code.ends_with(';'));
            test_item = (!ended).then_some(depth);
        } else if code.match_indices("Box<dyn").any(|(at, _)| {
            let object = &code[at + "Box<dyn".len()..];
            object[..object.find('>').unwrap_or(object.len())].contains("Error")
        }) {
            out.push(i + 1);
        }
    }
    out
}
