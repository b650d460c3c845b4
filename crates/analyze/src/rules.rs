//! The five architecture rules.
//!
//! Each rule is a visitor over one file's token stream. Rules see only
//! non-trivia tokens (comments and whitespace are gone) with a parallel
//! `in_test` mask marking tokens inside `#[cfg(test)]` / `#[test]`
//! items, so "non-test library code" is decided once, centrally.

use crate::diagnostics::Diagnostic;
use crate::lexer::Tok;

/// Per-file context handed to every rule.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: &'a str,
    /// Non-trivia tokens.
    pub toks: &'a [Tok],
    /// `in_test[i]` — token `i` is inside a test-only item.
    pub in_test: &'a [bool],
    /// Raw source lines (0-indexed) for snippets.
    pub lines: &'a [String],
    /// True for a library crate root (`…/src/lib.rs`), where
    /// `#![forbid(unsafe_code)]` is required.
    pub is_crate_root: bool,
}

impl FileCtx<'_> {
    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn diag(&self, rule: &'static str, tok: &Tok, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            file: self.rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: self.snippet(tok.line),
        }
    }
}

/// One architecture rule.
pub trait Rule {
    /// Stable rule id — what waivers, the allowlist, and the baseline
    /// reference.
    fn id(&self) -> &'static str;
    /// Why the rule exists; printed by `--explain`.
    fn explain(&self) -> &'static str;
    /// Whether findings inside `#[cfg(test)]`/`#[test]` items count.
    /// Default: test code is exempt.
    fn applies_in_tests(&self) -> bool {
        false
    }
    /// Scans one file.
    fn check(&self, ctx: &FileCtx<'_>) -> Vec<Diagnostic>;
}

/// All five rules, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(StorageBoundary),
        Box::new(PanicFreedom),
        Box::new(LockDiscipline),
        Box::new(UnsafeFreedom),
        Box::new(ErrorHygiene),
    ]
}

/// Is token `i` live for this rule (not in an exempt test item)?
fn live(rule: &dyn Rule, ctx: &FileCtx<'_>, i: usize) -> bool {
    rule.applies_in_tests() || !ctx.in_test.get(i).copied().unwrap_or(false)
}

/// Matches `toks[i..]` against a `::`-separated path given as segment
/// names, e.g. `["std", "sync"]` matches `std :: sync`. Returns the
/// index one past the match.
fn match_path(toks: &[Tok], i: usize, segments: &[&str]) -> Option<usize> {
    let mut j = i;
    for (n, seg) in segments.iter().enumerate() {
        if n > 0 {
            if !(toks.get(j)?.is_punct(':') && toks.get(j + 1)?.is_punct(':')) {
                return None;
            }
            j += 2;
        }
        if !toks.get(j)?.is_ident(seg) {
            return None;
        }
        j += 1;
    }
    Some(j)
}

// ---------------------------------------------------------------------
// storage-boundary
// ---------------------------------------------------------------------

/// `Arc<dyn Storage>` is the only sanctioned path to bytes: direct
/// `std::fs` / `File::open` use is confined (by allowlist) to the
/// storage backends, the results dump point, and the CLI.
pub struct StorageBoundary;

impl Rule for StorageBoundary {
    fn id(&self) -> &'static str {
        "storage-boundary"
    }

    fn explain(&self) -> &'static str {
        "Direct filesystem access (`std::fs`, `File::open`/`File::create`) bypasses the \
         `Storage` trait — the pluggable-backend boundary PR 6 established. Code that \
         touches bytes directly cannot be redirected to the in-memory, object-store, or \
         fault-injecting backends, silently escapes the cost model, and breaks the \
         conformance guarantees. Filesystem calls belong in `crates/store/src/storage/` \
         (the backends ARE the boundary) and in operator-facing binaries listed in \
         `analyze.toml`."
    }

    fn check(&self, ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let toks = ctx.toks;
        for i in 0..toks.len() {
            if !live(self, ctx, i) {
                continue;
            }
            if match_path(toks, i, &["std", "fs"]).is_some()
                && !(i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':'))
            {
                out.push(ctx.diag(
                    self.id(),
                    &toks[i],
                    "`std::fs` outside the storage boundary — go through `Arc<dyn Storage>`"
                        .into(),
                ));
            }
            if toks[i].is_ident("File")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks
                    .get(i + 3)
                    .is_some_and(|t| t.is_ident("open") || t.is_ident("create"))
            {
                out.push(ctx.diag(
                    self.id(),
                    &toks[i],
                    format!(
                        "`File::{}` outside the storage boundary — go through `Arc<dyn Storage>`",
                        toks[i + 3].text
                    ),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// panic-freedom
// ---------------------------------------------------------------------

/// Library code a serve daemon executes must return typed errors, not
/// abort the process.
pub struct PanicFreedom;

/// Macro names that abort: `panic!`, `unreachable!`, `todo!`,
/// `unimplemented!`. (`assert!` stays legal: invariant checks that
/// document impossibility are different from control flow by panic.)
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

impl Rule for PanicFreedom {
    fn id(&self) -> &'static str {
        "panic-freedom"
    }

    fn explain(&self) -> &'static str {
        "A panic in library code kills the whole serve daemon — one poisoned request takes \
         down every concurrent client. Library crates must surface failures as typed \
         `CodecError` values; `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`, `todo!`, \
         and `unimplemented!` are forbidden outside `#[cfg(test)]` code. Genuinely \
         impossible branches carry an inline `// eblcio-allow(panic-freedom): why` waiver."
    }

    fn check(&self, ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let toks = ctx.toks;
        for i in 0..toks.len() {
            if !live(self, ctx, i) {
                continue;
            }
            // `.unwrap()` / `.expect(` — method calls only, so local
            // functions named e.g. `unwrap_shape(…)` don't trip it.
            if i >= 1
                && toks[i - 1].is_punct('.')
                && (toks[i].is_ident("unwrap") || toks[i].is_ident("expect"))
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                out.push(ctx.diag(
                    self.id(),
                    &toks[i],
                    format!("`.{}(…)` in non-test library code — return a typed error", toks[i].text),
                ));
            }
            if PANIC_MACROS.iter().any(|m| toks[i].is_ident(m))
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                out.push(ctx.diag(
                    self.id(),
                    &toks[i],
                    format!("`{}!` in non-test library code — return a typed error", toks[i].text),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------

/// Poisoning `std::sync` locks are banned: one panicking thread would
/// poison the lock and error every later client. `parking_lot` only.
pub struct LockDiscipline;

const BANNED_SYNC: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

impl Rule for LockDiscipline {
    fn id(&self) -> &'static str {
        "lock-discipline"
    }

    fn explain(&self) -> &'static str {
        "`std::sync::Mutex`/`RwLock`/`Condvar` poison on panic: one crashed thread turns \
         every later lock acquisition into an error (or an unwrap-panic), cascading a \
         single fault across all clients of the serve path. The workspace standardizes on \
         the vendored poison-free `parking_lot` locks. `std::sync::Arc`, atomics, and \
         `OnceLock` remain fine — the rule targets the poisoning primitives only."
    }

    fn check(&self, ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let toks = ctx.toks;
        for i in 0..toks.len() {
            if !live(self, ctx, i) {
                continue;
            }
            let Some(after) = match_path(toks, i, &["std", "sync"]) else {
                continue;
            };
            // Not a longer path's tail (e.g. `foo::std::sync` cannot
            // occur, but be strict anyway).
            if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                continue;
            }
            // Scan the rest of this path / use-tree, which ends at the
            // statement's `;` (use items) or leaves the path grammar
            // (expressions). Flag banned primitives inside it.
            for t in &toks[after..] {
                if t.is_punct(';') {
                    break;
                }
                if BANNED_SYNC.iter().any(|b| t.is_ident(b)) {
                    out.push(ctx.diag(
                        self.id(),
                        t,
                        format!(
                            "`std::sync::{}` is poisoning — use the vendored `parking_lot::{}`",
                            t.text, t.text
                        ),
                    ));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// unsafe-freedom
// ---------------------------------------------------------------------

/// The workspace is 100% safe Rust, and stays that way.
pub struct UnsafeFreedom;

impl Rule for UnsafeFreedom {
    fn id(&self) -> &'static str {
        "unsafe-freedom"
    }

    fn explain(&self) -> &'static str {
        "The workspace currently contains zero `unsafe` blocks; every future one would be \
         a new class of risk the paper's reproduction does not need. Library crate roots \
         must carry `#![forbid(unsafe_code)]` so the compiler enforces it even when the \
         linter is not running; the rule flags any `unsafe` token and any library root \
         missing the attribute. Unlike the other rules, test code is NOT exempt."
    }

    fn applies_in_tests(&self) -> bool {
        true
    }

    fn check(&self, ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let toks = ctx.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.is_ident("unsafe") && live(self, ctx, i) {
                out.push(ctx.diag(
                    self.id(),
                    t,
                    "`unsafe` is forbidden workspace-wide".into(),
                ));
            }
        }
        if ctx.is_crate_root {
            // Look for the inner attribute `#![forbid(unsafe_code)]`.
            let mut found = false;
            for i in 0..toks.len() {
                if toks[i].is_punct('#')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
                    && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
                {
                    found = true;
                    break;
                }
            }
            if !found {
                out.push(Diagnostic {
                    rule: self.id(),
                    file: ctx.rel_path.to_string(),
                    line: 1,
                    col: 1,
                    message: "library crate root lacks `#![forbid(unsafe_code)]`".into(),
                    snippet: ctx.snippet(1),
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// error-hygiene
// ---------------------------------------------------------------------

/// Public APIs return typed errors, not `Box<dyn Error>`.
pub struct ErrorHygiene;

impl Rule for ErrorHygiene {
    fn id(&self) -> &'static str {
        "error-hygiene"
    }

    fn explain(&self) -> &'static str {
        "`Box<dyn Error>` in a public signature erases what can go wrong: callers cannot \
         match on failure modes (torn publish vs missing key vs corrupt stream), so they \
         either unwrap or blanket-retry. Public functions return the workspace's typed \
         `CodecError` (or a crate-local typed error) so failure handling stays explicit \
         all the way up the serve path."
    }

    fn check(&self, ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let toks = ctx.toks;
        let mut i = 0;
        while i < toks.len() {
            // `pub fn`, `pub(crate) fn`, `pub(in …) fn` all count: even
            // crate-visible APIs propagate erased errors outward.
            if !(toks[i].is_ident("pub") && live(self, ctx, i)) {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('(')) {
                let mut depth = 1;
                j += 1;
                while j < toks.len() && depth > 0 {
                    if toks[j].is_punct('(') {
                        depth += 1;
                    } else if toks[j].is_punct(')') {
                        depth -= 1;
                    }
                    j += 1;
                }
            }
            if !toks.get(j).is_some_and(|t| t.is_ident("fn")) {
                i += 1;
                continue;
            }
            // Scan the signature: everything up to the body `{` or a
            // trait-decl `;` at brace depth zero.
            let sig_start = j + 1;
            let mut end = sig_start;
            while end < toks.len() && !toks[end].is_punct('{') && !toks[end].is_punct(';') {
                end += 1;
            }
            let mut k = sig_start;
            while k + 2 < end {
                if toks[k].is_ident("Box")
                    && toks[k + 1].is_punct('<')
                    && toks[k + 2].is_ident("dyn")
                {
                    // Inside the box: a path ending in `Error` within
                    // the generic argument (covers `dyn Error`,
                    // `dyn std::error::Error + Send + Sync`).
                    let boxed_end = (k + 3..end)
                        .find(|&m| toks[m].is_punct('>'))
                        .unwrap_or(end);
                    if (k + 3..boxed_end).any(|m| toks[m].is_ident("Error")) {
                        out.push(ctx.diag(
                            self.id(),
                            &toks[k],
                            "`Box<dyn Error>` in a `pub fn` signature — return the typed \
                             `CodecError` instead"
                                .into(),
                        ));
                    }
                }
                k += 1;
            }
            i = end;
        }
        out
    }
}
