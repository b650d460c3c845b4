// Exemptions are lint attributes with a reason. An expectation that
// nothing fulfils and a misspelled lint name are themselves findings.

#[expect(clippy::unwrap_used, reason = "startup-only invariant; the process has no clients yet")]
pub fn startup(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[expect(clippy::panic, reason = "nothing in this function panics")] //~ unfulfilled_lint_expectations
pub fn clean() {}

#[expect(clippy::no_such_rule, reason = "misspelled lint names must be caught")] //~ unknown_lints
pub fn also_clean() {}
