// Everything below looks like a violation but is inert: it sits in a
// string, a char literal, a comment or a doc comment, or is an
// invariant check or a non-poisoning `std::sync` type. Expected
// findings: none.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub fn tricky(s: &str) -> &str {
    let _c: char = 'x';
    let _esc: char = '\'';
    let _newline: char = '\n';
    let _s = "call .unwrap() and panic! now; also std::fs::File::open";
    let _raw = r#"std::sync::Mutex::new(0).lock().expect("poisoned")"#;
    let _deep = r##"nested raw with "# inside, plus .unwrap()"##;
    let _bytes = b"std::sync::Condvar and unsafe { }";
    let _braw = br#"File::create("x").unwrap()"#;
    // line comment: x.unwrap() and panic!("…")
    /* block comment: std::sync::RwLock
       /* nested block: unsafe { todo!() } */
       still inside the outer comment: File::open */
    s
}

/// Doc comment naming `std::fs` and `.expect(…)` and `Box<dyn Error>`.
pub fn documented(r: &[u8]) -> &[u8] {
    r
}

pub fn checked(n: &Arc<AtomicU64>) -> u64 {
    let v = n.load(Ordering::Relaxed);
    assert!(v < u64::MAX, "an invariant check is not a panic site");
    debug_assert_ne!(v, 13);
    v
}
