// Nested `use` trees and renames: the path resolves to the same item,
// so the lint fires on the import and on every use through it.

use std::{sync::RwLock as L}; //~ disallowed_types

use std::{fs as f};

pub fn read(path: &str) -> std::io::Result<String> {
    f::read_to_string(path) //~ disallowed_methods
}

pub fn guarded(l: &L<u32>) -> u32 { //~ disallowed_types
    l.read().map(|g| *g).unwrap_or(0)
}
