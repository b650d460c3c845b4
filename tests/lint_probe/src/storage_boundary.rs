// Filesystem touches outside the storage boundary.

// A bare module import touches nothing by itself, so no lint fires on
// it; every call through it is caught where it is made (below).
use std::fs;

pub fn read_config(path: &str) -> std::io::Result<String> {
    std::fs::read_to_string(path) //~ disallowed_methods
}

pub fn open_raw(path: &str) -> std::io::Result<fs::File> { //~ disallowed_types
    fs::File::open(path) //~ disallowed_methods //~ disallowed_types
}

pub fn touch(path: &str) {
    let _ = fs::File::create(path); //~ disallowed_methods //~ disallowed_types
}

pub fn no_findings_here(bytes: &[u8]) -> usize {
    // A comment naming std::fs::File::open is not a violation.
    let _ = "neither is the string std::fs::remove_file";
    bytes.len()
}
