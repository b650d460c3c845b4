// Aborts in non-test library code.

pub fn take(x: Option<u32>) -> u32 {
    x.unwrap() //~ unwrap_used
}

pub fn demand(x: Option<u32>) -> u32 {
    x.expect("present") //~ expect_used
}

pub fn boom() {
    panic!("boom"); //~ panic
}

pub fn dispatch(n: u32) -> u32 {
    match n {
        0 => todo!(), //~ todo
        1 => unimplemented!(), //~ unimplemented
        _ => unreachable!(), //~ unreachable
    }
}

pub fn legal(n: u32) {
    // assert! documents an invariant; it is not flagged.
    assert!(n < 100);
    debug_assert!(n != 13);
}

pub fn unwrap_shape(dims: &[usize]) -> usize {
    // A local function *named* like the method is fine: the lints
    // resolve the call to `Option::unwrap`/`Result::unwrap`.
    dims.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        Some(1).unwrap();
        let _ = std::fs::read("test code may touch files");
        let _ = std::sync::Mutex::new(0);
        panic!("test code may abort");
    }
}
