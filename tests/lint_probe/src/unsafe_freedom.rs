// `unsafe` is forbidden everywhere, test code included.

pub fn peek(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(0) } //~ unsafe_code
}

#[cfg(test)]
mod tests {
    #[test]
    fn not_exempt() {
        let _x: u32 = unsafe { std::mem::zeroed() }; //~ unsafe_code
    }
}
