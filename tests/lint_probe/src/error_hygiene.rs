// Erased error types. Every `Box<dyn …Error…>` outside `cfg(test)`
// code is a finding, public or not; the architecture tests scan for
// it, as no clippy lint does.

use std::error::Error;

pub struct CodecError;

pub fn load(path: &str) -> Result<Vec<u8>, Box<dyn std::error::Error>> { //~ error_hygiene
    let _ = path;
    Ok(Vec::new())
}

pub(crate) fn send() -> Result<(), Box<dyn Error + Send + Sync>> { //~ error_hygiene
    Ok(())
}

pub fn typed() -> Result<(), CodecError> {
    // Typed errors are the point.
    Ok(())
}

fn private() -> Result<(), Box<dyn std::error::Error>> { //~ error_hygiene
    Ok(())
}

pub fn boxed_data(items: Box<dyn Iterator<Item = u32>>) -> usize {
    // Box<dyn …> of a non-Error trait is fine.
    items.count()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_erase() -> Result<(), Box<dyn std::error::Error>> {
        Ok(())
    }
}

#[cfg(test)]
fn helper() -> Box<dyn std::error::Error> {
    "test helpers may erase too".into()
}

pub fn after_the_test_items() -> Option<Box<dyn std::error::Error + Send>> { //~ error_hygiene
    None
}
