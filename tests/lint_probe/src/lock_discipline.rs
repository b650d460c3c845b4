// Poisoning std::sync primitives.

use std::sync::Mutex; //~ disallowed_types

use std::sync::{Arc, Condvar}; //~ disallowed_types

use std::sync::atomic::AtomicU64;

pub fn guarded(m: &std::sync::RwLock<u32>) -> u32 { //~ disallowed_types
    m.read().map(|g| *g).unwrap_or(0)
}

pub fn fine(n: &AtomicU64, a: Arc<u32>) -> u64 {
    // parking_lot types and std::sync::Arc/atomics are allowed.
    let _ = a;
    n.load(std::sync::atomic::Ordering::Relaxed)
}
