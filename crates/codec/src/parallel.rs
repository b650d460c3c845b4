//! The shared rayon pools behind every thread-parallel path: the
//! chunked store's writes and reads, and with them the paper's "OpenMP
//! mode" (§IV-C, Fig. 10), which `eblcio_core`'s campaign runs as a
//! store with one dimension-0 slab per thread.

use crate::error::{CodecError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The widest pool [`pool_for`] builds. Building one starts all its
/// helper threads at once and keeps them for the life of the process,
/// so a width that only a typo or a hostile flag asks for is refused
/// before any thread starts.
const MAX_THREADS: usize = 1024;

/// Reuses one rayon pool per thread count across calls — pool spin-up
/// would otherwise dominate small-problem strong-scaling measurements.
/// A cached pool is never dropped, so its `threads − 1` parked helper
/// threads live as long as the process, as real rayon's global pool
/// does.
///
/// The registry lock is a `parking_lot::Mutex`, which has no poisoning:
/// a panic inside one compression job (worker panics propagate through
/// `install`) must not wedge the shared registry for every later caller
/// the way a poisoned `std::sync::Mutex` would.
///
/// Public so other parallel consumers (the chunked store) share the
/// same pools instead of spinning up competing ones. A width above
/// 1024 is a [`CodecError::TooManyThreads`]; `0` is the machine's
/// parallelism. A helper thread that cannot start is a
/// [`CodecError::ThreadStart`].
pub fn pool_for(threads: usize) -> Result<Arc<rayon::ThreadPool>> {
    if threads > MAX_THREADS {
        return Err(CodecError::TooManyThreads { threads, max: MAX_THREADS });
    }
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = pools.lock();
    if let Some(p) = guard.get(&threads) {
        return Ok(p.clone());
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|_| CodecError::ThreadStart { threads })?;
    let pool = Arc::new(pool);
    guard.insert(threads, pool.clone());
    Ok(pool)
}
