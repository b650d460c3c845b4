//! A sharded, capacity-bounded LRU cache of *decoded* chunks.
//!
//! Serving repeated, overlapping region reads from a compressed store
//! spends nearly all its time decompressing the same chunks again and
//! again — the compressed bytes are already in memory (or the page
//! cache), so the decode is the hot path worth caching. This cache
//! holds decoded chunks behind `Arc`s so concurrent readers share one
//! copy, bounds its footprint in *bytes* (decoded chunks dwarf their
//! compressed payloads at high compression ratios), and splits the key
//! space across independently locked ways so readers hammering
//! different chunks don't serialize on one lock.
//!
//! Since stores became mutable, a chunk index alone no longer names
//! content: generation N+1 may have rewritten chunk *i*. Entries are
//! therefore keyed by [`ChunkKey`] — the chunk index *plus* the
//! chunk's content fingerprint (the writing generation folded with the
//! object's payload CRC, see `ChunkedStore::chunk_fingerprint`). A
//! reader that refreshes to a newer generation looks chunks up under
//! the new fingerprints, so a stale hit after refresh is impossible by
//! construction: the old entries' keys can never be asked for again.

use eblcio_data::{Element, NdArray};
use eblcio_obs::Counter;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache key: `(chunk index, content fingerprint)`. Within one store
/// lineage the pair uniquely identifies the chunk's bytes; static
/// (immutable) stores use fingerprint 0 everywhere.
pub type ChunkKey = (usize, u64);

/// Configuration for a [`DecodedChunkCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total decoded-byte budget across all ways. `0` disables the
    /// cache entirely (every insert is dropped) — the spelling benches
    /// use for an "uncached" reader. Any nonzero budget guarantees each
    /// way can admit at least one entry, however small the budget or
    /// large the chunk (see [`DecodedChunkCache::insert`]).
    pub capacity_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::with_capacity_mib(256)
    }
}

impl CacheConfig {
    /// A cache bounded to `mib` mebibytes.
    pub fn with_capacity_mib(mib: usize) -> Self {
        Self { capacity_bytes: mib << 20 }
    }
}

/// Independently locked ways the key space is sharded over: chunk `i`
/// lives in way `i % WAYS`, under a `capacity_bytes / WAYS` budget.
const WAYS: usize = 8;

/// Counters describing cache behaviour since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a decoded chunk.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Chunks evicted to make room.
    pub evictions: u64,
    /// Decoded bytes currently resident.
    pub resident_bytes: u64,
    /// Chunks currently resident.
    pub resident_chunks: u64,
}

struct Entry<T: Element> {
    chunk: Arc<NdArray<T>>,
    /// Last-touch tick; the smallest tick in a way is its LRU victim.
    tick: u64,
}

struct Way<T: Element> {
    map: HashMap<ChunkKey, Entry<T>>,
    bytes: usize,
}

/// The cache proper. Keys pair a chunk index (raster order of the
/// store's grid) with the chunk's content fingerprint.
pub struct DecodedChunkCache<T: Element> {
    ways: [Mutex<Way<T>>; WAYS],
    /// Per-way byte budget: `capacity_bytes / WAYS`, clamped to at
    /// least 1 so a degenerate config (`capacity_bytes < WAYS`) still
    /// admits entries instead of silently caching nothing. `None` when
    /// `capacity_bytes == 0`: the cache is explicitly disabled.
    capacity_per_way: Option<usize>,
    tick: AtomicU64,
    // The counters are obs handles (one relaxed add, same cost as a
    // bare atomic) so the owning reader can register them into its
    // metrics registry without mirroring.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl<T: Element> DecodedChunkCache<T> {
    /// Creates an empty cache with the given bounds.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            ways: std::array::from_fn(|_| {
                Mutex::new(Way {
                    map: HashMap::new(),
                    bytes: 0,
                })
            }),
            capacity_per_way: (config.capacity_bytes > 0)
                .then(|| (config.capacity_bytes / WAYS).max(1)),
            tick: AtomicU64::new(0),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
        }
    }

    /// Whether inserts are kept at all (`false` for a zero budget).
    pub(crate) fn keeps_entries(&self) -> bool {
        self.capacity_per_way.is_some()
    }

    /// The hit/miss/eviction counter handles, for registration in the
    /// owner's [`eblcio_obs::MetricsRegistry`].
    pub(crate) fn counter_handles(&self) -> (Arc<Counter>, Arc<Counter>, Arc<Counter>) {
        (self.hits.clone(), self.misses.clone(), self.evictions.clone())
    }

    fn way(&self, key: ChunkKey) -> &Mutex<Way<T>> {
        &self.ways[key.0 % WAYS]
    }

    /// Looks `key` up without touching the hit/miss counters or the
    /// LRU position — for speculative probes (prefetch filtering, the
    /// single-flight re-check) that shouldn't skew serving statistics.
    pub fn peek(&self, key: ChunkKey) -> Option<Arc<NdArray<T>>> {
        self.way(key).lock().map.get(&key).map(|e| e.chunk.clone())
    }

    /// Looks `key` up, refreshing its LRU position on a hit.
    pub fn get(&self, key: ChunkKey) -> Option<Arc<NdArray<T>>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut way = self.way(key).lock();
        match way.map.get_mut(&key) {
            Some(e) => {
                e.tick = tick;
                self.hits.inc();
                Some(e.chunk.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Drops `key` if resident (a refresh invalidating a superseded
    /// chunk), returning whether anything was removed. Not counted as
    /// an eviction — the entry wasn't displaced for space, it became
    /// unreachable.
    pub fn remove(&self, key: ChunkKey) -> bool {
        let mut way = self.way(key).lock();
        match way.map.remove(&key) {
            Some(e) => {
                way.bytes -= e.chunk.nbytes();
                true
            }
            None => false,
        }
    }

    /// Inserts a decoded chunk, evicting least-recently-used entries of
    /// the same way until it fits — and always admitting it in the end.
    /// A way can therefore hold at least one entry no matter how small
    /// its budget: a single chunk larger than the whole way evicts
    /// everything resident and then lives alone, so the byte bound is
    /// exceeded only when one entry alone exceeds it, and only by that
    /// entry. (The alternative — refusing oversized chunks — silently
    /// degenerates into "cache nothing, decode every request" whenever
    /// chunks outgrow `capacity_bytes / WAYS`.) A zero-budget config
    /// disables the cache: every insert is dropped.
    pub fn insert(&self, key: ChunkKey, chunk: Arc<NdArray<T>>) {
        let Some(capacity) = self.capacity_per_way else {
            return;
        };
        let bytes = chunk.nbytes();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut way = self.way(key).lock();
        if let Some(old) = way.map.remove(&key) {
            way.bytes -= old.chunk.nbytes();
        }
        while way.bytes + bytes > capacity {
            // O(way population) victim scan; ways are small and the
            // scan only runs when the cache is full. The loop ends when
            // the insert fits or the way is empty — an oversized chunk
            // is then admitted as the way's sole entry.
            let victim = way.map.iter().min_by_key(|(_, e)| e.tick).map(|(&k, _)| k);
            let Some(evicted) = victim.and_then(|k| way.map.remove(&k)) else { break };
            way.bytes -= evicted.chunk.nbytes();
            self.evictions.inc();
        }
        way.bytes += bytes;
        way.map.insert(key, Entry { chunk, tick });
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let mut resident_bytes = 0u64;
        let mut resident_chunks = 0u64;
        for way in &self.ways {
            let g = way.lock();
            resident_bytes += g.bytes as u64;
            resident_chunks += g.map.len() as u64;
        }
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            resident_bytes,
            resident_chunks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblcio_data::Shape;

    fn chunk(fill: f32, n: usize) -> Arc<NdArray<f32>> {
        Arc::new(NdArray::from_fn(Shape::d1(n), |_| fill))
    }

    #[test]
    fn hit_miss_and_resident_accounting() {
        let c = DecodedChunkCache::<f32>::new(CacheConfig { capacity_bytes: 4096 });
        assert!(c.get((0, 1)).is_none());
        c.insert((0, 1), chunk(1.0, 16));
        assert_eq!(c.get((0, 1)).unwrap().as_slice()[0], 1.0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_bytes, 64);
        assert_eq!(s.resident_chunks, 1);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        // Ways of 256 bytes = four 16-sample f32 chunks each; keys that
        // are multiples of WAYS all land in way 0.
        let c = DecodedChunkCache::<f32>::new(CacheConfig { capacity_bytes: WAYS * 256 });
        for k in 0..4 {
            c.insert((k * WAYS, 1), chunk(k as f32, 16));
        }
        // Touch 0 so WAYS becomes the LRU victim.
        assert!(c.get((0, 1)).is_some());
        c.insert((4 * WAYS, 1), chunk(4.0, 16));
        assert!(c.get((WAYS, 1)).is_none(), "LRU entry should have been evicted");
        assert!(c.get((0, 1)).is_some());
        assert!(c.get((4 * WAYS, 1)).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= 256);
    }

    /// Regression: an insert larger than a way's whole budget used to
    /// be refused outright, so stores whose chunks outgrew
    /// `capacity_bytes / WAYS` silently cached nothing and re-decoded
    /// every request. It now evicts the way and lives there alone.
    #[test]
    fn oversized_chunk_is_admitted_alone() {
        // 64 bytes per way; keys 0 and WAYS share way 0.
        let c = DecodedChunkCache::<f32>::new(CacheConfig { capacity_bytes: WAYS * 64 });
        c.insert((0, 1), chunk(0.5, 4));
        c.insert((WAYS, 1), chunk(0.0, 1024));
        assert!(c.get((0, 1)).is_none(), "resident entries make way");
        assert_eq!(c.get((WAYS, 1)).unwrap().len(), 1024);
        let s = c.stats();
        assert_eq!(s.resident_chunks, 1);
        assert_eq!(s.resident_bytes, 4096);
        assert_eq!(s.evictions, 1);
    }

    /// Regression: `capacity_bytes < WAYS` used to floor the per-way
    /// budget to 0 bytes, silently disabling the cache. Each way now
    /// admits at least one entry.
    #[test]
    fn degenerate_capacity_still_admits_one_entry_per_way() {
        let c = DecodedChunkCache::<f32>::new(CacheConfig { capacity_bytes: 3 });
        c.insert((0, 1), chunk(1.0, 16));
        c.insert((1, 1), chunk(2.0, 16));
        assert_eq!(c.get((0, 1)).unwrap().as_slice()[0], 1.0);
        assert_eq!(c.get((1, 1)).unwrap().as_slice()[0], 2.0);
        // Within one way the 1-entry budget still bounds residency.
        c.insert((WAYS, 1), chunk(3.0, 16));
        assert!(c.get((0, 1)).is_none(), "same way: old entry evicted");
        assert_eq!(c.get((WAYS, 1)).unwrap().as_slice()[0], 3.0);
        assert_eq!(c.stats().resident_chunks, 2);
    }

    /// `capacity_bytes: 0` is the documented "cache disabled" spelling
    /// (the read benches rely on it for their uncached arm) — it must
    /// not be clamped up to a 1-byte budget.
    #[test]
    fn zero_capacity_disables_the_cache() {
        let c = DecodedChunkCache::<f32>::new(CacheConfig { capacity_bytes: 0 });
        c.insert((0, 1), chunk(1.0, 16));
        assert!(c.get((0, 1)).is_none());
        let s = c.stats();
        assert_eq!(s.resident_chunks, 0);
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let c = DecodedChunkCache::<f32>::new(CacheConfig { capacity_bytes: WAYS * 1024 });
        c.insert((0, 1), chunk(1.0, 16));
        c.insert((0, 1), chunk(2.0, 32));
        let s = c.stats();
        assert_eq!(s.resident_chunks, 1);
        assert_eq!(s.resident_bytes, 128);
        assert_eq!(c.get((0, 1)).unwrap().len(), 32);
    }

    /// Regression (mutable stores): the same chunk index under a newer
    /// fingerprint is a *different* key — a lookup for generation 2's
    /// content can never return generation 1's bytes.
    #[test]
    fn fingerprint_isolates_generations() {
        let c = DecodedChunkCache::<f32>::new(CacheConfig { capacity_bytes: 4096 });
        c.insert((3, 1), chunk(1.0, 16));
        assert!(c.get((3, 2)).is_none(), "new generation must miss");
        c.insert((3, 2), chunk(2.0, 16));
        assert_eq!(c.get((3, 2)).unwrap().as_slice()[0], 2.0);
        // Both coexist until the old one is removed or evicted.
        assert_eq!(c.stats().resident_chunks, 2);
    }

    #[test]
    fn remove_reclaims_bytes_without_counting_eviction() {
        let c = DecodedChunkCache::<f32>::new(CacheConfig { capacity_bytes: 4096 });
        c.insert((0, 1), chunk(1.0, 16));
        assert!(c.remove((0, 1)));
        assert!(!c.remove((0, 1)), "second remove is a no-op");
        let s = c.stats();
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.resident_chunks, 0);
        assert_eq!(s.evictions, 0);
    }
}
