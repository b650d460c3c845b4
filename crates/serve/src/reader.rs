//! [`ArrayReader`]: a shared, concurrent handle serving region reads
//! from one chunked store — including live stores that publish new
//! generations while the reader is serving.
//!
//! The reader is the piece that turns a passive container into a
//! service. Many client threads hold `&ArrayReader` and issue
//! overlapping [`ArrayReader::read_region`] calls; each call decodes
//! only the chunks its region intersects, in parallel on the shared
//! rayon pool, through two layers:
//!
//! 1. the **decoded-chunk cache** ([`crate::cache`]) — repeated and
//!    overlapping reads of hot chunks skip decompression entirely,
//! 2. **single-flight decode** — when several requests miss on the same
//!    chunk at once, exactly one thread decodes it while the rest wait
//!    for that result (decode work is deduplicated, not just the cached
//!    bytes).
//!
//! A whole chunk is the region [`ChunkGrid::chunk_region`] names, read
//! like any other. For mutable stores ([`eblcio_store::mutable`]) the
//! reader adds a third mechanism: **write-through refresh**. Every
//! request pins one generation snapshot for its whole lifetime
//! (requests can never observe half of generation N and half of N+1),
//! and
//! [`ArrayReader::refresh`] atomically swaps the snapshot to a newer
//! generation, invalidating exactly the cached chunks whose content
//! changed — untouched chunks stay warm because cache keys carry the
//! chunk's content fingerprint, not just its index.

use crate::cache::{CacheConfig, CacheStats, ChunkKey, DecodedChunkCache};
use eblcio_codec::header::check_dtype;
use eblcio_codec::parallel::pool_for;
use eblcio_codec::{CodecError, Compressor, Result};
use eblcio_data::{Element, NdArray};
use eblcio_obs::{self as obs, Counter, Histogram, MetricsRegistry, NameId, Phase};
use eblcio_store::{
    scatter_chunk_into, scatter_chunk_le, scatter_region, ChunkedStore, MutableStore, Region,
    Storage,
};
#[cfg(doc)]
use eblcio_store::ChunkGrid;
use parking_lot::{Condvar, Mutex, RwLock};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Construction-time knobs for an [`ArrayReader`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ReaderConfig {
    /// Decoded-chunk cache bounds.
    pub cache: CacheConfig,
    /// Worker threads for parallel decode (0 = machine parallelism).
    pub threads: usize,
}

/// Cumulative counters for one reader (all clients combined).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReaderStats {
    /// Region reads served (a read that fails is not counted).
    pub requests: u64,
    /// Chunk lookups region reads performed (excluding prefetch).
    pub chunks_requested: u64,
    /// Lookups satisfied by the decoded-chunk cache.
    pub cache_hits: u64,
    /// Lookups that missed the cache.
    pub cache_misses: u64,
    /// Chunks actually decompressed whole. With single-flight this can
    /// be well below `cache_misses` under concurrency: followers of an
    /// in-flight decode count a miss but never decode.
    pub decodes: u64,
    /// Cache misses served by a sub-chunk (partial) decode instead of
    /// a whole-chunk decode: the request covered the chunk only in part,
    /// and either the cache keeps nothing or the part was at most
    /// `1/PARTIAL_DECODE_DENOM` (8) of the chunk.
    pub partial_decodes: u64,
    /// Raw bytes produced by whole and partial decodes together.
    pub decoded_bytes: u64,
    /// Wall-clock seconds spent inside decompression alone (whole and
    /// partial decodes; summed across threads, like `wall_seconds`).
    pub decode_seconds: f64,
    /// Chunk warm-ups issued by [`ArrayReader::prefetch_region`] (a
    /// warm-up that finds the chunk already cached is still counted).
    pub prefetched: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// [`ArrayReader::refresh`] calls that swapped in a newer
    /// generation.
    pub refreshes: u64,
    /// Cached chunks invalidated by refreshes (only chunks whose
    /// content actually changed are evicted).
    pub invalidations: u64,
    /// Single-flight follower waits: lookups that found another
    /// request already decoding the same chunk and blocked for its
    /// result instead of decoding again.
    pub flight_waits: u64,
    /// Wall-clock seconds spent inside request calls (summed across
    /// concurrent clients, so this can exceed elapsed time).
    pub wall_seconds: f64,
}

impl ReaderStats {
    /// Fraction of chunk lookups served from cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Work accounting for a single region request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Chunks the region intersected.
    pub chunks_touched: usize,
    /// How many of those were already decoded when the request's cache
    /// probe ran.
    pub chunks_from_cache: usize,
    /// Cache-missing chunks this request served by decoding only its
    /// intersection with the chunk (never cached): every partly covered
    /// miss when the cache keeps nothing, otherwise those covered at
    /// most `1/PARTIAL_DECODE_DENOM` (8).
    pub partial_decodes: usize,
}

/// Outcome of an [`ArrayReader::refresh`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Generation served before the refresh.
    pub from_generation: u64,
    /// Generation served after it.
    pub to_generation: u64,
    /// Chunks whose content fingerprint changed between the two.
    pub chunks_changed: usize,
    /// Changed chunks that were resident in the cache and got evicted
    /// (≤ `chunks_changed`; the rest were simply not cached).
    pub invalidated: usize,
}

/// One in-flight decode: the leader publishes its result here and every
/// follower blocks on the condvar until it lands.
struct Flight<T: Element> {
    result: Mutex<Option<Result<Arc<NdArray<T>>>>>,
    done: Condvar,
}

/// With a live cache, a miss decodes only its overlap with the request
/// when that overlap is at most `1/PARTIAL_DECODE_DENOM` of the chunk;
/// larger overlaps decode the whole chunk, which the cache then keeps
/// for later requests. Measured on `cold_region_read` while only SZx
/// and ZFP had region decoders (23 of 88 touches qualify at 8): a
/// denominator of 2 read 201–228 MB/s against 184–214 at 8 over four
/// alternating 10-second pairs, medians 206 and 198 — inside the
/// run-to-run spread, so unresolved, and 8 stayed. That workload's
/// reader has no cache, where the rule does not apply: a disabled cache
/// drops every insert, so a whole decode buys nothing and every partly
/// covered chunk decodes its overlap.
const PARTIAL_DECODE_DENOM: usize = 8;

std::thread_local! {
    /// Reused intersecting-chunk id buffer for the warm read path
    /// ([`ArrayReader::read_region_into`]), so a fully cached request
    /// performs zero heap allocation.
    static WANTED: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Per-reader telemetry: one private [`MetricsRegistry`] plus handles
/// resolved once at construction, so every hot-path event is a single
/// relaxed atomic op. Latencies and sizes go into log-linear
/// histograms — [`ReaderStats`] is a thin view over these (counts and
/// sums), and `query --metrics` reads the p50/p99 straight from the
/// same handles. Span names are pre-interned so the
/// warm path never touches the intern table.
struct ReaderMetrics {
    registry: Arc<MetricsRegistry>,
    chunks_requested: Arc<Counter>,
    prefetched: Arc<Counter>,
    refreshes: Arc<Counter>,
    invalidations: Arc<Counter>,
    /// Per-request wall latency (count = requests, sum = wall nanos):
    /// every successful region read, each a root `serve.read_region`
    /// span.
    read_region: Phase,
    /// Successful whole-chunk decode latency (count = decodes).
    decode: Phase,
    /// Sub-chunk decode latency (count = partial decodes); shares the
    /// `serve.decode` span with `decode`.
    partial_decode: Phase,
    /// Bytes produced per decode, whole and partial (sum = total).
    decoded_bytes: Arc<Histogram>,
    /// Single-flight follower wait latency (count = waits).
    flight_wait: Phase,
    span_refresh: NameId,
}

impl ReaderMetrics {
    fn new(cache_counters: (Arc<Counter>, Arc<Counter>, Arc<Counter>)) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let (hits, misses, evictions) = cache_counters;
        registry.register_counter("eblcio_serve_cache_hits_total", hits);
        registry.register_counter("eblcio_serve_cache_misses_total", misses);
        registry.register_counter("eblcio_serve_cache_evictions_total", evictions);
        Self {
            chunks_requested: registry.counter("eblcio_serve_chunks_requested_total"),
            prefetched: registry.counter("eblcio_serve_prefetched_total"),
            refreshes: registry.counter("eblcio_serve_refreshes_total"),
            invalidations: registry.counter("eblcio_serve_invalidations_total"),
            read_region: Phase::spanned(
                registry.histogram("eblcio_serve_request_ns"),
                "serve.read_region",
            ),
            decode: Phase::spanned(registry.histogram("eblcio_serve_decode_ns"), "serve.decode"),
            partial_decode: Phase::spanned(
                registry.histogram("eblcio_serve_partial_decode_ns"),
                "serve.decode",
            ),
            decoded_bytes: registry.histogram("eblcio_serve_decoded_bytes"),
            flight_wait: Phase::spanned(
                registry.histogram("eblcio_serve_flight_wait_ns"),
                "serve.flight_wait",
            ),
            span_refresh: obs::intern("serve.refresh"),
            registry,
        }
    }
}

/// Everything a request needs from one consistent generation: the
/// store snapshot, one decoder per chain, and the per-chunk cache keys.
/// Requests clone the `Arc` once at entry, so a concurrent refresh can
/// never hand half a request a newer generation.
struct ReadState {
    store: Arc<ChunkedStore>,
    /// One decoder per chain-table entry, shared by every request.
    decoders: Vec<Box<dyn Compressor>>,
    /// `(index, fingerprint)` cache key per chunk.
    keys: Vec<ChunkKey>,
}

impl ReadState {
    fn build(store: ChunkedStore) -> Result<Self> {
        let decoders = store.decoders()?;
        let keys = (0..store.n_chunks())
            .map(|i| (i, store.chunk_fingerprint(i)))
            .collect();
        Ok(Self {
            store: Arc::new(store),
            decoders,
            keys,
        })
    }
}

/// A concurrent read-serving handle over a [`ChunkedStore`].
///
/// The reader owns a snapshot of the store (the bytes are shared
/// behind an `Arc`), so the typical setup reads or maps the file once
/// and shares one reader across every client thread:
///
/// ```
/// use eblcio_codec::{CompressorId, ErrorBound};
/// use eblcio_data::{NdArray, Shape};
/// use eblcio_serve::{ArrayReader, ReaderConfig};
/// use eblcio_store::{ChunkedStore, Region};
///
/// let data = NdArray::<f32>::from_fn(Shape::d2(64, 64), |i| {
///     (i[0] as f32 * 0.1).sin() + (i[1] as f32 * 0.1).cos()
/// });
/// let codec = CompressorId::Sz3.instance();
/// let stream = ChunkedStore::write_sharded(
///     codec.as_ref(), &data, ErrorBound::Relative(1e-3), Shape::d2(16, 16), 4, 2,
/// ).unwrap();
///
/// let reader = ArrayReader::<f32>::open(&stream, ReaderConfig::default()).unwrap();
/// let region = Region::new(&[8, 8], &[16, 16]);
/// let first = reader.read_region(&region).unwrap();
/// let again = reader.read_region(&region).unwrap();
/// assert_eq!(first.as_slice(), again.as_slice());
/// // The second pass came out of the decoded-chunk cache.
/// assert!(reader.stats().cache_hits >= 4);
/// ```
///
/// Serving a mutable store adds [`ArrayReader::refresh`]: the reader
/// keeps serving its pinned generation until told to move forward, and
/// moving forward evicts exactly the chunks the new generation
/// rewrote:
///
/// ```
/// use eblcio_codec::{CompressorId, ErrorBound};
/// use eblcio_data::{NdArray, Shape};
/// use eblcio_serve::{ArrayReader, ReaderConfig};
/// use eblcio_store::{MutableStore, Region};
///
/// let data = NdArray::<f32>::from_fn(Shape::d2(32, 32), |i| i[0] as f32);
/// let codec = CompressorId::Szx.instance();
/// let mut store = MutableStore::create(
///     codec.as_ref(), &data, ErrorBound::Relative(1e-3), Shape::d2(16, 16), 2,
/// ).unwrap();
/// let reader = ArrayReader::<f32>::serve(&store, ReaderConfig::default()).unwrap();
/// reader.read_region(&Region::new(&[0, 0], &[32, 32])).unwrap(); // warm all 4 chunks
///
/// let patch = NdArray::<f32>::from_fn(Shape::d2(16, 16), |_| -1.0);
/// store.update_region(&Region::new(&[0, 0], &[16, 16]), &patch, 2).unwrap();
/// let r = reader.refresh_from(&store).unwrap();
/// assert_eq!((r.from_generation, r.to_generation), (1, 2));
/// assert_eq!(r.chunks_changed, 1);   // three chunks stayed warm
/// assert_eq!(r.invalidated, 1);
/// let v = reader.read_region(&Region::new(&[0, 0], &[1, 1])).unwrap();
/// assert!((v.as_slice()[0] + 1.0).abs() <= 0.1);
/// ```
pub struct ArrayReader<T: Element> {
    state: RwLock<Arc<ReadState>>,
    cache: DecodedChunkCache<T>,
    inflight: Mutex<HashMap<ChunkKey, Arc<Flight<T>>>>,
    pool: Arc<rayon::ThreadPool>,
    metrics: ReaderMetrics,
}

impl<T: Element> ArrayReader<T> {
    /// Opens store bytes ([`ChunkedStore::open`]: an `EBMS` mutable
    /// store serves its current generation) and builds a reader over
    /// them. Fails up front on a corrupt manifest, a dtype mismatch, or
    /// an unbuildable chain, so serving never discovers those
    /// mid-request.
    pub fn open(stream: &[u8], config: ReaderConfig) -> Result<Self> {
        Self::over(ChunkedStore::open(stream)?, config)
    }

    /// Builds a reader serving the *current* generation of a mutable
    /// store. Later generations are picked up by
    /// [`ArrayReader::refresh_from`].
    pub fn serve(store: &MutableStore, config: ReaderConfig) -> Result<Self> {
        Self::over(store.current()?, config)
    }

    /// Opens the object stored under `key` on a [`Storage`] backend and
    /// builds a reader over it. Sniffs the container: an `EBMS` mutable
    /// store serves its current generation (exactly as
    /// [`ArrayReader::serve`] would), anything else must be an
    /// immutable `EBCS` stream. One whole-object GET either way — the
    /// reader then decodes from its private snapshot, so a slow or
    /// expensive backend is touched exactly once per open/refresh.
    pub fn open_from(storage: &dyn Storage, key: &str, config: ReaderConfig) -> Result<Self> {
        Self::over(ChunkedStore::open_from(storage, key)?, config)
    }

    /// Builds a reader over an already opened store.
    pub fn over(store: ChunkedStore, config: ReaderConfig) -> Result<Self> {
        check_dtype::<T>(store.dtype())?;
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        };
        let cache = DecodedChunkCache::new(config.cache);
        let metrics = ReaderMetrics::new(cache.counter_handles());
        Ok(Self {
            state: RwLock::new(Arc::new(ReadState::build(store)?)),
            cache,
            inflight: Mutex::new(HashMap::new()),
            pool: pool_for(threads)?,
            metrics,
        })
    }

    /// This reader's private metrics registry: the per-request and
    /// per-decode latency histograms plus the cache/prefetch/refresh
    /// counters, ready for [`eblcio_obs::prometheus`] exposition or
    /// [`eblcio_obs::report`]. [`ArrayReader::stats`] is a totals view
    /// over the same handles.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics.registry
    }

    /// The store snapshot this reader currently serves (shared, cheap
    /// to clone; pinned until the next [`ArrayReader::refresh`]).
    pub fn store(&self) -> Arc<ChunkedStore> {
        self.state.read().store.clone()
    }

    /// The generation currently served (0 for static stores).
    pub fn generation(&self) -> u64 {
        self.state.read().store.generation()
    }

    /// Atomically swaps the served snapshot for `store` — a newer (or
    /// any other) generation of the *same* array — and invalidates
    /// exactly the cached chunks whose content fingerprint changed.
    /// Chunks the new generation shares with the old keep their cache
    /// entries and their in-flight decodes.
    ///
    /// Requests already running keep their pinned snapshot to
    /// completion, so no request ever sees a mix of generations; new
    /// requests see the new one. The store must be a mutable-store
    /// generation (static stores have no fingerprints to diff against,
    /// so refreshing onto one could alias cached content) and must
    /// match in dtype, shape, and chunk shape (mutable stores never
    /// change geometry within a lineage).
    ///
    /// Invalidation is exact for reachability — superseded keys can
    /// never be looked up again — and best-effort for space: a request
    /// concurrently decoding on the old snapshot may re-insert a
    /// superseded entry after the sweep, where it stays unreachable
    /// until LRU pressure displaces it.
    pub fn refresh(&self, store: ChunkedStore) -> Result<RefreshStats> {
        check_dtype::<T>(store.dtype())?;
        if store.generation() == 0 {
            return Err(CodecError::Corrupt { context: "refresh target is not generational" });
        }
        let _span = obs::span_id(self.metrics.span_refresh);
        let next = Arc::new(ReadState::build(store)?);
        // The old-state read, the swap, and the key sweep all happen
        // under the write lock, so concurrent refresh calls serialize:
        // every returned RefreshStats describes a transition that
        // actually took place, in order. (Request paths only hold the
        // read lock for an Arc clone, so they are barely delayed; no
        // path takes a cache lock before the state lock, so ordering
        // is deadlock-free.)
        let stats = {
            let mut guard = self.state.write();
            let old = guard.clone();
            if next.store.shape() != old.store.shape()
                || next.store.chunk_shape() != old.store.chunk_shape()
            {
                return Err(CodecError::Corrupt { context: "refresh store geometry" });
            }
            *guard = next.clone();
            let mut chunks_changed = 0usize;
            let mut invalidated = 0usize;
            for (old_key, new_key) in old.keys.iter().zip(&next.keys) {
                if old_key != new_key {
                    chunks_changed += 1;
                    if self.cache.remove(*old_key) {
                        invalidated += 1;
                    }
                }
            }
            RefreshStats {
                from_generation: old.store.generation(),
                to_generation: next.store.generation(),
                chunks_changed,
                invalidated,
            }
        };
        self.metrics.refreshes.inc();
        self.metrics.invalidations.add(stats.invalidated as u64);
        Ok(stats)
    }

    /// [`ArrayReader::refresh`] to the current generation of `store`.
    pub fn refresh_from(&self, store: &MutableStore) -> Result<RefreshStats> {
        self.refresh(store.current()?)
    }

    /// Cumulative reader counters (cache counters folded in) — a
    /// totals view over [`ArrayReader::metrics`].
    ///
    /// Snapshot discipline: every source is read exactly once, in a
    /// fixed order — cache counters, then one atomic-coherent snapshot
    /// per histogram (each histogram's count is loaded first and its
    /// writers bump it last, so count/sum pairs always describe whole
    /// records), then the plain counters. Related fields drawn from
    /// one histogram (`requests`/`wall_seconds`,
    /// `decodes`/`decode_seconds`) therefore can never interleave with
    /// a concurrent reset or recorder into a half-updated pair.
    pub fn stats(&self) -> ReaderStats {
        let c: CacheStats = self.cache.stats();
        let req = self.metrics.read_region.histogram().snapshot();
        let dec = self.metrics.decode.histogram().snapshot();
        let part = self.metrics.partial_decode.histogram().snapshot();
        let bytes = self.metrics.decoded_bytes.snapshot();
        let waits = self.metrics.flight_wait.histogram().snapshot();
        ReaderStats {
            requests: req.count,
            chunks_requested: self.metrics.chunks_requested.get(),
            cache_hits: c.hits,
            cache_misses: c.misses,
            decodes: dec.count,
            partial_decodes: part.count,
            decoded_bytes: bytes.sum,
            decode_seconds: (dec.sum + part.sum) as f64 * 1e-9,
            prefetched: self.metrics.prefetched.get(),
            evictions: c.evictions,
            refreshes: self.metrics.refreshes.get(),
            invalidations: self.metrics.invalidations.get(),
            flight_waits: waits.count,
            wall_seconds: req.sum as f64 * 1e-9,
        }
    }

    /// Current cache occupancy/counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The miss path: single-flight decode for a chunk the caller has
    /// already (and recently) failed to find in the cache, so the region
    /// engine probes the whole request cheaply first and spins up the
    /// parallel pool only when something actually needs decoding. The
    /// returned chunk is shared — clones of one `Arc` — across every
    /// concurrent caller. Keyed by `(index, fingerprint)`, so decodes
    /// of the same index for different generations never collide. `rid` is
    /// the request id decode/wait spans are charged to (0 = none);
    /// it is passed explicitly because fetches run on pool threads,
    /// where the requesting thread's ambient id does not follow.
    fn fetch_chunk_after_miss(&self, state: &ReadState, i: usize, rid: u64) -> Result<Arc<NdArray<T>>> {
        let key = state.keys[i];
        let (flight, leader) = {
            let mut map = self.inflight.lock();
            match map.get(&key) {
                Some(f) => (f.clone(), false),
                None => {
                    // Re-check under the map lock: a leader that just
                    // finished removed its flight *after* populating
                    // the cache, so a miss followed by an empty map can
                    // still mean "already decoded".
                    if let Some(hit) = self.cache.peek(key) {
                        return Ok(hit);
                    }
                    let f = Arc::new(Flight {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    map.insert(key, f.clone());
                    (f, true)
                }
            }
        };
        if leader {
            let res = self.decode_now(state, i, rid);
            if let Ok(chunk) = &res {
                self.cache.insert(key, chunk.clone());
            }
            *flight.result.lock() = Some(res.clone());
            flight.done.notify_all();
            self.inflight.lock().remove(&key);
            res
        } else {
            let t = self.metrics.flight_wait.start_on(rid);
            let mut slot = flight.result.lock();
            loop {
                if let Some(res) = slot.as_ref() {
                    t.finish();
                    return res.clone();
                }
                flight.done.wait(&mut slot);
            }
        }
    }

    /// The actual decompression, charged to this reader's counters.
    fn decode_now(&self, state: &ReadState, i: usize, rid: u64) -> Result<Arc<NdArray<T>>> {
        let codec = state.decoders[state.store.chunk_chain_index(i)].as_ref();
        let t = self.metrics.decode.start_on(rid);
        let arr = state.store.decode_chunk::<T>(codec, i)?;
        t.finish();
        self.metrics.decoded_bytes.record(arr.nbytes() as u64);
        Ok(Arc::new(arr))
    }

    /// Whether a miss on chunk `i` should decode only its overlap with
    /// `region`: always when the cache keeps nothing, otherwise only for
    /// an overlap of at most `1/PARTIAL_DECODE_DENOM` of the chunk.
    fn prefers_part(&self, state: &ReadState, i: usize, region: &Region) -> bool {
        if !self.cache.keeps_entries() {
            return true;
        }
        let chunk = state.store.grid().chunk_region(i);
        chunk
            .intersect(region)
            .is_some_and(|inter| inter.len() * PARTIAL_DECODE_DENOM <= chunk.len())
    }

    /// Serves an axis-aligned region read. A region outside the array
    /// is a [`CodecError::BadRegion`], here and at every other entry.
    pub fn read_region(&self, region: &Region) -> Result<NdArray<T>> {
        self.read_region_with_stats(region).map(|(a, _)| a)
    }

    /// Serves a region read and reports how much work it took.
    ///
    /// A freshly allocated output buffer handed to
    /// [`ArrayReader::read_region_into`] — one engine, one accounting
    /// policy, whichever entry point a client uses.
    pub fn read_region_with_stats(&self, region: &Region) -> Result<(NdArray<T>, RequestStats)> {
        // Before the output exists: a region outside the array may
        // have any size.
        fits(region, &self.state.read())?;
        let mut out = NdArray::<T>::zeros(region.shape());
        let stats = self.read_region_into(region, &mut out)?;
        Ok((out, stats))
    }

    /// Serves a region read into a caller-provided buffer shaped like
    /// the region.
    ///
    /// Each intersecting chunk is probed in the cache **exactly once**,
    /// through the counting lookup: hits scatter straight into `out`;
    /// misses are claimed one at a time by up to `threads` workers,
    /// each of which fetches its chunk through the non-counting
    /// single-flight layer, scatters it into `out` beside the other
    /// workers (each band of `out` has its own lock) and drops it
    /// before claiming the next — so a cold
    /// request never holds more decoded chunks than it has workers.
    /// Hit/miss statistics are therefore exact across a warm/cold mix —
    /// one charge per chunk per request, never re-probed. The whole
    /// request runs against one generation snapshot pinned on entry.
    ///
    /// When every intersecting chunk is already cached (the steady
    /// state of a hot serving loop) the call performs **no heap
    /// allocation at all**: the chunk-id scratch is a reused
    /// thread-local, the miss list is an empty `Vec` that never grows,
    /// cache hits hand back shared `Arc`s, and assembly is pure
    /// `memcpy` into `out` (`serve_alloc.rs` proves it with telemetry
    /// enabled).
    pub fn read_region_into(&self, region: &Region, out: &mut NdArray<T>) -> Result<RequestStats> {
        if out.shape() != region.shape() {
            return Err(CodecError::Corrupt { context: "read_region_into buffer shape" });
        }
        self.assemble_region(region, out.as_mut_slice(), scatter_chunk_into)
    }

    /// [`ArrayReader::read_region_into`] in wire order: `out` receives
    /// the region's samples as little-endian bytes
    /// (`region.len() × T::BYTES` of them), so a network reply can be
    /// assembled directly in the buffer it is sent from. Same engine —
    /// same probes, counters, spans and zero-allocation warm path — with
    /// only the per-run store differing.
    pub fn read_region_le_into(&self, region: &Region, out: &mut [u8]) -> Result<RequestStats> {
        if out.len() != region.len() * T::BYTES {
            return Err(CodecError::Corrupt { context: "read_region_le_into buffer length" });
        }
        self.assemble_region(region, out, scatter_chunk_le)
    }

    /// The region engine every read path funnels through. `out` is the
    /// region's row-major output, `region.len()` samples of whatever
    /// unit `scatter` writes (a typed sample, or its little-endian
    /// bytes); `scatter(piece, covered, dst_region, dst)` stores the
    /// overlap of a piece, which covers the array region `covered`,
    /// with `dst_region` into `dst`, a buffer shaped as `dst_region`.
    /// Cached pieces are stored on the calling thread in raster order.
    ///
    /// The cold half — the probed-and-missed chunks — goes to the
    /// store's [`scatter_region`] on the reader's pool. A miss the
    /// request covers only in part box-decodes its overlap when
    /// [`Self::prefers_part`] says so
    /// ([`ChunkedStore::decode_chunk_region`]); that piece is private to
    /// the request, keyed by region, so neither cached nor
    /// single-flighted. Other misses — a chunk the region covers whole
    /// among them — take the cached single-flight whole-chunk path. A
    /// failing miss fails the request. Cache probes there are
    /// non-counting (`peek` and the single-flight re-check): the probe
    /// already charged one hit or miss per chunk.
    fn assemble_region<U: Send>(
        &self,
        region: &Region,
        out: &mut [U],
        scatter: impl Fn(&NdArray<T>, &Region, &Region, &mut [U]) + Sync,
    ) -> Result<RequestStats> {
        // Telemetry on this path stays allocation-free: the span name
        // is pre-interned, the guard lives on the stack, and its end
        // stores into preallocated flight-recorder slots.
        let t = self.metrics.read_region.start_root();
        let rid = t.request_id();
        let state = self.state.read().clone();
        fits(region, &state)?;
        let (touched, misses) = WANTED.with(|w| {
            let mut wanted = w.borrow_mut();
            state
                .store
                .grid()
                .chunks_intersecting_into(region, &mut wanted);
            let mut misses: Vec<usize> = Vec::new();
            for &i in wanted.iter() {
                match self.cache.get(state.keys[i]) {
                    Some(chunk) => scatter(&chunk, &state.store.grid().chunk_region(i), region, out),
                    None => misses.push(i),
                }
            }
            (wanted.len(), misses)
        });
        self.metrics.chunks_requested.add(touched as u64);
        // A statistic; publishes nothing else.
        let partial = AtomicUsize::new(0);
        self.pool.install(|| {
            scatter_region(region, out, &misses, &scatter, |i, put| {
                // A leader may have cached the whole chunk since this
                // request's probe; sharing it beats decoding again.
                if self.cache.peek(state.keys[i]).is_none() && self.prefers_part(&state, i, region) {
                    let codec = state.decoders[state.store.chunk_chain_index(i)].as_ref();
                    let t = self.metrics.partial_decode.start_on(rid);
                    if let Some((part, covered)) =
                        state.store.decode_chunk_region::<T>(codec, i, region)?
                    {
                        t.finish();
                        self.metrics.decoded_bytes.record(part.nbytes() as u64);
                        partial.fetch_add(1, Ordering::Relaxed);
                        put(&part, &covered);
                        return Ok(());
                    }
                }
                let chunk = self.fetch_chunk_after_miss(&state, i, rid)?;
                put(&chunk, &state.store.grid().chunk_region(i));
                Ok(())
            })
        })?;
        t.finish();
        Ok(RequestStats {
            chunks_touched: touched,
            chunks_from_cache: touched - misses.len(),
            partial_decodes: partial.into_inner(),
        })
    }

    /// Warms the cache with every chunk `region` intersects without
    /// assembling anything — an explicit prefetch clients can issue
    /// ahead of a predictable access pattern. Decode errors are
    /// deferred to the read that actually needs the chunk, and a region
    /// outside the array warms nothing.
    pub fn prefetch_region(&self, region: &Region) {
        let state = self.state.read().clone();
        if fits(region, &state).is_err() {
            return;
        }
        let rid = obs::current_request_id();
        let ids: Vec<usize> = state
            .store
            .grid()
            .chunks_intersecting(region)
            .into_iter()
            .inspect(|_| {
                self.metrics.prefetched.inc();
            })
            .filter(|&i| self.cache.peek(state.keys[i]).is_none())
            .collect();
        if ids.is_empty() {
            return;
        }
        let _: Vec<bool> = self.pool.install(|| {
            ids.par_iter()
                .map(|&i| self.fetch_chunk_after_miss(&state, i, rid).is_ok())
                .collect()
        });
    }
}

/// The check every entry makes before it touches the grid: `region`
/// lies inside the served array.
fn fits(region: &Region, state: &ReadState) -> Result<()> {
    if region.fits_in(state.store.shape()) {
        Ok(())
    } else {
        Err(CodecError::BadRegion { context: "outside the array" })
    }
}
