//! [`ArrayReader`]: a shared, concurrent handle serving region and
//! chunk reads from one chunked store — including live stores that
//! publish new generations while the reader is serving.
//!
//! The reader is the piece that turns a passive container into a
//! service. Many client threads hold `&ArrayReader` and issue
//! overlapping [`ArrayReader::read_region`] calls; each call decodes
//! only the chunks its region intersects, in parallel on the shared
//! rayon pool, through three layers:
//!
//! 1. the **decoded-chunk cache** ([`crate::cache`]) — repeated and
//!    overlapping reads of hot chunks skip decompression entirely,
//! 2. **single-flight decode** — when several requests miss on the same
//!    chunk at once, exactly one thread decodes it while the rest wait
//!    for that result (decode work is deduplicated, not just the cached
//!    bytes),
//! 3. a **sequential prefetcher** — scan-shaped workloads warm the
//!    chunks just past each request inside the same parallel batch.
//!
//! For mutable stores ([`eblcio_store::mutable`]) the reader adds a
//! fourth mechanism: **write-through refresh**. Every request pins one
//! generation snapshot for its whole lifetime (requests can never
//! observe half of generation N and half of N+1), and
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
    scatter_chunk_into, scatter_chunk_le, ChunkedStore, MutableStore, Region, Storage,
};
use parking_lot::{Condvar, Mutex, RwLock};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What the reader does with chunks just past the ones a request needs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// Decode exactly what each request touches.
    #[default]
    None,
    /// Also decode up to `depth` raster-order chunks after the last
    /// chunk each request touches — the right shape for sequential
    /// scans, where request *n + 1* starts where *n* ended.
    Sequential {
        /// Chunks to warm past each request.
        depth: usize,
    },
}

/// Construction-time knobs for an [`ArrayReader`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ReaderConfig {
    /// Decoded-chunk cache bounds.
    pub cache: CacheConfig,
    /// Worker threads for parallel decode (0 = machine parallelism).
    pub threads: usize,
    /// Prefetch behaviour.
    pub prefetch: PrefetchPolicy,
}

/// Cumulative counters for one reader (all clients combined).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReaderStats {
    /// `read_region`/`read_chunk` calls served.
    pub requests: u64,
    /// Chunk lookups those requests performed (excluding prefetch).
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
    /// Chunk warm-ups issued by the prefetcher (a warm-up that finds
    /// the chunk already cached is still counted).
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
    /// Chunks the prefetcher warmed alongside this request.
    pub chunks_prefetched: usize,
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

/// What a region request got for one chunk: the whole (shared,
/// cacheable) chunk, or just the request's intersection with it plus
/// the array region that piece covers.
enum Fetched<T: Element> {
    Whole(Arc<NdArray<T>>),
    Partial(NdArray<T>, Region),
}

/// Bands a cold request's output is cut into, per pool worker: enough
/// that two workers' pieces rarely want the same band at once. On
/// `update_while_serving`'s overlapping read two per worker read
/// ≈ 10 % slower than four, and eight read like four (EXPERIMENTS.md,
/// "Cold misses at copy speed").
const BANDS_PER_WORKER: usize = 4;

/// A request's row-major output cut along the region's first axis into
/// contiguous bands, each behind its own lock, so several workers can
/// store pieces at once. At most 64 bands (one bit each in
/// [`Bands::scatter`]'s to-do mask), never more than the region has
/// rows.
struct Bands<'a, U> {
    region: Region,
    bands: Vec<(Region, Mutex<&'a mut [U]>)>,
}

impl<'a, U> Bands<'a, U> {
    fn split(region: &Region, mut out: &'a mut [U], count: usize) -> Self {
        let rows = region.extent()[0];
        let count = count.clamp(1, rows.min(64));
        let per_row = out.len() / rows;
        let mut bands = Vec::with_capacity(count);
        let mut lo = 0;
        for k in 1..=count {
            let hi = k * rows / count;
            let (band, rest) = std::mem::take(&mut out).split_at_mut((hi - lo) * per_row);
            out = rest;
            bands.push((region.rows(lo, hi), Mutex::new(band)));
            lo = hi;
        }
        Self { region: *region, bands }
    }

    /// Stores `piece`, which covers the array region `covered`, into
    /// every band it meets: free bands first, in order; a worker waits
    /// for a band only when every band it still needs is busy.
    fn scatter<T: Element>(
        &self,
        piece: &NdArray<T>,
        covered: &Region,
        scatter: &impl Fn(&NdArray<T>, &Region, &Region, &mut [U]),
    ) {
        let Some(inter) = covered.intersect(&self.region) else {
            return;
        };
        let (lo, hi) = (inter.origin()[0], inter.origin()[0] + inter.extent()[0]);
        let mut todo = 0u64;
        for (k, (band, _)) in self.bands.iter().enumerate() {
            let start = band.origin()[0];
            if start < hi && lo < start + band.extent()[0] {
                todo |= 1 << k;
            }
        }
        while todo != 0 {
            let before = todo;
            let mut rest = todo;
            while rest != 0 {
                let k = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let (band, dst) = &self.bands[k];
                if let Some(mut dst) = dst.try_lock() {
                    scatter(piece, covered, band, &mut dst);
                    todo &= !(1 << k);
                }
            }
            if todo == before {
                // Every band still needed is busy: wait for the first.
                let k = todo.trailing_zeros() as usize;
                let (band, dst) = &self.bands[k];
                scatter(piece, covered, band, &mut dst.lock());
                todo &= !(1 << k);
            }
        }
    }
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
    /// every in-range `read_chunk` and every successful region read,
    /// each a root span (`serve.read_chunk`, `serve.read_region`) over
    /// one histogram.
    read_chunk: Phase,
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
        let request_ns = registry.histogram("eblcio_serve_request_ns");
        registry.register_counter("eblcio_serve_cache_hits_total", hits);
        registry.register_counter("eblcio_serve_cache_misses_total", misses);
        registry.register_counter("eblcio_serve_cache_evictions_total", evictions);
        Self {
            chunks_requested: registry.counter("eblcio_serve_chunks_requested_total"),
            prefetched: registry.counter("eblcio_serve_prefetched_total"),
            refreshes: registry.counter("eblcio_serve_refreshes_total"),
            invalidations: registry.counter("eblcio_serve_invalidations_total"),
            read_chunk: Phase::spanned(request_ns.clone(), "serve.read_chunk"),
            read_region: Phase::spanned(request_ns, "serve.read_region"),
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
    prefetch: PrefetchPolicy,
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
            prefetch: config.prefetch,
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
        // `read_chunk` and `read_region` share `eblcio_serve_request_ns`.
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

    /// Decodes chunk `i` through the cache with single-flight
    /// de-duplication. The returned chunk is shared — clones of one
    /// `Arc` — across every concurrent caller.
    fn fetch_chunk(&self, state: &ReadState, i: usize, rid: u64) -> Result<Arc<NdArray<T>>> {
        if let Some(hit) = self.cache.get(state.keys[i]) {
            return Ok(hit);
        }
        self.fetch_chunk_after_miss(state, i, rid)
    }

    /// The miss path: single-flight decode for a chunk the caller has
    /// already (and recently) failed to find in the cache. Split out so
    /// the region engine can probe the whole request cheaply first and
    /// spin up the parallel pool only when something actually needs
    /// decoding. Keyed by `(index, fingerprint)`, so decodes of the
    /// same index for different generations never collide. `rid` is
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

    /// Fetches what a region request needs of chunk `i`. With a
    /// `region`, the miss box-decodes its overlap when
    /// [`Self::prefers_part`] says so and the region covers the chunk
    /// only in part ([`ChunkedStore::decode_chunk_region`]; both are
    /// geometry alone); the result is private to the request — not
    /// cached and not single-flighted, since it is keyed by region, not
    /// chunk. Everything else (including prefetches, which exist to warm
    /// the cache, and chunks the region covers whole) goes through the
    /// cached single-flight whole-chunk path.
    fn fetch_part(
        &self,
        state: &ReadState,
        i: usize,
        region: Option<&Region>,
        rid: u64,
    ) -> Result<Fetched<T>> {
        if let Some(region) = region {
            // A leader may have cached the whole chunk since this
            // request's probe; sharing it beats decoding again.
            if self.cache.peek(state.keys[i]).is_none() && self.prefers_part(state, i, region) {
                let codec = state.decoders[state.store.chunk_chain_index(i)].as_ref();
                let t = self.metrics.partial_decode.start_on(rid);
                if let Some((part, covered)) =
                    state.store.decode_chunk_region::<T>(codec, i, region)?
                {
                    t.finish();
                    self.metrics.decoded_bytes.record(part.nbytes() as u64);
                    return Ok(Fetched::Partial(part, covered));
                }
            }
        }
        self.fetch_chunk_after_miss(state, i, rid).map(Fetched::Whole)
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

    /// Raster-order chunk ids the prefetch policy adds after `last`.
    fn prefetch_ids(&self, state: &ReadState, last: usize) -> Vec<usize> {
        match self.prefetch {
            PrefetchPolicy::None => Vec::new(),
            PrefetchPolicy::Sequential { depth } => ((last + 1)
                ..(last + 1 + depth).min(state.store.n_chunks()))
                .collect(),
        }
    }

    /// Serves chunk `i` through the cache. Out-of-range indices are a
    /// typed error.
    pub fn read_chunk(&self, i: usize) -> Result<Arc<NdArray<T>>> {
        let t = self.metrics.read_chunk.start_root();
        let state = self.state.read().clone();
        if i >= state.store.n_chunks() {
            return Err(CodecError::Corrupt { context: "store chunk reference" });
        }
        self.metrics.chunks_requested.inc();
        let res = self.fetch_chunk(&state, i, t.request_id());
        t.finish();
        res
    }

    /// Serves an axis-aligned region read.
    ///
    /// # Panics
    /// Panics if the region does not fit inside the array shape.
    pub fn read_region(&self, region: &Region) -> Result<NdArray<T>> {
        self.read_region_with_stats(region).map(|(a, _)| a)
    }

    /// Serves a region read and reports how much work it took.
    ///
    /// A freshly allocated output buffer handed to
    /// [`ArrayReader::read_region_into`] — one engine, one accounting
    /// policy, whichever entry point a client uses.
    ///
    /// # Panics
    /// Panics if the region does not fit inside the array shape.
    pub fn read_region_with_stats(&self, region: &Region) -> Result<(NdArray<T>, RequestStats)> {
        let mut out = NdArray::<T>::zeros(region.shape());
        let stats = self.read_region_into(region, &mut out)?;
        Ok((out, stats))
    }

    /// Serves a region read into a caller-provided buffer shaped like
    /// the region.
    ///
    /// Each intersecting chunk is probed in the cache **exactly once**,
    /// through the counting lookup: hits scatter straight into `out`;
    /// misses (plus any uncached prefetch extension) are claimed one at
    /// a time by up to `threads` workers, each of which fetches its
    /// chunk through the non-counting single-flight layer, scatters it
    /// into `out` beside the other workers (each band of `out` has its
    /// own lock) and drops it before claiming the next — so a cold
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
    ///
    /// # Panics
    /// Panics if the region does not fit inside the array shape.
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
    ///
    /// # Panics
    /// Panics if the region does not fit inside the array shape.
    pub fn read_region_le_into(&self, region: &Region, out: &mut [u8]) -> Result<RequestStats> {
        if out.len() != region.len() * T::BYTES {
            return Err(CodecError::Corrupt { context: "read_region_le_into buffer length" });
        }
        self.assemble_region(region, out, scatter_chunk_le)
    }

    /// The region engine every read path funnels through. `out` is the
    /// region's row-major output, `region.len()` samples of whatever
    /// unit `scatter` writes (a typed sample, or its little-endian
    /// bytes). `scatter(piece, covered, dst_region, dst)` stores the
    /// overlap of a fetched piece, which covers the array region
    /// `covered`, with `dst_region` into `dst`, a buffer shaped as
    /// `dst_region` — the whole request, or one band of it. Cached
    /// pieces are stored on the calling thread in raster order, decoded
    /// ones by the worker that fetched them, in completion order.
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
        let (touched, frontier, misses) = WANTED.with(|w| {
            let mut wanted = w.borrow_mut();
            state
                .store
                .grid()
                .chunks_intersecting_into(region, &mut wanted);
            // `chunks_intersecting_into` fills ascending raster order,
            // so the last entry is the scan frontier the prefetcher
            // extends. Regions have positive extents, so `wanted` is
            // never empty for a valid request; a violation is a typed
            // error, not a panic.
            let Some(&frontier) = wanted.last() else {
                return Err(CodecError::Internal { context: "region intersects no chunks" });
            };
            let mut misses: Vec<usize> = Vec::new();
            for &i in wanted.iter() {
                match self.cache.get(state.keys[i]) {
                    Some(chunk) => scatter(&chunk, &state.store.grid().chunk_region(i), region, out),
                    None => misses.push(i),
                }
            }
            Ok((wanted.len(), frontier, misses))
        })?;
        self.metrics.chunks_requested.add(touched as u64);
        let ahead = self.prefetch_ids(&state, frontier);
        self.metrics.prefetched.add(ahead.len() as u64);
        let to_fetch: Vec<(usize, bool)> = misses
            .iter()
            .map(|&i| (i, true))
            .chain(
                ahead
                    .iter()
                    .filter(|&&i| self.cache.peek(state.keys[i]).is_none())
                    .map(|&i| (i, false)),
            )
            .collect();
        let partial = self.finish_cold(&state, region, &to_fetch, out, &scatter, rid)?;
        t.finish();
        Ok(RequestStats {
            chunks_touched: touched,
            chunks_from_cache: touched - misses.len(),
            chunks_prefetched: ahead.len(),
            partial_decodes: partial,
        })
    }

    /// The cold half of the region engine: `to_fetch`, the
    /// probed-and-missed chunks (`true`) plus the uncached prefetch
    /// extension (`false`), goes to the pool's workers, which claim its
    /// entries one at a time. The output is cut into [`Bands`], so
    /// workers copy their pieces side by side: a worker stores its
    /// piece band by band, taking the bands no one else is filling
    /// first, waits only when every band its piece still needs is busy,
    /// and drops the piece before claiming the next — so at most one
    /// decoded piece per worker is alive beside what the cache retains.
    /// The first failing miss fails the request and stops further
    /// claims; a failing prefetch never does — a real read of that
    /// chunk will surface the error. Cache probes here are non-counting
    /// (`peek` and the single-flight re-check) — the caller already
    /// charged exactly one hit or miss per wanted chunk, and charging
    /// again is the double-count this engine exists to prevent. Returns
    /// how many misses were served by sub-chunk (partial) decodes. A
    /// no-op when `to_fetch` is empty — the zero-allocation case.
    fn finish_cold<U: Send>(
        &self,
        state: &ReadState,
        region: &Region,
        to_fetch: &[(usize, bool)],
        out: &mut [U],
        scatter: &(impl Fn(&NdArray<T>, &Region, &Region, &mut [U]) + Sync),
        rid: u64,
    ) -> Result<usize> {
        if to_fetch.is_empty() {
            return Ok(0);
        }
        let partial = AtomicUsize::new(0);
        let bands = Bands::split(region, out, BANDS_PER_WORKER * self.pool.current_num_threads());
        self.pool.install(|| {
            to_fetch.par_iter().try_for_each(|&(i, wanted)| {
                // Only wanted chunks may decode partially: a
                // prefetch's entire point is a cached whole chunk.
                let part = self.fetch_part(state, i, wanted.then_some(region), rid);
                if !wanted {
                    return Ok(());
                }
                match part? {
                    Fetched::Whole(p) => bands.scatter(&p, &state.store.grid().chunk_region(i), scatter),
                    Fetched::Partial(p, covered) => {
                        // A statistic; publishes nothing else.
                        partial.fetch_add(1, Ordering::Relaxed);
                        bands.scatter(&p, &covered, scatter);
                    }
                }
                Ok(())
            })
        })?;
        Ok(partial.into_inner())
    }

    /// Warms the cache with every chunk `region` intersects without
    /// assembling anything — an explicit prefetch clients can issue
    /// ahead of a predictable access pattern. Decode errors are
    /// deferred to the read that actually needs the chunk.
    pub fn prefetch_region(&self, region: &Region) {
        let state = self.state.read().clone();
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
