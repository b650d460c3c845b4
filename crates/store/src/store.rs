//! [`ChunkedStore`]: write a field as independently compressed chunks —
//! with one codec chain, an explicit chain per chunk, or adaptive
//! per-chunk selection — and read back all of it, one chunk, or any
//! axis-aligned region.

use crate::grid::{copy_region, gather, scatter_chunk, ChunkGrid, Region};
use crate::manifest::{ChunkEntry, ChunkSlot, Manifest, ShardTable, MAX_CHAINS};
use crate::metrics::store_metrics;
use crate::mutable;
use crate::shard::{build_shard, MAX_SLOTS};
use crate::storage::Storage;
use parking_lot::Mutex;
use std::sync::Arc;
use eblcio_codec::estimate::estimate_cr;
use eblcio_codec::header::{check_dtype, typed};
use eblcio_codec::parallel::pool_for;
use eblcio_codec::util::crc32;
use eblcio_codec::{
    compress, compress_view, decompress, ChainSpec, CodecError, Compressor, CompressorId,
    ErrorBound, Result,
};
use eblcio_data::shape::MAX_RANK;
use eblcio_data::{Element, NdArray, QualityReport, Shape};
use eblcio_obs::{self as obs, Stopwatch};
use rayon::prelude::*;

/// Statistics of a partial read — how much work a region read actually
/// did, used to verify (and benchmark) that only intersecting chunks
/// pay decompression and I/O cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionReadStats {
    /// Chunks decompressed to satisfy the read.
    pub chunks_decoded: usize,
    /// Chunks in the whole store.
    pub chunks_total: usize,
    /// Compressed bytes touched (the intersecting chunks' payloads).
    pub compressed_bytes_read: u64,
    /// Intersecting chunks satisfied by a partial (sub-chunk) decode
    /// instead of a whole-chunk decode.
    pub partial_decodes: usize,
    /// Samples actually reconstructed by the decoders — the sum of
    /// decoded chunk (or sub-region) lengths, so a partial read shows
    /// measurably fewer samples than whole-chunk assembly would.
    pub samples_decoded: u64,
}

/// Rows sampled per chunk when the adaptive writer prices a candidate
/// chain (zPerf-style CR estimation, not a full compression).
const ADAPTIVE_SAMPLE_SLABS: usize = 3;
const ADAPTIVE_SAMPLE_ROWS: usize = 2;

/// A reader over a chunked compressed array stream, plus the
/// associated write entry points that produce such streams.
///
/// The container splits an array into a regular chunk grid, compresses
/// every chunk independently at one error bound (ε resolved once
/// against the *global* value range, so per-chunk streams honour the
/// same contract as whole-array compression), and prefixes a manifest
/// indexing every chunk. Since the chain refactor the manifest carries
/// a chain table and a per-chunk chain column, so one store can hold
/// mixed codecs: [`ChunkedStore::write`] uses one chain everywhere,
/// [`ChunkedStore::write_mixed`] takes an explicit chunk→chain
/// assignment, and [`ChunkedStore::write_adaptive`] picks the best
/// candidate per chunk from sampled CR estimates. See
/// [`crate::manifest`] for the byte layout.
///
/// The store *shares* its underlying bytes behind an `Arc`, so clones
/// and every decoded view are snapshot-isolated: once opened, a store's
/// bytes can never change under it, even while a
/// [`MutableStore`](crate::mutable::MutableStore) publishes newer
/// generations of the same array. [`ChunkedStore::open`] copies the
/// borrowed stream once; [`ChunkedStore::open_arc`] adopts an existing
/// allocation without copying.
#[derive(Clone, Debug)]
pub struct ChunkedStore {
    manifest: Manifest,
    grid: ChunkGrid,
    manifest_len: usize,
    bytes: Arc<[u8]>,
    /// Byte offset inside `bytes` that chunk offsets are relative to:
    /// the manifest's end for v1–v3 streams, 0 for v4 generations
    /// (whose offsets are absolute file offsets).
    payload_start: usize,
}

/// Assembles the finished stream from per-chunk streams + chain picks.
fn assemble<T: Element>(
    chains: Vec<ChainSpec>,
    picks: &[usize],
    streams: Vec<Vec<u8>>,
    shape: Shape,
    chunk_shape: Shape,
    abs: f64,
) -> Vec<u8> {
    // Keep only the chains that chunks actually reference, in first-use
    // order, so adaptive candidates that never win don't bloat the
    // manifest.
    let mut remap = vec![u32::MAX; chains.len()];
    let mut used: Vec<ChainSpec> = Vec::new();
    let mut chunks = Vec::with_capacity(streams.len());
    let mut offset = 0u64;
    for (i, s) in streams.iter().enumerate() {
        let pick = picks[i];
        if remap[pick] == u32::MAX {
            remap[pick] = used.len() as u32;
            used.push(chains[pick].clone());
        }
        chunks.push(ChunkEntry {
            chain: remap[pick],
            offset,
            len: s.len() as u64,
        });
        offset += s.len() as u64;
    }
    let manifest = Manifest {
        dtype: T::DTYPE,
        shape,
        chunk_shape,
        abs_bound: abs,
        chains: used,
        chunks,
        sharding: None,
        generation: None,
    };
    let mut out = manifest.encode();
    out.reserve(offset as usize);
    for s in &streams {
        out.extend_from_slice(s);
    }
    out
}

/// Assembles a *sharded* (v3) stream: consecutive raster-order chunks
/// are packed `chunks_per_shard` at a time into `EBSH` objects, and the
/// manifest maps each chunk to its (shard, slot).
fn assemble_sharded<T: Element>(
    chain: ChainSpec,
    streams: Vec<Vec<u8>>,
    shape: Shape,
    chunk_shape: Shape,
    abs: f64,
    chunks_per_shard: usize,
) -> Vec<u8> {
    let shards: Vec<Vec<u8>> = streams.chunks(chunks_per_shard).map(build_shard).collect();
    let chunks: Vec<ChunkEntry> = streams
        .iter()
        .map(|_| ChunkEntry { chain: 0, offset: 0, len: 0 })
        .collect();
    let chunk_slots: Vec<ChunkSlot> = (0..streams.len())
        .map(|i| ChunkSlot {
            shard: (i / chunks_per_shard) as u32,
            slot: (i % chunks_per_shard) as u32,
        })
        .collect();
    let manifest = Manifest {
        dtype: T::DTYPE,
        shape,
        chunk_shape,
        abs_bound: abs,
        chains: vec![chain],
        chunks,
        sharding: Some(ShardTable {
            shard_lens: shards.iter().map(|s| s.len() as u64).collect(),
            chunk_slots,
            index_lens: Vec::new(),
            chunk_crcs: Vec::new(),
        }),
        generation: None,
    };
    let mut out = manifest.encode();
    out.reserve(shards.iter().map(Vec::len).sum());
    for s in &shards {
        out.extend_from_slice(s);
    }
    out
}

/// Compresses every chunk of `grid` in parallel on the shared rayon
/// pool for `threads` workers, chunk `i` with `codec_for(i)`: slab
/// chunks from borrowed views, interior chunks gathered first.
fn compress_chunks<'c, T: Element>(
    grid: &ChunkGrid,
    data: &NdArray<T>,
    bound: ErrorBound,
    threads: usize,
    codec_for: impl Fn(usize) -> &'c (dyn Compressor) + Sync,
) -> Result<Vec<Vec<u8>>> {
    let ids: Vec<usize> = (0..grid.n_chunks()).collect();
    let pool = pool_for(threads)?;
    let streams: Vec<Result<Vec<u8>>> = pool.install(|| {
        ids.par_iter()
            .map(|&i| {
                let codec = codec_for(i);
                let region = grid.chunk_region(i);
                if grid.chunk_is_slab(i) {
                    let view = data.slab(region.origin()[0], region.extent()[0]);
                    compress_view(codec, view, bound)
                } else {
                    let owned = gather(data, &region);
                    compress_view(codec, owned.view(), bound)
                }
            })
            .collect()
    });
    streams.into_iter().collect()
}

impl ChunkedStore {
    /// Compresses `data` into a chunked stream with one codec chain.
    ///
    /// Chunks are compressed in parallel on the shared rayon pool for
    /// `threads` workers. Chunks that are contiguous dimension-0 slabs
    /// are compressed from zero-copy borrowed views; interior chunks of
    /// multi-axis grids are gathered into a chunk-sized buffer first
    /// (unavoidable for non-contiguous regions of a row-major array).
    pub fn write<T: Element>(
        codec: &dyn Compressor,
        data: &NdArray<T>,
        bound: ErrorBound,
        chunk_shape: Shape,
        threads: usize,
    ) -> Result<Vec<u8>> {
        assert!(threads >= 1, "thread count must be >= 1");
        let grid = ChunkGrid::new(data.shape(), chunk_shape);
        // Resolve ε once against the global range: chunk-local ranges
        // are narrower, so resolving per chunk would tighten the bound
        // inconsistently across the grid.
        let abs = bound.to_absolute(data.value_range())?;
        let bound = ErrorBound::Absolute(abs);

        let streams = compress_chunks(&grid, data, bound, threads, |_| codec)?;
        let picks = vec![0usize; streams.len()];
        Ok(assemble::<T>(
            vec![codec.spec()],
            &picks,
            streams,
            data.shape(),
            grid.chunk_shape(),
            abs,
        ))
    }

    /// Compresses `data` into a *sharded* (v3) stream: chunks are
    /// compressed exactly as [`ChunkedStore::write`] does, then packed
    /// `chunks_per_shard` at a time (raster order) into `EBSH` shard
    /// objects, each with an inner offset/length/CRC index.
    ///
    /// Sharding is the layout for chunk counts that would otherwise
    /// drown a parallel file system in objects: placement and manifest
    /// cost scale with the shard count while partial reads still
    /// address individual chunks through the inner indices. All read
    /// paths work identically on sharded and unsharded stores.
    pub fn write_sharded<T: Element>(
        codec: &dyn Compressor,
        data: &NdArray<T>,
        bound: ErrorBound,
        chunk_shape: Shape,
        chunks_per_shard: usize,
        threads: usize,
    ) -> Result<Vec<u8>> {
        assert!(threads >= 1, "thread count must be >= 1");
        if chunks_per_shard == 0 || chunks_per_shard > MAX_SLOTS {
            return Err(CodecError::InvalidChain {
                reason: "chunks_per_shard must be between 1 and MAX_SLOTS",
            });
        }
        let grid = ChunkGrid::new(data.shape(), chunk_shape);
        let abs = bound.to_absolute(data.value_range())?;
        let bound = ErrorBound::Absolute(abs);

        let streams = compress_chunks(&grid, data, bound, threads, |_| codec)?;
        Ok(assemble_sharded::<T>(
            codec.spec(),
            streams,
            data.shape(),
            grid.chunk_shape(),
            abs,
            chunks_per_shard,
        ))
    }

    /// Compresses `data` with an explicit chain per chunk: chunk `i`
    /// (raster order of the chunk grid) uses `chains[picks[i]]`.
    pub fn write_mixed<T: Element>(
        chains: &[ChainSpec],
        picks: &[usize],
        data: &NdArray<T>,
        bound: ErrorBound,
        chunk_shape: Shape,
        threads: usize,
    ) -> Result<Vec<u8>> {
        assert!(threads >= 1, "thread count must be >= 1");
        let grid = ChunkGrid::new(data.shape(), chunk_shape);
        if chains.is_empty() || chains.len() > MAX_CHAINS {
            return Err(CodecError::InvalidChain {
                reason: "a store needs between 1 and MAX_CHAINS chains",
            });
        }
        if picks.len() != grid.n_chunks() {
            return Err(CodecError::InvalidChain {
                reason: "picks must assign exactly one chain per grid chunk",
            });
        }
        if picks.iter().any(|&p| p >= chains.len()) {
            return Err(CodecError::InvalidChain {
                reason: "pick index beyond the chain list",
            });
        }
        let instances: Vec<Box<dyn Compressor>> = chains
            .iter()
            .map(|s| s.build_boxed())
            .collect::<Result<_>>()?;
        let abs = bound.to_absolute(data.value_range())?;
        let bound = ErrorBound::Absolute(abs);

        let streams =
            compress_chunks(&grid, data, bound, threads, |i| instances[picks[i]].as_ref())?;
        Ok(assemble::<T>(
            chains.to_vec(),
            picks,
            streams,
            data.shape(),
            grid.chunk_shape(),
            abs,
        ))
    }

    /// Adaptive mode: for every chunk, prices each candidate chain with
    /// a sampled CR estimate (a fraction of a full compression) and
    /// compresses the chunk with the winner. One store, mixed codecs,
    /// chosen by the data.
    ///
    /// Returns the stream; open it to see the per-chunk selection
    /// ([`ChunkedStore::chunk_chain`]).
    pub fn write_adaptive<T: Element>(
        candidates: &[ChainSpec],
        data: &NdArray<T>,
        bound: ErrorBound,
        chunk_shape: Shape,
        threads: usize,
    ) -> Result<Vec<u8>> {
        assert!(threads >= 1, "thread count must be >= 1");
        let grid = ChunkGrid::new(data.shape(), chunk_shape);
        if candidates.is_empty() || candidates.len() > MAX_CHAINS {
            return Err(CodecError::InvalidChain {
                reason: "adaptive selection needs between 1 and MAX_CHAINS candidates",
            });
        }
        let instances: Vec<Box<dyn Compressor>> = candidates
            .iter()
            .map(|s| s.build_boxed())
            .collect::<Result<_>>()?;
        let abs = bound.to_absolute(data.value_range())?;
        let bound = ErrorBound::Absolute(abs);

        let ids: Vec<usize> = (0..grid.n_chunks()).collect();
        let pool = pool_for(threads)?;
        let results: Vec<Result<(usize, Vec<u8>)>> = pool.install(|| {
            ids.par_iter()
                .map(|&i| {
                    let owned = gather(data, &grid.chunk_region(i));
                    let mut best = 0usize;
                    let mut best_cr = f64::NEG_INFINITY;
                    for (c, inst) in instances.iter().enumerate() {
                        let est = estimate_cr(
                            inst.as_ref(),
                            &owned,
                            bound,
                            ADAPTIVE_SAMPLE_SLABS,
                            ADAPTIVE_SAMPLE_ROWS,
                        )?;
                        if est.cr > best_cr {
                            best_cr = est.cr;
                            best = c;
                        }
                    }
                    let stream = compress(instances[best].as_ref(), &owned, bound)?;
                    Ok((best, stream))
                })
                .collect()
        });
        let mut picks = Vec::with_capacity(results.len());
        let mut streams = Vec::with_capacity(results.len());
        for r in results {
            let (pick, stream) = r?;
            picks.push(pick);
            streams.push(stream);
        }
        Ok(assemble::<T>(
            candidates.to_vec(),
            &picks,
            streams,
            data.shape(),
            grid.chunk_shape(),
            abs,
        ))
    }

    /// Opens a store container (an `EBMS` image at its current
    /// generation), parsing and validating the manifest without
    /// touching any chunk payload. The stream bytes are copied once
    /// into a shared allocation; use [`ChunkedStore::open_arc`] to
    /// adopt an existing `Arc` without copying.
    pub fn open(stream: &[u8]) -> Result<Self> {
        Self::open_arc(Arc::from(stream))
    }

    /// Opens the store object under `key` on a [`Storage`] backend. The
    /// whole object is fetched once (one GET on an object store); the
    /// shared allocation is adopted without further copies.
    pub fn open_from(storage: &dyn Storage, key: &str) -> Result<Self> {
        Self::open_arc(storage.get(key)?)
    }

    /// Opens whichever store container a shared allocation holds,
    /// without copying — the one sniff every open path goes through: an
    /// `EBMS` mutable store opens at its current generation, anything
    /// else must be an immutable `EBCS` stream.
    ///
    /// Rejects a bare v4 generational manifest: its chunk offsets point
    /// into a surrounding mutable-store file, so it is only openable
    /// through [`MutableStore`](crate::mutable::MutableStore) (or
    /// [`ChunkedStore::open_generation`] with that file).
    pub fn open_arc(bytes: Arc<[u8]>) -> Result<Self> {
        if bytes.starts_with(mutable::MUTABLE_MAGIC) {
            return mutable::MutableStore::open_arc(bytes)?.current();
        }
        let (manifest, payload_start) = Manifest::decode(&bytes)?;
        if manifest.generation.is_some() {
            return Err(CodecError::Corrupt {
                context: "generational manifest outside a mutable store",
            });
        }
        let grid = manifest.grid();
        Ok(Self {
            grid,
            manifest_len: payload_start,
            payload_start,
            bytes,
            manifest,
        })
    }

    /// Opens one generation of a mutable store: parses the v4 manifest
    /// at `manifest_offset..manifest_offset + manifest_len` of `file`
    /// and validates that every chunk object it references lies inside
    /// the object log *before* the manifest (publishes append objects,
    /// then their manifest, then flip the root — a manifest can only
    /// ever see bytes older than itself).
    ///
    /// `log_start` is where the object log begins (the superblock
    /// length for `EBMS` files); no chunk may reach below it.
    pub fn open_generation(
        file: Arc<[u8]>,
        log_start: usize,
        manifest_offset: usize,
        manifest_len: usize,
    ) -> Result<Self> {
        let end = manifest_offset
            .checked_add(manifest_len)
            .filter(|&e| e <= file.len() && manifest_offset >= log_start)
            .ok_or(CodecError::Corrupt { context: "store manifest reference" })?;
        let (manifest, consumed) = Manifest::decode(&file[manifest_offset..end])?;
        if manifest.generation.is_none() || consumed != manifest_len {
            return Err(CodecError::Corrupt { context: "store manifest reference" });
        }
        for c in &manifest.chunks {
            let lo = c.offset as usize;
            let hi = c.offset.checked_add(c.len).map(|e| e as usize);
            if lo < log_start || hi.is_none_or(|hi| hi > manifest_offset) {
                return Err(CodecError::Corrupt { context: "store chunk reference" });
            }
        }
        let grid = manifest.grid();
        Ok(Self {
            grid,
            manifest_len,
            payload_start: 0,
            bytes: file,
            manifest,
        })
    }

    /// The underlying shared bytes (the whole stream, or the whole
    /// mutable-store file for a v4 generation).
    pub fn bytes(&self) -> &Arc<[u8]> {
        &self.bytes
    }

    /// This snapshot's generation id: 0 for static (v1–v3) streams,
    /// ≥ 1 for generations of a mutable store.
    pub fn generation(&self) -> u64 {
        self.manifest.generation.as_ref().map_or(0, |g| g.generation)
    }

    /// The generation that wrote chunk `i`'s object (0 for static
    /// stores). Chunks untouched since the store was created carry 1.
    ///
    /// # Panics
    /// Panics if `i >= n_chunks()`.
    pub fn chunk_born_gen(&self, i: usize) -> u64 {
        assert!(i < self.n_chunks(), "chunk {i} out of {}", self.n_chunks());
        self.manifest.generation.as_ref().map_or(0, |g| g.born_gens[i])
    }

    /// Content fingerprint of chunk `i`: the writing generation folded
    /// with the object's payload CRC (0 for static stores, where
    /// content never changes). Within one store lineage,
    /// `(i, fingerprint)` uniquely identifies the chunk's bytes —
    /// within a generation a chunk is written at most once — and the
    /// CRC half makes an accidental match across *unrelated* stores of
    /// the same geometry vanishingly unlikely. Serving caches key on
    /// this pair, which is what makes a stale hit after a refresh
    /// impossible. Compaction copies objects byte-identically, so
    /// fingerprints (and warm caches) survive it.
    ///
    /// # Panics
    /// Panics if `i >= n_chunks()`.
    pub fn chunk_fingerprint(&self, i: usize) -> u64 {
        assert!(i < self.n_chunks(), "chunk {i} out of {}", self.n_chunks());
        self.manifest.generation.as_ref().map_or(0, |g| {
            (g.born_gens[i] << 32) | u64::from(g.chunk_crcs[i])
        })
    }

    /// The single paper codec behind this store, when every chunk uses
    /// one preset chain (`None` for mixed or custom-chain stores).
    pub fn codec_id(&self) -> Option<CompressorId> {
        self.manifest.codec_id()
    }

    /// The manifest's chain table.
    pub fn chains(&self) -> &[ChainSpec] {
        &self.manifest.chains
    }

    /// The parsed manifest (what a writer clones to derive the next
    /// generation of a mutable store).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The chain chunk `i` was compressed with.
    ///
    /// # Panics
    /// Panics if `i >= n_chunks()`.
    pub fn chunk_chain(&self, i: usize) -> &ChainSpec {
        &self.manifest.chains[self.manifest.chunks[i].chain as usize]
    }

    /// Element type tag (0 = f32, 1 = f64).
    pub fn dtype(&self) -> u8 {
        self.manifest.dtype
    }

    /// Full array shape.
    pub fn shape(&self) -> Shape {
        self.manifest.shape
    }

    /// Interior chunk shape.
    pub fn chunk_shape(&self) -> Shape {
        self.manifest.chunk_shape
    }

    /// The absolute error bound every chunk honours.
    pub fn abs_bound(&self) -> f64 {
        self.manifest.abs_bound
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.manifest.chunks.len()
    }

    /// The chunk grid.
    pub fn grid(&self) -> &ChunkGrid {
        &self.grid
    }

    /// Compressed sizes of every chunk, in raster order (what a striped
    /// writer places across storage targets).
    pub fn chunk_lens(&self) -> Vec<u64> {
        self.manifest.chunks.iter().map(|c| c.len).collect()
    }

    /// The shard table, when this is a sharded (v3) store.
    pub fn sharding(&self) -> Option<&ShardTable> {
        self.manifest.sharding.as_ref()
    }

    /// True when the payload is packed into `EBSH` shard objects.
    pub fn is_sharded(&self) -> bool {
        self.manifest.sharding.is_some()
    }

    /// Byte sizes of the objects a striped writer places across storage
    /// targets: the shard objects of a sharded store, the bare chunk
    /// payloads otherwise.
    pub fn object_lens(&self) -> Vec<u64> {
        match &self.manifest.sharding {
            Some(t) => t.shard_lens.clone(),
            None => self.chunk_lens(),
        }
    }

    /// Manifest bytes preceding the payload (metadata cost of a write).
    pub fn manifest_len(&self) -> usize {
        self.manifest_len
    }

    /// Borrows the compressed payload of chunk `i`, validating the
    /// index range instead of slicing blind — a manifest field beyond
    /// the mapped bytes surfaces as a typed error, never a panic. When
    /// the manifest records a payload CRC (sharded v3 slots, v4
    /// generational chunks) it is verified too, catching torn object
    /// bytes before the (far more expensive) chunk decode starts.
    pub fn chunk_payload(&self, i: usize) -> Result<&[u8]> {
        let e = self
            .manifest
            .chunks
            .get(i)
            .ok_or(CodecError::Corrupt { context: "store chunk reference" })?;
        let payload = &self.bytes[self.payload_start..];
        let bytes = e
            .offset
            .checked_add(e.len)
            .and_then(|end| payload.get(e.offset as usize..end as usize))
            .ok_or(CodecError::TruncatedStream { context: "store chunk payload" })?;
        if let Some(want) = self.manifest.chunk_crc(i) {
            if crc32(bytes) != want {
                return Err(CodecError::ChecksumMismatch);
            }
        }
        Ok(bytes)
    }

    /// Builds one decoder per chain-table entry (shared across chunks);
    /// index with [`ChunkedStore::chunk_chain_index`].
    pub fn decoders(&self) -> Result<Vec<Box<dyn Compressor>>> {
        self.manifest.chains.iter().map(|s| s.build_boxed()).collect()
    }

    /// Index into the chain table ([`ChunkedStore::chains`] /
    /// [`ChunkedStore::decoders`]) for chunk `i`.
    ///
    /// # Panics
    /// Panics if `i >= n_chunks()`.
    pub fn chunk_chain_index(&self, i: usize) -> usize {
        self.manifest.chunks[i].chain as usize
    }

    /// Decompresses chunk `i` alone. An out-of-range index is a typed
    /// error, not a panic — serving layers pass client-supplied chunk
    /// ids straight through.
    pub fn read_chunk<T: Element>(&self, i: usize) -> Result<NdArray<T>> {
        check_dtype::<T>(self.manifest.dtype)?;
        if i >= self.n_chunks() {
            return Err(CodecError::Corrupt { context: "store chunk reference" });
        }
        let codec = self.chunk_chain(i).build_boxed()?;
        self.decode_chunk(codec.as_ref(), i)
    }

    /// Decodes one chunk with an already-built decoder (see
    /// [`ChunkedStore::decoders`]), so callers that decode many chunks —
    /// the read paths here and `eblcio_serve`'s cache-miss path — share
    /// one definition of "decode and shape-check a chunk" without
    /// rebuilding a decoder per chunk.
    pub fn decode_chunk<T: Element>(
        &self,
        codec: &dyn Compressor,
        i: usize,
    ) -> Result<NdArray<T>> {
        let arr = decompress::<T>(codec, self.chunk_payload(i)?)?;
        if arr.shape() != self.grid.chunk_region(i).shape() {
            return Err(CodecError::Corrupt { context: "store chunk shape" });
        }
        Ok(arr)
    }

    /// Box-decodes what `region` needs from chunk `i`:
    /// `Some((part, covered))` — the decoded chunk∩`region` intersection
    /// and the array region it covers — when `region` covers the chunk
    /// in part. `None` is geometry alone: the chunk lies wholly inside
    /// `region` (decode it whole, [`ChunkedStore::decode_chunk`]) or
    /// wholly outside it. The store's own region reads and
    /// `eblcio_serve`'s miss path both route through here, so a read
    /// that keeps nothing decodes exactly the samples it delivers; a
    /// reader whose cache would keep the whole chunk decides before
    /// calling (`eblcio_serve::ArrayReader`).
    pub fn decode_chunk_region<T: Element>(
        &self,
        codec: &dyn Compressor,
        i: usize,
        region: &Region,
    ) -> Result<Option<(NdArray<T>, Region)>> {
        let chunk_region = self.grid.chunk_region(i);
        let Some(inter) = chunk_region.intersect(region) else {
            return Ok(None);
        };
        if inter.len() == chunk_region.len() {
            return Ok(None);
        }
        let rank = inter.rank();
        let mut origin = [0usize; MAX_RANK];
        for (d, o) in origin.iter_mut().enumerate().take(rank) {
            *o = inter.origin()[d] - chunk_region.origin()[d];
        }
        let payload = self.chunk_payload(i)?;
        let part: NdArray<T> =
            typed(codec.decompress_region(payload, T::DTYPE, &origin[..rank], inter.extent())?)?;
        if part.shape() != inter.shape() {
            return Err(CodecError::Corrupt { context: "store chunk region shape" });
        }
        Ok(Some((part, inter)))
    }

    /// Decompresses the whole array on `threads` workers of the shared
    /// rayon pool. Workers claim chunks one at a time, and each copies
    /// its decoded chunk into the output (under a short lock) and drops
    /// it before claiming the next, so no more than `threads` decoded
    /// chunks are alive beside the output.
    pub fn read_full<T: Element>(&self, threads: usize) -> Result<NdArray<T>> {
        assert!(threads >= 1, "thread count must be >= 1");
        check_dtype::<T>(self.manifest.dtype)?;
        let decoders = self.decoders()?;
        let ids: Vec<usize> = (0..self.n_chunks()).collect();
        let out = Mutex::new(NdArray::<T>::zeros(self.manifest.shape));
        pool_for(threads)?.install(|| {
            ids.par_iter().try_for_each(|&i| {
                let codec = decoders[self.manifest.chunks[i].chain as usize].as_ref();
                let part = self.decode_chunk::<T>(codec, i)?;
                let region = self.grid.chunk_region(i);
                let rank = region.rank();
                copy_region(
                    part.as_slice(),
                    part.shape(),
                    &[0usize; MAX_RANK][..rank],
                    out.lock().as_mut_slice(),
                    self.manifest.shape,
                    region.origin(),
                    region.extent(),
                );
                Ok(())
            })
        })?;
        Ok(out.into_inner())
    }

    /// Decompresses exactly the chunks intersecting `region` and
    /// assembles the requested box, reporting how much work that took.
    /// A chunk the region covers only in part reconstructs just that
    /// part ([`ChunkedStore::decode_chunk_region`]) — see
    /// [`RegionReadStats::partial_decodes`] and
    /// [`RegionReadStats::samples_decoded`].
    ///
    /// Intersecting chunks decode in parallel (like
    /// [`ChunkedStore::read_full`]) across the width installed on the
    /// shared rayon pool — callers wanting a specific width wrap the
    /// call in `pool_for(threads)?.install(..)`; outside any pool the
    /// machine's parallelism applies. Each worker scatters the piece it
    /// decoded into the output box itself, under a short lock (the copy
    /// is memcpy-bound and a fraction of decode cost), and drops it
    /// before claiming the next chunk.
    ///
    /// # Panics
    /// Panics if the region does not fit inside the array shape.
    pub fn read_region_with_stats<T: Element>(
        &self,
        region: &Region,
    ) -> Result<(NdArray<T>, RegionReadStats)> {
        let m = store_metrics();
        let sw = Stopwatch::start();
        let _span = obs::span_id_from(m.span_read_region, sw);
        check_dtype::<T>(self.manifest.dtype)?;
        let decoders = self.decoders()?;
        let hits = self.grid.chunks_intersecting(region);
        let stats = RegionReadStats {
            chunks_decoded: hits.len(),
            chunks_total: self.n_chunks(),
            ..RegionReadStats::default()
        };
        let assembled = Mutex::new((NdArray::<T>::zeros(region.shape()), stats));
        hits.par_iter().try_for_each(|&i| {
            let codec = decoders[self.manifest.chunks[i].chain as usize].as_ref();
            let (part, part_region, partial) =
                match self.decode_chunk_region::<T>(codec, i, region)? {
                    Some((part, covered)) => (part, covered, true),
                    None => (self.decode_chunk(codec, i)?, self.grid.chunk_region(i), false),
                };
            let mut guard = assembled.lock();
            let (out, stats) = &mut *guard;
            stats.compressed_bytes_read += self.manifest.chunks[i].len;
            stats.partial_decodes += usize::from(partial);
            stats.samples_decoded += part.len() as u64;
            scatter_chunk(&part, &part_region, region, out);
            Ok(())
        })?;
        m.read_region_ns.record(sw.elapsed_ns());
        Ok(assembled.into_inner())
    }

    /// Decompresses an axis-aligned region, touching only the chunks
    /// that intersect it.
    pub fn read_region<T: Element>(&self, region: &Region) -> Result<NdArray<T>> {
        self.read_region_with_stats(region).map(|(a, _)| a)
    }

    /// Per-chunk quality summary against the original array: one
    /// [`QualityReport`] per chunk in raster order, each computed over
    /// that chunk's samples and compressed size.
    pub fn chunk_quality<T: Element>(&self, original: &NdArray<T>) -> Result<Vec<QualityReport>> {
        check_dtype::<T>(self.manifest.dtype)?;
        if original.shape() != self.manifest.shape {
            return Err(CodecError::Corrupt { context: "store quality shape" });
        }
        let decoders = self.decoders()?;
        let mut out = Vec::with_capacity(self.n_chunks());
        for i in 0..self.n_chunks() {
            let codec = decoders[self.manifest.chunks[i].chain as usize].as_ref();
            let recon = self.decode_chunk::<T>(codec, i)?;
            let orig = gather(original, &self.grid.chunk_region(i));
            out.push(QualityReport::evaluate(
                &orig,
                &recon,
                self.manifest.chunks[i].len as usize,
            ));
        }
        Ok(out)
    }
}
