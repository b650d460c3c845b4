//! [`ChunkedStore`]: write a field as independently compressed chunks —
//! with one codec chain, an explicit chain per chunk, or adaptive
//! per-chunk selection — and read back all of it, one chunk, or any
//! axis-aligned region.
//!
//! One loop writes every store: each writer (and
//! [`MutableStore::create`](crate::mutable::MutableStore::create)) is
//! input validation plus one pass of the crate's chunk-encode loop,
//! which differs per writer only in how a chunk picks its chain; one
//! assembler then lays the streams out as a contiguous (v2) or sharded
//! (v3) `EBCS` stream. Reads are region reads: a whole-array read is a
//! [`ChunkedStore::read_region`] of the full shape.

use crate::engine::scatter_region;
use crate::grid::{gather, scatter_chunk_into, ChunkGrid, GatherBuffers, Region};
use crate::manifest::{ChunkEntry, ChunkSlot, Manifest, ShardTable, MAX_CHAINS};
use crate::metrics::store_metrics;
use crate::mutable;
use crate::shard::{shard_index, MAX_SLOTS};
use crate::storage::Storage;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
use eblcio_data::{ArrayView, Element, NdArray, QualityReport, Shape};
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

/// A chunk's encoded stream and its CRC-32.
pub(crate) type ChunkStream = (Vec<u8>, u32);

/// Compresses every chunk of `data` on the shared rayon pool for
/// `threads` workers — the one loop behind every store writer. ε is
/// resolved once against the *global* value range (chunk-local ranges
/// are narrower, so resolving per chunk would tighten the bound
/// inconsistently across the grid), and `encode(i, chunk, bound)` turns
/// chunk `i` into `(index into chains, stream)`. Slab chunks are
/// borrowed views; interior chunks of multi-axis grids are gathered
/// first (unavoidable for non-contiguous regions of a row-major array),
/// each into a buffer a worker keeps for its next gather.
///
/// Returns the unsharded manifest — holding only the chains some chunk
/// uses, in first-use order, so adaptive candidates that never win cost
/// no manifest bytes — and the streams in raster order, each with its
/// CRC-32 (taken on the worker that encoded it).
pub(crate) fn encode_chunks<T: Element>(
    chains: &[ChainSpec],
    data: &NdArray<T>,
    bound: ErrorBound,
    chunk_shape: Shape,
    threads: usize,
    encode: impl Fn(usize, ArrayView<'_, T>, ErrorBound) -> Result<(usize, Vec<u8>)> + Sync,
) -> Result<(Manifest, Vec<ChunkStream>)> {
    assert!(threads >= 1, "thread count must be >= 1");
    let grid = ChunkGrid::new(data.shape(), chunk_shape);
    let abs = match bound {
        ErrorBound::Relative(_) => bound.to_absolute(value_range(data, threads)?)?,
        ErrorBound::Absolute(_) => bound.to_absolute(0.0)?,
    };
    let bound = ErrorBound::Absolute(abs);
    let ids: Vec<usize> = (0..grid.n_chunks()).collect();
    let spare = GatherBuffers::default();
    let encoded: Vec<Result<(usize, Vec<u8>, u32)>> = pool_for(threads)?.install(|| {
        ids.par_iter()
            .map(|&i| {
                let region = grid.chunk_region(i);
                let (pick, stream) = if grid.chunk_is_slab(i) {
                    encode(i, data.slab(region.origin()[0], region.extent()[0]), bound)?
                } else {
                    spare.with(data, &region, |chunk| encode(i, chunk, bound))?
                };
                let crc = crc32(&stream);
                Ok((pick, stream, crc))
            })
            .collect()
    });
    let mut remap = vec![u32::MAX; chains.len()];
    let mut used = Vec::new();
    let mut chunks = Vec::with_capacity(ids.len());
    let mut streams = Vec::with_capacity(ids.len());
    let mut offset = 0u64;
    for r in encoded {
        let (pick, stream, crc) = r?;
        if remap[pick] == u32::MAX {
            remap[pick] = used.len() as u32;
            used.push(chains[pick].clone());
        }
        chunks.push(ChunkEntry { chain: remap[pick], offset, len: stream.len() as u64 });
        offset += stream.len() as u64;
        streams.push((stream, crc));
    }
    let manifest = Manifest {
        dtype: T::DTYPE,
        shape: data.shape(),
        chunk_shape: grid.chunk_shape(),
        abs_bound: abs,
        chains: used,
        chunks,
        sharding: None,
        generation: None,
    };
    Ok((manifest, streams))
}

/// `data`'s value range for a relative bound, scanned as `threads`
/// contiguous runs on the pool. The runs' extremes combine in run order
/// with strict `<` and `>`, keeping the earlier of equal values, so the
/// range is the one an in-order scan finds (±0 included).
fn value_range<T: Element>(data: &NdArray<T>, threads: usize) -> Result<f64> {
    let samples = data.as_slice();
    let run = samples.len().div_ceil(threads).max(1);
    let runs: Vec<&[T]> = samples.chunks(run).collect();
    let extremes: Vec<Option<(T, T)>> = pool_for(threads)?.install(|| {
        runs.par_iter()
            .map(|run| ArrayView::new(Shape::d1(run.len()), run).min_max())
            .collect()
    });
    let combined = extremes.into_iter().flatten().reduce(|(mn, mx), (lo, hi)| {
        (if lo < mn { lo } else { mn }, if hi > mx { hi } else { mx })
    });
    Ok(combined.map_or(0.0, |(mn, mx)| mx.to_f64() - mn.to_f64()))
}

/// [`encode_chunks`] with `codec` for every chunk.
pub(crate) fn encode_uniform<T: Element>(
    codec: &dyn Compressor,
    data: &NdArray<T>,
    bound: ErrorBound,
    chunk_shape: Shape,
    threads: usize,
) -> Result<(Manifest, Vec<ChunkStream>)> {
    encode_chunks(&[codec.spec()], data, bound, chunk_shape, threads, |_, chunk, bound| {
        Ok((0, compress_view(codec, chunk, bound)?))
    })
}

/// Assembles the finished `EBCS` stream from an unsharded manifest and
/// its chunk streams with their CRCs: contiguous after the manifest
/// (v2), or packed `chunks_per_shard` at a time (raster order) into
/// `EBSH` shard objects that the manifest maps each chunk into by
/// (shard, slot) (v3). Each stream is copied once, straight into the
/// output.
fn assemble(
    mut manifest: Manifest,
    streams: &[ChunkStream],
    chunks_per_shard: Option<usize>,
) -> Vec<u8> {
    // The payload as (shard index, chunk streams) pieces: one
    // index-less run for v2, one per shard for v3.
    let pieces: Vec<(Vec<u8>, &[ChunkStream])> = match chunks_per_shard {
        None => vec![(Vec::new(), streams)],
        Some(k) => {
            let shards: Vec<_> = streams
                .chunks(k)
                .map(|g| (shard_index(g.iter().map(|(s, crc)| (s.len(), *crc))), g))
                .collect();
            let shard_len = |(index, g): &(Vec<u8>, &[ChunkStream])| {
                (index.len() + g.iter().map(|(s, _)| s.len()).sum::<usize>()) as u64
            };
            manifest.sharding = Some(ShardTable {
                shard_lens: shards.iter().map(shard_len).collect(),
                chunk_slots: (0..streams.len())
                    .map(|i| ChunkSlot { shard: (i / k) as u32, slot: (i % k) as u32 })
                    .collect(),
                ..ShardTable::default()
            });
            shards
        }
    };
    let mut out = manifest.encode();
    out.reserve(manifest.payload_len() as usize);
    for (index, group) in &pieces {
        out.extend_from_slice(index);
        for (s, _) in *group {
            out.extend_from_slice(s);
        }
    }
    out
}

/// Builds one compressor per chain of a mixed or adaptive store.
fn build_chains(chains: &[ChainSpec]) -> Result<Vec<Box<dyn Compressor>>> {
    if chains.is_empty() || chains.len() > MAX_CHAINS {
        return Err(CodecError::InvalidChain {
            reason: "a store needs between 1 and MAX_CHAINS chains",
        });
    }
    chains.iter().map(|s| s.build_boxed()).collect()
}

impl ChunkedStore {
    /// Compresses `data` into a chunked stream with one codec chain,
    /// chunks in parallel on the shared rayon pool for `threads` workers
    /// (slab chunks from zero-copy borrowed views, interior chunks
    /// gathered first).
    pub fn write<T: Element>(
        codec: &dyn Compressor,
        data: &NdArray<T>,
        bound: ErrorBound,
        chunk_shape: Shape,
        threads: usize,
    ) -> Result<Vec<u8>> {
        let (manifest, streams) = encode_uniform(codec, data, bound, chunk_shape, threads)?;
        Ok(assemble(manifest, &streams, None))
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
        if chunks_per_shard == 0 || chunks_per_shard > MAX_SLOTS {
            return Err(CodecError::InvalidChain {
                reason: "chunks_per_shard must be between 1 and MAX_SLOTS",
            });
        }
        let (manifest, streams) = encode_uniform(codec, data, bound, chunk_shape, threads)?;
        Ok(assemble(manifest, &streams, Some(chunks_per_shard)))
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
        let instances = build_chains(chains)?;
        if picks.len() != ChunkGrid::new(data.shape(), chunk_shape).n_chunks() {
            return Err(CodecError::InvalidChain {
                reason: "picks must assign exactly one chain per grid chunk",
            });
        }
        if picks.iter().any(|&p| p >= chains.len()) {
            return Err(CodecError::InvalidChain {
                reason: "pick index beyond the chain list",
            });
        }
        let (manifest, streams) =
            encode_chunks(chains, data, bound, chunk_shape, threads, |i, chunk, bound| {
                Ok((picks[i], compress_view(instances[picks[i]].as_ref(), chunk, bound)?))
            })?;
        Ok(assemble(manifest, &streams, None))
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
        let instances = build_chains(candidates)?;
        let (manifest, streams) =
            encode_chunks(candidates, data, bound, chunk_shape, threads, |_, chunk, bound| {
                let owned = chunk.to_owned();
                let (mut best, mut best_cr) = (0, f64::NEG_INFINITY);
                for (c, inst) in instances.iter().enumerate() {
                    let est = estimate_cr(
                        inst.as_ref(),
                        &owned,
                        bound,
                        ADAPTIVE_SAMPLE_SLABS,
                        ADAPTIVE_SAMPLE_ROWS,
                    )?;
                    if est.cr > best_cr {
                        (best, best_cr) = (c, est.cr);
                    }
                }
                Ok((best, compress(instances[best].as_ref(), &owned, bound)?))
            })?;
        Ok(assemble(manifest, &streams, None))
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
    /// rayon pool: a [`ChunkedStore::read_region`] of the full shape, so
    /// it records the same `store.read_region` span and
    /// `eblcio_store_read_region_ns` sample and assembles through the
    /// same banded engine — no more than `threads` decoded chunks are
    /// alive beside the output.
    pub fn read_full<T: Element>(&self, threads: usize) -> Result<NdArray<T>> {
        assert!(threads >= 1, "thread count must be >= 1");
        pool_for(threads)?.install(|| self.read_region(&Region::full(self.manifest.shape)))
    }

    /// Decompresses exactly the chunks intersecting `region` and
    /// assembles the requested box, reporting how much work that took.
    /// A chunk the region covers only in part reconstructs just that
    /// part ([`ChunkedStore::decode_chunk_region`]) — see
    /// [`RegionReadStats::partial_decodes`] and
    /// [`RegionReadStats::samples_decoded`].
    ///
    /// Intersecting chunks decode in parallel across the width
    /// installed on the shared rayon pool (callers wanting a specific
    /// width wrap the call in `pool_for(threads)?.install(..)`, as
    /// [`ChunkedStore::read_full`] does; outside any pool the machine's
    /// parallelism applies), and the region engine ([`scatter_region`])
    /// has each worker store its piece band by band beside the others
    /// and drop it before claiming the next chunk. One lock around the
    /// output would serialize the copies, which cost about as much as
    /// a fast decode (EXPERIMENTS.md, "Cold misses at copy speed").
    ///
    /// # Panics
    /// Panics if the region does not fit inside the array shape.
    pub fn read_region_with_stats<T: Element>(
        &self,
        region: &Region,
    ) -> Result<(NdArray<T>, RegionReadStats)> {
        let t = store_metrics().read_region.start();
        check_dtype::<T>(self.manifest.dtype)?;
        let decoders = self.decoders()?;
        let hits = self.grid.chunks_intersecting(region);
        // Statistics only; they publish nothing else.
        let partial_decodes = AtomicUsize::new(0);
        let samples_decoded = AtomicU64::new(0);
        let mut out = NdArray::<T>::zeros(region.shape());
        scatter_region(region, out.as_mut_slice(), &hits, &scatter_chunk_into, |&i, put| {
            let codec = decoders[self.chunk_chain_index(i)].as_ref();
            let (piece, covered) = match self.decode_chunk_region::<T>(codec, i, region)? {
                Some(part) => {
                    partial_decodes.fetch_add(1, Ordering::Relaxed);
                    part
                }
                None => (self.decode_chunk(codec, i)?, self.grid.chunk_region(i)),
            };
            samples_decoded.fetch_add(piece.len() as u64, Ordering::Relaxed);
            put(&piece, &covered);
            Ok(())
        })?;
        t.finish();
        let stats = RegionReadStats {
            chunks_decoded: hits.len(),
            chunks_total: self.n_chunks(),
            compressed_bytes_read: hits.iter().map(|&i| self.manifest.chunks[i].len).sum(),
            partial_decodes: partial_decodes.into_inner(),
            samples_decoded: samples_decoded.into_inner(),
        };
        Ok((out, stats))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The pooled range pass finds exactly what one in-order scan does,
    /// at every thread count: signed zeros in either order, non-finite
    /// samples, extremes tied across runs, a run longer than the array.
    #[test]
    fn pooled_value_range_is_the_in_order_one() {
        let fields: Vec<Vec<f64>> = vec![
            vec![0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
            vec![-0.0, 0.0, -0.0, 0.0, 0.0],
            vec![f64::NAN, 3.0, f64::INFINITY, -2.0, f64::NEG_INFINITY, 3.0, -2.0],
            vec![f64::NAN, f64::INFINITY],
            vec![5.0],
            (0..1000).map(|i| ((i % 17) as f64 - 8.0) * 0.5).collect(),
            (0..999).map(|i| if i % 2 == 0 { -0.0 } else { 1e-3 * i as f64 }).collect(),
        ];
        for samples in fields {
            let a = NdArray::from_vec(Shape::d1(samples.len()), samples);
            for threads in 1..=7 {
                let got = value_range(&a, threads).unwrap();
                let (want, head) = (a.value_range(), &a.as_slice()[..a.len().min(8)]);
                assert_eq!(got.to_bits(), want.to_bits(), "{threads} threads over {head:?}");
            }
        }
    }
}
