//! [`MutableStore`]: copy-on-write chunk updates over an append-only
//! object log, published as atomically swapped manifest *generations*.
//!
//! A chunked store as written by [`ChunkedStore::write`] is immutable:
//! the manifest indexes a frozen payload. Production serving needs data
//! that changes — without ever breaking a reader that opened the
//! previous version. This module adds that write path with three
//! mechanisms, modelled on copy-on-write storage engines (LMDB's double
//! root, zarr checkpoints, log-structured stores):
//!
//! 1. **Copy-on-write objects.** A [`StoreWriter`] never overwrites a
//!    live chunk: updated chunks are re-compressed into *new* objects
//!    appended to the end of the file. Untouched chunks keep their old
//!    objects — the new generation's manifest simply points at them.
//! 2. **Generational manifests.** Every publish appends a v4 `EBCS`
//!    manifest (see [`crate::manifest`]) carrying a monotonically
//!    increasing generation id and a link to its parent manifest, so
//!    [`MutableStore::history`] can walk the lineage and
//!    [`MutableStore::open_at`] time-travels to any still-reachable
//!    generation.
//! 3. **Double-root superblock.** The file head holds two CRC-guarded
//!    root slots; a publish writes the new root into the *stale* slot
//!    only after the objects and manifest are fully appended. A crash
//!    or torn write at any byte of the publish leaves the previous
//!    root (and every byte it references) untouched, so the store
//!    reopens at the last durable generation — never a torn state.
//!
//! File layout (`EBMS`):
//!
//! ```text
//! "EBMS" | version=1
//! root slot A: generation u64 | manifest_offset u64 | manifest_len u64 | crc32
//! root slot B: (same layout)
//! object log: chunk objects and v4 manifests, append-only
//! ```
//!
//! The publish protocol is exposed as data ([`PublishOps`]: one append
//! at the old end-of-file, then one 28-byte root-slot overwrite) so a
//! real-file backend can replay it with `write`+`fsync`+`pwrite`, and
//! so fault-injection tests can cut it at every byte boundary.
//!
//! Dead objects (replaced chunks, superseded manifests) accumulate in
//! the log; [`MutableStore::compact`] rewrites the file down to the
//! current generation's live set, reclaiming the space at the cost of
//! severing time-travel history.
//!
//! **Error accumulation.** Updating a region re-compresses every chunk
//! it touches from that chunk's *decoded* samples. Samples inside the
//! updated region are freshly compressed from the caller's exact
//! values, so they honour the store's ε bound directly. Samples merely
//! carried along in a touched chunk were already within ε of their
//! original and drift by at most another ε per re-compression — k
//! updates of a chunk bound its carried samples by (k+1)·ε. Callers
//! that rewrite whole chunks ([`StoreWriter::stage_chunk`]) avoid the
//! drift entirely.

use crate::grid::{copy_region, gather_into, Region};
use crate::manifest::{GenerationMeta, Manifest};
use crate::metrics::store_metrics;
use crate::storage::Storage;
use crate::store::{encode_uniform, ChunkedStore};
use eblcio_codec::header::check_dtype;
use eblcio_codec::parallel::pool_for;
use eblcio_codec::util::crc32;
use eblcio_codec::{
    compress_view, decompress, CodecError, Compressor, ErrorBound, Result,
};
use eblcio_data::shape::MAX_RANK;
use eblcio_data::{ArrayView, Element, NdArray, Shape};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Mutable store file magic bytes.
pub const MUTABLE_MAGIC: &[u8; 4] = b"EBMS";
/// Current mutable store file version.
pub const MUTABLE_VERSION: u8 = 1;
/// Encoded root slot length: three u64 fields plus their CRC32.
pub const SLOT_LEN: usize = 28;
/// Superblock length: magic, version, two root slots. The object log
/// starts here.
pub const SUPERBLOCK_LEN: usize = 5 + 2 * SLOT_LEN;

/// One decoded root slot: which manifest is the store's current root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RootSlot {
    generation: u64,
    manifest_offset: u64,
    manifest_len: u64,
}

impl RootSlot {
    fn encode(&self) -> [u8; SLOT_LEN] {
        let mut out = [0u8; SLOT_LEN];
        out[..8].copy_from_slice(&self.generation.to_le_bytes());
        out[8..16].copy_from_slice(&self.manifest_offset.to_le_bytes());
        out[16..24].copy_from_slice(&self.manifest_len.to_le_bytes());
        let crc = crc32(&out[..24]);
        out[24..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a slot, returning `None` for anything not a fully
    /// written root: CRC mismatch (torn write, never-written zeros) or
    /// the invalid generation 0.
    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != SLOT_LEN {
            return None;
        }
        // The length check above guarantees SLOT_LEN bytes, so indexing
        // is safe and the conversions need no fallible try_into.
        let le8 = |b: &[u8]| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let crc = u32::from_le_bytes([bytes[24], bytes[25], bytes[26], bytes[27]]);
        if crc32(&bytes[..24]) != crc {
            return None;
        }
        let slot = Self {
            generation: le8(&bytes[..8]),
            manifest_offset: le8(&bytes[8..16]),
            manifest_len: le8(&bytes[16..24]),
        };
        (slot.generation > 0).then_some(slot)
    }
}

fn slot_offset(which: usize) -> usize {
    5 + which * SLOT_LEN
}

/// Assembles a complete `EBMS` file image from scratch: superblock,
/// the chunk payloads packed as a contiguous object log (the
/// manifest's offsets and lengths are patched to match), the encoded
/// manifest, and the root written to slot A. `manifest` must already
/// carry the target generation's metadata (id, parent link, born_gens,
/// and the payloads' CRCs); the shared path of [`first_generation`]
/// and [`MutableStore::compact`].
fn assemble_file(mut manifest: Manifest, payloads: &[impl AsRef<[u8]>]) -> Result<MutableStore> {
    let payload_bytes: usize = payloads.iter().map(|p| p.as_ref().len()).sum();
    let mut file = Vec::with_capacity(SUPERBLOCK_LEN + payload_bytes + 256);
    file.extend_from_slice(MUTABLE_MAGIC);
    file.push(MUTABLE_VERSION);
    file.resize(SUPERBLOCK_LEN, 0);
    let generation;
    {
        let Some(meta) = manifest
            .generation
            .as_ref()
            .filter(|m| m.chunk_crcs.len() == payloads.len())
        else {
            return Err(CodecError::Internal {
                context: "assemble_file without generation metadata",
            });
        };
        generation = meta.generation;
    }
    for (entry, payload) in manifest.chunks.iter_mut().zip(payloads) {
        let payload = payload.as_ref();
        entry.offset = file.len() as u64;
        entry.len = payload.len() as u64;
        file.extend_from_slice(payload);
    }
    let manifest_offset = file.len() as u64;
    let encoded = manifest.encode();
    file.extend_from_slice(&encoded);
    let root = RootSlot {
        generation,
        manifest_offset,
        manifest_len: encoded.len() as u64,
    };
    file[slot_offset(0)..slot_offset(0) + SLOT_LEN].copy_from_slice(&root.encode());
    MutableStore::open(file)
}

/// Generation 1 of a fresh `EBMS` file holding `manifest`'s chunks, one
/// object per payload in raster order. Shard packing is flattened:
/// mutable stores address chunks individually, so copy-on-write
/// replaces single chunks, not whole shards. `chunk_crcs` are the
/// payloads' CRC-32s.
fn first_generation(
    mut manifest: Manifest,
    payloads: &[impl AsRef<[u8]>],
    chunk_crcs: Vec<u32>,
) -> Result<MutableStore> {
    manifest.sharding = None;
    manifest.generation = Some(GenerationMeta {
        generation: 1,
        born_gens: vec![1; manifest.chunks.len()],
        chunk_crcs,
        ..GenerationMeta::default()
    });
    assemble_file(manifest, payloads)
}

/// The two ordered writes of one publish, as data.
///
/// Applying a publish to a file is (1) append `append` at byte
/// `base_len` (which must be the current end of the file), then
/// (2) overwrite the [`SLOT_LEN`] bytes at `slot_offset` with `slot`.
/// The ordering is the crash-consistency argument: until the very last
/// slot byte lands, every byte the *previous* root references is
/// untouched, so interrupting or corrupting the publish anywhere
/// leaves the store reopenable at the previous generation.
#[derive(Clone, Debug)]
pub struct PublishOps {
    /// File length the append starts at (stale-publish guard).
    pub base_len: usize,
    /// New chunk objects followed by the new v4 manifest.
    pub append: Vec<u8>,
    /// Byte offset of the root slot being flipped.
    pub slot_offset: usize,
    /// The new root slot's [`SLOT_LEN`] bytes.
    pub slot: Vec<u8>,
    /// The generation this publish creates.
    pub generation: u64,
    /// Chunks rewritten by this publish.
    pub chunks_written: usize,
    /// Bytes of new chunk objects.
    pub object_bytes: u64,
    /// Bytes of the new manifest.
    pub manifest_bytes: u64,
    /// Bytes of now-dead objects this publish strands (the replaced
    /// chunks' old objects), reclaimable by [`MutableStore::compact`].
    pub replaced_bytes: u64,
}

/// Outcome of a published update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateStats {
    /// The generation the update created.
    pub generation: u64,
    /// Chunks rewritten (new objects appended).
    pub chunks_written: usize,
    /// Chunks in the store.
    pub chunks_total: usize,
    /// Bytes of new chunk objects appended.
    pub object_bytes: u64,
    /// Bytes of the new manifest appended.
    pub manifest_bytes: u64,
    /// Dead bytes stranded by this update.
    pub replaced_bytes: u64,
    /// File length after the publish.
    pub file_bytes: u64,
}

/// Outcome of a compaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactStats {
    /// The generation the compaction created (history before it is
    /// severed).
    pub generation: u64,
    /// File length before.
    pub before_bytes: u64,
    /// File length after.
    pub after_bytes: u64,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
}

/// One entry of [`MutableStore::history`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenerationSummary {
    /// Generation id.
    pub generation: u64,
    /// Parent generation id (0 for the lineage root).
    pub parent: u64,
    /// Absolute file offset of this generation's manifest.
    pub manifest_offset: u64,
    /// Byte length of this generation's manifest.
    pub manifest_len: u64,
    /// Chunks whose objects this generation wrote.
    pub chunks_written: usize,
    /// Total bytes of the chunk objects this generation references.
    pub live_bytes: u64,
}

/// A chunked compressed array that accepts copy-on-write updates.
///
/// The store owns an `EBMS` file image (see the module docs for the
/// layout). Reads hand out [`ChunkedStore`] snapshots that share the
/// file bytes behind an `Arc` — a snapshot is bit-stable forever, no
/// matter how many generations are published after it, because every
/// publish swaps in a fresh file image and never mutates a published
/// byte in place.
///
/// ```
/// use eblcio_codec::{CompressorId, ErrorBound};
/// use eblcio_data::{NdArray, Shape};
/// use eblcio_store::{MutableStore, Region};
///
/// let data = NdArray::<f32>::from_fn(Shape::d2(32, 32), |i| {
///     (i[0] as f32 * 0.1).sin() + (i[1] as f32 * 0.1).cos()
/// });
/// let codec = CompressorId::Szx.instance();
/// let mut store = MutableStore::create(
///     codec.as_ref(), &data, ErrorBound::Relative(1e-3), Shape::d2(16, 16), 2,
/// ).unwrap();
/// assert_eq!(store.generation(), 1);
///
/// // A reader opened now is pinned to generation 1…
/// let before = store.current().unwrap();
///
/// // …while an update publishes generation 2 (only the top-left chunk
/// // is rewritten; the other three objects are shared).
/// let patch = NdArray::<f32>::from_fn(Shape::d2(8, 8), |_| 7.0);
/// let stats = store
///     .update_region(&Region::new(&[0, 0], &[8, 8]), &patch, 2)
///     .unwrap();
/// assert_eq!((stats.generation, stats.chunks_written), (2, 1));
///
/// let after = store.current().unwrap();
/// assert_eq!(before.generation(), 1);
/// assert_eq!(after.generation(), 2);
/// let old = before.read_region::<f32>(&Region::new(&[0, 0], &[8, 8])).unwrap();
/// let new = after.read_region::<f32>(&Region::new(&[0, 0], &[8, 8])).unwrap();
/// assert_ne!(old.as_slice(), new.as_slice());
/// assert!(new.as_slice().iter().all(|&v| (v - 7.0).abs() <= 1e-3 * 80.0));
/// ```
#[derive(Clone, Debug)]
pub struct MutableStore {
    bytes: Arc<[u8]>,
    root: RootSlot,
    active_slot: usize,
    /// Where publishes are written through to, if anywhere.
    backing: Option<Backing>,
}

/// A [`Storage`] object holding the persistent copy of the file image.
#[derive(Clone, Debug)]
struct Backing {
    storage: Arc<dyn Storage>,
    key: String,
}

impl MutableStore {
    /// Creates a mutable store as generation 1 of a fresh `EBMS` file:
    /// the chunks are compressed by the same loop as
    /// [`ChunkedStore::write`] and written straight into the object
    /// log, one object per chunk.
    pub fn create<T: Element>(
        codec: &dyn Compressor,
        data: &NdArray<T>,
        bound: ErrorBound,
        chunk_shape: Shape,
        threads: usize,
    ) -> Result<Self> {
        let (manifest, encoded) = encode_uniform(codec, data, bound, chunk_shape, threads)?;
        let (streams, crcs): (Vec<Vec<u8>>, Vec<u32>) = encoded.into_iter().unzip();
        first_generation(manifest, &streams, crcs)
    }

    /// Wraps an existing immutable `EBCS` stream (v1–v3, sharded or
    /// not) as generation 1 of a mutable store. Chunk payloads are
    /// copied into the object log one object per chunk; shard packing
    /// is flattened.
    pub fn import(stream: &[u8]) -> Result<Self> {
        let src = ChunkedStore::open(stream)?;
        let payloads: Vec<&[u8]> = (0..src.n_chunks())
            .map(|i| src.chunk_payload(i))
            .collect::<Result<_>>()?;
        let crcs = payloads.iter().map(|p| crc32(p)).collect();
        first_generation(src.manifest().clone(), &payloads, crcs)
    }

    /// Opens (and fully validates) a mutable store file image. Picks
    /// the newest root slot whose pointed-to manifest parses cleanly;
    /// a torn root slot or a corrupted current manifest falls back to
    /// the other slot, so a crashed publish reopens at the previous
    /// generation instead of failing.
    pub fn open(bytes: Vec<u8>) -> Result<Self> {
        Self::open_arc(Arc::from(bytes))
    }

    /// [`MutableStore::open`] over an already shared allocation.
    pub fn open_arc(bytes: Arc<[u8]>) -> Result<Self> {
        if bytes.len() < SUPERBLOCK_LEN {
            return Err(CodecError::TruncatedStream { context: "mutable store superblock" });
        }
        if &bytes[..4] != MUTABLE_MAGIC {
            return Err(CodecError::BadMagic);
        }
        if bytes[4] != MUTABLE_VERSION {
            return Err(CodecError::UnsupportedVersion(bytes[4]));
        }
        let mut candidates: Vec<(usize, RootSlot)> = (0..2)
            .filter_map(|w| {
                RootSlot::decode(&bytes[slot_offset(w)..slot_offset(w) + SLOT_LEN])
                    .map(|s| (w, s))
            })
            .collect();
        candidates.sort_by_key(|(_, s)| std::cmp::Reverse(s.generation));
        for (which, slot) in candidates {
            let store = ChunkedStore::open_generation(
                bytes.clone(),
                SUPERBLOCK_LEN,
                slot.manifest_offset as usize,
                slot.manifest_len as usize,
            );
            // The manifest must claim the generation the root promised;
            // anything else is a stale or misdirected pointer.
            if store.is_ok_and(|s| s.generation() == slot.generation) {
                return Ok(Self {
                    bytes,
                    root: slot,
                    active_slot: which,
                    backing: None,
                });
            }
        }
        Err(CodecError::Corrupt { context: "mutable store root" })
    }

    /// Opens the mutable store stored under `key` on `storage` and
    /// keeps the handle: every later publish ([`MutableStore::apply`])
    /// is written through to the backend with the crash-safe ordering
    /// (objects and manifest appended first, root slot flipped last),
    /// and [`MutableStore::compact`] atomically replaces the object.
    pub fn open_on(storage: Arc<dyn Storage>, key: &str) -> Result<Self> {
        let mut store = Self::open_arc(storage.get(key)?)?;
        store.backing = Some(Backing { storage, key: key.to_string() });
        Ok(store)
    }

    /// [`MutableStore::create`], persisted to `storage` under `key`.
    pub fn create_on<T: Element>(
        storage: Arc<dyn Storage>,
        key: &str,
        codec: &dyn Compressor,
        data: &NdArray<T>,
        bound: ErrorBound,
        chunk_shape: Shape,
        threads: usize,
    ) -> Result<Self> {
        Self::create(codec, data, bound, chunk_shape, threads)?.persist_on(storage, key)
    }

    /// Writes the current file image to `storage` under `key` and
    /// attaches the backend, so later publishes write through.
    pub fn persist_on(mut self, storage: Arc<dyn Storage>, key: &str) -> Result<Self> {
        storage.set(key, &self.bytes)?;
        self.backing = Some(Backing { storage, key: key.to_string() });
        Ok(self)
    }

    /// The complete file image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A shared handle on the file image (what readers snapshot).
    pub fn snapshot(&self) -> Arc<[u8]> {
        self.bytes.clone()
    }

    /// The current (highest published) generation id.
    pub fn generation(&self) -> u64 {
        self.root.generation
    }

    /// Opens the current generation for reading. The snapshot shares
    /// the file bytes; it stays bit-stable across later publishes.
    pub fn current(&self) -> Result<ChunkedStore> {
        ChunkedStore::open_generation(
            self.bytes.clone(),
            SUPERBLOCK_LEN,
            self.root.manifest_offset as usize,
            self.root.manifest_len as usize,
        )
    }

    /// One hop down the generation chain: opens the parent manifest
    /// `meta` names and checks it carries the promised generation id
    /// and the child's shape, chunk shape and dtype.
    fn parent_of(&self, store: &ChunkedStore, meta: &GenerationMeta) -> Result<ChunkedStore> {
        let parent = ChunkedStore::open_generation(
            self.bytes.clone(),
            SUPERBLOCK_LEN,
            meta.parent_offset as usize,
            meta.parent_len as usize,
        )?;
        if parent.generation() != meta.parent
            || parent.shape() != store.shape()
            || parent.chunk_shape() != store.chunk_shape()
            || parent.dtype() != store.dtype()
        {
            return Err(CodecError::Corrupt { context: "store generation chain" });
        }
        Ok(parent)
    }

    /// Time-travel read: opens generation `generation` by walking the
    /// parent chain down from the current root. Generations older than
    /// the last [`MutableStore::compact`] are unreachable (compaction
    /// severs history). The chain is validated hop by hop — a parent
    /// whose manifest does not carry the promised generation id, or
    /// that drifts in shape or dtype, is a typed error.
    pub fn open_at(&self, generation: u64) -> Result<ChunkedStore> {
        if generation == 0 || generation > self.root.generation {
            return Err(CodecError::Corrupt { context: "unknown store generation" });
        }
        let mut store = self.current()?;
        loop {
            let meta = store
                .manifest()
                .generation
                .clone()
                .ok_or(CodecError::Corrupt { context: "store generation metadata" })?;
            if meta.generation == generation {
                return Ok(store);
            }
            if meta.parent == 0 {
                return Err(CodecError::Corrupt { context: "unknown store generation" });
            }
            let parent = self.parent_of(&store, &meta)?;
            store = parent;
        }
    }

    /// Walks the generation chain newest-first, one summary per
    /// reachable generation. The same hop validation as
    /// [`MutableStore::open_at`] applies, so a corrupted chain surfaces
    /// as an error rather than a truncated history.
    pub fn history(&self) -> Result<Vec<GenerationSummary>> {
        let mut out = Vec::new();
        let mut store = self.current()?;
        let mut offset = self.root.manifest_offset;
        let mut len = self.root.manifest_len;
        loop {
            let meta = store
                .manifest()
                .generation
                .clone()
                .ok_or(CodecError::Corrupt { context: "store generation metadata" })?;
            out.push(GenerationSummary {
                generation: meta.generation,
                parent: meta.parent,
                manifest_offset: offset,
                manifest_len: len,
                chunks_written: meta
                    .born_gens
                    .iter()
                    .filter(|&&b| b == meta.generation)
                    .count(),
                live_bytes: store.manifest().chunks.iter().map(|c| c.len).sum(),
            });
            if meta.parent == 0 {
                return Ok(out);
            }
            let parent = self.parent_of(&store, &meta)?;
            offset = meta.parent_offset;
            len = meta.parent_len;
            store = parent;
        }
    }

    /// Bytes a [`MutableStore::compact`] would reclaim right now: dead
    /// objects and superseded manifests beyond the current generation's
    /// live set.
    pub fn reclaimable_bytes(&self) -> Result<u64> {
        let cur = self.current()?;
        let live: u64 = cur.manifest().chunks.iter().map(|c| c.len).sum::<u64>()
            + self.root.manifest_len;
        Ok((self.bytes.len() as u64).saturating_sub(SUPERBLOCK_LEN as u64 + live))
    }

    /// Starts a copy-on-write write transaction against the current
    /// generation.
    pub fn writer(&self) -> Result<StoreWriter<'_>> {
        Ok(StoreWriter {
            base: self,
            store: self.current()?,
            staged: BTreeMap::new(),
        })
    }

    /// Applies a prepared publish: appends the staged objects and
    /// manifest, flips the stale root slot, and re-validates the whole
    /// file. Fails (leaving the store untouched) if the ops were
    /// prepared against a different file state than the current one.
    pub fn apply(&mut self, ops: PublishOps) -> Result<UpdateStats> {
        let t = store_metrics().publish.start();
        let out = self.publish(ops);
        t.finish();
        out
    }

    /// [`MutableStore::apply`] less its timing, which counts failed
    /// publishes too.
    fn publish(&mut self, ops: PublishOps) -> Result<UpdateStats> {
        if ops.base_len != self.bytes.len() || ops.generation != self.root.generation + 1 {
            return Err(CodecError::Corrupt { context: "stale store publish" });
        }
        // PublishOps is replayable data from outside this process; a
        // slot write anywhere but the *stale* superblock slot is a
        // typed error, not a panic. Overwriting the active slot would
        // break the crash argument: a backend replaying this publish
        // that dies mid-pwrite would tear the only valid root.
        if ops.slot.len() != SLOT_LEN || ops.slot_offset != slot_offset(1 - self.active_slot) {
            return Err(CodecError::Corrupt { context: "store publish slot" });
        }
        let mut file = Vec::with_capacity(ops.base_len + ops.append.len());
        file.extend_from_slice(&self.bytes);
        file.extend_from_slice(&ops.append);
        file[ops.slot_offset..ops.slot_offset + SLOT_LEN].copy_from_slice(&ops.slot);
        let next = Self::open(file)?;
        if next.generation() != ops.generation {
            return Err(CodecError::Corrupt { context: "stale store publish" });
        }
        let chunks_total = next.current()?.n_chunks();
        let file_bytes = next.bytes.len() as u64;
        // Write through to the backend with the crash-safe ordering:
        // objects+manifest appended first, root slot flipped last. On
        // any backend error the in-memory store is left unchanged; the
        // backend object may be torn, but nothing it holds under the
        // surviving root changed, so reopening recovers the previous
        // generation (the fault-injection suite cuts this at every
        // byte to prove it).
        if let Some(backing) = &self.backing {
            if backing.storage.size(&backing.key)? != ops.base_len as u64 {
                return Err(CodecError::Corrupt { context: "stale store publish" });
            }
            backing.storage.append(&backing.key, &ops.append)?;
            backing
                .storage
                .write_at(&backing.key, ops.slot_offset as u64, &ops.slot)?;
        }
        let backing = self.backing.take();
        *self = next;
        self.backing = backing;
        Ok(UpdateStats {
            generation: ops.generation,
            chunks_written: ops.chunks_written,
            chunks_total,
            object_bytes: ops.object_bytes,
            manifest_bytes: ops.manifest_bytes,
            replaced_bytes: ops.replaced_bytes,
            file_bytes,
        })
    }

    /// Writes `data` (shaped as `region`) through re-compression with
    /// each touched chunk's codec chain at the store's absolute bound,
    /// and publishes the result as a new generation. Untouched chunks
    /// share their objects with the parent generation.
    pub fn update_region<T: Element>(
        &mut self,
        region: &Region,
        data: &NdArray<T>,
        threads: usize,
    ) -> Result<UpdateStats> {
        let mut w = self.writer()?;
        w.stage_region(region, data, threads)?;
        let ops = w.prepare()?;
        self.apply(ops)
    }

    /// Rewrites the file down to the current generation's live set:
    /// live chunk objects are copied contiguously (byte-identical, so
    /// content fingerprints — and serving caches keyed on them —
    /// survive), dead objects and superseded manifests are dropped, and
    /// a fresh rootless manifest is published as the next generation.
    /// Time-travel history before the compaction is severed.
    pub fn compact(&mut self) -> Result<CompactStats> {
        let t = store_metrics().compact.start();
        let out = self.rewrite_live();
        t.finish();
        out
    }

    /// [`MutableStore::compact`] less its timing, which counts failed
    /// compactions too.
    fn rewrite_live(&mut self) -> Result<CompactStats> {
        let cur = self.current()?;
        let before_bytes = self.bytes.len() as u64;
        let mut manifest = cur.manifest().clone();
        let generation = cur.generation() + 1;
        {
            let Some(meta) = manifest.generation.as_mut() else {
                return Err(CodecError::Corrupt { context: "store generation metadata" });
            };
            meta.generation = generation;
            meta.parent = 0;
            meta.parent_offset = 0;
            meta.parent_len = 0;
            // born_gens and CRCs carry over (the payloads are
            // byte-identical; `chunk_payload` verified each against its
            // CRC), so every chunk keeps its content fingerprint — warm
            // serving caches survive.
        }
        let payloads: Vec<&[u8]> = (0..cur.n_chunks())
            .map(|i| cur.chunk_payload(i))
            .collect::<Result<_>>()?;
        let next = assemble_file(manifest, &payloads)?;
        let after_bytes = next.bytes.len() as u64;
        // A compaction is a whole-file rewrite, so the write-through is
        // one atomic `set` rather than the append+flip publish path.
        if let Some(backing) = &self.backing {
            backing.storage.set(&backing.key, &next.bytes)?;
        }
        let backing = self.backing.take();
        *self = next;
        self.backing = backing;
        Ok(CompactStats {
            generation,
            before_bytes,
            after_bytes,
            reclaimed_bytes: before_bytes.saturating_sub(after_bytes),
        })
    }
}

/// A copy-on-write write transaction: stage any number of chunk
/// rewrites, then [`StoreWriter::prepare`] the publish. Staging never
/// touches the store — a dropped writer leaves no trace, and the
/// prepared [`PublishOps`] only take effect through
/// [`MutableStore::apply`].
pub struct StoreWriter<'s> {
    base: &'s MutableStore,
    store: ChunkedStore,
    /// Chunk index → freshly compressed `EBLC` stream.
    staged: BTreeMap<usize, Vec<u8>>,
}

impl StoreWriter<'_> {
    /// Number of chunks staged so far.
    pub fn staged_chunks(&self) -> usize {
        self.staged.len()
    }

    /// Stages a region write: every chunk `region` covers in part is
    /// decoded (from its staged version if this transaction already
    /// rewrote it, so staged writes to one chunk accumulate), overlaid
    /// with the matching box of `data`, and re-compressed with the
    /// chunk's own codec chain at the store's absolute bound, in
    /// parallel on the shared rayon pool. A chunk `region` covers whole
    /// is not decoded — every sample is overwritten — but its slot's CRC
    /// is still checked; its samples are gathered from `data` into a
    /// buffer each worker reuses, never zero-filled first. Returns how
    /// many chunks were (re-)staged.
    pub fn stage_region<T: Element>(
        &mut self,
        region: &Region,
        data: &NdArray<T>,
        threads: usize,
    ) -> Result<usize> {
        assert!(threads >= 1, "thread count must be >= 1");
        check_dtype::<T>(self.store.dtype())?;
        if !region.fits_in(self.store.shape()) {
            return Err(CodecError::Corrupt { context: "update region bounds" });
        }
        if data.shape() != region.shape() {
            return Err(CodecError::Corrupt { context: "update region shape" });
        }
        let bound = ErrorBound::Absolute(self.store.abs_bound());
        let decoders = self.store.decoders()?;
        let hits = self.store.grid().chunks_intersecting(region);
        let store = &self.store;
        let staged = &self.staged;
        let pool = pool_for(threads)?;
        // Gather buffers for wholly covered chunks: at most one per worker.
        let spare: Mutex<Vec<Vec<T>>> = Mutex::new(Vec::new());
        let results: Vec<Result<(usize, Vec<u8>)>> = pool.install(|| {
            hits.par_iter()
                .map(|&i| {
                    let codec = decoders[store.chunk_chain_index(i)].as_ref();
                    let chunk_region = store.grid().chunk_region(i);
                    // `hits` came from chunks_intersecting(region), so
                    // the intersection exists; a miss is a workspace bug.
                    let Some(inter) = chunk_region.intersect(region) else {
                        return Err(CodecError::Internal { context: "intersecting chunk does not intersect" });
                    };
                    let rank = inter.rank();
                    let mut src_origin = [0usize; MAX_RANK];
                    let mut dst_origin = [0usize; MAX_RANK];
                    for d in 0..rank {
                        src_origin[d] = inter.origin()[d] - region.origin()[d];
                        dst_origin[d] = inter.origin()[d] - chunk_region.origin()[d];
                    }
                    if inter.len() == chunk_region.len() {
                        // The update overwrites every sample: nothing to
                        // decode (but a corrupt slot still fails), and
                        // the chunk is gathered from `data` straight
                        // into a buffer a worker keeps for its next one.
                        if !staged.contains_key(&i) {
                            store.chunk_payload(i)?;
                        }
                        let mut buf = spare.lock().pop().unwrap_or_default();
                        gather_into(data, &Region::new(&src_origin[..rank], inter.extent()), &mut buf);
                        let stream = compress_view(codec, ArrayView::new(chunk_region.shape(), &buf), bound);
                        spare.lock().push(buf);
                        return Ok((i, stream?));
                    }
                    let mut chunk = match staged.get(&i) {
                        Some(stream) => {
                            let arr = decompress::<T>(codec, stream)?;
                            if arr.shape() != chunk_region.shape() {
                                let context = "store chunk shape";
                                return Err(CodecError::Corrupt { context });
                            }
                            arr
                        }
                        None => store.decode_chunk::<T>(codec, i)?,
                    };
                    copy_region(
                        data.as_slice(),
                        data.shape(),
                        &src_origin[..rank],
                        chunk.as_mut_slice(),
                        chunk_region.shape(),
                        &dst_origin[..rank],
                        inter.extent(),
                    );
                    let stream = compress_view(codec, chunk.view(), bound)?;
                    Ok((i, stream))
                })
                .collect()
        });
        let mut staged = 0usize;
        for r in results {
            let (i, stream) = r?;
            self.staged.insert(i, stream);
            staged += 1;
        }
        Ok(staged)
    }

    /// Stages a whole-chunk replacement: `data` (shaped exactly as
    /// chunk `i`'s region) is compressed with the chunk's chain at the
    /// store's bound, with no decode of the previous content — the
    /// drift-free way to rewrite full chunks.
    pub fn stage_chunk<T: Element>(&mut self, i: usize, data: &NdArray<T>) -> Result<()> {
        check_dtype::<T>(self.store.dtype())?;
        if i >= self.store.n_chunks() {
            return Err(CodecError::Corrupt { context: "store chunk reference" });
        }
        let chunk_region = self.store.grid().chunk_region(i);
        if data.shape() != chunk_region.shape() {
            return Err(CodecError::Corrupt { context: "update region shape" });
        }
        let codec = self.store.chunk_chain(i).build_boxed()?;
        let bound = ErrorBound::Absolute(self.store.abs_bound());
        let stream = compress_view(codec.as_ref(), data.view(), bound)?;
        self.staged.insert(i, stream);
        Ok(())
    }

    /// Builds the publish for everything staged: new objects and the
    /// next generation's manifest laid out as one append, plus the
    /// root-slot flip. The writer is consumed; nothing is written until
    /// [`MutableStore::apply`].
    pub fn prepare(self) -> Result<PublishOps> {
        let base_len = self.base.bytes.len();
        let mut manifest = self.store.manifest().clone();
        let parent = self.base.root;
        let generation = parent.generation + 1;
        let mut append = Vec::new();
        let mut replaced_bytes = 0u64;
        {
            let Some(meta) = manifest.generation.as_mut() else {
                return Err(CodecError::Corrupt { context: "store generation metadata" });
            };
            meta.parent = parent.generation;
            meta.parent_offset = parent.manifest_offset;
            meta.parent_len = parent.manifest_len;
            meta.generation = generation;
            for (&i, stream) in &self.staged {
                replaced_bytes += manifest.chunks[i].len;
                manifest.chunks[i].offset = (base_len + append.len()) as u64;
                manifest.chunks[i].len = stream.len() as u64;
                meta.born_gens[i] = generation;
                meta.chunk_crcs[i] = crc32(stream);
                append.extend_from_slice(stream);
            }
        }
        let object_bytes = append.len() as u64;
        let manifest_offset = (base_len + append.len()) as u64;
        let encoded = manifest.encode();
        append.extend_from_slice(&encoded);
        let slot = RootSlot {
            generation,
            manifest_offset,
            manifest_len: encoded.len() as u64,
        };
        Ok(PublishOps {
            base_len,
            append,
            slot_offset: slot_offset(1 - self.base.active_slot),
            slot: slot.encode().to_vec(),
            generation,
            chunks_written: self.staged.len(),
            object_bytes,
            manifest_bytes: encoded.len() as u64,
            replaced_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblcio_codec::CompressorId;

    fn field(shape: Shape) -> NdArray<f32> {
        NdArray::from_fn(shape, |i| {
            (i[0] as f32 * 0.2).sin() * 20.0 + i.get(1).copied().unwrap_or(0) as f32 * 0.3
        })
    }

    fn small_store() -> MutableStore {
        let data = field(Shape::d2(20, 12));
        let codec = CompressorId::Szx.instance();
        MutableStore::create(
            codec.as_ref(),
            &data,
            ErrorBound::Relative(1e-3),
            Shape::d2(8, 8),
            2,
        )
        .unwrap()
    }

    #[test]
    fn root_slot_roundtrip_and_torn_rejection() {
        let slot = RootSlot {
            generation: 7,
            manifest_offset: 1234,
            manifest_len: 99,
        };
        let enc = slot.encode();
        assert_eq!(RootSlot::decode(&enc), Some(slot));
        for i in 0..SLOT_LEN {
            let mut bad = enc;
            bad[i] ^= 0x20;
            assert_eq!(RootSlot::decode(&bad), None, "byte {i}");
        }
        assert_eq!(RootSlot::decode(&[0u8; SLOT_LEN]), None, "unwritten slot");
    }

    #[test]
    fn create_open_roundtrip() {
        let store = small_store();
        assert_eq!(store.generation(), 1);
        let reopened = MutableStore::open(store.as_bytes().to_vec()).unwrap();
        assert_eq!(reopened.generation(), 1);
        let a = store.current().unwrap().read_full::<f32>(1).unwrap();
        let b = reopened.current().unwrap().read_full::<f32>(1).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn update_publishes_cow_generation() {
        let mut store = small_store();
        let before = store.current().unwrap();
        let before_full = before.read_full::<f32>(1).unwrap();

        let region = Region::new(&[0, 0], &[8, 8]);
        let patch = NdArray::<f32>::from_fn(Shape::d2(8, 8), |_| 3.5);
        let stats = store.update_region(&region, &patch, 2).unwrap();
        assert_eq!(stats.generation, 2);
        assert_eq!(stats.chunks_written, 1);
        assert!(stats.replaced_bytes > 0);

        // Old snapshot is bit-stable.
        let still = before.read_full::<f32>(1).unwrap();
        assert_eq!(still.as_slice(), before_full.as_slice());

        // New generation carries the patch within ε, and every
        // untouched chunk is byte-identical (shared object).
        let after = store.current().unwrap();
        assert_eq!(after.generation(), 2);
        let abs = after.abs_bound();
        let got = after.read_region::<f32>(&region).unwrap();
        assert!(got.as_slice().iter().all(|&v| (v - 3.5).abs() as f64 <= abs * 1.0000001));
        for i in 1..after.n_chunks() {
            assert_eq!(
                before.chunk_payload(i).unwrap(),
                after.chunk_payload(i).unwrap(),
                "chunk {i} must be shared"
            );
            assert_eq!(after.chunk_born_gen(i), 1);
            assert_eq!(
                after.chunk_fingerprint(i),
                before.chunk_fingerprint(i),
                "shared chunk {i} keeps its fingerprint"
            );
        }
        assert_eq!(after.chunk_born_gen(0), 2);
        assert_ne!(after.chunk_fingerprint(0), before.chunk_fingerprint(0));
    }

    #[test]
    fn staging_over_a_corrupt_slot_fails_even_when_the_update_covers_it() {
        let store = small_store();
        let snap = store.current().unwrap();
        let slot = snap.chunk_payload(0).unwrap();
        let at = store.as_bytes().windows(slot.len()).position(|w| w == slot).unwrap();
        let mut bytes = store.as_bytes().to_vec();
        bytes[at + slot.len() / 2] ^= 0x40;
        let corrupt = MutableStore::open(bytes).unwrap();
        let patch = NdArray::<f32>::from_fn(Shape::d2(8, 8), |_| 1.0);
        let mut w = corrupt.writer().unwrap();
        let staged = w.stage_region(&Region::new(&[0, 0], &[8, 8]), &patch, 1);
        assert!(matches!(staged, Err(CodecError::ChecksumMismatch)), "{staged:?}");
    }

    #[test]
    fn history_and_time_travel() {
        let mut store = small_store();
        let gen1 = store.current().unwrap().read_full::<f32>(1).unwrap();
        let patch = NdArray::<f32>::from_fn(Shape::d2(4, 4), |_| -1.0);
        store
            .update_region(&Region::new(&[0, 0], &[4, 4]), &patch, 1)
            .unwrap();
        let gen2 = store.current().unwrap().read_full::<f32>(1).unwrap();
        store
            .update_region(&Region::new(&[10, 2], &[4, 4]), &patch, 1)
            .unwrap();

        let h = store.history().unwrap();
        assert_eq!(
            h.iter().map(|s| s.generation).collect::<Vec<_>>(),
            vec![3, 2, 1]
        );
        assert_eq!(h[2].parent, 0);
        assert_eq!(h[0].chunks_written, 1);

        let back1 = store.open_at(1).unwrap().read_full::<f32>(1).unwrap();
        assert_eq!(back1.as_slice(), gen1.as_slice());
        let back2 = store.open_at(2).unwrap().read_full::<f32>(1).unwrap();
        assert_eq!(back2.as_slice(), gen2.as_slice());
        assert!(store.open_at(4).is_err());
        assert!(store.open_at(0).is_err());
    }

    #[test]
    fn compact_reclaims_and_preserves_bits_but_severs_history() {
        let mut store = small_store();
        let patch = NdArray::<f32>::from_fn(Shape::d2(8, 8), |_| 9.0);
        for _ in 0..4 {
            store
                .update_region(&Region::new(&[0, 0], &[8, 8]), &patch, 1)
                .unwrap();
        }
        let full_before = store.current().unwrap().read_full::<f32>(1).unwrap();
        let fingerprints: Vec<u64> = {
            let c = store.current().unwrap();
            (0..c.n_chunks()).map(|i| c.chunk_fingerprint(i)).collect()
        };
        let reclaimable = store.reclaimable_bytes().unwrap();
        assert!(reclaimable > 0);

        let stats = store.compact().unwrap();
        assert_eq!(stats.generation, 6);
        assert!(stats.reclaimed_bytes > 0);
        assert!(stats.after_bytes < stats.before_bytes);
        assert_eq!(store.reclaimable_bytes().unwrap(), 0);

        let after = store.current().unwrap();
        let full_after = after.read_full::<f32>(1).unwrap();
        assert_eq!(full_after.as_slice(), full_before.as_slice());
        // Content fingerprints survive compaction (bytes are identical).
        for (i, &fp) in fingerprints.iter().enumerate() {
            assert_eq!(after.chunk_fingerprint(i), fp, "chunk {i}");
        }
        // History is severed.
        assert_eq!(store.history().unwrap().len(), 1);
        assert!(store.open_at(5).is_err());
    }

    #[test]
    fn publish_with_bogus_slot_target_is_typed_error() {
        let mut store = small_store();
        let patch = NdArray::<f32>::from_fn(Shape::d2(4, 4), |_| 2.0);
        let mut w = store.writer().unwrap();
        w.stage_region(&Region::new(&[0, 0], &[4, 4]), &patch, 1)
            .unwrap();
        let good = w.prepare().unwrap();
        // A replayed PublishOps with a slot write outside the
        // superblock must be rejected, not panic or scribble the log.
        let mut bad = good.clone();
        bad.slot_offset = store.as_bytes().len() + 1024;
        assert!(matches!(
            store.apply(bad),
            Err(CodecError::Corrupt { context: "store publish slot" })
        ));
        let mut bad = good.clone();
        bad.slot.pop();
        assert!(store.apply(bad).is_err());
        // The untampered ops still apply cleanly afterwards.
        store.apply(good).unwrap();
        assert_eq!(store.generation(), 2);
    }

    #[test]
    fn stale_publish_rejected() {
        let mut store = small_store();
        let patch = NdArray::<f32>::from_fn(Shape::d2(4, 4), |_| 2.0);
        let mut w = store.writer().unwrap();
        w.stage_region(&Region::new(&[0, 0], &[4, 4]), &patch, 1)
            .unwrap();
        let ops = w.prepare().unwrap();
        // A publish lands in between.
        store
            .update_region(&Region::new(&[0, 0], &[4, 4]), &patch, 1)
            .unwrap();
        assert!(matches!(
            store.apply(ops),
            Err(CodecError::Corrupt { context: "stale store publish" })
        ));
    }

    #[test]
    fn writer_argument_errors_are_typed() {
        let store = small_store();
        let mut w = store.writer().unwrap();
        let patch64 = NdArray::<f64>::from_fn(Shape::d2(4, 4), |_| 0.0);
        assert!(matches!(
            w.stage_region(&Region::new(&[0, 0], &[4, 4]), &patch64, 1),
            Err(CodecError::DtypeMismatch { .. })
        ));
        let patch = NdArray::<f32>::from_fn(Shape::d2(4, 4), |_| 0.0);
        assert!(w
            .stage_region(&Region::new(&[18, 10], &[4, 4]), &patch, 1)
            .is_err());
        assert!(w
            .stage_region(&Region::new(&[0, 0], &[8, 8]), &patch, 1)
            .is_err());
        assert!(w.stage_chunk(99, &patch).is_err());
        assert_eq!(w.staged_chunks(), 0);
    }

    #[test]
    fn repeated_staging_of_one_chunk_accumulates() {
        let mut store = small_store();
        let mut w = store.writer().unwrap();
        let a = NdArray::<f32>::from_fn(Shape::d2(2, 2), |_| 5.0);
        let b = NdArray::<f32>::from_fn(Shape::d2(2, 2), |_| -5.0);
        w.stage_region(&Region::new(&[0, 0], &[2, 2]), &a, 1).unwrap();
        w.stage_region(&Region::new(&[4, 4], &[2, 2]), &b, 1).unwrap();
        assert_eq!(w.staged_chunks(), 1);
        let ops = w.prepare().unwrap();
        store.apply(ops).unwrap();
        let cur = store.current().unwrap();
        let abs = cur.abs_bound() * 1.0000001;
        let got_a = cur.read_region::<f32>(&Region::new(&[0, 0], &[2, 2])).unwrap();
        let got_b = cur.read_region::<f32>(&Region::new(&[4, 4], &[2, 2])).unwrap();
        // Both disjoint sub-writes of the same chunk survived. The
        // first patch rode through the second staging's re-compression,
        // so it carries up to one extra ε of drift; the second is fresh
        // and holds ε exactly.
        assert!(got_a.as_slice().iter().all(|&v| (v - 5.0).abs() as f64 <= 2.0 * abs));
        assert!(got_b.as_slice().iter().all(|&v| (v + 5.0).abs() as f64 <= abs));
    }

    #[test]
    fn import_sharded_flattens_but_preserves_data() {
        let data = field(Shape::d2(32, 16));
        let codec = CompressorId::Sz3.instance();
        let stream = ChunkedStore::write_sharded(
            codec.as_ref(),
            &data,
            ErrorBound::Relative(1e-3),
            Shape::d2(8, 8),
            3,
            2,
        )
        .unwrap();
        let src = ChunkedStore::open(&stream).unwrap();
        let want = src.read_full::<f32>(1).unwrap();
        let store = MutableStore::import(&stream).unwrap();
        let got = store.current().unwrap().read_full::<f32>(1).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
        assert!(store.current().unwrap().sharding().is_none());
    }

    #[test]
    fn non_ebms_bytes_rejected() {
        assert!(matches!(
            MutableStore::open(b"EBCSnope".to_vec()),
            Err(CodecError::TruncatedStream { .. })
        ));
        let mut bytes = small_store().as_bytes().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            MutableStore::open(bytes),
            Err(CodecError::BadMagic)
        ));
        let mut bytes = small_store().as_bytes().to_vec();
        bytes[4] = 9;
        assert!(matches!(
            MutableStore::open(bytes),
            Err(CodecError::UnsupportedVersion(9))
        ));
    }
}
