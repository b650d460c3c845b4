//! # eblcio-store
//!
//! A zarr-inspired chunked container over the EBLC codecs: an
//! [`NdArray`](eblcio_data::NdArray) is split into a regular chunk
//! grid, every chunk is compressed independently (in parallel, with ε
//! resolved once against the global value range so the whole-array
//! error contract holds), and a self-describing manifest indexes the
//! chunk payloads.
//!
//! What chunking buys over the paper's monolithic streams:
//!
//! * **partial reads** — [`ChunkedStore::read_region`] decompresses
//!   only the chunks an axis-aligned region intersects,
//! * **parallel scaling** — one chunk-encode loop writes every store
//!   (each [`ChunkedStore`] writer and [`MutableStore::create`]) with
//!   chunks fanned out over the shared rayon pool, and
//!   [`ChunkedStore::read_full`] is a whole-array region read fanned
//!   out the same way, through the one region engine
//!   ([`scatter_region`]) that `eblcio_serve`'s cold reads use too,
//! * **placement** — chunks map onto PFS object placement
//!   ([`pfs_io::write_store`] stripes them round-robin across OSTs), so
//!   only the touched chunks pay I/O energy on read-back,
//! * **per-chunk accounting** — [`ChunkedStore::chunk_quality`] reports
//!   one [`QualityReport`](eblcio_data::QualityReport) per chunk,
//! * **mutability** — [`MutableStore`] wraps a store in an `EBMS` file
//!   with copy-on-write chunk updates published as crash-consistent
//!   manifest generations: readers opened on generation N are
//!   bit-stable while N+1 is written, [`MutableStore::open_at`]
//!   time-travels, and [`MutableStore::compact`] reclaims dead bytes
//!   (see [`mutable`]).
//!
//! ```
//! use eblcio_codec::{CompressorId, ErrorBound};
//! use eblcio_data::{NdArray, Shape};
//! use eblcio_store::{ChunkedStore, Region};
//!
//! let data = NdArray::<f32>::from_fn(Shape::d2(64, 64), |i| {
//!     (i[0] as f32 * 0.1).sin() + (i[1] as f32 * 0.1).cos()
//! });
//! let codec = CompressorId::Sz3.instance();
//! let stream = ChunkedStore::write(
//!     codec.as_ref(), &data, ErrorBound::Relative(1e-3), Shape::d2(16, 16), 4,
//! ).unwrap();
//!
//! let store = ChunkedStore::open(&stream).unwrap();
//! assert_eq!(store.n_chunks(), 16);
//! // Read one 8×8 corner: only a single 16×16 chunk is decompressed.
//! let (corner, stats) = store
//!     .read_region_with_stats::<f32>(&Region::new(&[0, 0], &[8, 8]))
//!     .unwrap();
//! assert_eq!(corner.shape(), Shape::d2(8, 8));
//! assert_eq!(stats.chunks_decoded, 1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

mod engine;
pub mod grid;
pub mod manifest;
mod metrics;
pub mod mutable;
pub mod pfs_io;
pub mod shard;
pub mod storage;
pub mod store;

pub use engine::scatter_region;
pub use grid::{
    copy_region, gather, scatter_chunk, scatter_chunk_into, scatter_chunk_le, ChunkGrid, Region,
};
pub use manifest::{ChunkEntry, ChunkSlot, GenerationMeta, Manifest, ShardTable};
pub use mutable::{
    CompactStats, GenerationSummary, MutableStore, PublishOps, StoreWriter, UpdateStats,
};
pub use pfs_io::{read_region_io, write_store};
pub use shard::{build_shard, ShardIndex, SlotEntry};
pub use storage::{
    named_backend, ByteRange, FaultPlan, FaultyStorage, FilesystemStorage, MemoryStorage,
    MeteredStorage, NamedBackend, ObjectCostModel, ObjectStoreStats, SimulatedObjectStorage, Storage,
};
pub use store::{ChunkedStore, RegionReadStats};
