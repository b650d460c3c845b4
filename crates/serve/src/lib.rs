//! # eblcio-serve
//!
//! The concurrent read-serving subsystem: everything between a stored
//! `EBCS` stream and many clients hammering it with repeated,
//! overlapping region reads.
//!
//! The write side of this workspace answers the paper's question — what
//! compressing costs at HPC scale. This crate is the read side the
//! ROADMAP's north star demands: once a field is chunked (and, at large
//! chunk counts, sharded — see [`eblcio_store::shard`]), serving it "as
//! fast as the hardware allows" is a caching and concurrency problem,
//! not a codec problem:
//!
//! * [`ArrayReader`] — one shared handle per store; any number of
//!   threads call [`ArrayReader::read_region`] on it concurrently (a
//!   whole chunk is one more region),
//! * [`DecodedChunkCache`] — sharded, byte-bounded LRU over *decoded*
//!   chunks, so hot chunks pay decompression once, not per request,
//! * **single-flight decode** — concurrent misses on one chunk decode
//!   it exactly once; every waiter shares the same `Arc`'d result,
//! * **parallel region assembly** — each request fans its chunk fetches
//!   out on the shared rayon pool,
//! * [`ArrayReader::prefetch_region`] — a client that knows its next
//!   region warms its chunks ahead of the read,
//! * [`ReaderStats`] — hits, misses, decode counts/bytes, and wall time
//!   for capacity planning,
//! * **write-through refresh** — a reader on a mutable store
//!   ([`eblcio_store::MutableStore`]) pins one generation per request
//!   and [`ArrayReader::refresh`]es to newer generations on demand,
//!   invalidating only the cached chunks whose content changed (cache
//!   keys carry a content fingerprint, so stale hits are impossible
//!   and untouched chunks stay warm).
//!
//! ```
//! use eblcio_codec::{CompressorId, ErrorBound};
//! use eblcio_data::{NdArray, Shape};
//! use eblcio_serve::{ArrayReader, ReaderConfig};
//! use eblcio_store::{ChunkedStore, Region};
//!
//! let data = NdArray::<f32>::from_fn(Shape::d2(64, 64), |i| {
//!     (i[0] as f32 * 0.07).sin() * (i[1] as f32 * 0.05).cos()
//! });
//! let codec = CompressorId::Szx.instance();
//! let stream = ChunkedStore::write_sharded(
//!     codec.as_ref(), &data, ErrorBound::Relative(1e-3), Shape::d2(16, 16), 4, 2,
//! ).unwrap();
//!
//! let reader = ArrayReader::<f32>::open(&stream, ReaderConfig::default()).unwrap();
//! // Warm the first rows before the clients arrive.
//! reader.prefetch_region(&Region::new(&[0, 0], &[16, 64]));
//!
//! // Clients share the reader; overlapping reads share decoded chunks.
//! std::thread::scope(|s| {
//!     for t in 0..4 {
//!         let reader = &reader;
//!         s.spawn(move || {
//!             let region = Region::new(&[t * 8, 0], &[16, 64]);
//!             reader.read_region(&region).unwrap();
//!         });
//!     }
//! });
//! let stats = reader.stats();
//! // Single-flight + caching: nobody decoded the same chunk twice.
//! assert!(stats.decodes <= reader.store().n_chunks() as u64);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod cache;
pub mod reader;

pub use cache::{CacheConfig, CacheStats, ChunkKey, DecodedChunkCache};
pub use reader::{ArrayReader, ReaderConfig, ReaderStats, RefreshStats, RequestStats};
