//! [`AnyReader`]: dtype-erased wrapper over [`ArrayReader`] so the
//! daemon can serve whatever dtype the store on disk declares.
//!
//! `ArrayReader<T>` is monomorphic by design — the decode hot path
//! wants concrete element types. The daemon, though, learns the dtype
//! at open time from the container, and its protocol speaks raw bytes
//! plus a dtype tag. This enum is the seam: open sniffs the tag, picks
//! the concrete reader once, and every serve-path call dispatches with
//! one match — no trait objects, no per-request branching beyond it.

use crate::protocol::ArrayData;
use eblcio_codec::{CodecError, Result};
use eblcio_data::{dispatch_dtype, Element, NdArray, Shape};
use eblcio_obs::MetricsRegistry;
use eblcio_serve::{ArrayReader, ReaderConfig, ReaderStats};
use eblcio_store::{ChunkedStore, Region, Storage};
use std::sync::Arc;

/// A dtype-erased [`ArrayReader`] serving either element type.
pub enum AnyReader {
    /// A reader over an f32 store (dtype tag 0).
    F32(ArrayReader<f32>),
    /// A reader over an f64 store (dtype tag 1).
    F64(ArrayReader<f64>),
}

impl From<ArrayReader<f32>> for AnyReader {
    fn from(r: ArrayReader<f32>) -> Self {
        AnyReader::F32(r)
    }
}

impl From<ArrayReader<f64>> for AnyReader {
    fn from(r: ArrayReader<f64>) -> Self {
        AnyReader::F64(r)
    }
}

impl AnyReader {
    /// Opens a store stream, picking the reader dtype from the
    /// container's tag.
    pub fn open(stream: &[u8], config: ReaderConfig) -> Result<Self> {
        Self::over(ChunkedStore::open(stream)?, config)
    }

    /// Opens shared container bytes: an `EBMS` mutable store serves its
    /// current generation, anything else must be an immutable `EBCS`
    /// stream.
    pub fn open_arc(bytes: Arc<[u8]>, config: ReaderConfig) -> Result<Self> {
        Self::over(ChunkedStore::open_current(bytes)?, config)
    }

    /// Opens the object under `key` on a [`Storage`] backend (mirrors
    /// [`ArrayReader::open_from`]).
    pub fn open_from(storage: &dyn Storage, key: &str, config: ReaderConfig) -> Result<Self> {
        Self::open_arc(storage.get(key)?, config)
    }

    /// Wraps an already opened store.
    pub fn over(store: ChunkedStore, config: ReaderConfig) -> Result<Self> {
        dispatch_dtype!(E = store.dtype() =>
            ArrayReader::<E>::over(store, config).map(AnyReader::from))
        .unwrap_or(Err(CodecError::Corrupt { context: "dtype tag" }))
    }

    /// The container dtype tag this reader serves (0 = f32, 1 = f64).
    pub fn dtype(&self) -> u8 {
        dispatch_dtype!(AnyReader(r) = self => r.store().dtype())
    }

    /// Shape of the served array.
    pub fn shape(&self) -> Shape {
        dispatch_dtype!(AnyReader(r) = self => r.store().shape())
    }

    /// Number of chunks in the served store.
    pub fn n_chunks(&self) -> usize {
        dispatch_dtype!(AnyReader(r) = self => r.store().n_chunks())
    }

    /// Cumulative reader counters.
    pub fn stats(&self) -> ReaderStats {
        dispatch_dtype!(AnyReader(r) = self => r.stats())
    }

    /// The reader's metrics registry (for exposition and for the
    /// daemon to hang its own counters on).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        dispatch_dtype!(AnyReader(r) = self => r.metrics())
    }

    /// Serves a region as wire-ready [`ArrayData`]. The caller must
    /// have validated `region` against [`AnyReader::shape`].
    pub fn read_region_data(&self, region: &Region) -> Result<ArrayData> {
        dispatch_dtype!(AnyReader(r) = self => Ok(wire(&r.read_region(region)?)))
    }

    /// Serves one whole chunk as wire-ready [`ArrayData`]. The caller
    /// must have validated `i` against [`AnyReader::n_chunks`].
    pub fn read_chunk_data(&self, i: usize) -> Result<ArrayData> {
        dispatch_dtype!(AnyReader(r) = self => Ok(wire(r.read_chunk(i)?.as_ref())))
    }

    /// Warms the cache for `region` (validated by the caller); decode
    /// errors are deferred to the read that needs the chunk.
    pub fn prefetch_region(&self, region: &Region) {
        dispatch_dtype!(AnyReader(r) = self => r.prefetch_region(region))
    }
}

fn wire<T: Element>(arr: &NdArray<T>) -> ArrayData {
    ArrayData {
        dtype: T::DTYPE,
        dims: arr.shape().dims().iter().map(|&d| d as u64).collect(),
        bytes: arr.to_le_bytes(),
    }
}
