//! [`AnyReader`]: dtype-erased wrapper over [`ArrayReader`] so the
//! daemon can serve whatever dtype the store on disk declares.
//!
//! `ArrayReader<T>` is monomorphic by design — the decode hot path
//! wants concrete element types. The daemon, though, learns the dtype
//! at open time from the container, and its protocol speaks raw bytes
//! plus a dtype tag. This enum is the seam: open sniffs the tag, picks
//! the concrete reader once, and every serve-path call dispatches with
//! one match — no trait objects, no per-request branching beyond it.
//!
//! The serve path asks it for samples in wire order (crate-private
//! `read_region_le_into` / `read_chunk_le_into`): the region engine
//! scatters little-endian bytes straight into the caller's buffer —
//! for the daemon, the tail of the reply frame it is about to send — so
//! no typed array and no second copy exist in between.
//! [`AnyReader::read_region_data`] is the public, allocating convenience
//! over the region call: one `Vec` of the exact size, filled in place.
//! It is kept for the benchmark's oracle and the tests.

use crate::protocol::ArrayData;
use eblcio_codec::{CodecError, Result};
use eblcio_data::{dispatch_dtype, Element, Shape};
use eblcio_obs::MetricsRegistry;
use eblcio_serve::{ArrayReader, ReaderConfig, ReaderStats};
use eblcio_store::{ChunkedStore, Region};
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
    /// Opens store bytes ([`ChunkedStore::open`]: an `EBMS` mutable
    /// store serves its current generation), picking the reader dtype
    /// from the container's tag.
    pub fn open(stream: &[u8], config: ReaderConfig) -> Result<Self> {
        Self::over(ChunkedStore::open(stream)?, config)
    }

    /// Wraps an already opened store.
    pub fn over(store: ChunkedStore, config: ReaderConfig) -> Result<Self> {
        dispatch_dtype!(E = store.dtype() =>
            ArrayReader::<E>::over(store, config).map(AnyReader::from))
        .unwrap_or(Err(CodecError::Corrupt { context: "dtype tag" }))
    }

    /// The container dtype tag this reader serves (0 = f32, 1 = f64).
    pub fn dtype(&self) -> u8 {
        match self {
            AnyReader::F32(_) => f32::DTYPE,
            AnyReader::F64(_) => f64::DTYPE,
        }
    }

    /// Bytes per served sample.
    pub(crate) fn sample_bytes(&self) -> usize {
        match self {
            AnyReader::F32(_) => f32::BYTES,
            AnyReader::F64(_) => f64::BYTES,
        }
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

    /// Shape of chunk `i` (edge chunks are clipped). The caller must
    /// have validated `i` against [`AnyReader::n_chunks`].
    pub(crate) fn chunk_shape(&self, i: usize) -> Shape {
        dispatch_dtype!(AnyReader(r) = self => r.store().grid().chunk_region(i).shape())
    }

    /// Assembles a region in wire order: `out` receives its samples as
    /// `region.len() × sample_bytes()` little-endian bytes (any other
    /// length is a typed error). The caller must have validated
    /// `region` against [`AnyReader::shape`].
    pub(crate) fn read_region_le_into(&self, region: &Region, out: &mut [u8]) -> Result<()> {
        dispatch_dtype!(AnyReader(r) = self => r.read_region_le_into(region, out).map(drop))
    }

    /// Writes one whole chunk in wire order: `out` must be exactly
    /// `chunk_shape(i).len() × sample_bytes()` long. The caller must
    /// have validated `i` against [`AnyReader::n_chunks`].
    pub(crate) fn read_chunk_le_into(&self, i: usize, out: &mut [u8]) -> Result<()> {
        dispatch_dtype!(AnyReader(r) = self => chunk_le_into(r, i, out))
    }

    /// Serves a region as wire-ready [`ArrayData`]. The caller must
    /// have validated `region` against [`AnyReader::shape`].
    pub fn read_region_data(&self, region: &Region) -> Result<ArrayData> {
        let mut bytes = vec![0u8; region.len() * self.sample_bytes()];
        self.read_region_le_into(region, &mut bytes)?;
        Ok(ArrayData {
            dtype: self.dtype(),
            dims: region.extent().iter().map(|&d| d as u64).collect(),
            bytes,
        })
    }

    /// Warms the cache for `region` (validated by the caller); decode
    /// errors are deferred to the read that needs the chunk.
    pub fn prefetch_region(&self, region: &Region) {
        dispatch_dtype!(AnyReader(r) = self => r.prefetch_region(region))
    }
}

fn chunk_le_into<T: Element>(reader: &ArrayReader<T>, i: usize, out: &mut [u8]) -> Result<()> {
    let chunk = reader.read_chunk(i)?;
    if out.len() != chunk.nbytes() {
        return Err(CodecError::Corrupt { context: "read_chunk_le_into buffer length" });
    }
    T::write_le_slice(chunk.as_slice(), out);
    Ok(())
}
