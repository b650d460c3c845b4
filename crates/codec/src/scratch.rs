//! Thread-local codec scratch: the buffer arena behind the zero-alloc
//! serving claim and the encode hot path.
//!
//! Chunked stores code the same chunk geometry over and over, in both
//! directions: uncached region reads decode it, dumps and updates
//! encode it. Without an arena every call pays fresh `Vec` allocations
//! for the quantization-code buffer, the f64 reconstruction plane, the
//! Huffman tables, the LZ hash chains, the outlier bytes, and the
//! byte-stage output. [`CodecScratch`] keeps those buffers alive per
//! thread so a steady-state loop (the store's rayon workers, the serve
//! layer's miss assembly) reuses capacity instead of round-tripping the
//! allocator.
//!
//! Access goes through [`with_scratch`], which hands out the calling
//! thread's arena. Re-entrant use (an outer borrow still live when an
//! inner call wants the arena) falls back to a fresh arena rather than
//! panicking, so correctness never depends on borrow discipline —
//! only steady-state speed does.
//!
//! The arena gives memory back: when the outermost [`with_scratch`]
//! returns, every buffer holding more than `RETAIN_CAP_BYTES` (4 MiB) is
//! dropped, so one whole-array `compress` of a large field does not pin
//! its planes to the thread for life while chunk-sized work stays
//! resident.

use crate::huffman::{HuffEncoder, HuffLookup};
use crate::lz::LzTables;
use std::cell::RefCell;
use std::collections::BinaryHeap;

/// Largest capacity, in bytes, a single arena buffer keeps between
/// calls. An f64 plane of a 64³ chunk is 2 MiB, so chunk-sized coding
/// never reallocates; the planes of a multi-million-sample array do not
/// stay behind.
pub(crate) const RETAIN_CAP_BYTES: usize = 4 << 20;

/// Reusable buffers for both coding directions. All fields are ordinary
/// growable containers: a call refills them, so capacity persists across
/// calls while contents never leak between streams. Where a call keeps
/// the old contents instead of clearing them (the reconstruction plane,
/// an encode's code buffer, the Huffman symbol tables), it reads only
/// what it wrote itself.
#[derive(Default)]
pub struct CodecScratch {
    /// Quantization codes of an SZ-family payload: Huffman-decoded on
    /// decode, awaiting Huffman on encode. An encode sizes it to the
    /// sample count and overwrites every slot, so it is not cleared.
    pub codes: Vec<u32>,
    /// f64 reconstruction plane — what the decoder will see, which is
    /// what both directions predict from. Neither direction zeroes it:
    /// every sample an encode or a decode reads was written earlier in
    /// the same pass (`encode_plane.rs` and the `codecs::decode_fastpath`
    /// unit tests fill it with NaN first to hold them to that).
    pub recon: Vec<f64>,
    /// Byte-stage inverse output (the chain's LZ decompression target).
    pub bytes: Vec<u8>,
    /// Canonical Huffman lookup tables, rebuilt per block but reusing
    /// their backing storage.
    pub huff: HuffLookup,
    /// Encode: an f32 input widened to f64 (f64 inputs are borrowed).
    pub(crate) raw: Vec<f64>,
    /// Encode: one SZ2 block gathered into raster order.
    pub(crate) block: Vec<f64>,
    /// Encode: verbatim little-endian outlier samples.
    pub(crate) outliers: Vec<u8>,
    /// Encode: Huffman census, tree and code tables.
    pub(crate) huff_enc: HuffEncoder,
    /// Encode: the LZ match finder's hash chains.
    pub(crate) lz: LzTables,
}

/// A growable arena buffer, as the retention policy sees it.
pub(crate) trait ArenaBuf {
    /// Bytes of capacity held.
    fn held_bytes(&self) -> usize;
    /// Gives the allocation back.
    fn release(&mut self);
}

impl<T> ArenaBuf for Vec<T> {
    fn held_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
    fn release(&mut self) {
        *self = Vec::new();
    }
}

impl<T: Ord> ArenaBuf for BinaryHeap<T> {
    fn held_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
    fn release(&mut self) {
        *self = BinaryHeap::new();
    }
}

impl CodecScratch {
    fn for_each_buf(&mut self, f: &mut dyn FnMut(&mut dyn ArenaBuf)) {
        f(&mut self.codes);
        f(&mut self.recon);
        f(&mut self.bytes);
        f(&mut self.raw);
        f(&mut self.block);
        f(&mut self.outliers);
        self.huff.for_each_buf(f);
        self.huff_enc.for_each_buf(f);
    }
}

thread_local! {
    static SCRATCH: RefCell<CodecScratch> = RefCell::new(CodecScratch::default());
}

/// Runs `f` with the calling thread's [`CodecScratch`], then drops any
/// buffer that grew past `RETAIN_CAP_BYTES`. Nested calls get a fresh
/// (empty, allocation-backed) arena instead of a borrow panic, so the
/// fast path may be entered from any context.
pub fn with_scratch<R>(f: impl FnOnce(&mut CodecScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => {
            let out = f(&mut s);
            s.for_each_buf(&mut |b| {
                if b.held_bytes() > RETAIN_CAP_BYTES {
                    b.release();
                }
            });
            out
        }
        Err(_) => f(&mut CodecScratch::default()),
    })
}

/// Takes the thread's byte-stage buffer out of the arena (empty but
/// with retained capacity). Pair with [`put_bytes`]; used by the chain
/// decode loop, which must not hold the arena borrowed across the
/// array-stage decode (the array stage wants the arena too).
pub fn take_bytes() -> Vec<u8> {
    with_scratch(|s| {
        let mut b = std::mem::take(&mut s.bytes);
        b.clear();
        b
    })
}

/// Returns a buffer taken with [`take_bytes`] so its capacity survives
/// for the next decode on this thread. Keeps the larger of the resident
/// and returned buffers (up to the arena's retention cap).
pub fn put_bytes(buf: Vec<u8>) {
    with_scratch(|s| {
        if buf.capacity() > s.bytes.capacity() {
            s.bytes = buf;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{compress, decompress, CompressorId, ErrorBound};
    use eblcio_data::{NdArray, Shape};

    /// Capacity of every arena buffer, in visiting order.
    fn held() -> Vec<usize> {
        with_scratch(|s| {
            let mut v = Vec::new();
            s.for_each_buf(&mut |b| v.push(b.held_bytes()));
            v
        })
    }

    #[test]
    fn scratch_capacity_persists_across_calls() {
        with_scratch(|s| {
            s.codes.clear();
            s.codes.extend(0..1000u32);
        });
        let cap = with_scratch(|s| s.codes.capacity());
        assert!(cap >= 1000);
    }

    #[test]
    fn reentrant_use_gets_a_fresh_arena() {
        with_scratch(|outer| {
            outer.codes.push(7);
            with_scratch(|inner| {
                assert!(inner.codes.is_empty(), "nested arena must be fresh");
                inner.codes.push(8);
            });
            assert_eq!(outer.codes, [7]);
        });
    }

    #[test]
    fn take_put_roundtrips_capacity() {
        put_bytes(Vec::with_capacity(4096));
        let b = take_bytes();
        assert!(b.is_empty());
        assert!(b.capacity() >= 4096);
        put_bytes(b);
    }

    #[test]
    fn oversized_buffers_are_given_back_and_chunk_sized_ones_stay() {
        // A whole-array call on a large field: planes of 32 MB each.
        let big = NdArray::<f32>::from_fn(Shape::d1(4 << 20), |i| {
            let x = i[0] as f32 / 1024.0;
            x * x - 3.0 * x
        });
        for id in [CompressorId::Sz2, CompressorId::Sz3] {
            let codec = id.instance();
            let stream = compress(codec.as_ref(), &big, ErrorBound::Relative(1e-3)).unwrap();
            let back = decompress::<f32>(codec.as_ref(), &stream).unwrap();
            assert_eq!(back.len(), big.len());
            let after = held();
            assert!(
                after.iter().all(|&b| b <= RETAIN_CAP_BYTES),
                "{}: a buffer above the cap survived: {after:?}",
                id.name()
            );
        }

        // A chunk-sized loop: after warm-up the arena neither grows nor
        // shrinks — every pass reuses the same allocations.
        let chunk = NdArray::<f64>::from_fn(Shape::d4(1, 32, 32, 32), |i| {
            (i[1] * i[2]) as f64 * 0.01 + i[3] as f64
        });
        let pass = || {
            for id in CompressorId::ALL {
                let codec = id.instance();
                let stream = compress(codec.as_ref(), &chunk, ErrorBound::Absolute(1e-3)).unwrap();
                decompress::<f64>(codec.as_ref(), &stream).unwrap();
            }
        };
        pass();
        let warm = held();
        for _ in 0..3 {
            pass();
        }
        assert_eq!(held(), warm, "steady-state coding must not touch the arena's capacity");
        // The planes a chunk needs are among what stayed.
        let (recon, codes) = with_scratch(|s| (s.recon.capacity(), s.codes.capacity()));
        assert!(recon >= chunk.len() && codes >= chunk.len());
    }
}
