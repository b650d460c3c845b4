//! Shared plumbing for the SZ-family pipelines: input validation, block
//! iteration, outlier transport, and the Huffman + LZ backend framing.

use crate::error::{CodecError, Result};
use crate::huffman::HuffEncoder;
use crate::quantizer::LinearQuantizer;
use crate::scratch::with_scratch;
use crate::util::{put_varint, ByteReader};
use crate::{huffman, lz};
use eblcio_data::{ArrayView, Element, Shape};

/// Samples [`validate_input`] checks between two early exits.
const VALIDATE_BLOCK: usize = 512;

/// Rejects inputs the error-bound contract cannot cover.
///
/// Each block of 512 samples folds its checks with a branch-free `&`,
/// which vectorizes; only the blocks short-circuit.
pub fn validate_input<T: Element>(data: ArrayView<'_, T>) -> Result<()> {
    let finite = |block: &[T]| block.iter().fold(true, |ok, v| ok & v.is_finite());
    if data.as_slice().chunks(VALIDATE_BLOCK).all(finite) {
        Ok(())
    } else {
        Err(CodecError::NonFiniteInput)
    }
}

/// The standard SZ-family payload: codec-specific side info, raw outlier
/// samples, and Huffman-coded quantization codes. The SZ-family array
/// stages emit this *inner* serialization; the chain's LZ byte stage
/// (the paper pipeline's "Zstd" stage) supplies the backend pass that
/// used to be fused in.
pub struct SzPayload {
    /// Codec-specific side information (block modes, coefficients…).
    pub extra: Vec<u8>,
    /// Raw little-endian sample bytes for out-of-range residuals.
    pub outliers: Vec<u8>,
    /// Quantization codes in visit order (0 = outlier marker).
    pub codes: Vec<u32>,
}

impl SzPayload {
    /// Serializes the payload (no backend pass) — what an SZ-family
    /// array stage emits.
    pub fn encode_inner(&self) -> Vec<u8> {
        with_scratch(|s| encode_inner(&self.extra, &self.outliers, &self.codes, &mut s.huff_enc))
    }

    /// Inverse of [`Self::encode_inner`].
    pub fn decode_inner(inner: &[u8]) -> Result<Self> {
        let mut codes = Vec::new();
        let mut lut = huffman::HuffLookup::default();
        let (extra, outliers) = Self::decode_inner_into(inner, &mut codes, &mut lut)?;
        Ok(Self {
            extra: extra.to_vec(),
            outliers: outliers.to_vec(),
            codes,
        })
    }

    /// Zero-copy decode: `extra` and `outliers` come back as slices of
    /// `inner`, and the Huffman codes replace the caller's buffer's
    /// contents — the arena-backed hot path of the SZ-family
    /// decoders. Bit- and error-identical to [`Self::decode_inner`].
    pub fn decode_inner_into<'a>(
        inner: &'a [u8],
        codes: &mut Vec<u32>,
        lut: &mut huffman::HuffLookup,
    ) -> Result<(&'a [u8], &'a [u8])> {
        let mut r = ByteReader::new(inner);
        let extra_len = r.varint("sz extra length")? as usize;
        let extra = r.take(extra_len, "sz extra")?;
        let outlier_len = r.varint("sz outlier length")? as usize;
        let outliers = r.take(outlier_len, "sz outliers")?;
        let used = huffman::decode_block_into(&inner[r.position()..], codes, lut)?;
        if r.position() + used != inner.len() {
            return Err(CodecError::Corrupt { context: "sz payload trailer" });
        }
        Ok((extra, outliers))
    }

    /// framing; equals the preset chains' `inner → lz` composition).
    pub fn encode(&self) -> Vec<u8> {
        lz::compress(&self.encode_inner())
    }

    /// Inverse of [`Self::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        Self::decode_inner(&lz::decompress(bytes)?)
    }
}

/// The inner SZ-family serialization from borrowed parts — what the
/// array stages call with their arena buffers ([`SzPayload::encode_inner`]
/// is the owned-struct convenience over it).
pub(crate) fn encode_inner(
    extra: &[u8],
    outliers: &[u8],
    codes: &[u32],
    huff: &mut HuffEncoder,
) -> Vec<u8> {
    let mut inner = Vec::with_capacity(codes.len() / 2 + extra.len() + outliers.len() + 64);
    put_varint(&mut inner, extra.len() as u64);
    inner.extend_from_slice(extra);
    put_varint(&mut inner, outliers.len() as u64);
    inner.extend_from_slice(outliers);
    huff.encode_into(codes, &mut inner);
    inner
}

/// Where an SZ-family encode pass records its samples: each sample's code
/// in its own slot (a pass codes every sample exactly once, in visit
/// order) and the verbatim bytes of the outliers.
pub(crate) struct CodeSink<'a> {
    codes: &'a mut [u32],
    next: usize,
    outliers: &'a mut Vec<u8>,
}

impl<'a> CodeSink<'a> {
    /// A sink for `n` samples over the arena's buffers: `codes` sized to
    /// `n` (every slot is overwritten, so nothing is cleared) and an
    /// empty outlier stream.
    pub(crate) fn new(n: usize, codes: &'a mut Vec<u32>, outliers: &'a mut Vec<u8>) -> Self {
        codes.resize(n, 0);
        outliers.clear();
        Self { codes, next: 0, outliers }
    }

    /// Samples coded so far.
    pub(crate) fn coded(&self) -> usize {
        self.next
    }
}

/// Quantizes sample `v` against `pred` and records the outcome the way
/// every SZ-family encoder does: the sample's code, or the outlier marker
/// 0 with the verbatim sample, goes to `sink`, and the value the decoder
/// will reconstruct is returned. The in-range step is
/// [`LinearQuantizer::quantize`], which also holds the bound after the
/// decoder's rounding into `T`; anything it rejects is an outlier.
#[inline(always)]
pub(crate) fn quantize_sample<T: Element>(
    quant: &LinearQuantizer,
    v: f64,
    pred: f64,
    sink: &mut CodeSink<'_>,
) -> f64 {
    let (code, value) = match quant.quantize::<T>(v, pred) {
        Some(coded) => coded,
        None => (0, outlier::<T>(v, sink.outliers)),
    };
    sink.codes[sink.next] = code;
    sink.next += 1;
    value
}

/// The outlier half of [`quantize_sample`]: stores `v` verbatim as a `T`
/// and returns it widened. Out of line, so the in-range loop stays small
/// (smooth fields have few outliers).
#[cold]
#[inline(never)]
fn outlier<T: Element>(v: f64, outliers: &mut Vec<u8>) -> f64 {
    let t = T::from_f64(v);
    t.write_le(outliers);
    t.to_f64()
}

/// Sequential reader over the outlier byte stream.
pub struct OutlierReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> OutlierReader<'a> {
    /// Wraps the outlier bytes of a payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Pops the next outlier sample.
    pub fn take<T: Element>(&mut self) -> Result<T> {
        let v = T::read_le(&self.bytes[self.pos.min(self.bytes.len())..])
            .ok_or(CodecError::TruncatedStream { context: "outlier sample" })?;
        self.pos += T::BYTES;
        Ok(v)
    }

    /// Steps over the outliers of the codes in `codes` (one per zero
    /// code) without reading them — how a region decoder passes samples
    /// it does not reconstruct. Fails like [`Self::take`] would if the
    /// stream holds fewer.
    pub(crate) fn skip_codes<T: Element>(&mut self, codes: &[u32]) -> Result<()> {
        let n = codes.iter().filter(|&&c| c == 0).count();
        let end = self.pos.saturating_add(n.saturating_mul(T::BYTES));
        if end > self.bytes.len() {
            return Err(CodecError::TruncatedStream { context: "outlier sample" });
        }
        self.pos = end;
        Ok(())
    }

    /// True when every outlier has been consumed.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.bytes.len()
    }
}

/// Iterates a shape in fixed-size blocks (clipped at the upper edges),
/// invoking `f(base_index, block_dims)` in raster order of the block grid.
pub fn for_each_block(
    shape: Shape,
    block_dims: &[usize],
    mut f: impl FnMut(&[usize], &[usize]),
) {
    let rank = shape.rank();
    debug_assert_eq!(block_dims.len(), rank);
    let mut counts = [1usize; 4];
    for d in 0..rank {
        counts[d] = shape.dim(d).div_ceil(block_dims[d]);
    }
    let total: usize = counts[..rank].iter().product();
    let mut bidx = [0usize; 4];
    for _ in 0..total {
        let mut base = [0usize; 4];
        let mut dims = [0usize; 4];
        for d in 0..rank {
            base[d] = bidx[d] * block_dims[d];
            dims[d] = block_dims[d].min(shape.dim(d) - base[d]);
        }
        f(&base[..rank], &dims[..rank]);
        for d in (0..rank).rev() {
            bidx[d] += 1;
            if bidx[d] < counts[d] {
                break;
            }
            bidx[d] = 0;
        }
    }
}

/// One block of a row-major array, left-padded to four axes (extent 1)
/// so a single loop nest serves every rank. The encoders walk blocks
/// through this row by row — the last axis is contiguous, so a row is a
/// flat run — instead of rebuilding a coordinate dot product per sample.
pub(crate) struct BlockRows {
    /// Global coordinate of the block's first sample, per padded axis.
    pub base: [usize; 4],
    /// Block extent per padded axis.
    pub dims: [usize; 4],
    strides: [usize; 4],
    origin: usize,
}

impl BlockRows {
    /// Geometry of the block `base .. base + dims` (rank-length slices,
    /// as [`for_each_block`] yields them) inside `shape`.
    pub(crate) fn new(shape: Shape, base: &[usize], dims: &[usize]) -> Self {
        let rank = shape.rank();
        let pad = 4 - rank;
        let shape_strides = shape.strides();
        let mut b = Self {
            base: [0; 4],
            dims: [1; 4],
            strides: [0; 4],
            origin: base.iter().zip(&shape_strides).map(|(&c, &s)| c * s).sum(),
        };
        b.base[pad..].copy_from_slice(&base[..rank]);
        b.dims[pad..].copy_from_slice(&dims[..rank]);
        b.strides[pad..].copy_from_slice(&shape_strides[..rank]);
        b
    }

    /// Flat offset of the first sample of the row at block-local
    /// coordinates `i` of the three outer (padded) axes.
    #[inline(always)]
    pub(crate) fn row_offset(&self, i: [usize; 3]) -> usize {
        self.origin + i[0] * self.strides[0] + i[1] * self.strides[1] + i[2] * self.strides[2]
    }

    /// Visits the rows in raster order: block-local coordinates of the
    /// three outer (padded) axes and the flat offset of the row's first
    /// sample. The row holds `dims[3]` contiguous samples.
    #[inline(always)]
    pub(crate) fn for_each_row(&self, mut f: impl FnMut([usize; 3], usize)) {
        for i0 in 0..self.dims[0] {
            let o0 = self.origin + i0 * self.strides[0];
            for i1 in 0..self.dims[1] {
                let o1 = o0 + i1 * self.strides[1];
                for i2 in 0..self.dims[2] {
                    f([i0, i1, i2], o1 + i2 * self.strides[2]);
                }
            }
        }
    }
}

/// The box a decode delivers, `origin .. origin + extent` (the whole
/// array for a whole decode), left-padded to four axes like
/// [`BlockRows`], with the row-major layout of the box-shaped output.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OutBox {
    origin: [usize; 4],
    extent: [usize; 4],
    strides: [usize; 4],
}

impl OutBox {
    /// The box `origin .. origin + extent` (rank-length slices,
    /// validated against the shape by the caller).
    pub(crate) fn new(origin: &[usize], extent: &[usize]) -> Self {
        let pad = 4 - origin.len();
        let mut b = Self { origin: [0; 4], extent: [1; 4], strides: [0; 4] };
        b.origin[pad..].copy_from_slice(origin);
        b.extent[pad..].copy_from_slice(extent);
        let mut acc = 1;
        for d in (0..4).rev() {
            b.strides[d] = acc;
            acc *= b.extent[d];
        }
        b
    }

    /// The whole array.
    pub(crate) fn whole(shape: Shape) -> Self {
        Self::new(&[0; 4][..shape.rank()], shape.dims())
    }

    /// The box's origin at the array's rank.
    pub(crate) fn origin(&self, rank: usize) -> &[usize] {
        &self.origin[4 - rank..]
    }

    /// The box's extent at the array's rank.
    pub(crate) fn extent(&self, rank: usize) -> &[usize] {
        &self.extent[4 - rank..]
    }

    /// The box-shaped output's row-major strides at the array's rank.
    pub(crate) fn strides(&self, rank: usize) -> &[usize] {
        &self.strides[4 - rank..]
    }

    /// Samples in the box.
    pub(crate) fn len(&self) -> usize {
        self.extent.iter().product()
    }

    /// The box-shaped output's shape, at the array's rank.
    pub(crate) fn shape(&self, rank: usize) -> Shape {
        Shape::new(&self.extent[4 - rank..])
    }

    /// Which samples of a last-axis run fall in the box. The run's
    /// sample `k` (k = 0, 1, …) sits at padded coordinates `at` moved
    /// `k·step` along the last axis. Returns `(k_lo, k_hi, index)`: the
    /// samples `k_lo .. k_hi` are inside (the caller clips `k_hi` to its
    /// run); sample `k_lo` goes to output `index` and each next one
    /// `step` further on. An empty span when the run misses the box.
    #[inline]
    pub(crate) fn span(&self, at: [usize; 4], step: usize) -> (usize, usize, usize) {
        let mut row = 0;
        for (d, &c) in at[..3].iter().enumerate() {
            let rel = c.wrapping_sub(self.origin[d]);
            if rel >= self.extent[d] {
                return (0, 0, 0);
            }
            row += rel * self.strides[d];
        }
        let k_at = |c: usize| if c <= at[3] { 0 } else { (c - at[3]).div_ceil(step) };
        let (lo, hi) = (k_at(self.origin[3]), k_at(self.origin[3] + self.extent[3]));
        if lo >= hi {
            return (0, 0, 0);
        }
        (lo, hi, row + at[3] + lo * step - self.origin[3])
    }
}

/// The default SZ block edge per rank (SZ2's defaults: long 1-D blocks,
/// 16² planes, 8³ and 6⁴ volumes).
pub fn sz_block_dims(rank: usize) -> [usize; 4] {
    match rank {
        1 => [256, 1, 1, 1],
        2 => [16, 16, 1, 1],
        3 => [8, 8, 8, 1],
        _ => [6, 6, 6, 6],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecs::reference::for_each_in_block;

    #[test]
    fn payload_roundtrip() {
        let p = SzPayload {
            extra: vec![1, 2, 3],
            outliers: vec![0xde, 0xad, 0xbe, 0xef],
            codes: (0..5000u32).map(|i| 32768 + (i % 7)).collect(),
        };
        let enc = p.encode();
        let d = SzPayload::decode(&enc).unwrap();
        assert_eq!(d.extra, p.extra);
        assert_eq!(d.outliers, p.outliers);
        assert_eq!(d.codes, p.codes);
    }

    #[test]
    fn payload_truncation_detected() {
        let p = SzPayload {
            extra: vec![],
            outliers: vec![],
            codes: vec![1, 2, 3, 2, 1],
        };
        let enc = p.encode();
        for cut in 0..enc.len() {
            assert!(SzPayload::decode(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn outlier_reader_sequences() {
        let mut bytes = Vec::new();
        1.5f32.write_le(&mut bytes);
        (-2.25f32).write_le(&mut bytes);
        let mut r = OutlierReader::new(&bytes);
        assert_eq!(r.take::<f32>().unwrap(), 1.5);
        assert_eq!(r.take::<f32>().unwrap(), -2.25);
        assert!(r.exhausted());
        assert!(r.take::<f32>().is_err());
    }

    #[test]
    fn block_iteration_covers_exactly_once() {
        let shape = Shape::d3(10, 7, 5);
        let mut seen = vec![0u32; shape.len()];
        for_each_block(shape, &[4, 4, 4], |base, dims| {
            for_each_in_block(shape, base, dims, |_, off| {
                seen[off] += 1;
            });
        });
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn edge_blocks_are_clipped() {
        let shape = Shape::d2(5, 5);
        let mut blocks = Vec::new();
        for_each_block(shape, &[4, 4], |base, dims| {
            blocks.push((base.to_vec(), dims.to_vec()));
        });
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[3], (vec![4, 4], vec![1, 1]));
    }

    #[test]
    fn validate_rejects_nan() {
        let mut a = eblcio_data::NdArray::<f32>::zeros(Shape::d1(4));
        assert!(validate_input(a.view()).is_ok());
        a.as_mut_slice()[2] = f32::NAN;
        assert_eq!(validate_input(a.view()), Err(CodecError::NonFiniteInput));
    }

    /// One non-finite sample anywhere — first or last of a block, or in
    /// a short last block — is found.
    #[test]
    fn validate_finds_one_bad_sample_at_every_block_edge() {
        let n = 3 * VALIDATE_BLOCK + 7;
        let mut a = eblcio_data::NdArray::<f64>::from_fn(Shape::d1(n), |i| i[0] as f64 - 900.0);
        assert!(validate_input(a.view()).is_ok());
        for at in [0, VALIDATE_BLOCK - 1, VALIDATE_BLOCK, 2 * VALIDATE_BLOCK + 1, n - 1] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let keep = std::mem::replace(&mut a.as_mut_slice()[at], bad);
                let got = validate_input(a.view());
                assert_eq!(got, Err(CodecError::NonFiniteInput), "{bad} at {at}");
                a.as_mut_slice()[at] = keep;
            }
        }
    }
}
