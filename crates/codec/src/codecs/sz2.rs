//! SZ2: block-based hybrid Lorenzo/regression prediction (Liang et al.,
//! IEEE Big Data 2018).
//!
//! The field is processed in small multi-dimensional blocks. For each
//! block the encoder fits an affine regression predictor and estimates
//! whether it beats the order-1 Lorenzo predictor on that block; the
//! winner's residuals are quantized with the error-controlled linear
//! quantizer, and the code stream is entropy-coded (canonical Huffman)
//! and passed through the LZ backend — the SZ2 pipeline of §II-B.

use super::common::{
    encode_inner, for_each_block, quantize_sample, sz_block_dims, BlockRows,
    CodeSink, OutBox, OutlierReader, SzPayload,
};
use super::impl_stage_codec;
use crate::error::{CodecError, Result};
use crate::predict::{fit_affine, AffineCoef, LorenzoStencil};
use crate::quantizer::LinearQuantizer;
use crate::scratch::{with_scratch, CodecScratch};
use crate::traits::CompressorId;
use crate::util::ByteReader;
use eblcio_data::{ArrayView, DatasetView, Element, NdArray, Shape};

/// Quantization code radius (SZ default: 2^15 bins each side).
pub(super) const RADIUS: u32 = 32768;

/// The SZ2 compressor, on SZ2's per-rank block edges
/// ([`sz_block_dims`]), which the stream does not record.
#[derive(Clone, Debug, Default)]
pub struct Sz2;

impl Sz2 {
    /// Array-stage encode: hybrid block prediction at an already
    /// resolved absolute bound, emitting the inner SZ payload (the
    /// chain's LZ byte stage supplies the backend pass).
    ///
    /// Each block is walked three times row by row through
    /// `BlockRows` — gather + regression fit, mode selection on the
    /// raw data, then quantization against the evolving reconstruction —
    /// with the planes, code buffer and Huffman tables borrowed from
    /// the thread's [`CodecScratch`]. Lorenzo predictions go through
    /// the precomputed [`LorenzoStencil`] — unrolled at interior
    /// samples, masked on the zero-coordinate faces — which agrees with
    /// the generic Lorenzo sum bit for bit (pinned by the `predict`
    /// unit tests).
    pub fn encode_impl<T: Element>(
        &self,
        data: ArrayView<'_, T>,
        abs: f64,
    ) -> Result<(Vec<u8>, f64)> {
        with_scratch(|s| Ok((self.encode_with(data, abs, s), abs)))
    }

    fn encode_with<T: Element>(
        &self,
        data: ArrayView<'_, T>,
        abs: f64,
        scratch: &mut CodecScratch,
    ) -> Vec<u8> {
        let shape = data.shape();
        let rank = shape.rank();
        let pad = 4 - rank;
        let quant = LinearQuantizer::new(abs, RADIUS);
        let block_dims = sz_block_dims(rank);
        let n = shape.len();

        let CodecScratch { codes, recon, raw, block, outliers, huff_enc, .. } = scratch;
        let samples = data.as_slice();
        // Double-precision input already is the f64 plane; only
        // single precision is widened into the arena.
        let raw: &[f64] = match T::erase(data) {
            DatasetView::F64(same) => same.as_slice(),
            DatasetView::F32(_) => {
                raw.clear();
                raw.extend(samples.iter().map(|v| v.to_f64()));
                raw
            }
        };
        // No zeroing, as in the decode: a Lorenzo prediction reads only
        // samples of its own block or of a lower neighbour, all written
        // earlier in the same pass.
        recon.resize(n, 0.0);
        let recon = recon.as_mut_slice();
        let mut sink = CodeSink::new(n, codes, outliers);

        // Side channel: block count, one mode bit per block (MSB-first),
        // then the regression coefficients of the blocks that use them.
        let n_blocks: usize = (0..rank).map(|d| shape.dim(d).div_ceil(block_dims[d])).product();
        // Room for every block's coefficients, so the side channel
        // never regrows mid-encode.
        let mut extra = Vec::with_capacity(16 + n_blocks.div_ceil(8) + n_blocks * 4 * (rank + 1));
        crate::util::put_varint(&mut extra, n_blocks as u64);
        let modes_at = extra.len();
        extra.resize(modes_at + n_blocks.div_ceil(8), 0);
        let mut block_i = 0usize;

        let stencil = LorenzoStencil::new(shape);

        for_each_block(shape, &block_dims[..rank], |base, dims| {
            let rows = BlockRows::new(shape, base, dims);
            let row_len = rows.dims[3];

            // Gather the raw block and fit the regression predictor.
            block.clear();
            rows.for_each_row(|_, off| block.extend_from_slice(&raw[off..off + row_len]));
            let coef = fit_affine(block, dims).quantized(rank);
            let c_last = coef.c[rank - 1];

            // Mode selection on raw data: total absolute residual of the
            // regression plane vs the raw-data Lorenzo prediction.
            let mut reg_err = 0.0f64;
            let mut lor_err = 0.0f64;
            let mut k = 0usize;
            rows.for_each_row(|i, off| {
                let p = row_plane(&coef, i, pad);
                let (first, rest) = row_faces(&stencil, &rows, i, pad);
                for (j, &v) in block[k..k + row_len].iter().enumerate() {
                    reg_err += (v - (p + c_last * j as f64)).abs();
                    let faces = if j == 0 { first } else { rest };
                    lor_err += (v - stencil.eval(raw, off + j, faces)).abs();
                }
                k += row_len;
            });
            let use_regression = reg_err < lor_err;
            if use_regression {
                extra[modes_at + block_i / 8] |= 0x80 >> (block_i % 8);
                coef.to_f32_bytes(rank, &mut extra);
            }
            block_i += 1;

            // Encode the block against the evolving reconstruction.
            let mut k = 0usize;
            rows.for_each_row(|i, off| {
                let p = row_plane(&coef, i, pad);
                let (first, rest) = row_faces(&stencil, &rows, i, pad);
                for (j, &v) in block[k..k + row_len].iter().enumerate() {
                    let pred = if use_regression {
                        p + c_last * j as f64
                    } else {
                        stencil.eval(recon, off + j, if j == 0 { first } else { rest })
                    };
                    recon[off + j] = quantize_sample::<T>(&quant, v, pred, &mut sink);
                }
                k += row_len;
            });
        });

        debug_assert_eq!(sink.coded(), n, "every sample is coded once");
        encode_inner(&extra, outliers, codes, huff_enc)
    }

    /// Array-stage decode of the box `origin .. origin + extent`, mirror
    /// of [`Self::encode_impl`], on the thread's [`CodecScratch`]. Every
    /// code is Huffman-decoded, but only the blocks the box touches are
    /// reconstructed, plus the blocks their Lorenzo predictions read
    /// (regression blocks read none; a Lorenzo block reads its lower
    /// neighbours, and so on down). Every other block is stepped over:
    /// its codes and their outliers skipped, its regression coefficients
    /// consumed. The plane is not zeroed first: a Lorenzo prediction
    /// reads only samples of its own block or of a needed lower
    /// neighbour, all reconstructed earlier in the same pass.
    pub fn decode_impl<T: Element>(
        &self,
        bytes: &[u8],
        shape: Shape,
        abs: f64,
        origin: &[usize],
        extent: &[usize],
    ) -> Result<NdArray<T>> {
        let boxed = OutBox::new(origin, extent);
        with_scratch(|s| {
            let CodecScratch { codes, recon, huff, .. } = s;
            let (extra, outliers) = SzPayload::decode_inner_into(bytes, codes, huff)?;
            if boxed.len() == shape.len() {
                self.decode_blocks::<T, true>(codes, outliers, extra, shape, abs, &boxed, recon)
            } else {
                self.decode_blocks::<T, false>(codes, outliers, extra, shape, abs, &boxed, recon)
            }
        })
    }

    /// The block decode behind [`Self::decode_impl`]: walks each needed
    /// block row by row through [`BlockRows`] exactly as
    /// [`Self::encode_with`] does — the regression plane's outer terms
    /// summed once per row, the stencil's faces decided per row — and
    /// stores the samples inside `boxed` — all of them, at their own
    /// offsets, when `WHOLE` (the box is the array: no block selection
    /// and no per-sample box test, which takes ≈ 11 % off a whole-chunk
    /// decode; see EXPERIMENTS.md, "Cold reads, part 2"). Bit-identical
    /// to the same slice of the frozen reference decoder's output: the
    /// `codecs::decode_fastpath` unit tests pin it on drawn inputs, the
    /// `stencil_matches_lorenzo_at_interior_points` test pins the
    /// stencil, and `decode_golden.rs` pins the recorded inputs.
    #[allow(clippy::too_many_arguments)]
    fn decode_blocks<T: Element, const WHOLE: bool>(
        &self,
        codes: &[u32],
        outlier_bytes: &[u8],
        extra: &[u8],
        shape: Shape,
        abs: f64,
        boxed: &OutBox,
        recon: &mut Vec<f64>,
    ) -> Result<NdArray<T>> {
        let rank = shape.rank();
        let pad = 4 - rank;
        let block_dims = sz_block_dims(rank);
        let modes = Modes::parse(extra)?;
        let n = shape.len();
        if codes.len() != n {
            return Err(CodecError::Corrupt { context: "sz2 code count" });
        }
        let grid = BlockGrid::new(shape, &block_dims[..rank]);
        if modes.n_blocks < grid.len() {
            return Err(CodecError::Corrupt { context: "sz2 block modes" });
        }
        // A box short of the whole array reconstructs only the blocks
        // it needs, and walks no block past the last of them.
        let needed = (!WHOLE).then(|| grid.needed(&modes, boxed.origin(rank), boxed.extent(rank)));
        let walked = needed
            .as_ref()
            .map_or(grid.len(), |v| v.iter().rposition(|&b| b).map_or(0, |i| i + 1));
        let stencil = LorenzoStencil::new(shape);
        // No zeroing: a Lorenzo prediction reads only samples this pass
        // has already written — earlier in its block, or in a lower
        // neighbour block, which `needed` keeps — so what an earlier
        // decode left in the plane is never read.
        recon.resize(n, 0.0);
        let mut sink = SampleSink {
            quant: LinearQuantizer::new(abs.max(f64::MIN_POSITIVE), RADIUS),
            codes,
            code_i: 0,
            outliers: OutlierReader::new(outlier_bytes),
            recon,
        };
        let mut out = vec![T::default(); boxed.len()];
        let mut block_i = 0usize;
        let mut coef_pos = 0usize;
        let mut failure: Option<CodecError> = None;

        for_each_block(shape, &block_dims[..rank], |base, dims| {
            if failure.is_some() || block_i >= walked {
                return;
            }
            let b = block_i;
            block_i += 1;
            let coef = match modes.coef(b, rank, &mut coef_pos) {
                Ok(c) => c,
                Err(e) => {
                    failure = Some(e);
                    return;
                }
            };
            if needed.as_ref().is_some_and(|v| !v[b]) {
                failure = sink.skip::<T>(dims.iter().product()).err();
                return;
            }
            let rows = BlockRows::new(shape, base, dims);
            let row_len = rows.dims[3];
            rows.for_each_row(|i, off| {
                if failure.is_some() {
                    return;
                }
                let b = rows.base;
                let (j_lo, j_hi, at) = boxed.span([b[0] + i[0], b[1] + i[1], b[2] + i[2], b[3]], 1);
                let emit = j_hi.min(row_len).saturating_sub(j_lo);
                let mut put = |sink: &mut SampleSink<'_>, j: usize, pred: f64| -> Result<()> {
                    let t = sink.put::<T>(pred, off + j)?;
                    if WHOLE {
                        out[off + j] = t;
                    } else if j.wrapping_sub(j_lo) < emit {
                        out[at + j - j_lo] = t;
                    }
                    Ok(())
                };
                let row = match &coef {
                    Some(coef) => {
                        let p = row_plane(coef, i, pad);
                        let c_last = coef.c[rank - 1];
                        (0..row_len).try_for_each(|j| put(&mut sink, j, p + c_last * j as f64))
                    }
                    None => {
                        let (first, rest) = row_faces(&stencil, &rows, i, pad);
                        (0..row_len).try_for_each(|j| {
                            let faces = if j == 0 { first } else { rest };
                            let pred = stencil.eval(sink.recon, off + j, faces);
                            put(&mut sink, j, pred)
                        })
                    }
                };
                failure = row.err();
            });
        });
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(NdArray::from_vec(boxed.shape(rank), out))
    }
}

/// The side channel: block count, one mode bit per block (MSB-first),
/// then the regression coefficients of the blocks that use them, in
/// block order.
pub(super) struct Modes<'a> {
    pub(super) n_blocks: usize,
    bits: &'a [u8],
    coefs: &'a [u8],
}

impl<'a> Modes<'a> {
    pub(super) fn parse(extra: &'a [u8]) -> Result<Self> {
        let mut er = ByteReader::new(extra);
        let n_blocks = er.varint("sz2 block count")? as usize;
        let bits = er.take(n_blocks.div_ceil(8), "sz2 block modes")?;
        Ok(Self { n_blocks, bits, coefs: &extra[er.position()..] })
    }

    /// Whether block `b` (< `n_blocks`) predicts by regression.
    fn regression(&self, b: usize) -> bool {
        self.bits[b / 8] & (0x80 >> (b % 8)) != 0
    }

    /// Block `b`'s regression coefficients, read at `*pos` (which moves
    /// past them); `None` for a Lorenzo block.
    pub(super) fn coef(
        &self,
        b: usize,
        rank: usize,
        pos: &mut usize,
    ) -> Result<Option<AffineCoef>> {
        if !self.regression(b) {
            return Ok(None);
        }
        let rest = &self.coefs[(*pos).min(self.coefs.len())..];
        let (c, used) = AffineCoef::from_f32_bytes(rank, rest)
            .ok_or(CodecError::TruncatedStream { context: "sz2 coefficients" })?;
        *pos += used;
        Ok(Some(c))
    }
}

/// The block grid of a shape, in [`for_each_block`]'s raster order.
struct BlockGrid {
    rank: usize,
    edge: [usize; 4],
    counts: [usize; 4],
}

impl BlockGrid {
    fn new(shape: Shape, edge: &[usize]) -> Self {
        let rank = shape.rank();
        let mut g = Self { rank, edge: [1; 4], counts: [1; 4] };
        for (d, &e) in edge.iter().enumerate() {
            g.edge[d] = e;
            g.counts[d] = shape.dim(d).div_ceil(e);
        }
        g
    }

    fn len(&self) -> usize {
        self.counts[..self.rank].iter().product()
    }

    /// Which blocks a decode of the box `origin .. origin + extent`
    /// reconstructs: the blocks it touches and, transitively, the lower
    /// neighbours (one block back along any set of axes) that every
    /// Lorenzo block among them reads.
    fn needed(&self, modes: &Modes<'_>, origin: &[usize], extent: &[usize]) -> Vec<bool> {
        let rank = self.rank;
        let mut strides = [0usize; 4];
        let mut acc = 1;
        for d in (0..rank).rev() {
            strides[d] = acc;
            acc *= self.counts[d];
        }
        let mut needed = vec![false; self.len()];
        let (mut lo, mut hi) = ([0usize; 4], [1usize; 4]);
        for (d, (&o, &e)) in origin.iter().zip(extent).enumerate() {
            lo[d] = o / self.edge[d];
            hi[d] = (o + e - 1) / self.edge[d] + 1;
        }
        let mut idx = lo;
        'touched: loop {
            needed[(0..rank).map(|d| idx[d] * strides[d]).sum::<usize>()] = true;
            for d in (0..rank).rev() {
                idx[d] += 1;
                if idx[d] < hi[d] {
                    continue 'touched;
                }
                idx[d] = lo[d];
            }
            break;
        }
        // A block's lower neighbours come before it, so one sweep from
        // the last block closes the set.
        for b in (0..needed.len()).rev() {
            if !needed[b] || modes.regression(b) {
                continue;
            }
            'masks: for mask in 1usize..1 << rank {
                let mut back = 0;
                for (d, &stride) in strides[..rank].iter().enumerate() {
                    if mask >> d & 1 == 1 {
                        if b / stride % self.counts[d] == 0 {
                            continue 'masks; // no block below the grid's first layer
                        }
                        back += stride;
                    }
                }
                needed[b - back] = true;
            }
        }
        needed
    }
}

/// The regression plane at the start of a block row (block-local outer
/// coordinates `i`, left-padded): the outer axes' terms summed once, in
/// axis order as [`AffineCoef::eval`] does; the last axis' term is added
/// per sample.
#[inline(always)]
fn row_plane(coef: &AffineCoef, i: [usize; 3], pad: usize) -> f64 {
    let mut p = coef.c0;
    for (c, &x) in coef.c.iter().zip(&i[pad..]) {
        p += c * x as f64;
    }
    p
}

/// The zero-coordinate faces ([`LorenzoStencil::zero_axes`]) a block
/// row's samples lie on: `(first sample, rest of the row)`. Past the
/// first sample the last coordinate is > 0, so the rest of the row is
/// only on the faces the outer coordinates put it on.
#[inline(always)]
fn row_faces(stencil: &LorenzoStencil, rows: &BlockRows, i: [usize; 3], pad: usize) -> (u32, u32) {
    let b = rows.base;
    let idx = [b[0] + i[0], b[1] + i[1], b[2] + i[2], b[3]];
    // The block is left-padded to four axes; the stencil numbers the
    // shape's own, so the last axis is bit `3 − pad`.
    let first = stencil.zero_axes(&idx[pad..]);
    (first, first & !(1 << (3 - pad)))
}

/// Where decoded samples come from: takes the next code (or outlier)
/// for a prediction and stores the sample, widened, in the
/// reconstruction plane later predictions read.
pub(super) struct SampleSink<'a> {
    pub(super) quant: LinearQuantizer,
    /// One code per sample, in visit order.
    pub(super) codes: &'a [u32],
    pub(super) code_i: usize,
    pub(super) outliers: OutlierReader<'a>,
    pub(super) recon: &'a mut [f64],
}

impl SampleSink<'_> {
    /// Decodes the next sample at flat offset `off` against `pred`.
    #[inline(always)]
    pub(super) fn put<T: Element>(&mut self, pred: f64, off: usize) -> Result<T> {
        let code = *self
            .codes
            .get(self.code_i)
            .ok_or(CodecError::Corrupt { context: "sz2 code count" })?;
        self.code_i += 1;
        let t = if code == 0 {
            self.outliers.take::<T>()?
        } else {
            T::from_f64(self.quant.reconstruct(code, pred))
        };
        self.recon[off] = t.to_f64();
        Ok(t)
    }

    /// Steps over the next `n` samples — a block the decode does not
    /// reconstruct — and their outliers.
    fn skip<T: Element>(&mut self, n: usize) -> Result<()> {
        let end = self.code_i + n;
        let skipped = self
            .codes
            .get(self.code_i..end)
            .ok_or(CodecError::Corrupt { context: "sz2 code count" })?;
        self.outliers.skip_codes::<T>(skipped)?;
        self.code_i = end;
        Ok(())
    }
}

impl_stage_codec!(Sz2, CompressorId::Sz2);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecs::preset;
    use crate::traits::{compress, decompress, ErrorBound};
    use eblcio_data::{max_rel_error, psnr};

    fn smooth_2d(n: usize, m: usize) -> NdArray<f32> {
        NdArray::from_fn(Shape::d2(n, m), |i| {
            let x = i[0] as f32 / n as f32;
            let y = i[1] as f32 / m as f32;
            (x * 6.0).sin() * (y * 4.0).cos() * 100.0
        })
    }

    #[test]
    fn roundtrip_respects_bound_2d() {
        let data = smooth_2d(50, 60);
        let c = preset(CompressorId::Sz2);
        for eps in [1e-1, 1e-2, 1e-3, 1e-4] {
            let stream = compress(&c, &data, ErrorBound::Relative(eps)).unwrap();
            let back = decompress::<f32>(&c, &stream).unwrap();
            assert_eq!(back.shape(), data.shape());
            assert!(
                max_rel_error(&data, &back) <= eps * 1.0000001,
                "eps {eps}: {}",
                max_rel_error(&data, &back)
            );
        }
    }

    #[test]
    fn roundtrip_1d_3d_4d() {
        let c = preset(CompressorId::Sz2);
        let d1 = NdArray::<f64>::from_fn(Shape::d1(500), |i| (i[0] as f64 * 0.01).sin());
        let d3 = NdArray::<f32>::from_fn(Shape::d3(17, 19, 23), |i| {
            (i[0] + i[1] * 2 + i[2]) as f32
        });
        let d4 = NdArray::<f64>::from_fn(Shape::d4(5, 6, 7, 8), |i| {
            i.iter().sum::<usize>() as f64 * 0.5
        });
        let s1 = compress(&c, &d1, ErrorBound::Relative(1e-3)).unwrap();
        assert!(max_rel_error(&d1, &decompress::<f64>(&c, &s1).unwrap()) <= 1e-3 * 1.0000001);
        let s3 = compress(&c, &d3, ErrorBound::Relative(1e-3)).unwrap();
        assert!(max_rel_error(&d3, &decompress::<f32>(&c, &s3).unwrap()) <= 1e-3 * 1.0000001);
        let s4 = compress(&c, &d4, ErrorBound::Relative(1e-3)).unwrap();
        assert!(max_rel_error(&d4, &decompress::<f64>(&c, &s4).unwrap()) <= 1e-3 * 1.0000001);
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_2d(100, 100);
        let c = preset(CompressorId::Sz2);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-2)).unwrap();
        let cr = data.nbytes() as f64 / stream.len() as f64;
        assert!(cr > 4.0, "CR {cr}");
    }

    #[test]
    fn tighter_bound_larger_stream_higher_psnr() {
        let data = smooth_2d(64, 64);
        let c = preset(CompressorId::Sz2);
        let loose = compress(&c, &data, ErrorBound::Relative(1e-1)).unwrap();
        let tight = compress(&c, &data, ErrorBound::Relative(1e-4)).unwrap();
        assert!(tight.len() > loose.len());
        let p_loose = psnr(&data, &decompress::<f32>(&c, &loose).unwrap());
        let p_tight = psnr(&data, &decompress::<f32>(&c, &tight).unwrap());
        assert!(p_tight > p_loose + 20.0, "{p_tight} vs {p_loose}");
    }

    #[test]
    fn constant_data_is_tiny_and_exact() {
        let data = NdArray::<f32>::from_vec(Shape::d2(32, 32), vec![3.25; 1024]);
        let c = preset(CompressorId::Sz2);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        let back = decompress::<f32>(&c, &stream).unwrap();
        assert_eq!(back.as_slice(), data.as_slice());
        assert!(stream.len() < 200, "stream {}", stream.len());
    }

    #[test]
    fn nan_input_rejected() {
        let mut data = NdArray::<f32>::zeros(Shape::d1(10));
        data.as_mut_slice()[5] = f32::NAN;
        let c = preset(CompressorId::Sz2);
        assert_eq!(
            compress(&c, &data, ErrorBound::Relative(1e-3)),
            Err(CodecError::NonFiniteInput)
        );
    }

    #[test]
    fn wrong_codec_stream_rejected() {
        let data = smooth_2d(8, 8);
        let sz3 = preset(CompressorId::Sz3);
        let stream = compress(&sz3, &data, ErrorBound::Relative(1e-3)).unwrap();
        assert!(decompress::<f32>(&preset(CompressorId::Sz2), &stream).is_err());
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let data = smooth_2d(8, 8);
        let c = preset(CompressorId::Sz2);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        assert!(matches!(
            decompress::<f64>(&c, &stream),
            Err(CodecError::DtypeMismatch { .. })
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = smooth_2d(16, 16);
        let c = preset(CompressorId::Sz2);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        for cut in [0, 5, stream.len() / 2, stream.len() - 1] {
            assert!(decompress::<f32>(&c, &stream[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn absolute_bound_honoured() {
        let data = smooth_2d(40, 40);
        let c = preset(CompressorId::Sz2);
        let stream = compress(&c, &data, ErrorBound::Absolute(0.5)).unwrap();
        let back = decompress::<f32>(&c, &stream).unwrap();
        let max_err = data
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err <= 0.5000001, "{max_err}");
    }
}
