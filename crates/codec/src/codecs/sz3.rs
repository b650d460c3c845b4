//! SZ3: multi-level dynamic spline interpolation (Zhao et al. ICDE'21,
//! Liang et al. IEEE TBD'23).
//!
//! A coarse anchor lattice is coded first (Lorenzo chain along the
//! lattice), then each interpolation level predicts the new grid points
//! by cubic/linear splines from already-reconstructed neighbours (see
//! [`crate::interp`]), quantizes the residuals, and ships the codes
//! through Huffman + LZ. Compared to SZ2 this stores no per-block
//! regression coefficients, which is where its compression-ratio
//! advantage at loose bounds comes from.

use super::common::{encode_inner, quantize_sample, OutlierReader, SzPayload};
use super::impl_stage_codec;
use crate::error::{CodecError, Result};
use crate::interp::{anchor_offsets, max_level, walk_reference, Interp};
use crate::quantizer::LinearQuantizer;
use crate::scratch::{with_scratch, CodecScratch};
use crate::traits::CompressorId;
use eblcio_data::{ArrayView, Element, NdArray, Shape};

/// Quantization code radius (same default as SZ2).
pub(crate) const RADIUS: u32 = 32768;

/// The SZ3 compressor.
#[derive(Clone, Debug)]
pub struct Sz3 {
    /// Use cubic spline stencils where four neighbours exist (SZ3's
    /// "dynamic spline"); `false` degrades every stencil to linear —
    /// the `ablation_predictors` bench quantifies what cubic buys.
    pub cubic: bool,
    /// Decode through the frozen pre-optimization path (per-symbol
    /// Huffman, fresh allocations). Wire-identical; only speed differs.
    reference: bool,
}

impl Default for Sz3 {
    fn default() -> Self {
        Self { cubic: true, reference: false }
    }
}

impl Sz3 {
    /// Linear-interpolation-only variant (ablation).
    pub fn linear_only() -> Self {
        Self { cubic: false, ..Self::default() }
    }

    /// A decoder pinned to the frozen reference path — the baseline arm
    /// of the decode-bandwidth gate and the fast-path equivalence tests.
    pub fn reference_decoder() -> Self {
        Self { reference: true, ..Self::default() }
    }
}

/// Degrades a cubic stencil to its central linear pair when cubic
/// interpolation is disabled (ablation mode).
#[inline]
pub(crate) fn effective_stencil(pred: Interp, cubic: bool) -> Interp {
    match pred {
        Interp::Cubic([_, b, c, _]) if !cubic => Interp::Linear([b, c]),
        other => other,
    }
}

/// What the fused interpolation pass does with one sample once its
/// prediction is known: the encoder quantizes the raw value, the
/// decoder reconstructs from the next code. Either way `recon[off]`
/// ends up holding the value the decoder sees.
trait SampleCoder {
    fn code(
        &mut self,
        quant: &LinearQuantizer,
        pred: f64,
        off: usize,
        recon: &mut [f64],
    ) -> Result<()>;
}

/// Encode side of [`interp_pass`]: raw samples in, codes and outlier
/// bytes out.
struct EncodeSamples<'a, T> {
    samples: &'a [T],
    codes: &'a mut Vec<u32>,
    outliers: &'a mut Vec<u8>,
}

impl<T: Element> SampleCoder for EncodeSamples<'_, T> {
    #[inline(always)]
    fn code(
        &mut self,
        quant: &LinearQuantizer,
        pred: f64,
        off: usize,
        recon: &mut [f64],
    ) -> Result<()> {
        let v = self.samples[off].to_f64();
        quantize_sample::<T>(quant, v, pred, off, recon, self.codes, self.outliers);
        Ok(())
    }
}

/// Decode side of [`interp_pass`]: codes and outlier bytes in, samples
/// out.
struct DecodeSamples<'a, T> {
    codes: &'a [u32],
    code_i: usize,
    outliers: OutlierReader<'a>,
    out: &'a mut [T],
}

impl<T: Element> SampleCoder for DecodeSamples<'_, T> {
    #[inline(always)]
    fn code(
        &mut self,
        quant: &LinearQuantizer,
        pred: f64,
        off: usize,
        recon: &mut [f64],
    ) -> Result<()> {
        let code = self.codes[self.code_i];
        self.code_i += 1;
        let t = if code == 0 {
            self.outliers.take::<T>()?
        } else {
            T::from_f64(quant.reconstruct(code, pred))
        };
        recon[off] = t.to_f64();
        self.out[off] = t;
        Ok(())
    }
}

/// Encodes samples with the fused interpolation pass, appending codes
/// and outlier bytes to the caller's (arena) buffers. `level_abs` maps
/// an interpolation level to its absolute bound (constant for SZ3,
/// tightened per level by QoZ); anchors use `anchor_abs`.
pub(crate) fn interp_encode_with<T: Element>(
    data: ArrayView<'_, T>,
    anchor_abs: f64,
    level_abs: impl Fn(u32) -> f64,
    cubic: bool,
    recon: &mut Vec<f64>,
    codes: &mut Vec<u32>,
    outliers: &mut Vec<u8>,
) {
    let shape = data.shape();
    let n = shape.len();
    recon.clear();
    recon.resize(n, 0.0);
    codes.clear();
    codes.reserve(n);
    outliers.clear();
    let mut coder = EncodeSamples { samples: data.as_slice(), codes, outliers };
    // The encode side of the pass cannot fail.
    let _ = interp_pass(shape, anchor_abs, level_abs, cubic, recon, &mut coder);
}

/// Mirror of [`interp_encode_with`] on the thread's arena plane.
pub(crate) fn interp_decode<T: Element>(
    shape: Shape,
    codes: &[u32],
    outlier_bytes: &[u8],
    anchor_abs: f64,
    level_abs: impl Fn(u32) -> f64,
    cubic: bool,
) -> Result<NdArray<T>> {
    with_scratch(|s| {
        interp_decode_with(shape, codes, outlier_bytes, anchor_abs, level_abs, cubic, &mut s.recon)
    })
}

/// [`interp_decode`] with a caller-owned reconstruction buffer, so the
/// arena-backed decode path reuses the f64 plane across chunks.
/// Bit-identical to [`interp_decode_reference`] (see [`interp_pass`]).
pub(crate) fn interp_decode_with<T: Element>(
    shape: Shape,
    codes: &[u32],
    outlier_bytes: &[u8],
    anchor_abs: f64,
    level_abs: impl Fn(u32) -> f64,
    cubic: bool,
    recon_buf: &mut Vec<f64>,
) -> Result<NdArray<T>> {
    let n = shape.len();
    if codes.len() != n {
        return Err(CodecError::Corrupt { context: "sz3 code count" });
    }
    recon_buf.clear();
    recon_buf.resize(n, 0.0);
    let mut out = vec![T::default(); n];
    let mut coder = DecodeSamples {
        codes,
        code_i: 0,
        outliers: OutlierReader::new(outlier_bytes),
        out: &mut out,
    };
    let anchor_abs = anchor_abs.max(f64::MIN_POSITIVE);
    interp_pass(shape, anchor_abs, level_abs, cubic, recon_buf, &mut coder)?;
    Ok(NdArray::from_vec(shape, out))
}

/// The interpolation pyramid both directions run: the anchor lattice as
/// a Lorenzo chain in raster order, then every level/axis lattice, each
/// sample handed to `coder` with its prediction.
///
/// The walk is *fused* into the loop: the task sequence is exactly
/// [`walk`](crate::interp::walk)'s (pinned against [`walk_reference`] by
/// the oracle tests), but the stencil kind is resolved once per run
/// instead of once per sample, so each inner loop is a fixed-stencil
/// pass over one flat stride — no `Task` construction, no enum
/// dispatch, no callback. Each sample performs `Interp::eval`'s
/// arithmetic in the same order (`* 0.0625` is an exact power-of-two
/// scale, the same correctly-rounded result as `/ 16.0`), and samples
/// are visited in the same sequence.
fn interp_pass<C: SampleCoder>(
    shape: Shape,
    anchor_abs: f64,
    level_abs: impl Fn(u32) -> f64,
    cubic: bool,
    recon: &mut [f64],
    coder: &mut C,
) -> Result<()> {
    let rank = shape.rank();
    let strides = shape.strides();

    let anchor_quant = LinearQuantizer::new(anchor_abs, RADIUS);
    let mut prev = 0.0f64;
    for off in anchor_offsets(shape) {
        coder.code(&anchor_quant, prev, off, recon)?;
        prev = recon[off];
    }

    for level in (1..=max_level(shape)).rev() {
        let s = 1usize << level;
        let h = s / 2;
        let quant = LinearQuantizer::new(level_abs(level).max(f64::MIN_POSITIVE), RADIUS);
        for axis in 0..rank {
            let dim_a = shape.dim(axis);
            if h >= dim_a {
                continue;
            }
            // Lattice counts and per-dim flat steps, exactly as in
            // `walk`.
            let mut counts = [1usize; 4];
            for (d, count) in counts.iter_mut().enumerate().take(rank) {
                *count = if d == axis {
                    (dim_a - h).div_ceil(s)
                } else if d < axis {
                    shape.dim(d).div_ceil(h)
                } else {
                    shape.dim(d).div_ceil(s)
                };
            }
            let mut steps = [0usize; 4];
            for (d, sp) in steps.iter_mut().enumerate().take(rank) {
                *sp = if d < axis { h } else { s } * strides[d];
            }
            let axis_stride = strides[axis];
            let d1 = h * axis_stride;
            let d3 = 3 * h * axis_stride;
            let inner_n = counts[rank - 1];
            let inner_step = steps[rank - 1];
            let outer_total: usize = counts[..rank - 1].iter().product();
            let mut idx = [0usize; 4];
            let mut off0 = h * axis_stride;
            for _ in 0..outer_total {
                if axis == rank - 1 {
                    // The run varies the target-axis coordinate
                    // t = h + k·s: a linear-or-copy head sample, a cubic
                    // interior, then a linear and a copy tail (every
                    // predicate is monotone in k, so the segments are
                    // contiguous).
                    let mut o = off0;
                    let pred = if s < dim_a {
                        0.5 * (recon[o - d1] + recon[o + d1])
                    } else {
                        recon[o - d1]
                    };
                    coder.code(&quant, pred, o, recon)?;
                    o += inner_step;
                    let mut k = 1usize;
                    // Cubic needs t ≥ 3h (k ≥ 1) and t + 3h < dim_a
                    // (k·s ≤ dim_a − 4h − 1); without cubic stencils the
                    // interior degrades to linear and merges with the
                    // linear tail below.
                    let kc_hi = if cubic && dim_a > 4 * h {
                        ((dim_a - 4 * h - 1) / s).min(inner_n - 1)
                    } else {
                        0
                    };
                    while k <= kc_hi {
                        let pred = (-recon[o - d3] + 9.0 * recon[o - d1] + 9.0 * recon[o + d1]
                            - recon[o + d3])
                            * 0.0625;
                        coder.code(&quant, pred, o, recon)?;
                        o += inner_step;
                        k += 1;
                    }
                    // Linear while t + h < dim_a (k·s ≤ dim_a − 2h − 1).
                    let kl_hi = if dim_a > 2 * h {
                        ((dim_a - 2 * h - 1) / s).min(inner_n - 1)
                    } else {
                        0
                    };
                    while k <= kl_hi {
                        let pred = 0.5 * (recon[o - d1] + recon[o + d1]);
                        coder.code(&quant, pred, o, recon)?;
                        o += inner_step;
                        k += 1;
                    }
                    while k < inner_n {
                        let pred = recon[o - d1];
                        coder.code(&quant, pred, o, recon)?;
                        o += inner_step;
                        k += 1;
                    }
                } else {
                    // The target-axis coordinate is fixed for the whole
                    // run, so the stencil kind is too.
                    let t = h + idx[axis] * s;
                    let mut o = off0;
                    if cubic && t >= 3 * h && t + 3 * h < dim_a {
                        for _ in 0..inner_n {
                            let pred = (-recon[o - d3] + 9.0 * recon[o - d1]
                                + 9.0 * recon[o + d1]
                                - recon[o + d3])
                                * 0.0625;
                            coder.code(&quant, pred, o, recon)?;
                            o += inner_step;
                        }
                    } else if t + h < dim_a {
                        for _ in 0..inner_n {
                            let pred = 0.5 * (recon[o - d1] + recon[o + d1]);
                            coder.code(&quant, pred, o, recon)?;
                            o += inner_step;
                        }
                    } else {
                        for _ in 0..inner_n {
                            let pred = recon[o - d1];
                            coder.code(&quant, pred, o, recon)?;
                            o += inner_step;
                        }
                    }
                }
                // Outer odometer over dims 0..rank−1 — the innermost
                // digit already ran its full count inside the run.
                for d in (0..rank - 1).rev() {
                    idx[d] += 1;
                    if idx[d] < counts[d] {
                        off0 += steps[d];
                        break;
                    }
                    idx[d] = 0;
                    off0 -= steps[d] * (counts[d] - 1);
                }
            }
        }
    }
    Ok(())
}

/// Frozen pre-optimization mirror of [`interp_encode_with`] — fresh
/// allocations, no arena, and the pre-optimization
/// [`walk_reference`] schedule that recomputes each target offset as a
/// coordinate dot product. The baseline arm of the decode-bandwidth
/// gate; kept verbatim so "reference" keeps meaning the shipped PR-7
/// decoder.
pub(crate) fn interp_decode_reference<T: Element>(
    shape: Shape,
    codes: &[u32],
    outlier_bytes: &[u8],
    anchor_abs: f64,
    level_abs: impl Fn(u32) -> f64,
    cubic: bool,
) -> Result<NdArray<T>> {
    let n = shape.len();
    if codes.len() != n {
        return Err(CodecError::Corrupt { context: "sz3 code count" });
    }
    let mut outliers = OutlierReader::new(outlier_bytes);
    let mut recon = vec![0.0f64; n];
    let mut out = vec![T::default(); n];
    let mut code_i = 0usize;

    let pull = |pred: f64,
                    q: &LinearQuantizer,
                    off: usize,
                    code_i: &mut usize,
                    recon: &mut [f64],
                    out: &mut [T],
                    outliers: &mut OutlierReader<'_>|
     -> Result<()> {
        let code = codes[*code_i];
        *code_i += 1;
        let t = if code == 0 {
            outliers.take::<T>()?
        } else {
            T::from_f64(q.reconstruct(code, pred))
        };
        recon[off] = t.to_f64();
        out[off] = t;
        Ok(())
    };

    let anchor_quant = LinearQuantizer::new(anchor_abs.max(f64::MIN_POSITIVE), RADIUS);
    let mut prev = 0.0f64;
    for off in anchor_offsets(shape) {
        pull(
            prev,
            &anchor_quant,
            off,
            &mut code_i,
            &mut recon,
            &mut out,
            &mut outliers,
        )?;
        prev = recon[off];
    }

    let mut cur_level = u32::MAX;
    let mut quant = anchor_quant;
    let mut failure: Option<CodecError> = None;
    walk_reference(shape, |task| {
        if failure.is_some() {
            return;
        }
        if task.level != cur_level {
            cur_level = task.level;
            quant = LinearQuantizer::new(level_abs(cur_level).max(f64::MIN_POSITIVE), RADIUS);
        }
        let pred = effective_stencil(task.pred, cubic).eval(&recon);
        if let Err(e) = pull(
            pred,
            &quant,
            task.target,
            &mut code_i,
            &mut recon,
            &mut out,
            &mut outliers,
        ) {
            failure = Some(e);
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(NdArray::from_vec(shape, out))
}

impl Sz3 {
    /// Array-stage encode: multi-level interpolation prediction at an
    /// already resolved absolute bound, emitting the inner SZ payload.
    /// Planes, code buffer and Huffman tables come from the thread's
    /// [`CodecScratch`].
    pub fn encode_impl<T: Element>(
        &self,
        data: ArrayView<'_, T>,
        abs: f64,
    ) -> Result<(Vec<u8>, f64)> {
        with_scratch(|s| {
            let CodecScratch { codes, recon, outliers, huff_enc, .. } = s;
            interp_encode_with(data, abs, |_| abs, self.cubic, recon, codes, outliers);
            let payload = encode_inner(&[u8::from(self.cubic)], outliers, codes, huff_enc);
            Ok((payload, abs))
        })
    }

    /// Array-stage decode: mirror of [`Self::encode_impl`]. The default
    /// path borrows the thread's [`CodecScratch`] (codes, Huffman
    /// tables, reconstruction plane) and allocates only the output
    /// array; [`Sz3::reference_decoder`] takes the frozen slow path.
    pub fn decode_impl<T: Element>(
        &self,
        bytes: &[u8],
        shape: Shape,
        abs: f64,
    ) -> Result<NdArray<T>> {
        if self.reference {
            let p = SzPayload::decode_inner_reference(bytes)?;
            if p.extra.len() != 1 || p.extra[0] > 1 {
                return Err(CodecError::Corrupt { context: "sz3 parameters" });
            }
            let cubic = p.extra[0] == 1;
            return interp_decode_reference(shape, &p.codes, &p.outliers, abs, |_| abs, cubic);
        }
        with_scratch(|s| {
            let CodecScratch { codes, recon, huff, .. } = s;
            let (extra, outliers) = SzPayload::decode_inner_into(bytes, codes, huff)?;
            if extra.len() != 1 || extra[0] > 1 {
                return Err(CodecError::Corrupt { context: "sz3 parameters" });
            }
            let cubic = extra[0] == 1;
            interp_decode_with(shape, codes, outliers, abs, |_| abs, cubic, recon)
        })
    }
}

impl_stage_codec!(Sz3, CompressorId::Sz3);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecs::chain_around;
    use crate::traits::{compress, decompress, ErrorBound};
    use eblcio_data::{max_rel_error, psnr};

    fn smooth_3d(n: usize) -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(n, n, n), |i| {
            let x = i[0] as f32 / n as f32;
            let y = i[1] as f32 / n as f32;
            let z = i[2] as f32 / n as f32;
            ((x * 5.0).sin() + (y * 3.0).cos() + (z * 7.0).sin()) * 40.0
        })
    }

    #[test]
    fn roundtrip_respects_bound() {
        let data = smooth_3d(24);
        let c = chain_around(Sz3::default());
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let stream = compress(&c, &data, ErrorBound::Relative(eps)).unwrap();
            let back = decompress::<f32>(&c, &stream).unwrap();
            let err = max_rel_error(&data, &back);
            assert!(err <= eps * 1.0000001, "eps {eps}: err {err}");
        }
    }

    #[test]
    fn roundtrip_awkward_shapes() {
        let c = chain_around(Sz3::default());
        for shape in [
            Shape::d1(1),
            Shape::d1(3),
            Shape::d1(1023),
            Shape::d2(1, 50),
            Shape::d2(33, 17),
            Shape::d3(5, 6, 7),
            Shape::d4(3, 4, 5, 6),
        ] {
            let data = NdArray::<f64>::from_fn(shape, |i| {
                (i.iter().sum::<usize>() as f64 * 0.37).sin() * 10.0
            });
            let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
            let back = decompress::<f64>(&c, &stream).unwrap();
            assert!(
                max_rel_error(&data, &back) <= 1e-3 * 1.0000001,
                "shape {shape}"
            );
        }
    }

    #[test]
    fn beats_sz2_on_smooth_data_at_loose_bounds() {
        // The paper's Table III behaviour: interpolation wins at loose ε.
        let data = smooth_3d(32);
        let rel = ErrorBound::Relative(1e-2);
        let sz3 = compress(&chain_around(Sz3::default()), &data, rel).unwrap();
        let sz2 = compress(&chain_around(crate::codecs::sz2::Sz2::default()), &data, rel).unwrap();
        assert!(
            sz3.len() < sz2.len(),
            "SZ3 {} bytes vs SZ2 {} bytes",
            sz3.len(),
            sz2.len()
        );
    }

    #[test]
    fn psnr_scales_with_bound() {
        let data = smooth_3d(20);
        let c = chain_around(Sz3::default());
        let mut last_psnr = 0.0;
        for eps in [1e-1, 1e-2, 1e-3] {
            let stream = compress(&c, &data, ErrorBound::Relative(eps)).unwrap();
            let p = psnr(&data, &decompress::<f32>(&c, &stream).unwrap());
            assert!(p > last_psnr, "eps {eps}: {p} vs {last_psnr}");
            last_psnr = p;
        }
    }

    #[test]
    fn rough_data_still_bounded() {
        // Pseudo-random data defeats interpolation; the bound must hold
        // anyway (via wide codes/outliers).
        let mut x = 0x2545F491u64;
        let data = NdArray::<f32>::from_fn(Shape::d2(40, 40), |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f32
        });
        let c = chain_around(Sz3::default());
        let stream = compress(&c, &data, ErrorBound::Relative(1e-4)).unwrap();
        let back = decompress::<f32>(&c, &stream).unwrap();
        assert!(max_rel_error(&data, &back) <= 1e-4 * 1.0000001);
    }

    #[test]
    fn single_sample() {
        let data = NdArray::<f32>::from_vec(Shape::d1(1), vec![42.0]);
        let c = chain_around(Sz3::default());
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        let back = decompress::<f32>(&c, &stream).unwrap();
        assert_eq!(back.as_slice(), &[42.0]);
    }

    #[test]
    fn cubic_beats_linear_on_smooth_data() {
        // The ablation EXPERIMENTS.md ("Substitutions") calls out: cubic
        // stencils buy CR on smooth fields, and the linear variant still
        // honours the bound.
        let data = smooth_3d(24);
        let cubic = compress(&chain_around(Sz3::default()), &data, ErrorBound::Relative(1e-3))
            .unwrap();
        let linear_codec = chain_around(Sz3::linear_only());
        let linear = compress(&linear_codec, &data, ErrorBound::Relative(1e-3)).unwrap();
        assert!(
            cubic.len() < linear.len(),
            "cubic {} vs linear {}",
            cubic.len(),
            linear.len()
        );
        let back = decompress::<f32>(&linear_codec, &linear).unwrap();
        assert!(max_rel_error(&data, &back) <= 1e-3 * 1.0000001);
        // Streams are self-describing: the default decoder handles both.
        let back2 = decompress::<f32>(&chain_around(Sz3::default()), &linear).unwrap();
        assert_eq!(back.as_slice(), back2.as_slice());
    }

    #[test]
    fn corrupted_payload_detected() {
        let data = smooth_3d(8);
        let c = chain_around(Sz3::default());
        let mut stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        let n = stream.len();
        stream[n - 1] ^= 0xff;
        assert!(decompress::<f32>(&c, &stream).is_err());
    }
}
