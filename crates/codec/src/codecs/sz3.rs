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

use super::common::{encode_inner, quantize_sample, CodeSink, OutBox, OutlierReader, SzPayload};
use super::impl_stage_codec;
use crate::error::{CodecError, Result};
use crate::interp::max_level;
use crate::quantizer::LinearQuantizer;
use crate::scratch::{with_scratch, CodecScratch};
use crate::traits::CompressorId;
use eblcio_data::{ArrayView, Element, NdArray, Shape};

/// Quantization code radius (same default as SZ2).
pub(crate) const RADIUS: u32 = 32768;

/// The SZ3 compressor: cubic spline stencils where four neighbours
/// exist (SZ3's "dynamic spline"), linear at the boundaries.
#[derive(Clone, Debug, Default)]
pub struct Sz3;

/// One lattice the pass visits — the anchors, or the targets of one
/// level/axis step: along axis `d` its samples sit at
/// `base[d] + i·step[d]`, `i < count[d]` (rank-length; later slots
/// unused).
#[derive(Clone, Copy)]
struct Lattice {
    base: [usize; 4],
    step: [usize; 4],
    count: [usize; 4],
}

/// What the fused interpolation pass does with one sample once its
/// prediction is known: the encoder quantizes the raw value, the
/// decoder reconstructs from the next code. Either way `recon[off]`
/// ends up holding the value the decoder sees.
trait SampleCoder {
    /// Announces the lattice the runs until the next call belong to.
    #[inline(always)]
    fn begin_lattice(&mut self, lattice: &Lattice) {
        let _ = lattice;
    }

    /// Announces a run of the current lattice along the last axis (an
    /// anchor row or one lattice run) at outer lattice indices `idx`
    /// (axes `0..rank − 1`): its sample `k` has code index `code + k`,
    /// and the pass codes it from `k_first` on. Codes before that are
    /// ones the pass steps over.
    #[inline(always)]
    fn begin_run(&mut self, code: usize, k_first: usize, idx: &[usize; 4]) -> Result<()> {
        let _ = (code, k_first, idx);
        Ok(())
    }

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
    sink: CodeSink<'a>,
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
        recon[off] = quantize_sample::<T>(quant, v, pred, &mut self.sink);
        Ok(())
    }
}

/// Where the runs of one [`Lattice`] land in the box-shaped output,
/// worked out once per lattice: a run then costs a compare and a
/// multiply-add per outer axis, and no division.
#[derive(Clone, Copy, Default)]
struct BoxRuns {
    /// Per outer axis (`0..rank − 1`), `(lo, len, row_step)`: the
    /// lattice indices `lo .. lo + len` are inside the box, and one index
    /// moves the output by `row_step`.
    outer: [(usize, usize, usize); 3],
    /// Along the last axis: the samples `k_lo .. k_lo + k_len` of every
    /// run are inside.
    k_lo: usize,
    k_len: usize,
    /// Output index of sample `k_lo` of the run at each outer axis's
    /// `lo` (wrapped arithmetic; meaningful only where a run is inside).
    at: usize,
    /// Output step between consecutive samples of a run.
    step: usize,
}

impl BoxRuns {
    fn new(boxed: &OutBox, rank: usize, l: &Lattice) -> Self {
        let (origin, extent, strides) = (boxed.origin(rank), boxed.extent(rank), boxed.strides(rank));
        let span = |d: usize| {
            lattice_span(l.base[d], l.step[d], l.count[d], origin[d], origin[d] + extent[d])
        };
        let last = rank - 1;
        let (k_lo, k_hi) = span(last);
        let mut r = Self { k_lo, k_len: k_hi - k_lo, step: l.step[last], ..Self::default() };
        r.at = (l.base[last] + k_lo * l.step[last]).wrapping_sub(origin[last]);
        for d in 0..last {
            let (lo, hi) = span(d);
            r.outer[d] = (lo, hi - lo, l.step[d] * strides[d]);
            let rel = (l.base[d] + lo * l.step[d]).wrapping_sub(origin[d]);
            r.at = r.at.wrapping_add(rel.wrapping_mul(strides[d]));
        }
        r
    }

    /// The run at outer lattice indices `idx`: `(k_lo, samples inside,
    /// output index of sample k_lo)`, none inside when it misses the box.
    #[inline(always)]
    fn run(&self, last: usize, idx: &[usize; 4]) -> (usize, usize, usize) {
        let (mut inside, mut at) = (true, self.at);
        for (&i, &(lo, len, row_step)) in idx[..last].iter().zip(&self.outer) {
            let rel = i.wrapping_sub(lo);
            inside &= rel < len;
            at = at.wrapping_add(rel.wrapping_mul(row_step));
        }
        (self.k_lo, if inside { self.k_len } else { 0 }, at)
    }
}

/// Decode side of [`interp_pass`]: codes and outlier bytes in, the
/// samples of the box `origin .. origin + extent` out. Samples outside
/// the box that the pass still reconstructs — stencil sources — stay in
/// `recon`; the codes of samples it never reaches are stepped over, with
/// their outliers, at the next run. `WHOLE` is a whole decode, where the
/// box is the array and a sample's output index is its own offset: no
/// per-run span and no per-sample box test, which takes ≈ 20 % off a
/// whole-chunk decode (see EXPERIMENTS.md, "Cold reads, part 2").
struct DecodeSamples<'a, T, const WHOLE: bool> {
    codes: &'a [u32],
    code_i: usize,
    outliers: OutlierReader<'a>,
    rank: usize,
    boxed: OutBox,
    out: &'a mut [T],
    /// The current lattice's runs in the box.
    runs: BoxRuns,
    /// The current run's codes `emit_from .. emit_from + emit_len` land
    /// at `out[emit_at + j·runs.step]`, `j` counted from `emit_from`.
    emit_from: usize,
    emit_len: usize,
    emit_at: usize,
}

impl<'a, T: Element, const WHOLE: bool> DecodeSamples<'a, T, WHOLE> {
    fn new(
        codes: &'a [u32],
        outliers: &'a [u8],
        rank: usize,
        boxed: OutBox,
        out: &'a mut [T],
    ) -> Self {
        Self {
            codes,
            code_i: 0,
            outliers: OutlierReader::new(outliers),
            rank,
            boxed,
            out,
            runs: BoxRuns::default(),
            emit_from: 0,
            emit_len: 0,
            emit_at: 0,
        }
    }
}

impl<T: Element, const WHOLE: bool> SampleCoder for DecodeSamples<'_, T, WHOLE> {
    #[inline(always)]
    fn begin_lattice(&mut self, lattice: &Lattice) {
        if !WHOLE {
            self.runs = BoxRuns::new(&self.boxed, self.rank, lattice);
        }
    }

    #[inline(always)]
    fn begin_run(&mut self, code: usize, k_first: usize, idx: &[usize; 4]) -> Result<()> {
        if WHOLE {
            return Ok(());
        }
        let first = code + k_first;
        if first > self.code_i {
            self.outliers.skip_codes::<T>(&self.codes[self.code_i..first])?;
            self.code_i = first;
        }
        let (lo, len, at) = self.runs.run(self.rank - 1, idx);
        self.emit_from = code + lo;
        self.emit_len = len;
        self.emit_at = at;
        Ok(())
    }

    #[inline(always)]
    fn code(
        &mut self,
        quant: &LinearQuantizer,
        pred: f64,
        off: usize,
        recon: &mut [f64],
    ) -> Result<()> {
        let i = self.code_i;
        self.code_i += 1;
        let code = self.codes[i];
        let t = if code == 0 {
            self.outliers.take::<T>()?
        } else {
            T::from_f64(quant.reconstruct(code, pred))
        };
        recon[off] = t.to_f64();
        if WHOLE {
            self.out[off] = t;
            return Ok(());
        }
        let j = i.wrapping_sub(self.emit_from);
        if j < self.emit_len {
            self.out[self.emit_at + j * self.runs.step] = t;
        }
        Ok(())
    }
}

/// Encodes samples with the fused interpolation pass into the thread's
/// arena (codes and outlier bytes). `level_abs` maps an interpolation
/// level to its absolute bound (constant for SZ3, tightened per level
/// by QoZ); anchors use `anchor_abs`.
pub(crate) fn interp_encode_with<T: Element>(
    data: ArrayView<'_, T>,
    anchor_abs: f64,
    level_abs: impl Fn(u32) -> f64,
    cubic: bool,
    scratch: &mut CodecScratch,
) {
    let CodecScratch { codes, recon, outliers, .. } = scratch;
    let shape = data.shape();
    let n = shape.len();
    // No zeroing, as in the decode: every sample a stencil reads was
    // written earlier in the same pass.
    recon.resize(n, 0.0);
    let sink = CodeSink::new(n, codes, outliers);
    let mut coder = EncodeSamples { samples: data.as_slice(), sink };
    let whole = OutBox::whole(shape);
    // The encode side of the pass cannot fail.
    let _ = interp_pass(shape, &whole, anchor_abs, level_abs, cubic, recon, &mut coder);
    debug_assert_eq!(coder.sink.coded(), n, "the pass codes every sample once");
}

/// Decodes `boxed` (the whole array, or a region of it) with a
/// caller-owned reconstruction buffer, so the arena-backed decode path
/// reuses the f64 plane across chunks. Returns a box-shaped array,
/// bit-identical to the same slice of the frozen reference decoder's
/// output (see [`interp_pass`]; the `codecs::decode_fastpath` unit
/// tests pin it on drawn inputs, `decode_golden.rs` on the recorded
/// ones).
#[allow(clippy::too_many_arguments)]
pub(crate) fn interp_decode_with<T: Element>(
    shape: Shape,
    boxed: &OutBox,
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
    // No zeroing: every sample a stencil reads was written earlier in
    // the same pass (coarser levels come first, and `widened` keeps the
    // sources of every step a box needs), so what an earlier decode
    // left in the plane is never read.
    recon_buf.resize(n, 0.0);
    let rank = shape.rank();
    let mut out = vec![T::default(); boxed.len()];
    let anchor_abs = anchor_abs.max(f64::MIN_POSITIVE);
    if boxed.len() == n {
        let mut coder = DecodeSamples::<T, true>::new(codes, outlier_bytes, rank, *boxed, &mut out);
        interp_pass(shape, boxed, anchor_abs, level_abs, cubic, recon_buf, &mut coder)?;
    } else {
        let mut coder = DecodeSamples::<T, false>::new(codes, outlier_bytes, rank, *boxed, &mut out);
        interp_pass(shape, boxed, anchor_abs, level_abs, cubic, recon_buf, &mut coder)?;
    }
    Ok(NdArray::from_vec(boxed.shape(rank), out))
}

/// The samples `[lo, hi)` along axis `d` of `shape` that the step at
/// `level` along `axis` reconstructs for `boxed`: the box widened by the
/// stencil reach of every step after it, which is everything those
/// steps read. The finer levels reach `3·(1 + 2 + … + h/2) = 3·(h − 1)`
/// along every axis; this level's later axes add `3·h` along theirs. A
/// whole box stays whole.
fn widened(boxed: &OutBox, shape: Shape, d: usize, level: u32, axis: usize) -> (usize, usize) {
    let rank = shape.rank();
    let lo = boxed.origin(rank)[d];
    let hi = lo + boxed.extent(rank)[d];
    let h = 1usize << (level - 1);
    let w = 3 * (h - 1) + if d > axis { 3 * h } else { 0 };
    (lo.saturating_sub(w), hi.saturating_add(w).min(shape.dim(d)))
}

/// The lattice indices `i < count` with `base + i·stride` in `[lo, hi)`.
#[inline]
fn lattice_span(base: usize, stride: usize, count: usize, lo: usize, hi: usize) -> (usize, usize) {
    let first = |c: usize| if c <= base { 0 } else { (c - base).div_ceil(stride) };
    (first(lo).min(count), first(hi).min(count))
}

/// The interpolation pyramid both directions run: the anchor lattice as
/// a Lorenzo chain in raster order, then every level/axis lattice, each
/// sample handed to `coder` with its prediction.
///
/// The walk is *fused* into the loop: the task sequence is exactly
/// [`walk`](crate::interp::walk)'s (pinned against the frozen
/// pre-optimization walk by the `interp` unit tests), but the stencil
/// kind is resolved once per run instead of once per sample, so each
/// inner loop is a fixed-stencil pass over one flat stride — no `Task`
/// construction, no enum dispatch, no callback. Each sample performs
/// `Interp::eval`'s arithmetic in the same order (`* 0.0625` is an exact power-of-two
/// scale, the same correctly-rounded result as `/ 16.0`), and samples
/// are visited in the same sequence.
///
/// Every anchor is coded (they form one chain); a level/axis step codes
/// only its targets inside [`widened`] `boxed`, visiting them in the
/// same order and announcing each run to `coder` with the code index its
/// samples have in the full sequence, so a decoder steps over the rest.
/// With [`OutBox::whole`] nothing is cut.
fn interp_pass<C: SampleCoder>(
    shape: Shape,
    boxed: &OutBox,
    anchor_abs: f64,
    level_abs: impl Fn(u32) -> f64,
    cubic: bool,
    recon: &mut [f64],
    coder: &mut C,
) -> Result<()> {
    let rank = shape.rank();
    let last = rank - 1;
    let strides = shape.strides();
    let levels = max_level(shape);

    // Anchors: one run per last-axis row of the anchor lattice.
    let stride = 1usize << levels;
    let anchor_quant = LinearQuantizer::new(anchor_abs, RADIUS);
    let mut counts = [1usize; 4];
    for (d, count) in counts.iter_mut().enumerate().take(rank) {
        *count = shape.dim(d).div_ceil(stride);
    }
    coder.begin_lattice(&Lattice { base: [0; 4], step: [stride; 4], count: counts });
    let mut prev = 0.0f64;
    let mut code = 0usize;
    let mut idx = [0usize; 4];
    for _ in 0..counts[..last].iter().product::<usize>() {
        let mut off = 0usize;
        for d in 0..last {
            off += idx[d] * stride * strides[d];
        }
        coder.begin_run(code, 0, &idx)?;
        for _ in 0..counts[last] {
            coder.code(&anchor_quant, prev, off, recon)?;
            prev = recon[off];
            off += stride * strides[last];
        }
        code += counts[last];
        for d in (0..last).rev() {
            idx[d] += 1;
            if idx[d] < counts[d] {
                break;
            }
            idx[d] = 0;
        }
    }

    for level in (1..=levels).rev() {
        let s = 1usize << level;
        let h = s / 2;
        let quant = LinearQuantizer::new(level_abs(level).max(f64::MIN_POSITIVE), RADIUS);
        for axis in 0..rank {
            let dim_a = shape.dim(axis);
            if h >= dim_a {
                continue;
            }
            // Lattice counts and per-dim flat steps, exactly as in
            // `walk`; along each dim the lattice sits at `base + i·step`.
            let mut counts = [1usize; 4];
            let mut base = [0usize; 4];
            let mut step = [0usize; 4];
            for d in 0..rank {
                (base[d], step[d], counts[d]) = if d == axis {
                    (h, s, (dim_a - h).div_ceil(s))
                } else if d < axis {
                    (0, h, shape.dim(d).div_ceil(h))
                } else {
                    (0, s, shape.dim(d).div_ceil(s))
                };
            }
            let total: usize = counts[..rank].iter().product();
            // The index span of this step's targets along each dim.
            let mut first = [0usize; 4];
            let mut end = [1usize; 4];
            for d in 0..rank {
                let (lo, hi) = widened(boxed, shape, d, level, axis);
                (first[d], end[d]) = lattice_span(base[d], step[d], counts[d], lo, hi);
            }
            if (0..rank).any(|d| first[d] >= end[d]) {
                code += total;
                continue;
            }
            let mut offs = [0usize; 4];
            let mut code_steps = [0usize; 4];
            let mut run_codes = counts[last];
            for d in (0..rank).rev() {
                offs[d] = step[d] * strides[d];
                code_steps[d] = if d == last { 1 } else { run_codes };
                if d < last {
                    run_codes *= counts[d];
                }
            }
            coder.begin_lattice(&Lattice { base, step, count: counts });
            let axis_stride = strides[axis];
            let d1 = h * axis_stride;
            let d3 = 3 * h * axis_stride;
            let inner_step = offs[last];
            let (k_lo, k_hi) = (first[last], end[last]);
            // Along the last axis (axis == last), the run varies the
            // target-axis coordinate t = h + k·s: a linear-or-copy head
            // sample, a cubic interior, then a linear and a copy tail
            // (every predicate is monotone in k, so the segments are
            // contiguous, and their ends are the same for every run).
            // Cubic needs t ≥ 3h (k ≥ 1) and t + 3h < dim_a
            // (k·s ≤ dim_a − 4h − 1); without cubic stencils the
            // interior degrades to linear and merges with the linear
            // tail. Linear needs t + h < dim_a (k·s ≤ dim_a − 2h − 1).
            let cubic_end = if cubic && dim_a > 4 * h {
                ((dim_a - 4 * h - 1) / s + 1).min(k_hi)
            } else {
                0
            };
            let linear_end = if dim_a > 2 * h {
                ((dim_a - 2 * h - 1) / s + 1).min(k_hi)
            } else {
                0
            };
            let mut idx = first;
            let mut off0 = h * axis_stride;
            let mut code0 = code;
            for d in 0..last {
                off0 += first[d] * offs[d];
                code0 += first[d] * code_steps[d];
            }
            let outer_total: usize = (0..last).map(|d| end[d] - first[d]).product();
            for _ in 0..outer_total {
                coder.begin_run(code0, k_lo, &idx)?;
                let mut k = k_lo;
                let mut o = off0 + k * inner_step;
                if axis == last {
                    if k == 0 && k < k_hi {
                        let pred = if s < dim_a {
                            0.5 * (recon[o - d1] + recon[o + d1])
                        } else {
                            recon[o - d1]
                        };
                        coder.code(&quant, pred, o, recon)?;
                        o += inner_step;
                        k += 1;
                    }
                    while k < cubic_end {
                        let pred = (-recon[o - d3] + 9.0 * recon[o - d1] + 9.0 * recon[o + d1]
                            - recon[o + d3])
                            * 0.0625;
                        coder.code(&quant, pred, o, recon)?;
                        o += inner_step;
                        k += 1;
                    }
                    while k < linear_end {
                        let pred = 0.5 * (recon[o - d1] + recon[o + d1]);
                        coder.code(&quant, pred, o, recon)?;
                        o += inner_step;
                        k += 1;
                    }
                    while k < k_hi {
                        let pred = recon[o - d1];
                        coder.code(&quant, pred, o, recon)?;
                        o += inner_step;
                        k += 1;
                    }
                } else {
                    // The target-axis coordinate is fixed for the whole
                    // run, so the stencil kind is too.
                    let t = base[axis] + idx[axis] * step[axis];
                    if cubic && t >= 3 * h && t + 3 * h < dim_a {
                        for _ in k_lo..k_hi {
                            let pred = (-recon[o - d3] + 9.0 * recon[o - d1]
                                + 9.0 * recon[o + d1]
                                - recon[o + d3])
                                * 0.0625;
                            coder.code(&quant, pred, o, recon)?;
                            o += inner_step;
                        }
                    } else if t + h < dim_a {
                        for _ in k_lo..k_hi {
                            let pred = 0.5 * (recon[o - d1] + recon[o + d1]);
                            coder.code(&quant, pred, o, recon)?;
                            o += inner_step;
                        }
                    } else {
                        for _ in k_lo..k_hi {
                            let pred = recon[o - d1];
                            coder.code(&quant, pred, o, recon)?;
                            o += inner_step;
                        }
                    }
                }
                // Outer odometer over the spans of dims 0..rank−1 — the
                // innermost digit already ran its span inside the run.
                for d in (0..last).rev() {
                    idx[d] += 1;
                    if idx[d] < end[d] {
                        off0 += offs[d];
                        code0 += code_steps[d];
                        break;
                    }
                    let back = idx[d] - 1 - first[d];
                    idx[d] = first[d];
                    off0 -= offs[d] * back;
                    code0 -= code_steps[d] * back;
                }
            }
            code += total;
        }
    }
    Ok(())
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
            interp_encode_with(data, abs, |_| abs, true, s);
            let CodecScratch { codes, outliers, huff_enc, .. } = s;
            Ok((encode_inner(&[1], outliers, codes, huff_enc), abs))
        })
    }

    /// Array-stage decode of the box `origin .. origin + extent`, mirror
    /// of [`Self::encode_impl`]. It borrows the thread's [`CodecScratch`]
    /// (codes, Huffman tables, reconstruction plane) and allocates only
    /// the output array. Every code is Huffman-decoded, but each level
    /// reconstructs only the box widened by the stencil reach of the
    /// finer levels (`3·h` per level), so the finest levels — most of
    /// the samples — stay near the box and the small coarse ones run
    /// whole. Each level/axis step works out once where its runs land
    /// in the box, so a run costs a compare per outer axis. The plane is
    /// not zeroed first: every sample a stencil reads was reconstructed
    /// earlier in the same pass.
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
            let cubic = Self::parse_extra(extra)?;
            interp_decode_with(shape, &boxed, codes, outliers, abs, |_| abs, cubic, recon)
        })
    }

    /// Validates and unpacks the one-byte `cubic` side info: 1 for the
    /// streams [`Self::encode_impl`] writes, 0 for linear-only streams,
    /// which an earlier encoder wrote and the decoder still reads.
    pub(super) fn parse_extra(extra: &[u8]) -> Result<bool> {
        match extra {
            [flag @ (0 | 1)] => Ok(*flag == 1),
            _ => Err(CodecError::Corrupt { context: "sz3 parameters" }),
        }
    }
}

impl_stage_codec!(Sz3, CompressorId::Sz3);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecs::preset;
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
        let c = preset(CompressorId::Sz3);
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let stream = compress(&c, &data, ErrorBound::Relative(eps)).unwrap();
            let back = decompress::<f32>(&c, &stream).unwrap();
            let err = max_rel_error(&data, &back);
            assert!(err <= eps * 1.0000001, "eps {eps}: err {err}");
        }
    }

    #[test]
    fn roundtrip_awkward_shapes() {
        let c = preset(CompressorId::Sz3);
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
        let sz3 = compress(&preset(CompressorId::Sz3), &data, rel).unwrap();
        let sz2 = compress(&preset(CompressorId::Sz2), &data, rel).unwrap();
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
        let c = preset(CompressorId::Sz3);
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
        let c = preset(CompressorId::Sz3);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-4)).unwrap();
        let back = decompress::<f32>(&c, &stream).unwrap();
        assert!(max_rel_error(&data, &back) <= 1e-4 * 1.0000001);
    }

    #[test]
    fn single_sample() {
        let data = NdArray::<f32>::from_vec(Shape::d1(1), vec![42.0]);
        let c = preset(CompressorId::Sz3);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        let back = decompress::<f32>(&c, &stream).unwrap();
        assert_eq!(back.as_slice(), &[42.0]);
    }

    #[test]
    fn cubic_beats_linear_on_smooth_data() {
        // The ablation EXPERIMENTS.md ("Substitutions") calls out: cubic
        // stencils buy CR on smooth fields, and the linear schedule still
        // honours the bound. No chain writes linear streams any more, so
        // the payloads come from the fused pass itself; the decoder
        // reads the flag byte either way.
        let data = smooth_3d(24);
        let abs = 1e-3 * data.value_range();
        let payload = |cubic: bool| {
            let inner = with_scratch(|s| {
                interp_encode_with(data.view(), abs, |_| abs, cubic, s);
                encode_inner(&[u8::from(cubic)], &s.outliers, &s.codes, &mut s.huff_enc)
            });
            crate::lz::compress(&inner)
        };
        let (cubic, linear) = (payload(true), payload(false));
        assert!(
            cubic.len() < linear.len(),
            "cubic {} vs linear {}",
            cubic.len(),
            linear.len()
        );
        let inner = crate::lz::decompress(&linear).unwrap();
        let back = crate::stage::decode_array::<f32>(&Sz3, &inner, data.shape(), abs).unwrap();
        assert!(max_rel_error(&data, &back) <= 1e-3 * 1.0000001);
    }

    #[test]
    fn corrupted_payload_detected() {
        let data = smooth_3d(8);
        let c = preset(CompressorId::Sz3);
        let mut stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        let n = stream.len();
        stream[n - 1] ^= 0xff;
        assert!(decompress::<f32>(&c, &stream).is_err());
    }
}
