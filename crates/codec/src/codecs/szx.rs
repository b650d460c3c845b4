//! SZx: ultra-fast error-bounded compression (Yu et al., HPDC'22).
//!
//! SZx trades compression ratio for speed: the field is cut into small
//! flat blocks, constant blocks (range ≤ 2ε) collapse to their midpoint,
//! and the rest are stored as fixed-point offsets from the block minimum
//! using just enough bits to honour the bound — no prediction, no entropy
//! coding. This is why SZx is the energy-efficiency winner across the
//! paper's Figures 7/10/11 while posting the lowest ratios in Table III.

use super::impl_stage_codec;
use crate::bitstream::BitReader;
#[cfg(any(doc, test))]
use crate::bitstream::BitWriter;
use crate::error::{CodecError, Result};
use crate::quantizer::{dequant_affine_into, quant_affine_into, round_half_away};
use crate::scratch::with_scratch;
use crate::traits::CompressorId;
use crate::util::{put_varint, ByteReader};
use eblcio_data::{ArrayView, Element, NdArray, Shape};

/// Samples per block (SZx default).
const BLOCK: usize = 128;

/// Block encodings.
const MODE_CONSTANT: u8 = 0;
const MODE_PACKED: u8 = 1;
const MODE_RAW: u8 = 2;

/// The SZx compressor.
#[derive(Clone, Debug, Default)]
pub struct Szx;

impl Szx {
    /// Array-stage encode: the block constant/fixed-point scheme at an
    /// already resolved absolute bound (raw coded bytes, no backend).
    ///
    /// Each block costs one pass for its extremes and, when it packs, one
    /// for its codes, which go straight into the output:
    ///
    /// * the extremes come from a lane-parallel fold, rescanned in order
    ///   when one of them is ±0 or the fold's running sum is not finite
    ///   (`extremes`); a NaN or ±inf sample the rescan meets is a
    ///   [`CodecError::NonFiniteInput`];
    /// * the constant test is decided by the two extremes;
    /// * the code range is decided by the two extremes too, and the codes
    ///   and the reconstruction test by [`quant_affine_into`] with no
    ///   libm call (`code_block`); so is the code width (`code_width`).
    ///
    /// On finite input every decision and every byte is that of the
    /// per-sample, `round`-based encoder this replaced; the test module
    /// keeps it as the oracle.
    pub fn encode_impl<T: Element>(
        &self,
        data: ArrayView<'_, T>,
        abs: f64,
    ) -> Result<(Vec<u8>, f64)> {
        let step = 2.0 * abs;

        let samples = data.as_slice();
        let mut out = Vec::with_capacity(samples.len() / 2 + 64);
        put_varint(&mut out, samples.len().div_ceil(BLOCK) as u64);
        let mut codes = [0u32; BLOCK];

        for block in samples.chunks(BLOCK) {
            let (mn, mx) = extremes(block)?;
            let range = mx - mn;

            if range <= step {
                // Constant block: the midpoint, rounded into T, must be
                // within ε of every sample.
                let mid = T::from_f64(mn + range * 0.5);
                let m = mid.to_f64();
                if (m - mn).abs() <= abs && (m - mx).abs() <= abs {
                    out.push(MODE_CONSTANT);
                    mid.write_le(&mut out);
                    continue;
                }
            }

            // Fixed-point offsets from the block minimum.
            if let Some(bits) = code_width(range / step) {
                let base = T::from_f64(mn);
                let codes = &mut codes[..block.len()];
                if code_block(block, base.to_f64(), (mn, mx), step, abs, bits, codes) {
                    out.push(MODE_PACKED);
                    base.write_le(&mut out);
                    out.push(bits as u8);
                    pack_codes(codes, bits, &mut out);
                    continue;
                }
            }

            // Pathological block (range/ε overflow): store verbatim.
            out.push(MODE_RAW);
            let start = out.len();
            out.resize(start + block.len() * T::BYTES, 0);
            T::write_le_slice(block, &mut out[start..]);
        }

        Ok((out, abs))
    }

    /// Array-stage decode of the box `origin .. origin + extent`, mirror
    /// of [`Self::encode_impl`]. SZx blocks are flat 128-sample spans of
    /// the row-major array, so a block that no row of the box touches
    /// is stepped over by header arithmetic, and the stream is read no
    /// further than the box's last row. Each block a row touches is
    /// decoded into one reused block buffer, and the rows' parts in it
    /// are appended to the output — rows come in flat order, so the
    /// output fills front to back and nothing outside the box is held.
    /// A whole decode appends every block to the output directly.
    pub fn decode_impl<T: Element>(
        &self,
        payload: &[u8],
        shape: Shape,
        abs: f64,
        origin: &[usize],
        extent: &[usize],
    ) -> Result<NdArray<T>> {
        let rank = shape.rank();
        let strides = shape.strides();
        let n = shape.len();
        let step = 2.0 * abs;
        let mut r = ByteReader::new(payload);
        let n_blocks = r.varint("szx block count")? as usize;
        // Every block is at least a mode byte and one sample, so a count
        // the payload cannot hold is corrupt — caught before the output
        // is sized from a header shape the payload CRC does not cover.
        if n_blocks != n.div_ceil(BLOCK) || n_blocks.saturating_mul(1 + T::BYTES) > r.remaining() {
            return Err(CodecError::Corrupt { context: "szx block count" });
        }
        let out_shape = Shape::new(extent);
        let total = out_shape.len();
        let mut out: Vec<T> = Vec::with_capacity(total);
        if total == n {
            with_scratch(|s| -> Result<()> {
                for b in 0..n_blocks {
                    decode_block(&mut r, BLOCK.min(n - b * BLOCK), step, &mut s.codes, &mut out)?;
                }
                Ok(())
            })?;
            return Ok(NdArray::from_vec(shape, out));
        }

        // The box's last-axis rows as flat ranges, in order.
        let last = rank - 1;
        let row_len = extent[last];
        let (mut idx, mut rows_left) = ([0usize; 4], total / row_len);
        let mut next_row = || {
            rows_left = rows_left.checked_sub(1)?;
            let lo: usize = (0..rank).map(|d| (origin[d] + idx[d]) * strides[d]).sum();
            for d in (0..last).rev() {
                idx[d] += 1;
                if idx[d] < extent[d] {
                    break;
                }
                idx[d] = 0;
            }
            Some((lo, lo + row_len))
        };
        with_scratch(|s| -> Result<()> {
            let mut block = Vec::with_capacity(BLOCK);
            let Some((mut lo, mut hi)) = next_row() else {
                return Ok(());
            };
            for b in 0..n_blocks {
                let start = b * BLOCK;
                let end = n.min(start + BLOCK);
                if lo >= end {
                    skip_block::<T>(&mut r, end - start)?;
                    continue;
                }
                block.clear();
                decode_block(&mut r, end - start, step, &mut s.codes, &mut block)?;
                // Every row part in this block: a row that runs on past
                // the block resumes at the next one's first sample.
                loop {
                    out.extend_from_slice(&block[lo - start..hi.min(end) - start]);
                    if hi > end {
                        lo = end;
                        break;
                    }
                    let Some(row) = next_row() else {
                        return Ok(());
                    };
                    (lo, hi) = row;
                    if lo >= end {
                        break;
                    }
                }
            }
            Ok(())
        })?;
        Ok(NdArray::from_vec(out_shape, out))
    }
}

/// Lanes of the extremes fold.
const LANES: usize = 4;

/// The block's least and greatest samples, as widened doubles, as the
/// in-order scan with strict `<` and `>` finds them — the first of
/// equal values, so a ±0 keeps its sign — or
/// [`CodecError::NonFiniteInput`] if a sample is NaN or ±inf.
///
/// [`LANES`] folds run side by side beside a running sum, which is
/// finite whenever every sample is. The lanes pick among equal values
/// out of order, which only a ±0 extreme can show; so a block with a ±0
/// extreme or a sum that is not finite (a NaN, a ±inf, or finite samples
/// whose sum overflows) is scanned again in order, and that scan is what
/// rejects a non-finite sample. With every sample finite, the
/// constant test (`|fl(m − v)|` is monotone in `v`) and the code range
/// test are decided by the two extremes alone.
fn extremes<T: Element>(block: &[T]) -> Result<(f64, f64)> {
    #[inline(always)]
    fn fold(lo: &mut f64, hi: &mut f64, sum: &mut f64, x: f64) {
        *lo = if x < *lo { x } else { *lo };
        *hi = if x > *hi { x } else { *hi };
        *sum += x;
    }
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut sum = [0.0; LANES];
    let mut runs = block.chunks_exact(LANES);
    for run in runs.by_ref() {
        for l in 0..LANES {
            fold(&mut lo[l], &mut hi[l], &mut sum[l], run[l].to_f64());
        }
    }
    for (l, v) in runs.remainder().iter().enumerate() {
        fold(&mut lo[l], &mut hi[l], &mut sum[l], v.to_f64());
    }
    let (mut mn, mut mx, mut total) = (lo[0], hi[0], sum[0]);
    for l in 1..LANES {
        if lo[l] < mn {
            mn = lo[l];
        }
        if hi[l] > mx {
            mx = hi[l];
        }
        total += sum[l];
    }
    if total.is_finite() && mn != 0.0 && mx != 0.0 {
        return Ok((mn, mx));
    }
    let mut mn = block[0].to_f64();
    let mut mx = mn;
    for v in block {
        let f = v.to_f64();
        if !f.is_finite() {
            return Err(CodecError::NonFiniteInput);
        }
        if f < mn {
            mn = f;
        }
        if f > mx {
            mx = f;
        }
    }
    Ok((mn, mx))
}

/// Bits per code for a block `steps` quantization steps wide — the
/// `⌈log2(⌈steps⌉ + 1)⌉` (at least 1) of the libm formula — or `None`
/// past 32, when the block is stored raw. Integer arithmetic gives
/// libm's answer at every width: `log2` is exact at powers of two, and no
/// other count of levels up to 2³² + 1 lies within its rounding of an
/// integer.
fn code_width(steps: f64) -> Option<u32> {
    if steps.is_nan() || steps <= 1.0 {
        return Some(1);
    }
    if steps > MAX_STEPS {
        return None;
    }
    let whole = steps as u64;
    let ceil = whole + u64::from((whole as f64) < steps);
    Some(u64::BITS - ceil.leading_zeros())
}

/// The widest block that packs, in quantization steps: `2³² − 1`, for
/// `2³²` levels.
const MAX_STEPS: f64 = u32::MAX as f64;

/// Codes the block against `base` (its minimum as a `T`) into `codes`,
/// `bits` wide; returns whether it packs: every code in `0..2^bits` and
/// every reconstruction, rounded into `T`, within `abs` of its sample.
///
/// The quotient `(v − base)/step` is monotone in `v`, so the extremes'
/// codes bound every code, and the range test is decided there;
/// [`quant_affine_into`] then takes the codes and the reconstruction
/// test in one flat pass. A step that makes an extreme's quotient NaN
/// takes the per-sample test as it was written (a NaN code passes its
/// range test and packs as 0).
fn code_block<T: Element>(
    block: &[T],
    base: f64,
    (mn, mx): (f64, f64),
    step: f64,
    abs: f64,
    bits: u32,
    codes: &mut [u32],
) -> bool {
    let limit = (1u64 << bits) as f64;
    let fits = |q: f64| q >= 0.0 && q < limit;
    let (lo, hi) = (round_half_away((mn - base) / step), round_half_away((mx - base) / step));
    if !lo.is_nan() && !hi.is_nan() {
        return fits(lo) && fits(hi) && quant_affine_into(block, base, step, abs, codes);
    }
    for (code, v) in codes.iter_mut().zip(block) {
        let v = v.to_f64();
        let q = round_half_away((v - base) / step);
        let r = T::from_f64(base + q * step).to_f64();
        if q < 0.0 || q >= limit || (r - v).abs() > abs {
            return false;
        }
        *code = q as u32;
    }
    true
}

/// Appends `codes`, `bits` (1..=32) wide, most significant bit first and
/// zero-padded to a byte — the bytes a [`BitWriter`] makes of them.
fn pack_codes(codes: &[u32], bits: u32, out: &mut Vec<u8>) {
    macro_rules! by_width {
        ($($b:literal)*) => {
            match bits {
                $($b => pack_width::<$b>(codes, out),)*
                _ => pack_width::<32>(codes, out),
            }
        };
    }
    by_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31)
}

/// [`pack_codes`] at a constant width `B`. Eight codes fill exactly `B`
/// bytes, so each group of eight is laid into at most four words at
/// offsets that fold to constants, and stored; a final group of fewer
/// goes through a bit accumulator.
fn pack_width<const B: u32>(codes: &[u32], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + (codes.len() * B as usize).div_ceil(8), 0);
    let dst = &mut out[start..];
    let mut groups = codes.chunks_exact(8);
    for (group, span) in groups.by_ref().zip(dst.chunks_exact_mut(B as usize)) {
        let mut words = [0u64; 4];
        for (i, &code) in group.iter().enumerate() {
            let (at, code) = (i as u32 * B, u64::from(code));
            let (w, shift) = ((at / 64) as usize, at % 64);
            if shift + B <= 64 {
                words[w] |= code << (64 - shift - B);
            } else {
                words[w] |= code >> (shift + B - 64);
                words[w + 1] |= code << (128 - shift - B);
            }
        }
        for (word, bytes) in words.iter().zip(span.chunks_mut(8)) {
            bytes.copy_from_slice(&word.to_be_bytes()[..bytes.len()]);
        }
    }
    let tail = &mut dst[codes.len() / 8 * B as usize..];
    let (mut acc, mut pending, mut at) = (0u64, 0u32, 0);
    for &code in groups.remainder() {
        acc = (acc << B) | u64::from(code);
        pending += B;
        while pending >= 8 {
            pending -= 8;
            tail[at] = (acc >> pending) as u8;
            at += 1;
        }
    }
    if pending > 0 {
        tail[at] = (acc << (8 - pending)) as u8;
    }
}

/// Decodes one block (mode byte onward) and appends its samples to
/// `out`.
fn decode_block<T: Element>(
    r: &mut ByteReader<'_>,
    block_len: usize,
    step: f64,
    codes: &mut Vec<u32>,
    out: &mut Vec<T>,
) -> Result<()> {
    match r.u8("szx block mode")? {
        MODE_CONSTANT => {
            let mid = T::read_le(r.take(T::BYTES, "szx constant")?)
                .ok_or(CodecError::TruncatedStream { context: "szx constant" })?;
            out.extend(std::iter::repeat_n(mid, block_len));
        }
        MODE_PACKED => {
            let base = T::read_le(r.take(T::BYTES, "szx base")?)
                .ok_or(CodecError::TruncatedStream { context: "szx base" })?;
            let bits = u32::from(r.u8("szx bit width")?);
            if bits == 0 || bits > 32 {
                return Err(CodecError::Corrupt { context: "szx bit width" });
            }
            let nbytes = (block_len * bits as usize).div_ceil(8);
            let packed = r.take(nbytes, "szx packed codes")?;
            // Two flat passes instead of one interleaved loop: unpack
            // the bit-packed codes into a reusable u32 buffer, then
            // dequantize through the shared vectorization-friendly
            // kernel.
            codes.clear();
            codes.reserve(block_len);
            let mut br = BitReader::new(packed);
            for _ in 0..block_len {
                codes.push(br.get_bits(bits, "szx code")? as u32);
            }
            dequant_affine_into(codes, base.to_f64(), step, out);
        }
        MODE_RAW => {
            let raw = r.take(block_len * T::BYTES, "szx raw sample")?;
            for chunk in raw.chunks_exact(T::BYTES) {
                let v = T::read_le(chunk)
                    .ok_or(CodecError::TruncatedStream { context: "szx raw sample" })?;
                out.push(v);
            }
        }
        _ => return Err(CodecError::Corrupt { context: "szx block mode" }),
    }
    Ok(())
}

/// Advances past one block (mode byte onward) without decoding any
/// sample — pure header arithmetic, for the blocks no row of the box
/// touches.
fn skip_block<T: Element>(r: &mut ByteReader<'_>, block_len: usize) -> Result<()> {
    match r.u8("szx block mode")? {
        MODE_CONSTANT => {
            r.take(T::BYTES, "szx constant")?;
        }
        MODE_PACKED => {
            r.take(T::BYTES, "szx base")?;
            let bits = u32::from(r.u8("szx bit width")?);
            if bits == 0 || bits > 32 {
                return Err(CodecError::Corrupt { context: "szx bit width" });
            }
            r.take((block_len * bits as usize).div_ceil(8), "szx packed codes")?;
        }
        MODE_RAW => {
            r.take(block_len * T::BYTES, "szx raw sample")?;
        }
        _ => return Err(CodecError::Corrupt { context: "szx block mode" }),
    }
    Ok(())
}

impl_stage_codec!(Szx, CompressorId::Szx);

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecs::preset;
    use crate::traits::{compress, decompress, decompress_region, ErrorBound};
    use eblcio_data::max_rel_error;
    use proptest::prelude::*;

    /// `x` (a `T` value) moved `k` units in `T`'s last place, through
    /// zero.
    fn ulps<T: Element>(x: f64, k: i64) -> f64 {
        let (b, sign) = if T::BYTES == 4 {
            (u64::from((x as f32).to_bits()), 1u64 << 31)
        } else {
            (x.to_bits(), 1 << 63)
        };
        let key = if b & sign != 0 { -i128::from(b & !sign) } else { i128::from(b) } + i128::from(k);
        let b = key.unsigned_abs() as u64 | if key < 0 { sign } else { 0 };
        if T::BYTES == 4 {
            f64::from(f32::from_bits(b as u32))
        } else {
            f64::from_bits(b)
        }
    }

    /// One oracle case per `kind` from the raw draws `a`, `b`, `c`: the
    /// samples (each a `T` value) and the bound.
    fn oracle_case<T: Element>(kind: usize, a: u64, b: u64, c: u64) -> (Vec<f64>, f64) {
        let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
        let t = |x: f64| T::from_f64(x).to_f64();
        let n = 1 + (a % 384) as usize;
        let sign = if b & 1 == 0 { 1.0 } else { -1.0 };
        // A T value of magnitude 1e-10 to 1e10.
        let centre = t(sign * 10f64.powf(unit(c) * 20.0 - 10.0));
        // Every sample drawn from `pick(draw)`; a splitmix stream keeps
        // the draws independent.
        let mut state = a ^ b.rotate_left(21) ^ c.rotate_left(42);
        let mut draw = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Samples among `mn`, `mx` and the T values between them.
        let mut span = |a: f64, b: f64| -> Vec<f64> {
            let (mn, mx) = (a.min(b), a.max(b));
            (0..n)
                .map(|_| match draw() % 3 {
                    0 => mn,
                    1 => mx,
                    _ => t(mn + unit(draw()) * (mx - mn)).clamp(mn, mx),
                })
                .collect()
        };
        match kind {
            // Constant blocks at the edge: range = step, ±1–2 ulp around
            // it, bounds near one ulp of the midpoint.
            0 => {
                let ulp = (ulps::<T>(centre.abs(), 1) - centre.abs()).max(f64::MIN_POSITIVE);
                let abs = if b & 2 == 0 {
                    ulp * (0.25 + 4.0 * unit(b))
                } else {
                    centre.abs() * 10f64.powf(-1.0 - 6.0 * unit(b))
                };
                let mx = ulps::<T>(t(centre + 2.0 * abs), [-2, -1, 0, 1, 2][(c % 5) as usize]);
                (span(centre.min(mx), centre.max(mx)), abs)
            }
            // ±0, subnormals and the first normals, some blocks
            // non-negative (so a packed base is ±0), and a NaN or ±inf at
            // a drawn position.
            1 => {
                let tiny = if T::BYTES == 4 { f64::from(f32::MIN_POSITIVE) } else { f64::MIN_POSITIVE };
                let abs = tiny * [1e-3, 0.02, 0.5, 3.0, 1e3][(b % 5) as usize];
                let non_negative = b & 8 != 0;
                let mut v: Vec<f64> = (0..n)
                    .map(|_| {
                        let d = draw();
                        let x = match d % 4 {
                            0 => 0.0,
                            1 => -0.0,
                            2 => t(tiny * unit(d) * 2.0),
                            _ => t(tiny * 64.0 * unit(d)),
                        };
                        if d & 0x10 != 0 && !non_negative { -x } else { x }
                    })
                    .collect();
                if c & 3 == 0 {
                    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN];
                    v[(c >> 8) as usize % n] = odd[((c >> 2) % 4) as usize];
                }
                (v, abs)
            }
            // Packed widths 1 and 32 and their edges: the block spans a
            // drawn number of steps.
            2 => {
                let steps = [0.3, 1.0, 2.0, 3.0, 2f64.powi(31), 4294967294.0, 4294967295.0, 4294967296.0]
                    [(b % 8) as usize];
                let range = centre.abs() * 10f64.powf(-3.0 * unit(b));
                let mx = t(centre + range);
                let range = mx - centre;
                let abs = ulps::<f64>(range / (2.0 * steps), [-1, 0, 1][(c % 3) as usize]);
                (span(centre, mx), abs)
            }
            // Raw blocks: a bound below the samples' own precision, or a
            // range of more than 2³² steps.
            3 => {
                let mx = t(centre * 3.0);
                let (mn, mx) = (centre.min(mx), centre.max(mx));
                let abs = (mx - mn) * [1e-12, 1e-9, 1e-7, 1e-6][(b % 4) as usize];
                (span(mn, mx), abs)
            }
            // Bounds no store hands the encoder: zero, negative, NaN,
            // infinite, the largest and the smallest doubles.
            4 => {
                let abs = [0.0, -0.0, -1e-3, f64::NAN, f64::INFINITY, f64::MAX, 5e-324, 1e300]
                    [(b % 8) as usize];
                (span(centre, t(centre * 1.5 + 1.0)), abs)
            }
            // Smooth data at a drawn bound.
            _ => {
                let amp = 10f64.powf(unit(b) * 8.0 - 4.0);
                let abs = amp * 10f64.powf(-1.0 - 5.0 * unit(c));
                let v = (0..n).map(|i| t(centre + amp * (i as f64 * 0.05 + unit(a)).sin())).collect();
                (v, abs)
            }
        }
    }

    /// The encoder's stream equals the oracle's, in `T`; input with a
    /// NaN or ±inf sample is a `NonFiniteInput` error instead.
    fn assert_matches_oracle<T: Element>(values: &[f64], abs: f64) {
        let samples: Vec<T> = values.iter().map(|&v| T::from_f64(v)).collect();
        let view = ArrayView::new(Shape::d1(samples.len()), &samples);
        let out = Szx.encode_impl(view, abs);
        if values.iter().any(|v| !v.is_finite()) {
            assert!(matches!(out, Err(CodecError::NonFiniteInput)), "{}: {samples:?}", T::NAME);
            return;
        }
        let (got, _) = out.unwrap();
        let want = oracle::encode_reference(&samples, abs);
        if got != want {
            let at = got.iter().zip(&want).position(|(g, w)| g != w).unwrap_or(got.len().min(want.len()));
            panic!(
                "{}: {} samples, abs {abs:e}: streams of {} and {} bytes differ at byte {at}; samples {samples:?}",
                T::NAME,
                samples.len(),
                got.len(),
                want.len()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The extremes-only encoder writes the old per-sample encoder's
        /// stream byte for byte, f32 and f64: constant blocks at the
        /// edge, ±0 and subnormals (rejected with a NaN or ±inf
        /// anywhere), packed widths 1 and 32, the raw fallback,
        /// degenerate bounds.
        #[test]
        fn encode_matches_the_per_sample_oracle(
            kind in 0usize..6,
            a in any::<u64>(),
            b in any::<u64>(),
            c in any::<u64>(),
        ) {
            let (values, abs) = oracle_case::<f32>(kind, a, b, c);
            assert_matches_oracle::<f32>(&values, abs);
            let (values, abs) = oracle_case::<f64>(kind, a, b, c);
            assert_matches_oracle::<f64>(&values, abs);
        }
    }

    /// A NaN or ±inf at every position of a block, beside ±0 and smooth
    /// samples, is rejected; every tail length after a whole block
    /// matches the oracle.
    #[test]
    fn every_position_and_tail_matches_the_oracle() {
        let odd = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for base in [vec![0.0; BLOCK], (0..BLOCK).map(|i| (i as f64 * 0.1).sin()).collect()] {
            for pos in 0..BLOCK {
                for &x in &odd {
                    for abs in [1e-3, 0.5, 10.0] {
                        let mut v = base.clone();
                        v[pos] = x;
                        v[(pos + 7) % BLOCK] = -0.0;
                        assert_matches_oracle::<f32>(&v, abs);
                        assert_matches_oracle::<f64>(&v, abs);
                    }
                }
            }
        }
        for tail in 1..=BLOCK {
            let v: Vec<f64> = (0..BLOCK + tail).map(|i| (i as f64 * 0.03).cos() * 40.0).collect();
            for abs in [1e-4, 1e-2, 30.0] {
                assert_matches_oracle::<f32>(&v, abs);
                assert_matches_oracle::<f64>(&v, abs);
            }
        }
    }

    /// The public array stage rejects a NaN or ±inf anywhere, the first
    /// sample of a block included.
    #[test]
    fn array_stage_rejects_non_finite_samples() {
        let smooth: Vec<f64> = (0..3 * BLOCK).map(|i| (i as f64 * 0.01).sin() * 0.5 + 0.5).collect();
        for at in [0, 1, BLOCK - 1, BLOCK, 2 * BLOCK + 5] {
            for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut v = smooth.clone();
                v[at] = x;
                let out = crate::stage::encode_array(&Szx, ArrayView::new(Shape::d1(v.len()), &v), 1e-3);
                assert!(matches!(out, Err(CodecError::NonFiniteInput)), "{x} at {at}");
            }
        }
    }

    /// Finite samples whose running sum overflows are scanned again and
    /// encoded, not rejected.
    #[test]
    fn an_overflowing_sum_of_finite_samples_still_encodes() {
        let v: Vec<f64> = (0..BLOCK + 9).map(|i| if i % 3 == 0 { -f64::MAX } else { f64::MAX * 0.75 }).collect();
        for abs in [1e-3, 1e300, f64::MAX] {
            assert_matches_oracle::<f64>(&v, abs);
        }
    }

    /// The integer code width is libm's at every edge: powers of two and
    /// their neighbours up to 2³⁴, and the values no block reaches.
    #[test]
    fn code_width_matches_the_libm_formula() {
        let mut xs = vec![0.0, -0.0, -1.0, 0.5, 1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX];
        for k in -3..=34 {
            let p = 2f64.powi(k);
            for d in [-1.0, 0.0, 1.0] {
                for u in -2..=2 {
                    xs.push(ulps::<f64>(p + d, u));
                }
            }
        }
        for x in xs {
            assert_eq!(code_width(x), oracle::code_width_reference(x), "steps {x:e}");
        }
    }

    /// Packing at every width and length gives the `BitWriter`'s bytes.
    #[test]
    fn pack_codes_matches_the_bit_writer() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for bits in 1..=32u32 {
            for len in 0..=BLOCK {
                let codes: Vec<u32> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state & ((1u64 << bits) - 1)) as u32
                    })
                    .collect();
                let mut bw = BitWriter::new();
                for &q in &codes {
                    bw.put_bits(u64::from(q), bits);
                }
                let mut out = vec![0xAB];
                pack_codes(&codes, bits, &mut out);
                assert_eq!(out[1..], bw.finish()[..], "bits {bits}, len {len}");
            }
        }
    }

    fn wavy(n: usize) -> NdArray<f32> {
        NdArray::from_fn(Shape::d1(n), |i| ((i[0] as f32) * 0.01).sin() * 50.0)
    }

    #[test]
    fn roundtrip_respects_bound() {
        let data = wavy(10_000);
        let c = preset(CompressorId::Szx);
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let stream = compress(&c, &data, ErrorBound::Relative(eps)).unwrap();
            let back = decompress::<f32>(&c, &stream).unwrap();
            assert!(max_rel_error(&data, &back) <= eps * 1.0000001, "eps {eps}");
        }
    }

    #[test]
    fn constant_blocks_collapse() {
        let data = NdArray::<f32>::from_vec(Shape::d1(4096), vec![7.5; 4096]);
        let c = preset(CompressorId::Szx);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        // 32 blocks × (1 + 4) bytes + framing.
        assert!(stream.len() < 300, "{} bytes", stream.len());
        assert_eq!(decompress::<f32>(&c, &stream).unwrap().as_slice(), data.as_slice());
    }

    #[test]
    fn cr_is_moderate_but_nonzero_on_smooth_data() {
        // SZx's signature: modest CR even where SZ3 gets huge ratios.
        let data = wavy(100_000);
        let c = preset(CompressorId::Szx);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        let cr = data.nbytes() as f64 / stream.len() as f64;
        assert!(cr > 2.0 && cr < 64.0, "CR {cr}");
    }

    #[test]
    fn faster_looser_bounds_give_smaller_streams() {
        let data = wavy(50_000);
        let c = preset(CompressorId::Szx);
        let loose = compress(&c, &data, ErrorBound::Relative(1e-1)).unwrap();
        let tight = compress(&c, &data, ErrorBound::Relative(1e-5)).unwrap();
        assert!(loose.len() < tight.len());
    }

    #[test]
    fn partial_final_block() {
        let data = wavy(BLOCK + 17);
        let c = preset(CompressorId::Szx);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        let back = decompress::<f32>(&c, &stream).unwrap();
        assert_eq!(back.len(), data.len());
        assert!(max_rel_error(&data, &back) <= 1e-3 * 1.0000001);
    }

    #[test]
    fn f64_roundtrip() {
        let data = NdArray::<f64>::from_fn(Shape::d2(100, 100), |i| {
            (i[0] as f64).mul_add(1e-3, (i[1] as f64) * 2e-3).exp()
        });
        let c = preset(CompressorId::Szx);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-4)).unwrap();
        let back = decompress::<f64>(&c, &stream).unwrap();
        assert!(max_rel_error(&data, &back) <= 1e-4 * 1.0000001);
    }

    #[test]
    fn extreme_dynamic_range_falls_back_to_raw() {
        // Range/ε too wide for 32-bit packing: raw mode keeps exactness.
        let mut v = vec![0.0f64; 256];
        v[0] = 1e300;
        v[255] = -1e300;
        let data = NdArray::from_vec(Shape::d1(256), v);
        let c = preset(CompressorId::Szx);
        let stream = compress(&c, &data, ErrorBound::Absolute(1e-280)).unwrap();
        let back = decompress::<f64>(&c, &stream).unwrap();
        assert_eq!(back.as_slice(), data.as_slice());
    }

    #[test]
    fn truncation_detected() {
        let data = wavy(1000);
        let c = preset(CompressorId::Szx);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        for cut in [10, stream.len() / 2, stream.len() - 1] {
            assert!(decompress::<f32>(&c, &stream[..cut]).is_err());
        }
    }

    #[test]
    fn region_decode_is_bit_identical_to_full_slice() {
        // Mixed block modes: constant run, smooth packed data, and a
        // raw-mode spike, so the skip path crosses all three headers.
        let data = NdArray::<f64>::from_fn(Shape::d2(48, 40), |i| {
            let flat = i[0] * 40 + i[1];
            if flat < 256 {
                3.25
            } else if flat == 700 {
                1e300
            } else {
                ((flat as f64) * 0.01).sin() * 50.0
            }
        });
        let c = preset(CompressorId::Szx);
        let stream = compress(&c, &data, ErrorBound::Absolute(1e-3)).unwrap();
        let full = decompress::<f64>(&c, &stream).unwrap();
        for (origin, extent) in [
            ([0, 0], [48, 40]),
            ([5, 7], [9, 13]),
            ([40, 30], [8, 10]),
            ([47, 39], [1, 1]),
            ([10, 0], [2, 40]),
        ] {
            let part = decompress_region::<f64>(&c, &stream, &origin, &extent).unwrap()
                .expect("szx supports partial decode");
            assert_eq!(part.shape(), Shape::d2(extent[0], extent[1]));
            for i in 0..extent[0] {
                for j in 0..extent[1] {
                    let got = part.as_slice()[i * extent[1] + j];
                    let want = full.as_slice()[(origin[0] + i) * 40 + origin[1] + j];
                    assert_eq!(got.to_bits(), want.to_bits(), "({origin:?}, {extent:?}) at [{i},{j}]");
                }
            }
        }
    }

    #[test]
    fn region_decode_rejects_bad_regions() {
        let data = wavy(500);
        let c = preset(CompressorId::Szx);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        assert!(decompress_region::<f32>(&c, &stream, &[0, 0], &[1, 1]).is_err());
        assert!(decompress_region::<f32>(&c, &stream, &[0], &[501]).is_err());
        assert!(decompress_region::<f32>(&c, &stream, &[500], &[1]).is_err());
        assert!(decompress_region::<f32>(&c, &stream, &[0], &[0]).is_err());
    }
}
