//! SZx: ultra-fast error-bounded compression (Yu et al., HPDC'22).
//!
//! SZx trades compression ratio for speed: the field is cut into small
//! flat blocks, constant blocks (range ≤ 2ε) collapse to their midpoint,
//! and the rest are stored as fixed-point offsets from the block minimum
//! using just enough bits to honour the bound — no prediction, no entropy
//! coding. This is why SZx is the energy-efficiency winner across the
//! paper's Figures 7/10/11 while posting the lowest ratios in Table III.

use super::impl_stage_codec;
use crate::bitstream::{BitReader, BitWriter};
use crate::error::{CodecError, Result};
use crate::quantizer::dequant_affine_into;
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
    pub fn encode_impl<T: Element>(
        &self,
        data: ArrayView<'_, T>,
        abs: f64,
    ) -> Result<(Vec<u8>, f64)> {
        let step = 2.0 * abs;

        let samples = data.as_slice();
        let mut out = Vec::with_capacity(samples.len() / 2 + 64);
        put_varint(&mut out, samples.len().div_ceil(BLOCK) as u64);
        // Per-block buffers, reused across blocks.
        let mut codes = [0u64; BLOCK];
        let mut packed = Vec::new();

        for block in samples.chunks(BLOCK) {
            let mut mn = block[0].to_f64();
            let mut mx = mn;
            for v in block {
                let f = v.to_f64();
                if f < mn {
                    mn = f;
                }
                if f > mx {
                    mx = f;
                }
            }
            let range = mx - mn;

            if range <= step {
                // Constant block: the midpoint is within ε of every
                // sample (after T rounding, which we verify).
                let mid = T::from_f64(mn + range * 0.5);
                if block.iter().all(|v| (mid.to_f64() - v.to_f64()).abs() <= abs) {
                    out.push(MODE_CONSTANT);
                    mid.write_le(&mut out);
                    continue;
                }
            }

            // Fixed-point offsets from the block minimum.
            let levels = (range / step).ceil() + 1.0;
            let bits = levels.log2().ceil().max(1.0) as u32;
            if bits <= 32 {
                let base = T::from_f64(mn);
                let base_f = base.to_f64();
                let mut ok = true;
                for (code, v) in codes.iter_mut().zip(block) {
                    let q = ((v.to_f64() - base_f) / step).round();
                    let r = T::from_f64(base_f + q * step);
                    if q < 0.0 || q >= (1u64 << bits) as f64
                        || (r.to_f64() - v.to_f64()).abs() > abs
                    {
                        ok = false;
                        break;
                    }
                    *code = q as u64;
                }
                if ok {
                    out.push(MODE_PACKED);
                    base.write_le(&mut out);
                    out.push(bits as u8);
                    let mut bw = BitWriter::reusing(std::mem::take(&mut packed));
                    for &q in &codes[..block.len()] {
                        bw.put_bits(q, bits);
                    }
                    packed = bw.finish();
                    out.extend_from_slice(&packed);
                    continue;
                }
            }

            // Pathological block (range/ε overflow): store verbatim.
            out.push(MODE_RAW);
            for v in block {
                v.write_le(&mut out);
            }
        }

        Ok((out, abs))
    }

    /// Array-stage decode of the box `origin .. origin + extent`, mirror
    /// of [`Self::encode_impl`]. SZx blocks are flat 128-sample spans of
    /// the row-major array, so only blocks overlapping the box's flat
    /// index span are decoded: everything before is skipped by header
    /// arithmetic, everything after is never read. A whole decode
    /// returns the decoded span itself; for a small corner box of a
    /// large chunk the decode touches a fraction of the coded samples.
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
        // The box's flat offsets all lie in [lo, hi].
        let lo: usize = (0..rank).map(|d| origin[d] * strides[d]).sum();
        let hi: usize = (0..rank)
            .map(|d| (origin[d] + extent[d] - 1) * strides[d])
            .sum();
        let first_block = lo / BLOCK;
        let last_block = hi / BLOCK;
        let span_base = first_block * BLOCK;

        let mut r = ByteReader::new(payload);
        let n_blocks = r.varint("szx block count")? as usize;
        // Every block is at least a mode byte and one sample, so a count
        // the payload cannot hold is corrupt — caught before the span is
        // sized from a header shape the payload CRC does not cover.
        if n_blocks != n.div_ceil(BLOCK) || n_blocks.saturating_mul(1 + T::BYTES) > r.remaining() {
            return Err(CodecError::Corrupt { context: "szx block count" });
        }
        let mut span: Vec<T> = Vec::with_capacity(((last_block + 1) * BLOCK).min(n) - span_base);
        with_scratch(|s| -> Result<()> {
            for b in 0..=last_block {
                let block_len = BLOCK.min(n - b * BLOCK);
                if b < first_block {
                    skip_block::<T>(&mut r, block_len)?;
                } else {
                    decode_block(&mut r, block_len, step, &mut s.codes, &mut span)?;
                }
            }
            Ok(())
        })?;
        let out_shape = Shape::new(extent);
        if out_shape == shape {
            return Ok(NdArray::from_vec(shape, span));
        }

        // Gather the box out of the decoded span, one contiguous
        // last-axis row at a time — the row is a flat slice of the
        // span, so the copy is memcpy-shaped instead of a per-sample
        // coordinate dot product.
        let total = out_shape.len();
        let mut out: Vec<T> = Vec::with_capacity(total);
        let row = extent[rank - 1];
        let mut idx = [0usize; 4];
        for _ in 0..total / row {
            let off: usize = (0..rank).map(|d| (origin[d] + idx[d]) * strides[d]).sum();
            let start = off - span_base;
            out.extend_from_slice(&span[start..start + row]);
            for d in (0..rank - 1).rev() {
                idx[d] += 1;
                if idx[d] < extent[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Ok(NdArray::from_vec(out_shape, out))
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
/// sample — pure header arithmetic, for the blocks before the box.
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
mod tests {
    use super::*;
    use crate::codecs::chain_around;
    use crate::traits::{compress, decompress, decompress_region, ErrorBound};
    use eblcio_data::max_rel_error;

    fn wavy(n: usize) -> NdArray<f32> {
        NdArray::from_fn(Shape::d1(n), |i| ((i[0] as f32) * 0.01).sin() * 50.0)
    }

    #[test]
    fn roundtrip_respects_bound() {
        let data = wavy(10_000);
        let c = chain_around(Szx);
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let stream = compress(&c, &data, ErrorBound::Relative(eps)).unwrap();
            let back = decompress::<f32>(&c, &stream).unwrap();
            assert!(max_rel_error(&data, &back) <= eps * 1.0000001, "eps {eps}");
        }
    }

    #[test]
    fn constant_blocks_collapse() {
        let data = NdArray::<f32>::from_vec(Shape::d1(4096), vec![7.5; 4096]);
        let c = chain_around(Szx);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        // 32 blocks × (1 + 4) bytes + framing.
        assert!(stream.len() < 300, "{} bytes", stream.len());
        assert_eq!(decompress::<f32>(&c, &stream).unwrap().as_slice(), data.as_slice());
    }

    #[test]
    fn cr_is_moderate_but_nonzero_on_smooth_data() {
        // SZx's signature: modest CR even where SZ3 gets huge ratios.
        let data = wavy(100_000);
        let c = chain_around(Szx);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        let cr = data.nbytes() as f64 / stream.len() as f64;
        assert!(cr > 2.0 && cr < 64.0, "CR {cr}");
    }

    #[test]
    fn faster_looser_bounds_give_smaller_streams() {
        let data = wavy(50_000);
        let c = chain_around(Szx);
        let loose = compress(&c, &data, ErrorBound::Relative(1e-1)).unwrap();
        let tight = compress(&c, &data, ErrorBound::Relative(1e-5)).unwrap();
        assert!(loose.len() < tight.len());
    }

    #[test]
    fn partial_final_block() {
        let data = wavy(BLOCK + 17);
        let c = chain_around(Szx);
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
        let c = chain_around(Szx);
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
        let c = chain_around(Szx);
        let stream = compress(&c, &data, ErrorBound::Absolute(1e-280)).unwrap();
        let back = decompress::<f64>(&c, &stream).unwrap();
        assert_eq!(back.as_slice(), data.as_slice());
    }

    #[test]
    fn truncation_detected() {
        let data = wavy(1000);
        let c = chain_around(Szx);
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
        let c = chain_around(Szx);
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
        let c = chain_around(Szx);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        assert!(decompress_region::<f32>(&c, &stream, &[0, 0], &[1, 1]).is_err());
        assert!(decompress_region::<f32>(&c, &stream, &[0], &[501]).is_err());
        assert!(decompress_region::<f32>(&c, &stream, &[500], &[1]).is_err());
        assert!(decompress_region::<f32>(&c, &stream, &[0], &[0]).is_err());
    }
}
