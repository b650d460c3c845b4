//! The SZx block encoder as it was before the extremes-only rewrite,
//! kept verbatim as the oracle `Szx::encode_impl` is held to byte for
//! byte: a scalar min/max, a per-sample constant test, and a division,
//! `f64::round` and a `BitWriter` per packed sample.

use super::{BLOCK, MODE_CONSTANT, MODE_PACKED, MODE_RAW};
use crate::bitstream::BitWriter;
use crate::util::put_varint;
use eblcio_data::Element;

/// The old `Szx::encode_impl` body.
pub(super) fn encode_reference<T: Element>(samples: &[T], abs: f64) -> Vec<u8> {
    let step = 2.0 * abs;

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

    out
}

/// The old code width line, `None` where the old encoder stored raw.
pub(super) fn code_width_reference(steps: f64) -> Option<u32> {
    let bits = (steps.ceil() + 1.0).log2().ceil().max(1.0) as u32;
    (bits <= 32).then_some(bits)
}
