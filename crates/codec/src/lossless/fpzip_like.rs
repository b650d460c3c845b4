//! fpzip analog (Lindstrom & Isenburg, TVCG 2006): predictive lossless
//! float compression.
//!
//! Floats are mapped to sign-magnitude-monotonic unsigned integers, each
//! sample is predicted by its predecessor (the 1-D Lorenzo predictor the
//! original uses along the fastest axis), and the integer residuals are
//! zig-zag coded, split into byte planes, and LZ-compressed (standing in
//! for fpzip's range coder).

use crate::error::{CodecError, Result};
use crate::lz;
use crate::stage::{ByteStage, ByteStageSpec};
use crate::util::{unzigzag, zigzag};

/// Predictive float compressor.
#[derive(Clone, Copy, Debug)]
pub struct FpzipLike {
    element_size: u8,
}

impl FpzipLike {
    /// Creates the codec for 4- or 8-byte floats (other sizes fall back
    /// to plain LZ).
    pub fn new(element_size: u8) -> Self {
        Self { element_size }
    }
}

/// Interprets the low `width` bits of `v` as a signed integer.
#[inline]
fn sign_extend(v: u64, width: u32) -> i64 {
    if width == 64 {
        v as i64
    } else if v & (1u64 << (width - 1)) != 0 {
        (v as i64) - (1i64 << width)
    } else {
        v as i64
    }
}

#[inline]
fn width_mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Order-preserving map from IEEE-754 bits to unsigned integers: set the
/// sign bit for non-negative floats, complement all bits for negatives.
#[inline]
fn float_map(bits: u64, width: u32) -> u64 {
    let sign = 1u64 << (width - 1);
    if bits & sign != 0 {
        !bits & width_mask(width)
    } else {
        bits | sign
    }
}

/// Inverse of [`float_map`].
#[inline]
fn float_unmap(v: u64, width: u32) -> u64 {
    let sign = 1u64 << (width - 1);
    if v & sign != 0 {
        v ^ sign
    } else {
        !v & width_mask(width)
    }
}

impl ByteStage for FpzipLike {
    fn spec(&self) -> ByteStageSpec {
        ByteStageSpec::Fpzip {
            element_size: self.element_size,
        }
    }

    fn forward(&self, data: &[u8]) -> Vec<u8> {
        let esize = usize::from(self.element_size);
        if esize != 4 && esize != 8 {
            let mut out = vec![0u8];
            out.extend_from_slice(&lz::compress(data));
            return out;
        }
        let width = (esize * 8) as u32;
        let n = data.len() / esize;
        let tail = &data[n * esize..];

        // Residual stream, one zig-zag delta per sample, byte-planed.
        // Differences are taken modulo 2^width so the zig-zag code always
        // fits in `esize` bytes.
        let mask = width_mask(width);
        let mut planes = vec![Vec::with_capacity(n); esize];
        let mut prev = 0u64;
        for e in 0..n {
            let mut bits = 0u64;
            for b in (0..esize).rev() {
                bits = (bits << 8) | u64::from(data[e * esize + b]);
            }
            let mapped = float_map(bits, width);
            let diff = mapped.wrapping_sub(prev) & mask;
            let signed = sign_extend(diff, width);
            let delta = zigzag(signed) & mask;
            prev = mapped;
            for (b, plane) in planes.iter_mut().enumerate() {
                plane.push((delta >> (8 * b)) as u8);
            }
        }
        let mut joined = Vec::with_capacity(data.len());
        for p in &planes {
            joined.extend_from_slice(p);
        }
        joined.extend_from_slice(tail);

        let mut out = vec![self.element_size];
        out.extend_from_slice(&lz::compress(&joined));
        out
    }

    fn inverse(&self, stream: &[u8]) -> Result<Vec<u8>> {
        let esize = usize::from(*stream.first().ok_or(CodecError::TruncatedStream {
            context: "fpzip esize",
        })?);
        let joined = lz::decompress(&stream[1..])?;
        if esize != 4 && esize != 8 {
            return Ok(joined);
        }
        let width = (esize * 8) as u32;
        let n = joined.len() / esize;
        // `joined` = esize planes of n bytes + tail.
        let body = n * esize;
        if joined.len() < body {
            return Err(CodecError::Corrupt { context: "fpzip planes" });
        }
        let mask = width_mask(width);
        let mut out = Vec::with_capacity(joined.len());
        let mut prev = 0u64;
        for e in 0..n {
            let mut delta = 0u64;
            for b in (0..esize).rev() {
                delta = (delta << 8) | u64::from(joined[b * n + e]);
            }
            let mapped = prev.wrapping_add(unzigzag(delta) as u64) & mask;
            prev = mapped;
            let bits = float_unmap(mapped, width);
            for b in 0..esize {
                out.push((bits >> (8 * b)) as u8);
            }
        }
        out.extend_from_slice(&joined[body..]);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_map_is_monotone_f32() {
        let vals = [-1000.0f32, -1.5, -0.0, 0.0, 1e-30, 1.5, 1000.0];
        let mapped: Vec<u64> = vals
            .iter()
            .map(|v| float_map(u64::from(v.to_bits()), 32))
            .collect();
        for w in mapped.windows(2) {
            assert!(w[0] <= w[1], "{mapped:?}");
        }
    }

    #[test]
    fn float_map_roundtrip() {
        for v in [-2.5f32, 0.0, -0.0, 7.25, f32::MAX, f32::MIN_POSITIVE] {
            let bits = u64::from(v.to_bits());
            assert_eq!(float_unmap(float_map(bits, 32), 32), bits, "{v}");
        }
        for v in [-2.5f64, 0.0, 9.75e100, -1e-200] {
            let bits = v.to_bits();
            assert_eq!(float_unmap(float_map(bits, 64), 64), bits, "{v}");
        }
    }

    #[test]
    fn roundtrip_f32_stream() {
        let data: Vec<u8> = (0..5000)
            .flat_map(|i| ((i as f32 * 0.02).cos() * 42.0).to_le_bytes())
            .collect();
        let c = FpzipLike::new(4);
        let enc = c.forward(&data);
        assert_eq!(c.inverse(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_f64_stream() {
        let data: Vec<u8> = (0..3000)
            .flat_map(|i| ((i as f64 * 0.013).sin() * 7.0).to_le_bytes())
            .collect();
        let c = FpzipLike::new(8);
        let enc = c.forward(&data);
        assert_eq!(c.inverse(&enc).unwrap(), data);
    }

    #[test]
    fn smooth_floats_compress() {
        let data: Vec<u8> = (0..50_000)
            .flat_map(|i| (100.0f32 + (i as f32 * 1e-4).sin()).to_le_bytes())
            .collect();
        let c = FpzipLike::new(4);
        let enc = c.forward(&data);
        assert!(
            enc.len() < data.len() * 3 / 4,
            "{} vs {}",
            enc.len(),
            data.len()
        );
    }

    #[test]
    fn ragged_tail_roundtrip() {
        let mut data: Vec<u8> = (0..100)
            .flat_map(|i| (i as f32).to_le_bytes())
            .collect();
        data.extend_from_slice(&[1, 2, 3]);
        let c = FpzipLike::new(4);
        assert_eq!(c.inverse(&c.forward(&data)).unwrap(), data);
    }
}
