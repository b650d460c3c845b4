//! QoZ: quality-oriented interpolation compression (Liu et al., SC'22).
//!
//! QoZ builds on SZ3's interpolation pyramid but *tightens* the error
//! bound on coarse levels — coarse points seed the prediction of many
//! fine points, so spending bits there buys disproportionate quality.
//! The result, visible in the paper's Fig. 9, is a PSNR that sits above
//! the other compressors at the same nominal ε, bought with somewhat
//! lower compression ratios. (QoZ's PSNR-targeting mode is not part of
//! this port: the paper runs every compressor error-bounded.)

use super::common::{encode_inner, OutBox, SzPayload};
use super::impl_stage_codec;
use super::sz3::{interp_decode_with, interp_encode_with};
use crate::error::{CodecError, Result};
use crate::scratch::{with_scratch, CodecScratch};
use crate::traits::CompressorId;
use eblcio_data::{ArrayView, Element, NdArray, Shape};

/// Per-level bound tightening factor (QoZ's `alpha`), written into
/// every stream.
const ALPHA: f64 = 1.5;
/// Floor: no level is tightened below `abs / BETA` (QoZ's `beta`),
/// written into every stream.
const BETA: f64 = 4.0;

/// The QoZ compressor, at QoZ's default `alpha` and `beta`.
#[derive(Clone, Debug, Default)]
pub struct Qoz;

impl Qoz {
    /// The absolute bound applied at interpolation level `level` when the
    /// finest-level bound is `abs`.
    pub(super) fn level_bound(alpha: f64, beta: f64, abs: f64, level: u32) -> f64 {
        let tighten = alpha.powi(level.saturating_sub(1) as i32);
        (abs / tighten).max(abs / beta)
    }

    /// Array-stage encode: level-adaptive bounds at an already resolved
    /// absolute bound, emitting the inner SZ payload with `(alpha, beta)`
    /// as its side info.
    pub fn encode_impl<T: Element>(
        &self,
        data: ArrayView<'_, T>,
        abs: f64,
    ) -> Result<(Vec<u8>, f64)> {
        with_scratch(|s| {
            interp_encode_with(data, abs / BETA, |l| Self::level_bound(ALPHA, BETA, abs, l), true, s);
            let mut extra = [0u8; 16];
            extra[..8].copy_from_slice(&ALPHA.to_bits().to_le_bytes());
            extra[8..].copy_from_slice(&BETA.to_bits().to_le_bytes());
            let CodecScratch { codes, outliers, huff_enc, .. } = s;
            Ok((encode_inner(&extra, outliers, codes, huff_enc), abs))
        })
    }

    /// Validates and unpacks the 16-byte `(alpha, beta)` side info. The
    /// decoder takes both from the stream, so it reads streams written
    /// at any `alpha, beta ≥ 1`, not only at [`ALPHA`] and [`BETA`].
    pub(super) fn parse_extra(extra: &[u8]) -> Result<(f64, f64)> {
        if extra.len() != 16 {
            return Err(CodecError::Corrupt { context: "qoz parameters" });
        }
        // The length check above guarantees 16 bytes, so indexing is safe.
        let le8 = |b: &[u8]| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let alpha = f64::from_bits(le8(&extra[0..8]));
        let beta = f64::from_bits(le8(&extra[8..16]));
        if !(alpha.is_finite() && alpha >= 1.0 && beta.is_finite() && beta >= 1.0) {
            return Err(CodecError::Corrupt { context: "qoz parameters" });
        }
        Ok((alpha, beta))
    }

    /// Array-stage decode of the box `origin .. origin + extent`, mirror
    /// of [`Self::encode_impl`] on the thread's [`CodecScratch`], cut to
    /// the box as [`Sz3::decode_impl`](super::sz3::Sz3::decode_impl)
    /// does it.
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
            let (alpha, beta) = Self::parse_extra(extra)?;
            interp_decode_with(shape, &boxed, codes, outliers, abs / beta, |l| {
                Self::level_bound(alpha, beta, abs, l)
            }, true, recon)
        })
    }
}

impl_stage_codec!(Qoz, CompressorId::Qoz);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecs::preset;
    use crate::traits::{compress, decompress, ErrorBound};
    use eblcio_data::{max_rel_error, psnr};

    fn field(n: usize) -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(n, n, n), |i| {
            let x = i[0] as f32 / n as f32;
            let y = i[1] as f32 / n as f32;
            let z = i[2] as f32 / n as f32;
            ((x * 4.0).sin() * (y * 3.0).cos() + (z * 2.0).sin()) * 25.0
        })
    }

    #[test]
    fn roundtrip_respects_bound() {
        let data = field(20);
        let c = preset(CompressorId::Qoz);
        for eps in [1e-1, 1e-3, 1e-5] {
            let stream = compress(&c, &data, ErrorBound::Relative(eps)).unwrap();
            let back = decompress::<f32>(&c, &stream).unwrap();
            assert!(max_rel_error(&data, &back) <= eps * 1.0000001);
        }
    }

    #[test]
    fn higher_psnr_than_sz3_at_same_bound() {
        // QoZ's defining quality behaviour (paper Fig. 9 outlier).
        let data = field(24);
        let qoz = preset(CompressorId::Qoz);
        let sz3 = preset(CompressorId::Sz3);
        let eps = 1e-2;
        let qs = compress(&qoz, &data, ErrorBound::Relative(eps)).unwrap();
        let ss = compress(&sz3, &data, ErrorBound::Relative(eps)).unwrap();
        let qp = psnr(&data, &decompress::<f32>(&qoz, &qs).unwrap());
        let sp = psnr(&data, &decompress::<f32>(&sz3, &ss).unwrap());
        assert!(qp > sp, "QoZ {qp} dB vs SZ3 {sp} dB");
        // ...bought with a comparable-or-larger stream (tightening only
        // touches the sparse coarse levels, so the cost is small).
        assert!(qs.len() as f64 >= ss.len() as f64 * 0.9, "{} vs {}", qs.len(), ss.len());
    }

    #[test]
    fn level_bounds_monotone_tightening() {
        let abs = 0.1;
        let mut prev = f64::INFINITY;
        for level in 1..=10 {
            let b = Qoz::level_bound(1.5, 4.0, abs, level);
            assert!(b <= prev && b >= abs / 4.0 && b <= abs);
            prev = b;
        }
    }

    #[test]
    fn invalid_params_rejected() {
        // The decoder takes (alpha, beta) from the stream and refuses
        // any pair no encoder could have written.
        let pair = |alpha: f64, beta: f64| {
            let mut extra = alpha.to_bits().to_le_bytes().to_vec();
            extra.extend_from_slice(&beta.to_bits().to_le_bytes());
            extra
        };
        assert_eq!(Qoz::parse_extra(&pair(ALPHA, BETA)), Ok((ALPHA, BETA)));
        assert_eq!(Qoz::parse_extra(&pair(1.0, 1.0)), Ok((1.0, 1.0)));
        for (alpha, beta) in [(0.5, 4.0), (1.5, 0.99), (f64::NAN, 4.0), (1.5, f64::INFINITY)] {
            assert!(Qoz::parse_extra(&pair(alpha, beta)).is_err(), "{alpha} {beta}");
        }
        assert!(Qoz::parse_extra(&pair(ALPHA, BETA)[..15]).is_err());
    }

    #[test]
    fn f64_roundtrip() {
        let data = NdArray::<f64>::from_fn(Shape::d2(30, 30), |i| {
            (i[0] as f64 * 0.2).sin() + (i[1] as f64 * 0.1).cos()
        });
        let c = preset(CompressorId::Qoz);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-4)).unwrap();
        let back = decompress::<f64>(&c, &stream).unwrap();
        assert!(max_rel_error(&data, &back) <= 1e-4 * 1.0000001);
    }
}
