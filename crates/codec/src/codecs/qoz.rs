//! QoZ: quality-oriented interpolation compression (Liu et al., SC'22).
//!
//! QoZ builds on SZ3's interpolation pyramid but (1) *tightens* the error
//! bound on coarse levels — coarse points seed the prediction of many
//! fine points, so spending bits there buys disproportionate quality —
//! and (2) can auto-tune toward a user quality target (PSNR) instead of a
//! pure error bound. The result, visible in the paper's Fig. 9, is a
//! PSNR that sits above the other compressors at the same nominal ε,
//! bought with somewhat lower compression ratios and extra work.

use super::common::{encode_inner, OutBox, SzPayload};
use super::impl_stage_codec;
use super::sz3::{interp_decode, interp_decode_reference, interp_decode_with, interp_encode_with};
use crate::error::{CodecError, Result};
use crate::scratch::{with_scratch, CodecScratch};
use crate::traits::CompressorId;
use eblcio_data::{metrics, ArrayView, Element, NdArray, Shape};

/// Per-level bound tightening factor (QoZ's `alpha`).
const DEFAULT_ALPHA: f64 = 1.5;
/// Floor: no level is tightened below `abs / DEFAULT_BETA`.
const DEFAULT_BETA: f64 = 4.0;

/// The QoZ compressor.
#[derive(Clone, Debug)]
pub struct Qoz {
    /// Level-wise tightening factor (> 1; 1 degenerates to SZ3).
    pub alpha: f64,
    /// Maximum tightening (bound floor divisor).
    pub beta: f64,
    /// Optional PSNR target: the encoder searches for the loosest bound
    /// meeting it (adds analysis passes — visible as extra energy).
    pub target_psnr: Option<f64>,
}

impl Default for Qoz {
    fn default() -> Self {
        Self {
            alpha: DEFAULT_ALPHA,
            beta: DEFAULT_BETA,
            target_psnr: None,
        }
    }
}

impl Qoz {
    /// QoZ tuned to reach (at least) the given PSNR in dB.
    pub fn with_target_psnr(psnr_db: f64) -> Self {
        Self {
            target_psnr: Some(psnr_db),
            ..Self::default()
        }
    }

    /// The absolute bound applied at interpolation level `level` when the
    /// finest-level bound is `abs`.
    fn level_bound(alpha: f64, beta: f64, abs: f64, level: u32) -> f64 {
        let tighten = alpha.powi(level.saturating_sub(1) as i32);
        (abs / tighten).max(abs / beta)
    }

    /// One interpolation encode at finest-level bound `abs` into the
    /// arena's code and outlier buffers.
    fn encode_once<T: Element>(&self, data: ArrayView<'_, T>, abs: f64, s: &mut CodecScratch) {
        let (alpha, beta) = (self.alpha, self.beta);
        let level_abs = |level| Self::level_bound(alpha, beta, abs, level);
        interp_encode_with(data, abs / beta, level_abs, true, s);
    }

    /// Array-stage encode: level-adaptive bounds (and optional PSNR
    /// search) at an already resolved absolute bound. Returns the inner
    /// SZ payload and the bound finally applied — the PSNR search may
    /// loosen it, and the header must record the achieved value.
    pub fn encode_impl<T: Element>(
        &self,
        data: ArrayView<'_, T>,
        abs: f64,
    ) -> Result<(Vec<u8>, f64)> {
        if !(self.alpha >= 1.0 && self.beta >= 1.0) {
            return Err(CodecError::InvalidBound {
                reason: "QoZ alpha and beta must be >= 1",
            });
        }
        with_scratch(|s| {
            let mut abs = abs;
            if let Some(target) = self.target_psnr {
                // Quality-target mode: geometric search for the loosest
                // abs that still meets the PSNR goal (bounded trials,
                // like QoZ's sampled auto-tuning). The PSNR check needs
                // an owned original; one copy here covers all trials.
                let original = data.to_owned();
                let mut best: Option<f64> = None;
                let mut trial = abs;
                for _ in 0..6 {
                    self.encode_once(data, trial, s);
                    let recon: NdArray<T> = interp_decode(
                        data.shape(),
                        &s.codes,
                        &s.outliers,
                        trial / self.beta,
                        |l| Self::level_bound(self.alpha, self.beta, trial, l),
                        true,
                    )?;
                    if metrics::psnr(&original, &recon) >= target {
                        best = Some(trial);
                        trial *= 2.0; // try looser
                    } else {
                        trial *= 0.25; // tighten
                    }
                }
                abs = best.unwrap_or(trial).min(1.0_f64.max(data.value_range()));
            }

            self.encode_once(data, abs, s);
            let mut extra = [0u8; 16];
            extra[..8].copy_from_slice(&self.alpha.to_bits().to_le_bytes());
            extra[8..].copy_from_slice(&self.beta.to_bits().to_le_bytes());
            let payload = encode_inner(&extra, &s.outliers, &s.codes, &mut s.huff_enc);
            Ok((payload, abs))
        })
    }

    /// Validates and unpacks the 16-byte `(alpha, beta)` side info.
    fn parse_extra(extra: &[u8]) -> Result<(f64, f64)> {
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

/// The frozen reference decode of a QoZ payload, for the test oracle
/// [`decompress_reference`](super::decompress_reference).
pub(crate) fn decode_reference<T: Element>(
    p: &SzPayload,
    shape: Shape,
    abs: f64,
) -> Result<NdArray<T>> {
    let (alpha, beta) = Qoz::parse_extra(&p.extra)?;
    interp_decode_reference(shape, &p.codes, &p.outliers, abs / beta, |l| {
        Qoz::level_bound(alpha, beta, abs, l)
    }, true)
}

impl_stage_codec!(Qoz, CompressorId::Qoz);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecs::sz3::Sz3;
    use crate::codecs::chain_around;
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
        let c = chain_around(Qoz::default());
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
        let qoz = chain_around(Qoz::default());
        let sz3 = chain_around(Sz3::default());
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
    fn psnr_target_mode_meets_target() {
        let data = field(16);
        let c = chain_around(Qoz::with_target_psnr(70.0));
        let stream = compress(&c, &data, ErrorBound::Relative(1e-1)).unwrap();
        let back = decompress::<f32>(&c, &stream).unwrap();
        assert!(psnr(&data, &back) >= 70.0);
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
        let data = field(8);
        let c = chain_around(Qoz {
            alpha: 0.5,
            beta: 4.0,
            ..Qoz::default()
        });
        assert!(compress(&c, &data, ErrorBound::Relative(1e-3)).is_err());
    }

    #[test]
    fn f64_roundtrip() {
        let data = NdArray::<f64>::from_fn(Shape::d2(30, 30), |i| {
            (i[0] as f64 * 0.2).sin() + (i[1] as f64 * 0.1).cos()
        });
        let c = chain_around(Qoz::default());
        let stream = compress(&c, &data, ErrorBound::Relative(1e-4)).unwrap();
        let back = decompress::<f64>(&c, &stream).unwrap();
        assert!(max_rel_error(&data, &back) <= 1e-4 * 1.0000001);
    }
}
