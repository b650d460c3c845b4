//! The [`Compressor`] abstraction: one trait in front of every codec
//! chain, mirroring how the paper drives SZ2/SZ3/ZFP/QoZ/SZx through
//! LibPressio's uniform API. Since the chain refactor a compressor's
//! identity is its serializable [`ChainSpec`] — the five paper codecs
//! are the preset chains, and [`CompressorId`] names their array stages.
//!
//! The trait is object-safe and precision-free: arrays cross it as
//! [`DatasetView`] (in) and [`Dataset`] (out), tagged with the same
//! `u8` dtype the containers record, so `f32` and `f64` share every
//! method. The generic free functions below are the typed surface —
//! each erases `T`, makes the one dynamic call, and moves the result
//! back into an `NdArray<T>`; asking for the wrong `T` is a
//! `DtypeMismatch`, never a reinterpretation.

use crate::chain::ChainSpec;
use crate::error::{CodecError, Result};
use crate::header::{self, typed};
use eblcio_data::{ArrayView, Dataset, DatasetView, Element, NdArray};
use serde::{Deserialize, Serialize};

/// Identifies one of the five EBLCs characterized by the paper — and,
/// since the chain refactor, the array stage at the front of a chain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[repr(u8)]
pub enum CompressorId {
    /// SZ2: block Lorenzo + regression prediction (Liang et al. 2018).
    Sz2 = 1,
    /// SZ3: multi-level spline interpolation (Liang et al. 2023).
    Sz3 = 2,
    /// ZFP: block-transform coding (Lindstrom 2014).
    Zfp = 3,
    /// QoZ: quality-oriented SZ3 derivative (Liu et al. SC'22).
    Qoz = 4,
    /// SZx: ultra-fast block coding (Yu et al. HPDC'22).
    Szx = 5,
}

impl CompressorId {
    /// All five, in the paper's legend order.
    pub const ALL: [CompressorId; 5] = [
        CompressorId::Sz2,
        CompressorId::Sz3,
        CompressorId::Zfp,
        CompressorId::Qoz,
        CompressorId::Szx,
    ];

    /// Parses the stream-header codec byte.
    pub fn from_u8(v: u8) -> Result<Self> {
        match v {
            1 => Ok(CompressorId::Sz2),
            2 => Ok(CompressorId::Sz3),
            3 => Ok(CompressorId::Zfp),
            4 => Ok(CompressorId::Qoz),
            5 => Ok(CompressorId::Szx),
            other => Err(CodecError::UnknownCodec(other)),
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            CompressorId::Sz2 => "SZ2",
            CompressorId::Sz3 => "SZ3",
            CompressorId::Zfp => "ZFP",
            CompressorId::Qoz => "QoZ",
            CompressorId::Szx => "SZx",
        }
    }

    /// Instantiates this codec's preset chain ([`ChainSpec::build`]).
    pub fn instance(self) -> Box<dyn Compressor> {
        ChainSpec::preset(self)
            .build_boxed()
            // eblcio-allow(panic-freedom): preset chains are static data exercised by the codec_matrix suite; keeping this constructor infallible is what its ~100 call sites rely on
            .expect("builtin preset chains always build")
    }
}

/// User-facing error-bound specification (paper §III).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ErrorBound {
    /// Value-range relative bound ε: `|D−D̂| ≤ ε · (max D − min D)`.
    /// This is the paper's Eq. 1 as adopted by the EBLC community.
    Relative(f64),
    /// Absolute bound: `|D−D̂| ≤ e`.
    Absolute(f64),
}

impl ErrorBound {
    /// Resolves the bound to an absolute tolerance for data with the
    /// given value range.
    ///
    /// A zero range (constant data) yields a tiny positive tolerance so
    /// the quantizer stays well-defined; reconstruction is then exact.
    pub fn to_absolute(self, value_range: f64) -> Result<f64> {
        let raw = match self {
            ErrorBound::Relative(eps) => {
                if !(eps.is_finite() && eps > 0.0 && eps <= 1.0) {
                    return Err(CodecError::InvalidBound {
                        reason: "relative bound must be in (0, 1]",
                    });
                }
                eps * value_range
            }
            ErrorBound::Absolute(e) => {
                if !(e.is_finite() && e > 0.0) {
                    return Err(CodecError::InvalidBound {
                        reason: "absolute bound must be finite positive",
                    });
                }
                e
            }
        };
        Ok(raw.max(f64::MIN_POSITIVE))
    }
}

/// A lossy compressor with an error-bound guarantee.
///
/// Object-safe, so samples cross it dtype-erased: a borrowed
/// [`DatasetView`] goes in (sub-array compression — parallel slabs,
/// store chunks — never copies its input), an owned [`Dataset`] of the
/// requested dtype tag comes out. This is the one place the precision
/// is decided; generic callers use [`compress`] / [`compress_view`] /
/// [`decompress`] / [`decompress_region`], which erase `T` on the way
/// in and move the array back out on the way back. The only
/// implementor is [`CodecChain`](crate::chain::CodecChain): build one
/// with [`CompressorId::instance`], [`ChainSpec::build`] or
/// [`CodecChain::around`](crate::chain::CodecChain::around).
pub trait Compressor: Send + Sync {
    /// The serializable chain identity of this compressor — what stream
    /// headers and store manifests record so the far side can rebuild
    /// the decoder.
    fn spec(&self) -> ChainSpec;

    /// Display name: the paper legend for presets, the chain grammar
    /// otherwise.
    fn name(&self) -> String {
        self.spec().label()
    }

    /// Compresses a borrowed view of either precision.
    fn compress_view(&self, data: DatasetView<'_>, bound: ErrorBound) -> Result<Vec<u8>>;

    /// Decompresses a stream whose samples are of the element type
    /// `dtype` names ([`Element::DTYPE`]); a stream of the other type is
    /// a [`CodecError::DtypeMismatch`], raised before any byte stage is
    /// unwound.
    fn decompress(&self, stream: &[u8], dtype: u8) -> Result<Dataset>;

    /// Decompresses the box `origin..origin+extent`. Every array stage
    /// decodes a box: SZx and ZFP parse blocks only up to it, SZ2 and
    /// SZ3/QoZ reconstruct only what it depends on. Results are
    /// bit-identical to slicing the full decode; a box that does not fit
    /// the array is a [`CodecError::BadRegion`].
    fn decompress_region(
        &self,
        stream: &[u8],
        dtype: u8,
        origin: &[usize],
        extent: &[usize],
    ) -> Result<Dataset>;
}

/// Generic compression entry point.
pub fn compress<T: Element>(
    c: &dyn Compressor,
    data: &NdArray<T>,
    bound: ErrorBound,
) -> Result<Vec<u8>> {
    compress_view(c, data.view(), bound)
}

/// Generic zero-copy compression of a borrowed view.
pub fn compress_view<T: Element>(
    c: &dyn Compressor,
    data: ArrayView<'_, T>,
    bound: ErrorBound,
) -> Result<Vec<u8>> {
    c.compress_view(T::erase(data), bound)
}

/// Generic decompression entry point. The decoder's buffer is moved
/// into the result, so generic decompression (the per-chunk hot path of
/// the parallel decoder and the chunked store) costs no extra
/// full-array copy.
pub fn decompress<T: Element>(c: &dyn Compressor, stream: &[u8]) -> Result<NdArray<T>> {
    typed(c.decompress(stream, T::DTYPE)?)
}

/// Generic box decompression entry point
/// ([`Compressor::decompress_region`]). Always `Some` — every chain
/// decodes a box; the `Option` stays for callers written when some
/// chains could not.
pub fn decompress_region<T: Element>(
    c: &dyn Compressor,
    stream: &[u8],
    origin: &[usize],
    extent: &[usize],
) -> Result<Option<NdArray<T>>> {
    typed(c.decompress_region(stream, T::DTYPE, origin, extent)?).map(Some)
}

/// Compresses either precision of a [`Dataset`].
pub fn compress_dataset(
    c: &dyn Compressor,
    data: &Dataset,
    bound: ErrorBound,
) -> Result<Vec<u8>> {
    c.compress_view(data.view(), bound)
}

/// Decompresses any `EBLC` stream (v1 or v2) into a [`Dataset`],
/// rebuilding the decoder chain from the header's spec.
pub fn decompress_any(stream: &[u8]) -> Result<Dataset> {
    let (h, _) = header::read_stream(stream)?;
    h.chain.build()?.decompress(stream, h.dtype)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        for id in CompressorId::ALL {
            assert_eq!(CompressorId::from_u8(id as u8).unwrap(), id);
        }
        assert!(CompressorId::from_u8(0).is_err());
        assert!(CompressorId::from_u8(99).is_err());
    }

    #[test]
    fn names_match_paper_legends() {
        let names: Vec<&str> = CompressorId::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["SZ2", "SZ3", "ZFP", "QoZ", "SZx"]);
    }

    #[test]
    fn instances_carry_preset_specs() {
        for id in CompressorId::ALL {
            let c = id.instance();
            assert_eq!(c.spec(), ChainSpec::preset(id));
            assert_eq!(c.name(), id.name());
        }
    }

    #[test]
    fn relative_bound_resolution() {
        let abs = ErrorBound::Relative(1e-3).to_absolute(100.0).unwrap();
        assert!((abs - 0.1).abs() < 1e-15);
    }

    #[test]
    fn constant_data_bound_is_positive() {
        let abs = ErrorBound::Relative(1e-3).to_absolute(0.0).unwrap();
        assert!(abs > 0.0);
    }

    #[test]
    fn invalid_bounds_rejected() {
        assert!(ErrorBound::Relative(0.0).to_absolute(1.0).is_err());
        assert!(ErrorBound::Relative(-1.0).to_absolute(1.0).is_err());
        assert!(ErrorBound::Relative(2.0).to_absolute(1.0).is_err());
        assert!(ErrorBound::Relative(f64::NAN).to_absolute(1.0).is_err());
        assert!(ErrorBound::Absolute(0.0).to_absolute(1.0).is_err());
        assert!(ErrorBound::Absolute(f64::INFINITY).to_absolute(1.0).is_err());
    }

    #[test]
    fn absolute_bound_passthrough() {
        assert_eq!(ErrorBound::Absolute(0.5).to_absolute(123.0).unwrap(), 0.5);
    }
}
