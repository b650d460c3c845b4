//! Floating-point element abstraction.
//!
//! The paper's data sets mix single precision (CESM, HACC, NYX) and
//! double precision (S3D). Every codec and metric in the workspace is
//! generic over this trait so both precisions flow through the same
//! pipelines, exactly as LibPressio dispatches over `pressio_dtype`.
//!
//! The trait is also the workspace's one dtype seam. Generic code meets
//! an object-safe boundary (a `dyn Compressor`, a `dyn ArrayStage`) by
//! erasing its `ArrayView<T>` into a [`DatasetView`] with
//! [`Element::erase`]; what comes back is a [`Dataset`], which
//! [`Element::unerase`] moves — never copies — into the `NdArray<T>`
//! the caller asked for. On the far side of the boundary the precision
//! is recovered by [`dispatch_dtype!`](crate::dispatch_dtype) — the one
//! spelling of "the same body for `F32` and for `F64`" — either from
//! the enum variant or from the [`Element::DTYPE`] tag containers
//! record.

use crate::array::NdArray;
use crate::generators::{Dataset, DatasetView};
use crate::view::ArrayView;

/// A scientific floating-point sample type (`f32` or `f64`).
///
/// The trait exposes the handful of operations the codecs need: lossless
/// bit transport (for outliers and lossless baselines), `f64` round-trips
/// (predictions and quantization are carried out in `f64`, as SZ does
/// internally), and byte serialization for the I/O layer.
pub trait Element:
    Copy
    + Send
    + Sync
    + PartialOrd
    + std::fmt::Debug
    + std::fmt::Display
    + Default
    + 'static
{
    /// Unsigned integer with the same bit width.
    type Bits: Copy + Eq + std::hash::Hash + std::fmt::Debug + Send + Sync;

    /// Size of one sample in bytes (4 or 8).
    const BYTES: usize;
    /// Number of explicit mantissa bits (23 or 52).
    const MANTISSA_BITS: u32;
    /// Human-readable precision label used in reports ("f32"/"f64").
    const NAME: &'static str;
    /// The tag containers and the wire record for this type (0 = f32,
    /// 1 = f64).
    const DTYPE: u8;

    /// Lossless conversion to raw bits.
    fn to_bits(self) -> Self::Bits;
    /// Lossless conversion from raw bits.
    fn from_bits(b: Self::Bits) -> Self;
    /// Widening conversion to `f64` (exact for both supported types'
    /// typical data ranges; `f32 -> f64` is always exact).
    fn to_f64(self) -> f64;
    /// Narrowing conversion from `f64` (rounds for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Appends the little-endian byte representation to `out`.
    fn write_le(self, out: &mut Vec<u8>);
    /// Reads a sample from a little-endian byte slice.
    ///
    /// Returns `None` when fewer than [`Self::BYTES`] bytes remain.
    fn read_le(bytes: &[u8]) -> Option<Self>;
    /// Writes `src` as little-endian bytes over `dst` — bit for bit
    /// what [`Element::write_le`] appends per sample, as one loop the
    /// compiler turns into a block copy on little-endian targets.
    ///
    /// # Panics
    /// Panics unless `dst.len() == src.len() * Self::BYTES`.
    fn write_le_slice(src: &[Self], dst: &mut [u8]);
    /// Inverse of [`Element::write_le_slice`]: fills `dst` from
    /// little-endian bytes.
    ///
    /// # Panics
    /// Panics unless `src.len() == dst.len() * Self::BYTES`.
    fn read_le_slice(src: &[u8], dst: &mut [Self]);
    /// IEEE-754 "finite" check.
    fn is_finite(self) -> bool;

    /// Erases a typed view into the dtype-tagged [`DatasetView`].
    fn erase(view: ArrayView<'_, Self>) -> DatasetView<'_>;
    /// Moves the array out of a [`Dataset`] of this precision; a data
    /// set of the other precision comes back untouched.
    fn unerase(data: Dataset) -> Result<NdArray<Self>, Dataset>;
}

impl Element for f32 {
    type Bits = u32;
    const BYTES: usize = 4;
    const MANTISSA_BITS: u32 = 23;
    const NAME: &'static str = "f32";
    const DTYPE: u8 = 0;

    #[inline]
    fn to_bits(self) -> u32 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(b: u32) -> Self {
        f32::from_bits(b)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Option<Self> {
        Some(f32::from_le_bytes(bytes.get(..4)?.try_into().ok()?))
    }
    #[inline]
    fn write_le_slice(src: &[Self], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len() * 4, "byte buffer does not match sample count");
        for (d, s) in dst.chunks_exact_mut(4).zip(src) {
            d.copy_from_slice(&s.to_le_bytes());
        }
    }
    #[inline]
    fn read_le_slice(src: &[u8], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len() * 4, "byte buffer does not match sample count");
        for (d, s) in dst.iter_mut().zip(src.chunks_exact(4)) {
            *d = f32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        }
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline]
    fn erase(view: ArrayView<'_, Self>) -> DatasetView<'_> {
        DatasetView::F32(view)
    }
    #[inline]
    fn unerase(data: Dataset) -> Result<NdArray<Self>, Dataset> {
        match data {
            Dataset::F32(a) => Ok(a),
            other => Err(other),
        }
    }
}

impl Element for f64 {
    type Bits = u64;
    const BYTES: usize = 8;
    const MANTISSA_BITS: u32 = 52;
    const NAME: &'static str = "f64";
    const DTYPE: u8 = 1;

    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(b: u64) -> Self {
        f64::from_bits(b)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Option<Self> {
        Some(f64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
    }
    #[inline]
    fn write_le_slice(src: &[Self], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len() * 8, "byte buffer does not match sample count");
        for (d, s) in dst.chunks_exact_mut(8).zip(src) {
            d.copy_from_slice(&s.to_le_bytes());
        }
    }
    #[inline]
    fn read_le_slice(src: &[u8], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len() * 8, "byte buffer does not match sample count");
        for (d, s) in dst.iter_mut().zip(src.chunks_exact(8)) {
            *d = f64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]);
        }
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn erase(view: ArrayView<'_, Self>) -> DatasetView<'_> {
        DatasetView::F64(view)
    }
    #[inline]
    fn unerase(data: Dataset) -> Result<NdArray<Self>, Dataset> {
        match data {
            Dataset::F64(a) => Ok(a),
            other => Err(other),
        }
    }
}

/// Runs one body for whichever of the two precisions a value holds.
///
/// *By variant* — `dispatch_dtype!(Dataset(a) = value => body)` runs
/// `body` with `a` bound to the payload of whichever of the enum's
/// `F32`/`F64` variants `value` holds ([`Dataset`], [`DatasetView`], or
/// any enum with those two variant names).
///
/// *By tag* — `dispatch_dtype!(E = tag => body)` runs `body` with the
/// type alias `E` naming the element type whose [`Element::DTYPE`] is
/// `tag`, and yields `Some(body)`; a tag naming no element type yields
/// `None`.
#[macro_export]
macro_rules! dispatch_dtype {
    ($($Enum:ident)::+($a:pat) = $value:expr => $body:expr) => {
        match $value {
            $($Enum)::+::F32($a) => $body,
            $($Enum)::+::F64($a) => $body,
        }
    };
    ($E:ident = $tag:expr => $body:expr) => {
        match $tag {
            <f32 as $crate::Element>::DTYPE => {
                type $E = f32;
                Some($body)
            }
            <f64 as $crate::Element>::DTYPE => {
                type $E = f64;
                Some($body)
            }
            _ => None,
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_bits<T: Element + PartialEq>(v: T) {
        assert_eq!(T::from_bits(v.to_bits()), v);
    }

    #[test]
    fn bits_roundtrip() {
        roundtrip_bits(1.5f32);
        roundtrip_bits(-0.0f32);
        roundtrip_bits(std::f64::consts::PI);
        roundtrip_bits(f64::MIN_POSITIVE);
    }

    #[test]
    fn le_roundtrip_f32() {
        let mut buf = Vec::new();
        1234.5678f32.write_le(&mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(f32::read_le(&buf), Some(1234.5678f32));
        assert_eq!(f32::read_le(&buf[..3]), None);
    }

    #[test]
    fn le_roundtrip_f64() {
        let mut buf = Vec::new();
        (-9.87654321e100f64).write_le(&mut buf);
        assert_eq!(buf.len(), 8);
        assert_eq!(f64::read_le(&buf), Some(-9.87654321e100f64));
    }

    #[test]
    fn constants_consistent() {
        assert_eq!(f32::BYTES * 8, 32);
        assert_eq!(f64::BYTES * 8, 64);
        assert_eq!(f32::MANTISSA_BITS, 23);
        assert_eq!(f64::MANTISSA_BITS, 52);
    }

    #[test]
    fn f64_narrowing() {
        let x = f32::from_f64(1.0 / 3.0);
        assert!((x as f64 - 1.0 / 3.0).abs() < 1e-7);
    }

    #[test]
    fn erase_and_unerase_are_inverse_moves() {
        use crate::Shape;
        let a = NdArray::<f64>::from_fn(Shape::d2(3, 4), |i| (i[0] * 4 + i[1]) as f64);
        let ptr = a.as_slice().as_ptr();
        assert!(matches!(f64::erase(a.view()), DatasetView::F64(_)));
        let d = Dataset::from(a);
        assert_eq!(d.dtype(), f64::DTYPE);
        // The wrong precision hands the data set back untouched…
        let d = f32::unerase(d).unwrap_err();
        // …and the right one moves the buffer, no copy.
        assert_eq!(f64::unerase(d).unwrap().as_slice().as_ptr(), ptr);
    }

    #[test]
    fn dispatch_by_tag_names_the_element_type() {
        assert_eq!(dispatch_dtype!(E = 0u8 => (E::NAME, E::BYTES)), Some(("f32", 4)));
        assert_eq!(dispatch_dtype!(E = 1u8 => (E::NAME, E::BYTES)), Some(("f64", 8)));
        assert_eq!(dispatch_dtype!(E = 2u8 => E::NAME), None);
    }
}
