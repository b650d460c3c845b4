//! Dense multi-dimensional arrays of floating-point samples.

use crate::element::Element;
use crate::shape::Shape;
use crate::view::ArrayView;

/// A dense, row-major, 1–4 dimensional array — the `Dᵢ ∈ R^{d1×…×dk}`
/// of the paper's problem formulation (§III).
#[derive(Clone, Debug, PartialEq)]
pub struct NdArray<T: Element> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Element> NdArray<T> {
    /// Wraps an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// An array of zeros (default element).
    pub fn zeros(shape: Shape) -> Self {
        Self {
            data: vec![T::default(); shape.len()],
            shape,
        }
    }

    /// Builds an array by evaluating `f` at every multi-index.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for off in 0..shape.len() {
            let idx = shape.unoffset(off);
            data.push(f(&idx[..shape.rank()]));
        }
        Self { shape, data }
    }

    /// The array's shape.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// In-memory footprint in bytes (`len × sizeof(T)`), i.e. the
    /// "Storage Size" column of the paper's Table II.
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * T::BYTES
    }

    /// Immutable view of the flat sample buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the flat sample buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the array, returning the flat buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Sample at a multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.shape.offset(idx)]
    }

    /// Writes a sample at a multi-index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: T) {
        let off = self.shape.offset(idx);
        self.data[off] = v;
    }

    /// Borrows the whole array as an [`ArrayView`].
    #[inline]
    pub fn view(&self) -> ArrayView<'_, T> {
        ArrayView::new(self.shape, &self.data)
    }

    /// Borrows `rows` consecutive dimension-0 slices starting at
    /// `start_row` as a contiguous, zero-copy [`ArrayView`] (row-major
    /// layout makes any dimension-0 slab contiguous).
    ///
    /// # Panics
    /// Panics if `start_row + rows` exceeds dimension 0 or `rows == 0`.
    pub fn slab(&self, start_row: usize, rows: usize) -> ArrayView<'_, T> {
        let d0 = self.shape.dim(0);
        assert!(
            rows > 0 && start_row + rows <= d0,
            "slab [{start_row}, {start_row}+{rows}) out of dimension 0 ({d0})"
        );
        let row_elems = self.shape.len() / d0;
        let mut dims = [0usize; crate::shape::MAX_RANK];
        dims[..self.shape.rank()].copy_from_slice(self.shape.dims());
        dims[0] = rows;
        ArrayView::new(
            Shape::new(&dims[..self.shape.rank()]),
            &self.data[start_row * row_elems..(start_row + rows) * row_elems],
        )
    }

    /// `(min, max)` over all samples; `None` for empty arrays or arrays
    /// of only NaN.
    pub fn min_max(&self) -> Option<(T, T)> {
        crate::view::slice_min_max(&self.data)
    }

    /// The value range `max − min` used by value-range relative error
    /// bounds (paper Eq. 1 as adopted by the EBLC community).
    pub fn value_range(&self) -> f64 {
        match self.min_max() {
            Some((mn, mx)) => mx.to_f64() - mn.to_f64(),
            None => 0.0,
        }
    }

    /// Serializes the samples to little-endian bytes (the uncompressed
    /// representation written by the "Original" I/O baseline).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.nbytes()];
        T::write_le_slice(&self.data, &mut out);
        out
    }

    /// Inverse of [`Self::to_le_bytes`].
    ///
    /// Returns `None` when the byte length does not match the shape.
    pub fn from_le_bytes(shape: Shape, bytes: &[u8]) -> Option<Self> {
        if bytes.len() != shape.len() * T::BYTES {
            return None;
        }
        let mut data = vec![T::default(); shape.len()];
        T::read_le_slice(bytes, &mut data);
        Some(Self { shape, data })
    }

    /// Converts every sample through `f64` into another element type
    /// (used to run double-precision S3D analogs through single-precision
    /// pipelines in ablations).
    pub fn cast<U: Element>(&self) -> NdArray<U> {
        NdArray {
            shape: self.shape,
            data: self.data.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let a = NdArray::<f32>::from_fn(Shape::d2(3, 4), |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(a.get(&[2, 3]), 23.0);
        assert_eq!(a.get(&[0, 0]), 0.0);
        assert_eq!(a.len(), 12);
        assert_eq!(a.nbytes(), 48);
    }

    #[test]
    fn min_max_ignores_nan() {
        let mut a = NdArray::<f64>::zeros(Shape::d1(4));
        a.as_mut_slice().copy_from_slice(&[3.0, f64::NAN, -1.0, 2.0]);
        assert_eq!(a.min_max(), Some((-1.0, 3.0)));
        assert_eq!(a.value_range(), 4.0);
    }

    #[test]
    fn le_bytes_roundtrip() {
        let a = NdArray::<f32>::from_fn(Shape::d3(2, 3, 4), |idx| {
            (idx[0] as f32) - 0.5 * (idx[2] as f32)
        });
        let bytes = a.to_le_bytes();
        assert_eq!(bytes.len(), a.nbytes());
        let b = NdArray::<f32>::from_le_bytes(a.shape(), &bytes).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn le_bytes_rejects_wrong_len() {
        let bytes = vec![0u8; 10];
        assert!(NdArray::<f32>::from_le_bytes(Shape::d1(3), &bytes).is_none());
    }

    #[test]
    fn set_then_get() {
        let mut a = NdArray::<f64>::zeros(Shape::d2(2, 2));
        a.set(&[1, 0], 7.5);
        assert_eq!(a.get(&[1, 0]), 7.5);
        assert_eq!(a.as_slice()[2], 7.5);
    }

    #[test]
    fn cast_f64_to_f32() {
        let a = NdArray::<f64>::from_fn(Shape::d1(5), |i| i[0] as f64 + 0.25);
        let b: NdArray<f32> = a.cast();
        assert_eq!(b.get(&[3]), 3.25f32);
    }

    #[test]
    #[should_panic]
    fn from_vec_length_mismatch() {
        let _ = NdArray::<f32>::from_vec(Shape::d1(3), vec![0.0; 4]);
    }
}
