//! Borrowed, zero-copy views over [`NdArray`] storage.
//!
//! The parallel compression path and the chunked store both carve a
//! field into sub-arrays before handing them to a codec. Materializing
//! each piece as an owned [`NdArray`] would copy the whole field once
//! per compression call, so codecs compress from an [`ArrayView`]: a
//! shape paired with a borrowed sample slice. A dimension-0 slab of a
//! row-major array is contiguous, which is what makes the per-thread
//! slab split of the "OpenMP mode" completely copy-free.

use crate::array::NdArray;
use crate::element::Element;
use crate::shape::Shape;

/// An immutable shaped view over a borrowed sample slice.
///
/// Mirrors the read-only half of [`NdArray`]'s API so codecs are
/// agnostic about whether they compress an owned array or a borrowed
/// sub-array.
#[derive(Clone, Copy, Debug)]
pub struct ArrayView<'a, T: Element> {
    shape: Shape,
    data: &'a [T],
}

impl<'a, T: Element> ArrayView<'a, T> {
    /// Wraps a borrowed buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.len()`.
    pub fn new(shape: Shape, data: &'a [T]) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// The view's shape.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the view holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// In-memory footprint in bytes (`len × sizeof(T)`).
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * T::BYTES
    }

    /// The borrowed flat sample buffer.
    #[inline]
    pub fn as_slice(&self) -> &'a [T] {
        self.data
    }

    /// Sample at a multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.shape.offset(idx)]
    }

    /// `(min, max)` over all finite samples; `None` for empty or all-NaN
    /// views.
    pub fn min_max(&self) -> Option<(T, T)> {
        slice_min_max(self.data)
    }

    /// The value range `max − min` used by value-range relative error
    /// bounds (paper Eq. 1).
    pub fn value_range(&self) -> f64 {
        match self.min_max() {
            Some((mn, mx)) => mx.to_f64() - mn.to_f64(),
            None => 0.0,
        }
    }

    /// Copies the viewed samples into an owned [`NdArray`].
    pub fn to_owned(&self) -> NdArray<T> {
        NdArray::from_vec(self.shape, self.data.to_vec())
    }
}

impl<'a, T: Element> From<&'a NdArray<T>> for ArrayView<'a, T> {
    fn from(a: &'a NdArray<T>) -> Self {
        a.view()
    }
}

/// `(min, max)` over the finite samples of a slice.
///
/// Eight independent lanes of plain strict compares break the compare
/// chain of an in-order scan, so the loop vectorizes. A NaN never wins
/// a compare, so NaNs drop out by themselves; an infinity can win, and a
/// zero's sign would be the first one some lane saw. Either result
/// re-scans in order (which skips non-finite samples and keeps the
/// first-seen sign of tied zeros); any other result is the in-order
/// one, since equal non-zero finite values are the same bits.
pub(crate) fn slice_min_max<T: Element>(data: &[T]) -> Option<(T, T)> {
    const LANES: usize = 8;
    let (inf, neg_inf) = (T::from_f64(f64::INFINITY), T::from_f64(f64::NEG_INFINITY));
    let lower = |a: T, b: T| if b < a { b } else { a };
    let upper = |a: T, b: T| if b > a { b } else { a };
    let mut mn = [inf; LANES];
    let mut mx = [neg_inf; LANES];
    let mut chunks = data.chunks_exact(LANES);
    for lanes in &mut chunks {
        for k in 0..LANES {
            mn[k] = lower(mn[k], lanes[k]);
            mx[k] = upper(mx[k], lanes[k]);
        }
    }
    for (k, &v) in chunks.remainder().iter().enumerate() {
        mn[k] = lower(mn[k], v);
        mx[k] = upper(mx[k], v);
    }
    let lo = mn.into_iter().fold(inf, lower);
    let hi = mx.into_iter().fold(neg_inf, upper);
    let zero = T::default();
    if !lo.is_finite() || !hi.is_finite() || lo == zero || hi == zero {
        return slice_min_max_in_order(data);
    }
    Some((lo, hi))
}

/// [`slice_min_max`] as one in-order scan.
fn slice_min_max_in_order<T: Element>(data: &[T]) -> Option<(T, T)> {
    let mut it = data.iter().copied().filter(|v| v.is_finite());
    let first = it.next()?;
    let mut mn = first;
    let mut mx = first;
    for v in it {
        if v < mn {
            mn = v;
        }
        if v > mx {
            mx = v;
        }
    }
    Some((mn, mx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_mirrors_array() {
        let a = NdArray::<f32>::from_fn(Shape::d2(3, 4), |i| (i[0] * 10 + i[1]) as f32);
        let v = a.view();
        assert_eq!(v.shape(), a.shape());
        assert_eq!(v.len(), a.len());
        assert_eq!(v.nbytes(), a.nbytes());
        assert_eq!(v.get(&[2, 3]), 23.0);
        assert_eq!(v.as_slice(), a.as_slice());
        assert_eq!(v.min_max(), a.min_max());
        assert_eq!(v.value_range(), a.value_range());
        assert_eq!(v.to_owned(), a);
    }

    #[test]
    fn slab_is_borrowed_suffix() {
        let a = NdArray::<f64>::from_fn(Shape::d3(6, 2, 2), |i| i[0] as f64);
        let s = a.slab(2, 3);
        assert_eq!(s.shape().dims(), &[3, 2, 2]);
        assert_eq!(s.as_slice(), &a.as_slice()[8..20]);
        // Same allocation, not a copy.
        assert!(std::ptr::eq(s.as_slice().as_ptr(), a.as_slice()[8..].as_ptr()));
    }

    #[test]
    fn slab_of_1d_array() {
        let a = NdArray::<f32>::from_fn(Shape::d1(10), |i| i[0] as f32);
        let s = a.slab(4, 5);
        assert_eq!(s.shape().dims(), &[5]);
        assert_eq!(s.as_slice(), &a.as_slice()[4..9]);
    }

    #[test]
    fn view_min_max_ignores_nan() {
        let mut a = NdArray::<f64>::zeros(Shape::d1(4));
        a.as_mut_slice().copy_from_slice(&[3.0, f64::NAN, -1.0, 2.0]);
        assert_eq!(a.view().min_max(), Some((-1.0, 3.0)));
    }

    #[test]
    #[should_panic]
    fn wrong_length_rejected() {
        let data = [0.0f32; 5];
        let _ = ArrayView::new(Shape::d1(4), &data);
    }

    #[test]
    #[should_panic]
    fn slab_out_of_range_rejected() {
        let a = NdArray::<f32>::zeros(Shape::d2(4, 2));
        let _ = a.slab(3, 2);
    }
}
