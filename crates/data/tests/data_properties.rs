//! Property tests for the data crate: shape algebra, serialization,
//! metric identities, and the statistics machinery.

use eblcio_data::{
    inflate::inflate, max_abs_error, max_rel_error, mse, psnr, Element, NdArray, RunningStats,
    Shape,
};
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (1usize..500).prop_map(Shape::d1),
        ((1usize..30), (1usize..30)).prop_map(|(a, b)| Shape::d2(a, b)),
        ((1usize..12), (1usize..12), (1usize..12)).prop_map(|(a, b, c)| Shape::d3(a, b, c)),
        ((1usize..6), (1usize..6), (1usize..6), (1usize..6))
            .prop_map(|(a, b, c, d)| Shape::d4(a, b, c, d)),
    ]
}

/// Raw bit patterns with the awkward ones over-represented: NaNs with
/// payloads (quiet and signalling), ±0, ±∞ and subnormals, in both
/// widths at once (the f32 pattern is the low half).
fn arb_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        any::<u64>().prop_map(|b| b | 0x7FF0_0000_7F80_0000),
        any::<u64>().prop_map(|b| b & 0x800F_FFFF_807F_FFFF),
        (0u64..4).prop_map(|k| [0, 0x8000_0000_8000_0000, 0x7FF0_0000_7F80_0000, 1][k as usize]),
    ]
}

/// The slice kernels against the per-sample `write_le`/`read_le` they
/// replace, compared as bits so NaN payloads and −0.0 count.
fn slice_kernels_match_per_element<T: Element>(samples: &[T]) {
    let mut per_element = Vec::new();
    for &v in samples {
        v.write_le(&mut per_element);
    }
    let mut bytes = vec![0xAAu8; samples.len() * T::BYTES];
    T::write_le_slice(samples, &mut bytes);
    assert_eq!(bytes, per_element);

    let mut back = vec![T::default(); samples.len()];
    T::read_le_slice(&bytes, &mut back);
    for ((chunk, got), want) in bytes.chunks_exact(T::BYTES).zip(&back).zip(samples) {
        assert_eq!(T::read_le(chunk).map(T::to_bits), Some(got.to_bits()));
        assert_eq!(got.to_bits(), want.to_bits());
    }
}

/// Sample bits for the min/max scan: ordinary values with many ties and
/// zeros of both signs, mixed with the awkward patterns of [`arb_bits`].
fn arb_scan_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        arb_bits(),
        (-4i32..5).prop_map(|v| {
            let (wide, narrow) = (v as f64 / 2.0, v as f32 / 2.0);
            wide.to_bits() & !0xFFFF_FFFF | narrow.to_bits() as u64
        }),
        (0u64..2).prop_map(|k| [0, 0x8000_0000_8000_0000][k as usize]),
    ]
}

/// The in-order scan `min_max` must agree with, bit for bit: the first
/// finite sample starts both ends, and only a strictly smaller (larger)
/// sample replaces the min (max), so a zero keeps its first-seen sign.
fn in_order_min_max<T: Element>(data: &[T]) -> Option<(T::Bits, T::Bits)> {
    let mut it = data.iter().copied().filter(|v| v.is_finite());
    let first = it.next()?;
    let (mut mn, mut mx) = (first, first);
    for v in it {
        if v < mn {
            mn = v;
        }
        if v > mx {
            mx = v;
        }
    }
    Some((mn.to_bits(), mx.to_bits()))
}

/// Checks `min_max` on `samples` as given (`sign` 0), or with every
/// non-zero finite sample made positive (1) or negative (2), so that a
/// zero is the min or the max.
fn min_max_matches_in_order<T: Element>(mut samples: Vec<T>, sign: u8) {
    if sign != 0 {
        for v in samples.iter_mut().filter(|v| v.is_finite() && v.to_f64() != 0.0) {
            let mag = v.to_f64().abs();
            *v = T::from_f64(if sign == 1 { mag } else { -mag });
        }
    }
    let want = in_order_min_max(&samples);
    let a = NdArray::from_vec(Shape::d1(samples.len()), samples);
    assert_eq!(a.min_max().map(|(lo, hi)| (lo.to_bits(), hi.to_bits())), want);
}

fn arb_array() -> impl Strategy<Value = NdArray<f64>> {
    (arb_shape(), any::<u64>()).prop_map(|(shape, seed)| {
        let mut x = seed | 1;
        NdArray::from_fn(shape, |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 2_000_001) as f64 / 1000.0 - 1000.0
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn strides_and_offsets_consistent(shape in arb_shape()) {
        let strides = shape.strides();
        // Row-major: stride of the last dim is 1; products telescope.
        prop_assert_eq!(strides[shape.rank() - 1], 1);
        for d in 0..shape.rank() - 1 {
            prop_assert_eq!(strides[d], strides[d + 1] * shape.dim(d + 1));
        }
        // Last index maps to len-1.
        let last: Vec<usize> = shape.dims().iter().map(|&d| d - 1).collect();
        prop_assert_eq!(shape.offset(&last), shape.len() - 1);
    }

    #[test]
    fn unoffset_is_left_inverse(shape in arb_shape(), k in any::<usize>()) {
        let off = k % shape.len();
        let idx = shape.unoffset(off);
        prop_assert_eq!(shape.offset(&idx[..shape.rank()]), off);
        // And indices are in range.
        for (d, &i) in idx.iter().enumerate().take(shape.rank()) {
            prop_assert!(i < shape.dim(d));
        }
    }

    #[test]
    fn le_roundtrip_f64(a in arb_array()) {
        let bytes = a.to_le_bytes();
        prop_assert_eq!(bytes.len(), a.nbytes());
        let b = NdArray::<f64>::from_le_bytes(a.shape(), &bytes).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn le_slice_kernels_are_bit_identical_to_per_element(
        bits in proptest::collection::vec(arb_bits(), 0..68),
    ) {
        let wide: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let narrow: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b as u32)).collect();
        slice_kernels_match_per_element(&wide);
        slice_kernels_match_per_element(&narrow);
    }

    #[test]
    fn min_max_is_bit_identical_to_the_in_order_scan(
        bits in proptest::collection::vec(arb_scan_bits(), 1..150),
        sign in 0u8..3,
    ) {
        min_max_matches_in_order(bits.iter().map(|&b| f64::from_bits(b)).collect(), sign);
        min_max_matches_in_order(bits.iter().map(|&b| f32::from_bits(b as u32)).collect(), sign);
    }

    #[test]
    fn metric_identities(a in arb_array()) {
        // Self-comparison identities.
        prop_assert_eq!(mse(&a, &a), 0.0);
        prop_assert_eq!(max_abs_error(&a, &a), 0.0);
        prop_assert!(psnr(&a, &a).is_infinite());
        prop_assert!(max_rel_error(&a, &a) <= 0.0 + f64::EPSILON);
    }

    #[test]
    fn metric_symmetry_and_positivity(a in arb_array(), delta in -5.0f64..5.0) {
        if delta == 0.0 {
            return Ok(());
        }
        let mut b = a.clone();
        for v in b.as_mut_slice() {
            *v += delta;
        }
        // MSE is symmetric; abs error equals |delta| for constant shift.
        prop_assert!((mse(&a, &b) - mse(&b, &a)).abs() < 1e-9);
        prop_assert!((max_abs_error(&a, &b) - delta.abs()).abs() < 1e-9);
        prop_assert!(mse(&a, &b) > 0.0);
    }

    #[test]
    fn inflate_len_and_range(a in arb_array(), k in 1usize..3) {
        // Limit volume: skip very large sources.
        if a.len() > 4000 {
            return Ok(());
        }
        let b = inflate(&a, k);
        prop_assert_eq!(b.len(), a.len() * k.pow(a.shape().rank() as u32));
        let (amin, amax) = a.min_max().unwrap();
        let (bmin, bmax) = b.min_max().unwrap();
        prop_assert!(bmin >= amin - 1e-9 && bmax <= amax + 1e-9);
    }

    #[test]
    fn running_stats_match_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var.abs()));
        // CI half-width is nonnegative and shrinks if we replicate data.
        prop_assert!(s.ci95().half_width >= 0.0);
    }

    #[test]
    fn psnr_monotone_in_noise(a in arb_array(), scale in 0.01f64..1.0) {
        if a.value_range() < 1e-6 {
            return Ok(());
        }
        let mut small = a.clone();
        let mut large = a.clone();
        let mut x = 123u64;
        for (s, l) in small.as_mut_slice().iter_mut().zip(large.as_mut_slice().iter_mut()) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let noise = (x % 1000) as f64 / 1000.0 - 0.5;
            *s += noise * scale;
            *l += noise * scale * 10.0;
        }
        prop_assert!(psnr(&a, &small) >= psnr(&a, &large) - 1e-9);
    }
}
