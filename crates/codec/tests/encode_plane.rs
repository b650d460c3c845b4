//! The SZ-family encoders do not zero the thread's reconstruction plane
//! before an encode: every sample a prediction reads was written earlier
//! in the same pass. This file holds them to that. Each encode below
//! runs twice on one thread, once over a plane of zeros (what a fresh
//! plane holds) and once over a plane of NaN, and the two streams must
//! be identical, byte for byte. A prediction that read a sample its
//! pass had not written would turn that sample's NaN into an outlier
//! and change the stream. Covered: SZ2, SZ3 and QoZ, both precisions,
//! the benchmark's `[1, 32, 32, 32]` chunk and shapes that leave
//! partial blocks, short axes and unit axes.

use eblcio_codec::{compress, with_scratch, CompressorId, ErrorBound};
use eblcio_data::{Element, NdArray, Shape};

/// Replaces the thread's reconstruction plane with `n` copies of `fill`.
fn fill_plane(n: usize, fill: f64) {
    with_scratch(|s| {
        s.recon.clear();
        s.recon.resize(n, fill);
    });
}

/// A smooth field with a sprinkling of spikes, so streams carry both
/// small codes and outliers.
fn field(shape: Shape, seed: u64) -> NdArray<f32> {
    let mut x = seed | 1;
    NdArray::from_fn(shape, |i| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let at: f32 = i.iter().enumerate().map(|(d, &c)| (d as f32 + 1.0) * c as f32).sum();
        let smooth = (at * 0.13).sin() * 40.0 + at * 0.01;
        if x.is_multiple_of(29) {
            smooth + 5e3
        } else {
            smooth
        }
    })
}

/// Encodes `data` through every SZ-family preset over a zero plane and
/// over a NaN plane (sized to the input, and larger than it) and
/// compares the streams.
fn check<T: Element>(data: &NdArray<T>) {
    let n = data.len();
    for id in [CompressorId::Sz2, CompressorId::Sz3, CompressorId::Qoz] {
        let codec = id.instance();
        let encode = || compress(codec.as_ref(), data, ErrorBound::Absolute(1e-2)).unwrap();
        fill_plane(n, 0.0);
        let clean = encode();
        for plane in [n, 2 * n + 7] {
            fill_plane(plane, f64::NAN);
            let poisoned = encode();
            assert!(
                poisoned == clean,
                "{} {}: shape {:?}, a NaN plane of {plane} samples changed the stream",
                id.name(),
                T::NAME,
                data.shape().dims()
            );
        }
    }
}

fn widen(a: &NdArray<f32>) -> NdArray<f64> {
    NdArray::from_vec(a.shape(), a.as_slice().iter().map(|&v| f64::from(v)).collect())
}

#[test]
fn the_benchmark_chunk_encodes_the_same_over_a_nan_plane() {
    let chunk = field(Shape::d4(1, 32, 32, 32), 7);
    check(&chunk);
    check(&widen(&chunk));
}

#[test]
fn awkward_shapes_encode_the_same_over_a_nan_plane() {
    let shapes: [&[usize]; 11] = [
        &[1],
        &[2],
        &[257],
        &[5, 3],
        &[33, 31],
        &[9, 1, 17],
        &[8, 9, 10],
        &[3, 5, 7, 2],
        &[2, 17, 9, 5],
        &[1, 1, 1, 1],
        &[4, 33, 2, 9],
    ];
    for (seed, dims) in shapes.iter().enumerate() {
        let data = field(Shape::new(dims), seed as u64 + 11);
        check(&data);
        check(&widen(&data));
    }
}
