//! Bit-equality pins for the decode hot path: every fast decoder must
//! reproduce the frozen reference decoder's output *exactly* (to the
//! bit, not within ε), and every partial-region decode must equal the
//! corresponding slice of a whole-array decode. Fields mix smooth and
//! adversarial content — huge spikes that force raw-outlier encodings,
//! denormal-scale values, and shapes chosen to leave block/chunk-edge
//! remainders on every fast kernel's fixed-width inner loop.
//!
//! (Non-finite *inputs* are rejected by `validate_input` before any
//! codec runs, so NaN/Inf coverage lives at the payload level: spike
//! values near `f32::MAX` exercise the same raw-escape paths.)

use eblcio_codec::{
    compress, decompress, decompress_region, ChainSpec, CodecChain, CodecError, CompressorId,
    ErrorBound, Qoz, Sz2, Sz3,
};
use eblcio_data::{Element, NdArray, Shape};
use proptest::prelude::*;

/// A field with spikes, flats, and noise — every encoding mode at once.
fn adversarial_field(shape: Shape, seed: u64) -> NdArray<f32> {
    let mut x = seed | 1;
    NdArray::from_fn(shape, |i| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match x % 13 {
            // Raw-escape spikes near the float ceiling.
            0 => 1e37,
            1 => -1e37,
            // Denormal-scale values.
            2 => 1e-40,
            // A constant run (SZx constant blocks, zero ZFP blocks).
            3..=5 => 0.25,
            // Smooth, predictable content.
            6..=8 => (i[0] as f32 * 0.21).sin() * 50.0,
            // Noise.
            _ => (x % 1_000_001) as f32 / 500.0 - 1000.0,
        }
    })
}

/// A smooth field with a spike every few hundred samples: SZ2 blocks
/// split between regression and Lorenzo, ZFP blocks are coded with a
/// handful raw.
fn smooth_field(shape: Shape, seed: u64) -> NdArray<f32> {
    let mut x = seed | 1;
    NdArray::from_fn(shape, |i| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x.is_multiple_of(389) {
            return 1e37;
        }
        let phase: f32 = i.iter().enumerate().map(|(d, &c)| c as f32 * (0.07 + 0.05 * d as f32)).sum();
        phase.sin() * 40.0 + (phase * 0.31).cos() * 9.0
    })
}

fn widen(single: &NdArray<f32>) -> NdArray<f64> {
    let wide = single.as_slice().iter().map(|&v| f64::from(v)).collect();
    NdArray::from_vec(single.shape(), wide)
}

fn reference_chain(id: CompressorId) -> Option<CodecChain> {
    match id {
        CompressorId::Sz2 => Some(CodecChain::around(Box::new(Sz2::reference_decoder()))),
        CompressorId::Sz3 => Some(CodecChain::around(Box::new(Sz3::reference_decoder()))),
        CompressorId::Qoz => Some(CodecChain::around(Box::new(Qoz::reference_decoder()))),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast decoders (batched Huffman, scratch arenas, vectorized and
    /// row-wise kernels) are bit-identical to the frozen reference
    /// decoders on every codec that carries one, across shapes with
    /// remainders, in both precisions.
    #[test]
    fn fast_decode_is_bit_identical_to_reference(
        d0 in 1usize..70,
        d1 in 1usize..70,
        eps_exp in 1u32..6,
        codec_pick in 0usize..5,
        double in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let id = CompressorId::ALL[codec_pick];
        let eps = 10f64.powi(-(eps_exp as i32));
        let data = adversarial_field(Shape::d2(d0, d1), seed);
        if double {
            check_fast_against_reference(id, &widen(&data), eps);
        } else {
            check_fast_against_reference(id, &data, eps);
        }
    }
}

fn check_fast_against_reference<T: Element>(id: CompressorId, data: &NdArray<T>, eps: f64) {
    let codec = id.instance();
    let stream = compress(codec.as_ref(), data, ErrorBound::Relative(eps)).unwrap();
    let fast: NdArray<T> = decompress(codec.as_ref(), &stream).unwrap();
    if let Some(reference) = reference_chain(id) {
        let slow: NdArray<T> = decompress(&reference, &stream).unwrap();
        for (i, (a, b)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} {} {} fast != reference at {i}",
                id.name(),
                T::NAME,
                data.shape()
            );
        }
    }
    // And the decode is deterministic (arena reuse leaks nothing
    // between decodes).
    let again: NdArray<T> = decompress(codec.as_ref(), &stream).unwrap();
    assert!(fast.as_slice().iter().zip(again.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()));
}

/// The benchmark's own chunk geometry — a time-sliced `[1, 32, 32, 32]`
/// chunk, so every block is left-padded through a unit axis — with a
/// sub-box aligned to no block edge: fast against reference on all five
/// presets and region against slice on the partial chains, in both
/// precisions, on adversarial and on mostly smooth content.
#[test]
fn benchmark_chunk_geometry_is_bit_identical_too() {
    let shape = Shape::new(&[1, 32, 32, 32]);
    let (origin, extent) = ([0usize, 5, 3, 9], [1usize, 13, 17, 11]);
    for single in [adversarial_field(shape, 23), smooth_field(shape, 23)] {
        let wide = widen(&single);
        for id in CompressorId::ALL {
            check_fast_against_reference(id, &single, 1e-3);
            check_fast_against_reference(id, &wide, 1e-3);
        }
        for chain in PARTIAL_CHAINS {
            check_region_slice(chain, &single, &origin, &extent);
            check_region_slice(chain, &wide, &origin, &extent);
        }
    }
}

proptest! {
    // 4 chains × 2 precisions × 2 ranks: enough cases to reach each.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Partial-region decode equals the same slice of a whole decode,
    /// bit for bit, for any in-bounds region — including 1-sample
    /// regions and regions pinned to block-edge remainders — in both
    /// precisions, in 2-D and 3-D, with and without byte stages to
    /// unwind in front of the array stage.
    #[test]
    fn region_decode_matches_whole_decode_slice(
        dims in (1usize..48, 1usize..48, 1usize..10),
        rank3 in any::<bool>(),
        o_frac in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        e_frac in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        chain_pick in 0usize..PARTIAL_CHAINS.len(),
        double in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let rank = if rank3 { 3 } else { 2 };
        let dims = [dims.0, dims.1, dims.2];
        let o_frac = [o_frac.0, o_frac.1, o_frac.2];
        let e_frac = [e_frac.0, e_frac.1, e_frac.2];
        let mut origin = [0usize; 3];
        let mut extent = [0usize; 3];
        for d in 0..rank {
            origin[d] = ((dims[d] as f64 * o_frac[d]) as usize).min(dims[d] - 1);
            let room = dims[d] - origin[d];
            extent[d] = ((room as f64 * e_frac[d]) as usize).clamp(1, room);
        }
        let chain = PARTIAL_CHAINS[chain_pick];
        let (origin, extent) = (&origin[..rank], &extent[..rank]);
        let single = adversarial_field(Shape::new(&dims[..rank]), seed);
        if double {
            check_region_slice(chain, &widen(&single), origin, extent);
        } else {
            check_region_slice(chain, &single, origin, extent);
        }
    }
}

/// Chains whose array stage decodes regions: the two presets, SZx
/// behind one byte stage, ZFP behind two.
const PARTIAL_CHAINS: [&str; 4] = ["szx", "zfp", "szx+lz", "zfp+shuffle4+lz"];

fn check_region_slice<T: Element>(
    chain: &str,
    data: &NdArray<T>,
    origin: &[usize],
    extent: &[usize],
) {
    let codec = ChainSpec::parse(chain).unwrap().build().unwrap();
    let stream = compress(&codec, data, ErrorBound::Relative(1e-3)).unwrap();
    let full: NdArray<T> = decompress(&codec, &stream).unwrap();
    let part = decompress_region::<T>(&codec, &stream, origin, extent)
        .unwrap()
        .expect("SZx/ZFP support partial decode");
    assert_eq!(part.shape(), Shape::new(extent));
    let mut at = vec![0usize; extent.len()];
    for (i, got) in part.as_slice().iter().enumerate() {
        let mut rest = i;
        for d in (0..extent.len()).rev() {
            at[d] = origin[d] + rest % extent[d];
            rest /= extent[d];
        }
        assert_eq!(
            got.to_bits(),
            full.get(&at).to_bits(),
            "{chain} {} region mismatch at {at:?}",
            T::NAME
        );
    }
}

/// Higher-rank pins for the fused interpolation decoder: rank ≥ 2
/// exercises its fixed-stencil runs along non-innermost axes, which the
/// 2-D proptests only reach for axis 0 of 2. Odd extents leave
/// remainder lattices on every level.
#[test]
fn fast_decode_matches_reference_in_3d_and_4d() {
    for (dims, seed) in [
        (&[17usize, 9, 23][..], 11u64),
        (&[8, 8, 8][..], 5),
        (&[33, 1, 12][..], 88),
        (&[5, 7, 3, 6][..], 42),
    ] {
        let data = adversarial_field(Shape::new(dims), seed);
        for id in [CompressorId::Sz3, CompressorId::Qoz] {
            let codec = id.instance();
            let stream = compress(codec.as_ref(), &data, ErrorBound::Relative(1e-4)).unwrap();
            let fast: NdArray<f32> = decompress(codec.as_ref(), &stream).unwrap();
            let reference = reference_chain(id).unwrap();
            let slow: NdArray<f32> = decompress(&reference, &stream).unwrap();
            for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} {dims:?} fast != reference", id.name());
            }
        }
    }
}

#[test]
fn region_decode_rejects_out_of_bounds_and_rank_mismatch() {
    let data = adversarial_field(Shape::d2(20, 20), 7);
    let codec = CompressorId::Szx.instance();
    let stream = compress(codec.as_ref(), &data, ErrorBound::Relative(1e-3)).unwrap();
    for (origin, extent) in [
        (&[0usize, 0][..], &[21usize, 1][..]), // extent past the edge
        (&[20, 0][..], &[1, 1][..]),           // origin at the edge
        (&[0][..], &[5][..]),                  // rank mismatch
        (&[0, 0][..], &[0, 4][..]),            // empty extent
        (&[usize::MAX, 0][..], &[2, 1][..]),   // origin + extent wraps to 1
    ] {
        let r = decompress_region::<f32>(codec.as_ref(), &stream, origin, extent);
        assert!(
            matches!(r, Err(CodecError::BadRegion { .. })),
            "origin {origin:?} extent {extent:?} must be rejected"
        );
    }
}

/// Codecs without partial support answer `None`, never garbage.
#[test]
fn non_partial_codecs_return_none_for_regions() {
    let data = adversarial_field(Shape::d2(16, 16), 3);
    for id in [CompressorId::Sz2, CompressorId::Sz3, CompressorId::Qoz] {
        let codec = id.instance();
        let stream = compress(codec.as_ref(), &data, ErrorBound::Relative(1e-3)).unwrap();
        let r = decompress_region::<f32>(codec.as_ref(), &stream, &[2, 2], &[4, 4]).unwrap();
        assert!(r.is_none(), "{}", id.name());
    }
}
