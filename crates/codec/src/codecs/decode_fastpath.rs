//! Bit-equality pins for the decode hot path: every fast SZ-family
//! decoder must reproduce the frozen reference decoders' output
//! ([`decompress_reference`]) *exactly* (to the bit, not within ε), and
//! every partial-region decode must equal the
//! corresponding slice of a whole-array decode — on every preset. Fields mix smooth and
//! adversarial content — huge spikes that force raw-outlier encodings,
//! denormal-scale values, and shapes chosen to leave block/chunk-edge
//! remainders on every fast kernel's fixed-width inner loop.
//!
//! (Non-finite *inputs* are rejected by `validate_input` before any
//! codec runs, so NaN/Inf coverage lives at the payload level: spike
//! values near `f32::MAX` exercise the same raw-escape paths.)
//!
//! Unit tests, not an integration test: the reference decoders
//! (`codecs::reference`) are test-only code. The recorded inputs are
//! pinned separately, by `tests/decode_golden.rs`.

use super::common::SzPayload;
use super::reference::decompress_reference;
use crate::header::{read_stream, write_stream};
use crate::stage::{decode_array_region, encode_array};
use crate::util::ByteReader;
use crate::{
    compress, decompress, decompress_region, with_scratch, ArrayStage, ChainSpec, CodecError,
    CompressorId, ErrorBound, Qoz, Sz2, Sz3, Szx, Zfp,
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

/// The codecs [`decompress_reference`] has a frozen decoder for.
fn has_reference(id: CompressorId) -> bool {
    matches!(id, CompressorId::Sz2 | CompressorId::Sz3 | CompressorId::Qoz)
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
    if has_reference(id) {
        let slow: NdArray<T> = decompress_reference(&stream).unwrap();
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
/// sub-box aligned to no block edge, a one-sample box and whole-minus-one
/// boxes: fast against reference on all five presets and region against
/// slice on every chain, in both precisions, on adversarial and on
/// mostly smooth content.
#[test]
fn benchmark_chunk_geometry_is_bit_identical_too() {
    let shape = Shape::new(&[1, 32, 32, 32]);
    let boxes: [([usize; 4], [usize; 4]); 4] = [
        ([0, 5, 3, 9], [1, 13, 17, 11]),
        ([0, 31, 0, 17], [1, 1, 1, 1]),
        ([0, 0, 0, 0], [1, 31, 31, 31]),
        ([0, 1, 1, 1], [1, 31, 31, 31]),
    ];
    for single in [adversarial_field(shape, 23), smooth_field(shape, 23)] {
        let wide = widen(&single);
        for id in CompressorId::ALL {
            check_fast_against_reference(id, &single, 1e-3);
            check_fast_against_reference(id, &wide, 1e-3);
        }
        for chain in REGION_CHAINS {
            for (origin, extent) in &boxes {
                check_region_slice(chain, &single, origin, extent);
                check_region_slice(chain, &wide, origin, extent);
            }
        }
    }
}

/// Axis lengths the region proptest draws from, per rank: unit axes,
/// and lengths on both sides of every codec's block edge (SZ2's 256,
/// 16, 8 and 6 per rank, ZFP's 4 — every residue mod 4 in each row —
/// SZx's 128 flat, the interpolation levels' powers of two).
const DIMS: [[usize; 8]; 4] = [
    [1, 7, 128, 129, 255, 257, 302, 513],
    [1, 4, 5, 8, 15, 16, 17, 34],
    [1, 3, 4, 5, 8, 9, 10, 17],
    [1, 2, 4, 5, 6, 7, 8, 13],
];

proptest! {
    // 8 chains × 2 precisions × 4 ranks × 5 box kinds × 2 length
    // sources: enough cases to reach each.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Partial-region decode equals the same slice of a whole decode,
    /// bit for bit, for any in-bounds region — random boxes, one-sample
    /// boxes, whole-minus-one boxes from either end, the whole array —
    /// in both precisions, at ranks 1–4 with unit axes and lengths off
    /// every block edge (from `DIMS`, or at ranks 2–3 any length below
    /// 48, 10 on the third axis), with and without byte stages to unwind
    /// in front of the array stage.
    #[test]
    fn region_decode_matches_whole_decode_slice(
        rank in 1usize..5,
        picks in (0usize..8, 0usize..8, 0usize..8, 0usize..8),
        free in (1usize..48, 1usize..48, 1usize..10),
        from_menu in any::<bool>(),
        box_kind in 0usize..5,
        o_frac in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        e_frac in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        chain_pick in 0usize..REGION_CHAINS.len(),
        double in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let picks = [picks.0, picks.1, picks.2, picks.3];
        let o_frac = [o_frac.0, o_frac.1, o_frac.2, o_frac.3];
        let e_frac = [e_frac.0, e_frac.1, e_frac.2, e_frac.3];
        let dims: Vec<usize> = if from_menu || !(2..=3).contains(&rank) {
            (0..rank).map(|d| DIMS[rank - 1][picks[d]]).collect()
        } else {
            [free.0, free.1, free.2][..rank].to_vec()
        };
        let mut origin = vec![0usize; rank];
        let mut extent = dims.clone();
        for d in 0..rank {
            let spare = usize::from(dims[d] > 1);
            match box_kind {
                0 => {
                    origin[d] = ((dims[d] as f64 * o_frac[d]) as usize).min(dims[d] - 1);
                    let room = dims[d] - origin[d];
                    extent[d] = ((room as f64 * e_frac[d]) as usize).clamp(1, room);
                }
                1 => {
                    origin[d] = ((dims[d] as f64 * o_frac[d]) as usize).min(dims[d] - 1);
                    extent[d] = 1;
                }
                2 => extent[d] -= spare,
                3 => {
                    origin[d] = spare;
                    extent[d] -= spare;
                }
                _ => {}
            }
        }
        let chain = REGION_CHAINS[chain_pick];
        let single = adversarial_field(Shape::new(&dims), seed);
        if double {
            check_region_slice(chain, &widen(&single), &origin, &extent);
        } else {
            check_region_slice(chain, &single, &origin, &extent);
        }
    }
}

/// Fills the thread's reconstruction plane with `n` NaNs. SZ2, SZ3 and
/// QoZ decode over that plane without zeroing it first, so a region
/// decode that read a sample its own pass had not written would carry a
/// NaN, or a value of the last decode, into its output.
fn poison_plane(n: usize) {
    with_scratch(|s| {
        s.recon.clear();
        s.recon.resize(n, f64::NAN);
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A region decode over a plane full of NaN — a widening that
    /// stopped a sample short would read one — still equals the slice
    /// of the whole decode, bit for bit: any box of the benchmark's
    /// `[1, 32, 32, 32]` chunk, through SZ2, SZ3 and QoZ, in both
    /// precisions, on adversarial and on mostly smooth content.
    #[test]
    fn region_decodes_read_nothing_an_earlier_decode_left(
        origin in (0usize..32, 0usize..32, 0usize..32),
        e_frac in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        codec_pick in 0usize..3,
        double in any::<bool>(),
        smooth in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let origin = [0, origin.0, origin.1, origin.2];
        let mut extent = [1usize; 4];
        for (d, f) in [(1, e_frac.0), (2, e_frac.1), (3, e_frac.2)] {
            let room = 32 - origin[d];
            extent[d] = ((room as f64 * f) as usize).clamp(1, room);
        }
        let shape = Shape::new(&[1, 32, 32, 32]);
        let single = if smooth { smooth_field(shape, seed) } else { adversarial_field(shape, seed) };
        let chain = ["sz2", "sz3", "qoz"][codec_pick];
        if double {
            check_region_slice(chain, &widen(&single), &origin, &extent);
        } else {
            check_region_slice(chain, &single, &origin, &extent);
        }
    }
}

/// Chains whose array stage decodes regions: the five presets, and
/// three of them behind byte stages that must be unwound first.
const REGION_CHAINS: [&str; 8] =
    ["sz2", "sz3", "qoz", "zfp", "szx", "szx+lz", "zfp+shuffle4+lz", "sz3+shuffle4+lz"];

/// Compresses `data` through `chain` and checks a decode of the box,
/// over a poisoned plane ([`poison_plane`]), against the same slice of
/// the whole decode, bit for bit.
fn check_region_slice<T: Element>(
    chain: &str,
    data: &NdArray<T>,
    origin: &[usize],
    extent: &[usize],
) {
    let codec = ChainSpec::parse(chain).unwrap().build().unwrap();
    let stream = compress(&codec, data, ErrorBound::Relative(1e-3)).unwrap();
    let full: NdArray<T> = decompress(&codec, &stream).unwrap();
    poison_plane(data.len());
    let part = decompress_region::<T>(&codec, &stream, origin, extent)
        .unwrap()
        .expect("every preset decodes regions");
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
            "{chain} {} {} region {origin:?}+{extent:?} mismatch at {at:?}",
            T::NAME,
            data.shape()
        );
    }
}

/// Array-stage payloads past the checksum: cut at every byte, or with
/// one bit flipped, a region decode returns a typed error and never
/// panics. A cut that leaves everything the box needs — ZFP and SZx
/// read their block streams only up to the box's last block — may
/// instead decode, and then to the intact bits.
#[test]
fn damaged_payloads_give_region_decodes_a_typed_error() {
    let shape = Shape::new(&[2, 9, 10, 7]);
    let (origin, extent) = ([1usize, 2, 3, 1], [1usize, 5, 6, 4]);
    let single = adversarial_field(shape, 31);
    let stages: [Box<dyn ArrayStage>; 5] = [
        Box::new(Sz2),
        Box::new(Sz3),
        Box::new(Qoz),
        Box::new(Zfp),
        Box::new(Szx),
    ];
    for stage in &stages {
        check_damage(stage.as_ref(), &single, &origin, &extent);
        check_damage(stage.as_ref(), &widen(&single), &origin, &extent);
    }
}

fn check_damage<T: Element>(
    stage: &dyn ArrayStage,
    data: &NdArray<T>,
    origin: &[usize],
    extent: &[usize],
) {
    let abs = 1e-3 * data.value_range();
    let (payload, abs) = encode_array(stage, data.view(), abs).unwrap();
    let shape = data.shape();
    let region = |bytes: &[u8]| decode_array_region::<T>(stage, bytes, shape, abs, origin, extent);
    let intact = region(&payload).unwrap();
    let name = stage.id().name();
    for cut in 0..payload.len() {
        if let Ok(part) = region(&payload[..cut]) {
            assert!(
                part.as_slice()
                    .iter()
                    .zip(intact.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name} {}: cut at {cut} of {} decoded different bits",
                T::NAME,
                payload.len()
            );
        }
    }
    let mut flipped = payload.clone();
    for bit in (0..payload.len() * 8).step_by(7) {
        flipped[bit / 8] ^= 0x80 >> (bit % 8);
        let _ = region(&flipped);
        flipped[bit / 8] ^= 0x80 >> (bit % 8);
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
            let slow: NdArray<f32> = decompress_reference(&stream).unwrap();
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

/// `stream`, an SZ2 stream, with the blocks `lorenzo` picks switched to
/// Lorenzo prediction: their mode bits cleared and their regression
/// coefficients dropped from the side channel, the LZ stage redone and
/// the stream re-sealed. The codes stay as the encoder wrote them, so
/// the decoder takes its Lorenzo path on blocks the encoder scored for
/// regression.
fn force_lorenzo(stream: &[u8], rank: usize, mut lorenzo: impl FnMut(usize) -> bool) -> Vec<u8> {
    let (header, payload) = read_stream(stream).unwrap();
    let mut p = SzPayload::decode(payload).unwrap();
    let mut r = ByteReader::new(&p.extra);
    let n_blocks = r.varint("sz2 block count").unwrap() as usize;
    let bits_at = r.position();
    let coefs_at = bits_at + n_blocks.div_ceil(8);
    let coef_len = 4 * (rank + 1);
    let mut extra = p.extra[..coefs_at].to_vec();
    let mut coefs = p.extra[coefs_at..].chunks_exact(coef_len);
    for b in 0..n_blocks {
        let bit = 0x80 >> (b % 8);
        if extra[bits_at + b / 8] & bit == 0 {
            continue;
        }
        let coef = coefs.next().unwrap();
        if lorenzo(b) {
            extra[bits_at + b / 8] &= !bit;
        } else {
            extra.extend_from_slice(coef);
        }
    }
    assert!(coefs.next().is_none() && coefs.remainder().is_empty());
    p.extra = extra;
    write_stream(&header, &p.encode())
}

/// Decodes a forced-Lorenzo SZ2 stream whole through the fast and the
/// reference decoder, and the box through the fast region decode over a
/// poisoned plane: the same bits, or the same typed error. Returns
/// whether it decoded.
fn check_forced<T: Element>(stream: &[u8], origin: &[usize], extent: &[usize]) -> bool {
    let codec = CompressorId::Sz2.instance();
    let slow = decompress_reference::<T>(stream);
    let fast = decompress::<T>(codec.as_ref(), stream);
    let slow = match (slow, fast) {
        (Ok(slow), Ok(fast)) => {
            for (i, (a, b)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{} {} fast != reference at {i}", T::NAME, slow.shape());
            }
            slow
        }
        (Err(slow), Err(fast)) => {
            assert_eq!(fast, slow);
            return false;
        }
        (slow, fast) => panic!("reference {:?}, fast {:?}", slow.err(), fast.err()),
    };
    poison_plane(slow.len());
    let part = decompress_region::<T>(codec.as_ref(), stream, origin, extent).unwrap().unwrap();
    let mut at = vec![0usize; extent.len()];
    for (i, got) in part.as_slice().iter().enumerate() {
        let mut rest = i;
        for d in (0..extent.len()).rev() {
            at[d] = origin[d] + rest % extent[d];
            rest /= extent[d];
        }
        assert_eq!(got.to_bits(), slow.get(&at).to_bits(), "{} box {origin:?}+{extent:?} at {at:?}", T::NAME);
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SZ2's Lorenzo decode path, forced: the encoder scores each block's
    /// Lorenzo prediction with the stencil the decoder uses, so a broken
    /// stencil would only make the encoder pick regression, and the
    /// drawn-input tests above would never reach it. Here every block
    /// (or a drawn subset of them) is rewritten to Lorenzo after the
    /// encode, and the fast decoder must still match the reference
    /// decoder bit for bit, whole and by box, at ranks 1–4 with lengths
    /// off every block edge, in both precisions. Streams that force every
    /// block must decode.
    #[test]
    fn forced_lorenzo_blocks_decode_as_the_reference_does(
        rank in 1usize..5,
        picks in (0usize..8, 0usize..8, 0usize..8, 0usize..8),
        o_frac in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        e_frac in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        every_block in any::<bool>(),
        smooth in any::<bool>(),
        double in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let picks = [picks.0, picks.1, picks.2, picks.3];
        let o_frac = [o_frac.0, o_frac.1, o_frac.2, o_frac.3];
        let e_frac = [e_frac.0, e_frac.1, e_frac.2, e_frac.3];
        let dims: Vec<usize> = (0..rank).map(|d| DIMS[rank - 1][picks[d]]).collect();
        let mut origin = vec![0usize; rank];
        let mut extent = dims.clone();
        for d in 0..rank {
            origin[d] = ((dims[d] as f64 * o_frac[d]) as usize).min(dims[d] - 1);
            let room = dims[d] - origin[d];
            extent[d] = ((room as f64 * e_frac[d]) as usize).clamp(1, room);
        }
        let shape = Shape::new(&dims);
        let single = if smooth { smooth_field(shape, seed) } else { adversarial_field(shape, seed) };
        let codec = CompressorId::Sz2.instance();
        let mut x = seed | 1;
        let mut pick = |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            every_block || x & 1 == 1
        };
        let decoded = if double {
            let stream = compress(codec.as_ref(), &widen(&single), ErrorBound::Relative(1e-3)).unwrap();
            check_forced::<f64>(&force_lorenzo(&stream, rank, &mut pick), &origin, &extent)
        } else {
            let stream = compress(codec.as_ref(), &single, ErrorBound::Relative(1e-3)).unwrap();
            check_forced::<f32>(&force_lorenzo(&stream, rank, &mut pick), &origin, &extent)
        };
        prop_assert!(decoded || !every_block, "an all-Lorenzo stream failed to decode");
    }
}
