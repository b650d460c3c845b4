//! Property-based tests (proptest) on the core invariants:
//!
//! * the EBLC contract — ∀ data, ε, codec: max value-range relative
//!   error ≤ ε after a round-trip,
//! * losslessness of every lossless stage on arbitrary bytes,
//! * shape/index bijectivity,
//! * statistical machinery sanity.

use eblcio::codec::stage::build_byte_stage;
use eblcio::codec::{huffman, lz};
use eblcio::prelude::*;
use proptest::prelude::*;

/// Arbitrary small shapes of rank 1–3 (rank 4 covered by unit tests;
/// keeping the sample volume low keeps the suite fast).
fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (1usize..400).prop_map(Shape::d1),
        ((1usize..24), (1usize..24)).prop_map(|(a, b)| Shape::d2(a, b)),
        ((1usize..10), (1usize..10), (1usize..10)).prop_map(|(a, b, c)| Shape::d3(a, b, c)),
    ]
}

/// Arbitrary finite f32 fields over a shape: mixture of smooth ramps and
/// bounded noise, plus occasional extreme magnitudes.
fn arb_field() -> impl Strategy<Value = NdArray<f32>> {
    (arb_shape(), any::<u64>(), -20i32..20).prop_map(|(shape, seed, mag)| {
        let scale = 2f32.powi(mag);
        let mut x = seed | 1;
        NdArray::from_fn(shape, |idx| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let noise = ((x % 1000) as f32 / 1000.0 - 0.5) * 0.3;
            let ramp = idx.iter().sum::<usize>() as f32 * 0.05;
            (ramp + noise) * scale
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn eblc_contract_holds_for_every_codec(
        data in arb_field(),
        eps_exp in 1u32..6,
    ) {
        let eps = 10f64.powi(-(eps_exp as i32));
        for id in CompressorId::ALL {
            let codec = id.instance();
            let stream = compress_dataset(
                codec.as_ref(),
                &Dataset::F32(data.clone()),
                ErrorBound::Relative(eps),
            )
            .unwrap();
            let back = decompress::<f32>(codec.as_ref(), &stream).unwrap();
            prop_assert_eq!(back.shape(), data.shape());
            let err = max_rel_error(&data, &back);
            prop_assert!(
                err <= eps * 1.0000001 + f64::EPSILON,
                "{} violated eps {eps:e}: err {err:e} on shape {}",
                id.name(),
                data.shape()
            );
        }
    }

    #[test]
    fn eblc_contract_holds_for_f64(
        data in arb_field(),
        eps_exp in 1u32..6,
    ) {
        let eps = 10f64.powi(-(eps_exp as i32));
        let data64: NdArray<f64> = data.cast();
        // Rotate codecs by content hash to bound runtime while covering
        // all five across the run.
        let pick = (data64.len() + eps_exp as usize) % CompressorId::ALL.len();
        let id = CompressorId::ALL[pick];
        let codec = id.instance();
        let stream = compress_dataset(
            codec.as_ref(),
            &Dataset::F64(data64.clone()),
            ErrorBound::Relative(eps),
        )
        .unwrap();
        let back = decompress::<f64>(codec.as_ref(), &stream).unwrap();
        let err = max_rel_error(&data64, &back);
        prop_assert!(err <= eps * 1.0000001 + f64::EPSILON, "{}: {err:e}", id.name());
    }

    #[test]
    fn lossless_baselines_are_lossless(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        // Fig. 1's four pipelines, at the f32 and the f64 width.
        for element_size in [4, 8] {
            for specs in [
                vec![ByteStageSpec::Lz],
                vec![ByteStageSpec::Shuffle { element_size }, ByteStageSpec::Lz],
                vec![ByteStageSpec::Fpzip { element_size }],
                vec![ByteStageSpec::Fpc { element_size }],
            ] {
                let stages: Vec<_> = specs.iter().map(|&s| build_byte_stage(s)).collect();
                let packed = stages.iter().fold(bytes.clone(), |b, st| st.forward(&b));
                let back = stages.iter().rev().try_fold(packed, |b, st| st.inverse(&b)).unwrap();
                prop_assert_eq!(&back, &bytes, "{:?}", specs);
            }
        }
    }

    #[test]
    fn lz_roundtrip_arbitrary(bytes in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let c = lz::compress(&bytes);
        prop_assert_eq!(lz::decompress(&c).unwrap(), bytes);
    }

    #[test]
    fn huffman_roundtrip_arbitrary(symbols in proptest::collection::vec(0u32..100_000, 0..2048)) {
        let enc = huffman::encode_block(&symbols);
        let (dec, used) = huffman::decode_block(&enc).unwrap();
        prop_assert_eq!(dec, symbols);
        prop_assert_eq!(used, enc.len());
    }

    #[test]
    fn shape_offset_bijective(shape in arb_shape(), k in any::<usize>()) {
        let off = k % shape.len();
        let idx = shape.unoffset(off);
        prop_assert_eq!(shape.offset(&idx[..shape.rank()]), off);
    }

    #[test]
    fn le_bytes_roundtrip(data in arb_field()) {
        let bytes = data.to_le_bytes();
        let back = NdArray::<f32>::from_le_bytes(data.shape(), &bytes).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn compressed_stream_is_self_describing(data in arb_field()) {
        let codec = CompressorId::Szx.instance();
        let stream = compress_dataset(
            codec.as_ref(),
            &Dataset::F32(data.clone()),
            ErrorBound::Relative(1e-3),
        )
        .unwrap();
        // decompress_any must recover shape and dtype with no side
        // channel.
        let back = decompress_any(&stream).unwrap();
        prop_assert_eq!(back.shape(), data.shape());
        prop_assert!(matches!(back, Dataset::F32(_)));
    }

    #[test]
    fn corrupting_one_byte_never_yields_wrong_data_silently(
        data in arb_field(),
        flip_pos in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        // CRC-protected container: a random single-bit flip must either
        // error out or (if it lands in pre-CRC framing that redundantly
        // matches) never produce an out-of-bound reconstruction.
        let codec = CompressorId::Sz3.instance();
        let stream = compress_dataset(
            codec.as_ref(),
            &Dataset::F32(data.clone()),
            ErrorBound::Relative(1e-2),
        )
        .unwrap();
        let mut bad = stream.clone();
        let pos = flip_pos % bad.len();
        bad[pos] ^= 1 << flip_bit;
        if bad == stream {
            return Ok(());
        }
        match decompress::<f32>(codec.as_ref(), &bad) {
            Err(_) => {}
            Ok(recon) => {
                // Flip landed in mutable-but-checked header fields
                // (e.g. the recorded abs bound). Accept only if shape
                // still matches and values decode; silent *structural*
                // corruption is what we forbid.
                prop_assert_eq!(recon.len(), data.len());
            }
        }
    }
}

#[test]
fn inflate_preserves_range_and_corners_proptest_lite() {
    // Deterministic mini-sweep (inflate is O(k^rank · n)).
    for seed in 0..8u64 {
        let mut x = seed * 0x9E3779B9 + 1;
        let a = NdArray::<f32>::from_fn(Shape::d2(7, 9), |_| {
            x ^= x << 13;
            x ^= x >> 7;
            (x % 997) as f32
        });
        for k in 1..=3 {
            let b = eblcio::data::inflate::inflate(&a, k);
            let (amin, amax) = a.min_max().unwrap();
            let (bmin, bmax) = b.min_max().unwrap();
            assert!(bmin >= amin && bmax <= amax);
            assert_eq!(b.get(&[0, 0]), a.get(&[0, 0]));
        }
    }
}
