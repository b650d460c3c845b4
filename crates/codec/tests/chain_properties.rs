//! Property tests for the chain refactor: the preset chains must honour
//! the same ε contract as the monolithic pipelines they replaced, and
//! byte stages must be transparent to it.

use eblcio_codec::{
    compress, decompress, ByteStageSpec, ChainSpec, CompressorId, ErrorBound,
};
use eblcio_data::{max_rel_error, NdArray, Shape};
use proptest::prelude::*;

const SLACK: f64 = 1.0000001;

fn xorshift_field(shape: Shape, seed: u64, smooth: bool) -> NdArray<f32> {
    let mut x = seed | 1;
    NdArray::from_fn(shape, |i| {
        if smooth {
            (i[0] as f32 * 0.21).sin() * 50.0
                + (i.get(1).copied().unwrap_or(0) as f32 * 0.13).cos() * 20.0
        } else {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1_000_001) as f32 / 500.0 - 1000.0
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every preset chain round-trips arbitrary fields within ε —
    /// exactly the guarantee the five monoliths used to give.
    #[test]
    fn preset_chains_roundtrip_within_epsilon(
        d0 in 1usize..40,
        d1 in 1usize..40,
        eps_exp in 1u32..5,
        codec_pick in 0usize..5,
        smooth in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let eps = 10f64.powi(-(eps_exp as i32));
        let data = xorshift_field(Shape::d2(d0, d1), seed, smooth);
        let chain = ChainSpec::preset(CompressorId::ALL[codec_pick]).build().unwrap();
        let stream = compress(&chain, &data, ErrorBound::Relative(eps)).unwrap();
        let back = decompress::<f32>(&chain, &stream).unwrap();
        prop_assert_eq!(back.shape(), data.shape());
        prop_assert!(
            max_rel_error(&data, &back) <= eps * SLACK,
            "{}: ε broken", chain.spec().label()
        );
    }

    /// Byte stages are lossless: appending any of them to a preset's
    /// array stage changes the stream, never the reconstruction bound.
    #[test]
    fn byte_stages_preserve_epsilon(
        d0 in 1usize..32,
        d1 in 1usize..32,
        codec_pick in 0usize..5,
        stage_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let spec = ChainSpec {
            array: CompressorId::ALL[codec_pick],
            bytes: vec![[
                ByteStageSpec::Lz,
                ByteStageSpec::Shuffle { element_size: 4 },
                ByteStageSpec::Fpc { element_size: 4 },
                ByteStageSpec::Fpzip { element_size: 4 },
            ][stage_pick]],
        };
        let chain = spec.build().unwrap();
        let data = xorshift_field(Shape::d2(d0, d1), seed, seed.is_multiple_of(2));
        let stream = compress(&chain, &data, ErrorBound::Relative(1e-3)).unwrap();
        let back = decompress::<f32>(&chain, &stream).unwrap();
        prop_assert!(
            max_rel_error(&data, &back) <= 1e-3 * SLACK,
            "{}: ε broken", spec.label()
        );
    }

    /// Chain specs survive the wire: encode → decode is the identity
    /// for every parseable chain.
    #[test]
    fn specs_roundtrip_the_wire(
        codec_pick in 0usize..5,
        stages in proptest::collection::vec(0usize..4, 0..4),
    ) {
        let spec = ChainSpec {
            array: CompressorId::ALL[codec_pick],
            bytes: stages
                .into_iter()
                .map(|st| {
                    [
                        ByteStageSpec::Lz,
                        ByteStageSpec::Shuffle { element_size: 8 },
                        ByteStageSpec::Fpc { element_size: 8 },
                        ByteStageSpec::Fpzip { element_size: 4 },
                    ][st]
                })
                .collect(),
        };
        let mut buf = Vec::new();
        spec.encode_into(&mut buf);
        let mut r = eblcio_codec::util::ByteReader::new(&buf);
        prop_assert_eq!(ChainSpec::decode(&mut r).unwrap(), spec);
    }
}

/// The preset chains reproduce the monolithic pipelines byte-for-byte
/// below the header: a v2 stream's payload equals what the seed encoder
/// framed in v1 (pinned separately by the golden fixtures).
#[test]
fn preset_payloads_match_generic_roundtrip() {
    let data = xorshift_field(Shape::d3(10, 11, 12), 7, true);
    for id in CompressorId::ALL {
        let chain = ChainSpec::preset(id).build().unwrap();
        let stream = compress(&chain, &data, ErrorBound::Relative(1e-3)).unwrap();
        // Generic dispatch decodes the same stream through the registry.
        let via_any = match eblcio_codec::decompress_any(&stream).unwrap() {
            eblcio_data::Dataset::F32(a) => a,
            _ => panic!("wrong dtype route"),
        };
        let direct = decompress::<f32>(&chain, &stream).unwrap();
        assert_eq!(via_any.as_slice(), direct.as_slice(), "{}", id.name());
    }
}
