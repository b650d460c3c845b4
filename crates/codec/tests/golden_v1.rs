//! Golden backward-compatibility fixtures: v1 `EBLC` streams written by
//! the pre-chain (header v1) encoder, checked in as bytes, must decode
//! bit-identically through the current reader forever.
//!
//! Each fixture pair is `<codec>_<dtype>.eblc` (the compressed stream)
//! and `<codec>_<dtype>.out` (the little-endian sample bytes the seed
//! decoder produced for it). The `.out` side pins the *reconstruction*,
//! not just "decodes without error": any change to a decode path that
//! alters even one quantizer rounding shows up here.
//!
//! Regeneration is deliberately manual (see `generate_fixtures` below):
//! the fixtures exist to freeze the v1 format, so they must never be
//! rewritten by the current (v2) encoder — the version-byte assertion
//! guards against that.

use eblcio_codec::{compress, decompress, CompressorId, ErrorBound};
use eblcio_data::{NdArray, Shape};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Deterministic single-precision field (no RNG: fixtures must be
/// reproducible from source alone).
fn field_f32() -> NdArray<f32> {
    NdArray::from_fn(Shape::d3(8, 9, 10), |i| {
        (i[0] as f32 * 0.7).sin() * 40.0 + (i[1] as f32 * 0.4).cos() * 10.0 + i[2] as f32 * 0.25
    })
}

/// Deterministic double-precision field.
fn field_f64() -> NdArray<f64> {
    NdArray::from_fn(Shape::d2(16, 17), |i| {
        (i[0] as f64 * 0.3).cos() * 100.0 - (i[1] as f64 * 0.55).sin() * 25.0
    })
}

fn codec_tag(id: CompressorId) -> &'static str {
    match id {
        CompressorId::Sz2 => "sz2",
        CompressorId::Sz3 => "sz3",
        CompressorId::Zfp => "zfp",
        CompressorId::Qoz => "qoz",
        CompressorId::Szx => "szx",
    }
}

/// One-shot generator, run against the seed (v1-writer) code to produce
/// the checked-in fixtures. Kept for provenance; rerunning it under a
/// v2 writer fails the version assertion instead of silently rewriting
/// history.
#[test]
#[ignore = "fixtures are frozen; run manually only to regenerate from a v1 writer"]
fn generate_fixtures() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let f32_data = field_f32();
    let f64_data = field_f64();
    for id in CompressorId::ALL {
        let codec = id.instance();
        let s32 = compress(codec.as_ref(), &f32_data, ErrorBound::Relative(1e-3)).unwrap();
        assert_eq!(s32[4], 1, "generator must run against a v1 writer");
        let o32 = decompress::<f32>(codec.as_ref(), &s32).unwrap().to_le_bytes();
        std::fs::write(dir.join(format!("{}_f32.eblc", codec_tag(id))), &s32).unwrap();
        std::fs::write(dir.join(format!("{}_f32.out", codec_tag(id))), &o32).unwrap();

        let s64 = compress(codec.as_ref(), &f64_data, ErrorBound::Relative(1e-3)).unwrap();
        assert_eq!(s64[4], 1, "generator must run against a v1 writer");
        let o64 = decompress::<f64>(codec.as_ref(), &s64).unwrap().to_le_bytes();
        std::fs::write(dir.join(format!("{}_f64.eblc", codec_tag(id))), &s64).unwrap();
        std::fs::write(dir.join(format!("{}_f64.out", codec_tag(id))), &o64).unwrap();
    }
}

fn load(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn golden_v1_streams_decode_bit_identically() {
    for id in CompressorId::ALL {
        let tag = codec_tag(id);
        let codec = id.instance();

        let stream = load(&format!("{tag}_f32.eblc"));
        assert_eq!(stream[4], 1, "{tag}: fixture must be a v1 stream");
        let back = decompress::<f32>(codec.as_ref(), &stream)
            .unwrap_or_else(|e| panic!("{tag} f32: {e}"));
        assert_eq!(back.shape(), field_f32().shape(), "{tag} f32 shape");
        assert_eq!(back.to_le_bytes(), load(&format!("{tag}_f32.out")), "{tag} f32 bytes");

        let stream = load(&format!("{tag}_f64.eblc"));
        assert_eq!(stream[4], 1, "{tag}: fixture must be a v1 stream");
        let back = decompress::<f64>(codec.as_ref(), &stream)
            .unwrap_or_else(|e| panic!("{tag} f64: {e}"));
        assert_eq!(back.shape(), field_f64().shape(), "{tag} f64 shape");
        assert_eq!(back.to_le_bytes(), load(&format!("{tag}_f64.out")), "{tag} f64 bytes");
    }
}

#[test]
fn golden_v1_streams_route_through_decompress_any() {
    for id in CompressorId::ALL {
        let tag = codec_tag(id);
        let data = eblcio_codec::decompress_any(&load(&format!("{tag}_f32.eblc")))
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        match data {
            eblcio_data::Dataset::F32(a) => {
                assert_eq!(a.to_le_bytes(), load(&format!("{tag}_f32.out")), "{tag}")
            }
            eblcio_data::Dataset::F64(_) => panic!("{tag}: wrong dtype route"),
        }
    }
}

#[test]
fn golden_v1_streams_still_respect_the_bound() {
    // Belt and braces on top of bit-identity: the fixtures' ε contract.
    let f32_data = field_f32();
    for id in CompressorId::ALL {
        let codec = id.instance();
        let back = decompress::<f32>(codec.as_ref(), &load(&format!("{}_f32.eblc", codec_tag(id))))
            .unwrap();
        assert!(
            eblcio_data::max_rel_error(&f32_data, &back) <= 1e-3 * 1.0000001,
            "{}",
            codec_tag(id)
        );
    }
}
