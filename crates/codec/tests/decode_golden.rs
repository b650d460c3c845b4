//! Golden *decoder* digests: the byte length and CRC-32 of what every
//! stream of `encode_golden.rs` decodes to — the whole array, and for
//! every input whose block grid has more than one row (every input of
//! rank ≥ 2) one box aligned to no block edge — plus the symbols of its
//! Huffman blocks. `encode_golden.rs` pins what the encoders write; this
//! pins what the decoders make of it, so a decode-side change that moves
//! one reconstructed sample fails tier-1, with or without a frozen
//! reference decoder beside it.
//!
//! The table was recorded from the decoders as they stood before ZFP
//! payloads gained their block-row index: the index moves no sample.
//! On a mismatch the test prints the full table the current decoders
//! produce.
//!
//! Three of its inputs are streams no current encoder writes — SZ3 with
//! linear stencils only, ZFP at a fixed 20 bitplanes, QoZ after its
//! PSNR search — checked in under `tests/fixtures/` as
//! `<variant>_<dtype>.eblc` by the encoders that wrote them. Each
//! decodes through the chain its own header names.

mod golden_inputs;

use eblcio_codec::header::read_stream;
use eblcio_codec::{compress, decompress, decompress_region, huffman, Compressor};
use eblcio_data::{Element, NdArray, Shape};
use golden_inputs::{check_table, digest, huffman_inputs, inputs, Field, Input};
use std::path::PathBuf;

/// The box a multi-row input decodes besides the whole array: from a
/// third of each axis, half its length (at least one sample).
fn golden_box(shape: Shape) -> (Vec<usize>, Vec<usize>) {
    let origin: Vec<usize> = shape.dims().iter().map(|&d| d / 3).collect();
    let extent = shape.dims().iter().zip(&origin).map(|(&d, &o)| (d / 2).clamp(1, d - o)).collect();
    (origin, extent)
}

fn decode_rows<T: Element>(
    label: &str,
    codec: &dyn Compressor,
    stream: &[u8],
    rows: &mut Vec<(String, usize, u32)>,
) -> NdArray<T> {
    let label = format!("{label}/{}", T::NAME);
    let whole = decompress::<T>(codec, stream).unwrap_or_else(|e| panic!("{label}: {e}"));
    let (len, crc) = digest(&whole.to_le_bytes());
    rows.push((format!("{label}/whole"), len, crc));
    let shape = whole.shape();
    if shape.rank() >= 2 {
        let (origin, extent) = golden_box(shape);
        let part = decompress_region::<T>(codec, stream, &origin, &extent)
            .unwrap_or_else(|e| panic!("{label} box: {e}"))
            .expect("every chain decodes boxes");
        let (len, crc) = digest(&part.to_le_bytes());
        rows.push((format!("{label}/box"), len, crc));
    }
    whole
}

/// The rows of one preset input: its field encoded, then decoded.
fn preset_rows<T: Element>(input: &Input, rows: &mut Vec<(String, usize, u32)>) {
    let codec = input.codec.as_ref();
    let data = input.field.generate::<T>(input.shape);
    let stream = compress(codec, &data, input.bound)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", input.label, T::NAME));
    decode_rows::<T>(&input.label, codec, &stream, rows);
}

/// The variants whose streams are fixtures, in table order.
const VARIANTS: [&str; 3] = ["sz3-linear", "zfp-prec20", "qoz-psnr70"];

/// The checked-in variant streams: `(label, dtype, stream length,
/// CRC-32)`, the digests the encoders that wrote them recorded. All
/// three encode the smooth field over `20x21x22` at ε = 10⁻³.
const FIXTURES: [(&str, &str, usize, u32); 6] = [
    ("sz3-linear", "f32", 3167, 0x6ba04dc4),
    ("sz3-linear", "f64", 3167, 0x921eb1c6),
    ("zfp-prec20", "f32", 6122, 0x0c6fc821),
    ("zfp-prec20", "f64", 6122, 0x73a74d64),
    ("qoz-psnr70", "f32", 1548, 0x526e8e5d),
    ("qoz-psnr70", "f64", 1548, 0xed90367b),
];

/// A fixture stream, checked against its recorded digest.
fn fixture(variant: &str, dtype: &str) -> Vec<u8> {
    let name = format!("{variant}_{dtype}.eblc");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(&name);
    let stream = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let want = FIXTURES.iter().find(|f| f.0 == variant && f.1 == dtype).map(|f| (f.2, f.3));
    assert_eq!(Some(digest(&stream)), want, "{name} is not the recorded stream");
    stream
}

/// Decodes one fixture through the chain its header names, returning
/// the header's recorded bound beside the samples.
fn decode_fixture<T: Element>(variant: &str, rows: &mut Vec<(String, usize, u32)>) -> (NdArray<T>, f64) {
    let stream = fixture(variant, T::NAME);
    let (header, _) = read_stream(&stream).unwrap();
    let codec = header.chain.build().unwrap();
    let label = format!("{variant}/smooth/20x21x22/rel1e-3");
    (decode_rows::<T>(&label, &codec, &stream, rows), header.abs_bound)
}

#[test]
fn decoded_samples_match_the_recorded_digests() {
    let mut rows = Vec::new();
    for input in inputs() {
        preset_rows::<f32>(&input, &mut rows);
        preset_rows::<f64>(&input, &mut rows);
    }
    for variant in VARIANTS {
        decode_fixture::<f32>(variant, &mut rows);
        decode_fixture::<f64>(variant, &mut rows);
    }
    for (label, symbols) in huffman_inputs() {
        let (codes, _) = huffman::decode_block(&huffman::encode_block(&symbols)).unwrap();
        assert_eq!(codes, symbols, "{label}");
        let bytes: Vec<u8> = codes.iter().flat_map(|c| c.to_le_bytes()).collect();
        let (len, crc) = digest(&bytes);
        rows.push((label.to_string(), len, crc));
    }
    check_table("decoded output", &rows, GOLDEN);
}

/// Every fixture decodes to within the bound its header records of the
/// field it encoded: ε's share of the range for SZ3, the loosened bound
/// QoZ's search settled on, and for fixed-precision ZFP the maximum
/// error its encoder measured.
#[test]
fn fixture_streams_stay_within_their_recorded_bound() {
    fn check<T: Element>(variant: &str) {
        let original = Field::Smooth.generate::<T>(Shape::d3(20, 21, 22));
        let (back, bound) = decode_fixture::<T>(variant, &mut Vec::new());
        let worst = original
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max);
        assert!(worst <= bound, "{variant} {}: error {worst} over {bound}", T::NAME);
    }
    for variant in VARIANTS {
        check::<f32>(variant);
        check::<f64>(variant);
    }
}

/// `(label, decoded byte length, CRC-32)`, recorded before the ZFP
/// block-row index.
const GOLDEN: &[(&str, usize, u32)] = &[
    ("sz2/smooth/1023/rel1e-2/f32/whole", 4092, 0x81afd597),
    ("sz2/smooth/1023/rel1e-2/f64/whole", 8184, 0x083739f7),
    ("sz2/smooth/1023/rel1e-4/f32/whole", 4092, 0x16b82ebf),
    ("sz2/smooth/1023/rel1e-4/f64/whole", 8184, 0xb36ed3bf),
    ("sz2/smooth/33x17/rel1e-2/f32/whole", 2244, 0xdf27e54f),
    ("sz2/smooth/33x17/rel1e-2/f32/box", 512, 0xf8db4ffe),
    ("sz2/smooth/33x17/rel1e-2/f64/whole", 4488, 0x5ca685af),
    ("sz2/smooth/33x17/rel1e-2/f64/box", 1024, 0xd86b7b08),
    ("sz2/smooth/33x17/rel1e-4/f32/whole", 2244, 0x918e0547),
    ("sz2/smooth/33x17/rel1e-4/f32/box", 512, 0x199a9616),
    ("sz2/smooth/33x17/rel1e-4/f64/whole", 4488, 0xc4f5c50f),
    ("sz2/smooth/33x17/rel1e-4/f64/box", 1024, 0x2ab3ca85),
    ("sz2/smooth/20x21x22/rel1e-2/f32/whole", 36960, 0xbd409224),
    ("sz2/smooth/20x21x22/rel1e-2/f32/box", 4400, 0x27688d71),
    ("sz2/smooth/20x21x22/rel1e-2/f64/whole", 73920, 0x947732ce),
    ("sz2/smooth/20x21x22/rel1e-2/f64/box", 8800, 0x60861a9b),
    ("sz2/smooth/20x21x22/rel1e-4/f32/whole", 36960, 0x9e21c297),
    ("sz2/smooth/20x21x22/rel1e-4/f32/box", 4400, 0xf71bf85c),
    ("sz2/smooth/20x21x22/rel1e-4/f64/whole", 73920, 0x0e635b3e),
    ("sz2/smooth/20x21x22/rel1e-4/f64/box", 8800, 0x8d22cb25),
    ("sz2/smooth/1x32x32x32/rel1e-2/f32/whole", 131072, 0x911d5e2a),
    ("sz2/smooth/1x32x32x32/rel1e-2/f32/box", 16384, 0x0e1453f5),
    ("sz2/smooth/1x32x32x32/rel1e-2/f64/whole", 262144, 0x820d8d79),
    ("sz2/smooth/1x32x32x32/rel1e-2/f64/box", 32768, 0xa8b7e14a),
    ("sz2/smooth/1x32x32x32/rel1e-4/f32/whole", 131072, 0x8950f22e),
    ("sz2/smooth/1x32x32x32/rel1e-4/f32/box", 16384, 0x38bdfcb3),
    ("sz2/smooth/1x32x32x32/rel1e-4/f64/whole", 262144, 0x35a6d6c4),
    ("sz2/smooth/1x32x32x32/rel1e-4/f64/box", 32768, 0xc24c7ceb),
    ("sz2/smooth/3x5x6x7/rel1e-2/f32/whole", 2520, 0x3948b40c),
    ("sz2/smooth/3x5x6x7/rel1e-2/f32/box", 72, 0xfb12a76c),
    ("sz2/smooth/3x5x6x7/rel1e-2/f64/whole", 5040, 0x84537b7f),
    ("sz2/smooth/3x5x6x7/rel1e-2/f64/box", 144, 0xd3e61e27),
    ("sz2/smooth/3x5x6x7/rel1e-4/f32/whole", 2520, 0x54d18eaa),
    ("sz2/smooth/3x5x6x7/rel1e-4/f32/box", 72, 0xd3d3e25d),
    ("sz2/smooth/3x5x6x7/rel1e-4/f64/whole", 5040, 0xf2ee0cfb),
    ("sz2/smooth/3x5x6x7/rel1e-4/f64/box", 144, 0xff3982f5),
    ("sz2/smooth/1x32x32x32/abs0.05/f32/whole", 131072, 0x3460f4d9),
    ("sz2/smooth/1x32x32x32/abs0.05/f32/box", 16384, 0x518ee976),
    ("sz2/smooth/1x32x32x32/abs0.05/f64/whole", 262144, 0x269b73ed),
    ("sz2/smooth/1x32x32x32/abs0.05/f64/box", 32768, 0x724debd8),
    ("sz2/rough/20x21x22/rel1e-7/f32/whole", 36960, 0x65df1c05),
    ("sz2/rough/20x21x22/rel1e-7/f32/box", 4400, 0xc30c528e),
    ("sz2/rough/20x21x22/rel1e-7/f64/whole", 73920, 0x438bed3d),
    ("sz2/rough/20x21x22/rel1e-7/f64/box", 8800, 0x806ce786),
    ("sz2/spike/20x21x22/abs0.01/f32/whole", 36960, 0x16b1b9d1),
    ("sz2/spike/20x21x22/abs0.01/f32/box", 4400, 0x8124ae3a),
    ("sz2/spike/20x21x22/abs0.01/f64/whole", 73920, 0x8427f09f),
    ("sz2/spike/20x21x22/abs0.01/f64/box", 8800, 0x43c0ec3a),
    ("sz2/constant/20x21x22/rel1e-3/f32/whole", 36960, 0x35787e50),
    ("sz2/constant/20x21x22/rel1e-3/f32/box", 4400, 0x9424a5d4),
    ("sz2/constant/20x21x22/rel1e-3/f64/whole", 73920, 0xa33c6fbf),
    ("sz2/constant/20x21x22/rel1e-3/f64/box", 8800, 0xf30b2c50),
    ("sz3/smooth/1023/rel1e-2/f32/whole", 4092, 0x40b24cb1),
    ("sz3/smooth/1023/rel1e-2/f64/whole", 8184, 0x020dc2ff),
    ("sz3/smooth/1023/rel1e-4/f32/whole", 4092, 0x38f35445),
    ("sz3/smooth/1023/rel1e-4/f64/whole", 8184, 0x0d6b0e2d),
    ("sz3/smooth/33x17/rel1e-2/f32/whole", 2244, 0xe22e0c7e),
    ("sz3/smooth/33x17/rel1e-2/f32/box", 512, 0x0968ffab),
    ("sz3/smooth/33x17/rel1e-2/f64/whole", 4488, 0x0ba9e22e),
    ("sz3/smooth/33x17/rel1e-2/f64/box", 1024, 0xa365ae5a),
    ("sz3/smooth/33x17/rel1e-4/f32/whole", 2244, 0xd0186f60),
    ("sz3/smooth/33x17/rel1e-4/f32/box", 512, 0x5b4201f3),
    ("sz3/smooth/33x17/rel1e-4/f64/whole", 4488, 0x89e61942),
    ("sz3/smooth/33x17/rel1e-4/f64/box", 1024, 0xe8bbe707),
    ("sz3/smooth/20x21x22/rel1e-2/f32/whole", 36960, 0xb18869d1),
    ("sz3/smooth/20x21x22/rel1e-2/f32/box", 4400, 0x0ea834c5),
    ("sz3/smooth/20x21x22/rel1e-2/f64/whole", 73920, 0xbc45e9ef),
    ("sz3/smooth/20x21x22/rel1e-2/f64/box", 8800, 0x02e74a80),
    ("sz3/smooth/20x21x22/rel1e-4/f32/whole", 36960, 0x538aa766),
    ("sz3/smooth/20x21x22/rel1e-4/f32/box", 4400, 0x35ab0147),
    ("sz3/smooth/20x21x22/rel1e-4/f64/whole", 73920, 0xb4f06318),
    ("sz3/smooth/20x21x22/rel1e-4/f64/box", 8800, 0x17aa08e5),
    ("sz3/smooth/1x32x32x32/rel1e-2/f32/whole", 131072, 0x9d9b79d0),
    ("sz3/smooth/1x32x32x32/rel1e-2/f32/box", 16384, 0x2a45e074),
    ("sz3/smooth/1x32x32x32/rel1e-2/f64/whole", 262144, 0xe70efb35),
    ("sz3/smooth/1x32x32x32/rel1e-2/f64/box", 32768, 0x23d02357),
    ("sz3/smooth/1x32x32x32/rel1e-4/f32/whole", 131072, 0x613ca311),
    ("sz3/smooth/1x32x32x32/rel1e-4/f32/box", 16384, 0x7a82d3d8),
    ("sz3/smooth/1x32x32x32/rel1e-4/f64/whole", 262144, 0x37dedb03),
    ("sz3/smooth/1x32x32x32/rel1e-4/f64/box", 32768, 0x94349617),
    ("sz3/smooth/3x5x6x7/rel1e-2/f32/whole", 2520, 0x264b3f73),
    ("sz3/smooth/3x5x6x7/rel1e-2/f32/box", 72, 0xf42fa0d0),
    ("sz3/smooth/3x5x6x7/rel1e-2/f64/whole", 5040, 0xd748dd22),
    ("sz3/smooth/3x5x6x7/rel1e-2/f64/box", 144, 0x613a47e3),
    ("sz3/smooth/3x5x6x7/rel1e-4/f32/whole", 2520, 0x9e6c1d78),
    ("sz3/smooth/3x5x6x7/rel1e-4/f32/box", 72, 0x5bb3319d),
    ("sz3/smooth/3x5x6x7/rel1e-4/f64/whole", 5040, 0xc75232f5),
    ("sz3/smooth/3x5x6x7/rel1e-4/f64/box", 144, 0xd11d8f47),
    ("sz3/smooth/1x32x32x32/abs0.05/f32/whole", 131072, 0x15d9b3c8),
    ("sz3/smooth/1x32x32x32/abs0.05/f32/box", 16384, 0x184a47c0),
    ("sz3/smooth/1x32x32x32/abs0.05/f64/whole", 262144, 0x4fbd9972),
    ("sz3/smooth/1x32x32x32/abs0.05/f64/box", 32768, 0x89a1d903),
    ("sz3/rough/20x21x22/rel1e-7/f32/whole", 36960, 0x129f18d2),
    ("sz3/rough/20x21x22/rel1e-7/f32/box", 4400, 0x2b52d3c9),
    ("sz3/rough/20x21x22/rel1e-7/f64/whole", 73920, 0x1e80ffbb),
    ("sz3/rough/20x21x22/rel1e-7/f64/box", 8800, 0x10b1f5fe),
    ("sz3/spike/20x21x22/abs0.01/f32/whole", 36960, 0x262ef7ce),
    ("sz3/spike/20x21x22/abs0.01/f32/box", 4400, 0xe6be7ffd),
    ("sz3/spike/20x21x22/abs0.01/f64/whole", 73920, 0x2c74946c),
    ("sz3/spike/20x21x22/abs0.01/f64/box", 8800, 0x3c8dbbd8),
    ("sz3/constant/20x21x22/rel1e-3/f32/whole", 36960, 0x35787e50),
    ("sz3/constant/20x21x22/rel1e-3/f32/box", 4400, 0x9424a5d4),
    ("sz3/constant/20x21x22/rel1e-3/f64/whole", 73920, 0xa33c6fbf),
    ("sz3/constant/20x21x22/rel1e-3/f64/box", 8800, 0xf30b2c50),
    ("zfp/smooth/1023/rel1e-2/f32/whole", 4092, 0xab77c78a),
    ("zfp/smooth/1023/rel1e-2/f64/whole", 8184, 0x2cd7431e),
    ("zfp/smooth/1023/rel1e-4/f32/whole", 4092, 0xcdad5734),
    ("zfp/smooth/1023/rel1e-4/f64/whole", 8184, 0xd04d9eea),
    ("zfp/smooth/33x17/rel1e-2/f32/whole", 2244, 0xb15a5011),
    ("zfp/smooth/33x17/rel1e-2/f32/box", 512, 0x29b520bb),
    ("zfp/smooth/33x17/rel1e-2/f64/whole", 4488, 0x60a81637),
    ("zfp/smooth/33x17/rel1e-2/f64/box", 1024, 0x5c9eac95),
    ("zfp/smooth/33x17/rel1e-4/f32/whole", 2244, 0x0ab0dc9c),
    ("zfp/smooth/33x17/rel1e-4/f32/box", 512, 0x2dff19c8),
    ("zfp/smooth/33x17/rel1e-4/f64/whole", 4488, 0x6fde2f5c),
    ("zfp/smooth/33x17/rel1e-4/f64/box", 1024, 0x4efffe46),
    ("zfp/smooth/20x21x22/rel1e-2/f32/whole", 36960, 0xab4b08c8),
    ("zfp/smooth/20x21x22/rel1e-2/f32/box", 4400, 0xba6e2328),
    ("zfp/smooth/20x21x22/rel1e-2/f64/whole", 73920, 0x35c29bbd),
    ("zfp/smooth/20x21x22/rel1e-2/f64/box", 8800, 0xc3992c20),
    ("zfp/smooth/20x21x22/rel1e-4/f32/whole", 36960, 0x536ee25b),
    ("zfp/smooth/20x21x22/rel1e-4/f32/box", 4400, 0x17992905),
    ("zfp/smooth/20x21x22/rel1e-4/f64/whole", 73920, 0x5659aed1),
    ("zfp/smooth/20x21x22/rel1e-4/f64/box", 8800, 0x4a88c29f),
    ("zfp/smooth/1x32x32x32/rel1e-2/f32/whole", 131072, 0xe4893e75),
    ("zfp/smooth/1x32x32x32/rel1e-2/f32/box", 16384, 0xfb08719d),
    ("zfp/smooth/1x32x32x32/rel1e-2/f64/whole", 262144, 0x47f1fc0f),
    ("zfp/smooth/1x32x32x32/rel1e-2/f64/box", 32768, 0x423cd115),
    ("zfp/smooth/1x32x32x32/rel1e-4/f32/whole", 131072, 0x7e697df5),
    ("zfp/smooth/1x32x32x32/rel1e-4/f32/box", 16384, 0x6db67e1e),
    ("zfp/smooth/1x32x32x32/rel1e-4/f64/whole", 262144, 0xb67fb3b9),
    ("zfp/smooth/1x32x32x32/rel1e-4/f64/box", 32768, 0x00018030),
    ("zfp/smooth/3x5x6x7/rel1e-2/f32/whole", 2520, 0x44cfa77c),
    ("zfp/smooth/3x5x6x7/rel1e-2/f32/box", 72, 0xa17f31b4),
    ("zfp/smooth/3x5x6x7/rel1e-2/f64/whole", 5040, 0x42d7dbe9),
    ("zfp/smooth/3x5x6x7/rel1e-2/f64/box", 144, 0xd75d8e5a),
    ("zfp/smooth/3x5x6x7/rel1e-4/f32/whole", 2520, 0x54a2afce),
    ("zfp/smooth/3x5x6x7/rel1e-4/f32/box", 72, 0x186d1519),
    ("zfp/smooth/3x5x6x7/rel1e-4/f64/whole", 5040, 0x1dd2f305),
    ("zfp/smooth/3x5x6x7/rel1e-4/f64/box", 144, 0x88a04e0e),
    ("zfp/smooth/1x32x32x32/abs0.05/f32/whole", 131072, 0x7705dc0e),
    ("zfp/smooth/1x32x32x32/abs0.05/f32/box", 16384, 0x53a0bd54),
    ("zfp/smooth/1x32x32x32/abs0.05/f64/whole", 262144, 0xbc877e28),
    ("zfp/smooth/1x32x32x32/abs0.05/f64/box", 32768, 0x7733ec35),
    ("zfp/rough/20x21x22/rel1e-7/f32/whole", 36960, 0x034427d4),
    ("zfp/rough/20x21x22/rel1e-7/f32/box", 4400, 0x81786f08),
    ("zfp/rough/20x21x22/rel1e-7/f64/whole", 73920, 0x5fca6edd),
    ("zfp/rough/20x21x22/rel1e-7/f64/box", 8800, 0x5129f546),
    ("zfp/spike/20x21x22/abs0.01/f32/whole", 36960, 0xd8fb0887),
    ("zfp/spike/20x21x22/abs0.01/f32/box", 4400, 0x95b7619b),
    ("zfp/spike/20x21x22/abs0.01/f64/whole", 73920, 0xe6887da6),
    ("zfp/spike/20x21x22/abs0.01/f64/box", 8800, 0x08e88ac5),
    ("zfp/constant/20x21x22/rel1e-3/f32/whole", 36960, 0x35787e50),
    ("zfp/constant/20x21x22/rel1e-3/f32/box", 4400, 0x9424a5d4),
    ("zfp/constant/20x21x22/rel1e-3/f64/whole", 73920, 0xa33c6fbf),
    ("zfp/constant/20x21x22/rel1e-3/f64/box", 8800, 0xf30b2c50),
    ("qoz/smooth/1023/rel1e-2/f32/whole", 4092, 0x1db89557),
    ("qoz/smooth/1023/rel1e-2/f64/whole", 8184, 0x428e8266),
    ("qoz/smooth/1023/rel1e-4/f32/whole", 4092, 0xf3f51bd7),
    ("qoz/smooth/1023/rel1e-4/f64/whole", 8184, 0xb1b38ce6),
    ("qoz/smooth/33x17/rel1e-2/f32/whole", 2244, 0xfd2cddc9),
    ("qoz/smooth/33x17/rel1e-2/f32/box", 512, 0xbc662609),
    ("qoz/smooth/33x17/rel1e-2/f64/whole", 4488, 0x3ec03706),
    ("qoz/smooth/33x17/rel1e-2/f64/box", 1024, 0x346f107b),
    ("qoz/smooth/33x17/rel1e-4/f32/whole", 2244, 0x08fca5fa),
    ("qoz/smooth/33x17/rel1e-4/f32/box", 512, 0xa653a0a0),
    ("qoz/smooth/33x17/rel1e-4/f64/whole", 4488, 0x84d38412),
    ("qoz/smooth/33x17/rel1e-4/f64/box", 1024, 0xf274ae15),
    ("qoz/smooth/20x21x22/rel1e-2/f32/whole", 36960, 0x8209e666),
    ("qoz/smooth/20x21x22/rel1e-2/f32/box", 4400, 0x666312de),
    ("qoz/smooth/20x21x22/rel1e-2/f64/whole", 73920, 0xfda8545b),
    ("qoz/smooth/20x21x22/rel1e-2/f64/box", 8800, 0x427106c9),
    ("qoz/smooth/20x21x22/rel1e-4/f32/whole", 36960, 0xef79f1a9),
    ("qoz/smooth/20x21x22/rel1e-4/f32/box", 4400, 0x7d13aea9),
    ("qoz/smooth/20x21x22/rel1e-4/f64/whole", 73920, 0xfa7b8da9),
    ("qoz/smooth/20x21x22/rel1e-4/f64/box", 8800, 0xc418e907),
    ("qoz/smooth/1x32x32x32/rel1e-2/f32/whole", 131072, 0xc783bec8),
    ("qoz/smooth/1x32x32x32/rel1e-2/f32/box", 16384, 0xe5df142b),
    ("qoz/smooth/1x32x32x32/rel1e-2/f64/whole", 262144, 0xf8375c37),
    ("qoz/smooth/1x32x32x32/rel1e-2/f64/box", 32768, 0x602601c5),
    ("qoz/smooth/1x32x32x32/rel1e-4/f32/whole", 131072, 0x2a7e6063),
    ("qoz/smooth/1x32x32x32/rel1e-4/f32/box", 16384, 0x5503900a),
    ("qoz/smooth/1x32x32x32/rel1e-4/f64/whole", 262144, 0xeb42d227),
    ("qoz/smooth/1x32x32x32/rel1e-4/f64/box", 32768, 0x3dc1fd27),
    ("qoz/smooth/3x5x6x7/rel1e-2/f32/whole", 2520, 0x28731c45),
    ("qoz/smooth/3x5x6x7/rel1e-2/f32/box", 72, 0xa2bc3f06),
    ("qoz/smooth/3x5x6x7/rel1e-2/f64/whole", 5040, 0x162e654c),
    ("qoz/smooth/3x5x6x7/rel1e-2/f64/box", 144, 0x0f4d5de3),
    ("qoz/smooth/3x5x6x7/rel1e-4/f32/whole", 2520, 0x815515eb),
    ("qoz/smooth/3x5x6x7/rel1e-4/f32/box", 72, 0x7d56453a),
    ("qoz/smooth/3x5x6x7/rel1e-4/f64/whole", 5040, 0x31b013de),
    ("qoz/smooth/3x5x6x7/rel1e-4/f64/box", 144, 0x784557b6),
    ("qoz/smooth/1x32x32x32/abs0.05/f32/whole", 131072, 0x078883ff),
    ("qoz/smooth/1x32x32x32/abs0.05/f32/box", 16384, 0xae79379b),
    ("qoz/smooth/1x32x32x32/abs0.05/f64/whole", 262144, 0x5c8eb98f),
    ("qoz/smooth/1x32x32x32/abs0.05/f64/box", 32768, 0x2f681e1f),
    ("qoz/rough/20x21x22/rel1e-7/f32/whole", 36960, 0xc206825b),
    ("qoz/rough/20x21x22/rel1e-7/f32/box", 4400, 0x2b52d3c9),
    ("qoz/rough/20x21x22/rel1e-7/f64/whole", 73920, 0x08e98ae9),
    ("qoz/rough/20x21x22/rel1e-7/f64/box", 8800, 0xf61672b3),
    ("qoz/spike/20x21x22/abs0.01/f32/whole", 36960, 0x1e4388da),
    ("qoz/spike/20x21x22/abs0.01/f32/box", 4400, 0x72621dc2),
    ("qoz/spike/20x21x22/abs0.01/f64/whole", 73920, 0xa7a798c8),
    ("qoz/spike/20x21x22/abs0.01/f64/box", 8800, 0xe5206a6a),
    ("qoz/constant/20x21x22/rel1e-3/f32/whole", 36960, 0x35787e50),
    ("qoz/constant/20x21x22/rel1e-3/f32/box", 4400, 0x9424a5d4),
    ("qoz/constant/20x21x22/rel1e-3/f64/whole", 73920, 0xa33c6fbf),
    ("qoz/constant/20x21x22/rel1e-3/f64/box", 8800, 0xf30b2c50),
    ("szx/smooth/1023/rel1e-2/f32/whole", 4092, 0xcfbd7b5c),
    ("szx/smooth/1023/rel1e-2/f64/whole", 8184, 0xc0885c89),
    ("szx/smooth/1023/rel1e-4/f32/whole", 4092, 0x956704cf),
    ("szx/smooth/1023/rel1e-4/f64/whole", 8184, 0xd6a033a5),
    ("szx/smooth/33x17/rel1e-2/f32/whole", 2244, 0x83b25a32),
    ("szx/smooth/33x17/rel1e-2/f32/box", 512, 0xe013be34),
    ("szx/smooth/33x17/rel1e-2/f64/whole", 4488, 0xe22ca82e),
    ("szx/smooth/33x17/rel1e-2/f64/box", 1024, 0x98a76ad2),
    ("szx/smooth/33x17/rel1e-4/f32/whole", 2244, 0x6f9cdb46),
    ("szx/smooth/33x17/rel1e-4/f32/box", 512, 0xd9ba9842),
    ("szx/smooth/33x17/rel1e-4/f64/whole", 4488, 0x0cc54abc),
    ("szx/smooth/33x17/rel1e-4/f64/box", 1024, 0xc1842f3b),
    ("szx/smooth/20x21x22/rel1e-2/f32/whole", 36960, 0xb7c2a68d),
    ("szx/smooth/20x21x22/rel1e-2/f32/box", 4400, 0xdc43625e),
    ("szx/smooth/20x21x22/rel1e-2/f64/whole", 73920, 0x5dbb7f6a),
    ("szx/smooth/20x21x22/rel1e-2/f64/box", 8800, 0xacc2732d),
    ("szx/smooth/20x21x22/rel1e-4/f32/whole", 36960, 0x1c160da0),
    ("szx/smooth/20x21x22/rel1e-4/f32/box", 4400, 0x68572a11),
    ("szx/smooth/20x21x22/rel1e-4/f64/whole", 73920, 0x28888a1f),
    ("szx/smooth/20x21x22/rel1e-4/f64/box", 8800, 0xd4266ffa),
    ("szx/smooth/1x32x32x32/rel1e-2/f32/whole", 131072, 0x13a32394),
    ("szx/smooth/1x32x32x32/rel1e-2/f32/box", 16384, 0xb1b3ef7f),
    ("szx/smooth/1x32x32x32/rel1e-2/f64/whole", 262144, 0xbacc0386),
    ("szx/smooth/1x32x32x32/rel1e-2/f64/box", 32768, 0x0735682b),
    ("szx/smooth/1x32x32x32/rel1e-4/f32/whole", 131072, 0xd6106c8c),
    ("szx/smooth/1x32x32x32/rel1e-4/f32/box", 16384, 0x29e409b8),
    ("szx/smooth/1x32x32x32/rel1e-4/f64/whole", 262144, 0xf8728344),
    ("szx/smooth/1x32x32x32/rel1e-4/f64/box", 32768, 0x83fff07a),
    ("szx/smooth/3x5x6x7/rel1e-2/f32/whole", 2520, 0xa20f3a18),
    ("szx/smooth/3x5x6x7/rel1e-2/f32/box", 72, 0x487bf758),
    ("szx/smooth/3x5x6x7/rel1e-2/f64/whole", 5040, 0x1d689d0a),
    ("szx/smooth/3x5x6x7/rel1e-2/f64/box", 144, 0x3b075769),
    ("szx/smooth/3x5x6x7/rel1e-4/f32/whole", 2520, 0xdc45dd3d),
    ("szx/smooth/3x5x6x7/rel1e-4/f32/box", 72, 0x0395df5b),
    ("szx/smooth/3x5x6x7/rel1e-4/f64/whole", 5040, 0x46367659),
    ("szx/smooth/3x5x6x7/rel1e-4/f64/box", 144, 0xe3270ebe),
    ("szx/smooth/1x32x32x32/abs0.05/f32/whole", 131072, 0x0a26bd84),
    ("szx/smooth/1x32x32x32/abs0.05/f32/box", 16384, 0x85a7add4),
    ("szx/smooth/1x32x32x32/abs0.05/f64/whole", 262144, 0xad1ceb8c),
    ("szx/smooth/1x32x32x32/abs0.05/f64/box", 32768, 0x7d6b136c),
    ("szx/rough/20x21x22/rel1e-7/f32/whole", 36960, 0x76c77ee3),
    ("szx/rough/20x21x22/rel1e-7/f32/box", 4400, 0xaa31184f),
    ("szx/rough/20x21x22/rel1e-7/f64/whole", 73920, 0x2310c2d7),
    ("szx/rough/20x21x22/rel1e-7/f64/box", 8800, 0xa0108ef5),
    ("szx/spike/20x21x22/abs0.01/f32/whole", 36960, 0x9fc7ed7c),
    ("szx/spike/20x21x22/abs0.01/f32/box", 4400, 0x56dcfa89),
    ("szx/spike/20x21x22/abs0.01/f64/whole", 73920, 0xf47ea7d0),
    ("szx/spike/20x21x22/abs0.01/f64/box", 8800, 0x69d49527),
    ("szx/constant/20x21x22/rel1e-3/f32/whole", 36960, 0x35787e50),
    ("szx/constant/20x21x22/rel1e-3/f32/box", 4400, 0x9424a5d4),
    ("szx/constant/20x21x22/rel1e-3/f64/whole", 73920, 0xa33c6fbf),
    ("szx/constant/20x21x22/rel1e-3/f64/box", 8800, 0xf30b2c50),
    ("sz3-linear/smooth/20x21x22/rel1e-3/f32/whole", 36960, 0xbd8b3eba),
    ("sz3-linear/smooth/20x21x22/rel1e-3/f32/box", 4400, 0x36a62e15),
    ("sz3-linear/smooth/20x21x22/rel1e-3/f64/whole", 73920, 0xa9d95f25),
    ("sz3-linear/smooth/20x21x22/rel1e-3/f64/box", 8800, 0x2497e892),
    ("zfp-prec20/smooth/20x21x22/rel1e-3/f32/whole", 36960, 0x9c044854),
    ("zfp-prec20/smooth/20x21x22/rel1e-3/f32/box", 4400, 0xa9e7a900),
    ("zfp-prec20/smooth/20x21x22/rel1e-3/f64/whole", 73920, 0x05d8c23d),
    ("zfp-prec20/smooth/20x21x22/rel1e-3/f64/box", 8800, 0xed63739d),
    ("qoz-psnr70/smooth/20x21x22/rel1e-3/f32/whole", 36960, 0x4bf15655),
    ("qoz-psnr70/smooth/20x21x22/rel1e-3/f32/box", 4400, 0xa56f7d1e),
    ("qoz-psnr70/smooth/20x21x22/rel1e-3/f64/whole", 73920, 0xa35fd9a5),
    ("qoz-psnr70/smooth/20x21x22/rel1e-3/f64/box", 8800, 0x1f3c2e01),
    ("huffman/fibonacci34", 59721404, 0x5f62e36c),
    ("huffman/sparse613", 24000, 0xb8b27066),
    ("huffman/single-dense", 2000, 0x9e345cc1),
    ("huffman/single-sparse", 308, 0xe8ceb4c6),
];
