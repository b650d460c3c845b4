//! Golden *encoder* digests: the byte length and CRC-32 of the stream
//! each preset chain emits for a fixed set of deterministic fields,
//! checked in as a table. `golden_v1.rs` pins decoding of old streams;
//! this pins what the encoders write, so an encode-side rewrite that
//! changes one quantizer rounding, one Huffman code assignment or one
//! bit position fails tier-1 instead of surfacing as a benchmark drift.
//!
//! The inputs live in `golden_inputs/`, shared with `decode_golden.rs`.
//! The table was recorded from the encoders as they stood before the
//! encode hot-path pass; only ZFP's rows were re-recorded since, when
//! its payloads gained the block-row index — and
//! `zfp_block_bits_match_the_recorded_digests` shows the blocks
//! themselves did not move. The table must not be edited by a change
//! that claims to keep streams byte-identical; on a mismatch the test
//! prints the full table the current encoders produce.

mod golden_inputs;

use eblcio_codec::header::read_stream;
use eblcio_codec::util::ByteReader;
use eblcio_codec::{compress, huffman, CompressorId, ErrorBound};
use eblcio_data::{Element, Shape};
use golden_inputs::{check_table, digest, huffman_inputs, inputs, Field, Input};

fn encode<T: Element>(input: &Input) -> Vec<u8> {
    let data = input.field.generate::<T>(input.shape);
    compress(input.codec.as_ref(), &data, input.bound)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", input.label, T::NAME))
}

/// Every (label, length, crc32) the current encoders produce, in table
/// order.
fn current() -> Vec<(String, usize, u32)> {
    let mut rows = Vec::new();
    for input in inputs() {
        for (name, stream) in [("f32", encode::<f32>(&input)), ("f64", encode::<f64>(&input))] {
            let (len, crc) = digest(&stream);
            rows.push((format!("{}/{name}", input.label), len, crc));
        }
    }
    for (label, symbols) in huffman_inputs() {
        let (len, crc) = digest(&huffman::encode_block(&symbols));
        rows.push((label.to_string(), len, crc));
    }
    rows
}

#[test]
fn encoder_streams_match_the_recorded_digests() {
    check_table("encoder output", &current(), GOLDEN);
}

/// The block bitstream of a ZFP array-stage payload over `shape`: an
/// indexed payload (tag byte `0xC0 | s`, whose top bits are a mode no
/// block uses, then one varint bit length per run of `2^s` block rows)
/// loses its index, a bare one comes back whole.
fn zfp_block_bits(payload: &[u8], shape: Shape) -> &[u8] {
    let tag = payload[0];
    if tag >> 6 != 3 {
        return payload;
    }
    let outer = &shape.dims()[..shape.rank() - 1];
    let rows: usize = outer.iter().map(|d| d.div_ceil(4)).product();
    let mut r = ByteReader::new(&payload[1..]);
    for _ in 0..rows.div_ceil(1 << (tag & 0x3f)) {
        r.varint("zfp row length").unwrap();
    }
    &payload[1 + r.position()..]
}

/// Every ZFP stream of the table, index aside, is the block bitstream
/// the encoder wrote before the index existed: its length and CRC-32
/// were recorded from the unindexed encoder.
#[test]
fn zfp_block_bits_match_the_recorded_digests() {
    let mut got = Vec::new();
    for input in inputs().iter().filter(|i| i.label.starts_with("zfp")) {
        for (name, stream) in [("f32", encode::<f32>(input)), ("f64", encode::<f64>(input))] {
            let (_, payload) = read_stream(&stream).unwrap();
            let (len, crc) = digest(zfp_block_bits(payload, input.shape));
            got.push((format!("{}/{name}", input.label), len, crc));
        }
    }
    check_table("zfp block bits", &got, ZFP_BLOCK_BITS);
}

#[test]
fn golden_fields_have_the_intended_character() {
    // The digests only mean something if the fields reach the branches
    // they are named for.
    let shape = Shape::d3(20, 21, 22);
    let r = Field::Rough.generate::<f64>(shape);
    assert!(r.value_range() > 1.9e6);
    let sz3 = CompressorId::Sz3.instance();
    let tight = compress(sz3.as_ref(), &r, ErrorBound::Relative(1e-7)).unwrap();
    // Outlier-dominated: no smaller than ~the raw samples.
    assert!(tight.len() > r.nbytes() / 2, "{} bytes", tight.len());
    let k = Field::Constant.generate::<f32>(shape);
    assert_eq!(k.value_range(), 0.0);
    let s = Field::Smooth.generate::<f32>(shape);
    let loose = compress(sz3.as_ref(), &s, ErrorBound::Relative(1e-2)).unwrap();
    assert!(loose.len() * 8 < s.nbytes(), "{} bytes", loose.len());
}

/// `(label, ZFP array-stage payload length without its row index,
/// CRC-32)`, recorded from the unindexed encoder.
const ZFP_BLOCK_BITS: &[(&str, usize, u32)] = &[
    ("zfp/smooth/1023/rel1e-2/f32", 1163, 0xd76337ea),
    ("zfp/smooth/1023/rel1e-2/f64", 1163, 0xd76337ea),
    ("zfp/smooth/1023/rel1e-4/f32", 2051, 0x087e6f5e),
    ("zfp/smooth/1023/rel1e-4/f64", 2051, 0x087e6f5e),
    ("zfp/smooth/33x17/rel1e-2/f32", 285, 0x0200d5d5),
    ("zfp/smooth/33x17/rel1e-2/f64", 285, 0x0200d5d5),
    ("zfp/smooth/33x17/rel1e-4/f32", 681, 0x2562ca32),
    ("zfp/smooth/33x17/rel1e-4/f64", 681, 0x2562ca32),
    ("zfp/smooth/20x21x22/rel1e-2/f32", 1413, 0x773608a1),
    ("zfp/smooth/20x21x22/rel1e-2/f64", 1413, 0x773608a1),
    ("zfp/smooth/20x21x22/rel1e-4/f32", 7066, 0x80b7b5d7),
    ("zfp/smooth/20x21x22/rel1e-4/f64", 7066, 0x80b7b5d7),
    ("zfp/smooth/1x32x32x32/rel1e-2/f32", 3498, 0xc612562c),
    ("zfp/smooth/1x32x32x32/rel1e-2/f64", 3498, 0xc612562c),
    ("zfp/smooth/1x32x32x32/rel1e-4/f32", 39798, 0xd4dcedb1),
    ("zfp/smooth/1x32x32x32/rel1e-4/f64", 39798, 0xe9687e51),
    ("zfp/smooth/3x5x6x7/rel1e-2/f32", 165, 0x4067fc54),
    ("zfp/smooth/3x5x6x7/rel1e-2/f64", 165, 0x4067fc54),
    ("zfp/smooth/3x5x6x7/rel1e-4/f32", 1193, 0x6df13a82),
    ("zfp/smooth/3x5x6x7/rel1e-4/f64", 1193, 0x6df13a82),
    ("zfp/smooth/1x32x32x32/abs0.05/f32", 11739, 0x17fe6077),
    ("zfp/smooth/1x32x32x32/abs0.05/f64", 11739, 0x17fe6077),
    ("zfp/rough/20x21x22/rel1e-7/f32", 34081, 0xdc1e5c8f),
    ("zfp/rough/20x21x22/rel1e-7/f64", 34134, 0x173a0b71),
    ("zfp/spike/20x21x22/abs0.01/f32", 7943, 0x38fdcf07),
    ("zfp/spike/20x21x22/abs0.01/f64", 8199, 0xa4d27159),
    ("zfp/constant/20x21x22/rel1e-3/f32", 2745, 0x7612c824),
    ("zfp/constant/20x21x22/rel1e-3/f64", 2745, 0x7612c824),
];

/// `(label, stream length, CRC-32)`.
const GOLDEN: &[(&str, usize, u32)] = &[
    ("sz2/smooth/1023/rel1e-2/f32", 137, 0x8f280330),
    ("sz2/smooth/1023/rel1e-2/f64", 137, 0x85e68dd9),
    ("sz2/smooth/1023/rel1e-4/f32", 555, 0x62a2bef3),
    ("sz2/smooth/1023/rel1e-4/f64", 555, 0xb0d7ab76),
    ("sz2/smooth/33x17/rel1e-2/f32", 169, 0x6b1c9d5c),
    ("sz2/smooth/33x17/rel1e-2/f64", 169, 0x8f4c8786),
    ("sz2/smooth/33x17/rel1e-4/f32", 339, 0x3d261715),
    ("sz2/smooth/33x17/rel1e-4/f64", 339, 0xe8849be1),
    ("sz2/smooth/20x21x22/rel1e-2/f32", 2055, 0x7a9c687c),
    ("sz2/smooth/20x21x22/rel1e-2/f64", 2055, 0x8242d505),
    ("sz2/smooth/20x21x22/rel1e-4/f32", 2784, 0xbe7f1a17),
    ("sz2/smooth/20x21x22/rel1e-4/f64", 2779, 0x4ef4b479),
    ("sz2/smooth/1x32x32x32/rel1e-2/f32", 6191, 0xc9a93700),
    ("sz2/smooth/1x32x32x32/rel1e-2/f64", 6191, 0x574a5fa8),
    ("sz2/smooth/1x32x32x32/rel1e-4/f32", 8577, 0xba2d0cb1),
    ("sz2/smooth/1x32x32x32/rel1e-4/f64", 8580, 0x53840be3),
    ("sz2/smooth/3x5x6x7/rel1e-2/f32", 226, 0x17964c8e),
    ("sz2/smooth/3x5x6x7/rel1e-2/f64", 226, 0xce7b8194),
    ("sz2/smooth/3x5x6x7/rel1e-4/f32", 353, 0x1835eabf),
    ("sz2/smooth/3x5x6x7/rel1e-4/f64", 353, 0x7a4aa9f9),
    ("sz2/smooth/1x32x32x32/abs0.05/f32", 7684, 0x90e13f2f),
    ("sz2/smooth/1x32x32x32/abs0.05/f64", 7687, 0x9bfcd1ef),
    ("sz2/rough/20x21x22/rel1e-7/f32", 37751, 0xd96fd009),
    ("sz2/rough/20x21x22/rel1e-7/f64", 74283, 0xd0cdd1b6),
    ("sz2/spike/20x21x22/abs0.01/f32", 4895, 0x03c33ddf),
    ("sz2/spike/20x21x22/abs0.01/f64", 6922, 0x8a86ef87),
    ("sz2/constant/20x21x22/rel1e-3/f32", 56, 0xf5b5b209),
    ("sz2/constant/20x21x22/rel1e-3/f64", 56, 0x9cccb96c),
    ("sz3/smooth/1023/rel1e-2/f32", 78, 0x2e5a3f93),
    ("sz3/smooth/1023/rel1e-2/f64", 78, 0x4091b5b1),
    ("sz3/smooth/1023/rel1e-4/f32", 431, 0xfc9044cd),
    ("sz3/smooth/1023/rel1e-4/f64", 431, 0x2c0ae709),
    ("sz3/smooth/33x17/rel1e-2/f32", 151, 0x76786c46),
    ("sz3/smooth/33x17/rel1e-2/f64", 151, 0x37a74289),
    ("sz3/smooth/33x17/rel1e-4/f32", 421, 0xdbafe287),
    ("sz3/smooth/33x17/rel1e-4/f64", 421, 0x9074d58d),
    ("sz3/smooth/20x21x22/rel1e-2/f32", 601, 0x723548a9),
    ("sz3/smooth/20x21x22/rel1e-2/f64", 601, 0x18addc24),
    ("sz3/smooth/20x21x22/rel1e-4/f32", 3992, 0x2ca5036b),
    ("sz3/smooth/20x21x22/rel1e-4/f64", 3992, 0x643a6653),
    ("sz3/smooth/1x32x32x32/rel1e-2/f32", 1744, 0x5f3d2ccc),
    ("sz3/smooth/1x32x32x32/rel1e-2/f64", 1744, 0xf64d0160),
    ("sz3/smooth/1x32x32x32/rel1e-4/f32", 9729, 0x84b0f14d),
    ("sz3/smooth/1x32x32x32/rel1e-4/f64", 9706, 0xbe13f79c),
    ("sz3/smooth/3x5x6x7/rel1e-2/f32", 277, 0xc653b68c),
    ("sz3/smooth/3x5x6x7/rel1e-2/f64", 277, 0x3c44a96c),
    ("sz3/smooth/3x5x6x7/rel1e-4/f32", 717, 0x751ff17d),
    ("sz3/smooth/3x5x6x7/rel1e-4/f64", 717, 0xde828d47),
    ("sz3/smooth/1x32x32x32/abs0.05/f32", 4433, 0x7f5f7492),
    ("sz3/smooth/1x32x32x32/abs0.05/f64", 4433, 0xa4ad7edd),
    ("sz3/rough/20x21x22/rel1e-7/f32", 37312, 0x3624e169),
    ("sz3/rough/20x21x22/rel1e-7/f64", 73828, 0x1bcfb40f),
    ("sz3/spike/20x21x22/abs0.01/f32", 4320, 0xc1077b27),
    ("sz3/spike/20x21x22/abs0.01/f64", 4333, 0x0fc7e19d),
    ("sz3/constant/20x21x22/rel1e-3/f32", 54, 0xf9145340),
    ("sz3/constant/20x21x22/rel1e-3/f64", 55, 0x66b473d1),
    ("zfp/smooth/1023/rel1e-2/f32", 1188, 0x45eb866f),
    ("zfp/smooth/1023/rel1e-2/f64", 1188, 0x1d17d402),
    ("zfp/smooth/1023/rel1e-4/f32", 2076, 0xe9f49a54),
    ("zfp/smooth/1023/rel1e-4/f64", 2076, 0xf8b4b9d3),
    ("zfp/smooth/33x17/rel1e-2/f32", 310, 0x680b38e0),
    ("zfp/smooth/33x17/rel1e-2/f64", 310, 0xd03d8b84),
    ("zfp/smooth/33x17/rel1e-4/f32", 711, 0xfca914f0),
    ("zfp/smooth/33x17/rel1e-4/f64", 711, 0xa1d3d1db),
    ("zfp/smooth/20x21x22/rel1e-2/f32", 1448, 0x90473c91),
    ("zfp/smooth/20x21x22/rel1e-2/f64", 1448, 0x2a1ad02a),
    ("zfp/smooth/20x21x22/rel1e-4/f32", 7153, 0x4d12638e),
    ("zfp/smooth/20x21x22/rel1e-4/f64", 7153, 0x71575b8c),
    ("zfp/smooth/1x32x32x32/rel1e-2/f32", 3558, 0x42e34da7),
    ("zfp/smooth/1x32x32x32/rel1e-2/f64", 3558, 0xe3a81d49),
    ("zfp/smooth/1x32x32x32/rel1e-4/f32", 39955, 0xd8db540c),
    ("zfp/smooth/1x32x32x32/rel1e-4/f64", 39955, 0x51553c0a),
    ("zfp/smooth/3x5x6x7/rel1e-2/f32", 192, 0x98b23ac7),
    ("zfp/smooth/3x5x6x7/rel1e-2/f64", 192, 0xdf86f516),
    ("zfp/smooth/3x5x6x7/rel1e-4/f32", 1229, 0x21d11484),
    ("zfp/smooth/3x5x6x7/rel1e-4/f64", 1229, 0xa24cf882),
    ("zfp/smooth/1x32x32x32/abs0.05/f32", 11831, 0xa63e8d99),
    ("zfp/smooth/1x32x32x32/abs0.05/f64", 11831, 0x99fc2b87),
    ("zfp/rough/20x21x22/rel1e-7/f32", 34169, 0x895d1db3),
    ("zfp/rough/20x21x22/rel1e-7/f64", 34222, 0x9a8a248e),
    ("zfp/spike/20x21x22/abs0.01/f32", 8030, 0x3ce581fa),
    ("zfp/spike/20x21x22/abs0.01/f64", 8286, 0x91be7a28),
    ("zfp/constant/20x21x22/rel1e-3/f32", 2788, 0x4de97970),
    ("zfp/constant/20x21x22/rel1e-3/f64", 2788, 0xa36f37a6),
    ("qoz/smooth/1023/rel1e-2/f32", 102, 0x2aef4dfd),
    ("qoz/smooth/1023/rel1e-2/f64", 102, 0x5ec750f6),
    ("qoz/smooth/1023/rel1e-4/f32", 580, 0x5c4c643e),
    ("qoz/smooth/1023/rel1e-4/f64", 568, 0x9343a8ea),
    ("qoz/smooth/33x17/rel1e-2/f32", 150, 0xe7cf2b28),
    ("qoz/smooth/33x17/rel1e-2/f64", 150, 0x3c9b8483),
    ("qoz/smooth/33x17/rel1e-4/f32", 454, 0x87654d5a),
    ("qoz/smooth/33x17/rel1e-4/f64", 454, 0xe64c3a36),
    ("qoz/smooth/20x21x22/rel1e-2/f32", 503, 0x631d6bc7),
    ("qoz/smooth/20x21x22/rel1e-2/f64", 503, 0x2c3c9fa3),
    ("qoz/smooth/20x21x22/rel1e-4/f32", 4002, 0x054e4cd7),
    ("qoz/smooth/20x21x22/rel1e-4/f64", 4002, 0xe9dad7b3),
    ("qoz/smooth/1x32x32x32/rel1e-2/f32", 1186, 0xde847f7c),
    ("qoz/smooth/1x32x32x32/rel1e-2/f64", 1186, 0xae528d9e),
    ("qoz/smooth/1x32x32x32/rel1e-4/f32", 8827, 0x9c073686),
    ("qoz/smooth/1x32x32x32/rel1e-4/f64", 8827, 0x2d73cde7),
    ("qoz/smooth/3x5x6x7/rel1e-2/f32", 284, 0x21251607),
    ("qoz/smooth/3x5x6x7/rel1e-2/f64", 284, 0xeb1ebd0f),
    ("qoz/smooth/3x5x6x7/rel1e-4/f32", 743, 0x7751bee5),
    ("qoz/smooth/3x5x6x7/rel1e-4/f64", 743, 0xe1c6118a),
    ("qoz/smooth/1x32x32x32/abs0.05/f32", 3260, 0xf8f611b6),
    ("qoz/smooth/1x32x32x32/abs0.05/f64", 3260, 0xa688b99b),
    ("qoz/rough/20x21x22/rel1e-7/f32", 37321, 0x08e34c3d),
    ("qoz/rough/20x21x22/rel1e-7/f64", 73847, 0xa58f45c0),
    ("qoz/spike/20x21x22/abs0.01/f32", 4337, 0xc1b94220),
    ("qoz/spike/20x21x22/abs0.01/f64", 4409, 0x86b35c33),
    ("qoz/constant/20x21x22/rel1e-3/f32", 62, 0xe0b9253d),
    ("qoz/constant/20x21x22/rel1e-3/f64", 62, 0x989f0902),
    ("szx/smooth/1023/rel1e-2/f32", 458, 0xad9e3090),
    ("szx/smooth/1023/rel1e-2/f64", 490, 0xd01d3479),
    ("szx/smooth/1023/rel1e-4/f32", 1289, 0x2c655c97),
    ("szx/smooth/1023/rel1e-4/f64", 1321, 0x02ef0a37),
    ("szx/smooth/33x17/rel1e-2/f32", 461, 0xb8e81151),
    ("szx/smooth/33x17/rel1e-2/f64", 481, 0x00cae1ed),
    ("szx/smooth/33x17/rel1e-4/f32", 898, 0xd0c2dc0e),
    ("szx/smooth/33x17/rel1e-4/f64", 918, 0x9bb65030),
    ("szx/smooth/20x21x22/rel1e-2/f32", 6544, 0x85f29932),
    ("szx/smooth/20x21x22/rel1e-2/f64", 6836, 0x46916982),
    ("szx/smooth/20x21x22/rel1e-4/f32", 14640, 0x2e5f9c32),
    ("szx/smooth/20x21x22/rel1e-4/f64", 14617, 0xc70845c6),
    ("szx/smooth/1x32x32x32/rel1e-2/f32", 22046, 0x2ce58036),
    ("szx/smooth/1x32x32x32/rel1e-2/f64", 23070, 0xc0c923ea),
    ("szx/smooth/1x32x32x32/rel1e-4/f32", 50718, 0xb2bb76ca),
    ("szx/smooth/1x32x32x32/rel1e-4/f64", 51742, 0x866dd91f),
    ("szx/smooth/3x5x6x7/rel1e-2/f32", 531, 0x450e5137),
    ("szx/smooth/3x5x6x7/rel1e-2/f64", 551, 0x80f982b0),
    ("szx/smooth/3x5x6x7/rel1e-4/f32", 1035, 0x68b66b2e),
    ("szx/smooth/3x5x6x7/rel1e-4/f64", 1055, 0x14acb29d),
    ("szx/smooth/1x32x32x32/abs0.05/f32", 42526, 0x4b0b1c88),
    ("szx/smooth/1x32x32x32/abs0.05/f64", 43550, 0x4752d284),
    ("szx/rough/20x21x22/rel1e-7/f32", 30645, 0xef0eca81),
    ("szx/rough/20x21x22/rel1e-7/f64", 27323, 0xcb5c1970),
    ("szx/spike/20x21x22/abs0.01/f32", 14928, 0x3b97baf2),
    ("szx/spike/20x21x22/abs0.01/f64", 15728, 0x3711ddca),
    ("szx/constant/20x21x22/rel1e-3/f32", 392, 0x7ad3e073),
    ("szx/constant/20x21x22/rel1e-3/f64", 684, 0xdd569640),
    ("huffman/fibonacci34", 4886095, 0x7d214a6c),
    ("huffman/sparse613", 10058, 0xfeb9700e),
    ("huffman/single-dense", 72, 0x6958759f),
    ("huffman/single-sparse", 19, 0x479a2b62),
];
