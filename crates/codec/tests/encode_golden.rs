//! Golden *encoder* digests: the byte length and CRC-32 of the stream
//! each preset chain emits for a fixed set of deterministic fields,
//! checked in as a table. `golden_v1.rs` pins decoding of old streams;
//! this pins what the encoders write, so an encode-side rewrite that
//! changes one quantizer rounding, one Huffman code assignment or one
//! bit position fails tier-1 instead of surfacing as a benchmark drift.
//!
//! The fields are built from integer and IEEE-exact `+ − × ÷` arithmetic
//! only (no `sin`/`exp`, no RNG crate), so they are reproducible from
//! source alone. The table was recorded from the encoders as they stood
//! before the encode hot-path pass (PR 13) and must not be edited by a
//! change that claims to keep streams byte-identical; on a mismatch the
//! test prints the full table the current encoders produce.

use eblcio_codec::util::crc32;
use eblcio_codec::{
    compress, huffman, ArrayStage, CodecChain, Compressor, CompressorId, ErrorBound, Qoz, Sz2, Sz3,
    Zfp,
};
use eblcio_data::{Element, NdArray, Shape};

/// Deterministic hash of a flat index to `[0, 1)`.
fn unit_hash(i: u64) -> f64 {
    let mut x = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Smooth polynomial field with a small rough component, so the streams
/// exercise short and long Huffman codes, regression and Lorenzo blocks,
/// cubic/linear/copy stencils and a few outliers.
fn smooth<T: Element>(shape: Shape) -> NdArray<T> {
    let strides = shape.strides();
    NdArray::from_fn(shape, |idx| {
        let mut v = 3.0f64;
        let mut flat = 0u64;
        for (d, &c) in idx.iter().enumerate() {
            let x = (c as f64 + 0.5) / shape.dim(d) as f64 - 0.5;
            let w = (d + 1) as f64;
            v += 80.0 * w * x * x * x - 17.0 * x * x + 9.0 / w * x;
            v *= 1.0 + 0.125 * x;
            flat += (c * strides[d]) as u64;
        }
        T::from_f64(v + 0.02 * (unit_hash(flat) - 0.5))
    })
}

/// Pseudo-random field: no predictor gets close, so tight bounds drive
/// the SZ family into wide codes and the outlier path.
fn rough<T: Element>(shape: Shape) -> NdArray<T> {
    let strides = shape.strides();
    NdArray::from_fn(shape, |idx| {
        let flat: usize = idx.iter().zip(&strides).map(|(&c, &s)| c * s).sum();
        T::from_f64(2.0e6 * (unit_hash(flat as u64 ^ 0x5151) - 0.5))
    })
}

/// The smooth field with one sample 30 orders of magnitude above the
/// rest: under an absolute bound its ZFP block overflows the fixed-point
/// path and is stored verbatim, and the SZ family sees a lone outlier.
fn spike<T: Element>(shape: Shape) -> NdArray<T> {
    let mut a = smooth::<T>(shape);
    let mid = a.len() / 2;
    a.as_mut_slice()[mid] = T::from_f64(1e30);
    a
}

fn constant<T: Element>(shape: Shape) -> NdArray<T> {
    NdArray::from_fn(shape, |_| T::from_f64(-7.25))
}

fn digest(stream: &[u8]) -> (usize, u32) {
    (stream.len(), crc32(stream))
}

fn shapes() -> [Shape; 5] {
    [
        Shape::d1(1023),
        Shape::d2(33, 17),
        Shape::d3(20, 21, 22),
        // The benchmark's (and any per-timestep store's) chunk shape.
        Shape::d4(1, 32, 32, 32),
        Shape::d4(3, 5, 6, 7),
    ]
}

fn tag(id: CompressorId) -> &'static str {
    match id {
        CompressorId::Sz2 => "sz2",
        CompressorId::Sz3 => "sz3",
        CompressorId::Zfp => "zfp",
        CompressorId::Qoz => "qoz",
        CompressorId::Szx => "szx",
    }
}

/// Every (label, length, crc32) the current encoders produce, in table
/// order.
fn current() -> Vec<(String, usize, u32)> {
    let mut rows = Vec::new();
    fn push<T: Element>(
        rows: &mut Vec<(String, usize, u32)>,
        label: String,
        codec: &dyn Compressor,
        data: &NdArray<T>,
        bound: ErrorBound,
    ) {
        let stream = compress(codec, data, bound).unwrap_or_else(|e| panic!("{label}: {e}"));
        let (len, crc) = digest(&stream);
        rows.push((format!("{label}/{}", T::NAME), len, crc));
    }

    for id in CompressorId::ALL {
        let codec = id.instance();
        let c = codec.as_ref();
        for shape in shapes() {
            for eps in [1e-2, 1e-4] {
                let label = format!("{}/smooth/{shape}/rel{eps:e}", tag(id));
                push(&mut rows, label.clone(), c, &smooth::<f32>(shape), ErrorBound::Relative(eps));
                push(&mut rows, label, c, &smooth::<f64>(shape), ErrorBound::Relative(eps));
            }
        }
        // The store resolves ε once per array and hands every chunk an
        // absolute bound.
        let chunk = Shape::d4(1, 32, 32, 32);
        let label = format!("{}/smooth/{chunk}/abs0.05", tag(id));
        push(&mut rows, label.clone(), c, &smooth::<f32>(chunk), ErrorBound::Absolute(0.05));
        push(&mut rows, label, c, &smooth::<f64>(chunk), ErrorBound::Absolute(0.05));

        let shape = Shape::d3(20, 21, 22);
        let label = format!("{}/rough/{shape}/rel1e-7", tag(id));
        push(&mut rows, label.clone(), c, &rough::<f32>(shape), ErrorBound::Relative(1e-7));
        push(&mut rows, label, c, &rough::<f64>(shape), ErrorBound::Relative(1e-7));
        let label = format!("{}/spike/{shape}/abs0.01", tag(id));
        push(&mut rows, label.clone(), c, &spike::<f32>(shape), ErrorBound::Absolute(0.01));
        push(&mut rows, label, c, &spike::<f64>(shape), ErrorBound::Absolute(0.01));
        let label = format!("{}/constant/{shape}/rel1e-3", tag(id));
        push(&mut rows, label.clone(), c, &constant::<f32>(shape), ErrorBound::Relative(1e-3));
        push(&mut rows, label, c, &constant::<f64>(shape), ErrorBound::Relative(1e-3));
    }

    // Non-default stage parameters run encoder branches the presets
    // never take.
    let shape = Shape::d3(20, 21, 22);
    let rel = ErrorBound::Relative(1e-3);
    let mut sz2_blocks = Sz2::default();
    sz2_blocks.block_dims = Some([5, 3, 4, 1]);
    let variants: [(&str, Box<dyn ArrayStage>); 4] = [
        ("sz3-linear", Box::new(Sz3::linear_only())),
        ("zfp-prec20", Box::new(Zfp::with_fixed_precision(20))),
        ("qoz-psnr70", Box::new(Qoz::with_target_psnr(70.0))),
        ("sz2-blocks5x3x4", Box::new(sz2_blocks)),
    ];
    for (name, stage) in variants {
        let codec = CodecChain::around(stage);
        let label = format!("{name}/smooth/{shape}/rel1e-3");
        push(&mut rows, label.clone(), &codec, &smooth::<f32>(shape), rel);
        push(&mut rows, label, &codec, &smooth::<f64>(shape), rel);
    }

    // Huffman blocks the codec streams above never produce: the
    // length-limit retry (Fibonacci counts ask for a 33-bit code), the
    // sorted-table path for symbols ≥ 2²⁰, and one-symbol alphabets.
    let mut fib = Vec::new();
    let mut f = (1u64, 1u64);
    for sym in 0..34u32 {
        fib.extend(std::iter::repeat_n(1000 + sym, f.0 as usize));
        f = (f.1, f.0 + f.1);
    }
    let sparse: Vec<u32> =
        (0..6000u32).map(|i| (i % 613).wrapping_mul(0x9e37_79b9) | 1 << 20).collect();
    for (label, symbols) in [
        ("huffman/fibonacci34", fib),
        ("huffman/sparse613", sparse),
        ("huffman/single-dense", vec![32_769; 500]),
        ("huffman/single-sparse", vec![u32::MAX - 3; 77]),
    ] {
        let (len, crc) = digest(&huffman::encode_block(&symbols));
        rows.push((label.to_string(), len, crc));
    }
    rows
}

#[test]
fn encoder_streams_match_the_recorded_digests() {
    let got = current();
    let want: Vec<(String, usize, u32)> = GOLDEN
        .iter()
        .map(|&(label, len, crc)| (label.to_string(), len, crc))
        .collect();
    if got != want {
        let mut table = String::new();
        for (label, len, crc) in &got {
            table.push_str(&format!("    (\"{label}\", {len}, 0x{crc:08x}),\n"));
        }
        let first = got
            .iter()
            .zip(&want)
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("first difference: got {g:?}, recorded {w:?}"))
            .unwrap_or_else(|| format!("row count {} vs recorded {}", got.len(), want.len()));
        panic!("encoder output changed — {first}\ncurrent table:\n{table}");
    }
}

#[test]
fn golden_fields_have_the_intended_character() {
    // The digests only mean something if the fields reach the branches
    // they are named for.
    let shape = Shape::d3(20, 21, 22);
    let r = rough::<f64>(shape);
    assert!(r.value_range() > 1.9e6);
    let sz3 = CompressorId::Sz3.instance();
    let tight = compress(sz3.as_ref(), &r, ErrorBound::Relative(1e-7)).unwrap();
    // Outlier-dominated: no smaller than ~the raw samples.
    assert!(tight.len() > r.nbytes() / 2, "{} bytes", tight.len());
    let k = constant::<f32>(shape);
    assert_eq!(k.value_range(), 0.0);
    let s = smooth::<f32>(shape);
    let loose = compress(sz3.as_ref(), &s, ErrorBound::Relative(1e-2)).unwrap();
    assert!(loose.len() * 8 < s.nbytes(), "{} bytes", loose.len());
}

/// `(label, stream length, CRC-32)`, recorded at the parent of PR 13.
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
    ("zfp/smooth/33x17/rel1e-4/f32", 706, 0x0178e65b),
    ("zfp/smooth/33x17/rel1e-4/f64", 706, 0x14f11c42),
    ("zfp/smooth/20x21x22/rel1e-2/f32", 1439, 0x04a78a3a),
    ("zfp/smooth/20x21x22/rel1e-2/f64", 1439, 0x6079b8a5),
    ("zfp/smooth/20x21x22/rel1e-4/f32", 7092, 0x9c28013a),
    ("zfp/smooth/20x21x22/rel1e-4/f64", 7092, 0x84ae93da),
    ("zfp/smooth/1x32x32x32/rel1e-2/f32", 3525, 0xda1814f3),
    ("zfp/smooth/1x32x32x32/rel1e-2/f64", 3525, 0x04f236f8),
    ("zfp/smooth/1x32x32x32/rel1e-4/f32", 39826, 0xd05c0521),
    ("zfp/smooth/1x32x32x32/rel1e-4/f64", 39826, 0x3d918d56),
    ("zfp/smooth/3x5x6x7/rel1e-2/f32", 192, 0x98b23ac7),
    ("zfp/smooth/3x5x6x7/rel1e-2/f64", 192, 0xdf86f516),
    ("zfp/smooth/3x5x6x7/rel1e-4/f32", 1220, 0xba4439f5),
    ("zfp/smooth/3x5x6x7/rel1e-4/f64", 1220, 0xac670926),
    ("zfp/smooth/1x32x32x32/abs0.05/f32", 11766, 0xaa93e3d3),
    ("zfp/smooth/1x32x32x32/abs0.05/f64", 11766, 0x7b2b10a4),
    ("zfp/rough/20x21x22/rel1e-7/f32", 34108, 0xb8ca2d36),
    ("zfp/rough/20x21x22/rel1e-7/f64", 34161, 0x07f57754),
    ("zfp/spike/20x21x22/abs0.01/f32", 7969, 0x5b5a0172),
    ("zfp/spike/20x21x22/abs0.01/f64", 8225, 0x7c47984b),
    ("zfp/constant/20x21x22/rel1e-3/f32", 2771, 0x39e5fb23),
    ("zfp/constant/20x21x22/rel1e-3/f64", 2771, 0x158d9a82),
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
    ("sz3-linear/smooth/20x21x22/rel1e-3/f32", 3167, 0x6ba04dc4),
    ("sz3-linear/smooth/20x21x22/rel1e-3/f64", 3167, 0x921eb1c6),
    ("zfp-prec20/smooth/20x21x22/rel1e-3/f32", 6091, 0x858b8c83),
    ("zfp-prec20/smooth/20x21x22/rel1e-3/f64", 6091, 0xb4ce98ba),
    ("qoz-psnr70/smooth/20x21x22/rel1e-3/f32", 1548, 0x526e8e5d),
    ("qoz-psnr70/smooth/20x21x22/rel1e-3/f64", 1548, 0xed90367b),
    ("sz2-blocks5x3x4/smooth/20x21x22/rel1e-3/f32", 2171, 0xa7a3deea),
    ("sz2-blocks5x3x4/smooth/20x21x22/rel1e-3/f64", 2173, 0x5c2fbb2c),
    ("huffman/fibonacci34", 4886095, 0x7d214a6c),
    ("huffman/sparse613", 10058, 0xfeb9700e),
    ("huffman/single-dense", 72, 0x6958759f),
    ("huffman/single-sparse", 19, 0x479a2b62),
];
