//! The deterministic inputs both golden tables run over:
//! `encode_golden.rs` pins the stream each one encodes to,
//! `decode_golden.rs` what that stream decodes to.
//!
//! The fields are built from integer and IEEE-exact `+ − × ÷` arithmetic
//! only (no `sin`/`exp`, no RNG crate), so they are reproducible from
//! source alone.

use eblcio_codec::util::crc32;
use eblcio_codec::{
    ArrayStage, CodecChain, Compressor, CompressorId, ErrorBound, Qoz, Sz2, Sz3, Zfp,
};
use eblcio_data::{Element, NdArray, Shape};

/// A byte string's table entry: its length and CRC-32.
pub fn digest(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32(bytes))
}

/// Fails unless `got` is the recorded table `want`, printing the first
/// difference and the whole current table.
pub fn check_table(what: &str, got: &[(String, usize, u32)], want: &[(&str, usize, u32)]) {
    let want: Vec<(String, usize, u32)> =
        want.iter().map(|&(label, len, crc)| (label.to_string(), len, crc)).collect();
    if got != want {
        let mut table = String::new();
        for (label, len, crc) in got {
            table.push_str(&format!("    (\"{label}\", {len}, 0x{crc:08x}),\n"));
        }
        let first = got
            .iter()
            .zip(&want)
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("first difference: got {g:?}, recorded {w:?}"))
            .unwrap_or_else(|| format!("row count {} vs recorded {}", got.len(), want.len()));
        panic!("{what} changed — {first}\ncurrent table:\n{table}");
    }
}

/// Deterministic hash of a flat index to `[0, 1)`.
fn unit_hash(i: u64) -> f64 {
    let mut x = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The four field kinds.
#[derive(Clone, Copy, Debug)]
pub enum Field {
    /// Smooth polynomial field with a small rough component, so the
    /// streams exercise short and long Huffman codes, regression and
    /// Lorenzo blocks, cubic/linear/copy stencils and a few outliers.
    Smooth,
    /// Pseudo-random field: no predictor gets close, so tight bounds
    /// drive the SZ family into wide codes and the outlier path.
    Rough,
    /// The smooth field with one sample 30 orders of magnitude above the
    /// rest: under an absolute bound its ZFP block overflows the
    /// fixed-point path and is stored verbatim, and the SZ family sees a
    /// lone outlier.
    Spike,
    /// One value everywhere.
    Constant,
}

impl Field {
    /// The field over `shape`.
    pub fn generate<T: Element>(self, shape: Shape) -> NdArray<T> {
        let strides = shape.strides();
        match self {
            Field::Smooth => NdArray::from_fn(shape, |idx| {
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
            }),
            Field::Rough => NdArray::from_fn(shape, |idx| {
                let flat: usize = idx.iter().zip(&strides).map(|(&c, &s)| c * s).sum();
                T::from_f64(2.0e6 * (unit_hash(flat as u64 ^ 0x5151) - 0.5))
            }),
            Field::Spike => {
                let mut a = Field::Smooth.generate::<T>(shape);
                let mid = a.len() / 2;
                a.as_mut_slice()[mid] = T::from_f64(1e30);
                a
            }
            Field::Constant => NdArray::from_fn(shape, |_| T::from_f64(-7.25)),
        }
    }
}

/// One golden input: a chain, a field over a shape and a bound. Every
/// input runs in both precisions.
pub struct Input {
    /// Table label without its dtype suffix.
    pub label: String,
    pub codec: Box<dyn Compressor>,
    pub field: Field,
    pub shape: Shape,
    pub bound: ErrorBound,
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

/// Every codec input, in table order.
pub fn inputs() -> Vec<Input> {
    let mut out = Vec::new();
    for id in CompressorId::ALL {
        let mut add = |label: String, field: Field, shape: Shape, bound: ErrorBound| {
            out.push(Input { label, codec: id.instance(), field, shape, bound });
        };
        for shape in shapes() {
            for eps in [1e-2, 1e-4] {
                let label = format!("{}/smooth/{shape}/rel{eps:e}", tag(id));
                add(label, Field::Smooth, shape, ErrorBound::Relative(eps));
            }
        }
        // The store resolves ε once per array and hands every chunk an
        // absolute bound.
        let chunk = Shape::d4(1, 32, 32, 32);
        let label = format!("{}/smooth/{chunk}/abs0.05", tag(id));
        add(label, Field::Smooth, chunk, ErrorBound::Absolute(0.05));

        let shape = Shape::d3(20, 21, 22);
        for (name, field, b, bound) in [
            ("rough", Field::Rough, "rel1e-7", ErrorBound::Relative(1e-7)),
            ("spike", Field::Spike, "abs0.01", ErrorBound::Absolute(0.01)),
            ("constant", Field::Constant, "rel1e-3", ErrorBound::Relative(1e-3)),
        ] {
            add(format!("{}/{name}/{shape}/{b}", tag(id)), field, shape, bound);
        }
    }

    // Non-default stage parameters run encoder branches the presets
    // never take.
    let shape = Shape::d3(20, 21, 22);
    let mut sz2_blocks = Sz2::default();
    sz2_blocks.block_dims = Some([5, 3, 4, 1]);
    let variants: [(&str, Box<dyn ArrayStage>); 4] = [
        ("sz3-linear", Box::new(Sz3::linear_only())),
        ("zfp-prec20", Box::new(Zfp::with_fixed_precision(20))),
        ("qoz-psnr70", Box::new(Qoz::with_target_psnr(70.0))),
        ("sz2-blocks5x3x4", Box::new(sz2_blocks)),
    ];
    for (name, stage) in variants {
        out.push(Input {
            label: format!("{name}/smooth/{shape}/rel1e-3"),
            codec: Box::new(CodecChain::around(stage)),
            field: Field::Smooth,
            shape,
            bound: ErrorBound::Relative(1e-3),
        });
    }
    out
}

/// Huffman blocks the codec streams never produce: the length-limit
/// retry (Fibonacci counts ask for a 33-bit code), the sorted-table path
/// for symbols ≥ 2²⁰, and one-symbol alphabets.
pub fn huffman_inputs() -> Vec<(&'static str, Vec<u32>)> {
    let mut fib = Vec::new();
    let mut f = (1u64, 1u64);
    for sym in 0..34u32 {
        fib.extend(std::iter::repeat_n(1000 + sym, f.0 as usize));
        f = (f.1, f.0 + f.1);
    }
    let sparse: Vec<u32> =
        (0..6000u32).map(|i| (i % 613).wrapping_mul(0x9e37_79b9) | 1 << 20).collect();
    vec![
        ("huffman/fibonacci34", fib),
        ("huffman/sparse613", sparse),
        ("huffman/single-dense", vec![32_769; 500]),
        ("huffman/single-sparse", vec![u32::MAX - 3; 77]),
    ]
}
