//! Focused encode→decode identity tests for the codec primitives —
//! `huffman`, `bitstream`, `lz` — on random and adversarial inputs:
//! empty streams, single symbols, all-equal runs, and byte images of
//! NaN/Inf-bearing floats (the lossless backend must round-trip any
//! bit pattern the quantizer or a raw-dump path hands it).
//!
//! The word-based encode primitives (`BitWriter`, the ZFP plane coder)
//! are additionally held, bit for bit, to per-bit oracles that live in
//! this file: [`BitOracle`] and [`encode_planes_oracle`].

use eblcio_codec::bitstream::{BitReader, BitWriter};
use eblcio_codec::transform::{decode_planes, encode_planes, FIXED_PREC};
use eblcio_codec::{compress, decompress, huffman, lz, CompressorId, ErrorBound};
use eblcio_data::{max_abs_error, NdArray, Shape};
use proptest::prelude::*;

/// The bit-at-a-time writer the word-based [`BitWriter`] replaced: one
/// flag per bit, packed MSB-first and zero-padded at the end.
#[derive(Default)]
struct BitOracle {
    bits: Vec<bool>,
}

impl BitOracle {
    fn put_bit(&mut self, bit: bool) {
        self.bits.push(bit);
    }
    fn put_bits(&mut self, v: u64, n: u32) {
        for i in (0..n).rev() {
            self.put_bit((v >> i) & 1 == 1);
        }
    }
    fn put_unary(&mut self, v: u32) {
        for _ in 0..v {
            self.put_bit(true);
        }
        self.put_bit(false);
    }
    fn bit_len(&self) -> u64 {
        self.bits.len() as u64
    }
    fn finish(self) -> Vec<u8> {
        self.bits
            .chunks(8)
            .map(|c| c.iter().enumerate().fold(0u8, |b, (i, &bit)| b | u8::from(bit) << (7 - i)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Huffman
// ---------------------------------------------------------------------------

fn huffman_roundtrip(symbols: &[u32]) {
    let enc = huffman::encode_block(symbols);
    let (dec, used) = huffman::decode_block(&enc).expect("decode");
    assert_eq!(dec, symbols, "huffman round-trip mismatch");
    assert_eq!(used, enc.len(), "huffman did not consume its whole block");
}

#[test]
fn huffman_empty() {
    huffman_roundtrip(&[]);
}

#[test]
fn huffman_single_symbol() {
    huffman_roundtrip(&[0]);
    huffman_roundtrip(&[42]);
    huffman_roundtrip(&[u32::MAX]);
}

#[test]
fn huffman_all_equal() {
    // Degenerate one-entry alphabet: code length 0 is impossible, so the
    // coder must still emit a decodable stream.
    for len in [1usize, 2, 7, 256, 4099] {
        huffman_roundtrip(&vec![7u32; len]);
        huffman_roundtrip(&vec![u32::MAX; len]);
    }
}

#[test]
fn huffman_two_symbol_extreme_skew() {
    // 4095:1 skew drives one code to maximum length.
    let mut symbols = vec![1u32; 4095];
    symbols.push(2);
    huffman_roundtrip(&symbols);
}

#[test]
fn huffman_wide_alphabet() {
    // Every symbol distinct — no redundancy for the coder to exploit.
    let symbols: Vec<u32> = (0..2048u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    huffman_roundtrip(&symbols);
}

#[test]
fn huffman_float_bit_symbols() {
    // Symbols taken from NaN/Inf float bit patterns (quantizer escape
    // paths encode raw bits).
    let specials = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        -0.0,
        f32::MAX,
    ];
    let symbols: Vec<u32> = specials.iter().map(|f| f.to_bits()).collect();
    huffman_roundtrip(&symbols);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn huffman_random_skewed(
        base in any::<u32>(),
        spread in 1u32..64,
        data in proptest::collection::vec(0u32..4096, 0..2048),
    ) {
        // Shifted/clustered alphabets exercise canonical-code assignment
        // away from the dense 0..n case.
        let symbols: Vec<u32> = data.iter().map(|&d| base.wrapping_add(d % spread)).collect();
        let enc = huffman::encode_block(&symbols);
        let (dec, used) = huffman::decode_block(&enc).unwrap();
        prop_assert_eq!(dec, symbols);
        prop_assert_eq!(used, enc.len());
    }
}

// ---------------------------------------------------------------------------
// Bitstream
// ---------------------------------------------------------------------------

#[test]
fn bitstream_empty() {
    let w = BitWriter::new();
    let bytes = w.finish();
    assert!(bytes.is_empty());
    let mut r = BitReader::new(&bytes);
    assert_eq!(r.remaining_bits(), 0);
    assert!(r.get_bit("empty").is_err());
}

#[test]
fn bitstream_all_widths_roundtrip() {
    // Every width 1..=64 at both all-ones and alternating patterns.
    let mut w = BitWriter::new();
    for n in 1..=64u32 {
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        w.put_bits(mask, n);
        w.put_bits(0xAAAA_AAAA_AAAA_AAAA & mask, n);
    }
    let total: u64 = (1..=64u64).map(|n| 2 * n).sum();
    assert_eq!(w.bit_len(), total);
    let bytes = w.finish();
    let mut r = BitReader::new(&bytes);
    for n in 1..=64u32 {
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        assert_eq!(r.get_bits(n, "ones").unwrap(), mask, "width {n}");
        assert_eq!(
            r.get_bits(n, "alt").unwrap(),
            0xAAAA_AAAA_AAAA_AAAA & mask,
            "width {n}"
        );
    }
}

#[test]
fn bitstream_float_payloads_roundtrip() {
    // Raw NaN/Inf bit images through the bit-level layer.
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -0.0f64,
    ];
    let mut w = BitWriter::new();
    // Offset by a 3-bit header so payloads straddle byte boundaries.
    w.put_bits(0b101, 3);
    for f in specials {
        w.put_bits(f.to_bits(), 64);
    }
    let bytes = w.finish();
    let mut r = BitReader::new(&bytes);
    assert_eq!(r.get_bits(3, "hdr").unwrap(), 0b101);
    for f in specials {
        assert_eq!(r.get_bits(64, "f64 bits").unwrap(), f.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bitstream_mixed_ops_roundtrip(
        ops in proptest::collection::vec((any::<u64>(), 1u32..65, 0u32..40), 0..200),
    ) {
        let mut w = BitWriter::new();
        for &(v, n, u) in &ops {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            w.put_bits(v & mask, n);
            w.put_unary(u);
        }
        let expected_bits: u64 = ops.iter().map(|&(_, n, u)| u64::from(n) + u64::from(u) + 1).sum();
        prop_assert_eq!(w.bit_len(), expected_bits);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n, u) in &ops {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            prop_assert_eq!(r.get_bits(n, "bits").unwrap(), v & mask);
            prop_assert_eq!(r.get_unary("unary").unwrap(), u);
        }
        prop_assert_eq!(r.bit_position(), expected_bits);
    }
}

/// One writer call.
#[derive(Clone, Debug)]
enum BitOp {
    Bits(u64, u32),
    Bit(bool),
    Unary(u32),
}

fn bit_op() -> impl Strategy<Value = BitOp> {
    prop_oneof![
        // Any width 0..=64, with garbage above the low `n` bits: only
        // those may reach the stream.
        (any::<u64>(), 0u32..65).prop_map(|(v, n)| BitOp::Bits(v, n)),
        any::<bool>().prop_map(BitOp::Bit),
        // Long enough to cross several accumulator words.
        (0u32..200).prop_map(BitOp::Unary),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bitwriter_matches_the_per_bit_oracle(ops in proptest::collection::vec(bit_op(), 0..300)) {
        let mut fast = BitWriter::new();
        let mut slow = BitOracle::default();
        for op in &ops {
            match *op {
                BitOp::Bits(v, n) => {
                    fast.put_bits(v, n);
                    slow.put_bits(v, n);
                }
                BitOp::Bit(b) => {
                    fast.put_bit(b);
                    slow.put_bit(b);
                }
                BitOp::Unary(u) => {
                    fast.put_unary(u);
                    slow.put_unary(u);
                }
            }
            prop_assert_eq!(fast.bit_len(), slow.bit_len());
        }
        prop_assert_eq!(fast.finish(), slow.finish());
    }
}

// ---------------------------------------------------------------------------
// ZFP plane coder
// ---------------------------------------------------------------------------

/// Negabinary width the ZFP codec codes per coefficient.
const TOTAL_BITS: u32 = FIXED_PREC as u32 + 4;

/// Transcription of the plane coder as it stood before the word-based
/// rewrite: per-coefficient flags, a `pending` list re-scanned at every
/// group test, one writer call per bit.
fn encode_planes_oracle(w: &mut BitOracle, coeffs: &[u64], total_bits: u32, planes: u32) {
    let n = coeffs.len();
    let mut significant = vec![false; n];
    let mut pending: Vec<usize> = (0..n).collect();
    for plane in 0..planes.min(total_bits) {
        let bitpos = total_bits - 1 - plane;
        // Raw bits for coefficients already significant.
        for (i, sig) in significant.iter().enumerate().take(n) {
            if *sig {
                w.put_bit((coeffs[i] >> bitpos) & 1 == 1);
            }
        }
        // Group-test the rest in sequency order.
        let mut i = 0usize;
        let mut newly = false;
        while i < pending.len() {
            let any = pending[i..].iter().any(|&j| (coeffs[j] >> bitpos) & 1 == 1);
            w.put_bit(any);
            if !any {
                break;
            }
            // Emit bits until the first set bit (inclusive).
            while i < pending.len() {
                let j = pending[i];
                let bit = (coeffs[j] >> bitpos) & 1 == 1;
                w.put_bit(bit);
                i += 1;
                if bit {
                    significant[j] = true;
                    newly = true;
                    break;
                }
            }
        }
        if newly {
            pending.retain(|&j| !significant[j]);
        }
    }
}

/// A coefficient block shaped like real ones: magnitudes fall off with
/// the index at a random rate, some entries are exactly zero, and bits
/// above the coded width are set (the coder must ignore them).
fn coeff_block(n: usize) -> impl Strategy<Value = Vec<u64>> {
    (proptest::collection::vec(any::<u64>(), n..n + 1), 0u32..8, any::<u64>()).prop_map(
        move |(raw, decay, zero_mask)| {
            raw.iter()
                .enumerate()
                .map(|(i, &r)| {
                    if (zero_mask >> (i % 64)) & 1 == 1 && i % 3 == 0 {
                        return 0;
                    }
                    let drop = ((i as u32 * decay) / 4).min(TOTAL_BITS);
                    let kept = if drop >= 64 { 0 } else { (r << 12 >> 12) >> drop };
                    kept | (r & 0xfff0_0000_0000_0000)
                })
                .collect()
        },
    )
}

fn assert_planes_match_oracle(coeffs: &[u64]) {
    for planes in 1..=TOTAL_BITS {
        let mut fast = BitWriter::new();
        // A header before the planes, so they start mid-word.
        fast.put_bits(0b10, 2);
        encode_planes(&mut fast, coeffs, TOTAL_BITS, planes);
        let mut slow = BitOracle::default();
        slow.put_bits(0b10, 2);
        encode_planes_oracle(&mut slow, coeffs, TOTAL_BITS, planes);
        assert_eq!(fast.bit_len(), slow.bit_len(), "planes {}", planes);
        let bytes = fast.finish();
        assert_eq!(&bytes, &slow.finish(), "planes {}", planes);
        // And the decoder recovers exactly the kept planes.
        let mut r = BitReader::new(&bytes);
        r.get_bits(2, "hdr").unwrap();
        let mut back = vec![u64::MAX; coeffs.len()];
        decode_planes(&mut r, &mut back, TOTAL_BITS, planes).unwrap();
        let keep = !((1u64 << (TOTAL_BITS - planes)) - 1) & ((1u64 << TOTAL_BITS) - 1);
        for (b, c) in back.iter().zip(coeffs) {
            assert_eq!(*b, c & keep, "planes {}", planes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn encode_planes_matches_the_per_bit_oracle_rank1(c in coeff_block(4)) {
        assert_planes_match_oracle(&c);
    }

    #[test]
    fn encode_planes_matches_the_per_bit_oracle_rank2(c in coeff_block(16)) {
        assert_planes_match_oracle(&c);
    }

    #[test]
    fn encode_planes_matches_the_per_bit_oracle_rank3(c in coeff_block(64)) {
        assert_planes_match_oracle(&c);
    }

    #[test]
    fn encode_planes_matches_the_per_bit_oracle_rank4(c in coeff_block(256)) {
        assert_planes_match_oracle(&c);
    }
}

#[test]
fn encode_planes_edge_blocks_match_the_oracle() {
    for n in [4usize, 16, 64, 256] {
        let all = vec![(1u64 << TOTAL_BITS) - 1; n];
        let none = vec![0u64; n];
        let mut last_only = vec![0u64; n];
        last_only[n - 1] = 1 << (TOTAL_BITS - 1);
        let stripes: Vec<u64> = (0..n).map(|i| if i % 2 == 0 { 0x5_5555_5555_5555 } else { 0 }).collect();
        for coeffs in [all, none, last_only, stripes] {
            assert_planes_match_oracle(&coeffs);
        }
    }
}

// ---------------------------------------------------------------------------
// Fused SZ-family encoders: the bound, on awkward and unit-axis shapes
// ---------------------------------------------------------------------------

#[test]
fn fused_encoders_hold_the_absolute_bound_on_awkward_shapes() {
    let shapes = [
        Shape::d1(1),
        Shape::d1(3),
        Shape::d1(1023),
        Shape::d2(1, 50),
        Shape::d2(33, 17),
        Shape::d3(5, 6, 7),
        Shape::d4(3, 4, 5, 6),
        // Unit axes: a time-sliced chunk, a flat slab, a pencil.
        Shape::d4(1, 8, 8, 8),
        Shape::d3(4, 1, 6),
        Shape::d3(1, 1, 16),
    ];
    for id in [CompressorId::Sz2, CompressorId::Sz3, CompressorId::Qoz] {
        let codec = id.instance();
        for shape in shapes {
            let f = |i: &[usize]| {
                let s: usize = i.iter().enumerate().map(|(d, &c)| c * (d + 2)).sum();
                (s as f64 * 0.37).sin() * 10.0 + (i[0] as f64 * 0.11).cos()
            };
            let d64 = NdArray::<f64>::from_fn(shape, f);
            let d32 = NdArray::<f32>::from_fn(shape, |i| f(i) as f32);
            for abs in [0.5, 1e-3] {
                let bound = ErrorBound::Absolute(abs);
                let back = decompress::<f64>(codec.as_ref(), &compress(codec.as_ref(), &d64, bound).unwrap()).unwrap();
                let err = max_abs_error(&d64, &back);
                assert!(err <= abs, "{} f64 {shape} abs {abs}: {err}", id.name());
                let back = decompress::<f32>(codec.as_ref(), &compress(codec.as_ref(), &d32, bound).unwrap()).unwrap();
                let err = max_abs_error(&d32, &back);
                assert!(err <= abs, "{} f32 {shape} abs {abs}: {err}", id.name());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// LZ
// ---------------------------------------------------------------------------

fn lz_roundtrip(input: &[u8]) {
    let c = lz::compress(input);
    let back = lz::decompress(&c).expect("lz decompress");
    assert_eq!(back, input, "lz round-trip mismatch ({} bytes)", input.len());
}

#[test]
fn lz_empty() {
    lz_roundtrip(&[]);
}

#[test]
fn lz_single_byte() {
    for b in [0u8, 1, 0x80, 0xFF] {
        lz_roundtrip(&[b]);
    }
}

#[test]
fn lz_all_equal_runs() {
    for len in [1usize, 2, 3, 255, 256, 257, 65_537] {
        lz_roundtrip(&vec![0xABu8; len]);
        lz_roundtrip(&vec![0u8; len]);
    }
}

#[test]
fn lz_short_period_runs() {
    // Period-2/3/4 repetitions stress overlapping-match copying.
    for period in [2usize, 3, 4, 7] {
        let data: Vec<u8> = (0..10_000).map(|i| (i % period) as u8).collect();
        lz_roundtrip(&data);
    }
}

#[test]
fn lz_nan_inf_float_images() {
    // The lossless stage must be exactly lossless on every float bit
    // pattern, including quiet/signalling NaNs and infinities, in both
    // precisions — these appear verbatim in raw-dump containers.
    let f32s = [
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7FA0_0001), // signalling-style NaN payload
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0f32,
        f32::MIN_POSITIVE,
        1.0f32,
    ];
    let mut bytes: Vec<u8> = f32s.iter().flat_map(|f| f.to_le_bytes()).collect();
    // A NaN-flooded field (worst case: high-entropy mantissa payloads).
    for i in 0..4096u32 {
        bytes.extend_from_slice(
            &f32::from_bits(0x7FC0_0000 | (i.wrapping_mul(2_654_435_769) % 0x3F_FFFF))
                .to_le_bytes(),
        );
    }
    let f64s = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0f64];
    bytes.extend(f64s.iter().flat_map(|f| f.to_le_bytes()));
    lz_roundtrip(&bytes);
    // Round-tripped bytes reinterpret to bit-identical floats.
    let c = lz::compress(&bytes);
    let back = lz::decompress(&c).unwrap();
    for (a, b) in bytes.chunks_exact(4).zip(back.chunks_exact(4)) {
        let fa = f32::from_le_bytes(a.try_into().unwrap());
        let fb = f32::from_le_bytes(b.try_into().unwrap());
        assert_eq!(fa.to_bits(), fb.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lz_random_bytes(data in proptest::collection::vec(any::<u8>(), 0..16_384)) {
        let c = lz::compress(&data);
        prop_assert_eq!(lz::decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_compressible_text(
        word in "[a-z]{3,9}",
        reps in 1usize..400,
    ) {
        let data: Vec<u8> = word.bytes().cycle().take(word.len() * reps).collect();
        let c = lz::compress(&data);
        prop_assert_eq!(lz::decompress(&c).unwrap(), data);
    }
}
