//! The LZ stage past the checksum: an SZ3 stream whose LZ tokens are
//! forged (a match offset of 0, one past the bytes decoded so far or
//! huge; a match length or literal count past the raw length) and whose
//! `EBLC` CRC is re-sealed still gives a typed error or a correctly
//! shaped array, never a panic, and allocates no buffer beyond a small
//! multiple of the stream and the output.

mod largest_allocation;

use eblcio_codec::header::{read_stream, write_stream};
use eblcio_codec::lz::MIN_MATCH;
use eblcio_codec::util::{put_varint, ByteReader};
use eblcio_codec::{compress, decompress_any, CompressorId, ErrorBound};
use eblcio_data::{NdArray, Shape};
use largest_allocation::largest_allocation;
use proptest::prelude::*;
use std::ops::Range;

/// One LZ token, as coded.
#[derive(Clone, Debug)]
struct Token {
    /// Literal count.
    lit_n: u64,
    /// Where the literal bytes sit in the LZ stream.
    literals: Range<usize>,
    /// Match offset; 0 stands for none when `m_n` is 0.
    offset: u64,
    /// Coded match length (`len - MIN_MATCH + 1`); 0 = no match.
    m_n: u64,
    /// Bytes decoded before this token's literals.
    out_before: u64,
}

/// The raw length and tokens of an LZ stream.
fn walk(lz: &[u8]) -> (u64, Vec<Token>) {
    let mut r = ByteReader::new(lz);
    let raw_len = r.varint("raw length").unwrap();
    let (mut out, mut tokens) = (0, Vec::new());
    while out < raw_len {
        let tok = r.u8("token").unwrap();
        let (lit_nib, m_nib) = (u64::from(tok >> 4), u64::from(tok & 0x0f));
        let lit_n = if lit_nib == 15 { 15 + r.varint("literal length").unwrap() } else { lit_nib };
        let start = r.position();
        r.take(lit_n as usize, "literals").unwrap();
        let literals = start..r.position();
        let (mut offset, mut m_n) = (0, 0);
        if m_nib > 0 {
            offset = r.varint("offset").unwrap();
            m_n = if m_nib == 15 { 15 + r.varint("match length").unwrap() } else { m_nib };
        }
        tokens.push(Token { lit_n, literals, offset, m_n, out_before: out });
        out += lit_n + if m_n > 0 { m_n - 1 + MIN_MATCH as u64 } else { 0 };
    }
    assert_eq!((out, r.remaining()), (raw_len, 0), "the walk must end with the stream");
    (raw_len, tokens)
}

/// Codes `tokens` as an LZ stream, taking literal bytes from `lz`. A
/// forged literal count keeps the token's original bytes.
fn emit(raw_len: u64, tokens: &[Token], lz: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, raw_len);
    for t in tokens {
        let (lit_nib, m_nib) = (t.lit_n.min(15), t.m_n.min(15));
        out.push(((lit_nib << 4) | m_nib) as u8);
        if lit_nib == 15 {
            put_varint(&mut out, t.lit_n - 15);
        }
        out.extend_from_slice(&lz[t.literals.clone()]);
        if t.m_n > 0 {
            put_varint(&mut out, t.offset);
            if m_nib == 15 {
                put_varint(&mut out, t.m_n - 15);
            }
        }
    }
    out
}

/// One `[1, 32, 32, 32]` f64 chunk (the `dump_write` chunk shape) of a
/// smooth field with a seeded ripple, as an SZ3 `EBLC` stream.
fn sz3_chunk(seed: u64) -> Vec<u8> {
    let phase = (seed % 1000) as f64 * 0.01;
    let data = NdArray::<f64>::from_fn(Shape::d4(1, 32, 32, 32), |i| {
        let (x, y, z) = (i[1] as f64, i[2] as f64, i[3] as f64);
        (0.21 * x + phase).sin() * 30.0 + (0.13 * y - 0.07 * z).cos() * 12.0 + 0.01 * x * z
    });
    let codec = CompressorId::Sz3.instance();
    compress(codec.as_ref(), &data, ErrorBound::Relative(1e-3)).unwrap()
}

#[derive(Clone, Copy, Debug)]
enum Mutation {
    OffsetZero,
    /// One past the bytes decoded before the match.
    OffsetPastOutput,
    OffsetHuge(u64),
    /// A match that ends `k` bytes past the raw length.
    MatchPastEnd(u64),
    /// A coded match length whose decoded length overflows `u64`.
    MatchLengthMax,
    /// Literals that end `k` bytes past the raw length.
    LiteralsPastEnd(u64),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0u8..1).prop_map(|_| Mutation::OffsetZero),
        (0u8..1).prop_map(|_| Mutation::OffsetPastOutput),
        ((1u64 << 40)..u64::MAX).prop_map(Mutation::OffsetHuge),
        (1u64..1 << 40).prop_map(Mutation::MatchPastEnd),
        (0u8..1).prop_map(|_| Mutation::MatchLengthMax),
        (1u64..1 << 40).prop_map(Mutation::LiteralsPastEnd),
    ]
}

/// Applies `m` to the `pick`-th token that can carry it; `false` when
/// no token can.
fn mutate(raw_len: u64, tokens: &mut [Token], m: Mutation, pick: usize) -> bool {
    let literal = matches!(m, Mutation::LiteralsPastEnd(_));
    let fits: Vec<usize> = (0..tokens.len()).filter(|&i| literal || tokens[i].m_n > 0).collect();
    if fits.is_empty() {
        return false;
    }
    let t = &mut tokens[fits[pick % fits.len()]];
    let before_match = t.out_before + t.lit_n;
    match m {
        Mutation::OffsetZero => t.offset = 0,
        Mutation::OffsetPastOutput => t.offset = before_match + 1,
        Mutation::OffsetHuge(v) => t.offset = v,
        Mutation::MatchPastEnd(k) => t.m_n = raw_len - before_match + k - MIN_MATCH as u64 + 1,
        Mutation::MatchLengthMax => t.m_n = u64::MAX,
        Mutation::LiteralsPastEnd(k) => t.lit_n = raw_len - t.out_before + k,
    }
    true
}

#[test]
fn the_walk_recodes_an_sz3_payload_byte_for_byte() {
    let stream = sz3_chunk(7);
    let (_, payload) = read_stream(&stream).unwrap();
    let (raw_len, tokens) = walk(payload);
    assert!(tokens.iter().filter(|t| t.m_n > 0).count() > 20, "{} tokens", tokens.len());
    assert_eq!(emit(raw_len, &tokens, payload), payload);
}

/// Forges one token of a fresh SZ3 chunk, re-seals the stream and
/// decodes it: a typed error or a correctly shaped array, within the
/// allocation bound.
fn check_forgery(seed: u64, m: Mutation, pick: usize) {
    let stream = sz3_chunk(seed);
    let (header, payload) = read_stream(&stream).unwrap();
    let (raw_len, mut tokens) = walk(payload);
    if !mutate(raw_len, &mut tokens, m, pick) {
        return;
    }
    let forged = write_stream(&header, &emit(raw_len, &tokens, payload));
    let (decoded, largest) = largest_allocation(|| decompress_any(&forged));
    let output = header.shape.len() * 8;
    assert!(
        largest <= 4 * (forged.len() + output),
        "{m:?}: allocated {largest} bytes for a {}-byte stream",
        forged.len()
    );
    if let Ok(data) = decoded {
        assert_eq!(data.shape(), header.shape, "{m:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn forged_lz_tokens_give_typed_results(
        seed in any::<u64>(),
        m in mutation(),
        pick in any::<usize>(),
    ) {
        check_forgery(seed, m, pick);
    }
}
