//! LZ77 lossless backend.
//!
//! The SZ-family pipelines finish with a dictionary coder (Zstd in the
//! paper's builds). This module implements a self-contained greedy LZ77
//! with hash-chain match finding and LZ4-style token framing:
//!
//! ```text
//! [raw len varint] [token]*
//! token = [lit_len:4 | match_len:4] [ext lit len varint?] [literals…]
//!         [offset varint] [ext match len varint?]
//! ```
//!
//! A final token may have `match_len = 0` (literals only). Offsets are
//! limited to [`WINDOW`]; matches shorter than [`MIN_MATCH`] are never
//! emitted, so decoding is unambiguous.
//!
//! The match finder's hash chains (2 × 256 KiB of `u32` positions) live
//! in the thread's [`CodecScratch`](crate::scratch::CodecScratch) and are
//! never cleared between calls: each call stores positions past a window
//! beyond the last call's, so stale entries fail the window test like
//! empty ones. Match lengths are compared eight bytes at a time. The
//! candidates, their order and the tokens are those of tables filled
//! fresh per call, byte for byte; the tests keep that encoder as their
//! oracle.

use crate::error::{CodecError, Result};
use crate::scratch::with_scratch;
use crate::util::{put_varint, ByteReader};

/// Sliding-window size (64 KiB).
pub const WINDOW: usize = 1 << 16;
/// Minimum emitted match length.
pub const MIN_MATCH: usize = 4;
/// Nibble value meaning "length continues in a varint".
const NIBBLE_EXT: u64 = 15;
/// Output bytes [`decompress_into`] reserves per input byte before
/// decoding; a stream that expands further grows its output as it goes.
const RESERVE_PER_INPUT_BYTE: usize = 16;

const HASH_BITS: u32 = 16;
/// Longest candidate chain walked per position.
const MAX_CHAIN: usize = 32;
/// Positions are stored relative to a base that moves forward by half
/// this span whenever a stored position would reach it, so inputs of
/// any length fit the `u32` tables.
const REBASE_SPAN: usize = 1 << 31;

#[inline]
fn hash4(b: &[u8]) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// The match finder's hash chains (see the module docs). A call stores
/// position `j` as `origin + j` (less a base that only moves for inputs
/// of 2 GiB and more), with `origin` at least [`WINDOW`] past every
/// value an earlier call stored, so the window test turns every earlier
/// entry away exactly as it would an empty one.
#[derive(Default)]
pub(crate) struct LzTables {
    /// The chains, allocated by the first call that needs them.
    chains: Option<Box<Chains>>,
    /// The next call's `origin`; out of range (as while a call runs, so
    /// one that unwound is never trusted) when the tables need a fresh
    /// start.
    next: usize,
}

/// The hash chains at their fixed sizes, so every index the match
/// finder forms (a 16-bit hash, a position modulo [`WINDOW`]) is in
/// bounds by its type.
struct Chains {
    /// Stored position of the most recent position per hash.
    head: [u32; 1 << HASH_BITS],
    /// Stored position of the previous position with the same hash, per
    /// position modulo [`WINDOW`].
    prev: [u32; WINDOW],
}

/// Compresses `input` losslessly.
pub fn compress(input: &[u8]) -> Vec<u8> {
    with_scratch(|s| compress_with(input, &mut s.lz, REBASE_SPAN))
}

/// Longest common prefix of `input[a..]` and `input[b..]` (`a < b`),
/// eight bytes per step: the first differing byte of two little-endian
/// words is the lowest set byte of their XOR.
#[inline]
fn common_len(input: &[u8], a: usize, b: usize) -> usize {
    let (x, y) = (&input[a..], &input[b..]);
    let mut l = 0;
    for (u, v) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let (Ok(u), Ok(v)) = (<[u8; 8]>::try_from(u), <[u8; 8]>::try_from(v)) else {
            break;
        };
        let diff = u64::from_le_bytes(u) ^ u64::from_le_bytes(v);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + x[l..].iter().zip(&y[l..]).take_while(|(u, v)| u == v).count()
}

/// [`compress`] over caller-held tables; stored positions stay below
/// `span` ([`REBASE_SPAN`] outside tests).
fn compress_with(input: &[u8], t: &mut LzTables, span: usize) -> Vec<u8> {
    // An incompressible input comes out as one literal run: its bytes,
    // a token and two varints.
    let mut out = Vec::with_capacity(input.len() + 16);
    put_varint(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }
    let fresh = t.chains.is_none() || !(WINDOW..=span / 2).contains(&t.next);
    let chains = t
        .chains
        .get_or_insert_with(|| Box::new(Chains { head: [0; 1 << HASH_BITS], prev: [0; WINDOW] }));
    if fresh {
        // A fresh start: every entry empty (0), at least WINDOW behind
        // the first position.
        chains.head.fill(0);
        chains.prev.fill(0);
        t.next = WINDOW;
    }
    let origin = std::mem::replace(&mut t.next, usize::MAX);
    let Chains { head, prev } = &mut **chains;
    // Position `j` is stored as `origin + j − base`.
    let mut base = 0usize;
    let insert = |head: &mut [u32; 1 << HASH_BITS],
                  prev: &mut [u32; WINDOW],
                  base: &mut usize,
                  h: usize,
                  j: usize| {
        if origin + j - *base >= span {
            // Entries the move drops are more than `span / 2 ≥ WINDOW`
            // behind every later position, so no chain would take them.
            let shift = span / 2;
            for v in head.iter_mut().chain(prev.iter_mut()) {
                *v = v.saturating_sub(shift as u32);
            }
            *base += shift;
        }
        prev[j % WINDOW] = head[h];
        head[h] = (origin + j - *base) as u32;
    };

    let mut i = 0usize;
    let mut lit_start = 0usize;
    let n = input.len();
    while i + MIN_MATCH <= n {
        let h = hash4(&input[i..]);
        let here = origin + i - base;
        let mut entry = head[h];
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        let maxl = n - i;
        for _ in 0..MAX_CHAIN {
            // Empty and earlier calls' entries are a window or more back.
            let back = here.wrapping_sub(entry as usize);
            if back >= WINDOW || best_len == maxl {
                break;
            }
            let cand = i - back;
            // Only a strictly longer match replaces the best, and one
            // must agree at `best_len` to be longer.
            if input[cand + best_len] == input[i + best_len] {
                let l = common_len(input, cand, i);
                if l > best_len {
                    best_len = l;
                    best_off = back;
                }
            }
            entry = prev[cand % WINDOW];
        }

        if best_len >= MIN_MATCH {
            emit_token(&mut out, &input[lit_start..i], best_off, best_len);
            // Insert hash entries across the matched region (sparsely for
            // long matches to bound cost).
            let step = if best_len > 64 { 4 } else { 1 };
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let mut j = i;
            while j < end {
                insert(head, prev, &mut base, hash4(&input[j..]), j);
                j += step;
            }
            i += best_len;
            lit_start = i;
        } else {
            insert(head, prev, &mut base, h, i);
            i += 1;
        }
    }
    // Trailing literals.
    if lit_start < n {
        emit_token(&mut out, &input[lit_start..n], 0, 0);
    }
    t.next = origin + n - base + WINDOW;
    out
}

fn emit_token(out: &mut Vec<u8>, literals: &[u8], offset: usize, match_len: usize) {
    debug_assert!(match_len == 0 || match_len >= MIN_MATCH);
    let lit_n = literals.len() as u64;
    let m_n = if match_len == 0 { 0 } else { (match_len - MIN_MATCH + 1) as u64 };
    let lit_nib = lit_n.min(NIBBLE_EXT);
    let m_nib = m_n.min(NIBBLE_EXT);
    out.push(((lit_nib << 4) | m_nib) as u8);
    if lit_nib == NIBBLE_EXT {
        put_varint(out, lit_n - NIBBLE_EXT);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        put_varint(out, offset as u64);
        if m_nib == NIBBLE_EXT {
            put_varint(out, m_n - NIBBLE_EXT);
        }
    }
}

/// Decompresses a stream produced by [`compress`].
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(buf, &mut out)?;
    Ok(out)
}

/// [`decompress`] into a caller-owned buffer (cleared first), so the
/// chain decode loop can reuse one allocation across chunks.
pub fn decompress_into(buf: &[u8], out: &mut Vec<u8>) -> Result<()> {
    let mut r = ByteReader::new(buf);
    let raw_len = r.varint("lz raw length")? as usize;
    if raw_len > 1 << 40 {
        return Err(CodecError::Corrupt { context: "lz raw length" });
    }
    out.clear();
    // `raw_len` is untrusted: reserve no more than a small multiple of
    // the input up front; longer (RLE) outputs grow as they are pushed.
    out.reserve(raw_len.min(buf.len().saturating_mul(RESERVE_PER_INPUT_BYTE)));
    while out.len() < raw_len {
        let tok = r.u8("lz token")?;
        let lit_nib = u64::from(tok >> 4);
        let m_nib = u64::from(tok & 0x0f);
        let lit_n = if lit_nib == NIBBLE_EXT {
            lit_nib
                .checked_add(r.varint("lz literal length")?)
                .ok_or(CodecError::Corrupt { context: "lz literal length" })?
        } else {
            lit_nib
        } as usize;
        if lit_n > raw_len - out.len() {
            return Err(CodecError::Corrupt { context: "lz literal overrun" });
        }
        out.extend_from_slice(r.take(lit_n, "lz literals")?);
        if m_nib > 0 || out.len() < raw_len {
            // A match follows unless this was the final literal-only token.
            if m_nib == 0 {
                // lit-only token in the middle is only legal at the end.
                if out.len() == raw_len {
                    break;
                }
                return Err(CodecError::Corrupt { context: "lz empty match" });
            }
            let offset = r.varint("lz offset")? as usize;
            let m_extra = if m_nib == NIBBLE_EXT {
                r.varint("lz match length")?
            } else {
                0
            };
            let match_len = m_extra
                .checked_add(m_nib - 1 + MIN_MATCH as u64)
                .ok_or(CodecError::Corrupt { context: "lz match length" })?
                as usize;
            if offset == 0 || offset > out.len() {
                return Err(CodecError::Corrupt { context: "lz offset" });
            }
            if match_len > raw_len - out.len() {
                return Err(CodecError::Corrupt { context: "lz match overrun" });
            }
            // The match repeats the `offset` bytes before it. Copy by
            // range from `start`: each copy takes every byte decoded
            // from `start` on, a whole number of periods, so an
            // overlapping match (RLE) doubles its run per copy.
            let start = out.len() - offset;
            let mut left = match_len;
            while left > 0 {
                let n = left.min(out.len() - start);
                out.extend_from_within(start..start + n);
                left -= n;
            }
        }
    }
    if out.len() != raw_len {
        return Err(CodecError::Corrupt { context: "lz output length" });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    /// The encoder [`compress`] replaced: fresh `usize` tables per call
    /// and a byte-at-a-time match compare. The oracle the table-reusing
    /// encoder must match byte for byte.
    fn compress_reference(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        put_varint(&mut out, input.len() as u64);
        if input.is_empty() {
            return out;
        }
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; WINDOW];
        let mut i = 0usize;
        let mut lit_start = 0usize;
        let n = input.len();
        while i + MIN_MATCH <= n {
            let h = hash4(&input[i..]);
            let mut cand = head[h];
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            let mut chain = 0;
            while cand != usize::MAX && i - cand < WINDOW && chain < 32 {
                let maxl = n - i;
                let mut l = 0;
                while l < maxl && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - cand;
                }
                cand = prev[cand % WINDOW];
                chain += 1;
            }
            if best_len >= MIN_MATCH {
                emit_token(&mut out, &input[lit_start..i], best_off, best_len);
                let step = if best_len > 64 { 4 } else { 1 };
                let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
                let mut j = i;
                while j < end {
                    let hj = hash4(&input[j..]);
                    prev[j % WINDOW] = head[hj];
                    head[hj] = j;
                    j += step;
                }
                i += best_len;
                lit_start = i;
            } else {
                prev[i % WINDOW] = head[h];
                head[h] = i;
                i += 1;
            }
        }
        if lit_start < n {
            emit_token(&mut out, &input[lit_start..n], 0, 0);
        }
        out
    }

    /// Bytes of one of six shapes: a run of one byte; a short pattern
    /// repeated; a block repeated after more than [`WINDOW`] bytes of
    /// noise; noise; a smooth f32 field's little-endian bytes; or noise
    /// over a small alphabet (short, frequent matches).
    fn byte_stream(kind: usize, n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        match kind {
            0 => vec![next() as u8; n],
            1 => {
                let pattern: Vec<u8> = (0..1 + next() % 12).map(|_| next() as u8).collect();
                pattern.iter().copied().cycle().take(n).collect()
            }
            2 => {
                let block: Vec<u8> = (0..64).map(|_| next() as u8).collect();
                let mut s = block.clone();
                s.extend((0..WINDOW + (next() % 64) as usize).map(|_| next() as u8));
                s.extend_from_slice(&block);
                s.truncate(n.max(block.len()));
                s
            }
            3 => (0..n).map(|_| next() as u8).collect(),
            4 => {
                let f = 1e-3 * (1 + next() % 100) as f32;
                (0..n.div_ceil(4))
                    .flat_map(|i| (i as f32 * f).sin().to_le_bytes())
                    .take(n)
                    .collect()
            }
            _ => (0..n).map(|_| b'a' + (next() % 3) as u8).collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The table-reusing encoder writes the oracle's tokens: empty
        /// and 1–3 byte inputs, runs, repeats, a repeat beyond the
        /// window, noise, f32 bytes, up to 1 MiB. Cases run back to back
        /// on one thread, so each also starts from the tables the last
        /// one left.
        #[test]
        fn table_reusing_encoder_matches_the_oracle(
            kind in 0usize..6,
            n in proptest::prop_oneof![
                0usize..4,
                4usize..5000,
                60_000usize..140_000,
                1usize << 20..(1 << 20) + 1,
            ],
            seed in proptest::prelude::any::<u64>(),
        ) {
            let data = byte_stream(kind, n, seed);
            proptest::prop_assert_eq!(compress(&data), compress_reference(&data));
        }
    }

    /// Moving the position base (every 2 GiB in use) drops only entries
    /// no chain could take: with a base that moves every 64 KiB, the
    /// tokens are still the oracle's.
    #[test]
    fn moving_the_base_keeps_the_tokens() {
        let mut tables = LzTables::default();
        for kind in 0..6 {
            let data = byte_stream(kind, 1 << 20, kind as u64 + 11);
            let got = compress_with(&data, &mut tables, 1 << 17);
            assert_eq!(got, compress_reference(&data), "kind {kind}");
        }
    }

    /// A call that unwound mid-way leaves entries the next call could
    /// not tell from its own, so the next call starts the tables afresh.
    #[test]
    fn a_call_that_unwound_is_not_trusted() {
        let mut tables = LzTables::default();
        compress_with(&byte_stream(1, 4000, 3), &mut tables, REBASE_SPAN);
        // Entries that read as "position 5" after a fresh start.
        if let Some(chains) = tables.chains.as_mut() {
            chains.head.fill(WINDOW as u32 + 5);
        }
        tables.next = usize::MAX;
        let data = byte_stream(5, 3000, 4);
        let got = compress_with(&data, &mut tables, REBASE_SPAN);
        assert_eq!(got, compress_reference(&data));
        assert_eq!(tables.next, WINDOW + data.len() + WINDOW);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_data_compresses() {
        let data: Vec<u8> = std::iter::repeat_n(b"abcdefgh".as_slice(), 1000)
            .flatten()
            .copied()
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 10, "{} vs {}", c.len(), data.len());
        roundtrip(&data);
    }

    #[test]
    fn rle_overlapping_match() {
        let data = vec![0x41u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100);
        roundtrip(&data);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Xorshift noise.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let c = compress(&data);
        // Expansion is bounded by token overhead.
        assert!(c.len() < data.len() + data.len() / 8 + 64);
        roundtrip(&data);
    }

    #[test]
    fn long_literal_and_long_match_extensions() {
        // > 15 literals then > 18 match bytes exercises both varint
        // extensions.
        let mut data: Vec<u8> = (0..100u8).collect();
        data.extend(std::iter::repeat_n(7u8, 500));
        roundtrip(&data);
    }

    #[test]
    fn matches_beyond_window_not_used() {
        // A repeated block separated by > WINDOW noise still round-trips.
        let mut data = b"needle-needle-needle".to_vec();
        let mut x = 99u32;
        for _ in 0..WINDOW + 100 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            data.push((x >> 24) as u8);
        }
        data.extend_from_slice(b"needle-needle-needle");
        roundtrip(&data);
    }

    #[test]
    fn truncation_detected() {
        let data: Vec<u8> = std::iter::repeat_n(b"xyzw".as_slice(), 100)
            .flatten()
            .copied()
            .collect();
        let c = compress(&data);
        for cut in 1..c.len() {
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_offset_detected() {
        let data = vec![5u8; 100];
        let mut c = compress(&data);
        // Find the offset varint and blow it up: brute-force flip bytes
        // and require error or exact roundtrip (never wrong data).
        for i in 0..c.len() {
            let orig = c[i];
            c[i] = orig.wrapping_add(0x55);
            if let Ok(d) = decompress(&c) {
                assert_ne!(d.len(), 0); // decoded something structurally valid
            }
            c[i] = orig;
        }
    }

    /// A forged stream: `raw_len`, then `tail` as its body.
    fn forged(raw_len: u64, tail: &[u8]) -> Vec<u8> {
        let mut s = Vec::new();
        put_varint(&mut s, raw_len);
        s.extend_from_slice(tail);
        s
    }

    fn is_corrupt(stream: &[u8], context: &str) -> bool {
        matches!(decompress(stream), Err(CodecError::Corrupt { context: c }) if c == context)
    }

    #[test]
    fn forged_raw_length_is_not_reserved_up_front() {
        // 2^40 bytes promised, one lit-only empty token delivered.
        assert!(is_corrupt(&forged(1 << 40, &[0x00]), "lz empty match"));
        assert!(decompress(&forged(1 << 40, &[])).is_err());
    }

    #[test]
    fn forged_literal_length_is_corrupt() {
        let mut tail = vec![0xF0];
        put_varint(&mut tail, u64::MAX);
        assert!(is_corrupt(&forged(100, &tail), "lz literal length"));
        let mut tail = vec![0xF0];
        put_varint(&mut tail, u64::MAX - NIBBLE_EXT);
        assert!(is_corrupt(&forged(100, &tail), "lz literal overrun"));
    }

    #[test]
    fn forged_match_length_is_corrupt() {
        // One literal, then a match at offset 1 whose length varint
        // is near `u64::MAX`.
        let mut tail = vec![0x1F, b'a', 1];
        put_varint(&mut tail, u64::MAX);
        assert!(is_corrupt(&forged(100, &tail), "lz match length"));
        let mut tail = vec![0x1F, b'a', 1];
        put_varint(&mut tail, u64::MAX - 32);
        assert!(is_corrupt(&forged(100, &tail), "lz match overrun"));
    }

    #[test]
    fn float_like_data() {
        let floats: Vec<u8> = (0..10_000)
            .flat_map(|i| ((i as f32) * 0.001).sin().to_le_bytes())
            .collect();
        roundtrip(&floats);
    }
}
