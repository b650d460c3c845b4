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

use crate::error::{CodecError, Result};
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

#[inline]
fn hash4(b: &[u8]) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input` losslessly.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    put_varint(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }

    // head[h] = most recent position with hash h; prev[i & mask] = chain.
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
            // Insert hash entries across the matched region (sparsely for
            // long matches to bound cost).
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
    // Trailing literals.
    if lit_start < n {
        emit_token(&mut out, &input[lit_start..n], 0, 0);
    } else if lit_start == n && n == 0 {
        // unreachable: handled above
    }
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
            // Byte-at-a-time copy: supports overlapping matches (RLE).
            let start = out.len() - offset;
            for k in 0..match_len {
                let b = out[start + k];
                out.push(b);
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
