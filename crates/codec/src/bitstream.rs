//! MSB-first bit-level I/O used by the Huffman coder, the ZFP bitplane
//! coder, and the SZx bit packer.

use crate::error::{CodecError, Result};

/// Accumulates bits MSB-first into a byte vector.
///
/// Word-based: bits gather in a 64-bit accumulator and leave it eight
/// bytes at a time, so a call costs a shift and an or instead of one
/// branch (and possible `Vec::push`) per bit — the mirror of
/// [`BitReader::get_bits`].
#[derive(Default, Debug)]
pub struct BitWriter {
    /// Flushed bytes; always a whole number of 64-bit words.
    bytes: Vec<u8>,
    /// Pending bits in the low `used` positions (higher positions zero).
    acc: u64,
    /// Number of pending bits, `0..64`.
    used: u32,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with a pre-reserved byte capacity.
    pub fn with_capacity(bytes: usize) -> Self {
        Self::reusing(Vec::with_capacity(bytes))
    }

    /// Empty writer over a recycled buffer (cleared, capacity kept) —
    /// hand the buffer [`Self::finish`] returns back in here and a
    /// steady-state encode loop stops allocating its bit buffer.
    pub(crate) fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { bytes: buf, acc: 0, used: 0 }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.used)
    }

    /// Writes a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(u64::from(bit), 1);
    }

    /// Writes the low `n` bits of `v`, most significant first (`n ≤ 64`).
    #[inline]
    pub fn put_bits(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let v = if n == 64 { v } else { v & ((1u64 << n) - 1) };
        let free = 64 - self.used; // 1..=64
        if n < free {
            self.acc = (self.acc << n) | v;
            self.used += n;
            return;
        }
        // The accumulator fills: its pending bits, then the top `free`
        // bits of `v`, leave as one big-endian word; the low `rest`
        // bits of `v` stay pending.
        let rest = n - free; // 0..=63
        let high = if free == 64 { 0 } else { self.acc << free };
        self.bytes.extend_from_slice(&(high | (v >> rest)).to_be_bytes());
        self.acc = v & ((1u64 << rest) - 1);
        self.used = rest;
    }

    /// Writes `v` in unary: `v` one-bits then a zero-bit.
    pub fn put_unary(&mut self, v: u32) {
        let mut ones = v;
        while ones >= 64 {
            self.put_bits(u64::MAX, 64);
            ones -= 64;
        }
        // `ones` one-bits and the terminating zero in one call.
        self.put_bits(((1u64 << ones) - 1) << 1, ones + 1);
    }

    /// Pads to a byte boundary with zero bits and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.used > 0 {
            let word = (self.acc << (64 - self.used)).to_be_bytes();
            self.bytes.extend_from_slice(&word[..self.used.div_ceil(8) as usize]);
        }
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit index.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bits consumed so far.
    pub fn bit_position(&self) -> u64 {
        self.pos
    }

    /// Remaining readable bits.
    pub fn remaining_bits(&self) -> u64 {
        (self.bytes.len() as u64 * 8).saturating_sub(self.pos)
    }

    /// Reads one bit.
    #[inline]
    pub fn get_bit(&mut self, context: &'static str) -> Result<bool> {
        let byte = (self.pos / 8) as usize;
        if byte >= self.bytes.len() {
            return Err(CodecError::TruncatedStream { context });
        }
        let bit = (self.bytes[byte] >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `n` bits MSB-first (`n ≤ 64`).
    ///
    /// Word-based: the value is cut out of the [`Self::peek_word`]
    /// window instead of `n` single-bit reads, which is what lets the
    /// SZx bit-unpack and ZFP plane loops run at memory speed. Bit-exact
    /// with the per-bit formulation (same MSB-first order, same upfront
    /// truncation check against the padded byte length).
    #[inline]
    pub fn get_bits(&mut self, n: u32, context: &'static str) -> Result<u64> {
        debug_assert!(n <= 64);
        let (window, valid) = self.peek_word();
        if valid < n {
            return Err(CodecError::TruncatedStream { context });
        }
        self.pos += u64::from(n);
        Ok(if n == 0 { 0 } else { window >> (64 - n) })
    }

    /// The next up-to-64 unread bits without consuming them:
    /// `(window, valid)` with the next bit at the window's MSB, `valid =
    /// min(64, remaining_bits())` and every bit below the valid ones
    /// zero. Consume what was used with [`Self::skip_bits`].
    #[inline]
    pub fn peek_word(&self) -> (u64, u32) {
        let byte = (self.pos / 8) as usize;
        let shift = (self.pos % 8) as u32;
        if let Some(nine) = self.bytes.get(byte..byte + 9) {
            let hi = u64::from_be_bytes([
                nine[0], nine[1], nine[2], nine[3], nine[4], nine[5], nine[6], nine[7],
            ]);
            // `shift` bits of the window spill into the ninth byte.
            return ((hi << shift) | (u64::from(nine[8]) >> (8 - shift)), 64);
        }
        // Within nine bytes of the end: gather what is left.
        let tail = self.bytes.get(byte..).unwrap_or(&[]);
        let mut acc = 0u128;
        for &b in tail {
            acc = (acc << 8) | u128::from(b);
        }
        let have = tail.len() as u32 * 8;
        if have == 0 {
            return (0, 0);
        }
        // Left-align the tail in 128 bits, drop the consumed bits.
        let aligned = (acc << (128 - have)) << shift;
        ((aligned >> 64) as u64, (have - shift).min(64))
    }

    /// Advances the cursor by `n` bits without materializing them —
    /// the partial-chunk decoders use this to step over blocks whose
    /// samples fall outside the requested region.
    #[inline]
    pub fn skip_bits(&mut self, n: u64, context: &'static str) -> Result<()> {
        if self.remaining_bits() < n {
            return Err(CodecError::TruncatedStream { context });
        }
        self.pos += n;
        Ok(())
    }

    /// Reads a unary-coded value (count of one-bits before the zero).
    pub fn get_unary(&mut self, context: &'static str) -> Result<u32> {
        let mut v = 0;
        while self.get_bit(context)? {
            v += 1;
            if v > 1 << 24 {
                return Err(CodecError::Corrupt { context });
            }
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true, true, true];
        for &b in &pattern {
            w.put_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len() as u64);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.get_bit("t").unwrap(), b);
        }
    }

    #[test]
    fn multibit_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bits(0xdead_beef, 32);
        w.put_bits(u64::MAX, 64);
        w.put_bits(0, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(4, "t").unwrap(), 0b1011);
        assert_eq!(r.get_bits(32, "t").unwrap(), 0xdead_beef);
        assert_eq!(r.get_bits(64, "t").unwrap(), u64::MAX);
        assert_eq!(r.get_bits(1, "t").unwrap(), 0);
    }

    #[test]
    fn msb_first_byte_layout() {
        let mut w = BitWriter::new();
        w.put_bits(0b1, 1);
        w.put_bits(0, 7);
        assert_eq!(w.finish(), vec![0b1000_0000]);
    }

    #[test]
    fn unary_roundtrip() {
        let mut w = BitWriter::new();
        for v in [0u32, 1, 2, 7, 31] {
            w.put_unary(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in [0u32, 1, 2, 7, 31] {
            assert_eq!(r.get_unary("t").unwrap(), v);
        }
    }

    #[test]
    fn reader_detects_truncation() {
        let mut w = BitWriter::new();
        w.put_bits(0x3ff, 10);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        // The padded byte still contains readable (zero) padding bits, so
        // only reads beyond 16 bits fail.
        assert!(r.get_bits(16, "t").is_ok());
        assert!(r.get_bit("t").is_err());
    }

    #[test]
    fn word_get_bits_matches_per_bit_reads() {
        // Pseudo-random payload; every (offset, width) pair must agree
        // with the single-bit formulation, including the readable zero
        // padding of the final byte — from every start, so both the
        // nine-byte window and the gathered tail are covered.
        let bytes: Vec<u8> = (0..13u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9).rotate_left(11) & 0xff) as u8)
            .collect();
        for start in 0..=bytes.len() as u64 * 8 {
            for n in 0..=64u32 {
                let mut fast = BitReader::new(&bytes);
                fast.pos = start;
                let mut slow = BitReader::new(&bytes);
                slow.pos = start;
                let got = fast.get_bits(n, "t");
                let want = if slow.remaining_bits() < u64::from(n) {
                    Err(CodecError::TruncatedStream { context: "t" })
                } else {
                    let mut v = 0u64;
                    for _ in 0..n {
                        v = (v << 1) | u64::from(slow.get_bit("t").unwrap());
                    }
                    Ok(v)
                };
                assert_eq!(got, want, "start {start} n {n}");
                if want.is_ok() {
                    assert_eq!(fast.bit_position(), start + u64::from(n));
                }
                // The peeked window is the same bits, left-aligned and
                // zero below the valid ones.
                slow.pos = start;
                let (window, valid) = slow.peek_word();
                assert_eq!(u64::from(valid), slow.remaining_bits().min(64));
                if let Ok(v) = want {
                    let top = if n == 0 { 0 } else { window >> (64 - n) };
                    assert_eq!(top, v, "peek start {start} n {n}");
                }
                if valid < 64 {
                    assert_eq!(window << valid, 0, "peek start {start}");
                }
            }
        }
    }

    #[test]
    fn skip_bits_advances_and_bounds_checks() {
        let bytes = [0xabu8, 0xcd];
        let mut r = BitReader::new(&bytes);
        r.skip_bits(5, "t").unwrap();
        assert_eq!(r.get_bits(3, "t").unwrap(), 0b011);
        assert_eq!(r.get_bits(8, "t").unwrap(), 0xcd);
        assert!(r.skip_bits(1, "t").is_err());
        assert!(r.skip_bits(0, "t").is_ok());
    }

    #[test]
    fn zero_bit_write_is_noop() {
        let mut w = BitWriter::new();
        w.put_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.finish().is_empty());
    }
}
