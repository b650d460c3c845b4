//! Byte-level helpers shared by every codec: little-endian scalar I/O
//! with truncation checking, LEB128 varints, zig-zag mapping, and CRC32.

use crate::error::{CodecError, Result};

/// Cursor over a byte slice with checked reads.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::TruncatedStream { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self, context: &'static str) -> Result<u16> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self, context: &'static str) -> Result<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self, context: &'static str) -> Result<u64> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian f64.
    pub fn f64(&mut self, context: &'static str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a LEB128-encoded unsigned varint.
    pub fn varint(&mut self, context: &'static str) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8(context)?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(CodecError::Corrupt { context });
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

/// Appends a LEB128 varint to `out`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Zig-zag maps a signed value to unsigned (small magnitudes stay small).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Slicing-by-8 tables for [`crc32`], built at compile time (8 KiB).
/// `CRC_TABLES[0]` is the classic byte table of the reflected polynomial
/// `0xEDB88320`; `CRC_TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, which is what lets eight input bytes be
/// folded with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3: reflected polynomial `0xEDB88320`, initial value
/// and final XOR `0xFFFFFFFF`) — the checksum of every stream payload,
/// shard slot, manifest and superblock. Slicing-by-8: eight bytes per
/// step through `CRC_TABLES`, the tail bytewise.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reads_scalars() {
        let mut buf = Vec::new();
        buf.push(7u8);
        buf.extend_from_slice(&0x1234u16.to_le_bytes());
        buf.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        buf.extend_from_slice(&42u64.to_le_bytes());
        buf.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 0x1234);
        assert_eq!(r.u32("c").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("d").unwrap(), 42);
        assert_eq!(r.f64("e").unwrap(), 1.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_reports_truncation() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(
            r.u32("field"),
            Err(CodecError::TruncatedStream { context: "field" })
        );
    }

    #[test]
    fn varint_roundtrip() {
        let cases = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.varint("v").unwrap(), v, "value {v}");
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_rejects_overlong() {
        // 11 continuation bytes cannot encode a u64.
        let buf = [0xffu8; 11];
        let mut r = ByteReader::new(&buf);
        assert!(r.varint("v").is_err());
    }

    #[test]
    fn zigzag_roundtrip_and_ordering() {
        for v in [-1_000_000i64, -2, -1, 0, 1, 2, 1_000_000, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn crc32_detects_change() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
        assert_eq!(crc32(b"hello world"), a);
    }

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    /// Bit-at-a-time CRC-32 straight from the polynomial.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_length_and_offset() {
        // Lengths around the 8-byte step and starts at every alignment,
        // so the word loop, the tail and their hand-over are all hit.
        let bytes: Vec<u8> = (0..80u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 29) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &bytes[offset..offset + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {offset} len {len}");
            }
        }
    }
}
