//! FPC (Burtscher & Ratanaworabhan, IEEE TC 2009): high-speed lossless
//! double compressor with FCM/DFCM hash predictors.
//!
//! Each value is predicted twice — by a *finite context method* table
//! (hash of recent values → next value) and a *differential* FCM (hash of
//! recent strides → next stride). The better predictor's XOR residual is
//! encoded as a selector bit, a 3-bit leading-zero-byte count, and the
//! surviving residual bytes. We keep the original's table sizes and
//! hash construction; f32 inputs run through a widened 32-bit variant.

use crate::bitstream::{BitReader, BitWriter};
use crate::error::{CodecError, Result};
use crate::lz;
use crate::stage::{ByteStage, ByteStageSpec};
use crate::util::{put_varint, ByteReader};

const TABLE_BITS: u32 = 16;
const TABLE_SIZE: usize = 1 << TABLE_BITS;

/// FCM/DFCM predictive lossless compressor.
#[derive(Clone, Copy, Debug)]
pub struct Fpc {
    element_size: u8,
}

impl Fpc {
    /// Creates the codec for 4- or 8-byte floats (other sizes fall back
    /// to plain LZ).
    pub fn new(element_size: u8) -> Self {
        Self { element_size }
    }
}

/// Predictor state shared by the encoder and decoder.
struct Predictors {
    fcm: Vec<u64>,
    dfcm: Vec<u64>,
    fcm_hash: usize,
    dfcm_hash: usize,
    last: u64,
}

impl Predictors {
    fn new() -> Self {
        Self {
            fcm: vec![0; TABLE_SIZE],
            dfcm: vec![0; TABLE_SIZE],
            fcm_hash: 0,
            dfcm_hash: 0,
            last: 0,
        }
    }

    /// Returns (fcm prediction, dfcm prediction) for the next value.
    fn predict(&self) -> (u64, u64) {
        (
            self.fcm[self.fcm_hash],
            self.dfcm[self.dfcm_hash].wrapping_add(self.last),
        )
    }

    /// Folds the actual value into the tables and hashes.
    fn update(&mut self, actual: u64) {
        self.fcm[self.fcm_hash] = actual;
        self.fcm_hash = (((self.fcm_hash as u64) << 6) ^ (actual >> 48)) as usize & (TABLE_SIZE - 1);
        let stride = actual.wrapping_sub(self.last);
        self.dfcm[self.dfcm_hash] = stride;
        self.dfcm_hash =
            (((self.dfcm_hash as u64) << 2) ^ (stride >> 40)) as usize & (TABLE_SIZE - 1);
        self.last = actual;
    }
}

fn leading_zero_bytes(v: u64) -> u32 {
    v.leading_zeros() / 8
}

impl ByteStage for Fpc {
    fn spec(&self) -> ByteStageSpec {
        ByteStageSpec::Fpc {
            element_size: self.element_size,
        }
    }

    fn forward(&self, data: &[u8]) -> Vec<u8> {
        let esize = usize::from(self.element_size);
        if esize != 4 && esize != 8 {
            let mut out = vec![0u8];
            out.extend_from_slice(&lz::compress(data));
            return out;
        }
        let n = data.len() / esize;
        let tail = &data[n * esize..];

        let mut pred = Predictors::new();
        let mut bw = BitWriter::with_capacity(data.len());
        for e in 0..n {
            let mut v = 0u64;
            for b in (0..esize).rev() {
                v = (v << 8) | u64::from(data[e * esize + b]);
            }
            let (p_fcm, p_dfcm) = pred.predict();
            let (sel, resid) = {
                let r1 = v ^ p_fcm;
                let r2 = v ^ p_dfcm;
                if leading_zero_bytes(r1) >= leading_zero_bytes(r2) {
                    (false, r1)
                } else {
                    (true, r2)
                }
            };
            pred.update(v);
            // Leading zero bytes within the element width (residuals of a
            // 4-byte element always have ≥ 4 leading zero bytes in u64).
            let lzb = (leading_zero_bytes(resid) - (8 - esize as u32)).min(7);
            let keep = esize as u32 - lzb.min(esize as u32);
            bw.put_bit(sel);
            bw.put_bits(u64::from(lzb), 3);
            bw.put_bits(resid, keep * 8);
        }

        let mut out = vec![self.element_size];
        put_varint(&mut out, n as u64);
        put_varint(&mut out, tail.len() as u64);
        out.extend_from_slice(tail);
        out.extend_from_slice(&lz::compress(&bw.finish()));
        out
    }

    fn inverse(&self, stream: &[u8]) -> Result<Vec<u8>> {
        let mut r = ByteReader::new(stream);
        let esize = usize::from(r.u8("fpc esize")?);
        if esize != 4 && esize != 8 {
            return lz::decompress(&stream[1..]);
        }
        let n = r.varint("fpc count")? as usize;
        let tail_len = r.varint("fpc tail length")? as usize;
        let tail = r.take(tail_len, "fpc tail")?.to_vec();
        let bits = lz::decompress(&stream[r.position()..])?;
        let mut br = BitReader::new(&bits);

        // `n` is untrusted: every sample costs at least a selector bit
        // and three leading-zero-byte bits of the decoded bit stream.
        if n > bits.len().saturating_mul(2) {
            return Err(CodecError::Corrupt { context: "fpc count" });
        }
        let raw_len = n
            .checked_mul(esize)
            .and_then(|b| b.checked_add(tail.len()))
            .ok_or(CodecError::Corrupt { context: "fpc count" })?;
        let mut pred = Predictors::new();
        let mut out = Vec::with_capacity(raw_len);
        for _ in 0..n {
            let sel = br.get_bit("fpc selector")?;
            let lzb = br.get_bits(3, "fpc lzb")? as u32;
            let keep = esize as u32 - lzb.min(esize as u32);
            let resid = br.get_bits(keep * 8, "fpc residual")?;
            let (p_fcm, p_dfcm) = pred.predict();
            let v = resid ^ if sel { p_dfcm } else { p_fcm };
            pred.update(v);
            for b in 0..esize {
                out.push((v >> (8 * b)) as u8);
            }
        }
        out.extend_from_slice(&tail);
        if out.len() != raw_len {
            return Err(CodecError::Corrupt { context: "fpc output length" });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forged_count_is_corrupt_before_allocating() {
        for n in [u64::MAX / 4, 1 << 40] {
            let mut stream = vec![8];
            put_varint(&mut stream, n);
            put_varint(&mut stream, 0);
            stream.extend_from_slice(&lz::compress(&[0; 16]));
            assert_eq!(
                Fpc::new(8).inverse(&stream),
                Err(CodecError::Corrupt { context: "fpc count" }),
                "n = {n}"
            );
        }
    }

    #[test]
    fn roundtrip_f64() {
        let data: Vec<u8> = (0..4000)
            .flat_map(|i| ((i as f64 * 0.015).sin() * 3.5 + 10.0).to_le_bytes())
            .collect();
        let c = Fpc::new(8);
        let enc = c.forward(&data);
        assert_eq!(c.inverse(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_f32() {
        let data: Vec<u8> = (0..4000)
            .flat_map(|i| ((i as f32 * 0.1).cos() * 2.0).to_le_bytes())
            .collect();
        let c = Fpc::new(4);
        let enc = c.forward(&data);
        assert_eq!(c.inverse(&enc).unwrap(), data);
    }

    #[test]
    fn repetitive_doubles_compress() {
        let data: Vec<u8> = (0..20_000)
            .flat_map(|i| ((i % 4) as f64).to_le_bytes())
            .collect();
        let c = Fpc::new(8);
        let enc = c.forward(&data);
        assert!(enc.len() < data.len() / 2, "{} bytes", enc.len());
        assert_eq!(c.inverse(&enc).unwrap(), data);
    }

    #[test]
    fn ragged_tail_roundtrip() {
        let mut data: Vec<u8> = (0..64).flat_map(|i| (i as f64).to_le_bytes()).collect();
        data.extend_from_slice(&[0xaa, 0xbb]);
        let c = Fpc::new(8);
        assert_eq!(c.inverse(&c.forward(&data)).unwrap(), data);
    }

    #[test]
    fn unsupported_esize_falls_back() {
        let data = b"arbitrary bytes with some repetition repetition".to_vec();
        let c = Fpc::new(2);
        assert_eq!(c.inverse(&c.forward(&data)).unwrap(), data);
    }
}
