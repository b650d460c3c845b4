//! Shared container framing: the shape/dtype/bound fields and CRC
//! trailer plumbing that every self-describing container in the
//! workspace uses — the `EBLC` stream header and `eblcio_store`'s
//! `EBCS` manifest both speak through these helpers instead of re-parsing the byte grammar by hand.

use crate::error::{CodecError, Result};
use crate::util::{crc32, put_varint, ByteReader};
use eblcio_data::shape::MAX_RANK;
use eblcio_data::Shape;

/// Largest accepted per-axis extent, and sample count over all axes
/// (2^40 samples ≈ 4 TiB of f32); anything larger in a header is
/// treated as corruption.
pub const MAX_DIM: u64 = 1 << 40;

/// Checks a 4-byte container magic.
pub fn expect_magic(r: &mut ByteReader<'_>, magic: &[u8; 4]) -> Result<()> {
    if r.take(4, "magic")? == magic {
        Ok(())
    } else {
        Err(CodecError::BadMagic)
    }
}

/// Appends `rank u8 | rank × varint` for a shape.
pub fn put_shape(out: &mut Vec<u8>, shape: Shape) {
    out.push(shape.rank() as u8);
    for &d in shape.dims() {
        put_varint(out, d as u64);
    }
}

/// Reads a shape written by [`put_shape`], validating rank, extents and
/// the sample count: more than [`MAX_DIM`] samples in all is corruption
/// too, so no decoder sizes a buffer from a product that overflows.
pub fn read_shape(r: &mut ByteReader<'_>) -> Result<Shape> {
    let rank = r.u8("rank")? as usize;
    if rank == 0 || rank > MAX_RANK {
        return Err(CodecError::Corrupt { context: "rank" });
    }
    let mut dims = [0usize; MAX_RANK];
    let mut samples = 1u64;
    for d in dims.iter_mut().take(rank) {
        let v = r.varint("dimension")?;
        if v == 0 || v > MAX_DIM {
            return Err(CodecError::Corrupt { context: "dimension" });
        }
        samples = samples.saturating_mul(v);
        *d = v as usize;
    }
    if samples > MAX_DIM {
        return Err(CodecError::Corrupt { context: "sample count" });
    }
    Ok(Shape::new(&dims[..rank]))
}

/// Reads and validates the dtype tag (0 = f32, 1 = f64).
pub fn read_dtype(r: &mut ByteReader<'_>) -> Result<u8> {
    let dtype = r.u8("dtype")?;
    if dtype > 1 {
        return Err(CodecError::Corrupt { context: "dtype tag" });
    }
    Ok(dtype)
}

/// Appends an absolute error bound as a little-endian f64 bit pattern.
pub fn put_abs_bound(out: &mut Vec<u8>, abs: f64) {
    out.extend_from_slice(&abs.to_bits().to_le_bytes());
}

/// Reads an absolute bound. Encoders only ever record finite
/// non-negative bounds. Zero is legal in `EBLC` headers: ZFP's
/// fixed-precision streams, which an earlier encoder wrote, record the
/// error they measured, and that can be exactly zero.
/// `require_positive` tightens this for containers whose writers
/// resolve ε before writing.
pub fn read_abs_bound(r: &mut ByteReader<'_>, require_positive: bool) -> Result<f64> {
    let abs = r.f64("abs bound")?;
    let ok = abs.is_finite() && if require_positive { abs > 0.0 } else { abs >= 0.0 };
    if ok {
        Ok(abs)
    } else {
        Err(CodecError::Corrupt { context: "abs bound" })
    }
}

/// Appends the CRC32 of everything already in `out` — the manifest-style
/// trailer that lets a reader verify all header bytes before trusting
/// any of them.
pub fn put_crc_trailer(out: &mut Vec<u8>) {
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Verifies a [`put_crc_trailer`] checksum: the four bytes at the
/// reader's position must be the CRC32 of every byte before them.
pub fn check_crc_trailer(r: &mut ByteReader<'_>, stream: &[u8]) -> Result<()> {
    let covered = r.position();
    let stored = r.u32("header crc")?;
    if stored == crc32(&stream[..covered]) {
        Ok(())
    } else {
        Err(CodecError::ChecksumMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_roundtrip() {
        for shape in [Shape::d1(7), Shape::d2(1, 900), Shape::d3(26, 1800, 3600), Shape::d4(2, 3, 4, 5)] {
            let mut buf = Vec::new();
            put_shape(&mut buf, shape);
            let mut r = ByteReader::new(&buf);
            assert_eq!(read_shape(&mut r).unwrap(), shape);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn bad_shapes_rejected() {
        // Zero rank.
        let mut r = ByteReader::new(&[0u8]);
        assert!(read_shape(&mut r).is_err());
        // Rank above MAX_RANK.
        let mut r = ByteReader::new(&[9u8, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        assert!(read_shape(&mut r).is_err());
        // Zero dimension.
        let mut r = ByteReader::new(&[1u8, 0]);
        assert!(read_shape(&mut r).is_err());
        // Oversized dimension.
        let mut buf = vec![1u8];
        put_varint(&mut buf, MAX_DIM + 1);
        let mut r = ByteReader::new(&buf);
        assert!(read_shape(&mut r).is_err());
    }

    #[test]
    fn crc_trailer_roundtrip_and_detection() {
        let mut buf = b"header bytes".to_vec();
        put_crc_trailer(&mut buf);
        let mut r = ByteReader::new(&buf);
        r.take(12, "body").unwrap();
        assert!(check_crc_trailer(&mut r, &buf).is_ok());
        assert_eq!(r.remaining(), 0);

        let mut bad = buf.clone();
        bad[3] ^= 0x40;
        let mut r = ByteReader::new(&bad);
        r.take(12, "body").unwrap();
        assert_eq!(
            check_crc_trailer(&mut r, &bad).unwrap_err(),
            CodecError::ChecksumMismatch
        );
    }

    #[test]
    fn bound_validation() {
        for (bits, strict_ok, loose_ok) in [
            (1e-3f64, true, true),
            (0.0, false, true),
            (-1.0, false, false),
            (f64::NAN, false, false),
            (f64::INFINITY, false, false),
        ] {
            let mut buf = Vec::new();
            put_abs_bound(&mut buf, bits);
            let mut r = ByteReader::new(&buf);
            assert_eq!(read_abs_bound(&mut r, true).is_ok(), strict_ok, "{bits}");
            let mut r = ByteReader::new(&buf);
            assert_eq!(read_abs_bound(&mut r, false).is_ok(), loose_ok, "{bits}");
        }
    }
}
