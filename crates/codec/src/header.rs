//! The self-describing `EBLC` stream container.
//!
//! Every chain (and thus every compressor) emits the same outer framing
//! so that streams can be identified, routed to the right decoder, and
//! checked for corruption. Version 2 carries the full codec-chain spec:
//!
//! ```text
//! "EBLC" | version=2 | chain spec | dtype u8 | rank u8
//! dims (rank × varint) | abs_bound f64 | payload crc32 u32
//! payload_len varint | payload…
//! ```
//!
//! Version 1 streams (a single codec id byte where the chain spec now
//! sits) remain readable forever: the codec byte maps onto the preset
//! chain for that compressor, which reproduces the monolithic pipeline
//! byte-for-byte. The `tests/golden_v1.rs` fixtures pin this.

use crate::chain::ChainSpec;
use crate::error::{CodecError, Result};
use crate::framing;
use crate::traits::CompressorId;
use crate::util::{crc32, put_varint, ByteReader};
use eblcio_data::{dispatch_dtype, Dataset, Element, NdArray, Shape};

/// Container magic bytes.
pub const MAGIC: &[u8; 4] = b"EBLC";
/// Current container version (carries a chain spec).
pub const VERSION: u8 = 2;
/// Legacy container version (single codec id byte).
pub const VERSION_V1: u8 = 1;

/// Parsed stream header.
#[derive(Clone, Debug, PartialEq)]
pub struct Header {
    /// The codec chain that produced the payload (v1 streams surface
    /// their codec byte as the matching preset chain).
    pub chain: ChainSpec,
    /// Element type tag (0 = f32, 1 = f64).
    pub dtype: u8,
    /// Original array shape.
    pub shape: Shape,
    /// Absolute error bound the encoder enforced (or, for achieved-error
    /// modes like ZFP fixed precision, measured).
    pub abs_bound: f64,
}

impl Header {
    /// The paper codec this stream came from, when its chain is one of
    /// the five presets.
    pub fn codec_id(&self) -> Option<CompressorId> {
        self.chain.preset_id()
    }
}

/// What a container dtype tag that names no element type decodes to.
pub(crate) const BAD_DTYPE: CodecError = CodecError::Corrupt { context: "dtype tag" };

/// The one check of a container's dtype tag against the element type a
/// caller asked for — `EBLC`/`EBLP` streams, stores, store writers and
/// readers all come here. A tag naming a known type other than `T` is a
/// [`CodecError::DtypeMismatch`]; a tag naming no type at all is
/// container corruption, reported as such rather than as a mismatch
/// against a dtype nobody stored.
pub fn check_dtype<T: Element>(tag: u8) -> Result<()> {
    match dispatch_dtype!(E = tag => E::NAME) {
        None => Err(BAD_DTYPE),
        Some(_) if tag == T::DTYPE => Ok(()),
        Some(expected) => Err(CodecError::DtypeMismatch { expected, got: T::NAME }),
    }
}

/// Un-erases what an object-safe decode returned into the `NdArray<T>`
/// the generic caller asked for (a move, never a copy).
pub fn typed<T: Element>(data: Dataset) -> Result<NdArray<T>> {
    fn name<E: Element>(_: &NdArray<E>) -> &'static str {
        E::NAME
    }
    T::unerase(data).map_err(|other| CodecError::DtypeMismatch {
        expected: dispatch_dtype!(Dataset(a) = &other => name(a)),
        got: T::NAME,
    })
}

/// Serializes a header + payload into a finished (v2) stream.
pub fn write_stream(header: &Header, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    header.chain.encode_into(&mut out);
    out.push(header.dtype);
    framing::put_shape(&mut out, header.shape);
    framing::put_abs_bound(&mut out, header.abs_bound);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    put_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Parses a v1 or v2 stream, verifying magic, version, and payload
/// checksum. Returns the header and the payload slice.
pub fn read_stream(stream: &[u8]) -> Result<(Header, &[u8])> {
    let mut r = ByteReader::new(stream);
    framing::expect_magic(&mut r, MAGIC)?;
    let version = r.u8("version")?;
    let chain = match version {
        VERSION_V1 => ChainSpec::preset(CompressorId::from_u8(r.u8("codec id")?)?),
        VERSION => ChainSpec::decode(&mut r)?,
        other => return Err(CodecError::UnsupportedVersion(other)),
    };
    let dtype = framing::read_dtype(&mut r)?;
    let shape = framing::read_shape(&mut r)?;
    let abs_bound = framing::read_abs_bound(&mut r, false)?;
    let crc_expect = r.u32("payload crc")?;
    let payload_len = r.varint("payload length")? as usize;
    let payload = r.take(payload_len, "payload")?;
    if crc32(payload) != crc_expect {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok((
        Header {
            chain,
            dtype,
            shape,
            abs_bound,
        },
        payload,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            chain: ChainSpec::preset(CompressorId::Sz3),
            dtype: 0,
            shape: Shape::d3(26, 1800, 3600),
            abs_bound: 1e-3,
        }
    }

    /// Hand-writes the v1 framing for the same header (what the seed
    /// encoder emitted).
    fn v1_stream_of(header: &Header, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION_V1);
        out.push(header.chain.array as u8);
        out.push(header.dtype);
        framing::put_shape(&mut out, header.shape);
        framing::put_abs_bound(&mut out, header.abs_bound);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn roundtrip() {
        let payload = b"the payload".to_vec();
        let stream = write_stream(&sample_header(), &payload);
        let (h, p) = read_stream(&stream).unwrap();
        assert_eq!(h, sample_header());
        assert_eq!(p, payload.as_slice());
    }

    #[test]
    fn roundtrip_custom_chain() {
        let header = Header {
            chain: ChainSpec::parse("sz2+shuffle8+lz").unwrap(),
            dtype: 1,
            shape: Shape::d2(33, 17),
            abs_bound: 0.5,
        };
        let stream = write_stream(&header, b"xyz");
        let (h, p) = read_stream(&stream).unwrap();
        assert_eq!(h, header);
        assert_eq!(h.codec_id(), None);
        assert_eq!(p, b"xyz");
    }

    #[test]
    fn v1_streams_parse_to_preset_chains() {
        let h = sample_header();
        let stream = v1_stream_of(&h, b"legacy payload");
        let (back, p) = read_stream(&stream).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.codec_id(), Some(CompressorId::Sz3));
        assert_eq!(p, b"legacy payload");
    }

    #[test]
    fn v1_unknown_codec_byte_rejected() {
        let mut stream = v1_stream_of(&sample_header(), b"x");
        stream[5] = 77;
        assert!(matches!(
            read_stream(&stream).unwrap_err(),
            CodecError::UnknownCodec(77)
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut stream = write_stream(&sample_header(), b"x");
        stream[0] = b'X';
        assert_eq!(read_stream(&stream).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn bad_version_detected() {
        let mut stream = write_stream(&sample_header(), b"x");
        stream[4] = 99;
        assert_eq!(
            read_stream(&stream).unwrap_err(),
            CodecError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn payload_corruption_detected() {
        let stream = write_stream(&sample_header(), b"sensitive-payload");
        let n = stream.len();
        let mut bad = stream.clone();
        bad[n - 3] ^= 0x01;
        assert_eq!(read_stream(&bad).unwrap_err(), CodecError::ChecksumMismatch);
    }

    #[test]
    fn truncation_detected_everywhere() {
        let stream = write_stream(&sample_header(), b"0123456789");
        for cut in 0..stream.len() {
            assert!(read_stream(&stream[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn dtype_check() {
        let h = sample_header();
        assert!(check_dtype::<f32>(h.dtype).is_ok());
        assert_eq!(
            check_dtype::<f64>(h.dtype),
            Err(CodecError::DtypeMismatch { expected: "f32", got: "f64" })
        );
        assert_eq!(check_dtype::<f32>(7), Err(BAD_DTYPE));
        assert_eq!(check_dtype::<f64>(7), Err(BAD_DTYPE));
    }

    #[test]
    fn empty_payload_ok() {
        let stream = write_stream(&sample_header(), b"");
        let (_, p) = read_stream(&stream).unwrap();
        assert!(p.is_empty());
    }

    /// A 256-sample preset stream of `id`, re-framed under `shape` with
    /// its payload passed through `edit`. The payload CRC does not cover
    /// the header, and the re-framing re-seals it, so the forged stream
    /// verifies.
    fn forged(id: CompressorId, shape: Shape, edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
        use crate::traits::{compress, ErrorBound};
        let data = NdArray::from_fn(Shape::d1(256), |i| (i[0] as f32 * 0.1).sin());
        let stream = compress(id.instance().as_ref(), &data, ErrorBound::Relative(1e-3)).unwrap();
        let (h, payload) = read_stream(&stream).unwrap();
        write_stream(&Header { shape, ..h }, &edit(payload))
    }

    fn assert_corrupt(stream: &[u8]) {
        let r = crate::traits::decompress_any(stream);
        assert!(matches!(r, Err(CodecError::Corrupt { .. })), "{r:?}");
    }

    #[test]
    fn zfp_stream_with_a_forged_shape_is_corrupt() {
        assert_corrupt(&forged(CompressorId::Zfp, Shape::d1(1 << 40), <[u8]>::to_vec));
    }

    #[test]
    fn szx_stream_with_a_forged_shape_and_block_count_is_corrupt() {
        let stream = forged(CompressorId::Szx, Shape::d1(1 << 40), |payload| {
            let mut r = ByteReader::new(payload);
            r.varint("szx block count").unwrap();
            let mut out = Vec::new();
            put_varint(&mut out, (1u64 << 40) / 128);
            out.extend_from_slice(&payload[r.position()..]);
            out
        });
        assert_corrupt(&stream);
    }

    #[test]
    fn shape_with_an_overflowing_sample_count_is_corrupt() {
        let shape = Shape::d2(1 << 40, 1 << 40);
        assert_corrupt(&forged(CompressorId::Sz3, shape, <[u8]>::to_vec));
    }
}
