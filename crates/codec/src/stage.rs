//! Codec stages: the composable pieces [`CodecChain`](crate::chain::CodecChain)s
//! are built from.
//!
//! A chain has exactly one **array stage** — the lossy front end that
//! turns samples into a byte payload under an absolute error bound
//! (prediction + quantization + entropy coding, or a block transform) —
//! followed by any number of **byte stages**: lossless byte→byte
//! transforms (the LZ backend, the Blosc byte shuffle, FPC/fpzip-style
//! float coders) applied in order on encode and unwound in reverse on
//! decode.
//!
//! The five paper codecs implement [`ArrayStage`] (their identity
//! doubles as [`CompressorId`]) and become compressors by being wrapped
//! in a chain ([`CodecChain::around`](crate::chain::CodecChain::around));
//! byte stages are described by
//! the serializable [`ByteStageSpec`] so a chain can be recorded in a
//! stream header or a store manifest and rebuilt on the far side.

use crate::error::{CodecError, Result};
use crate::header::typed;
use crate::lossless::{Fpc, FpzipLike};
use crate::lz;
use crate::traits::CompressorId;
use eblcio_data::shape::MAX_RANK;
use eblcio_data::{ArrayView, Dataset, DatasetView, Element, NdArray, Shape};
use serde::{Deserialize, Serialize};

/// The lossy array→bytes front end of a chain.
///
/// `encode` receives the absolute error bound already resolved against
/// the global value range and returns the payload bytes together with
/// the bound to *record* in the stream header — usually the input bound,
/// but quality-targeting modes (QoZ PSNR search, ZFP fixed precision)
/// record the bound they actually achieved. `decode` receives the
/// recorded bound, the original shape and the dtype tag back from the
/// header, plus the box to reconstruct.
///
/// Object-safe: samples cross it dtype-erased. Generic callers use
/// [`encode_array`] / [`decode_array`] / [`decode_array_region`].
pub trait ArrayStage: Send + Sync {
    /// Wire identity of this stage (doubles as the paper codec id).
    fn id(&self) -> CompressorId;

    /// Encodes a view; returns `(payload, recorded_abs)`.
    fn encode(&self, data: DatasetView<'_>, abs: f64) -> Result<(Vec<u8>, f64)>;

    /// Decodes the axis-aligned box `origin..origin+extent` of a payload
    /// of the element type `dtype` names, returning an `extent`-shaped
    /// array; the whole array is the box that covers it. Every stage
    /// reconstructs only what the box depends on, bit-identical to
    /// slicing the whole-array decode. The box is pre-validated against
    /// `shape` by [`validate_region`].
    fn decode(
        &self,
        bytes: &[u8],
        dtype: u8,
        shape: Shape,
        abs: f64,
        origin: &[usize],
        extent: &[usize],
    ) -> Result<Dataset>;
}

/// Validates a sub-region request against the array shape: matching
/// rank, non-empty extents, and `origin + extent` within every dim.
pub fn validate_region(shape: Shape, origin: &[usize], extent: &[usize]) -> Result<()> {
    let rank = shape.rank();
    if origin.len() != rank || extent.len() != rank {
        return Err(CodecError::BadRegion { context: "rank mismatch" });
    }
    for d in 0..rank {
        if extent[d] == 0 {
            return Err(CodecError::BadRegion { context: "empty extent" });
        }
        if origin[d].checked_add(extent[d]).is_none_or(|end| end > shape.dim(d)) {
            return Err(CodecError::BadRegion { context: "outside the array" });
        }
    }
    Ok(())
}

/// Generic [`ArrayStage`] encode: erases `T` at the trait boundary.
pub fn encode_array<T: Element>(
    stage: &dyn ArrayStage,
    data: ArrayView<'_, T>,
    abs: f64,
) -> Result<(Vec<u8>, f64)> {
    stage.encode(T::erase(data), abs)
}

/// Generic [`ArrayStage`] decode of the whole array: asks for `T`'s
/// dtype and un-erases.
pub fn decode_array<T: Element>(
    stage: &dyn ArrayStage,
    bytes: &[u8],
    shape: Shape,
    abs: f64,
) -> Result<NdArray<T>> {
    typed(stage.decode(bytes, T::DTYPE, shape, abs, &[0; MAX_RANK][..shape.rank()], shape.dims())?)
}

/// Generic [`ArrayStage`] box decode: validates the box, then decodes it.
pub fn decode_array_region<T: Element>(
    stage: &dyn ArrayStage,
    bytes: &[u8],
    shape: Shape,
    abs: f64,
    origin: &[usize],
    extent: &[usize],
) -> Result<NdArray<T>> {
    validate_region(shape, origin, extent)?;
    typed(stage.decode(bytes, T::DTYPE, shape, abs, origin, extent)?)
}

/// A lossless byte→byte chain stage.
pub trait ByteStage: Send + Sync {
    /// The serializable description this stage was built from.
    fn spec(&self) -> ByteStageSpec;
    /// Applies the transform (encode direction). Must be exactly
    /// invertible by [`Self::inverse`].
    fn forward(&self, data: &[u8]) -> Vec<u8>;
    /// Undoes [`Self::forward`] (decode direction).
    fn inverse(&self, data: &[u8]) -> Result<Vec<u8>>;
    /// [`Self::inverse`] into a caller-owned buffer, so the chain decode
    /// loop can reuse one arena allocation across chunks. The default
    /// replaces `out` wholesale; stages with a natural streaming inverse
    /// (the LZ backend) override it to decompress in place.
    fn inverse_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<()> {
        *out = self.inverse(data)?;
        Ok(())
    }
}

/// Serializable description of one byte stage (its wire id + parameter).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ByteStageSpec {
    /// LZ77 + Huffman backend — the SZ-family "Zstd stage".
    Lz,
    /// Blosc-style byte shuffle: transposes the bytes of fixed-width
    /// elements so slowly-varying high bytes become adjacent.
    Shuffle {
        /// Element width in bytes (4 for f32 payload-like data, 8 for f64).
        element_size: u8,
    },
    /// FPC: FCM/DFCM hash-predicted leading-zero-byte coding.
    Fpc {
        /// Element width in bytes.
        element_size: u8,
    },
    /// fpzip-style Lorenzo-predicted residual coding.
    Fpzip {
        /// Element width in bytes.
        element_size: u8,
    },
}

/// Wire ids for [`ByteStageSpec`] (`0` is reserved so a truncated spec
/// never aliases a valid stage).
const BYTE_LZ: u8 = 1;
const BYTE_SHUFFLE: u8 = 2;
const BYTE_FPC: u8 = 3;
const BYTE_FPZIP: u8 = 4;

impl ByteStageSpec {
    /// Wire id byte.
    pub fn wire_id(self) -> u8 {
        match self {
            ByteStageSpec::Lz => BYTE_LZ,
            ByteStageSpec::Shuffle { .. } => BYTE_SHUFFLE,
            ByteStageSpec::Fpc { .. } => BYTE_FPC,
            ByteStageSpec::Fpzip { .. } => BYTE_FPZIP,
        }
    }

    /// Wire parameter byte (element size; 0 when the stage has none).
    pub fn wire_param(self) -> u8 {
        match self {
            ByteStageSpec::Lz => 0,
            ByteStageSpec::Shuffle { element_size }
            | ByteStageSpec::Fpc { element_size }
            | ByteStageSpec::Fpzip { element_size } => element_size,
        }
    }

    /// Rebuilds a spec from its wire id + parameter.
    pub fn from_wire(id: u8, param: u8) -> Result<Self> {
        let esize_ok = matches!(param, 1 | 2 | 4 | 8);
        match id {
            BYTE_LZ if param == 0 => Ok(ByteStageSpec::Lz),
            BYTE_SHUFFLE if esize_ok => Ok(ByteStageSpec::Shuffle { element_size: param }),
            BYTE_FPC if esize_ok => Ok(ByteStageSpec::Fpc { element_size: param }),
            BYTE_FPZIP if esize_ok => Ok(ByteStageSpec::Fpzip { element_size: param }),
            _ => Err(CodecError::Corrupt { context: "byte stage spec" }),
        }
    }

    /// Compact human label (`lz`, `shuffle4`, `fpc8`, …) — the chain
    /// grammar the CLI parses.
    pub fn label(self) -> String {
        match self {
            ByteStageSpec::Lz => "lz".into(),
            ByteStageSpec::Shuffle { element_size } => format!("shuffle{element_size}"),
            ByteStageSpec::Fpc { element_size } => format!("fpc{element_size}"),
            ByteStageSpec::Fpzip { element_size } => format!("fpzip{element_size}"),
        }
    }

    /// Parses a [`Self::label`]-format segment.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let (name, digits): (&str, &str) = match s.find(|c: char| c.is_ascii_digit()) {
            Some(i) => (&s[..i], &s[i..]),
            None => (s, ""),
        };
        let esize = || -> std::result::Result<u8, String> {
            let v: u8 = digits
                .parse()
                .map_err(|_| format!("byte stage '{s}': bad element size"))?;
            if matches!(v, 1 | 2 | 4 | 8) {
                Ok(v)
            } else {
                Err(format!("byte stage '{s}': element size must be 1/2/4/8"))
            }
        };
        match name {
            "lz" if digits.is_empty() => Ok(ByteStageSpec::Lz),
            "shuffle" => Ok(ByteStageSpec::Shuffle { element_size: esize()? }),
            "fpc" => Ok(ByteStageSpec::Fpc { element_size: esize()? }),
            "fpzip" => Ok(ByteStageSpec::Fpzip { element_size: esize()? }),
            _ => Err(format!("unknown byte stage '{s}'")),
        }
    }
}

/// The LZ backend as a chain stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct LzStage;

impl ByteStage for LzStage {
    fn spec(&self) -> ByteStageSpec {
        ByteStageSpec::Lz
    }
    fn forward(&self, data: &[u8]) -> Vec<u8> {
        lz::compress(data)
    }
    fn inverse(&self, data: &[u8]) -> Result<Vec<u8>> {
        lz::decompress(data)
    }
    fn inverse_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<()> {
        lz::decompress_into(data, out)
    }
}

/// The Blosc byte shuffle as a chain stage (permutation only — pair it
/// with [`LzStage`] to reproduce the C-Blosc2 pipeline).
#[derive(Clone, Copy, Debug)]
pub struct ShuffleStage {
    element_size: usize,
}

impl ShuffleStage {
    /// Shuffle for elements of `element_size` bytes.
    ///
    /// # Panics
    /// Panics unless `element_size` is 1, 2, 4, or 8 — the only widths
    /// the wire spec ([`ByteStageSpec::Shuffle`]) can record, so any
    /// other stage would compress streams it cannot describe.
    pub fn new(element_size: usize) -> Self {
        assert!(
            matches!(element_size, 1 | 2 | 4 | 8),
            "shuffle element size must be 1, 2, 4, or 8 (got {element_size})"
        );
        Self { element_size }
    }
}

impl ByteStage for ShuffleStage {
    fn spec(&self) -> ByteStageSpec {
        ByteStageSpec::Shuffle {
            element_size: self.element_size as u8,
        }
    }
    fn forward(&self, data: &[u8]) -> Vec<u8> {
        crate::lossless::shuffle(data, self.element_size)
    }
    fn inverse(&self, data: &[u8]) -> Result<Vec<u8>> {
        Ok(crate::lossless::unshuffle(data, self.element_size))
    }
}

/// Builds the byte stage a spec describes.
pub fn build_byte_stage(spec: ByteStageSpec) -> Box<dyn ByteStage> {
    match spec {
        ByteStageSpec::Lz => Box::new(LzStage),
        ByteStageSpec::Shuffle { element_size } => {
            Box::new(ShuffleStage::new(usize::from(element_size)))
        }
        ByteStageSpec::Fpc { element_size } => Box::new(Fpc::new(element_size)),
        ByteStageSpec::Fpzip { element_size } => Box::new(FpzipLike::new(element_size)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let specs = [
            ByteStageSpec::Lz,
            ByteStageSpec::Shuffle { element_size: 4 },
            ByteStageSpec::Fpc { element_size: 8 },
            ByteStageSpec::Fpzip { element_size: 4 },
        ];
        for s in specs {
            assert_eq!(ByteStageSpec::from_wire(s.wire_id(), s.wire_param()).unwrap(), s);
        }
        assert!(ByteStageSpec::from_wire(0, 0).is_err());
        assert!(ByteStageSpec::from_wire(99, 4).is_err());
        assert!(ByteStageSpec::from_wire(BYTE_SHUFFLE, 3).is_err());
        assert!(ByteStageSpec::from_wire(BYTE_LZ, 4).is_err());
    }

    #[test]
    fn label_parse_roundtrip() {
        for s in [
            ByteStageSpec::Lz,
            ByteStageSpec::Shuffle { element_size: 8 },
            ByteStageSpec::Fpc { element_size: 4 },
            ByteStageSpec::Fpzip { element_size: 8 },
        ] {
            assert_eq!(ByteStageSpec::parse(&s.label()).unwrap(), s);
        }
        assert!(ByteStageSpec::parse("lz4").is_err());
        assert!(ByteStageSpec::parse("shuffle").is_err());
        assert!(ByteStageSpec::parse("shuffle7").is_err());
        assert!(ByteStageSpec::parse("zstd").is_err());
    }

    #[test]
    fn every_stage_is_invertible() {
        let data: Vec<u8> = (0..4096u32)
            .flat_map(|i| ((i as f32 * 0.01).sin() * 50.0).to_le_bytes())
            .collect();
        for spec in [
            ByteStageSpec::Lz,
            ByteStageSpec::Shuffle { element_size: 4 },
            ByteStageSpec::Shuffle { element_size: 8 },
            ByteStageSpec::Fpc { element_size: 4 },
            ByteStageSpec::Fpzip { element_size: 4 },
        ] {
            let stage = build_byte_stage(spec);
            let fwd = stage.forward(&data);
            assert_eq!(stage.inverse(&fwd).unwrap(), data, "{}", spec.label());
            // Ragged / empty inputs must also survive.
            for cut in [0usize, 1, 3, 7] {
                let fwd = stage.forward(&data[..cut]);
                assert_eq!(stage.inverse(&fwd).unwrap(), &data[..cut], "{}", spec.label());
            }
        }
    }

    #[test]
    fn lz_stage_matches_backend_bytes() {
        // The preset chains rely on LzStage producing exactly the bytes
        // the monolithic SZ pipelines used to emit.
        let data = b"the payload the payload the payload".to_vec();
        assert_eq!(LzStage.forward(&data), lz::compress(&data));
    }
}
