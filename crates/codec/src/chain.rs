//! Composable codec chains: serializable stage pipelines behind the
//! [`Compressor`] trait.
//!
//! # Stage taxonomy
//!
//! A chain is **one array stage followed by zero or more byte stages**:
//!
//! ```text
//! samples ──(array stage: predict/quantize/transform → bytes)──▶ payload
//!         ──(byte stage₁)──▶ … ──(byte stageₙ)──▶ stream payload
//! ```
//!
//! * **Array stages** are the lossy front ends — the SZ2 hybrid
//!   Lorenzo/regression predictor, the SZ3/QoZ interpolation pyramids,
//!   the ZFP block transform, the SZx fixed-point blocks. They own the
//!   error bound: whatever bytes follow, the ε contract is decided here.
//! * **Byte stages** are lossless byte→byte transforms — the LZ backend
//!   ("Zstd stage"), the Blosc byte shuffle, FPC/fpzip-style float
//!   coders — applied in order on encode, unwound in reverse on decode.
//!
//! The five paper codecs are *presets* of this algebra
//! ([`ChainSpec::preset`]): `SZ2 = sz2+lz`, `SZ3 = sz3+lz`,
//! `QoZ = qoz+lz`, `ZFP = zfp`, `SZx = szx` — byte-compatible with the
//! monolithic pipelines they replaced. Custom chains (`sz3+shuffle4+lz`,
//! `szx+fpc4`, …) open the scenario space the ROADMAP asks for: swap the
//! lossless backend or stack filters.
//!
//! A [`ChainSpec`] is the serializable description: it travels in the
//! v2 `EBLC` stream header and in `EBCS` store manifests (which may hold
//! a different chain per chunk), and parses from the CLI grammar
//! `array[+byte…]` via [`ChainSpec::parse`]. [`ChainSpec::build`] is the
//! only way to make a [`CodecChain`], and array stages keep no
//! settings, so the spec a header records names its whole decoder.

use crate::codecs::{qoz::Qoz, sz2::Sz2, sz3::Sz3, szx::Szx, zfp::Zfp};
use crate::error::{CodecError, Result};
use crate::header::{check_dtype, read_stream, write_stream, Header, BAD_DTYPE};
use crate::stage::{build_byte_stage, validate_region, ArrayStage, ByteStage, ByteStageSpec};
use crate::traits::{Compressor, CompressorId, ErrorBound};
use eblcio_data::shape::MAX_RANK;
use eblcio_data::{dispatch_dtype, Dataset, DatasetView};
use eblcio_obs::{Histogram, Phase};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Upper bound on byte stages per chain (wire format sanity cap).
pub const MAX_BYTE_STAGES: usize = 8;

/// Serializable description of a codec chain: which array stage, then
/// which byte stages in encode order.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct ChainSpec {
    /// The lossy front end.
    pub array: CompressorId,
    /// Byte stages in encode order (decode unwinds them back to front).
    pub bytes: Vec<ByteStageSpec>,
}

impl ChainSpec {
    /// The preset chain that reproduces one of the five paper codecs
    /// byte-for-byte: the SZ family runs its payload through the LZ
    /// backend, ZFP and SZx emit raw coded bytes.
    pub fn preset(id: CompressorId) -> Self {
        let bytes = match id {
            CompressorId::Sz2 | CompressorId::Sz3 | CompressorId::Qoz => {
                vec![ByteStageSpec::Lz]
            }
            CompressorId::Zfp | CompressorId::Szx => Vec::new(),
        };
        Self { array: id, bytes }
    }

    /// All five paper presets, in legend order.
    pub fn presets() -> Vec<Self> {
        CompressorId::ALL.iter().map(|&id| Self::preset(id)).collect()
    }

    /// `Some(id)` when this spec is exactly the preset for `id`.
    pub fn preset_id(&self) -> Option<CompressorId> {
        (*self == Self::preset(self.array)).then_some(self.array)
    }

    /// Display label: the paper legend name for presets (`SZ3`), the
    /// `+`-joined stage grammar otherwise (`sz3+shuffle4+lz`).
    pub fn label(&self) -> String {
        if let Some(id) = self.preset_id() {
            return id.name().to_string();
        }
        let mut out = self.array.name().to_ascii_lowercase();
        for b in &self.bytes {
            out.push('+');
            out.push_str(&b.label());
        }
        out
    }

    /// Parses the CLI grammar: `sz3` (a bare codec name is its preset),
    /// `array+raw` (the bare array stage, no byte stages), or
    /// `array+byte+byte…` listing explicit stages (`sz3+shuffle4+lz`).
    /// `raw` is only legal as the sole trailing segment — mixing it
    /// with byte stages is ambiguous and rejected.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let lower = s.to_ascii_lowercase();
        let mut parts = lower.split('+');
        let head = parts.next().unwrap_or_default();
        let array = match head {
            "sz2" => CompressorId::Sz2,
            "sz3" => CompressorId::Sz3,
            "zfp" => CompressorId::Zfp,
            "qoz" => CompressorId::Qoz,
            "szx" => CompressorId::Szx,
            other => return Err(format!("unknown array stage '{other}'")),
        };
        let rest: Vec<&str> = parts.collect();
        if rest.is_empty() {
            return Ok(Self::preset(array));
        }
        if rest.contains(&"raw") {
            return if rest == ["raw"] {
                Ok(Self { array, bytes: Vec::new() })
            } else {
                Err(format!("chain '{s}': 'raw' must be the only segment after the array stage"))
            };
        }
        let mut bytes = Vec::new();
        for seg in rest {
            bytes.push(ByteStageSpec::parse(seg)?);
        }
        if bytes.len() > MAX_BYTE_STAGES {
            return Err(format!("chain '{s}': more than {MAX_BYTE_STAGES} byte stages"));
        }
        Ok(Self { array, bytes })
    }

    /// Appends the wire encoding: `array u8 | n u8 | n × (id u8, param u8)`.
    ///
    /// # Panics
    /// Panics if the spec holds more than [`MAX_BYTE_STAGES`] byte
    /// stages — such a spec cannot be decoded and must be rejected
    /// where it is built ([`ChainSpec::build`]), not silently truncated
    /// onto the wire.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.array as u8);
        assert!(
            self.bytes.len() <= MAX_BYTE_STAGES,
            "chain spec with {} byte stages is not wire-representable",
            self.bytes.len()
        );
        out.push(self.bytes.len() as u8);
        for b in &self.bytes {
            out.push(b.wire_id());
            out.push(b.wire_param());
        }
    }

    /// Reads the wire encoding back.
    pub fn decode(r: &mut crate::util::ByteReader<'_>) -> Result<Self> {
        let array = CompressorId::from_u8(r.u8("chain array stage")?)?;
        let n = r.u8("chain byte stage count")? as usize;
        if n > MAX_BYTE_STAGES {
            return Err(CodecError::Corrupt { context: "chain byte stage count" });
        }
        let mut bytes = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.u8("chain byte stage id")?;
            let param = r.u8("chain byte stage param")?;
            bytes.push(ByteStageSpec::from_wire(id, param)?);
        }
        Ok(Self { array, bytes })
    }

    /// Builds the chain this spec describes — the one way to make a
    /// [`CodecChain`].
    pub fn build(&self) -> Result<CodecChain> {
        if self.bytes.len() > MAX_BYTE_STAGES {
            return Err(CodecError::InvalidChain {
                reason: "more byte stages than the wire format can carry",
            });
        }
        let array: Box<dyn ArrayStage> = match self.array {
            CompressorId::Sz2 => Box::new(Sz2),
            CompressorId::Sz3 => Box::new(Sz3),
            CompressorId::Zfp => Box::new(Zfp),
            CompressorId::Qoz => Box::new(Qoz),
            CompressorId::Szx => Box::new(Szx),
        };
        let bytes = self.bytes.iter().map(|&b| build_byte_stage(b)).collect();
        Ok(CodecChain::new(array, bytes))
    }

    /// Builds the chain as a boxed [`Compressor`].
    pub fn build_boxed(&self) -> Result<Box<dyn Compressor>> {
        Ok(Box::new(self.build()?))
    }
}

impl std::fmt::Display for ChainSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Per-stage telemetry handles, resolved from the process-global
/// [`eblcio_obs`] registry once at chain construction so the
/// per-chunk cost is a clock read pair and a relaxed histogram add.
/// Names follow `eblcio_codec_<stage>_{encode,decode}_{ns,bytes}`,
/// where `<stage>` is the stage's grammar label (`sz3`, `lz`,
/// `shuffle4`, …) — so one store mixing chains still separates its
/// stage costs.
struct StageMetrics {
    encode_ns: Phase,
    decode_ns: Phase,
    /// Stage *output* sizes on encode (post-transform payload bytes).
    encode_bytes: Arc<Histogram>,
    /// Stage *output* sizes on decode (recovered payload/array bytes).
    decode_bytes: Arc<Histogram>,
}

impl StageMetrics {
    fn for_stage(label: &str) -> Self {
        let g = eblcio_obs::global();
        Self {
            encode_ns: Phase::new(g.histogram(&format!("eblcio_codec_{label}_encode_ns"))),
            decode_ns: Phase::new(g.histogram(&format!("eblcio_codec_{label}_decode_ns"))),
            encode_bytes: g.histogram(&format!("eblcio_codec_{label}_encode_bytes")),
            decode_bytes: g.histogram(&format!("eblcio_codec_{label}_decode_bytes")),
        }
    }
}

struct ChainMetrics {
    array: StageMetrics,
    /// Parallel to [`CodecChain::bytes`], encode order.
    bytes: Vec<StageMetrics>,
}

impl ChainMetrics {
    fn for_spec(spec: &ChainSpec) -> Self {
        Self {
            array: StageMetrics::for_stage(&spec.array.name().to_ascii_lowercase()),
            bytes: spec.bytes.iter().map(|b| StageMetrics::for_stage(&b.label())).collect(),
        }
    }
}

/// A built chain: one array stage plus its byte stages, usable anywhere
/// a [`Compressor`] is.
pub struct CodecChain {
    spec: ChainSpec,
    array: Box<dyn ArrayStage>,
    bytes: Vec<Box<dyn ByteStage>>,
    metrics: ChainMetrics,
}

impl CodecChain {
    /// Assembles a chain from the parts [`ChainSpec::build`] made; the
    /// spec is derived from them.
    fn new(array: Box<dyn ArrayStage>, bytes: Vec<Box<dyn ByteStage>>) -> Self {
        let spec = ChainSpec {
            array: array.id(),
            bytes: bytes.iter().map(|b| b.spec()).collect(),
        };
        let metrics = ChainMetrics::for_spec(&spec);
        Self { spec, array, bytes, metrics }
    }

    /// The serializable description of this chain.
    pub fn spec(&self) -> &ChainSpec {
        &self.spec
    }

    /// The one decode behind both [`Compressor`] decode methods: parses
    /// the stream envelope (chain + dtype checks), validates the box
    /// (`None` is the whole array), unwinds the byte stages and has the
    /// array stage reconstruct the box. Byte stages are inverted through
    /// the thread's reusable scratch buffer, which is taken *out* of the
    /// arena (not held borrowed) because the array stage wants the arena
    /// too.
    fn decode(
        &self,
        stream: &[u8],
        dtype: u8,
        region: Option<(&[usize], &[usize])>,
    ) -> Result<Dataset> {
        let (h, payload) = read_stream(stream)?;
        if h.chain != self.spec {
            return Err(CodecError::ChainMismatch {
                expected: self.spec.label(),
                got: h.chain.label(),
            });
        }
        dispatch_dtype!(E = dtype => check_dtype::<E>(h.dtype)).unwrap_or(Err(BAD_DTYPE))?;
        let (origin, extent) = region.unwrap_or((&[0; MAX_RANK][..h.shape.rank()], h.shape.dims()));
        validate_region(h.shape, origin, extent)?;
        let array_decode = |bytes: &[u8]| {
            let t = self.metrics.array.decode_ns.start();
            let out = self.array.decode(bytes, h.dtype, h.shape, h.abs_bound, origin, extent);
            t.finish();
            if let Ok(arr) = &out {
                self.metrics.array.decode_bytes.record(arr.nbytes() as u64);
            }
            out
        };
        if self.bytes.is_empty() {
            return array_decode(payload);
        }
        let mut cur = crate::scratch::take_bytes();
        let mut next = Vec::new();
        let mut first = true;
        for (s, m) in self.bytes.iter().zip(&self.metrics.bytes).rev() {
            let t = m.decode_ns.start();
            let step = if first {
                s.inverse_into(payload, &mut cur)
            } else {
                let r = s.inverse_into(&cur, &mut next);
                if r.is_ok() {
                    std::mem::swap(&mut cur, &mut next);
                }
                r
            };
            t.finish();
            first = false;
            if let Err(e) = step {
                crate::scratch::put_bytes(cur);
                return Err(e);
            }
            m.decode_bytes.record(cur.len() as u64);
        }
        let out = array_decode(&cur);
        crate::scratch::put_bytes(cur);
        out
    }
}

impl std::fmt::Debug for CodecChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodecChain").field("spec", &self.spec).finish()
    }
}

impl Compressor for CodecChain {
    fn spec(&self) -> ChainSpec {
        self.spec.clone()
    }

    fn compress_view(&self, data: DatasetView<'_>, bound: ErrorBound) -> Result<Vec<u8>> {
        dispatch_dtype!(DatasetView(v) = data => crate::codecs::common::validate_input(v))?;
        // Only a relative bound needs the data's range (a full min/max
        // pass); the store resolves ε once per array and hands every
        // chunk an absolute one.
        let range = match bound {
            ErrorBound::Relative(_) => data.value_range(),
            ErrorBound::Absolute(_) => 0.0,
        };
        let abs = bound.to_absolute(range)?;
        let t = self.metrics.array.encode_ns.start();
        let (mut payload, abs_recorded) = self.array.encode(data, abs)?;
        t.finish();
        self.metrics.array.encode_bytes.record(payload.len() as u64);
        for (s, m) in self.bytes.iter().zip(&self.metrics.bytes) {
            let t = m.encode_ns.start();
            payload = s.forward(&payload);
            t.finish();
            m.encode_bytes.record(payload.len() as u64);
        }
        let header = Header {
            chain: self.spec.clone(),
            dtype: data.dtype(),
            shape: data.shape(),
            abs_bound: abs_recorded,
        };
        Ok(write_stream(&header, &payload))
    }

    fn decompress(&self, stream: &[u8], dtype: u8) -> Result<Dataset> {
        self.decode(stream, dtype, None)
    }

    fn decompress_region(
        &self,
        stream: &[u8],
        dtype: u8,
        origin: &[usize],
        extent: &[usize],
    ) -> Result<Dataset> {
        self.decode(stream, dtype, Some((origin, extent)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{compress, decompress, decompress_region};
    use eblcio_data::{max_rel_error, NdArray, Shape};

    fn field() -> NdArray<f32> {
        NdArray::from_fn(Shape::d2(40, 30), |i| {
            (i[0] as f32 * 0.2).sin() * 30.0 + (i[1] as f32 * 0.15).cos() * 12.0
        })
    }

    #[test]
    fn preset_specs_match_paper_pipelines() {
        assert_eq!(
            ChainSpec::preset(CompressorId::Sz3).bytes,
            vec![ByteStageSpec::Lz]
        );
        assert!(ChainSpec::preset(CompressorId::Zfp).bytes.is_empty());
        assert!(ChainSpec::preset(CompressorId::Szx).bytes.is_empty());
        for id in CompressorId::ALL {
            let p = ChainSpec::preset(id);
            assert_eq!(p.preset_id(), Some(id));
            assert_eq!(p.label(), id.name());
        }
    }

    #[test]
    fn parse_grammar() {
        assert_eq!(
            ChainSpec::parse("sz3").unwrap(),
            ChainSpec::preset(CompressorId::Sz3)
        );
        assert_eq!(
            ChainSpec::parse("SZ3+Shuffle4+LZ").unwrap(),
            ChainSpec {
                array: CompressorId::Sz3,
                bytes: vec![ByteStageSpec::Shuffle { element_size: 4 }, ByteStageSpec::Lz],
            }
        );
        let bare = ChainSpec::parse("sz3+raw").unwrap();
        assert!(bare.bytes.is_empty());
        assert_eq!(bare.preset_id(), None);
        assert!(ChainSpec::parse("lzma").is_err());
        assert!(ChainSpec::parse("sz3+zstd").is_err());
        // 'raw' composed with byte stages is ambiguous, not silently
        // dropped.
        assert!(ChainSpec::parse("sz3+raw+lz").is_err());
        assert!(ChainSpec::parse("sz3+lz+raw").is_err());
        // Labels round-trip through the parser.
        let spec = ChainSpec::parse("szx+fpc4+lz").unwrap();
        assert_eq!(ChainSpec::parse(&spec.label()).unwrap(), spec);
    }

    #[test]
    fn wire_roundtrip() {
        for spec in [
            ChainSpec::preset(CompressorId::Qoz),
            ChainSpec::parse("sz2+shuffle8+lz").unwrap(),
            ChainSpec::parse("szx+raw").unwrap(),
        ] {
            let mut buf = Vec::new();
            spec.encode_into(&mut buf);
            let mut r = crate::util::ByteReader::new(&buf);
            assert_eq!(ChainSpec::decode(&mut r).unwrap(), spec);
            assert_eq!(r.remaining(), 0);
        }
        // Truncations and junk are rejected.
        let mut buf = Vec::new();
        ChainSpec::parse("sz3+shuffle4+lz").unwrap().encode_into(&mut buf);
        for cut in 0..buf.len() {
            let mut r = crate::util::ByteReader::new(&buf[..cut]);
            assert!(ChainSpec::decode(&mut r).is_err(), "cut {cut}");
        }
        let mut r = crate::util::ByteReader::new(&[0u8, 0]);
        assert!(ChainSpec::decode(&mut r).is_err());
    }

    #[test]
    fn custom_chains_roundtrip_within_bound() {
        let data = field();
        for s in [
            "sz3+shuffle4+lz",
            "sz3+raw",
            "szx+lz",
            "szx+fpc4",
            "zfp+lz",
            "sz2+fpzip4",
            "qoz+shuffle4+lz",
        ] {
            let chain = ChainSpec::parse(s).unwrap().build().unwrap();
            let stream = compress(&chain, &data, ErrorBound::Relative(1e-3)).unwrap();
            let back = decompress::<f32>(&chain, &stream).unwrap();
            assert!(
                max_rel_error(&data, &back) <= 1e-3 * 1.0000001,
                "{s}: bound broken"
            );
        }
    }

    #[test]
    fn chain_mismatch_is_typed() {
        let data = field();
        let sz3 = ChainSpec::preset(CompressorId::Sz3).build().unwrap();
        let custom = ChainSpec::parse("sz3+shuffle4+lz").unwrap().build().unwrap();
        let stream = compress(&sz3, &data, ErrorBound::Relative(1e-2)).unwrap();
        match decompress::<f32>(&custom, &stream) {
            Err(CodecError::ChainMismatch { expected, got }) => {
                assert_eq!(expected, "sz3+shuffle4+lz");
                assert_eq!(got, "SZ3");
            }
            other => panic!("expected ChainMismatch, got {other:?}"),
        }
    }

    #[test]
    fn partial_decode_through_byte_stages() {
        let data = field();
        // SZx behind an LZ stage: the byte stage is fully inverted, then
        // the array stage decodes only the requested region.
        let chain = ChainSpec::parse("szx+lz").unwrap().build().unwrap();
        let stream = compress(&chain, &data, ErrorBound::Relative(1e-3)).unwrap();
        let full = decompress::<f32>(&chain, &stream).unwrap();
        let part = decompress_region::<f32>(&chain, &stream, &[10, 5], &[7, 11]).unwrap()
            .expect("every chain decodes a box");
        for i in 0..7 {
            for j in 0..11 {
                assert_eq!(
                    part.as_slice()[i * 11 + j].to_bits(),
                    full.as_slice()[(10 + i) * 30 + 5 + j].to_bits()
                );
            }
        }
    }

    /// Every stage of a chain reports encode *and* decode time into
    /// the global registry under its grammar label — one roundtrip
    /// through `sz3+shuffle4+lz` must tick all three stages' clocks.
    #[test]
    fn stage_metrics_reach_the_global_registry() {
        let data = field();
        let chain = ChainSpec::parse("sz3+shuffle4+lz").unwrap().build().unwrap();
        let g = eblcio_obs::global();
        let before: Vec<u64> = ["sz3", "shuffle4", "lz"]
            .iter()
            .map(|s| g.histogram(&format!("eblcio_codec_{s}_decode_ns")).count())
            .collect();
        let stream = compress(&chain, &data, ErrorBound::Relative(1e-3)).unwrap();
        decompress::<f32>(&chain, &stream).unwrap();
        for (i, s) in ["sz3", "shuffle4", "lz"].iter().enumerate() {
            assert!(
                g.histogram(&format!("eblcio_codec_{s}_encode_ns")).count() >= 1,
                "{s} encode untimed"
            );
            assert!(
                g.histogram(&format!("eblcio_codec_{s}_decode_ns")).count() > before[i],
                "{s} decode untimed"
            );
        }
    }

    #[test]
    fn lz_backend_helps_szx_raw_blocks() {
        // The scenario the chain architecture exists for: when SZx's
        // dynamic range forces verbatim blocks, composing an LZ backend
        // (impossible with the monolith) recovers the redundancy.
        let mut v = vec![0.0f32; 64 * 64];
        v[0] = 1e30;
        let data = NdArray::from_vec(Shape::d2(64, 64), v);
        let bound = ErrorBound::Absolute(1e-25);
        let plain = compress(&ChainSpec::preset(CompressorId::Szx).build().unwrap(), &data, bound)
            .unwrap();
        let chained = compress(&ChainSpec::parse("szx+lz").unwrap().build().unwrap(), &data, bound)
            .unwrap();
        assert!(
            chained.len() * 4 < plain.len(),
            "szx+lz {} vs szx {}",
            chained.len(),
            plain.len()
        );
    }
}
