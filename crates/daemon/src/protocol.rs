//! The wire protocol: length-prefixed frames carrying a one-byte
//! opcode plus a fixed little-endian body.
//!
//! ```text
//! frame    := len u32 LE | payload (len bytes)
//! payload  := opcode u8 | body
//!
//! requests                         replies
//! 0x01 ReadRegion  region          0x81 Data   dtype u8, rank u8,
//! 0x02 ReadChunk   index u64                   dims u64×rank,
//! 0x03 Prefetch    region                      nbytes u64, raw LE bytes
//! 0x04 Batch       count u32,      0x82 Ack
//!                  region×count    0x83 Stats  14 × u64 (see encode_stats)
//! 0x05 Stats                       0x84 Text   UTF-8 bytes (exposition)
//! 0x06 Metrics                     0x85 Batch  count u32, Data-body×count
//! 0x7F TestDelay   millis u32      0xE0 Error  code u8, UTF-8 message
//!
//! region   := rank u8 | origin u64×rank | extent u64×rank
//! ```
//!
//! Hand-rolled like the rest of the workspace's framing (PR 1's stubs
//! set the precedent): no serde on the wire, every field a fixed-width
//! little-endian integer, every decode bounded before it allocates.
//! Malformed bytes come back as a typed [`DaemonError::Decode`] with
//! the field that broke — the server turns that into an
//! [`ErrorCode::Malformed`] reply, never a panic.

use crate::error::{DaemonError, Result};
use eblcio_codec::check_dtype;
use eblcio_data::{dispatch_dtype, Element};
use eblcio_serve::ReaderStats;
use std::io::{Read, Write};

/// Cap on request frames. Requests are tiny (regions and batch lists);
/// anything bigger is an attack or a bug, refused before allocation.
pub const MAX_REQUEST_FRAME: usize = 1 << 20;

/// Cap on reply frames — bounds the decoded region a single exchange
/// can carry (256 MiB).
pub const MAX_REPLY_FRAME: usize = 1 << 28;

/// Cap on regions per batch request.
pub const MAX_BATCH: usize = 4096;

/// Cap on region rank the wire accepts (the array layer's own
/// `MAX_RANK` is 4; a little slack keeps the protocol ahead of it).
pub const MAX_WIRE_RANK: usize = 8;

const OP_READ_REGION: u8 = 0x01;
const OP_READ_CHUNK: u8 = 0x02;
const OP_PREFETCH: u8 = 0x03;
const OP_BATCH: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_METRICS: u8 = 0x06;
const OP_TEST_DELAY: u8 = 0x7F;

const OP_DATA: u8 = 0x81;
const OP_ACK: u8 = 0x82;
const OP_STATS_REPLY: u8 = 0x83;
const OP_TEXT: u8 = 0x84;
const OP_BATCH_REPLY: u8 = 0x85;
const OP_ERROR: u8 = 0xE0;

/// Machine-readable class of a typed error reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission refused: the request queue (or connection table) is
    /// full. Retry later; the server never queues unboundedly.
    Overloaded,
    /// The request bytes did not decode as a frame.
    Malformed,
    /// The request decoded but asked for something the store cannot
    /// answer (out-of-bounds region, unknown chunk, disabled opcode).
    BadRequest,
    /// The server failed internally while serving a valid request.
    Server,
    /// The frame header declared a length beyond the cap.
    FrameTooLarge,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::Malformed => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::Server => 4,
            ErrorCode::FrameTooLarge => 5,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::Overloaded),
            2 => Some(ErrorCode::Malformed),
            3 => Some(ErrorCode::BadRequest),
            4 => Some(ErrorCode::Server),
            5 => Some(ErrorCode::FrameTooLarge),
            _ => None,
        }
    }
}

/// An axis-aligned region as it travels on the wire: unvalidated
/// `u64` coordinates. The server checks it against the served array's
/// shape before touching the reader (a bad one is a typed
/// `BadRequest`, not a panic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionSpec {
    /// Per-dimension starting indices.
    pub origin: Vec<u64>,
    /// Per-dimension lengths.
    pub extent: Vec<u64>,
}

impl RegionSpec {
    /// Builds a spec from per-dimension origins and extents (lengths
    /// are reconciled by the server, not here).
    pub fn new(origin: &[u64], extent: &[u64]) -> Self {
        Self {
            origin: origin.to_vec(),
            extent: extent.to_vec(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.origin.len().min(u8::MAX as usize) as u8);
        for &o in &self.origin {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for &e in &self.extent {
            out.extend_from_slice(&e.to_le_bytes());
        }
    }

    fn decode(cur: &mut Cur<'_>) -> Result<Self> {
        let rank = cur.u8("region rank")? as usize;
        if rank == 0 || rank > MAX_WIRE_RANK {
            return Err(DaemonError::Decode("region rank"));
        }
        let mut origin = Vec::with_capacity(rank);
        let mut extent = Vec::with_capacity(rank);
        for _ in 0..rank {
            origin.push(cur.u64("region origin")?);
        }
        for _ in 0..rank {
            extent.push(cur.u64("region extent")?);
        }
        Ok(Self { origin, extent })
    }
}

impl From<&eblcio_store::Region> for RegionSpec {
    fn from(r: &eblcio_store::Region) -> Self {
        Self {
            origin: r.origin().iter().map(|&v| v as u64).collect(),
            extent: r.extent().iter().map(|&v| v as u64).collect(),
        }
    }
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Assemble and return the region's samples.
    ReadRegion(RegionSpec),
    /// Return one whole decoded chunk by raster index.
    ReadChunk {
        /// Raster-order chunk index.
        index: u64,
    },
    /// Warm the cache for the region; replies [`Reply::Ack`] without
    /// waiting for decode errors (the read that needs a chunk sees
    /// them).
    Prefetch(RegionSpec),
    /// Several region reads admitted (and answered) as one unit.
    Batch(Vec<RegionSpec>),
    /// The reader's cumulative [`ReaderStats`].
    Stats,
    /// The Prometheus text exposition of the reader's registry — the
    /// `/metrics` equivalent.
    Metrics,
    /// Test-only (enabled by `DaemonConfig::test_ops`): occupy a worker
    /// for `millis` before replying `Ack`. Lets tests fill the queue
    /// deterministically.
    TestDelay {
        /// How long the worker sleeps.
        millis: u32,
    },
}

impl Request {
    /// Serializes to a frame payload (opcode + body, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Request::ReadRegion(r) => {
                out.push(OP_READ_REGION);
                r.encode_into(&mut out);
            }
            Request::ReadChunk { index } => {
                out.push(OP_READ_CHUNK);
                out.extend_from_slice(&index.to_le_bytes());
            }
            Request::Prefetch(r) => {
                out.push(OP_PREFETCH);
                r.encode_into(&mut out);
            }
            Request::Batch(regions) => {
                out.push(OP_BATCH);
                out.extend_from_slice(&(regions.len().min(u32::MAX as usize) as u32).to_le_bytes());
                for r in regions {
                    r.encode_into(&mut out);
                }
            }
            Request::Stats => out.push(OP_STATS),
            Request::Metrics => out.push(OP_METRICS),
            Request::TestDelay { millis } => {
                out.push(OP_TEST_DELAY);
                out.extend_from_slice(&millis.to_le_bytes());
            }
        }
        out
    }

    /// Parses a frame payload. Every failure names the broken field;
    /// trailing bytes after a complete body are themselves an error
    /// (strictness the adversarial tests lean on).
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut cur = Cur::new(payload);
        let op = cur.u8("opcode")?;
        let req = match op {
            OP_READ_REGION => Request::ReadRegion(RegionSpec::decode(&mut cur)?),
            OP_READ_CHUNK => Request::ReadChunk { index: cur.u64("chunk index")? },
            OP_PREFETCH => Request::Prefetch(RegionSpec::decode(&mut cur)?),
            OP_BATCH => {
                let count = cur.u32("batch count")? as usize;
                if count == 0 || count > MAX_BATCH {
                    return Err(DaemonError::Decode("batch count"));
                }
                let mut regions = Vec::with_capacity(count);
                for _ in 0..count {
                    regions.push(RegionSpec::decode(&mut cur)?);
                }
                Request::Batch(regions)
            }
            OP_STATS => Request::Stats,
            OP_METRICS => Request::Metrics,
            OP_TEST_DELAY => Request::TestDelay { millis: cur.u32("delay millis")? },
            _ => return Err(DaemonError::Decode("request opcode")),
        };
        cur.finish("request trailing bytes")?;
        Ok(req)
    }
}

/// One returned array: the region's (or chunk's) samples as raw
/// little-endian bytes plus enough geometry to interpret them.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayData {
    /// Container dtype tag: 0 = f32, 1 = f64.
    pub dtype: u8,
    /// Per-dimension lengths of the returned array.
    pub dims: Vec<u64>,
    /// `product(dims) × sizeof(dtype)` raw sample bytes, little-endian.
    pub bytes: Vec<u8>,
}

impl ArrayData {
    /// Bytes per sample for the dtype tag, if the tag is known.
    pub fn sample_size(&self) -> Option<usize> {
        dispatch_dtype!(E = self.dtype => E::BYTES)
    }

    /// Decodes the payload as `T` samples; `None` when the dtype tag
    /// names another type.
    fn samples<T: Element>(&self) -> Option<Vec<T>> {
        check_dtype::<T>(self.dtype).ok()?;
        Some(self.bytes.chunks_exact(T::BYTES).filter_map(T::read_le).collect())
    }

    /// Decodes the payload as `f32` samples (dtype tag 0).
    pub fn as_f32(&self) -> Option<Vec<f32>> {
        self.samples()
    }

    /// Decodes the payload as `f64` samples (dtype tag 1).
    pub fn as_f64(&self) -> Option<Vec<f64>> {
        self.samples()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.dtype);
        out.push(self.dims.len().min(u8::MAX as usize) as u8);
        for &d in &self.dims {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out.extend_from_slice(&(self.bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.bytes);
    }

    fn decode(cur: &mut Cur<'_>) -> Result<Self> {
        let dtype = cur.u8("data dtype")?;
        let rank = cur.u8("data rank")? as usize;
        if rank == 0 || rank > MAX_WIRE_RANK {
            return Err(DaemonError::Decode("data rank"));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(cur.u64("data dims")?);
        }
        let nbytes = cur.u64("data length")? as usize;
        if nbytes > cur.remaining() {
            return Err(DaemonError::Decode("data length"));
        }
        // The byte count must agree with the declared geometry, so a
        // forged header can't make a client misinterpret the samples.
        let samples = dims
            .iter()
            .try_fold(1u64, |a, &d| a.checked_mul(d))
            .ok_or(DaemonError::Decode("data dims"))?;
        let expect = match dtype {
            0 => samples.checked_mul(4),
            1 => samples.checked_mul(8),
            _ => return Err(DaemonError::Decode("data dtype")),
        };
        if expect != Some(nbytes as u64) {
            return Err(DaemonError::Decode("data length"));
        }
        let bytes = cur.bytes(nbytes, "data bytes")?.to_vec();
        Ok(Self { dtype, dims, bytes })
    }
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Samples for a `ReadRegion`/`ReadChunk`.
    Data(ArrayData),
    /// Success with no payload (`Prefetch`, `TestDelay`).
    Ack,
    /// Cumulative reader statistics.
    Stats(ReaderStats),
    /// UTF-8 text (the Prometheus exposition).
    Text(String),
    /// One `Data` body per batched region, in request order.
    Batch(Vec<ArrayData>),
    /// A typed failure; the connection stays usable unless the error
    /// concerns framing itself.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Reply {
    /// Serializes to a frame payload (opcode + body, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Reply::Data(d) => {
                out.push(OP_DATA);
                d.encode_into(&mut out);
            }
            Reply::Ack => out.push(OP_ACK),
            Reply::Stats(s) => {
                out.push(OP_STATS_REPLY);
                encode_stats(s, &mut out);
            }
            Reply::Text(t) => {
                out.push(OP_TEXT);
                out.extend_from_slice(t.as_bytes());
            }
            Reply::Batch(items) => {
                out.push(OP_BATCH_REPLY);
                out.extend_from_slice(&(items.len().min(u32::MAX as usize) as u32).to_le_bytes());
                for d in items {
                    d.encode_into(&mut out);
                }
            }
            Reply::Error { code, message } => {
                out.push(OP_ERROR);
                out.push(code.to_u8());
                out.extend_from_slice(message.as_bytes());
            }
        }
        out
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut cur = Cur::new(payload);
        let op = cur.u8("opcode")?;
        let reply = match op {
            OP_DATA => Reply::Data(ArrayData::decode(&mut cur)?),
            OP_ACK => Reply::Ack,
            OP_STATS_REPLY => Reply::Stats(decode_stats(&mut cur)?),
            OP_TEXT => {
                let text = String::from_utf8(cur.take_rest().to_vec())
                    .map_err(|_| DaemonError::Decode("text utf-8"))?;
                Reply::Text(text)
            }
            OP_BATCH_REPLY => {
                let count = cur.u32("batch count")? as usize;
                if count > MAX_BATCH {
                    return Err(DaemonError::Decode("batch count"));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(ArrayData::decode(&mut cur)?);
                }
                Reply::Batch(items)
            }
            OP_ERROR => {
                let code = ErrorCode::from_u8(cur.u8("error code")?)
                    .ok_or(DaemonError::Decode("error code"))?;
                let message = String::from_utf8_lossy(cur.take_rest()).into_owned();
                Reply::Error { code, message }
            }
            _ => return Err(DaemonError::Decode("reply opcode")),
        };
        cur.finish("reply trailing bytes")?;
        Ok(reply)
    }
}

/// Serializes [`ReaderStats`] as 14 × `u64` LE, in declaration order;
/// the two `f64` second counters travel as IEEE-754 bit patterns.
pub fn encode_stats(s: &ReaderStats, out: &mut Vec<u8>) {
    for v in [
        s.requests,
        s.chunks_requested,
        s.cache_hits,
        s.cache_misses,
        s.decodes,
        s.partial_decodes,
        s.decoded_bytes,
        s.decode_seconds.to_bits(),
        s.prefetched,
        s.evictions,
        s.refreshes,
        s.invalidations,
        s.flight_waits,
        s.wall_seconds.to_bits(),
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_stats(cur: &mut Cur<'_>) -> Result<ReaderStats> {
    let mut f = [0u64; 14];
    for v in f.iter_mut() {
        *v = cur.u64("stats field")?;
    }
    Ok(ReaderStats {
        requests: f[0],
        chunks_requested: f[1],
        cache_hits: f[2],
        cache_misses: f[3],
        decodes: f[4],
        partial_decodes: f[5],
        decoded_bytes: f[6],
        decode_seconds: f64::from_bits(f[7]),
        prefetched: f[8],
        evictions: f[9],
        refreshes: f[10],
        invalidations: f[11],
        flight_waits: f[12],
        wall_seconds: f64::from_bits(f[13]),
    })
}

/// What [`read_frame`] produced.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete payload.
    Frame(Vec<u8>),
    /// The peer closed cleanly at a frame boundary.
    Closed,
    /// The header declared more than `max` bytes; nothing was
    /// allocated or consumed past the header.
    TooLarge(u64),
}

/// Writes one frame: `u32` LE length then the payload, flushed.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload over 4 GiB")
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, tolerating read timeouts **between** frames and
/// treating them as fatal **inside** one.
///
/// The asymmetry is the hang/torn-frame contract: an idle connection
/// may sit at a frame boundary forever (each timeout consults
/// `keep_waiting`, so shutdown still gets through), but once a header
/// byte has arrived the peer owes a whole frame — a stall mid-frame is
/// a torn frame and surfaces as the timeout error, closing the
/// connection rather than wedging a reader thread.
pub fn read_frame(
    r: &mut impl Read,
    max: usize,
    keep_waiting: impl Fn() -> bool,
) -> std::io::Result<FrameRead> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(FrameRead::Closed)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof inside frame header",
                    ))
                };
            }
            Ok(n) => got += n,
            Err(e)
                if got == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                if keep_waiting() {
                    continue;
                }
                return Ok(FrameRead::Closed);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > max {
        return Ok(FrameRead::TooLarge(len as u64));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame payload",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Frame(payload))
}

/// Bounds-checked little-endian reader over a frame payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(DaemonError::Decode(context));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.bytes(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32> {
        let b = self.bytes(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64> {
        let b = self.bytes(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn finish(&self, context: &'static str) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DaemonError::Decode(context))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::ReadRegion(RegionSpec::new(&[1, 2], &[3, 4])),
            Request::ReadChunk { index: 42 },
            Request::Prefetch(RegionSpec::new(&[0], &[128])),
            Request::Batch(vec![
                RegionSpec::new(&[0, 0], &[16, 16]),
                RegionSpec::new(&[16, 0], &[16, 16]),
            ]),
            Request::Stats,
            Request::Metrics,
            Request::TestDelay { millis: 250 },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn reply_roundtrips() {
        let stats = ReaderStats {
            requests: 7,
            cache_hits: 5,
            wall_seconds: 0.25,
            ..Default::default()
        };
        let data = ArrayData {
            dtype: 0,
            dims: vec![2, 3],
            bytes: vec![0; 24],
        };
        let replies = [
            Reply::Data(data.clone()),
            Reply::Ack,
            Reply::Stats(stats),
            Reply::Text("# TYPE x counter\nx 1\n".into()),
            Reply::Batch(vec![data.clone(), data]),
            Reply::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            },
        ];
        for reply in replies {
            assert_eq!(Reply::decode(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn trailing_bytes_and_bad_opcodes_are_typed_errors() {
        let mut payload = Request::Stats.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(DaemonError::Decode("request trailing bytes"))
        ));
        assert!(matches!(
            Request::decode(&[0xAB]),
            Err(DaemonError::Decode("request opcode"))
        ));
        assert!(matches!(
            Request::decode(&[]),
            Err(DaemonError::Decode("opcode"))
        ));
    }

    #[test]
    fn forged_data_geometry_is_rejected() {
        // Claimed 2×3 f32s but only 8 payload bytes.
        let good = Reply::Data(ArrayData {
            dtype: 0,
            dims: vec![2, 3],
            bytes: vec![0; 24],
        })
        .encode();
        let mut forged = good.clone();
        // Truncate the sample bytes but keep the declared length.
        forged.truncate(good.len() - 16);
        assert!(Reply::decode(&forged).is_err());
    }

    #[test]
    fn frame_io_roundtrips_and_caps_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = std::io::Cursor::new(&buf);
        match read_frame(&mut r, 64, || true).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"hello"),
            other => panic!("{other:?}"),
        }
        let mut r = std::io::Cursor::new(&buf);
        match read_frame(&mut r, 4, || true).unwrap() {
            FrameRead::TooLarge(n) => assert_eq!(n, 5),
            other => panic!("{other:?}"),
        }
        let mut empty = std::io::Cursor::new(&[][..]);
        assert!(matches!(
            read_frame(&mut empty, 64, || true).unwrap(),
            FrameRead::Closed
        ));
        // A torn header (1 of 4 length bytes) is an error, not a hang.
        let mut torn = std::io::Cursor::new(&buf[..1]);
        assert!(read_frame(&mut torn, 64, || true).is_err());
        // A torn payload (header promises more than arrives) likewise.
        let mut torn = std::io::Cursor::new(&buf[..6]);
        assert!(read_frame(&mut torn, 64, || true).is_err());
    }
}
