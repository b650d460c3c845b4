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
//!
//! # The life of a reply
//!
//! A frame is built once, in wire order, in the buffer it is sent
//! from, and parsed once, off the socket, into the value the caller
//! keeps:
//!
//! * **Encoding** appends to a `FrameBuf` — a byte buffer that
//!   remembers how much of itself has ever been written, so starting
//!   the next frame costs nothing and reserving room for a megabyte of
//!   samples does not zero it again. The server's connection thread
//!   owns one for its whole life, the client one for its requests;
//!   [`Reply::encode`] and [`Request::encode`] are the same encoders
//!   over a fresh buffer reserved to the exact length.
//! * **Decoding** is one set of functions over a private `Source` of
//!   bounded little-endian fields, implemented by a payload slice
//!   ([`Reply::decode`]) and by a frame still on the socket
//!   ([`read_reply`], which is what [`crate::DaemonClient`] runs). A
//!   `Data` body's header is checked in full — dtype known, rank in
//!   range, `product(dims) × sample size == nbytes`, and `nbytes` no
//!   more than what is left of the (already capped) frame — before the
//!   one allocation that receives the samples, so a forged header can
//!   neither over-allocate nor make a client misread them.
//!
//! The `Data` header has exactly one writer (`put_data_header`) and
//! one parser (`DataHeader::parse`), shared by [`ArrayData`], the
//! server's in-place assembly and the client's streaming reads.

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

pub(crate) const OP_READ_REGION: u8 = 0x01;
const OP_READ_CHUNK: u8 = 0x02;
pub(crate) const OP_PREFETCH: u8 = 0x03;
const OP_BATCH: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_METRICS: u8 = 0x06;
const OP_TEST_DELAY: u8 = 0x7F;

pub(crate) const OP_DATA: u8 = 0x81;
const OP_ACK: u8 = 0x82;
const OP_STATS_REPLY: u8 = 0x83;
const OP_TEXT: u8 = 0x84;
pub(crate) const OP_BATCH_REPLY: u8 = 0x85;
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

    fn encode_into(&self, out: &mut FrameBuf) {
        out.push(self.origin.len().min(u8::MAX as usize) as u8);
        for &o in &self.origin {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for &e in &self.extent {
            out.extend_from_slice(&e.to_le_bytes());
        }
    }

    fn decode(cur: &mut impl Source) -> Result<Self> {
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
    /// Return one whole decoded chunk by raster index. The server reads
    /// it as the region the chunk covers, so it is served, cached and
    /// counted exactly like a [`Request::ReadRegion`] of that box.
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
        let mut out = FrameBuf::with_capacity(64);
        self.encode_into(&mut out);
        out.into_vec()
    }

    /// Appends the payload to `out`. The region-bearing requests go
    /// through [`put_region_request`] / [`put_batch_request`], which the
    /// client calls directly on borrowed specs.
    pub(crate) fn encode_into(&self, out: &mut FrameBuf) {
        match self {
            Request::ReadRegion(r) => put_region_request(out, OP_READ_REGION, r),
            Request::ReadChunk { index } => {
                out.push(OP_READ_CHUNK);
                out.extend_from_slice(&index.to_le_bytes());
            }
            Request::Prefetch(r) => put_region_request(out, OP_PREFETCH, r),
            Request::Batch(regions) => put_batch_request(out, regions),
            Request::Stats => out.push(OP_STATS),
            Request::Metrics => out.push(OP_METRICS),
            Request::TestDelay { millis } => {
                out.push(OP_TEST_DELAY);
                out.extend_from_slice(&millis.to_le_bytes());
            }
        }
    }

    /// Parses a frame payload. Every failure names the broken field;
    /// trailing bytes after a complete body are themselves an error
    /// (strictness the adversarial tests lean on).
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut cur = payload;
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

/// Appends a `ReadRegion`/`Prefetch` payload (`op` says which).
pub(crate) fn put_region_request(out: &mut FrameBuf, op: u8, region: &RegionSpec) {
    out.push(op);
    region.encode_into(out);
}

/// Appends a `Batch` request payload.
pub(crate) fn put_batch_request(out: &mut FrameBuf, regions: &[RegionSpec]) {
    out.push(OP_BATCH);
    out.put_count(regions.len());
    for r in regions {
        r.encode_into(out);
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
    /// Decodes the payload as `T` samples; `None` when the dtype tag
    /// names another type.
    fn samples<T: Element>(&self) -> Option<Vec<T>> {
        check_dtype::<T>(self.dtype).ok()?;
        let mut samples = vec![T::default(); self.bytes.len() / T::BYTES];
        T::read_le_slice(self.bytes.get(..samples.len() * T::BYTES)?, &mut samples);
        Some(samples)
    }

    /// Decodes the payload as `f32` samples (dtype tag 0).
    pub fn as_f32(&self) -> Option<Vec<f32>> {
        self.samples()
    }

    /// Decodes the payload as `f64` samples (dtype tag 1).
    pub fn as_f64(&self) -> Option<Vec<f64>> {
        self.samples()
    }

    fn encode_into(&self, out: &mut FrameBuf) {
        put_data_header(out, self.dtype, self.dims.iter().copied(), self.bytes.len());
        out.extend_from_slice(&self.bytes);
    }

    fn encoded_len(&self) -> usize {
        data_header_len(self.dims.len()) + self.bytes.len()
    }

    fn decode(src: &mut impl Source) -> Result<Self> {
        let header = DataHeader::parse(src)?;
        Ok(Self {
            dtype: header.dtype,
            dims: header.dims().to_vec(),
            bytes: src.bytes(header.nbytes, "data bytes")?,
        })
    }
}

/// Bytes a `Data` body spends before its samples: `dtype u8 | rank u8 |
/// dims u64×rank | nbytes u64`.
pub(crate) const fn data_header_len(rank: usize) -> usize {
    2 + 8 * rank + 8
}

/// The one writer of a `Data` body's header.
pub(crate) fn put_data_header(
    out: &mut FrameBuf,
    dtype: u8,
    dims: impl ExactSizeIterator<Item = u64>,
    nbytes: usize,
) {
    out.push(dtype);
    out.push(dims.len().min(u8::MAX as usize) as u8);
    for d in dims {
        out.extend_from_slice(&d.to_le_bytes());
    }
    out.extend_from_slice(&(nbytes as u64).to_le_bytes());
}

/// A `Data` body's header, parsed and checked: what a receiver needs to
/// know before it accepts a single sample byte.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DataHeader {
    /// Container dtype tag, known to name an element type.
    pub(crate) dtype: u8,
    rank: usize,
    dims: [u64; MAX_WIRE_RANK],
    /// Sample bytes that follow: `product(dims) × sample size`, and no
    /// more than the frame still holds.
    pub(crate) nbytes: usize,
}

impl DataHeader {
    /// Per-dimension lengths of the array that follows.
    pub(crate) fn dims(&self) -> &[u64] {
        &self.dims[..self.rank]
    }

    /// The one parser of a `Data` body's header. Everything a forged
    /// header could lie about is checked here, before the caller
    /// allocates for (or writes) the samples.
    pub(crate) fn parse(src: &mut impl Source) -> Result<Self> {
        let dtype = src.u8("data dtype")?;
        let rank = src.u8("data rank")? as usize;
        if rank == 0 || rank > MAX_WIRE_RANK {
            return Err(DaemonError::Decode("data rank"));
        }
        let mut dims = [0u64; MAX_WIRE_RANK];
        for d in &mut dims[..rank] {
            *d = src.u64("data dims")?;
        }
        let nbytes = src.u64("data length")?;
        // The byte count must agree with the declared geometry, so a
        // forged header can't make a client misinterpret the samples.
        let sample = dispatch_dtype!(E = dtype => E::BYTES as u64)
            .ok_or(DaemonError::Decode("data dtype"))?;
        let expect = dims[..rank]
            .iter()
            .try_fold(sample, |a, &d| a.checked_mul(d))
            .ok_or(DaemonError::Decode("data dims"))?;
        if expect != nbytes || nbytes > src.remaining() as u64 {
            return Err(DaemonError::Decode("data length"));
        }
        Ok(Self { dtype, rank, dims, nbytes: nbytes as usize })
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
    /// Serializes to a frame payload (opcode + body, no length prefix),
    /// reserved to its exact length up front.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = FrameBuf::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out.into_vec()
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Reply::Data(d) => d.encoded_len(),
            Reply::Ack => 0,
            Reply::Stats(_) => STATS_FIELDS * 8,
            Reply::Text(t) => t.len(),
            Reply::Batch(items) => 4 + items.iter().map(ArrayData::encoded_len).sum::<usize>(),
            Reply::Error { message, .. } => 1 + message.len(),
        }
    }

    /// Appends the payload to `out`.
    pub(crate) fn encode_into(&self, out: &mut FrameBuf) {
        match self {
            Reply::Data(d) => {
                out.push(OP_DATA);
                d.encode_into(out);
            }
            Reply::Ack => out.push(OP_ACK),
            Reply::Stats(s) => {
                out.push(OP_STATS_REPLY);
                encode_stats(s, out);
            }
            Reply::Text(t) => {
                out.push(OP_TEXT);
                out.extend_from_slice(t.as_bytes());
            }
            Reply::Batch(items) => {
                out.push(OP_BATCH_REPLY);
                out.put_count(items.len());
                for d in items {
                    d.encode_into(out);
                }
            }
            Reply::Error { code, message } => {
                out.push(OP_ERROR);
                out.push(code.to_u8());
                out.extend_from_slice(message.as_bytes());
            }
        }
    }

    /// Parses a frame payload.
    pub fn decode(mut payload: &[u8]) -> Result<Self> {
        let op = payload.u8("opcode")?;
        Self::decode_body(op, &mut payload)
    }

    /// Parses what follows opcode `op`, through to the end of the
    /// frame — from a payload slice or straight off a socket.
    pub(crate) fn decode_body(op: u8, src: &mut impl Source) -> Result<Self> {
        let reply = match op {
            OP_DATA => Reply::Data(ArrayData::decode(src)?),
            OP_ACK => Reply::Ack,
            OP_STATS_REPLY => Reply::Stats(decode_stats(src)?),
            OP_TEXT => {
                let text = String::from_utf8(src.rest()?)
                    .map_err(|_| DaemonError::Decode("text utf-8"))?;
                Reply::Text(text)
            }
            OP_BATCH_REPLY => {
                let count = src.u32("batch count")? as usize;
                if count > MAX_BATCH {
                    return Err(DaemonError::Decode("batch count"));
                }
                // Sized by what the frame can actually hold, not by
                // what its count field claims.
                let mut items =
                    Vec::with_capacity(count.min(src.remaining() / data_header_len(1)));
                for _ in 0..count {
                    items.push(ArrayData::decode(src)?);
                }
                Reply::Batch(items)
            }
            OP_ERROR => {
                let code = ErrorCode::from_u8(src.u8("error code")?)
                    .ok_or(DaemonError::Decode("error code"))?;
                let message = String::from_utf8_lossy(&src.rest()?).into_owned();
                Reply::Error { code, message }
            }
            _ => return Err(DaemonError::Decode("reply opcode")),
        };
        src.finish("reply trailing bytes")?;
        Ok(reply)
    }
}

/// Reads one reply frame off `r` — [`Reply::decode`] behind a socket:
/// the same decoders, fed from the stream instead of a payload slice,
/// so a `Data` reply's samples land directly in the [`ArrayData`] that
/// is returned and no intermediate frame buffer exists. A length prefix
/// above `max` is [`DaemonError::FrameTooLarge`] before anything is
/// allocated; a peer that closed at the frame boundary is
/// [`DaemonError::ConnectionClosed`]. After any error the stream is no
/// longer at a frame boundary.
pub fn read_reply(r: &mut impl Read, max: usize) -> Result<Reply> {
    FrameSource::open(r, max)?.reply()
}

/// `u64` fields in a `Stats` body.
const STATS_FIELDS: usize = 14;

/// Serializes [`ReaderStats`] as 14 × `u64` LE, in declaration order;
/// the two `f64` second counters travel as IEEE-754 bit patterns.
fn encode_stats(s: &ReaderStats, out: &mut FrameBuf) {
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

fn decode_stats(src: &mut impl Source) -> Result<ReaderStats> {
    let mut f = [0u64; STATS_FIELDS];
    for v in f.iter_mut() {
        *v = src.u64("stats field")?;
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

/// A reusable buffer frames are built in, in wire order.
///
/// It is a `Vec<u8>` that keeps two lengths apart: how much of the
/// current frame has been written (`len`) and how much of the
/// allocation has ever been initialised (`buf.len()`, which only
/// grows). [`FrameBuf::begin_frame`] therefore costs nothing and keeps
/// both the capacity and the initialised bytes, and [`FrameBuf::grow`]
/// can hand out a megabyte of room for samples without zeroing it
/// again — what a per-request `clear` + `resize` on a plain `Vec` would
/// do.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    len: usize,
}

impl FrameBuf {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self { buf: Vec::with_capacity(n), len: 0 }
    }

    /// Forgets the previous frame (the allocation and its initialised
    /// bytes stay) and leaves room for the length prefix that
    /// [`FrameBuf::finish_frame`] fills in.
    pub(crate) fn begin_frame(&mut self) {
        self.len = 0;
        self.extend_from_slice(&[0u8; 4]);
    }

    /// Stamps the length prefix of a frame started with
    /// [`FrameBuf::begin_frame`] and returns the whole frame, ready for
    /// one `write_all`.
    pub(crate) fn finish_frame(&mut self) -> std::io::Result<&[u8]> {
        let payload = self.len.checked_sub(4).and_then(|n| u32::try_from(n).ok());
        let Some(payload) = payload else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "frame not begun, or payload over 4 GiB",
            ));
        };
        self.buf[..4].copy_from_slice(&payload.to_le_bytes());
        Ok(&self.buf[..self.len])
    }

    pub(crate) fn push(&mut self, byte: u8) {
        self.extend_from_slice(&[byte]);
    }

    /// Appends a count field (`u32` LE, saturating).
    pub(crate) fn put_count(&mut self, count: usize) {
        self.extend_from_slice(&(count.min(u32::MAX as usize) as u32).to_le_bytes());
    }

    pub(crate) fn extend_from_slice(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        match self.buf.get_mut(self.len..end) {
            Some(room) => room.copy_from_slice(bytes),
            None => {
                self.buf.truncate(self.len);
                self.buf.extend_from_slice(bytes);
            }
        }
        self.len = end;
    }

    /// Appends `n` bytes for the caller to overwrite (their content is
    /// unspecified: zeros the first time, an older frame's bytes after).
    pub(crate) fn grow(&mut self, n: usize) -> &mut [u8] {
        let start = self.len;
        self.len += n;
        if self.buf.len() < self.len {
            // Exactly, not amortised: the allocation then tracks the
            // largest frame built, which is what its owner budgets by.
            self.buf.reserve_exact(self.len - self.buf.len());
            self.buf.resize(self.len, 0);
        }
        &mut self.buf[start..self.len]
    }

    /// Bytes of the allocation behind the buffer.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The frame written so far, as an owned `Vec`.
    pub(crate) fn into_vec(mut self) -> Vec<u8> {
        self.buf.truncate(self.len);
        self.buf
    }
}

/// Bounded little-endian field reads — the decoders' only view of
/// their input, so one set of them serves a payload slice (`&[u8]`) and
/// a frame still on the socket ([`FrameSource`]). Running out of frame
/// is a typed [`DaemonError::Decode`] naming the field that broke.
pub(crate) trait Source {
    /// Payload bytes not yet consumed.
    fn remaining(&self) -> usize;

    /// Fills `out` with the next `out.len()` payload bytes.
    fn fill(&mut self, out: &mut [u8], context: &'static str) -> Result<()>;

    /// The next `n` payload bytes as an owned buffer — allocated only
    /// once `n` is known to fit what remains, and written exactly once
    /// (not zeroed first, then overwritten).
    fn bytes(&mut self, n: usize, context: &'static str) -> Result<Vec<u8>>;

    /// Everything that is left (bounded by the frame cap).
    fn rest(&mut self) -> Result<Vec<u8>> {
        self.bytes(self.remaining(), "frame tail")
    }

    fn u8(&mut self, context: &'static str) -> Result<u8> {
        let mut b = [0u8; 1];
        self.fill(&mut b, context)?;
        Ok(b[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32> {
        let mut b = [0u8; 4];
        self.fill(&mut b, context)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64> {
        let mut b = [0u8; 8];
        self.fill(&mut b, context)?;
        Ok(u64::from_le_bytes(b))
    }

    fn finish(&self, context: &'static str) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DaemonError::Decode(context))
        }
    }
}

/// A frame payload held in memory, consumed from the front (as
/// `std::io::Read` for `&[u8]` does).
impl Source for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn fill(&mut self, out: &mut [u8], context: &'static str) -> Result<()> {
        let Some((head, tail)) = self.split_at_checked(out.len()) else {
            return Err(DaemonError::Decode(context));
        };
        out.copy_from_slice(head);
        *self = tail;
        Ok(())
    }

    fn bytes(&mut self, n: usize, context: &'static str) -> Result<Vec<u8>> {
        let Some((head, tail)) = self.split_at_checked(n) else {
            return Err(DaemonError::Decode(context));
        };
        *self = tail;
        Ok(head.to_vec())
    }
}

/// A frame whose length prefix has been read and checked and whose
/// payload is still on the stream: reads are bounded by what the prefix
/// declared, so a decoder can neither run into the next frame nor be
/// talked into reading (or allocating) more than the cap.
pub(crate) struct FrameSource<'r, R> {
    r: &'r mut R,
    left: usize,
}

impl<'r, R: Read> FrameSource<'r, R> {
    /// Reads the length prefix. Any stall or error is fatal here — the
    /// caller has a request in flight and is owed a reply.
    pub(crate) fn open(r: &'r mut R, max: usize) -> Result<Self> {
        let mut prefix = [0u8; 4];
        let first = loop {
            match r.read(&mut prefix) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                other => break other?,
            }
        };
        if first == 0 {
            return Err(DaemonError::ConnectionClosed);
        }
        r.read_exact(&mut prefix[first..])?;
        let left = u32::from_le_bytes(prefix) as usize;
        if left > max {
            return Err(DaemonError::FrameTooLarge { declared: left as u64, max: max as u64 });
        }
        Ok(Self { r, left })
    }

    /// Reads the whole frame as a [`Reply`].
    pub(crate) fn reply(mut self) -> Result<Reply> {
        let op = self.u8("opcode")?;
        Reply::decode_body(op, &mut self)
    }
}

impl<R: Read> Source for FrameSource<'_, R> {
    fn remaining(&self) -> usize {
        self.left
    }

    fn fill(&mut self, out: &mut [u8], context: &'static str) -> Result<()> {
        if out.len() > self.left {
            return Err(DaemonError::Decode(context));
        }
        self.r.read_exact(out)?;
        self.left -= out.len();
        Ok(())
    }

    fn bytes(&mut self, n: usize, context: &'static str) -> Result<Vec<u8>> {
        if n > self.left {
            return Err(DaemonError::Decode(context));
        }
        // `read_to_end` fills spare capacity in place, so the samples'
        // one pass over this memory is the socket copy itself.
        let mut bytes = Vec::with_capacity(n);
        self.r.by_ref().take(n as u64).read_to_end(&mut bytes)?;
        if bytes.len() != n {
            return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
        }
        self.left -= n;
        Ok(bytes)
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
    fn frame_buf_restarts_without_forgetting_what_it_initialised() {
        let mut f = FrameBuf::default();
        f.begin_frame();
        f.push(0xAA);
        f.grow(6).copy_from_slice(b"sample");
        assert_eq!(f.finish_frame().unwrap(), b"\x07\0\0\0\xAAsample");

        // The next frame overwrites in place: room handed out by `grow`
        // still holds the old bytes (it was not re-zeroed)…
        f.begin_frame();
        f.push(0xBB);
        assert_eq!(f.grow(3), b"sam");
        assert_eq!(f.finish_frame().unwrap(), b"\x04\0\0\0\xBBsam");
        // …and an append that runs past the initialised part extends it.
        f.extend_from_slice(b"-and-more");
        assert_eq!(f.into_vec(), b"\x04\0\0\0\xBBsam-and-more");

        // A frame that was never begun has no prefix to stamp.
        assert!(FrameBuf::default().finish_frame().is_err());
    }

    #[test]
    fn encoders_reserve_exactly_what_they_write() {
        let data = ArrayData {
            dtype: 1,
            dims: vec![2, 1, 3],
            bytes: vec![9; 48],
        };
        for reply in [
            Reply::Data(data.clone()),
            Reply::Ack,
            Reply::Stats(ReaderStats::default()),
            Reply::Text("exposition".into()),
            Reply::Batch(vec![data.clone(), data]),
            Reply::Error {
                code: ErrorCode::Server,
                message: "why".into(),
            },
        ] {
            assert_eq!(reply.encode().len(), reply.encoded_len(), "{reply:?}");
        }
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
