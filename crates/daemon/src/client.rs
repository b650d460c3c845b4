//! Blocking client for the serve protocol: one socket, one in-flight
//! request, typed errors.
//!
//! The client deliberately mirrors the reader API (`read_region`,
//! `read_region_into`, `read_chunk`, `prefetch`, `stats`) so switching
//! between in-process and over-the-wire access is a one-line change for
//! callers and for the load generator.
//!
//! Nothing is staged on the way in or out. A request is encoded — from
//! borrowed arguments — into one reused buffer, length prefix included,
//! and leaves in one `write_all`. A reply is parsed off the socket by
//! the same decoders [`Reply::decode`] runs over a slice: the `Data`
//! header is validated first, then the samples are read straight into
//! the `ArrayData` that is returned ([`DaemonClient::read_region`]) or,
//! through a small per-client staging block, into an array the caller
//! already owns ([`DaemonClient::read_region_into`]).

use crate::error::{DaemonError, Result};
use crate::protocol::{
    put_batch_request, put_region_request, ArrayData, DataHeader, FrameBuf, FrameSource,
    RegionSpec, Reply, Request, Source, MAX_REPLY_FRAME, OP_DATA, OP_PREFETCH, OP_READ_REGION,
};
use eblcio_codec::{check_dtype, CodecError};
use eblcio_data::{Element, NdArray};
use eblcio_serve::ReaderStats;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Wire bytes [`DaemonClient::read_region_into`] moves per step from
/// the socket into the caller's array (a multiple of every sample
/// size; small enough to stay cache-resident between the two copies).
const STAGING_BYTES: usize = 64 << 10;

/// The reply frame of the exchange in progress, still on the socket.
type ReplyFrame<'a> = FrameSource<'a, BufReader<TcpStream>>;

/// A connection to a running [`crate::server::Daemon`].
///
/// # Errors and the connection
///
/// A typed error reply from the server ([`DaemonError::Remote`]:
/// `BadRequest`, `Overloaded`, …) ends one exchange cleanly and the
/// connection stays usable. **Any other failure** — a reply frame over
/// [`MAX_REPLY_FRAME`], an I/O error or timeout, a reply that fails
/// validation or does not fit what the caller asked for — leaves unread
/// bytes of unknown meaning on the socket, so the client shuts the
/// socket down on the spot and every later call returns
/// [`DaemonError::ConnectionClosed`]. Reconnect to continue.
pub struct DaemonClient {
    /// Buffered so a reply's length prefix, opcode and `Data` header
    /// cost one `read`; bulk sample reads bypass the buffer.
    stream: BufReader<TcpStream>,
    /// The outgoing frame, reused across requests.
    request: FrameBuf,
    /// Staging block for [`DaemonClient::read_region_into`], allocated
    /// by its first call.
    staging: Vec<u8>,
    /// Set by the first failure that leaves the stream inside a frame.
    closed: bool,
}

impl DaemonClient {
    /// Connects to a daemon at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Request/reply framing sends small writes; leaving Nagle on
        // costs a delayed-ACK round trip (~40 ms) per exchange.
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: BufReader::new(stream),
            request: FrameBuf::default(),
            staging: Vec::new(),
            closed: false,
        })
    }

    /// Caps how long one exchange may stall before erroring out (the
    /// default is the OS's, i.e. effectively unbounded). A timeout, like
    /// any I/O failure, closes the connection.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)?;
        self.stream.get_ref().set_write_timeout(timeout)?;
        Ok(())
    }

    /// Reads a region of the served array. The returned
    /// [`ArrayData::bytes`] is the call's one allocation proportional to
    /// the reply, filled directly from the socket.
    pub fn read_region(&mut self, region: &RegionSpec) -> Result<ArrayData> {
        match self.call(|out| put_region_request(out, OP_READ_REGION, region))? {
            Reply::Data(d) => Ok(d),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads a region into an array the caller already owns — the
    /// allocation-free form of [`DaemonClient::read_region`], mirroring
    /// `ArrayReader::read_region_into`.
    ///
    /// `out` must be shaped like `region.extent` (checked before
    /// anything is sent; the connection is untouched) and hold the
    /// served dtype (known only from the reply: a mismatch is
    /// `DtypeMismatch`, raised before any sample is written, and — as
    /// the samples are then left unread — closes the connection).
    pub fn read_region_into<T: Element>(
        &mut self,
        region: &RegionSpec,
        out: &mut NdArray<T>,
    ) -> Result<()> {
        let shape = out.shape();
        if !region.extent.iter().copied().eq(shape.dims().iter().map(|&d| d as u64)) {
            return Err(CodecError::Corrupt { context: "read_region_into buffer shape" }.into());
        }
        self.exchange(
            |request| put_region_request(request, OP_READ_REGION, region),
            |mut frame, staging| {
                let op = frame.u8("opcode")?;
                if op != OP_DATA {
                    // A typed error (`Remote`), or a reply this request
                    // cannot be answered with.
                    let other = typed(Reply::decode_body(op, &mut frame)?)?;
                    return Err(unexpected(&other));
                }
                let header = DataHeader::parse(&mut frame)?;
                check_dtype::<T>(header.dtype)?;
                // Same dims and dtype: `nbytes` is exactly `out`'s size.
                if header.dims() != region.extent {
                    return Err(DaemonError::Decode("data dims for this request"));
                }
                staging.resize(STAGING_BYTES, 0);
                for block in out.as_mut_slice().chunks_mut(STAGING_BYTES / T::BYTES) {
                    let wire = &mut staging[..block.len() * T::BYTES];
                    frame.fill(wire, "data bytes")?;
                    T::read_le_slice(wire, block);
                }
                frame.finish("reply trailing bytes")
            },
        )
    }

    /// Reads one whole chunk by raster index.
    pub fn read_chunk(&mut self, index: u64) -> Result<ArrayData> {
        match self.call(|out| Request::ReadChunk { index }.encode_into(out))? {
            Reply::Data(d) => Ok(d),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to warm its cache for `region`.
    pub fn prefetch(&mut self, region: &RegionSpec) -> Result<()> {
        match self.call(|out| put_region_request(out, OP_PREFETCH, region))? {
            Reply::Ack => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads several regions in one request/reply exchange; results
    /// come back in request order. The whole reply must fit one frame
    /// ([`MAX_REPLY_FRAME`]); the server refuses a batch that would not
    /// with a typed `BadRequest` before assembling any of it.
    pub fn batch(&mut self, regions: &[RegionSpec]) -> Result<Vec<ArrayData>> {
        match self.call(|out| put_batch_request(out, regions))? {
            Reply::Batch(items) => Ok(items),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server reader's cumulative statistics.
    pub fn stats(&mut self) -> Result<ReaderStats> {
        match self.call(|out| Request::Stats.encode_into(out))? {
            Reply::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the Prometheus text exposition — the `/metrics`
    /// equivalent frame.
    pub fn metrics(&mut self) -> Result<String> {
        match self.call(|out| Request::Metrics.encode_into(out))? {
            Reply::Text(t) => Ok(t),
            other => Err(unexpected(&other)),
        }
    }

    /// Test-only: occupies one of the server's execution slots for
    /// `millis` (requires the daemon's `test_ops` flag).
    pub fn test_delay(&mut self, millis: u32) -> Result<()> {
        match self.call(|out| Request::TestDelay { millis }.encode_into(out))? {
            Reply::Ack => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// [`DaemonClient::exchange`] reading the whole reply frame as a
    /// [`Reply`].
    fn call(&mut self, encode: impl FnOnce(&mut FrameBuf)) -> Result<Reply> {
        self.exchange(encode, |frame, _| typed(frame.reply()?))
    }

    /// One request/reply exchange: `encode` appends the request payload
    /// to the reused frame buffer, which leaves (length prefix and all)
    /// in one `write_all`; `read` then consumes the reply frame off the
    /// socket (it also gets the staging block).
    ///
    /// A typed `Error` reply becomes [`DaemonError::Remote`] and the
    /// connection stays usable. After any other failure the stream may
    /// sit anywhere inside a frame — the next bytes would be parsed as a
    /// length prefix — so the socket is shut down and this client
    /// answers [`DaemonError::ConnectionClosed`] from then on.
    fn exchange<X>(
        &mut self,
        encode: impl FnOnce(&mut FrameBuf),
        read: impl FnOnce(ReplyFrame<'_>, &mut Vec<u8>) -> Result<X>,
    ) -> Result<X> {
        if self.closed {
            return Err(DaemonError::ConnectionClosed);
        }
        let result = self.try_exchange(encode, read);
        if !matches!(result, Ok(_) | Err(DaemonError::Remote { .. })) {
            self.closed = true;
            let _ = self.stream.get_ref().shutdown(Shutdown::Both);
        }
        result
    }

    fn try_exchange<X>(
        &mut self,
        encode: impl FnOnce(&mut FrameBuf),
        read: impl FnOnce(ReplyFrame<'_>, &mut Vec<u8>) -> Result<X>,
    ) -> Result<X> {
        self.request.begin_frame();
        encode(&mut self.request);
        self.stream.get_mut().write_all(self.request.finish_frame()?)?;
        read(FrameSource::open(&mut self.stream, MAX_REPLY_FRAME)?, &mut self.staging)
    }
}

/// A typed error reply is [`DaemonError::Remote`].
fn typed(reply: Reply) -> Result<Reply> {
    match reply {
        Reply::Error { code, message } => Err(DaemonError::Remote { code, message }),
        reply => Ok(reply),
    }
}

fn unexpected(reply: &Reply) -> DaemonError {
    // The server answered a different opcode than the request asked
    // for — a protocol violation, reported as a decode-class error.
    let _ = reply;
    DaemonError::Decode("reply opcode for this request")
}
