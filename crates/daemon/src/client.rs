//! Blocking client for the serve protocol: one socket, one in-flight
//! request, typed errors.
//!
//! The client deliberately mirrors the reader API (`read_region`,
//! `read_chunk`, `prefetch`, `stats`) so switching between in-process
//! and over-the-wire access is a one-line change for callers and for
//! the load generator.

use crate::error::{DaemonError, Result};
use crate::protocol::{
    read_frame, write_frame, ArrayData, FrameRead, RegionSpec, Reply, Request, MAX_REPLY_FRAME,
};
use eblcio_serve::ReaderStats;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connection to a running [`crate::server::Daemon`].
pub struct DaemonClient {
    stream: TcpStream,
}

impl DaemonClient {
    /// Connects to a daemon at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Request/reply framing sends small writes; leaving Nagle on
        // costs a delayed-ACK round trip (~40 ms) per exchange.
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Caps how long one exchange may stall before erroring out (the
    /// default is the OS's, i.e. effectively unbounded).
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Reads a region of the served array.
    pub fn read_region(&mut self, region: &RegionSpec) -> Result<ArrayData> {
        match self.call(&Request::ReadRegion(region.clone()))? {
            Reply::Data(d) => Ok(d),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads one whole chunk by raster index.
    pub fn read_chunk(&mut self, index: u64) -> Result<ArrayData> {
        match self.call(&Request::ReadChunk { index })? {
            Reply::Data(d) => Ok(d),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to warm its cache for `region`.
    pub fn prefetch(&mut self, region: &RegionSpec) -> Result<()> {
        match self.call(&Request::Prefetch(region.clone()))? {
            Reply::Ack => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads several regions in one request/reply exchange; results
    /// come back in request order.
    pub fn batch(&mut self, regions: &[RegionSpec]) -> Result<Vec<ArrayData>> {
        match self.call(&Request::Batch(regions.to_vec()))? {
            Reply::Batch(items) => Ok(items),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server reader's cumulative statistics.
    pub fn stats(&mut self) -> Result<ReaderStats> {
        match self.call(&Request::Stats)? {
            Reply::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the Prometheus text exposition — the `/metrics`
    /// equivalent frame.
    pub fn metrics(&mut self) -> Result<String> {
        match self.call(&Request::Metrics)? {
            Reply::Text(t) => Ok(t),
            other => Err(unexpected(&other)),
        }
    }

    /// Test-only: occupies one of the server's execution slots for
    /// `millis` (requires the daemon's `test_ops` flag).
    pub fn test_delay(&mut self, millis: u32) -> Result<()> {
        match self.call(&Request::TestDelay { millis })? {
            Reply::Ack => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// One request/reply exchange. A typed `Error` reply becomes
    /// [`DaemonError::Remote`]; the connection stays usable afterwards
    /// unless the server closed it.
    fn call(&mut self, request: &Request) -> Result<Reply> {
        write_frame(&mut self.stream, &request.encode())?;
        let payload = match read_frame(&mut self.stream, MAX_REPLY_FRAME, || true)? {
            FrameRead::Frame(p) => p,
            FrameRead::Closed => return Err(DaemonError::ConnectionClosed),
            FrameRead::TooLarge(declared) => {
                return Err(DaemonError::FrameTooLarge {
                    declared,
                    max: MAX_REPLY_FRAME as u64,
                })
            }
        };
        match Reply::decode(&payload)? {
            Reply::Error { code, message } => Err(DaemonError::Remote { code, message }),
            reply => Ok(reply),
        }
    }
}

fn unexpected(reply: &Reply) -> DaemonError {
    // The server answered a different opcode than the request asked
    // for — a protocol violation, reported as a decode-class error.
    let _ = reply;
    DaemonError::Decode("reply opcode for this request")
}
