//! `eblcio serve` — a network daemon exposing one error-bounded
//! compressed array over a length-prefixed binary protocol.
//!
//! The serve layer ([`eblcio_serve`]) answers region reads in-process;
//! this crate puts a socket in front of it so many clients — other
//! hosts, other languages, the load generator — can share one warm
//! decoded-chunk cache. The design goals, in order:
//!
//! 1. **Never hang, never panic.** Every malformed frame is a typed
//!    error reply or a clean close; a request either runs, parks
//!    behind a bounded number of others, or is refused on the spot
//!    (the admission gate in [`server`]), so a saturated daemon answers
//!    `Overloaded` instead of wedging clients.
//! 2. **Bounded everything.** Frame lengths, batch counts, wire ranks,
//!    requests executing and parked, and the connection table all have
//!    caps that are checked before allocation.
//! 3. **One metrics surface.** The daemon registers its own counters
//!    in the reader's [`eblcio_obs`] registry, so the protocol's
//!    `Metrics` frame returns a single Prometheus exposition covering
//!    both layers — the `/metrics` equivalent without HTTP.
//! 4. **No copy that is not the wire's.** A reply is assembled once, in
//!    wire order, in the connection thread's frame buffer — the region
//!    engine writes little-endian samples straight behind the header —
//!    and leaves in one `write_all`; the client validates the header off
//!    the socket and reads the samples directly into the value (or the
//!    caller's array) it returns. [`server`] and [`protocol`] tell the
//!    life of a reply in full; [`DaemonClient`] documents what a failed
//!    exchange does to the connection.
//!
//! ```no_run
//! use eblcio_daemon::{AnyReader, Daemon, DaemonClient, DaemonConfig, RegionSpec};
//! use eblcio_data::{NdArray, Shape};
//! use eblcio_serve::ReaderConfig;
//!
//! # fn main() -> eblcio_daemon::Result<()> {
//! # let stream: Vec<u8> = Vec::new();
//! let reader = AnyReader::open(&stream, ReaderConfig::default())?;
//! let daemon = Daemon::start(reader, DaemonConfig::default(), "127.0.0.1:0")?;
//!
//! let mut client = DaemonClient::connect(daemon.local_addr())?;
//! let region = RegionSpec::new(&[0, 0], &[16, 16]);
//! let data = client.read_region(&region)?;
//! let samples = data.as_f32();
//! // Or straight into an array the caller owns (no allocation):
//! let mut tile = NdArray::<f32>::zeros(Shape::d2(16, 16));
//! client.read_region_into(&region, &mut tile)?;
//! let exposition = client.metrics()?;
//! # let _ = (samples, exposition);
//! daemon.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod any;
pub mod client;
pub mod error;
pub mod protocol;
pub mod server;

pub use any::AnyReader;
pub use client::DaemonClient;
pub use error::{DaemonError, Result};
pub use protocol::{
    read_reply, ArrayData, ErrorCode, RegionSpec, Reply, Request, MAX_BATCH, MAX_REPLY_FRAME,
    MAX_REQUEST_FRAME,
};
pub use server::{Daemon, DaemonConfig};
