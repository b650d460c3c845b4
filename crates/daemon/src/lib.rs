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
//!
//! ```no_run
//! use eblcio_daemon::{AnyReader, Daemon, DaemonClient, DaemonConfig, RegionSpec};
//! use eblcio_serve::ReaderConfig;
//!
//! # fn main() -> eblcio_daemon::Result<()> {
//! # let stream: Vec<u8> = Vec::new();
//! let reader = AnyReader::open(&stream, ReaderConfig::default())?;
//! let daemon = Daemon::start(reader, DaemonConfig::default(), "127.0.0.1:0")?;
//!
//! let mut client = DaemonClient::connect(daemon.local_addr())?;
//! let data = client.read_region(&RegionSpec::new(&[0, 0], &[16, 16]))?;
//! let samples = data.as_f32();
//! let exposition = client.metrics()?;
//! # let _ = (samples, exposition);
//! daemon.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod any;
pub mod client;
pub mod error;
pub mod protocol;
pub mod server;

pub use any::AnyReader;
pub use client::DaemonClient;
pub use error::{DaemonError, Result};
pub use protocol::{
    ArrayData, ErrorCode, RegionSpec, Reply, Request, MAX_BATCH, MAX_REPLY_FRAME,
    MAX_REQUEST_FRAME,
};
pub use server::{Daemon, DaemonConfig};
