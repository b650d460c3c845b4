//! # eblcio-pfs
//!
//! The storage substrate of the reproduction: a Lustre-like parallel
//! file system model plus real, self-describing HDF5-lite / NetCDF-lite
//! container formats.
//!
//! The paper writes compressed and uncompressed data through HDF5 and
//! NetCDF to a Lustre PFS and measures the CPU-side energy of the write
//! phase (§IV-D). Here:
//!
//! * [`ost`] — object storage targets,
//! * [`sim`] — the bandwidth/latency/contention model that turns an I/O
//!   request into seconds and joules (the 256→512-writer contention knee
//!   of Fig. 12 lives here),
//! * [`format`](mod@format) — byte-accurate `hdf5lite`/`netcdflite`
//!   serializers with the per-tool efficiency profiles that reproduce
//!   the paper's HDF5 < NetCDF energy ordering (§VI-A),
//! * [`tool`] — the [`tool::IoToolKind`] selector the benefit framework
//!   (§III's `I = {I₁ … I_q}`) programs against.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod format;
pub mod ost;
pub mod sim;
pub mod tool;

pub use ost::Ost;
pub use sim::{IoMeasurement, IoRequest, PfsSim};
pub use tool::{IoToolKind, WrittenObject};
