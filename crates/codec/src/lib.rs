//! # eblcio-codec
//!
//! From-scratch Rust implementations of the five error-bounded lossy
//! compressors (EBLC) the paper characterizes — SZ2, SZ3, ZFP, QoZ, SZx —
//! plus the four lossless baselines of its Figure 1, and the shared
//! machinery they are built from:
//!
//! * [`bitstream`] — MSB-first bit-level I/O,
//! * [`huffman`] — canonical Huffman coding of quantization codes,
//! * [`lz`] — an LZ77+Huffman lossless backend (the "Zstd stage" of
//!   SZ-family pipelines),
//! * [`quantizer`] — error-controlled linear quantization,
//! * [`predict`] — Lorenzo and block linear-regression predictors (SZ2),
//! * [`interp`] — multi-level spline interpolation predictors (SZ3/QoZ),
//! * [`transform`] — the ZFP block decorrelating transform + embedded
//!   bitplane coder,
//! * [`codecs`] — the five EBLC pipelines as chain array stages,
//! * [`stage`] / [`chain`] — the composable codec-chain architecture:
//!   array stages + byte stages and serializable [`ChainSpec`]s that
//!   build them (the five paper codecs are the preset chains, behind one
//!   [`Compressor`] trait),
//! * [`framing`] — shared container framing (shape/dtype/bound fields,
//!   CRC trailers) used by `EBLC` and the store's `EBCS`,
//! * [`lossless`] — the shuffle, fpzip and FPC byte stages that, with
//!   [`lz`], make up Figure 1's lossless baselines,
//! * [`parallel`] — the shared per-width rayon pools the chunked store
//!   runs on; the paper's "OpenMP mode" (Fig. 10) is such a store with
//!   one dimension-0 slab per thread.
//!
//! Every codec guarantees the paper's Eq. 1 value-range relative error
//! bound, enforced by construction and verified by property tests.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod bitstream;
pub mod chain;
pub mod codecs;
pub mod error;
pub mod estimate;
pub mod framing;
pub mod header;
pub mod huffman;
pub mod interp;
pub mod lossless;
pub mod lz;
pub mod parallel;
pub mod predict;
pub mod quantizer;
pub mod scratch;
pub mod stage;
pub mod traits;
pub mod transform;
pub mod util;

pub use chain::{ChainSpec, CodecChain};
pub use codecs::{qoz::Qoz, sz2::Sz2, sz3::Sz3, szx::Szx, zfp::Zfp};
pub use error::{CodecError, Result};
pub use header::check_dtype;
pub use scratch::{with_scratch, CodecScratch};
pub use stage::{ArrayStage, ByteStage, ByteStageSpec};
pub use traits::{
    compress, compress_dataset, compress_view, decompress, decompress_any, decompress_region,
    Compressor, CompressorId, ErrorBound,
};
