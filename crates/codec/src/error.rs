//! Codec error types.

/// Errors surfaced by compression, decompression, and stream parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the decoder expected.
    TruncatedStream {
        /// What the decoder was reading when the stream ran out.
        context: &'static str,
    },
    /// The stream does not start with the `EBLC` container magic.
    BadMagic,
    /// The container was produced by an incompatible format version.
    UnsupportedVersion(u8),
    /// The codec id byte does not name a known compressor.
    UnknownCodec(u8),
    /// A chain description (or a chunk→chain assignment built on one)
    /// is invalid as an *argument* — nothing was parsed from a stream.
    InvalidChain {
        /// Explanation of the rejection.
        reason: &'static str,
    },
    /// The stream was produced by a different codec chain than the one
    /// asked to decode it.
    ChainMismatch {
        /// Chain label of the decoder.
        expected: String,
        /// Chain label recorded in the stream header.
        got: String,
    },
    /// The stream's element type does not match the requested type.
    DtypeMismatch {
        /// Dtype recorded in the stream header.
        expected: &'static str,
        /// Dtype the caller asked to decode into.
        got: &'static str,
    },
    /// The stream checksum does not match its payload (corruption).
    ChecksumMismatch,
    /// A structurally invalid field (impossible shape, huffman table…).
    Corrupt {
        /// Which structure failed validation.
        context: &'static str,
    },
    /// A sub-region decode request reaches outside the array bounds or
    /// does not match its rank.
    BadRegion {
        /// Which constraint the region violated.
        context: &'static str,
    },
    /// The requested error bound cannot be honoured.
    InvalidBound {
        /// Explanation of the rejection.
        reason: &'static str,
    },
    /// The input contains NaN/Inf samples, which EBLC bounds cannot cover.
    NonFiniteInput,
    /// A storage backend has no object under the requested key.
    NoSuchKey {
        /// The key that resolved to nothing.
        key: String,
    },
    /// A byte-range request reaches outside the stored object.
    StorageRange {
        /// Which access failed validation.
        context: &'static str,
    },
    /// A storage backend operation failed (I/O error, injected fault…).
    StorageIo {
        /// The operation that failed (`get`, `append`, …).
        op: &'static str,
        /// Backend-specific description of the failure.
        detail: String,
    },
    /// A thread pool wider than [`parallel::pool_for`] builds was asked
    /// for.
    ///
    /// [`parallel::pool_for`]: crate::parallel::pool_for
    TooManyThreads {
        /// The width asked for.
        threads: usize,
        /// The widest pool built.
        max: usize,
    },
    /// A helper thread of a [`parallel::pool_for`] pool could not be
    /// started (the process or the machine is out of threads or
    /// memory): a resource failure, not bad input.
    ///
    /// [`parallel::pool_for`]: crate::parallel::pool_for
    ThreadStart {
        /// The width asked for (0 = the machine's parallelism).
        threads: usize,
    },
    /// An internal invariant did not hold — a bug in this workspace,
    /// not bad input data. Surfaced as a typed error instead of a
    /// panic so one broken request cannot take down a serve daemon
    /// (the panic-freedom architecture rule).
    Internal {
        /// The invariant that failed.
        context: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::TruncatedStream { context } => {
                write!(f, "truncated stream while reading {context}")
            }
            CodecError::BadMagic => write!(f, "not an EBLC stream (bad magic)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported stream version {v}"),
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            CodecError::InvalidChain { reason } => write!(f, "invalid codec chain: {reason}"),
            CodecError::ChainMismatch { expected, got } => {
                write!(f, "stream was written by chain {got} but {expected} was asked to decode it")
            }
            CodecError::DtypeMismatch { expected, got } => {
                write!(f, "stream holds {expected} but {got} was requested")
            }
            CodecError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            CodecError::Corrupt { context } => write!(f, "corrupt stream: invalid {context}"),
            CodecError::BadRegion { context } => {
                write!(f, "invalid decode region: {context}")
            }
            CodecError::InvalidBound { reason } => write!(f, "invalid error bound: {reason}"),
            CodecError::NonFiniteInput => write!(f, "input contains NaN or infinite samples"),
            CodecError::NoSuchKey { key } => write!(f, "no object stored under key '{key}'"),
            CodecError::StorageRange { context } => {
                write!(f, "byte range outside the stored object: {context}")
            }
            CodecError::StorageIo { op, detail } => {
                write!(f, "storage backend {op} failed: {detail}")
            }
            CodecError::TooManyThreads { threads, max } => {
                write!(f, "{threads} threads asked for; a thread pool holds at most {max}")
            }
            CodecError::ThreadStart { threads } => {
                write!(f, "a thread of a {threads}-thread pool could not start")
            }
            CodecError::Internal { context } => {
                write!(f, "internal invariant failed ({context}) — this is a bug")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Codec result alias.
pub type Result<T> = std::result::Result<T, CodecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CodecError::TruncatedStream { context: "huffman table" };
        assert!(e.to_string().contains("huffman table"));
        let e = CodecError::DtypeMismatch { expected: "f32", got: "f64" };
        assert!(e.to_string().contains("f32") && e.to_string().contains("f64"));
    }

    #[test]
    fn a_thread_that_did_not_start_is_not_reported_as_a_damaged_stream() {
        let shown = CodecError::ThreadStart { threads: 12 }.to_string();
        assert_eq!(shown, "a thread of a 12-thread pool could not start");
        assert!(!shown.contains("corrupt"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CodecError::BadMagic);
    }
}
