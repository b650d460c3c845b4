//! Pluggable [`Storage`] backends: the byte-range object layer every
//! container in this crate reads from and writes to.
//!
//! Historically each container was hardwired to its transport — a file
//! path or an in-memory buffer. This module inverts that: a store is
//! *keys and byte ranges* on an abstract [`Storage`], and the transport
//! is chosen at open time (the `zarrs_storage` crate split is the
//! direct inspiration). Three backends ship here:
//!
//! * [`MemoryStorage`] — objects in a mutex-guarded map; the zero-cost
//!   backend for tests, staging, and hot tiers,
//! * [`FilesystemStorage`] — one file per key under a root directory,
//!   with atomic whole-object replacement (temp file + rename),
//! * [`SimulatedObjectStorage`] — a decorator that charges every
//!   operation to an object-store cost model (request latency, ranged
//!   GETs, read-modify-write PUTs, per-request and per-byte prices)
//!   derived from the [`PfsSim`](eblcio_pfs::PfsSim) network model,
//!
//! plus two more decorators: [`FaultyStorage`], a fault-injection
//! wrapper that cuts writes at configurable byte budgets and fails
//! reads on demand, so the crash-consistency suites can prove the
//! mutable-store publish protocol holds on *any* backend; and
//! [`MeteredStorage`], which times every operation into per-op latency
//! and byte histograms (`eblcio_storage_*`) in an
//! [`eblcio_obs::MetricsRegistry`].
//!
//! ## The contract
//!
//! Every backend must honour the same semantics — the conformance
//! harness (`tests/storage_conformance.rs`) instantiates one generic
//! suite against all of them:
//!
//! * **`set` is atomic.** After a successful `set` the object is
//!   exactly the given bytes; a failed `set` may leave a torn object
//!   only when the backend documents it (injected faults).
//! * **`append` is ordered.** Appends to one key from one thread land
//!   in call order; `append` creates missing keys and returns the new
//!   object size.
//! * **`write_at` patches in place** and must lie entirely within the
//!   current object — growing an object is `append`'s job. This is the
//!   ninth operation beyond the classic object-store eight; the
//!   mutable-store root-slot flip needs a positional overwrite.
//! * **Range reads are strict.** [`ByteRange::resolve`] rejects any
//!   range reaching outside the object with a typed
//!   [`CodecError::StorageRange`] — callers never receive silently
//!   clamped bytes.
//! * **`erase` is idempotent** (erasing a missing key is `Ok`), `list`
//!   returns keys in sorted order, and missing keys surface as
//!   [`CodecError::NoSuchKey`] from `get`/`get_range`/`size`/`write_at`.
//! * **Reads are concurrent.** Any number of threads may call read
//!   operations while another thread writes *different* keys.

mod faulty;
mod filesystem;
mod memory;
mod metered;
mod object_sim;

pub use faulty::{FaultPlan, FaultyStorage};
pub use filesystem::FilesystemStorage;
pub use memory::MemoryStorage;
pub use metered::MeteredStorage;
pub use object_sim::{ObjectCostModel, ObjectStoreStats, SimulatedObjectStorage};

use eblcio_codec::{CodecError, Result};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// A byte range of one stored object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByteRange {
    /// The whole object.
    Full,
    /// Everything from `offset` (inclusive) to the end.
    From(u64),
    /// Exactly `len` bytes starting at `offset`.
    Bounded {
        /// First byte of the range.
        offset: u64,
        /// Number of bytes.
        len: u64,
    },
    /// The last `len` bytes of the object.
    Suffix(u64),
}

impl ByteRange {
    /// Resolves the range against an object of `size` bytes, rejecting
    /// anything that reaches outside it.
    pub fn resolve(self, size: u64) -> Result<Range<usize>> {
        let (start, end) = match self {
            ByteRange::Full => (0, size),
            ByteRange::From(offset) => {
                if offset > size {
                    return Err(CodecError::StorageRange { context: "range start" });
                }
                (offset, size)
            }
            ByteRange::Bounded { offset, len } => {
                let end = offset
                    .checked_add(len)
                    .ok_or(CodecError::StorageRange { context: "range length" })?;
                if end > size {
                    return Err(CodecError::StorageRange { context: "range end" });
                }
                (offset, end)
            }
            ByteRange::Suffix(len) => {
                if len > size {
                    return Err(CodecError::StorageRange { context: "range suffix" });
                }
                (size - len, size)
            }
        };
        Ok(start as usize..end as usize)
    }
}

/// A readable, writable, listable key→bytes object store.
///
/// Implementations use interior mutability (`&self` everywhere) so one
/// `Arc<dyn Storage>` can be shared across reader and writer threads;
/// see the [module docs](self) for the semantic contract each method
/// must honour.
pub trait Storage: Send + Sync + std::fmt::Debug {
    /// A short human-readable backend name (`"memory"`, `"fs"`, …) for
    /// reports and error messages.
    fn kind(&self) -> &'static str;

    /// Reads the whole object under `key` into a shared allocation.
    fn get(&self, key: &str) -> Result<Arc<[u8]>> {
        Ok(Arc::from(self.get_range(key, ByteRange::Full)?))
    }

    /// Reads one byte range of the object under `key`.
    fn get_range(&self, key: &str, range: ByteRange) -> Result<Vec<u8>>;

    /// Atomically replaces (or creates) the object under `key`.
    fn set(&self, key: &str, bytes: &[u8]) -> Result<()>;

    /// Appends `bytes` to the object under `key` (creating it when
    /// missing) and returns the object's new size.
    fn append(&self, key: &str, bytes: &[u8]) -> Result<u64>;

    /// Overwrites `bytes.len()` bytes at `offset` of the existing
    /// object under `key`. The write must lie entirely within the
    /// object's current size.
    fn write_at(&self, key: &str, offset: u64, bytes: &[u8]) -> Result<()>;

    /// Whether an object exists under `key`.
    fn exists(&self, key: &str) -> Result<bool> {
        match self.size(key) {
            Ok(_) => Ok(true),
            Err(CodecError::NoSuchKey { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Size in bytes of the object under `key`.
    fn size(&self, key: &str) -> Result<u64>;

    /// Removes the object under `key`; removing a missing key is `Ok`.
    fn erase(&self, key: &str) -> Result<()>;

    /// All keys currently stored, in sorted order.
    fn list(&self) -> Result<Vec<String>>;
}

/// Validates a storage key: non-empty, `/`-separated components with no
/// empty, `.`, or `..` parts (so filesystem backends can never be
/// walked out of their root), no NUL bytes.
pub fn validate_key(key: &str) -> Result<()> {
    let ok = !key.is_empty()
        && !key.contains('\0')
        && key
            .split('/')
            .all(|part| !part.is_empty() && part != "." && part != "..");
    if ok {
        Ok(())
    } else {
        Err(CodecError::StorageIo {
            op: "key",
            detail: format!("invalid storage key '{key}'"),
        })
    }
}

/// A backend [`named_backend`] built: the storage to read and write
/// through, plus the simulator's typed handle when the name was one of
/// the simulated object stores.
#[derive(Clone, Debug)]
pub struct NamedBackend {
    /// Where objects are read and written.
    pub storage: Arc<dyn Storage>,
    /// The simulator inside `storage`, whose
    /// [`SimulatedObjectStorage::stats`] is the bill.
    pub sim: Option<Arc<SimulatedObjectStorage>>,
}

impl NamedBackend {
    /// The backend actually holding the bytes, below any simulator:
    /// what is done through it is never billed.
    pub fn unbilled(&self) -> &Arc<dyn Storage> {
        self.sim.as_ref().map_or(&self.storage, |sim| sim.inner())
    }
}

/// Builds a backend by name — the one vocabulary of the CLI
/// `--backend` flag and the CI backend matrix:
///
/// * `"fs"` — [`FilesystemStorage`] rooted at `root`,
/// * `"memory"` (or `"mem"`) — a fresh [`MemoryStorage`],
/// * `"object"` — [`SimulatedObjectStorage`] with the default
///   PfsSim-derived cost model over a fresh memory backend,
/// * `"object-fs"` — the same cost model over a filesystem backend at
///   `root` (real files, simulated bill).
pub fn named_backend(name: &str, root: &Path) -> Result<NamedBackend> {
    let simulated = |inner: Arc<dyn Storage>| {
        let sim = Arc::new(SimulatedObjectStorage::over(inner, ObjectCostModel::default()));
        NamedBackend { storage: sim.clone(), sim: Some(sim) }
    };
    let plain = |storage: Arc<dyn Storage>| NamedBackend { storage, sim: None };
    match name {
        "fs" => Ok(plain(Arc::new(FilesystemStorage::create(root)?))),
        "memory" | "mem" => Ok(plain(Arc::new(MemoryStorage::new()))),
        "object" => Ok(simulated(Arc::new(MemoryStorage::new()))),
        "object-fs" => Ok(simulated(Arc::new(FilesystemStorage::create(root)?))),
        other => Err(CodecError::StorageIo {
            op: "open",
            detail: format!("unknown backend '{other}' (expected fs|memory|object|object-fs)"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_range_resolution() {
        assert_eq!(ByteRange::Full.resolve(10).unwrap(), 0..10);
        assert_eq!(ByteRange::From(4).resolve(10).unwrap(), 4..10);
        assert_eq!(ByteRange::From(10).resolve(10).unwrap(), 10..10);
        assert_eq!(
            ByteRange::Bounded { offset: 2, len: 5 }.resolve(10).unwrap(),
            2..7
        );
        assert_eq!(ByteRange::Suffix(3).resolve(10).unwrap(), 7..10);
        assert_eq!(ByteRange::Suffix(0).resolve(0).unwrap(), 0..0);
        assert!(ByteRange::From(11).resolve(10).is_err());
        assert!(ByteRange::Bounded { offset: 6, len: 5 }.resolve(10).is_err());
        assert!(ByteRange::Bounded { offset: u64::MAX, len: 2 }.resolve(10).is_err());
        assert!(ByteRange::Suffix(11).resolve(10).is_err());
    }

    #[test]
    fn key_validation() {
        for good in ["a", "a/b", "store.ebms", "deep/nested/key.bin"] {
            assert!(validate_key(good).is_ok(), "{good}");
        }
        for bad in ["", "/a", "a/", "a//b", "..", "a/../b", ".", "a\0b"] {
            assert!(validate_key(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn named_backend_resolution() {
        let dir = std::env::temp_dir().join(format!("eblcio-nb-{}", std::process::id()));
        for (name, kind, holder, billed) in [
            ("memory", "memory", "memory", false),
            ("mem", "memory", "memory", false),
            ("object", "object-sim", "memory", true),
            ("fs", "fs", "fs", false),
            ("object-fs", "object-sim", "fs", true),
        ] {
            let backend = named_backend(name, &dir).unwrap();
            assert_eq!(backend.storage.kind(), kind, "{name}");
            assert_eq!(backend.unbilled().kind(), holder, "{name}");
            assert_eq!(backend.sim.is_some(), billed, "{name}");
        }
        // The simulator handle is the one inside `storage`: what goes
        // through `storage` is billed, what goes below it is not.
        let object = named_backend("object", &dir).unwrap();
        object.unbilled().set("k", b"seed").unwrap();
        object.storage.get("k").unwrap();
        let bill = object.sim.as_ref().unwrap().stats();
        assert_eq!((bill.put_requests, bill.get_requests, bill.bytes_downloaded), (0, 1, 4));
        assert!(named_backend("tape", &dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
