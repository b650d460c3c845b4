//! [`MeteredStorage`]: per-operation latency and byte telemetry over
//! any inner backend.
//!
//! Where [`SimulatedObjectStorage`](super::SimulatedObjectStorage)
//! charges a *model* (what the operation would cost on a cloud store),
//! this decorator measures *reality*: every [`Storage`] call is one
//! [`Phase`] — a per-op latency histogram sample plus a
//! `storage.<op>` span, so backend time shows up in the flight recorder
//! attributed to the request that caused it — and moved bytes land in
//! read/write size histograms. Metric names follow the workspace
//! scheme: `eblcio_storage_<op>_ns` for latencies,
//! `eblcio_storage_{read,write}_bytes` for sizes.

use super::{ByteRange, Storage};
use eblcio_codec::Result;
use eblcio_obs::{self as obs, Histogram, MetricsRegistry, Phase};
use std::sync::Arc;

/// The decorator. Wraps an inner backend and records per-op latency
/// and byte-size histograms into a [`MetricsRegistry`] — the process
/// global one by default ([`MeteredStorage::over`]), or any registry
/// the caller supplies ([`MeteredStorage::with_registry`]).
///
/// The telemetry cost per call is one `Instant` read pair plus one
/// relaxed atomic add per histogram touched; spans are only captured
/// when [`eblcio_obs::enabled`] says so. Every call is timed, failed
/// ones included; only successful ones are sized.
#[derive(Debug)]
pub struct MeteredStorage {
    inner: Arc<dyn Storage>,
    registry: Arc<MetricsRegistry>,
    get: Phase,
    get_range: Phase,
    set: Phase,
    append: Phase,
    write_at: Phase,
    exists: Phase,
    size: Phase,
    erase: Phase,
    list: Phase,
    read_bytes: Arc<Histogram>,
    write_bytes: Arc<Histogram>,
}

impl MeteredStorage {
    /// Wraps `inner`, recording into the process-global registry.
    pub fn over(inner: Arc<dyn Storage>) -> Self {
        Self::with_registry(inner, obs::global().clone())
    }

    /// Wraps `inner`, recording into `registry`.
    pub fn with_registry(inner: Arc<dyn Storage>, registry: Arc<MetricsRegistry>) -> Self {
        let r = registry.as_ref();
        let op = |op: &str| {
            Phase::spanned(r.histogram(&format!("eblcio_storage_{op}_ns")), &format!("storage.{op}"))
        };
        Self {
            get: op("get"),
            get_range: op("get_range"),
            set: op("set"),
            append: op("append"),
            write_at: op("write_at"),
            exists: op("exists"),
            size: op("size"),
            erase: op("erase"),
            list: op("list"),
            read_bytes: r.histogram("eblcio_storage_read_bytes"),
            write_bytes: r.histogram("eblcio_storage_write_bytes"),
            inner,
            registry,
        }
    }

    /// The backend actually serving the operations.
    pub fn inner(&self) -> &Arc<dyn Storage> {
        &self.inner
    }

    /// The registry the histograms live in.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}

/// Runs one backend call as one call of `phase`.
fn timed<R>(phase: &Phase, call: impl FnOnce() -> R) -> R {
    let t = phase.start();
    let out = call();
    t.finish();
    out
}

impl Storage for MeteredStorage {
    fn kind(&self) -> &'static str {
        "metered"
    }

    fn get(&self, key: &str) -> Result<Arc<[u8]>> {
        let out = timed(&self.get, || self.inner.get(key));
        if let Ok(obj) = &out {
            self.read_bytes.record(obj.len() as u64);
        }
        out
    }

    fn get_range(&self, key: &str, range: ByteRange) -> Result<Vec<u8>> {
        let out = timed(&self.get_range, || self.inner.get_range(key, range));
        if let Ok(bytes) = &out {
            self.read_bytes.record(bytes.len() as u64);
        }
        out
    }

    fn set(&self, key: &str, bytes: &[u8]) -> Result<()> {
        let out = timed(&self.set, || self.inner.set(key, bytes));
        if out.is_ok() {
            self.write_bytes.record(bytes.len() as u64);
        }
        out
    }

    fn append(&self, key: &str, bytes: &[u8]) -> Result<u64> {
        let out = timed(&self.append, || self.inner.append(key, bytes));
        if out.is_ok() {
            self.write_bytes.record(bytes.len() as u64);
        }
        out
    }

    fn write_at(&self, key: &str, offset: u64, bytes: &[u8]) -> Result<()> {
        let out = timed(&self.write_at, || self.inner.write_at(key, offset, bytes));
        if out.is_ok() {
            self.write_bytes.record(bytes.len() as u64);
        }
        out
    }

    fn exists(&self, key: &str) -> Result<bool> {
        timed(&self.exists, || self.inner.exists(key))
    }

    fn size(&self, key: &str) -> Result<u64> {
        timed(&self.size, || self.inner.size(key))
    }

    fn erase(&self, key: &str) -> Result<()> {
        timed(&self.erase, || self.inner.erase(key))
    }

    fn list(&self) -> Result<Vec<String>> {
        timed(&self.list, || self.inner.list())
    }
}

#[cfg(test)]
mod tests {
    use super::super::MemoryStorage;
    use super::*;

    fn metered() -> MeteredStorage {
        MeteredStorage::with_registry(
            Arc::new(MemoryStorage::new()),
            Arc::new(MetricsRegistry::default()),
        )
    }

    #[test]
    fn records_latency_and_bytes_per_op() {
        let store = metered();
        store.set("k", &[7u8; 128]).unwrap();
        let obj = store.get("k").unwrap();
        assert_eq!(obj.len(), 128);
        store
            .get_range("k", ByteRange::Bounded { offset: 0, len: 32 })
            .unwrap();
        assert_eq!(store.append("k", &[1u8; 16]).unwrap(), 144);

        let r = store.registry();
        assert_eq!(r.histogram("eblcio_storage_set_ns").count(), 1);
        assert_eq!(r.histogram("eblcio_storage_get_ns").count(), 1);
        assert_eq!(r.histogram("eblcio_storage_get_range_ns").count(), 1);
        assert_eq!(r.histogram("eblcio_storage_append_ns").count(), 1);
        // read = 128 (get) + 32 (ranged), write = 128 (set) + 16 (append).
        let reads = r.histogram("eblcio_storage_read_bytes").snapshot();
        assert_eq!((reads.count, reads.sum), (2, 160));
        let writes = r.histogram("eblcio_storage_write_bytes").snapshot();
        assert_eq!((writes.count, writes.sum), (2, 144));
    }

    #[test]
    fn failed_reads_are_timed_but_not_sized() {
        let store = metered();
        assert!(store.get("missing").is_err());
        let r = store.registry();
        assert_eq!(r.histogram("eblcio_storage_get_ns").count(), 1);
        assert_eq!(r.histogram("eblcio_storage_read_bytes").count(), 0);
    }

    #[test]
    fn delegates_semantics_unchanged() {
        let store = metered();
        store.set("a/b", &[1, 2, 3]).unwrap();
        assert!(store.exists("a/b").unwrap());
        assert_eq!(store.size("a/b").unwrap(), 3);
        assert_eq!(store.list().unwrap(), vec!["a/b".to_string()]);
        store.erase("a/b").unwrap();
        assert!(!store.exists("a/b").unwrap());
        assert_eq!(store.kind(), "metered");
        assert_eq!(store.inner().kind(), "memory");
    }
}
