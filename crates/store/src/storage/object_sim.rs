//! [`SimulatedObjectStorage`]: an object-store cost model over any
//! inner backend.
//!
//! Cloud object stores differ from a parallel file system in three ways
//! that matter to a compressed-store layout: every operation is a
//! *request* with a fixed round-trip latency, ranged GETs are the only
//! partial read (there are no partial writes at all — mutating one byte
//! means re-uploading the whole object), and the bill counts requests
//! and bytes, not seconds. This decorator charges each [`Storage`]
//! operation to exactly that model while delegating the actual bytes to
//! an inner backend, so the same store layout can be costed against
//! "S3-like" pricing without any network.

use super::{ByteRange, MemoryStorage, Storage};
use eblcio_codec::Result;
use eblcio_obs::{Counter, Gauge, MetricsRegistry};
use eblcio_pfs::PfsSim;
use parking_lot::Mutex;
use std::sync::Arc;

/// Gibibyte, the unit object-store prices are quoted in.
const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Price and latency model of a simulated object store.
#[derive(Clone, Copy, Debug)]
pub struct ObjectCostModel {
    /// Fixed round-trip latency charged per request (seconds). Object
    /// stores sit behind an HTTP front end, so this is orders of
    /// magnitude above a PFS OST's block latency.
    pub request_latency_s: f64,
    /// Sustained single-stream transfer bandwidth (bytes/second).
    pub bandwidth_bps: f64,
    /// Price per request (GET/PUT/HEAD/DELETE/LIST alike), USD.
    pub cost_per_request_usd: f64,
    /// Price per GiB transferred (either direction), USD.
    pub cost_per_gib_usd: f64,
}

impl ObjectCostModel {
    /// Derives a model from a [`PfsSim`]: single-writer effective
    /// bandwidth as the transfer rate, and mean OST latency scaled by
    /// [`Self::HTTP_LATENCY_FACTOR`] as the per-request round trip, with
    /// S3-standard-like prices: $0.4/M requests, $0.09/GiB egress.
    pub fn from_pfs(pfs: &PfsSim) -> Self {
        Self {
            request_latency_s: pfs.mean_latency() * Self::HTTP_LATENCY_FACTOR,
            bandwidth_bps: pfs.effective_bandwidth(1).max(1.0),
            cost_per_request_usd: 0.4e-6,
            cost_per_gib_usd: 0.09,
        }
    }

    /// Ratio of an object-store HTTP round trip to a PFS OST block
    /// round trip (~0.5 ms block latency becomes ~20 ms per request).
    pub const HTTP_LATENCY_FACTOR: f64 = 40.0;

    /// Simulated wall-clock seconds for one request moving `bytes`.
    pub fn request_seconds(&self, bytes: u64) -> f64 {
        self.request_latency_s + bytes as f64 / self.bandwidth_bps.max(1.0)
    }

    /// Simulated dollars for one request moving `bytes`.
    pub fn request_cost(&self, bytes: u64) -> f64 {
        self.cost_per_request_usd + bytes as f64 / GIB * self.cost_per_gib_usd
    }
}

impl Default for ObjectCostModel {
    /// The testbed network ([`PfsSim::testbed`]).
    fn default() -> Self {
        Self::from_pfs(&PfsSim::testbed())
    }
}

/// Running totals of everything the simulated store was asked to do.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ObjectStoreStats {
    /// GET/ranged-GET/HEAD requests (reads and existence probes).
    pub get_requests: u64,
    /// PUT requests (every write — `set`, and the read-modify-write
    /// halves of `append`/`write_at`).
    pub put_requests: u64,
    /// DELETE requests.
    pub delete_requests: u64,
    /// LIST requests.
    pub list_requests: u64,
    /// Bytes moved store → client.
    pub bytes_downloaded: u64,
    /// Bytes moved client → store.
    pub bytes_uploaded: u64,
    /// Simulated wall-clock spent in requests (seconds, serialized).
    pub simulated_seconds: f64,
    /// Simulated bill (USD).
    pub cost_usd: f64,
}

impl ObjectStoreStats {
    /// Total requests of any kind.
    pub fn requests(&self) -> u64 {
        self.get_requests + self.put_requests + self.delete_requests + self.list_requests
    }
}

/// The registry-backed accumulators behind [`ObjectStoreStats`]. Each
/// field is a handle registered in the instance's
/// [`MetricsRegistry`], so exporters scrape the same numbers
/// [`SimulatedObjectStorage::stats`] reports.
#[derive(Debug)]
struct ObjSimMetrics {
    get_requests: Arc<Counter>,
    put_requests: Arc<Counter>,
    delete_requests: Arc<Counter>,
    list_requests: Arc<Counter>,
    bytes_downloaded: Arc<Counter>,
    bytes_uploaded: Arc<Counter>,
    simulated_seconds: Arc<Gauge>,
    cost_usd: Arc<Gauge>,
}

impl ObjSimMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            get_requests: registry.counter("eblcio_objsim_get_requests_total"),
            put_requests: registry.counter("eblcio_objsim_put_requests_total"),
            delete_requests: registry.counter("eblcio_objsim_delete_requests_total"),
            list_requests: registry.counter("eblcio_objsim_list_requests_total"),
            bytes_downloaded: registry.counter("eblcio_objsim_bytes_downloaded_total"),
            bytes_uploaded: registry.counter("eblcio_objsim_bytes_uploaded_total"),
            simulated_seconds: registry.gauge("eblcio_objsim_simulated_seconds"),
            cost_usd: registry.gauge("eblcio_objsim_cost_usd"),
        }
    }
}

/// A decorator that makes any inner backend behave — and bill — like a
/// cloud object store. Reads map to (ranged) GETs; `set` is one PUT;
/// `append` and `write_at` are read-modify-write (one GET of the whole
/// existing object, one PUT of the whole new object) because object
/// stores have no partial writes; `exists`/`size` are HEADs.
///
/// Totals accumulate in a per-instance [`MetricsRegistry`] (under the
/// `eblcio_objsim_*` names, scrapeable through
/// [`SimulatedObjectStorage::metrics`]); [`ObjectStoreStats`] is a
/// snapshot view over those handles, readable at any time through
/// [`SimulatedObjectStorage::stats`].
#[derive(Debug)]
pub struct SimulatedObjectStorage {
    inner: Arc<dyn Storage>,
    model: ObjectCostModel,
    registry: Arc<MetricsRegistry>,
    metrics: ObjSimMetrics,
    /// Serializes multi-handle charges against [`Self::stats`] /
    /// [`Self::reset_stats`], so a snapshot can never observe a
    /// half-applied charge and a reset can never interleave with one.
    op_lock: Mutex<()>,
}

impl SimulatedObjectStorage {
    /// Wraps `inner`, charging every operation to `model`.
    pub fn over(inner: Arc<dyn Storage>, model: ObjectCostModel) -> Self {
        let registry = Arc::new(MetricsRegistry::default());
        let metrics = ObjSimMetrics::new(&registry);
        Self { inner, model, registry, metrics, op_lock: Mutex::new(()) }
    }

    /// A simulated object store over a fresh [`MemoryStorage`].
    pub fn in_memory(model: ObjectCostModel) -> Self {
        Self::over(Arc::new(MemoryStorage::new()), model)
    }

    /// The cost model in force.
    pub fn model(&self) -> ObjectCostModel {
        self.model
    }

    /// The backend actually holding the bytes.
    pub fn inner(&self) -> &Arc<dyn Storage> {
        &self.inner
    }

    /// The instance registry holding the `eblcio_objsim_*` metrics that
    /// [`Self::stats`] snapshots.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Snapshot of the accumulated request/byte/cost totals. Taken
    /// under the charge lock, so the fields are mutually consistent —
    /// never a request counted whose bytes aren't, even while other
    /// threads keep charging.
    pub fn stats(&self) -> ObjectStoreStats {
        let _g = self.op_lock.lock();
        ObjectStoreStats {
            get_requests: self.metrics.get_requests.get(),
            put_requests: self.metrics.put_requests.get(),
            delete_requests: self.metrics.delete_requests.get(),
            list_requests: self.metrics.list_requests.get(),
            bytes_downloaded: self.metrics.bytes_downloaded.get(),
            bytes_uploaded: self.metrics.bytes_uploaded.get(),
            simulated_seconds: self.metrics.simulated_seconds.get(),
            cost_usd: self.metrics.cost_usd.get(),
        }
    }

    /// Resets the accumulated totals to zero, atomically with respect
    /// to concurrent charges and snapshots.
    pub fn reset_stats(&self) {
        let _g = self.op_lock.lock();
        self.registry.reset_all();
    }

    fn charge(&self, kind: RequestKind, down: u64, up: u64) {
        let _g = self.op_lock.lock();
        match kind {
            RequestKind::Get => self.metrics.get_requests.inc(),
            RequestKind::Put => self.metrics.put_requests.inc(),
            RequestKind::Delete => self.metrics.delete_requests.inc(),
            RequestKind::List => self.metrics.list_requests.inc(),
        }
        self.metrics.bytes_downloaded.add(down);
        self.metrics.bytes_uploaded.add(up);
        self.metrics.simulated_seconds.add(self.model.request_seconds(down + up));
        self.metrics.cost_usd.add(self.model.request_cost(down + up));
    }
}

#[derive(Clone, Copy)]
enum RequestKind {
    Get,
    Put,
    Delete,
    List,
}

impl Storage for SimulatedObjectStorage {
    fn kind(&self) -> &'static str {
        "object-sim"
    }

    fn get(&self, key: &str) -> Result<Arc<[u8]>> {
        let obj = self.inner.get(key)?;
        self.charge(RequestKind::Get, obj.len() as u64, 0);
        Ok(obj)
    }

    fn get_range(&self, key: &str, range: ByteRange) -> Result<Vec<u8>> {
        let out = self.inner.get_range(key, range)?;
        self.charge(RequestKind::Get, out.len() as u64, 0);
        Ok(out)
    }

    fn set(&self, key: &str, bytes: &[u8]) -> Result<()> {
        self.inner.set(key, bytes)?;
        self.charge(RequestKind::Put, 0, bytes.len() as u64);
        Ok(())
    }

    fn append(&self, key: &str, bytes: &[u8]) -> Result<u64> {
        // Read-modify-write: GET the existing object (if any), PUT the
        // whole grown object back.
        let old = match self.inner.size(key) {
            Ok(n) => {
                self.charge(RequestKind::Get, n, 0);
                n
            }
            Err(_) => 0,
        };
        let new_len = self.inner.append(key, bytes)?;
        self.charge(RequestKind::Put, 0, old + bytes.len() as u64);
        Ok(new_len)
    }

    fn write_at(&self, key: &str, offset: u64, bytes: &[u8]) -> Result<()> {
        // Read-modify-write of the whole object, as above.
        let size = self.inner.size(key)?;
        self.inner.write_at(key, offset, bytes)?;
        self.charge(RequestKind::Get, size, 0);
        self.charge(RequestKind::Put, 0, size);
        Ok(())
    }

    fn exists(&self, key: &str) -> Result<bool> {
        let found = self.inner.exists(key)?;
        self.charge(RequestKind::Get, 0, 0); // HEAD
        Ok(found)
    }

    fn size(&self, key: &str) -> Result<u64> {
        let n = self.inner.size(key)?;
        self.charge(RequestKind::Get, 0, 0); // HEAD
        Ok(n)
    }

    fn erase(&self, key: &str) -> Result<()> {
        self.inner.erase(key)?;
        self.charge(RequestKind::Delete, 0, 0);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>> {
        let keys = self.inner.list()?;
        self.charge(RequestKind::List, 0, 0);
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_requests_and_bytes() {
        let store = SimulatedObjectStorage::in_memory(ObjectCostModel::default());
        store.set("a", &[1u8; 100]).unwrap();
        let s = store.stats();
        assert_eq!(s.put_requests, 1);
        assert_eq!(s.bytes_uploaded, 100);

        store.get("a").unwrap();
        store
            .get_range("a", ByteRange::Bounded { offset: 10, len: 5 })
            .unwrap();
        let s = store.stats();
        assert_eq!(s.get_requests, 2);
        assert_eq!(s.bytes_downloaded, 105);
        assert!(s.simulated_seconds > 0.0);
        assert!(s.cost_usd > 0.0);
    }

    #[test]
    fn append_is_read_modify_write() {
        let store = SimulatedObjectStorage::in_memory(ObjectCostModel::default());
        store.set("log", &[0u8; 40]).unwrap();
        store.reset_stats();
        assert_eq!(store.append("log", &[1u8; 10]).unwrap(), 50);
        let s = store.stats();
        // One GET of the 40 existing bytes, one PUT of all 50.
        assert_eq!(s.get_requests, 1);
        assert_eq!(s.put_requests, 1);
        assert_eq!(s.bytes_downloaded, 40);
        assert_eq!(s.bytes_uploaded, 50);
    }

    #[test]
    fn append_to_missing_key_is_single_put() {
        let store = SimulatedObjectStorage::in_memory(ObjectCostModel::default());
        assert_eq!(store.append("fresh", &[7u8; 8]).unwrap(), 8);
        let s = store.stats();
        assert_eq!(s.get_requests, 0);
        assert_eq!(s.put_requests, 1);
        assert_eq!(s.bytes_uploaded, 8);
    }

    /// The stats struct is a view over the instance registry: both
    /// report identical totals, and a reset clears both together.
    #[test]
    fn registry_mirrors_stats() {
        let store = SimulatedObjectStorage::in_memory(ObjectCostModel::default());
        store.set("a", &[0u8; 10]).unwrap();
        store.get("a").unwrap();
        let s = store.stats();
        assert_eq!((s.put_requests, s.get_requests), (1, 1));
        let text = eblcio_obs::prometheus(store.metrics());
        assert!(text.contains("eblcio_objsim_put_requests_total 1"), "{text}");
        assert!(text.contains("eblcio_objsim_get_requests_total 1"), "{text}");
        assert!(text.contains("eblcio_objsim_bytes_downloaded_total 10"), "{text}");
        store.reset_stats();
        assert_eq!(store.stats(), ObjectStoreStats::default());
    }

    #[test]
    fn model_from_pfs_scales_latency() {
        let pfs = PfsSim::testbed();
        let model = ObjectCostModel::from_pfs(&pfs);
        assert!(model.request_latency_s > 1e-3, "{}", model.request_latency_s);
        assert!(model.bandwidth_bps > 0.0);
        // A 1 MiB GET takes latency + transfer time.
        let t = model.request_seconds(1 << 20);
        assert!(t > model.request_latency_s);
    }
}
