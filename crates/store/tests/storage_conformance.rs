//! Backend-conformance harness: one generic suite proving every
//! [`Storage`] backend honours the same contract (see the module docs
//! of `eblcio_store::storage`), instantiated per backend via a macro.
//!
//! `EBLCIO_TEST_BACKEND` (fs|memory|object|object-fs) additionally
//! selects a backend for the `env_selected` module, which is how the CI
//! backend matrix re-runs the suite per backend.

use eblcio_codec::CodecError;
use eblcio_store::storage::{
    named_backend, ByteRange, FaultyStorage, FilesystemStorage, MemoryStorage, MeteredStorage,
    ObjectCostModel, SimulatedObjectStorage, Storage,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh backend plus whatever guard keeps it alive (temp dirs).
struct Fixture {
    storage: Arc<dyn Storage>,
    _guard: Option<TempDir>,
}

/// Self-cleaning unique temp directory.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eblcio-conformance-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn memory_fixture() -> Fixture {
    Fixture { storage: Arc::new(MemoryStorage::new()), _guard: None }
}

fn filesystem_fixture() -> Fixture {
    let dir = TempDir::new("fs");
    Fixture {
        storage: Arc::new(FilesystemStorage::create(&dir.0).unwrap()),
        _guard: Some(dir),
    }
}

fn object_fixture() -> Fixture {
    Fixture {
        storage: Arc::new(SimulatedObjectStorage::in_memory(ObjectCostModel::default())),
        _guard: None,
    }
}

/// FaultyStorage with no faults armed must be a pure passthrough —
/// running it through the full suite proves the wrapper itself cannot
/// corrupt anything.
fn faulty_passthrough_fixture() -> Fixture {
    Fixture {
        storage: Arc::new(FaultyStorage::new(Arc::new(MemoryStorage::new()))),
        _guard: None,
    }
}

/// MeteredStorage must be semantically invisible: the full suite over
/// a metered memory backend proves the telemetry wrapper changes no
/// observable behaviour. A private registry keeps the suite's traffic
/// out of the process-global metrics.
fn metered_fixture() -> Fixture {
    Fixture {
        storage: Arc::new(MeteredStorage::with_registry(
            Arc::new(MemoryStorage::new()),
            Arc::new(eblcio_obs::MetricsRegistry::default()),
        )),
        _guard: None,
    }
}

fn env_fixture() -> Fixture {
    let name =
        std::env::var("EBLCIO_TEST_BACKEND").unwrap_or_else(|_| "memory".to_string());
    let dir = TempDir::new("env");
    Fixture {
        storage: named_backend(&name, &dir.0).unwrap().storage,
        _guard: Some(dir),
    }
}

// ---- the generic suite -------------------------------------------------

fn suite_roundtrip(s: &dyn Storage) {
    assert!(!s.exists("a").unwrap());
    s.set("a", b"hello world").unwrap();
    assert!(s.exists("a").unwrap());
    assert_eq!(&*s.get("a").unwrap(), b"hello world");
    assert_eq!(s.size("a").unwrap(), 11);

    // set replaces wholesale.
    s.set("a", b"shorter").unwrap();
    assert_eq!(&*s.get("a").unwrap(), b"shorter");
    assert_eq!(s.size("a").unwrap(), 7);

    // Empty objects are objects.
    s.set("empty", b"").unwrap();
    assert!(s.exists("empty").unwrap());
    assert_eq!(s.size("empty").unwrap(), 0);
    assert_eq!(&*s.get("empty").unwrap(), b"");
}

fn suite_missing_keys(s: &dyn Storage) {
    let missing = |r: Result<(), CodecError>| {
        assert!(matches!(r, Err(CodecError::NoSuchKey { .. })), "{r:?}");
    };
    missing(s.get("nope").map(drop));
    missing(s.get_range("nope", ByteRange::Full).map(drop));
    missing(s.size("nope").map(drop));
    missing(s.write_at("nope", 0, b"x"));
    assert!(!s.exists("nope").unwrap());
}

fn suite_range_reads(s: &dyn Storage) {
    s.set("r", b"0123456789").unwrap();
    assert_eq!(s.get_range("r", ByteRange::Full).unwrap(), b"0123456789");
    assert_eq!(s.get_range("r", ByteRange::From(6)).unwrap(), b"6789");
    assert_eq!(s.get_range("r", ByteRange::From(10)).unwrap(), b"");
    assert_eq!(
        s.get_range("r", ByteRange::Bounded { offset: 2, len: 3 }).unwrap(),
        b"234"
    );
    assert_eq!(
        s.get_range("r", ByteRange::Bounded { offset: 0, len: 0 }).unwrap(),
        b""
    );
    assert_eq!(s.get_range("r", ByteRange::Suffix(4)).unwrap(), b"6789");
    assert_eq!(s.get_range("r", ByteRange::Suffix(0)).unwrap(), b"");

    // Out-of-range requests are typed errors, never clamped bytes.
    let oob = |range: ByteRange| {
        let got = s.get_range("r", range);
        assert!(
            matches!(got, Err(CodecError::StorageRange { .. })),
            "{range:?} -> {got:?}"
        );
    };
    oob(ByteRange::From(11));
    oob(ByteRange::Bounded { offset: 8, len: 3 });
    oob(ByteRange::Bounded { offset: 10, len: 1 });
    oob(ByteRange::Bounded { offset: u64::MAX, len: 2 });
    oob(ByteRange::Suffix(11));
}

fn suite_append_ordering(s: &dyn Storage) {
    // append creates the key and returns the running size.
    assert_eq!(s.append("log", b"aa").unwrap(), 2);
    assert_eq!(s.append("log", b"bbb").unwrap(), 5);
    assert_eq!(s.append("log", b"").unwrap(), 5);
    assert_eq!(s.append("log", b"c").unwrap(), 6);
    assert_eq!(&*s.get("log").unwrap(), b"aabbbc");

    // Appends land after a set, in order.
    s.set("log", b"reset:").unwrap();
    assert_eq!(s.append("log", b"1").unwrap(), 7);
    assert_eq!(&*s.get("log").unwrap(), b"reset:1");
}

fn suite_write_at(s: &dyn Storage) {
    s.set("w", b"0123456789").unwrap();
    s.write_at("w", 2, b"AB").unwrap();
    assert_eq!(&*s.get("w").unwrap(), b"01AB456789");
    s.write_at("w", 0, b"X").unwrap();
    s.write_at("w", 9, b"Z").unwrap();
    assert_eq!(&*s.get("w").unwrap(), b"X1AB45678Z");
    // Zero-length writes at the end boundary are fine.
    s.write_at("w", 10, b"").unwrap();

    // Growing is append's job: any byte beyond the end is an error,
    // and a failed write_at must not change the object.
    assert!(s.write_at("w", 9, b"YY").is_err());
    assert!(s.write_at("w", 11, b"").is_err());
    assert_eq!(&*s.get("w").unwrap(), b"X1AB45678Z");
}

fn suite_erase(s: &dyn Storage) {
    s.set("e", b"bytes").unwrap();
    assert!(s.exists("e").unwrap());
    s.erase("e").unwrap();
    assert!(!s.exists("e").unwrap());
    assert!(matches!(s.get("e"), Err(CodecError::NoSuchKey { .. })));
    // Idempotent: erasing a missing key is Ok.
    s.erase("e").unwrap();
    s.erase("never-existed").unwrap();
}

fn suite_list(s: &dyn Storage) {
    assert_eq!(s.list().unwrap(), Vec::<String>::new());
    s.set("b", b"2").unwrap();
    s.set("a", b"1").unwrap();
    s.set("nested/deep/c", b"3").unwrap();
    assert_eq!(s.list().unwrap(), vec!["a", "b", "nested/deep/c"]);
    s.erase("b").unwrap();
    assert_eq!(s.list().unwrap(), vec!["a", "nested/deep/c"]);
}

fn suite_key_validation(s: &dyn Storage) {
    for bad in ["", "/a", "a/", "a//b", "..", "a/../b", ".", "a\0"] {
        assert!(s.set(bad, b"x").is_err(), "{bad:?}");
        assert!(s.get(bad).is_err(), "{bad:?}");
    }
    assert_eq!(s.list().unwrap(), Vec::<String>::new());
}

fn suite_concurrent_readers(s: Arc<dyn Storage>) {
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    s.set("shared", &payload).unwrap();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let s = s.clone();
            let payload = payload.clone();
            std::thread::spawn(move || {
                for i in 0..50u64 {
                    let off = (t * 37 + i * 13) % 4000;
                    let got = s
                        .get_range("shared", ByteRange::Bounded { offset: off, len: 96 })
                        .unwrap();
                    assert_eq!(got, &payload[off as usize..off as usize + 96]);
                }
            })
        })
        .collect();
    // A writer on a *different* key runs concurrently with the readers.
    for i in 0..50u64 {
        s.append("writer-log", &i.to_le_bytes()).unwrap();
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(s.size("writer-log").unwrap(), 400);
}

/// Readers holding a `get` snapshot must keep their bytes across a
/// `set` replacing the object (snapshot isolation at the whole-object
/// level — what `MutableStore` readers build on).
fn suite_snapshot_stability(s: &dyn Storage) {
    s.set("snap", b"generation-1").unwrap();
    let held = s.get("snap").unwrap();
    s.set("snap", b"generation-2!").unwrap();
    assert_eq!(&*held, b"generation-1");
    assert_eq!(&*s.get("snap").unwrap(), b"generation-2!");
}

macro_rules! conformance {
    ($module:ident, $make:expr) => {
        mod $module {
            use super::*;

            #[test]
            fn roundtrip() {
                let f = $make;
                suite_roundtrip(&*f.storage);
            }

            #[test]
            fn missing_keys() {
                let f = $make;
                suite_missing_keys(&*f.storage);
            }

            #[test]
            fn range_reads() {
                let f = $make;
                suite_range_reads(&*f.storage);
            }

            #[test]
            fn append_ordering() {
                let f = $make;
                suite_append_ordering(&*f.storage);
            }

            #[test]
            fn write_at() {
                let f = $make;
                suite_write_at(&*f.storage);
            }

            #[test]
            fn erase() {
                let f = $make;
                suite_erase(&*f.storage);
            }

            #[test]
            fn list_sorted() {
                let f = $make;
                suite_list(&*f.storage);
            }

            #[test]
            fn key_validation() {
                let f = $make;
                suite_key_validation(&*f.storage);
            }

            #[test]
            fn concurrent_readers() {
                let f = $make;
                suite_concurrent_readers(f.storage.clone());
            }

            #[test]
            fn snapshot_stability() {
                let f = $make;
                suite_snapshot_stability(&*f.storage);
            }
        }
    };
}

conformance!(memory, memory_fixture());
conformance!(filesystem, filesystem_fixture());
conformance!(simulated_object, object_fixture());
conformance!(faulty_passthrough, faulty_passthrough_fixture());
conformance!(metered, metered_fixture());
conformance!(env_selected, env_fixture());

/// The simulated object store must bill the suite's traffic: the
/// conformance operations above all map to requests, so a quick pass
/// here pins the accounting to real numbers.
#[test]
fn object_sim_bills_the_contract() {
    let store = SimulatedObjectStorage::in_memory(ObjectCostModel::default());
    suite_roundtrip(&store);
    let s = store.stats();
    assert!(s.put_requests >= 3, "{s:?}");
    assert!(s.get_requests >= 3, "{s:?}");
    assert!(s.bytes_uploaded >= 18, "{s:?}");
    assert!(s.cost_usd > 0.0);
    assert!(s.simulated_seconds > 0.0);
}
