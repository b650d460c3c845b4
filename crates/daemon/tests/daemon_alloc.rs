//! Pins the copy-free wire path from both ends at once: with an
//! in-process [`Daemon`] and one [`DaemonClient`], a warm round trip
//! allocates nothing proportional to the reply — except, for the
//! allocating call, the `bytes` it hands back.
//!
//! The whole test binary runs under a counting global allocator that
//! sees every thread (client, acceptor, connection thread); the file
//! holds exactly one `#[test]` so nothing else allocates inside a
//! measured window.

use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_daemon::{AnyReader, Daemon, DaemonClient, DaemonConfig, RegionSpec};
use eblcio_data::{NdArray, Shape};
use eblcio_serve::ReaderConfig;
use eblcio_store::ChunkedStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations at least this big count as "proportional to the reply".
const LARGE: usize = 4 << 10;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGE_CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn count(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

/// `(calls, bytes, large calls)` so far, process-wide.
fn snapshot() -> (usize, usize, usize) {
    (
        CALLS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
        LARGE_CALLS.load(Ordering::SeqCst),
    )
}

#[test]
fn warm_round_trips_allocate_nothing_proportional_to_the_reply() {
    const TRIPS: usize = 32;
    // Telemetry ON, its lazily built parts forced into existence first
    // (as in `serve_alloc.rs`).
    eblcio_obs::set_enabled(true);
    eblcio_obs::flight_recorder();

    let data = NdArray::<f32>::from_fn(Shape::d2(288, 288), |i| {
        (i[0] as f32 * 0.07).sin() * 30.0 + (i[1] as f32 * 0.05).cos() * 11.0
    });
    let codec = CompressorId::Szx.instance();
    let stream =
        ChunkedStore::write(codec.as_ref(), &data, ErrorBound::Relative(1e-3), Shape::d2(96, 96), 2)
            .unwrap();
    let reader = AnyReader::open(&stream, ReaderConfig::default()).unwrap();
    let daemon = Daemon::start(reader, DaemonConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    // 256 × 256 f32 = 256 KiB, straddling all nine chunks.
    let spec = RegionSpec::new(&[10, 20], &[256, 256]);
    let reply_bytes = 256 * 256 * 4;
    let mut out = NdArray::<f32>::zeros(Shape::d2(256, 256));

    // One warm-up trip per call: decodes and caches the chunks, sizes the
    // connection's frame buffer, the client's staging block and the
    // reader's thread-local scratch.
    let reference = client.read_region(&spec).unwrap();
    client.read_region_into(&spec, &mut out).unwrap();

    let (calls0, bytes0, large0) = snapshot();
    for _ in 0..TRIPS {
        client.read_region_into(&spec, &mut out).unwrap();
    }
    let (calls1, bytes1, large1) = snapshot();
    assert_eq!(large1 - large0, 0, "read_region_into made an allocation of {LARGE} B or more");
    assert!(
        bytes1 - bytes0 <= 512 * TRIPS,
        "read_region_into: {} B in {} allocations over {TRIPS} round trips",
        bytes1 - bytes0,
        calls1 - calls0
    );
    assert_eq!(reference.as_f32().unwrap(), out.as_slice());

    let (calls1, bytes1, large1) = snapshot();
    for _ in 0..TRIPS {
        let data = client.read_region(&spec).unwrap();
        assert_eq!(data.bytes.len(), reply_bytes);
    }
    let (calls2, bytes2, large2) = snapshot();
    assert_eq!(
        large2 - large1,
        TRIPS,
        "read_region's one allocation of {LARGE} B or more is the `bytes` it returns"
    );
    assert!(
        bytes2 - bytes1 - TRIPS * reply_bytes <= 512 * TRIPS,
        "read_region: {} B beyond the replies in {} allocations over {TRIPS} round trips",
        bytes2 - bytes1 - TRIPS * reply_bytes,
        calls2 - calls1
    );
    daemon.shutdown();
}
