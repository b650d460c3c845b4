//! Proves a cold region read streams: each worker scatters the chunk
//! it decoded and drops it before claiming the next, so beyond the
//! caller's output buffer the request never holds more than one decoded
//! chunk per worker — not one per missed chunk.
//!
//! The whole test binary runs under an allocator that tracks live
//! bytes; the file holds exactly one `#[test]` so no concurrent test
//! can allocate inside the measured window.

use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_data::{NdArray, Shape};
use eblcio_serve::{ArrayReader, CacheConfig, ReaderConfig};
use eblcio_store::{ChunkedStore, Region};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct LiveBytes;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: LiveBytes = LiveBytes;

#[test]
fn cold_read_holds_one_decoded_chunk_per_worker() {
    // 64 chunks of 32 KiB. ZFP decodes through stack buffers only, so
    // a decode allocates its output chunk and nothing else.
    let shape = Shape::d3(128, 64, 64);
    let chunk_bytes = 16 * 16 * 32 * 4;
    let data = NdArray::<f32>::from_fn(shape, |i| {
        (i[0] as f32 * 0.11).sin() * 30.0 + (i[1] as f32 * 0.07).cos() * 11.0 + i[2] as f32 * 0.3
    });
    let codec = CompressorId::Zfp.instance();
    let stream = ChunkedStore::write_sharded(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(1e-3),
        Shape::d3(16, 16, 32),
        8,
        2,
    )
    .unwrap();
    let store = ChunkedStore::open(&stream).unwrap();
    let region = Region::new(&[0, 0, 0], &[128, 64, 64]);
    let want = store.read_region::<f32>(&region).unwrap();

    for threads in [1usize, 2, 4] {
        let config = ReaderConfig {
            cache: CacheConfig { capacity_bytes: 0 },
            threads,
        };
        let reader = ArrayReader::<f32>::open(&stream, config).unwrap();
        let mut out = NdArray::<f32>::zeros(region.shape());

        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let stats = reader.read_region_into(&region, &mut out).unwrap();
        let held = PEAK.load(Ordering::SeqCst) - before;

        assert_eq!(stats.chunks_touched, 64);
        assert_eq!(stats.chunks_from_cache, 0);
        assert_eq!(out.as_slice(), want.as_slice());
        // The miss list, the claim slots and what spawning a worker
        // allocates are the slack.
        let bound = (threads + 1) * chunk_bytes + (16 << 10);
        assert!(
            held <= bound,
            "{threads} threads: {held} B live beyond the output, over {bound} B \
             ({} chunks of {chunk_bytes} B were decoded)",
            stats.chunks_touched
        );
    }
}
