//! Proves the steady-state serving path is allocation-free: once every
//! chunk a region touches sits in the decoded-chunk cache,
//! [`ArrayReader::read_region_into`] and its wire-order twin
//! [`ArrayReader::read_region_le_into`] must perform **zero** heap
//! allocations — the property the decode hot-path work optimizes for.
//!
//! The whole test binary runs under a counting global allocator; the
//! file holds exactly one `#[test]` so no concurrent test can allocate
//! inside the measured window.

use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_data::{NdArray, Shape};
use eblcio_serve::{ArrayReader, ReaderConfig};
use eblcio_store::{ChunkedStore, Region};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

#[test]
fn warm_read_region_into_allocates_nothing() {
    // Telemetry ON: the zero-alloc property must hold with spans and
    // the flight recorder live, not just with them compiled out. The
    // recorder ring and interned span names are allocated lazily, so
    // force them into existence before the measured window opens.
    eblcio_obs::set_enabled(true);
    eblcio_obs::flight_recorder();

    let data = NdArray::<f32>::from_fn(Shape::d2(64, 64), |i| {
        (i[0] as f32 * 0.17).sin() * 30.0 + (i[1] as f32 * 0.29).cos() * 11.0
    });
    let codec = CompressorId::Szx.instance();
    let stream = ChunkedStore::write(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(1e-3),
        Shape::d2(16, 16),
        2,
    )
    .unwrap();
    let reader = ArrayReader::<f32>::open(&stream, ReaderConfig::default()).unwrap();

    // Straddles four chunks; decoding + caching them is the cold cost.
    let region = Region::new(&[10, 10], &[20, 20]);
    let reference = reader.read_region(&region).unwrap();
    let mut out = NdArray::<f32>::zeros(region.shape());
    let mut wire = vec![0u8; out.nbytes()];

    // One warm call outside the window sizes the thread-local chunk-id
    // scratch; after it the path must be steady-state.
    let stats = reader.read_region_into(&region, &mut out).unwrap();
    assert_eq!(stats.chunks_from_cache, 4, "cache must be warm before measuring");

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..32 {
        reader.read_region_into(&region, &mut out).unwrap();
        reader.read_region_le_into(&region, &mut wire).unwrap();
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warm read_region_into / read_region_le_into must not allocate"
    );
    assert_eq!(out.as_slice(), reference.as_slice());
    assert_eq!(wire, reference.to_le_bytes());
}
