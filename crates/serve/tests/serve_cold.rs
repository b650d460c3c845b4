//! The cold half of the region engine: workers claim the missed chunks,
//! and each scatters the piece it decoded into the caller's buffer
//! itself. Whatever the width, the delivered bytes are the store's own;
//! a chunk that fails its checksum fails the request that needs it —
//! typed, without a hang or a panic, leaving the reader usable — and
//! fails nothing when it was only prefetched. A region outside the
//! array is a typed error at every read entry.

use eblcio_codec::{CodecError, CompressorId, ErrorBound};
use eblcio_data::{Element, NdArray, Shape};
use eblcio_serve::{ArrayReader, CacheConfig, ReaderConfig};
use eblcio_store::{ChunkedStore, Region};

/// Time-sliced like the benchmark's store: every chunk has a unit axis.
const SHAPE: [usize; 4] = [3, 32, 32, 32];
const CHUNK: [usize; 4] = [1, 16, 16, 16];
const WIDTHS: [usize; 3] = [1, 2, 4];

fn field() -> NdArray<f64> {
    NdArray::from_fn(Shape::new(&SHAPE), |i| {
        (i[0] as f64 * 0.9 + i[1] as f64 * 0.23).sin() * 40.0
            + (i[2] as f64 * 0.31).cos() * 15.0
            + i[3] as f64 * 0.5
    })
}

fn sharded_stream(id: CompressorId) -> Vec<u8> {
    let codec = id.instance();
    ChunkedStore::write_sharded(
        codec.as_ref(),
        &field(),
        ErrorBound::Relative(1e-3),
        Shape::new(&CHUNK),
        8,
        2,
    )
    .unwrap()
}

fn uncached(threads: usize) -> ReaderConfig {
    ReaderConfig {
        cache: CacheConfig { capacity_bytes: 0 },
        threads,
    }
}

/// `stream` with one byte of chunk `i`'s payload flipped (the manifest
/// and the shard indices stay intact, so the store still opens).
fn corrupt_chunk(stream: &[u8], i: usize) -> Vec<u8> {
    let store = ChunkedStore::open(stream).unwrap();
    let payload = store.chunk_payload(i).unwrap();
    let at = payload.as_ptr() as usize - store.bytes().as_ptr() as usize + payload.len() / 2;
    let mut bad = stream.to_vec();
    bad[at] ^= 0x55;
    bad
}

#[test]
fn cold_reads_equal_the_store_at_every_width_on_every_preset() {
    // Aligned to no chunk edge: all eight chunks of every time slice,
    // each covered in part, so an uncached reader decodes every one of
    // them as a sub-chunk region — on every preset — and so does the
    // store.
    let region = Region::new(&[0, 5, 3, 9], &[3, 13, 25, 17]);
    for id in CompressorId::ALL {
        let stream = sharded_stream(id);
        let (direct, direct_stats) = ChunkedStore::open(&stream)
            .unwrap()
            .read_region_with_stats::<f64>(&region)
            .unwrap();
        assert_eq!(direct_stats.partial_decodes, 24, "{}", id.name());
        assert_eq!(direct_stats.samples_decoded, region.len() as u64, "{}", id.name());
        let mut direct_le = vec![0u8; direct.nbytes()];
        f64::write_le_slice(direct.as_slice(), &mut direct_le);
        for threads in WIDTHS {
            let reader =
                ArrayReader::<f64>::open(&stream, uncached(threads)).unwrap();
            let mut typed = NdArray::<f64>::zeros(region.shape());
            let stats = reader.read_region_into(&region, &mut typed).unwrap();
            assert!(
                typed.as_slice().iter().zip(direct.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{} typed, {threads} threads",
                id.name()
            );
            assert_eq!(stats.chunks_touched, 24);
            assert_eq!(stats.chunks_from_cache, 0);
            assert_eq!(stats.partial_decodes, direct_stats.partial_decodes, "{}", id.name());

            let mut wire = vec![0u8; direct_le.len()];
            let le_stats = reader.read_region_le_into(&region, &mut wire).unwrap();
            assert_eq!(wire, direct_le, "{} wire order, {threads} threads", id.name());
            assert_eq!(le_stats, stats);
        }
    }
}

#[test]
fn a_corrupt_chunk_fails_its_request_and_leaves_the_reader_usable() {
    let clean = sharded_stream(CompressorId::Sz3);
    let store = ChunkedStore::open(&clean).unwrap();
    // Chunk 11 is in time slice 1; slice 0 never touches it.
    let bad = corrupt_chunk(&clean, 11);
    let whole = Region::new(&[0, 0, 0, 0], &SHAPE);
    let slice0 = Region::new(&[0, 3, 3, 3], &[1, 20, 20, 20]);
    for threads in WIDTHS {
        let reader = ArrayReader::<f64>::open(&bad, uncached(threads)).unwrap();
        let mut out = NdArray::<f64>::zeros(whole.shape());
        assert_eq!(
            reader.read_region_into(&whole, &mut out),
            Err(CodecError::ChecksumMismatch),
            "{threads} threads"
        );
        let eleven = store.grid().chunk_region(11);
        assert_eq!(reader.read_region(&eleven).map(drop), Err(CodecError::ChecksumMismatch));
        let served = reader.read_region(&slice0).unwrap();
        assert_eq!(served.as_slice(), store.read_region::<f64>(&slice0).unwrap().as_slice());
    }
}

/// What a failed request counts: a region read that fails — a whole
/// chunk's box, a part of one, the whole array, or a region outside
/// the array — is neither a request nor a decode; the next good read
/// is.
#[test]
fn failed_requests_count_only_where_the_stats_say() {
    let clean = sharded_stream(CompressorId::Sz3);
    let bad = corrupt_chunk(&clean, 11);
    let reader = ArrayReader::<f64>::open(&bad, uncached(1)).unwrap();
    let counts = || {
        let s = reader.stats();
        (s.requests, s.decodes, s.partial_decodes)
    };
    let grid = *ChunkedStore::open(&clean).unwrap().grid();
    let eleven = grid.chunk_region(11);
    assert_eq!(reader.read_region(&eleven).map(drop), Err(CodecError::ChecksumMismatch));
    assert_eq!(counts(), (0, 0, 0));
    let outside = Region::new(&[3, 0, 0, 0], &CHUNK);
    assert!(matches!(reader.read_region(&outside), Err(CodecError::BadRegion { .. })));
    assert_eq!(counts(), (0, 0, 0));
    // Inside chunk 11 only: an uncached reader decodes just the part.
    let part = Region::new(&[1, 2, 18, 18], &[1, 4, 4, 4]);
    assert_eq!(reader.read_region(&part).map(drop), Err(CodecError::ChecksumMismatch));
    assert_eq!(counts(), (0, 0, 0));
    let mut out = NdArray::<f64>::zeros(Shape::new(&SHAPE));
    assert!(reader.read_region_into(&Region::new(&[0, 0, 0, 0], &SHAPE), &mut out).is_err());
    let (requests, decodes, _) = counts();
    assert_eq!(requests, 0);
    reader.read_region(&grid.chunk_region(0)).unwrap();
    assert_eq!(counts(), (1, decodes + 1, 0));
}

/// An explicit prefetch over a corrupt chunk fails nothing: the intact
/// chunk beside it lands in the cache, and the read that needs the
/// corrupt one is the one that reports it.
#[test]
fn a_corrupt_prefetched_chunk_does_not_fail_the_request_that_triggered_it() {
    let clean = sharded_stream(CompressorId::Szx);
    let store = ChunkedStore::open(&clean).unwrap();
    let bad = corrupt_chunk(&clean, 8);
    // Chunks 8 and 9, the first two of time slice 1.
    let pair = Region::new(&[1, 0, 0, 0], &[1, 16, 16, 32]);
    let (eight, nine) = (store.grid().chunk_region(8), store.grid().chunk_region(9));
    for threads in WIDTHS {
        let config = ReaderConfig { cache: CacheConfig::default(), threads };
        let reader = ArrayReader::<f64>::open(&bad, config).unwrap();
        reader.prefetch_region(&pair);
        let stats = reader.stats();
        assert_eq!((stats.prefetched, stats.decodes), (2, 1), "{threads} threads");
        let (served, req) = reader.read_region_with_stats(&nine).unwrap();
        assert_eq!(req.chunks_from_cache, 1);
        assert_eq!(served.as_slice(), store.read_region::<f64>(&nine).unwrap().as_slice());
        assert_eq!(reader.read_region(&eight).map(drop), Err(CodecError::ChecksumMismatch));
        assert_eq!(reader.stats().decodes, 1, "{threads} threads");
    }
}

/// Every region entry of the reader and of the store refuses a region
/// outside the array — an origin past the end, an `origin + extent`
/// that overflows `usize`, a rank that is not the array's — with a
/// typed error instead of a panic, and the same handle serves a good
/// read afterwards.
#[test]
fn a_region_outside_the_array_is_a_typed_error_at_every_entry() {
    let stream = sharded_stream(CompressorId::Szx);
    let store = ChunkedStore::open(&stream).unwrap();
    let reader = ArrayReader::<f64>::open(&stream, uncached(2)).unwrap();
    let outside = |r: Result<(), CodecError>, what: &str, region: &Region| {
        assert_eq!(
            r,
            Err(CodecError::BadRegion { context: "outside the array" }),
            "{what} over {region:?}"
        );
    };
    for region in [
        Region::new(&[3, 0, 0, 0], &[1, 4, 4, 4]),
        Region::new(&[0, 0, 30, 0], &[1, 1, 4, 1]),
        Region::new(&[usize::MAX, 0, 0, 0], &[2, 1, 1, 1]),
        Region::new(&[0, 0], &[2, 2]),
    ] {
        outside(reader.read_region(&region).map(drop), "read_region", &region);
        outside(reader.read_region_with_stats(&region).map(drop), "read_region_with_stats", &region);
        let mut typed = NdArray::<f64>::zeros(region.shape());
        outside(reader.read_region_into(&region, &mut typed).map(drop), "read_region_into", &region);
        let mut wire = vec![0u8; region.len() * f64::BYTES];
        outside(reader.read_region_le_into(&region, &mut wire).map(drop), "read_region_le_into", &region);
        outside(store.read_region::<f64>(&region).map(drop), "store read_region", &region);
        outside(
            store.read_region_with_stats::<f64>(&region).map(drop),
            "store read_region_with_stats",
            &region,
        );
        reader.prefetch_region(&region);
    }
    let stats = reader.stats();
    assert_eq!((stats.requests, stats.chunks_requested, stats.prefetched), (0, 0, 0));
    let good = Region::new(&[0, 5, 3, 9], &[3, 13, 25, 17]);
    let want = store.read_region::<f64>(&good).unwrap();
    assert_eq!(reader.read_region(&good).unwrap().as_slice(), want.as_slice());
    assert_eq!(reader.stats().requests, 1);
}
