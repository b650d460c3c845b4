//! The cold half of the region engine: workers claim the missed chunks,
//! and each scatters the piece it decoded into the caller's buffer
//! itself. Whatever the width, the delivered bytes are the store's own;
//! a chunk that fails its checksum fails the request that needs it —
//! typed, without a hang or a panic, leaving the reader usable — and
//! fails nothing when it was only prefetched.

use eblcio_codec::{CodecError, CompressorId, ErrorBound};
use eblcio_data::{Element, NdArray, Shape};
use eblcio_serve::{ArrayReader, CacheConfig, PrefetchPolicy, ReaderConfig};
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

fn uncached(threads: usize, prefetch: PrefetchPolicy) -> ReaderConfig {
    ReaderConfig {
        cache: CacheConfig { capacity_bytes: 0 },
        threads,
        prefetch,
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
                ArrayReader::<f64>::open(&stream, uncached(threads, PrefetchPolicy::None)).unwrap();
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
        let reader = ArrayReader::<f64>::open(&bad, uncached(threads, PrefetchPolicy::None)).unwrap();
        let mut out = NdArray::<f64>::zeros(whole.shape());
        assert_eq!(
            reader.read_region_into(&whole, &mut out),
            Err(CodecError::ChecksumMismatch),
            "{threads} threads"
        );
        assert_eq!(reader.read_chunk(11).map(drop), Err(CodecError::ChecksumMismatch));
        let served = reader.read_region(&slice0).unwrap();
        assert_eq!(served.as_slice(), store.read_region::<f64>(&slice0).unwrap().as_slice());
    }
}

/// What a failed request counts: a `read_chunk` whose decode fails is a
/// request but no decode; a failed region read (whole-chunk or partial
/// decode) and an out-of-range chunk are neither.
#[test]
fn failed_requests_count_only_where_the_stats_say() {
    let bad = corrupt_chunk(&sharded_stream(CompressorId::Sz3), 11);
    let reader = ArrayReader::<f64>::open(&bad, uncached(1, PrefetchPolicy::None)).unwrap();
    let counts = || {
        let s = reader.stats();
        (s.requests, s.decodes, s.partial_decodes)
    };
    assert_eq!(reader.read_chunk(11).map(drop), Err(CodecError::ChecksumMismatch));
    assert_eq!(counts(), (1, 0, 0));
    assert!(reader.read_chunk(1000).is_err());
    assert_eq!(counts(), (1, 0, 0));
    // Inside chunk 11 only: an uncached reader decodes just the part.
    let part = Region::new(&[1, 2, 18, 18], &[1, 4, 4, 4]);
    assert_eq!(reader.read_region(&part).map(drop), Err(CodecError::ChecksumMismatch));
    assert_eq!(counts(), (1, 0, 0));
    let mut out = NdArray::<f64>::zeros(Shape::new(&SHAPE));
    assert!(reader.read_region_into(&Region::new(&[0, 0, 0, 0], &SHAPE), &mut out).is_err());
    assert_eq!(counts().0, 1);
    reader.read_chunk(0).unwrap();
    assert_eq!(reader.stats().requests, 2);
}

#[test]
fn a_corrupt_prefetched_chunk_does_not_fail_the_request_that_triggered_it() {
    let clean = sharded_stream(CompressorId::Szx);
    let store = ChunkedStore::open(&clean).unwrap();
    // Slice 0 is chunks 0..8, so the prefetcher extends into 8 and 9.
    let bad = corrupt_chunk(&clean, 8);
    let slice0 = Region::new(&[0, 0, 0, 0], &[1, 32, 32, 32]);
    for threads in WIDTHS {
        let config = ReaderConfig {
            cache: CacheConfig::default(),
            ..uncached(threads, PrefetchPolicy::Sequential { depth: 2 })
        };
        let reader = ArrayReader::<f64>::open(&bad, config).unwrap();
        let (served, stats) = reader.read_region_with_stats(&slice0).unwrap();
        assert_eq!(stats.chunks_prefetched, 2);
        assert_eq!(served.as_slice(), store.read_region::<f64>(&slice0).unwrap().as_slice());
        // The intact half of the prefetch landed; the read that needs
        // the corrupt chunk is the one that reports it.
        assert!(reader.read_chunk(9).is_ok());
        assert_eq!(reader.stats().decodes, 9, "{threads} threads");
        assert_eq!(reader.read_chunk(8).map(drop), Err(CodecError::ChecksumMismatch));
    }
}

/// A sequential prefetch deeper than the store stops at its last chunk
/// whatever the depth: `usize::MAX` warms every chunk after the frontier
/// and none past the end.
#[test]
fn a_prefetch_of_any_depth_stops_at_the_last_chunk() {
    let stream = sharded_stream(CompressorId::Szx);
    let n = ChunkedStore::open(&stream).unwrap().n_chunks();
    let config = ReaderConfig {
        cache: CacheConfig::default(),
        ..uncached(2, PrefetchPolicy::Sequential { depth: usize::MAX })
    };
    let reader = ArrayReader::<f64>::open(&stream, config).unwrap();
    let first = Region::new(&[0, 0, 0, 0], &CHUNK);
    let (_, stats) = reader.read_region_with_stats(&first).unwrap();
    assert_eq!(stats.chunks_prefetched, n - 1);
    let last = Region::new(&[2, 16, 16, 16], &CHUNK);
    let (_, stats) = reader.read_region_with_stats(&last).unwrap();
    assert_eq!((stats.chunks_touched, stats.chunks_prefetched), (1, 0));
}
