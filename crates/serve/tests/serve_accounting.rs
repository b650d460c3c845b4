//! Serve-path accounting regressions: the cache hit/miss counters must
//! charge **exactly one** probe per intersecting chunk per request, on
//! every entry point; the miss path decodes sub-chunk regions by one
//! rule (no cache: every chunk covered in part; a live cache: overlaps
//! of at most an eighth); and a corrupt dtype tag must be reported as
//! corruption, not as a mismatch against a dtype nobody stored.
//!
//! The double-count this pins down: `read_region_into`'s warm pass used
//! to probe with the counting lookup until the first miss, then fall
//! back to the allocating engine, which re-probed (and re-counted)
//! every chunk — so a warm/cold mix inflated both hits and misses, and
//! a capacity planner trusting `hit_rate()` saw a rosier cache than it
//! had.

use eblcio_codec::util::crc32;
use eblcio_codec::{CodecError, CompressorId, ErrorBound};
use eblcio_data::{NdArray, Shape};
use eblcio_serve::{ArrayReader, CacheConfig, ReaderConfig};
use eblcio_store::{ChunkedStore, Manifest, Region};

/// A 32×32 f32 field stored as four 16×16 chunks.
fn four_chunk_stream() -> Vec<u8> {
    let data = NdArray::<f32>::from_fn(Shape::d2(32, 32), |i| {
        (i[0] as f32 * 0.23).sin() * 40.0 + (i[1] as f32 * 0.31).cos() * 15.0
    });
    let codec = CompressorId::Sz3.instance();
    ChunkedStore::write(codec.as_ref(), &data, ErrorBound::Relative(1e-3), Shape::d2(16, 16), 2)
        .unwrap()
}

/// The regression proper: a warm/cold mix through `read_region_into`
/// charges each chunk once. The old fallback produced hits=2/misses=5
/// for this exact sequence; the probe-once engine gives hits=1/misses=4.
#[test]
fn warm_cold_mix_counts_each_chunk_exactly_once() {
    let stream = four_chunk_stream();
    let reader = ArrayReader::<f32>::open(&stream, ReaderConfig::default()).unwrap();

    // Cold read of chunk 0 alone: one miss, nothing else.
    reader.read_region(&Region::new(&[0, 0], &[16, 16])).unwrap();
    let s = reader.stats();
    assert_eq!((s.cache_hits, s.cache_misses), (0, 1));

    // Full-region read with chunk 0 warm and chunks 1–3 cold: exactly
    // one hit and three more misses — no re-probe of the warm chunk.
    let full = Region::new(&[0, 0], &[32, 32]);
    let mut out = NdArray::<f32>::zeros(full.shape());
    let req = reader.read_region_into(&full, &mut out).unwrap();
    assert_eq!(req.chunks_touched, 4);
    assert_eq!(req.chunks_from_cache, 1);
    let s = reader.stats();
    assert_eq!(
        (s.cache_hits, s.cache_misses),
        (1, 4),
        "warm/cold mix must charge one probe per chunk (double-count regression)"
    );

    // Fully warm repeat: four hits, no new misses, no new decodes.
    let req = reader.read_region_into(&full, &mut out).unwrap();
    assert_eq!(req.chunks_from_cache, 4);
    let s = reader.stats();
    assert_eq!((s.cache_hits, s.cache_misses), (5, 4));
    assert_eq!(s.decodes, 4, "every chunk decoded exactly once");
    assert_eq!(s.chunks_requested, 1 + 4 + 4);
    assert_eq!(s.requests, 3);
}

/// Both region entry points funnel through one engine, so their
/// accounting is identical by construction — pin it anyway.
#[test]
fn with_stats_entry_point_shares_the_engine_accounting() {
    let stream = four_chunk_stream();
    let reader = ArrayReader::<f32>::open(&stream, ReaderConfig::default()).unwrap();
    let full = Region::new(&[0, 0], &[32, 32]);

    let (cold, req) = reader.read_region_with_stats(&full).unwrap();
    assert_eq!((req.chunks_touched, req.chunks_from_cache), (4, 0));
    let s = reader.stats();
    assert_eq!((s.cache_hits, s.cache_misses), (0, 4));

    let (warm, req) = reader.read_region_with_stats(&full).unwrap();
    assert_eq!((req.chunks_touched, req.chunks_from_cache), (4, 4));
    let s = reader.stats();
    assert_eq!((s.cache_hits, s.cache_misses), (4, 4));
    assert_eq!(warm.as_slice(), cold.as_slice());
}

/// A box over all four chunks, covering each in part: overlaps of
/// 13 × 14, 13 × 2, 3 × 14 and 3 × 2 samples of a 256-sample chunk
/// (71 %, 10 %, 16 % and 2 %).
fn straddling_box() -> Region {
    Region::new(&[3, 2], &[16, 16])
}

/// Without a cache nothing a decode produces is kept, so a read pays for
/// exactly what it delivers: every chunk it covers in part is a
/// sub-chunk decode, however large the overlap, and the decoded bytes
/// equal the delivered ones. A chunk covered whole decodes whole — and,
/// kept nowhere, again on the next read.
#[test]
fn an_uncached_reader_decodes_only_the_delivered_samples() {
    let stream = four_chunk_stream();
    let config = ReaderConfig {
        cache: CacheConfig { capacity_bytes: 0 },
        ..ReaderConfig::default()
    };
    let reader = ArrayReader::<f32>::open(&stream, config).unwrap();
    let region = straddling_box();
    let mut out = NdArray::<f32>::zeros(region.shape());
    let req = reader.read_region_into(&region, &mut out).unwrap();
    assert_eq!((req.chunks_touched, req.partial_decodes), (4, 4));
    let s = reader.stats();
    assert_eq!((s.cache_hits, s.cache_misses), (0, 4));
    assert_eq!((s.decodes, s.partial_decodes), (0, 4));
    assert_eq!(s.decoded_bytes, region.len() as u64 * 4, "decoded = delivered");

    let chunk0 = Region::new(&[0, 0], &[16, 16]);
    for _ in 0..2 {
        let req = reader.read_region_with_stats(&chunk0).unwrap().1;
        assert_eq!((req.chunks_from_cache, req.partial_decodes), (0, 0));
    }
    let s = reader.stats();
    assert_eq!((s.cache_hits, s.cache_misses), (0, 6));
    assert_eq!((s.decodes, s.partial_decodes), (2, 4));
    assert_eq!(s.decoded_bytes, (region.len() + 2 * chunk0.len()) as u64 * 4);
}

/// With a live cache the 1/8 rule decides, for every chain: an overlap
/// of at most an eighth of the chunk decodes as a sub-chunk region and is
/// not kept; a larger one decodes the whole chunk into the cache, where
/// the next read finds it. The warm and update paths rest on these
/// exact counts.
#[test]
fn a_caching_reader_decodes_whole_chunks_above_an_eighth() {
    let stream = four_chunk_stream();
    let reader = ArrayReader::<f32>::open(&stream, ReaderConfig::default()).unwrap();
    let region = straddling_box();
    // 13 × 2 and 3 × 2 are at most 32 of 256 samples; 13 × 14 and
    // 3 × 14 are not.
    let req = reader.read_region_with_stats(&region).unwrap().1;
    assert_eq!((req.chunks_from_cache, req.partial_decodes), (0, 2));
    let s = reader.stats();
    assert_eq!((s.cache_hits, s.cache_misses), (0, 4));
    assert_eq!((s.decodes, s.partial_decodes), (2, 2));
    assert_eq!(s.decoded_bytes, (2 * 256 + 13 * 2 + 3 * 2) * 4);

    // Again: the two whole chunks hit, the two small overlaps decode
    // their parts again.
    let req = reader.read_region_with_stats(&region).unwrap().1;
    assert_eq!((req.chunks_from_cache, req.partial_decodes), (2, 2));
    let s = reader.stats();
    assert_eq!((s.cache_hits, s.cache_misses), (2, 6));
    assert_eq!((s.decodes, s.partial_decodes), (2, 4));

    // Covered whole, the other two decode whole and stay.
    let full = Region::new(&[0, 0], &[32, 32]);
    let req = reader.read_region_with_stats(&full).unwrap().1;
    assert_eq!((req.chunks_from_cache, req.partial_decodes), (2, 0));
    let req = reader.read_region_with_stats(&full).unwrap().1;
    assert_eq!(req.chunks_from_cache, 4);
    let s = reader.stats();
    assert_eq!((s.cache_hits, s.cache_misses), (8, 8));
    assert_eq!((s.decodes, s.partial_decodes), (4, 4));
}

/// A dtype byte that names a real dtype — just not `T`'s — stays a
/// typed mismatch, with `expected` naming what the store holds.
#[test]
fn known_wrong_dtype_is_a_mismatch_naming_the_stored_dtype() {
    let stream = four_chunk_stream();
    match ArrayReader::<f64>::open(&stream, ReaderConfig::default()).map(|_| ()) {
        Err(CodecError::DtypeMismatch { expected, got }) => {
            assert_eq!(expected, "f32");
            assert_eq!(got, "f64");
        }
        other => panic!("expected DtypeMismatch, got {other:?}"),
    }
}

/// A dtype byte outside {0, 1} is container corruption. The old check
/// reported `DtypeMismatch {{ expected: "f64" }}` for any nonzero tag —
/// inventing a dtype the store never claimed. The stream is patched at
/// the dtype offset with its manifest CRC trailer recomputed, so the
/// corrupt tag (not the checksum) is what the open trips over.
#[test]
fn unknown_dtype_tag_is_corrupt_not_mismatch() {
    let mut stream = four_chunk_stream();
    // Manifest layout: magic(4) | version(1) | dtype(1) | …, with a
    // CRC32 trailer as the last 4 bytes before the payload region.
    let (_, payload_start) = Manifest::decode(&stream).unwrap();
    stream[5] = 7;
    let crc = crc32(&stream[..payload_start - 4]);
    stream[payload_start - 4..payload_start].copy_from_slice(&crc.to_le_bytes());
    for res in [
        ChunkedStore::open(&stream).map(|_| ()),
        ArrayReader::<f32>::open(&stream, ReaderConfig::default()).map(|_| ()),
        ArrayReader::<f64>::open(&stream, ReaderConfig::default()).map(|_| ()),
    ] {
        match res {
            Err(CodecError::Corrupt { context }) => assert_eq!(context, "dtype tag"),
            other => panic!("expected Corrupt {{ dtype tag }}, got {other:?}"),
        }
    }
}
