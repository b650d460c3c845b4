//! Integration tests for the chunked store: round-trips across every
//! codec and precision, edge chunks, partial reads, corruption
//! rejection, and the ε contract.

use eblcio_codec::{compress, header, ChainSpec, CompressorId, ErrorBound};
use eblcio_data::{max_rel_error, Element, NdArray, Shape};
use eblcio_store::{ChunkedStore, Region};
use proptest::prelude::*;

fn field<T: Element>(shape: Shape) -> NdArray<T> {
    NdArray::from_fn(shape, |i| {
        let v = (i[0] as f64 * 0.23).sin() * 40.0
            + (i.get(1).copied().unwrap_or(0) as f64 * 0.31).cos() * 15.0
            + i.get(2).copied().unwrap_or(0) as f64 * 0.5;
        T::from_f64(v)
    })
}

const EPS: f64 = 1e-3;
// Value-range ε check with the same hair of float slack the codec
// test-suite uses.
const SLACK: f64 = 1.0000001;

#[test]
fn full_roundtrip_all_codecs_f32() {
    let data = field::<f32>(Shape::d3(20, 12, 12));
    for id in CompressorId::ALL {
        let codec = id.instance();
        let stream = ChunkedStore::write(
            codec.as_ref(),
            &data,
            ErrorBound::Relative(EPS),
            Shape::d3(8, 8, 8),
            4,
        )
        .unwrap();
        let store = ChunkedStore::open(&stream).unwrap();
        assert_eq!(store.codec_id(), Some(id));
        assert_eq!(store.shape(), data.shape());
        let back = store.read_full::<f32>(4).unwrap();
        assert_eq!(back.shape(), data.shape());
        assert!(
            max_rel_error(&data, &back) <= EPS * SLACK,
            "{} broke the ε contract",
            id.name()
        );
    }
}

#[test]
fn full_roundtrip_all_codecs_f64() {
    let data = field::<f64>(Shape::d2(30, 25));
    for id in CompressorId::ALL {
        let codec = id.instance();
        let stream = ChunkedStore::write(
            codec.as_ref(),
            &data,
            ErrorBound::Relative(EPS),
            Shape::d2(7, 9),
            2,
        )
        .unwrap();
        let store = ChunkedStore::open(&stream).unwrap();
        let back = store.read_full::<f64>(2).unwrap();
        assert!(
            max_rel_error(&data, &back) <= EPS * SLACK,
            "{} broke the ε contract (f64)",
            id.name()
        );
    }
}

#[test]
fn single_chunk_reads_match_full_read() {
    let data = field::<f32>(Shape::d2(19, 13));
    let codec = CompressorId::Sz3.instance();
    let stream = ChunkedStore::write(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(8, 8),
        3,
    )
    .unwrap();
    let store = ChunkedStore::open(&stream).unwrap();
    let full = store.read_full::<f32>(1).unwrap();
    for i in 0..store.n_chunks() {
        let region = store.grid().chunk_region(i);
        let chunk = store.read_chunk::<f32>(i).unwrap();
        assert_eq!(chunk.shape(), region.shape(), "chunk {i}");
        // The chunk must be exactly the corresponding box of read_full.
        for off in 0..chunk.len() {
            let local = chunk.shape().unoffset(off);
            let global = [
                region.origin()[0] + local[0],
                region.origin()[1] + local[1],
            ];
            assert_eq!(chunk.as_slice()[off], full.get(&global), "chunk {i}");
        }
    }
}

#[test]
fn region_read_decodes_only_intersecting_chunks() {
    // 4×4×4 grid of 8³ chunks over a 32³ cube.
    let data = field::<f32>(Shape::d3(32, 32, 32));
    let codec = CompressorId::Szx.instance();
    let stream = ChunkedStore::write(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d3(8, 8, 8),
        4,
    )
    .unwrap();
    let store = ChunkedStore::open(&stream).unwrap();
    assert_eq!(store.n_chunks(), 64);

    // A region inside a single chunk: exactly one decode.
    let (one, stats) = store
        .read_region_with_stats::<f32>(&Region::new(&[9, 10, 11], &[4, 4, 4]))
        .unwrap();
    assert_eq!(stats.chunks_decoded, 1);
    assert_eq!(stats.chunks_total, 64);
    assert_eq!(one.shape(), Shape::d3(4, 4, 4));

    // A 2×2×2 block of chunks: eight decodes.
    let (_, stats) = store
        .read_region_with_stats::<f32>(&Region::new(&[4, 4, 4], &[8, 8, 8]))
        .unwrap();
    assert_eq!(stats.chunks_decoded, 8);
    assert!(stats.compressed_bytes_read < stream.len() as u64 / 4);

    // Values match a direct gather from the original within ε.
    let region = Region::new(&[3, 17, 5], &[13, 9, 20]);
    let got = store.read_region::<f32>(&region).unwrap();
    let want = NdArray::<f32>::from_fn(region.shape(), |i| {
        data.get(&[
            i[0] + region.origin()[0],
            i[1] + region.origin()[1],
            i[2] + region.origin()[2],
        ])
    });
    let range = data.value_range();
    for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
        assert!(((a - b).abs() as f64) <= EPS * SLACK * range);
    }
}

/// A region covering chunks in part reconstructs only the
/// intersections — measurably fewer samples than whole-chunk assembly —
/// on every preset, and stays bit-identical to it. A chunk the region
/// covers whole takes the whole-chunk path.
#[test]
fn small_region_uses_partial_decode_and_matches_whole_chunk_path() {
    let data = field::<f64>(Shape::d2(64, 64));
    // 2×2 grid of 32×32 chunks; the small region straddles two chunks
    // with intersections of 70 and 30 samples, the large one covers
    // chunk 1 whole and chunk 3 in part (32 × 8).
    let small = Region::new(&[20, 25], &[10, 10]);
    let large = Region::new(&[0, 32], &[40, 32]);
    for id in CompressorId::ALL {
        let codec = id.instance();
        let stream = ChunkedStore::write(
            codec.as_ref(),
            &data,
            ErrorBound::Relative(EPS),
            Shape::d2(32, 32),
            2,
        )
        .unwrap();
        let store = ChunkedStore::open(&stream).unwrap();
        for (region, partial, samples) in [(small, 2, 100), (large, 1, 1024 + 256)] {
            let (got, stats) = store.read_region_with_stats::<f64>(&region).unwrap();
            assert_eq!(stats.chunks_decoded, 2, "{}", id.name());
            assert_eq!(stats.partial_decodes, partial, "{}", id.name());
            assert_eq!(stats.samples_decoded, samples, "{}", id.name());

            // Bit-identical to serial whole-chunk assembly.
            let mut whole = NdArray::<f64>::zeros(region.shape());
            for i in 0..store.n_chunks() {
                let chunk_region = store.grid().chunk_region(i);
                if chunk_region.intersect(&region).is_none() {
                    continue;
                }
                let part = store.read_chunk::<f64>(i).unwrap();
                eblcio_store::scatter_chunk(&part, &chunk_region, &region, &mut whole);
            }
            for (a, b) in got.as_slice().iter().zip(whole.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", id.name());
            }
        }
    }
}

#[test]
fn non_divisible_edge_chunks() {
    // 13 is prime: every chunk boundary is clipped somewhere.
    let data = field::<f32>(Shape::d2(13, 13));
    let codec = CompressorId::Sz2.instance();
    let stream = ChunkedStore::write(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(5, 4),
        2,
    )
    .unwrap();
    let store = ChunkedStore::open(&stream).unwrap();
    assert_eq!(store.grid().counts(), &[3, 4]);
    let last = store.read_chunk::<f32>(store.n_chunks() - 1).unwrap();
    assert_eq!(last.shape(), Shape::d2(3, 1));
    let back = store.read_full::<f32>(2).unwrap();
    assert!(max_rel_error(&data, &back) <= EPS * SLACK);
}

#[test]
fn one_dimensional_store() {
    let data = field::<f32>(Shape::d1(1000));
    let codec = CompressorId::Zfp.instance();
    let stream = ChunkedStore::write(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d1(256),
        4,
    )
    .unwrap();
    let store = ChunkedStore::open(&stream).unwrap();
    assert_eq!(store.n_chunks(), 4);
    let (mid, stats) = store
        .read_region_with_stats::<f32>(&Region::new(&[500], &[10]))
        .unwrap();
    assert_eq!(stats.chunks_decoded, 1);
    assert_eq!(mid.len(), 10);
}

#[test]
fn corrupt_and_truncated_streams_rejected() {
    let data = field::<f32>(Shape::d2(16, 16));
    let codec = CompressorId::Sz3.instance();
    let stream = ChunkedStore::write(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(8, 8),
        1,
    )
    .unwrap();
    // Any truncation fails at open() or at the first chunk read.
    for cut in [0, 3, 10, stream.len() / 2, stream.len() - 1] {
        let r = ChunkedStore::open(&stream[..cut]);
        let failed = match r {
            Err(_) => true,
            Ok(s) => (0..s.n_chunks()).any(|i| s.read_chunk::<f32>(i).is_err()),
        };
        assert!(failed, "cut {cut}");
    }
    // Bad magic.
    let mut bad = stream.clone();
    bad[0] ^= 0xFF;
    assert!(ChunkedStore::open(&bad).is_err());
    // A flipped payload bit is caught by the chunk's own checksum.
    let mut bad = stream.clone();
    let last = bad.len() - 5;
    bad[last] ^= 0x01;
    let store = ChunkedStore::open(&bad).unwrap();
    assert!((0..store.n_chunks()).any(|i| store.read_chunk::<f32>(i).is_err()));
    // Dtype mismatch is typed, not garbled.
    let store = ChunkedStore::open(&stream).unwrap();
    assert!(store.read_full::<f64>(1).is_err());
    assert!(store.read_chunk::<f64>(0).is_err());
}

#[test]
fn per_chunk_quality_reports() {
    let data = field::<f32>(Shape::d2(32, 32));
    let codec = CompressorId::Qoz.instance();
    let stream = ChunkedStore::write(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(16, 16),
        2,
    )
    .unwrap();
    let store = ChunkedStore::open(&stream).unwrap();
    let reports = store.chunk_quality(&data).unwrap();
    assert_eq!(reports.len(), store.n_chunks());
    let range = data.value_range();
    for (i, r) in reports.iter().enumerate() {
        // Per-chunk max |D−D̂| honours the global-range ε.
        assert!(r.max_abs_error <= EPS * SLACK * range, "chunk {i}");
        assert!(r.compression_ratio > 1.0, "chunk {i}");
    }
    // The summed compressed bytes are consistent with the ratios.
    let total: u64 = store.chunk_lens().iter().sum();
    assert!(total < data.nbytes() as u64);
}

#[test]
fn mixed_codec_store_roundtrips_within_epsilon() {
    // The acceptance scenario: one store, several distinct chains
    // across chunks (presets and a custom chain), full and region reads
    // within the requested ε.
    let data = field::<f32>(Shape::d3(24, 16, 16));
    let chains = vec![
        ChainSpec::preset(CompressorId::Sz3),
        ChainSpec::preset(CompressorId::Szx),
        ChainSpec::parse("sz2+shuffle4+lz").unwrap(),
    ];
    let grid_chunks = 3 * 2 * 2; // 8³ chunks over 24×16×16
    let picks: Vec<usize> = (0..grid_chunks).map(|i| i % chains.len()).collect();
    let stream = ChunkedStore::write_mixed(
        &chains,
        &picks,
        &data,
        ErrorBound::Relative(EPS),
        Shape::d3(8, 8, 8),
        4,
    )
    .unwrap();

    let store = ChunkedStore::open(&stream).unwrap();
    assert_eq!(store.n_chunks(), grid_chunks);
    assert_eq!(store.chains().len(), 3);
    assert_eq!(store.codec_id(), None);
    let distinct: std::collections::HashSet<String> =
        (0..store.n_chunks()).map(|i| store.chunk_chain(i).label()).collect();
    assert!(distinct.len() >= 2, "store must actually mix codecs");
    for (i, &p) in picks.iter().enumerate() {
        assert_eq!(store.chunk_chain(i), &chains[p], "chunk {i}");
    }

    // Full read honours the global-range ε.
    let back = store.read_full::<f32>(4).unwrap();
    assert!(max_rel_error(&data, &back) <= EPS * SLACK);

    // Region reads crossing chain boundaries honour it too.
    let region = Region::new(&[4, 4, 4], &[8, 8, 8]);
    let (got, stats) = store.read_region_with_stats::<f32>(&region).unwrap();
    assert!(stats.chunks_decoded < store.n_chunks());
    let range = data.value_range();
    for off in 0..got.len() {
        let local = got.shape().unoffset(off);
        let global = [
            local[0] + region.origin()[0],
            local[1] + region.origin()[1],
            local[2] + region.origin()[2],
        ];
        let err = (data.get(&global) - got.as_slice()[off]).abs() as f64;
        assert!(err <= EPS * SLACK * range);
    }

    // Per-chunk quality reports work across mixed chains.
    let reports = store.chunk_quality(&data).unwrap();
    assert_eq!(reports.len(), store.n_chunks());
    for r in &reports {
        assert!(r.max_abs_error <= EPS * SLACK * range);
    }
}

#[test]
fn adaptive_write_picks_by_estimated_cr_and_roundtrips() {
    // Two-regime field: smooth rows then hard-to-predict rows. The
    // adaptive writer prices SZ3 vs SZx per chunk; whatever it picks,
    // the result must be a valid (possibly mixed) store within ε.
    let mut x = 0x9E3779B97F4A7C15u64;
    let data = NdArray::<f32>::from_fn(Shape::d2(32, 64), |i| {
        if i[0] < 16 {
            (i[1] as f32 * 0.1).sin() * 50.0 + i[0] as f32
        } else {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f32
        }
    });
    let candidates = vec![
        ChainSpec::preset(CompressorId::Sz3),
        ChainSpec::preset(CompressorId::Szx),
    ];
    let stream = ChunkedStore::write_adaptive(
        &candidates,
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(8, 64),
        2,
    )
    .unwrap();
    let store = ChunkedStore::open(&stream).unwrap();
    assert_eq!(store.n_chunks(), 4);
    // Every selected chain is one of the candidates.
    for i in 0..store.n_chunks() {
        assert!(candidates.contains(store.chunk_chain(i)), "chunk {i}");
    }
    let back = store.read_full::<f32>(2).unwrap();
    assert!(max_rel_error(&data, &back) <= EPS * SLACK);

    // The smooth half should be priced in SZ3's favour (big CR gap on
    // interpolable data).
    assert_eq!(store.chunk_chain(0), &ChainSpec::preset(CompressorId::Sz3));
}

#[test]
fn mixed_write_rejects_bad_picks() {
    let data = field::<f32>(Shape::d2(16, 16));
    let chains = vec![ChainSpec::preset(CompressorId::Szx)];
    // Wrong pick count.
    assert!(ChunkedStore::write_mixed(
        &chains,
        &[0],
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(8, 8),
        1,
    )
    .is_err());
    // Pick out of range.
    assert!(ChunkedStore::write_mixed(
        &chains,
        &[0, 0, 0, 1],
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(8, 8),
        1,
    )
    .is_err());
    // No chains at all.
    assert!(ChunkedStore::write_adaptive(
        &[],
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(8, 8),
        1,
    )
    .is_err());
}

#[test]
fn unused_candidates_are_dropped_from_the_manifest() {
    let data = field::<f32>(Shape::d2(16, 16));
    let chains = vec![
        ChainSpec::preset(CompressorId::Sz3),
        ChainSpec::preset(CompressorId::Szx),
        ChainSpec::preset(CompressorId::Zfp),
    ];
    // Only ever pick chain 2.
    let stream = ChunkedStore::write_mixed(
        &chains,
        &[2, 2, 2, 2],
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(8, 8),
        1,
    )
    .unwrap();
    let store = ChunkedStore::open(&stream).unwrap();
    assert_eq!(store.chains(), &[ChainSpec::preset(CompressorId::Zfp)]);
    assert_eq!(store.codec_id(), Some(CompressorId::Zfp));
}

#[test]
fn sharded_store_roundtrips_bit_identically_with_unsharded() {
    let data = field::<f32>(Shape::d3(20, 12, 12));
    let codec = CompressorId::Sz3.instance();
    let plain = ChunkedStore::write(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d3(8, 8, 8),
        4,
    )
    .unwrap();
    let sharded = ChunkedStore::write_sharded(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d3(8, 8, 8),
        4,
        4,
    )
    .unwrap();

    let a = ChunkedStore::open(&plain).unwrap();
    let b = ChunkedStore::open(&sharded).unwrap();
    assert!(a.sharding().is_none());
    assert!(b.sharding().is_some());
    assert_eq!(a.n_chunks(), b.n_chunks());
    assert_eq!(b.sharding().unwrap().n_shards(), a.n_chunks().div_ceil(4));
    // Chunk payloads are byte-identical: sharding only changes packing.
    for i in 0..a.n_chunks() {
        assert_eq!(
            a.chunk_payload(i).unwrap(),
            b.chunk_payload(i).unwrap(),
            "chunk {i}"
        );
    }
    // Every read path decodes the same bits.
    let fa = a.read_full::<f32>(2).unwrap();
    let fb = b.read_full::<f32>(2).unwrap();
    assert_eq!(fa.as_slice(), fb.as_slice());
    let region = Region::new(&[3, 2, 5], &[10, 9, 6]);
    let ra = a.read_region::<f32>(&region).unwrap();
    let rb = b.read_region::<f32>(&region).unwrap();
    assert_eq!(ra.as_slice(), rb.as_slice());
}

#[test]
fn sharded_store_region_stats_match_unsharded() {
    let data = field::<f32>(Shape::d2(32, 32));
    let codec = CompressorId::Szx.instance();
    let sharded = ChunkedStore::write_sharded(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(8, 8),
        3,
        2,
    )
    .unwrap();
    let store = ChunkedStore::open(&sharded).unwrap();
    let (_, stats) = store
        .read_region_with_stats::<f32>(&Region::new(&[0, 0], &[8, 8]))
        .unwrap();
    assert_eq!(stats.chunks_decoded, 1);
    assert_eq!(stats.chunks_total, 16);
}

#[test]
fn sharded_corruption_caught_by_slot_crc() {
    let data = field::<f32>(Shape::d2(16, 16));
    let codec = CompressorId::Szx.instance();
    let mut stream = ChunkedStore::write_sharded(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(8, 8),
        2,
        1,
    )
    .unwrap();
    // Flip a bit in the very last payload byte (inside the last shard).
    let n = stream.len();
    stream[n - 1] ^= 0x20;
    let store = ChunkedStore::open(&stream).unwrap();
    let last = store.n_chunks() - 1;
    assert!(matches!(
        store.chunk_payload(last),
        Err(eblcio_codec::CodecError::ChecksumMismatch)
    ));
    assert!(store.read_chunk::<f32>(last).is_err());
    // Chunks in intact shards still read fine.
    assert!(store.read_chunk::<f32>(0).is_ok());
}

#[test]
fn out_of_range_chunk_index_is_typed_error() {
    let data = field::<f32>(Shape::d2(16, 16));
    let codec = CompressorId::Szx.instance();
    let stream = ChunkedStore::write(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d2(8, 8),
        1,
    )
    .unwrap();
    let store = ChunkedStore::open(&stream).unwrap();
    assert!(store.chunk_payload(store.n_chunks()).is_err());
    assert!(store.read_chunk::<f32>(usize::MAX).is_err());
}

/// The parallel region read must produce bit-identical output to a
/// serial chunk-by-chunk assembly of the same region.
#[test]
fn parallel_region_read_matches_serial_assembly() {
    let data = field::<f64>(Shape::d3(24, 18, 10));
    let codec = CompressorId::Sz2.instance();
    let stream = ChunkedStore::write(
        codec.as_ref(),
        &data,
        ErrorBound::Relative(EPS),
        Shape::d3(7, 5, 4),
        4,
    )
    .unwrap();
    let store = ChunkedStore::open(&stream).unwrap();
    let region = Region::new(&[2, 3, 1], &[20, 11, 8]);
    let (par, stats) = store.read_region_with_stats::<f64>(&region).unwrap();

    // Serial reference: decode each intersecting chunk alone and
    // scatter it one at a time.
    let mut serial = NdArray::<f64>::zeros(region.shape());
    let mut decoded = 0;
    for i in 0..store.n_chunks() {
        let chunk_region = store.grid().chunk_region(i);
        if chunk_region.intersect(&region).is_none() {
            continue;
        }
        decoded += 1;
        let part = store.read_chunk::<f64>(i).unwrap();
        eblcio_store::scatter_chunk(&part, &chunk_region, &region, &mut serial);
    }
    assert_eq!(stats.chunks_decoded, decoded);
    assert_eq!(par.as_slice(), serial.as_slice());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The store resolves ε against the *global* value range, exactly
    /// like whole-array serial compression: the manifest bound, every
    /// chunk's own stream header bound, and the serial stream's header
    /// bound must all agree — and the reconstruction must honour it.
    #[test]
    fn per_chunk_epsilon_equals_whole_array_epsilon(
        d0 in 4usize..24,
        d1 in 4usize..24,
        c0 in 2usize..10,
        c1 in 2usize..10,
        eps_exp in 2u32..5,
        codec_pick in 0usize..5,
        seed in any::<u64>(),
    ) {
        let eps = 10f64.powi(-(eps_exp as i32));
        let shape = Shape::d2(d0, d1);
        let mut x = seed | 1;
        let data = NdArray::<f32>::from_fn(shape, |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1_000_001) as f32 / 500.0 - 1000.0
        });
        let id = CompressorId::ALL[codec_pick];
        let codec = id.instance();

        let chunked = ChunkedStore::write(
            codec.as_ref(), &data, ErrorBound::Relative(eps), Shape::d2(c0, c1), 2,
        ).unwrap();
        let serial = compress(codec.as_ref(), &data, ErrorBound::Relative(eps)).unwrap();

        let store = ChunkedStore::open(&chunked).unwrap();
        let (serial_header, _) = header::read_stream(&serial).unwrap();
        // One ε, resolved once, everywhere.
        prop_assert_eq!(store.abs_bound(), serial_header.abs_bound);
        for i in 0..store.n_chunks() {
            let (h, _) = header::read_stream(store.chunk_payload(i).unwrap()).unwrap();
            prop_assert_eq!(h.abs_bound, store.abs_bound(), "chunk {}", i);
        }
        // And the contract holds end to end.
        let back = store.read_full::<f32>(2).unwrap();
        prop_assert!(max_rel_error(&data, &back) <= eps * SLACK);
    }
}

/// The region engine behind every store read: `read_full` at widths 1,
/// 2 and 4 on a dimension-0 slab grid (the shape of the threaded
/// "OpenMP mode" decompression that prices Fig. 10), and `read_region`
/// of a non-aligned box over ragged edge chunks, are bit-identical to a
/// serial `scatter_chunk_into` assembly of `read_chunk` results, with
/// the same stats at every width. Repeated, so workers meet on a band.
#[test]
fn banded_store_reads_match_serial_assembly_at_every_width() {
    let serial = |store: &ChunkedStore, region: &Region| {
        let mut out = NdArray::<f32>::zeros(region.shape());
        for i in store.grid().chunks_intersecting(region) {
            let part = store.read_chunk::<f32>(i).unwrap();
            let chunk_region = store.grid().chunk_region(i);
            eblcio_store::scatter_chunk_into(&part, &chunk_region, region, out.as_mut_slice());
        }
        out
    };
    let bits = |a: &NdArray<f32>| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let codec = CompressorId::Szx.instance();
    let write = |shape, chunk| {
        let stream = ChunkedStore::write(codec.as_ref(), &field::<f32>(shape), ErrorBound::Relative(EPS), chunk, 2);
        ChunkedStore::open(&stream.unwrap()).unwrap()
    };

    let slabs = write(Shape::d3(64, 24, 24), Shape::d3(2, 24, 24));
    assert!((0..slabs.n_chunks()).all(|i| slabs.grid().chunk_is_slab(i)));
    let want = bits(&serial(&slabs, &Region::full(slabs.shape())));
    for threads in [1, 2, 4] {
        for round in 0..20 {
            let got = slabs.read_full::<f32>(threads).unwrap();
            assert!(bits(&got) == want, "read_full at width {threads}, round {round}");
        }
    }

    let ragged = write(Shape::d3(61, 23, 19), Shape::d3(8, 6, 5));
    let region = Region::new(&[3, 1, 2], &[55, 21, 16]);
    let want = bits(&serial(&ragged, &region));
    let (_, want_stats) = ragged.read_region_with_stats::<f32>(&region).unwrap();
    assert!(want_stats.partial_decodes > 0 && want_stats.partial_decodes < want_stats.chunks_decoded);
    for threads in [1, 2, 4] {
        let pool = eblcio_codec::parallel::pool_for(threads).unwrap();
        for round in 0..20 {
            let (got, stats) = pool.install(|| ragged.read_region_with_stats::<f32>(&region)).unwrap();
            assert!(bits(&got) == want, "read_region at width {threads}, round {round}");
            assert_eq!(stats, want_stats, "width {threads}");
        }
    }
}
