//! Serving mutable stores: write-through refresh, per-chunk cache
//! invalidation, stale-hit impossibility, and the reader/writer
//! concurrency stress test (readers pinned on generation G while G+1
//! publishes and the reader refreshes — no request may ever observe a
//! mix of generations).

use eblcio_codec::{CodecError, CompressorId, ErrorBound};
use eblcio_data::{NdArray, Shape};
use eblcio_serve::{ArrayReader, CacheConfig, ReaderConfig};
use eblcio_store::{gather, ChunkedStore, MutableStore, Region};
use std::sync::atomic::{AtomicBool, Ordering};

fn field(shape: Shape) -> NdArray<f32> {
    NdArray::from_fn(shape, |i| {
        (i[0] as f32 * 0.23).sin() * 40.0 + (i[1] as f32 * 0.31).cos() * 15.0
    })
}

fn mutable_store(shape: Shape, chunk: Shape) -> MutableStore {
    let codec = CompressorId::Szx.instance();
    MutableStore::create(
        codec.as_ref(),
        &field(shape),
        ErrorBound::Relative(1e-3),
        chunk,
        2,
    )
    .unwrap()
}

/// Satellite regression: after `refresh()`, a stale cache hit is
/// impossible — the rewritten chunk must come back with the new
/// generation's bytes even though the old decode is still resident
/// under its old key.
#[test]
fn stale_hit_impossible_after_refresh() {
    let mut store = mutable_store(Shape::d2(32, 32), Shape::d2(16, 16));
    let reader = ArrayReader::<f32>::serve(&store, ReaderConfig::default()).unwrap();
    let region = Region::new(&[0, 0], &[16, 16]);

    // Warm chunk 0 under generation 1.
    let old = reader.read_region(&region).unwrap();

    let patch = NdArray::<f32>::from_fn(Shape::d2(16, 16), |_| 123.0);
    store.update_region(&region, &patch, 2).unwrap();
    let r = reader.refresh_from(&store).unwrap();
    assert_eq!((r.from_generation, r.to_generation), (1, 2));
    assert_eq!(r.chunks_changed, 1);
    assert_eq!(r.invalidated, 1);

    // The read after refresh must match an uncached read of gen 2.
    let served = reader.read_region(&region).unwrap();
    let direct = store
        .current()
        .unwrap()
        .read_region::<f32>(&region)
        .unwrap();
    assert_eq!(served.as_slice(), direct.as_slice());
    assert_ne!(served.as_slice(), old.as_slice());

    let stats = reader.stats();
    assert_eq!(stats.refreshes, 1);
    assert_eq!(stats.invalidations, 1);
}

/// Refresh evicts exactly the changed chunks; everything else stays
/// warm (content fingerprints make untouched entries carry over).
#[test]
fn refresh_invalidates_only_changed_chunks() {
    let mut store = mutable_store(Shape::d2(64, 64), Shape::d2(16, 16));
    let n_chunks = store.current().unwrap().n_chunks();
    assert_eq!(n_chunks, 16);
    let reader = ArrayReader::<f32>::serve(&store, ReaderConfig::default()).unwrap();

    // Warm the whole array.
    let all = Region::new(&[0, 0], &[64, 64]);
    reader.read_region(&all).unwrap();
    assert_eq!(reader.cache_stats().resident_chunks, 16);

    // Rewrite a 2×2 block of chunks.
    let region = Region::new(&[16, 16], &[32, 32]);
    let patch = NdArray::<f32>::from_fn(Shape::d2(32, 32), |_| -7.0);
    let stats = store.update_region(&region, &patch, 2).unwrap();
    assert_eq!(stats.chunks_written, 4);

    let r = reader.refresh_from(&store).unwrap();
    assert_eq!(r.chunks_changed, 4);
    assert_eq!(r.invalidated, 4, "only rewritten chunks are evicted");
    assert_eq!(reader.cache_stats().resident_chunks, 12);

    // A full read decodes exactly the 4 invalidated chunks again and
    // serves the other 12 from cache.
    let decodes_before = reader.stats().decodes;
    let (served, req) = reader.read_region_with_stats(&all).unwrap();
    assert_eq!(req.chunks_from_cache, 12);
    assert_eq!(reader.stats().decodes, decodes_before + 4);
    let direct = store.current().unwrap().read_full::<f32>(2).unwrap();
    assert_eq!(served.as_slice(), direct.as_slice());
}

/// Compaction changes layout but not content: after compact + refresh,
/// nothing is invalidated and the cache stays fully warm.
#[test]
fn compaction_refresh_keeps_cache_warm() {
    let mut store = mutable_store(Shape::d2(32, 32), Shape::d2(16, 16));
    let patch = NdArray::<f32>::from_fn(Shape::d2(8, 8), |_| 2.0);
    store
        .update_region(&Region::new(&[0, 0], &[8, 8]), &patch, 1)
        .unwrap();

    let reader = ArrayReader::<f32>::serve(&store, ReaderConfig::default()).unwrap();
    let all = Region::new(&[0, 0], &[32, 32]);
    reader.read_region(&all).unwrap();
    let decodes = reader.stats().decodes;

    store.compact().unwrap();
    let r = reader.refresh_from(&store).unwrap();
    assert_eq!(r.chunks_changed, 0, "compaction rewrote no content");
    assert_eq!(r.invalidated, 0);

    let (served, req) = reader.read_region_with_stats(&all).unwrap();
    assert_eq!(req.chunks_from_cache, req.chunks_touched, "cache stayed warm");
    assert_eq!(reader.stats().decodes, decodes);
    let direct = store.current().unwrap().read_full::<f32>(1).unwrap();
    assert_eq!(served.as_slice(), direct.as_slice());
}

#[test]
fn refresh_rejects_mismatched_geometry_and_dtype() {
    let store = mutable_store(Shape::d2(32, 32), Shape::d2(16, 16));
    let reader = ArrayReader::<f32>::serve(&store, ReaderConfig::default()).unwrap();

    let other = mutable_store(Shape::d2(16, 16), Shape::d2(8, 8));
    assert!(matches!(
        reader.refresh(other.current().unwrap()),
        Err(CodecError::Corrupt { context: "refresh store geometry" })
    ));

    // A static (non-generational) store of the *same* geometry is
    // rejected too: with no fingerprints to diff, refreshing onto it
    // could alias cached content from the old store.
    let codec = CompressorId::Szx.instance();
    let static_same_geometry = ChunkedStore::write(
        codec.as_ref(),
        &field(Shape::d2(32, 32)),
        ErrorBound::Relative(1e-3),
        Shape::d2(16, 16),
        1,
    )
    .unwrap();
    assert!(matches!(
        reader.refresh(ChunkedStore::open(&static_same_geometry).unwrap()),
        Err(CodecError::Corrupt { context: "refresh target is not generational" })
    ));
    let f64_stream = ChunkedStore::write(
        codec.as_ref(),
        &NdArray::<f64>::from_fn(Shape::d2(32, 32), |i| i[0] as f64),
        ErrorBound::Relative(1e-3),
        Shape::d2(16, 16),
        1,
    )
    .unwrap();
    assert!(matches!(
        reader.refresh(ChunkedStore::open(&f64_stream).unwrap()),
        Err(CodecError::DtypeMismatch { .. })
    ));
}

/// The satellite stress test: N reader threads hammer overlapping
/// regions while the writer publishes generation G+1 and refreshes the
/// shared reader mid-flight. Every single read must equal generation
/// G's data or generation G+1's data *in its entirety* — the update
/// rewrites every chunk with a recognizably different field, so any
/// mixed-generation assembly would match neither.
#[test]
fn concurrent_readers_never_observe_mixed_generations() {
    let shape = Shape::d2(48, 48);
    let mut store = mutable_store(shape, Shape::d2(16, 16));
    let reader = ArrayReader::<f32>::serve(
        &store,
        ReaderConfig {
            threads: 2,
            cache: CacheConfig::default(),
        },
    )
    .unwrap();

    let gen_a = store.current().unwrap().read_full::<f32>(2).unwrap();
    // Generation 2: every chunk rewritten, far outside gen 1's range.
    let patch = NdArray::<f32>::from_fn(shape, |i| 1000.0 + i[0] as f32 + i[1] as f32);
    let full = Region::new(&[0, 0], &[48, 48]);

    const THREADS: usize = 8;
    const ROUNDS: usize = 40;
    let done = AtomicBool::new(false);
    let mut mixed = 0usize;

    std::thread::scope(|s| {
        let reader_ref = &reader;
        let gen_a_ref = &gen_a;
        let done_ref = &done;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut observed_new = false;
                    for r in 0..ROUNDS {
                        let o0 = (t * 5 + r) % 32;
                        let o1 = (t * 7 + r * 3) % 32;
                        let region =
                            Region::new(&[o0, o1], &[(48 - o0).min(17), (48 - o1).min(13)]);
                        let got = reader_ref.read_region(&region).unwrap();
                        let want_a = gather(gen_a_ref, &region);
                        if got.as_slice() == want_a.as_slice() {
                            continue;
                        }
                        // Not generation 1 — must be generation 2,
                        // entirely. (The asserting thread re-derives
                        // gen 2 lazily from the updated store below.)
                        observed_new = true;
                        assert!(
                            got.as_slice().iter().all(|&v| v >= 999.0),
                            "thread {t} round {r}: mixed-generation read"
                        );
                        if done_ref.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    observed_new
                })
            })
            .collect();

        // Publish generation 2 and refresh the shared reader while the
        // readers are mid-flight.
        store.update_region(&full, &patch, 2).unwrap();
        let r = reader.refresh_from(&store).unwrap();
        assert_eq!(r.chunks_changed, 9, "every chunk was rewritten");
        done.store(true, Ordering::Relaxed);

        for h in handles {
            if h.join().unwrap() {
                mixed += 1;
            }
        }
    });

    // After the dust settles the reader serves generation 2 exactly.
    let gen_b = store.current().unwrap().read_full::<f32>(2).unwrap();
    let served = reader.read_region(&full).unwrap();
    assert_eq!(served.as_slice(), gen_b.as_slice());
    assert_eq!(reader.generation(), 2);
    // `mixed` here counts threads that saw the new generation — allowed
    // to be anything from 0 to THREADS depending on scheduling; the
    // assertion that matters ran inside the loop.
    let _ = mixed;
}

/// Readers holding the *snapshot* (not the reader handle) are immune to
/// publishes entirely: snapshot isolation at the store layer.
#[test]
fn pinned_snapshot_is_bit_stable_across_publish_and_compact() {
    let mut store = mutable_store(Shape::d2(32, 32), Shape::d2(16, 16));
    let pinned = store.current().unwrap();
    let want = pinned.read_full::<f32>(1).unwrap();

    let patch = NdArray::<f32>::from_fn(Shape::d2(32, 32), |_| -3.0);
    store
        .update_region(&Region::new(&[0, 0], &[32, 32]), &patch, 2)
        .unwrap();
    store.compact().unwrap();

    let still = pinned.read_full::<f32>(1).unwrap();
    assert_eq!(still.as_slice(), want.as_slice());
}

/// The update-while-serving cycle at every width: publish a
/// chunk-aligned slab, then read a box holding the slab whole and a
/// sliver of each neighbouring plane. The read decodes exactly the
/// invalidated chunks, equals an uncached read of the new generation
/// bit for bit — so every band of every decoded piece reached the
/// output, also the bands another worker was filling when the piece
/// arrived — and leaves the box all hits. Many rounds per width, so the
/// workers' pieces meet in the output's bands in many orders.
#[test]
fn a_slab_publish_redecodes_exactly_its_chunks_at_every_width() {
    let shape = Shape::d3(64, 64, 64);
    let chunk = Shape::d3(8, 16, 16);
    // Chunk plane 3 (rows 24..32) is the slab: 16 chunks.
    let slab = Region::new(&[24, 0, 0], &[8, 64, 64]);
    let slab_chunks = 16;
    let overlap = Region::new(&[22, 0, 0], &[12, 64, 64]);
    for threads in [1usize, 2, 4] {
        let mut store = mutable_store(shape, chunk);
        let reader = ArrayReader::<f32>::serve(
            &store,
            ReaderConfig {
                threads,
                ..ReaderConfig::default()
            },
        )
        .unwrap();
        reader.read_region(&Region::full(shape)).unwrap();
        for round in 0..40u32 {
            let scale = 1.0 + round as f32 * 0.01;
            let mut patch = gather(&field(shape), &slab);
            for v in patch.as_mut_slice() {
                *v *= scale;
            }
            store.update_region(&slab, &patch, threads).unwrap();
            let r = reader.refresh_from(&store).unwrap();
            assert_eq!(r.invalidated, slab_chunks, "{threads} threads, round {round}");

            let before = reader.stats();
            let (got, stats) = reader.read_region_with_stats(&overlap).unwrap();
            let after = reader.stats();
            let want = store.current().unwrap().read_region::<f32>(&overlap).unwrap();
            assert!(
                got.as_slice() == want.as_slice(),
                "{threads} threads, round {round}: the box differs from the store's"
            );
            assert_eq!(stats.chunks_touched, 3 * slab_chunks);
            assert_eq!(stats.chunks_touched - stats.chunks_from_cache, slab_chunks);
            assert_eq!(stats.partial_decodes, 0);
            assert_eq!(after.decodes - before.decodes, slab_chunks as u64);

            let (again, stats) = reader.read_region_with_stats(&overlap).unwrap();
            assert_eq!(stats.chunks_from_cache, stats.chunks_touched);
            assert!(again.as_slice() == want.as_slice());
        }
    }
}
