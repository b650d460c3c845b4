//! `read_region_le_into` is `read_region_into` with a different store
//! per run and nothing else: on every path through the region engine —
//! sub-chunk partial decodes, cold whole-chunk decodes, a warm/cold mix
//! and a fully cached read — the bytes it writes are the typed samples'
//! little-endian serialization, and it moves every reader counter by
//! exactly what the typed call moves it.

use eblcio_codec::{CodecError, CompressorId, ErrorBound};
use eblcio_data::{Element, NdArray, Shape};
use eblcio_serve::{ArrayReader, ReaderConfig, ReaderStats};
use eblcio_store::{ChunkedStore, Region};

/// The counting fields of [`ReaderStats`] (the two `*_seconds` sums are
/// wall-clock and differ run to run).
fn counts(s: &ReaderStats) -> [u64; 12] {
    [
        s.requests,
        s.chunks_requested,
        s.cache_hits,
        s.cache_misses,
        s.decodes,
        s.partial_decodes,
        s.decoded_bytes,
        s.prefetched,
        s.evictions,
        s.refreshes,
        s.invalidations,
        s.flight_waits,
    ]
}

fn delta(before: &ReaderStats, after: &ReaderStats) -> [u64; 12] {
    let (b, a) = (counts(before), counts(after));
    std::array::from_fn(|k| a[k] - b[k])
}

/// Runs one schedule of reads against two identical readers — one
/// through the typed call, one through the little-endian call — and
/// holds them to each other step by step.
fn le_assembly_matches_typed<T: Element>(codec: CompressorId) {
    let what = format!("{} {}", codec.instance().name(), T::NAME);
    // 24 × 40 × 48 in 8 × 16 × 16 chunks: a 3 × 3 × 3 grid whose middle
    // axis is clipped at the edge.
    let data = NdArray::<T>::from_fn(Shape::d3(24, 40, 48), |i| {
        T::from_f64(
            (i[0] as f64 * 0.31).sin() * 25.0 + (i[1] as f64 * 0.17).cos() * 9.0 + i[2] as f64 * 0.05,
        )
    });
    let stream = ChunkedStore::write(
        codec.instance().as_ref(),
        &data,
        ErrorBound::Relative(1e-3),
        Shape::d3(8, 16, 16),
        2,
    )
    .unwrap();
    let open = || ArrayReader::<T>::open(&stream, ReaderConfig::default()).unwrap();
    let (typed, le) = (open(), open());

    // A 2 × 2 × 2 box on a chunk corner: one sample from each of eight
    // chunks, far under the 1/8 partial-decode threshold, which every
    // chain decodes as a sub-chunk region.
    let corner = Region::new(&[7, 15, 15], &[2, 2, 2]);
    let middle = Region::new(&[2, 3, 5], &[12, 20, 30]);
    let whole = Region::full(data.shape());
    let steps = [
        ("corner, cold", corner),
        ("corner again", corner),
        ("middle, cold", middle),
        ("middle, warm", middle),
        ("whole, partly cached", whole),
        ("whole, warm", whole),
    ];
    for (step, region) in steps {
        let mut samples = NdArray::<T>::zeros(region.shape());
        let mut bytes = vec![0xA5u8; region.len() * T::BYTES];
        let (typed0, le0) = (typed.stats(), le.stats());
        let typed_req = typed.read_region_into(&region, &mut samples).unwrap();
        let le_req = le.read_region_le_into(&region, &mut bytes).unwrap();
        assert_eq!(bytes, samples.to_le_bytes(), "{what}, {step}: bytes");
        assert_eq!(le_req, typed_req, "{what}, {step}: request stats");
        let moved = delta(&le0, &le.stats());
        assert_eq!(moved, delta(&typed0, &typed.stats()), "{what}, {step}: reader stats");

        // Each step took the path its name says.
        let [_, touched, hits, misses, decodes, partials, ..] = moved;
        match step {
            "corner, cold" | "corner again" => {
                assert_eq!((partials, decodes, hits), (8, 0, 0), "{what}, {step}");
            }
            "middle, cold" => assert!(decodes > 0, "{what}, {step}"),
            "whole, partly cached" => assert!(hits > 0 && misses > 0, "{what}, {step}"),
            "whole, warm" => assert_eq!((hits, misses), (touched, 0), "{what}, {step}"),
            _ => {}
        }
    }

    // A buffer of the wrong length is refused before the engine runs.
    let before = le.stats();
    for len in [0, middle.len() * T::BYTES - 1, middle.len() * T::BYTES + T::BYTES] {
        assert!(
            matches!(
                le.read_region_le_into(&middle, &mut vec![0u8; len]),
                Err(CodecError::Corrupt { .. })
            ),
            "{what}: a {len}-byte buffer was accepted"
        );
    }
    assert_eq!(delta(&before, &le.stats()), [0; 12]);
}

#[test]
fn le_assembly_equals_typed_assembly_on_every_path() {
    for codec in [CompressorId::Szx, CompressorId::Zfp, CompressorId::Sz3] {
        le_assembly_matches_typed::<f32>(codec);
        le_assembly_matches_typed::<f64>(codec);
    }
}
