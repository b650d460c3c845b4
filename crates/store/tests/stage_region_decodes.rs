//! Staging a region update decodes only the chunks the region covers in
//! part: a chunk it covers whole has every sample overwritten, so it
//! starts from zeros instead of its decoded old content.
//!
//! Decodes are counted on the chain's process-global decode histogram,
//! so this binary holds exactly one `#[test]`: no other test can decode
//! an SZx chunk inside the counted window.

use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_data::{NdArray, Shape};
use eblcio_store::{MutableStore, Region};

fn szx_decodes() -> u64 {
    eblcio_obs::global().histogram("eblcio_codec_szx_decode_ns").count()
}

#[test]
fn staging_decodes_only_partly_covered_chunks() {
    let data = NdArray::<f32>::from_fn(Shape::d2(32, 48), |i| {
        (i[0] as f32 * 0.3).sin() * 12.0 + i[1] as f32 * 0.5
    });
    let codec = CompressorId::Szx.instance();
    let bound = ErrorBound::Relative(1e-3);
    let mut store = MutableStore::create(codec.as_ref(), &data, bound, Shape::d2(16, 16), 2).unwrap();
    let abs = store.current().unwrap().abs_bound();

    // Chunk-aligned: rows 0..16 × columns 16..48 are chunks 1 and 2,
    // whole.
    let aligned = Region::new(&[0, 16], &[16, 32]);
    let patch = NdArray::<f32>::from_fn(aligned.shape(), |i| (i[0] * 32 + i[1]) as f32 * 0.25);
    let before = szx_decodes();
    let stats = store.update_region(&aligned, &patch, 2).unwrap();
    assert_eq!(stats.chunks_written, 2);
    assert_eq!(szx_decodes(), before, "a wholly covered chunk was decoded");

    // The patch landed within the bound, and the chunk beside it kept
    // its samples.
    let after = store.current().unwrap();
    let got = after.read_region::<f32>(&aligned).unwrap();
    for (g, p) in got.as_slice().iter().zip(patch.as_slice()) {
        assert!(f64::from((g - p).abs()) <= abs * 1.000_000_1, "{g} vs {p}");
    }
    let left = Region::new(&[0, 0], &[16, 16]);
    let kept = after.read_region::<f32>(&left).unwrap();
    let orig = eblcio_store::gather(&data, &left);
    for (k, o) in kept.as_slice().iter().zip(orig.as_slice()) {
        assert!(f64::from((k - o).abs()) <= abs * 1.000_000_1, "{k} vs {o}");
    }

    // Not aligned: two chunks covered in part, so two decodes.
    let ragged = Region::new(&[20, 10], &[4, 12]);
    let patch = NdArray::<f32>::from_fn(ragged.shape(), |_| -3.0);
    let before = szx_decodes();
    store.update_region(&ragged, &patch, 2).unwrap();
    assert_eq!(szx_decodes(), before + 2, "each partly covered chunk decodes once");
}
