//! The SZ-family encode tail allocates no table per chunk: after one
//! warm-up, compressing a benchmark-sized chunk on one thread takes a
//! handful of small blocks (the streams a call hands back and their
//! framing), and nothing the size of a Huffman census or the LZ match
//! finder's hash chains — those live in the thread's codec scratch.
//! SZx takes only its output (grown in place) and the framing: it packs
//! codes straight into the output, with no per-block buffer.
//!
//! The binary runs under `largest_allocation`, which counts, per
//! thread, the blocks allocated and the largest one.

mod largest_allocation;

use eblcio_codec::{compress_view, CompressorId, ErrorBound};
use eblcio_data::{Element, NdArray, Shape};
use largest_allocation::allocations;

/// Most blocks one warm chunk encode may allocate.
const MAX_BLOCKS: usize = 5;
/// No block of a warm chunk encode may be this large.
const TABLE_BYTES: usize = 64 << 10;

#[test]
fn the_sz_family_encode_tail_allocates_no_table_per_chunk() {
    // One chunk of the benchmark's S3D-like dump: [1, 32, 32, 32] f64.
    let chunk = NdArray::<f64>::from_fn(Shape::d4(1, 32, 32, 32), |i| {
        let (x, y, z) = (i[1] as f64, i[2] as f64, i[3] as f64);
        300.0 + 40.0 * (0.11 * x).sin() * (0.07 * y).cos() + 3.0 * (0.23 * z).sin() + 0.01 * x * z
    });
    let bound = ErrorBound::Absolute(1e-3 * chunk.value_range());
    for id in [CompressorId::Sz2, CompressorId::Sz3, CompressorId::Qoz] {
        let codec = id.instance();
        let warm = compress_view(codec.as_ref(), chunk.view(), bound).unwrap();
        for call in 0..3 {
            let (stream, blocks, largest) =
                allocations(|| compress_view(codec.as_ref(), chunk.view(), bound).unwrap());
            let name = id.name();
            assert_eq!(stream, warm, "{name}: the stream must not depend on the scratch state");
            assert!(
                blocks <= MAX_BLOCKS && largest < TABLE_BYTES,
                "{name} call {call}: {blocks} blocks (at most {MAX_BLOCKS}), \
                 the largest {largest} B (under {TABLE_BYTES} B)"
            );
        }
    }
}

/// Most blocks one warm SZx chunk encode may allocate: the output, its
/// growth, and the framed stream.
const SZX_MAX_BLOCKS: usize = 3;

/// A warm SZx encode of `chunk` allocates at most its output and
/// framing, and writes the warm stream.
fn szx_allocates_only_its_output<T: Element>(chunk: &NdArray<T>) {
    let codec = CompressorId::Szx.instance();
    let bound = ErrorBound::Absolute(1e-3 * chunk.value_range());
    let warm = compress_view(codec.as_ref(), chunk.view(), bound).unwrap();
    for call in 0..3 {
        let (stream, blocks, largest) =
            allocations(|| compress_view(codec.as_ref(), chunk.view(), bound).unwrap());
        let name = T::NAME;
        assert_eq!(stream, warm, "{name}: the stream must not depend on the scratch state");
        assert!(
            blocks <= SZX_MAX_BLOCKS && largest < TABLE_BYTES,
            "SZx {name} call {call}: {blocks} blocks (at most {SZX_MAX_BLOCKS}), \
             the largest {largest} B (under {TABLE_BYTES} B)"
        );
    }
}

#[test]
fn the_szx_encode_allocates_only_its_output() {
    // The benchmark's S3D-like dump chunk, and an NYX-like f32 chunk of
    // the update workload's shape.
    szx_allocates_only_its_output(&NdArray::<f64>::from_fn(Shape::d4(1, 32, 32, 32), |i| {
        let (x, y, z) = (i[1] as f64, i[2] as f64, i[3] as f64);
        300.0 + 40.0 * (0.11 * x).sin() * (0.07 * y).cos() + 3.0 * (0.23 * z).sin() + 0.01 * x * z
    }));
    szx_allocates_only_its_output(&NdArray::<f32>::from_fn(Shape::d3(32, 32, 32), |i| {
        let (x, y, z) = (i[0] as f32, i[1] as f32, i[2] as f32);
        (0.3 * x).sin() * (0.2 * y).cos() * 8.0 + (0.05 * z).exp()
    }));
}
