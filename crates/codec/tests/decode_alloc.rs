//! A warm region decode allocates only its output: after one warm-up,
//! decoding a box of a benchmark-sized chunk on one thread takes a
//! handful of blocks — the output array and small framing — and none
//! larger than the box's output. No span of the chunk around the box,
//! no reconstruction plane, code buffer or decoding table: those live in
//! the thread's codec scratch, or are not needed at all.
//!
//! The decode twin of `encode_alloc.rs`: the binary runs under
//! `largest_allocation`, which counts, per thread, the blocks allocated
//! and the largest one.

mod largest_allocation;

use eblcio_codec::{compress_view, decompress_region, CompressorId, ErrorBound};
use eblcio_data::{NdArray, Shape};
use largest_allocation::allocations;

/// Most blocks one warm region decode may allocate.
const MAX_BLOCKS: usize = 4;

#[test]
fn a_warm_region_decode_allocates_only_its_output() {
    // One chunk of the benchmark's S3D-like field: [1, 32, 32, 32] f64.
    let chunk = NdArray::<f64>::from_fn(Shape::d4(1, 32, 32, 32), |i| {
        let (x, y, z) = (i[1] as f64, i[2] as f64, i[3] as f64);
        300.0 + 40.0 * (0.11 * x).sin() * (0.07 * y).cos() + 3.0 * (0.23 * z).sin() + 0.01 * x * z
    });
    let bound = ErrorBound::Absolute(1e-3 * chunk.value_range());
    // Overlaps of a non-aligned box with a chunk, as the cold reads cut
    // them: an interior box, a corner, and a slab a few rows thick.
    let boxes: [([usize; 4], [usize; 4]); 3] = [
        ([0, 5, 3, 9], [1, 13, 17, 11]),
        ([0, 17, 0, 20], [1, 15, 32, 12]),
        ([0, 0, 29, 0], [1, 32, 3, 32]),
    ];
    for id in CompressorId::ALL {
        let codec = id.instance();
        let stream = compress_view(codec.as_ref(), chunk.view(), bound).unwrap();
        for (origin, extent) in &boxes {
            let region = || {
                decompress_region::<f64>(codec.as_ref(), &stream, origin, extent)
                    .unwrap()
                    .expect("every preset decodes regions")
            };
            let warm = region();
            let output = warm.len() * 8;
            for call in 0..3 {
                let (part, blocks, largest) = allocations(region);
                let name = id.name();
                assert!(
                    part.as_slice().iter().zip(warm.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{name}: the samples must not depend on the scratch state"
                );
                assert!(
                    blocks <= MAX_BLOCKS && largest <= output,
                    "{name} box {origin:?}+{extent:?} call {call}: {blocks} blocks \
                     (at most {MAX_BLOCKS}), the largest {largest} B (at most the \
                     {output} B output)"
                );
            }
        }
    }
}
