//! SZx block headers past the checksum: an SZx stream whose block mode,
//! bit width (0, 33, 255), base or constant, block count or packed code
//! length is forged, and whose `EBLC` CRC is re-sealed, still gives a
//! typed error or a correctly shaped array on whole and region decodes,
//! never a panic, and allocates no buffer beyond a small multiple of the
//! stream and the output. A bit width outside `1..=32` and a block count
//! that does not match the shape are always a typed error on the whole
//! decode.

mod largest_allocation;

use eblcio_codec::header::{read_stream, write_stream};
use eblcio_codec::util::{put_varint, ByteReader};
use eblcio_codec::{compress, decompress_any, decompress_region, CompressorId, ErrorBound};
use eblcio_data::{NdArray, Shape};
use largest_allocation::largest_allocation;
use proptest::prelude::*;
use std::ops::Range;

/// Samples per SZx block.
const BLOCK: usize = 128;
/// Bytes per sample of the chunk (f64).
const BYTES: usize = 8;

/// One coded block: its mode and where its bytes sit in the payload.
#[derive(Clone, Debug)]
struct Block {
    mode: u8,
    /// The mode byte's offset.
    at: usize,
    /// Its constant, or its base, bit width and packed codes; or its raw
    /// samples.
    body: Range<usize>,
}

/// The block count and blocks of an SZx payload of `n` f64 samples.
fn walk(payload: &[u8], n: usize) -> (u64, Vec<Block>) {
    let mut r = ByteReader::new(payload);
    let count = r.varint("block count").unwrap();
    let mut blocks = Vec::new();
    for b in 0..count as usize {
        let len = BLOCK.min(n - b * BLOCK);
        let at = r.position();
        let mode = r.u8("mode").unwrap();
        let body = match mode {
            0 => BYTES,
            1 => {
                let bits = payload[at + 1 + BYTES] as usize;
                BYTES + 1 + (len * bits).div_ceil(8)
            }
            _ => len * BYTES,
        };
        r.take(body, "block body").unwrap();
        blocks.push(Block { mode, at, body: at + 1..at + 1 + body });
    }
    assert_eq!(r.remaining(), 0, "the walk must end with the payload");
    (count, blocks)
}

/// One `[1, 32, 32, 32]` f64 chunk (the benchmark's chunk shape) as an
/// SZx `EBLC` stream: a constant slab, a smooth seeded ripple, and a
/// spike whose block falls back to raw, so all three block modes occur.
fn szx_chunk(seed: u64) -> Vec<u8> {
    let phase = (seed % 1000) as f64 * 0.01;
    let spike = 1024 + (seed as usize % 2048);
    let data = NdArray::<f64>::from_fn(Shape::d4(1, 32, 32, 32), |i| {
        let (x, y, z) = (i[1] as f64, i[2] as f64, i[3] as f64);
        let flat = i[1] * 1024 + i[2] * 32 + i[3];
        if flat < 512 {
            2.5
        } else if flat == spike {
            1e300
        } else {
            (0.21 * x + phase).sin() * 30.0 + (0.13 * y - 0.07 * z).cos() * 12.0
        }
    });
    let codec = CompressorId::Szx.instance();
    compress(codec.as_ref(), &data, ErrorBound::Absolute(1e-3)).unwrap()
}

#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// A block's mode byte, to another mode or to no mode at all.
    Mode(u8),
    /// A packed block's bit width.
    BitWidth(u8),
    /// A packed block's base or a constant block's value.
    Base(f64),
    /// The block count.
    Count(u64),
    /// A packed block's codes cut short (negative) or padded.
    PackedLen(i64),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0u8..6).prop_map(|m| Mutation::Mode([0, 1, 2, 3, 0x80, 255][m as usize])),
        (0u8..3).prop_map(|w| Mutation::BitWidth([0, 33, 255][w as usize])),
        (0u8..5).prop_map(|x| {
            Mutation::Base([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, 5e-324][x as usize])
        }),
        (0u8..5).prop_map(|c| Mutation::Count([0, 31, 257, 1 << 40, u64::MAX][c as usize])),
        (0i64..16).prop_map(|d| Mutation::PackedLen(if d < 8 { d - 8 } else { d - 7 })),
    ]
}

/// `payload` with `m` applied to the `pick`-th block that can carry it;
/// `None` when no block can.
fn mutate(payload: &[u8], n: usize, m: Mutation, pick: usize) -> Option<Vec<u8>> {
    let (_, blocks) = walk(payload, n);
    let carries = |b: &Block| match m {
        Mutation::Mode(to) => b.mode != to,
        Mutation::BitWidth(_) | Mutation::PackedLen(_) => b.mode == 1,
        Mutation::Base(_) => b.mode <= 1,
        Mutation::Count(_) => true,
    };
    let fits: Vec<&Block> = blocks.iter().filter(|b| carries(b)).collect();
    let b = fits.get(pick % fits.len().max(1))?;
    let mut out = payload.to_vec();
    match m {
        Mutation::Mode(to) => out[b.at] = to,
        Mutation::BitWidth(w) => out[b.body.start + BYTES] = w,
        Mutation::Base(x) => out[b.body.start..b.body.start + BYTES].copy_from_slice(&x.to_le_bytes()),
        Mutation::Count(c) => {
            let mut head = Vec::new();
            put_varint(&mut head, c);
            out.splice(..blocks[0].at, head);
        }
        Mutation::PackedLen(d) if d < 0 => {
            let cut = (d.unsigned_abs() as usize).min(b.body.len() - BYTES - 1);
            out.drain(b.body.end - cut..b.body.end);
        }
        Mutation::PackedLen(d) => {
            out.splice(b.body.end..b.body.end, std::iter::repeat_n(0xA5, d as usize));
        }
    }
    Some(out)
}

/// Boxes of the chunk: one inside the constant slab, one that crosses
/// every block row, one corner at the end.
const BOXES: [([usize; 4], [usize; 4]); 3] =
    [([0, 0, 0, 0], [1, 4, 32, 32]), ([0, 3, 5, 7], [1, 20, 9, 17]), ([0, 31, 31, 30], [1, 1, 1, 2])];

#[test]
fn the_walk_covers_every_mode() {
    let stream = szx_chunk(7);
    let (header, payload) = read_stream(&stream).unwrap();
    let (count, blocks) = walk(payload, header.shape.len());
    assert_eq!(count as usize, blocks.len());
    for mode in 0..3 {
        assert!(blocks.iter().any(|b| b.mode == mode), "no block of mode {mode}");
    }
}

/// Forges one block of a fresh chunk, re-seals the stream and decodes
/// it whole and by region: a typed error or a correctly shaped array,
/// within the allocation bound.
fn check_forgery(seed: u64, m: Mutation, pick: usize) {
    let stream = szx_chunk(seed);
    let (header, payload) = read_stream(&stream).unwrap();
    let Some(forged) = mutate(payload, header.shape.len(), m, pick) else {
        return;
    };
    let forged = write_stream(&header, &forged);
    let bound = 4 * (forged.len() + header.shape.len() * BYTES);
    let (whole, largest) = largest_allocation(|| decompress_any(&forged));
    assert!(largest <= bound, "{m:?}: allocated {largest} bytes for a {}-byte stream", forged.len());
    if let Ok(data) = whole {
        assert_eq!(data.shape(), header.shape, "{m:?}");
        assert!(
            !matches!(m, Mutation::BitWidth(_) | Mutation::Count(_)),
            "{m:?} (pick {pick}, seed {seed}): decoded without an error"
        );
    }
    let codec = CompressorId::Szx.instance();
    for (origin, extent) in BOXES {
        let (part, largest) =
            largest_allocation(|| decompress_region::<f64>(codec.as_ref(), &forged, &origin, &extent));
        assert!(largest <= bound, "{m:?} {origin:?}: allocated {largest} bytes");
        if let Ok(Some(part)) = part {
            assert_eq!(part.shape(), Shape::new(&extent), "{m:?} {origin:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn forged_szx_headers_give_typed_results(
        seed in any::<u64>(),
        m in mutation(),
        pick in any::<usize>(),
    ) {
        check_forgery(seed, m, pick);
    }
}

/// Forgeries that panicked in the bit reader when the decoder's
/// `bits > 32` check was deleted (the first as the proptest reported
/// it); each is checked on every run.
const CORPUS: [(u64, Mutation, usize); 3] = [
    (9419482708838516209, Mutation::BitWidth(255), 10250234478064069092),
    (7, Mutation::BitWidth(255), 0),
    (7, Mutation::BitWidth(255), 3),
];

#[test]
fn the_corpus_gives_typed_results() {
    for (seed, m, pick) in CORPUS {
        check_forgery(seed, m, pick);
    }
}
