//! SZ2's side channel past the checksum: an SZ2 stream whose block
//! count is forged, whose block mode bits are flipped (a Lorenzo block
//! read as regression or the reverse), or whose regression coefficient
//! run is cut short or padded — the LZ stage undone and redone around
//! the forgery and the `EBLC` CRC re-sealed — still gives a typed error
//! or a correctly shaped array on whole and region decodes, never a
//! panic, and allocates no buffer beyond a small multiple of the stream
//! and the output. A block count short of the shape's block grid is
//! always a typed error on the whole decode.

mod largest_allocation;

use eblcio_codec::codecs::common::SzPayload;
use eblcio_codec::header::{read_stream, write_stream};
use eblcio_codec::util::{put_varint, ByteReader};
use eblcio_codec::{compress, decompress_any, decompress_region, CompressorId, ErrorBound};
use eblcio_data::{NdArray, Shape};
use largest_allocation::largest_allocation;
use proptest::prelude::*;
use std::ops::Range;

/// Blocks of the chunk: `[1, 32, 32, 32]` in rank-4 blocks of 6⁴.
const BLOCKS: usize = 6 * 6 * 6;
/// Bytes of one block's regression coefficients (rank + 1 `f32`s).
const COEF_BYTES: usize = 4 * 5;
/// Bytes per sample of the chunk (f64).
const BYTES: usize = 8;

/// The side channel of an SZ2 payload: its block count, where its mode
/// bits and its coefficient run sit.
#[derive(Debug)]
struct Side {
    count: u64,
    bits: Range<usize>,
    coefs: Range<usize>,
}

fn side(extra: &[u8]) -> Side {
    let mut r = ByteReader::new(extra);
    let count = r.varint("block count").unwrap();
    let at = r.position();
    let bits = at..at + (count as usize).div_ceil(8);
    Side { count, coefs: bits.end..extra.len(), bits }
}

/// Whether block `b` predicts by regression.
fn regression(extra: &[u8], s: &Side, b: usize) -> bool {
    extra[s.bits.start + b / 8] & (0x80 >> (b % 8)) != 0
}

/// One `[1, 32, 32, 32]` f64 chunk (the benchmark's chunk shape) as an
/// SZ2 `EBLC` stream: a smooth seeded ripple, which regression predicts
/// best, beside a rough half whose blocks pick Lorenzo.
fn sz2_chunk(seed: u64) -> Vec<u8> {
    let phase = (seed % 1000) as f64 * 0.01;
    let mut x = seed | 1;
    let data = NdArray::<f64>::from_fn(Shape::d4(1, 32, 32, 32), |i| {
        let (a, b, c) = (i[1] as f64, i[2] as f64, i[3] as f64);
        let smooth = 0.8 * a - 0.3 * b + 0.05 * c + (0.11 * a + phase).sin();
        if i[1] < 16 {
            return smooth;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (0.9 * a + phase).sin() * (0.7 * b).cos() * 30.0 + (x % 1000) as f64 * 1e-4
    });
    let codec = CompressorId::Sz2.instance();
    compress(codec.as_ref(), &data, ErrorBound::Absolute(1e-3)).unwrap()
}

#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// The block count.
    Count(u64),
    /// A block's mode bit flipped.
    FlipMode(usize),
    /// The coefficient run loses its last `k` bytes.
    Truncate(usize),
    /// The coefficient run gains `k` bytes.
    Inflate(usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0u8..8).prop_map(|c| {
            const N: u64 = BLOCKS as u64;
            Mutation::Count([0, 1, N - 8, N - 1, N + 1, N + 8, 1 << 40, u64::MAX][c as usize])
        }),
        any::<usize>().prop_map(Mutation::FlipMode),
        prop_oneof![1usize..COEF_BYTES, COEF_BYTES..100_000].prop_map(Mutation::Truncate),
        (1usize..256).prop_map(Mutation::Inflate),
    ]
}

/// `extra` with `m` applied; `None` when nothing in it can carry `m`.
fn mutate(extra: &[u8], m: Mutation) -> Option<Vec<u8>> {
    let s = side(extra);
    let mut out = extra.to_vec();
    match m {
        Mutation::Count(c) => {
            let mut head = Vec::new();
            put_varint(&mut head, c);
            out.splice(..s.bits.start, head);
        }
        Mutation::FlipMode(pick) => {
            let b = pick % s.count as usize;
            out[s.bits.start + b / 8] ^= 0x80 >> (b % 8);
        }
        Mutation::Truncate(_) if s.coefs.is_empty() => return None,
        Mutation::Truncate(k) => out.truncate(extra.len() - k.min(s.coefs.len())),
        Mutation::Inflate(k) => out.extend((0..k).map(|i| i as u8 ^ 0xA5)),
    }
    Some(out)
}

/// Boxes of the chunk: one in the smooth half, one that crosses both
/// halves, one corner at the end.
const BOXES: [([usize; 4], [usize; 4]); 3] =
    [([0, 0, 0, 0], [1, 4, 32, 32]), ([0, 3, 5, 7], [1, 20, 9, 17]), ([0, 31, 31, 30], [1, 1, 1, 2])];

#[test]
fn the_side_channel_holds_both_modes_and_recodes_byte_for_byte() {
    let stream = sz2_chunk(7);
    let (_, payload) = read_stream(&stream).unwrap();
    let p = SzPayload::decode(payload).unwrap();
    let s = side(&p.extra);
    assert_eq!(s.count as usize, BLOCKS);
    let regression_blocks = (0..BLOCKS).filter(|&b| regression(&p.extra, &s, b)).count();
    assert!(regression_blocks > 0 && regression_blocks < BLOCKS, "{regression_blocks} regression blocks");
    assert_eq!(s.coefs.len(), regression_blocks * COEF_BYTES);
    assert_eq!(p.encode(), payload);
}

/// Forges the side channel of a fresh chunk, redoes the LZ stage,
/// re-seals the stream and decodes it whole and in every box of
/// [`BOXES`]: a typed error or a correctly shaped array, within the
/// allocation bound.
fn check_forgery(seed: u64, m: Mutation) {
    let stream = sz2_chunk(seed);
    let (header, payload) = read_stream(&stream).unwrap();
    let mut p = SzPayload::decode(payload).unwrap();
    let Some(extra) = mutate(&p.extra, m) else {
        return;
    };
    p.extra = extra;
    let forged = write_stream(&header, &p.encode());
    let bound = 4 * (forged.len() + header.shape.len() * BYTES);
    let (whole, largest) = largest_allocation(|| decompress_any(&forged));
    assert!(largest <= bound, "{m:?}: allocated {largest} bytes for a {}-byte stream", forged.len());
    if let Ok(data) = whole {
        assert_eq!(data.shape(), header.shape, "{m:?}");
        assert!(
            !matches!(m, Mutation::Count(c) if c < BLOCKS as u64),
            "{m:?} (seed {seed}): decoded without an error"
        );
    }
    let codec = CompressorId::Sz2.instance();
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
    fn forged_sz2_side_channels_give_typed_results(seed in any::<u64>(), m in mutation()) {
        check_forgery(seed, m);
    }
}

/// Forgeries that failed when the decoder's `modes.n_blocks < grid.len()`
/// check was deleted (the first as the proptest reported it: a mode-bit
/// lookup past the forged count panicked); each is checked on every run.
const CORPUS: [(u64, Mutation); 3] = [
    (4459339757793526625, Mutation::Count(208)),
    (7, Mutation::Count(0)),
    (7, Mutation::Count(215)),
];

#[test]
fn the_corpus_gives_typed_results() {
    for (seed, m) in CORPUS {
        check_forgery(seed, m);
    }
}
