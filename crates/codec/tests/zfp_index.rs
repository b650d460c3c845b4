//! ZFP's block-row index, from the outside: streams written before it
//! existed still decode whole and by box, an indexed payload decodes to
//! exactly what its bare block bitstream does, and payloads mutated past
//! the checksum — tag byte, row lengths, the first block's fields, cuts
//! at every byte — give a typed error or a decode, never a panic, a hang
//! or an allocation beyond the output.
//!
//! The binary runs under `largest_allocation`, so a decode's largest
//! buffer can be held to the samples it delivers.

mod largest_allocation;

use eblcio_codec::header::read_stream;
use eblcio_codec::stage::{decode_array, decode_array_region, encode_array};
use eblcio_codec::util::{put_varint, ByteReader};
use eblcio_codec::{decompress, decompress_region, ArrayStage, CodecError, CompressorId, Zfp};
use eblcio_data::{Element, NdArray, Shape};
use largest_allocation::largest_allocation;
use proptest::prelude::*;
use std::path::PathBuf;

/// Block rows of a shape's ZFP block grid: the blocks along the last
/// axis that share their outer block coordinates.
fn block_rows(shape: Shape) -> usize {
    shape.dims()[..shape.rank() - 1].iter().map(|d| d.div_ceil(4)).product()
}

fn is_indexed(payload: &[u8]) -> bool {
    payload[0] >> 6 == 3
}

/// An indexed payload's parts: its tag byte (`0xC0 | s`), the bit
/// length of each run of `2^s` block rows, and the block bitstream.
fn split(payload: &[u8], shape: Shape) -> (u8, Vec<u64>, &[u8]) {
    let tag = payload[0];
    assert!(is_indexed(payload), "{shape}: payload must be indexed");
    let mut r = ByteReader::new(&payload[1..]);
    let runs = block_rows(shape).div_ceil(1 << (tag & 0x3f));
    let lengths = (0..runs).map(|_| r.varint("row length").unwrap()).collect();
    (tag, lengths, &payload[1 + r.position()..])
}

/// An indexed payload from its parts.
fn join(tag: u8, lengths: &[u64], bits: &[u8]) -> Vec<u8> {
    let mut p = vec![tag];
    for &len in lengths {
        put_varint(&mut p, len);
    }
    p.extend_from_slice(bits);
    p
}

/// Smooth content, a zero corner (zero blocks) and a few huge spikes an
/// absolute bound of 10⁻² can only store verbatim: every block mode.
fn field<T: Element>(shape: Shape, seed: u64) -> NdArray<T> {
    NdArray::from_fn(shape, |i| {
        let h = i.iter().fold(seed | 1, |h, &c| h.wrapping_mul(31).wrapping_add(c as u64));
        let v = if i.iter().all(|&c| c < 4) {
            0.0
        } else if h % 97 == 0 {
            1e30
        } else {
            let phase: f64 =
                i.iter().enumerate().map(|(d, &c)| c as f64 * (0.13 + 0.05 * d as f64)).sum();
            phase.sin() * 40.0 + (phase * 0.37).cos() * 7.0
        };
        T::from_f64(v)
    })
}

/// Every sample of `part` equals the same sample of `whole`, bit for bit.
fn assert_is_slice<T: Element>(
    part: &NdArray<T>,
    whole: &NdArray<T>,
    origin: &[usize],
    what: &str,
) {
    let extent = part.shape().dims().to_vec();
    let mut at = vec![0usize; extent.len()];
    for (i, got) in part.as_slice().iter().enumerate() {
        let mut rest = i;
        for d in (0..extent.len()).rev() {
            at[d] = origin[d] + rest % extent[d];
            rest /= extent[d];
        }
        let want = whole.get(&at).to_bits();
        assert_eq!(got.to_bits(), want, "{what}: {origin:?}+{extent:?} at {at:?}");
    }
}

/// Every box on a small grid of origins and extents, per axis: origins
/// at and beside block edges, extents of one sample, one block and
/// across blocks to the far face.
fn boxes(shape: Shape) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut out = vec![(Vec::new(), Vec::new())];
    for &n in shape.dims() {
        let mut next = Vec::new();
        for (o, e) in &out {
            for origin in [0, 1, 3, 4, 7, n - 1] {
                if origin >= n {
                    continue;
                }
                for extent in [1, 2, 4, 5, n - origin] {
                    if origin + extent > n {
                        continue;
                    }
                    let (mut o, mut e) = (o.clone(), e.clone());
                    o.push(origin);
                    e.push(extent);
                    next.push((o, e));
                }
            }
        }
        out = next;
    }
    out
}

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn check_fixture<T: Element>(name: &str) {
    let stream = fixture(name);
    let (h, payload) = read_stream(&stream).unwrap();
    assert!(block_rows(h.shape) >= 2, "{name}: multi-row");
    assert_ne!(payload[0] >> 6, 3, "{name}: written before the index");
    let codec = CompressorId::Zfp.instance();
    let whole = decompress::<T>(codec.as_ref(), &stream).unwrap();
    let mut n = 0;
    for (origin, extent) in boxes(h.shape) {
        let part = decompress_region::<T>(codec.as_ref(), &stream, &origin, &extent);
        let part = part.unwrap().unwrap();
        assert_is_slice(&part, &whole, &origin, name);
        n += 1;
    }
    assert!(n > 100, "{name}: {n} boxes");
}

#[test]
fn unindexed_fixtures_decode_whole_and_by_box() {
    check_fixture::<f32>("zfp_f32.eblc");
    check_fixture::<f64>("zfp_f64.eblc");
}

fn check_stripped<T: Element>(stage: &dyn ArrayStage, shape: Shape) {
    let data = field::<T>(shape, 5);
    let (payload, abs) = encode_array(stage, data.view(), 1e-2).unwrap();
    let (_, _, bits) = split(&payload, shape);
    let what = format!("{shape} {}", T::NAME);
    let whole = decode_array::<T>(stage, &payload, shape, abs).unwrap();
    let bare = decode_array::<T>(stage, bits, shape, abs).unwrap();
    assert_is_slice(&bare, &whole, &vec![0; shape.rank()], &what);
    for (origin, extent) in boxes(shape).into_iter().step_by(7) {
        let region = |p: &[u8]| decode_array_region::<T>(stage, p, shape, abs, &origin, &extent);
        let (indexed, bare) = (region(&payload).unwrap(), region(bits).unwrap());
        assert_is_slice(&indexed, &whole, &origin, &what);
        assert_is_slice(&bare, &whole, &origin, &what);
    }
}

#[test]
fn indexed_and_stripped_payloads_decode_identically() {
    let shapes =
        [Shape::d2(41, 37), Shape::d3(13, 9, 24), Shape::d4(1, 32, 16, 24), Shape::d4(2, 9, 1, 40)];
    for shape in shapes {
        check_stripped::<f32>(&Zfp, shape);
        check_stripped::<f64>(&Zfp, shape);
    }
}

/// The encoder's index choice: never more than 1 % of the bitstream;
/// one entry per row on a benchmark chunk at a tight bound, runs of rows
/// on smaller bitstreams, and no index where none is that cheap.
#[test]
fn the_index_costs_at_most_a_hundredth_of_the_bitstream() {
    let stage = Zfp;
    let (mut per_row, mut coarser, mut bare) = (0, 0, 0);
    for shape in [Shape::d4(1, 32, 32, 32), Shape::d3(13, 9, 24), Shape::d2(41, 37)] {
        for abs in [1e-4, 1e-2, 1.0, 30.0] {
            let data = field::<f32>(shape, 9);
            let (payload, _) = encode_array(&stage, data.view(), abs).unwrap();
            if !is_indexed(&payload) {
                bare += 1;
                continue;
            }
            let (tag, lengths, bits) = split(&payload, shape);
            let index = payload.len() - bits.len();
            assert!(index * 100 <= bits.len(), "{shape} at {abs}: {index} B over {}", bits.len());
            assert_eq!(lengths.iter().sum::<u64>().div_ceil(8), bits.len() as u64);
            if tag == 0xc0 {
                per_row += 1;
            } else {
                coarser += 1;
            }
        }
    }
    // All-zero blocks code in 2 bits each: an index would cost about
    // as much as the bitstream.
    let zero = NdArray::<f32>::zeros(Shape::d3(16, 16, 16));
    let (payload, _) = encode_array(&stage, zero.view(), 1e-2).unwrap();
    bare += usize::from(!is_indexed(&payload));
    let chunk = Shape::d4(1, 32, 32, 32);
    let (payload, _) = encode_array(&stage, field::<f32>(chunk, 9).view(), 1e-4).unwrap();
    assert_eq!(payload[0], 0xc0, "a benchmark chunk is indexed per row");
    let seen = format!("{per_row} per row, {coarser} coarser, {bare} bare");
    assert!(per_row > 0 && coarser > 0 && bare > 0, "{seen}");
}

/// An index that moves one block from the end of a row to the start of
/// the next still points every row at a block boundary, so both rows
/// parse; only their ends give the lie away. A whole decode checks them
/// and fails; the box decodes of either row alone need no end check.
#[test]
fn an_index_that_moves_a_block_between_rows_fails_the_whole_decode() {
    // Four rows of 16 blocks; each row's last block is all zeros, coded
    // in 2 bits.
    let shape = Shape::d3(8, 8, 64);
    let data = NdArray::<f32>::from_fn(shape, |i| {
        if i[2] >= 60 {
            0.0
        } else {
            (i[0] as f32 * 0.4).sin() * 30.0 + i[1] as f32 + i[2] as f32 * 0.7
        }
    });
    let stage = Zfp;
    let (payload, abs) = encode_array(&stage, data.view(), 1e-3).unwrap();
    let (tag, lengths, bits) = split(&payload, shape);
    assert_eq!(tag, 0xc0, "indexed per row");
    let whole = decode_array::<f32>(&stage, &payload, shape, abs).unwrap();
    for r in 0..lengths.len() - 1 {
        let mut lying = lengths.clone();
        lying[r] -= 2;
        lying[r + 1] += 2;
        let mutant = join(tag, &lying, bits);
        let got = decode_array::<f32>(&stage, &mutant, shape, abs);
        assert!(matches!(got, Err(CodecError::Corrupt { .. })), "row {r}: {got:?}");
        // A box inside row r + 1's first block starts where the index
        // says: at row r's last block, all zeros.
        let next = r + 1;
        let origin = [next / 2 * 4, next % 2 * 4, 0];
        let part = decode_array_region::<f32>(&stage, &mutant, shape, abs, &origin, &[1, 1, 4]);
        let part = part.unwrap();
        assert!(part.as_slice().iter().all(|&v| v == 0.0));
        assert_ne!(whole.get(&origin), 0.0);
    }
}

/// One field of a valid payload, changed.
#[derive(Clone, Debug)]
enum Mutation {
    Tag(u8),
    InflateRow(usize, u64),
    ZeroRow(usize),
    MaxRow(usize),
    /// Moves bits from one row's length to the next's: the total still
    /// accounts for the bitstream.
    ShiftRow(usize, u64),
    FirstMode(u8),
    FirstPlanes(u8),
    /// Cut at every byte.
    Cuts,
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<u8>().prop_map(Mutation::Tag),
        (any::<usize>(), 1u64..1 << 20).prop_map(|(r, k)| Mutation::InflateRow(r, k)),
        any::<usize>().prop_map(Mutation::ZeroRow),
        any::<usize>().prop_map(Mutation::MaxRow),
        (any::<usize>(), 1u64..64).prop_map(|(r, k)| Mutation::ShiftRow(r, k)),
        (0u8..4).prop_map(Mutation::FirstMode),
        (0u8..128).prop_map(Mutation::FirstPlanes),
        (0u8..1).prop_map(|_| Mutation::Cuts),
    ]
}

/// Overwrites `width` bits of `bytes` at bit `at`, MSB first.
fn set_bits(bytes: &mut [u8], at: usize, width: usize, v: u64) {
    for i in 0..width {
        let bit = (v >> (width - 1 - i)) & 1 == 1;
        let (byte, mask) = ((at + i) / 8, 0x80u8 >> ((at + i) % 8));
        if byte < bytes.len() {
            bytes[byte] = if bit { bytes[byte] | mask } else { bytes[byte] & !mask };
        }
    }
}

/// Decodes `payload` whole and by `(origin, extent)`; each gives a
/// result — a typed error or an array — and allocates no single buffer
/// larger than the samples it delivers.
fn decode_both<T: Element>(
    payload: &[u8],
    shape: Shape,
    abs: f64,
    origin: &[usize],
    extent: &[usize],
) -> (Result<NdArray<T>, CodecError>, Result<NdArray<T>, CodecError>) {
    let stage = Zfp;
    let (whole, largest) = largest_allocation(|| decode_array::<T>(&stage, payload, shape, abs));
    assert!(largest <= shape.len() * T::BYTES, "whole decode allocated {largest} bytes");
    let region = || decode_array_region::<T>(&stage, payload, shape, abs, origin, extent);
    let (part, largest) = largest_allocation(region);
    let delivered: usize = extent.iter().product::<usize>() * T::BYTES;
    assert!(largest <= delivered, "box decode allocated {largest} bytes for {delivered}");
    (whole, part)
}

fn check_mutant<T: Element>(shape: Shape, seed: u64, m: &Mutation, box_pick: usize) {
    let stage = Zfp;
    let data = field::<T>(shape, seed);
    let (payload, abs) = encode_array(&stage, data.view(), 1e-2).unwrap();
    let all = boxes(shape);
    let (origin, extent) = &all[box_pick % all.len()];
    let indexed = is_indexed(&payload);
    let (tag, lengths, bits) =
        if indexed { split(&payload, shape) } else { (0, Vec::new(), &payload[..]) };
    // Where the block bitstream starts in the payload.
    let body = payload.len() - bits.len();
    let what = format!("{shape} {} {m:?}", T::NAME);
    let with_row = |r: usize, f: &dyn Fn(u64) -> u64| {
        let mut l = lengths.clone();
        let r = r % l.len();
        l[r] = f(l[r]);
        l
    };
    let shift_row = |r: usize, k: u64| {
        let mut l = lengths.clone();
        let (r, next) = (r % l.len(), (r + 1) % l.len());
        let k = k.min(l[next]);
        l[r] += k;
        l[next] -= k;
        l
    };
    let (mutant, new_lengths) = match *m {
        Mutation::Tag(t) => {
            let mut p = payload.clone();
            p[0] = t;
            (p, None)
        }
        Mutation::InflateRow(..)
        | Mutation::ZeroRow(_)
        | Mutation::MaxRow(_)
        | Mutation::ShiftRow(..)
            if !indexed =>
        {
            return
        }
        Mutation::InflateRow(r, k) => (Vec::new(), Some(with_row(r, &|len| len + k))),
        Mutation::ZeroRow(r) => (Vec::new(), Some(with_row(r, &|_| 0))),
        Mutation::MaxRow(r) => (Vec::new(), Some(with_row(r, &|_| u64::MAX))),
        Mutation::ShiftRow(r, k) => (Vec::new(), Some(shift_row(r, k))),
        Mutation::FirstMode(mode) => {
            let mut p = payload.clone();
            set_bits(&mut p[body..], 0, 2, u64::from(mode));
            (p, None)
        }
        Mutation::FirstPlanes(planes) => {
            // Mode (2 bits) and exponent (12) come first in a coded
            // block.
            let mut p = payload.clone();
            set_bits(&mut p[body..], 14, 7, u64::from(planes));
            (p, None)
        }
        Mutation::Cuts => {
            for cut in 0..payload.len() {
                let (whole, _) = decode_both::<T>(&payload[..cut], shape, abs, origin, extent);
                assert!(whole.is_err(), "{what}: whole decode of a cut at {cut} succeeded");
            }
            return;
        }
    };
    let mutant = new_lengths.as_ref().map_or(mutant, |l| join(tag, l, bits));
    let (whole, part) = decode_both::<T>(&mutant, shape, abs, origin, extent);
    if let Some(l) = new_lengths.filter(|l| *l != lengths) {
        // A whole decode checks every row against its length.
        assert!(whole.is_err(), "{what}: whole decode trusted a lying index");
        // An index that no longer accounts for the bitstream's bytes is
        // rejected before any row is read, whatever the box.
        let total = l.iter().try_fold(0u64, |s, &x| s.checked_add(x));
        if total.is_none_or(|t| t.div_ceil(8) != bits.len() as u64) {
            assert!(matches!(part, Err(CodecError::Corrupt { .. })), "{what}: {part:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Mutated payloads past the checksum: a typed result, bounded
    /// allocation, and the specific rejections the index promises.
    #[test]
    fn mutated_payloads_give_typed_results(
        shape_pick in 0usize..5,
        seed in any::<u64>(),
        m in mutation(),
        box_pick in any::<usize>(),
        double in any::<bool>(),
    ) {
        let shape = [
            Shape::d1(37),
            Shape::d2(41, 37),
            Shape::d3(13, 9, 24),
            Shape::d4(1, 16, 12, 24),
            Shape::d4(2, 9, 1, 40),
        ][shape_pick];
        if double {
            check_mutant::<f64>(shape, seed, &m, box_pick);
        } else {
            check_mutant::<f32>(shape, seed, &m, box_pick);
        }
    }
}
