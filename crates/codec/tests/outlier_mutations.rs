//! The interpolation pass's outlier stream past the checksum: an SZ3 or
//! QoZ stream whose quantization codes or outlier bytes are forged — a
//! code turned into the outlier marker 0 (one more outlier wanted), a
//! marker turned into an ordinary code (one left over), the outlier
//! section cut short or padded — and whose `EBLC` CRC is re-sealed still
//! gives a typed error or a correctly shaped array on whole and region
//! decodes, never a panic, and allocates no buffer beyond a small
//! multiple of the stream and the output.
//!
//! A region decode reads the outliers in the whole decode's order and
//! steps over the ones its box does not need
//! (`OutlierReader::skip_codes`). So where the whole decode succeeds the
//! region decode gives the same slice, and a box that holds the last
//! coded sample fails exactly when, and as, the whole decode does.

mod largest_allocation;

use eblcio_codec::codecs::common::SzPayload;
use eblcio_codec::header::{read_stream, write_stream};
use eblcio_codec::{compress, decompress_any, decompress_region, CompressorId, ErrorBound};
use eblcio_data::{Dataset, NdArray, Shape};
use largest_allocation::largest_allocation;
use proptest::prelude::*;

/// The quantization code of a zero residual: an ordinary code.
const ZERO_BIN: u32 = 32768;

/// One `[1, 32, 32, 32]` f64 chunk (the benchmark's chunk shape): a
/// smooth field with a seeded ripple and a tall spike every few hundred
/// samples. At a relative bound of 10⁻⁶ the spikes' residuals fall past
/// the quantizer's range, so the stream carries outliers.
fn chunk(id: CompressorId, seed: u64) -> Vec<u8> {
    let phase = (seed % 1000) as f64 * 0.01;
    let mut x = seed | 1;
    let data = NdArray::<f64>::from_fn(Shape::d4(1, 32, 32, 32), |i| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x.is_multiple_of(301) {
            return 1000.0;
        }
        let (a, b, c) = (i[1] as f64, i[2] as f64, i[3] as f64);
        (0.21 * a + phase).sin() * 30.0 + (0.13 * b - 0.07 * c).cos() * 12.0
    });
    compress(id.instance().as_ref(), &data, ErrorBound::Relative(1e-6)).unwrap()
}

/// Boxes to decode: the whole chunk, an interior box, and a corner box
/// that holds the last coded sample (the far corner: the finest level's
/// last step codes the last sample of every lattice axis last).
const BOXES: [([usize; 4], [usize; 4]); 3] = [
    ([0, 0, 0, 0], [1, 32, 32, 32]),
    ([0, 5, 3, 9], [1, 13, 17, 11]),
    ([0, 24, 24, 24], [1, 8, 8, 8]),
];

#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// The `pick`-th ordinary code becomes the outlier marker.
    ForgeZero(usize),
    /// The `pick`-th outlier marker becomes the zero-residual code.
    FlipZero(usize),
    /// The outlier section loses its last `k` bytes.
    Truncate(usize),
    /// The outlier section gains `k` bytes.
    Inflate(usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<usize>().prop_map(Mutation::ForgeZero),
        any::<usize>().prop_map(Mutation::FlipZero),
        prop_oneof![1usize..17, 17usize..100_000].prop_map(Mutation::Truncate),
        (1usize..4096).prop_map(Mutation::Inflate),
    ]
}

/// Applies `m` to a payload; `false` when nothing in it can carry `m`.
fn mutate(p: &mut SzPayload, m: Mutation) -> bool {
    let nth = |pick: usize, zero: bool| {
        let at: Vec<usize> = (0..p.codes.len()).filter(|&i| (p.codes[i] == 0) == zero).collect();
        (!at.is_empty()).then(|| at[pick % at.len()])
    };
    match m {
        Mutation::ForgeZero(pick) => match nth(pick, false) {
            Some(i) => p.codes[i] = 0,
            None => return false,
        },
        Mutation::FlipZero(pick) => match nth(pick, true) {
            Some(i) => p.codes[i] = ZERO_BIN,
            None => return false,
        },
        Mutation::Truncate(k) => {
            let keep = p.outliers.len().saturating_sub(k);
            p.outliers.truncate(keep);
        }
        Mutation::Inflate(k) => p.outliers.extend((0..k).map(|i| i as u8 ^ 0xA5)),
    }
    true
}

#[test]
fn the_payload_recodes_byte_for_byte_and_carries_outliers() {
    for id in [CompressorId::Sz3, CompressorId::Qoz] {
        let stream = chunk(id, 7);
        let (_, payload) = read_stream(&stream).unwrap();
        let p = SzPayload::decode(payload).unwrap();
        let outliers = p.codes.iter().filter(|&&c| c == 0).count();
        assert!(outliers >= 20, "{}: {outliers} outliers", id.name());
        assert_eq!(p.outliers.len(), 8 * outliers, "{}", id.name());
        assert_eq!(p.encode(), payload, "{}", id.name());
    }
}

/// Forges one part of a fresh chunk's payload, re-seals the stream and
/// decodes it whole and in every box of [`BOXES`].
fn check_forgery(id: CompressorId, seed: u64, m: Mutation) {
    let stream = chunk(id, seed);
    let (header, payload) = read_stream(&stream).unwrap();
    let mut p = SzPayload::decode(payload).unwrap();
    if !mutate(&mut p, m) {
        return;
    }
    let forged = write_stream(&header, &p.encode());
    let (whole, largest) = largest_allocation(|| decompress_any(&forged));
    let output = header.shape.len() * 8;
    assert!(largest <= 4 * (forged.len() + output), "{m:?}: allocated {largest} bytes whole");
    let whole = whole.map(|d| match d {
        Dataset::F64(a) => a,
        Dataset::F32(_) => panic!("{m:?}: the chunk is f64"),
    });
    if let Ok(a) = &whole {
        assert_eq!(a.shape(), header.shape, "{m:?}");
    }
    let codec = id.instance();
    for (i, (origin, extent)) in BOXES.iter().enumerate() {
        let (part, largest) = largest_allocation(|| {
            decompress_region::<f64>(codec.as_ref(), &forged, origin, extent).map(Option::unwrap)
        });
        let output = extent.iter().product::<usize>() * 8;
        assert!(
            largest <= 4 * (forged.len() + output),
            "{m:?} box {origin:?}: allocated {largest} bytes for a {}-byte stream",
            forged.len()
        );
        if let Ok(part) = &part {
            assert_eq!(part.shape(), Shape::new(extent), "{m:?} box {origin:?}");
        }
        match (&whole, &part) {
            (Ok(a), Ok(part)) => {
                let mut at = [0usize; 4];
                for (j, got) in part.as_slice().iter().enumerate() {
                    let mut rest = j;
                    for d in (0..4).rev() {
                        at[d] = origin[d] + rest % extent[d];
                        rest /= extent[d];
                    }
                    assert_eq!(got.to_bits(), a.get(&at).to_bits(), "{m:?} box {origin:?} at {at:?}");
                }
            }
            (Ok(_), Err(e)) => panic!("{m:?} box {origin:?}: the whole decode succeeds, the region fails: {e}"),
            // The last box reads every code up to the last one, so it
            // reads every outlier the whole decode does.
            (Err(w), r) if i == BOXES.len() - 1 => {
                assert_eq!(r.as_ref().err(), Some(w), "{m:?} box {origin:?}")
            }
            (Err(_), _) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn forged_codes_and_outliers_give_typed_results(
        qoz in any::<bool>(),
        seed in any::<u64>(),
        m in mutation(),
    ) {
        let id = if qoz { CompressorId::Qoz } else { CompressorId::Sz3 };
        check_forgery(id, seed, m);
    }
}
