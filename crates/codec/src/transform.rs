//! ZFP block transform machinery (Lindstrom, TVCG 2014).
//!
//! ZFP partitions the field into 4^d blocks, aligns each block to a
//! common exponent as fixed-point integers, decorrelates with a
//! non-orthogonal lifted transform (an integer approximation of a
//! 4-point DCT), reorders coefficients by total sequency, maps them to
//! negabinary, and encodes bitplanes MSB-first with an embedded
//! group-testing coder.
//!
//! This module implements those primitives; the codec in
//! [`crate::codecs::zfp`] assembles them into a fixed-accuracy (error
//! bounded) compressor.
//!
//! **Collapsed axes.** A block whose extent along an axis is 1 (a unit
//! array axis, or a trailing edge block when `dim % 4 == 1`) is padded
//! along it with four replicas of one slice. Two lifting identities make
//! that axis free in both directions, exactly:
//!
//! - `fwd_lift4(c, c, c, c) = (c, 0, 0, 0)`, and
//! - `inv_lift4(a, 0, 0, 0) = (a, a, a, a)`.
//!
//! Lines along a replica axis are constant at whatever pass they are
//! lifted, and lifting along any other axis maps zero lines to zero. So
//! the full block's coefficients are the reduced `4^k` block's (`k` axes
//! of extent > 1, lifted in the same relative order), embedded at index
//! 0 of every collapsed axis with exact zeros elsewhere; and the inverse
//! of such an embedding is the reduced inverse, replicated. The codec
//! transforms the reduced block only; `live_order` says where its
//! coefficients sit in the full block's sequency order, which the plane
//! coder still codes unchanged.

use crate::bitstream::{BitReader, BitWriter};
use crate::error::{CodecError, Result};
use std::sync::OnceLock;

/// Block edge length (fixed at 4, as in ZFP).
pub const BLOCK_EDGE: usize = 4;

/// Fixed-point integer precision: block values are scaled to roughly
/// ±2^FIXED_PREC before the transform. The lifted transform grows values
/// by < 2 bits per dimension, leaving ample headroom in `i64` for rank 4.
pub const FIXED_PREC: i32 = 48;

/// Forward lifted decorrelating transform on 4 samples with stride `s`
/// (ZFP's `fwd_lift`).
#[inline]
pub fn fwd_lift(p: &mut [i64], base: usize, s: usize) {
    let (x, y, z, w) = fwd_lift4(p[base], p[base + s], p[base + 2 * s], p[base + 3 * s]);
    p[base] = x;
    p[base + s] = y;
    p[base + 2 * s] = z;
    p[base + 3 * s] = w;
}

#[inline(always)]
fn fwd_lift4(mut x: i64, mut y: i64, mut z: i64, mut w: i64) -> (i64, i64, i64, i64) {
    // Non-orthogonal transform ~ 1/16 · [4 4 4 4; 5 1 -1 -5; -4 4 4 -4; -2 6 -6 2].
    x += w;
    x >>= 1;
    w -= x;
    z += y;
    z >>= 1;
    y -= z;
    x += z;
    x >>= 1;
    z -= x;
    w += y;
    w >>= 1;
    y -= w;
    w += y >> 1;
    y -= w >> 1;
    (x, y, z, w)
}

/// Inverse of [`fwd_lift`] (ZFP's `inv_lift`). Exact integer inverse of
/// the forward steps up to the deliberate, bounded rounding the lossy
/// coder absorbs.
#[inline]
pub fn inv_lift(p: &mut [i64], base: usize, s: usize) {
    let (x, y, z, w) = inv_lift4(p[base], p[base + s], p[base + 2 * s], p[base + 3 * s]);
    p[base] = x;
    p[base + s] = y;
    p[base + 2 * s] = z;
    p[base + 3 * s] = w;
}

#[inline(always)]
fn inv_lift4(mut x: i64, mut y: i64, mut z: i64, mut w: i64) -> (i64, i64, i64, i64) {
    y += w >> 1;
    w -= y >> 1;
    y += w;
    w <<= 1;
    w -= y;
    z += x;
    x <<= 1;
    x -= z;
    y += z;
    z <<= 1;
    z -= y;
    w += x;
    x <<= 1;
    x -= w;
    (x, y, z, w)
}

/// Applies the forward transform to a 4^rank block (separably along
/// each dimension, slowest axis first). `rank` 0 is one coefficient and
/// no pass.
pub fn fwd_transform(block: &mut [i64], rank: usize) {
    debug_assert_eq!(block.len(), BLOCK_EDGE.pow(rank as u32));
    for d in 0..rank {
        lift_lines(block, BLOCK_EDGE.pow((rank - 1 - d) as u32), fwd_lift4);
    }
}

/// Applies the inverse transform to a 4^rank block.
pub fn inv_transform(block: &mut [i64], rank: usize) {
    debug_assert_eq!(block.len(), BLOCK_EDGE.pow(rank as u32));
    for d in (0..rank).rev() {
        lift_lines(block, BLOCK_EDGE.pow((rank - 1 - d) as u32), inv_lift4);
    }
}

/// Lifts every 4-sample line of stride `stride`. The block is a run of
/// slabs of `4·stride` entries; within a slab the four taps of
/// consecutive lines sit in four contiguous quarter-rows, so the pass is
/// four parallel slices with no index arithmetic per line.
#[inline(always)]
fn lift_lines(
    block: &mut [i64],
    stride: usize,
    lift: impl Fn(i64, i64, i64, i64) -> (i64, i64, i64, i64),
) {
    for slab in block.chunks_exact_mut(stride * BLOCK_EDGE) {
        let (xs, rest) = slab.split_at_mut(stride);
        let (ys, rest) = rest.split_at_mut(stride);
        let (zs, ws) = rest.split_at_mut(stride);
        for (((x, y), z), w) in xs.iter_mut().zip(ys).zip(zs).zip(ws) {
            (*x, *y, *z, *w) = lift(*x, *y, *z, *w);
        }
    }
}

/// Total-sequency permutation: coefficient visit order sorted by the sum
/// of per-axis frequencies (low frequencies first), ties broken by index.
/// ZFP hard-codes these tables; we generate each rank's once per
/// process.
///
/// # Panics
/// Panics unless `1 ≤ rank ≤ 4`.
pub fn sequency_order(rank: usize) -> &'static [usize] {
    static ORDERS: [OnceLock<Vec<usize>>; 4] = [const { OnceLock::new() }; 4];
    ORDERS[rank - 1].get_or_init(|| {
        let n = BLOCK_EDGE.pow(rank as u32);
        let mut idx: Vec<usize> = (0..n).collect();
        let key = |i: usize| -> (u32, usize) {
            let mut rem = i;
            let mut sum = 0u32;
            for _ in 0..rank {
                sum += (rem % BLOCK_EDGE) as u32;
                rem /= BLOCK_EDGE;
            }
            (sum, i)
        };
        idx.sort_by_key(|&i| key(i));
        idx
    })
}

/// Where the coefficients of a block with collapsed axes sit in the full
/// `4^rank` block's sequency order (see the module docs).
///
/// `collapsed` has bit `d` set when axis `d` has extent 1. Entry `j` is
/// the sequency position of reduced coefficient `j` (row-major over the
/// live axes), embedded at index 0 of every collapsed axis; every other
/// position of the full block holds an exact zero. With nothing
/// collapsed this is the inverse of [`sequency_order`]. Built once per
/// `(rank, collapsed)` per process.
///
/// # Panics
/// Panics unless `1 ≤ rank ≤ 4` and `collapsed < 2^rank`.
pub(crate) fn live_order(rank: usize, collapsed: usize) -> &'static [usize] {
    assert!(collapsed >> rank == 0, "collapse mask {collapsed:#b} beyond rank {rank}");
    // Ranks 1..=4 take 2 + 4 + 8 + 16 masks, stored back to back.
    static ORDERS: [OnceLock<Vec<usize>>; 30] = [const { OnceLock::new() }; 30];
    ORDERS[(1 << rank) - 2 + collapsed].get_or_init(|| {
        let mut position = vec![0usize; BLOCK_EDGE.pow(rank as u32)];
        for (u, &i) in sequency_order(rank).iter().enumerate() {
            position[i] = u;
        }
        let live = rank - collapsed.count_ones() as usize;
        (0..BLOCK_EDGE.pow(live as u32))
            .map(|j| {
                // Reduced coordinates, last live axis fastest, spread
                // over the full block with 0 on the collapsed axes.
                let (mut rem, mut full, mut step) = (j, 0, 1);
                for d in (0..rank).rev() {
                    if collapsed >> d & 1 == 0 {
                        full += rem % BLOCK_EDGE * step;
                        rem /= BLOCK_EDGE;
                    }
                    step *= BLOCK_EDGE;
                }
                position[full]
            })
            .collect()
    })
}

/// Embeds a reduced block's coefficients into the full block's
/// sequency-ordered negabinary array: `coeffs[j]` at `order[j]` (from
/// [`live_order`]), every other slot of `nega` zero.
pub(crate) fn embed_coeffs(coeffs: &[i64], order: &[usize], nega: &mut [u64]) {
    nega.fill(0);
    for (&c, &u) in coeffs.iter().zip(order) {
        nega[u] = int_to_nega(c);
    }
}

/// The reduced block's coefficients read back out of a sequency-ordered
/// negabinary array through `order`, each masked to its kept planes
/// (`mask`) and demapped — the inverse of [`embed_coeffs`] on the live
/// slots.
pub(crate) fn live_coeffs(nega: &[u64], order: &[usize], mask: u64, out: &mut [i64]) {
    for (o, &u) in out.iter_mut().zip(order) {
        *o = nega_to_int(nega[u] & mask);
    }
}

/// Two's-complement → negabinary mapping (ZFP's `int2uint`): interleaves
/// positive and negative values so magnitude ordering survives in the
/// unsigned domain and bitplanes decay smoothly.
#[inline]
pub fn int_to_nega(x: i64) -> u64 {
    const MASK: u64 = 0xaaaa_aaaa_aaaa_aaaa;
    ((x as u64).wrapping_add(MASK)) ^ MASK
}

/// Inverse of [`int_to_nega`].
#[inline]
pub fn nega_to_int(u: u64) -> i64 {
    const MASK: u64 = 0xaaaa_aaaa_aaaa_aaaa;
    (u ^ MASK).wrapping_sub(MASK) as i64
}

/// Largest coefficient block the plane coder takes: a rank-4 ZFP block.
pub const MAX_BLOCK: usize = BLOCK_EDGE * BLOCK_EDGE * BLOCK_EDGE * BLOCK_EDGE;
/// 64-bit words holding one bit per coefficient of a [`MAX_BLOCK`] block.
const PLANE_WORDS: usize = MAX_BLOCK / 64;

/// Encodes `planes` bitplanes of `coeffs` (already in sequency order,
/// negabinary, at most [`MAX_BLOCK`] of them) MSB-first with ZFP's
/// embedded group-testing scheme.
///
/// `total_bits` is the bit width of the negabinary values (≤ 64).
///
/// Per plane the stream holds, in coefficient order, one raw bit for
/// every coefficient already significant; then, over the not yet
/// significant ones: a group-test bit ("is any of the rest set?") and,
/// if so, their bits up to and including the first set one — repeated
/// until a test fails or none are left. The coded planes are pulled out
/// of the coefficients once, up front, into bit-per-coefficient words
/// (coefficient `i` at bit `63 − i % 64` of word `i / 64`, so stream
/// order is MSB to LSB); runs of raw bits and "zeros then a one" scans
/// then leave through [`BitWriter::put_bits`] a word at a time.
pub fn encode_planes(w: &mut BitWriter, coeffs: &[u64], total_bits: u32, planes: u32) {
    let n = coeffs.len();
    assert!(n <= MAX_BLOCK, "plane coder takes at most {MAX_BLOCK} coefficients");
    assert!(total_bits <= 64);
    let words = n.div_ceil(64);
    let planes = planes.min(total_bits);
    if planes == 0 {
        return;
    }
    // Bit-per-coefficient words of every coded plane, filled from the
    // set bits of each coefficient: most coefficients of a smooth block
    // have nothing in the planes that are kept.
    let lowest = total_bits - planes;
    let width_mask = u64::MAX >> (64 - total_bits);
    let mut plane_bits = [[0u64; PLANE_WORDS]; 64];
    for (i, &c) in coeffs.iter().enumerate() {
        let mut kept = (c & width_mask) >> lowest;
        while kept != 0 {
            let bitpos = lowest + kept.trailing_zeros();
            plane_bits[(total_bits - 1 - bitpos) as usize][i / 64] |= 1u64 << (63 - i % 64);
            kept &= kept - 1;
        }
    }
    // Coefficients that exist (the last word may be partial).
    let mut valid = [0u64; PLANE_WORDS];
    for (wi, v) in valid.iter_mut().enumerate().take(words) {
        let in_word = (n - wi * 64).min(64);
        *v = u64::MAX << (64 - in_word);
    }
    let mut significant = [0u64; PLANE_WORDS];
    for bits in &plane_bits[..planes as usize] {
        // Raw bits for coefficients already significant.
        for wi in 0..words {
            let mut left = significant[wi];
            let (mut run, mut len) = (0u64, 0u32);
            while left != 0 {
                let lead = left.leading_zeros();
                run = (run << 1) | ((bits[wi] << lead) >> 63);
                len += 1;
                left &= !(1u64 << (63 - lead));
            }
            w.put_bits(run, len);
        }

        // Group-test the rest in sequency order.
        let mut pending = [0u64; PLANE_WORDS];
        let mut set = [0u64; PLANE_WORDS];
        for wi in 0..words {
            pending[wi] = valid[wi] & !significant[wi];
            set[wi] = bits[wi] & pending[wi];
        }
        let mut wi = 0usize;
        loop {
            // Skip words with nothing pending any more.
            while wi < words && pending[wi] == 0 {
                wi += 1;
            }
            if wi == words {
                break;
            }
            let any = set[wi..words].iter().any(|&s| s != 0);
            w.put_bit(any);
            if !any {
                break;
            }
            // Zeros for the pending coefficients before the first set
            // one, then its one-bit.
            let mut zeros = 0u32;
            while set[wi] == 0 {
                zeros += pending[wi].count_ones();
                pending[wi] = 0;
                wi += 1;
            }
            let lead = set[wi].leading_zeros();
            let hit = 1u64 << (63 - lead);
            // Pending coefficients strictly before the hit in this word.
            let before = pending[wi] & !(u64::MAX >> lead);
            zeros += before.count_ones();
            while zeros >= 64 {
                w.put_bits(0, 64);
                zeros -= 64;
            }
            w.put_bits(1, zeros + 1);
            significant[wi] |= hit;
            // Everything up to and including the hit is dealt with.
            let after = hit - 1;
            pending[wi] &= after;
            set[wi] &= after;
        }
    }
}

/// Decodes bitplanes written by [`encode_planes`] into `coeffs` (one
/// slot per coefficient, at most [`MAX_BLOCK`], overwritten). Missing
/// planes come back as zero bits (that is the lossy truncation).
///
/// The mirror of the encoder, word for word: per plane one
/// [`BitReader::get_bits`] per 64 coefficients fetches the raw bits of
/// the already significant ones, dealt out over the set bits of
/// `significant`; then, while coefficients are pending, a group-test
/// bit and a "zeros then a one" scan that peeks up to 64 bits, counts
/// leading zeros bounded by the pending count, and finds the hit as the
/// pending coefficient of that rank. Every read is bounds-checked: a
/// stream that ends early is a [`TruncatedStream`], never a read past
/// the slice.
///
/// [`TruncatedStream`]: crate::error::CodecError::TruncatedStream
pub fn decode_planes(
    r: &mut BitReader<'_>,
    coeffs: &mut [u64],
    total_bits: u32,
    planes: u32,
) -> Result<()> {
    coeffs.fill(0);
    walk_planes::<true>(r, coeffs, coeffs.len(), total_bits, planes)
}

/// Steps over the bitplanes of `n` coefficients exactly as
/// [`decode_planes`] reads them — same bits consumed, same errors — but
/// keeps only which coefficients are significant: the raw bits of the
/// significant ones are skipped a plane word at a time instead of dealt
/// out. How a region decode passes a block outside its box.
pub(crate) fn skip_planes(r: &mut BitReader<'_>, n: usize, total_bits: u32, planes: u32) -> Result<()> {
    walk_planes::<false>(r, &mut [], n, total_bits, planes)
}

/// The one plane walk under [`decode_planes`] (`DEAL`: bits land in
/// `coeffs`) and [`skip_planes`] (`coeffs` unused).
fn walk_planes<const DEAL: bool>(
    r: &mut BitReader<'_>,
    coeffs: &mut [u64],
    n: usize,
    total_bits: u32,
    planes: u32,
) -> Result<()> {
    assert!(n <= MAX_BLOCK, "plane coder takes at most {MAX_BLOCK} coefficients");
    assert!(total_bits <= 64);
    let words = n.div_ceil(64);
    // Coefficients that exist (the last word may be partial).
    let mut valid = [0u64; PLANE_WORDS];
    for (wi, v) in valid.iter_mut().enumerate().take(words) {
        let in_word = (n - wi * 64).min(64);
        *v = u64::MAX << (64 - in_word);
    }
    let mut significant = [0u64; PLANE_WORDS];
    for plane in 0..planes.min(total_bits) {
        let bitpos = total_bits - 1 - plane;
        // Raw bits for coefficients already significant.
        for wi in 0..words {
            let mut left = significant[wi];
            if left == 0 {
                continue;
            }
            let len = left.count_ones();
            if !DEAL {
                r.skip_bits(u64::from(len), "zfp plane bits")?;
                continue;
            }
            // Next raw bit at the MSB.
            let mut run = r.get_bits(len, "zfp plane bits")? << (64 - len);
            while run != 0 {
                let lead = left.leading_zeros();
                coeffs[wi * 64 + lead as usize] |= (run >> 63) << bitpos;
                run <<= 1;
                left &= !(1u64 << (63 - lead));
            }
        }

        // Group-test the rest in sequency order.
        let mut pending = [0u64; PLANE_WORDS];
        let mut left = 0u32;
        for wi in 0..words {
            pending[wi] = valid[wi] & !significant[wi];
            left += pending[wi].count_ones();
        }
        let mut wi = 0usize;
        while left > 0 && r.get_bits(1, "zfp group bit")? == 1 {
            // Zeros for the pending coefficients before the first set
            // one, then its one-bit; a scan may run out of pending
            // coefficients only in a stream no encoder wrote.
            let mut zeros = 0u32;
            let hit = loop {
                let (window, avail) = r.peek_word();
                let span = avail.min(left - zeros);
                if span == 0 {
                    return Err(CodecError::TruncatedStream { context: "zfp scan bit" });
                }
                let lead = window.leading_zeros();
                if lead < span {
                    r.skip_bits(u64::from(lead) + 1, "zfp scan bit")?;
                    zeros += lead;
                    break true;
                }
                r.skip_bits(u64::from(span), "zfp scan bit")?;
                zeros += span;
                if zeros == left {
                    break false;
                }
            };
            if !hit {
                break;
            }
            left -= zeros + 1;
            // The hit is pending coefficient number `zeros` from here.
            let mut skip = zeros;
            loop {
                let here = pending[wi].count_ones();
                if skip < here {
                    break;
                }
                skip -= here;
                pending[wi] = 0;
                wi += 1;
            }
            let mut word = pending[wi];
            for _ in 0..skip {
                word &= !(1u64 << (63 - word.leading_zeros()));
            }
            let lead = word.leading_zeros();
            let bit = 1u64 << (63 - lead);
            if DEAL {
                coeffs[wi * 64 + lead as usize] |= 1u64 << bitpos;
            }
            significant[wi] |= bit;
            // Everything up to and including the hit is dealt with.
            pending[wi] &= bit - 1;
        }
    }
    Ok(())
}

/// The per-bit plane decoder the word-parallel [`decode_planes`]
/// replaced, kept as the oracle its tests compare against.
#[cfg(test)]
fn decode_planes_reference(
    r: &mut BitReader<'_>,
    n: usize,
    total_bits: u32,
    planes: u32,
) -> Result<Vec<u64>> {
    let mut coeffs = vec![0u64; n];
    let mut significant = vec![false; n];
    let mut pending: Vec<usize> = (0..n).collect();
    for plane in 0..planes.min(total_bits) {
        let bitpos = total_bits - 1 - plane;
        for (i, sig) in significant.iter().enumerate().take(n) {
            if *sig && r.get_bit("zfp plane bits")? {
                coeffs[i] |= 1u64 << bitpos;
            }
        }
        let mut i = 0usize;
        let mut newly = false;
        while i < pending.len() {
            let any = r.get_bit("zfp group bit")?;
            if !any {
                break;
            }
            while i < pending.len() {
                let j = pending[i];
                let bit = r.get_bit("zfp scan bit")?;
                i += 1;
                if bit {
                    coeffs[j] |= 1u64 << bitpos;
                    significant[j] = true;
                    newly = true;
                    break;
                }
            }
        }
        if newly {
            pending.retain(|&j| !significant[j]);
        }
    }
    Ok(coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `n` coefficients decoded from the head of `bytes`.
    fn decoded(bytes: &[u8], n: usize, total_bits: u32, planes: u32) -> Vec<u64> {
        let mut out = [u64::MAX; MAX_BLOCK];
        decode_planes(&mut BitReader::new(bytes), &mut out[..n], total_bits, planes).unwrap();
        out[..n].to_vec()
    }

    #[test]
    fn lift_roundtrip_is_near_exact() {
        // The lifted transform drops ≤ a few LSBs; verify the inverse
        // reconstructs within that tolerance across magnitudes.
        for seed in 0..200i64 {
            let orig = [
                seed * 1_000_003,
                -seed * 777_777 + 5,
                seed * seed * 31 - 9,
                (seed % 17) * 1_000_000_007,
            ];
            let mut v = orig;
            fwd_lift(&mut v, 0, 1);
            inv_lift(&mut v, 0, 1);
            for (a, b) in orig.iter().zip(&v) {
                assert!((a - b).abs() <= 4, "orig {orig:?} recon {v:?}");
            }
        }
    }

    #[test]
    fn transform_roundtrip_3d() {
        let mut block: Vec<i64> = (0..64).map(|i| (i as i64 - 30) * 1_000_000).collect();
        let orig = block.clone();
        fwd_transform(&mut block, 3);
        assert_ne!(block, orig, "transform should decorrelate");
        inv_transform(&mut block, 3);
        for (a, b) in orig.iter().zip(&block) {
            assert!((a - b).abs() <= 64, "{a} vs {b}");
        }
    }

    #[test]
    fn transform_concentrates_energy_on_smooth_data() {
        // A linear ramp should transform to coefficients dominated by the
        // DC + first-order terms.
        let mut block: Vec<i64> = (0..16)
            .map(|i| {
                let (x, y) = (i % 4, i / 4);
                (1000 * x + 3000 * y) as i64
            })
            .collect();
        fwd_transform(&mut block, 2);
        let order = sequency_order(2);
        let low: i64 = order[..4].iter().map(|&i| block[i].abs()).sum();
        let high: i64 = order[8..].iter().map(|&i| block[i].abs()).sum();
        assert!(low > 8 * high.max(1), "low {low} high {high}");
    }

    #[test]
    fn sequency_order_is_permutation_and_starts_at_dc() {
        for rank in 1..=4usize {
            let ord = sequency_order(rank);
            let n = BLOCK_EDGE.pow(rank as u32);
            assert_eq!(ord.len(), n);
            let mut seen = vec![false; n];
            for &i in ord {
                assert!(!seen[i]);
                seen[i] = true;
            }
            assert_eq!(ord[0], 0, "DC coefficient first");
        }
    }

    #[test]
    fn negabinary_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, 1 << 40, -(1 << 40), i64::MAX / 4, i64::MIN / 4] {
            assert_eq!(nega_to_int(int_to_nega(v)), v);
        }
    }

    #[test]
    fn negabinary_small_magnitudes_have_high_zero_planes() {
        // Small |v| must have all high bits zero so truncated planes are
        // harmless.
        for v in -100i64..=100 {
            let u = int_to_nega(v);
            assert!(u < 1 << 10, "v={v} u={u:#x}");
        }
    }

    #[test]
    fn planes_roundtrip_exactly_with_full_precision() {
        let coeffs: Vec<u64> = vec![
            0x0,
            0x1,
            0xff,
            0xabcd,
            0xdead_beef,
            0x1234_5678_9abc,
            (1 << 47) - 1,
            1 << 47,
        ];
        let mut w = BitWriter::new();
        encode_planes(&mut w, &coeffs, 48, 48);
        let bytes = w.finish();
        assert_eq!(decoded(&bytes, coeffs.len(), 48, 48), coeffs);
    }

    #[test]
    fn truncated_planes_zero_low_bits() {
        let coeffs: Vec<u64> = vec![0b1111_1111; 16];
        let mut w = BitWriter::new();
        encode_planes(&mut w, &coeffs, 8, 3);
        let bytes = w.finish();
        for d in decoded(&bytes, 16, 8, 3) {
            assert_eq!(d, 0b1110_0000);
        }
    }

    #[test]
    fn sparse_planes_compress_well() {
        // One significant coefficient out of 64: group testing should
        // need far fewer bits than 64 per plane.
        let mut coeffs = vec![0u64; 64];
        coeffs[0] = (1 << 30) - 1;
        let mut w = BitWriter::new();
        encode_planes(&mut w, &coeffs, 30, 30);
        let nbits = w.bit_len();
        assert!(nbits < 64 * 8, "{nbits} bits");
        let bytes = w.finish();
        assert_eq!(decoded(&bytes, 64, 30, 30), coeffs);
    }

    #[test]
    fn zero_block_costs_one_bit_per_plane() {
        let coeffs = vec![0u64; 64];
        let mut w = BitWriter::new();
        encode_planes(&mut w, &coeffs, 20, 20);
        assert_eq!(w.bit_len(), 20);
    }

    /// Both decoders from bit `lead` of `bytes`: the coefficients and
    /// the bit position each stopped at, or the error; [`skip_planes`]
    /// must stop where the fast decoder does.
    type Decoded = Result<(Vec<u64>, u64)>;
    fn both_decoders(bytes: &[u8], lead: u32, n: usize, planes: u32) -> (Decoded, Decoded) {
        let mut fast = BitReader::new(bytes);
        fast.get_bits(lead, "lead").unwrap();
        let mut out = [u64::MAX; MAX_BLOCK];
        let got = decode_planes(&mut fast, &mut out[..n], 52, planes)
            .map(|()| (out[..n].to_vec(), fast.bit_position()));
        let mut slow = BitReader::new(bytes);
        slow.get_bits(lead, "lead").unwrap();
        let want = decode_planes_reference(&mut slow, n, 52, planes)
            .map(|c| (c, slow.bit_position()));
        // Skipping consumes what decoding reads and fails where it fails.
        let mut skip = BitReader::new(bytes);
        skip.get_bits(lead, "lead").unwrap();
        let skipped = skip_planes(&mut skip, n, 52, planes).map(|()| skip.bit_position());
        assert_eq!(skipped, got.as_ref().map(|(_, end)| *end).map_err(Clone::clone));
        (got, want)
    }

    /// ZFP's own full-rank transform as the reference: [`fwd_lift`] /
    /// [`inv_lift`] on every line of each axis at its stride, axis 0
    /// first forward and last first inverse.
    fn reference_transform(block: &mut [i64], rank: usize, inverse: bool) {
        let mut axes: Vec<usize> = (0..rank).collect();
        if inverse {
            axes.reverse();
        }
        for d in axes {
            let stride = BLOCK_EDGE.pow((rank - 1 - d) as u32);
            for base in (0..block.len()).filter(|i| (i / stride).is_multiple_of(BLOCK_EDGE)) {
                if inverse {
                    inv_lift(block, base, stride);
                } else {
                    fwd_lift(block, base, stride);
                }
            }
        }
    }

    /// The full `4^rank` block that carries `reduced` on its live axes
    /// and replicates it along every axis set in `collapsed`.
    fn replicate(reduced: &[i64], rank: usize, collapsed: usize) -> Vec<i64> {
        (0..BLOCK_EDGE.pow(rank as u32))
            .map(|i| {
                let (mut rem, mut j, mut step) = (i, 0, 1);
                for d in (0..rank).rev() {
                    if collapsed >> d & 1 == 0 {
                        j += rem % BLOCK_EDGE * step;
                        step *= BLOCK_EDGE;
                    }
                    rem /= BLOCK_EDGE;
                }
                reduced[j]
            })
            .collect()
    }

    #[test]
    fn live_order_without_collapse_inverts_sequency_order() {
        for rank in 1..=4usize {
            let order = live_order(rank, 0);
            for (i, &u) in order.iter().enumerate() {
                assert_eq!(sequency_order(rank)[u], i);
            }
            // Everything collapsed: the DC coefficient alone.
            assert_eq!(live_order(rank, (1 << rank) - 1), &[0]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The two lifting identities behind collapsed axes, for every
        /// rank and every subset of collapsed axes (all of them is
        /// `k = 0`), on values within ±2^50. Forward: the reference
        /// transform of the replicated full block is the reduced
        /// block's [`fwd_transform`], embedded by [`embed_coeffs`] at
        /// [`live_order`] with exact zeros elsewhere. Inverse: the
        /// reference inverse of arbitrary embedded coefficients is the
        /// reduced [`inv_transform`] of the [`live_coeffs`], replicated.
        /// The embedding target starts out stale, so an embed that
        /// leaves off-slice slots alone fails; so does a reduced pass
        /// order that differs from the full one.
        #[test]
        fn collapsed_axes_transform_as_the_reduced_block(
            seed in any::<u64>(),
            stale in any::<u64>(),
        ) {
            let mut state = seed | 1;
            let mut value = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % (1 << 51)) as i64 - (1 << 50)
            };
            for rank in 1..=4usize {
                let perm = sequency_order(rank);
                let n = perm.len();
                for collapsed in 0..1usize << rank {
                    let k = rank - collapsed.count_ones() as usize;
                    let order = live_order(rank, collapsed);
                    prop_assert_eq!(order.len(), BLOCK_EDGE.pow(k as u32));

                    let reduced: Vec<i64> = order.iter().map(|_| value()).collect();
                    let mut full = replicate(&reduced, rank, collapsed);
                    reference_transform(&mut full, rank, false);
                    let mut coeffs = reduced.clone();
                    fwd_transform(&mut coeffs, k);
                    let mut nega = vec![stale; n];
                    embed_coeffs(&coeffs, order, &mut nega);
                    for (u, &i) in perm.iter().enumerate() {
                        prop_assert_eq!(
                            nega_to_int(nega[u]), full[i],
                            "forward, rank {} collapsed {:#b}, coefficient {}", rank, collapsed, i
                        );
                    }

                    let coeffs: Vec<i64> = order.iter().map(|_| value()).collect();
                    let mut nega = vec![stale; n];
                    embed_coeffs(&coeffs, order, &mut nega);
                    let mut full = vec![0i64; n];
                    for (u, &i) in perm.iter().enumerate() {
                        full[i] = nega_to_int(nega[u]);
                    }
                    reference_transform(&mut full, rank, true);
                    let mut reduced = vec![0i64; order.len()];
                    live_coeffs(&nega, order, u64::MAX, &mut reduced);
                    inv_transform(&mut reduced, k);
                    prop_assert_eq!(
                        &full, &replicate(&reduced, rank, collapsed),
                        "inverse, rank {} collapsed {:#b}", rank, collapsed
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The word-parallel decoder against the per-bit oracle: equal
        /// coefficients and equal stream position, on a block that
        /// starts mid-byte and is followed by other bits; cut at every
        /// byte or with one bit flipped, it errs or succeeds exactly as
        /// the oracle does and never reads past the slice.
        #[test]
        fn word_parallel_planes_match_the_per_bit_oracle(
            rank in 1usize..5,
            planes in 1u32..53,
            decaying in any::<bool>(),
            lead in 0u32..24,
            flip in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let n = BLOCK_EDGE.pow(rank as u32);
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // Flat: every coefficient uses the full width. Decaying:
            // magnitudes fall off along the sequency order, so planes
            // start sparse and group tests do the work.
            let coeffs: Vec<u64> = (0..n)
                .map(|i| {
                    let drop = if decaying { (i as u32 * 51 / n as u32).min(51) } else { 0 };
                    (next() & (u64::MAX >> 12)) >> drop
                })
                .collect();
            let mut w = BitWriter::new();
            w.put_bits(next(), lead);
            encode_planes(&mut w, &coeffs, 52, planes);
            let block_end = w.bit_len();
            w.put_bits(next(), 37);
            let bytes = w.finish();

            let (got, want) = both_decoders(&bytes, lead, n, planes);
            let (got, end) = got.unwrap();
            prop_assert_eq!(&(got.clone(), end), &want.unwrap());
            prop_assert_eq!(end, block_end);
            let keep = !(u64::MAX >> 12 >> planes);
            for (g, c) in got.iter().zip(&coeffs) {
                prop_assert_eq!(*g, c & keep);
            }

            for cut in (lead as usize).div_ceil(8)..bytes.len() {
                let (got, want) = both_decoders(&bytes[..cut], lead, n, planes);
                prop_assert_eq!(got, want, "cut at byte {}", cut);
            }
            let mut flipped = bytes.clone();
            let at = lead as u64 + flip % (block_end - u64::from(lead));
            flipped[(at / 8) as usize] ^= 0x80 >> (at % 8);
            let (got, want) = both_decoders(&flipped, lead, n, planes);
            prop_assert_eq!(got, want, "bit {} flipped", at);
        }
    }
}
