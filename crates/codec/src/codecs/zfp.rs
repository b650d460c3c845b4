//! ZFP: transform-based fixed-accuracy compression (Lindstrom, TVCG
//! 2014).
//!
//! Each 4^d block is aligned to a per-block common exponent as
//! fixed-point integers, decorrelated with the lifted ZFP transform,
//! reordered by total sequency, mapped to negabinary, and bitplane-coded
//! MSB-first (see [`crate::transform`]). In ZFP's fixed-accuracy mode,
//! the one this port writes, the encoder keeps exactly as many
//! bitplanes as the error bound requires —
//! and, in this implementation, *verifies* each block against the bound
//! on the decoder's own integer path, escalating planes (or falling back
//! to verbatim storage) so the EBLC guarantee is strict. A verification
//! pass only answers "within the bound?", so it stops at the first
//! sample over it.
//!
//! Every block is coded on its real extent. An axis along which the
//! block has one sample — a unit array axis, as in a per-timestep
//! `[1, n, n, n]` chunk, or a trailing edge block when `dim % 4 == 1` —
//! is *collapsed*: padding would fill it with four replicas, and since
//! `fwd_lift4(c, c, c, c) = (c, 0, 0, 0)` and
//! `inv_lift4(a, 0, 0, 0) = (a, a, a, a)`, the padded block's
//! coefficients are the reduced block's with exact zeros elsewhere (see
//! [`crate::transform`]). So gather, rounding, the forward transform,
//! every verification pass and the decoder's reconstruction run on the
//! `4^k` positions of the block's `k` live axes; only the plane coder
//! sees the full `4^rank` coefficient array, and the stream is the one
//! full-rank coding writes, bit for bit.
//!
//! **Payload layout.** Blocks are coded in raster order of the block
//! grid. A *block row* is the blocks along the last axis that share
//! their outer block coordinates. A payload may start with a row index:
//! a tag byte `0xC0 | s` (top two bits `11`, the one block mode no block
//! uses), then one LEB128 varint per run of `2^s` consecutive rows
//! giving that run's length in bits, then the block bitstream. A box
//! decode jumps straight to the runs the box touches instead of parsing
//! every block before it. The encoder writes the finest index (`s = 0`,
//! one entry per row) that costs at most 1 % of the bitstream and a
//! coarser one where that is too dear, so no compression ratio drops by
//! more than 1 %; a one-row grid (every 1-D array) or a bitstream too
//! small for any index is bare, as is every payload written before the
//! index existed, and those decode sequentially. Rows rather than
//! blocks keep the index small: a benchmark `[1, 32, 32, 32]` chunk has
//! 64 rows against 512 blocks, so a per-row index is at most 129 bytes.

use super::common::{for_each_block, BlockRows};
use super::impl_stage_codec;
use crate::bitstream::{BitReader, BitWriter};
use crate::error::{CodecError, Result};
use crate::traits::CompressorId;
use crate::transform::{
    decode_planes, embed_coeffs, encode_planes, fwd_transform, inv_transform, live_coeffs,
    live_order, skip_planes, BLOCK_EDGE, FIXED_PREC, MAX_BLOCK,
};
use crate::util::{put_varint, ByteReader};
use eblcio_data::{ArrayView, Element, NdArray};
use std::ops::ControlFlow;

/// Negabinary bit width coded per coefficient.
const TOTAL_BITS: u32 = (FIXED_PREC + 4) as u32;
/// Block modes.
const MODE_CODED: u64 = 0;
const MODE_ZERO: u64 = 1;
const MODE_RAW: u64 = 2;
/// The one 2-bit mode no block uses: the top bits of an indexed
/// payload's tag byte, so an unindexed bitstream never starts the way an
/// indexed payload does.
const MODE_INDEX: u64 = 3;
/// An index costs at most this fraction's inverse of the bitstream
/// (1 %), so no stream's compression ratio drops by more than that.
const INDEX_COST_DIVISOR: usize = 100;

/// The ZFP compressor, in ZFP's fixed-accuracy mode: every block keeps
/// exactly as many bitplanes as the bound requires, verified per block
/// (the EBLC mode the paper sweeps).
#[derive(Clone, Debug, Default)]
pub struct Zfp;

impl Zfp {
    /// Array-stage encode at an already resolved absolute bound.
    ///
    /// All per-block state lives in fixed-size stack buffers reused
    /// across blocks and verification retries. The bitstream gets the
    /// row index it can afford (see the module docs).
    pub fn encode_impl<T: Element>(
        &self,
        data: ArrayView<'_, T>,
        abs: f64,
    ) -> Result<(Vec<u8>, f64)> {
        let shape = data.shape();
        let rank = shape.rank();
        let n_block = BLOCK_EDGE.pow(rank as u32);
        let mut bw = BitWriter::with_capacity(data.nbytes() / 4);
        let block_dims = [BLOCK_EDGE; 4];
        let mut enc = BlockEncoder::new(data);
        // Where each block row starts in the bitstream.
        let mut row_starts = Vec::new();

        for_each_block(shape, &block_dims[..rank], |base, dims| {
            if base[rank - 1] == 0 {
                row_starts.push(bw.bit_len());
            }
            let max_abs = enc.load(base, dims);
            if max_abs <= abs {
                // Zero block: reconstructing 0 keeps every sample within
                // the bound (covers exact-zero blocks too).
                bw.put_bits(MODE_ZERO, 2);
                return;
            }
            let Some((emax, scale)) = enc.transform(max_abs) else {
                enc.put_raw(&mut bw);
                return;
            };
            match accuracy_planes(abs, scale, |p| enc.decoded_err(p, abs) <= abs) {
                Some(p) => {
                    bw.put_bits(MODE_CODED, 2);
                    bw.put_bits((emax + 2048) as u64, 12);
                    bw.put_bits(u64::from(p), 7);
                    encode_planes(&mut bw, &enc.nega[..n_block], TOTAL_BITS, p);
                }
                // Bound tighter than the fixed-point path can honour:
                // store the samples verbatim.
                None => enc.put_raw(&mut bw),
            }
        });

        row_starts.push(bw.bit_len());
        let bits = bw.finish();
        Ok((with_row_index(&row_starts, bits), abs))
    }

    /// Array-stage decode of the box `origin .. origin + extent`, mirror
    /// of [`Self::encode_impl`]. The block stream is self-describing
    /// (per-block exponents and plane counts), so the recorded bound is
    /// not needed to reconstruct — and a stream whose blocks all carry
    /// one plane count, as ZFP's fixed-precision mode writes them,
    /// decodes the same way (the `zfp-prec20` fixtures).
    pub fn decode_impl<T: Element>(
        &self,
        payload: &[u8],
        shape: eblcio_data::Shape,
        _abs: f64,
        origin: &[usize],
        extent: &[usize],
    ) -> Result<NdArray<T>> {
        decode_box(payload, shape, origin, extent)
    }
}

/// Fixed-accuracy plane count: an initial budget from the tolerance,
/// then verify and escalate on the decoder's exact path (`within`).
/// Starting one plane *optimistic* and escalating keeps the coded
/// precision tight against the bound (better CR) at the cost of an
/// occasional extra verification pass. `None` when even every plane
/// misses the bound.
fn accuracy_planes(abs: f64, scale: f64, mut within: impl FnMut(u32) -> bool) -> Option<u32> {
    let tol_int = abs * scale;
    // A tolerance that underflows to zero has log2 −∞, which casts to
    // `i32::MIN`. The arithmetic wraps there, as the encoder always has
    // in release builds (the stream bits depend on it).
    let drop_bits = (tol_int.log2().floor().min(f64::from(TOTAL_BITS)) as i32).wrapping_add(1);
    let mut planes = (TOTAL_BITS as i32).wrapping_sub(drop_bits).clamp(1, TOTAL_BITS as i32) as u32;
    loop {
        if within(planes) {
            return Some(planes);
        }
        if planes >= TOTAL_BITS {
            return None;
        }
        planes = (planes + 2).min(TOTAL_BITS);
    }
}

/// The encoder's view of one block at a time: the loaded block's
/// geometry and the fixed-size buffers reused across blocks and
/// verification passes.
struct BlockEncoder<'a, T: Element> {
    samples: &'a [T],
    shape: eblcio_data::Shape,
    strides: [usize; 4],
    live: LiveBlock,
    /// The block's extent, left-padded to four axes.
    dims4: [usize; 4],
    /// Flat sample offset contributed by each padded position of each
    /// live axis, clamped to the array (edge replication).
    axis_off: [[usize; BLOCK_EDGE]; 4],
    /// The reduced block's samples.
    padded: [f64; MAX_BLOCK],
    /// Its fixed-point values, then coefficients.
    ints: [i64; MAX_BLOCK],
    /// The full block's sequency-ordered negabinary coefficients.
    nega: [u64; MAX_BLOCK],
    recon: [i64; MAX_BLOCK],
    inv_scale: f64,
    raw_bytes: Vec<u8>,
}

impl<'a, T: Element> BlockEncoder<'a, T> {
    fn new(data: ArrayView<'a, T>) -> Self {
        Self {
            samples: data.as_slice(),
            shape: data.shape(),
            strides: data.shape().strides(),
            // Replaced by every `load`.
            live: LiveBlock::new(&[1]),
            dims4: [1; 4],
            axis_off: [[0; BLOCK_EDGE]; 4],
            padded: [0.0; MAX_BLOCK],
            ints: [0; MAX_BLOCK],
            nega: [0; MAX_BLOCK],
            recon: [0; MAX_BLOCK],
            inv_scale: 0.0,
            raw_bytes: Vec::new(),
        }
    }

    /// Gathers the block `base .. base + dims` on its live extent, row by
    /// row, edge-padded by replication along the live axes; returns its
    /// largest magnitude.
    fn load(&mut self, base: &[usize], dims: &[usize]) -> f64 {
        let rank = dims.len();
        let pad = 4 - rank;
        self.live = LiveBlock::new(dims);
        let edge = self.live.edge;
        self.dims4 = [1; 4];
        for d in 0..rank {
            self.dims4[pad + d] = dims[d];
            let last = self.shape.dim(d) - 1;
            let positions = &mut self.axis_off[pad + d][..edge[pad + d]];
            for (p, slot) in positions.iter_mut().enumerate() {
                *slot = (base[d] + p).min(last) * self.strides[d];
            }
        }
        let (samples, axis_off) = (self.samples, &self.axis_off);
        let padded = &mut self.padded[..self.live.len()];
        let mut k = 0usize;
        for p0 in 0..edge[0] {
            for p1 in 0..edge[1] {
                for p2 in 0..edge[2] {
                    let off = axis_off[0][p0] + axis_off[1][p1] + axis_off[2][p2];
                    for &last in &axis_off[3][..edge[3]] {
                        padded[k] = samples[off + last].to_f64();
                        k += 1;
                    }
                }
            }
        }
        padded.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Aligns the loaded block to its common exponent as fixed-point
    /// integers, transforms them over the live axes and embeds the
    /// coefficients into [`Self::nega`] for the plane coder. Returns the
    /// exponent and the fixed-point scale — or `None` in subnormal
    /// territory, where the scale factor would overflow and the block is
    /// stored verbatim.
    fn transform(&mut self, max_abs: f64) -> Option<(i32, f64)> {
        let emax = max_abs.log2().floor() as i32;
        if emax < -1000 {
            return None;
        }
        let s_exp = FIXED_PREC - 3 - emax;
        let scale = (s_exp as f64).exp2();
        self.inv_scale = (-s_exp as f64).exp2();
        let n = self.live.len();
        let ints = &mut self.ints[..n];
        for (q, &v) in ints.iter_mut().zip(&self.padded[..n]) {
            *q = (v * scale).round() as i64;
        }
        fwd_transform(ints, self.live.k);
        let n_block = BLOCK_EDGE.pow(self.shape.rank() as u32);
        embed_coeffs(ints, self.live.order, &mut self.nega[..n_block]);
        Some((emax, scale))
    }

    /// Largest error, in `T` precision, of the loaded block decoded from
    /// `planes` bitplanes — on the decoder's exact path, at the block's
    /// own sample positions — or the first one above `stop`, where the
    /// walk ends. `e > stop` is false for NaN, which `max` ignores too,
    /// so a pass decides exactly as `max ≤ stop` would.
    fn decoded_err(&mut self, planes: u32, stop: f64) -> f64 {
        let n = self.live.len();
        let recon = &mut self.recon[..n];
        self.live.reconstruct(&self.nega, planes, recon);
        let (padded, inv_scale) = (&self.padded[..n], self.inv_scale);
        let mut err = 0.0f64;
        let _ = block_samples(&self.dims4, &self.live.edge, &self.axis_off, |poff, _| {
            let rt = T::from_f64(recon[poff] as f64 * inv_scale).to_f64();
            let e = (rt - padded[poff]).abs();
            if e > stop {
                err = e;
                return ControlFlow::Break(());
            }
            err = err.max(e);
            ControlFlow::Continue(())
        });
        err
    }

    /// Verbatim storage of the loaded block's samples.
    fn put_raw(&mut self, bw: &mut BitWriter) {
        bw.put_bits(MODE_RAW, 2);
        let (samples, raw_bytes) = (self.samples, &mut self.raw_bytes);
        let _ = block_samples(&self.dims4, &self.live.edge, &self.axis_off, |_, off| {
            raw_bytes.clear();
            samples[off].write_le(raw_bytes);
            for &b in raw_bytes.iter() {
                bw.put_bits(u64::from(b), 8);
            }
            ControlFlow::Continue(())
        });
    }
}

/// One block's real extent, left-padded to four axes like [`BlockRows`]:
/// the reduced block its `k` live axes (extent > 1) span, and where its
/// coefficients sit among the full block's (see the module docs). A
/// block with no collapsed axis is the `k = rank` case.
struct LiveBlock {
    /// Padded positions per axis: [`BLOCK_EDGE`] on a live axis, 1 on a
    /// collapsed or padding one. The reduced block is row-major over
    /// these.
    edge: [usize; 4],
    /// Number of live axes.
    k: usize,
    /// Sequency position of each reduced coefficient ([`live_order`]).
    order: &'static [usize],
}

impl LiveBlock {
    /// The live extent of a block of `dims` (rank-length, as
    /// [`for_each_block`] yields them).
    fn new(dims: &[usize]) -> Self {
        let rank = dims.len();
        let pad = 4 - rank;
        let mut edge = [1; 4];
        let mut collapsed = 0usize;
        for (d, &n) in dims.iter().enumerate() {
            if n == 1 {
                collapsed |= 1 << d;
            } else {
                edge[pad + d] = BLOCK_EDGE;
            }
        }
        Self { edge, k: rank - collapsed.count_ones() as usize, order: live_order(rank, collapsed) }
    }

    /// Entries of the reduced block, `4^k`.
    fn len(&self) -> usize {
        self.order.len()
    }

    /// The one reconstruction path, under encoder verification and the
    /// decoder: the live coefficients of the sequency-ordered `nega`,
    /// truncated to `planes` bitplanes and inverse-transformed over the
    /// live axes into `out` (`4^k` entries). A sample is
    /// `out[i] as f64 · inv_scale`, converted where it is used.
    fn reconstruct(&self, nega: &[u64], planes: u32, out: &mut [i64]) {
        let mask = !((1u64 << (TOTAL_BITS - planes.min(TOTAL_BITS))) - 1);
        live_coeffs(nega, self.order, mask, out);
        inv_transform(out, self.k);
    }
}

/// Where one block meets the requested box, every array left-padded to
/// four axes like [`BlockRows`].
struct BlockHit {
    /// Block extent (clipped at the array's upper faces).
    dims: [usize; 4],
    /// First block-local coordinate inside the box.
    skip: [usize; 4],
    /// The intersection's rows in the output array.
    rows: BlockRows,
}

impl BlockHit {
    /// Visits the intersection's rows: offset of the row's first sample
    /// in the reduced block laid out over `edge`, and in the output.
    #[inline(always)]
    fn for_each_row(&self, edge: &[usize; 4], mut f: impl FnMut(usize, usize)) {
        let s = &self.skip;
        self.rows.for_each_row(|i, off| {
            let poff =
                (((s[0] + i[0]) * edge[1] + s[1] + i[1]) * edge[2] + s[2] + i[2]) * edge[3] + s[3];
            f(poff, off);
        });
    }
}

/// The payload for a block bitstream whose block rows start at
/// `row_starts` (the last entry is its end): the finest row index that
/// costs at most 1/[`INDEX_COST_DIVISOR`] of the bitstream, then the
/// bitstream — or the bare bitstream when no index of two or more
/// entries is that cheap (a one-row grid has none). An entry covers
/// `2^s` consecutive rows, one unless the bitstream is small, and `s` is
/// the tag byte's low six bits.
fn with_row_index(row_starts: &[u64], bits: Vec<u8>) -> Vec<u8> {
    let rows = row_starts.len() - 1;
    let mut index = Vec::new();
    for s in (0..usize::BITS).take_while(|&s| 1 << s < rows) {
        let per = 1 << s;
        index.clear();
        for first in (0..rows).step_by(per) {
            put_varint(&mut index, row_starts[(first + per).min(rows)] - row_starts[first]);
        }
        if (1 + index.len()) * INDEX_COST_DIVISOR <= bits.len() {
            let mut payload = Vec::with_capacity(1 + index.len() + bits.len());
            payload.push((MODE_INDEX << 6) as u8 | s as u8);
            payload.extend_from_slice(&index);
            payload.extend_from_slice(&bits);
            return payload;
        }
    }
    bits
}

/// Splits a payload over a grid of `rows` block rows into its segments
/// — runs of consecutive rows, each found on its own — and its block
/// bitstream: `(rows per segment, segment lengths, bitstream)`. An
/// indexed payload has one varint bit length per segment (read in
/// order by the decode), which must account for the bitstream's bytes
/// exactly. Any other first byte starts a bare bitstream (its top bits
/// are the first block's mode): one segment of every row, no lengths.
fn split_index(payload: &[u8], rows: usize) -> Result<(usize, Option<ByteReader<'_>>, &[u8])> {
    let Some((&tag, rest)) = payload.split_first() else {
        return Ok((rows, None, payload));
    };
    if u64::from(tag >> 6) != MODE_INDEX {
        return Ok((rows, None, payload));
    }
    let per = 1usize.checked_shl(u32::from(tag & 0x3f)).unwrap_or(usize::MAX).min(rows);
    let mut lengths = ByteReader::new(rest);
    let mut bits = 0u64;
    for _ in 0..rows.div_ceil(per) {
        bits = bits
            .checked_add(lengths.varint("zfp row length")?)
            .ok_or(CodecError::Corrupt { context: "zfp row index" })?;
    }
    let (index, data) = rest.split_at(lengths.position());
    if bits.div_ceil(8) != data.len() as u64 {
        return Err(CodecError::Corrupt { context: "zfp row index" });
    }
    Ok((per, Some(ByteReader::new(index)), data))
}

/// Decodes the box `origin .. origin + extent` of a ZFP payload over
/// `shape` — the whole array when the box is the array — one segment of
/// block rows at a time (see [`split_index`]). Plane coding consumes a
/// data-dependent bit count, so a segment is parsed from its start up
/// to the box's last block in it; with an index the decode jumps to
/// each segment the box touches and parses nothing of the others, a
/// bare bitstream is one segment. Blocks outside the box are only
/// stepped over ([`skip_planes`], [`BitReader::skip_bits`] for raw
/// samples); blocks that overlap it are reconstructed on their live
/// extent ([`LiveBlock`]) and written row by row: an interior block is
/// `4^(rank−1)` four-sample row copies out of the reconstructed block.
/// A segment parsed to its end must end at its indexed length, so a
/// whole decode rejects any index that disagrees with its blocks.
fn decode_box<T: Element>(
    payload: &[u8],
    shape: eblcio_data::Shape,
    origin: &[usize],
    extent: &[usize],
) -> Result<NdArray<T>> {
    let rank = shape.rank();
    let pad = 4 - rank;
    // Blocks per axis, and the box's first and last block, left-padded
    // to four axes.
    let (mut counts, mut lo, mut hi) = ([1usize; 4], [0usize; 4], [0usize; 4]);
    for d in 0..rank {
        counts[pad + d] = shape.dim(d).div_ceil(BLOCK_EDGE);
        lo[pad + d] = origin[d] / BLOCK_EDGE;
        hi[pad + d] = (origin[d] + extent[d] - 1) / BLOCK_EDGE;
    }
    // Every block codes at least its 2-bit mode, so a payload too short
    // for the shape's blocks is corrupt — caught before the output is
    // sized from a header shape the payload CRC does not cover, and
    // before the index, whose entry count it bounds, is parsed.
    let blocks: u64 = counts.iter().map(|&c| c as u64).product();
    if (payload.len() as u64).saturating_mul(8) < 2 * blocks {
        return Err(CodecError::Corrupt { context: "zfp block count" });
    }
    let rows = counts[..3].iter().product();
    let (per, mut lengths, data) = split_index(payload, rows)?;
    // A row's outer block coordinates, and whether the box meets it.
    let row_at = |row: usize| {
        [row / (counts[1] * counts[2]), row / counts[2] % counts[1], row % counts[2]]
    };
    let touched = |at: [usize; 3]| (0..3).all(|a| lo[a] <= at[a] && at[a] <= hi[a]);
    let last_row = (hi[0] * counts[1] + hi[1]) * counts[2] + hi[2];
    let mut dec = BoxDecoder::<T>::new(shape, origin, extent);
    let mut br = BitReader::new(data);
    let mut end = 0u64;
    for first in (0..=last_row).step_by(per) {
        let start = end;
        if let Some(lengths) = &mut lengths {
            // Cannot overflow: `split_index` summed the same lengths.
            end += lengths.varint("zfp row length")?;
        }
        let last = (first + per).min(rows) - 1;
        // The segment is parsed up to the last row in it the box meets.
        let Some(stop) = (first..=last.min(last_row)).rev().find(|&r| touched(row_at(r))) else {
            continue;
        };
        if lengths.is_some() {
            br = BitReader::new(data);
            br.skip_bits(start, "zfp row start")?;
        }
        for row in first..=stop {
            let at = row_at(row);
            let in_box = touched(at);
            let last_block = if row == stop { hi[3] } else { counts[3] - 1 };
            for b in 0..=last_block {
                let hit = in_box && lo[3] <= b && b <= hi[3];
                dec.block(&mut br, [at[0], at[1], at[2], b], hit)?;
            }
        }
        let to_end = stop == last && hi[3] == counts[3] - 1;
        if lengths.is_some() && to_end && br.bit_position() != end {
            return Err(CodecError::Corrupt { context: "zfp row length" });
        }
    }
    Ok(NdArray::from_vec(dec.out_shape, dec.out))
}

/// A box decode's output and the per-block buffers it reuses.
struct BoxDecoder<T: Element> {
    shape: eblcio_data::Shape,
    origin: [usize; 4],
    extent: [usize; 4],
    out_shape: eblcio_data::Shape,
    out: Vec<T>,
    nega: [u64; MAX_BLOCK],
    recon: [i64; MAX_BLOCK],
}

impl<T: Element> BoxDecoder<T> {
    fn new(shape: eblcio_data::Shape, origin: &[usize], extent: &[usize]) -> Self {
        let out_shape = eblcio_data::Shape::new(extent);
        let (mut o, mut e) = ([0usize; 4], [0usize; 4]);
        o[..origin.len()].copy_from_slice(origin);
        e[..extent.len()].copy_from_slice(extent);
        Self {
            shape,
            origin: o,
            extent: e,
            out_shape,
            out: vec![T::default(); out_shape.len()],
            nega: [0; MAX_BLOCK],
            recon: [0; MAX_BLOCK],
        }
    }

    /// Where the block `base .. base + dims` meets the box, if it does.
    fn hit(&self, base: &[usize], dims: &[usize]) -> Option<BlockHit> {
        let rank = base.len();
        let pad = 4 - rank;
        let (origin, extent) = (&self.origin, &self.extent);
        let mut ibase = [0usize; 4];
        let mut idims = [0usize; 4];
        for d in 0..rank {
            ibase[d] = base[d].max(origin[d]);
            idims[d] = (base[d] + dims[d]).min(origin[d] + extent[d]).saturating_sub(ibase[d]);
        }
        idims[..rank].iter().all(|&m| m > 0).then(|| {
            let mut at = ibase;
            for d in 0..rank {
                at[d] -= origin[d];
            }
            let mut h = BlockHit {
                dims: [1; 4],
                skip: [0; 4],
                rows: BlockRows::new(self.out_shape, &at[..rank], &idims[..rank]),
            };
            for d in 0..rank {
                h.dims[pad + d] = dims[d];
                h.skip[pad + d] = ibase[d] - base[d];
            }
            h
        })
    }

    /// Parses the block at block coordinates `at` (left-padded to four
    /// axes) and, when it may meet the box, writes its samples there.
    fn block(&mut self, br: &mut BitReader<'_>, at: [usize; 4], in_box: bool) -> Result<()> {
        let rank = self.shape.rank();
        let pad = 4 - rank;
        let (mut base, mut dims) = ([0usize; 4], [0usize; 4]);
        for d in 0..rank {
            base[d] = at[pad + d] * BLOCK_EDGE;
            dims[d] = BLOCK_EDGE.min(self.shape.dim(d) - base[d]);
        }
        let (base, dims) = (&base[..rank], &dims[..rank]);
        let hit = if in_box { self.hit(base, dims) } else { None };
        let out = &mut self.out;
        match br.get_bits(2, "zfp block mode")? {
            MODE_ZERO => {
                if let Some(h) = &hit {
                    let row_len = h.rows.dims[3];
                    h.rows.for_each_row(|_, off| {
                        out[off..off + row_len].fill(T::from_f64(0.0));
                    });
                }
            }
            MODE_RAW => {
                // Every sample of the block is in the stream, in raster
                // order; the ones outside the box are stepped over.
                let sample_bits = (T::BYTES * 8) as u32;
                let skip_samples = |br: &mut BitReader<'_>, count: usize| {
                    br.skip_bits(count as u64 * u64::from(sample_bits), "zfp raw byte")
                };
                let Some(h) = &hit else {
                    return skip_samples(br, dims.iter().product());
                };
                let (d, s, inner) = (&h.dims, &h.skip, &h.rows.dims);
                for b0 in 0..d[0] {
                    for b1 in 0..d[1] {
                        for b2 in 0..d[2] {
                            let b = [b0, b1, b2];
                            if (0..3).any(|a| b[a] < s[a] || b[a] >= s[a] + inner[a]) {
                                skip_samples(br, d[3])?;
                                continue;
                            }
                            let off = h.rows.row_offset([b0 - s[0], b1 - s[1], b2 - s[2]]);
                            skip_samples(br, s[3])?;
                            for o in &mut out[off..off + inner[3]] {
                                // The sample's little-endian bytes, first
                                // byte in the top bits read.
                                let bytes = br.get_bits(sample_bits, "zfp raw byte")?.to_be_bytes();
                                *o = T::read_le(&bytes[8 - T::BYTES..])
                                    .ok_or(CodecError::Corrupt { context: "zfp raw sample" })?;
                            }
                            skip_samples(br, d[3] - s[3] - inner[3])?;
                        }
                    }
                }
            }
            MODE_CODED => {
                let emax = br.get_bits(12, "zfp emax")? as i32 - 2048;
                let planes = br.get_bits(7, "zfp planes")? as u32;
                if planes == 0 || planes > TOTAL_BITS {
                    return Err(CodecError::Corrupt { context: "zfp plane count" });
                }
                let n_block = BLOCK_EDGE.pow(rank as u32);
                let Some(h) = &hit else {
                    return skip_planes(br, n_block, TOTAL_BITS, planes);
                };
                let nega = &mut self.nega[..n_block];
                decode_planes(br, nega, TOTAL_BITS, planes)?;
                let s_exp = FIXED_PREC - 3 - emax;
                let inv_scale = (-s_exp as f64).exp2();
                let live = LiveBlock::new(dims);
                let recon = &mut self.recon[..live.len()];
                live.reconstruct(nega, TOTAL_BITS, recon);
                let row_len = h.rows.dims[3];
                h.for_each_row(&live.edge, |poff, off| {
                    let row = &recon[poff..poff + row_len];
                    for (o, &q) in out[off..off + row_len].iter_mut().zip(row) {
                        *o = T::from_f64(q as f64 * inv_scale);
                    }
                });
            }
            _ => return Err(CodecError::Corrupt { context: "zfp block mode" }),
        }
        Ok(())
    }
}

/// Visits a block's own (unpadded) samples in raster order until `f`
/// breaks: position in the reduced block, flat offset in the array.
/// `dims4` is the block's extent and `edge` the reduced block's
/// ([`LiveBlock::edge`]), both left-padded to four axes; `axis_off`
/// holds each axis position's flat-offset contribution.
#[inline(always)]
fn block_samples(
    dims4: &[usize; 4],
    edge: &[usize; 4],
    axis_off: &[[usize; BLOCK_EDGE]; 4],
    mut f: impl FnMut(usize, usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    for i0 in 0..dims4[0] {
        for i1 in 0..dims4[1] {
            for i2 in 0..dims4[2] {
                let poff = ((i0 * edge[1] + i1) * edge[2] + i2) * edge[3];
                let off = axis_off[0][i0] + axis_off[1][i1] + axis_off[2][i2];
                for (i3, &last) in axis_off[3][..dims4[3]].iter().enumerate() {
                    f(poff + i3, off + last)?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

impl_stage_codec!(Zfp, CompressorId::Zfp);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecs::preset;
    use crate::traits::{compress, decompress, decompress_region, ErrorBound};
    use eblcio_data::{max_rel_error, Shape};

    fn smooth(n: usize) -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(n, n, n), |i| {
            let x = i[0] as f32 * 0.2;
            let y = i[1] as f32 * 0.15;
            let z = i[2] as f32 * 0.1;
            (x.sin() + y.cos() + (z * 0.5).sin()) * 30.0
        })
    }

    #[test]
    fn roundtrip_respects_bound() {
        let data = smooth(16);
        let c = preset(CompressorId::Zfp);
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let stream = compress(&c, &data, ErrorBound::Relative(eps)).unwrap();
            let back = decompress::<f32>(&c, &stream).unwrap();
            let err = max_rel_error(&data, &back);
            assert!(err <= eps * 1.0000001, "eps {eps}: err {err}");
        }
    }

    #[test]
    fn roundtrip_odd_shapes_all_ranks() {
        let c = preset(CompressorId::Zfp);
        for shape in [
            Shape::d1(1),
            Shape::d1(5),
            Shape::d1(130),
            Shape::d2(5, 7),
            Shape::d2(4, 4),
            Shape::d3(9, 6, 5),
            Shape::d4(5, 5, 5, 5),
        ] {
            let data = NdArray::<f64>::from_fn(shape, |i| {
                (i.iter().sum::<usize>() as f64 * 0.31).cos() * 12.0
            });
            let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
            let back = decompress::<f64>(&c, &stream).unwrap();
            assert!(
                max_rel_error(&data, &back) <= 1e-3 * 1.0000001,
                "shape {shape}"
            );
        }
    }

    #[test]
    fn zero_field_is_tiny() {
        let data = NdArray::<f32>::zeros(Shape::d3(16, 16, 16));
        let c = preset(CompressorId::Zfp);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        let back = decompress::<f32>(&c, &stream).unwrap();
        assert_eq!(back.as_slice(), data.as_slice());
        // 64 blocks × 2 mode bits ⇒ well under 200 bytes with framing.
        assert!(stream.len() < 200, "{} bytes", stream.len());
    }

    #[test]
    fn compresses_smooth_data() {
        let data = smooth(16);
        let c = preset(CompressorId::Zfp);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-2)).unwrap();
        let cr = data.nbytes() as f64 / stream.len() as f64;
        assert!(cr > 3.0, "CR {cr}");
    }

    #[test]
    fn cr_grows_with_looser_bounds() {
        let data = smooth(16);
        let c = preset(CompressorId::Zfp);
        let mut last = usize::MAX;
        for eps in [1e-5, 1e-3, 1e-1] {
            let len = compress(&c, &data, ErrorBound::Relative(eps)).unwrap()
                .len();
            assert!(len <= last, "eps {eps}");
            last = len;
        }
    }

    #[test]
    fn mixed_magnitude_blocks() {
        // Exercises per-block exponents: tiny and huge values side by
        // side.
        let data = NdArray::<f64>::from_fn(Shape::d2(16, 16), |i| {
            if i[0] < 8 {
                1e-6 * (i[1] as f64 + 1.0)
            } else {
                1e6 * (i[1] as f64 + 1.0)
            }
        });
        let c = preset(CompressorId::Zfp);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-4)).unwrap();
        let back = decompress::<f64>(&c, &stream).unwrap();
        assert!(max_rel_error(&data, &back) <= 1e-4 * 1.0000001);
    }

    #[test]
    fn negative_values_roundtrip() {
        let data = NdArray::<f32>::from_fn(Shape::d2(12, 12), |i| {
            -50.0 + (i[0] as f32) * 7.0 - (i[1] as f32) * 3.0
        });
        let c = preset(CompressorId::Zfp);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-4)).unwrap();
        let back = decompress::<f32>(&c, &stream).unwrap();
        assert!(max_rel_error(&data, &back) <= 1e-4 * 1.0000001);
    }

    #[test]
    fn truncation_detected() {
        let data = smooth(8);
        let c = preset(CompressorId::Zfp);
        let stream = compress(&c, &data, ErrorBound::Relative(1e-3)).unwrap();
        for cut in [6, 12, stream.len() - 1] {
            assert!(decompress::<f32>(&c, &stream[..cut.min(stream.len())]).is_err());
        }
    }

    #[test]
    fn region_decode_is_bit_identical_to_full_slice() {
        // Mixed block modes: a zero corner, smooth coded blocks, and a
        // huge-range block that falls back to raw storage.
        let data = NdArray::<f32>::from_fn(Shape::d3(13, 10, 9), |i| {
            if i[0] < 4 && i[1] < 4 && i[2] < 4 {
                0.0
            } else if i == [8, 8, 8] {
                1e30
            } else {
                ((i[0] as f32) * 0.3).sin() + ((i[1] as f32) * 0.2).cos() * (i[2] as f32)
            }
        });
        let c = preset(CompressorId::Zfp);
        let stream = compress(&c, &data, ErrorBound::Absolute(1e-2)).unwrap();
        let full = decompress::<f32>(&c, &stream).unwrap();
        for (origin, extent) in [
            ([0, 0, 0], [13, 10, 9]),
            ([3, 2, 1], [6, 5, 7]),
            ([12, 9, 8], [1, 1, 1]),
            ([0, 0, 0], [4, 4, 4]),
            ([7, 6, 5], [6, 4, 4]),
        ] {
            let part = decompress_region::<f32>(&c, &stream, &origin, &extent).unwrap()
                .expect("zfp supports partial decode");
            assert_eq!(part.shape(), Shape::new(&extent));
            for a in 0..extent[0] {
                for b in 0..extent[1] {
                    for d in 0..extent[2] {
                        let got = part.as_slice()[(a * extent[1] + b) * extent[2] + d];
                        let want = full.as_slice()
                            [((origin[0] + a) * 10 + origin[1] + b) * 9 + origin[2] + d];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "({origin:?}, {extent:?}) at [{a},{b},{d}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_precision_decoder_is_mode_agnostic() {
        // A fixed-precision stream (every coded block at 20 planes,
        // written by an earlier encoder) decodes through the preset
        // chain, and every box of it is the slice of the whole decode.
        let c = preset(CompressorId::Zfp);
        let stream = include_bytes!("../../tests/fixtures/zfp-prec20_f32.eblc");
        let whole = decompress::<f32>(&c, stream).unwrap();
        assert_eq!(whole.shape(), Shape::d3(20, 21, 22));
        for (origin, extent) in [([0, 0, 0], [20, 21, 22]), ([3, 5, 7], [9, 4, 13]), ([19, 20, 21], [1, 1, 1])] {
            let part = decompress_region::<f32>(&c, stream, &origin, &extent).unwrap().unwrap();
            for (i, got) in part.as_slice().iter().enumerate() {
                let at = [
                    origin[0] + i / (extent[1] * extent[2]),
                    origin[1] + i / extent[2] % extent[1],
                    origin[2] + i % extent[2],
                ];
                assert_eq!(got.to_bits(), whole.get(&at).to_bits(), "{origin:?}+{extent:?} at {at:?}");
            }
        }
    }

    /// Shapes whose blocks collapse at each axis position — a `k = 0`
    /// edge block (`1025 = 4·256 + 1`), trailing `dim % 4 == 1` edges,
    /// unit axes in front and inside, and the benchmark's per-timestep
    /// chunk — each with a box aligned to no block.
    const COLLAPSING: [(&[usize], &[usize], &[usize]); 5] = [
        (&[1025], &[3], &[1022]),
        (&[5, 9], &[1, 2], &[4, 7]),
        (&[9, 1, 13], &[2, 0, 5], &[7, 1, 8]),
        (&[1, 1, 5, 9], &[0, 0, 1, 3], &[1, 1, 4, 6]),
        (&[1, 32, 32, 32], &[0, 5, 3, 9], &[1, 13, 14, 10]),
    ];

    /// Smooth content with a zero corner (zero blocks) and scattered
    /// spikes that a tight absolute bound can only store verbatim.
    fn collapsing_field<T: Element>(shape: Shape) -> NdArray<T> {
        NdArray::from_fn(shape, |i| {
            let h = i.iter().fold(17u64, |h, &c| h.wrapping_mul(31).wrapping_add(c as u64));
            let v = if i.iter().all(|&c| c < 4) {
                0.0
            } else if h % 211 == 0 {
                1e30
            } else {
                let phase: f64 =
                    i.iter().enumerate().map(|(d, &c)| c as f64 * (0.11 + 0.07 * d as f64)).sum();
                phase.sin() * 40.0 + (phase * 0.31).cos() * 9.0
            };
            T::from_f64(v)
        })
    }

    fn check_collapsing<T: Element>() {
        for (dims, origin, extent) in COLLAPSING {
            let shape = Shape::new(dims);
            let data = collapsing_field::<T>(shape);
            let last: Vec<usize> = dims.iter().map(|&n| n - 1).collect();
            let c = preset(CompressorId::Zfp);
            for bound in [ErrorBound::Absolute(1e-2), ErrorBound::Relative(1e-3)] {
                let what = format!("{shape} {} {bound:?}", T::NAME);
                let stream = compress(&c, &data, bound).unwrap();
                // Within the bound the header records.
                let (h, _) = crate::header::read_stream(&stream).unwrap();
                let whole = decompress::<T>(&c, &stream).unwrap();
                for (a, b) in data.as_slice().iter().zip(whole.as_slice()) {
                    let err = (a.to_f64() - b.to_f64()).abs();
                    assert!(err <= h.abs_bound, "{what}: error {err} over {}", h.abs_bound);
                }
                let ones = vec![1; dims.len()];
                for (o, e) in [(origin, extent), (&last[..], &ones[..])] {
                    let part = decompress_region::<T>(&c, &stream, o, e).unwrap().unwrap();
                    let mut at = vec![0usize; e.len()];
                    for (i, got) in part.as_slice().iter().enumerate() {
                        let mut rest = i;
                        for d in (0..e.len()).rev() {
                            at[d] = o[d] + rest % e[d];
                            rest /= e[d];
                        }
                        assert_eq!(
                            got.to_bits(),
                            whole.get(&at).to_bits(),
                            "{what}: {o:?}+{e:?} at {at:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn collapsed_blocks_roundtrip_and_region_equals_whole_f32() {
        check_collapsing::<f32>();
    }

    #[test]
    fn collapsed_blocks_roundtrip_and_region_equals_whole_f64() {
        check_collapsing::<f64>();
    }

    /// The early-exit verifier against a full-max one on every coded
    /// block of the benchmark field's first plane (`S3D`, `Scale::Small`,
    /// ε = 10⁻³ of the whole field's range, as `dump_write` resolves
    /// it): both pick the same plane count, and the first pass fails
    /// often enough that exiting early is exercised.
    #[test]
    fn early_exit_verifier_picks_the_full_max_plane_count() {
        use eblcio_data::generators::Scale;
        use eblcio_data::{Dataset, DatasetKind, DatasetSpec};
        let Dataset::F64(field) = DatasetSpec::new(DatasetKind::S3d, Scale::Small).generate()
        else {
            panic!("S3D is double precision");
        };
        let (lo, hi) =
            field.as_slice().iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let abs = 1e-3 * (hi - lo);
        let mut dims = field.shape().dims().to_vec();
        dims[0] = 1;
        let shape = Shape::new(&dims);
        let plane = NdArray::from_vec(shape, field.as_slice()[..shape.len()].to_vec());
        let mut enc = BlockEncoder::new(plane.view());
        let (mut coded, mut failed_passes) = (0usize, 0usize);
        for_each_block(shape, &[BLOCK_EDGE; 4], |base, dims| {
            let max_abs = enc.load(base, dims);
            if max_abs <= abs {
                return;
            }
            let (_, scale) = enc.transform(max_abs).expect("no subnormal blocks");
            let early = accuracy_planes(abs, scale, |p| {
                let ok = enc.decoded_err(p, abs) <= abs;
                failed_passes += usize::from(!ok);
                ok
            });
            let full = accuracy_planes(abs, scale, |p| enc.decoded_err(p, f64::INFINITY) <= abs);
            assert_eq!(early, full, "block at {base:?}");
            coded += 1;
        });
        assert!(coded > 1000, "{coded} coded blocks");
        assert!(failed_passes > coded / 2, "{failed_passes} failed passes over {coded} blocks");
    }
}
