//! The frozen reference decoders of the SZ family: the first shipped
//! SZ2, SZ3 and QoZ decoders — the bit-at-a-time Huffman walk, the
//! sample-by-sample predictors the fast decoders replaced — kept
//! verbatim as the oracle the `decode_fastpath` tests pin every fast
//! SZ-family decoder to, bit for bit. Test code only: the shipped
//! library has one decoder per codec.

use super::common::{for_each_block, sz_block_dims, OutlierReader, SzPayload};
use super::qoz::Qoz;
use super::sz2::{self, Modes, SampleSink};
use super::sz3::{Sz3, RADIUS};
use crate::error::{CodecError, Result};
use crate::header::{check_dtype, read_stream};
use crate::huffman;
use crate::interp::{anchor_offsets, walk_reference, Interp};
use crate::predict::lorenzo;
use crate::quantizer::LinearQuantizer;
use crate::stage::build_byte_stage;
use crate::traits::CompressorId;
use crate::util::ByteReader;
use eblcio_data::{Element, NdArray, Shape};

/// The frozen reference decoders behind one entry: an `EBLC` stream of
/// an SZ2, SZ3 or QoZ chain, byte stages and all, decoded whole. ZFP
/// and SZx have no reference decoder.
pub(super) fn decompress_reference<T: Element>(stream: &[u8]) -> Result<NdArray<T>> {
    let (h, payload) = read_stream(stream)?;
    check_dtype::<T>(h.dtype)?;
    let mut inner = payload.to_vec();
    for &spec in h.chain.bytes.iter().rev() {
        inner = build_byte_stage(spec).inverse(&inner)?;
    }
    let p = || decode_inner_reference(&inner);
    let (shape, abs) = (h.shape, h.abs_bound);
    match h.chain.array {
        CompressorId::Sz2 => sz2_decode_reference(&p()?, shape, abs),
        CompressorId::Sz3 => sz3_decode_reference(&p()?, shape, abs),
        CompressorId::Qoz => qoz_decode_reference(&p()?, shape, abs),
        CompressorId::Zfp | CompressorId::Szx => {
            Err(CodecError::InvalidChain { reason: "ZFP and SZx have no reference decoder" })
        }
    }
}

/// Frozen pre-optimization payload decode (per-symbol Huffman walk,
/// fresh allocations throughout). Wire-compatible with
/// [`SzPayload::decode_inner`].
fn decode_inner_reference(inner: &[u8]) -> Result<SzPayload> {
    let mut r = ByteReader::new(inner);
    let extra_len = r.varint("sz extra length")? as usize;
    let extra = r.take(extra_len, "sz extra")?.to_vec();
    let outlier_len = r.varint("sz outlier length")? as usize;
    let outliers = r.take(outlier_len, "sz outliers")?.to_vec();
    let (codes, used) = huffman::decode_block_reference(&inner[r.position()..])?;
    if r.position() + used != inner.len() {
        return Err(CodecError::Corrupt { context: "sz payload trailer" });
    }
    Ok(SzPayload {
        extra,
        outliers,
        codes,
    })
}

/// The frozen reference decode of a default-block SZ2 payload: every
/// sample through its coordinates and the generic [`lorenzo`]
/// predictor, fresh allocations throughout.
fn sz2_decode_reference<T: Element>(
    p: &SzPayload,
    shape: Shape,
    abs: f64,
) -> Result<NdArray<T>> {
    let rank = shape.rank();
    let block_dims = sz_block_dims(rank);
    let modes = Modes::parse(&p.extra)?;
    let n = shape.len();
    if p.codes.len() != n {
        return Err(CodecError::Corrupt { context: "sz2 code count" });
    }
    let mut recon = vec![0.0; n];
    let mut sink = SampleSink {
        quant: LinearQuantizer::new(abs.max(f64::MIN_POSITIVE), sz2::RADIUS),
        codes: &p.codes,
        code_i: 0,
        outliers: OutlierReader::new(&p.outliers),
        recon: &mut recon,
    };
    let mut out = vec![T::default(); n];
    let mut block_i = 0usize;
    let mut coef_pos = 0usize;
    let mut failure: Option<CodecError> = None;

    for_each_block(shape, &block_dims[..rank], |base, dims| {
        if failure.is_some() {
            return;
        }
        if block_i >= modes.n_blocks {
            failure = Some(CodecError::Corrupt { context: "sz2 block modes" });
            return;
        }
        let coef = match modes.coef(block_i, rank, &mut coef_pos) {
            Ok(c) => c,
            Err(e) => {
                failure = Some(e);
                return;
            }
        };
        block_i += 1;
        for_each_in_block(shape, base, dims, |idx, off| {
            if failure.is_some() {
                return;
            }
            let pred = match &coef {
                Some(coef) => {
                    let mut local = [0usize; 4];
                    for d in 0..rank {
                        local[d] = idx[d] - base[d];
                    }
                    coef.eval(&local[..rank])
                }
                None => lorenzo(sink.recon, shape, idx),
            };
            match sink.put::<T>(pred, off) {
                Ok(t) => out[off] = t,
                Err(e) => failure = Some(e),
            }
        });
    });
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(NdArray::from_vec(shape, out))
}

/// The frozen reference decode of an SZ3 payload.
fn sz3_decode_reference<T: Element>(
    p: &SzPayload,
    shape: Shape,
    abs: f64,
) -> Result<NdArray<T>> {
    let cubic = Sz3::parse_extra(&p.extra)?;
    interp_decode_reference(shape, &p.codes, &p.outliers, abs, |_| abs, cubic)
}

/// The frozen reference decode of a QoZ payload.
fn qoz_decode_reference<T: Element>(
    p: &SzPayload,
    shape: Shape,
    abs: f64,
) -> Result<NdArray<T>> {
    let (alpha, beta) = Qoz::parse_extra(&p.extra)?;
    interp_decode_reference(shape, &p.codes, &p.outliers, abs / beta, |l| {
        Qoz::level_bound(alpha, beta, abs, l)
    }, true)
}

/// Frozen pre-optimization mirror of
/// [`interp_encode_with`](super::sz3::interp_encode_with) — fresh
/// allocations, no arena, and the pre-optimization [`walk_reference`]
/// schedule that recomputes each target offset as a coordinate dot
/// product. The oracle the fused pass is pinned to; kept verbatim so
/// "reference" keeps meaning the first shipped decoder.
fn interp_decode_reference<T: Element>(
    shape: Shape,
    codes: &[u32],
    outlier_bytes: &[u8],
    anchor_abs: f64,
    level_abs: impl Fn(u32) -> f64,
    cubic: bool,
) -> Result<NdArray<T>> {
    let n = shape.len();
    if codes.len() != n {
        return Err(CodecError::Corrupt { context: "sz3 code count" });
    }
    let mut outliers = OutlierReader::new(outlier_bytes);
    let mut recon = vec![0.0f64; n];
    let mut out = vec![T::default(); n];
    let mut code_i = 0usize;

    let pull = |pred: f64,
                    q: &LinearQuantizer,
                    off: usize,
                    code_i: &mut usize,
                    recon: &mut [f64],
                    out: &mut [T],
                    outliers: &mut OutlierReader<'_>|
     -> Result<()> {
        let code = codes[*code_i];
        *code_i += 1;
        let t = if code == 0 {
            outliers.take::<T>()?
        } else {
            T::from_f64(q.reconstruct(code, pred))
        };
        recon[off] = t.to_f64();
        out[off] = t;
        Ok(())
    };

    let anchor_quant = LinearQuantizer::new(anchor_abs.max(f64::MIN_POSITIVE), RADIUS);
    let mut prev = 0.0f64;
    for off in anchor_offsets(shape) {
        pull(
            prev,
            &anchor_quant,
            off,
            &mut code_i,
            &mut recon,
            &mut out,
            &mut outliers,
        )?;
        prev = recon[off];
    }

    let mut cur_level = u32::MAX;
    let mut quant = anchor_quant;
    let mut failure: Option<CodecError> = None;
    walk_reference(shape, |task| {
        if failure.is_some() {
            return;
        }
        if task.level != cur_level {
            cur_level = task.level;
            quant = LinearQuantizer::new(level_abs(cur_level).max(f64::MIN_POSITIVE), RADIUS);
        }
        let pred = effective_stencil(task.pred, cubic).eval(&recon);
        if let Err(e) = pull(
            pred,
            &quant,
            task.target,
            &mut code_i,
            &mut recon,
            &mut out,
            &mut outliers,
        ) {
            failure = Some(e);
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(NdArray::from_vec(shape, out))
}

/// Degrades a cubic stencil to its central linear pair when cubic
/// interpolation is disabled (ablation mode).
#[inline]
fn effective_stencil(pred: Interp, cubic: bool) -> Interp {
    match pred {
        Interp::Cubic([_, b, c, _]) if !cubic => Interp::Linear([b, c]),
        other => other,
    }
}

/// Iterates the samples of one block in raster order, yielding
/// `(global_index, flat_offset)`.
pub(super) fn for_each_in_block(
    shape: Shape,
    base: &[usize],
    dims: &[usize],
    mut f: impl FnMut(&[usize], usize),
) {
    let rank = shape.rank();
    let strides = shape.strides();
    let total: usize = dims.iter().product();
    let mut local = [0usize; 4];
    for _ in 0..total {
        let mut idx = [0usize; 4];
        let mut off = 0usize;
        for d in 0..rank {
            idx[d] = base[d] + local[d];
            off += idx[d] * strides[d];
        }
        f(&idx[..rank], off);
        for d in (0..rank).rev() {
            local[d] += 1;
            if local[d] < dims[d] {
                break;
            }
            local[d] = 0;
        }
    }
}
