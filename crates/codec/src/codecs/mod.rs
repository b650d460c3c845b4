//! The five EBLC pipelines the paper characterizes, as chain array
//! stages (the shared predict/quantize/transform front ends that
//! [`crate::chain`] presets recompose into the historical codecs).

pub mod common;
pub mod qoz;
pub mod sz2;
pub mod sz3;
pub mod szx;
pub mod zfp;

use crate::error::{CodecError, Result};
use crate::header::{check_dtype, read_stream};
use crate::stage::build_byte_stage;
use crate::traits::CompressorId;
use common::SzPayload;
use eblcio_data::{Element, NdArray};

/// Implements [`crate::stage::ArrayStage`] by delegating to a codec's
/// generic `encode_impl`/`decode_impl` inherent methods, recovering the
/// element type from the erased view or the dtype tag.
macro_rules! impl_stage_codec {
    ($ty:ty, $id:expr) => {
        impl $crate::stage::ArrayStage for $ty {
            fn id(&self) -> $crate::traits::CompressorId { $id }
            fn encode(
                &self,
                data: eblcio_data::DatasetView<'_>,
                abs: f64,
            ) -> $crate::error::Result<(Vec<u8>, f64)> {
                eblcio_data::dispatch_dtype!(eblcio_data::DatasetView(v) = data =>
                    self.encode_impl(v, abs))
            }
            fn decode(
                &self,
                bytes: &[u8],
                dtype: u8,
                shape: eblcio_data::Shape,
                abs: f64,
                origin: &[usize],
                extent: &[usize],
            ) -> $crate::error::Result<eblcio_data::Dataset> {
                eblcio_data::dispatch_dtype!(E = dtype =>
                    self.decode_impl::<E>(bytes, shape, abs, origin, extent).map(Into::into))
                .unwrap_or(Err($crate::header::BAD_DTYPE))
            }
        }
    };
}
pub(crate) use impl_stage_codec;

/// The frozen reference decoders of the SZ family behind one entry: an
/// `EBLC` stream of an SZ2, SZ3 or QoZ chain, byte stages and all,
/// decoded whole through the bit-at-a-time Huffman walk and the
/// sample-by-sample predictors the fast paths replaced. It is the oracle
/// the `decode_fastpath.rs` tests pin every fast decoder to, and nothing
/// else calls it. ZFP and SZx have no reference decoder.
#[doc(hidden)]
pub fn decompress_reference<T: Element>(stream: &[u8]) -> Result<NdArray<T>> {
    let (h, payload) = read_stream(stream)?;
    check_dtype::<T>(h.dtype)?;
    let mut inner = payload.to_vec();
    for &spec in h.chain.bytes.iter().rev() {
        inner = build_byte_stage(spec).inverse(&inner)?;
    }
    let p = || SzPayload::decode_inner_reference(&inner);
    let (shape, abs) = (h.shape, h.abs_bound);
    match h.chain.array {
        CompressorId::Sz2 => sz2::decode_reference(&p()?, shape, abs),
        CompressorId::Sz3 => sz3::decode_reference(&p()?, shape, abs),
        CompressorId::Qoz => qoz::decode_reference(&p()?, shape, abs),
        CompressorId::Zfp | CompressorId::Szx => {
            Err(CodecError::InvalidChain { reason: "ZFP and SZx have no reference decoder" })
        }
    }
}

/// A stage instance inside its preset chain, for unit tests that drive
/// a (possibly parameterized) stage through the [`Compressor`] surface.
///
/// [`Compressor`]: crate::traits::Compressor
#[cfg(test)]
pub(crate) fn chain_around(
    stage: impl crate::stage::ArrayStage + 'static,
) -> crate::chain::CodecChain {
    crate::chain::CodecChain::around(Box::new(stage))
}
