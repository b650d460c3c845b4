//! The five EBLC pipelines the paper characterizes, as chain array
//! stages (the shared predict/quantize/transform front ends that
//! [`crate::chain`] presets recompose into the historical codecs).

pub mod common;
pub mod qoz;
pub mod sz2;
pub mod sz3;
pub mod szx;
pub mod zfp;

#[cfg(test)]
mod decode_fastpath;
#[cfg(test)]
mod reference;

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
