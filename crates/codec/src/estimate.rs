//! Sampling-based compression-ratio estimation (zPerf-style).
//!
//! The paper's related work (§II-C) cites zPerf (Wang et al., IEEE TC
//! 2023), a gray-box model that predicts SZ/ZFP compression ratios
//! without running the full compressor. This module provides the
//! empirical variant every practitioner actually uses: compress a small,
//! evenly spaced sample of row-slabs and extrapolate. It lets the
//! advisor price a configuration at a fraction of the full compression
//! cost — which matters because the §III conditions must be *cheap* to
//! evaluate to be useful.

use crate::error::Result;
use crate::traits::{compress_view, Compressor, ErrorBound};
use eblcio_data::{Element, NdArray};

/// A compression-ratio estimate from sampled slabs.
#[derive(Clone, Copy, Debug)]
pub struct CrEstimate {
    /// Estimated compression ratio for the full array.
    pub cr: f64,
    /// Fraction of samples actually compressed.
    pub sampled_fraction: f64,
    /// Bytes of input sampled.
    pub sampled_bytes: usize,
}

/// Estimates the compression ratio of `codec` on `data` at `bound` by
/// compressing `n_slabs` evenly spaced row-slabs of `slab_rows` rows.
///
/// The per-slab framing overhead is subtracted using the measured
/// header/backend floor so small samples do not bias the estimate
/// pessimistic.
pub fn estimate_cr<T: Element>(
    codec: &dyn Compressor,
    data: &NdArray<T>,
    bound: ErrorBound,
    n_slabs: usize,
    slab_rows: usize,
) -> Result<CrEstimate> {
    let shape = data.shape();
    let d0 = shape.dim(0);
    let rows_per_slab = slab_rows.clamp(1, d0);
    let n_slabs = n_slabs.clamp(1, d0 / rows_per_slab.max(1)).max(1);

    // Resolve the relative bound on the *global* range so slab-local
    // compression matches full-array semantics.
    let abs = bound.to_absolute(data.value_range())?;

    // Framing floor: the cost of compressing a single row-slab, used to
    // de-bias the per-slab overhead. Slabs are borrowed views, so the
    // estimator's cost is the compression itself, not input copies.
    let floor = compress_view(codec, data.slab(0, 1), ErrorBound::Absolute(abs))?.len();

    let mut in_bytes = 0usize;
    let mut out_bytes = 0usize;
    let stride = d0 / n_slabs;
    for s in 0..n_slabs {
        let start = (s * stride).min(d0 - rows_per_slab);
        let sub = data.slab(start, rows_per_slab);
        let stream = compress_view(codec, sub, ErrorBound::Absolute(abs))?;
        in_bytes += sub.nbytes();
        // Subtract most of the per-slab framing floor (keep a little so
        // the estimate never divides by ~zero).
        out_bytes += stream.len().saturating_sub(floor * 3 / 4).max(8);
    }

    Ok(CrEstimate {
        cr: in_bytes as f64 / out_bytes as f64,
        sampled_fraction: in_bytes as f64 / data.nbytes() as f64,
        sampled_bytes: in_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecs::preset;
    use crate::traits::CompressorId;
    use crate::traits::compress;
    use eblcio_data::Shape;

    fn smooth(n: usize) -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(n, n, n), |i| {
            ((i[0] as f32) * 0.17).sin() * 30.0
                + ((i[1] as f32) * 0.11).cos() * 20.0
                + (i[2] as f32) * 0.05
        })
    }

    #[test]
    fn estimate_tracks_actual_cr() {
        let data = smooth(32);
        for (codec, tol) in [
            (&preset(CompressorId::Sz3), 0.6),
            (&preset(CompressorId::Szx), 0.4),
        ] {
            let actual = {
                let s = compress(codec, &data, ErrorBound::Relative(1e-3)).unwrap();
                data.nbytes() as f64 / s.len() as f64
            };
            let est = estimate_cr(codec, &data, ErrorBound::Relative(1e-3), 4, 4).unwrap();
            let ratio = est.cr / actual;
            assert!(
                ratio > 1.0 - tol && ratio < 1.0 / (1.0 - tol),
                "{}: est {:.1} vs actual {actual:.1}",
                codec.name(),
                est.cr
            );
            assert!(est.sampled_fraction < 0.6);
        }
    }

    #[test]
    fn sampling_is_much_cheaper_than_full() {
        let data = smooth(32);
        let codec = preset(CompressorId::Sz3);
        let est = estimate_cr(&codec, &data, ErrorBound::Relative(1e-3), 3, 2).unwrap();
        assert!(est.sampled_bytes < data.nbytes() / 4);
    }

    #[test]
    fn degenerate_inputs() {
        let tiny = NdArray::<f32>::from_fn(Shape::d1(3), |i| i[0] as f32);
        let codec = preset(CompressorId::Szx);
        let est = estimate_cr(&codec, &tiny, ErrorBound::Relative(1e-2), 10, 10).unwrap();
        assert!(est.cr > 0.0 && est.cr.is_finite());
        assert!(est.sampled_fraction <= 1.0 + 1e-9);
    }

    #[test]
    fn estimate_orders_codecs_like_reality() {
        // SZ3 should out-compress SZx on smooth data, in estimate as in
        // reality.
        let data = smooth(24);
        let sz3 = estimate_cr(&preset(CompressorId::Sz3), &data, ErrorBound::Relative(1e-2), 4, 3).unwrap();
        let szx = estimate_cr(&preset(CompressorId::Szx), &data, ErrorBound::Relative(1e-2), 4, 3).unwrap();
        assert!(sz3.cr > szx.cr, "sz3 {} vs szx {}", sz3.cr, szx.cr);
    }
}
