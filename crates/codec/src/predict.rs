//! Spatial predictors: the Lorenzo predictor and SZ2's block linear
//! regression.
//!
//! Both operate on the *reconstructed* field (the values the decoder will
//! have), which is what lets prediction + error-controlled quantization
//! guarantee the point-wise bound end to end.

use eblcio_data::Shape;

/// Lorenzo prediction of order 1 at multi-index `idx`, reading previously
/// reconstructed values from the flat `recon` buffer.
///
/// The d-dimensional Lorenzo predictor estimates a sample from its
/// "lower corner" neighbours: `Σ_{∅≠S⊆dims} (−1)^{|S|+1} · v(idx − 1_S)`.
/// Missing (out-of-bounds) neighbours contribute 0, so the very first
/// sample is predicted as 0 — its large residual is absorbed by the
/// outlier path.
#[inline]
pub fn lorenzo(recon: &[f64], shape: Shape, idx: &[usize]) -> f64 {
    let rank = shape.rank();
    let strides = shape.strides();
    let base: usize = idx
        .iter()
        .zip(&strides[..rank])
        .map(|(&c, &s)| c * s)
        .sum();
    let mut pred = 0.0;
    // Subsets of dims as bitmasks.
    'subset: for mask in 1u32..(1 << rank) {
        let mut off = base;
        for (d, stride) in strides[..rank].iter().enumerate() {
            if mask >> d & 1 == 1 {
                if idx[d] == 0 {
                    continue 'subset; // neighbour out of bounds
                }
                off -= stride;
            }
        }
        let sign = if mask.count_ones() % 2 == 1 { 1.0 } else { -1.0 };
        pred += sign * recon[off];
    }
    pred
}

/// Precomputed interior Lorenzo stencil: per non-empty subset of the
/// axes of extent > 1, the flat back-offset, in the same mask order as
/// [`lorenzo`]. A unit axis only ever has coordinate 0, so [`lorenzo`]
/// skips every subset containing one; leaving those subsets out here is
/// the same sum. At interior points (coordinate > 0 on every non-unit
/// axis) no neighbour test is needed, so evaluation is a short flat sum
/// the compiler can keep in registers — the SZ2 hot loop in both
/// directions.
///
/// Dropping the unit axes keeps the surviving subsets in increasing
/// mask order, so term `t` is subset `t + 1` of the `k` live axes and
/// its sign is the parity of `t + 1`: the sign pattern depends on the
/// term count alone, which lets [`Self::eval_interior`] run a fully
/// unrolled add/subtract chain per count. On a zero-coordinate face
/// ([`Self::eval`]) the subsets reaching across it drop out of the same
/// ordered sum.
#[derive(Clone, Copy, Debug)]
pub struct LorenzoStencil {
    /// Flat offset subtracted from the target, per subset.
    deltas: [usize; 15],
    /// The subset's axes, as bits of the shape's own axis numbers.
    masks: [u32; 15],
    /// `2^k − 1` for `k` live axes.
    n_terms: usize,
    /// Bit `d` set when axis `d` has extent > 1.
    axes: u32,
}

impl LorenzoStencil {
    /// Builds the stencil for a shape (rank ≤ 4 ⇒ ≤ 15 terms).
    pub fn new(shape: Shape) -> Self {
        let rank = shape.rank();
        let strides = shape.strides();
        let axes = (0..rank)
            .filter(|&d| shape.dim(d) > 1)
            .fold(0u32, |m, d| m | 1 << d);
        let mut deltas = [0usize; 15];
        let mut masks = [0u32; 15];
        let mut n_terms = 0;
        for mask in (1u32..(1 << rank)).filter(|mask| mask & !axes == 0) {
            masks[n_terms] = mask;
            deltas[n_terms] = strides[..rank]
                .iter()
                .enumerate()
                .filter(|(d, _)| mask >> d & 1 == 1)
                .map(|(_, &s)| s)
                .sum();
            n_terms += 1;
        }
        Self { deltas, masks, n_terms, axes }
    }

    /// The axes of extent > 1 on which `idx` has coordinate 0, as a
    /// bit per axis — the faces the point lies on; none for an interior
    /// point.
    #[inline]
    pub fn zero_axes(&self, idx: &[usize]) -> u32 {
        idx.iter()
            .enumerate()
            .filter(|&(_, &c)| c == 0)
            .fold(0, |m, (d, _)| m | 1 << d)
            & self.axes
    }

    /// Evaluates at flat offset `base`, a point lying on the faces
    /// `zero` ([`Self::zero_axes`]). Bit-identical to [`lorenzo`]: the
    /// subsets that would reach across a face are skipped, the rest
    /// accumulated in the same order.
    #[inline]
    pub fn eval(&self, recon: &[f64], base: usize, zero: u32) -> f64 {
        if zero == 0 {
            return self.eval_interior(recon, base);
        }
        let mut pred = 0.0;
        for (&mask, &delta) in self.masks[..self.n_terms].iter().zip(&self.deltas) {
            if mask & zero != 0 {
                continue;
            }
            if mask.count_ones() % 2 == 1 {
                pred += recon[base - delta];
            } else {
                pred -= recon[base - delta];
            }
        }
        pred
    }

    /// Evaluates at flat offset `base`, which must be an interior point
    /// (no [`Self::zero_axes`]). Bit-identical to [`lorenzo`] there: the
    /// terms are accumulated in the same subset order, and adding
    /// `−1.0 · v` is subtracting `v`.
    #[inline]
    pub fn eval_interior(&self, recon: &[f64], base: usize) -> f64 {
        #[inline(always)]
        fn chain<const N: usize>(recon: &[f64], base: usize, deltas: &[usize]) -> f64 {
            let mut pred = 0.0;
            for (t, &delta) in deltas[..N].iter().enumerate() {
                if (t + 1).count_ones() % 2 == 1 {
                    pred += recon[base - delta];
                } else {
                    pred -= recon[base - delta];
                }
            }
            pred
        }
        match self.n_terms {
            0 => 0.0,
            1 => chain::<1>(recon, base, &self.deltas),
            3 => chain::<3>(recon, base, &self.deltas),
            7 => chain::<7>(recon, base, &self.deltas),
            _ => chain::<15>(recon, base, &self.deltas),
        }
    }
}

/// Least-squares fit of an affine function `v ≈ c₀ + Σ cᵢ·xᵢ` over a
/// dense block of raw samples (SZ2's regression predictor).
///
/// `values` is the row-major block content, `dims` its per-axis extents
/// (rank = `dims.len()` ≤ 4). Because the sample coordinates form a full
/// grid, the normal equations decouple per axis, giving a closed form.
pub fn fit_affine(values: &[f64], dims: &[usize]) -> AffineCoef {
    let rank = dims.len();
    debug_assert_eq!(values.len(), dims.iter().product::<usize>());
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;

    // Per-axis Σ (x − x̄)(v − mean), every axis in one raster pass: the
    // coordinates tick like an odometer, and each axis keeps its own
    // accumulator, summed in raster order.
    let mut xbar = [0.0f64; 4];
    for d in 0..rank {
        xbar[d] = (dims[d] - 1) as f64 / 2.0;
    }
    let mut sxy = [0.0f64; 4];
    let mut x = [0usize; 4];
    for &v in values {
        let dv = v - mean;
        for d in 0..rank {
            sxy[d] += (x[d] as f64 - xbar[d]) * dv;
        }
        for d in (0..rank).rev() {
            x[d] += 1;
            if x[d] < dims[d] {
                break;
            }
            x[d] = 0;
        }
    }

    let mut coef = [0.0f64; 4];
    for d in 0..rank {
        let m = dims[d];
        if m < 2 {
            continue;
        }
        // Σ (x − x̄)² over the whole block = (other dims product) · Σ_x (x−x̄)².
        let sxx_axis: f64 = (0..m).map(|x| (x as f64 - xbar[d]).powi(2)).sum();
        let others = (values.len() / m) as f64;
        coef[d] = sxy[d] / (sxx_axis * others);
    }
    let mut c0 = mean;
    for d in 0..rank {
        if dims[d] >= 2 {
            c0 -= coef[d] * (dims[d] - 1) as f64 / 2.0;
        }
    }
    AffineCoef { c0, c: coef }
}

/// Coefficients of the affine block predictor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AffineCoef {
    /// Intercept.
    pub c0: f64,
    /// Per-axis slopes (unused axes are 0).
    pub c: [f64; 4],
}

impl AffineCoef {
    /// Evaluates the predictor at block-local coordinates.
    #[inline]
    pub fn eval(&self, idx: &[usize]) -> f64 {
        let mut v = self.c0;
        for (d, &x) in idx.iter().enumerate() {
            v += self.c[d] * x as f64;
        }
        v
    }

    /// Serializes to `f32` per coefficient (SZ2 stores regression
    /// coefficients at reduced precision — prediction quality only).
    pub fn to_f32_bytes(&self, rank: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.c0 as f32).to_le_bytes());
        for d in 0..rank {
            out.extend_from_slice(&(self.c[d] as f32).to_le_bytes());
        }
    }

    /// Inverse of [`Self::to_f32_bytes`]; returns `None` on truncation.
    pub fn from_f32_bytes(rank: usize, bytes: &[u8]) -> Option<(Self, usize)> {
        let need = 4 * (rank + 1);
        if bytes.len() < need {
            return None;
        }
        let mut c = [0.0f64; 4];
        let c0 = f32::from_le_bytes(bytes[0..4].try_into().ok()?) as f64;
        for (d, slot) in c.iter_mut().take(rank).enumerate() {
            let s = 4 + 4 * d;
            *slot = f32::from_le_bytes(bytes[s..s + 4].try_into().ok()?) as f64;
        }
        Some((Self { c0, c }, need))
    }

    /// The round-trip the encoder must apply before predicting with the
    /// coefficients (the decoder only sees the `f32` versions).
    pub fn quantized(&self, rank: usize) -> Self {
        let mut c = [0.0f64; 4];
        for (coeff, &orig) in c.iter_mut().zip(&self.c).take(rank) {
            *coeff = orig as f32 as f64;
        }
        Self {
            c0: self.c0 as f32 as f64,
            c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lorenzo_1d_is_previous_value() {
        let shape = Shape::d1(5);
        let recon = [1.0, 2.0, 4.0, 8.0, 0.0];
        assert_eq!(lorenzo(&recon, shape, &[0]), 0.0);
        assert_eq!(lorenzo(&recon, shape, &[3]), 4.0);
    }

    #[test]
    fn lorenzo_2d_parallelogram_rule() {
        // pred(i,j) = v(i-1,j) + v(i,j-1) - v(i-1,j-1).
        let shape = Shape::d2(2, 2);
        let recon = [1.0, 2.0, 3.0, 0.0];
        assert_eq!(lorenzo(&recon, shape, &[1, 1]), 2.0 + 3.0 - 1.0);
        assert_eq!(lorenzo(&recon, shape, &[0, 1]), 1.0);
        assert_eq!(lorenzo(&recon, shape, &[1, 0]), 1.0);
    }

    #[test]
    fn lorenzo_exact_on_affine_fields_2d() {
        // Order-1 Lorenzo reproduces affine fields exactly (away from the
        // boundary).
        let shape = Shape::d2(6, 7);
        let f = |i: usize, j: usize| 2.0 + 3.0 * i as f64 - 1.5 * j as f64;
        let mut recon = vec![0.0; shape.len()];
        for i in 0..6 {
            for j in 0..7 {
                recon[shape.offset(&[i, j])] = f(i, j);
            }
        }
        for i in 1..6 {
            for j in 1..7 {
                let p = lorenzo(&recon, shape, &[i, j]);
                assert!((p - f(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lorenzo_exact_on_affine_fields_3d_4d() {
        let shape3 = Shape::d3(4, 4, 4);
        let mut recon = vec![0.0; shape3.len()];
        for (off, r) in recon.iter_mut().enumerate() {
            let ix = shape3.unoffset(off);
            *r = 1.0 + ix[0] as f64 - 2.0 * ix[1] as f64 + 0.5 * ix[2] as f64;
        }
        let p = lorenzo(&recon, shape3, &[2, 3, 1]);
        assert!((p - (1.0 + 2.0 - 6.0 + 0.5)).abs() < 1e-12);

        let shape4 = Shape::d4(3, 3, 3, 3);
        let mut recon4 = vec![0.0; shape4.len()];
        for (off, r) in recon4.iter_mut().enumerate() {
            let ix = shape4.unoffset(off);
            *r = ix.iter().take(4).sum::<usize>() as f64;
        }
        let p = lorenzo(&recon4, shape4, &[1, 2, 1, 2]);
        assert!((p - 6.0).abs() < 1e-12);
    }

    #[test]
    fn affine_fit_recovers_exact_plane() {
        let dims = [4usize, 5, 6];
        let shape = Shape::new(&dims);
        let mut vals = vec![0.0; shape.len()];
        for (off, v) in vals.iter_mut().enumerate() {
            let ix = shape.unoffset(off);
            *v = 7.0 + 0.25 * ix[0] as f64 - 3.0 * ix[1] as f64 + 1.5 * ix[2] as f64;
        }
        let c = fit_affine(&vals, &dims);
        assert!((c.c0 - 7.0).abs() < 1e-9);
        assert!((c.c[0] - 0.25).abs() < 1e-9);
        assert!((c.c[1] + 3.0).abs() < 1e-9);
        assert!((c.c[2] - 1.5).abs() < 1e-9);
        // And evaluation reproduces the field.
        for (off, &v) in vals.iter().enumerate() {
            let ix = shape.unoffset(off);
            assert!((c.eval(&ix[..3]) - v).abs() < 1e-8);
        }
    }

    #[test]
    fn affine_fit_handles_singleton_dims() {
        let dims = [1usize, 4];
        let vals = [0.0, 1.0, 2.0, 3.0];
        let c = fit_affine(&vals, &dims);
        assert_eq!(c.c[0], 0.0);
        assert!((c.c[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stencil_matches_lorenzo_at_interior_points() {
        for shape in [
            Shape::d1(6),
            Shape::d2(5, 7),
            Shape::d3(4, 5, 3),
            Shape::d4(3, 3, 4, 3),
            // Unit axes (a time-sliced chunk, a flat slab, a pencil):
            // interior means > 0 on the axes that have room to be.
            Shape::d4(1, 8, 8, 8),
            Shape::d3(4, 1, 6),
            Shape::d3(1, 1, 16),
        ] {
            let rank = shape.rank();
            let mut recon = vec![0.0; shape.len()];
            for (off, r) in recon.iter_mut().enumerate() {
                *r = (off as f64 * 0.7311).sin() * 13.0;
            }
            let stencil = LorenzoStencil::new(shape);
            let mut interior = 0usize;
            for off in 0..shape.len() {
                let idx = shape.unoffset(off);
                let idx = &idx[..rank];
                let expect_interior = (0..rank).all(|d| idx[d] > 0 || shape.dim(d) == 1);
                let faces = stencil.zero_axes(idx);
                assert_eq!(faces == 0, expect_interior, "shape {shape} off {off}");
                // On or off a face, the masked sum is the generic one.
                let on_faces = stencil.eval(&recon, off, faces);
                assert_eq!(
                    on_faces.to_bits(),
                    lorenzo(&recon, shape, idx).to_bits(),
                    "shape {shape} off {off}"
                );
                if expect_interior {
                    interior += 1;
                    let want = lorenzo(&recon, shape, idx);
                    let got = stencil.eval_interior(&recon, off);
                    assert_eq!(got.to_bits(), want.to_bits(), "shape {shape} off {off}");
                }
            }
            let want_interior: usize =
                shape.dims().iter().map(|&m| m.max(2) - 1).product();
            assert_eq!(interior, want_interior, "shape {shape}");
        }
    }

    #[test]
    fn coef_serialization_roundtrip() {
        let c = AffineCoef {
            c0: 1.25,
            c: [0.5, -0.125, 3.0, 0.0],
        };
        let mut buf = Vec::new();
        c.to_f32_bytes(3, &mut buf);
        assert_eq!(buf.len(), 16);
        let (d, used) = AffineCoef::from_f32_bytes(3, &buf).unwrap();
        assert_eq!(used, 16);
        assert_eq!(d, c.quantized(3));
        assert!(AffineCoef::from_f32_bytes(3, &buf[..10]).is_none());
    }
}
