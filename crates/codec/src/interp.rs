//! Multi-level spline interpolation (the SZ3/QoZ predictor).
//!
//! SZ3 (Zhao et al., ICDE'21) predicts samples by dynamic spline
//! interpolation on a level-by-level refined grid: a coarse *anchor*
//! lattice is stored first, then each level halves the stride, predicting
//! the new points from already-reconstructed neighbours along one axis at
//! a time — cubic where four neighbours exist, linear at boundaries.
//!
//! The encoder and the decoder run this schedule as one fused pass in
//! `codecs::sz3`; this module holds the level count they share. The
//! schedule as a sequence of (target, interpolation sources) tasks —
//! every source reconstructed before it is used, every non-anchor sample
//! visited exactly once — is `walk_reference`, test code that the
//! frozen reference decoder walks.

use eblcio_data::Shape;

/// Number of interpolation levels for a shape: `⌈log2(max dim)⌉`.
pub fn max_level(shape: Shape) -> u32 {
    let m = shape.dims().iter().copied().max().unwrap_or(1);
    usize::BITS - (m - 1).leading_zeros()
}

/// How one target sample is predicted from flat reconstruction offsets.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interp {
    /// 4-point cubic midpoint interpolation: weights (−1, 9, 9, −1)/16.
    Cubic([usize; 4]),
    /// 2-point linear midpoint interpolation.
    Linear([usize; 2]),
    /// Nearest known neighbour (upper boundary).
    Copy(usize),
}

#[cfg(test)]
impl Interp {
    /// Evaluates the prediction against a reconstruction buffer.
    #[inline]
    pub fn eval(&self, recon: &[f64]) -> f64 {
        match *self {
            Interp::Cubic([a, b, c, d]) => {
                (-recon[a] + 9.0 * recon[b] + 9.0 * recon[c] - recon[d]) / 16.0
            }
            Interp::Linear([a, b]) => 0.5 * (recon[a] + recon[b]),
            Interp::Copy(a) => recon[a],
        }
    }
}

/// One prediction task produced by the walk.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
pub struct Task {
    /// Flat offset of the sample being predicted.
    pub target: usize,
    /// Its interpolation stencil.
    pub pred: Interp,
    /// Interpolation level (1 = finest); QoZ varies the error bound by
    /// this.
    pub level: u32,
}

/// Flat offsets of the anchor lattice (all coordinates ≡ 0 mod 2^L), in
/// raster order.
#[cfg(test)]
pub fn anchor_offsets(shape: Shape) -> Vec<usize> {
    let stride = 1usize << max_level(shape);
    let rank = shape.rank();
    let strides = shape.strides();
    let mut counts = [1usize; 4];
    for (d, count) in counts.iter_mut().enumerate().take(rank) {
        *count = shape.dim(d).div_ceil(stride);
    }
    let total: usize = counts[..rank].iter().product();
    let mut out = Vec::with_capacity(total);
    let mut idx = [0usize; 4];
    for _ in 0..total {
        let off: usize = (0..rank).map(|d| idx[d] * stride * strides[d]).sum();
        out.push(off);
        for d in (0..rank).rev() {
            idx[d] += 1;
            if idx[d] < counts[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

/// The frozen pre-optimization walk: every target offset recomputed as
/// a coordinate dot product. This is the schedule the first shipped
/// decoder ran, kept verbatim for the reference SZ3/QoZ decoder
/// (`codecs::reference`).
#[cfg(test)]
pub(crate) fn walk_reference(shape: Shape, mut visit: impl FnMut(Task)) {
    let rank = shape.rank();
    let strides = shape.strides();
    for level in (1..=max_level(shape)).rev() {
        let s = 1usize << level;
        let h = s / 2;
        for axis in 0..rank {
            let dim_a = shape.dim(axis);
            if h >= dim_a {
                continue;
            }
            let mut counts = [1usize; 4];
            for (d, count) in counts.iter_mut().enumerate().take(rank) {
                if d == axis {
                    *count = (dim_a - h).div_ceil(s);
                } else if d < axis {
                    *count = shape.dim(d).div_ceil(h);
                } else {
                    *count = shape.dim(d).div_ceil(s);
                }
            }
            let total: usize = counts[..rank].iter().product();
            let axis_stride = strides[axis];
            let mut idx = [0usize; 4];
            for _ in 0..total {
                let mut t = 0usize;
                let mut off = 0usize;
                for d in 0..rank {
                    let coord = if d == axis {
                        let c = h + idx[d] * s;
                        t = c;
                        c
                    } else if d < axis {
                        idx[d] * h
                    } else {
                        idx[d] * s
                    };
                    off += coord * strides[d];
                }
                let pred = if t >= 3 * h && t + 3 * h < dim_a {
                    Interp::Cubic([
                        off - 3 * h * axis_stride,
                        off - h * axis_stride,
                        off + h * axis_stride,
                        off + 3 * h * axis_stride,
                    ])
                } else if t + h < dim_a {
                    Interp::Linear([off - h * axis_stride, off + h * axis_stride])
                } else {
                    Interp::Copy(off - h * axis_stride)
                };
                visit(Task { target: off, pred, level });
                for d in (0..rank).rev() {
                    idx[d] += 1;
                    if idx[d] < counts[d] {
                        break;
                    }
                    idx[d] = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(shape: Shape) {
        let mut seen = vec![0u8; shape.len()];
        for off in anchor_offsets(shape) {
            seen[off] += 1;
        }
        let n_anchor = anchor_offsets(shape).len();
        let mut order_ok = true;
        walk_reference(shape, |task| {
            // Every source must already be reconstructed.
            let srcs: &[usize] = match &task.pred {
                Interp::Cubic(s) => s,
                Interp::Linear(s) => s,
                Interp::Copy(s) => std::slice::from_ref(s),
            };
            for &s in srcs {
                if seen[s] == 0 {
                    order_ok = false;
                }
            }
            seen[task.target] += 1;
        });
        assert!(order_ok, "a stencil source was used before definition");
        assert!(
            seen.iter().all(|&c| c == 1),
            "walk must cover every sample exactly once (anchors: {n_anchor}, shape {shape})"
        );
    }

    #[test]
    fn covers_various_shapes_exactly_once() {
        for shape in [
            Shape::d1(1),
            Shape::d1(2),
            Shape::d1(7),
            Shape::d1(64),
            Shape::d1(1000),
            Shape::d2(4, 4),
            Shape::d2(5, 9),
            Shape::d2(1, 17),
            Shape::d3(8, 8, 8),
            Shape::d3(3, 5, 7),
            Shape::d4(3, 4, 5, 2),
            Shape::d4(4, 4, 4, 4),
        ] {
            check_cover(shape);
        }
    }

    #[test]
    fn max_level_values() {
        assert_eq!(max_level(Shape::d1(1)), 0);
        assert_eq!(max_level(Shape::d1(2)), 1);
        assert_eq!(max_level(Shape::d1(3)), 2);
        assert_eq!(max_level(Shape::d1(512)), 9);
        assert_eq!(max_level(Shape::d3(4, 16, 9)), 4);
    }

    #[test]
    fn anchor_lattice_is_coarse_grid() {
        let shape = Shape::d2(9, 9);
        // L = 4 → stride 16 → only (0,0).
        assert_eq!(anchor_offsets(shape), vec![0]);
        let shape = Shape::d1(64);
        // L = 6 → stride 64 → only 0.
        assert_eq!(anchor_offsets(shape), vec![0]);
    }

    #[test]
    fn interp_eval_exact_on_affine_lines() {
        // recon holds f(x) = 2 + 3x on a 1-D grid; both stencils must be
        // exact for affine data.
        let recon: Vec<f64> = (0..16).map(|x| 2.0 + 3.0 * x as f64).collect();
        let cubic = Interp::Cubic([0, 2, 4, 6]); // predicts x = 3
        assert!((cubic.eval(&recon) - (2.0 + 9.0)).abs() < 1e-12);
        let linear = Interp::Linear([2, 4]); // predicts x = 3
        assert!((linear.eval(&recon) - 11.0).abs() < 1e-12);
        let copy = Interp::Copy(5);
        assert_eq!(copy.eval(&recon), recon[5]);
    }

    #[test]
    fn cubic_eval_exact_on_cubic_polynomials() {
        // Midpoint 4-point interpolation is exact for cubics.
        let f = |x: f64| 1.0 - 2.0 * x + 0.5 * x * x + 0.125 * x * x * x;
        // Known points at x = 0, 2, 4, 6; target x = 3.
        let recon = [f(0.0), 0.0, f(2.0), 0.0, f(4.0), 0.0, f(6.0)];
        let cubic = Interp::Cubic([0, 2, 4, 6]);
        assert!((cubic.eval(&recon) - f(3.0)).abs() < 1e-12);
    }

    #[test]
    fn walk_levels_are_descending() {
        let mut last = u32::MAX;
        walk_reference(Shape::d2(16, 16), |t| {
            assert!(t.level <= last);
            last = t.level;
        });
    }
}
