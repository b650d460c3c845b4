//! Error-controlled linear quantization (the SZ-family core primitive).
//!
//! Given a prediction `p` for a sample `v` and an absolute error bound
//! `e`, the residual is mapped to an integer code
//! `q = round((v − p) / (2e))`; reconstruction `p + 2e·q` then differs
//! from `v` by at most `e`. Codes are folded into a bounded unsigned
//! alphabet centred on the quantizer's radius; residuals outside the
//! representable range become *outliers* stored losslessly, exactly like
//! SZ's "unpredictable data" path.

use eblcio_data::Element;

/// The largest double below ½: adding it before a truncation rounds half
/// away from zero (see [`LinearQuantizer::quantize`] and
/// [`round_half_away`]).
const HALF_BELOW: f64 = 0.5 - 1.0 / (1u64 << 54) as f64;

/// Linear quantizer with a fixed absolute bound and code radius.
#[derive(Clone, Copy, Debug)]
pub struct LinearQuantizer {
    abs_bound: f64,
    inv_step: f64,
    step: f64,
    radius: i64,
    /// `radius + ½`: the residual, in steps, must be strictly smaller in
    /// magnitude to round to an in-range code.
    limit: f64,
}

impl LinearQuantizer {
    /// Creates a quantizer.
    ///
    /// * `abs_bound` — maximum allowed reconstruction error (> 0).
    /// * `radius` — half-width of the code alphabet (SZ default 32768).
    ///
    /// # Panics
    /// Panics if `abs_bound` is not finite-positive or radius < 1.
    pub fn new(abs_bound: f64, radius: u32) -> Self {
        assert!(
            abs_bound.is_finite() && abs_bound > 0.0,
            "abs_bound must be finite positive, got {abs_bound}"
        );
        assert!(radius >= 1, "radius must be >= 1");
        let step = 2.0 * abs_bound;
        Self {
            abs_bound,
            step,
            inv_step: 1.0 / step,
            radius: i64::from(radius),
            limit: f64::from(radius) + 0.5,
        }
    }

    /// The absolute error bound.
    #[inline]
    pub fn abs_bound(&self) -> f64 {
        self.abs_bound
    }

    /// The code alphabet size (`2·radius + 1`, plus code 0 for outliers).
    #[inline]
    pub fn alphabet(&self) -> u32 {
        (2 * self.radius + 1) as u32
    }

    /// The code representing a zero residual (`radius + 1` — dominant in
    /// smooth data, which is what makes Huffman effective downstream).
    #[inline]
    pub fn zero_code(&self) -> u32 {
        (self.radius + 1) as u32
    }

    /// Quantizes sample `v` against prediction `p` for a decoder that
    /// rounds its reconstruction into `T` — the one in-range step of
    /// every SZ-family encoder.
    ///
    /// Returns the code (`1..=2·radius + 1`, `radius + 1` for a zero
    /// residual) and the value the decoder will see, which callers must
    /// keep predicting from instead of `v`; or `None` when `v` has to be
    /// stored verbatim as an outlier (code 0). The step is fused:
    ///
    /// * the residual in steps, `y = (v − p)/(2e)`, is in range iff
    ///   `|y| < radius + ½`, a test NaN and ±inf fail too;
    /// * `y` is rounded half away from zero with no libm call, by
    ///   truncating `y ± (½ − 2⁻⁵⁴)`: for `|y|` below 2⁵² (the range test
    ///   keeps it below 2³² + ½) the sum's magnitude rounds into
    ///   `[k, k + 1)` for `k = ⌊|y| + ½⌋`, ties included;
    /// * one check holds both the reconstruction `p + 2e·q` and its
    ///   `T`-rounded value to the bound: floating point can break the
    ///   algebraic guarantee, and so can the narrowing to `T`.
    ///
    /// Code and decision are those of `round`-based quantization followed
    /// by the `T` check, and the value equals its reconstruction under
    /// `==` (the test module keeps that body as the oracle).
    #[inline(always)]
    pub fn quantize<T: Element>(&self, v: f64, p: f64) -> Option<(u32, f64)> {
        let y = (v - p) * self.inv_step;
        // False for NaN as well as for a residual out of range.
        let in_range = y.abs() < self.limit;
        if !in_range {
            return None;
        }
        let q = (y + HALF_BELOW.copysign(y)) as i64;
        let r = p + q as f64 * self.step;
        let rt = T::from_f64(r).to_f64();
        let within = ((r - v).abs() <= self.abs_bound) & ((rt - v).abs() <= self.abs_bound);
        within.then_some(((q + self.radius + 1) as u32, rt))
    }

    /// Reconstructs a sample from its code and the decoder's prediction.
    ///
    /// Code 0 (outlier) must be handled by the caller; this method expects
    /// an in-range code.
    #[inline]
    pub fn reconstruct(&self, code: u32, p: f64) -> f64 {
        debug_assert!(code != 0, "outlier code passed to reconstruct");
        let qi = i64::from(code) - self.radius - 1;
        p + qi as f64 * self.step
    }
}

/// Appends `base + codes[i]·step` for every code to `out`, rounded into
/// `T` — the affine dequantization shared by fixed-point block decoders
/// (SZx packed blocks). The loop is structured as a fixed-width chunked
/// pass over flat slices so the compiler can vectorize it; it is
/// bit-identical to the scalar per-sample loop it replaces (each lane
/// performs the same `base + f64(q)·step` in the same order).
pub fn dequant_affine_into<T: Element>(codes: &[u32], base: f64, step: f64, out: &mut Vec<T>) {
    let start = out.len();
    out.resize(start + codes.len(), T::from_f64(0.0));
    let dst = &mut out[start..];
    let mut code_chunks = codes.chunks_exact(8);
    let mut dst_chunks = dst.chunks_exact_mut(8);
    for (d, c) in dst_chunks.by_ref().zip(code_chunks.by_ref()) {
        for (dd, &q) in d.iter_mut().zip(c) {
            *dd = T::from_f64(base + f64::from(q) * step);
        }
    }
    for (dd, &q) in dst_chunks.into_remainder().iter_mut().zip(code_chunks.remainder()) {
        *dd = T::from_f64(base + f64::from(q) * step);
    }
}

/// 2⁵²: for `0 ≤ s < 2⁵²`, `s + 2⁵²` is `s` rounded to an integer (ties
/// to even) and holds that integer in its low mantissa bits.
const TWO_52: f64 = (1u64 << 52) as f64;

/// `⌊s⌋` for `0 ≤ s < 2⁵²`, as a double and as the low 32 bits of the
/// integer, with no libm call: round to the nearest integer through
/// 2⁵², then step down if that went up.
#[inline(always)]
fn floor_nonneg(s: f64) -> (f64, u32) {
    let shifted = s + TWO_52;
    let nearest = shifted - TWO_52;
    let over = nearest > s;
    let floor = nearest - if over { 1.0 } else { 0.0 };
    (floor, (shifted.to_bits() as u32).wrapping_sub(u32::from(over)))
}

/// Rounds `y` half away from zero with no libm call: `f64::round` for
/// every input, ±0, NaN and ±inf included. It is the truncation of
/// `|y| + (½ − 2⁻⁵⁴)` that [`LinearQuantizer::quantize`] uses, taken by
/// `floor_nonneg` below 2⁵²; from there up every double is an integer
/// and the sum rounds back to `|y|`.
#[inline(always)]
pub fn round_half_away(y: f64) -> f64 {
    let s = y.abs() + HALF_BELOW;
    let rounded = if s < TWO_52 { floor_nonneg(s).0 } else { s };
    rounded.copysign(y)
}

/// The fixed-point codes of a block, the encode-side mirror of
/// [`dequant_affine_into`]: `codes[i] = round((v − base)/step)` for every
/// sample `v`. Returns whether every reconstruction `base + code·step`,
/// rounded into `T`, lies within `abs` of its sample; a NaN sample or
/// bound fails.
///
/// The caller must have checked that every quotient rounds into
/// `0..2³²` (SZx checks its block's extremes: the quotient is monotone
/// in `v`). Then each code is [`round_half_away`]'s, and the reconstruction
/// equals its one under `==`: one division, the truncation of
/// `y + (½ − 2⁻⁵⁴)` with no libm call, and no branch, so the compiler
/// vectorizes the pass.
pub fn quant_affine_into<T: Element>(
    samples: &[T],
    base: f64,
    step: f64,
    abs: f64,
    codes: &mut [u32],
) -> bool {
    let mut within = true;
    for (code, v) in codes.iter_mut().zip(samples) {
        let v = v.to_f64();
        let (q, q_int) = floor_nonneg((v - base) / step + HALF_BELOW);
        let r = T::from_f64(base + q * step).to_f64();
        within &= (r - v).abs() <= abs;
        *code = q_int;
    }
    within
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dequant_kernel_matches_scalar_loop() {
        let codes: Vec<u32> = (0..1003).map(|i| (i * 2654435761u64 as usize % 4096) as u32).collect();
        let (base, step) = (-3.75f64, 0.004882813);
        let mut fast: Vec<f32> = Vec::new();
        dequant_affine_into(&codes, base, step, &mut fast);
        let slow: Vec<f32> = codes.iter().map(|&q| (base + f64::from(q) * step) as f32).collect();
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.to_bits(), s.to_bits());
        }
        // Appends after existing content rather than clobbering it.
        let mut tail: Vec<f64> = vec![1.0, 2.0];
        dequant_affine_into(&codes[..5], base, step, &mut tail);
        assert_eq!(tail.len(), 7);
        assert_eq!(tail[0], 1.0);
    }

    /// The quantizer body the fused [`LinearQuantizer::quantize`]
    /// replaced, kept verbatim as its oracle: `f64::round`, a finiteness
    /// and range test on the rounded value, the bound on the
    /// reconstruction, then — as the encoders did — the bound on its
    /// `T`-rounded value.
    fn quantize_reference<T: Element>(q: &LinearQuantizer, v: f64, p: f64) -> Option<(u32, f64)> {
        let diff = v - p;
        let qf = (diff * q.inv_step).round();
        if !qf.is_finite() || qf.abs() > q.radius as f64 {
            return None;
        }
        let qi = qf as i64;
        let recon = p + qf * q.step;
        if (recon - v).abs() > q.abs_bound {
            return None;
        }
        let rt = T::from_f64(recon).to_f64();
        if (rt - v).abs() <= q.abs_bound {
            Some(((qi + q.radius + 1) as u32, rt))
        } else {
            None
        }
    }

    /// Same code and outlier decision as the oracle, and a reconstruction
    /// equal under `==` (a zero may differ in sign), in both precisions.
    fn assert_matches_oracle(q: &LinearQuantizer, v: f64, p: f64) {
        fn one<T: Element>(q: &LinearQuantizer, v: f64, p: f64) {
            let (got, want) = (q.quantize::<T>(v, p), quantize_reference::<T>(q, v, p));
            let same = match (got, want) {
                (Some((c, r)), Some((c_ref, r_ref))) => c == c_ref && r == r_ref,
                (None, None) => true,
                _ => false,
            };
            let (name, e, radius) = (T::NAME, q.abs_bound, q.radius);
            assert!(same, "{name}: v={v:e} p={p:e} e={e:e} radius={radius}: {got:?} vs {want:?}");
        }
        one::<f64>(q, v, p);
        one::<f32>(q, v, p);
    }

    /// `x` moved by `k` units in the last place (k in −2..=2), through
    /// zero and into the subnormals.
    fn ulps(x: f64, k: i64) -> f64 {
        let bits = x.to_bits() as i64;
        if x >= 0.0 {
            let b = bits + k;
            if b < 0 { -f64::from_bits((-b) as u64) } else { f64::from_bits(b as u64) }
        } else {
            -ulps(-x, -k)
        }
    }

    /// One oracle case per `kind`, from the raw draws `a`, `b`, `c`.
    fn oracle_case(kind: usize, a: u64, b: u64, c: u64) -> (LinearQuantizer, f64, f64) {
        let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
        let radius = [1u32, 2, 8, 255, 32768, u32::MAX][(a % 6) as usize];
        let k = (b % 5) as i64 - 2;
        match kind {
            // Ties at ±(j + ½)·step, exact: p = 0 and a power-of-two step.
            0 => {
                let e = 2f64.powi((c % 40) as i32 - 20);
                let q = LinearQuantizer::new(e, radius);
                let j = (b >> 8) % (u64::from(radius) + 2);
                let sign = if b & 0x80 == 0 { 1.0 } else { -1.0 };
                (q, ulps(sign * (j as f64 + 0.5) * 2.0 * e, k), 0.0)
            }
            // y within one ulp of radius + ½ (exact), or a tie near it
            // from a non-zero prediction.
            1 => {
                let e = 2f64.powi((c % 40) as i32 - 20);
                let q = LinearQuantizer::new(e, radius);
                let edge = (f64::from(radius) + 0.5) * 2.0 * e;
                let sign = if b & 0x80 == 0 { 1.0 } else { -1.0 };
                if c & 0x100 == 0 {
                    (q, ulps(sign * edge, k), 0.0)
                } else {
                    let p = (unit(a) - 0.5) * 1e3;
                    (q, p + sign * ulps(edge, k), p)
                }
            }
            // NaN and ±inf in the sample or the prediction.
            2 => {
                let q = LinearQuantizer::new(1e-3 + unit(c), radius);
                let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN];
                let x = odd[(b % 4) as usize];
                let y = [0.0, 1.5, -7.25, f64::MAX, x][((b >> 4) % 5) as usize];
                if c & 1 == 0 { (q, x, y) } else { (q, y, x) }
            }
            // ±0 samples and predictions, subnormal values, and bounds
            // from the subnormals up to the first normals.
            3 => {
                let e = match c % 3 {
                    0 => f64::from_bits(1 + (c >> 8) % (1 << 52)),
                    1 => f64::MIN_POSITIVE * (1.0 + unit(c)),
                    _ => 1e-300 * (1.0 + unit(c)),
                };
                let q = LinearQuantizer::new(e, radius);
                let tiny = |x: u64| {
                    let m = f64::from_bits(x % (1 << 54));
                    [0.0, -0.0, m, -m][(x >> 60) as usize % 4]
                };
                (q, tiny(a), tiny(b))
            }
            // f32 values near a bound of about one f32 ulp, so that the
            // narrowing of the reconstruction decides the outcome.
            4 => {
                let v = f64::from((unit(a) - 0.5) as f32 * 2e4);
                let v = if b & 1 == 0 { v } else { v + v.abs() * 1e-9 * (unit(c) - 0.5) };
                let f32_ulp = (v.abs().max(1e-30) as f32).to_bits();
                let ulp =
                    f64::from(f32::from_bits(f32_ulp + 1)) - f64::from(f32::from_bits(f32_ulp));
                let e = ulp * (0.2 + 2.0 * unit(b));
                let q = LinearQuantizer::new(e, radius);
                let p = v + (unit(c) - 0.5) * e * 40.0;
                (q, v, p)
            }
            // f32 values with a bound of about one f64 ulp, so that the
            // reconstruction's own rounding decides (and its narrowing
            // may land back on the sample).
            5 => {
                let v = f64::from((unit(a) - 0.5) as f32 * 2e4);
                let ulp = ulps(v.abs(), 1) - v.abs();
                let e = ulp * (0.25 + 4.0 * unit(b));
                let q = LinearQuantizer::new(e, radius);
                (q, v, v + (unit(c) - 0.5) * e * 6.0)
            }
            // Anything: wide values, wide bounds, residuals in and out of
            // range.
            _ => {
                let e = 10f64.powf(unit(c) * 24.0 - 12.0);
                let q = LinearQuantizer::new(e, radius);
                let v = (unit(a) - 0.5) * 10f64.powf(unit(b) * 12.0 - 4.0);
                let reach = e * f64::from(radius.min(1 << 20)) * 3.0;
                let p = v + (unit(b.rotate_left(17)) - 0.5) * reach;
                (q, v, p)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The fused step decides, codes and reconstructs exactly as the
        /// `round`-based body plus the `T` check it replaced: ties, the
        /// edge of the range, NaN and ±inf, signed zeros and subnormal
        /// bounds, and f32 roundings that flip the bound.
        #[test]
        fn fused_step_matches_the_round_based_oracle(
            kind in 0usize..7,
            a in any::<u64>(),
            b in any::<u64>(),
            c in any::<u64>(),
        ) {
            let (q, v, p) = oracle_case(kind, a, b, c);
            assert_matches_oracle(&q, v, p);
        }
    }

    /// The edges the proptest draws from, each checked outright.
    #[test]
    fn fused_step_matches_the_oracle_at_every_edge() {
        for radius in [1u32, 8, 32768] {
            for e in [0.5, 1e-3, 2f64.powi(-10), f64::MIN_POSITIVE, 1e-310] {
                let q = LinearQuantizer::new(e, radius);
                let edge = (f64::from(radius) + 0.5) * 2.0 * e;
                let mut vs =
                    vec![0.0, -0.0, 1e-310, -1e-310, f64::NAN, f64::INFINITY, -f64::INFINITY];
                for j in [0.5, 1.5, 2.5, f64::from(radius) - 0.5] {
                    for k in -2..=2 {
                        vs.extend([ulps(j * 2.0 * e, k), ulps(-j * 2.0 * e, k)]);
                    }
                }
                for k in -2..=2 {
                    vs.extend([ulps(edge, k), ulps(-edge, k)]);
                }
                for &v in &vs {
                    for p in [0.0, -0.0, f64::NAN, f64::INFINITY, -f64::INFINITY, 1e-310] {
                        assert_matches_oracle(&q, v, p);
                    }
                }
            }
        }
    }

    #[test]
    fn zero_residual_gets_zero_code() {
        let q = LinearQuantizer::new(0.1, 8);
        assert_eq!(q.quantize::<f64>(5.0, 5.0), Some((q.zero_code(), 5.0)));
    }

    #[test]
    fn reconstruction_respects_bound() {
        let q = LinearQuantizer::new(0.05, 32768);
        for i in 0..10_000 {
            let v = (i as f64) * 0.013 - 60.0;
            let p = v + ((i * 7) % 100) as f64 * 0.02 - 1.0;
            if let Some((c, recon)) = q.quantize::<f64>(v, p) {
                assert!((recon - v).abs() <= 0.05, "v={v} p={p}");
                assert_eq!(q.reconstruct(c, p), recon);
            }
        }
    }

    #[test]
    fn far_residuals_are_outliers() {
        let q = LinearQuantizer::new(0.01, 4);
        // |diff| = 1.0, step = 0.02, q = 50 > radius 4.
        assert_eq!(q.quantize::<f64>(1.0, 0.0), None);
    }

    #[test]
    fn nan_prediction_is_outlier() {
        let q = LinearQuantizer::new(0.01, 8);
        assert_eq!(q.quantize::<f64>(1.0, f64::NAN), None);
        assert_eq!(q.quantize::<f64>(1.0, f64::INFINITY), None);
    }

    #[test]
    fn encoder_decoder_agree() {
        let q = LinearQuantizer::new(0.5, 100);
        let p = 10.0;
        for v in [9.0, 10.0, 11.0, 10.49, 9.51, 60.0, -40.0] {
            if let Some((c, recon)) = q.quantize::<f64>(v, p) {
                assert_eq!(q.reconstruct(c, p), recon);
            }
        }
    }

    #[test]
    fn codes_are_in_alphabet() {
        let q = LinearQuantizer::new(0.1, 16);
        for i in -20..=20 {
            let v = i as f64 * 0.2;
            if let Some((c, _)) = q.quantize::<f64>(v, 0.0) {
                assert!(c >= 1 && c < q.alphabet() + 1);
            }
        }
    }

    #[test]
    fn huge_bound_tiny_values() {
        let q = LinearQuantizer::new(1e30, 8);
        // recon = 0, error 1.0 <= 1e30.
        assert_eq!(q.quantize::<f64>(1.0, 0.0), Some((q.zero_code(), 0.0)));
    }

    #[test]
    #[should_panic]
    fn zero_bound_rejected() {
        let _ = LinearQuantizer::new(0.0, 8);
    }

    #[test]
    #[should_panic]
    fn negative_zero_bound_rejected() {
        let _ = LinearQuantizer::new(-0.0, 8);
    }

    /// `round_half_away` is `f64::round` bit for bit (any NaN for NaN).
    fn assert_rounds_like_libm(y: f64) {
        let (got, want) = (round_half_away(y), y.round());
        let same = got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan());
        assert!(same, "y = {y:e} ({:#x}): {got:e} vs {want:e}", y.to_bits());
    }

    /// The per-sample, `round`-based codes and test that
    /// [`quant_affine_into`] replaced in the SZx encoder.
    fn quant_affine_reference<T: Element>(
        samples: &[T],
        base: f64,
        step: f64,
        abs: f64,
        codes: &mut [u32],
    ) -> bool {
        let mut within = true;
        for (code, v) in codes.iter_mut().zip(samples) {
            let q = ((v.to_f64() - base) / step).round();
            let r = T::from_f64(base + q * step);
            within &= (r.to_f64() - v.to_f64()).abs() <= abs;
            *code = q as u32;
        }
        within
    }

    /// A block of `T` samples from `base` up, every quotient rounding
    /// into `0..2³²`, with ties, quotients near 2³² and bounds near one
    /// ulp of the samples; the kernel and the reference agree.
    fn assert_kernel_matches<T: Element>(a: u64, b: u64, c: u64) {
        let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
        let base = T::from_f64((unit(a) - 0.5) * 10f64.powf(unit(b) * 12.0 - 6.0)).to_f64();
        let step = match c % 3 {
            0 => 2f64.powi((b % 40) as i32 - 20),
            1 => base.abs().max(1e-30) * 10f64.powf(-1.0 - 8.0 * unit(c)),
            _ => 1e-3 * (1.0 + unit(c)),
        };
        let top = [1.0, 255.0, 65535.0, 4294967294.0][(a % 4) as usize];
        let mut state = a ^ c.rotate_left(17);
        let samples: Vec<T> = (0..128)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let q = (unit(state) * top).floor();
                // Exact ties on power-of-two steps, jitter otherwise.
                let frac = if state & 1 == 0 { 0.5 } else { unit(state.rotate_left(29)) };
                T::from_f64(base + (q + frac) * step)
            })
            .filter(|v| v.to_f64() >= base && ((v.to_f64() - base) / step).round() < 4294967295.0)
            .collect();
        for abs in [step / 2.0, step * 0.5000001, step * 0.4999999, step] {
            let mut got = vec![0u32; samples.len()];
            let mut want = vec![0u32; samples.len()];
            let ok = quant_affine_into(&samples, base, step, abs, &mut got);
            let ok_ref = quant_affine_reference(&samples, base, step, abs, &mut want);
            let name = T::NAME;
            assert_eq!((ok, &got), (ok_ref, &want), "{name}: base {base:e} step {step:e} abs {abs:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Ties, their neighbours, values past 2⁵² and 2⁶³, and anything.
        #[test]
        fn round_half_away_matches_libm(k in 0usize..4, a in any::<u64>(), b in any::<u64>()) {
            let sign = if b & 1 == 0 { 1.0 } else { -1.0 };
            let y = match k {
                0 => ulps(sign * ((a % (1 << 53)) as f64 + 0.5), (b % 5) as i64 - 2),
                1 => sign * 2f64.powi((a % 70) as i32) * (1.0 + (b >> 12) as f64 / (1u64 << 52) as f64),
                2 => sign * ulps((a % 4) as f64 * 0.5, (b % 5) as i64 - 2),
                _ => f64::from_bits(a),
            };
            assert_rounds_like_libm(y);
        }

        /// The SZx fixed-point kernel codes and decides as the per-sample
        /// `round`-based loop it replaced.
        #[test]
        fn quant_affine_matches_the_round_based_loop(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            assert_kernel_matches::<f32>(a, b, c);
            assert_kernel_matches::<f64>(a, b, c);
        }
    }

    #[test]
    fn round_half_away_matches_libm_at_every_edge() {
        let mut ys = vec![0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, 5e-324];
        for p in [0.5, 1.5, 2.5, 2f64.powi(52) - 0.5, 2f64.powi(52), 2f64.powi(53), 2f64.powi(63), 2f64.powi(64)] {
            for k in -3..=3 {
                ys.extend([ulps(p, k), ulps(-p, k)]);
            }
        }
        for y in ys {
            assert_rounds_like_libm(y);
        }
    }
}
