//! The "Other Formats" of the paper's §2.1: AdaptivFloat [Tambe+, DAC'20]
//! and 8-bit block floating point [Yeh+, ICML'22].
//!
//! The paper argues these "align with FP8" once channel-/layer-level
//! scaling is applied, "eliminating the need for a separate comparison".
//! This module implements both so that claim can be *measured* (see the
//! `other_formats` bench binary) instead of assumed.
//!
//! Both compute their scales at run time (per tensor, per element
//! group), so they are not [`crate::FormatAssignment`] kinds. An
//! [`AltQuant`] runs through the same shared-reference forward a
//! [`crate::QuantPlan`] uses: [`AltQuant::apply_per_channel`] produces
//! the weight overrides, and the quantizer itself is the activation
//! [`Tap`].

use mersit_nn::{Site, Tap};
use mersit_tensor::Tensor;

/// AdaptivFloat quantization: sign + `exp_bits` exponent + `frac_bits`
/// fraction, **no subnormals**, with a per-tensor integer exponent bias
/// chosen so the largest magnitude is representable — the format's
/// "adaptive" part.
///
/// # Panics
///
/// Panics unless `1 <= exp_bits <= 6` and `1 + exp_bits + frac_bits == 8`
/// (8-bit words, as compared in the paper).
#[must_use]
pub fn quantize_adaptivfloat(t: &Tensor, exp_bits: u32, frac_bits: u32) -> Tensor {
    assert!((1..=6).contains(&exp_bits), "exp_bits out of range");
    assert_eq!(1 + exp_bits + frac_bits, 8, "must form an 8-bit word");
    let max = f64::from(t.max_abs());
    if max == 0.0 {
        return t.clone();
    }
    // Choose the bias so the top exponent matches the data maximum.
    let e_top = max.log2().floor() as i32;
    let e_min = e_top - (1 << exp_bits) + 1;
    let fscale = f64::from(1u32 << frac_bits);
    t.map(|x| {
        let xf = f64::from(x);
        if xf == 0.0 {
            return 0.0;
        }
        let sign = xf.signum();
        let mag = xf.abs();
        let mut e = mag.log2().floor() as i32;
        if e < e_min {
            // No subnormals: underflow region rounds to zero or the
            // smallest normal, whichever is nearer.
            let min_normal = 2f64.powi(e_min);
            return if mag < min_normal / 2.0 {
                0.0
            } else {
                (sign * min_normal) as f32
            };
        }
        e = e.min(e_top);
        let step = 2f64.powi(e) / fscale;
        let q = (mag / step).round_ties_even() * step;
        // Rounding up may carry into the next binade; cap at the max.
        let max_val = (2.0 - 1.0 / fscale) * 2f64.powi(e_top);
        (sign * q.min(max_val)) as f32
    })
}

/// Block-floating-point quantization: values are split into groups of
/// `group` consecutive elements sharing one exponent; each element keeps a
/// signed `mant_bits`-bit mantissa.
///
/// # Panics
///
/// Panics if `group == 0` or `mant_bits` is not in `2..=15`.
#[must_use]
pub fn quantize_bfp(t: &Tensor, mant_bits: u32, group: usize) -> Tensor {
    assert!(group > 0, "empty group");
    assert!((2..=15).contains(&mant_bits), "mantissa width out of range");
    let mut out = t.clone();
    let half = f64::from((1i32 << (mant_bits - 1)) - 1); // symmetric mantissa range
    for chunk in out.data_mut().chunks_mut(group) {
        let max = chunk.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        if max == 0.0 {
            continue;
        }
        // Shared exponent: scale so the max uses the full mantissa.
        let e = f64::from(max).log2().ceil() as i32;
        let step = 2f64.powi(e) / (half + 1.0);
        for v in chunk.iter_mut() {
            let q = (f64::from(*v) / step).round_ties_even().clamp(-half, half);
            *v = (q * step) as f32;
        }
    }
    out
}

/// One §2.1 alternative quantizer with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AltQuant {
    /// AdaptivFloat with `exp_bits` exponent and `frac_bits` fraction
    /// bits (see [`quantize_adaptivfloat`]).
    AdaptivFloat {
        /// Exponent field width.
        exp_bits: u32,
        /// Fraction field width.
        frac_bits: u32,
    },
    /// Block floating point with `mant_bits`-bit mantissas over groups of
    /// `group` elements (see [`quantize_bfp`]).
    Bfp {
        /// Signed mantissa width.
        mant_bits: u32,
        /// Elements sharing one exponent.
        group: usize,
    },
}

impl AltQuant {
    /// Applies the quantizer tensor-wide (per-layer scaling).
    #[must_use]
    pub fn apply(&self, t: &Tensor) -> Tensor {
        match *self {
            AltQuant::AdaptivFloat {
                exp_bits,
                frac_bits,
            } => quantize_adaptivfloat(t, exp_bits, frac_bits),
            AltQuant::Bfp { mant_bits, group } => quantize_bfp(t, mant_bits, group),
        }
    }

    /// Applies the quantizer per output channel (outermost dimension) —
    /// the weight path, matching the main pipeline's per-channel scales.
    /// BFP already groups internally, so it applies tensor-wide.
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors.
    #[must_use]
    pub fn apply_per_channel(&self, t: &Tensor) -> Tensor {
        match *self {
            AltQuant::AdaptivFloat { .. } => {
                let oc = t.shape()[0];
                let inner: usize = t.shape()[1..].iter().product();
                let mut out = t.clone();
                for c in 0..oc {
                    let slice =
                        Tensor::from_vec(t.data()[c * inner..(c + 1) * inner].to_vec(), &[inner]);
                    let q = self.apply(&slice);
                    out.data_mut()[c * inner..(c + 1) * inner].copy_from_slice(q.data());
                }
                out
            }
            AltQuant::Bfp { .. } => self.apply(t),
        }
    }
}

/// As an activation tap, the quantizer applies tensor-wide at every site.
impl Tap for AltQuant {
    fn activation(&mut self, _site: Site<'_>, t: Tensor) -> Tensor {
        self.apply(&t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::relative_rmse;
    use mersit_tensor::Rng;

    #[test]
    fn alt_quant_apply_matches_free_functions() {
        let mut rng = Rng::new(9);
        let t = Tensor::randn(&[64], 1.0, &mut rng);
        let af = AltQuant::AdaptivFloat {
            exp_bits: 4,
            frac_bits: 3,
        };
        assert_eq!(af.apply(&t).data(), quantize_adaptivfloat(&t, 4, 3).data());
        let bf = AltQuant::Bfp {
            mant_bits: 7,
            group: 16,
        };
        assert_eq!(bf.apply(&t).data(), quantize_bfp(&t, 7, 16).data());
    }

    #[test]
    fn adaptivfloat_representable_values_fixed() {
        // Exact powers of two and simple fractions survive.
        let t = Tensor::from_vec(vec![1.0, 0.5, -2.0, 1.5, 0.0], &[5]);
        let q = quantize_adaptivfloat(&t, 4, 3);
        assert_eq!(q.data(), t.data());
    }

    #[test]
    fn adaptivfloat_adapts_bias_to_scale() {
        // The same relative precision at wildly different scales — the
        // point of the adaptive bias.
        let mut rng = Rng::new(1);
        let base = Tensor::randn(&[2000], 1.0, &mut rng);
        let scaled = base.scale(1e-6);
        let e1 = relative_rmse(&quantize_adaptivfloat(&base, 4, 3), &base);
        let e2 = relative_rmse(&quantize_adaptivfloat(&scaled, 4, 3), &scaled);
        assert!((e1 - e2).abs() < 0.01, "{e1} vs {e2}");
        assert!(e1 < 0.1, "precision sane: {e1}");
    }

    #[test]
    fn adaptivfloat_flushes_deep_underflow() {
        // Values far below the (biased) normal range flush to zero.
        let t = Tensor::from_vec(vec![1.0, 1e-30], &[2]);
        let q = quantize_adaptivfloat(&t, 3, 4);
        assert_eq!(q.data()[0], 1.0);
        assert_eq!(q.data()[1], 0.0);
    }

    #[test]
    fn bfp_exact_within_group_scale() {
        let t = Tensor::from_vec(vec![0.5, 0.25, -0.75, 1.0], &[4]);
        let q = quantize_bfp(&t, 8, 4);
        for (a, b) in q.data().iter().zip(t.data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn bfp_group_size_trades_accuracy() {
        // Small groups adapt better to locally varying magnitudes.
        let mut rng = Rng::new(2);
        let mut data = Vec::new();
        for i in 0..64 {
            let scale = if i % 2 == 0 { 1.0 } else { 1e-3 };
            for _ in 0..16 {
                data.push((rng.normal() * scale) as f32);
            }
        }
        let t = Tensor::from_vec(data, &[64 * 16]);
        let small = relative_rmse(&quantize_bfp(&t, 8, 16), &t);
        let large = relative_rmse(&quantize_bfp(&t, 8, 512), &t);
        assert!(small < large, "group 16: {small}, group 512: {large}");
    }

    #[test]
    fn bfp_zero_group_is_noop() {
        let t = Tensor::zeros(&[32]);
        let q = quantize_bfp(&t, 8, 8);
        assert_eq!(q.data(), t.data());
    }
}
