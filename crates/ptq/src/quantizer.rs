//! Scaled fake-quantization of tensors through any 8-bit [`Format`].
//!
//! Scaling follows the paper's §4.1 protocol: the maximum absolute value of
//! the data (per output channel for weights, per tensor for activations)
//! is mapped onto the format's [`scale_anchor`], i.e.
//! `scale = max|x| / anchor` ([`site_scale`]), then every element is
//! rounded through the format and scaled back.

use mersit_core::{quantize_slice_scalar, Format, QuantLut};
use mersit_tensor::{par, Tensor};

/// Rough cost (in elementary ops) of one scalar `Format::quantize` round
/// trip, used to size per-thread work in the parallel splits below.
const SCALAR_QUANT_COST: usize = 64;

/// The value the data maximum is mapped onto: the **largest representable
/// value inside the format's full-precision band** (the highest binade
/// still carrying the format's maximal effective fraction bits).
///
/// * INT8 → 127 and FP8 → `max_finite` (flat precision: the band reaches
///   the top, recovering standard INT8/FP8 practice);
/// * Posit/MERSIT → the top of the tapered-precision plateau (e.g. 3.875
///   for Posit(8,1), 7.75 for MERSIT(8,2)), so the bulk of the data sits
///   where the regime tapering still grants full fraction precision and
///   the wide dynamic range below is spent on the distribution's tail —
///   the §3.2 precision-band argument made operational.
#[must_use]
pub fn scale_anchor(fmt: &dyn Format) -> f64 {
    // Delegates to the format, which memoizes the code-space sweep behind
    // a `OnceLock` so repeated calls (one per layer per batch) are free.
    fmt.scale_anchor()
}

/// Fake-quantizes a slice in place: `x ← quantize(x / scale) · scale` for
/// every element, through the batched [`QuantLut`] codec when
/// [`QuantLut::for_slice`] picks it (the slice is long enough to amortize
/// the table build) and across threads when long enough to amortize the
/// spawns. Bit-identical to the scalar element loop in every case.
pub fn quantize_slice(fmt: &dyn Format, xs: &mut [f32], scale: f64) {
    let _span = mersit_obs::span("ptq.quantize_slice");
    mersit_obs::add("ptq.quantize.elems", xs.len() as u64);
    if let Some(lut) = QuantLut::for_slice(fmt, xs.len(), scale) {
        // Build the table once, share it read-only across threads.
        mersit_obs::incr("ptq.quantize.lut_path");
        par::par_chunks_mut(xs, 1, par::min_units(8), |_, chunk| lut.apply(chunk));
    } else {
        mersit_obs::incr("ptq.quantize.scalar_path");
        quantize_slice_scalar(fmt, xs, scale);
    }
}

/// Per-site activation scale: `Some(max_abs / anchor)` when the site was
/// observed (positive maximum), `None` for unseen sites, which must pass
/// through unquantized. This is the **single** definition of a PTQ scale —
/// the compiled [`crate::executor::QuantPlan`] (site and input scales),
/// the RMSE / sensitivity taps, and, with `unwrap_or(1.0)` for all-zero
/// data, the per-channel weight scales ([`quantize_per_channel`],
/// [`crate::QuantGemm`]) and the bit-true per-row activation scales all go
/// through it, so they can never drift apart.
#[must_use]
pub fn site_scale(anchor: f64, max_abs: f32) -> Option<f64> {
    (max_abs > 0.0).then(|| f64::from(max_abs) / anchor)
}

/// Scale that maps `max_abs` onto [`scale_anchor`].
/// Returns 1.0 for all-zero data.
#[must_use]
pub fn scale_for(fmt: &dyn Format, max_abs: f32) -> f64 {
    site_scale(scale_anchor(fmt), max_abs).unwrap_or(1.0)
}

/// Fake-quantizes a whole tensor with one scale (per-tensor quantization,
/// the paper's activation scheme).
#[must_use]
pub fn quantize_tensor(fmt: &dyn Format, t: &Tensor, scale: f64) -> Tensor {
    let mut out = t.clone();
    quantize_slice(fmt, out.data_mut(), scale);
    out
}

/// Per-outermost-dimension max-abs values (per-output-channel statistics
/// for `[OC, ...]` weight tensors).
#[must_use]
pub fn channel_max_abs(t: &Tensor) -> Vec<f32> {
    let oc = t.shape()[0];
    let inner: usize = t.shape()[1..].iter().product();
    (0..oc)
        .map(|c| {
            t.data()[c * inner..(c + 1) * inner]
                .iter()
                .fold(0.0f32, |m, &x| m.max(x.abs()))
        })
        .collect()
}

/// Fake-quantizes a weight tensor per output channel (the paper's weight
/// scheme).
#[must_use]
pub fn quantize_per_channel(fmt: &dyn Format, t: &Tensor) -> Tensor {
    let _span = mersit_obs::span("ptq.quantize_per_channel");
    mersit_obs::add("ptq.quantize.channels", t.shape()[0] as u64);
    let maxes = channel_max_abs(t);
    let inner: usize = t.shape()[1..].iter().product();
    let mut out = t.clone();
    if inner == 0 {
        return out;
    }
    // The anchor is a per-format constant; hoist it out of the channel loop.
    let anchor = fmt.scale_anchor();
    let scales: Vec<f64> = maxes
        .iter()
        .map(|&m| site_scale(anchor, m).unwrap_or(1.0))
        .collect();
    let scales = &scales;
    // Channels are independent (each has its own scale), so the channel
    // range is split across threads; within a channel `for_slice` picks
    // the LUT path when the channel is long enough.
    par::par_chunks_mut(
        out.data_mut(),
        inner,
        par::min_units(inner.saturating_mul(SCALAR_QUANT_COST)),
        |c0, chunk| {
            for (dc, ch) in chunk.chunks_mut(inner).enumerate() {
                let scale = scales[c0 + dc];
                match QuantLut::for_slice(fmt, ch.len(), scale) {
                    Some(lut) => lut.apply(ch),
                    None => quantize_slice_scalar(fmt, ch, scale),
                }
            }
        },
    );
    out
}

/// Relative root-mean-square error between a tensor and a reference,
/// normalized by the reference RMS. Returns 0 for a zero reference.
#[must_use]
pub fn relative_rmse(quantized: &Tensor, reference: &Tensor) -> f64 {
    assert_eq!(quantized.shape(), reference.shape(), "shape mismatch");
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&q, &r) in quantized.data().iter().zip(reference.data()) {
        num += f64::from(q - r) * f64::from(q - r);
        den += f64::from(r) * f64::from(r);
    }
    if den == 0.0 {
        0.0
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mersit_core::{parse_format, Int8, Mersit};
    use mersit_tensor::Rng;

    #[test]
    fn scale_maps_max_to_the_precision_band_top() {
        let m = Mersit::new(8, 2).unwrap();
        // MERSIT(8,2): 4-bit band tops out in binade 2 → anchor 7.75.
        assert!((scale_anchor(&m) - 7.75).abs() < 1e-12);
        let s = scale_for(&m, 10.0);
        assert!((10.0 / s - 7.75).abs() < 1e-12);
        assert_eq!(scale_for(&m, 0.0), 1.0);
    }

    #[test]
    fn anchors_recover_standard_practice_for_flat_formats() {
        use mersit_core::{Fp8, Posit};
        assert_eq!(scale_anchor(&Int8::new()), 127.0);
        let f = Fp8::new(4).unwrap();
        assert_eq!(scale_anchor(&f), f.max_finite());
        let p = Posit::new(8, 1).unwrap();
        assert!((scale_anchor(&p) - 3.875).abs() < 1e-12);
    }

    #[test]
    fn int8_quantization_matches_reference() {
        let i = Int8::new();
        let t = Tensor::from_vec(vec![0.0, 0.5, -1.0, 0.998], &[4]);
        let s = scale_for(&i, 1.0); // 1/127
        let q = quantize_tensor(&i, &t, s);
        assert_eq!(q.data()[0], 0.0);
        assert!((q.data()[1] - 0.5).abs() < 1.0 / 127.0);
        assert!((q.data()[2] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn per_channel_uses_independent_scales() {
        let m = Mersit::new(8, 2).unwrap();
        // Channel 0 tiny, channel 1 large: per-channel keeps both precise.
        let t = Tensor::from_vec(vec![0.001, 0.0009, 100.0, 90.0], &[2, 2]);
        let q = quantize_per_channel(&m, &t);
        let err0 = relative_rmse(&q.slice_outer(0, 1), &t.slice_outer(0, 1));
        let err1 = relative_rmse(&q.slice_outer(1, 1), &t.slice_outer(1, 1));
        assert!(err0 < 0.05, "small channel error {err0}");
        assert!(err1 < 0.05, "large channel error {err1}");
    }

    #[test]
    fn quantization_error_tracks_precision() {
        // MERSIT(8,2) (4-bit peak precision) should beat FP(8,5)
        // (2-bit precision) on well-scaled Gaussian data.
        let mut rng = Rng::new(5);
        let t = Tensor::randn(&[1000], 1.0, &mut rng);
        let good = parse_format("MERSIT(8,2)").unwrap();
        let bad = parse_format("FP(8,5)").unwrap();
        let s_g = scale_for(good.as_ref(), t.max_abs());
        let s_b = scale_for(bad.as_ref(), t.max_abs());
        let e_g = relative_rmse(&quantize_tensor(good.as_ref(), &t, s_g), &t);
        let e_b = relative_rmse(&quantize_tensor(bad.as_ref(), &t, s_b), &t);
        assert!(e_g < e_b, "MERSIT {e_g} vs FP(8,5) {e_b}");
    }

    #[test]
    fn engine_bit_identical_to_scalar_formula() {
        // The batched engine (LUT + threads for big tensors, scalar for
        // small ones) must reproduce the original per-element expression
        // exactly, for every registry format: on Gaussian data and on the
        // same data salted with special values (spread so they land in
        // different thread chunks), at the calibrated scale and at the
        // degenerate scales the LUT cannot represent.
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signaling-NaN payload
            f32::from_bits(0xffc0_1234), // negative quiet NaN with payload
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest subnormal
            f32::from_bits(0x8000_0001),
        ];
        let degenerate_scales = [0.0, -1.0, f64::INFINITY, f64::NAN, 1e-320, 4e307];
        let mut rng = Rng::new(11);
        let small = Tensor::randn(&[100], 1.5, &mut rng);
        let large = Tensor::randn(&[20_000], 1.5, &mut rng);
        for fmt in mersit_core::table2_formats() {
            let fmt = fmt.as_ref();
            for t in [&small, &large] {
                let mut salted = t.clone();
                let stride = t.data().len() / specials.len();
                for (j, &v) in specials.iter().enumerate() {
                    salted.data_mut()[j * stride] = v;
                }
                let calibrated = scale_for(fmt, t.max_abs());
                for s in std::iter::once(calibrated).chain(degenerate_scales) {
                    for input in [t, &salted] {
                        let q = quantize_tensor(fmt, input, s);
                        for (&got, &x) in q.data().iter().zip(input.data()) {
                            let want = (fmt.quantize(f64::from(x) / s) * s) as f32;
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{} scale={s:e} x={x:e} ({:#010x}) got={got} want={want}",
                                fmt.name(),
                                x.to_bits()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn per_channel_bit_identical_to_scalar_loop() {
        let mut rng = Rng::new(13);
        // 6 channels of 2000: long enough to engage the LUT per channel.
        let t = Tensor::randn(&[6, 2000], 3.0, &mut rng);
        let fmt = parse_format("MERSIT(8,2)").unwrap();
        let fmt = fmt.as_ref();
        let q = quantize_per_channel(fmt, &t);
        let maxes = channel_max_abs(&t);
        let anchor = scale_anchor(fmt);
        for c in 0..6 {
            let s = f64::from(maxes[c]) / anchor;
            for j in 0..2000 {
                let x = t.at(&[c, j]);
                let want = (fmt.quantize(f64::from(x) / s) * s) as f32;
                assert_eq!(q.at(&[c, j]).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn relative_rmse_basics() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(relative_rmse(&a, &b), 0.0);
        let z = Tensor::zeros(&[2]);
        assert_eq!(relative_rmse(&a, &z), 0.0); // zero reference convention
    }
}
