//! Property tests pinning the batched quantization engine to the scalar
//! reference: for every registry format, slice quantization as production
//! dispatches it (the LUT `QuantLut::for_slice` picks, else the scalar
//! loop) must be bit-identical (`f32::to_bits`) to the per-element
//! `(quantize(x / scale) * scale) as f32` loop — across random bit
//! patterns, tie midpoints, subnormal inputs, ±∞-adjacent magnitudes,
//! NaNs, and non-unit scales, on both the LUT path (slices past
//! `LUT_MIN_LEN`) and the scalar fallback — and `QuantLut::apply` must
//! equal the per-element `QuantLut::map` loop on **every SIMD tier** the
//! host supports, including degenerate scales whose crowded coarse
//! buckets push `probe_len` past the vector kernel's probe cutoff.

use mersit_core::{
    available_levels, quantize_slice_scalar, table2_formats, Format, QuantLut, ValueClass,
    LUT_MIN_LEN,
};
use proptest::prelude::*;

/// Asserts slice == scalar bit-for-bit for one format over one input set.
fn assert_bit_identical(fmt: &dyn Format, xs: &[f32], scale: f64) {
    let mut batched = xs.to_vec();
    match QuantLut::for_slice(fmt, batched.len(), scale) {
        Some(lut) => lut.apply(&mut batched),
        None => quantize_slice_scalar(fmt, &mut batched, scale),
    }
    let mut scalar = xs.to_vec();
    quantize_slice_scalar(fmt, &mut scalar, scale);
    for (i, (&b, &s)) in batched.iter().zip(&scalar).enumerate() {
        assert_eq!(
            b.to_bits(),
            s.to_bits(),
            "{} scale={scale:e} x={:e} ({:#010x}): batched {b:e} vs scalar {s:e}",
            fmt.name(),
            xs[i],
            xs[i].to_bits()
        );
    }
}

/// Asserts the slice codec equals the per-element `map` loop bit-for-bit
/// on every SIMD tier this host can run (scalar plus each vector
/// kernel), across even and odd lengths (vector body + scalar tail).
fn assert_lut_levels_match_map(fmt: &dyn Format, xs: &[f32], scale: f64) {
    let Some(lut) = QuantLut::build(&fmt.quant_spec(), scale) else {
        return;
    };
    let want: Vec<u32> = xs.iter().map(|&x| lut.map(x).to_bits()).collect();
    for &level in available_levels() {
        for len in [xs.len(), xs.len().saturating_sub(3)] {
            let mut got = xs[..len].to_vec();
            lut.apply_with_level(level, &mut got);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    *w,
                    "{} scale={scale:e} {} x={:e} ({:#010x}) elem {i}",
                    fmt.name(),
                    level.name(),
                    xs[i],
                    xs[i].to_bits()
                );
            }
        }
    }
}

/// Checks both engine paths: the full slice (long enough for the LUT) and
/// a short prefix (scalar fallback).
fn check_all_formats(xs: &[f32], scale: f64) {
    assert!(xs.len() >= LUT_MIN_LEN, "inputs must reach the LUT path");
    for fmt in table2_formats() {
        assert_bit_identical(fmt.as_ref(), xs, scale);
        assert_bit_identical(fmt.as_ref(), &xs[..64], scale);
    }
}

/// Fixed specials appended to every sampled buffer.
fn specials() -> Vec<f32> {
    vec![
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
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_bit_patterns_match(
        words in prop::collection::vec(any::<u64>(), LUT_MIN_LEN + 200),
        sexp in -30i32..31,
    ) {
        // Raw bit reinterpretation covers every f32 class: normals of all
        // magnitudes, subnormals, zeros, infinities, NaN payloads.
        let mut xs: Vec<f32> = words.iter().map(|&w| f32::from_bits(w as u32)).collect();
        xs.extend(specials());
        let pow2 = f64::powi(2.0, sexp);
        check_all_formats(&xs, pow2); // exact ties reachable
        check_all_formats(&xs, pow2 * 1.3791); // awkward mantissa
    }

    #[test]
    fn tie_midpoints_match(sexp in -12i32..13, noise in any::<u64>()) {
        // Build inputs on (and one ulp around) the exact midpoints between
        // adjacent lattice values of every format — the rounding tie cases.
        let scale = f64::powi(2.0, sexp);
        for fmt in table2_formats() {
            let mut vals: Vec<f64> = fmt
                .codes()
                .map(|c| c as u16)
                .filter(|&c| fmt.classify(c) == ValueClass::Finite)
                .map(|c| fmt.decode(c))
                .filter(|&v| v > 0.0)
                .collect();
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            let mut xs = Vec::new();
            for w in vals.windows(2) {
                let mid = (w[0] + (w[1] - w[0]) / 2.0) * scale;
                for v in [mid as f32, (mid as f32) * 0.5] {
                    let b = v.to_bits();
                    xs.extend([
                        v,
                        -v,
                        f32::from_bits(b.wrapping_add(1)),
                        f32::from_bits(b.wrapping_sub(1)),
                    ]);
                }
            }
            // Pad with noise-derived values to reach the LUT path.
            let mut w = noise;
            while xs.len() < LUT_MIN_LEN {
                w = w.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                xs.push(f32::from_bits((w >> 32) as u32));
            }
            assert_bit_identical(fmt.as_ref(), &xs, scale);
        }
    }

    #[test]
    fn subnormal_inputs_match(
        offsets in prop::collection::vec(0u32..0x0080_0000, LUT_MIN_LEN),
        sexp in -20i32..21,
    ) {
        // Magnitudes entirely inside the f32 subnormal range, both signs.
        let xs: Vec<f32> = offsets
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let sign = u32::from(i % 2 == 1) << 31;
                f32::from_bits(m | sign)
            })
            .collect();
        check_all_formats(&xs, f64::powi(2.0, sexp) * 1.07);
    }

    #[test]
    fn infinity_adjacent_magnitudes_match(
        offsets in prop::collection::vec(0u32..64, LUT_MIN_LEN),
        scale in 0.001f64..1000.0,
    ) {
        // Bit patterns straddling f32::MAX and ±∞ (offsets past the MAX
        // bits wrap into the infinity/NaN encodings on purpose).
        let xs: Vec<f32> = offsets
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let sign = u32::from(i % 2 == 1) << 31;
                f32::from_bits((0x7f7f_ffe0 + d) | sign)
            })
            .collect();
        check_all_formats(&xs, scale);
    }

    #[test]
    fn lut_apply_matches_map_on_every_simd_tier(
        words in prop::collection::vec(any::<u64>(), 600),
        sexp in -30i32..31,
        mantissa in 1.0f64..2.0,
    ) {
        // The vectorized slice codec against the per-element `map` loop,
        // on every runnable tier: random bit patterns (all f32 classes,
        // NaN lanes exercising the masked gathers) plus the fixed
        // specials, odd lengths for the scalar tail.
        let mut xs: Vec<f32> = words.iter().map(|&w| f32::from_bits(w as u32)).collect();
        xs.extend(specials());
        let scale = f64::powi(2.0, sexp) * mantissa;
        for fmt in table2_formats() {
            assert_lut_levels_match_map(fmt.as_ref(), &xs, scale);
        }
    }

    #[test]
    fn degenerate_scales_fall_back_identically(
        words in prop::collection::vec(any::<u64>(), LUT_MIN_LEN),
    ) {
        // Scales the LUT cannot represent must still agree bit-for-bit
        // (the engine falls back to the scalar path).
        let xs: Vec<f32> = words.iter().map(|&w| f32::from_bits(w as u32)).collect();
        for &scale in &[0.0, -1.0, f64::INFINITY, f64::NAN, 1e-320, 4e307] {
            for fmt in table2_formats() {
                assert_bit_identical(fmt.as_ref(), &xs, scale);
            }
        }
    }
}

#[test]
fn crowded_probe_scales_match_on_every_simd_tier() {
    // Subnormal-range scales push every format cut into the f32
    // subnormal binades, where the linear coarse-bucket grid collapses:
    // one bucket holds (nearly) every region and `probe_len` climbs past
    // 100 — far beyond the vector kernel's bounded-probe cutoff, so the
    // slice codec must take the whole-slice scalar fallback and still
    // match `map` exactly. The assertion on `probe_len` keeps this test
    // honest: if the bucket grid ever changes, it fails loudly rather
    // than silently testing the fast path twice.
    let mut xs: Vec<f32> = (0u32..1500)
        .map(|i| {
            let mag = i.wrapping_mul(0x9E37_79B9) & 0x00ff_ffff; // subnormal/small-normal bits
            let sign = u32::from(i % 2 == 1) << 31;
            f32::from_bits(mag | sign)
        })
        .collect();
    xs.extend(specials());

    let mut crowded_seen = 0u32;
    for &scale in &[5e-42f64, 1e-41] {
        for fmt in table2_formats() {
            if let Some(lut) = QuantLut::build(&fmt.quant_spec(), scale) {
                if lut.probe_len() > 8 {
                    crowded_seen += 1;
                }
            }
            assert_lut_levels_match_map(fmt.as_ref(), &xs, scale);
            assert_bit_identical(fmt.as_ref(), &xs, scale);
        }
    }
    assert!(
        crowded_seen >= 4,
        "expected several crowded-bucket LUTs (probe_len > 8), saw {crowded_seen}"
    );
}
