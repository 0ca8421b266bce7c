//! Batched fake-quantization: a per-`(Format, scale)` lookup codec.
//!
//! The PTQ pipeline's hot loop is scaled *fake quantization*: every f32
//! element `x` becomes `(quantize(x / scale) * scale) as f32`. The scalar
//! path pays, per element, an `f64` division, two virtual calls, a
//! bucket-indexed search of the format's lattice and a decode-table load
//! (see [`crate::EncodeTable`]).
//!
//! This module splits that work into two precomputed layers:
//!
//! * [`QuantSpec`] — scale-independent geometry of a format's rounding
//!   function: the decision *cuts* (underflow threshold and midpoints,
//!   computed with exactly the arithmetic of
//!   [`crate::EncodeTable::round_positive`]) plus the probed `quantize()`
//!   output for every open region between cuts, for every exact tie on a
//!   cut, and for the special inputs (±0, ±∞, NaN). Built once per format
//!   instance: [`Format::quant_spec`] memoizes it in the format's
//!   [`FormatCaches`].
//! * [`QuantLut`] — per-scale codec. Each cut is translated into f32
//!   *input* space by a monotone search over the non-negative f32 bit
//!   patterns: it starts at the cut's closed-form image `(cut * scale) as
//!   f32`, gallops out to a bracket and bisects, and every step tests the
//!   same `f64::from(x) / scale` expression the scalar path evaluates — so
//!   region membership is exact by construction, not by analysis. Outputs
//!   are prescaled with the same `(v * scale) as f32` cast. The hot loop
//!   is then a sign strip, a coarse index on the exponent and top four
//!   mantissa bits, and a short `u32` search: no division, no virtual
//!   dispatch, no `f64` at all.
//!
//! # Invariants
//!
//! * **Bit-exactness with the scalar path** — including tie rules,
//!   underflow policy, saturation, `-0.0`, infinities and NaN — is the
//!   load-bearing contract: callers may freely switch between the scalar
//!   loop [`quantize_slice_scalar`], a [`QuantLut`], and the threaded
//!   fan-out in `mersit_tensor::par` without changing a single output
//!   bit. [`QuantLut::for_slice`] is the one place that picks between the
//!   first two. Asserted by the in-module sweep tests and by the
//!   cross-format property tests in `tests/quant_slice_props.rs`.
//! * **Region membership is exact by construction**: every cut is placed
//!   by a search over f32 bit patterns whose every step tests the *same*
//!   `f64` expression the scalar path evaluates. The closed-form estimate
//!   `cut * scale` only picks where that search starts, so it can change
//!   how long the search takes but never where a boundary lands (pinned
//!   against the full bisection by `codec_oracles`).
//! * **`build` is total over supported scales**: [`QuantLut::supports`]
//!   gates the finite, positive, normal scales; within that domain `build`
//!   returns `Some` for every registry format.
//!
//! # Example
//!
//! ```
//! use mersit_core::{Format, Mersit, QuantLut};
//!
//! let fmt = Mersit::new(8, 2)?;
//! let scale = 0.05;
//! let lut = QuantLut::build(&fmt.quant_spec(), scale).expect("supported scale");
//!
//! let mut xs = vec![0.1f32, -0.37, 0.002, 3.9];
//! let reference: Vec<f32> = xs
//!     .iter()
//!     .map(|&x| (fmt.quantize(f64::from(x) / scale) * scale) as f32)
//!     .collect();
//! lut.apply(&mut xs);
//! assert_eq!(xs, reference); // bit-identical to the scalar loop
//! # Ok::<(), mersit_core::InvalidFormatError>(())
//! ```

use crate::fields::ValueClass;
use crate::format::{Format, UnderflowPolicy};
use crate::profile::PrecisionProfile;
use std::sync::{Arc, OnceLock};

/// Below this many elements the scalar loop wins, so
/// [`QuantLut::for_slice`] declines to build a LUT.
///
/// Measured on a 2-vCPU AVX-512 host: building a LUT (2–4.5 µs) and
/// applying it costs the same as the scalar loop at about 80–225
/// elements for the ten lattice formats, at about 700 for INT8, whose
/// scalar encode is a bare round-and-clamp, and at about 160 summed over
/// all 11 formats. 512 is the smallest power of two above every zoo
/// weight channel (the longest is 288 elements, in vgg_t), so no weight
/// channel changes path. At 512 elements the LUT is 2.5–3× faster for
/// the lattice formats; INT8 slices between 512 and about 700 elements
/// pay up to a quarter more.
pub const LUT_MIN_LEN: usize = 512;

/// Bit pattern of `f32::MAX`: the largest finite positive magnitude.
const MAX_MAG_BITS: u32 = 0x7f7f_ffff;

/// Coarse-index granularity: magnitudes are bucketed by their top
/// `32 − 1 − COARSE_SHIFT = 12` bits (exponent + 4 mantissa bits), i.e.
/// sixteen buckets per binade, so a bucket rarely spans more than a few
/// regions.
const COARSE_SHIFT: u32 = 19;

/// Number of coarse buckets covering all finite positive magnitudes.
const N_BUCKETS: usize = (MAX_MAG_BITS >> COARSE_SHIFT) as usize + 1;

/// Largest per-bucket region count served by the branchless probe loop;
/// beyond it (degenerate scales crowding many regions into one bucket)
/// the lookup falls back to binary search.
const PROBE_CUTOFF: u32 = 8;

/// Scale-independent quantization geometry of one format: decision cuts in
/// the unscaled domain and the probed `quantize()` output everywhere.
///
/// Build once per format (or take the memoized copy via
/// [`Format::quant_spec`]), then instantiate a [`QuantLut`] per scale.
#[derive(Debug, Clone)]
pub struct QuantSpec {
    /// Decision boundaries over positive magnitudes, strictly ascending:
    /// the flush-to-zero threshold (when the policy has one) followed by
    /// the midpoint between each pair of adjacent lattice magnitudes,
    /// computed as `a + (b - a) / 2` — the exact expression
    /// `round_positive` compares against.
    cuts: Vec<f64>,
    /// `quantize()` output on each open region between cuts
    /// (`cuts.len() + 1` entries; the last one is the saturation value).
    region_outs: Vec<f64>,
    /// `quantize(-m)` for the same regions. Probed separately rather than
    /// negated: formats disagree on the sign of a zero result (FP8's
    /// negative underflow keeps `-0.0`, INT8's decode yields `+0.0`).
    region_outs_neg: Vec<f64>,
    /// `quantize()` output for an input landing exactly on each cut
    /// (tie-rule / underflow-tie behavior, probed, `cuts.len()` entries).
    tie_outs: Vec<f64>,
    /// `quantize(-cut)` for the same ties.
    tie_outs_neg: Vec<f64>,
    q_zero_pos: f64,
    q_zero_neg: f64,
    q_inf_pos: f64,
    q_inf_neg: f64,
    q_nan: f64,
}

impl QuantSpec {
    /// Derives the spec from a format by enumerating its positive finite
    /// lattice and probing `quantize()` at region representatives, cuts,
    /// and special values.
    ///
    /// # Panics
    ///
    /// Panics if the format has no positive finite values.
    #[must_use]
    pub fn of<F: Format + ?Sized>(fmt: &F) -> Self {
        let mut vals: Vec<f64> = fmt
            .codes()
            .map(|c| c as u16)
            .filter(|&c| fmt.classify(c) == ValueClass::Finite)
            .map(|c| fmt.decode(c))
            .filter(|&v| v > 0.0)
            .collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        vals.dedup();
        assert!(!vals.is_empty(), "format has no positive finite values");

        let mut cuts = Vec::with_capacity(vals.len());
        let mut reps = Vec::with_capacity(vals.len() + 1);
        if fmt.underflow_policy() == UnderflowPolicy::FlushToZero {
            // Region (0, v0/2) rounds toward zero; probe it strictly inside.
            cuts.push(vals[0] / 2.0);
            reps.push(vals[0] / 4.0);
        }
        for w in vals.windows(2) {
            cuts.push(w[0] + (w[1] - w[0]) / 2.0);
        }
        // Each remaining region contains exactly one lattice magnitude.
        reps.extend(vals.iter().copied());

        let region_outs = reps.iter().map(|&r| fmt.quantize(r)).collect();
        let region_outs_neg = reps.iter().map(|&r| fmt.quantize(-r)).collect();
        let tie_outs = cuts.iter().map(|&c| fmt.quantize(c)).collect();
        let tie_outs_neg = cuts.iter().map(|&c| fmt.quantize(-c)).collect();

        Self {
            cuts,
            region_outs,
            region_outs_neg,
            tie_outs,
            tie_outs_neg,
            q_zero_pos: fmt.quantize(0.0),
            q_zero_neg: fmt.quantize(-0.0),
            q_inf_pos: fmt.quantize(f64::INFINITY),
            q_inf_neg: fmt.quantize(f64::NEG_INFINITY),
            q_nan: fmt.quantize(f64::NAN),
        }
    }

    /// Number of decision cuts (≈ the positive lattice size).
    #[must_use]
    pub fn num_cuts(&self) -> usize {
        self.cuts.len()
    }
}

/// Largest bit pattern in `[1, MAX_MAG_BITS]` whose value satisfies the
/// monotone predicate `pred(f64::from(x) / scale)`, or 0 if none does.
///
/// The search starts at `seed`: it gallops out from there to a bracket,
/// then bisects. Every step tests the same predicate, and the predicate is
/// monotone over non-negative bit patterns, so the seed decides only how
/// many steps the search takes, never its answer. A seed next to the
/// answer costs two or three evaluations instead of a 31-step bisection.
fn max_bits_where(scale: f64, seed: u32, pred: impl Fn(f64) -> bool) -> u32 {
    let holds = |bits: u32| pred(f64::from(f32::from_bits(bits)) / scale);
    let seed = seed.clamp(1, MAX_MAG_BITS);
    // Bracket: holds(lo) && !holds(hi).
    let (mut lo, mut hi);
    let mut step = 1u32;
    if holds(seed) {
        lo = seed;
        loop {
            if step > MAX_MAG_BITS - lo {
                if holds(MAX_MAG_BITS) {
                    return MAX_MAG_BITS;
                }
                hi = MAX_MAG_BITS;
                break;
            }
            if !holds(lo + step) {
                hi = lo + step;
                break;
            }
            lo += step;
            step *= 2;
        }
    } else {
        hi = seed;
        loop {
            if step >= hi {
                if hi == 1 || !holds(1) {
                    return 0;
                }
                lo = 1;
                break;
            }
            if holds(hi - step) {
                lo = hi - step;
                break;
            }
            hi -= step;
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Appends a region `(…, upper] → (pos, neg)`, merging with the previous
/// region when both output bit patterns match (keeps the table short).
fn push_region(
    uppers: &mut Vec<u32>,
    outs: &mut Vec<f32>,
    outs_neg: &mut Vec<f32>,
    upper: u32,
    pos: f32,
    neg: f32,
) {
    if let Some(last_u) = uppers.last_mut() {
        let same = outs.last().copied().map(f32::to_bits) == Some(pos.to_bits())
            && outs_neg.last().copied().map(f32::to_bits) == Some(neg.to_bits());
        if same {
            *last_u = upper;
            return;
        }
    }
    uppers.push(upper);
    outs.push(pos);
    outs_neg.push(neg);
}

/// The coarse index over ascending region bounds, in one merge pass:
/// `coarse[b]` counts the regions whose upper bound lies below bucket
/// `b`'s lower edge (`N_BUCKETS + 1` entries), and `probe_len` is the most
/// bounds any one bucket holds.
fn coarse_index(uppers: &[u32]) -> (Vec<u32>, u32) {
    let mut coarse = Vec::with_capacity(N_BUCKETS + 1);
    let (mut probe_len, mut run, mut run_bucket) = (0u32, 0u32, usize::MAX);
    for (r, &u) in uppers.iter().enumerate() {
        // The buckets not yet filled, up to `u`'s own, start above every
        // earlier bound and at or below `u`: they count exactly `r`.
        let bucket = (u >> COARSE_SHIFT) as usize;
        if coarse.len() <= bucket {
            coarse.resize(bucket + 1, r as u32);
        }
        run = if bucket == run_bucket { run + 1 } else { 1 };
        run_bucket = bucket;
        probe_len = probe_len.max(run);
    }
    coarse.resize(N_BUCKETS + 1, uppers.len() as u32);
    (coarse, probe_len)
}

/// A per-scale fake-quantization codec: maps any f32 to
/// `(fmt.quantize(f64::from(x) / scale) * scale) as f32` bit-exactly,
/// without touching `f64` on the hot path.
#[derive(Debug, Clone)]
pub struct QuantLut {
    /// Ascending upper bit-bounds (inclusive) of the positive-magnitude
    /// regions; the last entry is always `f32::MAX`'s bit pattern.
    uppers: Vec<u32>,
    /// Prescaled `[positive, negative]` output per region, parallel to
    /// `uppers`; indexed by the input's sign bit so the sign selection is
    /// a load, not a (randomly taken) branch.
    out_pairs: Vec<[f32; 2]>,
    /// `coarse[b]` = first region index whose upper bound reaches the
    /// magnitudes in bucket `b` (top [`COARSE_SHIFT`]-shifted bits, i.e.
    /// one sixteenth of a binade) — narrows the search to a handful of
    /// regions.
    coarse: Vec<u32>,
    /// Maximum regions any single bucket spans: the fixed trip count of
    /// the branchless probe loop in [`QuantLut::map`].
    probe_len: u32,
    zero_pos: f32,
    zero_neg: f32,
    inf_pos: f32,
    inf_neg: f32,
    nan_out: f32,
}

impl QuantLut {
    /// Whether a LUT can represent this scale exactly. Degenerate scales
    /// (non-positive, non-finite, or so small that `x / scale` overflows
    /// for in-range f32 inputs) must use the scalar path.
    #[must_use]
    pub fn supports(scale: f64) -> bool {
        scale > 0.0 && scale.is_finite() && (f64::from(f32::MAX) / scale).is_finite()
    }

    /// Builds the codec for one scale, or `None` when
    /// [`QuantLut::supports`] rejects the scale.
    #[must_use]
    pub fn build(spec: &QuantSpec, scale: f64) -> Option<Self> {
        if !Self::supports(scale) {
            return None;
        }
        let emit = |v: f64| (v * scale) as f32;
        let mut uppers: Vec<u32> = Vec::with_capacity(spec.cuts.len() + 2);
        let mut outs: Vec<f32> = Vec::with_capacity(spec.cuts.len() + 2);
        let mut outs_neg: Vec<f32> = Vec::with_capacity(spec.cuts.len() + 2);
        let mut prev = 0u32;
        // Huge scales underflow `x / scale` to exactly ±0.0 for small
        // magnitudes; `encode` treats an exact zero as the zero class, not
        // as an underflowing nonzero, so that bit range needs the zero
        // outputs rather than the first region's.
        let under = max_bits_where(scale, 1, |m| m == 0.0);
        if under > 0 {
            push_region(
                &mut uppers,
                &mut outs,
                &mut outs_neg,
                under,
                emit(spec.q_zero_pos),
                emit(spec.q_zero_neg),
            );
            prev = under;
        }
        for (i, &cut) in spec.cuts.iter().enumerate() {
            // Largest f32 whose unscaled preimage stays strictly below the
            // cut — found with the scalar path's own division, so the
            // boundary is exact by construction. The search starts where
            // the cut's closed-form image lands.
            let seed = ((cut * scale) as f32).to_bits();
            let below = max_bits_where(scale, seed, |m| m < cut);
            if below > prev {
                push_region(
                    &mut uppers,
                    &mut outs,
                    &mut outs_neg,
                    below,
                    emit(spec.region_outs[i]),
                    emit(spec.region_outs_neg[i]),
                );
                prev = below;
            }
            // Inputs dividing exactly onto the cut take the tie output.
            if below < MAX_MAG_BITS && f64::from(f32::from_bits(below + 1)) / scale == cut {
                let at = max_bits_where(scale, below + 1, |m| m <= cut);
                push_region(
                    &mut uppers,
                    &mut outs,
                    &mut outs_neg,
                    at,
                    emit(spec.tie_outs[i]),
                    emit(spec.tie_outs_neg[i]),
                );
                prev = at;
            }
        }
        if prev < MAX_MAG_BITS || uppers.is_empty() {
            let sat = *spec.region_outs.last().expect("non-empty regions");
            let sat_neg = *spec.region_outs_neg.last().expect("non-empty regions");
            push_region(
                &mut uppers,
                &mut outs,
                &mut outs_neg,
                MAX_MAG_BITS,
                emit(sat),
                emit(sat_neg),
            );
        }
        let (coarse, probe_len) = coarse_index(&uppers);
        let out_pairs = outs.iter().zip(&outs_neg).map(|(&p, &n)| [p, n]).collect();
        Some(Self {
            uppers,
            out_pairs,
            coarse,
            probe_len,
            zero_pos: emit(spec.q_zero_pos),
            zero_neg: emit(spec.q_zero_neg),
            inf_pos: emit(spec.q_inf_pos),
            inf_neg: emit(spec.q_inf_neg),
            nan_out: emit(spec.q_nan),
        })
    }

    /// The codec for fake-quantizing `len` elements of `fmt` at `scale`,
    /// built from the format's memoized [`Format::quant_spec`]; `None`
    /// below [`LUT_MIN_LEN`] elements and for scales
    /// [`QuantLut::supports`] rejects, where callers run
    /// [`quantize_slice_scalar`] instead. The only LUT-or-scalar decision:
    /// every slice quantizer goes through it.
    #[must_use]
    pub fn for_slice<F: Format + ?Sized>(fmt: &F, len: usize, scale: f64) -> Option<Self> {
        if len < LUT_MIN_LEN || !Self::supports(scale) {
            return None;
        }
        Self::build(&fmt.quant_spec(), scale)
    }

    /// Fake-quantizes one value.
    #[inline]
    #[must_use]
    pub fn map(&self, x: f32) -> f32 {
        let bits = x.to_bits();
        let mag = bits & 0x7fff_ffff;
        // Finite non-zero fast path: mag ∈ [1, f32::MAX bits].
        if mag.wrapping_sub(1) < MAX_MAG_BITS {
            let b = (mag >> COARSE_SHIFT) as usize;
            let lo = self.coarse[b] as usize;
            let idx = if self.probe_len <= PROBE_CUTOFF {
                // Branchless bounded probe: once `uppers[idx] >= mag` the
                // increment predicate stays false, so `idx` parks on the
                // answer and never walks past the last region.
                let mut idx = lo;
                for _ in 0..self.probe_len {
                    idx += usize::from(self.uppers[idx] < mag);
                }
                idx
            } else {
                // Crowded buckets (extreme scales): binary search.
                let hi = self.coarse[b + 1] as usize;
                lo + self.uppers[lo..hi].partition_point(|&u| u < mag)
            };
            return self.out_pairs[idx][(bits >> 31) as usize];
        }
        if mag == 0 {
            if bits == 0 {
                self.zero_pos
            } else {
                self.zero_neg
            }
        } else if mag > 0x7f80_0000 {
            self.nan_out
        } else if bits & 0x8000_0000 == 0 {
            self.inf_pos
        } else {
            self.inf_neg
        }
    }

    /// Fake-quantizes a slice in place, dispatching to the best SIMD
    /// tier the process selected (see [`crate::simd`]). Bit-identical to
    /// mapping each element through [`QuantLut::map`] for every tier.
    pub fn apply(&self, xs: &mut [f32]) {
        self.apply_with_level(crate::simd::simd_level(), xs);
    }

    /// [`QuantLut::apply`] with an explicit SIMD tier — the differential-
    /// testing entry point (`quant_slice_props` sweeps every tier in
    /// [`crate::simd::available_levels`]). Tiers above what the host
    /// supports must not be passed; production code uses [`QuantLut::apply`].
    pub fn apply_with_level(&self, level: crate::simd::SimdLevel, xs: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if level >= crate::simd::SimdLevel::Avx2 && self.probe_len <= PROBE_CUTOFF {
            // SAFETY: `level >= Avx2` only occurs when runtime detection
            // confirmed AVX2 (tiers are clamped to the host in `simd`,
            // and `apply_with_level` callers sweep `available_levels`).
            unsafe { self.apply_avx2(xs) };
            return;
        }
        let _ = level;
        for x in xs {
            *x = self.map(*x);
        }
    }

    /// AVX2 slice kernel: eight lanes of the [`QuantLut::map`] fast path —
    /// mask sign, bucket by `mag >> COARSE_SHIFT`, run the same bounded
    /// probe with gathered `uppers`, then gather the prescaled outputs.
    /// Per lane every comparison and index update is exactly the scalar
    /// one, so the result is bit-identical by construction; lanes outside
    /// the finite-nonzero fast path (zeros in-vector, ±∞/NaN via a scalar
    /// fixup) take the same special-value table the scalar path reads.
    ///
    /// Gathers are masked to the fast lanes: a NaN magnitude shifted by
    /// [`COARSE_SHIFT`] would index past `coarse`, so masked-off lanes
    /// must not touch memory. Signed compares are safe throughout —
    /// magnitudes and table bounds all fit in 31 bits.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::cast_ptr_alignment)] // unaligned intrinsics only
    unsafe fn apply_avx2(&self, xs: &mut [f32]) {
        use std::arch::x86_64::{
            __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_andnot_si256, _mm256_blendv_ps,
            _mm256_castsi256_ps, _mm256_cmpeq_epi32, _mm256_cmpgt_epi32, _mm256_loadu_si256,
            _mm256_mask_i32gather_epi32, _mm256_mask_i32gather_ps, _mm256_movemask_ps,
            _mm256_or_si256, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps,
            _mm256_setzero_si256, _mm256_slli_epi32, _mm256_srli_epi32, _mm256_storeu_ps,
            _mm256_sub_epi32,
        };
        const LANES: usize = 8;
        let n = xs.len();
        let uppers = self.uppers.as_ptr().cast::<i32>();
        let coarse = self.coarse.as_ptr().cast::<i32>();
        let pairs = self.out_pairs.as_ptr().cast::<f32>();
        let mag_mask = _mm256_set1_epi32(0x7fff_ffff);
        let max_mag = _mm256_set1_epi32(MAX_MAG_BITS as i32);
        let zero = _mm256_setzero_si256();
        let zero_pos = _mm256_set1_ps(self.zero_pos);
        let zero_neg = _mm256_set1_ps(self.zero_neg);
        let mut i = 0usize;
        while i + LANES <= n {
            let v = _mm256_loadu_si256(xs.as_ptr().add(i).cast::<__m256i>());
            let mag = _mm256_and_si256(v, mag_mask);
            // Fast lanes: 1 <= mag <= MAX_MAG_BITS (finite non-zero).
            let nonzero = _mm256_cmpgt_epi32(mag, zero);
            let fast = _mm256_andnot_si256(_mm256_cmpgt_epi32(mag, max_mag), nonzero);
            let bucket = _mm256_srli_epi32::<{ COARSE_SHIFT as i32 }>(mag);
            let mut idx = _mm256_mask_i32gather_epi32::<4>(zero, coarse, bucket, fast);
            // Bounded probe, identical per lane to the scalar loop: add 1
            // while `uppers[idx] < mag`; the predicate parks, so `idx`
            // never leaves the table for fast lanes (masked lanes never
            // gather and their idx is never used).
            for _ in 0..self.probe_len {
                let u = _mm256_mask_i32gather_epi32::<4>(zero, uppers, idx, fast);
                idx = _mm256_sub_epi32(idx, _mm256_and_si256(_mm256_cmpgt_epi32(mag, u), fast));
            }
            let sign = _mm256_srli_epi32::<31>(v);
            let flat = _mm256_add_epi32(_mm256_slli_epi32::<1>(idx), sign);
            let fast_out = _mm256_mask_i32gather_ps::<4>(
                _mm256_setzero_ps(),
                pairs,
                flat,
                _mm256_castsi256_ps(fast),
            );
            // ±0.0 lanes in-vector: select by sign bit (the top bit of
            // each f32 lane of `v` is exactly what blendv keys on).
            let zeros = _mm256_cmpeq_epi32(mag, zero);
            let zero_out = _mm256_blendv_ps(zero_pos, zero_neg, _mm256_castsi256_ps(v));
            let out = _mm256_blendv_ps(fast_out, zero_out, _mm256_castsi256_ps(zeros));
            // ±∞ / NaN lanes (rare) go through the scalar map after the
            // vector store, reading the staged original values.
            let special = _mm256_andnot_si256(_mm256_or_si256(fast, zeros), _mm256_set1_epi32(-1));
            let special_bits = _mm256_movemask_ps(_mm256_castsi256_ps(special));
            if special_bits == 0 {
                _mm256_storeu_ps(xs.as_mut_ptr().add(i), out);
            } else {
                let mut orig = [0.0f32; LANES];
                _mm256_storeu_ps(orig.as_mut_ptr(), _mm256_castsi256_ps(v));
                _mm256_storeu_ps(xs.as_mut_ptr().add(i), out);
                for (j, &x) in orig.iter().enumerate() {
                    if special_bits & (1 << j) != 0 {
                        xs[i + j] = self.map(x);
                    }
                }
            }
            i += LANES;
        }
        for x in &mut xs[i..] {
            *x = self.map(*x);
        }
    }

    /// Number of regions in the positive-magnitude table.
    #[must_use]
    pub fn num_regions(&self) -> usize {
        self.uppers.len()
    }

    /// Most regions any coarse bucket spans — the probe trip count.
    /// Above the probe cutoff (8) the lookup switches to binary search
    /// and [`QuantLut::apply`] stays scalar; exposed so tests can assert
    /// both lookup regimes are actually covered.
    #[must_use]
    pub fn probe_len(&self) -> u32 {
        self.probe_len
    }
}

/// The reference per-element fake-quantization loop — the semantics every
/// batched path must reproduce bit for bit, and the path slice quantizers
/// take wherever [`QuantLut::for_slice`] returns `None`.
pub fn quantize_slice_scalar<F: Format + ?Sized>(fmt: &F, xs: &mut [f32], scale: f64) {
    for x in xs {
        *x = (fmt.quantize(f64::from(*x) / scale) * scale) as f32;
    }
}

/// The scale anchor: the largest lattice magnitude inside the *highest*
/// binade that still carries the format's maximal effective fraction bits
/// (the top of the precision plateau; see `mersit-ptq`'s scaling docs).
fn compute_scale_anchor<F: Format + ?Sized>(fmt: &F) -> f64 {
    let profile = PrecisionProfile::of(fmt);
    let best = profile.max_frac_bits();
    let top_exp = profile
        .binades
        .iter()
        .filter(|b| b.frac_bits == best)
        .map(|b| b.exp)
        .max()
        .expect("non-empty profile");
    let mut anchor = 0.0f64;
    for code in fmt.codes() {
        let code = code as u16;
        if fmt.classify(code) != ValueClass::Finite {
            continue;
        }
        let v = fmt.decode(code);
        if v > 0.0 && (v.log2().floor() as i32) == top_exp && v > anchor {
            anchor = v;
        }
    }
    anchor
}

/// Per-instance memoization of a format's derived constants: the
/// [`QuantSpec`] and the scale anchor.
///
/// Every format embeds one and returns it from [`Format::caches`]; the
/// provided [`Format::quant_spec`] and [`Format::scale_anchor`] read
/// through it. Cloning a format shares the already-computed artifacts.
#[derive(Debug, Clone, Default)]
pub struct FormatCaches {
    spec: OnceLock<Arc<QuantSpec>>,
    anchor: OnceLock<f64>,
}

impl FormatCaches {
    /// An empty cache; every artifact is computed on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized [`QuantSpec`] of `fmt`, the format owning this cache.
    pub(crate) fn spec<F: Format + ?Sized>(&self, fmt: &F) -> Arc<QuantSpec> {
        Arc::clone(self.spec.get_or_init(|| Arc::new(QuantSpec::of(fmt))))
    }

    /// The memoized scale anchor of `fmt`, the format owning this cache.
    pub(crate) fn anchor<F: Format + ?Sized>(&self, fmt: &F) -> f64 {
        *self.anchor.get_or_init(|| compute_scale_anchor(fmt))
    }
}

/// The pre-seeding build, kept as the test oracle of [`QuantLut::build`].
#[cfg(test)]
pub(crate) mod reference {
    use super::{push_region, QuantLut, QuantSpec, COARSE_SHIFT, MAX_MAG_BITS, N_BUCKETS};

    /// [`super::max_bits_where`] as a full bisection over `[1, MAX_MAG_BITS]`.
    fn max_bits_where(scale: f64, pred: impl Fn(f64) -> bool) -> u32 {
        let holds = |bits: u32| pred(f64::from(f32::from_bits(bits)) / scale);
        if !holds(1) {
            return 0;
        }
        if holds(MAX_MAG_BITS) {
            return MAX_MAG_BITS;
        }
        let (mut lo, mut hi) = (1u32, MAX_MAG_BITS);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if holds(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// [`QuantLut::build`] with every cut bisected from scratch and the
    /// coarse index filled by one binary search per bucket.
    pub(crate) fn build(spec: &QuantSpec, scale: f64) -> Option<QuantLut> {
        if !QuantLut::supports(scale) {
            return None;
        }
        let emit = |v: f64| (v * scale) as f32;
        let (mut uppers, mut outs, mut outs_neg) = (Vec::new(), Vec::new(), Vec::new());
        let mut prev = 0u32;
        let under = max_bits_where(scale, |m| m == 0.0);
        if under > 0 {
            let (p, n) = (emit(spec.q_zero_pos), emit(spec.q_zero_neg));
            push_region(&mut uppers, &mut outs, &mut outs_neg, under, p, n);
            prev = under;
        }
        for (i, &cut) in spec.cuts.iter().enumerate() {
            let below = max_bits_where(scale, |m| m < cut);
            if below > prev {
                let (p, n) = (emit(spec.region_outs[i]), emit(spec.region_outs_neg[i]));
                push_region(&mut uppers, &mut outs, &mut outs_neg, below, p, n);
                prev = below;
            }
            if below < MAX_MAG_BITS && f64::from(f32::from_bits(below + 1)) / scale == cut {
                let at = max_bits_where(scale, |m| m <= cut);
                let (p, n) = (emit(spec.tie_outs[i]), emit(spec.tie_outs_neg[i]));
                push_region(&mut uppers, &mut outs, &mut outs_neg, at, p, n);
                prev = at;
            }
        }
        if prev < MAX_MAG_BITS || uppers.is_empty() {
            let sat = *spec.region_outs.last().expect("non-empty regions");
            let sat_neg = *spec.region_outs_neg.last().expect("non-empty regions");
            let (p, n) = (emit(sat), emit(sat_neg));
            push_region(&mut uppers, &mut outs, &mut outs_neg, MAX_MAG_BITS, p, n);
        }
        let coarse: Vec<u32> = (0..=N_BUCKETS as u32)
            .map(|b| uppers.partition_point(|&u| u < (b << COARSE_SHIFT)) as u32)
            .collect();
        let probe_len = coarse.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let out_pairs = outs.iter().zip(&outs_neg).map(|(&p, &n)| [p, n]).collect();
        Some(QuantLut {
            uppers,
            out_pairs,
            coarse,
            probe_len,
            zero_pos: emit(spec.q_zero_pos),
            zero_neg: emit(spec.q_zero_neg),
            inf_pos: emit(spec.q_inf_pos),
            inf_neg: emit(spec.q_inf_neg),
            nan_out: emit(spec.q_nan),
        })
    }

    /// The first field in which two codecs differ (outputs compared by
    /// bit pattern), or `None` when they are identical.
    pub(crate) fn first_difference(a: &QuantLut, b: &QuantLut) -> Option<&'static str> {
        let pair_bits = |l: &QuantLut| -> Vec<[u32; 2]> {
            l.out_pairs
                .iter()
                .map(|[p, n]| [p.to_bits(), n.to_bits()])
                .collect()
        };
        let specials = |l: &QuantLut| {
            [l.zero_pos, l.zero_neg, l.inf_pos, l.inf_neg, l.nan_out].map(f32::to_bits)
        };
        if a.uppers != b.uppers {
            Some("uppers")
        } else if pair_bits(a) != pair_bits(b) {
            Some("out_pairs")
        } else if a.coarse != b.coarse {
            Some("coarse")
        } else if a.probe_len != b.probe_len {
            Some("probe_len")
        } else if specials(a) != specials(b) {
            Some("special outputs")
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::table2_formats;
    use crate::{Fp8, Int8, Mersit, Posit};

    fn scalar_ref(fmt: &dyn Format, x: f32, scale: f64) -> f32 {
        (fmt.quantize(f64::from(x) / scale) * scale) as f32
    }

    /// Slice fake-quantization as production dispatches it: the LUT
    /// [`QuantLut::for_slice`] picks, else the scalar loop.
    fn quantize_slice(fmt: &dyn Format, xs: &mut [f32], scale: f64) {
        match QuantLut::for_slice(fmt, xs.len(), scale) {
            Some(lut) => lut.apply(xs),
            None => quantize_slice_scalar(fmt, xs, scale),
        }
    }

    /// Probes the LUT against the scalar reference on every structurally
    /// interesting input: cuts and lattice values mapped back into input
    /// space (± one ulp), specials, subnormals, and pseudo-random values.
    fn assert_bit_exact(fmt: &dyn Format, scale: f64) {
        let spec = QuantSpec::of(fmt);
        let lut = QuantLut::build(&spec, scale).expect("supported scale");
        let mut probes: Vec<f32> = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0xffc0_0001), // negative NaN with payload
            f32::from_bits(0x7f80_0001), // signalling-style NaN
            f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest subnormal
            f32::MAX,
            -f32::MAX,
        ];
        for &c in spec.cuts.iter().chain(spec.region_outs.iter()) {
            let y = (c * scale) as f32;
            if y.is_finite() {
                for d in [y, y.next_up(), y.next_down()] {
                    probes.push(d);
                    probes.push(-d);
                }
            }
        }
        // Deterministic pseudo-random bit patterns (finite magnitudes).
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ scale.to_bits();
        for _ in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bits = (state >> 33) as u32;
            let mag = bits & 0x7fff_ffff;
            if mag <= MAX_MAG_BITS {
                probes.push(f32::from_bits(bits));
            }
        }
        for x in probes {
            let got = lut.map(x);
            let want = scalar_ref(fmt, x, scale);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{} scale={scale} x={x:?} ({:#010x}): lut {got:?} vs scalar {want:?}",
                fmt.name(),
                x.to_bits(),
            );
        }
    }

    #[test]
    fn lut_matches_scalar_for_all_table2_formats() {
        for fmt in table2_formats() {
            for scale in [1.0, 0.0378, 1.0 / 127.0, 3.7e-5, 128.0] {
                assert_bit_exact(fmt.as_ref(), scale);
            }
        }
    }

    #[test]
    fn lut_matches_scalar_on_awkward_scales() {
        let m = Mersit::new(8, 2).unwrap();
        for scale in [
            f64::from(1.0f32.next_down()),
            1e30,
            1e-30,
            f64::from(f32::MIN_POSITIVE),
        ] {
            if QuantLut::supports(scale) {
                assert_bit_exact(&m, scale);
            }
        }
    }

    #[test]
    fn degenerate_scales_are_rejected() {
        let m = Mersit::new(8, 2).unwrap();
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-300] {
            assert!(!QuantLut::supports(scale), "scale {scale} must fall back");
            assert!(QuantLut::for_slice(&m, LUT_MIN_LEN, scale).is_none());
        }
        // Slice quantization still works on them via the scalar fallback.
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-300] {
            let mut xs = vec![1.0f32; 4];
            let mut want = xs.clone();
            quantize_slice(&m, &mut xs, scale);
            quantize_slice_scalar(&m, &mut want, scale);
            let (a, b): (Vec<u32>, Vec<u32>) = (
                xs.iter().map(|v| v.to_bits()).collect(),
                want.iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(a, b, "scale {scale}");
        }
    }

    #[test]
    fn quantize_slice_long_path_is_bit_exact() {
        for fmt in [
            &Mersit::new(8, 3).unwrap() as &dyn Format,
            &Posit::new(8, 1).unwrap(),
            &Posit::standard(8, 2).unwrap(),
            &Fp8::new(5).unwrap(),
            &Int8::new(),
        ] {
            let mut xs: Vec<f32> = (0..4096)
                .map(|i| ((i as f32) - 2048.0) * 0.019_73)
                .collect();
            xs[7] = f32::NAN;
            xs[100] = f32::INFINITY;
            xs[200] = -0.0;
            let mut want = xs.clone();
            let scale = 0.031_4;
            quantize_slice(fmt, &mut xs, scale);
            quantize_slice_scalar(fmt, &mut want, scale);
            for (i, (a, b)) in xs.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{} elem {i}", fmt.name());
            }
        }
    }

    #[test]
    fn for_slice_takes_the_lut_from_lut_min_len_on() {
        for fmt in table2_formats() {
            let below = QuantLut::for_slice(fmt.as_ref(), LUT_MIN_LEN - 1, 0.037);
            let at = QuantLut::for_slice(fmt.as_ref(), LUT_MIN_LEN, 0.037);
            assert!(below.is_none() && at.is_some(), "{}", fmt.name());
        }
    }

    #[test]
    fn caches_memoize_and_survive_clone() {
        let m = Mersit::new(8, 2).unwrap();
        let s1 = m.quant_spec();
        let s2 = m.quant_spec();
        assert!(Arc::ptr_eq(&s1, &s2), "spec must be memoized");
        assert_eq!(m.scale_anchor(), 7.75);
        let cloned = m.clone();
        assert!(
            Arc::ptr_eq(&s1, &cloned.quant_spec()),
            "clone shares cached artifacts"
        );
    }

    #[test]
    fn anchors_match_known_values() {
        assert_eq!(Int8::new().scale_anchor(), 127.0);
        let f = Fp8::new(4).unwrap();
        assert_eq!(f.scale_anchor(), f.max_finite());
        assert!((Posit::new(8, 1).unwrap().scale_anchor() - 3.875).abs() < 1e-12);
        assert!((Mersit::new(8, 2).unwrap().scale_anchor() - 7.75).abs() < 1e-12);
    }

    #[test]
    fn huge_scale_underflow_keeps_zero_sign_semantics() {
        // With scale 4e307, x/scale underflows to exactly ±0.0 for small
        // |x|; encode's zero class then yields +0.0 for both signs under
        // FP8 (whereas a nonzero underflow yields −0.0 for negatives).
        let f = Fp8::new(2).unwrap();
        let scale = 4e307;
        let lut = QuantLut::build(&f.quant_spec(), scale).unwrap();
        for x in [3.3e-34f32, -3.3e-34, 1e-30, -1e-30, f32::MIN_POSITIVE] {
            let want = (f.quantize(f64::from(x) / scale) * scale) as f32;
            assert_eq!(
                lut.map(x).to_bits(),
                want.to_bits(),
                "x={x:e}: lut {:e} vs scalar {want:e}",
                lut.map(x)
            );
        }
    }

    #[test]
    fn lut_is_compact() {
        // Region merging keeps the table near the lattice size, and the
        // coarse index has one entry per bucket plus a terminator.
        let m = Mersit::new(8, 2).unwrap();
        let lut = QuantLut::build(&m.quant_spec(), 1.0).unwrap();
        assert!(lut.num_regions() <= 2 * m.quant_spec().num_cuts() + 2);
        assert_eq!(lut.coarse.len(), N_BUCKETS + 1);
        assert_eq!(*lut.uppers.last().unwrap(), MAX_MAG_BITS);
        // An ordinary scale keeps every bucket sparse enough for the
        // branchless probe loop.
        assert!(lut.probe_len <= PROBE_CUTOFF, "probe_len {}", lut.probe_len);
    }
}
