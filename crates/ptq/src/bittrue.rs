//! Bit-true quantized execution: GEMMs computed on raw 8-bit codes with
//! exact Kulisch accumulation — the software twin of the paper's MAC
//! datapath (Fig. 2), wired into [`crate::executor::QuantPlan`] as
//! [`Executor::BitTrue`].
//!
//! # How a bit-true GEMM runs
//!
//! 1. **Weights** are encoded once per plan: each output channel's
//!    original FP32 weights are scaled by the *same* per-channel scale the
//!    float executor uses and rounded to codes with `Format::encode` — so
//!    the code matrix corresponds element for element to the float path's
//!    fake-quantized weights. Each engine is built for **one layer's**
//!    format as resolved by the plan's [`crate::FormatAssignment`] —
//!    under a mixed assignment, every layer's codes, row scales and
//!    `FixTable` follow its own format; under a uniform one this
//!    degenerates to the historical one-format-per-plan build.
//! 2. **Activations** are encoded per call with a dynamic **per-row**
//!    scale (from `max|row|`); codes cannot be carried across the
//!    nonlinear layers between GEMMs, so each GEMM re-enters code space
//!    at its input. Rows are sample-local for every GEMM the engine sees
//!    (Linear flattens each sample to one row; im2col rows come from one
//!    sample's patches), so a row's codes — and therefore its outputs —
//!    never depend on its batch-mates. This is what makes batched
//!    inference bit-identical to single-sample inference (the serving
//!    layer's coalescing invariant), and it mirrors per-vector requant
//!    granularity in hardware. Weight and row scales alike come from
//!    [`crate::site_scale`]`(anchor, max)`, or 1.0 for all-zero data: the
//!    one rule `quantize_per_channel` and the plan's sites use too. On
//!    the fixed-point path one pass on the pool goes straight from `f32`
//!    to fixed point, row by row: `table.fix(encode(x / s_a[row]))`, the
//!    quotient taken in f64 as before (no reciprocal), with no code
//!    buffer in between.
//! 3. The product runs **entirely on integers**: every code maps through
//!    a per-format fixed-point table (`mersit-core::fixpoint::FixTable`),
//!    products are exact `i128`s, and each dot product is reduced with a
//!    single two's-complement wrap at the hardware accumulator width —
//!    bit-identical to `mersit-hw::GoldenMac` fed the same codes (pinned
//!    by `tests/bittrue_golden.rs`). The integer GEMM splits its output
//!    rows across the pool.
//! 4. A **single rounding** happens at the output: the wrapped
//!    accumulator is scaled by `2^lsb_exp · s_a · s_w[channel]` and cast
//!    to f32, in a pass split by output rows. Biases and every non-GEMM
//!    layer stay on the float path, mirroring hardware accelerators that
//!    keep a high-precision epilogue.
//!
//! Every row has its own scale and every output its own accumulator, so
//! splitting steps 2–4 by rows never moves a bit: the output is the same
//! at every thread count (pinned by `tests/bittrue_threads.rs`).
//!
//! Formats whose operands exceed an `i64` fixed point (Posit(8,3)) fall
//! back to a 256-bit wide accumulator ([`WideAcc`]) over explicit
//! (sign, significand, shift) triples — same semantics, no `i64` table.
//!
//! # Observability
//!
//! * `ptq.bittrue.gemm` spans time every engine GEMM. On the fixed-point
//!   path three sub-spans, taken on the calling thread, split it:
//!   - `ptq.bittrue.encode`: the row scales and the encode-to-fixed-point
//!     pass (step 2);
//!   - `ptq.bittrue.qgemm`: the integer GEMM (step 3);
//!   - `ptq.bittrue.epilogue`: the wrap, scale and cast (step 4).
//! * `ptq.bittrue.macs` counts accumulated products.
//! * `ptq.bittrue.wide_path` counts GEMMs taking the wide fallback, which
//!   runs on the calling thread and has no sub-spans.

use crate::quantizer::{channel_max_abs, site_scale};
use mersit_core::fixpoint::{v_ovf_for, wrap_i128, FixTable};
use mersit_core::{Format, FormatRef, MacParams, ValueClass};
use mersit_nn::BitTrueGemm;
use mersit_tensor::qgemm::{qgemm_rows_par, PackedCodeRhs};
use mersit_tensor::{par, Tensor};
use std::sync::Arc;

/// Which execution engine a [`crate::executor::QuantPlan`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Executor {
    /// Fake-quantization: codes are decoded back to f32 and the GEMMs run
    /// in floating point (the paper's accuracy-evaluation methodology).
    #[default]
    Float,
    /// Bit-true: GEMMs run on raw codes with exact integer Kulisch
    /// accumulation, reproducing the hardware datapath bit for bit.
    BitTrue,
}

impl Executor {
    /// Parses an executor name: `float` (default) or `bittrue`
    /// (also accepted: `bit-true`, `bit_true`), case-insensitive.
    /// Unrecognized values fall back to [`Executor::Float`].
    #[must_use]
    pub fn parse(s: &str) -> Self {
        match s.trim().to_ascii_lowercase().as_str() {
            "bittrue" | "bit-true" | "bit_true" => Executor::BitTrue,
            _ => Executor::Float,
        }
    }

    /// Reads the `MERSIT_EXECUTOR` environment variable
    /// ([`Executor::Float`] when unset).
    #[must_use]
    pub fn from_env() -> Self {
        std::env::var("MERSIT_EXECUTOR")
            .map(|v| Self::parse(&v))
            .unwrap_or_default()
    }
}

impl std::fmt::Display for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Executor::Float => "float",
            Executor::BitTrue => "bittrue",
        })
    }
}

/// Scalar bit-true dot product: the engine's reference semantics, and the
/// exact target the `mersit-hw` golden MAC is differenced against. Maps
/// each code pair through the fixed-point table, accumulates the raw
/// `i128` products, and wraps once to `acc_width` bits — equal to
/// `GoldenMac`'s per-step-wrapped accumulator because wrapping is a ring
/// homomorphism and the raw sum cannot overflow `i128` (caller upholds
/// `table.raw_sum_fits_i128(len)`).
///
/// # Panics
///
/// Panics if the code slices differ in length or `acc_width ≥ 128`.
#[must_use]
pub fn dot_bit_true(table: &FixTable, w_codes: &[u16], a_codes: &[u16], acc_width: usize) -> i128 {
    assert_eq!(w_codes.len(), a_codes.len(), "dot operand length mismatch");
    let mut acc = 0i128;
    for (&wc, &ac) in w_codes.iter().zip(a_codes) {
        acc += i128::from(table.fix(wc)) * i128::from(table.fix(ac));
    }
    wrap_i128(acc, acc_width)
}

/// One weight operand of the wide fallback path: sign, raw significand,
/// and the alignment shift `exp_eff − e_min` (zero significand for
/// non-finite codes — they contribute nothing, like the hardware gate).
#[derive(Debug, Clone, Copy, Default)]
struct WideOperand {
    sig: u64,
    shift: u32,
    neg: bool,
}

/// A 256-bit two's-complement Kulisch accumulator for formats whose
/// fixed-point operands exceed `i64` (Posit(8,3) spans ~2^99 alone).
/// Additions wrap modulo 2^256; the final reduction to the hardware
/// accumulator width is therefore still exact for any width ≤ 255,
/// because `2^width` divides `2^256`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WideAcc {
    limbs: [u64; 4],
}

impl WideAcc {
    /// Adds `±(mag << shift)` into the accumulator. `mag` must fit 64
    /// bits (code-pair significand products are ≤ 2·8 bits wide).
    pub fn add_product(&mut self, mag: u64, shift: u32, negative: bool) {
        let mut v = spread(mag, shift);
        if negative {
            v = neg256(v);
        }
        add256(&mut self.limbs, v);
    }

    /// The accumulator wrapped to `width`-bit two's complement, as an
    /// `i128` (requires `width < 128`; used by tests to diff against the
    /// `i128` fast path).
    ///
    /// # Panics
    ///
    /// Panics when `width ≥ 128`.
    #[must_use]
    pub fn wrapped_i128(&self, width: usize) -> i128 {
        assert!(width < 128, "wrapped_i128 requires width < 128");
        let raw = u128::from(self.limbs[0]) | (u128::from(self.limbs[1]) << 64);
        let low = raw & ((1u128 << width) - 1);
        if low >> (width - 1) & 1 == 1 {
            low.wrapping_sub(1u128 << width) as i128
        } else {
            low as i128
        }
    }

    /// The accumulator wrapped to `width`-bit two's complement, rounded
    /// to `f64` (the engine's single output rounding).
    ///
    /// # Panics
    ///
    /// Panics when `width > 255`.
    #[must_use]
    pub fn wrapped_f64(&self, width: usize) -> f64 {
        assert!(width <= 255, "accumulator width exceeds 256-bit storage");
        let mut v = self.limbs;
        // Mask off bits at and above `width`.
        let (q, r) = (width / 64, width % 64);
        if q < 4 {
            if r > 0 {
                v[q] &= (1u64 << r) - 1;
                for limb in v.iter_mut().skip(q + 1) {
                    *limb = 0;
                }
            } else {
                for limb in v.iter_mut().skip(q) {
                    *limb = 0;
                }
            }
        }
        // Sign bit at position width − 1.
        let sq = (width - 1) / 64;
        let sr = (width - 1) % 64;
        let negative = v[sq] >> sr & 1 == 1;
        if negative {
            // Magnitude of the (masked) two's-complement value:
            // 2^width − v.
            v = neg256(v);
            let (q, r) = (width / 64, width % 64);
            if q < 4 {
                if r > 0 {
                    v[q] &= (1u64 << r) - 1;
                }
                for limb in v.iter_mut().skip(q + usize::from(r > 0)) {
                    *limb = 0;
                }
            }
            -limbs_to_f64(&v)
        } else {
            limbs_to_f64(&v)
        }
    }
}

/// Positions `mag` at bit offset `shift` in a 256-bit word (bits past
/// 255 are dropped — consistent with the mod-2^256 accumulator).
fn spread(mag: u64, shift: u32) -> [u64; 4] {
    let q = (shift / 64) as usize;
    let r = shift % 64;
    let wide = u128::from(mag) << r;
    let mut out = [0u64; 4];
    if q < 4 {
        out[q] = wide as u64;
        if q + 1 < 4 {
            out[q + 1] = (wide >> 64) as u64;
        }
    }
    out
}

/// `a += b` over 256 bits, wrapping.
fn add256(a: &mut [u64; 4], b: [u64; 4]) {
    let mut carry = false;
    for (x, y) in a.iter_mut().zip(b) {
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(u64::from(carry));
        *x = s2;
        carry = c1 || c2;
    }
}

/// Two's-complement negation over 256 bits.
fn neg256(v: [u64; 4]) -> [u64; 4] {
    let mut out = v.map(|x| !x);
    let one = [1u64, 0, 0, 0];
    add256(&mut out, one);
    out
}

/// `Σ limb_i · 2^(64·i)` rounded to f64.
fn limbs_to_f64(v: &[u64; 4]) -> f64 {
    let mut out = 0.0f64;
    for (i, &limb) in v.iter().enumerate() {
        if limb != 0 {
            out += limb as f64 * 2f64.powi(64 * i as i32);
        }
    }
    out
}

/// How the engine multiplies: an `i64` fixed-point table with packed
/// integer panels, or explicit decoded triples with the 256-bit
/// accumulator.
#[derive(Debug)]
enum EnginePath {
    /// Fast path: table lookups + packed `i128`-accumulating GEMM.
    Fix {
        table: Arc<FixTable>,
        packed: PackedCodeRhs,
    },
    /// Wide fallback: weight operand triples, row-major `[n, k]`.
    Wide { weights: Vec<WideOperand> },
}

/// A bit-true GEMM engine for one (format, weight tensor) pair: owns the
/// encoded weight codes in multiply-ready form and computes
/// `[rows, k] → [rows, n]` products with exact Kulisch accumulation.
/// Implements [`mersit_nn::BitTrueGemm`], so a
/// [`crate::executor::QuantPlan`] slots it into Linear / Conv2d forwards.
#[derive(Debug)]
pub struct QuantGemm {
    fmt: FormatRef,
    /// Per-output-channel weight scales — identical to the float
    /// executor's `quantize_per_channel` scales.
    col_scales: Vec<f64>,
    k: usize,
    n: usize,
    /// Hardware accumulator width for `k`-term dot products.
    acc_width: usize,
    /// `2^lsb_exp` converts a wrapped accumulator to the product of two
    /// *unscaled* format values.
    lsb_exp: i32,
    path: EnginePath,
}

impl QuantGemm {
    /// Builds the engine from the **original FP32** weight tensor
    /// (`[out, in]`): per-channel scales are derived exactly as the float
    /// executor derives them, each element is rounded to its code, and
    /// codes are laid out for the multiply path the format supports.
    ///
    /// # Panics
    ///
    /// Panics unless `w` is rank 2.
    #[must_use]
    pub fn build(fmt: FormatRef, w: &Tensor) -> Self {
        assert_eq!(w.shape().len(), 2, "bit-true GEMM weight must be rank 2");
        let (n, k) = (w.shape()[0], w.shape()[1]);
        let anchor = fmt.scale_anchor();
        // Same per-channel scale as `quantize_per_channel`: all-zero
        // channels get scale 1.0 (their codes are all zero anyway).
        let col_scales: Vec<f64> = channel_max_abs(w)
            .iter()
            .map(|&m| site_scale(anchor, m).unwrap_or(1.0))
            .collect();
        let f: &dyn Format = fmt.as_ref();
        let codes: Vec<u16> = w
            .data()
            .chunks_exact(k.max(1))
            .zip(&col_scales)
            .flat_map(|(row, &s)| row.iter().map(move |&x| f.encode(f64::from(x) / s)))
            .collect();
        let table = FixTable::build(fmt.as_ref());
        let v_ovf = v_ovf_for(k);
        // The i64-table path additionally needs the raw i128 sum and the
        // final wrap to stay inside i128 for this k.
        let fast = table
            .filter(|t| t.raw_sum_fits_i128(k) && t.acc_width(v_ovf) < 128)
            .map(Arc::new);
        if let Some(table) = fast {
            let fixes: Vec<i64> = codes.iter().map(|&c| table.fix(c)).collect();
            let packed = PackedCodeRhs::pack_t(&fixes, n, k);
            let acc_width = table.acc_width(v_ovf);
            let lsb_exp = table.lsb_exp();
            Self {
                fmt,
                col_scales,
                k,
                n,
                acc_width,
                lsb_exp,
                path: EnginePath::Fix { table, packed },
            }
        } else {
            let (params, sig_bits) = wide_spec(fmt.as_ref());
            let weights: Vec<WideOperand> = codes
                .iter()
                .map(|&c| wide_operand(fmt.as_ref(), &params, c))
                .collect();
            let max_bits = (params.e_max - params.e_min) as u32 + sig_bits;
            let acc_width = (2 * max_bits - 1 + v_ovf) as usize;
            let lsb_exp = 2 * (params.e_min - (sig_bits as i32 - 1));
            Self {
                fmt,
                col_scales,
                k,
                n,
                acc_width,
                lsb_exp,
                path: EnginePath::Wide { weights },
            }
        }
    }

    /// The format the engine multiplies in.
    #[must_use]
    pub fn format(&self) -> &dyn Format {
        self.fmt.as_ref()
    }

    /// Inner (reduction) dimension.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The hardware accumulator width used per dot product.
    #[must_use]
    pub fn acc_width(&self) -> usize {
        self.acc_width
    }

    /// Whether the engine took the 256-bit wide fallback.
    #[must_use]
    pub fn is_wide(&self) -> bool {
        matches!(self.path, EnginePath::Wide { .. })
    }

    /// The per-output-channel weight scales (float-executor identical).
    #[must_use]
    pub fn col_scales(&self) -> &[f64] {
        &self.col_scales
    }

    /// Dynamic per-row activation scales: [`site_scale`] of `max|row|` per
    /// rank-2 input row, or 1.0 for an all-zero (or empty) row. Each row's
    /// scale depends only on that row, so a sample's codes are independent
    /// of its batch-mates — the batching bit-identity invariant.
    ///
    /// # Panics
    ///
    /// Panics unless `x2` is rank 2.
    #[must_use]
    pub fn row_scales(&self, x2: &Tensor) -> Vec<f64> {
        assert_eq!(x2.shape().len(), 2, "row scales need a rank-2 input");
        let k = x2.shape()[1];
        let anchor = self.fmt.scale_anchor();
        x2.data()
            .chunks_exact(k.max(1))
            .map(|row| {
                let m = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                site_scale(anchor, m).unwrap_or(1.0)
            })
            .collect()
    }

    /// Encodes an activation tensor straight to fixed point, row `i`
    /// scaled by `s_a[i]`: `table.fix` of the codes [`Self::encode_codes`]
    /// would give, with the rows split across the pool. Each row reads
    /// only its own scale, so the split cannot move a bit.
    fn encode_fix(&self, table: &FixTable, x2: &Tensor, s_a: &[f64]) -> Vec<i64> {
        let k = x2.shape()[1].max(1);
        let mut fix = vec![0i64; x2.len()];
        // One element costs a virtual encode, an f64 division and a
        // table load: about 20 ns, or 200 elementary ops.
        par::par_chunks_mut(&mut fix, k, par::min_units(200 * k), |r0, chunk| {
            let xs = &x2.data()[r0 * k..r0 * k + chunk.len()];
            for ((frow, xrow), &s) in chunk
                .chunks_exact_mut(k)
                .zip(xs.chunks_exact(k))
                .zip(&s_a[r0..])
            {
                for (f, &x) in frow.iter_mut().zip(xrow) {
                    *f = table.fix(self.fmt.encode(f64::from(x) / s));
                }
            }
        });
        fix
    }

    /// Encodes an activation tensor to codes, row `i` scaled by `s_a[i]`.
    fn encode_codes(&self, x2: &Tensor, s_a: &[f64]) -> Vec<u16> {
        let k = x2.shape()[1];
        x2.data()
            .chunks_exact(k.max(1))
            .zip(s_a)
            .flat_map(|(row, &s)| row.iter().map(move |&x| self.fmt.encode(f64::from(x) / s)))
            .collect()
    }
}

/// MAC parameters plus the decoder's significand width (from any finite
/// code) — the sizing a wide-path engine needs when no [`FixTable`]
/// exists.
fn wide_spec(fmt: &dyn Format) -> (MacParams, u32) {
    let params = MacParams::of(fmt);
    let sig_bits = fmt
        .codes()
        .find_map(|c| fmt.fields(c as u16))
        .map_or(params.m, |d| d.sig_bits);
    (params, sig_bits)
}

/// Decodes one code into its wide-path operand (zero for non-finite).
fn wide_operand(fmt: &dyn Format, params: &MacParams, code: u16) -> WideOperand {
    if fmt.classify(code) != ValueClass::Finite {
        return WideOperand::default();
    }
    let d = fmt.fields(code).expect("finite code has fields");
    let shift = d.exp_eff - params.e_min;
    assert!(shift >= 0, "finite magnitude below min_positive");
    WideOperand {
        sig: u64::from(d.sig),
        shift: shift as u32,
        neg: d.sign,
    }
}

impl BitTrueGemm for QuantGemm {
    fn gemm(&self, x2: &Tensor) -> Tensor {
        let _span = mersit_obs::span("ptq.bittrue.gemm");
        assert_eq!(x2.shape().len(), 2, "bit-true GEMM input must be rank 2");
        let (rows, k) = (x2.shape()[0], x2.shape()[1]);
        assert_eq!(k, self.k, "bit-true GEMM inner dimension mismatch");
        mersit_obs::add("ptq.bittrue.macs", (rows * k * self.n) as u64);
        let mut out = vec![0.0f32; rows * self.n];
        match &self.path {
            EnginePath::Fix { table, packed } => {
                let (s_a, a_fix) = {
                    let _encode = mersit_obs::span("ptq.bittrue.encode");
                    let s_a = self.row_scales(x2);
                    let a_fix = self.encode_fix(table, x2, &s_a);
                    (s_a, a_fix)
                };
                let mut acc = vec![0i128; rows * self.n];
                {
                    let _qgemm = mersit_obs::span("ptq.bittrue.qgemm");
                    qgemm_rows_par(&a_fix, k, packed, &mut acc);
                }
                let _epilogue = mersit_obs::span("ptq.bittrue.epilogue");
                let lsb = 2f64.powi(self.lsb_exp);
                let n = self.n.max(1);
                // One output costs a wrap, an i128 → f64 conversion (a
                // library call) and three f64 multiplies: about 10 ns, or
                // 100 elementary ops.
                par::par_chunks_mut(&mut out, n, par::min_units(100 * n), |r0, chunk| {
                    let accs = &acc[r0 * n..r0 * n + chunk.len()];
                    for ((orow, arow), &s) in chunk
                        .chunks_exact_mut(n)
                        .zip(accs.chunks_exact(n))
                        .zip(&s_a[r0..])
                    {
                        for ((o, &a), &w) in orow.iter_mut().zip(arow).zip(&self.col_scales) {
                            *o = (wrap_i128(a, self.acc_width) as f64 * lsb * s * w) as f32;
                        }
                    }
                });
            }
            EnginePath::Wide { weights } => {
                mersit_obs::incr("ptq.bittrue.wide_path");
                let s_a = self.row_scales(x2);
                let a_codes = self.encode_codes(x2, &s_a);
                let a_ops: Vec<WideOperand> = {
                    let (params, _) = wide_spec(self.fmt.as_ref());
                    a_codes
                        .iter()
                        .map(|&c| wide_operand(self.fmt.as_ref(), &params, c))
                        .collect()
                };
                let lsb = 2f64.powi(self.lsb_exp);
                for i in 0..rows {
                    let arow = &a_ops[i * k..(i + 1) * k];
                    for j in 0..self.n {
                        let wrow = &weights[j * k..(j + 1) * k];
                        let mut acc = WideAcc::default();
                        for (wo, ao) in wrow.iter().zip(arow) {
                            if wo.sig == 0 || ao.sig == 0 {
                                continue;
                            }
                            acc.add_product(wo.sig * ao.sig, wo.shift + ao.shift, wo.neg ^ ao.neg);
                        }
                        out[i * self.n + j] =
                            (acc.wrapped_f64(self.acc_width) * lsb * s_a[i] * self.col_scales[j])
                                as f32;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[rows, self.n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mersit_core::parse_format;
    use mersit_tensor::Rng;

    #[test]
    fn executor_parsing() {
        assert_eq!(Executor::parse("bittrue"), Executor::BitTrue);
        assert_eq!(Executor::parse("Bit-True"), Executor::BitTrue);
        assert_eq!(Executor::parse("bit_true"), Executor::BitTrue);
        assert_eq!(Executor::parse("float"), Executor::Float);
        assert_eq!(Executor::parse("anything-else"), Executor::Float);
        assert_eq!(Executor::default(), Executor::Float);
        assert_eq!(Executor::BitTrue.to_string(), "bittrue");
    }

    #[test]
    fn engine_matches_scalar_reference() {
        // The packed engine's accumulators must equal dot_bit_true on the
        // same codes; check through the full f32 output pipeline.
        let fmt = parse_format("MERSIT(8,2)").unwrap();
        let mut rng = Rng::new(17);
        let w = Tensor::randn(&[7, 13], 1.0, &mut rng);
        let x = Tensor::randn(&[5, 13], 1.0, &mut rng);
        let eng = QuantGemm::build(fmt.clone(), &w);
        assert!(!eng.is_wide());
        let out = eng.gemm(&x);
        assert_eq!(out.shape(), &[5, 7]);

        let table = FixTable::build(fmt.as_ref()).unwrap();
        let s_a = eng.row_scales(&x);
        let f: &dyn Format = fmt.as_ref();
        let a_codes: Vec<u16> = x
            .data()
            .chunks_exact(13)
            .zip(&s_a)
            .flat_map(|(row, &s)| row.iter().map(move |&v| f.encode(f64::from(v) / s)))
            .collect();
        let w_codes: Vec<u16> = w
            .data()
            .chunks_exact(13)
            .zip(eng.col_scales())
            .flat_map(|(row, &s)| row.iter().map(move |&v| f.encode(f64::from(v) / s)))
            .collect();
        let lsb = 2f64.powi(table.lsb_exp());
        for i in 0..5 {
            for j in 0..7 {
                let acc = dot_bit_true(
                    &table,
                    &w_codes[j * 13..(j + 1) * 13],
                    &a_codes[i * 13..(i + 1) * 13],
                    eng.acc_width(),
                );
                let want = (acc as f64 * lsb * s_a[i] * eng.col_scales()[j]) as f32;
                assert_eq!(out.at(&[i, j]).to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn gemm_rows_independent_of_batchmates() {
        // The batching invariant at engine level: a row's output must be
        // bit-identical whether it runs alone or inside a larger batch —
        // for both the fixed-point and the wide path.
        let mut rng = Rng::new(31);
        for fmt_name in ["MERSIT(8,2)", "Posit(8,3)"] {
            let fmt = parse_format(fmt_name).unwrap();
            let w = Tensor::randn(&[5, 9], 1.0, &mut rng);
            let eng = QuantGemm::build(fmt, &w);
            // Rows with wildly different magnitudes, so a per-tensor scale
            // would visibly couple them.
            let mut data = Vec::new();
            for i in 0..4 {
                let scale = 10f32.powi(i - 2);
                data.extend((0..9).map(|_| rng.normal() as f32 * scale));
            }
            let x = Tensor::from_vec(data, &[4, 9]);
            let batched = eng.gemm(&x);
            for i in 0..4 {
                let single = eng.gemm(&x.slice_outer(i, i + 1));
                for j in 0..5 {
                    assert_eq!(
                        batched.at(&[i, j]).to_bits(),
                        single.at(&[0, j]).to_bits(),
                        "{fmt_name} row {i} col {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_path_runs_posit83() {
        let fmt = parse_format("Posit(8,3)").unwrap();
        let mut rng = Rng::new(19);
        let w = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let x = Tensor::randn(&[3, 6], 1.0, &mut rng);
        let eng = QuantGemm::build(fmt, &w);
        assert!(eng.is_wide());
        let out = eng.gemm(&x);
        assert_eq!(out.shape(), &[3, 4]);
        assert!(out.data().iter().all(|v| v.is_finite()));
        // A zero input must map to exact zeros (all codes zero).
        let z = Tensor::zeros(&[2, 6]);
        let zo = eng.gemm(&z);
        assert!(zo.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn wide_acc_matches_i128_for_narrow_widths() {
        let mut rng = Rng::new(23);
        for _ in 0..50 {
            let mut wide = WideAcc::default();
            let mut raw = 0i128;
            for _ in 0..20 {
                let mag = rng.next_u64() % (1 << 16);
                let shift = (rng.next_u64() % 90) as u32;
                let neg = rng.next_u64() & 1 == 1;
                wide.add_product(mag, shift, neg);
                let signed = (i128::from(mag)) << shift;
                raw += if neg { -signed } else { signed };
            }
            for width in [64, 100, 120, 127] {
                assert_eq!(
                    wide.wrapped_i128(width),
                    wrap_i128(raw, width),
                    "width {width}"
                );
                assert_eq!(
                    wide.wrapped_f64(width),
                    wrap_i128(raw, width) as f64,
                    "f64 width {width}"
                );
            }
        }
    }

    #[test]
    fn engine_output_tracks_float_gemm() {
        // Bit-true and float GEMMs quantize the same way, so on
        // well-scaled data they should agree to quantization error.
        let fmt = parse_format("MERSIT(8,2)").unwrap();
        let mut rng = Rng::new(29);
        let w = Tensor::randn(&[9, 24], 0.5, &mut rng);
        let x = Tensor::randn(&[6, 24], 1.0, &mut rng);
        let eng = QuantGemm::build(fmt, &w);
        let got = eng.gemm(&x);
        let want = x.matmul(&w.transpose());
        let denom = f64::from(want.max_abs()).max(1e-6);
        for (g, r) in got.data().iter().zip(want.data()) {
            let rel = (f64::from(g - r)).abs() / denom;
            assert!(rel < 0.2, "divergence {rel} (got {g}, want {r})");
        }
    }
}
