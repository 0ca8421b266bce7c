//! Explicit `std::arch` micro-kernels behind the process-wide SIMD tier.
//!
//! The scalar micro-kernels in [`crate::gemm`] / [`crate::qgemm`] stay
//! the always-compiled bit-identity reference; this module adds the
//! vector tiles [`crate::gemm::gemm_rows`] and
//! [`crate::qgemm::qgemm_rows`] dispatch to when
//! [`mersit_core::simd::simd_level`] (one-time detection, `MERSIT_SIMD`
//! kill-switch) allows. The ISA matrix:
//!
//! | kernel              | AVX-512F        | AVX2            | NEON  | scalar |
//! |---------------------|-----------------|-----------------|-------|--------|
//! | f32 GEMM tile       | 8×16 (1 zmm/row)| 6×16 (2 ymm/row)| 4×16  | 4×16   |
//! | qgemm integer tile  | AVX2 kernel     | 1×16 `vpmuldq`  | —     | 1×16   |
//! | `QuantLut` probe    | AVX2 kernel     | 8-lane gather   | —     | 1-lane |
//!
//! (The `QuantLut` kernel lives with its tables in
//! `mersit_core::quant_lut`; it shares the same tier selection.)
//!
//! # Bit-identity: multiply-then-add, never fused
//!
//! Every f32 kernel performs a **separate IEEE multiply and add per
//! element** (`_mm256_mul_ps` + `_mm256_add_ps` and friends), exactly the
//! two roundings of the scalar reference `acc[j] += av * b[j]`. A fused
//! FMA (`_mm256_fmadd_ps`) would round once and diverge from
//! [`crate::gemm::matmul_naive_rows`] in the last ulp — breaking the
//! golden logit digests (`plan_logits_match_golden_digests` in
//! `mersit-ptq`'s `executor.rs`) and the serving batcher's
//! batched-equals-single-sample licensing invariant (small m takes the
//! naive path, large m the packed path; they must agree bitwise). The
//! vector win comes from width (16-lane panels), register tiling, and
//! the panel layout — not from fusing. Per output element the `kk` order
//! is the scalar order: each k-block loads the current `out`, adds its
//! range ascending, stores back — lanes are independent columns.
//!
//! The integer qgemm is exact, so its only constraint is overflow: the
//! AVX2 tile multiplies 32-bit-bounded operands into 64-bit partial
//! products (`vpmuldq`) and accumulates them in i64 lanes within one
//! k-block — legal when `block·max|a|·max|b|` fits i64, checked per call
//! against the pack-time rhs magnitude bound — then spills through a
//! scalar i128 carry/accumulate seam, preserving exact Kulisch-width
//! semantics. Calls that exceed the bound fall back to the scalar i128
//! kernel, which is always exact.

use crate::gemm::{PackedRhs, KC};
use crate::qgemm::PackedCodeRhs;
pub use mersit_core::simd::SimdLevel;

pub use mersit_core::simd::{available_levels, detected_level, simd_level};

/// Publishes the selected tier once per process as the obs counter
/// `tensor.simd.isa` (value = tier discriminant: 0 scalar, 1 neon,
/// 2 avx2, 3 avx512), so perf artifacts record what produced them.
fn note_isa(level: SimdLevel) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static NOTED: AtomicBool = AtomicBool::new(false);
    if mersit_obs::enabled() && !NOTED.swap(true, Ordering::Relaxed) {
        mersit_obs::add("tensor.simd.isa", level as u64);
    }
}

/// Runs the f32 GEMM through a vector driver when `level` has one for
/// this architecture; returns `false` to fall back to the scalar
/// micro-kernels. Caller guarantees `n > 0`, `k > 0` and consistent
/// lengths (the `gemm_rows` debug asserts).
#[allow(unused_variables)] // non-SIMD architectures use no parameter
pub(crate) fn gemm_rows_simd(
    level: SimdLevel,
    a: &[f32],
    k: usize,
    packed: &PackedRhs,
    out: &mut [f32],
) -> bool {
    note_isa(level);
    #[cfg(target_arch = "x86_64")]
    {
        if level >= SimdLevel::Avx512 {
            // SAFETY: tiers are clamped to runtime-detected features.
            unsafe { x86::gemm_rows_avx512(a, k, packed, out) };
            return true;
        }
        if level >= SimdLevel::Avx2 {
            // SAFETY: as above.
            unsafe { x86::gemm_rows_avx2(a, k, packed, out) };
            return true;
        }
    }
    #[cfg(target_arch = "aarch64")]
    if level >= SimdLevel::Neon {
        // SAFETY: tiers are clamped to runtime-detected features.
        unsafe { neon::gemm_rows_neon(a, k, packed, out) };
        return true;
    }
    false
}

/// Runs the integer qgemm through the AVX2 widening tile when `level`
/// and the operand magnitudes allow (see the module docs); returns
/// `false` to fall back to the exact scalar i128 kernel. Wide fixpoint
/// formats whose operands exceed 31 bits always take the scalar path.
#[allow(unused_variables)]
pub(crate) fn qgemm_rows_simd(
    level: SimdLevel,
    a: &[i64],
    k: usize,
    packed: &PackedCodeRhs,
    out: &mut [i128],
) -> bool {
    note_isa(level);
    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 {
        // `vpmuldq` multiplies the sign-extended low 32 bits of each
        // 64-bit lane, so both operands must fit in i32; the per-k-block
        // lane accumulator must hold `block` such products in i64.
        const LANE_LIMIT: u64 = i32::MAX as u64;
        let bmax = packed.max_abs;
        let amax = a.iter().map(|&v| v.unsigned_abs()).max().unwrap_or(0);
        let block = KC.min(k).max(1) as u128;
        if amax <= LANE_LIMIT
            && bmax <= LANE_LIMIT
            && block * u128::from(amax) * u128::from(bmax) <= i64::MAX as u128
        {
            // SAFETY: tier implies AVX2; bounds checked above.
            unsafe { x86::qgemm_rows_avx2(a, k, &packed.panels, out) };
            return true;
        }
    }
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{PackedRhs, KC};
    use crate::gemm::{gemm_driver, Panels, NR};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_ps, _mm256_loadu_ps, _mm256_loadu_si256,
        _mm256_mul_epi32, _mm256_mul_ps, _mm256_set1_epi64x, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_setzero_si256, _mm256_storeu_ps, _mm256_storeu_si256, _mm512_add_ps,
        _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };

    /// Vector tile height for AVX2: 6 rows × 2 ymm accumulators + 2 panel
    /// vectors + 1 broadcast = 15 of 16 registers.
    const MR_AVX2: usize = 6;

    /// Vector tile height for AVX-512: 8 rows × 1 zmm accumulator leaves
    /// ample slack in the 32-register file while amortizing panel loads.
    const MR_AVX512: usize = 8;

    /// AVX2 full-panel tile: `M`×[`NR`] accumulators as two 8-lane
    /// vectors per row, separate `mul`+`add` per step (module docs).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn micro_f32_avx2<const M: usize>(
        a: &[f32],
        k: usize,
        n: usize,
        panel: &[f32],
        out: &mut [f32],
        i0: usize,
        j0: usize,
        kb: usize,
        kend: usize,
        first: bool,
    ) {
        let mut lo = [_mm256_setzero_ps(); M];
        let mut hi = [_mm256_setzero_ps(); M];
        if !first {
            for r in 0..M {
                let base = (i0 + r) * n + j0;
                lo[r] = _mm256_loadu_ps(out.as_ptr().add(base));
                hi[r] = _mm256_loadu_ps(out.as_ptr().add(base + 8));
            }
        }
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for kk in kb..kend {
            let b0 = _mm256_loadu_ps(pp.add(kk * NR));
            let b1 = _mm256_loadu_ps(pp.add(kk * NR + 8));
            for r in 0..M {
                let av = _mm256_set1_ps(*ap.add((i0 + r) * k + kk));
                lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, b0));
                hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, b1));
            }
        }
        for r in 0..M {
            let base = (i0 + r) * n + j0;
            _mm256_storeu_ps(out.as_mut_ptr().add(base), lo[r]);
            _mm256_storeu_ps(out.as_mut_ptr().add(base + 8), hi[r]);
        }
    }

    /// AVX-512 full-panel tile: one 16-lane accumulator per row.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn micro_f32_avx512<const M: usize>(
        a: &[f32],
        k: usize,
        n: usize,
        panel: &[f32],
        out: &mut [f32],
        i0: usize,
        j0: usize,
        kb: usize,
        kend: usize,
        first: bool,
    ) {
        let mut acc = [_mm512_setzero_ps(); M];
        if !first {
            for r in 0..M {
                acc[r] = _mm512_loadu_ps(out.as_ptr().add((i0 + r) * n + j0));
            }
        }
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for kk in kb..kend {
            let b = _mm512_loadu_ps(pp.add(kk * NR));
            for r in 0..M {
                let av = _mm512_set1_ps(*ap.add((i0 + r) * k + kk));
                acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, b));
            }
        }
        for r in 0..M {
            _mm512_storeu_ps(out.as_mut_ptr().add((i0 + r) * n + j0), acc[r]);
        }
    }

    /// AVX2 driver for [`crate::gemm::gemm_rows`]: the shared blocking
    /// loop ([`gemm_driver`]) with the AVX2 full-panel tile.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_rows_avx2(a: &[f32], k: usize, packed: &PackedRhs, out: &mut [f32]) {
        gemm_driver!(a, k, packed, out, MR_AVX2, micro_f32_avx2);
    }

    /// AVX-512 driver for [`crate::gemm::gemm_rows`]: the shared blocking
    /// loop with the AVX-512 full-panel tile.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gemm_rows_avx512(
        a: &[f32],
        k: usize,
        packed: &PackedRhs,
        out: &mut [f32],
    ) {
        gemm_driver!(a, k, packed, out, MR_AVX512, micro_f32_avx512);
    }

    /// AVX2 integer qgemm: per (row, panel, k-block), accumulate
    /// `vpmuldq` 64-bit partial products in four i64 vectors (16 lanes),
    /// then spill each block through the scalar i128 seam. The caller
    /// proved `block·max|a|·max|b| ≤ i64::MAX`, so the lane adds cannot
    /// wrap; integer addition is associative, so any split is exact.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::cast_ptr_alignment)] // unaligned intrinsics only
    pub(super) unsafe fn qgemm_rows_avx2(
        a: &[i64],
        k: usize,
        packed: &Panels<i64>,
        out: &mut [i128],
    ) {
        let n = packed.n();
        let data = packed.data();
        let rows = out.len() / n;
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            for i in 0..rows {
                let arow = &a[i * k..(i + 1) * k];
                for p in 0..packed.panels() {
                    let j0 = p * NR;
                    let nr = NR.min(n - j0);
                    let panel = &data[p * k * NR..(p + 1) * k * NR];
                    let pp = panel.as_ptr();
                    let mut acc = [_mm256_setzero_si256(); 4];
                    for (kk, &av) in arow.iter().enumerate().take(kend).skip(kb) {
                        if av == 0 {
                            continue; // zero-skip is sound: sums are exact
                        }
                        let avv = _mm256_set1_epi64x(av);
                        for (c, accc) in acc.iter_mut().enumerate() {
                            let b = _mm256_loadu_si256(pp.add(kk * NR + 4 * c).cast::<__m256i>());
                            *accc = _mm256_add_epi64(*accc, _mm256_mul_epi32(avv, b));
                        }
                    }
                    // The i128 carry/accumulate seam: widen the block's
                    // i64 lane sums and fold them into the output.
                    let mut lanes = [0i64; NR];
                    for (c, &accc) in acc.iter().enumerate() {
                        _mm256_storeu_si256(lanes.as_mut_ptr().add(4 * c).cast::<__m256i>(), accc);
                    }
                    let orow = &mut out[i * n + j0..i * n + j0 + nr];
                    for (o, &v) in orow.iter_mut().zip(&lanes) {
                        *o += i128::from(v);
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::PackedRhs;
    use crate::gemm::{micro_edge, KC, MC, MR, NR};
    use std::arch::aarch64::{vaddq_f32, vdupq_n_f32, vld1q_f32, vmulq_f32, vst1q_f32};

    /// Vector tile height for NEON: 4 rows × 4 q-register accumulators
    /// + 4 panel vectors + 1 broadcast = 21 of 32 registers.
    const MR_NEON: usize = 4;

    /// NEON full-panel tile: `M`×[`NR`] accumulators as four 4-lane
    /// vectors per row; separate `vmulq`/`vaddq` per step keeps the two
    /// roundings of the scalar reference (no `vfmaq`).
    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn micro_f32_neon<const M: usize>(
        a: &[f32],
        k: usize,
        n: usize,
        panel: &[f32],
        out: &mut [f32],
        i0: usize,
        j0: usize,
        kb: usize,
        kend: usize,
        first: bool,
    ) {
        let mut acc = [[vdupq_n_f32(0.0); 4]; M];
        if !first {
            for r in 0..M {
                let base = (i0 + r) * n + j0;
                for c in 0..4 {
                    acc[r][c] = vld1q_f32(out.as_ptr().add(base + 4 * c));
                }
            }
        }
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for kk in kb..kend {
            let mut b = [vdupq_n_f32(0.0); 4];
            for (c, bc) in b.iter_mut().enumerate() {
                *bc = vld1q_f32(pp.add(kk * NR + 4 * c));
            }
            for r in 0..M {
                let av = vdupq_n_f32(*ap.add((i0 + r) * k + kk));
                for c in 0..4 {
                    acc[r][c] = vaddq_f32(acc[r][c], vmulq_f32(av, b[c]));
                }
            }
        }
        for r in 0..M {
            let base = (i0 + r) * n + j0;
            for c in 0..4 {
                vst1q_f32(out.as_mut_ptr().add(base + 4 * c), acc[r][c]);
            }
        }
    }

    /// NEON driver for [`crate::gemm::gemm_rows`]: the scalar driver's
    /// kb/ib/panel blocking with the NEON full-panel tile; tail panels
    /// reuse the scalar [`micro_edge`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn gemm_rows_neon(a: &[f32], k: usize, packed: &PackedRhs, out: &mut [f32]) {
        let n = packed.n();
        let data = packed.data();
        let rows = out.len() / n;
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            let first = kb == 0;
            for ib in (0..rows).step_by(MC) {
                let iend = (ib + MC).min(rows);
                for p in 0..packed.panels() {
                    let j0 = p * NR;
                    let nr = NR.min(n - j0);
                    let panel = &data[p * k * NR..(p + 1) * k * NR];
                    let mut i = ib;
                    if nr == NR {
                        while i < iend {
                            let mr = MR_NEON.min(iend - i);
                            match mr {
                                4 => {
                                    micro_f32_neon::<4>(a, k, n, panel, out, i, j0, kb, kend, first)
                                }
                                3 => {
                                    micro_f32_neon::<3>(a, k, n, panel, out, i, j0, kb, kend, first)
                                }
                                2 => {
                                    micro_f32_neon::<2>(a, k, n, panel, out, i, j0, kb, kend, first)
                                }
                                _ => {
                                    micro_f32_neon::<1>(a, k, n, panel, out, i, j0, kb, kend, first)
                                }
                            }
                            i += mr;
                        }
                    } else {
                        while i < iend {
                            let mr = MR.min(iend - i);
                            match mr {
                                4 => {
                                    micro_edge::<4>(a, k, n, panel, out, i, j0, nr, kb, kend, first)
                                }
                                3 => {
                                    micro_edge::<3>(a, k, n, panel, out, i, j0, nr, kb, kend, first)
                                }
                                2 => {
                                    micro_edge::<2>(a, k, n, panel, out, i, j0, nr, kb, kend, first)
                                }
                                _ => {
                                    micro_edge::<1>(a, k, n, panel, out, i, j0, nr, kb, kend, first)
                                }
                            }
                            i += mr;
                        }
                    }
                }
            }
        }
    }
}
