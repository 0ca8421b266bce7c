//! Packed integer GEMM over fixed-point code values — the bit-true
//! inference hot path.
//!
//! The bit-true executor (`mersit-ptq`) maps every 8-bit code to an `i64`
//! fixed-point value (`mersit-core::fixpoint::FixTable`) and needs exact
//! `[m,k]·[k,n]` integer products with `i128` accumulation. Unlike the
//! float kernels in [`crate::gemm`], **integer addition is associative**,
//! so any tiling, packing, or thread split produces bit-identical sums by
//! construction — the kernels here are free to reorder. The panel layout
//! is shared with the float kernels: [`PackedCodeRhs`] wraps
//! [`Panels`]`<i64>`, so both GEMMs pack through one `pack` / `pack_t`,
//! and plans pack code matrices once and reuse them across samples.
//!
//! Pinned by `tests/qgemm_props.rs`: packed/blocked/threaded results are
//! bit-identical to the serial [`qgemm_naive_rows`] reference across
//! random shapes, tile boundaries, and thread counts.

use crate::gemm::{Panels, KC, NR};
use crate::par;

/// An integer rhs in the shared [`Panels`] layout, plus the maximum
/// operand magnitude recorded at pack time. The magnitude lets
/// [`qgemm_rows`] prove, per call and without rescanning the weights,
/// that the SIMD tile's 64-bit partial-product accumulators cannot
/// overflow.
#[derive(Clone, Debug)]
pub struct PackedCodeRhs {
    pub(crate) panels: Panels<i64>,
    /// `max |B[kk][j]|` over the packed matrix.
    pub(crate) max_abs: u64,
}

impl PackedCodeRhs {
    /// Packs a row-major `[k, n]` integer matrix.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    #[must_use]
    pub fn pack(b: &[i64], k: usize, n: usize) -> Self {
        Self::with_max_abs(Panels::pack(b, k, n), b)
    }

    /// Packs the transpose of a row-major `[n, k]` matrix without
    /// materializing it — the weight-code entry point, as
    /// [`Panels::pack_t`] is for float weights.
    ///
    /// # Panics
    ///
    /// Panics if `bt.len() != n * k`.
    #[must_use]
    pub fn pack_t(bt: &[i64], n: usize, k: usize) -> Self {
        Self::with_max_abs(Panels::pack_t(bt, n, k), bt)
    }

    fn with_max_abs(panels: Panels<i64>, values: &[i64]) -> Self {
        let max_abs = values.iter().map(|&v| v.unsigned_abs()).max().unwrap_or(0);
        Self { panels, max_abs }
    }

    /// Inner (k) dimension of the packed matrix.
    #[must_use]
    pub fn k(&self) -> usize {
        self.panels.k()
    }

    /// Column (n) dimension of the packed matrix.
    #[must_use]
    pub fn n(&self) -> usize {
        self.panels.n()
    }
}

/// Serial i-k-j reference: `out[i][j] += a[i][kk] · b[kk][j]` over
/// `rows = out.len() / n` rows, every product widened to `i128` before
/// the add. Exact — the packed kernels must match it bit for bit.
pub fn qgemm_naive_rows(a: &[i64], k: usize, b: &[i64], n: usize, out: &mut [i128]) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0 {
                continue; // zero-skip is sound: integer sums are exact
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += i128::from(av) * i128::from(bv);
            }
        }
    }
}

/// Blocked product of `rows = out.len() / packed.n()` lhs rows against a
/// packed integer rhs, accumulating exactly into `out` (zeroed or
/// pre-loaded by the caller). Serial; see [`qgemm_rows_par`] for the
/// row-split entry point. When the process-wide SIMD tier and the
/// operand magnitudes allow, the product runs through the widening
/// vector tile in [`crate::simd`] — exactness is unconditional either
/// way (integer sums are associative), `MERSIT_SIMD=0` forces scalar.
///
/// # Panics
///
/// Debug-panics when `a`/`out` lengths are inconsistent with `k` and the
/// packed dimensions.
pub fn qgemm_rows(a: &[i64], k: usize, packed: &PackedCodeRhs, out: &mut [i128]) {
    qgemm_rows_with_level(mersit_core::simd::simd_level(), a, k, packed, out);
}

/// [`qgemm_rows`] with an explicit SIMD tier — the differential-testing
/// entry point (`tests/qgemm_props.rs` sweeps every tier in
/// [`mersit_core::simd::available_levels`]). Tiers the host cannot run
/// must not be passed; production code uses [`qgemm_rows`].
pub fn qgemm_rows_with_level(
    level: mersit_core::simd::SimdLevel,
    a: &[i64],
    k: usize,
    packed: &PackedCodeRhs,
    out: &mut [i128],
) {
    let n = packed.n();
    if n == 0 || k == 0 {
        return;
    }
    debug_assert_eq!(packed.k(), k, "packed rhs k mismatch");
    let rows = out.len() / n;
    debug_assert_eq!(a.len(), rows * k, "lhs rows mismatch");
    if crate::simd::qgemm_rows_simd(level, a, k, packed, out) {
        return;
    }
    let packed = &packed.panels;
    for kb in (0..k).step_by(KC) {
        let kend = (kb + KC).min(k);
        for i in 0..rows {
            let arow = &a[i * k..(i + 1) * k];
            for p in 0..packed.panels() {
                let j0 = p * NR;
                let nr = NR.min(n - j0);
                let panel = &packed.data()[p * k * NR..(p + 1) * k * NR];
                let mut acc = [0i128; NR];
                for (kk, &av) in arow.iter().enumerate().take(kend).skip(kb) {
                    if av == 0 {
                        continue;
                    }
                    let bp = &panel[kk * NR..kk * NR + NR];
                    for (accj, &bv) in acc.iter_mut().zip(bp) {
                        *accj += i128::from(av) * i128::from(bv);
                    }
                }
                let orow = &mut out[i * n + j0..i * n + j0 + nr];
                for (o, &v) in orow.iter_mut().zip(&acc) {
                    *o += v;
                }
            }
        }
    }
}

/// Row-parallel wrapper over [`qgemm_rows`]: splits the output rows
/// across the persistent worker pool. Bit-identical to the serial kernel
/// for every thread count (the split never crosses an output element and
/// integer accumulation is exact).
pub fn qgemm_rows_par(a: &[i64], k: usize, packed: &PackedCodeRhs, out: &mut [i128]) {
    let n = packed.n();
    if n == 0 {
        return;
    }
    // i128 MACs are ~4 f32 FLOPs of work per element; reuse the float
    // kernels' work heuristic with that weight.
    par::par_chunks_mut(out, n, par::min_units(8 * k * n), |i0, chunk| {
        let rows = chunk.len() / n;
        qgemm_rows(&a[i0 * k..(i0 + rows) * k], k, packed, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_codes(rng: &mut Rng, len: usize, bits: u32) -> Vec<i64> {
        (0..len)
            .map(|_| {
                let m = (rng.next_u64() % (1 << bits)) as i64;
                if rng.next_u64() & 1 == 0 {
                    m
                } else {
                    -m
                }
            })
            .collect()
    }

    fn compare(m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let a = random_codes(&mut rng, m * k, 20);
        let b = random_codes(&mut rng, k * n, 20);
        let mut want = vec![0i128; m * n];
        qgemm_naive_rows(&a, k, &b, n, &mut want);
        let packed = PackedCodeRhs::pack(&b, k, n);
        let mut got = vec![0i128; m * n];
        qgemm_rows(&a, k, &packed, &mut got);
        assert_eq!(got, want, "[{m},{k},{n}] blocked");
        let mut got_par = vec![0i128; m * n];
        qgemm_rows_par(&a, k, &packed, &mut got_par);
        assert_eq!(got_par, want, "[{m},{k},{n}] parallel");
    }

    #[test]
    fn blocked_matches_naive_exactly() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 8),
            (5, 9, 11),
            (5, KC + 1, NR + 1),
            (67, 40, 2 * NR + 5),
        ] {
            compare(m, k, n, 11 + (m * 31 + k * 7 + n) as u64);
        }
    }

    #[test]
    fn pack_t_equals_pack_of_transpose() {
        let mut rng = Rng::new(43);
        let (n, k) = (13, 21);
        let bt = random_codes(&mut rng, n * k, 30);
        let mut b = vec![0i64; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        let from_t = PackedCodeRhs::pack_t(&bt, n, k);
        let direct = PackedCodeRhs::pack(&b, k, n);
        assert_eq!(from_t.panels.data(), direct.panels.data());
    }

    #[test]
    fn degenerate_dims_leave_zeros() {
        let packed = PackedCodeRhs::pack(&[], 0, 5);
        let mut out = vec![0i128; 3 * 5];
        qgemm_rows(&[], 0, &packed, &mut out);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn wide_products_do_not_overflow() {
        // 62-bit operands: each product needs up to 124 bits.
        let a = vec![(1i64 << 61) - 1; 4];
        let b = vec![-((1i64 << 61) - 3); 4];
        let mut out = vec![0i128; 1];
        qgemm_naive_rows(&a, 4, &b, 1, &mut out);
        let expect = 4 * (i128::from(a[0]) * i128::from(b[0]));
        assert_eq!(out[0], expect);
        let packed = PackedCodeRhs::pack(&b, 4, 1);
        let mut got = vec![0i128; 1];
        qgemm_rows(&a, 4, &packed, &mut got);
        assert_eq!(got[0], expect);
    }
}
