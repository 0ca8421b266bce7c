//! Packed, cache-blocked GEMM micro-kernel for the inference hot path.
//!
//! The PTQ sweep spends nearly all of its wall-clock in
//! `[m,k]·[k,n]` matmuls (im2col convolutions and linear layers), so the
//! rhs is packed once into cache-friendly column panels ([`PackedRhs`])
//! and the product is tiled over i/k with a register-blocked
//! [`MR`]×[`NR`] micro-kernel ([`gemm_rows`]). Weight matrices that are
//! reused across many forwards (a `QuantPlan`'s per-format copies) pack
//! **once per plan** via [`PackedRhs::pack_t`], not once per sample.
//!
//! # Bit-identity invariant
//!
//! Every kernel here produces outputs **bit-identical** to the serial
//! i-k-j reference ([`matmul_naive_rows`]) for every shape, tile size,
//! and thread split. Per output element `(i, j)` the additions happen in
//! exactly the order `out += a[i][0]·b[0][j], a[i][1]·b[1][j], …`:
//!
//! * k-blocking keeps the order because each block loads the current
//!   `out` value into a register accumulator, adds its `kk` range in
//!   ascending order, and stores back — the same prefix-sum sequence,
//!   just materialized to memory every [`KC`] steps;
//! * packing is a pure copy (tail panels are zero-padded; their
//!   accumulator lanes are computed but never stored);
//! * the row split across threads never crosses an output element.
//!
//! Pinned by `tests/gemm_props.rs` across random shapes, the tile
//! boundaries of [`MR`]/[`NR`]/[`KC`]/[`MC`], explicit thread counts,
//! and every SIMD tier the host supports (via [`gemm_rows_with_level`]).
//!
//! # SIMD dispatch
//!
//! [`gemm_rows`] routes full panels through the explicit vector kernels
//! in [`crate::simd`] when the process-wide tier
//! ([`mersit_core::simd::simd_level`], overridable with `MERSIT_SIMD`)
//! allows it; the scalar micro-kernels below remain the always-compiled
//! reference and the fallback for tail panels and scalar-only hosts.

/// Micro-kernel panel width (output columns per register block). Sixteen
/// f32 lanes = one AVX-512 vector, two AVX2 vectors, or four NEON
/// vectors; the scalar inner loop is written over the full fixed width
/// so it autovectorizes even without the explicit kernels.
pub const NR: usize = 16;

/// Scalar micro-kernel height (output rows per register block): 4×16 f32
/// accumulators stay comfortably within 16 vector registers. The
/// explicit SIMD tiles use their own heights ([`crate::simd`]).
pub const MR: usize = 4;

/// k-dimension block: one [`KC`]×[`NR`] panel strip (16 KiB) stays
/// L1-resident while a row block streams over it.
pub const KC: usize = 256;

/// i-dimension block: bounds the lhs rows (up to [`MC`]·[`KC`]·4 B =
/// 64 KiB) re-read per panel sweep to roughly L2 size.
pub const MC: usize = 64;

/// Below this many output rows the per-call panel packing (`k·n` copies
/// vs `m·k·n` multiplies) is not amortized and [`crate::Tensor::matmul`]
/// keeps the direct naive kernel.
pub(crate) const PACK_MIN_ROWS: usize = 2 * MR;

/// A GEMM rhs repacked into [`NR`]-wide column panels, the one layout
/// both GEMMs stream: `data[p·k·NR + kk·NR + j]` holds `B[kk][p·NR + j]`,
/// with the tail panel zero-padded. The micro-kernels then read each
/// panel contiguously instead of striding `n`-wide rows.
///
/// Generic over the element: [`PackedRhs`] (`f32`) feeds [`gemm_rows`],
/// and [`crate::qgemm::PackedCodeRhs`] wraps the `i64` panels of
/// fixed-point weight codes. Packing is a pure copy, so it cannot change
/// a product bit.
#[derive(Clone)]
pub struct Panels<T> {
    data: Vec<T>,
    k: usize,
    n: usize,
}

/// The f32 rhs of [`gemm_rows`]: a `[k, n]` matrix in [`Panels`].
pub type PackedRhs = Panels<f32>;

impl<T> std::fmt::Debug for Panels<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Panels<{}>[{}x{}, {} panels]",
            std::any::type_name::<T>(),
            self.k,
            self.n,
            self.panels()
        )
    }
}

impl<T: Copy + Default> Panels<T> {
    /// Packs a row-major `[k, n]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    #[must_use]
    pub fn pack(b: &[T], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "rhs buffer does not match [{k}, {n}]");
        let panels = n.div_ceil(NR);
        let mut data = vec![T::default(); panels * k * NR];
        for (p, panel) in data.chunks_exact_mut((k * NR).max(1)).enumerate() {
            let j0 = p * NR;
            let nr = NR.min(n - j0);
            for kk in 0..k {
                panel[kk * NR..kk * NR + nr].copy_from_slice(&b[kk * n + j0..kk * n + j0 + nr]);
            }
        }
        Self { data, k, n }
    }

    /// Packs the transpose of a row-major `[n, k]` matrix — i.e. `bt`
    /// holds `Bᵀ` and the panels describe `B` — without materializing
    /// the transpose. This is the weight-matrix entry point: layers
    /// store `W` as `[out, in]` and consume it as the `[in, out]` rhs of
    /// `x·Wᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `bt.len() != n * k`.
    #[must_use]
    pub fn pack_t(bt: &[T], n: usize, k: usize) -> Self {
        assert_eq!(bt.len(), n * k, "rhs buffer does not match [{n}, {k}]");
        let panels = n.div_ceil(NR);
        let mut data = vec![T::default(); panels * k * NR];
        for (p, panel) in data.chunks_exact_mut((k * NR).max(1)).enumerate() {
            let j0 = p * NR;
            let nr = NR.min(n - j0);
            for (dj, col) in bt[j0 * k..(j0 + nr) * k].chunks_exact(k.max(1)).enumerate() {
                for (kk, &v) in col.iter().enumerate() {
                    panel[kk * NR + dj] = v;
                }
            }
        }
        Self { data, k, n }
    }
}

impl<T> Panels<T> {
    /// Inner (k) dimension of the packed matrix.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column (n) dimension of the packed matrix.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn panels(&self) -> usize {
        self.n.div_ceil(NR)
    }

    /// Raw panel storage, for the kernels in this crate.
    pub(crate) fn data(&self) -> &[T] {
        &self.data
    }
}

/// Serial i-k-j reference kernel over `rows = out.len() / n` rows:
/// `out[i][j] += a[i][kk] · b[kk][j]` with `kk` ascending — the
/// accumulation order every other kernel in this module reproduces
/// bit-for-bit. `out` is accumulated into (callers pass zeros).
///
/// This loop is the **canonical scalar order**: separate multiply then
/// add per step (never `mul_add` — a fused single rounding would change
/// results), `kk` strictly ascending. It doubles as the perf baseline in
/// `mersit-bench` and the reference in `tests/gemm_props.rs`, so it must
/// not be restructured; `#[inline(never)]` keeps it a single stable
/// compilation unit so the SIMD kernels are never benchmarked against an
/// inline-context autovectorization that shifts across compiler versions.
#[inline(never)]
pub fn matmul_naive_rows(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Register-blocked `M`×[`NR`] tile for a **full** panel (`nr == NR`):
/// loads the current `out` values (unless this is the first k block),
/// accumulates `kk ∈ [kb, kend)` in ascending order, stores back.
/// Monomorphized per row count, and every access into the accumulator
/// array is constant-size — that is what lets SRoA promote `acc` to
/// vector registers instead of round-tripping the stack (a
/// variable-length `copy_from_slice` here de-vectorizes the whole
/// kernel; the tail panel pays that price in [`micro_edge`] instead).
#[inline(always)] // hot micro-kernel: inlining lets LLVM hoist tile bases
#[allow(clippy::inline_always, clippy::too_many_arguments)]
fn micro_full<const M: usize>(
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
    let mut acc = [[0.0f32; NR]; M];
    if !first {
        for (r, accr) in acc.iter_mut().enumerate() {
            let base = (i0 + r) * n + j0;
            let orow: &[f32; NR] = (&out[base..base + NR]).try_into().unwrap();
            *accr = *orow;
        }
    }
    for kk in kb..kend {
        // Fixed-size array refs give the lane loop a static trip count
        // and no bounds checks, so it vectorizes.
        let bp: &[f32; NR] = panel[kk * NR..kk * NR + NR].try_into().unwrap();
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = a[(i0 + r) * k + kk];
            for j in 0..NR {
                accr[j] += av * bp[j];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let base = (i0 + r) * n + j0;
        let orow: &mut [f32; NR] = (&mut out[base..base + NR]).try_into().unwrap();
        *orow = *accr;
    }
}

/// Tail-panel variant of [`micro_full`] for `nr < NR` output columns
/// (at most one panel per matrix, so throughput is irrelevant): padded
/// lanes compute against the panel's zero padding and are never stored.
#[inline(always)] // same codegen contract as micro_full
#[allow(clippy::inline_always, clippy::too_many_arguments)]
pub(crate) fn micro_edge<const M: usize>(
    a: &[f32],
    k: usize,
    n: usize,
    panel: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    nr: usize,
    kb: usize,
    kend: usize,
    first: bool,
) {
    // The variable-length `out` copies go through `staged`, a separate
    // memory-homed buffer; `acc` itself only ever sees constant-size
    // accesses (whole-array copies and unrolled lanes), so SRoA can
    // still promote it to registers and the compute loop vectorizes.
    let mut staged = [[0.0f32; NR]; M];
    if !first {
        for (r, row) in staged.iter_mut().enumerate() {
            let orow = &out[(i0 + r) * n + j0..];
            row[..nr].copy_from_slice(&orow[..nr]);
        }
    }
    let mut acc = staged;
    for kk in kb..kend {
        let bp: &[f32; NR] = panel[kk * NR..kk * NR + NR].try_into().unwrap();
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = a[(i0 + r) * k + kk];
            for j in 0..NR {
                accr[j] += av * bp[j];
            }
        }
    }
    staged = acc;
    for (r, row) in staged.iter().enumerate() {
        let orow = &mut out[(i0 + r) * n + j0..];
        orow[..nr].copy_from_slice(&row[..nr]);
    }
}

/// The one f32 blocking loop: k blocks of [`KC`], row blocks of [`MC`],
/// then every panel, each row block cut into full-panel tiles of height
/// `$mr` run by `$micro` and tail-panel tiles of height [`MR`] run by
/// [`micro_edge`]. The scalar driver ([`gemm_rows_with_level`]) and the
/// x86 drivers in [`crate::simd`] expand it with their own tile, so the
/// accumulation order per output element is the scalar one on every tier.
/// A tail panel is at most one per matrix, so sharing the scalar edge
/// tile costs no throughput.
///
/// `$micro::<M>` takes `(a, k, n, panel, out, i0, j0, kb, kend, first)`
/// like [`micro_full`] and must handle every `M` up to `$mr` (at most 8).
macro_rules! gemm_driver {
    ($a:ident, $k:ident, $packed:ident, $out:ident, $mr:expr, $micro:ident) => {{
        use $crate::gemm::{micro_edge, KC, MC, MR, NR};
        let n = $packed.n();
        let data = $packed.data();
        let rows = $out.len() / n;
        for kb in (0..$k).step_by(KC) {
            let kend = (kb + KC).min($k);
            let first = kb == 0;
            for ib in (0..rows).step_by(MC) {
                let iend = (ib + MC).min(rows);
                for p in 0..$packed.panels() {
                    let j0 = p * NR;
                    let nr = NR.min(n - j0);
                    let panel = &data[p * $k * NR..(p + 1) * $k * NR];
                    let mut i = ib;
                    if nr == NR {
                        while i < iend {
                            let mr = $mr.min(iend - i);
                            match mr {
                                8 => $micro::<8>($a, $k, n, panel, $out, i, j0, kb, kend, first),
                                7 => $micro::<7>($a, $k, n, panel, $out, i, j0, kb, kend, first),
                                6 => $micro::<6>($a, $k, n, panel, $out, i, j0, kb, kend, first),
                                5 => $micro::<5>($a, $k, n, panel, $out, i, j0, kb, kend, first),
                                4 => $micro::<4>($a, $k, n, panel, $out, i, j0, kb, kend, first),
                                3 => $micro::<3>($a, $k, n, panel, $out, i, j0, kb, kend, first),
                                2 => $micro::<2>($a, $k, n, panel, $out, i, j0, kb, kend, first),
                                _ => $micro::<1>($a, $k, n, panel, $out, i, j0, kb, kend, first),
                            }
                            i += mr;
                        }
                    } else {
                        while i < iend {
                            let mr = MR.min(iend - i);
                            match mr {
                                4 => micro_edge::<4>(
                                    $a, $k, n, panel, $out, i, j0, nr, kb, kend, first,
                                ),
                                3 => micro_edge::<3>(
                                    $a, $k, n, panel, $out, i, j0, nr, kb, kend, first,
                                ),
                                2 => micro_edge::<2>(
                                    $a, $k, n, panel, $out, i, j0, nr, kb, kend, first,
                                ),
                                _ => micro_edge::<1>(
                                    $a, $k, n, panel, $out, i, j0, nr, kb, kend, first,
                                ),
                            }
                            i += mr;
                        }
                    }
                }
            }
        }
    }};
}
pub(crate) use gemm_driver;

/// Cache-blocked product of `rows = out.len() / packed.n()` lhs rows
/// (`a`, row-major `rows`×`k`) against a packed rhs, accumulating into
/// `out` (zeroed by the caller). Bit-identical to
/// [`matmul_naive_rows`] on the unpacked rhs — see the module docs.
/// Dispatches to the explicit vector kernels when the process-wide SIMD
/// tier permits; `MERSIT_SIMD=0` forces the scalar micro-kernels.
///
/// # Panics
///
/// Debug-panics when `a`/`out` lengths are inconsistent with `k` and
/// the packed dimensions.
pub fn gemm_rows(a: &[f32], k: usize, packed: &PackedRhs, out: &mut [f32]) {
    gemm_rows_with_level(mersit_core::simd::simd_level(), a, k, packed, out);
}

/// [`gemm_rows`] with an explicit SIMD tier — the differential-testing
/// entry point (`tests/gemm_props.rs` sweeps every tier in
/// [`mersit_core::simd::available_levels`]). Tiers the host cannot run
/// must not be passed; production code uses [`gemm_rows`].
pub fn gemm_rows_with_level(
    level: mersit_core::simd::SimdLevel,
    a: &[f32],
    k: usize,
    packed: &PackedRhs,
    out: &mut [f32],
) {
    let n = packed.n;
    if n == 0 || k == 0 {
        return;
    }
    debug_assert_eq!(packed.k, k, "packed rhs k mismatch");
    debug_assert_eq!(a.len(), out.len() / n * k, "lhs rows mismatch");
    if crate::simd::gemm_rows_simd(level, a, k, packed, out) {
        return;
    }
    gemm_driver!(a, k, packed, out, MR, micro_full);
}

/// Row-parallel wrapper over [`gemm_rows`]: splits the output rows into
/// stealable chunks on the global pool. Bit-identical to the serial
/// kernel for every thread count and steal schedule (the split never
/// crosses a row and each element keeps its ascending-k accumulation
/// order). This is the one entry point every f32 matmul consumer routes
/// tile parallelism through — `Tensor::matmul`/`matmul_packed` and the
/// conv lowerings compose with batch- and sweep-level dispatches above
/// them instead of re-deriving their own splits.
pub fn gemm_rows_par(a: &[f32], k: usize, packed: &PackedRhs, out: &mut [f32]) {
    let n = packed.n;
    if n == 0 {
        return;
    }
    crate::par::par_chunks_mut(out, n, crate::par::min_units(2 * k * n), |i0, chunk| {
        let rows = chunk.len() / n;
        gemm_rows(&a[i0 * k..(i0 + rows) * k], k, packed, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn compare(m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal() as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal() as f32).collect();
        let mut want = vec![0.0f32; m * n];
        matmul_naive_rows(&a, k, &b, n, &mut want);
        let packed = PackedRhs::pack(&b, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_rows(&a, k, &packed, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "[{m},{k},{n}] elem {i}");
        }
    }

    #[test]
    fn blocked_matches_naive_bitwise() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 8),
            (5, 9, 11),
            (MR + 1, KC + 1, NR + 1),
            (MC + 3, 40, 2 * NR + 5),
        ] {
            compare(m, k, n, 7 + (m * 31 + k * 7 + n) as u64);
        }
    }

    #[test]
    fn pack_t_equals_pack_of_transpose() {
        let mut rng = Rng::new(41);
        let (n, k) = (13, 21);
        let bt: Vec<f32> = (0..n * k).map(|_| rng.normal() as f32).collect();
        // Materialized transpose: b[kk][j] = bt[j][kk].
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        let from_t = PackedRhs::pack_t(&bt, n, k);
        let direct = PackedRhs::pack(&b, k, n);
        assert_eq!(from_t.data, direct.data);
    }

    #[test]
    fn degenerate_dims_leave_zeros() {
        let packed = PackedRhs::pack(&[], 0, 5);
        let mut out = vec![0.0f32; 3 * 5];
        gemm_rows(&[], 0, &packed, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0));
    }
}
