//! Bit-identity properties of the packed, cache-blocked GEMM: for every
//! shape (random and tile-boundary), thread count, **SIMD tier** the
//! host supports (scalar and each vector kernel, via
//! `gemm_rows_with_level`), and entry point (`gemm_rows`,
//! `Tensor::matmul`, `Tensor::matmul_packed`), the output must equal the
//! serial i-k-j reference loop bit for bit. This is the invariant the
//! whole PTQ test suite leans on — a single reordered addition here
//! shows up as a logit-digest diff in `plan_logits_match_golden_digests`
//! (`crates/ptq/src/executor.rs`).

use mersit_tensor::gemm::{self, PackedRhs, KC, MC, MR, NR};
use mersit_tensor::simd::available_levels;
use mersit_tensor::{par_chunks_mut_with, Rng, Tensor};
use proptest::prelude::*;

/// The plain triple loop, written out independently of the library code:
/// `out[i][j] = Σ_k a[i][k]·b[k][j]`, k ascending from +0.0.
fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            for j in 0..n {
                out[i * n + j] += av * b[kk * n + j];
            }
        }
    }
    out
}

fn random_mats(m: usize, k: usize, n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = Rng::new(seed);
    let a: Vec<f32> = (0..m * k).map(|_| rng.normal() as f32).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.normal() as f32).collect();
    (a, b)
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str, m: usize, k: usize, n: usize) {
    assert_eq!(got.len(), want.len(), "{what} [{m},{k},{n}] length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what} [{m},{k},{n}] elem {i}: {g} vs {w}"
        );
    }
}

/// Checks every entry point against the reference for one shape.
fn check_shape(m: usize, k: usize, n: usize, seed: u64) {
    let (a, b) = random_mats(m, k, n, seed);
    let want = reference(&a, &b, m, k, n);

    // Direct blocked kernel on the packed rhs.
    let packed = PackedRhs::pack(&b, k, n);
    let mut got = vec![0.0f32; m * n];
    gemm::gemm_rows(&a, k, &packed, &mut got);
    assert_bits_eq(&got, &want, "gemm_rows", m, k, n);

    // Every SIMD tier this host can run (the process-default result
    // above is one of these; the sweep proves the rest agree too).
    for &level in available_levels() {
        let mut got_l = vec![0.0f32; m * n];
        gemm::gemm_rows_with_level(level, &a, k, &packed, &mut got_l);
        assert_bits_eq(&got_l, &want, level.name(), m, k, n);
    }

    // Public tensor paths (small m takes the naive route, large m packs).
    let at = Tensor::from_vec(a.clone(), &[m, k]);
    let bt = Tensor::from_vec(b.clone(), &[k, n]);
    assert_bits_eq(at.matmul(&bt).data(), &want, "Tensor::matmul", m, k, n);
    assert_bits_eq(
        at.matmul_packed(&packed).data(),
        &want,
        "Tensor::matmul_packed",
        m,
        k,
        n,
    );

    // pack_t from the transposed layout must agree too (the weight path).
    let mut btr = vec![0.0f32; n * k];
    for kk in 0..k {
        for j in 0..n {
            btr[j * k + kk] = b[kk * n + j];
        }
    }
    let packed_t = PackedRhs::pack_t(&btr, n, k);
    let mut got_t = vec![0.0f32; m * n];
    gemm::gemm_rows(&a, k, &packed_t, &mut got_t);
    assert_bits_eq(&got_t, &want, "gemm_rows(pack_t)", m, k, n);
}

/// Replicates `matmul_packed`'s row-chunked dispatch with explicit
/// chunk count and SIMD tier (the env-var pool size and `MERSIT_SIMD`
/// are latched process-wide, so the explicit APIs are how tests sweep
/// thread counts and tiers).
fn matmul_packed_with_threads(
    threads: usize,
    level: mersit_tensor::simd::SimdLevel,
    a: &[f32],
    k: usize,
    packed: &PackedRhs,
    m: usize,
) -> Vec<f32> {
    let n = packed.n();
    let mut out = vec![0.0f32; m * n];
    if n > 0 {
        par_chunks_mut_with(threads, &mut out, n, 1, |i0, chunk| {
            let rows = chunk.len() / n;
            gemm::gemm_rows_with_level(level, &a[i0 * k..(i0 + rows) * k], k, packed, chunk);
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_shapes_bit_identical(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..50,
        seed in any::<u64>(),
    ) {
        check_shape(m, k, n, seed);
    }

    #[test]
    fn thread_splits_bit_identical(
        m in 1usize..48,
        k in 1usize..40,
        n in 1usize..33,
        seed in any::<u64>(),
    ) {
        let (a, b) = random_mats(m, k, n, seed);
        let want = reference(&a, &b, m, k, n);
        let packed = PackedRhs::pack(&b, k, n);
        for &level in available_levels() {
            for threads in [1usize, 2, 7] {
                let got = matmul_packed_with_threads(threads, level, &a, k, &packed, m);
                assert_bits_eq(&got, &want, level.name(), m, k, n);
            }
        }
    }
}

#[test]
fn tile_boundary_grid_bit_identical() {
    // Every micro/block dimension at 1, tile−1, tile, tile+1, and odd —
    // including the vector tile heights (6 rows for AVX2, 8 for AVX-512)
    // that differ from the scalar MR.
    let ms = [1, MR - 1, MR, MR + 1, 6, 8, 9, MC - 1, MC, MC + 1, 37];
    let ns = [1, NR - 1, NR, NR + 1, 2 * NR + 1, 25];
    let ks = [1, 3, KC - 1, KC, KC + 1];
    let mut seed = 0x51_u64;
    for &m in &ms {
        for &n in &ns {
            for &k in &ks {
                seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                check_shape(m, k, n, seed);
            }
        }
    }
}

#[test]
fn zero_matrices_give_positive_zero_bits() {
    let a = Tensor::zeros(&[2 * MR + 1, KC + 2]);
    let b = Tensor::zeros(&[KC + 2, NR + 3]);
    let c = a.matmul(&b);
    for &v in c.data() {
        assert_eq!(v.to_bits(), 0.0f32.to_bits());
    }
}
