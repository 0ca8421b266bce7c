//! The bit-true engine's row split at every pool size: a MERSIT(8,2)
//! GEMM large enough that the encode-to-fixed-point pass, the integer
//! GEMM and the epilogue all split across threads must equal the scalar
//! reference ([`mersit_ptq::dot_bit_true`] plus the output scaling) bit
//! for bit at pool sizes 1, 2 and 7.
//!
//! `MERSIT_THREADS` is a process-global latch, so the sweep lives in one
//! `#[test]` and re-latches via `pool::shutdown()`.

use mersit_core::fixpoint::FixTable;
use mersit_core::{parse_format, Format};
use mersit_nn::BitTrueGemm;
use mersit_ptq::{dot_bit_true, QuantGemm};
use mersit_tensor::{pool, Rng, Tensor};

#[test]
fn split_engine_matches_scalar_reference_at_every_thread_count() {
    let (rows, k, n) = (64, 288, 40);
    let fmt = parse_format("MERSIT(8,2)").unwrap();
    let mut rng = Rng::new(0xB17);
    let w = Tensor::randn(&[n, k], 0.5, &mut rng);
    // Rows spanning four decades, so every row has its own scale.
    let data = (0..rows)
        .flat_map(|i| {
            let scale = 10f32.powi(i as i32 % 4 - 2);
            (0..k)
                .map(|_| rng.normal() as f32 * scale)
                .collect::<Vec<_>>()
        })
        .collect();
    let x = Tensor::from_vec(data, &[rows, k]);
    let eng = QuantGemm::build(fmt.clone(), &w);
    assert!(!eng.is_wide());

    let table = FixTable::build(fmt.as_ref()).unwrap();
    let f: &dyn Format = fmt.as_ref();
    let encode = |t: &Tensor, scales: &[f64]| -> Vec<u16> {
        t.data()
            .chunks_exact(k)
            .zip(scales)
            .flat_map(|(row, &s)| row.iter().map(move |&v| f.encode(f64::from(v) / s)))
            .collect()
    };
    let s_a = eng.row_scales(&x);
    let a_codes = encode(&x, &s_a);
    let w_codes = encode(&w, eng.col_scales());
    let lsb = 2f64.powi(table.lsb_exp());
    let want: Vec<f32> = (0..rows * n)
        .map(|e| {
            let (i, j) = (e / n, e % n);
            let acc = dot_bit_true(
                &table,
                &w_codes[j * k..(j + 1) * k],
                &a_codes[i * k..(i + 1) * k],
                eng.acc_width(),
            );
            (acc as f64 * lsb * s_a[i] * eng.col_scales()[j]) as f32
        })
        .collect();

    for threads in [1usize, 2, 7] {
        std::env::set_var("MERSIT_THREADS", threads.to_string());
        pool::shutdown(); // re-latch the pool at the new size
        let out = eng.gemm(&x);
        assert_eq!(out.shape(), &[rows, n]);
        for (e, (got, want)) in out.data().iter().zip(&want).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "({}, {}) at {threads} threads",
                e / n,
                e % n
            );
        }
    }
    std::env::remove_var("MERSIT_THREADS");
    pool::shutdown();
}
