//! Throughput trajectory of the batched quantization engine (the
//! `perf_ptq` binary's engine room).
//!
//! Fake-quantizes a ≥1M-element activation buffer through every Table 2
//! format along three paths — the scalar `Format::quantize` loop, the
//! single-threaded `QuantLut` codec, and the LUT with thread fan-out —
//! and writes the elements/sec results to `BENCH_ptq.json` so future
//! optimizations have a baseline to beat.
//!
//! With `MERSIT_OBS=1`, each format × path measurement additionally
//! records a `bench.perf.<path>.<format>` span and the run ends by
//! writing `OBS_perf_ptq.json` (see [`mersit_obs::report`]). The
//! measured buffers are identical either way: instrumentation only
//! observes.
//!
//! The run also times the **full PTQ format sweep** through compiled
//! [`QuantPlan`]s, which walks formats in order and fans each one's
//! batch shards and nested GEMMs out across the work-stealing pool, and
//! records the wall-clocks (total and per format) under the `"sweep"`
//! key of `BENCH_ptq.json`. Comparing runs at different
//! `MERSIT_THREADS` settings shows how the sweep scales with the pool.
//!
//! It also times the FP32 layer kernels where the serving benchmark's
//! set-up runs them: FP32 forwards of the served zoo at batch 1 and 8,
//! and calibrating it, under the `"fp32_forward"` key.
//!
//! With `--repeat R` the whole measurement runs `R` times and the JSON
//! reports the **median** of every rate and the **min** of every
//! wall-clock (plus explicit `*_median` sweep keys), so scheduler jitter
//! from stealing does not pollute the committed baseline.

use mersit_core::{quantize_slice_scalar, table2_formats, Format, FormatRef, QuantLut};
use mersit_nn::models::{mobilenet_v3_t, vgg_t};
use mersit_nn::{Ctx, Layer};
use mersit_obs::report::json_string;
use mersit_ptq::{calibrate, QuantPlan};
use mersit_tensor::{gemm, par, qgemm, Rng, Tensor};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Typical activation scale every throughput row quantizes at.
const QUANT_SCALE: f64 = 0.037;

/// Deterministic Gaussian-ish activation buffer (sum of four uniforms).
#[must_use]
pub fn workload(n: usize) -> Vec<f32> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) as f32 / f32::from_bits(0x4f00_0000) // [0, 1)
    };
    (0..n)
        .map(|_| (next() + next() + next() + next()) * 2.0 - 4.0)
        .collect()
}

/// Times `f` over the buffer, re-seeding it from `src` each repetition,
/// and returns the best elements/sec over `reps` runs (best-of to shave
/// scheduler noise; the buffer reseed is excluded by timing only `f`).
fn best_rate(src: &[f32], reps: usize, mut f: impl FnMut(&mut [f32])) -> f64 {
    let mut buf = src.to_vec();
    let mut best = 0.0f64;
    for _ in 0..reps {
        buf.copy_from_slice(src);
        let t0 = Instant::now();
        f(black_box(&mut buf));
        let dt = t0.elapsed().as_secs_f64();
        best = best.max(src.len() as f64 / dt);
    }
    black_box(&buf);
    best
}

/// One format's measured rates (elements/sec) along the three paths.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Format name.
    pub format: String,
    /// Scalar `Format::quantize` loop.
    pub scalar: f64,
    /// Single-threaded `QuantLut` codec.
    pub lut: f64,
    /// LUT with thread fan-out.
    pub lut_threads: f64,
    /// Median `QuantLut::build` wall-clock at the table's scale, in µs:
    /// the fixed cost a slice pays before the LUT rate applies.
    pub lut_build_us: f64,
}

/// Builds per measured `QuantLut::build` median.
const LUT_BUILDS: usize = 201;

/// Median wall-clock of one `QuantLut::build` of `fmt` at `scale`, in µs.
fn lut_build_us(fmt: &dyn Format, scale: f64) -> f64 {
    let spec = fmt.quant_spec();
    median_us(LUT_BUILDS, || {
        black_box(QuantLut::build(black_box(&spec), black_box(scale)));
    })
}

/// One format's wall-clock contribution to the sweep, summed over models.
#[derive(Debug, Clone)]
pub struct FormatSweep {
    /// Format name.
    pub format: String,
    /// Plan build + predict seconds for this format (all pool
    /// parallelism inside the format).
    pub plan_secs: f64,
}

/// Wall-clock of the full PTQ format sweep through compiled
/// `QuantPlan`s sharing one read-only model.
#[derive(Debug, Clone)]
pub struct SweepBench {
    /// Models swept.
    pub models: Vec<String>,
    /// Number of formats in the sweep grid.
    pub formats: usize,
    /// Evaluation samples per model.
    pub samples: usize,
    /// Threads actually used: the persistent pool's size (workers +
    /// dispatcher), not just the requested `MERSIT_THREADS`.
    pub threads: usize,
    /// Sweep seconds (formats in order, pool parallelism inside each),
    /// summed over models.
    pub plan_secs: f64,
    /// Median sweep seconds across repeats (equals `plan_secs` for a
    /// single run).
    pub plan_secs_median: f64,
    /// Per-format wall-clock breakdown (summed over models).
    pub per_format: Vec<FormatSweep>,
}

/// Times the PTQ format sweep through compiled plans over a shared
/// `&Model`, one format after another.
///
/// `quick` shrinks the grid (4 formats, smaller images/sample counts)
/// for CI smoke runs. Untrained zoo weights are fine here: the sweep
/// exercises exactly the same code paths and the measurement is
/// wall-clock, not accuracy.
pub fn run_sweep_bench(quick: bool) -> SweepBench {
    let _span = mersit_obs::span("bench.sweep");
    let mut formats: Vec<FormatRef> = table2_formats();
    if quick {
        formats.truncate(4);
    }
    let (hw, samples, calib_n, batch) = if quick {
        (8usize, 48usize, 16usize, 16usize)
    } else {
        (10, 96, 32, 24)
    };
    let threads = par::pool_size();
    let mut rng = Rng::new(0xBE7C);
    let models = [vgg_t(hw, 10, &mut rng), mobilenet_v3_t(hw, 10, &mut rng)];
    let calib = Tensor::randn(&[calib_n, 3, hw, hw], 1.0, &mut rng);
    let inputs = Tensor::randn(&[samples, 3, hw, hw], 1.0, &mut rng);

    let mut plan_secs = 0.0f64;
    let mut per_format: Vec<FormatSweep> = formats
        .iter()
        .map(|f| FormatSweep {
            format: f.name(),
            plan_secs: 0.0,
        })
        .collect();
    for model in &models {
        let cal = calibrate(model, &calib, batch);
        // Formats run in order; all pool parallelism lives inside each
        // format (batch shards → nested GEMM tiles), so the per-format
        // wall-clock is a clean latency number, not a time-sliced share
        // of the machine.
        let _leg = mersit_obs::span("bench.sweep.parallel");
        let t0 = Instant::now();
        for (fmt, pf) in formats.iter().zip(&mut per_format) {
            let s0 = Instant::now();
            let plan = QuantPlan::build(model, fmt.clone(), &cal);
            black_box(plan.predict(model, &inputs, batch));
            pf.plan_secs += s0.elapsed().as_secs_f64();
        }
        plan_secs += t0.elapsed().as_secs_f64();
    }

    let bench = SweepBench {
        models: models.iter().map(|m| m.name.clone()).collect(),
        formats: formats.len(),
        samples,
        threads,
        plan_secs,
        plan_secs_median: plan_secs,
        per_format,
    };
    println!(
        "sweep ({} models x {} formats, {} samples): {:.3}s ({} threads)",
        bench.models.len(),
        bench.formats,
        bench.samples,
        bench.plan_secs,
        bench.threads
    );
    bench
}

/// Image size of the zoo the serving benchmark serves
/// (`crates/bench/src/bin/benchmark/spec.rs`).
const SERVED_HW: usize = 10;

/// Seed the serving benchmark builds its zoo from.
const SERVED_ZOO_SEED: u64 = 0x5E4E;

/// One served model's FP32 forward, median µs per call.
#[derive(Debug, Clone)]
pub struct Fp32Row {
    /// Model name.
    pub model: String,
    /// One sample.
    pub b1_us: f64,
    /// A batch of 8.
    pub b8_us: f64,
}

/// The FP32 layer kernels as the serving set-up runs them.
#[derive(Debug, Clone)]
pub struct Fp32Bench {
    /// FP32 forwards of each served model.
    pub models: Vec<Fp32Row>,
    /// Calibrating both models on 16 images in batches of 8, median ms.
    pub calibrate_ms: f64,
}

/// Median wall-clock of `reps` calls of `f`, in µs, after one warm-up.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(samples)
}

/// Times the FP32 forward of the served zoo (`vgg_t` and
/// `mobilenet_v3_t` at 10×10, seed `0x5E4E`, built and calibrated as the
/// serving benchmark builds them) at batch 1 and 8, and the calibration
/// of both models: the im2col, activation, norm and GEMM kernels that
/// every FP32, float-plan and bit-true forward shares. Records no obs
/// span of its own.
#[must_use]
pub fn run_fp32_bench(quick: bool) -> Fp32Bench {
    let (fwd_reps, cal_reps) = if quick { (41, 5) } else { (201, 21) };
    let mut rng = Rng::new(SERVED_ZOO_SEED);
    let models = [
        vgg_t(SERVED_HW, 10, &mut rng),
        mobilenet_v3_t(SERVED_HW, 10, &mut rng),
    ];
    let calibs: Vec<Tensor> = models
        .iter()
        .map(|_| Tensor::randn(&[16, 3, SERVED_HW, SERVED_HW], 1.0, &mut rng))
        .collect();
    let mut x_rng = Rng::new(0xF32F);
    let rows: Vec<Fp32Row> = models
        .iter()
        .map(|model| {
            let mut forward_us = |batch: usize| {
                let x = Tensor::randn(&[batch, 3, SERVED_HW, SERVED_HW], 1.0, &mut x_rng);
                median_us(fwd_reps, || {
                    black_box(model.net.forward_ref(x.clone(), &mut Ctx::new()));
                })
            };
            Fp32Row {
                model: model.name.clone(),
                b1_us: forward_us(1),
                b8_us: forward_us(8),
            }
        })
        .collect();
    let calibrate_ms = median_us(cal_reps, || {
        for (model, calib) in models.iter().zip(&calibs) {
            black_box(calibrate(model, calib, 8));
        }
    }) / 1e3;
    println!("{:<16} {:>10} {:>10}", "fp32 forward", "b1 us", "b8 us");
    for r in &rows {
        println!("{:<16} {:>10.1} {:>10.1}", r.model, r.b1_us, r.b8_us);
    }
    println!("calibrate (both models, 16 images): {calibrate_ms:.3} ms");
    Fp32Bench {
        models: rows,
        calibrate_ms,
    }
}

/// One matmul shape's measured throughput, naive vs packed/blocked.
#[derive(Debug, Clone)]
pub struct GemmRow {
    /// Shape label (where the dims come from in the model zoo).
    pub shape: String,
    /// Output rows.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Naive i-k-j kernel, MFLOP/s (2·m·n·k flops).
    pub naive_mflops: f64,
    /// Packed cache-blocked kernel incl. per-call pack cost, MFLOP/s.
    pub packed_mflops: f64,
    /// `packed / naive`.
    pub speedup: f64,
}

/// Single-thread matmul throughput: the old naive i-k-j kernel against
/// the packed cache-blocked GEMM (pack cost included), over square and
/// skinny shapes drawn from the model zoo's real layer dims. Kernels are
/// called directly (no `par` dispatch) so this isolates the micro-kernel
/// win, and each shape's outputs are asserted bit-identical first.
#[must_use]
pub fn run_gemm_bench() -> Vec<GemmRow> {
    let _span = mersit_obs::span("bench.gemm");
    // (label, m, k, n): im2col rows × patch × out-channels and the
    // classifier/logits linears of the zoo models at bench size.
    let shapes: [(&str, usize, usize, usize); 5] = [
        ("square_256", 256, 256, 256),
        ("vgg_conv3x3", 2400, 144, 32),
        ("mnv3_conv1x1", 1200, 24, 64),
        ("vgg_classifier", 96, 128, 64),
        ("logits_skinny", 96, 64, 10),
    ];
    let reps = 5;
    println!(
        "{:<16} {:>5} {:>5} {:>5} {:>12} {:>12} {:>8}",
        "gemm shape", "m", "k", "n", "naive MF/s", "packed MF/s", "speedup"
    );
    let mut rows = Vec::new();
    for (label, m, k, n) in shapes {
        let mut rng = Rng::new(0x6E44 ^ (m * 31 + k * 7 + n) as u64);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal() as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal() as f32).collect();
        let flops = (2 * m * n * k) as f64;

        let mut naive_out = vec![0.0f32; m * n];
        gemm::matmul_naive_rows(&a, k, &b, n, &mut naive_out);
        let packed = gemm::PackedRhs::pack(&b, k, n);
        let mut packed_out = vec![0.0f32; m * n];
        gemm::gemm_rows(&a, k, &packed, &mut packed_out);
        assert_eq!(
            naive_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            packed_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "kernels diverged on {label}"
        );

        // Criterion-style batched windows: each timing window runs
        // enough iterations to cover ~0.4 GFLOP, so µs-scale shapes are
        // not at the mercy of timer granularity; best window wins.
        let inner = ((4e8 / flops).ceil() as usize).clamp(1, 10_000);
        let mut out = vec![0.0f32; m * n];
        let mut naive_best = 0.0f64;
        for _ in 0..reps {
            let t0 = Instant::now();
            for _ in 0..inner {
                out.fill(0.0);
                gemm::matmul_naive_rows(black_box(&a), k, black_box(&b), n, black_box(&mut out));
            }
            let rate = flops * inner as f64 / t0.elapsed().as_secs_f64();
            naive_best = naive_best.max(rate);
        }
        let mut packed_best = 0.0f64;
        for _ in 0..reps {
            let t0 = Instant::now();
            for _ in 0..inner {
                out.fill(0.0);
                let p = gemm::PackedRhs::pack(black_box(&b), k, n);
                gemm::gemm_rows(black_box(&a), k, &p, black_box(&mut out));
            }
            let rate = flops * inner as f64 / t0.elapsed().as_secs_f64();
            packed_best = packed_best.max(rate);
        }
        black_box(&out);
        let row = GemmRow {
            shape: label.to_owned(),
            m,
            k,
            n,
            naive_mflops: naive_best / 1e6,
            packed_mflops: packed_best / 1e6,
            speedup: packed_best / naive_best,
        };
        println!(
            "{:<16} {:>5} {:>5} {:>5} {:>12.1} {:>12.1} {:>7.2}x",
            row.shape, m, k, n, row.naive_mflops, row.packed_mflops, row.speedup
        );
        rows.push(row);
    }
    rows
}

/// One integer-matmul shape's measured throughput: the serial i-k-j
/// reference against the packed tiling at the scalar tier and at the
/// process-selected SIMD tier.
#[derive(Debug, Clone)]
pub struct QgemmRow {
    /// Shape label (where the dims come from in the model zoo).
    pub shape: String,
    /// Output rows.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Serial i-k-j reference kernel, mega-MACs/s (m·n·k MACs).
    pub naive_mmacs: f64,
    /// Packed kernel forced to the scalar tier, mega-MACs/s.
    pub packed_scalar_mmacs: f64,
    /// Packed kernel at the process-selected SIMD tier, mega-MACs/s.
    pub packed_simd_mmacs: f64,
    /// `packed_simd / packed_scalar` — the vector-tile win alone.
    pub simd_speedup: f64,
}

/// Single-thread bit-true integer GEMM throughput: the serial i-k-j
/// reference against the packed i128-accumulating kernel, at the scalar
/// tier and at the process-selected SIMD tier (same shape grid as
/// [`run_gemm_bench`], code magnitudes typical of Table 2 fixed-point
/// tables). All three outputs are asserted exactly equal first —
/// integer addition is associative, so equality is bitwise.
#[must_use]
pub fn run_qgemm_bench() -> Vec<QgemmRow> {
    let _span = mersit_obs::span("bench.qgemm");
    let shapes: [(&str, usize, usize, usize); 5] = [
        ("square_256", 256, 256, 256),
        ("vgg_conv3x3", 2400, 144, 32),
        ("mnv3_conv1x1", 1200, 24, 64),
        ("vgg_classifier", 96, 128, 64),
        ("logits_skinny", 96, 64, 10),
    ];
    let simd = mersit_core::simd_level();
    let scalar = mersit_core::SimdLevel::Scalar;
    let reps = 5;
    println!(
        "{:<16} {:>5} {:>5} {:>5} {:>12} {:>12} {:>12} {:>8}  (isa {})",
        "qgemm shape", "m", "k", "n", "naive MM/s", "scalar MM/s", "simd MM/s", "speedup", simd
    );
    let mut rows = Vec::new();
    for (label, m, k, n) in shapes {
        let mut rng = Rng::new(0x51E0 ^ (m * 31 + k * 7 + n) as u64);
        // Signed codes spanning the fixed-point range real format tables
        // produce (~2^22 for MERSIT(8,2)).
        let mut code = |len: usize| -> Vec<i64> {
            (0..len)
                .map(|_| {
                    let mag = (rng.next_u64() % (1u64 << 22)) as i64;
                    if rng.next_u64() & 1 == 0 {
                        mag
                    } else {
                        -mag
                    }
                })
                .collect()
        };
        let a = code(m * k);
        let b = code(k * n);
        let macs = (m * n * k) as f64;

        let mut naive_out = vec![0i128; m * n];
        qgemm::qgemm_naive_rows(&a, k, &b, n, &mut naive_out);
        let packed = qgemm::PackedCodeRhs::pack(&b, k, n);
        for level in [scalar, simd] {
            let mut got = vec![0i128; m * n];
            qgemm::qgemm_rows_with_level(level, &a, k, &packed, &mut got);
            assert_eq!(
                got, naive_out,
                "qgemm kernels diverged on {label} ({level})"
            );
        }

        let inner = ((2e8 / macs).ceil() as usize).clamp(1, 10_000);
        let mut out = vec![0i128; m * n];
        let mut best = |f: &mut dyn FnMut(&mut [i128])| -> f64 {
            let mut rate = 0.0f64;
            for _ in 0..reps {
                let t0 = Instant::now();
                for _ in 0..inner {
                    out.fill(0);
                    f(black_box(&mut out));
                }
                rate = rate.max(macs * inner as f64 / t0.elapsed().as_secs_f64());
            }
            rate
        };
        let naive_best =
            best(&mut |o| qgemm::qgemm_naive_rows(black_box(&a), k, black_box(&b), n, o));
        let scalar_best =
            best(&mut |o| qgemm::qgemm_rows_with_level(scalar, black_box(&a), k, &packed, o));
        let simd_best =
            best(&mut |o| qgemm::qgemm_rows_with_level(simd, black_box(&a), k, &packed, o));
        black_box(&out);
        let row = QgemmRow {
            shape: label.to_owned(),
            m,
            k,
            n,
            naive_mmacs: naive_best / 1e6,
            packed_scalar_mmacs: scalar_best / 1e6,
            packed_simd_mmacs: simd_best / 1e6,
            simd_speedup: simd_best / scalar_best,
        };
        println!(
            "{:<16} {:>5} {:>5} {:>5} {:>12.1} {:>12.1} {:>12.1} {:>7.2}x",
            row.shape,
            m,
            k,
            n,
            row.naive_mmacs,
            row.packed_scalar_mmacs,
            row.packed_simd_mmacs,
            row.simd_speedup
        );
        rows.push(row);
    }
    rows
}

/// One full measurement pass: quantization throughput rows, GEMM
/// throughput rows, and the PTQ sweep wall-clocks.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Per-format quantization throughput along the three paths.
    pub formats: Vec<PerfRow>,
    /// Matmul throughput rows.
    pub gemm: Vec<GemmRow>,
    /// Bit-true integer matmul throughput rows.
    pub qgemm: Vec<QgemmRow>,
    /// FP32 forwards and calibration of the served zoo.
    pub fp32: Fp32Bench,
    /// The PTQ plan sweep wall-clocks.
    pub sweep: SweepBench,
}

/// Measures one [`PerfReport`] (printing the human-readable tables)
/// without writing any file.
///
/// # Panics
///
/// Panics if `n < 2^20` (the measurement is too noisy below ~1M
/// elements).
#[must_use]
pub fn measure_perf_ptq(n: usize, quick: bool) -> PerfReport {
    assert!(n >= 1 << 20, "need at least 1M elements for a stable read");
    let threads = par::pool_size();
    let src = workload(n);
    let scale = QUANT_SCALE;
    let reps = 3;
    let mut grid = table2_formats();
    if quick {
        grid.truncate(4);
    }

    mersit_obs::add("bench.perf.elements", n as u64);
    mersit_obs::add("bench.perf.threads", threads as u64);

    println!(
        "perf_ptq: {n} elements, {threads} threads, scale {scale}, simd {}",
        mersit_core::simd_level()
    );
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>8} {:>10} {:>9}",
        "format", "scalar el/s", "lut el/s", "lut+thr el/s", "lut x", "thr x", "build us"
    );

    let mut rows = Vec::new();
    for fmt in grid {
        let fmt: &dyn Format = fmt.as_ref();
        let spec = fmt.quant_spec();
        let lut = QuantLut::build(&spec, scale).expect("supported scale");
        let scalar = {
            let _span = mersit_obs::span_dyn(|| format!("bench.perf.scalar.{}", fmt.name()));
            best_rate(&src, reps, |buf| {
                quantize_slice_scalar(fmt, buf, scale);
            })
        };
        let lut_rate = {
            let _span = mersit_obs::span_dyn(|| format!("bench.perf.lut.{}", fmt.name()));
            best_rate(&src, reps, |buf| lut.apply(buf))
        };
        let thr_rate = {
            let _span = mersit_obs::span_dyn(|| format!("bench.perf.lut_threads.{}", fmt.name()));
            best_rate(&src, reps, |buf| {
                par::par_chunks_mut(buf, 1, par::min_units(8), |_, chunk| lut.apply(chunk));
            })
        };
        let build_us = lut_build_us(fmt, scale);
        println!(
            "{:<14} {:>14.3e} {:>14.3e} {:>14.3e} {:>7.1}x {:>9.1}x {:>9.1}",
            fmt.name(),
            scalar,
            lut_rate,
            thr_rate,
            lut_rate / scalar,
            thr_rate / scalar,
            build_us
        );
        rows.push(PerfRow {
            format: fmt.name(),
            scalar,
            lut: lut_rate,
            lut_threads: thr_rate,
            lut_build_us: build_us,
        });
    }

    let gemm = run_gemm_bench();
    let qgemm = run_qgemm_bench();
    let fp32 = run_fp32_bench(quick);
    let sweep = run_sweep_bench(quick);
    PerfReport {
        formats: rows,
        gemm,
        qgemm,
        fp32,
        sweep,
    }
}

/// Median of a sample set (`0.0` when empty). Rates aggregate by median
/// — robust against a single run that got lucky or unlucky with steals.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => 0.5 * (xs[n / 2 - 1] + xs[n / 2]),
    }
}

/// Minimum of a sample set (`0.0` when empty). Wall-clocks aggregate by
/// min — the cleanest observation of the actual cost, since noise only
/// ever adds time.
fn minimum(xs: Vec<f64>) -> f64 {
    xs.into_iter().reduce(f64::min).unwrap_or(0.0)
}

/// Folds repeated measurements into one report: **median** for every
/// rate (throughput rows, GEMM MFLOP/s), for the per-format LUT build
/// time and for the FP32 forward and calibration times (each already a
/// median of many calls), **min** for every wall-clock
/// (sweep total, per-format seconds) with the total's median kept
/// alongside, speedups recomputed from the aggregates.
///
/// # Panics
///
/// Panics if `reports` is empty.
#[must_use]
pub fn aggregate_reports(reports: &[PerfReport]) -> PerfReport {
    let first = reports.first().expect("at least one measurement");
    let formats = (0..first.formats.len())
        .map(|i| {
            let rs: Vec<&PerfRow> = reports.iter().map(|r| &r.formats[i]).collect();
            PerfRow {
                format: rs[0].format.clone(),
                scalar: median(rs.iter().map(|r| r.scalar).collect()),
                lut: median(rs.iter().map(|r| r.lut).collect()),
                lut_threads: median(rs.iter().map(|r| r.lut_threads).collect()),
                lut_build_us: median(rs.iter().map(|r| r.lut_build_us).collect()),
            }
        })
        .collect();
    let gemm = (0..first.gemm.len())
        .map(|i| {
            let gs: Vec<&GemmRow> = reports.iter().map(|r| &r.gemm[i]).collect();
            let naive = median(gs.iter().map(|g| g.naive_mflops).collect());
            let packed = median(gs.iter().map(|g| g.packed_mflops).collect());
            GemmRow {
                shape: gs[0].shape.clone(),
                m: gs[0].m,
                k: gs[0].k,
                n: gs[0].n,
                naive_mflops: naive,
                packed_mflops: packed,
                speedup: packed / naive,
            }
        })
        .collect();
    let qgemm = (0..first.qgemm.len())
        .map(|i| {
            let qs: Vec<&QgemmRow> = reports.iter().map(|r| &r.qgemm[i]).collect();
            let naive = median(qs.iter().map(|q| q.naive_mmacs).collect());
            let scalar = median(qs.iter().map(|q| q.packed_scalar_mmacs).collect());
            let simd = median(qs.iter().map(|q| q.packed_simd_mmacs).collect());
            QgemmRow {
                shape: qs[0].shape.clone(),
                m: qs[0].m,
                k: qs[0].k,
                n: qs[0].n,
                naive_mmacs: naive,
                packed_scalar_mmacs: scalar,
                packed_simd_mmacs: simd,
                simd_speedup: simd / scalar,
            }
        })
        .collect();
    let fp32 = Fp32Bench {
        models: (0..first.fp32.models.len())
            .map(|i| {
                let rs: Vec<&Fp32Row> = reports.iter().map(|r| &r.fp32.models[i]).collect();
                Fp32Row {
                    model: rs[0].model.clone(),
                    b1_us: median(rs.iter().map(|r| r.b1_us).collect()),
                    b8_us: median(rs.iter().map(|r| r.b8_us).collect()),
                }
            })
            .collect(),
        calibrate_ms: median(reports.iter().map(|r| r.fp32.calibrate_ms).collect()),
    };
    let per_format = (0..first.sweep.per_format.len())
        .map(|i| {
            let fs: Vec<&FormatSweep> = reports.iter().map(|r| &r.sweep.per_format[i]).collect();
            FormatSweep {
                format: fs[0].format.clone(),
                plan_secs: minimum(fs.iter().map(|f| f.plan_secs).collect()),
            }
        })
        .collect();
    let sweep = SweepBench {
        models: first.sweep.models.clone(),
        formats: first.sweep.formats,
        samples: first.sweep.samples,
        threads: first.sweep.threads,
        plan_secs: minimum(reports.iter().map(|r| r.sweep.plan_secs).collect()),
        plan_secs_median: median(reports.iter().map(|r| r.sweep.plan_secs).collect()),
        per_format,
    };
    PerfReport {
        formats,
        gemm,
        qgemm,
        fp32,
        sweep,
    }
}

/// Serializes an (aggregated) report to `BENCH_ptq.json`.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_bench_json(report: &PerfReport, n: usize, scale: f64, repeats: usize) {
    let rows = &report.formats;
    let sweep = &report.sweep;
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"elements\": {n},");
    let _ = writeln!(json, "  \"threads\": {},", sweep.threads);
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    let simd_isa = json_string(&mersit_core::simd_level().to_string());
    let _ = writeln!(json, "  \"simd_isa\": {simd_isa},");
    json.push_str("  \"formats\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"format\": {}, \"scalar_elems_per_sec\": {:.4e}, \
             \"lut_elems_per_sec\": {:.4e}, \"lut_threads_elems_per_sec\": {:.4e}, \
             \"lut_speedup\": {:.2}, \"threads_speedup\": {:.2}, \"lut_build_us\": {:.2}}}",
            json_string(&r.format),
            r.scalar,
            r.lut,
            r.lut_threads,
            r.lut / r.scalar,
            r.lut_threads / r.scalar,
            r.lut_build_us
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"gemm\": [\n");
    for (i, g) in report.gemm.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shape\": {}, \"m\": {}, \"k\": {}, \"n\": {}, \
             \"naive_mflops\": {:.1}, \"packed_mflops\": {:.1}, \"speedup\": {:.2}}}",
            json_string(&g.shape),
            g.m,
            g.k,
            g.n,
            g.naive_mflops,
            g.packed_mflops,
            g.speedup
        );
        json.push_str(if i + 1 < report.gemm.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"qgemm\": [\n");
    for (i, q) in report.qgemm.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shape\": {}, \"m\": {}, \"k\": {}, \"n\": {}, \
             \"naive_mmacs\": {:.1}, \"packed_scalar_mmacs\": {:.1}, \
             \"packed_simd_mmacs\": {:.1}, \"simd_speedup\": {:.2}}}",
            json_string(&q.shape),
            q.m,
            q.k,
            q.n,
            q.naive_mmacs,
            q.packed_scalar_mmacs,
            q.packed_simd_mmacs,
            q.simd_speedup
        );
        json.push_str(if i + 1 < report.qgemm.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    let fp32 = &report.fp32;
    json.push_str("  \"fp32_forward\": {\n");
    let _ = writeln!(json, "    \"hw\": {SERVED_HW},");
    let _ = writeln!(json, "    \"zoo_seed\": {SERVED_ZOO_SEED},");
    json.push_str("    \"models\": [\n");
    for (i, r) in fp32.models.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"model\": {}, \"b1_us\": {:.1}, \"b8_us\": {:.1}}}",
            json_string(&r.model),
            r.b1_us,
            r.b8_us
        );
        json.push_str(if i + 1 < fp32.models.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ],\n");
    let _ = writeln!(json, "    \"calibrate_ms\": {:.3}", fp32.calibrate_ms);
    json.push_str("  },\n");
    json.push_str("  \"sweep\": {\n");
    let names: Vec<String> = sweep.models.iter().map(|m| json_string(m)).collect();
    let _ = writeln!(json, "    \"models\": [{}],", names.join(", "));
    let _ = writeln!(json, "    \"formats\": {},", sweep.formats);
    let _ = writeln!(json, "    \"samples\": {},", sweep.samples);
    let _ = writeln!(json, "    \"threads\": {},", sweep.threads);
    let _ = writeln!(json, "    \"plan_secs\": {:.4},", sweep.plan_secs);
    let _ = writeln!(
        json,
        "    \"plan_secs_median\": {:.4},",
        sweep.plan_secs_median
    );
    json.push_str("    \"per_format\": [\n");
    for (i, pf) in sweep.per_format.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"format\": {}, \"plan_secs\": {:.4}}}",
            json_string(&pf.format),
            pf.plan_secs
        );
        json.push_str(if i + 1 < sweep.per_format.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n");
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_ptq.json", &json).expect("write BENCH_ptq.json");
    println!("wrote BENCH_ptq.json");
}

/// Measures the sweep `repeats` times, aggregates (median rates, min
/// wall-clocks — see [`aggregate_reports`]), writes `BENCH_ptq.json`
/// once, and returns the aggregate.
///
/// # Panics
///
/// Panics if `n < 2^20` or the JSON cannot be written.
pub fn run_perf_ptq_repeat(n: usize, quick: bool, repeats: usize) -> PerfReport {
    let repeats = repeats.max(1);
    let reports: Vec<PerfReport> = (0..repeats)
        .map(|r| {
            if repeats > 1 {
                println!("--- repeat {}/{repeats} ---", r + 1);
            }
            measure_perf_ptq(n, quick)
        })
        .collect();
    let agg = aggregate_reports(&reports);
    write_bench_json(&agg, n, QUANT_SCALE, repeats);
    let best = agg
        .formats
        .iter()
        .map(|r| r.lut / r.scalar)
        .fold(0.0f64, f64::max);
    println!("best single-threaded LUT speedup: {best:.1}x");
    agg
}
