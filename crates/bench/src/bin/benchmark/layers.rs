//! Per-layer timings for the `--trace 1` run, taken after the load from
//! outside the server: this module calls each layer's public functions
//! on the workload's own plans, calibrated scales and request tensors,
//! and times the calls.
//!
//! Time spent *inside* a plan forward is read from spans the plan
//! already records: `ptq.layer.<path>` around each activation site's
//! `quantize_tensor`, and `ptq.bittrue.gemm` around each bit-true
//! product. Recording is switched on for those forwards only. Timed in
//! place like this, quantization explains the float plan's cost over
//! FP32; timed alone, back to back on one tensor, the same calls ran
//! about 1.6x faster (warm caches, reused allocations).

use crate::spec::{Key, Workload};
use crate::stats::{median, Mean};
use crate::stream::{batch, zoo_entry, SAMPLE_SHAPE};
use mersit_core::{parse_format, simd_level, FixTable, FormatRef, QuantLut, LUT_MIN_LEN};
use mersit_nn::{predict_one_batch_ref, Ctx, Layer, Model, Site, Tap};
use mersit_ptq::{
    channel_max_abs, layer_macs, scale_anchor, site_scale, Calibration, Executor, FormatAssignment,
    QuantPlan,
};
use mersit_serve::wire::{self, WireRequest};
use mersit_serve::Response;
use mersit_tensor::gemm::gemm_rows;
use mersit_tensor::qgemm::qgemm_rows_with_level;
use mersit_tensor::{par_chunks_mut, PackedCodeRhs, PackedRhs, Rng, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each timing is the median of at least `MIN_REPS` calls, and of more
/// while its `BUDGET` lasts (at most `MAX_REPS`).
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 400;
const BUDGET: Duration = Duration::from_millis(15);
/// Recorded forwards per span reading; the reading is their median.
const SPAN_REPS: usize = 15;
/// Idle gap before each cold pool dispatch.
const IDLE_GAP: Duration = Duration::from_millis(5);
const IDLE_REPS: usize = 20;
/// Frames per wire codec timing.
const CODEC_FRAMES: usize = 64;
/// Batch of the `.b8` timings.
const B8: usize = 8;
/// Seed of the GEMM timings' input rows.
const GEMM_SEED: u64 = 0x6E33;

/// Median wall time of `f` in µs, after one untimed call.
fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    let mut v = Vec::new();
    let t0 = Instant::now();
    while v.len() < MIN_REPS || (v.len() < MAX_REPS && t0.elapsed() < BUDGET) {
        let s = Instant::now();
        f();
        v.push(s.elapsed().as_secs_f64() * 1e6);
    }
    median(&v).expect("timed at least once")
}

/// Time inside the plan's own spans per `forward`, µs, median over
/// `SPAN_REPS` recorded forwards: the `ptq.layer.*` spans (activation
/// quantization) and `ptq.bittrue.gemm` (bit-true products).
fn span_us(mut forward: impl FnMut()) -> (f64, f64) {
    forward();
    mersit_obs::set_enabled(true);
    let (mut sites, mut gemms) = (Vec::new(), Vec::new());
    for _ in 0..SPAN_REPS {
        mersit_obs::reset();
        forward();
        let spans = mersit_obs::global().snapshot().spans;
        let us = |want: &dyn Fn(&str) -> bool| {
            let ns: u64 = spans
                .iter()
                .filter(|s| want(&s.name))
                .map(|s| s.stats.total_ns)
                .sum();
            ns as f64 / 1e3
        };
        sites.push(us(&|n| n.starts_with("ptq.layer.")));
        gemms.push(us(&|n| n == "ptq.bittrue.gemm"));
    }
    mersit_obs::set_enabled(false);
    mersit_obs::reset();
    let med = |v: &[f64]| median(v).expect("SPAN_REPS is positive");
    (med(&sites), med(&gemms))
}

/// A tap that passes every activation through, keeping a copy by site.
#[derive(Default)]
struct Recorder(Vec<(usize, Tensor)>);

impl Tap for Recorder {
    fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
        self.0.push((site.id.index(), t.clone()));
        t
    }
}

/// The FP32 forward's activation at every calibrated site, on `x`:
/// the shapes the plan quantizes, with values that differ from the
/// quantized forward's only by quantization error.
fn activations(model: &Model, cal: &Calibration, x: &Tensor) -> Vec<(usize, Tensor)> {
    let mut rec = Recorder::default();
    {
        let mut ctx = Ctx::compiled(cal.sites(), &mut rec);
        black_box(model.net.forward_ref(x.clone(), &mut ctx));
    }
    rec.0
}

/// `QuantLut::build` summed over the sites that `quantize_slice` sends
/// down the LUT path at batch 1, and `QuantLut::apply` over their
/// batch-8 activations: (build µs, apply µs, elements applied).
fn lut_us(
    model: &Model,
    cal: &Calibration,
    assign: &FormatAssignment,
    (x1, x8): (&Tensor, &Tensor),
) -> (f64, f64, usize) {
    // Each site's format and calibrated scale, resolved as the plan does.
    let scales: Vec<Option<(FormatRef, f64)>> = cal
        .sites()
        .iter()
        .zip(cal.site_maxima())
        .map(|((_, path), &max)| {
            let f = assign.format_for(path);
            site_scale(scale_anchor(f.as_ref()), max).map(|s| (f.clone(), s))
        })
        .collect();
    let lut_sites = |x: &Tensor| -> Vec<(FormatRef, f64, Tensor)> {
        activations(model, cal, x)
            .into_iter()
            .filter_map(|(i, t)| {
                let (f, s) = scales.get(i).cloned().flatten()?;
                (t.len() >= LUT_MIN_LEN && QuantLut::supports(s)).then_some((f, s, t))
            })
            .collect()
    };
    let build = lut_sites(x1)
        .iter()
        .map(|(f, s, _)| {
            time_us(|| {
                black_box(QuantLut::build(&f.quant_spec(), *s));
            })
        })
        .sum();
    let (mut apply, mut elems) = (0.0, 0);
    for (f, s, t) in lut_sites(x8) {
        let lut = QuantLut::build(&f.quant_spec(), s).expect("scale supported");
        let mut buf = t.data().to_vec();
        apply += time_us(|| lut.apply(black_box(&mut buf)));
        elems += buf.len();
    }
    (build, apply, elems)
}

/// MERSIT(8,2) fixed-point operands of one GEMM, encoded the way the
/// bit-true engine encodes them: per-row activation scales, per-channel
/// weight scales.
fn fixed_operands(x2: &Tensor, w: &Tensor) -> (Vec<i64>, PackedCodeRhs) {
    let fmt = &parse_format("MERSIT(8,2)").expect("MERSIT(8,2) parses");
    let table = &FixTable::build(fmt.as_ref()).expect("MERSIT(8,2) has a fixed-point table");
    let anchor = fmt.scale_anchor();
    let scale = |m: f32| {
        if m > 0.0 {
            f64::from(m) / anchor
        } else {
            1.0
        }
    };
    let encode = |data: &[f32], k: usize, scales: &[f64]| -> Vec<i64> {
        data.chunks_exact(k)
            .zip(scales)
            .flat_map(|(row, &s)| {
                row.iter()
                    .map(move |&x| table.fix(fmt.encode(f64::from(x) / s)))
            })
            .collect()
    };
    let (n, k) = (w.shape()[0], w.shape()[1]);
    let row_scales: Vec<f64> = x2
        .data()
        .chunks_exact(k)
        .map(|r| scale(r.iter().fold(0.0f32, |m, &v| m.max(v.abs()))))
        .collect();
    let col_scales: Vec<f64> = channel_max_abs(w).into_iter().map(scale).collect();
    let a = encode(x2.data(), k, &row_scales);
    let b = encode(w.data(), k, &col_scales);
    (a, PackedCodeRhs::pack_t(&b, n, k))
}

/// Float and fixed-point GEMM time (µs) and MACs over every GEMM layer
/// of `model` at batch 8. Each layer multiplies `8 × spatial` seeded
/// input rows by its weight `[n, k]`, where `layer_macs` counts
/// `n × k × spatial` MACs per sample.
fn gemm_us(model: &Model, x1: &Tensor) -> ((f64, u64), (f64, u64)) {
    // Rank-≥2 parameters in visit order, as `layer_macs` lists them.
    let mut weights = Vec::new();
    model.net.visit_params_ref("", &mut |_, p| {
        if p.value.shape().len() >= 2 {
            weights.push((p.gemm_rhs && p.value.shape().len() == 2).then(|| p.value.clone()));
        }
    });
    let macs = layer_macs(model, x1);
    assert_eq!(weights.len(), macs.len(), "layer_macs lists every weight");
    let mut rng = Rng::new(GEMM_SEED);
    let level = simd_level();
    let (mut gemm, mut qgemm) = ((0.0, 0u64), (0.0, 0u64));
    for (w, layer) in weights.iter().zip(&macs) {
        let Some(w) = w else { continue };
        let (n, k) = (w.shape()[0], w.shape()[1]);
        let rows = B8 * usize::try_from(layer.macs).expect("MACs fit usize") / (n * k);
        if rows == 0 {
            continue;
        }
        let x2 = Tensor::randn(&[rows, k], 1.0, &mut rng);
        let layer_macs = (rows * k * n) as u64;
        let packed = PackedRhs::pack_t(w.data(), n, k);
        let mut out = vec![0.0f32; rows * n];
        gemm.0 += time_us(|| {
            out.fill(0.0);
            gemm_rows(x2.data(), k, &packed, &mut out);
            black_box(&out);
        });
        gemm.1 += layer_macs;
        let (a, packed) = fixed_operands(&x2, w);
        let mut out = vec![0i128; rows * n];
        qgemm.0 += time_us(|| {
            out.fill(0);
            qgemm_rows_with_level(level, &a, k, &packed, &mut out);
            black_box(&out);
        });
        qgemm.1 += layer_macs;
    }
    (gemm, qgemm)
}

/// Timings of one warm key.
#[derive(Default)]
struct KeyTimes {
    forward_b1: f64,
    forward_b8: f64,
    fp32_b1: f64,
    fp32_b8: f64,
    /// Plan build, ms (quantized keys).
    build_ms: Option<f64>,
    sites_b1: Option<f64>,
    sites_b8: Option<f64>,
    lut_build: Option<f64>,
    /// LUT apply µs and elements.
    lut_apply: (f64, usize),
    bittrue_b1: Option<f64>,
    bittrue_b8: Option<f64>,
    /// Float and fixed-point GEMM µs and MACs at batch 8.
    gemm: (f64, u64),
    qgemm: (f64, u64),
}

fn measure_key(key: &Key, model: &Model, cal: &Calibration, x1: &Tensor, x8: &Tensor) -> KeyTimes {
    let fp32 = |x: &Tensor| {
        time_us(|| {
            black_box(predict_one_batch_ref(&model.net, x.clone()));
        })
    };
    let (gemm, qgemm) = gemm_us(model, x1);
    let mut kt = KeyTimes {
        fp32_b1: fp32(x1),
        fp32_b8: fp32(x8),
        gemm,
        qgemm,
        ..KeyTimes::default()
    };
    let Some(spec) = key.spec else {
        kt.forward_b1 = kt.fp32_b1;
        kt.forward_b8 = kt.fp32_b8;
        return kt;
    };
    let assign = FormatAssignment::parse(spec).expect("workload specs parse");
    let build = || QuantPlan::build_with(model, assign.clone(), cal, key.executor);
    kt.build_ms = Some(
        time_us(|| {
            black_box(build());
        }) / 1e3,
    );
    let plan = build();
    let run = |x: &Tensor| {
        black_box(plan.predict_one_batch(model, x.clone()));
    };
    kt.forward_b1 = time_us(|| run(x1));
    kt.forward_b8 = time_us(|| run(x8));
    let (sites_b1, bittrue_b1) = span_us(|| run(x1));
    let (sites_b8, bittrue_b8) = span_us(|| run(x8));
    kt.sites_b1 = Some(sites_b1);
    kt.sites_b8 = Some(sites_b8);
    if key.executor == Executor::BitTrue {
        kt.bittrue_b1 = Some(bittrue_b1);
        kt.bittrue_b8 = Some(bittrue_b8);
    }
    let (lut_build, apply_us, elems) = lut_us(model, cal, &assign, (x1, x8));
    kt.lut_build = Some(lut_build);
    kt.lut_apply = (apply_us, elems);
    kt
}

/// Request frames of this workload, decoded one after another; and
/// response frames, encoded one after another. Nanoseconds per frame.
fn wire_codec_ns(workload: &Workload, samples: &[Tensor]) -> (f64, f64) {
    let frames: Vec<Vec<u8>> = (0..CODEC_FRAMES)
        .map(|i| {
            let key = workload.keys[i % workload.keys.len()];
            let mut out = Vec::new();
            wire::encode_request(
                &WireRequest {
                    id: i as u64,
                    model: key.model.to_owned(),
                    assignment: key.spec.map(str::to_owned),
                    executor: Some(key.executor),
                    shape: SAMPLE_SHAPE.to_vec(),
                    data: samples[i % samples.len()].data().to_vec(),
                },
                &mut out,
            );
            out
        })
        .collect();
    let decode = time_us(|| {
        for f in &frames {
            black_box(wire::decode_frame(f, f.len()).expect("request frames decode"));
        }
    });
    let resp = Response {
        prediction: 3,
        batch_size: 8,
        queue_us: 120,
        total_us: 480,
    };
    let mut out = Vec::with_capacity(CODEC_FRAMES * 64);
    let encode = time_us(|| {
        out.clear();
        for i in 0..CODEC_FRAMES {
            wire::encode_response(i as u64, &resp, &mut out);
        }
        black_box(&out);
    });
    let per_frame_ns = |us: f64| us * 1e3 / CODEC_FRAMES as f64;
    (per_frame_ns(decode), per_frame_ns(encode))
}

/// One pool dispatch of trivial chunks, warm (back to back) and after
/// `IDLE_GAP` of idleness, µs.
fn pool_dispatch_us() -> (f64, f64) {
    let mut units = [0u8; 8];
    let mut dispatch = || {
        par_chunks_mut(&mut units, 1, 1, |_, c| {
            black_box(c);
        });
    };
    let warm = time_us(&mut dispatch);
    let idle: Vec<f64> = (0..IDLE_REPS)
        .map(|_| {
            std::thread::sleep(IDLE_GAP);
            let t = Instant::now();
            dispatch();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    (warm, median(&idle).expect("timed at least once"))
}

/// Every outside-in per-layer metric of `workload`, by name.
pub fn measure(
    workload: &Workload,
    zoo: &[(Model, Calibration)],
    samples: &[Tensor],
) -> Vec<(&'static str, f64)> {
    let (x1, x8) = (batch(samples, 1), batch(samples, B8));
    let keys: Vec<KeyTimes> = workload
        .keys
        .iter()
        .map(|key| {
            let (model, cal) = zoo_entry(zoo, key.model);
            measure_key(key, model, cal, &x1, &x8)
        })
        .collect();
    let avg = |f: fn(&KeyTimes) -> f64| keys.iter().map(f).collect::<Mean>().get();
    let avg_some =
        |f: fn(&KeyTimes) -> Option<f64>| keys.iter().filter_map(f).collect::<Mean>().get();
    let gmacs = |f: fn(&KeyTimes) -> (f64, u64)| {
        let (us, macs) = keys
            .iter()
            .map(f)
            .fold((0.0, 0u64), |(u, m), (du, dm)| (u + du, m + dm));
        macs as f64 / us / 1e3
    };
    let (decode_ns, encode_ns) = wire_codec_ns(workload, samples);
    let (warm_us, idle_us) = pool_dispatch_us();
    let mut out = vec![
        ("serve.net.decode_ns", decode_ns),
        ("serve.net.encode_ns", encode_ns),
        (
            "ptq.plan.forward_us.b1",
            avg(|k| k.forward_b1).expect("a workload has keys"),
        ),
        (
            "ptq.plan.forward_us.b8",
            avg(|k| k.forward_b8).expect("keys"),
        ),
        ("nn.forward_fp32_us.b1", avg(|k| k.fp32_b1).expect("keys")),
        ("nn.forward_fp32_us.b8", avg(|k| k.fp32_b8).expect("keys")),
        ("tensor.gemm.gmacs.b8", gmacs(|k| k.gemm)),
        ("tensor.qgemm.gmacs.b8", gmacs(|k| k.qgemm)),
        ("tensor.pool.dispatch_us.warm", warm_us),
        ("tensor.pool.dispatch_us.idle", idle_us),
    ];
    let builds: Vec<f64> = keys.iter().filter_map(|k| k.build_ms).collect();
    if let Some(build_ms) = median(&builds) {
        out.push(("serve.cache.build_ms", build_ms));
    }
    if let Some(sites_b1) = avg_some(|k| k.sites_b1) {
        // The quantized keys' own forward gap over FP32.
        let quantized = |f: fn(&KeyTimes) -> f64| {
            let m: Mean = keys
                .iter()
                .filter(|k| k.sites_b1.is_some())
                .map(f)
                .collect();
            m.get().expect("a quantized key")
        };
        let gap = quantized(|k| k.forward_b1) - quantized(|k| k.fp32_b1);
        out.push(("ptq.quantize.sites_us.b1", sites_b1));
        out.push((
            "ptq.quantize.sites_us.b8",
            avg_some(|k| k.sites_b8).expect("b8"),
        ));
        out.push(("ptq.quantize.explained_frac.b1", sites_b1 / gap));
        out.push((
            "core.lut.build_us",
            avg_some(|k| k.lut_build).expect("luts"),
        ));
        let (us, elems) = keys.iter().fold((0.0, 0usize), |(u, e), k| {
            (u + k.lut_apply.0, e + k.lut_apply.1)
        });
        if elems > 0 {
            out.push(("core.lut.apply_ns_per_elem", us * 1e3 / elems as f64));
        }
    }
    if let Some(b1) = avg_some(|k| k.bittrue_b1) {
        out.push(("ptq.bittrue.gemm_us.b1", b1));
        out.push((
            "ptq.bittrue.gemm_us.b8",
            avg_some(|k| k.bittrue_b8).expect("b8"),
        ));
    }
    out
}
