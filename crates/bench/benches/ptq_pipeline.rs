//! Criterion benches: end-to-end PTQ pipeline throughput — tensor
//! fake-quantization and full calibrate+evaluate on a small model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mersit_core::parse_format;
use mersit_nn::models::vgg_t;
use mersit_nn::synthetic_images;
use mersit_ptq::{calibrate, quantize_tensor, scale_for, QuantPlan};
use mersit_tensor::{Rng, Tensor};
use std::hint::black_box;

fn bench_quantize_tensor(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let t = Tensor::randn(&[64 * 1024], 1.0, &mut rng);
    let mut g = c.benchmark_group("quantize_tensor_64k");
    g.throughput(Throughput::Elements(t.len() as u64));
    for name in ["INT8", "FP(8,4)", "Posit(8,1)", "MERSIT(8,2)"] {
        let fmt = parse_format(name).expect("valid");
        let s = scale_for(fmt.as_ref(), t.max_abs());
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| quantize_tensor(fmt.as_ref(), black_box(&t), s));
        });
    }
    g.finish();
}

fn bench_calibrate_and_eval(c: &mut Criterion) {
    let mut rng = Rng::new(2);
    let model = vgg_t(8, 10, &mut rng);
    let ds = synthetic_images(9, 64, 32, 8);
    let fmt = parse_format("MERSIT(8,2)").expect("valid");
    c.bench_function("calibrate_64_images", |b| {
        b.iter(|| calibrate(&model, black_box(&ds.calib.inputs), 16));
    });
    let cal = calibrate(&model, &ds.calib.inputs, 16);
    c.bench_function("quantized_inference_32_images", |b| {
        b.iter(|| {
            QuantPlan::build(&model, fmt.clone(), &cal).predict(
                &model,
                black_box(&ds.test.inputs),
                16,
            )
        });
    });
}

criterion_group!(benches, bench_quantize_tensor, bench_calibrate_and_eval);
criterion_main!(benches);
