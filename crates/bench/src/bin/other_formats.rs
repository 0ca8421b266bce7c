//! **§2.1 check**: AdaptivFloat and 8-bit block floating point vs FP(8,4)
//! with channel/layer scaling. The paper *presumes* "these data formats
//! align with FP8, eliminating the need for a separate comparison" — this
//! study measures that presumption on a trained model.

#![allow(
    clippy::pedantic,
    clippy::string_slice,
    clippy::unusual_byte_groupings,
    clippy::type_complexity
)]

use mersit_core::parse_format;
use mersit_nn::models::{efficientnet_b0_t, vgg_t, Model};
use mersit_nn::{
    argmax_rows, predict_ref, synthetic_images, train_classifier, Ctx, Layer, PlanWeight,
    TrainConfig,
};
use mersit_ptq::{calibrate, AltQuant, Metric, QuantPlan};
use mersit_tensor::{Rng, Tensor};

/// The two §2.1 quantizers at the paper's comparison points.
const ADAPTIVFLOAT: AltQuant = AltQuant::AdaptivFloat {
    exp_bits: 4,
    frac_bits: 3,
};
const BFP8: AltQuant = AltQuant::Bfp {
    mant_bits: 7,
    group: 16,
};

/// Accuracy with `alt` applied per output channel to every rank-≥2
/// weight (as forward overrides, so the model is only read) and
/// tensor-wide to the input and every activation site.
fn eval_alt(model: &Model, mut alt: AltQuant, inputs: &Tensor, labels: &[usize]) -> f64 {
    let mut weights = Vec::new();
    model.net.visit_params_ref("", &mut |_, p| {
        if p.value.shape().len() >= 2 {
            weights.push(PlanWeight::Value(alt.apply_per_channel(&p.value)));
        }
    });
    let n = inputs.shape()[0];
    let mut preds = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        let hi = (i + 50).min(n);
        let x = alt.apply(&inputs.slice_outer(i, hi));
        let mut ctx = Ctx::with_tap(&mut alt).with_overrides(&weights);
        preds.extend(argmax_rows(&model.net.forward_ref(x, &mut ctx)));
        i = hi;
    }
    Metric::Accuracy.score(&preds, labels)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_train, epochs) = if quick { (600, 4) } else { (1500, 6) };
    let ds = synthetic_images(0x07E4, n_train, 300, 10);

    println!("=== S2.1: AdaptivFloat / BFP vs scaled FP8 ===\n");
    println!(
        "{:<20} {:>7} {:>9} {:>13} {:>9}",
        "model", "FP32", "FP(8,4)", "AdaptivFloat", "BFP-8"
    );
    mersit_bench::hr(62);
    let builders: [(&str, fn(usize, usize, &mut Rng) -> Model); 2] =
        [("vgg_t", vgg_t), ("efficientnet_b0_t", efficientnet_b0_t)];
    for (name, build) in builders {
        let mut rng = Rng::new(0x07E5);
        let mut model = build(10, 10, &mut rng);
        train_classifier(
            &mut model.net,
            &ds.train,
            &TrainConfig {
                epochs,
                ..TrainConfig::default()
            },
        );
        let cal = calibrate(&model, &ds.calib.inputs, 32);
        let fp32_preds = predict_ref(&model.net, &ds.test.inputs, 50);
        let fp32 = Metric::Accuracy.score(&fp32_preds, &ds.test.labels);
        let fp84 = {
            let plan = QuantPlan::build(&model, parse_format("FP(8,4)").expect("valid"), &cal);
            let preds = plan.predict(&model, &ds.test.inputs, 50);
            Metric::Accuracy.score(&preds, &ds.test.labels)
        };
        let af = eval_alt(&model, ADAPTIVFLOAT, &ds.test.inputs, &ds.test.labels);
        let bfp = eval_alt(&model, BFP8, &ds.test.inputs, &ds.test.labels);
        println!("{name:<20} {fp32:>7.1} {fp84:>9.1} {af:>13.1} {bfp:>9.1}");
    }
    println!();
    println!("Reading: with channel-/layer-level scaling in place, AdaptivFloat");
    println!("and group-wise BFP land within a few points of FP(8,4) — the");
    println!("paper's justification for omitting them from Table 2.");
}
