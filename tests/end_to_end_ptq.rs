//! Integration: the full PTQ pipeline — train, calibrate, quantize,
//! evaluate — reproducing the qualitative format ordering of Table 2 on a
//! small scale.

use mersit_repro::core::parse_format;
use mersit_repro::nn::models::{mobilenet_v3_t, vgg_t};
use mersit_repro::nn::{synthetic_images, train_classifier, Optimizer, TrainConfig};
use mersit_repro::ptq::{calibrate, evaluate_model, rmse_report, Metric};
use mersit_repro::tensor::Rng;

fn quick_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 32,
        opt: Optimizer::adam(2e-3),
        ..TrainConfig::default()
    }
}

/// On a benign plain-conv model every 8-bit format holds accuracy
/// (the VGG row of Table 2).
#[test]
fn benign_model_every_format_holds() {
    let ds = synthetic_images(21, 700, 200, 10);
    let mut rng = Rng::new(77);
    let mut model = vgg_t(10, 10, &mut rng);
    train_classifier(&mut model.net, &ds.train, &quick_cfg(7));
    let formats = vec![
        parse_format("INT8").unwrap(),
        parse_format("FP(8,4)").unwrap(),
        parse_format("Posit(8,1)").unwrap(),
        parse_format("MERSIT(8,2)").unwrap(),
    ];
    let (row, _) = evaluate_model(&model, &ds, &formats, Metric::Accuracy, 50);
    assert!(row.fp32 > 65.0, "fp32 failed to train: {}", row.fp32);
    for s in &row.scores {
        assert!(
            s.score > row.fp32 - 8.0,
            "{} dropped too far: {} vs {}",
            s.format,
            s.score,
            row.fp32
        );
    }
}

/// On the h-swish + SE model the narrow-range formats lose clearly more
/// accuracy than MERSIT(8,2)/Posit(8,1) — the MobileNet_v3 row shape.
#[test]
fn range_hungry_model_separates_formats() {
    let ds = synthetic_images(23, 700, 250, 10);
    let mut rng = Rng::new(42);
    let mut model = mobilenet_v3_t(10, 10, &mut rng);
    train_classifier(&mut model.net, &ds.train, &quick_cfg(5));
    let formats = vec![
        parse_format("Posit(8,0)").unwrap(),
        parse_format("INT8").unwrap(),
        parse_format("Posit(8,1)").unwrap(),
        parse_format("MERSIT(8,2)").unwrap(),
    ];
    let (row, _) = evaluate_model(&model, &ds, &formats, Metric::Accuracy, 50);
    assert!(row.fp32 > 60.0, "fp32 failed to train: {}", row.fp32);
    let s = |n: &str| row.score_of(n).unwrap();
    let robust = s("MERSIT(8,2)").min(s("Posit(8,1)"));
    let narrow = s("Posit(8,0)").min(s("INT8"));
    assert!(
        robust >= narrow,
        "robust formats ({robust}) should beat narrow-range ones ({narrow})"
    );
    assert!(
        s("MERSIT(8,2)") > row.fp32 - 10.0,
        "MERSIT should stay near FP32: {} vs {}",
        s("MERSIT(8,2)"),
        row.fp32
    );
}

/// Fig. 6 shape: MERSIT(8,2) RMSE comparable to Posit(8,1), lower than
/// FP(8,4).
#[test]
fn rmse_ordering_matches_fig6() {
    let ds = synthetic_images(29, 400, 100, 8);
    let mut rng = Rng::new(5);
    let mut model = vgg_t(8, 10, &mut rng);
    train_classifier(&mut model.net, &ds.train, &quick_cfg(3));
    let cal = calibrate(&model, &ds.calib.inputs, 32);
    let sample = ds.test.inputs.slice_outer(0, 32);
    let rep = |n: &str| {
        let fmt = parse_format(n).unwrap();
        rmse_report(&model, &cal, fmt.as_ref(), &sample, 16)
    };
    let me = rep("MERSIT(8,2)");
    let po = rep("Posit(8,1)");
    let fp = rep("FP(8,4)");
    assert!(
        me.combined() < fp.combined(),
        "MERSIT {} should beat FP(8,4) {}",
        me.combined(),
        fp.combined()
    );
    assert!(
        me.combined() < po.combined() * 1.3,
        "MERSIT {} should be comparable to Posit {}",
        me.combined(),
        po.combined()
    );
}
