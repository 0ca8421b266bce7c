//! PTQ walkthrough on a vision model: train a MobileNetV3-style network on
//! the synthetic image task, calibrate on a small subset, and compare
//! 8-bit formats — a single row of the paper's Table 2.
//!
//! Run with: `cargo run --release --example ptq_vision`

use mersit_core::parse_format;
use mersit_nn::models::mobilenet_v3_t;
use mersit_nn::{synthetic_images, train_classifier, Optimizer, TrainConfig};
use mersit_ptq::{evaluate_model, Metric};
use mersit_tensor::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data + model.
    let ds = synthetic_images(7, 800, 250, 10);
    let mut rng = Rng::new(42);
    let mut model = mobilenet_v3_t(10, ds.num_classes, &mut rng);
    println!("training {} on {} ...", model.name, ds.name);

    // 2. Pre-train in FP32 (the paper starts from pre-trained models).
    let cfg = TrainConfig {
        epochs: 5,
        batch_size: 32,
        opt: Optimizer::adam(2e-3),
        ..TrainConfig::default()
    };
    let losses = train_classifier(&mut model.net, &ds.train, &cfg);
    println!(
        "  loss: {:.3} -> {:.3}",
        losses[0],
        losses[losses.len() - 1]
    );

    // 3. PTQ: calibrate once, evaluate each format.
    let formats = vec![
        parse_format("INT8")?,
        parse_format("FP(8,2)")?,
        parse_format("FP(8,4)")?,
        parse_format("Posit(8,0)")?,
        parse_format("Posit(8,1)")?,
        parse_format("MERSIT(8,2)")?,
    ];
    let (row, cal) = evaluate_model(&model, &ds, &formats, Metric::Accuracy, 50);
    println!(
        "\ncalibrated {} activation sites on {} samples",
        cal.num_sites(),
        ds.calib.len()
    );
    println!("\n{:<14} accuracy", "format");
    println!("{:<14} {:6.1}%  (baseline)", "FP32", row.fp32);
    for s in &row.scores {
        let drop = row.fp32 - s.score;
        println!("{:<14} {:6.1}%  (drop {drop:+.1})", s.format, s.score);
    }
    println!("\nExpected shape: MERSIT(8,2)/Posit(8,1) stay near FP32 while the");
    println!("narrow-range formats (INT8, FP(8,2), Posit(8,0)) lose accuracy on");
    println!("this h-swish + squeeze-excitation model.");
    Ok(())
}
