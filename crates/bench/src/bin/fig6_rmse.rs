//! Regenerates **Fig. 6**: the quantization RMSE of FP(8,4), Posit(8,1)
//! and MERSIT(8,2) on the ResNet50-, MobileNetV3- and EfficientNet-B0-style
//! models (weights per-channel, activations per-layer with calibrated
//! scales).

#![allow(
    clippy::pedantic,
    clippy::string_slice,
    clippy::unusual_byte_groupings,
    clippy::type_complexity
)]

use mersit_core::parse_format;
use mersit_nn::models::{efficientnet_b0_t, mobilenet_v3_t, resnet50_t};
use mersit_nn::{synthetic_images, train_classifier, Model, TrainConfig};
use mersit_ptq::{calibrate, rmse_report, RmseReport};
use mersit_tensor::Rng;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_train, epochs) = if quick { (600, 3) } else { (2000, 6) };
    let hw = 12;
    let ds = synthetic_images(0xF16_6, n_train, 200, hw);
    let formats = ["FP(8,4)", "Posit(8,1)", "MERSIT(8,2)"];
    let builders: [(&str, fn(usize, usize, &mut Rng) -> Model); 3] = [
        ("resnet50_t", resnet50_t),
        ("mobilenet_v3_t", mobilenet_v3_t),
        ("efficientnet_b0_t", efficientnet_b0_t),
    ];

    let mut all: Vec<RmseReport> = Vec::new();
    for (name, build) in builders {
        let mut rng = Rng::new(0x6F16);
        let mut model = build(hw, 10, &mut rng);
        let cfg = TrainConfig {
            epochs,
            ..TrainConfig::default()
        };
        train_classifier(&mut model.net, &ds.train, &cfg);
        let cal = calibrate(&model, &ds.calib.inputs, 32);
        for f in formats {
            let fmt = parse_format(f).expect("valid");
            let r = rmse_report(
                &model,
                &cal,
                fmt.as_ref(),
                &ds.test.inputs.slice_outer(0, 64),
                32,
            );
            all.push(r);
        }
        println!("profiled {name}");
    }

    println!("\n=== Fig. 6: Relative RMSE comparison ===\n");
    println!(
        "{:<20} {:>12} {:>12} {:>12}",
        "Model", "FP(8,4)", "Posit(8,1)", "MERSIT(8,2)"
    );
    mersit_bench::hr(60);
    for (kind, pick) in [("weights", 0usize), ("activations", 1), ("combined", 2)] {
        println!("[{kind}]");
        for (name, _) in builders {
            let vals: Vec<f64> = formats
                .iter()
                .map(|f| {
                    let r = all
                        .iter()
                        .find(|r| r.model == name && r.format == *f)
                        .expect("computed");
                    match pick {
                        0 => r.weight_rmse,
                        1 => r.act_rmse,
                        _ => r.combined(),
                    }
                })
                .collect();
            println!(
                "{:<20} {:>12.4} {:>12.4} {:>12.4}",
                name, vals[0], vals[1], vals[2]
            );
        }
    }
    println!();
    println!("Paper shape: MERSIT(8,2) RMSE slightly better than or comparable to");
    println!("Posit(8,1), and notably lower than FP(8,4).");
}
