//! **Ablation A3**: batch-norm folding before PTQ. Folding the trained BN
//! scales into the convolution weights widens the per-channel weight
//! spread (the mechanism behind the real MobileNet rows of Table 2) and
//! lets per-channel weight scaling show its value. This study compares
//! PTQ accuracy with and without folding on the depthwise models.

#![allow(
    clippy::pedantic,
    clippy::string_slice,
    clippy::unusual_byte_groupings,
    clippy::type_complexity
)]

use mersit_core::{parse_format, FormatRef};
use mersit_nn::layer::Layer;
use mersit_nn::models::{mobilenet_v2_t, mobilenet_v3_t, Model};
use mersit_nn::{synthetic_images, train_classifier, Optimizer, TrainConfig};
use mersit_ptq::{evaluate_model, Metric};
use mersit_tensor::Rng;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_train, epochs) = if quick { (600, 4) } else { (1500, 6) };
    let ds = synthetic_images(0xB17F, n_train, 300, 10);
    let formats: Vec<FormatRef> = ["INT8", "FP(8,4)", "FP(8,5)", "Posit(8,1)", "MERSIT(8,2)"]
        .iter()
        .map(|n| parse_format(n).expect("valid"))
        .collect();

    println!("=== Ablation: batch-norm folding before PTQ ===\n");
    let builders: [(&str, fn(usize, usize, &mut Rng) -> Model); 2] = [
        ("mobilenet_v2_t", mobilenet_v2_t),
        ("mobilenet_v3_t", mobilenet_v3_t),
    ];
    for (name, build) in builders {
        let mut rng = Rng::new(0xB17E);
        let mut model = build(10, 10, &mut rng);
        let cfg = TrainConfig {
            epochs,
            batch_size: 32,
            opt: Optimizer::adam(2e-3),
            ..TrainConfig::default()
        };
        train_classifier(&mut model.net, &ds.train, &cfg);

        let (plain, _) = evaluate_model(&model, &ds, &formats, Metric::Accuracy, 50);
        model.net.fold_bn();
        let (folded, _) = evaluate_model(&model, &ds, &formats, Metric::Accuracy, 50);

        println!(
            "{name}  (fp32: plain {:.1}%, folded {:.1}%)",
            plain.fp32, folded.fp32
        );
        println!(
            "  {:<14} {:>8} {:>8} {:>8}",
            "format", "plain", "folded", "delta"
        );
        for f in &formats {
            let p = plain.score_of(&f.name()).expect("scored");
            let q = folded.score_of(&f.name()).expect("scored");
            println!("  {:<14} {:>8.1} {:>8.1} {:>+8.1}", f.name(), p, q, q - p);
        }
        println!();
    }
    println!("Reading: folding concentrates the BN channel scales into the conv");
    println!("weights; per-channel weight scaling absorbs most of the spread, so");
    println!("robust formats hold, while low-precision formats feel the wider");
    println!("per-channel ranges — the mechanism behind the paper's MobileNet rows.");
}
