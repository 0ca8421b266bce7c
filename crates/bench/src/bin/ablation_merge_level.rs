//! **Ablation A1**: the MERSIT merge level. The paper examines E ∈ {2, 3};
//! this study sweeps E ∈ {1, 2, 3} and reports, per level:
//! decoder hardware cost, MAC cost, precision-band geometry, and
//! quantization RMSE on trained-model tensors — exposing the
//! accuracy/hardware trade the merge level controls.

#![allow(
    clippy::pedantic,
    clippy::string_slice,
    clippy::unusual_byte_groupings,
    clippy::type_complexity
)]

use mersit_bench::trained_dnn_operands;
use mersit_core::{Format, Mersit, PrecisionProfile};
use mersit_hw::{mac_cost_with_margin, standalone_decoder, Decoder, MacUnit, MersitDecoder};
use mersit_netlist::AreaReport;
use mersit_nn::models::resnet50_t;
use mersit_nn::{synthetic_images, train_classifier, TrainConfig};
use mersit_ptq::{calibrate, rmse_report};
use mersit_tensor::Rng;

fn main() {
    let ops = trained_dnn_operands(0xAB1A, 3000);

    // A trained model for RMSE scoring.
    let ds = synthetic_images(0xAB1B, 800, 120, 12);
    let mut rng = Rng::new(0xAB1C);
    let mut model = resnet50_t(12, 10, &mut rng);
    train_classifier(
        &mut model.net,
        &ds.train,
        &TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        },
    );
    let cal = calibrate(&model, &ds.calib.inputs, 32);

    println!("=== Ablation: MERSIT(8,E) merge level ===\n");
    println!(
        "{:<12} {:>7} {:>7} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "Config", "range", "peakfb", "dec um^2", "mac um^2", "mac uW", "w-rmse", "a-rmse"
    );
    mersit_bench::hr(82);
    for es in [1u32, 2, 3] {
        let fmt = Mersit::new(8, es).expect("valid");
        let profile = PrecisionProfile::of(&fmt);
        let dec = MersitDecoder::new(fmt.clone());
        let (dnl, _, _) = standalone_decoder(&dec);
        let dec_area = AreaReport::of(&dnl).total_um2;
        let stream = ops.encode_scaled(&fmt, 1500);
        // Clamp the overflow margin to the 63-bit simulation limit.
        let params = dec.params();
        let v = (0..=10u32)
            .rev()
            .find(|&v| MacUnit::acc_width_for(&params, v) <= 63)
            .expect("fits at some margin");
        let mac = mac_cost_with_margin(&dec, &stream, 64, v);
        let r = rmse_report(&model, &cal, &fmt, &ds.test.inputs.slice_outer(0, 48), 24);
        println!(
            "{:<12} {:>7} {:>7} {:>9.1} {:>10.1} {:>10.2} {:>10.4} {:>10.4}",
            fmt.name(),
            format!("2^{}..{}", profile.exp_min(), profile.exp_max()),
            profile.max_frac_bits(),
            dec_area,
            mac.total.area_um2,
            mac.total.power_uw,
            r.weight_rmse,
            r.act_rmse
        );
    }
    println!();
    println!("Reading: E=2 holds the sweet spot the paper selects — E=1 narrows");
    println!("the dynamic range (posit(8,0)-like), E=3 widens range but drops to");
    println!("3-bit peak precision and a larger Kulisch accumulator.");
}
