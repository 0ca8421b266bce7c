//! Regenerates **Table 2**: PTQ accuracy of INT8 / FP8 / Posit8 / MERSIT8
//! across the vision model zoo and the BERT-style GLUE-analogue tasks.
//!
//! Models are trained from scratch on the deterministic synthetic datasets
//! (the documented ImageNet/GLUE substitution), then calibrated and
//! evaluated per format with the §4.1 protocol: per-channel weight maxima,
//! per-layer activation maxima, no advanced PTQ techniques.
//!
//! Usage: `cargo run --release -p mersit-bench --bin table2 [-- --quick]`

#![allow(
    clippy::pedantic,
    clippy::string_slice,
    clippy::unusual_byte_groupings,
    clippy::type_complexity
)]

use mersit_core::table2_formats;
use mersit_nn::models::bert_t;
use mersit_nn::{
    glue_like, synthetic_images, train_classifier, vision_zoo, GlueTask, Optimizer, TrainConfig,
    GLUE_SEQ_LEN, GLUE_VOCAB,
};
use mersit_ptq::{evaluate_model, render_table, EvalRow, Metric};
use mersit_tensor::Rng;
use std::time::Instant;

struct Sizes {
    hw: usize,
    n_train: usize,
    n_test: usize,
    epochs: usize,
    glue_train: usize,
    glue_test: usize,
    glue_epochs: usize,
}

fn main() {
    mersit_obs::init_from_env();
    let quick = std::env::args().any(|a| a == "--quick");
    let s = if quick {
        Sizes {
            hw: 10,
            n_train: 800,
            n_test: 250,
            epochs: 4,
            glue_train: 800,
            glue_test: 250,
            glue_epochs: 6,
        }
    } else {
        Sizes {
            hw: 12,
            n_train: 1400,
            n_test: 600,
            epochs: 6,
            glue_train: 2500,
            glue_test: 600,
            glue_epochs: 12,
        }
    };
    let formats = table2_formats();
    let mut rows: Vec<EvalRow> = Vec::new();

    // --- Vision models on the synthetic image task -----------------------
    let ds = synthetic_images(0x1A6E, s.n_train, s.n_test, s.hw);
    println!(
        "training {} vision models on {} ({} train / {} test){}...\n",
        8,
        ds.name,
        s.n_train,
        s.n_test,
        if quick { " [quick]" } else { "" }
    );
    for mut model in vision_zoo(s.hw, 10, 0xBEEF) {
        let t0 = Instant::now();
        let cfg = TrainConfig {
            epochs: s.epochs,
            batch_size: 32,
            opt: Optimizer::adam(2e-3),
            ..TrainConfig::default()
        };
        let losses = train_classifier(&mut model.net, &ds.train, &cfg);
        let (row, _) = evaluate_model(&model, &ds, &formats, Metric::Accuracy, 50);
        println!(
            "  {:<20} fp32 {:5.1}%  (loss {:.3} -> {:.3}, {:.0?})",
            row.model,
            row.fp32,
            losses.first().copied().unwrap_or(0.0),
            losses.last().copied().unwrap_or(0.0),
            t0.elapsed()
        );
        rows.push(row);
    }

    // --- BERT-style GLUE-analogue tasks ----------------------------------
    println!("\ntraining bert_t on 4 GLUE-analogue tasks...\n");
    for (task, metric) in [
        (GlueTask::Cola, Metric::Matthews),
        (GlueTask::Mnli, Metric::Accuracy),
        (GlueTask::Mrpc, Metric::F1),
        (GlueTask::Sst2, Metric::Accuracy),
    ] {
        let t0 = Instant::now();
        let gds = glue_like(task, 0x6E0 ^ task as u64, s.glue_train, s.glue_test);
        let mut rng = Rng::new(0xBE27 ^ task as u64);
        let mut model = bert_t(GLUE_VOCAB, GLUE_SEQ_LEN, 32, gds.num_classes, &mut rng);
        model.name = gds.name.clone();
        let cfg = TrainConfig {
            epochs: s.glue_epochs,
            batch_size: 32,
            opt: Optimizer::adam(1e-3),
            ..TrainConfig::default()
        };
        let losses = train_classifier(&mut model.net, &gds.train, &cfg);
        let (row, _) = evaluate_model(&model, &gds, &formats, metric, 50);
        println!(
            "  {:<20} fp32 {:5.1}  (loss {:.3} -> {:.3}, {:.0?})",
            row.model,
            row.fp32,
            losses.first().copied().unwrap_or(0.0),
            losses.last().copied().unwrap_or(0.0),
            t0.elapsed()
        );
        rows.push(row);
    }

    println!("\n=== Table 2: PTQ accuracy results ===\n");
    println!("{}", render_table(&rows, &formats));
    println!("Shape anchors from the paper:");
    println!("  * Posit(8,1) and MERSIT(8,2) stay near FP32 on every row;");
    println!("  * narrow-range formats (FP(8,2), Posit(8,0), INT8) collapse on");
    println!("    the h-swish/SiLU/SE models and degrade on GLUE;");
    println!("  * wide-range low-precision formats (FP(8,5), Posit(8,3)) lag on");
    println!("    precision-sensitive depthwise models.");

    if let Ok(Some(path)) = mersit_obs::report::write_global_report("table2") {
        println!("wrote {path}");
    }
}
