//! PTQ on a transformer: train the BERT-style encoder on the CoLA-analogue
//! acceptability task (Matthews correlation, like GLUE), then compare 8-bit
//! formats — one GLUE row of the paper's Table 2.
//!
//! Run with: `cargo run --release --example glue_ptq`

use mersit_core::parse_format;
use mersit_nn::models::bert_t;
use mersit_nn::{
    glue_like, train_classifier, GlueTask, Optimizer, TrainConfig, GLUE_SEQ_LEN, GLUE_VOCAB,
};
use mersit_ptq::{evaluate_model, Metric};
use mersit_tensor::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = glue_like(GlueTask::Cola, 11, 1200, 400);
    let mut rng = Rng::new(3);
    let mut model = bert_t(GLUE_VOCAB, GLUE_SEQ_LEN, 32, ds.num_classes, &mut rng);
    println!(
        "training {} on {} ({} train sequences, 5% calibration split)...",
        model.name,
        ds.name,
        ds.train.len()
    );
    let cfg = TrainConfig {
        epochs: 8,
        batch_size: 32,
        opt: Optimizer::adam(1e-3),
        ..TrainConfig::default()
    };
    let losses = train_classifier(&mut model.net, &ds.train, &cfg);
    println!(
        "  loss: {:.3} -> {:.3}",
        losses[0],
        losses[losses.len() - 1]
    );

    // Token ids are never quantized (InputKind::Tokens); activations are
    // quantized at every encoder-internal tap (LayerNorm outputs, attention
    // outputs, residual-stream sums, FFN layers).
    let formats = vec![
        parse_format("INT8")?,
        parse_format("FP(8,3)")?,
        parse_format("FP(8,5)")?,
        parse_format("Posit(8,1)")?,
        parse_format("MERSIT(8,2)")?,
        parse_format("MERSIT(8,3)")?,
    ];
    let (row, cal) = evaluate_model(&model, &ds, &formats, Metric::Matthews, 50);
    println!(
        "\ncalibrated {} activation sites; scoring with Matthews correlation x100:\n",
        cal.num_sites()
    );
    println!("{:<14} {:>8.2}", "FP32", row.fp32);
    for s in &row.scores {
        println!("{:<14} {:>8.2}", s.format, s.score);
    }
    Ok(())
}
