//! Pins FP32 training bit for bit.
//!
//! Each row trains one zoo model from a fixed seed for two epochs with
//! [`train_classifier`], then digests with FNV-1a-64 the bits of every
//! epoch loss followed by the bits of every `forward_ref` logit on the test
//! split. The logits also cover the batch-norm running statistics that the
//! training forward accumulates. Together the five models reach the
//! training forward and backward of every layer kind: dense, plain and
//! depthwise convolutions, batch norm, the activations, max and
//! global-average pooling, flatten, residual and squeeze-excitation blocks,
//! and the transformer stack (embedding, layer norm, attention, CLS head).
//!
//! The digests hold for every `MERSIT_THREADS` and for `MERSIT_SIMD=0`.
//! A change that moves a training bit fails here; the failure message
//! prints the current rows.

use mersit_nn::models::{bert_t, efficientnet_b0_t, mobilenet_v3_t, resnet18_t, vgg_t};
use mersit_nn::{
    glue_like, synthetic_images, train_classifier, Ctx, Dataset, GlueTask, Layer, Model,
    TrainConfig, GLUE_SEQ_LEN, GLUE_VOCAB,
};
use mersit_tensor::Rng;

const N_TRAIN: usize = 48;
const N_TEST: usize = 16;

/// Trains `model` on `ds` and returns its `name digest` row.
fn row(mut model: Model, ds: &Dataset) -> String {
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let losses = train_classifier(&mut model.net, &ds.train, &cfg);
    let logits = model
        .net
        .forward_ref(ds.test.inputs.clone(), &mut Ctx::new());
    let digest = losses
        .iter()
        .chain(logits.data())
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    format!("{} {digest:016x}", model.name)
}

#[test]
fn training_matches_golden_digests() {
    let golden = include_str!("golden/train_digests.txt");
    let images = synthetic_images(0x7A11, N_TRAIN, N_TEST, 8);
    let builders: [fn(usize, usize, &mut Rng) -> Model; 4] =
        [vgg_t, resnet18_t, mobilenet_v3_t, efficientnet_b0_t];
    let mut rows: Vec<String> = builders
        .iter()
        .map(|build| row(build(8, 10, &mut Rng::new(0x7A12)), &images))
        .collect();
    let glue = glue_like(GlueTask::Sst2, 0x7A13, N_TRAIN, N_TEST);
    let mut rng = Rng::new(0x7A14);
    let bert = bert_t(GLUE_VOCAB, GLUE_SEQ_LEN, 32, glue.num_classes, &mut rng);
    rows.push(row(bert, &glue));
    let actual = rows.join("\n") + "\n";
    assert!(
        golden == actual,
        "training drifted from tests/golden/train_digests.txt; the current rows are:\n{actual}"
    );
}
