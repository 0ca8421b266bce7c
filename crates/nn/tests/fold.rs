//! Batch-norm folding: inference equivalence and structural effects.

use mersit_nn::layer::{Ctx, Layer};
use mersit_nn::models::{mobilenet_v2_t, resnet18_t};
use mersit_nn::{synthetic_images, train_classifier, TrainConfig};
use mersit_tensor::{Rng, Tensor};

fn count_kind(net: &mut dyn Layer, kind: &str) -> usize {
    // Count parameters belonging to layers of this kind via path names.
    let mut n = 0;
    net.visit_params("", &mut |path, _| {
        if path.contains(kind) {
            n += 1;
        }
    });
    n
}

#[test]
fn folding_preserves_inference_outputs() {
    // Train briefly so BN running stats and weights are non-trivial.
    let ds = synthetic_images(31, 300, 40, 8);
    let mut rng = Rng::new(4);
    let mut model = resnet18_t(8, 10, &mut rng);
    train_classifier(
        &mut model.net,
        &ds.train,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
    );
    let x = ds.test.inputs.slice_outer(0, 16);
    let before = model.net.forward_ref(x.clone(), &mut Ctx::new());
    model.net.fold_bn();
    let after = model.net.forward_ref(x, &mut Ctx::new());
    assert_eq!(before.shape(), after.shape());
    for (a, b) in before.data().iter().zip(after.data()) {
        assert!(
            (a - b).abs() < 1e-3 * (1.0 + b.abs()),
            "fold changed inference: {a} vs {b}"
        );
    }
}

#[test]
fn folding_removes_batchnorm_layers() {
    let mut rng = Rng::new(5);
    let mut model = mobilenet_v2_t(8, 10, &mut rng);
    assert!(count_kind(&mut model.net, "_bn.") > 0, "model has BNs");
    model.net.fold_bn();
    assert_eq!(count_kind(&mut model.net, "_bn."), 0, "all BNs folded away");
}

#[test]
fn folding_widens_per_channel_weight_spread() {
    // The realism mechanism: after folding, per-output-channel weight
    // maxima spread out (BN scales vary per channel after training).
    let ds = synthetic_images(37, 400, 40, 8);
    let mut rng = Rng::new(6);
    let mut model = mobilenet_v2_t(8, 10, &mut rng);
    train_classifier(
        &mut model.net,
        &ds.train,
        &TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        },
    );
    let spread = |net: &mut dyn Layer| -> f64 {
        // Geometric mean over conv tensors of (max channel max / min
        // channel max).
        let mut log_sum = 0.0f64;
        let mut n = 0usize;
        net.visit_params("", &mut |path, p| {
            if p.value.shape().len() >= 2 && path.contains("conv") {
                let maxes = channel_maxes(&p.value);
                let hi = maxes.iter().copied().fold(0.0f32, f32::max);
                let lo = maxes
                    .iter()
                    .copied()
                    .filter(|&v| v > 0.0)
                    .fold(f32::MAX, f32::min);
                if lo < f32::MAX && lo > 0.0 {
                    log_sum += f64::from(hi / lo).ln();
                    n += 1;
                }
            }
        });
        (log_sum / n as f64).exp()
    };
    let before = spread(&mut model.net);
    model.net.fold_bn();
    let after = spread(&mut model.net);
    assert!(
        after > before,
        "folding should widen channel spread: {before} -> {after}"
    );
}

fn channel_maxes(t: &Tensor) -> Vec<f32> {
    let oc = t.shape()[0];
    let inner: usize = t.shape()[1..].iter().product();
    (0..oc)
        .map(|c| {
            t.data()[c * inner..(c + 1) * inner]
                .iter()
                .fold(0.0f32, |m, &x| m.max(x.abs()))
        })
        .collect()
}
