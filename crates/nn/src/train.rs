//! Optimizers and the training loop used to pre-train the model zoo before
//! post-training quantization.

use crate::layer::{Ctx, Layer};
use crate::param::Param;
use mersit_tensor::{cross_entropy, Rng, Tensor};

/// Optimizer choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Stochastic gradient descent with momentum.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        momentum: f32,
        /// L2 weight decay.
        weight_decay: f32,
    },
    /// Adam.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// L2 weight decay.
        weight_decay: f32,
    },
}

impl Optimizer {
    /// SGD with common defaults.
    #[must_use]
    pub fn sgd(lr: f32) -> Self {
        Optimizer::Sgd {
            lr,
            momentum: 0.9,
            weight_decay: 1e-4,
        }
    }

    /// Adam with common defaults.
    #[must_use]
    pub fn adam(lr: f32) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            weight_decay: 1e-5,
        }
    }
}

/// Optimizer state (slot per parameter, in visit order).
#[derive(Debug, Default)]
pub struct OptState {
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    step: u64,
}

impl OptState {
    /// Fresh state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one optimizer step over all parameters of `net`, then zeroes
    /// the gradients.
    pub fn apply(&mut self, net: &mut dyn Layer, opt: &Optimizer, lr_scale: f32) {
        self.step += 1;
        let step = self.step;
        let mut idx = 0usize;
        let (m, v) = (&mut self.m, &mut self.v);
        net.visit_params("", &mut |_, p: &mut Param| {
            if m.len() <= idx {
                m.push(Tensor::zeros(p.value.shape()));
                v.push(Tensor::zeros(p.value.shape()));
            }
            match *opt {
                Optimizer::Sgd {
                    lr,
                    momentum,
                    weight_decay,
                } => {
                    let lr = lr * lr_scale;
                    let mom = &mut m[idx];
                    for i in 0..p.value.len() {
                        let g = p.grad.data()[i] + weight_decay * p.value.data()[i];
                        let mv = momentum * mom.data()[i] + g;
                        mom.data_mut()[i] = mv;
                        p.value.data_mut()[i] -= lr * mv;
                    }
                }
                Optimizer::Adam {
                    lr,
                    beta1,
                    beta2,
                    weight_decay,
                } => {
                    let lr = lr * lr_scale;
                    let bc1 = 1.0 - beta1.powi(step as i32);
                    let bc2 = 1.0 - beta2.powi(step as i32);
                    let (ms, vs) = (&mut m[idx], &mut v[idx]);
                    for i in 0..p.value.len() {
                        let g = p.grad.data()[i] + weight_decay * p.value.data()[i];
                        let m1 = beta1 * ms.data()[i] + (1.0 - beta1) * g;
                        let v1 = beta2 * vs.data()[i] + (1.0 - beta2) * g * g;
                        ms.data_mut()[i] = m1;
                        vs.data_mut()[i] = v1;
                        let mh = m1 / bc1;
                        let vh = v1 / bc2;
                        p.value.data_mut()[i] -= lr * mh / (vh.sqrt() + 1e-8);
                    }
                }
            }
            p.zero_grad();
            idx += 1;
        });
    }
}

/// A labelled dataset split: inputs (outer dim = samples) and labels.
#[derive(Debug, Clone)]
pub struct Split {
    /// Input tensor, outermost dimension indexes samples.
    pub inputs: Tensor,
    /// Integer class labels.
    pub labels: Vec<usize>,
}

impl Split {
    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Extracts a mini-batch by sample indices.
    #[must_use]
    pub fn batch(&self, idx: &[usize]) -> (Tensor, Vec<usize>) {
        let parts: Vec<Tensor> = idx
            .iter()
            .map(|&i| self.inputs.slice_outer(i, i + 1))
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        (
            Tensor::cat_outer(&refs),
            idx.iter().map(|&i| self.labels[i]).collect(),
        )
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimizer.
    pub opt: Optimizer,
    /// Cosine-decay the learning rate to this fraction by the last epoch.
    pub final_lr_frac: f32,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            opt: Optimizer::adam(3e-3),
            final_lr_frac: 0.05,
            seed: 0xDEC0DE,
        }
    }
}

/// Trains `net` as a classifier on `train`; returns per-epoch mean losses.
pub fn train_classifier(net: &mut dyn Layer, train: &Split, cfg: &TrainConfig) -> Vec<f32> {
    let mut rng = Rng::new(cfg.seed);
    let mut state = OptState::new();
    let mut losses = Vec::with_capacity(cfg.epochs);
    let n = train.len();
    for epoch in 0..cfg.epochs {
        let progress = epoch as f32 / cfg.epochs.max(1) as f32;
        let lr_scale = cfg.final_lr_frac
            + (1.0 - cfg.final_lr_frac) * 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
        let order = rng.permutation(n);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        let _epoch_span = mersit_obs::span("nn.train.epoch");
        for chunk in order.chunks(cfg.batch_size) {
            let _step_span = mersit_obs::span("nn.train.step");
            let (x, y) = train.batch(chunk);
            let logits = net.forward(x, &mut Ctx::new());
            let (loss, dlogits) = cross_entropy(&logits, &y);
            net.backward(dlogits);
            state.apply(net, &cfg.opt, lr_scale);
            mersit_obs::add("nn.train.samples", chunk.len() as u64);
            epoch_loss += loss;
            batches += 1;
        }
        losses.push(epoch_loss / batches.max(1) as f32);
    }
    losses
}

/// Runs FP32 inference and returns the predicted class per sample,
/// through [`predict_sharded`]. Needs only `&` access to the network
/// (`Layer: Send + Sync` makes `&dyn Layer` shareable), so callers can
/// run several predictions concurrently over one model.
pub fn predict_ref(net: &dyn Layer, inputs: &Tensor, batch: usize) -> Vec<usize> {
    predict_sharded(inputs, batch.max(1), |x| predict_one_batch_ref(net, x))
}

/// Runs `predict_batch` over `inputs` in batches of at most `batch`
/// samples, sharded across the global pool in whole-batch chunks, and
/// returns the predicted class per sample. Per-sample arithmetic never
/// depends on batch-mates, so predictions are bit-identical to the
/// serial loop for every thread count. The forwards inside a shard nest
/// their own GEMM dispatches, which the stealing pool composes. Panics
/// when `batch` is 0.
pub fn predict_sharded<F>(inputs: &Tensor, batch: usize, predict_batch: F) -> Vec<usize>
where
    F: Fn(Tensor) -> Vec<usize> + Sync,
{
    let mut preds = vec![0usize; inputs.shape()[0]];
    mersit_tensor::par::par_chunks_mut(&mut preds, 1, batch, |s0, chunk| {
        for (j, out) in chunk.chunks_mut(batch).enumerate() {
            let lo = s0 + j * batch;
            out.copy_from_slice(&predict_batch(inputs.slice_outer(lo, lo + out.len())));
        }
    });
    preds
}

/// Runs one already-coalesced batch through a single inference forward
/// and returns the predicted class per sample — the FP32 serving entry
/// point: a dynamic batcher concatenates single-sample requests along the
/// outer dimension and calls this once. The inference forward has no
/// cross-sample reductions, so each sample's prediction is bit-identical
/// to calling this with that sample alone (the batching invariant the
/// serving layer relies on; pinned by `mersit-serve`'s batching tests).
/// GEMMs inside the forward still fan out across the global pool.
#[must_use]
pub fn predict_one_batch_ref(net: &dyn Layer, x: Tensor) -> Vec<usize> {
    let _batch_span = mersit_obs::span("nn.predict.batch");
    let logits = net.forward_ref(x, &mut Ctx::new());
    crate::metrics::argmax_rows(&logits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Act, ActKind, Linear, Sequential};

    /// Two-moons-ish 2-D synthetic binary classification.
    fn toy_data(n: usize, seed: u64) -> Split {
        let mut rng = Rng::new(seed);
        let mut xs = Vec::with_capacity(n * 2);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let label = rng.below(2);
            let t = rng.uniform() as f32 * std::f32::consts::PI;
            let (sx, sy) = if label == 0 {
                (t.cos(), t.sin())
            } else {
                (1.0 - t.cos(), 0.5 - t.sin())
            };
            xs.push(sx + rng.normal() as f32 * 0.05);
            xs.push(sy + rng.normal() as f32 * 0.05);
            ys.push(label);
        }
        Split {
            inputs: Tensor::from_vec(xs, &[n, 2]),
            labels: ys,
        }
    }

    #[test]
    fn training_reduces_loss_and_fits_toy_data() {
        let mut rng = Rng::new(42);
        let mut net = Sequential::new();
        net.push(Linear::new(2, 24, &mut rng));
        net.push(Act::new(ActKind::Tanh));
        net.push(Linear::new(24, 2, &mut rng));
        let train = toy_data(400, 1);
        let test = toy_data(200, 2);
        let cfg = TrainConfig {
            epochs: 50,
            batch_size: 32,
            opt: Optimizer::adam(5e-3),
            ..TrainConfig::default()
        };
        let losses = train_classifier(&mut net, &train, &cfg);
        assert!(losses.last().unwrap() < &(losses[0] * 0.5), "{losses:?}");
        let preds = predict_ref(&net, &test.inputs, 64);
        let acc = preds
            .iter()
            .zip(&test.labels)
            .filter(|(a, b)| a == b)
            .count() as f32
            / preds.len() as f32;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn sgd_also_converges() {
        let mut rng = Rng::new(7);
        let mut net = Sequential::new();
        net.push(Linear::new(2, 16, &mut rng));
        net.push(Act::new(ActKind::Relu));
        net.push(Linear::new(16, 2, &mut rng));
        let train = toy_data(300, 3);
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 16,
            opt: Optimizer::sgd(0.05),
            ..TrainConfig::default()
        };
        let losses = train_classifier(&mut net, &train, &cfg);
        assert!(losses.last().unwrap() < &0.3, "{losses:?}");
    }

    #[test]
    fn split_batch_gathers_rows() {
        let s = Split {
            inputs: Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[4, 2]),
            labels: vec![0, 1, 2, 3],
        };
        let (x, y) = s.batch(&[2, 0]);
        assert_eq!(x.data(), &[4., 5., 0., 1.]);
        assert_eq!(y, vec![2, 0]);
    }
}
