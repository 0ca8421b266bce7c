//! The miniature model zoo — one architecture-family analogue per row of
//! the paper's Table 2.
//!
//! Each builder reproduces the *distribution mechanisms* of its family:
//!
//! | Paper model | Analogue | Mechanism carried over |
//! |---|---|---|
//! | VGG16 | `vgg_t` | plain conv + ReLU, no normalization |
//! | ResNet18 | `resnet18_t` | basic residual blocks + BN |
//! | ResNet50 | `resnet50_t` | bottleneck residuals + BN |
//! | ResNet101 | `resnet101_t` | deeper bottleneck stack |
//! | MobileNet_v2 | `mobilenet_v2_t` | inverted bottlenecks, depthwise conv, ReLU6, linear projections |
//! | MobileNet_v3 | `mobilenet_v3_t` | + h-swish and squeeze-excitation |
//! | EfficientNet_b0 | `efficientnet_b0_t` | MBConv with SiLU + SE |
//! | EfficientNet_v2 | `efficientnet_v2_t` | fused-MBConv stage + MBConv stage, SiLU |
//! | BERT-base | `bert_t` | embeddings, pre-norm transformer encoders, GELU FFN, CLS head |

use crate::attention::{Embedding, LayerNorm, TakeCls, TransformerBlock};
use crate::blocks::{Residual, SEBlock};
use crate::layers::{
    Act, ActKind, BatchNorm2d, Conv2d, DwConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d,
    Sequential,
};
use mersit_tensor::Rng;

/// What a model consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// NCHW image tensors — the input itself is quantized in PTQ.
    Image,
    /// Integer token ids — never quantized.
    Tokens,
}

/// A named network.
#[derive(Debug)]
pub struct Model {
    /// Analogue name (e.g. `"mobilenet_v2_t"`).
    pub name: String,
    /// The network.
    pub net: Sequential,
    /// Input kind.
    pub input: InputKind,
}

impl Model {
    /// Runs one tracing forward pass over a representative input and
    /// returns the interned [`crate::site::SiteTable`] mapping every
    /// activation tap point to its dense [`crate::site::SiteId`].
    #[must_use]
    pub fn trace(&self, x: &mersit_tensor::Tensor) -> crate::site::SiteTable {
        crate::site::trace_sites(&self.net, x)
    }
}

fn conv_bn(
    seq: &mut Sequential,
    cin: usize,
    cout: usize,
    k: usize,
    s: usize,
    p: usize,
    act: ActKind,
    rng: &mut Rng,
) {
    seq.push(Conv2d::new(cin, cout, k, s, p, rng));
    seq.push(BatchNorm2d::new(cout));
    seq.push(Act::new(act));
}

/// VGG-style: plain convolutions + ReLU, max pooling, FC head.
#[must_use]
pub fn vgg_t(hw: usize, classes: usize, rng: &mut Rng) -> Model {
    let mut net = Sequential::new();
    net.push(Conv2d::new(3, 16, 3, 1, 1, rng));
    net.push(Act::new(ActKind::Relu));
    net.push(Conv2d::new(16, 16, 3, 1, 1, rng));
    net.push(Act::new(ActKind::Relu));
    net.push(MaxPool2d::new(2, 2));
    net.push(Conv2d::new(16, 32, 3, 1, 1, rng));
    net.push(Act::new(ActKind::Relu));
    net.push(Conv2d::new(32, 32, 3, 1, 1, rng));
    net.push(Act::new(ActKind::Relu));
    net.push(MaxPool2d::new(2, 2));
    net.push(Flatten::new());
    let sp = hw / 4;
    net.push(Linear::new(32 * sp * sp, 64, rng));
    net.push(Act::new(ActKind::Relu));
    net.push(Linear::new(64, classes, rng));
    Model {
        name: "vgg_t".into(),
        net,
        input: InputKind::Image,
    }
}

fn basic_block(ch: usize, rng: &mut Rng) -> Residual {
    let mut main = Sequential::new();
    conv_bn(&mut main, ch, ch, 3, 1, 1, ActKind::Relu, rng);
    main.push(Conv2d::new(ch, ch, 3, 1, 1, rng));
    main.push(BatchNorm2d::new(ch));
    Residual::new(main)
}

fn down_block(cin: usize, cout: usize, rng: &mut Rng) -> Residual {
    let mut main = Sequential::new();
    conv_bn(&mut main, cin, cout, 3, 2, 1, ActKind::Relu, rng);
    main.push(Conv2d::new(cout, cout, 3, 1, 1, rng));
    main.push(BatchNorm2d::new(cout));
    let mut sc = Sequential::new();
    sc.push(Conv2d::new(cin, cout, 1, 2, 0, rng));
    sc.push(BatchNorm2d::new(cout));
    Residual::with_shortcut(main, sc)
}

/// ResNet18-style: basic residual blocks.
#[must_use]
pub fn resnet18_t(_hw: usize, classes: usize, rng: &mut Rng) -> Model {
    let mut net = Sequential::new();
    conv_bn(&mut net, 3, 16, 3, 1, 1, ActKind::Relu, rng);
    net.push(basic_block(16, rng));
    net.push(Act::new(ActKind::Relu));
    net.push(basic_block(16, rng));
    net.push(Act::new(ActKind::Relu));
    net.push(down_block(16, 32, rng));
    net.push(Act::new(ActKind::Relu));
    net.push(basic_block(32, rng));
    net.push(Act::new(ActKind::Relu));
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(32, classes, rng));
    Model {
        name: "resnet18_t".into(),
        net,
        input: InputKind::Image,
    }
}

fn bottleneck(cin: usize, mid: usize, cout: usize, stride: usize, rng: &mut Rng) -> Residual {
    let mut main = Sequential::new();
    conv_bn(&mut main, cin, mid, 1, 1, 0, ActKind::Relu, rng);
    conv_bn(&mut main, mid, mid, 3, stride, 1, ActKind::Relu, rng);
    main.push(Conv2d::new(mid, cout, 1, 1, 0, rng));
    main.push(BatchNorm2d::new(cout));
    if cin == cout && stride == 1 {
        Residual::new(main)
    } else {
        let mut sc = Sequential::new();
        sc.push(Conv2d::new(cin, cout, 1, stride, 0, rng));
        sc.push(BatchNorm2d::new(cout));
        Residual::with_shortcut(main, sc)
    }
}

fn resnet_bottleneck_model(
    name: &str,
    blocks_per_stage: usize,
    classes: usize,
    rng: &mut Rng,
) -> Model {
    let mut net = Sequential::new();
    conv_bn(&mut net, 3, 16, 3, 1, 1, ActKind::Relu, rng);
    net.push(bottleneck(16, 8, 32, 1, rng));
    net.push(Act::new(ActKind::Relu));
    for _ in 1..blocks_per_stage {
        net.push(bottleneck(32, 8, 32, 1, rng));
        net.push(Act::new(ActKind::Relu));
    }
    net.push(bottleneck(32, 16, 64, 2, rng));
    net.push(Act::new(ActKind::Relu));
    for _ in 1..blocks_per_stage {
        net.push(bottleneck(64, 16, 64, 1, rng));
        net.push(Act::new(ActKind::Relu));
    }
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(64, classes, rng));
    Model {
        name: name.into(),
        net,
        input: InputKind::Image,
    }
}

/// ResNet50-style: bottleneck residuals (2 per stage).
#[must_use]
pub fn resnet50_t(_hw: usize, classes: usize, rng: &mut Rng) -> Model {
    resnet_bottleneck_model("resnet50_t", 2, classes, rng)
}

/// ResNet101-style: deeper bottleneck stack (3 per stage).
#[must_use]
pub fn resnet101_t(_hw: usize, classes: usize, rng: &mut Rng) -> Model {
    resnet_bottleneck_model("resnet101_t", 3, classes, rng)
}

/// MobileNetV2-style inverted residual (expand → depthwise → linear
/// project); `act` selects ReLU6 / h-swish / SiLU, `se` adds
/// squeeze-excitation after the depthwise stage.
fn inverted_residual(
    cin: usize,
    cout: usize,
    expand: usize,
    stride: usize,
    act: ActKind,
    se: bool,
    rng: &mut Rng,
) -> Box<dyn crate::layer::Layer> {
    let mid = cin * expand;
    let mut main = Sequential::new();
    conv_bn(&mut main, cin, mid, 1, 1, 0, act, rng);
    main.push(DwConv2d::new(mid, 3, stride, 1, rng));
    main.push(BatchNorm2d::new(mid));
    main.push(Act::new(act));
    if se {
        main.push(SEBlock::new(mid, 4, rng));
    }
    // Linear (activation-free) projection — the V2 signature.
    main.push(Conv2d::new(mid, cout, 1, 1, 0, rng));
    main.push(BatchNorm2d::new(cout));
    if cin == cout && stride == 1 {
        Box::new(Residual::new(main))
    } else {
        Box::new(main)
    }
}

fn mobilenet_like(name: &str, act: ActKind, se: bool, classes: usize, rng: &mut Rng) -> Model {
    let mut net = Sequential::new();
    conv_bn(&mut net, 3, 12, 3, 1, 1, act, rng);
    net.push_named("ir0", inverted_residual(12, 12, 4, 1, act, se, rng));
    net.push_named("ir1", inverted_residual(12, 24, 4, 2, act, se, rng));
    net.push_named("ir2", inverted_residual(24, 24, 4, 1, act, se, rng));
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(24, 48, rng));
    net.push(Act::new(act));
    net.push(Linear::new(48, classes, rng));
    Model {
        name: name.into(),
        net,
        input: InputKind::Image,
    }
}

/// MobileNetV2-style: inverted residuals + ReLU6.
#[must_use]
pub fn mobilenet_v2_t(_hw: usize, classes: usize, rng: &mut Rng) -> Model {
    mobilenet_like("mobilenet_v2_t", ActKind::Relu6, false, classes, rng)
}

/// MobileNetV3-style: + h-swish and SE.
#[must_use]
pub fn mobilenet_v3_t(_hw: usize, classes: usize, rng: &mut Rng) -> Model {
    mobilenet_like("mobilenet_v3_t", ActKind::HSwish, true, classes, rng)
}

/// EfficientNet-B0-style: MBConv with SiLU + SE.
#[must_use]
pub fn efficientnet_b0_t(_hw: usize, classes: usize, rng: &mut Rng) -> Model {
    let mut m = mobilenet_like("efficientnet_b0_t", ActKind::Silu, true, classes, rng);
    m.name = "efficientnet_b0_t".into();
    m
}

/// Fused-MBConv: 3×3 expand convolution + 1×1 projection (EfficientNetV2).
fn fused_mbconv(
    cin: usize,
    cout: usize,
    expand: usize,
    stride: usize,
    rng: &mut Rng,
) -> Box<dyn crate::layer::Layer> {
    let mid = cin * expand;
    let mut main = Sequential::new();
    conv_bn(&mut main, cin, mid, 3, stride, 1, ActKind::Silu, rng);
    main.push(Conv2d::new(mid, cout, 1, 1, 0, rng));
    main.push(BatchNorm2d::new(cout));
    if cin == cout && stride == 1 {
        Box::new(Residual::new(main))
    } else {
        Box::new(main)
    }
}

/// EfficientNetV2-style: fused-MBConv stage, then SE MBConv stage.
#[must_use]
pub fn efficientnet_v2_t(_hw: usize, classes: usize, rng: &mut Rng) -> Model {
    let mut net = Sequential::new();
    conv_bn(&mut net, 3, 12, 3, 1, 1, ActKind::Silu, rng);
    net.push_named("fused0", fused_mbconv(12, 12, 2, 1, rng));
    net.push_named("fused1", fused_mbconv(12, 24, 2, 2, rng));
    net.push_named(
        "mb0",
        inverted_residual(24, 24, 4, 1, ActKind::Silu, true, rng),
    );
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(24, 48, rng));
    net.push(Act::new(ActKind::Silu));
    net.push(Linear::new(48, classes, rng));
    Model {
        name: "efficientnet_v2_t".into(),
        net,
        input: InputKind::Image,
    }
}

/// BERT-style encoder: embedding → 2 pre-norm transformer blocks → final
/// LayerNorm → CLS token → classifier.
#[must_use]
pub fn bert_t(vocab: usize, seq_len: usize, dim: usize, classes: usize, rng: &mut Rng) -> Model {
    let mut net = Sequential::new();
    net.push(Embedding::new(vocab, dim, seq_len, rng));
    net.push(TransformerBlock::new(dim, 2, 2, rng));
    net.push(TransformerBlock::new(dim, 2, 2, rng));
    net.push(LayerNorm::new(dim));
    net.push(TakeCls::new());
    net.push(Linear::new(dim, classes, rng));
    Model {
        name: "bert_t".into(),
        net,
        input: InputKind::Tokens,
    }
}

/// Builds the full vision zoo (8 models, Table 2 order).
#[must_use]
#[allow(clippy::type_complexity)]
pub fn vision_zoo(hw: usize, classes: usize, seed: u64) -> Vec<Model> {
    let builders: [(&str, fn(usize, usize, &mut Rng) -> Model); 8] = [
        ("vgg_t", vgg_t),
        ("resnet18_t", resnet18_t),
        ("resnet50_t", resnet50_t),
        ("resnet101_t", resnet101_t),
        ("mobilenet_v2_t", mobilenet_v2_t),
        ("mobilenet_v3_t", mobilenet_v3_t),
        ("efficientnet_b0_t", efficientnet_b0_t),
        ("efficientnet_v2_t", efficientnet_v2_t),
    ];
    builders
        .iter()
        .enumerate()
        .map(|(i, (_, b))| {
            let mut rng = Rng::new(seed.wrapping_add(i as u64 * 0x9E37));
            b(hw, classes, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Ctx, Layer};
    use mersit_tensor::Tensor;

    #[test]
    fn vision_models_produce_logits() {
        let mut count = 0;
        for m in vision_zoo(12, 10, 42) {
            let mut rng = Rng::new(1);
            let x = Tensor::randn(&[2, 3, 12, 12], 1.0, &mut rng);
            let y = m.net.forward_ref(x, &mut Ctx::new());
            assert_eq!(y.shape(), &[2, 10], "{}", m.name);
            assert!(y.data().iter().all(|v| v.is_finite()), "{}", m.name);
            count += 1;
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn vision_models_backprop_without_panic() {
        for mut m in vision_zoo(12, 10, 7) {
            let mut rng = Rng::new(2);
            let x = Tensor::randn(&[2, 3, 12, 12], 1.0, &mut rng);
            let y = m.net.forward(x, &mut Ctx::new());
            let g = Tensor::randn(y.shape(), 1.0, &mut rng);
            let dx = m.net.backward(g);
            assert_eq!(dx.shape(), &[2, 3, 12, 12], "{}", m.name);
            assert!(dx.data().iter().all(|v| v.is_finite()), "{}", m.name);
        }
    }

    #[test]
    fn bert_produces_logits_and_backprops() {
        let mut rng = Rng::new(3);
        let mut m = bert_t(30, 16, 32, 3, &mut rng);
        let ids = Tensor::from_vec(
            (0..32)
                .map(|v| f32::from(u8::try_from(v % 30).unwrap()))
                .collect(),
            &[2, 16],
        );
        let y = m.net.forward(ids, &mut Ctx::new());
        assert_eq!(y.shape(), &[2, 3]);
        let g = Tensor::randn(y.shape(), 1.0, &mut rng);
        let _ = m.net.backward(g);
    }

    #[test]
    fn param_counts_are_reasonable() {
        for mut m in vision_zoo(12, 10, 11) {
            let mut total = 0usize;
            m.net.visit_params("", &mut |_, p| total += p.len());
            assert!(
                (3_000..200_000).contains(&total),
                "{}: {total} params",
                m.name
            );
        }
    }

    #[test]
    fn zoo_is_deterministic() {
        let mut a = vision_zoo(12, 10, 5);
        let mut b = vision_zoo(12, 10, 5);
        for (ma, mb) in a.iter_mut().zip(b.iter_mut()) {
            let mut wa = Vec::new();
            ma.net
                .visit_params("", &mut |_, p| wa.extend_from_slice(p.value.data()));
            let mut wb = Vec::new();
            mb.net
                .visit_params("", &mut |_, p| wb.extend_from_slice(p.value.data()));
            assert_eq!(wa, wb, "{}", ma.name);
        }
    }
}
