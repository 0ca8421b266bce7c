//! Core layers: linear, convolutions, batch norm, activations, pooling and
//! the [`Sequential`] container.

use crate::layer::{join_path, Ctx, Layer, Pass, PlanWeight};
use crate::param::{Param, ParamVisitor, RefParamVisitor};
use mersit_tensor::{
    add_channel_bias, col2im, conv2d, dims4, dwconv2d, dwconv2d_backward, global_avg_pool,
    global_avg_pool_backward, maxpool2d, maxpool2d_backward, nchw_to_rows, ConvSpec, Rng, Tensor,
};

/// `x2·wᵀ` for a rank-2 GEMM weight `w`: through the plan's override
/// when one applies ([`PlanWeight::gemm_t`]), else through `w` itself.
/// Every override route asserts its inner dimension, so checking the
/// product's shape pins the override's `[out, in]` against `w`'s.
fn gemm_t(x2: &Tensor, w: &Tensor, ov: Option<&PlanWeight>) -> Tensor {
    match ov {
        Some(pw) => {
            let y = pw.gemm_t(x2);
            debug_assert_eq!(
                y.shape(),
                [x2.shape()[0], w.shape()[0]],
                "override shape mismatch"
            );
            y
        }
        None => x2.matmul_t(w),
    }
}

/// Fully connected layer `y = x·Wᵀ + b`, applied over the last dimension.
#[derive(Debug)]
pub struct Linear {
    /// Weight `[out, in]`.
    pub w: Param,
    /// Bias `[out]`.
    pub b: Param,
    in_dim: usize,
    out_dim: usize,
    cache_x: Option<Tensor>,
    cache_shape: Vec<usize>,
}

impl Linear {
    /// Kaiming-initialized linear layer.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        Self {
            w: Param::new_gemm_rhs(Tensor::kaiming(&[out_dim, in_dim], in_dim, rng)),
            b: Param::new(Tensor::zeros(&[out_dim])),
            in_dim,
            out_dim,
            cache_x: None,
            cache_shape: Vec::new(),
        }
    }

    /// Both forwards' body: flattens `x` to `[rows, in]`, runs `gemm`
    /// (`[rows, in] → [rows, out]`, bias not included), adds the bias to
    /// every row and restores the leading dimensions. Also returns the
    /// flattened input, which the training forward caches.
    fn affine(&self, x: Tensor, gemm: impl FnOnce(&Tensor) -> Tensor) -> (Tensor, Tensor) {
        let mut shape = x.shape().to_vec();
        assert_eq!(
            shape.last().copied(),
            Some(self.in_dim),
            "linear layer expects a trailing dimension of {}, got {shape:?}",
            self.in_dim
        );
        let rows = x.len() / self.in_dim;
        let x2 = x.reshape(&[rows, self.in_dim]);
        let mut y = gemm(&x2);
        for row in y.data_mut().chunks_exact_mut(self.out_dim) {
            for (v, &b) in row.iter_mut().zip(self.b.value.data()) {
                *v += b;
            }
        }
        *shape.last_mut().expect("rank >= 1") = self.out_dim;
        (y.reshape(&shape), x2)
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        self.cache_shape = x.shape().to_vec();
        let (y, x2) = self.affine(x, |x2| gemm_t(x2, &self.w.value, None));
        self.cache_x = Some(x2);
        y
    }

    fn forward_ref(&self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let ov = ctx.next_override();
        self.affine(x, |x2| gemm_t(x2, &self.w.value, ov)).0
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let x = self.cache_x.take().expect("backward before forward");
        let rows = x.shape()[0];
        let d2 = dout.reshape(&[rows, self.out_dim]);
        // dW += doutᵀ·x ; db += column sums ; dx = dout·W
        self.w.grad.axpy(1.0, &d2.transpose().matmul(&x));
        let mut db = vec![0.0f32; self.out_dim];
        for r in 0..rows {
            for (s, &g) in db
                .iter_mut()
                .zip(&d2.data()[r * self.out_dim..(r + 1) * self.out_dim])
            {
                *s += g;
            }
        }
        self.b
            .grad
            .axpy(1.0, &Tensor::from_vec(db, &[self.out_dim]));
        let dx = d2.matmul(&self.w.value);
        dx.reshape(&self.cache_shape)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor<'_>) {
        f(&join_path(prefix, "w"), &mut self.w);
        f(&join_path(prefix, "b"), &mut self.b);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut RefParamVisitor<'_>) {
        f(&join_path(prefix, "w"), &self.w);
        f(&join_path(prefix, "b"), &self.b);
    }

    fn kind(&self) -> &'static str {
        "linear"
    }
}

/// Standard 2-D convolution (weights pre-flattened for im2col).
#[derive(Debug)]
pub struct Conv2d {
    /// Weight `[OC, C·KH·KW]`.
    pub w: Param,
    /// Bias `[OC]`.
    pub b: Param,
    /// Geometry.
    pub spec: ConvSpec,
    in_ch: usize,
    out_ch: usize,
    cache: Option<(Tensor, Vec<usize>)>, // (col, x_shape)
}

impl Conv2d {
    /// Kaiming-initialized convolution.
    #[must_use]
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Self {
        let fan_in = in_ch * k * k;
        Self {
            w: Param::new_gemm_rhs(Tensor::kaiming(&[out_ch, fan_in], fan_in, rng)),
            b: Param::new(Tensor::zeros(&[out_ch])),
            spec: ConvSpec::new(k, stride, pad),
            in_ch,
            out_ch,
            cache: None,
        }
    }

    /// Input channel count.
    #[must_use]
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// Output channel count.
    #[must_use]
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let (out, col) = conv2d(&x, &self.spec, &self.b.value, |col| {
            gemm_t(col, &self.w.value, None)
        });
        self.cache = Some((col, x.shape().to_vec()));
        out
    }

    fn forward_ref(&self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let ov = ctx.next_override();
        conv2d(&x, &self.spec, &self.b.value, |col| {
            gemm_t(col, &self.w.value, ov)
        })
        .0
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let (col, x_shape) = self.cache.take().expect("backward before forward");
        let rows = nchw_to_rows(&dout);
        self.w.grad.axpy(1.0, &rows.transpose().matmul(&col));
        // Bias gradient: column sums of `rows`.
        let mut db = vec![0.0f32; self.out_ch];
        for r in 0..rows.shape()[0] {
            for (s, &g) in db
                .iter_mut()
                .zip(&rows.data()[r * self.out_ch..(r + 1) * self.out_ch])
            {
                *s += g;
            }
        }
        self.b.grad.axpy(1.0, &Tensor::from_vec(db, &[self.out_ch]));
        let dcol = rows.matmul(&self.w.value);
        col2im(&dcol, &x_shape, &self.spec)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor<'_>) {
        f(&join_path(prefix, "w"), &mut self.w);
        f(&join_path(prefix, "b"), &mut self.b);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut RefParamVisitor<'_>) {
        f(&join_path(prefix, "w"), &self.w);
        f(&join_path(prefix, "b"), &self.b);
    }

    fn kind(&self) -> &'static str {
        "conv"
    }
}

/// Depthwise 2-D convolution (with per-channel bias, used by BN folding).
#[derive(Debug)]
pub struct DwConv2d {
    /// Weight `[C, KH, KW]`.
    pub w: Param,
    /// Per-channel bias `[C]` (zero until trained or folded into).
    pub b: Param,
    /// Geometry.
    pub spec: ConvSpec,
    cache_x: Option<Tensor>,
}

impl DwConv2d {
    /// Kaiming-initialized depthwise convolution.
    #[must_use]
    pub fn new(ch: usize, k: usize, stride: usize, pad: usize, rng: &mut Rng) -> Self {
        let fan_in = k * k;
        Self {
            w: Param::new(Tensor::kaiming(&[ch, k, k], fan_in, rng)),
            b: Param::new(Tensor::zeros(&[ch])),
            spec: ConvSpec::new(k, stride, pad),
            cache_x: None,
        }
    }
}

impl Layer for DwConv2d {
    fn forward(&mut self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let mut y = dwconv2d(&x, &self.w.value, &self.spec);
        add_channel_bias(&mut y, &self.b.value);
        self.cache_x = Some(x);
        y
    }

    fn forward_ref(&self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let w = ctx.next_override().map_or(&self.w.value, PlanWeight::value);
        debug_assert_eq!(w.shape(), self.w.value.shape(), "override shape mismatch");
        let mut y = dwconv2d(&x, w, &self.spec);
        add_channel_bias(&mut y, &self.b.value);
        y
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let x = self.cache_x.take().expect("backward before forward");
        let (dx, dw) = dwconv2d_backward(&x, &self.w.value, &dout, &self.spec);
        self.w.grad.axpy(1.0, &dw);
        // Bias gradient: per-channel sum of dout.
        let (n, c, h, w) = mersit_tensor::dims4(&dout);
        let mut db = vec![0.0f32; c];
        let dd = dout.data();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                db[ci] += dd[base..base + h * w].iter().sum::<f32>();
            }
        }
        self.b.grad.axpy(1.0, &Tensor::from_vec(db, &[c]));
        dx
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor<'_>) {
        f(&join_path(prefix, "w"), &mut self.w);
        f(&join_path(prefix, "b"), &mut self.b);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut RefParamVisitor<'_>) {
        f(&join_path(prefix, "w"), &self.w);
        f(&join_path(prefix, "b"), &self.b);
    }

    fn kind(&self) -> &'static str {
        "dwconv"
    }
}

/// 2-D batch normalization with running statistics.
#[derive(Debug)]
pub struct BatchNorm2d {
    /// Scale `[C]`.
    pub gamma: Param,
    /// Shift `[C]`.
    pub beta: Param,
    /// Running mean `[C]` (inference).
    pub running_mean: Tensor,
    /// Running variance `[C]` (inference).
    pub running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Batch norm over `ch` channels.
    #[must_use]
    pub fn new(ch: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::full(&[ch], 1.0)),
            beta: Param::new(Tensor::zeros(&[ch])),
            running_mean: Tensor::zeros(&[ch]),
            running_var: Tensor::full(&[ch], 1.0),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Epsilon used in the variance denominator.
    #[must_use]
    pub fn eps(&self) -> f32 {
        self.eps
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let (n, c, h, w) = dims4(&x);
        let plane = n * h * w;
        let xd = x.data();
        let mut out = vec![0.0f32; x.len()];
        {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for ci in 0..c {
                let mut s = 0.0;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    s += xd[base..base + h * w].iter().sum::<f32>();
                }
                mean[ci] = s / plane as f32;
                let mut v = 0.0;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    v += xd[base..base + h * w]
                        .iter()
                        .map(|&t| (t - mean[ci]) * (t - mean[ci]))
                        .sum::<f32>();
                }
                var[ci] = v / plane as f32;
            }
            // Update running stats.
            for ci in 0..c {
                let rm = self.running_mean.data_mut();
                rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean[ci];
                let rv = self.running_var.data_mut();
                rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * var[ci];
            }
            let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
            let mut x_hat = vec![0.0f32; x.len()];
            let (gd, bd) = (self.gamma.value.data(), self.beta.value.data());
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * h * w;
                    for i in base..base + h * w {
                        let xh = (xd[i] - mean[ci]) * inv_std[ci];
                        x_hat[i] = xh;
                        out[i] = gd[ci] * xh + bd[ci];
                    }
                }
            }
            self.cache = Some(BnCache {
                x_hat: Tensor::from_vec(x_hat, x.shape()),
                inv_std,
            });
        }
        Tensor::from_vec(out, x.shape())
    }

    fn forward_ref(&self, mut x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let (_, c, h, w) = dims4(&x);
        let (gd, bd) = (self.gamma.value.data(), self.beta.value.data());
        let (rm, rv) = (self.running_mean.data(), self.running_var.data());
        for (p, plane) in x.data_mut().chunks_exact_mut(h * w).enumerate() {
            let ci = p % c;
            let inv = 1.0 / (rv[ci] + self.eps).sqrt();
            for v in plane {
                *v = gd[ci] * (*v - rm[ci]) * inv + bd[ci];
            }
        }
        x
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let BnCache { x_hat, inv_std } = self.cache.take().expect("backward before forward");
        let (n, c, h, w) = dims4(&dout);
        let plane = (n * h * w) as f32;
        let dd = dout.data();
        let xh = x_hat.data();
        let gd = self.gamma.value.data().to_vec();
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        let mut sum_d = vec![0.0f32; c];
        let mut sum_dxh = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    dgamma[ci] += dd[i] * xh[i];
                    dbeta[ci] += dd[i];
                    sum_d[ci] += dd[i];
                    sum_dxh[ci] += dd[i] * xh[i];
                }
            }
        }
        let mut dx = vec![0.0f32; dout.len()];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    // dx = γ/σ · (d − mean(d) − x̂·mean(d·x̂))
                    dx[i] = gd[ci]
                        * inv_std[ci]
                        * (dd[i] - sum_d[ci] / plane - xh[i] * sum_dxh[ci] / plane);
                }
            }
        }
        self.gamma.grad.axpy(1.0, &Tensor::from_vec(dgamma, &[c]));
        self.beta.grad.axpy(1.0, &Tensor::from_vec(dbeta, &[c]));
        Tensor::from_vec(dx, dout.shape())
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor<'_>) {
        f(&join_path(prefix, "gamma"), &mut self.gamma);
        f(&join_path(prefix, "beta"), &mut self.beta);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut RefParamVisitor<'_>) {
        f(&join_path(prefix, "gamma"), &self.gamma);
        f(&join_path(prefix, "beta"), &self.beta);
    }

    fn kind(&self) -> &'static str {
        "bn"
    }
}

/// Activation functions used across the model zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    /// `max(0, x)`.
    Relu,
    /// `min(max(0, x), 6)` (MobileNetV2).
    Relu6,
    /// `x · relu6(x+3)/6` (MobileNetV3).
    HSwish,
    /// `x · sigmoid(x)` (EfficientNet).
    Silu,
    /// Gaussian error linear unit, tanh approximation (BERT).
    Gelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl ActKind {
    /// Applies the activation.
    #[must_use]
    #[inline]
    pub fn f(self, x: f32) -> f32 {
        match self {
            ActKind::Relu => x.max(0.0),
            ActKind::Relu6 => x.clamp(0.0, 6.0),
            ActKind::HSwish => x * ((x + 3.0).clamp(0.0, 6.0)) / 6.0,
            // For a NaN `x` the product's two NaN operands differ in sign,
            // and which one it returns follows the compiler's operand
            // order: return `x` itself, quieted, in every build.
            ActKind::Silu if x.is_nan() => x + x,
            ActKind::Silu => x * sigmoid(x),
            ActKind::Gelu => 0.5 * x * (1.0 + ((0.797_884_6) * (x + 0.044715 * x * x * x)).tanh()),
            ActKind::Sigmoid => sigmoid(x),
            ActKind::Tanh => x.tanh(),
        }
    }

    /// Derivative of the activation.
    #[must_use]
    pub fn df(self, x: f32) -> f32 {
        match self {
            ActKind::Relu => f32::from(x > 0.0),
            ActKind::Relu6 => f32::from(x > 0.0 && x < 6.0),
            ActKind::HSwish => {
                if x <= -3.0 {
                    0.0
                } else if x >= 3.0 {
                    1.0
                } else {
                    (2.0 * x + 3.0) / 6.0
                }
            }
            ActKind::Silu => {
                let s = sigmoid(x);
                s + x * s * (1.0 - s)
            }
            ActKind::Gelu => {
                let c = 0.797_884_6;
                let t = (c * (x + 0.044715 * x * x * x)).tanh();
                let dt = (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * dt
            }
            ActKind::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
            ActKind::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
        }
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Runs `$body` with `$k` bound to `$kind` as a constant, one match arm
/// per [`ActKind`]: inside each arm `$k.f` folds to that kind's formula,
/// so an elementwise loop over it is monomorphic instead of matching on
/// the kind at every element.
macro_rules! per_kind {
    ($kind:expr, $k:ident => $body:expr) => {
        match $kind {
            ActKind::Relu => {
                const $k: ActKind = ActKind::Relu;
                $body
            }
            ActKind::Relu6 => {
                const $k: ActKind = ActKind::Relu6;
                $body
            }
            ActKind::HSwish => {
                const $k: ActKind = ActKind::HSwish;
                $body
            }
            ActKind::Silu => {
                const $k: ActKind = ActKind::Silu;
                $body
            }
            ActKind::Gelu => {
                const $k: ActKind = ActKind::Gelu;
                $body
            }
            ActKind::Sigmoid => {
                const $k: ActKind = ActKind::Sigmoid;
                $body
            }
            ActKind::Tanh => {
                const $k: ActKind = ActKind::Tanh;
                $body
            }
        }
    };
}

/// Elementwise activation layer.
#[derive(Debug)]
pub struct Act {
    /// Which nonlinearity.
    pub kind: ActKind,
    cache_x: Option<Tensor>,
}

impl Act {
    /// Creates an activation layer.
    #[must_use]
    pub fn new(kind: ActKind) -> Self {
        Self {
            kind,
            cache_x: None,
        }
    }
}

impl Layer for Act {
    fn forward(&mut self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let y = per_kind!(self.kind, K => x.map(|v| K.f(v)));
        self.cache_x = Some(x);
        y
    }

    fn forward_ref(&self, mut x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        per_kind!(self.kind, K => x.map_inplace(|v| K.f(v)));
        x
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let x = self.cache_x.take().expect("backward before forward");
        let k = self.kind;
        dout.zip(&x, |g, v| g * k.df(v))
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor<'_>) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut RefParamVisitor<'_>) {}

    fn kind(&self) -> &'static str {
        "act"
    }
}

/// Max pooling layer.
#[derive(Debug)]
pub struct MaxPool2d {
    k: usize,
    stride: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (argmax, x_shape)
}

impl MaxPool2d {
    /// `k×k` max pooling with the given stride.
    #[must_use]
    pub fn new(k: usize, stride: usize) -> Self {
        Self {
            k,
            stride,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let (y, arg) = maxpool2d(&x, self.k, self.stride);
        self.cache = Some((arg, x.shape().to_vec()));
        y
    }

    fn forward_ref(&self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        maxpool2d(&x, self.k, self.stride).0
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let (arg, shape) = self.cache.take().expect("backward before forward");
        maxpool2d_backward(&dout, &arg, &shape)
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor<'_>) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut RefParamVisitor<'_>) {}

    fn kind(&self) -> &'static str {
        "maxpool"
    }
}

/// Global average pooling `[N,C,H,W] → [N,C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cache_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        self.cache_shape = x.shape().to_vec();
        global_avg_pool(&x)
    }

    fn forward_ref(&self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        global_avg_pool(&x)
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        global_avg_pool_backward(&dout, &self.cache_shape)
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor<'_>) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut RefParamVisitor<'_>) {}

    fn kind(&self) -> &'static str {
        "gap"
    }
}

/// Flattens `[N, ...] → [N, prod(...)]`.
#[derive(Debug, Default)]
pub struct Flatten {
    cache_shape: Vec<usize>,
}

impl Flatten {
    /// Creates the layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        self.cache_shape = x.shape().to_vec();
        self.forward_ref(x, ctx)
    }

    fn forward_ref(&self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        dout.reshape(&self.cache_shape)
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor<'_>) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut RefParamVisitor<'_>) {}

    fn kind(&self) -> &'static str {
        "flatten"
    }
}

/// Ordered container of named layers; taps each child's output.
#[derive(Default)]
pub struct Sequential {
    children: Vec<(String, Box<dyn Layer>)>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} children)", self.children.len())
    }
}

impl Sequential {
    /// An empty container.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer with an auto-generated name `"{index}_{kind}"`.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        let name = format!("{}_{}", self.children.len(), layer.kind());
        self.children.push((name, Box::new(layer)));
        self
    }

    /// Appends a boxed layer with an explicit name.
    pub fn push_named(&mut self, name: impl Into<String>, layer: Box<dyn Layer>) -> &mut Self {
        self.children.push((name.into(), layer));
        self
    }

    /// Number of direct children.
    #[must_use]
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when the container has no children.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Immutable access to the children.
    #[must_use]
    pub fn children(&self) -> &[(String, Box<dyn Layer>)] {
        &self.children
    }

    /// Both forwards' body: runs the `(name, kind, child)`s in order,
    /// each under its path component and `nn.fwd.<path>` span, and taps
    /// the output of every child that is not itself a container.
    fn run<'a>(
        children: impl Iterator<Item = (&'a str, &'static str, Pass<'a, dyn Layer>)>,
        x: Tensor,
        ctx: &mut Ctx<'_>,
    ) -> Tensor {
        let mut t = x;
        for (name, kind, child) in children {
            ctx.push(name);
            // Per-layer forward timing (`nn.fwd.<path>`); the name closure
            // only runs — and allocates — when `MERSIT_OBS` is on.
            let span = mersit_obs::span_dyn(|| format!("nn.fwd.{}", ctx.path()));
            t = child.run(t, ctx);
            drop(span);
            if !is_container(kind) {
                t = ctx.tap_activation(t);
            }
            ctx.pop();
        }
        t
    }
}

/// Whether a layer manages its own activation taps (containers do).
fn is_container(kind: &'static str) -> bool {
    matches!(kind, "seq" | "residual" | "se" | "transformer")
}

/// Folds `bn` into a preceding convolution's weights/bias:
/// `W'[c,:] = W[c,:]·γ_c/σ_c`, `b'_c = (b_c − μ_c)·γ_c/σ_c + β_c`.
fn fold_scale_shift(bn: &BatchNorm2d) -> (Vec<f32>, Vec<f32>) {
    let g = bn.gamma.value.data();
    let beta = bn.beta.value.data();
    let mu = bn.running_mean.data();
    let var = bn.running_var.data();
    let scale: Vec<f32> = g
        .iter()
        .zip(var)
        .map(|(&g, &v)| g / (v + bn.eps()).sqrt())
        .collect();
    let shift: Vec<f32> = beta
        .iter()
        .zip(mu)
        .zip(&scale)
        .map(|((&b, &m), &s)| b - m * s)
        .collect();
    (scale, shift)
}

fn fold_into(w: &mut Param, b: &mut Param, bn: &BatchNorm2d) {
    let (scale, shift) = fold_scale_shift(bn);
    let oc = w.value.shape()[0];
    let inner: usize = w.value.shape()[1..].iter().product();
    for c in 0..oc {
        for v in &mut w.value.data_mut()[c * inner..(c + 1) * inner] {
            *v *= scale[c];
        }
        let bd = b.value.data_mut();
        bd[c] = bd[c] * scale[c] + shift[c];
    }
}

impl Layer for Sequential {
    /// Folds every `Conv2d → BatchNorm2d` / `DwConv2d → BatchNorm2d` pair
    /// into the convolution (using the BN's *running* statistics) and
    /// removes the BatchNorm layer. Inference-equivalent; call only on a
    /// trained model before PTQ.
    fn fold_bn(&mut self) {
        for (_, c) in &mut self.children {
            c.fold_bn();
        }
        let mut i = 0;
        while i + 1 < self.children.len() {
            let (head, tail) = self.children.split_at_mut(i + 1);
            let first: &mut dyn Layer = head[i].1.as_mut();
            let second: &mut dyn Layer = tail[0].1.as_mut();
            let second_any: &mut dyn std::any::Any = second;
            let folded = if let Some(bn) = second_any.downcast_mut::<BatchNorm2d>() {
                let first_any: &mut dyn std::any::Any = first;
                if let Some(conv) = first_any.downcast_mut::<Conv2d>() {
                    fold_into(&mut conv.w, &mut conv.b, bn);
                    true
                } else if let Some(dw) = first_any.downcast_mut::<DwConv2d>() {
                    fold_into(&mut dw.w, &mut dw.b, bn);
                    true
                } else {
                    false
                }
            } else {
                false
            };
            if folded {
                self.children.remove(i + 1);
            }
            i += 1;
        }
    }

    fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let children = self.children.iter_mut();
        Self::run(
            children.map(|(name, c)| (&**name, c.kind(), Pass::Train(&mut **c))),
            x,
            ctx,
        )
    }

    fn forward_ref(&self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let children = self.children.iter();
        Self::run(
            children.map(|(name, c)| (&**name, c.kind(), Pass::Infer(&**c))),
            x,
            ctx,
        )
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let mut g = dout;
        for (_, child) in self.children.iter_mut().rev() {
            g = child.backward(g);
        }
        g
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor<'_>) {
        for (name, child) in &mut self.children {
            child.visit_params(&join_path(prefix, name), f);
        }
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut RefParamVisitor<'_>) {
        for (name, child) in &self.children {
            child.visit_params_ref(&join_path(prefix, name), f);
        }
    }

    fn kind(&self) -> &'static str {
        "seq"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_check(layer: &mut dyn Layer, x: &Tensor, picks: &[usize], tol: f32) {
        // Loss = <forward(x), R> for a fixed random R.
        let mut rng = Rng::new(99);
        let y0 = layer.forward(x.clone(), &mut Ctx::new());
        let r = Tensor::randn(y0.shape(), 1.0, &mut rng);
        let dx = layer.backward(r.clone());
        let loss = |layer: &mut dyn Layer, x: &Tensor| -> f32 {
            layer
                .forward(x.clone(), &mut Ctx::new())
                .data()
                .iter()
                .zip(r.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-2;
        for &i in picks {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(layer, &xp) - loss(layer, &xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < tol,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn linear_forward_shape_and_values() {
        let mut rng = Rng::new(1);
        let mut l = Linear::new(3, 2, &mut rng);
        l.w.value = Tensor::from_vec(vec![1., 0., 0., 0., 1., 0.], &[2, 3]);
        l.b.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let y = l.forward_ref(Tensor::from_vec(vec![1., 2., 3.], &[1, 3]), &mut Ctx::new());
        assert_eq!(y.data(), &[1.5, 1.5]);
    }

    #[test]
    fn linear_backward_numerical() {
        let mut rng = Rng::new(2);
        let mut l = Linear::new(5, 4, &mut rng);
        let x = Tensor::randn(&[3, 5], 1.0, &mut rng);
        numeric_check(&mut l, &x, &[0, 4, 9, 14], 1e-2);
    }

    #[test]
    fn linear_weight_grad_numerical() {
        let mut rng = Rng::new(3);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let r = Tensor::randn(&[4, 2], 1.0, &mut rng);
        let _ = l.forward(x.clone(), &mut Ctx::new());
        let _ = l.backward(r.clone());
        let analytic = l.w.grad.clone();
        let eps = 1e-2;
        for i in 0..6 {
            let mut lp = Linear::new(3, 2, &mut Rng::new(3));
            lp.w.value = l.w.value.clone();
            lp.b.value = l.b.value.clone();
            lp.w.value.data_mut()[i] += eps;
            let yp: f32 = lp
                .forward(x.clone(), &mut Ctx::new())
                .data()
                .iter()
                .zip(r.data())
                .map(|(a, b)| a * b)
                .sum();
            let mut lm = Linear::new(3, 2, &mut Rng::new(3));
            lm.w.value = l.w.value.clone();
            lm.b.value = l.b.value.clone();
            lm.w.value.data_mut()[i] -= eps;
            let ym: f32 = lm
                .forward(x.clone(), &mut Ctx::new())
                .data()
                .iter()
                .zip(r.data())
                .map(|(a, b)| a * b)
                .sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!((num - analytic.data()[i]).abs() < 1e-2, "dW[{i}]");
        }
    }

    #[test]
    fn conv_backward_numerical() {
        let mut rng = Rng::new(4);
        let mut c = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], 1.0, &mut rng);
        numeric_check(&mut c, &x, &[0, 13, 29, 49], 2e-2);
    }

    #[test]
    fn dwconv_layer_backward_numerical() {
        let mut rng = Rng::new(5);
        let mut c = DwConv2d::new(3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 3, 4, 4], 1.0, &mut rng);
        numeric_check(&mut c, &x, &[0, 15, 31, 47], 2e-2);
    }

    #[test]
    fn activations_and_derivatives() {
        for kind in [
            ActKind::Relu,
            ActKind::Relu6,
            ActKind::HSwish,
            ActKind::Silu,
            ActKind::Gelu,
            ActKind::Sigmoid,
            ActKind::Tanh,
        ] {
            // Derivative by finite difference at generic points.
            for &x in &[-4.0f32, -1.3, -0.2, 0.4, 1.7, 4.5] {
                let eps = 1e-3;
                let num = (kind.f(x + eps) - kind.f(x - eps)) / (2.0 * eps);
                assert!(
                    (num - kind.df(x)).abs() < 2e-2,
                    "{kind:?} at {x}: {num} vs {}",
                    kind.df(x)
                );
            }
        }
        assert_eq!(ActKind::Relu6.f(9.0), 6.0);
        assert_eq!(ActKind::Relu.f(-2.0), 0.0);
    }

    #[test]
    fn act_per_kind_loops_equal_f_bit_for_bit() {
        let below = |v: f32| f32::from_bits(v.to_bits() - 1);
        let mut specials = vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffc0_0001),
            f32::from_bits(0x7f80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        // The kinks at ±3 and ±6 with their neighbours; the one at 0 is
        // met by ±0 and the subnormals above.
        for kink in [3.0f32, 6.0] {
            for v in [below(kink), kink, f32::from_bits(kink.to_bits() + 1)] {
                specials.extend([v, -v]);
            }
        }
        let mut rng = Rng::new(12);
        specials.extend(Tensor::randn(&[64], 4.0, &mut rng).data());
        // Repeated past the elementwise maps' parallel floor, so both the
        // serial and the chunked loops run.
        let data: Vec<f32> = specials
            .iter()
            .copied()
            .cycle()
            .take(100 * specials.len())
            .collect();
        let x = Tensor::from_vec(data.clone(), &[data.len()]);
        for kind in [
            ActKind::Relu,
            ActKind::Relu6,
            ActKind::HSwish,
            ActKind::Silu,
            ActKind::Gelu,
            ActKind::Sigmoid,
            ActKind::Tanh,
        ] {
            // The kind as a run-time value: the per-element match.
            let want: Vec<u32> = data
                .iter()
                .map(|&v| std::hint::black_box(kind).f(v).to_bits())
                .collect();
            let mut layer = Act::new(kind);
            let infer = layer.forward_ref(x.clone(), &mut Ctx::new());
            let train = layer.forward(x.clone(), &mut Ctx::new());
            for (what, y) in [("forward_ref", infer), ("forward", train)] {
                for (i, (&got, &want)) in y.data().iter().zip(&want).enumerate() {
                    assert_eq!(got.to_bits(), want, "{kind:?} {what} at {:e}", data[i]);
                }
            }
        }
    }

    #[test]
    fn bn_train_normalizes_batch() {
        let mut rng = Rng::new(6);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[8, 3, 4, 4], 3.0, &mut rng).map(|v| v + 5.0);
        let y = bn.forward(x, &mut Ctx::new());
        // Per-channel mean ≈ 0, var ≈ 1 after normalization.
        let (n, c, h, w) = mersit_tensor::dims4(&y);
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                for yy in 0..h {
                    for xx in 0..w {
                        vals.push(y.at(&[ni, ci, yy, xx]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn bn_backward_numerical() {
        let mut rng = Rng::new(7);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value = Tensor::from_vec(vec![1.3, 0.7], &[2]);
        bn.beta.value = Tensor::from_vec(vec![0.1, -0.2], &[2]);
        let x = Tensor::randn(&[2, 2, 3, 3], 1.0, &mut rng);
        numeric_check(&mut bn, &x, &[0, 7, 19, 35], 5e-2);
    }

    #[test]
    fn sequential_forward_backward_chain() {
        let mut rng = Rng::new(8);
        let mut net = Sequential::new();
        net.push(Linear::new(6, 5, &mut rng));
        net.push(Act::new(ActKind::Tanh));
        net.push(Linear::new(5, 3, &mut rng));
        let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
        numeric_check(&mut net, &x, &[0, 5, 11, 23], 2e-2);
    }

    #[test]
    fn sequential_paths_and_params() {
        let mut rng = Rng::new(9);
        let mut net = Sequential::new();
        net.push(Linear::new(2, 2, &mut rng));
        net.push(Act::new(ActKind::Relu));
        let mut names = Vec::new();
        net.visit_params("net", &mut |p, _| names.push(p.to_owned()));
        assert_eq!(names, vec!["net.0_linear.w", "net.0_linear.b"]);
    }

    #[test]
    fn taps_fire_per_noncontainer_child() {
        struct Counter(Vec<String>);
        impl crate::layer::Tap for Counter {
            fn activation(&mut self, site: crate::site::Site<'_>, t: Tensor) -> Tensor {
                self.0.push(site.path.to_owned());
                t
            }
        }
        let mut rng = Rng::new(10);
        let mut net = Sequential::new();
        net.push(Linear::new(3, 3, &mut rng));
        net.push(Act::new(ActKind::Relu));
        net.push(Linear::new(3, 2, &mut rng));
        let mut tap = Counter(Vec::new());
        let mut ctx = Ctx::with_tap(&mut tap);
        let _ = net.forward_ref(Tensor::zeros(&[1, 3]), &mut ctx);
        assert_eq!(tap.0, vec!["0_linear", "1_act", "2_linear"]);
    }

    #[test]
    fn maxpool_and_gap_layers() {
        let mut rng = Rng::new(11);
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        let mp = MaxPool2d::new(2, 2);
        let y = mp.forward_ref(x.clone(), &mut Ctx::new());
        assert_eq!(y.shape(), &[2, 3, 3, 3]);
        let gap = GlobalAvgPool::new();
        let z = gap.forward_ref(x, &mut Ctx::new());
        assert_eq!(z.shape(), &[2, 3]);
    }

    #[test]
    fn flatten_round_trip() {
        let mut fl = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = fl.forward(x, &mut Ctx::new());
        assert_eq!(y.shape(), &[2, 48]);
        let back = fl.backward(y);
        assert_eq!(back.shape(), &[2, 3, 4, 4]);
    }
}
