//! Composite blocks: residual connections (ResNet / MobileNetV2 inverted
//! bottlenecks) and squeeze-and-excitation (MobileNetV3 / EfficientNet).

use crate::layer::{join_path, Ctx, Layer, Pass};
use crate::layers::{Act, ActKind, Linear, Sequential};
use crate::param::{ParamVisitor, RefParamVisitor};
use mersit_tensor::{dims4, global_avg_pool, global_avg_pool_backward, Rng, Tensor};

/// `out = main(x) + shortcut(x)`; the shortcut is identity when `None`.
#[derive(Debug)]
pub struct Residual {
    /// Main branch.
    pub main: Sequential,
    /// Optional projection shortcut (stride/channel changes).
    pub shortcut: Option<Sequential>,
}

impl Residual {
    /// Residual block with identity shortcut.
    #[must_use]
    pub fn new(main: Sequential) -> Self {
        Self {
            main,
            shortcut: None,
        }
    }

    /// Residual block with a projection shortcut.
    #[must_use]
    pub fn with_shortcut(main: Sequential, shortcut: Sequential) -> Self {
        Self {
            main,
            shortcut: Some(shortcut),
        }
    }

    /// Both forwards' body: `main(x) + shortcut(x)`, tapped at `add`.
    fn run(
        main: Pass<'_, Sequential>,
        shortcut: Option<Pass<'_, Sequential>>,
        x: Tensor,
        ctx: &mut Ctx<'_>,
    ) -> Tensor {
        ctx.push("main");
        let m = main.run(x.clone(), ctx);
        ctx.pop();
        let s = match shortcut {
            Some(sc) => {
                ctx.push("shortcut");
                let s = sc.run(x, ctx);
                ctx.pop();
                s
            }
            None => x,
        };
        let mut sum = m;
        sum.add_inplace(&s);
        ctx.push("add");
        let out = ctx.tap_activation(sum);
        ctx.pop();
        out
    }
}

impl Layer for Residual {
    fn fold_bn(&mut self) {
        self.main.fold_bn();
        if let Some(sc) = &mut self.shortcut {
            sc.fold_bn();
        }
    }

    fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let shortcut = self.shortcut.as_mut().map(Pass::Train);
        Self::run(Pass::Train(&mut self.main), shortcut, x, ctx)
    }

    fn forward_ref(&self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let shortcut = self.shortcut.as_ref().map(Pass::Infer);
        Self::run(Pass::Infer(&self.main), shortcut, x, ctx)
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let dm = self.main.backward(dout.clone());
        let ds = match &mut self.shortcut {
            Some(sc) => sc.backward(dout),
            None => dout,
        };
        dm.add(&ds)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor<'_>) {
        self.main.visit_params(&join_path(prefix, "main"), f);
        if let Some(sc) = &mut self.shortcut {
            sc.visit_params(&join_path(prefix, "shortcut"), f);
        }
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut RefParamVisitor<'_>) {
        self.main.visit_params_ref(&join_path(prefix, "main"), f);
        if let Some(sc) = &self.shortcut {
            sc.visit_params_ref(&join_path(prefix, "shortcut"), f);
        }
    }

    fn kind(&self) -> &'static str {
        "residual"
    }
}

/// Squeeze-and-excitation: global pool → FC → ReLU → FC → sigmoid →
/// per-channel rescale of the input.
#[derive(Debug)]
pub struct SEBlock {
    fc1: Linear,
    act: Act,
    fc2: Linear,
    gate: Act,
    cache: Option<SeCache>,
}

#[derive(Debug)]
struct SeCache {
    x: Tensor,
    scale: Tensor, // [N, C]
}

impl SEBlock {
    /// SE block over `ch` channels with reduction ratio `r`.
    #[must_use]
    pub fn new(ch: usize, r: usize, rng: &mut Rng) -> Self {
        let mid = (ch / r).max(1);
        Self {
            fc1: Linear::new(ch, mid, rng),
            act: Act::new(ActKind::Relu),
            fc2: Linear::new(mid, ch, rng),
            gate: Act::new(ActKind::Sigmoid),
            cache: None,
        }
    }

    /// Both forwards' body: pool → `fc1` → `act` → `fc2` → `gate`, then
    /// each channel of `x` rescaled by its gate and tapped at `scale`.
    /// Returns the output and the `[N, C]` gate.
    fn run(
        [fc1, fc2]: [Pass<'_, Linear>; 2],
        [act, gate]: [Pass<'_, Act>; 2],
        x: Tensor,
        ctx: &mut Ctx<'_>,
    ) -> (Tensor, Tensor) {
        let (n, c, h, w) = dims4(&x);
        let pooled = global_avg_pool(&x); // [N, C]
        ctx.push("fc1");
        let s = fc1.run(pooled, ctx);
        ctx.pop();
        let s = act.run(s, ctx);
        ctx.push("fc2");
        let s = fc2.run(s, ctx);
        ctx.pop();
        let scale = gate.run(s, ctx); // [N, C] in (0,1)
        let mut out = x;
        let (od, sd) = (out.data_mut(), scale.data());
        for ni in 0..n {
            for ci in 0..c {
                let g = sd[ni * c + ci];
                let base = (ni * c + ci) * h * w;
                for v in &mut od[base..base + h * w] {
                    *v *= g;
                }
            }
        }
        ctx.push("scale");
        let out = ctx.tap_activation(out);
        ctx.pop();
        (out, scale)
    }
}

impl Layer for SEBlock {
    fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let fcs = [&mut self.fc1, &mut self.fc2].map(Pass::Train);
        let acts = [&mut self.act, &mut self.gate].map(Pass::Train);
        let (out, scale) = Self::run(fcs, acts, x.clone(), ctx);
        self.cache = Some(SeCache { x, scale });
        out
    }

    fn forward_ref(&self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let fcs = [&self.fc1, &self.fc2].map(Pass::Infer);
        let acts = [&self.act, &self.gate].map(Pass::Infer);
        Self::run(fcs, acts, x, ctx).0
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let SeCache { x, scale } = self.cache.take().expect("backward before forward");
        let (n, c, h, w) = dims4(&x);
        let (dd, xd, sd) = (dout.data(), x.data(), scale.data());
        // d scale[n,c] = Σ_hw dout·x ; dx (direct path) = dout·scale
        let mut dscale = vec![0.0f32; n * c];
        let mut dx = vec![0.0f32; x.len()];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                let g = sd[ni * c + ci];
                let mut acc = 0.0;
                for i in base..base + h * w {
                    acc += dd[i] * xd[i];
                    dx[i] = dd[i] * g;
                }
                dscale[ni * c + ci] = acc;
            }
        }
        // Back through gate → fc2 → act → fc1 → global pool.
        let g1 = self.gate.backward(Tensor::from_vec(dscale, &[n, c]));
        let g2 = self.fc2.backward(g1);
        let g3 = self.act.backward(g2);
        let g4 = self.fc1.backward(g3); // [N, C]
        let dpool = global_avg_pool_backward(&g4, x.shape());
        let mut dx_t = Tensor::from_vec(dx, x.shape());
        dx_t.axpy(1.0, &dpool);
        dx_t
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor<'_>) {
        self.fc1.visit_params(&join_path(prefix, "fc1"), f);
        self.fc2.visit_params(&join_path(prefix, "fc2"), f);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut RefParamVisitor<'_>) {
        self.fc1.visit_params_ref(&join_path(prefix, "fc1"), f);
        self.fc2.visit_params_ref(&join_path(prefix, "fc2"), f);
    }

    fn kind(&self) -> &'static str {
        "se"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Conv2d};

    fn dot(a: &Tensor, b: &Tensor) -> f32 {
        a.data().iter().zip(b.data()).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn residual_identity_forward() {
        let mut rng = Rng::new(1);
        let mut main = Sequential::new();
        main.push(Conv2d::new(3, 3, 3, 1, 1, &mut rng));
        let block = Residual::new(main);
        let x = Tensor::randn(&[1, 3, 4, 4], 1.0, &mut rng);
        let y = block.forward_ref(x.clone(), &mut Ctx::new());
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn residual_backward_numerical() {
        let mut rng = Rng::new(2);
        let mut main = Sequential::new();
        main.push(Conv2d::new(2, 2, 3, 1, 1, &mut rng));
        main.push(Act::new(ActKind::Tanh));
        let mut block = Residual::new(main);
        let x = Tensor::randn(&[1, 2, 3, 3], 1.0, &mut rng);
        let y = block.forward(x.clone(), &mut Ctx::new());
        let r = Tensor::randn(y.shape(), 1.0, &mut rng);
        let dx = block.backward(r.clone());
        let eps = 1e-2;
        for &i in &[0usize, 5, 11, 17] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = block.forward(xp, &mut Ctx::new());
            let _ = block.backward(r.clone()); // consume cache
            let ym = block.forward(xm, &mut Ctx::new());
            let _ = block.backward(r.clone());
            let num = (dot(&yp, &r) - dot(&ym, &r)) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 3e-2, "dx[{i}]");
        }
    }

    #[test]
    fn residual_with_projection_shortcut() {
        let mut rng = Rng::new(3);
        let mut main = Sequential::new();
        main.push(Conv2d::new(2, 4, 3, 2, 1, &mut rng));
        let mut sc = Sequential::new();
        sc.push(Conv2d::new(2, 4, 1, 2, 0, &mut rng));
        let block = Residual::with_shortcut(main, sc);
        let x = Tensor::randn(&[1, 2, 6, 6], 1.0, &mut rng);
        let y = block.forward_ref(x, &mut Ctx::new());
        assert_eq!(y.shape(), &[1, 4, 3, 3]);
    }

    #[test]
    fn se_block_scales_channels() {
        let mut rng = Rng::new(4);
        let se = SEBlock::new(4, 2, &mut rng);
        let x = Tensor::full(&[1, 4, 3, 3], 1.0);
        let y = se.forward_ref(x, &mut Ctx::new());
        // Each output channel is a constant in (0,1) times the input.
        for ci in 0..4 {
            let v = y.at(&[0, ci, 0, 0]);
            assert!(v > 0.0 && v < 1.0, "channel {ci}: {v}");
            assert!((y.at(&[0, ci, 2, 2]) - v).abs() < 1e-6);
        }
    }

    #[test]
    fn se_backward_numerical() {
        let mut rng = Rng::new(5);
        let mut se = SEBlock::new(2, 2, &mut rng);
        let x = Tensor::randn(&[1, 2, 3, 3], 1.0, &mut rng);
        let y = se.forward(x.clone(), &mut Ctx::new());
        let r = Tensor::randn(y.shape(), 1.0, &mut rng);
        let dx = se.backward(r.clone());
        let eps = 1e-2;
        for &i in &[0usize, 4, 9, 17] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = se.forward(xp, &mut Ctx::new());
            let _ = se.backward(r.clone());
            let ym = se.forward(xm, &mut Ctx::new());
            let _ = se.backward(r.clone());
            let num = (dot(&yp, &r) - dot(&ym, &r)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 3e-2,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn residual_taps_the_sum() {
        struct Names(Vec<String>);
        impl crate::layer::Tap for Names {
            fn activation(&mut self, site: crate::site::Site<'_>, t: Tensor) -> Tensor {
                self.0.push(site.path.to_owned());
                t
            }
        }
        let mut rng = Rng::new(6);
        let mut main = Sequential::new();
        main.push(BatchNorm2d::new(2));
        let block = Residual::new(main);
        let mut tap = Names(Vec::new());
        let mut ctx = Ctx::with_tap(&mut tap);
        let _ = block.forward_ref(Tensor::randn(&[1, 2, 2, 2], 1.0, &mut rng), &mut ctx);
        assert!(tap.0.iter().any(|p| p.ends_with("add")), "{:?}", tap.0);
        assert!(tap.0.iter().any(|p| p.contains("main")), "{:?}", tap.0);
    }
}
