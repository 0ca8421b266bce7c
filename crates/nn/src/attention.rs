//! Transformer components for the BERT-style GLUE models: layer norm,
//! token/position embedding, multi-head self-attention, and the encoder
//! block. Sequence activations are `[N, T, D]`.

use crate::layer::{join_path, Ctx, Layer, Pass, PlanWeight};
use crate::layers::{Act, ActKind, Linear, Sequential};
use crate::param::{Param, ParamVisitor, RefParamVisitor};
use mersit_tensor::{softmax_rows, Rng, Tensor};

/// Layer normalization over the last dimension with learned scale/shift.
#[derive(Debug)]
pub struct LayerNorm {
    /// Scale `[D]`.
    pub gamma: Param,
    /// Shift `[D]`.
    pub beta: Param,
    dim: usize,
    eps: f32,
    cache: Option<(Tensor, Vec<f32>)>, // (x_hat rows, inv_std per row)
}

impl LayerNorm {
    /// Layer norm over `dim` features.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::full(&[dim], 1.0)),
            beta: Param::new(Tensor::zeros(&[dim])),
            dim,
            eps: 1e-5,
            cache: None,
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let d = self.dim;
        let rows = x.len() / d;
        let shape = x.shape().to_vec();
        let xd = x.data();
        let mut out = vec![0.0f32; x.len()];
        let mut x_hat = vec![0.0f32; x.len()];
        let mut inv_stds = vec![0.0f32; rows];
        let (gd, bd) = (self.gamma.value.data(), self.beta.value.data());
        for r in 0..rows {
            let row = &xd[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            inv_stds[r] = inv;
            for i in 0..d {
                let xh = (row[i] - mean) * inv;
                x_hat[r * d + i] = xh;
                out[r * d + i] = gd[i] * xh + bd[i];
            }
        }
        self.cache = Some((Tensor::from_vec(x_hat, &[rows, d]), inv_stds));
        Tensor::from_vec(out, &shape)
    }

    fn forward_ref(&self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let d = self.dim;
        let rows = x.len() / d;
        let shape = x.shape().to_vec();
        let xd = x.data();
        let mut out = vec![0.0f32; x.len()];
        let (gd, bd) = (self.gamma.value.data(), self.beta.value.data());
        for r in 0..rows {
            let row = &xd[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            for i in 0..d {
                out[r * d + i] = gd[i] * (row[i] - mean) * inv + bd[i];
            }
        }
        Tensor::from_vec(out, &shape)
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let (x_hat, inv_stds) = self.cache.take().expect("backward before forward");
        let d = self.dim;
        let rows = dout.len() / d;
        let shape = dout.shape().to_vec();
        let dd = dout.data();
        let xh = x_hat.data();
        let gd = self.gamma.value.data().to_vec();
        let mut dgamma = vec![0.0f32; d];
        let mut dbeta = vec![0.0f32; d];
        let mut dx = vec![0.0f32; dout.len()];
        for r in 0..rows {
            let mut sum_g = 0.0f32;
            let mut sum_gx = 0.0f32;
            for i in 0..d {
                let g = dd[r * d + i] * gd[i];
                sum_g += g;
                sum_gx += g * xh[r * d + i];
                dgamma[i] += dd[r * d + i] * xh[r * d + i];
                dbeta[i] += dd[r * d + i];
            }
            for i in 0..d {
                let g = dd[r * d + i] * gd[i];
                dx[r * d + i] =
                    inv_stds[r] * (g - sum_g / d as f32 - xh[r * d + i] * sum_gx / d as f32);
            }
        }
        self.gamma.grad.axpy(1.0, &Tensor::from_vec(dgamma, &[d]));
        self.beta.grad.axpy(1.0, &Tensor::from_vec(dbeta, &[d]));
        Tensor::from_vec(dx, &shape)
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
        "ln"
    }
}

/// Token + learned positional embedding: `[N, T]` ids → `[N, T, D]`.
#[derive(Debug)]
pub struct Embedding {
    /// Token table `[V, D]`.
    pub table: Param,
    /// Positional table `[T_max, D]`.
    pub pos: Param,
    dim: usize,
    cache_ids: Option<Vec<usize>>,
    cache_nt: (usize, usize),
}

impl Embedding {
    /// Embedding with vocabulary `vocab`, model dim `dim`, max length
    /// `t_max`.
    #[must_use]
    pub fn new(vocab: usize, dim: usize, t_max: usize, rng: &mut Rng) -> Self {
        Self {
            table: Param::new(Tensor::randn(&[vocab, dim], 0.5, rng)),
            pos: Param::new(Tensor::randn(&[t_max, dim], 0.1, rng)),
            dim,
            cache_ids: None,
            cache_nt: (0, 0),
        }
    }
}

/// Both forwards' gather: row `r` of the `[N, T]` ids `x` becomes
/// `table[id] + pos[r mod T]`. Returns `[N, T, D]`; the training forward
/// also collects the ids into `ids` for `backward`.
fn embed(x: &Tensor, table: &Tensor, pos: &Tensor, mut ids: Option<&mut Vec<usize>>) -> Tensor {
    let (n, t) = (x.shape()[0], x.shape()[1]);
    let (vocab, d) = (table.shape()[0], table.shape()[1]);
    let (td, pd) = (table.data(), pos.data());
    let mut out = vec![0.0f32; n * t * d];
    for (row, (&v, o)) in x.data().iter().zip(out.chunks_exact_mut(d)).enumerate() {
        let id = v as usize;
        assert!(id < vocab, "token id {id} out of vocabulary (size {vocab})");
        let p = row % t;
        let (tab, pv) = (&td[id * d..(id + 1) * d], &pd[p * d..(p + 1) * d]);
        for i in 0..d {
            o[i] = tab[i] + pv[i];
        }
        if let Some(ids) = ids.as_deref_mut() {
            ids.push(id);
        }
    }
    Tensor::from_vec(out, &[n, t, d])
}

impl Layer for Embedding {
    fn forward(&mut self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        // x: [N, T] token ids stored as f32.
        let mut ids = Vec::with_capacity(x.len());
        let out = embed(&x, &self.table.value, &self.pos.value, Some(&mut ids));
        self.cache_ids = Some(ids);
        self.cache_nt = (x.shape()[0], x.shape()[1]);
        out
    }

    fn forward_ref(&self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        // Override order matches `visit_params`: table, then pos.
        let table = ctx
            .next_override()
            .map_or(&self.table.value, PlanWeight::value);
        let pos_tab = ctx
            .next_override()
            .map_or(&self.pos.value, PlanWeight::value);
        debug_assert_eq!(table.shape(), self.table.value.shape());
        debug_assert_eq!(pos_tab.shape(), self.pos.value.shape());
        embed(&x, table, pos_tab, None)
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let ids = self.cache_ids.take().expect("backward before forward");
        let (n, t) = self.cache_nt;
        let d = self.dim;
        let dd = dout.data();
        let tg = self.table.grad.data_mut();
        for (row, &id) in ids.iter().enumerate() {
            for i in 0..d {
                tg[id * d + i] += dd[row * d + i];
            }
        }
        let pg = self.pos.grad.data_mut();
        for row in 0..ids.len() {
            let pos = row % t;
            for i in 0..d {
                pg[pos * d + i] += dd[row * d + i];
            }
        }
        // Input is token ids — no upstream gradient.
        Tensor::zeros(&[n, t])
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor<'_>) {
        f(&join_path(prefix, "table"), &mut self.table);
        f(&join_path(prefix, "pos"), &mut self.pos);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut RefParamVisitor<'_>) {
        f(&join_path(prefix, "table"), &self.table);
        f(&join_path(prefix, "pos"), &self.pos);
    }

    fn kind(&self) -> &'static str {
        "embed"
    }
}

/// Multi-head self-attention.
#[derive(Debug)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
    cache: Option<MhaCache>,
}

#[derive(Debug)]
struct MhaCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    probs: Vec<Tensor>, // one [T, T] per (n, head)
    nt: (usize, usize),
}

impl MultiHeadAttention {
    /// MHA with `heads` heads over model dim `dim` (must divide evenly).
    ///
    /// # Panics
    ///
    /// Panics unless `dim % heads == 0`.
    #[must_use]
    pub fn new(dim: usize, heads: usize, rng: &mut Rng) -> Self {
        assert_eq!(dim % heads, 0, "dim must be divisible by heads");
        Self {
            wq: Linear::new(dim, dim, rng),
            wk: Linear::new(dim, dim, rng),
            wv: Linear::new(dim, dim, rng),
            wo: Linear::new(dim, dim, rng),
            heads,
            dim,
            cache: None,
        }
    }

    /// Both forwards' body: projects `x` through `wq`, `wk` and `wv`,
    /// attends per batch item and head, and projects the concatenated
    /// heads through `wo`. Returns the output and, for a training pass,
    /// what `backward` needs; an inference pass keeps no softmax and
    /// drops q, k and v before `wo` runs.
    fn run(
        [wq, wk, wv, wo]: [Pass<'_, Linear>; 4],
        (dim, heads): (usize, usize),
        x: Tensor,
        ctx: &mut Ctx<'_>,
    ) -> (Tensor, Option<MhaCache>) {
        let train = matches!(wq, Pass::Train(_));
        let (n, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        assert_eq!(d, dim, "model dim mismatch");
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        ctx.push("wq");
        let q = wq.run(x.clone(), ctx);
        ctx.pop();
        ctx.push("wk");
        let k = wk.run(x.clone(), ctx);
        ctx.pop();
        ctx.push("wv");
        let v = wv.run(x, ctx);
        ctx.pop();
        let mut concat = Tensor::zeros(&[n, t, d]);
        let mut probs = Vec::with_capacity(if train { n * heads } else { 0 });
        for ni in 0..n {
            for h in 0..heads {
                let qh = head(&q, ni, h, dh);
                let kh = head(&k, ni, h, dh);
                let vh = head(&v, ni, h, dh);
                let scores = qh.matmul(&kh.transpose()).scale(scale);
                let p = softmax_rows(&scores);
                let oh = p.matmul(&vh);
                scatter_head(&mut concat, &oh, ni, h);
                if train {
                    probs.push(p);
                }
            }
        }
        let nt = (n, t);
        let cache = train.then_some(MhaCache { q, k, v, probs, nt });
        ctx.push("wo");
        let out = wo.run(concat, ctx);
        ctx.pop();
        (out, cache)
    }
}

/// Extracts head `h` (width `dh`) of batch item `n` of `[N, T, D]` `x`
/// as `[T, dh]`.
fn head(x: &Tensor, n: usize, h: usize, dh: usize) -> Tensor {
    let (t, d) = (x.shape()[1], x.shape()[2]);
    let xd = x.data();
    let mut out = vec![0.0f32; t * dh];
    for ti in 0..t {
        let row = (n * t + ti) * d + h * dh;
        out[ti * dh..(ti + 1) * dh].copy_from_slice(&xd[row..row + dh]);
    }
    Tensor::from_vec(out, &[t, dh])
}

/// Writes `[T, dh]` `src` into head `h` of batch item `n` of `[N, T, D]`
/// `dst` (the inverse of [`head`]).
fn scatter_head(dst: &mut Tensor, src: &Tensor, n: usize, h: usize) {
    let (t, dh) = (src.shape()[0], src.shape()[1]);
    let d = dst.shape()[2];
    let (dd, sd) = (dst.data_mut(), src.data());
    for ti in 0..t {
        let row = (n * t + ti) * d + h * dh;
        dd[row..row + dh].copy_from_slice(&sd[ti * dh..(ti + 1) * dh]);
    }
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let proj = [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo].map(Pass::Train);
        let (out, cache) = Self::run(proj, (self.dim, self.heads), x, ctx);
        self.cache = cache;
        out
    }

    fn forward_ref(&self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let proj = [&self.wq, &self.wk, &self.wv, &self.wo].map(Pass::Infer);
        Self::run(proj, (self.dim, self.heads), x, ctx).0
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let MhaCache { q, k, v, probs, nt } = self.cache.take().expect("backward before forward");
        let (n, t) = nt;
        let d = self.dim;
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let dconcat = self.wo.backward(dout);
        let mut dq = Tensor::zeros(&[n, t, d]);
        let mut dk = Tensor::zeros(&[n, t, d]);
        let mut dv = Tensor::zeros(&[n, t, d]);
        for ni in 0..n {
            for h in 0..self.heads {
                let p = &probs[ni * self.heads + h];
                let doh = head(&dconcat, ni, h, dh);
                let qh = head(&q, ni, h, dh);
                let kh = head(&k, ni, h, dh);
                let vh = head(&v, ni, h, dh);
                // dV = Pᵀ · dO
                let dvh = p.transpose().matmul(&doh);
                // dP = dO · Vᵀ
                let dp = doh.matmul(&vh.transpose());
                // dS = P ∘ (dP − rowsum(dP ∘ P))
                let mut ds = Tensor::zeros(&[t, t]);
                for r in 0..t {
                    let prow = &p.data()[r * t..(r + 1) * t];
                    let dprow = &dp.data()[r * t..(r + 1) * t];
                    let dot: f32 = prow.iter().zip(dprow).map(|(a, b)| a * b).sum();
                    for c in 0..t {
                        ds.data_mut()[r * t + c] = prow[c] * (dprow[c] - dot);
                    }
                }
                let ds = ds.scale(scale);
                // dQ = dS · K ; dK = dSᵀ · Q
                let dqh = ds.matmul(&kh);
                let dkh = ds.transpose().matmul(&qh);
                scatter_head(&mut dq, &dqh, ni, h);
                scatter_head(&mut dk, &dkh, ni, h);
                scatter_head(&mut dv, &dvh, ni, h);
            }
        }
        let gx_q = self.wq.backward(dq);
        let gx_k = self.wk.backward(dk);
        let gx_v = self.wv.backward(dv);
        gx_q.add(&gx_k).add(&gx_v)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor<'_>) {
        self.wq.visit_params(&join_path(prefix, "wq"), f);
        self.wk.visit_params(&join_path(prefix, "wk"), f);
        self.wv.visit_params(&join_path(prefix, "wv"), f);
        self.wo.visit_params(&join_path(prefix, "wo"), f);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut RefParamVisitor<'_>) {
        self.wq.visit_params_ref(&join_path(prefix, "wq"), f);
        self.wk.visit_params_ref(&join_path(prefix, "wk"), f);
        self.wv.visit_params_ref(&join_path(prefix, "wv"), f);
        self.wo.visit_params_ref(&join_path(prefix, "wo"), f);
    }

    fn kind(&self) -> &'static str {
        "mha"
    }
}

/// Pre-norm transformer encoder block:
/// `x + MHA(LN(x))` then `x + FFN(LN(x))`.
#[derive(Debug)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ffn: Sequential,
}

impl TransformerBlock {
    /// Encoder block with FFN expansion factor `ffn_mult`.
    #[must_use]
    pub fn new(dim: usize, heads: usize, ffn_mult: usize, rng: &mut Rng) -> Self {
        let mut ffn = Sequential::new();
        ffn.push(Linear::new(dim, dim * ffn_mult, rng));
        ffn.push(Act::new(ActKind::Gelu));
        ffn.push(Linear::new(dim * ffn_mult, dim, rng));
        Self {
            ln1: LayerNorm::new(dim),
            attn: MultiHeadAttention::new(dim, heads, rng),
            ln2: LayerNorm::new(dim),
            ffn,
        }
    }

    /// Both forwards' body: `x1 = x + attn(ln1(x))`, then
    /// `x1 + ffn(ln2(x1))`, tapped after each norm, the attention and
    /// the output.
    fn run(
        [ln1, ln2]: [Pass<'_, LayerNorm>; 2],
        attn: Pass<'_, MultiHeadAttention>,
        ffn: Pass<'_, Sequential>,
        x: &Tensor,
        ctx: &mut Ctx<'_>,
    ) -> Tensor {
        ctx.push("ln1");
        let h = ln1.run(x.clone(), ctx);
        let h = ctx.tap_activation(h);
        ctx.pop();
        ctx.push("attn");
        let a = attn.run(h, ctx);
        let a = ctx.tap_activation(a);
        ctx.pop();
        let x1 = x.add(&a);
        ctx.push("ln2");
        let h2 = ln2.run(x1.clone(), ctx);
        let h2 = ctx.tap_activation(h2);
        ctx.pop();
        ctx.push("ffn");
        let f = ffn.run(h2, ctx);
        ctx.pop();
        let out = x1.add(&f);
        ctx.push("out");
        let out = ctx.tap_activation(out);
        ctx.pop();
        out
    }
}

impl Layer for TransformerBlock {
    fn fold_bn(&mut self) {
        self.ffn.fold_bn();
    }

    fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let lns = [&mut self.ln1, &mut self.ln2].map(Pass::Train);
        let (attn, ffn) = (Pass::Train(&mut self.attn), Pass::Train(&mut self.ffn));
        Self::run(lns, attn, ffn, &x, ctx)
    }

    fn forward_ref(&self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let lns = [&self.ln1, &self.ln2].map(Pass::Infer);
        let (attn, ffn) = (Pass::Infer(&self.attn), Pass::Infer(&self.ffn));
        Self::run(lns, attn, ffn, &x, ctx)
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        // out = x1 + ffn(ln2(x1)); x1 = x + attn(ln1(x))
        let df = self.ffn.backward(dout.clone());
        let dx1 = dout.add(&self.ln2.backward(df));
        let da = self.attn.backward(dx1.clone());
        dx1.add(&self.ln1.backward(da))
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor<'_>) {
        self.ln1.visit_params(&join_path(prefix, "ln1"), f);
        self.attn.visit_params(&join_path(prefix, "attn"), f);
        self.ln2.visit_params(&join_path(prefix, "ln2"), f);
        self.ffn.visit_params(&join_path(prefix, "ffn"), f);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut RefParamVisitor<'_>) {
        self.ln1.visit_params_ref(&join_path(prefix, "ln1"), f);
        self.attn.visit_params_ref(&join_path(prefix, "attn"), f);
        self.ln2.visit_params_ref(&join_path(prefix, "ln2"), f);
        self.ffn.visit_params_ref(&join_path(prefix, "ffn"), f);
    }

    fn kind(&self) -> &'static str {
        "transformer"
    }
}

/// Selects the first (CLS) token: `[N, T, D] → [N, D]`.
#[derive(Debug, Default)]
pub struct TakeCls {
    cache_shape: Vec<usize>,
}

impl TakeCls {
    /// Creates the layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for TakeCls {
    fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        self.cache_shape = x.shape().to_vec();
        self.forward_ref(x, ctx)
    }

    fn forward_ref(&self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let (n, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let xd = x.data();
        let mut out = vec![0.0f32; n * d];
        for ni in 0..n {
            out[ni * d..(ni + 1) * d].copy_from_slice(&xd[ni * t * d..ni * t * d + d]);
        }
        Tensor::from_vec(out, &[n, d])
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        let (n, t, d) = (
            self.cache_shape[0],
            self.cache_shape[1],
            self.cache_shape[2],
        );
        let mut dx = vec![0.0f32; n * t * d];
        let dd = dout.data();
        for ni in 0..n {
            dx[ni * t * d..ni * t * d + d].copy_from_slice(&dd[ni * d..(ni + 1) * d]);
        }
        Tensor::from_vec(dx, &self.cache_shape)
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor<'_>) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut RefParamVisitor<'_>) {}

    fn kind(&self) -> &'static str {
        "cls"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &Tensor, b: &Tensor) -> f32 {
        a.data().iter().zip(b.data()).map(|(x, y)| x * y).sum()
    }

    fn numeric_input_check(layer: &mut dyn Layer, x: &Tensor, picks: &[usize], tol: f32) {
        let mut rng = Rng::new(123);
        let y = layer.forward(x.clone(), &mut Ctx::new());
        let r = Tensor::randn(y.shape(), 1.0, &mut rng);
        let dx = layer.backward(r.clone());
        let eps = 1e-2;
        for &i in picks {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = layer.forward(xp, &mut Ctx::new());
            let _ = layer.backward(r.clone());
            let ym = layer.forward(xm, &mut Ctx::new());
            let _ = layer.backward(r.clone());
            let num = (dot(&yp, &r) - dot(&ym, &r)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < tol,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let ln = LayerNorm::new(8);
        let mut rng = Rng::new(1);
        let x = Tensor::randn(&[3, 8], 2.0, &mut rng).map(|v| v + 7.0);
        let y = ln.forward_ref(x, &mut Ctx::new());
        for r in 0..3 {
            let row = &y.data()[r * 8..(r + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn layernorm_backward_numerical() {
        let mut rng = Rng::new(2);
        let mut ln = LayerNorm::new(6);
        ln.gamma.value = Tensor::randn(&[6], 0.3, &mut rng).map(|v| v + 1.0);
        let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
        numeric_input_check(&mut ln, &x, &[0, 7, 13, 23], 3e-2);
    }

    #[test]
    fn embedding_gathers_and_accumulates() {
        let mut rng = Rng::new(3);
        let mut emb = Embedding::new(10, 4, 5, &mut rng);
        let ids = Tensor::from_vec(vec![2.0, 7.0, 2.0, 0.0], &[2, 2]);
        let y = emb.forward(ids, &mut Ctx::new());
        assert_eq!(y.shape(), &[2, 2, 4]);
        // Same token at different positions differs only by the positional
        // embedding.
        let tok2_pos0: Vec<f32> = (0..4).map(|i| y.at(&[0, 0, i])).collect();
        let tok2_pos0b: Vec<f32> = (0..4).map(|i| y.at(&[1, 0, i])).collect();
        assert_eq!(tok2_pos0, tok2_pos0b);
        // Backward accumulates into the right rows.
        let g = Tensor::full(&[2, 2, 4], 1.0);
        let _ = emb.backward(g);
        // token 2 appears twice → grad 2 per component.
        assert_eq!(emb.table.grad.at(&[2, 0]), 2.0);
        assert_eq!(emb.table.grad.at(&[7, 0]), 1.0);
        assert_eq!(emb.table.grad.at(&[5, 0]), 0.0);
    }

    #[test]
    fn mha_forward_shape_and_permutation_sanity() {
        let mut rng = Rng::new(4);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Tensor::randn(&[2, 5, 8], 1.0, &mut rng);
        let y = mha.forward_ref(x, &mut Ctx::new());
        assert_eq!(y.shape(), &[2, 5, 8]);
    }

    #[test]
    fn mha_backward_numerical() {
        let mut rng = Rng::new(5);
        let mut mha = MultiHeadAttention::new(4, 2, &mut rng);
        let x = Tensor::randn(&[1, 3, 4], 1.0, &mut rng);
        numeric_input_check(&mut mha, &x, &[0, 3, 7, 11], 3e-2);
    }

    #[test]
    fn transformer_block_backward_numerical() {
        let mut rng = Rng::new(6);
        let mut blk = TransformerBlock::new(4, 2, 2, &mut rng);
        let x = Tensor::randn(&[1, 3, 4], 1.0, &mut rng);
        numeric_input_check(&mut blk, &x, &[0, 5, 11], 5e-2);
    }

    #[test]
    fn take_cls_picks_first_token() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 3, 2]);
        let mut cls = TakeCls::new();
        let y = cls.forward(x, &mut Ctx::new());
        assert_eq!(y.data(), &[0., 1., 6., 7.]);
        let dx = cls.backward(Tensor::full(&[2, 2], 1.0));
        assert_eq!(dx.sum(), 4.0);
        assert_eq!(dx.at(&[0, 0, 1]), 1.0);
        assert_eq!(dx.at(&[0, 1, 0]), 0.0);
    }
}
