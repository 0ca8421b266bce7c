//! Neural-network math primitives over [`Tensor`]: im2col convolution
//! (forward and backward), depthwise convolution, pooling, softmax and
//! cross-entropy — the compute substrate the `mersit-nn` layers wrap.
//!
//! Layout convention: activations are NCHW, convolution weights are
//! `[OC, C·KH·KW]` (already flattened for im2col matmuls), depthwise
//! weights are `[C, KH, KW]`.

use std::ops::Range;

use crate::par;
use crate::tensor::Tensor;

/// Convolution geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dims).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvSpec {
    /// Square kernel with stride/pad.
    #[must_use]
    pub fn new(k: usize, stride: usize, pad: usize) -> Self {
        Self {
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    #[must_use]
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad - self.kh) / self.stride + 1,
            (w + 2 * self.pad - self.kw) / self.stride + 1,
        )
    }
}

/// Unfolds an NCHW tensor into im2col layout:
/// `[N·OH·OW, C·KH·KW]`, rows ordered `(n, oh, ow)`.
///
/// # Panics
///
/// Panics unless `x` is rank 4.
#[must_use]
pub fn im2col(x: &Tensor, spec: &ConvSpec) -> Tensor {
    let (n, c, h, w) = dims4(x);
    let (oh, ow) = spec.out_hw(h, w);
    let ckk = c * spec.kh * spec.kw;
    let mut out = vec![0.0f32; n * oh * ow * ckk];
    let xd = x.data();
    // Each output row is one `(n, oh, ow)` patch, filled independently of
    // every other row, so flat row ranges split cleanly across threads.
    par::par_chunks_mut(&mut out, ckk, par::min_units(ckk), |row0, chunk| {
        for (dr, orow) in chunk.chunks_mut(ckk).enumerate() {
            let row = row0 + dr;
            let ni = row / (oh * ow);
            let oy = row / ow % oh;
            let ox = row % ow;
            for ci in 0..c {
                for ky in 0..spec.kh {
                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                    for kx in 0..spec.kw {
                        let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                        let col = (ci * spec.kh + ky) * spec.kw + kx;
                        if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            orow[col] = xd[((ni * c + ci) * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[n * oh * ow, ckk])
}

/// Folds an im2col gradient back into an NCHW input gradient
/// (the adjoint of [`im2col`]).
///
/// # Panics
///
/// Panics on inconsistent shapes.
#[must_use]
pub fn col2im(dcol: &Tensor, x_shape: &[usize], spec: &ConvSpec) -> Tensor {
    let (n, c, h, w) = (x_shape[0], x_shape[1], x_shape[2], x_shape[3]);
    let (oh, ow) = spec.out_hw(h, w);
    let ckk = c * spec.kh * spec.kw;
    assert_eq!(dcol.shape(), &[n * oh * ow, ckk], "col shape mismatch");
    let mut dx = vec![0.0f32; n * c * h * w];
    let dd = dcol.data();
    let mut row = 0;
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let base = row * ckk;
                for ci in 0..c {
                    for ky in 0..spec.kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        for kx in 0..spec.kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            let col = (ci * spec.kh + ky) * spec.kw + kx;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                dx[((ni * c + ci) * h + iy as usize) * w + ix as usize] +=
                                    dd[base + col];
                            }
                        }
                    }
                }
                row += 1;
            }
        }
    }
    Tensor::from_vec(dx, &[n, c, h, w])
}

/// Permutes `[N·OH·OW, OC]` (im2col matmul output) to NCHW.
#[must_use]
pub fn rows_to_nchw(rows: &Tensor, n: usize, oc: usize, oh: usize, ow: usize) -> Tensor {
    assert_eq!(rows.shape(), &[n * oh * ow, oc]);
    let rd = rows.data();
    let mut out = vec![0.0f32; n * oc * oh * ow];
    for ni in 0..n {
        for y in 0..oh {
            for x in 0..ow {
                let r = (ni * oh + y) * ow + x;
                for co in 0..oc {
                    out[((ni * oc + co) * oh + y) * ow + x] = rd[r * oc + co];
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

/// Permutes NCHW to `[N·OH·OW, OC]` (the inverse of [`rows_to_nchw`]).
#[must_use]
pub fn nchw_to_rows(x: &Tensor) -> Tensor {
    let (n, c, h, w) = dims4(x);
    let xd = x.data();
    let mut out = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for y in 0..h {
            for xx in 0..w {
                let r = (ni * h + y) * w + xx;
                for ci in 0..c {
                    out[r * c + ci] = xd[((ni * c + ci) * h + y) * w + xx];
                }
            }
        }
    }
    Tensor::from_vec(out, &[n * h * w, c])
}

/// Convolution forward, the one im2col → GEMM → NCHW → bias path: `x`
/// NCHW, `bias` `[OC]`.
///
/// `gemm` maps the `[N·OH·OW, C·KH·KW]` patch rows to their
/// `[N·OH·OW, OC]` product with the transposed `[OC, C·KH·KW]` weight,
/// bias not included; the caller picks the float, packed or bit-true
/// kernel. Returns the NCHW output and the patch rows, which a training
/// forward keeps for the weight gradient.
///
/// # Panics
///
/// Panics on inconsistent shapes.
#[must_use]
pub fn conv2d(
    x: &Tensor,
    spec: &ConvSpec,
    bias: &Tensor,
    gemm: impl FnOnce(&Tensor) -> Tensor,
) -> (Tensor, Tensor) {
    let (n, _c, h, w) = dims4(x);
    let (oh, ow) = spec.out_hw(h, w);
    let col = im2col(x, spec);
    let rows = gemm(&col);
    let mut out = rows_to_nchw(&rows, n, bias.len(), oh, ow);
    add_channel_bias(&mut out, bias);
    (out, col)
}

/// Adds a per-channel bias to an NCHW tensor in place.
///
/// # Panics
///
/// Panics if `bias` length differs from the channel count.
pub fn add_channel_bias(x: &mut Tensor, bias: &Tensor) {
    let (n, c, h, w) = dims4(x);
    assert_eq!(bias.len(), c, "bias length mismatch");
    let bd = bias.data();
    let xd = x.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for p in &mut xd[base..base + h * w] {
                *p += bd[ci];
            }
        }
    }
}

/// Depthwise convolution forward: `x` NCHW, `w` `[C, KH, KW]`.
///
/// The output splits into independent `OH·OW` planes, one per (sample,
/// channel), and the planes run on the pool ([`par::par_chunks_mut`]).
/// Inside a plane the taps are the outer loop: for each `(ky, kx)` the
/// output rows and columns whose input lies inside the image are found
/// once, and `x · w` is added along them, over contiguous slices at
/// stride 1. Every output still starts at `0.0` and adds its in-bounds
/// taps in `(ky, kx)` order, the order of the output-major loop this
/// replaced, so each output sees the same sequence of f32 operations:
/// the result is bit-identical at every thread count.
///
/// # Panics
///
/// Panics on inconsistent shapes.
#[must_use]
pub fn dwconv2d(x: &Tensor, w: &Tensor, spec: &ConvSpec) -> Tensor {
    let (n, c, h, ww) = dims4(x);
    assert_eq!(w.shape()[0], c, "depthwise kernel channel mismatch");
    let (oh, ow) = spec.out_hw(h, ww);
    let mut out = vec![0.0f32; n * c * oh * ow];
    // One plane costs OH·OW·KH·KW multiply-adds.
    let floor = par::min_units(oh * ow * spec.kh * spec.kw);
    par::par_chunks_mut(&mut out, oh * ow, floor, |p0, chunk| {
        dwconv_planes(x, w, spec, p0, chunk);
    });
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// The body of [`dwconv2d`] for whole output planes `p0, p0 + 1, …`
/// (plane `p` is sample `p / C`, channel `p % C`), written into the
/// zeroed `out`: taps outermost, each tap added over the output rows and
/// columns whose input is inside the image.
fn dwconv_planes(x: &Tensor, w: &Tensor, spec: &ConvSpec, p0: usize, out: &mut [f32]) {
    let (_, c, h, ww) = dims4(x);
    let (oh, ow) = spec.out_hw(h, ww);
    let (kh, kw, stride, pad) = (spec.kh, spec.kw, spec.stride, spec.pad);
    for (dp, plane) in out.chunks_exact_mut(oh * ow).enumerate() {
        let p = p0 + dp;
        let xp = &x.data()[p * h * ww..(p + 1) * h * ww];
        let taps = &w.data()[(p % c) * kh * kw..(p % c + 1) * kh * kw];
        for ky in 0..kh {
            let rows = tap_range(ky, pad, stride, h, oh);
            for kx in 0..kw {
                let cols = tap_range(kx, pad, stride, ww, ow);
                // An empty range may start past its end: skip it before
                // it is used as a slice bound.
                if rows.is_empty() || cols.is_empty() {
                    continue;
                }
                let tap = taps[ky * kw + kx];
                let ix0 = cols.start * stride + kx - pad;
                for oy in rows.clone() {
                    let iy = oy * stride + ky - pad;
                    let xs = &xp[iy * ww + ix0..(iy + 1) * ww];
                    let os = &mut plane[oy * ow + cols.start..oy * ow + cols.end];
                    if stride == 1 {
                        for (o, &xv) in os.iter_mut().zip(xs) {
                            *o += xv * tap;
                        }
                    } else {
                        for (o, &xv) in os.iter_mut().zip(xs.iter().step_by(stride)) {
                            *o += xv * tap;
                        }
                    }
                }
            }
        }
    }
}

/// The outputs `o < n_out` that tap `k` reaches: those whose input index
/// `o·stride + k − pad` lies in `0..n_in`. Empty when none does, and then
/// its start may exceed its end.
fn tap_range(k: usize, pad: usize, stride: usize, n_in: usize, n_out: usize) -> Range<usize> {
    let lo = pad.saturating_sub(k).div_ceil(stride);
    let hi = if n_in + pad > k {
        ((n_in + pad - k - 1) / stride + 1).min(n_out)
    } else {
        0
    };
    lo..hi
}

/// The output-major depthwise loop [`dwconv2d`] replaced: the reference
/// its bits are pinned against.
#[cfg(test)]
fn dwconv2d_reference(x: &Tensor, w: &Tensor, spec: &ConvSpec) -> Tensor {
    let (n, c, h, ww) = dims4(x);
    assert_eq!(w.shape()[0], c, "depthwise kernel channel mismatch");
    let (oh, ow) = spec.out_hw(h, ww);
    let mut out = vec![0.0f32; n * c * oh * ow];
    let (xd, wd) = (x.data(), w.data());
    for ni in 0..n {
        for ci in 0..c {
            let xbase = (ni * c + ci) * h * ww;
            let wbase = ci * spec.kh * spec.kw;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut s = 0.0;
                    for ky in 0..spec.kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..spec.kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix < 0 || ix as usize >= ww {
                                continue;
                            }
                            s += xd[xbase + iy as usize * ww + ix as usize]
                                * wd[wbase + ky * spec.kw + kx];
                        }
                    }
                    out[((ni * c + ci) * oh + oy) * ow + ox] = s;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Depthwise convolution backward: returns `(dx, dw)`.
///
/// # Panics
///
/// Panics on inconsistent shapes.
#[must_use]
pub fn dwconv2d_backward(
    x: &Tensor,
    w: &Tensor,
    dout: &Tensor,
    spec: &ConvSpec,
) -> (Tensor, Tensor) {
    let (n, c, h, ww) = dims4(x);
    let (oh, ow) = spec.out_hw(h, ww);
    let mut dx = vec![0.0f32; x.len()];
    let mut dw = vec![0.0f32; w.len()];
    let (xd, wd, dd) = (x.data(), w.data(), dout.data());
    for ni in 0..n {
        for ci in 0..c {
            let xbase = (ni * c + ci) * h * ww;
            let wbase = ci * spec.kh * spec.kw;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dd[((ni * c + ci) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ky in 0..spec.kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..spec.kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix < 0 || ix as usize >= ww {
                                continue;
                            }
                            let xi = xbase + iy as usize * ww + ix as usize;
                            let wi = wbase + ky * spec.kw + kx;
                            dx[xi] += g * wd[wi];
                            dw[wi] += g * xd[xi];
                        }
                    }
                }
            }
        }
    }
    (
        Tensor::from_vec(dx, x.shape()),
        Tensor::from_vec(dw, w.shape()),
    )
}

/// 2×2 (or general) max pooling; returns `(output, argmax_flat_indices)`.
///
/// # Panics
///
/// Panics unless `x` is rank 4.
#[must_use]
pub fn maxpool2d(x: &Tensor, k: usize, stride: usize) -> (Tensor, Vec<usize>) {
    let (n, c, h, w) = dims4(x);
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let xd = x.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut arg = vec![0usize; n * c * oh * ow];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut bi = 0;
                    for ky in 0..k {
                        for kx in 0..k {
                            let idx = base + (oy * stride + ky) * w + (ox * stride + kx);
                            if xd[idx] > best {
                                best = xd[idx];
                                bi = idx;
                            }
                        }
                    }
                    let o = ((ni * c + ci) * oh + oy) * ow + ox;
                    out[o] = best;
                    arg[o] = bi;
                }
            }
        }
    }
    (Tensor::from_vec(out, &[n, c, oh, ow]), arg)
}

/// Max-pool backward given the recorded argmax indices.
#[must_use]
pub fn maxpool2d_backward(dout: &Tensor, arg: &[usize], x_shape: &[usize]) -> Tensor {
    let mut dx = vec![0.0f32; x_shape.iter().product()];
    for (g, &i) in dout.data().iter().zip(arg.iter()) {
        dx[i] += g;
    }
    Tensor::from_vec(dx, x_shape)
}

/// Global average pooling NCHW → `[N, C]`.
///
/// # Panics
///
/// Panics unless `x` is rank 4.
#[must_use]
pub fn global_avg_pool(x: &Tensor) -> Tensor {
    let (n, c, h, w) = dims4(x);
    let xd = x.data();
    let mut out = vec![0.0f32; n * c];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            out[ni * c + ci] = xd[base..base + h * w].iter().sum::<f32>() / (h * w) as f32;
        }
    }
    Tensor::from_vec(out, &[n, c])
}

/// Global-average-pool backward: spreads each gradient uniformly.
#[must_use]
pub fn global_avg_pool_backward(dout: &Tensor, x_shape: &[usize]) -> Tensor {
    let (n, c, h, w) = (x_shape[0], x_shape[1], x_shape[2], x_shape[3]);
    let scale = 1.0 / (h * w) as f32;
    let dd = dout.data();
    let mut dx = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for ci in 0..c {
            let g = dd[ni * c + ci] * scale;
            let base = (ni * c + ci) * h * w;
            for p in &mut dx[base..base + h * w] {
                *p = g;
            }
        }
    }
    Tensor::from_vec(dx, x_shape)
}

/// Row-wise softmax of a rank-2 tensor.
///
/// # Panics
///
/// Panics unless `x` is rank 2.
#[must_use]
pub fn softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().len(), 2, "softmax needs rank 2");
    let (n, k) = (x.shape()[0], x.shape()[1]);
    let xd = x.data();
    let mut out = vec![0.0f32; n * k];
    for i in 0..n {
        let row = &xd[i * k..(i + 1) * k];
        let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut z = 0.0;
        for (o, &v) in out[i * k..(i + 1) * k].iter_mut().zip(row.iter()) {
            *o = (v - m).exp();
            z += *o;
        }
        for o in &mut out[i * k..(i + 1) * k] {
            *o /= z;
        }
    }
    Tensor::from_vec(out, &[n, k])
}

/// Mean cross-entropy loss of logits `[N, K]` against integer labels, and
/// its gradient with respect to the logits.
///
/// # Panics
///
/// Panics on rank/label mismatch.
#[must_use]
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), n, "label count mismatch");
    let p = softmax_rows(logits);
    let pd = p.data();
    let mut loss = 0.0f32;
    let mut grad = pd.to_vec();
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < k, "label out of range");
        loss -= pd[i * k + y].max(1e-12).ln();
        grad[i * k + y] -= 1.0;
    }
    let scale = 1.0 / n as f32;
    for g in &mut grad {
        *g *= scale;
    }
    (loss / n as f32, Tensor::from_vec(grad, &[n, k]))
}

/// Extracts `(N, C, H, W)` from a rank-4 tensor.
///
/// # Panics
///
/// Panics unless the tensor is rank 4.
#[must_use]
pub fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    let s = x.shape();
    assert_eq!(s.len(), 4, "expected NCHW, got {s:?}");
    (s[0], s[1], s[2], s[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Naive direct convolution for cross-checking im2col.
    fn conv_naive(x: &Tensor, w: &Tensor, spec: &ConvSpec) -> Tensor {
        let (n, c, h, ww) = dims4(x);
        let (oh, ow) = spec.out_hw(h, ww);
        let oc = w.shape()[0];
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for ni in 0..n {
            for co in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut s = 0.0;
                        for ci in 0..c {
                            for ky in 0..spec.kh {
                                for kx in 0..spec.kw {
                                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                    if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= ww {
                                        continue;
                                    }
                                    let wv = w.at(&[co, (ci * spec.kh + ky) * spec.kw + kx]);
                                    s += wv * x.at(&[ni, ci, iy as usize, ix as usize]);
                                }
                            }
                        }
                        *out.at_mut(&[ni, co, oy, ox]) = s;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv2d_matches_naive() {
        let mut rng = Rng::new(1);
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 3 * 9], 0.5, &mut rng);
        for spec in [
            ConvSpec::new(3, 1, 1),
            ConvSpec::new(3, 2, 1),
            ConvSpec::new(3, 1, 0),
            ConvSpec::new(1, 1, 0),
        ] {
            let w1 = if spec.kh == 1 {
                Tensor::randn(&[4, 3], 0.5, &mut rng)
            } else {
                w.clone()
            };
            let zero = Tensor::zeros(&[4]);
            let got = conv2d(&x, &spec, &zero, |col| col.matmul(&w1.transpose())).0;
            let want = conv_naive(&x, &w1, &spec);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.data().iter().zip(want.data().iter()) {
                assert!((a - b).abs() < 1e-4, "spec {spec:?}");
            }
        }
    }

    #[test]
    fn conv_bias_adds_per_channel() {
        let x = Tensor::full(&[1, 1, 2, 2], 0.0);
        let w = Tensor::full(&[2, 1], 0.0);
        let b = Tensor::from_vec(vec![1.5, -2.0], &[2]);
        let spec = ConvSpec::new(1, 1, 0);
        let (y, _) = conv2d(&x, &spec, &b, |col| col.matmul(&w.transpose()));
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.5);
        assert_eq!(y.at(&[0, 1, 0, 0]), -2.0);
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let mut rng = Rng::new(2);
        let spec = ConvSpec::new(3, 2, 1);
        let x = Tensor::randn(&[2, 3, 5, 5], 1.0, &mut rng);
        let col = im2col(&x, &spec);
        let y = Tensor::randn(col.shape(), 1.0, &mut rng);
        let lhs: f32 = col.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, x.shape(), &spec);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn dwconv_matches_grouped_naive() {
        let mut rng = Rng::new(3);
        let x = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 3, 3], 0.5, &mut rng);
        let spec = ConvSpec::new(3, 1, 1);
        let got = dwconv2d(&x, &w, &spec);
        // Naive: each channel convolved independently.
        for ni in 0..2 {
            for ci in 0..4 {
                for oy in 0..6 {
                    for ox in 0..6 {
                        let mut s = 0.0;
                        for ky in 0..3 {
                            for kx in 0..3 {
                                let iy = oy as isize + ky as isize - 1;
                                let ix = ox as isize + kx as isize - 1;
                                if iy < 0 || ix < 0 || iy >= 6 || ix >= 6 {
                                    continue;
                                }
                                s +=
                                    x.at(&[ni, ci, iy as usize, ix as usize]) * w.at(&[ci, ky, kx]);
                            }
                        }
                        assert!((got.at(&[ni, ci, oy, ox]) - s).abs() < 1e-4);
                    }
                }
            }
        }
    }

    /// [`dwconv2d`]'s plane split at an explicit thread count, with a
    /// floor of one plane per chunk so that small tensors split too.
    fn dwconv2d_with_threads(threads: usize, x: &Tensor, w: &Tensor, spec: &ConvSpec) -> Tensor {
        let (n, c, h, ww) = dims4(x);
        let (oh, ow) = spec.out_hw(h, ww);
        let mut out = vec![0.0f32; n * c * oh * ow];
        par::par_chunks_mut_with(threads, &mut out, oh * ow, 1, |p0, chunk| {
            dwconv_planes(x, w, spec, p0, chunk);
        });
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    #[test]
    fn dwconv_tap_major_bit_identical_to_reference() {
        // On a 1×1 input with pad 2 and a 5-wide kernel, tap 0 reaches
        // no output and its range starts past its end.
        let r = tap_range(0, 2, 1, 1, 1);
        assert!(r.is_empty() && r.start > r.end);
        let mut rng = Rng::new(8);
        // (N, C, H, W): 1×1, odd and non-square planes, N and C from 1,
        // and a mobilenet-sized tensor that `dwconv2d` itself splits.
        let shapes = [
            (1, 1, 1, 1),
            (1, 2, 5, 5),
            (2, 3, 7, 4),
            (3, 1, 3, 9),
            (1, 4, 1, 6),
            (2, 5, 6, 1),
            (2, 8, 16, 16),
        ];
        for k in [1, 2, 3, 5] {
            for stride in [1, 2, 3] {
                for pad in [0, 1, 2] {
                    let spec = ConvSpec::new(k, stride, pad);
                    for &(n, c, h, ww) in &shapes {
                        if h + 2 * pad < k || ww + 2 * pad < k {
                            continue;
                        }
                        let x = Tensor::randn(&[n, c, h, ww], 1.0, &mut rng);
                        let w = Tensor::randn(&[c, k, k], 0.5, &mut rng);
                        let want = dwconv2d_reference(&x, &w, &spec);
                        let mut runs = vec![("dwconv2d".to_owned(), dwconv2d(&x, &w, &spec))];
                        for threads in [1, 2, 7] {
                            let got = dwconv2d_with_threads(threads, &x, &w, &spec);
                            runs.push((format!("{threads} threads"), got));
                        }
                        for (what, got) in runs {
                            assert_eq!(got.shape(), want.shape());
                            for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "{what}, {spec:?}, x {:?}, element {i}",
                                    x.shape()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dwconv_backward_numerical() {
        let mut rng = Rng::new(4);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 3, 3], 0.5, &mut rng);
        let spec = ConvSpec::new(3, 1, 1);
        let dout = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let (dx, dw) = dwconv2d_backward(&x, &w, &dout, &spec);
        let loss = |x: &Tensor, w: &Tensor| -> f32 {
            dwconv2d(x, w, &spec)
                .data()
                .iter()
                .zip(dout.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-3;
        for i in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-2, "dx[{i}]");
        }
        for i in [0usize, 7, 17] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - dw.data()[i]).abs() < 1e-2, "dw[{i}]");
        }
    }

    #[test]
    fn maxpool_forward_backward() {
        let x = Tensor::from_vec(
            vec![
                1., 2., 5., 3., //
                4., 0., 1., 2., //
                7., 1., 0., 1., //
                2., 3., 4., 9.,
            ],
            &[1, 1, 4, 4],
        );
        let (y, arg) = maxpool2d(&x, 2, 2);
        assert_eq!(y.data(), &[4., 5., 7., 9.]);
        let dout = Tensor::from_vec(vec![1., 1., 1., 1.], &[1, 1, 2, 2]);
        let dx = maxpool2d_backward(&dout, &arg, x.shape());
        assert_eq!(dx.data()[4], 1.0); // the 4
        assert_eq!(dx.data()[2], 1.0); // the 5
        assert_eq!(dx.sum(), 4.0);
    }

    #[test]
    fn gap_and_backward() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let y = global_avg_pool(&x);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let dx = global_avg_pool_backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]), x.shape());
        assert_eq!(dx.data()[0], 1.0);
        assert_eq!(dx.data()[7], 2.0);
    }

    #[test]
    fn softmax_rows_sane() {
        let x = Tensor::from_vec(vec![1., 2., 3., 1000., 1000., 1000.], &[2, 3]);
        let p = softmax_rows(&x);
        let row0: f32 = p.data()[..3].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-5);
        assert!((p.data()[5] - 1.0 / 3.0).abs() < 1e-5); // no overflow
        assert!(p.data()[2] > p.data()[1]);
    }

    #[test]
    fn cross_entropy_gradient_numerical() {
        let mut rng = Rng::new(6);
        let logits = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let labels = [1usize, 3, 0];
        let (_, grad) = cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (la, _) = cross_entropy(&lp, &labels);
            let (lb, _) = cross_entropy(&lm, &labels);
            let num = (la - lb) / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-2, "grad[{i}]");
        }
    }

    #[test]
    fn nchw_row_round_trip() {
        let mut rng = Rng::new(7);
        let x = Tensor::randn(&[2, 3, 4, 5], 1.0, &mut rng);
        let rows = nchw_to_rows(&x);
        let back = rows_to_nchw(&rows, 2, 3, 4, 5);
        assert_eq!(back, x);
    }
}
