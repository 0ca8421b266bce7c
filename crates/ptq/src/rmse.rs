//! Quantization-error analysis — the Fig. 6 RMSE comparison.

use crate::calibrate::Calibration;
use crate::quantizer::{
    quantize_per_channel, quantize_tensor, relative_rmse, scale_anchor, site_scale,
};
use mersit_core::Format;
use mersit_nn::{Ctx, Layer, Model, Site, Tap};
use mersit_tensor::Tensor;

/// RMSE summary for one (model, format) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RmseReport {
    /// Model name.
    pub model: String,
    /// Format name.
    pub format: String,
    /// Mean relative RMSE of per-channel-quantized weights.
    pub weight_rmse: f64,
    /// Mean relative RMSE of per-layer-quantized activations.
    pub act_rmse: f64,
}

impl RmseReport {
    /// Combined score (mean of the weight and activation components).
    #[must_use]
    pub fn combined(&self) -> f64 {
        0.5 * (self.weight_rmse + self.act_rmse)
    }
}

/// Mean relative RMSE across all rank-≥2 weight tensors, quantized per
/// output channel.
#[must_use]
pub fn weight_rmse(model: &Model, fmt: &dyn Format) -> f64 {
    let mut total = 0.0f64;
    let mut count = 0usize;
    model.net.visit_params_ref("", &mut |_, p| {
        if p.value.shape().len() >= 2 {
            let q = quantize_per_channel(fmt, &p.value);
            total += relative_rmse(&q, &p.value);
            count += 1;
        }
    });
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// The quantize-and-measure tap behind both the Fig. 6 activation RMSE
/// and the per-layer sensitivity ranking: each activation quantizes at
/// its calibrated scale (unseen sites pass through unmeasured), `record`
/// receives the site path and the local relative RMSE, and the quantized
/// tensor propagates downstream as in real quantized inference.
pub(crate) struct RmseTap<'a, F> {
    fmt: &'a dyn Format,
    cal: &'a Calibration,
    anchor: f64,
    record: F,
}

impl<'a, F: FnMut(&str, f64)> RmseTap<'a, F> {
    pub(crate) fn new(fmt: &'a dyn Format, cal: &'a Calibration, record: F) -> Self {
        Self {
            fmt,
            cal,
            anchor: scale_anchor(fmt),
            record,
        }
    }
}

impl<F: FnMut(&str, f64)> Tap for RmseTap<'_, F> {
    fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
        let Some(s) = site_scale(self.anchor, self.cal.max_for(site.path)) else {
            return t;
        };
        let q = quantize_tensor(self.fmt, &t, s);
        (self.record)(site.path, relative_rmse(&q, &t));
        q
    }
}

/// Mean relative RMSE of activations quantized per layer with calibrated
/// scales, measured over an evaluation batch. Quantized activations
/// propagate downstream (as in real quantized inference); each site's
/// error is measured against its local input.
#[must_use]
pub fn activation_rmse(
    model: &Model,
    cal: &Calibration,
    fmt: &dyn Format,
    inputs: &Tensor,
    batch: usize,
) -> f64 {
    let n = inputs.shape()[0];
    let mut err = 0.0f64;
    let mut sites = 0usize;
    let mut i = 0;
    while i < n {
        let hi = (i + batch).min(n);
        let x = inputs.slice_outer(i, hi);
        // Sum per batch first, then into the total: the summation order
        // the committed Fig. 6 numbers were produced with.
        let mut batch_err = 0.0f64;
        let mut tap = RmseTap::new(fmt, cal, |_, e| {
            batch_err += e;
            sites += 1;
        });
        let _ = model.net.forward_ref(x, &mut Ctx::with_tap(&mut tap));
        err += batch_err;
        i = hi;
    }
    if sites == 0 {
        0.0
    } else {
        err / sites as f64
    }
}

/// Builds the full report for one (model, format) pair.
#[must_use]
pub fn rmse_report(
    model: &Model,
    cal: &Calibration,
    fmt: &dyn Format,
    inputs: &Tensor,
    batch: usize,
) -> RmseReport {
    RmseReport {
        model: model.name.clone(),
        format: fmt.name(),
        weight_rmse: weight_rmse(model, fmt),
        act_rmse: activation_rmse(model, cal, fmt, inputs, batch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate;
    use mersit_core::parse_format;
    use mersit_nn::models::vgg_t;
    use mersit_tensor::Rng;

    #[test]
    fn weight_rmse_orders_formats_by_precision() {
        let mut rng = Rng::new(1);
        let model = vgg_t(12, 10, &mut rng);
        let hi = weight_rmse(&model, parse_format("MERSIT(8,2)").unwrap().as_ref());
        let lo = weight_rmse(&model, parse_format("FP(8,5)").unwrap().as_ref());
        assert!(hi > 0.0 && hi < 0.1, "MERSIT weight rmse {hi}");
        assert!(lo > hi, "FP(8,5) {lo} should exceed MERSIT {hi}");
    }

    #[test]
    fn activation_rmse_positive_and_format_dependent() {
        let mut rng = Rng::new(2);
        let model = vgg_t(12, 10, &mut rng);
        let x = Tensor::randn(&[8, 3, 12, 12], 1.0, &mut rng);
        let cal = calibrate(&model, &x, 4);
        let m = activation_rmse(
            &model,
            &cal,
            parse_format("MERSIT(8,2)").unwrap().as_ref(),
            &x,
            4,
        );
        let f5 = activation_rmse(
            &model,
            &cal,
            parse_format("FP(8,5)").unwrap().as_ref(),
            &x,
            4,
        );
        assert!(m > 0.0);
        assert!(f5 > m, "FP(8,5) {f5} vs MERSIT {m}");
    }

    #[test]
    fn report_combines_components() {
        let mut rng = Rng::new(3);
        let model = vgg_t(12, 10, &mut rng);
        let x = Tensor::randn(&[4, 3, 12, 12], 1.0, &mut rng);
        let cal = calibrate(&model, &x, 4);
        let fmt = parse_format("Posit(8,1)").unwrap();
        let r = rmse_report(&model, &cal, fmt.as_ref(), &x, 4);
        assert_eq!(r.model, "vgg_t");
        assert_eq!(r.format, "Posit(8,1)");
        assert!((r.combined() - 0.5 * (r.weight_rmse + r.act_rmse)).abs() < 1e-12);
    }
}
