//! Fake-quantized inference through a compiled [`QuantPlan`]: weights
//! quantized per output channel into plan-owned slots, activations
//! quantized per layer at every tap point using the calibrated maxima as
//! scaling parameters. Forwards run over a shared `&Model` with the
//! plan's weights injected as overrides, so many plans can evaluate
//! concurrently over one read-only model, with batch shards inside each.
//!
//! # Invariants
//!
//! * **The tap sites are the contract.** Quantized inference must visit
//!   exactly the activation sites calibration recorded — a site seen only
//!   at calibration means a scale silently goes unused; a site seen only
//!   at inference runs unquantized. Pinned by
//!   `quantized_inference_visits_calibrated_sites` in `calibrate.rs`.
//! * **The outputs are pinned bit for bit.** A digest of every logit bit
//!   plus the argmax vector, for two zoo models × every Table-2 format ×
//!   both executors, must match `tests/golden/plan_logits.txt`
//!   (`plan_logits_match_golden_digests`).
//! * **The model is only read.** Building a plan copies the quantized
//!   weights out; the FP32 model is never mutated.
//! * **Rank rule.** Only rank-≥2 parameters are quantized; rank-1
//!   parameters (biases, norm scale/shift) stay FP32, matching common
//!   PTQ practice where they fold into the high-precision accumulator.
//! * **Unseen sites pass through.** A tap whose calibrated maximum is 0
//!   (never fired, or all-zero data) returns the tensor untouched rather
//!   than dividing by a degenerate scale.
//!
//! # Observability
//!
//! With `MERSIT_OBS` on, every tap point records a `ptq.layer.<path>`
//! span (the per-layer executor timings; the path string comes from the
//! interned site table, never rebuilt per activation), and the pipeline
//! phases record `ptq.plan.build` / `ptq.plan.predict` /
//! `ptq.plan.predict_batch` spans. Instrumentation observes only — the
//! quantized values are bit-identical with the toggle on or off.

use crate::assign::FormatAssignment;
use crate::bittrue::{Executor, QuantGemm};
use crate::calibrate::{Calibration, INPUT_PATH};
use crate::quantizer::{quantize_per_channel, quantize_slice, scale_anchor, site_scale};
use mersit_core::{Format, FormatRef};
use mersit_nn::{
    argmax_rows, predict_sharded, Ctx, InputKind, Layer, Model, PlanWeight, Site, SiteTable, Tap,
};
use mersit_tensor::Tensor;
use std::sync::Arc;

/// A compiled, immutable evaluation plan for one (model, assignment)
/// pair: plan-owned quantized weight slots (rank-≥2, in parameter-visit
/// order) plus dense per-site activation scales — each weight and site
/// quantized through the format its path resolves to under the plan's
/// [`FormatAssignment`] (a uniform assignment reproduces the historical
/// single-format plan bit for bit). Each slot holds the one form its
/// layer reads ([`PlanWeight`]): GEMM-rhs weights (Linear / im2col
/// Conv2d) as cache-blocked panels packed at build time (once per
/// assignment, not once per sample) or as a bit-true engine, any other
/// weight as its quantized tensor. Building the plan
/// never mutates the model, and [`QuantPlan::predict`] needs only `&`
/// access — so plans for different assignments run concurrently over one
/// model, and batch shards run concurrently inside one plan.
#[derive(Debug)]
pub struct QuantPlan {
    pub(crate) assign: FormatAssignment,
    weights: Vec<PlanWeight>,
    /// Per-site resolved formats, in [`SiteTable`] id order.
    pub(crate) site_fmts: Vec<FormatRef>,
    pub(crate) scales: Vec<Option<f64>>,
    pub(crate) sites: SiteTable,
    /// The format the network input quantizes through
    /// ([`crate::INPUT_PATH`] resolution).
    input_fmt: FormatRef,
    input_scale: Option<f64>,
    executor: Executor,
}

/// The plan's tap: quantizes each activation site through its resolved
/// format at its calibrated scale, or passes it through (counting the
/// miss) when the site was unseen.
pub(crate) struct PlanTap<'a> {
    fmts: &'a [FormatRef],
    scales: &'a [Option<f64>],
}

impl Tap for PlanTap<'_> {
    fn activation(&mut self, site: Site<'_>, mut t: Tensor) -> Tensor {
        // The per-layer executor timing: one span per tap visit, named after
        // the layer path (resolved from the interned table, not rebuilt here).
        let _span = mersit_obs::span_dyn(|| format!("ptq.layer.{}", site.path));
        let i = site.id.index();
        if let (Some(f), Some(s)) = (self.fmts.get(i), self.scales.get(i).copied().flatten()) {
            // The tap owns the activation: quantize it in place.
            quantize_slice(f.as_ref(), t.data_mut(), s);
        } else {
            mersit_obs::incr("ptq.layer.unseen_sites");
        }
        t
    }
}

impl QuantPlan {
    /// Compiles the plan with the default [`Executor::Float`] engine:
    /// per-channel-quantizes every rank-≥2 parameter into plan-owned
    /// slots and precomputes the per-site activation scales. The model
    /// is only read. Accepts a plain [`FormatRef`] (uniform assignment)
    /// or a full [`FormatAssignment`].
    #[must_use]
    pub fn build(model: &Model, assign: impl Into<FormatAssignment>, cal: &Calibration) -> Self {
        Self::build_with(model, assign, cal, Executor::Float)
    }

    /// Compiles the plan for a chosen execution engine. Every weight and
    /// activation site quantizes through the format its path resolves to
    /// under the assignment (`FormatRef` arguments convert into uniform
    /// assignments, preserving the historical single-format behavior bit
    /// for bit). Each slot gets the one form its layer reads: a rank-2
    /// GEMM-rhs weight becomes panels of its quantized values under
    /// [`Executor::Float`], and under [`Executor::BitTrue`] a [`QuantGemm`]
    /// engine instead of a quantized copy; any other weight stays its
    /// quantized tensor. The engine is built from the **original FP32**
    /// weight under **that layer's** format with the float path's
    /// per-channel scales, so its codes are the ones the float path rounds
    /// to (and its row scales and `FixTable` follow that format). Linear
    /// and im2col Conv2d forwards then multiply raw codes with exact
    /// Kulisch accumulation instead of running the float GEMM.
    #[must_use]
    pub fn build_with(
        model: &Model,
        assign: impl Into<FormatAssignment>,
        cal: &Calibration,
        executor: Executor,
    ) -> Self {
        let assign = assign.into();
        let _span = mersit_obs::span("ptq.plan.build");
        let mut weights = Vec::new();
        model.net.visit_params_ref("", &mut |path, p| {
            if p.value.shape().len() >= 2 {
                mersit_obs::incr("ptq.weights.tensors");
                let fmt = assign.format_for(path);
                let gemm = p.gemm_rhs && p.value.shape().len() == 2;
                weights.push(if gemm && executor == Executor::BitTrue {
                    mersit_obs::incr("ptq.bittrue.engines");
                    PlanWeight::BitTrue(Arc::new(QuantGemm::build(fmt.clone(), &p.value)))
                } else {
                    let q = quantize_per_channel(fmt.as_ref(), &p.value);
                    if gemm {
                        PlanWeight::packed_rhs(&q)
                    } else {
                        PlanWeight::Value(q)
                    }
                });
            }
        });
        let sites = cal.sites().clone();
        let site_fmts: Vec<FormatRef> = sites
            .iter()
            .map(|(_, path)| assign.format_for(path).clone())
            .collect();
        let scales = cal
            .site_maxima()
            .iter()
            .zip(&site_fmts)
            .map(|(&m, f)| site_scale(scale_anchor(f.as_ref()), m))
            .collect();
        let input_fmt = assign.format_for(INPUT_PATH).clone();
        let input_scale = if model.input == InputKind::Image {
            site_scale(scale_anchor(input_fmt.as_ref()), cal.input_max())
        } else {
            None
        };
        Self {
            assign,
            weights,
            site_fmts,
            scales,
            sites,
            input_fmt,
            input_scale,
            executor,
        }
    }

    /// The assignment's default format (the only format of a uniform
    /// plan). See [`QuantPlan::assignment`] for the full per-layer map.
    #[must_use]
    pub fn format(&self) -> &dyn Format {
        self.assign.default_format().as_ref()
    }

    /// The per-layer format assignment this plan quantizes through.
    #[must_use]
    pub fn assignment(&self) -> &FormatAssignment {
        &self.assign
    }

    /// The execution engine the plan was compiled for.
    #[must_use]
    pub fn executor(&self) -> Executor {
        self.executor
    }

    /// Number of weight slots the plan owns (one per rank-≥2 parameter).
    #[must_use]
    pub fn num_weight_slots(&self) -> usize {
        self.weights.len()
    }

    /// The plan's activation tap over its per-site formats and scales.
    pub(crate) fn tap(&self) -> PlanTap<'_> {
        PlanTap {
            fmts: &self.site_fmts,
            scales: &self.scales,
        }
    }

    /// Runs one compiled batch and returns its argmax predictions.
    fn predict_batch(&self, model: &Model, x: Tensor) -> Vec<usize> {
        argmax_rows(&self.logits(model, x, &mut self.tap()))
    }

    /// The logits of one compiled batch: quantize the input (image
    /// models), then a shared-reference forward with weight overrides and
    /// `tap` (the plan's own [`QuantPlan::tap`], or one wrapping it).
    pub(crate) fn logits(&self, model: &Model, mut x: Tensor, tap: &mut dyn Tap) -> Tensor {
        if let Some(s) = self.input_scale {
            quantize_slice(self.input_fmt.as_ref(), x.data_mut(), s);
        }
        let mut ctx = Ctx::compiled(&self.sites, tap).with_overrides(&self.weights);
        let logits = model.net.forward_ref(x, &mut ctx);
        assert_eq!(
            ctx.overrides_consumed(),
            self.weights.len(),
            "forward consumed a different number of weight overrides than the plan owns"
        );
        logits
    }

    /// Runs one already-coalesced batch through the plan and returns the
    /// argmax prediction per sample — the serving layer's entry point: a
    /// dynamic batcher concatenates single-sample requests and runs one
    /// forward here. Per-sample arithmetic never depends on batch-mates
    /// (float taps scale per element with calibrated per-site scales;
    /// bit-true GEMMs encode activations with per-row scales), so each
    /// prediction is bit-identical to running that sample alone.
    ///
    /// # Panics
    ///
    /// Panics if the forward consumes a different number of weight
    /// overrides than the plan owns (a model/plan mismatch).
    #[must_use]
    pub fn predict_one_batch(&self, model: &Model, x: Tensor) -> Vec<usize> {
        let _span = mersit_obs::span("ptq.plan.predict_batch");
        self.predict_batch(model, x)
    }

    /// Fake-quantized inference through the plan, sharding whole batches
    /// across `mersit_tensor::par` scoped threads. The evaluation forward
    /// has no cross-sample reductions, so predictions are bit-identical
    /// to the serial batch loop for every thread count.
    ///
    /// # Panics
    ///
    /// Panics when `batch` is 0.
    #[must_use]
    pub fn predict(&self, model: &Model, inputs: &Tensor, batch: usize) -> Vec<usize> {
        let _span = mersit_obs::span("ptq.plan.predict");
        assert!(batch > 0, "batch size must be positive");
        mersit_obs::add("ptq.predict.samples", inputs.shape()[0] as u64);
        predict_sharded(inputs, batch, |x| self.predict_batch(model, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate;
    use mersit_core::{parse_format, table2_formats};
    use mersit_nn::models::{mobilenet_v3_t, vgg_t};
    use mersit_nn::predict_ref;
    use mersit_tensor::Rng;

    #[test]
    fn rank1_params_stay_fp32() {
        // The plan owns one slot per rank-≥2 parameter and none for rank-1
        // ones, which the forward reads from the FP32 model. Each slot
        // holds the one form its layer reads: a rank-2 GEMM weight as
        // panels (float) or an engine (bit-true), any other weight (the
        // depthwise kernels) as its quantized tensor.
        let mut rng = Rng::new(2);
        for model in [vgg_t(12, 10, &mut rng), mobilenet_v3_t(12, 10, &mut rng)] {
            let x = Tensor::randn(&[2, 3, 12, 12], 1.0, &mut rng);
            let cal = calibrate(&model, &x, 2);
            let (mut rank2, mut gemm) = (0, 0);
            model.net.visit_params_ref("", &mut |_, p| {
                rank2 += usize::from(p.value.shape().len() >= 2);
                gemm += usize::from(p.gemm_rhs && p.value.shape().len() == 2);
            });
            for executor in [Executor::Float, Executor::BitTrue] {
                let fmt = parse_format("INT8").unwrap();
                let plan = QuantPlan::build_with(&model, fmt, &cal, executor);
                assert_eq!(plan.num_weight_slots(), rank2);
                let count =
                    |form: fn(&PlanWeight) -> bool| plan.weights.iter().filter(|w| form(w)).count();
                let gemm_slots = match executor {
                    Executor::Float => count(|w| matches!(w, PlanWeight::Packed(_))),
                    Executor::BitTrue => count(|w| matches!(w, PlanWeight::BitTrue(_))),
                };
                let ctx = format!("{} {executor:?}", model.name);
                assert_eq!(gemm_slots, gemm, "{ctx}: GEMM slots");
                assert_eq!(
                    count(|w| matches!(w, PlanWeight::Value(_))),
                    rank2 - gemm,
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn high_precision_format_preserves_predictions() {
        // Quantizing through a wide format (MERSIT at 4-bit fraction) on a
        // random model should keep most predictions identical.
        let mut rng = Rng::new(3);
        let model = vgg_t(12, 10, &mut rng);
        let x = Tensor::randn(&[16, 3, 12, 12], 1.0, &mut rng);
        let cal = calibrate(&model, &x, 8);
        let fp = predict_ref(&model.net, &x, 8);
        let plan = QuantPlan::build(&model, parse_format("MERSIT(8,2)").unwrap(), &cal);
        let q = plan.predict(&model, &x, 8);
        let agree = fp.iter().zip(&q).filter(|(a, b)| a == b).count();
        assert!(agree >= 12, "only {agree}/16 predictions agree");
    }

    #[test]
    fn degenerate_format_degrades_more() {
        // FP(8,2) has a tiny dynamic range; it should disagree with FP32 at
        // least as much as MERSIT(8,2) does.
        let mut rng = Rng::new(4);
        let model = vgg_t(12, 10, &mut rng);
        let x = Tensor::randn(&[24, 3, 12, 12], 2.0, &mut rng);
        let cal = calibrate(&model, &x, 8);
        let fp = predict_ref(&model.net, &x, 8);
        let agree = |name: &str| {
            let plan = QuantPlan::build(&model, parse_format(name).unwrap(), &cal);
            let q = plan.predict(&model, &x, 8);
            fp.iter().zip(&q).filter(|(a, b)| a == b).count()
        };
        let good = agree("MERSIT(8,2)");
        let bad = agree("FP(8,2)");
        assert!(good >= bad, "MERSIT {good} vs FP(8,2) {bad}");
    }

    #[test]
    fn plan_predictions_stable_across_batch_sizes() {
        // Per-sample independence: the plan's sharded predict must not
        // depend on how samples are grouped into batches.
        let mut rng = Rng::new(5);
        let model = vgg_t(8, 10, &mut rng);
        let x = Tensor::randn(&[11, 3, 8, 8], 1.0, &mut rng);
        let cal = calibrate(&model, &x, 4);
        let fmt = parse_format("MERSIT(8,2)").unwrap();
        let plan = QuantPlan::build(&model, fmt, &cal);
        let a = plan.predict(&model, &x, 3);
        let b = plan.predict(&model, &x, 11);
        assert_eq!(a, b);
        assert!(plan.num_weight_slots() >= 6);
    }

    /// FNV-1a-64 over the little-endian bits of every logit.
    fn logit_digest(logits: &Tensor) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in logits.data() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Pins the plan's outputs bit for bit: for both zoo models, every
    /// Table-2 format and both executors, a digest of the logits plus the
    /// argmax vector must match `tests/golden/plan_logits.txt`. Argmax
    /// alone is too coarse a pin (most formats agree with FP32 on most
    /// samples), so the digest covers every logit bit.
    #[test]
    fn plan_logits_match_golden_digests() {
        let golden = include_str!("../tests/golden/plan_logits.txt");
        let mut rng = Rng::new(0x51AB);
        let models = [vgg_t(8, 10, &mut rng), mobilenet_v3_t(8, 10, &mut rng)];
        let calib = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
        let inputs = Tensor::randn(&[48, 3, 8, 8], 1.0, &mut rng);
        let formats = table2_formats();
        assert_eq!(formats.len(), 11, "Table 2 grid changed size");
        let mut rows = Vec::new();
        for model in &models {
            let cal = calibrate(model, &calib, 4);
            for fmt in &formats {
                for (executor, label) in
                    [(Executor::Float, "float"), (Executor::BitTrue, "bittrue")]
                {
                    let plan = QuantPlan::build_with(model, fmt.clone(), &cal, executor);
                    // Batch 5 leaves an uneven final batch.
                    let batches: Vec<Tensor> = (0..48)
                        .step_by(5)
                        .map(|i| {
                            let x = inputs.slice_outer(i, (i + 5).min(48));
                            plan.logits(model, x, &mut plan.tap())
                        })
                        .collect();
                    let logits = Tensor::cat_outer(&batches.iter().collect::<Vec<_>>());
                    let preds: Vec<String> =
                        argmax_rows(&logits).iter().map(usize::to_string).collect();
                    rows.push(format!(
                        "{} {} {label} {:016x} {}",
                        model.name,
                        fmt.name(),
                        logit_digest(&logits),
                        preds.join(",")
                    ));
                }
            }
        }
        let actual = rows.join("\n") + "\n";
        assert!(
            golden == actual,
            "plan logits drifted from tests/golden/plan_logits.txt; the current rows are:\n{actual}"
        );
    }
}
