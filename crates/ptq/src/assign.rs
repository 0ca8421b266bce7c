//! Heterogeneous per-layer format assignment and the accuracy↔cost
//! search over it.
//!
//! The paper evaluates every format at whole-model granularity; the
//! interesting hardware trade-off lives one level down — give the
//! precision-sensitive layers a strong format (MERSIT) and demote the
//! insensitive bulk to a cheaper MAC. [`FormatAssignment`] is the
//! first-class "layer → format" map every plan consumer builds against:
//! [`crate::QuantPlan`] quantizes each weight and activation site through
//! the format its path resolves to, `coverify` diffs the executors per
//! site under the same map, and the serve plan cache keys on the
//! assignment's canonical [`FormatAssignment::name`].
//!
//! A uniform assignment ([`FormatAssignment::uniform`]) is **bit-for-bit**
//! identical to the pre-assignment single-format plans on both executors:
//! every site resolves to the same format, so every scale anchor, weight
//! code and `FixTable` is computed from exactly the same inputs (pinned by
//! `tests/assignment_props.rs`).
//!
//! On top of the map, this module closes the accuracy↔hardware-cost loop:
//! [`layer_macs`] counts per-layer MAC work (the weighting for the
//! `mersit-hw` area/power roll-up), [`layer_sensitivity`] ranks layers by
//! how much quantization hurts them (weight + activation RMSE under a
//! probe format), and [`greedy_search`] walks layers from least to most
//! sensitive, demoting each to the cheapest candidate format that keeps
//! accuracy within tolerance — emitting one accuracy/area/power point per
//! accepted swap (the Pareto front of `BENCH_pareto.json`).

use crate::accuracy::Metric;
use crate::bittrue::Executor;
use crate::calibrate::Calibration;
use crate::executor::QuantPlan;
use crate::quantizer::{quantize_per_channel, relative_rmse};
use crate::rmse::RmseTap;
use mersit_core::{parse_format, FormatRef, InvalidFormatError};
use mersit_nn::{Ctx, Layer, Model, Site, Tap};
use mersit_tensor::Tensor;
use std::collections::HashMap;

/// A per-layer format map: every layer (and weight) path resolves to the
/// `default` format unless an override's path is a dotted prefix of it.
///
/// Override paths address the model's hierarchical layer paths
/// (`"0_conv"`, `"3_residual.main.1_bn"`, …). A layer override covers both
/// the layer's activation site and its parameters (`"0_conv"` matches
/// `"0_conv"` and `"0_conv.w"`); an override naming a parameter path
/// exactly (`"0_conv.w"`) covers only that weight. The network input
/// quantizes through whatever [`crate::INPUT_PATH`] resolves to — the
/// default unless explicitly overridden.
///
/// The canonical [`FormatAssignment::name`] of a uniform assignment is the
/// plain format name, so plan-cache keys and report labels are unchanged
/// for single-format use; mixed assignments name as a parseable spec:
///
/// ```
/// use mersit_ptq::FormatAssignment;
///
/// let a = FormatAssignment::parse("MERSIT(8,2);0_conv=FP(8,4)")?;
/// assert_eq!(a.format_for("0_conv.w").name(), "FP(8,4)");
/// assert_eq!(a.format_for("1_bn").name(), "MERSIT(8,2)");
/// assert_eq!(a.name(), "MERSIT(8,2);0_conv=FP(8,4)");
/// assert_eq!(FormatAssignment::parse(&a.name())?.name(), a.name());
/// # Ok::<(), mersit_core::InvalidFormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FormatAssignment {
    default: FormatRef,
    /// Sorted by path (canonical order for naming and deterministic
    /// longest-prefix resolution).
    overrides: Vec<(String, FormatRef)>,
}

impl FormatAssignment {
    /// The uniform assignment: every layer uses `fmt` — bit-identical to
    /// the historical single-format plan.
    #[must_use]
    pub fn uniform(default: FormatRef) -> Self {
        Self {
            default,
            overrides: Vec::new(),
        }
    }

    /// Returns the assignment with `path` (a layer or parameter path)
    /// overridden to `fmt`, replacing any previous override for the same
    /// path.
    #[must_use]
    pub fn with_override(mut self, path: impl Into<String>, fmt: FormatRef) -> Self {
        let path = path.into();
        self.overrides.retain(|(p, _)| *p != path);
        self.overrides.push((path, fmt));
        self.overrides.sort_by(|a, b| a.0.cmp(&b.0));
        self
    }

    /// The format layers fall back to when no override matches.
    #[must_use]
    pub fn default_format(&self) -> &FormatRef {
        &self.default
    }

    /// The overrides, sorted by path.
    #[must_use]
    pub fn overrides(&self) -> &[(String, FormatRef)] {
        &self.overrides
    }

    /// True when no override exists — the single-format case.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        self.overrides.is_empty()
    }

    /// Resolves the format for a layer, parameter, or [`crate::INPUT_PATH`]
    /// path: the override with the longest dotted-prefix match wins,
    /// otherwise the default.
    #[must_use]
    pub fn format_for(&self, path: &str) -> &FormatRef {
        let mut best: Option<&(String, FormatRef)> = None;
        for ov in &self.overrides {
            let (p, _) = ov;
            let is_prefix = path == p
                || (path.len() > p.len()
                    && path.starts_with(p.as_str())
                    && path.as_bytes()[p.len()] == b'.');
            if is_prefix && best.is_none_or(|(bp, _)| p.len() > bp.len()) {
                best = Some(ov);
            }
        }
        best.map_or(&self.default, |(_, f)| f)
    }

    /// Canonical name: the plain format name when uniform, otherwise the
    /// `default;path=FMT;…` spec (overrides in sorted path order). Round-
    /// trips through [`FormatAssignment::parse`] and keys the serve plan
    /// cache.
    #[must_use]
    pub fn name(&self) -> String {
        let mut out = self.default.name();
        for (p, f) in &self.overrides {
            out.push(';');
            out.push_str(p);
            out.push('=');
            out.push_str(&f.name());
        }
        out
    }

    /// Every distinct format the assignment can resolve to: the default
    /// first, then overrides in path order (deduplicated by name).
    #[must_use]
    pub fn formats(&self) -> Vec<FormatRef> {
        let mut out = vec![self.default.clone()];
        for (_, f) in &self.overrides {
            if !out.iter().any(|g| g.name() == f.name()) {
                out.push(f.clone());
            }
        }
        out
    }

    /// Parses an assignment spec: a plain format name (`"MERSIT(8,2)"`,
    /// uniform) or `"DEFAULT;path=FMT;path=FMT"`. A later override for the
    /// same path replaces an earlier one.
    ///
    /// # Errors
    ///
    /// Returns an error when any format name fails `parse_format` or an
    /// override clause is not `path=FMT`.
    pub fn parse(spec: &str) -> Result<Self, InvalidFormatError> {
        let mut parts = spec.split(';');
        let default = parse_format(parts.next().unwrap_or("").trim())?;
        let mut assign = Self::uniform(default);
        for clause in parts {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let Some((path, fmt)) = clause.split_once('=') else {
                return Err(InvalidFormatError::new(format!(
                    "assignment override {clause:?} is not path=FORMAT"
                )));
            };
            let path = path.trim();
            if path.is_empty() {
                return Err(InvalidFormatError::new(format!(
                    "assignment override {clause:?} has an empty path"
                )));
            }
            assign = assign.with_override(path, parse_format(fmt.trim())?);
        }
        Ok(assign)
    }

    /// Reads the `MERSIT_ASSIGN` environment variable as an assignment
    /// spec. `None` when unset or empty.
    ///
    /// # Errors
    ///
    /// Returns an error when the variable is set but does not parse.
    pub fn from_env() -> Result<Option<Self>, InvalidFormatError> {
        match std::env::var("MERSIT_ASSIGN") {
            Ok(s) if !s.trim().is_empty() => Self::parse(&s).map(Some),
            _ => Ok(None),
        }
    }
}

impl From<FormatRef> for FormatAssignment {
    fn from(fmt: FormatRef) -> Self {
        Self::uniform(fmt)
    }
}

impl From<&FormatRef> for FormatAssignment {
    fn from(fmt: &FormatRef) -> Self {
        Self::uniform(fmt.clone())
    }
}

/// Per-layer MAC work: the weighting of the per-assignment hardware
/// cost roll-up (`mersit_hw::assignment_cost`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerMacs {
    /// Hierarchical layer path (the site path, without the `.w` suffix).
    pub path: String,
    /// Multiply-accumulates per sample through this layer's GEMM. Zero
    /// for quantized non-GEMM parameters (embedding lookups do no MACs).
    pub macs: u64,
}

struct ShapeTap {
    elems: HashMap<String, u64>,
}

impl Tap for ShapeTap {
    fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
        self.elems
            .entry(site.path.to_owned())
            .or_insert(t.data().len() as u64);
        t
    }
}

/// Counts per-layer MACs for one sample with a shape-recording forward:
/// a GEMM weight `[out, in]` whose layer emits `out × spatial` activation
/// elements does `out × in × spatial` MACs (spatial = conv output
/// positions, or sequence length for per-token linears; 1 for a plain
/// linear). Quantized non-GEMM parameters count zero.
///
/// `sample` must carry a leading batch dimension of 1.
///
/// # Panics
///
/// Panics when `sample`'s leading dimension is not 1.
#[must_use]
pub fn layer_macs(model: &Model, sample: &Tensor) -> Vec<LayerMacs> {
    assert_eq!(sample.shape()[0], 1, "layer_macs needs a single sample");
    let mut tap = ShapeTap {
        elems: HashMap::new(),
    };
    let mut ctx = Ctx::with_tap(&mut tap);
    let _ = model.net.forward_ref(sample.clone(), &mut ctx);
    let elems = tap.elems;
    let mut out = Vec::new();
    model.net.visit_params_ref("", &mut |path, p| {
        if p.value.shape().len() < 2 {
            return;
        }
        let layer = layer_of(path).to_owned();
        let macs = if p.gemm_rhs {
            let w_elems = p.value.data().len() as u64;
            let out_ch = p.value.shape()[0] as u64;
            let spatial = elems.get(&layer).map_or(1, |&e| (e / out_ch.max(1)).max(1));
            w_elems * spatial
        } else {
            0
        };
        out.push(LayerMacs { path: layer, macs });
    });
    out
}

/// The layer path of a parameter path (`"0_conv.w"` → `"0_conv"`).
fn layer_of(param_path: &str) -> &str {
    param_path
        .rsplit_once('.')
        .map_or(param_path, |(layer, _)| layer)
}

/// How much quantization under a probe format hurts one layer: relative
/// RMSE of its per-channel-quantized weights plus relative RMSE of its
/// activation site under the calibrated scale. Low score = safe to demote
/// first.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSensitivity {
    /// Hierarchical layer path.
    pub path: String,
    /// Relative RMSE of the layer's rank-≥2 weights under the probe.
    pub weight_rmse: f64,
    /// Mean relative RMSE of the layer's activation site under the probe
    /// (0 when the site never fires on the probe batch).
    pub act_rmse: f64,
}

impl LayerSensitivity {
    /// Combined ranking score (weight + activation components).
    #[must_use]
    pub fn score(&self) -> f64 {
        self.weight_rmse + self.act_rmse
    }
}

/// Measures per-layer quantization sensitivity under `probe` (reusing the
/// Fig. 6 RMSE machinery): one forward over `inputs` with quantized
/// activations propagating, plus per-layer weight RMSE. Returned in
/// parameter-visit order; sort by [`LayerSensitivity::score`] ascending to
/// get the greedy demotion order.
#[must_use]
pub fn layer_sensitivity(
    model: &Model,
    cal: &Calibration,
    probe: &FormatRef,
    inputs: &Tensor,
    batch: usize,
) -> Vec<LayerSensitivity> {
    let _span = mersit_obs::span("ptq.assign.sensitivity");
    let mut err: HashMap<String, (f64, u64)> = HashMap::new();
    let n = inputs.shape()[0];
    let mut i = 0;
    while i < n {
        let hi = (i + batch.max(1)).min(n);
        let mut tap = RmseTap::new(probe.as_ref(), cal, |path, e| {
            let acc = err.entry(path.to_owned()).or_insert((0.0, 0));
            acc.0 += e;
            acc.1 += 1;
        });
        let _ = model
            .net
            .forward_ref(inputs.slice_outer(i, hi), &mut Ctx::with_tap(&mut tap));
        i = hi;
    }
    let mut out = Vec::new();
    model.net.visit_params_ref("", &mut |path, p| {
        if p.value.shape().len() < 2 {
            return;
        }
        let layer = layer_of(path).to_owned();
        let q = quantize_per_channel(probe.as_ref(), &p.value);
        let w_rmse = relative_rmse(&q, &p.value);
        let act = err.get(&layer).map_or(
            0.0,
            |&(sum, cnt)| if cnt == 0 { 0.0 } else { sum / cnt as f64 },
        );
        out.push(LayerSensitivity {
            path: layer,
            weight_rmse: w_rmse,
            act_rmse: act,
        });
    });
    out
}

/// One point on the accuracy-vs-hardware-cost front.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The assignment that produced this point.
    pub assignment: FormatAssignment,
    /// Metric score on the evaluation split.
    pub accuracy: f64,
    /// MAC-count-weighted mean per-MAC area (µm²) under the assignment.
    pub area_um2: f64,
    /// MAC-count-weighted mean per-MAC power (µW) under the assignment.
    pub power_uw: f64,
    /// How many layers were demoted away from the base format.
    pub swaps: usize,
}

/// Knobs of [`greedy_search`].
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Formats a layer may be demoted to (tried cheapest-area first).
    /// Candidates the cost closure cannot price (e.g. INT8, which has no
    /// hardware decoder) are skipped.
    pub candidates: Vec<FormatRef>,
    /// Largest accuracy drop (metric points) tolerated relative to the
    /// all-base corner.
    pub tolerance: f64,
    /// Upper bound on accepted swaps (defense against long tails; the
    /// layer count bounds it anyway).
    pub max_swaps: usize,
}

/// Scores one assignment: compile a plan and run the evaluation split.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn assignment_score(
    model: &Model,
    assign: &FormatAssignment,
    cal: &Calibration,
    inputs: &Tensor,
    labels: &[usize],
    metric: Metric,
    batch: usize,
    executor: Executor,
) -> f64 {
    let plan = QuantPlan::build_with(model, assign.clone(), cal, executor);
    let preds = plan.predict(model, inputs, batch);
    metric.score(&preds, labels)
}

/// Greedy sensitivity-ordered demotion search from the all-`base`
/// assignment.
///
/// Walks `order` (layer paths, least-sensitive first); for each layer it
/// tries the candidates from cheapest per-MAC area up and accepts the
/// first demotion that stays within `cfg.tolerance` of the all-base
/// accuracy — every accepted swap emits a [`ParetoPoint`]. `cost` prices
/// an assignment as MAC-weighted (area µm², power µW) per MAC —
/// `mersit_hw::assignment_cost` over [`layer_macs`] is the intended
/// implementation — returning `None` for unpriceable assignments (these
/// are skipped).
///
/// Returns all accepted points, all-base corner first. Use
/// [`pareto_front`] to flag the non-dominated subset.
#[allow(clippy::too_many_arguments)]
pub fn greedy_search(
    model: &Model,
    cal: &Calibration,
    base: &FormatRef,
    order: &[String],
    inputs: &Tensor,
    labels: &[usize],
    metric: Metric,
    batch: usize,
    executor: Executor,
    cfg: &SearchConfig,
    cost: &mut dyn FnMut(&FormatAssignment) -> Option<(f64, f64)>,
) -> Vec<ParetoPoint> {
    let _span = mersit_obs::span("ptq.assign.search");
    let mut points = Vec::new();
    let mut current = FormatAssignment::uniform(base.clone());
    let base_acc = assignment_score(
        model, &current, cal, inputs, labels, metric, batch, executor,
    );
    let Some((area0, power0)) = cost(&current) else {
        return points;
    };
    points.push(ParetoPoint {
        assignment: current.clone(),
        accuracy: base_acc,
        area_um2: area0,
        power_uw: power0,
        swaps: 0,
    });

    // Candidates cheapest-first by their uniform per-MAC area; unpriced
    // candidates drop out here.
    let mut priced: Vec<(FormatRef, f64)> = cfg
        .candidates
        .iter()
        .filter(|c| c.name() != base.name())
        .filter_map(|c| cost(&FormatAssignment::uniform(c.clone())).map(|(a, _)| (c.clone(), a)))
        .collect();
    priced.sort_by(|a, b| a.1.total_cmp(&b.1));

    let mut swaps = 0usize;
    for path in order {
        if swaps >= cfg.max_swaps {
            break;
        }
        let cur_area = cost(&FormatAssignment::uniform(current.format_for(path).clone()))
            .map_or(f64::INFINITY, |(a, _)| a);
        for (cand, cand_area) in &priced {
            if *cand_area >= cur_area {
                break; // sorted: nothing cheaper remains
            }
            let trial = current.clone().with_override(path.clone(), cand.clone());
            mersit_obs::incr("ptq.assign.search.evals");
            let acc = assignment_score(model, &trial, cal, inputs, labels, metric, batch, executor);
            if acc >= base_acc - cfg.tolerance {
                let Some((area, power)) = cost(&trial) else {
                    continue;
                };
                swaps += 1;
                points.push(ParetoPoint {
                    assignment: trial.clone(),
                    accuracy: acc,
                    area_um2: area,
                    power_uw: power,
                    swaps,
                });
                current = trial;
                break;
            }
        }
    }
    points
}

/// Flags the non-dominated points on (accuracy ↑, area ↓): `true` means
/// no other point has at-least-equal accuracy and at-most-equal area with
/// one strict.
#[must_use]
pub fn pareto_front(points: &[ParetoPoint]) -> Vec<bool> {
    points
        .iter()
        .map(|p| {
            !points.iter().any(|q| {
                q.accuracy >= p.accuracy
                    && q.area_um2 <= p.area_um2
                    && (q.accuracy > p.accuracy || q.area_um2 < p.area_um2)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{calibrate, INPUT_PATH};
    use mersit_nn::models::vgg_t;
    use mersit_tensor::Rng;

    fn fmt(name: &str) -> FormatRef {
        parse_format(name).unwrap()
    }

    #[test]
    fn uniform_name_is_plain_format_name() {
        let a = FormatAssignment::uniform(fmt("MERSIT(8,2)"));
        assert!(a.is_uniform());
        assert_eq!(a.name(), "MERSIT(8,2)");
        assert_eq!(a.format_for("anything.w").name(), "MERSIT(8,2)");
        assert_eq!(a.format_for(INPUT_PATH).name(), "MERSIT(8,2)");
    }

    #[test]
    fn longest_prefix_override_wins() {
        let a = FormatAssignment::uniform(fmt("MERSIT(8,2)"))
            .with_override("3_residual", fmt("FP(8,4)"))
            .with_override("3_residual.main.1_bn", fmt("Posit(8,1)"));
        assert_eq!(a.format_for("3_residual.main.1_bn").name(), "Posit(8,1)");
        assert_eq!(a.format_for("3_residual.main.1_bn.w").name(), "Posit(8,1)");
        assert_eq!(a.format_for("3_residual.main.0_conv").name(), "FP(8,4)");
        // "3_residualx" is not a dotted child of "3_residual".
        let b = FormatAssignment::uniform(fmt("MERSIT(8,2)")).with_override("0_conv", fmt("INT8"));
        assert_eq!(b.format_for("0_convx").name(), "MERSIT(8,2)");
        assert_eq!(b.format_for("0_conv.w").name(), "INT8");
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let spec = "MERSIT(8,2);0_conv=FP(8,4);4_linear=Posit(8,1)";
        let a = FormatAssignment::parse(spec).unwrap();
        assert_eq!(a.name(), spec);
        assert_eq!(a.overrides().len(), 2);
        assert_eq!(a.formats().len(), 3);
        // Later override replaces earlier for the same path.
        let b = FormatAssignment::parse("INT8;x=FP(8,4);x=Posit(8,1)").unwrap();
        assert_eq!(b.format_for("x").name(), "Posit(8,1)");
        assert_eq!(b.overrides().len(), 1);
        assert!(FormatAssignment::parse("NOPE(1,2)").is_err());
        assert!(FormatAssignment::parse("INT8;noequals").is_err());
        assert!(FormatAssignment::parse("INT8;=FP(8,4)").is_err());
    }

    #[test]
    fn layer_macs_counts_gemm_work() {
        let mut rng = Rng::new(11);
        let model = vgg_t(8, 10, &mut rng);
        let x = Tensor::randn(&[1, 3, 8, 8], 1.0, &mut rng);
        let macs = layer_macs(&model, &x);
        assert!(macs.len() >= 4, "vgg_t has several quantized layers");
        let total: u64 = macs.iter().map(|l| l.macs).sum();
        assert!(total > 0);
        // Convolutions multiply by output positions: at least one layer
        // must exceed its raw weight element count.
        let has_spatial = macs.iter().any(|l| l.macs > 0 && l.path.contains("conv"));
        assert!(has_spatial, "{macs:?}");
        // Deterministic.
        assert_eq!(macs, layer_macs(&model, &x));
    }

    #[test]
    fn sensitivity_ranks_and_search_trades_area() {
        let mut rng = Rng::new(12);
        let model = vgg_t(8, 10, &mut rng);
        let x = Tensor::randn(&[10, 3, 8, 8], 1.0, &mut rng);
        let labels: Vec<usize> = (0..10).map(|i| i % 10).collect();
        let cal = calibrate(&model, &x, 5);
        let probe = fmt("FP(8,4)");
        let sens = layer_sensitivity(&model, &cal, &probe, &x, 5);
        assert!(!sens.is_empty());
        assert!(sens
            .iter()
            .all(|s| s.score().is_finite() && s.score() >= 0.0));
        assert!(sens.iter().any(|s| s.weight_rmse > 0.0));

        // Synthetic cost model: MERSIT MACs cost 2.0, FP 1.0, Posit 3.0.
        let unit = |n: &str| -> f64 {
            if n.starts_with("MERSIT") {
                2.0
            } else if n.starts_with("FP") {
                1.0
            } else {
                3.0
            }
        };
        let macs = layer_macs(&model, &x.slice_outer(0, 1));
        let mut cost = |a: &FormatAssignment| -> Option<(f64, f64)> {
            let mut num = 0.0;
            let mut den = 0.0;
            for l in &macs {
                let u = unit(&a.format_for(&l.path).name());
                num += u * l.macs as f64;
                den += l.macs as f64;
            }
            Some((num / den, num / den))
        };
        let mut order: Vec<(f64, String)> = sens
            .iter()
            .filter(|s| macs.iter().any(|l| l.path == s.path && l.macs > 0))
            .map(|s| (s.score(), s.path.clone()))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let order: Vec<String> = order.into_iter().map(|(_, p)| p).collect();
        let cfg = SearchConfig {
            candidates: vec![fmt("FP(8,4)"), fmt("Posit(8,1)")],
            tolerance: 100.0, // untrained model: accept everything
            max_swaps: 2,
        };
        let base = fmt("MERSIT(8,2)");
        let points = greedy_search(
            &model,
            &cal,
            &base,
            &order,
            &x,
            &labels,
            Metric::Accuracy,
            5,
            Executor::Float,
            &cfg,
            &mut cost,
        );
        assert!(points.len() >= 2, "tolerance 100 must accept swaps");
        assert_eq!(points[0].swaps, 0);
        assert!(points[0].assignment.is_uniform());
        // Every accepted swap strictly reduces weighted area.
        for w in points.windows(2) {
            assert!(w[1].area_um2 < w[0].area_um2, "{points:?}");
            assert_eq!(w[1].swaps, w[0].swaps + 1);
        }
        let front = pareto_front(&points);
        assert_eq!(front.len(), points.len());
        // The cheapest point is never dominated.
        let min_area = points
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.area_um2.total_cmp(&b.1.area_um2))
            .unwrap()
            .0;
        assert!(front[min_area]);
    }
}
