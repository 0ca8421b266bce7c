//! Hardware/software co-verification: runs the float and bit-true
//! executors over the **same** compiled plans and inputs, measuring where
//! (and by how much) their activations diverge.
//!
//! The bit-true engine is *not* expected to match the float executor bit
//! for bit — it re-enters code space at every GEMM input with dynamic
//! per-row scales, while the float executor fake-quantizes with
//! calibrated per-site scales. What co-verification pins down is that the
//! divergence is **bounded and quantization-shaped**: small relative to
//! each site's calibrated maximum, and not growing without bound through
//! the network. Exactness claims live one level down — the engine's
//! scalar semantics are bit-identical to the `mersit-hw` golden MAC
//! (`tests/bittrue_golden.rs`) and the packed integer kernels are
//! bit-identical to their scalar reference (`mersit-tensor`'s
//! `tests/qgemm_props.rs`).
//!
//! # How a co-verification run works
//!
//! For each batch, the float plan runs first with a recording tap that
//! stores every activation tensor *as it arrives* at a tap site (before
//! fake-quantization). The bit-true plan then runs with a comparing tap
//! that diffs its own incoming activations against the recording, site by
//! site, before quantizing and continuing — so each site's statistic
//! measures the divergence the preceding layers accumulated. Logit
//! divergence and argmax agreement are measured at the output.
//!
//! With `MERSIT_OBS` on, every site visit records its batch-max
//! divergence into a `ptq.coverify.site.<path>` histogram, giving a
//! log2-bucketed per-site divergence profile over the whole run.

use crate::assign::FormatAssignment;
use crate::bittrue::Executor;
use crate::calibrate::Calibration;
use crate::executor::{PlanTap, QuantPlan};
use mersit_nn::{argmax_rows, Model, Site, Tap};
use mersit_obs::report::json_string;
use mersit_tensor::Tensor;

/// Accumulated activation divergence at one tap site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteDivergence {
    /// Hierarchical layer path of the site.
    pub path: String,
    /// Number of activation elements compared.
    pub elems: u64,
    /// Largest absolute element-wise difference seen.
    pub max_abs: f64,
    /// Mean absolute element-wise difference.
    pub mean_abs: f64,
}

/// The artifact of one co-verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceReport {
    /// Model name.
    pub model: String,
    /// Canonical assignment name (the plain format name when uniform).
    pub format: String,
    /// Number of samples compared.
    pub samples: usize,
    /// Per-site divergence, in trace order (visited sites only).
    pub sites: Vec<SiteDivergence>,
    /// Largest absolute logit difference between the executors.
    pub logits_max_abs: f64,
    /// Fraction of samples where both executors picked the same argmax.
    pub agreement: f64,
}

impl DivergenceReport {
    /// The largest per-site `max_abs` across the network (0.0 when no
    /// sites were visited).
    #[must_use]
    pub fn worst_site_divergence(&self) -> f64 {
        self.sites.iter().map(|s| s.max_abs).fold(0.0, f64::max)
    }

    /// Serializes the report as deterministic, human-diffable JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"model\": {},\n", json_string(&self.model)));
        out.push_str(&format!("  \"format\": {},\n", json_string(&self.format)));
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str(&format!(
            "  \"logits_max_abs\": {:.9e},\n",
            self.logits_max_abs
        ));
        out.push_str(&format!("  \"agreement\": {:.6},\n", self.agreement));
        out.push_str("  \"sites\": [\n");
        for (i, s) in self.sites.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"path\": {}, \"elems\": {}, \"max_abs\": {:.9e}, \"mean_abs\": {:.9e}}}{}\n",
                json_string(&s.path),
                s.elems,
                s.max_abs,
                s.mean_abs,
                if i + 1 < self.sites.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Running divergence stats for one site id.
#[derive(Debug, Clone, Copy, Default)]
struct SiteAgg {
    elems: u64,
    sum_abs: f64,
    max_abs: f64,
}

/// The float pass's tap: stores each incoming (pre-quantization)
/// activation, then quantizes exactly as the plan tap would — through the
/// format each site resolves to under the plan's assignment.
struct RecordTap<'a> {
    plan: PlanTap<'a>,
    recorded: Vec<Tensor>,
}

impl Tap for RecordTap<'_> {
    fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
        self.recorded.push(t.clone());
        self.plan.activation(site, t)
    }
}

/// The bit-true pass's tap: diffs each incoming activation against the
/// float pass's recording (same visit order — the site table is the
/// contract), then quantizes identically.
struct CompareTap<'a> {
    plan: PlanTap<'a>,
    recorded: &'a [Tensor],
    next: usize,
    aggs: &'a mut [SiteAgg],
}

impl Tap for CompareTap<'_> {
    fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
        let reference = &self.recorded[self.next];
        self.next += 1;
        assert_eq!(
            t.shape(),
            reference.shape(),
            "executors disagree on activation shape at {}",
            site.path
        );
        let agg = &mut self.aggs[site.id.index()];
        let mut visit_max = 0.0f64;
        for (&a, &b) in t.data().iter().zip(reference.data()) {
            let d = f64::from(a - b).abs();
            agg.sum_abs += d;
            visit_max = visit_max.max(d);
        }
        agg.elems += t.data().len() as u64;
        agg.max_abs = agg.max_abs.max(visit_max);
        mersit_obs::observe_dyn(|| format!("ptq.coverify.site.{}", site.path), visit_max);
        self.plan.activation(site, t)
    }
}

/// Runs both executors of an assignment (a plain
/// [`FormatRef`](mersit_core::FormatRef) converts into a uniform one) over
/// `inputs` and returns the divergence report.
/// Batches run serially (the comparison needs the two passes' site-visit
/// orders aligned). Mixed assignments diff each site under its own
/// resolved format.
///
/// # Panics
///
/// Panics when `batch` is 0, or when the two executors visit a different
/// number of tap sites (a broken site contract).
#[must_use]
pub fn coverify(
    model: &Model,
    assign: impl Into<FormatAssignment>,
    cal: &Calibration,
    inputs: &Tensor,
    batch: usize,
) -> DivergenceReport {
    let assign = assign.into();
    let _span = mersit_obs::span("ptq.coverify");
    assert!(batch > 0, "batch size must be positive");
    let float_plan = QuantPlan::build_with(model, assign.clone(), cal, Executor::Float);
    let bt_plan = QuantPlan::build_with(model, assign, cal, Executor::BitTrue);
    let n = inputs.shape()[0];
    let mut aggs = vec![SiteAgg::default(); float_plan.sites.len()];
    let mut logits_max_abs = 0.0f64;
    let mut agree = 0usize;
    let mut i = 0;
    while i < n {
        let hi = (i + batch).min(n);
        let x = inputs.slice_outer(i, hi);

        let mut rec = RecordTap {
            plan: float_plan.tap(),
            recorded: Vec::new(),
        };
        let logits_f = float_plan.logits(model, x.clone(), &mut rec);
        let recorded = rec.recorded;

        let mut cmp = CompareTap {
            plan: bt_plan.tap(),
            recorded: &recorded,
            next: 0,
            aggs: &mut aggs,
        };
        let logits_b = bt_plan.logits(model, x, &mut cmp);
        assert_eq!(
            cmp.next,
            recorded.len(),
            "bit-true pass visited a different number of tap sites"
        );

        for (&a, &b) in logits_b.data().iter().zip(logits_f.data()) {
            logits_max_abs = logits_max_abs.max(f64::from(a - b).abs());
        }
        agree += argmax_rows(&logits_b)
            .iter()
            .zip(argmax_rows(&logits_f))
            .filter(|(a, b)| **a == *b)
            .count();
        i = hi;
    }

    let sites = float_plan
        .sites
        .iter()
        .filter(|(id, _)| aggs[id.index()].elems > 0)
        .map(|(id, path)| {
            let a = aggs[id.index()];
            SiteDivergence {
                path: path.to_owned(),
                elems: a.elems,
                max_abs: a.max_abs,
                mean_abs: a.sum_abs / a.elems as f64,
            }
        })
        .collect();
    DivergenceReport {
        model: model.name.clone(),
        format: float_plan.assignment().name(),
        samples: n,
        sites,
        logits_max_abs,
        agreement: if n == 0 { 1.0 } else { agree as f64 / n as f64 },
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
    fn coverify_reports_bounded_divergence() {
        let mut rng = Rng::new(7);
        let model = vgg_t(8, 10, &mut rng);
        let x = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
        let cal = calibrate(&model, &x, 3);
        let fmt = parse_format("MERSIT(8,2)").unwrap();
        let report = coverify(&model, fmt, &cal, &x, 3);
        assert_eq!(report.samples, 6);
        assert!(!report.sites.is_empty());
        assert!(report.agreement >= 0.5, "agreement {}", report.agreement);
        // Divergence is quantization-shaped, not exploding.
        for s in &report.sites {
            assert!(s.max_abs.is_finite(), "{}: non-finite divergence", s.path);
            assert!(s.mean_abs <= s.max_abs + 1e-12);
        }
        let json = report.to_json();
        assert!(json.contains("\"model\""));
        assert!(json.contains("\"sites\""));
        assert!(json.contains("MERSIT"));
    }
}
