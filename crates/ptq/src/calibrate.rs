//! Calibration: run a small data subset through the FP32 model and record
//! the per-site activation maxima that become the PTQ scaling parameters
//! (§4.1 of the paper).
//!
//! The first calibration batch doubles as the *tracing* pass: it interns
//! every activation tap point into a dense [`SiteTable`] (see
//! `mersit_nn::site`), and the recorded maxima live in a flat `Vec<f32>`
//! indexed by [`SiteId`] — no string keys or hash lookups in the hot loop.
//! Subsequent batches replay the table in compiled mode.

use mersit_nn::{Ctx, Layer, Model, Site, SiteId, SiteTable, Tap};
use mersit_tensor::Tensor;

/// Pseudo-path under which the network input's maximum is recorded.
pub const INPUT_PATH: &str = "__input__";

/// Per-site activation maxima collected on the calibration split, indexed
/// by the dense [`SiteId`]s of the traced [`SiteTable`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Calibration {
    sites: SiteTable,
    act_max: Vec<f32>,
    input_max: Option<f32>,
}

impl Calibration {
    /// Maximum recorded for a site id.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not assigned by this calibration's site table.
    #[must_use]
    pub fn max_of(&self, id: SiteId) -> f32 {
        self.act_max[id.index()]
    }

    /// Maximum recorded for a path (0 if the path never fired). The legacy
    /// string-keyed read: resolves through the interned table, including
    /// the [`INPUT_PATH`] pseudo-site.
    #[must_use]
    pub fn max_for(&self, path: &str) -> f32 {
        if path == INPUT_PATH {
            return self.input_max();
        }
        self.sites.get(path).map_or(0.0, |id| self.max_of(id))
    }

    /// Maximum absolute value of the network input over the calibration
    /// split (0 when calibration never ran).
    #[must_use]
    pub fn input_max(&self) -> f32 {
        self.input_max.unwrap_or(0.0)
    }

    /// The interned site table the maxima are indexed by. [`INPUT_PATH`]
    /// is *not* a table entry — it is tracked separately so compiled
    /// forwards replay exactly the traced tap order.
    #[must_use]
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// Dense per-site maxima in [`SiteId`] order.
    #[must_use]
    pub fn site_maxima(&self) -> &[f32] {
        &self.act_max
    }

    /// Number of observed activation sites (including the input
    /// pseudo-site when calibration ran).
    #[must_use]
    pub fn num_sites(&self) -> usize {
        self.act_max.len() + usize::from(self.input_max.is_some())
    }
}

struct CalibTap<'a> {
    act_max: &'a mut Vec<f32>,
}

impl Tap for CalibTap<'_> {
    fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
        let m = t.max_abs();
        let i = site.id.index();
        if i == self.act_max.len() {
            self.act_max.push(m);
        } else {
            assert!(i < self.act_max.len(), "site id beyond traced table");
            if m > self.act_max[i] {
                self.act_max[i] = m;
            }
        }
        t
    }
}

/// Runs the calibration split through the model, recording activation
/// maxima (including the input under [`INPUT_PATH`]). The first batch
/// traces the site table; later batches replay it compiled. Needs only
/// `&` access to the model.
pub fn calibrate(model: &Model, inputs: &Tensor, batch: usize) -> Calibration {
    let _span = mersit_obs::span("ptq.calibrate");
    let mut sites = SiteTable::new();
    let mut act_max: Vec<f32> = Vec::new();
    let mut input_max: Option<f32> = None;
    let n = inputs.shape()[0];
    let mut i = 0;
    while i < n {
        mersit_obs::incr("ptq.calibrate.batches");
        let hi = (i + batch).min(n);
        let x = inputs.slice_outer(i, hi);
        let m = x.max_abs();
        input_max = Some(input_max.map_or(m, |e| e.max(m)));
        let mut tap = CalibTap {
            act_max: &mut act_max,
        };
        if i == 0 {
            let mut ctx = Ctx::tracing_with_tap(&mut sites, &mut tap);
            let _ = model.net.forward_ref(x, &mut ctx);
        } else {
            let mut ctx = Ctx::compiled(&sites, &mut tap);
            let _ = model.net.forward_ref(x, &mut ctx);
        }
        i = hi;
    }
    Calibration {
        sites,
        act_max,
        input_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mersit_nn::models::vgg_t;
    use mersit_tensor::Rng;

    #[test]
    fn calibration_records_every_layer() {
        let mut rng = Rng::new(1);
        let model = vgg_t(12, 10, &mut rng);
        let x = Tensor::randn(&[4, 3, 12, 12], 1.0, &mut rng);
        let cal = calibrate(&model, &x, 2);
        // 14 tapped layers + the input.
        let paths: Vec<&str> = cal.sites().iter().map(|(_, p)| p).collect();
        assert_eq!(cal.num_sites(), 15, "{paths:?}");
        assert!(cal.max_for(INPUT_PATH) > 0.0);
        for (id, path) in cal.sites().iter() {
            assert!(cal.max_of(id) >= 0.0, "{path}");
            assert_eq!(cal.max_for(path), cal.max_of(id), "{path}");
        }
    }

    #[test]
    fn calibration_maxima_grow_monotonically() {
        let mut rng = Rng::new(2);
        let model = vgg_t(12, 10, &mut rng);
        let small = Tensor::randn(&[2, 3, 12, 12], 0.1, &mut rng);
        let big = Tensor::randn(&[2, 3, 12, 12], 5.0, &mut rng);
        let cal_small = calibrate(&model, &small, 2);
        let both = Tensor::cat_outer(&[&small, &big]);
        let cal_both = calibrate(&model, &both, 2);
        assert!(cal_both.max_for(INPUT_PATH) >= cal_small.max_for(INPUT_PATH));
    }

    #[test]
    fn unknown_path_reads_zero() {
        let cal = Calibration::default();
        assert_eq!(cal.max_for("nope"), 0.0);
    }

    #[test]
    fn site_table_stable_across_repeated_calibrations() {
        let mut rng = Rng::new(9);
        let model = vgg_t(12, 10, &mut rng);
        let x = Tensor::randn(&[4, 3, 12, 12], 1.0, &mut rng);
        let a = calibrate(&model, &x, 2);
        let b = calibrate(&model, &x, 4);
        assert_eq!(a.sites(), b.sites(), "site table depends on batch size");
    }
}

#[cfg(test)]
mod consistency_tests {
    use super::*;
    use crate::executor::{PlanTap, QuantPlan};
    use mersit_core::parse_format;
    use mersit_nn::models::mobilenet_v3_t;
    use mersit_tensor::Rng;
    use std::collections::BTreeSet;

    /// The quantized-inference tap must visit exactly the same activation
    /// sites the calibration tap recorded — otherwise scales silently
    /// go unused / unseen sites stay unquantized. The spy wraps the plan
    /// tap in the compiled, weight-overriding context that serves
    /// traffic.
    #[test]
    fn quantized_inference_visits_calibrated_sites() {
        struct Spy<'a> {
            inner: PlanTap<'a>,
            seen: BTreeSet<String>,
        }
        impl Tap for Spy<'_> {
            fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
                self.seen.insert(site.path.to_owned());
                self.inner.activation(site, t)
            }
        }
        let mut rng = Rng::new(8);
        let model = mobilenet_v3_t(8, 10, &mut rng);
        let x = Tensor::randn(&[4, 3, 8, 8], 1.0, &mut rng);
        let cal = calibrate(&model, &x, 2);
        let plan = QuantPlan::build(&model, parse_format("MERSIT(8,2)").unwrap(), &cal);
        let mut spy = Spy {
            inner: plan.tap(),
            seen: BTreeSet::new(),
        };
        let _ = plan.logits(&model, x, &mut spy);
        let calibrated: BTreeSet<String> = cal.sites().iter().map(|(_, p)| p.to_owned()).collect();
        assert_eq!(spy.seen, calibrated, "tap site mismatch");
        assert!(spy.seen.len() > 20, "nontrivial site count");
    }
}
