//! Build-once plan cache: one [`QuantPlan`] per (model, assignment, executor).

use mersit_nn::Model;
use mersit_ptq::{Calibration, Executor, FormatAssignment, QuantPlan};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Identity of one compiled plan: model name, canonical assignment name
/// (as reported by [`FormatAssignment::name`] — a plain format name like
/// `"MERSIT(8,2)"` for uniform plans, so `"mersit(8,2)"` and
/// `"MERSIT(8,2)"` collide onto one entry; a `"DEFAULT;path=FMT"` spec
/// for mixed plans), and execution engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Model name (e.g. `"vgg_t"`).
    pub model: String,
    /// Canonical assignment name (e.g. `"MERSIT(8,2)"`, or a mixed spec
    /// like `"MERSIT(8,2);head.fc=FP(8,4)"`).
    pub format: String,
    /// Execution engine the plan was compiled for.
    pub executor: Executor,
}

/// A thread-safe build-once cache of compiled [`QuantPlan`]s.
///
/// The first request for a `(model, format, executor)` triple pays the
/// plan build (weight quantization, panel packing, bit-true engine
/// construction); every later request — from any thread — shares the same
/// [`Arc`]'d plan. `QuantPlan::predict*` needs only `&self`, so one plan
/// serves concurrent batches with no further synchronization.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Arc<QuantPlan>>>,
}

impl PlanCache {
    /// Empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached plan for `key`, building it on first use.
    /// Records `serve.plan.cache.hit` / `serve.plan.cache.miss` counters
    /// and times builds under a `serve.plan.build` span.
    ///
    /// The build runs outside the cache lock, so a build that panics
    /// leaves the cache usable: the panic reaches the caller (the server
    /// fails that batch) and a later request builds again. Lookups and
    /// [`PlanCache::len`] never wait on a build. Two callers that miss on
    /// the same key at once both build, and the first insert wins; in the
    /// server only the batcher thread builds, so nothing builds twice.
    #[must_use]
    pub fn get_or_build(
        &self,
        key: &PlanKey,
        model: &Model,
        assign: &FormatAssignment,
        cal: &Calibration,
    ) -> Arc<QuantPlan> {
        if let Some(plan) = self.lock().get(key) {
            mersit_obs::incr("serve.plan.cache.hit");
            return Arc::clone(plan);
        }
        mersit_obs::incr("serve.plan.cache.miss");
        let plan = {
            let _span = mersit_obs::span("serve.plan.build");
            Arc::new(QuantPlan::build_with(
                model,
                assign.clone(),
                cal,
                key.executor,
            ))
        };
        Arc::clone(self.lock().entry(key.clone()).or_insert(plan))
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<PlanKey, Arc<QuantPlan>>> {
        // Nothing panics while the guard is held (builds run outside it).
        self.plans.lock().expect("plan cache poisoned")
    }

    /// Number of compiled plans currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no plan has been built yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
