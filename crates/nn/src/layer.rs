//! The [`Layer`] trait, forward context, and the activation [`Tap`] hook
//! that the PTQ pipeline uses to observe and fake-quantize activations at
//! every layer boundary.
//!
//! Taps receive a [`Site`] — a dense [`SiteId`] plus the dotted path — and
//! the context maintains the path in a single incremental buffer, so the
//! hot loop never re-joins a `Vec<String>` per activation. See
//! [`crate::site`] for the tracing/compiled site machinery.

use crate::param::{ParamVisitor, RefParamVisitor};
use crate::site::{Site, SiteId, SiteTable};
use mersit_tensor::{PackedRhs, Tensor};
use std::sync::Arc;

/// A bit-true replacement for one layer's `x · Wᵀ` GEMM.
///
/// Implementations (the quantized-execution engines in `mersit-ptq`) own
/// the weight in whatever exact representation they need and consume the
/// **float** activation rows, returning the `[rows, out]` product
/// *without* bias — the layer adds its own bias afterwards, exactly as on
/// the float path. Keeping the engine behind a trait object preserves the
/// layering rule that `mersit-nn` knows nothing about quantization.
pub trait BitTrueGemm: std::fmt::Debug + Send + Sync {
    /// Computes `[rows, in] → [rows, out]` for rank-2 `x2` (bias not
    /// included).
    fn gemm(&self, x2: &Tensor) -> Tensor;
}

/// One planned weight override, held in the one form its layer reads.
///
/// A weight consumed as the rhs of a `x · Wᵀ` GEMM (see
/// [`crate::param::Param::gemm_rhs`]) is held as packed panels or as a
/// bit-true engine, never also as a tensor: GEMM consumers read it only
/// through `gemm_t`, the one float/packed/bit-true GEMM choice. Every
/// other weight (depthwise kernels, embedding tables) is held as its
/// tensor.
#[derive(Debug, Clone)]
pub enum PlanWeight {
    /// The override tensor, read as is (any weight; a GEMM consumer
    /// multiplies by its transpose, [`Tensor::matmul_t`]).
    Value(Tensor),
    /// A GEMM weight packed as the `[in, out]` rhs of `x · Wᵀ`: the
    /// transpose and pack are paid once per plan instead of once per
    /// sample, with bit-identical products.
    Packed(PackedRhs),
    /// A bit-true engine replacing the float GEMM: exact integer
    /// arithmetic on raw codes. The engine owns the weight in its own
    /// packed code form.
    BitTrue(Arc<dyn BitTrueGemm>),
}

impl PlanWeight {
    /// A GEMM weight packed as the rhs of `x · Wᵀ`. `value` must be the
    /// usual `[out, in]` weight layout; the panels describe its transpose.
    ///
    /// # Panics
    ///
    /// Panics unless `value` is rank 2.
    #[must_use]
    pub fn packed_rhs(value: &Tensor) -> Self {
        assert_eq!(value.shape().len(), 2, "GEMM rhs weight must be rank 2");
        let (out_dim, in_dim) = (value.shape()[0], value.shape()[1]);
        Self::Packed(PackedRhs::pack_t(value.data(), out_dim, in_dim))
    }

    /// The override tensor of a [`PlanWeight::Value`] slot, for the
    /// layers that read a weight other than through a GEMM.
    ///
    /// # Panics
    ///
    /// Panics on a GEMM form: the plan and the model disagree on which
    /// weight this slot is.
    pub(crate) fn value(&self) -> &Tensor {
        match self {
            Self::Value(t) => t,
            Self::Packed(_) | Self::BitTrue(_) => {
                panic!("plan slot holds a GEMM form, not a tensor: plan and model disagree")
            }
        }
    }

    /// `x2·Wᵀ` for rank-2 `[rows, in]` `x2`, bias not included: the one
    /// float/packed/bit-true GEMM choice. Every route is the same
    /// decomposition, so a layer adds its bias the same way whichever one
    /// ran, and every route asserts its inner dimension.
    pub(crate) fn gemm_t(&self, x2: &Tensor) -> Tensor {
        match self {
            Self::Value(w) => x2.matmul_t(w),
            Self::Packed(p) => x2.matmul_packed(p),
            Self::BitTrue(engine) => engine.gemm(x2),
        }
    }
}

/// Observer/transformer of inter-layer activations.
///
/// During calibration a tap records per-site maxima and returns the tensor
/// unchanged; during quantized inference it fake-quantizes the tensor.
pub trait Tap {
    /// Called with each produced activation; returns the (possibly
    /// transformed) tensor that flows onward.
    fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor;
}

/// How the context assigns [`SiteId`]s at tap points.
enum SiteMode<'a> {
    /// Dense ids by visit order, no table. Ids match what a trace of the
    /// same model would assign, because both follow forward order.
    Adhoc { next: u32 },
    /// Interns each tap path into the table (idempotent across batches).
    Trace(&'a mut SiteTable),
    /// Ids by cursor; paths resolved from the traced table instead of the
    /// live buffer — the compatibility shim for obs span names.
    Compiled { table: &'a SiteTable, next: u32 },
}

/// Forward-pass context: hierarchical path, site mode, optional tap, and
/// optional planned weight overrides.
///
/// Both forwards of a [`Layer`] take one. Training runs with
/// [`Ctx::new`]; calibration and quantized inference run `forward_ref`
/// with a tap, tracing or compiled context.
pub struct Ctx<'a> {
    path_buf: String,
    marks: Vec<usize>,
    tap: Option<&'a mut dyn Tap>,
    mode: SiteMode<'a>,
    overrides: Option<&'a [PlanWeight]>,
    override_cursor: usize,
}

impl<'a> Ctx<'a> {
    fn base(tap: Option<&'a mut dyn Tap>, mode: SiteMode<'a>) -> Self {
        Self {
            path_buf: String::new(),
            marks: Vec::new(),
            tap,
            mode,
            overrides: None,
            override_cursor: 0,
        }
    }

    /// Context without a tap (ad-hoc dense site ids).
    #[must_use]
    pub fn new() -> Self {
        Self::base(None, SiteMode::Adhoc { next: 0 })
    }

    /// Context with an activation tap (ad-hoc dense site ids).
    pub fn with_tap(tap: &'a mut dyn Tap) -> Self {
        Self::base(Some(tap), SiteMode::Adhoc { next: 0 })
    }

    /// Tracing context: interns every tap path into `table`.
    pub fn tracing(table: &'a mut SiteTable) -> Self {
        Self::base(None, SiteMode::Trace(table))
    }

    /// Tracing context with a tap attached (calibration).
    pub fn tracing_with_tap(table: &'a mut SiteTable, tap: &'a mut dyn Tap) -> Self {
        Self::base(Some(tap), SiteMode::Trace(table))
    }

    /// Compiled context: site ids advance by cursor in visit order and tap
    /// paths resolve through the traced `table`.
    pub fn compiled(table: &'a SiteTable, tap: &'a mut dyn Tap) -> Self {
        Self::base(Some(tap), SiteMode::Compiled { table, next: 0 })
    }

    /// Attaches planned weight overrides: layers consume one slot per
    /// rank-≥2 parameter, in `visit_params` order (builder style).
    #[must_use]
    pub fn with_overrides(mut self, weights: &'a [PlanWeight]) -> Self {
        self.overrides = Some(weights);
        self.override_cursor = 0;
        self
    }

    /// Pushes a path component (container entering a child).
    pub fn push(&mut self, name: &str) {
        self.marks.push(self.path_buf.len());
        if !self.path_buf.is_empty() {
            self.path_buf.push('.');
        }
        self.path_buf.push_str(name);
    }

    /// Pops a path component.
    pub fn pop(&mut self) {
        let mark = self.marks.pop().expect("pop without matching push");
        self.path_buf.truncate(mark);
    }

    /// Current hierarchical path joined with `.` (maintained incrementally;
    /// no per-call allocation).
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path_buf
    }

    /// The next planned weight override, advancing the cursor — or `None`
    /// when the context carries no plan. Layers call this exactly once per
    /// rank-≥2 parameter, in `visit_params` order, which is the order the
    /// plan builder filled the slots in.
    pub fn next_override(&mut self) -> Option<&'a PlanWeight> {
        let slice = self.overrides?;
        let i = self.override_cursor;
        assert!(
            i < slice.len(),
            "weight-override cursor overran the plan ({} slots)",
            slice.len()
        );
        self.override_cursor += 1;
        Some(&slice[i])
    }

    /// Number of override slots consumed so far (plan executors assert
    /// this equals the plan length after a forward).
    #[must_use]
    pub fn overrides_consumed(&self) -> usize {
        self.override_cursor
    }

    /// Routes an activation through the tap (if any).
    ///
    /// When the `MERSIT_OBS` toggle is on this is also the
    /// activation-stat hook: every tensor that crosses a tap point is
    /// counted (`nn.act.tensors`, `nn.act.elems`) and its max-|x| lands
    /// in the `nn.act.max_abs` histogram — the per-layer visibility that
    /// decides which 8-bit format survives PTQ. Observation only; the
    /// tensor itself is never altered by instrumentation.
    #[must_use]
    pub fn tap_activation(&mut self, t: Tensor) -> Tensor {
        if mersit_obs::enabled() {
            mersit_obs::incr("nn.act.tensors");
            mersit_obs::add("nn.act.elems", t.len() as u64);
            mersit_obs::observe("nn.act.max_abs", f64::from(t.max_abs()));
        }
        let Self {
            path_buf,
            tap,
            mode,
            ..
        } = self;
        let (id, path): (SiteId, &str) = match mode {
            SiteMode::Adhoc { next } => {
                let id = SiteId(*next);
                *next += 1;
                (id, path_buf.as_str())
            }
            SiteMode::Trace(table) => (table.intern(path_buf), path_buf.as_str()),
            SiteMode::Compiled { table, next } => {
                let id = SiteId(*next);
                *next += 1;
                let path = table.path(id);
                debug_assert_eq!(
                    path,
                    path_buf.as_str(),
                    "compiled forward diverged from the traced site order"
                );
                (id, path)
            }
        };
        match tap {
            Some(tap) => tap.activation(Site { id, path }, t),
            None => t,
        }
    }

    /// Whether a tap is attached.
    #[must_use]
    pub fn has_tap(&self) -> bool {
        self.tap.is_some()
    }
}

impl Default for Ctx<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// A differentiable network layer with two forwards.
///
/// `forward` is the training forward. It borrows the layer exclusively
/// and caches whatever `backward` needs (batch norm also normalizes by
/// batch statistics and updates its running ones). `backward` consumes
/// those caches and returns the gradient with respect to the layer input,
/// accumulating parameter gradients into its [`crate::param::Param`]s.
///
/// `forward_ref` is the inference forward, the only one. It borrows the
/// layer (and thus every parameter) read-only, so any number of forwards
/// can run concurrently over one model. Planned weight overrides
/// ([`Ctx::with_overrides`]) apply only here.
///
/// Where both forwards do the same arithmetic, the layer writes it once
/// in a private body that both call. Containers run that body over
/// their children borrowed as a crate-private `Pass`, so they push path
/// components and tap activations the same way in both forwards by
/// construction, and training feeds the same `nn.fwd.*` spans and
/// `nn.act.*` stats as inference. A test in `tests/site_properties.rs`
/// pins that both forwards tap the same sites in the same order.
///
/// The [`std::any::Any`] supertrait allows structural model transforms
/// (such as batch-norm folding) to downcast children of containers; the
/// `Send + Sync` supertraits let `&Model` cross scoped-thread boundaries
/// for parallel PTQ sweeps.
pub trait Layer: std::any::Any + Send + Sync {
    /// Training forward (exclusive borrow): caches what `backward` needs.
    fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor;

    /// Inference forward over a shared borrow.
    fn forward_ref(&self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor;

    /// Backward pass (valid after a `forward`).
    fn backward(&mut self, dout: Tensor) -> Tensor;

    /// Visits all trainable parameters with hierarchical names.
    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor<'_>);

    /// Read-only parameter visit, same order and names as `visit_params`.
    fn visit_params_ref(&self, prefix: &str, f: &mut RefParamVisitor<'_>);

    /// Short type label used in paths ("conv", "linear", …).
    fn kind(&self) -> &'static str;

    /// Recursively applies batch-norm folding inside nested containers.
    /// Containers override this; leaf layers do nothing.
    fn fold_bn(&mut self) {}
}

/// A child layer borrowed for one of its two forwards: exclusively for
/// the training `forward`, shared for `forward_ref`.
///
/// A container's one forward body takes its children as `Pass`es, so the
/// path pushes, spans and taps between them are written once for both
/// forwards, and `tests/site_properties.rs` pins that both tap the same
/// sites. It is a borrow, not a mode: [`Pass::run`] is the only place
/// that tells the variants apart, and [`Ctx`] carries no mode flag.
pub(crate) enum Pass<'a, L: ?Sized> {
    /// Training: [`Layer::forward`], which caches for `backward`.
    Train(&'a mut L),
    /// Inference: [`Layer::forward_ref`].
    Infer(&'a L),
}

impl<L: Layer + ?Sized> Pass<'_, L> {
    /// Runs the borrowed layer's matching forward.
    pub(crate) fn run(self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        match self {
            Pass::Train(layer) => layer.forward(x, ctx),
            Pass::Infer(layer) => layer.forward_ref(x, ctx),
        }
    }
}

/// Joins a prefix and a component with `.` (skipping empty prefixes).
#[must_use]
pub fn join_path(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_owned()
    } else {
        format!("{prefix}.{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_stack() {
        let mut c = Ctx::new();
        assert_eq!(c.path(), "");
        c.push("net");
        c.push("0");
        assert_eq!(c.path(), "net.0");
        c.pop();
        assert_eq!(c.path(), "net");
        c.pop();
        assert_eq!(c.path(), "");
    }

    struct Doubler;
    impl Tap for Doubler {
        fn activation(&mut self, _site: Site<'_>, t: Tensor) -> Tensor {
            t.scale(2.0)
        }
    }

    #[test]
    fn tap_transforms_activations() {
        let mut tap = Doubler;
        let mut c = Ctx::with_tap(&mut tap);
        let t = Tensor::full(&[2], 3.0);
        let out = c.tap_activation(t);
        assert_eq!(out.data(), &[6.0, 6.0]);
        assert!(c.has_tap());
    }

    struct Sites(Vec<(u32, String)>);
    impl Tap for Sites {
        fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
            self.0.push((site.id.0, site.path.to_owned()));
            t
        }
    }

    #[test]
    fn adhoc_ids_are_dense_in_visit_order() {
        let mut tap = Sites(Vec::new());
        let mut c = Ctx::with_tap(&mut tap);
        c.push("a");
        let _ = c.tap_activation(Tensor::zeros(&[1]));
        c.pop();
        c.push("b");
        let _ = c.tap_activation(Tensor::zeros(&[1]));
        c.pop();
        assert_eq!(tap.0, vec![(0, "a".to_owned()), (1, "b".to_owned())]);
    }

    #[test]
    fn tracing_interns_and_compiled_replays() {
        let mut table = SiteTable::new();
        {
            let mut c = Ctx::tracing(&mut table);
            c.push("x");
            let _ = c.tap_activation(Tensor::zeros(&[1]));
            c.pop();
            c.push("y");
            let _ = c.tap_activation(Tensor::zeros(&[1]));
            c.pop();
        }
        assert_eq!(table.len(), 2);
        assert_eq!(table.get("x").map(crate::site::SiteId::index), Some(0));
        // Compiled mode resolves paths through the table.
        let mut tap = Sites(Vec::new());
        let mut c = Ctx::compiled(&table, &mut tap);
        c.push("x");
        let _ = c.tap_activation(Tensor::zeros(&[1]));
        c.pop();
        c.push("y");
        let _ = c.tap_activation(Tensor::zeros(&[1]));
        c.pop();
        assert_eq!(tap.0, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn overrides_consumed_in_order() {
        let a = PlanWeight::Value(Tensor::full(&[1], 1.0));
        let b = PlanWeight::packed_rhs(&Tensor::full(&[1, 1], 2.0));
        let slots = [a, b];
        let mut c = Ctx::new().with_overrides(&slots);
        assert_eq!(c.next_override().unwrap().value().data(), &[1.0]);
        let second = c.next_override().unwrap();
        assert!(matches!(second, PlanWeight::Packed(_)));
        assert_eq!(second.gemm_t(&Tensor::full(&[1, 1], 3.0)).data(), &[6.0]);
        assert_eq!(c.overrides_consumed(), 2);
        let mut plain = Ctx::new();
        assert!(plain.next_override().is_none());
        assert_eq!(plain.overrides_consumed(), 0);
    }

    #[test]
    fn join_path_rules() {
        assert_eq!(join_path("", "conv"), "conv");
        assert_eq!(join_path("net.0", "w"), "net.0.w");
    }
}
