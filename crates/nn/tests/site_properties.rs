//! Property tests for the interned activation-site registry: tracing
//! assigns stable, dense [`mersit_nn::SiteId`]s, and the interned table
//! round-trips exactly to the legacy string paths the ad-hoc (untraced)
//! executor builds — on every model in the vision zoo plus `bert_t`.

use mersit_nn::models::{bert_t, vision_zoo};
use mersit_nn::{Ctx, Layer, Model, Site, SiteId, Tap};
use mersit_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// Records every `(id, path)` pair an ad-hoc tapped forward visits, in
/// visit order.
struct Recorder {
    events: Vec<(usize, String)>,
}

impl Tap for Recorder {
    fn activation(&mut self, site: Site<'_>, t: Tensor) -> Tensor {
        self.events.push((site.id.index(), site.path.to_owned()));
        t
    }
}

/// The eight vision-zoo models plus `bert_t`, each paired with a valid
/// input batch.
fn zoo(seed: u64) -> Vec<(Model, Tensor)> {
    let mut input_rng = Rng::new(seed ^ 0xDA7A);
    let mut out: Vec<(Model, Tensor)> = vision_zoo(8, 6, seed)
        .into_iter()
        .map(|m| {
            let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut input_rng);
            (m, x)
        })
        .collect();
    let mut rng = Rng::new(seed);
    let bert = bert_t(24, 8, 16, 3, &mut rng);
    let ids = Tensor::from_vec((0..16).map(|v| (v % 24) as f32).collect(), &[2, 8]);
    out.push((bert, ids));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Tracing is deterministic: repeated traces of the same model, and
    /// traces at a different batch size, intern the identical table.
    #[test]
    fn trace_is_stable_across_repeated_forwards(seed in 0u64..(1 << 32)) {
        for (model, x) in zoo(seed) {
            let t1 = model.trace(&x);
            let t2 = model.trace(&x);
            prop_assert_eq!(&t1, &t2, "retrace differs in {}", &model.name);
            let single = x.slice_outer(0, 1);
            let t3 = model.trace(&single);
            prop_assert_eq!(&t1, &t3, "batch-size dependence in {}", &model.name);
            prop_assert!(!t1.is_empty(), "{} traced no sites", &model.name);
        }
    }

    /// The interned table round-trips exactly to the legacy string
    /// paths: an ad-hoc forward visits the same paths in the same
    /// order, ids are dense in visit order, and `get`/`path` are
    /// mutually inverse over every interned site. The training forward
    /// taps the same sites in the same order as `forward_ref`.
    #[test]
    fn table_round_trips_legacy_string_paths(seed in 0u64..(1 << 32)) {
        for (mut model, x) in zoo(seed) {
            let table = model.trace(&x);
            let mut rec = Recorder { events: Vec::new() };
            let mut ctx = Ctx::with_tap(&mut rec);
            let _ = model.net.forward_ref(x.clone(), &mut ctx);
            prop_assert_eq!(rec.events.len(), table.len(), "site count in {}", &model.name);
            for (i, (id, path)) in rec.events.iter().enumerate() {
                prop_assert_eq!(*id, i, "non-dense ad-hoc id in {}", &model.name);
                prop_assert_eq!(table.path(SiteId(*id as u32)), path.as_str());
                prop_assert_eq!(table.get(path).map(SiteId::index), Some(*id));
            }
            let mut train = Recorder { events: Vec::new() };
            let _ = model.net.forward(x.clone(), &mut Ctx::with_tap(&mut train));
            prop_assert_eq!(&train.events, &rec.events, "training sites in {}", &model.name);
        }
    }
}
