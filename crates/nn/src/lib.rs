//! # mersit-nn — layers, training, and the miniature model zoo
//!
//! A from-scratch neural-network stack (manual backprop, no autograd) that
//! trains the architecture-family analogues evaluated in the MERSIT paper's
//! Table 2, plus the synthetic datasets they train on and the GLUE-style
//! metrics they report.
//!
//! The PTQ hook is the [`layer::Tap`] trait: a forward pass with a tap
//! attached sees every inter-layer activation, which is how `mersit-ptq`
//! calibrates and fake-quantizes models without the layers knowing anything
//! about number formats.
//!
//! Every [`Layer`] has two forwards. `forward` is the training forward: it
//! caches what `backward` needs. `forward_ref` is the inference forward:
//! it only reads the network, and every prediction, calibration and
//! quantized forward runs through it.
//!
//! ```
//! use mersit_nn::layers::{Act, ActKind, Linear, Sequential};
//! use mersit_nn::layer::{Ctx, Layer};
//! use mersit_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::new(1);
//! let mut net = Sequential::new();
//! net.push(Linear::new(4, 8, &mut rng));
//! net.push(Act::new(ActKind::Relu));
//! net.push(Linear::new(8, 2, &mut rng));
//! // Training step: `forward` caches, `backward` consumes the caches.
//! let y = net.forward(Tensor::full(&[1, 4], 1.0), &mut Ctx::new());
//! let dx = net.backward(Tensor::full(y.shape(), 1.0));
//! assert_eq!(dx.shape(), &[1, 4]);
//! // Inference over a shared borrow.
//! let logits = net.forward_ref(Tensor::zeros(&[1, 4]), &mut Ctx::new());
//! assert_eq!(logits.shape(), &[1, 2]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::must_use_candidate,
    clippy::module_name_repetitions,
    clippy::doc_markdown,
    clippy::float_cmp,
    clippy::many_single_char_names,
    clippy::unreadable_literal,
    clippy::match_same_arms,
    clippy::missing_panics_doc,
    clippy::unusual_byte_groupings,
    clippy::cast_lossless,
    clippy::similar_names,
    clippy::too_many_arguments,
    clippy::too_many_lines,
    clippy::needless_range_loop,
    clippy::assigning_clones
)]

pub mod attention;
pub mod blocks;
pub mod data;
pub mod layer;
pub mod layers;
pub mod metrics;
pub mod models;
pub mod param;
pub mod site;
pub mod stats;
pub mod train;

pub use data::{glue_like, synthetic_images, Dataset, GlueTask, GLUE_SEQ_LEN, GLUE_VOCAB};
pub use layer::{BitTrueGemm, Ctx, Layer, PlanWeight, Tap};
pub use metrics::{accuracy, argmax_rows, f1_binary, matthews};
pub use models::{bert_t, vision_zoo, InputKind, Model};
pub use param::{Param, RefParamVisitor};
pub use site::{trace_sites, Site, SiteId, SiteTable};
pub use stats::{profile_model, LayerStats, ModelProfile};
pub use train::{
    predict_one_batch_ref, predict_ref, predict_sharded, train_classifier, OptState, Optimizer,
    Split, TrainConfig,
};
