//! # mersit-ptq — the post-training quantization pipeline of §4.1
//!
//! Calibration (per-channel weight maxima, per-layer activation maxima on a
//! small data subset), fake-quantization through any `mersit-core`
//! [`mersit_core::Format`], quantized inference, RMSE analysis (Fig. 6) and
//! the Table 2 accuracy harness.
//!
//! ```
//! use mersit_core::parse_format;
//! use mersit_ptq::{quantize_tensor, scale_for};
//! use mersit_tensor::Tensor;
//!
//! let fmt = parse_format("MERSIT(8,2)")?;
//! let acts = Tensor::from_vec(vec![0.1, -2.3, 0.77, 1.9], &[4]);
//! let s = scale_for(fmt.as_ref(), acts.max_abs());
//! let q = quantize_tensor(fmt.as_ref(), &acts, s);
//! assert!(q.sub(&acts).max_abs() < 0.2);
//! # Ok::<(), mersit_core::InvalidFormatError>(())
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
    clippy::unreadable_literal,
    clippy::missing_panics_doc,
    clippy::unusual_byte_groupings,
    clippy::too_many_lines,
    clippy::cast_lossless,
    clippy::similar_names,
    clippy::format_push_string,
    clippy::many_single_char_names,
    clippy::needless_range_loop
)]

pub mod accuracy;
pub mod assign;
pub mod bittrue;
pub mod calibrate;
pub mod coverify;
pub mod executor;
pub mod other_formats;
pub mod quantizer;
pub mod rmse;

pub use accuracy::{
    evaluate_assignments, evaluate_model, render_table, EvalRow, FormatScore, Metric,
};
pub use assign::{
    assignment_score, greedy_search, layer_macs, layer_sensitivity, pareto_front, FormatAssignment,
    LayerMacs, LayerSensitivity, ParetoPoint, SearchConfig,
};
pub use bittrue::{dot_bit_true, Executor, QuantGemm, WideAcc};
pub use calibrate::{calibrate, Calibration, INPUT_PATH};
pub use coverify::{coverify, DivergenceReport, SiteDivergence};
pub use executor::QuantPlan;
pub use other_formats::{quantize_adaptivfloat, quantize_bfp, AltQuant};
pub use quantizer::{
    channel_max_abs, quantize_per_channel, quantize_slice, quantize_tensor, relative_rmse,
    scale_anchor, scale_for, site_scale,
};
pub use rmse::{activation_rmse, rmse_report, weight_rmse, RmseReport};
