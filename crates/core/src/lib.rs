//! # mersit-core — bit-exact 8-bit data formats for post-training quantization
//!
//! This crate reproduces the number systems studied in *"MERSIT: A
//! Hardware-Efficient 8-bit Data Format with Enhanced Post-Training
//! Quantization DNN Accuracy"* (DAC 2024):
//!
//! * [`Mersit`] — the paper's contribution: a Posit-like format whose
//!   regime and exponent are merged into multi-bit *exponent candidates*,
//!   enabling cheap grouped decoding (§3, Table 1).
//! * [`Posit`] — Posit(N,es), in both the paper's sign-magnitude flavor
//!   and the standard two's-complement flavor.
//! * [`Fp8`] — configurable-exponent minifloat FP(N,E) with subnormals.
//! * [`Int8`] — the symmetric integer baseline.
//!
//! All formats implement the common [`Format`] trait (decode / classify /
//! field extraction / round-to-nearest encode), so PTQ pipelines and
//! hardware models can treat them uniformly.
//!
//! ## Quick example
//!
//! ```
//! use mersit_core::{Format, Mersit, Posit, Fp8, MacParams};
//!
//! let mersit = Mersit::new(8, 2)?;
//! let posit = Posit::new(8, 1)?;
//! let fp8 = Fp8::new(4)?;
//!
//! // Quantize a real number through each format:
//! let x = 0.3713;
//! assert!((mersit.quantize(x) - x).abs() < 0.02);
//!
//! // The Kulisch MAC sizing of Fig. 2:
//! assert_eq!(MacParams::of(&fp8).w, 33);
//! assert_eq!(MacParams::of(&posit).w, 45);
//! assert_eq!(MacParams::of(&mersit).w, 35);
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
    clippy::format_push_string,
    clippy::many_single_char_names,
    clippy::unreadable_literal,
    clippy::match_same_arms,
    clippy::missing_panics_doc,
    clippy::unusual_byte_groupings,
    clippy::too_many_lines,
    clippy::cast_lossless
)]

#[cfg(test)]
mod codec_oracles;
pub mod error;
pub mod fields;
pub mod fixpoint;
pub mod format;
pub mod fp8;
pub mod int8;
pub mod mac_params;
pub mod mersit;
pub mod posit;
pub mod profile;
pub mod quant_lut;
pub mod registry;
pub mod simd;
pub mod tables;

pub use error::InvalidFormatError;
pub use fields::{Decoded, ValueClass};
pub use fixpoint::{ceil_log2, v_ovf_for, wrap_i128, FixTable, DEFAULT_V_OVF};
pub use format::{EncodeTable, Format, LatticePoint, TieRule, UnderflowPolicy};
pub use fp8::Fp8;
pub use int8::Int8;
pub use mac_params::MacParams;
pub use mersit::Mersit;
pub use posit::{Posit, PositFlavor};
pub use profile::{BinadePrecision, PrecisionProfile};
pub use quant_lut::{quantize_slice_scalar, FormatCaches, QuantLut, QuantSpec, LUT_MIN_LEN};
pub use registry::{fig4_formats, hardware_formats, parse_format, table2_formats, FormatRef};
pub use simd::{available_levels, detected_level, simd_level, SimdLevel};
pub use tables::{code_dump, mersit_table, render_mersit_table, CodeRow, MersitTableRow};
