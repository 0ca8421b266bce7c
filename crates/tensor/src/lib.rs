//! # mersit-tensor — a minimal dense f32 tensor library
//!
//! Deterministic RNG ([`Rng`]), a contiguous row-major [`Tensor`], and the
//! NN math primitives ([`ops`]) the `mersit-nn` layers are built from.
//! No external dependencies, so every experiment in the MERSIT
//! reproduction is bit-reproducible across environments.
//!
//! ```
//! use mersit_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::new(42);
//! let a = Tensor::randn(&[4, 8], 1.0, &mut rng);
//! let b = Tensor::randn(&[8, 2], 1.0, &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[4, 2]);
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
    clippy::missing_panics_doc,
    clippy::unusual_byte_groupings,
    clippy::too_many_lines,
    clippy::cast_lossless,
    clippy::needless_range_loop,
    clippy::similar_names
)]

pub mod gemm;
pub mod ops;
pub mod par;
pub mod pool;
pub mod qgemm;
pub mod rng;
pub mod simd;
pub mod tensor;

pub use gemm::PackedRhs;
pub use ops::{
    add_channel_bias, col2im, conv2d, cross_entropy, dims4, dwconv2d, dwconv2d_backward,
    global_avg_pool, global_avg_pool_backward, im2col, maxpool2d, maxpool2d_backward, nchw_to_rows,
    rows_to_nchw, softmax_rows, ConvSpec,
};
pub use par::{par_chunks_mut, par_chunks_mut_with, pool_size};
pub use qgemm::PackedCodeRhs;
pub use rng::Rng;
pub use tensor::Tensor;
