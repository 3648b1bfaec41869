//! Dense `f32` tensor substrate for the ReMIX reproduction.
//!
//! The paper's reference implementation relies on NumPy/TensorFlow tensors.
//! This crate provides the minimal-but-complete dense tensor machinery that the
//! rest of the workspace (the neural-network stack in `remix-nn`, the XAI
//! techniques in `remix-xai`, the diversity metrics in `remix-diversity`) is
//! built on: row-major `f32` tensors with elementwise arithmetic, matrix
//! multiplication (including a convolution GEMM that packs its panels
//! straight from lane-major image batches and folds its input gradients
//! back onto them), axis reductions, and the `im2row` /
//! `row2im` patch unfolds and folds around it.
//!
//! # Example
//!
//! ```
//! use remix_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), remix_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

mod conv;
mod error;
mod linalg;
mod ops;
mod random;
mod reduce;
mod simd;
mod tensor;

pub use conv::{im2col, im2row, im2row_batch_into, row2im, row2im_batch, Conv2dGeometry};
pub use error::TensorError;
pub use linalg::{gemm_accum_ab, PackedOperand, PackedRole};
pub use random::{fnv1a64, splitmix64};
pub use simd::{simd_level, SimdLevel};
pub use tensor::Tensor;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
