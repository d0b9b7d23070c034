//! Dense linear algebra and fixed-point quantisation kernels.
//!
//! This crate is the numerical substrate of the FARe reproduction. It
//! provides:
//!
//! - [`Matrix`]: a row-major dense `f32` matrix with the handful of
//!   operations GNN training needs (matmul, transpose, elementwise maps,
//!   reductions, softmax).
//! - [`fixed::Fixed16`]: the 16-bit fixed-point weight representation used
//!   by ReRAM-based PIM accelerators, together with the 2-bit-per-cell
//!   slicing that determines how stuck-at faults corrupt a stored weight.
//! - [`init`]: weight initialisers (Xavier/Glorot, He, uniform).
//! - [`kernel`]: the register-accumulator row kernels (one row, or two
//!   rows sharing their term rows) every dense and sparse product runs
//!   on.
//!
//! # Example
//!
//! ```
//! use fare_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod fixed;
pub mod init;
pub mod kernel;
mod matrix;
pub mod ops;

pub use error::ShapeError;
pub use fixed::{CellMasks, CellWord, Fixed16, FixedFormat};
pub use matrix::Matrix;
