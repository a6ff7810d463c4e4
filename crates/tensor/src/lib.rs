//! # fineq-tensor
//!
//! Dense linear-algebra, deterministic random-number generation and summary
//! statistics used throughout the FineQ reproduction.
//!
//! The crate is intentionally dependency-free so that every experiment in the
//! workspace is reproducible bit-for-bit: the RNG is a seeded
//! [xoshiro256**](rng::Rng), matrices are plain row-major `Vec<f32>` buffers,
//! and all solvers (Cholesky, SPD solve) are implemented here.
//!
//! ## Example
//!
//! ```
//! use fineq_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from(42);
//! let a = Matrix::from_fn(4, 3, |_, _| rng.normal(0.0, 1.0));
//! let b = Matrix::from_fn(3, 2, |_, _| rng.normal(0.0, 1.0));
//! let c = a.matmul(&b);
//! assert_eq!((c.rows(), c.cols()), (4, 2));
//! ```

pub mod activation;
pub mod linalg;
pub mod matrix;
pub mod panel;
pub mod rng;
pub mod stats;

pub use activation::softmax_in_place;
pub use linalg::{cholesky, cholesky_inverse, solve_spd};
pub use matrix::Matrix;
pub use rng::{Rng, Zipf};
pub use stats::{Histogram, Summary};
