//! # fineq-quant
//!
//! Weight-quantization substrate for the FineQ reproduction: shared
//! quantization grids, the [`WeightQuantizer`] trait, error metrics, and
//! faithful re-implementations of the five baselines the paper compares
//! against (Table I):
//!
//! | Method | Module | Grid | Avg. bits (paper) |
//! |---|---|---|---|
//! | Uniform | [`uniform`] | per-tensor symmetric | 2 |
//! | RTN | [`rtn`] | per-row asymmetric | 2 |
//! | GPTQ | [`gptq`] | per-row asymmetric + Hessian error propagation | 2 |
//! | PB-LLM | [`pbllm`] | 10 % salient fp16 + binarized residual | 2.7 |
//! | OWQ | [`owq`] | fp16 outlier columns + 2-bit g=128 groups | 2.25 |
//!
//! The FineQ algorithm itself lives in the `fineq-core` crate and implements
//! the same [`WeightQuantizer`] trait, so every experiment can sweep methods
//! uniformly.
//!
//! ## Example
//!
//! ```
//! use fineq_quant::{Calibration, Rtn, WeightQuantizer};
//! use fineq_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from(1);
//! let w = Matrix::from_fn(8, 16, |_, _| rng.normal(0.0, 0.02));
//! let out = Rtn::new(4).quantize(&w, &Calibration::none());
//! assert!(out.dequantized.sub(&w).abs_max() < 0.01);
//! ```

pub mod calibration;
pub mod gptq;
pub mod grid;
pub mod metrics;
pub mod owq;
pub mod pbllm;
pub mod rtn;
pub mod uniform;

pub use calibration::Calibration;
pub use gptq::Gptq;
pub use grid::{AsymmetricGrid, SymmetricGrid};
pub use metrics::QuantMetrics;
pub use owq::Owq;
pub use pbllm::PbLlm;
pub use rtn::Rtn;
pub use uniform::Uniform;

use fineq_tensor::Matrix;

/// Result of quantizing one weight matrix.
#[derive(Debug, Clone)]
pub struct QuantResult {
    /// The dequantized (reconstructed) weights, same shape as the input.
    pub dequantized: Matrix,
    /// Effective storage cost in bits per weight, including per-group scale
    /// and index overheads as accounted by each method.
    pub avg_bits: f64,
}

/// A post-training weight-only quantization method.
///
/// Weight layout convention across the workspace: **rows are output
/// channels** (one output feature per row), matching the paper's Fig. 4
/// where scales are computed per row ("per-channel") and clusters run along
/// the row.
pub trait WeightQuantizer {
    /// Short human-readable method name, used in experiment tables.
    fn name(&self) -> String;

    /// Quantizes `w`, optionally using calibration activations, and returns
    /// the reconstructed weights plus the storage cost.
    fn quantize(&self, w: &Matrix, calib: &Calibration) -> QuantResult;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fineq_tensor::Rng;

    /// All baselines must keep the matrix shape and produce finite output.
    #[test]
    fn every_baseline_preserves_shape_and_finiteness() {
        let mut rng = Rng::seed_from(7);
        let w = Matrix::from_fn(12, 24, |_, _| rng.laplace(0.0, 0.01));
        let x = Matrix::from_fn(32, 24, |_, _| rng.normal(0.0, 1.0));
        let calib = Calibration::from_activations(x);
        let methods: Vec<Box<dyn WeightQuantizer>> = vec![
            Box::new(Uniform::new(2)),
            Box::new(Rtn::new(2)),
            Box::new(Gptq::new(2)),
            Box::new(PbLlm::new(0.10)),
            Box::new(Owq::new(2, 128, 0.01)),
        ];
        for m in methods {
            let out = m.quantize(&w, &calib);
            assert_eq!((out.dequantized.rows(), out.dequantized.cols()), (12, 24), "{}", m.name());
            assert!(
                out.dequantized.as_slice().iter().all(|v| v.is_finite()),
                "{} produced non-finite values",
                m.name()
            );
            assert!(out.avg_bits > 0.0 && out.avg_bits <= 17.0, "{}", m.name());
        }
    }
}
