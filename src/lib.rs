//! # fineq
//!
//! Reproduction of *"FineQ: Software-Hardware Co-Design for Low-Bit
//! Fine-Grained Mixed-Precision Quantization of LLMs"* (DATE 2025).
//!
//! This facade crate re-exports the workspace and provides the
//! [`pipeline`] glue that the experiments and examples build on: collect
//! calibration activations from a model, quantize every linear layer with
//! any [`WeightQuantizer`](fineq_quant::WeightQuantizer), and measure
//! perplexity before/after.
//!
//! ## Crate map
//!
//! * [`tensor`] — matrices, SPD solvers, deterministic RNG, statistics.
//! * [`lm`] — transformer substrate, synthetic corpora, perplexity.
//! * [`quant`] — quantization grids and the five baselines of Table I.
//! * [`core`] — the FineQ algorithm and its 2.33-bit packed format.
//! * [`accel`] — the temporal-coding accelerator model and its baseline.
//!
//! ## Quickstart
//!
//! ```
//! use fineq::core::FineQuantizer;
//! use fineq::quant::{Calibration, WeightQuantizer};
//! use fineq::tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from(1);
//! let w = Matrix::from_fn(8, 48, |_, _| rng.laplace(0.0, 0.02));
//! let out = FineQuantizer::paper().quantize(&w, &Calibration::none());
//! println!("{} bits/weight", out.avg_bits);
//! # assert!(out.avg_bits < 3.5);
//! ```

pub use fineq_accel as accel;
pub use fineq_core as core;
pub use fineq_lm as lm;
pub use fineq_quant as quant;
pub use fineq_tensor as tensor;

pub mod pipeline;

pub use pipeline::{
    collect_calibration, quantize_model, quantize_model_packed, serve_distributed,
    serve_packed_with_threads, ModelCalibration, PipelineConfig, QuantizeReport,
};
