//! GPTQ (Frantar et al., 2022): one-shot weight quantization using
//! approximate second-order information.
//!
//! For each linear layer with inputs `X`, GPTQ quantizes weights column by
//! column on a per-row asymmetric grid and redistributes the induced error
//! over the not-yet-quantized columns using the Cholesky factor of the
//! inverse Hessian `H⁻¹`, `H = 2XᵀX + λI`. This mirrors the reference
//! implementation (Cholesky formulation, percent damping), minus the lazy
//! block batching, which is a throughput optimization only.
//!
//! Without calibration data the Hessian is the identity and the update term
//! vanishes, so GPTQ degenerates to [`Rtn`](crate::Rtn) — a property the
//! tests pin down.

use crate::{AsymmetricGrid, Calibration, QuantResult, WeightQuantizer};
use fineq_tensor::{cholesky, cholesky_inverse, Matrix};

/// The reference implementation's percent damping: `λ` is 1 % of the
/// Hessian's mean diagonal.
const DAMP_FRAC: f64 = 0.01;

/// GPTQ quantizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gptq {
    bits: u8,
}

impl Gptq {
    /// Creates a GPTQ quantizer with the reference damping of 1 %.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16`.
    pub fn new(bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16");
        Self { bits }
    }

    /// Bit-width of the grid.
    pub fn bits(&self) -> u8 {
        self.bits
    }
}

impl WeightQuantizer for Gptq {
    fn name(&self) -> String {
        format!("GPTQ-{}b", self.bits)
    }

    fn quantize(&self, w: &Matrix, calib: &Calibration) -> QuantResult {
        let (rows, cols) = (w.rows(), w.cols());
        let h = calib.hessian(cols, DAMP_FRAC);
        // Reference formulation: U = upper Cholesky factor of H⁻¹, i.e.
        // H⁻¹ = UᵀU with U = Lᵀ where L is our lower factor.
        let hinv = cholesky_inverse(&h).expect("damped Hessian is SPD");
        let l = cholesky(&hinv).expect("H⁻¹ of an SPD matrix is SPD");

        // Per-row grids are fit on the *original* weights, as in the
        // reference implementation.
        let grids: Vec<AsymmetricGrid> =
            (0..rows).map(|r| AsymmetricGrid::from_slice(w.row(r), self.bits)).collect();

        let mut work = w.clone();
        let mut dq = Matrix::zeros(rows, cols);
        for j in 0..cols {
            let d = l.l(j, j) as f32;
            // Precompute the propagation row U[j, j+1..] = L[k][j].
            for r in 0..rows {
                let x = work[(r, j)];
                let q = grids[r].roundtrip(x);
                dq[(r, j)] = q;
                if d == 0.0 {
                    continue;
                }
                let err = (x - q) / d;
                for k in (j + 1)..cols {
                    let u = l.l(k, j) as f32;
                    if u != 0.0 {
                        work[(r, k)] -= err * u;
                    }
                }
            }
        }
        let per_row_overhead = 32.0 / cols.max(1) as f64;
        QuantResult { dequantized: dq, avg_bits: self.bits as f64 + per_row_overhead }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rtn;
    use fineq_tensor::Rng;

    fn random_weights(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.laplace(0.0, 0.02))
    }

    fn random_activations(n: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        // Correlated features: shared low-rank factor + noise, which is
        // where GPTQ's error propagation pays off.
        let factors = Matrix::from_fn(4, cols, |_, _| rng.normal(0.0, 1.0));
        Matrix::from_fn(n, cols, |_, c| {
            let mut v = rng.normal(0.0, 0.3);
            for f in 0..4 {
                v += rng.normal(0.0, 0.1) + factors[(f, c)] * 0.4;
            }
            v
        })
    }

    #[test]
    fn without_calibration_gptq_equals_rtn() {
        let w = random_weights(6, 18, 1);
        let g = Gptq::new(3).quantize(&w, &Calibration::none());
        let r = Rtn::new(3).quantize(&w, &Calibration::none());
        assert_eq!(g.dequantized, r.dequantized);
    }

    #[test]
    fn calibrated_gptq_beats_rtn_on_layer_output_error() {
        let w = random_weights(16, 32, 2);
        let x = random_activations(256, 32, 3);
        let calib = Calibration::from_activations(x.clone());
        let g = Gptq::new(2).quantize(&w, &calib);
        let r = Rtn::new(2).quantize(&w, &Calibration::none());
        let y = x.matmul_transpose(&w);
        let err_g = x.matmul_transpose(&g.dequantized).sub(&y).frobenius_norm();
        let err_r = x.matmul_transpose(&r.dequantized).sub(&y).frobenius_norm();
        assert!(err_g < err_r, "GPTQ output error {err_g} should beat RTN {err_r}");
    }

    #[test]
    fn output_is_on_grid_points() {
        let w = random_weights(4, 12, 5);
        let x = random_activations(64, 12, 6);
        let out = Gptq::new(2).quantize(&w, &Calibration::from_activations(x));
        for r in 0..4 {
            let grid = AsymmetricGrid::from_slice(w.row(r), 2);
            for &v in out.dequantized.row(r) {
                assert!((grid.roundtrip(v) - v).abs() < 1e-5, "value {v} is not a grid point");
            }
        }
    }

    #[test]
    fn high_precision_gptq_is_nearly_exact() {
        let w = random_weights(8, 16, 7);
        let x = random_activations(64, 16, 8);
        let out = Gptq::new(12).quantize(&w, &Calibration::from_activations(x));
        assert!(out.dequantized.sub(&w).abs_max() < 2e-3);
    }

    #[test]
    fn single_column_layer_works() {
        let w = random_weights(5, 1, 9);
        let x = random_activations(16, 1, 10);
        let out = Gptq::new(2).quantize(&w, &Calibration::from_activations(x));
        assert_eq!(out.dequantized.cols(), 1);
    }
}
