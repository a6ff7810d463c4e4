//! Per-tensor symmetric uniform quantization ("Uniform" baseline, \[14\] in
//! the paper).
//!
//! One symmetric grid is fit to the whole tensor. With outlier-heavy LLM
//! weights the single scale is dominated by the largest outlier, so at 2
//! bits nearly every normal weight collapses to zero — which is why this
//! baseline is the worst entry of Table I.

use crate::{Calibration, QuantResult, SymmetricGrid, WeightQuantizer};
use fineq_tensor::Matrix;

/// Symmetric uniform quantizer: per-tensor (the Table I baseline) or
/// per-channel (the grid behind the paper's Fig. 3b bit-width
/// observation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uniform {
    bits: u8,
    per_channel: bool,
}

impl Uniform {
    /// Per-tensor symmetric quantizer (one grid for the whole matrix) —
    /// the Table I "Uniform" baseline.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16` (checked again at grid build time).
    pub fn new(bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16");
        Self { bits, per_channel: false }
    }

    /// Per-channel (per-row) symmetric quantizer: one Eq. 1 grid per
    /// output channel, as in the paper's Fig. 3b sweep.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16`.
    pub fn per_channel(bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16");
        Self { bits, per_channel: true }
    }

    /// Bit-width of the grid.
    pub fn bits(&self) -> u8 {
        self.bits
    }
}

impl WeightQuantizer for Uniform {
    fn name(&self) -> String {
        if self.per_channel {
            format!("Uniform/ch-{}b", self.bits)
        } else {
            format!("Uniform-{}b", self.bits)
        }
    }

    fn quantize(&self, w: &Matrix, _calib: &Calibration) -> QuantResult {
        if self.per_channel {
            let mut dq = Matrix::zeros(w.rows(), w.cols());
            for r in 0..w.rows() {
                let absmax = w.row(r).iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let grid = SymmetricGrid::from_abs_max(absmax, self.bits);
                for (out, &x) in dq.row_mut(r).iter_mut().zip(w.row(r)) {
                    *out = grid.roundtrip(x);
                }
            }
            let avg_bits = self.bits as f64 + 16.0 / w.cols().max(1) as f64;
            return QuantResult { dequantized: dq, avg_bits };
        }
        let grid = SymmetricGrid::from_abs_max(w.abs_max(), self.bits);
        let dequantized = w.map(|x| grid.roundtrip(x));
        // One fp16 scale for the whole tensor: negligible, but accounted.
        let avg_bits = self.bits as f64 + 16.0 / w.len().max(1) as f64;
        QuantResult { dequantized, avg_bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_mentions_bits() {
        assert_eq!(Uniform::new(2).name(), "Uniform-2b");
    }

    #[test]
    fn two_bit_collapses_normals_when_outlier_present() {
        // One 1.0 outlier forces s = 1.0; all 0.01-scale weights -> 0.
        let mut rows = vec![vec![0.01f32; 15]];
        rows[0].push(1.0);
        let w = Matrix::from_rows(&rows);
        let out = Uniform::new(2).quantize(&w, &Calibration::none());
        let dq = out.dequantized;
        assert_eq!(dq[(0, 15)], 1.0, "outlier survives");
        for c in 0..15 {
            assert_eq!(dq[(0, c)], 0.0, "normal value collapses to zero");
        }
    }

    #[test]
    fn high_bits_reconstruct_accurately() {
        let w = Matrix::from_fn(8, 8, |r, c| ((r * 8 + c) as f32 - 32.0) / 32.0);
        let out = Uniform::new(12).quantize(&w, &Calibration::none());
        assert!(out.dequantized.sub(&w).abs_max() < 1e-3);
    }

    #[test]
    fn avg_bits_close_to_nominal() {
        let w = Matrix::zeros(64, 64);
        let out = Uniform::new(2).quantize(&w, &Calibration::none());
        assert!((out.avg_bits - 2.0).abs() < 0.01);
    }

    #[test]
    fn all_zero_matrix_stays_zero() {
        let w = Matrix::zeros(4, 4);
        let out = Uniform::new(2).quantize(&w, &Calibration::none());
        assert_eq!(out.dequantized, w);
    }

    #[test]
    fn per_channel_isolates_rows_from_foreign_outliers() {
        // Row 1 is clean; an outlier in row 0 must not affect it.
        let w = Matrix::from_rows(&[vec![0.01, 5.0, 0.02], vec![0.01, 0.02, -0.02]]);
        let tensor = Uniform::new(2).quantize(&w, &Calibration::none());
        let channel = Uniform::per_channel(2).quantize(&w, &Calibration::none());
        // Per-tensor: row 1 collapses to zero.
        assert!(tensor.dequantized.row(1).iter().all(|&v| v == 0.0));
        // Per-channel: row 1 keeps its own grid and survives.
        assert!(channel.dequantized.row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn per_channel_name_differs() {
        assert_eq!(Uniform::per_channel(3).name(), "Uniform/ch-3b");
    }
}
