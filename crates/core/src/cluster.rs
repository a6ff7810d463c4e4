//! Fine-grained clustering of weight channels (Algorithm 1, steps 3–14).
//!
//! A [`Cluster`] holds three consecutive weights of one channel. The
//! outlier rule compares the largest and smallest *absolute* values inside
//! the cluster: if `max > threshold * min` (threshold 4 in the paper) the
//! cluster is treated as containing outliers and the smallest value is
//! sacrificed so the two informative values can use 3 bits.

use crate::encoding::ClusterCode;
use fineq_quant::SymmetricGrid;

/// Three consecutive weights of one channel.
///
/// Channels whose length is not a multiple of three are padded with zeros;
/// the padding is tracked by the channel container ([`split_channel`]
/// returns the logical length separately) and stripped on decode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cluster {
    values: [f32; 3],
}

impl Cluster {
    /// Wraps three weights.
    pub fn new(values: [f32; 3]) -> Self {
        Self { values }
    }

    /// The raw values.
    pub fn values(&self) -> [f32; 3] {
        self.values
    }

    /// Largest absolute value.
    pub fn abs_max(&self) -> f32 {
        self.values.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Smallest absolute value.
    pub fn abs_min(&self) -> f32 {
        self.values.iter().fold(f32::INFINITY, |m, v| m.min(v.abs()))
    }

    /// The paper's outlier test: `max(|w|) > threshold * min(|w|)`.
    ///
    /// An all-zero cluster is never an outlier cluster. A cluster with a
    /// zero minimum and a non-zero maximum always is (the ratio is
    /// unbounded), which matches the intent: the zero value carries no
    /// information and can be sacrificed for free.
    pub fn is_outlier(&self, threshold: f32) -> bool {
        self.abs_max() > threshold * self.abs_min()
    }

    /// Position (0..3) of the smallest absolute value — the value the
    /// outlier-protection mechanism sacrifices. Ties resolve to the first
    /// (lowest index), making quantization deterministic.
    pub fn weakest_position(&self) -> usize {
        let mut pos = 0;
        let mut best = self.values[0].abs();
        for (i, v) in self.values.iter().enumerate().skip(1) {
            if v.abs() < best {
                best = v.abs();
                pos = i;
            }
        }
        pos
    }

    /// The preliminary (pre-harmonization) code for this cluster.
    pub fn preliminary_code(&self, threshold: f32) -> ClusterCode {
        if self.is_outlier(threshold) {
            ClusterCode::zeroing(self.weakest_position())
        } else {
            ClusterCode::AllTwoBit
        }
    }

    /// Quantizes the cluster under `code` using the channel grids, returning
    /// the three signed integer codes (the zeroed position yields 0).
    // This, `preliminary_code` and `reconstruction_error` are the per-cluster
    // definitions: the quantizer walks a channel in columns (each value
    // gridded once per grid, every code's error summed per cluster) and is
    // tested bit-equal to these composed by hand.
    pub fn quantize(&self, code: ClusterCode, g2: &SymmetricGrid, g3: &SymmetricGrid) -> [i32; 3] {
        let mut out = [0i32; 3];
        for (pos, &v) in self.values.iter().enumerate() {
            out[pos] = match code.bit_width_at(pos) {
                0 => 0,
                2 => g2.quantize(v),
                3 => g3.quantize(v),
                other => unreachable!("cluster fields are 0/2/3 bits, got {other}"),
            };
        }
        out
    }

    /// Reconstructs real values from integer codes under `code`.
    #[inline]
    pub fn dequantize(
        q: [i32; 3],
        code: ClusterCode,
        g2: &SymmetricGrid,
        g3: &SymmetricGrid,
    ) -> [f32; 3] {
        let mut out = [0.0f32; 3];
        for (pos, item) in out.iter_mut().enumerate() {
            *item = match code.bit_width_at(pos) {
                0 => 0.0,
                2 => g2.dequantize(q[pos]),
                3 => g3.dequantize(q[pos]),
                other => unreachable!("cluster fields are 0/2/3 bits, got {other}"),
            };
        }
        out
    }

    /// Sum of squared reconstruction errors if this cluster is quantized
    /// under `code` — the objective the pair fine-tuning minimizes.
    pub fn reconstruction_error(
        &self,
        code: ClusterCode,
        g2: &SymmetricGrid,
        g3: &SymmetricGrid,
    ) -> f64 {
        let q = self.quantize(code, g2, g3);
        let dq = Self::dequantize(q, code, g2, g3);
        self.values
            .iter()
            .zip(dq.iter())
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum()
    }
}

/// Splits a channel into zero-padded clusters of three, returning the
/// clusters and the logical (unpadded) length.
pub fn split_channel(channel: &[f32]) -> (Vec<Cluster>, usize) {
    let len = channel.len();
    let n_clusters = len.div_ceil(3);
    let mut clusters = Vec::with_capacity(n_clusters);
    for i in 0..n_clusters {
        let mut vals = [0.0f32; 3];
        for (j, item) in vals.iter_mut().enumerate() {
            let idx = i * 3 + j;
            if idx < len {
                *item = channel[idx];
            }
        }
        clusters.push(Cluster::new(vals));
    }
    (clusters, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grids(absmax: f32) -> (SymmetricGrid, SymmetricGrid) {
        (SymmetricGrid::from_abs_max(absmax, 2), SymmetricGrid::from_abs_max(absmax, 3))
    }

    #[test]
    fn outlier_rule_matches_paper_examples() {
        // Fig. 4 row 2 cluster 1: (0.27, 0.03, 0.11): 0.27 > 4*0.03.
        assert!(Cluster::new([0.27, 0.03, 0.11]).is_outlier(4.0));
        // Fig. 4 row 1 cluster 1: (0.10, 0.12, 0.11): 0.12 < 4*0.10.
        assert!(!Cluster::new([0.10, 0.12, 0.11]).is_outlier(4.0));
    }

    #[test]
    fn all_zero_cluster_is_normal() {
        assert!(!Cluster::new([0.0, 0.0, 0.0]).is_outlier(4.0));
    }

    #[test]
    fn zero_min_with_nonzero_max_is_outlier() {
        assert!(Cluster::new([0.0, 0.5, 0.3]).is_outlier(4.0));
    }

    #[test]
    fn negative_values_use_absolute_magnitudes() {
        // |-0.4| vs |0.05|: outlier regardless of sign.
        assert!(Cluster::new([-0.4, 0.05, -0.2]).is_outlier(4.0));
        assert!(!Cluster::new([-0.4, -0.3, 0.35]).is_outlier(4.0));
    }

    #[test]
    fn weakest_position_finds_smallest_abs() {
        assert_eq!(Cluster::new([0.27, 0.03, 0.11]).weakest_position(), 1);
        assert_eq!(Cluster::new([0.19, 0.01, 0.16]).weakest_position(), 1);
        assert_eq!(Cluster::new([0.17, 0.12, 0.01]).weakest_position(), 2);
        // Ties resolve to the first occurrence.
        assert_eq!(Cluster::new([0.1, 0.1, 0.1]).weakest_position(), 0);
    }

    #[test]
    fn preliminary_code_selects_layout() {
        assert_eq!(Cluster::new([0.10, 0.12, 0.11]).preliminary_code(4.0), ClusterCode::AllTwoBit);
        assert_eq!(Cluster::new([0.27, 0.03, 0.11]).preliminary_code(4.0), ClusterCode::ZeroSecond);
    }

    #[test]
    fn quantize_matches_fig4_row2() {
        // Channel absmax = 0.27, s3 = 0.09: (0.27,0.03,0.11) -> (3,0,1).
        let (g2, g3) = grids(0.27);
        let q = Cluster::new([0.27, 0.03, 0.11]).quantize(ClusterCode::ZeroSecond, &g2, &g3);
        assert_eq!(q, [3, 0, 1]);
        let q = Cluster::new([0.19, 0.01, 0.16]).quantize(ClusterCode::ZeroSecond, &g2, &g3);
        assert_eq!(q, [2, 0, 2]);
    }

    #[test]
    fn quantize_matches_fig4_row1() {
        // Channel absmax = 0.13, s2 = 0.13: all-normal row.
        let (g2, g3) = grids(0.13);
        let q = Cluster::new([0.10, 0.12, 0.11]).quantize(ClusterCode::AllTwoBit, &g2, &g3);
        assert_eq!(q, [1, 1, 1]);
        let q = Cluster::new([0.12, 0.13, 0.04]).quantize(ClusterCode::AllTwoBit, &g2, &g3);
        assert_eq!(q, [1, 1, 0]);
    }

    #[test]
    fn dequantize_inverts_quantize_on_grid_points() {
        let (g2, g3) = grids(0.3);
        let c = Cluster::new([0.3, -0.1, 0.2]);
        for code in ClusterCode::ALL {
            let q = c.quantize(code, &g2, &g3);
            let dq = Cluster::dequantize(q, code, &g2, &g3);
            let q2 = Cluster::new(dq).quantize(code, &g2, &g3);
            assert_eq!(q, q2, "{code}");
        }
    }

    #[test]
    fn reconstruction_error_prefers_protecting_outliers() {
        // A strong outlier cluster: 3-bit protection must beat 2-bit.
        let (g2, g3) = grids(0.8);
        let c = Cluster::new([0.8, 0.01, 0.3]);
        let err_protect = c.reconstruction_error(ClusterCode::ZeroSecond, &g2, &g3);
        let err_flat = c.reconstruction_error(ClusterCode::AllTwoBit, &g2, &g3);
        assert!(err_protect < err_flat);
    }

    #[test]
    fn split_channel_pads_tail_with_zeros() {
        let (clusters, len) = split_channel(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(len, 4);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].values(), [1.0, 2.0, 3.0]);
        assert_eq!(clusters[1].values(), [4.0, 0.0, 0.0]);
    }

    #[test]
    fn split_channel_exact_multiple_has_no_padding() {
        let (clusters, len) = split_channel(&[1.0; 6]);
        assert_eq!((clusters.len(), len), (2, 6));
    }

    #[test]
    fn split_empty_channel() {
        let (clusters, len) = split_channel(&[]);
        assert!(clusters.is_empty());
        assert_eq!(len, 0);
    }
}
