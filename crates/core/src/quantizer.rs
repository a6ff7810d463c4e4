//! The [`FineQuantizer`]: Algorithm 1 of the paper, end to end.
//!
//! A channel is quantized in columns, not one cluster at a time. Its values
//! are laid out by cluster position and pair half, gridded in one
//! vectorized pass per grid ([`SymmetricGrid::quantize_into`]), and every
//! later step — each code's squared error per cluster, the preliminary
//! codes, the pair fine-tuning, the stored data bits — is one pass over
//! whole columns, written with selects rather than branches on the data.
//! The packed path, [`FineQuantizer::stats`] and the no-pair-constraint
//! ablation share that walk. The per-cluster definitions in
//! [`crate::cluster`] stay the reference: the tests compose them by hand
//! and compare the bytes.

use crate::cluster::Cluster;
use crate::encoding::ClusterCode;
use crate::pack::{channel_stride, pack_cluster, write_channel, PackedMatrix};
use crate::stats::ClusterStats;
use fineq_quant::{Calibration, QuantResult, SymmetricGrid, WeightQuantizer};
use fineq_tensor::Matrix;

/// Configuration of the FineQ algorithm.
///
/// The defaults are the paper's settings; the other knobs exist for the
/// ablation sweeps of `fineq-paper ablations`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FineQConfig {
    /// Outlier rule: a cluster is an outlier cluster when
    /// `max|w| > outlier_threshold * min|w|`. Paper: 4.
    pub outlier_threshold: f32,
    /// Enforce one shared code per adjacent cluster pair (paper: on).
    /// Disabling stores one code per cluster (2 index bits per cluster
    /// instead of 1) — the ablation for the paper's compression strategy.
    pub pair_constraint: bool,
    /// Bits for values of normal clusters. Paper: 2.
    pub normal_bits: u8,
    /// Bits for protected values of outlier clusters. Paper: 3.
    pub outlier_bits: u8,
}

impl FineQConfig {
    /// The paper's configuration: threshold 4, pair constraint on, 2-bit
    /// normals, 3-bit outliers.
    pub fn paper() -> Self {
        Self { outlier_threshold: 4.0, pair_constraint: true, normal_bits: 2, outlier_bits: 3 }
    }

    /// Whether this configuration matches the bit-exact packed format
    /// (2-bit normals, 3-bit outliers, shared pair codes).
    pub fn is_packable(&self) -> bool {
        self.normal_bits == 2 && self.outlier_bits == 3 && self.pair_constraint
    }

    /// Analytic storage cost in data+index bits per weight.
    ///
    /// With the paper settings this is `(6 + 1) / 3 = 2.33`; without the
    /// pair constraint the index doubles to 2 bits per cluster (2.67).
    pub fn nominal_bits(&self) -> f64 {
        let data = (3.0 * self.normal_bits as f64).max(2.0 * self.outlier_bits as f64);
        let index = if self.pair_constraint { 1.0 } else { 2.0 };
        (data + index) / 3.0
    }
}

impl Default for FineQConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One channel laid out in columns, the buffers Algorithm 1 runs in.
///
/// Cluster `k` sits in *slot* `(k % 2) * pairs + k / 2`: the first
/// clusters of the pairs fill the first half of every per-slot column, the
/// second clusters the second half, so pair `j` reads slots `j` and
/// `pairs + j`. Position `p` of the cluster in slot `s` is entry
/// `p * 2 * pairs + s` of every per-value column, so each step of the
/// algorithm is one pass over contiguous columns. A channel whose cluster
/// count is odd leaves the last slot as zero padding. The buffers are
/// reused across a matrix's rows, and a channel is packed straight into its
/// row of the matrix body, so a matrix allocates nothing per row.
#[derive(Debug, Default)]
struct Columns {
    pairs: usize,
    n_clusters: usize,
    /// The channel's values, zero-padded to whole pairs.
    xs: Vec<f32>,
    /// Each value's int on the normal (2-bit) and outlier (3-bit) grid.
    q2: Vec<i32>,
    q3: Vec<i32>,
    /// [`Cluster::reconstruction_error`] of each slot's cluster under each
    /// code, one column per code in wire order.
    err: [Vec<f64>; 4],
    /// Each slot's final 2-bit code (duplicated across a pair when the
    /// constraint is active).
    codes: Vec<u8>,
    /// Each slot's stored data bits under its code.
    six: Vec<u8>,
}

impl Columns {
    /// Lays `channel` out in slots, grids it on `g2` and `g3` and fills the
    /// error columns; the codes are left to the caller.
    fn grid(&mut self, channel: &[f32], g2: &SymmetricGrid, g3: &SymmetricGrid) {
        self.n_clusters = channel.len().div_ceil(3);
        self.pairs = self.n_clusters.div_ceil(2);
        let slots = 2 * self.pairs;
        self.xs.clear();
        self.xs.resize(3 * slots, 0.0);
        self.codes.clear();
        self.codes.resize(slots, 0);
        if slots > 0 {
            // Lane `3h + p` of pair `j` (position `p` of its cluster `h`)
            // goes to slot `h * pairs + j` of position column `p`, which is
            // column chunk `2p + h`.
            let mut chunks = self.xs.chunks_exact_mut(self.pairs);
            let col: [&mut [f32]; 6] = std::array::from_fn(|_| chunks.next().unwrap());
            let pairs = channel.chunks_exact(6);
            let (tail, last) = (pairs.remainder(), self.pairs - 1);
            for (j, pair) in pairs.enumerate() {
                for (l, &x) in pair.iter().enumerate() {
                    col[2 * (l % 3) + l / 3][j] = x;
                }
            }
            for (l, &x) in tail.iter().enumerate() {
                col[2 * (l % 3) + l / 3][last] = x;
            }
        }
        for col in [&mut self.q2, &mut self.q3] {
            col.resize(3 * slots, 0);
        }
        g2.quantize_into(&self.xs, &mut self.q2);
        g3.quantize_into(&self.xs, &mut self.q3);

        let xs = positions(&self.xs, slots);
        let [q2, q3] = [&self.q2, &self.q3].map(|c| positions(c, slots));
        for col in &mut self.err {
            col.resize(slots, 0.0);
        }
        let [err0, err1, err2, err3] = self.err.each_mut().map(|c| &mut c[..slots]);
        let (s2, s3) = (g2.scale(), g3.scale());
        for s in 0..slots {
            // The terms `reconstruction_error` sums: position `p` kept on
            // the normal grid, kept on the outlier grid, or sacrificed.
            let sq = |x: f32, r: f32| {
                let d = (x - r) as f64;
                d * d
            };
            let e2: [f64; 3] = std::array::from_fn(|p| sq(xs[p][s], q2[p][s] as f32 * s2));
            let e3: [f64; 3] = std::array::from_fn(|p| sq(xs[p][s], q3[p][s] as f32 * s3));
            let e0: [f64; 3] = std::array::from_fn(|p| sq(xs[p][s], 0.0));
            // Added in position order, like that fold, so every sum is
            // bit-equal to `reconstruction_error`'s.
            err0[s] = e2[0] + e2[1] + e2[2];
            err1[s] = e0[0] + e3[1] + e3[2];
            err2[s] = e3[0] + e0[1] + e3[2];
            err3[s] = e3[0] + e3[1] + e0[2];
        }
    }

    /// The per-value column index of position `p` of cluster `k`.
    fn at(&self, k: usize, p: usize) -> usize {
        p * 2 * self.pairs + self.slot(k)
    }

    fn slot(&self, k: usize) -> usize {
        (k % 2) * self.pairs + k / 2
    }

    /// The final codes of the real clusters (in slot order).
    fn codes(&self) -> &[u8] {
        &self.codes[..self.n_clusters]
    }

    /// [`Cluster::preliminary_code`] of every slot's cluster (Alg. 1
    /// lines 5–14), in place of the codes.
    fn preliminary_codes(&mut self, threshold: f32) {
        let slots = self.codes.len();
        let [x0, x1, x2] = positions(&self.xs, slots);
        for (s, code) in self.codes.iter_mut().enumerate() {
            let [a0, a1, a2] = [x0[s], x1[s], x2[s]].map(f32::abs);
            // The folds of `abs_max` and `abs_min`, in the same order.
            let max = 0.0f32.max(a0).max(a1).max(a2);
            let min = f32::INFINITY.min(a0).min(a1).min(a2);
            // `weakest_position`: the first strictly smaller magnitude.
            let first = a1 < a0;
            let weakest01 = if first { a1 } else { a0 };
            let weakest = if a2 < weakest01 { 2 } else { u8::from(first) };
            *code = if max > threshold * min { weakest + 1 } else { 0 };
        }
    }

    /// Pair harmonization (Alg. 1 lines 15–25) over the preliminary codes:
    /// a pair keeps the code both its clusters chose, and a disagreeing
    /// pair is fine-tuned to the code with the least total squared
    /// reconstruction error. A trailing lone cluster keeps its preliminary
    /// code.
    fn harmonize_pairs(&mut self) {
        let pairs = self.pairs;
        let (first, second) = self.codes.split_at_mut(pairs);
        let lone = (self.n_clusters % 2 == 1).then(|| first[pairs - 1]);
        let [e0, e1, e2, e3] = &self.err;
        for j in 0..pairs {
            let at = |col: &[f64]| col[j] + col[pairs + j];
            let tuned = least_error_code([at(e0), at(e1), at(e2), at(e3)]);
            let code = if first[j] == second[j] { first[j] } else { tuned };
            first[j] = code;
            second[j] = code;
        }
        if let Some(code) = lone {
            first[pairs - 1] = code;
        }
    }

    /// Every cluster's own least-error code: the no-pair-constraint
    /// ablation, the best any per-cluster scheme can do.
    fn least_error_codes(&mut self) {
        let [e0, e1, e2, e3] = &self.err;
        for (s, code) in self.codes.iter_mut().enumerate() {
            *code = least_error_code([e0[s], e1[s], e2[s], e3[s]]);
        }
    }

    /// [`Cluster::quantize`] of cluster `k` under `code`.
    fn ints(&self, k: usize, code: ClusterCode) -> [i32; 3] {
        let col = if code.is_outlier() { &self.q3 } else { &self.q2 };
        let mut q: [i32; 3] = std::array::from_fn(|p| col[self.at(k, p)]);
        if let Some(z) = code.zeroed_position() {
            q[z] = 0;
        }
        q
    }

    /// Packs the planned channel into `row` of a body: each slot's stored
    /// data bits are encoded in one pass over the int columns, then laid
    /// into the block words.
    fn pack(&mut self, g2: &SymmetricGrid, g3: &SymmetricGrid, len: usize, row: &mut [u8]) {
        let slots = self.codes.len();
        let [q2, q3] = [&self.q2, &self.q3].map(|c| positions(c, slots));
        let codes = &self.codes[..slots];
        self.six.resize(slots, 0);
        let six = &mut self.six[..slots];
        for s in 0..slots {
            let at = |col: [&[i32]; 3]| [col[0][s], col[1][s], col[2][s]];
            six[s] = pack_cluster(at(q2), at(q3), codes[s]);
        }
        // Slot `p` holds the first cluster of pair `p`, so its code.
        let this = &*self;
        write_channel(
            row,
            g2.scale(),
            g3.scale(),
            len,
            |p| this.codes[p],
            |k| this.six[this.slot(k)],
        );
    }

    /// The planned channel's real-valued reconstruction (padding
    /// stripped), straight from the ints and grids. Only configurations
    /// the packed format cannot hold read it; packable ones dequantize the
    /// packed bytes.
    fn dequantized(&self, g2: &SymmetricGrid, g3: &SymmetricGrid, len: usize) -> Vec<f32> {
        (0..self.n_clusters)
            .flat_map(|k| {
                let code = ClusterCode::from_bits(self.codes[self.slot(k)]);
                Cluster::dequantize(self.ints(k, code), code, g2, g3)
            })
            .take(len)
            .collect()
    }
}

/// A per-value column split into its three position columns of `slots`
/// entries each.
fn positions<T>(col: &[T], slots: usize) -> [&[T]; 3] {
    [&col[..slots], &col[slots..][..slots], &col[2 * slots..][..slots]]
}

/// The wire value of the code with the least error: a pair's summed errors
/// for the paper's fine-tuning, one cluster's for the no-pair-constraint
/// ablation. Ties resolve to the lowest wire value and a NaN error never
/// wins.
#[inline]
fn least_error_code(err: [f64; 4]) -> u8 {
    let mut best = 0;
    let mut best_err = f64::INFINITY;
    for (code, e) in (0..).zip(err) {
        let wins = e < best_err;
        best = if wins { code } else { best };
        best_err = if wins { e } else { best_err };
    }
    best
}

/// FineQ quantizer (Algorithm 1 of the paper).
///
/// See the crate-level docs for the pipeline description and an example.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FineQuantizer {
    config: FineQConfig,
}

impl FineQuantizer {
    /// Quantizer with the paper's configuration.
    pub fn paper() -> Self {
        Self { config: FineQConfig::paper() }
    }

    /// Quantizer with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if bit-widths are outside `2..=8` or the threshold is not
    /// positive.
    pub fn with_config(config: FineQConfig) -> Self {
        assert!((2..=8).contains(&config.normal_bits), "normal bits must be 2..=8");
        assert!((2..=8).contains(&config.outlier_bits), "outlier bits must be 2..=8");
        assert!(config.outlier_threshold > 0.0, "threshold must be positive");
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &FineQConfig {
        &self.config
    }

    fn grids(&self, abs_max: f32) -> (SymmetricGrid, SymmetricGrid) {
        (
            SymmetricGrid::from_abs_max(abs_max, self.config.normal_bits),
            SymmetricGrid::from_abs_max(abs_max, self.config.outlier_bits),
        )
    }

    /// Runs Algorithm 1 on one channel into `cols`, leaving every
    /// cluster's final code in its code column; returns the channel's
    /// grids.
    fn plan_channel(&self, channel: &[f32], cols: &mut Columns) -> (SymmetricGrid, SymmetricGrid) {
        let abs_max = channel.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let (g2, g3) = self.grids(abs_max);
        cols.grid(channel, &g2, &g3);
        if self.config.pair_constraint {
            cols.preliminary_codes(self.config.outlier_threshold);
            cols.harmonize_pairs();
        } else {
            cols.least_error_codes();
        }
        (g2, g3)
    }

    /// Quantizes a matrix into the bit-exact packed format.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not packable (see
    /// [`FineQConfig::is_packable`]); non-paper ablation configurations
    /// must use [`WeightQuantizer::quantize`] instead.
    pub fn quantize_packed(&self, w: &Matrix) -> PackedMatrix {
        assert!(
            self.config.is_packable(),
            "packed format requires the paper configuration (2/3-bit, pair constraint)"
        );
        let mut cols = Columns::default();
        let stride = channel_stride(w.cols());
        let mut body = vec![0; w.rows() * stride];
        for (r, row) in body.chunks_exact_mut(stride).enumerate() {
            let (g2, g3) = self.plan_channel(w.row(r), &mut cols);
            cols.pack(&g2, &g3, w.cols(), row);
        }
        PackedMatrix::from_body(w.rows(), w.cols(), body)
    }

    /// Computes per-cluster statistics (encoding histogram, outlier
    /// fraction) without packing.
    pub fn stats(&self, w: &Matrix) -> ClusterStats {
        let mut stats = ClusterStats::default();
        let (mut cols, mut codes) = (Columns::default(), Vec::new());
        for r in 0..w.rows() {
            self.plan_channel(w.row(r), &mut cols);
            codes.clear();
            codes.extend(cols.codes().iter().map(|&bits| ClusterCode::from_bits(bits)));
            stats.absorb_channel(&codes);
        }
        stats
    }
}

impl WeightQuantizer for FineQuantizer {
    fn name(&self) -> String {
        if self.config == FineQConfig::paper() {
            "FineQ".to_string()
        } else {
            format!(
                "FineQ(t={},pair={},{}b/{}b)",
                self.config.outlier_threshold,
                self.config.pair_constraint,
                self.config.normal_bits,
                self.config.outlier_bits
            )
        }
    }

    fn quantize(&self, w: &Matrix, _calib: &Calibration) -> QuantResult {
        if self.config.is_packable() {
            // Route through the real storage format so that what the
            // experiments measure is what the hardware would read.
            let packed = self.quantize_packed(w);
            let dequantized = packed.dequantize();
            QuantResult { dequantized, avg_bits: packed.avg_bits_total() }
        } else {
            let mut dq = Matrix::zeros(w.rows(), w.cols());
            let mut cols = Columns::default();
            for r in 0..w.rows() {
                let (g2, g3) = self.plan_channel(w.row(r), &mut cols);
                dq.row_mut(r).copy_from_slice(&cols.dequantized(&g2, &g3, w.cols()));
            }
            let scale_overhead = 32.0 / w.cols().max(1) as f64;
            QuantResult { dequantized: dq, avg_bits: self.config.nominal_bits() + scale_overhead }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::split_channel;
    use crate::serialize::{fnv1a32, to_bytes};
    use fineq_lm::builder::{llm_like_matrix, BuilderSpec};
    use fineq_tensor::Rng;

    impl Columns {
        /// [`Cluster::reconstruction_error`] of cluster `k` under each code.
        fn err(&self, k: usize) -> [f64; 4] {
            self.err.each_ref().map(|col| col[self.slot(k)])
        }
    }

    /// The full Fig. 4 walk-through from the paper.
    #[test]
    fn paper_walkthrough_fig4() {
        let w = Matrix::from_rows(&[
            vec![0.10, 0.12, 0.11, 0.12, 0.13, 0.04],
            vec![0.27, 0.03, 0.11, 0.19, 0.01, 0.16],
            vec![0.04, 0.02, 0.04, 0.04, 0.04, 0.03],
            vec![0.17, 0.12, 0.01, 0.01, 0.24, 0.03],
        ]);
        let q = FineQuantizer::paper();
        let packed = q.quantize_packed(&w);

        // Step 3: bit-width allocation (per-pair codes after
        // harmonization) — "00 10 00 11" in the paper's index byte.
        let expect_codes = [
            ClusterCode::AllTwoBit,
            ClusterCode::ZeroSecond,
            ClusterCode::AllTwoBit,
            ClusterCode::ZeroThird,
        ];
        for (r, &code) in expect_codes.iter().enumerate() {
            assert_eq!(packed.channel(r).code_of(0), code, "row {r} cluster 0");
            assert_eq!(packed.channel(r).code_of(1), code, "row {r} cluster 1");
        }

        // Step 4: quantized integers.
        assert_eq!(packed.channel(0).cluster_ints(0), [1, 1, 1]);
        assert_eq!(packed.channel(0).cluster_ints(1), [1, 1, 0]);
        assert_eq!(packed.channel(1).cluster_ints(0), [3, 0, 1]);
        assert_eq!(packed.channel(1).cluster_ints(1), [2, 0, 2]);
        assert_eq!(packed.channel(2).cluster_ints(0), [1, 1, 1]);
        assert_eq!(packed.channel(2).cluster_ints(1), [1, 1, 1]);
        // Row 4 under code 11 with s3 = 0.24/3 = 0.08:
        // (0.17, 0.12, —) -> (2, 2, 0); (0.01, 0.24, —) -> (0, 3, 0).
        // (The paper's figure prints "2 3 0" for the second cluster, which
        // is inconsistent with its own Eq. 1 scale.)
        assert_eq!(packed.channel(3).cluster_ints(0), [2, 2, 0]);
        assert_eq!(packed.channel(3).cluster_ints(1), [0, 3, 0]);

        // Step 5: the index byte of each row's block is the row code
        // repeated for the single stored pair... codes occupy bits [0,2).
        for (r, &code) in expect_codes.iter().enumerate() {
            assert_eq!(packed.channel(r).blocks()[0] & 0b11, code.bits(), "row {r}");
        }
    }

    #[test]
    fn row4_harmonization_forces_shared_code() {
        // Row 4 of Fig. 4: cluster 1 prefers ZeroThird (0.01 weakest),
        // cluster 2 prefers ZeroFirst (0.01 weakest). The pair constraint
        // fine-tunes to a single shared code.
        let q = FineQuantizer::paper();
        let w = Matrix::from_rows(&[vec![0.17, 0.12, 0.01, 0.01, 0.24, 0.03]]);
        let packed = q.quantize_packed(&w);
        assert_eq!(packed.channel(0).code_of(0), packed.channel(0).code_of(1));
    }

    #[test]
    fn packed_path_and_direct_path_agree() {
        let mut rng = Rng::seed_from(42);
        let w = Matrix::from_fn(9, 48, |_, _| rng.laplace(0.0, 0.02));
        let q = FineQuantizer::paper();
        let packed = q.quantize_packed(&w).dequantize();
        let direct = {
            let mut dq = Matrix::zeros(w.rows(), w.cols());
            let mut cols = Columns::default();
            for r in 0..w.rows() {
                let (g2, g3) = q.plan_channel(w.row(r), &mut cols);
                dq.row_mut(r).copy_from_slice(&cols.dequantized(&g2, &g3, w.cols()));
            }
            dq
        };
        assert_eq!(packed, direct, "bit-packing must be lossless");
    }

    #[test]
    fn avg_bits_approaches_two_point_three_three() {
        let mut rng = Rng::seed_from(1);
        // 4096 columns: scale overhead becomes negligible.
        let w = Matrix::from_fn(4, 4096, |_, _| rng.normal(0.0, 0.02));
        let q = FineQuantizer::paper();
        let packed = q.quantize_packed(&w);
        assert!((packed.avg_bits_data() - 7.0 / 3.0).abs() < 0.01, "{}", packed.avg_bits_data());
        assert!(packed.avg_bits_total() < 2.35);
    }

    #[test]
    fn outlier_is_preserved_with_three_bits() {
        // A channel with one strong outlier: FineQ must keep it within
        // one 3-bit step, while its cluster-mates survive at reduced
        // precision.
        let w = Matrix::from_rows(&[vec![0.9, 0.01, 0.02, 0.03, 0.02, 0.01]]);
        let q = FineQuantizer::paper();
        let out = q.quantize(&w, &Calibration::none());
        let dq = out.dequantized;
        assert!((dq[(0, 0)] - 0.9).abs() <= 0.15, "outlier error {}", (dq[(0, 0)] - 0.9).abs());
    }

    #[test]
    fn uniform_channel_quantizes_all_two_bit() {
        let w = Matrix::from_rows(&[vec![0.1, 0.11, 0.12, 0.105, 0.095, 0.115]]);
        let q = FineQuantizer::paper();
        let stats = q.stats(&w);
        assert_eq!(stats.outlier_clusters, 0);
        assert_eq!(stats.total_clusters, 2);
    }

    #[test]
    fn threshold_ablation_changes_outlier_rate() {
        let mut rng = Rng::seed_from(3);
        let w = Matrix::from_fn(8, 96, |_, _| rng.laplace(0.0, 0.02));
        let strict = FineQuantizer::with_config(FineQConfig {
            outlier_threshold: 2.0,
            ..FineQConfig::paper()
        });
        let loose = FineQuantizer::with_config(FineQConfig {
            outlier_threshold: 8.0,
            ..FineQConfig::paper()
        });
        assert!(strict.stats(&w).outlier_clusters > loose.stats(&w).outlier_clusters);
    }

    #[test]
    fn no_pair_constraint_reduces_error_but_costs_bits() {
        let mut rng = Rng::seed_from(4);
        let w = Matrix::from_fn(8, 192, |_, _| rng.laplace(0.0, 0.05));
        let paper = FineQuantizer::paper();
        let free = FineQuantizer::with_config(FineQConfig {
            pair_constraint: false,
            ..FineQConfig::paper()
        });
        let out_paper = paper.quantize(&w, &Calibration::none());
        let out_free = free.quantize(&w, &Calibration::none());
        assert!(out_free.dequantized.mse(&w) <= out_paper.dequantized.mse(&w) + 1e-12);
        assert!(out_free.avg_bits > out_paper.avg_bits);
    }

    #[test]
    fn non_multiple_of_three_channels_work() {
        let mut rng = Rng::seed_from(5);
        for cols in [1usize, 2, 4, 5, 7, 25] {
            let w = Matrix::from_fn(3, cols, |_, _| rng.normal(0.0, 0.1));
            let out = FineQuantizer::paper().quantize(&w, &Calibration::none());
            assert_eq!(out.dequantized.cols(), cols);
        }
    }

    #[test]
    fn all_zero_matrix_stays_zero() {
        let w = Matrix::zeros(4, 12);
        let out = FineQuantizer::paper().quantize(&w, &Calibration::none());
        assert_eq!(out.dequantized, w);
    }

    #[test]
    fn name_reflects_configuration() {
        assert_eq!(FineQuantizer::paper().name(), "FineQ");
        let ablate = FineQuantizer::with_config(FineQConfig {
            outlier_threshold: 2.0,
            ..FineQConfig::paper()
        });
        assert!(ablate.name().contains("t=2"));
    }

    #[test]
    fn candidate_table_equals_per_code_requantization() {
        let mut rng = Rng::seed_from(9);
        let specials = [0.0f32, -0.0, 0.5, -1.5, 1e-40, f32::NAN, f32::INFINITY];
        let mut cols = Columns::default();
        // 2 000 clusters, gridded five to a channel so every slot of a pair
        // and the padding beside a lone cluster are read.
        for _ in 0..2000 / 5 {
            let abs_max = rng.uniform_range(0.0, 2.0);
            let mut draw = || match rng.below(8) {
                0 => specials[rng.below(specials.len())],
                _ => rng.uniform_range(-abs_max, abs_max),
            };
            let channel: Vec<f32> = (0..15).map(|_| draw()).collect();
            let (g2, g3) = FineQuantizer::paper().grids(abs_max);
            cols.grid(&channel, &g2, &g3);
            for (k, values) in channel.chunks_exact(3).enumerate() {
                let c = Cluster::new([values[0], values[1], values[2]]);
                for (code, err) in ClusterCode::ALL.into_iter().zip(cols.err(k)) {
                    let want = c.reconstruction_error(code, &g2, &g3);
                    assert_eq!(err.to_bits(), want.to_bits(), "{c:?} {code}");
                    assert_eq!(cols.ints(k, code), c.quantize(code, &g2, &g3), "{c:?} {code}");
                }
            }
        }
    }

    /// What `quantize_packed` stores for one channel, composed from the
    /// per-cluster definitions: preliminary codes, pair fine-tuning on
    /// summed `reconstruction_error`s (ties to the lowest wire value, NaN
    /// never wins), `Cluster::quantize` and `PackedMatrix::pack_channel`.
    fn per_cluster_reference(row: &[f32]) -> PackedMatrix {
        let q = FineQuantizer::paper();
        let abs_max = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let (g2, g3) = q.grids(abs_max);
        let (clusters, len) = split_channel(row);
        let threshold = q.config().outlier_threshold;
        let mut codes: Vec<ClusterCode> =
            clusters.iter().map(|c| c.preliminary_code(threshold)).collect();
        for (pair, cs) in codes.chunks_exact_mut(2).zip(clusters.chunks_exact(2)) {
            if pair[0] != pair[1] {
                let err = |code| {
                    cs[0].reconstruction_error(code, &g2, &g3)
                        + cs[1].reconstruction_error(code, &g2, &g3)
                };
                let mut best = (ClusterCode::AllTwoBit, f64::INFINITY);
                for code in ClusterCode::ALL {
                    if err(code) < best.1 {
                        best = (code, err(code));
                    }
                }
                pair.fill(best.0);
            }
        }
        let ints: Vec<[i32; 3]> =
            clusters.iter().zip(&codes).map(|(c, &code)| c.quantize(code, &g2, &g3)).collect();
        let pair_codes: Vec<ClusterCode> = codes.iter().step_by(2).copied().collect();
        PackedMatrix::pack_channel(g2.scale(), g3.scale(), len, &pair_codes, &ints)
    }

    /// Every width from 1 to 50 columns — padding tails, lone trailing
    /// clusters, odd and even pair counts — on random, all-zero,
    /// single-outlier, half-step tie and special-value rows.
    #[test]
    fn quantize_packed_equals_the_per_cluster_composition_at_every_width() {
        let mut rng = Rng::seed_from(50);
        let ties = [3.0f32, -3.0, 1.5, -1.5, 0.5, -0.5, 2.5, -2.5, 0.0, -0.0];
        let specials = [f32::NAN, -0.0, 1e-40, 0.5, -1.5, f32::MIN_POSITIVE];
        for cols in 1..=50 {
            let mut draw = |f: &mut dyn FnMut(&mut Rng, usize) -> f32| -> Vec<f32> {
                (0..cols).map(|i| f(&mut rng, i)).collect()
            };
            let rows = [
                draw(&mut |rng, _| rng.laplace(0.0, 0.05)),
                vec![0.0; cols],
                draw(&mut |rng, i| {
                    if i == cols / 2 {
                        0.9
                    } else {
                        rng.uniform_range(-0.03, 0.03)
                    }
                }),
                draw(&mut |rng, i| if i == 0 { 3.0 } else { ties[rng.below(ties.len())] }),
                draw(&mut |rng, _| match rng.below(3) {
                    0 => specials[rng.below(specials.len())],
                    _ => rng.normal(0.0, 0.1),
                }),
                draw(&mut |rng, i| {
                    if i == cols - 1 {
                        f32::INFINITY
                    } else {
                        rng.normal(0.0, 0.1)
                    }
                }),
            ];
            let packed = FineQuantizer::paper().quantize_packed(&Matrix::from_rows(&rows));
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(
                    packed.channel(r),
                    per_cluster_reference(row).channel(0),
                    "{cols} columns, row {r}"
                );
            }
        }
    }

    /// Hash of what `quantize_packed` stores for `w`.
    fn packed_hash(w: &Matrix) -> u32 {
        fnv1a32(&to_bytes(&FineQuantizer::paper().quantize_packed(w)))
    }

    /// The tie rows' abs max is 3, so the 2-bit step is 3 and the 3-bit
    /// step 1: every value sits exactly on a half step of one grid.
    fn edge_rows() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0; 12],
            vec![0.01, 0.02, 0.03, 0.02, 0.9, 0.01, 0.03, 0.02, 0.01, 0.02, 0.03, 0.01],
            vec![3.0, 1.5, 0.5, -2.5, 1.5, -0.5, 0.5, -1.5, 2.5, 3.0, -3.0, 1.5],
            vec![-1.5, 1.5, -1.5, 0.5, -0.5, 0.5, 2.5, -2.5, 0.0, 3.0, 1.5, -0.5],
        ])
    }

    /// Bytes, code histograms and the no-pair-constraint ablation's output
    /// pinned by hash: the quantizer may get faster, never different.
    #[test]
    fn quantizer_output_is_pinned_bit_for_bit() {
        let llm_like = |seed| {
            let mut rng = Rng::seed_from(seed);
            llm_like_matrix(512, 1536, &BuilderSpec::tiny(), &mut rng)
        };
        let w1 = llm_like(1);
        let mut rng = Rng::seed_from(7);
        let narrow: Vec<u32> = [1usize, 2, 4, 5, 7, 25, 96]
            .iter()
            .map(|&cols| packed_hash(&Matrix::from_fn(5, cols, |_, _| rng.laplace(0.0, 0.05))))
            .collect();
        assert_eq!(packed_hash(&w1), 0xf25a_31ca, "llm-like seed 1");
        assert_eq!(packed_hash(&llm_like(2)), 0xc3d2_b2f0, "llm-like seed 2");
        let want = [
            0xdf52_ed1b,
            0xf5ea_bbd0,
            0xba59_b4d0,
            0xe844_dbfa,
            0x7ae1_8ad0,
            0x5d30_fc99,
            0x2dbf_71da,
        ];
        assert_eq!(narrow, want, "columns 1, 2, 4, 5, 7, 25, 96");
        assert_eq!(packed_hash(&edge_rows()), 0x01af_92a8, "zero, single-outlier and tie rows");

        let histogram = |s: ClusterStats| (s.total_clusters, s.outlier_clusters, s.code_counts);
        let paper = FineQuantizer::paper();
        assert_eq!(
            histogram(paper.stats(&w1)),
            (262_144, 61_400, [200_744, 26_040, 21_106, 14_254])
        );
        assert_eq!(histogram(paper.stats(&edge_rows())), (16, 4, [12, 0, 0, 4]));

        let free = FineQuantizer::with_config(FineQConfig {
            pair_constraint: false,
            ..FineQConfig::paper()
        });
        assert_eq!(histogram(free.stats(&w1)), (262_144, 14_198, [247_946, 8_758, 5_310, 130]));
        let out = free.quantize(&w1, &Calibration::none());
        let bits: Vec<u8> =
            out.dequantized.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        assert_eq!(fnv1a32(&bits), 0x1646_4dd3, "no-pair-constraint dequantized bits");
        assert_eq!(out.avg_bits.to_bits(), 0x4005_8000_0000_0000);
    }

    #[test]
    fn nominal_bits_formula() {
        assert!((FineQConfig::paper().nominal_bits() - 7.0 / 3.0).abs() < 1e-12);
        let free = FineQConfig { pair_constraint: false, ..FineQConfig::paper() };
        assert!((free.nominal_bits() - 8.0 / 3.0).abs() < 1e-12);
    }
}
