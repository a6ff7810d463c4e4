//! The [`FineQuantizer`]: Algorithm 1 of the paper, end to end.

use crate::cluster::{split_channel, Cluster};
use crate::encoding::ClusterCode;
use crate::pack::{PackedChannel, PackedMatrix};
use crate::stats::ClusterStats;
use fineq_quant::{Calibration, QuantResult, SymmetricGrid, WeightQuantizer};
use fineq_tensor::Matrix;

/// Configuration of the FineQ algorithm.
///
/// The defaults are the paper's settings; the other knobs exist for the
/// ablation studies in `EXPERIMENTS.md`.
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

/// Result of quantizing one channel before packing.
#[derive(Debug, Clone)]
struct ChannelPlan {
    /// The channel's 2-bit and 3-bit grids (their steps are the stored
    /// Eq. 1 scales).
    g2: SymmetricGrid,
    g3: SymmetricGrid,
    len: usize,
    /// One code per cluster (duplicated across a pair when the constraint
    /// is active).
    codes: Vec<ClusterCode>,
    quantized: Vec<[i32; 3]>,
}

impl ChannelPlan {
    /// The plan's real-valued reconstruction (padding stripped), straight
    /// from the integers and grids. Only configurations the packed format
    /// cannot hold read it; packable ones dequantize the packed bytes.
    fn dequantized(&self) -> Vec<f32> {
        let lanes = self.quantized.iter().zip(&self.codes);
        lanes
            .flat_map(|(&q, &code)| Cluster::dequantize(q, code, &self.g2, &self.g3))
            .take(self.len)
            .collect()
    }
}

/// One cluster gridded once on each of its channel's grids: the ints
/// every code stores and every code's squared reconstruction error.
#[derive(Debug)]
struct Candidates {
    q2: [i32; 3],
    q3: [i32; 3],
    /// [`Cluster::reconstruction_error`] of each code, in wire order.
    err: [f64; 4],
}

impl Candidates {
    #[inline]
    fn new(c: &Cluster, g2: &SymmetricGrid, g3: &SymmetricGrid) -> Self {
        let v = c.values();
        let q2 = v.map(|x| g2.quantize(x));
        let q3 = v.map(|x| g3.quantize(x));
        // The terms `reconstruction_error` sums: position `p` kept on the
        // normal grid, kept on the outlier grid, or sacrificed.
        let sq = |p: usize, r: f32| {
            let d = (v[p] - r) as f64;
            d * d
        };
        let e2: [f64; 3] = std::array::from_fn(|p| sq(p, g2.dequantize(q2[p])));
        let e3: [f64; 3] = std::array::from_fn(|p| sq(p, g3.dequantize(q3[p])));
        let e0: [f64; 3] = std::array::from_fn(|p| sq(p, 0.0));
        // Added in position order, like its fold, so every sum is
        // bit-equal to `reconstruction_error`'s.
        let err = ClusterCode::ALL.map(|code| match code.zeroed_position() {
            None => e2[0] + e2[1] + e2[2],
            Some(k) => {
                let at = |p: usize| if p == k { e0[p] } else { e3[p] };
                at(0) + at(1) + at(2)
            }
        });
        Self { q2, q3, err }
    }

    /// [`Cluster::quantize`] under `code`.
    #[inline]
    fn ints(&self, code: ClusterCode) -> [i32; 3] {
        match code.zeroed_position() {
            None => self.q2,
            Some(k) => {
                let mut q = self.q3;
                q[k] = 0;
                q
            }
        }
    }
}

/// The code with the least error: a pair's summed errors for the paper's
/// fine-tuning, one cluster's for the no-pair-constraint ablation. Ties
/// resolve to the lowest wire value and a NaN error never wins.
fn least_error_code(err: [f64; 4]) -> ClusterCode {
    let mut best = ClusterCode::AllTwoBit;
    let mut best_err = f64::INFINITY;
    for (code, e) in ClusterCode::ALL.into_iter().zip(err) {
        if e < best_err {
            best_err = e;
            best = code;
        }
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

    /// Runs Algorithm 1 on one channel.
    fn plan_channel(&self, channel: &[f32]) -> ChannelPlan {
        let abs_max = channel.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let (g2, g3) = self.grids(abs_max);
        let (clusters, len) = split_channel(channel);
        let threshold = self.config.outlier_threshold;
        // Every value gridded once per grid; all code choices and the final
        // ints below read this table instead of re-quantizing.
        let table: Vec<Candidates> =
            clusters.iter().map(|c| Candidates::new(c, &g2, &g3)).collect();

        // Preliminary per-cluster codes (Alg. 1 lines 5–14). Without the
        // pair constraint (ablation) every cluster instead picks its own
        // error-minimizing code — the best any per-cluster scheme can do.
        let mut codes: Vec<ClusterCode> = if self.config.pair_constraint {
            clusters.iter().map(|c| c.preliminary_code(threshold)).collect()
        } else {
            table.iter().map(|t| least_error_code(t.err)).collect()
        };

        // Pair harmonization (Alg. 1 lines 15–25): adjacent clusters share
        // one code; disagreements are fine-tuned by minimizing the pair's
        // total squared reconstruction error. A trailing lone cluster
        // keeps its preliminary code.
        if self.config.pair_constraint {
            for (pair, t) in codes.chunks_exact_mut(2).zip(table.chunks_exact(2)) {
                if pair[0] != pair[1] {
                    pair.fill(least_error_code(std::array::from_fn(|i| t[0].err[i] + t[1].err[i])));
                }
            }
        }

        let quantized: Vec<[i32; 3]> =
            table.iter().zip(&codes).map(|(t, &code)| t.ints(code)).collect();

        ChannelPlan { g2, g3, len, codes, quantized }
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
        let channels: Vec<PackedChannel> = (0..w.rows())
            .map(|r| {
                let plan = self.plan_channel(w.row(r));
                // Collapse duplicated per-cluster codes into per-pair codes.
                let pair_codes: Vec<ClusterCode> = plan.codes.iter().step_by(2).copied().collect();
                PackedChannel::pack(
                    plan.g2.scale(),
                    plan.g3.scale(),
                    plan.len,
                    &pair_codes,
                    &plan.quantized,
                )
            })
            .collect();
        PackedMatrix::new(w.rows(), w.cols(), channels)
    }

    /// Computes per-cluster statistics (encoding histogram, outlier
    /// fraction) without packing.
    pub fn stats(&self, w: &Matrix) -> ClusterStats {
        let mut stats = ClusterStats::default();
        for r in 0..w.rows() {
            let plan = self.plan_channel(w.row(r));
            stats.absorb_channel(&plan.codes);
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
            for r in 0..w.rows() {
                let plan = self.plan_channel(w.row(r));
                dq.row_mut(r).copy_from_slice(&plan.dequantized());
            }
            let scale_overhead = 32.0 / w.cols().max(1) as f64;
            QuantResult { dequantized: dq, avg_bits: self.config.nominal_bits() + scale_overhead }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{fnv1a32, to_bytes};
    use fineq_lm::builder::{llm_like_matrix, BuilderSpec};
    use fineq_tensor::Rng;

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
            assert_eq!(packed.channels()[r].code_of(0), code, "row {r} cluster 0");
            assert_eq!(packed.channels()[r].code_of(1), code, "row {r} cluster 1");
        }

        // Step 4: quantized integers.
        assert_eq!(packed.channels()[0].cluster_ints(0), [1, 1, 1]);
        assert_eq!(packed.channels()[0].cluster_ints(1), [1, 1, 0]);
        assert_eq!(packed.channels()[1].cluster_ints(0), [3, 0, 1]);
        assert_eq!(packed.channels()[1].cluster_ints(1), [2, 0, 2]);
        assert_eq!(packed.channels()[2].cluster_ints(0), [1, 1, 1]);
        assert_eq!(packed.channels()[2].cluster_ints(1), [1, 1, 1]);
        // Row 4 under code 11 with s3 = 0.24/3 = 0.08:
        // (0.17, 0.12, —) -> (2, 2, 0); (0.01, 0.24, —) -> (0, 3, 0).
        // (The paper's figure prints "2 3 0" for the second cluster, which
        // is inconsistent with its own Eq. 1 scale; see DESIGN.md.)
        assert_eq!(packed.channels()[3].cluster_ints(0), [2, 2, 0]);
        assert_eq!(packed.channels()[3].cluster_ints(1), [0, 3, 0]);

        // Step 5: the index byte of each row's block is the row code
        // repeated for the single stored pair... codes occupy bits [0,2).
        for (r, &code) in expect_codes.iter().enumerate() {
            assert_eq!(packed.channels()[r].blocks()[0] & 0b11, code.bits(), "row {r}");
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
        assert_eq!(packed.channels()[0].code_of(0), packed.channels()[0].code_of(1));
    }

    #[test]
    fn packed_path_and_direct_path_agree() {
        let mut rng = Rng::seed_from(42);
        let w = Matrix::from_fn(9, 48, |_, _| rng.laplace(0.0, 0.02));
        let q = FineQuantizer::paper();
        let packed = q.quantize_packed(&w).dequantize();
        let direct = {
            let mut dq = Matrix::zeros(w.rows(), w.cols());
            for r in 0..w.rows() {
                let plan = q.plan_channel(w.row(r));
                dq.row_mut(r).copy_from_slice(&plan.dequantized());
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
        for _ in 0..2000 {
            let abs_max = rng.uniform_range(0.0, 2.0);
            let mut draw = || match rng.below(8) {
                0 => specials[rng.below(specials.len())],
                _ => rng.uniform_range(-abs_max, abs_max),
            };
            let c = Cluster::new([draw(), draw(), draw()]);
            let (g2, g3) = FineQuantizer::paper().grids(abs_max);
            let t = Candidates::new(&c, &g2, &g3);
            for (code, err) in ClusterCode::ALL.into_iter().zip(t.err) {
                let want = c.reconstruction_error(code, &g2, &g3);
                assert_eq!(err.to_bits(), want.to_bits(), "{c:?} {code}");
                assert_eq!(t.ints(code), c.quantize(code, &g2, &g3), "{c:?} {code}");
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
