//! Constructed-model builder: the stand-in for a pretrained LLaMA-2
//! checkpoint.
//!
//! The paper's accuracy results hinge on one structural property of LLM
//! weights (its Fig. 3b): a narrow high-kurtosis bulk plus **sparse
//! outliers concentrated in specific channels**. The builder reproduces
//! that structure around a functional skeleton, then makes the model
//! genuinely predictive by **ridge-fitting the readout head** against the
//! corpus teacher:
//!
//! 1. Token embeddings that **plant the corpus's bigram factors**
//!    `B[cur]` in their leading coordinates (the way trained LLMs encode
//!    next-token structure in embedding space), padded with random
//!    coordinates.
//! 2. Block weights drawn from a Laplace bulk with row- and
//!    column-concentrated outlier channels (plus a random sprinkle).
//! 3. A *topic path*: attention head 0 has ALiBi slope 0, so it averages
//!    value projections over the whole prefix; its value/output lanes are
//!    given a stronger random projection so the residual stream carries a
//!    topic estimate. Local heads carry recent-token information.
//! 4. The readout head solves `min ‖H·Wᵀ − Z‖² + λ‖W‖²` where `H` are the
//!    model's own final hidden states on a training stream and `Z` the
//!    corpus teacher's centered logits — so the fp16 model approaches the
//!    oracle and any weight damage shows up as real perplexity loss.

use crate::config::{ModelConfig, SimPreset};
use crate::corpus::Corpus;
use crate::model::{Transformer, WeightSite};
use fineq_tensor::{solve_spd, Matrix, Rng};

/// Target output rms of an ordinary (bulk) weight row.
const BULK_RMS: f32 = 0.10;
/// Fraction of rows that are **salient channels**: the rows that carry
/// the body's function, with large, spiky weights. This mirrors the
/// empirical structure behind the paper's Fig. 3b (and the AWQ /
/// SqueezeLLM observation that a few channels dominate model quality).
const STRONG_ROW_FRAC: f64 = 0.06;
/// Target output rms of a salient row.
const STRONG_RMS: f32 = 1.0;
/// Fraction of entries inside a salient row that are spikes; the rest
/// stay at the bulk scale, so the intra-cluster max/min ratio is large
/// and FineQ's outlier rule fires.
const SPIKE_DENSITY: f64 = 0.20;
/// Fraction of columns boosted across all rows (the input-channel
/// outliers OWQ protects).
const OUTLIER_COL_FRAC: f64 = 0.015;
/// Magnitude multiplier of column outliers.
const COL_MAG: f32 = 8.0;
/// Random background spike fraction (paper Fig. 3b: ~0.3 %).
const SPRINKLE_FRAC: f64 = 0.003;
/// Magnitude multiplier of background spikes.
const SPRINKLE_MAG: f32 = 12.0;
/// Target rms of the topic-path (head-0 value/output) contribution.
const TOPIC_RMS: f32 = 0.85;
/// Scale of the per-topic embedding directions planted on topic-member
/// tokens.
const TOPIC_EMBED_GAIN: f32 = 1.6;
/// Gain of the last-layer FFN *re-embedding carrier* that rotates the
/// bigram dims through dense quantizable weights and back. With the
/// raw band masked from the readout, this carrier is the only path to
/// the bigram information — making body quantization error reach the
/// logits, as it does in a trained LLM where every layer is
/// load-bearing.
const COPY_GAIN: f32 = 4.0;
/// Output rms of the carrier's up-projection (sets the carrier weight
/// magnitude `amp / sqrt(rank)` — dense and moderate, the regime the
/// paper's Fig. 3b bulk occupies).
const CARRIER_AMP: f32 = 2.0;
/// Ridge regularization as a fraction of `mean(diag(HᵀH))`.
const RIDGE_LAMBDA: f64 = 3e-3;

/// What to construct: an architecture and the head fit's window. The
/// synthetic weight shape (bulk, salient rows, outlier columns, topic
/// path, carrier) and the ridge strength are the builder's constants.
#[derive(Debug, Clone, PartialEq)]
pub struct BuilderSpec {
    /// Architecture to build.
    pub config: ModelConfig,
    /// Training window length used when collecting head-fit features.
    pub fit_window: usize,
}

impl BuilderSpec {
    /// A tiny spec for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self { config: ModelConfig::new(64, 32, 1, 2, 48), fit_window: 128 }
    }

    /// The spec used by the Table I / Table II experiments for a given
    /// model preset.
    pub fn for_preset(preset: SimPreset) -> Self {
        Self { config: preset.model_config(), fit_window: 512 }
    }
}

/// Diagnostics from the head fit.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Training positions used in the regression.
    pub n_positions: usize,
    /// Mean squared residual of the fit (log-prob units).
    pub fit_mse: f64,
}

/// Draws an LLM-like weight matrix.
///
/// Structure (paper Fig. 3b and the salient-channel literature):
///
/// * **bulk rows** (the vast majority): narrow Laplace weights sized so
///   the row's output rms is `BULK_RMS`;
/// * **salient rows** (`STRONG_ROW_FRAC`): a `SPIKE_DENSITY` fraction of
///   entries are large spikes (sized so the row's output rms is
///   `STRONG_RMS`), the rest stay at the bulk scale — these rows carry the
///   body's function, and their intra-cluster max/min ratios trip FineQ's
///   outlier rule;
/// * **outlier columns** (`OUTLIER_COL_FRAC`): boosted across all rows,
///   the input-channel outliers OWQ protects;
/// * a sprinkle of isolated background spikes.
///
/// The shape is the builder's constants: the function reads no field of
/// `_spec`. The parameter stays only because the benchmark crate
/// (`bench/`) passes a spec; ROADMAP 1a drops it when the benchmark is
/// next revised.
pub fn llm_like_matrix(rows: usize, cols: usize, _spec: &BuilderSpec, rng: &mut Rng) -> Matrix {
    // y = Wx with E[x_j^2] = 1: Var(y_i) = cols * Var(w_ij). Laplace(0, s)
    // has variance 2s^2, so s = rms / sqrt(2 cols) for a dense row and
    // s = rms / sqrt(2 * density * cols) for a sparse spiky row.
    let bulk = BULK_RMS / (2.0 * cols as f32).sqrt();
    let spike = STRONG_RMS / (2.0 * SPIKE_DENSITY as f32 * cols as f32).sqrt();
    let mut strong_row = vec![false; rows];
    let mut out_col = vec![false; cols];
    for flag in strong_row.iter_mut() {
        *flag = rng.chance(STRONG_ROW_FRAC);
    }
    for flag in out_col.iter_mut() {
        *flag = rng.chance(OUTLIER_COL_FRAC);
    }
    Matrix::from_fn(rows, cols, |r, c| {
        let mut v = if strong_row[r] && rng.chance(SPIKE_DENSITY) {
            rng.laplace(0.0, spike)
        } else {
            rng.laplace(0.0, bulk)
        };
        if out_col[c] {
            v *= COL_MAG;
        }
        if rng.chance(SPRINKLE_FRAC) {
            v *= SPRINKLE_MAG;
        }
        v
    })
}

/// Builds the constructed body (everything except the fitted head).
fn build_body(spec: &BuilderSpec, corpus: &Corpus, rng: &mut Rng) -> Transformer {
    let cfg = &spec.config;
    let d = cfg.d_model;
    let dh = cfg.d_head();
    let mut m = Transformer::zeros(cfg.clone());

    // Embeddings: the corpus's bigram factors B[cur] occupy the leading
    // coordinates (so the next-token structure is linearly readable), the
    // rest are random unit-variance coordinates.
    let b = corpus.bigram_factors();
    let k = b.cols().min(d);
    *m.embedding_mut() =
        Matrix::from_fn(cfg.vocab, d, |v, j| if j < k { b[(v, j)] } else { rng.normal(0.0, 1.0) });

    // Topic directions: member tokens of topic z receive a shared random
    // direction in the "free" coordinate band [k, d-k) (topical clustering
    // in embedding space). A single token is weak evidence; the slope-0
    // attention head averages these into a reliable topic estimate.
    let topics = corpus.topic_matrix();
    let free_lo = k;
    let free_hi = (d - k).max(free_lo + 1).min(d);
    let topic_dirs =
        Matrix::from_fn(topics.rows(), free_hi - free_lo, |_, _| rng.normal(0.0, TOPIC_EMBED_GAIN));
    for v in 0..cfg.vocab {
        for z in 0..topics.rows() {
            if topics[(z, v)] != 0.0 {
                let erow = m.embedding_mut().row_mut(v);
                for (j, item) in erow[free_lo..free_hi].iter_mut().enumerate() {
                    *item += topic_dirs[(z, j)];
                }
            }
        }
    }

    for l in 0..cfg.n_layers {
        for site in WeightSite::ALL {
            let (r, c) = {
                let w = m.weight(l, site);
                (w.rows(), w.cols())
            };
            *m.weight_mut(l, site) = llm_like_matrix(r, c, spec, rng).into();
        }
        if l == 0 {
            // Topic path: strengthen head 0's value rows so the global
            // (slope-0) head carries a prefix-average of a dense random
            // projection of the embeddings.
            {
                let wv = m.weight_mut(l, WeightSite::AttnV).dense_mut();
                let cols = wv.cols();
                let s = TOPIC_RMS / (cols as f32).sqrt();
                for r in 0..dh {
                    for c in 0..cols {
                        wv[(r, c)] = rng.normal(0.0, s);
                    }
                }
            }
            // ... and give wo strong entries on head 0's lanes so the
            // topic estimate lands in the residual stream.
            {
                let wo = m.weight_mut(l, WeightSite::AttnO).dense_mut();
                let rows = wo.rows();
                let s = TOPIC_RMS / (dh as f32).sqrt();
                for r in 0..rows {
                    for c in 0..dh {
                        wo[(r, c)] = rng.normal(0.0, s);
                    }
                }
            }
        }
        if l == cfg.n_layers - 1 {
            // Re-embedding carrier: the last FFN maps the bigram band
            // x[0..k] through an invertible block matrix S of **signed,
            // varied-magnitude spikes** (3x3 blocks) and back into the
            // band [d-k, d) with gain `COPY_GAIN`, via the ReLU pair trick
            // (relu(s·x) - relu(-s·x) = s·x).
            //
            // Spiky channels with varied spike magnitudes are exactly the
            // structure of the paper's Fig. 3b outlier channels, and the
            // regime where FineQ's 3-bit outlier protection beats a flat
            // 2-bit grid: a 7-level grid over the spike range quantizes
            // mid-range spikes with half the step of a 4-level grid.
            let amp = CARRIER_AMP;
            let g_over = COPY_GAIN;
            {
                let w1_rows = m.weight(l, WeightSite::FfnUp).rows();
                assert!(w1_rows >= 2 * k, "d_ff must be at least 2*rank for the carrier");
            }
            let mut j0 = 0;
            while j0 < k {
                let bs = (k - j0).min(3);
                let s_block = sample_spiky_block(bs, amp, rng);
                let s_inv = invert_small(&s_block);
                {
                    let w1 = m.weight_mut(l, WeightSite::FfnUp).dense_mut();
                    for i in 0..bs {
                        for c in 0..bs {
                            w1[(j0 + i, j0 + c)] = s_block[(i, c)];
                            w1[(k + j0 + i, j0 + c)] = -s_block[(i, c)];
                        }
                    }
                }
                {
                    let w2 = m.weight_mut(l, WeightSite::FfnDown).dense_mut();
                    for i in 0..bs {
                        for c in 0..bs {
                            w2[(d - k + j0 + i, j0 + c)] = g_over * s_inv[(i, c)];
                            w2[(d - k + j0 + i, k + j0 + c)] = -g_over * s_inv[(i, c)];
                        }
                    }
                }
                j0 += bs;
            }
        }
    }
    m
}

/// Samples an invertible `n x n` block of signed spikes with magnitudes in
/// `[0.7, 1.0] * amp` (resampling until comfortably non-singular).
fn sample_spiky_block(n: usize, amp: f32, rng: &mut Rng) -> Matrix {
    loop {
        let s = Matrix::from_fn(n, n, |_, _| {
            let mag = rng.uniform_range(0.7, 1.0) * amp;
            if rng.chance(0.5) {
                mag
            } else {
                -mag
            }
        });
        let d = det_small(&s).abs();
        if d > 0.25 * (amp as f64).powi(n as i32) {
            return s;
        }
    }
}

/// Determinant of a 1..=3 square matrix.
fn det_small(m: &Matrix) -> f64 {
    let n = m.rows();
    let a = |r: usize, c: usize| m[(r, c)] as f64;
    match n {
        1 => a(0, 0),
        2 => a(0, 0) * a(1, 1) - a(0, 1) * a(1, 0),
        3 => {
            a(0, 0) * (a(1, 1) * a(2, 2) - a(1, 2) * a(2, 1))
                - a(0, 1) * (a(1, 0) * a(2, 2) - a(1, 2) * a(2, 0))
                + a(0, 2) * (a(1, 0) * a(2, 1) - a(1, 1) * a(2, 0))
        }
        _ => panic!("det_small supports 1..=3, got {n}"),
    }
}

/// Inverse of a 1..=3 square matrix via the adjugate.
fn invert_small(m: &Matrix) -> Matrix {
    let n = m.rows();
    let det = det_small(m);
    assert!(det.abs() > 1e-12, "block must be invertible");
    let a = |r: usize, c: usize| m[(r, c)] as f64;
    let inv_det = 1.0 / det;
    match n {
        1 => Matrix::from_rows(&[vec![inv_det as f32]]),
        2 => Matrix::from_fn(2, 2, |r, c| {
            let cof = match (r, c) {
                (0, 0) => a(1, 1),
                (0, 1) => -a(0, 1),
                (1, 0) => -a(1, 0),
                _ => a(0, 0),
            };
            (cof * inv_det) as f32
        }),
        3 => {
            let mut out = Matrix::zeros(3, 3);
            for r in 0..3 {
                for c in 0..3 {
                    // Cofactor expansion: inv[c][r] = cof(r,c) / det.
                    let (r1, r2) = match r {
                        0 => (1, 2),
                        1 => (0, 2),
                        _ => (0, 1),
                    };
                    let (c1, c2) = match c {
                        0 => (1, 2),
                        1 => (0, 2),
                        _ => (0, 1),
                    };
                    let minor = a(r1, c1) * a(r2, c2) - a(r1, c2) * a(r2, c1);
                    let sign = if (r + c) % 2 == 0 { 1.0 } else { -1.0 };
                    out[(c, r)] = (sign * minor * inv_det) as f32;
                }
            }
            out
        }
        _ => panic!("invert_small supports 1..=3, got {n}"),
    }
}

/// Builds the constructed body and ridge-fits the readout head on
/// `train_tokens` of corpus text.
///
/// Returns the ready-to-evaluate model and fit diagnostics.
///
/// # Panics
///
/// Panics if the corpus vocabulary disagrees with the model config, or if
/// `train_tokens` is too small to fit (fewer than `2 * d_model` positions).
pub fn build_fitted_model(
    spec: &BuilderSpec,
    corpus: &Corpus,
    train_tokens: usize,
    seed: u64,
) -> (Transformer, FitReport) {
    assert_eq!(corpus.vocab(), spec.config.vocab, "corpus vocabulary must match the model");
    let mut rng = Rng::seed_from(seed);
    let mut model = build_body(spec, corpus, &mut rng);

    let d = spec.config.d_model;
    let vocab = spec.config.vocab;
    let stream = corpus.generate(train_tokens, seed ^ 0xF17);
    assert!(
        stream.len() >= 2 * d && stream.len() >= spec.fit_window,
        "need at least {} training tokens, got {}",
        (2 * d).max(spec.fit_window),
        stream.len()
    );

    // Collect final hidden states (features) and teacher targets over
    // non-overlapping windows. The fitted head reads only the *processed*
    // feature bands: the raw bigram band [0, rank) is masked. Real LLM
    // readouts consume deeply transformed features rather than raw
    // embeddings; without this mask the ridge fit would bypass the
    // quantizable body entirely and no quantizer could be told apart.
    let feat_lo = corpus.bigram_factors().cols().min(d);
    let n_feats = d - feat_lo;
    let mut feats: Vec<f32> = Vec::new();
    let mut targs: Vec<f32> = Vec::new();
    let mut n_positions = 0usize;
    let tokens = stream.tokens();
    let topics = stream.topics();
    let mut start = 0usize;
    while start + 1 < tokens.len() {
        let end = (start + spec.fit_window).min(tokens.len());
        if end - start < 2 {
            break;
        }
        let window = &tokens[start..end];
        let (_, trace) = model.forward_with_trace(window);
        // Position t predicts t+1; the last position of the window has no
        // target inside the window.
        for t in 0..window.len() - 1 {
            feats.extend_from_slice(&trace.final_hidden.row(t)[feat_lo..]);
            let z = corpus.teacher_fit_targets(tokens[start + t], topics[start + t]);
            targs.extend_from_slice(&z);
            n_positions += 1;
        }
        start = end;
    }

    let h = Matrix::from_vec(n_positions, n_feats, feats);
    let z = Matrix::from_vec(n_positions, vocab, targs);

    // Ridge normal equations: (HᵀH + λI) X = HᵀZ, head = Xᵀ (zero-padded
    // over the masked band).
    let ht = h.transpose();
    let mut a = ht.matmul(&h);
    let mut diag_mean = 0.0f64;
    for i in 0..n_feats {
        diag_mean += a[(i, i)] as f64;
    }
    diag_mean /= n_feats as f64;
    let lambda = (RIDGE_LAMBDA * diag_mean).max(1e-6) as f32;
    for i in 0..n_feats {
        a[(i, i)] += lambda;
    }
    let b = ht.matmul(&z);
    let x = solve_spd(&a, &b).expect("ridge system is SPD by construction");
    let mut head = Matrix::zeros(vocab, d);
    for v in 0..vocab {
        for j in 0..n_feats {
            head[(v, feat_lo + j)] = x[(j, v)];
        }
    }
    *model.head_mut() = head;

    let pred = h.matmul(&x);
    let fit_mse = pred.mse(&z);
    (model, FitReport { n_positions, fit_mse })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{cross_entropy, perplexity};
    use fineq_tensor::stats::Summary;

    #[test]
    fn llm_like_matrix_has_heavy_tails_and_salient_channels() {
        let spec = BuilderSpec::tiny();
        let mut rng = Rng::seed_from(3);
        let w = llm_like_matrix(256, 96, &spec, &mut rng);
        let s = Summary::of(w.as_slice());
        assert!(s.kurtosis > 3.0, "kurtosis {} should be strongly super-Gaussian", s.kurtosis);
        // Row maxima must be very unequal (salient-channel concentration).
        let row_max: Vec<f32> =
            (0..256).map(|r| w.row(r).iter().fold(0.0f32, |m, v| m.max(v.abs()))).collect();
        let top = row_max.iter().cloned().fold(0.0f32, f32::max);
        let med = {
            let mut v = row_max.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[128]
        };
        assert!(top > 6.0 * med, "top row max {top} vs median {med}");
    }

    #[test]
    fn salient_rows_trip_the_fineq_outlier_rule() {
        // Spike-to-bulk magnitude ratio must exceed the paper's 4x rule.
        let bulk = BULK_RMS / (2.0 * 96.0f32).sqrt();
        let spike = STRONG_RMS / (2.0 * SPIKE_DENSITY as f32 * 96.0).sqrt();
        assert!(spike / bulk > 4.0, "ratio {}", spike / bulk);
    }

    #[test]
    fn bulk_row_output_scale_is_calibrated() {
        let spec = BuilderSpec::tiny();
        let mut rng = Rng::seed_from(5);
        let w = llm_like_matrix(64, 64, &spec, &mut rng);
        let x = Matrix::from_fn(64, 1, |_, _| rng.normal(0.0, 1.0));
        let y = w.matmul(&x);
        let rms = (y.as_slice().iter().map(|v| v * v).sum::<f32>() / 64.0).sqrt();
        // Mostly bulk rows at BULK_RMS, a few salient rows pull it up.
        assert!(rms > 0.03 && rms < 2.0, "rms {rms}");
    }

    #[test]
    fn fitted_model_beats_uniform_and_approaches_oracle() {
        let corpus = Corpus::wiki_like(64, 21);
        let spec = BuilderSpec::tiny();
        let (model, report) = build_fitted_model(&spec, &corpus, 4_000, 1);
        assert!(report.n_positions > 1000);
        let test = corpus.generate(2_000, 777);
        let ce = cross_entropy(&model, test.tokens(), 256);
        let uniform = (64f64).ln();
        let oracle = corpus.oracle_cross_entropy(&test);
        assert!(ce < 0.8 * uniform, "fitted ce {ce:.3} vs uniform {uniform:.3}");
        assert!(ce > oracle, "cannot beat the oracle ({ce:.3} vs {oracle:.3})");
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let corpus = Corpus::wiki_like(64, 22);
        let spec = BuilderSpec::tiny();
        let (m1, r1) = build_fitted_model(&spec, &corpus, 2_000, 9);
        let (m2, r2) = build_fitted_model(&spec, &corpus, 2_000, 9);
        assert_eq!(r1, r2);
        assert_eq!(m1.head(), m2.head());
    }

    #[test]
    fn different_seeds_give_different_bodies() {
        let corpus = Corpus::wiki_like(64, 23);
        let spec = BuilderSpec::tiny();
        let (m1, _) = build_fitted_model(&spec, &corpus, 2_000, 1);
        let (m2, _) = build_fitted_model(&spec, &corpus, 2_000, 2);
        assert_ne!(m1.weight(0, WeightSite::AttnQ), m2.weight(0, WeightSite::AttnQ));
    }

    #[test]
    fn longer_context_improves_fitted_model_ppl() {
        // The topical corpus rewards context: ppl at window 16 must exceed
        // ppl at window 256 (Table II's mechanism).
        let corpus = Corpus::wiki_like(64, 24);
        let spec = BuilderSpec::tiny();
        let (model, _) = build_fitted_model(&spec, &corpus, 6_000, 4);
        let test = corpus.generate(4_096, 55);
        let short = perplexity(&model, test.tokens(), 16);
        let long = perplexity(&model, test.tokens(), 256);
        assert!(short > long, "short-window ppl {short:.2} should exceed long-window {long:.2}");
    }

    #[test]
    #[should_panic(expected = "vocabulary must match")]
    fn vocab_mismatch_is_rejected() {
        let corpus = Corpus::wiki_like(32, 25);
        let spec = BuilderSpec::tiny(); // vocab 64
        let _ = build_fitted_model(&spec, &corpus, 1_000, 0);
    }
}
