//! Integration tests of the packed-weight inference engine: the fused
//! kernels against their dequantize-reference, and a FineQ-packed
//! transformer against the dequantized fp32 copy, end to end. The dense
//! reference is independent of the kernels' decoder: `dequantize()` reads
//! the blocks through the SWAR whole-block decode, the fused kernels
//! through the `DECODE_INTS` table.

use fineq::core::{block_data_word, decode_block_swar, FineQuantizer, PackedMatrix};
use fineq::lm::builder::{build_fitted_model, llm_like_matrix, BuilderSpec};
use fineq::lm::corpus::Corpus;
use fineq::lm::eval::perplexity;
use fineq::lm::memory::ServingMemory;
use fineq::lm::{KvCache, ModelConfig, Transformer, WeightSite};
use fineq::pipeline::{quantize_model, quantize_model_packed, PipelineConfig};
use fineq::tensor::{Matrix, Rng};

fn laplace_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        let v = rng.laplace(0.0, 0.03);
        if rng.chance(0.04) {
            v * 10.0
        } else {
            v
        }
    })
}

fn pack(w: &Matrix) -> PackedMatrix {
    FineQuantizer::paper().quantize_packed(w)
}

/// The headline kernel property: `packed.matvec(x)` matches
/// `packed.dequantize()` followed by a dense matvec within 1e-5, on random
/// Laplace matrices — including channel lengths not divisible by 3 or 24.
#[test]
fn fused_matvec_matches_dequantize_then_matvec() {
    let mut rng = Rng::seed_from(2024);
    // Explicit awkward widths: 1 (single padded cluster), 23/25 (straddle
    // one block), 47/49 (straddle two), plus aligned 24/48 controls.
    for cols in [1usize, 2, 5, 7, 23, 24, 25, 46, 47, 48, 49, 95] {
        for seed in 0..4u64 {
            let mut wrng = Rng::seed_from(seed * 1000 + cols as u64);
            let w = laplace_matrix(6, cols, &mut wrng);
            let packed = pack(&w);
            let x: Vec<f32> = (0..cols).map(|_| rng.normal(0.0, 1.0)).collect();
            let fused = packed.matvec(&x);
            let dq = packed.dequantize();
            for (r, &yv) in fused.iter().enumerate() {
                let reference: f32 = dq.row(r).iter().zip(&x).map(|(a, b)| a * b).sum();
                assert!(
                    (yv - reference).abs() < 1e-5,
                    "cols {cols} seed {seed} row {r}: fused {yv} vs reference {reference}"
                );
            }
        }
    }
}

/// The fused batched kernel agrees with the dense reference on random shapes.
#[test]
fn fused_matmul_t_matches_reference() {
    let mut rng = Rng::seed_from(7);
    for (rows, cols, n) in [(3usize, 9usize, 4usize), (8, 65, 7), (17, 130, 3), (5, 44, 1)] {
        let w = laplace_matrix(rows, cols, &mut rng);
        let packed = pack(&w);
        let dq = packed.dequantize();

        let a = Matrix::from_fn(n, cols, |_, _| rng.normal(0.0, 1.0));
        let yt = packed.matmul_t(&a);
        assert!(yt.sub(&a.matmul_transpose(&dq)).abs_max() < 1e-5, "matmul_t {rows}x{cols}x{n}");
    }
}

/// `dequantize` is allocate-then-`dequantize_into`: a stale buffer is
/// overwritten in full (`NaN != NaN` would fail an unwritten element).
#[test]
fn dequantize_into_reuses_buffers_faithfully() {
    let mut rng = Rng::seed_from(9);
    let w = laplace_matrix(11, 59, &mut rng);
    let packed = pack(&w);
    let mut scratch = Matrix::from_fn(11, 59, |_, _| f32::NAN); // stale junk
    packed.dequantize_into(&mut scratch);
    assert_eq!(scratch, packed.dequantize());
}

/// A `FineQuantizer`-quantized transformer stores actual packed blocks (no
/// fp32 copy of quantized sites) and its forward/forward_step logits match
/// the dequantize-reference path within 1e-4.
#[test]
fn packed_model_executes_like_the_reference() {
    let corpus = Corpus::wiki_like(64, 15);
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 4_000, 3);
    let cfg = PipelineConfig::default();
    let q = FineQuantizer::paper();
    let (packed_model, report) = quantize_model_packed(&model, &q, &cfg);
    let (reference, _) = quantize_model(&model, &q, None, &cfg);

    // Storage really is packed at every site.
    assert!(packed_model.is_fully_packed());
    for l in 0..packed_model.n_layers() {
        for site in WeightSite::ALL {
            assert!(packed_model.weight(l, site).as_packed().is_some(), "{l} {site:?}");
        }
    }
    assert!(report.avg_bits < 5.0, "{}", report.avg_bits);

    // Full-sequence logits match.
    let test = corpus.generate(768, 21);
    for chunk in test.tokens().chunks(96) {
        let lp = packed_model.forward(chunk);
        let lr = reference.forward(chunk);
        assert!(lp.sub(&lr).abs_max() < 1e-4, "forward mismatch {}", lp.sub(&lr).abs_max());
    }

    // Incremental decoding matches too.
    let mut cp = KvCache::new(model.n_layers(), model.config().d_model);
    let mut cr = KvCache::new(model.n_layers(), model.config().d_model);
    for &tok in &test.tokens()[..32] {
        let lp = packed_model.forward_step(tok, &mut cp);
        let lr = reference.forward_step(tok, &mut cr);
        for (a, b) in lp.iter().zip(&lr) {
            assert!((a - b).abs() < 1e-4, "step mismatch {a} vs {b}");
        }
    }
}

/// End-to-end accuracy: packed-model perplexity equals the dequantized
/// model's within floating-point tolerance.
#[test]
fn packed_model_perplexity_equals_dequantized_reference() {
    let corpus = Corpus::wiki_like(64, 23);
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 4_000, 8);
    let cfg = PipelineConfig::default();
    let q = FineQuantizer::paper();
    let (packed_model, _) = quantize_model_packed(&model, &q, &cfg);
    let (reference, _) = quantize_model(&model, &q, None, &cfg);
    let test = corpus.generate(1_536, 44);
    let pp = perplexity(&packed_model, test.tokens(), 256);
    let dp = perplexity(&reference, test.tokens(), 256);
    assert!((pp - dp).abs() < 1e-3 * dp, "packed ppl {pp} vs dequantized reference {dp}");
    // And the packed model is usable: same sanity bound the dense FineQ
    // path asserts.
    let fp16 = perplexity(&model, test.tokens(), 256);
    assert!(pp < fp16 * 20.0, "packed ppl {pp} vs fp16 {fp16}");
}

/// Lane traffic of a packed model, counted from the SWAR decode of every
/// stored block (padding lanes included): the workload shape the sparse
/// lane walk in `kernels.rs` is designed around.
#[derive(Debug, Default)]
struct LaneCensus {
    lanes: usize,
    live_two_bit: usize,
    live_three_bit: usize,
    live_clusters: usize,
}

fn lane_census(model: &Transformer) -> LaneCensus {
    let mut census = LaneCensus::default();
    for l in 0..model.n_layers() {
        for site in WeightSite::ALL {
            let packed = model.weight(l, site).as_packed().expect("packed site");
            for block in packed.channels().iter().flat_map(|ch| ch.blocks().chunks_exact(7)) {
                let (two, three) = decode_block_swar(block[0], block_data_word(block));
                census.lanes += two.len();
                census.live_two_bit += two.iter().filter(|&&q| q != 0).count();
                census.live_three_bit += three.iter().filter(|&&q| q != 0).count();
                census.live_clusters += (two.chunks(3).zip(three.chunks(3)))
                    .filter(|(t, h)| t.iter().chain(*h).any(|&q| q != 0))
                    .count();
            }
        }
    }
    census
}

/// Traffic on record: the lane census of the served gate model (the same
/// config, seed and draw order as `bench/`'s `gate_model()`, the model all
/// four `BENCHMARK.json` workloads serve). Under today's quantizer a 2-bit
/// lane is almost never live (its scale is the channel's non-outlier
/// maximum, so only weights past half of it round to ±1) and fewer than
/// one cluster in four holds any nonzero lane — the shape the kernels'
/// live-cluster walk is built for. A quantizer change that moves these
/// shares changes what the kernel should be; it must fail here, loudly.
#[test]
fn gate_model_lane_census_is_on_record() {
    let mut model = Transformer::zeros(ModelConfig::new(64, 256, 2, 4, 512));
    let spec = BuilderSpec::tiny();
    let mut rng = Rng::seed_from(41);
    // The embedding and head draws come first in the benchmark's model.
    for _ in 0..2 * 64 * 256 {
        rng.normal(0.0, 0.3);
    }
    for l in 0..model.n_layers() {
        for site in WeightSite::ALL {
            let (rows, cols) = (model.weight(l, site).rows(), model.weight(l, site).cols());
            *model.weight_mut(l, site) = llm_like_matrix(rows, cols, &spec, &mut rng).into();
        }
    }
    let (packed, _) =
        quantize_model_packed(&model, &FineQuantizer::paper(), &PipelineConfig::default());
    let c = lane_census(&packed);
    let share = |n: usize, of: usize| (n as f64 / of as f64 * 1e3).round() / 1e3;
    assert_eq!(c.lanes, 1_081_344);
    assert_eq!(share(c.live_two_bit, c.lanes), 0.002, "live 2-bit lanes: {c:?}");
    assert_eq!(share(c.live_three_bit, c.lanes), 0.084, "live 3-bit lanes: {c:?}");
    assert_eq!(share(c.live_clusters, c.lanes / 3), 0.224, "live clusters: {c:?}");
}

/// The serving-memory model sees the measured packed footprint, and on
/// serving-shaped widths (the benchmark's gate model) the packed body is at
/// most 0.16x the dense fp32 bytes — 2.33/32 ≈ 0.073 plus per-channel
/// scales and block padding.
#[test]
fn packed_model_shrinks_measured_serving_footprint() {
    let mut model = Transformer::zeros(ModelConfig::new(64, 256, 2, 4, 512));
    let mut rng = Rng::seed_from(29);
    for l in 0..model.n_layers() {
        for site in WeightSite::ALL {
            let (rows, cols) = (model.weight(l, site).rows(), model.weight(l, site).cols());
            *model.weight_mut(l, site) = laplace_matrix(rows, cols, &mut rng).into();
        }
    }
    let (packed_model, _) =
        quantize_model_packed(&model, &FineQuantizer::paper(), &PipelineConfig::default());
    let ratio = packed_model.body_weight_bytes() as f64 / model.body_weight_bytes() as f64;
    assert!(ratio <= 0.16, "packed body must be <= 0.16x dense fp32, got {ratio:.4}");
    let device = 2.0 * model.weight_footprint_bytes() as f64;
    let dense_plan = ServingMemory::from_model(&model, device);
    let packed_plan = ServingMemory::from_model(&packed_model, device);
    assert!(packed_plan.weight_bytes() < dense_plan.weight_bytes());
    assert!(packed_plan.weight_bits() < dense_plan.weight_bits());
    assert!(packed_plan.max_concurrent_tokens(0.05) > dense_plan.max_concurrent_tokens(0.05));
}
