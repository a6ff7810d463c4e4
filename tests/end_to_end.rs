//! Cross-crate integration tests: the full FineQ pipeline from weights
//! through the packed format to the accelerator, and the paper's
//! walk-through examples.

use fineq::accel::{HardwareDecoder, SystolicArray, TemporalArray};
use fineq::core::{ClusterCode, FineQuantizer};
use fineq::lm::builder::{build_fitted_model, BuilderSpec};
use fineq::lm::corpus::Corpus;
use fineq::lm::eval::perplexity;
use fineq::pipeline::{collect_calibration, quantize_model, PipelineConfig};
use fineq::quant::{Calibration, Gptq, Owq, PbLlm, Rtn, Uniform, WeightQuantizer};
use fineq::tensor::{Matrix, Rng};

/// The Fig. 4 walk-through, end to end through the public API: quantize,
/// pack, hardware-decode, dequantize.
#[test]
fn fig4_walkthrough_through_hardware_decoder() {
    let w = Matrix::from_rows(&[
        vec![0.10, 0.12, 0.11, 0.12, 0.13, 0.04],
        vec![0.27, 0.03, 0.11, 0.19, 0.01, 0.16],
        vec![0.04, 0.02, 0.04, 0.04, 0.04, 0.03],
        vec![0.17, 0.12, 0.01, 0.01, 0.24, 0.03],
    ]);
    let packed = FineQuantizer::paper().quantize_packed(&w);

    // Hardware decoder sees exactly the software integers.
    let mut dec = HardwareDecoder::new();
    let expected = [
        ([1, 1, 1], [1, 1, 0]),
        ([3, 0, 1], [2, 0, 2]),
        ([1, 1, 1], [1, 1, 1]),
        ([2, 2, 0], [0, 3, 0]),
    ];
    for (r, (c0, c1)) in expected.iter().enumerate() {
        let lanes = dec.decode_block(&packed.channels()[r].blocks()[0..7]);
        for j in 0..3 {
            assert_eq!(lanes[0][j].signed(), c0[j], "row {r} cluster 0 lane {j}");
            assert_eq!(lanes[1][j].signed(), c1[j], "row {r} cluster 1 lane {j}");
        }
    }
    // Index codes match the paper's "00 10 00 11".
    let codes: Vec<u8> = (0..4).map(|r| packed.channels()[r].code_of(0).bits()).collect();
    assert_eq!(codes, vec![0b00, 0b10, 0b00, 0b11]);
}

/// The Fig. 7 temporal-coding walk-through: integer weights [1 1 2 2]
/// against the paper's 4x4 activation matrix give [35 29 26 37].
#[test]
fn fig7_temporal_coding_walkthrough() {
    // Craft a channel whose quantized integers are exactly
    // [1 0 1 | 2 0 2 | 3 0 0] with s3 = 0.06: three outlier clusters
    // (code 10, the weakest middle value sacrificed), the third supplying
    // the channel absmax 0.18 = 3 * s3.
    let w = Matrix::from_rows(&[vec![0.06, 0.005, 0.06, 0.12, 0.005, 0.12, 0.18, 0.0, 0.0]]);
    let packed = FineQuantizer::paper().quantize_packed(&w);
    let ch = &packed.channels()[0];
    assert_eq!(ch.cluster_ints(0), [1, 0, 1]);
    assert_eq!(ch.cluster_ints(1), [2, 0, 2]);
    assert_eq!(ch.cluster_ints(2), [3, 0, 0]);

    // Place the paper's M rows on the lanes carrying weights 1, 1, 2, 2;
    // remaining lanes read zero activations.
    let m =
        [[8.0f32, 4.0, 2.0, 3.0], [7.0, 9.0, 6.0, 6.0], [9.0, 5.0, 8.0, 8.0], [1.0, 3.0, 1.0, 6.0]];
    let lane_of = [Some(0usize), None, Some(1), Some(2), None, Some(3), None, None, None];
    let x = Matrix::from_fn(9, 4, |r, c| lane_of[r].map(|i| m[i][c]).unwrap_or(0.0));
    let (y, stats) = TemporalArray::paper().matmul(&packed, &x);
    let y_ref = packed.dequantize().matmul(&x);
    assert!(y.sub(&y_ref).abs_max() < 1e-5);
    // y = s3 * (1*M0 + 1*M1 + 2*M2 + 2*M3) = 0.06 * [35 29 26 37], the
    // paper's Fig. 7 result.
    for (j, expect) in [35.0f32, 29.0, 26.0, 37.0].iter().enumerate() {
        assert!((y[(0, j)] - 0.06 * expect).abs() < 1e-4, "col {j}: {}", y[(0, j)]);
    }
    // Early termination: the longest stream is the magnitude-3 cluster.
    assert!(stats.cycles_per_step() <= 3.0);
}

/// Quantized-model perplexity ordering (the paper's Table I shape):
/// FP16 <= FineQ < GPTQ < RTN < Uniform at ~2 bits, and the five values
/// pinned exactly.
#[test]
fn table1_ordering_holds_on_a_small_model() {
    let corpus = Corpus::wiki_like(64, 3);
    let spec = BuilderSpec::tiny();
    let (model, _) = build_fitted_model(&spec, &corpus, 6_000, 5);
    let test = corpus.generate(2_048, 77);
    let calib_stream = corpus.generate(512, 55);
    let calib = collect_calibration(&model, calib_stream.tokens(), 128);
    let cfg = PipelineConfig::default();

    let ppl = |q: &dyn WeightQuantizer| {
        let (qm, _) = quantize_model(&model, q, Some(&calib), &cfg);
        perplexity(&qm, test.tokens(), 256)
    };
    let fp16 = perplexity(&model, test.tokens(), 256);
    let fineq = ppl(&FineQuantizer::paper());
    let gptq = ppl(&Gptq::new(2));
    let rtn = ppl(&Rtn::new(2));
    let uniform = ppl(&Uniform::new(2));

    // The values themselves, pinned bit for bit: model fitting, GPTQ's
    // calibration traces and every perplexity run through `forward`, so a
    // change to any forward path's arithmetic moves at least one of them.
    let pinned = [
        ("fp16", fp16, 0x402d_019c_ac8b_9e8e_u64), // 14.503148452800158
        ("fineq", fineq, 0x402f_8141_f857_bb70),   // 15.752456436833853
        ("gptq", gptq, 0x4034_ae49_28fb_2075),     // 20.680803834257365
        ("rtn", rtn, 0x4036_2495_beee_375d),       // 22.142909939916866
        ("uniform", uniform, 0x405e_d8f3_394c_b2e3), // 123.38984520425906
    ];
    for (name, got, bits) in pinned {
        assert_eq!(got.to_bits(), bits, "{name} perplexity {got} vs {}", f64::from_bits(bits));
    }

    assert!(fp16 <= fineq * 1.02, "fp16 {fp16} vs fineq {fineq}");
    assert!(fineq < gptq, "fineq {fineq} vs gptq {gptq}");
    assert!(gptq < rtn, "gptq {gptq} vs rtn {rtn}");
    assert!(fineq < rtn, "fineq {fineq} vs rtn {rtn}");
    assert!(rtn < uniform * 1.5, "rtn {rtn} vs uniform {uniform}");
    assert!(fineq < uniform, "fineq {fineq} vs uniform {uniform}");
}

/// Every Table I method runs through the whole-model pipeline and keeps
/// the model finite.
#[test]
fn all_methods_produce_finite_models() {
    let corpus = Corpus::c4_like(64, 9);
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 4_000, 2);
    let test = corpus.generate(512, 5);
    let cfg = PipelineConfig::default();
    let methods: Vec<Box<dyn WeightQuantizer>> = vec![
        Box::new(Rtn::new(2)),
        Box::new(Uniform::new(2)),
        Box::new(Gptq::new(2)),
        Box::new(PbLlm::new(0.10)),
        Box::new(Owq::new(2, 16, 0.02)),
        Box::new(FineQuantizer::paper()),
    ];
    for m in methods {
        let (qm, report) = quantize_model(&model, m.as_ref(), None, &cfg);
        let ppl = perplexity(&qm, test.tokens(), 128);
        assert!(ppl.is_finite() && ppl > 1.0, "{}: ppl {ppl}", m.name());
        assert!(report.avg_bits > 0.5, "{}", m.name());
    }
}

/// The temporal array and the baseline array agree (on FineQ-quantized
/// weights) with the software reference for random shapes.
#[test]
fn arrays_agree_with_software_reference_on_random_shapes() {
    let mut rng = Rng::seed_from(12);
    for (m, k, n) in [(3usize, 9usize, 4usize), (8, 65, 7), (17, 130, 3)] {
        let w = Matrix::from_fn(m, k, |_, _| rng.laplace(0.0, 0.05));
        let packed = FineQuantizer::paper().quantize_packed(&w);
        let x = Matrix::from_fn(k, n, |_, _| rng.normal(0.0, 1.0));
        let (yt, _) = TemporalArray::new(16, 8).matmul(&packed, &x);
        let y_ref = packed.dequantize().matmul(&x);
        assert!(yt.sub(&y_ref).abs_max() < 1e-4, "temporal mismatch at {m}x{k}x{n}");
        let (ys, _) = SystolicArray::new(16, 8).matmul(&w, &x);
        assert!(ys.sub(&w.matmul(&x)).abs_max() < 1e-3, "systolic mismatch at {m}x{k}x{n}");
    }
}

/// Packed storage lands at the paper's 2.33 bits on realistic widths and
/// every cluster code appearing in the stats is decodable.
#[test]
fn packed_format_bit_budget_and_codes() {
    let mut rng = Rng::seed_from(21);
    let w = Matrix::from_fn(32, 3072, |_, _| {
        let v = rng.laplace(0.0, 0.01);
        if rng.chance(0.004) {
            v * 25.0
        } else {
            v
        }
    });
    let q = FineQuantizer::paper();
    let packed = q.quantize_packed(&w);
    assert!((packed.avg_bits_data() - 7.0 / 3.0).abs() < 1e-9);
    assert!(packed.avg_bits_total() < 2.35);
    let stats = q.stats(&w);
    assert_eq!(stats.total_clusters, 32 * 1024);
    assert!(stats.outlier_fraction() > 0.0 && stats.outlier_fraction() < 1.0);
    // Decoding the packed bytes twice is deterministic, and the decoded
    // values sit on the channel grids (requantizing is NOT asserted to be
    // a fixed point: weakest-position tie-breaks may legitimately pick a
    // different, equal-error encoding on exact grid values).
    let dq = packed.dequantize();
    assert_eq!(packed.dequantize(), dq);
    for (r, ch) in packed.channels().iter().enumerate() {
        let s3 = ch.scale3();
        for &v in dq.row(r) {
            let k = v / s3;
            assert!((k - k.round()).abs() < 1e-4, "off-grid value {v}");
        }
    }
}

/// Calibration actually helps GPTQ at the whole-model level.
#[test]
fn gptq_benefits_from_calibration() {
    let corpus = Corpus::wiki_like(64, 17);
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 4_000, 4);
    let test = corpus.generate(1_024, 3);
    let calib_stream = corpus.generate(512, 2);
    let calib = collect_calibration(&model, calib_stream.tokens(), 128);
    let cfg = PipelineConfig::default();
    let gptq = Gptq::new(2);
    let (with_c, _) = quantize_model(&model, &gptq, Some(&calib), &cfg);
    let (without_c, _) = quantize_model(&model, &gptq, None, &cfg);
    let p_with = perplexity(&with_c, test.tokens(), 256);
    let p_without = perplexity(&without_c, test.tokens(), 256);
    assert!(
        p_with < p_without * 1.05,
        "calibrated GPTQ {p_with} should not lose to uncalibrated {p_without}"
    );
}

/// Ablation: loosening the outlier threshold to infinity degenerates
/// FineQ toward flat 2-bit per-channel quantization and hurts accuracy on
/// outlier-heavy weights.
#[test]
fn outlier_protection_is_load_bearing() {
    use fineq::core::FineQConfig;
    let mut rng = Rng::seed_from(8);
    let w = Matrix::from_fn(24, 384, |_, _| {
        let v = rng.laplace(0.0, 0.01);
        if rng.chance(0.02) {
            v * 20.0
        } else {
            v
        }
    });
    let paper = FineQuantizer::paper();
    let no_protect = FineQuantizer::with_config(FineQConfig {
        outlier_threshold: 1e9, // rule never fires
        ..FineQConfig::paper()
    });
    let calib = Calibration::none();
    let mse_paper = paper.quantize(&w, &calib).dequantized.mse(&w);
    let mse_flat = no_protect.quantize(&w, &calib).dequantized.mse(&w);
    assert!(
        mse_paper < mse_flat * 0.8,
        "protection should cut error: {mse_paper:.3e} vs {mse_flat:.3e}"
    );
}

/// Cluster codes observed across a large random matrix cover all four
/// wire values (pair harmonization included).
#[test]
fn all_cluster_codes_are_exercised() {
    let mut rng = Rng::seed_from(33);
    let w = Matrix::from_fn(64, 96, |_, _| rng.laplace(0.0, 0.02));
    let q = FineQuantizer::paper();
    let stats = q.stats(&w);
    for (i, &count) in stats.code_counts.iter().enumerate() {
        assert!(count > 0, "code {i:02b} never appeared");
    }
    let _ = ClusterCode::ALL;
}
