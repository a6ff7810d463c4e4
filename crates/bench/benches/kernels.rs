//! Micro-benchmarks of the core kernels: FineQ quantization,
//! packing/decoding, the temporal-coding array and the baseline MAC
//! array, plus a transformer forward pass.
//!
//! Uses the in-tree harness (`fineq_bench::timing`); the build container
//! has no crates.io access, so criterion is not available.

use fineq::accel::{SystolicArray, TemporalArray};
use fineq::core::{ClusterCode, FineQuantizer, KernelScratch, PackedChannel, PackedMatrix};
use fineq::lm::builder::{build_fitted_model, BuilderSpec};
use fineq::lm::corpus::Corpus;
use fineq::lm::{BatchScheduler, ModelConfig, ServeRequest, Transformer, WeightSite};
use fineq::quant::{Calibration, Gptq, Rtn, WeightQuantizer};
use fineq::tensor::{Matrix, Rng};
use fineq_bench::timing::{bench, section};
use std::hint::black_box;
use std::time::Instant;

/// Timed repeats of a `first_token` row; the median is reported.
const SAMPLES: usize = 9;

fn weights(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        let v = rng.laplace(0.0, 0.02);
        if rng.chance(0.01) {
            v * 15.0
        } else {
            v
        }
    })
}

fn bench_quantizers() {
    section("quantize 128x768");
    let w = weights(128, 768, 1);
    let mut rng = Rng::seed_from(2);
    let x = Matrix::from_fn(256, 768, |_, _| rng.normal(0.0, 1.0));
    let calib = Calibration::from_activations(x);
    let none = Calibration::none();

    let fineq = FineQuantizer::paper();
    bench("fineq", || fineq.quantize(black_box(&w), &none));
    bench("fineq_packed", || fineq.quantize_packed(black_box(&w)));
    let rtn = Rtn::new(2);
    bench("rtn2", || rtn.quantize(black_box(&w), &none));
    let gptq = Gptq::new(2);
    bench("gptq2", || gptq.quantize(black_box(&w), &calib));
}

fn bench_pack_decode() {
    section("pack / decode 64x1536");
    let w = weights(64, 1536, 3);
    let packed = FineQuantizer::paper().quantize_packed(&w);
    bench("dequantize_packed", || packed.dequantize());
    let mut scratch = Matrix::zeros(64, 1536);
    bench("dequantize_into (no alloc)", || {
        packed.dequantize_into(black_box(&mut scratch));
    });
    bench("hardware_decode", || {
        let mut dec = fineq::accel::HardwareDecoder::new();
        for ch in packed.channels() {
            for block in ch.blocks().chunks(7) {
                black_box(dec.decode_block(block));
            }
        }
    });
}

/// A packed matrix with **every stored lane nonzero** (random codes,
/// 2-bit lanes ±1, 3-bit lanes ±1..=3): the worst case for a kernel that
/// walks only live clusters, and traffic no quantized model produces.
fn all_live(rows: usize, cols: usize, seed: u64) -> PackedMatrix {
    let mut rng = Rng::seed_from(seed);
    let n_clusters = cols.div_ceil(3);
    let nonzero = |rng: &mut Rng, max: usize| {
        let mag = 1 + rng.below(max) as i32;
        if rng.chance(0.5) {
            -mag
        } else {
            mag
        }
    };
    let channels = (0..rows)
        .map(|_| {
            let codes: Vec<ClusterCode> =
                (0..n_clusters.div_ceil(2)).map(|_| ClusterCode::ALL[rng.below(4)]).collect();
            let q: Vec<[i32; 3]> = (0..n_clusters)
                .map(|k| match codes[k / 2].zeroed_position() {
                    None => [0, 1, 2].map(|_| nonzero(&mut rng, 1)),
                    Some(z) => [0, 1, 2].map(|p| if p == z { 0 } else { nonzero(&mut rng, 3) }),
                })
                .collect();
            PackedChannel::pack(0.02, 0.05, cols, &codes, &q)
        })
        .collect();
    PackedMatrix::new(rows, cols, channels)
}

/// The batched GEMM at the row counts that exercise each tile of the lane
/// walk (1, a padded 10, a full 16, two panels at 32), over the traffic
/// the kernel is built for (the quantizer's: most clusters dead) and over
/// the traffic it must not be over-fitted against (every lane live).
fn bench_matmul_t() {
    section("matmul_t 256x512, rows of activations");
    let fixture = FineQuantizer::paper().quantize_packed(&weights(256, 512, 11));
    let dense = all_live(256, 512, 12);
    let mut rng = Rng::seed_from(13);
    let mut scratch = KernelScratch::new();
    for (name, packed) in [("quantizer fixture", &fixture), ("all lanes live", &dense)] {
        for t_len in [1usize, 10, 16, 32] {
            let a = Matrix::from_fn(t_len, 512, |_, _| rng.normal(0.0, 1.0));
            let mut out = Matrix::zeros(t_len, 256);
            bench(&format!("matmul_t {name} x{t_len}"), || {
                packed.matmul_t_into_with(black_box(&a), &mut out, &mut scratch, None);
            });
        }
    }
}

fn bench_arrays() {
    section("array GEMM 32x256x64");
    let w = weights(32, 256, 5);
    let packed = FineQuantizer::paper().quantize_packed(&w);
    let mut rng = Rng::seed_from(6);
    let x = Matrix::from_fn(256, 64, |_, _| rng.normal(0.0, 1.0));
    let temporal = TemporalArray::paper();
    bench("temporal", || temporal.matmul(black_box(&packed), black_box(&x)));
    let systolic = SystolicArray::paper();
    bench("systolic", || systolic.matmul(black_box(&w), black_box(&x)));
}

fn bench_forward() {
    section("transformer forward");
    let corpus = Corpus::wiki_like(64, 7);
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 2048, 3);
    let tokens = corpus.generate(256, 9).tokens().to_vec();
    bench("transformer_forward_256tok", || model.forward(black_box(&tokens)));
}

/// A serving-sized model (the `bench/` gate shape, 64-token vocabulary,
/// 256 wide, 2 layers) with every site packed from the quantizer fixture's
/// weight distribution.
fn fixture_model() -> Transformer {
    let cfg = ModelConfig::new(64, 256, 2, 4, 512);
    let mut rng = Rng::seed_from(21);
    let mut model = Transformer::zeros(cfg.clone());
    *model.embedding_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.3));
    *model.head_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.3));
    let quantizer = FineQuantizer::paper();
    for l in 0..model.n_layers() {
        for (s, site) in WeightSite::ALL.into_iter().enumerate() {
            let (r, c) = (model.weight(l, site).rows(), model.weight(l, site).cols());
            let seed = 30 + (l * WeightSite::ALL.len() + s) as u64;
            *model.weight_mut(l, site) = quantizer.quantize_packed(&weights(r, c, seed)).into();
        }
    }
    model
}

/// Steps and wall time from `submit` to the first sampled token of one
/// request on a 16-slot scheduler — idle, or with 15 sequences already
/// decoding (the closed-loop shape: a full panel, so the prompt still
/// pays a step per token). The before/after row of any change to how a
/// prompt is fed.
fn bench_first_token() {
    section("first token: submit -> first sampled token, 16 slots");
    let model = fixture_model();
    for decoding in [0usize, 15] {
        for prompt_len in [8usize, 24, 104] {
            let mut steps = 0;
            let mut us: Vec<f64> = (0..SAMPLES)
                .map(|_| {
                    let mut sched = BatchScheduler::new(model.clone(), 16);
                    for id in 0..decoding as u64 {
                        let req = ServeRequest::new(id, vec![1 + id as usize], 1 << 20);
                        sched.submit(req).expect("no page budget");
                    }
                    for _ in 0..8 {
                        sched.step();
                    }
                    let prompt = (0..prompt_len).map(|i| (i * 5 + 1) % 64).collect();
                    let t = Instant::now();
                    sched.submit(ServeRequest::new(u64::MAX, prompt, 1)).expect("no page budget");
                    steps = 0;
                    while sched.take_finished().is_empty() {
                        black_box(sched.step());
                        steps += 1;
                    }
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            println!(
                "{:<44} {steps:>4} steps {:>10.0} us   (median of {SAMPLES})",
                format!("first_token prompt {prompt_len}, {decoding} decoding"),
                us[SAMPLES / 2]
            );
        }
    }
}

fn main() {
    bench_first_token();
    bench_quantizers();
    bench_pack_decode();
    bench_matmul_t();
    bench_arrays();
    bench_forward();
}
