//! Micro-benchmarks of the core kernels: FineQ quantization,
//! packing/decoding, the temporal-coding array and the baseline MAC
//! array, plus a transformer forward pass.
//!
//! Uses the in-tree harness (`fineq_bench::timing`); the build container
//! has no crates.io access, so criterion is not available.

use fineq::accel::{SystolicArray, TemporalArray};
use fineq::core::frame::{frame_bytes, Listener};
use fineq::core::serialize::{from_bytes, to_bytes};
use fineq::core::{
    shard_from_bytes, shard_to_bytes, ClusterCode, FineQuantizer, KernelScratch, MetricsRegistry,
    PackedMatrix, ShardHeader,
};
use fineq::lm::builder::{build_fitted_model, llm_like_matrix, BuilderSpec};
use fineq::lm::corpus::Corpus;
use fineq::lm::remote::{serve_connection, Worker};
use fineq::lm::{
    BatchKvCache, BatchScheduler, KvCache, ModelConfig, RemoteShardedModel, ServeModel,
    ServeRequest, ShardPlan, Transformer, WeightSite,
};
use fineq::pipeline::{quantize_model_packed, PipelineConfig};
use fineq::quant::{Calibration, Gptq, Rtn, WeightQuantizer};
use fineq::tensor::{Matrix, Rng};
use fineq_bench::timing::{bench, section};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed repeats of a `first_token` row; the median is reported.
const SAMPLES: usize = 9;
/// Timed repeats of a one-step row of `forward` and `attention`.
const STEP_SAMPLES: usize = 31;

/// The median of `n` samples of `sample`, each a µs reading.
fn median_us(n: usize, mut sample: impl FnMut() -> f64) -> f64 {
    let mut us: Vec<f64> = (0..n).map(|_| sample()).collect();
    us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    us[n / 2]
}

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

    // One matrix of the benchmark's `quantize_pack` loop: the per-layer
    // before/after of a quantizer change (plan + pack, then plan only).
    section("quantize 512x1536 llm-like");
    let w = llm_like_matrix(512, 1536, &BuilderSpec::tiny(), &mut Rng::seed_from(1));
    bench("fineq_packed", || fineq.quantize_packed(black_box(&w)));
    bench("fineq_stats", || fineq.stats(black_box(&w)));

    // The quantizer part of every `bench/` workload's set-up: all 14 block
    // sites of the dense gate model packed, the fp32 head kept.
    section("quantize gate model 64x256x2");
    let dense = dense_gate_model();
    let config = PipelineConfig::default();
    bench("quantize_model_packed", || quantize_model_packed(black_box(&dense), &fineq, &config));
}

/// The `bench/` gate model (`ModelConfig::new(64, 256, 2, 4, 512)`) with
/// seeded LLM-like dense weights at every block site.
fn dense_gate_model() -> Transformer {
    let cfg = ModelConfig::new(64, 256, 2, 4, 512);
    let mut rng = Rng::seed_from(41);
    let mut dense = Transformer::zeros(cfg.clone());
    *dense.embedding_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.3));
    *dense.head_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.3));
    for l in 0..dense.n_layers() {
        for site in WeightSite::ALL {
            let (r, c) = (dense.weight(l, site).rows(), dense.weight(l, site).cols());
            *dense.weight_mut(l, site) =
                llm_like_matrix(r, c, &BuilderSpec::tiny(), &mut rng).into();
        }
    }
    dense
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
    let body = (0..rows)
        .flat_map(|_| {
            let codes: Vec<ClusterCode> =
                (0..n_clusters.div_ceil(2)).map(|_| ClusterCode::ALL[rng.below(4)]).collect();
            let q: Vec<[i32; 3]> = (0..n_clusters)
                .map(|k| match codes[k / 2].zeroed_position() {
                    None => [0, 1, 2].map(|_| nonzero(&mut rng, 1)),
                    Some(z) => [0, 1, 2].map(|p| if p == z { 0 } else { nonzero(&mut rng, 3) }),
                })
                .collect();
            PackedMatrix::pack_channel(0.02, 0.05, cols, &codes, &q).body().to_vec()
        })
        .collect();
    PackedMatrix::from_body(rows, cols, body)
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

/// The fp32 logit readout `hidden · headᵀ` ([`Matrix::matmul_transpose`],
/// the dense panel kernel) at the row counts that exercise each of its
/// tiles, for the head of the Sim3B preset `quantize_pack` serves
/// (256 × 96) and the gate-shape head (64 × 256).
fn bench_head_readout() {
    section("head readout: matmul_transpose, rows of hidden state");
    let mut rng = Rng::seed_from(17);
    for (name, vocab, d_model) in [("Sim3B 256x96", 256usize, 96usize), ("gate 64x256", 64, 256)] {
        let head = Matrix::from_fn(vocab, d_model, |_, _| rng.normal(0.0, 0.3));
        for t_len in [1usize, 10, 16, 32] {
            let hidden = Matrix::from_fn(t_len, d_model, |_, _| rng.normal(0.0, 1.0));
            bench(&format!("head readout {name} x{t_len}"), || {
                black_box(&hidden).matmul_transpose(black_box(&head))
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

    let packed = fixture_model();
    let window: Vec<usize> = (0..256).map(|i| (i * 5 + 1) % 64).collect();
    bench("transformer_forward_256tok packed gate shape", || packed.forward(black_box(&window)));

    // A solo decode step at 64 cached positions: every sample steps its own
    // copy of one 64-position cache, so the context never grows.
    let cfg = packed.config();
    let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
    for &tok in &window[..64] {
        packed.forward_step(tok, &mut cache);
    }
    let us = median_us(STEP_SAMPLES, || {
        let mut c = cache.clone();
        let t = Instant::now();
        black_box(packed.forward_step(black_box(window[64]), &mut c));
        t.elapsed().as_secs_f64() * 1e6
    });
    println!(
        "{:<44} {us:>10.0} us   (median of {STEP_SAMPLES})",
        "forward_step solo packed gate shape, 64 cached"
    );
}

/// Attention's cost per cached position, read from outside the step: a
/// batch-16 step (one row per slot) and a one-row step of the packed gate
/// shape with 24, 72 and 264 positions cached per stepped slot. The sites
/// and the head cost the same at every context, so the slope between rows
/// is attention's — printed per row count as µs per cached position. The
/// contexts sit mid-page: at a multiple of the 16-position KV page every
/// stepped slot would open a fresh page in each sample, and that cost
/// would read as attention's.
fn bench_attention() {
    section("attention: packed gate-shape step vs cached positions per slot");
    let model = fixture_model();
    let cfg = model.config().clone();
    for rows in [16usize, 1] {
        let mut by_ctx = Vec::new();
        for ctx in [24usize, 72, 264] {
            let mut cache = BatchKvCache::new(cfg.n_layers, cfg.d_model, 16);
            for slot in 0..rows {
                let prompt: Vec<usize> = (0..ctx).map(|i| (i * 5 + slot * 11 + 1) % 64).collect();
                model.forward_step_batch(&prompt, &vec![slot; ctx], &mut cache);
            }
            let tokens: Vec<usize> = (0..rows).map(|i| (i * 7 + 3) % 64).collect();
            let slots: Vec<usize> = (0..rows).collect();
            // Every sample steps its own copy of the filled cache, so the
            // context never grows.
            let us = median_us(STEP_SAMPLES, || {
                let mut c = cache.clone();
                let t = Instant::now();
                black_box(model.forward_step_batch(black_box(&tokens), &slots, &mut c));
                t.elapsed().as_secs_f64() * 1e6
            });
            println!(
                "{:<44} {us:>10.0} us   (median of {STEP_SAMPLES})",
                format!("attention step x{rows}, {ctx} cached")
            );
            by_ctx.push((ctx, us));
        }
        let ((c0, us0), (c1, us1)) = (by_ctx[0], by_ctx[by_ctx.len() - 1]);
        println!(
            "{:<44} {:>10.2} us per cached position",
            format!("attention slope x{rows}, {c0}..{c1} cached"),
            (us1 - us0) / (c1 - c0) as f64
        );
    }
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
            let us = median_us(SAMPLES, || {
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
            });
            println!(
                "{:<44} {steps:>4} steps {us:>10.0} us   (median of {SAMPLES})",
                format!("first_token prompt {prompt_len}, {decoding} decoding")
            );
        }
    }
}

/// Median µs of one 16-row batched step at 16..48 cached positions per
/// slot, over [`SAMPLES`] fresh caches.
fn batch16_step_us(
    cfg: &ModelConfig,
    mut step: impl FnMut(&[usize], &[usize], &mut BatchKvCache) -> Matrix,
) -> f64 {
    let slots: Vec<usize> = (0..16).collect();
    let mut us = Vec::new();
    for _ in 0..SAMPLES {
        let mut cache = BatchKvCache::new(cfg.n_layers, cfg.d_model, 16);
        for s in 0..48usize {
            let tokens: Vec<usize> = (0..16).map(|i| (i * 7 + s * 13 + 3) % cfg.vocab).collect();
            let t = Instant::now();
            black_box(step(&tokens, &slots, &mut cache));
            if s >= 16 {
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    us[us.len() / 2]
}

/// The transport's own before/after: the frame codec on a gather-sized
/// payload, and one batched step through [`RemoteShardedModel`] — two
/// worker threads of this process behind Unix sockets — beside the same
/// step through the in-process model [`ShardPlan::rebuild`] decodes from
/// the same envelopes. The difference between the two step rows is what
/// the wire costs.
#[cfg(unix)]
fn bench_wire() {
    section("wire: frame codec; batch-16 step, 2 shards, in-process vs over Unix sockets");
    let payload = vec![0xA5u8; 16 << 10];
    let r =
        bench("wire frame_bytes 16 KiB (checksum + copy)", || frame_bytes(3, black_box(&payload)));
    println!("{:<44} {:>12.0} MB/s", "wire frame_bytes 16 KiB", 16384.0 / r.ns_per_iter * 1e3);

    let model = fixture_model();
    let cfg = model.config().clone();
    let rebuilt = ShardPlan::new(&model, 2).rebuild(&model);
    let mut scratch = KernelScratch::new();
    let local_us =
        batch16_step_us(&cfg, |t, s, c| rebuilt.forward_step_batch_with(t, s, c, &mut scratch));

    let dir = std::env::temp_dir().join(format!("fineq-bench-wire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let mut addrs = Vec::new();
    let mut workers = Vec::new();
    for shard in 0..2 {
        let addr = format!("unix:{}", dir.join(format!("w{shard}.sock")).display());
        let listener = Listener::bind(&addr).expect("bind worker socket");
        addrs.push(vec![addr]);
        workers.push(std::thread::spawn(move || {
            let mut worker = Worker::new();
            while let Ok(mut conn) = listener.accept() {
                if matches!(serve_connection(&mut conn, &mut worker), Ok(true)) {
                    return;
                }
            }
        }));
    }
    let remote = RemoteShardedModel::connect(&model, &addrs).expect("connect workers");
    let registry = Arc::new(MetricsRegistry::new());
    remote.set_telemetry(Arc::clone(&registry));
    let remote_us =
        batch16_step_us(&cfg, |t, s, c| remote.forward_step_batch_with(t, s, c, &mut scratch));
    // The transport's own account of what it put on the sockets (48 steps
    // per sample, warm-up included — every step moves the same bytes).
    let steps = (SAMPLES * 48) as f64;
    let per_step = |name: &str| {
        registry.counter(&format!("fineq_transport_{name}_total")).get() as f64 / steps
    };
    remote.shutdown_workers();
    for w in workers {
        w.join().expect("worker thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("{:<44} {local_us:>10.0} us/step", "wire step in-process rebuilt model");
    println!("{:<44} {remote_us:>10.0} us/step", "wire step RemoteShardedModel");
    println!(
        "{:<44} {:>10.1} sent + {:.1} received frames/step, {:.1} + {:.1} payload KB/step",
        "wire step RemoteShardedModel",
        per_step("frames_sent"),
        per_step("frames_received"),
        per_step("payload_bytes_sent") / 1e3,
        per_step("payload_bytes_received") / 1e3,
    );
}

/// The load path of one matrix of `bench/`'s `quantize_pack` loop (512 ×
/// 1536 LLM-like, quantized): parse, serialize, the shard envelope round
/// trip and a half-height row slice — the copies a matrix pays between the
/// bytes on disk or on the wire and the kernels.
fn bench_load() {
    section("load 512x1536 llm-like: serialize / parse / slice");
    let w = llm_like_matrix(512, 1536, &BuilderSpec::tiny(), &mut Rng::seed_from(1));
    let packed = FineQuantizer::paper().quantize_packed(&w);
    let bytes = to_bytes(&packed);
    let header =
        ShardHeader { shard_index: 0, n_shards: 1, site_id: 0, row_start: 0, total_rows: 512 };
    let r = bench("from_bytes", || from_bytes(black_box(&bytes)).expect("parses"));
    println!("{:<44} {:>12.0} Mweights/s", "from_bytes", (512 * 1536) as f64 / r.ns_per_iter * 1e3);
    bench("to_bytes", || to_bytes(black_box(&packed)));
    bench("shard_to_bytes + shard_from_bytes", || {
        shard_from_bytes(&shard_to_bytes(black_box(&packed), &header)).expect("parses")
    });
    bench("slice_rows(0, 256)", || black_box(&packed).slice_rows(0, 256));
}

/// `cargo bench -p fineq-bench --bench kernels [-- <name>]`: every section,
/// or only those whose name contains `<name>` (`wire`, `first_token`, ...).
fn main() {
    let sections: &[(&str, fn())] = &[
        #[cfg(unix)]
        ("wire", bench_wire),
        ("first_token", bench_first_token),
        ("quantizers", bench_quantizers),
        ("pack_decode", bench_pack_decode),
        ("load", bench_load),
        ("matmul_t", bench_matmul_t),
        ("head_readout", bench_head_readout),
        ("arrays", bench_arrays),
        ("forward", bench_forward),
        ("attention", bench_attention),
    ];
    let only = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    for &(name, run) in sections {
        if only.as_deref().is_none_or(|f| name.contains(f)) {
            run();
        }
    }
}
