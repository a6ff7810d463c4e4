//! The offline path: quantize → pack → serialize → parse → dequantize.
//!
//! This is the **write side** of the format the serving workloads only
//! read, plus the cold-start read path. It runs as the whole window of
//! `quantize_pack` and as a short fixed leg of every serving workload, so
//! that every workload reports every end-to-end metric.

use fineq::core::serialize::{from_bytes, to_bytes};
use fineq::core::{shard_from_bytes, shard_to_bytes, FineQuantizer, ShardHeader};
use fineq::lm::builder::{llm_like_matrix, BuilderSpec};
use fineq::lm::{build_fitted_model, perplexity, Corpus, SimPreset, Transformer};
use fineq::pipeline::{quantize_model_packed, PipelineConfig, QuantizeReport};
use fineq::tensor::{Matrix, Rng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shape of the loop's weight matrices: a `d_ff × d_model`-like site,
/// 786 432 weights, 64 whole blocks per channel.
pub const LOOP_ROWS: usize = 512;
pub const LOOP_COLS: usize = 1536;
pub const LOOP_POOL: usize = 8;
/// `from_bytes` calls per pass of the loop; the fastest is the pass's
/// sample. A parse takes ~25 µs, so a single one is at the mercy of one
/// cache miss or interrupt (single samples scatter ±20 %), and
/// interference only ever adds time.
const PARSE_REPS: usize = 8;

const FIXTURE_VOCAB: usize = 256;
const FIXTURE_SEED: u64 = 2024;
const FIXTURE_TRAIN_TOKENS: usize = 8192;
const HELD_OUT_TOKENS: usize = 4096;
const PPL_WINDOW: usize = 256;

/// The fitted Sim3B model, packed, with its accuracy and footprint
/// numbers. Deterministic: nothing here depends on `--seed`.
pub struct Fixture {
    pub dense: Transformer,
    pub packed: Transformer,
    pub corpus: Corpus,
    pub report: QuantizeReport,
    pub ppl_dense: f64,
    pub ppl_packed: f64,
    pub fit_s: f64,
    pub quantize_model_packed_ms: f64,
    pub total_s: f64,
}

impl Fixture {
    pub fn build() -> Fixture {
        let t0 = Instant::now();
        let corpus = Corpus::wiki_like(FIXTURE_VOCAB, FIXTURE_SEED);
        let spec = BuilderSpec::for_preset(SimPreset::Sim3B);
        let (dense, _) = build_fitted_model(&spec, &corpus, FIXTURE_TRAIN_TOKENS, FIXTURE_SEED);
        let fit_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (packed, report) =
            quantize_model_packed(&dense, &FineQuantizer::paper(), &PipelineConfig::default());
        let quantize_model_packed_ms = t1.elapsed().as_secs_f64() * 1e3;
        let held_out = corpus.generate(HELD_OUT_TOKENS, FIXTURE_SEED ^ 0x4E1D);
        let ppl_dense = perplexity(&dense, held_out.tokens(), PPL_WINDOW);
        let ppl_packed = perplexity(&packed, held_out.tokens(), PPL_WINDOW);
        Fixture {
            dense,
            packed,
            corpus,
            report,
            ppl_dense,
            ppl_packed,
            fit_s,
            quantize_model_packed_ms,
            total_s: t0.elapsed().as_secs_f64(),
        }
    }

    pub fn bits_per_weight(&self) -> f64 {
        self.report.avg_bits
    }

    pub fn ppl_ratio(&self) -> f64 {
        self.ppl_packed / self.ppl_dense
    }
}

/// The loop's inputs, generated from the run seed before timing starts.
pub fn weight_pool(seed: u64) -> Vec<Matrix> {
    let spec = BuilderSpec::tiny();
    let mut rng = Rng::seed_from(seed ^ 0x9AC4_B175);
    (0..LOOP_POOL).map(|_| llm_like_matrix(LOOP_ROWS, LOOP_COLS, &spec, &mut rng)).collect()
}

/// What one pass of the loop took, and whether its outputs held up.
#[derive(Debug, Clone, Default)]
pub struct LoopLog {
    pub quantize_s: Vec<f64>,
    pub serialize_s: Vec<f64>,
    pub parse_s: Vec<f64>,
    pub dequantize_s: Vec<f64>,
    pub failures: Vec<String>,
}

impl LoopLog {
    /// Appends the passes of a later chunk of the same loop.
    pub fn extend(&mut self, later: LoopLog) {
        self.quantize_s.extend(later.quantize_s);
        self.serialize_s.extend(later.serialize_s);
        self.parse_s.extend(later.parse_s);
        self.dequantize_s.extend(later.dequantize_s);
        self.failures.extend(later.failures);
    }

    pub fn iterations(&self) -> usize {
        self.quantize_s.len()
    }

    fn mweights_s(times: &[f64]) -> Vec<f64> {
        times.iter().map(|&s| (LOOP_ROWS * LOOP_COLS) as f64 / s / 1e6).collect()
    }

    /// Weights through `quantize_packed` per second, per iteration.
    pub fn quant_mweights_s(&self) -> Vec<f64> {
        Self::mweights_s(&self.quantize_s)
    }

    /// Weights through `from_bytes` per second, per iteration.
    pub fn load_mweights_s(&self) -> Vec<f64> {
        Self::mweights_s(&self.parse_s)
    }
}

/// Runs the loop until `budget` is spent (at least `min_iterations`).
/// Every iteration checks that the parsed matrix re-serializes to the
/// identical bytes and that the shard envelope round-trips.
pub fn run_loop(pool: &[Matrix], budget: Duration, min_iterations: usize) -> LoopLog {
    let quantizer = FineQuantizer::paper();
    let header = ShardHeader {
        shard_index: 0,
        n_shards: 1,
        site_id: 0,
        row_start: 0,
        total_rows: LOOP_ROWS as u32,
    };
    let mut log = LoopLog::default();
    let started = Instant::now();
    let mut i = 0usize;
    while i < min_iterations || started.elapsed() < budget {
        let w = &pool[i % pool.len()];
        let t = Instant::now();
        let packed = quantizer.quantize_packed(black_box(w));
        log.quantize_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let bytes = to_bytes(&packed);
        let envelope = shard_to_bytes(&packed, &header);
        log.serialize_s.push(t.elapsed().as_secs_f64());

        let timed_parse = || {
            let t = Instant::now();
            let parsed = from_bytes(black_box(&bytes));
            (parsed, t.elapsed().as_secs_f64())
        };
        let (mut parsed, mut fastest) = timed_parse();
        for _ in 1..PARSE_REPS {
            let (again, took) = timed_parse();
            parsed = again;
            fastest = fastest.min(took);
        }
        log.parse_s.push(fastest);

        match parsed {
            Ok(parsed) => {
                if to_bytes(&parsed) != bytes {
                    log.failures
                        .push(format!("iteration {i}: parse -> re-serialize changed bytes"));
                }
                let t = Instant::now();
                black_box(parsed.dequantize());
                log.dequantize_s.push(t.elapsed().as_secs_f64());
            }
            Err(e) => log.failures.push(format!("iteration {i}: from_bytes: {e}")),
        }
        match shard_from_bytes(&envelope) {
            Ok((h, m)) if h == header && m == packed => {}
            Ok(_) => log.failures.push(format!("iteration {i}: shard envelope changed in transit")),
            Err(e) => log.failures.push(format!("iteration {i}: shard_from_bytes: {e}")),
        }
        i += 1;
    }
    log
}
