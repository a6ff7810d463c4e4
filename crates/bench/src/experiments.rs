//! Experiment implementations, one function per paper table or figure;
//! the `fineq-paper` binary runs them by name (see the README's Notes).

use fineq::accel::sim::{PipelineSim, SimConfig};
use fineq::accel::workload::Workload;
use fineq::accel::{AcceleratorKind, CostModel};
use fineq::core::{FineQConfig, FineQuantizer};
use fineq::lm::builder::{build_fitted_model, BuilderSpec};
use fineq::lm::corpus::Corpus;
use fineq::lm::eval::perplexity;
use fineq::lm::memory::ServingMemory;
use fineq::lm::{SimPreset, Transformer};
use fineq::pipeline::{collect_calibration, quantize_model, ModelCalibration, PipelineConfig};
use fineq::quant::{Gptq, Owq, PbLlm, Rtn, Uniform, WeightQuantizer};
use fineq::tensor::{Histogram, Matrix, Rng, Summary};

/// Workload sizes for the accuracy experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalSizes {
    /// Tokens used to fit each constructed model's head.
    pub train_tokens: usize,
    /// Held-out tokens evaluated for perplexity.
    pub test_tokens: usize,
    /// Calibration tokens for GPTQ/OWQ.
    pub calib_tokens: usize,
    /// Evaluation window (the paper's Table I uses 2048).
    pub window: usize,
}

impl EvalSizes {
    /// Full sizes (paper-like), or reduced ones when `FINEQ_FAST=1`.
    pub fn from_env() -> Self {
        if std::env::var("FINEQ_FAST").map(|v| v == "1").unwrap_or(false) {
            Self { train_tokens: 4096, test_tokens: 1024, calib_tokens: 256, window: 512 }
        } else {
            Self { train_tokens: 16384, test_tokens: 2048, calib_tokens: 768, window: 2048 }
        }
    }
}

/// The quantization method suite of Table I (everything except fp16).
///
/// OWQ's group size is scaled from the paper's 128 (at width 4096) to 32
/// so a sim-width row still holds several groups.
pub fn method_suite() -> Vec<Box<dyn WeightQuantizer>> {
    vec![
        Box::new(Rtn::new(2)),
        Box::new(Uniform::new(2)),
        Box::new(Gptq::new(2)),
        Box::new(PbLlm::new(0.10)),
        Box::new(Owq::new(2, 32, 0.01)),
        Box::new(FineQuantizer::paper()),
    ]
}

/// A fitted model with its corpus and calibration, ready for sweeps.
pub struct Fixture {
    /// Model label.
    pub label: String,
    /// Dataset label.
    pub dataset: String,
    /// The fp16 constructed model.
    pub model: Transformer,
    /// The corpus it was fitted on.
    pub corpus: Corpus,
    /// Held-out evaluation tokens.
    pub test: Vec<usize>,
    /// Calibration activations.
    pub calib: ModelCalibration,
}

/// Builds the `(preset, dataset)` fixture used across experiments.
pub fn build_fixture(preset: SimPreset, dataset: &str, sizes: EvalSizes) -> Fixture {
    let vocab = preset.model_config().vocab;
    let corpus = match dataset {
        "wiki" => Corpus::wiki_like(vocab, 2024),
        "c4" => Corpus::c4_like(vocab, 4242),
        other => panic!("unknown dataset {other}"),
    };
    let spec = BuilderSpec::for_preset(preset);
    let seed = 11 + preset as u64 * 31;
    let (model, _) = build_fitted_model(&spec, &corpus, sizes.train_tokens, seed);
    let test = corpus.generate(sizes.test_tokens, 999).tokens().to_vec();
    let calib_stream = corpus.generate(sizes.calib_tokens, 555);
    let calib = collect_calibration(&model, calib_stream.tokens(), 256);
    Fixture {
        label: preset.label().to_string(),
        dataset: dataset.to_string(),
        model,
        corpus,
        test,
        calib,
    }
}

/// One (method, model, dataset) perplexity cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PplCell {
    /// Method label.
    pub method: String,
    /// Storage bits per weight (model average).
    pub avg_bits: f64,
    /// Model label.
    pub model: String,
    /// Dataset label.
    pub dataset: String,
    /// Measured perplexity.
    pub ppl: f64,
}

fn eval_methods(fixture: &Fixture, window: usize) -> Vec<PplCell> {
    let cfg = PipelineConfig::default();
    let mut out = Vec::new();
    let fp16 = perplexity(&fixture.model, &fixture.test, window);
    out.push(PplCell {
        method: "FP16".into(),
        avg_bits: 16.0,
        model: fixture.label.clone(),
        dataset: fixture.dataset.clone(),
        ppl: fp16,
    });
    for m in method_suite() {
        let (qmodel, report) =
            quantize_model(&fixture.model, m.as_ref(), Some(&fixture.calib), &cfg);
        let ppl = perplexity(&qmodel, &fixture.test, window);
        out.push(PplCell {
            method: m.name(),
            avg_bits: report.avg_bits,
            model: fixture.label.clone(),
            dataset: fixture.dataset.clone(),
            ppl,
        });
    }
    out
}

fn render_ppl_table(title: &str, cells: &[PplCell], col_keys: &[(String, String)]) -> String {
    let mut s = format!("\n=== {title} ===\n{:<16} {:>9}", "Method", "AvgBits");
    for (m, d) in col_keys {
        s += &format!(
            " {:>16}",
            format!("{} {}", m.replace("LLaMA-2-", "").replace("(sim)", ""), d)
        );
    }
    s.push('\n');
    let methods: Vec<String> = {
        let mut seen = Vec::new();
        for c in cells {
            if !seen.contains(&c.method) {
                seen.push(c.method.clone());
            }
        }
        seen
    };
    for method in &methods {
        let bits = cells.iter().find(|c| &c.method == method).map(|c| c.avg_bits).unwrap_or(0.0);
        s += &format!("{:<16} {:>9.2}", method, bits);
        for (m, d) in col_keys {
            let cell = cells
                .iter()
                .find(|c| &c.method == method && c.model.contains(m.as_str()) && &c.dataset == d);
            match cell {
                Some(c) => s += &format!(" {:>16.2}", c.ppl),
                None => s += &format!(" {:>16}", "-"),
            }
        }
        s.push('\n');
    }
    s
}

/// Table I: perplexity of all methods on all models and both corpora.
pub fn table1(sizes: EvalSizes) -> String {
    let mut cells = Vec::new();
    let mut cols = Vec::new();
    for preset in SimPreset::ALL {
        for dataset in ["wiki", "c4"] {
            let fixture = build_fixture(preset, dataset, sizes);
            cells.extend(eval_methods(&fixture, sizes.window));
            cols.push((preset.label().to_string(), dataset.to_string()));
        }
    }
    render_ppl_table(
        "Table I: perplexity, sim-LLaMA family, seq 2048 (synthetic corpora)",
        &cells,
        &cols,
    )
}

/// Table II: sequence-length sensitivity on the 7B stand-in.
pub fn table2(sizes: EvalSizes) -> String {
    let mut s = String::from("\n=== Table II: perplexity across sequence lengths (7B sim) ===\n");
    s += &format!("{:<16} {:>9}", "Method", "AvgBits");
    for seq in [32usize, 256, 1024] {
        for d in ["wiki", "c4"] {
            s += &format!(" {:>12}", format!("{d}@{seq}"));
        }
    }
    s.push('\n');
    let fixtures: Vec<Fixture> =
        ["wiki", "c4"].iter().map(|d| build_fixture(SimPreset::Sim7B, d, sizes)).collect();
    let mut rows: Vec<(String, f64, Vec<f64>)> = Vec::new();
    for (mi, name) in std::iter::once("FP16".to_string())
        .chain(method_suite().iter().map(|m| m.name()))
        .enumerate()
    {
        rows.push((name, if mi == 0 { 16.0 } else { 0.0 }, Vec::new()));
    }
    for seq in [32usize, 256, 1024] {
        for fixture in &fixtures {
            let cells = eval_methods(fixture, seq);
            for (i, c) in cells.iter().enumerate() {
                rows[i].1 = c.avg_bits;
                rows[i].2.push(c.ppl);
            }
        }
    }
    for (name, bits, ppls) in rows {
        s += &format!("{:<16} {:>9.2}", name, bits);
        for p in ppls {
            s += &format!(" {:>12.2}", p);
        }
        s.push('\n');
    }
    s
}

/// Table III: area and power of the core modules (calibrated cost model).
pub fn table3() -> String {
    let cost = CostModel::paper();
    let mut s = String::from(
        "\n=== Table III: area and power of accelerator core modules (45 nm, 400 MHz) ===\n",
    );
    s += &format!(
        "{:<24} {:>12} {:>12} {:>12}\n",
        "Architecture", "Setup", "Area (mm^2)", "Power (mW)"
    );
    for m in cost.modules(AcceleratorKind::BaselineSystolic) {
        s += &format!(
            "{:<24} {:>12} {:>12.3} {:>12.3}\n",
            m.name, "64x64 PEs", m.area_mm2, m.power_mw
        );
    }
    for m in cost.modules(AcceleratorKind::FineqTemporal) {
        let setup = if m.name.contains("Decoder") { "64" } else { "64x64 PEs" };
        s += &format!("{:<24} {:>12} {:>12.3} {:>12.3}\n", m.name, setup, m.area_mm2, m.power_mw);
    }
    s += &format!(
        "PE-array area reduction: {:.1}%   power reduction: {:.1}%\n",
        100.0 * cost.array_area_reduction(),
        100.0 * cost.array_power_reduction()
    );
    s
}

/// Fig. 1: perplexity vs bit-width on the 7B stand-in, C4-like corpus.
pub fn fig1(sizes: EvalSizes) -> String {
    let fixture = build_fixture(SimPreset::Sim7B, "c4", sizes);
    let cfg = PipelineConfig::default();
    let mut s = String::from("\n=== Fig. 1: perplexity vs bit-width (7B sim, C4-like) ===\n");
    s += &format!("{:<10} {:>8} {:>10} {:>10}\n", "Bits", "RTN", "GPTQ", "Uniform");
    let fp16 = perplexity(&fixture.model, &fixture.test, sizes.window);
    for bits in [16u8, 8, 4, 3, 2] {
        let mut row = format!("{:<10}", bits);
        for method in ["rtn", "gptq", "uniform"] {
            let q: Box<dyn WeightQuantizer> = match method {
                "rtn" => Box::new(Rtn::new(bits)),
                "gptq" => Box::new(Gptq::new(bits)),
                _ => Box::new(Uniform::new(bits)),
            };
            let (qm, _) = quantize_model(&fixture.model, q.as_ref(), Some(&fixture.calib), &cfg);
            row += &format!(" {:>9.2}", perplexity(&qm, &fixture.test, sizes.window));
        }
        s += &row;
        s.push('\n');
    }
    let (qm, rep) =
        quantize_model(&fixture.model, &FineQuantizer::paper(), Some(&fixture.calib), &cfg);
    s += &format!(
        "FineQ ({:.2} bits): {:.2}    FP16: {:.2}\n",
        rep.avg_bits,
        perplexity(&qm, &fixture.test, sizes.window),
        fp16
    );
    s
}

/// Fig. 2b: serving-memory layout of LLaMA-2-13B on a 40 GB device.
pub fn fig2b() -> String {
    let fp16 = ServingMemory::llama2_13b_a100();
    let fineq = fp16.clone().with_weight_bits(7.0 / 3.0);
    let l16 = fp16.layout();
    let lq = fineq.layout();
    let mut s = String::from("\n=== Fig. 2b: memory layout serving LLaMA-2-13B on 40 GB ===\n");
    s += &format!(
        "fp16 : weights {:>5.1}%  kv-cache {:>5.1}%  others {:>4.1}%  ({:.1} GB weights)\n",
        100.0 * l16.weights_frac,
        100.0 * l16.kv_frac,
        100.0 * l16.other_frac,
        fp16.weight_bytes / 1e9
    );
    s += &format!(
        "FineQ: weights {:>5.1}%  kv-cache {:>5.1}%  others {:>4.1}%  ({:.1} GB weights)\n",
        100.0 * lq.weights_frac,
        100.0 * lq.kv_frac,
        100.0 * lq.other_frac,
        fineq.weight_bytes / 1e9
    );
    s
}

/// Fig. 3b: weight distribution of a representative layer and perplexity
/// under uniform quantization at decreasing bit-widths.
pub fn fig3b(sizes: EvalSizes) -> String {
    let fixture = build_fixture(SimPreset::Sim7B, "wiki", sizes);
    let w = fixture.model.weight(0, fineq::lm::WeightSite::FfnUp).dense();
    let summary = Summary::of(w.as_slice());
    let lim = summary.abs_max;
    let hist = Histogram::build(w.as_slice(), -lim, lim, 21);
    let outlier_frac = Summary::outlier_fraction(w.as_slice(), (6.0 * summary.std_dev) as f32);
    let mut s = String::from(
        "\n=== Fig. 3b: weight distribution and uniform-quantization sweep (7B sim) ===\n",
    );
    s += &format!(
        "layer ffn.up: std {:.4}, kurtosis {:.1}, |w|>6sigma outliers {:.3}% (paper: ~0.3%)\n",
        summary.std_dev,
        summary.kurtosis,
        100.0 * outlier_frac
    );
    s += &hist.render(40);
    s += &format!("{:<8} {:>14} {:>14}\n", "Bits", "PPL(unif/ch)", "PPL(unif/tensor)");
    let cfg = PipelineConfig::default();
    for bits in [16u8, 8, 4, 3, 2] {
        let (qc, _) = quantize_model(&fixture.model, &Uniform::per_channel(bits), None, &cfg);
        let (qt, _) = quantize_model(&fixture.model, &Uniform::new(bits), None, &cfg);
        s += &format!(
            "{:<8} {:>14.2} {:>14.2}\n",
            bits,
            perplexity(&qc, &fixture.test, sizes.window),
            perplexity(&qt, &fixture.test, sizes.window)
        );
    }
    s
}

/// Fig. 8: power breakdown of the FineQ PE array.
pub fn fig8() -> String {
    let (acc, pe, te) = CostModel::paper().fineq_power_split_mw();
    let total = acc + pe + te;
    format!(
        "\n=== Fig. 8: FineQ PE-array power breakdown ===\nACC              {:>7.3} mW ({:>4.1}%)\nPE Array         {:>7.3} mW ({:>4.1}%)\nTemporal Encoder {:>7.3} mW ({:>4.1}%)\n",
        acc,
        100.0 * acc / total,
        pe,
        100.0 * pe / total,
        te,
        100.0 * te / total
    )
}

/// Fig. 9: normalized energy efficiency on the LLaMA-family GEMM mixes.
pub fn fig9() -> String {
    let sim = PipelineSim::new(SimConfig::default());
    let mut s = String::from("\n=== Fig. 9: normalized energy efficiency over baseline ===\n");
    s += &format!(
        "{:<14} {:>14} {:>16} {:>16} {:>10}\n",
        "Model", "cycles/step", "base E (mJ)", "FineQ E (mJ)", "norm. EE"
    );
    let mut ees = Vec::new();
    for preset in SimPreset::ALL {
        let (d, dff, l) = preset.hw_gemm_shapes();
        let w = Workload::llama_like(preset.label(), d, dff, l, 256);
        let cmp = sim.run(&w);
        let ee = cmp.normalized_ee();
        ees.push(ee);
        s += &format!(
            "{:<14} {:>14.3} {:>16.3} {:>16.3} {:>10.3}\n",
            preset.label().replace("LLaMA-2-", "").replace("(sim)", ""),
            cmp.fineq.cycles_per_step,
            cmp.baseline.energy_mj,
            cmp.fineq.energy_mj,
            ee
        );
    }
    s += &format!(
        "average: {:.3} (paper: up to 1.79x)\n",
        ees.iter().sum::<f64>() / ees.len() as f64
    );
    s
}

/// Ablations beyond the paper: outlier threshold, pair constraint and
/// reconstruction error / storage trade-offs on representative weights.
pub fn ablations() -> String {
    let mut rng = Rng::seed_from(31);
    let spec = BuilderSpec::for_preset(SimPreset::Sim7B);
    let w = fineq::lm::builder::llm_like_matrix(256, 1024, &spec, &mut rng);
    let mut s = String::from(
        "\n=== Ablations: FineQ configuration sweeps (synthetic 256x1024 layer) ===\n",
    );
    s += &format!("{:<34} {:>10} {:>14} {:>14}\n", "Config", "bits", "MSE", "outlier frac");
    let calib = fineq::quant::Calibration::none();
    let configs = [
        ("paper (t=4, pair)", FineQConfig::paper()),
        ("threshold 2x", FineQConfig { outlier_threshold: 2.0, ..FineQConfig::paper() }),
        ("threshold 8x", FineQConfig { outlier_threshold: 8.0, ..FineQConfig::paper() }),
        ("no pair constraint", FineQConfig { pair_constraint: false, ..FineQConfig::paper() }),
        ("3b/4b variant", FineQConfig { normal_bits: 3, outlier_bits: 4, ..FineQConfig::paper() }),
    ];
    for (label, cfg) in configs {
        let q = FineQuantizer::with_config(cfg);
        let out = q.quantize(&w, &calib);
        let stats = q.stats(&w);
        s += &format!(
            "{:<34} {:>10.2} {:>14.6e} {:>14.3}\n",
            label,
            out.avg_bits,
            out.dequantized.mse(&w),
            stats.outlier_fraction()
        );
    }
    let _ = Matrix::zeros(1, 1);
    s
}
