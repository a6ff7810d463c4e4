//! Serving-memory planning (the paper's Fig. 2b motivation): how much KV
//! cache capacity different weight formats leave on a 40 GB device.
//!
//! ```sh
//! cargo run --release --example memory_planning
//! ```

use fineq::core::FineQuantizer;
use fineq::lm::builder::{build_fitted_model, BuilderSpec};
use fineq::lm::corpus::Corpus;
use fineq::lm::memory::ServingMemory;
use fineq::pipeline::{quantize_model_packed, PipelineConfig};

fn main() {
    let base = ServingMemory::llama2_13b_a100();
    println!("LLaMA-2-13B on a 40 GB accelerator, 5% reserved for activations\n");
    println!(
        "{:<22} {:>12} {:>10} {:>10} {:>16}",
        "Weight format", "weights(GB)", "weights%", "kv-cache%", "max KV tokens"
    );
    for (name, bits) in [
        ("fp16", 16.0),
        ("int8", 8.0),
        ("int4 (GPTQ-class)", 4.0),
        ("PB-LLM 2.7b", 2.7),
        ("FineQ 2.33b", 7.0 / 3.0),
    ] {
        let m = base.clone().with_weight_bits(bits);
        let layout = m.layout();
        println!(
            "{:<22} {:>12.1} {:>9.1}% {:>9.1}% {:>16.0}",
            name,
            m.weight_bytes / 1e9,
            100.0 * layout.weights_frac,
            100.0 * layout.kv_frac,
            m.max_concurrent_tokens()
        );
    }
    println!(
        "\nFineQ fits the 13B model in {:.1} GB — {:.1}x more concurrent KV tokens than fp16.",
        base.clone().with_weight_bits(7.0 / 3.0).weight_bytes / 1e9,
        base.clone().with_weight_bits(7.0 / 3.0).max_concurrent_tokens()
            / base.max_concurrent_tokens()
    );

    // The rows above are analytic what-ifs at paper scale. For models this
    // repository actually holds, the plan is *measured* from the real
    // buffers: pack a model and count its bytes.
    eprintln!("\nfitting a small model to measure a real packed footprint ...");
    let corpus = Corpus::wiki_like(64, 3);
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 4_000, 1);
    let (packed, _) =
        quantize_model_packed(&model, &FineQuantizer::paper(), &PipelineConfig::default());
    let device = 4.0 * model.weight_footprint_bytes() as f64;
    for (name, m) in [
        ("dense fp32 (measured)", ServingMemory::from_model(&model, device)),
        ("FineQ packed (measured)", ServingMemory::from_model(&packed, device)),
    ] {
        println!(
            "{:<24} {:>10.0} weight bytes ({:>5.2} bits/weight) -> {:>8.0} max KV tokens",
            name,
            m.weight_bytes,
            m.weight_bits(),
            m.max_concurrent_tokens()
        );
    }
}
