//! Whole-model quantization pipeline.
//!
//! Mirrors the paper's evaluation methodology: the quantization algorithm
//! runs **offline** on every linear layer of the transformer body;
//! activation-aware methods (GPTQ, OWQ) receive a small calibration set of
//! real layer inputs collected from a forward pass over corpus text.
//! Embeddings and the readout head stay in full precision, the standard
//! protocol of the GPTQ/OWQ line of work the paper compares against.

use fineq_core::{FineQuantizer, ThreadPool};
use fineq_lm::{
    BatchScheduler, DistributedScheduler, LinearWeight, RemoteShardedModel, Transformer,
    TransportError, WeightSite,
};
use fineq_quant::{Calibration, QuantMetrics, QuantResult, WeightQuantizer};
use fineq_tensor::Matrix;
use std::sync::Arc;

/// Pipeline options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineConfig {
    /// Also quantize the readout head (off by default; kept for ablation).
    pub quantize_head: bool,
}

/// Calibration activations of one block. Q, K and V all read the same
/// post-RMSNorm hidden states, so one shared set covers the three of them —
/// there is no per-site copy.
#[derive(Debug, Clone)]
struct LayerCalibration {
    /// Input to `wq`/`wk`/`wv`.
    attn_input: Calibration,
    /// Input to `wo`.
    attn_ctx: Calibration,
    /// Input to `w1`.
    ffn_input: Calibration,
    /// Input to `w2`.
    ffn_mid: Calibration,
}

/// Calibration activations for every linear site in the model.
#[derive(Debug, Clone)]
pub struct ModelCalibration {
    layers: Vec<LayerCalibration>,
    /// Inputs to the readout head.
    head: Calibration,
}

impl ModelCalibration {
    /// The calibration set for `(layer, site)`. Q, K and V return the same
    /// shared attention-input set.
    pub fn site(&self, layer: usize, site: WeightSite) -> &Calibration {
        let layer = &self.layers[layer];
        match site {
            WeightSite::AttnQ | WeightSite::AttnK | WeightSite::AttnV => &layer.attn_input,
            WeightSite::AttnO => &layer.attn_ctx,
            WeightSite::FfnUp => &layer.ffn_input,
            WeightSite::FfnDown => &layer.ffn_mid,
        }
    }

    /// The calibration set for the readout head.
    pub fn head(&self) -> &Calibration {
        &self.head
    }
}

/// Stacks matrices vertically (rows concatenated).
fn vstack(parts: &[Matrix]) -> Matrix {
    assert!(!parts.is_empty(), "nothing to stack");
    let cols = parts[0].cols();
    let rows: usize = parts.iter().map(|m| m.rows()).sum();
    let mut data = Vec::with_capacity(rows * cols);
    for m in parts {
        assert_eq!(m.cols(), cols, "column mismatch in vstack");
        data.extend_from_slice(m.as_slice());
    }
    Matrix::from_vec(rows, cols, data)
}

/// Runs calibration text through the model and collects the inputs seen by
/// every linear layer.
///
/// # Panics
///
/// Panics if `tokens` is shorter than two positions.
pub fn collect_calibration(
    model: &Transformer,
    tokens: &[usize],
    window: usize,
) -> ModelCalibration {
    assert!(tokens.len() >= 2, "calibration stream too short");
    let n_layers = model.n_layers();
    // Four collection slots per layer: attention input (shared by Q/K/V),
    // attention context, FFN input, FFN mid.
    let mut per_layer: Vec<[Vec<Matrix>; 4]> = (0..n_layers).map(|_| Default::default()).collect();
    let mut head_parts: Vec<Matrix> = Vec::new();
    for chunk in tokens.chunks(window.max(2)) {
        if chunk.len() < 2 {
            continue;
        }
        let (_, trace) = model.forward_with_trace(chunk);
        for (l, lt) in trace.layers.into_iter().enumerate() {
            per_layer[l][0].push(lt.attn_input);
            per_layer[l][1].push(lt.attn_ctx);
            per_layer[l][2].push(lt.ffn_input);
            per_layer[l][3].push(lt.ffn_mid);
        }
        head_parts.push(trace.final_hidden);
    }
    let layers = per_layer
        .into_iter()
        .map(|parts| LayerCalibration {
            attn_input: Calibration::from_activations(vstack(&parts[0])),
            attn_ctx: Calibration::from_activations(vstack(&parts[1])),
            ffn_input: Calibration::from_activations(vstack(&parts[2])),
            ffn_mid: Calibration::from_activations(vstack(&parts[3])),
        })
        .collect();
    ModelCalibration { layers, head: Calibration::from_activations(vstack(&head_parts)) }
}

/// Per-site outcome of a whole-model quantization.
#[derive(Debug, Clone)]
pub struct SiteReport {
    /// Block index.
    pub layer: usize,
    /// Which linear weight.
    pub site: WeightSite,
    /// Storage cost reported by the quantizer.
    pub avg_bits: f64,
    /// Reconstruction error metrics.
    pub metrics: QuantMetrics,
}

/// Outcome of a whole-model quantization.
#[derive(Debug, Clone)]
pub struct QuantizeReport {
    /// Per-site details.
    pub sites: Vec<SiteReport>,
    /// Parameter-weighted average storage bits across quantized sites.
    pub avg_bits: f64,
}

/// Shared scaffolding of the whole-model quantization entry points: walks
/// every block site of a dense source model, lets `quantize_site` produce
/// the replacement weight plus its accounting, optionally quantizes the
/// head densely, and assembles the [`QuantizeReport`].
fn quantize_model_with(
    model: &Transformer,
    config: &PipelineConfig,
    mut quantize_site: impl FnMut(usize, WeightSite, &Matrix) -> (f64, QuantMetrics, LinearWeight),
    quantize_head: impl FnOnce(&Matrix) -> QuantResult,
) -> (Transformer, QuantizeReport) {
    let mut out = model.clone();
    let mut sites = Vec::new();
    let mut bit_weighted = 0.0f64;
    let mut params = 0usize;
    for layer in 0..model.n_layers() {
        for site in WeightSite::ALL {
            let w = model
                .weight(layer, site)
                .as_dense()
                .expect("whole-model quantization expects a dense (fp32) source model");
            let (avg_bits, metrics, replacement) = quantize_site(layer, site, w);
            bit_weighted += avg_bits * w.len() as f64;
            params += w.len();
            sites.push(SiteReport { layer, site, avg_bits, metrics });
            *out.weight_mut(layer, site) = replacement;
        }
    }
    if config.quantize_head {
        let result = quantize_head(model.head());
        bit_weighted += result.avg_bits * model.head().len() as f64;
        params += model.head().len();
        *out.head_mut() = result.dequantized;
    }
    let avg_bits = if params > 0 { bit_weighted / params as f64 } else { 0.0 };
    (out, QuantizeReport { sites, avg_bits })
}

/// Quantizes every linear layer of `model` with `quantizer`, returning the
/// quantized model and a report.
///
/// `calibration` may be `None` for data-free methods; activation-aware
/// methods then fall back to identity Hessians.
pub fn quantize_model(
    model: &Transformer,
    quantizer: &dyn WeightQuantizer,
    calibration: Option<&ModelCalibration>,
    config: &PipelineConfig,
) -> (Transformer, QuantizeReport) {
    let none = Calibration::none();
    quantize_model_with(
        model,
        config,
        |layer, site, w| {
            let calib = calibration.map(|c| c.site(layer, site)).unwrap_or(&none);
            let result = quantizer.quantize(w, calib);
            let metrics = QuantMetrics::between(w, &result.dequantized);
            (result.avg_bits, metrics, result.dequantized.into())
        },
        |head| quantizer.quantize(head, calibration.map(|c| c.head()).unwrap_or(&none)),
    )
}

/// Quantizes every linear layer of `model` with FineQ and stores the
/// **packed** 2.33-bit blocks in the returned model — the serving path.
///
/// Unlike [`quantize_model`], which writes dequantized fp32 copies back,
/// the returned transformer holds the actual 7-bytes-per-24-weights
/// [`fineq_core::PackedMatrix`] at every block site and executes forward
/// passes through the fused block-streaming kernels. The readout head and
/// embeddings stay fp32 (the paper's protocol); `config.quantize_head`
/// quantize-dequantizes the head densely as before.
///
/// # Panics
///
/// Panics if the quantizer configuration is not packable (see
/// [`fineq_core::FineQConfig::is_packable`]) or the source model is not
/// dense.
pub fn quantize_model_packed(
    model: &Transformer,
    quantizer: &FineQuantizer,
    config: &PipelineConfig,
) -> (Transformer, QuantizeReport) {
    quantize_model_with(
        model,
        config,
        |_, _, w| {
            let packed = quantizer.quantize_packed(w);
            let avg_bits = packed.avg_bits_total();
            let metrics = QuantMetrics::between(w, &packed.dequantize());
            (avg_bits, metrics, LinearWeight::Packed(packed))
        },
        |head| quantizer.quantize(head, &Calibration::none()),
    )
}

/// Quantizes `model` to the packed serving format and wraps it in a
/// continuous-batching [`BatchScheduler`] with `max_batch` sequence slots —
/// the one-call in-process serving entry point.
///
/// The returned scheduler owns the packed model: submit
/// [`fineq_lm::ServeRequest`]s and drive it with
/// [`BatchScheduler::step`] / [`BatchScheduler::run`]. Every step decodes
/// each layer's packed weight stream once for the whole batch, and each
/// request's output is token-identical to
/// [`Transformer::generate`] on the same packed model with the same seed.
///
/// The packed model gets one channel-parallel [`ThreadPool`] of `threads`
/// workers, built **once** and shared by every forward pass the scheduler
/// runs (`threads == 1` installs no pool: the serial path). Parallel
/// kernels are bit-identical to serial, so the count is pure throughput,
/// never output; [`fineq_core::pool::default_threads`] reads the
/// `FINEQ_THREADS` override, else the machine's available parallelism.
///
/// # Panics
///
/// Panics if the quantizer configuration is not packable, the source model
/// is not dense, `max_batch` is zero, or `threads` is zero.
pub fn serve_packed_with_threads(
    model: &Transformer,
    quantizer: &FineQuantizer,
    config: &PipelineConfig,
    max_batch: usize,
    threads: usize,
) -> (BatchScheduler, QuantizeReport) {
    assert!(threads > 0, "serving needs at least one kernel thread");
    let (mut packed, report) = quantize_model_packed(model, quantizer, config);
    if threads > 1 {
        packed.set_thread_pool(Some(Arc::new(ThreadPool::new(threads))));
    }
    (BatchScheduler::new(packed, max_batch), report)
}

/// Quantizes `model` to the packed serving format, row-shards every weight
/// site across `replica_addrs.len()` **worker processes** (shipping each
/// replica of a shard the identical FNQS slice envelopes over the frame
/// protocol), and wraps the coordinator in a [`DistributedScheduler`] —
/// the one-call **multi-process** serving entry point.
///
/// `replica_addrs[shard]` lists the worker addresses (`tcp:host:port` or
/// `unix:/path`, each running [`fineq_lm::run_worker_configured`] — the
/// `fineq-worker` binary) that replicate shard `shard`; the first is the
/// initial primary, the rest are hot spares for failover. The scheduler's
/// output is bit-identical to [`serve_packed_with_threads`]'s for the same requests at
/// any shard/replica count, worker crashes included, as long as every
/// shard keeps one live replica.
///
/// # Errors
///
/// Returns the transport error if connecting to a worker or shipping its
/// slices fails.
///
/// # Panics
///
/// Panics if the quantizer configuration is not packable, the source model
/// is not dense, `max_batch` is zero, `replica_addrs` is empty, or any
/// shard has no replica addresses.
pub fn serve_distributed(
    model: &Transformer,
    quantizer: &FineQuantizer,
    config: &PipelineConfig,
    max_batch: usize,
    replica_addrs: &[Vec<String>],
) -> Result<(DistributedScheduler, QuantizeReport), TransportError> {
    let (packed, report) = quantize_model_packed(model, quantizer, config);
    let remote = RemoteShardedModel::connect(&packed, replica_addrs)?;
    Ok((DistributedScheduler::new(remote, max_batch), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fineq_core::FineQuantizer;
    use fineq_lm::builder::{build_fitted_model, BuilderSpec};
    use fineq_lm::corpus::Corpus;
    use fineq_lm::eval::perplexity;
    use fineq_lm::ServeRequest;
    use fineq_quant::Rtn;

    fn tiny_model() -> (Transformer, Corpus) {
        let corpus = Corpus::wiki_like(64, 77);
        let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 3_000, 5);
        (model, corpus)
    }

    #[test]
    fn calibration_covers_every_site() {
        let (model, corpus) = tiny_model();
        let stream = corpus.generate(300, 1);
        let calib = collect_calibration(&model, stream.tokens(), 128);
        for l in 0..model.n_layers() {
            for site in WeightSite::ALL {
                let c = calib.site(l, site);
                let x = c.activations().expect("collected");
                assert_eq!(x.cols(), model.weight(l, site).cols(), "layer {l} {site:?}");
                assert!(x.rows() >= 290);
            }
        }
        assert!(calib.head().activations().is_some());
    }

    #[test]
    fn quantize_model_replaces_all_sites() {
        let (model, _) = tiny_model();
        let q = Rtn::new(2);
        let (qmodel, report) = quantize_model(&model, &q, None, &PipelineConfig::default());
        assert_eq!(report.sites.len(), model.n_layers() * 6);
        for l in 0..model.n_layers() {
            for site in WeightSite::ALL {
                assert_ne!(qmodel.weight(l, site), model.weight(l, site), "{l} {site:?}");
            }
        }
        // Head untouched by default.
        assert_eq!(qmodel.head(), model.head());
        // Tiny 32/48-column test matrices carry ~1 bit/weight of fp16
        // scale overhead on top of the 2-bit payload.
        assert!(report.avg_bits > 2.0 && report.avg_bits < 3.2, "{}", report.avg_bits);
    }

    #[test]
    fn fineq_model_tracks_fp16_closely() {
        let (model, corpus) = tiny_model();
        let test = corpus.generate(2_000, 9);
        let fp16 = perplexity(&model, test.tokens(), 256);
        let (qmodel, report) =
            quantize_model(&model, &FineQuantizer::paper(), None, &PipelineConfig::default());
        let qppl = perplexity(&qmodel, test.tokens(), 256);
        assert!(qppl >= fp16 * 0.9, "quantized should not be better: {qppl} vs {fp16}");
        assert!(qppl < fp16 * 20.0, "FineQ should stay usable: {qppl} vs {fp16}");
        // Tiny 32-column rows pad the 8-cluster blocks heavily (11 clusters
        // -> 2 blocks) and amortize fp16 scales badly; realistic channel
        // widths land at ~2.34 bits (asserted in the fineq-core tests).
        assert!(report.avg_bits < 5.0, "{}", report.avg_bits);
    }

    #[test]
    fn packed_pipeline_stores_packed_weights() {
        let (model, _) = tiny_model();
        let (pm, report) =
            quantize_model_packed(&model, &FineQuantizer::paper(), &PipelineConfig::default());
        assert!(pm.is_fully_packed(), "every block site must hold PackedMatrix");
        assert_eq!(report.sites.len(), model.n_layers() * 6);
        // Head and embeddings stay dense fp32.
        assert_eq!(pm.head(), model.head());
        assert_eq!(pm.embedding(), model.embedding());
        // The packed model holds a fraction of the dense body bytes.
        assert!(pm.body_weight_bytes() * 3 < model.body_weight_bytes());
    }

    #[test]
    fn packed_pipeline_matches_dequantized_reference_model() {
        let (model, corpus) = tiny_model();
        let cfg = PipelineConfig::default();
        let q = FineQuantizer::paper();
        let (pm, preport) = quantize_model_packed(&model, &q, &cfg);
        let (dm, dreport) = quantize_model(&model, &q, None, &cfg);
        // Identical bit accounting: both route through the packed format.
        assert!((preport.avg_bits - dreport.avg_bits).abs() < 1e-9);
        // Identical logits up to fused-kernel accumulation order.
        let test = corpus.generate(512, 13);
        for chunk in test.tokens().chunks(128) {
            let lp = pm.forward(chunk);
            let ld = dm.forward(chunk);
            assert!(lp.sub(&ld).abs_max() < 1e-4, "{}", lp.sub(&ld).abs_max());
        }
        let pp = perplexity(&pm, test.tokens(), 128);
        let dp = perplexity(&dm, test.tokens(), 128);
        assert!((pp - dp).abs() < 1e-3 * dp, "packed ppl {pp} vs reference {dp}");
    }

    #[test]
    fn serve_packed_returns_a_scheduler_over_the_packed_model() {
        let (model, corpus) = tiny_model();
        let (mut sched, report) = serve_packed_with_threads(
            &model,
            &FineQuantizer::paper(),
            &PipelineConfig::default(),
            4,
            2,
        );
        assert!(sched.model().is_fully_packed());
        assert_eq!(sched.max_batch(), 4);
        assert_eq!(report.sites.len(), model.n_layers() * 6);
        // A served request matches generate on the same packed model.
        let prompt = corpus.generate(5, 17).tokens().to_vec();
        let mut rng = fineq_tensor::Rng::seed_from(33);
        let expect = sched.model().generate(&prompt, 6, 0.7, &mut rng);
        sched
            .submit(ServeRequest { temperature: 0.7, seed: 33, ..ServeRequest::new(1, prompt, 6) })
            .expect("no KV budget configured");
        let done = sched.run();
        assert_eq!(done[0].generated, expect);
    }

    #[test]
    fn quantize_head_option_touches_head() {
        let (model, _) = tiny_model();
        let cfg = PipelineConfig { quantize_head: true };
        let (qmodel, _) = quantize_model(&model, &Rtn::new(4), None, &cfg);
        assert_ne!(qmodel.head(), model.head());
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let s = vstack(&[a, b]);
        assert_eq!((s.rows(), s.cols()), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }
}
