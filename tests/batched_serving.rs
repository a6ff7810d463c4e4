//! Integration tests of the batched serving engine: the continuous-batching
//! scheduler over a packed model, end to end through the public API.
//!
//! The central property: batching is **invisible** to any single request.
//! Whatever the batch size, admission order, or backfill timing, a request
//! produces token-identical output to `Transformer::generate` on the same
//! model with the same seed, because `forward_step` is itself a one-row
//! `forward_step_batch` — one step body — and each row's arithmetic is
//! independent of its batchmates.

use fineq::core::FineQuantizer;
use fineq::lm::builder::{build_fitted_model, BuilderSpec};
use fineq::lm::corpus::Corpus;
use fineq::lm::memory::ServingMemory;
use fineq::lm::{BatchKvCache, BatchScheduler, FinishReason, KvCache, ServeRequest};
use fineq::pipeline::{serve_packed_with_threads, PipelineConfig};
use fineq::tensor::Rng;

/// The packed serving entry with two kernel threads, so the pooled path
/// is covered whatever the host's core count.
fn serve(model: &fineq::lm::Transformer, max_batch: usize) -> BatchScheduler {
    let (q, cfg) = (FineQuantizer::paper(), PipelineConfig::default());
    serve_packed_with_threads(model, &q, &cfg, max_batch, 2).0
}

fn fitted_tiny() -> (fineq::lm::Transformer, Corpus) {
    let corpus = Corpus::wiki_like(64, 5);
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 3_000, 2);
    (model, corpus)
}

/// Batch-of-1 through the full packed serving pipeline reproduces
/// `generate` on the packed model, token for token.
#[test]
fn batch_of_one_packed_is_token_identical_to_generate() {
    let (model, corpus) = fitted_tiny();
    let mut sched = serve(&model, 1);
    let prompt = corpus.generate(7, 91).tokens().to_vec();
    let mut rng = Rng::seed_from(4242);
    let expect = sched.model().generate(&prompt, 10, 0.9, &mut rng);
    sched
        .submit(ServeRequest { temperature: 0.9, seed: 4242, ..ServeRequest::new(0, prompt, 10) })
        .expect("no KV budget configured");
    let done = sched.run();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].generated, expect);
    assert_eq!(done[0].reason, FinishReason::MaxTokens);
}

/// Eight requests through three packed slots: every continuation matches
/// its solo reference despite slot backfill happening mid-decode.
#[test]
fn packed_continuous_batching_matches_solo_references() {
    let (model, corpus) = fitted_tiny();
    let mut sched = serve(&model, 3);
    let mut expected = Vec::new();
    for id in 0..8u64 {
        let prompt = corpus.generate(3 + id as usize % 4, 200 + id).tokens().to_vec();
        let n = 3 + id as usize % 5;
        let mut rng = Rng::seed_from(500 + id);
        expected.push(sched.model().generate(&prompt, n, 0.85, &mut rng));
        sched
            .submit(ServeRequest {
                temperature: 0.85,
                seed: 500 + id,
                ..ServeRequest::new(id, prompt, n)
            })
            .expect("no KV budget configured");
    }
    let mut done = sched.run();
    assert_eq!(done.len(), 8);
    done.sort_by_key(|f| f.id);
    for (id, fin) in done.iter().enumerate() {
        assert_eq!(fin.generated, expected[id], "request {id} diverged under batching");
    }
}

/// Stepping a batch never exceeds `max_batch`, retires everything
/// eventually, and leaves the scheduler reusable for a second wave.
#[test]
fn scheduler_drains_and_accepts_a_second_wave() {
    let (model, corpus) = fitted_tiny();
    let mut sched = serve(&model, 2);
    for wave in 0..2u64 {
        for id in 0..4u64 {
            let prompt = corpus.generate(4, 300 + 10 * wave + id).tokens().to_vec();
            sched
                .submit(ServeRequest {
                    temperature: 0.8,
                    ..ServeRequest::new(10 * wave + id, prompt, 4)
                })
                .expect("no KV budget configured");
        }
        while !sched.is_idle() {
            sched.step();
            assert!(sched.stats().active <= 2);
        }
        assert_eq!(sched.take_finished().len(), 4, "wave {wave}");
    }
}

/// The live batch cache's byte counters agree with the serving-memory plan
/// of the packed model at every step of a run — logical (per-copy) bytes
/// against `kv_cache_bytes_used`, physical (allocated whole pages) against
/// `kv_cache_bytes_for`, and logical never exceeds physical without
/// sharing.
#[test]
fn batch_cache_bytes_track_the_serving_plan() {
    let (model, corpus) = fitted_tiny();
    let mut sched = serve(&model, 2);
    let plan = ServingMemory::from_model(sched.model(), 1e9);
    for id in 0..3u64 {
        let prompt = corpus.generate(5, 400 + id).tokens().to_vec();
        sched
            .submit(ServeRequest { temperature: 1.0, ..ServeRequest::new(id, prompt, 6) })
            .expect("no KV budget configured");
    }
    while !sched.is_idle() {
        sched.step();
        assert_eq!(
            sched.cache().fp16_bytes() as f64,
            plan.kv_cache_bytes_used(sched.cache()),
            "logical accounting diverged at step {}",
            sched.steps()
        );
        assert_eq!(
            sched.cache().allocated_fp16_bytes() as f64,
            plan.kv_cache_bytes_for(sched.cache()),
            "physical accounting diverged at step {}",
            sched.steps()
        );
        assert!(
            sched.cache().fp16_bytes() <= sched.cache().allocated_fp16_bytes(),
            "without sharing, used bytes cannot exceed allocated pages"
        );
    }
}

/// Dense and packed schedulers agree on scheduling behaviour (steps,
/// stepped tokens) for the same request load; only the logits-level
/// sampling may differ between backends.
#[test]
fn dense_and_packed_schedulers_step_identically() {
    let (model, corpus) = fitted_tiny();
    let mut dense = BatchScheduler::new(model.clone(), 2);
    let mut packed = serve(&model, 2);
    for id in 0..4u64 {
        let prompt = corpus.generate(4, 600 + id).tokens().to_vec();
        let req = ServeRequest { temperature: 0.9, ..ServeRequest::new(id, prompt, 5) };
        dense.submit(req.clone()).expect("no KV budget configured");
        packed.submit(req).expect("no KV budget configured");
    }
    let d = dense.run();
    let p = packed.run();
    assert_eq!(d.len(), p.len());
    assert_eq!(dense.steps(), packed.steps());
    assert_eq!(dense.stepped_tokens(), packed.stepped_tokens());
}

/// The batched step and the single-sequence step agree on the packed model
/// outside the scheduler too (direct engine-level check, fixed tokens).
#[test]
fn packed_forward_step_batch_is_bitwise_consistent_with_forward_step() {
    let (model, corpus) = fitted_tiny();
    let sched = serve(&model, 2);
    let packed = sched.model();
    let cfg = packed.config();
    let tokens = corpus.generate(10, 700).tokens().to_vec();
    let mut solo = KvCache::new(cfg.n_layers, cfg.d_model);
    let mut batch = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
    for (i, &tok) in tokens.iter().enumerate() {
        // The second slot decodes a shifted copy of the stream so the batch
        // is genuinely heterogeneous.
        let other = tokens[(i + 3) % tokens.len()];
        let batched = packed.forward_step_batch(&[tok, other], &[0, 1], &mut batch);
        let reference = packed.forward_step(tok, &mut solo);
        assert_eq!(batched.row(0), &reference[..], "position {i}");
    }
}
