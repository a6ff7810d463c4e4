//! Continuous-batching serving over the packed 2.33-bit engine: many
//! concurrent requests share one batched decode loop, so each layer's
//! packed weight stream is decoded once per step for the whole batch.
//!
//! ```sh
//! cargo run --release --example batched_serving
//! ```

use fineq::core::pool::default_threads;
use fineq::core::FineQuantizer;
use fineq::lm::builder::{build_fitted_model, BuilderSpec};
use fineq::lm::corpus::Corpus;
use fineq::lm::memory::ServingMemory;
use fineq::lm::{KvCache, ServeRequest};
use fineq::pipeline::{serve_packed_with_threads, PipelineConfig};
use std::time::Instant;

fn main() {
    let corpus = Corpus::wiki_like(64, 5);
    eprintln!("fitting a small model ...");
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 6_000, 2);

    // Quantize to the packed serving format and wrap it in a scheduler
    // with 4 sequence slots.
    let max_batch = 4;
    let (mut sched, report) = serve_packed_with_threads(
        &model,
        &FineQuantizer::paper(),
        &PipelineConfig::default(),
        max_batch,
        default_threads(),
    );
    println!("serving a fully packed model : {:.2} bits/weight", report.avg_bits);
    println!("batch slots                  : {max_batch}");
    // One shared kernel pool sized from FINEQ_THREADS (else available
    // parallelism); thread count never changes served tokens.
    let threads = sched.model().thread_pool().map_or(1, |p| p.threads());
    println!("kernel threads               : {threads}");

    // Page-granular serving: cap the KV pool at a page budget sized like
    // a deployment would (whole pages of the plan's headroom), and share
    // common prompt prefixes copy-on-write.
    let page_budget = 40;
    sched.set_page_budget(page_budget).expect("nothing queued yet");
    sched.enable_prefix_sharing(true);
    println!("page budget                  : {page_budget} pages of {} tokens", {
        sched.cache().page_tokens()
    });

    // Ten requests with different budgets and seeds — more than the batch
    // holds, so retirement backfills slots mid-decode. Even ids share one
    // system-prompt prefix, so backfilled sequences map the pages a live
    // one already cached.
    let system_prompt = corpus.generate(8, 40).tokens().to_vec();
    for id in 0..10u64 {
        let mut prompt = system_prompt.clone();
        if id % 2 == 1 {
            prompt = corpus.generate(4 + id as usize % 5, 40 + id).tokens().to_vec();
        }
        let request = ServeRequest {
            temperature: 0.8,
            eos: Some(0),
            ..ServeRequest::new(id, prompt, 8 + (id as usize % 4) * 4)
        };
        sched.submit(request).expect("fits the page budget");
    }
    println!("requests queued              : {}", sched.stats().queued);

    // Drive the batch step by step, watching slots fill, drain and refill.
    let t0 = Instant::now();
    let mut peak_kv = 0usize;
    let mut peak_allocated = 0usize;
    while !sched.is_idle() {
        sched.step();
        peak_kv = peak_kv.max(sched.cache().fp16_bytes());
        peak_allocated = peak_allocated.max(sched.cache().allocated_fp16_bytes());
    }
    let elapsed = t0.elapsed();
    let mut done = sched.take_finished();
    done.sort_by_key(|f| f.id);

    println!("\nid  prompt  generated  reason");
    for fin in &done {
        println!(
            "{:<3} {:<7} {:<10} {:?}",
            fin.id,
            fin.prompt_len,
            fin.generated.len(),
            fin.reason
        );
    }
    println!(
        "\n{} sequences, {} batched steps, {} stepped tokens in {:.1} ms ({:.0} tokens/sec)",
        done.len(),
        sched.steps(),
        sched.stepped_tokens(),
        elapsed.as_secs_f64() * 1e3,
        sched.stepped_tokens() as f64 / elapsed.as_secs_f64(),
    );

    // Scheduler occupancy: where every request ended up and how the page
    // pool was spent (shared pages held COW'd prompt prefixes).
    let stats = sched.stats();
    println!("\nscheduler stats              : {stats:?}");
    println!(
        "preemptions                  : {} (all resumed token-identically)",
        stats.preemptions
    );
    println!(
        "prefix sharing               : {} tokens admitted from shared pages, {} COW copies",
        stats.shared_prefix_tokens, stats.cow_copies
    );

    // Memory accounting: the live batch cache ties back to the Fig. 2b
    // serving-memory model. Logical KV is the per-copy sum over slots of
    // 2 (K+V) * n_layers * d_model * slot_len * 2 bytes (fp16); physical
    // KV is whole allocated pages, shared pages charged once.
    let plan = ServingMemory::from_model(sched.model(), 64.0 * 1024.0 * 1024.0);
    println!("\npeak KV (logical, per-copy)  : {peak_kv} bytes at fp16");
    println!("peak KV (physical pages)     : {peak_allocated} bytes at fp16");
    println!("weights (measured, packed)   : {:.0} bytes", plan.weight_bytes);
    println!(
        "KV capacity on a 64 MiB device: {:.0} tokens ({:.0} sequences of 256, \
         {} pages of {}, {} paged sequences)",
        plan.max_concurrent_tokens(),
        plan.max_concurrent_sequences(256),
        plan.max_pages(sched.cache().page_tokens()),
        sched.cache().page_tokens(),
        plan.max_concurrent_sequences_paged(256, sched.cache().page_tokens()),
    );

    // Single-sequence decoding still works and costs the same bytes per
    // cached token.
    let mut cache = KvCache::new(sched.model().n_layers(), sched.model().config().d_model);
    let _ = sched.model().forward_step(1, &mut cache);
    println!(
        "per-token KV                 : {} bytes ({} plan)",
        cache.fp16_bytes(),
        plan.kv_cache_bytes(1.0),
    );
}
