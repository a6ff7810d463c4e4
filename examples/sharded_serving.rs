//! Row-sharded serving: plan → shard → serve. Every packed weight site's
//! output channels are partitioned across worker shards (balanced by
//! packed bytes), each slice is encoded in the versioned shard wire
//! format, and a plain `BatchScheduler` serves the model rebuilt from
//! those bytes — with output bit-identical to the unsharded scheduler.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```

use fineq::core::FineQuantizer;
use fineq::lm::builder::{build_fitted_model, BuilderSpec};
use fineq::lm::corpus::Corpus;
use fineq::lm::{BatchScheduler, ServeRequest, ShardPlan, WeightSite};
use fineq::pipeline::{quantize_model_packed, serve_packed_with_threads, PipelineConfig};
use std::time::Instant;

fn main() {
    let corpus = Corpus::wiki_like(64, 5);
    eprintln!("fitting a small model ...");
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 6_000, 2);

    let n_shards = 3;
    let max_batch = 4;
    let (packed, report) =
        quantize_model_packed(&model, &FineQuantizer::paper(), &PipelineConfig::default());
    println!("serving a row-sharded packed model : {:.2} bits/weight", report.avg_bits);
    println!("worker shards                      : {n_shards}");
    println!("batch slots                        : {max_batch}");

    // The plan: each site's channels split by packed bytes. Show one site
    // and the per-shard weight totals a worker's device must hold.
    let plan = ShardPlan::new(&packed, n_shards);
    let sp = plan.site(0, WeightSite::FfnUp);
    println!("\nlayer 0 ffn.up ({} x {}) channel ranges:", sp.rows, sp.cols);
    for shard in 0..n_shards {
        let (start, end) = sp.range(shard);
        println!(
            "  shard {shard}: rows {start:>3}..{end:<3}  ({} site bytes)",
            sp.shard_bytes[shard]
        );
    }
    println!("\nper-shard packed weight bytes (all sites) and shipped envelopes:");
    for shard in 0..n_shards {
        let mem = plan.shard_memory(shard, packed.config(), 64.0 * 1024.0 * 1024.0);
        let envelopes = plan.envelopes(&packed, shard);
        println!(
            "  shard {shard}: {:>8.0} bytes  ({:.0} params at {:.2} bits/weight effective), \
             {} envelopes, {} wire bytes",
            mem.weight_bytes,
            mem.params,
            mem.weight_bits(),
            envelopes.len(),
            envelopes.iter().map(Vec::len).sum::<usize>(),
        );
    }

    // Serve the model decoded from those envelopes; the same requests
    // through the unsharded scheduler must agree token for token.
    let mut sched = BatchScheduler::new(plan.rebuild(&packed), max_batch);
    let requests: Vec<ServeRequest> = (0..10u64)
        .map(|id| {
            let prompt = corpus.generate(4 + id as usize % 5, 40 + id).tokens().to_vec();
            ServeRequest {
                temperature: 0.8,
                eos: Some(0),
                ..ServeRequest::new(id, prompt, 8 + (id as usize % 4) * 4)
            }
        })
        .collect();
    for r in &requests {
        sched.submit(r.clone()).expect("no KV budget configured");
    }
    let t0 = Instant::now();
    let mut done = sched.run();
    let elapsed = t0.elapsed();
    done.sort_by_key(|f| f.id);

    let (mut reference_sched, _) = serve_packed_with_threads(
        &model,
        &FineQuantizer::paper(),
        &PipelineConfig::default(),
        max_batch,
        1,
    );
    for r in &requests {
        reference_sched.submit(r.clone()).expect("no KV budget configured");
    }
    let mut reference = reference_sched.run();
    reference.sort_by_key(|f| f.id);
    assert_eq!(done, reference, "sharded serving must be bit-identical to unsharded");

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
        "\n{} sequences, {} steps, {} stepped tokens in {:.1} ms ({:.0} tokens/sec)",
        done.len(),
        sched.steps(),
        sched.stepped_tokens(),
        elapsed.as_secs_f64() * 1e3,
        sched.stepped_tokens() as f64 / elapsed.as_secs_f64(),
    );
    println!("sharded output == unsharded output: verified token for token");
}
