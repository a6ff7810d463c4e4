//! Bit-identical-under-parallelism suite: the channel-parallel kernels and
//! everything stacked on them must produce **exactly** the serial output at
//! every thread count — `assert_eq!`, not approximate comparison.
//!
//! This is the invariant that lets the serving stack treat thread count as
//! pure execution configuration: the pool distributes whole channels, each
//! channel's accumulation order is untouched, and every worker writes a
//! disjoint output range. Combined with PR 2's batch-composition guarantee,
//! a served request's tokens depend on nothing but the model, the prompt
//! and the seed — not on batch size, admission order, *or* core count.

use fineq::core::{FineQuantizer, KernelScratch, PackedMatrix, ThreadPool};
use fineq::lm::builder::{build_fitted_model, BuilderSpec};
use fineq::lm::corpus::Corpus;
use fineq::lm::{BatchKvCache, KvCache, ServeRequest, Transformer, WeightSite};
use fineq::pipeline::{serve_packed_with_threads, PipelineConfig};
use fineq::tensor::{Matrix, Rng};
use std::sync::Arc;

/// Thread counts the whole suite sweeps: serial, even splits, and an odd
/// count that cannot tile the channel ranges evenly.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn random_packed(rows: usize, cols: usize, seed: u64) -> PackedMatrix {
    let mut rng = Rng::seed_from(seed);
    let w = Matrix::from_fn(rows, cols, |_, _| {
        let v = rng.laplace(0.0, 0.02);
        if rng.chance(0.04) {
            v * 10.0
        } else {
            v
        }
    });
    FineQuantizer::paper().quantize_packed(&w)
}

fn fitted_tiny() -> (Transformer, Corpus) {
    let corpus = Corpus::wiki_like(64, 5);
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 3_000, 2);
    (model, corpus)
}

/// Kernel level: `matvec` / `matmul_t` across thread counts and
/// deliberately awkward shapes — partial final block (cols not a multiple
/// of 24), single row, single column, and a width crossing several blocks.
#[test]
fn kernels_are_bit_identical_at_every_thread_count() {
    for (rows, cols, seed) in
        [(16usize, 93usize, 1u64), (1, 24, 2), (5, 1, 3), (40, 121, 4), (7, 48, 5)]
    {
        let packed = random_packed(rows, cols, seed);
        let mut rng = Rng::seed_from(seed ^ 0xBEEF);
        let x: Vec<f32> = (0..cols).map(|_| rng.normal(0.0, 1.0)).collect();
        let a = Matrix::from_fn(6, cols, |_, _| rng.normal(0.0, 1.0));
        let serial_mv = packed.matvec(&x);
        let serial_mt = packed.matmul_t(&a);
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            let mut scratch = KernelScratch::new();
            let mut mv = vec![f32::NAN; rows];
            packed.matvec_into(&x, &mut mv, Some(&pool));
            assert_eq!(mv, serial_mv, "matvec {rows}x{cols} @ {threads} threads");
            let mut mt = Matrix::zeros(6, rows);
            packed.matmul_t_into_with(&a, &mut mt, &mut scratch, Some(&pool));
            assert_eq!(mt, serial_mt, "matmul_t {rows}x{cols} @ {threads} threads");
        }
    }
}

/// Model level: whole forward passes (windowed and incremental) of a fully
/// packed transformer, with the pool installed on the model itself.
#[test]
fn packed_forward_passes_are_bit_identical_at_every_thread_count() {
    let (model, corpus) = fitted_tiny();
    let q = FineQuantizer::paper();
    let mut packed = model.clone();
    for l in 0..model.n_layers() {
        for site in WeightSite::ALL {
            let p = q.quantize_packed(model.weight(l, site).as_dense().expect("dense source"));
            *packed.weight_mut(l, site) = p.into();
        }
    }
    let tokens = corpus.generate(20, 9).tokens().to_vec();
    let serial_logits = packed.forward(&tokens);
    let mut serial_cache = KvCache::new(packed.n_layers(), packed.config().d_model);
    let serial_steps: Vec<Vec<f32>> =
        tokens.iter().map(|&t| packed.forward_step(t, &mut serial_cache)).collect();

    for threads in THREAD_COUNTS {
        let mut pooled = packed.clone();
        pooled.set_thread_pool(Some(Arc::new(ThreadPool::new(threads))));
        assert_eq!(pooled, packed, "the pool must not participate in model identity");
        assert_eq!(pooled.forward(&tokens), serial_logits, "forward @ {threads} threads");
        let mut cache = KvCache::new(pooled.n_layers(), pooled.config().d_model);
        for (t, (&tok, serial)) in tokens.iter().zip(&serial_steps).enumerate() {
            let logits = pooled.forward_step(tok, &mut cache);
            assert_eq!(&logits, serial, "forward_step {t} @ {threads} threads");
        }
        assert_eq!(cache, serial_cache, "K/V histories must match bit for bit");

        // Batched step over three ragged sequences: same guarantee.
        let mut batch = BatchKvCache::new(pooled.n_layers(), pooled.config().d_model, 3);
        let mut serial_batch = BatchKvCache::new(packed.n_layers(), packed.config().d_model, 3);
        for step in 0..6 {
            let toks = [tokens[step], tokens[step + 2], tokens[step + 4]];
            let slots = [0usize, 1, 2];
            let pooled_logits = pooled.forward_step_batch(&toks, &slots, &mut batch);
            let serial_logits = packed.forward_step_batch(&toks, &slots, &mut serial_batch);
            assert_eq!(pooled_logits, serial_logits, "batch step {step} @ {threads} threads");
        }
    }
}

/// Attention level: the per-slot attention loop of `forward_step_batch`
/// fans over the pool (slots are sequence-independent, writes disjoint);
/// a wide ragged batch must still produce bit-identical logits and K/V
/// histories at every thread count, including counts that do not divide
/// the slot count.
#[test]
fn parallel_attention_is_bit_identical_at_every_thread_count() {
    let (model, corpus) = fitted_tiny();
    let q = FineQuantizer::paper();
    let mut packed = model.clone();
    for l in 0..model.n_layers() {
        for site in WeightSite::ALL {
            let p = q.quantize_packed(model.weight(l, site).as_dense().expect("dense source"));
            *packed.weight_mut(l, site) = p.into();
        }
    }
    let n_slots = 9;
    let tokens = corpus.generate(40, 13).tokens().to_vec();
    // Ragged schedule: slot s joins at step s % 3 and steps every round it
    // is present, so histories have different lengths throughout.
    let schedule: Vec<(Vec<usize>, Vec<usize>)> = (0..8)
        .map(|step| {
            let slots: Vec<usize> = (0..n_slots).filter(|s| step >= s % 3).collect();
            let toks: Vec<usize> =
                slots.iter().map(|&s| tokens[(step * n_slots + s) % tokens.len()]).collect();
            (toks, slots)
        })
        .collect();
    let mut serial_cache = BatchKvCache::new(packed.n_layers(), packed.config().d_model, n_slots);
    let serial: Vec<_> =
        schedule.iter().map(|(t, s)| packed.forward_step_batch(t, s, &mut serial_cache)).collect();
    for threads in THREAD_COUNTS {
        let mut pooled = packed.clone();
        pooled.set_thread_pool(Some(Arc::new(ThreadPool::new(threads))));
        let mut cache = BatchKvCache::new(packed.n_layers(), packed.config().d_model, n_slots);
        for (i, (t, s)) in schedule.iter().enumerate() {
            let logits = pooled.forward_step_batch(t, s, &mut cache);
            assert_eq!(logits, serial[i], "step {i} @ {threads} threads");
        }
        assert_eq!(cache, serial_cache, "K/V histories @ {threads} threads");
    }
}

/// Serving level: complete `BatchScheduler` runs — admission, retirement,
/// backfill, sampling — produce identical finished sequences at every
/// thread count, and identical to solo `generate`.
#[test]
fn batch_scheduler_runs_are_bit_identical_at_every_thread_count() {
    let (model, corpus) = fitted_tiny();
    let cfg = PipelineConfig::default();
    let submit_all = |sched: &mut fineq::lm::BatchScheduler| {
        for id in 0..6u64 {
            let prompt = corpus.generate(3 + id as usize % 4, 70 + id).tokens().to_vec();
            sched
                .submit(ServeRequest {
                    temperature: 0.85,
                    seed: 900 + id,
                    eos: Some(0),
                    ..ServeRequest::new(id, prompt, 4 + id as usize % 3)
                })
                .expect("no KV budget configured");
        }
    };
    let reference = {
        let (mut sched, _) = serve_packed_with_threads(&model, &FineQuantizer::paper(), &cfg, 2, 1);
        assert!(sched.thread_pool().is_none(), "threads == 1 installs no pool");
        submit_all(&mut sched);
        sched.run()
    };
    for threads in [2usize, 4, 7] {
        let (mut sched, _) =
            serve_packed_with_threads(&model, &FineQuantizer::paper(), &cfg, 2, threads);
        assert_eq!(
            sched.thread_pool().expect("pool installed").threads(),
            threads,
            "scheduler must expose the serving pool"
        );
        submit_all(&mut sched);
        let done = sched.run();
        assert_eq!(done, reference, "served output must not depend on thread count ({threads})");
    }
}

/// The `FINEQ_THREADS` environment knob: a positive integer wins, garbage
/// and zero fall back, and the default is always at least one thread.
/// (This binary's other tests pick thread counts explicitly, so mutating
/// the variable here cannot race them.)
#[test]
fn thread_count_env_override_parses_defensively() {
    use fineq::core::pool::{default_threads, THREADS_ENV};
    std::env::set_var(THREADS_ENV, "3");
    assert_eq!(default_threads(), 3);
    std::env::set_var(THREADS_ENV, "0");
    assert!(default_threads() >= 1, "zero must fall back, not disable serving");
    std::env::set_var(THREADS_ENV, "not-a-number");
    assert!(default_threads() >= 1);
    std::env::remove_var(THREADS_ENV);
    assert!(default_threads() >= 1);
}
