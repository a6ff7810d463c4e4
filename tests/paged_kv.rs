//! Paged-KV determinism suite: page budgets, preemption and copy-on-write
//! prefix sharing are **execution configuration**, never semantics. A
//! scheduler squeezed through a tight page pool — evicting and resuming
//! sequences, COW-splitting shared pages — must produce output
//! token-identical (`assert_eq!`) to an unpressured run, at every tested
//! thread count × shard count, because every per-slot step is bit-identical
//! arithmetic over the same token history regardless of where the K/V rows
//! physically live.

use fineq::core::{FineQuantizer, ThreadPool};
use fineq::lm::{
    BatchScheduler, FinishedSequence, ModelConfig, ServeRequest, ShardPlan, Transformer, WeightSite,
};
use fineq::tensor::{Matrix, Rng};
use std::sync::Arc;

/// A fully packed random model (same construction as the sharded suite).
fn packed_model(seed: u64) -> Transformer {
    let cfg = ModelConfig::new(24, 8, 2, 2, 16);
    let mut m = Transformer::zeros(cfg.clone());
    let mut rng = Rng::seed_from(seed);
    *m.embedding_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.4));
    *m.head_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.4));
    let q = FineQuantizer::paper();
    for l in 0..m.n_layers() {
        for site in WeightSite::ALL {
            let (r, c) = {
                let w = m.weight(l, site);
                (w.rows(), w.cols())
            };
            let dense = Matrix::from_fn(r, c, |_, _| {
                let v = rng.laplace(0.0, 0.04);
                if rng.chance(0.04) {
                    v * 10.0
                } else {
                    v
                }
            });
            *m.weight_mut(l, site) = q.quantize_packed(&dense).into();
        }
    }
    m
}

/// The workload: eight requests, several sharing a common prompt prefix so
/// sharing and COW engage, with varied budgets and seeds.
fn requests() -> Vec<ServeRequest> {
    let base = [1usize, 2, 3, 4];
    (0..8u64)
        .map(|id| {
            let mut prompt = base.to_vec();
            if id % 2 == 0 {
                prompt.push(5 + id as usize % 3);
            } else {
                prompt = vec![7 + id as usize % 5, 8, 9 + id as usize % 4];
            }
            ServeRequest {
                temperature: 0.8,
                seed: 40 + id,
                eos: Some(0),
                ..ServeRequest::new(id, prompt, 4 + id as usize % 4)
            }
        })
        .collect()
}

fn run_sorted(sched: &mut BatchScheduler) -> Vec<FinishedSequence> {
    for req in requests() {
        sched.submit(req).expect("request fits every tested budget");
    }
    let mut done = sched.run();
    done.sort_by_key(|f| f.id);
    done
}

/// The full matrix: page budgets {none, 14, 8 pages of 2 tokens} ×
/// threads {1, 2, 4} × shards {1, 2, 3}, prefix sharing on wherever a
/// budget is set. The worst-case request is 9 prompt+new tokens = 5 pages,
/// so the 8-page pool forces constant eviction with 3 slots; outputs must
/// not move by a single token.
#[test]
fn preempted_runs_are_token_identical_across_threads_and_shards() {
    let model = packed_model(7);
    let reference = {
        let mut sched = BatchScheduler::with_page_tokens(model.clone(), 3, 2);
        run_sorted(&mut sched)
    };
    assert_eq!(reference.len(), 8, "every request completes unpressured");

    for budget in [None, Some(14usize), Some(8)] {
        for threads in [1usize, 2, 4] {
            let pool = (threads > 1).then(|| Arc::new(ThreadPool::new(threads)));
            // Unsharded at this thread count.
            let mut plain = model.clone();
            plain.set_thread_pool(pool.clone());
            let mut sched = BatchScheduler::with_page_tokens(plain, 3, 2);
            if let Some(pages) = budget {
                sched.set_page_budget(pages).expect("nothing queued yet");
                sched.enable_prefix_sharing(true);
            }
            let done = run_sorted(&mut sched);
            assert_eq!(done, reference, "unsharded, budget {budget:?}, {threads} threads");
            if budget == Some(8) {
                assert!(
                    sched.preemptions() > 0,
                    "the tight pool must actually preempt ({threads} threads)"
                );
            }

            // Row-sharded at this thread count × every shard count.
            for n_shards in [1usize, 2, 3] {
                let mut sharded = ShardPlan::new(&model, n_shards).rebuild(&model);
                sharded.set_thread_pool(pool.clone());
                let mut sched = BatchScheduler::with_page_tokens(sharded, 3, 2);
                if let Some(pages) = budget {
                    sched.set_page_budget(pages).expect("nothing queued yet");
                    sched.enable_prefix_sharing(true);
                }
                let done = run_sorted(&mut sched);
                assert_eq!(
                    done, reference,
                    "{n_shards} shards, budget {budget:?}, {threads} threads"
                );
                if budget == Some(8) {
                    assert!(
                        sched.preemptions() > 0,
                        "the tight pool must preempt ({n_shards} shards, {threads} threads)"
                    );
                }
            }
        }
    }
}

/// Shrinking the pool monotonically increases preemptions but never
/// changes a token, and the pool invariants hold at every step: allocated
/// pages within budget, free + allocated tiling it exactly.
#[test]
fn shrinking_page_budgets_trade_preemptions_not_tokens() {
    let model = packed_model(11);
    let reference = {
        let mut sched = BatchScheduler::with_page_tokens(model.clone(), 3, 2);
        run_sorted(&mut sched)
    };
    let mut last_preemptions = 0u64;
    for pages in [20usize, 10, 6] {
        let mut sched = BatchScheduler::with_page_tokens(model.clone(), 3, 2);
        sched.set_page_budget(pages).expect("nothing queued yet");
        for req in requests() {
            sched.submit(req).expect("worst case fits the pool");
        }
        while !sched.is_idle() {
            sched.step();
            let s = sched.stats();
            assert!(s.allocated_pages <= pages, "pool overflow at {pages} pages");
            assert_eq!(s.free_pages, Some(pages - s.allocated_pages));
        }
        let mut done = sched.take_finished();
        done.sort_by_key(|f| f.id);
        assert_eq!(done, reference, "{pages}-page pool");
        assert!(
            sched.preemptions() >= last_preemptions,
            "tighter pools cannot preempt less ({pages} pages)"
        );
        last_preemptions = sched.preemptions();
        let events = sched.take_preemption_events();
        assert_eq!(events.len() as u64, sched.preemptions());
    }
    assert!(last_preemptions > 0, "the tightest pool must exercise preemption");
}
