//! Sharded-serving determinism suite: row-sharding the packed weights
//! across worker shards must be **exactly** invisible in every output —
//! `assert_eq!`, not approximate comparison — from the gather kernels
//! through batched steps to whole scheduler runs, at shard counts covering
//! the trivial (1), even (2), uneven (3) and more-shards-than-some-sites-
//! have-rows (5) cases. The wire format is on the same path:
//! `ShardPlan::rebuild` returns the model whose sites it decoded from the
//! envelopes the plan ships, and this suite additionally corrupts those
//! bytes on purpose.

use fineq::core::frame::checksum;
use fineq::core::serialize::{shard_from_bytes, shard_to_bytes, DecodeError, ShardHeader};
use fineq::core::{FineQuantizer, ThreadPool};
use fineq::lm::shard::site_id;
use fineq::lm::{
    BatchKvCache, BatchScheduler, ModelConfig, ServeRequest, ShardPlan, Transformer, WeightSite,
};
use fineq::pipeline::{serve_packed_with_threads, PipelineConfig};
use fineq::tensor::{Matrix, Rng};
use std::sync::Arc;

/// Shard counts the suite sweeps; 5 exceeds the row count of the
/// `d_ff = 1` model's FFN-up site (1 output channel), exercising empty
/// shard ranges.
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 5];

/// A fully packed random model. `d_ff = 1` produces a 1-channel FFN-up
/// site (1 row) and a 1-column FFN-down site.
fn packed_model(d_ff: usize, seed: u64) -> Transformer {
    let cfg = ModelConfig::new(24, 8, 2, 2, d_ff);
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

/// Batched steps of the rebuilt model equal the source transformer's
/// bit for bit — ragged slots, every shard count, with and without a pool,
/// including the 1-channel weight site where shards sit out.
#[test]
fn sharded_batch_steps_are_bit_identical_to_unsharded() {
    for (d_ff, seed) in [(16usize, 1u64), (1, 2)] {
        let model = packed_model(d_ff, seed);
        let cfg = model.config().clone();
        let steps: [(Vec<usize>, Vec<usize>); 3] =
            [(vec![1, 2, 3], vec![0, 1, 2]), (vec![4, 5], vec![0, 2]), (vec![6], vec![2])];
        let mut reference_cache = BatchKvCache::new(cfg.n_layers, cfg.d_model, 3);
        let reference: Vec<Matrix> = steps
            .iter()
            .map(|(t, s)| model.forward_step_batch(t, s, &mut reference_cache))
            .collect();
        for n_shards in SHARD_COUNTS {
            for threads in [1usize, 3] {
                let mut sharded = ShardPlan::new(&model, n_shards).rebuild(&model);
                sharded.set_thread_pool((threads > 1).then(|| Arc::new(ThreadPool::new(threads))));
                let mut cache = BatchKvCache::new(cfg.n_layers, cfg.d_model, 3);
                for (i, (t, s)) in steps.iter().enumerate() {
                    let logits = sharded.forward_step_batch(t, s, &mut cache);
                    assert_eq!(
                        logits, reference[i],
                        "d_ff {d_ff} shards {n_shards} threads {threads} step {i}"
                    );
                }
                assert_eq!(cache, reference_cache, "K/V histories must match bit for bit");
            }
        }
    }
}

/// Whole scheduler runs — admission, sampling, eos retirement, backfill —
/// are identical between a `BatchScheduler` over the source model and one
/// over its rebuild at every shard count (the acceptance contract).
#[test]
fn sharded_scheduler_runs_equal_unsharded_at_every_shard_count() {
    let model = packed_model(16, 3);
    let submit_all = |mut submit: Box<dyn FnMut(ServeRequest) + '_>| {
        let mut rng = Rng::seed_from(77);
        for id in 0..6u64 {
            let len = 3 + (id as usize % 3);
            let prompt: Vec<usize> = (0..len).map(|_| rng.below(24)).collect();
            submit(ServeRequest {
                temperature: 0.85,
                seed: 500 + id,
                eos: Some(0),
                ..ServeRequest::new(id, prompt, 4 + id as usize % 4)
            });
        }
    };
    let reference = {
        let mut sched = BatchScheduler::new(model.clone(), 2);
        submit_all(Box::new(|r| sched.submit(r).expect("admitted")));
        sched.run()
    };
    assert_eq!(reference.len(), 6);
    for n_shards in SHARD_COUNTS {
        let mut sched = BatchScheduler::new(ShardPlan::new(&model, n_shards).rebuild(&model), 2);
        submit_all(Box::new(|r| sched.submit(r).expect("admitted")));
        let done = sched.run();
        assert_eq!(done, reference, "sharding must be invisible at {n_shards} shards");
        assert_eq!(sched.cache().total_tokens(), 0, "retirement frees K/V");
    }
}

/// The pipeline's packed model, rebuilt from its shards, against the
/// unsharded pipeline on a quantized-from-dense model: the rebuild
/// inherits the pipeline's kernel pool.
#[test]
fn pipeline_sharded_serving_matches_packed_serving() {
    use fineq::lm::builder::{build_fitted_model, BuilderSpec};
    use fineq::lm::corpus::Corpus;
    let corpus = Corpus::wiki_like(64, 5);
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 3_000, 2);
    let cfg = PipelineConfig::default();
    let q = FineQuantizer::paper();
    let requests: Vec<ServeRequest> = (0..5u64)
        .map(|id| {
            let prompt = corpus.generate(3 + id as usize % 4, 80 + id).tokens().to_vec();
            ServeRequest { temperature: 0.9, seed: 40 + id, ..ServeRequest::new(id, prompt, 6) }
        })
        .collect();
    let reference = {
        let (mut sched, _) = serve_packed_with_threads(&model, &q, &cfg, 3, 1);
        requests.iter().for_each(|r| sched.submit(r.clone()).expect("fits the budget"));
        sched.run()
    };
    let (threaded, _) = serve_packed_with_threads(&model, &q, &cfg, 3, 3);
    let packed = threaded.model();
    for n_shards in [2usize, 5] {
        let mut sched = BatchScheduler::new(ShardPlan::new(packed, n_shards).rebuild(packed), 3);
        assert_eq!(sched.model().thread_pool().expect("pool inherited").threads(), 3);
        requests.iter().for_each(|r| sched.submit(r.clone()).expect("fits the budget"));
        assert_eq!(sched.run(), reference, "{n_shards} shards");
    }
}

/// Wire-format round trip of a whole sharded model: every slice
/// re-serializes under its plan header and decodes back identical; headers
/// carry the right ranges; the rebuilt model equals the source.
#[test]
fn sharded_model_wire_round_trip() {
    let model = packed_model(16, 6);
    let plan = ShardPlan::new(&model, 3);
    // Each shard ships one envelope per site it owns rows of, in plan
    // order: take them site by site.
    let mut shipped: Vec<_> =
        (0..plan.n_shards()).map(|s| plan.envelopes(&model, s).into_iter()).collect();
    for l in 0..model.n_layers() {
        for site in WeightSite::ALL {
            let sp = plan.site(l, site);
            let mut covered = 0usize;
            for (s, envelopes) in shipped.iter_mut().enumerate() {
                let (start, end) = sp.range(s);
                if start == end {
                    continue; // this shard ships nothing for the site
                }
                let envelope = envelopes.next().expect("one envelope per owned site");
                let (shipped_header, slice) = shard_from_bytes(&envelope).expect("shipped bytes");
                let offset = shipped_header.row_start as usize;
                // Find this slice's shard to rebuild its header.
                let shard = (0..plan.n_shards())
                    .find(|&s| sp.range(s) == (offset, offset + slice.rows()))
                    .expect("slice matches a planned range");
                let header = ShardHeader {
                    shard_index: shard as u16,
                    n_shards: plan.n_shards() as u16,
                    site_id: site_id(l, site),
                    row_start: offset as u32,
                    total_rows: sp.rows as u32,
                };
                assert_eq!(shipped_header, header, "the plan's envelope carries the plan's header");
                let bytes = shard_to_bytes(&slice, &header);
                let (got, back) = shard_from_bytes(&bytes).expect("round trip");
                assert_eq!(got, header);
                assert_eq!(back, slice);
                // The decoded site_id maps back to the exact weight site.
                let id = got.site_id as usize;
                assert_eq!(
                    (
                        id / WeightSite::ALL.len(),
                        WeightSite::from_index(id % WeightSite::ALL.len())
                    ),
                    (l, site)
                );
                covered += slice.rows();
            }
            assert_eq!(covered, sp.rows, "slices tile layer {l} {site:?}");
        }
    }
    assert!(shipped.iter_mut().all(|envelopes| envelopes.next().is_none()), "nothing unplanned");
    // Rebuilding from the shipped bytes yields the source model.
    assert_eq!(plan.rebuild(&model), model);
}

/// Shipped bytes that lie are rejected: wrong version, corrupt payload,
/// impossible range — exercised on real slices of a sharded model.
#[test]
fn sharded_wire_rejects_tampered_bytes() {
    let model = packed_model(16, 7);
    let plan = ShardPlan::new(&model, 2);
    // Shard 1's slice of layer 0's Q, decoded from the envelope it ships.
    let (shipped, slice) = plan
        .envelopes(&model, 1)
        .iter()
        .map(|envelope| shard_from_bytes(envelope).expect("shipped bytes"))
        .find(|(h, _)| h.site_id == site_id(0, WeightSite::AttnQ))
        .expect("shard 1 owns rows of layer 0's Q");
    let sp = plan.site(0, WeightSite::AttnQ);
    let header = ShardHeader {
        shard_index: 1,
        n_shards: 2,
        site_id: site_id(0, WeightSite::AttnQ),
        row_start: shipped.row_start,
        total_rows: sp.rows as u32,
    };
    let bytes = shard_to_bytes(&slice, &header);

    let mut wrong_version = bytes.clone();
    wrong_version[4..6].copy_from_slice(&7u16.to_le_bytes());
    assert_eq!(shard_from_bytes(&wrong_version).unwrap_err(), DecodeError::BadVersion(7));

    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x20;
    assert_eq!(shard_from_bytes(&corrupt).unwrap_err(), DecodeError::BadChecksum);

    // Corrupt routing metadata (site_id flip) is caught by the checksum
    // too — the header is covered, not just the payload.
    let mut corrupt_header = bytes.clone();
    corrupt_header[10] ^= 0x02;
    assert_eq!(shard_from_bytes(&corrupt_header).unwrap_err(), DecodeError::BadChecksum);

    let mut bad_range = bytes.clone();
    bad_range[18..22].copy_from_slice(&1u32.to_le_bytes()); // total_rows < slice
    let c = checksum(checksum(0, &bad_range[..22]), &bad_range[26..]);
    bad_range[22..26].copy_from_slice(&c.to_le_bytes()); // valid checksum, lying range
    assert_eq!(shard_from_bytes(&bad_range).unwrap_err(), DecodeError::BadRange);

    assert_eq!(shard_from_bytes(&bytes[..20]).unwrap_err(), DecodeError::Truncated);
}
