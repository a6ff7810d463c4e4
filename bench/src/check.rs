//! Output checks every run performs.
//!
//! Before the window, a 16-request check set served through the
//! workload's own engine must equal [`Transformer::generate`] on the
//! packed model token for token. After the drain, a seeded sample of
//! finished requests is served again on a fresh, unbudgeted in-process
//! scheduler and must match what the engine under load produced.

use crate::driver::RequestRecord;
use crate::workload::{Kind, Planned, SLOTS, TEMPERATURE};
use fineq::lm::{BatchScheduler, Scheduler, ServeModel, ServeRequest, Transformer};
use fineq::tensor::Rng;
use std::collections::BTreeMap;

pub const CHECK_SET: usize = 16;
pub const RECHECK_SAMPLE: usize = 64;

/// The check set: short requests of mixed lengths, from the run seed.
pub fn check_set(seed: u64, vocab: usize) -> Vec<Planned> {
    let mut rng = Rng::seed_from(seed ^ 0xC4EC_05E7);
    (0..CHECK_SET)
        .map(|_| {
            let prompt_len = 4 + rng.below(9);
            Planned {
                kind: Kind::Closed,
                due_us: 0,
                prompt: (0..prompt_len).map(|_| rng.below(vocab)).collect(),
                max_new_tokens: 8 + rng.below(17),
                sampling_seed: rng.next_u64(),
            }
        })
        .collect()
}

/// Serves `requests` to completion on `sched` (which must be idle) and
/// returns each one's tokens by id.
pub fn serve_all<M: ServeModel>(
    sched: &mut Scheduler<M>,
    requests: Vec<ServeRequest>,
) -> Result<BTreeMap<u64, Vec<usize>>, String> {
    for r in requests {
        let id = r.id;
        sched.submit(r).map_err(|e| format!("check request {id} refused: {e}"))?;
    }
    let done = sched.run();
    let failed = sched.take_failed();
    if let Some(f) = failed.first() {
        return Err(format!("check request {} failed: {}", f.id, f.error));
    }
    // Leave nothing behind for the leg that runs next on this scheduler.
    sched.take_preemption_events();
    Ok(done.into_iter().map(|f| (f.id, f.generated)).collect())
}

/// Serves the check set on `sched` and compares it with solo decoding on
/// `reference`. The set is drained before it returns, so the leg that
/// follows may reuse its ids.
///
/// # Errors
///
/// Returns the first mismatch.
pub fn check_against_generate<M: ServeModel>(
    sched: &mut Scheduler<M>,
    reference: &Transformer,
    seed: u64,
) -> Result<(), String> {
    let set = check_set(seed, reference.config().vocab);
    let requests = set.iter().enumerate().map(|(i, p)| p.to_request(i as u64)).collect();
    let served = serve_all(sched, requests)?;
    for (i, p) in set.iter().enumerate() {
        let mut rng = Rng::seed_from(p.sampling_seed);
        let expect = reference.generate(&p.prompt, p.max_new_tokens, TEMPERATURE, &mut rng);
        if served.get(&(i as u64)) != Some(&expect) {
            return Err(format!("check request {i} differs from Transformer::generate"));
        }
    }
    Ok(())
}

/// Re-serves a seeded sample of the leg's finished requests on a fresh
/// unbudgeted `BatchScheduler` over `reference`.
///
/// # Errors
///
/// Returns the first request whose tokens differ.
pub fn recheck_sample(
    reference: &Transformer,
    records: &[RequestRecord],
    seed: u64,
    sample: usize,
) -> Result<usize, String> {
    let mut finished: Vec<&RequestRecord> =
        records.iter().filter(|r| r.finish_step.is_some()).collect();
    // Partial Fisher-Yates: the first `sample` entries are the draw.
    let mut rng = Rng::seed_from(seed ^ 0x5A3B_1E00);
    let take = sample.min(finished.len());
    for i in 0..take {
        let j = i + rng.below(finished.len() - i);
        finished.swap(i, j);
    }
    finished.truncate(take);
    let mut fresh = BatchScheduler::new(reference.clone(), SLOTS);
    let served = serve_all(&mut fresh, finished.iter().map(|r| r.request.clone()).collect())?;
    for r in &finished {
        if served.get(&r.id) != Some(&r.generated) {
            return Err(format!("request {} differs when served again in isolation", r.id));
        }
    }
    Ok(take)
}
