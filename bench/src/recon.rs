//! Per-token times reconstructed from what the scheduler's public API
//! exposes.
//!
//! `FinishedSequence` carries no timestamps and there is no streaming API,
//! so the driver records the wall time at which each `step()` returned
//! (indexed by `Scheduler::steps()`), the step at which a request showed up
//! in `take_finished()`, and every `PreemptionEvent`. That is enough:
//!
//! * a resident sequence past its prompt samples exactly one token per
//!   step until it retires or is evicted, so the tokens of one residency
//!   sit on consecutive steps counted back from the step that ended it;
//! * an eviction reports `dropped_cached_tokens` = tokens fed so far; a
//!   sequence that has sampled `g` tokens has fed `prompt + g - 1`, which
//!   gives `g` at that eviction (while a resumed sequence is still
//!   replaying, the count does not move);
//! * admission is strict FIFO, so the `i`-th accepted request left the
//!   queue at the first step after which
//!   `accepted so far − stats().queued` exceeds `i`.

/// One `PreemptionEvent` of a request, as the scheduler reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// `Scheduler::steps()` at eviction: the last step the sequence rode.
    pub step: u64,
    pub dropped_cached_tokens: usize,
}

/// The step at which each generated token of a finished request was
/// sampled (1-based, as `Scheduler::steps()` counts), oldest first.
///
/// # Errors
///
/// Returns why the observations are inconsistent with `n_generated`
/// tokens — the run is then not `correct`.
pub fn token_steps(
    prompt_len: usize,
    n_generated: usize,
    finish_step: u64,
    evictions: &[Eviction],
) -> Result<Vec<u64>, String> {
    let mut steps: Vec<u64> = Vec::with_capacity(n_generated);
    // Tokens `steps.len()..upto` were sampled on consecutive steps ending
    // at `last`.
    let segment = |steps: &mut Vec<u64>, upto: usize, last: u64| -> Result<(), String> {
        let fresh = upto - steps.len();
        if (fresh as u64) > last {
            return Err(format!("{fresh} tokens cannot end at step {last}"));
        }
        let first = last + 1 - fresh as u64;
        if fresh > 0 && steps.last().is_some_and(|&prev| first <= prev) {
            return Err(format!("segment starting at step {first} overlaps the previous one"));
        }
        steps.extend(first..=last);
        Ok(())
    };
    for ev in evictions {
        let sampled = (ev.dropped_cached_tokens + 1).saturating_sub(prompt_len);
        if sampled > n_generated {
            return Err(format!(
                "eviction at step {} implies {sampled} tokens, request finished with {n_generated}",
                ev.step
            ));
        }
        if sampled > steps.len() {
            segment(&mut steps, sampled, ev.step)?;
        }
    }
    if steps.len() == n_generated {
        // The final token is always sampled on the finishing step, so an
        // eviction can never account for all of them.
        return Err("every token was attributed to an evicted residency".to_owned());
    }
    segment(&mut steps, n_generated, finish_step)?;
    Ok(steps)
}

/// The step at which each accepted request was admitted (1-based), from
/// strict-FIFO admission. `accepted_before[k]` is the number of requests
/// the queue had accepted when step `k + 1` was called and
/// `queued_after[k]` is `stats().queued` after it returned. Requests still
/// queued after the last step get `None`.
pub fn admit_steps(accepted_before: &[usize], queued_after: &[usize]) -> Vec<Option<u64>> {
    let total = accepted_before.last().copied().unwrap_or(0);
    let mut out = vec![None; total];
    let mut next = 0usize;
    for (k, (&accepted, &queued)) in accepted_before.iter().zip(queued_after).enumerate() {
        let admitted = accepted - queued;
        while next < admitted {
            out[next] = Some(k as u64 + 1);
            next += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unpreempted_answer_counts_back_from_its_finishing_step() {
        assert_eq!(token_steps(8, 4, 20, &[]).expect("consistent"), vec![17, 18, 19, 20]);
        assert_eq!(token_steps(1, 1, 1, &[]).expect("consistent"), vec![1]);
    }

    #[test]
    fn an_eviction_splits_the_answer_into_two_runs() {
        // Prompt 4. Evicted after step 10 with 6 cached tokens: it had fed
        // 4 prompt + 2 generated, i.e. sampled 3 tokens at steps 8, 9, 10.
        let ev = [Eviction { step: 10, dropped_cached_tokens: 6 }];
        assert_eq!(token_steps(4, 5, 30, &ev).expect("consistent"), vec![8, 9, 10, 29, 30]);
    }

    #[test]
    fn an_eviction_during_prefill_or_replay_adds_no_tokens() {
        // Evicted mid-prefill (3 of 4 prompt tokens cached), then again
        // while replaying (5 cached < 4 + 3 - 1 already sampled).
        let ev = [
            Eviction { step: 3, dropped_cached_tokens: 3 },
            Eviction { step: 12, dropped_cached_tokens: 6 },
            Eviction { step: 20, dropped_cached_tokens: 5 },
        ];
        assert_eq!(token_steps(4, 4, 40, &ev).expect("consistent"), vec![10, 11, 12, 40]);
    }

    #[test]
    fn inconsistent_observations_are_reported() {
        let too_many = [Eviction { step: 10, dropped_cached_tokens: 20 }];
        assert!(token_steps(4, 5, 30, &too_many).is_err());
        let all_evicted = [Eviction { step: 10, dropped_cached_tokens: 8 }];
        assert!(token_steps(4, 5, 30, &all_evicted).is_err());
        let overlapping = [Eviction { step: 10, dropped_cached_tokens: 6 }];
        assert!(token_steps(4, 5, 11, &overlapping).is_err());
        assert!(token_steps(4, 9, 5, &[]).is_err());
    }

    #[test]
    fn fifo_admission_follows_the_queue_depth() {
        // Step 1: 3 accepted, 1 still queued -> requests 0, 1 admitted.
        // Step 2: nothing moves. Step 3: 5 accepted, 1 queued -> 2, 3.
        let admitted = admit_steps(&[3, 3, 5], &[1, 1, 1]);
        assert_eq!(admitted, vec![Some(1), Some(1), Some(3), Some(3), None]);
    }
}
