//! Fixtures and seeded request generation.
//!
//! The model is fixed (the repository's gate model, same construction as
//! `crates/bench/benches/packed_batch.rs::bench_models`); `--seed` drives
//! prompts, lengths and arrival times only, and the program under test
//! receives generated requests, never the seed.

use fineq::core::FineQuantizer;
use fineq::lm::builder::{llm_like_matrix, BuilderSpec};
use fineq::lm::{ModelConfig, ServeRequest, Transformer, WeightSite};
use fineq::tensor::{Matrix, Rng};

/// Sequence slots of every serving engine.
pub const SLOTS: usize = 16;
/// Sampling temperature of every request.
pub const TEMPERATURE: f32 = 0.9;

/// `decode_closed` / `remote_2shard`: prompt and answer length.
pub const CLOSED_PROMPT: usize = 8;
pub const CLOSED_NEW_TOKENS: usize = 64;

/// `arrival_mix` constants; see `bench/README.md` for the measurements
/// that sized them.
pub const MIX_PAGE_TOKENS: usize = 16;
pub const MIX_PAGE_BUDGET: usize = 96;
pub const MIX_RATE_PER_S: f64 = 30.0;
/// The background count is fixed per cell of this length, not only per
/// period: arrivals stay irregular at the scale of a step, but no seed
/// gets a second that is twice as busy as another seed's.
pub const MIX_CELL_S: f64 = 0.5;
pub const MIX_LEN_MEDIAN: f64 = 24.0;
pub const MIX_LEN_SIGMA: f64 = 0.8;
pub const MIX_PROMPT_RANGE: (usize, usize) = (4, 192);
pub const MIX_OUTPUT_RANGE: (usize, usize) = (4, 128);
pub const MIX_HERD_PERIOD_S: f64 = 5.0;
pub const MIX_HERD_PHASE_S: f64 = 2.5;
pub const MIX_HERD_SIZE: usize = 24;
pub const MIX_HERD_PREFIX: usize = 96;
pub const MIX_HERD_UNIQUE: usize = 8;
pub const MIX_HERD_OUTPUT_RANGE: (usize, usize) = (16, 48);

/// Latency limits of `slo_met_share`.
pub const SLO_TTFT_MS: f64 = 500.0;
pub const SLO_GAP_MS: f64 = 100.0;

/// The dense gate model: `ModelConfig::new(64, 256, 2, 4, 512)` with
/// seeded LLM-like body weights (1 048 576 of them).
pub fn gate_model() -> Transformer {
    let cfg = ModelConfig::new(64, 256, 2, 4, 512);
    let spec = BuilderSpec::tiny();
    let mut rng = Rng::seed_from(41);
    let mut dense = Transformer::zeros(cfg.clone());
    *dense.embedding_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.3));
    *dense.head_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.3));
    for l in 0..dense.n_layers() {
        for site in WeightSite::ALL {
            let (r, c) = {
                let w = dense.weight(l, site);
                (w.rows(), w.cols())
            };
            *dense.weight_mut(l, site) = llm_like_matrix(r, c, &spec, &mut rng).into();
        }
    }
    dense
}

/// `dense` with every block site packed — what the serving entry points
/// build internally, and the reference the output checks decode against.
pub fn pack_model(dense: &Transformer) -> Transformer {
    fineq::pipeline::quantize_model_packed(
        dense,
        &FineQuantizer::paper(),
        &fineq::pipeline::PipelineConfig::default(),
    )
    .0
}

/// Which part of a traffic mix a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Closed,
    Background,
    Herd,
}

/// A generated request and, on an open loop, when it is due.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub kind: Kind,
    /// Microseconds after the schedule starts (0 on a closed loop).
    pub due_us: u64,
    pub prompt: Vec<usize>,
    pub max_new_tokens: usize,
    pub sampling_seed: u64,
}

impl Planned {
    pub fn to_request(&self, id: u64) -> ServeRequest {
        ServeRequest {
            temperature: TEMPERATURE,
            seed: self.sampling_seed,
            ..ServeRequest::new(id, self.prompt.clone(), self.max_new_tokens)
        }
    }
}

fn tokens(rng: &mut Rng, n: usize, vocab: usize) -> Vec<usize> {
    (0..n).map(|_| rng.below(vocab)).collect()
}

/// The closed-loop request stream: request `k` is the same for every
/// workload that uses the same seed, whoever ends up sending it.
#[derive(Debug, Clone)]
pub struct ClosedStream {
    rng: Rng,
    vocab: usize,
    sent: usize,
}

impl ClosedStream {
    pub fn new(seed: u64, vocab: usize) -> Self {
        Self { rng: Rng::seed_from(seed ^ 0xC105_ED00), vocab, sent: 0 }
    }

    /// The next request. The first round's answers are staggered
    /// (`4, 8, …, 64` tokens) so the clients never retire — and prefill —
    /// in lockstep, which would put token-free gaps into every rate slice.
    pub fn next_request(&mut self) -> Planned {
        let k = self.sent;
        self.sent += 1;
        let max_new_tokens =
            if k < SLOTS { CLOSED_NEW_TOKENS * (k + 1) / SLOTS } else { CLOSED_NEW_TOKENS };
        Planned {
            kind: Kind::Closed,
            due_us: 0,
            prompt: tokens(&mut self.rng, CLOSED_PROMPT, self.vocab),
            max_new_tokens,
            sampling_seed: self.rng.next_u64(),
        }
    }
}

/// The background lengths every period carries: `n` quantiles of
/// `clamp(lognormal(median, σ))`, i.e. the same multiset for every seed.
/// (Read off a large fixed-seed sample, which needs no inverse CDF.)
fn length_quantiles(n: usize, range: (usize, usize)) -> Vec<usize> {
    const DRAWS_PER_QUANTILE: usize = 64;
    let mut rng = Rng::seed_from(0x10C5_CA1E);
    let mut sample: Vec<f64> = (0..n * DRAWS_PER_QUANTILE)
        .map(|_| (MIX_LEN_MEDIAN.ln() + MIX_LEN_SIGMA * f64::from(rng.standard_normal())).exp())
        .collect();
    sample.sort_by(|a, b| a.partial_cmp(b).expect("finite lengths"));
    (0..n)
        .map(|k| sample[k * DRAWS_PER_QUANTILE + DRAWS_PER_QUANTILE / 2].round() as usize)
        .map(|len| len.clamp(range.0, range.1))
        .collect()
}

fn shuffled<T>(mut items: Vec<T>, rng: &mut Rng) -> Vec<T> {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
    items
}

/// The `arrival_mix` schedule over `[0, horizon_s)`, ordered by due time,
/// built one [`MIX_HERD_PERIOD_S`] period at a time: a Poisson background
/// conditioned on its count (`rate × cell` arrivals at uniform times in
/// every [`MIX_CELL_S`] cell) with heavy-tailed lengths, plus one herd of
/// simultaneous requests sharing a long prefix.
///
/// Every period offers the **same multiset** of prompt and answer lengths,
/// dealt evenly over its cells; the seed decides when each arrives inside
/// its cell, which prompt meets which answer length, and what the tokens
/// are. Runs with different seeds therefore offer the same work at the
/// same pace, and differ in how it collides.
/// A pure function of its arguments, fixed before the run starts.
pub fn arrival_schedule(seed: u64, horizon_s: f64, vocab: usize) -> Vec<Planned> {
    let mut rng = Rng::seed_from(seed ^ 0xA221_7A15);
    let per_cell = (MIX_RATE_PER_S * MIX_CELL_S).round() as usize;
    let cells = (MIX_HERD_PERIOD_S / MIX_CELL_S).round() as usize;
    let per_period = per_cell * cells;
    let prompt_lens = length_quantiles(per_period, MIX_PROMPT_RANGE);
    let output_lens = length_quantiles(per_period, MIX_OUTPUT_RANGE);
    let (lo, hi) = MIX_HERD_OUTPUT_RANGE;
    let herd_outputs: Vec<usize> =
        (0..MIX_HERD_SIZE).map(|k| lo + k * (hi - lo) / (MIX_HERD_SIZE - 1)).collect();
    // Deal the sorted lengths round-robin into the cells, so every cell
    // carries the same share of short and long requests; answers are dealt
    // with a different stride, so a cell's long prompts do not all meet
    // its long answers.
    let deal = |lens: &[usize], cell: usize, stride: usize| -> Vec<usize> {
        (0..per_cell).map(|j| lens[j * cells + (cell * stride) % cells]).collect()
    };
    let mut plan = Vec::new();
    let mut period_start = 0.0;
    while period_start < horizon_s {
        for cell in 0..cells {
            let cell_start = period_start + cell as f64 * MIX_CELL_S;
            let prompts = shuffled(deal(&prompt_lens, cell, 1), &mut rng);
            let outputs = shuffled(deal(&output_lens, cell, 3), &mut rng);
            for (prompt_len, max_new_tokens) in prompts.into_iter().zip(outputs) {
                plan.push(Planned {
                    kind: Kind::Background,
                    due_us: ((cell_start + rng.uniform() * MIX_CELL_S) * 1e6) as u64,
                    prompt: tokens(&mut rng, prompt_len, vocab),
                    max_new_tokens,
                    sampling_seed: rng.next_u64(),
                });
            }
        }
        let prefix = tokens(&mut rng, MIX_HERD_PREFIX, vocab);
        for max_new_tokens in shuffled(herd_outputs.clone(), &mut rng) {
            let mut prompt = prefix.clone();
            prompt.extend(tokens(&mut rng, MIX_HERD_UNIQUE, vocab));
            plan.push(Planned {
                kind: Kind::Herd,
                due_us: ((period_start + MIX_HERD_PHASE_S) * 1e6) as u64,
                prompt,
                max_new_tokens,
                sampling_seed: rng.next_u64(),
            });
        }
        period_start += MIX_HERD_PERIOD_S;
    }
    plan.retain(|p| (p.due_us as f64) < horizon_s * 1e6);
    // Stable: a herd keeps its generation order at its shared due time.
    plan.sort_by_key(|p| p.due_us);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_arrival_schedule_is_a_pure_function_of_the_seed() {
        let a = arrival_schedule(7, 12.0, 64);
        assert_eq!(a, arrival_schedule(7, 12.0, 64));
        assert_ne!(a, arrival_schedule(8, 12.0, 64));
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us), "ordered by due time");
        // A longer horizon extends the schedule without changing its past.
        let longer = arrival_schedule(7, 20.0, 64);
        assert_eq!(a[..], longer[..a.len()]);
    }

    #[test]
    fn every_seed_offers_the_same_work_per_period() {
        let work = |seed| {
            let plan = arrival_schedule(seed, 15.0, 64);
            let mut per_period = vec![(0usize, 0usize, 0usize); 3];
            for p in &plan {
                let slot = &mut per_period[(p.due_us / 5_000_000) as usize];
                slot.0 += 1;
                slot.1 += p.prompt.len();
                slot.2 += p.max_new_tokens;
            }
            per_period
        };
        let a = work(1);
        assert_eq!(a, work(2));
        assert_eq!(a[0], a[1]);
        assert_eq!(a[0].0, 150 + MIX_HERD_SIZE);
        // ... and the same number of background arrivals in every cell.
        let plan = arrival_schedule(3, 15.0, 64);
        let mut per_cell = vec![0usize; 30];
        for p in plan.iter().filter(|p| p.kind == Kind::Background) {
            per_cell[(p.due_us / 500_000) as usize] += 1;
        }
        assert!(per_cell.iter().all(|&n| n == 15), "{per_cell:?}");
    }

    #[test]
    fn the_schedule_holds_the_mix_it_promises() {
        let plan = arrival_schedule(3, 20.0, 64);
        let herd: Vec<_> = plan.iter().filter(|p| p.kind == Kind::Herd).collect();
        // Herds at 2.5, 7.5, 12.5, 17.5 s.
        assert_eq!(herd.len(), 4 * MIX_HERD_SIZE);
        for h in &herd {
            assert_eq!(h.prompt.len(), MIX_HERD_PREFIX + MIX_HERD_UNIQUE);
            assert!((16..=48).contains(&h.max_new_tokens));
        }
        let first: Vec<_> = herd.iter().filter(|h| h.due_us == 2_500_000).collect();
        assert_eq!(first.len(), MIX_HERD_SIZE);
        assert!(first.iter().all(|h| h.prompt[..MIX_HERD_PREFIX] == first[0].prompt[..96]));
        let background: Vec<_> = plan.iter().filter(|p| p.kind == Kind::Background).collect();
        assert_eq!(background.len(), 600, "30/s over 20 s");
        let mut prompt_lens: Vec<usize> = background.iter().map(|b| b.prompt.len()).collect();
        prompt_lens.sort_unstable();
        // Heavy-tailed around the median of 24: the clamp bites at both ends.
        assert!((22..=26).contains(&prompt_lens[300]), "median {}", prompt_lens[300]);
        assert!(
            prompt_lens[0] == 4 && prompt_lens[599] >= 150,
            "{:?}",
            (prompt_lens[0], prompt_lens[599])
        );
        for b in &background {
            assert!((4..=192).contains(&b.prompt.len()));
            assert!((4..=128).contains(&b.max_new_tokens));
            assert!(b.prompt.iter().all(|&t| t < 64));
        }
    }

    #[test]
    fn the_closed_stream_repeats_for_a_seed_and_staggers_its_first_round() {
        let take = |seed| {
            let mut s = ClosedStream::new(seed, 64);
            (0..40).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        let a = take(5);
        assert_eq!(a, take(5));
        assert_ne!(a, take(6));
        let first_round: Vec<usize> = a[..SLOTS].iter().map(|p| p.max_new_tokens).collect();
        assert_eq!(first_round, (1..=16).map(|k| 4 * k).collect::<Vec<_>>());
        assert!(a[SLOTS..].iter().all(|p| p.max_new_tokens == CLOSED_NEW_TOKENS));
        assert!(a.iter().all(|p| p.prompt.len() == CLOSED_PROMPT));
    }
}
