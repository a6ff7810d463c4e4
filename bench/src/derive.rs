//! Turns a leg's raw observations into the metrics it reports.

use crate::driver::{LegLog, RequestRecord};
use crate::recon::{admit_steps, token_steps};
use crate::stats::{highest, lowest, median, quantile, tail, Tail};
use crate::trace::{self_times_us, Recorder, Span};
use crate::workload::{Kind, SLOTS, SLO_GAP_MS, SLO_TTFT_MS};

/// How a leg's window divides into stretches that repeat the same work.
///
/// On the shared host a run alternates between a quiet machine and one
/// whose neighbours slow it 1.5x (step of the gate model: 3.3 ms vs 5.5 ms,
/// flipping from one step to the next or staying for minutes), and the mix
/// differs from run to run. Interference only ever subtracts, so every
/// latency and rate is computed per repeat and the **best repeat** is
/// reported: an estimate of the quiet machine that a slower program still
/// moves, because it slows every repeat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Repeats {
    /// A closed loop does constant work per step, so any run of consecutive
    /// steps repeats any other: stretches of [`GAP_STRETCH_STEPS`] and
    /// [`STRETCH_STEPS`] steps, a sample belonging to the stretch whose
    /// step ended it.
    Steps,
    /// An open loop whose schedule offers the same work every this many
    /// seconds: a sample belongs to the period its request was due in.
    /// A trailing partial period is left out; a window shorter than one
    /// period is one repeat.
    Periods(f64),
}

/// Stretch of a closed loop's token gaps: 32 steps of 16 sequences are
/// ~500 gaps, whichever model steps, and a 15-s window of the gate model
/// holds ~140 such stretches. How the lengths were chosen: ten runs of each
/// closed loop with every token time dumped, each candidate (slices of
/// 0.05-2.5 s and of 16-128 steps; best, best decile, best quartile, pooled
/// quietest slices) applied to the same dumps. The shorter the stretch,
/// the likelier one of them is clean: the run-to-run spread of
/// `gap_ms_p99` on `decode_closed` read 12 % as the best quartile of 0.5-s
/// slices, 7 % as the best 0.25-s slice, 2 % as the best 0.1-s slice and
/// 1.5 % as the best 32 steps — and counting steps instead of seconds
/// treats the 1-ms steps of `quantize_pack`'s model like the gate model's
/// 3.3-ms ones. A stretch's p99 is all but its worst step.
pub const GAP_STRETCH_STEPS: usize = 32;
/// Stretch of a closed loop's TTFT and rate: 64 steps see ~14 first tokens
/// (a client sends one every 72 steps) and 1 024 tokens.
pub const STRETCH_STEPS: usize = 64;
/// Slices of the traced-vs-untraced loop iteration times.
const TICK_SLICE_S: f64 = 0.25;
/// A repeat with fewer samples than this says nothing.
const MIN_REPEAT_SAMPLES: usize = 8;

/// When each phase of one finished request happened.
#[derive(Debug, Clone)]
pub struct RequestTimes {
    pub id: u64,
    pub kind: Kind,
    pub anchor_us: u64,
    pub admit_us: u64,
    pub token_us: Vec<u64>,
}

impl RequestTimes {
    pub fn ttft_ms(&self) -> f64 {
        (self.token_us[0].saturating_sub(self.anchor_us)) as f64 / 1e3
    }

    pub fn gaps_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.token_us.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e3)
    }

    pub fn queue_wait_ms(&self) -> f64 {
        (self.admit_us.saturating_sub(self.anchor_us)) as f64 / 1e3
    }
}

/// Request accounting of one leg, over the requests whose clock started
/// inside the window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub sent: usize,
    pub completed: usize,
    pub failed: usize,
    pub refused: usize,
    pub unfinished: usize,
}

impl Counts {
    pub fn missed(&self) -> usize {
        self.failed + self.refused + self.unfinished
    }
}

/// What a user of the serving leg experienced.
#[derive(Debug, Clone)]
pub struct Experience {
    pub counts: Counts,
    pub tok_s: f64,
    pub tok_s_mean: f64,
    pub rate_slices: usize,
    pub ttft_p50: f64,
    pub ttft_tail: Tail,
    pub gap_p50: f64,
    pub gap_tail: Tail,
    pub gap_samples: usize,
    pub slo_met_share: f64,
    pub peak_pages: usize,
    /// Finished requests of the whole leg (warm-up and drain included),
    /// for the output re-check and the derived request spans.
    pub times: Vec<RequestTimes>,
    /// Reconstruction inconsistencies; any makes the run incorrect.
    pub problems: Vec<String>,
}

/// Boundaries of the whole `slice_s`-second slices of `range_us` (one
/// slice when the range is shorter than that).
fn time_edges(range_us: (u64, u64), slice_s: f64) -> Vec<u64> {
    let slice_us = ((slice_s * 1e6) as u64).clamp(1, (range_us.1 - range_us.0).max(1));
    let n = (range_us.1 - range_us.0) / slice_us;
    (0..=n).map(|i| range_us.0 + i * slice_us).collect()
}

/// Boundaries of the whole `n`-step stretches of the window: the start of
/// every `n`-th step that started inside it.
fn step_edges(log: &LegLog, n: usize) -> Vec<u64> {
    let in_window = log.steps.start_us.iter().copied().filter(|&us| log.in_window(us));
    in_window.step_by(n).collect()
}

/// The samples of each repeat `[edges[i], edges[i + 1])`, in order.
/// `samples` are `(time µs, value)`.
fn by_repeat(samples: &[(u64, f64)], edges: &[u64]) -> Vec<Vec<f64>> {
    let mut repeats = vec![Vec::new(); edges.len().saturating_sub(1)];
    for &(at, v) in samples {
        // `edges[i] <= at` for the first `i + 1` edges.
        if let Some(repeat) = edges.partition_point(|&e| e <= at).checked_sub(1) {
            if let Some(values) = repeats.get_mut(repeat) {
                values.push(v);
            }
        }
    }
    repeats
}

/// `stat` of each repeat holding at least [`MIN_REPEAT_SAMPLES`].
fn per_repeat(samples: &[(u64, f64)], edges: &[u64], stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let repeats = by_repeat(samples, edges);
    repeats.iter().filter(|r| r.len() >= MIN_REPEAT_SAMPLES).map(|r| stat(r)).collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Reconstructs per-token times and derives the end-to-end readings, each
/// the best of the window's `repeats`.
pub fn experience(log: &LegLog, repeats: Repeats) -> Experience {
    let step_index = |step: u64| -> Option<usize> {
        step.checked_sub(log.first_step + 1)
            .map(|i| i as usize)
            .filter(|&i| i < log.steps.end_us.len())
    };
    let admitted = admit_steps(&log.steps.accepted_before, &log.steps.queued_after);
    let mut problems = Vec::new();
    let mut times = Vec::new();
    let mut counts = Counts::default();
    for r in &log.requests {
        let measured = log.in_window(r.anchor_us);
        if measured {
            counts.sent += 1;
            counts.refused += usize::from(r.refused);
            counts.failed += usize::from(r.failed);
        }
        let Some(finish) = r.finish_step else {
            if measured && !r.refused && !r.failed {
                counts.unfinished += 1;
            }
            continue;
        };
        counts.completed += usize::from(measured);
        let steps =
            match token_steps(r.request.prompt.len(), r.generated.len(), finish, &r.evictions) {
                Ok(steps) => steps,
                Err(why) => {
                    problems.push(format!("request {}: {why}", r.id));
                    continue;
                }
            };
        let token_us: Option<Vec<u64>> =
            steps.iter().map(|&s| step_index(s).map(|i| log.steps.end_us[i])).collect();
        let admit_us = r
            .fifo_index
            .and_then(|i| admitted.get(i).copied().flatten())
            .map(|k| log.steps.start_us[k as usize - 1]);
        match (token_us, admit_us) {
            (Some(token_us), Some(admit_us)) if admit_us <= token_us[0] => {
                times.push(RequestTimes {
                    id: r.id,
                    kind: r.kind,
                    anchor_us: r.anchor_us,
                    admit_us,
                    token_us,
                })
            }
            _ => problems.push(format!("request {}: token or admission step out of range", r.id)),
        }
    }

    let window_s = (log.window_us.1 - log.window_us.0) as f64 / 1e6;
    let tokens_at: Vec<(u64, f64)> =
        times.iter().flat_map(|t| t.token_us.iter().map(|&us| (us, 1.0))).collect();
    let tokens_in_window = tokens_at.iter().filter(|&&(us, _)| log.in_window(us)).count();
    let tok_s_mean = tokens_in_window as f64 / window_s;

    let measured: Vec<&RequestTimes> =
        times.iter().filter(|t| log.in_window(t.anchor_us)).collect();
    let ttfts: Vec<f64> = measured.iter().map(|t| t.ttft_ms()).collect();
    let gaps: Vec<f64> = measured.iter().flat_map(|t| t.gaps_ms()).collect();
    let met_slo =
        |t: &RequestTimes| t.ttft_ms() <= SLO_TTFT_MS && t.gaps_ms().all(|g| g <= SLO_GAP_MS);
    let met = measured.iter().filter(|t| met_slo(t)).count();

    // The same samples stamped with the repeat they belong to: on a closed
    // loop when the sample ended, on an open loop when its request was due.
    let closed = repeats == Repeats::Steps;
    let stamp = |t: &RequestTimes, ended_us: u64| if closed { ended_us } else { t.anchor_us };
    let ttfts_at: Vec<(u64, f64)> =
        measured.iter().map(|t| (stamp(t, t.token_us[0]), t.ttft_ms())).collect();
    let gaps_at: Vec<(u64, f64)> = measured
        .iter()
        .flat_map(|t| t.token_us[1..].iter().map(|&us| stamp(t, us)).zip(t.gaps_ms()))
        .collect();
    let whole_window = vec![log.window_us.0, log.window_us.1];
    let (gap_edges, edges, slo_edges) = match repeats {
        Repeats::Steps => {
            (step_edges(log, GAP_STRETCH_STEPS), step_edges(log, STRETCH_STEPS), whole_window)
        }
        Repeats::Periods(period_s) => {
            let periods = time_edges(log.window_us, period_s);
            (periods.clone(), periods.clone(), periods)
        }
    };
    let best = |samples: &[(u64, f64)], q: f64, edges: &[u64]| {
        lowest(&per_repeat(samples, edges, |s| quantile(s, q)))
    };
    // A request that never finished has no times and misses every limit.
    let finished_met: std::collections::BTreeMap<u64, bool> =
        measured.iter().map(|t| (t.id, met_slo(t))).collect();
    let slo_at: Vec<(u64, f64)> = log
        .requests
        .iter()
        .filter(|r| log.in_window(r.anchor_us))
        .map(|r| (r.anchor_us, f64::from(u8::from(finished_met.get(&r.id) == Some(&true)))))
        .collect();
    // Tokens per second of each stretch of a closed loop.
    let rates: Vec<f64> = by_repeat(&tokens_at, &edges)
        .iter()
        .zip(edges.windows(2))
        .map(|(tokens, edge)| tokens.len() as f64 * 1e6 / (edge[1] - edge[0]) as f64)
        .collect();

    let empty = Tail { value: 0.0, percentile: 0.5, samples: 0 };
    let whole = |values: &[f64], q: f64| if values.is_empty() { empty } else { tail(values, q) };
    // A tail keeps the whole window's sample count and supported
    // percentile for the record; its value is the best repeat's.
    let mut gap_tail = whole(&gaps, 0.99);
    if let Some(v) = best(&gaps_at, 0.99, &gap_edges) {
        gap_tail.value = v;
    }
    let mut ttft_tail = whole(&ttfts, 0.95);
    if let Some(v) = best(&ttfts_at, 0.95, &edges) {
        ttft_tail.value = v;
    }
    Experience {
        counts,
        tok_s: match (closed, highest(&rates)) {
            (true, Some(best_rate)) => best_rate,
            // An open loop's rate is the offered load's, whatever the host.
            _ => tok_s_mean,
        },
        tok_s_mean,
        rate_slices: rates.len(),
        ttft_p50: best(&ttfts_at, 0.5, &edges).unwrap_or(whole(&ttfts, 0.5).value),
        ttft_tail,
        gap_p50: best(&gaps_at, 0.5, &gap_edges).unwrap_or(whole(&gaps, 0.5).value),
        gap_tail,
        gap_samples: gaps.len(),
        slo_met_share: highest(&per_repeat(&slo_at, &slo_edges, mean))
            .unwrap_or(met as f64 / counts.sent.max(1) as f64),
        peak_pages: log.steps.allocated_pages.iter().copied().max().unwrap_or(0),
        times,
        problems,
    }
}

/// Adds the per-request `request.queue` / `request.prefill` /
/// `request.decode` spans of a traced leg.
pub fn push_request_spans(rec: &Recorder, exp: &Experience) {
    for t in &exp.times {
        let first = t.token_us[0];
        let last = *t.token_us.last().expect("finished requests have a token");
        rec.push_derived("request.queue", t.anchor_us, t.admit_us, t.id);
        rec.push_derived("request.prefill", t.admit_us, first, t.id);
        rec.push_derived("request.decode", first, last, t.id);
    }
}

fn quantile_or_zero(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile(values, q)
    }
}

fn tail_or_zero(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        tail(values, q).value
    }
}

/// The layer readings a leg yields without spans — the driver's own
/// counters, `stats()` after each step and the reconstructed request
/// times — by metric name. A traced run reports them; an untraced run
/// keeps them in its result file as context and checks its workload
/// conditions against them.
pub fn window_metrics(log: &LegLog, exp: &Experience) -> Vec<(&'static str, f64)> {
    let window_us = (log.window_us.1 - log.window_us.0) as f64;
    let steps_in_win: Vec<usize> =
        (0..log.steps.end_us.len()).filter(|&k| log.in_window(log.steps.start_us[k])).collect();
    let stepped: usize = steps_in_win.iter().map(|&k| log.steps.stepped[k]).sum();
    let busy_slot_us: f64 = steps_in_win
        .iter()
        .map(|&k| {
            log.steps.stepped[k] as f64 * (log.steps.end_us[k] - log.steps.start_us[k]) as f64
        })
        .sum();

    let measured: Vec<_> = exp.times.iter().filter(|t| log.in_window(t.anchor_us)).collect();
    let waits: Vec<f64> = measured.iter().map(|t| t.queue_wait_ms()).collect();
    let herd: Vec<f64> =
        measured.iter().filter(|t| t.kind == Kind::Herd).map(|t| t.ttft_ms()).collect();
    let background: Vec<f64> =
        measured.iter().filter(|t| t.kind != Kind::Herd).map(|t| t.ttft_ms()).collect();
    let lags: Vec<f64> = log
        .requests
        .iter()
        .filter(|r| log.in_window(r.anchor_us))
        .map(|r| (r.submit_us - r.anchor_us) as f64 / 1e3)
        .collect();

    let finished: Vec<&RequestRecord> =
        log.requests.iter().filter(|r| r.finish_step.is_some()).collect();
    let useful: usize = finished.iter().map(|r| r.request.prompt.len() + r.generated.len()).sum();
    let sampled: usize = finished.iter().map(|r| r.generated.len()).sum();
    let stepped_tokens = log.stepped_tokens.max(1) as f64;

    vec![
        ("loadgen.sent", exp.counts.sent as f64),
        ("loadgen.completed", exp.counts.completed as f64),
        ("loadgen.failed", exp.counts.failed as f64),
        ("loadgen.refused", exp.counts.refused as f64),
        ("loadgen.unfinished", exp.counts.unfinished as f64),
        ("loadgen.backlog_end", log.backlog_end as f64),
        ("loadgen.lag_ms_p99", tail_or_zero(&lags, 0.99)),
        ("loadgen.tok_s_mean", exp.tok_s_mean),
        ("loadgen.herd_ttft_ms_p95", tail_or_zero(&herd, 0.95)),
        ("loadgen.background_ttft_ms_p95", tail_or_zero(&background, 0.95)),
        ("serving.steps", steps_in_win.len() as f64),
        ("serving.batch_mean", stepped as f64 / steps_in_win.len().max(1) as f64),
        ("serving.slot_occupancy", busy_slot_us / (SLOTS as f64 * window_us)),
        ("serving.queue_wait_ms_p50", quantile_or_zero(&waits, 0.5)),
        ("serving.queue_wait_ms_p95", tail_or_zero(&waits, 0.95)),
        (
            "serving.queue_depth_max",
            steps_in_win.iter().map(|&k| log.steps.queued_after[k]).max().unwrap_or(0) as f64,
        ),
        ("serving.preemptions", log.preemptions as f64),
        ("serving.stepped_per_useful", stepped_tokens / useful.max(1) as f64),
        ("serving.prefill_token_share", 1.0 - sampled as f64 / stepped_tokens),
        ("generate.kv_pages_peak", exp.peak_pages as f64),
        (
            "generate.kv_free_pages_min",
            // -1: the engine has no page budget, so nothing is ever "free".
            log.steps.free_pages.iter().flatten().min().map_or(-1.0, |&f| f as f64),
        ),
        (
            "generate.kv_shared_pages_peak",
            log.steps.shared_pages.iter().copied().max().unwrap_or(0) as f64,
        ),
        ("generate.kv_cow_copies", log.cow_copies as f64),
        ("generate.kv_shared_prefix_tokens", log.shared_prefix_tokens as f64),
    ]
}

/// The layer readings that need the traced window's spans: where a step's
/// wall time went (the model call vs the scheduler's own share).
pub fn span_metrics(log: &LegLog, spans: &[Span]) -> Vec<(&'static str, f64)> {
    let self_us = self_times_us(spans);
    let in_window_named = |name: &'static str| {
        spans.iter().zip(&self_us).filter(move |(s, _)| s.name == name && log.in_window(s.start_us))
    };
    let durations = |name: &'static str| -> Vec<f64> {
        in_window_named(name).map(|(s, _)| s.duration_us() as f64).collect()
    };
    let step_us = durations("serving.step");
    let step_self: Vec<f64> = in_window_named("serving.step").map(|(_, &us)| us as f64).collect();
    let submit_us = durations("serving.submit");
    let mut forward_us = durations("generate.forward");
    forward_us.extend(durations("remote.forward"));
    vec![
        ("serving.step_us_p50", quantile_or_zero(&step_us, 0.5)),
        ("serving.step_us_p99", tail_or_zero(&step_us, 0.99)),
        ("serving.self_us_p50", quantile_or_zero(&step_self, 0.5)),
        (
            "serving.self_share",
            step_self.iter().sum::<f64>() / step_us.iter().sum::<f64>().max(1.0),
        ),
        ("serving.submit_us_p50", quantile_or_zero(&submit_us, 0.5)),
        ("generate.forward_us_p50", quantile_or_zero(&forward_us, 0.5)),
        ("generate.forward_us_p99", tail_or_zero(&forward_us, 0.99)),
    ]
}

/// `1 − (untraced loop iteration) ÷ (traced one)`: the share of a traced
/// iteration that tracing added. The untraced reference is the warm-up of
/// the same leg; both sides are read as the best of their slice medians,
/// so a slow spell of the host on one side does not pose as (negative)
/// overhead.
pub fn overhead_share(log: &LegLog) -> f64 {
    let ticks: Vec<(u64, f64)> = log.ticks.iter().map(|&(at, us)| (at, us as f64)).collect();
    let side = |range| lowest(&per_repeat(&ticks, &time_edges(range, TICK_SLICE_S), median));
    match (side((log.start_us, log.window_us.0)), side(log.window_us)) {
        (Some(reference), Some(traced)) if traced > 0.0 => 1.0 - reference / traced,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(from_us: u64, n: usize, every_us: u64, value: f64) -> Vec<(u64, f64)> {
        (0..n as u64).map(|i| (from_us + i * every_us, value)).collect()
    }

    #[test]
    fn the_best_repeat_ignores_a_slow_stretch_but_not_a_slow_program() {
        // Three 1-s repeats from t = 10 s: 2 ms, 3 ms (a slow spell), 2 ms.
        let edges = time_edges((10_000_000, 13_000_000), 1.0);
        let mut samples = ramp(10_000_000, 50, 20_000, 2.0);
        samples.extend(ramp(11_000_000, 50, 20_000, 3.0));
        samples.extend(ramp(12_000_000, 50, 20_000, 2.0));
        let per = per_repeat(&samples, &edges, median);
        assert_eq!(per, vec![2.0, 3.0, 2.0]);
        assert_eq!(lowest(&per), Some(2.0));
        // A program 10 % slower is slower in every repeat.
        let slower: Vec<(u64, f64)> = samples.iter().map(|&(at, v)| (at, v * 1.1)).collect();
        let best = lowest(&per_repeat(&slower, &edges, median)).expect("repeats");
        assert!((best - 2.2).abs() < 1e-12);
    }

    #[test]
    fn repeats_are_whole_and_hold_enough_samples() {
        let edges = time_edges((0, 2_500_000), 1.0);
        assert_eq!(edges, vec![0, 1_000_000, 2_000_000]);
        let mut samples = ramp(0, 20, 10_000, 1.0);
        // Too few samples to say anything, however good they look.
        samples.extend(ramp(1_000_000, MIN_REPEAT_SAMPLES - 1, 10_000, 0.1));
        // The trailing half slice and anything past the window is left out.
        samples.extend(ramp(2_000_000, 20, 10_000, 0.2));
        samples.extend(ramp(2_500_000, 20, 10_000, 0.3));
        assert_eq!(per_repeat(&samples, &edges, median), vec![1.0]);
        // A window shorter than the slice is one repeat.
        assert_eq!(time_edges((0, 500_000), 5.0), vec![0, 500_000]);
    }

    #[test]
    fn a_sample_belongs_to_the_stretch_whose_step_ended_it() {
        // Steps start at 0, 10, 20, ... µs and end 9 µs later; stretches of
        // two steps start at 0, 20, 40.
        let edges: Vec<u64> = (0..6u64).map(|k| k * 10).step_by(2).collect();
        assert_eq!(edges, vec![0, 20, 40]);
        let ends: Vec<(u64, f64)> = (0..6u64).map(|k| (k * 10 + 9, k as f64)).collect();
        assert_eq!(by_repeat(&ends, &edges), vec![vec![0.0, 1.0], vec![2.0, 3.0]]);
    }
}
