//! The token-time reconstruction against the scheduler's own telemetry.
//!
//! The benchmark rebuilds per-token times from step end times, finishing
//! steps and preemption events. The scheduler, given a metrics registry,
//! records TTFT, inter-token and queue-wait histograms itself. Driven on
//! one [`FakeClock`] through a scripted scenario that evicts the same
//! request twice, the two must agree sample for sample: same counts, same
//! buckets, same sums.

use fineq::core::telemetry::{Clock, HistogramData};
use fineq::lm::{
    build_fitted_model, BatchScheduler, BuilderSpec, Corpus, FakeClock, MetricsRegistry,
};
use fineq_loadbench::derive::{experience, Repeats};
use fineq_loadbench::driver::{LegLog, Observer};
use fineq_loadbench::trace::Recorder;
use fineq_loadbench::workload::{Kind, Planned};
use std::sync::Arc;

/// Four slots over a pool of six 2-token pages: every admitted request
/// outgrows its share within a few steps, so the youngest is evicted again
/// and again while the oldest finishes.
fn pressured_scheduler(registry: &Arc<MetricsRegistry>) -> BatchScheduler {
    let corpus = Corpus::wiki_like(64, 5);
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 3_000, 2);
    let mut sched = BatchScheduler::with_page_tokens(model, 4, 2);
    sched.set_page_budget(6).expect("idle scheduler");
    sched.set_telemetry(Arc::clone(registry));
    sched
}

fn request(k: usize) -> Planned {
    Planned {
        kind: Kind::Background,
        due_us: 0,
        prompt: (0..3 + k % 3).map(|i| (k * 11 + i * 7 + 1) % 64).collect(),
        max_new_tokens: 4 + k % 4,
        sampling_seed: 900 + k as u64,
    }
}

#[test]
fn reconstruction_agrees_with_the_schedulers_histograms_under_double_preemption() {
    let clock = Arc::new(FakeClock::new());
    let registry = Arc::new(MetricsRegistry::with_clock(clock.clone()));
    let mut sched = pressured_scheduler(&registry);
    let rec = Recorder::new(false);
    let now = || clock.now_micros();

    // Script: three requests up front, then one more before steps 3, 5, …
    let mut obs = Observer::new(&sched);
    let mut sent = 0usize;
    let mut step = 0usize;
    while sent < 9 || !sched.is_idle() {
        let due = if step == 0 { 3 } else { usize::from(step % 2 == 1 && sent < 9) };
        for _ in 0..due {
            obs.submit(&mut sched, &request(sent), None, &rec, &now);
            sent += 1;
        }
        // Uneven step lengths, so a token landing on the wrong step shows.
        clock.advance(700 + 130 * (step as u64 % 5));
        obs.step(&mut sched, &rec, &now);
        step += 1;
        assert!(step < 10_000, "scenario must drain");
    }

    let most_evictions = obs.requests.iter().map(|r| r.evictions.len()).max().unwrap_or(0);
    assert!(most_evictions >= 2, "scenario must evict one request at least twice");
    assert!(obs.requests.iter().all(|r| r.finish_step.is_some()));

    let end = clock.now_micros();
    let log = LegLog {
        requests: obs.requests,
        steps: obs.steps,
        first_step: obs.first_step,
        start_us: 0,
        window_us: (0, end + 1),
        ticks: Vec::new(),
        backlog_end: 0,
        stepped_tokens: sched.stepped_tokens(),
        preemptions: sched.preemptions(),
        cow_copies: 0,
        shared_prefix_tokens: 0,
    };
    let exp = experience(&log, Repeats::Periods(f64::INFINITY));
    assert!(exp.problems.is_empty(), "{:?}", exp.problems);
    assert_eq!(exp.times.len(), 9);
    for (t, r) in exp.times.iter().zip(&log.requests) {
        assert_eq!(t.token_us.len(), r.generated.len(), "request {}", r.id);
    }

    let (mut ttft, mut gaps, mut waits) =
        (HistogramData::new(), HistogramData::new(), HistogramData::new());
    for t in &exp.times {
        ttft.record(t.token_us[0] - t.anchor_us);
        waits.record(t.admit_us - t.anchor_us);
        for pair in t.token_us.windows(2) {
            gaps.record(pair[1] - pair[0]);
        }
    }
    assert_eq!(ttft, registry.histogram("fineq_ttft_us").data(), "TTFT");
    assert_eq!(gaps, registry.histogram("fineq_inter_token_us").data(), "inter-token gaps");
    assert_eq!(waits, registry.histogram("fineq_queue_wait_us").data(), "queue wait");
}
