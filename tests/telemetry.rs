//! End-to-end observability proof (ISSUE 9).
//!
//! The contract: telemetry is a pure *observer*. A distributed
//! 2-shard × 2-replica deployment with one scripted replica cut must
//! serve **bit-identically** to the in-process engine (the simulated
//! fleet of `tests/common/sim.rs`, the chaos oracle) while the scraped
//! cluster metrics tell the whole story:
//!
//! * nonzero gather-latency histogram counts for every site kind,
//! * exactly one death and one failover — in the registry counters, in
//!   [`TransportHealth`], and in the drained [`WorkerEvent`]s, all
//!   agreeing,
//! * per-request TTFT and inter-token histograms covering every finished
//!   request (driven by a [`FakeClock`], so bucket placement is
//!   deterministic),
//! * worker-side `STATS` scrapes folded into one cluster view whose
//!   worker gather counts cover the coordinator's successful gathers,
//! * the whole plane served as Prometheus-style text over a real HTTP
//!   scrape.
//!
//! Plus drain-once coverage for the event-drain APIs the lifecycle
//! tracing leans on: `take_events`, `take_failed`,
//! `take_preemption_events` — drained exactly once, in step order, under
//! interleaved stepping.

mod common;

use common::sim::{Fault, SimFleet};
use common::{packed_model, sim_transport, workload, THIRD_GATHER};
use fineq::core::{FakeClock, MetricsRegistry, MetricsServer};
use fineq::lm::{
    BatchKvCache, BatchScheduler, DistributedScheduler, KernelScratch, ModelConfig, Scheduler,
    ServeModel, ServeRequest, StepError, Transformer, WeightSite, WorkerEvent,
};
use fineq::tensor::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The acceptance scenario: a simulated 2-shard × 2-replica deployment,
/// shard 0's primary cut mid-serving, fully observed.
#[test]
fn distributed_replica_cut_is_bit_identical_and_fully_observed() {
    let model = packed_model(21, false);
    let vocab = model.config().vocab;
    let reference = {
        let mut sched = BatchScheduler::new(model.clone(), 4);
        workload(vocab, |r| sched.submit(r).expect("no KV budget"));
        sched.run()
    };
    let total_generated: usize = reference.iter().map(|f| f.generated.len()).sum();

    let fleet = SimFleet::new(2, 2, 0, 0.0);
    fleet.script(0, 0, THIRD_GATHER, Fault::Cut { reply: true, at: 25 });
    let mut sched = DistributedScheduler::new(fleet.connect(&model, sim_transport()), 4);

    // Deterministic clock: every step advances time by 250us, so
    // every TTFT/inter-token sample is a known multiple of 250 and
    // lands in a known power-of-two bucket.
    let clock = Arc::new(FakeClock::new());
    let registry = Arc::new(MetricsRegistry::with_clock(clock.clone()));
    sched.set_telemetry(Arc::clone(&registry));

    workload(vocab, |r| sched.submit(r).expect("no KV budget"));
    while !sched.is_idle() {
        clock.advance(250);
        sched.step();
    }
    let finished = sched.take_finished();

    // 1. The oracle: the cut is output-invisible, bit for bit.
    assert_eq!(finished, reference, "the replica cut must be output-invisible");
    assert_eq!(sched.take_failed(), vec![], "a live spare must mask the fault");

    // 2. Exactly one death, one failover — and the three planes
    // (registry counters, TransportHealth, WorkerEvents) agree.
    let th = sched.stats().transport.expect("transport health");
    assert_eq!((th.deaths, th.failovers), (1, 1), "{th:?}");
    assert_eq!(registry.counter("fineq_transport_deaths_total").get(), 1);
    assert_eq!(registry.counter("fineq_transport_failovers_total").get(), 1);
    assert_eq!(registry.counter("fineq_transport_rejoins_total").get(), th.rejoins);
    assert_eq!(registry.counter("fineq_transport_timeouts_total").get(), th.timeouts);
    assert_eq!(registry.counter("fineq_transport_retry_attempts_total").get(), th.retry_attempts);
    let events = sched.model().take_events();
    let died = events.iter().filter(|e| matches!(e, WorkerEvent::WorkerDied { .. })).count();
    let failed_over = events.iter().filter(|e| matches!(e, WorkerEvent::FailedOver { .. })).count();
    assert_eq!((died, failed_over), (1, 1), "events must agree with counters: {events:?}");
    assert_eq!(sched.model().take_events(), vec![], "take_events drains once");

    // 3. Gather latency: every site kind was observed. The count per
    // site equals the successful site gathers; the FakeClock did not
    // advance inside a gather, so the latencies land in bucket 0 —
    // counts, not values, are the deterministic signal.
    let mut coordinator_gathers = 0u64;
    for site in WeightSite::ALL {
        let h = registry.histogram(&format!("fineq_gather_us_{}", site.metric_label()));
        assert!(h.count() > 0, "no gather latency recorded for {}", site.metric_label());
        coordinator_gathers += h.count();
    }

    // 4. Per-request lifecycle histograms: one TTFT sample per
    // finished request, one inter-token sample per follow-on token.
    let ttft = registry.histogram("fineq_ttft_us");
    let inter = registry.histogram("fineq_inter_token_us");
    assert_eq!(ttft.count(), finished.len() as u64, "one TTFT per finished request");
    assert_eq!(
        inter.count(),
        (total_generated - finished.len()) as u64,
        "one inter-token sample per token after the first"
    );
    // Each step advanced the clock 250us, so every TTFT is >= 250
    // and its bucket upper bound >= 256: deterministic placement.
    assert!(ttft.p50() >= 256, "TTFT p50 must sit in a >=256us bucket, got {}", ttft.p50());
    assert_eq!(inter.p50(), 256, "inter-token latency is exactly one 250us step per token");
    assert_eq!(registry.counter("fineq_requests_finished_total").get(), finished.len() as u64);

    // 5. Worker STATS scrapes: heal the fleet, scrape all four
    // replicas, and check the cluster view covers the coordinator's
    // gathers (shard 1's primary alone serves every successful
    // gather once, and replays/pre-cut traffic only add).
    let mut live = 0;
    for _ in 0..50 {
        live = sched.model().heartbeat().live();
        if live == 4 {
            break;
        }
    }
    assert_eq!(live, 4, "the cut replica must rejoin through a clean link");
    assert_eq!(sched.model().scrape_worker_stats(), 4, "all four replicas must answer STATS");
    let cluster = registry.cluster_snapshot();
    let worker_gathers = *cluster.counters.get("fineq_worker_gathers_total").expect("scraped");
    assert!(
        worker_gathers >= coordinator_gathers,
        "worker-side gathers ({worker_gathers}) must cover coordinator-side successful \
         gathers ({coordinator_gathers})"
    );
    assert!(*cluster.counters.get("fineq_worker_loads_total").expect("scraped") > 0);

    // 6. The scrape endpoint, end to end over real HTTP.
    let render_registry = Arc::clone(&registry);
    let server = MetricsServer::serve("127.0.0.1:0", move || render_registry.render_text())
        .expect("bind metrics endpoint");
    let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect scrape");
    use std::io::{Read as _, Write as _};
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("send scrape");
    let mut body = String::new();
    conn.read_to_string(&mut body).expect("read scrape");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "scrape must answer 200: {body:.0?}");
    for needle in [
        "fineq_transport_deaths_total 1",
        "fineq_transport_failovers_total 1",
        "fineq_ttft_us_count 6",
        "fineq_worker_gathers_total",
        "fineq_live_replicas 4",
    ] {
        assert!(body.contains(needle), "scrape body must contain {needle:?}:\n{body}");
    }

    sched.model().shutdown_workers();
}

/// The README's metric catalogue is complete: a telemetry-enabled
/// scheduler over a simulated 2×2 fleet registers every scheduler,
/// transport and (scraped) worker metric, and each name in the cluster
/// view appears in the catalogue table.
#[test]
fn every_registered_metric_is_catalogued_in_the_readme() {
    const README: &str = include_str!("../README.md");
    let model = packed_model(25, false);
    let fleet = SimFleet::new(2, 2, 0, 0.0);
    let mut sched = DistributedScheduler::new(fleet.connect(&model, sim_transport()), 4);
    let registry = Arc::new(MetricsRegistry::with_clock(Arc::new(FakeClock::new())));
    sched.set_telemetry(Arc::clone(&registry));
    workload(model.config().vocab, |r| sched.submit(r).expect("no KV budget"));
    sched.run();
    assert_eq!(sched.model().scrape_worker_stats(), 4, "every worker's registry is scraped");
    let cluster = registry.cluster_snapshot();
    let names: Vec<&String> = cluster
        .counters
        .keys()
        .chain(cluster.gauges.keys())
        .chain(cluster.histograms.keys())
        .collect();
    for layer in ["fineq_ttft_us", "fineq_live_replicas", "fineq_worker_gather_us"] {
        assert!(names.iter().any(|n| n.as_str() == layer), "{layer} must register: {names:?}");
    }
    let missing: Vec<&&String> =
        names.iter().filter(|n| !README.contains(&format!("| `{n}` |"))).collect();
    assert!(missing.is_empty(), "metrics missing from the README catalogue: {missing:?}");
    sched.model().shutdown_workers();
}

/// A wrapper model whose steps fail during a scripted window — the
/// in-process way to exercise `take_failed`.
struct FailingModel {
    inner: Transformer,
    steps: AtomicUsize,
    fail_on: usize,
}

impl ServeModel for FailingModel {
    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }

    fn forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Matrix {
        self.inner.forward_step_batch_with(tokens, slots, cache, scratch)
    }

    fn try_forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Result<Matrix, StepError> {
        let step = self.steps.fetch_add(1, Ordering::Relaxed);
        if step == self.fail_on {
            return Err(StepError::Transport { detail: format!("injected failure at {step}") });
        }
        Ok(self.inner.forward_step_batch_with(tokens, slots, cache, scratch))
    }

    fn thread_pool(&self) -> Option<&Arc<fineq::core::ThreadPool>> {
        None
    }
}

/// `take_failed` returns each failure exactly once, in failure order,
/// regardless of whether the caller drains per step or once at the end.
#[test]
fn take_failed_drains_once_and_preserves_order() {
    let model = packed_model(22, false);
    let vocab = model.config().vocab;
    let run = |drain_each_step: bool| -> Vec<u64> {
        let failing = FailingModel { inner: model.clone(), steps: AtomicUsize::new(0), fail_on: 2 };
        let mut sched = Scheduler::new(failing, 2);
        workload(vocab, |r| sched.submit(r).expect("no KV budget"));
        let mut ids = Vec::new();
        while !sched.is_idle() {
            sched.step();
            if drain_each_step {
                ids.extend(sched.take_failed().into_iter().map(|f| f.id));
            }
        }
        if !drain_each_step {
            ids.extend(sched.take_failed().into_iter().map(|f| f.id));
        }
        assert_eq!(sched.take_failed(), vec![], "a second drain must be empty");
        assert_eq!(sched.stats().failed, 0, "draining clears the stats ledger");
        ids
    };
    let per_step = run(true);
    let at_end = run(false);
    assert!(!per_step.is_empty(), "the injected step failure must kill its active requests");
    assert_eq!(per_step, at_end, "drain granularity must not change content or order");
}

/// `take_preemption_events` under real pool pressure: drained exactly
/// once, and per-step drains concatenate to the end-of-run drain.
#[test]
fn take_preemption_events_drain_once_and_preserve_order() {
    let model = packed_model(23, false);
    let vocab = model.config().vocab;
    let submit_pressure = |sched: &mut BatchScheduler| {
        for id in 0..8u64 {
            let prompt: Vec<usize> = (0..4).map(|i| (id as usize + i * 3 + 1) % vocab).collect();
            sched
                .submit(ServeRequest {
                    temperature: 0.9,
                    seed: 800 + id,
                    ..ServeRequest::new(id, prompt, 24)
                })
                .expect("fits the pool");
        }
    };
    let run = |drain_each_step: bool| -> (Vec<(u64, u64)>, Vec<u64>) {
        let mut sched = BatchScheduler::new(model.clone(), 4);
        sched.set_page_budget(4).expect("nothing queued yet");
        submit_pressure(&mut sched);
        let mut events = Vec::new();
        while !sched.is_idle() {
            sched.step();
            if drain_each_step {
                events.extend(sched.take_preemption_events().into_iter().map(|e| (e.id, e.step)));
            }
        }
        if !drain_each_step {
            events.extend(sched.take_preemption_events().into_iter().map(|e| (e.id, e.step)));
        }
        assert_eq!(sched.take_preemption_events(), vec![], "a second drain must be empty");
        let finished: Vec<u64> = sched.take_finished().into_iter().map(|f| f.id).collect();
        (events, finished)
    };
    let (per_step, finished_a) = run(true);
    let (at_end, finished_b) = run(false);
    assert!(!per_step.is_empty(), "the 4-page pool must actually preempt");
    assert_eq!(per_step, at_end, "drain granularity must not change content or order");
    assert_eq!(finished_a, finished_b, "preemption bookkeeping must not touch output");
    let steps: Vec<u64> = per_step.iter().map(|&(_, step)| step).collect();
    assert!(steps.windows(2).all(|w| w[0] <= w[1]), "events must be in step order: {steps:?}");
}

/// Telemetry must never perturb output: the same workload with an
/// enabled registry, a disabled registry, and no registry at all yields
/// one identical token stream.
#[test]
fn telemetry_is_output_invisible_in_process() {
    let model = packed_model(24, false);
    let vocab = model.config().vocab;
    let run = |registry: Option<MetricsRegistry>| {
        let mut sched = BatchScheduler::new(model.clone(), 4);
        if let Some(r) = registry {
            sched.set_telemetry(Arc::new(r));
        }
        workload(vocab, |r| sched.submit(r).expect("no KV budget"));
        sched.run()
    };
    let bare = run(None);
    let clock = Arc::new(FakeClock::new());
    assert_eq!(bare, run(Some(MetricsRegistry::with_clock(clock))), "enabled registry");
    assert_eq!(bare, run(Some(MetricsRegistry::disabled())), "disabled registry");
}

/// The scrape endpoint must serve clients that dribble their request:
/// `MetricsServer` reads until the blank line that ends the HTTP headers
/// (bounded by its drain deadline) before answering, rather than
/// replying to whatever the first `read` happened to return. A request
/// written one byte at a time — dozens of reads' worth of segmentation —
/// still gets the full exposition back.
#[test]
fn metrics_server_drains_segmented_requests() {
    use std::io::{Read as _, Write as _};

    let registry = MetricsRegistry::new();
    registry.counter("fineq_segmented_scrapes_total").inc();
    let server = MetricsServer::serve("127.0.0.1:0", move || registry.render_text())
        .expect("bind metrics endpoint");
    let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect scrape");
    conn.set_nodelay(true).expect("disable Nagle so each byte is its own segment");
    for &b in b"GET /metrics HTTP/1.0\r\nUser-Agent: dribble\r\n\r\n".iter() {
        conn.write_all(&[b]).expect("send one byte");
        conn.flush().expect("flush the byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut body = String::new();
    conn.read_to_string(&mut body).expect("read scrape");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "segmented scrape must answer 200: {body:?}");
    assert!(
        body.contains("fineq_segmented_scrapes_total 1"),
        "segmented scrape must carry the full exposition:\n{body}"
    );
}
