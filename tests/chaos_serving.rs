//! Seeded fleet simulation — the robustness oracle for distributed
//! serving.
//!
//! Every scenario here drives the production coordinator
//! ([`RemoteShardedModel`]: gather, failover, replay, abandoned nonces,
//! rejoin, heartbeats) through the in-process simulator of
//! `tests/common/sim.rs`: each replica is a real [`Worker::handle`]
//! behind a [`Link`](fineq::core::Link) that cuts, corrupts, blackholes,
//! delays, duplicates or forges frames on a seeded schedule, and kills or
//! revives replicas at step boundaries. No subprocess, socket or wall
//! clock is involved, so hundreds of schedules run in seconds and a seed
//! replays exactly. The contract:
//!
//! * **Output-invisible recovery** — every finished request is
//!   `assert_eq!`-identical to the in-process [`BatchScheduler`].
//!   Failover, replay and rejoin never leak into output.
//! * **Typed degradation** — a request fails only with
//!   [`StepError::NoLiveReplica`], and only while every replica of that
//!   shard is down; the scheduler stays steppable.
//! * **Honest books** — no replica is marked dead unless a fault hit its
//!   link or it was killed; a rejoined ex-primary returns as a spare; a
//!   replica acking another protocol version stays dead; transport
//!   health, the drained [`WorkerEvent`]s and the registry counters agree.
//!
//! `tests/distributed_serving.rs` keeps the real-socket smoke tests
//! (worker subprocesses, SIGKILL). The `chaos-gate` CI job runs this
//! suite on every push.

mod common;

use common::sim::{Fault, SimFleet};
use common::{packed_model, packed_model_of, sim_transport, workload, THIRD_GATHER};
use fineq::core::{FakeClock, MetricsRegistry};
use fineq::lm::{
    BatchScheduler, DistributedScheduler, FailedSequence, FinishedSequence, HealthReport,
    ModelConfig, RemoteShardedModel, ServeRequest, StepError, Transformer, TransportHealth,
    WorkerEvent,
};
use fineq::tensor::Rng;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The standard workload served by the in-process engine.
fn reference(model: &Transformer) -> Vec<FinishedSequence> {
    let mut sched = BatchScheduler::new(model.clone(), 4);
    workload(model.config().vocab, |r| sched.submit(r).expect("no KV budget"));
    let done = sched.run();
    let stats = sched.stats();
    assert!(stats.transport.is_none(), "in-process engines have no transport");
    assert_eq!(stats.failed, 0);
    done
}

/// One fault of every kind on the third gather of shard 0's primary, in
/// a lone-replica group (blocking recovery redials it) and a 2×2 fleet
/// (a spare takes over, the replica rejoins): every stream is
/// bit-identical to in-process serving, and every fault is detected as a
/// death followed by a redial.
#[test]
fn transient_faults_are_output_invisible_across_topologies() {
    let model = packed_model(5, true);
    let reference = reference(&model);
    let faults = [
        Fault::Cut { reply: false, at: 20 },
        Fault::Cut { reply: true, at: 30 },
        Fault::Corrupt { reply: false, at: 40 },
        Fault::Corrupt { reply: true, at: 50 },
        Fault::Blackhole { on_write: true },
        Fault::Blackhole { on_write: false },
        Fault::Late,
        Fault::Duplicate,
        Fault::Stale,
        Fault::UnknownNonce,
    ];
    for fault in faults {
        for (shards, replicas) in [(1usize, 1usize), (2, 2)] {
            let name = format!("{fault:?}/{shards}shard-{replicas}rep");
            let fleet = SimFleet::new(shards, replicas, 0, 0.0);
            fleet.script(0, 0, THIRD_GATHER, fault);
            let mut sched = DistributedScheduler::new(fleet.connect(&model, sim_transport()), 4);
            workload(model.config().vocab, |r| sched.submit(r).expect("no KV budget"));
            let done = sched.run();
            assert_eq!(done, reference, "{name}: transient faults must be output-invisible");
            assert_eq!(sched.take_failed(), vec![], "{name}: no request may fail");
            let th = sched.stats().transport.expect("distributed scheduler exposes transport");
            assert!(th.deadline_ms > 0, "{name}: gather deadline must be armed: {th:?}");
            assert_eq!(th.deaths, 1, "{name}: the fault must be detected as one death: {th:?}");
            assert!(fleet.dials(0) >= 2, "{name}: recovery must have redialled the replica");
            assert_eq!(fleet.take_violations(), Vec::<String>::new(), "{name}");
            sched.model().shutdown_workers();
        }
    }
}

/// Whole-group death: the lone replica is killed between steps and never
/// returns. Affected requests fail with the typed
/// [`StepError::NoLiveReplica`] — never a hang, never a panic — the
/// scheduler stays steppable to idle, and the exhaustion is visible in
/// `SchedulerStats::transport`.
#[test]
fn whole_group_death_fails_requests_typed_and_never_hangs() {
    let model = packed_model(6, true);
    let fleet = SimFleet::new(1, 1, 0, 0.0);
    let mut sched = DistributedScheduler::new(fleet.connect(&model, sim_transport()), 4);
    workload(model.config().vocab, |r| sched.submit(r).expect("no KV budget"));
    // Drive to idle through the permanent outage: requests in flight at
    // the kill die typed, later admissions fail fast after bounded
    // blocking recovery, and the loop terminates.
    let mut steps = 0;
    while !sched.is_idle() {
        if steps == 2 {
            fleet.kill(0);
        }
        sched.step();
        steps += 1;
        assert!(steps < 1_000, "the scheduler must drain, not spin");
    }
    let finished = sched.take_finished();
    let failed = sched.take_failed();
    assert!(!failed.is_empty(), "the kill must fail at least one request");
    assert_eq!(finished.len() + failed.len(), 6, "every request must be accounted for");
    for f in &failed {
        assert_eq!(
            f.error,
            StepError::NoLiveReplica { shard: 0 },
            "group exhaustion must surface as the typed per-request error"
        );
    }
    let stats = sched.stats();
    assert_eq!(stats.failed, 0, "take_failed drained the ledger");
    let th = stats.transport.expect("transport health");
    assert_eq!(th.live_replicas, 0, "{th:?}");
    assert_eq!(th.dead_replicas, 1, "{th:?}");
    assert!(th.deaths >= 1 && th.retry_attempts >= 1, "{th:?}");
    assert!(fleet.dials(0) >= 2, "reconnects must have been attempted and refused");
    // Still steppable after total loss: an idle step is a no-op, and new
    // submissions are accepted (they would serve if capacity returned).
    assert_eq!(sched.step(), 0);
    sched
        .submit(ServeRequest {
            temperature: 0.9,
            seed: 777,
            ..ServeRequest::new(99, vec![1, 2], 2)
        })
        .expect("the scheduler keeps accepting work after degradation");
}

/// Partition-then-heal: the lone replica is killed for four probe
/// rounds, then revived. Requests failed during the partition carry the
/// typed error; once healed, a fresh request serves **bit-identically**
/// to the in-process engine and the recovery is recorded as a rejoin.
#[test]
fn healed_partition_serves_bit_identically_again() {
    let model = packed_model(7, true);
    let probe = |id: u64| ServeRequest {
        temperature: 0.9,
        seed: 321,
        ..ServeRequest::new(id, vec![1, 2, 3], 5)
    };
    let expect = {
        let mut sched = BatchScheduler::new(model.clone(), 2);
        sched.submit(probe(0)).expect("no KV budget");
        sched.run()
    };
    let fleet = SimFleet::new(1, 1, 0, 0.0);
    let mut sched = DistributedScheduler::new(fleet.connect(&model, sim_transport()), 2);
    // Probe rounds: identical requests, one per round. The first serves,
    // partition rounds fail typed, and the first post-heal round must
    // finish.
    let mut saw_failure = false;
    let mut healed: Option<FinishedSequence> = None;
    for round in 1..=10u64 {
        match round {
            2 => fleet.kill(0),
            6 => fleet.revive(0, false),
            _ => {}
        }
        sched.submit(probe(round)).expect("no KV budget");
        while !sched.is_idle() {
            sched.step();
        }
        let finished = sched.take_finished();
        let failed = sched.take_failed();
        for f in &failed {
            assert_eq!(f.error, StepError::NoLiveReplica { shard: 0 }, "typed failure");
        }
        saw_failure |= !failed.is_empty();
        if saw_failure {
            if let Some(f) = finished.into_iter().next() {
                healed = Some(f);
                break;
            }
        }
    }
    let healed = healed.expect("the partition must heal once the replica returns");
    assert_eq!(
        healed.generated, expect[0].generated,
        "post-heal serving must be bit-identical to in-process"
    );
    let th = sched.stats().transport.expect("transport health");
    assert!(th.deaths >= 1, "{th:?}");
    assert!(th.rejoins >= 1, "healing must be recorded as a rejoin: {th:?}");
    sched.model().shutdown_workers();
}

/// A schedule replays from its seed: two runs of one seed inject the
/// same faults at the same exchanges, log the same events, count the same
/// counters and serve the same tokens — and another seed explores
/// another schedule.
#[test]
fn seeded_fault_scripts_reproduce() {
    let model = micro_model();
    for seed in [3u64, 4, 5, 6] {
        let (a, b) = (run_schedule(&model, seed), run_schedule(&model, seed));
        assert_eq!(a, b, "seed {seed} must replay exactly");
    }
    assert_ne!(
        run_schedule(&model, 3),
        run_schedule(&model, 4),
        "different seeds explore different schedules"
    );
}

/// Telemetry determinism: one scripted cut on a primary with a spare,
/// run twice against fresh fleets with fresh registries, produces the
/// same robustness counters — deaths, failovers, rejoins, retry
/// attempts, timeouts — and the registry's mirrored counters never drift
/// from [`TransportHealth`]'s.
#[test]
fn telemetry_counters_reproduce_by_seed() {
    fn run_once(model: &Transformer) -> (Vec<FinishedSequence>, [u64; 5]) {
        let fleet = SimFleet::new(1, 2, 0, 0.0);
        fleet.script(0, 0, THIRD_GATHER, Fault::Cut { reply: true, at: 25 });
        let mut sched = DistributedScheduler::new(fleet.connect(model, sim_transport()), 4);
        let registry = Arc::new(MetricsRegistry::new());
        sched.set_telemetry(Arc::clone(&registry));
        workload(model.config().vocab, |r| sched.submit(r).expect("no KV budget"));
        let done = sched.run();
        assert_eq!(sched.take_failed(), vec![], "the spare must mask the cut");
        let th = sched.stats().transport.expect("transport health");
        for (counter, want) in [
            ("fineq_transport_deaths_total", th.deaths),
            ("fineq_transport_failovers_total", th.failovers),
            ("fineq_transport_rejoins_total", th.rejoins),
            ("fineq_transport_retry_attempts_total", th.retry_attempts),
            ("fineq_transport_timeouts_total", th.timeouts),
        ] {
            assert_eq!(
                registry.counter(counter).get(),
                want,
                "{counter} must never drift from TransportHealth: {th:?}"
            );
        }
        sched.model().shutdown_workers();
        (done, [th.deaths, th.failovers, th.rejoins, th.retry_attempts, th.timeouts])
    }

    let model = packed_model(9, true);
    let (first, counters_a) = run_once(&model);
    let (second, counters_b) = run_once(&model);
    assert_eq!(first, second, "seeded chaos must serve bit-identically across runs");
    assert_eq!(
        counters_a, counters_b,
        "deaths/failovers/rejoins/retries/timeouts must reproduce exactly by seed"
    );
    assert!(counters_a[0] >= 1, "the scripted cut must register as a death: {counters_a:?}");
    assert_eq!(counters_a[1], 1, "exactly one failover to the spare: {counters_a:?}");
}

/// A replica that hangs mid-STATS must stall only the scrape call that
/// probed it — never cross-thread observability — and must then die and
/// rejoin through the normal failover machinery. The spare's fifth
/// `STATS` read blocks for the whole 300ms heartbeat deadline: the
/// scrape's read times out, the spare is marked dead, and a concurrent
/// observer thread hammering `transport_health()` the whole time must
/// never block behind the scrape's I/O — the regression this pins is the
/// scrape holding the coordinator state lock across per-replica reads.
#[test]
fn hung_stats_scrape_never_blocks_health_readers_and_replica_rejoins() {
    let model = packed_model(11, true);
    let vocab = model.config().vocab;
    let reference = reference(&model);
    // Replica 0 is the clean primary; replica 1 (the spare) answers its
    // LOADs and four STATS exchanges, then stalls the fifth.
    let fleet = SimFleet::new(1, 2, 0, 0.0);
    fleet.script(1, 0, 2 * 6 + 4, Fault::Stall);
    let remote = fleet.connect(&model, sim_transport());
    let registry = Arc::new(MetricsRegistry::new());
    remote.set_telemetry(Arc::clone(&registry));

    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // The observer: hammer transport_health() on another thread for
        // the whole scrape phase. Every call must return without
        // queueing behind scrape I/O (the stalled probe alone holds its
        // read open for the full 300ms deadline).
        let observer = {
            let remote = &remote;
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut calls = 0u64;
                let mut max_latency = Duration::ZERO;
                while !done.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let th = remote.transport_health();
                    max_latency = max_latency.max(t0.elapsed());
                    assert!(th.deadline_ms > 0, "health must stay readable: {th:?}");
                    calls += 1;
                }
                (calls, max_latency)
            })
        };
        // Scrape until the spare dies on its stalled STATS read.
        let mut scrapes = 0usize;
        for _ in 0..2_000 {
            scrapes = remote.scrape_worker_stats();
            if remote.transport_health().deaths >= 1 {
                break;
            }
        }
        done.store(true, Ordering::Relaxed);
        let (calls, max_latency) = observer.join().expect("observer thread");
        let th = remote.transport_health();
        assert!(th.deaths >= 1, "the stalled STATS read must kill the spare: {th:?}");
        assert_eq!(th.dead_replicas, 1, "{th:?}");
        assert_eq!(scrapes, 1, "the dying round must still scrape the healthy primary");
        assert!(th.timeouts >= 1, "the death must be a deadline expiry: {th:?}");
        // The responsiveness claim: the stalled scrape blocked for
        // ~300ms of probe I/O, and the observer kept reading health
        // throughout. With the state lock held across that I/O (the old
        // bug) max_latency would sit at the full deadline.
        assert!(calls >= 10, "the observer must have run during the scrapes, got {calls}");
        assert!(
            max_latency < Duration::from_millis(250),
            "transport_health() must never queue behind scrape I/O, worst call took \
             {max_latency:?} across {calls} calls"
        );
    });

    // The death is observable as an event, and the spare rejoins through
    // a clean second link on later probes.
    let events = remote.take_events();
    assert!(
        events.iter().any(|e| matches!(e, WorkerEvent::WorkerDied { shard: 0, replica: 1, .. })),
        "the spare's death must be recorded: {events:?}"
    );
    let rejoined = (0..200).any(|_| {
        remote.heartbeat();
        remote.transport_health().dead_replicas == 0
    });
    assert!(rejoined, "the spare must rejoin once the stall has drained");
    assert!(remote.transport_health().rejoins >= 1);
    assert_eq!(remote.scrape_worker_stats(), 2, "both replicas must answer STATS again");

    // And none of it is allowed to touch output: the workload served
    // after the scrape saga is bit-identical to in-process serving.
    let mut sched = DistributedScheduler::new(remote, 4);
    workload(vocab, |r| sched.submit(r).expect("no KV budget"));
    assert_eq!(sched.run(), reference, "scrape faults must be output-invisible");
    assert_eq!(sched.take_failed(), vec![], "no request may fail");
    sched.model().shutdown_workers();
}

/// A heartbeat probes every connected replica, primaries that served
/// gathers since the previous heartbeat included: after three rounds of
/// one step and one heartbeat, the worker behind each of two primaries
/// has answered three `PING`s, as its scraped
/// `fineq_worker_pings_total` shows.
#[test]
fn heartbeat_probes_primaries_that_served_since_the_previous_one() {
    let model = packed_model(13, false);
    let fleet = SimFleet::new(2, 1, 0, 0.0);
    let mut sched = DistributedScheduler::new(fleet.connect(&model, sim_transport()), 4);
    workload(model.config().vocab, |r| sched.submit(r).expect("no KV budget"));
    for _ in 0..3 {
        sched.step();
        assert!(sched.model().heartbeat().serviceable(), "a clean fleet stays serviceable");
    }
    let registry = Arc::new(MetricsRegistry::new());
    sched.model().set_telemetry(Arc::clone(&registry));
    assert_eq!(sched.model().scrape_worker_stats(), 2, "both primaries answer STATS");
    let pings = registry.cluster_snapshot().counters.get("fineq_worker_pings_total").copied();
    assert_eq!(pings, Some(2 * 3), "every heartbeat must probe both serving primaries");
    sched.model().shutdown_workers();
}

/// Seeded schedules the property test runs: a constant, so every run
/// costs the same.
const SCHEDULES: u64 = 500;

/// The property test's model: two layers of width 8, every site packed.
fn micro_model() -> Transformer {
    packed_model_of(ModelConfig::new(16, 8, 2, 2, 16), 31, true)
}

/// The invariants, schedule by schedule: [`run_schedule`] checks each
/// after every step, heartbeat and scrape of `SCHEDULES` seeded runs over
/// 1–3 shards × 1–3 replicas, mixing every fault kind, kills and
/// revivals (some acking another protocol version). A failing schedule
/// names its seed; the runs together must exercise every kind of fault
/// and recovery.
#[test]
fn seeded_schedules_keep_every_serving_invariant() {
    let model = micro_model();
    let mut seen: BTreeMap<String, u64> = BTreeMap::new();
    for seed in 0..SCHEDULES {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run_schedule(&model, seed)))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                panic!("schedule seed {seed} broke an invariant: {msg}")
            });
        for line in outcome.logs.iter().flatten() {
            let fault = line.split_once(": ").map_or(line.as_str(), |(_, fault)| fault);
            let kind = fault.split([' ', '{']).next().unwrap_or(fault);
            *seen.entry(kind.to_string()).or_default() += 1;
            if line.ends_with("other_version=true") {
                *seen.entry("revived acking another version".into()).or_default() += 1;
            }
        }
        let failed = outcome.failed.len() as u64;
        *seen.entry("failed requests".into()).or_default() += failed;
        for e in &outcome.events {
            let kind = match e {
                WorkerEvent::WorkerDied { .. } => "WorkerDied",
                WorkerEvent::FailedOver { .. } => "FailedOver",
                WorkerEvent::Rejoined { .. } => "Rejoined",
            };
            *seen.entry(kind.into()).or_default() += 1;
        }
    }
    for kind in [
        "Cut",
        "Corrupt",
        "Blackhole",
        "Late",
        "Duplicate",
        "Stale",
        "UnknownNonce",
        "killed",
        "revived",
        "revived acking another version",
        "failed requests",
        "WorkerDied",
        "FailedOver",
        "Rejoined",
    ] {
        assert!(seen.get(kind).copied().unwrap_or(0) > 0, "no schedule exercised {kind}: {seen:?}");
    }
    eprintln!("{SCHEDULES} schedules: {seen:?}");
}

/// What one seeded schedule did — enough to tell two runs of a seed
/// apart.
#[derive(Debug, PartialEq)]
struct Outcome {
    logs: Vec<Vec<String>>,
    events: Vec<WorkerEvent>,
    health: TransportHealth,
    counters: BTreeMap<String, u64>,
    finished: Vec<FinishedSequence>,
    failed: Vec<FailedSequence>,
}

/// The coordinator's state as its events tell it, checked against the
/// simulator, the transport health and the registry after every call.
struct Books {
    shards: usize,
    replicas: usize,
    dead: BTreeSet<(usize, usize)>,
    primary: Vec<usize>,
    /// Deaths, failovers, rejoins.
    counts: [u64; 3],
    events: Vec<WorkerEvent>,
}

impl Books {
    fn check(&mut self, what: &str, remote: &RemoteShardedModel, fleet: &SimFleet) {
        let violations = fleet.take_violations();
        assert!(violations.is_empty(), "{what}: {violations:?}");
        for e in remote.take_events() {
            match e {
                WorkerEvent::WorkerDied { shard, replica, .. } => {
                    assert!(self.dead.insert((shard, replica)), "{what}: {e:?} twice");
                    self.counts[0] += 1;
                }
                WorkerEvent::FailedOver { shard, from_replica, to_replica } => {
                    assert_eq!(self.primary[shard], from_replica, "{what}: {e:?}");
                    assert!(!self.dead.contains(&(shard, to_replica)), "{what}: to a dead {e:?}");
                    self.primary[shard] = to_replica;
                    self.counts[1] += 1;
                }
                WorkerEvent::Rejoined { shard, replica, .. } => {
                    let idx = fleet.index(shard, replica);
                    assert!(!fleet.other_version(idx), "{what}: {e:?} acks another version");
                    assert!(self.dead.remove(&(shard, replica)), "{what}: {e:?} while live");
                    self.counts[2] += 1;
                }
            }
            self.events.push(e);
        }
        for &(s, r) in &self.dead {
            assert!(
                fleet.down(fleet.index(s, r)),
                "{what}: replica {r} of shard {s} is dead with no fault on its link and no kill"
            );
        }
        let th = remote.transport_health();
        let live = self.shards * self.replicas - self.dead.len();
        assert_eq!([th.deaths, th.failovers, th.rejoins], self.counts, "{what}: {th:?}");
        assert_eq!((th.live_replicas, th.dead_replicas), (live, self.dead.len()), "{what}");
        assert!(th.timeouts <= th.deaths, "{what}: {th:?}");
    }

    fn check_registry(&self, what: &str, th: TransportHealth, registry: &MetricsRegistry) {
        for (name, want) in [
            ("fineq_transport_deaths_total", th.deaths),
            ("fineq_transport_failovers_total", th.failovers),
            ("fineq_transport_rejoins_total", th.rejoins),
            ("fineq_transport_retry_attempts_total", th.retry_attempts),
            ("fineq_transport_timeouts_total", th.timeouts),
        ] {
            assert_eq!(registry.counter(name).get(), want, "{what}: {name} vs {th:?}");
        }
        let gauge = registry.snapshot().gauges.get("fineq_live_replicas").copied();
        assert_eq!(gauge, Some(th.live_replicas as i64), "{what}: live gauge vs {th:?}");
    }

    fn check_heartbeat(&self, what: &str, hb: &HealthReport) {
        assert_eq!(hb.primary_per_shard, self.primary, "{what}: primaries move only on failover");
        assert_eq!(hb.dead, self.dead.len(), "{what}: {hb:?}");
        for (s, &live) in hb.live_per_shard.iter().enumerate() {
            let dead = self.dead.iter().filter(|&&(shard, _)| shard == s).count();
            assert_eq!(live, self.replicas - dead, "{what}: shard {s} of {hb:?}");
        }
    }
}

/// Draws a topology, a workload and a fault rate from `seed`, serves the
/// workload through a simulated fleet while killing and reviving replicas
/// at step boundaries, and checks every invariant after every step,
/// heartbeat and scrape. Panics naming the broken invariant.
fn run_schedule(model: &Transformer, seed: u64) -> Outcome {
    let mut rng = Rng::seed_from(seed ^ 0x5C4E_D01E);
    let (shards, replicas) = (1 + rng.below(3), 1 + rng.below(3));
    let rate = 0.002 + 0.02 * rng.uniform();
    let max_batch = 1 + rng.below(3);
    let vocab = model.config().vocab;
    let requests: Vec<ServeRequest> = (0..2 + rng.below(3) as u64)
        .map(|id| {
            let prompt = (0..1 + rng.below(4)).map(|_| rng.below(vocab)).collect();
            ServeRequest {
                temperature: 0.9,
                seed: seed * 8 + id,
                eos: rng.chance(0.5).then_some(0),
                ..ServeRequest::new(id, prompt, 1 + rng.below(4))
            }
        })
        .collect();
    let expected: HashMap<u64, FinishedSequence> = {
        let mut sched = BatchScheduler::new(model.clone(), max_batch);
        for r in &requests {
            sched.submit(r.clone()).expect("no KV budget");
        }
        sched.run().into_iter().map(|f| (f.id, f)).collect()
    };

    let fleet = SimFleet::new(shards, replicas, seed, rate);
    let mut sched = DistributedScheduler::new(fleet.connect(model, sim_transport()), max_batch);
    let registry = Arc::new(MetricsRegistry::with_clock(Arc::new(FakeClock::new())));
    sched.set_telemetry(Arc::clone(&registry));
    for r in &requests {
        sched.submit(r.clone()).expect("no KV budget");
    }
    let mut books = Books {
        shards,
        replicas,
        dead: BTreeSet::new(),
        primary: vec![0; shards],
        counts: [0; 3],
        events: Vec::new(),
    };
    let (mut finished, mut failed) = (Vec::new(), Vec::new());
    let mut revivals: Vec<Option<(u64, bool)>> = vec![None; shards * replicas];
    let mut step = 0u64;
    while !sched.is_idle() {
        assert!(step < 400, "the schedule must drain");
        for (idx, revival) in revivals.iter_mut().enumerate() {
            if let Some((at, other_version)) = *revival {
                if at == step {
                    fleet.revive(idx, other_version);
                    *revival = None;
                }
            }
        }
        if rng.chance(0.06) {
            let idx = rng.below(shards * replicas);
            if !fleet.killed(idx) {
                fleet.kill(idx);
                revivals[idx] = Some((step + 1 + rng.below(5) as u64, rng.chance(0.3)));
            }
        }
        let what = format!("step {step}");
        sched.step();
        books.check(&what, sched.model(), &fleet);
        for f in sched.take_finished() {
            assert_eq!(Some(&f), expected.get(&f.id), "{what}: request {} diverged", f.id);
            finished.push(f);
        }
        for f in sched.take_failed() {
            let StepError::NoLiveReplica { shard } = f.error else {
                panic!("{what}: request {} failed untyped: {}", f.id, f.error)
            };
            for r in 0..replicas {
                assert!(books.dead.contains(&(shard, r)), "{what}: {f:?} with a live replica");
            }
            failed.push(f);
        }
        if rng.chance(0.3) {
            let hb = sched.model().heartbeat();
            books.check(&format!("{what} heartbeat"), sched.model(), &fleet);
            books.check_heartbeat(&format!("{what} heartbeat"), &hb);
        }
        if rng.chance(0.15) {
            sched.model().scrape_worker_stats();
            books.check(&format!("{what} scrape"), sched.model(), &fleet);
        }
        books.check_registry(&what, sched.model().transport_health(), &registry);
        step += 1;
    }
    let hb = sched.model().heartbeat();
    books.check("final heartbeat", sched.model(), &fleet);
    books.check_heartbeat("final heartbeat", &hb);
    let health = sched.model().transport_health();
    books.check_registry("final heartbeat", health, &registry);
    let mut ids: Vec<u64> =
        finished.iter().map(|f| f.id).chain(failed.iter().map(|f| f.id)).collect();
    ids.sort_unstable();
    let all: Vec<u64> = requests.iter().map(|r| r.id).collect();
    assert_eq!(ids, all, "every request finishes or fails, once");
    sched.model().shutdown_workers();
    Outcome {
        logs: fleet.logs(),
        events: books.events,
        health,
        counters: registry.cluster_snapshot().counters,
        finished,
        failed,
    }
}
