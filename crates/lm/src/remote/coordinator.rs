//! The coordinator side: replica groups, failover, rejoin and the
//! one-exchange-per-shard site-group gather behind [`RemoteShardedModel`].

#[cfg(doc)]
use super::run_worker_configured;
use super::wire::{check_loaded, decode_partial, encode_gather, get_u32, get_u64, SiteWant};
#[cfg(doc)]
use super::PROTOCOL_VERSION;
use super::{
    TransportConfig, TransportError, TransportHealth, KIND_ERROR, KIND_LOAD, KIND_LOADED,
    KIND_PARTIAL, KIND_PING, KIND_PONG, KIND_SHUTDOWN, KIND_STATS,
};
use crate::config::ModelConfig;
use crate::generate::{batched_step_body, BatchKvCache};
use crate::model::{Transformer, WeightSite};
use crate::serving::{ServeModel, StepError};
use crate::shard::{site_id, ShardPlan};
use fineq_core::frame::{frame_bytes, FrameError, Link, Stream, FRAME_HEADER_BYTES};
#[cfg(test)]
use fineq_core::retry::RetryPolicy;
use fineq_core::telemetry::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use fineq_core::KernelScratch;
use fineq_tensor::Matrix;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Coordinator-side record of a replica-group state change, drained with
/// [`RemoteShardedModel::take_events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEvent {
    /// A replica's connection failed and it was marked dead.
    WorkerDied {
        /// Shard whose group lost the replica.
        shard: usize,
        /// Index of the dead replica within the group.
        replica: usize,
        /// The replica's address.
        addr: String,
        /// Human-readable cause.
        error: String,
    },
    /// The group's primary moved to a live spare.
    FailedOver {
        /// Shard whose primary changed.
        shard: usize,
        /// Previous primary replica index.
        from_replica: usize,
        /// New primary replica index.
        to_replica: usize,
    },
    /// A dead replica reconnected, was re-shipped its slice envelopes,
    /// and is back in the group as a hot spare (the primary is
    /// unchanged).
    Rejoined {
        /// Shard whose group regained the replica.
        shard: usize,
        /// Index of the rejoined replica within the group.
        replica: usize,
        /// The replica's address.
        addr: String,
    },
}

/// Liveness snapshot returned by [`RemoteShardedModel::heartbeat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Replicas that answered the ping, per shard.
    pub live_per_shard: Vec<usize>,
    /// Replicas currently dead across all shards (rejoined replicas no
    /// longer count).
    pub dead: usize,
    /// Each group's current primary replica index — after a failover
    /// this points at the promoted spare, and a rejoined ex-primary
    /// shows up as live *without* moving it back.
    pub primary_per_shard: Vec<usize>,
}

impl HealthReport {
    /// Total live replicas across all shards.
    pub fn live(&self) -> usize {
        self.live_per_shard.iter().sum()
    }

    /// True when every shard still has at least one live replica.
    pub fn serviceable(&self) -> bool {
        self.live_per_shard.iter().all(|&n| n > 0)
    }
}

struct Replica {
    addr: String,
    /// `None` once the replica is marked dead. Live means connected.
    conn: Option<Box<dyn Link>>,
    /// Failed reconnect attempts since the replica died.
    attempts: u32,
    /// Earliest tick at which the next background rejoin probe may run.
    next_attempt_tick: u64,
    /// Nonces of `GATHER` requests sent on this connection whose replies
    /// were abandoned (the operation aborted before reading them). The
    /// worker still owes each one a `PARTIAL`; whatever read next
    /// touches the connection discards those replies by nonce match.
    /// Cleared on death — a dead connection's owed replies die with it.
    abandoned: HashSet<u64>,
}

struct Group {
    replicas: Vec<Replica>,
    primary: usize,
    /// The shard's FNQS envelopes, each sealed once at setup as its `LOAD`
    /// frame and written verbatim at setup and on every rejoin, so a
    /// returning replica is indistinguishable from one that never left.
    loads: Vec<Vec<u8>>,
}

impl Group {
    /// The primary's index, connection and abandoned-nonce list. Called
    /// only after an election or a send succeeded on the primary, and
    /// only [`Fleet::mark_dead`] disconnects it (which clears the link's
    /// `sent`), so the expect fires only on a programmer error.
    fn primary_io(&mut self) -> (usize, &mut dyn Link, &mut HashSet<u64>) {
        let r = &mut self.replicas[self.primary];
        (self.primary, r.conn.as_deref_mut().expect("primary is connected"), &mut r.abandoned)
    }
}

/// Coordinator-side metrics handles, mirroring every [`TransportHealth`]
/// counter into an installed [`MetricsRegistry`]. Defaults to a disabled
/// registry, so un-instrumented deployments pay one relaxed atomic load
/// per bump. Handles are `Arc`s: an operation clones them out of the
/// ledger once and counts frames and latency without taking it again.
#[derive(Clone)]
struct TransportMetrics {
    registry: Arc<MetricsRegistry>,
    deaths: Arc<Counter>,
    failovers: Arc<Counter>,
    rejoins: Arc<Counter>,
    retry_attempts: Arc<Counter>,
    timeouts: Arc<Counter>,
    /// Frames and payload bytes this coordinator wrote to / read from
    /// worker connections while serving (gathers and control probes; the
    /// 13-byte frame headers are not payload).
    frames_sent: Arc<Counter>,
    payload_bytes_sent: Arc<Counter>,
    frames_received: Arc<Counter>,
    payload_bytes_received: Arc<Counter>,
    live_replicas: Arc<Gauge>,
    /// One gather-latency histogram per site kind, indexed by
    /// [`WeightSite::index`] (`fineq_gather_us_attn_q` …).
    gather_us: [Arc<Histogram>; 6],
}

impl TransportMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        let gather_us = WeightSite::ALL
            .map(|site| registry.histogram(&format!("fineq_gather_us_{}", site.metric_label())));
        TransportMetrics {
            deaths: registry.counter("fineq_transport_deaths_total"),
            failovers: registry.counter("fineq_transport_failovers_total"),
            rejoins: registry.counter("fineq_transport_rejoins_total"),
            retry_attempts: registry.counter("fineq_transport_retry_attempts_total"),
            timeouts: registry.counter("fineq_transport_timeouts_total"),
            frames_sent: registry.counter("fineq_transport_frames_sent_total"),
            payload_bytes_sent: registry.counter("fineq_transport_payload_bytes_sent_total"),
            frames_received: registry.counter("fineq_transport_frames_received_total"),
            payload_bytes_received: registry
                .counter("fineq_transport_payload_bytes_received_total"),
            live_replicas: registry.gauge("fineq_live_replicas"),
            gather_us,
            registry,
        }
    }

    /// One frame with `payload_bytes` of payload was written to a worker.
    fn sent(&self, payload_bytes: usize) {
        self.frames_sent.inc();
        self.payload_bytes_sent.add(payload_bytes as u64);
    }

    /// One frame with `payload_bytes` of payload was read from a worker.
    fn received(&self, payload_bytes: usize) {
        self.frames_received.inc();
        self.payload_bytes_received.add(payload_bytes as u64);
    }
}

/// The connection table and its clocks. One lock guards it, and each
/// operation (gather, heartbeat, scrape, shutdown) holds that lock from
/// start to end: a connection carries one in-flight request, so two
/// operations must never interleave frame I/O, and connections stay in
/// the table while I/O runs on them.
struct Fleet {
    groups: Vec<Group>,
    /// Retry clock: one tick per gather or heartbeat — rejoin pacing
    /// without a wall clock.
    tick: u64,
    /// Coordinator-assigned request nonce source: one fresh u64 per
    /// gather request, never reused for the life of the deployment.
    next_nonce: u64,
}

/// What observers read: the stored [`TransportHealth`], the
/// [`WorkerEvent`] log and the registry mirror. Each death, failover,
/// rejoin or retry is one method here that bumps the health field, its
/// registry counter and the live gauge and pushes the event under one
/// lock, so the views can never drift. `transport_health`, `take_events`
/// and `set_telemetry` take only this lock, never the fleet's.
struct Ledger {
    health: TransportHealth,
    /// Replicas in the fleet; the dead count is this minus the live one.
    replicas: usize,
    events: Vec<WorkerEvent>,
    metrics: TransportMetrics,
}

/// Opens the [`Link`] to a replica address: setup and every rejoin dial.
pub type Dialer =
    dyn Fn(&str, &TransportConfig) -> Result<Box<dyn Link>, TransportError> + Send + Sync;

/// The socket [`Dialer`] of [`RemoteShardedModel::connect`].
fn dial_socket(addr: &str, tc: &TransportConfig) -> Result<Box<dyn Link>, TransportError> {
    Ok(Box::new(Stream::connect_timeout(addr, tc.connect_timeout).map_err(FrameError::from)?))
}

/// Dials one replica and ships it the shard's sealed `LOAD` frames: the
/// whole setup (and rejoin) handshake, each frame bounded end to end by
/// the load deadline. Every `LOADED` ack must name the slice's site and this
/// coordinator's [`PROTOCOL_VERSION`], so a worker of another protocol
/// version is refused here, typed, instead of failing its first gather
/// as an anonymous codec error.
fn connect_replica(
    dial: &Dialer,
    addr: &str,
    loads: &[Vec<u8>],
    tc: &TransportConfig,
) -> Result<Box<dyn Link>, TransportError> {
    let mut conn = dial(addr, tc)?;
    for load in loads {
        conn.send(load, tc.load_timeout)?;
        let (kind, payload) = conn.recv(tc.load_timeout)?;
        // The envelope's site_id follows magic, version, shard_index, n_shards.
        let expect = get_u32(load, FRAME_HEADER_BYTES + 10)?;
        match kind {
            KIND_LOADED => check_loaded(&payload, expect)
                .map_err(|e| TransportError::Protocol(format!("worker {addr}: {e}")))?,
            KIND_ERROR => {
                return Err(TransportError::Protocol(format!(
                    "worker {addr} rejected the slice of site {expect}: {}",
                    String::from_utf8_lossy(&payload)
                )))
            }
            other => {
                return Err(TransportError::Protocol(format!(
                    "worker {addr}: expected LOADED({expect}), got kind {other:#04x}"
                )))
            }
        }
    }
    Ok(conn)
}

/// [`connect_replica`] for every `(address, loads)` job at once, one
/// scoped thread per job — a fleet (or a rejoin sweep) is up after one
/// slowest-replica handshake instead of the sum, however many replicas
/// there are per core. Outcomes come back in job order; a panicking
/// handshake re-panics here.
fn connect_all(
    dial: &Dialer,
    jobs: &[(&str, &[Vec<u8>])],
    tc: &TransportConfig,
) -> Vec<Result<Box<dyn Link>, TransportError>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(addr, loads)| scope.spawn(move || connect_replica(dial, addr, loads, tc)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// Locks a coordinator mutex. Poisoned only by a panic while it was held
/// — a bug, after which the fleet's connections may owe replies nobody
/// recorded — so this refuses to carry on instead of serving from it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("coordinator lock poisoned by an earlier panic")
}

impl Fleet {
    /// Connected replicas across all shards.
    fn live(&self) -> usize {
        self.groups.iter().flat_map(|g| &g.replicas).filter(|r| r.conn.is_some()).count()
    }

    /// Shuts `replica`'s connection down, drops it and publishes the
    /// death (and timeout). Idempotent: a dead replica records nothing.
    fn mark_dead(
        &mut self,
        shard: usize,
        replica: usize,
        error: &TransportError,
        ledger: &Mutex<Ledger>,
    ) {
        let r = &mut self.groups[shard].replicas[replica];
        let Some(mut conn) = r.conn.take() else { return };
        let _ = conn.shutdown();
        r.attempts = 0;
        r.next_attempt_tick = 0;
        // A dead connection owes nothing: its buffered replies died
        // with the stream, so the abandoned nonces are moot.
        r.abandoned.clear();
        let addr = r.addr.clone();
        let live = self.live();
        lock(ledger).died(live, shard, replica, addr, error);
    }

    /// Points `shard` at the replica the next request should use: the
    /// current primary when live, else the first live spare — promoting
    /// it (and publishing the failover) so later requests go there
    /// directly. False when the whole group is dead.
    fn elect_primary(&mut self, shard: usize, ledger: &Mutex<Ledger>) -> bool {
        let group = &mut self.groups[shard];
        if group.replicas[group.primary].conn.is_some() {
            return true;
        }
        let Some(next) = group.replicas.iter().position(|r| r.conn.is_some()) else {
            return false;
        };
        lock(ledger).failed_over(shard, group.primary, next);
        group.primary = next;
        true
    }
}

impl Ledger {
    /// Stores the fleet's live count — the one value that both the
    /// live/dead split of [`TransportHealth`] and the gauge read.
    fn set_live(&mut self, live: usize) {
        self.health.live_replicas = live;
        self.health.dead_replicas = self.replicas - live;
        self.metrics.live_replicas.set(live as i64);
    }

    fn died(
        &mut self,
        live: usize,
        shard: usize,
        replica: usize,
        addr: String,
        error: &TransportError,
    ) {
        self.health.deaths += 1;
        self.metrics.deaths.inc();
        if matches!(error, TransportError::Frame(FrameError::TimedOut)) {
            self.health.timeouts += 1;
            self.metrics.timeouts.inc();
        }
        self.set_live(live);
        self.events.push(WorkerEvent::WorkerDied {
            shard,
            replica,
            addr,
            error: error.to_string(),
        });
    }

    fn failed_over(&mut self, shard: usize, from_replica: usize, to_replica: usize) {
        self.health.failovers += 1;
        self.metrics.failovers.inc();
        self.events.push(WorkerEvent::FailedOver { shard, from_replica, to_replica });
    }

    fn rejoined(&mut self, live: usize, shard: usize, replica: usize, addr: String) {
        self.health.rejoins += 1;
        self.metrics.rejoins.inc();
        self.set_live(live);
        self.events.push(WorkerEvent::Rejoined { shard, replica, addr });
    }

    fn retried(&mut self, attempts: usize) {
        self.health.retry_attempts += attempts as u64;
        self.metrics.retry_attempts.add(attempts as u64);
    }
}

/// One involved shard's side of a group exchange: what its `PARTIAL`
/// must contain and how far the exchange got on the group's primary —
/// the whole in-flight window of a link is this one request.
struct ShardLink {
    shard: usize,
    /// Which of the group's sealed request frames this shard is sent.
    frame: usize,
    wanted: Vec<SiteWant>,
    /// The request was written on the primary's connection. Cleared when
    /// that replica dies, so the same bytes are written again on the
    /// replacement.
    sent: bool,
    /// The matching `PARTIAL` was received and decoded.
    done: bool,
}

/// The coordinator of a multi-process sharded deployment: embedding,
/// readout head and every sequence's KV cache stay here; every linear
/// site executes as a broadcast to remote workers and a gather of their
/// partial outputs. Implements [`ServeModel`], so the generic
/// [`crate::serving::Scheduler`] drives it exactly like the in-process
/// engines — and its output is **bit-identical** to both, at any shard
/// count, any replica count, and across worker crashes that leave at
/// least one live replica per shard.
///
/// One lock owns the fleet; a ledger serves observers. `fleet` is held
/// for a whole *logical operation* (site gather, heartbeat, scrape,
/// shutdown — reconnects and backoff sleeps included): connections
/// carry one in-flight request, so two operations must never interleave
/// frame I/O, and they stay in the table while it runs. `ledger` holds
/// the stored [`TransportHealth`], the event log and the metrics handles;
/// every state change is published there, and it is the only lock
/// `transport_health`, `take_events` and `set_telemetry` take — so
/// observability calls never stall behind a dead-but-slow replica. Lock
/// order: `fleet`, then `ledger`, always.
pub struct RemoteShardedModel {
    cfg: ModelConfig,
    embedding: Matrix,
    head: Matrix,
    plan: ShardPlan,
    transport: TransportConfig,
    dial: Box<Dialer>,
    fleet: Mutex<Fleet>,
    ledger: Mutex<Ledger>,
}

impl RemoteShardedModel {
    /// Connects to `replica_addrs[shard]`'s workers (every shard needs at
    /// least one replica; `replica_addrs.len()` is the shard count),
    /// plans the row shard of `model`, and ships every replica of shard
    /// `s` the identical FNQS envelopes of `s`'s slices — all under the
    /// default [`TransportConfig`] deadlines.
    ///
    /// # Errors
    ///
    /// Connection or load failures during setup are hard errors — a
    /// deployment that cannot load is reported, not served around.
    ///
    /// # Panics
    ///
    /// As [`ShardPlan::new`] (unpacked model, zero or oversized shard
    /// count), or if a shard has no replica addresses.
    pub fn connect(
        model: &Transformer,
        replica_addrs: &[Vec<String>],
    ) -> Result<Self, TransportError> {
        Self::connect_via(model, replica_addrs, TransportConfig::default(), Box::new(dial_socket))
    }

    /// [`RemoteShardedModel::connect`] with explicit deadlines and retry
    /// policy, over any [`Dialer`]: the gather, failover, replay and rejoin
    /// code runs unchanged over whatever [`Link`]s `dial` opens. Errors and
    /// panics as `connect`.
    pub fn connect_via(
        model: &Transformer,
        replica_addrs: &[Vec<String>],
        transport: TransportConfig,
        dial: Box<Dialer>,
    ) -> Result<Self, TransportError> {
        let n_shards = replica_addrs.len();
        let plan = ShardPlan::new(model, n_shards);
        let mut shard_loads = Vec::with_capacity(n_shards);
        for (shard, addrs) in replica_addrs.iter().enumerate() {
            // A documented precondition (# Panics): only a caller bug trips it.
            assert!(!addrs.is_empty(), "shard {shard} needs at least one replica address");
            // Slice and seal once per shard; every replica receives the
            // identical frame bytes (what makes replay — and rejoin — bit-
            // identical). Kept for the life of the deployment.
            let envelopes = plan.envelopes(model, shard).into_iter();
            shard_loads.push(envelopes.map(|e| frame_bytes(KIND_LOAD, &e)).collect::<Vec<_>>());
        }
        // Connect + LOAD every replica of every shard in parallel.
        let jobs: Vec<(&str, &[Vec<u8>])> = replica_addrs
            .iter()
            .zip(&shard_loads)
            .flat_map(|(addrs, loads)| addrs.iter().map(move |a| (a.as_str(), loads.as_slice())))
            .collect();
        // Assemble in deterministic (shard, replica) order; the first
        // failure in that order is the reported one.
        let mut outcomes = connect_all(&*dial, &jobs, &transport).into_iter();
        let mut groups = Vec::with_capacity(n_shards);
        for (addrs, loads) in replica_addrs.iter().zip(shard_loads) {
            let mut replicas = Vec::with_capacity(addrs.len());
            for (addr, conn) in addrs.iter().zip(&mut outcomes) {
                replicas.push(Replica {
                    addr: addr.clone(),
                    conn: Some(conn?),
                    attempts: 0,
                    next_attempt_tick: 0,
                    abandoned: HashSet::new(),
                });
            }
            groups.push(Group { replicas, primary: 0, loads });
        }
        let replicas = groups.iter().map(|g| g.replicas.len()).sum();
        let deadline_ms = transport.gather_timeout.as_millis().min(u128::from(u64::MAX)) as u64;
        Ok(Self {
            cfg: model.config().clone(),
            embedding: model.embedding().clone(),
            head: model.head().clone(),
            plan,
            transport,
            dial,
            fleet: Mutex::new(Fleet { groups, tick: 0, next_nonce: 1 }),
            ledger: Mutex::new(Ledger {
                health: TransportHealth {
                    live_replicas: replicas,
                    deadline_ms,
                    ..TransportHealth::default()
                },
                replicas,
                events: Vec::new(),
                metrics: TransportMetrics::new(Arc::new(MetricsRegistry::disabled())),
            }),
        })
    }

    /// The architecture.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.plan.n_shards()
    }

    /// The row partition the deployment was built from.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Probes dead replicas whose backoff is due (heartbeats drive
    /// rejoin even when no traffic flows), then every connected replica
    /// under the heartbeat deadline, marking non-responders (including
    /// *hung* ones) dead and re-pointing each group's primary at a live
    /// spare, so the next step pays no failover latency. Returns the
    /// liveness snapshot.
    ///
    /// With telemetry installed the probe is a `STATS` exchange whose
    /// reply refreshes that worker's metrics snapshot — liveness and
    /// cluster scraping share one round-trip; without it heartbeats stay
    /// PING/PONG. Probe I/O holds only the fleet lock and observability
    /// readers read the ledger, so they never stall behind a slow replica.
    ///
    /// Heartbeats double as keep-alives: a cadence shorter than the
    /// workers' idle deadline stops idle workers from hanging up between
    /// requests (the coupling [`run_worker_configured`] documents).
    pub fn heartbeat(&self) -> HealthReport {
        let mut fleet = lock(&self.fleet);
        let fleet = &mut *fleet;
        self.rejoin(fleet, None);
        let tm = lock(&self.ledger).metrics.clone();
        self.control_round(fleet, &tm);
        for shard in 0..fleet.groups.len() {
            fleet.elect_primary(shard, &self.ledger);
        }
        let live_per_shard: Vec<usize> = fleet
            .groups
            .iter()
            .map(|g| g.replicas.iter().filter(|r| r.conn.is_some()).count())
            .collect();
        let dead = fleet.groups.iter().map(|g| g.replicas.len()).sum::<usize>()
            - live_per_shard.iter().sum::<usize>();
        let primary_per_shard = fleet.groups.iter().map(|g| g.primary).collect();
        HealthReport { live_per_shard, dead, primary_per_shard }
    }

    /// The transport robustness counters: deaths, failovers, rejoins,
    /// retry attempts, deadline expiries, and current live/dead replica
    /// counts. Cumulative since connect; cheap to call.
    pub fn transport_health(&self) -> TransportHealth {
        lock(&self.ledger).health
    }

    /// Installs a [`MetricsRegistry`]: every future death, failover,
    /// rejoin, retry attempt and timeout is mirrored into
    /// `fineq_transport_*_total` counters, the `fineq_live_replicas`
    /// gauge tracks connectivity from the current live count, and each
    /// site gather records its latency into a per-site-kind histogram.
    /// Counters in the registry start at zero — the pre-install history
    /// stays visible through [`RemoteShardedModel::transport_health`].
    pub fn set_telemetry(&self, registry: Arc<MetricsRegistry>) {
        let mut ledger = lock(&self.ledger);
        ledger.metrics = TransportMetrics::new(registry);
        let live = ledger.health.live_replicas;
        ledger.set_live(live);
    }

    /// Scrapes every live replica's local registry with a [`KIND_STATS`]
    /// frame (under the heartbeat deadline: the heartbeat's probe round
    /// without its rejoin sweep) and folds the snapshots into
    /// the installed registry as remote sources keyed
    /// `shard{s}_replica{r}` — [`MetricsRegistry::cluster_snapshot`] /
    /// `render_text` then serve the whole cluster from one endpoint.
    /// Each scrape *replaces* that replica's previous snapshot, so
    /// cumulative worker counters are never double-counted. A replica
    /// that fails (or hangs on) the scrape is marked dead via the normal
    /// failover path — the next gather elects a spare, rejoin probes
    /// bring it back. No-op while telemetry is disabled. Returns the
    /// number of replicas scraped.
    pub fn scrape_worker_stats(&self) -> usize {
        let mut fleet = lock(&self.fleet);
        let tm = lock(&self.ledger).metrics.clone();
        if !tm.registry.enabled() {
            return 0;
        }
        self.control_round(&mut fleet, &tm)
    }

    /// One round of control probes over every connected replica: a
    /// `STATS` exchange while `tm`'s registry is enabled (the
    /// snapshot folded into it as source `shard{s}_replica{r}`), else a
    /// `PING`/`PONG` echo. A replica that fails or hangs is marked dead.
    /// The probe I/O holds only the fleet lock, so a slow or hung replica
    /// stalls this call, never [`RemoteShardedModel::transport_health`]
    /// or [`RemoteShardedModel::take_events`] readers on other threads —
    /// they read the ledger. Returns the number of replicas that answered.
    fn control_round(&self, fleet: &mut Fleet, tm: &TransportMetrics) -> usize {
        let scrape = tm.registry.enabled();
        let mut answered = 0;
        for shard in 0..fleet.groups.len() {
            for replica in 0..fleet.groups[shard].replicas.len() {
                let r = &mut fleet.groups[shard].replicas[replica];
                // Dead replicas are the rejoin sweep's to revive.
                let Some(conn) = r.conn.as_deref_mut() else { continue };
                match self.probe_replica(conn, &mut r.abandoned, scrape, tm) {
                    Ok(snap) => {
                        if let Some(snap) = snap {
                            tm.registry
                                .ingest_remote(&format!("shard{shard}_replica{replica}"), snap);
                        }
                        answered += 1;
                    }
                    Err(e) => fleet.mark_dead(shard, replica, &e, &self.ledger),
                }
            }
        }
        answered
    }

    /// One heartbeat/scrape round-trip on a replica's connection:
    /// `STATS` (returning the decoded snapshot) when `scrape`, else
    /// `PING`/`PONG` echo.
    fn probe_replica(
        &self,
        conn: &mut dyn Link,
        abandoned: &mut HashSet<u64>,
        scrape: bool,
        tm: &TransportMetrics,
    ) -> Result<Option<MetricsSnapshot>, TransportError> {
        let timeout = self.transport.heartbeat_timeout;
        let (kind, body): (u8, &[u8]) =
            if scrape { (KIND_STATS, &[]) } else { (KIND_PING, b"fineq-heartbeat") };
        conn.send(&frame_bytes(kind, body), timeout)?;
        tm.sent(body.len());
        let (got, payload) = Self::read_fresh(conn, abandoned, timeout, tm)?;
        match (scrape, got) {
            (true, KIND_STATS) => MetricsSnapshot::decode(&payload)
                .map(Some)
                .map_err(|e| TransportError::Protocol(format!("stats snapshot rejected: {e}"))),
            (false, KIND_PONG) if payload == body => Ok(None),
            _ => Err(TransportError::Protocol(format!(
                "expected {}, got kind {got:#04x}",
                if scrape { "STATS reply" } else { "PONG echo" }
            ))),
        }
    }

    /// Reads the next frame that is not a stale reply: a `PARTIAL` whose
    /// nonce is on the replica's `abandoned` list is what an aborted
    /// operation was still owed — discarded by that match, read again.
    /// Every reader of a worker connection (gather, heartbeat, scrape)
    /// reads through here, so an abort can never leave a reply to be
    /// taken for the answer to a later request.
    fn read_fresh(
        conn: &mut dyn Link,
        abandoned: &mut HashSet<u64>,
        timeout: Duration,
        tm: &TransportMetrics,
    ) -> Result<(u8, Vec<u8>), TransportError> {
        loop {
            let (kind, payload) = conn.recv(timeout)?;
            tm.received(payload.len());
            if kind == KIND_PARTIAL {
                let nonce = get_u64(&payload, 0)?;
                if abandoned.remove(&nonce) {
                    continue;
                }
            }
            return Ok((kind, payload));
        }
    }

    /// Drains the failover/death events recorded since the last call.
    pub fn take_events(&self) -> Vec<WorkerEvent> {
        std::mem::take(&mut lock(&self.ledger).events)
    }

    /// Sends `SHUTDOWN` to every live worker under the heartbeat deadline
    /// and drops the connections (best-effort: unreachable workers are
    /// ignored). Every replica then reads dead; no death is counted and
    /// no event logged.
    pub fn shutdown_workers(&self) {
        let mut fleet = lock(&self.fleet);
        let timeout = self.transport.heartbeat_timeout;
        for group in &mut fleet.groups {
            for replica in &mut group.replicas {
                if let Some(mut conn) = replica.conn.take() {
                    let _ = conn.send(&frame_bytes(KIND_SHUTDOWN, &[]), timeout);
                    let _ = conn.shutdown();
                }
            }
        }
        lock(&self.ledger).set_live(0);
    }

    /// Advances the retry clock and reconnects dead replicas: every one
    /// whose tick-gated backoff is due, or — for the blocking recovery of
    /// one exhausted group (`only`) — every dead replica of that group,
    /// backoff ignored. Pacing is pure tick arithmetic (no wall clock),
    /// so a seeded run replays exactly. The connects and envelope
    /// re-ships run in parallel, one thread per replica — a sweep over
    /// many due replicas costs one slowest-replica handshake, not the sum
    /// — and outcomes apply in (shard, replica) order, so the event log
    /// stays deterministic: success re-admits the replica as a spare
    /// ([`WorkerEvent::Rejoined`]), failure advances its backoff
    /// schedule. Called once per gather and per heartbeat. Returns
    /// whether any replica came back.
    fn rejoin(&self, fleet: &mut Fleet, only: Option<usize>) -> bool {
        fleet.tick += 1;
        let tick = fleet.tick;
        let mut due = Vec::new();
        for (shard, group) in fleet.groups.iter().enumerate() {
            for (replica, r) in group.replicas.iter().enumerate() {
                let picked = match only {
                    Some(exhausted) => shard == exhausted,
                    None => tick >= r.next_attempt_tick,
                };
                if picked && r.conn.is_none() {
                    due.push((shard, replica));
                }
            }
        }
        if due.is_empty() {
            return false;
        }
        lock(&self.ledger).retried(due.len());
        let jobs: Vec<(&str, &[Vec<u8>])> = due
            .iter()
            .map(|&(s, r)| {
                let group = &fleet.groups[s];
                (group.replicas[r].addr.as_str(), group.loads.as_slice())
            })
            .collect();
        let outcomes = connect_all(&*self.dial, &jobs, &self.transport);
        let mut any = false;
        for ((shard, replica), outcome) in due.into_iter().zip(outcomes) {
            let r = &mut fleet.groups[shard].replicas[replica];
            match outcome {
                Ok(conn) => {
                    r.conn = Some(conn);
                    r.attempts = 0;
                    r.next_attempt_tick = 0;
                    let addr = r.addr.clone();
                    let live = fleet.live();
                    lock(&self.ledger).rejoined(live, shard, replica, addr);
                    any = true;
                }
                Err(_) => {
                    r.attempts = r.attempts.saturating_add(1);
                    let salt = ((shard as u64) << 32) | replica as u64;
                    r.next_attempt_tick =
                        tick + self.transport.retry.backoff_ticks(r.attempts, salt);
                }
            }
        }
        any
    }

    /// Elects `shard`'s primary, publishing a failover when it moves to a
    /// spare. When the whole group is dead, first makes up to `budget`
    /// rounds of backoff-sleep-then-reconnect across its dead replicas.
    /// The budget is shared across one logical operation (one site
    /// gather), so a gather can never stall longer than the policy's
    /// full schedule; observers read the ledger meanwhile.
    fn elect_recovering(
        &self,
        fleet: &mut Fleet,
        shard: usize,
        budget: &mut u32,
    ) -> Result<(), TransportError> {
        while !fleet.elect_primary(shard, &self.ledger) {
            if *budget == 0 {
                return Err(TransportError::NoLiveReplica { shard });
            }
            let attempt = self.transport.retry.max_attempts.saturating_sub(*budget) + 1;
            *budget -= 1;
            std::thread::sleep(self.transport.retry.backoff(attempt, shard as u64));
            self.rejoin(fleet, Some(shard));
        }
        Ok(())
    }

    /// Writes the group's sealed request on `link`'s shard primary —
    /// electing a spare when it is dead, with bounded blocking recovery
    /// when the whole group is — and fails over until a write succeeds.
    /// The frame is nonce-complete, so a write after a failover is
    /// byte-identical to the first.
    fn send_group(
        &self,
        fleet: &mut Fleet,
        link: &mut ShardLink,
        frame: &[u8],
        tm: &TransportMetrics,
        budget: &mut u32,
    ) -> Result<(), TransportError> {
        loop {
            self.elect_recovering(fleet, link.shard, budget)?;
            let (replica, conn, _) = fleet.groups[link.shard].primary_io();
            match conn.send(frame, self.transport.gather_timeout) {
                Ok(()) => {
                    tm.sent(frame.len() - FRAME_HEADER_BYTES);
                    link.sent = true;
                    return Ok(());
                }
                Err(e) => {
                    fleet.mark_dead(link.shard, replica, &TransportError::Frame(e), &self.ledger)
                }
            }
        }
    }

    /// Awaits the `PARTIAL` carrying `nonce` on `link` and decodes it into
    /// `outs`. Every failure — stream, deadline, worker `ERROR`, a reply
    /// that is not the answer to what was asked — kills the replica and
    /// marks the request unsent, so the next send replays it on the
    /// elected spare under the same nonce.
    #[allow(clippy::too_many_arguments)]
    fn await_group(
        &self,
        fleet: &mut Fleet,
        link: &mut ShardLink,
        frame: &[u8],
        nonce: u64,
        outs: &mut [Matrix],
        tm: &TransportMetrics,
        budget: &mut u32,
    ) -> Result<(), TransportError> {
        loop {
            if !link.sent {
                self.send_group(fleet, link, frame, tm, budget)?;
            }
            let timeout = self.transport.gather_timeout;
            let (replica, conn, abandoned) = fleet.groups[link.shard].primary_io();
            let failure = match Self::read_fresh(conn, abandoned, timeout, tm) {
                Ok((KIND_PARTIAL, rx)) => match decode_partial(&rx, nonce, &link.wanted, outs) {
                    Ok(()) => {
                        link.done = true;
                        return Ok(());
                    }
                    Err(e) => e,
                },
                Ok((KIND_ERROR, rx)) => TransportError::Protocol(format!(
                    "worker rejected gather: {}",
                    String::from_utf8_lossy(&rx)
                )),
                Ok((other, _)) => TransportError::Protocol(format!(
                    "expected PARTIAL, got frame kind {other:#04x}"
                )),
                Err(e) => e,
            };
            fleet.mark_dead(link.shard, replica, &failure, &self.ledger);
            link.sent = false;
        }
    }

    /// Ends a gather's links. A request sent but never answered still
    /// owes a `PARTIAL` on the primary's connection: its nonce goes on
    /// that replica's abandoned list, and whatever read next touches the
    /// connection (gather, heartbeat, scrape) discards the stale reply by
    /// nonce match.
    fn release_links(fleet: &mut Fleet, links: &[ShardLink], nonce: u64) {
        for link in links.iter().filter(|link| link.sent && !link.done) {
            let group = &mut fleet.groups[link.shard];
            group.replicas[group.primary].abandoned.insert(nonce);
        }
    }

    /// One *group* of linear sites sharing the same broadcast input
    /// (Q/K/V, or one site), distributed as **one exchange per involved
    /// shard**: a single nonce-tagged `GATHER` carries the activations
    /// once with the list of sites to apply them to, and the shard
    /// answers with a single `PARTIAL` holding every site's rows. The
    /// request is written to every shard before the first reply is
    /// awaited, so the workers compute in parallel while the coordinator
    /// collects in shard order. Outputs are returned in `sites` order
    /// and are bit-identical to serial execution (nothing about grouping
    /// touches arithmetic).
    ///
    /// Each call ticks the rejoin clock, so dead replicas whose backoff
    /// is due get probed on the way in. Any mid-flight failure replays
    /// the request on a spare under the original nonce
    /// ([`RemoteShardedModel::await_group`]). On abort, owed replies become
    /// abandoned nonces ([`RemoteShardedModel::release_links`]) and can
    /// never be misread by a later operation.
    ///
    /// # Errors
    ///
    /// [`TransportError::NoLiveReplica`] when a shard group is exhausted
    /// and bounded blocking recovery could not revive any member — the
    /// one failure replication cannot mask. Everything short of that is
    /// handled internally (failover, replay, rejoin).
    fn try_site_gather_group(
        &self,
        layer: usize,
        sites: &[WeightSite],
        a: &Matrix,
    ) -> Result<Vec<Matrix>, TransportError> {
        let mut fleet = lock(&self.fleet);
        let fleet = &mut *fleet;
        self.rejoin(fleet, None);
        let nonce = fleet.next_nonce;
        fleet.next_nonce += 1;
        // Clone the handles out of the ledger once: frames and latency
        // record without taking it again.
        let tm = lock(&self.ledger).metrics.clone();
        let started = tm.registry.enabled().then(|| tm.registry.now_micros());
        // One blocking-recovery budget for the whole group: a
        // repeatedly-failing fleet cannot stall a step forever.
        let mut budget = self.transport.retry.max_attempts;
        let mut outs: Vec<Matrix> = sites
            .iter()
            .map(|&site| Matrix::zeros(a.rows(), self.plan.site(layer, site).rows))
            .collect();
        // `(site subset, sealed frame)`: shards owning rows of the same
        // sites share one frame — always, unless a site has fewer rows
        // than there are shards.
        let mut frames: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut links: Vec<ShardLink> = Vec::new();
        for shard in 0..self.plan.n_shards() {
            let wanted: Vec<SiteWant> = sites
                .iter()
                .enumerate()
                .map(|(out, &site)| (out, site, self.plan.site(layer, site).range(shard)))
                .filter(|&(_, _, (start, end))| start < end)
                .map(|(out, site, (start, end))| SiteWant {
                    out,
                    sid: site_id(layer, site),
                    start,
                    end,
                })
                .collect();
            if wanted.is_empty() {
                continue;
            }
            let mask = wanted.iter().fold(0u32, |m, w| m | 1 << w.out);
            let frame = frames.iter().position(|&(m, _)| m == mask).unwrap_or_else(|| {
                let ids: Vec<u32> = wanted.iter().map(|w| w.sid).collect();
                frames.push((mask, encode_gather(nonce, &ids, a)));
                frames.len() - 1
            });
            links.push(ShardLink { shard, frame, wanted, sent: false, done: false });
        }
        let result: Result<(), TransportError> = (|| {
            for link in &mut links {
                self.send_group(fleet, link, &frames[link.frame].1, &tm, &mut budget)?;
            }
            for link in &mut links {
                let frame = &frames[link.frame].1;
                self.await_group(fleet, link, frame, nonce, &mut outs, &tm, &mut budget)?;
            }
            Ok(())
        })();
        Self::release_links(fleet, &links, nonce);
        result?;
        if let Some(t0) = started {
            let us = tm.registry.now_micros().saturating_sub(t0);
            for site in sites {
                tm.gather_us[site.index()].record(us);
            }
        }
        Ok(outs)
    }
}

impl std::fmt::Debug for RemoteShardedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShardedModel")
            .field("n_shards", &self.plan.n_shards())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl ServeModel for RemoteShardedModel {
    fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    fn forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Matrix {
        // The infallible legacy entry: callers that cannot handle a
        // failed step (direct engine comparisons) get the old contract —
        // total group loss panics. The scheduler drives the `try_` path.
        self.try_forward_step_batch_with(tokens, slots, cache, scratch)
            .unwrap_or_else(|e| panic!("distributed serving cannot continue: {e}"))
    }

    fn try_forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        _scratch: &mut KernelScratch,
    ) -> Result<Matrix, StepError> {
        // The same shared step body as the in-process engines; the only
        // difference is where a linear site executes. Local scratch is
        // unused — restaging happens on the workers. On error the KV
        // commit never runs, so failed slots are reset, not rolled back.
        batched_step_body(
            &self.cfg,
            &self.embedding,
            &self.head,
            tokens,
            slots,
            cache,
            None,
            |l, sites, a| self.try_site_gather_group(l, sites, a).map_err(StepError::from),
        )
        .map(|(logits, _)| logits)
    }

    fn transport_health(&self) -> Option<TransportHealth> {
        Some(RemoteShardedModel::transport_health(self))
    }

    fn install_telemetry(&self, registry: &Arc<MetricsRegistry>) {
        RemoteShardedModel::set_telemetry(self, Arc::clone(registry));
    }

    fn thread_pool(&self) -> Option<&std::sync::Arc<fineq_core::ThreadPool>> {
        None
    }
}

impl From<TransportError> for StepError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::NoLiveReplica { shard } => StepError::NoLiveReplica { shard },
            other => StepError::Transport { detail: other.to_string() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::packed_tiny;
    use super::super::{serve_connection, Worker, WorkerReply, KIND_GATHER, PROTOCOL_VERSION};
    use super::*;
    use fineq_core::frame::{read_frame, seal_frame, write_frame, Listener};

    /// In-process worker threads: each binds a loopback TCP listener and
    /// serves [`serve_connection`] loops — the subprocess path without
    /// process management (tests/distributed_serving.rs covers the real
    /// subprocess + Unix-socket path).
    fn spawn_worker_threads(n: usize) -> (Vec<Vec<String>>, Vec<std::thread::JoinHandle<()>>) {
        let mut addrs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = Listener::bind("tcp:127.0.0.1:0").expect("bind loopback");
            addrs.push(vec![listener.local_addr().expect("bound address")]);
            handles.push(std::thread::spawn(move || {
                let mut worker = Worker::new();
                loop {
                    let Ok(mut conn) = listener.accept() else { return };
                    match serve_connection(&mut conn, &mut worker) {
                        Ok(true) => return,
                        Ok(false) => continue,
                        Err(_) => continue,
                    }
                }
            }));
        }
        (addrs, handles)
    }

    /// A worker thread under test control: `script(connection index,
    /// request kind, request payload, real reply)` returns the reply
    /// payload to send, or `None` to hang up without answering. Stops on
    /// `SHUTDOWN`.
    type Script = dyn FnMut(usize, u8, &[u8], Vec<u8>) -> Option<Vec<u8>> + Send;

    fn spawn_scripted_worker(mut script: Box<Script>) -> (String, std::thread::JoinHandle<()>) {
        let listener = Listener::bind("tcp:127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || {
            let mut worker = Worker::new();
            for idx in 0usize.. {
                let Ok(mut conn) = listener.accept() else { return };
                while let Ok((kind, payload)) = read_frame(&mut conn) {
                    let Ok(WorkerReply::Frame(k, real)) = worker.handle(kind, &payload) else {
                        return; // SHUTDOWN
                    };
                    match script(idx, kind, &payload, real) {
                        Some(reply) if write_frame(&mut conn, k, &reply).is_ok() => {}
                        _ => break,
                    }
                }
            }
        });
        (addr, handle)
    }

    /// Stops a scripted worker that the coordinator's own `SHUTDOWN` may
    /// or may not have reached already (a refused connect means it has).
    fn stop_worker(addr: &str, handle: std::thread::JoinHandle<()>) {
        if let Ok(mut conn) = Stream::connect(addr) {
            let _ = write_frame(&mut conn, KIND_SHUTDOWN, &[]);
        }
        handle.join().expect("worker thread");
    }

    fn fast_retry() -> TransportConfig {
        TransportConfig {
            connect_timeout: Duration::from_millis(500),
            retry: RetryPolicy {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            ..TransportConfig::default()
        }
    }

    /// The version check of the handshake: a hand-built v2 `LOADED` (site
    /// id only), one cut inside the version field, and one naming another
    /// version are each refused at connect with the typed mismatch.
    #[test]
    fn loaded_ack_of_another_protocol_version_is_refused_at_connect() {
        let model = packed_tiny(21);
        let acks: [fn(Vec<u8>) -> Vec<u8>; 3] = [
            |ack| ack[..4].to_vec(),
            |ack| ack[..5].to_vec(),
            |ack| [&ack[..4], &(PROTOCOL_VERSION + 1).to_le_bytes()[..]].concat(),
        ];
        for (case, rewrite) in acks.into_iter().enumerate() {
            let (addr, handle) = spawn_scripted_worker(Box::new(move |_, kind, _, real| {
                Some(if kind == KIND_LOAD { rewrite(real) } else { real })
            }));
            let err = RemoteShardedModel::connect_via(
                &model,
                &[vec![addr.clone()]],
                fast_retry(),
                Box::new(dial_socket),
            )
            .expect_err("a worker of another protocol version must be refused");
            let TransportError::Protocol(msg) = &err else { panic!("case {case}: {err}") };
            assert!(
                msg.contains("worker speaks")
                    && msg.contains(&format!("coordinator v{PROTOCOL_VERSION}")),
                "case {case}: {msg}"
            );
            stop_worker(&addr, handle);
        }
    }

    /// Every replica's handshake runs at once, however many replicas there
    /// are per core: one more replica than the host has threads, each
    /// stalling `D` before its first `LOADED`, connects in about `D`. A
    /// pool of `default_threads()` workers would run two of them back to
    /// back (at least `2·D`).
    #[test]
    fn connect_waits_for_the_slowest_handshake_not_the_sum() {
        const D: Duration = Duration::from_millis(300);
        let model = packed_tiny(24);
        let workers: Vec<_> = (0..fineq_core::pool::default_threads() + 1)
            .map(|_| {
                let mut stalled = false;
                spawn_scripted_worker(Box::new(move |_, kind, _, real| {
                    if kind == KIND_LOAD && !std::mem::replace(&mut stalled, true) {
                        std::thread::sleep(D);
                    }
                    Some(real)
                }))
            })
            .collect();
        let addrs = vec![workers.iter().map(|(addr, _)| addr.clone()).collect()];
        let started = std::time::Instant::now();
        let remote = RemoteShardedModel::connect(&model, &addrs).expect("every replica loads");
        let took = started.elapsed();
        assert!(took < D * 3 / 2, "connect took {took:?} for stalls of {D:?} each");
        remote.shutdown_workers();
        for (addr, handle) in workers {
            stop_worker(&addr, handle);
        }
    }

    /// Rejoin runs the same handshake: a replica that comes back speaking
    /// v2 stays dead — no `Rejoined` event, the exhausted group fails the
    /// step typed.
    #[test]
    fn rejoining_replica_of_another_protocol_version_stays_dead() {
        let model = packed_tiny(22);
        let cfg = model.config().clone();
        let (addr, handle) = spawn_scripted_worker(Box::new(|conn, kind, _, real| {
            Some(if conn > 0 && kind == KIND_LOAD { real[..4].to_vec() } else { real })
        }));
        let remote = RemoteShardedModel::connect_via(
            &model,
            &[vec![addr.clone()]],
            fast_retry(),
            Box::new(dial_socket),
        )
        .expect("the first connection speaks the current protocol");
        let mut cache = BatchKvCache::new(cfg.n_layers, cfg.d_model, 1);
        let mut scratch = KernelScratch::new();
        remote.forward_step_batch_with(&[1], &[0], &mut cache, &mut scratch);
        lock(&remote.fleet).groups[0].replicas[0]
            .conn
            .as_mut()
            .expect("live")
            .shutdown()
            .expect("sever the connection");
        let err = remote
            .try_forward_step_batch_with(&[2], &[0], &mut cache, &mut scratch)
            .expect_err("no replica speaks the coordinator's protocol any more");
        assert!(matches!(err, StepError::NoLiveReplica { shard: 0 }), "{err}");
        let th = remote.transport_health();
        assert_eq!((th.deaths, th.rejoins, th.live_replicas), (1, 0, 0), "{th:?}");
        assert!(th.retry_attempts >= 1, "{th:?}");
        assert!(
            !remote.take_events().iter().any(|e| matches!(e, WorkerEvent::Rejoined { .. })),
            "a v2 worker must not rejoin"
        );
        stop_worker(&addr, handle);
    }

    /// A link that ships every slice as a coordinator of another
    /// `SHARD_VERSION` would: each `LOAD`'s envelope version rewritten,
    /// the frame resealed.
    struct OtherShardVersion(Box<dyn Link>, u16);

    impl Link for OtherShardVersion {
        fn send(&mut self, frame: &[u8], timeout: Duration) -> Result<(), FrameError> {
            let mut frame = frame.to_vec();
            if frame[4] == KIND_LOAD {
                let version = FRAME_HEADER_BYTES + 4..FRAME_HEADER_BYTES + 6;
                frame[version].copy_from_slice(&self.1.to_le_bytes());
                seal_frame(&mut frame, KIND_LOAD);
            }
            self.0.send(&frame, timeout)
        }

        fn recv(&mut self, timeout: Duration) -> Result<(u8, Vec<u8>), FrameError> {
            self.0.recv(timeout)
        }

        fn shutdown(&mut self) -> std::io::Result<()> {
            self.0.shutdown()
        }
    }

    /// A mixed fleet fails at the handshake, typed: a worker handed an
    /// envelope of another `SHARD_VERSION` answers `ERROR`, and
    /// `connect_via` reports which slice it rejected and why.
    #[test]
    fn envelope_of_another_shard_version_is_refused_at_connect() {
        let model = packed_tiny(25);
        let first_site = get_u32(&ShardPlan::new(&model, 1).envelopes(&model, 0)[0], 10)
            .expect("envelope site id");
        for version in [1, fineq_core::serialize::SHARD_VERSION + 1] {
            let (addr, handle) = spawn_scripted_worker(Box::new(|_, _, _, real| Some(real)));
            let dial: Box<Dialer> = Box::new(move |addr, tc| {
                Ok(Box::new(OtherShardVersion(dial_socket(addr, tc)?, version)))
            });
            let err =
                RemoteShardedModel::connect_via(&model, &[vec![addr.clone()]], fast_retry(), dial)
                    .expect_err("a slice of another shard version must not load");
            let TransportError::Protocol(msg) = &err else { panic!("v{version}: {err}") };
            assert!(
                msg.contains(&format!("rejected the slice of site {first_site}"))
                    && msg.contains(&format!("unsupported shard wire version {version}")),
                "v{version}: {msg}"
            );
            stop_worker(&addr, handle);
        }
    }

    /// A failover replays the request it interrupted **byte for byte**:
    /// the spare receives the very frame the dead primary was sent — same
    /// nonce, same checksum — and the step's output is unaffected.
    #[test]
    fn failover_replays_byte_identical_frame_bytes_under_the_original_nonce() {
        let model = packed_tiny(23);
        let cfg = model.config().clone();
        let seen: [Arc<Mutex<Vec<Vec<u8>>>>; 2] = Default::default();
        let mut fleet = Vec::new();
        for (replica, log) in seen.iter().enumerate() {
            let log = Arc::clone(log);
            fleet.push(spawn_scripted_worker(Box::new(move |_, kind, payload, real| {
                if kind != KIND_GATHER {
                    return Some(real);
                }
                // `read_frame` verified the checksum, so re-framing the
                // payload reproduces the wire image exactly.
                let mut log = log.lock().expect("gather log");
                log.push(frame_bytes(kind, payload));
                // The primary takes its third gather to the grave.
                (replica == 1 || log.len() < 3).then_some(real)
            })));
        }
        let addrs = vec![fleet.iter().map(|(addr, _)| addr.clone()).collect::<Vec<_>>()];
        let remote =
            RemoteShardedModel::connect_via(&model, &addrs, fast_retry(), Box::new(dial_socket))
                .expect("up");
        let mut cache_r = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let mut cache_u = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let mut scratch = KernelScratch::new();
        let got = remote.forward_step_batch_with(&[1, 2], &[0, 1], &mut cache_r, &mut scratch);
        assert_eq!(got, model.forward_step_batch(&[1, 2], &[0, 1], &mut cache_u));
        let th = remote.transport_health();
        assert_eq!((th.deaths, th.failovers), (1, 1), "{th:?}");
        let primary = seen[0].lock().expect("gather log").clone();
        let spare = seen[1].lock().expect("gather log").clone();
        assert_eq!(primary.len(), 3, "the primary saw two gathers through and died on the third");
        assert_eq!(spare[0], primary[2], "the replay is the interrupted frame, byte for byte");
        let nonce = |frame: &[u8]| get_u64(frame, FRAME_HEADER_BYTES).expect("nonce");
        assert_eq!(nonce(&spare[0]), nonce(&primary[2]));
        assert!(nonce(&primary[2]) > nonce(&primary[1]), "fresh nonce per exchange");
        remote.shutdown_workers();
        for (addr, handle) in fleet {
            stop_worker(&addr, handle);
        }
    }

    /// The PARTIAL hostile-bytes sweep (GATHER and STATS have theirs in
    /// `worker.rs`): a real worker's group reply, truncated at any byte,
    /// with any header byte flipped (the nonce included), any count made
    /// hostile or a byte appended, is a typed protocol error through the
    /// coordinator's decode — never a panic, never silently accepted.
    /// (Stale replies never reach the decode: `read_fresh` drops them by
    /// abandoned nonce, which the abort test below drives end to end.)
    #[test]
    fn partial_payload_hostile_bytes_are_protocol_errors() {
        let model = packed_tiny(24);
        let plan = ShardPlan::new(&model, 2);
        let mut worker = Worker::new();
        for envelope in plan.envelopes(&model, 1) {
            worker.handle(KIND_LOAD, &envelope).expect("load");
        }
        let qkv = [WeightSite::AttnQ, WeightSite::AttnK, WeightSite::AttnV];
        let wanted: Vec<SiteWant> = qkv
            .iter()
            .enumerate()
            .map(|(out, &site)| {
                let (start, end) = plan.site(0, site).range(1);
                SiteWant { out, sid: site_id(0, site), start, end }
            })
            .collect();
        let (nonce, t_len) = (0x1122_3344_5566_7788u64, 2usize);
        let a = Matrix::from_fn(t_len, model.config().d_model, |t, c| (t + c) as f32 * 0.1);
        let ids: Vec<u32> = wanted.iter().map(|w| w.sid).collect();
        let frame = encode_gather(nonce, &ids, &a);
        let Ok(WorkerReply::Frame(KIND_PARTIAL, valid)) =
            worker.handle(KIND_GATHER, &frame[FRAME_HEADER_BYTES..])
        else {
            panic!("expected a PARTIAL");
        };
        let fresh = || -> Vec<Matrix> {
            qkv.iter().map(|&s| Matrix::zeros(t_len, plan.site(0, s).rows)).collect()
        };
        decode_partial(&valid, nonce, &wanted, &mut fresh()).expect("the worker's reply decodes");
        let rejected = |payload: &[u8], what: String| {
            let got = decode_partial(payload, nonce, &wanted, &mut fresh());
            assert!(matches!(got, Err(TransportError::Protocol(_))), "{what}: {got:?}");
        };
        for cut in 0..valid.len() {
            rejected(&valid[..cut], format!("truncated at byte {cut}"));
        }
        rejected(&[&valid[..], &[0u8][..]].concat(), "one byte appended".into());
        // Header bytes: nonce, n_sites, t_len, then each section's site
        // id, row_start and rows.
        let mut headers: Vec<usize> = (0..16).collect();
        let mut off = 16;
        for w in &wanted {
            headers.extend(off..off + 12);
            off += 12 + t_len * (w.end - w.start) * 4;
        }
        assert_eq!(off, valid.len());
        for &idx in &headers {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut hostile = valid.clone();
                hostile[idx] ^= flip;
                rejected(&hostile, format!("byte {idx} ^ {flip:#04x}"));
            }
        }
        for field in [8usize, 12, 16 + 8] {
            for count in [0u32, 0x8000_0000, 0xFFFF_FFFF] {
                let mut hostile = valid.clone();
                hostile[field..field + 4].copy_from_slice(&count.to_le_bytes());
                rejected(&hostile, format!("field at {field} = {count:#x}"));
            }
        }
        // A reply to another exchange is refused before a byte of it
        // reaches the outputs.
        let mut untouched = fresh();
        assert!(decode_partial(&valid, nonce ^ 1, &wanted, &mut untouched).is_err());
        assert_eq!(untouched, fresh());
    }

    #[test]
    fn remote_steps_are_bit_identical_to_local_engines() {
        let model = packed_tiny(11);
        let cfg = model.config().clone();
        let (addrs, handles) = spawn_worker_threads(3);
        let remote = RemoteShardedModel::connect(&model, &addrs).expect("connect");
        assert_eq!(remote.n_shards(), 3);
        let local = remote.plan().rebuild(&model);
        let steps: [(Vec<usize>, Vec<usize>); 3] =
            [(vec![1, 2, 3], vec![0, 1, 2]), (vec![4, 5], vec![0, 2]), (vec![6], vec![1])];
        let mut cache_r = BatchKvCache::new(cfg.n_layers, cfg.d_model, 3);
        let mut cache_l = BatchKvCache::new(cfg.n_layers, cfg.d_model, 3);
        let mut cache_u = BatchKvCache::new(cfg.n_layers, cfg.d_model, 3);
        let mut scratch = KernelScratch::new();
        for (t, s) in &steps {
            let remote_logits = remote.forward_step_batch_with(t, s, &mut cache_r, &mut scratch);
            let local_logits = local.forward_step_batch(t, s, &mut cache_l);
            let unsharded_logits = model.forward_step_batch(t, s, &mut cache_u);
            assert_eq!(remote_logits, local_logits, "remote vs in-process sharded");
            assert_eq!(remote_logits, unsharded_logits, "remote vs unsharded");
        }
        assert_eq!(cache_r, cache_u, "KV histories must match bit for bit");
        let health = remote.heartbeat();
        assert_eq!(health.live_per_shard, vec![1, 1, 1]);
        assert!(health.serviceable());
        assert!(remote.take_events().is_empty(), "no failures, no events");
        remote.shutdown_workers();
        for h in handles {
            h.join().expect("worker thread");
        }
    }

    #[test]
    fn dead_replica_fails_over_and_replays_invisibly() {
        let model = packed_tiny(12);
        let cfg = model.config().clone();
        // 2 shards x 2 replicas: four workers, two per group.
        let (flat, handles) = spawn_worker_threads(4);
        let addrs = vec![
            vec![flat[0][0].clone(), flat[1][0].clone()],
            vec![flat[2][0].clone(), flat[3][0].clone()],
        ];
        let remote = RemoteShardedModel::connect(&model, &addrs).expect("connect");
        let mut cache_r = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let mut cache_u = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let mut scratch = KernelScratch::new();
        let step1 = remote.forward_step_batch_with(&[1, 2], &[0, 1], &mut cache_r, &mut scratch);
        assert_eq!(step1, model.forward_step_batch(&[1, 2], &[0, 1], &mut cache_u));
        // Kill shard 0's primary out from under the coordinator: drop its
        // connection by shutting down the socket worker-side via a bogus
        // frame (the worker drops corrupted connections).
        {
            let mut st = remote.fleet.lock().expect("state");
            let conn = st.groups[0].replicas[0].conn.as_mut().expect("live");
            conn.shutdown().expect("shutdown primary connection");
        }
        let step2 = remote.forward_step_batch_with(&[3, 4], &[0, 1], &mut cache_r, &mut scratch);
        assert_eq!(
            step2,
            model.forward_step_batch(&[3, 4], &[0, 1], &mut cache_u),
            "failover mid-step must be output-invisible"
        );
        assert_eq!(cache_r, cache_u, "KV history unaffected by the replay");
        // The dead replica's worker thread is still alive in accept():
        // the rejoin probe (fired opportunistically between gathers and
        // by heartbeats) reconnects it, re-ships the envelopes, and it
        // returns as a spare — the fleet heals.
        let health = remote.heartbeat();
        assert_eq!(health.live_per_shard, vec![2, 2], "the dead replica must have rejoined");
        assert_eq!(health.dead, 0);
        assert_eq!(health.primary_per_shard, vec![1, 0], "rejoin must not move the primary");
        let events = remote.take_events();
        assert!(
            events.iter().any(|e| matches!(e, WorkerEvent::WorkerDied { shard: 0, .. })),
            "death must be recorded: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, WorkerEvent::FailedOver { shard: 0, to_replica: 1, .. })),
            "failover must be recorded: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, WorkerEvent::Rejoined { shard: 0, replica: 0, .. })),
            "rejoin must be recorded: {events:?}"
        );
        let th = remote.transport_health();
        assert_eq!((th.deaths, th.failovers, th.rejoins), (1, 1, 1), "{th:?}");
        assert!(th.retry_attempts >= 1);
        // Rejoined means SHUTDOWN now reaches all four workers.
        remote.shutdown_workers();
        for h in handles {
            h.join().expect("worker thread");
        }
    }

    /// The ISSUE 8 re-promotion contract: primary dies → spare promoted
    /// → old primary rejoins *as a spare* → when the new primary dies in
    /// turn, the group fails back to the rejoined replica. The full event
    /// sequence is asserted in order, and every step's output stays
    /// bit-identical to the unsharded engine.
    #[test]
    fn heartbeat_repromotes_rejoined_primary_as_spare() {
        let model = packed_tiny(14);
        let cfg = model.config().clone();
        let (flat, handles) = spawn_worker_threads(2);
        let addrs = vec![vec![flat[0][0].clone(), flat[1][0].clone()]];
        let remote = RemoteShardedModel::connect(&model, &addrs).expect("connect");
        let mut cache_r = BatchKvCache::new(cfg.n_layers, cfg.d_model, 1);
        let mut cache_u = BatchKvCache::new(cfg.n_layers, cfg.d_model, 1);
        let mut scratch = KernelScratch::new();
        let kill = |replica: usize| {
            let mut st = remote.fleet.lock().expect("state");
            let conn = st.groups[0].replicas[replica].conn.as_mut().expect("live");
            conn.shutdown().expect("sever connection");
        };
        let step = |tok: usize,
                    cache_r: &mut BatchKvCache,
                    cache_u: &mut BatchKvCache,
                    scratch: &mut KernelScratch| {
            let r = remote.forward_step_batch_with(&[tok], &[0], cache_r, scratch);
            let u = model.forward_step_batch(&[tok], &[0], cache_u);
            assert_eq!(r, u, "every step must stay bit-identical through the churn");
        };
        step(1, &mut cache_r, &mut cache_u, &mut scratch);
        // Phase 1: primary 0 dies mid-service; the step fails over to 1.
        kill(0);
        step(2, &mut cache_r, &mut cache_u, &mut scratch);
        // Phase 2: the heartbeat rejoins 0 — as a spare, primary stays 1.
        let health = remote.heartbeat();
        assert_eq!(health.live_per_shard, vec![2]);
        assert_eq!(health.primary_per_shard, vec![1], "rejoined ex-primary must be a spare");
        // Phase 3: the new primary dies; the group fails back to 0.
        kill(1);
        step(3, &mut cache_r, &mut cache_u, &mut scratch);
        let health = remote.heartbeat();
        assert_eq!(health.primary_per_shard, vec![0], "failback to the rejoined replica");
        // The event log tells the whole story, in order.
        let events = remote.take_events();
        let ordered: Vec<&WorkerEvent> = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    WorkerEvent::WorkerDied { .. }
                        | WorkerEvent::FailedOver { .. }
                        | WorkerEvent::Rejoined { .. }
                )
            })
            .collect();
        let expect_prefix = [
            "WorkerDied(replica 0)",
            "FailedOver(0 -> 1)",
            "Rejoined(replica 0)",
            "WorkerDied(replica 1)",
            "FailedOver(1 -> 0)",
        ];
        let got: Vec<String> = ordered
            .iter()
            .map(|e| match e {
                WorkerEvent::WorkerDied { replica, .. } => format!("WorkerDied(replica {replica})"),
                WorkerEvent::FailedOver { from_replica, to_replica, .. } => {
                    format!("FailedOver({from_replica} -> {to_replica})")
                }
                WorkerEvent::Rejoined { replica, .. } => format!("Rejoined(replica {replica})"),
            })
            .collect();
        assert!(
            got.len() >= expect_prefix.len() && got[..expect_prefix.len()] == expect_prefix,
            "event sequence mismatch: got {got:?}, expected prefix {expect_prefix:?}"
        );
        remote.shutdown_workers();
        // Replica 1 died from the coordinator's view but its worker
        // thread lives; it may have rejoined via the later heartbeat (and
        // then received SHUTDOWN). If not, stop it directly.
        for addr in [&flat[0][0], &flat[1][0]] {
            if let Ok(mut conn) = Stream::connect(addr) {
                let _ = write_frame(&mut conn, KIND_SHUTDOWN, &[]);
            }
        }
        for h in handles {
            h.join().expect("worker thread");
        }
    }

    /// One worker thread on a Unix socket whose listener can be torn
    /// down (dropping the thread) and later re-bound at the same path —
    /// the revivable-address property TCP ephemeral ports cannot give.
    #[cfg(unix)]
    fn spawn_unix_worker(path: &std::path::Path) -> std::thread::JoinHandle<()> {
        let listener =
            Listener::bind(&format!("unix:{}", path.display())).expect("bind unix socket");
        std::thread::spawn(move || {
            let mut worker = Worker::new();
            loop {
                let Ok(mut conn) = listener.accept() else { return };
                match serve_connection(&mut conn, &mut worker) {
                    Ok(true) => return,
                    Ok(false) | Err(_) => continue,
                }
            }
        })
    }

    /// The abort contract, protocol v2 edition: when one shard's group
    /// is exhausted mid-gather, surviving shards that were already sent
    /// the broadcast still owe a `PARTIAL`. The abort records those owed
    /// nonces as abandoned ([`RemoteShardedModel::release_links`]), and
    /// whatever reads the connection next — heartbeat or gather —
    /// discards the stale reply by nonce match instead of consuming it
    /// as its own. Shard 0 must survive the abort unharmed and the
    /// fleet must serve bit-identically once shard 1 comes back.
    #[cfg(unix)]
    #[test]
    fn aborted_site_gather_drains_owed_replies_from_surviving_shards() {
        let model = packed_tiny(15);
        let cfg = model.config().clone();
        let dir = std::env::temp_dir().join(format!("fineq-drain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("socket dir");
        let sock0 = dir.join("shard0.sock");
        let sock1 = dir.join("shard1.sock");
        let h0 = spawn_unix_worker(&sock0);
        let h1 = spawn_unix_worker(&sock1);
        let tc = TransportConfig {
            connect_timeout: Duration::from_millis(500),
            retry: RetryPolicy {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            ..TransportConfig::default()
        };
        let addrs = vec![
            vec![format!("unix:{}", sock0.display())],
            vec![format!("unix:{}", sock1.display())],
        ];
        let remote = RemoteShardedModel::connect_via(&model, &addrs, tc, Box::new(dial_socket))
            .expect("connect");
        let mut cache_r = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let mut cache_u = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let mut scratch = KernelScratch::new();
        let step1 = remote.forward_step_batch_with(&[1, 2], &[0, 1], &mut cache_r, &mut scratch);
        assert_eq!(step1, model.forward_step_batch(&[1, 2], &[0, 1], &mut cache_u));
        // Kill shard 1 terminally: SHUTDOWN stops its worker thread and
        // drops the listener, so reconnects are refused — but the
        // coordinator does not know yet, so the next step's broadcast
        // reaches shard 0 before shard 1's failure aborts the gather.
        {
            let mut st = remote.fleet.lock().expect("state");
            let mut conn = st.groups[1].replicas[0].conn.take().expect("live");
            conn.send(&frame_bytes(KIND_SHUTDOWN, &[]), Duration::ZERO).expect("shutdown shard 1");
        }
        h1.join().expect("shard 1 worker");
        let err = remote
            .try_forward_step_batch_with(&[3, 4], &[0, 1], &mut cache_r, &mut scratch)
            .expect_err("an exhausted group must abort the step");
        assert!(
            matches!(err, StepError::NoLiveReplica { shard: 1 }),
            "expected NoLiveReplica for shard 1, got {err}"
        );
        // The surviving shard must come through the abort clean: its
        // owed PARTIAL is an abandoned nonce now, so the next control
        // read discards it by nonce match and still reaches its PONG —
        // no shard-0 death is recorded.
        let health = remote.heartbeat();
        assert_eq!(health.live_per_shard, vec![1, 0], "shard 0 must survive the abort");
        let events = remote.take_events();
        assert!(
            !events.iter().any(|e| matches!(
                e,
                WorkerEvent::WorkerDied { shard: 0, .. } | WorkerEvent::FailedOver { shard: 0, .. }
            )),
            "the abort must not harm the surviving shard: {events:?}"
        );
        // Shard 1 returns at the same address; fresh caches (the failed
        // step never committed KV) must serve bit-identically — the
        // drained connection carries no residue.
        let h1 = spawn_unix_worker(&sock1);
        // Rejoin probes are tick-gated by the backoff schedule; each
        // heartbeat is one tick, so a few of them reach the due tick.
        assert!((0..50).any(|_| remote.heartbeat().serviceable()), "rejoin must restore service");
        let mut cache_r2 = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let mut cache_u2 = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let step3 = remote.forward_step_batch_with(&[5, 6], &[0, 1], &mut cache_r2, &mut scratch);
        assert_eq!(
            step3,
            model.forward_step_batch(&[5, 6], &[0, 1], &mut cache_u2),
            "post-recovery steps must be bit-identical"
        );
        remote.shutdown_workers();
        h0.join().expect("shard 0 worker");
        h1.join().expect("shard 1 worker");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The heartbeat-cadence / worker-idle-deadline coupling documented
    /// on [`run_worker_configured`]: heartbeats inside the idle window
    /// keep an otherwise-silent connection alive (no deaths); going fully
    /// silent past the window drops it worker-side, and the next step
    /// pays a recovered-and-invisible reconnect.
    #[test]
    fn heartbeats_within_the_worker_idle_window_keep_connections_alive() {
        let model = packed_tiny(16);
        let cfg = model.config().clone();
        let idle = Duration::from_millis(400);
        let listener = Listener::bind("tcp:127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || {
            let mut worker = Worker::new();
            loop {
                let Ok(mut conn) = listener.accept() else { return };
                // The run_worker_configured idle deadline, inlined so the
                // test controls the listener's lifetime.
                let _ = conn.set_read_timeout(Some(idle));
                let _ = conn.set_write_timeout(Some(idle));
                match serve_connection(&mut conn, &mut worker) {
                    Ok(true) => return,
                    Ok(false) | Err(_) => continue,
                }
            }
        });
        let tc = TransportConfig {
            retry: RetryPolicy {
                base: Duration::from_millis(5),
                cap: Duration::from_millis(20),
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            ..TransportConfig::default()
        };
        let remote =
            RemoteShardedModel::connect_via(&model, &[vec![addr]], tc, Box::new(dial_socket))
                .expect("connect");
        let mut cache_r = BatchKvCache::new(cfg.n_layers, cfg.d_model, 1);
        let mut cache_u = BatchKvCache::new(cfg.n_layers, cfg.d_model, 1);
        let mut scratch = KernelScratch::new();
        let step1 = remote.forward_step_batch_with(&[1], &[0], &mut cache_r, &mut scratch);
        assert_eq!(step1, model.forward_step_batch(&[1], &[0], &mut cache_u));
        // Six heartbeats at 100ms cadence: ~600ms of traffic-free time,
        // well past the 400ms idle window, but each PING resets the
        // worker's idle clock — the connection must stay up.
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(100));
            assert!(remote.heartbeat().serviceable(), "heartbeats must keep the worker alive");
        }
        let step2 = remote.forward_step_batch_with(&[2], &[0], &mut cache_r, &mut scratch);
        assert_eq!(
            step2,
            model.forward_step_batch(&[2], &[0], &mut cache_u),
            "a heartbeat-kept connection must serve bit-identically"
        );
        assert_eq!(remote.transport_health().deaths, 0, "no spurious idle deaths");
        // Full silence past the idle window: the worker hangs up, the
        // next step pays one death + rejoin — and stays bit-identical.
        std::thread::sleep(idle + Duration::from_millis(400));
        let step3 = remote.forward_step_batch_with(&[3], &[0], &mut cache_r, &mut scratch);
        assert_eq!(
            step3,
            model.forward_step_batch(&[3], &[0], &mut cache_u),
            "the post-idle reconnect must be output-invisible"
        );
        let th = remote.transport_health();
        assert!(th.deaths >= 1, "the idle hangup must be recorded: {th:?}");
        assert!(th.rejoins >= 1, "the reconnect must be recorded: {th:?}");
        remote.shutdown_workers();
        handle.join().expect("worker thread");
    }

    /// One stored live count feeds every observer: through a kill, the
    /// failover, a heartbeat rejoin and `shutdown_workers`, the live/dead
    /// split of `transport_health()`, the fleet table's connected count
    /// and the registry's `fineq_live_replicas` gauge agree at every
    /// stage, and the death, failover and rejoin counters equal the
    /// drained events.
    #[test]
    fn live_count_agrees_across_health_table_and_gauge_through_shutdown() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let model = packed_tiny(25);
        let cfg = model.config().clone();
        // Replica 0 refuses every rejoin handshake until healed, so the
        // failed-over stage is observable between steps.
        let healed = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&healed);
        let fleet = [
            spawn_scripted_worker(Box::new(move |conn, kind, _, real| {
                (conn == 0 || kind != KIND_LOAD || gate.load(Ordering::SeqCst)).then_some(real)
            })),
            spawn_scripted_worker(Box::new(|_, _, _, real| Some(real))),
        ];
        let addrs = vec![fleet.iter().map(|(addr, _)| addr.clone()).collect::<Vec<_>>()];
        let remote =
            RemoteShardedModel::connect_via(&model, &addrs, fast_retry(), Box::new(dial_socket))
                .expect("up");
        let registry = Arc::new(MetricsRegistry::new());
        remote.set_telemetry(Arc::clone(&registry));
        let mut events = Vec::new();
        let mut check = |stage: &str, live: usize, counters: (u64, u64, u64)| {
            let th = remote.transport_health();
            let table =
                lock(&remote.fleet).groups[0].replicas.iter().filter(|r| r.conn.is_some()).count();
            let gauge = registry.snapshot().gauges.get("fineq_live_replicas").copied();
            assert_eq!(
                (th.live_replicas, th.dead_replicas, table, gauge),
                (live, 2 - live, live, Some(live as i64)),
                "{stage}: {th:?}"
            );
            assert_eq!((th.deaths, th.failovers, th.rejoins), counters, "{stage}: {th:?}");
            events.extend(remote.take_events());
            let count =
                |pick: fn(&WorkerEvent) -> bool| events.iter().filter(|e| pick(e)).count() as u64;
            let drained = (
                count(|e| matches!(e, WorkerEvent::WorkerDied { .. })),
                count(|e| matches!(e, WorkerEvent::FailedOver { .. })),
                count(|e| matches!(e, WorkerEvent::Rejoined { .. })),
            );
            assert_eq!(drained, counters, "{stage}: {events:?}");
        };
        check("connected", 2, (0, 0, 0));
        let mut cache_r = BatchKvCache::new(cfg.n_layers, cfg.d_model, 1);
        let mut cache_u = BatchKvCache::new(cfg.n_layers, cfg.d_model, 1);
        let mut scratch = KernelScratch::new();
        for tok in [1, 2] {
            if tok == 2 {
                lock(&remote.fleet).groups[0].replicas[0]
                    .conn
                    .as_mut()
                    .expect("live")
                    .shutdown()
                    .expect("sever the primary");
            }
            let got = remote.forward_step_batch_with(&[tok], &[0], &mut cache_r, &mut scratch);
            assert_eq!(got, model.forward_step_batch(&[tok], &[0], &mut cache_u));
        }
        check("failed over", 1, (1, 1, 0));
        healed.store(true, Ordering::SeqCst);
        assert!((0..200).any(|_| remote.heartbeat().live() == 2), "the replica must rejoin");
        check("rejoined", 2, (1, 1, 1));
        remote.shutdown_workers();
        check("shut down", 0, (1, 1, 1));
        for (addr, handle) in fleet {
            stop_worker(&addr, handle);
        }
    }
}
