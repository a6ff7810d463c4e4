//! Multi-process sharded serving: remote workers over `std::net`.
//!
//! [`crate::shard`] proved the topology in one process: row-shard every
//! packed weight site, broadcast activations, gather partial outputs, and
//! the result is bit-identical to the unsharded engine. This module puts a
//! wire in the seam. A **worker** ([`run_worker_configured`], shipped as
//! the `fineq-worker` binary) loads its FNQS shard envelopes — the exact
//! bytes [`fineq_core::serialize::shard_to_bytes`] produces — and serves
//! batched gather requests over the checksummed frame protocol of
//! [`fineq_core::frame`]. The **coordinator** ([`RemoteShardedModel`])
//! keeps the embedding, readout head and every sequence's KV cache, and
//! implements the same gather interface the in-process engine consumes:
//! each linear site broadcasts the batch's activations to every involved
//! shard's primary replica, then gathers their partial outputs. Sites
//! that share one input (Q/K/V) travel as **one exchange per shard**: a
//! single `GATHER` carries the activations once with the list of sites
//! to apply them to, and the shard answers with a single `PARTIAL`
//! holding every site's rows — the workers compute in parallel across
//! shards while the coordinator collects in shard order, and each
//! connection's in-flight window is exactly one request.
//!
//! The module is three files behind this one: `wire` (the payload
//! codec), `worker` ([`Worker`], [`serve_connection`],
//! [`run_worker_configured`]) and `coordinator` ([`RemoteShardedModel`]).
//! The coordinator reaches a worker only through a [`Link`] its
//! [`Dialer`] opens: a socket from `connect`, anything else through
//! `connect_via` — the test suites' seeded in-process fleet simulator,
//! which answers with [`Worker::handle`].
//!
//! ## Protocol (version 3)
//!
//! Every message is one frame (`kind`, payload). Integers are u32 LE
//! (the nonce is u64 LE, the version u16 LE), activations/partials are
//! f32 LE, row-major:
//!
//! ```text
//! LOAD     -> payload = FNQS shard envelope        | reply LOADED
//! LOADED   <- site_id, protocol version u16
//! GATHER   -> nonce u64, n_sites, n_sites x site_id,
//!             t_len, cols, t_len*cols f32          | reply PARTIAL
//! PARTIAL  <- nonce u64 (request's, echoed verbatim), n_sites, t_len,
//!             n_sites x [site_id, row_start, rows, t_len*rows f32]
//! PING     -> echo payload                         | reply PONG(payload)
//! STATS    -> empty payload                        | reply STATS(FQMS snapshot)
//! SHUTDOWN -> worker exits cleanly                 | no reply
//! ERROR    <- utf-8 message (malformed but well-framed request)
//! ```
//!
//! **Version check.** Every `LOADED` ack names the [`PROTOCOL_VERSION`]
//! the worker speaks; at connect and at every rejoin (the same
//! handshake) the coordinator refuses a replica whose ack names another
//! version, or is too short to name one (a v2 worker), with
//! [`TransportError::Protocol`] `"worker speaks v…, coordinator v…"`.
//!
//! **One exchange per site group** (what version 3 changed). Version 2
//! sent one `GATHER` per site, so Q/K/V shipped one activation matrix
//! three times per shard and woke every process three times. A v3
//! `GATHER` names every site sharing its input; the worker validates the
//! whole list before computing any of it and answers with one section
//! per site, in request order: `4·L` exchanges per shard for a decode
//! step of `L` layers instead of `6·L`. The coordinator encodes a request
//! once, straight into a sealed frame ([`fineq_core::frame::seal_frame`]:
//! checksummed once), and writes those bytes to every involved shard —
//! and again, on a failover, to the spare.
//!
//! **The nonce** makes every `PARTIAL` self-identifying: a fresh u64 per
//! exchange, echoed untouched. A link awaits exactly the nonce it sent.
//! A request abandoned mid-operation leaves its nonce on the replica's
//! *abandoned* list, and whatever read next touches that connection
//! discards the stale reply by nonce match instead of swallowing one
//! frame and hoping it was the right one; any other nonce is a protocol
//! breach and kills the connection.
//!
//! Every count a peer controls (`n_sites`, `t_len`, `cols`, `rows`) is
//! bounded by the bytes actually present, with checked arithmetic, before
//! anything is sized by it — held by truncate-at-every-byte and
//! flip-every-byte sweeps over `GATHER`, `PARTIAL` and `STATS` payloads.
//!
//! A corrupt frame (checksum/magic/length failure) is not answerable — a
//! length-prefixed stream cannot resynchronize after corruption — so the
//! worker drops that connection and accepts the next one.
//!
//! ## Replicas, failover and replay
//!
//! Each shard is a **replica group**: N worker processes loaded with the
//! identical slice bytes. Requests go to the group's primary; the other
//! replicas idle as hot spares. [`RemoteShardedModel::heartbeat`] probes
//! every connected replica, primary included. When any send or receive fails, the
//! coordinator marks that replica dead (a [`WorkerEvent::WorkerDied`]
//! event), promotes the next live replica
//! ([`WorkerEvent::FailedOver`]), and **replays the in-flight request**
//! there — the identical sealed frame bytes, under the original nonce.
//! Replay is deterministic because workers are
//! stateless: a partial output is a pure function of the shipped slice
//! bytes and the broadcast activations, both byte-identical across
//! replicas, and the kernels are bit-exact at any execution shape. All
//! sequence state (the KV cache) lives on the coordinator and is only
//! advanced by `commit_step` *after* every gather of a batch step has
//! completed, so a worker crash mid-step is **output-invisible**: the
//! step simply finishes on the spare, and the token stream equals the
//! in-process unsharded [`crate::serving::BatchScheduler`] run exactly —
//! the oracle `tests/distributed_serving.rs` and the `distributed-gate`
//! CI job enforce, kill included.
//!
//! ## Deadlines, retry and rejoin
//!
//! Every coordinator operation — connect, LOAD, gather, heartbeat —
//! hands its per-operation budget from [`TransportConfig`] to each
//! [`Link::send`] / [`Link::recv`], which enforces it end to end (the
//! budget is absolute, so even a peer trickling one byte per interval
//! cannot stretch a frame past it), so a replica that *hangs* surfaces
//! as [`FrameError::TimedOut`] and takes the identical failover path as
//! one that dies. Dead replicas are not gone for good: a [`RetryPolicy`]
//! (capped exponential backoff with deterministic seeded jitter — no
//! `SystemTime` in any decision) gates background reconnect probes,
//! ticked once per gather or heartbeat. On success the coordinator
//! re-ships the **identical `LOAD` frames** it sealed around the FNQS
//! envelopes at setup and the replica returns to the group as a hot spare
//! ([`WorkerEvent::Rejoined`]); the primary does not move, so a healed
//! partition restores capacity without perturbing routing. When a gather
//! finds a whole group dead it makes a bounded number of *blocking*
//! recovery attempts (the policy's `max_attempts`), then returns
//! [`TransportError::NoLiveReplica`] instead of panicking — the
//! scheduler above fails only the affected in-flight requests and keeps
//! serving, and any surviving shard that was already sent part of the
//! aborted broadcast keeps the owed nonces on its abandoned list — the
//! stale `PARTIAL`s are discarded by nonce match on the next read, so an
//! abort can never leave one to be misread as the answer to a later
//! request. Setup and rejoin ship FNQS envelopes to all replicas **in
//! parallel**, one scoped thread per replica, so a fleet connects (and
//! a healed partition re-ships) in one slowest-replica round instead of
//! the sum. Reconnect probes, recovery backoff sleeps, heartbeat probes
//! and STATS scrapes hold the coordinator's fleet lock for the whole
//! operation, and observers never take it: every death, failover,
//! rejoin and retry is published to a separate ledger, which is all
//! [`RemoteShardedModel::transport_health`] and
//! [`RemoteShardedModel::take_events`] read — so a dead-but-slow replica
//! never blocks them.
//! [`RemoteShardedModel::transport_health`] exposes the counters
//! (deaths, failovers, rejoins, retries, timeouts) that `SchedulerStats`
//! republishes.
//!
//! ## Telemetry
//!
//! Installing a [`MetricsRegistry`] ([`RemoteShardedModel::set_telemetry`]
//! or `Scheduler::set_telemetry`) mirrors every robustness counter, the
//! frames and payload bytes exchanged with workers, the live-replica
//! gauge and per-site-kind gather latency into the metrics plane (the
//! README's metric catalogue names each). Workers keep their own registry
//! and answer `STATS` frames with an encoded [`MetricsSnapshot`], which
//! [`RemoteShardedModel::scrape_worker_stats`] folds in under per-replica
//! source keys: one scrape endpoint serves the cluster. Counters bump at
//! exactly the sites that mutate [`TransportHealth`], so the two planes
//! always agree, and a seeded simulation reproduces both bit for bit.

mod coordinator;
mod wire;
mod worker;

pub use coordinator::{Dialer, HealthReport, RemoteShardedModel, WorkerEvent};
pub use worker::{run_worker_configured, serve_connection, Worker, WorkerReply};

use fineq_core::frame::FrameError;
#[cfg(doc)]
use fineq_core::frame::Link;
use fineq_core::retry::RetryPolicy;
use fineq_core::serialize::DecodeError;
#[cfg(doc)]
use fineq_core::telemetry::{MetricsRegistry, MetricsSnapshot};
use std::time::Duration;

/// Version of the coordinator/worker payload protocol, carried in every
/// `LOADED` ack and checked by the coordinator at connect and rejoin.
/// Version 2 added the u64 request nonce to `GATHER`/`PARTIAL` (echoed
/// verbatim by the worker), which makes nonce-matched abort draining
/// structural rather than heuristic; version 3 made the exchange one
/// `GATHER`/`PARTIAL` pair per *site group* and added the version field
/// itself.
pub const PROTOCOL_VERSION: u16 = 3;

/// Frame kind: ship one FNQS shard envelope to a worker.
pub const KIND_LOAD: u8 = 1;
/// Frame kind: worker acknowledges a loaded slice (payload echoes the
/// site id, then names the worker's [`PROTOCOL_VERSION`]).
pub const KIND_LOADED: u8 = 2;
/// Frame kind: batched gather request for one group of weight sites
/// sharing an input.
pub const KIND_GATHER: u8 = 3;
/// Frame kind: a worker's partial outputs — one section per requested
/// site — for one gather request.
pub const KIND_PARTIAL: u8 = 4;
/// Frame kind: heartbeat request (payload is echoed back).
pub const KIND_PING: u8 = 5;
/// Frame kind: heartbeat reply.
pub const KIND_PONG: u8 = 6;
/// Frame kind: ask the worker process to exit cleanly.
pub const KIND_SHUTDOWN: u8 = 7;
/// Frame kind: request (empty payload) or reply (encoded
/// [`MetricsSnapshot`]) for a worker's local metrics registry.
pub const KIND_STATS: u8 = 8;
/// Frame kind: worker-side rejection of a well-framed but malformed
/// request (payload is a utf-8 message).
pub const KIND_ERROR: u8 = 0xEE;

/// Per-operation deadlines and the retry policy of a coordinator.
///
/// Each field bounds one protocol operation end to end — the bound is
/// absolute (the budget of one [`Link::send`] / [`Link::recv`]), not a
/// per-syscall socket timeout, so slow-drip peers cannot stretch it. A
/// deadline of zero disarms that bound (block forever — useful under a
/// debugger, never in production). The defaults are generous enough
/// that a healthy LAN deployment never trips them, while a hung worker
/// is detected within one gather deadline.
///
/// When workers run with an idle deadline ([`run_worker_configured`] /
/// `fineq-worker <addr> [idle-timeout-ms]`), the operator must call
/// [`RemoteShardedModel::heartbeat`] at a cadence **shorter than that
/// idle deadline** during traffic gaps: each PING resets the worker's
/// idle clock. A coordinator that goes silent longer has its connection
/// dropped worker-side and pays a reconnect (spare failover, or blocking
/// recovery with a single replica) on its next step — recovered and
/// output-invisible, but avoidable latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportConfig {
    /// Deadline for establishing one TCP connection to a replica.
    pub connect_timeout: Duration,
    /// Read/write deadline while shipping LOAD envelopes and awaiting
    /// each LOADED ack (envelopes are large; gathers are not).
    pub load_timeout: Duration,
    /// Read/write deadline for one gather send or one partial reply.
    pub gather_timeout: Duration,
    /// Read/write deadline for one heartbeat probe round trip (PING/PONG,
    /// or STATS once a [`MetricsRegistry`] is installed).
    pub heartbeat_timeout: Duration,
    /// Backoff schedule for reconnecting dead replicas: background
    /// rejoin probes are tick-gated by it, and `max_attempts` bounds the
    /// blocking recovery a single gather may attempt when a whole group
    /// is dead before surfacing [`TransportError::NoLiveReplica`].
    pub retry: RetryPolicy,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            connect_timeout: Duration::from_secs(5),
            load_timeout: Duration::from_secs(60),
            gather_timeout: Duration::from_secs(30),
            heartbeat_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
        }
    }
}

/// Cumulative transport robustness counters of a coordinator, snapshot
/// by [`RemoteShardedModel::transport_health`] and republished through
/// `SchedulerStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportHealth {
    /// Replicas currently connected.
    pub live_replicas: usize,
    /// Replicas currently dead (awaiting rejoin).
    pub dead_replicas: usize,
    /// Times any replica was marked dead.
    pub deaths: u64,
    /// Times a group's primary moved to a spare.
    pub failovers: u64,
    /// Times a dead replica reconnected and was re-shipped its slices.
    pub rejoins: u64,
    /// Reconnect attempts made (successful or not).
    pub retry_attempts: u64,
    /// Deaths caused specifically by an expired deadline.
    pub timeouts: u64,
    /// The gather deadline currently armed on live connections, in
    /// milliseconds (0 = unbounded).
    pub deadline_ms: u64,
}

/// Errors crossing the coordinator/worker transport.
#[derive(Debug)]
pub enum TransportError {
    /// The stream failed or a frame was corrupt.
    Frame(FrameError),
    /// A shard envelope failed to decode.
    Decode(DecodeError),
    /// A peer sent a well-formed frame that violates the protocol
    /// (unexpected kind, malformed payload, or a worker `ERROR` reply).
    Protocol(String),
    /// Every replica of a shard group is dead — the condition serving
    /// cannot mask.
    NoLiveReplica {
        /// The shard whose replica group is exhausted.
        shard: usize,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Frame(e) => write!(f, "frame transport failed: {e}"),
            TransportError::Decode(e) => write!(f, "shard envelope rejected: {e}"),
            TransportError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            TransportError::NoLiveReplica { shard } => {
                write!(f, "shard {shard} has no live replica left")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Frame(e) => Some(e),
            TransportError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

impl From<DecodeError> for TransportError {
    fn from(e: DecodeError) -> Self {
        TransportError::Decode(e)
    }
}

#[cfg(test)]
mod testutil {
    use crate::config::ModelConfig;
    use crate::model::{Transformer, WeightSite};
    use fineq_core::FineQuantizer;
    use fineq_tensor::{Matrix, Rng};

    /// A fully packed two-layer toy model, seeded.
    pub(super) fn packed_tiny(seed: u64) -> Transformer {
        let cfg = ModelConfig::new(16, 8, 2, 2, 16);
        let mut m = Transformer::zeros(cfg.clone());
        let mut rng = Rng::seed_from(seed);
        *m.embedding_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.5));
        *m.head_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.5));
        let q = FineQuantizer::paper();
        for l in 0..m.n_layers() {
            for site in WeightSite::ALL {
                let (r, c) = {
                    let w = m.weight(l, site);
                    (w.rows(), w.cols())
                };
                let dense = Matrix::from_fn(r, c, |_, _| rng.laplace(0.0, 0.05));
                *m.weight_mut(l, site) = q.quantize_packed(&dense).into();
            }
        }
        m
    }
}
