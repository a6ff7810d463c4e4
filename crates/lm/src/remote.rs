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
//! that share one input (Q/K/V) are **pipelined**: the whole group's
//! nonce-tagged requests ride each connection at once, and replies
//! complete out of order into their slots — the workers compute in
//! parallel across shards *and* across sites, while the coordinator
//! waits only on the slowest chain.
//!
//! ## Protocol (version 2)
//!
//! Every message is one frame (`kind`, payload). Integers are u32 LE
//! (the nonce is u64 LE), activations/partials are f32 LE, row-major:
//!
//! ```text
//! LOAD     -> payload = FNQS shard envelope        | reply LOADED(site_id)
//! GATHER   -> nonce u64, site_id, t_len, cols,
//!             t_len*cols f32                       | reply PARTIAL
//! PARTIAL  <- nonce u64 (request's, echoed verbatim), site_id,
//!             row_start, rows, t_len, t_len*rows f32
//! PING     -> echo payload                         | reply PONG(payload)
//! STATS    -> empty payload                        | reply STATS(FQMS snapshot)
//! SHUTDOWN -> worker exits cleanly                 | no reply
//! ERROR    <- utf-8 message (malformed but well-framed request)
//! ```
//!
//! The nonce ([`PROTOCOL_VERSION`] 2) is what makes every `PARTIAL`
//! **self-identifying**: the coordinator assigns a fresh u64 per gather
//! request and the worker echoes it untouched, so a reply can be matched
//! to its request no matter how requests and replies interleave on a
//! connection. That turns two things from heuristics into structure:
//! out-of-order pipelined completion (a reply fills exactly the slot its
//! nonce names), and abort hygiene (a request abandoned mid-operation
//! leaves its nonce on the replica's *abandoned* list — whatever read
//! next touches that connection discards the stale reply by nonce match
//! instead of blindly swallowing one frame and hoping it was the right
//! one).
//!
//! A corrupt frame (checksum/magic/length failure) is not answerable — a
//! length-prefixed stream cannot resynchronize after corruption — so the
//! worker drops that connection and accepts the next one.
//!
//! ## Replicas, failover and replay
//!
//! Each shard is a **replica group**: N worker processes loaded with the
//! identical slice bytes. Requests go to the group's primary; the other
//! replicas idle as hot spares, health-checked by
//! [`RemoteShardedModel::heartbeat`]. When any send or receive fails, the
//! coordinator marks that replica dead (a [`WorkerEvent::WorkerDied`]
//! event), promotes the next live replica
//! ([`WorkerEvent::FailedOver`]), and **replays every in-flight gather
//! request** there — the full pipelined window, not just the one that
//! failed, each under its original nonce so completed slots are never
//! re-filled. Replay is deterministic because workers are
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
//! carries a per-operation deadline from [`TransportConfig`], enforced
//! end to end by [`read_frame_deadline`] / [`write_frame_deadline`] (the
//! budget is absolute, so even a peer trickling one byte per interval
//! cannot stretch a frame past it), so a replica that *hangs* surfaces
//! as [`FrameError::TimedOut`] and takes the identical failover path as
//! one that dies. Dead replicas are not gone for good: a [`RetryPolicy`]
//! (capped exponential backoff with deterministic seeded jitter — no
//! `SystemTime` in any decision) gates background reconnect probes,
//! ticked once per gather or heartbeat. On success the coordinator
//! re-ships the **identical FNQS envelope bytes** it kept from setup and
//! the replica returns to the group as a hot spare
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
//! parallel** on the coordinator's thread pool, so a fleet connects (and
//! a healed partition re-ships) in one slowest-replica round instead of
//! the sum. Reconnect probes, recovery backoff sleeps, heartbeat probes
//! and STATS scrapes all run with **no state lock held**: a
//! dead-but-slow replica never blocks
//! [`RemoteShardedModel::transport_health`] or
//! [`RemoteShardedModel::take_events`] readers.
//! [`RemoteShardedModel::transport_health`] exposes the counters
//! (deaths, failovers, rejoins, retries, timeouts) that `SchedulerStats`
//! republishes.
//!
//! ## Telemetry
//!
//! Installing a [`MetricsRegistry`] (via
//! [`RemoteShardedModel::set_telemetry`], or transitively through
//! `Scheduler::set_telemetry`) mirrors every robustness counter into the
//! metrics plane (`fineq_transport_*_total`), tracks live replicas as a
//! gauge, and records a per-site-kind gather-latency histogram
//! (`fineq_gather_us_attn_q` … `fineq_gather_us_ffn_down`) around each
//! distributed linear site. Workers keep their own registry —
//! [`Worker::handle`] counts loads/gathers/pings and times each gather
//! kernel — and answer `STATS` frames with an encoded
//! [`MetricsSnapshot`], which
//! [`RemoteShardedModel::scrape_worker_stats`] folds into the
//! coordinator's registry under per-replica source keys so one scrape
//! endpoint serves the whole cluster view. The counters are bumped at
//! exactly the sites that mutate the existing [`TransportHealth`]
//! numbers, so the two planes always agree — and seeded chaos runs
//! reproduce the metrics bit-for-bit along with the output.

use crate::config::ModelConfig;
use crate::generate::{batched_step_body, BatchKvCache};
use crate::model::{Transformer, WeightSite};
use crate::serving::{ServeModel, StepError};
use crate::shard::{site_id, ShardPlan};
use fineq_core::frame::{
    read_frame, read_frame_deadline, write_frame, write_frame_deadline, FrameError, Listener,
    Stream,
};
use fineq_core::pool::default_threads;
use fineq_core::retry::RetryPolicy;
use fineq_core::serialize::{shard_from_bytes, DecodeError};
use fineq_core::telemetry::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use fineq_core::{matmul_t_sharded_into, KernelScratch, PackedMatrix, ThreadPool};
use fineq_tensor::Matrix;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Version of the coordinator/worker payload protocol. Version 2 added
/// the u64 request nonce to `GATHER`/`PARTIAL` (echoed verbatim by the
/// worker), which is what makes pipelined out-of-order completion and
/// nonce-matched abort draining structural rather than heuristic.
pub const PROTOCOL_VERSION: u16 = 2;

/// Frame kind: ship one FNQS shard envelope to a worker.
pub const KIND_LOAD: u8 = 1;
/// Frame kind: worker acknowledges a loaded slice (payload echoes the
/// site id).
pub const KIND_LOADED: u8 = 2;
/// Frame kind: batched gather request for one weight site.
pub const KIND_GATHER: u8 = 3;
/// Frame kind: a worker's partial output for one gather request.
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
/// absolute ([`read_frame_deadline`] / [`write_frame_deadline`]), not a
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

fn get_u32(payload: &[u8], off: usize) -> Result<u32, TransportError> {
    payload
        .get(off..off + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .ok_or_else(|| TransportError::Protocol(format!("payload truncated at offset {off}")))
}

fn get_u64(payload: &[u8], off: usize) -> Result<u64, TransportError> {
    payload
        .get(off..off + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .ok_or_else(|| TransportError::Protocol(format!("payload truncated at offset {off}")))
}

fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// `n` f32s at `off`. `n` comes from peer-controlled header fields, so the
/// byte range is computed with checked arithmetic and sliced out of the
/// bytes actually present before anything is allocated.
fn get_f32s(payload: &[u8], off: usize, n: usize) -> Result<Vec<f32>, TransportError> {
    let end = n.checked_mul(4).and_then(|len| off.checked_add(len));
    let bytes = end.and_then(|end| payload.get(off..end)).ok_or_else(|| {
        TransportError::Protocol(format!("payload carries fewer than {n} f32 values"))
    })?;
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))).collect())
}

/// One gather request's wire payload (protocol v2): request nonce, site
/// id, activation shape, then the activations row-major f32 LE. f32
/// round-trips `to_le_bytes` exactly, so the broadcast is bit-faithful,
/// and the bytes are nonce-complete — a failover replays this exact
/// buffer, so the replayed reply carries the original nonce.
fn encode_gather(nonce: u64, sid: u32, a: &Matrix) -> Vec<u8> {
    let mut payload = Vec::with_capacity(20 + a.as_slice().len() * 4);
    payload.extend_from_slice(&nonce.to_le_bytes());
    payload.extend_from_slice(&sid.to_le_bytes());
    payload.extend_from_slice(&(a.rows() as u32).to_le_bytes());
    payload.extend_from_slice(&(a.cols() as u32).to_le_bytes());
    put_f32s(&mut payload, a.as_slice());
    payload
}

/// One loaded weight-site slice on a worker.
struct SiteSlice {
    row_start: usize,
    /// Single-entry gather list at offset 0 — the form
    /// [`matmul_t_sharded_into`] consumes without a per-request clone.
    gather: Vec<(usize, PackedMatrix)>,
}

/// What a worker does with one handled frame.
pub enum WorkerReply {
    /// Send this frame back on the connection.
    Frame(u8, Vec<u8>),
    /// The coordinator asked the worker process to exit.
    Shutdown,
}

/// A worker's local metrics handles: registered once at construction so
/// the per-frame hot path touches only pre-resolved atomics.
struct WorkerMetrics {
    registry: Arc<MetricsRegistry>,
    loads: Arc<Counter>,
    gathers: Arc<Counter>,
    pings: Arc<Counter>,
    gather_us: Arc<Histogram>,
    packed_bytes: Arc<Counter>,
}

impl WorkerMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        WorkerMetrics {
            loads: registry.counter("fineq_worker_loads_total"),
            gathers: registry.counter("fineq_worker_gathers_total"),
            pings: registry.counter("fineq_worker_pings_total"),
            gather_us: registry.histogram("fineq_worker_gather_us"),
            packed_bytes: registry.counter("fineq_worker_packed_bytes_streamed_total"),
            registry,
        }
    }
}

/// Worker-side protocol state: the loaded slices plus reused kernel
/// scratch. [`Worker::handle`] is the pure request → reply step, exposed
/// so tests and examples can drive a worker in-process (including
/// injecting failures between frames); [`run_worker_configured`] is the
/// process entry that wires it to a socket. Each worker owns a local
/// [`MetricsRegistry`] (request counts, gather-kernel latency, packed
/// bytes streamed) that a coordinator scrapes with a [`KIND_STATS`]
/// frame — or an operator scrapes directly via the binary's
/// `--metrics <addr>` endpoint.
pub struct Worker {
    sites: HashMap<u32, SiteSlice>,
    scratch: KernelScratch,
    metrics: WorkerMetrics,
}

impl Default for Worker {
    fn default() -> Self {
        Self::new()
    }
}

impl Worker {
    /// An empty worker (no slices loaded) with a fresh enabled registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// An empty worker recording into `registry` — the form
    /// [`run_worker_configured`] uses so a metrics endpoint can render
    /// the same registry the serving loop writes to.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            sites: HashMap::new(),
            scratch: KernelScratch::new(),
            metrics: WorkerMetrics::new(registry),
        }
    }

    /// The worker's local metrics registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics.registry
    }

    /// Number of weight-site slices loaded so far.
    pub fn loaded_sites(&self) -> usize {
        self.sites.len()
    }

    /// Handles one well-framed request.
    ///
    /// Transport-intact but malformed requests (unknown site, shape
    /// mismatch, undecodable envelope, unknown kind) produce an
    /// [`KIND_ERROR`] reply and keep the connection serving; only I/O
    /// belongs to the caller.
    ///
    /// # Errors
    ///
    /// Never errs today; the `Result` reserves the signature for
    /// worker-side failures that cannot be answered in-band.
    pub fn handle(&mut self, kind: u8, payload: &[u8]) -> Result<WorkerReply, TransportError> {
        match kind {
            KIND_LOAD => Ok(self.load(payload)),
            KIND_GATHER => Ok(self.gather(payload)),
            KIND_PING => {
                self.metrics.pings.inc();
                Ok(WorkerReply::Frame(KIND_PONG, payload.to_vec()))
            }
            KIND_STATS => Ok(WorkerReply::Frame(
                KIND_STATS,
                self.metrics.registry.cluster_snapshot().encode(),
            )),
            KIND_SHUTDOWN => Ok(WorkerReply::Shutdown),
            other => Ok(error_reply(format!("unknown frame kind {other:#04x}"))),
        }
    }

    fn load(&mut self, payload: &[u8]) -> WorkerReply {
        // The envelope's own checksum and range validation run here — a
        // slice that was corrupted in transit or misframed never loads.
        let (header, slice) = match shard_from_bytes(payload) {
            Ok(decoded) => decoded,
            Err(e) => return error_reply(format!("shard envelope rejected: {e}")),
        };
        let sid = header.site_id;
        self.sites.insert(
            sid,
            SiteSlice { row_start: header.row_start as usize, gather: vec![(0, slice)] },
        );
        self.metrics.loads.inc();
        WorkerReply::Frame(KIND_LOADED, sid.to_le_bytes().to_vec())
    }

    fn gather(&mut self, payload: &[u8]) -> WorkerReply {
        let parsed = (|| {
            // Protocol v2 layout: the request nonce leads the payload and
            // is echoed verbatim in the reply — the worker never
            // interprets it.
            let nonce = get_u64(payload, 0)?;
            let sid = get_u32(payload, 8)?;
            let t_len = get_u32(payload, 12)? as usize;
            let cols = get_u32(payload, 16)? as usize;
            if t_len == 0 || cols == 0 {
                return Err(TransportError::Protocol("empty gather batch".into()));
            }
            let n = t_len.checked_mul(cols).ok_or_else(|| {
                TransportError::Protocol(format!("gather shape {t_len}x{cols} overflows"))
            })?;
            let data = get_f32s(payload, 20, n)?;
            Ok((nonce, sid, Matrix::from_vec(t_len, cols, data)))
        })();
        let (nonce, sid, a) = match parsed {
            Ok(p) => p,
            Err(e) => return error_reply(format!("malformed gather (protocol v2): {e}")),
        };
        let Some(site) = self.sites.get(&sid) else {
            return error_reply(format!("gather for unloaded site {sid}"));
        };
        let slice = &site.gather[0].1;
        if slice.cols() != a.cols() {
            return error_reply(format!(
                "gather activations have {} columns, site {sid} expects {}",
                a.cols(),
                slice.cols()
            ));
        }
        // The partial product this shard owes the step: `a @ sliceᵀ`,
        // per-channel arithmetic identical to the in-process gather (and
        // therefore to the unsharded engine) at any execution shape.
        let rows = slice.rows();
        let packed_bytes = slice.storage_bytes() as u64;
        let mut out = Matrix::zeros(a.rows(), rows);
        let started = self.metrics.registry.enabled().then(|| self.metrics.registry.now_micros());
        matmul_t_sharded_into(&site.gather, &a, &mut out, &mut self.scratch, None);
        if let Some(t0) = started {
            self.metrics.gather_us.record(self.metrics.registry.now_micros().saturating_sub(t0));
            self.metrics.gathers.inc();
            self.metrics.packed_bytes.add(packed_bytes);
        }
        let mut reply = Vec::with_capacity(24 + out.as_slice().len() * 4);
        reply.extend_from_slice(&nonce.to_le_bytes());
        reply.extend_from_slice(&sid.to_le_bytes());
        reply.extend_from_slice(&(site.row_start as u32).to_le_bytes());
        reply.extend_from_slice(&(rows as u32).to_le_bytes());
        reply.extend_from_slice(&(a.rows() as u32).to_le_bytes());
        put_f32s(&mut reply, out.as_slice());
        WorkerReply::Frame(KIND_PARTIAL, reply)
    }
}

fn error_reply(msg: String) -> WorkerReply {
    WorkerReply::Frame(KIND_ERROR, msg.into_bytes())
}

/// Serves one coordinator connection until it closes, the stream
/// corrupts, or a `SHUTDOWN` frame arrives. Returns `true` when the
/// worker process should exit.
///
/// # Errors
///
/// Returns the frame error that broke the stream; a clean close is
/// `Ok(false)`.
pub fn serve_connection(conn: &mut Stream, worker: &mut Worker) -> Result<bool, TransportError> {
    loop {
        match read_frame(conn) {
            Ok((kind, payload)) => match worker.handle(kind, &payload)? {
                WorkerReply::Frame(k, p) => write_frame(conn, k, &p)?,
                WorkerReply::Shutdown => return Ok(true),
            },
            Err(FrameError::Closed) => return Ok(false),
            // Corruption mid-stream: a length-prefixed protocol cannot
            // resynchronize, so the only safe answer is dropping the
            // connection (typed, loud — never a silently wrong reply).
            Err(e) => return Err(e.into()),
        }
    }
}

/// The `fineq-worker` process body: binds `addr` (`tcp:host:port` or
/// `unix:/path`), announces the bound address on stdout, and serves
/// coordinator connections one at a time until a `SHUTDOWN` frame.
/// Loaded slices survive a dropped connection, so a coordinator may
/// reconnect without re-shipping weights. On a clean SHUTDOWN exit a
/// Unix socket file is removed rather than left for the next bind.
///
/// With `idle_timeout` set, a connection that sends nothing for that long
/// is dropped and the worker returns to `accept`. Because a worker serves
/// one connection at a time, this is what lets a *rejoining* coordinator
/// get through when the previous coordinator vanished without closing its
/// socket — without it, one hung peer wedges the worker forever. The
/// worker cannot distinguish a vanished coordinator from a merely idle
/// one — only traffic can. A coordinator that may go quiet must therefore
/// call [`RemoteShardedModel::heartbeat`] at a cadence shorter than
/// `idle_timeout` (each probe resets the idle clock); one that does not
/// pays a reconnect-and-replay on its next step after a long gap. This
/// coupling is asserted by the
/// `heartbeats_within_the_worker_idle_window_keep_connections_alive`
/// test and documented on [`TransportConfig`].
///
/// When `metrics_addr` is `Some("host:port")`, the worker's registry is
/// served as Prometheus-style text from that address for the life of
/// the process (the `fineq-worker --metrics <addr>` flag). The endpoint
/// renders the same registry [`Worker::handle`] writes to, so an
/// operator scrape and a coordinator `STATS` scrape always agree.
///
/// # Errors
///
/// Returns bind/accept failures; per-connection stream errors are logged
/// to stderr and the worker accepts the next connection. A metrics
/// endpoint that fails to bind is also a hard error — an operator who
/// asked for observability should not silently lose it.
pub fn run_worker_configured(
    addr: &str,
    idle_timeout: Option<Duration>,
    metrics_addr: Option<&str>,
) -> Result<(), TransportError> {
    let listener = Listener::bind(addr).map_err(|e| TransportError::Frame(FrameError::Io(e)))?;
    let bound = listener.local_addr().unwrap_or_else(|_| addr.to_string());
    // The parent process parses this line to learn an OS-assigned port.
    println!("fineq-worker listening on {bound}");
    let _ = std::io::stdout().flush();
    let mut worker = Worker::new();
    let _metrics_server = match metrics_addr {
        Some(maddr) => {
            let registry = Arc::clone(worker.registry());
            let server =
                fineq_core::telemetry::MetricsServer::serve(maddr, move || registry.render_text())
                    .map_err(|e| TransportError::Frame(FrameError::Io(e)))?;
            println!("fineq-worker metrics on {}", server.addr());
            let _ = std::io::stdout().flush();
            Some(server)
        }
        None => None,
    };
    loop {
        let mut conn = listener.accept().map_err(|e| TransportError::Frame(FrameError::Io(e)))?;
        if let Some(t) = idle_timeout {
            let _ = conn.set_read_timeout(Some(t));
            let _ = conn.set_write_timeout(Some(t));
        }
        match serve_connection(&mut conn, &mut worker) {
            Ok(true) => {
                // Clean exit: do not leave a stale socket file behind.
                if let Some(path) = bound.strip_prefix("unix:") {
                    let _ = std::fs::remove_file(path);
                }
                return Ok(());
            }
            Ok(false) => {}
            Err(e) => eprintln!("fineq-worker: dropping connection: {e}"),
        }
    }
}

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
    /// `None` once the replica is marked dead — or while the connection
    /// is checked out (`borrowed`) for unlocked I/O.
    conn: Option<Stream>,
    /// The connection is temporarily out of the table for lock-free
    /// frame I/O (a pipelined gather, heartbeat probe or STATS scrape).
    /// A borrowed replica is live: health counting and probe planning
    /// treat it as connected, and only the borrower may kill it.
    borrowed: bool,
    /// Failed reconnect attempts since the replica died.
    attempts: u32,
    /// Earliest tick at which the next background rejoin probe may run.
    next_attempt_tick: u64,
    /// Tick of the last successful frame exchange on this connection.
    /// Heartbeats skip replicas with traffic since the previous
    /// heartbeat — serving gathers double as keep-alives.
    last_ok_tick: u64,
    /// Nonces of `GATHER` requests sent on this connection whose replies
    /// were abandoned (the operation aborted before reading them). The
    /// worker still owes each one a `PARTIAL`; whatever read next
    /// touches the connection discards those replies by nonce match.
    /// Cleared on death — a dead connection's owed replies die with it.
    abandoned: HashSet<u64>,
}

impl Replica {
    /// Live = reachable: either the connection is in the table or a
    /// borrower is currently doing I/O on it.
    fn is_live(&self) -> bool {
        self.conn.is_some() || self.borrowed
    }
}

struct Group {
    replicas: Vec<Replica>,
    primary: usize,
    /// The shard's FNQS slice envelopes, byte-identical to what setup
    /// shipped — re-shipped verbatim on rejoin so a returning replica is
    /// indistinguishable from one that never left. Behind an `Arc` so
    /// reconnect probes can ship them *without* holding the state lock.
    envelopes: Arc<Vec<Vec<u8>>>,
}

/// One planned reconnect attempt for a dead replica, carried out of the
/// state lock: the connect + envelope re-ship runs unlocked, then
/// [`RemoteState::install_probe`] applies the outcome.
struct RejoinProbe {
    shard: usize,
    replica: usize,
    addr: String,
    envelopes: Arc<Vec<Vec<u8>>>,
}

/// Coordinator-side metrics handles, mirroring every [`TransportHealth`]
/// counter into an installed [`MetricsRegistry`]. Defaults to a disabled
/// registry, so un-instrumented deployments pay one relaxed atomic load
/// per bump. Handles are `Arc`s: cloning out of the state lock is cheap,
/// which is how the gather path records latency without holding it.
#[derive(Clone)]
struct TransportMetrics {
    registry: Arc<MetricsRegistry>,
    deaths: Arc<Counter>,
    failovers: Arc<Counter>,
    rejoins: Arc<Counter>,
    retry_attempts: Arc<Counter>,
    timeouts: Arc<Counter>,
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
            live_replicas: registry.gauge("fineq_live_replicas"),
            gather_us,
            registry,
        }
    }
}

struct RemoteState {
    groups: Vec<Group>,
    events: Vec<WorkerEvent>,
    /// Retry clock: one tick per gather or heartbeat — rejoin pacing
    /// without a wall clock.
    tick: u64,
    /// Coordinator-assigned request nonce source: one fresh u64 per
    /// gather request, never reused for the life of the deployment.
    next_nonce: u64,
    /// Tick at which the previous heartbeat ran — replicas whose
    /// `last_ok_tick` is later had traffic since and are skipped.
    last_heartbeat_tick: u64,
    deaths: u64,
    failovers: u64,
    rejoins: u64,
    retry_attempts: u64,
    timeouts: u64,
    /// Mirrors the counters above into the metrics plane; bumped at the
    /// same sites so the two views can never drift.
    metrics: TransportMetrics,
}

/// Connects to one replica and ships it the shard's envelopes: the whole
/// setup (and rejoin) handshake, each frame bounded end to end by the
/// load deadline.
fn connect_replica(
    addr: &str,
    envelopes: &[Vec<u8>],
    tc: &TransportConfig,
) -> Result<Stream, TransportError> {
    let mut conn = if tc.connect_timeout.is_zero() {
        Stream::connect(addr).map_err(FrameError::from)?
    } else {
        Stream::connect_timeout(addr, tc.connect_timeout).map_err(FrameError::from)?
    };
    for envelope in envelopes {
        write_frame_deadline(&mut conn, KIND_LOAD, envelope, tc.load_timeout)?;
        let (kind, payload) = read_frame_deadline(&mut conn, tc.load_timeout)?;
        // site_id sits after the envelope's magic, version, shard_index
        // and n_shards fields.
        let expect = get_u32(envelope, 10)?;
        match kind {
            KIND_LOADED if get_u32(&payload, 0)? == expect => {}
            KIND_ERROR => {
                return Err(TransportError::Protocol(format!(
                    "worker {addr} rejected slice: {}",
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

impl RemoteState {
    fn mark_dead(&mut self, shard: usize, replica: usize, error: &TransportError) {
        let r = &mut self.groups[shard].replicas[replica];
        let had_conn = match r.conn.take() {
            Some(conn) => {
                let _ = conn.shutdown();
                true
            }
            // A borrower shuts its checked-out stream down itself before
            // reporting the death; the table just records it.
            None => std::mem::take(&mut r.borrowed),
        };
        if had_conn {
            r.borrowed = false;
            r.attempts = 0;
            r.next_attempt_tick = 0;
            // A dead connection owes nothing: its buffered replies died
            // with the stream, so the abandoned nonces are moot.
            r.abandoned.clear();
            self.deaths += 1;
            self.metrics.deaths.inc();
            self.metrics.live_replicas.add(-1);
            if matches!(error, TransportError::Frame(FrameError::TimedOut)) {
                self.timeouts += 1;
                self.metrics.timeouts.inc();
            }
            self.events.push(WorkerEvent::WorkerDied {
                shard,
                replica,
                addr: r.addr.clone(),
                error: error.to_string(),
            });
        }
    }

    /// Takes `shard`'s primary connection out of the table for unlocked
    /// frame I/O. The replica stays accounted live (`borrowed`); the op
    /// lock plus the one-checkout-per-shard-per-operation discipline
    /// guarantee the elected primary's connection is present.
    fn checkout_primary(&mut self, shard: usize) -> Result<(usize, Stream), TransportError> {
        let replica = self.elect_primary(shard)?;
        let r = &mut self.groups[shard].replicas[replica];
        let conn = r.conn.take().expect("elected primary carries a connection");
        r.borrowed = true;
        Ok((replica, conn))
    }

    /// Returns a borrowed connection to the table after successful I/O,
    /// stamping the traffic tick heartbeats key their piggyback skip on.
    fn checkin(&mut self, shard: usize, replica: usize, conn: Stream) {
        let tick = self.tick;
        let r = &mut self.groups[shard].replicas[replica];
        debug_assert!(r.borrowed, "checkin without checkout");
        r.borrowed = false;
        r.conn = Some(conn);
        r.last_ok_tick = tick;
    }

    /// The replica the next request for `shard` should use: the current
    /// primary when live, else the first live spare — promoting it (and
    /// recording the failover) so later requests go there directly.
    fn elect_primary(&mut self, shard: usize) -> Result<usize, TransportError> {
        let group = &mut self.groups[shard];
        if group.replicas[group.primary].conn.is_some() {
            return Ok(group.primary);
        }
        let Some(next) = group.replicas.iter().position(|r| r.conn.is_some()) else {
            return Err(TransportError::NoLiveReplica { shard });
        };
        self.failovers += 1;
        self.metrics.failovers.inc();
        self.events.push(WorkerEvent::FailedOver {
            shard,
            from_replica: group.primary,
            to_replica: next,
        });
        group.primary = next;
        Ok(next)
    }

    /// Advances the retry clock and collects the dead replicas whose
    /// tick-gated backoff is due. Pacing is pure tick arithmetic (no
    /// wall clock), so a seeded run replays exactly. The connects
    /// themselves run *without* the state lock
    /// ([`RemoteShardedModel::run_probes`]); [`RemoteState::install_probe`]
    /// applies the outcomes.
    fn plan_due_probes(&mut self) -> Vec<RejoinProbe> {
        self.tick += 1;
        let mut probes = Vec::new();
        for (shard, group) in self.groups.iter().enumerate() {
            for (replica, r) in group.replicas.iter().enumerate() {
                if !r.is_live() && self.tick >= r.next_attempt_tick {
                    probes.push(RejoinProbe {
                        shard,
                        replica,
                        addr: r.addr.clone(),
                        envelopes: Arc::clone(&group.envelopes),
                    });
                }
            }
        }
        self.retry_attempts += probes.len() as u64;
        self.metrics.retry_attempts.add(probes.len() as u64);
        probes
    }

    /// Every dead replica of one exhausted group, backoff gating
    /// ignored: blocking recovery probes them all each round.
    fn plan_group_probes(&mut self, shard: usize) -> Vec<RejoinProbe> {
        self.tick += 1;
        let group = &self.groups[shard];
        let probes: Vec<RejoinProbe> = group
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_live())
            .map(|(replica, r)| RejoinProbe {
                shard,
                replica,
                addr: r.addr.clone(),
                envelopes: Arc::clone(&group.envelopes),
            })
            .collect();
        self.retry_attempts += probes.len() as u64;
        self.metrics.retry_attempts.add(probes.len() as u64);
        probes
    }

    /// Applies one probe outcome: success re-admits the replica as a
    /// spare ([`WorkerEvent::Rejoined`]); failure advances its backoff
    /// schedule. Returns whether the replica is live afterwards.
    fn install_probe(
        &mut self,
        probe: RejoinProbe,
        outcome: Result<Stream, TransportError>,
        retry: &RetryPolicy,
    ) -> bool {
        let tick = self.tick;
        let r = &mut self.groups[probe.shard].replicas[probe.replica];
        if r.is_live() {
            // Revived by someone else while the probe was in flight (the
            // op lock makes this unreachable today; kept as a guard so a
            // duplicate connection is dropped, never double-installed).
            return true;
        }
        match outcome {
            Ok(conn) => {
                r.conn = Some(conn);
                r.attempts = 0;
                r.next_attempt_tick = 0;
                // The LOAD handshake just proved liveness: fresh traffic
                // for the heartbeat piggyback clock.
                r.last_ok_tick = tick;
                self.rejoins += 1;
                self.metrics.rejoins.inc();
                self.metrics.live_replicas.add(1);
                self.events.push(WorkerEvent::Rejoined {
                    shard: probe.shard,
                    replica: probe.replica,
                    addr: probe.addr,
                });
                true
            }
            Err(_) => {
                r.attempts = r.attempts.saturating_add(1);
                let salt = ((probe.shard as u64) << 32) | probe.replica as u64;
                r.next_attempt_tick = tick + retry.backoff_ticks(r.attempts, salt);
                false
            }
        }
    }

    fn health(&self, gather_timeout: Duration) -> TransportHealth {
        let live_replicas = self
            .groups
            .iter()
            .map(|g| g.replicas.iter().filter(|r| r.is_live()).count())
            .sum::<usize>();
        let total = self.groups.iter().map(|g| g.replicas.len()).sum::<usize>();
        TransportHealth {
            live_replicas,
            dead_replicas: total - live_replicas,
            deaths: self.deaths,
            failovers: self.failovers,
            rejoins: self.rejoins,
            retry_attempts: self.retry_attempts,
            timeouts: self.timeouts,
            deadline_ms: gather_timeout.as_millis().min(u128::from(u64::MAX)) as u64,
        }
    }
}

/// Decodes one already-read `PARTIAL` payload (protocol v2: the nonce
/// occupies bytes 0..8 and was matched by the caller) into `out`'s
/// columns `range`, validating the header against the request it
/// answers. A mismatch is a protocol violation: the nonce said this
/// reply is ours, so the worker is confused and the connection dies.
fn decode_partial(
    payload: &[u8],
    sid: u32,
    range: (usize, usize),
    out: &mut Matrix,
) -> Result<(), TransportError> {
    let (start, end) = range;
    let got_sid = get_u32(payload, 8)?;
    let row_start = get_u32(payload, 12)? as usize;
    let rows = get_u32(payload, 16)? as usize;
    let t_len = get_u32(payload, 20)? as usize;
    if got_sid != sid || row_start != start || rows != end - start || t_len != out.rows() {
        return Err(TransportError::Protocol(format!(
            "misrouted partial: site {got_sid} rows {row_start}..{} x{t_len}, \
             expected site {sid} rows {start}..{end} x{}",
            row_start + rows,
            out.rows()
        )));
    }
    let data = get_f32s(payload, 24, t_len * rows)?;
    for t in 0..t_len {
        out.row_mut(t)[start..end].copy_from_slice(&data[t * rows..(t + 1) * rows]);
    }
    Ok(())
}

/// One site's request within a pipelined gather group: the encoded
/// (nonce-complete) wire bytes, the output it fills, and the shards it
/// involves.
struct SiteReq {
    sid: u32,
    nonce: u64,
    req: Vec<u8>,
    out: Matrix,
    involved: Vec<(usize, (usize, usize))>,
}

/// One pipelined request's place in a shard link's in-flight window.
/// `sent` is per-*connection*: a failover resets it for unreceived
/// entries so the whole window replays on the replacement replica.
struct PendingReply {
    /// Index into the group's [`SiteReq`] list.
    site: usize,
    sent: bool,
    received: bool,
}

/// A shard's checked-out primary connection plus the ordered in-flight
/// window riding it. Requests are written in window order; replies may
/// complete out of order — the nonce says which entry each one fills.
struct ShardLink {
    replica: usize,
    conn: Stream,
    pending: Vec<PendingReply>,
}

/// What [`RemoteShardedModel::match_partial`] decided about one
/// `PARTIAL` frame.
enum MatchOutcome {
    /// The reply filled a pending slot of this operation.
    Filled,
    /// A stale reply from an aborted earlier operation, identified and
    /// discarded by its abandoned nonce; read again.
    Stale,
}

/// One heartbeat/STATS probe's checked-out connection, carried through
/// the plan → unlocked I/O → install sequence.
struct ControlProbe {
    shard: usize,
    replica: usize,
    conn: Stream,
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
/// Two locks, two jobs. `op` serializes whole *logical operations*
/// (site gather, heartbeat, shutdown): connections carry one in-flight
/// request, so two operations must never interleave frame I/O on the
/// same fleet. `state` protects the connection table itself and is the
/// only lock `transport_health`/`take_events` need — it is **released**
/// during reconnect probes and backoff sleeps, so observability calls
/// never stall behind a dead-but-slow replica. Lock order: `op` before
/// `state`, always.
pub struct RemoteShardedModel {
    cfg: ModelConfig,
    embedding: Matrix,
    head: Matrix,
    plan: ShardPlan,
    transport: TransportConfig,
    /// Ships LOAD envelopes to replicas in parallel at connect and
    /// rejoin (sized to the fleet, capped by the host's cores). Never
    /// used on the gather hot path.
    pool: Arc<ThreadPool>,
    op: Mutex<()>,
    state: Mutex<RemoteState>,
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
        Self::connect_with(model, replica_addrs, TransportConfig::default())
    }

    /// [`RemoteShardedModel::connect`] with explicit deadlines and retry
    /// policy.
    ///
    /// # Errors
    ///
    /// # Panics
    ///
    /// As [`RemoteShardedModel::connect`].
    pub fn connect_with(
        model: &Transformer,
        replica_addrs: &[Vec<String>],
        transport: TransportConfig,
    ) -> Result<Self, TransportError> {
        let n_shards = replica_addrs.len();
        let plan = ShardPlan::new(model, n_shards);
        let mut shard_envelopes = Vec::with_capacity(n_shards);
        for (shard, addrs) in replica_addrs.iter().enumerate() {
            assert!(!addrs.is_empty(), "shard {shard} needs at least one replica address");
            // Slice once per shard; every replica receives the identical
            // envelope bytes (what makes replay — and rejoin — bit-
            // identical). Kept for the life of the deployment.
            shard_envelopes.push(Arc::new(plan.envelopes(model, shard)));
        }
        // Connect + LOAD every replica of every shard in parallel: the
        // fleet is up after one slowest-replica handshake instead of the
        // sum of all of them. The pool is kept for rejoin re-ships.
        let jobs: Vec<(usize, String)> = replica_addrs
            .iter()
            .enumerate()
            .flat_map(|(shard, addrs)| addrs.iter().map(move |a| (shard, a.clone())))
            .collect();
        let pool = Arc::new(ThreadPool::new(default_threads().min(jobs.len()).max(1)));
        let slots: Vec<Mutex<Option<Result<Stream, TransportError>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        pool.run(jobs.len(), 1, &|_, start, end| {
            for i in start..end {
                let (shard, addr) = &jobs[i];
                let outcome = connect_replica(addr, &shard_envelopes[*shard], &transport);
                *slots[i].lock().expect("connect slot") = Some(outcome);
            }
        });
        // Assemble in deterministic (shard, replica) order; the first
        // failure in that order is the reported one.
        let mut outcomes = slots
            .into_iter()
            .map(|s| s.into_inner().expect("connect slot").expect("connect job ran"));
        let mut groups = Vec::with_capacity(n_shards);
        for (shard, addrs) in replica_addrs.iter().enumerate() {
            let mut replicas = Vec::with_capacity(addrs.len());
            for addr in addrs {
                let conn = outcomes.next().expect("one outcome per job")?;
                replicas.push(Replica {
                    addr: addr.clone(),
                    conn: Some(conn),
                    borrowed: false,
                    attempts: 0,
                    next_attempt_tick: 0,
                    last_ok_tick: 0,
                    abandoned: HashSet::new(),
                });
            }
            groups.push(Group {
                replicas,
                primary: 0,
                envelopes: Arc::clone(&shard_envelopes[shard]),
            });
        }
        Ok(Self {
            cfg: model.config().clone(),
            embedding: model.embedding().clone(),
            head: model.head().clone(),
            plan,
            transport,
            pool,
            op: Mutex::new(()),
            state: Mutex::new(RemoteState {
                groups,
                events: Vec::new(),
                tick: 0,
                next_nonce: 1,
                last_heartbeat_tick: 0,
                deaths: 0,
                failovers: 0,
                rejoins: 0,
                retry_attempts: 0,
                timeouts: 0,
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

    /// Probes live replicas under the heartbeat deadline, marking
    /// non-responders (including *hung* ones) dead and re-pointing each
    /// group's primary at a live spare, so the next step pays no
    /// failover latency. Also probes dead replicas whose backoff is due
    /// — heartbeats drive rejoin even when no traffic flows. Returns the
    /// liveness snapshot.
    ///
    /// Two round-trip economies ride along. **Piggyback skip:** a
    /// replica with successful traffic since the previous heartbeat
    /// (gathers are keep-alives too) already proved liveness, so it is
    /// not probed — during steady serving only idle spares pay a
    /// round-trip. **STATS-as-heartbeat:** with telemetry installed the
    /// probe is a `STATS` exchange whose reply refreshes that worker's
    /// metrics snapshot — liveness and cluster scraping share one
    /// round-trip; without it heartbeats stay PING/PONG. Probe I/O runs
    /// with the connections checked out and **no state lock held**, so
    /// observability readers never stall behind a slow replica.
    ///
    /// Heartbeats double as keep-alives: a cadence shorter than **half**
    /// the workers' idle deadline stops idle workers from hanging up
    /// between requests (the coupling [`run_worker_configured`]
    /// documents — half, because the piggyback skip may leave a
    /// just-active replica unprobed for one extra heartbeat interval).
    pub fn heartbeat(&self) -> HealthReport {
        let _op = self.op.lock().expect("transport op");
        self.maybe_rejoin();
        let (floor, scrape) = {
            let mut st = self.lock_state();
            let floor = st.last_heartbeat_tick;
            st.last_heartbeat_tick = st.tick;
            (floor, st.metrics.registry.enabled())
        };
        // Replicas active since the previous heartbeat sit this one out:
        // their traffic already proved liveness.
        self.control_round(|r| r.last_ok_tick <= floor, scrape);
        let mut st = self.lock_state();
        for shard in 0..st.groups.len() {
            let _ = st.elect_primary(shard);
        }
        let live_per_shard = st
            .groups
            .iter()
            .map(|g| g.replicas.iter().filter(|r| r.is_live()).count())
            .collect::<Vec<_>>();
        let dead = st.groups.iter().map(|g| g.replicas.len()).sum::<usize>()
            - live_per_shard.iter().sum::<usize>();
        let primary_per_shard = st.groups.iter().map(|g| g.primary).collect();
        HealthReport { live_per_shard, dead, primary_per_shard }
    }

    /// The transport robustness counters: deaths, failovers, rejoins,
    /// retry attempts, deadline expiries, and current live/dead replica
    /// counts. Cumulative since connect; cheap to call.
    pub fn transport_health(&self) -> TransportHealth {
        self.state.lock().expect("remote state").health(self.transport.gather_timeout)
    }

    /// The deadlines and retry policy this coordinator runs under.
    pub fn transport_config(&self) -> &TransportConfig {
        &self.transport
    }

    /// Installs a [`MetricsRegistry`]: every future death, failover,
    /// rejoin, retry attempt and timeout is mirrored into
    /// `fineq_transport_*_total` counters, the `fineq_live_replicas`
    /// gauge tracks connectivity from the current live count, and each
    /// site gather records its latency into a per-site-kind histogram.
    /// Counters in the registry start at zero — the pre-install history
    /// stays visible through [`RemoteShardedModel::transport_health`].
    pub fn set_telemetry(&self, registry: Arc<MetricsRegistry>) {
        let mut st = self.lock_state();
        let live = st
            .groups
            .iter()
            .map(|g| g.replicas.iter().filter(|r| r.is_live()).count())
            .sum::<usize>();
        st.metrics = TransportMetrics::new(registry);
        st.metrics.live_replicas.set(live as i64);
    }

    /// Scrapes every live replica's local registry with a [`KIND_STATS`]
    /// frame (under the heartbeat deadline) and folds the snapshots into
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
        let _op = self.op.lock().expect("transport op");
        if !self.lock_state().metrics.registry.enabled() {
            return 0;
        }
        self.control_round(|_| true, true)
    }

    /// One round of control probes over every connected replica `pick`
    /// selects, in the rejoin-probe plan/IO/install pattern: connections
    /// are checked out under the state lock, probed with **no state lock
    /// held**, then checked back in (a `STATS` snapshot folded into the
    /// registry as source `shard{s}_replica{r}`) or marked dead. A slow
    /// or hung replica therefore stalls only this call, never
    /// [`RemoteShardedModel::transport_health`] or
    /// [`RemoteShardedModel::take_events`] readers on other threads.
    /// Returns the number of replicas that answered.
    fn control_round(&self, pick: impl Fn(&Replica) -> bool, scrape: bool) -> usize {
        let mut probes = Vec::new();
        {
            let mut st = self.lock_state();
            for (shard, group) in st.groups.iter_mut().enumerate() {
                for (replica, r) in group.replicas.iter_mut().enumerate() {
                    if !pick(r) {
                        continue;
                    }
                    // Dead replicas are the rejoin probes' to revive.
                    let Some(conn) = r.conn.take() else { continue };
                    r.borrowed = true;
                    probes.push(ControlProbe { shard, replica, conn });
                }
            }
        }
        let outcomes: Vec<Result<Option<MetricsSnapshot>, TransportError>> =
            probes.iter_mut().map(|p| self.probe_replica(p, scrape)).collect();
        let mut st = self.lock_state();
        let mut answered = 0;
        for (p, outcome) in probes.into_iter().zip(outcomes) {
            match outcome {
                Ok(snap) => {
                    if let Some(snap) = snap {
                        st.metrics
                            .registry
                            .ingest_remote(&format!("shard{}_replica{}", p.shard, p.replica), snap);
                    }
                    st.checkin(p.shard, p.replica, p.conn);
                    answered += 1;
                }
                Err(e) => {
                    let _ = p.conn.shutdown();
                    st.mark_dead(p.shard, p.replica, &e);
                }
            }
        }
        answered
    }

    /// One heartbeat/scrape round-trip on a checked-out connection:
    /// `STATS` (returning the decoded snapshot) when `scrape`, else
    /// `PING`/`PONG` echo. Reads skip stale `PARTIAL`s by abandoned
    /// nonce ([`RemoteShardedModel::read_control`]).
    fn probe_replica(
        &self,
        p: &mut ControlProbe,
        scrape: bool,
    ) -> Result<Option<MetricsSnapshot>, TransportError> {
        let timeout = self.transport.heartbeat_timeout;
        if scrape {
            write_frame_deadline(&mut p.conn, KIND_STATS, &[], timeout)?;
            let (kind, payload) = self.read_control(&mut p.conn, p.shard, p.replica, timeout)?;
            if kind != KIND_STATS {
                return Err(TransportError::Protocol(format!(
                    "expected STATS reply, got kind {kind:#04x}"
                )));
            }
            let snap = MetricsSnapshot::decode(&payload)
                .map_err(|e| TransportError::Protocol(format!("stats snapshot rejected: {e}")))?;
            Ok(Some(snap))
        } else {
            let token: &[u8] = b"fineq-heartbeat";
            write_frame_deadline(&mut p.conn, KIND_PING, token, timeout)?;
            let (kind, payload) = self.read_control(&mut p.conn, p.shard, p.replica, timeout)?;
            if kind == KIND_PONG && payload == token {
                Ok(None)
            } else {
                Err(TransportError::Protocol(format!("expected PONG echo, got kind {kind:#04x}")))
            }
        }
    }

    /// Reads one non-stale frame from a checked-out connection: a
    /// `PARTIAL` whose nonce is on the replica's abandoned list is the
    /// owed reply of an aborted operation — discarded, read again. A
    /// `PARTIAL` with any other nonce is a protocol breach (nothing else
    /// may be in flight on a checked-out control connection).
    fn read_control(
        &self,
        conn: &mut Stream,
        shard: usize,
        replica: usize,
        timeout: Duration,
    ) -> Result<(u8, Vec<u8>), TransportError> {
        loop {
            let (kind, payload) = read_frame_deadline(conn, timeout)?;
            if kind != KIND_PARTIAL {
                return Ok((kind, payload));
            }
            let nonce = get_u64(&payload, 0)?;
            if self.lock_state().groups[shard].replicas[replica].abandoned.remove(&nonce) {
                continue;
            }
            return Err(TransportError::Protocol(format!(
                "unsolicited PARTIAL (nonce {nonce:#018x}) on a control read"
            )));
        }
    }

    /// Drains the failover/death events recorded since the last call.
    pub fn take_events(&self) -> Vec<WorkerEvent> {
        std::mem::take(&mut self.state.lock().expect("remote state").events)
    }

    /// Sends `SHUTDOWN` to every live worker and drops the connections
    /// (best-effort: unreachable workers are ignored).
    pub fn shutdown_workers(&self) {
        let _op = self.op.lock().expect("transport op");
        let mut st = self.lock_state();
        for group in &mut st.groups {
            for replica in &mut group.replicas {
                if let Some(mut conn) = replica.conn.take() {
                    let _ = write_frame(&mut conn, KIND_SHUTDOWN, &[]);
                    let _ = conn.shutdown();
                }
            }
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, RemoteState> {
        self.state.lock().expect("remote state")
    }

    /// Runs reconnect probes with **no lock held** during the connect +
    /// envelope re-ship, reacquiring the state lock only to install each
    /// outcome. Probes run in parallel on the coordinator's pool — a
    /// rejoin sweep over many due replicas costs one slowest-replica
    /// handshake, not the sum — and outcomes install in probe order, so
    /// the event log stays deterministic. Returns whether any probe
    /// revived its replica.
    fn run_probes(&self, probes: Vec<RejoinProbe>) -> bool {
        if probes.is_empty() {
            return false;
        }
        let slots: Vec<Mutex<Option<Result<Stream, TransportError>>>> =
            probes.iter().map(|_| Mutex::new(None)).collect();
        self.pool.run(probes.len(), 1, &|_, start, end| {
            for i in start..end {
                let outcome =
                    connect_replica(&probes[i].addr, &probes[i].envelopes, &self.transport);
                *slots[i].lock().expect("probe slot") = Some(outcome);
            }
        });
        let mut any = false;
        for (probe, slot) in probes.into_iter().zip(slots) {
            let outcome = slot.into_inner().expect("probe slot").expect("probe ran");
            any |= self.lock_state().install_probe(probe, outcome, &self.transport.retry);
        }
        any
    }

    /// Advances the retry clock and probes whichever dead replicas are
    /// due. Called once per gather and per heartbeat, under the op lock
    /// but never the state lock while connecting.
    fn maybe_rejoin(&self) {
        let probes = self.lock_state().plan_due_probes();
        self.run_probes(probes);
    }

    /// Last-ditch *blocking* recovery for a group with no live replica:
    /// up to `budget` rounds of backoff-sleep-then-probe across the
    /// group's dead replicas. The budget is shared across one logical
    /// operation (one site gather), so a gather can never stall longer
    /// than the policy's full schedule. Sleeps and connects hold no
    /// lock but the op lock.
    fn blocking_recover(&self, shard: usize, budget: &mut u32) -> Result<(), TransportError> {
        while *budget > 0 {
            let attempt = self.transport.retry.max_attempts.saturating_sub(*budget) + 1;
            *budget -= 1;
            std::thread::sleep(self.transport.retry.backoff(attempt, shard as u64));
            let probes = self.lock_state().plan_group_probes(shard);
            if self.run_probes(probes) {
                return Ok(());
            }
        }
        Err(TransportError::NoLiveReplica { shard })
    }

    /// Checks out `shard`'s primary connection, electing (and recording
    /// a failover to) a spare when the primary is dead, with bounded
    /// blocking recovery when the whole group is exhausted.
    fn checkout_recovering(
        &self,
        shard: usize,
        budget: &mut u32,
    ) -> Result<(usize, Stream), TransportError> {
        loop {
            // Bind the attempt first: a `match` on `self.lock_state().…`
            // would keep the state guard alive across the arms, and the
            // recovery arm re-locks state — instant self-deadlock.
            let attempt = self.lock_state().checkout_primary(shard);
            match attempt {
                Ok(pair) => return Ok(pair),
                Err(TransportError::NoLiveReplica { .. }) => {
                    self.blocking_recover(shard, budget)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Reports a checked-out connection's death: shuts the stream down,
    /// records the death (and timeout) against the replica.
    fn return_dead(&self, shard: usize, replica: usize, conn: Stream, error: &TransportError) {
        let _ = conn.shutdown();
        self.lock_state().mark_dead(shard, replica, error);
    }

    /// Kills `shard`'s current link and fails the window over: the dead
    /// replica is recorded, a replacement primary is checked out
    /// (blocking recovery when the group is exhausted), and every
    /// pending entry not yet received is marked unsent — the **full
    /// in-flight window replays** on the replacement under the original
    /// nonces, so already-received slots are never re-filled and the
    /// replayed replies match their requests exactly.
    fn fail_link(
        &self,
        shard: usize,
        links: &mut HashMap<usize, ShardLink>,
        error: &TransportError,
        budget: &mut u32,
    ) -> Result<(), TransportError> {
        let ShardLink { replica, conn, mut pending } =
            links.remove(&shard).expect("failing a live link");
        self.return_dead(shard, replica, conn, error);
        for e in pending.iter_mut().filter(|e| !e.received) {
            e.sent = false;
        }
        let (replica, conn) = self.checkout_recovering(shard, budget)?;
        links.insert(shard, ShardLink { replica, conn, pending });
        Ok(())
    }

    /// Writes every unsent pending request of `shard`'s link, in window
    /// order, failing over (and replaying the window) on any write
    /// error. The requests' bytes are nonce-complete, so a replayed
    /// write is byte-identical to the original.
    fn flush_link(
        &self,
        shard: usize,
        reqs: &[SiteReq],
        links: &mut HashMap<usize, ShardLink>,
        budget: &mut u32,
    ) -> Result<(), TransportError> {
        loop {
            let link = links.get_mut(&shard).expect("flushing a live link");
            let mut failure = None;
            for e in link.pending.iter_mut() {
                if e.received || e.sent {
                    continue;
                }
                match write_frame_deadline(
                    &mut link.conn,
                    KIND_GATHER,
                    &reqs[e.site].req,
                    self.transport.gather_timeout,
                ) {
                    Ok(()) => e.sent = true,
                    Err(err) => {
                        failure = Some(TransportError::Frame(err));
                        break;
                    }
                }
            }
            match failure {
                None => return Ok(()),
                Some(err) => self.fail_link(shard, links, &err, budget)?,
            }
        }
    }

    /// Routes one `PARTIAL` payload by its nonce: a sent-unreceived
    /// window entry's nonce fills that slot ([`MatchOutcome::Filled`]);
    /// an abandoned nonce from an aborted earlier operation is discarded
    /// ([`MatchOutcome::Stale`] — the structural replacement for the old
    /// blind drain-on-abort); any other nonce is a protocol breach.
    fn match_partial(
        &self,
        shard: usize,
        link: &mut ShardLink,
        reqs: &mut [SiteReq],
        payload: &[u8],
    ) -> Result<MatchOutcome, TransportError> {
        let nonce = get_u64(payload, 0)?;
        let Some(entry) =
            link.pending.iter_mut().find(|e| e.sent && !e.received && reqs[e.site].nonce == nonce)
        else {
            let stale =
                self.lock_state().groups[shard].replicas[link.replica].abandoned.remove(&nonce);
            return if stale {
                Ok(MatchOutcome::Stale)
            } else {
                Err(TransportError::Protocol(format!(
                    "PARTIAL carries unknown nonce {nonce:#018x}"
                )))
            };
        };
        let r = &mut reqs[entry.site];
        let range = r.involved.iter().find(|&&(s, _)| s == shard).expect("involved shard").1;
        decode_partial(payload, r.sid, range, &mut r.out)?;
        entry.received = true;
        Ok(MatchOutcome::Filled)
    }

    /// Receives until exactly one pending window entry of `shard`'s link
    /// fills. Stale (abandoned-nonce) replies are discarded along the
    /// way; every failure — stream, deadline, worker `ERROR`, misrouted
    /// or unknown-nonce reply — kills the replica and replays the whole
    /// unreceived window on a spare.
    fn recv_one(
        &self,
        shard: usize,
        reqs: &mut [SiteReq],
        links: &mut HashMap<usize, ShardLink>,
        budget: &mut u32,
    ) -> Result<(), TransportError> {
        loop {
            // (Re)send anything the current connection still owes the
            // worker — after a failover this is the replayed window.
            self.flush_link(shard, reqs, links, budget)?;
            let link = links.get_mut(&shard).expect("receiving on a live link");
            let failure = match read_frame_deadline(&mut link.conn, self.transport.gather_timeout) {
                Ok((KIND_PARTIAL, payload)) => {
                    match self.match_partial(shard, link, reqs, &payload) {
                        Ok(MatchOutcome::Filled) => return Ok(()),
                        Ok(MatchOutcome::Stale) => continue,
                        Err(e) => e,
                    }
                }
                Ok((KIND_ERROR, payload)) => TransportError::Protocol(format!(
                    "worker rejected gather: {}",
                    String::from_utf8_lossy(&payload)
                )),
                Ok((other, _)) => TransportError::Protocol(format!(
                    "expected PARTIAL, got frame kind {other:#04x}"
                )),
                Err(e) => TransportError::Frame(e),
            };
            self.fail_link(shard, links, &failure, budget)?;
        }
    }

    /// Enqueues request `j` on every involved shard's link (checking the
    /// primary out on first touch) and flushes immediately, so the wire
    /// carries it while earlier requests are still computing.
    fn dispatch_req(
        &self,
        j: usize,
        reqs: &[SiteReq],
        links: &mut HashMap<usize, ShardLink>,
        budget: &mut u32,
    ) -> Result<(), TransportError> {
        for idx in 0..reqs[j].involved.len() {
            let shard = reqs[j].involved[idx].0;
            if let std::collections::hash_map::Entry::Vacant(slot) = links.entry(shard) {
                let (replica, conn) = self.checkout_recovering(shard, budget)?;
                slot.insert(ShardLink { replica, conn, pending: Vec::new() });
            }
            let link = links.get_mut(&shard).expect("just inserted");
            link.pending.push(PendingReply { site: j, sent: false, received: false });
            self.flush_link(shard, reqs, links, budget)?;
        }
        Ok(())
    }

    /// Completes request `j`: receives (in any order) until every
    /// involved shard has delivered `j`'s partial.
    fn complete_req(
        &self,
        j: usize,
        reqs: &mut [SiteReq],
        links: &mut HashMap<usize, ShardLink>,
        budget: &mut u32,
    ) -> Result<(), TransportError> {
        for idx in 0..reqs[j].involved.len() {
            let shard = reqs[j].involved[idx].0;
            while !links[&shard].pending.iter().any(|e| e.site == j && e.received) {
                self.recv_one(shard, reqs, links, budget)?;
            }
        }
        Ok(())
    }

    /// Returns every checked-out connection to the state table. Entries
    /// sent but never received still owe a `PARTIAL` on that connection:
    /// their nonces go on the replica's abandoned list, and whatever
    /// read next touches the connection (gather, heartbeat, scrape)
    /// discards the stale replies by nonce match — the structural
    /// guarantee that replaced `drain_abandoned`'s blind
    /// read-and-discard.
    fn release_links(&self, links: HashMap<usize, ShardLink>, reqs: &[SiteReq]) {
        if links.is_empty() {
            return;
        }
        let mut st = self.lock_state();
        for (shard, link) in links {
            for e in link.pending.iter().filter(|e| e.sent && !e.received) {
                st.groups[shard].replicas[link.replica].abandoned.insert(reqs[e.site].nonce);
            }
            st.checkin(shard, link.replica, link.conn);
        }
    }

    /// One *group* of linear sites sharing the same broadcast input,
    /// distributed and pipelined: each site becomes a nonce-tagged
    /// request, the whole group (Q/K/V, or one site — far below what OS
    /// socket buffers absorb) rides every involved shard's connection at
    /// once, and replies complete out of order into their slots by nonce
    /// — Q/K/V overlap on the wire and on the workers while the
    /// coordinator waits only on the slowest chain. Outputs are returned
    /// in `sites` order and are bit-identical to serial execution
    /// (nothing about scheduling touches arithmetic).
    ///
    /// Each call ticks the rejoin clock, so dead replicas whose backoff
    /// is due get probed on the way in. Any mid-flight failure replays
    /// the **entire unreceived window** on a spare under the original
    /// nonces ([`RemoteShardedModel::fail_link`]). On abort, owed
    /// replies become abandoned nonces
    /// ([`RemoteShardedModel::release_links`]) and can never be misread
    /// by a later operation.
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
        let _op = self.op.lock().expect("transport op");
        self.maybe_rejoin();
        // Clone the handles out of the state lock: recording must not
        // hold it across the broadcast/gather I/O below.
        let tm = self.lock_state().metrics.clone();
        let started = tm.registry.enabled().then(|| tm.registry.now_micros());
        // One blocking-recovery budget for the whole group: a
        // repeatedly-failing fleet cannot stall a step forever.
        let mut budget = self.transport.retry.max_attempts;
        let mut reqs: Vec<SiteReq> = {
            let mut st = self.lock_state();
            sites
                .iter()
                .map(|&site| {
                    let sp = self.plan.site(layer, site);
                    let sid = site_id(layer, site);
                    let nonce = st.next_nonce;
                    st.next_nonce += 1;
                    SiteReq {
                        sid,
                        nonce,
                        req: encode_gather(nonce, sid, a),
                        out: Matrix::zeros(a.rows(), sp.rows),
                        involved: (0..self.plan.n_shards())
                            .map(|s| (s, sp.range(s)))
                            .filter(|&(_, (start, end))| start < end)
                            .collect(),
                    }
                })
                .collect()
        };
        let mut links: HashMap<usize, ShardLink> = HashMap::new();
        let result: Result<(), TransportError> = (|| {
            for j in 0..reqs.len() {
                self.dispatch_req(j, &reqs, &mut links, &mut budget)?;
            }
            for (j, site) in sites.iter().enumerate() {
                self.complete_req(j, &mut reqs, &mut links, &mut budget)?;
                if let Some(t0) = started {
                    tm.gather_us[site.index()].record(tm.registry.now_micros().saturating_sub(t0));
                }
            }
            Ok(())
        })();
        self.release_links(links, &reqs);
        result.map(|()| reqs.into_iter().map(|r| r.out).collect())
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
    use super::*;
    use crate::shard::ShardedModel;
    use fineq_core::FineQuantizer;
    use fineq_tensor::Rng;

    fn packed_tiny(seed: u64) -> Transformer {
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

    #[test]
    fn remote_steps_are_bit_identical_to_local_engines() {
        let model = packed_tiny(11);
        let cfg = model.config().clone();
        let (addrs, handles) = spawn_worker_threads(3);
        let remote = RemoteShardedModel::connect(&model, &addrs).expect("connect");
        assert_eq!(remote.n_shards(), 3);
        let local = ShardedModel::new(&model, 3);
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
            let mut st = remote.state.lock().expect("state");
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
            let mut st = remote.state.lock().expect("state");
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

    #[test]
    fn worker_rejects_malformed_requests_with_typed_errors() {
        let mut worker = Worker::new();
        // Unknown kind.
        let WorkerReply::Frame(kind, msg) = worker.handle(0x99, &[]).expect("handled") else {
            panic!("expected a frame reply");
        };
        assert_eq!(kind, KIND_ERROR);
        assert!(String::from_utf8_lossy(&msg).contains("unknown frame kind"));
        // Gather before load.
        let req = encode_gather(0xA1, 7, &Matrix::zeros(1, 4));
        let WorkerReply::Frame(kind, msg) = worker.handle(KIND_GATHER, &req).expect("handled")
        else {
            panic!("expected a frame reply");
        };
        assert_eq!(kind, KIND_ERROR);
        assert!(String::from_utf8_lossy(&msg).contains("unloaded site"));
        // Corrupt envelope.
        let WorkerReply::Frame(kind, msg) =
            worker.handle(KIND_LOAD, b"not an envelope").expect("handled")
        else {
            panic!("expected a frame reply");
        };
        assert_eq!(kind, KIND_ERROR);
        assert!(String::from_utf8_lossy(&msg).contains("rejected"));
        // Truncated gather payload.
        let WorkerReply::Frame(kind, _) = worker.handle(KIND_GATHER, &req[..6]).expect("handled")
        else {
            panic!("expected a frame reply");
        };
        assert_eq!(kind, KIND_ERROR);
        // Hostile shapes in a well-framed header-only gather: the f32
        // count fits a 64-bit usize but its byte length does not (for the
        // first it would wrap to exactly 0). Neither may panic or wrap.
        for dim in [0x8000_0000u32, 0xFFFF_FFFF] {
            let mut hostile = req[..12].to_vec();
            hostile.extend_from_slice(&dim.to_le_bytes());
            hostile.extend_from_slice(&dim.to_le_bytes());
            let WorkerReply::Frame(kind, msg) =
                worker.handle(KIND_GATHER, &hostile).expect("handled")
            else {
                panic!("expected a frame reply");
            };
            assert_eq!(kind, KIND_ERROR, "{dim:#x}");
            assert!(String::from_utf8_lossy(&msg).contains("malformed gather"), "{dim:#x}");
        }
        assert_eq!(worker.loaded_sites(), 0);
    }

    #[test]
    fn worker_partial_matches_local_slice_product() {
        let model = packed_tiny(13);
        let plan = ShardPlan::new(&model, 2);
        let sp = plan.site(0, WeightSite::FfnUp);
        let (start, end) = sp.range(1);
        let sid = site_id(0, WeightSite::FfnUp);
        // Shard 1 owns rows of every site, so its envelopes index by site id.
        let envelope = &plan.envelopes(&model, 1)[sid as usize];
        let mut worker = Worker::new();
        let WorkerReply::Frame(kind, ack) = worker.handle(KIND_LOAD, envelope).expect("load")
        else {
            panic!("expected LOADED");
        };
        assert_eq!((kind, get_u32(&ack, 0).expect("ack")), (KIND_LOADED, sid));
        let mut rng = Rng::seed_from(5);
        let a = Matrix::from_fn(3, sp.cols, |_, _| rng.normal(0.0, 1.0));
        let WorkerReply::Frame(kind, reply) =
            worker.handle(KIND_GATHER, &encode_gather(0xDEAD_BEEF_CAFE, sid, &a)).expect("gather")
        else {
            panic!("expected PARTIAL");
        };
        assert_eq!(kind, KIND_PARTIAL);
        // Protocol v2: the worker echoes the request nonce verbatim, so
        // the reply is self-identifying.
        assert_eq!(get_u64(&reply, 0).expect("nonce"), 0xDEAD_BEEF_CAFE);
        // The partial equals the matching columns of the local gather.
        let local = ShardedModel::new(&model, 2);
        let mut full = Matrix::zeros(3, sp.rows);
        let mut scratch = KernelScratch::new();
        matmul_t_sharded_into(
            local.site_slices(0, WeightSite::FfnUp),
            &a,
            &mut full,
            &mut scratch,
            None,
        );
        let rows = end - start;
        let data = get_f32s(&reply, 24, 3 * rows).expect("payload");
        for t in 0..3 {
            assert_eq!(
                &data[t * rows..(t + 1) * rows],
                &full.row(t)[start..end],
                "row {t} partial must be bit-identical to the in-process gather"
            );
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
        let remote = RemoteShardedModel::connect_with(&model, &addrs, tc).expect("connect");
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
            let mut st = remote.state.lock().expect("state");
            let mut conn = st.groups[1].replicas[0].conn.take().expect("live");
            write_frame(&mut conn, KIND_SHUTDOWN, &[]).expect("shutdown shard 1");
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
        let remote = RemoteShardedModel::connect_with(&model, &[vec![addr]], tc).expect("connect");
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
}
