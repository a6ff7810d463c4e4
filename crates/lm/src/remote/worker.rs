//! The worker side: loaded slices, the request -> reply step and the
//! process body that wires it to a socket.

use super::wire::{begin_partial, copy_f32s, encode_loaded, put_partial_site, GatherRequest};
#[cfg(doc)]
use super::{RemoteShardedModel, TransportConfig};
use super::{
    TransportError, KIND_ERROR, KIND_GATHER, KIND_LOAD, KIND_LOADED, KIND_PARTIAL, KIND_PING,
    KIND_PONG, KIND_SHUTDOWN, KIND_STATS, PROTOCOL_VERSION,
};
use fineq_core::frame::{read_frame, write_frame, FrameError, Listener, Stream};
use fineq_core::serialize::shard_from_bytes;
use fineq_core::telemetry::{Counter, Histogram, MetricsRegistry};
use fineq_core::{KernelScratch, PackedMatrix};
use fineq_tensor::Matrix;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// One loaded weight-site slice on a worker.
struct SiteSlice {
    row_start: usize,
    slice: PackedMatrix,
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
    #[cfg(test)]
    fn loaded_sites(&self) -> usize {
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
        self.sites.insert(sid, SiteSlice { row_start: header.row_start as usize, slice });
        self.metrics.loads.inc();
        // The ack names the protocol this worker speaks, so a coordinator
        // of another version refuses the replica at connect — not at the
        // first gather it cannot parse.
        WorkerReply::Frame(KIND_LOADED, encode_loaded(sid))
    }

    fn gather(&mut self, payload: &[u8]) -> WorkerReply {
        match self.gather_group(payload) {
            Ok(reply) => WorkerReply::Frame(KIND_PARTIAL, reply),
            Err(msg) => error_reply(msg),
        }
    }

    /// Answers one group `GATHER`: the whole request is validated before
    /// any of it is computed, then every named site's partial product is
    /// appended as one section of a single `PARTIAL` payload.
    fn gather_group(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let req = GatherRequest::parse(payload)
            .map_err(|e| format!("malformed gather (protocol v{PROTOCOL_VERSION}): {e}"))?;
        // A group names each site at most once, so it cannot outnumber
        // what is loaded: checked first, which bounds the validation loop
        // and the reply by the worker's own state, not by the request.
        if req.n_sites() > self.sites.len() {
            return Err(format!(
                "gather names {} sites, {} are loaded: an unloaded site, or one named twice",
                req.n_sites(),
                self.sites.len()
            ));
        }
        for sid in req.site_ids() {
            let Some(site) = self.sites.get(&sid) else {
                return Err(format!("gather for unloaded site {sid}"));
            };
            let expects = site.slice.cols();
            if expects != req.cols {
                return Err(format!(
                    "gather activations have {} columns, site {sid} expects {expects}",
                    req.cols
                ));
            }
        }
        let mut a = Matrix::zeros(req.t_len, req.cols);
        copy_f32s(req.activations, a.as_mut_slice());
        let mut reply = Vec::new();
        begin_partial(&mut reply, req.nonce, req.n_sites(), req.t_len);
        let timed = self.metrics.registry.enabled();
        for sid in req.site_ids() {
            let SiteSlice { row_start, slice } = &self.sites[&sid];
            let mut out = Matrix::zeros(req.t_len, slice.rows());
            // The partial product this shard owes the step: `a @ sliceᵀ`,
            // per-channel arithmetic identical to the same channels of the
            // unsharded matrix at any execution shape — and the same
            // whether its site travels alone or in a group.
            let started = timed.then(|| self.metrics.registry.now_micros());
            slice.matmul_t_into_with(&a, &mut out, &mut self.scratch, None);
            if let Some(t0) = started {
                let us = self.metrics.registry.now_micros().saturating_sub(t0);
                self.metrics.gather_us.record(us);
                self.metrics.gathers.inc();
                self.metrics.packed_bytes.add(slice.storage_bytes() as u64);
            }
            put_partial_site(&mut reply, sid, *row_start, &out);
        }
        Ok(reply)
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

#[cfg(test)]
mod tests {
    use super::super::testutil::packed_tiny;
    use super::super::wire::{decode_partial, encode_gather, get_u32, get_u64, SiteWant};
    use super::*;
    use crate::model::{Transformer, WeightSite};
    use crate::shard::{site_id, ShardPlan};
    use fineq_core::frame::FRAME_HEADER_BYTES;
    use fineq_core::serialize::SHARD_VERSION;
    use fineq_core::telemetry::MetricsSnapshot;
    use fineq_tensor::Rng;

    /// A group `GATHER` payload (the sealed frame minus its header).
    fn gather_payload(nonce: u64, site_ids: &[u32], a: &Matrix) -> Vec<u8> {
        encode_gather(nonce, site_ids, a).split_off(FRAME_HEADER_BYTES)
    }

    fn reply(worker: &mut Worker, kind: u8, payload: &[u8]) -> (u8, Vec<u8>) {
        match worker.handle(kind, payload).expect("handled") {
            WorkerReply::Frame(kind, payload) => (kind, payload),
            WorkerReply::Shutdown => panic!("expected a frame reply"),
        }
    }

    /// A worker holding every slice shard 1 of a two-shard plan owns.
    fn loaded_worker(model: &Transformer) -> Worker {
        let mut worker = Worker::new();
        for envelope in ShardPlan::new(model, 2).envelopes(model, 1) {
            assert_eq!(reply(&mut worker, KIND_LOAD, &envelope).0, KIND_LOADED);
        }
        worker
    }

    const QKV: [WeightSite; 3] = [WeightSite::AttnQ, WeightSite::AttnK, WeightSite::AttnV];

    #[test]
    fn worker_rejects_malformed_requests_with_typed_errors() {
        let mut worker = Worker::new();
        // Unknown kind.
        let (kind, msg) = reply(&mut worker, 0x99, &[]);
        assert_eq!(kind, KIND_ERROR);
        assert!(String::from_utf8_lossy(&msg).contains("unknown frame kind"));
        // Gather before load.
        let req = gather_payload(0xA1, &[7], &Matrix::zeros(1, 4));
        let (kind, msg) = reply(&mut worker, KIND_GATHER, &req);
        assert_eq!(kind, KIND_ERROR);
        assert!(String::from_utf8_lossy(&msg).contains("unloaded site"));
        // Corrupt envelope.
        let (kind, msg) = reply(&mut worker, KIND_LOAD, b"not an envelope");
        assert_eq!(kind, KIND_ERROR);
        assert!(String::from_utf8_lossy(&msg).contains("rejected"));
        assert_eq!(worker.loaded_sites(), 0);
        // A loaded site named twice, and activations of the wrong width.
        let model = packed_tiny(13);
        let mut worker = loaded_worker(&model);
        let sid = site_id(0, WeightSite::AttnQ);
        let a = Matrix::zeros(1, model.config().d_model);
        let twice = vec![sid; worker.loaded_sites() + 1];
        let (kind, msg) = reply(&mut worker, KIND_GATHER, &gather_payload(1, &twice, &a));
        assert_eq!(kind, KIND_ERROR);
        assert!(String::from_utf8_lossy(&msg).contains("twice"));
        let narrow = Matrix::zeros(1, model.config().d_model - 1);
        let (kind, msg) = reply(&mut worker, KIND_GATHER, &gather_payload(2, &[sid], &narrow));
        assert_eq!(kind, KIND_ERROR);
        assert!(String::from_utf8_lossy(&msg).contains("columns"));
    }

    /// A mixed fleet fails typed at `LOAD`: an envelope of another
    /// `SHARD_VERSION` (an older coordinator's v1, or a newer one's) is
    /// answered `ERROR` naming the version, and nothing loads. This is
    /// why the frame-level `PROTOCOL_VERSION` did not move with the
    /// envelope's checksum.
    #[test]
    fn envelope_of_another_shard_version_is_answered_error_and_loads_nothing() {
        let model = packed_tiny(14);
        let envelope = ShardPlan::new(&model, 2).envelopes(&model, 1).swap_remove(0);
        for version in [1, SHARD_VERSION + 1] {
            let mut worker = Worker::new();
            let mut other = envelope.clone();
            other[4..6].copy_from_slice(&version.to_le_bytes());
            let (kind, msg) = reply(&mut worker, KIND_LOAD, &other);
            assert_eq!(kind, KIND_ERROR, "v{version}");
            let msg = String::from_utf8_lossy(&msg);
            assert!(msg.contains(&format!("unsupported shard wire version {version}")), "{msg}");
            assert_eq!(worker.loaded_sites(), 0, "v{version}");
        }
    }

    /// One group `GATHER` for Q/K/V is answered by one `PARTIAL` whose
    /// sections are, bit for bit, the matching columns of each site's
    /// unsharded product.
    #[test]
    fn worker_group_partial_matches_local_slice_products() {
        let model = packed_tiny(13);
        let plan = ShardPlan::new(&model, 2);
        let mut worker = loaded_worker(&model);
        let mut rng = Rng::seed_from(5);
        let a = Matrix::from_fn(3, model.config().d_model, |_, _| rng.normal(0.0, 1.0));
        let ids = QKV.map(|site| site_id(0, site));
        let (kind, partial) =
            reply(&mut worker, KIND_GATHER, &gather_payload(0xDEAD_BEEF_CAFE, &ids, &a));
        assert_eq!(kind, KIND_PARTIAL);
        // The worker echoes the request nonce verbatim, so the reply is
        // self-identifying.
        assert_eq!(get_u64(&partial, 0).expect("nonce"), 0xDEAD_BEEF_CAFE);
        let mut outs: Vec<Matrix> =
            QKV.iter().map(|&site| Matrix::zeros(3, plan.site(0, site).rows)).collect();
        let wanted: Vec<SiteWant> = QKV
            .iter()
            .enumerate()
            .map(|(out, &site)| {
                let (start, end) = plan.site(0, site).range(1);
                SiteWant { out, sid: site_id(0, site), start, end }
            })
            .collect();
        decode_partial(&partial, 0xDEAD_BEEF_CAFE, &wanted, &mut outs)
            .expect("the worker's own reply decodes");
        for (w, &site) in wanted.iter().zip(&QKV) {
            let full = model.weight(0, site).matmul_t(&a);
            for t in 0..3 {
                assert_eq!(
                    &outs[w.out].row(t)[w.start..w.end],
                    &full.row(t)[w.start..w.end],
                    "{site:?} row {t} must be bit-identical to the unsharded product"
                );
            }
        }
    }

    /// True when `partial` is a structurally complete `PARTIAL`: the
    /// declared sections, each with its declared rows, and nothing else.
    fn partial_is_well_formed(partial: &[u8]) -> bool {
        let (Ok(n_sites), Ok(t_len)) = (get_u32(partial, 8), get_u32(partial, 12)) else {
            return false;
        };
        let mut off = 16usize;
        for _ in 0..n_sites {
            let Ok(rows) = get_u32(partial, off + 8) else { return false };
            off += 12 + t_len as usize * rows as usize * 4;
        }
        n_sites > 0 && t_len > 0 && off == partial.len()
    }

    /// The GATHER hostile-bytes sweep (FNQF / FNQS / FQMS have the same):
    /// a loaded worker answers every truncation of a valid group request
    /// and every hostile count with `ERROR`, and every flipped header
    /// byte with `ERROR` or a well-formed `PARTIAL` (a flipped nonce is
    /// just another nonce) — never a panic, never a wrapped
    /// multiplication.
    #[test]
    fn gather_payload_hostile_bytes_yield_error_or_a_valid_partial() {
        let model = packed_tiny(17);
        let mut worker = loaded_worker(&model);
        let a = Matrix::from_fn(2, model.config().d_model, |t, c| (t * 31 + c) as f32 * 0.01);
        let ids = QKV.map(|site| site_id(1, site));
        let valid = gather_payload(0x0123_4567_89AB_CDEF, &ids, &a);
        assert_eq!(reply(&mut worker, KIND_GATHER, &valid).0, KIND_PARTIAL);
        for cut in 0..valid.len() {
            let (kind, _) = reply(&mut worker, KIND_GATHER, &valid[..cut]);
            assert_eq!(kind, KIND_ERROR, "truncated at byte {cut}");
        }
        // nonce 0..8, n_sites 8..12, three site ids 12..24, t_len 24..28,
        // cols 28..32.
        let mut partials = 0;
        for idx in 0..32 {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut hostile = valid.clone();
                hostile[idx] ^= flip;
                let (kind, body) = reply(&mut worker, KIND_GATHER, &hostile);
                match kind {
                    KIND_ERROR => {}
                    KIND_PARTIAL => {
                        partials += 1;
                        assert!(partial_is_well_formed(&body), "byte {idx} ^ {flip:#04x}");
                    }
                    other => panic!("byte {idx} ^ {flip:#04x}: reply kind {other:#04x}"),
                }
            }
        }
        assert!(partials >= 24, "every nonce flip still answers: {partials}");
        for field in [8usize, 24, 28] {
            for count in [0u32, 0x8000_0000, 0xFFFF_FFFF] {
                let mut hostile = valid.clone();
                hostile[field..field + 4].copy_from_slice(&count.to_le_bytes());
                let (kind, msg) = reply(&mut worker, KIND_GATHER, &hostile);
                assert_eq!(kind, KIND_ERROR, "field at {field} = {count:#x}");
                assert!(
                    String::from_utf8_lossy(&msg).contains("malformed gather"),
                    "field at {field} = {count:#x}"
                );
            }
        }
        // Header-only requests whose shape product overflows the f32
        // byte count (for the first it would wrap to exactly 0).
        for dim in [0x8000_0000u32, 0xFFFF_FFFF] {
            let mut hostile = valid[..24].to_vec();
            hostile.extend_from_slice(&dim.to_le_bytes());
            hostile.extend_from_slice(&dim.to_le_bytes());
            assert_eq!(reply(&mut worker, KIND_GATHER, &hostile).0, KIND_ERROR, "{dim:#x}");
        }
    }

    /// The STATS hostile-bytes sweep, over what a worker that has served
    /// really sends: truncated anywhere the snapshot is a typed error;
    /// with any byte flipped it fails typed or decodes to a snapshot the
    /// coordinator's registry ingests and renders.
    #[test]
    fn stats_payload_hostile_bytes_are_typed_errors_or_ingestable() {
        let model = packed_tiny(18);
        let mut worker = loaded_worker(&model);
        let a = Matrix::zeros(1, model.config().d_model);
        let ids = QKV.map(|site| site_id(0, site));
        assert_eq!(reply(&mut worker, KIND_GATHER, &gather_payload(9, &ids, &a)).0, KIND_PARTIAL);
        let (kind, stats) = reply(&mut worker, KIND_STATS, &[]);
        assert_eq!(kind, KIND_STATS);
        let snap = MetricsSnapshot::decode(&stats).expect("a worker's own snapshot decodes");
        assert_eq!(snap.counters["fineq_worker_gathers_total"], 3, "one per site of the group");
        for cut in 0..stats.len() {
            assert!(MetricsSnapshot::decode(&stats[..cut]).is_err(), "truncated at byte {cut}");
        }
        for idx in 0..stats.len() {
            let mut hostile = stats.clone();
            hostile[idx] ^= 0xFF;
            if let Ok(got) = MetricsSnapshot::decode(&hostile) {
                let registry = MetricsRegistry::new();
                registry.ingest_remote("shard0_replica0", got);
                assert!(!registry.render_text().is_empty(), "flip at byte {idx}");
            }
        }
        // The three section counts (counters, gauges, histograms) sit
        // behind the 6-byte magic + version; a hostile first count must
        // run out of bytes, not allocate for 2^32 entries.
        for count in [0x8000_0000u32, 0xFFFF_FFFF] {
            let mut hostile = stats.clone();
            hostile[6..10].copy_from_slice(&count.to_le_bytes());
            assert!(MetricsSnapshot::decode(&hostile).is_err(), "{count:#x}");
        }
    }
}
