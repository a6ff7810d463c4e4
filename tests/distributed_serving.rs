//! Multi-process sharded serving suite — the distributed-gate oracle.
//!
//! Every test here boots **real `fineq-worker` subprocesses** (Unix
//! sockets in a tempdir) and asserts the distributed token stream is
//! `assert_eq!`-identical to the in-process unsharded [`BatchScheduler`]
//! run with the same seeds — including a run where one worker is
//! SIGKILLed mid-run with replicas enabled (the failover oracle). The
//! `distributed-gate` CI job runs these tests on every push; the gate
//! tests additionally pin the output digest to [`GATE_OUTPUT_HASH`], a
//! source constant, so in-process and multi-process are held to one
//! recorded token stream.

use fineq::core::frame::{read_frame, write_frame, FrameError, Stream};
use fineq::core::FineQuantizer;
use fineq::lm::builder::{llm_like_matrix, BuilderSpec};
use fineq::lm::{
    BatchScheduler, DistributedScheduler, FinishedSequence, ModelConfig, RemoteShardedModel,
    ServeRequest, Transformer, WeightSite, WorkerEvent,
};
use fineq::tensor::{Matrix, Rng};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// A worker subprocess bound to a Unix socket, killed on drop so a failed
/// assertion never leaks processes.
struct WorkerProc {
    child: Child,
    addr: String,
}

static NEXT_SOCKET: AtomicU64 = AtomicU64::new(0);

impl WorkerProc {
    /// Spawns `fineq-worker` on a fresh tempdir socket and waits until the
    /// socket is accepting.
    fn spawn() -> Self {
        let n = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
        let path: PathBuf =
            std::env::temp_dir().join(format!("fineq-w-{}-{n}.sock", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let mut child = Command::new(env!("CARGO_BIN_EXE_fineq-worker"))
            .arg(&addr)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn fineq-worker");
        // Wait for the worker's own announcement, not for the socket file:
        // the file appears at bind(), one syscall before listen(), and a
        // connect landing in between is refused.
        let mut announced = String::new();
        BufReader::new(child.stdout.as_mut().expect("piped stdout"))
            .read_line(&mut announced)
            .expect("worker stdout");
        assert!(announced.contains("listening on"), "worker never bound {addr}: {announced:?}");
        Self { child, addr }
    }

    fn sigkill(&mut self) {
        self.child.kill().expect("SIGKILL worker");
        self.child.wait().expect("reap worker");
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_workers(n: usize) -> Vec<WorkerProc> {
    (0..n).map(|_| WorkerProc::spawn()).collect()
}

/// One replica per shard: `workers[i]` serves shard `i` alone.
fn solo_groups(workers: &[WorkerProc]) -> Vec<Vec<String>> {
    workers.iter().map(|w| vec![w.addr.clone()]).collect()
}

/// A fully packed random model (same construction as the sharded suite).
fn packed_model(d_ff: usize, seed: u64) -> Transformer {
    let cfg = ModelConfig::new(24, 8, 2, 2, d_ff);
    let mut m = Transformer::zeros(cfg.clone());
    let mut rng = Rng::seed_from(seed);
    *m.embedding_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.4));
    *m.head_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.4));
    let q = FineQuantizer::paper();
    for l in 0..m.n_layers() {
        for site in WeightSite::ALL {
            let (r, c) = {
                let w = m.weight(l, site);
                (w.rows(), w.cols())
            };
            let dense = Matrix::from_fn(r, c, |_, _| {
                let v = rng.laplace(0.0, 0.04);
                if rng.chance(0.04) {
                    v * 10.0
                } else {
                    v
                }
            });
            *m.weight_mut(l, site) = q.quantize_packed(&dense).into();
        }
    }
    m
}

/// The gate model — serving-shaped widths, the same config, seed and
/// draw order as `bench/`'s `gate_model()` — packed at every site.
fn gate_packed_model() -> Transformer {
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
    let q = FineQuantizer::paper();
    let mut packed = dense.clone();
    for l in 0..dense.n_layers() {
        for site in WeightSite::ALL {
            let p = q.quantize_packed(dense.weight(l, site).dense());
            *packed.weight_mut(l, site) = p.into();
        }
    }
    packed
}

/// The seeded gate workload (temperature sampling, eos retirement,
/// backfill through 4 slots).
fn submit_gate_workload(vocab: usize, mut submit: impl FnMut(ServeRequest)) {
    for id in 0..6u64 {
        let prompt: Vec<usize> =
            (0..3 + id as usize % 3).map(|i| (id as usize * 11 + i * 5) % vocab).collect();
        submit(ServeRequest {
            temperature: 0.9,
            seed: 700 + id,
            eos: Some(0),
            ..ServeRequest::new(id, prompt, 6 + id as usize % 3)
        });
    }
}

/// The output digest: FNV-1a over sorted finished sequences.
fn finished_hash(mut done: Vec<FinishedSequence>) -> u64 {
    done.sort_by_key(|f| f.id);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &done {
        eat(f.id);
        eat(f.prompt_len as u64);
        for &t in &f.generated {
            eat(t as u64);
        }
    }
    h
}

/// [`finished_hash`] of the gate workload on the gate model through the
/// in-process `BatchScheduler`. Re-pin only in a change that deliberately
/// alters served tokens (a kernel that changes f32 summation order).
const GATE_OUTPUT_HASH: u64 = 0x7d62_b489_c6e4_91d4;

/// The distributed token stream equals the in-process unsharded
/// `BatchScheduler` run exactly — real subprocesses, 2 and 3 workers.
#[test]
fn multi_process_stream_matches_in_process() {
    let model = packed_model(16, 3);
    let vocab = model.config().vocab;
    let reference = {
        let mut sched = BatchScheduler::new(model.clone(), 4);
        submit_gate_workload(vocab, |r| sched.submit(r).expect("no KV budget"));
        sched.run()
    };
    for n_workers in [2usize, 3] {
        let workers = spawn_workers(n_workers);
        let remote = RemoteShardedModel::connect(&model, &solo_groups(&workers))
            .expect("connect coordinator");
        let mut sched = DistributedScheduler::new(remote, 4);
        assert_eq!(sched.n_shards(), n_workers);
        submit_gate_workload(vocab, |r| sched.submit(r).expect("no KV budget"));
        let done = sched.run();
        assert_eq!(done, reference, "{n_workers} worker processes");
        assert!(sched.model().take_events().is_empty(), "healthy run records no events");
        sched.model().shutdown_workers();
    }
}

/// SIGKILL one worker mid-run with replicas enabled: the token stream is
/// still byte-identical, and the death + failover are reported as typed
/// events. Whichever exchange the kill interrupts — a Q/K/V group
/// `GATHER` carries three sites' work — failover must replay that request
/// on the spare under the original nonce.
/// This is the failover oracle the `distributed-gate` CI job enforces on
/// every host.
#[test]
fn sigkilled_worker_is_output_invisible_with_replicas() {
    let model = packed_model(16, 4);
    let vocab = model.config().vocab;
    let reference = {
        let mut sched = BatchScheduler::new(model.clone(), 4);
        submit_gate_workload(vocab, |r| sched.submit(r).expect("no KV budget"));
        sched.run()
    };
    // 2 shards x 2 replicas.
    let mut workers = spawn_workers(4);
    let groups = vec![
        vec![workers[0].addr.clone(), workers[1].addr.clone()],
        vec![workers[2].addr.clone(), workers[3].addr.clone()],
    ];
    let remote = RemoteShardedModel::connect(&model, &groups).expect("connect coordinator");
    let mut sched = DistributedScheduler::new(remote, 4);
    submit_gate_workload(vocab, |r| sched.submit(r).expect("no KV budget"));
    // Let the run get under way, then kill shard 0's primary replica.
    for _ in 0..2 {
        sched.step();
    }
    workers[0].sigkill();
    let mut done = sched.take_finished();
    done.extend(sched.run());
    done.sort_by_key(|f| f.id);
    let mut expect = reference.clone();
    expect.sort_by_key(|f| f.id);
    assert_eq!(done, expect, "a SIGKILLed replica must be output-invisible");
    let events = sched.model().take_events();
    assert!(
        events.iter().any(|e| matches!(e, WorkerEvent::WorkerDied { shard: 0, replica: 0, .. })),
        "the kill must surface as a typed event: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(e, WorkerEvent::FailedOver { shard: 0, to_replica: 1, .. })),
        "failover must surface as a typed event: {events:?}"
    );
    let health = sched.model().heartbeat();
    assert_eq!(health.live_per_shard, vec![1, 2]);
    assert!(health.serviceable());
    sched.model().shutdown_workers();
}

/// The distributed-gate hash check: the gate workload through 3 worker
/// subprocesses produces the exact output hash of the in-process run —
/// which is the pinned [`GATE_OUTPUT_HASH`].
#[test]
fn distributed_gate_hash_matches_in_process_and_pinned() {
    let packed = gate_packed_model();
    let vocab = packed.config().vocab;
    let in_process = {
        let mut sched = BatchScheduler::new(packed.clone(), 4);
        submit_gate_workload(vocab, |r| sched.submit(r).expect("no KV budget"));
        finished_hash(sched.run())
    };
    assert_eq!(
        format!("{in_process:016x}"),
        format!("{GATE_OUTPUT_HASH:016x}"),
        "in-process hash must match the pinned gate hash"
    );
    let workers = spawn_workers(3);
    let remote =
        RemoteShardedModel::connect(&packed, &solo_groups(&workers)).expect("connect coordinator");
    let mut sched = DistributedScheduler::new(remote, 4);
    submit_gate_workload(vocab, |r| sched.submit(r).expect("no KV budget"));
    let distributed = finished_hash(sched.run());
    assert_eq!(
        format!("{distributed:016x}"),
        format!("{in_process:016x}"),
        "3 worker processes must reproduce the pinned gate hash"
    );
    sched.model().shutdown_workers();
}

/// Transport abuse against a live worker process: corrupt bytes drop the
/// connection (no hang, no resync) but the worker survives for the next
/// connection; well-framed garbage gets a typed `ERROR` reply on a
/// connection that keeps serving; `SHUTDOWN` exits the process cleanly.
#[test]
fn worker_survives_corrupt_frames_and_rejects_garbage() {
    const KIND_PING: u8 = 5;
    const KIND_PONG: u8 = 6;
    const KIND_SHUTDOWN: u8 = 7;
    const KIND_ERROR: u8 = 0xEE;
    let mut workers = spawn_workers(1);
    // Corruption: garbage that cannot be a frame. The worker must drop
    // the connection — observed as EOF here — not hang or answer.
    {
        let mut conn = Stream::connect(&workers[0].addr).expect("connect");
        use std::io::Write as _;
        conn.write_all(b"these bytes are not a frame, not even close").expect("write garbage");
        conn.flush().expect("flush");
        match read_frame(&mut conn) {
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => {}
            other => panic!("worker must drop a corrupted connection, got {other:?}"),
        }
    }
    // The worker survives: a fresh connection serves.
    let mut conn = Stream::connect(&workers[0].addr).expect("reconnect");
    write_frame(&mut conn, KIND_PING, b"alive?").expect("ping");
    let (kind, payload) = read_frame(&mut conn).expect("pong");
    assert_eq!((kind, payload.as_slice()), (KIND_PONG, b"alive?".as_slice()));
    // Well-framed garbage: typed ERROR reply, connection keeps serving.
    write_frame(&mut conn, 0x42, b"junk").expect("unknown kind");
    let (kind, msg) = read_frame(&mut conn).expect("error reply");
    assert_eq!(kind, KIND_ERROR);
    assert!(String::from_utf8_lossy(&msg).contains("unknown frame kind"));
    write_frame(&mut conn, KIND_PING, b"still here?").expect("ping again");
    let (kind, _) = read_frame(&mut conn).expect("pong again");
    assert_eq!(kind, KIND_PONG);
    // Clean shutdown: the process exits with success and removes its
    // socket file so a restart can rebind the same path.
    write_frame(&mut conn, KIND_SHUTDOWN, &[]).expect("shutdown");
    let status = workers[0].child.wait().expect("worker exit");
    assert!(status.success(), "worker must exit cleanly on SHUTDOWN: {status:?}");
    let path = workers[0].addr.strip_prefix("unix:").expect("unix worker");
    assert!(
        !std::path::Path::new(path).exists(),
        "clean SHUTDOWN must remove the Unix socket file {path}"
    );
}

/// `serve_distributed` — the one-call pipeline entry — quantizes, ships
/// shards and matches `serve_packed` exactly.
#[test]
fn serve_distributed_matches_serve_packed() {
    use fineq::pipeline::{serve_distributed, serve_packed_with_threads, PipelineConfig};
    let corpus = fineq::lm::Corpus::wiki_like(64, 77);
    let (model, _) = fineq::lm::build_fitted_model(&BuilderSpec::tiny(), &corpus, 3_000, 5);
    let cfg = PipelineConfig::default();
    let q = FineQuantizer::paper();
    let submit = |sub: &mut dyn FnMut(ServeRequest)| {
        for id in 0..3u64 {
            let prompt = corpus.generate(4, 300 + id).tokens().to_vec();
            sub(ServeRequest {
                temperature: 0.8,
                seed: 60 + id,
                ..ServeRequest::new(id, prompt, 5)
            });
        }
    };
    let (mut plain, _) = serve_packed_with_threads(&model, &q, &cfg, 2, 1);
    submit(&mut |r| plain.submit(r).expect("no KV budget"));
    let reference = plain.run();
    let workers = spawn_workers(2);
    let (mut sched, report) =
        serve_distributed(&model, &q, &cfg, 2, &solo_groups(&workers)).expect("serve_distributed");
    assert_eq!(sched.n_shards(), 2);
    assert_eq!(report.sites.len(), model.n_layers() * 6);
    submit(&mut |r| sched.submit(r).expect("no KV budget"));
    assert_eq!(sched.run(), reference);
    sched.model().shutdown_workers();
}
