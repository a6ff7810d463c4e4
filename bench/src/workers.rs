//! Worker subprocesses for the multi-process workload.
//!
//! The benchmark binary re-executes itself as
//! `fineq-loadbench worker <unix:addr> [--trace-file <path>]`. Untraced,
//! that runs [`fineq::lm::run_worker_configured`] — the `fineq-worker`
//! code path. Traced, the connection loop is replaced by the same three
//! public calls it is made of (`read_frame` → [`Worker::handle`] →
//! `write_frame`) with a clock around `handle`, and the per-gather compute
//! times are written out on `SHUTDOWN`.
//!
//! Hermetic by construction: sockets live in a per-run directory under the
//! results directory, workers are stopped with a `SHUTDOWN` frame and
//! killed when the [`Fleet`] drops (panic included), and each worker exits
//! on its own when its stdin closes, i.e. when the benchmark process dies
//! without running destructors.

use fineq::core::{read_frame, write_frame, FrameError, Listener};
use fineq::lm::remote::{WorkerReply, KIND_GATHER};
use fineq::lm::{TransportError, Worker};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Wall-clock microseconds: the one clock the benchmark and its worker
/// processes share.
pub fn unix_micros() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_micros() as u64)
}

/// Exits the process once stdin reaches end-of-file: the parent holds the
/// other end of the pipe, so this fires exactly when the parent is gone.
fn exit_when_parent_dies() {
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(3);
    });
}

/// The `worker` subcommand.
///
/// # Errors
///
/// Returns bind/accept failures; a traced worker also returns the error of
/// writing its trace file.
pub fn worker_main(addr: &str, trace_file: Option<&Path>) -> Result<(), TransportError> {
    exit_when_parent_dies();
    match trace_file {
        None => fineq::lm::run_worker_configured(addr, None, None),
        Some(path) => traced_worker(addr, path),
    }
}

fn io_err(e: std::io::Error) -> TransportError {
    TransportError::Frame(FrameError::Io(e))
}

/// `run_worker` with a clock around each `Worker::handle` call. One line
/// per `GATHER`: `<unix µs at reply> <compute µs>`.
fn traced_worker(addr: &str, trace_file: &Path) -> Result<(), TransportError> {
    let listener = Listener::bind(addr).map_err(io_err)?;
    let bound = listener.local_addr().unwrap_or_else(|_| addr.to_owned());
    println!("fineq-worker listening on {bound}");
    std::io::stdout().flush().map_err(io_err)?;
    let mut worker = Worker::new();
    let mut gathers: Vec<(u64, u64)> = Vec::new();
    'accept: loop {
        let mut conn = listener.accept().map_err(io_err)?;
        loop {
            let (kind, payload) = match read_frame(&mut conn) {
                Ok(frame) => frame,
                Err(FrameError::Closed) => continue 'accept,
                Err(e) => {
                    eprintln!("fineq-worker: dropping connection: {e}");
                    continue 'accept;
                }
            };
            let t0 = Instant::now();
            let reply = worker.handle(kind, &payload)?;
            if kind == KIND_GATHER {
                gathers.push((unix_micros(), t0.elapsed().as_micros() as u64));
            }
            match reply {
                WorkerReply::Frame(k, p) => {
                    if let Err(e) = write_frame(&mut conn, k, &p) {
                        eprintln!("fineq-worker: dropping connection: {e}");
                        continue 'accept;
                    }
                }
                WorkerReply::Shutdown => break 'accept,
            }
        }
    }
    if let Some(path) = bound.strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(trace_file).map_err(io_err)?);
    for (at, us) in gathers {
        writeln!(out, "{at} {us}").map_err(io_err)?;
    }
    out.flush().map_err(io_err)
}

/// Reads a traced worker's file back: `(unix µs at reply, compute µs)`.
pub fn read_worker_trace(path: &Path) -> Vec<(u64, u64)> {
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    text.lines()
        .filter_map(|line| {
            let (at, us) = line.split_once(' ')?;
            Some((at.parse().ok()?, us.parse().ok()?))
        })
        .collect()
}

/// Running worker subprocesses and the directory their sockets live in.
pub struct Fleet {
    dir: PathBuf,
    workers: Vec<Child>,
    addrs: Vec<String>,
    trace_files: Vec<PathBuf>,
}

impl Fleet {
    /// Spawns `n` workers and waits until each announces its socket.
    /// `dir` is created and owned by the fleet (removed on drop).
    ///
    /// # Errors
    ///
    /// Returns a message if a worker cannot be spawned or exits before
    /// listening. Workers already started are stopped.
    pub fn spawn(dir: &Path, n: usize, traced: bool) -> Result<Fleet, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut fleet = Fleet {
            dir: dir.to_owned(),
            workers: Vec::new(),
            addrs: Vec::new(),
            trace_files: Vec::new(),
        };
        for i in 0..n {
            let addr = format!("unix:{}", dir.join(format!("w{i}.sock")).display());
            let mut cmd = Command::new(&exe);
            cmd.arg("worker").arg(&addr);
            if traced {
                let file = dir.join(format!("w{i}.trace"));
                cmd.arg("--trace-file").arg(&file);
                fleet.trace_files.push(file);
            }
            let mut child = cmd
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn worker {i}: {e}"))?;
            let stdout = child.stdout.take().expect("piped stdout");
            fleet.workers.push(child);
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| format!("worker {i} stdout: {e}"))?;
            if !line.contains("listening on") {
                return Err(format!("worker {i} exited before listening: {line:?}"));
            }
            fleet.addrs.push(addr);
        }
        Ok(fleet)
    }

    /// `replica_addrs` for `serve_distributed`: one replica per shard.
    pub fn replica_addrs(&self) -> Vec<Vec<String>> {
        self.addrs.iter().map(|a| vec![a.clone()]).collect()
    }

    pub fn pids(&self) -> Vec<u32> {
        self.workers.iter().map(Child::id).collect()
    }

    /// Workers that have already exited — before `SHUTDOWN` that is a
    /// failed run.
    pub fn exited_early(&mut self) -> Vec<usize> {
        self.workers
            .iter_mut()
            .enumerate()
            .filter_map(|(i, w)| matches!(w.try_wait(), Ok(Some(_))).then_some(i))
            .collect()
    }

    /// Waits for every worker to exit after the coordinator sent
    /// `SHUTDOWN`, then returns what traced workers wrote.
    pub fn join(mut self) -> Vec<Vec<(u64, u64)>> {
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        for w in &mut self.workers {
            while Instant::now() < deadline && matches!(w.try_wait(), Ok(None)) {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        self.trace_files.iter().map(|f| read_worker_trace(f)).collect()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for w in &mut self.workers {
            if matches!(w.try_wait(), Ok(None)) {
                let _ = w.kill();
            }
            let _ = w.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
