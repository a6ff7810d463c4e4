//! A seeded in-process fleet: the coordinator's [`Link`]s to simulated
//! replicas, each request answered by that replica's real
//! [`Worker::handle`].
//!
//! A [`SimFleet`] stands where worker processes and sockets would: its
//! [`SimFleet::dialer`] is the coordinator's one way to open a link, and
//! every frame written to a [`SimLink`] is parsed with the real
//! [`read_frame`], handled by the replica's [`Worker`], and the reply's
//! bytes are parsed again by the real [`read_frame`] on the way back — so
//! a corrupt byte meets the real checksum. Between those two parses the
//! link applies a [`Fault`] when the replica's script names the exchange,
//! or, once the fleet is armed, with the fleet's per-exchange rate drawn
//! from a generator seeded by `(seed, replica, link ordinal)`. Each
//! replica's links are opened one at a time, so the draws, and with them
//! every replica's fault log, replay exactly from the seed however the
//! coordinator's parallel handshakes interleave.
//!
//! There is no wall clock: a blackholed read or write, and a reply held
//! past its deadline, fail with [`FrameError::TimedOut`] at once. The one
//! exception is [`Fault::Stall`], whose read really blocks for its whole
//! budget — what an observer thread needs to prove it never waits on
//! the coordinator's fleet I/O.
//!
//! The fleet also keeps the books the invariants are checked against:
//! which replicas are down ([`SimFleet::down`]) and every link the
//! coordinator shut down while nothing had gone wrong on it
//! ([`SimFleet::take_violations`]).

use fineq::core::frame::{frame_bytes, read_frame, FrameError, Link};
use fineq::lm::remote::{WorkerReply, KIND_LOAD, KIND_LOADED, KIND_PARTIAL, PROTOCOL_VERSION};
use fineq::lm::{Dialer, RemoteShardedModel, Transformer, TransportConfig, TransportError, Worker};
use fineq::tensor::Rng;
use std::io::{self, Read};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// One fault on one exchange (a request frame and its reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The bytes stop at byte `at` (modulo the frame's length) of the
    /// request (`reply: false`) or of the reply, and the connection
    /// closes there.
    Cut {
        /// Whether the reply (else the request) is cut.
        reply: bool,
        /// Cut position, taken modulo the frame's length.
        at: usize,
    },
    /// One bit of byte `at` (modulo the frame's length) of the request
    /// or of the reply is flipped. A corrupt request makes the worker
    /// drop the connection, as `serve_connection` does.
    Corrupt {
        /// Whether the reply (else the request) is corrupted.
        reply: bool,
        /// Byte position, taken modulo the frame's length; the bit is
        /// `at % 8`.
        at: usize,
    },
    /// Nothing crosses the link any more: this write times out
    /// (`on_write`), or it is swallowed and the read after it times out.
    Blackhole {
        /// Whether the write itself times out.
        on_write: bool,
    },
    /// The worker handles the request, but its reply arrives after the
    /// deadline.
    Late,
    /// A `PARTIAL` reply arrives twice.
    Duplicate,
    /// An earlier `PARTIAL` of this replica arrives ahead of the reply.
    Stale,
    /// A `PARTIAL` reply names a nonce nobody sent, resealed so that it
    /// passes the checksum.
    UnknownNonce,
    /// The worker handles the request, and the read of its reply blocks
    /// for the read's whole budget, then times out.
    Stall,
}

impl Fault {
    /// A fault drawn from `rng`: every kind but the real-time `Stall`.
    fn draw(rng: &mut Rng) -> Fault {
        let at = rng.below(1 << 20);
        match rng.below(8) {
            0 => Fault::Cut { reply: false, at },
            1 => Fault::Cut { reply: true, at },
            2 => Fault::Corrupt { reply: false, at },
            3 => Fault::Corrupt { reply: true, at },
            4 => Fault::Blackhole { on_write: rng.chance(0.5) },
            5 => Fault::Late,
            6 => Fault::Duplicate,
            _ => match rng.below(2) {
                0 => Fault::Stale,
                _ => Fault::UnknownNonce,
            },
        }
    }
}

/// Earlier `PARTIAL` frames a replica keeps for [`Fault::Stale`].
const STALE_KEPT: usize = 4;

struct SimReplica {
    worker: Worker,
    /// Dials are refused while killed.
    killed: bool,
    /// Set by a `SHUTDOWN` frame: the worker exited, dials are refused.
    exited: bool,
    /// Its `LOADED` acks name another protocol version.
    other_version: bool,
    /// Bumped on every kill: a link opened in an earlier epoch has lost
    /// its peer.
    epoch: u64,
    dials: u64,
    /// Links opened so far; the last one is the link the coordinator
    /// holds, if it holds one.
    links: u64,
    /// A fault hit the newest link, or the replica was killed since it
    /// was opened.
    newest_faulted: bool,
    /// Faults scripted by `(link ordinal, exchange ordinal)`.
    script: Vec<(u64, u64, Fault)>,
    partials: Vec<Vec<u8>>,
    log: Vec<String>,
}

struct Fleet {
    seed: u64,
    /// Per-exchange probability of a drawn fault once armed.
    rate: f64,
    armed: bool,
    replicas: Vec<SimReplica>,
    violations: Vec<String>,
}

/// A simulated fleet of `shards × replicas` workers, addressed
/// `sim:<shard · replicas + replica>`.
#[derive(Clone)]
pub struct SimFleet {
    fleet: Arc<Mutex<Fleet>>,
    shards: usize,
    replicas: usize,
}

fn lock(fleet: &Mutex<Fleet>) -> MutexGuard<'_, Fleet> {
    fleet.lock().expect("no panic while the simulated fleet is locked")
}

impl SimFleet {
    /// A fleet whose links fault at `rate` per exchange once armed, drawn
    /// from `seed`.
    pub fn new(shards: usize, replicas: usize, seed: u64, rate: f64) -> Self {
        let replica = || SimReplica {
            worker: Worker::new(),
            killed: false,
            exited: false,
            other_version: false,
            epoch: 0,
            dials: 0,
            links: 0,
            newest_faulted: false,
            script: Vec::new(),
            partials: Vec::new(),
            log: Vec::new(),
        };
        let fleet = Fleet {
            seed,
            rate,
            armed: false,
            replicas: (0..shards * replicas).map(|_| replica()).collect(),
            violations: Vec::new(),
        };
        SimFleet { fleet: Arc::new(Mutex::new(fleet)), shards, replicas }
    }

    /// The replica index of `(shard, replica)`.
    pub fn index(&self, shard: usize, replica: usize) -> usize {
        shard * self.replicas + replica
    }

    /// Replica addresses per shard, as the coordinator takes them.
    fn addrs(&self) -> Vec<Vec<String>> {
        (0..self.shards)
            .map(|s| (0..self.replicas).map(|r| format!("sim:{}", self.index(s, r))).collect())
            .collect()
    }

    /// The coordinator's dialer: a [`SimLink`] to the addressed replica,
    /// or `ConnectionRefused` while it is killed or has exited.
    fn dialer(&self) -> Box<Dialer> {
        let fleet = Arc::clone(&self.fleet);
        Box::new(move |addr: &str, _: &TransportConfig| {
            let idx: usize = addr
                .strip_prefix("sim:")
                .and_then(|i| i.parse().ok())
                .ok_or_else(|| io_error(io::ErrorKind::InvalidInput))?;
            let mut f = lock(&fleet);
            let seed = f.seed;
            let r = &mut f.replicas[idx];
            r.dials += 1;
            if r.killed || r.exited {
                return Err(io_error(io::ErrorKind::ConnectionRefused));
            }
            let link = r.links;
            r.links += 1;
            r.newest_faulted = false;
            let rng = Rng::seed_from(seed ^ ((idx as u64) << 40) ^ link.wrapping_mul(0x9E37_79B9));
            let sim = SimLink {
                fleet: Arc::clone(&fleet),
                idx,
                epoch: r.epoch,
                link,
                exchanges: 0,
                rng,
                inbox: Vec::new(),
                read: 0,
                state: State::Open,
                stalled: false,
                faulted: false,
                other_version_acked: false,
                sent_shutdown: false,
            };
            Ok(Box::new(sim) as Box<dyn Link>)
        })
    }

    /// Connects a coordinator to the fleet through its dialer, then arms
    /// the drawn faults: setup itself runs clean.
    pub fn connect(&self, model: &Transformer, tc: TransportConfig) -> RemoteShardedModel {
        let remote = RemoteShardedModel::connect_via(model, &self.addrs(), tc, self.dialer())
            .expect("a clean simulated fleet connects");
        lock(&self.fleet).armed = true;
        remote
    }

    /// Scripts `fault` on exchange `exchange` of replica `idx`'s link
    /// number `link` (0 is the setup link; exchanges count request
    /// frames, `LOAD`s included).
    pub fn script(&self, idx: usize, link: u64, exchange: u64, fault: Fault) {
        lock(&self.fleet).replicas[idx].script.push((link, exchange, fault));
    }

    /// Kills replica `idx`: its links lose their peer, dials are refused
    /// and the worker's loaded slices are gone.
    pub fn kill(&self, idx: usize) {
        let mut f = lock(&self.fleet);
        let r = &mut f.replicas[idx];
        r.killed = true;
        r.epoch += 1;
        r.worker = Worker::new();
        r.newest_faulted = true;
        r.log.push("killed".into());
    }

    /// Brings replica `idx` back, empty; with `other_version` its
    /// `LOADED` acks name another protocol version.
    pub fn revive(&self, idx: usize, other_version: bool) {
        let mut f = lock(&self.fleet);
        let r = &mut f.replicas[idx];
        r.killed = false;
        r.other_version = other_version;
        r.log.push(format!("revived other_version={other_version}"));
    }

    /// Whether replica `idx` is killed.
    pub fn killed(&self, idx: usize) -> bool {
        lock(&self.fleet).replicas[idx].killed
    }

    /// Whether replica `idx` acks another protocol version.
    pub fn other_version(&self, idx: usize) -> bool {
        lock(&self.fleet).replicas[idx].other_version
    }

    /// Whether the coordinator may hold replica `idx` dead: it is killed
    /// or speaks another version, or a fault hit its newest link (or it
    /// was killed since that link opened).
    pub fn down(&self, idx: usize) -> bool {
        let f = lock(&self.fleet);
        let r = &f.replicas[idx];
        r.killed || r.other_version || r.newest_faulted
    }

    /// Dial attempts at replica `idx`, refused ones included.
    pub fn dials(&self, idx: usize) -> u64 {
        lock(&self.fleet).replicas[idx].dials
    }

    /// Every replica's fault, kill and revive log, in its own order.
    pub fn logs(&self) -> Vec<Vec<String>> {
        lock(&self.fleet).replicas.iter().map(|r| r.log.clone()).collect()
    }

    /// Links the coordinator shut down (a death) while no fault had hit
    /// them and their replica lived, plus links used past a refused
    /// version; drained.
    pub fn take_violations(&self) -> Vec<String> {
        std::mem::take(&mut lock(&self.fleet).violations)
    }
}

fn io_error(kind: io::ErrorKind) -> TransportError {
    TransportError::Frame(FrameError::Io(kind.into()))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Open,
    /// The peer closed: reads drain what arrived, then see end of stream.
    Closed,
    /// Nothing crosses any more: every read and write times out.
    Hung,
}

/// One simulated connection to a replica.
pub struct SimLink {
    fleet: Arc<Mutex<Fleet>>,
    idx: usize,
    epoch: u64,
    link: u64,
    exchanges: u64,
    rng: Rng,
    /// Reply bytes that crossed the link, read from `read` on.
    inbox: Vec<u8>,
    read: usize,
    state: State,
    /// The next read blocks for its whole budget ([`Fault::Stall`]).
    stalled: bool,
    faulted: bool,
    other_version_acked: bool,
    sent_shutdown: bool,
}

impl SimLink {
    /// Marks this link faulted (and, when it is the replica's newest
    /// link, the replica) and logs what hit which exchange.
    fn fault(&mut self, r: &mut SimReplica, exchange: u64, kind: u8, fault: Fault) {
        self.faulted = true;
        if self.link + 1 == r.links {
            r.newest_faulted = true;
        }
        r.log.push(format!("link {} exchange {exchange} kind {kind:#04x}: {fault:?}", self.link));
    }
}

impl Link for SimLink {
    fn send(&mut self, frame: &[u8], _: Duration) -> Result<(), FrameError> {
        let fleet = Arc::clone(&self.fleet);
        let mut f = lock(&fleet);
        let (armed, rate) = (f.armed, f.rate);
        let Fleet { replicas, violations, .. } = &mut *f;
        let r = &mut replicas[self.idx];
        if r.epoch != self.epoch || self.state == State::Closed {
            return Err(FrameError::Io(io::ErrorKind::BrokenPipe.into()));
        }
        if self.state == State::Hung {
            return Err(FrameError::TimedOut);
        }
        let exchange = self.exchanges;
        self.exchanges += 1;
        let scripted = r.script.iter().find(|s| (s.0, s.1) == (self.link, exchange));
        let fault = match scripted {
            Some(&(_, _, fault)) => Some(fault),
            None => (armed && self.rng.chance(rate)).then(|| Fault::draw(&mut self.rng)),
        };
        let (kind, payload) =
            read_frame(&mut &frame[..]).expect("the coordinator sends whole frames");
        if self.other_version_acked && kind != KIND_LOAD {
            violations.push(format!(
                "replica {} link {}: kind {kind:#04x} sent past a LOADED of another version",
                self.idx, self.link
            ));
        }
        // Request-side faults: the worker never handles the request.
        match fault {
            Some(f @ Fault::Cut { reply: false, .. }) => {
                self.fault(r, exchange, kind, f);
                self.state = State::Closed;
                return Err(FrameError::Io(io::ErrorKind::ConnectionReset.into()));
            }
            Some(f @ Fault::Corrupt { reply: false, at }) => {
                self.fault(r, exchange, kind, f);
                let mut bad = frame.to_vec();
                bad[at % frame.len()] ^= 1 << (at % 8);
                assert!(read_frame(&mut &bad[..]).is_err(), "a flipped bit must not parse");
                // The worker drops a connection it cannot parse.
                self.state = State::Closed;
                return Ok(());
            }
            Some(f @ Fault::Blackhole { on_write }) => {
                self.fault(r, exchange, kind, f);
                self.state = State::Hung;
                return if on_write { Err(FrameError::TimedOut) } else { Ok(()) };
            }
            _ => {}
        }
        let (reply_kind, mut reply) = match r.worker.handle(kind, &payload) {
            Ok(WorkerReply::Frame(k, p)) => (k, p),
            Ok(WorkerReply::Shutdown) => {
                r.exited = true;
                self.sent_shutdown = true;
                self.state = State::Closed;
                return Ok(());
            }
            Err(e) => panic!("Worker::handle never errs: {e}"),
        };
        if reply_kind == KIND_LOADED && r.other_version {
            reply[4..6].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
            self.other_version_acked = true;
        }
        let stale = match r.partials.len() {
            0 => None,
            n => Some(r.partials[self.rng.below(n)].clone()),
        };
        let mut bytes = frame_bytes(reply_kind, &reply);
        if reply_kind == KIND_PARTIAL {
            if r.partials.len() == STALE_KEPT {
                r.partials.remove(0);
            }
            r.partials.push(bytes.clone());
        }
        let partial = reply_kind == KIND_PARTIAL;
        let fired = match fault {
            None => false,
            Some(Fault::Cut { at, .. }) => {
                bytes.truncate(at % bytes.len());
                self.state = State::Closed;
                true
            }
            Some(Fault::Corrupt { at, .. }) => {
                let len = bytes.len();
                bytes[at % len] ^= 1 << (at % 8);
                true
            }
            Some(Fault::Late) => {
                bytes.clear();
                self.state = State::Hung;
                true
            }
            Some(Fault::Stall) => {
                bytes.clear();
                self.stalled = true;
                true
            }
            Some(Fault::Duplicate) if partial => {
                bytes.extend_from_within(..);
                true
            }
            Some(Fault::Stale) => match stale {
                Some(old) => {
                    bytes.splice(0..0, old);
                    true
                }
                None => false,
            },
            Some(Fault::UnknownNonce) if partial => {
                let nonce = u64::from_le_bytes(reply[..8].try_into().expect("nonce"));
                reply[..8].copy_from_slice(&(!nonce).to_le_bytes());
                bytes = frame_bytes(reply_kind, &reply);
                true
            }
            Some(_) => false,
        };
        if let (true, Some(f)) = (fired, fault) {
            self.fault(r, exchange, kind, f);
        }
        self.inbox.extend_from_slice(&bytes);
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Result<(u8, Vec<u8>), FrameError> {
        if std::mem::take(&mut self.stalled) {
            self.state = State::Hung;
            std::thread::sleep(timeout);
            return Err(FrameError::TimedOut);
        }
        if self.state == State::Hung {
            return Err(FrameError::TimedOut);
        }
        let peer_gone = lock(&self.fleet).replicas[self.idx].epoch != self.epoch;
        let mut inbox = Inbox {
            bytes: &self.inbox,
            read: &mut self.read,
            eof: peer_gone || self.state == State::Closed,
        };
        let got = read_frame(&mut inbox);
        if self.read == self.inbox.len() {
            self.inbox.clear();
            self.read = 0;
        }
        got
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let mut f = lock(&self.fleet);
        let peer_gone = f.replicas[self.idx].epoch != self.epoch;
        if !(self.faulted || peer_gone || self.sent_shutdown) {
            let msg =
                format!("replica {} link {} shut down with no fault on it", self.idx, self.link);
            f.violations.push(msg);
        }
        self.state = State::Closed;
        Ok(())
    }
}

/// The reply bytes as a byte stream: what arrived, then end of stream
/// once the peer closed — or, while it stays open, a read that times
/// out, as a socket read past the last byte would.
struct Inbox<'a> {
    bytes: &'a [u8],
    read: &'a mut usize,
    eof: bool,
}

impl Read for Inbox<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = &self.bytes[*self.read..];
        if left.is_empty() {
            return if self.eof { Ok(0) } else { Err(io::ErrorKind::TimedOut.into()) };
        }
        let n = left.len().min(buf.len());
        buf[..n].copy_from_slice(&left[..n]);
        *self.read += n;
        Ok(n)
    }
}
