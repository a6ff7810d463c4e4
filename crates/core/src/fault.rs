//! Scripted fault injection for the transport layer.
//!
//! The distributed serving path claims to survive hung, stalling,
//! corrupting and vanishing peers ([`crate::frame`] supplies the
//! deadlines, `fineq-lm`'s coordinator the failover). Claims need a way
//! to *script* those failures deterministically, which is what this
//! module provides:
//!
//! - [`FaultAction`] — one primitive fault: pass N bytes untouched,
//!   delay, corrupt a byte, swallow everything from now on (a hang), or
//!   cut the connection.
//! - [`FaultScript`] — a sequence of actions applied to one connection's
//!   byte stream, in order; an exhausted script passes everything.
//! - [`FaultPlan`] — scripts per accepted connection (`None` refuses the
//!   connection outright), with the last entry repeating — so
//!   "partition, refuse two reconnects, then heal" is three entries.
//! - [`FaultStream`] — a [`Stream`] wrapper applying a script to the
//!   bytes crossing it, in both directions, under one shared budget.
//! - [`FaultProxy`] — a loopback TCP proxy in front of a real worker:
//!   each accepted connection is relayed through a [`FaultStream`]
//!   scripted by the plan. The system under test only sees the proxy's
//!   address, so faults are injected without touching worker code.
//!
//! Composite failure modes are spellings of the primitives:
//! drop-after-N-bytes is `[Pass(n), Cut]`, a mid-protocol hang is
//! `[Pass(n), Blackhole]`, partition-then-heal is a cutting first
//! connection, refused retries, then a pass-through script. Seeded
//! random scripts ([`FaultScript::seeded`]) derive from the same
//! [splitmix64](crate::retry) mix the retry jitter uses: no clock, no
//! global RNG, bit-for-bit replayable.

use crate::frame::{Listener, Stream};
use crate::retry::splitmix64;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One primitive fault applied to a connection's byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass the next `n` bytes through untouched. Bytes in both
    /// directions count against the same budget, in transfer order.
    Pass(usize),
    /// Stall the stream once for the given duration, then move on.
    Delay(Duration),
    /// Flip one bit of the next byte transferred (`^= 0x20`), leaving
    /// the stream otherwise intact — the checksum-corruption fault.
    CorruptByte,
    /// Swallow every subsequent byte in both directions while keeping
    /// the connection open: the peer appears hung, not dead. Terminal.
    Blackhole,
    /// Shut the connection down now. Terminal.
    Cut,
}

/// An ordered sequence of [`FaultAction`]s applied to one connection.
/// After the last action the stream passes through untouched.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultScript {
    /// The actions, applied front to back.
    pub actions: Vec<FaultAction>,
}

impl FaultScript {
    /// A script that never interferes.
    pub fn passthrough() -> Self {
        FaultScript::default()
    }

    /// Drop the connection after `n` bytes — the vanish-mid-frame fault.
    pub fn cut_after(n: usize) -> Self {
        FaultScript { actions: vec![FaultAction::Pass(n), FaultAction::Cut] }
    }

    /// Corrupt the byte after `n` clean ones, then pass everything.
    pub fn corrupt_after(n: usize) -> Self {
        FaultScript { actions: vec![FaultAction::Pass(n), FaultAction::CorruptByte] }
    }

    /// Hang (swallow forever, connection open) after `n` bytes.
    pub fn blackhole_after(n: usize) -> Self {
        FaultScript { actions: vec![FaultAction::Pass(n), FaultAction::Blackhole] }
    }

    /// Stall once for `delay` after `n` bytes, then pass everything.
    pub fn delay_after(n: usize, delay: Duration) -> Self {
        FaultScript { actions: vec![FaultAction::Pass(n), FaultAction::Delay(delay)] }
    }

    /// A deterministic pseudo-random script derived from `seed`: a few
    /// pass-then-fault rounds ending in one terminal fault (or none).
    /// The same seed always yields the same script.
    pub fn seeded(seed: u64) -> Self {
        let mut actions = Vec::new();
        let mut x = splitmix64(seed ^ 0xFA_17);
        let rounds = 1 + (x % 3) as usize;
        for round in 0..rounds {
            x = splitmix64(x);
            // Past the LOAD envelopes for tiny test models, inside the
            // gather traffic for longer runs.
            actions.push(FaultAction::Pass(2_000 + (x % 60_000) as usize));
            x = splitmix64(x);
            let terminal = round + 1 == rounds;
            match x % if terminal { 4 } else { 2 } {
                0 => actions.push(FaultAction::Delay(Duration::from_millis(1 + x % 20))),
                1 => actions.push(FaultAction::CorruptByte),
                2 => actions.push(FaultAction::Cut),
                _ => actions.push(FaultAction::Blackhole),
            }
        }
        FaultScript { actions }
    }
}

/// Fault scripts per accepted connection of a [`FaultProxy`].
///
/// `connections[i]` scripts the `i`-th accepted connection; `None`
/// refuses it (accepted, then immediately shut down — the peer sees a
/// reset before any byte). The **last entry repeats** for all later
/// connections; an empty plan passes everything through.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Per-connection scripts; the last entry repeats.
    pub connections: Vec<Option<FaultScript>>,
}

impl FaultPlan {
    /// A plan that never interferes.
    pub fn passthrough() -> Self {
        FaultPlan::default()
    }

    /// Every connection runs the same script (first faulty, then — since
    /// the script repeats but its faults are positional per connection —
    /// each reconnect replays the script from the top).
    pub fn each_connection(script: FaultScript) -> Self {
        FaultPlan { connections: vec![Some(script)] }
    }

    /// One faulty first connection, clean reconnects forever after — the
    /// transient-fault plan whose recovery must be output-invisible.
    pub fn first_connection(script: FaultScript) -> Self {
        FaultPlan { connections: vec![Some(script), Some(FaultScript::passthrough())] }
    }

    /// Partition then heal: the first connection is cut after
    /// `cut_after` bytes, the next `refused` reconnect attempts are
    /// refused outright, then connections pass through untouched.
    pub fn partition_then_heal(cut_after: usize, refused: usize) -> Self {
        let mut connections: Vec<Option<FaultScript>> =
            vec![Some(FaultScript::cut_after(cut_after))];
        connections.extend(std::iter::repeat_with(|| None).take(refused));
        connections.push(Some(FaultScript::passthrough()));
        FaultPlan { connections }
    }

    /// The script for accepted connection `idx` (`None` = refuse).
    pub fn script_for(&self, idx: usize) -> Option<FaultScript> {
        if self.connections.is_empty() {
            return Some(FaultScript::passthrough());
        }
        self.connections[idx.min(self.connections.len() - 1)].clone()
    }
}

/// What [`ScriptState::next_op`] decided for the next chunk.
enum Op {
    Forward { len: usize, corrupt: bool },
    Sleep(Duration),
    Swallow,
    Cut,
}

/// The live state of one connection's script, shared between the two
/// relay directions so Pass budgets count bytes in transfer order.
struct ScriptState {
    queue: VecDeque<FaultAction>,
    corrupt_next: bool,
}

impl ScriptState {
    fn new(script: FaultScript) -> Self {
        ScriptState { queue: script.actions.into(), corrupt_next: false }
    }

    fn take_corrupt(&mut self) -> bool {
        std::mem::take(&mut self.corrupt_next)
    }

    /// Decides the fate of (up to) the next `avail` transferred bytes.
    fn next_op(&mut self, avail: usize) -> Op {
        loop {
            let Some(front) = self.queue.front_mut() else {
                return Op::Forward { len: avail, corrupt: self.take_corrupt() };
            };
            match front {
                FaultAction::Pass(0) => {
                    self.queue.pop_front();
                }
                FaultAction::Pass(k) => {
                    let len = avail.min(*k);
                    *k -= len;
                    return Op::Forward { len, corrupt: self.take_corrupt() };
                }
                FaultAction::Delay(d) => {
                    let d = *d;
                    self.queue.pop_front();
                    return Op::Sleep(d);
                }
                FaultAction::CorruptByte => {
                    self.corrupt_next = true;
                    self.queue.pop_front();
                }
                FaultAction::Blackhole => return Op::Swallow,
                FaultAction::Cut => return Op::Cut,
            }
        }
    }
}

/// A [`Stream`] with a [`FaultScript`] spliced into its byte flow.
///
/// Reads and writes pass through the script's actions in byte order,
/// sharing one budget across both directions (under the strict
/// request/reply framing of the FNQF protocol this makes fault positions
/// deterministic). Cloned handles ([`FaultStream::try_clone`]) share the
/// script state — the proxy uses one clone per relay direction.
pub struct FaultStream {
    inner: Stream,
    state: Arc<Mutex<ScriptState>>,
    /// Bytes read from `inner` but not yet released by the script.
    read_pending: Vec<u8>,
}

impl FaultStream {
    /// Wraps `inner`, applying `script` to all bytes crossing it.
    pub fn new(inner: Stream, script: FaultScript) -> Self {
        FaultStream {
            inner,
            state: Arc::new(Mutex::new(ScriptState::new(script))),
            read_pending: Vec::new(),
        }
    }

    /// Clones the handle; both share the connection *and* the script.
    ///
    /// # Errors
    ///
    /// Returns the underlying `try_clone` error.
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(FaultStream {
            inner: self.inner.try_clone()?,
            state: Arc::clone(&self.state),
            read_pending: Vec::new(),
        })
    }

    /// Shuts down the wrapped connection.
    ///
    /// # Errors
    ///
    /// Returns the underlying shutdown error.
    pub fn shutdown(&self) -> io::Result<()> {
        self.inner.shutdown()
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ScriptState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Read for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            if self.read_pending.is_empty() {
                let mut tmp = vec![0u8; buf.len().min(64 * 1024)];
                let n = self.inner.read(&mut tmp)?;
                if n == 0 {
                    return Ok(0);
                }
                tmp.truncate(n);
                self.read_pending = tmp;
            }
            let avail = self.read_pending.len().min(buf.len());
            let op = self.lock_state().next_op(avail);
            match op {
                Op::Sleep(d) => std::thread::sleep(d),
                Op::Swallow => self.read_pending.clear(),
                Op::Cut => {
                    let _ = self.inner.shutdown();
                    return Ok(0);
                }
                Op::Forward { len, corrupt } => {
                    buf[..len].copy_from_slice(&self.read_pending[..len]);
                    self.read_pending.drain(..len);
                    if corrupt && len > 0 {
                        buf[0] ^= 0x20;
                    }
                    return Ok(len);
                }
            }
        }
    }
}

impl Write for FaultStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut done = 0usize;
        while done < buf.len() {
            let op = self.lock_state().next_op(buf.len() - done);
            match op {
                Op::Sleep(d) => std::thread::sleep(d),
                // A blackholed peer "accepts" writes into the void.
                Op::Swallow => return Ok(buf.len()),
                Op::Cut => {
                    let _ = self.inner.shutdown();
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "fault script cut"));
                }
                Op::Forward { len, corrupt } => {
                    if corrupt && len > 0 {
                        let mut copy = buf[done..done + len].to_vec();
                        copy[0] ^= 0x20;
                        self.inner.write_all(&copy)?;
                    } else {
                        self.inner.write_all(&buf[done..done + len])?;
                    }
                    done += len;
                }
            }
        }
        Ok(done)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A loopback TCP proxy injecting a [`FaultPlan`] between a client and
/// an `upstream` worker address.
///
/// Hand [`FaultProxy::addr`] to the system under test instead of the
/// real worker address. Each accepted connection gets the plan's script
/// for its index (or is refused) and is relayed by a pair of detached
/// threads; a cut or blackhole on one side tears down (or stalls)
/// exactly what the script says, nothing more.
pub struct FaultProxy {
    addr: String,
    alive: Arc<AtomicBool>,
    accepted: Arc<AtomicUsize>,
}

impl FaultProxy {
    /// Binds a loopback port and starts proxying to `upstream` under
    /// `plan`.
    ///
    /// # Errors
    ///
    /// Returns the underlying bind/`local_addr` error.
    pub fn spawn(upstream: &str, plan: FaultPlan) -> io::Result<Self> {
        let listener = Listener::bind("tcp:127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let alive = Arc::new(AtomicBool::new(true));
        let accepted = Arc::new(AtomicUsize::new(0));
        let upstream = upstream.to_string();
        let alive_bg = Arc::clone(&alive);
        let accepted_bg = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for idx in 0usize.. {
                let Ok(client) = listener.accept() else { return };
                if !alive_bg.load(Ordering::SeqCst) {
                    return;
                }
                accepted_bg.fetch_add(1, Ordering::SeqCst);
                match plan.script_for(idx) {
                    None => {
                        // Refused: reset before a single byte crosses.
                        let _ = client.shutdown();
                    }
                    Some(script) => {
                        let Ok(up) = Stream::connect(&upstream) else {
                            let _ = client.shutdown();
                            continue;
                        };
                        relay_pair(client, FaultStream::new(up, script));
                    }
                }
            }
        });
        Ok(FaultProxy { addr, alive, accepted })
    }

    /// The proxy's connectable `tcp:` address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How many connections the proxy has accepted (refused ones count).
    pub fn accepted(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Stops accepting new connections; existing relays drain on their
    /// own when either side closes.
    pub fn stop(&self) {
        self.alive.store(false, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = Stream::connect(&self.addr);
    }
}

/// Spawns the two detached relay threads for one proxied connection.
fn relay_pair(client: Stream, upstream: FaultStream) {
    let (Ok(client_r), Ok(up_w)) = (client.try_clone(), upstream.try_clone()) else {
        let _ = client.shutdown();
        let _ = upstream.shutdown();
        return;
    };
    // client -> upstream (writes pass through the fault script)
    std::thread::spawn(move || {
        let mut from = client_r;
        let mut to = up_w;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
                        break;
                    }
                }
            }
        }
        let _ = from.shutdown();
        let _ = to.shutdown();
    });
    // upstream -> client (reads pass through the fault script)
    std::thread::spawn(move || {
        let mut from = upstream;
        let mut to = client;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
                        break;
                    }
                }
            }
        }
        let _ = from.shutdown();
        let _ = to.shutdown();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, FrameError};

    /// An echo worker: answers each frame with the same kind + payload.
    fn spawn_echo() -> String {
        let listener = Listener::bind("tcp:127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        std::thread::spawn(move || loop {
            let Ok(mut conn) = listener.accept() else { return };
            std::thread::spawn(move || {
                while let Ok((kind, payload)) = read_frame(&mut conn) {
                    if write_frame(&mut conn, kind, &payload).is_err() {
                        return;
                    }
                }
            });
        });
        addr
    }

    fn connect(proxy: &FaultProxy) -> Stream {
        let s = Stream::connect(proxy.addr()).expect("connect proxy");
        s.set_read_timeout(Some(Duration::from_secs(5))).expect("arm safety deadline");
        s
    }

    #[test]
    fn passthrough_proxy_is_invisible() {
        let upstream = spawn_echo();
        let proxy = FaultProxy::spawn(&upstream, FaultPlan::passthrough()).expect("proxy");
        let mut conn = connect(&proxy);
        for i in 0..5u8 {
            let payload: Vec<u8> = (0..100).map(|b| b ^ i).collect();
            write_frame(&mut conn, i, &payload).expect("write");
            assert_eq!(read_frame(&mut conn).expect("read"), (i, payload));
        }
        assert_eq!(proxy.accepted(), 1);
        proxy.stop();
    }

    #[test]
    fn cut_after_kills_the_connection_mid_stream() {
        let upstream = spawn_echo();
        let plan = FaultPlan::each_connection(FaultScript::cut_after(40));
        let proxy = FaultProxy::spawn(&upstream, plan).expect("proxy");
        let mut conn = connect(&proxy);
        // Frame one fits inside the 40-byte budget round trip is 2*(13+4).
        write_frame(&mut conn, 1, b"ok").expect("write 1");
        read_frame(&mut conn).expect("reply 1 passes inside the budget");
        // Keep going until the cut surfaces as a typed error.
        let mut cut = false;
        for _ in 0..10 {
            if write_frame(&mut conn, 2, b"more").is_err() {
                cut = true;
                break;
            }
            match read_frame(&mut conn) {
                Ok(_) => continue,
                Err(FrameError::Closed | FrameError::Truncated | FrameError::Io(_)) => {
                    cut = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(cut, "the scripted cut must surface as a typed error");
        proxy.stop();
    }

    #[test]
    fn corrupt_byte_surfaces_as_bad_checksum() {
        let upstream = spawn_echo();
        // Pass the full request (13 + 5 bytes) plus the reply header's
        // magic, then corrupt one reply byte.
        let plan = FaultPlan::first_connection(FaultScript::corrupt_after(18 + 4));
        let proxy = FaultProxy::spawn(&upstream, plan).expect("proxy");
        let mut conn = connect(&proxy);
        write_frame(&mut conn, 9, b"check").expect("write");
        let err = read_frame(&mut conn).expect_err("corrupted reply must not decode");
        assert!(
            matches!(err, FrameError::BadChecksum),
            "one flipped payload-adjacent bit must fail the checksum, got {err:?}"
        );
        proxy.stop();
    }

    #[test]
    fn blackhole_hangs_until_the_read_deadline() {
        let upstream = spawn_echo();
        // Swallow everything after the request: the reply never arrives,
        // the connection stays open — indistinguishable from a hung peer.
        let plan = FaultPlan::first_connection(FaultScript::blackhole_after(18));
        let proxy = FaultProxy::spawn(&upstream, plan).expect("proxy");
        let mut conn = connect(&proxy);
        conn.set_read_timeout(Some(Duration::from_millis(50))).expect("short deadline");
        write_frame(&mut conn, 1, b"hello").expect("write");
        let t0 = std::time::Instant::now();
        let err = read_frame(&mut conn).expect_err("blackholed reply must time out");
        assert!(matches!(err, FrameError::TimedOut), "got {err:?}");
        assert!(t0.elapsed() >= Duration::from_millis(45), "the deadline, not an instant error");
        proxy.stop();
    }

    #[test]
    fn refused_connections_reset_then_heal_per_plan() {
        let upstream = spawn_echo();
        let plan = FaultPlan::partition_then_heal(18, 2);
        let proxy = FaultProxy::spawn(&upstream, plan).expect("proxy");
        // Connection 0: request passes (18 bytes), reply is cut.
        let mut conn = connect(&proxy);
        write_frame(&mut conn, 1, b"hello").expect("write");
        assert!(read_frame(&mut conn).is_err(), "reply must be cut");
        // Connections 1 and 2: refused — no frame ever comes back.
        for _ in 0..2 {
            let mut refused = connect(&proxy);
            assert!(
                read_frame(&mut refused).is_err(),
                "refused connection must yield a typed error"
            );
        }
        // Connection 3: healed.
        let mut healed = connect(&proxy);
        write_frame(&mut healed, 2, b"back").expect("write after heal");
        assert_eq!(read_frame(&mut healed).expect("healed read"), (2, b"back".to_vec()));
        assert_eq!(proxy.accepted(), 4);
        proxy.stop();
    }

    #[test]
    fn delay_passes_bytes_through_intact() {
        let upstream = spawn_echo();
        let plan =
            FaultPlan::first_connection(FaultScript::delay_after(20, Duration::from_millis(30)));
        let proxy = FaultProxy::spawn(&upstream, plan).expect("proxy");
        let mut conn = connect(&proxy);
        let t0 = std::time::Instant::now();
        write_frame(&mut conn, 5, b"slow but sure").expect("write");
        assert_eq!(read_frame(&mut conn).expect("read"), (5, b"slow but sure".to_vec()));
        assert!(t0.elapsed() >= Duration::from_millis(25), "the delay must have applied");
        proxy.stop();
    }

    #[test]
    fn seeded_scripts_are_deterministic_and_varied() {
        for seed in 0..32u64 {
            assert_eq!(FaultScript::seeded(seed), FaultScript::seeded(seed));
            assert!(!FaultScript::seeded(seed).actions.is_empty());
        }
        let distinct: std::collections::HashSet<String> =
            (0..32u64).map(|s| format!("{:?}", FaultScript::seeded(s))).collect();
        assert!(distinct.len() > 16, "seeds must produce varied scripts, got {}", distinct.len());
    }
}
