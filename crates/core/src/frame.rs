//! Length-prefixed, checksummed message frames over byte streams.
//!
//! The shard wire format of [`crate::serialize`] says what a worker's
//! weight slice *is*; this module says how bytes move between a serving
//! coordinator and its workers. A **frame** is the unit of exchange on a
//! connection — one request or one response — and carries its own
//! integrity check so a flipped bit anywhere (header or payload) is a
//! typed error, never a silently wrong answer:
//!
//! ```text
//! magic    : 4 bytes  "FNQF"
//! kind     : u8       message kind (opaque to this module)
//! length   : u32 LE   payload bytes that follow the header
//! checksum : u32 LE   word-at-a-time mix over kind, length and the payload
//! payload  : `length` bytes
//! ```
//!
//! The checksum covers the kind and length fields as well as the payload,
//! so corrupt routing metadata is caught exactly like corrupt payload
//! bytes. It is [`checksum`]`(kind, payload)`, the crate's one integrity
//! check (the FNQS shard envelope chains it over header, then payload),
//! built from one step `mix(h, w) = rotl15((h ^ w) · 0x9E3779B1)` on
//! `u32`s: the bytes are read as little-endian words, 16
//! bytes a round, word `i` of a round absorbed by lane `i` of four
//! (`lane = mix(lane, word)`); then one fold state absorbs, in order, the
//! seed, the length, the four lanes and — one step each — the up to 15
//! bytes past the last whole round. Every step is a bijection in the
//! state and in the absorbed word, so two inputs of one length and seed
//! that differ inside a single word (any one byte, any one bit) differ in
//! that lane, hence in the fold, hence in the checksum: single-byte
//! corruption is rejected *deterministically*, as under a bytewise FNV-1a
//! — at eleven times its speed (≈ 9 against ≈ 0.8 GB/s on the recorded
//! host), because four lanes keep four multiplies in flight. The length
//! field is capped at [`MAX_FRAME_PAYLOAD`] before any allocation, so a
//! corrupt length can never balloon memory or stall a reader waiting for
//! bytes that will never come.
//!
//! [`read_frame`] / [`write_frame`] run over any [`Read`] / [`Write`],
//! looping internally on short reads and short writes — a throttling
//! socket that delivers one byte per call produces the identical result
//! (asserted by tests). [`Stream`] and [`Listener`] are the std-only
//! socket layer beneath them: one address syntax (`tcp:host:port`,
//! `unix:/path`) covering both `std::net` TCP and Unix domain sockets.
//!
//! [`Link`] is the seam above the bytes: send a sealed frame, receive a
//! frame, each within the operation's budget (zero: no bound); shut
//! down. [`Stream`] implements it over a socket with an **absolute**
//! per-frame deadline: the budget shrinks across the internal retries,
//! so even a slow-drip peer cannot stretch one frame past the bound.
//!
//! The frame layer itself carries no version or correlation fields —
//! `kind` and the payload are opaque here. Payload-level protocols
//! version themselves on top: the serving transport names its version in
//! the setup handshake (see `PROTOCOL_VERSION` in `fineq-lm`'s `remote`
//! module, whose `GATHER`/`PARTIAL` payloads lead with a `u64` request
//! nonce so replies are self-identifying). A sender that fans one payload
//! out builds it in place behind a reserved header ([`begin_frame`] /
//! [`seal_frame`]) and sends the sealed bytes as often as it needs
//! ([`Link::send`]): the payload is copied and checksummed once.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: &[u8; 4] = b"FNQF";

/// Fixed byte length of the frame header preceding the payload.
pub const FRAME_HEADER_BYTES: usize = 13;

/// Upper bound on a frame's payload length (1 GiB). A header declaring
/// more is rejected with [`FrameError::TooLarge`] before any allocation.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 30;

/// Errors from [`read_frame`] / [`write_frame`].
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly on a frame boundary — no bytes
    /// of a new frame had arrived. Normal end of a connection.
    Closed,
    /// The stream ended mid-frame: a header or declared payload was cut
    /// short.
    Truncated,
    /// The frame did not open with [`FRAME_MAGIC`].
    BadMagic,
    /// The header declared a payload longer than [`MAX_FRAME_PAYLOAD`].
    TooLarge(u32),
    /// Kind, length or payload bytes do not match the header checksum.
    BadChecksum,
    /// A deadline expired before the frame completed: either a
    /// per-syscall socket timeout armed via [`Stream::set_read_timeout`]
    /// / [`Stream::set_write_timeout`], or the absolute end-to-end budget
    /// of a [`Link::send`] / [`Link::recv`]. A hung peer surfaces here
    /// instead of blocking forever.
    TimedOut,
    /// The underlying stream failed.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed on a frame boundary"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadMagic => write!(f, "missing FNQF frame magic"),
            FrameError::TooLarge(len) => {
                write!(f, "frame payload length {len} exceeds the {MAX_FRAME_PAYLOAD} cap")
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::TimedOut => write!(f, "frame deadline expired"),
            FrameError::Io(e) => write!(f, "stream I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        // Socket deadlines surface as `WouldBlock` (Unix `SO_RCVTIMEO`)
        // or `TimedOut` depending on platform; both mean the armed
        // deadline expired, which callers must be able to match on.
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::TimedOut,
            _ => FrameError::Io(e),
        }
    }
}

/// Odd multiplier of [`mix`] (the 32-bit golden-ratio constant).
const MIX_K: u32 = 0x9E37_79B1;

/// Start values of the four payload lanes and of the fold (the fifth).
const MIX_SEEDS: [u32; 5] = [0x811C_9DC5, 0xEC4B_A7BA, 0x577B_51AF, 0xC2AA_FBA4, 0x2DDA_A599];

/// One checksum step: absorbs `w` into `h`. Xor, an odd multiply and a
/// rotation are each invertible, so the step is a bijection in `h` for
/// fixed `w` and in `w` for fixed `h` — two inputs that differ in one
/// absorbed word can never meet again. The rotation moves a word's top
/// bit (which a multiply alone leaves in place) down where the next
/// multiply spreads it.
#[inline(always)]
fn mix(h: u32, w: u32) -> u32 {
    (h ^ w).wrapping_mul(MIX_K).rotate_left(15)
}

/// The integrity check of every byte on the wire, over `seed`, the
/// length and every byte of `bytes` — defined in the module docs. Four
/// independent lanes keep four multiplies in flight where a bytewise hash
/// waits on one.
pub fn checksum(seed: u32, bytes: &[u8]) -> u32 {
    let [mut a, mut b, mut c, mut d, fold] = MIX_SEEDS;
    let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
    let mut rounds = bytes.chunks_exact(16);
    for r in &mut rounds {
        a = mix(a, word(&r[0..4]));
        b = mix(b, word(&r[4..8]));
        c = mix(c, word(&r[8..12]));
        d = mix(d, word(&r[12..16]));
    }
    let head = [seed, bytes.len() as u32, a, b, c, d];
    let tail = rounds.remainder().iter().map(|&byte| u32::from(byte));
    head.into_iter().chain(tail).fold(fold, mix)
}

/// Starts a frame in place: clears `buf` and reserves the header, so the
/// caller appends the payload straight behind it and [`seal_frame`]
/// completes the frame without the payload ever being copied.
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.resize(FRAME_HEADER_BYTES, 0);
}

/// Completes a frame begun with [`begin_frame`]: writes magic, `kind`,
/// length and checksum over everything behind the header. The sealed
/// bytes are the wire image — write them to as many streams, as many
/// times, as the protocol needs; the payload is checksummed once.
///
/// # Panics
///
/// Panics if `frame` is shorter than a header or its payload exceeds
/// [`MAX_FRAME_PAYLOAD`] — caller bugs, not wire conditions.
pub fn seal_frame(frame: &mut [u8], kind: u8) {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD as usize,
        "frame payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD} cap",
        payload.len()
    );
    header[0..4].copy_from_slice(FRAME_MAGIC);
    header[4] = kind;
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[9..13].copy_from_slice(&checksum(u32::from(kind), payload).to_le_bytes());
}

/// Serializes one frame to bytes (header followed by payload).
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_PAYLOAD`] — a caller bug, not
/// a wire condition.
pub fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    begin_frame(&mut out);
    out.extend_from_slice(payload);
    seal_frame(&mut out, kind);
    out
}

/// Writes one frame and flushes the stream. Short writes are retried
/// internally (`write_all`), so a throttling sink receives the identical
/// byte sequence.
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] — before emitting a single byte —
/// for a payload over [`MAX_FRAME_PAYLOAD`], which no peer would accept;
/// [`FrameError::TimedOut`] when an armed write deadline expires; and
/// [`FrameError::Io`] when the stream fails.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_PAYLOAD as usize {
        return Err(FrameError::TooLarge(u32::try_from(payload.len()).unwrap_or(u32::MAX)));
    }
    write_flushed(w, &frame_bytes(kind, payload))
}

fn write_flushed(w: &mut impl Write, frame: &[u8]) -> Result<(), FrameError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Fills `buf` completely, looping on short reads. `at_boundary`
/// distinguishes a clean close (EOF before the first byte of a frame)
/// from a mid-frame truncation.
fn fill(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 && at_boundary {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one frame, returning its kind and payload.
///
/// Validates in order: magic, length cap (**before** allocating), then
/// the checksum over kind + length + payload. Short reads are retried
/// internally, so a throttling source that delivers one byte per call
/// decodes identically.
///
/// # Errors
///
/// Every failure is a typed [`FrameError`]; corrupt input can never
/// decode as a different valid frame (the checksum covers every
/// non-magic byte) and never stalls on a declared length the peer will
/// not send beyond the cap.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    fill(r, &mut header, true)?;
    if &header[0..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let kind = header[4];
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes"));
    let expect = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    fill(r, &mut payload, false)?;
    if checksum(u32::from(kind), &payload) != expect {
        return Err(FrameError::BadChecksum);
    }
    Ok((kind, payload))
}

/// A stream whose every read and write draws on one absolute deadline
/// (`None`: no bound): the remaining budget is re-armed as the socket
/// timeout before each syscall, so a peer trickling one byte per interval
/// spends the budget down instead of resetting it (per-syscall
/// `SO_RCVTIMEO` alone would restart on every byte).
struct Deadlined<'a> {
    stream: &'a mut Stream,
    deadline: Option<Instant>,
}

impl<'a> Deadlined<'a> {
    /// `stream` under the deadline `timeout` from now (zero: no bound).
    fn new(stream: &'a mut Stream, timeout: Duration) -> Self {
        Deadlined { stream, deadline: (!timeout.is_zero()).then(|| Instant::now() + timeout) }
    }

    /// The budget left to arm (`None`: no bound), or `TimedOut` once spent.
    fn left(&self) -> io::Result<Option<Duration>> {
        match self.deadline.map(|d| d.saturating_duration_since(Instant::now())) {
            Some(left) if left.is_zero() => Err(io::ErrorKind::TimedOut.into()),
            left => Ok(left),
        }
    }
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(self.left()?)?;
        self.stream.read(buf)
    }
}

impl Write for Deadlined<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(self.left()?)?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// One frame-level connection to a peer: everything a serving
/// coordinator does with a worker connection. [`Stream`] implements it
/// over a socket; anything else that moves whole frames (an in-memory
/// simulator) can stand in.
///
/// Each call takes the operation's budget, measured from the call: the
/// whole frame must cross within it, however its bytes are paced. A zero
/// budget is no bound.
pub trait Link: Send {
    /// Writes one sealed frame ([`seal_frame`]) within `timeout`.
    ///
    /// # Errors
    ///
    /// As [`write_frame`], with [`FrameError::TimedOut`] once `timeout`
    /// is spent.
    fn send(&mut self, frame: &[u8], timeout: Duration) -> Result<(), FrameError>;

    /// Reads one whole frame within `timeout`.
    ///
    /// # Errors
    ///
    /// As [`read_frame`], with [`FrameError::TimedOut`] once `timeout`
    /// is spent.
    fn recv(&mut self, timeout: Duration) -> Result<(u8, Vec<u8>), FrameError>;

    /// Shuts both directions of the connection down.
    ///
    /// # Errors
    ///
    /// Returns the underlying shutdown error.
    fn shutdown(&mut self) -> io::Result<()>;
}

/// The socket [`Link`]: the budget becomes one absolute deadline that
/// each frame's reads or writes draw on. Unlike a socket timeout armed
/// once with [`Stream::set_read_timeout`] — which bounds each *syscall*
/// and so resets whenever a slow-drip peer delivers a single byte — the
/// budget only shrinks. The socket's timeout is left at whatever the last
/// re-arm set; callers that use the [`Link`] methods throughout never
/// observe it.
impl Link for Stream {
    fn send(&mut self, frame: &[u8], timeout: Duration) -> Result<(), FrameError> {
        write_flushed(&mut Deadlined::new(self, timeout), frame)
    }

    fn recv(&mut self, timeout: Duration) -> Result<(u8, Vec<u8>), FrameError> {
        read_frame(&mut Deadlined::new(self, timeout))
    }

    fn shutdown(&mut self) -> io::Result<()> {
        Stream::shutdown(self)
    }
}

/// A connected byte stream under one address syntax: `tcp:host:port`
/// (with `TCP_NODELAY`, since frames are request/response sized) or
/// `unix:/path` to a Unix domain socket.
#[derive(Debug)]
pub enum Stream {
    /// A `std::net` TCP connection.
    Tcp(TcpStream),
    /// A Unix domain socket connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

fn bad_addr(addr: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("address {addr:?} must be tcp:host:port or unix:/path"),
    )
}

impl Stream {
    /// Connects to `addr` (`tcp:host:port` or `unix:/path`).
    ///
    /// # Errors
    ///
    /// Returns the underlying connect error, or `InvalidInput` for an
    /// unrecognized address scheme (including `unix:` on non-Unix hosts).
    pub fn connect(addr: &str) -> io::Result<Self> {
        if let Some(hostport) = addr.strip_prefix("tcp:") {
            let s = TcpStream::connect(hostport)?;
            s.set_nodelay(true)?;
            return Ok(Stream::Tcp(s));
        }
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            return UnixStream::connect(path).map(Stream::Unix);
            #[cfg(not(unix))]
            let _ = path;
        }
        Err(bad_addr(addr))
    }

    /// Connects to `addr` like [`Stream::connect`], but gives up after
    /// `timeout` instead of waiting on the platform's (much longer)
    /// connect timeout. Every resolved socket address is attempted in
    /// resolution order with `timeout` each — the same coverage as the
    /// plain connect path, which also walks the full list — so a
    /// dual-stack hostname reachable only on its second address still
    /// connects. For `unix:` paths connect is local and effectively
    /// instant, so the plain connect is used — as it is for a zero
    /// `timeout`, which waits as long as the platform does.
    ///
    /// # Errors
    ///
    /// As [`Stream::connect`], plus `TimedOut` when every attempt's
    /// deadline expires and `InvalidInput` when the host resolves to no
    /// address. The error reported is the last attempt's.
    pub fn connect_timeout(addr: &str, timeout: std::time::Duration) -> io::Result<Self> {
        if let Some(hostport) = addr.strip_prefix("tcp:").filter(|_| !timeout.is_zero()) {
            use std::net::ToSocketAddrs;
            let mut last_err = None;
            for sock in hostport.to_socket_addrs()? {
                match TcpStream::connect_timeout(&sock, timeout) {
                    Ok(s) => {
                        s.set_nodelay(true)?;
                        return Ok(Stream::Tcp(s));
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            return Err(last_err
                .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address")));
        }
        Self::connect(addr)
    }

    /// Arms a timeout on every subsequent read syscall: a read that makes
    /// no progress for `timeout` returns and [`read_frame`] surfaces it
    /// as [`FrameError::TimedOut`]. `None` disarms. A zero duration is
    /// rejected by std — pass `None` to block forever.
    ///
    /// This is a **per-syscall** bound (`SO_RCVTIMEO`): every byte that
    /// arrives restarts the clock, so a slow-drip peer can stretch one
    /// frame to `timeout × bytes` in the worst case. For an absolute
    /// end-to-end bound on a whole frame use [`Link::recv`], which
    /// shrinks the armed timeout as the budget drains.
    ///
    /// # Errors
    ///
    /// Returns the underlying `set_read_timeout` error.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Arms a timeout on every subsequent write syscall, the mirror of
    /// [`Stream::set_read_timeout`] (and per-syscall in the same way —
    /// see [`Link::send`] for the absolute bound): a peer that
    /// stops draining its socket surfaces as [`FrameError::TimedOut`]
    /// instead of blocking [`write_frame`] forever.
    ///
    /// # Errors
    ///
    /// Returns the underlying `set_write_timeout` error.
    pub fn set_write_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    /// Shuts down both directions of the connection.
    ///
    /// # Errors
    ///
    /// Returns the underlying shutdown error.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener under the same address syntax as [`Stream`].
#[derive(Debug)]
pub enum Listener {
    /// A `std::net` TCP listener.
    Tcp(TcpListener),
    /// A Unix domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds `addr` (`tcp:host:port` — port 0 picks a free port — or
    /// `unix:/path`; a stale socket file at the path is removed first).
    ///
    /// # Errors
    ///
    /// Returns the underlying bind error, or `InvalidInput` for an
    /// unrecognized address scheme.
    pub fn bind(addr: &str) -> io::Result<Self> {
        if let Some(hostport) = addr.strip_prefix("tcp:") {
            return TcpListener::bind(hostport).map(Listener::Tcp);
        }
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                // A previous worker killed hard leaves its socket file
                // behind; binding over it is the restart path.
                let _ = std::fs::remove_file(path);
                return UnixListener::bind(path).map(Listener::Unix);
            }
            #[cfg(not(unix))]
            let _ = path;
        }
        Err(bad_addr(addr))
    }

    /// The bound address in connectable `tcp:`/`unix:` syntax — for TCP
    /// port 0 this is where the assigned port surfaces.
    ///
    /// # Errors
    ///
    /// Returns the underlying `local_addr` error, or `InvalidInput` for
    /// an unnamed Unix socket.
    pub fn local_addr(&self) -> io::Result<String> {
        match self {
            Listener::Tcp(l) => Ok(format!("tcp:{}", l.local_addr()?)),
            #[cfg(unix)]
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unnamed socket"))?;
                Ok(format!("unix:{}", path.display()))
            }
        }
    }

    /// Accepts one connection.
    ///
    /// # Errors
    ///
    /// Returns the underlying accept error.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_frame() -> (u8, Vec<u8>, Vec<u8>) {
        let payload: Vec<u8> = (0u8..37).collect();
        let bytes = frame_bytes(9, &payload);
        (9, payload, bytes)
    }

    #[test]
    fn round_trip_preserves_kind_and_payload() {
        for payload in [vec![], vec![0xAB], (0u8..=255).collect::<Vec<u8>>()] {
            for kind in [0u8, 1, 0x7F, 0xFF] {
                let mut buf = Vec::new();
                write_frame(&mut buf, kind, &payload).expect("vec write");
                let (k, p) = read_frame(&mut Cursor::new(&buf)).expect("round trip");
                assert_eq!((k, p), (kind, payload.clone()));
            }
        }
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"first").expect("write");
        write_frame(&mut buf, 2, b"second").expect("write");
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_frame(&mut cur).expect("frame 1"), (1, b"first".to_vec()));
        assert_eq!(read_frame(&mut cur).expect("frame 2"), (2, b"second".to_vec()));
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Closed)));
    }

    #[test]
    fn clean_eof_on_a_boundary_is_closed_not_truncated() {
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty), Err(FrameError::Closed)));
    }

    /// The PR 5 envelope-fuzz pattern lifted to the frame layer: cutting
    /// the stream after every possible byte count must yield a typed
    /// error — `Closed` exactly on the boundary, `Truncated` mid-frame —
    /// never a hang, a panic, or a silently decoded frame.
    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let (_, _, bytes) = sample_frame();
        for cut in 0..bytes.len() {
            let err = read_frame(&mut Cursor::new(&bytes[..cut]))
                .expect_err("truncated frame must not decode");
            match err {
                FrameError::Closed => assert_eq!(cut, 0, "Closed only on the exact boundary"),
                FrameError::Truncated => assert!(cut > 0, "cut {cut}"),
                other => panic!("cut {cut}: unexpected error {other:?}"),
            }
        }
    }

    /// Per-field mutation sweep (mirroring the shard-envelope fuzz):
    /// flipping any single byte of a frame — magic, kind, length,
    /// checksum or payload — must surface as a typed error appropriate to
    /// the field. No single-byte corruption may decode successfully.
    #[test]
    fn every_single_byte_mutation_is_rejected_never_silent() {
        let (_, _, bytes) = sample_frame();
        for idx in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[idx] ^= flip;
                // Append a second valid frame so a shrunken length field
                // finds trailing bytes available — the checksum must
                // still catch it rather than resynchronize silently.
                bad.extend_from_slice(&frame_bytes(3, b"tail"));
                let err = read_frame(&mut Cursor::new(&bad))
                    .expect_err("single-byte corruption must not decode");
                match (idx, err) {
                    (0..=3, FrameError::BadMagic) => {}
                    (0..=3, other) => panic!("magic byte {idx}: unexpected error {other:?}"),
                    (4, FrameError::BadChecksum) => {} // kind is checksummed
                    (4, other) => panic!("kind byte: unexpected error {other:?}"),
                    // Length bytes: a larger value truncates or trips the
                    // cap, a smaller value mis-frames and fails the
                    // checksum. All typed, none silent.
                    (
                        5..=8,
                        FrameError::Truncated | FrameError::TooLarge(_) | FrameError::BadChecksum,
                    ) => {}
                    (5..=8, other) => panic!("length byte {idx}: unexpected error {other:?}"),
                    (_, FrameError::BadChecksum) => {} // checksum or payload bytes
                    (_, other) => panic!("byte {idx}: unexpected error {other:?}"),
                }
            }
        }
    }

    /// The module-doc definition spelled out a byte at a time: words
    /// assembled by shifts, lanes picked by index arithmetic.
    fn reference_checksum(seed: u32, payload: &[u8]) -> u32 {
        let step = |h: u32, w: u32| (h ^ w).wrapping_mul(0x9E37_79B1).rotate_left(15);
        let mut lanes = [0x811C_9DC5u32, 0xEC4B_A7BA, 0x577B_51AF, 0xC2AA_FBA4];
        let whole = payload.len() / 16 * 16;
        for (i, quad) in payload[..whole].chunks(4).enumerate() {
            let w = quad.iter().rev().fold(0u32, |w, &b| (w << 8) | u32::from(b));
            lanes[i % 4] = step(lanes[i % 4], w);
        }
        let mut h = step(step(0x2DDA_A599, seed), payload.len() as u32);
        h = lanes.iter().fold(h, |h, &lane| step(h, lane));
        payload[whole..].iter().fold(h, |h, &b| step(h, u32::from(b)))
    }

    /// Payload lengths covering zero to four whole rounds plus every
    /// tail length, each at every alignment of the first payload byte —
    /// under frame kinds, the extreme seeds and a chained seed (the
    /// checksum of a 22-byte shard header, as the envelope seeds its
    /// payload's).
    #[test]
    fn word_at_a_time_checksum_equals_the_bytewise_reference() {
        let backing: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        let chained = reference_checksum(0, &backing[..22]);
        for len in 0..=67usize {
            for offset in 0..4usize {
                let payload = &backing[offset..offset + len];
                for kind in [0u8, 3, 0xEE] {
                    assert_eq!(
                        checksum(u32::from(kind), payload),
                        reference_checksum(u32::from(kind), payload),
                        "len {len} offset {offset} kind {kind}"
                    );
                }
                for seed in [0u32, 0xFFFF_FFFF, chained] {
                    assert_eq!(
                        checksum(seed, payload),
                        reference_checksum(seed, payload),
                        "len {len} offset {offset} seed {seed:#x}"
                    );
                }
            }
        }
    }

    /// Exhaustive, not sampled: for every payload length 0..=67, every
    /// single-**bit** flip of the kind, length, checksum and payload bytes
    /// is a typed rejection — the bijection argument of the module docs,
    /// checked bit by bit.
    #[test]
    fn every_single_bit_flip_is_rejected_at_every_length() {
        for len in 0..=67usize {
            let payload: Vec<u8> = (0..len as u32).map(|i| (i * 73 + 5) as u8).collect();
            let good = frame_bytes(7, &payload);
            for idx in 4..good.len() {
                for bit in 0..8 {
                    let mut bad = good.clone();
                    bad[idx] ^= 1 << bit;
                    // Trailing bytes, so a shrunken or grown length field
                    // finds something to mis-frame.
                    bad.extend_from_slice(&frame_bytes(3, &[0x5A; 40]));
                    let err = read_frame(&mut Cursor::new(&bad))
                        .expect_err("a single flipped bit must not decode");
                    let ok = match idx {
                        5..=8 => matches!(
                            err,
                            FrameError::Truncated
                                | FrameError::TooLarge(_)
                                | FrameError::BadChecksum
                        ),
                        _ => matches!(err, FrameError::BadChecksum),
                    };
                    assert!(ok, "len {len} byte {idx} bit {bit}: {err:?}");
                }
            }
        }
    }

    /// A multiply alone leaves a word's top bit where it was, so flipping
    /// bit 31 of two words of one lane would cancel; the rotation in the
    /// step is what makes this pair of flips visible.
    #[test]
    fn top_bit_flips_in_one_lane_do_not_cancel() {
        let payload = vec![0u8; 64];
        let good = checksum(1, &payload);
        for (first, second) in [(3usize, 19usize), (3, 35), (19, 51), (15, 63)] {
            let mut bad = payload.clone();
            bad[first] ^= 0x80;
            bad[second] ^= 0x80;
            assert_ne!(checksum(1, &bad), good, "bytes {first} and {second}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let (_, _, mut bad) = sample_frame();
        // The checksum field is stale too: `TooLarge`, not `BadChecksum`,
        // shows the cap fires first, before any buffer is sized or payload
        // byte read.
        bad[5..9].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad)),
            Err(FrameError::TooLarge(len)) if len == MAX_FRAME_PAYLOAD + 1
        ));
    }

    /// A reader that delivers at most one byte per call — the pathological
    /// partial-read socket.
    struct OneByteRead<R>(R);

    impl<R: Read> Read for OneByteRead<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    /// A writer that accepts at most one byte per call — the pathological
    /// short-write socket.
    struct OneByteWrite<W>(W);

    impl<W: Write> Write for OneByteWrite<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.write(&buf[..n])
        }
        fn flush(&mut self) -> io::Result<()> {
            self.0.flush()
        }
    }

    #[test]
    fn throttled_one_byte_reads_and_writes_round_trip_identically() {
        let payload: Vec<u8> = (0u8..=200).rev().collect();
        let mut sink = OneByteWrite(Vec::new());
        write_frame(&mut sink, 42, &payload).expect("short writes are retried");
        assert_eq!(sink.0, frame_bytes(42, &payload), "byte-identical wire image");
        let mut throttled = OneByteRead(Cursor::new(&sink.0));
        let (k, p) = read_frame(&mut throttled).expect("partial reads are retried");
        assert_eq!((k, p), (42, payload));
        // Truncation through the throttle is still the typed error.
        let cut = sink.0.len() - 1;
        let mut throttled = OneByteRead(Cursor::new(&sink.0[..cut]));
        assert!(matches!(read_frame(&mut throttled), Err(FrameError::Truncated)));
    }

    #[test]
    fn tcp_stream_round_trips_frames() {
        let listener = Listener::bind("tcp:127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        assert!(addr.starts_with("tcp:"), "{addr}");
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            let (kind, payload) = read_frame(&mut conn).expect("server read");
            write_frame(&mut conn, kind + 1, &payload).expect("server write");
        });
        let mut client = Stream::connect(&addr).expect("connect");
        write_frame(&mut client, 7, b"over tcp").expect("client write");
        assert_eq!(read_frame(&mut client).expect("client read"), (8, b"over tcp".to_vec()));
        server.join().expect("server thread");
    }

    #[cfg(unix)]
    #[test]
    fn unix_stream_round_trips_frames_and_rebinds_over_stale_sockets() {
        let path =
            std::env::temp_dir().join(format!("fineq-frame-test-{}.sock", std::process::id()));
        let addr = format!("unix:{}", path.display());
        for _ in 0..2 {
            // Second iteration binds over the previous socket file.
            let listener = Listener::bind(&addr).expect("bind unix socket");
            assert_eq!(listener.local_addr().expect("bound address"), addr);
            let server = std::thread::spawn(move || {
                let mut conn = listener.accept().expect("accept");
                let (kind, payload) = read_frame(&mut conn).expect("server read");
                write_frame(&mut conn, kind, &payload).expect("server write");
            });
            let mut client = Stream::connect(&addr).expect("connect");
            write_frame(&mut client, 5, b"over unix").expect("client write");
            assert_eq!(read_frame(&mut client).expect("client read"), (5, b"over unix".to_vec()));
            server.join().expect("server thread");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_payload_is_rejected_on_the_write_side_before_any_bytes() {
        // Zero-filled and never touched: the cap check fires before the
        // frame is materialized, so this does not commit 1 GiB of pages.
        let payload = vec![0u8; MAX_FRAME_PAYLOAD as usize + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, 1, &payload).expect_err("over-cap payload must not frame");
        assert!(matches!(err, FrameError::TooLarge(len) if len == MAX_FRAME_PAYLOAD + 1));
        assert!(sink.is_empty(), "no bytes may reach the wire");
    }

    #[test]
    fn read_deadline_surfaces_as_timed_out_and_disarms() {
        let listener = Listener::bind("tcp:127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            // Answer only after the client has observed one timeout.
            let (kind, payload) = read_frame(&mut conn).expect("server read");
            write_frame(&mut conn, kind, &payload).expect("server write");
        });
        let mut client = Stream::connect(&addr).expect("connect");
        client.set_read_timeout(Some(std::time::Duration::from_millis(30))).expect("arm deadline");
        // Nothing sent yet: the read must come back TimedOut, not hang.
        assert!(matches!(read_frame(&mut client), Err(FrameError::TimedOut)));
        client.set_read_timeout(None).expect("disarm deadline");
        write_frame(&mut client, 3, b"late").expect("client write");
        assert_eq!(read_frame(&mut client).expect("client read"), (3, b"late".to_vec()));
        server.join().expect("server thread");
    }

    /// The slow-drip contract: a peer trickling one byte per interval
    /// restarts a per-syscall socket timeout on every byte, but must NOT
    /// be able to stretch [`Link::recv`] past its absolute budget.
    #[test]
    fn link_recv_bounds_slow_drip_peers_end_to_end() {
        let listener = Listener::bind("tcp:127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            // ~77 bytes at 20 ms/byte = ~1.5 s of dripping: each gap is
            // far under the 150 ms deadline, only the total exceeds it.
            let bytes = frame_bytes(4, &[7u8; 64]);
            for chunk in bytes.chunks(1) {
                if conn.write_all(chunk).is_err() || conn.flush().is_err() {
                    return; // client gave up, as expected
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let mut client = Stream::connect(&addr).expect("connect");
        let start = Instant::now();
        let err = client
            .recv(Duration::from_millis(150))
            .expect_err("the drip must not beat the absolute deadline");
        assert!(matches!(err, FrameError::TimedOut), "{err:?}");
        // The full drip takes ~1.5 s; giving up well before that proves
        // the bound is absolute, not per-syscall.
        assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
        drop(client);
        server.join().expect("server thread");
    }

    #[test]
    fn link_recv_accepts_frames_that_arrive_in_time() {
        let listener = Listener::bind("tcp:127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            // Still dripping byte by byte, but fast enough to fit the
            // budget comfortably.
            for chunk in frame_bytes(6, b"on time").chunks(1) {
                conn.write_all(chunk).expect("drip");
                conn.flush().expect("flush");
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let mut client = Stream::connect(&addr).expect("connect");
        let got = client.recv(Duration::from_secs(10)).expect("in-budget");
        assert_eq!(got, (6, b"on time".to_vec()));
        // Zero disarms: a plain exchange still works afterwards.
        server.join().expect("server thread");
    }

    #[test]
    fn link_send_round_trips_and_zero_disarms() {
        let listener = Listener::bind("tcp:127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            for _ in 0..2 {
                let (kind, payload) = read_frame(&mut conn).expect("server read");
                write_frame(&mut conn, kind, &payload).expect("server write");
            }
        });
        let mut client = Stream::connect(&addr).expect("connect");
        client.send(&frame_bytes(9, b"bounded"), Duration::from_secs(5)).expect("write");
        assert_eq!(read_frame(&mut client).expect("echo"), (9, b"bounded".to_vec()));
        // A zero deadline disarms any armed socket timeout and blocks
        // like the plain path.
        client.send(&frame_bytes(9, b"unbounded"), Duration::ZERO).expect("write");
        assert_eq!(client.recv(Duration::ZERO).expect("echo"), (9, b"unbounded".to_vec()));
        server.join().expect("server thread");
    }

    /// `connect_timeout` must walk every resolved address like the plain
    /// connect does: `localhost` commonly resolves to `::1` first, and a
    /// listener bound to `127.0.0.1` is only reachable on the *second*
    /// address.
    #[test]
    fn connect_timeout_tries_every_resolved_address() {
        let listener = Listener::bind("tcp:127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let port = addr.rsplit(':').next().expect("port");
        let conn =
            Stream::connect_timeout(&format!("tcp:localhost:{port}"), Duration::from_secs(5))
                .expect("must fall through to the reachable resolved address");
        drop(conn);
    }

    #[test]
    fn unrecognized_address_schemes_are_invalid_input() {
        for addr in ["127.0.0.1:80", "udp:1.2.3.4:5", "unix"] {
            let e = Stream::connect(addr).expect_err("bad scheme must not connect");
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{addr}");
            let e = Listener::bind(addr).expect_err("bad scheme must not bind");
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{addr}");
        }
    }
}
