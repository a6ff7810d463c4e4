//! Dependency-free serving telemetry: atomic counters, gauges,
//! fixed-bucket latency histograms, a Prometheus-style text exposition,
//! and a tiny `std::net` scrape endpoint.
//!
//! Design contract (what every instrumented hot path may rely on):
//!
//! * **Disabled is one relaxed load.** Every handle embeds the registry's
//!   shared `enabled` flag; `Counter::add` and `Histogram::record` check
//!   it first and touch nothing else when it is off.
//! * **Deterministic under test.** Time comes from a pluggable [`Clock`]:
//!   [`MonotonicClock`] in production, [`FakeClock`] (manually advanced)
//!   in tests, so histogram bucket placement is exactly reproducible.
//! * **Fixed power-of-two buckets.** [`Histogram`] buckets are upper
//!   bounds `1, 2, 4, … 2^25` µs plus an overflow bucket. Percentiles
//!   report the upper bound of the bucket containing the rank — a
//!   deterministic, slightly pessimistic figure that needs no samples
//!   kept.
//! * **One wire format.** [`MetricsSnapshot`] is the plain-data form of a
//!   registry; it binary-encodes for the worker `STATS` frame and renders
//!   the same Prometheus-style text everywhere, so coordinator and worker
//!   registries aggregate into a single cluster view via
//!   [`MetricsRegistry::ingest_remote`]. Counts that arrive from a peer
//!   are summed with saturating arithmetic — a hostile or wrapped value
//!   pins a metric at its maximum instead of panicking the scrape thread.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read as _, Write as _};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Monotonic microsecond time source for measured latencies.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Microseconds since an arbitrary fixed origin.
    fn now_micros(&self) -> u64;
}

/// Production clock: microseconds since construction, via [`Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// Test clock: time is a plain atomic the test advances by hand, so every
/// measured duration — and therefore every histogram bucket — is chosen by
/// the test, not the host.
#[derive(Debug, Default)]
pub struct FakeClock {
    now: AtomicU64,
}

impl FakeClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the absolute time in microseconds.
    pub fn set(&self, micros: u64) {
        self.now.store(micros, Ordering::SeqCst);
    }

    /// Advances time by `micros`.
    pub fn advance(&self, micros: u64) {
        self.now.fetch_add(micros, Ordering::SeqCst);
    }
}

impl Clock for FakeClock {
    fn now_micros(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

/// The one gate every recording path checks: a single relaxed load.
#[inline(always)]
fn armed(enabled: &AtomicBool) -> bool {
    enabled.load(Ordering::Relaxed)
}

/// Monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

impl Counter {
    fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        Self { enabled, value: AtomicU64::new(0) }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if armed(&self.enabled) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Point-in-time signed value (queue depths, live replica counts).
#[derive(Debug)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    value: AtomicI64,
}

impl Gauge {
    fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        Self { enabled, value: AtomicI64::new(0) }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        if armed(&self.enabled) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket count of every histogram: 26 power-of-two upper bounds
/// (1 µs … ~33.5 s) plus one overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 27;
const FINITE_BUCKETS: usize = HISTOGRAM_BUCKETS - 1;

/// Upper bound (µs, inclusive) of finite bucket `i`: `2^i`.
pub fn bucket_bound_micros(i: usize) -> u64 {
    assert!(i < FINITE_BUCKETS, "bucket {i} out of range");
    1u64 << i
}

/// The finite bucket holding `v`, or the overflow bucket.
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        let ceil_log2 = (64 - (v - 1).leading_zeros()) as usize;
        ceil_log2.min(FINITE_BUCKETS)
    }
}

/// Fixed-bucket latency histogram (microseconds).
#[derive(Debug)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        Self {
            enabled,
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// A histogram not tied to any registry, always enabled.
    pub fn standalone() -> Arc<Self> {
        Arc::new(Self::with_flag(Arc::new(AtomicBool::new(true))))
    }

    #[inline]
    pub fn record(&self, micros: u64) {
        if armed(&self.enabled) {
            self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(micros, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Current plain-data contents.
    pub fn data(&self) -> HistogramData {
        HistogramData {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }

    /// See [`HistogramData::percentile`].
    pub fn percentile(&self, p: f64) -> u64 {
        self.data().percentile(p)
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }
}

/// Plain-data histogram contents: per-bucket counts (length
/// [`HISTOGRAM_BUCKETS`]), value sum, and total count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramData {
    pub buckets: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl HistogramData {
    pub fn new() -> Self {
        Self { buckets: vec![0; HISTOGRAM_BUCKETS], sum: 0, count: 0 }
    }

    /// Records one value.
    pub fn record(&mut self, micros: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HISTOGRAM_BUCKETS];
        }
        self.buckets[bucket_index(micros)] += 1;
        self.sum += micros;
        self.count += 1;
    }

    /// Adds `other`'s buckets into this. Saturating: `other` may have
    /// been decoded from a peer's `STATS` reply.
    pub fn merge(&mut self, other: &HistogramData) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count = self.count.saturating_add(other.count);
    }

    /// The upper bound (µs) of the bucket containing rank
    /// `ceil(p/100 · count)`. Values in the overflow bucket saturate to
    /// the largest finite bound. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_bound_micros(i.min(FINITE_BUCKETS - 1));
            }
        }
        bucket_bound_micros(FINITE_BUCKETS - 1)
    }
}

/// Decode failure of a [`MetricsSnapshot`] wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotDecodeError {
    Truncated,
    BadMagic,
    BadVersion(u16),
    BadName,
}

impl fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot payload truncated"),
            Self::BadMagic => write!(f, "snapshot payload has wrong magic"),
            Self::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            Self::BadName => write!(f, "snapshot metric name is not UTF-8"),
        }
    }
}

impl std::error::Error for SnapshotDecodeError {}

const SNAPSHOT_MAGIC: [u8; 4] = *b"FQMS";
const SNAPSHOT_VERSION: u16 = 1;

/// Plain-data form of a registry: what the worker `STATS` frame carries
/// and what the text exposition renders.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramData>,
}

impl MetricsSnapshot {
    /// Adds `other` into this: counters and histogram buckets add, gauges
    /// sum (a cluster-wide gauge is the sum of its members). Every add
    /// saturates — `other` may be a peer's decoded `STATS` reply, and a
    /// peer must not be able to overflow the coordinator's scrape thread.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            let c = self.counters.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = g.saturating_add(*v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Versioned little-endian binary encoding, the `STATS` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        fn put_name(out: &mut Vec<u8>, name: &str) {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (name, v) in &self.counters {
            put_name(&mut out, name);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (name, v) in &self.gauges {
            put_name(&mut out, name);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.histograms.len() as u32).to_le_bytes());
        for (name, h) in &self.histograms {
            put_name(&mut out, name);
            out.push(h.buckets.len() as u8);
            for b in &h.buckets {
                out.extend_from_slice(&b.to_le_bytes());
            }
            out.extend_from_slice(&h.sum.to_le_bytes());
            out.extend_from_slice(&h.count.to_le_bytes());
        }
        out
    }

    /// Decodes an [`encode`](Self::encode) payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotDecodeError> {
        struct Cursor<'a>(&'a [u8]);
        impl<'a> Cursor<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotDecodeError> {
                if self.0.len() < n {
                    return Err(SnapshotDecodeError::Truncated);
                }
                let (head, tail) = self.0.split_at(n);
                self.0 = tail;
                Ok(head)
            }
            fn u16(&mut self) -> Result<u16, SnapshotDecodeError> {
                Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
            }
            fn u32(&mut self) -> Result<u32, SnapshotDecodeError> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
            }
            fn u64(&mut self) -> Result<u64, SnapshotDecodeError> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
            }
            fn name(&mut self) -> Result<String, SnapshotDecodeError> {
                let len = self.u16()? as usize;
                std::str::from_utf8(self.take(len)?)
                    .map(str::to_owned)
                    .map_err(|_| SnapshotDecodeError::BadName)
            }
        }
        let mut c = Cursor(bytes);
        if c.take(4)? != SNAPSHOT_MAGIC {
            return Err(SnapshotDecodeError::BadMagic);
        }
        let version = c.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotDecodeError::BadVersion(version));
        }
        let mut snap = MetricsSnapshot::default();
        for _ in 0..c.u32()? {
            let name = c.name()?;
            snap.counters.insert(name, c.u64()?);
        }
        for _ in 0..c.u32()? {
            let name = c.name()?;
            snap.gauges.insert(name, c.u64()? as i64);
        }
        for _ in 0..c.u32()? {
            let name = c.name()?;
            let n_buckets = c.take(1)?[0] as usize;
            let mut h = HistogramData { buckets: Vec::with_capacity(n_buckets), sum: 0, count: 0 };
            for _ in 0..n_buckets {
                h.buckets.push(c.u64()?);
            }
            h.sum = c.u64()?;
            h.count = c.u64()?;
            snap.histograms.insert(name, h);
        }
        Ok(snap)
    }

    /// Prometheus-style text exposition: counters, then gauges, then
    /// histograms, each sorted by name; histogram buckets are cumulative
    /// with `le` upper-bound labels. This format is pinned by a golden
    /// test — extend it by adding metrics, not by reshaping lines.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().take(FINITE_BUCKETS).enumerate() {
                cum = cum.saturating_add(c);
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    bucket_bound_micros(i)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
    /// Last snapshot scraped from each remote source (worker), replaced —
    /// not accumulated — per scrape so re-scraping never double-counts.
    remote: BTreeMap<String, MetricsSnapshot>,
}

/// Get-or-register home of every metric handle, plus the scraped remote
/// snapshots that complete the cluster view.
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    clock: Arc<dyn Clock>,
    inner: Mutex<RegistryInner>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry").field("enabled", &self.enabled()).finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An enabled registry on the production monotonic clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A disabled registry: every handle it vends no-ops until
    /// [`set_enabled`](Self::set_enabled)`(true)`. The default state of
    /// every scheduler — instrumented but free.
    pub fn disabled() -> Self {
        let r = Self::new();
        r.enabled.store(false, Ordering::Relaxed);
        r
    }

    /// An enabled registry on an explicit clock ([`FakeClock`] in tests).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(true)),
            clock,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// One relaxed load.
    #[inline]
    pub fn enabled(&self) -> bool {
        armed(&self.enabled)
    }

    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get-or-register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.lock();
        inner
            .counters
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(Counter::with_flag(Arc::clone(&self.enabled))))
            .clone()
    }

    /// Get-or-register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.lock();
        inner
            .gauges
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(Gauge::with_flag(Arc::clone(&self.enabled))))
            .clone()
    }

    /// Get-or-register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.lock();
        inner
            .histograms
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(Histogram::with_flag(Arc::clone(&self.enabled))))
            .clone()
    }

    /// Installs (replacing any previous snapshot from the same `source`)
    /// a scraped remote registry, e.g. one worker's `STATS` reply.
    pub fn ingest_remote(&self, source: &str, snap: MetricsSnapshot) {
        self.lock().remote.insert(source.to_owned(), snap);
    }

    /// Snapshot of this registry's own metrics only.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (k.clone(), v.data())).collect(),
        }
    }

    /// Own metrics plus every ingested remote snapshot — the cluster view.
    pub fn cluster_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        let inner = self.lock();
        for remote in inner.remote.values() {
            snap.merge(remote);
        }
        snap
    }

    /// The text exposition of [`cluster_snapshot`](Self::cluster_snapshot)
    /// — what the scrape endpoint serves.
    pub fn render_text(&self) -> String {
        self.cluster_snapshot().render_text()
    }
}

/// Minimal HTTP scrape endpoint: binds a `std::net::TcpListener`, answers
/// every request with `render()` as `text/plain`, stops on drop.
///
/// Each accepted request is **drained** before the reply: the server
/// reads until the `\r\n\r\n` header terminator (or EOF, an 8 KiB cap,
/// or a 250 ms absolute deadline) so a segmented or slow-writing scraper
/// cannot race its own request against the response — replying with
/// unread request bytes in the socket risks a TCP `RST` that discards
/// the buffered response on close.
#[derive(Debug)]
pub struct MetricsServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves scrapes on a
    /// background thread until the server is dropped.
    pub fn serve<F>(addr: &str, render: F) -> std::io::Result<Self>
    where
        F: Fn() -> String + Send + 'static,
    {
        let listener = std::net::TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut conn, _)) => {
                        // Some platforms hand the accepted socket the
                        // listener's nonblocking flag; the drain below
                        // needs real blocking reads under a deadline.
                        let _ = conn.set_nonblocking(false);
                        drain_request(&mut conn, Duration::from_millis(250));
                        let body = render();
                        let head = format!(
                            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                             Content-Length: {}\r\nConnection: close\r\n\r\n",
                            body.len()
                        );
                        let _ = conn.write_all(head.as_bytes());
                        let _ = conn.write_all(body.as_bytes());
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });
        Ok(Self { addr: local, stop, handle: Some(handle) })
    }

    /// The bound address (resolves `:0` to the chosen port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Reads the HTTP request off `conn` until the `\r\n\r\n` header
/// terminator, EOF, an 8 KiB cap, or the absolute `deadline` — whichever
/// comes first. The remaining deadline is re-armed as the socket read
/// timeout before every read, so one slow scraper costs at most
/// `deadline`, never a hang. Best-effort by design: a request that never
/// terminates still gets a reply, just a possibly-raced one.
fn drain_request(conn: &mut std::net::TcpStream, deadline: Duration) {
    let start = Instant::now();
    let mut buf = [0u8; 1024];
    let mut tail = [0u8; 4]; // last 4 bytes seen, across read boundaries
    let mut total = 0usize;
    loop {
        let Some(remaining) = deadline.checked_sub(start.elapsed()).filter(|d| !d.is_zero()) else {
            return;
        };
        if conn.set_read_timeout(Some(remaining)).is_err() {
            return;
        }
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => {
                total += n;
                // Slide the terminator window over the new bytes; the
                // carried tail catches a `\r\n\r\n` split across reads.
                for &b in &buf[..n] {
                    tail.rotate_left(1);
                    tail[3] = b;
                    if tail == *b"\r\n\r\n" {
                        return;
                    }
                }
                if total >= 8 * 1024 {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_picks_power_of_two_upper_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 25), FINITE_BUCKETS - 1);
        assert_eq!(bucket_index((1 << 25) + 1), FINITE_BUCKETS);
        assert_eq!(bucket_index(u64::MAX), FINITE_BUCKETS);
    }

    #[test]
    fn counter_sums_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::disabled();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        c.add(5);
        h.record(10);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        reg.set_enabled(true);
        c.add(5);
        h.record(10);
        assert_eq!(c.get(), 5);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn recorded_latencies_land_in_power_of_two_buckets() {
        let h = MetricsRegistry::new().histogram("lat");
        h.record(100); // lands in the le="128" bucket
        h.record(3000); // lands in the le="4096" bucket
        let data = h.data();
        assert_eq!(data.count, 2);
        assert_eq!(data.sum, 3100);
        assert_eq!(data.buckets[bucket_index(100)], 1);
        assert_eq!(data.buckets[bucket_index(3000)], 1);
        assert_eq!(h.p50(), 128);
        assert_eq!(h.percentile(99.0), 4096);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let h = Histogram::standalone();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        assert_eq!(h.p50(), 1);
        assert_eq!(h.percentile(95.0), 1024);
        assert_eq!(h.percentile(90.0), 1);
    }

    #[test]
    fn snapshot_roundtrips_through_wire_encoding() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total").add(7);
        reg.gauge("g").set(-3);
        reg.histogram("h_us").record(5);
        let snap = reg.snapshot();
        let decoded = MetricsSnapshot::decode(&snap.encode()).expect("roundtrip");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn snapshot_decode_rejects_garbage() {
        assert_eq!(MetricsSnapshot::decode(b"FQ"), Err(SnapshotDecodeError::Truncated));
        assert_eq!(MetricsSnapshot::decode(b"xxxx"), Err(SnapshotDecodeError::BadMagic));
        let mut v = MetricsSnapshot::default().encode();
        v[4] = 99;
        assert_eq!(MetricsSnapshot::decode(&v), Err(SnapshotDecodeError::BadVersion(99)));
    }

    #[test]
    fn merged_snapshots_add_counters_and_buckets() {
        let a = MetricsRegistry::new();
        a.counter("c").add(2);
        a.histogram("h").record(1);
        let b = MetricsRegistry::new();
        b.counter("c").add(3);
        b.histogram("h").record(1);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.histograms["h"].count, 2);
    }

    /// Counts in an ingested snapshot arrive in a peer's `STATS` reply:
    /// two workers reporting `u64::MAX` and `1` must pin the cluster view
    /// at the maximum, not overflow (and kill) the scrape thread.
    #[test]
    fn merged_peer_counts_saturate() {
        let peer = |counter: u64, gauge: i64, bucket: u64| {
            let mut snap = MetricsSnapshot::default();
            snap.counters.insert("x".into(), counter);
            snap.gauges.insert("g".into(), gauge);
            let mut h = HistogramData::new();
            (h.buckets[0], h.buckets[1], h.sum, h.count) = (bucket, bucket, counter, counter);
            snap.histograms.insert("h".into(), h);
            snap
        };
        let reg = MetricsRegistry::new();
        reg.ingest_remote("w0", peer(u64::MAX, i64::MAX, 1 << 63));
        reg.ingest_remote("w1", peer(1, 1, 1));
        let cluster = reg.cluster_snapshot();
        assert_eq!(cluster.counters["x"], u64::MAX);
        assert_eq!(cluster.gauges["g"], i64::MAX);
        let h = &cluster.histograms["h"];
        assert_eq!((h.buckets[0], h.sum, h.count), ((1 << 63) + 1, u64::MAX, u64::MAX));
        // Two buckets past 2^63 each: the running totals saturate too.
        assert_eq!(h.percentile(100.0), 2);
        let text = reg.render_text();
        assert!(text.contains("\nx 18446744073709551615\n"), "{text}");
        assert!(text.contains("h_bucket{le=\"2\"} 18446744073709551615\n"), "{text}");
    }

    /// The FQMS hostile-bytes sweep (FNQF frames have the same pair): a
    /// snapshot truncated at any byte is `Truncated`, and one with any
    /// byte flipped either fails typed or decodes to a snapshot every
    /// consumer survives — the flips reach bucket counts next to one
    /// already holding 2^63, so running totals are pushed past `u64::MAX`.
    #[test]
    fn snapshot_hostile_bytes_are_typed_errors_never_panics() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a_total".into(), 7);
        snap.counters.insert("b_total".into(), u64::MAX);
        snap.gauges.insert("g".into(), -3);
        let mut h = HistogramData::new();
        (h.buckets[2], h.buckets[5], h.sum, h.count) = (1 << 63, 4, 99, (1 << 63) + 4);
        snap.histograms.insert("h_us".into(), h);
        let bytes = snap.encode();
        assert_eq!(MetricsSnapshot::decode(&bytes), Ok(snap));
        for cut in 0..bytes.len() {
            assert_eq!(
                MetricsSnapshot::decode(&bytes[..cut]),
                Err(SnapshotDecodeError::Truncated),
                "cut at byte {cut}"
            );
        }
        let mut decoded = 0;
        for i in 0..bytes.len() {
            let mut hostile = bytes.clone();
            hostile[i] ^= 0xFF;
            if let Ok(got) = MetricsSnapshot::decode(&hostile) {
                decoded += 1;
                assert!(!got.render_text().is_empty(), "flip at byte {i}");
                for h in got.histograms.values() {
                    assert!(h.percentile(99.0) <= bucket_bound_micros(FINITE_BUCKETS - 1));
                }
                // And through the registry path a STATS reply takes.
                let reg = MetricsRegistry::new();
                reg.ingest_remote("w0", got.clone());
                reg.ingest_remote("w1", got);
                assert!(!reg.render_text().is_empty(), "flip at byte {i}");
            }
        }
        assert!(decoded > 0, "value-byte flips must still decode");
    }

    #[test]
    fn ingest_remote_replaces_per_source() {
        let reg = MetricsRegistry::new();
        reg.counter("local_total").add(1);
        let mut remote = MetricsSnapshot::default();
        remote.counters.insert("remote_total".into(), 10);
        reg.ingest_remote("w0", remote.clone());
        // Re-scraping the same source replaces, never accumulates.
        remote.counters.insert("remote_total".into(), 12);
        reg.ingest_remote("w0", remote);
        let cluster = reg.cluster_snapshot();
        assert_eq!(cluster.counters["remote_total"], 12);
        assert_eq!(cluster.counters["local_total"], 1);
    }

    /// Golden pin of the text exposition format. If this test needs
    /// editing, the scrape format changed — bump deliberately.
    #[test]
    fn golden_text_exposition() {
        let clock = Arc::new(FakeClock::new());
        let reg = MetricsRegistry::with_clock(clock);
        reg.counter("fineq_requests_finished_total").add(3);
        reg.gauge("fineq_live_replicas").set(4);
        let h = reg.histogram("fineq_ttft_us");
        h.record(100);
        h.record(3000);
        let text = reg.render_text();
        let expected = "\
# TYPE fineq_requests_finished_total counter
fineq_requests_finished_total 3
# TYPE fineq_live_replicas gauge
fineq_live_replicas 4
# TYPE fineq_ttft_us histogram
fineq_ttft_us_bucket{le=\"1\"} 0
fineq_ttft_us_bucket{le=\"2\"} 0
fineq_ttft_us_bucket{le=\"4\"} 0
fineq_ttft_us_bucket{le=\"8\"} 0
fineq_ttft_us_bucket{le=\"16\"} 0
fineq_ttft_us_bucket{le=\"32\"} 0
fineq_ttft_us_bucket{le=\"64\"} 0
fineq_ttft_us_bucket{le=\"128\"} 1
fineq_ttft_us_bucket{le=\"256\"} 1
fineq_ttft_us_bucket{le=\"512\"} 1
fineq_ttft_us_bucket{le=\"1024\"} 1
fineq_ttft_us_bucket{le=\"2048\"} 1
fineq_ttft_us_bucket{le=\"4096\"} 2
fineq_ttft_us_bucket{le=\"8192\"} 2
fineq_ttft_us_bucket{le=\"16384\"} 2
fineq_ttft_us_bucket{le=\"32768\"} 2
fineq_ttft_us_bucket{le=\"65536\"} 2
fineq_ttft_us_bucket{le=\"131072\"} 2
fineq_ttft_us_bucket{le=\"262144\"} 2
fineq_ttft_us_bucket{le=\"524288\"} 2
fineq_ttft_us_bucket{le=\"1048576\"} 2
fineq_ttft_us_bucket{le=\"2097152\"} 2
fineq_ttft_us_bucket{le=\"4194304\"} 2
fineq_ttft_us_bucket{le=\"8388608\"} 2
fineq_ttft_us_bucket{le=\"16777216\"} 2
fineq_ttft_us_bucket{le=\"33554432\"} 2
fineq_ttft_us_bucket{le=\"+Inf\"} 2
fineq_ttft_us_sum 3100
fineq_ttft_us_count 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn metrics_server_serves_the_rendered_text() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("fineq_scrapes_total").add(1);
        let render_reg = Arc::clone(&reg);
        let server =
            MetricsServer::serve("127.0.0.1:0", move || render_reg.render_text()).expect("bind");
        let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("request");
        let mut resp = String::new();
        conn.read_to_string(&mut resp).expect("response");
        assert!(resp.starts_with("HTTP/1.0 200 OK"), "{resp}");
        assert!(resp.contains("fineq_scrapes_total 1"), "{resp}");
    }
}
