//! The host a number was taken on, and how busy that host was.
//!
//! ROADMAP: "a number only counts if it carries the host it was taken on".
//! Every result is stamped with the CPU count and model, the compiler and
//! the commit; traced runs add two roofline probes and the share of the
//! machine that processes other than the benchmark used during the window.

use crate::json::Value;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The stamp carried by every result file.
pub fn stamp() -> Value {
    Value::obj(vec![
        ("host_cpus", cpus().into()),
        ("cpu_model", Value::str(cpu_model())),
        (
            "rustc",
            Value::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            // The driver's checkout is not a git repository; say so
            // instead of inventing a hash.
            "git_commit",
            Value::str(
                command_line("git", &["rev-parse", "--short=12", "HEAD"])
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
    ])
}

/// Busy jiffies of the whole machine (all CPUs, everything but idle and
/// iowait), from `/proc/stat`.
fn machine_busy_jiffies() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        text.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal
    (fields.len() >= 8).then(|| fields[..8].iter().sum::<u64>() - fields[3] - fields[4])
}

/// `utime + stime` of one process, from `/proc/<pid>/stat`.
fn process_jiffies(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields count from after ")".
    let rest = text.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

/// CPU accounting at one instant, for [`CpuSample::other_share_since`].
#[derive(Debug, Clone)]
pub struct CpuSample {
    at: Instant,
    machine: Option<u64>,
    own: u64,
}

impl CpuSample {
    /// Samples the machine and the benchmark's own processes (`pids` are
    /// its worker subprocesses).
    pub fn take(pids: &[u32]) -> Self {
        let own = std::iter::once(std::process::id())
            .chain(pids.iter().copied())
            .filter_map(process_jiffies)
            .sum();
        Self { at: Instant::now(), machine: machine_busy_jiffies(), own }
    }

    /// Share of the machine's CPU capacity since `earlier` that went to
    /// processes other than the benchmark's. High values explain a run
    /// that disagrees with its siblings.
    pub fn other_share_since(&self, earlier: &CpuSample) -> f64 {
        let (Some(now), Some(then)) = (self.machine, earlier.machine) else { return 0.0 };
        // USER_HZ is 100 on every Linux this runs on.
        let capacity = self.at.duration_since(earlier.at).as_secs_f64() * 100.0 * cpus() as f64;
        let other = (now - then).saturating_sub(self.own.saturating_sub(earlier.own));
        if capacity > 0.0 {
            other as f64 / capacity
        } else {
            0.0
        }
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1e3)
}

/// Streaming-copy bandwidth in GB/s (bytes read + bytes written), best of
/// five over a buffer far larger than any cache level.
pub fn stream_gb_s() -> f64 {
    let n = 8 << 20; // 8 Mi f32 = 32 MiB per side
    let src = vec![1.0f32; n];
    let mut dst = vec![0.0f32; n];
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            (2 * n * 4) as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// Rate of one serial dependent `f32` add chain in Mops/s, best of three —
/// the latency wall a scalar GEMV channel runs at (same probe as
/// `crates/bench/benches/packed_batch.rs::float_add_chain_rate`).
pub fn fadd_chain_mops() -> f64 {
    let n = 20_000_000u64;
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0.0f32;
            for _ in 0..n {
                acc += black_box(1.000_000_1f32);
            }
            black_box(acc);
            n as f64 / t0.elapsed().as_secs_f64() / 1e6
        })
        .fold(0.0, f64::max)
}
