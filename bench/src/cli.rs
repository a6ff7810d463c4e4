//! Command line of the benchmark binary.
//!
//! ```text
//! fineq-loadbench --workload W --seed S --seconds N --trace 0|1 [--out DIR]
//! fineq-loadbench run --all [--runs K] [--seed S] [--seconds N] [--out DIR]
//! fineq-loadbench compare DIR_A DIR_B
//! fineq-loadbench worker unix:PATH [--trace-file FILE]      (internal)
//! ```

use crate::catalogue::WORKLOADS;
use crate::compare::{compare, find_benchmark_json};
use crate::json::parse;
use crate::report::{contract_line, result_file, result_path, table};
use crate::run::{run, RunArgs};
use crate::workers::worker_main;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  fineq-loadbench --workload <decode_closed|arrival_mix|remote_2shard|quantize_pack>
                  --seed <n> --seconds <n> --trace <0|1> [--out <dir>]
  fineq-loadbench run --all [--runs <k>] [--seed <n>] [--seconds <n>] [--out <dir>]
  fineq-loadbench compare <dir-a> <dir-b>";

/// Flag values by name; positional arguments in order.
struct Parsed {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String], switches: &[&str]) -> Result<Parsed, String> {
    let mut parsed = Parsed { flags: Vec::new(), switches: Vec::new(), positional: Vec::new() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if switches.contains(&name) {
                parsed.switches.push(name.to_owned());
            } else {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                parsed.flags.push((name.to_owned(), value.clone()));
            }
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    Ok(parsed)
}

impl Parsed {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flag(name)
            .map(|v| v.parse::<T>().map_err(|_| format!("--{name}: cannot read {v:?}")))
            .transpose()
    }
}

/// Results go under the benchmark's own directory of the checkout the
/// command runs in.
fn default_out_dir() -> PathBuf {
    match find_benchmark_json().as_deref().and_then(Path::parent) {
        Some(root) => root.join("bench").join("results"),
        None => PathBuf::from("bench").join("results"),
    }
}

/// The run length `BENCHMARK.json` fixes, for `run --all`.
fn declared_run_seconds() -> Option<f64> {
    let text = std::fs::read_to_string(find_benchmark_json()?).ok()?;
    parse(&text).ok()?.get("run_seconds")?.as_f64()
}

fn run_one(parsed: &Parsed) -> Result<ExitCode, String> {
    let workload = parsed.flag("workload").ok_or("--workload is required")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = parsed.number("seconds")?.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let traced = match parsed.flag("trace").ok_or("--trace is required")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let args = RunArgs {
        workload,
        seed: parsed.number("seed")?.ok_or("--seed is required")?,
        seconds,
        traced,
        out_dir: parsed.flag("out").map_or_else(default_out_dir, PathBuf::from),
    };
    let outcome = run(&args)?;
    let path = result_path(&outcome);
    std::fs::write(&path, result_file(&outcome).render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprint!("{}", table(&outcome));
    eprintln!("result file: {}", path.display());
    println!("{}", contract_line(&outcome));
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `run --all`: every workload `--runs` times untraced (seeds `seed`,
/// `seed + 1`, …) and once traced, each in a process of its own.
fn run_all(parsed: &Parsed) -> Result<ExitCode, String> {
    let runs: usize = parsed.number("runs")?.unwrap_or(5);
    let base_seed: u64 = parsed.number("seed")?.unwrap_or(1);
    let seconds: f64 = match parsed.number("seconds")? {
        Some(s) => s,
        None => {
            declared_run_seconds().ok_or("no --seconds and no BENCHMARK.json to read it from")?
        }
    };
    let out = parsed.flag("out").map_or_else(default_out_dir, PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        let jobs = (0..runs).map(|k| (base_seed + k as u64, "0")).chain([(base_seed, "1")]);
        for (seed, trace) in jobs {
            let status = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .arg("--out")
                .arg(&out)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("spawn run: {e}"))?;
            eprintln!("{workload} seed {seed} trace {trace}: {status}");
            all_ok &= status.success();
        }
    }
    eprintln!("results in {}", out.display());
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("worker") => {
            let parsed = parse_args(&args[1..], &[])?;
            let addr = parsed.positional.first().ok_or("worker needs an address")?;
            worker_main(addr, parsed.flag("trace-file").map(Path::new))
                .map_err(|e| format!("worker: {e}"))?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let [a, b] = &args[1..] else { return Err("compare needs two directories".into()) };
            let benchmark = find_benchmark_json().ok_or("no BENCHMARK.json at or above here")?;
            let (text, all_ok) = compare(Path::new(a), Path::new(b), &benchmark)?;
            print!("{text}");
            Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        Some("run") => {
            let parsed = parse_args(&args[1..], &["all"])?;
            if parsed.switches.iter().any(|s| s == "all") {
                run_all(&parsed)
            } else {
                run_one(&parsed)
            }
        }
        Some(_) => run_one(&parse_args(args, &[])?),
        None => Err("no arguments".into()),
    }
}

pub fn main(args: Vec<String>) -> ExitCode {
    match dispatch(&args) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("fineq-loadbench: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
