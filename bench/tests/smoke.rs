//! Every workload end to end through the real binary, at `--seconds 2`:
//! the output contract, the declared metric names, and hermetic clean-up.

use fineq_loadbench::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use fineq_loadbench::json::{parse, Value};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_fineq-loadbench");

/// The catalogue's `(name, unit)` pairs; a unit test keeps the catalogue
/// equal to what `BENCHMARK.json` declares.
fn declared(list: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
}

fn name_is_well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Runs one workload and checks everything the contract asks of a run.
fn smoke(workload: &str, traced: bool, out: &Path) {
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} trace {traced} failed:\n{stderr}");

    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the last stdout line is one JSON object");
    let keys: Vec<&str> =
        result.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
    assert!(result.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "{stderr}");

    let emitted: BTreeSet<(String, String)> = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            assert!(name_is_well_formed(name), "metric name {name:?}");
            let value = m.get("value").and_then(Value::as_f64).expect("numeric value");
            assert!(value.is_finite(), "{name}");
            (name.clone(), m.get("unit").and_then(Value::as_str).expect("unit").to_owned())
        })
        .collect();
    let expected = if traced { declared(&PER_LAYER) } else { declared(&END_TO_END) };
    assert_eq!(emitted, expected, "{workload}: emitted vs declared metrics");
    if !traced {
        // End-to-end metrics are chosen never to read 0.
        for (name, m) in result.get("metrics").and_then(Value::as_obj).expect("metrics") {
            assert!(m.get("value").and_then(Value::as_f64) != Some(0.0), "{workload}: {name} is 0");
        }
    }

    let file = out.join(format!("{workload}.seed7.trace{}.json", u8::from(traced)));
    let stamped = parse(&std::fs::read_to_string(&file).expect("result file")).expect("JSON");
    for key in ["host_cpus", "cpu_model", "rustc", "git_commit"] {
        assert!(stamped.get("host").and_then(|h| h.get(key)).is_some(), "host stamp {key}");
    }
    for key in ["kernel_threads", "seed", "window_s", "warmup_s", "samples", "requests"] {
        assert!(stamped.get(key).is_some(), "result file field {key}");
    }
    if traced {
        let trace = std::fs::read_to_string(out.join(format!("{workload}.trace.jsonl")))
            .expect("trace file");
        let first = parse(trace.lines().next().expect("spans")).expect("span JSON");
        for key in ["name", "start_us", "end_us", "parent", "request"] {
            assert!(first.get(key).is_some(), "span field {key}");
        }
        let has = |name: &str| trace.contains(&format!("\"name\": \"{name}\""));
        assert!(has("loadgen.tick") && has("serving.step") && has("serving.take_finished"));
        assert!(has("request.queue") && has("request.prefill") && has("request.decode"));
        assert!(has(if workload == "remote_2shard" {
            "remote.forward"
        } else {
            "generate.forward"
        }));
    }

    // Hermetic: no socket directory, socket file or worker trace survives.
    let leftovers: Vec<PathBuf> = std::fs::read_dir(out)
        .expect("out dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() || p.extension().is_some_and(|x| x == "sock"))
        .collect();
    assert!(leftovers.is_empty(), "left behind: {leftovers:?}");
}

/// One test, so the runs never compete with each other for the CPUs.
#[test]
fn every_workload_meets_the_output_contract() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    for workload in WORKLOADS {
        smoke(workload, false, &out);
        smoke(workload, true, &out);
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    for args in [
        vec!["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
        vec!["--workload", "decode_closed", "--seed", "1", "--seconds", "1"],
        vec!["--workload", "decode_closed", "--seed", "x", "--seconds", "1", "--trace", "0"],
        vec!["compare", "only-one-dir"],
    ] {
        let output = Command::new(BIN).args(&args).output().expect("binary runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
