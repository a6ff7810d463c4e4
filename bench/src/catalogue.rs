//! The names and units of every metric the benchmark emits. The same
//! lists are declared in `/BENCHMARK.json`; a test keeps the two equal.

pub const WORKLOADS: [&str; 4] = ["decode_closed", "arrival_mix", "remote_2shard", "quantize_pack"];

/// End-to-end metrics: `(name, unit)`. Reported by `--trace 0` runs.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("tok_s", "tok/s"),
    ("ttft_ms_p50", "ms"),
    ("ttft_ms_p95", "ms"),
    ("gap_ms_p50", "ms"),
    ("gap_ms_p99", "ms"),
    ("slo_met_share", "share"),
    ("mem_mb", "MB"),
    ("quant_mweights_s", "Mweights/s"),
    ("load_mweights_s", "Mweights/s"),
    ("bits_per_weight", "bits"),
    ("ppl_ratio", "ratio"),
];

/// Per-layer metrics: `(name, unit)`. Reported by `--trace 1` runs.
pub const PER_LAYER: [(&str, &str); 88] = [
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("loadgen.failed", "count"),
    ("loadgen.refused", "count"),
    ("loadgen.unfinished", "count"),
    ("loadgen.backlog_end", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.tok_s_mean", "tok/s"),
    ("loadgen.herd_ttft_ms_p95", "ms"),
    ("loadgen.background_ttft_ms_p95", "ms"),
    ("serving.steps", "count"),
    ("serving.batch_mean", "seqs"),
    ("serving.slot_occupancy", "share"),
    ("serving.step_us_p50", "us"),
    ("serving.step_us_p99", "us"),
    ("serving.self_us_p50", "us"),
    ("serving.self_share", "share"),
    ("serving.submit_us_p50", "us"),
    ("serving.queue_wait_ms_p50", "ms"),
    ("serving.queue_wait_ms_p95", "ms"),
    ("serving.queue_depth_max", "count"),
    ("serving.preemptions", "count"),
    ("serving.stepped_per_useful", "ratio"),
    ("serving.prefill_token_share", "share"),
    ("generate.forward_us_p50", "us"),
    ("generate.forward_us_p99", "us"),
    ("generate.ctx_tokens_mean", "tokens"),
    ("generate.rest_share_b16", "share"),
    ("generate.forward_us_b16_ctx16", "us"),
    ("generate.forward_us_b16_ctx256", "us"),
    ("generate.dense_forward_us_b16", "us"),
    ("generate.packed_vs_dense_x", "x"),
    ("generate.solo_step_us", "us"),
    ("generate.kv_pages_peak", "pages"),
    ("generate.kv_free_pages_min", "pages"),
    ("generate.kv_shared_pages_peak", "pages"),
    ("generate.kv_cow_copies", "count"),
    ("generate.kv_shared_prefix_tokens", "tokens"),
    ("generate.kv_slot_kv_us_ctx256", "us"),
    ("generate.kv_share_prefix_us", "us"),
    ("kernels.sites_us_b1", "us"),
    ("kernels.sites_us_b16", "us"),
    ("kernels.gemv_mweights_s", "Mweights/s"),
    ("kernels.gemv_scalar_mweights_s", "Mweights/s"),
    ("kernels.swar_vs_scalar_x", "x"),
    ("kernels.decode_blocks_per_us", "1/us"),
    ("kernels.dequant_mweights_s", "Mweights/s"),
    ("kernels.packed_mb_s_b16", "MB/s"),
    ("kernels.stream_roof_share", "share"),
    ("pool.dispatch_us_p50", "us"),
    ("pool.forward_speedup_t2", "x"),
    ("shard.build_ms", "ms"),
    ("shard.forward_us_b16_s2", "us"),
    ("shard.vs_unsharded_x", "x"),
    ("remote.load_ms", "ms"),
    ("remote.forward_us_p50", "us"),
    ("remote.worker_compute_us_per_step", "us"),
    ("remote.wire_us_per_step", "us"),
    ("remote.gathers_per_step", "count"),
    ("remote.payload_kb_per_step", "KB"),
    ("remote.retry_attempts", "count"),
    ("remote.timeouts", "count"),
    ("remote.deaths", "count"),
    ("frame.encode_mb_s", "MB/s"),
    ("frame.roundtrip_us_p50", "us"),
    ("serialize.to_bytes_mb_s", "MB/s"),
    ("serialize.from_bytes_mb_s", "MB/s"),
    ("serialize.shard_roundtrip_mb_s", "MB/s"),
    ("quantizer.quantize_mweights_s", "Mweights/s"),
    ("quantizer.pack_mweights_s", "Mweights/s"),
    ("quantizer.outlier_cluster_share", "share"),
    ("quantizer.recon_rel_err", "ratio"),
    ("pack.bits_per_weight_data", "bits"),
    ("pack.slice_rows_us", "us"),
    ("pack.dequantize_mweights_s", "Mweights/s"),
    ("pipeline.quantize_model_packed_ms", "ms"),
    ("pipeline.collect_calibration_ms", "ms"),
    ("accel.sim_ms", "ms"),
    ("accel.energy_eff_x", "x"),
    ("telemetry.hist_record_ns", "ns"),
    ("telemetry.render_us", "us"),
    ("trace.overhead_share", "share"),
    ("trace.span_coverage", "share"),
    ("host.cpus", "count"),
    ("host.stream_gb_s", "GB/s"),
    ("host.fadd_chain_mops", "Mops/s"),
    ("host.other_cpu_share", "share"),
    ("host.rss_mb", "MB"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        doc.get(list)
            .and_then(Value::as_arr)
            .expect("list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect("string").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
    }

    #[test]
    fn the_catalogue_is_what_benchmark_json_declares() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_and_units_stay_inside_the_contracts_alphabets() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} is declared twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_stays_inside_the_contracts_limits() {
        let doc = benchmark_json();
        let keys: Vec<&str> =
            doc.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        for w in doc.get("workloads").and_then(Value::as_arr).expect("workloads") {
            let why = w.get("why").and_then(Value::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in doc.get("end_to_end").and_then(Value::as_arr).expect("end_to_end") {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!((0.0..=0.25).contains(&bound), "{bound}");
            let better = m.get("better").and_then(Value::as_str).expect("better");
            assert!(better == "lower" || better == "higher");
        }
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).expect("run_seconds");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
