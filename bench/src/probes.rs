//! Fixed-input micro-runs, one group per layer, executed at the end of a
//! traced run. A probe calls only public functions and measures the layer
//! **from outside**; its inputs do not depend on `--seed`, so a probe
//! reading moves only when the layer (or the host) does.

use crate::quant::{Fixture, LOOP_COLS, LOOP_ROWS};
use crate::stats::{lowest, median};
use crate::workers::Fleet;
use crate::workload::SLOTS;
use fineq::accel::sim::{PipelineSim, SimConfig};
use fineq::accel::workload::Workload;
use fineq::core::frame::{frame_bytes, FRAME_HEADER_BYTES};
use fineq::core::serialize::{from_bytes, to_bytes};
use fineq::core::{
    block_data_word, block_index_byte, decode_block_swar, read_frame, shard_from_bytes,
    shard_to_bytes, write_frame, FineQuantizer, Histogram, KernelScratch, MetricsRegistry,
    PackedMatrix, ShardHeader, ThreadPool,
};
use fineq::lm::builder::{llm_like_matrix, BuilderSpec};
use fineq::lm::{
    BatchKvCache, KvCache, RemoteShardedModel, ServeModel, ShardedModel, Transformer, WeightSite,
};
use fineq::quant::{Calibration, WeightQuantizer};
use fineq::tensor::{Matrix, Rng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub type Readings = Vec<(&'static str, f64)>;

/// One batched decode step: `(tokens, slots, cache) -> logits`.
type StepFn<'a> = dyn FnMut(&[usize], &[usize], &mut BatchKvCache) -> Matrix + 'a;

/// Wall time of each of `reps` calls of `f`, in microseconds.
fn times_us(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Fastest of `reps` calls of `f`, in microseconds: a probe's input is
/// fixed, so its calls differ only by the host, which only ever adds.
fn fastest_us(reps: usize, f: impl FnMut()) -> f64 {
    lowest(&times_us(reps, f)).expect("at least one call")
}

/// Median of `reps` calls of `f`, for the readings named `_p50`.
fn median_us(reps: usize, f: impl FnMut()) -> f64 {
    median(&times_us(reps, f))
}

fn activations(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 1.0))
}

fn packed_sites(model: &Transformer) -> Vec<&PackedMatrix> {
    let mut sites = Vec::new();
    for l in 0..model.n_layers() {
        for site in WeightSite::ALL {
            sites.push(model.weight(l, site).as_packed().expect("packed gate model"));
        }
    }
    sites
}

/// One pass over the twelve served sites at batch `b`, fastest of `reps`.
fn sites_pass_us(model: &Transformer, b: usize, reps: usize) -> f64 {
    let mut rng = Rng::seed_from(11);
    let mut scratch = KernelScratch::new();
    let inputs: Vec<(usize, WeightSite, Matrix)> = (0..model.n_layers())
        .flat_map(|l| WeightSite::ALL.map(|s| (l, s)))
        .map(|(l, s)| (l, s, activations(b, model.weight(l, s).cols(), &mut rng)))
        .collect();
    fastest_us(reps, || {
        for (l, site, a) in &inputs {
            black_box(model.weight(*l, *site).matmul_t_with(a, &mut scratch, None));
        }
    })
}

/// `kernels.*`: the packed sites of the gate model, outside any step body.
pub fn kernels(packed: &Transformer, stream_gb_s: f64) -> Readings {
    let sites = packed_sites(packed);
    let weights: usize = sites.iter().map(|p| p.rows() * p.cols()).sum();
    let packed_bytes: usize = sites.iter().map(|p| p.storage_bytes()).sum();
    let b1 = sites_pass_us(packed, 1, 40);
    let b16 = sites_pass_us(packed, SLOTS, 40);

    let mut rng = Rng::seed_from(12);
    let xs: Vec<Vec<f32>> = sites.iter().map(|p| rng.normal_vec(p.cols(), 0.0, 1.0)).collect();
    let mut outs: Vec<Vec<f32>> = sites.iter().map(|p| vec![0.0; p.rows()]).collect();
    let gemv_us = fastest_us(20, || {
        for ((p, x), out) in sites.iter().zip(&xs).zip(&mut outs) {
            p.matvec_into(x, out, None);
        }
        black_box(&outs);
    });
    let scalar_us = fastest_us(20, || {
        for ((p, x), out) in sites.iter().zip(&xs).zip(&mut outs) {
            for (o, ch) in out.iter_mut().zip(p.channels()) {
                *o = ch.dot_scalar(x);
            }
        }
        black_box(&outs);
    });

    let blocks: Vec<(u8, u64)> = sites[0]
        .channels()
        .iter()
        .flat_map(|ch| {
            ch.blocks().chunks_exact(7).map(|b| (block_index_byte(b), block_data_word(b)))
        })
        .collect();
    let decode_us = fastest_us(20, || {
        for &(idx, data) in &blocks {
            black_box(decode_block_swar(idx, data));
        }
    });

    let mut dense: Vec<Matrix> = sites.iter().map(|p| Matrix::zeros(p.rows(), p.cols())).collect();
    let dequant_us = fastest_us(20, || {
        for (p, out) in sites.iter().zip(&mut dense) {
            p.dequantize_into(out);
        }
        black_box(&dense);
    });

    let packed_mb_s = packed_bytes as f64 / b16; // bytes/us == MB/s
    vec![
        ("kernels.sites_us_b1", b1),
        ("kernels.sites_us_b16", b16),
        ("kernels.gemv_mweights_s", weights as f64 / gemv_us),
        ("kernels.gemv_scalar_mweights_s", weights as f64 / scalar_us),
        ("kernels.swar_vs_scalar_x", scalar_us / gemv_us),
        ("kernels.decode_blocks_per_us", blocks.len() as f64 / decode_us),
        ("kernels.dequant_mweights_s", weights as f64 / dequant_us),
        ("kernels.packed_mb_s_b16", packed_mb_s),
        ("kernels.stream_roof_share", packed_mb_s / 1e3 / stream_gb_s.max(1e-9)),
    ]
}

/// Steps `b` sequences together `steps` times from an empty cache and
/// returns each step's wall time (µs) and the cache it leaves.
fn batched_steps_us(
    step: &mut StepFn<'_>,
    cfg: &fineq::lm::ModelConfig,
    b: usize,
    steps: usize,
) -> (Vec<f64>, BatchKvCache) {
    let mut cache = BatchKvCache::new(cfg.n_layers, cfg.d_model, b);
    let slots: Vec<usize> = (0..b).collect();
    let times = (0..steps)
        .map(|s| {
            let tokens: Vec<usize> = (0..b).map(|i| (i * 7 + s * 13 + 3) % cfg.vocab).collect();
            let t = Instant::now();
            black_box(step(&tokens, &slots, &mut cache));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    (times, cache)
}

/// Fastest step at batch 16 with 16..32 cached positions per slot.
fn forward_us_b16(step: &mut StepFn<'_>, cfg: &fineq::lm::ModelConfig) -> f64 {
    let (times, _) = batched_steps_us(step, cfg, SLOTS, 32);
    lowest(&times[16..]).expect("16 steps")
}

/// `generate.*` probes, `pool.*` and `shard.*`: the step body around the
/// kernels, in-process.
pub fn step_body(dense: &Transformer, packed: &Transformer, sites_us_b16: f64) -> Readings {
    let cfg = packed.config().clone();
    let mut scratch = KernelScratch::new();
    let mut serial = |t: &[usize], s: &[usize], c: &mut BatchKvCache| {
        packed.forward_step_batch_with(t, s, c, &mut scratch)
    };
    // One run to 272 cached positions gives both context readings.
    let (times, mut cache) = batched_steps_us(&mut serial, &cfg, SLOTS, 272);
    let ctx16 = lowest(&times[16..32]).expect("16 steps");
    let ctx256 = lowest(&times[256..272]).expect("16 steps");

    let dense_us = forward_us_b16(&mut |t, s, c| dense.forward_step_batch(t, s, c), &cfg);

    let mut solo_cache = KvCache::new(cfg.n_layers, cfg.d_model);
    let solo_us = fastest_us(32, || {
        black_box(packed.forward_step(solo_cache.len() % cfg.vocab, &mut solo_cache));
    });

    let slot_kv_us = fastest_us(20, || {
        black_box(cache.slot_kv(0, 0));
    });
    let script: Vec<usize> = cache.slot_tokens(0).to_vec();
    let share_us = fastest_us(20, || {
        cache.reset_slot(1);
        black_box(cache.share_prefix(1, &script));
    });

    let pool = ThreadPool::new(2);
    let dispatch_us = median_us(400, || pool.run(64, 1, &|_, _, _| {}));
    let mut threaded = packed.clone();
    threaded.set_thread_pool(Some(Arc::new(ThreadPool::new(2))));
    let mut scratch2 = KernelScratch::new();
    let t2_us = forward_us_b16(
        &mut |t, s, c| threaded.forward_step_batch_with(t, s, c, &mut scratch2),
        &cfg,
    );

    let t = Instant::now();
    let mut sharded = ShardedModel::new(packed, 2);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    sharded.set_thread_pool(None);
    let mut scratch3 = KernelScratch::new();
    let sharded_us = forward_us_b16(
        &mut |t, s, c| sharded.forward_step_batch_with(t, s, c, &mut scratch3),
        &cfg,
    );

    vec![
        ("generate.rest_share_b16", 1.0 - sites_us_b16 / ctx16),
        ("generate.forward_us_b16_ctx16", ctx16),
        ("generate.forward_us_b16_ctx256", ctx256),
        ("generate.dense_forward_us_b16", dense_us),
        ("generate.packed_vs_dense_x", dense_us / ctx16),
        ("generate.solo_step_us", solo_us),
        ("generate.kv_slot_kv_us_ctx256", slot_kv_us),
        ("generate.kv_share_prefix_us", share_us),
        ("pool.dispatch_us_p50", dispatch_us),
        ("pool.forward_speedup_t2", ctx16 / t2_us),
        ("shard.build_ms", build_ms),
        ("shard.forward_us_b16_s2", sharded_us),
        ("shard.vs_unsharded_x", sharded_us / ctx16),
    ]
}

/// Bytes one batched step moves over the wire at batch `b`, computed from
/// sizes: per site and shard one `GATHER` (nonce, site, shape, `b × cols`
/// f32) and one `PARTIAL` (nonce, site, rows, shape, `b × rows` f32), each
/// in a 13-byte frame.
pub fn payload_bytes_per_step(remote: &RemoteShardedModel, b: usize) -> (usize, usize) {
    let plan = remote.plan();
    let (mut bytes, mut gathers) = (0usize, 0usize);
    for sp in plan.sites() {
        for shard in 0..plan.n_shards() {
            let (start, end) = sp.range(shard);
            if start < end {
                gathers += 1;
                bytes += 2 * FRAME_HEADER_BYTES
                    + (8 + 3 * 4 + b * sp.cols * 4)
                    + (8 + 4 * 4 + b * (end - start) * 4);
            }
        }
    }
    (bytes, gathers)
}

/// What a remote run (window or probe) measured, before attribution.
pub struct RemoteRun {
    pub load_ms: f64,
    pub forward_us_p50: f64,
    /// Per shard: Σ gather compute µs and gather count over the run.
    pub shard_compute_us: Vec<f64>,
    pub shard_gathers: Vec<usize>,
    pub steps: usize,
    pub payload_bytes_per_step: usize,
    pub health: fineq::lm::TransportHealth,
}

/// `remote.*` from a [`RemoteRun`]. `rest_us` is the coordinator's own
/// share of a step (attention, norms, embedding, head), taken from the
/// in-process probe of the same step body.
pub fn remote_readings(run: &RemoteRun, rest_us: f64) -> Readings {
    let steps = run.steps.max(1) as f64;
    let busiest = run.shard_compute_us.iter().copied().fold(0.0, f64::max) / steps;
    let gathers: usize = run.shard_gathers.iter().sum();
    vec![
        ("remote.load_ms", run.load_ms),
        ("remote.forward_us_p50", run.forward_us_p50),
        ("remote.worker_compute_us_per_step", busiest),
        ("remote.wire_us_per_step", run.forward_us_p50 - busiest - rest_us),
        ("remote.gathers_per_step", gathers as f64 / steps),
        ("remote.payload_kb_per_step", run.payload_bytes_per_step as f64 / 1e3),
        ("remote.retry_attempts", run.health.retry_attempts as f64),
        ("remote.timeouts", run.health.timeouts as f64),
        ("remote.deaths", run.health.deaths as f64),
    ]
}

/// The remote path on fixed inputs: two traced workers, 16 + 64 batched
/// steps at batch 16 straight through the coordinator model.
///
/// # Errors
///
/// Returns a message if workers cannot be started or the transport fails.
pub fn remote_probe(packed: &Transformer, socket_dir: &Path) -> Result<RemoteRun, String> {
    let fleet = Fleet::spawn(socket_dir, 2, true)?;
    let t = Instant::now();
    let remote = RemoteShardedModel::connect(packed, &fleet.replica_addrs())
        .map_err(|e| format!("connect: {e}"))?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let cfg = packed.config().clone();
    let mut scratch = KernelScratch::new();
    let (warm, measured) = (16usize, 64usize);
    let (times, _) = batched_steps_us(
        &mut |t, s, c| remote.forward_step_batch_with(t, s, c, &mut scratch),
        &cfg,
        SLOTS,
        warm + measured,
    );
    let health = remote.transport_health();
    let (payload, _) = payload_bytes_per_step(&remote, SLOTS);
    remote.shutdown_workers();
    let traces = fleet.join();
    Ok(RemoteRun {
        load_ms,
        forward_us_p50: median(&times[warm..]),
        shard_compute_us: traces.iter().map(|t| t.iter().map(|&(_, us)| us as f64).sum()).collect(),
        shard_gathers: traces.iter().map(Vec::len).collect(),
        steps: warm + measured,
        payload_bytes_per_step: payload,
        health,
    })
}

/// `frame.*` and `serialize.*`: the codecs under the wire and the
/// cold-start path, on a 16 KiB payload and one loop-sized matrix.
pub fn codecs(packed_matrix: &PackedMatrix) -> Readings {
    let payload = vec![0xA5u8; 16 << 10];
    let encode_us = fastest_us(200, || {
        black_box(frame_bytes(3, black_box(&payload)));
    });

    let (mut near, far) = std::os::unix::net::UnixStream::pair().expect("socket pair");
    let echo = std::thread::spawn(move || {
        let mut far = far;
        while let Ok((kind, body)) = read_frame(&mut far) {
            if write_frame(&mut far, kind, &body).is_err() {
                break;
            }
        }
    });
    let roundtrip_us = median_us(200, || {
        write_frame(&mut near, 3, &payload).expect("echo write");
        black_box(read_frame(&mut near).expect("echo read"));
    });
    drop(near);
    echo.join().expect("echo thread");

    let bytes = to_bytes(packed_matrix);
    let header = ShardHeader {
        shard_index: 0,
        n_shards: 1,
        site_id: 0,
        row_start: 0,
        total_rows: packed_matrix.rows() as u32,
    };
    let to_us = fastest_us(20, || {
        black_box(to_bytes(black_box(packed_matrix)));
    });
    let from_us = fastest_us(20, || {
        black_box(from_bytes(black_box(&bytes)).expect("parses"));
    });
    let shard_us = fastest_us(20, || {
        let env = shard_to_bytes(black_box(packed_matrix), &header);
        black_box(shard_from_bytes(&env).expect("parses"));
    });
    let mb = bytes.len() as f64; // bytes/us == MB/s
    vec![
        ("frame.encode_mb_s", payload.len() as f64 / encode_us),
        ("frame.roundtrip_us_p50", roundtrip_us),
        ("serialize.to_bytes_mb_s", mb / to_us),
        ("serialize.from_bytes_mb_s", mb / from_us),
        ("serialize.shard_roundtrip_mb_s", 2.0 * mb / shard_us),
    ]
}

/// `quantizer.*`, `pack.*` and `pipeline.*`: the offline path on one
/// loop-sized matrix and the Sim3B fixture.
pub fn offline(fixture: &Fixture) -> (Readings, PackedMatrix) {
    let mut rng = Rng::seed_from(13);
    let w = llm_like_matrix(LOOP_ROWS, LOOP_COLS, &BuilderSpec::tiny(), &mut rng);
    let weights = (LOOP_ROWS * LOOP_COLS) as f64;
    let q = FineQuantizer::paper();
    let none = Calibration::none();
    let quantize_us = fastest_us(5, || {
        black_box(q.quantize(black_box(&w), &none));
    });
    let pack_us = fastest_us(5, || {
        black_box(q.quantize_packed(black_box(&w)));
    });
    let packed = q.quantize_packed(&w);
    let deq = packed.dequantize();
    let recon_rel_err = f64::from(w.sub(&deq).frobenius_norm()) / f64::from(w.frobenius_norm());
    let slice_us = fastest_us(20, || {
        black_box(packed.slice_rows(0, LOOP_ROWS / 2));
    });
    let dequantize_us = fastest_us(10, || {
        black_box(packed.dequantize());
    });
    let calib_tokens = fixture.corpus.generate(1024, 5);
    let t = Instant::now();
    black_box(fineq::pipeline::collect_calibration(&fixture.dense, calib_tokens.tokens(), 256));
    let calibration_ms = t.elapsed().as_secs_f64() * 1e3;
    let readings = vec![
        ("quantizer.quantize_mweights_s", weights / quantize_us),
        ("quantizer.pack_mweights_s", weights / pack_us),
        ("quantizer.outlier_cluster_share", q.stats(&w).outlier_fraction()),
        ("quantizer.recon_rel_err", recon_rel_err),
        ("pack.bits_per_weight_data", packed.avg_bits_data()),
        ("pack.slice_rows_us", slice_us),
        ("pack.dequantize_mweights_s", weights / dequantize_us),
        ("pipeline.quantize_model_packed_ms", fixture.quantize_model_packed_ms),
        ("pipeline.collect_calibration_ms", calibration_ms),
    ];
    (readings, packed)
}

/// `accel.*` and `telemetry.*`: guards. The energy ratio is deterministic
/// (paper Fig. 9 stand-in); the telemetry costs bound what a later
/// in-program tracing change may spend.
pub fn guards() -> Readings {
    let sim = PipelineSim::new(SimConfig::default());
    let workload = Workload::llama_like("probe", 1024, 2752, 2, 64);
    let t = Instant::now();
    let cmp = sim.run(&workload);
    let sim_ms = t.elapsed().as_secs_f64() * 1e3;

    let hist = Histogram::standalone();
    let n = 1_000_000u64;
    let t = Instant::now();
    for i in 0..n {
        hist.record(black_box(i & 0xFFFF));
    }
    let record_ns = t.elapsed().as_secs_f64() * 1e9 / n as f64;
    let registry = MetricsRegistry::new();
    for name in ["queue_wait", "ttft", "inter_token", "step"] {
        let h = registry.histogram(&format!("fineq_{name}_us"));
        (0..1000u64).for_each(|i| h.record(i * 37));
    }
    for name in ["submitted", "admitted", "resumed", "finished", "failed", "steps"] {
        registry.counter(&format!("fineq_requests_{name}_total")).add(12_345);
    }
    let render_us = fastest_us(50, || {
        black_box(registry.render_text());
    });
    vec![
        ("accel.sim_ms", sim_ms),
        ("accel.energy_eff_x", cmp.normalized_ee()),
        ("telemetry.hist_record_ns", record_ns),
        ("telemetry.render_us", render_us),
    ]
}
