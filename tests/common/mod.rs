//! Fixtures shared by the serving suites: a packed random model, the
//! standard six-request workload, the simulator's transport settings,
//! and the seeded fleet simulator itself ([`sim`]).

// Each test binary uses its own subset of these fixtures.
#![allow(dead_code)]

pub mod sim;

use fineq::core::{FineQuantizer, RetryPolicy};
use fineq::lm::{ModelConfig, ServeRequest, Transformer, TransportConfig, WeightSite};
use fineq::tensor::{Matrix, Rng};
use std::time::Duration;

/// A fully packed random model of `cfg`, seeded; with `outliers`, one
/// weight in 25 is scaled up tenfold.
pub fn packed_model_of(cfg: ModelConfig, seed: u64, outliers: bool) -> Transformer {
    let mut m = Transformer::zeros(cfg.clone());
    let mut rng = Rng::seed_from(seed);
    *m.embedding_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.4));
    *m.head_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.4));
    let q = FineQuantizer::paper();
    for l in 0..m.n_layers() {
        for site in WeightSite::ALL {
            let (r, c) = {
                let w = m.weight(l, site);
                (w.rows(), w.cols())
            };
            let dense = Matrix::from_fn(r, c, |_, _| {
                let v = rng.laplace(0.0, 0.04);
                if outliers && rng.chance(0.04) {
                    v * 10.0
                } else {
                    v
                }
            });
            *m.weight_mut(l, site) = q.quantize_packed(&dense).into();
        }
    }
    m
}

/// [`packed_model_of`] at the suites' standard size.
pub fn packed_model(seed: u64, outliers: bool) -> Transformer {
    packed_model_of(ModelConfig::new(24, 8, 2, 2, 16), seed, outliers)
}

/// Six seeded requests with eos retirement and backfill through 4 slots.
pub fn workload(vocab: usize, mut submit: impl FnMut(ServeRequest)) {
    for id in 0..6u64 {
        let prompt: Vec<usize> =
            (0..3 + id as usize % 3).map(|i| (id as usize * 7 + i * 3 + 1) % vocab).collect();
        submit(ServeRequest {
            temperature: 0.9,
            seed: 500 + id,
            eos: Some(0),
            ..ServeRequest::new(id, prompt, 6 + id as usize % 3)
        });
    }
}

/// Deadlines the simulator honours only in [`sim::Fault::Stall`] (and
/// `transport_health` reports), and a nanosecond-scale seeded backoff:
/// blocking recovery costs no wall time, and rejoin pacing is the
/// policy's tick schedule.
pub fn sim_transport() -> TransportConfig {
    TransportConfig {
        connect_timeout: Duration::from_secs(2),
        load_timeout: Duration::from_secs(10),
        gather_timeout: Duration::from_millis(500),
        heartbeat_timeout: Duration::from_millis(300),
        retry: RetryPolicy {
            base: Duration::from_nanos(1),
            cap: Duration::from_nanos(8),
            max_attempts: 3,
            jitter_seed: 0xC4A0_5EED,
        },
    }
}

/// The exchange of a setup link that carries the third gather: after
/// one `LOAD` per site of the two-layer models here.
pub const THIRD_GATHER: u64 = 2 * 6 + 2;
