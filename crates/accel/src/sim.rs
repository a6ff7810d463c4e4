//! Cycle-level pipeline simulator (the paper's six-stage pipeline,
//! Section IV-A) and the baseline-vs-FineQ workload comparison behind
//! Fig. 9.
//!
//! Stages: (1) off-chip DMA in, (2) decode, (3) input preload,
//! (4) matrix multiplication, (5) vector processing, (6) DMA write-back.
//! Stages are double-buffered, so a GEMM's duration is its bottleneck
//! stage; energies are charged per module from the calibrated
//! [`CostModel`].
//!
//! Large GEMMs are simulated by **row sampling**: a deterministic sample
//! of weight rows runs through the bit-serial array model, and cycle
//! counts scale linearly to the full matrix (weight rows are i.i.d. by
//! construction, so the estimator is unbiased; the sample size is the
//! one setting).

use crate::array::TemporalArray;
use crate::cost::{AcceleratorKind, CostModel, CLOCK_HZ};
use crate::systolic::SystolicArray;
use crate::workload::{sample_weights, Gemm, Workload};
use fineq_core::FineQuantizer;
use fineq_tensor::{Matrix, Rng};

/// PE array rows of the paper's 64x64 array (Table III), one decoder per
/// row.
const ARRAY_ROWS: u64 = 64;
/// PE array columns.
const ARRAY_COLS: usize = 64;
/// Off-chip bandwidth in bytes per cycle.
const DMA_BYTES_PER_CYCLE: u64 = 64;
/// Vector (SIMD) unit lanes.
const SIMD_LANES: u64 = 64;
/// Seed for the synthetic weights.
const SEED: u64 = 7;

/// Simulator configuration. The hardware is the paper's (a 64x64 array,
/// 64 decoders, 64 bytes of DMA and 64 vector lanes per cycle); only the
/// row sample is set here.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Weight rows sampled per GEMM for bit-serial simulation.
    pub sample_rows: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { sample_rows: 96 }
    }
}

/// Cycle counts per pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCycles {
    /// Off-chip reads (weights + activations).
    pub dma_in: u64,
    /// Weight decoding (FineQ only).
    pub decode: u64,
    /// Activation preload into the array.
    pub preload: u64,
    /// Matrix multiplication (streaming for FineQ, MAC for baseline).
    pub matmul: u64,
    /// Vector-unit post-processing.
    pub vector: u64,
    /// Off-chip write-back.
    pub dma_out: u64,
}

impl StageCycles {
    /// The bottleneck stage duration (pipeline throughput limit).
    pub fn bottleneck(&self) -> u64 {
        self.dma_in
            .max(self.decode)
            .max(self.preload + self.matmul)
            .max(self.vector)
            .max(self.dma_out)
    }
}

/// Result of running one workload on one accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Which accelerator.
    pub kind: AcceleratorKind,
    /// Summed stage cycles across GEMMs.
    pub stages: StageCycles,
    /// Pipelined total (sum of per-GEMM bottlenecks).
    pub total_cycles: u64,
    /// Array (+ decoder) energy in millijoules.
    pub energy_mj: f64,
    /// Total MAC-equivalent operations.
    pub macs: u64,
    /// Mean temporal stream cycles per broadcast step (1.0 for the
    /// baseline by definition).
    pub cycles_per_step: f64,
}

impl SimReport {
    /// Energy efficiency in MAC operations per millijoule.
    pub fn ops_per_mj(&self) -> f64 {
        self.macs as f64 / self.energy_mj.max(1e-12)
    }

    /// Wall-clock seconds at the paper's 400 MHz.
    pub fn seconds(&self) -> f64 {
        self.total_cycles as f64 / CLOCK_HZ
    }
}

/// Baseline and FineQ reports for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload label.
    pub workload: String,
    /// Baseline MAC systolic array.
    pub baseline: SimReport,
    /// FineQ temporal-coding array.
    pub fineq: SimReport,
}

impl Comparison {
    /// Normalized energy efficiency (Fig. 9): baseline energy divided by
    /// FineQ energy for the same work.
    pub fn normalized_ee(&self) -> f64 {
        self.fineq.ops_per_mj() / self.baseline.ops_per_mj()
    }
}

/// The pipeline simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSim {
    config: SimConfig,
}

impl PipelineSim {
    /// Builds a simulator of the paper's hardware and cost model.
    ///
    /// # Panics
    ///
    /// Panics if `config.sample_rows` is zero.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.sample_rows > 0);
        Self { config }
    }

    /// Runs a workload on both accelerators.
    pub fn run(&self, workload: &Workload) -> Comparison {
        let cost = CostModel::paper();
        let mut rng = Rng::seed_from(SEED);
        let mut base_stages = StageCycles::default();
        let mut fineq_stages = StageCycles::default();
        let mut base_total = 0u64;
        let mut fineq_total = 0u64;
        let mut stream_cycles = 0u64;
        let mut steps = 0u64;

        for gemm in &workload.gemms {
            let (b, f, sc, st) = self.run_gemm(gemm, &mut rng);
            base_total += b.bottleneck();
            fineq_total += f.bottleneck();
            accumulate(&mut base_stages, &b);
            accumulate(&mut fineq_stages, &f);
            stream_cycles += sc;
            steps += st;
        }

        let macs = workload.total_macs();
        let baseline = SimReport {
            kind: AcceleratorKind::BaselineSystolic,
            stages: base_stages,
            total_cycles: base_total,
            energy_mj: cost.energy_mj(
                AcceleratorKind::BaselineSystolic,
                base_stages.preload + base_stages.matmul,
            ),
            macs,
            cycles_per_step: 1.0,
        };
        let fineq_matmul_cycles = fineq_stages.preload + fineq_stages.matmul;
        let decoder_energy = {
            let decoder_power: f64 = cost
                .modules(AcceleratorKind::FineqTemporal)
                .iter()
                .filter(|m| m.name.contains("Decoder"))
                .map(|m| m.power_mw)
                .sum();
            decoder_power * (fineq_stages.decode as f64 / CLOCK_HZ)
        };
        let array_power: f64 = cost
            .modules(AcceleratorKind::FineqTemporal)
            .iter()
            .filter(|m| m.name.contains("PE Array"))
            .map(|m| m.power_mw)
            .sum();
        let fineq = SimReport {
            kind: AcceleratorKind::FineqTemporal,
            stages: fineq_stages,
            total_cycles: fineq_total,
            energy_mj: array_power * (fineq_matmul_cycles as f64 / CLOCK_HZ) + decoder_energy,
            macs,
            cycles_per_step: if steps == 0 { 1.0 } else { stream_cycles as f64 / steps as f64 },
        };
        Comparison { workload: workload.name.clone(), baseline, fineq }
    }

    /// Simulates one GEMM (row-sampled), returning per-stage cycles for
    /// baseline and FineQ plus raw stream statistics.
    fn run_gemm(&self, gemm: &Gemm, rng: &mut Rng) -> (StageCycles, StageCycles, u64, u64) {
        let rows = gemm.m.min(self.config.sample_rows);
        let w = sample_weights(rows, gemm.k, rng);
        let packed = FineQuantizer::paper().quantize_packed(&w);
        let x = Matrix::from_fn(gemm.k, ARRAY_COLS.min(gemm.n), |_, _| rng.normal(0.0, 1.0));

        let (_, tstats) = TemporalArray::paper().matmul(&packed, &x);
        let (_, sstats) = SystolicArray::paper().matmul(&w, &x);

        // Scale sampled counts to the full GEMM: rows scale the broadcast
        // work; n-tiles and instance count multiply everything.
        let row_scale = gemm.m as f64 / rows as f64;
        let n_tiles_full = gemm.n.div_ceil(ARRAY_COLS) as f64;
        let inst = gemm.count as f64;
        let scale_rows = row_scale * n_tiles_full * inst;
        let scale_tiles = n_tiles_full * inst;

        let stream = (tstats.stream_cycles as f64 * scale_rows) as u64;
        let steps = (tstats.broadcast_steps as f64 * scale_rows) as u64;
        let preload = (tstats.preload_cycles as f64 * scale_tiles) as u64;

        // DMA: FineQ reads packed weights (7 bytes / 24 weights); the
        // baseline reads int8 weights; both read fp16 activations once and
        // write fp16 outputs.
        let weight_bytes_fineq = (packed.channels().map(|c| c.data_bytes()).sum::<usize>() as f64
            * row_scale
            * inst) as u64;
        let weight_bytes_base = (gemm.m * gemm.k) as u64 * gemm.count as u64;
        let act_bytes = (gemm.k * gemm.n * 2) as u64 * gemm.count as u64;
        let out_bytes = (gemm.m * gemm.n * 2) as u64 * gemm.count as u64;
        let bw = DMA_BYTES_PER_CYCLE;

        let clusters_full = (gemm.m as u64) * (gemm.k as u64).div_ceil(3) * gemm.count as u64;
        let decoders = ARRAY_ROWS;

        let vector = (gemm.m * gemm.n) as u64 * gemm.count as u64 / SIMD_LANES;

        let base = StageCycles {
            dma_in: (weight_bytes_base + act_bytes) / bw,
            decode: 0,
            preload,
            matmul: (sstats.broadcast_steps as f64 * scale_rows) as u64,
            vector,
            dma_out: out_bytes / bw,
        };
        let fineq = StageCycles {
            dma_in: (weight_bytes_fineq + act_bytes) / bw,
            decode: clusters_full / decoders,
            preload,
            matmul: stream,
            vector,
            dma_out: out_bytes / bw,
        };
        (base, fineq, stream, steps)
    }
}

fn accumulate(into: &mut StageCycles, from: &StageCycles) {
    into.dma_in += from.dma_in;
    into.decode += from.decode;
    into.preload += from.preload;
    into.matmul += from.matmul;
    into.vector += from.vector;
    into.dma_out += from.dma_out;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_workload() -> Workload {
        Workload::llama_like("test", 128, 256, 2, 64)
    }

    fn small_sim() -> PipelineSim {
        PipelineSim::new(SimConfig { sample_rows: 48 })
    }

    #[test]
    fn fineq_streams_more_cycles_but_less_energy() {
        let cmp = small_sim().run(&small_workload());
        assert!(cmp.fineq.stages.matmul >= cmp.baseline.stages.matmul);
        assert!(cmp.fineq.energy_mj < cmp.baseline.energy_mj);
    }

    #[test]
    fn normalized_ee_lands_in_paper_range() {
        let cmp = small_sim().run(&small_workload());
        let ee = cmp.normalized_ee();
        assert!((1.3..2.3).contains(&ee), "normalized EE {ee} outside plausible paper range");
    }

    #[test]
    fn cycles_per_step_reflects_early_termination() {
        let cmp = small_sim().run(&small_workload());
        let cps = cmp.fineq.cycles_per_step;
        assert!((1.0..=3.0).contains(&cps), "cycles/step {cps}");
    }

    #[test]
    fn fineq_moves_fewer_weight_bytes() {
        let cmp = small_sim().run(&small_workload());
        assert!(cmp.fineq.stages.dma_in < cmp.baseline.stages.dma_in);
    }

    #[test]
    fn reports_are_deterministic_for_a_seed() {
        let a = small_sim().run(&small_workload());
        let b = small_sim().run(&small_workload());
        assert_eq!(a.fineq.total_cycles, b.fineq.total_cycles);
        assert_eq!(a.baseline.total_cycles, b.baseline.total_cycles);
    }

    #[test]
    fn small_workload_reports_are_pinned_bit_for_bit() {
        // The paper's 64x64 hardware at the default sample: cycles, energy
        // and stream cycles per step of both accelerators, to the bit.
        let cmp = PipelineSim::new(SimConfig::default()).run(&small_workload());
        let bits =
            |r: &SimReport| (r.total_cycles, r.energy_mj.to_bits(), r.cycles_per_step.to_bits());
        assert_eq!(bits(&cmp.baseline), (7680, 4563670448526197716, 4607182418800017408));
        assert_eq!(bits(&cmp.fineq), (10114, 4560815764013894378, 4611757486683193344));
    }

    #[test]
    fn bottleneck_is_max_stage() {
        let s = StageCycles { dma_in: 5, decode: 7, preload: 2, matmul: 10, vector: 1, dma_out: 3 };
        assert_eq!(s.bottleneck(), 12); // preload + matmul
    }

    #[test]
    fn macs_match_workload() {
        let w = small_workload();
        let cmp = small_sim().run(&w);
        assert_eq!(cmp.baseline.macs, w.total_macs());
        assert_eq!(cmp.fineq.macs, w.total_macs());
    }
}
