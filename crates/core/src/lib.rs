//! # fineq-core
//!
//! The paper's primary contribution: **fine-grained intra-cluster
//! mixed-precision quantization** (FineQ, DATE 2025).
//!
//! The pipeline, following Algorithm 1 / Fig. 4 of the paper:
//!
//! 1. Per channel (matrix row), compute the Eq. 1 symmetric scales
//!    `s_b = absmax / (2^(b-1) - 1)` for `b = 2` and `b = 3`.
//! 2. Split the channel into clusters of three consecutive weights.
//! 3. A cluster whose max absolute value exceeds `4x` its min absolute
//!    value is an **outlier cluster**: its two largest values are kept at
//!    3 bits and the smallest is sacrificed (set to zero). Normal clusters
//!    keep all three values at 2 bits. Both layouts cost 6 data bits.
//! 4. A 2-bit [`ClusterCode`] records which layout a cluster uses.
//!    Adjacent clusters must share a code; disagreeing pairs are
//!    *fine-tuned* by trying all four codes and keeping the one with
//!    minimal reconstruction error.
//! 5. Clusters are bit-packed eight at a time: one index byte (4 codes)
//!    followed by six data bytes — 7 bytes per 24 weights = **2.33 bits
//!    per weight**, with naturally aligned memory access.
//!
//! [`FineQuantizer`] implements the workspace-wide
//! [`WeightQuantizer`](fineq_quant::WeightQuantizer) trait so it can be
//! swept against the baselines, and [`PackedMatrix`] is the bit-exact
//! storage format consumed by the `fineq-accel` hardware model.
//!
//! ## Example
//!
//! ```
//! use fineq_core::FineQuantizer;
//! use fineq_quant::{Calibration, WeightQuantizer};
//! use fineq_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from(0);
//! let w = Matrix::from_fn(16, 96, |_, _| rng.laplace(0.0, 0.01));
//! let q = FineQuantizer::paper();
//! let out = q.quantize(&w, &Calibration::none());
//! assert!(out.avg_bits < 2.7); // ~2.33 data bits + per-channel scales
//! ```

pub mod cluster;
pub mod encoding;
pub mod frame;
pub mod kernels;
pub mod pack;
pub mod pool;
pub mod quantizer;
pub mod retry;
pub mod serialize;
pub mod stats;
pub mod telemetry;

pub use cluster::{split_channel, Cluster};
pub use encoding::ClusterCode;
pub use frame::{read_frame, write_frame, FrameError, Link, Listener, Stream};
pub use kernels::{decode_block_swar, KernelScratch};
pub use pack::{block_data_word, block_index_byte, Channels, PackedChannel, PackedMatrix};
pub use pool::ThreadPool;
pub use quantizer::{FineQConfig, FineQuantizer};
pub use retry::RetryPolicy;
pub use serialize::{shard_from_bytes, shard_to_bytes, DecodeError, ShardHeader};
pub use stats::ClusterStats;
pub use telemetry::{
    Clock, Counter, FakeClock, Gauge, Histogram, MetricsRegistry, MetricsServer, MetricsSnapshot,
    MonotonicClock, Span,
};
