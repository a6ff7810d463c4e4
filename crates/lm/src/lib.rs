//! # fineq-lm
//!
//! Transformer language-model substrate for the FineQ reproduction.
//!
//! The paper evaluates quantization on pretrained LLaMA-2 checkpoints and
//! the WikiText-2 / C4 corpora, none of which can ship with this
//! repository. This crate provides the closest synthetic equivalents that
//! exercise the same code paths:
//!
//! * [`corpus`] — seeded *topical Markov* corpora ([`Corpus::wiki_like`],
//!   [`Corpus::c4_like`]): Zipfian marginals, Dirichlet-peaked bigram
//!   transitions and per-document latent topics, so that longer contexts
//!   carry genuine predictive value (what Table II measures).
//! * [`model`] — a real decoder-only transformer (RMSNorm, multi-head
//!   causal attention with ALiBi positional bias, FFN, tied residual
//!   stream) whose forward pass produces next-token logits.
//! * [`builder`] — the *constructed model*: body weights drawn from an
//!   LLM-like distribution (Laplace bulk + channel-concentrated outliers,
//!   paper Fig. 3b) around a functional skeleton (a topic-averaging
//!   attention head), and a readout head ridge-fitted on the corpus so the
//!   model genuinely predicts text.
//! * [`eval`] — windowed perplexity, the paper's accuracy metric.
//! * [`memory`] — the serving-memory layout model behind Fig. 2b.
//! * [`serving`] — the continuous-batching schedulers: a **paged**
//!   [`BatchKvCache`] (fixed-size token pages from a refcounted pool,
//!   copy-on-write prefix sharing) of independent sequence slots stepped
//!   together through `Transformer::forward_step_batch`, so packed weight
//!   streams are decoded once per layer per step for the whole batch;
//!   admission is by slot count, KV-byte headroom, or page-pool headroom
//!   with youngest-first preemption — preempted sequences resume
//!   token-identically.
//! * [`shard`] — row-sharded serving: a [`ShardPlan`] partitions every
//!   packed weight site's output channels across worker shards (balanced
//!   by packed bytes) and encodes each shard's slices in the versioned
//!   shard wire format; [`ShardPlan::rebuild`] reassembles the packed
//!   model from those bytes, and a [`BatchScheduler`] serves it
//!   bit-identically to the source model at any shard count.
//! * [`remote`] — multi-process sharded serving: workers over
//!   `std::net` (TCP or Unix sockets) load FNQS shard envelopes and serve
//!   batched gather requests; the [`RemoteShardedModel`] coordinator
//!   broadcasts/gathers with replica failover and deterministic replay,
//!   so the distributed token stream is bit-identical to the in-process
//!   engines even across worker crashes.
//!
//! ## Example
//!
//! ```
//! use fineq_lm::corpus::Corpus;
//! use fineq_lm::builder::{BuilderSpec, build_fitted_model};
//! use fineq_lm::eval::perplexity;
//!
//! let corpus = Corpus::wiki_like(64, 11);
//! let spec = BuilderSpec::tiny();
//! let (model, _) = build_fitted_model(&spec, &corpus, 2_000, 7);
//! let test = corpus.generate(512, 99);
//! let ppl = perplexity(&model, test.tokens(), 128);
//! assert!(ppl.is_finite() && ppl > 1.0);
//! ```

pub mod builder;
pub mod config;
pub mod corpus;
pub mod eval;
pub mod generate;
pub mod memory;
pub mod model;
pub mod remote;
pub mod serving;
pub mod shard;

pub use builder::{build_fitted_model, BuilderSpec};
pub use config::{ModelConfig, SimPreset};
pub use corpus::{Corpus, TokenStream};
pub use eval::{cross_entropy, perplexity};
pub use fineq_core::{FakeClock, MetricsRegistry, MetricsServer, MetricsSnapshot};
pub use fineq_core::{KernelScratch, ThreadPool};
pub use generate::{BatchKvCache, KvCache, PAGE_TOKENS};
pub use memory::ServingMemory;
pub use model::{LinearWeight, Transformer, WeightSite};
pub use remote::{
    run_worker_configured, Dialer, HealthReport, RemoteShardedModel, TransportConfig,
    TransportError, TransportHealth, Worker, WorkerEvent,
};
pub use serving::{
    AdmissionError, BatchScheduler, DistributedScheduler, FailedSequence, FinishReason,
    FinishedSequence, PreemptionEvent, Scheduler, SchedulerStats, ServeModel, ServeRequest,
    StepError,
};
pub use shard::{ShardPlan, ShardedModel, SitePlan};
