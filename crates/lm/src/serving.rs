//! Continuous-batching scheduler over the batched packed-decode step.
//!
//! The paper's serving argument (Fig. 2b) is that low-bit weights buy KV
//! head-room, i.e. **more concurrent sequences**; this module supplies the
//! machinery that turns that head-room into throughput. A
//! [`BatchScheduler`] owns a model and a [`BatchKvCache`] of `max_batch`
//! slots, admits [`ServeRequest`]s from a FIFO queue into free slots, and
//! steps every active sequence together through
//! [`Transformer::forward_step_batch`] — one packed weight-stream decode
//! per layer per step, amortized over the whole batch. Sequences retire on
//! an end-of-sequence token or their `max_new_tokens` budget, and freed
//! slots are backfilled from the queue at the start of the next step
//! (continuous batching: the batch never drains to refill).
//!
//! **The row rule.** A slot appears in a step as one contiguous run of
//! rows. Every active sequence feeds one token — the baseline admission
//! and preemption decide on — and because the kernel walks the weight
//! stream once per [`MAX_TILE`]-row panel whatever the panel holds
//! (`kernels.sites_us_b1` ≈ 0.6 ms vs `kernels.sites_us_b16` ≈ 0.9 ms on
//! the benchmark's gate model), the `MAX_TILE · ceil(active / MAX_TILE) −
//! active` rows left in the last panel ride a walk the step makes anyway:
//! they go,
//! oldest admission first, to sequences that still have *forced* tokens
//! (prompt, or the history a preempted sequence replays), each run capped
//! by its remaining script and by the pages free after the baseline. No
//! step opens a panel the one-row schedule would not have opened, no
//! sequence gets fewer rows than under it, and a spare row never causes
//! a preemption: a prompt costs as few steps as the spare rows allow
//! (1 / 2 / 7 for 8 / 24 / 104 tokens on an idle 16-slot scheduler)
//! instead of one per token.
//!
//! Because each slot's arithmetic in `forward_step_batch` is bit-identical
//! to single-sequence decoding, a request produces **token-identical**
//! output to [`Transformer::generate`] with the same prompt, temperature
//! and seed — independent of batch size, admission order, or which other
//! requests share its steps (asserted by tests).
//!
//! One generic [`Scheduler`] serves every execution topology through the
//! [`ServeModel`] trait: [`BatchScheduler`] (`Scheduler<Transformer>`)
//! drives the fused kernels in process, whether over the packed model or
//! over the one [`ShardPlan::rebuild`](crate::shard::ShardPlan::rebuild)
//! reassembled from its row shards' wire envelopes, and
//! [`DistributedScheduler`] drives remote worker shards. Scheduling,
//! sampling and retirement are one shared state machine, so whole
//! scheduler runs are **identical at any shard count**.
//!
//! The cache behind every scheduler is **paged** (fixed-size token pages
//! from a shared pool — see [`BatchKvCache`]), and pages are the one KV
//! budget: besides slot count, admission is limited by
//! [`Scheduler::set_page_budget`], which caps the pool at `max_pages`
//! physical pages ([`crate::memory::ServingMemory::max_pages`] turns a
//! device plan into that number) and admits a request as soon as the pool
//! has headroom for its *next step* rather than reserving its whole worst
//! case up front. A request that could *never* fit the pool is
//! refused at submit with a typed [`AdmissionError`] (the queue and every
//! admitted sequence unaffected). Over-commitment is resolved by
//! **preemption**: when the pool cannot cover the next step, the youngest
//! sequence's pages are evicted, the sequence is parked on a resume queue,
//! and a typed [`PreemptionEvent`] records the eviction. A resumed sequence
//! replays its prompt and already-generated tokens *without re-consuming
//! its sampling RNG*, so a preempted-and-resumed run is token-identical to
//! an unpressured one (asserted by tests at every thread × shard count).
//! [`Scheduler::enable_prefix_sharing`] additionally maps equal prompt
//! prefixes onto the same physical pages copy-on-write, so common-system-
//! prompt traffic pays KV bytes once instead of per sequence.

use crate::generate::{sample_token, slot_runs, BatchKvCache};
use crate::model::Transformer;
use fineq_core::kernels::MAX_TILE;
use fineq_core::telemetry::{Counter, Histogram, MetricsRegistry};
use fineq_core::KernelScratch;
use fineq_tensor::{Matrix, Rng};
use std::collections::VecDeque;
use std::sync::Arc;

/// One generation request submitted to a [`BatchScheduler`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Caller-chosen identifier, echoed in the [`FinishedSequence`].
    pub id: u64,
    /// Prompt tokens (must be non-empty).
    pub prompt: Vec<usize>,
    /// Maximum continuation length (must be positive).
    pub max_new_tokens: usize,
    /// Softmax temperature (must be positive).
    pub temperature: f32,
    /// Seed of the request's private sampling RNG.
    pub seed: u64,
    /// Optional end-of-sequence token: sampling it finishes the request.
    pub eos: Option<usize>,
}

impl ServeRequest {
    /// A request with temperature 1.0, seed `id` and no end-of-sequence
    /// token; adjust fields directly for anything else.
    pub fn new(id: u64, prompt: Vec<usize>, max_new_tokens: usize) -> Self {
        Self { id, prompt, max_new_tokens, temperature: 1.0, seed: id, eos: None }
    }
}

/// Why a sequence left the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// The end-of-sequence token was sampled.
    Eos,
    /// The `max_new_tokens` budget was spent.
    MaxTokens,
}

/// A completed request: the generated continuation (the prompt is not
/// repeated) and why it stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedSequence {
    /// The request's id.
    pub id: u64,
    /// Prompt length, for caller-side accounting.
    pub prompt_len: usize,
    /// Generated tokens, including the end-of-sequence token if one
    /// finished the request.
    pub generated: Vec<usize>,
    /// Why generation stopped.
    pub reason: FinishReason,
}

/// A sequence occupying a batch slot: its token script, how much of it the
/// slot has cached, and the sampling state.
#[derive(Debug, Clone)]
struct ActiveSeq {
    id: u64,
    /// The prompt, then every sampled token. The one feeding rule: a step
    /// feeds `script[fed..fed + n]` and the sequence samples — appending
    /// here — iff `fed` then reaches `script.len()`. A decoding sequence
    /// has one unfed token; (re-)admission leaves a prompt or a whole
    /// history of *forced* tokens, fed without sampling, so the RNG is not
    /// re-consumed and resumed output is token-identical.
    script: Vec<usize>,
    prompt_len: usize,
    /// Script tokens the slot has cached (fed, or mapped by prefix sharing).
    fed: usize,
    max_new_tokens: usize,
    temperature: f32,
    eos: Option<usize>,
    rng: Rng,
    /// Admission stamp (monotonic): preemption evicts the youngest —
    /// the sequence with the largest stamp — first, so the oldest work
    /// keeps its cache and finishes.
    admitted_at: u64,
    /// Registry-clock submission time (0 when telemetry is disabled):
    /// anchors the queue-wait and TTFT histograms.
    submitted_us: u64,
    /// Registry-clock time of the last sampled token (0 until the first):
    /// anchors the inter-token-latency histogram. Survives preemption, so
    /// a resumed sequence's first new token records the real gap the
    /// eviction cost it.
    last_token_us: u64,
}

/// Why a request (or a budget installation) was refused admission. Unlike
/// the contract violations `submit` panics on (empty prompt,
/// out-of-vocabulary token, non-positive temperature or budget), an
/// impossible request under a page budget is an *operational* condition —
/// a well-formed request meeting a deliberately tight deployment limit —
/// so it surfaces as a typed error the caller can handle (shed the
/// request, split it, route it to a bigger pool) without unwinding the
/// scheduler. The scheduler's queue and every admitted sequence are
/// untouched by a rejection (asserted by tests).
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The request's worst case needs more physical pages than the
    /// configured page pool holds in total: it could never be admitted
    /// (or, once evicted, never resume) and would block the FIFO head
    /// forever.
    PageBudgetExceeded {
        /// The offending request's (or sequence's) id.
        id: u64,
        /// Whole pages the worst case (`prompt + max_new_tokens` cached
        /// tokens) would occupy.
        required_pages: usize,
        /// Total pages in the configured pool.
        budget_pages: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let AdmissionError::PageBudgetExceeded { id, required_pages, budget_pages } = self;
        write!(
            f,
            "request {id} can never fit the page pool: needs {required_pages} pages \
             of {budget_pages}"
        )
    }
}

impl std::error::Error for AdmissionError {}

/// Why a batched step failed mid-flight — the transport conditions
/// replication cannot mask, surfaced per affected request as
/// [`FailedSequence`] instead of unwinding the scheduler. In-process
/// engines never produce one; only the distributed topology can.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// Every replica of a shard group is dead and bounded blocking
    /// recovery could not revive any of them. The group may still heal
    /// later (rejoin probes keep running), at which point the scheduler
    /// serves new submissions again.
    NoLiveReplica {
        /// The shard whose replica group is exhausted.
        shard: usize,
    },
    /// Any other transport failure that escaped failover/replay.
    Transport {
        /// Human-readable cause.
        detail: String,
    },
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::NoLiveReplica { shard } => {
                write!(f, "shard {shard} has no live replica left")
            }
            StepError::Transport { detail } => write!(f, "transport failure: {detail}"),
        }
    }
}

impl std::error::Error for StepError {}

/// A request that died with the step it was riding when the transport
/// gave out — the graceful-degradation counterpart of
/// [`FinishedSequence`], drained with [`Scheduler::take_failed`]. Its KV
/// pages are freed (the failed step never committed, so there is nothing
/// to roll back) and the rest of the batch is failed alongside it; queued
/// requests stay queued and are served once capacity allows.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedSequence {
    /// The request's id.
    pub id: u64,
    /// Prompt length, for caller-side accounting.
    pub prompt_len: usize,
    /// Tokens generated before the failure (partial output).
    pub generated: Vec<usize>,
    /// The transport condition that killed the step.
    pub error: StepError,
}

/// Worst-case cached tokens of one request over its whole lifetime.
/// A sequence feeds (and therefore caches) at most
/// `prompt_len + max_new_tokens - 1` tokens — the final sampled token
/// is never fed back — so this bound is safe with a token to spare.
fn bound_tokens(prompt_len: usize, max_new_tokens: usize) -> usize {
    prompt_len + max_new_tokens
}

/// One preemption, recorded when pool pressure evicts a sequence's pages.
/// The sequence itself is parked on the scheduler's resume queue — this
/// event is the caller-visible audit record, drained through
/// [`Scheduler::take_preemption_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptionEvent {
    /// The evicted request's id.
    pub id: u64,
    /// The batched step count at eviction time.
    pub step: u64,
    /// Cached tokens dropped from the pool (replayed on resume).
    pub dropped_cached_tokens: usize,
}

/// A point-in-time occupancy snapshot of a [`Scheduler`]: where every
/// request is (queued / active / parked for resume / finished) and how the
/// page pool behind them is spent. Taken with [`Scheduler::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Requests waiting in the FIFO queue (never yet admitted).
    pub queued: usize,
    /// Sequences currently occupying batch slots.
    pub active: usize,
    /// Sequences evicted under pool pressure, waiting to resume.
    pub preempted: usize,
    /// Total preemptions so far (a sequence may be evicted repeatedly).
    pub preemptions: u64,
    /// Completed sequences not yet drained with `take_finished`.
    pub finished: usize,
    /// Physical pages currently allocated from the pool.
    pub allocated_pages: usize,
    /// Pages of headroom under the configured pool capacity (`None` when
    /// no page budget is installed — the pool grows on demand).
    pub free_pages: Option<usize>,
    /// Physical pages mapped by more than one sequence (prefix sharing).
    pub shared_pages: usize,
    /// Copy-on-write page copies performed so far.
    pub cow_copies: u64,
    /// Tokens per page (the pool's allocation granule).
    pub page_tokens: usize,
    /// Cumulative tokens admitted by mapping shared pages instead of
    /// recomputing and re-caching them.
    pub shared_prefix_tokens: u64,
    /// Sequences killed by a transport failure, not yet drained with
    /// `take_failed`.
    pub failed: usize,
    /// Transport robustness counters (deaths, failovers, rejoins, retry
    /// attempts, open deadlines) when the served model is distributed;
    /// `None` for in-process engines, which have no transport.
    pub transport: Option<crate::remote::TransportHealth>,
}

/// A queued request plus its registry-clock submission stamp (0 when
/// telemetry was disabled at submit time).
#[derive(Debug, Clone)]
struct QueuedRequest {
    req: ServeRequest,
    submitted_us: u64,
}

/// The scheduler's handles into a [`MetricsRegistry`]: request-lifecycle
/// counters (queued → admitted → finished / failed / preempted) and the
/// serving latency histograms. Every handle embeds the registry's enabled
/// flag, so the default disabled registry costs one relaxed load per
/// record site and **zero clock reads** (time is only sampled when
/// [`ServingMetrics::now`] returns `Some`). Telemetry never feeds back
/// into scheduling decisions — it is output-invisible by construction.
#[derive(Debug, Clone)]
struct ServingMetrics {
    registry: Arc<MetricsRegistry>,
    submitted: Arc<Counter>,
    admitted: Arc<Counter>,
    resumed: Arc<Counter>,
    finished: Arc<Counter>,
    failed: Arc<Counter>,
    preempted: Arc<Counter>,
    steps: Arc<Counter>,
    stepped_tokens: Arc<Counter>,
    queue_wait_us: Arc<Histogram>,
    ttft_us: Arc<Histogram>,
    inter_token_us: Arc<Histogram>,
    step_us: Arc<Histogram>,
}

impl ServingMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            submitted: registry.counter("fineq_requests_submitted_total"),
            admitted: registry.counter("fineq_requests_admitted_total"),
            resumed: registry.counter("fineq_requests_resumed_total"),
            finished: registry.counter("fineq_requests_finished_total"),
            failed: registry.counter("fineq_requests_failed_total"),
            preempted: registry.counter("fineq_preemptions_total"),
            steps: registry.counter("fineq_steps_total"),
            // Rows, not sequences: a run of `n` rows in one step adds `n`.
            stepped_tokens: registry.counter("fineq_stepped_tokens_total"),
            queue_wait_us: registry.histogram("fineq_queue_wait_us"),
            ttft_us: registry.histogram("fineq_ttft_us"),
            inter_token_us: registry.histogram("fineq_inter_token_us"),
            step_us: registry.histogram("fineq_step_us"),
            registry,
        }
    }

    /// The registry clock, read only when telemetry is live — the
    /// disabled path never touches a clock.
    #[inline]
    fn now(&self) -> Option<u64> {
        if self.registry.enabled() {
            Some(self.registry.now_micros())
        } else {
            None
        }
    }
}

/// Whether a worst case of `bound` cached tokens could ever fit a pool of
/// `budget_pages` — the feasibility check shared by submit-time and
/// install-time validation (a request failing it would wait at the FIFO
/// head forever). This is also the invariant preemption convergence rests
/// on: a lone admitted sequence always fits, so evicting down to one
/// sequence always unblocks the step.
fn check_pages_feasible(
    id: u64,
    bound: usize,
    page_tokens: usize,
    budget_pages: usize,
) -> Result<(), AdmissionError> {
    let required_pages = bound.div_ceil(page_tokens);
    if required_pages > budget_pages {
        return Err(AdmissionError::PageBudgetExceeded { id, required_pages, budget_pages });
    }
    Ok(())
}

/// A model a continuous-batching scheduler can serve: one batched decode
/// step over slot-addressed K/V histories. Implemented by the in-process
/// [`Transformer`] (fused in-place kernels; a model rebuilt from its shard
/// envelopes is one too) and the multi-process
/// [`RemoteShardedModel`](crate::remote::RemoteShardedModel) (worker
/// shards over the frame protocol). Every channel computes the same bits
/// wherever it runs, so any two implementations over the same weights are
/// bit-identical — which is why one generic [`Scheduler`] serves both.
pub trait ServeModel {
    /// The architecture of the served model.
    fn config(&self) -> &crate::config::ModelConfig;

    /// One batched decode step with caller-owned kernel scratch; see
    /// [`Transformer::forward_step_batch_with`].
    fn forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Matrix;

    /// Fallible variant of [`ServeModel::forward_step_batch_with`] — the
    /// one the scheduler drives. In-process engines cannot fail a step,
    /// so the default just wraps the infallible path; the distributed
    /// model overrides it to surface transport exhaustion (every replica
    /// of a shard dead) as a typed [`StepError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`StepError`] that killed the step; on `Err` the
    /// step's KV writes were never committed.
    fn try_forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Result<Matrix, StepError> {
        Ok(self.forward_step_batch_with(tokens, slots, cache, scratch))
    }

    /// Transport robustness counters, when the model serves over one.
    /// `None` for in-process engines.
    fn transport_health(&self) -> Option<crate::remote::TransportHealth> {
        None
    }

    /// Hands the model the scheduler's metrics registry so engine-side
    /// layers (the distributed transport) can fold their own counters and
    /// histograms into the same plane. In-process engines have nothing to
    /// report beyond what the scheduler already records — the default is
    /// a no-op.
    fn install_telemetry(&self, _registry: &Arc<MetricsRegistry>) {}

    /// The execution thread pool, if one is installed.
    fn thread_pool(&self) -> Option<&std::sync::Arc<fineq_core::ThreadPool>>;
}

impl ServeModel for Transformer {
    fn config(&self) -> &crate::config::ModelConfig {
        Transformer::config(self)
    }

    fn forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Matrix {
        Transformer::forward_step_batch_with(self, tokens, slots, cache, scratch)
    }

    fn thread_pool(&self) -> Option<&std::sync::Arc<fineq_core::ThreadPool>> {
        Transformer::thread_pool(self)
    }
}

/// Continuous-batching engine: a queue of requests, `max_batch` sequence
/// slots, and one batched decode step that drives them all. Generic over
/// the [`ServeModel`] computing each step's logits — the request queue,
/// slots, sampling state and retirement logic never look at the model, so
/// every instantiation runs the identical state machine and the only thing
/// that differs between engines is who computes the logits.
#[derive(Debug, Clone)]
pub struct Scheduler<M> {
    model: M,
    cache: BatchKvCache,
    /// The kernels' activation-restage buffer, reused across every step of
    /// the scheduler's lifetime (pure scratch: never affects output).
    scratch: KernelScratch,
    slots: Vec<Option<ActiveSeq>>,
    queue: VecDeque<QueuedRequest>,
    /// Sequences evicted under pool pressure, in eviction order. Resumes
    /// take priority over the FIFO queue so preempted work cannot starve.
    preempted: VecDeque<ActiveSeq>,
    finished: Vec<FinishedSequence>,
    /// Sequences killed by a transport failure, drained through
    /// `take_failed` — the graceful-degradation ledger.
    failed: Vec<FailedSequence>,
    steps: u64,
    stepped_tokens: u64,
    prefix_sharing: bool,
    preemptions: u64,
    preemption_events: Vec<PreemptionEvent>,
    /// Monotonic admission stamp source (counts re-admissions too).
    admit_counter: u64,
    /// Registry handles for lifecycle counters and latency histograms;
    /// points at a disabled registry until `set_telemetry` installs a
    /// live one.
    metrics: ServingMetrics,
}

/// The in-process scheduler: a [`Scheduler`] over a [`Transformer`], the
/// packed model or its [`ShardPlan::rebuild`](crate::shard::ShardPlan::rebuild).
pub type BatchScheduler = Scheduler<Transformer>;

/// The multi-process scheduler: a [`Scheduler`] over a
/// [`RemoteShardedModel`](crate::remote::RemoteShardedModel) — each step's
/// linear sites broadcast activations to remote worker processes over the
/// checksummed frame protocol and gather their partial outputs. Sites
/// sharing one input (Q/K/V) travel as **one nonce-tagged exchange per
/// shard** — the activations once, every site's rows back in one reply —
/// and replica failover replays that request, byte for byte, under the
/// original nonce. Output is
/// **bit-identical** to [`BatchScheduler`] for the same requests at any
/// shard and replica count, worker crashes included (the
/// `distributed-gate` CI job enforces this with real subprocesses).
pub type DistributedScheduler = Scheduler<crate::remote::RemoteShardedModel>;

impl<M: ServeModel> Scheduler<M> {
    /// A scheduler owning `model` with `max_batch` concurrent sequence
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(model: M, max_batch: usize) -> Self {
        Self::with_page_tokens(model, max_batch, crate::generate::PAGE_TOKENS)
    }

    /// Like [`Scheduler::new`] but with an explicit KV page granule
    /// instead of the default [`crate::generate::PAGE_TOKENS`] — smaller
    /// pages make page budgets meaningful for short test sequences.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `page_tokens` is zero.
    pub fn with_page_tokens(model: M, max_batch: usize, page_tokens: usize) -> Self {
        assert!(max_batch > 0, "scheduler needs at least one slot");
        let cfg = model.config();
        let cache =
            BatchKvCache::with_page_tokens(cfg.n_layers, cfg.d_model, max_batch, page_tokens);
        Self {
            model,
            cache,
            scratch: KernelScratch::new(),
            slots: (0..max_batch).map(|_| None).collect(),
            queue: VecDeque::new(),
            preempted: VecDeque::new(),
            finished: Vec::new(),
            failed: Vec::new(),
            steps: 0,
            stepped_tokens: 0,
            prefix_sharing: false,
            preemptions: 0,
            preemption_events: Vec::new(),
            admit_counter: 0,
            metrics: ServingMetrics::new(Arc::new(MetricsRegistry::disabled())),
        }
    }

    /// The served model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The live batch cache (for memory accounting; in the sharded
    /// topology it lives on the orchestrator, not the shards).
    pub fn cache(&self) -> &BatchKvCache {
        &self.cache
    }

    /// Sequence slots (the maximum concurrent batch).
    pub fn max_batch(&self) -> usize {
        self.slots.len()
    }

    /// Sequences currently occupying slots.
    fn active(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.preempted.is_empty() && self.slots.iter().all(Option::is_none)
    }

    /// Batched steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Rows fed across all sequences and steps (prefill + replay + decode;
    /// a run of `n` rows counts `n`) — the numerator of a tokens/sec
    /// measurement.
    pub fn stepped_tokens(&self) -> u64 {
        self.stepped_tokens
    }

    /// Caps the physical KV page pool at `max_pages` — the one KV budget
    /// ([`crate::memory::ServingMemory::max_pages`] sizes it from a device
    /// plan): a request is admitted as soon as the pool has headroom for
    /// the batch's next step (plus one page for the newcomer) instead of
    /// reserving its whole worst case. Pool pressure later is resolved by
    /// preempting the youngest sequence — see
    /// [`Scheduler::take_preemption_events`] — and resumed sequences
    /// replay to token-identical output. A pool holding every slot's worst
    /// case (`max_batch × ceil((prompt + max_new) / page_tokens)` pages)
    /// never preempts.
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError::PageBudgetExceeded`] if any queued,
    /// parked or active sequence's worst case could never fit `max_pages`
    /// at once (it could then never resume); the scheduler and the cache
    /// capacity are left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `max_pages` is zero.
    pub fn set_page_budget(&mut self, max_pages: usize) -> Result<(), AdmissionError> {
        assert!(max_pages > 0, "page budget must be positive");
        // Revalidate every queued, parked and active sequence's worst case
        // first — otherwise an already-queued impossible request would
        // block the FIFO head forever and `run` would spin without
        // progress. A rejection leaves scheduler and cache as they were.
        let bounds = self
            .queue
            .iter()
            .map(|q| (q.req.id, bound_tokens(q.req.prompt.len(), q.req.max_new_tokens)))
            .chain(
                self.preempted
                    .iter()
                    .chain(self.slots.iter().flatten())
                    .map(|s| (s.id, bound_tokens(s.prompt_len, s.max_new_tokens))),
            );
        for (id, bound) in bounds {
            check_pages_feasible(id, bound, self.cache.page_tokens(), max_pages)?;
        }
        self.cache.set_capacity_pages(max_pages);
        Ok(())
    }

    /// Enables (or disables) copy-on-write prefix sharing: a newly
    /// admitted sequence maps the physical pages of any resident sequence
    /// with the same token prefix instead of recomputing and re-caching
    /// it. Off by default so runs stay step-for-step comparable with
    /// sharing-unaware schedulers; turning it on never changes served
    /// tokens, only KV bytes and prefill work (asserted by tests).
    pub fn enable_prefix_sharing(&mut self, on: bool) {
        self.prefix_sharing = on;
    }

    /// Total preemptions so far (one sequence may be evicted repeatedly);
    /// the same count as [`SchedulerStats::preemptions`], kept because the
    /// load benchmark's oracle reads it.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Drains the recorded [`PreemptionEvent`]s (oldest first).
    pub fn take_preemption_events(&mut self) -> Vec<PreemptionEvent> {
        std::mem::take(&mut self.preemption_events)
    }

    /// Installs a [`MetricsRegistry`] as this scheduler's telemetry
    /// plane: request-lifecycle counters, queue-wait/TTFT/inter-token/
    /// step-latency histograms, and (through
    /// [`ServeModel::install_telemetry`]) whatever the engine itself
    /// records — the distributed transport folds its per-site gather
    /// histograms and death/failover/rejoin counters into the same
    /// registry. Telemetry is pure observation: enabling it never changes
    /// served tokens (the repo-wide determinism contract).
    pub fn set_telemetry(&mut self, registry: Arc<MetricsRegistry>) {
        self.model.install_telemetry(&registry);
        self.metrics = ServingMetrics::new(registry);
    }

    /// A point-in-time occupancy snapshot: request states and page-pool
    /// spend. Cheap — counters and free-list arithmetic only.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            queued: self.queue.len(),
            active: self.active(),
            preempted: self.preempted.len(),
            preemptions: self.preemptions,
            finished: self.finished.len(),
            allocated_pages: self.cache.allocated_pages(),
            free_pages: self.cache.free_pages(),
            shared_pages: self.cache.shared_pages(),
            cow_copies: self.cache.cow_copies(),
            page_tokens: self.cache.page_tokens(),
            shared_prefix_tokens: self.cache.shared_prefix_tokens(),
            failed: self.failed.len(),
            transport: self.model.transport_health(),
        }
    }

    /// Enqueues a request. It enters the batch when a slot frees up (or
    /// immediately at the next step if one is free).
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError::PageBudgetExceeded`] if a configured
    /// page pool is too small to ever hold the request's worst case: an
    /// operational rejection, not a panic, because a well-formed request
    /// meeting a tight deployment limit is the serving layer's to handle.
    /// A rejected request leaves the queue and every already-admitted
    /// sequence untouched (asserted by tests).
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or holds an out-of-vocabulary token,
    /// the temperature is not positive, or `max_new_tokens` is zero — the
    /// same contract as [`Transformer::generate`], enforced here so a bad
    /// request is rejected at submission instead of panicking steps later
    /// inside a batch that holds other requests' work.
    pub fn submit(&mut self, request: ServeRequest) -> Result<(), AdmissionError> {
        assert!(!request.prompt.is_empty(), "prompt must not be empty");
        let vocab = self.model.config().vocab;
        for &tok in &request.prompt {
            assert!(tok < vocab, "prompt token id {tok} out of vocabulary");
        }
        assert!(request.temperature > 0.0, "temperature must be positive");
        assert!(request.max_new_tokens > 0, "max_new_tokens must be positive");
        if let Some(budget_pages) = self.cache.capacity_pages() {
            check_pages_feasible(
                request.id,
                bound_tokens(request.prompt.len(), request.max_new_tokens),
                self.cache.page_tokens(),
                budget_pages,
            )?;
        }
        self.metrics.submitted.inc();
        let submitted_us = self.metrics.now().unwrap_or(0);
        self.queue.push_back(QueuedRequest { req: request, submitted_us });
        Ok(())
    }

    /// Slot ids of every occupied slot, in slot order.
    fn active_slots(&self) -> Vec<usize> {
        (0..self.slots.len()).filter(|&s| self.slots[s].is_some()).collect()
    }

    /// Whether one more sequence can be admitted *now* under the page
    /// budget (always, without one). The check is deliberately
    /// *optimistic*: it only asks for headroom covering the batch's next
    /// step plus one page for the newcomer, because preemption recovers
    /// from pressure that only materializes later. That optimism is where
    /// paged throughput comes from — slots fill on actual usage, not on
    /// reservations.
    fn has_headroom(&self) -> bool {
        self.cache
            .free_pages()
            .is_none_or(|free| free > self.cache.pages_needed_for_step(&self.active_slots()))
    }

    /// Installs a sequence into `slot` with its whole script still to
    /// feed: with prefix sharing the slot maps every page an already-
    /// resident sequence has for the same token prefix (copy-on-write),
    /// and `fed` skips past whatever was shared. The rest is forced, so
    /// admission — first or repeated — never consumes RNG state.
    fn install(&mut self, slot: usize, mut seq: ActiveSeq) {
        self.cache.reset_slot(slot);
        seq.fed = if self.prefix_sharing { self.cache.share_prefix(slot, &seq.script) } else { 0 };
        seq.admitted_at = self.admit_counter;
        self.admit_counter += 1;
        self.slots[slot] = Some(seq);
    }

    /// Moves work into free slots (continuous-batching backfill), called
    /// at the start of every step. Preempted sequences resume first, then
    /// the FIFO queue; under a budget the head waits — no skip-ahead —
    /// until headroom opens up.
    fn admit(&mut self) {
        let now = self.metrics.now();
        for slot in 0..self.slots.len() {
            if self.slots[slot].is_some() {
                continue;
            }
            if !self.has_headroom() {
                break;
            }
            if let Some(seq) = self.preempted.pop_front() {
                self.metrics.resumed.inc();
                self.install(slot, seq);
                continue;
            }
            let Some(queued) = self.queue.pop_front() else { break };
            self.metrics.admitted.inc();
            if let Some(now) = now {
                self.metrics.queue_wait_us.record(now.saturating_sub(queued.submitted_us));
            }
            let req = queued.req;
            self.install(
                slot,
                ActiveSeq {
                    id: req.id,
                    prompt_len: req.prompt.len(),
                    script: req.prompt,
                    fed: 0,
                    max_new_tokens: req.max_new_tokens,
                    temperature: req.temperature,
                    eos: req.eos,
                    rng: Rng::seed_from(req.seed),
                    admitted_at: 0,
                    submitted_us: queued.submitted_us,
                    last_token_us: 0,
                },
            );
        }
    }

    /// Evicts sequences until the pool can cover the batch's next step.
    /// Runs after admission, before the forward step. Victims are chosen
    /// youngest-first (largest admission stamp), so the oldest work keeps
    /// its cache and drains the pool by finishing. Submit-time feasibility
    /// guarantees a lone sequence always fits, so this always terminates
    /// with a steppable batch.
    fn preempt_for_headroom(&mut self) {
        loop {
            let active = self.active_slots();
            if active.len() <= 1 {
                return;
            }
            let Some(free) = self.cache.free_pages() else { return };
            if self.cache.pages_needed_for_step(&active) <= free {
                return;
            }
            let victim = *active
                .iter()
                .max_by_key(|&&s| self.slots[s].as_ref().expect("active slot").admitted_at)
                .expect("active is non-empty");
            let seq = self.slots[victim].take().expect("victim slot is occupied");
            self.preemption_events.push(PreemptionEvent {
                id: seq.id,
                step: self.steps,
                dropped_cached_tokens: self.cache.slot_len(victim),
            });
            self.cache.reset_slot(victim);
            self.preempted.push_back(seq);
            self.preemptions += 1;
            self.metrics.preempted.inc();
        }
    }

    /// The batched step's inputs under the module's row rule: one
    /// contiguous run per active sequence, in slot order — one row each,
    /// then the last panel's spare rows dealt oldest admission first to
    /// sequences with forced tokens left, each run capped by its remaining
    /// script and by the pages free after the one-row-each baseline.
    fn step_inputs(&self) -> (Vec<usize>, Vec<usize>) {
        let active = self.active_slots();
        let seq = |slot: usize| self.slots[slot].as_ref().expect("active slot");
        let mut rows = vec![1usize; self.slots.len()];
        let mut spare_rows = active.len().next_multiple_of(MAX_TILE) - active.len();
        if spare_rows > 0 {
            let mut spare_pages = self
                .cache
                .free_pages()
                .map(|free| free.saturating_sub(self.cache.pages_needed_for_step(&active)));
            let forced = |slot: usize| seq(slot).script.len() - seq(slot).fed;
            let mut oldest_first: Vec<usize> =
                active.iter().copied().filter(|&slot| forced(slot) > 1).collect();
            oldest_first.sort_by_key(|&slot| seq(slot).admitted_at);
            for slot in oldest_first {
                let want = forced(slot).min(1 + spare_rows);
                let pages = |n: usize| self.cache.pages_to_reserve(slot, n).count();
                let extra_pages = |n: usize| pages(n) - pages(1);
                let mut n = 1;
                while n < want && spare_pages.is_none_or(|p| extra_pages(n + 1) <= p) {
                    n += 1;
                }
                if let Some(p) = &mut spare_pages {
                    *p -= extra_pages(n);
                }
                spare_rows -= n - 1;
                rows[slot] = n;
            }
        }
        let mut tokens = Vec::new();
        let mut slot_ids = Vec::new();
        for slot in active {
            let (s, n) = (seq(slot), rows[slot]);
            tokens.extend_from_slice(&s.script[s.fed..s.fed + n]);
            slot_ids.extend(std::iter::repeat_n(slot, n));
        }
        (tokens, slot_ids)
    }

    /// Applies one step's logits: advances every stepped sequence by its
    /// run, samples — from the **last** row of the run — for those whose
    /// script is now fully fed, and retires finished ones.
    fn finish_step(&mut self, logits: &Matrix, slot_ids: &[usize]) {
        self.steps += 1;
        self.stepped_tokens += slot_ids.len() as u64;
        self.metrics.steps.inc();
        self.metrics.stepped_tokens.add(slot_ids.len() as u64);
        // One clock read per step, shared by every row below — per-token
        // latency resolution is the step, which is exactly the grain the
        // batched engine schedules at.
        let now = self.metrics.now();
        let mut rows_done = 0;
        for run in slot_runs(slot_ids) {
            let slot = run[0];
            rows_done += run.len();
            let seq = self.slots[slot].as_mut().expect("stepped slot is occupied");
            seq.fed += run.len();
            if seq.fed < seq.script.len() {
                // Forced tokens (prompt or replay) remain: the logits are
                // ignored, exactly what `generate` does while prefilling.
                continue;
            }
            // Sample from the run's last row through the same helper
            // `Transformer::generate` uses.
            let tok = sample_token(logits.row(rows_done - 1), seq.temperature, &mut seq.rng);
            seq.script.push(tok);
            let n_generated = seq.script.len() - seq.prompt_len;
            if let Some(now) = now {
                if n_generated == 1 {
                    // First token of the request: TTFT from submission.
                    self.metrics.ttft_us.record(now.saturating_sub(seq.submitted_us));
                } else if seq.last_token_us > 0 {
                    self.metrics.inter_token_us.record(now.saturating_sub(seq.last_token_us));
                }
                seq.last_token_us = now;
            }
            let hit_eos = seq.eos == Some(tok);
            if hit_eos || n_generated >= seq.max_new_tokens {
                let mut seq = self.slots[slot].take().expect("finishing slot is occupied");
                // Free the K/V history immediately: an idle scheduler holds
                // no cache, and KV-headroom accounting sees only live
                // sequences.
                self.cache.reset_slot(slot);
                self.metrics.finished.inc();
                self.finished.push(FinishedSequence {
                    id: seq.id,
                    prompt_len: seq.prompt_len,
                    generated: seq.script.split_off(seq.prompt_len),
                    reason: if hit_eos { FinishReason::Eos } else { FinishReason::MaxTokens },
                });
            }
        }
    }

    /// Fails every sequence that was riding the step that just died:
    /// each keeps its partial output and the typed error, its KV pages
    /// are freed (the dead step never committed, so the cache holds no
    /// half-written state to roll back), and queued requests stay queued
    /// for when capacity returns. The step counter still advances so
    /// audit timelines (preemption events) stay monotone.
    fn fail_step(&mut self, slot_ids: &[usize], error: &StepError) {
        self.steps += 1;
        self.metrics.steps.inc();
        for run in slot_runs(slot_ids) {
            let mut seq = self.slots[run[0]].take().expect("stepped slot is occupied");
            self.cache.reset_slot(run[0]);
            self.metrics.failed.inc();
            self.failed.push(FailedSequence {
                id: seq.id,
                prompt_len: seq.prompt_len,
                generated: seq.script.split_off(seq.prompt_len),
                error: error.clone(),
            });
        }
    }

    /// Runs one batched step: admits queued requests into free slots,
    /// feeds every active sequence's next token (and the last panel's
    /// spare rows, see the module's row rule) through the model's batched
    /// decode step, samples continuations for sequences whose script is
    /// fully fed, and retires finished ones.
    ///
    /// Returns the number of **sequences** stepped (0 when idle); the rows
    /// they fed are counted by [`Scheduler::stepped_tokens`].
    pub fn step(&mut self) -> usize {
        let step_started = self.metrics.now();
        self.admit();
        self.preempt_for_headroom();
        let (tokens, slot_ids) = self.step_inputs();
        if tokens.is_empty() {
            return 0;
        }
        match self.model.try_forward_step_batch_with(
            &tokens,
            &slot_ids,
            &mut self.cache,
            &mut self.scratch,
        ) {
            Ok(logits) => self.finish_step(&logits, &slot_ids),
            Err(e) => self.fail_step(&slot_ids, &e),
        }
        if let Some(t0) = step_started {
            let elapsed = self.metrics.registry.now_micros().saturating_sub(t0);
            self.metrics.step_us.record(elapsed);
        }
        slot_runs(&slot_ids).count()
    }

    /// Completed sequences accumulated so far, drained.
    pub fn take_finished(&mut self) -> Vec<FinishedSequence> {
        std::mem::take(&mut self.finished)
    }

    /// Drains the sequences killed by transport failures (oldest first),
    /// each carrying its partial output and the typed [`StepError`].
    pub fn take_failed(&mut self) -> Vec<FailedSequence> {
        std::mem::take(&mut self.failed)
    }

    /// Steps until every queued and active request completes, returning
    /// all finished sequences (in completion order).
    pub fn run(&mut self) -> Vec<FinishedSequence> {
        while !self.is_idle() {
            self.step();
        }
        self.take_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_fitted_model, BuilderSpec};
    use crate::corpus::Corpus;

    fn fitted_tiny() -> (Transformer, Corpus) {
        let corpus = Corpus::wiki_like(64, 5);
        let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 3_000, 2);
        (model, corpus)
    }

    fn request(id: u64, prompt: Vec<usize>, n: usize) -> ServeRequest {
        ServeRequest { temperature: 0.9, seed: 100 + id, ..ServeRequest::new(id, prompt, n) }
    }

    #[test]
    fn empty_queue_is_idle_and_steps_zero() {
        let (model, _) = fitted_tiny();
        let mut sched = BatchScheduler::new(model, 4);
        assert!(sched.is_idle());
        assert_eq!(sched.step(), 0);
        assert_eq!(sched.steps(), 0);
        assert!(sched.run().is_empty());
        assert_eq!(sched.cache().total_tokens(), 0);
    }

    #[test]
    fn batch_of_one_matches_generate_token_for_token() {
        let (model, corpus) = fitted_tiny();
        let prompt = corpus.generate(6, 21).tokens().to_vec();
        let mut rng = Rng::seed_from(909);
        let expect = model.generate(&prompt, 12, 0.8, &mut rng);
        let mut sched = BatchScheduler::new(model, 1);
        sched
            .submit(ServeRequest {
                temperature: 0.8,
                seed: 909,
                ..ServeRequest::new(7, prompt.clone(), 12)
            })
            .expect("no KV budget configured");
        let done = sched.run();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 7);
        assert_eq!(done[0].generated, expect);
        assert_eq!(done[0].reason, FinishReason::MaxTokens);
        assert_eq!(done[0].prompt_len, prompt.len());
    }

    #[test]
    fn batched_runs_match_solo_generate_despite_backfill() {
        // 5 requests through 2 slots: admission, retirement and backfill
        // all happen mid-decode, yet every request's tokens are identical
        // to a solo `generate` with the same seed — batch composition can
        // never leak between sequences.
        let (model, corpus) = fitted_tiny();
        let mut sched = BatchScheduler::new(model.clone(), 2);
        let mut expected = Vec::new();
        for id in 0..5u64 {
            let prompt = corpus.generate(3 + id as usize, 60 + id).tokens().to_vec();
            let n = 4 + 2 * (id as usize % 3);
            let mut rng = Rng::seed_from(100 + id);
            expected.push(model.generate(&prompt, n, 0.9, &mut rng));
            sched.submit(request(id, prompt, n)).expect("no KV budget configured");
        }
        assert_eq!(sched.stats().queued, 5);
        let mut done = sched.run();
        assert_eq!(done.len(), 5);
        done.sort_by_key(|f| f.id);
        for (id, fin) in done.iter().enumerate() {
            assert_eq!(fin.generated, expected[id], "request {id}");
        }
        assert!(sched.is_idle());
        // Retirement frees K/V immediately: an idle scheduler holds none.
        assert_eq!(sched.cache().total_tokens(), 0);
        assert_eq!(sched.cache().fp16_bytes(), 0);
    }

    #[test]
    fn all_sequences_finishing_the_same_step_free_the_whole_batch() {
        let (model, corpus) = fitted_tiny();
        let mut sched = BatchScheduler::new(model, 3);
        let prompt = corpus.generate(4, 31).tokens().to_vec();
        // Same prompt length and budget: all three retire on the same step.
        for id in 0..3 {
            sched.submit(request(id, prompt.clone(), 5)).expect("no KV budget configured");
        }
        let mut last_active = 0;
        while !sched.is_idle() {
            sched.step();
            last_active = sched.stats().active;
        }
        assert_eq!(last_active, 0, "final step must retire every slot");
        let done = sched.take_finished();
        assert_eq!(done.len(), 3);
        // Steps: the three 4-token prompts fit the first 16-row panel, so
        // the step that feeds them also samples, then 4 more decode steps
        // (the final sampled token is not fed back; retirement is
        // immediate). Rows are conserved: each sequence still feeds its 4
        // prompt tokens and 4 of its 5 sampled ones.
        assert_eq!(sched.steps(), 5);
        assert_eq!(sched.stepped_tokens(), 3 * (prompt.len() - 1 + 5) as u64);
    }

    #[test]
    fn eos_retires_a_sequence_early() {
        let (model, corpus) = fitted_tiny();
        let prompt = corpus.generate(4, 33).tokens().to_vec();
        // Solo reference run to find which token gets sampled first.
        let mut rng = Rng::seed_from(111);
        let solo = model.generate(&prompt, 8, 1.0, &mut rng);
        let mut sched = BatchScheduler::new(model, 1);
        sched
            .submit(ServeRequest {
                seed: 111,
                eos: Some(solo[0]),
                ..ServeRequest::new(1, prompt, 8)
            })
            .expect("no KV budget configured");
        let done = sched.run();
        assert_eq!(done[0].reason, FinishReason::Eos);
        assert_eq!(done[0].generated, vec![solo[0]], "eos token is kept, then the run stops");
    }

    #[test]
    fn backfill_reuses_slots_without_exceeding_max_batch() {
        let (model, corpus) = fitted_tiny();
        let mut sched = BatchScheduler::new(model, 2);
        for id in 0..6u64 {
            let prompt = corpus.generate(3, 70 + id).tokens().to_vec();
            sched.submit(request(id, prompt, 3)).expect("no KV budget configured");
        }
        while !sched.is_idle() {
            sched.step();
            assert!(sched.stats().active <= 2, "batch must never exceed max_batch");
            assert!(sched.cache().total_tokens() <= 2 * (3 + 3));
        }
        assert_eq!(sched.take_finished().len(), 6);
    }

    #[test]
    #[should_panic(expected = "prompt must not be empty")]
    fn empty_prompt_is_rejected_at_submit() {
        let (model, _) = fitted_tiny();
        let mut sched = BatchScheduler::new(model, 1);
        let _ = sched.submit(ServeRequest::new(0, Vec::new(), 4));
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn out_of_vocab_prompt_is_rejected_at_submit_not_mid_batch() {
        let (model, _) = fitted_tiny();
        let vocab = model.config().vocab;
        let mut sched = BatchScheduler::new(model, 1);
        let _ = sched.submit(ServeRequest::new(0, vec![vocab + 5], 4));
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn non_positive_temperature_is_rejected_at_submit() {
        let (model, _) = fitted_tiny();
        let mut sched = BatchScheduler::new(model, 1);
        let _ = sched.submit(ServeRequest { temperature: 0.0, ..ServeRequest::new(0, vec![1], 4) });
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_scheduler_is_rejected() {
        let (model, _) = fitted_tiny();
        let _ = BatchScheduler::new(model, 0);
    }

    #[test]
    fn page_budget_preempts_and_resumes_without_changing_outputs() {
        // A pool far too small for three concurrent worst cases: the
        // scheduler must preempt under pressure, park-and-resume, and
        // still finish every request token-identical to an unpressured
        // run — the paper-stack determinism contract applied to paging.
        let (model, corpus) = fitted_tiny();
        let submit_all = |sched: &mut BatchScheduler| {
            for id in 0..5u64 {
                let prompt = corpus.generate(4 + id as usize % 3, 700 + id).tokens().to_vec();
                sched.submit(request(id, prompt, 5 + id as usize % 4)).expect("feasible");
            }
        };
        let mut reference = BatchScheduler::with_page_tokens(model.clone(), 3, 2);
        submit_all(&mut reference);
        let mut expect = reference.run();
        expect.sort_by_key(|f| f.id);
        assert_eq!(reference.preemptions(), 0, "no budget, no pressure");

        // Worst case is 6 prompt + 8 new = 14 tokens = 7 pages; grant 8 —
        // any single sequence fits, three concurrent ones do not.
        let mut sched = BatchScheduler::with_page_tokens(model, 3, 2);
        sched.set_page_budget(8).expect("nothing queued yet");
        assert_eq!(sched.cache().capacity_pages(), Some(8));
        submit_all(&mut sched);
        while !sched.is_idle() {
            sched.step();
            assert!(sched.cache().allocated_pages() <= 8, "the pool must never outgrow its budget");
        }
        let mut done = sched.take_finished();
        done.sort_by_key(|f| f.id);
        assert_eq!(done, expect, "preempted-and-resumed output must be token-identical");
        assert!(sched.preemptions() > 0, "this budget must actually exercise preemption");
        let events = sched.take_preemption_events();
        assert_eq!(events.len() as u64, sched.preemptions());
        assert!(events.iter().all(|e| e.id < 5));
        assert!(sched.take_preemption_events().is_empty(), "events drain once");
        assert_eq!(sched.cache().allocated_pages(), 0, "idle pool is fully free");
    }

    #[test]
    fn spare_rows_fill_the_last_panel_and_never_cost_a_page_the_pool_lacks() {
        // Seeded request mixes trickled into 20 slots (so a step can span
        // two kernel panels), with and without a tight page pool at every
        // page size. Each step is planned twice — on a clone, mirroring
        // `step()`'s prologue, then by `step()` itself — and the plan must
        // keep the row rule: every active sequence one contiguous run of
        // at least one row, no more rows than the panels the one-row-each
        // schedule would open anyway, never more pages than are free.
        let (model, corpus) = fitted_tiny();
        for (page_tokens, budget) in
            [(16, None), (1, Some(130)), (2, Some(65)), (3, Some(45)), (16, Some(10))]
        {
            for seed in 0..3u64 {
                let what = format!("page_tokens {page_tokens} budget {budget:?} seed {seed}");
                let mut rng = Rng::seed_from(seed);
                let mut sched = BatchScheduler::with_page_tokens(model.clone(), 20, page_tokens);
                if let Some(pages) = budget {
                    // Worst case 40 + 12 tokens; 2.5 of them fit.
                    sched.set_page_budget(pages).expect("nothing queued yet");
                }
                sched.enable_prefix_sharing(seed % 2 == 1);
                let mut pending: VecDeque<ServeRequest> = (0..40u64)
                    .map(|id| {
                        let prompt = corpus.generate(1 + rng.below(40), 300 + id).tokens().to_vec();
                        request(id, prompt, 1 + rng.below(12))
                    })
                    .collect();
                let requests: Vec<ServeRequest> = pending.iter().cloned().collect();
                let mut multi_row_runs = 0;
                while !(pending.is_empty() && sched.is_idle()) {
                    for _ in 0..rng.below(4) {
                        if let Some(req) = pending.pop_front() {
                            sched.submit(req).expect("feasible");
                        }
                    }
                    let mut plan = sched.clone();
                    plan.admit();
                    plan.preempt_for_headroom();
                    let (tokens, slot_ids) = plan.step_inputs();
                    let active = plan.active_slots();
                    assert_eq!(tokens.len(), slot_ids.len(), "{what}");
                    assert!(
                        slot_ids.len() <= active.len().next_multiple_of(MAX_TILE),
                        "{what}: {} rows for {} sequences",
                        slot_ids.len(),
                        active.len()
                    );
                    let runs: Vec<&[usize]> = slot_runs(&slot_ids).collect();
                    let run_slots: Vec<usize> = runs.iter().map(|run| run[0]).collect();
                    assert_eq!(run_slots, active, "{what}: one run per active sequence");
                    multi_row_runs += runs.iter().filter(|run| run.len() > 1).count();
                    if let Some(free) = plan.cache().free_pages() {
                        assert!(plan.cache().pages_needed_for_step(&slot_ids) <= free, "{what}");
                    }
                    let rows_before = sched.stepped_tokens();
                    assert_eq!(sched.step(), active.len(), "{what}: step() counts sequences");
                    assert_eq!(
                        sched.stepped_tokens() - rows_before,
                        slot_ids.len() as u64,
                        "{what}: stepped_tokens counts rows"
                    );
                }
                assert!(multi_row_runs > 0, "{what}: the mix must exercise spare rows");
                assert_eq!(sched.preemptions() > 0, budget.is_some(), "{what}");
                let mut done = sched.take_finished();
                done.sort_by_key(|f| f.id);
                assert_eq!(done.len(), requests.len(), "{what}");
                for (fin, req) in done.iter().zip(&requests) {
                    let mut rng = Rng::seed_from(req.seed);
                    let expect =
                        model.generate(&req.prompt, req.max_new_tokens, req.temperature, &mut rng);
                    assert_eq!(fin.generated, expect, "{what}: request {}", req.id);
                }
            }
        }
    }

    #[test]
    fn a_lone_resumed_sequence_replays_a_panel_of_rows_per_step() {
        // Two 8-token prompts decode in lockstep through a 12-page pool of
        // 4-token pages until both need a 7th page: the younger (id 1) is
        // evicted with 24 cached tokens in the very step the older samples
        // its last token, so the resume runs alone and its replay is
        // bounded by the panel, not by one token per step.
        let (model, corpus) = fitted_tiny();
        let prompts: Vec<Vec<usize>> =
            (0..2).map(|id| corpus.generate(8, 640 + id).tokens().to_vec()).collect();
        let mut sched = BatchScheduler::with_page_tokens(model.clone(), 2, 4);
        sched.set_page_budget(12).expect("nothing queued yet");
        sched.submit(request(0, prompts[0].clone(), 18)).expect("7 pages fit");
        sched.submit(request(1, prompts[1].clone(), 40)).expect("12 pages fit");
        while sched.preemptions() == 0 {
            let stepped = sched.step();
            let lockstep = if sched.preemptions() == 0 { 2 } else { 1 };
            assert_eq!(stepped, lockstep, "both step until the pool runs out");
        }
        let events = sched.take_preemption_events();
        let dropped = 8 + 17 - 1; // prompt + sampled so far - the unfed newest
        assert_eq!(
            events,
            [PreemptionEvent { id: 1, step: 17, dropped_cached_tokens: dropped }],
            "dropped_cached_tokens is the evicted slot's cached length"
        );
        let s = sched.stats();
        assert_eq!((s.active, s.preempted), (0, 1), "the older finished that step");
        let (steps_before, rows_before) = (sched.steps(), sched.stepped_tokens());
        while sched.cache().total_tokens() < dropped {
            assert_eq!(sched.step(), 1, "the resumed sequence is alone");
        }
        assert_eq!(sched.steps() - steps_before, dropped.div_ceil(MAX_TILE) as u64);
        assert!(sched.stepped_tokens() - rows_before >= dropped as u64);
        assert_eq!(sched.preemptions(), 1);
        let done = sched.run();
        let fin = done.iter().find(|f| f.id == 1).expect("resumed request finishes");
        let mut rng = Rng::seed_from(101);
        assert_eq!(fin.generated, model.generate(&prompts[1], 40, 0.9, &mut rng));
    }

    #[test]
    fn page_budget_rejects_impossible_requests_with_a_typed_error() {
        let (model, corpus) = fitted_tiny();
        let mut sched = BatchScheduler::with_page_tokens(model.clone(), 2, 2);
        sched.set_page_budget(3).expect("nothing queued yet");
        // 4 prompt + 5 new = 9 tokens = 5 pages against a 3-page pool.
        let err = sched.submit(ServeRequest::new(11, vec![1, 2, 3, 4], 5)).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::PageBudgetExceeded { id: 11, required_pages: 5, budget_pages: 3 }
        );
        assert!(err.to_string().contains("can never fit the page pool"), "{err}");
        assert!(sched.is_idle(), "a rejected request must not enter the queue");

        // A feasible request queues; tightening the pool below its worst
        // case must then fail and leave the old budget installed.
        sched.submit(ServeRequest::new(12, vec![1, 2, 3], 2)).expect("5 tokens fit 3 pages");
        let err = sched.set_page_budget(2).unwrap_err();
        assert!(
            matches!(err, AdmissionError::PageBudgetExceeded { id: 12, required_pages: 3, .. }),
            "{err:?}"
        );
        assert_eq!(sched.cache().capacity_pages(), Some(3), "failed tightening is a no-op");
        assert_eq!(sched.run().len(), 1, "the queued request still runs");

        // The reverse order — submit first, then install a too-small pool
        // — must fail at set_page_budget, not leave `run` spinning on a
        // head that can never be admitted. The failed installation leaves
        // the scheduler budget-free and the queue intact.
        let mut sched = BatchScheduler::with_page_tokens(model.clone(), 2, 2);
        sched.submit(ServeRequest::new(0, vec![1, 2, 3], 8)).expect("no budget yet");
        let err = sched.set_page_budget(2).unwrap_err();
        assert!(matches!(err, AdmissionError::PageBudgetExceeded { id: 0, .. }), "{err:?}");
        assert_eq!(sched.cache().capacity_pages(), None, "a rejected budget must not install");
        assert_eq!(sched.stats().free_pages, None, "nor cap the cache");
        assert_eq!(sched.stats().queued, 1, "the queued request survives the failed installation");
        assert_eq!(sched.run().len(), 1, "and still runs to completion without a budget");

        // A rejection submitted mid-decode must change nothing — not the
        // queue, not the in-flight sequences, not their tokens: the run
        // finishes identical to one that never saw the rejected request.
        let start = || {
            let mut sched = BatchScheduler::with_page_tokens(model.clone(), 2, 2);
            // Two worst cases: 4 prompt + 5 new = 9 tokens = 5 pages each.
            sched.set_page_budget(10).expect("nothing queued yet");
            for id in 0..2u64 {
                let prompt = corpus.generate(4, 500 + id).tokens().to_vec();
                sched.submit(request(id, prompt, 5)).expect("feasible");
            }
            sched
        };
        let expect = start().run();
        let mut sched = start();
        sched.step();
        sched.step();
        let before = sched.stats();
        assert!(before.active > 0, "sequences must be in flight before the rejection");
        let err = sched.submit(ServeRequest::new(99, vec![1; 30], 30));
        assert!(matches!(err, Err(AdmissionError::PageBudgetExceeded { id: 99, .. })), "{err:?}");
        assert_eq!(sched.stats(), before, "rejection is a no-op");
        assert_eq!(sched.run(), expect, "in-flight output must be untouched by the rejection");
    }

    #[test]
    fn prefix_sharing_changes_bytes_not_tokens() {
        // Requests with a common prompt run identically with sharing on
        // and off; with it on, physical (allocated-page) bytes drop below
        // logical (per-copy) bytes while prefixes overlap.
        let (model, corpus) = fitted_tiny();
        let prompt = corpus.generate(12, 808).tokens().to_vec();
        let submit_all = |sched: &mut BatchScheduler| {
            for id in 0..4u64 {
                // Staggered budgets so retirements happen at different
                // steps and backfilled requests find a live donor.
                sched
                    .submit(request(id, prompt.clone(), 3 + 3 * id as usize))
                    .expect("no budget configured");
            }
        };
        let mut reference = BatchScheduler::with_page_tokens(model.clone(), 2, 4);
        submit_all(&mut reference);
        let mut expect = reference.run();
        expect.sort_by_key(|f| f.id);

        let mut sched = BatchScheduler::with_page_tokens(model, 2, 4);
        sched.enable_prefix_sharing(true);
        submit_all(&mut sched);
        let mut max_saved = 0isize;
        while !sched.is_idle() {
            sched.step();
            let logical = sched.cache().fp16_bytes() as isize;
            let physical = sched.cache().allocated_fp16_bytes() as isize;
            max_saved = max_saved.max(logical - physical);
        }
        let mut done = sched.take_finished();
        done.sort_by_key(|f| f.id);
        assert_eq!(done, expect, "sharing must never change served tokens");
        let stats = sched.stats();
        assert!(stats.shared_prefix_tokens > 0, "backfill must have mapped shared pages");
        assert!(stats.cow_copies > 0, "diverging continuations must have copied on write");
        assert!(max_saved > 0, "shared prefixes must save physical bytes over per-copy");
    }

    #[test]
    fn stats_snapshot_accounts_for_every_request() {
        let (model, corpus) = fitted_tiny();
        let mut sched = BatchScheduler::with_page_tokens(model, 2, 2);
        sched.set_page_budget(6).expect("nothing queued yet");
        for id in 0..4u64 {
            let prompt = corpus.generate(3, 900 + id).tokens().to_vec();
            sched.submit(request(id, prompt, 4)).expect("feasible");
        }
        let idle = sched.stats();
        assert_eq!((idle.queued, idle.active, idle.preempted, idle.finished), (4, 0, 0, 0));
        assert_eq!(idle.page_tokens, 2);
        assert_eq!(idle.free_pages, Some(6));
        while !sched.is_idle() {
            sched.step();
            let s = sched.stats();
            assert_eq!(
                s.queued + s.active + s.preempted + s.finished,
                4,
                "every request is in exactly one state"
            );
            assert_eq!(s.preemptions, sched.preemptions());
            assert_eq!(s.allocated_pages, sched.cache().allocated_pages());
            assert_eq!(
                s.free_pages,
                Some(6 - s.allocated_pages),
                "free + allocated must tile the budget"
            );
        }
        let done = sched.stats();
        assert_eq!((done.queued, done.active, done.preempted, done.finished), (0, 0, 0, 4));
        assert_eq!(done.allocated_pages, 0);
    }
}
