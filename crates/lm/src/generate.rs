//! The transformer step: paged KV caches, the one layer loop every
//! forward path runs, and sampling-based generation.
//!
//! The paper motivates weight quantization with the serving memory split
//! (Fig. 2b): weights plus a KV cache that grows with every decoded
//! token. A [`BatchKvCache`] holds one paged K/V history per sequence
//! slot, and [`forward_step_batch`](Transformer::forward_step_batch)
//! stacks the next tokens of every active sequence (**one contiguous run
//! of rows per slot**: consecutive positions of its sequence) into one
//! activation matrix so each packed weight stream is decoded **once per
//! layer per step** instead of once per sequence. Each row's arithmetic is
//! independent of the other rows, so its logits are bit-identical whatever
//! else shares the batch and however a sequence's tokens are cut into runs.
//!
//! That step body is the only code in the crate that computes a
//! transformer layer. [`Transformer::forward`] is one run of the whole
//! window on a fresh one-slot cache, and
//! [`forward_step`](Transformer::forward_step) is a one-row step on a
//! [`KvCache`] — itself a one-slot [`BatchKvCache`] — so a full-window
//! pass, token-by-token decoding and batched serving agree bit for bit by
//! construction. The sharded and remote engines run the same body with
//! their own linear sites.

use crate::config::{Activation, ModelConfig};
use crate::model::{rmsnorm_rows, Transformer, WeightSite};
use fineq_core::KernelScratch;
use fineq_tensor::{activation, softmax_in_place, Matrix, Rng};

/// One sequence's key/value history for [`Transformer::forward_step`]: a
/// one-slot [`BatchKvCache`], so a solo decode step is a one-row batched
/// step.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache(BatchKvCache);

impl KvCache {
    /// An empty cache for a model with the given shape.
    pub fn new(n_layers: usize, d_model: usize) -> Self {
        Self(BatchKvCache::new(n_layers, d_model, 1))
    }

    /// Cached positions.
    pub fn len(&self) -> usize {
        self.0.slot_len(0)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the cache would occupy at fp16 storage (the Fig. 2b unit):
    /// K and V (`2 *`) per layer per position, 2 bytes per element —
    /// exactly [`crate::memory::ServingMemory::kv_cache_bytes`] evaluated
    /// at `len` concurrent tokens (cross-checked by a regression test in
    /// `memory`).
    pub fn fp16_bytes(&self) -> usize {
        self.0.fp16_bytes()
    }
}

/// Default page size of a [`BatchKvCache`]: cached positions per physical
/// page (the vLLM-style granule the serving layer allocates, shares and
/// preempts at).
pub const PAGE_TOKENS: usize = 16;

/// One physical KV page: `page_tokens` cached positions × every layer ×
/// K and V, refcounted so slots with a common prompt prefix can map the
/// same page (copy-on-write).
#[derive(Debug, Clone)]
struct KvPage {
    /// Flattened `[layer][k|v][t_off][d_model]` storage; see
    /// [`BatchKvCache::kv_base`] for the index arithmetic.
    data: Vec<f32>,
    /// How many slot page tables reference this page. 0 = on the free
    /// list; >1 = shared (writes must copy first).
    refs: u32,
}

/// One sequence slot of a paged cache: the page table mapping logical
/// position ranges to physical pages, and the token ids fed so far (the
/// prefix-matching key — K/V at position `t` depends only on tokens
/// `0..=t`, so equal fed-token prefixes have bit-identical K/V and may
/// share pages).
#[derive(Debug, Clone, Default)]
struct PageSlot {
    table: Vec<usize>,
    tokens: Vec<usize>,
}

/// Paged per-layer K/V histories for `N` independent sequences decoded
/// together.
///
/// Physical storage is a pool of fixed-size refcounted pages
/// ([`PAGE_TOKENS`] positions × layer × K/V each) drawn from a free list;
/// each slot owns a page *table*, not a contiguous buffer, so sequences of
/// different ages (mid-prefill, deep into decode, freshly backfilled)
/// share one batch and memory is allocated in page granules instead of
/// monolithic per-sequence reservations. Two accountings follow:
///
/// * **used** (logical) bytes — [`BatchKvCache::fp16_bytes`]: the sum of
///   per-slot cached positions, `2 * n_layers * d_model * total_tokens()`
///   fp16 elements, the per-copy arithmetic of
///   [`crate::memory::ServingMemory::kv_cache_bytes`];
/// * **allocated** (physical) bytes —
///   [`BatchKvCache::allocated_fp16_bytes`]: live pool pages × page bytes.
///   Below `used` when prefix sharing maps one physical page into several
///   slots; above it when tail pages are partially filled.
///
/// Prefix sharing ([`BatchKvCache::share_prefix`]) maps a new slot onto a
/// donor's leading pages copy-on-write: the shared pages' refcounts rise,
/// and the first write into a shared tail page copies it first
/// (`BatchKvCache::begin_step`), so divergence never mutates a
/// batchmate's history. Equality ([`PartialEq`]) is **logical**: two
/// caches are equal when every slot holds the same fed tokens and the same
/// gathered K/V rows, whatever the physical page layout.
#[derive(Debug, Clone)]
pub struct BatchKvCache {
    pages: Vec<KvPage>,
    /// Indices of zero-ref pages available for reuse.
    free: Vec<usize>,
    /// Physical pool ceiling in pages (`None` = unbounded). Enforced at
    /// allocation; the serving layer preempts before stepping past it.
    capacity: Option<usize>,
    slots: Vec<PageSlot>,
    n_layers: usize,
    d_model: usize,
    page_tokens: usize,
    cow_copies: u64,
    shared_prefix_tokens: u64,
}

impl BatchKvCache {
    /// An empty cache with `n_slots` sequence slots for a model of the
    /// given shape, at the default [`PAGE_TOKENS`] page size and an
    /// unbounded page pool.
    ///
    /// # Panics
    ///
    /// Panics if `n_slots` is zero.
    pub fn new(n_layers: usize, d_model: usize, n_slots: usize) -> Self {
        Self::with_page_tokens(n_layers, d_model, n_slots, PAGE_TOKENS)
    }

    /// [`BatchKvCache::new`] with an explicit page size (cached positions
    /// per physical page). Small pages waste less tail space and share
    /// prefixes at finer grain; large pages mean fewer table entries.
    ///
    /// # Panics
    ///
    /// Panics if `n_slots` or `page_tokens` is zero.
    pub fn with_page_tokens(
        n_layers: usize,
        d_model: usize,
        n_slots: usize,
        page_tokens: usize,
    ) -> Self {
        assert!(n_slots > 0, "a batch cache needs at least one slot");
        assert!(page_tokens > 0, "a page must hold at least one position");
        Self {
            pages: Vec::new(),
            free: Vec::new(),
            capacity: None,
            slots: (0..n_slots).map(|_| PageSlot::default()).collect(),
            n_layers,
            d_model,
            page_tokens,
            cow_copies: 0,
            shared_prefix_tokens: 0,
        }
    }

    /// Number of sequence slots.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Model layer count this cache was shaped for.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Model width this cache was shaped for.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Cached positions per physical page.
    pub fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    /// Cached positions of one slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= n_slots()`.
    pub fn slot_len(&self, slot: usize) -> usize {
        self.slots[slot].tokens.len()
    }

    /// The token ids fed into one slot so far, in position order — the
    /// prefix key [`BatchKvCache::share_prefix`] matches against.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= n_slots()`.
    pub fn slot_tokens(&self, slot: usize) -> &[usize] {
        &self.slots[slot].tokens
    }

    /// Total cached positions across all slots — the `concurrent_tokens`
    /// of the serving-memory model.
    pub fn total_tokens(&self) -> usize {
        self.slots.iter().map(|s| s.tokens.len()).sum()
    }

    /// **Used** (logical) bytes at fp16: per-copy accounting over cached
    /// positions, blind to page sharing and tail-page slack (what
    /// [`crate::memory::ServingMemory::kv_cache_bytes_used`] accounts);
    /// physical residency is [`BatchKvCache::allocated_fp16_bytes`].
    pub fn fp16_bytes(&self) -> usize {
        2 * self.n_layers * self.d_model * self.total_tokens() * 2
    }

    /// **Allocated** (physical) bytes at fp16: live pool pages × bytes per
    /// page. With prefix sharing this drops below [`fp16_bytes`]
    /// (one physical page backs several slots); without it, tail-page
    /// slack puts it above.
    ///
    /// [`fp16_bytes`]: BatchKvCache::fp16_bytes
    pub fn allocated_fp16_bytes(&self) -> usize {
        self.allocated_pages() * self.page_fp16_bytes()
    }

    /// Bytes one page occupies at fp16.
    pub fn page_fp16_bytes(&self) -> usize {
        2 * self.n_layers * self.d_model * self.page_tokens * 2
    }

    /// Live pages: referenced by at least one slot's table.
    pub fn allocated_pages(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Pages currently mapped by more than one slot (copy-on-write shared
    /// prefix pages).
    pub fn shared_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.refs > 1).count()
    }

    /// Copy-on-write page copies performed so far (a shared tail page
    /// copied because its slot diverged from the donor).
    pub fn cow_copies(&self) -> u64 {
        self.cow_copies
    }

    /// Cached positions inherited through [`BatchKvCache::share_prefix`]
    /// so far — prefill positions whose K/V (and attention compute) were
    /// never paid a second time.
    pub fn shared_prefix_tokens(&self) -> u64 {
        self.shared_prefix_tokens
    }

    /// The physical pool ceiling in pages, if bounded.
    pub fn capacity_pages(&self) -> Option<usize> {
        self.capacity
    }

    /// Bounds (or unbounds) the physical page pool. A capacity below the
    /// currently allocated page count is allowed — no page is dropped; the
    /// pool just refuses growth, and the serving layer's preemption
    /// restores headroom before the next step needs it.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn set_capacity_pages(&mut self, capacity: Option<usize>) {
        assert!(capacity != Some(0), "a bounded pool needs at least one page");
        self.capacity = capacity;
    }

    /// Pages the pool can still hand out before hitting the capacity
    /// ceiling (`None` = unbounded).
    pub fn free_pages(&self) -> Option<usize> {
        self.capacity.map(|cap| cap.saturating_sub(self.allocated_pages()))
    }

    /// Clears one slot so a new sequence can be backfilled into it. Its
    /// pages' refcounts drop; pages reaching zero return to the free list
    /// (shared prefix pages survive as long as any other slot maps them).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= n_slots()`.
    pub fn reset_slot(&mut self, slot: usize) {
        let table = std::mem::take(&mut self.slots[slot].table);
        self.slots[slot].tokens.clear();
        for p in table {
            self.pages[p].refs -= 1;
            if self.pages[p].refs == 0 {
                self.free.push(p);
            }
        }
    }

    /// Maps an empty slot onto the longest common fed-token prefix of any
    /// occupied slot (copy-on-write), returning how many cached positions
    /// it inherited — positions whose prefill steps the caller may skip.
    ///
    /// Soundness: K/V at position `t` is a deterministic function of
    /// tokens `0..=t` (per-slot arithmetic is batch-invariant), so equal
    /// token prefixes have **bit-identical** K/V and mapping the donor's
    /// pages changes no output. Sharing is capped at `script.len() - 1`
    /// because logits are not cached — at least one token must still be
    /// fed to produce the next-token distribution. A partially filled
    /// shared tail page is fine: positions past the shared length hold
    /// donor data this slot never reads (attention walks `0..len` only)
    /// and the first write into the page copies it first (see
    /// `BatchKvCache::begin_step`).
    ///
    /// Ties prefer the lowest donor slot index (deterministic). Allocates
    /// nothing — only refcounts rise.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or not empty.
    pub fn share_prefix(&mut self, slot: usize, script: &[usize]) -> usize {
        assert!(
            self.slots[slot].tokens.is_empty(),
            "prefix sharing targets an empty slot (reset it first)"
        );
        if script.len() < 2 {
            return 0;
        }
        let limit = script.len() - 1;
        let (mut best, mut donor) = (0usize, None);
        for (s, ps) in self.slots.iter().enumerate() {
            if s == slot {
                continue;
            }
            let lcp = ps.tokens.iter().zip(script).take_while(|(a, b)| a == b).count().min(limit);
            if lcp > best {
                (best, donor) = (lcp, Some(s));
            }
        }
        let Some(donor) = donor else { return 0 };
        let shared_pages = best.div_ceil(self.page_tokens);
        let mapped: Vec<usize> = self.slots[donor].table[..shared_pages].to_vec();
        for &p in &mapped {
            self.pages[p].refs += 1;
        }
        self.slots[slot].table = mapped;
        self.slots[slot].tokens.extend_from_slice(&script[..best]);
        self.shared_prefix_tokens += best as u64;
        best
    }

    /// Gathers one slot's cached keys and values for one layer into
    /// contiguous `len × d_model` row-major buffers — the logical view,
    /// whatever pages back it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `layer` is out of range.
    pub fn slot_kv(&self, slot: usize, layer: usize) -> (Vec<f32>, Vec<f32>) {
        assert!(layer < self.n_layers, "layer {layer} out of range");
        let len = self.slots[slot].tokens.len();
        let d = self.d_model;
        let mut ks = Vec::with_capacity(len * d);
        let mut vs = Vec::with_capacity(len * d);
        let rows = PagedRows {
            pages: &self.pages,
            table: &self.slots[slot].table,
            layer,
            page_tokens: self.page_tokens,
            d,
        };
        rows.rows(0, len).for_each(|r| ks.extend_from_slice(r));
        rows.rows(1, len).for_each(|r| vs.extend_from_slice(r));
        (ks, vs)
    }

    /// Base index of position `pos`'s K (`kv = 0`) or V (`kv = 1`) row
    /// *within its page's data*.
    fn kv_base(&self, layer: usize, kv: usize, pos: usize) -> usize {
        ((layer * 2 + kv) * self.page_tokens + pos % self.page_tokens) * self.d_model
    }

    /// Pops a free page or grows the pool, respecting the capacity bound.
    fn alloc_page(&mut self) -> usize {
        if let Some(p) = self.free.pop() {
            self.pages[p].refs = 1;
            return p;
        }
        if let Some(cap) = self.capacity {
            assert!(
                self.allocated_pages() < cap,
                "page pool exhausted ({cap} pages): the scheduler must preempt before stepping"
            );
        }
        let elems = 2 * self.n_layers * self.page_tokens * self.d_model;
        self.pages.push(KvPage { data: vec![0.0; elems], refs: 1 });
        self.pages.len() - 1
    }

    /// Page-table indices of `slot` that a run of `rows` more positions
    /// would draw from the pool: each one it touches that is past the table
    /// (a fresh page) or mapped by another slot too (copy-on-write). The
    /// one walk counting ([`BatchKvCache::pages_needed_for_step`], the
    /// scheduler's price of a spare row) and allocating (`begin_step`) go
    /// through, so what the scheduler preempts on is what the step draws.
    pub(crate) fn pages_to_reserve(
        &self,
        slot: usize,
        rows: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        let ps = &self.slots[slot];
        let len = ps.tokens.len();
        (len / self.page_tokens..(len + rows).div_ceil(self.page_tokens))
            .filter(move |&idx| idx >= ps.table.len() || self.pages[ps.table[idx]].refs > 1)
    }

    /// Physical pages one batched step over `slots` (one contiguous run
    /// per slot) would draw from the pool: one per fresh page a run opens
    /// and one per shared page it writes into (copy-on-write). The serving
    /// layer compares this against [`BatchKvCache::free_pages`] to decide
    /// preemption *before* the step runs.
    pub fn pages_needed_for_step(&self, slots: &[usize]) -> usize {
        slot_runs(slots).map(|run| self.pages_to_reserve(run[0], run.len()).count()).sum()
    }

    /// Reserves this step's write targets for every stepped run — all
    /// pool mutation of a batched step happens **here, serially**, before
    /// the (possibly parallel) attention fan-out: every page a run grows
    /// into is allocated; a shared page it writes into gets a private copy
    /// first (copy-on-write). After this returns, every page a run writes
    /// has `refs == 1` and is therefore that slot's exclusive write
    /// target, every shared page is read-only for the step, and the page
    /// tables themselves are frozen — the disjoint-write safety the
    /// parallel attention path rests on.
    fn begin_step(&mut self, slots: &[usize]) {
        for run in slot_runs(slots) {
            let slot = run[0];
            let reserve: Vec<usize> = self.pages_to_reserve(slot, run.len()).collect();
            for page_idx in reserve {
                let p = self.alloc_page();
                if page_idx == self.slots[slot].table.len() {
                    self.slots[slot].table.push(p);
                    continue;
                }
                let shared = self.slots[slot].table[page_idx];
                let (src, dst) = if shared < p {
                    let (lo, hi) = self.pages.split_at_mut(p);
                    (&lo[shared], &mut hi[0])
                } else {
                    let (lo, hi) = self.pages.split_at_mut(shared);
                    (&hi[0], &mut lo[p])
                };
                dst.data.copy_from_slice(&src.data);
                self.pages[shared].refs -= 1;
                self.slots[slot].table[page_idx] = p;
                self.cow_copies += 1;
            }
        }
    }

    /// Writes position `pos`'s K/V rows for one layer into the page
    /// [`BatchKvCache::begin_step`] reserved for it this step.
    fn write_kv(&mut self, slot: usize, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
        let page = self.slots[slot].table[pos / self.page_tokens];
        let kb = self.kv_base(layer, 0, pos);
        let vb = self.kv_base(layer, 1, pos);
        let data = &mut self.pages[page].data;
        data[kb..kb + k.len()].copy_from_slice(k);
        data[vb..vb + v.len()].copy_from_slice(v);
    }

    /// Marks one decoded position committed per stepped row and records
    /// the token that produced it — the step body's end-of-step
    /// bookkeeping, after every layer's K/V is written. The recorded token
    /// ids are what [`BatchKvCache::share_prefix`] matches new sequences
    /// against.
    fn commit_step(&mut self, slots: &[usize], tokens: &[usize]) {
        for (&slot, &tok) in slots.iter().zip(tokens) {
            self.slots[slot].tokens.push(tok);
        }
    }
}

/// Logical equality: same shape and, per slot, the same fed tokens and
/// the same gathered K/V rows — physical page layout, page size, sharing
/// topology and pool bounds are execution configuration, not identity
/// (the same reasoning as `Transformer`'s pool-blind `PartialEq`).
impl PartialEq for BatchKvCache {
    fn eq(&self, other: &Self) -> bool {
        if self.n_layers != other.n_layers
            || self.d_model != other.d_model
            || self.slots.len() != other.slots.len()
        {
            return false;
        }
        (0..self.slots.len()).all(|s| {
            self.slots[s].tokens == other.slots[s].tokens
                && (0..self.n_layers).all(|l| self.slot_kv(s, l) == other.slot_kv(s, l))
        })
    }
}

/// One slot's cached K/V history for one layer: position `j` lives in
/// page `table[j / page_tokens]` at in-page offset `j % page_tokens`.
struct PagedRows<'a> {
    pages: &'a [KvPage],
    table: &'a [usize],
    layer: usize,
    page_tokens: usize,
    d: usize,
}

impl PagedRows<'_> {
    /// Positions `0..n`'s K (`kv = 0`) or V (`kv = 1`) rows in order,
    /// walked page by page (no per-row page arithmetic).
    fn rows(&self, kv: usize, n: usize) -> impl Iterator<Item = &[f32]> + '_ {
        let span = self.page_tokens * self.d;
        let base = (self.layer * 2 + kv) * span;
        let page_rows =
            move |&p: &usize| self.pages[p].data[base..base + span].chunks_exact(self.d);
        self.table.iter().flat_map(page_rows).take(n)
    }
}

/// The runs of a batched step's flat `slots` array: maximal stretches of
/// equal slot ids, in row order. Row `i` of a run on a slot with `len`
/// cached positions is that slot's position `len + i`.
pub(crate) fn slot_runs(slots: &[usize]) -> impl Iterator<Item = &[usize]> {
    slots.chunk_by(|a, b| a == b)
}

/// Argument validation of the step body, so of every forward entry point:
/// shape agreement, vocabulary bounds, and **one contiguous run per
/// slot** — `[0, 0, 1]` is a run of two and a run of one, `[0, 1, 0]` is
/// rejected. Position arithmetic and the page reservation both walk runs,
/// which is why it is asserted here for every caller.
fn validate_batch_step(cfg: &ModelConfig, tokens: &[usize], slots: &[usize], cache: &BatchKvCache) {
    assert_eq!(tokens.len(), slots.len(), "one cache slot per token");
    assert!(!tokens.is_empty(), "batch must contain at least one sequence");
    assert_eq!(cache.n_layers, cfg.n_layers, "cache layer count mismatch");
    assert_eq!(cache.d_model, cfg.d_model, "cache width mismatch");
    let mut seen = vec![false; cache.slots.len()];
    for run in slot_runs(slots) {
        let slot = run[0];
        assert!(slot < cache.slots.len(), "slot {slot} out of range");
        assert!(!seen[slot], "slot {slot} appears twice in one step");
        seen[slot] = true;
    }
    for &tok in tokens {
        assert!(tok < cfg.vocab, "token id {tok} out of vocabulary");
    }
}

/// One query at position `t` attending over positions `0..=t` of its
/// slot's cached keys/values (its own K/V already written): multi-head
/// scores with ALiBi bias, softmax, weighted V accumulation into `ctx`.
/// The crate's only attention; the test-only reference in `model` checks
/// it against whole-window Q/K/V matrices.
fn attend_one(cfg: &ModelConfig, q: &[f32], rows: &PagedRows, t: usize, ctx: &mut [f32]) {
    let dh = cfg.d_head();
    let inv_sqrt = 1.0 / (dh as f32).sqrt();
    let mut scores = vec![0.0f32; t + 1];
    for (head, &slope) in cfg.alibi_slopes.iter().enumerate() {
        let off = head * dh;
        for (j, (s, krow)) in scores.iter_mut().zip(rows.rows(0, t + 1)).enumerate() {
            let krow = &krow[off..off + dh];
            let mut dot = 0.0f32;
            for (a, b) in q[off..off + dh].iter().zip(krow) {
                dot += a * b;
            }
            *s = dot * inv_sqrt - slope * (t - j) as f32;
        }
        softmax_in_place(&mut scores);
        for (&a, vrow) in scores.iter().zip(rows.rows(1, t + 1)) {
            if a == 0.0 {
                continue;
            }
            let vrow = &vrow[off..off + dh];
            for (c, &vv) in ctx[off..off + dh].iter_mut().zip(vrow) {
                *c += a * vv;
            }
        }
    }
}

/// One batched step's attention for one layer. Row `i` of a run on a slot
/// with `len` cached positions is position `t = len + i`: all K/V rows
/// land first, then each row's query attends over positions `0..=t` of its
/// slot through [`attend_one`], accumulating into `ctx` row
/// `i` — it never reads the run's later rows, so its arithmetic is exactly
/// what feeding the run one token per step computes.
///
/// All pool mutation happened in [`BatchKvCache::begin_step`] (pages
/// reserved, shared pages copied), so the K/V rows land serially — every
/// page a run writes has `refs == 1` and belongs to its slot alone — and
/// then the rows attend with the page tables and pool **read-only**. Rows
/// are independent, so with a pool and more than one row the attention
/// loop fans out across workers — each work item reads the cache and
/// writes only its own `ctx` row, and per-row arithmetic is exactly the
/// serial loop, so output is **bit-identical at any thread count**. This
/// cuts the serial fraction a batched step keeps after the linear sites
/// are parallelized (the Amdahl remainder of the channel-parallel
/// kernels).
#[allow(clippy::too_many_arguments)]
fn attend_batch(
    cfg: &ModelConfig,
    layer: usize,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    slots: &[usize],
    cache: &mut BatchKvCache,
    ctx: &mut Matrix,
    pool: Option<&fineq_core::ThreadPool>,
) {
    // Each row's position in its slot; K/V landing is a short serial
    // memcpy loop (write order across slots is invisible — disjoint pages).
    let mut pos = Vec::with_capacity(slots.len());
    for run in slot_runs(slots) {
        let len = cache.slots[run[0]].tokens.len();
        pos.extend(len..len + run.len());
    }
    for (i, &slot) in slots.iter().enumerate() {
        cache.write_kv(slot, layer, pos[i], k.row(i), v.row(i));
    }
    let d = cfg.d_model;
    assert_eq!((ctx.rows(), ctx.cols()), (slots.len(), d), "one ctx row per stepped row");
    let attend_row = |i: usize, crow: &mut [f32]| {
        let rows = PagedRows {
            pages: &cache.pages,
            table: &cache.slots[slots[i]].table,
            layer,
            page_tokens: cache.page_tokens,
            d,
        };
        attend_one(cfg, q.row(i), &rows, pos[i], crow);
    };
    match pool {
        Some(pool) if pool.threads() > 1 && slots.len() > 1 => {
            /// Raw pointer smuggled across the pool's workers; soundness
            /// is the disjointness argument above. The accessor (rather
            /// than a public field) keeps closures capturing the whole
            /// `Sync` wrapper, not the bare pointer.
            struct SendPtr<T>(*mut T);
            unsafe impl<T: Send> Send for SendPtr<T> {}
            unsafe impl<T: Send> Sync for SendPtr<T> {}
            impl<T> SendPtr<T> {
                fn get(&self) -> *mut T {
                    self.0
                }
            }
            let ctx_ptr = SendPtr(ctx.as_mut_slice().as_mut_ptr());
            pool.run(slots.len(), 1, &|_, start, end| {
                for i in start..end {
                    // Safety: `ctx` has one `d`-wide row per entry of
                    // `slots` and row `i` belongs to this work item alone
                    // (the pool hands out disjoint `start..end` ranges),
                    // so every write is disjoint from every other
                    // worker's; the cache is only read.
                    let crow =
                        unsafe { std::slice::from_raw_parts_mut(ctx_ptr.get().add(i * d), d) };
                    attend_row(i, crow);
                }
            });
        }
        _ => {
            for i in 0..slots.len() {
                attend_row(i, ctx.row_mut(i));
            }
        }
    }
}

/// The one transformer step body — every forward path of every engine
/// runs it: validation, embedding lookup, the per-layer attention + FFN
/// loop with every linear site supplied by `site_forward`, end-of-step
/// K/V commit, head readout. Returns the logits and the final normalized
/// hidden state they were read out from. Sharing the body is what makes
/// the engines and entry points arithmetically identical **by
/// construction** — the only thing a caller chooses is how a linear site
/// executes (fused in-place kernels vs a broadcast to remote shards)
/// and what it records of each site's input on the way.
///
/// `site_forward` is fallible so a distributed engine can abort the step
/// when a shard group dies; an `Err` propagates out **before**
/// `commit_step` runs, so the cache never holds a half-stepped state —
/// callers recover with `reset_slot` alone. In-process engines use an
/// infallible closure (`E = Infallible`-like: any error type, never
/// constructed) and unwrap.
///
/// Sites that share one input arrive as a **group** (`&[WeightSite]`):
/// Q/K/V are requested together so a transport-backed engine can ship
/// the shared activations once and gather all three in one exchange,
/// while in-process engines simply run the group in order — the closure
/// must return one output per site, in group order, making the
/// arithmetic identical either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn batched_step_body<E>(
    cfg: &ModelConfig,
    embedding: &Matrix,
    head: &Matrix,
    tokens: &[usize],
    slots: &[usize],
    cache: &mut BatchKvCache,
    pool: Option<&fineq_core::ThreadPool>,
    mut site_forward: impl FnMut(usize, &[WeightSite], &Matrix) -> Result<Vec<Matrix>, E>,
) -> Result<(Matrix, Matrix), E> {
    validate_batch_step(cfg, tokens, slots, cache);
    // Reserve every run's write targets up front (fresh pages, CoW
    // copies): all pool mutation is serial and done before any layer's
    // attention fan-out, so the parallel path sees frozen page tables.
    cache.begin_step(slots);
    let b = tokens.len();
    let d = cfg.d_model;

    let mut h = Matrix::zeros(b, d);
    for (i, &tok) in tokens.iter().enumerate() {
        h.row_mut(i).copy_from_slice(embedding.row(tok));
    }

    fn one<E>(mut outs: Vec<Matrix>) -> Result<Matrix, E> {
        debug_assert_eq!(outs.len(), 1, "site group of one expects one output");
        Ok(outs.pop().expect("site group of one"))
    }

    for l in 0..cfg.n_layers {
        // ---- attention ----
        let x = rmsnorm_rows(&h);
        // Q/K/V consume the same normalized residual, so they form one
        // site group: a transport ships the activations once and gathers
        // all three outputs in one exchange per shard.
        let mut qkv =
            site_forward(l, &[WeightSite::AttnQ, WeightSite::AttnK, WeightSite::AttnV], &x)?;
        debug_assert_eq!(qkv.len(), 3, "q/k/v group expects three outputs");
        let v = qkv.pop().expect("v output");
        let k = qkv.pop().expect("k output");
        let q = qkv.pop().expect("q output");
        let mut ctx = Matrix::zeros(b, d);
        attend_batch(cfg, l, &q, &k, &v, slots, cache, &mut ctx, pool);
        let attn_out = one(site_forward(l, &[WeightSite::AttnO], &ctx)?)?;
        h.add_in_place(&attn_out);

        // ---- FFN ----
        let x2 = rmsnorm_rows(&h);
        let mut mid = one(site_forward(l, &[WeightSite::FfnUp], &x2)?)?;
        match cfg.activation {
            Activation::Relu => {
                mid.as_mut_slice().iter_mut().for_each(|m| *m = activation::relu(*m))
            }
            Activation::Silu => {
                mid.as_mut_slice().iter_mut().for_each(|m| *m = activation::silu(*m))
            }
        }
        let ffn_out = one(site_forward(l, &[WeightSite::FfnDown], &mid)?)?;
        h.add_in_place(&ffn_out);
    }
    cache.commit_step(slots, tokens);
    let hidden = rmsnorm_rows(&h);
    Ok((hidden.matmul_transpose(head), hidden))
}

/// Temperature sampling from one logits row: the single sampling
/// arithmetic shared by [`Transformer::generate`] and the batch scheduler
/// in [`crate::serving`] — sharing it is what keeps served output
/// token-identical to `generate`.
pub(crate) fn sample_token(logits: &[f32], temperature: f32, rng: &mut Rng) -> usize {
    let mut probs = logits.iter().map(|&z| z / temperature).collect::<Vec<f32>>();
    softmax_in_place(&mut probs);
    let weights: Vec<f64> = probs.iter().map(|&p| p as f64).collect();
    rng.categorical(&weights)
}

impl Transformer {
    /// Decodes one token incrementally: appends this position's keys and
    /// values to `cache` and returns the next-token logits — a one-row
    /// [`Transformer::forward_step_batch`] on the cache's one slot.
    ///
    /// Bit-identical to the last row of [`Transformer::forward`] over the
    /// whole prefix (asserted by tests), at `O(T)` instead of `O(T^2)`
    /// attention cost for the new position.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary or the cache shape does not
    /// match the model.
    pub fn forward_step(&self, token: usize, cache: &mut KvCache) -> Vec<f32> {
        self.forward_step_batch(&[token], &[0], &mut cache.0).into_vec()
    }

    /// Decodes the next tokens of several independent sequences in a
    /// single pass: `tokens[i]` is appended to the sequence in cache slot
    /// `slots[i]`, and row `i` of the returned `B x vocab` matrix holds
    /// the next-token logits after it. `slots` holds **one contiguous run
    /// per slot**: a slot listed `n` times side by side (`[0, 0, 0, 1]`)
    /// feeds `n` consecutive positions of its sequence this step (a
    /// sampler reads the run's last row); `[0, 1, 0]` panics.
    ///
    /// The tokens are stacked into one `B x d_model` activation
    /// matrix and every linear site runs through the batched
    /// [`LinearWeight::matmul_t`](crate::model::LinearWeight::matmul_t)
    /// path, so a packed weight stream is decoded once per layer per step
    /// instead of once per sequence — the amortization batched serving is
    /// built on. Attention stays per-sequence against each slot's own K/V
    /// history.
    ///
    /// Each row's arithmetic is independent of its batchmates, so its
    /// logits are **bit-identical** to stepping that sequence alone one
    /// token at a time (asserted by tests) — neither batch composition nor
    /// the split of a sequence into runs can change its output.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or length-mismatched with `slots`, a
    /// token is out of vocabulary, a slot index is out of range or appears
    /// in two separate runs, or the cache shape does not match the model.
    pub fn forward_step_batch(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
    ) -> Matrix {
        self.forward_step_batch_with(tokens, slots, cache, &mut KernelScratch::new())
    }

    /// [`Transformer::forward_step_batch`] (one contiguous run per slot)
    /// with caller-owned kernel scratch, so a serving loop reuses the
    /// activation-restage buffer across **steps**, not just across one
    /// step's layers (the [`crate::serving::BatchScheduler`] holds one
    /// scratch for its whole lifetime). Scratch reuse never changes
    /// arithmetic — outputs are identical to the allocating form.
    ///
    /// # Panics
    ///
    /// As [`Transformer::forward_step_batch`].
    pub fn forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Matrix {
        self.step_observing(tokens, slots, cache, scratch, |_| {}).0
    }

    /// [`Transformer::forward_step_batch_with`] that shows `observe` the
    /// input of every site group in the order the step body runs them —
    /// per layer: Q/K/V, O, up, down — and also returns the final
    /// normalized hidden state: logits first. The in-process caller of the
    /// step body; a full-window forward pass is one call of it.
    pub(crate) fn step_observing(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
        mut observe: impl FnMut(&Matrix),
    ) -> (Matrix, Matrix) {
        // The caller-owned scratch is shared across every layer's six
        // linear sites; the model's pool (if any) fans packed channel
        // loops — and the per-row attention loop — across workers without
        // touching per-sequence arithmetic.
        let pool = self.pool_ref();
        batched_step_body::<std::convert::Infallible>(
            self.config(),
            self.embedding(),
            self.head(),
            tokens,
            slots,
            cache,
            pool,
            // Site groups run in order — in-process there is nothing to
            // overlap.
            |l, sites, a| {
                observe(a);
                Ok(sites
                    .iter()
                    .map(|&site| self.weight(l, site).matmul_t_with(a, scratch, pool))
                    .collect())
            },
        )
        .unwrap_or_else(|e| match e {})
    }

    /// Autoregressive generation: feeds `prompt`, then samples
    /// `n_tokens` continuations at the given softmax temperature.
    ///
    /// Returns only the generated continuation.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `temperature` is not positive.
    pub fn generate(
        &self,
        prompt: &[usize],
        n_tokens: usize,
        temperature: f32,
        rng: &mut Rng,
    ) -> Vec<usize> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        assert!(temperature > 0.0, "temperature must be positive");
        let cfg = self.config();
        let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
        let mut logits = Vec::new();
        for &tok in prompt {
            logits = self.forward_step(tok, &mut cache);
        }
        let mut out = Vec::with_capacity(n_tokens);
        for _ in 0..n_tokens {
            let tok = sample_token(&logits, temperature, rng);
            out.push(tok);
            logits = self.forward_step(tok, &mut cache);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_fitted_model, BuilderSpec};
    use crate::corpus::Corpus;
    use fineq_tensor::Matrix;

    fn fitted_tiny() -> (Transformer, Corpus) {
        let corpus = Corpus::wiki_like(64, 5);
        let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 3_000, 2);
        (model, corpus)
    }

    #[test]
    fn incremental_matches_full_forward() {
        let (model, corpus) = fitted_tiny();
        let tokens = corpus.generate(24, 9).tokens().to_vec();
        let full = model.forward(&tokens);
        let mut cache = KvCache::new(model.n_layers(), model.config().d_model);
        for (t, &tok) in tokens.iter().enumerate() {
            let step_logits = model.forward_step(tok, &mut cache);
            for v in 0..model.config().vocab {
                assert_eq!(
                    step_logits[v].to_bits(),
                    full[(t, v)].to_bits(),
                    "position {t} vocab {v}: {} vs {}",
                    step_logits[v],
                    full[(t, v)]
                );
            }
        }
        assert_eq!(cache.len(), tokens.len());
    }

    #[test]
    fn forward_is_one_run_and_its_rows_are_forward_steps() {
        // `forward` over T tokens is bit for bit one batched run of T rows
        // on a one-slot cache, at any page size, and its row t is the t-th
        // `forward_step` — dense, packed, and packed on a 3-thread pool.
        let (model, corpus) = fitted_tiny();
        let (packed, _) = crate::model::pack_all_sites(&model);
        let mut pooled = packed.clone();
        pooled.set_thread_pool(Some(std::sync::Arc::new(fineq_core::ThreadPool::new(3))));
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (name, m) in [("dense", &model), ("packed", &packed), ("pooled", &pooled)] {
            let cfg = m.config();
            for t_len in [1usize, 2, 15, 16, 17, 33, 256] {
                let tokens = corpus.generate(t_len, 300 + t_len as u64).tokens().to_vec();
                let full = m.forward(&tokens);
                for page_tokens in [1, 16, t_len] {
                    let mut cache =
                        BatchKvCache::with_page_tokens(cfg.n_layers, cfg.d_model, 1, page_tokens);
                    let run = m.forward_step_batch(&tokens, &vec![0; t_len], &mut cache);
                    let what = format!("{name} T {t_len} page_tokens {page_tokens}");
                    assert_eq!(bits(full.as_slice()), bits(run.as_slice()), "{what}");
                }
                let mut solo = KvCache::new(cfg.n_layers, cfg.d_model);
                for (t, &tok) in tokens.iter().enumerate() {
                    let step = m.forward_step(tok, &mut solo);
                    assert_eq!(bits(full.row(t)), bits(&step), "{name} T {t_len} row {t}");
                }
            }
        }
    }

    #[test]
    fn cache_accounting_matches_memory_model() {
        let (model, _) = fitted_tiny();
        let mut cache = KvCache::new(model.n_layers(), model.config().d_model);
        let _ = model.forward_step(1, &mut cache);
        let _ = model.forward_step(2, &mut cache);
        // 2 tokens x 2 (K+V) x layers x d x 2 bytes.
        let expect = 2 * 2 * model.n_layers() * model.config().d_model * 2;
        assert_eq!(cache.fp16_bytes(), expect);
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_in_vocab() {
        let (model, _) = fitted_tiny();
        let mut r1 = Rng::seed_from(7);
        let mut r2 = Rng::seed_from(7);
        let a = model.generate(&[3, 1, 4], 16, 0.9, &mut r1);
        let b = model.generate(&[3, 1, 4], 16, 0.9, &mut r2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|&t| t < 64));
    }

    #[test]
    fn low_temperature_concentrates_sampling() {
        let (model, _) = fitted_tiny();
        // At a tiny temperature, repeated runs agree on the argmax path.
        let mut r1 = Rng::seed_from(1);
        let mut r2 = Rng::seed_from(999);
        let a = model.generate(&[5, 9], 8, 0.02, &mut r1);
        let b = model.generate(&[5, 9], 8, 0.02, &mut r2);
        assert_eq!(a, b, "near-greedy decoding should be seed-independent");
    }

    #[test]
    fn generated_text_scores_better_than_random_under_the_model() {
        // Self-consistency: the model should assign lower cross-entropy to
        // its own generations than to uniform random tokens.
        let (model, _) = fitted_tiny();
        let mut rng = Rng::seed_from(11);
        let gen = model.generate(&[1], 256, 1.0, &mut rng);
        let random: Vec<usize> = (0..256).map(|_| rng.below(64)).collect();
        let ce_gen = crate::eval::cross_entropy(&model, &gen, 128);
        let ce_rand = crate::eval::cross_entropy(&model, &random, 128);
        assert!(ce_gen < ce_rand, "gen {ce_gen} vs random {ce_rand}");
    }

    #[test]
    #[should_panic(expected = "cache layer count")]
    fn mismatched_cache_is_rejected() {
        let (model, _) = fitted_tiny();
        let mut cache = KvCache::new(model.n_layers() + 1, model.config().d_model);
        let _ = model.forward_step(0, &mut cache);
    }

    #[test]
    fn packed_forward_step_matches_dense_reference() {
        // A fully packed model must decode token-by-token to the same
        // logits as the dequantized dense copy.
        let (model, corpus) = fitted_tiny();
        let (packed, reference) = crate::model::pack_all_sites(&model);
        let tokens = corpus.generate(16, 4).tokens().to_vec();
        let mut cp = KvCache::new(model.n_layers(), model.config().d_model);
        let mut cr = KvCache::new(model.n_layers(), model.config().d_model);
        for &tok in &tokens {
            let lp = packed.forward_step(tok, &mut cp);
            let lr = reference.forward_step(tok, &mut cr);
            for (a, b) in lp.iter().zip(&lr) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn batch_step_rows_are_bit_identical_to_forward_step() {
        // Three sequences of different lengths decoded together must get
        // exactly the logits each would get decoding alone — on the dense
        // model and on the fully packed one.
        let (model, corpus) = fitted_tiny();
        let (packed, _) = crate::model::pack_all_sites(&model);
        for m in [&model, &packed] {
            let cfg = m.config();
            let seqs: Vec<Vec<usize>> = (0..3)
                .map(|s| corpus.generate(6 + 3 * s, 50 + s as u64).tokens().to_vec())
                .collect();
            let mut solo: Vec<KvCache> =
                (0..3).map(|_| KvCache::new(cfg.n_layers, cfg.d_model)).collect();
            let mut batch = BatchKvCache::new(cfg.n_layers, cfg.d_model, 3);
            for step in 0..seqs.iter().map(Vec::len).max().unwrap() {
                let mut tokens = Vec::new();
                let mut slots = Vec::new();
                for (s, seq) in seqs.iter().enumerate() {
                    if step < seq.len() {
                        tokens.push(seq[step]);
                        slots.push(s);
                    }
                }
                let batched = m.forward_step_batch(&tokens, &slots, &mut batch);
                for (row, (&tok, &slot)) in tokens.iter().zip(&slots).enumerate() {
                    let reference = m.forward_step(tok, &mut solo[slot]);
                    assert_eq!(batched.row(row), &reference[..], "step {step} slot {slot}");
                }
            }
            for s in 0..3 {
                assert_eq!(batch.slot_len(s), seqs[s].len());
                assert_eq!(batch.slot_tokens(s), &seqs[s][..], "fed tokens are recorded");
                for l in 0..cfg.n_layers {
                    let solo_kv = solo[s].0.slot_kv(0, l);
                    assert_eq!(batch.slot_kv(s, l), solo_kv, "cache contents must match too");
                }
            }
        }
    }

    #[test]
    fn batch_cache_accounting_sums_slots() {
        let (model, _) = fitted_tiny();
        let cfg = model.config();
        let mut cache = BatchKvCache::new(cfg.n_layers, cfg.d_model, 4);
        // Ragged lengths: slot 0 gets 3 tokens, slot 2 gets 1.
        let _ = model.forward_step_batch(&[1, 2], &[0, 2], &mut cache);
        let _ = model.forward_step_batch(&[3], &[0], &mut cache);
        let _ = model.forward_step_batch(&[4], &[0], &mut cache);
        assert_eq!(cache.total_tokens(), 4);
        let per_token = 2 * cfg.n_layers * cfg.d_model * 2;
        assert_eq!(cache.fp16_bytes(), 4 * per_token);
        // Physical accounting: two occupied slots => two allocated pages
        // (each shorter than one page), zero shared.
        assert_eq!(cache.allocated_pages(), 2);
        assert_eq!(cache.allocated_fp16_bytes(), 2 * cache.page_fp16_bytes());
        assert_eq!(cache.shared_pages(), 0);
        cache.reset_slot(0);
        assert_eq!(cache.total_tokens(), 1);
        assert_eq!(cache.slot_len(0), 0);
        assert_eq!(cache.allocated_pages(), 1, "reset frees the slot's pages");
    }

    #[test]
    fn reset_slot_gives_a_fresh_sequence() {
        // Backfilling a freed slot must behave exactly like a new cache.
        let (model, corpus) = fitted_tiny();
        let cfg = model.config();
        let mut cache = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let tokens = corpus.generate(5, 77).tokens().to_vec();
        for &t in &tokens {
            let _ = model.forward_step_batch(&[t, t], &[0, 1], &mut cache);
        }
        cache.reset_slot(1);
        let mut fresh = KvCache::new(cfg.n_layers, cfg.d_model);
        for &t in &tokens {
            let batched = model.forward_step_batch(&[t], &[1], &mut cache);
            let reference = model.forward_step(t, &mut fresh);
            assert_eq!(batched.row(0), &reference[..]);
        }
    }

    #[test]
    #[should_panic(expected = "slot 0 appears twice in one step")]
    fn duplicate_slot_in_one_step_is_rejected() {
        let (model, _) = fitted_tiny();
        let cfg = model.config();
        // `[0, 0]` is one run of two rows: positions 0 and 1 of slot 0.
        let mut cache = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let run = model.forward_step_batch(&[1, 2], &[0, 0], &mut cache);
        let mut solo = KvCache::new(cfg.n_layers, cfg.d_model);
        for (row, tok) in [1, 2].into_iter().enumerate() {
            assert_eq!(run.row(row), &model.forward_step(tok, &mut solo)[..]);
        }
        assert_eq!(cache.slot_tokens(0), &[1, 2]);
        // A slot split by another is not a run.
        let _ = model.forward_step_batch(&[3, 4, 5], &[0, 1, 0], &mut cache);
    }

    /// Cuts `total` into a seeded composition of run lengths in `1..=24`
    /// (past one 16-row kernel panel).
    fn random_runs(total: usize, rng: &mut Rng) -> Vec<usize> {
        let mut runs = Vec::new();
        let mut left = total;
        while left > 0 {
            let n = 1 + rng.below(left.min(24));
            runs.push(n);
            left -= n;
        }
        runs
    }

    /// Steps `cache` once over `runs` (`(slot, tokens)`, slot-ordered) and
    /// checks every row's logits bit for bit against `reference` fed the
    /// same tokens one per step.
    fn assert_runs_match_reference(
        model: &Transformer,
        cache: &mut BatchKvCache,
        reference: &mut BatchKvCache,
        runs: &[(usize, &[usize])],
        what: &str,
    ) {
        let tokens: Vec<usize> = runs.iter().flat_map(|(_, t)| t.iter().copied()).collect();
        let slots: Vec<usize> =
            runs.iter().flat_map(|&(slot, t)| std::iter::repeat_n(slot, t.len())).collect();
        let logits = model.forward_step_batch(&tokens, &slots, cache);
        for (row, (&tok, &slot)) in tokens.iter().zip(&slots).enumerate() {
            let expect = model.forward_step_batch(&[tok], &[slot], reference);
            let same =
                logits.row(row).iter().zip(expect.row(0)).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{what}: row {row} (slot {slot})");
        }
    }

    #[test]
    fn any_split_into_runs_is_bit_identical_to_one_token_per_step() {
        // Three slots. Slot 0 feeds a 40-token script cut into runs, then a
        // 6-token extension; slot 1 decodes one row per step throughout;
        // slot 2 maps the first 2½ pages of slot 0 copy-on-write once they
        // exist and feeds its own 8-token tail in runs, so a run begins in
        // a shared tail page (and slot 0's extension may too). Every row
        // must carry exactly the logits the one-token-per-step schedule
        // computes at that position, and the caches must end equal.
        let (model, corpus) = fitted_tiny();
        let (mut packed, _) = crate::model::pack_all_sites(&model);
        let cfg = packed.config().clone();
        let script = corpus.generate(40, 97).tokens().to_vec();
        let ext0 = corpus.generate(6, 98).tokens().to_vec();
        let decode1 = corpus.generate(64, 99).tokens().to_vec();
        let mut tail2 = corpus.generate(8, 100).tokens().to_vec();

        let mut compositions = vec![vec![1; script.len()], vec![script.len()]];
        let mut rng = Rng::seed_from(2323);
        compositions.extend((0..50).map(|_| random_runs(script.len(), &mut rng)));

        for page_tokens in [1usize, 2, 3, 16] {
            // 2½ pages of slot 0's script, then slot 2's own tokens; the
            // tail must diverge at once or the shared prefix runs longer.
            let shared_len = 5 * page_tokens / 2;
            let next0 = script.iter().chain(&ext0).nth(shared_len).expect("slot 0 is longer");
            if tail2[0] == *next0 {
                tail2[0] = (tail2[0] + 1) % cfg.vocab;
            }
            let script2: Vec<usize> = script[..shared_len].iter().chain(&tail2).copied().collect();
            let fed0: Vec<usize> = script.iter().chain(&ext0).copied().collect();

            for threads in [1usize, 2] {
                packed.set_thread_pool(
                    (threads > 1)
                        .then(|| std::sync::Arc::new(fineq_core::ThreadPool::new(threads))),
                );
                for (c, first_runs) in compositions.iter().enumerate() {
                    let what = format!("page_tokens {page_tokens} threads {threads} split {c}");
                    let mut cache =
                        BatchKvCache::with_page_tokens(cfg.n_layers, cfg.d_model, 3, page_tokens);
                    let mut reference = BatchKvCache::new(cfg.n_layers, cfg.d_model, 3);
                    // Slot 1 rides every step with one row of its own.
                    let mut decoded = 0;
                    let mut at = 0;
                    for &n in first_runs {
                        let runs = [(0, &script[at..at + n]), (1, &decode1[decoded..decoded + 1])];
                        assert_runs_match_reference(
                            &packed,
                            &mut cache,
                            &mut reference,
                            &runs,
                            &what,
                        );
                        (at, decoded) = (at + n, decoded + 1);
                    }
                    assert_eq!(cache.share_prefix(2, &script2), shared_len, "{what}");
                    assert_eq!(reference.share_prefix(2, &script2), shared_len, "{what}");
                    let runs0 = random_runs(ext0.len(), &mut rng);
                    let runs2 = random_runs(tail2.len(), &mut rng);
                    let (mut at0, mut at2) = (0, 0);
                    for k in 0..runs0.len().max(runs2.len()) {
                        let n0 = runs0.get(k).copied().unwrap_or(0);
                        let n2 = runs2.get(k).copied().unwrap_or(0);
                        let mut runs = vec![
                            (0, &ext0[at0..at0 + n0]),
                            (1, &decode1[decoded..decoded + 1]),
                            (2, &tail2[at2..at2 + n2]),
                        ];
                        runs.retain(|(_, t)| !t.is_empty());
                        assert_runs_match_reference(
                            &packed,
                            &mut cache,
                            &mut reference,
                            &runs,
                            &what,
                        );
                        (at0, at2, decoded) = (at0 + n0, at2 + n2, decoded + 1);
                    }
                    assert_eq!(cache.slot_tokens(0), &fed0[..], "{what}");
                    assert_eq!(cache.slot_tokens(2), &script2[..], "{what}");
                    assert!(cache == reference, "{what}: final caches differ");
                    if shared_len % page_tokens != 0 {
                        assert!(cache.cow_copies() > 0, "{what}: a run began in a shared page");
                    }
                }
            }
        }
    }

    #[test]
    fn a_run_reserves_every_page_it_touches_and_never_more_than_counted() {
        // `pages_needed_for_step` must price a run exactly: with the pool
        // capped at that count, `alloc_page`'s exhaustion assertion stays
        // unreachable however many page boundaries the run crosses and
        // whether or not it starts in a shared tail page.
        let (model, corpus) = fitted_tiny();
        let cfg = model.config().clone();
        let script = corpus.generate(40, 83).tokens().to_vec();
        for page_tokens in [1usize, 2, 3, 16] {
            for first in [1usize, 5, 16, 23] {
                let mut cache =
                    BatchKvCache::with_page_tokens(cfg.n_layers, cfg.d_model, 2, page_tokens);
                let _ = model.forward_step_batch(&script[..first], &vec![0; first], &mut cache);
                assert_eq!(cache.allocated_pages(), first.div_ceil(page_tokens));
                // Slot 1 maps all but the last cached position, so both
                // slots' next runs start in (or just past) shared pages.
                let shared = cache.share_prefix(1, &script[..first + 1]);
                assert_eq!(shared, first);
                for rows in [1usize, 2, 17] {
                    let mut capped = cache.clone();
                    let slots: Vec<usize> =
                        std::iter::repeat_n(0, rows).chain(std::iter::repeat_n(1, rows)).collect();
                    let tokens: Vec<usize> = script[first..first + rows]
                        .iter()
                        .chain(&script[shared..shared + rows])
                        .copied()
                        .collect();
                    let needed = capped.pages_needed_for_step(&slots);
                    assert_eq!(
                        needed,
                        capped.pages_to_reserve(0, rows).count()
                            + capped.pages_to_reserve(1, rows).count()
                    );
                    let before = capped.allocated_pages();
                    capped.set_capacity_pages(Some(before + needed));
                    let _ = model.forward_step_batch(&tokens, &slots, &mut capped);
                    let grown = capped.allocated_pages() - before;
                    assert!(grown <= needed, "page_tokens {page_tokens}: {grown} > {needed}");
                    // Over-counting is confined to one page: two slots
                    // sharing a tail each price its copy, the second then
                    // finds it exclusive.
                    assert!(needed - grown <= 1, "page_tokens {page_tokens}: {grown} vs {needed}");
                    assert_eq!(capped.slot_len(0), first + rows);
                    assert_eq!(capped.slot_len(1), shared + rows);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_is_rejected() {
        let (model, _) = fitted_tiny();
        let cfg = model.config();
        let mut cache = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let _ = model.forward_step_batch(&[1], &[2], &mut cache);
    }

    #[test]
    fn page_size_is_invisible_to_decoding() {
        // The same ragged schedule through page sizes 1/2/3/16 must leave
        // logically equal caches and produce identical logits — page
        // boundaries are physical layout, not arithmetic.
        let (model, corpus) = fitted_tiny();
        let cfg = model.config().clone();
        let tokens = corpus.generate(14, 51).tokens().to_vec();
        let schedule: Vec<(Vec<usize>, Vec<usize>)> = (0..7)
            .map(|step| {
                let slots: Vec<usize> = (0..2).filter(|s| step >= *s).collect();
                (slots.iter().map(|&s| tokens[step * 2 + s]).collect(), slots)
            })
            .collect();
        let mut reference = BatchKvCache::new(cfg.n_layers, cfg.d_model, 2);
        let expect: Vec<Matrix> =
            schedule.iter().map(|(t, s)| model.forward_step_batch(t, s, &mut reference)).collect();
        for page_tokens in [1usize, 2, 3] {
            let mut cache =
                BatchKvCache::with_page_tokens(cfg.n_layers, cfg.d_model, 2, page_tokens);
            for (i, (t, s)) in schedule.iter().enumerate() {
                let logits = model.forward_step_batch(t, s, &mut cache);
                assert_eq!(logits, expect[i], "page_tokens {page_tokens} step {i}");
            }
            assert_eq!(cache, reference, "logical equality across page sizes");
            assert_eq!(cache.fp16_bytes(), reference.fp16_bytes());
        }
    }

    #[test]
    fn shared_prefix_slots_decode_identically_to_fresh_ones() {
        // Slot 1 inherits slot 0's prompt pages through share_prefix, then
        // both continue on different tokens: slot 1's logits and K/V must
        // be bit-identical to a sequence that fed the whole script itself.
        let (model, corpus) = fitted_tiny();
        let cfg = model.config().clone();
        let script = corpus.generate(9, 61).tokens().to_vec();
        let mut cache = BatchKvCache::with_page_tokens(cfg.n_layers, cfg.d_model, 2, 4);
        for &t in &script {
            let _ = model.forward_step_batch(&[t], &[0], &mut cache);
        }
        let shared = cache.share_prefix(1, &script);
        assert_eq!(shared, script.len() - 1, "full prefix minus the uncached-logits token");
        assert_eq!(cache.shared_prefix_tokens(), shared as u64);
        assert!(cache.shared_pages() > 0, "prefix pages are mapped, not copied");

        let mut solo = KvCache::new(cfg.n_layers, cfg.d_model);
        let mut solo_logits = Vec::new();
        for &t in &script {
            solo_logits = model.forward_step(t, &mut solo);
        }
        // Feed the one remaining script token into the shared slot: logits
        // equal the solo pass over the whole script.
        let batched = model.forward_step_batch(&[script[shared]], &[1], &mut cache);
        assert_eq!(batched.row(0), &solo_logits[..], "shared prefill skips nothing numerically");
        // Diverge: different continuations per slot stay bit-exact vs solo.
        let (a, b) = (3usize, 7usize);
        let out = model.forward_step_batch(&[a, b], &[0, 1], &mut cache);
        let solo1 = model.forward_step(b, &mut solo);
        assert_eq!(out.row(1), &solo1[..], "diverged shared slot matches its solo reference");
        for l in 0..cfg.n_layers {
            assert_eq!(cache.slot_kv(1, l), solo.0.slot_kv(0, l), "layer {l} history");
        }
    }

    #[test]
    fn cow_divergence_keeps_refcounts_and_bytes_honest() {
        // Two sequences share prefix pages, diverge, and mutate
        // independently: the COW copy splits only the tail page, refcounts
        // and both byte accountings track every transition.
        let (model, corpus) = fitted_tiny();
        let cfg = model.config().clone();
        let page = 4usize;
        let script = corpus.generate(6, 71).tokens().to_vec(); // 6 tokens: 1.5 pages
        let mut cache = BatchKvCache::with_page_tokens(cfg.n_layers, cfg.d_model, 2, page);
        for &t in &script {
            let _ = model.forward_step_batch(&[t], &[0], &mut cache);
        }
        assert_eq!(cache.allocated_pages(), 2);
        let shared = cache.share_prefix(1, &script);
        assert_eq!(shared, 5, "6-token script shares 5 positions (logits are not cached)");
        // 5 positions span 2 pages; both now mapped twice, none copied.
        assert_eq!(cache.allocated_pages(), 2);
        assert_eq!(cache.shared_pages(), 2);
        assert_eq!(cache.cow_copies(), 0);
        // Used counts per-copy (6 + 5 positions); allocated counts pages.
        assert_eq!(cache.fp16_bytes(), 11 * 2 * cfg.n_layers * cfg.d_model * 2);
        assert_eq!(cache.allocated_fp16_bytes(), 2 * cache.page_fp16_bytes());

        // Slot 1 writes position 5 — inside the shared tail page, so the
        // step COWs it: one new page, tail no longer shared.
        let _ = model.forward_step_batch(&[script[5]], &[1], &mut cache);
        assert_eq!(cache.cow_copies(), 1, "divergence copies the shared tail page once");
        assert_eq!(cache.allocated_pages(), 3);
        assert_eq!(cache.shared_pages(), 1, "the full prefix page stays shared");

        // Independent mutation after divergence: each slot's history stays
        // bit-identical to a solo run of its own script.
        let conts = [[9usize, 2, 8], [4usize, 1, 5]];
        for (&a, &b) in conts[0].iter().zip(&conts[1]) {
            let _ = model.forward_step_batch(&[a, b], &[0, 1], &mut cache);
        }
        for (slot, cont) in conts.iter().enumerate() {
            let mut solo = KvCache::new(cfg.n_layers, cfg.d_model);
            for &t in script.iter().chain(cont) {
                let _ = model.forward_step(t, &mut solo);
            }
            for l in 0..cfg.n_layers {
                assert_eq!(cache.slot_kv(slot, l), solo.0.slot_kv(0, l), "slot {slot} layer {l}");
            }
        }

        // Releasing the donor keeps the still-shared page alive for slot 1
        // and frees the donor-only ones.
        let before = cache.allocated_pages();
        cache.reset_slot(0);
        assert!(cache.allocated_pages() < before);
        assert_eq!(cache.shared_pages(), 0);
        assert_eq!(cache.slot_len(1), script.len() + 3);
    }

    #[test]
    #[should_panic(expected = "page pool exhausted")]
    fn exhausted_page_pool_is_a_loud_invariant_violation() {
        let (model, _) = fitted_tiny();
        let cfg = model.config().clone();
        let mut cache = BatchKvCache::with_page_tokens(cfg.n_layers, cfg.d_model, 2, 2);
        cache.set_capacity_pages(Some(1));
        for t in 0..3 {
            let _ = model.forward_step_batch(&[t], &[0], &mut cache);
        }
    }
}
