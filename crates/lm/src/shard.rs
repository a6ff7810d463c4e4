//! Row-sharded serving: packed weights partitioned across worker shards.
//!
//! The FineQ format encodes each output channel independently — the same
//! property the paper's temporal-coding PE array exploits, and the thread
//! pool's channel-range chunking exploits within one host. This module
//! takes the split one topology level up: a [`ShardPlan`] partitions every
//! packed weight site's output channels across `N` worker shards (balanced
//! by **packed bytes**, not row count), a [`ShardedModel`] holds each
//! shard's weight slices — every slice round-tripped through the versioned
//! shard **wire format** of `fineq_core::serialize` at construction, so a
//! multi-process or multi-host deployment is a transport away — and the
//! batched step broadcasts the batch's activations to all shards and
//! gathers their partial outputs into the full channel range.
//!
//! Worker shards run on the in-tree [`ThreadPool`]: a shard is one whole
//! work item, it reads the shared activation broadcast, and it writes only
//! its own output columns. Because a slice's channels are byte-identical
//! to the same channels of the unsharded matrix and each channel's
//! accumulation order is untouched by where it executes, a sharded step is
//! **bit-identical to the unsharded step at any shard count and any thread
//! count** — the same determinism contract the thread pool established,
//! lifted to the sharding topology (asserted kernel → step → scheduler by
//! `tests/sharded_serving.rs` and gated in CI).

use crate::generate::{batched_step_body, BatchKvCache};
use crate::memory::{ServingMemory, WeightStore};
use crate::model::{Transformer, WeightSite};
use fineq_core::serialize::{shard_from_bytes, shard_to_bytes, ShardHeader};
use fineq_core::{matmul_t_sharded_into, KernelScratch, PackedMatrix, ThreadPool};
use fineq_tensor::Matrix;
use std::sync::Arc;

/// The wire `site_id` of a weight site: `layer * 6 + WeightSite::index`,
/// the deterministic enumeration order of [`Transformer::visit_weights`].
pub fn site_id(layer: usize, site: WeightSite) -> u32 {
    (layer * WeightSite::ALL.len() + site.index()) as u32
}

/// One weight site's row partition across the shards of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SitePlan {
    /// Block index of the site.
    pub layer: usize,
    /// Which linear weight of the block.
    pub site: WeightSite,
    /// Output channels (rows) of the unsharded site matrix.
    pub rows: usize,
    /// Input features (columns).
    pub cols: usize,
    /// `n_shards + 1` ascending channel boundaries: shard `s` owns rows
    /// `starts[s]..starts[s + 1]` (empty when the site has fewer rows than
    /// the plan has shards).
    pub starts: Vec<usize>,
    /// Measured packed bytes (blocks + fp16-accounted scales) each shard
    /// holds for this site.
    pub shard_bytes: Vec<usize>,
}

impl SitePlan {
    /// The channel range shard `shard` owns (possibly empty).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= starts.len() - 1`.
    pub fn range(&self, shard: usize) -> (usize, usize) {
        (self.starts[shard], self.starts[shard + 1])
    }
}

/// Contiguous channel boundaries balancing cumulative `bytes` across `n`
/// shards: boundary `k` is the first channel where the running byte total
/// reaches `k/n` of the whole. With the fixed-stride packed format every
/// channel of a site costs the same, so this coincides with row balancing
/// up to rounding — but the plan is stated in bytes because bytes are what
/// a worker's weight buffer actually holds.
fn byte_balanced_starts(bytes: &[usize], n: usize) -> Vec<usize> {
    let total: u128 = bytes.iter().map(|&b| b as u128).sum();
    let mut starts = Vec::with_capacity(n + 1);
    starts.push(0usize);
    let mut cum = 0u128;
    let mut row = 0usize;
    for k in 1..n {
        let target = (total * k as u128).div_ceil(n as u128);
        while row < bytes.len() && cum < target {
            cum += bytes[row] as u128;
            row += 1;
        }
        starts.push(row);
    }
    starts.push(bytes.len());
    starts
}

/// A row partition of every packed weight site in a model across `N`
/// worker shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n_shards: usize,
    /// Layer-major, [`WeightSite::ALL`] order — index `layer * 6 +
    /// site.index()`, i.e. [`site_id`] as a `usize`.
    sites: Vec<SitePlan>,
}

impl ShardPlan {
    /// Plans a row shard of every packed weight site of `model` across
    /// `n_shards` workers, balancing each site's split by measured packed
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero, exceeds `u16::MAX` (the wire header's
    /// width), or the model is not fully packed.
    pub fn new(model: &Transformer, n_shards: usize) -> Self {
        assert!(n_shards > 0, "a shard plan needs at least one shard");
        assert!(n_shards <= u16::MAX as usize, "shard count exceeds the wire header");
        assert!(model.is_fully_packed(), "shard planning requires a fully packed model");
        let mut sites = Vec::with_capacity(model.n_layers() * WeightSite::ALL.len());
        model.visit_weights(|layer, site, w| {
            let p = w.as_packed().expect("fully packed model");
            let bytes: Vec<usize> = p.channels().iter().map(|c| c.storage_bytes()).collect();
            let starts = byte_balanced_starts(&bytes, n_shards);
            let shard_bytes =
                (0..n_shards).map(|s| bytes[starts[s]..starts[s + 1]].iter().sum()).collect();
            sites.push(SitePlan {
                layer,
                site,
                rows: p.rows(),
                cols: p.cols(),
                starts,
                shard_bytes,
            });
        });
        Self { n_shards, sites }
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Every site's partition, in [`Transformer::visit_weights`] order.
    pub fn sites(&self) -> &[SitePlan] {
        &self.sites
    }

    /// The partition of one site.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn site(&self, layer: usize, site: WeightSite) -> &SitePlan {
        &self.sites[layer * WeightSite::ALL.len() + site.index()]
    }

    /// Measured packed weight bytes shard `shard` holds across all sites —
    /// the number a worker's device budget must cover (**memory planning
    /// per shard**; embedding and readout head live on the orchestrator).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= n_shards()`.
    pub fn shard_weight_bytes(&self, shard: usize) -> usize {
        assert!(shard < self.n_shards, "shard {shard} out of plan");
        self.sites.iter().map(|sp| sp.shard_bytes[shard]).sum()
    }

    /// The bytes shard `shard` holds: one FNQS envelope
    /// ([`shard_to_bytes`]) per site the shard owns rows of, in
    /// [`ShardPlan::sites`] order. The in-process [`ShardedModel`] decodes
    /// them and the multi-process coordinator ships them, so every
    /// topology serves exactly these bytes.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= n_shards()` or the plan does not describe
    /// `model`'s sites exactly.
    pub fn envelopes(&self, model: &Transformer, shard: usize) -> Vec<Vec<u8>> {
        assert!(shard < self.n_shards, "shard {shard} out of plan");
        let mut envelopes = Vec::new();
        for sp in &self.sites {
            let p = model.weight(sp.layer, sp.site).as_packed().expect("fully packed model");
            assert_eq!(
                (p.rows(), p.cols()),
                (sp.rows, sp.cols),
                "plan shape mismatch at layer {} {}",
                sp.layer,
                sp.site.label()
            );
            let (start, end) = sp.range(shard);
            if start == end {
                continue; // fewer rows than shards: this worker sits out
            }
            let header = ShardHeader {
                shard_index: shard as u16,
                n_shards: self.n_shards as u16,
                site_id: site_id(sp.layer, sp.site),
                row_start: start as u32,
                total_rows: sp.rows as u32,
            };
            envelopes.push(shard_to_bytes(&p.slice_rows(start, end), &header));
        }
        envelopes
    }

    /// Logical parameters shard `shard` holds (`rows_in_shard * cols`
    /// summed over sites).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= n_shards()`.
    pub fn shard_params(&self, shard: usize) -> usize {
        assert!(shard < self.n_shards, "shard {shard} out of plan");
        self.sites
            .iter()
            .map(|sp| {
                let (start, end) = sp.range(shard);
                (end - start) * sp.cols
            })
            .sum()
    }
}

/// A packed transformer with every block weight site row-sharded across
/// worker shards, serving batched steps shard-parallel.
///
/// Construction slices each site by its [`ShardPlan`] range and
/// round-trips every slice through the versioned shard wire format
/// ([`fineq_core::serialize::shard_to_bytes`] /
/// [`fineq_core::serialize::shard_from_bytes`]) — the matrices held here
/// are literally what came off the bytes a deployment would ship each
/// worker. Embedding, readout head and the KV cache stay on the
/// orchestrator (the paper's protocol keeps them fp32, and attention is
/// not channel-sharded in this topology).
///
/// Like [`Transformer`], the model may carry an execution [`ThreadPool`];
/// shards fan out over it as whole work items. [`PartialEq`] ignores the
/// pool — shard count and thread count are pure execution configuration
/// and never change output.
#[derive(Debug, Clone)]
pub struct ShardedModel {
    cfg: crate::config::ModelConfig,
    embedding: Matrix,
    head: Matrix,
    plan: ShardPlan,
    /// `site_slices[site_id] = (row_offset, slice)` pairs in ascending
    /// offset order, one per shard with a non-empty range.
    site_slices: Vec<Vec<(usize, PackedMatrix)>>,
    pool: Option<Arc<ThreadPool>>,
}

impl PartialEq for ShardedModel {
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg
            && self.embedding == other.embedding
            && self.head == other.head
            && self.plan == other.plan
            && self.site_slices == other.site_slices
    }
}

impl ShardedModel {
    /// Plans and builds a row shard of `model` across `n_shards` workers
    /// (every slice round-tripped through the wire format). The model's
    /// thread pool, if any, is inherited.
    ///
    /// # Panics
    ///
    /// As [`ShardPlan::new`].
    pub fn new(model: &Transformer, n_shards: usize) -> Self {
        let plan = ShardPlan::new(model, n_shards);
        Self::from_plan(model, plan)
    }

    /// Builds the sharded model from an existing plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not describe `model`'s sites exactly.
    pub fn from_plan(model: &Transformer, plan: ShardPlan) -> Self {
        let mut site_slices = vec![Vec::new(); plan.sites().len()];
        for shard in 0..plan.n_shards() {
            for bytes in plan.envelopes(model, shard) {
                // The wire round trip: what this worker serves is exactly
                // what decodes from the shipped bytes. Shards ascend, so
                // each site's slices land in ascending offset order.
                let (header, slice) =
                    shard_from_bytes(&bytes).expect("self-produced shard bytes must decode");
                site_slices[header.site_id as usize].push((header.row_start as usize, slice));
            }
        }
        Self {
            cfg: model.config().clone(),
            embedding: model.embedding().clone(),
            head: model.head().clone(),
            plan,
            site_slices,
            pool: model.thread_pool().cloned(),
        }
    }

    /// The architecture.
    pub fn config(&self) -> &crate::config::ModelConfig {
        &self.cfg
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.plan.n_shards()
    }

    /// The row partition this model was built from.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// One site's slices as ascending `(row_offset, slice)` pairs (shards
    /// with empty ranges are absent).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn site_slices(&self, layer: usize, site: WeightSite) -> &[(usize, PackedMatrix)] {
        &self.site_slices[layer * WeightSite::ALL.len() + site.index()]
    }

    /// Installs (or removes) the pool the shard fan-out runs on; see
    /// [`Transformer::set_thread_pool`] — same sharing and determinism
    /// contract.
    pub fn set_thread_pool(&mut self, pool: Option<Arc<ThreadPool>>) {
        self.pool = pool;
    }

    /// The installed execution thread pool, if any.
    pub fn thread_pool(&self) -> Option<&Arc<ThreadPool>> {
        self.pool.as_ref()
    }

    fn pool_ref(&self) -> Option<&ThreadPool> {
        self.pool.as_deref()
    }

    /// Measured weight bytes shard `shard` holds (delegates to the plan).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= n_shards()`.
    pub fn shard_weight_bytes(&self, shard: usize) -> usize {
        self.plan.shard_weight_bytes(shard)
    }

    /// Serving-memory plan for one worker shard on a device of
    /// `device_bytes`: measured weights are the shard's packed slices alone
    /// (embedding, head and the KV cache live on the orchestrator), while
    /// the KV shape matches the full model so the orchestrator's
    /// KV-headroom arithmetic can be evaluated against any worker's budget.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= n_shards()`.
    pub fn shard_memory(&self, shard: usize, device_bytes: f64) -> ServingMemory {
        ServingMemory {
            params: self.plan.shard_params(shard) as f64,
            n_layers: self.cfg.n_layers,
            d_model: self.cfg.d_model,
            device_bytes,
            weights: WeightStore::MeasuredBytes(self.shard_weight_bytes(shard) as f64),
            kv_bytes_per_elem: 2.0,
        }
    }

    /// One linear site's batched forward: broadcast `a` to the site's
    /// shards, gather their partial outputs into the full channel range.
    fn site_matmul_t(
        &self,
        layer: usize,
        site: WeightSite,
        a: &Matrix,
        scratch: &mut KernelScratch,
    ) -> Matrix {
        let sp = self.plan.site(layer, site);
        let mut out = Matrix::zeros(a.rows(), sp.rows);
        matmul_t_sharded_into(self.site_slices(layer, site), a, &mut out, scratch, self.pool_ref());
        out
    }

    /// Sharded mirror of [`Transformer::forward_step_batch`]: decodes the
    /// step's rows (one contiguous run per slot) with every linear site
    /// gathered from its worker shards. Allocating form of
    /// [`ShardedModel::forward_step_batch_with`].
    ///
    /// # Panics
    ///
    /// As [`Transformer::forward_step_batch`].
    pub fn forward_step_batch(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
    ) -> Matrix {
        self.forward_step_batch_with(tokens, slots, cache, &mut KernelScratch::new())
    }

    /// Sharded mirror of [`Transformer::forward_step_batch_with`]: the
    /// **same step body** runs (validation, embedding, attention,
    /// activations, K/V commit, head — shared code, not a copy), with
    /// each linear site executed as broadcast + shard-parallel gather.
    /// Logits are therefore **bit-identical** to the unsharded step at
    /// any shard count and thread count (asserted by tests and gated in
    /// CI).
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
        let pool = self.pool_ref();
        batched_step_body::<std::convert::Infallible>(
            &self.cfg,
            &self.embedding,
            &self.head,
            tokens,
            slots,
            cache,
            pool,
            |l, sites, a| {
                Ok(sites.iter().map(|&site| self.site_matmul_t(l, site, a, scratch)).collect())
            },
        )
        .unwrap_or_else(|e| match e {})
        .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::pack_all_sites;
    use fineq_tensor::Rng;

    fn packed_tiny(seed: u64) -> Transformer {
        let cfg = crate::config::ModelConfig::new(16, 8, 2, 2, 16);
        let mut m = Transformer::zeros(cfg.clone());
        let mut rng = Rng::seed_from(seed);
        *m.embedding_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.5));
        *m.head_mut() = Matrix::from_fn(cfg.vocab, cfg.d_model, |_, _| rng.normal(0.0, 0.5));
        for l in 0..m.n_layers() {
            for site in WeightSite::ALL {
                let (r, c) = {
                    let w = m.weight(l, site);
                    (w.rows(), w.cols())
                };
                *m.weight_mut(l, site) =
                    Matrix::from_fn(r, c, |_, _| rng.laplace(0.0, 0.05)).into();
            }
        }
        pack_all_sites(&m).0
    }

    #[test]
    fn byte_balanced_starts_tile_and_balance() {
        // Equal-cost channels: boundaries reduce to a balanced row split.
        assert_eq!(byte_balanced_starts(&[7; 10], 3), vec![0, 4, 7, 10]);
        // Fewer rows than shards: trailing shards get empty ranges.
        assert_eq!(byte_balanced_starts(&[7], 5), vec![0, 1, 1, 1, 1, 1]);
        assert_eq!(byte_balanced_starts(&[7; 2], 2), vec![0, 1, 2]);
    }

    #[test]
    fn plan_covers_every_site_and_sums_bytes() {
        let model = packed_tiny(1);
        for n_shards in [1usize, 2, 3, 5] {
            let plan = ShardPlan::new(&model, n_shards);
            assert_eq!(plan.sites().len(), model.n_layers() * 6);
            let mut total = 0usize;
            for sp in plan.sites() {
                assert_eq!(sp.starts[0], 0);
                assert_eq!(*sp.starts.last().unwrap(), sp.rows);
                assert!(sp.starts.windows(2).all(|w| w[0] <= w[1]), "monotone boundaries");
                total += sp.shard_bytes.iter().sum::<usize>();
            }
            assert_eq!(total, model.body_weight_bytes(), "plan must account every byte");
            let per_shard: usize = (0..n_shards).map(|s| plan.shard_weight_bytes(s)).sum();
            assert_eq!(per_shard, model.body_weight_bytes());
        }
    }

    #[test]
    fn sharded_model_round_trips_and_compares_equal() {
        let model = packed_tiny(2);
        let a = ShardedModel::new(&model, 3);
        let b = ShardedModel::from_plan(&model, a.plan().clone());
        assert_eq!(a, b, "same plan, same model, same slices");
        // Slices tile each site's rows exactly.
        for l in 0..model.n_layers() {
            for site in WeightSite::ALL {
                let rows: usize = a.site_slices(l, site).iter().map(|(_, m)| m.rows()).sum();
                assert_eq!(rows, model.weight(l, site).rows());
            }
        }
    }

    #[test]
    fn shard_memory_measures_the_shard_alone() {
        let model = packed_tiny(3);
        let sharded = ShardedModel::new(&model, 2);
        let m0 = sharded.shard_memory(0, 1e6);
        let m1 = sharded.shard_memory(1, 1e6);
        assert_eq!(
            m0.weight_bytes() + m1.weight_bytes(),
            model.body_weight_bytes() as f64,
            "the shards hold exactly the packed body, nothing twice"
        );
        assert!(m0.params > 0.0 && m1.params > 0.0);
    }

    #[test]
    #[should_panic(expected = "fully packed")]
    fn planning_a_dense_model_is_rejected() {
        let cfg = crate::config::ModelConfig::new(16, 8, 1, 2, 16);
        let model = Transformer::zeros(cfg);
        let _ = ShardPlan::new(&model, 2);
    }
}
