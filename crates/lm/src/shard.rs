//! Row-sharded serving: packed weights partitioned across worker shards.
//!
//! The FineQ format encodes each output channel independently — the same
//! property the paper's temporal-coding PE array exploits, and the thread
//! pool's channel-range chunking exploits within one host. This module
//! takes the split one topology level up: a [`ShardPlan`] partitions every
//! packed weight site's output channels across `N` worker shards (balanced
//! by **packed bytes**, not row count) and encodes each shard's slices as
//! the versioned shard **wire format** of `fineq_core::serialize`
//! ([`ShardPlan::envelopes`]). Those bytes are what the multi-process
//! coordinator ships its workers, and what [`ShardPlan::rebuild`] decodes
//! and reassembles into the packed [`Transformer`] an in-process scheduler
//! serves.
//!
//! A slice's channels are byte-identical to the same channels of the
//! unsharded matrix, and a channel's accumulation order does not depend on
//! the matrix that holds it. So the split of a site's rows is known only to
//! the plan and the wire protocol — no kernel sees it — and a sharded step
//! is **bit-identical to the unsharded step at any shard count and any
//! thread count** (asserted site by site in this module's tests, step →
//! scheduler by `tests/sharded_serving.rs`, and gated in CI).

use crate::config::ModelConfig;
use crate::generate::BatchKvCache;
use crate::memory::ServingMemory;
use crate::model::{Transformer, WeightSite};
use fineq_core::serialize::{shard_from_bytes, shard_to_bytes, ShardHeader};
use fineq_core::{KernelScratch, PackedMatrix, ThreadPool};
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
            let bytes: Vec<usize> = p.channels().map(|c| c.storage_bytes()).collect();
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
    /// [`ShardPlan::sites`] order. [`ShardPlan::rebuild`] decodes them and
    /// the multi-process coordinator ships them, so every topology serves
    /// exactly these bytes.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= n_shards()` or the plan does not describe
    /// `model`'s sites exactly (site count and every site's shape).
    pub fn envelopes(&self, model: &Transformer, shard: usize) -> Vec<Vec<u8>> {
        assert!(shard < self.n_shards, "shard {shard} out of plan");
        let model_sites = model.n_layers() * WeightSite::ALL.len();
        assert_eq!(
            self.sites.len(),
            model_sites,
            "plan of {} sites for a model of {model_sites} sites",
            self.sites.len()
        );
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
    fn shard_params(&self, shard: usize) -> usize {
        assert!(shard < self.n_shards, "shard {shard} out of plan");
        self.sites
            .iter()
            .map(|sp| {
                let (start, end) = sp.range(shard);
                (end - start) * sp.cols
            })
            .sum()
    }

    /// `model` with every block weight site decoded from the envelopes
    /// this plan ships ([`ShardPlan::envelopes`] through [`shard_from_bytes`])
    /// and its slices' bodies appended, in shard order, into one
    /// [`PackedMatrix`]. A channel computes the same bits in whichever
    /// matrix holds it, so the result steps bit-identically to `model` at
    /// any shard and thread count. Embedding, head and thread pool are
    /// `model`'s.
    ///
    /// # Panics
    ///
    /// As [`ShardPlan::envelopes`].
    pub fn rebuild(&self, model: &Transformer) -> Transformer {
        // Per site: the rows appended so far and their body.
        let mut bodies = vec![(0, Vec::new()); self.sites.len()];
        for shard in 0..self.n_shards {
            for bytes in self.envelopes(model, shard) {
                let (header, slice) =
                    shard_from_bytes(&bytes).expect("self-produced shard bytes must decode");
                // Shards ascend, so a site's slices arrive in row order: each
                // starts where the last ended, and `PackedMatrix::from_body`
                // below checks that together they cover the site.
                let (rows, body) = &mut bodies[header.site_id as usize];
                assert_eq!(*rows, header.row_start as usize, "slices must tile in order");
                *rows += slice.rows();
                body.extend_from_slice(slice.body());
            }
        }
        let mut rebuilt = model.clone();
        for (sp, (_, body)) in self.sites.iter().zip(bodies) {
            *rebuilt.weight_mut(sp.layer, sp.site) =
                PackedMatrix::from_body(sp.rows, sp.cols, body).into();
        }
        rebuilt
    }

    /// Serving-memory plan for one worker shard of a model of architecture
    /// `config` on a device of `device_bytes`: measured weights are the
    /// shard's packed slices alone (embedding, head and the KV cache live
    /// on the orchestrator), while the KV shape matches the full model so
    /// the orchestrator's KV-headroom arithmetic can be evaluated against
    /// any worker's budget.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= n_shards()`.
    pub fn shard_memory(
        &self,
        shard: usize,
        config: &ModelConfig,
        device_bytes: f64,
    ) -> ServingMemory {
        ServingMemory {
            params: self.shard_params(shard) as f64,
            n_layers: config.n_layers,
            d_model: config.d_model,
            device_bytes,
            weight_bytes: self.shard_weight_bytes(shard) as f64,
        }
    }
}

/// A model rebuilt by [`ShardPlan::rebuild`], with exactly the three
/// methods the benchmark crate's (`bench/`) probes call; everything else
/// serves the rebuilt [`Transformer`] directly. It is deleted when the
/// benchmark is next revised.
#[derive(Debug)]
pub struct ShardedModel(Transformer);

impl ShardedModel {
    /// `ShardPlan::new(model, n_shards).rebuild(model)`.
    pub fn new(model: &Transformer, n_shards: usize) -> Self {
        Self(ShardPlan::new(model, n_shards).rebuild(model))
    }

    /// See [`Transformer::set_thread_pool`].
    pub fn set_thread_pool(&mut self, pool: Option<Arc<ThreadPool>>) {
        self.0.set_thread_pool(pool);
    }

    /// See [`Transformer::forward_step_batch_with`].
    pub fn forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Matrix {
        self.0.forward_step_batch_with(tokens, slots, cache, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::pack_all_sites;
    use fineq_tensor::Rng;

    fn packed_tiny(d_ff: usize, seed: u64) -> Transformer {
        packed(ModelConfig::new(16, 8, 2, 2, d_ff), seed)
    }

    fn packed(cfg: ModelConfig, seed: u64) -> Transformer {
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
        let model = packed_tiny(16, 1);
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

    /// `rebuild` returns the source model rebuilt site by site from the
    /// plan's envelopes, including sites where some shards own no rows
    /// (`d_ff = 1`: a one-channel FFN-up site). A slice dropped or placed
    /// out of order changes a site and fails here.
    #[test]
    fn rebuilt_model_equals_the_source_site_by_site() {
        let mut model = packed_tiny(1, 4);
        model.set_thread_pool(Some(Arc::new(ThreadPool::new(2))));
        for n_shards in [1usize, 2, 3, 5] {
            let plan = ShardPlan::new(&model, n_shards);
            let rebuilt = plan.rebuild(&model);
            let up = plan.site(0, WeightSite::FfnUp);
            assert_eq!(up.rows, 1);
            if n_shards > 1 {
                assert_eq!(up.range(n_shards - 1), (1, 1), "the last shard owns no FFN-up row");
            }
            for l in 0..model.n_layers() {
                for site in WeightSite::ALL {
                    assert_eq!(
                        rebuilt.weight(l, site),
                        model.weight(l, site),
                        "{n_shards} shards, layer {l} {site:?}"
                    );
                }
            }
            assert_eq!(rebuilt, model);
            assert_eq!(plan.rebuild(&model), rebuilt, "same plan, same model, same decoded sites");
            let (inherited, source) = (rebuilt.thread_pool(), model.thread_pool());
            assert!(Arc::ptr_eq(inherited.expect("pool"), source.expect("pool")));
        }
    }

    #[test]
    fn shard_memory_measures_the_shard_alone() {
        let model = packed_tiny(16, 3);
        let plan = ShardPlan::new(&model, 2);
        let m0 = plan.shard_memory(0, model.config(), 1e6);
        let m1 = plan.shard_memory(1, model.config(), 1e6);
        assert_eq!(
            m0.weight_bytes + m1.weight_bytes,
            model.body_weight_bytes() as f64,
            "the shards hold exactly the packed body, nothing twice"
        );
        assert!(m0.params > 0.0 && m1.params > 0.0);
    }

    /// A plan of a 2-layer model covers 12 sites; a 3-layer model of the
    /// same widths has 18, and its third layer would never be shipped.
    #[test]
    #[should_panic(expected = "plan of 12 sites for a model of 18 sites")]
    fn rebuild_rejects_a_plan_of_fewer_layers() {
        let shallow = packed(ModelConfig::new(16, 8, 2, 2, 16), 5);
        let deep = packed(ModelConfig::new(16, 8, 3, 2, 16), 5);
        let _ = ShardPlan::new(&shallow, 2).rebuild(&deep);
    }

    #[test]
    #[should_panic(expected = "plan shape mismatch at layer 0")]
    fn rebuild_rejects_a_plan_of_another_width() {
        let narrow = packed(ModelConfig::new(16, 8, 2, 2, 16), 6);
        let wide = packed(ModelConfig::new(16, 12, 2, 2, 16), 6);
        let _ = ShardPlan::new(&narrow, 2).rebuild(&wide);
    }

    #[test]
    #[should_panic(expected = "fully packed")]
    fn planning_a_dense_model_is_rejected() {
        let cfg = ModelConfig::new(16, 8, 1, 2, 16);
        let model = Transformer::zeros(cfg);
        let _ = ShardPlan::new(&model, 2);
    }
}
