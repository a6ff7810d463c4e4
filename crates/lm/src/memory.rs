//! Serving-memory layout model (paper Fig. 2b), with **measured** weight
//! footprints.
//!
//! The paper motivates weight quantization with the memory breakdown of
//! serving LLaMA-2-13B on a 40 GB NVIDIA A100: ~65 % model weights, ~30 %
//! KV cache, ~5 % other (activations, workspace). This module reproduces
//! that arithmetic — and, for models this repository actually holds, takes
//! the weight bytes from the model's real buffers
//! ([`Transformer::weight_footprint_bytes`]) instead of an analytic
//! bits-per-weight figure, so a packed model's memory plan reflects the
//! 7-bytes-per-24-weights blocks it truly stores.

use crate::generate::BatchKvCache;
use crate::model::Transformer;

/// Bytes in one (decimal) gigabyte, the unit GPU marketing capacities use
/// (an "A100 40GB" exposes 40e9 bytes).
pub const GB: f64 = 1e9;

/// How the weight bytes of a deployment are determined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightStore {
    /// Analytic: `params * bits / 8`. Used for paper-scale what-if plans
    /// (LLaMA-2-13B does not fit in this repository).
    AnalyticBits(f64),
    /// Measured: bytes counted from a real [`Transformer`]'s buffers —
    /// packed blocks + fp16 scales for packed sites, fp32 elsewhere.
    MeasuredBytes(f64),
}

/// Analytic memory model of an LLM serving deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingMemory {
    /// Total parameters.
    pub params: f64,
    /// Transformer layers.
    pub n_layers: usize,
    /// Model width.
    pub d_model: usize,
    /// Device memory in bytes.
    pub device_bytes: f64,
    /// Weight storage accounting.
    pub weights: WeightStore,
    /// Bytes per KV-cache element (2 for fp16).
    pub kv_bytes_per_elem: f64,
}

impl ServingMemory {
    /// LLaMA-2-13B served in fp16 on a 40 GB A100 — the paper's Fig. 2b
    /// configuration.
    pub fn llama2_13b_a100() -> Self {
        Self {
            params: 13.0e9,
            n_layers: 40,
            d_model: 5120,
            device_bytes: 40.0 * GB,
            weights: WeightStore::AnalyticBits(16.0),
            kv_bytes_per_elem: 2.0,
        }
    }

    /// A deployment whose weight bytes are **measured from the model's
    /// actual buffers**: a FineQ-packed transformer contributes its real
    /// 7-byte blocks (plus fp16 scales), dense sites their fp32 bytes.
    pub fn from_model(model: &Transformer, device_bytes: f64) -> Self {
        let cfg = model.config();
        Self {
            params: model.param_count() as f64,
            n_layers: cfg.n_layers,
            d_model: cfg.d_model,
            device_bytes,
            weights: WeightStore::MeasuredBytes(model.weight_footprint_bytes() as f64),
            kv_bytes_per_elem: 2.0,
        }
    }

    /// Same deployment with weights stored at an analytic bit-width
    /// (16 for fp16; 2.33 for FineQ's nominal figure).
    pub fn with_weight_bits(mut self, bits: f64) -> Self {
        self.weights = WeightStore::AnalyticBits(bits);
        self
    }

    /// Effective stored bits per weight (derived for measured stores).
    pub fn weight_bits(&self) -> f64 {
        match self.weights {
            WeightStore::AnalyticBits(bits) => bits,
            WeightStore::MeasuredBytes(bytes) => 8.0 * bytes / self.params.max(1.0),
        }
    }

    /// Bytes used by the model weights.
    pub fn weight_bytes(&self) -> f64 {
        match self.weights {
            WeightStore::AnalyticBits(bits) => self.params * bits / 8.0,
            WeightStore::MeasuredBytes(bytes) => bytes,
        }
    }

    /// Bytes used by the KV cache for `concurrent_tokens` total cached
    /// tokens (sum over all sequences in flight): K and V per layer.
    pub fn kv_cache_bytes(&self, concurrent_tokens: f64) -> f64 {
        2.0 * self.n_layers as f64
            * self.d_model as f64
            * concurrent_tokens
            * self.kv_bytes_per_elem
    }

    /// **Physical** bytes a batched serving cache occupies under this
    /// plan's KV accounting: [`ServingMemory::kv_cache_bytes`] evaluated
    /// at the allocated page count times the page granule. This is what
    /// the device actually spends — partial tail pages are charged in
    /// full, pages shared copy-on-write across sequences are charged
    /// once. Equals the cache's own
    /// [`BatchKvCache::allocated_fp16_bytes`] when `kv_bytes_per_elem`
    /// is 2 (asserted by tests).
    ///
    /// # Panics
    ///
    /// Panics if the cache was shaped for a different model.
    pub fn kv_cache_bytes_for(&self, cache: &BatchKvCache) -> f64 {
        assert_eq!(cache.n_layers(), self.n_layers, "cache layer count mismatch");
        assert_eq!(cache.d_model(), self.d_model, "cache width mismatch");
        self.kv_cache_bytes((cache.allocated_pages() * cache.page_tokens()) as f64)
    }

    /// **Logical** bytes a batched serving cache holds: the per-copy sum
    /// over slots of their cached tokens, ignoring page rounding and
    /// sharing — each sequence charged as if it owned its whole history.
    /// Equals the cache's own [`BatchKvCache::fp16_bytes`] when
    /// `kv_bytes_per_elem` is 2. The gap to
    /// [`ServingMemory::kv_cache_bytes_for`] is what prefix sharing
    /// saves (minus page-rounding waste).
    ///
    /// # Panics
    ///
    /// Panics if the cache was shaped for a different model.
    pub fn kv_cache_bytes_used(&self, cache: &BatchKvCache) -> f64 {
        assert_eq!(cache.n_layers(), self.n_layers, "cache layer count mismatch");
        assert_eq!(cache.d_model(), self.d_model, "cache width mismatch");
        self.kv_cache_bytes(cache.total_tokens() as f64)
    }

    /// Bytes of one KV page of `page_tokens` tokens under this plan.
    pub fn page_bytes(&self, page_tokens: usize) -> f64 {
        self.kv_cache_bytes(page_tokens as f64)
    }

    /// How many sequences of `seq_len` cached tokens fit simultaneously
    /// after weights and `other_frac` of the device are reserved — the
    /// batch-size ceiling of a [`crate::serving::BatchScheduler`]
    /// deployment.
    pub fn max_concurrent_sequences(&self, seq_len: usize, other_frac: f64) -> f64 {
        self.max_concurrent_tokens(other_frac) / seq_len.max(1) as f64
    }

    /// How many cached tokens fit after weights and `other_frac` of the
    /// device are reserved.
    pub fn max_concurrent_tokens(&self, other_frac: f64) -> f64 {
        let free = self.device_bytes * (1.0 - other_frac) - self.weight_bytes();
        (free / (2.0 * self.n_layers as f64 * self.d_model as f64 * self.kv_bytes_per_elem))
            .max(0.0)
    }

    /// How many whole KV pages of `page_tokens` tokens fit after weights
    /// and `other_frac` of the device are reserved — the integer pool cap
    /// to hand [`crate::serving::Scheduler::set_page_budget`]. Unlike the
    /// fractional [`ServingMemory::max_concurrent_tokens`], this is the
    /// exact granule admission allocates at, so the plan and the
    /// scheduler cannot drift.
    pub fn max_pages(&self, other_frac: f64, page_tokens: usize) -> usize {
        assert!(page_tokens > 0, "page granule must be positive");
        (self.max_concurrent_tokens(other_frac) / page_tokens as f64).floor() as usize
    }

    /// How many sequences of `seq_len` cached tokens fit simultaneously
    /// when each is charged whole pages of `page_tokens` — the integer,
    /// page-rounded counterpart of
    /// [`ServingMemory::max_concurrent_sequences`] (without prefix
    /// sharing, which only raises the count).
    pub fn max_concurrent_sequences_paged(
        &self,
        seq_len: usize,
        other_frac: f64,
        page_tokens: usize,
    ) -> usize {
        let pages_per_seq = seq_len.max(1).div_ceil(page_tokens);
        self.max_pages(other_frac, page_tokens) / pages_per_seq
    }

    /// The Fig. 2b layout: fractions of device memory used by weights, KV
    /// cache and "others" when the device is filled (others fixed at 5 %).
    pub fn layout(&self) -> MemoryLayout {
        let other_frac = 0.05;
        let weights = self.weight_bytes() / self.device_bytes;
        let kv = (1.0 - other_frac - weights).max(0.0);
        MemoryLayout { weights_frac: weights, kv_frac: kv, other_frac }
    }
}

/// Device-memory fractions (sums to 1 when the device is full).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryLayout {
    /// Fraction used by model weights.
    pub weights_frac: f64,
    /// Fraction available to the KV cache.
    pub kv_frac: f64,
    /// Fraction reserved for activations and workspace.
    pub other_frac: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_fitted_model, BuilderSpec};
    use crate::corpus::Corpus;

    #[test]
    fn fp16_weights_are_26_gb() {
        let m = ServingMemory::llama2_13b_a100();
        assert!((m.weight_bytes() / 1e9 - 26.0).abs() < 0.5);
    }

    #[test]
    fn fig2b_layout_is_65_30_5() {
        let m = ServingMemory::llama2_13b_a100();
        let l = m.layout();
        assert!((l.weights_frac - 0.65).abs() < 0.05, "weights {:.3}", l.weights_frac);
        assert!((l.kv_frac - 0.30).abs() < 0.05, "kv {:.3}", l.kv_frac);
        assert!((l.other_frac - 0.05).abs() < 1e-12);
        assert!((l.weights_frac + l.kv_frac + l.other_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fineq_bits_shrink_weights_by_almost_7x() {
        let fp16 = ServingMemory::llama2_13b_a100();
        let fineq = fp16.clone().with_weight_bits(7.0 / 3.0);
        let ratio = fp16.weight_bytes() / fineq.weight_bytes();
        assert!((ratio - 48.0 / 7.0).abs() < 1e-6);
    }

    #[test]
    fn quantization_frees_kv_capacity() {
        let fp16 = ServingMemory::llama2_13b_a100();
        let fineq = fp16.clone().with_weight_bits(7.0 / 3.0);
        assert!(fineq.max_concurrent_tokens(0.05) > 2.0 * fp16.max_concurrent_tokens(0.05));
    }

    #[test]
    fn kv_cache_scales_linearly_with_tokens() {
        let m = ServingMemory::llama2_13b_a100();
        let one = m.kv_cache_bytes(1.0);
        assert_eq!(m.kv_cache_bytes(1000.0), 1000.0 * one);
        // Per-token KV: 2 * 40 * 5120 * 2 bytes = 819200.
        assert!((one - 819_200.0).abs() < 1.0);
    }

    #[test]
    fn oversized_model_reports_zero_kv_capacity() {
        let mut m = ServingMemory::llama2_13b_a100();
        m.params = 100.0e9; // does not fit in 40 GB
        m.weights = WeightStore::AnalyticBits(16.0);
        assert_eq!(m.max_concurrent_tokens(0.05), 0.0);
    }

    #[test]
    fn measured_bytes_come_from_the_real_model() {
        let corpus = Corpus::wiki_like(64, 40);
        let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 2_000, 6);
        let m = ServingMemory::from_model(&model, 1.0 * GB);
        assert_eq!(m.weight_bytes(), model.weight_footprint_bytes() as f64);
        // Dense fp32 model: 32 effective bits per weight.
        assert!((m.weight_bits() - 32.0).abs() < 1e-9);
        assert_eq!(m.params, model.param_count() as f64);
    }

    #[test]
    fn kv_cache_fp16_bytes_matches_serving_accounting() {
        // Regression: KvCache::fp16_bytes must count K+V for *every* layer
        // per position — the same `2 * n_layers * d_model * tokens * 2`
        // ServingMemory::kv_cache_bytes charges.
        let corpus = Corpus::wiki_like(64, 42);
        let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 2_000, 6);
        let plan = ServingMemory::from_model(&model, 1.0 * GB);
        let mut cache = crate::generate::KvCache::new(model.n_layers(), model.config().d_model);
        for &t in &[1usize, 2, 3, 4, 5] {
            let _ = model.forward_step(t, &mut cache);
            assert_eq!(
                cache.fp16_bytes() as f64,
                plan.kv_cache_bytes(cache.len() as f64),
                "at {} cached tokens",
                cache.len()
            );
        }
    }

    #[test]
    fn batch_cache_accounting_matches_serving_plan() {
        let corpus = Corpus::wiki_like(64, 43);
        let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 2_000, 6);
        let plan = ServingMemory::from_model(&model, 1.0 * GB);
        let cfg = model.config();
        let mut cache = crate::generate::BatchKvCache::new(cfg.n_layers, cfg.d_model, 3);
        // Ragged per-slot lengths still sum correctly.
        let _ = model.forward_step_batch(&[1, 2, 3], &[0, 1, 2], &mut cache);
        let _ = model.forward_step_batch(&[4, 5], &[0, 2], &mut cache);
        let _ = model.forward_step_batch(&[6], &[0], &mut cache);
        assert_eq!(cache.total_tokens(), 6);
        // Logical (per-copy) and physical (allocated-page) accounting both
        // tie back to the cache's own byte counters.
        assert_eq!(cache.fp16_bytes() as f64, plan.kv_cache_bytes_used(&cache));
        assert_eq!(cache.allocated_fp16_bytes() as f64, plan.kv_cache_bytes_for(&cache));
        // Three ragged slots hold one partial page each.
        assert_eq!(plan.kv_cache_bytes_for(&cache), 3.0 * plan.page_bytes(cache.page_tokens()));
    }

    #[test]
    fn paged_capacity_variants_are_integer_and_conservative() {
        let m = ServingMemory::llama2_13b_a100();
        let pages = m.max_pages(0.05, 16);
        // Whole pages: never more tokens than the fractional capacity.
        assert!((pages * 16) as f64 <= m.max_concurrent_tokens(0.05));
        assert!((pages + 1) as f64 * 16.0 > m.max_concurrent_tokens(0.05));
        // Page-rounded sequences: 2048-token sequences cost exactly 128
        // pages of 16, so the paged and fractional counts agree here...
        assert_eq!(m.max_concurrent_sequences_paged(2048, 0.05, 16), pages / 128);
        // ...but a 2049-token sequence pays a whole extra page.
        assert_eq!(m.max_concurrent_sequences_paged(2049, 0.05, 16), pages / 129);
        assert!(
            (m.max_concurrent_sequences_paged(2049, 0.05, 16) as f64)
                <= m.max_concurrent_sequences(2049, 0.05)
        );
    }

    #[test]
    #[should_panic(expected = "page granule must be positive")]
    fn zero_page_granule_is_rejected() {
        let _ = ServingMemory::llama2_13b_a100().max_pages(0.05, 0);
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn kv_accounting_rejects_mismatched_cache() {
        let corpus = Corpus::wiki_like(64, 44);
        let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 2_000, 6);
        let plan = ServingMemory::from_model(&model, 1.0 * GB);
        let wrong =
            crate::generate::BatchKvCache::new(model.n_layers() + 1, model.config().d_model, 2);
        let _ = plan.kv_cache_bytes_for(&wrong);
    }

    #[test]
    fn sequence_capacity_divides_token_capacity() {
        let m = ServingMemory::llama2_13b_a100();
        let tokens = m.max_concurrent_tokens(0.05);
        assert!((m.max_concurrent_sequences(2048, 0.05) - tokens / 2048.0).abs() < 1e-9);
    }

    #[test]
    fn measured_packed_model_frees_more_kv_than_dense() {
        let corpus = Corpus::wiki_like(64, 41);
        let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 2_000, 6);
        let (packed, _) = crate::model::pack_all_sites(&model);
        let device = 2.0 * model.weight_footprint_bytes() as f64;
        let dense_plan = ServingMemory::from_model(&model, device);
        let packed_plan = ServingMemory::from_model(&packed, device);
        assert!(packed_plan.weight_bytes() < dense_plan.weight_bytes());
        assert!(packed_plan.max_concurrent_tokens(0.05) > dense_plan.max_concurrent_tokens(0.05));
    }
}
