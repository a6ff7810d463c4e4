//! Model configurations and simulation presets.
//!
//! Two kinds of shapes exist in the reproduction:
//!
//! * [`SimPreset`] — scaled-down transformers ("sim-3B/7B/13B") that stand
//!   in for the LLaMA-2 family in the *accuracy* experiments (Tables I/II,
//!   Fig. 1). Relative capacity ordering is preserved (13B > 7B > 3B).
//! * [`SimPreset::hw_gemm_shapes`] — the *real* LLaMA-family layer
//!   dimensions, used as GEMM workloads by the accelerator experiments
//!   (Fig. 9), where only shapes matter and no forward pass is run.

/// Architecture of a decoder-only transformer: its sizes. Every block
/// has the paper's Fig. 2a shape — a ReLU FFN — and attention head `h`
/// carries the ALiBi slope [`ModelConfig::alibi_slope`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Residual stream width.
    pub d_model: usize,
    /// Number of transformer blocks.
    pub n_layers: usize,
    /// Attention heads per block (`d_model % n_heads == 0`).
    pub n_heads: usize,
    /// FFN hidden width.
    pub d_ff: usize,
}

impl ModelConfig {
    /// A config of the given sizes.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads` or any size is 0.
    pub fn new(vocab: usize, d_model: usize, n_layers: usize, n_heads: usize, d_ff: usize) -> Self {
        assert!(vocab > 0 && d_model > 0 && n_layers > 0 && n_heads > 0 && d_ff > 0);
        assert_eq!(d_model % n_heads, 0, "d_model must be divisible by n_heads");
        Self { vocab, d_model, n_layers, n_heads, d_ff }
    }

    /// ALiBi slope of attention head `head`. Head 0 has slope 0: uniform
    /// attention over the whole prefix (the "topic" head of the
    /// constructed model). The remaining heads localize geometrically,
    /// the standard ALiBi recipe: `0.5^(head - 1)`, exact in `f32`.
    pub fn alibi_slope(head: usize) -> f32 {
        if head == 0 {
            0.0
        } else {
            0.5_f32.powi(head as i32 - 1)
        }
    }

    /// Head dimension.
    pub fn d_head(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Total parameter count (embedding + blocks + head).
    pub fn param_count(&self) -> usize {
        let block = 4 * self.d_model * self.d_model + 2 * self.d_model * self.d_ff;
        2 * self.vocab * self.d_model + self.n_layers * block
    }
}

/// Scaled-down stand-ins for the LLaMA-2 family evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimPreset {
    /// Stand-in for LLaMA-2-3B.
    Sim3B,
    /// Stand-in for LLaMA-2-7B.
    Sim7B,
    /// Stand-in for LLaMA-2-13B.
    Sim13B,
}

impl SimPreset {
    /// All presets in Table I order.
    pub const ALL: [SimPreset; 3] = [SimPreset::Sim3B, SimPreset::Sim7B, SimPreset::Sim13B];

    /// Display name used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            SimPreset::Sim3B => "LLaMA-2-3B(sim)",
            SimPreset::Sim7B => "LLaMA-2-7B(sim)",
            SimPreset::Sim13B => "LLaMA-2-13B(sim)",
        }
    }

    /// The scaled-down architecture. Capacity grows with the model the
    /// preset stands in for, preserving the paper's fp16 ordering
    /// (13B < 7B < 3B perplexity).
    pub fn model_config(self) -> ModelConfig {
        match self {
            SimPreset::Sim3B => ModelConfig::new(256, 96, 2, 4, 256),
            SimPreset::Sim7B => ModelConfig::new(256, 128, 2, 4, 384),
            SimPreset::Sim13B => ModelConfig::new(256, 160, 3, 4, 448),
        }
    }

    /// Real layer GEMM dimensions of the corresponding LLaMA-family model:
    /// `(d_model, d_ff, n_layers)`. Used to build accelerator workloads.
    /// (3B follows OpenLLaMA-3B; 7B/13B are LLaMA-2.)
    pub fn hw_gemm_shapes(self) -> (usize, usize, usize) {
        match self {
            SimPreset::Sim3B => (3200, 8640, 26),
            SimPreset::Sim7B => (4096, 11008, 32),
            SimPreset::Sim13B => (5120, 13824, 40),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_zero_is_global_rest_local() {
        assert_eq!(ModelConfig::alibi_slope(0), 0.0);
        assert!(ModelConfig::alibi_slope(1) > ModelConfig::alibi_slope(2));
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_heads_are_rejected() {
        let _ = ModelConfig::new(64, 30, 1, 4, 64);
    }

    #[test]
    fn d_head_divides_evenly() {
        let c = ModelConfig::new(64, 32, 1, 4, 64);
        assert_eq!(c.d_head(), 8);
    }

    #[test]
    fn param_count_counts_all_weights() {
        let c = ModelConfig::new(10, 4, 2, 2, 8);
        // embedding 40 + head 40 + 2 * (4*16 + 2*32) = 80 + 2*128 = 336.
        assert_eq!(c.param_count(), 336);
    }

    #[test]
    fn presets_grow_in_capacity() {
        let p3 = SimPreset::Sim3B.model_config().param_count();
        let p7 = SimPreset::Sim7B.model_config().param_count();
        let p13 = SimPreset::Sim13B.model_config().param_count();
        assert!(p3 < p7 && p7 < p13);
    }

    #[test]
    fn hw_shapes_match_llama_family() {
        assert_eq!(SimPreset::Sim7B.hw_gemm_shapes(), (4096, 11008, 32));
        assert_eq!(SimPreset::Sim13B.hw_gemm_shapes(), (5120, 13824, 40));
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            SimPreset::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 3);
    }
}
