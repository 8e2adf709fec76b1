//! Model geometry: the published architecture numbers every cost derives from.
//!
//! For a transformer LLM with `L` layers, `H_kv` key-value heads of dimension
//! `d`, fp16 weights and fp16 KV cache, the two numbers that drive the whole
//! paper are:
//!
//! * weight bytes = `2 × params`
//! * KV bytes per token = `2 (K and V) × L × H_kv × d × 2 (fp16)`
//!
//! Grouped-query attention (Mistral, Codellama) shrinks the KV cache by the
//! head-group factor, which is why those models fit more context per GiB.

/// Bytes per element for fp16/bf16 tensors.
pub const FP16_BYTES: u64 = 2;

/// Transformer decoder geometry for an LLM.
///
/// # Example
///
/// ```
/// use aqua_models::geometry::LlmGeometry;
/// let llama = LlmGeometry {
///     params: 13_000_000_000,
///     layers: 40,
///     hidden: 5120,
///     heads: 40,
///     kv_heads: 40,
///     head_dim: 128,
///     vocab: 32_000,
/// };
/// assert_eq!(llama.kv_bytes_per_token(), 819_200);
/// assert_eq!(llama.weights_bytes(), 26_000_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LlmGeometry {
    /// Total parameter count.
    pub params: u64,
    /// Number of transformer layers.
    pub layers: u64,
    /// Hidden (embedding) dimension.
    pub hidden: u64,
    /// Number of attention heads.
    pub heads: u64,
    /// Number of key-value heads (< `heads` with grouped-query attention).
    pub kv_heads: u64,
    /// Per-head dimension.
    pub head_dim: u64,
    /// Vocabulary size.
    pub vocab: u64,
}

impl LlmGeometry {
    /// Bytes of HBM pinned by the fp16 weights.
    pub fn weights_bytes(&self) -> u64 {
        self.params * FP16_BYTES
    }

    /// Bytes of KV cache appended per token of context (fp16 K and V across
    /// all layers).
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.layers * self.kv_heads * self.head_dim * FP16_BYTES
    }

    /// Bytes of KV cache for a sequence of `tokens` context tokens.
    pub fn kv_bytes(&self, tokens: u64) -> u64 {
        self.kv_bytes_per_token() * tokens
    }

    /// FLOPs of one full forward pass over `tokens` new tokens (the standard
    /// `2 × params` per token estimate; attention score terms are second
    /// order at the context lengths the paper uses).
    pub fn forward_flops(&self, tokens: u64) -> f64 {
        2.0 * self.params as f64 * tokens as f64
    }

    /// Bytes of one LoRA adapter of rank `r` applied to the attention
    /// projections of every layer: per layer, four target matrices each with
    /// an `A (hidden × r)` and `B (r × hidden)` factor, in fp16.
    #[cfg(test)]
    fn lora_adapter_bytes(&self, rank: u64) -> u64 {
        let per_matrix = 2 * self.hidden * rank * FP16_BYTES;
        self.layers * 4 * per_matrix
    }

    /// Number of distinct tensors a rank-`r` adapter ships (two factors per
    /// target matrix per layer) — the chunk count for a naive scattered copy.
    #[cfg(test)]
    fn lora_tensor_count(&self) -> u64 {
        self.layers * 4 * 2
    }
}

/// Latent-diffusion image generator geometry (UNet denoiser).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionGeometry {
    /// Total parameters across UNet, VAE and text encoders.
    pub params: u64,
    /// Denoising steps per image.
    pub steps: u64,
    /// FLOPs of one denoising step for one image.
    pub flops_per_step_per_image: f64,
    /// Activation bytes held per in-flight image (latents + UNet activations).
    pub activation_bytes_per_image: u64,
}

impl DiffusionGeometry {
    /// Bytes of HBM pinned by the fp16 weights.
    pub fn weights_bytes(&self) -> u64 {
        self.params * FP16_BYTES
    }
}

/// Autoregressive audio generator geometry (MusicGen/AudioGen style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AudioGeometry {
    /// Total parameters (language model plus compression model).
    pub params: u64,
    /// Audio tokens generated per second of output audio.
    pub tokens_per_audio_second: u64,
    /// Seconds of audio per request (the default prompt set generates
    /// fixed-length clips).
    pub clip_seconds: u64,
    /// FLOPs per generated audio token per item (includes the upsampling
    /// stack, which makes audio generation compute-heavy for its size).
    pub flops_per_token_per_item: f64,
    /// Activation bytes held per in-flight clip.
    pub activation_bytes_per_item: u64,
}

impl AudioGeometry {
    /// Bytes of HBM pinned by the fp16 weights.
    pub fn weights_bytes(&self) -> u64 {
        self.params * FP16_BYTES
    }

    /// Audio tokens generated for one clip.
    pub fn tokens_per_clip(&self) -> u64 {
        self.tokens_per_audio_second * self.clip_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mistral() -> LlmGeometry {
        LlmGeometry {
            params: 7_240_000_000,
            layers: 32,
            hidden: 4096,
            heads: 32,
            kv_heads: 8,
            head_dim: 128,
            vocab: 32_000,
        }
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        let m = mistral();
        // 2 * 32 layers * 8 kv heads * 128 dim * 2 bytes = 131072 B/token.
        assert_eq!(m.kv_bytes_per_token(), 131_072);
        let mha = LlmGeometry { kv_heads: 32, ..m };
        assert_eq!(mha.kv_bytes_per_token(), 4 * m.kv_bytes_per_token());
    }

    #[test]
    fn kv_bytes_scales_linearly() {
        let m = mistral();
        assert_eq!(m.kv_bytes(0), 0);
        assert_eq!(m.kv_bytes(1000), 1000 * m.kv_bytes_per_token());
    }

    #[test]
    fn forward_flops_twice_params_per_token() {
        let m = mistral();
        assert_eq!(m.forward_flops(1), 2.0 * 7_240_000_000.0);
        assert_eq!(m.forward_flops(100), 200.0 * 7_240_000_000.0);
    }

    #[test]
    fn lora_bytes_match_paper_scale() {
        // The paper's Mistral adapters are ~160 MB (Mteb) and ~320 MB
        // (Zephyr). A rank-64 adapter over Mistral's geometry lands in the
        // right ballpark; rank-128 doubles it.
        let m = mistral();
        let r64 = m.lora_adapter_bytes(64);
        let r128 = m.lora_adapter_bytes(128);
        assert!((100_000_000..250_000_000).contains(&r64), "rank-64: {r64}");
        assert_eq!(r128, 2 * r64);
        assert_eq!(m.lora_tensor_count(), 32 * 8);
    }

    #[test]
    fn diffusion_weights_are_fp16() {
        let d = DiffusionGeometry {
            params: 1_000_000_000,
            steps: 50,
            flops_per_step_per_image: 1e12,
            activation_bytes_per_image: 1 << 30,
        };
        assert_eq!(d.weights_bytes(), 2_000_000_000);
    }

    #[test]
    fn audio_tokens_per_clip() {
        let a = AudioGeometry {
            params: 1_500_000_000,
            tokens_per_audio_second: 50,
            clip_seconds: 10,
            flops_per_token_per_item: 1e10,
            activation_bytes_per_item: 1 << 28,
        };
        assert_eq!(a.tokens_per_clip(), 500);
    }
}
