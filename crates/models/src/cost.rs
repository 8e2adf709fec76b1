//! Roofline latency model.
//!
//! Every engine in `aqua-engines` asks this module "how long does one
//! iteration take?". The answers come from the classic roofline argument:
//!
//! * **LLM decode** is *memory-bound* at serving batch sizes: each step must
//!   sweep the weights plus the live KV cache through the HBM, so
//!   `t = max((weights + kv) / hbm_bw, 2·params·batch / flops) + overhead`.
//!   This single formula produces Figure 2c (throughput climbs with batch
//!   while memory time is amortised, and the KV cache eats the HBM).
//! * **LLM prefill** is *compute-bound*: `t = 2·params·tokens / flops`.
//! * **Diffusion and audio generation** are *compute-bound* with a per-step
//!   launch overhead, producing the Figure 2a/2b throughput plateau with
//!   tens of GB of HBM left free.

use crate::geometry::{AudioGeometry, DiffusionGeometry, LlmGeometry};
use aqua_sim::gpu::GpuSpec;
use aqua_sim::time::SimDuration;

/// Fixed per-iteration overhead of an LLM serving engine (scheduling,
/// sampling, kernel launches).
const LLM_ITER_OVERHEAD: SimDuration = SimDuration::from_millis(3);

/// Fixed per-denoising-step overhead of a diffusion pipeline.
const DIFFUSION_STEP_OVERHEAD: SimDuration = SimDuration::from_millis(10);

/// Fixed per-token overhead of an autoregressive audio pipeline.
const AUDIO_TOKEN_OVERHEAD: SimDuration = SimDuration::from_millis(1);

/// Framework baseline HBM consumption besides weights (CUDA context,
/// cuBLAS workspaces, allocator fragmentation).
const FRAMEWORK_BASE_BYTES: u64 = 4 * 1024 * 1024 * 1024;

/// Time for one LLM prefill pass over `new_tokens` prompt tokens
/// (compute-bound, but never faster than one weight sweep).
pub fn llm_prefill_time(geom: &LlmGeometry, gpu: &GpuSpec, new_tokens: u64) -> SimDuration {
    if new_tokens == 0 {
        return SimDuration::ZERO;
    }
    let compute = geom.forward_flops(new_tokens) / gpu.effective_flops();
    let weight_sweep = geom.weights_bytes() as f64 / gpu.hbm_bandwidth;
    LLM_ITER_OVERHEAD + SimDuration::from_secs_f64(compute.max(weight_sweep))
}

/// Time for one LLM decode step that generates one token for each of `batch`
/// sequences whose context lengths sum to `total_context_tokens`.
pub fn llm_decode_step_time(
    geom: &LlmGeometry,
    gpu: &GpuSpec,
    batch: u64,
    total_context_tokens: u64,
) -> SimDuration {
    if batch == 0 {
        return SimDuration::ZERO;
    }
    let compute = llm_decode_compute_secs(geom, gpu, batch);
    llm_decode_step_time_from(geom, gpu, compute, total_context_tokens)
}

/// The compute term of [`llm_decode_step_time`]: seconds of arithmetic
/// for one decode step of `batch` sequences. It depends on the batch size
/// only, so a caller stepping the same model may compute it once per size.
pub fn llm_decode_compute_secs(geom: &LlmGeometry, gpu: &GpuSpec, batch: u64) -> f64 {
    geom.forward_flops(batch) / gpu.effective_flops()
}

/// [`llm_decode_step_time`] of a non-empty batch whose compute term is
/// `compute_secs` (from [`llm_decode_compute_secs`]): the step is bound by
/// the slower of that and sweeping the weights plus the live context.
pub fn llm_decode_step_time_from(
    geom: &LlmGeometry,
    gpu: &GpuSpec,
    compute_secs: f64,
    total_context_tokens: u64,
) -> SimDuration {
    let bytes_swept = geom.weights_bytes() + geom.kv_bytes(total_context_tokens);
    let mem = bytes_swept as f64 / gpu.hbm_bandwidth;
    LLM_ITER_OVERHEAD + SimDuration::from_secs_f64(mem.max(compute_secs))
}

/// Decode throughput (tokens/s) at a steady batch size and total live
/// context — the quantity swept in Figure 2c.
pub fn llm_decode_throughput(
    geom: &LlmGeometry,
    gpu: &GpuSpec,
    batch: u64,
    total_context_tokens: u64,
) -> f64 {
    if batch == 0 {
        return 0.0;
    }
    batch as f64 / llm_decode_step_time(geom, gpu, batch, total_context_tokens).as_secs_f64()
}

/// HBM consumed by an LLM beyond its KV cache: weights, framework baseline
/// and activation workspace for `max_batch_tokens` simultaneous tokens.
pub fn llm_static_bytes(geom: &LlmGeometry, max_batch_tokens: u64) -> u64 {
    let activations = geom.hidden * max_batch_tokens * crate::geometry::FP16_BYTES * 8;
    geom.weights_bytes() + FRAMEWORK_BASE_BYTES + activations
}

/// Time to fully denoise a batch of `batch` images.
pub fn diffusion_batch_time(geom: &DiffusionGeometry, gpu: &GpuSpec, batch: u64) -> SimDuration {
    if batch == 0 {
        return SimDuration::ZERO;
    }
    let per_step = geom.flops_per_step_per_image * batch as f64 / gpu.effective_flops();
    let step = DIFFUSION_STEP_OVERHEAD + SimDuration::from_secs_f64(per_step);
    SimDuration::from_nanos(step.as_nanos() * geom.steps)
}

/// Steady-state image throughput (images/s) at a batch size — Figure 2b.
pub fn diffusion_throughput(geom: &DiffusionGeometry, gpu: &GpuSpec, batch: u64) -> f64 {
    if batch == 0 {
        return 0.0;
    }
    batch as f64 / diffusion_batch_time(geom, gpu, batch).as_secs_f64()
}

/// HBM consumed by a diffusion pipeline running a batch of `batch` images.
pub fn diffusion_used_bytes(geom: &DiffusionGeometry, batch: u64) -> u64 {
    geom.weights_bytes() + FRAMEWORK_BASE_BYTES + geom.activation_bytes_per_image * batch
}

/// Time to generate a batch of `batch` audio clips.
pub fn audio_batch_time(geom: &AudioGeometry, gpu: &GpuSpec, batch: u64) -> SimDuration {
    if batch == 0 {
        return SimDuration::ZERO;
    }
    let weight_sweep = geom.weights_bytes() as f64 / gpu.hbm_bandwidth;
    let compute = geom.flops_per_token_per_item * batch as f64 / gpu.effective_flops();
    let per_token = AUDIO_TOKEN_OVERHEAD + SimDuration::from_secs_f64(weight_sweep.max(compute));
    SimDuration::from_nanos(per_token.as_nanos() * geom.tokens_per_clip())
}

/// Steady-state audio throughput (clips/s) at a batch size — Figure 2a.
pub fn audio_throughput(geom: &AudioGeometry, gpu: &GpuSpec, batch: u64) -> f64 {
    if batch == 0 {
        return 0.0;
    }
    batch as f64 / audio_batch_time(geom, gpu, batch).as_secs_f64()
}

/// HBM consumed by an audio pipeline running a batch of `batch` clips.
pub fn audio_used_bytes(geom: &AudioGeometry, batch: u64) -> u64 {
    geom.weights_bytes() + FRAMEWORK_BASE_BYTES + geom.activation_bytes_per_item * batch
}

/// Fraction of the maximum achievable throughput that counts as "on the
/// plateau" when picking an operating batch size.
const PLATEAU_THRESHOLD: f64 = 0.95;

/// The operating batch size on the throughput plateau, its throughput, and
/// the free bytes at that batch — the point marked in Figure 2.
///
/// The paper observes that "increasing the batch-size beyond a point results
/// in diminishing increase in throughput. So, a smaller batch size anywhere
/// on the plateau will lead to a higher free memory." Accordingly this picks
/// the *smallest* batch achieving at least `PLATEAU_THRESHOLD` of the best
/// memory-feasible throughput, rather than the largest feasible batch.
pub fn peak_batch_under_memory<F, M>(
    capacity: u64,
    max_batch: u64,
    throughput_at: F,
    used_at: M,
) -> (u64, f64, u64)
where
    F: Fn(u64) -> f64,
    M: Fn(u64) -> u64,
{
    let mut best_tput = 0.0f64;
    let mut feasible_max = 0u64;
    for b in 1..=max_batch {
        if used_at(b) > capacity {
            break;
        }
        feasible_max = b;
        best_tput = best_tput.max(throughput_at(b));
    }
    for b in 1..=feasible_max {
        let tput = throughput_at(b);
        if tput >= PLATEAU_THRESHOLD * best_tput {
            return (b, tput, capacity - used_at(b));
        }
    }
    (0, 0.0, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use aqua_sim::gpu::GpuSpec;
    use aqua_sim::link::bytes::gib;

    fn a100() -> GpuSpec {
        GpuSpec::a100_80g()
    }

    #[test]
    fn decode_is_memory_bound_at_serving_batches() {
        let m = zoo::llama2_13b();
        let g = m.llm_geometry().unwrap();
        let gpu = a100();
        // batch 1: dominated by the 26 GB weight sweep (~13 ms) + overhead.
        let t1 = llm_decode_step_time(g, &gpu, 1, 512);
        assert!((0.013..0.025).contains(&t1.as_secs_f64()), "t1 = {t1}");
        // Throughput grows with batch while memory time is amortised.
        let tput8 = llm_decode_throughput(g, &gpu, 8, 8 * 512);
        let tput64 = llm_decode_throughput(g, &gpu, 64, 64 * 512);
        assert!(tput64 > 4.0 * tput8 / 2.0);
        assert!(tput64 > tput8);
    }

    #[test]
    fn single_stream_decode_rate_is_realistic() {
        // A100 single-stream decode for a 13B model is commonly ~40-70 tok/s.
        let m = zoo::llama2_13b();
        let g = m.llm_geometry().unwrap();
        let rate = llm_decode_throughput(g, &a100(), 1, 256);
        assert!((30.0..90.0).contains(&rate), "rate = {rate:.1} tok/s");
    }

    #[test]
    fn prefill_is_compute_bound_for_long_prompts() {
        let m = zoo::opt_30b();
        let g = m.llm_geometry().unwrap();
        let t = llm_prefill_time(g, &a100(), 8_000);
        // 2 * 30e9 * 8000 / 156e12 ≈ 3.1 s.
        assert!((2.0..5.0).contains(&t.as_secs_f64()), "t = {t}");
        assert_eq!(llm_prefill_time(g, &a100(), 0), SimDuration::ZERO);
    }

    #[test]
    fn diffusion_throughput_plateaus() {
        let m = zoo::stable_diffusion();
        let g = m.diffusion_geometry().unwrap();
        let gpu = a100();
        let t1 = diffusion_throughput(g, &gpu, 1);
        let t8 = diffusion_throughput(g, &gpu, 8);
        let t16 = diffusion_throughput(g, &gpu, 16);
        let t32 = diffusion_throughput(g, &gpu, 32);
        assert!(t8 > t1, "batching should help at small batches");
        // Diminishing returns: the 16 -> 32 gain is much smaller than 1 -> 8.
        let early_gain = t8 / t1;
        let late_gain = t32 / t16;
        assert!(late_gain < 1.10, "late gain {late_gain:.3}");
        assert!(early_gain > 1.2, "early gain {early_gain:.3}");
    }

    #[test]
    fn compute_bound_models_leave_tens_of_gb_free() {
        // Figure 2a/2b: at the throughput plateau the GPU has 10s of GB free.
        let gpu = a100();
        for m in [
            zoo::stable_diffusion(),
            zoo::stable_diffusion_xl(),
            zoo::kandinsky(),
        ] {
            let g = *m.diffusion_geometry().unwrap();
            let (batch, _tput, free) = peak_batch_under_memory(
                gpu.hbm_bytes,
                64,
                |b| diffusion_throughput(&g, &gpu, b),
                |b| diffusion_used_bytes(&g, b),
            );
            assert!(batch >= 2, "{}: peak batch {batch}", m.name);
            assert!(free > gib(20), "{}: only {} free at plateau", m.name, free);
        }
        for m in [zoo::musicgen(), zoo::audiogen()] {
            let g = *m.audio_geometry().unwrap();
            let (_, _, free) = peak_batch_under_memory(
                gpu.hbm_bytes,
                64,
                |b| audio_throughput(&g, &gpu, b),
                |b| audio_used_bytes(&g, b),
            );
            assert!(free > gib(20), "{}: only {} free at plateau", m.name, free);
        }
    }

    #[test]
    fn llm_exhausts_memory_at_peak_throughput() {
        // Figure 2c: free memory is nearly 0 when LLM throughput peaks.
        let m = zoo::llama2_13b();
        let g = *m.llm_geometry().unwrap();
        let gpu = a100();
        let avg_ctx = 1024u64;
        let (batch, _tput, free) = peak_batch_under_memory(
            gpu.hbm_bytes,
            512,
            |b| llm_decode_throughput(&g, &gpu, b, b * avg_ctx),
            |b| llm_static_bytes(&g, b) + g.kv_bytes(b * avg_ctx),
        );
        assert!(batch >= 32, "peak batch {batch}");
        // "Nearly 0" on an 80 GiB device: under 10% of capacity left.
        assert!(
            free < gib(8),
            "LLM should exhaust HBM at peak, {free} bytes free"
        );
    }

    #[test]
    fn audio_plateau_shape() {
        let m = zoo::audiogen();
        let g = m.audio_geometry().unwrap();
        let gpu = a100();
        let t1 = audio_throughput(g, &gpu, 1);
        let t16 = audio_throughput(g, &gpu, 16);
        let t32 = audio_throughput(g, &gpu, 32);
        assert!(t16 > 2.0 * t1);
        assert!(t32 / t16 < 1.15, "plateau: {t16:.2} -> {t32:.2}");
    }

    #[test]
    fn zero_batch_is_zero_cost() {
        let m = zoo::mistral_7b();
        let g = m.llm_geometry().unwrap();
        let gpu = a100();
        assert_eq!(llm_decode_step_time(g, &gpu, 0, 0), SimDuration::ZERO);
        assert_eq!(llm_decode_throughput(g, &gpu, 0, 0), 0.0);
        let d = zoo::stable_diffusion();
        assert_eq!(
            diffusion_batch_time(d.diffusion_geometry().unwrap(), &gpu, 0),
            SimDuration::ZERO
        );
        let a = zoo::audiogen();
        assert_eq!(audio_throughput(a.audio_geometry().unwrap(), &gpu, 0), 0.0);
    }
}
