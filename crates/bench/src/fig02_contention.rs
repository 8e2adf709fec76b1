//! Figure 2 — resource contention across modalities.
//!
//! Sweep the batch size for AudioGen (2a), StableDiffusion (2b) and
//! Llama-2-13B (2c), reporting throughput and free HBM: audio/vision
//! plateau with tens of GB free; the LLM's free memory collapses to ~0 at
//! its peak throughput.

use aqua_metrics::table::Table;
use aqua_models::cost;
use aqua_models::zoo;
use aqua_sim::gpu::GpuSpec;
use aqua_sim::link::GIB;

/// One swept point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Batch size.
    pub batch: u64,
    /// Throughput in items/s (clips, images) or tokens/s (LLM).
    pub throughput: f64,
    /// Free HBM in bytes at that batch.
    pub free_bytes: u64,
}

/// One model's sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Model name.
    pub model: String,
    /// Throughput unit label.
    pub unit: &'static str,
    /// The swept points (infeasible batches omitted).
    pub points: Vec<Point>,
}

/// Average live context per LLM sequence in the Figure 2c sweep.
const LLM_AVG_CONTEXT: u64 = 1024;

/// The batch sizes `aqua-repro` sweeps for Figure 2.
const PAPER_BATCHES: &[u64] = &[1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96];

/// The three modalities Figure 2 sweeps — each one independent sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Figure 2a: AudioGen.
    Audio,
    /// Figure 2b: StableDiffusion.
    Diffusion,
    /// Figure 2c: Llama-2-13B.
    Llm,
}

impl ModelKind {
    /// All three, in the paper's 2a/2b/2c order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Audio, ModelKind::Diffusion, ModelKind::Llm];
}

/// Runs one modality's sweep (one Figure 2 sub-plot).
fn run_model(kind: ModelKind, batches: &[u64]) -> Sweep {
    let gpu = GpuSpec::a100_80g();
    match kind {
        ModelKind::Audio => {
            let audio = zoo::audiogen();
            let ag = audio.audio_geometry().unwrap();
            Sweep {
                model: audio.name.clone(),
                unit: "clips/s",
                points: batches
                    .iter()
                    .filter_map(|&b| {
                        let used = cost::audio_used_bytes(ag, b);
                        (used <= gpu.hbm_bytes).then(|| Point {
                            batch: b,
                            throughput: cost::audio_throughput(ag, &gpu, b),
                            free_bytes: gpu.hbm_bytes - used,
                        })
                    })
                    .collect(),
            }
        }
        ModelKind::Diffusion => {
            let sd = zoo::stable_diffusion();
            let dg = sd.diffusion_geometry().unwrap();
            Sweep {
                model: sd.name.clone(),
                unit: "images/s",
                points: batches
                    .iter()
                    .filter_map(|&b| {
                        let used = cost::diffusion_used_bytes(dg, b);
                        (used <= gpu.hbm_bytes).then(|| Point {
                            batch: b,
                            throughput: cost::diffusion_throughput(dg, &gpu, b),
                            free_bytes: gpu.hbm_bytes - used,
                        })
                    })
                    .collect(),
            }
        }
        ModelKind::Llm => {
            let llama = zoo::llama2_13b();
            let lg = llama.llm_geometry().unwrap();
            Sweep {
                model: llama.name.clone(),
                unit: "tokens/s",
                points: batches
                    .iter()
                    .filter_map(|&b| {
                        let used = cost::llm_static_bytes(lg, b) + lg.kv_bytes(b * LLM_AVG_CONTEXT);
                        (used <= gpu.hbm_bytes).then(|| Point {
                            batch: b,
                            throughput: cost::llm_decode_throughput(
                                lg,
                                &gpu,
                                b,
                                b * LLM_AVG_CONTEXT,
                            ),
                            free_bytes: gpu.hbm_bytes - used,
                        })
                    })
                    .collect(),
            }
        }
    }
}

/// Runs the three sweeps of Figure 2.
pub fn run(batches: &[u64]) -> Vec<Sweep> {
    ModelKind::ALL
        .iter()
        .map(|&k| run_model(k, batches))
        .collect()
}

/// The `aqua-repro` decomposition: one sweep point per modality.
pub fn repro_points(_a: &crate::runner::ReproArgs) -> Vec<crate::runner::ReproPoint> {
    ModelKind::ALL
        .iter()
        .map(|&kind| {
            crate::runner::ReproPoint::new("fig02", format!("{kind:?}"), move || {
                let sweep = run_model(kind, PAPER_BATCHES);
                format!("{}\n", tables(std::slice::from_ref(&sweep))[0])
            })
        })
        .collect()
}

/// Renders the sweeps as one table per model.
pub fn tables(sweeps: &[Sweep]) -> Vec<Table> {
    sweeps
        .iter()
        .map(|s| {
            let mut t = Table::new(
                format!("Figure 2: {} throughput vs free memory", s.model),
                &["batch", "throughput", "unit", "free_gib"],
            );
            for p in &s.points {
                t.row(&[
                    p.batch.to_string(),
                    format!("{:.2}", p.throughput),
                    s.unit.to_owned(),
                    format!("{:.1}", p.free_bytes as f64 / GIB),
                ]);
            }
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::link::bytes::gib;

    fn standard() -> Vec<Sweep> {
        run(&[1, 2, 4, 8, 16, 32, 64, 96])
    }

    #[test]
    fn audio_and_vision_plateau_with_free_memory() {
        let sweeps = standard();
        for s in &sweeps[0..2] {
            let last = s.points.last().unwrap();
            let peak = s.points.iter().map(|p| p.throughput).fold(0.0, f64::max);
            // Plateau: the knee throughput is within 20% of the best…
            let knee = s
                .points
                .iter()
                .find(|p| p.throughput >= 0.8 * peak)
                .unwrap();
            // …and at the knee tens of GB remain free.
            assert!(
                knee.free_bytes > gib(20),
                "{}: {} free at knee",
                s.model,
                knee.free_bytes
            );
            let _ = last;
        }
    }

    #[test]
    fn llm_free_memory_collapses_at_peak() {
        let sweeps = standard();
        let llm = &sweeps[2];
        let peak = llm
            .points
            .iter()
            .max_by(|a, b| a.throughput.partial_cmp(&b.throughput).unwrap())
            .unwrap();
        assert!(
            peak.free_bytes < gib(10),
            "LLM free at peak should be near 0, got {}",
            peak.free_bytes
        );
        // And throughput grows substantially from batch 1 to the peak.
        assert!(peak.throughput > 5.0 * llm.points[0].throughput);
    }

    #[test]
    fn tables_render() {
        let t = tables(&standard());
        assert_eq!(t.len(), 3);
        assert!(!t[0].is_empty());
    }
}
