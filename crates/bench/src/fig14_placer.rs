//! Figure 14 / §A.1 — AQUA-PLACER convergence time.
//!
//! The paper solves Algorithm 1 with Gurobi on clusters of 8-GPU servers,
//! 16–128 GPUs total: "less than 45 seconds when we have a mix of models
//! and less than one second when we have 50% LLM producers and 50% LLM
//! consumers. It takes longer to converge with multiple modality models
//! because … the solution space has to test for more matchings."
//!
//! Our exact solver shows the same structure for the same reason: mixed
//! inputs have more distinct model types, which blows up the DP state
//! space, while the 2-type LLM-only input stays tiny. The catalog DP with
//! incumbent pruning converges fast enough that we extend the sweep
//! *past* the paper: a 256-GPU cluster and a 4-type "mixed+LoRA" input
//! (image + audio producers, LLM + LoRA consumers) that Gurobi's reported
//! trend suggests would take minutes.

use aqua_metrics::table::Table;
use aqua_placer::instance::{ModelSpec, PlacementInstance};
use aqua_placer::solver::solve_optimal_stats;

const GB: u64 = 1 << 30;

/// The paper's mixed-modality input: 1/3 image producers, 1/3 audio
/// producers, 1/3 LLM consumers (three distinct types).
pub fn mixed_instance(gpus: usize) -> PlacementInstance {
    let servers = gpus / 8;
    let third = gpus / 3;
    let mut models = Vec::new();
    for i in 0..third {
        models.push(ModelSpec::producer(format!("img{i}"), 50 * GB));
    }
    for i in 0..third {
        models.push(ModelSpec::producer(format!("aud{i}"), 60 * GB));
    }
    for i in 0..(gpus - 2 * third) {
        models.push(ModelSpec::consumer(format!("llm{i}"), 30 * GB));
    }
    PlacementInstance::new(servers, 8, 80 * GB, models)
}

/// Beyond the paper: a four-type input adding LoRA-serving consumers to
/// the modality mix — 1/4 image producers, 1/4 audio producers, 1/4 LLM
/// consumers, 1/4 LoRA consumers. One more distinct type multiplies the
/// DP state space, which is exactly what made the pre-catalog solver
/// impractical here.
pub fn mixed_lora_instance(gpus: usize) -> PlacementInstance {
    let servers = gpus / 8;
    let quarter = gpus / 4;
    let mut models = Vec::new();
    for i in 0..quarter {
        models.push(ModelSpec::producer(format!("img{i}"), 50 * GB));
    }
    for i in 0..quarter {
        models.push(ModelSpec::producer(format!("aud{i}"), 60 * GB));
    }
    for i in 0..quarter {
        models.push(ModelSpec::consumer(format!("llm{i}"), 30 * GB));
    }
    for i in 0..(gpus - 3 * quarter) {
        models.push(ModelSpec::consumer(format!("lora{i}"), 10 * GB));
    }
    PlacementInstance::new(servers, 8, 80 * GB, models)
}

/// The paper's easy input: 50% LLM producers, 50% LLM consumers.
pub fn llm_only_instance(gpus: usize) -> PlacementInstance {
    let servers = gpus / 8;
    let half = gpus / 2;
    let mut models = Vec::new();
    for i in 0..half {
        models.push(ModelSpec::producer(format!("llm-p{i}"), 40 * GB));
    }
    for i in 0..(gpus - half) {
        models.push(ModelSpec::consumer(format!("llm-c{i}"), 35 * GB));
    }
    PlacementInstance::new(servers, 8, 80 * GB, models)
}

/// One measured point. The DP state counts are the deterministic,
/// machine-independent convergence-cost metric the table reports.
#[derive(Debug, Clone, Copy)]
pub struct ConvergencePoint {
    /// Total GPUs in the cluster.
    pub gpus: usize,
    /// Distinct DP states for the mixed-modality input (3 types).
    pub mixed_states: usize,
    /// Server-fill expansions for the mixed-modality input.
    pub mixed_expansions: u64,
    /// Distinct DP states for the mixed+LoRA input (4 types).
    pub lora_states: usize,
    /// Server-fill expansions for the mixed+LoRA input.
    pub lora_expansions: u64,
    /// Distinct DP states for the LLM-only input (2 types).
    pub llm_states: usize,
    /// Server-fill expansions for the LLM-only input.
    pub llm_expansions: u64,
}

/// Solves `inst` optimally and returns the solver's DP states and
/// server-fill expansions.
fn solve_work(inst: &PlacementInstance) -> (usize, u64) {
    let (p, s) = solve_optimal_stats(inst);
    p.validate(inst).expect("feasible");
    (s.dp_states, s.expansions)
}

/// Measures solver convergence across cluster sizes.
pub fn run(gpu_counts: &[usize]) -> Vec<ConvergencePoint> {
    gpu_counts
        .iter()
        .map(|&gpus| {
            let (mixed_states, mixed_expansions) = solve_work(&mixed_instance(gpus));
            let (lora_states, lora_expansions) = solve_work(&mixed_lora_instance(gpus));
            let (llm_states, llm_expansions) = solve_work(&llm_only_instance(gpus));
            ConvergencePoint {
                gpus,
                mixed_states,
                mixed_expansions,
                lora_states,
                lora_expansions,
                llm_states,
                llm_expansions,
            }
        })
        .collect()
}

/// Renders the convergence table: deterministic solver-work counters only,
/// so `aqua-repro` output stays byte-identical across runs and hosts.
pub fn table(points: &[ConvergencePoint]) -> Table {
    let mut t = Table::new(
        "Figure 14: AQUA-PLACER convergence cost (8-GPU servers, DP work)",
        &[
            "gpus",
            "mixed_dp_states",
            "mixed_expansions",
            "lora_dp_states",
            "lora_expansions",
            "llm_dp_states",
            "llm_expansions",
        ],
    );
    for p in points {
        t.row(&[
            p.gpus.to_string(),
            p.mixed_states.to_string(),
            p.mixed_expansions.to_string(),
            p.lora_states.to_string(),
            p.lora_expansions.to_string(),
            p.llm_states.to_string(),
            p.llm_expansions.to_string(),
        ]);
    }
    t
}

/// Our extended sweep: the paper's Figure 14 cluster sizes (16–128 GPUs)
/// plus a 256-GPU point the catalog DP makes affordable.
const EXTENDED_GPU_COUNTS: [usize; 6] = [16, 32, 64, 96, 128, 256];

/// One sweep point per cluster size. With the catalog DP the solve cost
/// grows roughly with the DP state count — about `gpus²` per type beyond
/// two, so the hint scales `gpus²` for the dominant mixed inputs with a
/// ×4 for the extra LoRA type; the parallel suite still starts the
/// heaviest (256-GPU) point first, but fig14 no longer owns the schedule
/// tail.
pub fn repro_points(_a: &crate::runner::ReproArgs) -> Vec<crate::runner::ReproPoint> {
    EXTENDED_GPU_COUNTS
        .iter()
        .map(|&gpus| {
            crate::runner::ReproPoint::new("fig14", format!("gpus={gpus}"), move || {
                format!("{}\n", table(&run(&[gpus])))
            })
            .with_cost_hint(4 * (gpus as u64).pow(2))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_at_small_scale() {
        let pts = run(&[16, 24]);
        for p in &pts {
            assert!(
                p.llm_states <= p.mixed_states,
                "LLM-only ({} states) should not exceed mixed ({} states)",
                p.llm_states,
                p.mixed_states
            );
            assert!(p.llm_expansions <= p.mixed_expansions);
            // The raw 4-type state space is larger than the 3-type one, but
            // the incumbent bound prunes the balanced mixed+LoRA input far
            // harder (greedy lands near the optimum there), so its *visited*
            // state count can undercut the 3-type mixed input. The sound
            // cross-input claim is against the 2-type LLM baseline.
            assert!(
                p.lora_states >= p.llm_states,
                "4-type mixed+LoRA ({} states) should not undercut 2-type LLM-only ({})",
                p.lora_states,
                p.llm_states
            );
        }
        assert!(!table(&pts).is_empty());
    }

    #[test]
    fn instances_are_well_formed() {
        let m = mixed_instance(24);
        assert_eq!(m.models.len(), 24);
        assert_eq!(m.servers, 3);
        let l = llm_only_instance(16);
        assert_eq!(l.models.len(), 16);
        let lora = mixed_lora_instance(32);
        assert_eq!(lora.models.len(), 32);
        let distinct: std::collections::HashSet<i64> =
            lora.models.iter().map(|m| m.mem_bytes).collect();
        assert_eq!(distinct.len(), 4, "mixed+LoRA spans four types");
    }
}
