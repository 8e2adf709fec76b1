//! Experiment → sweep-point decomposition for `aqua-repro` and `ci.sh`.
//!
//! Every experiment in the paper's evaluation is a list of independent
//! [`ReproPoint`]s — a labelled closure that runs one simulation point and
//! returns its rendered tables. The heavy modules own their decomposition
//! (`fig09_cfs::repro_points` yields one point per request rate,
//! `ablations::repro_points` one per study, …); this module assembles the
//! per-experiment lists, fans them across a [`Sweep`], and stitches the
//! results — **in input order** — back into the exact output a sequential
//! run would print. `aqua-repro all --jobs 8` is therefore byte-identical
//! to `--jobs 1`, and [`SuiteOutcome::combined_digest`] proves the
//! underlying simulations were too.

use crate::sweep::{Sweep, SweepResult};
use std::time::Duration;

/// Shared experiment parameters (the `--window/--seed/--count` flags).
#[derive(Debug, Clone, Copy)]
pub struct ReproArgs {
    /// Simulated window in seconds for windowed experiments.
    pub window: u64,
    /// RNG seed for trace generation.
    pub seed: u64,
    /// Request count for request-driven experiments.
    pub count: usize,
    /// PDES lane threads for sharded scenarios (`--lanes`; scale_cluster).
    /// Lane count never changes output or digests — only wall time.
    pub lanes: usize,
}

impl Default for ReproArgs {
    fn default() -> Self {
        ReproArgs {
            window: 120,
            seed: 42,
            count: 200,
            lanes: 1,
        }
    }
}

/// One independent unit of evaluation work: runs a single simulation point
/// and returns its rendered output.
pub struct ReproPoint {
    experiment: &'static str,
    label: String,
    cost_hint: u64,
    run: Box<dyn Fn() -> String + Send + Sync>,
}

impl ReproPoint {
    /// Wraps `run` as the point `label` of `experiment`.
    pub fn new(
        experiment: &'static str,
        label: impl Into<String>,
        run: impl Fn() -> String + Send + Sync + 'static,
    ) -> Self {
        ReproPoint {
            experiment,
            label: label.into(),
            cost_hint: 1,
            run: Box::new(run),
        }
    }

    /// Sets the point's relative cost hint (arbitrary units; default 1).
    /// The parallel runner claims heavy points first so one long solve
    /// doesn't become the tail of the schedule.
    pub fn with_cost_hint(mut self, cost_hint: u64) -> Self {
        self.cost_hint = cost_hint.max(1);
        self
    }

    /// The point's relative cost hint.
    fn cost_hint(&self) -> u64 {
        self.cost_hint
    }

    /// The experiment this point belongs to (`fig09`, `ablations`, …).
    pub fn experiment(&self) -> &'static str {
        self.experiment
    }

    /// The point's label within its experiment (`rate=2`, `cfs-slice`, …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Runs the point, returning its rendered tables.
    pub fn render(&self) -> String {
        (self.run)()
    }
}

impl std::fmt::Debug for ReproPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReproPoint")
            .field("experiment", &self.experiment)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// `(name, description)` of every experiment, in `aqua-repro all` order.
/// Two long runs with fixed parameters, `fig15_17` (Figures 15–17) and
/// `tab_a2` (the one-hour LoRA workload of §A.2), run by name only.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig01", "motivation: vLLM vs CFS vs AQUA TTFT/RCT"),
    ("fig02", "throughput vs batch vs free memory per modality"),
    ("fig03", "NVLink bandwidth curve + sharing impact"),
    ("fig04", "placement matters (Eq. 5 + execution)"),
    ("fig07", "long-prompt tokens: DeepSpeed/FlexGen/AQUA"),
    ("fig08", "LoRA adapter RCTs"),
    ("fig09", "CFS responsiveness at 2 and 5 req/s"),
    ("fig10", "elastic donate/reclaim timeline"),
    ("fig11", "producer RCT overhead of donating via AQUA"),
    ("fig12", "benefit vs offloaded tensor size"),
    ("fig13", "multi-turn chatbot saw-tooth"),
    ("fig14", "placer convergence time"),
    ("fig18", "NVSwitch stress: 4 consumers + 4 producers"),
    (
        "chaos",
        "producer crash at t=300s: degrade to DRAM, recover",
    ),
    ("e2e", "section 6.1 cluster evaluation (both splits)"),
    (
        "serve",
        "gateway scheduler zoo: TTFT/ITL SLOs, offload on/off",
    ),
    (
        "serve_chaos",
        "goodput under 1-4x overload + crash recovery, protected vs fcfs",
    ),
    (
        "coord_chaos",
        "coordinator crash/partition: epoch-fenced lease recovery under serving",
    ),
    (
        "scale_cluster",
        "256-1024 GPU domain through sharded PDES lanes + coordinator heartbeats",
    ),
    ("tables", "Tables 1-3 and the model inventory"),
    ("ablations", "all ablation studies"),
];

/// The sweep-point decomposition of one experiment.
pub fn experiment_points(name: &str, a: &ReproArgs) -> Result<Vec<ReproPoint>, String> {
    let a = *a;
    let points = match name {
        "fig01" => vec![ReproPoint::new("fig01", "rate=5", move || {
            let r = crate::fig01_motivation::run(5.0, a.count, a.seed);
            format!("{}\n", crate::fig01_motivation::table(&r))
        })],
        "fig02" => crate::fig02_contention::repro_points(&a),
        "fig03" => vec![
            ReproPoint::new("fig03", "bandwidth", move || {
                format!(
                    "{}\n",
                    crate::fig03_links::bandwidth_table(&crate::fig03_links::run_bandwidth(
                        &crate::fig03_links::default_sizes()
                    ))
                )
            }),
            ReproPoint::new("fig03", "sharing", move || {
                format!(
                    "{}\n",
                    crate::fig03_links::sharing_table(&crate::fig03_links::run_sharing(5))
                )
            }),
        ],
        "fig04" => vec![ReproPoint::new("fig04", "colocation", move || {
            let r = crate::fig04_colocation::run(a.window);
            format!("{}\n", crate::fig04_colocation::table(&r, a.window))
        })],
        "fig07" => crate::fig07_long_prompt::repro_points(&a),
        "fig08" => vec![ReproPoint::new("fig08", "rate=2", move || {
            let r = crate::fig08_lora::run(2.0, a.count, a.seed);
            format!("{}\n", crate::fig08_lora::table(&r))
        })],
        "fig09" => crate::fig09_cfs::repro_points(&a),
        "fig10" => vec![ReproPoint::new("fig10", "timeline", move || {
            let tl = crate::fig10_elasticity::Timeline::default();
            let r = crate::fig10_elasticity::run(&tl, 10, a.seed);
            let baseline = crate::fig10_elasticity::run_producer_baseline(&tl, a.seed);
            format!(
                "{}\n{}\n",
                crate::fig10_elasticity::table(&r),
                crate::fig10_elasticity::producer_table(&r.producer_log, &baseline)
            )
        })
        .with_cost_hint(15)],
        "fig11" => vec![ReproPoint::new("fig11", "overhead", move || {
            let tl = crate::fig10_elasticity::Timeline::default();
            let r = crate::fig11_producer_overhead::run_overhead(&tl, 10, a.seed);
            format!(
                "{}\nmedian overhead: {:.2}x\n",
                crate::fig11_producer_overhead::table(&r),
                r.median_overhead()
            )
        })
        .with_cost_hint(15)],
        "fig12" => crate::fig12_tensor_size::repro_points(&a),
        "fig13" => vec![ReproPoint::new("fig13", "chatbot", move || {
            let r = crate::fig13_chatbot::run(25, 4, a.seed);
            format!("{}\n", crate::fig13_chatbot::table(&r))
        })],
        "fig14" => crate::fig14_placer::repro_points(&a),
        "fig18" => crate::fig18_nvswitch::repro_points(&a),
        "chaos" => crate::chaos_degradation::repro_points(&a),
        "e2e" => crate::e2e_cluster::repro_points(&a),
        "serve" => crate::serve_schedulers::repro_points(&a),
        "serve_chaos" => crate::serve_chaos::repro_points(&a),
        "coord_chaos" => crate::coord_chaos::repro_points(&a),
        "scale_cluster" => crate::scale_cluster::repro_points(&a),
        "tables" => vec![ReproPoint::new("tables", "registry", move || {
            format!(
                "{}\n{}\n{}\n{}\n",
                crate::tables_registry::table1(),
                crate::tables_registry::table2(),
                crate::tables_registry::table3(),
                crate::tables_registry::model_inventory()
            )
        })],
        "ablations" => crate::ablations::repro_points(&a),
        // Long runs with their own fixed parameters, outside `all`.
        "fig15_17" => crate::fig09_cfs::multi_gpu_repro_points(),
        "tab_a2" => vec![ReproPoint::new(
            "tab_a2",
            "one-hour",
            crate::fig08_lora::long_run_report,
        )],
        other => return Err(format!("unknown experiment `{other}` (try `list`)")),
    };
    Ok(points)
}

/// Per-experiment wall accounting within a suite run.
#[derive(Debug, Clone)]
pub struct ExperimentWall {
    /// Experiment name.
    pub name: &'static str,
    /// Number of sweep points the experiment decomposed into.
    pub points: usize,
    /// Sum of the experiment's per-point walls (worker-thread time).
    pub wall: Duration,
}

/// A completed suite run: the printable output plus determinism and timing
/// evidence.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// Rendered output in experiment order (headers + tables), identical
    /// for every job count.
    pub output: String,
    /// Order-independent combined determinism digest of every point.
    pub combined_digest: u64,
    /// Total trace events folded into the digest.
    pub total_events: usize,
    /// Wall time of the whole suite (slowest worker, not sum of points).
    pub wall: Duration,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Per-experiment point counts and summed point walls.
    pub experiments: Vec<ExperimentWall>,
}

/// Runs `names` through the sweep with `jobs` workers and stitches the
/// outputs back in input order. `headers` controls the
/// `################ fig09 ################` banners that `aqua-repro all`
/// prints between experiments. `passthrough` routes events to the ambient
/// `AQUA_TRACE` journal instead of per-point digests (forcing jobs=1).
pub fn run_suite(
    names: &[&str],
    a: &ReproArgs,
    jobs: usize,
    headers: bool,
    passthrough: bool,
) -> Result<SuiteOutcome, String> {
    let mut points: Vec<ReproPoint> = Vec::new();
    for name in names {
        points.extend(experiment_points(name, a)?);
    }
    let sweep = if passthrough {
        Sweep::new().passthrough()
    } else {
        Sweep::new().jobs(jobs)
    };
    let result: SweepResult<String> =
        sweep.run_weighted(&points, |p| p.cost_hint(), |p| p.render());

    let combined_digest = result.combined_digest();
    let total_events = result.total_events();
    let mut output = String::new();
    let mut experiments: Vec<ExperimentWall> = Vec::new();
    for (point, done) in points.iter().zip(result.points.iter()) {
        match experiments.last_mut() {
            Some(e) if e.name == point.experiment() => {
                e.points += 1;
                e.wall += done.wall;
            }
            _ => {
                if headers {
                    output.push_str(&format!(
                        "\n################ {} ################\n",
                        point.experiment()
                    ));
                }
                experiments.push(ExperimentWall {
                    name: point.experiment(),
                    points: 1,
                    wall: done.wall,
                });
            }
        }
        output.push_str(&done.result);
    }
    Ok(SuiteOutcome {
        output,
        combined_digest,
        total_events,
        wall: result.wall,
        jobs: result.jobs,
        experiments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_decomposes() {
        let a = ReproArgs::default();
        for (name, _) in EXPERIMENTS {
            let points = experiment_points(name, &a).expect(name);
            assert!(!points.is_empty(), "{name} has no points");
            for p in &points {
                assert_eq!(p.experiment(), *name);
            }
        }
        assert!(experiment_points("fig99", &a).is_err());
    }

    #[test]
    fn long_runs_decompose_by_name_outside_the_list() {
        let a = ReproArgs::default();
        for (name, points) in [("fig15_17", 6), ("tab_a2", 1)] {
            assert!(EXPERIMENTS.iter().all(|(listed, _)| *listed != name));
            let decomposed = experiment_points(name, &a).expect(name);
            assert_eq!(decomposed.len(), points, "{name}");
            assert!(decomposed.iter().all(|p| p.experiment() == name));
        }
    }

    #[test]
    fn multi_point_experiments_fan_out() {
        let a = ReproArgs::default();
        assert_eq!(experiment_points("fig02", &a).unwrap().len(), 3);
        assert_eq!(experiment_points("fig09", &a).unwrap().len(), 2);
        assert_eq!(experiment_points("fig12", &a).unwrap().len(), 2);
        assert_eq!(experiment_points("fig14", &a).unwrap().len(), 6);
        assert_eq!(experiment_points("e2e", &a).unwrap().len(), 2);
        assert_eq!(experiment_points("serve", &a).unwrap().len(), 10);
        assert_eq!(experiment_points("serve_chaos", &a).unwrap().len(), 8);
        assert_eq!(experiment_points("coord_chaos", &a).unwrap().len(), 3);
        assert_eq!(experiment_points("scale_cluster", &a).unwrap().len(), 3);
        assert_eq!(experiment_points("ablations", &a).unwrap().len(), 6);
    }

    #[test]
    fn suite_output_is_identical_across_job_counts() {
        // Cheap analytic experiments only, so the test stays fast; the
        // simulation-heavy equivalents live in tests/determinism.rs.
        let a = ReproArgs::default();
        let names = ["fig02", "fig03", "tables"];
        let seq = run_suite(&names, &a, 1, true, false).unwrap();
        let par = run_suite(&names, &a, 4, true, false).unwrap();
        assert_eq!(seq.output, par.output);
        assert_eq!(seq.combined_digest, par.combined_digest);
        assert!(seq
            .output
            .contains("################ fig02 ################"));
        assert_eq!(seq.experiments.len(), 3);
        assert_eq!(seq.experiments[0].points, 3);
        // Without headers the banners disappear but tables remain.
        let bare = run_suite(&["fig02"], &a, 1, false, false).unwrap();
        assert!(!bare.output.contains("################"));
        assert!(bare.output.contains("Figure 2"));
    }
}
