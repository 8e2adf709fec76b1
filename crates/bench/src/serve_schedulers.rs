//! The gateway scheduler study (`aqua-repro serve`).
//!
//! A Codellama-34B [`GatewayEngine`] serves the standard three-tenant mix
//! (interactive chat, code summarization, a long-prompt batch backlog) on a
//! deliberately tight KV pool, once per scheduling policy in the zoo:
//!
//! * **fcfs** — vLLM's arrival order; the batch backlog heads the queue
//!   and interactive TTFT collapses at high load.
//! * **sjf** — shortest remaining output first.
//! * **sjf+bucket** — SJF quantized into length buckets; ties break FCFS,
//!   so short interactive turns leapfrog the backlog without reordering
//!   each other.
//! * **sjf+aging** — SJF with starvation aging (waiting > 60 s promotes to
//!   the head).
//! * **orca** — an Orca-style learned remaining-length predictor.
//!
//! Every policy is crossed with the offload axis: `recompute` discards
//! preempted KV (vLLM default), `aqua` swaps it to a peer GPU over NVLink.
//! TTFT *and* inter-token latency percentiles come from the gateway's
//! per-request [`StreamLog`], not just request completion times.
//!
//! [`GatewayEngine`]: aqua_gateway::engine::GatewayEngine
//! [`StreamLog`]: aqua_metrics::streaming::StreamLog

use crate::setup::{ServerCtx, CELL_MAX_OUTSTANDING, CELL_POOL_BYTES};
use aqua_engines::driver::Engine;
use aqua_engines::vllm::PreemptionPolicy;
use aqua_gateway::engine::GatewayConfig;
use aqua_gateway::scheduler::PolicyKind;
use aqua_metrics::streaming::StreamLog;
use aqua_metrics::table::Table;
use aqua_sim::gpu::GpuId;
use aqua_sim::link::bytes::gib;
use aqua_sim::time::SimTime;
use aqua_telemetry::SharedTracer;
use aqua_workloads::tenants::{tenant_stream, TENANT_CHAT};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ServeExperiment {
    /// Chat-tenant request rate, req/s (the other tenants scale from it).
    pub rate: f64,
    /// Chat-tenant request count.
    pub count: usize,
    /// Workload seed.
    pub seed: u64,
    /// Consumer KV pool bytes (default [`CELL_POOL_BYTES`]).
    pub pool_bytes: u64,
    /// Per-tenant cap on admitted-but-unfinished requests.
    pub max_outstanding: usize,
}

impl ServeExperiment {
    /// The standard configuration at a given chat rate.
    pub fn at_rate(rate: f64, count: usize, seed: u64) -> Self {
        ServeExperiment {
            rate,
            count,
            seed,
            pool_bytes: CELL_POOL_BYTES,
            max_outstanding: CELL_MAX_OUTSTANDING,
        }
    }

    /// Simulation horizon: generous slack past the last arrival.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs((self.count as f64 / self.rate) as u64 + 3_600)
    }
}

/// The request rates the serve table reports (chat req/s).
const LOAD_RATES: [f64; 2] = [1.0, 3.0];

/// One `(policy, offload)` cell of the study.
#[derive(Debug)]
pub struct ServeRun {
    /// The scheduling policy.
    pub policy: PolicyKind,
    /// Whether preempted KV swapped to a peer GPU (vs recompute).
    pub offload: bool,
    /// Per-request token-delivery streams.
    pub streams: StreamLog,
    /// Mid-decode preemptions.
    pub preemptions: u64,
    /// KV bytes moved by swap preemption.
    pub swapped_bytes: u64,
}

impl ServeRun {
    /// Display label for the offload axis.
    pub fn mode(&self) -> &'static str {
        if self.offload {
            "aqua"
        } else {
            "recompute"
        }
    }
}

/// All policies crossed with both offload modes at one load level.
#[derive(Debug)]
pub struct ServeResult {
    /// Chat rate this result was measured at.
    pub rate: f64,
    /// One run per `(policy, offload)` pair.
    pub runs: Vec<ServeRun>,
}

impl ServeResult {
    /// The run for one `(policy, offload)` cell.
    pub fn run_of(&self, policy: PolicyKind, offload: bool) -> &ServeRun {
        self.runs
            .iter()
            .find(|r| r.policy == policy && r.offload == offload)
            .unwrap_or_else(|| panic!("no run for {policy}/{offload}"))
    }

    /// Interactive-tenant P99 TTFT (seconds) for one cell — the SLO the
    /// policy zoo competes on.
    pub fn chat_ttft_p99(&self, policy: PolicyKind, offload: bool) -> f64 {
        self.run_of(policy, offload)
            .streams
            .tenant(TENANT_CHAT)
            .ttft_summary()
            .p99
    }
}

/// Runs one `(policy, offload)` cell with the process tracer.
pub fn run_policy(cfg: &ServeExperiment, policy: PolicyKind, offload: bool) -> ServeRun {
    run_policy_traced(cfg, policy, offload, crate::trace::tracer())
}

/// Runs one `(policy, offload)` cell, journalling every lifecycle event
/// into `tracer`. Same-seed runs journal byte-identical streams — the
/// property `aqua-repro serve --smoke` and `tests/determinism.rs` pin.
pub fn run_policy_traced(
    cfg: &ServeExperiment,
    policy: PolicyKind,
    offload: bool,
    tracer: SharedTracer,
) -> ServeRun {
    run_policy_counted(cfg, policy, offload, tracer).0
}

/// The gateway's loop counts over one cell (see
/// [`GatewayEngine::iterations`](aqua_gateway::engine::GatewayEngine::iterations)
/// and its siblings).
pub(crate) struct LoopCounts {
    pub(crate) iterations: u64,
    pub(crate) steady_iterations: u64,
    pub(crate) skipped_boundaries: u64,
}

/// [`run_policy_traced`], plus the gateway's loop counts, which
/// [`ServeRun`] does not carry.
pub(crate) fn run_policy_counted(
    cfg: &ServeExperiment,
    policy: PolicyKind,
    offload: bool,
    tracer: SharedTracer,
) -> (ServeRun, LoopCounts) {
    let mode = if offload { "aqua" } else { "recompute" };
    let ctx = ServerCtx::two_gpu_traced(tracer);
    if offload {
        // The serving GPU pages preempted KV to its idle NVLink peer.
        ctx.static_lease(GpuId(1), gib(30));
    }
    let (mut engine, mut driver) = ctx.serving_cell(
        tenant_stream(cfg.rate, cfg.count, cfg.seed),
        policy,
        GatewayConfig {
            kv_pool_bytes: cfg.pool_bytes,
            preemption: if offload {
                PreemptionPolicy::Swap
            } else {
                PreemptionPolicy::Recompute
            },
            max_outstanding_per_tenant: cfg.max_outstanding,
            ..GatewayConfig::default()
        },
        format!("gateway:{policy}:{mode}"),
        None,
        None,
    );
    driver.run(&mut [&mut engine as &mut dyn Engine], cfg.horizon());
    let run = ServeRun {
        policy,
        offload,
        streams: engine.drain_streams(),
        preemptions: engine.preemptions(),
        swapped_bytes: engine.swapped_bytes_total(),
    };
    let loops = LoopCounts {
        iterations: engine.iterations(),
        steady_iterations: engine.steady_iterations(),
        skipped_boundaries: engine.skipped_boundaries(),
    };
    (run, loops)
}

/// Runs the full policy zoo crossed with both offload modes.
pub fn run(cfg: &ServeExperiment) -> ServeResult {
    let mut runs = Vec::new();
    for policy in PolicyKind::ALL {
        for offload in [false, true] {
            runs.push(run_policy(cfg, policy, offload));
        }
    }
    ServeResult {
        rate: cfg.rate,
        runs,
    }
}

/// Renders runs as the serve SLO table: TTFT percentiles over the
/// interactive chat tenant (the SLO the policies compete on — batch jobs
/// have no TTFT target), inter-token latency over every stream.
pub fn table(runs: &[ServeRun], title: &str) -> Table {
    let mut t = Table::new(
        title,
        &[
            "policy",
            "offload",
            "n",
            "chat_ttft_p50_s",
            "chat_ttft_p99_s",
            "itl_p50_ms",
            "itl_p99_ms",
            "preempt",
        ],
    );
    for run in runs {
        let ttft = run.streams.tenant(TENANT_CHAT).ttft_summary();
        let itl = run.streams.itl_summary();
        t.row(&[
            run.policy.name().to_owned(),
            run.mode().to_owned(),
            run.streams.len().to_string(),
            format!("{:.3}", ttft.p50),
            format!("{:.3}", ttft.p99),
            format!("{:.2}", itl.p50 * 1e3),
            format!("{:.2}", itl.p99 * 1e3),
            run.preemptions.to_string(),
        ]);
    }
    t
}

/// The `aqua-repro` decomposition: one sweep point per policy × load level,
/// each crossing offload off/on.
pub fn repro_points(a: &crate::runner::ReproArgs) -> Vec<crate::runner::ReproPoint> {
    let (count, seed) = (a.count, a.seed);
    let mut points = Vec::new();
    for &rate in &LOAD_RATES {
        for policy in PolicyKind::ALL {
            points.push(
                crate::runner::ReproPoint::new(
                    "serve",
                    format!("rate={rate},policy={policy}"),
                    move || {
                        let cfg = ServeExperiment::at_rate(rate, count, seed);
                        let runs = [false, true].map(|off| run_policy(&cfg, policy, off));
                        format!(
                            "{}\n",
                            table(&runs, &format!("Serve `{policy}` at {rate} req/s"))
                        )
                    },
                )
                // Wall scales with the request count, which scales with rate.
                .with_cost_hint(5 * rate as u64),
            );
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_serves_the_whole_mix() {
        let cfg = ServeExperiment::at_rate(4.0, 32, 7);
        let expected = tenant_stream(cfg.rate, cfg.count, cfg.seed).len();
        let r = run(&cfg);
        assert_eq!(r.runs.len(), PolicyKind::ALL.len() * 2);
        for run in &r.runs {
            assert_eq!(
                run.streams.len(),
                expected,
                "{}/{} dropped requests",
                run.policy,
                run.mode()
            );
            assert!(run.streams.ttft_summary().p99 > 0.0);
            if run.offload {
                assert_eq!(run.swapped_bytes > 0, run.preemptions > 0);
            }
        }
        assert!(!table(&r.runs, "serve test").is_empty());
    }

    #[test]
    fn bucketed_sjf_beats_fcfs_tail_at_high_load() {
        // The headline claim: at high load the batch backlog heads FCFS's
        // queue and interactive P99 TTFT collapses; length bucketing lets
        // short turns leapfrog it.
        let cfg = ServeExperiment::at_rate(LOAD_RATES[1], 96, 3);
        let fcfs = run_policy(&cfg, PolicyKind::Fcfs, false);
        let bucket = run_policy(&cfg, PolicyKind::SjfBucket, false);
        let f = fcfs.streams.tenant(TENANT_CHAT).ttft_summary().p99;
        let b = bucket.streams.tenant(TENANT_CHAT).ttft_summary().p99;
        assert!(
            b < f,
            "sjf+bucket chat P99 TTFT {b:.2}s must beat fcfs {f:.2}s"
        );
    }

    #[test]
    fn serve_runs_are_seed_deterministic() {
        let cfg = ServeExperiment::at_rate(4.0, 24, 5);
        let a = run_policy(&cfg, PolicyKind::Orca, true);
        let b = run_policy(&cfg, PolicyKind::Orca, true);
        assert_eq!(a.streams.ttfts(), b.streams.ttfts());
        assert_eq!(a.streams.itls(), b.streams.itls());
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.swapped_bytes, b.swapped_bytes);
    }
}
