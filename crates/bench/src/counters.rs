//! `aqua-repro counters`: the deterministic work counts of the four
//! benchmark workloads.
//!
//! Each workload runs at seed 42 with one PDES lane and one sweep job,
//! through the entry points the benchmark times ([`run_scale`],
//! [`crate::serve_schedulers::run_policy`]'s cell and [`run_suite`]), at
//! the benchmark's sizes. Every count is read from its component's
//! accessor or from the run's rendered totals, one `workload.name value`
//! line each. The output is committed as `golden/counters.txt`, so a change
//! that moves how much work a workload does names each count it moved.
//! Re-bless with `aqua-repro counters > golden/counters.txt`.

use crate::runner::{run_suite, ReproArgs, EXPERIMENTS};
use crate::scale_cluster::{run_scale, ScaleRun, ScaleSpec};
use crate::serve_schedulers::{run_policy_counted, ServeExperiment};
use aqua_gateway::scheduler::PolicyKind;
use std::fmt::Write;

/// The seed every counted workload runs at.
const SEED: u64 = 42;

/// The benchmark's scale-out domain: 64 servers, 781 chat requests each,
/// at 0.5 req/s per server (`scale_calm`) or, audited with the crash plan,
/// at 2 req/s (`scale_overload`).
fn scale_spec(overload: bool) -> ScaleSpec {
    ScaleSpec {
        servers: 64,
        requests_per_server: 781,
        rate: if overload { 2.0 } else { 0.5 },
        seed: SEED,
        lanes: 1,
        audited: overload,
    }
}

/// The value of `key=` on the scale table's totals line.
fn total(run: &ScaleRun, key: &str) -> u64 {
    let totals = run
        .table
        .lines()
        .find(|l| l.starts_with("scale-cluster totals:"))
        .expect("scale table has a totals line");
    totals
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("totals line lacks `{key}`: {totals}"))
}

/// Runs the four workloads and renders their counts.
pub fn render() -> Result<String, String> {
    let mut out = String::new();
    let mut put = |workload: &str, name: &str, value: u64| {
        writeln!(out, "{workload}.{name} {value}").expect("writing to a String");
    };
    for (workload, overload) in [("scale_calm", false), ("scale_overload", true)] {
        let run = run_scale(&scale_spec(overload));
        put(workload, "windows", run.windows);
        put(workload, "messages", run.messages);
        put(workload, "sim_events", run.sim_events);
        put(workload, "journal_events", run.journal_events as u64);
        put(workload, "audit_violations", run.audit_violations as u64);
        put(workload, "streams", total(&run, "streams"));
        put(workload, "retries", total(&run, "retries"));
    }

    let cfg = ServeExperiment::at_rate(0.3, 37_500, SEED);
    let (run, loops) =
        run_policy_counted(&cfg, PolicyKind::SjfBucket, true, crate::trace::tracer());
    put("serve_swap", "streams", run.streams.len() as u64);
    put("serve_swap", "preemptions", run.preemptions);
    put("serve_swap", "swapped_bytes", run.swapped_bytes);
    put("serve_swap", "iterations", loops.iterations);
    put("serve_swap", "steady_iterations", loops.steady_iterations);
    put("serve_swap", "skipped_boundaries", loops.skipped_boundaries);

    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let args = ReproArgs {
        seed: SEED,
        ..ReproArgs::default()
    };
    let suite = run_suite(&names, &args, 1, true, false)?;
    let points = suite.experiments.iter().map(|e| e.points as u64).sum();
    put("repro_suite", "points", points);
    put("repro_suite", "journal_events", suite.total_events as u64);
    Ok(out)
}
