//! End-to-end gateway serving properties: the policy zoo under the
//! three-tenant mix, the offload cross, and graceful degradation through a
//! mid-run GPU crash.

use aqua::engines::driver::{Driver, Engine};
use aqua::gateway::engine::{GatewayConfig, GatewayEngine};
use aqua::gateway::scheduler::PolicyKind;
use aqua::metrics::streaming::StreamLog;
use aqua::models::zoo;
use aqua::sim::gpu::GpuSpec;
use aqua::sim::link::bytes::gib;
use aqua::sim::time::SimTime;
use aqua::workloads::tenants::{tenant_stream, TENANT_CHAT};

/// Runs one gateway over the scaled-down tenant mix, optionally freezing
/// the GPU for `[crash_start, crash_end)` seconds mid-run.
fn serve(policy: PolicyKind, crash: Option<(u64, u64)>) -> StreamLog {
    let mix = tenant_stream(2.0, 32, 9);
    let expected = mix.len();
    let geom = *zoo::codellama_34b().llm_geometry().unwrap();
    let mut engine = GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        policy,
        GatewayConfig {
            kv_pool_bytes: gib(3),
            max_outstanding_per_tenant: 8,
            ..GatewayConfig::default()
        },
    );
    let mut driver = Driver::new();
    driver.schedule_trace(0, mix);
    if let Some((start, end)) = crash {
        driver.crash_window(0, SimTime::from_secs(start), SimTime::from_secs(end));
    }
    {
        let mut engines: Vec<&mut dyn Engine> = vec![&mut engine];
        driver.run(&mut engines, SimTime::from_secs(40_000));
    }
    assert!(!engine.has_work(), "{policy}: work left behind");
    let streams = engine.drain_streams();
    assert_eq!(streams.len(), expected, "{policy}: dropped requests");
    streams
}

#[test]
fn mid_run_crash_degrades_p99_gracefully_for_every_policy() {
    // A GPU crash freezes the engine for 40 s mid-arrival-stream. Graceful
    // degradation means: every request still completes with its full token
    // stream, and the chat-tenant P99 TTFT lands within the clean P99 plus
    // a bounded penalty (the outage plus the backlog it creates) — not an
    // unbounded collapse or a livelock.
    for policy in PolicyKind::ALL {
        let clean = serve(policy, None);
        let crashed = serve(policy, Some((20, 60)));
        let p99_clean = clean.tenant(TENANT_CHAT).ttft_summary().p99;
        let p99_crash = crashed.tenant(TENANT_CHAT).ttft_summary().p99;
        assert!(p99_clean > 0.0 && p99_crash > 0.0);
        assert!(
            p99_crash <= p99_clean + 400.0,
            "{policy}: crash P99 {p99_crash:.1}s vs clean {p99_clean:.1}s — not graceful"
        );
        // The outage may only stall delivery, never truncate a stream
        // (completion order differs, so align by request id).
        let lengths: std::collections::BTreeMap<u64, usize> = clean
            .streams()
            .iter()
            .map(|s| (s.id, s.tokens.len()))
            .collect();
        for s in crashed.streams() {
            assert_eq!(
                lengths[&s.id],
                s.tokens.len(),
                "{policy}: request {} lost tokens",
                s.id
            );
        }
    }
}

#[test]
fn serve_experiment_crosses_every_policy_with_offload() {
    use aqua_bench::serve_schedulers::{run, ServeExperiment};

    let cfg = ServeExperiment::at_rate(2.0, 32, 9);
    let r = run(&cfg);
    assert_eq!(r.runs.len(), PolicyKind::ALL.len() * 2);
    for policy in PolicyKind::ALL {
        let off = r.run_of(policy, false);
        let on = r.run_of(policy, true);
        assert_eq!(off.streams.len(), on.streams.len());
        // Swapping KV over NVLink never loses more work than recompute:
        // the offload cell's tail is at or below the recompute cell's.
        let p99_off = r.chat_ttft_p99(policy, false);
        let p99_on = r.chat_ttft_p99(policy, true);
        assert!(
            p99_on <= p99_off + 1e-9,
            "{policy}: aqua P99 {p99_on:.2}s worse than recompute {p99_off:.2}s"
        );
    }
}
