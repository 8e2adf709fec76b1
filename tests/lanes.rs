//! PDES lane-executor determinism: a sharded scenario must render the same
//! bytes and fold the same telemetry digests at every lane count. The
//! executor's conservative null-message windows make the window sequence a
//! function of the scenario alone, so these tests compare full runs at
//! `--lanes 1/2/4/8` in-run — no pinned digests, just mutual identity.
//! Lanes 2 is the calling thread plus one worker.

use aqua_bench::{e2e_cluster, scale_cluster, serve_chaos};

#[test]
fn e2e_sharded_is_byte_identical_across_lane_counts() {
    // §6.1 with every consumer pair as its own decoupled shard: the
    // assembled placement + outcome tables and the folded shard digest must
    // be identical whether the pairs run on 1, 2, 4 or 8 lanes.
    let runs: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .map(|&lanes| e2e_cluster::run_sharded(e2e_cluster::Split::LlmHeavy, 30, 3, lanes))
        .collect();
    let (base_result, base) = &runs[0];
    let (bp, bo) = e2e_cluster::tables(base_result);
    let base_render = format!("{bp}\n{bo}");
    assert!(base.sim_events > 0, "shards must process simulator events");
    assert!(base.events > 0, "shards must journal trace events");
    for (result, outcome) in &runs[1..] {
        let (p, o) = e2e_cluster::tables(result);
        assert_eq!(
            format!("{p}\n{o}"),
            base_render,
            "rendered tables must be lane-count independent"
        );
        assert_eq!(outcome.digest, base.digest, "folded digests must match");
        assert_eq!(outcome.events, base.events);
        assert_eq!(outcome.sim_events, base.sim_events);
        assert_eq!(outcome.windows, base.windows);
    }
}

#[test]
fn serve_chaos_sharded_is_byte_identical_across_lane_counts() {
    // Every overload/crash cell as its own shard, crash cells audited: the
    // concatenated cell tables and folded digest are lane-count independent,
    // and the auditor stays silent on every lane count.
    let runs: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .map(|&lanes| serve_chaos::run_sharded(16, 3, lanes, true))
        .collect();
    let (base_output, base) = &runs[0];
    assert!(base.sim_events > 0, "chaos shards must process events");
    assert!(
        base_output.contains("crash recovery"),
        "suite must include the crash cells"
    );
    for (output, outcome) in &runs[1..] {
        assert_eq!(output, base_output, "cell tables must be identical");
        assert_eq!(outcome.digest, base.digest, "folded digests must match");
        assert_eq!(outcome.events, base.events);
        assert_eq!(outcome.sim_events, base.sim_events);
    }
}

#[test]
fn scale_cluster_is_byte_identical_across_lane_counts() {
    // The coupled case: servers heartbeat the coordinator through mailboxes,
    // so the executor must take real conservative windows — and the table,
    // digest, window count and message count must still be identical at
    // lanes 1/2/4/8.
    let runs: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .map(|&lanes| {
            scale_cluster::run_scale(&scale_cluster::ScaleSpec {
                servers: 5,
                requests_per_server: 16,
                rate: 2.0,
                seed: 7,
                lanes,
                audited: true,
            })
        })
        .collect();
    let base = &runs[0];
    assert!(base.messages >= 10, "heartbeats must cross shards");
    assert!(base.windows > 1, "coupled shards must take real windows");
    assert_eq!(base.audit_violations, 0, "audited crash must stay clean");
    for run in &runs[1..] {
        assert_eq!(run.table, base.table, "tables must be identical");
        assert_eq!(run.digest, base.digest, "digests must match");
        assert_eq!(run.windows, base.windows);
        assert_eq!(run.messages, base.messages);
        assert_eq!(run.sim_events, base.sim_events);
        assert_eq!(run.journal_events, base.journal_events);
        assert_eq!(run.audit_violations, 0);
    }
}

aqua_sim::check! {
    #![cases(4)]
    /// Randomized fault plans fire identically under sharded execution: for
    /// any (servers, per-server trace length, seed), the audited point's
    /// crash window lands inside the arrival span, and running the cluster
    /// at lanes 1, 2 and 4 yields identical tables, digests and audit
    /// results.
    #[test]
    fn randomized_fault_plans_fire_identically_when_sharded(
        servers in 2usize..5,
        rps in 8usize..25,
        seed in 0u64..1_000,
    ) {
        let spec = |lanes| scale_cluster::ScaleSpec {
            servers,
            requests_per_server: rps,
            rate: 2.0,
            seed,
            lanes,
            audited: true,
        };
        let (crash_start, crash_end) = spec(1).crash_window();
        assert!(crash_start >= 1 && crash_end > crash_start);
        let seq = scale_cluster::run_scale(&spec(1));
        assert_eq!(seq.audit_violations, 0);
        for lanes in [2, 4] {
            let par = scale_cluster::run_scale(&spec(lanes));
            assert_eq!(seq.table, par.table, "tables must be identical");
            assert_eq!(seq.digest, par.digest, "digests must match");
            assert_eq!(seq.windows, par.windows);
            assert_eq!(seq.messages, par.messages);
            assert_eq!(seq.sim_events, par.sim_events);
            assert_eq!(par.audit_violations, 0);
        }
    }
}
