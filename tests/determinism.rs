//! Reproducibility: every experiment is a pure function of its seed — the
//! property the whole harness rests on (integer-nanosecond clock, explicit
//! RNG seeds, FIFO event tie-breaking).

use aqua::workloads::prelude::*;
use aqua_bench::{fig07_long_prompt, fig08_lora, fig09_cfs};

#[test]
fn traces_are_seed_deterministic() {
    let cfg = ShareGptConfig::new(5.0, 100);
    assert_eq!(sharegpt_trace(&cfg, 1, 0), sharegpt_trace(&cfg, 1, 0));
    assert_ne!(sharegpt_trace(&cfg, 1, 0), sharegpt_trace(&cfg, 2, 0));
    assert_eq!(lora_trace(4.0, 50, 30, 9, 0), lora_trace(4.0, 50, 30, 9, 0));
    assert_eq!(item_trace(1.0, 20, 3, 0), item_trace(1.0, 20, 3, 0));
}

#[test]
fn long_prompt_experiment_is_deterministic() {
    let a = fig07_long_prompt::run(30);
    let b = fig07_long_prompt::run(30);
    assert_eq!(a.tokens, b.tokens);
}

#[test]
fn lora_experiment_is_deterministic() {
    let a = fig08_lora::run(2.0, 40, 5);
    let b = fig08_lora::run(2.0, 40, 5);
    for ((na, la), (nb, lb)) in a.systems.iter().zip(b.systems.iter()) {
        assert_eq!(na, nb);
        assert_eq!(la.records(), lb.records());
    }
}

#[test]
fn cfs_experiment_is_deterministic() {
    let cfg = fig09_cfs::CfsExperiment::figure9(5.0, 40, 3);
    let a = fig09_cfs::run(&cfg);
    let b = fig09_cfs::run(&cfg);
    for ((na, la), (nb, lb)) in a.systems.iter().zip(b.systems.iter()) {
        assert_eq!(na, nb);
        assert_eq!(la.rcts(), lb.rcts());
        assert_eq!(la.ttfts(), lb.ttfts());
    }
}

#[test]
fn different_seeds_differ() {
    let a = fig08_lora::run(2.0, 40, 5);
    let b = fig08_lora::run(2.0, 40, 6);
    assert_ne!(
        a.systems[0].1.rcts(),
        b.systems[0].1.rcts(),
        "different seeds must explore different workloads"
    );
}

/// Journals a scaled-down Figure 9 scenario and returns the telemetry digest
/// (plus the journal length, to guard against trivially-empty journals).
fn traced_cfs_digest(seed: u64) -> (u64, usize) {
    use aqua_telemetry::JournalTracer;
    use std::sync::Arc;

    let journal = Arc::new(JournalTracer::new());
    let cfg = fig09_cfs::CfsExperiment::figure9(5.0, 30, seed);
    let _ = fig09_cfs::run_traced(&cfg, journal.clone());
    (journal.digest(), journal.len())
}

#[test]
fn telemetry_digest_is_seed_deterministic() {
    // The whole instrumented stack — transfers, leases, informer decisions,
    // CFS slices — must journal the identical event stream for the same
    // seed: the digest is a 64-bit witness of the entire execution.
    let (da, na) = traced_cfs_digest(3);
    let (db, nb) = traced_cfs_digest(3);
    assert!(na > 0, "instrumented run must journal events");
    assert_eq!(na, nb, "same seed, same event count");
    assert_eq!(da, db, "same seed, same telemetry digest");
}

#[test]
fn telemetry_digest_differs_across_seeds() {
    let (da, _) = traced_cfs_digest(3);
    let (db, _) = traced_cfs_digest(4);
    assert_ne!(da, db, "different seeds must produce different journals");
}

/// Journals the chaos run (producer crash + lease expiry + failover) and
/// returns the digest/length pair.
fn traced_chaos_digest(tl: &aqua_bench::chaos_degradation::ChaosTimeline) -> (u64, usize) {
    use aqua_telemetry::JournalTracer;
    use std::sync::Arc;

    let journal = Arc::new(JournalTracer::new());
    let _ = aqua_bench::chaos_degradation::run_traced(tl, 5, journal.clone(), None);
    (journal.digest(), journal.len())
}

#[test]
fn chaos_run_is_digest_deterministic() {
    // Fault injection must not break reproducibility: the same FaultPlan on
    // the same seed journals the identical event stream — aborted transfers,
    // retries, lease expiry, failover and degraded-mode transitions included.
    let tl = aqua_bench::chaos_degradation::ChaosTimeline::short();
    let (da, na) = traced_chaos_digest(&tl);
    let (db, nb) = traced_chaos_digest(&tl);
    assert!(na > 0, "chaos run must journal events");
    assert_eq!(na, nb, "same FaultPlan, same event count");
    assert_eq!(da, db, "same FaultPlan, same telemetry digest");
}

/// The sweep points the parallel-determinism tests fan out: both Figure 9
/// request rates (scaled down) plus the chaos failover run — the heaviest,
/// most event-dense experiments in the suite.
fn sweep_points() -> Vec<aqua_bench::runner::ReproPoint> {
    use aqua_bench::runner::ReproPoint;
    let mut points: Vec<ReproPoint> = fig09_cfs::PAPER_RATES
        .iter()
        .map(|&rate| {
            ReproPoint::new("fig09", format!("rate={rate}"), move || {
                let cfg = fig09_cfs::CfsExperiment::figure9(rate, 30, 3);
                let r = fig09_cfs::run(&cfg);
                fig09_cfs::table(&r, &format!("Figure 9 at {rate} req/s")).to_string()
            })
        })
        .collect();
    points.push(ReproPoint::new("chaos", "short", || {
        let tl = aqua_bench::chaos_degradation::ChaosTimeline::short();
        let r = aqua_bench::chaos_degradation::run(&tl, 5);
        aqua_bench::chaos_degradation::table(&r).to_string()
    }));
    points
}

#[test]
fn sweep_is_schedule_independent_across_job_counts() {
    // The tentpole guarantee: fanning the suite across worker threads must
    // not perturb a single simulation. Every job count renders the same
    // bytes AND folds the same per-point telemetry digests — the combined
    // digest is a witness that each simulation's full event stream was
    // identical, not merely its printed summary.
    use aqua_bench::sweep::Sweep;
    let points = sweep_points();
    let runs: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&jobs| Sweep::new().jobs(jobs).run(&points, |p| p.render()))
        .collect();
    let baseline = &runs[0];
    assert!(baseline.total_events() > 0, "points must journal events");
    for run in &runs[1..] {
        assert_eq!(run.points.len(), baseline.points.len());
        for (a, b) in baseline.points.iter().zip(run.points.iter()) {
            assert_eq!(a.result, b.result, "rendered tables must be identical");
            assert_eq!(a.digest, b.digest, "per-point digests must be identical");
            assert_eq!(a.events, b.events, "per-point event counts must match");
        }
        assert_eq!(
            run.combined_digest(),
            baseline.combined_digest(),
            "combined digest must be independent of the thread schedule"
        );
    }
}

#[test]
fn suite_runner_is_byte_identical_across_job_counts() {
    // Same property one layer up: the stitched `aqua-repro` output for the
    // simulation-heavy experiments and the §6.1 cluster (placement plus
    // every consumer pair), through the real experiment → point
    // decomposition, at 1/4/8 jobs.
    use aqua_bench::runner::{run_suite, ReproArgs};
    let a = ReproArgs {
        window: 30,
        seed: 3,
        count: 30,
        lanes: 1,
    };
    let names = ["fig09", "fig12", "e2e"];
    let seq = run_suite(&names, &a, 1, true, false).unwrap();
    for jobs in [4usize, 8] {
        let par = run_suite(&names, &a, jobs, true, false).unwrap();
        assert_eq!(seq.output, par.output, "stdout must match at {jobs} jobs");
        assert_eq!(seq.combined_digest, par.combined_digest);
        assert_eq!(seq.total_events, par.total_events);
    }
    assert!(seq.output.contains("Figure 9 at 2 req/s"));
    assert!(seq.output.contains("per-consumer results"));
}

#[test]
fn serve_experiment_is_byte_identical_across_job_counts() {
    // The gateway tentpole's determinism gate: every policy × load × offload
    // cell of `aqua-repro serve` renders the same bytes and folds the same
    // telemetry digests at 1/4/8 jobs.
    use aqua_bench::runner::{run_suite, ReproArgs};
    let a = ReproArgs {
        window: 30,
        seed: 3,
        count: 32,
        lanes: 1,
    };
    let seq = run_suite(&["serve"], &a, 1, true, false).unwrap();
    assert!(seq.total_events > 0, "gateway cells must journal events");
    for jobs in [4usize, 8] {
        let par = run_suite(&["serve"], &a, jobs, true, false).unwrap();
        assert_eq!(seq.output, par.output, "stdout must match at {jobs} jobs");
        assert_eq!(seq.combined_digest, par.combined_digest);
        assert_eq!(seq.total_events, par.total_events);
    }
    assert!(seq.output.contains("Serve `sjf+bucket`"));
}

#[test]
fn serve_chaos_experiment_is_byte_identical_across_job_counts() {
    // The overload/crash-recovery study inherits the same gate: every
    // mode × load goodput cell and both crash-restore cells of
    // `aqua-repro serve_chaos` render the same bytes and fold the same
    // telemetry digests at 1/4/8 jobs.
    use aqua_bench::runner::{run_suite, ReproArgs};
    let a = ReproArgs {
        window: 30,
        seed: 3,
        count: 24,
        lanes: 1,
    };
    let seq = run_suite(&["serve_chaos"], &a, 1, true, false).unwrap();
    assert!(seq.total_events > 0, "chaos cells must journal events");
    for jobs in [4usize, 8] {
        let par = run_suite(&["serve_chaos"], &a, jobs, true, false).unwrap();
        assert_eq!(seq.output, par.output, "stdout must match at {jobs} jobs");
        assert_eq!(seq.combined_digest, par.combined_digest);
        assert_eq!(seq.total_events, par.total_events);
    }
    assert!(seq.output.contains("crash recovery"));
}

#[test]
fn coord_chaos_experiment_is_byte_identical_across_job_counts() {
    // The control-plane recovery study inherits the determinism gate:
    // every cell of `aqua-repro coord_chaos` — including the coordinator
    // crash and the partition, epoch bump and resync traffic and all —
    // renders the same bytes and folds the same telemetry digests at
    // 1/4/8 jobs.
    use aqua_bench::runner::{run_suite, ReproArgs};
    let a = ReproArgs {
        window: 30,
        seed: 3,
        count: 80,
        lanes: 1,
    };
    let seq = run_suite(&["coord_chaos"], &a, 1, true, false).unwrap();
    assert!(
        seq.total_events > 0,
        "coord-chaos cells must journal events"
    );
    for jobs in [4usize, 8] {
        let par = run_suite(&["coord_chaos"], &a, jobs, true, false).unwrap();
        assert_eq!(seq.output, par.output, "stdout must match at {jobs} jobs");
        assert_eq!(seq.combined_digest, par.combined_digest);
        assert_eq!(seq.total_events, par.total_events);
    }
    assert!(seq.output.contains("control-plane recovery"));
}

#[test]
fn audited_coordinator_crash_run_is_digest_identical_to_unaudited() {
    // "Silent when clean" through a control-plane failure: attaching the
    // auditor to a faulted coord-chaos cell — the crash (epoch bump,
    // fenced rejections, informer resync, lease re-homing) and the
    // partition (lapsed heartbeats, TTL expiry, same-epoch resync after
    // the heal) — must journal the exact same event stream and digest as
    // the unaudited cell, and render the same table.
    use aqua_bench::coord_chaos::{render_cell, run_cell_traced, CoordCell, CoordChaosConfig};
    use aqua_sim::audit::Auditor;
    use aqua_telemetry::JournalTracer;
    use std::sync::Arc;

    let cfg = CoordChaosConfig::standard(80, 3);
    for (cell, epoch) in [(CoordCell::Crash, 2), (CoordCell::Partition, 1)] {
        let label = cell.label();
        let plain = Arc::new(JournalTracer::new());
        let audited = Arc::new(JournalTracer::new());
        let auditor = Auditor::with_tracer(audited.clone());
        let ra = run_cell_traced(&cfg, cell, plain.clone(), None);
        let rb = run_cell_traced(&cfg, cell, audited.clone(), Some(auditor.clone()));
        assert!(
            auditor.is_clean(),
            "coordinator {label} cell tripped the audit: {:?}",
            auditor.violations()
        );
        assert_eq!(ra.epoch, epoch, "{label}: only a crash bumps the epoch");
        assert_eq!(ra.streams.len(), rb.streams.len());
        assert_eq!(render_cell(&ra), render_cell(&rb), "{label}: tables differ");
        assert_eq!(
            plain.len(),
            audited.len(),
            "{label}: audit hooks added/dropped events"
        );
        assert_eq!(
            plain.digest(),
            audited.digest(),
            "{label}: audit hooks perturbed the journal"
        );
        assert!(
            !plain.is_empty(),
            "coordinator {label} cell journaled nothing"
        );
    }
}

#[test]
fn audited_gateway_chaos_run_is_digest_identical_to_unaudited() {
    // The "silent when clean" property extended to the serving path:
    // attaching the crash-restore auditor to a gateway cell that replays a
    // mid-run GpuCrash — retries and restores by swap and by recompute —
    // must journal the exact same event stream and digest as the unaudited
    // cell.
    use aqua_bench::serve_chaos::{run_cell_traced, CellSpec, ChaosExperiment};
    use aqua_sim::audit::Auditor;
    use aqua_telemetry::JournalTracer;
    use std::sync::Arc;

    let cfg = ChaosExperiment::standard(24, 3);
    for swap in [true, false] {
        let spec = CellSpec::crashed(swap);
        let restore = spec.restore();
        let plain = Arc::new(JournalTracer::new());
        let audited = Arc::new(JournalTracer::new());
        let auditor = Auditor::with_tracer(audited.clone());
        let ra = run_cell_traced(&cfg, spec, plain.clone(), None);
        let rb = run_cell_traced(&cfg, spec, audited.clone(), Some(auditor.clone()));
        assert!(
            auditor.is_clean(),
            "gateway chaos `{restore}` cell tripped the audit: {:?}",
            auditor.violations()
        );
        assert!(
            ra.retries + rb.retries > 0,
            "`{restore}`: the crash window must have forced retries"
        );
        assert_eq!(ra.streams.len(), rb.streams.len());
        assert_eq!(
            plain.len(),
            audited.len(),
            "`{restore}`: audit hooks added/dropped events"
        );
        assert_eq!(
            plain.digest(),
            audited.digest(),
            "`{restore}`: audit hooks perturbed the journal"
        );
        assert!(
            !plain.is_empty(),
            "gateway chaos `{restore}` cell journaled nothing"
        );
    }
}

#[test]
fn chaos_digest_differs_across_fault_plans() {
    let a = aqua_bench::chaos_degradation::ChaosTimeline::short();
    let mut b = a;
    b.crash_start += 10;
    let (da, _) = traced_chaos_digest(&a);
    let (db, _) = traced_chaos_digest(&b);
    assert_ne!(da, db, "a different crash window must change the journal");
}

#[test]
fn audited_chaos_run_is_digest_identical_to_unaudited() {
    // aqua-audit's "silent when clean" property: attaching the full auditor
    // stack (transfer engine, coordinator, driver, offloader) to a chaos
    // run that trips no invariant must journal the exact same event stream
    // — and digest — as the unaudited run. Audited runs therefore remain
    // comparable against any digest on file.
    use aqua_bench::chaos_degradation::{run_traced, ChaosTimeline};
    use aqua_sim::audit::Auditor;
    use aqua_telemetry::JournalTracer;
    use std::sync::Arc;

    let tl = ChaosTimeline::short();
    let plain = Arc::new(JournalTracer::new());
    let audited = Arc::new(JournalTracer::new());
    let auditor = Auditor::with_tracer(audited.clone());
    let ra = run_traced(&tl, 5, plain.clone(), None);
    let rb = run_traced(&tl, 5, audited.clone(), Some(auditor.clone()));
    assert!(
        auditor.is_clean(),
        "chaos run tripped the audit: {:?}",
        auditor.violations()
    );
    assert_eq!(ra.consumer_tokens, rb.consumer_tokens);
    assert_eq!(
        plain.len(),
        audited.len(),
        "audit hooks added/dropped events"
    );
    assert_eq!(
        plain.digest(),
        audited.digest(),
        "audit hooks perturbed the journal"
    );
    assert!(!plain.is_empty(), "chaos run journaled nothing");
}

aqua_sim::check! {
    /// Seeded fault-plan *generation* is deterministic and schedule-independent:
    /// for any base seed, deriving the fuzzer's points and journalling their
    /// randomized plans produces identical per-point digests at --jobs 1/4/8.
    #[test]
    fn fault_plan_generation_is_job_count_independent(base_seed in 0u64..u64::MAX) {
        use aqua_bench::fuzz::{FuzzInput, FuzzPoint};
        use aqua_bench::sweep::Sweep;
        use aqua_sim::fault::{FaultPlan, RandomFaultProfile};
        use aqua_sim::gpu::GpuId;
        use aqua_sim::time::{SimDuration, SimTime};
        use aqua_sim::topology::PortId;

        let points: Vec<FuzzPoint> = (0..12).map(|i| FuzzPoint::derive(base_seed, i)).collect();
        let generate = |p: &FuzzPoint| {
            let tracer = aqua_bench::trace::tracer();
            let profile = RandomFaultProfile {
                link_ports: vec![PortId::NvlinkEgress(GpuId(1)), PortId::NvlinkIngress(GpuId(1))],
                crash_gpus: vec![GpuId(1)],
                control_plane: true,
                events: p.faults,
                min_duration: SimDuration::from_secs(5),
                max_duration: SimDuration::from_secs(30),
            };
            let plan = FaultPlan::randomized(p.seed, SimTime::from_secs(p.horizon_secs), &profile);
            plan.emit(&tracer);
            plan.windows().len()
        };
        let seq = Sweep::new().run(&points, generate);
        let par4 = Sweep::new().jobs(4).run(&points, generate);
        let par8 = Sweep::new().jobs(8).run(&points, generate);
        assert!(seq.total_events() > 0, "plans must journal fault windows");
        assert_eq!(seq.combined_digest(), par4.combined_digest());
        assert_eq!(seq.combined_digest(), par8.combined_digest());
        for (a, b) in seq.points.iter().zip(par8.points.iter()) {
            assert_eq!(a.result, b.result);
            assert_eq!(a.digest, b.digest);
        }
    }
}

/// The journal digest is folded from each event's fields, never from its
/// rendered line, so over whole runs it must still equal the FNV-1a hash of
/// the JSONL export. The chaos run journals transfers, leases, faults and
/// failover; a small serving point adds the gauges and the gateway
/// lifecycle. Both run through the sweep's per-thread `with_tracer` hook.
#[test]
fn journal_digest_is_the_hash_of_its_jsonl() {
    use aqua::gateway::scheduler::PolicyKind;
    use aqua_bench::chaos_degradation::{self, ChaosTimeline};
    use aqua_bench::serve_schedulers::{self, ServeExperiment};
    use aqua_bench::trace::with_tracer;
    use aqua_telemetry::tracer::FNV_OFFSET;
    use aqua_telemetry::{fnv1a, JournalTracer};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    let chaos = Arc::new(JournalTracer::new());
    with_tracer(chaos.clone(), || {
        chaos_degradation::run(&ChaosTimeline::default(), 10);
    });
    let serve = Arc::new(JournalTracer::new());
    with_tracer(serve.clone(), || {
        let cfg = ServeExperiment::at_rate(2.0, 32, 42);
        serve_schedulers::run_policy(&cfg, PolicyKind::SjfBucket, true);
    });
    for (run, journal, kinds) in [
        (
            "chaos",
            chaos,
            &["transfer_completed", "lease_expired", "failover_engaged"][..],
        ),
        (
            "serve",
            serve,
            &["gauge", "gateway_enqueued", "gateway_completed"][..],
        ),
    ] {
        let seen: BTreeSet<&str> = journal.events().iter().map(|e| e.name()).collect();
        for kind in kinds {
            assert!(seen.contains(kind), "{run} journalled no {kind}: {seen:?}");
        }
        assert_eq!(
            journal.digest(),
            fnv1a(FNV_OFFSET, journal.to_jsonl().as_bytes()),
            "{run}: digest of {} events is not the hash of their JSONL",
            journal.len()
        );
        eprintln!("{run}: {} events of {} kinds", journal.len(), seen.len());
    }
}
