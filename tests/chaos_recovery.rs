//! Chaos acceptance: a producer GPU crash mid-lease must not lose consumer
//! work, must keep the degraded consumer within 2× of the FlexGen DRAM
//! baseline, and must recover to ≥ 90% of the pre-fault rate once the
//! producer returns and re-donates.

use aqua_bench::chaos_degradation::{run, run_traced, ChaosTimeline};
use aqua_telemetry::JournalTracer;
use std::sync::Arc;

#[test]
fn producer_crash_meets_acceptance_bounds() {
    let tl = ChaosTimeline::short();
    let r = run(&tl, 5);
    // The fault actually happened: the coordinator expired the lease on
    // missed heartbeats and the offloader walked its failover ladder.
    assert!(r.lease_expirations >= 1, "no lease expired: {r:?}");
    assert!(r.failovers >= 1, "no failover engaged: {r:?}");
    assert!(
        r.degraded_entries >= 1,
        "never entered degraded mode: {r:?}"
    );
    // During the fault the consumer keeps moving at DRAM-class speed:
    // within 2× of the FlexGen DRAM baseline.
    assert!(
        r.chaos.fault_tput > 0.0,
        "consumer stalled during the fault"
    );
    assert!(
        r.chaos.fault_tput >= r.dram_baseline_tput / 2.0,
        "degraded throughput {:.2} tok/s vs DRAM baseline {:.2} tok/s",
        r.chaos.fault_tput,
        r.dram_baseline_tput
    );
    // After the producer returns, throughput recovers to >= 90% of what the
    // identical fault-free run does over the same span (the long-prompt
    // job's per-token cost grows with its context, so the healthy run at
    // the same context length is the fair yardstick).
    assert!(
        r.chaos.recovery_tput >= 0.9 * r.nofault_recovery_tput,
        "recovery {:.2} tok/s vs fault-free {:.2} tok/s",
        r.chaos.recovery_tput,
        r.nofault_recovery_tput
    );
}

#[test]
fn no_consumer_progress_is_lost_through_the_crash() {
    let tl = ChaosTimeline::short();
    let journal = Arc::new(JournalTracer::new());
    let sample_secs = 5u64;
    let r = run_traced(&tl, sample_secs, journal.clone(), None);
    assert!(r.consumer_tokens > 0);
    // The in-flight long-prompt job survives the crash: tokens keep being
    // generated after the lease expiry and DRAM re-materialisation.
    let tokens_after_crash: f64 = r
        .consumer_throughput
        .points()
        .iter()
        .filter(|(t, _)| t.as_secs_f64() > (tl.crash_start + 15) as f64)
        .map(|(_, v)| v * sample_secs as f64)
        .sum();
    assert!(
        tokens_after_crash > 0.0,
        "consumer generated nothing after the crash"
    );
    // The journal witnesses the whole failure cascade.
    let names: Vec<&'static str> = journal.events().iter().map(|e| e.name()).collect();
    for expected in [
        "fault_injected",
        "fault_cleared",
        "lease_expired",
        "failover_engaged",
        "degraded_mode",
    ] {
        assert!(
            names.contains(&expected),
            "journal is missing a {expected} event"
        );
    }
}
