//! Byte-exact encodings of every trace event.
//!
//! Each row pins one instance of a `TraceEvent` variant to its canonical
//! journal line and to its entry in the Chrome trace. The determinism digests
//! hash the journal bytes, and most variants never appear in a benchmark
//! workload, so this table is what proves an encoding change left the bytes
//! alone. Strings with quotes, backslashes and control characters,
//! sub-microsecond times and `u64::MAX` cover the escaping and number
//! formatting paths.

use aqua_telemetry::chrome::chrome_trace;
use aqua_telemetry::time::SimTime;
use aqua_telemetry::tracer::FNV_OFFSET;
use aqua_telemetry::{fnv1a, TraceEvent};
use std::collections::BTreeSet;

fn t(nanos: u64) -> SimTime {
    SimTime::from_nanos(nanos)
}

/// `(event, journal line, Chrome traceEvents entry)` for every variant.
fn rows() -> Vec<(TraceEvent, &'static str, &'static str)> {
    vec![
        (
            TraceEvent::TransferCompleted {
                server: 2,
                lane: "nvlink-ingress:gpu1".into(),
                bytes: 1 << 20,
                chunks: 4,
                queued: t(1_234_567),
                start: t(3_000_500),
                end: t(6_250_999),
            },
            r#"{"event":"transfer_completed","server":2,"lane":"nvlink-ingress:gpu1","bytes":1048576,"chunks":4,"queued":1234567,"start":3000500,"end":6250999}"#,
            r#"{"name":"transfer","cat":"transfer","ph":"X","ts":3000,"pid":3,"tid":1,"dur":3250,"args":{"bytes":1048576,"chunks":4,"queued":1234567}}"#,
        ),
        (
            TraceEvent::LeaseGranted {
                producer: "s0/gpu1".into(),
                lease: 7,
                bytes: 42,
                at: t(6_000_004),
            },
            r#"{"event":"lease_granted","producer":"s0/gpu1","lease":7,"bytes":42,"at":6000004}"#,
            r#"{"name":"lease-granted","cat":"event","ph":"i","s":"t","ts":6000,"pid":0,"tid":1,"args":{"lease":7,"bytes":42}}"#,
        ),
        (
            TraceEvent::LeaseAllocated {
                consumer: "s0/gpu0".into(),
                site: "peer:s0/gpu1".into(),
                bytes: 512,
                at: t(7_000_005),
            },
            r#"{"event":"lease_allocated","consumer":"s0/gpu0","site":"peer:s0/gpu1","bytes":512,"at":7000005}"#,
            r#"{"name":"lease-allocated","cat":"event","ph":"i","s":"t","ts":7000,"pid":0,"tid":1,"args":{"site":"peer:s0/gpu1","bytes":512}}"#,
        ),
        (
            TraceEvent::LeaseFreed {
                consumer: "s0/gpu0".into(),
                lease: 8,
                bytes: 256,
                at: t(8_000_006),
            },
            r#"{"event":"lease_freed","consumer":"s0/gpu0","lease":8,"bytes":256,"at":8000006}"#,
            r#"{"name":"lease-freed","cat":"event","ph":"i","s":"t","ts":8000,"pid":0,"tid":1,"args":{"lease":8,"bytes":256}}"#,
        ),
        (
            TraceEvent::LeasePromoted {
                consumer: "s0/gpu0".into(),
                lease: 9,
                bytes: 128,
                at: t(9_000_007),
            },
            r#"{"event":"lease_promoted","consumer":"s0/gpu0","lease":9,"bytes":128,"at":9000007}"#,
            r#"{"name":"lease-promoted","cat":"event","ph":"i","s":"t","ts":9000,"pid":0,"tid":1,"args":{"lease":9,"bytes":128}}"#,
        ),
        (
            TraceEvent::Donated {
                gpu: "s0/gpu1".into(),
                bytes: 1 << 29,
                at: t(10_000_008),
            },
            r#"{"event":"donated","gpu":"s0/gpu1","bytes":536870912,"at":10000008}"#,
            r#"{"name":"donated","cat":"event","ph":"i","s":"t","ts":10000,"pid":0,"tid":1,"args":{"bytes":536870912}}"#,
        ),
        (
            TraceEvent::ReclaimRequested {
                producer: "s0/gpu1".into(),
                at: t(11_000_009),
            },
            r#"{"event":"reclaim_requested","producer":"s0/gpu1","at":11000009}"#,
            r#"{"name":"reclaim-requested","cat":"event","ph":"i","s":"t","ts":11000,"pid":0,"tid":1,"args":{}}"#,
        ),
        (
            TraceEvent::ReclaimReleased {
                producer: "s0/gpu1".into(),
                lease: 10,
                bytes: 64,
                at: t(12_000_010),
            },
            r#"{"event":"reclaim_released","producer":"s0/gpu1","lease":10,"bytes":64,"at":12000010}"#,
            r#"{"name":"reclaim-released","cat":"event","ph":"i","s":"t","ts":12000,"pid":0,"tid":1,"args":{"lease":10,"bytes":64}}"#,
        ),
        (
            TraceEvent::Reclaimed {
                gpu: "s0/gpu1".into(),
                bytes: 32,
                at: t(13_000_011),
            },
            r#"{"event":"reclaimed","gpu":"s0/gpu1","bytes":32,"at":13000011}"#,
            r#"{"name":"reclaimed","cat":"event","ph":"i","s":"t","ts":13000,"pid":0,"tid":1,"args":{"bytes":32}}"#,
        ),
        (
            TraceEvent::CoordinatorVerb {
                verb: "release".into(),
                detail: "lease \"7\"".into(),
                at: t(14_000_012),
            },
            r#"{"event":"coordinator_verb","verb":"release","detail":"lease \"7\"","at":14000012}"#,
            r#"{"name":"release","cat":"event","ph":"i","s":"t","ts":14000,"pid":0,"tid":1,"args":{"detail":"lease \"7\""}}"#,
        ),
        (
            TraceEvent::InformerDecision {
                gpu: "s0/gpu1".into(),
                decision: "reclaim-start".into(),
                at: t(15_000_013),
            },
            r#"{"event":"informer_decision","gpu":"s0/gpu1","decision":"reclaim-start","at":15000013}"#,
            r#"{"name":"informer-decision","cat":"event","ph":"i","s":"t","ts":15000,"pid":0,"tid":1,"args":{"decision":"reclaim-start"}}"#,
        ),
        (
            TraceEvent::RequestPreempted {
                engine: "vllm:baseline".into(),
                request: 12,
                policy: "swap".into(),
                at: t(17_000_015),
            },
            r#"{"event":"request_preempted","engine":"vllm:baseline","request":12,"policy":"swap","at":17000015}"#,
            r#"{"name":"preempted","cat":"event","ph":"i","s":"t","ts":17000,"pid":0,"tid":1,"args":{"request":12,"policy":"swap"}}"#,
        ),
        (
            TraceEvent::SliceFinished {
                engine: "cfs".into(),
                slice: 5,
                active: 6,
                tokens: 7,
                start: t(18_000_016),
                end: t(18_500_017),
            },
            r#"{"event":"slice_finished","engine":"cfs","slice":5,"active":6,"tokens":7,"start":18000016,"end":18500017}"#,
            r#"{"name":"slice","cat":"scheduler","ph":"X","ts":18000,"pid":0,"tid":1,"dur":500,"args":{"slice":5,"active":6,"tokens":7}}"#,
        ),
        (
            TraceEvent::WindowFetched {
                engine: "flexgen".into(),
                bytes: 999,
                start: t(19_000_018),
                end: t(19_000_999),
            },
            r#"{"event":"window_fetched","engine":"flexgen","bytes":999,"start":19000018,"end":19000999}"#,
            r#"{"name":"window-fetch","cat":"scheduler","ph":"X","ts":19000,"pid":0,"tid":1,"dur":0,"args":{"bytes":999}}"#,
        ),
        (
            TraceEvent::FaultInjected {
                kind: "link-down".into(),
                target: "nvlink-egress:gpu1".into(),
                at: t(21_000_020),
            },
            r#"{"event":"fault_injected","kind":"link-down","target":"nvlink-egress:gpu1","at":21000020}"#,
            r#"{"name":"fault-injected","cat":"fault","ph":"i","s":"t","ts":21000,"pid":0,"tid":1,"args":{"kind":"link-down","target":"nvlink-egress:gpu1"}}"#,
        ),
        (
            TraceEvent::FaultCleared {
                kind: "gpu-crash".into(),
                target: "s0/gpu2".into(),
                at: t(22_000_021),
            },
            r#"{"event":"fault_cleared","kind":"gpu-crash","target":"s0/gpu2","at":22000021}"#,
            r#"{"name":"fault-cleared","cat":"fault","ph":"i","s":"t","ts":22000,"pid":0,"tid":1,"args":{"kind":"gpu-crash","target":"s0/gpu2"}}"#,
        ),
        (
            TraceEvent::TransferAborted {
                server: 3,
                lane: "nvlink-egress:gpu2".into(),
                bytes: 1000,
                partial: 400,
                at: t(23_000_022),
            },
            r#"{"event":"transfer_aborted","server":3,"lane":"nvlink-egress:gpu2","bytes":1000,"partial":400,"at":23000022}"#,
            r#"{"name":"transfer-aborted","cat":"transfer","ph":"i","s":"t","ts":23000,"pid":4,"tid":1,"args":{"bytes":1000,"partial":400}}"#,
        ),
        (
            TraceEvent::TransferRetried {
                consumer: "s0/gpu0".into(),
                attempt: 2,
                at: t(24_000_023),
            },
            r#"{"event":"transfer_retried","consumer":"s0/gpu0","attempt":2,"at":24000023}"#,
            r#"{"name":"transfer-retried","cat":"event","ph":"i","s":"t","ts":24000,"pid":0,"tid":1,"args":{"attempt":2}}"#,
        ),
        (
            TraceEvent::FailoverEngaged {
                consumer: "s0/gpu0".into(),
                from: "peer:gpu1".into(),
                to: "dram".into(),
                bytes: 77,
                at: t(25_000_024),
            },
            r#"{"event":"failover_engaged","consumer":"s0/gpu0","from":"peer:gpu1","to":"dram","bytes":77,"at":25000024}"#,
            r#"{"name":"failover-engaged","cat":"event","ph":"i","s":"t","ts":25000,"pid":0,"tid":1,"args":{"from":"peer:gpu1","to":"dram","bytes":77}}"#,
        ),
        (
            TraceEvent::LeaseExpired {
                producer: "s0/gpu1".into(),
                lease: 13,
                stranded: 55,
                at: t(26_000_025),
            },
            r#"{"event":"lease_expired","producer":"s0/gpu1","lease":13,"stranded":55,"at":26000025}"#,
            r#"{"name":"lease-expired","cat":"event","ph":"i","s":"t","ts":26000,"pid":0,"tid":1,"args":{"lease":13,"stranded":55}}"#,
        ),
        (
            TraceEvent::LeaseForceRevoked {
                producer: "s0/gpu1".into(),
                lease: 14,
                stranded: 66,
                at: t(27_000_026),
            },
            r#"{"event":"lease_force_revoked","producer":"s0/gpu1","lease":14,"stranded":66,"at":27000026}"#,
            r#"{"name":"lease-force-revoked","cat":"event","ph":"i","s":"t","ts":27000,"pid":0,"tid":1,"args":{"lease":14,"stranded":66}}"#,
        ),
        (
            TraceEvent::DegradedMode {
                consumer: "s0/gpu0".into(),
                state: "enter".into(),
                at: t(28_000_027),
            },
            r#"{"event":"degraded_mode","consumer":"s0/gpu0","state":"enter","at":28000027}"#,
            r#"{"name":"degraded-mode","cat":"event","ph":"i","s":"t","ts":28000,"pid":0,"tid":1,"args":{"state":"enter"}}"#,
        ),
        (
            TraceEvent::GatewayEnqueued {
                gateway: "gw".into(),
                tenant: 1,
                request: 15,
                at: t(29_000_028),
            },
            r#"{"event":"gateway_enqueued","gateway":"gw","tenant":1,"request":15,"at":29000028}"#,
            r#"{"name":"gateway-enqueued","cat":"event","ph":"i","s":"t","ts":29000,"pid":0,"tid":1,"args":{"tenant":1,"request":15}}"#,
        ),
        (
            TraceEvent::RequestScheduled {
                gateway: "gw".into(),
                policy: "sjf+bucket".into(),
                request: 16,
                at: t(30_000_029),
            },
            r#"{"event":"request_scheduled","gateway":"gw","policy":"sjf+bucket","request":16,"at":30000029}"#,
            r#"{"name":"scheduled","cat":"event","ph":"i","s":"t","ts":30000,"pid":0,"tid":1,"args":{"policy":"sjf+bucket","request":16}}"#,
        ),
        (
            TraceEvent::FirstTokenEmitted {
                gateway: "gw".into(),
                request: 17,
                at: t(31_000_030),
            },
            r#"{"event":"first_token_emitted","gateway":"gw","request":17,"at":31000030}"#,
            r#"{"name":"first-token","cat":"event","ph":"i","s":"t","ts":31000,"pid":0,"tid":1,"args":{"request":17}}"#,
        ),
        (
            TraceEvent::GatewayCompleted {
                gateway: "gw".into(),
                request: 18,
                output_tokens: 128,
                at: t(32_000_031),
            },
            r#"{"event":"gateway_completed","gateway":"gw","request":18,"output_tokens":128,"at":32000031}"#,
            r#"{"name":"gateway-completed","cat":"event","ph":"i","s":"t","ts":32000,"pid":0,"tid":1,"args":{"request":18,"output_tokens":128}}"#,
        ),
        (
            TraceEvent::RequestShed {
                gateway: "gw".into(),
                tenant: 2,
                request: 19,
                reason: "queue_depth".into(),
                at: t(33_000_032),
            },
            r#"{"event":"request_shed","gateway":"gw","tenant":2,"request":19,"reason":"queue_depth","at":33000032}"#,
            r#"{"name":"request-shed","cat":"event","ph":"i","s":"t","ts":33000,"pid":0,"tid":1,"args":{"tenant":2,"request":19,"reason":"queue_depth"}}"#,
        ),
        (
            TraceEvent::RequestTimedOut {
                gateway: "gw".into(),
                request: 20,
                deadline: "ttft".into(),
                at: t(34_000_033),
            },
            r#"{"event":"request_timed_out","gateway":"gw","request":20,"deadline":"ttft","at":34000033}"#,
            r#"{"name":"request-timed-out","cat":"event","ph":"i","s":"t","ts":34000,"pid":0,"tid":1,"args":{"request":20,"deadline":"ttft"}}"#,
        ),
        (
            TraceEvent::RequestCrashAborted {
                gateway: "gw".into(),
                request: 21,
                generated: 9,
                at: t(35_000_034),
            },
            r#"{"event":"request_crash_aborted","gateway":"gw","request":21,"generated":9,"at":35000034}"#,
            r#"{"name":"request-crash-aborted","cat":"event","ph":"i","s":"t","ts":35000,"pid":0,"tid":1,"args":{"request":21,"generated":9}}"#,
        ),
        (
            TraceEvent::RequestRetried {
                gateway: "gw".into(),
                request: 22,
                attempt: 1,
                at: t(36_000_035),
            },
            r#"{"event":"request_retried","gateway":"gw","request":22,"attempt":1,"at":36000035}"#,
            r#"{"name":"request-retried","cat":"event","ph":"i","s":"t","ts":36000,"pid":0,"tid":1,"args":{"request":22,"attempt":1}}"#,
        ),
        (
            TraceEvent::RequestRestored {
                gateway: "gw".into(),
                request: 23,
                mode: "recompute".into(),
                bytes: 4096,
                at: t(37_000_036),
            },
            r#"{"event":"request_restored","gateway":"gw","request":23,"mode":"recompute","bytes":4096,"at":37000036}"#,
            r#"{"name":"request-restored","cat":"event","ph":"i","s":"t","ts":37000,"pid":0,"tid":1,"args":{"request":23,"mode":"recompute","bytes":4096}}"#,
        ),
        (
            TraceEvent::GatewayBrownout {
                gateway: "gw".into(),
                state: "exit".into(),
                at: t(38_000_037),
            },
            r#"{"event":"gateway_brownout","gateway":"gw","state":"exit","at":38000037}"#,
            r#"{"name":"gateway-brownout","cat":"event","ph":"i","s":"t","ts":38000,"pid":0,"tid":1,"args":{"state":"exit"}}"#,
        ),
        (
            TraceEvent::CoordinatorCrashed {
                epoch: 2,
                lost_leases: 3,
                lost_bytes: 1 << 30,
                at: t(39_000_038),
            },
            r#"{"event":"coordinator_crashed","epoch":2,"lost_leases":3,"lost_bytes":1073741824,"at":39000038}"#,
            r#"{"name":"coordinator-crashed","cat":"event","ph":"i","s":"t","ts":39000,"pid":0,"tid":1,"args":{"epoch":2,"lost_leases":3,"lost_bytes":1073741824}}"#,
        ),
        (
            TraceEvent::CoordinatorRecovered {
                epoch: 2,
                at: t(40_000_039),
            },
            r#"{"event":"coordinator_recovered","epoch":2,"at":40000039}"#,
            r#"{"name":"coordinator-recovered","cat":"event","ph":"i","s":"t","ts":40000,"pid":0,"tid":1,"args":{"epoch":2}}"#,
        ),
        (
            TraceEvent::EpochBumped {
                from: 1,
                to: 2,
                at: t(41_000_040),
            },
            r#"{"event":"epoch_bumped","from":1,"to":2,"at":41000040}"#,
            r#"{"name":"epoch-bumped","cat":"event","ph":"i","s":"t","ts":41000,"pid":0,"tid":1,"args":{"from":1,"to":2}}"#,
        ),
        (
            TraceEvent::StaleEpochRejected {
                verb: "free".into(),
                held: 1,
                current: 2,
                at: t(42_000_041),
            },
            r#"{"event":"stale_epoch_rejected","verb":"free","held":1,"current":2,"at":42000041}"#,
            r#"{"name":"stale-epoch-rejected","cat":"event","ph":"i","s":"t","ts":42000,"pid":0,"tid":1,"args":{"verb":"free","held":1,"current":2}}"#,
        ),
        (
            TraceEvent::PartitionStarted {
                split: 4,
                at: t(43_000_042),
            },
            r#"{"event":"partition_started","split":4,"at":43000042}"#,
            r#"{"name":"partition-started","cat":"fault","ph":"i","s":"t","ts":43000,"pid":0,"tid":1,"args":{"split":4}}"#,
        ),
        (
            TraceEvent::PartitionHealed {
                split: 4,
                at: t(44_000_043),
            },
            r#"{"event":"partition_healed","split":4,"at":44000043}"#,
            r#"{"name":"partition-healed","cat":"fault","ph":"i","s":"t","ts":44000,"pid":0,"tid":1,"args":{"split":4}}"#,
        ),
        (
            TraceEvent::LeaseReconciled {
                producer: "s0/gpu1".into(),
                lease: u64::MAX,
                bytes: 1 << 28,
                epoch: 3,
                outcome: "rehomed".into(),
                at: t(45_000_044),
            },
            r#"{"event":"lease_reconciled","producer":"s0/gpu1","lease":18446744073709551615,"bytes":268435456,"epoch":3,"outcome":"rehomed","at":45000044}"#,
            r#"{"name":"lease-reconciled","cat":"event","ph":"i","s":"t","ts":45000,"pid":0,"tid":1,"args":{"lease":18446744073709551615,"bytes":268435456,"epoch":3,"outcome":"rehomed"}}"#,
        ),
        (
            TraceEvent::AuditViolation {
                kind: "double_free".into(),
                scope: "coordinator".into(),
                detail: "quote \" slash \\ bell \u{7} newline \n".into(),
                at: t(46_000_045),
            },
            r#"{"event":"audit_violation","kind":"double_free","scope":"coordinator","detail":"quote \" slash \\ bell \u0007 newline \n","at":46000045}"#,
            r#"{"name":"audit-violation","cat":"audit","ph":"i","s":"t","ts":46000,"pid":0,"tid":1,"args":{"kind":"double_free","scope":"coordinator","detail":"quote \" slash \\ bell \u0007 newline \n"}}"#,
        ),
    ]
}

/// A journal that reuses lanes across events and servers, out of time order,
/// with one gateway's edges, whose levels render as counter tracks.
fn mixed_journal() -> Vec<TraceEvent> {
    vec![
        TraceEvent::TransferCompleted {
            server: 1,
            lane: "nvlink-egress:gpu0".into(),
            bytes: 100,
            chunks: 1,
            queued: t(4_000_000),
            start: t(5_000_000),
            end: t(7_000_000),
        },
        TraceEvent::LeaseGranted {
            producer: "s0/gpu1".into(),
            lease: 1,
            bytes: 10,
            at: t(1_000_000),
        },
        TraceEvent::TransferCompleted {
            server: 0,
            lane: "nvlink-egress:gpu0".into(),
            bytes: 100,
            chunks: 1,
            queued: t(2_000_000),
            start: t(2_000_000),
            end: t(3_000_000),
        },
        TraceEvent::TransferCompleted {
            server: 1,
            lane: "nvlink-egress:gpu0".into(),
            bytes: 50,
            chunks: 1,
            queued: t(5_000_000),
            start: t(7_000_000),
            end: t(8_000_000),
        },
        TraceEvent::GatewayEnqueued {
            gateway: "gw".into(),
            tenant: 0,
            request: 9,
            at: t(1_000_000),
        },
        TraceEvent::RequestScheduled {
            gateway: "gw".into(),
            policy: "fcfs".into(),
            request: 9,
            at: t(3_000_000),
        },
        TraceEvent::CoordinatorVerb {
            verb: "grant".into(),
            detail: "1".into(),
            at: t(1_000_000),
        },
        TraceEvent::Donated {
            gpu: "s0/gpu1".into(),
            bytes: 10,
            at: t(500_000),
        },
    ]
}

#[test]
fn journal_lines_are_pinned() {
    for (event, line, _) in rows() {
        assert_eq!(
            event.to_json_line(),
            line,
            "journal line of {}",
            event.name()
        );
        let stamp = event.at().as_nanos();
        assert!(
            line.contains(&format!(",\"at\":{stamp}}}"))
                || line.contains(&format!(",\"start\":{stamp},")),
            "at() of {} is not its at/start field",
            event.name()
        );
    }
}

/// Strings with and without characters to escape, each with its journal
/// line.
fn string_cases() -> Vec<(TraceEvent, &'static str)> {
    vec![(
        TraceEvent::CoordinatorVerb {
            verb: "s0/gpu1 ✓".into(),
            detail: "s0/gpu1 \\ \"✓\"\u{1}".into(),
            at: t(7),
        },
        r#"{"event":"coordinator_verb","verb":"s0/gpu1 ✓","detail":"s0/gpu1 \\ \"✓\"\u0001","at":7}"#,
    )]
}

#[test]
fn string_encodings_are_pinned() {
    for (event, line) in string_cases() {
        assert_eq!(event.to_json_line(), line);
    }
}

/// The journal digest folds each event straight from its fields, with
/// constant prefixes and interned labels skipped by table once they are
/// hot. From any state it must land exactly where hashing the rendered line
/// and its newline does: every golden instance, the string cases, and
/// interned labels that need escaping. Each event is folded from 129 states, enough for every prefix
/// and label to turn hot, so both the byte path and the table path run.
#[test]
fn digest_fold_matches_the_rendered_line() {
    let extra = [
        TraceEvent::RequestPreempted {
            engine: "scope \"q\"\u{1f} ✓".into(),
            request: 3,
            policy: "swap".into(),
            at: t(u64::MAX),
        },
        TraceEvent::GatewayCompleted {
            gateway: "gw\\\n\t".into(),
            request: 0,
            output_tokens: u64::MAX,
            at: t(0),
        },
    ];
    let events = rows()
        .into_iter()
        .map(|(event, ..)| event)
        .chain(string_cases().into_iter().map(|(event, _)| event))
        .chain(mixed_journal())
        .chain(extra);
    for event in events {
        let line = event.to_json_line() + "\n";
        let states = (0..128u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for state in states.chain([FNV_OFFSET]) {
            assert_eq!(
                event.fold_digest(state),
                fnv1a(state, line.as_bytes()),
                "state {state:#x}, line {line}"
            );
        }
    }
}

#[test]
fn chrome_entries_are_pinned() {
    for (event, _, entry) in rows() {
        let doc = chrome_trace(std::slice::from_ref(&event));
        assert!(
            doc.ends_with(&format!(",{entry}]}}")),
            "Chrome entry of {}:\n{doc}",
            event.name()
        );
    }
}

#[test]
fn journal_names_are_unique() {
    let rows = rows();
    let names: BTreeSet<&str> = rows.iter().map(|(event, ..)| event.name()).collect();
    assert_eq!(names.len(), rows.len(), "two variants share a journal name");
    let table: BTreeSet<&str> = TraceEvent::NAMES.iter().copied().collect();
    assert_eq!(
        table.len(),
        TraceEvent::NAMES.len(),
        "two table rows share a journal name"
    );
    assert_eq!(names, table, "one golden row per TraceEvent variant");
}

#[test]
fn chrome_document_is_pinned() {
    assert_eq!(
        chrome_trace(&mixed_journal()),
        concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"process_name","ph":"M","pid":0,"args":{"name":"aqua"}},"#,
            r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"server0"}},"#,
            r#"{"name":"process_name","ph":"M","pid":2,"args":{"name":"server1"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"nvlink-egress:gpu0"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"s0/gpu1"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"nvlink-egress:gpu0"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":4,"args":{"name":"gw"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":5,"args":{"name":"coordinator"}},"#,
            r#"{"name":"donated","cat":"event","ph":"i","s":"t","ts":500,"pid":0,"tid":2,"args":{"bytes":10}},"#,
            r#"{"name":"gw.queue_depth","cat":"level","ph":"C","ts":1000,"pid":0,"tid":0,"args":{"value":1}},"#,
            r#"{"name":"gw.running","cat":"level","ph":"C","ts":1000,"pid":0,"tid":0,"args":{"value":0}},"#,
            r#"{"name":"lease-granted","cat":"event","ph":"i","s":"t","ts":1000,"pid":0,"tid":2,"args":{"lease":1,"bytes":10}},"#,
            r#"{"name":"gateway-enqueued","cat":"event","ph":"i","s":"t","ts":1000,"pid":0,"tid":4,"args":{"tenant":0,"request":9}},"#,
            r#"{"name":"grant","cat":"event","ph":"i","s":"t","ts":1000,"pid":0,"tid":5,"args":{"detail":"1"}},"#,
            r#"{"name":"transfer","cat":"transfer","ph":"X","ts":2000,"pid":1,"tid":3,"dur":1000,"args":{"bytes":100,"chunks":1,"queued":2000000}},"#,
            r#"{"name":"gw.queue_depth","cat":"level","ph":"C","ts":3000,"pid":0,"tid":0,"args":{"value":0}},"#,
            r#"{"name":"gw.running","cat":"level","ph":"C","ts":3000,"pid":0,"tid":0,"args":{"value":1}},"#,
            r#"{"name":"scheduled","cat":"event","ph":"i","s":"t","ts":3000,"pid":0,"tid":4,"args":{"policy":"fcfs","request":9}},"#,
            r#"{"name":"transfer","cat":"transfer","ph":"X","ts":5000,"pid":2,"tid":1,"dur":2000,"args":{"bytes":100,"chunks":1,"queued":4000000}},"#,
            r#"{"name":"transfer","cat":"transfer","ph":"X","ts":7000,"pid":2,"tid":1,"dur":1000,"args":{"bytes":50,"chunks":1,"queued":5000000}}]}"#,
        )
    );
}
