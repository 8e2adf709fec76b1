//! Cross-crate integration of the AQUA control plane, built only from the
//! public API of the workspace crates (no bench harness): coordinator,
//! offloader, informers, engines and driver working together.

use aqua::core::coordinator::{AllocationSite, GpuRef, ReclaimStatus};
use aqua::core::informer::{LlmInformer, LlmInformerConfig};
use aqua::core::prelude::*;
use aqua::engines::driver::{Driver, Engine};
use aqua::engines::northbound::MemoryElastic;
use aqua::engines::offload::Offloader;
use aqua::engines::request::InferenceRequest;
use aqua::gateway::engine::{GatewayConfig, GatewayEngine};
use aqua::gateway::scheduler::PolicyKind;
use aqua::models::zoo;
use aqua::sim::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn setup() -> (
    Rc<ServerTopology>,
    Rc<RefCell<TransferEngine>>,
    Rc<Coordinator>,
) {
    (
        Rc::new(ServerTopology::nvlink_pair(GpuSpec::a100_80g())),
        Rc::new(RefCell::new(TransferEngine::new())),
        Rc::new(Coordinator::new()),
    )
}

/// The full producer→consumer→reclaim protocol driven through the
/// coordinator's endpoint verbs, with real transfer timing in between.
#[test]
fn protocol_round_trip_with_transfers() {
    let (server, transfers, coord) = setup();
    let producer = GpuRef::single(GpuId(1));
    let consumer = GpuRef::single(GpuId(0));

    // Producer donates.
    let lease = coord.lease(producer, 16 << 30);

    // Consumer offloads through the real offloader.
    let mut off = AquaOffloader::new(consumer, Rc::clone(&coord), server, transfers);
    let t1 = off.swap_out(8 << 30, 4096, SimTime::ZERO);
    assert!(t1.as_secs_f64() < 0.1, "8 GiB over NVLink in tens of ms");
    assert_eq!(coord.used_bytes(), 8 << 30);

    // Producer requests its memory back; consumer must migrate.
    coord.reclaim_request(producer, t1);
    assert_eq!(coord.pending_reclaim(lease), 8 << 30);
    let resume = off.on_iteration_boundary(t1);
    assert!(resume > t1, "release blocks the consumer");
    assert_eq!(off.dram_total(), 8 << 30);
    assert!(matches!(
        coord.reclaim_status(producer),
        ReclaimStatus::Released { bytes, .. } if bytes == 16 << 30
    ));
}

/// A vLLM producer with an llm-informer donates under low load and takes
/// the memory back under a burst — end to end through the driver.
#[test]
fn llm_producer_lifecycle_through_driver() {
    let (_server, _transfers, coord) = setup();
    let geom = *zoo::llama2_13b().llm_geometry().unwrap();
    let producer_ref = GpuRef::single(GpuId(1));
    let mut producer = GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        PolicyKind::Fcfs,
        GatewayConfig {
            kv_pool_bytes: 40 << 30,
            ..GatewayConfig::vllm()
        },
    )
    .with_informer(Box::new(LlmInformer::new(
        producer_ref,
        Rc::clone(&coord),
        LlmInformerConfig::default(),
    )));

    // Idle ticks let the informer observe a quiet window and donate.
    let mut driver = Driver::new();
    {
        let mut engines: Vec<&mut dyn Engine> = vec![&mut producer];
        driver.run(&mut engines, SimTime::from_secs(2));
    }
    let donated = producer.donated_bytes();
    assert!(donated > 30 << 30, "quiet producer donates, got {donated}");
    assert_eq!(coord.leased_bytes(), donated);

    // A burst of requests builds the queue past the high-water mark.
    for i in 0..40 {
        driver.schedule_arrival(
            0,
            SimTime::from_secs(2),
            InferenceRequest::text(i, 6_000, 400),
        );
    }
    {
        let mut engines: Vec<&mut dyn Engine> = vec![&mut producer];
        driver.run(&mut engines, SimTime::from_secs(40));
    }
    assert_eq!(
        producer.donated_bytes(),
        0,
        "burst must trigger a reclaim (queue={}, kv={}B free)",
        producer.queue_depth(),
        producer.kv().free_bytes()
    );
    assert_eq!(coord.leased_bytes(), 0);
}

/// Transparent DRAM fallback: with no producer anywhere, AQUA degrades to
/// the DRAM path at PCIe speed ("AQUA-LIB falls back to using the DRAM for
/// offloading tensors, just like previous work", §3).
#[test]
fn dram_fallback_without_producers() {
    let (server, transfers, coord) = setup();
    assert_eq!(
        coord.allocate(GpuRef::single(GpuId(0)), 1 << 30),
        AllocationSite::Dram
    );
    let mut off = AquaOffloader::new(
        GpuRef::single(GpuId(0)),
        Rc::clone(&coord),
        server,
        transfers,
    );
    let t = off.swap_out(2 << 30, 1024, SimTime::ZERO);
    assert_eq!(off.dram_total(), 2 << 30);
    assert_eq!(off.peer_total(), 0);
    // 2 GiB at 25 GB/s PCIe ≈ 86 ms — an order slower than NVLink.
    assert!(
        t.as_secs_f64() > 0.05,
        "fallback runs at PCIe speed, t = {t}"
    );
}

/// Engines expose coherent northbound stats throughout a run.
#[test]
fn northbound_stats_are_coherent() {
    let geom = *zoo::mistral_7b().llm_geometry().unwrap();
    let mut engine = GatewayEngine::new(
        geom,
        GpuSpec::a100_80g(),
        PolicyKind::Fcfs,
        GatewayConfig::vllm(),
    );
    for i in 0..10 {
        engine.submit(InferenceRequest::text(i, 128, 32), SimTime::ZERO);
    }
    let mut now = SimTime::ZERO;
    while engine.has_work() {
        now = engine.step(now);
        let stats = engine.stats();
        assert!(stats.context_used_bytes <= stats.context_reserved_bytes);
        assert!(stats.context_utilization() <= 1.0);
        assert!(stats.donatable_bytes <= stats.context_reserved_bytes);
    }
    assert_eq!(engine.drain_completions().len(), 10);
}
