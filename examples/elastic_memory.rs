//! Elastic AQUA tensors: the full donate → offload → reclaim → fallback →
//! re-donate lifecycle, plus the migratable-tensor pointer semantics.
//!
//! Run with: `cargo run --example elastic_memory`

use aqua::core::prelude::*;
use aqua::core::tensor::TensorId;
use aqua::engines::offload::Offloader;
use aqua::sim::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

fn main() {
    // --- Part 1: the AQUA TENSOR abstraction (paper §B). ---
    println!("== AQUA TENSORS: migratable, location-transparent ==");
    let mut table = TensorTable::new();
    let id: TensorId = table.to_responsive_tensor(
        Arc::from(&b"kv-cache-of-prompt-42"[..]),
        TensorLocation::LocalHbm,
    );
    let ptr = table.to_torch_tensor(id).expect("live tensor");
    println!("tensor {id:?} resolved at {}", ptr.location());

    // aqua.respond(): AQUA migrates the tensor between iterations.
    table.migrate(id, TensorLocation::PeerGpu { gpu: 1 });
    match table.read(ptr) {
        Err(stale) => println!("stale pointer rejected safely: {stale}"),
        Ok(_) => unreachable!("migration must invalidate old pointers"),
    }
    let fresh = table.to_torch_tensor(id).expect("re-resolve");
    println!(
        "fresh pointer at {} reads {} bytes intact\n",
        fresh.location(),
        table.read(fresh).expect("valid").len()
    );

    // --- Part 2: the elastic lease lifecycle. ---
    println!("== Elastic leases: donate, offload, reclaim, fall back ==");
    let server = Rc::new(ServerTopology::nvlink_pair(GpuSpec::a100_80g()));
    let transfers = Rc::new(RefCell::new(TransferEngine::new()));
    let coordinator = Rc::new(Coordinator::new());
    let producer = GpuRef::single(GpuId(1));
    let consumer = GpuRef::single(GpuId(0));

    coordinator.lease(producer, 10 << 30);
    println!("producer leased 10 GiB");

    let mut offloader = AquaOffloader::new(consumer, Rc::clone(&coordinator), server, transfers);
    let t = offloader.swap_out(6 << 30, 3_000, SimTime::ZERO);
    println!(
        "consumer offloaded 6 GiB over NVLink in {} (location: {})",
        t,
        offloader.location()
    );

    // The producer's load spikes: it reclaims.
    coordinator.reclaim_request(producer, t);
    let resume = offloader.on_iteration_boundary(SimTime::from_secs(10));
    println!(
        "reclaim: consumer blocked until {} migrating to DRAM (location: {})",
        resume,
        offloader.location()
    );
    match coordinator.reclaim_status(producer) {
        ReclaimStatus::Released { bytes, at } => {
            println!("producer got {} GiB back at {at}", bytes >> 30)
        }
        other => println!("unexpected status {other:?}"),
    }

    // Later the producer donates again; the offloader promotes the bytes
    // back to the fast path in the background.
    coordinator.lease(producer, 10 << 30);
    offloader.on_iteration_boundary(SimTime::from_secs(60));
    println!(
        "after re-donation the context returned to the fast path: {} ({} GiB on peer)",
        offloader.location(),
        offloader.peer_total() >> 30
    );
}
