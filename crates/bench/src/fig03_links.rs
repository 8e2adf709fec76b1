//! Figure 3 — NVLink bandwidth vs buffer size, and the cost of sharing.
//!
//! 3a: observed NVLink bandwidth between two A100s grows with buffer size,
//! reaching ~100 GB/s at 2 MB and ~250 GB/s at large buffers; small buffers
//! are PCIe-slow. 3b: donating memory costs a producer < 5% throughput
//! (S = shared vs I = isolated).

use crate::setup::producer_engine;
use aqua_engines::driver::Engine;
use aqua_engines::northbound::MemoryElastic;
use aqua_engines::request::InferenceRequest;
use aqua_metrics::table::Table;
use aqua_models::zoo;
use aqua_sim::link::BandwidthModel;
use aqua_sim::time::SimTime;

/// One Figure-3a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthPoint {
    /// Buffer size in bytes.
    pub bytes: u64,
    /// Effective NVLink bandwidth, bytes/s.
    pub nvlink: f64,
    /// Effective PCIe bandwidth, bytes/s.
    pub pcie: f64,
}

/// Sweeps buffer sizes over the calibrated link models (Figure 3a).
pub fn run_bandwidth(sizes: &[u64]) -> Vec<BandwidthPoint> {
    let nv = BandwidthModel::nvlink_a100();
    let pcie = BandwidthModel::pcie_gen4_pinned();
    sizes
        .iter()
        .map(|&bytes| BandwidthPoint {
            bytes,
            nvlink: nv.effective_bandwidth(bytes),
            pcie: pcie.effective_bandwidth(bytes),
        })
        .collect()
}

/// One Figure-3b sample: a producer's throughput isolated vs sharing.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingPoint {
    /// Producer model name.
    pub model: String,
    /// Items/s when isolated.
    pub isolated: f64,
    /// Items/s while donating memory.
    pub shared: f64,
}

impl SharingPoint {
    /// Fractional throughput loss from sharing.
    pub fn impact(&self) -> f64 {
        1.0 - self.shared / self.isolated
    }
}

/// Measures producer throughput with and without a donation (Figure 3b).
pub fn run_sharing(batches: usize) -> Vec<SharingPoint> {
    let models = [
        zoo::stable_diffusion(),
        zoo::stable_diffusion_xl(),
        zoo::kandinsky(),
        zoo::musicgen(),
        zoo::audiogen(),
    ];
    models
        .iter()
        .map(|m| {
            let mut isolated = producer_engine(m);
            let mut shared = producer_engine(m);
            let donated = shared.donate(20 << 30);
            assert!(donated > 0);
            let throughput = |e: &mut aqua_engines::producer::ProducerEngine| {
                let mut id = 0u64;
                let mut now = SimTime::ZERO;
                for _ in 0..batches {
                    for _ in 0..64 {
                        e.submit(InferenceRequest::item(id), now);
                        id += 1;
                    }
                    now = e.step(now);
                }
                e.items_served() as f64 / now.as_secs_f64()
            };
            SharingPoint {
                model: m.name.clone(),
                isolated: throughput(&mut isolated),
                shared: throughput(&mut shared),
            }
        })
        .collect()
}

/// Renders Figure 3a.
pub fn bandwidth_table(points: &[BandwidthPoint]) -> Table {
    let mut t = Table::new(
        "Figure 3a: effective bandwidth vs buffer size (2x A100, NVLink)",
        &["buffer", "nvlink_gbps", "pcie_gbps"],
    );
    for p in points {
        let label = if p.bytes >= 1 << 20 {
            format!("{}MiB", p.bytes >> 20)
        } else {
            format!("{}KiB", p.bytes >> 10)
        };
        t.row(&[
            label,
            format!("{:.1}", p.nvlink / 1e9),
            format!("{:.1}", p.pcie / 1e9),
        ]);
    }
    t
}

/// Renders Figure 3b.
pub fn sharing_table(points: &[SharingPoint]) -> Table {
    let mut t = Table::new(
        "Figure 3b: producer throughput, Shared vs Isolated",
        &["model", "isolated_items_s", "shared_items_s", "impact_pct"],
    );
    for p in points {
        t.row(&[
            p.model.clone(),
            format!("{:.3}", p.isolated),
            format!("{:.3}", p.shared),
            format!("{:.1}", 100.0 * p.impact()),
        ]);
    }
    t
}

/// Default buffer-size sweep: 4 KiB to 1 GiB.
pub fn default_sizes() -> Vec<u64> {
    (12..=30).map(|e| 1u64 << e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_curve_matches_figure_3a() {
        let pts = run_bandwidth(&default_sizes());
        let at = |bytes: u64| pts.iter().find(|p| p.bytes == bytes).unwrap();
        // 2 MiB → ~100 GB/s.
        let two_mib = at(2 << 20);
        assert!((80e9..120e9).contains(&two_mib.nvlink));
        // Large buffers → ~250 GB/s, 10x PCIe.
        let big = at(1 << 30);
        assert!(big.nvlink > 240e9);
        assert!(big.nvlink / big.pcie > 8.0);
        // Small buffers → PCIe-class.
        let small = at(1 << 16);
        assert!(small.nvlink < 12e9, "64 KiB NVLink {:.2e}", small.nvlink);
    }

    #[test]
    fn sharing_impact_under_five_percent() {
        for p in run_sharing(3) {
            assert!(
                p.impact() < 0.05,
                "{}: sharing impact {:.3}",
                p.model,
                p.impact()
            );
            assert!(p.impact() >= 0.0, "sharing never speeds things up");
        }
    }

    #[test]
    fn tables_render() {
        assert!(!bandwidth_table(&run_bandwidth(&default_sizes())).is_empty());
        assert!(!sharing_table(&run_sharing(2)).is_empty());
    }
}
