//! LoRA adapter descriptors.
//!
//! The paper's LoRA workloads (§6, Figures 8/12, §A.2) use the two most
//! popular public Mistral adapters — Zephyr (≈ 320 MB) and Mteb (≈ 160 MB) —
//! plus synthesized copies at the same sizes. An adapter matters to AQUA in
//! exactly two ways: how many **bytes** must move when a request needs it,
//! and how many **tensors** those bytes are scattered across (vLLM's default
//! loader copies each per-layer tensor separately — many small transfers —
//! while AQUA copies the whole adapter as one coalesced buffer, §B.1).

/// One LoRA adapter.
///
/// # Example
///
/// ```
/// use aqua_models::lora::LoraAdapter;
/// let zephyr = LoraAdapter::zephyr();
/// assert_eq!(zephyr.bytes, 320 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoraAdapter {
    /// Adapter name (for reports).
    pub name: String,
    /// Total adapter bytes.
    pub bytes: u64,
    /// Number of separate tensors the adapter is stored as.
    pub tensor_count: u64,
}

impl LoraAdapter {
    /// Creates an adapter of `bytes` split into `tensor_count` tensors.
    ///
    /// # Panics
    ///
    /// Panics if `tensor_count == 0`.
    pub fn new(name: impl Into<String>, bytes: u64, tensor_count: u64) -> Self {
        assert!(tensor_count > 0, "an adapter has at least one tensor");
        LoraAdapter {
            name: name.into(),
            bytes,
            tensor_count,
        }
    }

    /// The Zephyr adapter for Mistral-7B (≈ 320 MB).
    pub fn zephyr() -> Self {
        Self::sized_like_mistral("zephyr-7b-beta-lora", 320 * 1024 * 1024)
    }

    /// The Mteb / e5-mistral adapter (≈ 160 MB).
    pub fn mteb() -> Self {
        Self::sized_like_mistral("e5-mistral-7b-mteb-lora", 160 * 1024 * 1024)
    }

    /// An adapter of arbitrary size with Mistral's per-layer tensor layout
    /// (used to synthesize the 200-adapter pools of Figure 12).
    pub fn sized_like_mistral(name: impl Into<String>, bytes: u64) -> Self {
        let mistral_layers = 32;
        Self::new(name, bytes, mistral_layers * 4 * 2)
    }

    /// Synthesizes `count` same-sized copies (the paper copies Zephyr/Mteb to
    /// build larger pools).
    pub fn synthesize_pool(&self, count: usize) -> Vec<LoraAdapter> {
        (0..count)
            .map(|i| LoraAdapter {
                name: format!("{}-copy{}", self.name, i),
                bytes: self.bytes,
                tensor_count: self.tensor_count,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::link::BandwidthModel;
    use aqua_sim::transfer::TransferPlan;

    /// The naive loader's plan: one copy per stored tensor.
    fn scattered(a: &LoraAdapter) -> TransferPlan {
        TransferPlan::scattered(a.tensor_count, a.bytes / a.tensor_count)
    }

    #[test]
    fn paper_adapter_sizes() {
        assert_eq!(LoraAdapter::zephyr().bytes, 320 << 20);
        assert_eq!(LoraAdapter::mteb().bytes, 160 << 20);
    }

    #[test]
    fn scattered_plan_covers_all_bytes() {
        let a = LoraAdapter::zephyr();
        let plan = scattered(&a);
        // Integer division may drop a remainder smaller than one tensor.
        assert!(plan.total_bytes() <= a.bytes);
        assert!(a.bytes - plan.total_bytes() < a.tensor_count);
    }

    #[test]
    fn coalesced_load_is_much_faster_on_nvlink() {
        let a = LoraAdapter::zephyr();
        let nv = BandwidthModel::nvlink_a100();
        let scattered = nv.transfer_time(scattered(&a));
        let coalesced = nv.transfer_time(TransferPlan::coalesced(a.bytes));
        assert!(
            scattered.as_secs_f64() > 3.0 * coalesced.as_secs_f64(),
            "scattered {scattered} vs coalesced {coalesced}"
        );
    }

    #[test]
    fn pool_synthesis_names_are_unique() {
        let pool = LoraAdapter::zephyr().synthesize_pool(30);
        assert_eq!(pool.len(), 30);
        let mut names: Vec<_> = pool.iter().map(|a| a.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 30);
        assert!(pool.iter().all(|a| a.bytes == 320 << 20));
    }

    #[test]
    #[should_panic(expected = "at least one tensor")]
    fn zero_tensor_adapter_rejected() {
        LoraAdapter::new("bad", 100, 0);
    }
}
