//! Paged KV-cache pool (vLLM's PagedAttention pool), counted in blocks.
//!
//! vLLM reserves the HBM left after loading model weights as a pool of
//! fixed-size blocks and maps each sequence's KV cache onto whole blocks
//! (§2, \[32\]). Two properties matter to AQUA:
//!
//! * Admission control: a request is only admitted when enough blocks are
//!   free for its prompt — otherwise it queues (the source of Figure 1a's
//!   TTFT spikes).
//! * Elasticity: an LLM producer *donates* free pool capacity to AQUA and
//!   reclaims it later (§B.1).
//!
//! Both depend on how many blocks each sequence holds, never on which, so
//! the pool keeps each sequence's tokens and block count and no block
//! identity: no free list and no block tables. Nothing else reads block identity
//! either: swap chunk counts follow from the model's layers. §B.1's
//! compaction copy, which moves scattered live blocks below a donated cut,
//! is therefore neither modelled nor timed.
//!
//! Per-sequence state is stored struct-of-arrays (dense parallel vectors
//! indexed through a multiply-shift-hashed `RequestId → slot` map, freed
//! slots swap-removed), and the pool maintains running `used_blocks` /
//! `total_tokens` / `full_seqs` counters so the admission checks, decode
//! headroom checks and usage reads the engines issue every decode
//! iteration are O(1) instead of a scan over every live sequence.
//!
//! Decode growth is the simulator's hottest path. An engine whose batch is
//! exactly the pool's live sequences advances all of them with one
//! [`PagedKvCache::grow_each_by_one`]: a single pass over the dense arrays,
//! with no hash probe and no division (each sequence's block count,
//! `⌈tokens / bt⌉` for `bt` tokens per block, is kept for that).
//! [`PagedKvCache::grow_seq`] skips the division too whenever the growth
//! fits in the sequence's last block.
//!
//! A run of such steps over an unchanged set of sequences is planned and
//! taken at once. A sequence's *block phase*, `blocks·bt − tokens` (the
//! free token slots of its last block), fixes the steps at which it takes
//! a block: steps `phase + 1`, `phase + 1 + bt`, … So
//! [`PagedKvCache::plan_decode_growth`] counts the sequences per phase
//! once, after which [`DecodeGrowth`] answers the blocks of any number of
//! steps, and the most steps the free blocks cover, in O(1) and O(log bt);
//! [`PagedKvCache::grow_each_by`] then takes `k` steps' blocks in one pass,
//! leaving the pool exactly as `k` calls of `grow_each_by_one` would.

use aqua_models::geometry::LlmGeometry;
use aqua_sim::hash::PackedKeyMap;

use crate::request::RequestId;

/// Default tokens per KV block (vLLM's default block size).
pub const DEFAULT_BLOCK_TOKENS: u64 = 16;

/// A paged KV-cache pool for one model on one GPU.
///
/// # Example
///
/// ```
/// use aqua_engines::kvcache::PagedKvCache;
/// use aqua_engines::request::RequestId;
/// use aqua_models::zoo;
///
/// let geom = *zoo::mistral_7b().llm_geometry().unwrap();
/// let mut kv = PagedKvCache::new(geom, 1 << 30, 16);
/// assert!(kv.can_fit_tokens(1000));
/// kv.grow_seq(RequestId(1), 1000).unwrap();
/// assert_eq!(kv.blocks_of(RequestId(1)), Some(63)); // ceil(1000/16)
/// kv.free_seq(RequestId(1));
/// assert_eq!(kv.used_blocks(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PagedKvCache {
    geom: LlmGeometry,
    block_tokens: u64,
    total_blocks: u64,
    /// Struct-of-arrays per-sequence state: `seq_ids[i]`, `seq_tokens[i]`
    /// and `seq_blocks[i]` (always `⌈seq_tokens[i] / block_tokens⌉`)
    /// describe the same sequence; `index` maps a request id to its slot
    /// `i`. Frees swap-remove, so iteration order is dense and
    /// deterministic for a given operation sequence.
    seq_ids: Vec<RequestId>,
    seq_tokens: Vec<u64>,
    seq_blocks: Vec<u64>,
    index: PackedKeyMap<RequestId, usize>,
    /// Running totals maintained by grow/free so the per-iteration
    /// admission and usage queries never scan live sequences.
    used_blocks: u64,
    total_tokens: u64,
    /// Live sequences whose last block is full (or that hold no block), so
    /// their next token needs a fresh block.
    full_seqs: usize,
    /// The buffer of [`PagedKvCache::grow_each_by`]'s plan, allocated by
    /// its first call: empty between calls.
    phase_scratch: Vec<u64>,
}

/// The KV blocks of a run of decode steps over every live sequence of a
/// pool (each step one [`PagedKvCache::grow_each_by_one`]), planned by
/// [`PagedKvCache::plan_decode_growth`] from the pool at the run's start.
/// Every sequence takes exactly one block per `bt` steps, so the plan
/// keeps one cycle.
///
/// # Example
///
/// ```
/// use aqua_engines::kvcache::{DecodeGrowth, PagedKvCache};
/// use aqua_engines::request::RequestId;
/// use aqua_models::zoo;
///
/// let geom = *zoo::mistral_7b().llm_geometry().unwrap();
/// let mut kv = PagedKvCache::new(geom, 1 << 30, 16);
/// kv.grow_seq(RequestId(1), 16).unwrap(); // full: a block at step 1
/// kv.grow_seq(RequestId(2), 10).unwrap(); // 6 slots left: step 7
/// let mut plan = DecodeGrowth::default();
/// kv.plan_decode_growth(&mut plan);
/// assert_eq!(plan.blocks(1), 1);
/// assert_eq!(plan.blocks(7), 2);
/// assert_eq!(plan.blocks(17), 3);
/// assert_eq!(plan.steps_within(2), 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DecodeGrowth {
    /// Live sequences at the run's start.
    seqs: u64,
    /// `taken[r]`: blocks the first `r` steps take, for `r` in `0..=bt`
    /// (the sequences whose phase is below `r`; `taken[bt]` is `seqs`).
    taken: Vec<u64>,
}

impl DecodeGrowth {
    fn block_tokens(&self) -> u64 {
        self.taken.len() as u64 - 1
    }

    /// Blocks the first `steps` steps of the run take. O(1).
    pub fn blocks(&self, steps: u64) -> u64 {
        let bt = self.block_tokens();
        steps / bt * self.seqs + self.taken[(steps % bt) as usize]
    }

    /// The most steps whose blocks fit in `free` blocks: step
    /// `steps_within(free) + 1` is the first that
    /// [`PagedKvCache::grow_each_by_one`] would refuse (`u64::MAX` for a
    /// pool with no live sequence, whose steps take nothing).
    pub fn steps_within(&self, free: u64) -> u64 {
        if self.seqs == 0 {
            return u64::MAX;
        }
        let cycles = free / self.seqs;
        let left = free % self.seqs;
        // `taken[0] = 0 <= left < seqs = taken[bt]`.
        let steps = self.taken.partition_point(|&t| t <= left) as u64 - 1;
        cycles * self.block_tokens() + steps
    }
}

/// Error returned when the pool cannot satisfy a block request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOutOfBlocks {
    /// Blocks requested.
    pub requested: u64,
    /// Blocks free.
    pub free: u64,
}

impl std::fmt::Display for KvOutOfBlocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kv pool exhausted: requested {} blocks, {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for KvOutOfBlocks {}

impl PagedKvCache {
    /// Creates a pool of `pool_bytes` of KV storage for `geom`, paged into
    /// blocks of `block_tokens` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens == 0`.
    pub fn new(geom: LlmGeometry, pool_bytes: u64, block_tokens: u64) -> Self {
        assert!(block_tokens > 0, "block size must be positive");
        let block_bytes = geom.kv_bytes_per_token() * block_tokens;
        let total_blocks = pool_bytes / block_bytes;
        PagedKvCache {
            geom,
            block_tokens,
            total_blocks,
            seq_ids: Vec::new(),
            seq_tokens: Vec::new(),
            seq_blocks: Vec::new(),
            index: PackedKeyMap::default(),
            used_blocks: 0,
            total_tokens: 0,
            full_seqs: 0,
            phase_scratch: Vec::new(),
        }
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> u64 {
        self.block_tokens
    }

    /// Blocks that `tokens` tokens of one sequence occupy.
    pub fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_tokens)
    }

    /// Bytes of one KV block.
    pub fn block_bytes(&self) -> u64 {
        self.geom.kv_bytes_per_token() * self.block_tokens
    }

    /// Total pool capacity in blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Blocks currently mapped to sequences. O(1).
    pub fn used_blocks(&self) -> u64 {
        self.used_blocks
    }

    /// Blocks currently free. O(1).
    pub fn free_blocks(&self) -> u64 {
        self.total_blocks - self.used_blocks
    }

    /// Tokens the free blocks hold. O(1).
    pub fn free_tokens(&self) -> u64 {
        self.free_blocks() * self.block_tokens
    }

    /// Total pool capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_blocks * self.block_bytes()
    }

    /// Bytes currently mapped.
    pub fn used_bytes(&self) -> u64 {
        self.used_blocks() * self.block_bytes()
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.free_blocks() * self.block_bytes()
    }

    /// Whether `tokens` additional tokens (for a fresh sequence) would fit.
    pub fn can_fit_tokens(&self, tokens: u64) -> bool {
        self.blocks_for(tokens) <= self.free_blocks()
    }

    /// Number of live sequences.
    pub fn seq_count(&self) -> usize {
        self.seq_ids.len()
    }

    /// Live sequences whose next token needs a fresh block (their last
    /// block is full, or they hold none): the blocks one decode step over
    /// every live sequence allocates. O(1).
    pub fn full_seqs(&self) -> usize {
        self.full_seqs
    }

    /// Tokens currently stored for a sequence (0 if absent).
    pub fn used_tokens_of(&self, id: RequestId) -> u64 {
        self.index.get(&id).map_or(0, |&i| self.seq_tokens[i])
    }

    /// Blocks a sequence holds, if it is live.
    pub fn blocks_of(&self, id: RequestId) -> Option<u64> {
        self.index.get(&id).map(|&i| self.seq_blocks[i])
    }

    /// Sum of context tokens across all live sequences. O(1).
    pub fn total_context_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Extends sequence `id` by `tokens`, allocating blocks as needed.
    ///
    /// # Errors
    ///
    /// Returns [`KvOutOfBlocks`] (without partial allocation) if the pool
    /// cannot supply the required blocks.
    pub fn grow_seq(&mut self, id: RequestId, tokens: u64) -> Result<(), KvOutOfBlocks> {
        let slot = self.index.get(&id).copied();
        let (have_blocks, have_tokens) = slot
            .map(|i| (self.seq_blocks[i], self.seq_tokens[i]))
            .unwrap_or((0, 0));
        let new_tokens = have_tokens + tokens;
        // Tokens still free in the last block; growth within it needs no
        // block math at all.
        let slack = have_blocks * self.block_tokens - have_tokens;
        let needed_blocks = if tokens <= slack {
            have_blocks
        } else {
            self.blocks_for(new_tokens)
        };
        let extra = needed_blocks - have_blocks;
        if extra > self.free_blocks() {
            return Err(KvOutOfBlocks {
                requested: extra,
                free: self.free_blocks(),
            });
        }
        let i = slot.unwrap_or_else(|| {
            let i = self.seq_ids.len();
            self.seq_ids.push(id);
            self.seq_tokens.push(0);
            self.seq_blocks.push(0);
            self.index.insert(id, i);
            i
        });
        // A sequence that was live counted as full iff it had no slack; a
        // new one was not counted yet.
        let was_full = slot.is_some() && slack == 0;
        let is_full = needed_blocks * self.block_tokens == new_tokens;
        self.full_seqs = self.full_seqs + usize::from(is_full) - usize::from(was_full);
        self.seq_tokens[i] = new_tokens;
        self.seq_blocks[i] = needed_blocks;
        self.used_blocks += extra;
        self.total_tokens += tokens;
        Ok(())
    }

    /// Extends every live sequence by one token — one decode step of a
    /// batch that is exactly this pool's live sequences — in a single pass
    /// over the dense arrays, with no per-sequence lookup.
    ///
    /// # Errors
    ///
    /// Returns [`KvOutOfBlocks`] without changing anything if the free
    /// blocks do not cover [`PagedKvCache::full_seqs`].
    pub fn grow_each_by_one(&mut self) -> Result<(), KvOutOfBlocks> {
        let need = self.full_seqs as u64;
        if need > self.free_blocks() {
            return Err(KvOutOfBlocks {
                requested: need,
                free: self.free_blocks(),
            });
        }
        let bt = self.block_tokens;
        let mut full = 0;
        for (tokens, blocks) in self.seq_tokens.iter_mut().zip(&mut self.seq_blocks) {
            if *tokens == *blocks * bt {
                *blocks += 1;
            }
            *tokens += 1;
            full += usize::from(*tokens == *blocks * bt);
        }
        self.used_blocks += need;
        self.total_tokens += self.seq_ids.len() as u64;
        self.full_seqs = full;
        debug_assert_eq!(self.full_seqs, self.count_full_seqs());
        Ok(())
    }

    /// Plans a run of decode steps over every live sequence from the
    /// pool's current state (see [`DecodeGrowth`]), reusing `plan`'s
    /// buffer (it allocates only when that buffer is smaller than one
    /// cycle). One pass over the live sequences, with no division.
    pub fn plan_decode_growth(&self, plan: &mut DecodeGrowth) {
        let bt = self.block_tokens;
        plan.seqs = self.seq_ids.len() as u64;
        plan.taken.clear();
        plan.taken.resize(bt as usize + 1, 0);
        for (tokens, blocks) in self.seq_tokens.iter().zip(&self.seq_blocks) {
            plan.taken[(blocks * bt - tokens) as usize + 1] += 1;
        }
        for r in 1..plan.taken.len() {
            plan.taken[r] += plan.taken[r - 1];
        }
    }

    /// Extends every live sequence by `steps` tokens, leaving the pool
    /// exactly as `steps` calls of [`PagedKvCache::grow_each_by_one`]
    /// would. Two passes over the live sequences: a plan that prices the
    /// run, then the growth. The first call allocates the plan's buffer,
    /// which later calls reuse.
    ///
    /// # Errors
    ///
    /// Returns [`KvOutOfBlocks`] without changing anything if the free
    /// blocks do not cover the `steps` steps (one of those calls would
    /// fail).
    pub fn grow_each_by(&mut self, steps: u64) -> Result<(), KvOutOfBlocks> {
        let mut plan = DecodeGrowth {
            seqs: 0,
            taken: std::mem::take(&mut self.phase_scratch),
        };
        self.plan_decode_growth(&mut plan);
        let (need, free) = (plan.blocks(steps), self.free_blocks());
        plan.taken.clear();
        self.phase_scratch = plan.taken;
        if need > free {
            return Err(KvOutOfBlocks {
                requested: need,
                free,
            });
        }
        let bt = self.block_tokens;
        let mut full = 0;
        for (tokens, blocks) in self.seq_tokens.iter_mut().zip(&mut self.seq_blocks) {
            // A sequence takes a block at steps `phase + 1`, then every
            // `bt` steps.
            let phase = *blocks * bt - *tokens;
            if phase < steps {
                *blocks += (steps - 1 - phase) / bt + 1;
            }
            *tokens += steps;
            full += usize::from(*tokens == *blocks * bt);
        }
        self.used_blocks += need;
        self.total_tokens += steps * self.seq_ids.len() as u64;
        self.full_seqs = full;
        debug_assert_eq!(self.full_seqs, self.count_full_seqs());
        Ok(())
    }

    /// [`PagedKvCache::full_seqs`] recounted from scratch.
    fn count_full_seqs(&self) -> usize {
        self.seq_tokens
            .iter()
            .filter(|&&t| t.is_multiple_of(self.block_tokens))
            .count()
    }

    /// Releases all blocks of a sequence (no-op if absent). Returns freed
    /// bytes.
    pub fn free_seq(&mut self, id: RequestId) -> u64 {
        let Some(i) = self.index.remove(&id) else {
            return 0;
        };
        self.seq_ids.swap_remove(i);
        let tokens = self.seq_tokens.swap_remove(i);
        let blocks = self.seq_blocks.swap_remove(i);
        if i < self.seq_ids.len() {
            // A tail slot moved into `i`; repoint its index entry.
            self.index.insert(self.seq_ids[i], i);
        }
        if blocks * self.block_tokens == tokens {
            self.full_seqs -= 1;
        }
        self.used_blocks -= blocks;
        self.total_tokens -= tokens;
        blocks * self.block_bytes()
    }

    /// Shrinks the pool by up to `bytes` of *free* capacity (donation to
    /// AQUA). Returns the bytes actually removed. Live sequences keep
    /// their blocks.
    pub fn donate_bytes(&mut self, bytes: u64) -> u64 {
        let donate_blocks = (bytes / self.block_bytes()).min(self.free_blocks());
        self.total_blocks -= donate_blocks;
        donate_blocks * self.block_bytes()
    }

    /// Grows the pool by `bytes` (reclaim from AQUA).
    pub fn reclaim_bytes(&mut self, bytes: u64) {
        self.total_blocks += bytes / self.block_bytes();
    }

    /// Debug invariant: every sequence holds `⌈tokens / bt⌉` blocks, the
    /// index points at each slot, the O(1) counters (`full_seqs`
    /// included) match a full rescan, and the used blocks fit the pool.
    #[cfg(test)]
    fn check_invariants(&self) -> bool {
        if self.seq_ids.len() != self.seq_tokens.len()
            || self.seq_ids.len() != self.seq_blocks.len()
            || self.seq_ids.len() != self.index.len()
        {
            return false;
        }
        for (i, id) in self.seq_ids.iter().enumerate() {
            if self.index.get(id) != Some(&i)
                || self.seq_blocks[i] != self.blocks_for(self.seq_tokens[i])
            {
                return false;
            }
        }
        self.seq_blocks.iter().sum::<u64>() == self.used_blocks
            && self.seq_tokens.iter().sum::<u64>() == self.total_tokens
            && self.full_seqs == self.count_full_seqs()
            && self.phase_scratch.is_empty()
            && self.used_blocks <= self.total_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_models::zoo;
    use aqua_sim::link::bytes::gib;

    fn cache(pool_gib: u64) -> PagedKvCache {
        let geom = *zoo::llama2_13b().llm_geometry().unwrap();
        PagedKvCache::new(geom, gib(pool_gib), DEFAULT_BLOCK_TOKENS)
    }

    #[test]
    fn block_math() {
        let kv = cache(40);
        // Llama-2-13B: 819200 B/token * 16 tokens = 12.5 MiB blocks.
        assert_eq!(kv.block_bytes(), 819_200 * 16);
        assert!(kv.total_blocks() > 3000);
        assert_eq!(kv.used_blocks(), 0);
    }

    #[test]
    fn grow_allocates_ceil_blocks() {
        let mut kv = cache(40);
        kv.grow_seq(RequestId(1), 17).unwrap();
        // 17 tokens need 2 blocks of 16.
        assert_eq!(kv.used_blocks(), 2);
        assert_eq!(kv.used_tokens_of(RequestId(1)), 17);
        // One more token fits in the existing second block.
        kv.grow_seq(RequestId(1), 1).unwrap();
        assert_eq!(kv.used_blocks(), 2);
        // Crossing the boundary allocates a third block.
        kv.grow_seq(RequestId(1), 15).unwrap();
        assert_eq!(kv.used_blocks(), 3);
        assert_eq!(kv.blocks_of(RequestId(1)), Some(3));
        assert!(kv.check_invariants());
    }

    #[test]
    fn exhaustion_is_atomic() {
        let geom = *zoo::llama2_13b().llm_geometry().unwrap();
        let mut kv = PagedKvCache::new(geom, kv_pool_of_blocks(&geom, 4), 16);
        assert_eq!(kv.total_blocks(), 4);
        kv.grow_seq(RequestId(1), 48).unwrap(); // 3 blocks
        let err = kv.grow_seq(RequestId(2), 32).unwrap_err(); // needs 2, 1 free
        assert_eq!(err.requested, 2);
        assert_eq!(err.free, 1);
        // Failed grow must not leak blocks.
        assert_eq!(kv.used_blocks(), 3);
        assert_eq!(kv.used_tokens_of(RequestId(2)), 0);
        assert!(kv.check_invariants());
    }

    fn kv_pool_of_blocks(geom: &LlmGeometry, blocks: u64) -> u64 {
        geom.kv_bytes_per_token() * 16 * blocks
    }

    #[test]
    fn free_seq_returns_bytes_and_recycles() {
        let mut kv = cache(40);
        kv.grow_seq(RequestId(9), 100).unwrap();
        let freed = kv.free_seq(RequestId(9));
        assert_eq!(freed, 7 * kv.block_bytes());
        assert_eq!(kv.free_seq(RequestId(9)), 0, "second free is a no-op");
        assert_eq!(kv.used_blocks(), 0);
        assert_eq!(kv.blocks_of(RequestId(9)), None);
        // The freed blocks serve the next sequence.
        kv.grow_seq(RequestId(10), 100).unwrap();
        assert_eq!(kv.free_blocks(), kv.total_blocks() - 7);
        assert!(kv.check_invariants());
    }

    #[test]
    fn donation_only_takes_free_blocks() {
        let mut kv = cache(1);
        let total = kv.total_blocks();
        kv.grow_seq(RequestId(1), 16 * (total - 2)).unwrap();
        let donated = kv.donate_bytes(gib(1));
        assert_eq!(donated, 2 * kv.block_bytes());
        assert_eq!(kv.free_blocks(), 0);
        kv.reclaim_bytes(donated);
        assert_eq!(kv.free_blocks(), 2);
        assert!(kv.check_invariants());
    }

    #[test]
    fn full_seqs_tracks_block_boundaries() {
        let mut kv = cache(1);
        kv.grow_seq(RequestId(1), 0).unwrap();
        assert_eq!(kv.full_seqs(), 1, "an empty sequence needs a block");
        kv.grow_seq(RequestId(1), 15).unwrap();
        assert_eq!(kv.full_seqs(), 0);
        kv.grow_each_by_one().unwrap();
        assert_eq!(kv.full_seqs(), 1, "16 tokens fill the first block");
        kv.grow_seq(RequestId(2), 32).unwrap();
        assert_eq!(kv.full_seqs(), 2);
        kv.grow_each_by_one().unwrap();
        assert_eq!(kv.full_seqs(), 0);
        assert_eq!(kv.used_blocks(), 2 + 3);
        kv.free_seq(RequestId(1));
        assert_eq!(kv.full_seqs(), 0);
        assert!(kv.check_invariants());
    }

    #[test]
    fn can_fit_matches_grow() {
        let geom = *zoo::mistral_7b().llm_geometry().unwrap();
        let mut kv = PagedKvCache::new(geom, kv_pool_of_blocks(&geom, 10), 16);
        assert!(kv.can_fit_tokens(160));
        assert!(!kv.can_fit_tokens(161));
        kv.grow_seq(RequestId(1), 160).unwrap();
        assert!(kv.can_fit_tokens(0));
        assert!(!kv.can_fit_tokens(1));
    }

    aqua_sim::check! {
        /// Arbitrary grow/free/donate/reclaim sequences preserve the block
        /// invariants: every sequence holds ceil(tokens/block) blocks, and
        /// the O(1) counters agree with a full rescan. A donation, on a pool
        /// these ops have churned, leaves every live sequence's tokens and
        /// blocks as they were, and the free blocks fall by exactly the
        /// blocks it donated.
        #[test]
        fn block_accounting(ops in aqua_sim::check::vec((0u64..8, 1u64..200, 0u8..5), 1..100)) {
            let geom = *zoo::mistral_7b().llm_geometry().unwrap();
            let mut kv = PagedKvCache::new(geom, gib(4), 16);
            let mut donated_total = 0u64;
            for (seq, tokens, op) in ops {
                let id = RequestId(seq);
                match op {
                    0 => {
                        kv.free_seq(id);
                    }
                    1 if donated_total > 0 => {
                        kv.reclaim_bytes(donated_total);
                        donated_total = 0;
                    }
                    2 => {
                        let live = |kv: &PagedKvCache| {
                            (0..8)
                                .map(|s| (kv.used_tokens_of(RequestId(s)), kv.blocks_of(RequestId(s))))
                                .collect::<Vec<_>>()
                        };
                        let (before, free) = (live(&kv), kv.free_blocks());
                        let donated = kv.donate_bytes(tokens * kv.block_bytes() / 4);
                        assert_eq!(live(&kv), before);
                        assert_eq!(free - kv.free_blocks(), donated / kv.block_bytes());
                        donated_total += donated;
                    }
                    _ => {
                        let _ = kv.grow_seq(id, tokens);
                    }
                }
                assert!(kv.check_invariants());
                let expected: u64 = (0..8)
                    .map(|s| kv.used_tokens_of(RequestId(s)).div_ceil(16))
                    .sum();
                assert_eq!(kv.used_blocks(), expected);
                assert!(kv.used_blocks() <= kv.total_blocks());
                let expected_tokens: u64 = (0..8)
                    .map(|s| kv.used_tokens_of(RequestId(s)))
                    .sum();
                assert_eq!(kv.total_context_tokens(), expected_tokens);
            }
        }

        /// `grow_each_by(k)` is `k` calls of `grow_each_by_one`: on pools
        /// churned by grows and frees (so sequences sit at every block
        /// phase), the two leave equal pools — every sequence's blocks and
        /// tokens, `full_seqs`, used and free blocks — including at a `k`
        /// that takes the pool's last free block, and a `k` one of the calls
        /// would refuse leaves the pool untouched. The run's plan gives the
        /// blocks after every step, and its headroom is the step before the
        /// first that stepping one by one refuses.
        #[test]
        fn grow_each_by_matches_stepping_one_by_one(
            ops in aqua_sim::check::vec((0u64..8, 1u64..60, 0u8..3), 1..60),
            k in 0u64..70,
            exhaust in aqua_sim::check::AnyBool
        ) {
            let geom = *zoo::mistral_7b().llm_geometry().unwrap();
            let mut kv = PagedKvCache::new(geom, kv_pool_of_blocks(&geom, 48), 16);
            for (seq, tokens, op) in ops {
                if op == 0 {
                    kv.free_seq(RequestId(seq));
                } else {
                    let _ = kv.grow_seq(RequestId(seq), tokens);
                }
            }
            let mut plan = DecodeGrowth::default();
            kv.plan_decode_growth(&mut plan);
            let headroom = plan.steps_within(kv.free_blocks());
            // Step one by one up to the first refusal, checking the plan's
            // blocks after every step.
            let mut one = kv.clone();
            let mut refused = None;
            let mut exhausted = None;
            for step in 1..=48 * 16 + 16 {
                if one.grow_each_by_one().is_err() {
                    refused = Some(step);
                    break;
                }
                assert_eq!(plan.blocks(step), one.used_blocks() - kv.used_blocks());
                if one.free_blocks() == 0 && exhausted.is_none() {
                    exhausted = Some(step);
                }
            }
            match refused {
                Some(step) => assert_eq!(headroom, step - 1, "headroom"),
                None => {
                    assert_eq!(kv.seq_count(), 0, "live sequences run dry");
                    assert_eq!(headroom, u64::MAX);
                }
            }
            let k = match exhausted {
                Some(step) if exhaust => step,
                _ => k,
            };
            let mut bulk = kv.clone();
            let mut one = kv.clone();
            match bulk.grow_each_by(k) {
                Ok(()) => {
                    assert!(k <= headroom);
                    for _ in 0..k {
                        one.grow_each_by_one().unwrap();
                    }
                    for s in (0..8).map(RequestId) {
                        assert_eq!(bulk.blocks_of(s), one.blocks_of(s), "{s:?}");
                        assert_eq!(bulk.used_tokens_of(s), one.used_tokens_of(s));
                    }
                    assert_eq!(
                        (bulk.full_seqs(), bulk.used_blocks(), bulk.free_blocks()),
                        (one.full_seqs(), one.used_blocks(), one.free_blocks())
                    );
                    assert_eq!(bulk, one);
                    assert!(bulk.check_invariants());
                }
                Err(err) => {
                    assert!(k > headroom);
                    assert_eq!(bulk, kv, "a refused run changes nothing");
                    assert_eq!(err.requested, plan.blocks(k));
                    assert_eq!(err.free, kv.free_blocks());
                }
            }
        }

        /// `grow_each_by_one` is a per-sequence `grow_seq(id, 1)` loop in
        /// every observable count, `full_seqs` always equals a brute-force
        /// recount, and a pool too short for the step is left untouched.
        #[test]
        fn grow_each_by_one_matches_per_seq_growth(
            ops in aqua_sim::check::vec((0u64..8, 0u64..40, 0u8..4), 1..120)
        ) {
            let geom = *zoo::mistral_7b().llm_geometry().unwrap();
            // 24 blocks of 16 tokens: short enough that steps run dry.
            let mut kv = PagedKvCache::new(geom, kv_pool_of_blocks(&geom, 24), 16);
            let mut twin = kv.clone();
            for (seq, tokens, op) in ops {
                let id = RequestId(seq);
                match op {
                    0 => {
                        assert_eq!(kv.free_seq(id), twin.free_seq(id));
                    }
                    1 => {
                        let live: Vec<RequestId> = (0..8)
                            .map(RequestId)
                            .filter(|&s| kv.blocks_of(s).is_some())
                            .collect();
                        let before = kv.clone();
                        match kv.grow_each_by_one() {
                            Ok(()) => {
                                for s in live {
                                    twin.grow_seq(s, 1).unwrap();
                                }
                            }
                            Err(err) => {
                                assert_eq!(&kv, &before);
                                assert_eq!(err.requested, kv.full_seqs() as u64);
                                assert!(err.requested > kv.free_blocks());
                            }
                        }
                    }
                    _ => {
                        assert_eq!(kv.grow_seq(id, tokens), twin.grow_seq(id, tokens));
                    }
                }
                assert!(kv.check_invariants());
                assert!(twin.check_invariants());
                let recount = (0..8)
                    .map(RequestId)
                    .filter(|&s| kv.blocks_of(s).is_some() && kv.used_tokens_of(s).is_multiple_of(16))
                    .count();
                assert_eq!(kv.full_seqs(), recount);
                assert_eq!(twin.full_seqs(), recount);
                assert_eq!(kv.used_blocks(), twin.used_blocks());
                assert_eq!(kv.total_context_tokens(), twin.total_context_tokens());
                for s in (0..8).map(RequestId) {
                    assert_eq!(kv.used_tokens_of(s), twin.used_tokens_of(s));
                    assert_eq!(kv.blocks_of(s), twin.blocks_of(s));
                }
            }
        }
    }
}
