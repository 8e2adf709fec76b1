//! Paged KV-cache block manager (vLLM's PagedAttention pool).
//!
//! vLLM reserves the HBM left after loading model weights as a pool of
//! fixed-size blocks and maps each sequence's KV cache onto a **block
//! table** (§2, \[32\]). Three properties matter to AQUA:
//!
//! * Admission control: a request is only admitted when enough blocks are
//!   free for its prompt — otherwise it queues (the source of Figure 1a's
//!   TTFT spikes).
//! * Fragmentation: blocks are allocated from a free list, so a sequence's
//!   table is physically scattered — which is why vLLM's swap path moves
//!   many small tensors (§5) and why donation needs compaction.
//! * Elasticity: an LLM producer *donates* free pool capacity to AQUA and
//!   reclaims it later. §B.1: "This allocation leads to fragmentation of
//!   the tensor and makes it impossible to selectively free parts of a
//!   tensor. We solve this problem by copying the scattered allocated
//!   blocks to a temporary location to free up the reserved memory" — the
//!   pool models that compaction and accounts the bytes it copies.
//!
//! Per-sequence state is stored struct-of-arrays (dense parallel vectors
//! indexed through a multiply-shift-hashed `RequestId → slot` map, freed
//! slots swap-removed), and the pool maintains running `used_blocks` /
//! `total_tokens` / `full_seqs` counters so the admission checks, decode
//! headroom checks and gauges the engines issue every decode iteration are
//! O(1) instead of a scan over every live sequence.
//!
//! Decode growth is the simulator's hottest path. An engine whose batch is
//! exactly the pool's live sequences advances all of them with one
//! [`PagedKvCache::grow_each_by_one`]: a single pass over the dense arrays,
//! with no hash probe and no division. [`PagedKvCache::grow_seq`] skips the
//! division too whenever the growth fits in the sequence's last block.

use aqua_models::geometry::LlmGeometry;
use aqua_sim::hash::PackedKeyMap;

use crate::request::RequestId;

/// Default tokens per KV block (vLLM's default block size).
pub const DEFAULT_BLOCK_TOKENS: u64 = 16;

/// Physical index of one KV block within the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

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
/// assert_eq!(kv.block_table(RequestId(1)).unwrap().len(), 63); // ceil(1000/16)
/// kv.free_seq(RequestId(1));
/// assert_eq!(kv.used_blocks(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PagedKvCache {
    geom: LlmGeometry,
    block_tokens: u64,
    total_blocks: u64,
    /// Physical blocks never yet allocated (ids `next_fresh..total_blocks`
    /// conceptually; tracked as a watermark).
    next_fresh: u64,
    /// Recycled blocks, LIFO — reuse keeps tables fragmented, like a real
    /// allocator under churn.
    free_list: Vec<BlockId>,
    /// Struct-of-arrays per-sequence state: `seq_ids[i]`, `seq_tokens[i]`
    /// and `seq_tables[i]` describe the same sequence; `index` maps a
    /// request id to its slot `i`. Frees swap-remove, so iteration order is
    /// dense and deterministic for a given operation sequence.
    seq_ids: Vec<RequestId>,
    seq_tokens: Vec<u64>,
    seq_tables: Vec<Vec<BlockId>>,
    index: PackedKeyMap<RequestId, usize>,
    /// Running totals maintained by grow/free so the per-iteration
    /// admission and gauge queries never scan live sequences.
    used_blocks: u64,
    total_tokens: u64,
    /// Live sequences whose last block is full (or that hold no block), so
    /// their next token needs a fresh block.
    full_seqs: usize,
    compacted_bytes: u64,
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
            next_fresh: 0,
            free_list: Vec::new(),
            seq_ids: Vec::new(),
            seq_tokens: Vec::new(),
            seq_tables: Vec::new(),
            index: PackedKeyMap::default(),
            used_blocks: 0,
            total_tokens: 0,
            full_seqs: 0,
            compacted_bytes: 0,
        }
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
        tokens.div_ceil(self.block_tokens) <= self.free_blocks()
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

    /// KV bytes currently mapped for a sequence (block-granular).
    #[cfg(test)]
    fn bytes_of(&self, id: RequestId) -> u64 {
        self.index
            .get(&id)
            .map_or(0, |&i| self.seq_tables[i].len() as u64)
            * self.block_bytes()
    }

    /// The sequence's physical block table (its scatter pattern), if live.
    pub fn block_table(&self, id: RequestId) -> Option<&[BlockId]> {
        self.index.get(&id).map(|&i| self.seq_tables[i].as_slice())
    }

    /// Sum of context tokens across all live sequences. O(1).
    pub fn total_context_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Bytes copied so far by donation-time compaction (§B.1).
    #[cfg(test)]
    fn compacted_bytes(&self) -> u64 {
        self.compacted_bytes
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
            .map(|i| (self.seq_tables[i].len() as u64, self.seq_tokens[i]))
            .unwrap_or((0, 0));
        let new_tokens = have_tokens + tokens;
        // Tokens still free in the last block; growth within it needs no
        // block math at all.
        let slack = have_blocks * self.block_tokens - have_tokens;
        let needed_blocks = if tokens <= slack {
            have_blocks
        } else {
            new_tokens.div_ceil(self.block_tokens)
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
            // Size the table for the final footprint this grow implies, so
            // one-token decode growth never re-allocates the table.
            self.seq_tables
                .push(Vec::with_capacity(needed_blocks as usize));
            self.index.insert(id, i);
            i
        });
        // A sequence that was live counted as full iff it had no slack; a
        // new one was not counted yet.
        let was_full = slot.is_some() && slack == 0;
        let is_full = needed_blocks * self.block_tokens == new_tokens;
        self.full_seqs = self.full_seqs + usize::from(is_full) - usize::from(was_full);
        self.seq_tokens[i] = new_tokens;
        let table = &mut self.seq_tables[i];
        for _ in 0..extra {
            // Cannot fail: extra <= free_blocks was checked above.
            table.push(take_block(&mut self.free_list, &mut self.next_fresh));
        }
        self.used_blocks += extra;
        self.total_tokens += tokens;
        debug_assert!(self.next_fresh <= self.total_blocks);
        Ok(())
    }

    /// Extends every live sequence by one token — one decode step of a
    /// batch that is exactly this pool's live sequences — in a single pass
    /// over the dense arrays, with no per-sequence lookup.
    ///
    /// Blocks are handed out in pool order, so which physical block a
    /// sequence receives can differ from a per-sequence
    /// [`PagedKvCache::grow_seq`] loop in another order; every count, token
    /// and byte total is the same.
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
        for (tokens, table) in self.seq_tokens.iter_mut().zip(&mut self.seq_tables) {
            let mut blocks = table.len() as u64;
            if *tokens == blocks * bt {
                table.push(take_block(&mut self.free_list, &mut self.next_fresh));
                blocks += 1;
            }
            *tokens += 1;
            full += usize::from(*tokens == blocks * bt);
        }
        self.used_blocks += need;
        self.total_tokens += self.seq_ids.len() as u64;
        self.full_seqs = full;
        debug_assert!(self.next_fresh <= self.total_blocks);
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
        let table = self.seq_tables.swap_remove(i);
        if i < self.seq_ids.len() {
            // A tail slot moved into `i`; repoint its index entry.
            self.index.insert(self.seq_ids[i], i);
        }
        let freed_blocks = table.len() as u64;
        if freed_blocks * self.block_tokens == tokens {
            self.full_seqs -= 1;
        }
        self.free_list.extend(table);
        self.used_blocks -= freed_blocks;
        self.total_tokens -= tokens;
        freed_blocks * self.block_bytes()
    }

    /// Shrinks the pool by up to `bytes` of *free* capacity (donation to
    /// AQUA). Returns the bytes actually removed.
    ///
    /// Donation gives away the physically-highest blocks; live blocks above
    /// the new watermark are compacted into free slots below it first (the
    /// §B.1 copy), which this method performs and counts as compacted
    /// bytes.
    pub fn donate_bytes(&mut self, bytes: u64) -> u64 {
        let donate_blocks = (bytes / self.block_bytes()).min(self.free_blocks());
        if donate_blocks == 0 {
            return 0;
        }
        let new_total = self.total_blocks - donate_blocks;

        // Free slots below the cut, available as compaction targets.
        self.free_list.retain(|b| b.0 < new_total);
        // (Blocks at or above the cut simply leave the pool; fresh-watermark
        // capacity above the cut leaves implicitly via `total_blocks`.)
        let mut targets = std::mem::take(&mut self.free_list);

        // Live blocks above the cut must move below it. There are always
        // enough recycled slots below the cut: live-above-cut blocks only
        // exist when every id below the cut was minted, and
        // used <= new_total guarantees enough of those are free.
        let mut moved = 0u64;
        for table in self.seq_tables.iter_mut() {
            for b in table.iter_mut() {
                if b.0 >= new_total {
                    *b = targets
                        .pop()
                        .expect("donate <= free guarantees compaction targets");
                    moved += 1;
                }
            }
        }
        self.free_list = targets;
        self.compacted_bytes += moved * self.block_bytes();
        self.total_blocks = new_total;
        self.next_fresh = self.next_fresh.min(new_total);
        donate_blocks * self.block_bytes()
    }

    /// Grows the pool by `bytes` (reclaim from AQUA).
    pub fn reclaim_bytes(&mut self, bytes: u64) {
        self.total_blocks += bytes / self.block_bytes();
    }

    /// Pool utilisation in `[0, 1]` (0 for an empty pool).
    pub fn utilization(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.used_blocks() as f64 / self.total_blocks as f64
        }
    }

    /// Debug invariant: block tables are disjoint, within bounds, the free
    /// list holds no live block, and the O(1) counters (`full_seqs`
    /// included) match a full rescan.
    #[cfg(test)]
    fn check_invariants(&self) -> bool {
        if self.seq_ids.len() != self.seq_tokens.len()
            || self.seq_ids.len() != self.seq_tables.len()
            || self.seq_ids.len() != self.index.len()
        {
            return false;
        }
        let mut seen = std::collections::HashSet::new();
        let mut blocks = 0u64;
        let mut tokens = 0u64;
        for (i, id) in self.seq_ids.iter().enumerate() {
            if self.index.get(id) != Some(&i) {
                return false;
            }
            let table = &self.seq_tables[i];
            if table.len() as u64 != self.seq_tokens[i].div_ceil(self.block_tokens) {
                return false;
            }
            blocks += table.len() as u64;
            tokens += self.seq_tokens[i];
            for b in table {
                if b.0 >= self.total_blocks || !seen.insert(*b) {
                    return false;
                }
            }
        }
        if blocks != self.used_blocks
            || tokens != self.total_tokens
            || self.full_seqs != self.count_full_seqs()
        {
            return false;
        }
        for b in &self.free_list {
            if b.0 >= self.total_blocks || b.0 >= self.next_fresh || !seen.insert(*b) {
                return false;
            }
        }
        self.used_blocks() <= self.total_blocks
    }
}

/// Takes one block for a growing table: a recycled one if any (LIFO), else
/// the next never-used id. Callers check `free_blocks` first.
fn take_block(free_list: &mut Vec<BlockId>, next_fresh: &mut u64) -> BlockId {
    free_list.pop().unwrap_or_else(|| {
        let b = BlockId(*next_fresh);
        *next_fresh += 1;
        b
    })
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
        assert_eq!(kv.utilization(), 0.0);
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
        assert_eq!(kv.block_table(RequestId(1)).unwrap().len(), 3);
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
        let table_before: Vec<BlockId> = kv.block_table(RequestId(9)).unwrap().to_vec();
        let freed = kv.free_seq(RequestId(9));
        assert_eq!(freed, 7 * kv.block_bytes());
        assert_eq!(kv.free_seq(RequestId(9)), 0, "second free is a no-op");
        assert_eq!(kv.used_blocks(), 0);
        // Recycled blocks come back for the next sequence (LIFO reuse).
        kv.grow_seq(RequestId(10), 100).unwrap();
        let table_after = kv.block_table(RequestId(10)).unwrap();
        assert!(table_after.iter().all(|b| table_before.contains(b)));
    }

    #[test]
    fn tables_fragment_under_churn() {
        let mut kv = cache(1);
        // Interleave three sequences, then free the middle one.
        for t in 0..6 {
            for id in 0..3u64 {
                kv.grow_seq(RequestId(id), 16).unwrap();
                let _ = t;
            }
        }
        kv.free_seq(RequestId(1));
        // A new sequence reuses the freed (non-contiguous) blocks.
        kv.grow_seq(RequestId(7), 96).unwrap();
        let table = kv.block_table(RequestId(7)).unwrap();
        let contiguous = table.windows(2).all(|w| w[1].0 == w[0].0 + 1);
        assert!(!contiguous, "reused blocks are scattered: {table:?}");
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
    fn donation_compacts_scattered_live_blocks() {
        let geom = *zoo::llama2_13b().llm_geometry().unwrap();
        let mut kv = PagedKvCache::new(geom, kv_pool_of_blocks(&geom, 8), 16);
        // Fill all 8 blocks across two sequences, free the first -> the
        // survivor's blocks sit scattered across the address range.
        kv.grow_seq(RequestId(1), 16 * 4).unwrap();
        kv.grow_seq(RequestId(2), 16 * 4).unwrap();
        kv.free_seq(RequestId(1));
        // Donate half the pool: survivor blocks living in the top half must
        // be compacted below the cut.
        let donated = kv.donate_bytes(4 * kv.block_bytes());
        assert_eq!(donated, 4 * kv.block_bytes());
        assert_eq!(kv.total_blocks(), 4);
        assert!(kv.compacted_bytes() > 0, "live top-half blocks moved");
        let table = kv.block_table(RequestId(2)).unwrap();
        assert!(
            table.iter().all(|b| b.0 < 4),
            "all blocks below the cut: {table:?}"
        );
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
        /// invariants: disjoint in-bounds tables sized ceil(tokens/block),
        /// and the O(1) counters agreeing with a full rescan.
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
                        donated_total += kv.donate_bytes(tokens * kv.block_bytes() / 4);
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
                            .filter(|&s| kv.block_table(s).is_some())
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
                    .filter(|&s| kv.block_table(s).is_some() && kv.used_tokens_of(s).is_multiple_of(16))
                    .count();
                assert_eq!(kv.full_seqs(), recount);
                assert_eq!(twin.full_seqs(), recount);
                assert_eq!(kv.used_blocks(), twin.used_blocks());
                assert_eq!(kv.total_context_tokens(), twin.total_context_tokens());
                for s in (0..8).map(RequestId) {
                    assert_eq!(kv.used_tokens_of(s), twin.used_tokens_of(s));
                    assert_eq!(kv.bytes_of(s), twin.bytes_of(s));
                }
            }
        }
    }
}
