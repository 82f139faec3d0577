//! One memory budget: one byte pool across memtables, the block cache,
//! and pinned table metadata, split by a fixed rule.
//!
//! Without a budget, the engine's three memory consumers grow
//! independently: the write buffer is sized by
//! `DbOptions::write_buffer_bytes`, the page cache by
//! `DbOptions::block_cache_bytes`, and every open table pins its filter
//! and tile metadata unaccounted. A [`MemoryBudget`] replaces those
//! independent knobs with a single pool
//! (`DbOptions::memory_budget_bytes`):
//!
//! ```text
//! total = pinned (filters + tile meta, tracked, not split)
//!       + memtable share (¾ of the rest: active + immutable write buffers)
//!       + cache share    (the rest: the BlockCache's resize target)
//! ```
//!
//! Pinned bytes are a *tax*: they exist as long as tables are open, so
//! the budget subtracts them off the top and splits only the remainder.
//! Engines re-price their pinned bytes at every new version and
//! re-apply the cache share then, so allowance + cache + pinned never
//! rises above the total while pinned bytes leave the pool its 64 KiB
//! floor. Past that the pool stays at the floor, and the excess is
//! reported as `db_memory_budget_overrun_bytes`; the engine whose
//! install turns it nonzero logs a `BudgetOverrun` event.
//!
//! # Why a fixed split
//!
//! The write buffer gets three quarters because the two mistakes are
//! not symmetric in an LSM: a smaller cache costs at most one page read
//! per evicted page, while a smaller buffer multiplies seal frequency
//! and the compaction debt behind it. E41 (EXPERIMENTS.md) measures
//! this rule against a demand-driven adaptive split.
//!
//! # Fleet sharing
//!
//! A sharded database registers every shard as a *writer* on one shared
//! budget: the memtable share divides evenly across writers (each
//! shard's seal threshold is `memtable share / writers`), while the
//! cache share applies to the single fleet-wide [`BlockCache`]. Pinned
//! bytes aggregate by delta: each engine reports only the change in its
//! own table set.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use acheron_sstable::BlockCache;

use crate::options::DbOptions;

/// The write buffers' share of the pool left after pinned bytes, in
/// quarters; the cache gets the rest.
const MEMTABLE_QUARTERS: usize = 3;

/// One byte budget split across write buffers, the block cache, and
/// pinned table metadata. See the module docs for the split; see
/// [`crate::options::DbOptions::memory_budget_bytes`] for how a
/// database opts in.
#[derive(Debug)]
pub struct MemoryBudget {
    /// The configured total, fixed for the budget's lifetime.
    total: usize,
    /// Pinned filter/tile-metadata bytes across all registered engines.
    pinned: AtomicUsize,
    /// Engines drawing write-buffer allowances from this budget.
    writers: AtomicUsize,
}

impl MemoryBudget {
    /// A budget of `total_bytes`.
    pub fn new(total_bytes: usize) -> MemoryBudget {
        MemoryBudget {
            total: total_bytes,
            pinned: AtomicUsize::new(0),
            writers: AtomicUsize::new(0),
        }
    }

    /// The configured total budget.
    pub fn total_bytes(&self) -> usize {
        self.total
    }

    /// Register one engine as a consumer of the write-buffer share.
    /// Each registered writer receives `memtable share / writers`.
    pub fn register_writer(&self) {
        self.writers.fetch_add(1, Ordering::Relaxed);
    }

    /// Report a change in an engine's pinned bytes (filters + tile
    /// metadata of its open tables). Engines report deltas so a shared
    /// budget aggregates across shards without a coordinator.
    pub fn adjust_pinned(&self, old: usize, new: usize) {
        if new >= old {
            self.pinned.fetch_add(new - old, Ordering::Relaxed);
        } else {
            self.pinned.fetch_sub(old - new, Ordering::Relaxed);
        }
    }

    /// Currently pinned bytes across all registered engines.
    pub fn pinned_bytes(&self) -> usize {
        self.pinned.load(Ordering::Relaxed)
    }

    /// The pool left once pinned bytes are taxed off the top. Pinned
    /// growth squeezes both shares proportionally; a pathological table
    /// set that pins the whole budget degrades to a small fixed floor
    /// rather than zero.
    fn pool(&self) -> usize {
        self.total.saturating_sub(self.pinned_bytes()).max(1 << 16)
    }

    /// Total write-buffer share (all writers combined): ¾ of the pool.
    fn memtable_share_bytes(&self) -> usize {
        self.pool() / 4 * MEMTABLE_QUARTERS
    }

    /// This engine's write-buffer allowance: the memtable share divided
    /// across registered writers. The active memtable seals when it
    /// reaches this threshold.
    pub fn memtable_bytes_per_writer(&self) -> usize {
        let writers = self.writers.load(Ordering::Relaxed).max(1);
        (self.memtable_share_bytes() / writers).max(1 << 12)
    }

    /// The block cache's byte target: what is left of the pool after
    /// the write-buffer share.
    pub fn cache_share_bytes(&self) -> usize {
        self.pool() - self.memtable_share_bytes()
    }

    /// How far allowance × writers + cache share + pinned exceeds the
    /// total: nonzero only once pinned bytes leave the pool less than its
    /// floor.
    pub fn overrun_bytes(&self) -> usize {
        let writers = self.writers.load(Ordering::Relaxed).max(1);
        let drawn = self.memtable_bytes_per_writer() * writers + self.cache_share_bytes();
        (drawn + self.pinned_bytes()).saturating_sub(self.total)
    }

    /// Push the current cache share into `cache` (evicting to fit if it
    /// shrank). Idempotent; engines call it whenever their pinned bytes
    /// change.
    pub fn apply_cache_share(&self, cache: &BlockCache) {
        let target = self.cache_share_bytes();
        if cache.capacity_bytes() != target {
            cache.resize(target);
        }
    }
}

/// The block cache and memory budget `opts` asks for: with
/// `memory_budget_bytes` a budget plus a cache at its cache share, else
/// a cache of `block_cache_bytes` (none at 0) and no budget.
pub(crate) fn cache_and_budget(
    opts: &DbOptions,
) -> (Option<Arc<BlockCache>>, Option<Arc<MemoryBudget>>) {
    if opts.memory_budget_bytes == 0 {
        let cache = (opts.block_cache_bytes > 0).then(|| BlockCache::new(opts.block_cache_bytes));
        return (cache.map(Arc::new), None);
    }
    let budget = MemoryBudget::new(opts.memory_budget_bytes);
    let cache = BlockCache::new(budget.cache_share_bytes());
    (Some(Arc::new(cache)), Some(Arc::new(budget)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1 << 20;

    #[test]
    fn split_is_three_quarters_and_respects_pinned_tax() {
        let b = MemoryBudget::new(64 * MB);
        b.register_writer();
        assert_eq!(b.total_bytes(), 64 * MB);
        assert_eq!(b.memtable_share_bytes(), 48 * MB);
        assert_eq!(b.cache_share_bytes(), 16 * MB);
        b.adjust_pinned(0, 8 * MB);
        assert_eq!(b.pinned_bytes(), 8 * MB);
        assert_eq!(
            b.memtable_share_bytes(),
            42 * MB,
            "pinned bytes tax the pool"
        );
        assert_eq!(b.cache_share_bytes(), 14 * MB);
        b.adjust_pinned(8 * MB, 2 * MB);
        assert_eq!(b.pinned_bytes(), 2 * MB);
        assert_eq!(b.memtable_share_bytes(), 62 * MB / 4 * 3);
    }

    #[test]
    fn memtable_share_divides_across_writers() {
        let b = MemoryBudget::new(64 * MB);
        b.register_writer();
        let alone = b.memtable_bytes_per_writer();
        assert_eq!(alone, 48 * MB);
        for _ in 0..3 {
            b.register_writer();
        }
        assert_eq!(b.memtable_bytes_per_writer(), alone / 4);
        assert_eq!(
            b.cache_share_bytes(),
            16 * MB,
            "the cache is not per writer"
        );
    }

    #[test]
    fn shares_always_cover_the_pool() {
        let b = MemoryBudget::new(64 * MB + 3);
        b.register_writer();
        let mut pinned = 0;
        for step in 0..20 {
            let next = step * 3 * MB + step;
            b.adjust_pinned(pinned, next);
            pinned = next;
            let m = b.memtable_share_bytes();
            let c = b.cache_share_bytes();
            let pool = b.total_bytes() - b.pinned_bytes();
            assert_eq!(m + c, pool, "shares must cover the pool exactly");
            assert_eq!(m, pool / 4 * 3, "the write buffers get 3/4 of the pool");
        }
    }
}
