//! Unified adaptive memory arbiter: one byte budget across memtables,
//! the block cache, and pinned table metadata.
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
//! total = pinned (filters + tile meta, tracked, not arbitrated)
//!       + memtable share (active + immutable write buffers)
//!       + cache share    (the BlockCache's resize target)
//! ```
//!
//! Pinned bytes are a *tax*: they exist as long as tables are open, so
//! the arbiter subtracts them off the top and splits only the remainder
//! between the write buffer and the cache.
//!
//! # The adaptive split
//!
//! The split starts 50/50 and moves under a tuner ([`MemoryBudget::tick`])
//! that compares the two consumers' byte *demand* over the last sample
//! window: cache fill traffic (bytes inserted on miss — what a bigger
//! cache would have absorbed) versus write ingest (user bytes entering
//! the memtable — what a bigger buffer would batch into fewer, larger
//! flushes). Both signals are smooth functions of the op stream; flush
//! events themselves are deliberately not used, because they are bursty
//! (zero for a whole fill cycle, then one spike) and would whipsaw the
//! split during cold start before the first flush ever happens.
//! When one demand dominates the other past its deadband
//! ([`LEAN_TO_MEMTABLE`] / [`LEAN_TO_CACHE`] — deliberately asymmetric)
//! on two consecutive samples, the split shifts one bounded
//! [`STEP_PERMILLE`] step that way; write stalls short-circuit the
//! comparison toward the write buffer (a stall is the engine already
//! failing, not a trend to be smoothed). Both shares keep a
//! [`MIN_SHARE_PERMILLE`] floor so neither consumer can be starved into
//! pathology.
//!
//! Hysteresis comes from three mechanisms, each individually cheap:
//! the wide demand deadband (near-balanced demand never moves), the
//! two-consecutive-samples rule (a single anomalous window never
//! moves), and the bounded step (a wrong move costs at most 1/16 of
//! the pool until the next sample corrects it). The demand signals are
//! self-damping — growing the cache reduces miss fill, growing the
//! buffer reduces seal frequency — so the loop converges instead of
//! hunting.
//!
//! # Fleet sharing
//!
//! A sharded database registers every shard as a *writer* on one shared
//! budget: the memtable share divides evenly across writers (each
//! shard's seal threshold is `memtable share / writers`), while the
//! cache share applies to the single fleet-wide [`BlockCache`]. Pinned
//! bytes aggregate by delta: each engine reports only the change in its
//! own table set.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use acheron_sstable::BlockCache;
use parking_lot::Mutex;

use crate::options::DbOptions;

/// Tuner step size, in permille of the arbitrated pool (1/16).
pub const STEP_PERMILLE: usize = 64;

/// Floor of either share, in permille of the arbitrated pool (1/4).
/// Wide on purpose: E21's memory-pressure sweep shows both extreme
/// static splits losing badly on the workloads they are not tuned for,
/// while quarter-pool shares stay near the optimum — the tuner's job is
/// to lean, not to starve one consumer outright.
pub const MIN_SHARE_PERMILLE: usize = 256;

/// Write demand must exceed `LEAN_TO_MEMTABLE × fill` before the tuner
/// grows the write buffer. The two signals are byte counts at
/// different granularities — cache fill is page-granular (a one-entry
/// miss refills a whole page) while ingest is entry-granular — so
/// near-balanced workloads show a structural factor-of-several skew
/// toward fill; the deadband absorbs it.
pub const LEAN_TO_MEMTABLE: u64 = 8;

/// Fill demand must exceed `LEAN_TO_CACHE × writes` before the tuner
/// grows the cache. Much wider than [`LEAN_TO_MEMTABLE`] because the
/// two mistakes are not symmetric in an LSM: taking bytes from the
/// cache costs at most one extra page read per evicted page (bounded,
/// linear), while taking bytes from the write buffer multiplies seal
/// frequency and the compaction debt behind it (superlinear — E21
/// measures the cache-starved static split ~1.4× off best and the
/// buffer-starved one ~3–4× off on mixed traffic). Growing the cache
/// therefore requires an almost write-free window, not merely a
/// read-leaning one.
pub const LEAN_TO_CACHE: u64 = 64;

/// Per-sample demand floor, as a divisor of the total budget: windows
/// where both demands moved less than `total / MIN_SIGNAL_DIV` bytes
/// are noise and never move the split.
pub const MIN_SIGNAL_DIV: usize = 128;

/// Which way the tuner wants to move the split after one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lean {
    /// Grow the cache share at the write buffer's expense.
    ToCache,
    /// Grow the write-buffer share at the cache's expense.
    ToMemtable,
    /// Inside the deadband: leave the split alone.
    Hold,
}

/// Cumulative counters sampled by [`MemoryBudget::tick`]. All values
/// are monotone totals (the tuner differences them internally), so the
/// caller never has to track windows itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct TunerSample {
    /// Total bytes inserted into the block cache (miss fill traffic).
    pub cache_fill_bytes: u64,
    /// Total user payload bytes written into the memtable.
    pub write_bytes: u64,
    /// Total write-stall episodes.
    pub write_stalls: u64,
}

/// Tuner state: the previous sample (for differencing) and the pending
/// lean awaiting confirmation.
#[derive(Debug, Default)]
struct Tuner {
    last: TunerSample,
    pending: Option<Lean>,
}

/// One byte budget arbitrated across write buffers, the block cache,
/// and pinned table metadata. See the module docs for the split model;
/// see [`crate::options::DbOptions::memory_budget_bytes`] for how a
/// database opts in.
#[derive(Debug)]
pub struct MemoryBudget {
    /// The configured total, fixed for the budget's lifetime.
    total: usize,
    /// Write-buffer share of the arbitrated pool, in permille.
    memtable_permille: AtomicUsize,
    /// Pinned filter/tile-metadata bytes across all registered engines.
    pinned: AtomicUsize,
    /// Engines drawing write-buffer allowances from this budget.
    writers: AtomicUsize,
    /// Times the tuner moved the split (observability).
    adjustments: AtomicU64,
    tuner: Mutex<Tuner>,
}

impl MemoryBudget {
    /// A budget of `total_bytes`, split 50/50 until the tuner learns
    /// otherwise.
    pub fn new(total_bytes: usize) -> MemoryBudget {
        MemoryBudget {
            total: total_bytes,
            memtable_permille: AtomicUsize::new(512),
            pinned: AtomicUsize::new(0),
            writers: AtomicUsize::new(0),
            adjustments: AtomicU64::new(0),
            tuner: Mutex::new(Tuner::default()),
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

    /// The pool left to arbitrate once pinned bytes are taxed off the
    /// top. Pinned growth squeezes both shares proportionally; a
    /// pathological table set that pins the whole budget degrades to a
    /// small fixed floor rather than zero.
    fn arbitrated(&self) -> usize {
        self.total.saturating_sub(self.pinned_bytes()).max(1 << 16)
    }

    /// Total write-buffer share (all writers combined).
    fn memtable_share_bytes(&self) -> usize {
        self.arbitrated() / 1024 * self.memtable_permille.load(Ordering::Relaxed)
    }

    /// This engine's write-buffer allowance: the memtable share divided
    /// across registered writers. The active memtable seals when it
    /// reaches this threshold.
    pub fn memtable_bytes_per_writer(&self) -> usize {
        let writers = self.writers.load(Ordering::Relaxed).max(1);
        (self.memtable_share_bytes() / writers).max(1 << 12)
    }

    /// The block cache's byte target: what is left of the arbitrated
    /// pool after the write-buffer share.
    pub fn cache_share_bytes(&self) -> usize {
        self.arbitrated()
            .saturating_sub(self.memtable_share_bytes())
    }

    /// Times the tuner has moved the split.
    pub fn adjustments(&self) -> u64 {
        self.adjustments.load(Ordering::Relaxed)
    }

    /// Classify one differenced window into a lean.
    fn classify(&self, fill: u64, writes: u64, stalls: u64) -> Lean {
        if stalls > 0 {
            // A stall is the write path already blocked: grant the
            // buffer without waiting out the deadband.
            return Lean::ToMemtable;
        }
        let floor = (self.total / MIN_SIGNAL_DIV) as u64;
        if fill < floor && writes < floor {
            return Lean::Hold;
        }
        if fill > LEAN_TO_CACHE * writes {
            Lean::ToCache
        } else if writes > LEAN_TO_MEMTABLE * fill {
            Lean::ToMemtable
        } else {
            Lean::Hold
        }
    }

    /// Feed one cumulative sample to the tuner. Returns `true` when the
    /// split moved, in which case the caller must re-apply the cache
    /// share via [`MemoryBudget::apply_cache_share`] (and new seal
    /// decisions will see the new memtable allowance automatically).
    pub fn tick(&self, sample: TunerSample) -> bool {
        let mut t = self.tuner.lock();
        let fill = sample
            .cache_fill_bytes
            .saturating_sub(t.last.cache_fill_bytes);
        let writes = sample.write_bytes.saturating_sub(t.last.write_bytes);
        let stalls = sample.write_stalls.saturating_sub(t.last.write_stalls);
        t.last = sample;
        let lean = self.classify(fill, writes, stalls);
        match lean {
            Lean::Hold => {
                t.pending = None;
                false
            }
            dir if t.pending == Some(dir) => {
                // Second consecutive window agreeing: move one step.
                t.pending = None;
                let cur = self.memtable_permille.load(Ordering::Relaxed);
                let next = match dir {
                    Lean::ToMemtable => (cur + STEP_PERMILLE).min(1024 - MIN_SHARE_PERMILLE),
                    Lean::ToCache => cur.saturating_sub(STEP_PERMILLE).max(MIN_SHARE_PERMILLE),
                    Lean::Hold => unreachable!(),
                };
                if next == cur {
                    return false;
                }
                self.memtable_permille.store(next, Ordering::Relaxed);
                self.adjustments.fetch_add(1, Ordering::Relaxed);
                true
            }
            dir => {
                t.pending = Some(dir);
                false
            }
        }
    }

    /// Push the current cache share into `cache` (evicting to fit if it
    /// shrank). Idempotent; callers invoke it after [`MemoryBudget::tick`]
    /// returns `true` or after pinned bytes changed materially.
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

    fn sample(fill: u64, writes: u64, stalls: u64) -> TunerSample {
        TunerSample {
            cache_fill_bytes: fill,
            write_bytes: writes,
            write_stalls: stalls,
        }
    }

    #[test]
    fn split_starts_even_and_respects_pinned_tax() {
        let b = MemoryBudget::new(64 * MB);
        b.register_writer();
        assert_eq!(b.total_bytes(), 64 * MB);
        let m0 = b.memtable_share_bytes();
        let c0 = b.cache_share_bytes();
        assert!(
            m0.abs_diff(c0) < MB / 16,
            "initial split is even: {m0} vs {c0}"
        );
        b.adjust_pinned(0, 8 * MB);
        assert_eq!(b.pinned_bytes(), 8 * MB);
        assert!(b.memtable_share_bytes() < m0, "pinned bytes tax the pool");
        assert!(b.cache_share_bytes() < c0);
        b.adjust_pinned(8 * MB, 2 * MB);
        assert_eq!(b.pinned_bytes(), 2 * MB);
    }

    #[test]
    fn memtable_share_divides_across_writers() {
        let b = MemoryBudget::new(64 * MB);
        b.register_writer();
        let alone = b.memtable_bytes_per_writer();
        for _ in 0..3 {
            b.register_writer();
        }
        assert_eq!(b.memtable_bytes_per_writer(), alone / 4);
    }

    #[test]
    fn steady_workload_never_oscillates() {
        // Balanced demand inside the deadband: many windows, zero moves.
        let b = MemoryBudget::new(64 * MB);
        b.register_writer();
        let before = b.memtable_share_bytes();
        let mut fill = 0u64;
        let mut flush = 0u64;
        for _ in 0..100 {
            fill += 4 * MB as u64;
            flush += 3 * MB as u64; // near-balanced: deadband holds
            assert!(!b.tick(sample(fill, flush, 0)));
        }
        assert_eq!(b.adjustments(), 0);
        assert_eq!(b.memtable_share_bytes(), before);
    }

    #[test]
    fn quiet_windows_never_move_the_split() {
        // Demand below the signal floor is noise, even when lopsided.
        let b = MemoryBudget::new(64 * MB);
        b.register_writer();
        let mut fill = 0u64;
        for _ in 0..50 {
            fill += 1024; // 1 KiB of fill vs 0 flush: lopsided but tiny
            assert!(!b.tick(sample(fill, 0, 0)));
        }
        assert_eq!(b.adjustments(), 0);
    }

    #[test]
    fn single_spike_is_ignored_two_windows_move() {
        let b = MemoryBudget::new(64 * MB);
        b.register_writer();
        let before = b.memtable_share_bytes();
        // One read-heavy window between balanced ones: no move.
        assert!(!b.tick(sample(32 * MB as u64, 0, 0)));
        assert!(!b.tick(sample(33 * MB as u64, MB as u64, 0)));
        assert_eq!(b.memtable_share_bytes(), before);
        // Two consecutive read-heavy windows: one bounded step to cache.
        assert!(!b.tick(sample(65 * MB as u64, MB as u64, 0)));
        assert!(b.tick(sample(97 * MB as u64, MB as u64, 0)));
        let after = b.memtable_share_bytes();
        assert!(after < before, "cache grew: {after} vs {before}");
        let step = before - after;
        let arbitrated = b.total_bytes();
        assert!(
            step <= arbitrated / 1024 * STEP_PERMILLE + 1,
            "step is bounded: moved {step}"
        );
    }

    #[test]
    fn persistent_pressure_converges_to_floor_and_stops() {
        let b = MemoryBudget::new(64 * MB);
        b.register_writer();
        let mut fill = 0u64;
        let mut last = b.memtable_share_bytes();
        let mut moves = 0;
        for _ in 0..100 {
            fill += 32 * MB as u64;
            if b.tick(sample(fill, 0, 0)) {
                moves += 1;
                let now = b.memtable_share_bytes();
                assert!(now < last, "moves are monotone under one-sided pressure");
                last = now;
            }
        }
        // Clamped at the floor: exactly (512-256)/64 = 4 moves, then flat.
        assert_eq!(moves, (512 - MIN_SHARE_PERMILLE) / STEP_PERMILLE);
        assert_eq!(
            b.memtable_share_bytes(),
            b.total_bytes() / 1024 * MIN_SHARE_PERMILLE,
            "memtable share rests at its floor"
        );
        assert!(b.cache_share_bytes() > b.memtable_share_bytes());
    }

    #[test]
    fn stalls_shortcut_toward_the_write_buffer() {
        let b = MemoryBudget::new(64 * MB);
        b.register_writer();
        let before = b.memtable_share_bytes();
        // Stalls lean immediately, but still need two agreeing windows.
        assert!(!b.tick(sample(0, 0, 1)));
        assert!(b.tick(sample(0, 0, 2)));
        assert!(b.memtable_share_bytes() > before);
    }

    #[test]
    fn shares_always_cover_the_arbitrated_pool() {
        let b = MemoryBudget::new(64 * MB);
        b.register_writer();
        b.adjust_pinned(0, 3 * MB);
        let mut flush = 0u64;
        for _ in 0..20 {
            flush += 32 * MB as u64;
            b.tick(sample(0, flush, 0));
            let m = b.memtable_share_bytes();
            let c = b.cache_share_bytes();
            let pool = b.total_bytes() - b.pinned_bytes();
            assert!(m + c <= pool, "{m} + {c} exceeds pool {pool}");
            assert!(m + c >= pool - 1024, "shares must not leak budget");
        }
    }
}
