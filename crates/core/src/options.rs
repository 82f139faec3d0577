//! Engine configuration.
//!
//! The options mirror the knobs the Acheron demo exposes: the LSM shape
//! (buffer size, size ratio `T`, level count), the compaction strategy
//! (the *data layout* and *data movement* primitives), FADE's
//! delete-persistence threshold `D_th` with its TTL allocation, and
//! KiWi's delete-tile granularity `h`.

use std::sync::Arc;

use acheron_types::{Clock, Error, LogicalClock, Result, Tick};

/// Data-layout primitive: how runs are organized per level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompactionLayout {
    /// One sorted run per level; saturated levels push one file down
    /// (partial compaction). Read-optimized.
    Leveling,
    /// Up to `T` runs per level; a full level merges into one run of the
    /// next. Write-optimized.
    Tiering,
    /// Tiering on upper levels, leveling on the last level
    /// (Dostoevsky-style hybrid).
    LazyLeveling,
}

/// Data-movement primitive: which file a saturated level compacts first
/// (leveling only; a tiered level moves whole).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilePickPolicy {
    /// The file overlapping the fewest bytes in the next level
    /// (write-amplification-optimal; the delete-blind baseline).
    MinOverlap,
    /// The file with the highest point-tombstone density.
    TombstoneDensity,
    /// The file with the oldest tombstone (most urgent for persistence).
    OldestTombstone,
    /// Round-robin over the level's key space.
    RoundRobin,
}

/// How FADE splits the persistence threshold `D_th` into per-level TTLs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TtlAllocation {
    /// Every one of the `L` stations (the write buffer and disk levels
    /// `0 … L-2`) gets `D_eff / L`, where `D_eff = D_th − D_th/16`
    /// keeps a margin for trigger latency.
    Uniform,
    /// `d_i ∝ T^i` (levels hold exponentially more data, so tombstones
    /// get exponentially more time in deeper levels); Lethe's choice.
    Exponential,
}

/// FADE configuration: bounded tombstone persistence.
#[derive(Debug, Clone)]
pub struct FadeOptions {
    /// The delete persistence threshold `D_th`, in clock ticks: every
    /// point tombstone must be purged (reach and leave the last level)
    /// within this many ticks of its insertion.
    pub delete_persistence_threshold: Tick,
    /// TTL split across levels.
    pub ttl_allocation: TtlAllocation,
}

impl Default for FadeOptions {
    fn default() -> Self {
        FadeOptions {
            delete_persistence_threshold: 100_000,
            ttl_allocation: TtlAllocation::Exponential,
        }
    }
}

/// Top-level engine options.
#[derive(Clone)]
pub struct DbOptions {
    /// Memtable flush threshold in bytes.
    pub write_buffer_bytes: usize,
    /// LSM size ratio `T` between adjacent levels.
    pub size_ratio: u64,
    /// Number of L0 files that triggers an L0→L1 compaction.
    pub level0_file_limit: usize,
    /// Maximum number of levels (level `max_levels - 1` is the bottom).
    pub max_levels: usize,
    /// Byte budget of level 1; level `i` targets `base * T^(i-1)`.
    pub level1_target_bytes: u64,
    /// Target size of an individual output file during compaction.
    pub target_file_bytes: u64,
    /// Data layout across levels.
    pub layout: CompactionLayout,
    /// File choice when a level is saturated (FADE's TTL trigger picks
    /// its own: the most overdue file).
    pub file_pick: FilePickPolicy,
    /// FADE (bounded delete persistence); `None` = delete-blind baseline.
    pub fade: Option<FadeOptions>,
    /// SSTable page size in bytes.
    pub page_size: usize,
    /// KiWi delete-tile granularity `h` (pages per tile); 1 = classic.
    ///
    /// Applies only to the outputs of *bottommost* compactions, the one
    /// place a later compaction can drop pages from. Flushes (L0) and
    /// compactions with data beneath their key range write sort-ordered
    /// tables, so a sort-key seek into them reads one page per table,
    /// not `h`. A table moved down by a trivial move keeps its layout.
    pub pages_per_tile: usize,
    /// Bloom bits per key (0 disables filters).
    pub bloom_bits_per_key: usize,
    /// Shared page-cache capacity in bytes (0 disables caching).
    /// Experiments default to 0 so measured I/O reflects the layout, not
    /// cache luck.
    pub block_cache_bytes: usize,
    /// Unified memory budget in bytes, split across the write buffer,
    /// the block cache, and pinned table metadata by a
    /// [`crate::memory::MemoryBudget`]: pinned bytes come off the top,
    /// the write buffers get ¾ of the rest and the cache the remainder.
    ///
    /// **Precedence rule:** when this is non-zero it *overrides* the
    /// static sizing knobs — the memtable seal threshold comes from the
    /// budget's write-buffer share (not `write_buffer_bytes`) and the
    /// page cache is created at the budget's cache share and resized
    /// as pinned bytes change (`block_cache_bytes` is ignored, and a
    /// cache exists even when it is 0). When this is zero (the
    /// default), behavior is exactly legacy: `write_buffer_bytes` seals
    /// memtables and `block_cache_bytes` sizes the optional cache. On a
    /// sharded fleet one budget spans every shard: each shard's
    /// memtable allowance is the write-buffer share divided by the
    /// shard count, and all shards share one cache.
    pub memory_budget_bytes: usize,
    /// Sync the WAL on every commit.
    pub wal_sync: bool,
    /// Background maintenance threads owning flushes and compactions.
    /// `0` runs all maintenance synchronously inside the write path (the
    /// deterministic mode experiments use); the default is one less than
    /// the machine's available parallelism. See `ARCHITECTURE.md` for
    /// the executor's concurrency model.
    pub background_threads: usize,
    /// Soft L0 limit: at or above this many L0 files, each write is
    /// briefly delayed so maintenance can catch up. Only meaningful with
    /// `background_threads > 0`.
    pub l0_slowdown_files: usize,
    /// Hard L0 limit: at or above this many L0 files, writes block until
    /// compaction brings the count back down. Must be >=
    /// `l0_slowdown_files`. Only meaningful with `background_threads > 0`.
    pub l0_stall_files: usize,
    /// Maximum sealed (immutable) memtables queued for flush before
    /// writes stall. Only meaningful with `background_threads > 0`.
    pub max_imm_memtables: usize,
    /// Capacity of the flight-recorder event ring ([`crate::obs`]):
    /// the engine retains the newest this-many maintenance events for
    /// the `events` command. Must be >= 1; emission cost is
    /// capacity-independent.
    pub event_log_capacity: usize,
    /// Key-value separation threshold in bytes: a put whose value is at
    /// least this long has the value appended to the value log and only
    /// a fixed-size pointer stored in the tree. `0` disables separation
    /// (the default; every value stays inline and on-disk layouts are
    /// byte-identical to pre-vlog builds).
    pub value_separation_threshold: usize,
    /// Target size of one value-log segment file; the writer rolls to a
    /// fresh segment once the head reaches this size.
    pub vlog_segment_bytes: u64,
    /// Dead-byte fraction (percent, 0-100) at which vlog GC rewrites a
    /// segment even before any dead extent's FADE deadline is due.
    pub vlog_gc_dead_ratio_percent: u8,
    /// Clock used for tombstone aging; defaults to a logical clock that
    /// the engine advances once per write operation. [`crate::Db::open`]
    /// gives each engine its own [`LogicalClock`], started at this
    /// clock's tick, so engines opened from clones of one options value
    /// do not tick each other (read the engine's clock with
    /// [`crate::Db::now`], advance it with [`crate::Db::advance_clock`]).
    /// Any other clock is used as given. A sharded fleet's shards share
    /// the router's clock.
    pub clock: Arc<dyn Clock>,
    /// Advance the logical clock by one tick per write operation.
    /// (No effect on externally driven clocks.)
    pub auto_advance_clock: bool,
}

impl std::fmt::Debug for DbOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbOptions")
            .field("write_buffer_bytes", &self.write_buffer_bytes)
            .field("size_ratio", &self.size_ratio)
            .field("level0_file_limit", &self.level0_file_limit)
            .field("max_levels", &self.max_levels)
            .field("layout", &self.layout)
            .field("fade", &self.fade)
            .field("pages_per_tile", &self.pages_per_tile)
            .field("background_threads", &self.background_threads)
            .field(
                "value_separation_threshold",
                &self.value_separation_threshold,
            )
            .finish_non_exhaustive()
    }
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            write_buffer_bytes: 4 << 20,
            size_ratio: 4,
            level0_file_limit: 4,
            max_levels: 5,
            level1_target_bytes: 16 << 20,
            target_file_bytes: 4 << 20,
            layout: CompactionLayout::Leveling,
            // Write-optimized, and Lethe's default with FADE too: the TTL
            // trigger alone provides the persistence bound. Density-
            // driven picking is an ablation variant (see E9).
            file_pick: FilePickPolicy::MinOverlap,
            fade: None,
            page_size: 4096,
            pages_per_tile: 1,
            bloom_bits_per_key: 10,
            block_cache_bytes: 0,
            memory_budget_bytes: 0,
            wal_sync: false,
            background_threads: std::thread::available_parallelism()
                .map_or(1, |n| n.get().saturating_sub(1)),
            l0_slowdown_files: 8,
            l0_stall_files: 16,
            max_imm_memtables: 2,
            event_log_capacity: 4096,
            value_separation_threshold: 0,
            vlog_segment_bytes: 8 << 20,
            vlog_gc_dead_ratio_percent: 50,
            clock: Arc::new(LogicalClock::new()),
            auto_advance_clock: true,
        }
    }
}

impl DbOptions {
    /// A small-scale configuration convenient for tests and experiments:
    /// kilobyte-sized buffers so trees grow deep quickly.
    pub fn small() -> DbOptions {
        DbOptions {
            write_buffer_bytes: 16 << 10,
            level1_target_bytes: 64 << 10,
            target_file_bytes: 16 << 10,
            page_size: 1024,
            // Synchronous maintenance: a given op sequence always
            // produces the same tree, which the experiments rely on.
            background_threads: 0,
            ..DbOptions::default()
        }
    }

    /// The delete persistence threshold `D_th`, when FADE is on.
    pub fn d_th(&self) -> Option<Tick> {
        self.fade.as_ref().map(|f| f.delete_persistence_threshold)
    }

    /// Enable FADE with threshold `d_th` (keeping other FADE defaults).
    pub fn with_fade(mut self, d_th: Tick) -> DbOptions {
        self.fade = Some(FadeOptions {
            delete_persistence_threshold: d_th,
            ..FadeOptions::default()
        });
        self
    }

    /// Set the KiWi tile granularity of bottommost compaction outputs
    /// (see [`DbOptions::pages_per_tile`]; every other table is written
    /// with `h = 1`).
    pub fn with_tile(mut self, h: usize) -> DbOptions {
        self.pages_per_tile = h;
        self
    }

    /// Enable key-value separation for values of `threshold` bytes or
    /// more.
    pub fn with_value_separation(mut self, threshold: usize) -> DbOptions {
        self.value_separation_threshold = threshold;
        self
    }

    /// Enable the unified memory budget (see
    /// [`DbOptions::memory_budget_bytes`] for the precedence rule).
    pub fn with_memory_budget(mut self, total_bytes: usize) -> DbOptions {
        self.memory_budget_bytes = total_bytes;
        self
    }

    /// Validate option consistency.
    pub fn validate(&self) -> Result<()> {
        if self.size_ratio < 2 {
            return Err(Error::invalid_argument("size_ratio must be >= 2"));
        }
        if self.max_levels < 2 {
            return Err(Error::invalid_argument("max_levels must be >= 2"));
        }
        if self.max_levels > 16 {
            return Err(Error::invalid_argument("max_levels must be <= 16"));
        }
        if self.write_buffer_bytes < 1024 {
            return Err(Error::invalid_argument(
                "write_buffer_bytes must be >= 1024",
            ));
        }
        if self.level0_file_limit == 0 {
            return Err(Error::invalid_argument("level0_file_limit must be >= 1"));
        }
        if self.target_file_bytes == 0 {
            return Err(Error::invalid_argument("target_file_bytes must be >= 1"));
        }
        if let Some(fade) = &self.fade {
            if fade.delete_persistence_threshold == 0 {
                return Err(Error::invalid_argument(
                    "delete_persistence_threshold must be >= 1 tick",
                ));
            }
        }
        if self.pages_per_tile == 0 {
            return Err(Error::invalid_argument("pages_per_tile must be >= 1"));
        }
        if self.l0_slowdown_files == 0 {
            return Err(Error::invalid_argument("l0_slowdown_files must be >= 1"));
        }
        if self.l0_stall_files < self.l0_slowdown_files {
            return Err(Error::invalid_argument(
                "l0_stall_files must be >= l0_slowdown_files",
            ));
        }
        if self.max_imm_memtables == 0 {
            return Err(Error::invalid_argument("max_imm_memtables must be >= 1"));
        }
        if self.background_threads > 512 {
            return Err(Error::invalid_argument("background_threads must be <= 512"));
        }
        if self.event_log_capacity == 0 {
            return Err(Error::invalid_argument("event_log_capacity must be >= 1"));
        }
        if self.value_separation_threshold > 0 && self.vlog_segment_bytes == 0 {
            return Err(Error::invalid_argument("vlog_segment_bytes must be >= 1"));
        }
        if self.vlog_gc_dead_ratio_percent > 100 {
            return Err(Error::invalid_argument(
                "vlog_gc_dead_ratio_percent must be <= 100",
            ));
        }
        if self.memory_budget_bytes > 0 && self.memory_budget_bytes < 64 << 10 {
            return Err(Error::invalid_argument(
                "memory_budget_bytes must be 0 (disabled) or >= 64 KiB",
            ));
        }
        Ok(())
    }

    /// Byte budget for level `level` (levels >= 1).
    pub fn level_target_bytes(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        self.level1_target_bytes
            .saturating_mul(self.size_ratio.saturating_pow(level as u32 - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_validate() {
        DbOptions::default().validate().unwrap();
        DbOptions::small().validate().unwrap();
        DbOptions::small()
            .with_fade(1000)
            .with_tile(8)
            .validate()
            .unwrap();
    }

    #[test]
    fn invalid_combinations_rejected() {
        assert!(DbOptions {
            size_ratio: 1,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        assert!(DbOptions {
            max_levels: 1,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        assert!(DbOptions {
            max_levels: 17,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        assert!(DbOptions {
            write_buffer_bytes: 10,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        assert!(DbOptions {
            level0_file_limit: 0,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        assert!(DbOptions::default().with_fade(0).validate().is_err());
        assert!(DbOptions {
            pages_per_tile: 0,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        assert!(DbOptions {
            l0_slowdown_files: 0,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        assert!(DbOptions {
            l0_stall_files: 2,
            l0_slowdown_files: 4,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        assert!(DbOptions {
            max_imm_memtables: 0,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        assert!(DbOptions {
            background_threads: 10_000,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        assert!(DbOptions {
            event_log_capacity: 0,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        assert!(DbOptions {
            vlog_segment_bytes: 0,
            ..DbOptions::default().with_value_separation(256)
        }
        .validate()
        .is_err());
        assert!(DbOptions {
            vlog_gc_dead_ratio_percent: 101,
            ..DbOptions::default()
        }
        .validate()
        .is_err());
        // Separation off tolerates a zero segment size.
        assert!(DbOptions {
            vlog_segment_bytes: 0,
            ..DbOptions::default()
        }
        .validate()
        .is_ok());
        // A memory budget too small to split is rejected; zero (off)
        // and a real budget are fine.
        assert!(DbOptions::default()
            .with_memory_budget(1024)
            .validate()
            .is_err());
        assert!(DbOptions::default()
            .with_memory_budget(8 << 20)
            .validate()
            .is_ok());
        assert!(DbOptions::default()
            .with_memory_budget(0)
            .validate()
            .is_ok());
    }

    #[test]
    fn small_options_are_synchronous() {
        // Experiments and unit tests rely on small() being deterministic.
        assert_eq!(DbOptions::small().background_threads, 0);
    }

    #[test]
    fn level_targets_grow_by_size_ratio() {
        let opts = DbOptions {
            level1_target_bytes: 100,
            size_ratio: 10,
            ..DbOptions::default()
        };
        assert_eq!(opts.level_target_bytes(1), 100);
        assert_eq!(opts.level_target_bytes(2), 1000);
        assert_eq!(opts.level_target_bytes(3), 10_000);
    }
}
