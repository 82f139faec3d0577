//! Engine-wide statistics, including the delete-persistence histogram —
//! the headline measurement of the reproduction.

use std::sync::atomic::{AtomicU64, Ordering};

use acheron_types::Tick;
use parking_lot::Mutex;

/// Number of power-of-two latency buckets.
const HISTOGRAM_BUCKETS: usize = 40;

/// A histogram over `u64` samples with power-of-two buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        let bucket = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile from the bucket boundaries (upper bound of
    /// the bucket containing the q-th sample).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Bucket i holds values in [2^(i-1), 2^i).
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << i).saturating_sub(1)
                };
            }
        }
        self.max()
    }

    /// [`LatencyHistogram::quantile`] with the argument in percent:
    /// `percentile(99.0)` is the p99 upper bound from the power-of-two
    /// buckets.
    pub fn percentile(&self, p: f64) -> u64 {
        self.quantile(p / 100.0)
    }

    /// A plain-data summary of the histogram (count/mean/max and the
    /// p50/p90/p99 bucket upper bounds), for export and display.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            max: self.max(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
        }
    }
}

/// Plain-data summary of a [`LatencyHistogram`]: what a remote stats
/// consumer needs without shipping the buckets themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Mean sample value.
    pub mean: f64,
    /// Maximum sample value.
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl HistogramSummary {
    /// Combine two summaries conservatively. Counts sum and means are
    /// count-weighted (both exact); max/p50/p90/p99 take the pairwise
    /// maximum, which upper-bounds the true merged quantiles — the safe
    /// direction for latency SLO reporting, where an aggregated p99 must
    /// never *understate* the worst shard. (True quantile merging needs
    /// the buckets, which a plain-data summary no longer has.)
    pub fn merge(&self, other: &HistogramSummary) -> HistogramSummary {
        let count = self.count + other.count;
        let mean = if count == 0 {
            0.0
        } else {
            (self.mean * self.count as f64 + other.mean * other.count as f64) / count as f64
        };
        HistogramSummary {
            count,
            mean,
            max: self.max.max(other.max),
            p50: self.p50.max(other.p50),
            p90: self.p90.max(other.p90),
            p99: self.p99.max(other.p99),
        }
    }
}

/// Monotone counters describing everything the engine has done.
#[derive(Debug, Default)]
pub struct DbStats {
    /// Put operations accepted.
    pub puts: AtomicU64,
    /// Point deletes accepted.
    pub deletes: AtomicU64,
    /// Secondary range deletes accepted.
    pub range_deletes: AtomicU64,
    /// Sort-key range deletes accepted.
    pub sort_range_deletes: AtomicU64,
    /// Point lookups served.
    pub gets: AtomicU64,
    /// Range scans served.
    pub scans: AtomicU64,
    /// User payload bytes (key+value) accepted.
    pub user_bytes: AtomicU64,
    /// Memtable flushes performed.
    pub flushes: AtomicU64,
    /// Compactions performed.
    pub compactions: AtomicU64,
    /// Compactions triggered by FADE TTL expiry rather than saturation.
    pub ttl_compactions: AtomicU64,
    /// Bytes read by compactions.
    pub compaction_bytes_in: AtomicU64,
    /// Bytes written by compactions and flushes (table files only).
    pub compaction_bytes_out: AtomicU64,
    /// Entries dropped because a newer version/tombstone shadowed them.
    pub entries_shadowed: AtomicU64,
    /// Entries dropped because a secondary range tombstone covered them.
    pub entries_range_purged: AtomicU64,
    /// Entries dropped because a sort-key range tombstone shadowed them.
    pub entries_key_range_purged: AtomicU64,
    /// Point tombstones physically dropped at the bottom level.
    pub tombstones_purged: AtomicU64,
    /// Sort-key range tombstones physically purged at the bottom level.
    pub key_range_tombstones_purged: AtomicU64,
    /// KiWi pages dropped wholesale (never read) during compactions.
    pub pages_dropped: AtomicU64,
    /// Delete persistence latency: recorded for each purged tombstone as
    /// (purge tick - delete tick).
    pub persistence_latency: LatencyHistogram,
    /// Persistence-threshold violations observed (FADE should keep this
    /// at zero; the baseline will not).
    pub persistence_violations: AtomicU64,
    /// Ticks of the most recent compaction per reason, for debugging.
    pub last_compaction_reason: Mutex<Option<String>>,
    /// Stall episodes: writes that blocked on the hard L0 / sealed-
    /// memtable limits until background maintenance caught up.
    pub write_stalls: AtomicU64,
    /// Writes briefly delayed because L0 reached the soft limit.
    pub write_slowdowns: AtomicU64,
    /// Wall-clock microseconds per stall episode.
    pub stall_micros: LatencyHistogram,
    /// Wall-clock microseconds per memtable flush (table build through
    /// manifest install).
    pub flush_micros: LatencyHistogram,
    /// Wall-clock microseconds per compaction (merge through install).
    pub compaction_micros: LatencyHistogram,
    /// Deepest the sealed-memtable queue has ever grown.
    pub imm_queue_peak: AtomicU64,
    /// Failures recorded by the background maintenance executor.
    pub background_errors: AtomicU64,
    /// Commit groups published by write leaders (each group is one WAL
    /// append+fsync covering every queued request).
    pub commit_groups: AtomicU64,
    /// Distribution of operations per commit group: the group-commit
    /// batching factor under concurrent writers.
    pub commit_group_ops: LatencyHistogram,
    /// WAL fsyncs issued (at most one per commit group when `wal_sync`).
    pub wal_syncs: AtomicU64,
    /// Fsyncs avoided by group commit: requests that rode a leader's
    /// sync instead of issuing their own.
    pub wal_syncs_saved: AtomicU64,
    /// Read-view publications (memtable seal, flush install, compaction
    /// install, range delete, and one per commit group's seqno bump).
    pub read_view_swaps: AtomicU64,
    /// Values separated into the value log at commit time.
    pub vlog_appends: AtomicU64,
    /// Framed bytes appended to the value log (commit + GC rewrites).
    pub vlog_bytes_written: AtomicU64,
    /// Value-pointer dereferences served by reads and scans.
    pub vlog_reads: AtomicU64,
    /// Value-log GC passes that rewrote a segment's survivors.
    pub vlog_gc_rewrites: AtomicU64,
    /// Live bytes re-appended to the vlog head by GC rewrites.
    pub vlog_gc_rewritten_bytes: AtomicU64,
    /// Dead bytes reclaimed by deleting GC'd segments.
    pub vlog_gc_reclaimed_bytes: AtomicU64,
    /// Value-log segment files deleted (GC and recovery orphan sweep).
    pub vlog_segments_deleted: AtomicU64,
    /// Operations that received a full per-op trace (sampler hits plus
    /// wire-requested traces).
    pub traces_sampled: AtomicU64,
}

impl DbStats {
    /// Record a purged tombstone against the persistence threshold.
    pub fn record_tombstone_purge(&self, delete_tick: Tick, purge_tick: Tick, d_th: Option<Tick>) {
        let latency = purge_tick.saturating_sub(delete_tick);
        self.tombstones_purged.fetch_add(1, Ordering::Relaxed);
        self.persistence_latency.record(latency);
        if let Some(d) = d_th {
            if latency > d {
                self.persistence_violations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Write amplification so far: table bytes written / user bytes.
    pub fn write_amplification(&self) -> f64 {
        let user = self.user_bytes.load(Ordering::Relaxed);
        if user == 0 {
            return 0.0;
        }
        self.compaction_bytes_out.load(Ordering::Relaxed) as f64 / user as f64
    }

    /// A point-in-time, plain-data copy of every counter and histogram
    /// summary — the exportable form of the stats (the wire `stats`
    /// command serializes this).
    pub fn snapshot(&self) -> StatsSnapshot {
        use Ordering::Relaxed;
        StatsSnapshot {
            puts: self.puts.load(Relaxed),
            deletes: self.deletes.load(Relaxed),
            range_deletes: self.range_deletes.load(Relaxed),
            sort_range_deletes: self.sort_range_deletes.load(Relaxed),
            gets: self.gets.load(Relaxed),
            scans: self.scans.load(Relaxed),
            user_bytes: self.user_bytes.load(Relaxed),
            flushes: self.flushes.load(Relaxed),
            compactions: self.compactions.load(Relaxed),
            ttl_compactions: self.ttl_compactions.load(Relaxed),
            compaction_bytes_in: self.compaction_bytes_in.load(Relaxed),
            compaction_bytes_out: self.compaction_bytes_out.load(Relaxed),
            entries_shadowed: self.entries_shadowed.load(Relaxed),
            entries_range_purged: self.entries_range_purged.load(Relaxed),
            entries_key_range_purged: self.entries_key_range_purged.load(Relaxed),
            tombstones_purged: self.tombstones_purged.load(Relaxed),
            key_range_tombstones_purged: self.key_range_tombstones_purged.load(Relaxed),
            pages_dropped: self.pages_dropped.load(Relaxed),
            persistence_latency: self.persistence_latency.summary(),
            persistence_violations: self.persistence_violations.load(Relaxed),
            write_stalls: self.write_stalls.load(Relaxed),
            write_slowdowns: self.write_slowdowns.load(Relaxed),
            stall_micros: self.stall_micros.summary(),
            flush_micros: self.flush_micros.summary(),
            compaction_micros: self.compaction_micros.summary(),
            imm_queue_peak: self.imm_queue_peak.load(Relaxed),
            background_errors: self.background_errors.load(Relaxed),
            commit_groups: self.commit_groups.load(Relaxed),
            commit_group_ops: self.commit_group_ops.summary(),
            wal_syncs: self.wal_syncs.load(Relaxed),
            wal_syncs_saved: self.wal_syncs_saved.load(Relaxed),
            read_view_swaps: self.read_view_swaps.load(Relaxed),
            vlog_appends: self.vlog_appends.load(Relaxed),
            vlog_bytes_written: self.vlog_bytes_written.load(Relaxed),
            vlog_reads: self.vlog_reads.load(Relaxed),
            vlog_gc_rewrites: self.vlog_gc_rewrites.load(Relaxed),
            vlog_gc_rewritten_bytes: self.vlog_gc_rewritten_bytes.load(Relaxed),
            vlog_gc_reclaimed_bytes: self.vlog_gc_reclaimed_bytes.load(Relaxed),
            vlog_segments_deleted: self.vlog_segments_deleted.load(Relaxed),
            traces_sampled: self.traces_sampled.load(Relaxed),
            // Cache and memory-budget fields live on the BlockCache /
            // MemoryBudget, not in DbStats; `Db::stats_snapshot` fills
            // them (and the fleet router fills them once for a shared
            // cache, so shard merges cannot multiply a global gauge).
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_inserted_bytes: 0,
            cache_prepopulated_bytes: 0,
            cache_used_bytes: 0,
            cache_capacity_bytes: 0,
            memory_budget_bytes: 0,
            memtable_budget_bytes: 0,
            pinned_bytes: 0,
            memory_adjustments: 0,
        }
    }
}

/// Plain-data, copyable snapshot of [`DbStats`] — safe to ship across
/// threads or the wire. Field meanings match the [`DbStats`] fields of
/// the same names.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[allow(missing_docs)]
pub struct StatsSnapshot {
    pub puts: u64,
    pub deletes: u64,
    pub range_deletes: u64,
    pub sort_range_deletes: u64,
    pub gets: u64,
    pub scans: u64,
    pub user_bytes: u64,
    pub flushes: u64,
    pub compactions: u64,
    pub ttl_compactions: u64,
    pub compaction_bytes_in: u64,
    pub compaction_bytes_out: u64,
    pub entries_shadowed: u64,
    pub entries_range_purged: u64,
    pub entries_key_range_purged: u64,
    pub tombstones_purged: u64,
    pub key_range_tombstones_purged: u64,
    pub pages_dropped: u64,
    pub persistence_latency: HistogramSummary,
    pub persistence_violations: u64,
    pub write_stalls: u64,
    pub write_slowdowns: u64,
    pub stall_micros: HistogramSummary,
    pub flush_micros: HistogramSummary,
    pub compaction_micros: HistogramSummary,
    pub imm_queue_peak: u64,
    pub background_errors: u64,
    pub commit_groups: u64,
    pub commit_group_ops: HistogramSummary,
    pub wal_syncs: u64,
    pub wal_syncs_saved: u64,
    pub read_view_swaps: u64,
    pub vlog_appends: u64,
    pub vlog_bytes_written: u64,
    pub vlog_reads: u64,
    pub vlog_gc_rewrites: u64,
    pub vlog_gc_rewritten_bytes: u64,
    pub vlog_gc_reclaimed_bytes: u64,
    pub vlog_segments_deleted: u64,
    pub traces_sampled: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_inserted_bytes: u64,
    pub cache_prepopulated_bytes: u64,
    pub cache_used_bytes: u64,
    pub cache_capacity_bytes: u64,
    pub memory_budget_bytes: u64,
    pub memtable_budget_bytes: u64,
    pub pinned_bytes: u64,
    pub memory_adjustments: u64,
}

impl StatsSnapshot {
    /// Fill the cache fields from `cache`. Called once per cache
    /// instance — by the owning engine, or by the fleet router for a
    /// shared one — so merging shard snapshots cannot multiply them.
    pub(crate) fn fill_cache(&mut self, cache: &acheron_sstable::BlockCache) {
        self.cache_hits = cache.hits();
        self.cache_misses = cache.misses();
        self.cache_evictions = cache.evictions();
        self.cache_inserted_bytes = cache.inserted_bytes();
        self.cache_prepopulated_bytes = cache.prepopulated_bytes();
        self.cache_used_bytes = cache.used_bytes() as u64;
        self.cache_capacity_bytes = cache.capacity_bytes() as u64;
    }

    /// Combine two snapshots into a fleet-wide view: counters sum,
    /// `imm_queue_peak` takes the worst shard, histogram summaries merge
    /// per [`HistogramSummary::merge`] (quantiles upper-bounded by the
    /// worst shard). Written as an exhaustive struct expression so a new
    /// field cannot be added without deciding how it aggregates.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            puts: self.puts + other.puts,
            deletes: self.deletes + other.deletes,
            range_deletes: self.range_deletes + other.range_deletes,
            sort_range_deletes: self.sort_range_deletes + other.sort_range_deletes,
            gets: self.gets + other.gets,
            scans: self.scans + other.scans,
            user_bytes: self.user_bytes + other.user_bytes,
            flushes: self.flushes + other.flushes,
            compactions: self.compactions + other.compactions,
            ttl_compactions: self.ttl_compactions + other.ttl_compactions,
            compaction_bytes_in: self.compaction_bytes_in + other.compaction_bytes_in,
            compaction_bytes_out: self.compaction_bytes_out + other.compaction_bytes_out,
            entries_shadowed: self.entries_shadowed + other.entries_shadowed,
            entries_range_purged: self.entries_range_purged + other.entries_range_purged,
            entries_key_range_purged: self.entries_key_range_purged
                + other.entries_key_range_purged,
            tombstones_purged: self.tombstones_purged + other.tombstones_purged,
            key_range_tombstones_purged: self.key_range_tombstones_purged
                + other.key_range_tombstones_purged,
            pages_dropped: self.pages_dropped + other.pages_dropped,
            persistence_latency: self.persistence_latency.merge(&other.persistence_latency),
            persistence_violations: self.persistence_violations + other.persistence_violations,
            write_stalls: self.write_stalls + other.write_stalls,
            write_slowdowns: self.write_slowdowns + other.write_slowdowns,
            stall_micros: self.stall_micros.merge(&other.stall_micros),
            flush_micros: self.flush_micros.merge(&other.flush_micros),
            compaction_micros: self.compaction_micros.merge(&other.compaction_micros),
            imm_queue_peak: self.imm_queue_peak.max(other.imm_queue_peak),
            background_errors: self.background_errors + other.background_errors,
            commit_groups: self.commit_groups + other.commit_groups,
            commit_group_ops: self.commit_group_ops.merge(&other.commit_group_ops),
            wal_syncs: self.wal_syncs + other.wal_syncs,
            wal_syncs_saved: self.wal_syncs_saved + other.wal_syncs_saved,
            read_view_swaps: self.read_view_swaps + other.read_view_swaps,
            vlog_appends: self.vlog_appends + other.vlog_appends,
            vlog_bytes_written: self.vlog_bytes_written + other.vlog_bytes_written,
            vlog_reads: self.vlog_reads + other.vlog_reads,
            vlog_gc_rewrites: self.vlog_gc_rewrites + other.vlog_gc_rewrites,
            vlog_gc_rewritten_bytes: self.vlog_gc_rewritten_bytes + other.vlog_gc_rewritten_bytes,
            vlog_gc_reclaimed_bytes: self.vlog_gc_reclaimed_bytes + other.vlog_gc_reclaimed_bytes,
            vlog_segments_deleted: self.vlog_segments_deleted + other.vlog_segments_deleted,
            traces_sampled: self.traces_sampled + other.traces_sampled,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_evictions: self.cache_evictions + other.cache_evictions,
            cache_inserted_bytes: self.cache_inserted_bytes + other.cache_inserted_bytes,
            cache_prepopulated_bytes: self.cache_prepopulated_bytes
                + other.cache_prepopulated_bytes,
            cache_used_bytes: self.cache_used_bytes + other.cache_used_bytes,
            cache_capacity_bytes: self.cache_capacity_bytes + other.cache_capacity_bytes,
            memory_budget_bytes: self.memory_budget_bytes + other.memory_budget_bytes,
            memtable_budget_bytes: self.memtable_budget_bytes + other.memtable_budget_bytes,
            pinned_bytes: self.pinned_bytes + other.pinned_bytes,
            memory_adjustments: self.memory_adjustments + other.memory_adjustments,
        }
    }

    /// Flatten into `(name, value)` pairs — the canonical wire/export
    /// form. Histogram means are rounded to integers; the remaining
    /// histogram fields are exported as `<name>_{count,max,p50,p90,p99}`.
    pub fn to_pairs(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = vec![
            ("puts".into(), self.puts),
            ("deletes".into(), self.deletes),
            ("range_deletes".into(), self.range_deletes),
            ("sort_range_deletes".into(), self.sort_range_deletes),
            ("gets".into(), self.gets),
            ("scans".into(), self.scans),
            ("user_bytes".into(), self.user_bytes),
            ("flushes".into(), self.flushes),
            ("compactions".into(), self.compactions),
            ("ttl_compactions".into(), self.ttl_compactions),
            ("compaction_bytes_in".into(), self.compaction_bytes_in),
            ("compaction_bytes_out".into(), self.compaction_bytes_out),
            ("entries_shadowed".into(), self.entries_shadowed),
            ("entries_range_purged".into(), self.entries_range_purged),
            (
                "entries_key_range_purged".into(),
                self.entries_key_range_purged,
            ),
            ("tombstones_purged".into(), self.tombstones_purged),
            (
                "key_range_tombstones_purged".into(),
                self.key_range_tombstones_purged,
            ),
            ("pages_dropped".into(), self.pages_dropped),
            ("persistence_violations".into(), self.persistence_violations),
            ("write_stalls".into(), self.write_stalls),
            ("write_slowdowns".into(), self.write_slowdowns),
            ("imm_queue_peak".into(), self.imm_queue_peak),
            ("background_errors".into(), self.background_errors),
            ("commit_groups".into(), self.commit_groups),
            ("wal_syncs".into(), self.wal_syncs),
            ("wal_syncs_saved".into(), self.wal_syncs_saved),
            ("read_view_swaps".into(), self.read_view_swaps),
            ("vlog_appends".into(), self.vlog_appends),
            ("vlog_bytes_written".into(), self.vlog_bytes_written),
            ("vlog_reads".into(), self.vlog_reads),
            ("vlog_gc_rewrites".into(), self.vlog_gc_rewrites),
            (
                "vlog_gc_rewritten_bytes".into(),
                self.vlog_gc_rewritten_bytes,
            ),
            (
                "vlog_gc_reclaimed_bytes".into(),
                self.vlog_gc_reclaimed_bytes,
            ),
            ("vlog_segments_deleted".into(), self.vlog_segments_deleted),
            ("traces_sampled".into(), self.traces_sampled),
            // Cache/memory names carry the exposition prefix directly so
            // the Prometheus rendering (which prints pair names
            // verbatim) emits the documented db_cache_* / db_memory_*
            // series.
            ("db_cache_hits".into(), self.cache_hits),
            ("db_cache_misses".into(), self.cache_misses),
            ("db_cache_evictions".into(), self.cache_evictions),
            ("db_cache_inserted_bytes".into(), self.cache_inserted_bytes),
            (
                "db_cache_prepopulated_bytes".into(),
                self.cache_prepopulated_bytes,
            ),
            ("db_cache_used_bytes".into(), self.cache_used_bytes),
            ("db_cache_capacity_bytes".into(), self.cache_capacity_bytes),
            ("db_memory_budget_bytes".into(), self.memory_budget_bytes),
            (
                "db_memory_memtable_budget_bytes".into(),
                self.memtable_budget_bytes,
            ),
            ("db_memory_pinned_bytes".into(), self.pinned_bytes),
            (
                "db_memory_budget_adjustments".into(),
                self.memory_adjustments,
            ),
        ];
        for (name, h) in [
            ("persistence_latency", &self.persistence_latency),
            ("stall_micros", &self.stall_micros),
            ("flush_micros", &self.flush_micros),
            ("compaction_micros", &self.compaction_micros),
            ("commit_group_ops", &self.commit_group_ops),
        ] {
            out.push((format!("{name}_count"), h.count));
            out.push((format!("{name}_mean"), h.mean.round() as u64));
            out.push((format!("{name}_max"), h.max));
            out.push((format!("{name}_p50"), h.p50));
            out.push((format!("{name}_p90"), h.p90));
            out.push((format!("{name}_p99"), h.p99));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basics() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 221.2).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // Median is 500; the bucket upper bound containing it is 511.
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(1.0) >= 999);
        // The q=0 rank clamps to the first sample, which is 0 here.
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn histogram_zero_sample() {
        let h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn percentile_matches_quantile() {
        let h = LatencyHistogram::default();
        for v in 0..1000u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), h.quantile(0.5));
        assert_eq!(h.percentile(99.0), h.quantile(0.99));
        assert!(h.percentile(99.0) >= h.percentile(50.0));
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, h.percentile(50.0));
        assert_eq!(s.p99, h.percentile(99.0));
        assert_eq!(s.max, 999);
    }

    #[test]
    fn snapshot_copies_counters_and_flattens() {
        let s = DbStats::default();
        s.puts.store(7, Ordering::Relaxed);
        s.record_tombstone_purge(10, 30, Some(100));
        let snap = s.snapshot();
        assert_eq!(snap.puts, 7);
        assert_eq!(snap.tombstones_purged, 1);
        assert_eq!(snap.persistence_latency.count, 1);
        let pairs = snap.to_pairs();
        let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(get("puts"), Some(7));
        assert_eq!(get("persistence_latency_count"), Some(1));
        assert_eq!(get("persistence_latency_max"), Some(20));
    }

    #[test]
    fn to_pairs_covers_every_snapshot_field() {
        fn hist(seed: u64) -> HistogramSummary {
            HistogramSummary {
                count: seed,
                mean: seed as f64 + 0.25,
                max: seed + 1,
                p50: seed + 2,
                p90: seed + 3,
                p99: seed + 4,
            }
        }
        let snap = StatsSnapshot {
            puts: 1,
            deletes: 2,
            range_deletes: 3,
            sort_range_deletes: 25,
            gets: 4,
            scans: 5,
            user_bytes: 6,
            flushes: 7,
            compactions: 8,
            ttl_compactions: 9,
            compaction_bytes_in: 10,
            compaction_bytes_out: 11,
            entries_shadowed: 12,
            entries_range_purged: 13,
            entries_key_range_purged: 26,
            tombstones_purged: 14,
            key_range_tombstones_purged: 27,
            pages_dropped: 15,
            persistence_latency: hist(100),
            persistence_violations: 16,
            write_stalls: 17,
            write_slowdowns: 18,
            stall_micros: hist(200),
            flush_micros: hist(300),
            compaction_micros: hist(400),
            imm_queue_peak: 19,
            background_errors: 20,
            commit_groups: 21,
            commit_group_ops: hist(500),
            wal_syncs: 22,
            wal_syncs_saved: 23,
            read_view_swaps: 24,
            vlog_appends: 28,
            vlog_bytes_written: 29,
            vlog_reads: 30,
            vlog_gc_rewrites: 31,
            vlog_gc_rewritten_bytes: 32,
            vlog_gc_reclaimed_bytes: 33,
            vlog_segments_deleted: 34,
            traces_sampled: 45,
            cache_hits: 35,
            cache_misses: 36,
            cache_evictions: 37,
            cache_inserted_bytes: 38,
            cache_prepopulated_bytes: 46,
            cache_used_bytes: 39,
            cache_capacity_bytes: 40,
            memory_budget_bytes: 41,
            memtable_budget_bytes: 42,
            pinned_bytes: 43,
            memory_adjustments: 44,
        };
        // Destructure with no `..`: adding a field to StatsSnapshot
        // without deciding how it exports breaks this test at compile
        // time, which is the point — to_pairs must not silently drift.
        let StatsSnapshot {
            puts,
            deletes,
            range_deletes,
            sort_range_deletes,
            gets,
            scans,
            user_bytes,
            flushes,
            compactions,
            ttl_compactions,
            compaction_bytes_in,
            compaction_bytes_out,
            entries_shadowed,
            entries_range_purged,
            entries_key_range_purged,
            tombstones_purged,
            key_range_tombstones_purged,
            pages_dropped,
            persistence_latency,
            persistence_violations,
            write_stalls,
            write_slowdowns,
            stall_micros,
            flush_micros,
            compaction_micros,
            imm_queue_peak,
            background_errors,
            commit_groups,
            commit_group_ops,
            wal_syncs,
            wal_syncs_saved,
            read_view_swaps,
            vlog_appends,
            vlog_bytes_written,
            vlog_reads,
            vlog_gc_rewrites,
            vlog_gc_rewritten_bytes,
            vlog_gc_reclaimed_bytes,
            vlog_segments_deleted,
            traces_sampled,
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_inserted_bytes,
            cache_prepopulated_bytes,
            cache_used_bytes,
            cache_capacity_bytes,
            memory_budget_bytes,
            memtable_budget_bytes,
            pinned_bytes,
            memory_adjustments,
        } = snap;
        let pairs = snap.to_pairs();
        let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        let scalars = [
            ("puts", puts),
            ("deletes", deletes),
            ("range_deletes", range_deletes),
            ("sort_range_deletes", sort_range_deletes),
            ("gets", gets),
            ("scans", scans),
            ("user_bytes", user_bytes),
            ("flushes", flushes),
            ("compactions", compactions),
            ("ttl_compactions", ttl_compactions),
            ("compaction_bytes_in", compaction_bytes_in),
            ("compaction_bytes_out", compaction_bytes_out),
            ("entries_shadowed", entries_shadowed),
            ("entries_range_purged", entries_range_purged),
            ("entries_key_range_purged", entries_key_range_purged),
            ("tombstones_purged", tombstones_purged),
            ("key_range_tombstones_purged", key_range_tombstones_purged),
            ("pages_dropped", pages_dropped),
            ("persistence_violations", persistence_violations),
            ("write_stalls", write_stalls),
            ("write_slowdowns", write_slowdowns),
            ("imm_queue_peak", imm_queue_peak),
            ("background_errors", background_errors),
            ("commit_groups", commit_groups),
            ("wal_syncs", wal_syncs),
            ("wal_syncs_saved", wal_syncs_saved),
            ("read_view_swaps", read_view_swaps),
            ("vlog_appends", vlog_appends),
            ("vlog_bytes_written", vlog_bytes_written),
            ("vlog_reads", vlog_reads),
            ("vlog_gc_rewrites", vlog_gc_rewrites),
            ("vlog_gc_rewritten_bytes", vlog_gc_rewritten_bytes),
            ("vlog_gc_reclaimed_bytes", vlog_gc_reclaimed_bytes),
            ("vlog_segments_deleted", vlog_segments_deleted),
            ("traces_sampled", traces_sampled),
            ("db_cache_hits", cache_hits),
            ("db_cache_misses", cache_misses),
            ("db_cache_evictions", cache_evictions),
            ("db_cache_inserted_bytes", cache_inserted_bytes),
            ("db_cache_prepopulated_bytes", cache_prepopulated_bytes),
            ("db_cache_used_bytes", cache_used_bytes),
            ("db_cache_capacity_bytes", cache_capacity_bytes),
            ("db_memory_budget_bytes", memory_budget_bytes),
            ("db_memory_memtable_budget_bytes", memtable_budget_bytes),
            ("db_memory_pinned_bytes", pinned_bytes),
            ("db_memory_budget_adjustments", memory_adjustments),
        ];
        for (name, value) in scalars {
            assert_eq!(
                get(name),
                Some(value),
                "scalar {name} missing from to_pairs"
            );
        }
        let histograms = [
            ("persistence_latency", persistence_latency),
            ("stall_micros", stall_micros),
            ("flush_micros", flush_micros),
            ("compaction_micros", compaction_micros),
            ("commit_group_ops", commit_group_ops),
        ];
        for (name, h) in histograms {
            assert_eq!(get(&format!("{name}_count")), Some(h.count), "{name}");
            assert_eq!(
                get(&format!("{name}_mean")),
                Some(h.mean.round() as u64),
                "{name}"
            );
            assert_eq!(get(&format!("{name}_max")), Some(h.max), "{name}");
            assert_eq!(get(&format!("{name}_p50")), Some(h.p50), "{name}");
            assert_eq!(get(&format!("{name}_p90")), Some(h.p90), "{name}");
            assert_eq!(get(&format!("{name}_p99")), Some(h.p99), "{name}");
        }
        // And nothing extra: every exported pair traces back to a field.
        assert_eq!(pairs.len(), scalars.len() + 6 * histograms.len());
    }

    #[test]
    fn merge_sums_counters_and_upper_bounds_quantiles() {
        let a = StatsSnapshot {
            puts: 10,
            imm_queue_peak: 3,
            persistence_latency: HistogramSummary {
                count: 4,
                mean: 10.0,
                max: 40,
                p50: 8,
                p90: 20,
                p99: 40,
            },
            ..StatsSnapshot::default()
        };
        let b = StatsSnapshot {
            puts: 5,
            imm_queue_peak: 7,
            persistence_latency: HistogramSummary {
                count: 12,
                mean: 2.0,
                max: 16,
                p50: 2,
                p90: 30,
                p99: 31,
            },
            ..StatsSnapshot::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.puts, 15);
        assert_eq!(m.imm_queue_peak, 7, "peak is a max, not a sum");
        let h = m.persistence_latency;
        assert_eq!(h.count, 16);
        assert!((h.mean - 4.0).abs() < 1e-9, "count-weighted mean");
        assert_eq!(h.max, 40);
        assert_eq!((h.p50, h.p90, h.p99), (8, 30, 40), "worst-shard quantiles");
        // Merging with an empty snapshot is the identity.
        assert_eq!(a.merge(&StatsSnapshot::default()), a);
    }

    #[test]
    fn purge_recording_flags_violations() {
        let s = DbStats::default();
        s.record_tombstone_purge(100, 150, Some(60));
        s.record_tombstone_purge(100, 180, Some(60));
        assert_eq!(s.tombstones_purged.load(Ordering::Relaxed), 2);
        assert_eq!(s.persistence_violations.load(Ordering::Relaxed), 1);
        // Without a threshold nothing is a violation.
        s.record_tombstone_purge(0, 1_000_000, None);
        assert_eq!(s.persistence_violations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn write_amplification_ratio() {
        let s = DbStats::default();
        assert_eq!(s.write_amplification(), 0.0);
        s.user_bytes.store(100, Ordering::Relaxed);
        s.compaction_bytes_out.store(450, Ordering::Relaxed);
        assert!((s.write_amplification() - 4.5).abs() < 1e-9);
    }
}
