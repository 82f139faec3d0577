//! Engine-wide statistics, including the delete-persistence histogram —
//! the headline measurement of the reproduction.

use std::sync::atomic::{AtomicU64, Ordering};

use acheron_types::Tick;

/// Sub-buckets per power of two (as a shift): a quantile reads within an
/// eighth of its value, not at the power of two above it.
const SUB_BITS: u32 = 3;

/// Sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;

/// Values below `2 * SUB` get a bucket each; each power of two above
/// them is split into `SUB` equal sub-buckets, up to `u64::MAX`.
const HISTOGRAM_BUCKETS: usize = 2 * SUB + (63 - SUB_BITS as usize) * SUB;

/// The bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // > SUB_BITS
    let sub = (v >> (top - SUB_BITS)) as usize & (SUB - 1);
    2 * SUB + (top - SUB_BITS - 1) as usize * SUB + sub
}

/// The largest value bucket `i` holds.
fn bucket_upper(i: usize) -> u64 {
    if i < 2 * SUB {
        return i as u64;
    }
    let (top, sub) = (
        (i - 2 * SUB) / SUB + SUB_BITS as usize + 1,
        (i - 2 * SUB) % SUB,
    );
    let end = ((SUB + sub + 1) as u128) << (top - SUB_BITS as usize);
    u64::try_from(end - 1).unwrap_or(u64::MAX)
}

/// A histogram over `u64` samples with log-linear buckets: eight per
/// power of two.
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
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
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

    /// Approximate quantile from the bucket boundaries: the upper bound
    /// of the bucket containing the q-th sample (within an eighth of the
    /// sample), clamped to the recorded maximum, so `quantile(q) <=
    /// max()` for every `q`.
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
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// [`LatencyHistogram::quantile`] with the argument in percent:
    /// `percentile(99.0)` is the p99 upper bound from the buckets.
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

/// Declare a set of metrics once; every place that must agree about
/// them is generated from the rows. A row is
///
/// ```text
/// /// What it counts.
/// field: kind, "export_name", rule;
/// ```
///
/// * `kind` — `counter` (an `AtomicU64`; `u64` in the snapshot) or
///   `histogram` (a [`LatencyHistogram`]; a [`HistogramSummary`] in the
///   snapshot, exported as `<name>_{count,mean,max,p50,p90,p99}`).
/// * `rule` — how two snapshots combine into a fleet view:
///   `sum`, `max` (the worst shard), or `shared_once` (describes one
///   instance the whole fleet shares: zero in every shard's snapshot,
///   filled once by the instance's owner, so adding is exact).
///
/// `live` rows exist on both structs; `filled` rows exist only on the
/// snapshot and are written by whoever owns their source (they start
/// at zero). The generated items are the live struct, the snapshot
/// struct, `snapshot()`, `merge()` and `to_pairs()` (scalars in table
/// order, then the histograms).
///
/// The short form — one `pub struct`, rows without a rule — declares a
/// live struct alone, for a surface that flattens its own way
/// (`ServerMetrics`): it gets `counters()` and `histograms()`, the
/// `(export name, value)` lists in table order.
#[doc(hidden)]
#[macro_export]
macro_rules! metric_table {
    (
        $(#[$meta:meta])* pub struct $Live:ident;
        $(#[$smeta:meta])* pub struct $Snap:ident;
        live { $( $(#[$doc:meta])* $field:ident: $kind:ident, $export:literal, $rule:ident; )* }
        filled { $( $(#[$fdoc:meta])* $filled:ident: $fexport:literal, $frule:ident; )* }
    ) => {
        $crate::metric_table!(@live $(#[$meta])* $Live { $( $(#[$doc])* $field: $kind, )* });

        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct $Snap {
            $( $(#[$doc])* pub $field: $crate::metric_table!(@ty $kind, u64, $crate::stats::HistogramSummary), )*
            $( $(#[$fdoc])* pub $filled: u64, )*
        }

        impl $Live {
            /// A point-in-time, plain-data copy of every counter and
            /// histogram summary — the exportable form of the stats.
            /// `filled` fields are zero until their owner writes them.
            pub fn snapshot(&self) -> $Snap {
                use ::std::sync::atomic::Ordering::Relaxed;
                $Snap {
                    $( $field: $crate::metric_table!(@val $kind, self.$field.load(Relaxed), self.$field.summary()), )*
                    $( $filled: 0, )*
                }
            }
        }

        impl $Snap {
            /// Combine two snapshots into a fleet-wide view, each field
            /// by the rule its table row names; histogram summaries
            /// merge per [`HistogramSummary::merge`] (quantiles
            /// upper-bounded by the worst shard).
            pub fn merge(&self, other: &$Snap) -> $Snap {
                $Snap {
                    $( $field: $crate::metric_table!(@merge $kind $rule, self.$field, other.$field), )*
                    $( $filled: $crate::metric_table!(@merge counter $frule, self.$filled, other.$filled), )*
                }
            }

            /// Flatten into `(name, value)` pairs — the canonical
            /// wire/export form: the scalars in table order, then each
            /// histogram as `<name>_{count,mean,max,p50,p90,p99}` (the
            /// mean rounded to an integer).
            pub fn to_pairs(&self) -> Vec<(String, u64)> {
                let scalars = [
                    $( $crate::metric_table!(@val $kind, Some(($export, self.$field)), None), )*
                    $( Some(($fexport, self.$filled)), )*
                ];
                let mut out: Vec<(String, u64)> = scalars
                    .into_iter()
                    .flatten()
                    .map(|(name, value)| (name.to_string(), value))
                    .collect();
                $( $crate::metric_table!(@val $kind, (), {
                    let h = &self.$field;
                    for (stat, value) in [
                        ("count", h.count),
                        ("mean", h.mean.round() as u64),
                        ("max", h.max),
                        ("p50", h.p50),
                        ("p90", h.p90),
                        ("p99", h.p99),
                    ] {
                        out.push((format!("{}_{stat}", $export), value));
                    }
                }); )*
                out
            }

            /// `(field, export name, merge rule)` of every row, in
            /// table order.
            #[cfg(test)]
            pub(crate) const ROWS: &'static [(&'static str, &'static str, &'static str)] = &[
                $( (stringify!($field), $export, stringify!($rule)), )*
                $( (stringify!($filled), $fexport, stringify!($frule)), )*
            ];

            /// A snapshot whose `i`-th row holds `value(i)` (a histogram
            /// row holds it in every statistic).
            #[cfg(test)]
            fn numbered(value: impl Fn(u64) -> u64) -> $Snap {
                let mut rows = (0..).map(value);
                let mut next = || rows.next().unwrap();
                $Snap {
                    $( $field: $crate::metric_table!(@val $kind, next(), {
                        let v = next();
                        $crate::stats::HistogramSummary {
                            count: v, mean: v as f64, max: v, p50: v, p90: v, p99: v,
                        }
                    }), )*
                    $( $filled: next(), )*
                }
            }
        }
    };
    (
        $(#[$meta:meta])* pub struct $Live:ident;
        $( $(#[$doc:meta])* $field:ident: $kind:ident, $export:literal; )*
    ) => {
        $crate::metric_table!(@live $(#[$meta])* $Live { $( $(#[$doc])* $field: $kind, )* });

        impl $Live {
            /// `(export name, value)` of every counter, in table order.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                use ::std::sync::atomic::Ordering::Relaxed;
                let rows = [$( $crate::metric_table!(
                    @val $kind, Some(($export, self.$field.load(Relaxed))), None
                ), )*];
                rows.into_iter().flatten().collect()
            }

            /// `(export name, summary)` of every histogram, in table
            /// order.
            pub fn histograms(&self) -> Vec<(&'static str, $crate::stats::HistogramSummary)> {
                let rows = [$( $crate::metric_table!(
                    @val $kind, None, Some(($export, self.$field.summary()))
                ), )*];
                rows.into_iter().flatten().collect()
            }
        }
    };
    (@live $(#[$meta:meta])* $Live:ident { $( $(#[$doc:meta])* $field:ident: $kind:ident, )* }) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $Live {
            $( $(#[$doc])* pub $field: $crate::metric_table!(
                @ty $kind, ::std::sync::atomic::AtomicU64, $crate::stats::LatencyHistogram
            ), )*
        }
    };
    // Select by kind: a type, a value, a merge expression.
    (@ty counter, $c:ty, $h:ty) => { $c };
    (@ty histogram, $c:ty, $h:ty) => { $h };
    (@val counter, $c:expr, $h:expr) => { $c };
    (@val histogram, $c:expr, $h:expr) => { $h };
    (@merge counter sum, $a:expr, $b:expr) => { $a + $b };
    (@merge counter max, $a:expr, $b:expr) => { $a.max($b) };
    (@merge counter shared_once, $a:expr, $b:expr) => { $a + $b };
    (@merge histogram sum, $a:expr, $b:expr) => { $a.merge(&$b) };
}

metric_table! {
    /// Monotone counters describing everything the engine has done.
    pub struct DbStats;
    /// Plain-data, copyable snapshot of [`DbStats`] — safe to ship across
    /// threads or the wire (the wire `stats` command serializes it).
    pub struct StatsSnapshot;
    live {
        /// Put operations accepted.
        puts: counter, "puts", sum;
        /// Point deletes accepted.
        deletes: counter, "deletes", sum;
        /// Secondary range deletes accepted.
        range_deletes: counter, "range_deletes", sum;
        /// Sort-key range deletes accepted.
        sort_range_deletes: counter, "sort_range_deletes", sum;
        /// Point lookups served.
        gets: counter, "gets", sum;
        /// Range scans served.
        scans: counter, "scans", sum;
        /// User payload bytes (key+value) accepted.
        user_bytes: counter, "user_bytes", sum;
        /// Memtable flushes performed.
        flushes: counter, "flushes", sum;
        /// Compactions performed.
        compactions: counter, "compactions", sum;
        /// Compactions triggered by FADE TTL expiry rather than saturation.
        ttl_compactions: counter, "ttl_compactions", sum;
        /// Bytes read by compactions.
        compaction_bytes_in: counter, "compaction_bytes_in", sum;
        /// Bytes written by compactions and flushes (table files only).
        compaction_bytes_out: counter, "compaction_bytes_out", sum;
        /// Entries dropped because a newer version/tombstone shadowed them.
        entries_shadowed: counter, "entries_shadowed", sum;
        /// Entries dropped because a secondary range tombstone covered them.
        entries_range_purged: counter, "entries_range_purged", sum;
        /// Entries dropped because a sort-key range tombstone shadowed them.
        entries_key_range_purged: counter, "entries_key_range_purged", sum;
        /// Deletes resolved against `D_th`: point tombstones physically
        /// dropped at the bottom level, plus retired sort-key range
        /// tombstones.
        tombstones_purged: counter, "tombstones_purged", sum;
        /// Sort-key range tombstones retired: dropped from the manifest
        /// once no file under them holds a version they erase.
        key_range_tombstones_purged: counter, "key_range_tombstones_purged", sum;
        /// KiWi pages dropped wholesale (never read) during compactions.
        pages_dropped: counter, "pages_dropped", sum;
        /// Delete persistence latency: recorded for each purged tombstone as
        /// (purge tick - delete tick).
        persistence_latency: histogram, "persistence_latency", sum;
        /// Persistence-threshold violations observed (FADE should keep this
        /// at zero; the baseline will not).
        persistence_violations: counter, "persistence_violations", sum;
        /// Stall episodes: writes that blocked on the hard L0 / sealed-
        /// memtable limits until background maintenance caught up.
        write_stalls: counter, "write_stalls", sum;
        /// Writes briefly delayed because L0 reached the soft limit.
        write_slowdowns: counter, "write_slowdowns", sum;
        /// Wall-clock microseconds per stall episode.
        stall_micros: histogram, "stall_micros", sum;
        /// Wall-clock microseconds per memtable flush (table build through
        /// manifest install).
        flush_micros: histogram, "flush_micros", sum;
        /// Wall-clock microseconds per compaction (merge through install).
        compaction_micros: histogram, "compaction_micros", sum;
        /// Deepest the sealed-memtable queue has ever grown.
        imm_queue_peak: counter, "imm_queue_peak", max;
        /// Failures recorded by the background maintenance executor.
        background_errors: counter, "background_errors", sum;
        /// Commit groups published by write leaders (each group is one WAL
        /// append+fsync covering every queued request).
        commit_groups: counter, "commit_groups", sum;
        /// Distribution of operations per commit group: the group-commit
        /// batching factor under concurrent writers.
        commit_group_ops: histogram, "commit_group_ops", sum;
        /// WAL fsyncs issued (at most one per commit group when `wal_sync`).
        wal_syncs: counter, "wal_syncs", sum;
        /// Fsyncs avoided by group commit: requests that rode a leader's
        /// sync instead of issuing their own.
        wal_syncs_saved: counter, "wal_syncs_saved", sum;
        /// Read-view publications (memtable seal, flush install, compaction
        /// install, range delete, and one per commit group's seqno bump).
        read_view_swaps: counter, "read_view_swaps", sum;
        /// Values separated into the value log at commit time.
        vlog_appends: counter, "vlog_appends", sum;
        /// Framed bytes appended to the value log (commit + GC rewrites).
        vlog_bytes_written: counter, "vlog_bytes_written", sum;
        /// Value-pointer dereferences served by reads and scans.
        vlog_reads: counter, "vlog_reads", sum;
        /// Value-log GC passes that rewrote a segment's survivors.
        vlog_gc_rewrites: counter, "vlog_gc_rewrites", sum;
        /// Live bytes re-appended to the vlog head by GC rewrites.
        vlog_gc_rewritten_bytes: counter, "vlog_gc_rewritten_bytes", sum;
        /// Dead bytes reclaimed by deleting GC'd segments.
        vlog_gc_reclaimed_bytes: counter, "vlog_gc_reclaimed_bytes", sum;
        /// Value-log segment files deleted (GC and recovery orphan sweep).
        vlog_segments_deleted: counter, "vlog_segments_deleted", sum;
        /// Operations that received a full per-op trace (the `*_traced`
        /// ops; the name predates their being the only source).
        traces_sampled: counter, "traces_sampled", sum;
    }
    // These live on the `BlockCache` / `MemoryBudget` / engine core, not
    // in `DbStats`. The names carry the exposition prefix directly: the
    // Prometheus rendering prints pair names verbatim.
    filled {
        /// Block-cache lookups served from memory.
        cache_hits: "db_cache_hits", shared_once;
        /// Block-cache lookups that went to disk.
        cache_misses: "db_cache_misses", shared_once;
        /// Blocks evicted from the cache.
        cache_evictions: "db_cache_evictions", shared_once;
        /// Bytes ever inserted into the cache.
        cache_inserted_bytes: "db_cache_inserted_bytes", shared_once;
        /// Bytes inserted by flush/compaction write-through.
        cache_prepopulated_bytes: "db_cache_prepopulated_bytes", shared_once;
        /// Bytes resident in the cache now.
        cache_used_bytes: "db_cache_used_bytes", shared_once;
        /// The cache's current capacity.
        cache_capacity_bytes: "db_cache_capacity_bytes", shared_once;
        /// Total bytes the memory arbiter divides.
        memory_budget_bytes: "db_memory_budget_bytes", shared_once;
        /// Bytes by which write-buffer allowances, the cache share and
        /// pinned bytes together exceed the budget (0 while they fit).
        memory_budget_overrun_bytes: "db_memory_budget_overrun_bytes", shared_once;
        /// This engine's write-buffer allowance (always filled).
        memtable_budget_bytes: "db_memory_memtable_budget_bytes", sum;
        /// This engine's pinned filter/metadata bytes (always filled).
        pinned_bytes: "db_memory_pinned_bytes", sum;
    }
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
}

impl StatsSnapshot {
    /// Fill the `shared_once` fields from the one cache and one budget
    /// they describe. Called by whoever owns the instance — a standalone
    /// engine, or the fleet router once after merging its shards'
    /// snapshots (which leave these zero) — so a merge cannot count a
    /// shared instance once per shard.
    pub(crate) fn fill_shared(
        &mut self,
        cache: Option<&acheron_sstable::BlockCache>,
        memory: Option<&crate::memory::MemoryBudget>,
    ) {
        if let Some(c) = cache {
            self.cache_hits = c.hits();
            self.cache_misses = c.misses();
            self.cache_evictions = c.evictions();
            self.cache_inserted_bytes = c.inserted_bytes();
            self.cache_prepopulated_bytes = c.prepopulated_bytes();
            self.cache_used_bytes = c.used_bytes() as u64;
            self.cache_capacity_bytes = c.capacity_bytes() as u64;
        }
        if let Some(m) = memory {
            self.memory_budget_bytes = m.total_bytes() as u64;
            self.memory_budget_overrun_bytes = m.overrun_bytes() as u64;
        }
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
        // Past the last bucket boundary only the recorded maximum is an
        // upper bound.
        h.record(1 << 50);
        assert_eq!(h.quantile(1.0), 1 << 50);
    }

    #[test]
    fn quantiles_never_exceed_the_recorded_maximum() {
        // 76,500 sits in the bucket whose upper bound is 131,071: a
        // reported p99 above every sample would read as a broken bound.
        let h = LatencyHistogram::default();
        for v in [100u64, 40_000, 76_500] {
            h.record(v);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert!(h.quantile(q) <= h.max(), "q = {q}: {}", h.quantile(q));
        }
        assert_eq!(h.quantile(0.99), 76_500);
        assert_eq!(h.summary().p99, 76_500);
    }

    #[test]
    fn buckets_tile_the_u64_range_at_an_eighth() {
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
        let mut samples: Vec<u64> = (0..5_000).collect();
        samples.extend((4..64).flat_map(|b| [(1u64 << b) - 1, 1 << b, (1 << b) + 1]));
        for v in samples {
            let i = bucket_of(v);
            assert!(bucket_upper(i) >= v, "v = {v}");
            assert!(i == 0 || bucket_upper(i - 1) < v, "v = {v}");
            // A bucket is no wider than an eighth of its lower bound.
            assert!(v < 16 || bucket_upper(i) - v <= v / 8, "v = {v}");
        }
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

    /// Walks the generated metric list: every row exports its own
    /// field's value under a unique name, merging with `default()` is
    /// the identity, and each row merges by the rule it names
    /// (`shared_once` adds here; that shards leave it zero and the
    /// fleet fills it once is checked against a live fleet in
    /// `sharded.rs`).
    #[test]
    fn every_table_row_exports_and_merges_by_its_rule() {
        use std::collections::HashMap;
        let values = |s: &StatsSnapshot| s.to_pairs().into_iter().collect::<HashMap<_, _>>();
        // Row i holds i+1 in `a` and 1000-i in `b`: sums are constant,
        // maxima are not.
        let a = StatsSnapshot::numbered(|i| i + 1);
        let b = StatsSnapshot::numbered(|i| 1000 - i);
        let (va, vb, vm) = (values(&a), values(&b), values(&a.merge(&b)));
        assert_eq!(va.len(), a.to_pairs().len(), "export names are unique");
        assert_eq!(a.merge(&StatsSnapshot::default()), a);
        assert_eq!(StatsSnapshot::default().merge(&a), a);
        let mut exported = 0;
        for (i, (field, export, rule)) in StatsSnapshot::ROWS.iter().enumerate() {
            let (x, y) = (i as u64 + 1, 1000 - i as u64);
            if let Some(&v) = va.get(*export) {
                exported += 1;
                assert_eq!((v, vb[*export]), (x, y), "{field} exports its own value");
                let want = match *rule {
                    "sum" | "shared_once" => x + y,
                    "max" => x.max(y),
                    other => panic!("{field}: unknown merge rule {other}"),
                };
                assert_eq!(vm[*export], want, "{field} merges by `{rule}`");
            } else {
                // A histogram row: six statistics; counts add, the rest
                // take the worst shard.
                for stat in ["count", "mean", "max", "p50", "p90", "p99"] {
                    exported += 1;
                    assert_eq!(va[&format!("{export}_{stat}")], x, "{field} {stat}");
                }
                assert_eq!(vm[&format!("{export}_count")], x + y, "{field}");
                assert_eq!(vm[&format!("{export}_p99")], x.max(y), "{field}");
            }
        }
        assert_eq!(exported, va.len(), "every pair traces back to a row");
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
