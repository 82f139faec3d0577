//! The `bench` engine profile: the one configuration every workload
//! runs under, written once so a number can always be traced to it.
//!
//! Flush policy (the same everywhere): `wal_sync = true`, one sync per
//! commit group, on `MemFs` — syncs are counted but cost nothing. All
//! maintenance is inline (`background_threads = 0`) under a logical
//! clock that advances one tick per write, so with one client every
//! count repeats exactly for a seed.

use std::sync::Arc;

use acheron::DbOptions;
use acheron_types::LogicalClock;

use crate::gen::Sizes;

/// Shards of the `wire-pipelined-sharded` fleet.
pub const SHARDS: usize = 8;

/// Engine options for a workload of the given sizes. `event_ring` is
/// the flight-recorder capacity: the traced run drains it at every
/// slice boundary for exact flush and compaction durations.
pub fn bench_options(sizes: &Sizes, event_ring: usize) -> DbOptions {
    DbOptions {
        write_buffer_bytes: 1 << 20,
        level1_target_bytes: 4 << 20,
        target_file_bytes: 1 << 20,
        page_size: 4096,
        pages_per_tile: 4,
        size_ratio: 4,
        max_levels: 5,
        bloom_bits_per_key: 10,
        block_cache_bytes: sizes.cache_bytes,
        memory_budget_bytes: 0,
        wal_sync: true,
        background_threads: 0,
        value_separation_threshold: 1024,
        // Value-log segments the size of a table file: at these data
        // sizes an 8 MiB default segment is a quarter of the store, and
        // whether one happens to be reclaimed swings `space_amp`.
        vlog_segment_bytes: 1 << 20,
        event_log_capacity: event_ring,
        clock: Arc::new(LogicalClock::new()),
        auto_advance_clock: true,
        ..DbOptions::default()
    }
    .with_fade(sizes.d_th)
}

/// One line describing the profile, echoed in every run's output.
pub fn describe(sizes: &Sizes) -> String {
    format!(
        "profile bench: write_buffer=1MiB l1=4MiB file=1MiB page=4KiB pages_per_tile=4 \
         size_ratio=4 levels=5 bloom=10b/key cache={}KiB vsep>=1024B vlog_segment=1MiB d_th={} \
         wal_sync=true(MemFs) background_threads=0 clock=logical",
        sizes.cache_bytes >> 10,
        sizes.d_th
    )
}
