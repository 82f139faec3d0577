//! Golden pins for the observability export surfaces: the `stats` pair
//! names, the Prometheus rendering of a fixed snapshot, and the family
//! order of the wire `metrics` response for one engine and for a fleet.
//!
//! Each pin is the byte length plus CRC32C of the exact text, recorded
//! before the counters, events and codes were moved into declaration
//! tables. A refactor of how the text is *produced* must leave every
//! constant where it is; a change that adds or renames a metric moves
//! them on purpose and re-pins here. (The event ring's raw slot words
//! are private to `acheron::obs`, so their pin lives in that module's
//! unit tests.)

use std::sync::Arc;

use acheron::obs::{render_prometheus, LevelGauge, TombstoneGauges};
use acheron::{Db, DbOptions, HistogramSummary, ShardedDb, StatsSnapshot};
use acheron_server::{Client, Server, ServerOptions};
use acheron_types::checksum::crc32c;
use acheron_vfs::MemFs;

fn pin(text: &str) -> (usize, u32) {
    (text.len(), crc32c(text.as_bytes()))
}

fn hist(seed: u64) -> HistogramSummary {
    HistogramSummary {
        count: seed,
        // x.75 rounds up on export: the rounding rule is pinned too.
        mean: seed as f64 + 0.75,
        max: seed + 1,
        p50: seed + 2,
        p90: seed + 3,
        p99: seed + 4,
    }
}

/// Every field distinct, so a value exported under the wrong name
/// moves the pin.
fn fixed_stats() -> StatsSnapshot {
    StatsSnapshot {
        puts: 1,
        deletes: 2,
        range_deletes: 3,
        sort_range_deletes: 4,
        gets: 5,
        scans: 6,
        user_bytes: 7,
        flushes: 8,
        compactions: 9,
        ttl_compactions: 10,
        compaction_bytes_in: 11,
        compaction_bytes_out: 12,
        entries_shadowed: 13,
        entries_range_purged: 14,
        entries_key_range_purged: 15,
        tombstones_purged: 16,
        key_range_tombstones_purged: 17,
        pages_dropped: 18,
        persistence_latency: hist(100),
        persistence_violations: 19,
        write_stalls: 20,
        write_slowdowns: 21,
        stall_micros: hist(200),
        flush_micros: hist(300),
        compaction_micros: hist(400),
        imm_queue_peak: 22,
        background_errors: 23,
        commit_groups: 24,
        commit_group_ops: hist(500),
        wal_syncs: 25,
        wal_syncs_saved: 26,
        read_view_swaps: 27,
        vlog_appends: 28,
        vlog_bytes_written: 29,
        vlog_reads: 30,
        vlog_gc_rewrites: 31,
        vlog_gc_rewritten_bytes: 32,
        vlog_gc_reclaimed_bytes: 33,
        vlog_segments_deleted: 34,
        traces_sampled: 35,
        cache_hits: 36,
        cache_misses: 37,
        cache_evictions: 38,
        cache_inserted_bytes: 39,
        cache_prepopulated_bytes: 40,
        cache_used_bytes: 41,
        cache_capacity_bytes: 42,
        memory_budget_bytes: 43,
        memtable_budget_bytes: 44,
        pinned_bytes: 45,
        memory_adjustments: 46,
    }
}

/// Two levels (the per-level families interleave, so `# TYPE` placement
/// is exercised), one of them without the optional series; buffered
/// point and sort-key-range tombstones; live and dead vlog bytes.
fn fixed_gauges() -> TombstoneGauges {
    TombstoneGauges {
        levels: vec![
            LevelGauge {
                level: 0,
                files: 2,
                bytes: 8192,
                entries: 300,
                tombstones: 0,
                oldest_tombstone_tick: None,
                key_range_tombstones: 0,
                oldest_key_range_tick: None,
            },
            LevelGauge {
                level: 2,
                files: 3,
                bytes: 4096,
                entries: 100,
                tombstones: 7,
                oldest_tombstone_tick: Some(50),
                key_range_tombstones: 2,
                oldest_key_range_tick: Some(40),
            },
        ],
        buffer_tombstones: 1,
        buffer_oldest_tick: Some(90),
        buffer_key_range_tombstones: 1,
        buffer_oldest_key_range_tick: Some(70),
        range_tombstones: 2,
        file_populations: vec![(7, 50), (2, 40)],
        vlog_live_bytes: 1234,
        vlog_dead_bytes: 56,
        vlog_oldest_dead_tick: Some(80),
    }
}

#[test]
fn stats_pair_names_and_order() {
    let names: Vec<String> = StatsSnapshot::default()
        .to_pairs()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(pin(&names.join("\n")), (1426, 0xc1b3_44d2));
}

#[test]
fn prometheus_rendering_of_a_fixed_snapshot() {
    let pairs = fixed_stats().to_pairs();
    let gauges = fixed_gauges();
    let with_d_th = render_prometheus(&pairs, &gauges, 100, Some(1_000));
    assert_eq!(pin(&with_d_th), (5924, 0x6a93_f7fd), "{with_d_th}");
    let without = render_prometheus(&pairs, &gauges, 100, None);
    assert_eq!(pin(&without), (5777, 0xa6d4_68ff), "{without}");
}

/// Give `db` a seeded load that leaves tombstones of every family
/// behind (point deletes, a sort-key range delete, a secondary range
/// delete, separated values whose deletes turn vlog bytes dead), serve
/// it, and return the `# TYPE` family names of its `metrics` response in
/// order: what a scraper sees. A plain engine comes in as a fleet of
/// one, as the server serves it.
fn wire_metric_families(db: ShardedDb) -> String {
    let db = Arc::new(db);
    for k in 0..1500u64 {
        db.put(format!("key{k:05}").as_bytes(), &[b'v'; 96])
            .unwrap();
        if k % 3 == 0 {
            db.delete(format!("key{k:05}").as_bytes()).unwrap();
        }
    }
    db.range_delete_keys(b"key00100", b"key00120").unwrap();
    db.range_delete_secondary(10, 20).unwrap();
    db.flush().unwrap();
    let mut server = Server::start(db, "127.0.0.1:0", ServerOptions::default()).unwrap();
    let text = Client::connect(server.local_addr())
        .unwrap()
        .metrics()
        .unwrap();
    server.shutdown();
    let families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| rest.split(' ').next().unwrap())
        .collect();
    families.join("\n")
}

fn opts() -> DbOptions {
    DbOptions::small()
        .with_fade(50_000)
        .with_value_separation(64)
}

#[test]
fn wire_metrics_family_order() {
    let fs = || Arc::new(MemFs::new());
    let single = wire_metric_families(Db::open(fs(), "db", opts()).unwrap().into());
    assert_eq!(pin(&single), (2424, 0x861f_20c2), "{single}");
    let fleet = wire_metric_families(ShardedDb::open(fs(), "db", opts(), 4).unwrap());
    assert_eq!(pin(&fleet), (2632, 0x371c_1423), "{fleet}");
}
