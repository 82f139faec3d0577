//! Unified memory budget: end-to-end tests of the fixed split, the
//! fleet-shared block cache, and the cache's concurrent accounting
//! invariants.
//!
//! What is proven here, beyond the unit tests in `acheron::memory` and
//! `acheron_sstable::cache`:
//!
//! 1. a sharded fleet draws on ONE cache instance sized by ONE budget —
//!    the regression that previously allocated `block_cache_bytes` per
//!    shard (N× the intended footprint) stays fixed;
//! 2. enabling the budget never changes any answer: the same op stream
//!    reads and scans identically with the budget (and its cache) on
//!    and off;
//! 3. the cache keeps its capacity and byte accounting exact while many
//!    threads race gets, inserts, and resizes;
//! 4. on a real engine whose compactions grow its pinned bytes, the
//!    write buffer keeps ¾ of what pinned bytes leave and the three
//!    consumers never add up to more than the budget.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use acheron::{Db, DbOptions, ShardedDb};
use acheron_sstable::{Block, BlockBuilder, BlockCache, PageKey};
use acheron_types::{InternalKey, ValueKind};
use acheron_vfs::{MemFs, Vfs};
use bytes::Bytes;

const KIB: usize = 1 << 10;

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i:08}-{}", "x".repeat(100)).into_bytes()
}

/// A deterministic mixed workload: puts over a rolling keyspace with
/// periodic deletes and overwrites, flushed every `flush_every` ops.
fn drive_workload(db: &Db, ops: u32, flush_every: u32) {
    for i in 0..ops {
        let k = i % 500;
        if i % 7 == 3 {
            db.delete(&key(k)).unwrap();
        } else {
            db.put(&key(k), &value(i)).unwrap();
        }
        if i % flush_every == flush_every - 1 {
            db.flush().unwrap();
        }
    }
    db.maintain().unwrap();
}

#[test]
fn sharded_fleet_shares_one_cache_within_one_budget() {
    const BUDGET: usize = 1 << 20;
    const SHARDS: usize = 16;
    let fs = Arc::new(MemFs::new());
    let opts = DbOptions::small().with_memory_budget(BUDGET);
    let db = ShardedDb::open(fs as Arc<dyn Vfs>, "db", opts, SHARDS).unwrap();

    for i in 0..2000u32 {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    // Two read passes: the first fills the shared cache from every
    // shard's tables, the second hits it.
    for _ in 0..2 {
        for i in 0..2000u32 {
            assert!(db.get(&key(i)).unwrap().is_some());
        }
    }

    let cache = db.block_cache().expect("budget implies a cache");
    let budget = db.memory_budget().expect("budget configured");
    assert_eq!(budget.total_bytes(), BUDGET);
    // The single shared instance respects the single budget: its
    // capacity is the budget's cache share (well under the total), and
    // its contents fit its capacity. Before the fix, 16 shards held 16
    // private caches — 16× the configured bytes.
    assert!(cache.capacity_bytes() <= BUDGET);
    assert!(
        cache.used_bytes() <= cache.capacity_bytes(),
        "cached bytes {} exceed capacity {}",
        cache.used_bytes(),
        cache.capacity_bytes()
    );
    assert!(cache.used_bytes() > 0, "reads populated the shared cache");
    assert!(cache.hits() > 0, "second pass hit the shared cache");

    // Shared-scope stats appear exactly once: every per-shard snapshot
    // leaves them zero, the fleet snapshot fills them from the single
    // instance. Summing shards can therefore never overcount.
    for s in db.shard_stats() {
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_capacity_bytes, 0);
        assert_eq!(s.memory_budget_bytes, 0);
        assert!(s.memtable_budget_bytes > 0, "per-shard allowance is real");
    }
    let fleet = db.stats_snapshot();
    assert_eq!(fleet.cache_hits, cache.hits());
    assert_eq!(fleet.cache_capacity_bytes, cache.capacity_bytes() as u64);
    assert_eq!(fleet.memory_budget_bytes, BUDGET as u64);
}

#[test]
fn budget_on_and_off_read_and_scan_identically() {
    let run = |opts: DbOptions| {
        let db = Db::open(Arc::new(MemFs::new()) as Arc<dyn Vfs>, "db", opts).unwrap();
        drive_workload(&db, 3000, 97);
        let mut gets = Vec::new();
        for i in 0..500u32 {
            gets.push(db.get(&key(i)).unwrap().map(|v| v.to_vec()));
        }
        let scan: Vec<(Vec<u8>, Vec<u8>)> = db
            .scan(b"", b"\xff")
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        (gets, scan)
    };
    let plain = run(DbOptions::small().with_fade(10_000));
    let budgeted = run(DbOptions::small()
        .with_fade(10_000)
        .with_memory_budget(512 * KIB));
    assert_eq!(plain.0, budgeted.0, "point reads must be budget-oblivious");
    assert_eq!(plain.1, budgeted.1, "scans must be budget-oblivious");
}

#[test]
fn legacy_sizing_is_untouched_when_budget_is_disabled() {
    let db = Db::open(
        Arc::new(MemFs::new()) as Arc<dyn Vfs>,
        "db",
        DbOptions::small(),
    )
    .unwrap();
    let s = db.stats_snapshot();
    // Exactly the static knobs: seal threshold is write_buffer_bytes,
    // no budget, no cache (small() leaves block_cache_bytes at 0).
    assert_eq!(s.memtable_budget_bytes, 16 << 10);
    assert_eq!(s.memory_budget_bytes, 0);
    assert_eq!(s.cache_capacity_bytes, 0);
    assert!(db.memory_budget().is_none());
    assert!(db.cache_stats().is_none());
}

#[test]
fn budget_derives_both_shares_and_creates_a_cache() {
    const BUDGET: u64 = 512 * KIB as u64;
    let db = Db::open(
        Arc::new(MemFs::new()) as Arc<dyn Vfs>,
        "db",
        DbOptions::small().with_memory_budget(BUDGET as usize),
    )
    .unwrap();
    let s = db.stats_snapshot();
    assert_eq!(s.memory_budget_bytes, BUDGET);
    assert_eq!(s.pinned_bytes, 0, "a fresh engine pins nothing");
    // The write buffer gets three quarters, the cache the rest.
    assert_eq!(s.memtable_budget_bytes, BUDGET / 4 * 3);
    assert_eq!(
        s.cache_capacity_bytes,
        BUDGET / 4,
        "a budget creates a cache even with block_cache_bytes = 0"
    );
    assert!(db.cache_stats().is_some());
}

#[test]
fn split_holds_while_compactions_grow_pinned_bytes() {
    const BUDGET: u64 = 1024 * KIB as u64;
    let db = Db::open(
        Arc::new(MemFs::new()) as Arc<dyn Vfs>,
        "db",
        DbOptions::small().with_memory_budget(BUDGET as usize),
    )
    .unwrap();
    // Pinned bytes once the first compactions have run: the tree then
    // keeps growing, and its compactions with it.
    let mut first_compacted_pinned = None;
    for i in 0..40_000u32 {
        db.put(&key(i % 16_000), &value(i)).unwrap();
        if i % 500 == 499 {
            db.maintain().unwrap();
            let s = db.stats_snapshot();
            assert_eq!(
                s.memtable_budget_bytes,
                (BUDGET - s.pinned_bytes) / 4 * 3,
                "the write buffer gets 3/4 of the pool after pinned bytes"
            );
            assert!(
                s.memtable_budget_bytes + s.cache_capacity_bytes + s.pinned_bytes <= BUDGET,
                "allowance {} + cache {} + pinned {} exceed the budget",
                s.memtable_budget_bytes,
                s.cache_capacity_bytes,
                s.pinned_bytes
            );
            if s.compactions > 0 {
                first_compacted_pinned.get_or_insert(s.pinned_bytes);
            }
        }
    }
    let first = first_compacted_pinned.expect("the run compacted");
    let last = db.stats_snapshot().pinned_bytes;
    assert!(
        last > first,
        "compactions grew pinned bytes: {first} -> {last}"
    );
}

/// The budget's floor lets allowance + cache + pinned pass the total
/// once pinned bytes leave the pool less than 64 KiB, and the overrun
/// stat says by how much: 0 until then, the excess after.
#[test]
fn overrun_is_reported_once_pinned_bytes_squeeze_the_pool_to_its_floor() {
    const BUDGET: u64 = 256 * KIB as u64;
    const FLOOR: u64 = 64 * KIB as u64;
    let db = Db::open(
        Arc::new(MemFs::new()) as Arc<dyn Vfs>,
        "db",
        DbOptions::small().with_memory_budget(BUDGET as usize),
    )
    .unwrap();
    let (mut under, mut over) = (0, 0);
    for i in 0..20_000u32 {
        db.put(&key(i % 8_000), &value(i)).unwrap();
        if i % 500 == 499 {
            db.maintain().unwrap();
            let s = db.stats_snapshot();
            let drawn = s.memtable_budget_bytes + s.cache_capacity_bytes + s.pinned_bytes;
            assert_eq!(s.memory_budget_overrun_bytes, drawn.saturating_sub(BUDGET));
            if s.pinned_bytes > BUDGET - FLOOR {
                assert!(
                    s.memory_budget_overrun_bytes > 0,
                    "pinned {}",
                    s.pinned_bytes
                );
                over += 1;
            } else {
                assert_eq!(
                    s.memory_budget_overrun_bytes, 0,
                    "pinned {}",
                    s.pinned_bytes
                );
                assert_eq!(over, 0, "pinned bytes only grow in this load");
                under += 1;
            }
        }
    }
    assert!(under > 0 && over > 0, "under {under}, over {over}");
}

fn test_block(tag: u32) -> (Block, usize) {
    let mut b = BlockBuilder::new(4);
    let ik = InternalKey::new(&tag.to_be_bytes(), 1, ValueKind::Put);
    b.add(ik.encoded(), 0, &[tag as u8; 128]);
    let raw = b.finish();
    let size = raw.len();
    (Block::new(Bytes::from(raw)).unwrap(), size)
}

#[test]
fn concurrent_gets_inserts_and_resizes_keep_accounting_exact() {
    const THREADS: usize = 16;
    const OPS_PER_THREAD: u32 = 2000;
    let cache = Arc::new(BlockCache::new(256 * KIB));
    let inserted = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            let inserted = &inserted;
            s.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let id = (t as u64) << 32 | u64::from(i % 97);
                    let k = PageKey {
                        table: id % 13,
                        offset: (id % 211) * 64,
                    };
                    if i % 3 == 0 {
                        let (b, size) = test_block(i);
                        cache.insert(k, b, size);
                        inserted.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // A hit must return a well-formed block.
                        if let Some(b) = cache.get(&k) {
                            let mut it = b.iter();
                            it.seek_to_first().unwrap();
                            assert!(it.valid());
                        }
                    }
                    // Mid-flight bound: a racing resize means the
                    // global capacity gauge and the per-shard contents
                    // disagree transiently, but no interleaving may
                    // ever hold more than the largest capacity that
                    // was configured (each shard evicts to its target
                    // under its own lock before admitting bytes).
                    if i % 251 == 0 {
                        assert!(cache.used_bytes() <= 256 * KIB);
                    }
                }
            });
        }
        // One thread races shrinks and grows against the workers.
        s.spawn(|| {
            for i in 0..200u32 {
                let cap = if i % 2 == 0 { 32 * KIB } else { 256 * KIB };
                cache.resize(cap);
            }
        });
    });

    // Quiesce at a known capacity and check the books.
    cache.resize(64 * KIB);
    assert!(cache.used_bytes() <= 64 * KIB);
    assert_eq!(cache.capacity_bytes(), 64 * KIB);
    assert!(cache.inserted_bytes() > 0);
    assert!(
        cache.evicted_bytes() <= cache.inserted_bytes(),
        "cannot evict more bytes than were ever inserted"
    );
    let per_thread = (OPS_PER_THREAD as usize).div_ceil(3);
    assert_eq!(inserted.load(Ordering::Relaxed), THREADS * per_thread);
}
