//! Block-cache residency: a page is resident only while its table is
//! live, and it is born resident when it is written.
//!
//! End-to-end counterparts of the unit tests in `acheron_sstable`
//! (`cache`, `reader`): here the tables are the engine's own flush and
//! compaction outputs, and the handles that keep a replaced table alive
//! are the engine's own read views.

use std::io::{Seek, SeekFrom, Write};
use std::sync::Arc;

use acheron::{check_db, Db, DbOptions, ShardedDb};
use acheron_vfs::{MemFs, StdFs, TempDir, Vfs};

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i:06}-{}", "x".repeat(80)).into_bytes()
}

fn cached(cache_bytes: usize) -> DbOptions {
    DbOptions {
        block_cache_bytes: cache_bytes,
        ..DbOptions::small()
    }
}

fn open(fs: &Arc<MemFs>, opts: DbOptions) -> Db {
    Db::open(Arc::clone(fs) as Arc<dyn Vfs>, "db", opts).unwrap()
}

/// File reads and cache misses caused by getting keys `0..n`.
fn reads_for_gets(fs: &MemFs, db: &Db, n: u32) -> (u64, u64) {
    let io = fs.io_stats().snapshot();
    let (_, misses) = db.cache_stats().unwrap();
    for i in 0..n {
        assert_eq!(db.get(&key(i)).unwrap().as_deref(), Some(&value(i)[..]));
    }
    (
        (fs.io_stats().snapshot() - io).read_ops,
        db.cache_stats().unwrap().1 - misses,
    )
}

#[test]
fn flush_and_compaction_outputs_are_read_without_file_reads() {
    let fs = Arc::new(MemFs::new());
    let db = open(&fs, cached(8 << 20));
    // The small write buffer makes this dozens of flushes and the
    // compactions they trigger; every table is some build's output.
    for i in 0..3000 {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    let stats = db.stats_snapshot();
    assert!(stats.flushes > 10 && stats.compactions > 0);
    assert_eq!(reads_for_gets(&fs, &db, 3000), (0, 0), "after flushes");

    db.compact_all().unwrap();
    assert_eq!(reads_for_gets(&fs, &db, 3000), (0, 0), "after compact_all");

    let stats = db.stats_snapshot();
    assert_eq!(
        stats.cache_inserted_bytes, 0,
        "nothing was filled on a miss: the arbiter's signal stayed clean"
    );
    assert!(stats.cache_prepopulated_bytes >= db.table_bytes() / 2);
}

#[test]
fn replaced_tables_leave_the_cache_with_their_last_handle() {
    let fs = Arc::new(MemFs::new());
    let db = open(&fs, cached(64 << 20));
    for i in 0..3000 {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    let used = || db.stats_snapshot().cache_used_bytes;
    assert!(used() <= db.table_bytes());

    // A streaming scan opened now pins this version's tables.
    let mut it = db.range_iter(&key(0), &key(2999)).unwrap();
    assert_eq!(it.next_entry().unwrap().unwrap().0, key(0));
    for i in 0..3000 {
        db.put(&key(i), &value(i + 1)).unwrap();
    }
    db.compact_all().unwrap();
    let pinned = used();
    assert!(
        pinned > db.table_bytes(),
        "the iterator's tables are still live, so still resident"
    );
    // It outlives the compaction, reads on through the replaced tables
    // (filling again whatever it misses) and sees its own version.
    let mut seen = 1;
    while let Some((k, v)) = it.next_entry().unwrap() {
        assert_eq!((&k[..], &v[..]), (&key(seen)[..], &value(seen)[..]));
        seen += 1;
    }
    assert_eq!(seen, 3000);
    drop(it);
    assert!(used() < pinned);
    assert!(used() <= db.table_bytes());
    assert_eq!(db.get(&key(7)).unwrap().as_deref(), Some(&value(8)[..]));
}

#[test]
fn closing_a_shard_returns_its_pages_to_the_fleet() {
    let fs = Arc::new(MemFs::new());
    let fleet = ShardedDb::open(Arc::clone(&fs) as Arc<dyn Vfs>, "db", cached(8 << 20), 4).unwrap();
    for i in 0..4000 {
        fleet.put(&key(i), &value(i)).unwrap();
    }
    fleet.flush().unwrap();
    let cache = fleet.block_cache().unwrap();
    let live: u64 = (0..4).map(|s| fleet.shard(s).table_bytes()).sum();
    assert!(cache.used_bytes() > 0 && cache.used_bytes() as u64 <= live);
    drop(fleet);
    assert_eq!(cache.used_bytes(), 0, "no table is open any more");
}

#[test]
fn integrity_checks_read_the_file_not_the_cache() {
    let dir = TempDir::new("cache-residency");
    let fs: Arc<dyn Vfs> = Arc::new(StdFs::new(false));
    let db = Db::open(Arc::clone(&fs), dir.path_str(), cached(8 << 20)).unwrap();
    for i in 0..100 {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    db.verify_integrity().unwrap();
    check_db(fs.as_ref(), dir.path_str()).unwrap();

    // Flip one byte of the only table's first data page, in place: the
    // engine's open handle sees it, the cache holds the page as written.
    let sst = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "sst"))
        .expect("one table file");
    let byte = std::fs::read(&sst).unwrap()[10];
    let mut f = std::fs::OpenOptions::new().write(true).open(&sst).unwrap();
    f.seek(SeekFrom::Start(10)).unwrap();
    f.write_all(&[byte ^ 0xff]).unwrap();
    f.sync_all().unwrap();

    for i in 0..100 {
        assert_eq!(db.get(&key(i)).unwrap().as_deref(), Some(&value(i)[..]));
    }
    assert_eq!(db.cache_stats().unwrap().1, 0, "every read was a cache hit");
    assert!(db.verify_integrity().unwrap_err().is_corruption());
    assert!(check_db(fs.as_ref(), dir.path_str())
        .unwrap_err()
        .is_corruption());
}

/// Hit rate of three passes over every 400th key below `n`.
fn hot_set_hit_rate(db: &Db, n: u32) -> f64 {
    let (h0, m0) = db.cache_stats().unwrap();
    for _ in 0..3 {
        for i in (0..n).step_by(400) {
            assert!(db.get(&key(i)).unwrap().is_some());
        }
    }
    let (h1, m1) = db.cache_stats().unwrap();
    (h1 - h0) as f64 / ((h1 - h0) + (m1 - m0)) as f64
}

#[test]
fn bulk_write_through_spares_the_re_referenced_set() {
    let fs = Arc::new(MemFs::new());
    let db = open(&fs, cached(0));
    const COLD: u32 = 20_000;
    for i in 0..COLD {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.compact_all().unwrap();
    let tree = db.table_bytes();
    drop(db);

    // Reopen with a cache an eighth of the tree; the hot set (a page in
    // every few) fits the protected segment once it has been re-read.
    let db = open(&fs, cached(tree as usize / 8));
    hot_set_hit_rate(&db, COLD);
    let before = hot_set_hit_rate(&db, COLD);
    assert!(before > 0.9, "hot set is resident: {before}");

    // Flush and compact several caches' worth of keys beside it: every
    // output page is written through.
    let evictions = db.stats_snapshot().cache_evictions;
    for i in COLD..2 * COLD {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.compact_all().unwrap();
    let s = db.stats_snapshot();
    assert!(s.cache_prepopulated_bytes > 2 * s.cache_capacity_bytes);
    assert!(
        s.cache_evictions > evictions,
        "the cache was under pressure"
    );

    let after = hot_set_hit_rate(&db, COLD);
    assert!(
        after >= before - 0.05,
        "hot-set hit rate fell from {before} to {after}"
    );
}
