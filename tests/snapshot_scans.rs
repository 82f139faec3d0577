//! Snapshot consistency for scans and range iterators: a scan taken
//! through a snapshot must return exactly what a scan returned at the
//! moment the snapshot was created, no matter how many writes, range
//! deletes, flushes, and compactions happen in between.

use std::sync::Arc;

use acheron::{Db, DbOptions};
use acheron_vfs::MemFs;
use bytes::Bytes;

fn opts() -> DbOptions {
    DbOptions {
        write_buffer_bytes: 4 << 10,
        level1_target_bytes: 16 << 10,
        target_file_bytes: 8 << 10,
        page_size: 512,
        max_levels: 4,
        ..DbOptions::default()
    }
}

type Rows = Vec<(Bytes, Bytes)>;

#[test]
fn snapshot_scans_are_frozen_across_churn() {
    let db = Db::open(Arc::new(MemFs::new()), "db", opts()).unwrap();
    for i in 0..800u32 {
        db.put_with_dkey(
            format!("key{i:04}").as_bytes(),
            format!("v{i}").as_bytes(),
            u64::from(i),
        )
        .unwrap();
    }
    for i in (0..800u32).step_by(7) {
        db.delete(format!("key{i:04}").as_bytes()).unwrap();
    }

    // Freeze three observation points at different moments.
    let snap1 = db.snapshot();
    let expect1: Rows = db.scan(b"key0000", b"key9999").unwrap();

    db.range_delete_secondary(100, 300).unwrap();
    let snap2 = db.snapshot();
    let expect2: Rows = db.scan(b"key0000", b"key9999").unwrap();

    for i in 0..800u32 {
        db.put(format!("key{i:04}").as_bytes(), b"overwritten")
            .unwrap();
    }
    let snap3 = db.snapshot();
    let expect3: Rows = db.scan(b"key0000", b"key9999").unwrap();

    // Churn hard: more overwrites, another range delete, full compaction.
    for i in 0..800u32 {
        db.put(format!("key{i:04}").as_bytes(), b"final").unwrap();
    }
    db.range_delete_secondary(0, 1_000_000).unwrap();
    db.compact_all().unwrap();

    assert_eq!(db.scan_at(&snap1, b"key0000", b"key9999").unwrap(), expect1);
    assert_eq!(db.scan_at(&snap2, b"key0000", b"key9999").unwrap(), expect2);
    assert_eq!(db.scan_at(&snap3, b"key0000", b"key9999").unwrap(), expect3);

    // Streaming iterators agree with the materialized snapshots.
    let mut it = db.range_iter_at(&snap2, b"key0000", b"key9999").unwrap();
    let mut streamed = Vec::new();
    while let Some(kv) = it.next_entry().unwrap() {
        streamed.push(kv);
    }
    assert_eq!(streamed, expect2);

    // The range delete at snapshot 2 actually did something: expect2 is
    // a strict subset of expect1's keys.
    assert!(expect2.len() < expect1.len());
    // And the final live view is empty (everything range-deleted).
    assert!(db.scan(b"key0000", b"key9999").unwrap().is_empty());
}

#[test]
fn dropping_snapshots_releases_pinned_versions() {
    let db = Db::open(Arc::new(MemFs::new()), "db", opts()).unwrap();
    for i in 0..500u32 {
        db.put(format!("key{i:04}").as_bytes(), &[b'x'; 64])
            .unwrap();
    }
    let snap = db.snapshot();
    for i in 0..500u32 {
        db.put(format!("key{i:04}").as_bytes(), &[b'y'; 64])
            .unwrap();
    }
    db.compact_all().unwrap();
    let pinned_bytes = db.table_bytes();
    let pinned_entries: u64 = db.tombstone_gauges().levels.iter().map(|l| l.entries).sum();
    assert_eq!(pinned_entries, 1000, "snapshot pins both strata");

    drop(snap);
    // Old versions are reclaimed when compaction next touches them; a
    // fresh overwrite round forces the bottom to be rewritten.
    for i in 0..500u32 {
        db.put(format!("key{i:04}").as_bytes(), &[b'z'; 64])
            .unwrap();
    }
    db.compact_all().unwrap();
    let released_bytes = db.table_bytes();
    let released_entries: u64 = db.tombstone_gauges().levels.iter().map(|l| l.entries).sum();
    assert_eq!(
        released_entries, 500,
        "without the snapshot only the newest stratum survives"
    );
    assert!(
        released_bytes < pinned_bytes,
        "reclaim should shrink the footprint ({released_bytes} vs {pinned_bytes})"
    );
}

#[test]
fn snapshot_sees_tombstone_not_predecessor() {
    let db = Db::open(Arc::new(MemFs::new()), "db", opts()).unwrap();
    db.put(b"k", b"v1").unwrap();
    db.delete(b"k").unwrap();
    let snap_deleted = db.snapshot();
    db.put(b"k", b"v2").unwrap();
    db.compact_all().unwrap();
    assert_eq!(db.get_at(&snap_deleted, b"k").unwrap(), None);
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
    assert!(db.scan_at(&snap_deleted, b"k", b"k").unwrap().is_empty());
}

#[test]
fn range_delete_respects_snapshot_boundaries() {
    let db = Db::open(Arc::new(MemFs::new()), "db", opts()).unwrap();
    db.put_with_dkey(b"a", b"v", 10).unwrap();
    let before_rt = db.snapshot();
    db.range_delete_secondary(5, 15).unwrap();
    let after_rt = db.snapshot();
    db.compact_all().unwrap();
    // A snapshot taken before the range delete does not see it.
    assert_eq!(
        db.get_at(&before_rt, b"a").unwrap().as_deref(),
        Some(&b"v"[..])
    );
    // A snapshot taken after does.
    assert_eq!(db.get_at(&after_rt, b"a").unwrap(), None);
}
