//! Property tests over the storage formats themselves: any batch of
//! entries written through a `TableBuilder` reads back identically
//! (point and scan) across KiWi granularities and lays its pages out
//! exactly as the reference weave does, a fixed dataset builds to pinned
//! file bytes, a fixed full compaction writes pinned output files, and
//! any record sequence written through the WAL framing survives every
//! prefix truncation as a record prefix.

use std::sync::Arc;

use acheron::{Db, DbOptions};
use acheron_sstable::{Table, TableBuilder, TableOptions};
use acheron_types::checksum::crc32c;
use acheron_types::key::compare_internal;
use acheron_types::{Entry, ValuePointer};
use acheron_vfs::{MemFs, Vfs};
use acheron_wal::{LogReader, LogWriter, ReadOutcome};
use proptest::prelude::*;

/// Distinct (key, seqno) pairs → valid table input after sorting.
fn entries_strategy() -> impl Strategy<Value = Vec<Entry>> {
    prop::collection::btree_map(
        (any::<u16>(), 1u64..10_000),
        (any::<u8>(), any::<u64>(), prop::bool::ANY),
        1..250,
    )
    .prop_map(|m| {
        let mut entries: Vec<Entry> = m
            .into_iter()
            .map(|((k, seq), (vbyte, dkey, tombstone))| {
                let key = format!("pk{k:05}").into_bytes();
                if tombstone {
                    Entry::tombstone(key, seq, dkey)
                } else {
                    Entry::put(key, vec![vbyte; (vbyte % 40) as usize], seq, dkey)
                }
            })
            .collect();
        entries.sort_by_key(|e| e.internal_key());
        entries
    })
}

fn build_table(entries: &[Entry], h: usize, page: usize) -> Arc<Table> {
    let fs = MemFs::new();
    let opts = TableOptions {
        pages_per_tile: h,
        page_size: page,
        ..Default::default()
    };
    let mut b = TableBuilder::new(fs.create("t").unwrap(), opts).unwrap();
    for e in entries {
        b.add(e).unwrap();
    }
    b.finish().unwrap();
    Table::open(fs.open("t").unwrap()).unwrap()
}

/// `(entry_count, tombstone_count, dkey_min, dkey_max, max_seqno)` of a
/// page.
type PageShape = (u64, u64, u64, u64, u64);

/// The [`PageShape`] of each page of each tile, computed the way the builder was first
/// written: cut tiles at user-key boundaries before they outgrow
/// `h * page` payload bytes, stable-sort each tile by `(dkey, internal
/// key)`, pack greedily into pages. The builder may sort integers
/// instead of keys; its page layout must still be this one.
fn reference_weave(entries: &[Entry], h: usize, page: usize) -> Vec<Vec<PageShape>> {
    let payload = |e: &Entry| e.key.len() + 8 + e.value.len() + 16;
    let mut tiles: Vec<Vec<&Entry>> = Vec::new();
    let mut tile: Vec<&Entry> = Vec::new();
    let mut tile_bytes = 0usize;
    for e in entries {
        let boundary = tile.last().is_none_or(|last| last.key != e.key);
        if !tile.is_empty() && boundary && tile_bytes + payload(e) > h * page {
            tiles.push(std::mem::take(&mut tile));
            tile_bytes = 0;
        }
        tile_bytes += payload(e);
        tile.push(e);
    }
    tiles.push(tile);
    tiles
        .into_iter()
        .filter(|t| !t.is_empty())
        .map(|mut tile| {
            if h > 1 {
                tile.sort_by(|a, b| {
                    a.dkey.cmp(&b.dkey).then_with(|| {
                        compare_internal(a.internal_key().encoded(), b.internal_key().encoded())
                    })
                });
            }
            let mut pages: Vec<Vec<&Entry>> = vec![Vec::new()];
            let mut bytes = 0usize;
            for e in tile {
                if !pages.last().unwrap().is_empty() && bytes + payload(e) > page {
                    pages.push(Vec::new());
                    bytes = 0;
                }
                bytes += payload(e);
                pages.last_mut().unwrap().push(e);
            }
            pages
                .iter()
                .map(|p| {
                    (
                        p.len() as u64,
                        p.iter().filter(|e| e.is_tombstone()).count() as u64,
                        p.iter().map(|e| e.dkey).min().unwrap(),
                        p.iter().map(|e| e.dkey).max().unwrap(),
                        p.iter().map(|e| e.seqno).max().unwrap(),
                    )
                })
                .collect()
        })
        .collect()
}

/// 5,000 entries in internal-key order: every 7th key has three
/// versions, every 5th entry is a tombstone, every 11th a value pointer,
/// delete keys scattered so the weave has work to do.
fn pinned_dataset() -> Vec<Entry> {
    let mut entries = Vec::with_capacity(5_000);
    let mut seq = 100_000u64;
    let mut id = 0u32;
    while entries.len() < 5_000 {
        let key = format!("user{id:06}").into_bytes();
        let versions = if id.is_multiple_of(7) { 3 } else { 1 };
        for _ in 0..versions {
            let n = entries.len() as u64;
            let dkey = n.wrapping_mul(2_654_435_761) % 10_007;
            entries.push(if n.is_multiple_of(5) {
                Entry::tombstone(key.clone(), seq, dkey)
            } else if n.is_multiple_of(11) {
                let ptr = ValuePointer {
                    segment: n / 1_000,
                    offset: n * 517,
                    len: 517,
                };
                Entry::value_pointer(key.clone(), ptr, seq, dkey)
            } else {
                Entry::put(
                    key.clone(),
                    vec![(n % 251) as u8; (n % 90) as usize],
                    seq,
                    dkey,
                )
            });
            seq -= 1;
        }
        id += 1;
    }
    entries
}

/// The builder's output is a compatibility surface and the yardstick
/// for every data-path optimisation: same input, same file bytes.
/// Recorded at format 4: an unwoven table's filter block is one
/// whole-table key filter instead of a filter per page; a woven table
/// differs from format 3 only in its footer's version.
#[test]
fn table_file_bytes_are_pinned() {
    for (h, expected_len, expected_crc) in [
        (1usize, 283_809usize, 3_952_242_835u32),
        (4, 285_012, 4_070_541_353),
    ] {
        let fs = MemFs::new();
        let opts = TableOptions {
            pages_per_tile: h,
            page_size: 4096,
            bloom_bits_per_key: 10,
            ..Default::default()
        };
        let mut b = TableBuilder::new(fs.create("t").unwrap(), opts).unwrap();
        for e in &pinned_dataset() {
            b.add(e).unwrap();
        }
        b.finish().unwrap();
        let bytes = fs.read_all("t").unwrap();
        assert_eq!(
            (bytes.len(), crc32c(&bytes)),
            (expected_len, expected_crc),
            "h={h}: table file bytes changed"
        );
    }
}

/// `(file name, length, CRC32C)` of every table file under `dir`, by
/// name.
fn table_files(fs: &MemFs, dir: &str) -> Vec<(String, usize, u32)> {
    let mut names: Vec<String> = fs
        .list(dir)
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".sst"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let bytes = fs.read_all(&format!("{dir}/{n}")).unwrap();
            (n, bytes.len(), crc32c(&bytes))
        })
        .collect()
}

/// What `run_compaction` writes is pinned the way the builder's output
/// is: a deterministic engine (logical clock, no workers) under leveling
/// with a KiWi `h = 4` bottom takes puts with scattered delete keys,
/// point deletes, separated values, sort-key and secondary range
/// deletes, and one version chain a snapshot pins. `compact_all` then
/// runs once with the snapshot held (every chain takes the pinned path)
/// and once after it is released and more writes landed (every chain
/// takes the snapshot-free path, and tombstones and sort-key range
/// tombstones are purged). Every table file left after each is pinned.
#[test]
fn compaction_output_bytes_are_pinned() {
    let fs = Arc::new(MemFs::new());
    let opts = DbOptions {
        write_buffer_bytes: 16 << 10,
        level1_target_bytes: 64 << 10,
        target_file_bytes: 16 << 10,
        page_size: 1024,
        max_levels: 3,
        background_threads: 0,
        ..DbOptions::default()
    }
    .with_tile(4)
    .with_value_separation(96);
    let db = Db::open(Arc::clone(&fs) as Arc<dyn Vfs>, "db", opts).unwrap();
    let key = |i: u64| format!("key{:06}", i % 3_000).into_bytes();
    let write = |from: u64, to: u64| {
        for i in from..to {
            let k = key(i.wrapping_mul(7_919));
            let dkey = i.wrapping_mul(2_654_435_761) % 1_000;
            match i % 10 {
                0 | 5 => db.delete(&k).unwrap(),
                3 => db
                    .put_with_dkey(&k, &vec![(i % 251) as u8; 96 + (i % 64) as usize], dkey)
                    .unwrap(),
                _ => db
                    .put_with_dkey(&k, &vec![(i % 251) as u8; (i % 40) as usize], dkey)
                    .unwrap(),
            }
            if i % 1_500 == 1_499 {
                let lo = i % 2_900;
                db.range_delete_keys(&key(lo), &key(lo + 25)).unwrap();
            }
        }
    };
    write(0, 6_000);
    db.put(b"pinned", b"old").unwrap();
    let snap = db.snapshot();
    db.put(b"pinned", b"new").unwrap();
    write(6_000, 7_000);
    db.compact_all().unwrap();
    assert_eq!(
        db.get_at(&snap, b"pinned").unwrap().as_deref(),
        Some(&b"old"[..])
    );
    let held = table_files(&fs, "db");
    drop(snap);
    db.range_delete_secondary(100, 160).unwrap();
    write(7_000, 9_000);
    db.compact_all().unwrap();
    let released = table_files(&fs, "db");
    // The case has teeth: both paths purge, and the bottom is woven.
    let st = db.stats_snapshot();
    assert!(st.tombstones_purged > 0 && st.key_range_tombstones_purged > 0);
    assert!(st.entries_range_purged > 0 && st.entries_key_range_purged > 0);
    assert!(db
        .tombstone_gauges()
        .levels
        .iter()
        .any(|l| l.woven_files > 0));
    let pinned = |files: &[(&str, usize, u32)]| -> Vec<(String, usize, u32)> {
        files
            .iter()
            .map(|&(n, len, crc)| (n.to_string(), len, crc))
            .collect()
    };
    assert_eq!(
        held,
        pinned(&[
            ("000105.sst", 16_689, 3_919_606_013),
            ("000106.sst", 16_653, 3_434_079_999),
            ("000107.sst", 16_651, 939_846_698),
            ("000108.sst", 16_688, 3_675_073_655),
            ("000109.sst", 16_732, 2_264_817_956),
            ("000110.sst", 16_770, 2_842_557_173),
            ("000111.sst", 16_697, 1_645_149_716),
            ("000112.sst", 16_678, 2_356_055_004),
            ("000113.sst", 1_992, 1_321_425_877),
            ("000117.sst", 16_768, 3_092_498_864),
        ]),
        "snapshot held: compaction output bytes changed"
    );
    assert_eq!(
        released,
        pinned(&[
            ("000144.sst", 16_795, 2_211_851_897),
            ("000145.sst", 16_806, 3_502_424_860),
            ("000146.sst", 16_810, 3_822_630_577),
            ("000147.sst", 16_818, 105_029_266),
            ("000148.sst", 16_828, 3_314_225_314),
            ("000149.sst", 16_817, 1_300_925_063),
            ("000150.sst", 5_192, 2_231_086_597),
        ]),
        "snapshot released: compaction output bytes changed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn table_round_trips_across_tile_sizes(
        entries in entries_strategy(),
        h in prop::sample::select(vec![1usize, 3, 8]),
        page in prop::sample::select(vec![128usize, 512, 4096]),
    ) {
        let table = build_table(&entries, h, page);
        // Full scan equals input.
        let mut it = table.iter(vec![]);
        it.seek_to_first().unwrap();
        let scanned = it.drain().unwrap();
        prop_assert_eq!(&scanned, &entries);
        // Pages hold what the reference weave puts in them.
        let layout: Vec<Vec<PageShape>> = table
            .tile_index()
            .iter()
            .map(|t| {
                t.pages
                    .iter()
                    .map(|p| (p.entry_count, p.tombstone_count, p.dkey_min, p.dkey_max, p.max_seqno))
                    .collect()
            })
            .collect();
        prop_assert_eq!(layout, reference_weave(&entries, h, page));
        // Every entry is point-readable as the newest version at its own
        // seqno.
        for e in &entries {
            let versions = table.get_versions(&e.key, e.seqno, &[]).unwrap();
            prop_assert!(
                versions.iter().any(|v| v == e),
                "entry {:?}@{} not found",
                e.key,
                e.seqno
            );
        }
        // Stats agree with content.
        prop_assert_eq!(table.stats().entry_count, entries.len() as u64);
        let tombstones = entries.iter().filter(|e| e.is_tombstone()).count() as u64;
        prop_assert_eq!(table.stats().tombstone_count, tombstones);
    }

    #[test]
    fn wal_prefix_truncation_yields_record_prefix(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..600), 1..30),
        cut_frac in 0.0f64..1.0,
    ) {
        let fs = MemFs::new();
        let mut w = LogWriter::new(fs.create("wal").unwrap());
        for r in &records {
            w.add_record(r).unwrap();
        }
        w.finish().unwrap();
        let data = fs.read_all("wal").unwrap();
        let cut = ((data.len() as f64) * cut_frac) as usize;
        let mut reader = LogReader::new(data.slice(..cut));
        let mut recovered = Vec::new();
        while let ReadOutcome::Record(rec) = reader.next_record() {
            recovered.push(rec.to_vec());
        }
        prop_assert!(recovered.len() <= records.len());
        prop_assert_eq!(
            recovered.as_slice(),
            &records[..recovered.len()],
            "recovered records must be a prefix of what was written"
        );
    }
}
