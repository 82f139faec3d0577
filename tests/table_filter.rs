//! The whole-table key filter (table format 4) changes which tables and
//! pages a lookup reads, never what it answers:
//!
//! - over random tables — tile sizes 1, 2 and 4, multi-version chains,
//!   tombstones, value pointers, keys of 0 to 64 bytes — `Table::get`
//!   and `get_versions` answer every present and absent key exactly as
//!   the same table built without filters does, and as the entries
//!   themselves say;
//! - a format-3 table, written before the table filter existed and kept
//!   as a fixture, still opens and answers every one of its keys;
//! - every flipped byte of a table's filter block, the table filter
//!   included, is corruption to `Table::open`, to a live engine's
//!   `verify_integrity()` and to the doctor, and no get answers wrong.

use std::io::{Seek, SeekFrom, Write};
use std::sync::Arc;

use acheron::{check_db, Db, DbOptions};
use acheron_sstable::{Footer, Table, TableBuilder, TableOptions, FOOTER_SIZE};
use acheron_types::{Entry, SeqNo, ValuePointer};
use acheron_vfs::{MemFs, StdFs, TempDir, Vfs};
use proptest::prelude::*;

const ALL: SeqNo = u64::MAX >> 8;

fn build(entries: &[Entry], h: usize, bloom_bits_per_key: usize) -> Arc<Table> {
    let fs = MemFs::new();
    let opts = TableOptions {
        pages_per_tile: h,
        page_size: 256,
        bloom_bits_per_key,
        ..TableOptions::default()
    };
    let mut b = TableBuilder::new(fs.create("t").unwrap(), opts).unwrap();
    for e in entries {
        b.add(e).unwrap();
    }
    b.finish().unwrap();
    Table::open(fs.open("t").unwrap()).unwrap()
}

/// User key `k` of the proptest's pool: `k` repeated, 0 to 64 bytes
/// long, distinct for each `k` below 129.
fn pool_key(k: u8) -> Vec<u8> {
    vec![k; usize::from(if k < 65 { k } else { k - 64 })]
}

/// Up to 200 entries over a pool of 100 user keys (so chains form),
/// each a put, a tombstone or a value pointer.
fn entries_strategy() -> impl Strategy<Value = Vec<Entry>> {
    prop::collection::btree_map(
        (0u8..100, 1u64..5_000),
        (0u8..3, any::<u8>(), 0u64..1_000),
        1..200,
    )
    .prop_map(|m| {
        let mut entries: Vec<Entry> = m
            .into_iter()
            .map(|((k, seqno), (kind, v, dkey))| {
                let key = pool_key(k);
                match kind {
                    0 => Entry::put(key, vec![v; usize::from(v % 48)], seqno, dkey),
                    1 => Entry::tombstone(key, seqno, dkey),
                    _ => {
                        let ptr = ValuePointer {
                            segment: u64::from(v),
                            offset: seqno * 8,
                            len: 64,
                        };
                        Entry::value_pointer(key, ptr, seqno, dkey)
                    }
                }
            })
            .collect();
        entries.sort_by_key(|e| e.internal_key());
        entries
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filtered_tables_answer_as_filterless_ones_do(
        entries in entries_strategy(),
        h in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let filtered = build(&entries, h, 10);
        let reference = build(&entries, h, 0);
        // One kind of filter per table: a woven table has page filters.
        prop_assert_eq!(filtered.has_table_filter(), h == 1);
        prop_assert!(!reference.has_table_filter());
        // Every pool key, present or absent, at every snapshot that
        // separates two of its versions.
        for k in 0..129u8 {
            let key = pool_key(k);
            let mut snapshots = vec![0, ALL];
            for e in entries.iter().filter(|e| e.key[..] == key[..]) {
                snapshots.extend([e.seqno, e.seqno - 1]);
            }
            for &snapshot in &snapshots {
                // The model: the key's versions visible at `snapshot`,
                // newest first (entries are in internal-key order).
                let visible: Vec<Entry> = entries
                    .iter()
                    .filter(|e| e.key[..] == key[..] && e.seqno <= snapshot)
                    .cloned()
                    .collect();
                let got = filtered.get(&key, snapshot, &[]).unwrap();
                prop_assert_eq!(got.as_ref(), visible.first(), "get key {} at {}", k, snapshot);
                prop_assert_eq!(
                    got,
                    reference.get(&key, snapshot, &[]).unwrap(),
                    "get key {} at {}", k, snapshot
                );
                let versions = filtered.get_versions(&key, snapshot, &[]).unwrap();
                prop_assert_eq!(&versions, &visible, "versions of key {} at {}", k, snapshot);
                prop_assert_eq!(
                    versions,
                    reference.get_versions(&key, snapshot, &[]).unwrap(),
                    "versions of key {} at {}", k, snapshot
                );
            }
        }
    }
}

/// The fixture table's entries, in table order: 150 user keys of 0 to
/// 64 bytes, every fifth a three-version chain, tombstones and value
/// pointers among them.
fn fixture_entries() -> Vec<Entry> {
    let mut out = Vec::new();
    for i in 0..150u64 {
        let key = fixture_key(i);
        let versions = if i % 5 == 0 { 3 } else { 1 };
        for v in 0..versions {
            let (seqno, dkey) = (10_000 + i * 10 - v, (i * 7 + v) % 97);
            out.push(if v == 0 && i % 7 == 0 {
                Entry::tombstone(key.clone(), seqno, dkey)
            } else if i % 11 == 0 {
                let ptr = ValuePointer {
                    segment: i,
                    offset: i * 64,
                    len: 100,
                };
                Entry::value_pointer(key.clone(), ptr, seqno, dkey)
            } else {
                Entry::put(
                    key.clone(),
                    format!("value-{i}-{v}").into_bytes(),
                    seqno,
                    dkey,
                )
            });
        }
    }
    out
}

/// User key `i` of the fixture: empty for 0, else four digits and
/// `i % 61` filler bytes.
fn fixture_key(i: u64) -> Vec<u8> {
    if i == 0 {
        return Vec::new();
    }
    let mut key = format!("{i:04}").into_bytes();
    key.resize(4 + (i % 61) as usize, b'x');
    key
}

/// A table written at format 3 (no table filter; a page filter for every
/// page) from [`fixture_entries`] with 512-byte pages at `h = 2`.
const FORMAT3_TABLE: &[u8] = include_bytes!("fixtures/format3_h2.sst");

#[test]
fn a_format3_table_opens_and_answers_every_key() {
    let footer = Footer::decode(&FORMAT3_TABLE[FORMAT3_TABLE.len() - FOOTER_SIZE..]).unwrap();
    assert_eq!(footer.version, 3);
    let fs = MemFs::new();
    fs.write_all("t", FORMAT3_TABLE).unwrap();
    let table = Table::open(fs.open("t").unwrap()).unwrap();
    assert!(!table.has_table_filter());
    let entries = fixture_entries();
    assert_eq!(table.stats().entry_count, entries.len() as u64);
    for (i, chain) in entries.chunk_by(|a, b| a.key == b.key).enumerate() {
        let key = fixture_key(i as u64);
        assert_eq!(&chain[0].key[..], &key[..]);
        assert_eq!(table.get(&key, ALL, &[]).unwrap().as_ref(), Some(&chain[0]));
        assert_eq!(table.get_versions(&key, ALL, &[]).unwrap(), chain);
        let older = chain[0].seqno - 1;
        assert_eq!(table.get(&key, older, &[]).unwrap().as_ref(), chain.get(1));
        let mut absent = key.clone();
        absent.push(b'!');
        assert_eq!(table.get(&absent, ALL, &[]).unwrap(), None);
    }
}

/// Flip every byte of the one table's filter block and its trailer in
/// turn, in the file a live engine has open: first a flushed table (its
/// filter block is its table filter), then the woven table a full
/// compaction leaves (its filter block is its page filters).
#[test]
fn every_flipped_filter_byte_is_corruption_and_no_get_answers_wrong() {
    let dir = TempDir::new("filter-flips");
    let root = dir.path_str();
    let fs: Arc<dyn Vfs> = Arc::new(StdFs::new(false));
    let opts = DbOptions {
        background_threads: 0,
        ..DbOptions::small()
    }
    .with_tile(2);
    let db = Db::open(Arc::clone(&fs), root, opts).unwrap();
    let key = |i: u32| format!("key{i:03}").into_bytes();
    let value = |i: u32| format!("value{i:03}").repeat(6).into_bytes();
    for i in 0..120 {
        db.put(&key(i), &value(i)).unwrap();
    }
    let check_gets = |at: usize| {
        for i in 0..125 {
            let want = (i < 120).then(|| value(i));
            let got = db.get(&key(i)).unwrap().map(|v| v.to_vec());
            assert_eq!(got, want, "byte {at}, key {i}");
        }
    };
    db.flush().unwrap();
    let flushed = flip_every_filter_byte(&db, &fs, root, check_gets);
    assert_eq!(flushed.stats().pages_per_tile, 1);
    assert!(flushed.has_table_filter());
    db.compact_all().unwrap();
    let woven = flip_every_filter_byte(&db, &fs, root, check_gets);
    assert_eq!(woven.stats().pages_per_tile, 2);
    assert!(!woven.has_table_filter());
    assert!(woven.stats().page_count > 2);
}

/// Flip each byte of the filter block of the one table under `root`,
/// then put it back; returns the table, opened again.
fn flip_every_filter_byte(
    db: &Db,
    fs: &Arc<dyn Vfs>,
    root: &str,
    check_gets: impl Fn(usize),
) -> Arc<Table> {
    let tables: Vec<String> = fs
        .list(root)
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".sst"))
        .collect();
    assert_eq!(tables.len(), 1, "{tables:?}");
    let path = acheron_vfs::join(root, &tables[0]);
    let image = fs.read_all(&path).unwrap().to_vec();
    let footer = Footer::decode(&image[image.len() - FOOTER_SIZE..]).unwrap();
    let filter =
        footer.filter.offset as usize..(footer.filter.offset + footer.filter.size) as usize + 5;
    let write_byte = |at: usize, byte: u8| {
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(at as u64)).unwrap();
        f.write_all(&[byte]).unwrap();
    };
    let copy = MemFs::new();
    for at in filter {
        let mut damaged = image.clone();
        damaged[at] ^= 0xff;
        copy.write_all("t", &damaged).unwrap();
        let opened = Table::open(copy.open("t").unwrap());
        assert!(
            matches!(&opened, Err(e) if e.is_corruption()),
            "byte {at}: {opened:?}"
        );

        write_byte(at, damaged[at]);
        let verified = db.verify_integrity();
        assert!(
            matches!(&verified, Err(e) if e.is_corruption()),
            "byte {at}: {verified:?}"
        );
        let doctor = check_db(fs.as_ref(), root);
        assert!(
            matches!(&doctor, Err(e) if e.is_corruption()),
            "byte {at}: {:?}",
            doctor.map(|_| ())
        );
        check_gets(at);
        write_byte(at, image[at]);
    }
    db.verify_integrity().unwrap();
    check_db(fs.as_ref(), root).unwrap();
    Table::open(fs.open(&path).unwrap()).unwrap()
}
