//! Differential properties of the read path's flat indexes, each
//! checked against the plain search it replaced:
//!
//! * a table's tile index finds the same tile as a `partition_point`
//!   over the writer's `TileMeta` fences;
//! * a version's per-level bounds index picks, for a get's key and for a
//!   scan's range, the files `FileMeta::overlaps_keys` picks, on random
//!   versions with overlapping L0 files, leveled levels and tiered
//!   multi-run levels; the version's overlap queries, stations and
//!   sort-key retirement built on it answer as a walk over every file
//!   does;
//! * the fragment index's cursor probe answers as its binary search does,
//!   on ascending, repeated and unordered probe sequences.
//!
//! A get still counts every file of the version exactly once, as a
//! probe, a seqno skip or a key-fence skip.

use std::sync::Arc;

use acheron::version::{FileMeta, Version};
use acheron::{Db, DbOptions};
use acheron_sstable::meta::encode_tiles;
use acheron_sstable::{
    BlockHandle, PageMeta, Table, TableBuilder, TableOptions, TileIndex, TileMeta,
};
use acheron_types::key::compare_internal;
use acheron_types::{
    Entry, FragmentedRangeTombstones, InternalKey, KeyRangeTombstone, SeqNo, ValueKind,
};
use acheron_vfs::{MemFs, Vfs};
use bytes::Bytes;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Tile index
// ---------------------------------------------------------------------

/// An internal key over a small user-key space, so fences and probes
/// often share a user key and differ only in seqno.
fn internal_key() -> impl Strategy<Value = Vec<u8>> {
    (0u8..12, 1u64..6, any::<bool>()).prop_map(|(k, seqno, tombstone)| {
        let kind = if tombstone {
            ValueKind::Tombstone
        } else {
            ValueKind::Put
        };
        InternalKey::new(&[b'k', k], seqno, kind).encoded().to_vec()
    })
}

fn page(i: u64) -> PageMeta {
    PageMeta {
        handle: BlockHandle {
            offset: i * 100,
            size: 90,
        },
        dkey_min: i,
        dkey_max: i + 3,
        max_seqno: i * 7,
        entry_count: i + 1,
        tombstone_count: i % 2,
        filter_offset: i * 10,
        filter_len: 10,
    }
}

/// Tiles with strictly ascending fences and one to four pages each.
fn tile_list() -> impl Strategy<Value = Vec<TileMeta>> {
    prop::collection::vec((internal_key(), 1u64..5, any::<bool>()), 0..24).prop_map(|raw| {
        let mut raw = raw;
        raw.sort_by(|a, b| compare_internal(&a.0, &b.0));
        raw.dedup_by(|a, b| a.0 == b.0);
        let mut next_page = 0;
        raw.into_iter()
            .map(|(fence, pages, multi_version)| TileMeta {
                last_ikey: Bytes::from(fence),
                pages: (0..pages)
                    .map(|_| {
                        next_page += 1;
                        page(next_page)
                    })
                    .collect(),
                multi_version,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn flat_tile_find_matches_a_search_over_the_decoded_fences(
        tiles in tile_list(),
        probes in prop::collection::vec(internal_key(), 16),
    ) {
        let index = TileIndex::decode(&encode_tiles(&tiles)).unwrap();
        prop_assert_eq!(index.len(), tiles.len());
        for (i, tile) in tiles.iter().enumerate() {
            let flat = index.tile(i);
            prop_assert_eq!(flat.fence, &tile.last_ikey[..]);
            prop_assert_eq!(flat.pages, &tile.pages[..]);
            prop_assert_eq!(flat.multi_version, tile.multi_version);
        }
        let fences = tiles.iter().map(|t| t.last_ikey.to_vec());
        for probe in probes.iter().cloned().chain(fences) {
            let at = tiles.partition_point(|t| {
                compare_internal(&t.last_ikey, &probe) == std::cmp::Ordering::Less
            });
            prop_assert_eq!(index.find(&probe), (at < tiles.len()).then_some(at), "{:?}", probe);
        }
    }
}

// ---------------------------------------------------------------------
// Level bounds
// ---------------------------------------------------------------------

/// A user key of the version's key space.
fn user_key(k: u16) -> Vec<u8> {
    format!("key{k:03}").into_bytes()
}

/// One file: its key range `[lo, hi]` and seqno range `[min, min + span]`.
#[derive(Debug, Clone, Copy)]
struct FileSpec {
    lo: u16,
    hi: u16,
    min_seqno: SeqNo,
    span: SeqNo,
}

/// A file of the version, built as a real table holding a version at
/// each end of its key range.
fn build_file(fs: &MemFs, id: u64, level: usize, run: u64, spec: FileSpec) -> Arc<FileMeta> {
    let path = format!("{id:06}.sst");
    let mut b = TableBuilder::new(fs.create(&path).unwrap(), TableOptions::default()).unwrap();
    let max_seqno = spec.min_seqno + spec.span;
    let (first, last) = (user_key(spec.lo), user_key(spec.hi));
    if spec.lo == spec.hi {
        b.add(&Entry::put(
            first.clone(),
            b"new".to_vec(),
            max_seqno + 1,
            0,
        ))
        .unwrap();
    } else {
        b.add(&Entry::put(first, b"lo".to_vec(), max_seqno, 0))
            .unwrap();
    }
    b.add(&Entry::put(last, b"hi".to_vec(), spec.min_seqno, 0))
        .unwrap();
    let stats = b.finish().unwrap();
    Arc::new(FileMeta {
        id,
        level,
        run,
        size_bytes: fs.file_size(&path).unwrap(),
        stats,
        created_tick: 0,
        table: Table::open(fs.open(&path).unwrap()).unwrap(),
    })
}

/// A run: disjoint, ascending key ranges cut from sorted points (an odd
/// point out becomes a one-key file).
fn run_spec() -> impl Strategy<Value = Vec<FileSpec>> {
    let points = prop::collection::vec(0u16..60, 0..8);
    let seqnos = prop::collection::vec((1u64..80, 0u64..30), 4);
    (points, seqnos).prop_map(|(mut points, seqnos)| {
        points.sort_unstable();
        points.dedup();
        points
            .chunks(2)
            .zip(seqnos.iter().cycle())
            .map(|(pair, &(min_seqno, span))| FileSpec {
                lo: pair[0],
                hi: *pair.last().unwrap(),
                min_seqno,
                span,
            })
            .collect()
    })
}

/// Overlapping L0 files, one per run.
fn l0_spec() -> impl Strategy<Value = Vec<FileSpec>> {
    prop::collection::vec((0u16..60, 0u16..20, 1u64..80, 0u64..30), 0..5).prop_map(|files| {
        (files.into_iter())
            .map(|(lo, len, min_seqno, span)| FileSpec {
                lo,
                hi: (lo + len).min(59),
                min_seqno,
                span,
            })
            .collect()
    })
}

/// L0 (overlapping files), L1 and L3 (one run each) and L2 (tiered: one
/// to three runs, overlapping one another).
fn version_spec() -> impl Strategy<Value = Vec<Vec<Vec<FileSpec>>>> {
    (
        l0_spec(),
        run_spec(),
        prop::collection::vec(run_spec(), 1..4),
        run_spec(),
    )
        .prop_map(|(l0, l1, l2, l3)| {
            vec![
                l0.into_iter().map(|f| vec![f]).collect(),
                vec![l1],
                l2,
                vec![l3],
            ]
        })
}

fn build_version(fs: &MemFs, spec: &[Vec<Vec<FileSpec>>]) -> Version {
    let mut files = Vec::new();
    for (level, runs) in spec.iter().enumerate() {
        for (run, specs) in runs.iter().enumerate() {
            for &f in specs {
                let id = files.len() as u64 + 1;
                files.push(build_file(fs, id, level, run as u64, f));
            }
        }
    }
    Version::empty(spec.len()).apply(files, &[], &[], &[])
}

/// The reference: indexes of the files at `level` whose key range
/// overlaps `[lo, hi]`, by a walk over every one.
fn walk(v: &Version, level: usize, lo: &[u8], hi: &[u8]) -> Vec<usize> {
    (v.levels[level].iter().enumerate())
        .filter(|(_, f)| f.overlaps_keys(lo, hi))
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn level_bounds_pick_the_files_a_walk_picks(
        spec in version_spec(),
        gets in prop::collection::vec(0u16..62, 12),
        scans in prop::collection::vec((0u16..62, 0u16..62), 12),
        krts in prop::collection::vec((0u16..62, 0u16..62, 1u64..112), 8),
    ) {
        let fs = MemFs::new();
        let v = build_version(&fs, &spec);
        for level in [1, 3] {
            prop_assert!(v.level_bounds(level).is_sorted(), "a one-run level is sorted");
        }
        let ranges = (gets.iter().map(|&k| (user_key(k), user_key(k))))
            .chain(scans.iter().map(|&(a, b)| (user_key(a), user_key(b))));
        for (lo, hi) in ranges {
            for level in 0..v.levels.len() {
                let bounds = v.level_bounds(level);
                let picked: Vec<usize> = bounds.overlapping(&lo, &hi).collect();
                let reference = walk(&v, level, &lo, &hi);
                prop_assert_eq!(&picked, &reference, "level {} [{:?}, {:?}]", level, lo, hi);
                let ids = |files: Vec<Arc<FileMeta>>| files.iter().map(|f| f.id).collect::<Vec<_>>();
                let walked = reference.iter().map(|&i| v.levels[level][i].id).collect::<Vec<_>>();
                prop_assert_eq!(ids(v.overlapping_files(level, &lo, &hi)), walked);
                let below = (level + 1..v.levels.len()).any(|l| !walk(&v, l, &lo, &hi).is_empty());
                prop_assert_eq!(v.overlaps_below(level, &lo, &hi), below);
                for i in 0..bounds.len() {
                    let f = &v.levels[level][i];
                    prop_assert_eq!(
                        (bounds.min_seqno(i), bounds.max_seqno(i)),
                        (f.stats.min_seqno, f.stats.max_seqno)
                    );
                }
            }
        }

        // Seqnos in the files' range, so a tombstone often shares one
        // with a file's oldest entry; distinct, since the version names
        // tombstones by seqno.
        let mut seqnos = std::collections::HashSet::new();
        let tombstones: Vec<KeyRangeTombstone> = (krts.iter())
            .filter(|&&(_, _, seqno)| seqnos.insert(seqno))
            .map(|&(a, b, seqno)| KeyRangeTombstone {
                start: Bytes::from(user_key(a)),
                end: Bytes::from(user_key(b)),
                seqno,
                dkey: 0,
            })
            .collect();
        for k in &tombstones {
            let station = (v.levels.iter())
                .position(|files| files.iter().any(|f| f.under_key_range_tombstone(k)));
            prop_assert_eq!(v.station(k), station, "{:?}", k);
        }
        let with_krts = v.clone().apply_key_ranges(&tombstones, &[]);
        let (_, retired) = with_krts.retire(&[], None);
        let reference: Vec<SeqNo> = (tombstones.iter())
            .filter(|k| !v.all_files().any(|f| f.under_key_range_tombstone(k)))
            .map(|k| k.seqno)
            .collect();
        let retired: Vec<SeqNo> = retired.key_ranges.iter().map(|k| k.seqno).collect();
        prop_assert_eq!(retired, reference);
    }
}

/// Every traced get accounts for every file of the version once: as a
/// table probe, a seqno skip or a key-fence skip. On this tree of
/// sorted levels most files are excluded by the binary search.
#[test]
fn a_get_counts_every_file_once() {
    let db = Db::open(Arc::new(MemFs::new()), "db", DbOptions::small()).unwrap();
    for round in 0..6u32 {
        for i in 0..1500u32 {
            let k = (i * 7 + round * 131) % 3000;
            db.put(format!("key{k:05}").as_bytes(), &[b'v'; 48])
                .unwrap();
        }
        db.flush().unwrap();
    }
    let levels = db.tombstone_gauges().levels;
    let files: u64 = levels.iter().map(|l| l.files).sum();
    assert!(
        levels.iter().filter(|l| l.files > 1).count() >= 2,
        "several levels hold several files: {levels:?}"
    );
    let mut fence_skips = 0;
    for k in (0..3200u32).step_by(37) {
        let (_, trace) = db
            .get_traced(format!("key{k:05}").as_bytes(), None)
            .unwrap();
        let count = |stage: &str| {
            (trace.named_spans().into_iter())
                .find(|(name, _)| name == stage)
                .map_or(0, |(_, v)| v)
        };
        let accounted =
            count("table_probes") + count("seqno_skips") + count("bloom_prescreen_skips");
        assert_eq!(accounted, files, "key{k:05}");
        fence_skips += count("bloom_prescreen_skips");
    }
    assert!(fence_skips > 0);
}

// ---------------------------------------------------------------------
// Fragment cursor
// ---------------------------------------------------------------------

/// Keys of up to two bytes over a small alphabet: often equal, often
/// one another's prefix or successor.
fn short_key() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop::sample::select(vec![0x00u8, 0x01, b'a', b'b', 0xff]),
        0..=2,
    )
}

fn tombstone_set() -> impl Strategy<Value = Vec<KeyRangeTombstone>> {
    let one = (short_key(), short_key(), 1u64..8).prop_map(|(a, b, seqno)| KeyRangeTombstone {
        start: Bytes::from(a.clone().min(b.clone())),
        end: Bytes::from(a.max(b)),
        seqno,
        dkey: 0,
    });
    prop::collection::vec(one, 0..14)
}

/// The probe orders a cursor meets: ascending with repeats (a scan or a
/// compaction), and arbitrary (a cursor reused out of order).
fn probe_sequence() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (prop::collection::vec(short_key(), 0..40), any::<bool>()).prop_map(|(mut keys, ascending)| {
        if ascending {
            keys.sort();
        }
        keys
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn cursor_probes_answer_as_the_binary_search_does(
        tombstones in tombstone_set(),
        probes in probe_sequence(),
        snapshots in prop::collection::vec(0u64..9, 40),
    ) {
        let index = FragmentedRangeTombstones::build(&tombstones);
        let mut cursor = 0;
        for (key, &snapshot) in probes.iter().zip(snapshots.iter().cycle()) {
            let expect = index.max_seqno_covering(key, snapshot);
            prop_assert_eq!(
                index.max_seqno_covering_from(key, snapshot, &mut cursor),
                expect,
                "{:?} at {} over {:?}",
                key,
                snapshot,
                tombstones
            );
            let brute = (tombstones.iter())
                .filter(|t| t.seqno <= snapshot && t.contains(key))
                .map(|t| t.seqno)
                .max();
            prop_assert_eq!(expect, brute);
        }
    }
}
