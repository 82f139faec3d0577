//! KiWi layout follows position: only a bottommost compaction weaves
//! its outputs (`pages_per_tile` pages per tile, ordered by delete key),
//! because only a bottommost compaction can later drop those pages.
//! Flushes and compactions with data beneath them write sort-ordered
//! tables, which a sort-key seek reads one page of instead of `h`.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use acheron::{Db, DbOptions, LevelGauge};
use acheron_vfs::MemFs;
use acheron_workload::{run_ops, KeyDistribution, OpMix, WorkloadGen, WorkloadSpec};

/// Ops per load batch.
const BATCH: usize = 500;

fn opts(h: usize) -> DbOptions {
    DbOptions {
        write_buffer_bytes: 4 << 10,
        level1_target_bytes: 16 << 10,
        target_file_bytes: 8 << 10,
        page_size: 512,
        max_levels: 5,
        background_threads: 0,
        ..DbOptions::default()
    }
    .with_tile(h)
}

/// Puts and deletes over uniform keys; every put's delete key is its
/// insertion tick (the engine stamps `dkey = None` with the clock).
fn stream(seed: u64) -> WorkloadGen {
    let mut spec = WorkloadSpec::new(OpMix::write_heavy(10), KeyDistribution::uniform(20_000));
    spec.seed = seed;
    spec.value_len = 32;
    WorkloadGen::new(spec)
}

/// Deepest level holding any file (the gauges list occupied levels).
fn depth(levels: &[LevelGauge]) -> usize {
    levels.last().map_or(0, |l| l.level)
}

/// Load `seed`'s stream in batches until the tree reaches L2, then run
/// one more batch so L1 is rewritten with L2 beneath it.
fn load(h: usize, seed: u64) -> (Db, usize) {
    let db = Db::open(Arc::new(MemFs::new()), "db", opts(h)).unwrap();
    let mut gen = stream(seed);
    let mut batches = 0;
    while depth(&db.tombstone_gauges().levels) < 2 {
        assert!(batches < 100, "the tree never reached three levels");
        run_ops(&db, &gen.take(BATCH)).unwrap();
        batches += 1;
    }
    run_ops(&db, &gen.take(BATCH)).unwrap();
    (db, batches + 1)
}

#[test]
fn only_bottommost_outputs_are_woven() {
    for seed in [1u64, 2, 3] {
        let (db, _) = load(4, seed);
        let levels = db.tombstone_gauges().levels;
        assert!(depth(&levels) >= 2, "seed {seed}: {levels:?}");
        let (bottom, above) = levels.split_last().expect("the tree is not empty");
        for l in above {
            let why = match l.level {
                0 => "flushes never weave",
                _ => "has data beneath",
            };
            assert_eq!(l.woven_files, 0, "seed {seed}: L{} {why}", l.level);
        }
        assert_eq!(
            bottom.woven_files, bottom.files,
            "seed {seed}: the bottom is woven"
        );
    }
}

/// Range-delete the oldest 30% of delete keys, compact everything, and
/// return the pages dropped unread plus the final scan.
#[allow(clippy::type_complexity)]
fn expire_and_scan(db: &Db) -> (u64, Vec<(Vec<u8>, Vec<u8>)>) {
    let cutoff = db.now() * 3 / 10;
    db.range_delete_secondary(0, cutoff).unwrap();
    db.compact_all().unwrap();
    db.verify_integrity().unwrap();
    let rows = db
        .scan(&[0u8], &[0xffu8; 16])
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect();
    (db.stats().pages_dropped.load(Relaxed), rows)
}

#[test]
fn secondary_range_deletes_still_drop_woven_pages() {
    let seed = 7;
    let (woven, batches) = load(4, seed);
    // The same stream, sort-ordered everywhere, must answer identically.
    let plain = Db::open(Arc::new(MemFs::new()), "db", opts(1)).unwrap();
    let mut gen = stream(seed);
    run_ops(&plain, &gen.take(batches * BATCH)).unwrap();
    assert_eq!(plain.now(), woven.now());

    let (dropped, rows) = expire_and_scan(&woven);
    assert!(dropped > 0, "expiry must drop woven pages unread");
    let (_, reference) = expire_and_scan(&plain);
    assert!(!reference.is_empty());
    assert_eq!(rows, reference);
}
