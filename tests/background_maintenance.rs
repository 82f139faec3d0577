//! Background maintenance executor tests: writes proceed while flushes
//! and compactions run on worker threads, FADE deadlines are met without
//! manual `maintain()` calls, the hard write-stall limit engages and
//! releases, and `background_threads = 0` keeps runs deterministic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acheron::{CompactionLayout, Db, DbOptions, Event, FilePickPolicy};
use acheron_types::{checksum, Result};
use acheron_vfs::{IoStats, MemFs, RandomAccessFile, Vfs, WritableFile};
use bytes::Bytes;

fn opts(background_threads: usize) -> DbOptions {
    DbOptions {
        write_buffer_bytes: 8 << 10,
        level1_target_bytes: 32 << 10,
        target_file_bytes: 16 << 10,
        page_size: 1024,
        max_levels: 4,
        background_threads,
        ..DbOptions::default()
    }
}

/// Writers and readers make progress while workers own every flush and
/// compaction: nothing is lost, reads never regress, and the tree stays
/// structurally sound — with no manual maintenance call anywhere.
#[test]
fn writers_and_readers_race_background_maintenance() {
    let db = Db::open(Arc::new(MemFs::new()), "db", opts(2)).unwrap();
    let stop = AtomicBool::new(false);
    const WRITERS: u64 = 4;
    const KEYS_PER_WRITER: u64 = 1200;

    crossbeam::scope(|s| {
        for w in 0..WRITERS {
            let db = db.clone();
            s.spawn(move |_| {
                for round in 0u64..3 {
                    for k in 0..KEYS_PER_WRITER {
                        let key = format!("w{w}-key{k:05}");
                        db.put(key.as_bytes(), format!("{round:020}").as_bytes())
                            .unwrap();
                    }
                }
            });
        }
        for t in 0..2u64 {
            let db = db.clone();
            let stop = &stop;
            s.spawn(move |_| {
                let mut last_seen: Vec<u64> = vec![0; KEYS_PER_WRITER as usize];
                let mut k = t;
                while !stop.load(Ordering::Acquire) {
                    k = (k + 37) % KEYS_PER_WRITER;
                    let key = format!("w{t}-key{k:05}");
                    if let Some(v) = db.get(key.as_bytes()).unwrap() {
                        let round: u64 = std::str::from_utf8(&v)
                            .unwrap()
                            .trim_start_matches('0')
                            .parse()
                            .unwrap_or(0);
                        assert!(
                            round >= last_seen[k as usize],
                            "value regressed for {key}: {round} < {}",
                            last_seen[k as usize]
                        );
                        last_seen[k as usize] = round;
                    }
                }
            });
        }
        // Writers finish first; then release the readers.
        s.spawn(|_| {}).join().unwrap();
        stop.store(true, Ordering::Release);
    })
    .unwrap();

    db.wait_idle().unwrap();
    use std::sync::atomic::Ordering::Relaxed;
    assert!(
        db.stats().flushes.load(Relaxed) > 0,
        "background workers should have flushed"
    );
    assert!(
        db.stats().compactions.load(Relaxed) > 0,
        "background workers should have compacted"
    );
    // No lost writes: every key holds its final round.
    for w in 0..WRITERS {
        for k in (0..KEYS_PER_WRITER).step_by(61) {
            let key = format!("w{w}-key{k:05}");
            let v = db
                .get(key.as_bytes())
                .unwrap()
                .unwrap_or_else(|| panic!("{key} lost"));
            assert_eq!(&v[..], format!("{:020}", 2).as_bytes(), "{key}");
        }
    }
    db.verify_integrity().unwrap();
}

/// Snapshot readers see a frozen view while background maintenance
/// reshapes the tree underneath them.
#[test]
fn snapshots_stay_frozen_under_background_maintenance() {
    let db = Db::open(Arc::new(MemFs::new()), "db", opts(2)).unwrap();
    for k in 0u64..300 {
        db.put(format!("key{k:04}").as_bytes(), b"epoch-one")
            .unwrap();
    }
    let snap = db.snapshot();
    for round in 0..20u64 {
        for k in 0u64..300 {
            db.put(
                format!("key{k:04}").as_bytes(),
                format!("epoch-{round}").as_bytes(),
            )
            .unwrap();
        }
    }
    db.wait_idle().unwrap();
    for k in (0u64..300).step_by(7) {
        let v = db.get_at(&snap, format!("key{k:04}").as_bytes()).unwrap();
        assert_eq!(v.as_deref(), Some(&b"epoch-one"[..]));
    }
}

/// FADE's persistence bound holds with zero manual `maintain()` calls:
/// TTL-driven compactions are scheduled by the workers themselves.
/// `wait_idle` only blocks — it never runs maintenance inline in
/// background mode.
#[test]
fn fade_deadline_met_without_manual_maintain() {
    let d_th = 200_000u64;
    let db = Db::open(Arc::new(MemFs::new()), "db", opts(1).with_fade(d_th)).unwrap();
    for i in 0..600u32 {
        db.put(format!("key{i:04}").as_bytes(), &[b'v'; 32])
            .unwrap();
    }
    for i in 0..300u32 {
        db.delete(format!("key{i:04}").as_bytes()).unwrap();
    }
    // Age the tombstones well past every station budget, in steps small
    // enough that FADE's built-in trigger-latency margin (D_th/16)
    // absorbs the step size — mirroring how a wall-clock deployment
    // advances continuously.
    let step = d_th / 20;
    for _ in 0..70 {
        db.advance_clock(step);
        db.wait_idle().unwrap();
    }
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(
        db.stats().persistence_violations.load(Relaxed),
        0,
        "background FADE must never violate the threshold"
    );
    assert_eq!(
        db.live_tombstones(),
        0,
        "every expired tombstone must be purged"
    );
    assert!(
        db.stats().ttl_compactions.load(Relaxed) > 0,
        "purges must come from the TTL trigger, not luck"
    );
    db.verify_integrity().unwrap();
}

/// With the sealed-memtable queue at its hard limit and maintenance
/// paused, writes block; when maintenance resumes they complete, and
/// nothing is lost.
#[test]
fn writes_stall_at_hard_limit_and_resume() {
    let db = Db::open(
        Arc::new(MemFs::new()),
        "db",
        DbOptions {
            write_buffer_bytes: 4 << 10,
            max_imm_memtables: 1,
            ..opts(1)
        },
    )
    .unwrap();
    let pause = db.pause_maintenance();

    crossbeam::scope(|s| {
        let writer_db = db.clone();
        s.spawn(move |_| {
            // ~40 KiB through a 4 KiB buffer with flushes paused: the
            // sealed queue fills and the writer must stall.
            for k in 0u64..400 {
                writer_db
                    .put(format!("key{k:05}").as_bytes(), &[b'v'; 64])
                    .unwrap();
            }
        });

        use std::sync::atomic::Ordering::Relaxed;
        let deadline = Instant::now() + Duration::from_secs(10);
        while db.stats().write_stalls.load(Relaxed) == 0 {
            assert!(
                Instant::now() < deadline,
                "writer never hit the stall limit"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Resume maintenance; the stalled writer must now finish.
        drop(pause);
    })
    .unwrap();

    db.wait_idle().unwrap();
    use std::sync::atomic::Ordering::Relaxed;
    assert!(db.stats().write_stalls.load(Relaxed) >= 1);
    assert!(db.stats().stall_micros.count() >= 1);
    for k in (0u64..400).step_by(17) {
        assert!(
            db.get(format!("key{k:05}").as_bytes()).unwrap().is_some(),
            "key{k:05} lost across the stall"
        );
    }
    db.verify_integrity().unwrap();
}

/// Count live OS threads of this process whose name marks them as
/// Acheron maintenance workers ("acheron-maint-N").
fn maintenance_thread_count() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        // Not on Linux procfs: fall back to "unknown", which the caller
        // treats as zero (the join-handle drop path is still exercised).
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .map(|c| c.trim().starts_with("acheron-maint"))
                .unwrap_or(false)
        })
        .count()
}

/// Dropping the last `Db` handle joins every background worker and
/// leaves a clean directory: no leaked "acheron-maint" threads, no
/// stray temporary files, and an image `doctor` signs off on.
#[test]
fn drop_joins_workers_and_leaves_no_residue() {
    let fs = Arc::new(MemFs::new());
    {
        let db = Db::open(fs.clone(), "db", opts(3)).unwrap();
        // A spawned thread publishes its kernel comm name itself, a few
        // instructions into its life — poll rather than assert on the
        // instant `open` returns.
        if cfg!(target_os = "linux") {
            let deadline = Instant::now() + Duration::from_secs(10);
            while maintenance_thread_count() < 3 {
                assert!(
                    Instant::now() < deadline,
                    "workers should be running while the Db is open"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        // Enough churn that flushes and compactions are genuinely in
        // flight when the handle drops.
        for k in 0u64..4000 {
            db.put(format!("key{k:05}").as_bytes(), &[b'v'; 64])
                .unwrap();
            if k % 3 == 0 {
                db.delete(format!("key{:05}", k / 2).as_bytes()).unwrap();
            }
        }
        // Drop without wait_idle: shutdown itself must do the joining.
    }
    // Drop blocks until workers are joined, but the OS may need a beat
    // to reap the task entries; poll with a deadline.
    let deadline = Instant::now() + Duration::from_secs(10);
    while maintenance_thread_count() > 0 {
        assert!(
            Instant::now() < deadline,
            "leaked {} maintenance thread(s) after Db drop",
            maintenance_thread_count()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let names = fs.list("db").unwrap();
    assert!(
        !names.iter().any(|n| n.ends_with(".tmp")),
        "temporary files leaked across shutdown: {names:?}"
    );
    let report = acheron::check_db(fs.as_ref(), "db").unwrap();
    assert!(
        report.warnings.iter().all(|w| w.contains("obsolete WAL")),
        "shutdown image should be doctor-clean: {:?}",
        report.warnings
    );
    // And the image is reopenable with nothing lost.
    let db = Db::open(fs, "db", opts(0)).unwrap();
    assert!(db.get(b"key03999").unwrap().is_some());
    db.verify_integrity().unwrap();
}

/// Options for the schedule tests: FADE tight enough that TTL-driven
/// compactions fire mid-run, value separation with segments small
/// enough that vlog GC runs, and an event ring that retains the whole
/// run.
fn schedule_opts(background_threads: usize) -> DbOptions {
    DbOptions {
        value_separation_threshold: 96,
        vlog_segment_bytes: 8 << 10,
        event_log_capacity: 1 << 16,
        ..opts(background_threads)
    }
    .with_fade(4_000)
}

/// Replay the seeded schedule workload: 40% deletes over 1,500 keys,
/// one put in four large enough to separate, a sort-key range delete,
/// a mid-run `maintain()`, a `flush()` and a final `compact_all()`.
/// `settle_every` inserts a `wait_idle()` every that-many ops (the
/// background runs use it to bound how far the writer outruns the
/// workers; the synchronous digest run passes `None`). Returns the
/// final scan.
fn run_schedule(db: &Db, settle_every: Option<u64>) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut state = 0x5EED_AC4E_2017u64;
    let mut next = move || {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in 0..8_000u64 {
        let key = format!("key{:05}", next() % 1_500);
        if next() % 100 < 40 {
            db.delete(key.as_bytes()).unwrap();
        } else {
            let len = if next() % 4 == 0 { 200 } else { 24 };
            let value = vec![b'a' + (i % 26) as u8; len];
            db.put(key.as_bytes(), &value).unwrap();
        }
        match i {
            2_500 => db.range_delete_keys(b"key00200", b"key00260").unwrap(),
            3_000 => db.maintain().unwrap(),
            5_500 => db.flush().unwrap(),
            _ => {}
        }
        if settle_every.is_some_and(|n| i % n == n - 1) {
            db.wait_idle().unwrap();
        }
    }
    db.compact_all().unwrap();
    db.wait_idle().unwrap();
    db.scan(b"key00000", b"key99999")
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect()
}

/// Running CRC32C over the maintenance schedule a run left behind: the ordered
/// seal / flush / pick / compaction / vlog-GC events (every field but
/// the wall-clock `micros`), the manifest bytes, and the CRC32C of
/// every live table.
fn schedule_digest(db: &Db, fs: &MemFs) -> u32 {
    let mut h = 0u32;
    let mut eat = |bytes: &[u8]| h = checksum::extend(h, bytes);
    let log = db.events();
    assert_eq!(log.dropped, 0, "the ring must retain the whole run");
    for e in &log.events {
        let fields: Vec<u64> = match e.event {
            Event::MemtableSealed {
                entries,
                bytes,
                sealed_behind,
            } => vec![1, entries, bytes, sealed_behind],
            Event::FlushEnd {
                file_id,
                bytes,
                entries,
                micros: _,
            } => vec![2, file_id, bytes, entries],
            Event::CompactionPicked {
                level,
                output_level,
                input_files,
                input_bytes,
                reason,
                overdue_by,
                deadline,
            } => vec![
                3,
                level,
                output_level,
                input_files,
                input_bytes,
                reason.code(),
                overdue_by,
                deadline,
            ],
            Event::CompactionEnd {
                level,
                output_level,
                bytes_in,
                bytes_out,
                entries_dropped,
                tombstones_purged,
                micros: _,
            } => vec![
                4,
                level,
                output_level,
                bytes_in,
                bytes_out,
                entries_dropped,
                tombstones_purged,
            ],
            Event::VlogGc {
                segment,
                rewritten_bytes,
                reclaimed_bytes,
                micros: _,
            } => vec![5, segment, rewritten_bytes, reclaimed_bytes],
            _ => continue,
        };
        for f in fields {
            eat(&f.to_le_bytes());
        }
    }
    let mut names = fs.list("db").unwrap();
    names.sort();
    for name in names {
        let path = format!("db/{name}");
        if name.starts_with("MANIFEST") {
            eat(name.as_bytes());
            eat(&fs.read_all(&path).unwrap());
        } else if name.ends_with(".sst") {
            eat(name.as_bytes());
            eat(&checksum::crc32c(&fs.read_all(&path).unwrap()).to_le_bytes());
        }
    }
    h
}

/// The digest of [`run_schedule`] at `background_threads = 0`, recorded
/// when sort-key range tombstones moved from the tables into the
/// manifest. It moves only if the sequence of seals, flushes, picks,
/// file ids, manifest records or table bytes moves.
const SCHEDULE_DIGEST: u32 = 0xee46_8f64;

/// The schedule digest of every compaction policy the engine offers:
/// `(layout, file pick, FADE on, digest)`. The first row is
/// [`schedule_opts`] itself. The file pick only matters to leveling's
/// saturation compactions, so the tiered layouts run the default.
/// Tiering with FADE was recorded once its within-bottom TTL rewrites
/// took the overlapping runs along; before, two runs took turns at
/// rewrites that dropped nothing until the per-pass bound failed a
/// write.
const SCHEDULE_TABLE: [(CompactionLayout, FilePickPolicy, bool, u32); 12] = {
    use CompactionLayout::{LazyLeveling, Leveling, Tiering};
    use FilePickPolicy::{MinOverlap, OldestTombstone, RoundRobin, TombstoneDensity};
    [
        (Leveling, MinOverlap, true, SCHEDULE_DIGEST),
        (Leveling, MinOverlap, false, 0x3854_7d16),
        (Leveling, TombstoneDensity, true, 0xe0f0_ff01),
        (Leveling, TombstoneDensity, false, 0x6252_42f1),
        (Leveling, OldestTombstone, true, 0xee46_8f64),
        (Leveling, OldestTombstone, false, 0x560a_74a2),
        (Leveling, RoundRobin, true, 0xee46_8f64),
        (Leveling, RoundRobin, false, 0xbd06_889f),
        (Tiering, MinOverlap, true, 0x7b18_3b33),
        (Tiering, MinOverlap, false, 0x3084_3d1b),
        (LazyLeveling, MinOverlap, true, 0x73d9_2c83),
        (LazyLeveling, MinOverlap, false, 0x3084_3d1b),
    ]
};

/// [`schedule_opts`] under one row of [`SCHEDULE_TABLE`].
fn schedule_row_opts(layout: CompactionLayout, pick: FilePickPolicy, fade: bool) -> DbOptions {
    let mut o = DbOptions {
        layout,
        file_pick: pick,
        ..schedule_opts(0)
    };
    if !fade {
        o.fade = None;
    }
    o
}

/// `background_threads = 0` is the deterministic mode: the same op
/// sequence always produces the same schedule, the same files and the
/// same read results — run to run, and commit to commit, under every
/// layout and file pick, with FADE on and off.
#[test]
fn synchronous_mode_is_deterministic() {
    let run = |opts: DbOptions| {
        let row = format!(
            "{:?} {:?} fade={}",
            opts.layout,
            opts.file_pick,
            opts.fade.is_some()
        );
        let fs = Arc::new(MemFs::new());
        let db = Db::open(fs.clone(), "db", opts).unwrap();
        let rows = run_schedule(&db, None);
        use std::sync::atomic::Ordering::Relaxed;
        let s = db.stats();
        for (what, n) in [
            ("flushes", s.flushes.load(Relaxed)),
            ("vlog GC rewrites", s.vlog_gc_rewrites.load(Relaxed)),
            ("sort-key range deletes", s.sort_range_deletes.load(Relaxed)),
        ] {
            assert!(n > 0, "{row}: the schedule workload must exercise {what}");
        }
        let ttl_compactions = s.ttl_compactions.load(Relaxed);
        (rows, schedule_digest(&db, &fs), ttl_compactions)
    };
    let (layout, pick, fade, _) = SCHEDULE_TABLE[0];
    let a = run(schedule_row_opts(layout, pick, fade));
    let b = run(schedule_row_opts(layout, pick, fade));
    assert_eq!(a.0, b.0, "read results must be identical run to run");
    assert_eq!(a.1, b.1, "the schedule must be identical run to run");
    assert!(
        a.2 > 0,
        "the schedule workload must exercise TTL compactions"
    );
    let mut moved = Vec::new();
    for (i, &(layout, pick, fade, digest)) in SCHEDULE_TABLE.iter().enumerate() {
        let got = if i == 0 {
            a.1
        } else {
            run(schedule_row_opts(layout, pick, fade)).1
        };
        if got != digest {
            moved.push(format!("{layout:?} {pick:?} fade={fade}: {got:#010x}"));
        }
    }
    assert!(
        moved.is_empty(),
        "the synchronous schedule moved:\n{}",
        moved.join("\n")
    );
}

/// The inline driver and the worker pool run the same step, so the
/// schedule workload ends in the same rows, a sound tree and a passing
/// delete audit under either — and both time every flush and
/// compaction they run.
#[test]
fn both_drivers_agree_and_time_every_step() {
    let run = |background_threads: usize, settle_every: Option<u64>| {
        let db = Db::open(
            Arc::new(MemFs::new()),
            "db",
            schedule_opts(background_threads),
        )
        .unwrap();
        let rows = run_schedule(&db, settle_every);
        db.verify_integrity().unwrap();
        // The tombstone families of the delete audit: every cohort's
        // point and sort-key range tombstones purged within D_th, and
        // nothing live older than it. (Dead vlog extents are reclaimed
        // by `maintain()` and the workers only, so their family is
        // bounded by how often the host calls it — once, here.)
        let audit = db.delete_audit();
        let d_th = audit.d_th.expect("FADE is on");
        for c in &audit.cohorts {
            let until = if c.resolved >= c.total_deletes() {
                c.purged_tick.unwrap_or(c.first_delete_tick)
            } else {
                audit.now
            };
            assert!(
                until.saturating_sub(c.first_delete_tick) <= d_th,
                "background_threads = {background_threads}: tombstones outlived D_th: {}",
                c.render(audit.now, audit.d_th)
            );
        }
        assert!(
            audit
                .oldest_live_tombstone_tick
                .is_none_or(|t0| audit.now.saturating_sub(t0) <= d_th),
            "background_threads = {background_threads}: a live tombstone outlived D_th"
        );
        use std::sync::atomic::Ordering::Relaxed;
        let s = db.stats();
        assert_eq!(
            s.flush_micros.count(),
            s.flushes.load(Relaxed),
            "background_threads = {background_threads}: every flush is timed"
        );
        assert_eq!(
            s.compaction_micros.count(),
            s.compactions.load(Relaxed),
            "background_threads = {background_threads}: every compaction is timed"
        );
        rows
    };
    let inline = run(0, None);
    assert!(!inline.is_empty(), "the workload must leave live rows");
    // The writer settles every 100 ops: FADE's trigger margin is in
    // ticks (one per op), and an unthrottled writer could outrun it.
    assert_eq!(run(2, Some(100)), inline);
}

/// `background_threads = 0` with several threads: a writer's commits
/// drive maintenance inline under the exclusion they already hold, while
/// another thread keeps entering the same exclusion through `flush()`,
/// `maintain()` and `compact_all()`. Nobody deadlocks, and a reader
/// never sees a value regress or a key vanish.
#[test]
fn inline_driver_shares_the_exclusion_without_deadlock() {
    const KEYS: u64 = 400;
    const ROUNDS: u64 = 12;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        let db = Db::open(
            Arc::new(MemFs::new()),
            "db",
            opts(0).with_fade(4_000).with_value_separation(16),
        )
        .unwrap();
        let stop = AtomicBool::new(false);
        crossbeam::scope(|s| {
            let writer = {
                let db = db.clone();
                s.spawn(move |_| {
                    for round in 1..=ROUNDS {
                        for k in 0..KEYS {
                            let key = format!("key{k:05}");
                            // Tombstones (for keys nobody reads) keep
                            // FADE's TTL triggers, and the expired-buffer
                            // seal, firing.
                            if (k + round) % 5 == 0 {
                                db.delete(format!("gone{k:05}").as_bytes()).unwrap();
                            }
                            db.put(key.as_bytes(), format!("{round:024}").as_bytes())
                                .unwrap();
                        }
                    }
                })
            };
            {
                let (db, stop) = (db.clone(), &stop);
                s.spawn(move |_| {
                    while !stop.load(Ordering::Acquire) {
                        db.flush().unwrap();
                        db.maintain().unwrap();
                        db.compact_all().unwrap();
                    }
                });
            }
            {
                let (db, stop) = (db.clone(), &stop);
                s.spawn(move |_| {
                    let mut last_seen = vec![0u64; KEYS as usize];
                    let mut k = 0;
                    while !stop.load(Ordering::Acquire) {
                        k = (k + 37) % KEYS;
                        let got = db.get(format!("key{k:05}").as_bytes()).unwrap();
                        let round: u64 = match &got {
                            Some(v) => std::str::from_utf8(v).unwrap().parse().unwrap(),
                            None => 0,
                        };
                        assert!(
                            round >= last_seen[k as usize],
                            "key{k:05} went from round {} to {round}",
                            last_seen[k as usize]
                        );
                        last_seen[k as usize] = round;
                    }
                });
            }
            writer.join().unwrap();
            stop.store(true, Ordering::Release);
        })
        .unwrap();
        for k in 0..KEYS {
            let v = db.get(format!("key{k:05}").as_bytes()).unwrap().unwrap();
            let round: u64 = std::str::from_utf8(&v).unwrap().parse().unwrap();
            assert_eq!(round, ROUNDS, "key{k:05}");
        }
        db.verify_integrity().unwrap();
        done_tx.send(()).unwrap();
    });
    match done_rx.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => body.join().unwrap(),
        // The body panicked: surface its message, not a timeout.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(body.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("writer, maintenance caller and reader deadlocked")
        }
    }
}

/// What [`GatedFs`] runs before a value-log `open`: it gets the inner
/// filesystem and the path being opened.
type Gate = Box<dyn FnOnce(&MemFs, &str) + Send>;

/// A `MemFs` whose next `open` of a value-log segment first runs a hook:
/// the gate that lets a test act between a reader's view clone and its
/// pointer dereference.
#[derive(Default)]
struct GatedFs {
    inner: MemFs,
    before_vlog_open: std::sync::Mutex<Option<Gate>>,
}

impl GatedFs {
    fn arm(&self, gate: Gate) {
        *self.before_vlog_open.lock().unwrap() = Some(gate);
    }

    fn fired(&self) -> bool {
        self.before_vlog_open.lock().unwrap().is_none()
    }
}

impl Vfs for GatedFs {
    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        if path.ends_with(".vlg") {
            let gate = self.before_vlog_open.lock().unwrap().take();
            if let Some(gate) = gate {
                gate(&self.inner, path);
            }
        }
        self.inner.open(path)
    }
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        self.inner.create(path)
    }
    fn read_all(&self, path: &str) -> Result<Bytes> {
        self.inner.read_all(path)
    }
    fn write_all(&self, path: &str, data: &[u8]) -> Result<()> {
        self.inner.write_all(path, data)
    }
    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, dir: &str) -> Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.inner.mkdir_all(path)
    }
    fn sync_dir(&self, dir: &str) -> Result<()> {
        self.inner.sync_dir(dir)
    }
    fn file_size(&self, path: &str) -> Result<u64> {
        self.inner.file_size(path)
    }
    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }
}

/// A `get` without a snapshot holds a read point whose value pointers
/// nothing pins. Value-log GC rewrites the survivors and deletes the
/// segment exactly between the reader's view clone and its dereference
/// (the gate runs `maintain()` inside the reader's `open`): the reader
/// must come back with the value from a fresh read point, not with the
/// segment's `NotFound`. A dereference that fails at the *current* read
/// point is a real error and still surfaces.
#[test]
fn get_racing_vlog_gc_retries_from_a_fresh_read_point() {
    let fs = Arc::new(GatedFs::default());
    let mut o = opts(0).with_value_separation(64);
    o.vlog_segment_bytes = 2048;
    // Each phase starts on a freshly opened engine: its reader has no
    // segment handle cached, so the first dereference opens one.
    let open = || Db::open(fs.clone(), "db", o.clone()).unwrap();
    let key = |i: u32| format!("big{i:04}").into_bytes();
    let value = |i: u32| format!("value-{i:04}-").repeat(16).into_bytes();
    // Delete all but every `keep`-th key and compact the tombstones in,
    // so the segments' dead ratio fires on the next `maintain()` — which
    // the gate runs under the next reader to open a segment.
    let arm_gc_after_keeping = |db: &Db, keep: u32, was: u32| {
        for i in (0..150).filter(|i| i % was == 0 && i % keep != 0) {
            db.delete(&key(i)).unwrap();
        }
        db.compact_all().unwrap();
        assert_eq!(db.stats_snapshot().vlog_segments_deleted, 0);
        let gc = db.clone();
        fs.arm(Box::new(move |_, _| gc.maintain().unwrap()));
    };
    let gc_ran_under_the_reader =
        |db: &Db| fs.fired() && db.stats_snapshot().vlog_segments_deleted > 0;

    let db = open();
    for i in 0..150 {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    arm_gc_after_keeping(&db, 5, 1);
    assert_eq!(db.get(&key(0)).unwrap().unwrap(), value(0));
    assert!(gc_ran_under_the_reader(&db));
    drop(db);

    let db = open();
    arm_gc_after_keeping(&db, 10, 5);
    let (got, _trace) = db.get_traced(&key(140), None).unwrap();
    assert_eq!(got.unwrap(), value(140));
    assert!(gc_ran_under_the_reader(&db));
    drop(db);

    // The segment vanishes but the read point has not moved: surfaced.
    let db = open();
    fs.arm(Box::new(|inner, path| inner.delete(path).unwrap()));
    assert!(db.get(&key(0)).is_err());
    assert!(fs.fired());
}

/// A `range_iter` without a snapshot dereferences value pointers lazily,
/// row by row, and cannot re-yield rows from a fresh read point. So the
/// stream registers its own snapshot: value-log GC that rewrites the
/// survivors mid-stream (the gate runs `maintain()` under a later row's
/// dereference) retires the segments instead of deleting them, and every
/// remaining row still reads its value. The segments go once the stream
/// is dropped.
#[test]
fn range_iter_pins_its_read_point_against_vlog_gc() {
    let fs = Arc::new(GatedFs::default());
    let mut o = opts(0).with_value_separation(64);
    o.vlog_segment_bytes = 2048;
    let db = Db::open(fs.clone(), "db", o).unwrap();
    let key = |i: u32| format!("big{i:04}").into_bytes();
    let value = |i: u32| format!("value-{i:04}-").repeat(16).into_bytes();
    for i in 0..150 {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    for i in (0..150).filter(|i| i % 5 != 0) {
        db.delete(&key(i)).unwrap();
    }
    db.compact_all().unwrap();

    let mut it = db.range_iter(&key(0), &key(149)).unwrap();
    assert_eq!(it.next_entry().unwrap().unwrap().1, value(0));
    let gc = db.clone();
    fs.arm(Box::new(move |_, _| gc.maintain().unwrap()));
    let mut rows = 1;
    while let Some((k, v)) = it.next_entry().unwrap() {
        assert_eq!((k.to_vec(), v.to_vec()), (key(rows * 5), value(rows * 5)));
        rows += 1;
    }
    assert_eq!(rows, 30);
    assert!(fs.fired() && db.stats_snapshot().vlog_gc_rewrites > 0);
    assert_eq!(
        db.stats_snapshot().vlog_segments_deleted,
        0,
        "no segment goes while the stream may still point into it"
    );
    drop(it);
    db.maintain().unwrap();
    assert!(db.stats_snapshot().vlog_segments_deleted > 0);
}
