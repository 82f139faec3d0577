//! Offline integrity checking: verify a database directory **without
//! opening (and thereby mutating) it** — recovery rewrites the manifest,
//! a doctor must not.
//!
//! What a directory contains is read by `crate::survey` — the same
//! function `Db::open` repairs from, with the same result — so the
//! counts reported here (`wal_records`, `vlog_live_bytes`, the files
//! that "will be collected") are what the next open will do. On top of
//! the survey the doctor adds judgment:
//!
//! * `CURRENT` resolves to a readable, decodable manifest, and every
//!   live table file exists (the survey's own errors);
//! * every live table's blocks pass their checksums, its entries are
//!   strictly ordered, and its stats block matches the actual contents
//!   (invariant I6);
//! * KiWi tile invariants: pages within a tile are dkey-disjoint bands,
//!   the `multi_version` flag is truthful, and tile fences bracket their
//!   contents (invariant I1);
//! * runs have disjoint key ranges (`Version::check_invariants` on the
//!   recovered layout);
//! * WAL segments replay to a clean EOF or a torn tail; a tear with live
//!   segments after it is reported as corruption mid-history, and those
//!   segments as unreplayable;
//! * value-log segments: every segment a live table references exists
//!   and is frame-intact through the highest referenced offset (the
//!   dangling-pointer scan); with `--d-th`, dead extents — whose on-disk
//!   age is unknowable offline — are flagged as overdue, which is how
//!   the open stamps them;
//! * the `D_th` verdict is the engine's own: a [`DeleteAudit`] built
//!   from the surveyed tree's gauges, judged by [`DeleteAudit::ok`].

use std::sync::Arc;

use acheron_memtable::Memtable;
use acheron_sstable::{KeyHash, Table};
use acheron_types::key::compare_internal;
use acheron_types::{Error, Result, Tick};
use acheron_vfs::Vfs;

use crate::filenames::wal_path;
use crate::obs::trace::DeleteAudit;
use crate::obs::{GcKind, LevelGauge, TombstoneGauges};
use crate::survey::{survey, WalEnd};
use crate::version::Version;

/// Outcome of an offline check.
#[derive(Debug, Default)]
pub struct DoctorReport {
    /// Live table files verified.
    pub tables_checked: usize,
    /// Total entries across live tables.
    pub entries: u64,
    /// Live point tombstones: those in live tables and those the WAL
    /// replays, counted as the engine's gauges count them.
    pub tombstones: u64,
    /// Live sort-key range tombstones: the manifest's and those the WAL
    /// replays.
    pub key_range_tombstones: u64,
    /// Live secondary range tombstones.
    pub range_tombstones: usize,
    /// WAL segments the next open replays (up to and including the
    /// first torn one).
    pub wals_checked: usize,
    /// WAL records the next open replays.
    pub wal_records: u64,
    /// Value-log segments scanned.
    pub vlog_segments_checked: usize,
    /// Vlog bytes referenced by live tables or replayed WAL records:
    /// the live bytes of `survey`'s per-segment accounting, which is
    /// the accounting the next open installs (`db_vlog_live_bytes`).
    pub vlog_live_bytes: u64,
    /// Vlog bytes no live pointer references — the counterpart of
    /// `db_vlog_dead_bytes`: the intact rest of every referenced
    /// segment, plus the whole of every segment nothing references
    /// (which the next open deletes).
    pub vlog_dead_bytes: u64,
    /// Per-level occupancy and tombstone populations, counted as the
    /// engine's gauges count them (empty levels omitted).
    pub levels: Vec<LevelGauge>,
    /// The `D_th` judgment of the surveyed image, by the engine's own
    /// rule ([`DeleteAudit::ok`]): its live tombstones are the tree's
    /// and those the WAL replays. It has no cohorts (the ledger lives
    /// in memory), and its `now` is the tick the next open starts the
    /// engine's clock at (`Survey::clock_start`), since the doctor
    /// cannot consult the clock without opening (and mutating) the
    /// database. Dead vlog extents carry no birth tick on disk, so they
    /// cannot age it: `vlog_dead_bytes` lists them as pending.
    pub audit: DeleteAudit,
    /// Files the next open deletes, as `(why, file number)`: segments
    /// past a WAL tear (deleted unreplayed without synced-WAL
    /// durability), then the debris in listing order — routine ones (the
    /// live manifest, a live WAL segment without a record) included,
    /// which `warnings` leaves out.
    pub collect: Vec<(GcKind, u64)>,
    /// Non-fatal observations (torn WAL tails, orphan files).
    pub warnings: Vec<String>,
}

/// Check the database under `dir` read-only.
pub fn check_db(fs: &dyn Vfs, dir: &str) -> Result<DoctorReport> {
    check_dir(fs, dir, None)
}

/// [`check_db`], with the audit judged against the delete persistence
/// threshold `d_th` and dead vlog extents flagged as overdue under it.
pub(crate) fn check_dir(fs: &dyn Vfs, dir: &str, d_th: Option<Tick>) -> Result<DoctorReport> {
    // The WAL records replay into a memtable, as the next open's do.
    let mem = Memtable::new();
    let surveyed = survey(fs, dir, None, &mem)?
        .ok_or_else(|| Error::corruption("no CURRENT file: not a database directory"))?;
    let mut report = DoctorReport {
        range_tombstones: surveyed.range_tombstones.len(),
        ..DoctorReport::default()
    };

    // Verify every live table.
    for f in &surveyed.tables {
        verify_table(&f.table, f.id)?;
        report.tables_checked += 1;
        report.entries += f.stats.entry_count;
    }

    // Runs have disjoint key ranges: the recovered layout's own
    // invariant, checked the way the engine checks it once open.
    let version = Version::empty(0)
        .apply(surveyed.tables.clone(), &[], &[], &[])
        .apply_key_ranges(&surveyed.key_range_tombstones, &[]);
    version
        .check_invariants()
        .map_err(|e| Error::corruption(format!("recovered layout: {e}")))?;

    let mut gauges = TombstoneGauges::from_version(&version);
    gauges.add_buffer(&mem.stats());
    report.tombstones = gauges.live_tombstones();
    report.key_range_tombstones = gauges.live_key_range_tombstones();
    report.audit = DeleteAudit {
        now: surveyed.clock_start(),
        d_th,
        cohorts: Vec::new(),
        oldest_live_tombstone_tick: gauges.oldest_live_tick(),
        oldest_vlog_dead_tick: None,
    };
    report.levels = gauges.levels;

    // WAL segments. A tear is only ordinary crash debris in the
    // *final* (highest-numbered) live segment — a crash can tear the
    // tail of the segment being written, but every older segment was
    // finished before the next one started. A tear mid-history ends
    // replay for every later segment and is reported distinctly:
    // recovery with synced-WAL durability refuses such an image, and
    // without it deletes the later segments unreplayed.
    let final_wal = surveyed.wals.last().map(|w| w.number);
    for w in &surveyed.wals {
        let name = wal_path("", w.number);
        if matches!(w.end, WalEnd::Unreplayed) {
            report.collect.push((GcKind::DeadWal, w.number));
        }
        report.warnings.extend(match &w.end {
            WalEnd::Clean => None,
            WalEnd::Unreplayed => Some(format!(
                "WAL {name}: follows a torn segment, so none of its records replay; \
                 without synced-WAL durability it will be collected unreplayed by the \
                 next open"
            )),
            WalEnd::Torn { offset, reason } if Some(w.number) == final_wal => Some(format!(
                "WAL {name}: torn tail at offset {offset} ({reason}); \
                 acknowledged-but-unsynced writes after it are lost"
            )),
            WalEnd::Torn { offset, reason } => Some(format!(
                "WAL {name}: corrupt mid-history at offset {offset} ({reason}) \
                 with later live segments present; under synced-WAL durability \
                 this is media corruption and recovery will refuse the image"
            )),
            WalEnd::PointerTorn => Some(format!(
                "WAL {name}: record {} holds a value pointer whose vlog frame does not \
                 read back (torn or missing segment — a commit that never finished); \
                 recovery will truncate the WAL before it",
                w.records
            )),
        });
        report.wals_checked += usize::from(!matches!(w.end, WalEnd::Unreplayed));
        report.wal_records += w.records;
    }

    // Value-log segments. Table-held pointers into a missing or
    // frame-torn region are hard corruption (reads through them fail);
    // WAL-held pointers into one ended replay at their record, above.
    // Dead bytes are whatever no live pointer covers; their birth ticks
    // are not on disk, so with a threshold they are conservatively
    // reported as overdue — as the next open will stamp them.
    for (&seg, acct) in &surveyed.vlog {
        let Some(file) = &acct.file else {
            return Err(Error::corruption(format!(
                "live tables hold pointers into missing vlog segment {seg:06} — \
                 dangling values"
            )));
        };
        report.vlog_segments_checked += 1;
        if acct.table_end > file.intact_len {
            return Err(Error::corruption(format!(
                "vlog segment {seg:06}: live pointers reach offset {} but the \
                 intact frame prefix ends at {} — dangling values",
                acct.table_end, file.intact_len
            )));
        }
        if file.intact_len < file.len {
            report.warnings.push(format!(
                "vlog segment {seg:06}: torn tail past the last intact frame \
                 (crash debris; the next open trims it)"
            ));
        }
        report.vlog_live_bytes += acct.live_bytes;
        let dead = file.intact_len.saturating_sub(acct.live_bytes);
        report.vlog_dead_bytes += dead;
        if let (Some(d), true) = (d_th, dead > 0) {
            report.warnings.push(format!(
                "vlog segment {seg:06}: {dead} dead bytes of unknown age — \
                 conservatively overdue under the delete persistence threshold {d}; \
                 the engine's next GC pass must rewrite this segment"
            ));
        }
    }

    // Files nothing references. (The live manifest is on the list too —
    // every open replaces it — but that is routine, not a finding.)
    for debris in &surveyed.collect {
        report.collect.push((debris.kind, debris.id));
        let (what, why) = match debris.kind {
            GcKind::OrphanTable => ("orphan table file", "not in manifest"),
            // So is a live segment without a record: a close leaves the
            // active one empty, and the next open collects it.
            GcKind::DeadWal if surveyed.wals.iter().any(|w| w.number == debris.id) => continue,
            GcKind::DeadWal => ("obsolete WAL segment", "below the manifest's log number"),
            GcKind::StaleManifest if debris.name == surveyed.manifest => continue,
            GcKind::StaleManifest => ("superseded manifest", "CURRENT points elsewhere"),
            GcKind::TempFile => ("stale temp file", "debris of an interrupted rename"),
            GcKind::VlogSegment => {
                // Dead in full until the open deletes it, as the
                // engine's own gauge counted it before shutdown.
                report.vlog_dead_bytes += fs.file_size(&acheron_vfs::join(dir, &debris.name))?;
                (
                    "orphan vlog segment",
                    "no live table or WAL pointer references it",
                )
            }
        };
        report.warnings.push(format!(
            "{what} {} ({why}) will be collected by the next open",
            debris.name
        ));
    }

    Ok(report)
}

/// Deep-verify one table: its metadata blocks as the file holds them
/// now, ordering, stats consistency, the table filter, tile invariants.
pub(crate) fn verify_table(table: &Arc<Table>, id: u64) -> Result<()> {
    table.verify_meta()?;
    // Full iteration, always from the file: checksums verified on every
    // page read; ordering, stats and the table filter checked as we go.
    let mut it = table.iter_bypass(vec![]);
    it.seek_to_first()?;
    let mut entries = 0u64;
    let mut tombstones = 0u64;
    let mut last: Option<Vec<u8>> = None;
    while it.valid() {
        if let Some(prev) = &last {
            if compare_internal(prev, it.key()) != std::cmp::Ordering::Less {
                return Err(Error::corruption(format!(
                    "table {id}: entries out of order"
                )));
            }
        }
        last = Some(it.key().to_vec());
        let e = it.entry()?;
        if !table.may_contain(KeyHash::of(&e.key)) {
            return Err(Error::corruption(format!(
                "table {id}: the table filter rejects a key the table holds"
            )));
        }
        entries += 1;
        if e.is_tombstone() {
            tombstones += 1;
        }
        it.next()?;
    }
    let stats = table.stats();
    if entries != stats.entry_count || tombstones != stats.tombstone_count {
        return Err(Error::corruption(format!(
            "table {id}: stats mismatch (entries {entries} vs {}, tombstones {tombstones} vs {})",
            stats.entry_count, stats.tombstone_count
        )));
    }

    // Tile invariants.
    let mut meta_entries = 0u64;
    for (t, tile) in table.tile_index().iter().enumerate() {
        for p in tile.pages {
            meta_entries += p.entry_count;
            if p.dkey_min > p.dkey_max {
                return Err(Error::corruption(format!(
                    "table {id} tile {t}: inverted page dkey band"
                )));
            }
        }
    }
    if meta_entries != stats.entry_count {
        return Err(Error::corruption(format!(
            "table {id}: tile metadata counts {meta_entries} entries, stats say {}",
            stats.entry_count
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Db;
    use crate::options::DbOptions;
    use acheron_vfs::MemFs;

    fn populated_fs() -> Arc<MemFs> {
        let fs = Arc::new(MemFs::new());
        let db = Db::open(fs.clone(), "db", DbOptions::small()).unwrap();
        for i in 0..2000u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'v'; 48])
                .unwrap();
            if i % 5 == 0 {
                db.delete(format!("key{:05}", i / 2).as_bytes()).unwrap();
            }
        }
        db.range_delete_secondary(100, 200).unwrap();
        db.range_delete_keys(b"key00300", b"key00400").unwrap();
        db.flush().unwrap();
        fs
    }

    /// The doctor judges the deletes the next open replays from the WAL,
    /// at the tick that open starts the engine's clock at.
    #[test]
    fn deletes_in_the_wal_are_judged_at_the_open_clock() {
        let fs = Arc::new(MemFs::new());
        let open = || Db::open(fs.clone(), "db", DbOptions::small()).unwrap();
        let db = open();
        db.put(b"a", b"1").unwrap();
        db.flush().unwrap();
        db.advance_clock(40);
        let tick = db.now();
        db.delete(b"a").unwrap();
        db.advance_clock(10);
        drop(db);

        let report = check_dir(fs.as_ref(), "db", Some(5)).unwrap();
        assert_eq!(report.tombstones, 1, "the WAL's delete is live");
        let offline = report.audit;
        assert_eq!(offline.oldest_live_tombstone_tick, Some(tick));
        let online = open().delete_audit();
        assert_eq!((offline.now, online.now), (tick, tick));
        assert_eq!(online.oldest_live_tombstone_tick, Some(tick));
        assert!(offline.ok());
    }

    #[test]
    fn healthy_db_passes() {
        let fs = populated_fs();
        let report = check_db(fs.as_ref(), "db").unwrap();
        assert!(report.tables_checked > 0);
        assert!(report.entries > 0);
        assert!(report.tombstones > 0);
        assert_eq!(report.range_tombstones, 1);
        assert_eq!(report.key_range_tombstones, 1);
        assert!(report.wals_checked >= 1);
        // No unexpected warnings on a healthy, freshly flushed database.
        for w in &report.warnings {
            assert!(
                w.contains("obsolete WAL"),
                "unexpected warning on healthy db: {w}"
            );
        }
    }

    #[test]
    fn reports_per_level_tombstone_populations() {
        let fs = populated_fs();
        let report = check_db(fs.as_ref(), "db").unwrap();
        let total: u64 = report.levels.iter().map(|l| l.tombstones).sum();
        assert!(
            total > 0,
            "deletes were flushed, so some level holds tombstones"
        );
        assert_eq!(total, report.tombstones);
        // A level is listed for its files or as a sort-key range
        // tombstone's station.
        for l in &report.levels {
            assert!(l.files > 0 || l.key_range_tombstones > 0);
        }
        for l in report.levels.iter().filter(|l| l.tombstones > 0) {
            assert!(l.oldest_tombstone_tick.is_some(), "oldest tick recorded");
        }
        // The audit ages the oldest of them at the newest created tick.
        let oldest = (report.levels.iter())
            .flat_map(|l| [l.oldest_tombstone_tick, l.oldest_key_range_tick])
            .flatten()
            .min();
        assert_eq!(report.audit.oldest_live_tombstone_tick, oldest);
        assert!(report.audit.now >= oldest.unwrap());
        assert!(report.audit.cohorts.is_empty() && report.audit.oldest_vlog_dead_tick.is_none());
    }

    #[test]
    fn judges_unresolved_key_range_tombstone_age() {
        // A sort-key range delete is the only delete: the verdict turns
        // on its age alone.
        let fs = Arc::new(MemFs::new());
        let db = Db::open(fs.clone(), "db", DbOptions::small()).unwrap();
        for i in 0..500u32 {
            db.put(format!("key{i:05}").as_bytes(), b"v").unwrap();
        }
        db.range_delete_keys(b"key00100", b"key00200").unwrap();
        db.flush().unwrap();
        db.advance_clock(1_000);
        db.put(b"later", b"v").unwrap();
        db.flush().unwrap();
        drop(db);
        let report = check_db(fs.as_ref(), "db").unwrap();
        let station = (report.levels.iter())
            .find(|l| l.key_range_tombstones > 0)
            .expect("the flushed range delete must surface at some level");
        let t0 = station.oldest_key_range_tick.expect("oldest tick recorded");
        assert_eq!(report.audit.oldest_live_tombstone_tick, Some(t0));
        let age = report.audit.now - t0;
        assert!(age >= 1_000, "{age}");
        assert!(check_dir(fs.as_ref(), "db", Some(age)).unwrap().audit.ok());
        assert!(!check_dir(fs.as_ref(), "db", Some(age - 1))
            .unwrap()
            .audit
            .ok());
    }

    #[test]
    fn threshold_judges_overdue_tombstones() {
        let fs = populated_fs();
        // Without a threshold the audit is a report, never a verdict.
        assert!(check_db(fs.as_ref(), "db").unwrap().audit.ok());
        // Threshold 0: any aged live tombstone is overdue.
        let report = check_dir(fs.as_ref(), "db", Some(0)).unwrap();
        assert!(!report.audit.ok(), "{}", report.audit.render());
        // A huge threshold: nothing is overdue.
        let report = check_dir(fs.as_ref(), "db", Some(u64::MAX)).unwrap();
        assert!(report.audit.ok(), "{}", report.audit.render());
    }

    #[test]
    fn check_is_read_only() {
        let fs = populated_fs();
        let before: Vec<(String, u64)> = {
            let mut v: Vec<(String, u64)> = fs
                .list("db")
                .unwrap()
                .into_iter()
                .map(|n| {
                    let size = fs.file_size(&acheron_vfs::join("db", &n)).unwrap();
                    (n, size)
                })
                .collect();
            v.sort();
            v
        };
        check_db(fs.as_ref(), "db").unwrap();
        let after: Vec<(String, u64)> = {
            let mut v: Vec<(String, u64)> = fs
                .list("db")
                .unwrap()
                .into_iter()
                .map(|n| {
                    let size = fs.file_size(&acheron_vfs::join("db", &n)).unwrap();
                    (n, size)
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(before, after, "doctor must not modify the directory");
    }

    #[test]
    fn detects_table_corruption() {
        let fs = populated_fs();
        // Corrupt a byte inside the first table file.
        let name = fs
            .list("db")
            .unwrap()
            .into_iter()
            .find(|n| n.ends_with(".sst"))
            .expect("a table exists");
        let path = acheron_vfs::join("db", &name);
        let mut data = fs.read_all(&path).unwrap().to_vec();
        let mid = data.len() / 3;
        data[mid] ^= 0xff;
        fs.write_all(&path, &data).unwrap();
        let err = check_db(fs.as_ref(), "db").expect_err("corruption must be detected");
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn detects_missing_table() {
        let fs = populated_fs();
        let name = fs
            .list("db")
            .unwrap()
            .into_iter()
            .find(|n| n.ends_with(".sst"))
            .unwrap();
        fs.delete(&acheron_vfs::join("db", &name)).unwrap();
        let err = check_db(fs.as_ref(), "db").expect_err("missing table must be detected");
        assert!(err.to_string().contains("missing table"), "{err}");
        // The open reads the same survey, so it says the same.
        let err = Db::open(fs, "db", DbOptions::small()).err().unwrap();
        assert!(err.is_corruption() && err.to_string().contains("missing table"));
    }

    #[test]
    fn reports_torn_wal_as_warning() {
        let fs = populated_fs();
        let db = Db::open(fs.clone(), "db", DbOptions::small()).unwrap();
        db.put(b"unflushed", b"v").unwrap();
        drop(db);
        // Truncate the newest WAL mid-record.
        let wal = fs
            .list("db")
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".log"))
            .max()
            .unwrap();
        let path = acheron_vfs::join("db", &wal);
        let data = fs.read_all(&path).unwrap();
        if data.len() > 3 {
            fs.write_all(&path, &data[..data.len() - 3]).unwrap();
        }
        let report = check_db(fs.as_ref(), "db").unwrap();
        assert!(
            report.warnings.iter().any(|w| w.contains("torn tail")),
            "torn WAL should warn, not fail: {:?}",
            report.warnings
        );
    }

    #[test]
    fn distinguishes_mid_history_corruption_from_tail_tear() {
        let fs = populated_fs();
        let db = Db::open(fs.clone(), "db", DbOptions::small()).unwrap();
        db.put(b"unflushed", b"v").unwrap();
        drop(db);
        // Tear the newest WAL, then plant a later-numbered segment: the
        // tear is no longer a tail, it is corruption mid-history.
        let wal = fs
            .list("db")
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".log"))
            .max()
            .unwrap();
        let path = acheron_vfs::join("db", &wal);
        let data = fs.read_all(&path).unwrap();
        fs.write_all(&path, &data[..data.len() - 3]).unwrap();
        fs.write_all("db/999997.log", b"records written after the corrupt region")
            .unwrap();
        let report = check_db(fs.as_ref(), "db").unwrap();
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains(&wal) && w.contains("corrupt mid-history")),
            "{:?}",
            report.warnings
        );
        assert!(
            !report
                .warnings
                .iter()
                .any(|w| w.contains(&wal) && w.contains("torn tail")),
            "the same tear must not also read as an ordinary tail: {:?}",
            report.warnings
        );
    }

    #[test]
    fn flags_stale_temp_files() {
        let fs = populated_fs();
        fs.write_all("db/000042.log.tmp", b"interrupted heal")
            .unwrap();
        let report = check_db(fs.as_ref(), "db").unwrap();
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("stale temp file 000042.log.tmp")),
            "{:?}",
            report.warnings
        );
    }

    #[test]
    fn flags_orphan_tables() {
        let fs = populated_fs();
        fs.write_all("db/999999.sst", b"junk").unwrap();
        let report = check_db(fs.as_ref(), "db").unwrap();
        assert!(report.warnings.iter().any(|w| w.contains("orphan")));
    }

    // --------------------------------------------------------------
    // Value-log checks
    // --------------------------------------------------------------

    fn vlog_populated_fs(delete_some: bool) -> Arc<MemFs> {
        let fs = Arc::new(MemFs::new());
        let mut opts = DbOptions::small().with_value_separation(64);
        opts.vlog_segment_bytes = 2048;
        let db = Db::open(fs.clone(), "db", opts).unwrap();
        for i in 0..80u32 {
            db.put(format!("big{i:04}").as_bytes(), &[b'V'; 300])
                .unwrap();
        }
        db.flush().unwrap();
        if delete_some {
            for i in 0..30u32 {
                db.delete(format!("big{i:04}").as_bytes()).unwrap();
            }
            // Drop the pointers but keep GC from rewriting the segments,
            // so the image retains dead bytes for the doctor to find.
            let _pause = db.pause_maintenance();
            db.compact_all().unwrap();
        }
        fs
    }

    fn some_vlog_segment(fs: &MemFs) -> String {
        fs.list("db")
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".vlg"))
            .min()
            .expect("a vlog segment exists")
    }

    #[test]
    fn healthy_vlog_db_is_warning_free() {
        let fs = vlog_populated_fs(false);
        let report = check_dir(fs.as_ref(), "db", Some(1)).unwrap();
        assert!(report.vlog_segments_checked > 0);
        assert!(report.vlog_live_bytes > 0);
        assert_eq!(report.vlog_dead_bytes, 0);
        for w in &report.warnings {
            assert!(
                w.contains("obsolete WAL"),
                "unexpected warning on healthy vlog db: {w}"
            );
        }
    }

    #[test]
    fn wal_held_pointers_keep_segments_live() {
        let fs = Arc::new(MemFs::new());
        {
            let mut opts = DbOptions::small().with_value_separation(64);
            opts.vlog_segment_bytes = 2048;
            let db = Db::open(fs.clone(), "db", opts).unwrap();
            // Never flushed: the only references live in the WAL.
            for i in 0..10u32 {
                db.put(format!("big{i:04}").as_bytes(), &[b'V'; 300])
                    .unwrap();
            }
        }
        let report = check_db(fs.as_ref(), "db").unwrap();
        assert!(report.vlog_live_bytes > 0);
        assert!(
            !report.warnings.iter().any(|w| w.contains("orphan vlog")),
            "WAL-referenced segments are not orphans: {:?}",
            report.warnings
        );
    }

    #[test]
    fn vlog_accounting_matches_engine_gauges() {
        let fs = Arc::new(MemFs::new());
        let (live, dead) = {
            let mut opts = DbOptions::small().with_value_separation(64);
            opts.vlog_segment_bytes = 2048;
            let db = Db::open(fs.clone(), "db", opts).unwrap();
            for i in 0..80u32 {
                db.put(format!("big{i:04}").as_bytes(), &[b'V'; 300])
                    .unwrap();
            }
            db.flush().unwrap();
            for i in 0..30u32 {
                db.delete(format!("big{i:04}").as_bytes()).unwrap();
            }
            let _pause = db.pause_maintenance();
            db.compact_all().unwrap();
            let g = db.tombstone_gauges();
            (g.vlog_live_bytes, g.vlog_dead_bytes)
        };
        let report = check_db(fs.as_ref(), "db").unwrap();
        assert!(dead > 0, "the deletes must have produced dead extents");
        assert_eq!(report.vlog_live_bytes, live, "live-byte accounting drifted");
        assert_eq!(report.vlog_dead_bytes, dead, "dead-byte accounting drifted");
    }

    #[test]
    fn detects_dangling_vlog_pointers() {
        let fs = vlog_populated_fs(false);
        let seg = some_vlog_segment(fs.as_ref());
        fs.delete(&acheron_vfs::join("db", &seg)).unwrap();
        let err = check_db(fs.as_ref(), "db").expect_err("dangling pointers must fail");
        assert!(err.is_corruption(), "{err}");
        assert!(
            err.to_string().contains("missing vlog segment"),
            "error should name the class: {err}"
        );
    }

    #[test]
    fn detects_truncated_vlog_segment() {
        let fs = vlog_populated_fs(false);
        let seg = some_vlog_segment(fs.as_ref());
        let path = acheron_vfs::join("db", &seg);
        let data = fs.read_all(&path).unwrap();
        fs.write_all(&path, &data[..data.len() / 2]).unwrap();
        let err = check_db(fs.as_ref(), "db").expect_err("pointers past the tear must fail");
        assert!(err.is_corruption(), "{err}");
        assert!(
            err.to_string().contains("intact frame prefix"),
            "error should name the class: {err}"
        );
    }

    #[test]
    fn flags_orphan_vlog_segments() {
        let fs = vlog_populated_fs(false);
        fs.write_all("db/vlog-000077.vlg", b"junk no pointer references")
            .unwrap();
        let report = check_db(fs.as_ref(), "db").unwrap();
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("orphan vlog segment vlog-000077.vlg")),
            "{:?}",
            report.warnings
        );
    }

    #[test]
    fn threshold_flags_dead_vlog_extents_as_overdue() {
        let fs = vlog_populated_fs(true);
        // Without a threshold: dead bytes reported, no overdue warning.
        let report = check_db(fs.as_ref(), "db").unwrap();
        assert!(report.vlog_dead_bytes > 0);
        assert!(
            !report.warnings.iter().any(|w| w.contains("dead bytes")),
            "{:?}",
            report.warnings
        );
        // With one: the same extents are conservatively overdue.
        let report = check_dir(fs.as_ref(), "db", Some(1_000)).unwrap();
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("dead bytes") && w.contains("overdue")),
            "{:?}",
            report.warnings
        );
    }

    #[test]
    fn non_database_directory_is_an_error() {
        let fs = MemFs::new();
        fs.mkdir_all("empty").unwrap();
        assert!(check_db(&fs, "empty").is_err());
    }

    #[test]
    fn current_pointing_at_missing_manifest_is_an_error() {
        let fs = populated_fs();
        fs.write_all("db/CURRENT", b"MANIFEST-999999\n").unwrap();
        let err = check_db(fs.as_ref(), "db").expect_err("dangling CURRENT must fail");
        assert!(
            err.to_string().contains("MANIFEST-999999"),
            "error should name the missing manifest: {err}"
        );
    }

    #[test]
    fn corrupt_manifest_head_is_an_error() {
        let fs = populated_fs();
        let name = fs
            .list("db")
            .unwrap()
            .into_iter()
            .find(|n| n.starts_with("MANIFEST-"))
            .expect("a manifest exists");
        let path = acheron_vfs::join("db", &name);
        let mut data = fs.read_all(&path).unwrap().to_vec();
        for b in data.iter_mut().take(8) {
            *b ^= 0xff;
        }
        fs.write_all(&path, &data).unwrap();
        let err = check_db(fs.as_ref(), "db").expect_err("corrupt manifest head must fail");
        assert!(err.is_corruption(), "{err}");
        assert!(
            err.to_string().contains("manifest"),
            "error should blame the manifest, not a table or WAL: {err}"
        );
    }

    #[test]
    fn flags_obsolete_wal_segments() {
        let fs = populated_fs();
        // The flush in populated_fs advanced the manifest's log number
        // past segment 1, so a stale segment must be flagged as
        // obsolete — not replayed, not an error.
        fs.write_all("db/000001.log", b"stale bytes from before the flush")
            .unwrap();
        let report = check_db(fs.as_ref(), "db").unwrap();
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("obsolete WAL segment 000001.log")),
            "{:?}",
            report.warnings
        );
    }

    /// Every corruption class has a distinct, greppable signature — a
    /// doctor that says only "corrupt" is useless for triage.
    #[test]
    fn corruption_classes_are_reported_distinctly() {
        // (mutation, unique signature) pairs; each run starts from a
        // fresh healthy image so classes cannot mask each other.
        fn table_name(fs: &MemFs) -> String {
            fs.list("db")
                .unwrap()
                .into_iter()
                .find(|n| n.ends_with(".sst"))
                .unwrap()
        }
        type CorruptionClass = (&'static str, Box<dyn Fn(&MemFs)>, &'static str);
        let classes: Vec<CorruptionClass> = vec![
            (
                "missing table",
                Box::new(|fs: &MemFs| {
                    let n = table_name(fs);
                    fs.delete(&acheron_vfs::join("db", &n)).unwrap();
                }),
                "missing table",
            ),
            (
                "orphan table",
                Box::new(|fs: &MemFs| fs.write_all("db/999998.sst", b"junk").unwrap()),
                "orphan table file",
            ),
            (
                "dangling CURRENT",
                Box::new(|fs: &MemFs| fs.write_all("db/CURRENT", b"MANIFEST-424242\n").unwrap()),
                "MANIFEST-424242",
            ),
            (
                "stale temp file",
                Box::new(|fs: &MemFs| fs.write_all("db/CURRENT.tmp", b"MANIFEST-9\n").unwrap()),
                "stale temp file",
            ),
        ];
        for (what, mutate, signature) in classes {
            let fs = populated_fs();
            mutate(fs.as_ref());
            let text = match check_db(fs.as_ref(), "db") {
                Ok(report) => report.warnings.join("\n"),
                Err(e) => e.to_string(),
            };
            assert!(
                text.contains(signature),
                "{what}: expected signature {signature:?} in {text:?}"
            );
        }
    }
}
