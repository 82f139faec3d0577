//! Opening a database directory: create it, or *repair* a surveyed one.
//!
//! [`crate::survey`] reads what the directory contains and changes
//! nothing; [`repair`] here is every mutation and every durability point
//! of an open, in the one order that is safe at each crash instant.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use acheron_memtable::Memtable;
use acheron_sstable::BlockCache;
use acheron_types::{Error, Result, SeqNo};
use acheron_vfs::Vfs;
use acheron_wal::LogWriter;

use super::{State, VlogSegmentAcct, VlogState};
use crate::filenames::{manifest_name, vlog_path, wal_path};
use crate::manifest::{write_current, EditBatch, ManifestWriter, VersionEdit};
use crate::obs::trace::DeleteLedger;
use crate::obs::{Event, GcKind, RecoveryStepKind};
use crate::options::DbOptions;
use crate::survey::{survey, Survey, WalEnd};
use crate::version::Version;

/// What [`open_image`] hands to `open`: the initial state plus the
/// pieces that live outside the state lock (the active WAL writer and
/// the seqno the allocator starts from).
pub(super) struct Bootstrap {
    pub(super) state: State,
    pub(super) wal: LogWriter,
    pub(super) last_seqno: SeqNo,
    pub(super) next_file_id: u64,
    /// Recovery-time events, buffered because the repair runs before the
    /// [`crate::obs::EventLog`] exists; `open` replays them into the
    /// ring.
    pub(super) events: Vec<Event>,
    /// One past the highest vlog segment on disk (the id a lazily
    /// created writer starts at).
    pub(super) vlog_next_segment: u64,
}

/// Create the database under `dir`, or recover the one that is there,
/// as shard `shard` of its fleet (0 for a standalone engine).
pub(super) fn open_image(
    fs: &dyn Vfs,
    dir: &str,
    opts: &DbOptions,
    cache: Option<&Arc<BlockCache>>,
    shard: usize,
) -> Result<Bootstrap> {
    // Surviving WAL records replay into a fresh memtable.
    let mem = Memtable::new();
    let surveyed = survey(fs, dir, cache, &mem)?;
    let ledger = DeleteLedger::new(shard);
    match surveyed {
        None => initialize(fs, dir, opts, mem, ledger),
        Some(surveyed) => repair(fs, dir, opts, surveyed, mem, ledger),
    }
}

/// Create a fresh database directory layout.
fn initialize(
    fs: &dyn Vfs,
    dir: &str,
    opts: &DbOptions,
    mem: Memtable,
    ledger: DeleteLedger,
) -> Result<Bootstrap> {
    let (manifest_number, wal_number, next_file_id) = (1, 2, 3);
    let name = manifest_name(manifest_number);
    let mut manifest = ManifestWriter::create(fs, &acheron_vfs::join(dir, &name))?;
    manifest.append(&EditBatch {
        edits: vec![
            VersionEdit::NextFileId { id: next_file_id },
            VersionEdit::LogNumber { number: wal_number },
        ],
    })?;
    write_current(fs, dir, &name)?;
    // The directory entries for the manifest and CURRENT must be
    // durable before the open reports success.
    fs.sync_dir(dir)?;
    let wal = LogWriter::new(fs.create(&wal_path(dir, wal_number))?);
    Ok(Bootstrap {
        state: State {
            mem: Arc::new(mem),
            imms: VecDeque::new(),
            live_wals: vec![wal_number],
            version: Arc::new(Version::empty(opts.max_levels)),
            persisted_seqno: 0,
            manifest,
            due: Default::default(),
            vlog: VlogState::default(),
            ledger,
        },
        wal,
        last_seqno: 0,
        next_file_id,
        events: Vec::new(),
        vlog_next_segment: 1,
    })
}

/// Cut the file at `path` back to its first `valid_len` bytes. The
/// rewrite goes write-temp-then-rename — an in-place rewrite would
/// destroy the valid prefix (synced, acknowledged bytes whose only copy
/// is this file) if the power died mid-write. A crash before the rename
/// leaves the torn original plus `.tmp` debris the next open collects;
/// a crash after it leaves the healed file.
fn heal_truncate(fs: &dyn Vfs, path: &str, valid_len: u64) -> Result<()> {
    let data = fs.read_all(path)?;
    let tmp = format!("{path}.tmp");
    let mut healed = fs.create(&tmp)?;
    healed.append(&data[..valid_len as usize])?;
    healed.sync()?;
    healed.finish()?;
    drop(healed);
    fs.rename(&tmp, path)
}

/// Bring a surveyed directory to the state the survey recovered, `mem`
/// holding the replayed WAL records.
fn repair(
    fs: &dyn Vfs,
    dir: &str,
    opts: &DbOptions,
    s: Survey,
    mem: Memtable,
    ledger: DeleteLedger,
) -> Result<Bootstrap> {
    let step = |step, detail| Event::RecoveryStep { step, detail };
    let collected = |kind, id| Event::GcDropped { kind, id };
    let mut events = vec![step(
        RecoveryStepKind::ManifestLoaded,
        s.tables.len() as u64,
    )];
    let clock_start = s.clock_start();
    let version = Version::empty(opts.max_levels)
        .apply(s.tables, &[], &s.range_tombstones, &[])
        .apply_key_ranges(&s.key_range_tombstones, &[]);

    let (replayed, dropped_wals): (Vec<_>, Vec<_>) = s
        .wals
        .iter()
        .partition(|w| !matches!(w.end, WalEnd::Unreplayed));
    events.extend(
        replayed
            .iter()
            .map(|w| step(RecoveryStepKind::WalSegmentReplayed, w.records)),
    );
    if let Some(torn) = replayed.last().filter(|w| !matches!(w.end, WalEnd::Clean)) {
        // A crash can only tear the highest-numbered segment: under
        // `wal_sync` every record in an older segment was synced
        // before anything was written after it. Segments *beyond* a
        // tear therefore mean media corruption mid-history — their
        // records may be durably acknowledged writes, so silently
        // discarding them would be data loss. Fail open and leave
        // the image for explicit repair. Without `wal_sync` no
        // write was ever acknowledged durable and multiple torn
        // segments are ordinary crash debris; the prefix rule keeps
        // recovery consistent.
        if let (Some(first), true) = (dropped_wals.first(), opts.wal_sync) {
            return Err(Error::corruption(format!(
                "WAL segment {:06} is torn mid-history: {} later segment(s) \
                 (first: {:06}) hold records that may be acknowledged synced writes; \
                 refusing to discard them",
                torn.number,
                dropped_wals.len(),
                first.number,
            )));
        }
        // Durably remove every post-tear segment BEFORE the heal
        // below can land. Once the tear is healed the segment reads
        // as clean, so nothing would stop a later open from
        // replaying these segments — resurrecting deleted keys and
        // overwritten values. Failure here is fatal to the open for
        // the same reason; these deletes must not be best-effort.
        for w in &dropped_wals {
            fs.delete(&wal_path(dir, w.number))?;
            events.push(collected(GcKind::DeadWal, w.number));
        }
        if !dropped_wals.is_empty() {
            fs.sync_dir(dir)?;
        }
        // Heal the tear: cut the segment back to its valid prefix
        // so it is healed once, here, instead of being rediscovered
        // (and re-reported by `doctor`) on every future open. The
        // segment stays live — it holds the replayed records until
        // the next flush retires it.
        heal_truncate(fs, &wal_path(dir, torn.number), torn.valid_len)?;
        events.push(step(RecoveryStepKind::TornTailHealed, torn.number));
    }

    // Start a new manifest containing a snapshot of the recovered
    // state (keeps manifests from growing without bound and lets the
    // old one be collected).
    let manifest_number = s.next_file_id;
    let mut live_wals: Vec<u64> = (replayed.iter())
        .filter(|w| w.records > 0)
        .map(|w| w.number)
        .collect();
    let wal_number = manifest_number + 1;
    let next_file_id = wal_number + 1;
    let name = manifest_name(manifest_number);
    let mut manifest = ManifestWriter::create(fs, &acheron_vfs::join(dir, &name))?;
    let mut snapshot_edits = vec![
        VersionEdit::NextFileId { id: next_file_id },
        VersionEdit::PersistedSeqno {
            seqno: s.persisted_seqno,
        },
        // Old WALs must still replay next time if we crash before the
        // next flush, so the log number keeps pointing at the oldest
        // segment holding records (the survey collects empty ones).
        VersionEdit::LogNumber {
            number: live_wals.first().copied().unwrap_or(wal_number),
        },
    ];
    snapshot_edits.extend(version.all_files().map(|f| VersionEdit::add_file(f)));
    snapshot_edits.extend(version.range_tombstones.iter().map(|rt| {
        VersionEdit::AddRangeTombstone {
            seqno: rt.seqno,
            range: rt.range,
        }
    }));
    snapshot_edits.extend(
        (version.key_range_tombstones.iter()).map(|k| VersionEdit::AddKeyRangeTombstone(k.clone())),
    );
    // While a live table still lists range tombstones, the lift is
    // recorded so that no later open lifts its stale list again.
    if version
        .all_files()
        .any(|f| !f.stats.range_tombstones.is_empty())
    {
        snapshot_edits.push(VersionEdit::KeyRangeTombstonesLifted);
    }
    snapshot_edits.extend(
        s.vlog_dropped
            .iter()
            .map(|&segment| VersionEdit::DropVlogSegment { segment }),
    );
    manifest.append(&EditBatch {
        edits: snapshot_edits,
    })?;
    write_current(fs, dir, &name)?;
    // Make the snapshot manifest, the CURRENT repoint, and the tear
    // heal durable before anything they supersede is deleted: until
    // this fsync a real filesystem may still have CURRENT pointing
    // at the *old* manifest, and deleting it first would leave the
    // database unopenable after a crash.
    fs.sync_dir(dir)?;
    events.push(step(
        RecoveryStepKind::SnapshotManifestWritten,
        manifest_number,
    ));

    // Value-log accounting as surveyed: live bytes are whatever the
    // recovered tree and the replayed WAL still reference; every other
    // intact byte of a referenced segment is dead with an unknown stamp,
    // so it is conservatively treated as already overdue (stamp 0) —
    // `D_th` must hold even across a crash that lost the in-memory
    // stamps. Referenced-but-missing segments stay out of the
    // accounting: reads through such a pointer fail loudly (and `doctor`
    // flags them); GC must not try to rewrite a file that is not there.
    let mut segments: BTreeMap<u64, VlogSegmentAcct> = BTreeMap::new();
    let mut vlog_healed = false;
    for (&seg, acct) in &s.vlog {
        let Some(file) = &acct.file else { continue };
        if file.intact_len < file.len {
            // Trim crash debris past the last intact frame. No record
            // is lost: a pointer into the torn region already ended WAL
            // replay at its record.
            heal_truncate(fs, &vlog_path(dir, seg), file.intact_len)?;
            vlog_healed = true;
        }
        let dead_bytes = file.intact_len.saturating_sub(acct.live_bytes);
        let acct = VlogSegmentAcct {
            live_bytes: acct.live_bytes,
            dead_bytes,
            oldest_dead_tick: (dead_bytes > 0).then_some(0),
            retired: false,
        };
        segments.insert(seg, acct);
    }
    if vlog_healed {
        fs.sync_dir(dir)?;
    }

    // Collect everything the snapshot manifest does not reference.
    // Safe now that CURRENT durably points at the snapshot; best-effort
    // because everything deleted here is unreferenced, so leftover
    // garbage is a space leak, not a correctness problem. (A temp file
    // a heal or the CURRENT update above has since overwritten and
    // renamed away is debris all the same: it is gone.)
    for debris in &s.collect {
        let _ = fs.delete(&acheron_vfs::join(dir, &debris.name));
        events.push(collected(debris.kind, debris.id));
    }

    let wal = LogWriter::new(fs.create(&wal_path(dir, wal_number))?);
    live_wals.push(wal_number);

    // Keep the clock ahead of every recovered delete so ages stay
    // meaningful after restart.
    opts.clock_advance_to(clock_start);

    events.push(step(RecoveryStepKind::Finished, mem.stats().entries as u64));
    Ok(Bootstrap {
        state: State {
            mem: Arc::new(mem),
            imms: VecDeque::new(),
            live_wals,
            version: Arc::new(version),
            persisted_seqno: s.persisted_seqno,
            manifest,
            due: Default::default(),
            vlog: VlogState { segments },
            ledger,
        },
        wal,
        last_seqno: s.last_seqno,
        next_file_id,
        events,
        vlog_next_segment: s.vlog_next_segment,
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{big_value, small, vlog_opts};
    use super::super::Db;
    use crate::obs::GcKind;
    use crate::options::DbOptions;
    use crate::survey::survey;
    use crate::testutil::OpenForecast;
    use acheron_vfs::{MemFs, Vfs};
    use acheron_wal::{LogWriter, WalBatch, WalOp};
    use bytes::Bytes;
    use std::sync::Arc;

    #[test]
    fn crash_recovery_restores_acknowledged_writes() {
        let fs = Arc::new(MemFs::new());
        {
            let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", small()).unwrap();
            for i in 0..1500u32 {
                db.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.delete(b"key00007").unwrap();
            db.range_delete_secondary(1, 2).unwrap();
            // No clean shutdown: just drop the handle.
        }
        let db = Db::open(fs as Arc<dyn Vfs>, "db", small()).unwrap();
        assert_eq!(db.get(b"key00007").unwrap(), None);
        for i in (0..1500u32).step_by(119) {
            if i == 7 {
                continue;
            }
            let got = db.get(format!("key{i:05}").as_bytes()).unwrap();
            assert_eq!(
                got.unwrap().as_ref(),
                format!("v{i}").as_bytes(),
                "key{i:05}"
            );
        }
        db.verify_integrity().unwrap();
    }

    /// A put's secondary delete key set past the clock does not move a
    /// reopened engine's clock: that key is an attribute of the row, and
    /// a large one would age every recovered delete by it.
    #[test]
    fn a_put_dkey_does_not_move_the_recovered_clock() {
        let fs = Arc::new(MemFs::new());
        let opts = || small().with_fade(1_000);
        let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", opts()).unwrap();
        db.put_with_dkey(b"row", b"v", 1_700_000_000_000).unwrap();
        let tick = db.now();
        db.delete(b"gone").unwrap();
        drop(db);
        let db = Db::open(fs as Arc<dyn Vfs>, "db", opts()).unwrap();
        assert_eq!(db.now(), tick);
        let audit = db.delete_audit();
        assert_eq!(audit.oldest_live_tombstone_tick, Some(tick));
        assert!(audit.ok(), "{}", audit.render());
    }

    /// The puts a WAL holds were stamped with the ticks they were
    /// issued at, so a reopened clock starts no earlier than the last
    /// of them, and a delete flushed before them keeps its age.
    #[test]
    fn a_reopened_clock_does_not_run_back_past_the_logged_puts() {
        let fs = Arc::new(MemFs::new());
        let open = || Db::open(fs.clone() as Arc<dyn Vfs>, "db", small()).unwrap();
        let db = open();
        let deleted = db.now();
        db.delete(b"gone").unwrap();
        db.flush().unwrap();
        let mut last_put = deleted;
        for i in 0..50 {
            last_put = db.now();
            db.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        drop(db);
        let db = open();
        assert!(db.now() >= last_put, "{} < {last_put}", db.now());
        let audit = db.delete_audit();
        assert_eq!(audit.oldest_live_tombstone_tick, Some(deleted));
        assert!(audit.now - deleted >= 50, "the delete's age is understated");
    }

    #[test]
    fn reopening_leaves_no_empty_wal_segment_behind() {
        for unflushed in [false, true] {
            let fs = Arc::new(MemFs::new());
            let open = || Db::open(fs.clone() as Arc<dyn Vfs>, "db", small()).unwrap();
            let db = open();
            if unflushed {
                db.put(b"k", b"v").unwrap();
            }
            drop(db);
            drop(open());
            let files = fs.list("db").unwrap().len();
            for _ in 0..5 {
                // The survey (which the doctor reports from) forecasts
                // the collection the open makes.
                let s = survey(fs.as_ref(), "db", None, &acheron_memtable::Memtable::new())
                    .unwrap()
                    .unwrap();
                assert!(s.collect.iter().any(|d| matches!(d.kind, GcKind::DeadWal)));
                drop(open());
                assert_eq!(fs.list("db").unwrap().len(), files, "{:?}", fs.list("db"));
            }
            assert_eq!(open().get(b"k").unwrap().is_some(), unflushed);
        }
    }

    #[test]
    fn recovery_is_idempotent_across_restarts() {
        let fs = Arc::new(MemFs::new());
        for restart in 0..3 {
            let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", small()).unwrap();
            db.put(format!("round{restart}").as_bytes(), b"done")
                .unwrap();
            for r in 0..=restart {
                assert_eq!(
                    db.get(format!("round{r}").as_bytes())
                        .unwrap()
                        .unwrap()
                        .as_ref(),
                    b"done",
                    "restart {restart}, round {r}"
                );
            }
        }
    }

    /// Build the torn-mid-history image of the test below: a torn
    /// active segment plus a later-numbered segment holding a delete of
    /// "alpha" that must never replay.
    fn torn_mid_history_image() -> (Arc<MemFs>, String) {
        let fs = Arc::new(MemFs::new());
        {
            let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", small()).unwrap();
            db.put(b"alpha", b"keep").unwrap();
            db.put(b"beta", b"torn-away").unwrap();
        }
        // Tear the tail of the active segment: "beta" is lost.
        let wal_name = fs
            .list("db")
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".log"))
            .max()
            .unwrap();
        let wal_file = acheron_vfs::join("db", &wal_name);
        let data = fs.read_all(&wal_file).unwrap();
        fs.write_all(&wal_file, &data[..data.len() - 3]).unwrap();
        // Craft a later-numbered segment holding a delete of "alpha" —
        // the on-disk shape of unsynced writes landing out of order.
        let later = acheron_vfs::join("db", "000099.log");
        let mut w = LogWriter::new(fs.create(&later).unwrap());
        let mut batch = WalBatch::new(10);
        batch.ops.push(WalOp::Delete {
            key: Bytes::from_static(b"alpha"),
            tick: 1,
        });
        w.add_record(&batch.encode()).unwrap();
        w.finish().unwrap();
        (fs, later)
    }

    /// `doctor`'s forecast for the image on `fs` against what opening it
    /// is then observed to do.
    fn forecast_and_open(fs: &MemFs, opts: &DbOptions) -> (OpenForecast, OpenForecast) {
        (
            OpenForecast::by_doctor(fs, "db").unwrap(),
            OpenForecast::by_open(fs, "db", opts).unwrap(),
        )
    }

    #[test]
    fn doctor_forecasts_the_prefix_rule_past_a_tear() {
        // Without `wal_sync` the open replays the torn segment's valid
        // prefix and deletes the later segment unreplayed; doctor used
        // to count that segment's record as replayable.
        let (fs, _later) = torn_mid_history_image();
        let (forecast, seen) = forecast_and_open(&fs, &small());
        assert_eq!(forecast, seen);
        assert_eq!(forecast.wal_records, 1, "alpha's put, not 000099's delete");
        assert!(
            forecast.collected.contains(&("dead_wal", 99)),
            "{forecast:?}"
        );
    }

    #[test]
    fn doctor_forecasts_the_records_before_an_unreadable_pointer() {
        // A crash tore the vlog head behind the newest WAL record. The
        // open cuts the WAL at that record and keeps the records before
        // it — their frames in the same segment stay live; doctor used
        // to drop every WAL-held byte of the segment.
        let fs = Arc::new(MemFs::new());
        {
            let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", vlog_opts()).unwrap();
            for i in 0..12u32 {
                db.put(format!("big{i:04}").as_bytes(), &big_value(i))
                    .unwrap();
            }
        }
        let head = fs
            .list("db")
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".vlg"))
            .max()
            .unwrap();
        let head = acheron_vfs::join("db", &head);
        let data = fs.read_all(&head).unwrap();
        fs.write_all(&head, &data[..data.len() - 5]).unwrap();
        let whole_segments: u64 = fs
            .list("db")
            .unwrap()
            .iter()
            .map(|n| acheron_vfs::join("db", n))
            .filter(|p| p.ends_with(".vlg") && *p != head)
            .map(|p| fs.file_size(&p).unwrap())
            .sum();

        let (forecast, seen) = forecast_and_open(&fs, &vlog_opts());
        assert_eq!(forecast, seen);
        assert_eq!(forecast.wal_records, 11, "every put but the torn one");
        assert!(
            forecast.vlog_live_bytes > whole_segments,
            "the torn segment's intact frames stay live: {forecast:?}"
        );
    }

    #[test]
    fn torn_wal_tail_stops_replay_of_later_segments() {
        // A tear in one WAL segment must end replay globally: records in
        // later-numbered segments were written strictly after the bytes
        // lost in the tear, so replaying them would recover a
        // non-contiguous history — here, resurrecting a delete whose
        // predecessors were never durable. (Dropping them silently is
        // only legitimate without `wal_sync`, when no write was ever
        // acknowledged durable — which is what `small()` uses; the
        // synced-WAL case refuses to open instead, tested below.)
        let (fs, later) = torn_mid_history_image();
        let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", small()).unwrap();
        assert_eq!(
            db.get(b"alpha").unwrap().as_deref(),
            Some(&b"keep"[..]),
            "a delete past the tear must not replay"
        );
        assert_eq!(db.get(b"beta").unwrap(), None, "the torn record is lost");
        assert!(
            !fs.exists(&later),
            "the unreplayable segment is collected at recovery"
        );
    }

    #[test]
    fn torn_mid_history_with_synced_wal_refuses_to_open() {
        // Under `wal_sync` every record in an older segment was synced
        // before anything after it was written, so a tear followed by
        // more segments cannot come from a crash — it is media
        // corruption, and the later segments may hold acknowledged
        // writes. Discarding them silently would be data loss.
        let (fs, _later) = torn_mid_history_image();
        let opts = DbOptions {
            wal_sync: true,
            ..small()
        };
        let err = match Db::open(fs as Arc<dyn Vfs>, "db", opts) {
            Err(e) => e,
            Ok(_) => panic!("open must refuse a torn mid-history image under wal_sync"),
        };
        assert!(err.is_corruption(), "{err}");
        assert!(err.to_string().contains("torn mid-history"), "{err}");
    }

    #[test]
    fn failed_dropped_segment_delete_is_fatal_to_open() {
        // The post-tear segments must be durably gone before the tear
        // is healed; a failed delete silently shrugged off would leave
        // a healed (clean-reading) segment alongside the dropped one,
        // and the next open would replay it — resurrecting the delete
        // of "alpha". So the delete failure must abort the open.
        use acheron_vfs::{FaultKind, FaultOp, FaultRule, FaultVfs};
        let (fs, later) = torn_mid_history_image();
        let fault = FaultVfs::new(fs.clone() as Arc<dyn Vfs>);
        fault.inject(FaultRule::new(FaultOp::Delete, FaultKind::Error).on_path("000099.log"));
        assert!(
            Db::open(Arc::new(fault.clone()) as Arc<dyn Vfs>, "db", small()).is_err(),
            "a failed dropped-segment delete must be fatal"
        );
        assert!(fs.exists(&later), "the segment outlived its failed delete");
        // With the fault cleared the same image opens and the delete
        // past the tear still must not replay.
        fault.clear_faults();
        let db = Db::open(Arc::new(fault) as Arc<dyn Vfs>, "db", small()).unwrap();
        assert_eq!(db.get(b"alpha").unwrap().as_deref(), Some(&b"keep"[..]));
    }

    #[test]
    fn crash_between_dropped_segment_delete_and_heal_cannot_resurrect() {
        // Power dies exactly at the dropped-segment delete, before the
        // heal could land. The surviving image still shows the tear, so
        // the next open re-drops (and this time deletes) the later
        // segment instead of replaying its delete of "alpha".
        use acheron_vfs::{FaultKind, FaultOp, FaultRule, FaultVfs};
        let (fs, later) = torn_mid_history_image();
        let fault = FaultVfs::new(fs as Arc<dyn Vfs>);
        fault.inject(FaultRule::new(FaultOp::Delete, FaultKind::PowerCut).on_path("000099.log"));
        assert!(
            Db::open(Arc::new(fault.clone()) as Arc<dyn Vfs>, "db", small()).is_err(),
            "power died mid-recovery"
        );
        fault.reboot();
        let db = Db::open(Arc::new(fault.clone()) as Arc<dyn Vfs>, "db", small()).unwrap();
        assert_eq!(
            db.get(b"alpha").unwrap().as_deref(),
            Some(&b"keep"[..]),
            "the dropped segment's delete must not resurrect across the recovery crash"
        );
        assert!(
            !fault.exists(&later),
            "second recovery collected the dropped segment"
        );
    }

    #[test]
    fn crash_during_tear_heal_preserves_the_valid_prefix() {
        // The heal rewrites the torn segment via write-temp-then-rename;
        // whatever instant power dies at, the segment's valid prefix
        // (synced, acknowledged records whose only copy is this file)
        // must survive. Sweep a cut over every durability point of the
        // recovery, reboot, reopen, and check.
        use acheron_vfs::FaultVfs;
        for point in 0..8 {
            let fs = Arc::new(MemFs::new());
            {
                let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", small()).unwrap();
                db.put(b"alpha", b"keep").unwrap();
                db.put(b"beta", b"torn-away").unwrap();
            }
            let wal_name = fs
                .list("db")
                .unwrap()
                .into_iter()
                .filter(|n| n.ends_with(".log"))
                .max()
                .unwrap();
            let wal_file = acheron_vfs::join("db", &wal_name);
            let data = fs.read_all(&wal_file).unwrap();
            fs.write_all(&wal_file, &data[..data.len() - 3]).unwrap();

            let fault = FaultVfs::new(fs as Arc<dyn Vfs>);
            fault.arm_power_cut_at(point);
            let _ = Db::open(Arc::new(fault.clone()) as Arc<dyn Vfs>, "db", small());
            fault.reboot();
            let db = Db::open(Arc::new(fault.clone()) as Arc<dyn Vfs>, "db", small())
                .unwrap_or_else(|e| panic!("reopen after cut at point {point}: {e}"));
            assert_eq!(
                db.get(b"alpha").unwrap().as_deref(),
                Some(&b"keep"[..]),
                "valid prefix lost by a heal crash at point {point}"
            );
            drop(db);
            for name in fault.list("db").unwrap() {
                assert!(
                    !name.ends_with(".tmp"),
                    "heal debris {name} not collected (cut point {point})"
                );
            }
        }
    }

    #[test]
    fn recovery_collects_orphan_files() {
        let fs = Arc::new(MemFs::new());
        {
            let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", small()).unwrap();
            for i in 0..2000u32 {
                db.put(format!("key{i:05}").as_bytes(), &[b'v'; 48])
                    .unwrap();
            }
            db.flush().unwrap();
        }
        // Plant garbage a crash could leave behind: a table the
        // manifest never adopted and a stale pre-log-number WAL.
        fs.write_all("db/999990.sst", b"half-built table junk")
            .unwrap();
        fs.write_all("db/000001.log", b"stale segment").unwrap();
        let old_manifest = fs
            .list("db")
            .unwrap()
            .into_iter()
            .find(|n| n.starts_with("MANIFEST-"))
            .unwrap();
        let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", small()).unwrap();
        assert!(!fs.exists("db/999990.sst"), "orphan table collected");
        assert!(!fs.exists("db/000001.log"), "obsolete WAL collected");
        assert!(
            !fs.exists(&acheron_vfs::join("db", &old_manifest)),
            "superseded manifest collected"
        );
        // Nothing live was touched.
        for i in (0..2000u32).step_by(97) {
            assert!(db.get(format!("key{i:05}").as_bytes()).unwrap().is_some());
        }
        db.verify_integrity().unwrap();
    }

    #[test]
    fn separated_values_survive_crash_and_reopen() {
        let fs = Arc::new(MemFs::new());
        {
            let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", vlog_opts()).unwrap();
            for i in 0..120u32 {
                db.put(format!("big{i:04}").as_bytes(), &big_value(i))
                    .unwrap();
            }
            db.flush().unwrap();
            // These stay in the WAL: recovery must re-validate their
            // vlog frames before replaying the pointers.
            for i in 120..160u32 {
                db.put(format!("big{i:04}").as_bytes(), &big_value(i))
                    .unwrap();
            }
            // No clean shutdown: just drop the handle.
        }
        let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", vlog_opts()).unwrap();
        for i in 0..160u32 {
            assert_eq!(
                db.get(format!("big{i:04}").as_bytes()).unwrap().unwrap(),
                big_value(i),
                "big{i:04} lost across reopen"
            );
        }
        assert!(db.tombstone_gauges().vlog_live_bytes > 0);
        db.verify_integrity().unwrap();
    }

    #[test]
    fn recovery_drops_orphan_vlog_segments() {
        let fs = Arc::new(MemFs::new());
        {
            let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", vlog_opts()).unwrap();
            for i in 0..50u32 {
                db.put(format!("big{i:04}").as_bytes(), &big_value(i))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        // A segment no pointer references (e.g. GC finished rewriting it
        // but crashed before deleting the file).
        let stray = "db/vlog-000099.vlg";
        (fs.clone() as Arc<dyn Vfs>)
            .write_all(stray, b"leftover bytes")
            .unwrap();
        let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", vlog_opts()).unwrap();
        assert!(
            !(fs.clone() as Arc<dyn Vfs>).exists(stray),
            "orphan segment should be removed by recovery GC"
        );
        assert_eq!(db.get(b"big0001").unwrap().unwrap(), big_value(1));
    }

    #[test]
    fn recovery_rebuilds_vlog_accounting() {
        let fs = Arc::new(MemFs::new());
        {
            let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", vlog_opts()).unwrap();
            for i in 0..100u32 {
                db.put(format!("big{i:04}").as_bytes(), &big_value(i))
                    .unwrap();
            }
            db.flush().unwrap();
            for i in 0..40u32 {
                db.delete(format!("big{i:04}").as_bytes()).unwrap();
            }
            // Drop the pointers but leave GC to the next incarnation.
            let _pause = db.pause_maintenance();
            db.compact_all().unwrap();
        }
        let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", vlog_opts()).unwrap();
        let gauges = db.tombstone_gauges();
        assert!(
            gauges.vlog_live_bytes > 0,
            "live bytes rebuilt from table refs"
        );
        for i in 40..100u32 {
            assert_eq!(
                db.get(format!("big{i:04}").as_bytes()).unwrap().unwrap(),
                big_value(i)
            );
        }
        for i in 0..40u32 {
            assert_eq!(db.get(format!("big{i:04}").as_bytes()).unwrap(), None);
        }
    }
}
